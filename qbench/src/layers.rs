//! Per-layer metrics derived from a traced run's spans and meters.

use std::collections::BTreeMap;

use crate::report::Report;
use crate::trace::{Layer, SpanRec};
use crate::wrap::Meter;
use crate::Args;

pub type Layers = BTreeMap<&'static str, Layer>;

/// Median self time of the spans named `name`, in µs.
pub fn p50_us(layers: &Layers, name: &str) -> f64 {
    layers.get(name).map_or(0.0, |l| l.self_ns.pct_us(50.0))
}

/// Summed self time of the spans named `name`, in s.
pub fn self_s(layers: &Layers, name: &str) -> f64 {
    layers.get(name).map_or(0.0, |l| l.self_ns.sum_ns() as f64 / 1e9)
}

/// Solver and problem layers, shared by the two pipeline workloads.
pub fn solver_layers(r: &mut Report, meter: &Meter, layers: &Layers) {
    r.metric("solvers.sample_us_p50", p50_us(layers, "solvers.sample"), "us");
    r.metric("solvers.sample_busy_s", self_s(layers, "solvers.sample"), "s");
    r.metric("problems.to_qubo_us_p50", p50_us(layers, "problems.to_qubo"), "us");
    r.metric(
        "qubo.couplings_mean",
        meter.couplings as f64 / meter.models.max(1) as f64,
        "count",
    );
    r.metric("problems.score_us_p50", meter.score_per_op.pct_us(50.0), "us");
}

/// Summed self time of every span as a share of `wall_ns`: how much of
/// a traced window the layer spans account for.
pub fn self_ratio(layers: &Layers, wall_ns: u64) -> f64 {
    let self_ns: u64 = layers.values().map(|l| l.self_ns.sum_ns()).sum();
    self_ns as f64 / wall_ns as f64
}

/// Tracing overhead, self-time accounting and the span dump.
///
/// `untraced` is the op rate of the same work untraced, `traced` the traced
/// window's ops; `accounted` is the share of the traced op time the
/// layer spans cover.
pub fn finish(
    r: &mut Report,
    args: &Args,
    untraced: &crate::report::OpStats,
    traced: &crate::report::OpStats,
    accounted: f64,
    layers: &Layers,
    dump: &[SpanRec],
) {
    r.note(format!(
        "trace: untraced {:.3} ops/s, traced {:.3} ops/s at reference speed (raw wall {:.3} and {:.3})",
        untraced.ops_per_s, traced.ops_per_s, untraced.raw_ops_per_s, traced.raw_ops_per_s
    ));
    r.metric("trace.overhead_pct", (untraced.ops_per_s / traced.ops_per_s - 1.0) * 100.0, "%");
    r.metric("trace.ops_per_s", traced.ops_per_s, "1/s");
    r.metric("trace.op_p50_us", traced.lat.pct_us(50.0), "us");
    r.metric("trace.accounted_ratio", accounted, "ratio");
    for (name, layer) in layers {
        r.note(format!(
            "span {name}: {} spans, self {:.6} s, total {:.6} s",
            layer.self_ns.len(),
            layer.self_ns.sum_ns() as f64 / 1e9,
            layer.total_ns as f64 / 1e9
        ));
    }
    let path = std::path::PathBuf::from(format!(
        ".qbench/spans-{}-seed{}.tsv",
        args.workload, args.seed
    ));
    match crate::trace::write_dump(&path, dump) {
        Ok(()) => r.note(format!("{} spans written to {}", dump.len(), path.display())),
        Err(e) => r.note(format!("span dump not written: {e}")),
    }
}
