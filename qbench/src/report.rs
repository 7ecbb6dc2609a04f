//! The result of one run: metrics with units, op counts and the
//! correctness verdict, printed as readable lines followed by the final
//! JSON object.

use crate::host::SpeedLog;
use crate::trace::{now_ns, Hist};

#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// readable notes printed before the metrics (sample counts, checks)
    pub notes: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Default::default()
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        debug_assert!(self.metrics.iter().all(|(n, _, _)| *n != name));
        self.metrics.push((name, value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed correctness check; the run reports `correct: false`.
    pub fn check(&mut self, ok: bool, what: &str) {
        if ok {
            self.note(format!("check ok: {what}"));
        } else {
            self.correct = false;
            self.note(format!("CHECK FAILED: {what}"));
        }
    }

    /// Keeps only the named metrics, in the given order.
    pub fn select(&mut self, names: &[&str]) {
        let mut out = Vec::with_capacity(names.len());
        for name in names {
            let found = self.metrics.iter().find(|(n, _, _)| n == name);
            let &(n, v, u) = found.unwrap_or_else(|| panic!("metric `{name}` was not measured"));
            out.push((n, v, u));
        }
        self.metrics = out;
    }

    pub fn print(&self) {
        for line in &self.notes {
            println!("# {line}");
        }
        for (name, value, unit) in &self.metrics {
            println!("{name} = {value} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(*v)))
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// End-to-end op statistics of one timed window, at reference host
/// speed (see `host.rs`), with the raw wall figures beside them.
pub struct OpStats {
    pub ops: u64,
    pub wall_s: f64,
    pub ops_per_s: f64,
    pub lat: Hist,
    pub raw_ops_per_s: f64,
    pub raw_lat: Hist,
    /// median calibration-kernel time of the window, in µs
    pub kernel_us: f64,
    pub samples: usize,
}

impl OpStats {
    /// `timed` are the `(start, end)` pairs of ops with a latency sample,
    /// `counted` further ops without one; the window is `[t0, t1]` in ns.
    pub fn of(timed: &[(u64, u64)], counted: u64, t0: u64, t1: u64, speed: &SpeedLog) -> OpStats {
        let (mut lat, mut raw_lat) = (Hist::default(), Hist::default());
        for &(s, e) in timed {
            lat.push(speed.scale_ns(s, e) as u64);
            raw_lat.push(e - s);
        }
        Self::from_hists(lat, raw_lat, timed.len() as u64 + counted, t0, t1, speed)
    }

    /// `ops` ops completed in `[t0, t1]` with latencies `lat` (scaled)
    /// and `raw_lat` (wall).
    pub fn from_hists(lat: Hist, raw_lat: Hist, ops: u64, t0: u64, t1: u64, speed: &SpeedLog) -> OpStats {
        let wall_s = speed.window_ns(t0, t1) / 1e9;
        let raw_wall_s = (t1 - t0 - speed.calibration_ns(t0, t1)) as f64 / 1e9;
        OpStats {
            ops,
            wall_s,
            ops_per_s: ops as f64 / wall_s,
            lat,
            raw_ops_per_s: ops as f64 / raw_wall_s,
            raw_lat,
            kernel_us: speed.median_kernel_us(),
            samples: speed.len(),
        }
    }

    /// Adds `ops_per_s`, `op_p50_us` and `op_p90_us` with their sample
    /// counts, and notes the raw wall figures.
    pub fn report(&self, r: &mut Report) {
        r.note(format!(
            "ops: {} in {:.3} s at reference speed; op latency samples {}, beyond p90 {}",
            self.ops,
            self.wall_s,
            self.lat.len(),
            self.lat.beyond(90.0)
        ));
        r.note(format!(
            "host speed: {} calibration samples, median kernel {:.2} us (reference {:.2} us); \
             raw wall ops_per_s {:.3}, op_p50_us {:.1}, op_p90_us {:.1}",
            self.samples,
            self.kernel_us,
            crate::host::REF_KERNEL_NS / 1e3,
            self.raw_ops_per_s,
            self.raw_lat.pct_us(50.0),
            self.raw_lat.pct_us(90.0)
        ));
        r.metric("ops_per_s", self.ops_per_s, "1/s");
        r.metric("op_p50_us", self.lat.pct_us(50.0), "us");
        r.metric("op_p90_us", self.lat.pct_us(90.0), "us");
    }
}

/// Median of per-repetition set-up times at reference speed; each
/// repetition is bracketed by calibration samples. Returns the scaled
/// and the raw median in seconds.
pub fn setup_median(reps: &[(u64, u64)], speed: &SpeedLog) -> (f64, f64) {
    let scaled: Vec<f64> = reps.iter().map(|&(a, b)| speed.scale_ns(a, b) / 1e9).collect();
    let raw: Vec<f64> = reps.iter().map(|&(a, b)| (b - a) as f64 / 1e9).collect();
    (median(&scaled), median(&raw))
}

/// Runs whole passes for about `seconds`: a further pass starts only
/// while at least half of one more fits in the window. Returns every
/// pass's output and the window's `(start, end)` in `trace::now_ns` time.
pub fn run_passes<T>(seconds: u64, mut pass: impl FnMut(usize) -> T) -> (Vec<T>, (u64, u64)) {
    let window = seconds * 1_000_000_000;
    let t0 = now_ns();
    let mut outs = vec![pass(0)];
    loop {
        let elapsed = now_ns() - t0;
        if elapsed + elapsed / outs.len() as u64 / 2 >= window {
            break;
        }
        outs.push(pass(outs.len()));
    }
    (outs, (t0, now_ns()))
}

/// Median of a non-empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Quartiles as Python's `statistics.quantiles(xs, n=4)` computes them
/// (the default "exclusive" method). Needs at least two values.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
