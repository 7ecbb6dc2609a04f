//! `offline-train`: the paper's offline phase at micro tier.
//!
//! One pass collects and trains every family once: TSP through
//! `Pipeline::collect_corpus` + `TrainedQross::train_on_corpus`, MVC and
//! QAP through `collect_dataset` + `Surrogate::train`. Workers are 1, so
//! nested solver fan-out runs inline too. One op is one `Solver::sample`
//! call.

use bench::experiments::{pipeline_config, Solvers};
use bench::serve::corpus_tier;
use bench::Scale;
use problems::{lookup_family, FamilyProblem, ProblemFamily};
use qross::dataset::SurrogateDataset;
use qross::pipeline::{collect_dataset, CollectedCorpus, Pipeline, PipelineConfig, TrainedQross};
use qross::surrogate::{Surrogate, TrainReport};
use qross_store::Artifact;
use solvers::Solver;

use crate::host;
use crate::report::{median, run_passes, setup_median, OpStats, Report};
use crate::trace::{self, now_ns};
use crate::wrap::{take_meter, Op, TimedProblem, TimedSolver};
use crate::{Args, Pinned};

/// Registry families trained through the generic path.
const GENERIC: [&str; 2] = ["mvc", "qap"];

/// A registry family with its generated micro corpus.
type FamilyCorpus = (&'static dyn ProblemFamily, Vec<Box<dyn FamilyProblem>>);

struct Inputs {
    cfg: PipelineConfig,
    generic: Vec<FamilyCorpus>,
}

/// What one pass produced, as store bytes for bit-for-bit comparison.
struct PassOut {
    tsp_corpus: Vec<u8>,
    tsp_model: Vec<u8>,
    generic: Vec<(Vec<u8>, Vec<u8>)>,
    reports: Vec<TrainReport>,
    rows: usize,
    feasible_rows: usize,
}

/// Passes whose inputs a set-up prepares: each pass of a run collects
/// and trains on corpora of its own seed (a 20 s window runs 2–3 passes
/// on the reference host), cycling if a faster host runs more.
const PASS_POOL: usize = 4;

/// Seed of pass `p`'s corpora.
fn pass_seed(seed: u64, p: usize) -> u64 {
    mathkit::rng::derive_seed(seed, 0x0FF1 + p as u64)
}

/// Set-up a user pays on every start of the offline phase: corpus
/// generation and featurisation of every family for each of the
/// [`PASS_POOL`] passes (the TSP train and test instances are generated
/// and preprocessed as the pipeline does).
fn setup(seed: u64, workers: usize, r: &mut SetupTimes) -> Vec<Inputs> {
    let t0 = now_ns();
    let mut featurize_ns = 0;
    let inputs = (0..PASS_POOL)
        .map(|p| setup_pass(pass_seed(seed, p), workers, &mut featurize_ns))
        .collect();
    let total = now_ns() - t0;
    r.corpus.push((total - featurize_ns) as f64 / 1e6);
    r.featurize.push(featurize_ns as f64 / 1e6);
    inputs
}

/// One pass's inputs; adds the featurisation time to `featurize_ns`.
fn setup_pass(seed: u64, workers: usize, featurize_ns: &mut u64) -> Inputs {
    let mut cfg = pipeline_config(Scale::Micro, seed);
    cfg.workers = workers;
    // Every TSP instance at the tier's largest size: a 9-city call costs
    // ~30% less than a 10-city one, and a seed's random mix of the two
    // would otherwise move the op percentiles from run to run.
    cfg.generator.min_cities = cfg.generator.max_cities;
    let tsp = problems::tsp::generator::SyntheticDataset::generate(
        &cfg.generator,
        cfg.train_instances,
        cfg.test_instances,
        cfg.seed,
    );
    let encodings: Vec<problems::TspEncoding> = tsp
        .train()
        .iter()
        .chain(tsp.test())
        .map(|i| problems::TspEncoding::preprocessed(i.clone()))
        .collect();
    let generic: Vec<_> = GENERIC
        .iter()
        .map(|name| {
            let family = lookup_family(name).expect("registered family");
            (family, family.corpus(corpus_tier(Scale::Micro), seed))
        })
        .collect();
    let t1 = now_ns();
    let mut width = 0;
    for enc in &encodings {
        width += problems::tsp::features::statistical_features(enc.qubo_instance()).len();
    }
    for (_, corpus) in &generic {
        for p in corpus {
            width += p.features().len();
        }
    }
    assert!(width > 0);
    *featurize_ns += now_ns() - t1;
    Inputs { cfg, generic }
}

#[derive(Default)]
struct SetupTimes {
    corpus: Vec<f64>,
    featurize: Vec<f64>,
}

/// One full pass of collection and training over every family; the TSP
/// path samples through `tsp_solver`, the registry path through
/// `generic_solver`.
fn pass<S: Solver, G: Solver>(
    inputs: &Inputs,
    tsp_solver: &S,
    generic_solver: &G,
    wrap_problems: bool,
) -> PassOut {
    let cfg = &inputs.cfg;
    let tsp = trace::span("collect", 0, || {
        Pipeline::new(*cfg)
            .collect_corpus(tsp_solver)
            .expect("statistical featurizer has a spec")
    });
    let trained = trace::span("surrogate.train", 0, || {
        TrainedQross::train_on_corpus(&tsp).expect("TSP surrogate trains")
    });
    let mut rows = tsp.dataset.len();
    let mut feasible_rows = feasible(&tsp.dataset);
    let mut reports = vec![trained.report.clone()];
    let mut generic = Vec::new();
    for (family, corpus) in &inputs.generic {
        let dataset = trace::span("collect", 0, || {
            if wrap_problems {
                let timed: Vec<TimedProblem<dyn FamilyProblem>> =
                    corpus.iter().map(|p| TimedProblem(p.as_ref())).collect();
                collect_dataset(
                    &timed,
                    |p| p.0.features(),
                    family.feature_dim(),
                    &cfg.collect,
                    generic_solver,
                    cfg.seed,
                    cfg.workers,
                )
            } else {
                collect_dataset(
                    corpus,
                    |p| p.features(),
                    family.feature_dim(),
                    &cfg.collect,
                    generic_solver,
                    cfg.seed,
                    cfg.workers,
                )
            }
        });
        let (surrogate, report) = trace::span("surrogate.train", 0, || {
            Surrogate::train(&dataset, &cfg.surrogate).expect("family surrogate trains")
        });
        rows += dataset.len();
        feasible_rows += feasible(&dataset);
        reports.push(report);
        generic.push((dataset.to_store_bytes(), surrogate.to_state().to_store_bytes()));
    }
    // The worker count is a run setting stored in the corpus, not content.
    let tsp_content = CollectedCorpus {
        config: PipelineConfig { workers: 0, ..tsp.config },
        ..tsp
    };
    PassOut {
        tsp_corpus: tsp_content.to_store_bytes(),
        tsp_model: trained.surrogate.to_state().to_store_bytes(),
        generic,
        reports,
        rows,
        feasible_rows,
    }
}

/// Dataset rows (one per solver call) whose batch held a feasible sample.
fn feasible(dataset: &SurrogateDataset) -> usize {
    dataset.rows().iter().filter(|r| r.pf > 0.0).count()
}

pub fn run(args: &Args, pinned: &Pinned, r: &mut Report) {
    let allowed = host::affinity::allowed();
    let core = &allowed[..allowed.len().min(1)];
    host::start(core);
    let mut times = SetupTimes::default();
    let mut reps = Vec::new();
    // Every set-up prepares the same passes; the last one is kept.
    let mut last = None;
    host::sample();
    for _ in 0..pinned.setup_reps {
        let t0 = now_ns();
        last = Some(setup(args.seed, pinned.workers, &mut times));
        reps.push((t0, now_ns()));
        host::sample();
    }
    let inputs = last.expect("at least one set-up");
    let da = Solvers::at(Scale::Micro).da;
    // Every call is an op. Latency samples come from the TSP path only:
    // its calls (~48% of them) are 3–7x slower than MVC's and QAP's, so
    // a percentile over the mix sits on the gap between the two and
    // jumps with the seed's mix of probe counts.
    let tsp_solver = TimedSolver {
        inner: &da,
        op: Op::Timed,
    };
    let generic_solver = TimedSolver {
        inner: &da,
        op: Op::Counted,
    };

    // Timed window, tracing off: whole passes for about `--seconds`.
    let (passes, (t0, t1)) =
        run_passes(args.seconds, |p| pass(&inputs[p % PASS_POOL], &tsp_solver, &generic_solver, true));
    host::sample();
    let speed = host::stop(&allowed);
    let first = &passes[0];
    let meter = take_meter();
    let stats = OpStats::of(&meter.ops, meter.counted_ops, t0, t1, &speed);
    let rss = crate::report::peak_rss_mb();
    r.attempted = stats.ops;
    r.note(format!("passes: {}", passes.len()));

    let (setup_s, raw_setup_s) = setup_median(&reps, &speed);
    r.note(format!("set-up: raw wall median {raw_setup_s:.6} s"));
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", rss, "MB");
    stats.report(r);

    // Bit-neutrality: the unwrapped library calls, at the machine's
    // worker count (bit-identical for every count), must reproduce the
    // wrapped pass exactly.
    let reference = pass(
        &Inputs {
            cfg: PipelineConfig {
                workers: pinned.check_workers,
                ..inputs[0].cfg
            },
            generic: inputs[0]
                .generic
                .iter()
                .map(|(f, _)| (*f, f.corpus(corpus_tier(Scale::Micro), pass_seed(args.seed, 0))))
                .collect(),
        },
        &da,
        &da,
        false,
    );
    r.check(
        reference.tsp_corpus == first.tsp_corpus && reference.tsp_model == first.tsp_model,
        "wrapped TSP corpus and surrogate match Pipeline::collect_corpus + train_on_corpus bit for bit",
    );
    r.check(
        reference.generic == first.generic,
        "wrapped MVC/QAP datasets and surrogates match collect_dataset + Surrogate::train bit for bit",
    );
    let pf_val: Vec<f64> = first
        .reports
        .iter()
        .map(|rep| rep.pf.val_loss.last().copied().unwrap_or(f64::NAN))
        .collect();
    r.check(
        pf_val.iter().all(|v| v.is_finite()),
        "every family's Pf head has a finite validation loss",
    );
    let pf_val_loss = pf_val.iter().sum::<f64>() / pf_val.len() as f64;
    r.note(format!("surrogate.pf_val_loss per family (tsp, mvc, qap): {pf_val:?}"));

    r.metric("problems.corpus_ms", median(&times.corpus), "ms");
    r.metric("problems.featurize_ms", median(&times.featurize), "ms");
    r.metric("surrogate.pf_val_loss", pf_val_loss, "loss");
    r.metric("collect.rows", first.rows as f64, "count");
    r.metric(
        "collect.feasible_call_ratio",
        first.feasible_rows as f64 / first.rows as f64,
        "ratio",
    );

    if args.trace {
        // One traced pass; its layer self times split the op time. The
        // same pass untraced just before it is the overhead's baseline
        // (passes differ in their mix of TSP and MVC/QAP calls).
        host::start(core);
        host::sample();
        let u0 = now_ns();
        pass(&inputs[0], &tsp_solver, &generic_solver, true);
        let u1 = now_ns();
        host::sample();
        let meter = take_meter();
        let untraced = OpStats::of(&meter.ops, meter.counted_ops, u0, u1, &host::log());
        trace::set_enabled(true);
        let t0 = now_ns();
        pass(&inputs[0], &tsp_solver, &generic_solver, true);
        let t1 = now_ns();
        trace::set_enabled(false);
        host::sample();
        let speed = host::stop(&allowed);
        let meter = take_meter();
        let (layers, dump) = trace::take();
        let traced = OpStats::of(&meter.ops, meter.counted_ops, t0, t1, &speed);
        let epochs: usize = first
            .reports
            .iter()
            .map(|rep| rep.pf.train_loss.len() + rep.energy.train_loss.len())
            .sum();
        let train_s = crate::layers::self_s(&layers, "surrogate.train");
        crate::layers::solver_layers(r, &meter, &layers);
        r.metric("solvers.sample_calls", meter.sample_calls as f64, "count");
        r.metric("collect.self_s", crate::layers::self_s(&layers, "collect"), "s");
        r.metric("surrogate.train_s", train_s, "s");
        r.metric("neural.epochs", epochs as f64, "count");
        r.metric("neural.epoch_ms", train_s * 1e3 / epochs as f64, "ms");
        crate::layers::finish(
            r,
            args,
            &untraced,
            &traced,
            crate::layers::self_ratio(&layers, t1 - t0),
            &layers,
            &dump,
        );
    }
}
