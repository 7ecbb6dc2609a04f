//! `tune-tsp`: the online phase.
//!
//! A trained micro-tier TSP bundle is decoded, and a held-out pool of
//! TSP instances each runs QROSS, TPE, BO and random search for 20
//! trials on the Digital Annealer through `run_strategy_grid` with one
//! worker, one instance per pass. One op is one trial: propose, QUBO
//! build, solve, score, observe.

use bench::experiments::{batch_for, pipeline_config, Solvers, METHODS, TRIALS};
use bench::Scale;
use problems::tsp::generator::{generate_instance, GeneratorConfig};
use problems::tsp::heuristics;
use problems::TspEncoding;
use qross::eval::{gap_curve, run_strategy_grid, StrategyRun};
use qross::pipeline::{Pipeline, QrossBundle, TrainedQross, A_DOMAIN};
use qross::strategy::{ComposedStrategy, ProposalStrategy, TunerStrategy};
use qross_store::Artifact;
use solvers::Solver;
use tuners::{BayesOpt, RandomSearch, Tpe};

use crate::layers::{p50_us, solver_layers};
use crate::host;
use crate::report::{median, run_passes, setup_median, OpStats, Report};
use crate::trace::{self, now_ns};
use crate::wrap::{take_meter, Op, TimedProblem, TimedSolver, TimedStrategy, PROPOSE_SPANS};
use crate::{Args, Pinned};

/// Held-out instances a set-up prepares. A pass tunes one of them and
/// the timed window works through the pool in order; a 20 s window
/// reaches about 25 of them at reference speed (see `host.rs`).
const POOL: usize = 32;

/// Passes of the traced run.
const TRACED_PASSES: usize = 6;

/// The decoded model and the held-out pool with its per-instance
/// reference, fallback and features.
struct Inputs {
    trained: TrainedQross,
    encodings: Vec<TspEncoding>,
    references: Vec<f64>,
    fallbacks: Vec<f64>,
    features: Vec<Vec<f64>>,
}

#[derive(Default)]
struct SetupTimes {
    decode: Vec<f64>,
    corpus: Vec<f64>,
    reference: Vec<f64>,
    featurize: Vec<f64>,
}

fn ms(t0: u64, t1: u64) -> f64 {
    (t1 - t0) as f64 / 1e6
}

/// Set-up a tuning process pays on every start: decode the bundle,
/// generate the held-out instances, compute their reference tours and
/// features.
fn setup(bundle: &[u8], seed: u64, times: &mut SetupTimes) -> Inputs {
    let t0 = now_ns();
    let trained = QrossBundle::from_store_bytes(bundle)
        .expect("bundle decodes")
        .into_trained()
        .expect("bundle rebuilds");
    let t1 = now_ns();
    // Held-out instances alternate between the trained tier's smallest
    // and largest city counts, so every seed's pool costs the same.
    let tier = trained.config.generator;
    let held_out = mathkit::rng::derive_seed(seed, 0x7E57);
    let encodings: Vec<TspEncoding> = (0..POOL as u64)
        .map(|i| {
            let cities = if i % 2 == 0 { tier.min_cities } else { tier.max_cities };
            let generator = GeneratorConfig {
                min_cities: cities,
                max_cities: cities,
                ..tier
            };
            TspEncoding::preprocessed(generate_instance(&generator, held_out, i))
        })
        .collect();
    let t2 = now_ns();
    let references: Vec<f64> = encodings
        .iter()
        .map(|enc| heuristics::reference_tour(enc.fitness_instance(), 8).1)
        .collect();
    let fallbacks: Vec<f64> = encodings
        .iter()
        .zip(&references)
        .map(|(enc, &reference)| {
            let inst = enc.fitness_instance();
            let nn = inst.tour_length(&heuristics::nearest_neighbor(inst, 0));
            nn.max(reference) * 1.5
        })
        .collect();
    let t3 = now_ns();
    let features: Vec<Vec<f64>> = encodings
        .iter()
        .map(|enc| trained.features_for(enc))
        .collect();
    let t4 = now_ns();
    times.decode.push(ms(t0, t1));
    times.corpus.push(ms(t1, t2));
    times.reference.push(ms(t2, t3));
    times.featurize.push(ms(t3, t4));
    Inputs {
        trained,
        encodings,
        references,
        fallbacks,
        features,
    }
}

/// The four methods of the paper's comparison, as `compare_methods`
/// builds them.
fn strategy<'s>(inputs: &'s Inputs, m: usize, idx: usize, iseed: u64) -> Box<dyn ProposalStrategy + 's> {
    let fallback = inputs.fallbacks[idx];
    match METHODS[m] {
        "qross" => Box::new(ComposedStrategy::new(
            &inputs.trained.surrogate,
            inputs.features[idx].clone(),
            A_DOMAIN,
            batch_for(Scale::Micro),
            iseed,
        )),
        "tpe" => Box::new(TunerStrategy::new(Tpe::new(A_DOMAIN.0, A_DOMAIN.1, iseed), fallback)),
        "bo" => Box::new(TunerStrategy::new(
            BayesOpt::new(A_DOMAIN.0, A_DOMAIN.1, iseed),
            fallback,
        )),
        "random" => Box::new(TunerStrategy::new(
            RandomSearch::new(A_DOMAIN.0, A_DOMAIN.1, iseed),
            fallback,
        )),
        other => unreachable!("unknown method {other}"),
    }
}

/// Pass `p`: every method tunes held-out instance `p % POOL`, wrapped or
/// bare, on a seed of its own.
fn grid<S: Solver>(inputs: &Inputs, solver: &S, wrapped: bool, p: usize, seed: u64, workers: usize) -> Vec<Vec<StrategyRun>> {
    let idx = p % POOL;
    let seed = mathkit::rng::derive_seed(seed, p as u64);
    let batch = batch_for(Scale::Micro);
    let encoding = &inputs.encodings[idx];
    if wrapped {
        run_strategy_grid(
            &[TimedProblem(encoding)],
            solver,
            METHODS.len(),
            |m, _, iseed| Box::new(TimedStrategy::new(strategy(inputs, m, idx, iseed), m)),
            TRIALS,
            batch,
            seed,
            workers,
        )
    } else {
        run_strategy_grid(
            std::slice::from_ref(encoding),
            solver,
            METHODS.len(),
            |m, _, iseed| strategy(inputs, m, idx, iseed),
            TRIALS,
            batch,
            seed,
            workers,
        )
    }
}

fn grid_bytes(grid: &[Vec<StrategyRun>]) -> Vec<Vec<u8>> {
    grid.iter().flatten().map(|run| run.to_store_bytes()).collect()
}

pub fn run(args: &Args, pinned: &Pinned, r: &mut Report) {
    let da = Solvers::at(Scale::Micro).da;

    // The trained bundle is the artifact a tuning process starts from;
    // training it is not part of this workload.
    let mut cfg = pipeline_config(Scale::Micro, args.seed);
    cfg.workers = pinned.check_workers;
    let corpus = Pipeline::new(cfg).collect_corpus(&da).expect("TSP corpus");
    let bundle = TrainedQross::train_on_corpus(&corpus)
        .and_then(|t| t.to_bundle())
        .expect("TSP bundle trains")
        .to_store_bytes();

    let allowed = host::affinity::allowed();
    let core = &allowed[..allowed.len().min(1)];
    host::start(core);
    let mut times = SetupTimes::default();
    let mut reps = Vec::new();
    let mut last = None;
    host::sample();
    for _ in 0..pinned.setup_reps {
        let t0 = now_ns();
        last = Some(setup(&bundle, args.seed, &mut times));
        reps.push((t0, now_ns()));
        host::sample();
    }
    let inputs = &last.expect("at least one set-up");
    let solver = TimedSolver {
        inner: &da,
        op: Op::None,
    };

    let (passes, (t0, t1)) =
        run_passes(args.seconds, |p| grid(inputs, &solver, true, p, args.seed, pinned.workers));
    host::sample();
    let speed = host::stop(&allowed);
    let meter = take_meter();
    let stats = OpStats::of(&meter.ops, 0, t0, t1, &speed);
    let rss = crate::report::peak_rss_mb();
    r.attempted = stats.ops;
    r.note(format!(
        "passes: {} of 1 held-out instance x {} methods x {TRIALS} trials",
        passes.len(),
        METHODS.len()
    ));
    let (setup_s, raw_setup_s) = setup_median(&reps, &speed);
    r.note(format!("set-up: raw wall median {raw_setup_s:.6} s"));
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", rss, "MB");
    stats.report(r);

    // Bit-neutrality: the bare grid must reproduce every wrapped pass.
    let identical = passes.iter().enumerate().all(|(p, wrapped)| {
        grid_bytes(&grid(inputs, &da, false, p, args.seed, pinned.check_workers)) == grid_bytes(wrapped)
    });
    r.check(identical, "every wrapped pass matches bare run_strategy_grid bit for bit");
    let complete = passes.iter().flatten().flatten().all(|run| run.trials.len() == TRIALS);
    r.check(complete, "every (method, instance) cell ran all its trials");

    // QROSS's mean normalised gap after 3 trials (paper Fig. 3 y-axis).
    let gaps: Vec<f64> = passes
        .iter()
        .enumerate()
        .map(|(p, grid)| {
            let idx = p % POOL;
            gap_curve(&grid[0][0], inputs.references[idx], inputs.fallbacks[idx])[2]
        })
        .collect();
    r.check(gaps.iter().all(|g| g.is_finite() && *g >= 0.0), "QROSS gaps are finite and non-negative");
    r.metric("eval.qross_gap_t3", gaps.iter().sum::<f64>() / gaps.len() as f64, "ratio");
    for (m, name) in [
        "eval.feasible_trial_ratio.qross",
        "eval.feasible_trial_ratio.tpe",
        "eval.feasible_trial_ratio.bo",
        "eval.feasible_trial_ratio.random",
    ]
    .into_iter()
    .enumerate()
    {
        r.metric(name, meter.feasible_trials[m] as f64 / meter.trials[m] as f64, "ratio");
    }
    r.metric("store.bundle_decode_ms", median(&times.decode), "ms");
    r.metric("problems.corpus_ms", median(&times.corpus), "ms");
    r.metric("problems.reference_ms", median(&times.reference), "ms");
    r.metric("problems.featurize_ms", median(&times.featurize), "ms");

    if args.trace {
        // The same passes untraced just before are the overhead's
        // baseline (instances differ in cost).
        host::start(core);
        host::sample();
        let u0 = now_ns();
        for p in 0..TRACED_PASSES {
            grid(inputs, &solver, true, p, args.seed, pinned.workers);
        }
        let u1 = now_ns();
        host::sample();
        let meter = take_meter();
        let untraced = OpStats::of(&meter.ops, 0, u0, u1, &host::log());
        trace::set_enabled(true);
        let t0 = now_ns();
        for p in 0..TRACED_PASSES {
            grid(inputs, &solver, true, p, args.seed, pinned.workers);
        }
        let t1 = now_ns();
        trace::set_enabled(false);
        host::sample();
        let speed = host::stop(&allowed);
        let meter = take_meter();
        let (layers, dump) = trace::take();
        let traced = OpStats::of(&meter.ops, 0, t0, t1, &speed);
        solver_layers(r, &meter, &layers);
        r.metric("solvers.sample_calls", meter.sample_calls as f64, "count");
        for (m, name) in [
            "strategy.propose_us_p50.qross",
            "strategy.propose_us_p50.tpe",
            "strategy.propose_us_p50.bo",
            "strategy.propose_us_p50.random",
        ]
        .into_iter()
        .enumerate()
        {
            r.metric(name, p50_us(&layers, PROPOSE_SPANS[m]), "us");
        }
        r.metric("strategy.observe_us_p50", p50_us(&layers, "strategy.observe"), "us");
        r.metric("eval.self_us_p50", p50_us(&layers, "eval.trial"), "us");
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
