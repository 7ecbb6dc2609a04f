//! `qbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! qbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! qbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --repeat <N>
//! ```
//!
//! A run builds its inputs from `--seed`, measures for `--seconds`,
//! checks every output, and prints each metric with its unit followed by
//! one JSON line: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a traced run with `--trace 1`. `--repeat N` runs the same
//! build N times on seeds `seed..seed+N` and prints each metric's median,
//! quartiles and range (the steadiness report). See `README.md`.

mod host;
mod layers;
mod offline;
mod report;
mod serve;
mod trace;
mod tune;
mod wrap;

use report::{median, quartiles, Report};

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = ["offline-train", "tune-tsp", "serve-hot", "serve-cold"];

/// End-to-end metrics (`--trace 0`).
const END_TO_END: [&str; 5] = ["setup_s", "peak_rss_mb", "ops_per_s", "op_p50_us", "op_p90_us"];

/// Per-layer metrics (`--trace 1`) with their units; a layer a workload
/// does not exercise reads 0.
const PER_LAYER: [(&str, &str); 46] = [
    ("problems.corpus_ms", "ms"),
    ("problems.featurize_ms", "ms"),
    ("problems.reference_ms", "ms"),
    ("store.bundle_decode_ms", "ms"),
    ("serve.engine_start_ms", "ms"),
    ("solvers.sample_calls", "count"),
    ("solvers.sample_us_p50", "us"),
    ("solvers.sample_busy_s", "s"),
    ("problems.to_qubo_us_p50", "us"),
    ("qubo.couplings_mean", "count"),
    ("problems.score_us_p50", "us"),
    ("collect.self_s", "s"),
    ("surrogate.train_s", "s"),
    ("neural.epochs", "count"),
    ("neural.epoch_ms", "ms"),
    ("collect.rows", "count"),
    ("collect.feasible_call_ratio", "ratio"),
    ("surrogate.pf_val_loss", "loss"),
    ("strategy.propose_us_p50.qross", "us"),
    ("strategy.propose_us_p50.tpe", "us"),
    ("strategy.propose_us_p50.bo", "us"),
    ("strategy.propose_us_p50.random", "us"),
    ("strategy.observe_us_p50", "us"),
    ("eval.self_us_p50", "us"),
    ("eval.feasible_trial_ratio.qross", "ratio"),
    ("eval.feasible_trial_ratio.tpe", "ratio"),
    ("eval.feasible_trial_ratio.bo", "ratio"),
    ("eval.feasible_trial_ratio.random", "ratio"),
    ("eval.qross_gap_t3", "ratio"),
    ("protocol.decode_us_p50", "us"),
    ("protocol.stage_us_p50", "us"),
    ("serve.wait_us_p50", "us"),
    ("protocol.encode_us_p50", "us"),
    ("protocol.request_bytes", "bytes"),
    ("protocol.response_bytes", "bytes"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.rows_per_batch", "count"),
    ("problems.featurize_us_p50", "us"),
    ("serve.rejected", "count"),
    ("net.overhead_us_p50", "us"),
    ("net.overhead_us_p90", "us"),
    ("net.inproc_us_p50", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.accounted_ratio", "ratio"),
    ("trace.ops_per_s", "1/s"),
    ("trace.op_p50_us", "us"),
];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub repeat: usize,
}

fn usage(msg: &str) -> ! {
    eprintln!("qbench: {msg}");
    eprintln!(
        "usage: qbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--repeat <N>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        repeat: 0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let num = || -> u64 {
            value
                .parse()
                .unwrap_or_else(|_| usage(&format!("{flag}: `{value}` is not a whole number")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num(),
            "--seconds" => args.seconds = num(),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--repeat" => args.repeat = num() as usize,
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload `{}`", args.workload));
    }
    if args.seconds == 0 {
        usage("--seconds must be at least 1");
    }
    args
}

/// Every thread and worker count of a run, pinned explicitly.
#[derive(Debug, Clone)]
pub struct Pinned {
    pub nproc: usize,
    /// collection / strategy-grid workers of the timed work
    pub workers: usize,
    /// workers of the unmeasured reference runs the checks compare against
    pub check_workers: usize,
    /// serving-engine workers
    pub engine_workers: usize,
    /// load-generator threads and connections
    pub load_threads: usize,
    pub load_connections: usize,
    /// closed-loop window: requests in flight on the one connection
    pub window: usize,
    /// set-up repetitions per run (`setup_s` is their median)
    pub setup_reps: usize,
}

impl Pinned {
    fn new() -> Pinned {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let pinned = Pinned {
            nproc,
            workers: 1,
            check_workers: nproc.min(2),
            engine_workers: 1,
            load_threads: 1,
            load_connections: 1,
            window: 16,
            setup_reps: 7,
        };
        // `0` means "one per core" throughout the library: never used here.
        for (what, n) in [
            ("workers", pinned.workers),
            ("check workers", pinned.check_workers),
            ("engine workers", pinned.engine_workers),
            ("load threads", pinned.load_threads),
            ("load connections", pinned.load_connections),
        ] {
            assert!(n > 0, "{what} must be an explicit count, not 0/auto");
        }
        assert!(
            pinned.load_threads <= nproc && pinned.load_connections <= nproc,
            "the load generator may use at most nproc = {nproc} threads and connections"
        );
        pinned
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host and every pinned count, printed with each result.
fn host_line(pinned: &Pinned) -> String {
    format!(
        "{{\"host\": {{\"nproc\": {}, \"cpu\": {:?}, \"rustc\": {:?}, \"profile\": {:?}, \"obs_off\": {}, \
         \"workers\": {}, \"check_workers\": {}, \"engine_workers\": {}, \"load_threads\": {}, \
         \"load_connections\": {}, \"window\": {}, \"setup_reps\": {}}}}}",
        pinned.nproc,
        cpu_model(),
        env!("QBENCH_RUSTC"),
        env!("QBENCH_PROFILE"),
        !obs::ENABLED,
        pinned.workers,
        pinned.check_workers,
        pinned.engine_workers,
        pinned.load_threads,
        pinned.load_connections,
        pinned.window,
        pinned.setup_reps,
    )
}

fn run_once(args: &Args) {
    let pinned = Pinned::new();
    println!("{}", host_line(&pinned));
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut r = Report::new();
    match args.workload.as_str() {
        "offline-train" => offline::run(args, &pinned, &mut r),
        "tune-tsp" => tune::run(args, &pinned, &mut r),
        "serve-hot" => serve::run(args, &pinned, &mut r, serve::Mix::Hot),
        "serve-cold" => serve::run(args, &pinned, &mut r, serve::Mix::Cold),
        _ => unreachable!("validated workload"),
    }
    if args.trace {
        for (name, unit) in PER_LAYER {
            if !r.metrics.iter().any(|(n, _, _)| *n == name) {
                r.metric(name, 0.0, unit);
            }
        }
        r.select(&PER_LAYER.map(|(name, _)| name));
    } else {
        r.select(&END_TO_END);
    }
    r.print();
}

/// The steadiness report: N runs of this build, one per seed, each in
/// its own process; per metric the median, quartiles, range and the
/// quartile spread as a share of the median.
fn repeat(args: &Args) {
    let exe = std::env::current_exe().expect("own executable");
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut failed_runs = 0;
    for k in 0..args.repeat as u64 {
        let seed = args.seed + k;
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .output()
            .expect("run qbench");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        let parsed: Option<Raw> = serde_json::from_str(last).ok();
        let Some(Raw(result)) = parsed.filter(|_| out.status.success()) else {
            failed_runs += 1;
            println!("# seed {seed}: run failed ({})", out.status);
            continue;
        };
        let correct = matches!(result.get("correct"), Some(serde::Value::Bool(true)));
        if !correct {
            failed_runs += 1;
        }
        let Some(serde::Value::Object(metrics)) = result.get("metrics") else {
            continue;
        };
        let mut line = format!("# seed {seed}: correct {correct}");
        for (name, m) in metrics {
            let value = m.get("value").and_then(as_f64).unwrap_or(f64::NAN);
            line.push_str(&format!(", {name} {value:.6}"));
            let unit = match m.get("unit") {
                Some(serde::Value::Str(u)) => u.clone(),
                _ => String::new(),
            };
            match values.iter_mut().find(|(n, _, _)| n == name) {
                Some((_, _, v)) => v.push(value),
                None => values.push((name.clone(), unit, vec![value])),
            }
        }
        println!("{line}");
    }
    println!(
        "{:<34} {:>6} {:>14} {:>14} {:>14} {:>14} {:>14} {:>8}",
        "metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med"
    );
    for (name, unit, v) in &values {
        let med = median(v);
        let [q1, _, q3] = if v.len() >= 2 { quartiles(v) } else { [med; 3] };
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let spread = if med != 0.0 { (q3 - q1) / med } else { 0.0 };
        println!(
            "{name:<34} {unit:>6} {med:>14.6} {q1:>14.6} {q3:>14.6} {min:>14.6} {max:>14.6} {spread:>8.4}"
        );
    }
    println!("# runs: {}, failed: {failed_runs}", args.repeat);
    if failed_runs > 0 {
        std::process::exit(1);
    }
}

/// Any JSON value, kept as parsed.
struct Raw(serde::Value);

impl serde::Deserialize for Raw {
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Raw(value.clone()))
    }
}

fn as_f64(v: &serde::Value) -> Option<f64> {
    match v {
        serde::Value::Float(f) => Some(*f),
        serde::Value::Int(i) => Some(*i as f64),
        serde::Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv);
    if args.repeat > 0 {
        repeat(&args);
    } else {
        run_once(&args);
    }
}
