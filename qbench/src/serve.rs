//! `serve-hot` and `serve-cold`: closed loops over the in-process event
//! loop (`bench::net::serve_event_loop`).
//!
//! One client thread keeps `window` requests in flight on one
//! connection: it sends the next request only when a response arrives.
//! The engine has one worker.
//!
//! * **hot** — QBIN `predict` requests (single-A and 9-point grid) drawn
//!   from a small fixed hot set, so almost every row is a cache hit and
//!   the engine worker and featurisation are bypassed.
//! * **cold** — NDJSON requests that are all unique: `instance` uploads
//!   of all five families at the mixed-family fixture's sizes, plus grid
//!   predicts. Every row misses the cache.
//!
//! The traced run replays the same request stream in process through
//! `SessionCodec` → `stage_item` → wait → `ResponseEmitter` on a fresh
//! engine, and subtracts those op times from the TCP op times of the
//! same request ids (`net.overhead_*`).

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use bench::net::{serve_event_loop, EventLoopConfig};
use bench::protocol::bin::{self, FrameCodec};
use bench::protocol::{
    stage_item, ResponseEmitter, Response, SessionCodec, WireFormat, PIPELINE_DEPTH,
};
use mathkit::rng::derive_seed;
use mathkit::stats::ZScore;
use neural::network::MlpBuilder;
use problems::tsp::generator::SyntheticDataset;
use problems::{
    lookup_family, FamilyProblem, InstanceData, KnapsackInstance, MaxCutInstance, MvcInstance,
    QapInstance, TspEncoding, TspInstance,
};
use qross::dataset::Scalers;
use qross::pipeline::{PipelineConfig, QrossBundle, TrainedQross};
use qross::serve::{ServeConfig, ServeEngine, ServeModel, ServeStats};
use qross::surrogate::{Surrogate, SurrogateState, TrainReport};
use qross::FeaturizerSpec;
use qross_store::Artifact;

use crate::host::{self, affinity};
use crate::report::{median, setup_median, OpStats, Report};
use crate::trace::{self, now_ns, Hist};
use crate::{Args, Pinned};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Hot,
    Cold,
}

/// Hot-set size: half single-A predicts, half 9-point grids (well
/// inside the engine's 4096-row cache).
const HOT_SET: usize = 32;

/// Unique instances per family in the cold pool; requests cycle the
/// pool with unique `A` grids, so every row still misses the cache.
const COLD_POOL: usize = 8;

/// Cold request cycle: one upload per family, then one grid predict.
const COLD_FAMILIES: [&str; 5] = ["tsp", "mvc", "qap", "maxcut", "knapsack"];

/// The served model's feature width (the statistical TSP featurizer and
/// every registry family share it).
const FEAT_DIM: usize = problems::FAMILY_FEATURE_DIM;

/// Log-spaced 9-point grid over the `A` domain.
fn grid9() -> Vec<f64> {
    bench::serve::manifest_a_grid()
}

/// The artifact a serving process loads: a quick-tier TSP bundle (36
/// train and 10 test instances of 8–12 cities, hidden width 48). Serving
/// cost does not depend on the weights, so they are seed-initialised
/// rather than trained; scalers are fitted to the train instances'
/// features.
fn bundle_bytes(seed: u64) -> Vec<u8> {
    let config = PipelineConfig {
        seed,
        ..PipelineConfig::quick()
    };
    let data = SyntheticDataset::generate(
        &config.generator,
        config.train_instances,
        config.test_instances,
        seed,
    );
    let features: Vec<Vec<f64>> = data
        .train()
        .iter()
        .map(|i| {
            problems::tsp::features::statistical_features(
                TspEncoding::preprocessed(i.clone()).qubo_instance(),
            )
        })
        .collect();
    let column = |c: usize| {
        let xs: Vec<f64> = features.iter().map(|f| f[c]).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        ZScore {
            mean,
            std: var.sqrt().max(1e-6),
        }
    };
    let hidden = config.surrogate.hidden;
    let head = |out: usize, seed: u64| {
        let b = MlpBuilder::new(FEAT_DIM + 1)
            .dense(hidden)
            .relu()
            .dense(hidden)
            .relu()
            .dense(out);
        if out == 1 { b.sigmoid() } else { b }.build(seed).to_state()
    };
    QrossBundle {
        config,
        featurizer: FeaturizerSpec::Statistical,
        surrogate: SurrogateState {
            pf_net: head(1, derive_seed(seed, 1)),
            e_net: head(2, derive_seed(seed, 2)),
            scalers: Scalers {
                features: (0..FEAT_DIM).map(column).collect(),
                log_a: ZScore {
                    mean: 0.0,
                    std: 1.5,
                },
                e_avg: ZScore {
                    mean: 0.0,
                    std: 10.0,
                },
                e_std: ZScore {
                    mean: 1.0,
                    std: 1.0,
                },
            },
        },
        train_instances: data.train().to_vec(),
        test_instances: data.test().to_vec(),
        dataset_len: 0,
        report: TrainReport::default(),
    }
    .to_store_bytes()
}

/// What request `seq`'s response must carry.
enum Expect {
    /// hot-set entry `h`, whose predictions are precomputed
    Hot(usize),
    /// a predict with these features and `A` values
    Predict { features: Vec<f64>, a: Vec<f64> },
    /// an upload of cold-pool instance `pool` with these `A` values
    Instance { pool: usize, a: Vec<f64> },
}

/// The request stream of one workload, a pure function of the seed and
/// the request's sequence number.
struct Stream {
    mix: Mix,
    /// hot: `(encoded frame with id = hot index, features, A values)`
    hot: Vec<(Vec<u8>, Vec<f64>, Vec<f64>)>,
    /// cold: per pool instance `(family, JSON body, payload)`
    pool: Vec<(&'static str, String, InstanceData)>,
    /// features of real instances; cold predicts perturb them
    base_features: Vec<Vec<f64>>,
}

/// Cold requests cycle one upload per family, then one grid predict.
const COLD_CYCLE: u64 = COLD_FAMILIES.len() as u64 + 1;

impl Stream {
    fn new(mix: Mix, trained: &TrainedQross, seed: u64) -> Stream {
        let base_features: Vec<Vec<f64>> = trained
            .test_encodings
            .iter()
            .map(|e| trained.features_for(e))
            .collect();
        let mut s = Stream {
            mix,
            hot: Vec::new(),
            pool: Vec::new(),
            base_features,
        };
        match mix {
            Mix::Hot => {
                let grid = grid9();
                for h in 0..HOT_SET {
                    let features = s.base_features[h % s.base_features.len()].clone();
                    let a = if h % 2 == 0 {
                        vec![grid[(h / 2) % grid.len()]]
                    } else {
                        grid.clone()
                    };
                    let mut frame = Vec::new();
                    bin::encode_predict(&mut frame, Some(h as u64), "", &a, &features);
                    s.hot.push((frame, features, a));
                }
            }
            Mix::Cold => {
                for k in 0..COLD_POOL as u64 {
                    for family in COLD_FAMILIES {
                        let data = cold_instance(family, derive_seed(seed, 0xC01D + k), k);
                        let body = serde_json::to_string(&data).expect("instance serialises");
                        s.pool.push((family, body, data));
                    }
                }
            }
        }
        s
    }

    /// The id request `seq` carries on the wire.
    fn wire_id(&self, seq: u64) -> u64 {
        match self.mix {
            Mix::Hot => seq % HOT_SET as u64,
            Mix::Cold => seq,
        }
    }

    fn expect(&self, seq: u64) -> Expect {
        match self.mix {
            Mix::Hot => Expect::Hot(seq as usize % HOT_SET),
            Mix::Cold => {
                // Unique A values (and predict features) per request:
                // every row misses the cache.
                let bump = 1.0 + seq as f64 * 1e-9;
                let (round, slot) = (seq / COLD_CYCLE, seq % COLD_CYCLE);
                if slot < COLD_FAMILIES.len() as u64 {
                    Expect::Instance {
                        pool: (round as usize % COLD_POOL) * COLD_FAMILIES.len() + slot as usize,
                        a: [0.1, 1.0, 10.0].iter().map(|x| x * bump).collect(),
                    }
                } else {
                    let base = &self.base_features[round as usize % self.base_features.len()];
                    Expect::Predict {
                        features: base.iter().map(|x| x * bump).collect(),
                        a: grid9().iter().map(|x| x * bump).collect(),
                    }
                }
            }
        }
    }

    /// Appends request `seq` to `out`.
    fn request(&self, seq: u64, out: &mut Vec<u8>) {
        match self.expect(seq) {
            Expect::Hot(h) => out.extend_from_slice(&self.hot[h].0),
            Expect::Instance { pool, a } => {
                let (family, body, _) = &self.pool[pool];
                let line = format!(
                    "{{\"id\": {seq}, \"op\": \"instance\", \"family\": \"{family}\", \"instance\": {body}, \"a_values\": {}}}\n",
                    json_list(&a)
                );
                out.extend_from_slice(line.as_bytes());
            }
            Expect::Predict { features, a } => {
                let line = format!(
                    "{{\"id\": {seq}, \"op\": \"predict\", \"features\": {}, \"a_values\": {}}}\n",
                    json_list(&features),
                    json_list(&a)
                );
                out.extend_from_slice(line.as_bytes());
            }
        }
    }
}

fn json_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("{x:?}")).collect();
    format!("[{}]", items.join(", "))
}

/// Cities of a cold-pool TSP upload: the paper's largest instances. (The
/// mixed-family fixture's 100-city upload costs ~0.5 s of preprocessing
/// per request and would turn this mix into a TSP-preprocessing run.)
const COLD_TSP_CITIES: usize = 30;

/// A cold-pool instance at the mixed-family fixture's sizes (TSP aside).
fn cold_instance(family: &str, seed: u64, k: u64) -> InstanceData {
    let p: Box<dyn FamilyProblem> = match family {
        "tsp" => {
            let mut state = seed;
            let coords: Vec<(f64, f64)> = (0..COLD_TSP_CITIES)
                .map(|_| {
                    state = derive_seed(state, 1);
                    let x = (state % 4000) as f64 * 0.25;
                    state = derive_seed(state, 2);
                    (x, (state % 4000) as f64 * 0.25)
                })
                .collect();
            let name = format!("cold-tsp{COLD_TSP_CITIES}-{k}");
            return problems::family::tsp_instance_data(&TspInstance::from_coords(&name, &coords));
        }
        "mvc" => Box::new(MvcInstance::random_gnp(&format!("cold-mvc120-{k}"), 120, 0.4, seed)),
        "qap" => Box::new(QapInstance::random(&format!("cold-qap16-{k}"), 16, seed)),
        "maxcut" => Box::new(MaxCutInstance::random_gnp(
            &format!("cold-maxcut120-{k}"),
            120,
            0.4,
            seed,
        )),
        "knapsack" => Box::new(KnapsackInstance::random(&format!("cold-knapsack120-{k}"), 120, seed)),
        other => unreachable!("unknown family {other}"),
    };
    p.to_data()
}

/// Where each thread runs: the client and the event loop share one core
/// (a request hand-off is a context switch, not a cross-core wake-up),
/// the engine worker gets the other. `None` on a one-core host.
#[derive(Clone, Copy)]
struct Cores {
    client: usize,
    worker: usize,
}

fn cores() -> Option<Cores> {
    let cpus = affinity::allowed();
    (cpus.len() >= 2).then(|| Cores {
        client: cpus[0],
        worker: cpus[1],
    })
}

/// Starts an engine whose worker runs on the worker core; the calling
/// thread stays on the client core.
fn start_engine(model: ServeModel, pinned: &Pinned, cores: Option<Cores>) -> ServeEngine {
    if let Some(c) = cores {
        affinity::pin(c.worker);
    }
    let engine = ServeEngine::new(model, engine_config(pinned));
    if let Some(c) = cores {
        affinity::pin(c.client);
    }
    engine
}

/// A running event loop and the engine behind it.
struct Server {
    engine: Arc<ServeEngine>,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<std::io::Result<()>>>,
    addr: std::net::SocketAddr,
}

impl Server {
    fn start(model: ServeModel, pinned: &Pinned, cores: Option<Cores>) -> Server {
        let engine = Arc::new(start_engine(model, pinned, cores));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("local address");
        let shutdown = Arc::new(AtomicBool::new(false));
        let config = EventLoopConfig {
            max_conns: pinned.load_connections,
            pipeline_depth: PIPELINE_DEPTH,
            write_buf_bytes: 256 * 1024,
            shutdown: Some(Arc::clone(&shutdown)),
        };
        let thread = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || serve_event_loop(&engine, listener, config))
        };
        Server {
            engine,
            shutdown,
            thread: Some(thread),
            addr,
        }
    }

    fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            t.join().expect("event loop thread").expect("event loop exits cleanly");
        }
    }
}

fn engine_config(pinned: &Pinned) -> ServeConfig {
    ServeConfig {
        workers: pinned.engine_workers,
        max_batch_rows: 64,
        queue_capacity: 4096,
        cache_capacity: 4096,
    }
}

/// Splits a response byte stream into decoded responses.
enum Decoder {
    Qbin(FrameCodec),
    Ndjson(Vec<u8>),
}

impl Decoder {
    fn new(mix: Mix) -> Decoder {
        match mix {
            Mix::Hot => Decoder::Qbin(FrameCodec::new()),
            Mix::Cold => Decoder::Ndjson(Vec::new()),
        }
    }

    /// Feeds bytes; appends every complete response (`Err` = a frame or
    /// line that did not decode).
    fn feed(&mut self, bytes: &[u8], out: &mut Vec<Result<Response, String>>) {
        match self {
            Decoder::Qbin(codec) => {
                codec.feed(bytes);
                while let Some(frame) = codec.next_frame() {
                    out.push(
                        frame
                            .map_err(|e| e.to_string())
                            .and_then(|f| bin::decode_response(&f).map_err(|e| e.to_string())),
                    );
                }
            }
            Decoder::Ndjson(buf) => {
                buf.extend_from_slice(bytes);
                let mut start = 0;
                while let Some(nl) = buf[start..].iter().position(|&b| b == b'\n') {
                    let line = std::str::from_utf8(&buf[start..start + nl]).map_err(|e| e.to_string());
                    out.push(line.and_then(|l| {
                        serde_json::from_str::<Response>(l).map_err(|e| e.to_string())
                    }));
                    start += nl + 1;
                }
                buf.drain(..start);
            }
        }
    }
}

/// FNV-1a over the prediction bits of a successful response with the
/// expected id; `None` for `ok: false` (including Overloaded), a bad
/// frame or line, a wrong id, or decimal values disagreeing with their
/// bit patterns.
fn response_hash(r: &Result<Response, String>, wire_id: u64) -> Option<u64> {
    let r = r.as_ref().ok().filter(|r| r.ok && r.id == Some(wire_id))?;
    let mut bits = Vec::new();
    for p in r.predictions.as_ref()? {
        let pairs = [(p.pf, p.pf_bits), (p.e_avg, p.e_avg_bits), (p.e_std, p.e_std_bits)];
        if pairs.iter().any(|(v, b)| v.to_bits() != *b) {
            return None;
        }
        bits.extend(pairs.iter().map(|(_, b)| *b));
    }
    Some(fnv(&bits))
}

fn fnv(bits: &[u64]) -> u64 {
    bits.iter().flat_map(|b| b.to_le_bytes()).fold(0xcbf2_9ce4_8422_2325, |h, byte| {
        (h ^ byte as u64).wrapping_mul(0x100_0000_01b3)
    })
}

fn expected_hash(surrogate: &Surrogate, features: &[f64], a: &[f64]) -> u64 {
    let bits: Vec<u64> = surrogate
        .predict_grid(features, a)
        .iter()
        .flat_map(|p| [p.pf.to_bits(), p.e_avg.to_bits(), p.e_std.to_bits()])
        .collect();
    fnv(&bits)
}

/// Op times kept per request id for the traced run's network overhead.
const BY_SEQ_CAP: usize = 200_000;

/// One closed-loop TCP run.
struct TcpRun {
    /// op latency of every request answered ok before the deadline, at
    /// reference host speed and as measured
    lat: Hist,
    raw_lat: Hist,
    /// requests answered in each second of the window
    per_second: Vec<u64>,
    counted: u64,
    sent: u64,
    /// per request: response hash, `None` = failed op (cold only; hot
    /// responses are checked as they arrive)
    hashes: Vec<Option<u64>>,
    failed: u64,
    hot_mismatched: u64,
    /// op time by request id, for the first `BY_SEQ_CAP` requests
    by_seq: Vec<u64>,
    request_bytes: u64,
    response_bytes: u64,
}

/// Wall time between two host-speed samples of the closed loop.
const SEGMENT_NS: u64 = 100_000_000;

/// Keeps `window` requests in flight until `deadline`, then drains.
/// Every [`SEGMENT_NS`] the window drains and a host-speed sample is
/// taken on both cores while the server is idle; the segment's op
/// latencies are scaled by the samples either side of it.
fn closed_loop(
    client: &mut TcpStream,
    stream: &Stream,
    window: usize,
    t0: u64,
    deadline: u64,
    hot_expected: &[u64],
) -> TcpRun {
    let mut run = TcpRun {
        lat: Hist::default(),
        raw_lat: Hist::default(),
        per_second: Vec::new(),
        counted: 0,
        sent: 0,
        hashes: Vec::new(),
        failed: 0,
        hot_mismatched: 0,
        by_seq: vec![0; BY_SEQ_CAP],
        request_bytes: 0,
        response_bytes: 0,
    };
    let mut inflight: VecDeque<(u64, u64)> = VecDeque::with_capacity(window);
    let mut decoder = Decoder::new(stream.mix);
    let (mut buf, mut wire, mut decoded) = (vec![0u8; 64 * 1024], Vec::new(), Vec::new());
    let mut segment: Vec<(u64, u64)> = Vec::new();
    let mut segment_end = t0 + SEGMENT_NS;
    loop {
        let now = now_ns();
        if now < deadline.min(segment_end) && inflight.len() < window {
            // Top the window up with one write.
            wire.clear();
            let first = run.sent;
            while inflight.len() + ((run.sent - first) as usize) < window {
                stream.request(run.sent, &mut wire);
                run.sent += 1;
            }
            let t = now_ns();
            client.write_all(&wire).expect("send requests");
            run.request_bytes += wire.len() as u64;
            inflight.extend((first..run.sent).map(|s| (s, t)));
        }
        if inflight.is_empty() {
            host::sample();
            let speed = host::log();
            for &(start, end) in &segment {
                run.lat.push(speed.scale_ns(start, end) as u64);
                run.raw_lat.push(end - start);
            }
            segment.clear();
            if now_ns() >= deadline {
                return run;
            }
            segment_end = now_ns() + SEGMENT_NS;
            continue;
        }
        let n = client.read(&mut buf).expect("read responses");
        assert!(n > 0, "server closed the connection with requests in flight");
        let t = now_ns();
        run.response_bytes += n as u64;
        decoder.feed(&buf[..n], &mut decoded);
        for response in decoded.drain(..) {
            let (seq, start) = inflight.pop_front().expect("a response per request");
            let hash = response_hash(&response, stream.wire_id(seq));
            // A failed op is counted as failed, never as a completed one.
            if t <= deadline && hash.is_some() {
                segment.push((start, t));
                run.counted += 1;
                let second = ((t - t0) / 1_000_000_000) as usize;
                if run.per_second.len() <= second {
                    run.per_second.resize(second + 1, 0);
                }
                run.per_second[second] += 1;
            }
            if let Some(slot) = run.by_seq.get_mut(seq as usize) {
                *slot = t - start;
            }
            run.failed += hash.is_none() as u64;
            match stream.mix {
                Mix::Hot => {
                    let h = seq as usize % HOT_SET;
                    run.hot_mismatched += hash.is_some_and(|x| x != hot_expected[h]) as u64;
                }
                Mix::Cold => run.hashes.push(hash),
            }
        }
    }
}

/// Cold check: family decode → features → predict for every response.
/// Returns the mismatch count and the timed decode + featurise of each
/// pool instance.
fn check_cold(stream: &Stream, surrogate: &Surrogate, hashes: &[Option<u64>], r: &mut Report) -> (u64, Hist) {
    let mut featurize = Hist::default();
    let mut by_family: Vec<(&str, Hist)> = COLD_FAMILIES.iter().map(|f| (*f, Hist::default())).collect();
    let pool_features: Vec<Vec<f64>> = stream
        .pool
        .iter()
        .map(|(family, _, data)| {
            let t0 = now_ns();
            let features = lookup_family(family)
                .expect("registered family")
                .decode(data)
                .expect("pool instance decodes")
                .features();
            let ns = now_ns() - t0;
            featurize.push(ns);
            if let Some((_, samples)) = by_family.iter_mut().find(|(f, _)| f == family) {
                samples.push(ns);
            }
            features
        })
        .collect();
    for (family, samples) in &by_family {
        r.note(format!("decode + featurise {family}: p50 {:.1} us", samples.pct_us(50.0)));
    }
    let mut mismatched = 0;
    for (seq, hash) in hashes.iter().enumerate() {
        let Some(hash) = hash else { continue };
        let want = match stream.expect(seq as u64) {
            Expect::Predict { features, a } => expected_hash(surrogate, &features, &a),
            Expect::Instance { pool, a } => expected_hash(surrogate, &pool_features[pool], &a),
            Expect::Hot(_) => unreachable!("cold stream"),
        };
        mismatched += (*hash != want) as u64;
    }
    (mismatched, featurize)
}

/// Set-up a serving process and its client pay on every start.
struct Setup {
    trained: Arc<TrainedQross>,
    server: Server,
    client: TcpStream,
    stream: Stream,
}

#[derive(Default)]
struct SetupTimes {
    decode: Vec<f64>,
    engine: Vec<f64>,
    corpus: Vec<f64>,
}

fn setup(bundle: &[u8], mix: Mix, seed: u64, pinned: &Pinned, cores: Option<Cores>, times: &mut SetupTimes) -> Setup {
    let t0 = now_ns();
    let trained = Arc::new(
        QrossBundle::from_store_bytes(bundle)
            .expect("bundle decodes")
            .into_trained()
            .expect("bundle rebuilds"),
    );
    let t1 = now_ns();
    let server = Server::start(ServeModel::Bundle(Arc::clone(&trained)), pinned, cores);
    let mut client = TcpStream::connect(server.addr).expect("connect to the event loop");
    let t2 = now_ns();
    let stream = Stream::new(mix, &trained, seed);
    if mix == Mix::Hot {
        // Fill the cache with the hot set: lazy set-up finishes here.
        let mut wire = Vec::new();
        for h in 0..HOT_SET as u64 {
            stream.request(h, &mut wire);
        }
        client.write_all(&wire).expect("warm the cache");
        let mut decoder = Decoder::new(mix);
        let (mut got, mut buf) = (Vec::new(), vec![0u8; 64 * 1024]);
        while got.len() < HOT_SET {
            let n = client.read(&mut buf).expect("read warm-up responses");
            assert!(n > 0, "server closed during warm-up");
            decoder.feed(&buf[..n], &mut got);
        }
    }
    let t3 = now_ns();
    times.decode.push((t1 - t0) as f64 / 1e6);
    times.engine.push((t2 - t1) as f64 / 1e6);
    times.corpus.push((t3 - t2) as f64 / 1e6);
    Setup {
        trained,
        server,
        client,
        stream,
    }
}

/// Cache hit ratio, rows per forward batch and rejections between two
/// engine snapshots.
fn stats_delta(a: ServeStats, b: ServeStats) -> (f64, f64, f64) {
    let rows = (b.rows - a.rows) as f64;
    let hits = (b.cache_hits - a.cache_hits) as f64;
    let batches = (b.batches - a.batches) as f64;
    let hit_ratio = if rows > 0.0 { hits / rows } else { 0.0 };
    let per_batch = if batches > 0.0 { (rows - hits) / batches } else { 0.0 };
    (hit_ratio, per_batch, (b.rejected - a.rejected) as f64)
}

pub fn run(args: &Args, pinned: &Pinned, r: &mut Report, mix: Mix) {
    let cores = cores();
    let allowed = affinity::allowed();
    // The event loop, spawned from this thread, inherits the client pin.
    match cores {
        Some(c) => {
            host::start(&[c.client, c.worker]);
            r.note(format!("client and event loop on cpu {}, engine worker on cpu {}", c.client, c.worker));
        }
        None => host::start(&[]),
    }
    let bundle = bundle_bytes(args.seed);
    let mut times = SetupTimes::default();
    let mut reps = Vec::new();
    let mut last: Option<Setup> = None;
    host::sample();
    for _ in 0..pinned.setup_reps {
        if let Some(prev) = last.take() {
            drop(prev.client);
            prev.server.stop();
            host::sample();
        }
        let t0 = now_ns();
        last = Some(setup(&bundle, mix, args.seed, pinned, cores, &mut times));
        reps.push((t0, now_ns()));
        host::sample();
    }
    let Setup {
        trained,
        server,
        mut client,
        stream,
    } = last.expect("at least one set-up");
    let surrogate = &trained.surrogate;
    let hot_expected: Vec<u64> = stream
        .hot
        .iter()
        .map(|(_, f, a)| expected_hash(surrogate, f, a))
        .collect();

    let before = server.engine.stats();
    let t0 = now_ns();
    let deadline = t0 + args.seconds * 1_000_000_000;
    let tcp = closed_loop(&mut client, &stream, pinned.window, t0, deadline, &hot_expected);
    let rss = crate::report::peak_rss_mb();
    let (hit_ratio, rows_per_batch, rejected) = stats_delta(before, server.engine.stats());
    client.shutdown(Shutdown::Both).ok();
    drop(client);
    server.stop();
    let speed = host::log();
    let stats = OpStats::from_hists(tcp.lat.clone(), tcp.raw_lat.clone(), tcp.counted, t0, deadline, &speed);

    let (mismatched, featurize) = match mix {
        Mix::Hot => (tcp.hot_mismatched, Hist::default()),
        Mix::Cold => check_cold(&stream, surrogate, &tcp.hashes, r),
    };
    r.attempted = tcp.sent;
    r.failed = tcp.failed;
    r.note(format!("answered per second: {:?}", tcp.per_second));
    r.note(format!(
        "sent {} requests, {} answered by the deadline; closed loop, window {}, 1 connection, 1 client thread",
        tcp.sent, tcp.counted, pinned.window
    ));
    r.check(
        tcp.failed == 0,
        &format!("every request answered ok ({} failed ops)", tcp.failed),
    );
    r.check(
        mismatched == 0,
        &format!(
            "{} of {} responses bit-identical to in-process predictions ({} failed ops)",
            tcp.sent - tcp.failed - mismatched,
            tcp.sent,
            tcp.failed
        ),
    );
    r.check(
        match mix {
            Mix::Hot => hit_ratio > 0.99,
            Mix::Cold => hit_ratio == 0.0,
        },
        &format!("cache hit ratio {hit_ratio} fits the mix"),
    );
    let (setup_s, raw_setup_s) = setup_median(&reps, &speed);
    r.note(format!("set-up: raw wall median {raw_setup_s:.6} s"));
    r.metric("setup_s", setup_s, "s");
    r.metric("peak_rss_mb", rss, "MB");
    stats.report(r);

    r.metric("store.bundle_decode_ms", median(&times.decode), "ms");
    r.metric("serve.engine_start_ms", median(&times.engine), "ms");
    r.metric("problems.corpus_ms", median(&times.corpus), "ms");
    r.metric("serve.cache_hit_ratio", hit_ratio, "ratio");
    r.metric("serve.rows_per_batch", rows_per_batch, "count");
    r.metric("serve.rejected", rejected, "count");
    r.metric("protocol.request_bytes", tcp.request_bytes as f64 / tcp.sent as f64, "bytes");
    r.metric("protocol.response_bytes", tcp.response_bytes as f64 / tcp.sent as f64, "bytes");
    if mix == Mix::Cold {
        r.metric("problems.featurize_us_p50", featurize.pct_us(50.0), "us");
        r.metric("problems.featurize_ms", featurize.sum_ns() as f64 / 1e6, "ms");
    }

    if args.trace {
        // The same request stream in process, untraced then traced, each
        // on a fresh engine (a cold stream must not hit the first
        // replay's cache entries).
        let n = tcp.sent.min(BY_SEQ_CAP as u64);
        let untraced = replay(&trained, &stream, pinned, cores, n, false);
        let traced = replay(&trained, &stream, pinned, cores, n, true);
        let (layers, dump) = trace::take();
        let mut overhead: Vec<f64> = traced
            .op_by_seq
            .iter()
            .zip(&tcp.by_seq)
            .map(|(&inproc, &net)| (net as f64 - inproc as f64) / 1e3)
            .collect();
        overhead.sort_by(|a, b| a.total_cmp(b));
        let pct = |p: f64| {
            let rank = ((p / 100.0) * overhead.len() as f64).ceil() as usize;
            overhead[rank.clamp(1, overhead.len()) - 1]
        };
        r.metric("net.overhead_us_p50", pct(50.0), "us");
        r.metric("net.overhead_us_p90", pct(90.0), "us");
        r.metric("net.inproc_us_p50", traced.stats.lat.pct_us(50.0), "us");
        for (metric, span) in [
            ("protocol.decode_us_p50", "protocol.decode"),
            ("protocol.stage_us_p50", "protocol.stage"),
            ("serve.wait_us_p50", "serve.wait"),
            ("protocol.encode_us_p50", "protocol.encode"),
        ] {
            r.metric(metric, crate::layers::p50_us(&layers, span), "us");
        }
        r.check(traced.failed == 0, "in-process replay answered every request");
        let covered: u64 = ["protocol.queued", "protocol.decode", "protocol.stage", "serve.wait", "protocol.encode"]
            .iter()
            .filter_map(|s| layers.get(s))
            .map(|l| l.self_ns.sum_ns())
            .sum();
        let accounted = covered as f64 / traced.stats.raw_lat.sum_ns() as f64;
        crate::layers::finish(
            r,
            args,
            &untraced.stats,
            &traced.stats,
            accounted,
            &layers,
            &dump,
        );
    }
    host::stop(&allowed);
}

struct Replay {
    stats: OpStats,
    op_by_seq: Vec<u64>,
    failed: u64,
}

/// Drives requests `0..n` through the sans-IO protocol core in process,
/// as a closed loop with the TCP client's window: queued (sent, not yet
/// read), decode (`SessionCodec`), stage (`stage_item`: parse, validate,
/// featurise, submit), wait for the engine, encode (`ResponseEmitter`).
fn replay(
    trained: &Arc<TrainedQross>,
    stream: &Stream,
    pinned: &Pinned,
    cores: Option<Cores>,
    n: u64,
    traced: bool,
) -> Replay {
    let engine = start_engine(ServeModel::Bundle(Arc::clone(trained)), pinned, cores);
    let wire = match stream.mix {
        Mix::Hot => WireFormat::Qbin,
        Mix::Cold => WireFormat::Ndjson,
    };
    let mut codec = SessionCodec::new();
    let mut emitter = ResponseEmitter::new();
    let mut decoder = Decoder::new(stream.mix);
    let (mut out, mut bytes, mut decoded) = (Vec::new(), Vec::new(), Vec::new());
    if stream.mix == Mix::Hot {
        // Warm the cache as the TCP set-up did.
        for h in 0..HOT_SET as u64 {
            bytes.clear();
            stream.request(h, &mut bytes);
            codec.feed(&bytes);
            let item = codec.next_item().expect("a whole frame");
            emitter.push(stage_item(&engine, item, None).expect("a staged request"));
        }
        while !emitter.is_idle() {
            emitter.pump(engine.obs(), wire, &mut out).expect("encode");
        }
        out.clear();
    }
    let mut failed = 0u64;
    let mut inflight: VecDeque<(u64, u64, u64)> = VecDeque::new();
    let mut ops = Vec::with_capacity(n as usize);
    let mut op_by_seq = vec![0u64; n as usize];
    let mut emitted_at = vec![0u64; n as usize];
    host::sample();
    trace::set_enabled(traced);
    let t0 = now_ns();
    for seq in 0..n {
        bytes.clear();
        stream.request(seq, &mut bytes);
        // Closed loop: request `seq` is sent when response `seq - window`
        // is out; until this thread reaches it, it waits as it would in
        // the socket.
        let start = match (seq as usize).checked_sub(pinned.window) {
            Some(prev) => emitted_at[prev],
            None => t0,
        };
        trace::record("protocol.queued", seq, start, now_ns());
        let staged = {
            let item = trace::span("protocol.decode", seq, || {
                codec.feed(&bytes);
                codec.next_item().expect("a whole request")
            });
            trace::span("protocol.stage", seq, || stage_item(&engine, item, None))
        };
        let staged_at = now_ns();
        emitter.push(staged.expect("a staged request"));
        inflight.push_back((seq, start, staged_at));
        // Emit whatever is ready; wait only on a full window or at the
        // end of the stream.
        loop {
            let must = inflight.len() >= pinned.window || (seq + 1 == n && !inflight.is_empty());
            let p0 = now_ns();
            let k = emitter.pump(engine.obs(), wire, &mut out).expect("encode");
            let p1 = now_ns();
            if k == 0 {
                if !must {
                    break;
                }
                std::hint::spin_loop();
                continue;
            }
            // The pump encodes its k responses one after another.
            let share = (p1 - p0) / k as u64;
            for i in 0..k as u64 {
                let (s, start, staged_at) = inflight.pop_front().expect("in flight");
                let (e0, e1) = (p0 + i * share, p0 + (i + 1) * share);
                trace::record("serve.wait", s, staged_at, e0);
                trace::record("protocol.encode", s, e0, e1);
                ops.push((start, e1));
                op_by_seq[s as usize] = e1 - start;
                emitted_at[s as usize] = e1;
            }
            decoder.feed(&out, &mut decoded);
            out.clear();
            failed += decoded.drain(..).filter(|d| !matches!(d, Ok(r) if r.ok)).count() as u64;
        }
    }
    let t1 = now_ns();
    trace::set_enabled(false);
    host::sample();
    Replay {
        stats: OpStats::of(&ops, 0, t0, t1, &host::log()),
        op_by_seq,
        failed,
    }
}
