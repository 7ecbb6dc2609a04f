//! Timing primitives of the benchmark: a monotonic clock, a latency
//! histogram with nearest-rank percentiles, and the span recorder of the
//! traced run.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer (see `wrap.rs`); nothing inside the program is
//! instrumented. Every span has a name, a start, an end, a parent (the
//! span open on the same thread when it began) and a key shared by the
//! spans of one op. A span's self time is its duration minus the time
//! its child spans cover. Self times are aggregated per span name as the
//! spans close; the raw spans are kept in memory (up to a cap) and
//! written out when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A set of nanosecond samples in a histogram of constant size, so a
/// run's memory does not grow with its op count: log₂ octaves split into
/// 256 linear sub-buckets (0.4% wide). Each bucket also keeps the sum of its samples, and a
/// percentile reads the mean of its bucket, so it carries every digit
/// as measured.
#[derive(Debug, Clone)]
pub struct Hist {
    count: Vec<u64>,
    sum: Vec<u64>,
    n: u64,
}

const SUB_BITS: u32 = 8;

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: vec![0; 64 << SUB_BITS],
            sum: vec![0; 64 << SUB_BITS],
            n: 0,
        }
    }
}

impl Hist {
    fn bucket(ns: u64) -> usize {
        if ns < (1 << SUB_BITS) {
            return ns as usize;
        }
        let octave = 63 - ns.leading_zeros() - SUB_BITS + 1;
        let sub = (ns >> (octave - 1)) as usize & ((1 << SUB_BITS) - 1);
        ((octave as usize) << SUB_BITS) | sub
    }

    pub fn push(&mut self, ns: u64) {
        let b = Self::bucket(ns);
        self.count[b] += 1;
        self.sum[b] += ns;
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn sum_ns(&self) -> u64 {
        self.sum.iter().sum()
    }

    /// Nearest-rank percentile in nanoseconds (0 when empty).
    pub fn pct_ns(&self, p: f64) -> f64 {
        let rank = (((p / 100.0) * self.n as f64).ceil() as u64).clamp(1, self.n.max(1));
        let mut seen = 0;
        for (b, &c) in self.count.iter().enumerate() {
            seen += c;
            if c > 0 && seen >= rank {
                return self.sum[b] as f64 / c as f64;
            }
        }
        0.0
    }

    pub fn pct_us(&self, p: f64) -> f64 {
        self.pct_ns(p) / 1e3
    }

    /// Samples in buckets above the one holding the `p`th percentile.
    pub fn beyond(&self, p: f64) -> u64 {
        let rank = (((p / 100.0) * self.n as f64).ceil() as u64).clamp(1, self.n.max(1));
        let mut seen = 0;
        for &c in &self.count {
            seen += c;
            if seen >= rank {
                return self.n - seen;
            }
        }
        0
    }
}

/// One closed span, as written to the span dump.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub key: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Open {
    id: u64,
    name: &'static str,
    key: u64,
    start_ns: u64,
    child_ns: u64,
}

/// Per-name aggregate of closed spans.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    /// self time of every closed span of this name
    pub self_ns: Hist,
    /// summed wall duration (self plus children)
    pub total_ns: u64,
}

#[derive(Default)]
struct Tracer {
    enabled: bool,
    next_id: u64,
    stack: Vec<Open>,
    layers: BTreeMap<&'static str, Layer>,
    dump: Vec<SpanRec>,
}

/// Raw spans kept per thread for the dump; aggregates are exact beyond it.
const DUMP_CAP: usize = 200_000;

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Turns span recording on or off for the calling thread.
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().enabled = on);
}

pub fn enabled() -> bool {
    TRACER.with(|t| t.borrow().enabled)
}

/// Opens a span (a no-op returning 0 while tracing is off).
pub fn begin(name: &'static str, key: u64) -> u64 {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return 0;
        }
        t.next_id += 1;
        let id = t.next_id;
        t.stack.push(Open {
            id,
            name,
            key,
            start_ns: now_ns(),
            child_ns: 0,
        });
        id
    })
}

/// Closes the innermost open span, which must be `id`.
pub fn end(id: u64) {
    if id == 0 {
        return;
    }
    let end_ns = now_ns();
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let open = t.stack.pop().expect("span stack underflow");
        assert_eq!(open.id, id, "spans must close innermost first");
        let dur = end_ns.saturating_sub(open.start_ns);
        let parent = match t.stack.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => 0,
        };
        let layer = t.layers.entry(open.name).or_default();
        layer.self_ns.push(dur.saturating_sub(open.child_ns));
        layer.total_ns += dur;
        if t.dump.len() < DUMP_CAP {
            t.dump.push(SpanRec {
                id,
                parent,
                key: open.key,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    });
}

/// Records an already-closed span whose interval may overlap others
/// (e.g. a request waiting while later requests are staged). It has no
/// children and is not charged to the enclosing span.
pub fn record(name: &'static str, key: u64, start_ns: u64, end_ns: u64) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.enabled {
            return;
        }
        t.next_id += 1;
        let id = t.next_id;
        let parent = t.stack.last().map_or(0, |p| p.id);
        let dur = end_ns.saturating_sub(start_ns);
        let layer = t.layers.entry(name).or_default();
        layer.self_ns.push(dur);
        layer.total_ns += dur;
        if t.dump.len() < DUMP_CAP {
            t.dump.push(SpanRec {
                id,
                parent,
                key,
                name,
                start_ns,
                end_ns,
            });
        }
    });
}

/// Runs `f` inside a span.
pub fn span<R>(name: &'static str, key: u64, f: impl FnOnce() -> R) -> R {
    let id = begin(name, key);
    let out = f();
    end(id);
    out
}

/// Takes the calling thread's aggregates and span dump, resetting both.
pub fn take() -> (BTreeMap<&'static str, Layer>, Vec<SpanRec>) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        assert!(t.stack.is_empty(), "open spans at take");
        (std::mem::take(&mut t.layers), std::mem::take(&mut t.dump))
    })
}

/// Writes a span dump as tab-separated lines.
pub fn write_dump(path: &std::path::Path, spans: &[SpanRec]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tkey\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.key, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
