//! Timing wrappers over the library's public traits.
//!
//! [`TimedSolver`], [`TimedProblem`] and [`TimedStrategy`] delegate every
//! call unchanged, so a wrapped run computes exactly what the bare run
//! does (the workloads check this bit for bit). With tracing off they
//! only time the workload's op (taking host-speed samples between ops,
//! see `host.rs`); with tracing on they also open a span
//! around each call into the solver, problem and strategy layers.

use std::cell::RefCell;

use problems::RelaxableProblem;
use qross::collect::SolverObservation;
use qross::strategy::ProposalStrategy;
use qubo::QuboModel;
use solvers::{SampleSet, Solver};

use crate::trace::{self, now_ns, Hist};

/// Counters the wrappers fill on the calling thread.
#[derive(Debug, Default)]
pub struct Meter {
    /// `(start, end)` of every op with a latency sample, in
    /// `trace::now_ns` time
    pub ops: Vec<(u64, u64)>,
    /// ops counted without a latency sample
    pub counted_ops: u64,
    pub sample_calls: u64,
    /// QUBO models built, and their summed coupling counts (traced only)
    pub models: u64,
    pub couplings: u64,
    /// per-op summed scoring time (traced only)
    pub score_per_op: Hist,
    score_acc: u64,
    score_calls: u64,
    /// per method: trials, and trials with a feasible solution
    pub trials: [u64; 4],
    pub feasible_trials: [u64; 4],
}

impl Meter {
    /// Closes the scoring window of the previous op.
    fn flush_score(&mut self) {
        if self.score_calls > 0 {
            self.score_per_op.push(self.score_acc);
        }
        self.score_acc = 0;
        self.score_calls = 0;
    }
}

thread_local! {
    static METER: RefCell<Meter> = RefCell::new(Meter::default());
}

fn with_meter<R>(f: impl FnOnce(&mut Meter) -> R) -> R {
    METER.with(|m| f(&mut m.borrow_mut()))
}

/// Takes the calling thread's meter, resetting it.
pub fn take_meter() -> Meter {
    with_meter(|m| {
        m.flush_score();
        std::mem::take(m)
    })
}

fn op_key() -> u64 {
    with_meter(|m| m.ops.len() as u64)
}

/// A host-speed sample between two ops, when one is due. Traced, it is a
/// span of its own, so no layer's self time holds it.
fn calibrate_between_ops() {
    if crate::host::due() {
        trace::span("host.calibrate", op_key(), crate::host::sample);
    }
}

/// How a [`TimedSolver`]'s calls count towards the workload's ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// calls are not ops (a trial is)
    None,
    /// each call is an op and a latency sample
    Timed,
    /// each call is an op, counted but not a latency sample
    Counted,
}

/// A solver whose `sample` calls are timed and counted as `op` says.
pub struct TimedSolver<S> {
    pub inner: S,
    pub op: Op,
}

impl<S: Solver> Solver for TimedSolver<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn sample(&self, model: &QuboModel, batch: usize, seed: u64) -> SampleSet {
        if self.op != Op::None {
            calibrate_between_ops();
        }
        with_meter(|m| m.flush_score());
        let start = now_ns();
        let id = trace::begin("solvers.sample", op_key());
        let out = self.inner.sample(model, batch, seed);
        trace::end(id);
        let end = now_ns();
        with_meter(|m| {
            m.sample_calls += 1;
            match self.op {
                Op::None => {}
                Op::Timed => m.ops.push((start, end)),
                Op::Counted => m.counted_ops += 1,
            }
        });
        out
    }
}

/// A problem whose QUBO builds and scoring calls are traced.
pub struct TimedProblem<'a, P: ?Sized>(pub &'a P);

impl<P: RelaxableProblem + ?Sized> RelaxableProblem for TimedProblem<'_, P> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn num_vars(&self) -> usize {
        self.0.num_vars()
    }

    fn to_qubo(&self, relaxation: f64) -> QuboModel {
        let model = trace::span("problems.to_qubo", op_key(), || self.0.to_qubo(relaxation));
        if trace::enabled() {
            with_meter(|m| {
                m.models += 1;
                m.couplings += model.num_couplings() as u64;
            });
        }
        model
    }

    fn is_feasible(&self, x: &[u8]) -> bool {
        self.score(|| self.0.is_feasible(x))
    }

    fn fitness(&self, x: &[u8]) -> Option<f64> {
        self.score(|| self.0.fitness(x))
    }
}

impl<P: ?Sized> TimedProblem<'_, P> {
    fn score<R>(&self, f: impl FnOnce() -> R) -> R {
        if !trace::enabled() {
            return f();
        }
        let start = now_ns();
        let out = trace::span("problems.score", op_key(), f);
        let dur = now_ns() - start;
        with_meter(|m| {
            m.score_acc += dur;
            m.score_calls += 1;
        });
        out
    }
}

/// Span names per method, in `METHODS` order.
pub const PROPOSE_SPANS: [&str; 4] = [
    "strategy.propose.qross",
    "strategy.propose.tpe",
    "strategy.propose.bo",
    "strategy.propose.random",
];

/// A proposal strategy whose trials are the workload's ops: an op runs
/// from `propose` to the matching `observe` (QUBO build, solve and score
/// happen in between, inside the `eval.trial` span).
pub struct TimedStrategy<'s> {
    pub inner: Box<dyn ProposalStrategy + 's>,
    pub method: usize,
    trial: Option<(u64, u64)>,
}

impl<'s> TimedStrategy<'s> {
    pub fn new(inner: Box<dyn ProposalStrategy + 's>, method: usize) -> Self {
        TimedStrategy {
            inner,
            method,
            trial: None,
        }
    }
}

impl ProposalStrategy for TimedStrategy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn propose(&mut self, trial: usize) -> f64 {
        calibrate_between_ops();
        let start = now_ns();
        let span = trace::begin("eval.trial", op_key());
        self.trial = Some((start, span));
        trace::span(PROPOSE_SPANS[self.method], op_key(), || {
            self.inner.propose(trial)
        })
    }

    fn observe(&mut self, a: f64, outcome: &SolverObservation) {
        trace::span("strategy.observe", op_key(), || self.inner.observe(a, outcome));
        let (start, span) = self.trial.take().expect("observe follows propose");
        trace::end(span);
        let end = now_ns();
        let method = self.method;
        with_meter(|m| {
            m.ops.push((start, end));
            m.trials[method] += 1;
            m.feasible_trials[method] += outcome.best_fitness.is_some() as u64;
        });
    }
}
