//! # problems — constrained combinatorial problems and QUBO encodings
//!
//! The paper's case study is the Travelling Salesman Problem (§4), its
//! appendix uses Minimum Vertex Cover (appendix B), and it confirms the
//! core hypothesis on QAPLIB (§3.1 fn. 2). This crate implements all
//! three problem families end to end:
//!
//! * [`tsp`] — instances, the synthetic generators of appendix D, the n²
//!   QUBO encoding of Lucas (2014) used in §4.1, the MVODM pre-processing
//!   of appendix E, and classical reference heuristics (nearest-neighbour,
//!   2-opt, Or-opt) that provide the "near-optimal fitness" the paper
//!   normalises against;
//! * [`tsplib`] — a TSPLIB95 parser (EUC_2D, CEIL_2D, MAN_2D, MAX_2D, ATT,
//!   GEO and EXPLICIT matrices);
//! * [`realworld`] — the out-of-distribution benchmark set standing in for
//!   the paper's 11 TSPLIB instances (see DESIGN.md: the original data
//!   files are not redistributable here, so deterministic generators with
//!   matching sizes and diverse spatial structure are used instead — load
//!   genuine `.tsp` files through [`tsplib`] when available);
//! * [`mvc`] — weighted Minimum Vertex Cover with the appendix-B QUBO
//!   penalty form;
//! * [`qap`] — Quadratic Assignment Problem with the permutation QUBO
//!   encoding;
//! * [`maxcut`] — balanced Max-Cut (cardinality constraint relaxed with
//!   penalty `A`);
//! * [`knapsack`] — 0/1 knapsack with slack-bit capacity encoding
//!   (Lucas 2014 §5.2).
//!
//! All encodings implement [`RelaxableProblem`], the interface the QROSS
//! pipeline consumes: build a QUBO for a relaxation parameter `A`, test
//! feasibility of solver outputs, and score feasible solutions in original
//! objective units. The [`family`] module raises that contract to the
//! *family* level: a [`family::ProblemFamily`] owns generation,
//! featurization and a compact instance encoding, and a static registry
//! makes families addressable by name — adding one means touching only
//! this crate plus one registration line.

pub mod family;
pub mod knapsack;
pub mod maxcut;
pub mod mvc;
pub mod qap;
pub mod realworld;
pub mod tsp;
pub mod tsplib;

pub use family::{
    known_families, lookup_family, registry, CorpusTier, FamilyProblem, InstanceData,
    ProblemFamily, FAMILY_FEATURE_DIM,
};
pub use knapsack::KnapsackInstance;
pub use maxcut::MaxCutInstance;
pub use mvc::MvcInstance;
pub use qap::QapInstance;
pub use tsp::{TspEncoding, TspInstance};

use std::sync::OnceLock;

use qubo::{ConstrainedBinaryProgram, QuboModel};

/// A family's penalty program, built by the first call that needs it.
///
/// Constructors and [`ProblemFamily::decode`] only validate; serving an
/// uploaded instance needs its features, never its QUBO, and the
/// program is the costly part of an instance (n³ couplings for TSP, n⁴
/// for QAP). The program is a pure function of the owner's defining
/// data, so every two caches compare equal: a derived `PartialEq` on the
/// owner compares exactly that data, whether or not either cache is
/// filled. Racing first calls build once; the others wait for it.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProgramCache(OnceLock<ConstrainedBinaryProgram>);

#[cfg(test)]
thread_local! {
    /// Programs built on this thread, so tests can see when a build ran.
    pub(crate) static PROGRAM_BUILDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl ProgramCache {
    pub(crate) fn get_or_build(
        &self,
        build: impl FnOnce() -> ConstrainedBinaryProgram,
    ) -> &ConstrainedBinaryProgram {
        self.0.get_or_init(|| {
            #[cfg(test)]
            PROGRAM_BUILDS.with(|n| n.set(n.get() + 1));
            build()
        })
    }
}

impl PartialEq for ProgramCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// A constrained problem relaxed into QUBO form with a penalty parameter.
///
/// This is the contract between problem encodings and the QROSS pipeline:
/// the surrogate learns `Pf(g, A)` and energy statistics of the QUBO built
/// by [`RelaxableProblem::to_qubo`], while [`RelaxableProblem::fitness`]
/// scores feasible assignments in the *original* objective units (for TSP,
/// tour length under the unmodified distance matrix — appendix E).
pub trait RelaxableProblem: Send + Sync {
    /// Human-readable instance identifier.
    fn name(&self) -> &str;

    /// Number of binary variables of the QUBO encoding.
    fn num_vars(&self) -> usize;

    /// Builds the penalty relaxation for parameter `relaxation`.
    fn to_qubo(&self, relaxation: f64) -> QuboModel;

    /// Whether `x` satisfies every constraint of the original problem.
    fn is_feasible(&self, x: &[u8]) -> bool;

    /// Original-units objective of `x`, or `None` when `x` is infeasible.
    fn fitness(&self, x: &[u8]) -> Option<f64>;
}

impl<T: RelaxableProblem + ?Sized> RelaxableProblem for Box<T> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn num_vars(&self) -> usize {
        (**self).num_vars()
    }

    fn to_qubo(&self, relaxation: f64) -> QuboModel {
        (**self).to_qubo(relaxation)
    }

    fn is_feasible(&self, x: &[u8]) -> bool {
        (**self).is_feasible(x)
    }

    fn fitness(&self, x: &[u8]) -> Option<f64> {
        (**self).fitness(x)
    }
}

/// Errors from problem construction and data parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProblemError {
    /// A TSPLIB file could not be parsed.
    Parse {
        /// line number (1-based) where parsing failed, when known
        line: usize,
        /// explanation
        message: String,
    },
    /// The instance data is structurally invalid (wrong matrix shape,
    /// negative dimension, unknown edge-weight type, ...).
    InvalidInstance {
        /// explanation
        message: String,
    },
    /// A problem-family name did not match any registered family.
    UnknownFamily {
        /// the name that failed to resolve
        name: String,
        /// ` | `-joined registered family names
        known: String,
    },
}

impl std::fmt::Display for ProblemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProblemError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            ProblemError::InvalidInstance { message } => {
                write!(f, "invalid instance: {message}")
            }
            ProblemError::UnknownFamily { name, known } => {
                write!(f, "unknown problem family `{name}` (known: {known})")
            }
        }
    }
}

impl std::error::Error for ProblemError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn builds() -> usize {
        PROGRAM_BUILDS.with(|n| n.get())
    }

    fn qubo_bits(q: &QuboModel) -> Vec<u64> {
        let mut bits = vec![q.offset().to_bits()];
        bits.extend(q.linear_terms().iter().map(|l| l.to_bits()));
        for i in 0..q.num_vars() {
            bits.push(q.degree(i) as u64);
            bits.extend(q.neighbor_cols(i).iter().map(|&c| u64::from(c)));
            bits.extend(q.neighbor_weights(i).iter().map(|w| w.to_bits()));
        }
        bits
    }

    fn decoded_corpus_head(family: &dyn ProblemFamily) -> Box<dyn FamilyProblem> {
        let problem = &family.corpus(CorpusTier::Micro, 3)[0];
        family
            .decode(&problem.to_data())
            .expect("corpus instance decodes")
    }

    #[test]
    fn decode_and_features_leave_the_program_unbuilt() {
        for family in registry() {
            let cached = family.name() != "mvc";
            let before = builds();
            let problem = decoded_corpus_head(*family);
            assert_eq!(problem.features().len(), family.feature_dim());
            assert_eq!(
                builds(),
                before,
                "{}: decode built the program",
                family.name()
            );
            problem.to_qubo(1.0);
            problem.to_qubo(2.0);
            assert_eq!(
                builds(),
                before + usize::from(cached),
                "{}: to_qubo must build once",
                family.name()
            );
        }
    }

    fn check_clones<P: RelaxableProblem + Clone>(problem: P) {
        let unfilled = problem.clone();
        let first = qubo_bits(&problem.to_qubo(0.7));
        let filled = problem.clone();
        let before = builds();
        assert_eq!(qubo_bits(&filled.to_qubo(0.7)), first, "{}", problem.name());
        assert_eq!(
            builds(),
            before,
            "{}: a filled clone rebuilt",
            problem.name()
        );
        assert_eq!(
            qubo_bits(&unfilled.to_qubo(0.7)),
            first,
            "{}",
            problem.name()
        );
        assert_eq!(builds(), before + 1, "{}", problem.name());
    }

    #[test]
    fn clones_before_and_after_the_first_build_agree() {
        let tsp = TspInstance::from_coords("t", &[(0.0, 0.0), (2.0, 1.0), (1.0, 3.0), (4.0, 4.0)]);
        check_clones(TspEncoding::preprocessed(tsp));
        check_clones(QapInstance::random("q", 5, 1));
        check_clones(MaxCutInstance::random_gnp("m", 10, 0.5, 2));
        check_clones(KnapsackInstance::random("k", 9, 3));
    }

    #[test]
    fn racing_first_builds_build_once_and_agree() {
        const THREADS: usize = 4;
        for family in registry() {
            let problem = decoded_corpus_head(*family);
            let barrier = Barrier::new(THREADS);
            let results: Vec<(Vec<u64>, usize)> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..THREADS)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            (qubo_bits(&problem.to_qubo(1.5)), builds())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("racing thread panicked"))
                    .collect()
            });
            let total: usize = results.iter().map(|(_, n)| n).sum();
            assert_eq!(
                total,
                usize::from(family.name() != "mvc"),
                "{}: racing threads built {total} programs",
                family.name()
            );
            for (bits, _) in &results {
                assert_eq!(bits, &results[0].0, "{}", family.name());
            }
        }
    }

    #[test]
    fn equality_ignores_whether_the_program_is_built() {
        fn check<P: RelaxableProblem + Clone + PartialEq + std::fmt::Debug>(problem: P) {
            let unfilled = problem.clone();
            problem.to_qubo(1.0);
            assert_eq!(problem, unfilled);
            assert_eq!(unfilled, problem);
        }
        check(QapInstance::random("q", 4, 5));
        check(MaxCutInstance::random_gnp("m", 8, 0.5, 6));
        check(KnapsackInstance::random("k", 6, 7));
    }
}
