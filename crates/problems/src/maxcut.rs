//! Balanced Max-Cut.
//!
//! Given a weighted undirected graph, split the vertices into two sides
//! of equal size (the balance target is `⌊n/2⌋`) maximising the total
//! weight of edges crossing the cut. Plain Max-Cut is unconstrained —
//! every assignment is feasible, so the paper's feasibility-probability
//! machinery would have nothing to predict. The *balanced* variant adds
//! a cardinality constraint `Σ_i x_i = ⌊n/2⌋` relaxed with penalty `A`,
//! putting it in exactly the constrained-QUBO shape QROSS models:
//!
//! * objective: minimise `−Σ_{(i,j)∈E} w_ij (x_i + x_j − 2 x_i x_j)`
//!   (the negated cut weight, so lower fitness = larger cut);
//! * constraint: `Σ_i x_i = ⌊n/2⌋` via [`LinearConstraint`].

use rand::Rng;

use mathkit::rng::derive_rng;
use qubo::{ConstrainedBinaryProgram, LinearConstraint, QuboBuilder, QuboModel};

use crate::{ProblemError, ProgramCache, RelaxableProblem};

/// A balanced Max-Cut instance and its QUBO encoding.
///
/// # Examples
///
/// ```
/// use problems::{MaxCutInstance, RelaxableProblem};
/// // Square graph, unit weights: the balanced cut {0,2} | {1,3} cuts
/// // all four edges.
/// let edges = vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)];
/// let inst = MaxCutInstance::new("square", 4, edges).unwrap();
/// let x = [1, 0, 1, 0];
/// assert!(inst.is_feasible(&x));
/// assert_eq!(inst.fitness(&x), Some(-4.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MaxCutInstance {
    name: String,
    num_vertices: usize,
    edges: Vec<(u32, u32, f64)>,
    program: ProgramCache,
}

impl MaxCutInstance {
    /// Creates an instance over `num_vertices` vertices with weighted
    /// edges `(u, v, w)`.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::InvalidInstance`] on self-loops,
    /// out-of-range endpoints, duplicate edges (in either orientation)
    /// or non-finite weights.
    pub fn new(
        name: &str,
        num_vertices: usize,
        edges: Vec<(u32, u32, f64)>,
    ) -> Result<Self, ProblemError> {
        let n = num_vertices;
        let mut seen = std::collections::HashSet::new();
        for &(u, v, w) in &edges {
            if u == v {
                return Err(ProblemError::InvalidInstance {
                    message: format!("self-loop at vertex {u}"),
                });
            }
            if u as usize >= n || v as usize >= n {
                return Err(ProblemError::InvalidInstance {
                    message: format!("edge ({u},{v}) out of range for {n} vertices"),
                });
            }
            if !w.is_finite() {
                return Err(ProblemError::InvalidInstance {
                    message: format!("non-finite weight on edge ({u},{v})"),
                });
            }
            if !seen.insert((u.min(v), u.max(v))) {
                return Err(ProblemError::InvalidInstance {
                    message: format!("duplicate edge ({u},{v})"),
                });
            }
        }
        Ok(MaxCutInstance {
            name: name.to_string(),
            num_vertices: n,
            edges,
            program: ProgramCache::default(),
        })
    }

    /// Random G(n, p) instance with edge weights uniform in `[0.5, 1.5)`,
    /// deterministic in `(seed)`.
    pub fn random_gnp(name: &str, n: usize, p: f64, seed: u64) -> Self {
        let mut rng = derive_rng(seed, 0x6CA7);
        let mut edges = Vec::new();
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                if rng.gen::<f64>() < p {
                    edges.push((i, j, rng.gen_range(0.5..1.5)));
                }
            }
        }
        Self::new(name, n, edges).expect("generated edges are valid")
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Weighted edge list `(u, v, w)`.
    pub fn edges(&self) -> &[(u32, u32, f64)] {
        &self.edges
    }

    /// Cardinality the feasible side must hit: `⌊n/2⌋`.
    pub fn balance_target(&self) -> usize {
        self.num_vertices / 2
    }

    /// Total weight of edges crossing the cut described by `x`
    /// (`x[i] = 1` puts vertex `i` on the selected side).
    ///
    /// # Panics
    ///
    /// Panics if `x` is shorter than the vertex count.
    pub fn cut_weight(&self, x: &[u8]) -> f64 {
        self.edges
            .iter()
            .map(|&(u, v, w)| {
                if x[u as usize] != x[v as usize] {
                    w
                } else {
                    0.0
                }
            })
            .sum()
    }
}

fn build_program(n: usize, edges: &[(u32, u32, f64)]) -> ConstrainedBinaryProgram {
    let mut builder = QuboBuilder::new(n);
    // Minimise −cut: −Σ w (x_u + x_v − 2 x_u x_v).
    for &(u, v, w) in edges {
        builder.add_linear(u as usize, -w);
        builder.add_linear(v as usize, -w);
        builder.add_quadratic(u as usize, v as usize, 2.0 * w);
    }
    let mut program = ConstrainedBinaryProgram::new(builder.build());
    program.add_constraint(LinearConstraint::new(
        (0..n).map(|i| (i, 1.0)).collect(),
        (n / 2) as f64,
    ));
    program
}

impl RelaxableProblem for MaxCutInstance {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_vars(&self) -> usize {
        self.num_vertices
    }

    fn to_qubo(&self, relaxation: f64) -> QuboModel {
        self.program
            .get_or_build(|| build_program(self.num_vertices, &self.edges))
            .to_qubo(relaxation)
    }

    fn is_feasible(&self, x: &[u8]) -> bool {
        x.len() == self.num_vertices
            && x.iter().filter(|&&b| b == 1).count() == self.balance_target()
    }

    fn fitness(&self, x: &[u8]) -> Option<f64> {
        if !self.is_feasible(x) {
            return None;
        }
        Some(-self.cut_weight(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> MaxCutInstance {
        MaxCutInstance::new(
            "square",
            4,
            vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)],
        )
        .unwrap()
    }

    #[test]
    fn validation_rejects_bad_edges() {
        assert!(MaxCutInstance::new("loop", 3, vec![(1, 1, 1.0)]).is_err());
        assert!(MaxCutInstance::new("range", 3, vec![(0, 3, 1.0)]).is_err());
        assert!(MaxCutInstance::new("dup", 3, vec![(0, 1, 1.0), (1, 0, 2.0)]).is_err());
        assert!(MaxCutInstance::new("nan", 3, vec![(0, 1, f64::NAN)]).is_err());
    }

    #[test]
    fn balance_constraint_gates_feasibility() {
        let s = square();
        assert!(s.is_feasible(&[1, 0, 1, 0]));
        assert!(!s.is_feasible(&[1, 1, 1, 0]));
        assert!(!s.is_feasible(&[0, 0, 0, 0]));
        assert_eq!(s.fitness(&[1, 1, 1, 0]), None);
    }

    #[test]
    fn fitness_is_negated_cut() {
        let s = square();
        assert_eq!(s.fitness(&[1, 0, 1, 0]), Some(-4.0));
        assert_eq!(s.fitness(&[1, 1, 0, 0]), Some(-2.0));
    }

    #[test]
    fn qubo_matches_fitness_on_feasible_points() {
        let s = square();
        // At any feasible point the penalty term vanishes, so the QUBO
        // energy equals the (negated-cut) objective plus the penalty
        // offset contribution of the satisfied constraint (zero).
        let q = s.to_qubo(3.7);
        for x in [[1u8, 0, 1, 0], [1, 1, 0, 0], [0, 1, 0, 1]] {
            assert!((q.energy(&x) - s.fitness(&x).unwrap()).abs() < 1e-9);
        }
    }

    #[test]
    fn penalty_separates_infeasible_points() {
        let s = square();
        let q_lo = s.to_qubo(0.1);
        let q_hi = s.to_qubo(10.0);
        let infeasible = [1u8, 1, 1, 1];
        assert!(q_hi.energy(&infeasible) > q_lo.energy(&infeasible));
    }

    #[test]
    fn random_gnp_deterministic() {
        let a = MaxCutInstance::random_gnp("g", 12, 0.4, 7);
        let b = MaxCutInstance::random_gnp("g", 12, 0.4, 7);
        assert_eq!(a, b);
        let c = MaxCutInstance::random_gnp("g", 12, 0.4, 8);
        assert_ne!(a, c);
    }
}
