//! Weighted Minimum Vertex Cover (paper appendix B).
//!
//! Given an undirected graph with vertex weights `w_i`, find the
//! minimum-weight vertex subset touching every edge. The appendix-B QUBO
//! form is
//!
//! `min Σ_i w_i u_i + σ · Σ_{(i,j)∈E} (1 − u_i − u_j + u_i u_j)`
//!
//! where each edge term is 1 exactly when the edge is uncovered. The
//! penalty weight `σ` plays the relaxation-parameter role; appendix B's
//! Fig. 6 sweeps it over `10^0 … 10^4` to show hardware-error degradation.
//!
//! Instances for that experiment are Erdős–Rényi `G(n, p)` graphs with 65
//! nodes, edge probability 0.5 and i.i.d. `U[0, 1)` weights — matching the
//! chimera-embeddable size the paper used on DW_2000Q.

use rand::Rng;
use serde::{Deserialize, Serialize};

use mathkit::rng::derive_rng;
use qubo::{QuboBuilder, QuboModel};

use crate::RelaxableProblem;

/// A weighted MVC instance.
///
/// # Examples
///
/// ```
/// use problems::{MvcInstance, RelaxableProblem};
/// // Triangle graph, unit weights.
/// let inst = MvcInstance::new(
///     "tri",
///     vec![1.0; 3],
///     vec![(0, 1), (1, 2), (0, 2)],
/// ).unwrap();
/// // Covering two vertices covers every edge.
/// assert!(inst.is_feasible(&[1, 1, 0]));
/// assert_eq!(inst.fitness(&[1, 1, 0]), Some(2.0));
/// assert!(!inst.is_feasible(&[1, 0, 0]));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MvcInstance {
    name: String,
    weights: Vec<f64>,
    edges: Vec<(u32, u32)>,
}

impl MvcInstance {
    /// Creates an instance.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ProblemError::InvalidInstance`] for self-loops,
    /// out-of-range endpoints, duplicate edges or non-finite weights.
    pub fn new(
        name: &str,
        weights: Vec<f64>,
        edges: Vec<(u32, u32)>,
    ) -> Result<Self, crate::ProblemError> {
        let n = weights.len();
        if weights.iter().any(|w| !w.is_finite()) {
            return Err(crate::ProblemError::InvalidInstance {
                message: "non-finite vertex weight".to_string(),
            });
        }
        let mut seen = std::collections::HashSet::new();
        let mut normalized = Vec::with_capacity(edges.len());
        for &(a, b) in &edges {
            if a == b {
                return Err(crate::ProblemError::InvalidInstance {
                    message: format!("self-loop at vertex {a}"),
                });
            }
            if a as usize >= n || b as usize >= n {
                return Err(crate::ProblemError::InvalidInstance {
                    message: format!("edge ({a},{b}) out of range for {n} vertices"),
                });
            }
            let e = (a.min(b), a.max(b));
            if !seen.insert(e) {
                return Err(crate::ProblemError::InvalidInstance {
                    message: format!("duplicate edge ({},{})", e.0, e.1),
                });
            }
            normalized.push(e);
        }
        Ok(MvcInstance {
            name: name.to_string(),
            weights,
            edges: normalized,
        })
    }

    /// Random `G(n, p)` instance with `U[0,1)` vertex weights — the
    /// appendix-B experimental setting (`n = 65`, `p = 0.5`).
    pub fn random_gnp(name: &str, n: usize, p: f64, seed: u64) -> Self {
        let mut rng = derive_rng(seed, 0x347C);
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
        let mut edges = Vec::new();
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                if rng.gen::<f64>() < p {
                    edges.push((i, j));
                }
            }
        }
        MvcInstance {
            name: name.to_string(),
            weights,
            edges,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.weights.len()
    }

    /// Vertex weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Edge list (endpoints normalised to `(min, max)`).
    pub fn edges(&self) -> &[(u32, u32)] {
        &self.edges
    }

    /// Number of uncovered edges under assignment `x`.
    pub fn uncovered_edges(&self, x: &[u8]) -> usize {
        self.edges
            .iter()
            .filter(|&&(a, b)| x[a as usize] == 0 && x[b as usize] == 0)
            .count()
    }

    /// Total weight of the selected vertices (regardless of feasibility).
    pub fn cover_weight(&self, x: &[u8]) -> f64 {
        x.iter()
            .zip(self.weights.iter())
            .filter(|&(&xi, _)| xi != 0)
            .map(|(_, &w)| w)
            .sum()
    }

    /// Greedy cover: repeatedly takes the vertex that covers the most
    /// still-uncovered edges per unit weight (the lowest index on ties)
    /// until every edge is covered. Used as the reference for
    /// normalising Fig. 6 energies when exhaustive search is too large.
    /// Runs in O(n·k + m) for `k` picks: picking a vertex decrements the
    /// uncovered-edge counts of its neighbours instead of recounting.
    pub fn greedy_cover(&self) -> Vec<u8> {
        let n = self.num_vertices();
        let mut neighbours = vec![Vec::new(); n];
        for &(a, b) in &self.edges {
            neighbours[a as usize].push(b as usize);
            neighbours[b as usize].push(a as usize);
        }
        // uncovered edges at each vertex; 0 once a vertex is taken
        let mut degree: Vec<usize> = neighbours.iter().map(Vec::len).collect();
        let mut uncovered = self.edges.len();
        let mut x = vec![0u8; n];
        while uncovered > 0 {
            let mut best = 0usize;
            let mut best_score = f64::NEG_INFINITY;
            for (v, (&d, &w)) in degree.iter().zip(&self.weights).enumerate() {
                if d > 0 {
                    let score = d as f64 / w.max(1e-9);
                    if score > best_score {
                        best_score = score;
                        best = v;
                    }
                }
            }
            x[best] = 1;
            uncovered -= degree[best];
            degree[best] = 0;
            for &u in &neighbours[best] {
                if x[u] == 0 {
                    degree[u] -= 1;
                }
            }
        }
        x
    }
}

impl RelaxableProblem for MvcInstance {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_vars(&self) -> usize {
        self.weights.len()
    }

    fn to_qubo(&self, relaxation: f64) -> QuboModel {
        let mut b = QuboBuilder::new(self.num_vertices());
        for (i, &w) in self.weights.iter().enumerate() {
            b.add_linear(i, w);
        }
        for &(i, j) in &self.edges {
            // σ (1 − u_i − u_j + u_i u_j)
            b.add_offset(relaxation);
            b.add_linear(i as usize, -relaxation);
            b.add_linear(j as usize, -relaxation);
            b.add_quadratic(i as usize, j as usize, relaxation);
        }
        b.build()
    }

    fn is_feasible(&self, x: &[u8]) -> bool {
        self.uncovered_edges(x) == 0
    }

    fn fitness(&self, x: &[u8]) -> Option<f64> {
        if self.is_feasible(x) {
            Some(self.cover_weight(x))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> MvcInstance {
        // 0 - 1 - 2 path: optimal cover is {1} with weight 1.
        MvcInstance::new("path", vec![1.0, 1.0, 1.0], vec![(0, 1), (1, 2)]).unwrap()
    }

    #[test]
    fn feasibility_and_fitness() {
        let p = path3();
        assert!(p.is_feasible(&[0, 1, 0]));
        assert_eq!(p.fitness(&[0, 1, 0]), Some(1.0));
        assert!(!p.is_feasible(&[1, 0, 0]));
        assert_eq!(p.fitness(&[1, 0, 0]), None);
        assert!(p.is_feasible(&[1, 1, 1]));
        assert_eq!(p.fitness(&[1, 1, 1]), Some(3.0));
    }

    #[test]
    fn qubo_energy_identity() {
        let p = path3();
        let sigma = 3.5;
        let q = p.to_qubo(sigma);
        for bits in 0..8u8 {
            let x = [bits & 1, (bits >> 1) & 1, (bits >> 2) & 1];
            let want = p.cover_weight(&x) + sigma * p.uncovered_edges(&x) as f64;
            assert!((q.energy(&x) - want).abs() < 1e-12, "x={x:?}");
        }
    }

    #[test]
    fn qubo_minimum_is_optimal_cover_when_sigma_large() {
        let p = path3();
        // σ > max weight guarantees the QUBO optimum is feasible
        // (appendix B: "any σ > max(w_i) would ensure...").
        let q = p.to_qubo(2.0);
        let mut best = (f64::INFINITY, 0u8);
        for bits in 0..8u8 {
            let x = [bits & 1, (bits >> 1) & 1, (bits >> 2) & 1];
            let e = q.energy(&x);
            if e < best.0 {
                best = (e, bits);
            }
        }
        assert_eq!(best.1, 0b010, "optimal cover must be the middle vertex");
        assert_eq!(best.0, 1.0);
    }

    #[test]
    fn validation_rejects_bad_input() {
        assert!(MvcInstance::new("l", vec![1.0; 2], vec![(0, 0)]).is_err());
        assert!(MvcInstance::new("r", vec![1.0; 2], vec![(0, 5)]).is_err());
        assert!(MvcInstance::new("d", vec![1.0; 3], vec![(0, 1), (1, 0)]).is_err());
        assert!(MvcInstance::new("w", vec![f64::NAN], vec![]).is_err());
    }

    #[test]
    fn gnp_statistics() {
        let g = MvcInstance::random_gnp("g", 40, 0.5, 7);
        assert_eq!(g.num_vertices(), 40);
        let max_edges = 40 * 39 / 2;
        // With p = 0.5 expect ~390 of 780 edges; allow wide slack.
        assert!(g.edges().len() > max_edges / 4);
        assert!(g.edges().len() < 3 * max_edges / 4);
        assert!(g.weights().iter().all(|&w| (0.0..1.0).contains(&w)));
        // Deterministic.
        assert_eq!(g, MvcInstance::random_gnp("g", 40, 0.5, 7));
    }

    #[test]
    fn greedy_cover_is_feasible() {
        for seed in 0..5 {
            let g = MvcInstance::random_gnp("g", 30, 0.3, seed);
            let cover = g.greedy_cover();
            assert!(g.is_feasible(&cover), "seed {seed}");
        }
    }

    /// The recounting loop `greedy_cover` replaced: every pick recounts
    /// the uncovered degrees from the remaining edge list.
    fn greedy_cover_by_recounting(g: &MvcInstance) -> Vec<u8> {
        let n = g.num_vertices();
        let mut x = vec![0u8; n];
        let mut uncovered = g.edges().to_vec();
        while !uncovered.is_empty() {
            let mut degree = vec![0usize; n];
            for &(a, b) in &uncovered {
                degree[a as usize] += 1;
                degree[b as usize] += 1;
            }
            let mut best = 0usize;
            let mut best_score = f64::NEG_INFINITY;
            for v in 0..n {
                if x[v] == 0 && degree[v] > 0 {
                    let score = degree[v] as f64 / g.weights()[v].max(1e-9);
                    if score > best_score {
                        best_score = score;
                        best = v;
                    }
                }
            }
            x[best] = 1;
            uncovered.retain(|&(a, b)| a as usize != best && b as usize != best);
        }
        x
    }

    #[test]
    fn greedy_cover_matches_recounting_reference() {
        for seed in 0..300u64 {
            let n = 1 + (seed % 40) as usize;
            let p = [0.05, 0.2, 0.5, 0.9][(seed / 40 % 4) as usize];
            let g = MvcInstance::random_gnp("g", n, p, seed);
            assert_eq!(
                g.greedy_cover(),
                greedy_cover_by_recounting(&g),
                "seed {seed}"
            );
            // Equal weights make every pick a tie-break on degree and index.
            let flat = MvcInstance::new("flat", vec![1.0; n], g.edges().to_vec()).unwrap();
            assert_eq!(
                flat.greedy_cover(),
                greedy_cover_by_recounting(&flat),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn empty_graph_trivially_covered() {
        let g = MvcInstance::new("empty", vec![1.0; 4], vec![]).unwrap();
        assert!(g.is_feasible(&[0, 0, 0, 0]));
        assert_eq!(g.fitness(&[0, 0, 0, 0]), Some(0.0));
        assert!(g.greedy_cover().iter().all(|&b| b == 0));
    }
}
