//! 0/1 knapsack.
//!
//! Select items maximising total value subject to a weight capacity.
//! The QUBO encoding follows Lucas (2014) §5.2: the inequality
//! `Σ_i w_i x_i ≤ C` becomes the equality `Σ_i w_i x_i + Σ_j c_j s_j = C`
//! over auxiliary slack bits `s_j` with binary-expansion coefficients
//! `c_j = 2^j` (last coefficient trimmed to `C − 2^(m−1) + 1` so the
//! slack range is exactly `0..=C`), relaxed with penalty `A` via
//! [`LinearConstraint`]. Weights and the capacity must be
//! integer-valued for the slack expansion to be exact.
//!
//! Fitness is the negated total value (lower = better), matching the
//! minimisation convention of the other families.

use rand::Rng;

use mathkit::rng::derive_rng;
use qubo::{ConstrainedBinaryProgram, LinearConstraint, QuboBuilder, QuboModel};

use crate::{ProblemError, ProgramCache, RelaxableProblem};

/// A knapsack instance and its QUBO encoding (items + slack bits).
///
/// # Examples
///
/// ```
/// use problems::{KnapsackInstance, RelaxableProblem};
/// let inst = KnapsackInstance::new("k", vec![6.0, 10.0, 12.0], vec![1.0, 2.0, 3.0], 5.0).unwrap();
/// // Items 1+2 weigh 5 ≤ 5 and are worth 22.
/// let mut x = vec![0, 1, 1];
/// x.resize(inst.num_vars(), 0);
/// assert!(inst.is_feasible(&x));
/// assert_eq!(inst.fitness(&x), Some(-22.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KnapsackInstance {
    name: String,
    values: Vec<f64>,
    weights: Vec<f64>,
    capacity: f64,
    slack_bits: usize,
    program: ProgramCache,
}

impl KnapsackInstance {
    /// Creates an instance from per-item values and weights and a
    /// capacity.
    ///
    /// # Errors
    ///
    /// Returns [`ProblemError::InvalidInstance`] when the lists differ
    /// in length or are empty, values are non-finite or negative,
    /// weights are not positive integers, or the capacity is not a
    /// positive integer (integrality keeps the slack-bit expansion of
    /// the capacity constraint exact).
    pub fn new(
        name: &str,
        values: Vec<f64>,
        weights: Vec<f64>,
        capacity: f64,
    ) -> Result<Self, ProblemError> {
        if values.len() != weights.len() {
            return Err(ProblemError::InvalidInstance {
                message: format!("{} values but {} weights", values.len(), weights.len()),
            });
        }
        if values.is_empty() {
            return Err(ProblemError::InvalidInstance {
                message: "knapsack needs at least one item".to_string(),
            });
        }
        for (i, &v) in values.iter().enumerate() {
            if !v.is_finite() || v < 0.0 {
                return Err(ProblemError::InvalidInstance {
                    message: format!("value of item {i} must be finite and non-negative"),
                });
            }
        }
        for (i, &w) in weights.iter().enumerate() {
            if !w.is_finite() || w < 1.0 || w.fract() != 0.0 {
                return Err(ProblemError::InvalidInstance {
                    message: format!("weight of item {i} must be a positive integer"),
                });
            }
        }
        if !capacity.is_finite() || capacity < 1.0 || capacity.fract() != 0.0 {
            return Err(ProblemError::InvalidInstance {
                message: "capacity must be a positive integer".to_string(),
            });
        }
        let slack_bits = slack_bit_count(capacity as u64);
        Ok(KnapsackInstance {
            name: name.to_string(),
            values,
            weights,
            capacity,
            slack_bits,
            program: ProgramCache::default(),
        })
    }

    /// Random instance: integer values in `[1, 20)`, integer weights in
    /// `[1, 10)`, capacity half the total weight (at least 1).
    /// Deterministic in `(seed)`.
    pub fn random(name: &str, n: usize, seed: u64) -> Self {
        let mut rng = derive_rng(seed, 0x4BA6);
        let values: Vec<f64> = (0..n).map(|_| rng.gen_range(1..20) as f64).collect();
        let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(1..10) as f64).collect();
        let capacity = ((weights.iter().sum::<f64>() / 2.0).floor()).max(1.0);
        Self::new(name, values, weights, capacity).expect("generated items are valid")
    }

    /// Number of items (excluding slack bits).
    pub fn num_items(&self) -> usize {
        self.values.len()
    }

    /// Per-item values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Per-item weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Weight capacity.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Number of auxiliary slack bits in the QUBO encoding.
    pub fn slack_bits(&self) -> usize {
        self.slack_bits
    }

    /// Total weight of the selected items (`x` may include slack bits;
    /// only the item prefix is read).
    ///
    /// # Panics
    ///
    /// Panics if `x` is shorter than the item count.
    pub fn total_weight(&self, x: &[u8]) -> f64 {
        self.weights
            .iter()
            .zip(x)
            .map(|(&w, &b)| w * b as f64)
            .sum()
    }

    /// Total value of the selected items.
    ///
    /// # Panics
    ///
    /// Panics if `x` is shorter than the item count.
    pub fn total_value(&self, x: &[u8]) -> f64 {
        self.values.iter().zip(x).map(|(&v, &b)| v * b as f64).sum()
    }
}

/// Number of slack bits needed to express `0..=capacity` with
/// binary-expansion coefficients.
fn slack_bit_count(capacity: u64) -> usize {
    // floor(log2(C)) + 1; C ≥ 1 by validation.
    (64 - capacity.leading_zeros()) as usize
}

/// Coefficient of slack bit `j` out of `m`: powers of two with the last
/// trimmed so the representable range is exactly `0..=C`.
fn slack_coeff(j: usize, m: usize, capacity: f64) -> f64 {
    if j + 1 < m {
        (1u64 << j) as f64
    } else {
        capacity - (((1u64 << (m - 1)) - 1) as f64)
    }
}

fn build_program(
    values: &[f64],
    weights: &[f64],
    capacity: f64,
    slack_bits: usize,
) -> ConstrainedBinaryProgram {
    let n = values.len();
    let mut builder = QuboBuilder::new(n + slack_bits);
    // Minimise −Σ v_i x_i.
    for (i, &v) in values.iter().enumerate() {
        builder.add_linear(i, -v);
    }
    let mut program = ConstrainedBinaryProgram::new(builder.build());
    let mut coeffs: Vec<(usize, f64)> = weights.iter().copied().enumerate().collect();
    for j in 0..slack_bits {
        coeffs.push((n + j, slack_coeff(j, slack_bits, capacity)));
    }
    program.add_constraint(LinearConstraint::new(coeffs, capacity));
    program
}

impl RelaxableProblem for KnapsackInstance {
    fn name(&self) -> &str {
        &self.name
    }

    fn num_vars(&self) -> usize {
        self.num_items() + self.slack_bits
    }

    fn to_qubo(&self, relaxation: f64) -> QuboModel {
        self.program
            .get_or_build(|| {
                build_program(&self.values, &self.weights, self.capacity, self.slack_bits)
            })
            .to_qubo(relaxation)
    }

    // Feasibility is about the original inequality: the selected items
    // fit. Slack bits only have to exist, not to witness the equality —
    // a solver that satisfies the capacity but mis-sets slack is still
    // returning a usable packing (it just pays penalty energy).
    fn is_feasible(&self, x: &[u8]) -> bool {
        x.len() == self.num_vars() && self.total_weight(x) <= self.capacity
    }

    fn fitness(&self, x: &[u8]) -> Option<f64> {
        if !self.is_feasible(x) {
            return None;
        }
        Some(-self.total_value(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> KnapsackInstance {
        KnapsackInstance::new("k", vec![6.0, 10.0, 12.0], vec![1.0, 2.0, 3.0], 5.0).unwrap()
    }

    #[test]
    fn validation() {
        assert!(KnapsackInstance::new("len", vec![1.0], vec![1.0, 2.0], 3.0).is_err());
        assert!(KnapsackInstance::new("empty", vec![], vec![], 3.0).is_err());
        assert!(KnapsackInstance::new("negv", vec![-1.0], vec![1.0], 3.0).is_err());
        assert!(KnapsackInstance::new("fracw", vec![1.0], vec![1.5], 3.0).is_err());
        assert!(KnapsackInstance::new("zerow", vec![1.0], vec![0.0], 3.0).is_err());
        assert!(KnapsackInstance::new("fracc", vec![1.0], vec![1.0], 2.5).is_err());
        assert!(KnapsackInstance::new("ok", vec![1.0], vec![1.0], 1.0).is_ok());
    }

    #[test]
    fn slack_range_is_exact() {
        // m slack bits with the trimmed last coefficient reach exactly
        // 0..=C, never more.
        for c in 1u64..40 {
            let m = slack_bit_count(c);
            let coeffs: Vec<u64> = (0..m).map(|j| slack_coeff(j, m, c as f64) as u64).collect();
            let mut reachable = std::collections::HashSet::new();
            for mask in 0u64..(1 << m) {
                let sum: u64 = (0..m)
                    .filter(|&j| mask >> j & 1 == 1)
                    .map(|j| coeffs[j])
                    .sum();
                reachable.insert(sum);
            }
            assert!(
                (0..=c).all(|s| reachable.contains(&s)),
                "capacity {c}: slack coeffs {coeffs:?} miss a value"
            );
            assert!(
                reachable.iter().all(|&s| s <= c),
                "capacity {c}: slack coeffs {coeffs:?} overshoot"
            );
        }
    }

    #[test]
    fn feasibility_and_fitness() {
        let k = small();
        let pad = |items: &[u8]| {
            let mut x = items.to_vec();
            x.resize(k.num_vars(), 0);
            x
        };
        assert!(k.is_feasible(&pad(&[1, 1, 0])));
        assert_eq!(k.fitness(&pad(&[1, 1, 0])), Some(-16.0));
        assert!(!k.is_feasible(&pad(&[1, 1, 1]))); // weight 6 > 5
        assert_eq!(k.fitness(&pad(&[1, 1, 1])), None);
    }

    #[test]
    fn qubo_matches_fitness_with_witnessing_slack() {
        let k = small();
        // Select items 1+2 (weight 5 = capacity): slack must encode 0.
        let mut x = vec![0u8, 1, 1];
        x.resize(k.num_vars(), 0);
        let q = k.to_qubo(4.2);
        assert!((q.energy(&x) - k.fitness(&x).unwrap()).abs() < 1e-9);
        // Select item 0 only (weight 1, slack 4 = 100b with coeffs 1,2,2).
        let mut y = vec![1u8, 0, 0];
        y.resize(k.num_vars(), 0);
        // Find a slack witness by brute force.
        let m = k.slack_bits();
        let witness = (0u64..(1 << m)).find(|mask| {
            let slack: f64 = (0..m)
                .filter(|&j| mask >> j & 1 == 1)
                .map(|j| slack_coeff(j, m, k.capacity()))
                .sum();
            (k.total_weight(&y) + slack - k.capacity()).abs() < 1e-9
        });
        let mask = witness.expect("slack range covers every residual");
        for j in 0..m {
            y[3 + j] = (mask >> j & 1) as u8;
        }
        assert!((q.energy(&y) - k.fitness(&y).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn random_deterministic() {
        let a = KnapsackInstance::random("k", 15, 3);
        let b = KnapsackInstance::random("k", 15, 3);
        assert_eq!(a, b);
        let c = KnapsackInstance::random("k", 15, 4);
        assert_ne!(a, c);
    }
}
