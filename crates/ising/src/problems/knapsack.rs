//! 0/1 knapsack as a slack-variable QUBO (Lucas 2014 encoding), one of the
//! COP classes in the paper's Table 1 (refs [13], [15] solve knapsack on
//! CiM annealers).

use serde::{Deserialize, Serialize};

use crate::coupling::IsingModel;
use crate::error::IsingError;
use crate::problems::{CopProblem, ObjectiveSense};
use crate::qubo::Qubo;
use crate::spin::SpinVector;

/// A 0/1 knapsack instance: maximize total value subject to a weight
/// capacity.
///
/// Spin layout: item variables `x_0..x_n`, then slack bits encoding the
/// unused capacity `0..=capacity` in binary (bounded encoding), so that the
/// constraint becomes the equality `Σ w_i x_i + slack = capacity`, enforced
/// with a quadratic penalty.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Knapsack {
    values: Vec<u64>,
    weights: Vec<u64>,
    capacity: u64,
    slack_coeffs: Vec<u64>,
    penalty: f64,
}

impl Knapsack {
    /// Build an instance.
    ///
    /// The default constraint penalty is `2 · max(value)`, large enough that
    /// dropping an item is always preferable to violating the capacity.
    ///
    /// # Errors
    ///
    /// [`IsingError::InvalidProblem`] on empty items, mismatched lengths, or
    /// zero weights/capacity.
    pub fn new(values: Vec<u64>, weights: Vec<u64>, capacity: u64) -> Result<Knapsack, IsingError> {
        if values.is_empty() {
            return Err(IsingError::InvalidProblem("no items".into()));
        }
        if values.len() != weights.len() {
            return Err(IsingError::InvalidProblem(format!(
                "{} values vs {} weights",
                values.len(),
                weights.len()
            )));
        }
        if capacity == 0 {
            return Err(IsingError::InvalidProblem(
                "capacity must be positive".into(),
            ));
        }
        if weights.contains(&0) {
            return Err(IsingError::InvalidProblem(
                "weights must be positive".into(),
            ));
        }
        // Bounded binary encoding of slack ∈ [0, capacity]:
        // powers of two then one residual coefficient.
        let mut slack_coeffs = Vec::new();
        let mut covered = 0u64;
        let mut bit = 1u64;
        while covered + bit <= capacity {
            slack_coeffs.push(bit);
            covered += bit;
            bit <<= 1;
        }
        if covered < capacity {
            slack_coeffs.push(capacity - covered);
        }
        // audit:allow(panic-path): empty `values` was rejected with IsingError a few lines above, so max() is always Some
        let penalty = 2.0 * (*values.iter().max().expect("nonempty") as f64).max(1.0);
        Ok(Knapsack {
            values,
            weights,
            capacity,
            slack_coeffs,
            penalty,
        })
    }

    /// Number of items.
    pub fn item_count(&self) -> usize {
        self.values.len()
    }

    /// Number of slack bits in the encoding.
    fn slack_bit_count(&self) -> usize {
        self.slack_coeffs.len()
    }

    /// The capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Selected items under `spins` (by the QUBO binary convention).
    pub fn selected_items(&self, spins: &SpinVector) -> Vec<usize> {
        let x = spins.to_binaries();
        (0..self.item_count()).filter(|&i| x[i] == 1).collect()
    }

    /// Total weight of the selection.
    pub fn selection_weight(&self, spins: &SpinVector) -> u64 {
        self.selected_items(spins)
            .iter()
            .map(|&i| self.weights[i])
            .sum()
    }

    /// Total value of the selection.
    fn selection_value(&self, spins: &SpinVector) -> u64 {
        self.selected_items(spins)
            .iter()
            .map(|&i| self.values[i])
            .sum()
    }

    /// Exact optimum by dynamic programming (for verifying annealer output
    /// on test-scale instances).
    pub fn optimal_value(&self) -> u64 {
        let cap = self.capacity as usize;
        let mut best = vec![0u64; cap + 1];
        for (i, &w) in self.weights.iter().enumerate() {
            let w = w as usize;
            for c in (w..=cap).rev() {
                best[c] = best[c].max(best[c - w] + self.values[i]);
            }
        }
        best[cap]
    }
}

impl CopProblem for Knapsack {
    fn spin_count(&self) -> usize {
        self.item_count() + self.slack_bit_count()
    }

    fn to_ising(&self) -> Result<IsingModel, IsingError> {
        let n = self.item_count();
        let total = self.spin_count();
        let mut qubo = Qubo::new(total);
        // Objective: −Σ v_i x_i (maximize value).
        for i in 0..n {
            qubo.add_term(i, i, -(self.values[i] as f64));
        }
        // Penalty: P (Σ w_i x_i + Σ s_k y_k − C)².
        // Expand with coefficient vector c over all variables.
        let coeff = |idx: usize| -> f64 {
            if idx < n {
                self.weights[idx] as f64
            } else {
                self.slack_coeffs[idx - n] as f64
            }
        };
        let p = self.penalty;
        let c = self.capacity as f64;
        for i in 0..total {
            let ci = coeff(i);
            // c_i² x_i² − 2C c_i x_i
            qubo.add_term(i, i, p * (ci * ci - 2.0 * c * ci));
            for j in (i + 1)..total {
                qubo.add_term(i, j, p * 2.0 * ci * coeff(j));
            }
        }
        let mut model = qubo.to_ising()?;
        model.set_offset(model.offset() + p * c * c);
        Ok(model)
    }

    fn native_objective(&self, spins: &SpinVector) -> f64 {
        if self.is_feasible(spins) {
            self.selection_value(spins) as f64
        } else {
            // Infeasible selections score zero (worse than any feasible one).
            0.0
        }
    }

    fn objective_sense(&self) -> ObjectiveSense {
        ObjectiveSense::Maximize
    }

    fn is_feasible(&self, spins: &SpinVector) -> bool {
        self.selection_weight(spins) <= self.capacity
    }

    fn name(&self) -> &str {
        "knapsack"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Knapsack {
        Knapsack::new(vec![10, 13, 7, 8], vec![3, 4, 2, 3], 7).unwrap()
    }

    #[test]
    fn slack_encoding_covers_capacity_exactly() {
        for cap in 1u64..=40 {
            let k = Knapsack::new(vec![1], vec![1], cap).unwrap();
            // All subset sums of slack coefficients must cover 0..=cap and
            // never exceed cap.
            let mut sums = std::collections::BTreeSet::new();
            let m = k.slack_coeffs.len();
            for bits in 0u64..(1 << m) {
                let s: u64 = (0..m)
                    .filter(|&b| (bits >> b) & 1 == 1)
                    .map(|b| k.slack_coeffs[b])
                    .sum();
                sums.insert(s);
            }
            assert_eq!(*sums.iter().max().unwrap(), cap, "cap={cap}");
            for v in 0..=cap {
                assert!(sums.contains(&v), "cap={cap} missing slack {v}");
            }
        }
    }

    #[test]
    fn dp_optimum_is_correct_on_known_instance() {
        // Items (v,w): (10,3) (13,4) (7,2) (8,3), cap 7 → best is 13+7 = 20
        // via items 1 and 2 (w=6) or 10+7=17... check: item0+item1 w=7 v=23.
        let k = small();
        assert_eq!(k.optimal_value(), 23);
    }

    #[test]
    fn ising_ground_state_matches_dp_optimum() {
        let k = small();
        let model = k.to_ising().unwrap();
        let total = k.spin_count();
        assert!(total <= 20);
        let mut best_e = f64::INFINITY;
        let mut best_value = 0u64;
        for bits in 0u64..(1 << total) {
            let x: Vec<u8> = (0..total).map(|i| ((bits >> i) & 1) as u8).collect();
            let s = SpinVector::from_binaries(&x);
            let e = model.energy(&s);
            if e < best_e {
                best_e = e;
                best_value = if k.is_feasible(&s) {
                    k.selection_value(&s)
                } else {
                    0
                };
            }
        }
        assert_eq!(best_value, k.optimal_value());
    }

    #[test]
    fn feasibility_and_objective() {
        let k = small();
        // Select items 0 and 1: weight 7 == capacity, feasible, value 23.
        let mut bits = vec![0u8; k.spin_count()];
        bits[0] = 1;
        bits[1] = 1;
        let s = SpinVector::from_binaries(&bits);
        assert!(k.is_feasible(&s));
        assert_eq!(k.native_objective(&s), 23.0);
        // Overweight selection is infeasible and scores 0.
        bits[2] = 1;
        let s = SpinVector::from_binaries(&bits);
        assert!(!k.is_feasible(&s));
        assert_eq!(k.native_objective(&s), 0.0);
    }

    #[test]
    fn constructor_validation() {
        assert!(Knapsack::new(vec![], vec![], 5).is_err());
        assert!(Knapsack::new(vec![1], vec![1, 2], 5).is_err());
        assert!(Knapsack::new(vec![1], vec![0], 5).is_err());
        assert!(Knapsack::new(vec![1], vec![1], 0).is_err());
    }
}
