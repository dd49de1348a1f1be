//! Number partitioning: split a multiset of numbers into two groups with
//! minimal sum difference. The simplest nontrivial COP→Ising mapping:
//! `E = (Σ a_i σ_i)²` up to a constant, i.e. `J_ij = a_i a_j`.

use serde::{Deserialize, Serialize};

use crate::coupling::{CsrCoupling, IsingModel};
use crate::error::IsingError;
use crate::problems::{CopProblem, ObjectiveSense};
use crate::spin::SpinVector;

/// A number-partitioning instance.
///
/// # Examples
///
/// ```
/// use fecim_ising::{CopProblem, NumberPartitioning, SpinVector};
/// let p = NumberPartitioning::new(vec![3.0, 1.0, 1.0, 2.0, 2.0, 1.0])?;
/// // Perfect partition: {3,2} vs {1,1,2,1}.
/// let s = SpinVector::from_signs(&[1, -1, -1, 1, -1, -1]);
/// assert_eq!(p.native_objective(&s), 0.0);
/// # Ok::<(), fecim_ising::IsingError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NumberPartitioning {
    numbers: Vec<f64>,
}

impl NumberPartitioning {
    /// Build from the numbers to partition.
    ///
    /// # Errors
    ///
    /// [`IsingError::InvalidProblem`] if empty or any number is not finite
    /// and strictly positive.
    pub fn new(numbers: Vec<f64>) -> Result<NumberPartitioning, IsingError> {
        if numbers.is_empty() {
            return Err(IsingError::InvalidProblem("empty number set".into()));
        }
        if numbers.iter().any(|a| !a.is_finite() || *a <= 0.0) {
            return Err(IsingError::InvalidProblem(
                "numbers must be finite and positive".into(),
            ));
        }
        Ok(NumberPartitioning { numbers })
    }

    /// The numbers being partitioned.
    pub fn numbers(&self) -> &[f64] {
        &self.numbers
    }

    /// Absolute difference of the two group sums under `spins`.
    fn imbalance(&self, spins: &SpinVector) -> f64 {
        assert_eq!(spins.len(), self.numbers.len(), "dimension mismatch");
        self.numbers
            .iter()
            .zip(spins.iter())
            .map(|(&a, s)| a * s as f64)
            .sum::<f64>()
            .abs()
    }
}

impl CopProblem for NumberPartitioning {
    fn spin_count(&self) -> usize {
        self.numbers.len()
    }

    fn to_ising(&self) -> Result<IsingModel, IsingError> {
        let n = self.numbers.len();
        let mut triplets = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                triplets.push((i, j, self.numbers[i] * self.numbers[j]));
            }
        }
        let couplings = CsrCoupling::from_triplets(n, &triplets)?;
        let mut model = IsingModel::new(couplings);
        // σᵀJσ = (Σ a_i σ_i)² − Σ a_i²; add the constant back so that
        // energy == imbalance².
        model.set_offset(self.numbers.iter().map(|a| a * a).sum());
        Ok(model)
    }

    fn native_objective(&self, spins: &SpinVector) -> f64 {
        self.imbalance(spins)
    }

    fn objective_sense(&self) -> ObjectiveSense {
        ObjectiveSense::Minimize
    }

    fn is_feasible(&self, _spins: &SpinVector) -> bool {
        true
    }

    fn name(&self) -> &str {
        "number-partitioning"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_equals_imbalance_squared() {
        let p = NumberPartitioning::new(vec![4.0, 5.0, 6.0, 7.0, 8.0]).unwrap();
        let model = p.to_ising().unwrap();
        for bits in 0u32..32 {
            let spins: SpinVector = (0..5)
                .map(|i| if (bits >> i) & 1 == 1 { 1i8 } else { -1 })
                .collect();
            let d = p.imbalance(&spins);
            assert!((model.energy(&spins) - d * d).abs() < 1e-9, "bits={bits:b}");
        }
    }

    #[test]
    fn perfect_partition_is_ground_state() {
        let p = NumberPartitioning::new(vec![1.0, 2.0, 3.0]).unwrap();
        let model = p.to_ising().unwrap();
        // {3} vs {1,2}: imbalance 0.
        let s = SpinVector::from_signs(&[-1, -1, 1]);
        assert_eq!(p.imbalance(&s), 0.0);
        assert!(model.energy(&s).abs() < 1e-9);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(NumberPartitioning::new(vec![]).is_err());
        assert!(NumberPartitioning::new(vec![1.0, -2.0]).is_err());
        assert!(NumberPartitioning::new(vec![f64::NAN]).is_err());
    }

    #[test]
    fn sense_is_minimize() {
        let p = NumberPartitioning::new(vec![1.0, 1.0]).unwrap();
        assert_eq!(p.objective_sense(), ObjectiveSense::Minimize);
        assert_eq!(p.name(), "number-partitioning");
    }
}
