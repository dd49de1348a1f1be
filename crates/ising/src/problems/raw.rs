//! Raw Ising payloads: a problem that *is* its Hamiltonian.
//!
//! Network clients of the job API don't always have a named generator or
//! a COP encoding — often they hold `h` and `J` directly (produced by an
//! external modeling layer). [`RawIsing`] wraps such a payload behind
//! [`CopProblem`], so the whole solver/session/scheduler machinery
//! applies unchanged: the native objective is the Ising energy itself,
//! minimized, with no hard constraints.

use serde::{Deserialize, Serialize};

use crate::coupling::{CsrCoupling, DenseCoupling, IsingModel};
use crate::error::IsingError;
use crate::problems::{CopProblem, ObjectiveSense};
use crate::spin::SpinVector;

/// A raw Ising instance `H(σ) = σᵀJσ + hᵀσ`, built from wire-format
/// payloads (`fecim::ProblemSpec::Ising`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RawIsing {
    model: IsingModel,
}

impl RawIsing {
    /// Build from linear fields `h` (length `n`) and a symmetric
    /// zero-diagonal coupling matrix `j` (`n×n`, row-major).
    ///
    /// # Errors
    ///
    /// [`IsingError::InvalidProblem`] for an empty payload or non-finite
    /// fields; [`IsingError::DimensionMismatch`] when `j` is not `n×n`
    /// for `n = h.len()`; [`IsingError::NotSymmetric`] /
    /// [`IsingError::NonFiniteCoupling`] on invalid couplings (a nonzero
    /// diagonal is rejected — carry linear terms in `h`).
    pub fn new(h: Vec<f64>, j: &[Vec<f64>]) -> Result<RawIsing, IsingError> {
        let n = h.len();
        if n == 0 {
            return Err(IsingError::InvalidProblem(
                "Ising payload needs at least one spin".into(),
            ));
        }
        if let Some(pos) = h.iter().position(|v| !v.is_finite()) {
            return Err(IsingError::InvalidProblem(format!(
                "non-finite field h[{pos}]"
            )));
        }
        if j.len() != n {
            return Err(IsingError::DimensionMismatch {
                expected: n,
                found: j.len(),
            });
        }
        for row in j {
            if row.len() != n {
                return Err(IsingError::DimensionMismatch {
                    expected: n,
                    found: row.len(),
                });
            }
        }
        let flat: Vec<f64> = j.iter().flatten().copied().collect();
        let dense = DenseCoupling::from_rows(n, &flat)?;
        let couplings = CsrCoupling::from_dense(&dense);
        let model = IsingModel::with_fields(couplings, h)?;
        Ok(RawIsing { model })
    }

    /// The wrapped Hamiltonian.
    pub fn model(&self) -> &IsingModel {
        &self.model
    }
}

impl CopProblem for RawIsing {
    fn spin_count(&self) -> usize {
        self.model.dimension()
    }

    fn to_ising(&self) -> Result<IsingModel, IsingError> {
        Ok(self.model.clone())
    }

    /// The native objective of a raw model is its energy (lower is
    /// better) — normalized scoring against a reference energy works the
    /// same way it does for encoded problems.
    fn native_objective(&self, spins: &SpinVector) -> f64 {
        self.model.energy(spins)
    }

    fn objective_sense(&self) -> ObjectiveSense {
        ObjectiveSense::Minimize
    }

    fn is_feasible(&self, _spins: &SpinVector) -> bool {
        true
    }

    fn name(&self) -> &str {
        "raw-ising"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_j(n: usize, w: f64) -> Vec<Vec<f64>> {
        let mut j = vec![vec![0.0; n]; n];
        for (i, k) in (0..n).map(|i| (i, (i + 1) % n)) {
            j[i][k] = w;
            j[k][i] = w;
        }
        j
    }

    #[test]
    fn objective_is_the_model_energy() {
        let raw = RawIsing::new(vec![0.5, -0.5, 0.0, 0.0], &ring_j(4, 1.0)).unwrap();
        let spins = SpinVector::from_signs(&[1, -1, 1, -1]);
        let model = raw.model().clone();
        assert_eq!(raw.native_objective(&spins), model.energy(&spins));
        assert_eq!(raw.spin_count(), 4);
        assert!(raw.is_feasible(&spins));
        assert_eq!(raw.objective_sense(), ObjectiveSense::Minimize);
        let rebuilt = CopProblem::to_ising(&raw).unwrap();
        assert_eq!(rebuilt.energy(&spins), model.energy(&spins));
    }

    #[test]
    fn payload_validation_errors() {
        assert!(matches!(
            RawIsing::new(vec![], &[]),
            Err(IsingError::InvalidProblem(_))
        ));
        assert!(matches!(
            RawIsing::new(vec![0.0; 3], &ring_j(4, 1.0)),
            Err(IsingError::DimensionMismatch {
                expected: 3,
                found: 4
            })
        ));
        let mut ragged = ring_j(3, 1.0);
        ragged[1].pop();
        assert!(matches!(
            RawIsing::new(vec![0.0; 3], &ragged),
            Err(IsingError::DimensionMismatch { .. })
        ));
        let mut asym = ring_j(3, 1.0);
        asym[0][1] = 2.0;
        assert!(matches!(
            RawIsing::new(vec![0.0; 3], &asym),
            Err(IsingError::NotSymmetric { .. })
        ));
        assert!(matches!(
            RawIsing::new(vec![f64::NAN, 0.0], &ring_j(2, 1.0)),
            Err(IsingError::InvalidProblem(_))
        ));
        let mut diag = ring_j(3, 1.0);
        diag[2][2] = 1.0;
        assert!(matches!(
            RawIsing::new(vec![0.0; 3], &diag),
            Err(IsingError::InvalidProblem(_))
        ));
    }

    #[test]
    fn serde_roundtrip() {
        let raw = RawIsing::new(vec![0.25, 0.0, -1.0], &ring_j(3, -0.5)).unwrap();
        let json = serde_json::to_string(&raw).unwrap();
        let back: RawIsing = serde_json::from_str(&json).unwrap();
        assert_eq!(back, raw);
    }
}
