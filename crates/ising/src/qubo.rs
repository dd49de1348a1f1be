//! Quadratic Unconstrained Binary Optimization (QUBO) form and the exact
//! QUBO ↔ Ising equivalence (`σ_i = 1 − 2 x_i`, paper Sec. 2.1).

use serde::{Deserialize, Serialize};

use crate::coupling::{CsrCoupling, IsingModel};
use crate::error::IsingError;
use crate::problems::{CopProblem, ObjectiveSense};
use crate::spin::SpinVector;

/// A QUBO instance: minimize `xᵀQx` over `x ∈ {0,1}ⁿ`, with `Q` upper
/// triangular (diagonal entries are the linear coefficients since `x² = x`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Qubo {
    n: usize,
    /// Upper-triangular entries `(i, j, q)` with `i <= j`.
    entries: Vec<(usize, usize, f64)>,
}

impl Qubo {
    /// Empty QUBO over `n` variables.
    pub fn new(n: usize) -> Qubo {
        Qubo {
            n,
            entries: Vec::new(),
        }
    }

    /// Number of binary variables.
    pub fn dimension(&self) -> usize {
        self.n
    }

    /// Stored (upper-triangular) entries.
    pub fn entries(&self) -> &[(usize, usize, f64)] {
        &self.entries
    }

    /// Add `q·x_i·x_j` (or `q·x_i` when `i == j`) to the objective.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or `q` is not finite.
    pub fn add_term(&mut self, i: usize, j: usize, q: f64) {
        assert!(i < self.n && j < self.n, "index out of range");
        assert!(q.is_finite(), "coefficient must be finite");
        let (a, b) = if i <= j { (i, j) } else { (j, i) };
        self.entries.push((a, b, q));
    }

    /// Objective value `xᵀQx` for a binary assignment.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n` or any entry is not 0/1.
    pub fn evaluate(&self, x: &[u8]) -> f64 {
        assert_eq!(x.len(), self.n, "dimension mismatch");
        assert!(x.iter().all(|&b| b <= 1), "entries must be binary");
        self.entries
            .iter()
            .map(|&(i, j, q)| q * (x[i] * x[j]) as f64)
            .sum()
    }

    /// Exact conversion to an Ising model via `x_i = (1 − σ_i)/2`.
    ///
    /// The returned model satisfies
    /// `model.energy(σ) == self.evaluate(x(σ))` for all assignments
    /// (offset included).
    ///
    /// # Errors
    ///
    /// [`IsingError::InvalidProblem`] when a field or the offset
    /// overflows to a non-finite value (finite coefficients near
    /// `f64::MAX` can sum past it), and [`IsingError::NonFiniteCoupling`]
    /// when a pair's coupling does.
    pub fn to_ising(&self) -> Result<IsingModel, IsingError> {
        // q x_i x_j = q (1-σi)(1-σj)/4 = q/4 (1 - σi - σj + σiσj)
        // q x_i     = q (1-σi)/2
        let mut offset = 0.0;
        let mut fields = vec![0.0; self.n];
        let mut quad: Vec<(usize, usize, f64)> = Vec::with_capacity(self.entries.len());
        for &(i, j, q) in &self.entries {
            if i == j {
                offset += q / 2.0;
                fields[i] -= q / 2.0;
            } else {
                offset += q / 4.0;
                fields[i] -= q / 4.0;
                fields[j] -= q / 4.0;
                quad.push((i, j, q / 4.0));
            }
        }
        // A stable sort keeps the terms of each pair in input order; each
        // pair's sum folds from 0.0 in that order, compacted in place.
        quad.sort_by_key(|&(i, j, _)| (i, j));
        let mut pairs = 0usize;
        for k in 0..quad.len() {
            let (i, j, q) = quad[k];
            if pairs > 0 && (quad[pairs - 1].0, quad[pairs - 1].1) == (i, j) {
                quad[pairs - 1].2 += q;
            } else {
                quad[pairs] = (i, j, 0.0 + q);
                pairs += 1;
            }
        }
        quad.truncate(pairs);
        quad.retain(|&(_, _, v)| v != 0.0);
        // σᵀJσ counts each pair twice, so J_ij = coeff/2.
        for (_, _, v) in &mut quad {
            *v /= 2.0;
        }
        if let Some(i) = fields.iter().position(|h| !h.is_finite()) {
            return Err(IsingError::InvalidProblem(format!(
                "QUBO field h[{i}] overflows to a non-finite value"
            )));
        }
        if !offset.is_finite() {
            return Err(IsingError::InvalidProblem(
                "QUBO energy offset overflows to a non-finite value".into(),
            ));
        }
        let triplets = quad;
        let couplings = CsrCoupling::from_triplets(self.n, &triplets)?;
        let mut model = IsingModel::with_fields(couplings, fields)?;
        model.set_offset(offset);
        Ok(model)
    }

    /// Decode an Ising configuration back to the binary assignment.
    pub fn decode(&self, spins: &SpinVector) -> Vec<u8> {
        spins.to_binaries()
    }

    /// Build from a full square coefficient matrix `q` (row-major):
    /// `q[i][j] + q[j][i]` weights the pair `x_i·x_j` and diagonal
    /// entries are the linear terms — the raw-payload wire format of
    /// `fecim::ProblemSpec::Qubo`. Zero coefficients are dropped.
    ///
    /// # Errors
    ///
    /// [`IsingError::InvalidProblem`] for an empty matrix,
    /// [`IsingError::DimensionMismatch`] when a row's length differs
    /// from the row count (non-square), and
    /// [`IsingError::NonFiniteCoupling`] on NaN/infinite entries and on
    /// a pair sum `q[i][j] + q[j][i]` that overflows.
    pub fn from_matrix(q: &[Vec<f64>]) -> Result<Qubo, IsingError> {
        let n = q.len();
        if n == 0 {
            return Err(IsingError::InvalidProblem(
                "QUBO payload needs at least one variable".into(),
            ));
        }
        for (i, row) in q.iter().enumerate() {
            if row.len() != n {
                return Err(IsingError::DimensionMismatch {
                    expected: n,
                    found: row.len(),
                });
            }
            for (j, &v) in row.iter().enumerate() {
                if !v.is_finite() {
                    return Err(IsingError::NonFiniteCoupling { row: i, col: j });
                }
            }
        }
        let mut qubo = Qubo::new(n);
        for (i, row) in q.iter().enumerate() {
            if row[i] != 0.0 {
                qubo.add_term(i, i, row[i]);
            }
            for (j, &upper) in row.iter().enumerate().skip(i + 1) {
                let coeff = upper + q[j][i];
                if !coeff.is_finite() {
                    return Err(IsingError::NonFiniteCoupling { row: i, col: j });
                }
                if coeff != 0.0 {
                    qubo.add_term(i, j, coeff);
                }
            }
        }
        Ok(qubo)
    }
}

/// A QUBO is itself a solvable problem: the native objective is `xᵀQx`
/// under the binary decoding `x_i = (1 − σ_i)/2`, minimized, with no
/// hard constraints.
impl CopProblem for Qubo {
    fn spin_count(&self) -> usize {
        self.n
    }

    fn to_ising(&self) -> Result<IsingModel, IsingError> {
        Qubo::to_ising(self)
    }

    fn native_objective(&self, spins: &SpinVector) -> f64 {
        self.evaluate(&self.decode(spins))
    }

    fn objective_sense(&self) -> ObjectiveSense {
        ObjectiveSense::Minimize
    }

    fn is_feasible(&self, _spins: &SpinVector) -> bool {
        true
    }

    fn name(&self) -> &str {
        "qubo"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn exhaustive_check(qubo: &Qubo) {
        let model = qubo.to_ising().unwrap();
        let n = qubo.dimension();
        assert!(n <= 16, "exhaustive check only for small n");
        for bits in 0u32..(1 << n) {
            let x: Vec<u8> = (0..n).map(|i| ((bits >> i) & 1) as u8).collect();
            let spins = SpinVector::from_binaries(&x);
            let qv = qubo.evaluate(&x);
            let ev = model.energy(&spins);
            assert!(
                (qv - ev).abs() < 1e-9,
                "bits={bits:b}: qubo={qv} ising={ev}"
            );
        }
    }

    #[test]
    fn from_matrix_matches_explicit_terms() {
        // General (asymmetric) matrix: the pair weight is q_ij + q_ji.
        let q = Qubo::from_matrix(&[
            vec![2.0, 1.0, 0.0],
            vec![3.0, -1.0, 0.5],
            vec![0.0, 0.5, 0.0],
        ])
        .unwrap();
        let mut explicit = Qubo::new(3);
        explicit.add_term(0, 0, 2.0);
        explicit.add_term(0, 1, 4.0);
        explicit.add_term(1, 1, -1.0);
        explicit.add_term(1, 2, 1.0);
        for bits in 0u32..8 {
            let x: Vec<u8> = (0..3).map(|i| ((bits >> i) & 1) as u8).collect();
            assert_eq!(q.evaluate(&x), explicit.evaluate(&x), "bits={bits:b}");
        }
        exhaustive_check(&q);
    }

    #[test]
    fn from_matrix_validation_errors() {
        assert!(matches!(
            Qubo::from_matrix(&[]),
            Err(IsingError::InvalidProblem(_))
        ));
        assert!(matches!(
            Qubo::from_matrix(&[vec![0.0, 1.0], vec![1.0]]),
            Err(IsingError::DimensionMismatch {
                expected: 2,
                found: 1
            })
        ));
        assert!(matches!(
            Qubo::from_matrix(&[vec![0.0, f64::INFINITY], vec![1.0, 0.0]]),
            Err(IsingError::NonFiniteCoupling { row: 0, col: 1 })
        ));
    }

    #[test]
    fn overflowing_sums_are_typed_errors() {
        // Finite entries whose pair sum overflows.
        assert_eq!(
            Qubo::from_matrix(&[vec![0.0, 1e308], vec![1e308, 0.0]]),
            Err(IsingError::NonFiniteCoupling { row: 0, col: 1 })
        );
        // Ten diagonal terms of 1e308 sum the offset past f64::MAX.
        let diagonal: Vec<Vec<f64>> = (0..10)
            .map(|i| (0..10).map(|j| if i == j { 1e308 } else { 0.0 }).collect())
            .collect();
        let q = Qubo::from_matrix(&diagonal).unwrap();
        assert!(
            matches!(q.to_ising(), Err(IsingError::InvalidProblem(msg)) if msg.contains("offset")),
            "{:?}",
            q.to_ising()
        );
        // Repeated pair terms overflow h[0] while negative diagonal terms
        // on a third variable keep the offset finite.
        let mut q = Qubo::new(3);
        for pair in [false, true, true, false, true, true, true] {
            if pair {
                q.add_term(0, 1, f64::MAX);
            } else {
                q.add_term(2, 2, -f64::MAX);
            }
        }
        assert!(
            matches!(q.to_ising(), Err(IsingError::InvalidProblem(msg)) if msg.contains("h[0]")),
            "{:?}",
            q.to_ising()
        );
    }

    #[test]
    fn qubo_is_a_cop_problem() {
        let q = Qubo::from_matrix(&[vec![-1.0, 2.0], vec![0.0, -1.0]]).unwrap();
        assert_eq!(CopProblem::spin_count(&q), 2);
        assert_eq!(q.objective_sense(), ObjectiveSense::Minimize);
        assert_eq!(q.name(), "qubo");
        let model = CopProblem::to_ising(&q).unwrap();
        // The native objective of a configuration is its decoded xᵀQx —
        // which the exact QUBO↔Ising equivalence says equals the energy.
        for bits in 0u32..4 {
            let x: Vec<u8> = (0..2).map(|i| ((bits >> i) & 1) as u8).collect();
            let spins = SpinVector::from_binaries(&x);
            assert!((q.native_objective(&spins) - model.energy(&spins)).abs() < 1e-12);
            assert!(q.is_feasible(&spins));
        }
    }

    #[test]
    fn linear_only_conversion() {
        let mut q = Qubo::new(3);
        q.add_term(0, 0, 2.0);
        q.add_term(1, 1, -1.0);
        exhaustive_check(&q);
    }

    #[test]
    fn quadratic_conversion() {
        let mut q = Qubo::new(4);
        q.add_term(0, 1, 1.0);
        q.add_term(2, 3, -3.0);
        q.add_term(0, 3, 0.5);
        exhaustive_check(&q);
    }

    #[test]
    fn mixed_random_conversion() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..5 {
            let n = 8;
            let mut q = Qubo::new(n);
            for i in 0..n {
                for j in i..n {
                    if rng.gen::<f64>() < 0.4 {
                        q.add_term(i, j, rng.gen_range(-2.0..2.0));
                    }
                }
            }
            exhaustive_check(&q);
        }
    }

    #[test]
    fn add_term_normalizes_order() {
        let mut q = Qubo::new(3);
        q.add_term(2, 0, 1.5);
        assert_eq!(q.entries()[0], (0, 2, 1.5));
    }

    #[test]
    fn evaluate_counts_terms_once() {
        let mut q = Qubo::new(2);
        q.add_term(0, 1, 3.0);
        assert_eq!(q.evaluate(&[1, 1]), 3.0);
        assert_eq!(q.evaluate(&[1, 0]), 0.0);
    }

    #[test]
    fn decode_matches_binary_convention() {
        let q = Qubo::new(2);
        let s = SpinVector::from_signs(&[1, -1]);
        assert_eq!(q.decode(&s), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_term_rejects_out_of_range() {
        let mut q = Qubo::new(2);
        q.add_term(0, 2, 1.0);
    }
}
