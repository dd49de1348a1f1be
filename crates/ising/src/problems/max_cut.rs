//! Max-Cut, the representative COP of the paper's evaluation (Sec. 4).
//!
//! Mapping: for an edge-weighted graph `(V, E, w)`,
//! `cut(σ) = Σ_{(i,j)∈E} w_ij (1 − σ_i σ_j)/2`. With `J = W/4` (so that
//! `σᵀJσ = Σ_{(i,j)∈E} w_ij σ_i σ_j / 2`),
//! `cut(σ) = W_total/2 − σᵀJσ`: maximizing the cut is exactly minimizing the
//! Ising energy.

use serde::{Deserialize, Serialize};

use crate::coupling::{CsrCoupling, IsingModel};
use crate::error::IsingError;
use crate::problems::{CopProblem, ObjectiveSense};
use crate::spin::SpinVector;

/// A Max-Cut instance over an undirected edge list.
///
/// # Examples
///
/// ```
/// use fecim_ising::{CopProblem, MaxCut, SpinVector};
/// // A triangle with unit weights: best cut value is 2.
/// let mc = MaxCut::new(3, vec![(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])?;
/// let s = SpinVector::from_signs(&[1, -1, 1]);
/// assert_eq!(mc.cut_value(&s), 2.0);
/// let model = mc.to_ising()?;
/// assert_eq!(model.dimension(), 3);
/// # Ok::<(), fecim_ising::IsingError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MaxCut {
    n: usize,
    edges: Vec<(usize, usize, f64)>,
    total_weight: f64,
}

impl MaxCut {
    /// Build from a vertex count and undirected edge list.
    ///
    /// # Errors
    ///
    /// [`IsingError::IndexOutOfRange`] for endpoints `>= n`;
    /// [`IsingError::InvalidProblem`] for self-loops or non-finite weights.
    pub fn new(n: usize, edges: Vec<(usize, usize, f64)>) -> Result<MaxCut, IsingError> {
        let mut total = 0.0;
        for &(i, j, w) in &edges {
            if i >= n {
                return Err(IsingError::IndexOutOfRange {
                    index: i,
                    dimension: n,
                });
            }
            if j >= n {
                return Err(IsingError::IndexOutOfRange {
                    index: j,
                    dimension: n,
                });
            }
            if i == j {
                return Err(IsingError::InvalidProblem(format!(
                    "self-loop at vertex {i}"
                )));
            }
            if !w.is_finite() {
                return Err(IsingError::InvalidProblem(format!(
                    "non-finite weight on edge ({i}, {j})"
                )));
            }
            total += w;
        }
        Ok(MaxCut {
            n,
            edges,
            total_weight: total,
        })
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// The undirected edge list.
    pub fn edges(&self) -> &[(usize, usize, f64)] {
        &self.edges
    }

    /// Sum of all edge weights.
    pub fn total_weight(&self) -> f64 {
        self.total_weight
    }

    /// Cut weight of the partition induced by `spins`.
    ///
    /// # Panics
    ///
    /// Panics if `spins.len() != vertex_count()`.
    // audit:allow(dead-pub): COP diagnostic: proptest_invariants checks the Ising encoding against it
    pub fn cut_value(&self, spins: &SpinVector) -> f64 {
        assert_eq!(spins.len(), self.n, "dimension mismatch");
        self.edges
            .iter()
            .map(
                |&(i, j, w)| {
                    if spins.get(i) != spins.get(j) {
                        w
                    } else {
                        0.0
                    }
                },
            )
            .sum()
    }

    /// Recover the cut value from an Ising energy of the
    /// [`MaxCut::to_ising`] model: `cut = W_total/2 − E`.
    pub fn cut_from_energy(&self, energy: f64) -> f64 {
        self.total_weight / 2.0 - energy
    }

    /// The Ising energy corresponding to a given cut value (inverse of
    /// [`MaxCut::cut_from_energy`]).
    pub fn energy_from_cut(&self, cut: f64) -> f64 {
        self.total_weight / 2.0 - cut
    }
}

impl CopProblem for MaxCut {
    fn spin_count(&self) -> usize {
        self.n
    }

    fn to_ising(&self) -> Result<IsingModel, IsingError> {
        let triplets = self.edges.iter().map(|&(i, j, w)| (i, j, w / 4.0));
        let couplings = CsrCoupling::from_pairs(self.n, triplets)?;
        Ok(IsingModel::new(couplings))
    }

    fn native_objective(&self, spins: &SpinVector) -> f64 {
        self.cut_value(spins)
    }

    fn objective_sense(&self) -> ObjectiveSense {
        ObjectiveSense::Maximize
    }

    fn is_feasible(&self, _spins: &SpinVector) -> bool {
        true
    }

    fn name(&self) -> &str {
        "max-cut"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_instance(n: usize, p: f64, seed: u64) -> MaxCut {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen::<f64>() < p {
                    let w = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                    edges.push((i, j, w));
                }
            }
        }
        MaxCut::new(n, edges).unwrap()
    }

    #[test]
    fn triangle_cut_values() {
        let mc = MaxCut::new(3, vec![(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)]).unwrap();
        assert_eq!(mc.cut_value(&SpinVector::all_up(3)), 0.0);
        assert_eq!(mc.cut_value(&SpinVector::from_signs(&[1, -1, 1])), 2.0);
        assert_eq!(mc.total_weight(), 3.0);
    }

    #[test]
    fn energy_cut_duality_holds_for_all_configurations() {
        let mc = random_instance(10, 0.5, 77);
        let model = mc.to_ising().unwrap();
        let mut rng = StdRng::seed_from_u64(78);
        for _ in 0..50 {
            let s = SpinVector::random(10, &mut rng);
            let cut = mc.cut_value(&s);
            let e = model.energy(&s);
            assert!(
                (mc.cut_from_energy(e) - cut).abs() < 1e-9,
                "cut={cut} energy={e}"
            );
            assert!((mc.energy_from_cut(cut) - e).abs() < 1e-9);
        }
    }

    #[test]
    fn signed_weights_supported() {
        let mc = MaxCut::new(2, vec![(0, 1, -2.5)]).unwrap();
        assert_eq!(mc.cut_value(&SpinVector::from_signs(&[1, -1])), -2.5);
        assert_eq!(mc.cut_value(&SpinVector::all_up(2)), 0.0);
    }

    #[test]
    fn rejects_invalid_edges() {
        assert!(matches!(
            MaxCut::new(2, vec![(0, 2, 1.0)]),
            Err(IsingError::IndexOutOfRange { .. })
        ));
        assert!(matches!(
            MaxCut::new(2, vec![(1, 1, 1.0)]),
            Err(IsingError::InvalidProblem(_))
        ));
        assert!(matches!(
            MaxCut::new(2, vec![(0, 1, f64::INFINITY)]),
            Err(IsingError::InvalidProblem(_))
        ));
    }

    #[test]
    fn cop_problem_impl() {
        let mc = random_instance(6, 0.8, 79);
        assert_eq!(mc.spin_count(), 6);
        assert_eq!(mc.objective_sense(), ObjectiveSense::Maximize);
        assert!(mc.is_feasible(&SpinVector::all_up(6)));
        assert_eq!(mc.name(), "max-cut");
    }

    #[test]
    fn parallel_edges_accumulate() {
        // Two parallel unit edges behave as weight 2 both in cut and energy.
        let mc = MaxCut::new(2, vec![(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        let model = mc.to_ising().unwrap();
        let s = SpinVector::from_signs(&[1, -1]);
        assert_eq!(mc.cut_value(&s), 2.0);
        assert!((mc.cut_from_energy(model.energy(&s)) - 2.0).abs() < 1e-9);
    }
}
