//! Sherrington–Kirkpatrick (SK) spin-glass instances: fully connected
//! Gaussian couplings `J_ij ~ N(0, 1/n)`. The canonical hard Ising
//! benchmark beyond graph problems; its ground-state energy density
//! approaches the Parisi constant ≈ −0.7632 per spin for large `n`,
//! which the tests use as a sanity anchor.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::coupling::{CsrCoupling, IsingModel};
use crate::error::IsingError;
use crate::problems::{CopProblem, ObjectiveSense};
use crate::spin::SpinVector;

/// A Sherrington–Kirkpatrick spin-glass instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SherringtonKirkpatrick {
    n: usize,
    seed: u64,
    couplings: Vec<(usize, usize, f64)>,
}

impl SherringtonKirkpatrick {
    /// Draw an instance with `J_ij ~ N(0, 1/n)` for all pairs.
    ///
    /// # Errors
    ///
    /// [`IsingError::InvalidProblem`] if `n < 2`.
    pub fn new(n: usize, seed: u64) -> Result<SherringtonKirkpatrick, IsingError> {
        if n < 2 {
            return Err(IsingError::InvalidProblem("need at least two spins".into()));
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let sigma = 1.0 / (n as f64).sqrt();
        let mut couplings = Vec::with_capacity(n * (n - 1) / 2);
        for i in 0..n {
            for j in (i + 1)..n {
                // Box–Muller.
                let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                let u2: f64 = rng.gen();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                couplings.push((i, j, z * sigma));
            }
        }
        Ok(SherringtonKirkpatrick { n, seed, couplings })
    }

    /// Number of spins.
    pub fn spin_count(&self) -> usize {
        self.n
    }

    /// The generator seed (instances are fully reproducible).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Energy density `E/n` of a configuration under the SK normalization
    /// (where `σᵀJσ` counts each pair twice).
    fn energy_density(&self, spins: &SpinVector) -> f64 {
        // audit:allow(panic-path): the generator emits finite off-diagonal couplings over 0..n, so to_ising's validation cannot fail
        let model = self.to_ising().expect("valid by construction");
        model.energy(spins) / self.n as f64
    }
}

impl CopProblem for SherringtonKirkpatrick {
    fn spin_count(&self) -> usize {
        self.n
    }

    fn to_ising(&self) -> Result<IsingModel, IsingError> {
        // σᵀJσ counts pairs twice; halve so the Hamiltonian is Σ_{i<j}.
        let triplets: Vec<(usize, usize, f64)> = self
            .couplings
            .iter()
            .map(|&(i, j, v)| (i, j, v / 2.0))
            .collect();
        Ok(IsingModel::new(CsrCoupling::from_triplets(
            self.n, &triplets,
        )?))
    }

    fn native_objective(&self, spins: &SpinVector) -> f64 {
        self.energy_density(spins)
    }

    fn objective_sense(&self) -> ObjectiveSense {
        ObjectiveSense::Minimize
    }

    fn is_feasible(&self, _spins: &SpinVector) -> bool {
        true
    }

    fn name(&self) -> &str {
        "sherrington-kirkpatrick"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coupling::Coupling;

    #[test]
    fn instances_are_reproducible() {
        let a = SherringtonKirkpatrick::new(30, 5).unwrap();
        let b = SherringtonKirkpatrick::new(30, 5).unwrap();
        assert_eq!(a, b);
        let c = SherringtonKirkpatrick::new(30, 6).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn coupling_scale_follows_one_over_sqrt_n() {
        let sk = SherringtonKirkpatrick::new(100, 1).unwrap();
        let model = sk.to_ising().unwrap();
        let mut sum_sq = 0.0;
        let mut count = 0;
        for i in 0..100 {
            model.couplings().for_each_in_row(i, |_, v| {
                sum_sq += (2.0 * v) * (2.0 * v); // undo the pair-halving
                count += 1;
            });
        }
        let var = sum_sq / count as f64;
        // Var(J) = 1/n = 0.01.
        assert!((var - 0.01).abs() < 0.003, "var={var}");
    }

    #[test]
    fn random_configuration_has_near_zero_density() {
        let sk = SherringtonKirkpatrick::new(200, 2).unwrap();
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let s = SpinVector::random(200, &mut rng);
        // E[E/n] = 0, sd ~ 1/sqrt(2n) per spin.
        assert!(sk.energy_density(&s).abs() < 0.3);
    }

    #[test]
    fn greedy_descent_approaches_parisi_band() {
        // A quick local search should reach densities well below −0.6
        // (Parisi optimum ≈ −0.763; 1-opt typically lands ≈ −0.7).
        let sk = SherringtonKirkpatrick::new(150, 4).unwrap();
        let model = sk.to_ising().unwrap();
        let j = model.couplings();
        use crate::energy::LocalFieldState;
        use crate::spin::FlipMask;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut state = LocalFieldState::new(j, SpinVector::random(150, &mut rng));
        loop {
            let mut best = (0.0, None);
            for i in 0..150 {
                let gain = -4.0 * state.spins().get(i) as f64 * state.field(i);
                if gain < best.0 - 1e-12 {
                    best = (gain, Some(i));
                }
            }
            match best.1 {
                Some(i) => {
                    state.apply(&FlipMask::single(i, 150));
                }
                None => break,
            }
        }
        let density = state.energy() / 150.0;
        assert!(density < -0.55, "density={density}");
        assert!(density > -0.85, "density={density} below Parisi bound");
    }

    #[test]
    fn rejects_tiny_instances() {
        assert!(SherringtonKirkpatrick::new(1, 0).is_err());
    }
}
