//! A local-field cache for fast exact software annealing.
//!
//! The paper's Fig. 4/5 complexity claim — incremental-E senses
//! `(n − |F|)·|F|` cells per iteration where the direct VMV senses `n²` —
//! is pinned deterministically against the crossbar simulator by
//! `tests/tests/activity_model.rs`; the bilinear form itself is
//! [`Coupling::incremental_form`].
//!
//! [`LocalFieldState`] is the per-trial state of the exact engines, so its
//! setup is one pass: the local fields, then the energy `Σ σ_i·l_i` from
//! those fields (bit-equal to [`Coupling::energy`]). An engine that has
//! already queried `ΔE` for the proposal it accepts commits it with
//! [`LocalFieldState::apply_with_delta`] rather than evaluating it again.

use crate::coupling::Coupling;
use crate::spin::{FlipMask, SpinVector};

/// Incrementally-maintained local fields `l_i = Σ_j J_ij σ_j`, giving `O(deg)`
/// energy differences and `O(|F|·deg)` state updates.
///
/// This is the software-exact engine used for the baseline annealers and for
/// verifying the crossbar: it produces bit-identical energies to the direct
/// form while being fast enough for the paper's 10⁵-iteration runs.
///
/// # Examples
///
/// ```
/// use fecim_ising::{Coupling, CsrCoupling, FlipMask, LocalFieldState, SpinVector};
/// let j = CsrCoupling::from_triplets(3, &[(0, 1, 1.0), (1, 2, -0.5)])?;
/// let mut state = LocalFieldState::new(&j, SpinVector::all_up(3));
/// let mask = FlipMask::single(1, 3);
/// let de = state.delta_energy(&mask);
/// state.apply(&mask);
/// assert!((state.energy() - j.energy(state.spins())).abs() < 1e-12);
/// assert!((de - (-2.0)).abs() < 1e-12); // −4·σ₁·(J₁₀+J₁₂) = −4·0.5
/// # Ok::<(), fecim_ising::IsingError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LocalFieldState<'a, C: Coupling> {
    coupling: &'a C,
    spins: SpinVector,
    fields: Vec<f64>,
    energy: f64,
}

impl<'a, C: Coupling> LocalFieldState<'a, C> {
    /// Initialize from a coupling matrix and starting configuration.
    ///
    /// Cost: one `O(n²)` (dense) or `O(nnz)` (sparse) pass for the fields;
    /// the energy is then `Σ σ_i·l_i` over them in row order, the same
    /// float operations as [`Coupling::energy`] and so the same bits.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn new(coupling: &'a C, spins: SpinVector) -> LocalFieldState<'a, C> {
        assert_eq!(spins.len(), coupling.dimension(), "dimension mismatch");
        let mut state = LocalFieldState {
            coupling,
            spins,
            fields: Vec::new(),
            energy: 0.0,
        };
        state.rebuild();
        state
    }

    fn coupling(&self) -> &'a C {
        self.coupling
    }

    /// Current configuration.
    pub fn spins(&self) -> &SpinVector {
        &self.spins
    }

    /// Current energy `σᵀJσ` (maintained incrementally).
    pub fn energy(&self) -> f64 {
        self.energy
    }

    /// Current local field of spin `i`.
    pub fn field(&self, i: usize) -> f64 {
        self.fields[i]
    }

    /// Energy difference of flipping the spins in `mask`, without applying.
    ///
    /// `ΔE = Σ_{i∈F} −4 σ_i l_i + 4 Σ_{i<j ∈ F} J_ij σ_i σ_j·2` — the pair
    /// correction accounts for both flipped endpoints.
    pub fn delta_energy(&self, mask: &FlipMask) -> f64 {
        let idx = mask.indices();
        let mut de = 0.0;
        for &i in idx {
            de += -4.0 * self.spins.get(i) as f64 * self.fields[i];
        }
        // Pairs inside F flipped together leave their term unchanged, but the
        // local-field sum above subtracted both directions; add them back.
        for (a, &i) in idx.iter().enumerate() {
            for &j in idx.iter().skip(a + 1) {
                let jij = self.coupling().get(i, j);
                if jij != 0.0 {
                    de += 8.0 * jij * (self.spins.get(i) * self.spins.get(j)) as f64;
                }
            }
        }
        de
    }

    /// Apply the flips in `mask`, updating spins, fields and energy in
    /// `O(|F|·deg)`. Returns the energy difference that was applied.
    pub fn apply(&mut self, mask: &FlipMask) -> f64 {
        let de = self.delta_energy(mask);
        self.apply_with_delta(mask, de);
        de
    }

    /// [`LocalFieldState::apply`] for a caller that already holds
    /// `de = self.delta_energy(mask)` from querying the proposal: the same
    /// update without evaluating `ΔE` (and its pair lookups) twice.
    pub fn apply_with_delta(&mut self, mask: &FlipMask, de: f64) {
        let coupling = self.coupling;
        for &i in mask.indices() {
            let old = self.spins.get(i) as f64;
            self.spins.flip(i);
            // Neighbour fields see σ_i change by −2·old.
            let fields = &mut self.fields;
            coupling.for_each_in_row(i, |j, v| {
                fields[j] += v * (-2.0 * old);
            });
        }
        self.energy += de;
    }

    /// Recompute fields and energy from scratch (testing aid; also heals
    /// accumulated floating-point drift on very long runs).
    fn rebuild(&mut self) {
        self.fields = self.coupling().local_fields(&self.spins);
        let mut energy = 0.0;
        for (&si, &li) in self.spins.as_slice().iter().zip(&self.fields) {
            energy += si as f64 * li;
        }
        self.energy = energy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coupling::{CsrCoupling, DenseCoupling};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn local_field_state_tracks_energy_over_run() {
        let mut rng = StdRng::seed_from_u64(25);
        let dense = DenseCoupling::random(20, 0.4, 1.0, &mut rng);
        let csr = CsrCoupling::from_dense(&dense);
        let start = SpinVector::random(20, &mut rng);
        let mut state = LocalFieldState::new(&csr, start);
        for _ in 0..200 {
            let t = rng.gen_range(1..=3);
            let mask = FlipMask::random(t, 20, &mut rng);
            let predicted = state.delta_energy(&mask);
            let before = state.energy();
            let applied = state.apply(&mask);
            assert!((predicted - applied).abs() < 1e-9);
            assert!((state.energy() - (before + predicted)).abs() < 1e-9);
        }
        // Energy must agree with a from-scratch recomputation.
        let fresh = csr.energy(state.spins());
        assert!((state.energy() - fresh).abs() < 1e-6);
    }

    #[test]
    fn local_field_state_multi_flip_matches_direct() {
        let mut rng = StdRng::seed_from_u64(26);
        let dense = DenseCoupling::random(15, 0.7, 2.0, &mut rng);
        let csr = CsrCoupling::from_dense(&dense);
        let s = SpinVector::random(15, &mut rng);
        let state = LocalFieldState::new(&csr, s.clone());
        for t in 1..=15 {
            let mask = FlipMask::random(t, 15, &mut rng);
            let s_new = s.flipped_by(&mask);
            let direct = csr.energy(&s_new) - csr.energy(&s);
            assert!((state.delta_energy(&mask) - direct).abs() < 1e-9, "t={t}");
        }
    }

    #[test]
    fn rebuild_is_idempotent() {
        let csr = CsrCoupling::from_triplets(3, &[(0, 1, 1.0)]).unwrap();
        let mut state = LocalFieldState::new(&csr, SpinVector::all_up(3));
        let e = state.energy();
        state.rebuild();
        assert_eq!(state.energy(), e);
    }
}
