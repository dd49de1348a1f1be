//! Energy backends: where the annealing engine gets its (incremental)
//! energies from.
//!
//! [`ExactBackend`] evaluates everything in software with exact arithmetic
//! (the algorithmic reference, fast enough for the paper's 10⁵-iteration
//! runs via local fields). [`TiledBackend`] routes the same queries
//! through the simulated DG FeFET crossbar
//! (`fecim_crossbar::TiledCrossbar`), picking up quantization, device
//! variation and activity statistics — the device-in-the-loop mode. One
//! tile of `n` rows is the monolithic array; smaller tiles are how
//! instances larger than one physical array run device-in-the-loop.
//!
//! Both backends carry the last query's result to [`EnergyBackend::apply`]:
//! [`ExactBackend`] its exact `ΔE` (so an accepted move is never evaluated
//! twice), [`TiledBackend`] its measured direct-E energy. That is why
//! `apply` must be given the mask of the last queried proposal.

use fecim_crossbar::{ActivityStats, CrossbarConfig, TiledCrossbar};
use fecim_ising::{CsrCoupling, FlipMask, LocalFieldState, SpinVector};

/// Source of energies for the annealing engines.
///
/// The two queries mirror the two architectures of the paper:
/// [`EnergyBackend::weighted_increment`] is the in-situ path
/// (`σ_rᵀJσ_c · factor` in one array operation);
/// [`EnergyBackend::direct_delta`] is the baseline path
/// (`E(σ_new) − E(σ)` via full direct-E evaluation).
pub trait EnergyBackend {
    /// Number of spins.
    fn dimension(&self) -> usize;

    /// Current spin configuration.
    fn spins(&self) -> &SpinVector;

    /// Exact software energy of the current configuration (for traces and
    /// solution quality; never consumed by the hardware flow).
    fn exact_energy(&self) -> f64;

    /// The in-situ incremental measurement `σ_rᵀ J σ_c · factor` for
    /// flipping `mask` from the current configuration.
    fn weighted_increment(&mut self, mask: &FlipMask, factor: f64) -> f64;

    /// The direct-E measurement `E(σ_new) − E(σ)` for flipping `mask`
    /// (baseline annealers recompute the full energy of the new state).
    fn direct_delta(&mut self, mask: &FlipMask) -> f64;

    /// Commit the flip of `mask`.
    ///
    /// `mask` must be the proposal of the last
    /// [`EnergyBackend::weighted_increment`] or
    /// [`EnergyBackend::direct_delta`] query, if there was one since the
    /// previous `apply`: backends commit what that query measured.
    fn apply(&mut self, mask: &FlipMask);

    /// Hardware activity accumulated so far (`None` for pure software).
    fn activity(&self) -> Option<ActivityStats>;
}

/// Exact software backend over local fields.
#[derive(Debug)]
pub struct ExactBackend<'a> {
    state: LocalFieldState<'a, CsrCoupling>,
    /// `ΔE` of the last queried proposal, committed by `apply`.
    pending_delta: Option<f64>,
}

impl<'a> ExactBackend<'a> {
    /// Build from a coupling matrix and an initial configuration.
    pub fn new(coupling: &'a CsrCoupling, initial: SpinVector) -> ExactBackend<'a> {
        ExactBackend {
            state: LocalFieldState::new(coupling, initial),
            pending_delta: None,
        }
    }

    fn query(&mut self, mask: &FlipMask) -> f64 {
        let de = self.state.delta_energy(mask);
        self.pending_delta = Some(de);
        de
    }
}

impl EnergyBackend for ExactBackend<'_> {
    fn dimension(&self) -> usize {
        self.state.spins().len()
    }

    fn spins(&self) -> &SpinVector {
        self.state.spins()
    }

    fn exact_energy(&self) -> f64 {
        self.state.energy()
    }

    fn weighted_increment(&mut self, mask: &FlipMask, factor: f64) -> f64 {
        // ΔE = 4·σ_rᵀJσ_c, so the bilinear form is ΔE/4 (paper Eq. 9).
        self.query(mask) / 4.0 * factor
    }

    fn direct_delta(&mut self, mask: &FlipMask) -> f64 {
        self.query(mask)
    }

    fn apply(&mut self, mask: &FlipMask) {
        let de = self
            .pending_delta
            .take()
            .unwrap_or_else(|| self.state.delta_energy(mask));
        debug_assert_eq!(
            de.to_bits(),
            self.state.delta_energy(mask).to_bits(),
            "apply must commit the last queried proposal"
        );
        self.state.apply_with_delta(mask, de);
    }

    fn activity(&self) -> Option<ActivityStats> {
        None
    }
}

/// Device-in-the-loop backend: all energy-form measurements go through a
/// simulated [`TiledCrossbar`] — one tile of `n` rows for the monolithic
/// `n × (n·k)` array, smaller tiles for G-set-scale instances — while an
/// exact shadow state tracks true energies for reporting.
#[derive(Debug)]
pub struct TiledBackend<'a> {
    array: TiledCrossbar,
    shadow: LocalFieldState<'a, CsrCoupling>,
    /// Measured (quantized) energy of the current state, as the baseline
    /// hardware would hold it in its digital accumulator.
    measured_energy: f64,
    /// Measurement of the last `direct_delta` proposal, committed by
    /// `apply`.
    pending_measured: Option<f64>,
    /// In-situ read scratch: `σ_r` and `σ_c` of the proposal, reused
    /// across steps. `changed` is all zero between reads.
    rest: Vec<i8>,
    changed: Vec<i8>,
}

impl<'a> TiledBackend<'a> {
    /// Program `coupling` onto a grid of `tile_rows`-row tiles
    /// (`coupling.dimension()` for the monolithic array) and start from
    /// `initial`.
    pub fn new(
        coupling: &'a CsrCoupling,
        initial: SpinVector,
        config: CrossbarConfig,
        tile_rows: usize,
    ) -> TiledBackend<'a> {
        let mut array = TiledCrossbar::program(coupling, config, tile_rows);
        let measured_energy = array.vmv(initial.as_slice());
        TiledBackend {
            array,
            rest: vec![0; initial.len()],
            changed: vec![0; initial.len()],
            shadow: LocalFieldState::new(coupling, initial),
            measured_energy,
            pending_measured: None,
        }
    }

    /// The underlying tiled array (tile grid, activity, configuration).
    pub fn tiled(&self) -> &TiledCrossbar {
        &self.array
    }
}

impl EnergyBackend for TiledBackend<'_> {
    fn dimension(&self) -> usize {
        self.shadow.spins().len()
    }

    fn spins(&self) -> &SpinVector {
        self.shadow.spins()
    }

    fn exact_energy(&self) -> f64 {
        self.shadow.energy()
    }

    fn weighted_increment(&mut self, mask: &FlipMask, factor: f64) -> f64 {
        // σ_r and σ_c of the flipped state (mask indices are distinct):
        // σ_r keeps the unflipped spins, σ_c holds the flipped ones.
        let (rest, changed) = (&mut self.rest, &mut self.changed);
        rest.copy_from_slice(self.shadow.spins().as_slice());
        for &i in mask.indices() {
            changed[i] = -std::mem::take(&mut rest[i]);
        }
        let e_inc = self.array.incremental_form(rest, changed, factor);
        mask.indices().iter().for_each(|&i| changed[i] = 0);
        e_inc
    }

    fn direct_delta(&mut self, mask: &FlipMask) -> f64 {
        let new_spins = self.shadow.spins().flipped_by(mask);
        let e_new = self.array.vmv(new_spins.as_slice());
        self.pending_measured = Some(e_new);
        e_new - self.measured_energy
    }

    fn apply(&mut self, mask: &FlipMask) {
        self.shadow.apply(mask);
        if let Some(e) = self.pending_measured.take() {
            self.measured_energy = e;
        }
    }

    fn activity(&self) -> Option<ActivityStats> {
        Some(*self.array.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fecim_crossbar::CrossbarConfig;
    use fecim_ising::{Coupling, DenseCoupling};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn coupling(n: usize, seed: u64) -> CsrCoupling {
        let mut rng = StdRng::seed_from_u64(seed);
        CsrCoupling::from_dense(&DenseCoupling::random(n, 0.4, 1.0, &mut rng))
    }

    #[test]
    fn exact_backend_matches_coupling_math() {
        let j = coupling(16, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let init = SpinVector::random(16, &mut rng);
        let mut b = ExactBackend::new(&j, init.clone());
        let mask = FlipMask::random(2, 16, &mut rng);
        let new = init.flipped_by(&mask);
        let expected_delta = j.energy(&new) - j.energy(&init);
        assert!((b.direct_delta(&mask) - expected_delta).abs() < 1e-9);
        assert!((b.weighted_increment(&mask, 1.0) * 4.0 - expected_delta).abs() < 1e-9);
        assert!((b.weighted_increment(&mask, 0.5) * 8.0 - expected_delta).abs() < 1e-9);
        b.apply(&mask);
        assert_eq!(b.spins(), &new);
        assert!(b.activity().is_none());
    }

    #[test]
    fn crossbar_backend_tracks_measured_energy() {
        let j = coupling(16, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let init = SpinVector::random(16, &mut rng);
        let mut cfg = CrossbarConfig::paper_defaults();
        cfg.quant_bits = 8;
        cfg.adc_bits = 14;
        let mut b = TiledBackend::new(&j, init.clone(), cfg, 16);
        for _ in 0..5 {
            let mask = FlipMask::random(2, 16, &mut rng);
            let exact = {
                let new = b.spins().flipped_by(&mask);
                j.energy(&new) - j.energy(b.spins())
            };
            let measured = b.direct_delta(&mask);
            assert!(
                (measured - exact).abs() < 1.5,
                "measured={measured} exact={exact}"
            );
            b.apply(&mask);
        }
        let a = b.activity().expect("crossbar backend records activity");
        assert!(a.adc_conversions > 0);
    }

    #[test]
    fn crossbar_weighted_increment_close_to_exact() {
        let j = coupling(20, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let init = SpinVector::random(20, &mut rng);
        let mut cfg = CrossbarConfig::paper_defaults();
        cfg.quant_bits = 8;
        cfg.adc_bits = 14;
        let mut b = TiledBackend::new(&j, init, cfg, 20);
        let mask = FlipMask::random(2, 20, &mut rng);
        let exact_form = {
            let new = b.spins().flipped_by(&mask);
            j.incremental_form(&new, &mask)
        };
        let measured = b.weighted_increment(&mask, 1.0);
        assert!(
            (measured - exact_form).abs() < 1.0,
            "measured={measured} exact={exact_form}"
        );
    }

    #[test]
    fn tiled_backend_matches_crossbar_backend_in_ideal_mode() {
        // Ideal-fidelity reads are bit-identical at every tile size, so a
        // 7-row tiling must agree with the one-tile (monolithic) backend
        // measurement for measurement.
        let j = coupling(24, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let init = SpinVector::random(24, &mut rng);
        let cfg = CrossbarConfig::paper_defaults();
        let mut mono = TiledBackend::new(&j, init.clone(), cfg.clone(), 24);
        assert_eq!(mono.tiled().tile_grid(), (1, 1));
        let mut tiled = TiledBackend::new(&j, init, cfg, 7);
        assert_eq!(tiled.tiled().tile_grid(), (4, 4));
        for _ in 0..5 {
            let mask = FlipMask::random(2, 24, &mut rng);
            assert_eq!(
                mono.weighted_increment(&mask, 0.6),
                tiled.weighted_increment(&mask, 0.6)
            );
            assert_eq!(mono.direct_delta(&mask), tiled.direct_delta(&mask));
            mono.apply(&mask);
            tiled.apply(&mask);
            assert_eq!(mono.spins(), tiled.spins());
        }
        let a = tiled.activity().expect("tiled backend records activity");
        assert!(a.tiles_activated > 0, "per-tile activity recorded");
    }

    #[test]
    fn reused_read_vectors_match_fresh_ones_step_after_step() {
        // The in-situ scratch vectors carry over between steps; every read
        // must equal one driven with freshly built σ_r / σ_c.
        let j = coupling(24, 11);
        let mut rng = StdRng::seed_from_u64(12);
        let init = SpinVector::random(24, &mut rng);
        let cfg = CrossbarConfig::paper_defaults();
        let mut b = TiledBackend::new(&j, init.clone(), cfg.clone(), 8);
        let mut fresh = TiledBackend::new(&j, init, cfg, 8);
        for step in 0..12 {
            let mask = FlipMask::random(1 + step % 3, 24, &mut rng);
            let new = fresh.spins().flipped_by(&mask);
            let want = fresh.array.incremental_form(
                &new.rest_vector(&mask),
                &new.changed_vector(&mask),
                0.6,
            );
            assert_eq!(b.weighted_increment(&mask, 0.6), want, "step {step}");
            if step % 2 == 0 {
                b.apply(&mask);
                fresh.apply(&mask);
            }
        }
        assert_eq!(b.activity(), fresh.activity());
    }

    #[test]
    fn apply_without_pending_keeps_measured_energy() {
        let j = coupling(12, 7);
        let init = SpinVector::all_up(12);
        let mut b = TiledBackend::new(&j, init, CrossbarConfig::paper_defaults(), 12);
        let mask = FlipMask::single(3, 12);
        // In-situ flow never calls direct_delta; apply must not corrupt the
        // (unused) measured energy.
        let _ = b.weighted_increment(&mask, 0.7);
        b.apply(&mask);
        assert_eq!(b.pending_measured, None);
    }
}
