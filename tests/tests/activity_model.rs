//! Pins the analytic per-iteration activity model (`fecim-hwcost`) to the
//! cycle-level crossbar simulator (`fecim-crossbar`): the Fig. 8/9 cost
//! accounting is only valid if both agree on what one iteration does.
//! The simulator side is the monolithic array: one `n`-row tile.

use fecim_crossbar::{CrossbarConfig, TiledCrossbar};
use fecim_hwcost::{AnnealerKind, IterationProfile};
use fecim_ising::{CsrCoupling, DenseCoupling, FlipMask, SpinVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn dense_coupling(n: usize, seed: u64) -> CsrCoupling {
    let mut rng = StdRng::seed_from_u64(seed);
    CsrCoupling::from_dense(&DenseCoupling::random(n, 0.5, 1.0, &mut rng))
}

#[test]
fn simulated_incremental_activity_matches_analytic_profile() {
    let n = 64;
    let coupling = dense_coupling(n, 1);
    let mut xb = TiledCrossbar::program(&coupling, CrossbarConfig::paper_defaults(), n);
    let profile = IterationProfile::paper(n);
    let expected = profile.activity(AnnealerKind::InSitu);

    let mut rng = StdRng::seed_from_u64(2);
    let iterations = 25;
    for _ in 0..iterations {
        let spins = SpinVector::random(n, &mut rng);
        let mask = FlipMask::random(2, n, &mut rng);
        let new_spins = spins.flipped_by(&mask);
        let _ = xb.incremental_form(
            &new_spins.rest_vector(&mask),
            &new_spins.changed_vector(&mask),
            0.5,
        );
    }
    let got = *xb.stats();
    assert_eq!(got.array_ops, iterations as u64);
    assert_eq!(
        got.adc_conversions,
        expected.adc_conversions * iterations as u64
    );
    assert_eq!(got.bg_updates, expected.bg_updates * iterations as u64);
    assert_eq!(got.row_passes, expected.row_passes * iterations as u64);
    assert_eq!(
        got.shift_add_ops,
        expected.shift_add_ops * iterations as u64
    );
    // Interleaved mapping: two flipped groups almost always land on
    // distinct ADCs, so slots match the analytic 2·k per iteration; allow
    // the rare collision to add at most one extra k per iteration.
    assert!(got.adc_slots >= expected.adc_slots * iterations as u64);
    assert!(got.adc_slots <= (expected.adc_slots + 4) * iterations as u64);
}

#[test]
fn simulated_vmv_activity_matches_analytic_profile() {
    let n = 64;
    let coupling = dense_coupling(n, 3);
    let mut xb = TiledCrossbar::program(&coupling, CrossbarConfig::paper_defaults(), n);
    let profile = IterationProfile::paper(n);
    let expected = profile.activity(AnnealerKind::CimAsic);

    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..10 {
        let spins = SpinVector::random(n, &mut rng);
        let _ = xb.vmv(spins.as_slice());
    }
    let got = *xb.stats();
    assert_eq!(got.adc_conversions, expected.adc_conversions * 10);
    assert_eq!(got.adc_slots, expected.adc_slots * 10);
    assert_eq!(got.bg_updates, 0);
}

#[test]
fn conversion_ratio_equals_n_over_t_across_sizes() {
    // The headline Fig. 8 scaling law, measured from the simulator.
    for n in [32usize, 64, 128] {
        let coupling = dense_coupling(n, n as u64);
        let mut xb = TiledCrossbar::program(&coupling, CrossbarConfig::paper_defaults(), n);
        let mut rng = StdRng::seed_from_u64(7);
        let spins = SpinVector::random(n, &mut rng);
        let mask = FlipMask::random(2, n, &mut rng);
        let new_spins = spins.flipped_by(&mask);
        let _ = xb.incremental_form(
            &new_spins.rest_vector(&mask),
            &new_spins.changed_vector(&mask),
            1.0,
        );
        let inc = xb.stats().adc_conversions;
        xb.reset_stats();
        let _ = xb.vmv(spins.as_slice());
        let full = xb.stats().adc_conversions;
        assert_eq!(full / inc, (n / 2) as u64, "n={n}");
    }
}
