//! Crossbar-vs-exact numerical accuracy across the public API: the
//! simulated analog path must reproduce software energies within the
//! quantization error budget, including under device non-idealities.
//! Every array here is the monolithic one: a single `n`-row tile.

use fecim_crossbar::{CrossbarConfig, Fidelity, QuantizedCoupling, TiledCrossbar};
use fecim_device::VariationConfig;
use fecim_gset::{GeneratorConfig, GsetFamily};
use fecim_ising::{CopProblem, Coupling, FlipMask, SpinVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn gset_coupling(n: usize, seed: u64) -> fecim_ising::CsrCoupling {
    let graph = GeneratorConfig::new(n, seed)
        .with_family(GsetFamily::RandomSigned)
        .with_mean_degree(10.0)
        .generate();
    graph.to_max_cut().to_ising().unwrap().couplings().clone()
}

#[test]
fn vmv_error_is_within_quantization_budget_on_gset_instances() {
    let n = 100;
    let coupling = gset_coupling(n, 1);
    let mut cfg = CrossbarConfig::paper_defaults();
    cfg.quant_bits = 4;
    cfg.adc_bits = 13;
    let scale = QuantizedCoupling::from_coupling(&coupling, cfg.quant_bits).scale();
    let mut xb = TiledCrossbar::program(&coupling, cfg, n);
    let mut rng = StdRng::seed_from_u64(2);
    // Error budget: ±1 weights are exact at any k; ADC adds at most one
    // LSB per bit-slice conversion per active column group.
    let adc_lsb = n as f64 / (1 << 13) as f64;
    let budget = 2.0 * n as f64 * 4.0 * adc_lsb * scale * 20.0 + 1.0;
    for _ in 0..10 {
        let s = SpinVector::random(n, &mut rng);
        let exact = coupling.energy(&s);
        let measured = xb.vmv(s.as_slice());
        assert!(
            (measured - exact).abs() < budget,
            "measured {measured} exact {exact} budget {budget}"
        );
    }
}

#[test]
fn incremental_error_is_small_for_unit_weights() {
    let n = 120;
    let coupling = gset_coupling(n, 3);
    let mut xb = TiledCrossbar::program(&coupling, CrossbarConfig::paper_defaults(), n);
    let mut rng = StdRng::seed_from_u64(4);
    for _ in 0..20 {
        let s = SpinVector::random(n, &mut rng);
        let mask = FlipMask::random(2, n, &mut rng);
        let s_new = s.flipped_by(&mask);
        let exact = coupling.incremental_form(&s_new, &mask);
        let measured =
            xb.incremental_form(&s_new.rest_vector(&mask), &s_new.changed_vector(&mask), 1.0);
        // Unit Gset weights quantize exactly; only ADC rounding remains,
        // and the sparse column sums sit far from the ADC full scale.
        assert!(
            (measured - exact).abs() < 0.5,
            "measured {measured} exact {exact}"
        );
    }
}

#[test]
fn factor_scaling_survives_the_analog_path() {
    let n = 80;
    let coupling = gset_coupling(n, 5);
    let mut xb = TiledCrossbar::program(&coupling, CrossbarConfig::paper_defaults(), n);
    let mut rng = StdRng::seed_from_u64(6);
    let s = SpinVector::random(n, &mut rng);
    let mask = FlipMask::random(2, n, &mut rng);
    let s_new = s.flipped_by(&mask);
    let r = s_new.rest_vector(&mask);
    let c = s_new.changed_vector(&mask);
    let full = xb.incremental_form(&r, &c, 1.0);
    if full.abs() > 1.0 {
        for factor in [0.25, 0.5, 0.75] {
            let scaled = xb.incremental_form(&r, &c, factor);
            let ratio = scaled / full;
            assert!(
                (ratio - factor).abs() < 0.15,
                "factor {factor}: ratio {ratio}"
            );
        }
    }
}

#[test]
fn typical_variation_keeps_decisions_mostly_correct() {
    // The robustness claim: with typical FeFET variation, the sign of
    // large increments (the accept/reject decision driver) is preserved.
    let n = 96;
    let coupling = gset_coupling(n, 7);
    let mut cfg = CrossbarConfig::paper_defaults();
    cfg.fidelity = Fidelity::DeviceAccurate;
    cfg.variation = VariationConfig::typical();
    let mut noisy = TiledCrossbar::program(&coupling, cfg, n);
    let mut rng = StdRng::seed_from_u64(8);
    let mut agree = 0;
    let mut total = 0;
    for _ in 0..60 {
        let s = SpinVector::random(n, &mut rng);
        let mask = FlipMask::random(2, n, &mut rng);
        let s_new = s.flipped_by(&mask);
        let exact = coupling.incremental_form(&s_new, &mask);
        if exact.abs() < 1.0 {
            continue; // tiny increments legitimately flip sign under noise
        }
        let measured =
            noisy.incremental_form(&s_new.rest_vector(&mask), &s_new.changed_vector(&mask), 1.0);
        total += 1;
        if measured.signum() == exact.signum() {
            agree += 1;
        }
    }
    assert!(total > 10, "need enough large increments, got {total}");
    assert!(
        agree as f64 / total as f64 > 0.9,
        "only {agree}/{total} decisions preserved"
    );
}
