//! Crossbar configuration and the cell physics every array shares.
//!
//! The array itself is [`TiledCrossbar`](crate::TiledCrossbar): the
//! paper's monolithic `n × (n·k)` array (Fig. 6d) is its one-tile case.

use serde::{Deserialize, Serialize};

use fecim_device::{ChannelBias, DgFefet, DgFefetParams, VariationConfig};

use crate::parasitics::WireParams;

/// The per-read constants of a device-accurate read at back-gate bias
/// `vbg`: the shared terminal bias of a stored-'1' cell and the
/// normalization to the full-scale current. Only the threshold offset
/// varies from entry to entry.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CellRead {
    bias: ChannelBias,
    leak: f64,
    full_scale_current: f64,
}

impl CellRead {
    pub(crate) fn new(cell: &DgFefet, full_scale_current: f64, vbg: f64) -> CellRead {
        let params = cell.params();
        CellRead {
            bias: cell.bias(params.v_read, params.v_drain, vbg),
            leak: params.front.i_leak,
            full_scale_current,
        }
    }

    /// Normalized current `(I − I_leak)/I_fs ≥ 0` of a conducting cell
    /// programmed with threshold offset `vth_offset`.
    pub(crate) fn factor(&self, vth_offset: f64) -> f64 {
        ((self.bias.current(vth_offset) - self.leak) / self.full_scale_current).max(0.0)
    }
}

/// Normalized current of an ideal stored-'1' cell at back-gate voltage
/// `vbg`: the hardware annealing factor `f` (paper Fig. 6c).
pub(crate) fn ideal_cell_factor(cell: &DgFefet, full_scale_current: f64, vbg: f64) -> f64 {
    CellRead::new(cell, full_scale_current, cell.quantize_vbg(vbg)).factor(0.0)
}

/// Invert the normalized-current curve: the `V_BG` whose ideal cell factor
/// equals `factor` (bisection over the DAC range).
pub(crate) fn vbg_for_factor(cell: &DgFefet, full_scale_current: f64, factor: f64) -> f64 {
    let vmax = cell.params().vbg_max;
    if factor >= ideal_cell_factor(cell, full_scale_current, vmax) {
        return vmax;
    }
    if factor <= 0.0 {
        return 0.0;
    }
    let mut lo = 0.0;
    let mut hi = vmax;
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        if ideal_cell_factor(cell, full_scale_current, mid) < factor {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Simulation fidelity of the analog path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fidelity {
    /// Ideal cells: unit current per conducting cell, no variation, no
    /// wire loss. ADC quantization still applies.
    Ideal,
    /// Device-accurate cells: per-cell DG FeFET currents with programmed
    /// threshold variation, read noise, leakage and source-line IR drop.
    DeviceAccurate,
}

/// Configuration of a crossbar instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossbarConfig {
    /// Quantization bits `k` per coupling magnitude (paper Fig. 6d).
    pub quant_bits: u8,
    /// ADC resolution in bits (paper ref \[36\]: 13-bit SAR).
    pub adc_bits: u8,
    /// Column groups per ADC (paper: 8-to-1 multiplexed ADCs).
    pub mux_ratio: usize,
    /// Interleaved (`true`) or blocked (`false`) group→ADC placement.
    pub interleaved_mux: bool,
    /// Analog-path fidelity.
    pub fidelity: Fidelity,
    /// Device non-idealities (used in [`Fidelity::DeviceAccurate`]).
    pub variation: VariationConfig,
    /// Wire technology parameters.
    pub wires: WireParams,
    /// DG FeFET cell parameters.
    pub device: DgFefetParams,
    /// Seed for variation sampling and read noise.
    pub seed: u64,
}

impl CrossbarConfig {
    /// The paper's operating point: 4-bit weight slicing, 13-bit 8:1-muxed
    /// ADCs, interleaved mapping, ideal analog path.
    pub fn paper_defaults() -> CrossbarConfig {
        CrossbarConfig {
            quant_bits: 4,
            adc_bits: 13,
            mux_ratio: 8,
            interleaved_mux: true,
            fidelity: Fidelity::Ideal,
            variation: VariationConfig::ideal(),
            wires: WireParams::node_22nm(),
            device: DgFefetParams::paper_reference(),
            seed: 0xF3C1,
        }
    }
}

impl Default for CrossbarConfig {
    fn default() -> CrossbarConfig {
        CrossbarConfig::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TiledCrossbar;
    use fecim_ising::{Coupling, DenseCoupling, FlipMask, SpinVector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dense(n: usize, seed: u64) -> DenseCoupling {
        let mut rng = StdRng::seed_from_u64(seed);
        DenseCoupling::random(n, 0.4, 1.0, &mut rng)
    }

    /// The monolithic array: one tile spanning every row.
    fn monolithic(m: &DenseCoupling, config: CrossbarConfig) -> TiledCrossbar {
        TiledCrossbar::program(m, config, m.dimension())
    }

    fn unit_config(bits: u8) -> CrossbarConfig {
        CrossbarConfig {
            quant_bits: bits,
            adc_bits: 14,
            ..CrossbarConfig::paper_defaults()
        }
    }

    #[test]
    fn vmv_matches_exact_energy_with_high_precision() {
        let m = dense(20, 5);
        let mut xb = monolithic(&m, unit_config(8));
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..10 {
            let s = SpinVector::random(20, &mut rng);
            let exact = m.energy(&s);
            let measured = xb.vmv(s.as_slice());
            // Error budget: quantization of J (k bits) + ADC LSBs.
            let tol = 20.0 * 20.0 * m.max_abs() / 255.0 + 1.0;
            assert!(
                (measured - exact).abs() < tol,
                "measured={measured} exact={exact}"
            );
        }
    }

    #[test]
    fn incremental_matches_exact_bilinear_form() {
        let m = dense(24, 7);
        let mut xb = monolithic(&m, unit_config(8));
        let mut rng = StdRng::seed_from_u64(8);
        for t in [1usize, 2, 4] {
            let s = SpinVector::random(24, &mut rng);
            let mask = FlipMask::random(t, 24, &mut rng);
            let s_new = s.flipped_by(&mask);
            let r = s_new.rest_vector(&mask);
            let c = s_new.changed_vector(&mask);
            let exact = m.incremental_form(&s_new, &mask);
            let measured = xb.incremental_form(&r, &c, 1.0);
            let tol = 24.0 * m.max_abs() / 255.0 * t as f64 + 0.5;
            assert!(
                (measured - exact).abs() < tol,
                "t={t}: measured={measured} exact={exact}"
            );
        }
    }

    #[test]
    fn factor_scales_incremental_output() {
        let m = dense(16, 9);
        let mut xb = monolithic(&m, unit_config(8));
        let mut rng = StdRng::seed_from_u64(10);
        let s = SpinVector::random(16, &mut rng);
        let mask = FlipMask::random(2, 16, &mut rng);
        let s_new = s.flipped_by(&mask);
        let r = s_new.rest_vector(&mask);
        let c = s_new.changed_vector(&mask);
        let full = xb.incremental_form(&r, &c, 1.0);
        let half = xb.incremental_form(&r, &c, 0.5);
        if full.abs() > 1.0 {
            let ratio = half / full;
            assert!((ratio - 0.5).abs() < 0.2, "ratio={ratio}");
        }
    }

    #[test]
    fn incremental_activates_only_flipped_columns() {
        let m = dense(64, 11);
        let mut xb = monolithic(&m, unit_config(4));
        let mut rng = StdRng::seed_from_u64(12);
        let s = SpinVector::random(64, &mut rng);
        let mask = FlipMask::random(2, 64, &mut rng);
        let s_new = s.flipped_by(&mask);
        let _ = xb.incremental_form(&s_new.rest_vector(&mask), &s_new.changed_vector(&mask), 1.0);
        let inc = *xb.stats();
        xb.reset_stats();
        let _ = xb.vmv(s.as_slice());
        let full = *xb.stats();
        // Conversions: 2 passes × groups × 2 planes × k.
        assert_eq!(inc.adc_conversions, 2 * 2 * 2 * 4);
        assert_eq!(full.adc_conversions, 2 * 64 * 2 * 4);
        let ratio = full.adc_conversions as f64 / inc.adc_conversions as f64;
        assert_eq!(ratio, 32.0, "n/|F| = 64/2");
        // Time slots: baseline serializes mux_ratio groups per ADC.
        assert!(full.adc_slots > inc.adc_slots);
    }

    #[test]
    fn slots_ratio_approaches_mux_ratio() {
        // The Fig. 9 mechanism: with interleaved mapping and |F| active
        // groups < ADC count, the in-situ read converts in k slots per pass
        // while the full read needs mux_ratio × k.
        let m = dense(128, 13);
        let mut xb = monolithic(&m, unit_config(4));
        let s = SpinVector::all_up(128);
        let mask = FlipMask::new(vec![3, 77], 128);
        let s_new = s.flipped_by(&mask);
        let _ = xb.incremental_form(&s_new.rest_vector(&mask), &s_new.changed_vector(&mask), 1.0);
        let inc_slots = xb.stats().adc_slots;
        xb.reset_stats();
        let _ = xb.vmv(s.as_slice());
        let full_slots = xb.stats().adc_slots;
        assert_eq!(full_slots / inc_slots, 8, "mux ratio 8");
    }

    #[test]
    fn device_accurate_mode_stays_close_to_ideal() {
        let m = dense(16, 14);
        let ideal_cfg = unit_config(8);
        let mut device_cfg = ideal_cfg.clone();
        device_cfg.fidelity = Fidelity::DeviceAccurate;
        let mut ideal = monolithic(&m, ideal_cfg);
        let mut device = monolithic(&m, device_cfg);
        let mut rng = StdRng::seed_from_u64(15);
        let s = SpinVector::random(16, &mut rng);
        let mask = FlipMask::random(2, 16, &mut rng);
        let s_new = s.flipped_by(&mask);
        let r = s_new.rest_vector(&mask);
        let c = s_new.changed_vector(&mask);
        let a = ideal.incremental_form(&r, &c, 1.0);
        let b = device.incremental_form(&r, &c, 1.0);
        // No variation configured: only IR drop separates them.
        assert!(
            (a - b).abs() < 0.15 * a.abs().max(1.0),
            "ideal={a} device={b}"
        );
    }

    #[test]
    fn variation_perturbs_but_preserves_sign_of_large_values() {
        let m = dense(16, 16);
        let mut cfg = unit_config(8);
        cfg.fidelity = Fidelity::DeviceAccurate;
        cfg.variation = VariationConfig::typical();
        let mut noisy = monolithic(&m, cfg);
        let mut ideal = monolithic(&m, unit_config(8));
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..5 {
            let s = SpinVector::random(16, &mut rng);
            let mask = FlipMask::random(3, 16, &mut rng);
            let s_new = s.flipped_by(&mask);
            let r = s_new.rest_vector(&mask);
            let c = s_new.changed_vector(&mask);
            let a = ideal.incremental_form(&r, &c, 1.0);
            let b = noisy.incremental_form(&r, &c, 1.0);
            if a.abs() > 2.0 {
                assert_eq!(a.signum(), b.signum(), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn value_scale_bounds_outputs() {
        let m = dense(20, 18);
        let mut xb = monolithic(&m, unit_config(6));
        let mut rng = StdRng::seed_from_u64(19);
        // n · max|J|: every row at full code in the same polarity.
        let scale = crate::QuantizedCoupling::from_coupling(&m, 6).scale();
        let bound = 20.0 * scale * ((1u32 << 6) - 1) as f64;
        for _ in 0..5 {
            let s = SpinVector::random(20, &mut rng);
            let v = xb.vmv(s.as_slice());
            assert!(v.abs() <= bound * 20.0, "v={v} bound={bound}");
        }
    }

    #[test]
    fn mvm_matches_exact_coupling_product_and_vmv_contraction() {
        let m = dense(24, 21);
        let mut xb = monolithic(&m, unit_config(8));
        let mut rng = StdRng::seed_from_u64(22);
        for _ in 0..5 {
            let s = SpinVector::random(24, &mut rng);
            let out = xb.mvm(s.as_slice());
            assert_eq!(out.len(), 24);
            // Each column output approximates the exact (Jσ)_j.
            let tol = 24.0 * m.max_abs() / 255.0 + 0.5;
            for (j, measured) in out.iter().enumerate() {
                let exact: f64 = (0..24)
                    .map(|i| m.get(i, j) * f64::from(s.as_slice()[i]))
                    .sum();
                assert!(
                    (measured - exact).abs() < tol,
                    "col {j}: measured={measured} exact={exact}"
                );
            }
            // σ·(Jσ) contracts to the scalar direct-E read.
            let contracted: f64 = out
                .iter()
                .zip(s.as_slice())
                .map(|(&v, &sig)| v * f64::from(sig))
                .sum();
            let scalar = xb.vmv(s.as_slice());
            assert!(
                (contracted - scalar).abs() < 1e-9 * scalar.abs().max(1.0),
                "contracted={contracted} scalar={scalar}"
            );
        }
    }

    #[test]
    fn mvm_accounts_one_array_read() {
        let m = dense(32, 23);
        let mut xb = monolithic(&m, unit_config(4));
        let s = SpinVector::all_up(32);
        let _ = xb.mvm(s.as_slice());
        let stats = *xb.stats();
        assert_eq!(stats.array_ops, 1);
        assert_eq!(stats.row_passes, 2);
        assert_eq!(stats.buffer_writes, 32);
        xb.reset_stats();
        let _ = xb.vmv(s.as_slice());
        // Same analog work as one direct-E read: the MVM differs only in
        // keeping the per-column outputs digital.
        assert_eq!(stats.adc_conversions, xb.stats().adc_conversions);
        assert_eq!(stats.adc_slots, xb.stats().adc_slots);
    }
}
