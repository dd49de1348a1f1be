//! Silicon area model at 22 nm, DESTINY-style (paper ref [37]): cell area
//! from the technology F², periphery from per-instance component
//! footprints scaled from their published nodes (e.g. the 0.005 mm² ADC of
//! ref [36] at its native node).
//!
//! Area does not enter the paper's headline figures but determines how
//! many ADCs an annealer can afford — the origin of the 8-to-1 muxing that
//! sets the Fig. 9 time ratio — so the model makes that trade explicit.

use serde::{Deserialize, Serialize};

/// Feature size in nanometres used for F² cell area.
const FEATURE_NM: f64 = 22.0;

/// Per-component silicon footprints in µm².
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AreaModel {
    /// One DG FeFET cell, µm² (6F² class for a 1T cell with BG contact
    /// sharing).
    pub cell: f64,
    /// One SAR ADC instance, µm² (ref \[36\]: 0.005 mm² at 28 nm, scaled).
    pub adc: f64,
    /// One column mux (8:1) per ADC, µm².
    pub mux: f64,
    /// One shift-and-add unit, µm².
    pub shift_add: f64,
    /// Row/column driver per line, µm².
    pub driver_per_line: f64,
    /// The back-gate DAC (one per array), µm².
    pub bg_dac: f64,
    /// The `eˣ` ASIC block of ref \[18\], µm² (FPGA variant is off-chip).
    pub exp_asic: f64,
    /// Annealing control logic, µm².
    pub control: f64,
}

impl AreaModel {
    /// 22 nm defaults.
    pub fn node_22nm() -> AreaModel {
        let f_um = FEATURE_NM * 1e-3;
        AreaModel {
            cell: 6.0 * f_um * f_um,
            adc: 3100.0, // 0.005 mm² at 28 nm → ≈0.0031 mm² at 22 nm
            mux: 25.0,
            shift_add: 60.0,
            driver_per_line: 1.2,
            bg_dac: 400.0,
            exp_asic: 5200.0,
            control: 2000.0,
        }
    }
}

impl Default for AreaModel {
    fn default() -> AreaModel {
        AreaModel::node_22nm()
    }
}

/// Area breakdown of one annealer macro, µm².
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AreaReport {
    /// Crossbar cell array (both polarity planes).
    pub array: f64,
    /// ADCs + muxes.
    pub converters: f64,
    /// Drivers and decoders.
    pub drivers: f64,
    /// Digital periphery (shift-add, control, buffers).
    pub digital: f64,
    /// Exponential unit (zero for the in-situ annealer).
    pub exp_unit: f64,
    /// Back-gate DAC (zero for the baselines).
    pub bg_dac: f64,
}

impl AreaReport {
    /// Total area in µm².
    pub fn total(&self) -> f64 {
        self.array + self.converters + self.drivers + self.digital + self.exp_unit + self.bg_dac
    }

    /// Total area in mm².
    // audit:allow(dead-pub): area model: solver_features pins the macros to the mm² class
    pub fn total_mm2(&self) -> f64 {
        self.total() * 1e-6
    }
}

/// Compute the macro area of an annealer.
///
/// * `spins` — problem size `n` (array is `n × n·k` per polarity plane);
/// * `quant_bits` — weight bits `k`;
/// * `mux_ratio` — column groups per ADC;
/// * `has_exp_unit` — baselines instantiate the ASIC `eˣ` block;
/// * `has_bg_dac` — the in-situ annealer adds the temperature DAC.
// audit:allow(dead-pub): area model behind the 8:1 ADC muxing; solver_features pins that the in-situ macro is the smaller one
pub fn annealer_area(
    model: &AreaModel,
    spins: usize,
    quant_bits: u8,
    mux_ratio: usize,
    has_exp_unit: bool,
    has_bg_dac: bool,
) -> AreaReport {
    let n = spins as f64;
    let k = quant_bits as f64;
    let physical_cols = n * k * 2.0; // two polarity planes
    let cells = n * physical_cols;
    let adc_count = (n / mux_ratio as f64).ceil() * 2.0; // per plane
    AreaReport {
        array: cells * model.cell,
        converters: adc_count * (model.adc + model.mux),
        drivers: (n + physical_cols) * model.driver_per_line,
        digital: adc_count * model.shift_add + model.control,
        exp_unit: if has_exp_unit { model.exp_asic } else { 0.0 },
        bg_dac: if has_bg_dac { model.bg_dac } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_is_positive_and_array_dominated_at_scale() {
        let m = AreaModel::node_22nm();
        let a = annealer_area(&m, 3000, 4, 8, false, true);
        assert!(a.total() > 0.0);
        // 72M cells at ~2.9e-3 µm² ≈ 0.21 mm²; ADCs 750 ≈ 2.3 mm².
        // At this node the converters dominate — exactly why the paper
        // muxes them 8:1.
        assert!(a.converters > a.array, "{a:?}");
        assert!(
            a.total_mm2() < 20.0,
            "macro should be mm^2-class: {}",
            a.total_mm2()
        );
    }

    #[test]
    fn mux_ratio_trades_adc_area() {
        let m = AreaModel::node_22nm();
        let muxed = annealer_area(&m, 1000, 4, 8, false, true);
        let unmuxed = annealer_area(&m, 1000, 4, 1, false, true);
        assert!(unmuxed.converters > muxed.converters * 6.0);
    }

    #[test]
    fn in_situ_swaps_exp_unit_for_bg_dac() {
        let m = AreaModel::node_22nm();
        let ours = annealer_area(&m, 800, 4, 8, false, true);
        let base = annealer_area(&m, 800, 4, 8, true, false);
        assert_eq!(ours.exp_unit, 0.0);
        assert!(ours.bg_dac > 0.0);
        assert_eq!(base.bg_dac, 0.0);
        assert!(base.exp_unit > 0.0);
        // The swap is area-favourable (BG DAC is far smaller than e^x).
        assert!(ours.total() < base.total());
    }

    #[test]
    fn area_scales_quadratically_with_n_in_the_array_term() {
        let m = AreaModel::node_22nm();
        let small = annealer_area(&m, 500, 4, 8, false, true);
        let large = annealer_area(&m, 1000, 4, 8, false, true);
        let ratio = large.array / small.array;
        assert!((ratio - 4.0).abs() < 1e-9);
    }
}
