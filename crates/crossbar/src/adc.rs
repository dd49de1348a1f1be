//! SAR ADC and column-multiplexing models.
//!
//! The paper employs 8-to-1 multiplexed 13-bit SAR ADCs (ref [36], scaled
//! to 22 nm). [`SarAdc`] models the value-domain behaviour (range clamping
//! and code quantization); [`MuxAssignment`] models which column groups
//! share an ADC, which determines how many conversions serialize — the
//! mechanism behind the ~8× time advantage of the in-situ annealer
//! (Fig. 9).

use serde::{Deserialize, Serialize};

/// A successive-approximation ADC with a fixed full-scale input.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SarAdc {
    bits: u8,
    full_scale: f64,
}

impl SarAdc {
    /// Build an ADC with `bits` resolution over `[0, full_scale]`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `1..=16` or `full_scale <= 0`.
    pub fn new(bits: u8, full_scale: f64) -> SarAdc {
        assert!((1..=16).contains(&bits), "bits must be in 1..=16");
        assert!(full_scale > 0.0, "full scale must be positive");
        SarAdc { bits, full_scale }
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Full-scale input.
    pub fn full_scale(&self) -> f64 {
        self.full_scale
    }

    /// Input value of one least-significant code.
    fn lsb(&self) -> f64 {
        self.full_scale / ((1u64 << self.bits) as f64)
    }

    /// Digital output code for an analog input (clamped to range).
    pub fn code(&self, input: f64) -> u32 {
        let max_code = (1u64 << self.bits) - 1;
        let clamped = input.clamp(0.0, self.full_scale);
        ((clamped / self.lsb()).round() as u64).min(max_code) as u32
    }

    /// Quantized analog estimate: `code × lsb` (what the digital side
    /// reconstructs).
    pub fn quantize(&self, input: f64) -> f64 {
        self.code(input) as f64 * self.lsb()
    }
}

/// Static assignment of column groups to shared (multiplexed) ADCs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MuxAssignment {
    groups: usize,
    mux_ratio: usize,
    interleaved: bool,
}

impl MuxAssignment {
    /// `groups` column groups shared `mux_ratio`-to-1 onto ADCs, with
    /// interleaved placement (`group % adc_count`) — consecutive groups on
    /// distinct ADCs, the placement that lets the in-situ annealer's few
    /// active columns convert in parallel.
    ///
    /// # Panics
    ///
    /// Panics if `groups == 0` or `mux_ratio == 0`.
    pub fn interleaved(groups: usize, mux_ratio: usize) -> MuxAssignment {
        assert!(groups > 0 && mux_ratio > 0, "empty assignment");
        MuxAssignment {
            groups,
            mux_ratio,
            interleaved: true,
        }
    }

    /// Blocked placement (`group / mux_ratio`): consecutive groups share an
    /// ADC (used by the mapping ablation).
    pub fn blocked(groups: usize, mux_ratio: usize) -> MuxAssignment {
        assert!(groups > 0 && mux_ratio > 0, "empty assignment");
        MuxAssignment {
            groups,
            mux_ratio,
            interleaved: false,
        }
    }

    /// Number of ADCs instantiated.
    fn adc_count(&self) -> usize {
        self.groups.div_ceil(self.mux_ratio)
    }

    /// The mux ratio (groups per ADC).
    pub fn mux_ratio(&self) -> usize {
        self.mux_ratio
    }

    /// ADC serving column group `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is out of range.
    fn adc_of(&self, g: usize) -> usize {
        assert!(g < self.groups, "group out of range");
        if self.interleaved {
            g % self.adc_count()
        } else {
            g / self.mux_ratio
        }
    }

    /// Number of sequential conversion slots needed to convert
    /// `conversions_per_group` values from each group in `active_groups`:
    /// groups on distinct ADCs convert in parallel; groups sharing an ADC
    /// serialize.
    pub fn slots_for(&self, active_groups: &[usize], conversions_per_group: usize) -> usize {
        if active_groups.is_empty() || conversions_per_group == 0 {
            return 0;
        }
        let mut load = vec![0usize; self.adc_count()];
        for &g in active_groups {
            load[self.adc_of(g)] += conversions_per_group;
        }
        load.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_and_quantize_roundtrip() {
        let adc = SarAdc::new(8, 256.0);
        assert_eq!(adc.lsb(), 1.0);
        assert_eq!(adc.code(5.4), 5);
        assert_eq!(adc.quantize(5.4), 5.0);
        assert_eq!(adc.code(5.6), 6);
    }

    #[test]
    fn saturation_at_full_scale() {
        let adc = SarAdc::new(4, 16.0);
        assert_eq!(adc.code(100.0), 15);
        assert_eq!(adc.code(-3.0), 0);
        assert!(adc.quantize(100.0) <= 16.0);
    }

    #[test]
    fn quantization_error_bounded_by_half_lsb_in_range() {
        let adc = SarAdc::new(10, 1.0);
        for k in 0..100 {
            let x = 0.99 * k as f64 / 99.0;
            assert!((adc.quantize(x) - x).abs() <= adc.lsb() / 2.0 + 1e-12);
        }
    }

    #[test]
    fn higher_resolution_reduces_lsb() {
        assert!(SarAdc::new(13, 1.0).lsb() < SarAdc::new(8, 1.0).lsb());
    }

    #[test]
    fn interleaved_assignment_spreads_consecutive_groups() {
        let m = MuxAssignment::interleaved(64, 8);
        assert_eq!(m.adc_count(), 8);
        let adcs: Vec<usize> = (0..8).map(|g| m.adc_of(g)).collect();
        let mut unique = adcs.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 8, "first 8 groups use 8 distinct ADCs");
    }

    #[test]
    fn blocked_assignment_packs_consecutive_groups() {
        let m = MuxAssignment::blocked(64, 8);
        assert_eq!(m.adc_of(0), 0);
        assert_eq!(m.adc_of(7), 0);
        assert_eq!(m.adc_of(8), 1);
    }

    #[test]
    fn slots_model_full_vs_sparse_activation() {
        // 64 groups, 8:1 mux: full activation serializes 8 groups per ADC;
        // two sparse active groups (interleaved) run fully in parallel.
        let m = MuxAssignment::interleaved(64, 8);
        let all: Vec<usize> = (0..64).collect();
        assert_eq!(m.slots_for(&all, 4), 8 * 4);
        assert_eq!(m.slots_for(&[3, 12], 4), 4);
        // Blocked mapping can collide.
        let b = MuxAssignment::blocked(64, 8);
        assert_eq!(b.slots_for(&[0, 1], 4), 8);
    }

    #[test]
    fn slots_empty_cases() {
        let m = MuxAssignment::interleaved(8, 8);
        assert_eq!(m.slots_for(&[], 4), 0);
        assert_eq!(m.slots_for(&[0], 0), 0);
    }
}
