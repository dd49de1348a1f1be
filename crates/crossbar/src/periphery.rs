//! Digital periphery of the crossbar (paper Fig. 6d): the spin and
//! temperature encoders that turn `σ_r`/`σ_c`/`f(T)` into line voltages,
//! and the shift-and-add pipeline that recombines bit-slice ADC codes
//! into the signed `E_inc` value.
//!
//! The analog array in [`crate::TiledCrossbar`] consumes these as pure
//! functions; they are factored out here so their behaviour (two's
//! complement handling, pos/neg pass splitting, bit weights) is unit
//! tested independently of the analog path.

use serde::{Deserialize, Serialize};

/// Split a signed spin-input vector into the two non-negative phase
/// vectors the crossbar drives sequentially (the paper's "components
/// associated with positive and negative inputs are separately
/// calculated").
///
/// Returns `(positive_phase, negative_phase)` as 0/1 drive levels.
pub fn split_input_phases(signed: &[i8]) -> (Vec<u8>, Vec<u8>) {
    let pos = signed.iter().map(|&v| u8::from(v > 0)).collect();
    let neg = signed.iter().map(|&v| u8::from(v < 0)).collect();
    (pos, neg)
}

/// The spin encoder: maps a drive-level vector to front-gate voltages.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpinEncoder {
    /// Voltage of a logic `1` input.
    pub v_high: f64,
    /// Voltage of a logic `0` input.
    pub v_low: f64,
}

impl SpinEncoder {
    /// The paper's read levels: 1 V / 0 V.
    pub fn paper() -> SpinEncoder {
        SpinEncoder {
            v_high: 1.0,
            v_low: 0.0,
        }
    }

    /// Encode drive levels into line voltages.
    pub fn encode(&self, levels: &[u8]) -> Vec<f64> {
        levels
            .iter()
            .map(|&b| if b > 0 { self.v_high } else { self.v_low })
            .collect()
    }
}

/// The temperature encoder: maps a normalized annealing factor request
/// to a quantized back-gate voltage (the BG DAC of Fig. 6d).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TemperatureEncoder {
    /// Full-scale back-gate voltage (paper: 0.7 V).
    pub vbg_max: f64,
    /// DAC step (paper: 0.01 V).
    pub step: f64,
}

impl TemperatureEncoder {
    /// The paper's BG DAC.
    pub fn paper() -> TemperatureEncoder {
        TemperatureEncoder {
            vbg_max: 0.7,
            step: 0.01,
        }
    }

    /// Number of distinct output levels.
    pub fn level_count(&self) -> usize {
        (self.vbg_max / self.step).round() as usize + 1
    }

    /// Quantize a fraction of full scale to the DAC grid.
    pub fn encode_fraction(&self, fraction: f64) -> f64 {
        let v = (fraction.clamp(0.0, 1.0)) * self.vbg_max;
        (v / self.step).round() * self.step
    }
}

/// The shift-and-add pipeline: recombines per-bit-slice ADC codes into a
/// magnitude, then applies the polarity/phase signs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShiftAdd {
    /// Bits per weight (`k`).
    pub bits: u8,
}

impl ShiftAdd {
    /// Combine bit-slice values with binary weights: `Σ 2^b · code_b`.
    ///
    /// # Panics
    ///
    /// Panics if `codes.len() != bits`.
    pub fn combine(&self, codes: &[f64]) -> f64 {
        assert_eq!(codes.len(), self.bits as usize, "one code per bit slice");
        codes
            .iter()
            .enumerate()
            .map(|(b, &c)| (1u64 << b) as f64 * c)
            .sum()
    }

    /// Apply the polarity-plane and input-phase signs to a combined
    /// magnitude: `value · pos/neg-plane sign · row-phase sign · column
    /// sign`.
    pub fn apply_signs(
        &self,
        magnitude: f64,
        plane_positive: bool,
        phase_positive: bool,
        column_sign: i8,
    ) -> f64 {
        let plane = if plane_positive { 1.0 } else { -1.0 };
        let phase = if phase_positive { 1.0 } else { -1.0 };
        magnitude * plane * phase * column_sign as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_split_partitions_support() {
        let v = [1i8, -1, 0, 1, -1, 0];
        let (pos, neg) = split_input_phases(&v);
        assert_eq!(pos, vec![1, 0, 0, 1, 0, 0]);
        assert_eq!(neg, vec![0, 1, 0, 0, 1, 0]);
        // Supports are disjoint and zeros drive neither phase.
        for i in 0..v.len() {
            assert!(pos[i] & neg[i] == 0);
            if v[i] == 0 {
                assert_eq!(pos[i] + neg[i], 0);
            }
        }
    }

    #[test]
    fn spin_encoder_levels() {
        let enc = SpinEncoder::paper();
        assert_eq!(enc.encode(&[1, 0, 1]), vec![1.0, 0.0, 1.0]);
    }

    #[test]
    fn temperature_encoder_has_71_levels() {
        let enc = TemperatureEncoder::paper();
        assert_eq!(enc.level_count(), 71);
        assert!((enc.encode_fraction(0.5) - 0.35).abs() < 1e-12);
        assert_eq!(enc.encode_fraction(-1.0), 0.0);
        assert!((enc.encode_fraction(2.0) - 0.7).abs() < 1e-12);
        // Output always on the grid.
        for k in 0..=100 {
            let v = enc.encode_fraction(k as f64 / 100.0);
            let steps = v / enc.step;
            assert!((steps - steps.round()).abs() < 1e-9);
        }
    }

    #[test]
    fn shift_add_binary_weights() {
        let sa = ShiftAdd { bits: 4 };
        // codes for bits 0..3: value = 1·1 + 2·0 + 4·3 + 8·2 = 29.
        assert_eq!(sa.combine(&[1.0, 0.0, 3.0, 2.0]), 29.0);
    }

    #[test]
    fn sign_application() {
        let sa = ShiftAdd { bits: 1 };
        assert_eq!(sa.apply_signs(5.0, true, true, 1), 5.0);
        assert_eq!(sa.apply_signs(5.0, false, true, 1), -5.0);
        assert_eq!(sa.apply_signs(5.0, true, false, 1), -5.0);
        assert_eq!(sa.apply_signs(5.0, false, false, -1), -5.0);
    }

    #[test]
    #[should_panic(expected = "one code per bit slice")]
    fn shift_add_checks_arity() {
        let sa = ShiftAdd { bits: 3 };
        let _ = sa.combine(&[1.0]);
    }
}
