//! Double-gate (DG) FeFET model — the four-terminal device at the heart of
//! the paper's co-design (Sec. 2.2, Fig. 2c/2d; Sec. 3.3, Fig. 6a/6b).
//!
//! An FDSOI FeFET adds a non-ferroelectric back gate (BG) below the buried
//! oxide. The BG couples capacitively into the channel and shifts the
//! *effective* threshold voltage without disturbing the ferroelectric
//! state: `V_TH,eff = V_TH,FE − γ·V_BG`. The paper exploits this to make a
//! single transistor compute the four-input product
//! `I_SL = x · G · y · z` (front gate `x`, stored bit `G`, drain line `y`,
//! back gate analog `z`), which is exactly one term of the incremental-E
//! form `E_inc,p = σ_r · G · σ_c · f(T)`.

use serde::{Deserialize, Serialize};

use crate::fefet::{ChannelBias, FefetParams, StoredBit};

/// Parameters of the DG FeFET model: a front-gate FeFET plus back-gate
/// coupling.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DgFefetParams {
    /// Front-gate FeFET parameters (thresholds, slope, current scale).
    pub front: FefetParams,
    /// Back-gate coupling ratio `γ = ΔV_TH/ΔV_BG` through the buried oxide.
    pub bg_coupling: f64,
    /// Front-gate read voltage representing a logic `1` input, volts.
    pub v_read: f64,
    /// Drain-line voltage representing a logic `1` input, volts.
    pub v_drain: f64,
    /// Maximum back-gate voltage of the in-situ annealing flow
    /// (paper Sec. 3.4: `V_BG` spans 0.7 V → 0 V), volts.
    pub vbg_max: f64,
    /// Back-gate DAC resolution of the annealing flow, volts
    /// (paper: 0.01 V gradient).
    pub vbg_step: f64,
}

impl DgFefetParams {
    /// Defaults calibrated so the `I_SL–V_BG` response (Fig. 6b) rises from
    /// ≈0 at `V_BG = 0 V` to ≈10 µA at `V_BG = 0.7 V` for a stored `'1'`,
    /// with the stored-`'0'` branch pinned at leakage level, matching the
    /// 22 nm BSIM-IMG model behaviour the paper simulates.
    pub fn paper_reference() -> DgFefetParams {
        DgFefetParams {
            front: FefetParams {
                vth_low: 1.05,
                vth_high: 2.05,
                ideality: 1.5,
                i_spec: 1.05e-6,
                i_leak: 5.0e-10,
            },
            bg_coupling: 0.45,
            v_read: 1.0,
            v_drain: 1.0,
            vbg_max: 0.7,
            vbg_step: 0.01,
        }
    }
}

impl Default for DgFefetParams {
    fn default() -> DgFefetParams {
        DgFefetParams::paper_reference()
    }
}

/// A four-terminal DG FeFET cell.
///
/// # Examples
///
/// ```
/// use fecim_device::{DgFefet, StoredBit};
/// let mut cell = DgFefet::new(Default::default());
/// cell.program(StoredBit::One);
/// // Four-input multiply: all inputs high → current flows.
/// let on = cell.sl_current(true, true, 0.7);
/// // Any binary input low → (near) zero output.
/// let gated = cell.sl_current(false, true, 0.7);
/// assert!(on > 1e-6);
/// assert!(gated < on * 1e-3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DgFefet {
    params: DgFefetParams,
    state: StoredBit,
}

impl DgFefet {
    /// New cell in the erased (`'1'`) state.
    pub fn new(params: DgFefetParams) -> DgFefet {
        DgFefet {
            params,
            state: StoredBit::One,
        }
    }

    /// Model parameters.
    pub fn params(&self) -> &DgFefetParams {
        &self.params
    }

    /// Program the ferroelectric state. Back-gate biasing never changes the
    /// stored state (the paper's key device property), only programming
    /// pulses do.
    pub fn program(&mut self, bit: StoredBit) {
        self.state = bit;
    }

    /// `V_TH,FE − γ·V_BG`: the threshold before any static offset.
    fn biased_vth(&self, v_bg: f64) -> f64 {
        let base = match self.state {
            StoredBit::One => self.params.front.vth_low,
            StoredBit::Zero => self.params.front.vth_high,
        };
        base - self.params.bg_coupling * v_bg
    }

    /// Raw drain current for arbitrary terminal voltages (Fig. 2d curves).
    pub fn drain_current(&self, v_fg: f64, v_ds: f64, v_bg: f64) -> f64 {
        self.bias(v_fg, v_ds, v_bg).current(0.0)
    }

    /// The terminal bias of a read, shared by every cell of this stored
    /// state that the read drives alike: the per-cell work left is
    /// [`ChannelBias::current`] at the cell's own threshold offset.
    pub fn bias(&self, v_fg: f64, v_ds: f64, v_bg: f64) -> ChannelBias {
        ChannelBias::new(v_fg, v_ds, self.biased_vth(v_bg), &self.params.front)
    }

    /// The four-input multiply `I_SL = x·G·y·z` (paper Fig. 6a): binary
    /// front-gate input `x`, binary drain-line input `y`, analog back-gate
    /// voltage `v_bg` as `z`. Returns the source-line current in amperes.
    pub fn sl_current(&self, x: bool, y: bool, v_bg: f64) -> f64 {
        let v_fg = if x { self.params.v_read } else { 0.0 };
        let v_ds = if y { self.params.v_drain } else { 0.0 };
        self.drain_current(v_fg, v_ds, v_bg)
    }

    /// Sample the `I_SL–V_BG` characteristic with `x = y = 1`
    /// (paper Fig. 6b) over `[0, vbg_max]`.
    pub fn isl_vbg_curve(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "need at least two samples");
        (0..points)
            .map(|k| {
                let v = self.params.vbg_max * k as f64 / (points - 1) as f64;
                (v, self.sl_current(true, true, v))
            })
            .collect()
    }

    /// Sample an `I_D–V_FG` curve family over back-gate voltages
    /// (paper Fig. 2d): returns one curve per `v_bg` value.
    pub fn transfer_family(
        &self,
        v_fg_lo: f64,
        v_fg_hi: f64,
        points: usize,
        v_bg_values: &[f64],
        v_ds: f64,
    ) -> Vec<(f64, Vec<(f64, f64)>)> {
        assert!(points >= 2, "need at least two samples");
        v_bg_values
            .iter()
            .map(|&v_bg| {
                let curve = (0..points)
                    .map(|k| {
                        let v = v_fg_lo + (v_fg_hi - v_fg_lo) * k as f64 / (points - 1) as f64;
                        (v, self.drain_current(v, v_ds, v_bg))
                    })
                    .collect();
                (v_bg, curve)
            })
            .collect()
    }

    /// On-current at full back-gate bias (`x=y=1`, `V_BG = vbg_max`), the
    /// normalization reference for the fractional annealing factor
    /// (Fig. 6c "Normalized I_SL").
    pub fn full_scale_current(&self) -> f64 {
        let mut probe = self.clone();
        probe.program(StoredBit::One);
        probe.sl_current(true, true, self.params.vbg_max)
    }

    /// Quantize a requested back-gate voltage to the DAC grid
    /// (`vbg_step`, paper: 0.01 V), clamped to `[0, vbg_max]`.
    pub fn quantize_vbg(&self, v_bg: f64) -> f64 {
        let clamped = v_bg.clamp(0.0, self.params.vbg_max);
        (clamped / self.params.vbg_step).round() * self.params.vbg_step
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fefet::THERMAL_VOLTAGE;

    fn cell_storing(bit: StoredBit) -> DgFefet {
        let mut c = DgFefet::new(DgFefetParams::paper_reference());
        c.program(bit);
        c
    }

    #[test]
    fn four_input_multiply_truth_table() {
        let one = cell_storing(StoredBit::One);
        let zero = cell_storing(StoredBit::Zero);
        let v = 0.7;
        let on = one.sl_current(true, true, v);
        assert!(on > 1e-6, "on-current {on}");
        // Any zero input suppresses the output by orders of magnitude.
        for (x, y, cell) in [
            (false, true, &one),
            (true, false, &one),
            (false, false, &one),
            (true, true, &zero),
        ] {
            let i = cell.sl_current(x, y, v);
            assert!(i < on * 1e-2, "x={x} y={y} stored={:?}: {i}", cell.state);
        }
    }

    #[test]
    fn isl_rises_monotonically_with_vbg_for_stored_one() {
        let one = cell_storing(StoredBit::One);
        let curve = one.isl_vbg_curve(71);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
        let i_low = curve.first().unwrap().1;
        let i_high = curve.last().unwrap().1;
        assert!(i_high / i_low > 50.0, "dynamic range {}", i_high / i_low);
        // Fig. 6b scale: ~10 µA at V_BG = 0.7 V.
        assert!(i_high > 3e-6 && i_high < 3e-5, "i_high={i_high}");
    }

    #[test]
    fn stored_zero_branch_stays_at_leakage_level() {
        let zero = cell_storing(StoredBit::Zero);
        let curve = zero.isl_vbg_curve(15);
        let one = cell_storing(StoredBit::One);
        let full = one.full_scale_current();
        for (v, i) in curve {
            assert!(i < full * 1e-2, "V_BG={v}: leakage {i} too high");
        }
    }

    #[test]
    fn bg_bias_does_not_change_stored_state() {
        let c = cell_storing(StoredBit::One);
        let _ = c.sl_current(true, true, 0.7);
        let _ = c.sl_current(true, true, 0.0);
        assert_eq!(c.state, StoredBit::One);
    }

    #[test]
    fn transfer_family_shifts_left_with_increasing_vbg() {
        let c = cell_storing(StoredBit::One);
        let family = c.transfer_family(-0.5, 1.5, 21, &[-1.0, 0.0, 1.0], 1.0);
        assert_eq!(family.len(), 3);
        // At a fixed V_FG in the transition region, higher V_BG → higher I.
        let probe = 10; // middle sample
        let i_m1 = family[0].1[probe].1;
        let i_0 = family[1].1[probe].1;
        let i_p1 = family[2].1[probe].1;
        assert!(i_m1 < i_0 && i_0 < i_p1);
    }

    #[test]
    fn effective_vth_follows_coupling_ratio() {
        let c = cell_storing(StoredBit::One);
        let g = c.params().bg_coupling;
        let v0 = c.biased_vth(0.0);
        let v1 = c.biased_vth(1.0);
        assert!((v0 - v1 - g).abs() < 1e-12);
    }

    #[test]
    fn quantize_vbg_respects_grid_and_clamp() {
        let c = cell_storing(StoredBit::One);
        assert!((c.quantize_vbg(0.344) - 0.34).abs() < 1e-12);
        assert!((c.quantize_vbg(0.346) - 0.35).abs() < 1e-12);
        assert_eq!(c.quantize_vbg(-0.3), 0.0);
        assert!((c.quantize_vbg(2.0) - 0.7).abs() < 1e-12);
    }

    /// The channel equation as a cell evaluates it alone, term by term.
    fn reference_sl_current(cell: &DgFefet, v_bg: f64, vth_offset: f64) -> (f64, f64) {
        let p = cell.params();
        let (v_fg, v_ds) = (p.v_read, p.v_drain);
        let phi = 2.0 * p.front.ideality * THERMAL_VOLTAGE;
        let x = (v_fg - (cell.biased_vth(v_bg) + vth_offset)) / phi;
        if v_ds <= 0.0 {
            return (x, p.front.i_leak);
        }
        let soft = if x > 30.0 { x } else { x.exp().ln_1p() };
        let saturation = 1.0 - (-v_ds / THERMAL_VOLTAGE).exp();
        (
            x,
            p.front.i_spec * soft * soft * saturation + p.front.i_leak,
        )
    }

    #[test]
    fn hoisted_bias_matches_per_cell_evaluation_bit_for_bit() {
        let reference = DgFefetParams::paper_reference();
        let leak_only = DgFefetParams {
            v_drain: 0.0,
            ..reference
        };
        let (mut saw_linear, mut saw_deep_off) = (false, false);
        for params in [reference, leak_only] {
            for bit in [StoredBit::One, StoredBit::Zero] {
                for v_bg in [0.0, 0.33, 0.7] {
                    let mut cell = DgFefet::new(params);
                    cell.program(bit);
                    let bias = cell.bias(params.v_read, params.v_drain, v_bg);
                    assert_eq!(
                        bias.current(0.0).to_bits(),
                        cell.sl_current(true, true, v_bg).to_bits()
                    );
                    // -3 V pushes x past the linear branch (x > 30), +2 V
                    // deep below threshold (x ≪ 0).
                    for offset in [-3.0, -0.3, 0.0, 0.02, 0.5, 2.0] {
                        let (x, want) = reference_sl_current(&cell, v_bg, offset);
                        saw_linear |= x > 30.0;
                        saw_deep_off |= x < -20.0;
                        let got = bias.current(offset);
                        assert_eq!(got.to_bits(), want.to_bits(), "{bit:?} {v_bg} {offset}");
                        if params.v_drain == 0.0 {
                            assert_eq!(got, params.front.i_leak);
                        }
                    }
                }
            }
        }
        assert!(saw_linear && saw_deep_off);
    }

    #[test]
    fn full_scale_current_ignores_state_and_offset() {
        let c = cell_storing(StoredBit::Zero);
        let one = cell_storing(StoredBit::One);
        assert!((c.full_scale_current() - one.full_scale_current()).abs() < 1e-18);
        // The reference is the nominal cell's: a threshold offset of the
        // kind the crossbar draws per cell shifts a read, never it.
        let p = one.params();
        let bias = one.bias(p.v_read, p.v_drain, p.vbg_max);
        assert_eq!(c.full_scale_current(), bias.current(0.0));
        assert_ne!(c.full_scale_current(), bias.current(0.2));
    }
}
