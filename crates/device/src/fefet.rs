//! Behavioural FeFET transistor model (paper Fig. 2a/2b).
//!
//! The channel current uses the EKV interpolation
//! `I_D = I_spec · ln²(1 + exp((V_G − V_TH)/(2 n V_t))) · sat(V_DS)`,
//! which reproduces the exponential subthreshold slope
//! (`SS = n·V_t·ln 10`) and the square-law strong-inversion region the
//! measured `I_D–V_G` curves of the paper's reference device show. The
//! ferroelectric state enters through the programmable threshold voltage
//! `V_TH`; the polarization dynamics behind it live in
//! [`crate::preisach`].
//!
//! This replaces the SPECTRE + Preisach compact-model setup of the paper
//! (refs [34], [35]) with a self-contained Rust model exposing the same
//! curve-level contract (see DESIGN.md substitution table).

use serde::{Deserialize, Serialize};

/// Thermal voltage at 300 K in volts.
pub(crate) const THERMAL_VOLTAGE: f64 = 0.02585;

/// Stored ferroelectric state of a FeFET cell, i.e. the programmed
/// threshold voltage level. `One` (low `V_TH`) conducts, `Zero` (high
/// `V_TH`) blocks — the `G = '1'/'0'` convention of paper Fig. 6a.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StoredBit {
    /// Low-`V_TH` state (erased, polarization up) — conducting.
    One,
    /// High-`V_TH` state (programmed, polarization down) — blocking.
    Zero,
}

/// Electrical parameters of the behavioural FeFET model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FefetParams {
    /// Threshold voltage of the low-`V_TH` (erased, `'1'`) state, volts.
    pub vth_low: f64,
    /// Threshold voltage of the high-`V_TH` (programmed, `'0'`) state, volts.
    pub vth_high: f64,
    /// Subthreshold ideality factor `n` (SS = n·V_t·ln10).
    pub ideality: f64,
    /// Specific current `I_spec` in amperes (sets the on-current scale).
    pub i_spec: f64,
    /// Gate-independent leakage floor in amperes.
    pub i_leak: f64,
}

impl FefetParams {
    /// Parameters calibrated to the experimentally measured 28 nm HKMG
    /// FeFET curves reproduced in paper Fig. 2b: memory window ≈ 1 V,
    /// `SS ≈ 90 mV/dec`, on-current ≈ 10⁻⁴ A at `V_G = 1.5 V`,
    /// off floor ≈ 10⁻⁹ A.
    pub fn paper_reference() -> FefetParams {
        FefetParams {
            vth_low: 0.0,
            vth_high: 1.0,
            ideality: 1.5,
            i_spec: 2.7e-7,
            i_leak: 1.0e-9,
        }
    }

    /// Memory window `V_TH,high − V_TH,low` in volts.
    pub fn memory_window(&self) -> f64 {
        self.vth_high - self.vth_low
    }

    /// Subthreshold swing in mV/decade.
    pub fn subthreshold_swing_mv(&self) -> f64 {
        self.ideality * THERMAL_VOLTAGE * std::f64::consts::LN_10 * 1e3
    }
}

impl Default for FefetParams {
    fn default() -> FefetParams {
        FefetParams::paper_reference()
    }
}

/// A single (front-gate-only) FeFET device with a programmable `V_TH`.
///
/// # Examples
///
/// ```
/// use fecim_device::{Fefet, StoredBit};
/// let mut fefet = Fefet::new(Default::default());
/// // Read inside the memory window so the two states separate.
/// fefet.program(StoredBit::One);
/// let on = fefet.drain_current(0.5, 0.5);
/// fefet.program(StoredBit::Zero);
/// let off = fefet.drain_current(0.5, 0.5);
/// assert!(on / off > 1e3, "ON/OFF ratio must be large");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fefet {
    params: FefetParams,
    state: StoredBit,
}

impl Fefet {
    /// New device in the erased (`'1'`, low-`V_TH`) state.
    pub fn new(params: FefetParams) -> Fefet {
        Fefet {
            params,
            state: StoredBit::One,
        }
    }

    /// Model parameters.
    pub fn params(&self) -> &FefetParams {
        &self.params
    }

    /// Program the ferroelectric state (ideal full-switching pulse; for
    /// partial switching dynamics use [`crate::preisach::PreisachFefet`]).
    pub fn program(&mut self, bit: StoredBit) {
        self.state = bit;
    }

    /// Threshold voltage of the stored state, before the static offset.
    fn programmed_vth(&self) -> f64 {
        match self.state {
            StoredBit::One => self.params.vth_low,
            StoredBit::Zero => self.params.vth_high,
        }
    }

    /// Drain current at gate voltage `v_g` and drain-source voltage `v_ds`
    /// (both volts), in amperes.
    pub fn drain_current(&self, v_g: f64, v_ds: f64) -> f64 {
        ChannelBias::new(v_g, v_ds, self.programmed_vth(), &self.params).current(0.0)
    }

    /// Sample the `I_D–V_G` transfer curve (paper Fig. 2b) over
    /// `[v_lo, v_hi]` with `points` samples at fixed `v_ds`.
    ///
    /// # Panics
    ///
    /// Panics if `points < 2` or `v_hi <= v_lo`.
    pub fn transfer_curve(
        &self,
        v_lo: f64,
        v_hi: f64,
        points: usize,
        v_ds: f64,
    ) -> Vec<(f64, f64)> {
        assert!(points >= 2, "need at least two samples");
        assert!(v_hi > v_lo, "empty sweep range");
        (0..points)
            .map(|k| {
                let v = v_lo + (v_hi - v_lo) * k as f64 / (points - 1) as f64;
                (v, self.drain_current(v, v_ds))
            })
            .collect()
    }
}

/// The EKV channel of one stored state at fixed terminal voltages: every
/// term of the channel current except the cell's own static threshold
/// offset, evaluated once, so a read that biases many cells alike pays
/// per cell only for [`ChannelBias::current`]. This is the one copy of
/// the channel equation the FeFET and DG FeFET models share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelBias {
    v_g: f64,
    /// Threshold voltage before the static offset (for the DG FeFET,
    /// `V_TH,FE − γ·V_BG`).
    vth: f64,
    /// `V_DS ≤ 0`: without drain bias only leakage flows.
    leak_only: bool,
    /// `2 n V_t`, the EKV slope normalization.
    phi: f64,
    /// `1 − exp(−V_DS/V_t)`.
    saturation: f64,
    i_spec: f64,
    i_leak: f64,
}

impl ChannelBias {
    /// Bias point at gate voltage `v_g`, drain-source voltage `v_ds` and
    /// pre-offset threshold `vth`.
    pub(crate) fn new(v_g: f64, v_ds: f64, vth: f64, params: &FefetParams) -> ChannelBias {
        ChannelBias {
            v_g,
            vth,
            leak_only: v_ds <= 0.0,
            phi: 2.0 * params.ideality * THERMAL_VOLTAGE,
            saturation: 1.0 - (-v_ds / THERMAL_VOLTAGE).exp(),
            i_spec: params.i_spec,
            i_leak: params.i_leak,
        }
    }

    /// Drain current, in amperes, of a cell whose threshold carries the
    /// static offset `vth_offset`:
    /// `I_spec · ln²(1 + exp((V_G − V_TH)/(2 n V_t))) · sat(V_DS) + I_leak`.
    pub fn current(&self, vth_offset: f64) -> f64 {
        if self.leak_only {
            return self.i_leak;
        }
        let x = (self.v_g - (self.vth + vth_offset)) / self.phi;
        // ln(1+e^x) computed stably for large |x|.
        let soft = if x > 30.0 { x } else { x.exp().ln_1p() };
        self.i_spec * soft * soft * self.saturation + self.i_leak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn on_off_ratio_exceeds_three_decades_at_read_voltage() {
        // Read at the middle of the memory window (V_G = 0.5 V), where the
        // measured curves of paper Fig. 2b separate by >4 decades.
        let mut d = Fefet::new(FefetParams::paper_reference());
        d.program(StoredBit::One);
        let on = d.drain_current(0.5, 1.0);
        d.program(StoredBit::Zero);
        let off = d.drain_current(0.5, 1.0);
        assert!(on > 1e-6, "on-current {on} too small");
        assert!(on / off > 1e3, "on/off {}", on / off);
    }

    #[test]
    fn transfer_curve_is_monotone_in_gate_voltage() {
        let d = Fefet::new(FefetParams::paper_reference());
        let curve = d.transfer_curve(-0.5, 1.5, 41, 0.5);
        assert_eq!(curve.len(), 41);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1, "current must not decrease with V_G");
        }
    }

    #[test]
    fn subthreshold_slope_near_90mv_per_decade() {
        let d = Fefet::new(FefetParams::paper_reference());
        // Deep subthreshold for the low-VTH state: sample at −0.4 and −0.3 V.
        let i1 = d.drain_current(-0.40, 1.0) - d.params().i_leak;
        let i2 = d.drain_current(-0.30, 1.0) - d.params().i_leak;
        let decades = (i2 / i1).log10();
        let ss = 100.0 / decades; // mV per decade
        let expected = d.params().subthreshold_swing_mv();
        assert!(
            (ss - expected).abs() / expected < 0.15,
            "ss={ss} expected≈{expected}"
        );
    }

    #[test]
    fn memory_window_shifts_curve_by_one_volt() {
        let p = FefetParams::paper_reference();
        assert!((p.memory_window() - 1.0).abs() < 1e-12);
        let mut d = Fefet::new(p);
        d.program(StoredBit::One);
        let i_low = d.drain_current(0.5, 1.0);
        d.program(StoredBit::Zero);
        // Same overdrive, shifted gate voltage: currents must match closely.
        let i_high = d.drain_current(1.5, 1.0);
        assert!((i_low - i_high).abs() / i_low < 1e-9);
    }

    #[test]
    fn zero_drain_bias_gives_leakage_only() {
        let d = Fefet::new(FefetParams::paper_reference());
        assert_eq!(d.drain_current(1.5, 0.0), d.params().i_leak);
    }

    #[test]
    fn vth_offset_shifts_current() {
        let d = Fefet::new(FefetParams::paper_reference());
        let bias = ChannelBias::new(0.5, 1.0, d.programmed_vth(), d.params());
        let base = bias.current(0.0);
        assert_eq!(base, d.drain_current(0.5, 1.0));
        assert!(bias.current(0.1) < base);
        assert!(bias.current(-0.1) > base);
    }
}
