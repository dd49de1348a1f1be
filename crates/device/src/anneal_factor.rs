//! The annealing factor `f(T)` of the incremental-E transformation
//! (paper Eq. 10–11 and Fig. 6c) and its mapping onto the back-gate
//! voltage.
//!
//! Requirements from the paper: `f(T) ≥ 0` (the Metropolis factor it
//! replaces is positive) and `f` monotone in `T` so it can be generated by
//! ramping `V_BG`. Three implementations are provided:
//!
//! * [`FractionalFactor`] — the analytic `a/(bT+c) + d` form;
//! * [`DeviceFactor`] — the *physical* factor: the normalized SL current
//!   of a DG FeFET under the quantized `V_BG(T)` mapping (this is what the
//!   in-situ annealer actually computes);
//! * [`TableFactor`] — an arbitrary sampled curve (for ablations).

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::dg_fefet::DgFefet;
use crate::fefet::StoredBit;

/// Error raised when a calibration curve or a fractional form cannot
/// define an annealing factor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CurveError {
    /// Empty or single-point curve: interpolation needs at least two
    /// `(T, f)` samples.
    TooFewPoints(usize),
    /// Temperatures must be strictly increasing; the entry at this index
    /// is not above its predecessor.
    NotIncreasing(usize),
    /// The factor replaces a positive Metropolis quantity; the entry at
    /// this index is negative.
    NegativeFactor(usize),
    /// The temperature range `[0, t_max]` is empty: `t_max` is not
    /// positive.
    EmptyRange,
    /// The fractional form's denominator `bT + c` reaches zero on
    /// `[0, t_max]`, so the factor would blow up mid-anneal.
    PoleInRange,
}

impl fmt::Display for CurveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CurveError::TooFewPoints(n) => write!(
                f,
                "calibration curve needs at least 2 points, got {n} (empty or degenerate curve)"
            ),
            CurveError::NotIncreasing(i) => write!(
                f,
                "calibration curve temperatures must be strictly increasing (violated at index {i})"
            ),
            CurveError::NegativeFactor(i) => write!(
                f,
                "calibration curve factors must be non-negative (violated at index {i})"
            ),
            CurveError::EmptyRange => {
                write!(f, "the temperature range [0, t_max] needs t_max > 0")
            }
            CurveError::PoleInRange => write!(
                f,
                "the denominator bT + c must not change sign over [0, t_max]"
            ),
        }
    }
}

impl Error for CurveError {}

/// The temperature-dependent annealing factor `f(T)` with `T` normalized
/// to `[0, t_max]`.
pub trait AnnealFactor {
    /// Evaluate `f` at temperature `t` (clamped to the valid range).
    fn factor(&self, t: f64) -> f64;

    /// Upper end of the temperature range (the annealing start).
    fn t_max(&self) -> f64;
}

/// The analytic fractional factor `f(T) = a/(bT + c) + d` (paper Eq. 11).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FractionalFactor {
    a: f64,
    b: f64,
    c: f64,
    d: f64,
    t_max: f64,
}

impl FractionalFactor {
    /// Build a factor whose denominator keeps one sign over `[0, t_max]`.
    ///
    /// # Errors
    ///
    /// [`CurveError::EmptyRange`] unless `t_max > 0`,
    /// [`CurveError::PoleInRange`] when `bT + c` is zero or changes sign
    /// on `[0, t_max]`.
    pub fn try_new(
        a: f64,
        b: f64,
        c: f64,
        d: f64,
        t_max: f64,
    ) -> Result<FractionalFactor, CurveError> {
        if t_max.is_nan() || t_max <= 0.0 {
            return Err(CurveError::EmptyRange);
        }
        // `bT + c` is linear in T: one sign at both ends means one sign
        // on the whole range.
        let ends = c * (b * t_max + c);
        if ends.is_nan() || ends <= 0.0 {
            return Err(CurveError::PoleInRange);
        }
        Ok(FractionalFactor { a, b, c, d, t_max })
    }

    /// The constants the paper reads off the DG FeFET curve:
    /// `f(T) ≈ 1/(−0.006·T + 5) − 0.2` on `T ∈ [0, 700]` (Fig. 6c).
    pub fn paper() -> FractionalFactor {
        FractionalFactor {
            a: 1.0,
            b: -0.006,
            c: 5.0,
            d: -0.2,
            t_max: 700.0,
        }
    }
}

impl AnnealFactor for FractionalFactor {
    fn factor(&self, t: f64) -> f64 {
        let t = t.clamp(0.0, self.t_max);
        (self.a / (self.b * t + self.c) + self.d).max(0.0)
    }

    fn t_max(&self) -> f64 {
        self.t_max
    }
}

/// The physical annealing factor: normalized `I_SL(V_BG(T))` of a DG FeFET
/// storing `'1'`, with `V_BG` linearly mapped from `T` and quantized to the
/// BG DAC grid (paper Sec. 3.4: 0.7 V → 0 V in 0.01 V steps).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceFactor {
    cell: DgFefet,
    t_max: f64,
    full_scale: f64,
}

impl DeviceFactor {
    /// Build from a reference cell; the cell is reprogrammed to `'1'` and
    /// its full-scale current becomes the normalization.
    pub fn new(mut cell: DgFefet, t_max: f64) -> DeviceFactor {
        assert!(t_max > 0.0, "t_max must be positive");
        cell.program(StoredBit::One);
        let full_scale = cell.full_scale_current();
        DeviceFactor {
            cell,
            t_max,
            full_scale,
        }
    }

    /// The paper's operating point: `T ∈ [0, 700]` mapped onto
    /// `V_BG ∈ [0, 0.7 V]`.
    pub fn paper() -> DeviceFactor {
        DeviceFactor::new(DgFefet::new(Default::default()), 700.0)
    }

    /// Back-gate voltage for a temperature (after DAC quantization).
    pub fn vbg_for(&self, t: f64) -> f64 {
        let frac = (t / self.t_max).clamp(0.0, 1.0);
        self.cell.quantize_vbg(frac * self.cell.params().vbg_max)
    }

    /// Sample `(T, f(T))` over the whole range (for fitting/plotting).
    pub fn samples(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2, "need at least two samples");
        (0..points)
            .map(|k| {
                let t = self.t_max * k as f64 / (points - 1) as f64;
                (t, self.factor(t))
            })
            .collect()
    }
}

impl AnnealFactor for DeviceFactor {
    fn factor(&self, t: f64) -> f64 {
        let vbg = self.vbg_for(t);
        // Normalized current, leakage floor removed so f(0) ≈ 0 like the
        // paper's curve.
        let i = self.cell.sl_current(true, true, vbg);
        let i0 = self.cell.params().front.i_leak;
        ((i - i0) / self.full_scale).max(0.0)
    }

    fn t_max(&self) -> f64 {
        self.t_max
    }
}

/// A factor defined by linear interpolation over sampled `(T, f)` points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TableFactor {
    points: Vec<(f64, f64)>,
}

impl TableFactor {
    /// Build from samples sorted by temperature, reporting *why* a curve
    /// is unusable instead of crashing — the entry point for calibration
    /// data read from files or configs.
    ///
    /// # Errors
    ///
    /// [`CurveError::TooFewPoints`] for an empty or single-point curve,
    /// [`CurveError::NotIncreasing`] for unsorted temperatures,
    /// [`CurveError::NegativeFactor`] for a negative factor sample,
    /// [`CurveError::EmptyRange`] when the last temperature is not
    /// positive.
    pub fn try_new(points: Vec<(f64, f64)>) -> Result<TableFactor, CurveError> {
        if points.len() < 2 {
            return Err(CurveError::TooFewPoints(points.len()));
        }
        for (i, w) in points.windows(2).enumerate() {
            if w[1].0 <= w[0].0 {
                return Err(CurveError::NotIncreasing(i + 1));
            }
        }
        for (i, &(_, f)) in points.iter().enumerate() {
            if f < 0.0 {
                return Err(CurveError::NegativeFactor(i));
            }
        }
        let t_max = points[points.len() - 1].0;
        if t_max.is_nan() || t_max <= 0.0 {
            return Err(CurveError::EmptyRange);
        }
        Ok(TableFactor { points })
    }
}

impl AnnealFactor for TableFactor {
    fn factor(&self, t: f64) -> f64 {
        // Construction guarantees at least two points.
        let first = self.points[0];
        let last = self.points[self.points.len() - 1];
        if t <= first.0 {
            return first.1;
        }
        if t >= last.0 {
            return last.1;
        }
        let idx = self
            .points
            .partition_point(|&(pt, _)| pt <= t)
            .min(self.points.len() - 1);
        let (t0, f0) = self.points[idx - 1];
        let (t1, f1) = self.points[idx];
        f0 + (f1 - f0) * (t - t0) / (t1 - t0)
    }

    fn t_max(&self) -> f64 {
        self.points[self.points.len() - 1].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::fit_fractional;

    #[test]
    fn paper_factor_endpoints() {
        let f = FractionalFactor::paper();
        assert!(f.factor(0.0).abs() < 1e-12, "f(0) = 1/5 − 0.2 = 0");
        let top = f.factor(700.0);
        assert!((top - (1.0 / 0.8 - 0.2)).abs() < 1e-12, "f(700) = 1.05");
    }

    #[test]
    fn paper_factor_is_monotone_increasing() {
        let f = FractionalFactor::paper();
        let mut prev = -1.0;
        for k in 0..=70 {
            let v = f.factor(10.0 * k as f64);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn pole_inside_range_is_rejected() {
        // Denominator 5 − 0.01·T crosses zero at T = 500 < 700.
        assert_eq!(
            FractionalFactor::try_new(1.0, -0.01, 5.0, -0.2, 700.0),
            Err(CurveError::PoleInRange)
        );
        // A pole exactly at an end is rejected too; the paper's constants
        // pass the same check.
        assert_eq!(
            FractionalFactor::try_new(1.0, -0.01, 5.0, -0.2, 500.0),
            Err(CurveError::PoleInRange)
        );
        assert_eq!(
            FractionalFactor::try_new(1.0, -0.006, 5.0, -0.2, 700.0),
            Ok(FractionalFactor::paper())
        );
        for t_max in [0.0, -1.0, f64::NAN] {
            assert_eq!(
                FractionalFactor::try_new(1.0, -0.006, 5.0, -0.2, t_max),
                Err(CurveError::EmptyRange)
            );
        }
    }

    #[test]
    fn device_factor_is_monotone_and_normalized() {
        let f = DeviceFactor::paper();
        let samples = f.samples(71);
        for w in samples.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-12);
        }
        assert!(samples[0].1 < 0.05, "f(0) ≈ 0, got {}", samples[0].1);
        let top = samples.last().unwrap().1;
        assert!((top - 1.0).abs() < 0.05, "f(t_max) ≈ 1, got {top}");
    }

    #[test]
    fn device_factor_quantizes_vbg_to_dac_grid() {
        let f = DeviceFactor::paper();
        let v = f.vbg_for(353.0); // 0.353·0.7 ≈ 0.2471 → 0.25
        let steps = v / 0.01;
        assert!((steps - steps.round()).abs() < 1e-9, "vbg={v} not on grid");
    }

    #[test]
    fn device_curve_is_well_approximated_by_fractional_form() {
        // The paper's claim behind Fig. 6c: the device curve fits
        // a/(bT+c)+d with small residual.
        let f = DeviceFactor::paper();
        let fit = fit_fractional(&f.samples(71)).expect("fit converges");
        assert!(fit.rmse < 0.05, "rmse={}", fit.rmse);
        assert!(fit.b < 0.0, "denominator must shrink with T, b={}", fit.b);
    }

    #[test]
    fn table_factor_interpolates_and_clamps() {
        let t = TableFactor::try_new(vec![(0.0, 0.0), (10.0, 1.0)]).unwrap();
        assert_eq!(t.factor(-5.0), 0.0);
        assert_eq!(t.factor(5.0), 0.5);
        assert_eq!(t.factor(20.0), 1.0);
        assert_eq!(t.t_max(), 10.0);
    }

    #[test]
    fn table_factor_requires_sorted_points() {
        let err = TableFactor::try_new(vec![(1.0, 0.0), (0.0, 1.0)]).expect_err("unsorted");
        assert_eq!(err, CurveError::NotIncreasing(1));
        assert!(err.to_string().contains("increasing"), "{err}");
    }

    #[test]
    fn empty_and_degenerate_curves_are_descriptive_errors() {
        let err = TableFactor::try_new(Vec::new()).expect_err("empty curve");
        assert_eq!(err, CurveError::TooFewPoints(0));
        assert!(err.to_string().contains("at least 2 points"), "{err}");
        assert_eq!(
            TableFactor::try_new(vec![(0.0, 1.0)]),
            Err(CurveError::TooFewPoints(1))
        );
        assert_eq!(
            TableFactor::try_new(vec![(0.0, 1.0), (0.0, 2.0)]),
            Err(CurveError::NotIncreasing(1))
        );
        assert_eq!(
            TableFactor::try_new(vec![(0.0, 1.0), (1.0, -0.5)]),
            Err(CurveError::NegativeFactor(1))
        );
        // The range [0, t_max] must not be empty.
        assert_eq!(
            TableFactor::try_new(vec![(-2.0, 0.0), (0.0, 1.0)]),
            Err(CurveError::EmptyRange)
        );
        // A valid curve still builds.
        assert!(TableFactor::try_new(vec![(0.0, 0.0), (1.0, 1.0)]).is_ok());
    }
}
