//! Temperature schedules.
//!
//! The baselines use classical geometric cooling; the in-situ
//! annealer uses the paper's stepped descent (Sec. 3.4): the temperature
//! maps onto the back-gate voltage grid (0.7 V → 0 V in 0.01 V steps), is
//! held for a pre-set number of iterations per level, and pins to zero at
//! the end of the run.
//!
//! Geometric cooling is `T_k = T_0 · α^k` with `α^k` the binary-exponent
//! product: the repeated squares `α, α², α⁴, …` are computed once, and
//! `T_k` multiplies in the squares for the set bits of `k`, lowest bit
//! first. That is the evaluation `f64::powi` performs (the `__powidf2`
//! runtime routine), so below `k = 2³¹` it equals `T_0 · α.powi(k)` bit for
//! bit on the CI toolchain, pinned by this module's tests, at a few
//! multiplies instead of a library call per iteration. Unlike `powi`'s
//! `i32` exponent it takes all 64 bits of `k`, so it keeps cooling for
//! every iteration index.

/// A cooling schedule: temperature as a function of the iteration index.
pub trait Schedule {
    /// Temperature at `iteration` (0-based).
    fn temperature(&self, iteration: usize) -> f64;
}

/// Geometric cooling `T_k = T_0 · α^k` (see the module doc for how `α^k`
/// is evaluated).
#[derive(Debug, Clone, PartialEq)]
pub struct GeometricSchedule {
    t0: f64,
    /// `squares[b] = α^(2^b)`, each the square of the one before.
    squares: [f64; 64],
}

impl GeometricSchedule {
    /// Build from an initial temperature and decay rate `α ∈ (0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics on non-positive `t0` or `alpha` outside `(0, 1]`.
    pub fn new(t0: f64, alpha: f64) -> GeometricSchedule {
        assert!(t0 > 0.0, "t0 must be positive");
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        GeometricSchedule::from_alpha(t0, alpha)
    }

    fn from_alpha(t0: f64, alpha: f64) -> GeometricSchedule {
        let mut squares = [alpha; 64];
        for b in 1..64 {
            squares[b] = squares[b - 1] * squares[b - 1];
        }
        GeometricSchedule { t0, squares }
    }

    /// Choose `α` so the schedule decays from `t0` to `t_end` over
    /// `iterations` steps.
    ///
    /// # Panics
    ///
    /// Panics if `t_end >= t0`, either is non-positive, or
    /// `iterations == 0`.
    pub fn over_iterations(t0: f64, t_end: f64, iterations: usize) -> GeometricSchedule {
        assert!(t0 > 0.0 && t_end > 0.0 && t_end < t0, "need 0 < t_end < t0");
        assert!(iterations > 0, "need at least one iteration");
        GeometricSchedule::from_alpha(t0, (t_end / t0).powf(1.0 / iterations as f64))
    }

    /// The decay rate α.
    pub fn alpha(&self) -> f64 {
        self.squares[0]
    }
}

impl Schedule for GeometricSchedule {
    fn temperature(&self, iteration: usize) -> f64 {
        let mut bits = iteration as u64;
        let mut power = 1.0;
        while bits != 0 {
            power *= self.squares[bits.trailing_zeros() as usize];
            bits &= bits - 1;
        }
        self.t0 * power
    }
}

/// The paper's stepped back-gate descent: `levels + 1` discrete
/// temperature plateaus from `t_max` down to exactly `0`, each held for
/// `iterations / (levels + 1)` iterations (the "pre-set number of
/// iterations" of Sec. 3.4). With `t_max = 700` and `levels = 70` the
/// plateaus map 1:1 onto the 0.7 V → 0 V, 0.01 V back-gate grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteppedSchedule {
    t_max: f64,
    levels: usize,
    hold: usize,
}

impl SteppedSchedule {
    /// Build a stepped descent over a run of `total_iterations`.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero/non-positive.
    pub fn over_iterations(t_max: f64, levels: usize, total_iterations: usize) -> SteppedSchedule {
        assert!(t_max > 0.0, "t_max must be positive");
        assert!(levels > 0, "need at least one level");
        assert!(total_iterations > 0, "need at least one iteration");
        let hold = (total_iterations / (levels + 1)).max(1);
        SteppedSchedule {
            t_max,
            levels,
            hold,
        }
    }

    /// The paper's grid: 70 levels (0.01 V steps over 0.7 V), `t_max=700`.
    pub fn paper(total_iterations: usize) -> SteppedSchedule {
        SteppedSchedule::over_iterations(700.0, 70, total_iterations)
    }
}

impl Schedule for SteppedSchedule {
    fn temperature(&self, iteration: usize) -> f64 {
        let level = (iteration / self.hold).min(self.levels);
        self.t_max * (1.0 - level as f64 / self.levels as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_hits_target_at_horizon() {
        let s = GeometricSchedule::over_iterations(10.0, 0.1, 100);
        assert!((s.temperature(0) - 10.0).abs() < 1e-12);
        assert!((s.temperature(100) - 0.1).abs() < 1e-9);
        assert!(s.temperature(50) > 0.1 && s.temperature(50) < 10.0);
    }

    #[test]
    fn geometric_is_monotone_decreasing() {
        let s = GeometricSchedule::new(5.0, 0.99);
        for k in 0..100 {
            assert!(s.temperature(k + 1) < s.temperature(k));
        }
    }

    /// The decay rates the engines run: `DirectAnnealer`'s `T_0 → T_0/100`
    /// and every MESA epoch's (`MesaConfig::new`) at the paper budgets,
    /// plus 0.5 and 1.0.
    fn engine_alphas() -> Vec<f64> {
        let mut alphas = vec![0.5, 1.0];
        for budget in [700, 10_000, 100_000] {
            alphas.push(GeometricSchedule::over_iterations(1.0, 1e-2, budget).alpha());
            let mesa = crate::MesaConfig::new(budget, 1.0, 0);
            for epoch in 0..mesa.epochs {
                let t0 = (mesa.t0 * mesa.reheat.powi(epoch as i32)).max(mesa.t_end * 2.0);
                let s =
                    GeometricSchedule::over_iterations(t0, mesa.t_end, mesa.iterations_per_epoch);
                alphas.push(s.alpha());
            }
        }
        alphas
    }

    #[test]
    fn geometric_equals_powi_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        for alpha in engine_alphas() {
            let s = GeometricSchedule::new(3.5, alpha);
            let samples =
                (0..1usize << 20).chain((0..4096).map(|_| rng.gen_range(0..i32::MAX as usize)));
            for k in samples {
                assert_eq!(
                    s.temperature(k).to_bits(),
                    (3.5 * alpha.powi(k as i32)).to_bits(),
                    "alpha {alpha}, k {k}"
                );
            }
        }
    }

    #[test]
    fn geometric_keeps_cooling_past_i32_iterations() {
        for alpha in engine_alphas() {
            let s = GeometricSchedule::new(3.5, alpha);
            let ts: Vec<f64> = [(1usize << 31) - 1, 1 << 31, 1 << 32, (1 << 32) + 5]
                .into_iter()
                .map(|k| s.temperature(k))
                .collect();
            for w in ts.windows(2) {
                assert!(
                    w[0].is_finite() && w[1].is_finite(),
                    "alpha {alpha}: {ts:?}"
                );
                assert!(w[1] >= 0.0 && w[1] <= w[0], "alpha {alpha}: {ts:?}");
            }
        }
    }

    #[test]
    fn stepped_descends_to_exactly_zero() {
        let s = SteppedSchedule::paper(710);
        assert_eq!(s.temperature(0), 700.0);
        // hold = 710/71 = 10 iterations per level.
        assert_eq!(s.hold, 10);
        assert_eq!(s.temperature(9), 700.0, "plateau holds");
        assert!((s.temperature(10) - 690.0).abs() < 1e-9, "one 0.01V step");
        assert_eq!(s.temperature(700), 0.0);
        assert_eq!(s.temperature(10_000), 0.0, "V_BG pins at zero");
    }

    #[test]
    fn stepped_has_quantized_plateaus() {
        let s = SteppedSchedule::paper(7100);
        let mut seen = std::collections::BTreeSet::new();
        for it in 0..7100 {
            seen.insert((s.temperature(it) * 1000.0).round() as i64);
        }
        assert_eq!(seen.len(), 71, "exactly 71 distinct V_BG levels");
    }

    #[test]
    fn short_runs_still_reach_low_levels() {
        // 700-iteration run (the paper's 800-node budget) with 70 levels.
        let s = SteppedSchedule::paper(700);
        assert!(s.temperature(699) <= 10.0 + 1e-9);
    }
}
