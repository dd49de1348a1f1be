//! The simulated-bifurcation update loop.
//!
//! Both variants evolve a position/momentum pair `(x_i, y_i)` per spin
//! under the symplectic Euler update (Goto-style Kerr-free SB):
//!
//! ```text
//! y_i += dt · ( −(1 − a(t)) · x_i − c₀ · f_i )
//! x_i += dt · y_i
//! ```
//!
//! with inelastic walls (`|x_i| > 1` clamps the position and zeroes the
//! momentum), a bifurcation-pressure ramp `a(t): 0 → 1`, and the
//! coupling force `f_i = (Jx)_i` (ballistic) or `f_i = (J·sign(x))_i`
//! (discrete) read through an [`MvmSource`] — one full-vector crossbar
//! MVM per step. Energies are scored digitally on the exact coupling at
//! the sign readout `σ = sign(x)`, matching the workspace convention
//! that traces and best-solution tracking always report exact Ising
//! energies even when the force path is device-quantized.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use fecim_anneal::{RunRecorder, RunResult, TraceMode};
use fecim_ising::{Coupling, SpinVector};

use crate::mvm::MvmSource;

/// Magnitude of the deterministic position seed `x_i = ±X0` and of the
/// uniform momentum draw — small enough that the start sits deep in the
/// pre-bifurcation basin, large enough to break symmetry immediately.
const INITIAL_AMPLITUDE: f64 = 0.1;

/// Which simulated-bifurcation update the engine runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SbVariant {
    /// Ballistic SB: the coupling force uses the continuous positions,
    /// `f = J·x` (an `in_bits`-pass bit-serial drive on hardware).
    Ballistic,
    /// Discrete SB: the coupling force uses the position signs,
    /// `f = J·sign(x)` (one sign-vector read per step) — the
    /// error-suppressed variant that tolerates coarse input DACs.
    Discrete,
}

impl SbVariant {
    /// Display label (`bSB` / `dSB`).
    pub fn label(self) -> &'static str {
        match self {
            SbVariant::Ballistic => "bSB",
            SbVariant::Discrete => "dSB",
        }
    }
}

/// The bifurcation-pressure ramp `a(t)` — the SB analogue of an
/// annealing schedule. `a` rises from 0 (stable paramagnetic phase)
/// towards `end` (fully bifurcated); the ramp's shape sets how long the
/// system lingers near the bifurcation point where the cut decision is
/// made.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PressureSchedule {
    /// Linear ramp `a(t) = end · (t+1)/steps` — reaches `end` exactly on
    /// the final step.
    Linear {
        /// Final pressure (the bifurcation parameter's end value,
        /// typically `1.0`).
        end: f64,
    },
    /// Hold `a = 0` for the first `onset` fraction of the run, then ramp
    /// linearly to `end` — lets the momenta thermalize before the
    /// bifurcation sweep starts.
    DelayedLinear {
        /// Fraction of the run spent at zero pressure, in `[0, 1)`.
        onset: f64,
        /// Final pressure.
        end: f64,
    },
}

impl PressureSchedule {
    /// The default ramp: linear to `1.0`.
    pub fn linear() -> PressureSchedule {
        PressureSchedule::Linear { end: 1.0 }
    }

    /// Pressure at `step` of a `steps`-long run.
    pub fn at(&self, step: usize, steps: usize) -> f64 {
        let steps = steps.max(1) as f64;
        let progress = (step + 1) as f64 / steps;
        match *self {
            PressureSchedule::Linear { end } => end * progress,
            PressureSchedule::DelayedLinear { onset, end } => {
                let span = (1.0 - onset).max(f64::MIN_POSITIVE);
                end * ((progress - onset) / span).clamp(0.0, 1.0)
            }
        }
    }

    /// Check the schedule's parameters define a usable ramp.
    ///
    /// # Errors
    ///
    /// Returns a description when a parameter is non-finite, a final
    /// pressure is not strictly positive, or an onset lies outside
    /// `[0, 1)`.
    pub fn validate(&self) -> Result<(), String> {
        let check_end = |end: f64| {
            if !end.is_finite() || end <= 0.0 {
                return Err(format!(
                    "pressure schedule needs a finite, positive end value (got {end})"
                ));
            }
            Ok(())
        };
        match *self {
            PressureSchedule::Linear { end } => check_end(end),
            PressureSchedule::DelayedLinear { onset, end } => {
                check_end(end)?;
                if !onset.is_finite() || !(0.0..1.0).contains(&onset) {
                    return Err(format!(
                        "pressure schedule onset must lie in [0, 1) (got {onset})"
                    ));
                }
                Ok(())
            }
        }
    }
}

/// Problem-adapted coupling prefactor `c₀ = 0.5 / (rms(J) · √deg)` —
/// Goto's `c₀ = 0.5/(σ̄·√N)` written in terms of the stored nonzeros
/// (`σ̄·√N = rms_nonzero · √(mean degree)`), so sparse and dense
/// instances normalize alike. Falls back to `1.0` for empty couplings.
fn suggest_coupling_strength<C: Coupling + ?Sized>(coupling: &C) -> f64 {
    let n = coupling.dimension();
    if n == 0 {
        return 1.0;
    }
    let mut sum_sq = 0.0;
    let mut count = 0usize;
    for i in 0..n {
        coupling.for_each_in_row(i, |_, v| {
            sum_sq += v * v;
            count += 1;
        });
    }
    if count == 0 {
        return 1.0;
    }
    let rms = (sum_sq / count as f64).sqrt();
    let mean_degree = count as f64 / n as f64;
    (0.5 / (rms * mean_degree.sqrt())).max(f64::MIN_POSITIVE)
}

/// The simulated-bifurcation engine: variant, step count, time step and
/// pressure ramp, plus the same trace/target instrumentation the
/// annealing engines carry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SbEngine {
    /// Update variant (ballistic or discrete).
    pub variant: SbVariant,
    /// Symplectic Euler steps (each costs one coupling MVM).
    pub steps: usize,
    /// Integration time step `dt`.
    pub dt: f64,
    /// Bifurcation-pressure ramp.
    pub pressure: PressureSchedule,
    /// Coupling prefactor `c₀` override (`None` = the problem-adapted
    /// `c₀ = 0.5 / (rms(J) · √deg)`).
    pub coupling_strength: Option<f64>,
    /// Trace sampling.
    pub trace: TraceMode,
    /// Optional target energy for first-hit recording.
    pub target_energy: Option<f64>,
}

impl SbEngine {
    /// An engine with the default time step (`dt = 0.25`) and the linear
    /// pressure ramp to `1.0`.
    pub fn new(variant: SbVariant, steps: usize) -> SbEngine {
        SbEngine {
            variant,
            steps,
            dt: 0.25,
            pressure: PressureSchedule::linear(),
            coupling_strength: None,
            trace: TraceMode::Off,
            target_energy: None,
        }
    }

    /// Override the integration time step.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not finite and strictly positive.
    pub fn with_dt(mut self, dt: f64) -> SbEngine {
        assert!(dt.is_finite() && dt > 0.0, "dt must be finite and positive");
        self.dt = dt;
        self
    }

    /// Override the pressure ramp.
    ///
    /// # Panics
    ///
    /// Panics if the schedule's parameters are invalid (see
    /// [`PressureSchedule::validate`]).
    pub fn with_pressure(mut self, pressure: PressureSchedule) -> SbEngine {
        if let Err(e) = pressure.validate() {
            // audit:allow(panic-path): documented `# Panics` contract — builder misconfiguration fails loudly at build time, not mid-run
            panic!("invalid pressure schedule: {e}");
        }
        self.pressure = pressure;
        self
    }

    /// Fix the coupling prefactor `c₀`.
    ///
    /// # Panics
    ///
    /// Panics if `c0` is not finite and strictly positive.
    pub fn with_coupling_strength(mut self, c0: f64) -> SbEngine {
        assert!(
            c0.is_finite() && c0 > 0.0,
            "coupling strength must be finite and positive"
        );
        self.coupling_strength = Some(c0);
        self
    }

    /// Sample a trace point every `every` steps.
    pub fn with_trace(mut self, every: usize) -> SbEngine {
        self.trace = TraceMode::Every(every.max(1));
        self
    }

    /// Record the first step whose best energy reaches `target`.
    pub fn with_target_energy(mut self, target: f64) -> SbEngine {
        self.target_energy = Some(target);
        self
    }

    /// Run the SB dynamics: positions seeded as `x_i = ±0.1` from
    /// `initial`'s signs (so warm starts carry over, and a zero-step run
    /// echoes `initial` verbatim), momenta drawn uniformly from the
    /// seeded RNG, and the per-step coupling force read through
    /// `source`. `coupling` is the exact matrix used for digital energy
    /// scoring at the sign readout.
    ///
    /// # Panics
    ///
    /// Panics when `initial` or `source` disagree with `coupling`'s
    /// dimension.
    pub fn run<C: Coupling + ?Sized, M: MvmSource>(
        &self,
        coupling: &C,
        source: &mut M,
        initial: &SpinVector,
        seed: u64,
    ) -> RunResult {
        let n = coupling.dimension();
        assert_eq!(initial.len(), n, "initial spins must match the coupling");
        assert_eq!(source.dimension(), n, "MVM source must match the coupling");
        let c0 = self
            .coupling_strength
            .unwrap_or_else(|| suggest_coupling_strength(coupling));

        let mut rng = StdRng::seed_from_u64(seed);
        let mut x: Vec<f64> = initial
            .as_slice()
            .iter()
            .map(|&s| INITIAL_AMPLITUDE * s as f64)
            .collect();
        let mut y: Vec<f64> = (0..n)
            .map(|_| INITIAL_AMPLITUDE * (2.0 * rng.gen::<f64>() - 1.0))
            .collect();

        // Score the start before stepping: a zero-step warm start echoes
        // the supplied spins verbatim (the campaign-chaining contract).
        let mut spins = initial.clone();
        let mut scores = RowSums::new(coupling, &spins);
        let mut energy = scores.energy(&spins);
        let mut recorder = RunRecorder::new(energy, &spins, self.trace, self.target_energy);

        for step in 0..self.steps {
            let a = self.pressure.at(step, self.steps);
            // One full-vector MVM per step — the synchronous update that
            // replaces n spin-serial reads.
            let field = match self.variant {
                SbVariant::Ballistic => source.mvm_continuous(&x),
                SbVariant::Discrete => source.mvm_signs(spins.as_slice()),
            };
            for i in 0..n {
                // Minimizing E = σᵀJσ: the force is the negative local
                // field, −c₀·(Jx)_i.
                y[i] += self.dt * (-(1.0 - a) * x[i] - c0 * field[i]);
                x[i] += self.dt * y[i];
                // Inelastic walls: clamp the position, drop the momentum.
                if x[i] > 1.0 {
                    x[i] = 1.0;
                    y[i] = 0.0;
                } else if x[i] < -1.0 {
                    x[i] = -1.0;
                    y[i] = 0.0;
                }
            }
            // Digital sign readout; energies are exact, and only sign
            // changes trigger a rescore of the rows they touch.
            let mut changed = false;
            for (i, &xi) in x.iter().enumerate() {
                let s: i8 = if xi >= 0.0 { 1 } else { -1 };
                if s != spins.get(i) {
                    spins.set(i, s);
                    scores.touch(coupling, i);
                    changed = true;
                }
            }
            if changed {
                scores.resum(coupling, &spins);
                energy = scores.energy(&spins);
                debug_assert_eq!(energy.to_bits(), coupling.energy(&spins).to_bits());
                recorder.accept(step, energy, &spins);
            }
            recorder.sample(step, energy, a, changed);
        }

        recorder.finish(self.steps, energy, spins, source.activity())
    }
}

/// The exact energy of the sign readout, rescored in the time its
/// changes take: the row sums `l_i = Σ_j J_ij σ_j` of the current spins,
/// re-summed only for the rows next to a changed spin, and
/// `E = Σ σ_i·l_i` folded in row order — the float operations of
/// [`Coupling::energy`], so the same bits.
#[derive(Debug)]
struct RowSums {
    sums: Vec<f64>,
    /// Whether each row's sum is stale, and the stale rows in the order
    /// they went stale.
    stale: Vec<bool>,
    stale_rows: Vec<usize>,
}

impl RowSums {
    fn new<C: Coupling + ?Sized>(coupling: &C, spins: &SpinVector) -> RowSums {
        RowSums {
            sums: coupling.local_fields(spins),
            stale: vec![false; spins.len()],
            stale_rows: Vec::new(),
        }
    }

    /// Mark the rows that hold spin `i` stale (`J` is symmetric, so they
    /// are row `i`'s neighbours).
    fn touch<C: Coupling + ?Sized>(&mut self, coupling: &C, i: usize) {
        let (stale, stale_rows) = (&mut self.stale, &mut self.stale_rows);
        coupling.for_each_in_row(i, |row, _| {
            if !std::mem::replace(&mut stale[row], true) {
                stale_rows.push(row);
            }
        });
    }

    /// Re-sum every stale row over `spins`.
    fn resum<C: Coupling + ?Sized>(&mut self, coupling: &C, spins: &SpinVector) {
        for row in self.stale_rows.drain(..) {
            self.stale[row] = false;
            self.sums[row] = coupling.local_field(row, spins);
        }
    }

    fn energy(&self, spins: &SpinVector) -> f64 {
        let mut energy = 0.0;
        for (&s, &sum) in spins.as_slice().iter().zip(&self.sums) {
            energy += s as f64 * sum;
        }
        energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvm::{DeviceMvm, ExactMvm};
    use fecim_crossbar::{CrossbarConfig, TiledCrossbar};
    use fecim_ising::{CopProblem, CsrCoupling, MaxCut};

    fn ring_max_cut(n: usize) -> (MaxCut, CsrCoupling) {
        let edges: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect();
        let mc = MaxCut::new(n, edges).unwrap();
        let model = mc.to_ising().unwrap();
        (mc, model.couplings().clone())
    }

    #[test]
    fn both_variants_solve_even_ring_max_cut() {
        let (mc, j) = ring_max_cut(16);
        for variant in [SbVariant::Ballistic, SbVariant::Discrete] {
            let engine = SbEngine::new(variant, 600);
            let initial = SpinVector::all_up(16);
            let mut source = ExactMvm::new(&j);
            let result = engine.run(&j, &mut source, &initial, 11);
            let cut = mc.cut_from_energy(result.best_energy);
            assert!(cut >= 14.0, "{}: cut={cut} (optimal 16)", variant.label());
            assert!(result.accepted > 0, "{}", variant.label());
            assert!(result.best_energy <= result.final_energy + 1e-12);
        }
    }

    #[test]
    fn zero_steps_echoes_the_start_verbatim() {
        let (_, j) = ring_max_cut(8);
        let start = SpinVector::from_signs(&[1, -1, 1, 1, -1, -1, 1, -1]);
        let engine = SbEngine::new(SbVariant::Ballistic, 0);
        let mut source = ExactMvm::new(&j);
        let result = engine.run(&j, &mut source, &start, 5);
        assert_eq!(result.best_spins, start);
        assert_eq!(result.final_spins, start);
        assert_eq!(result.best_energy, j.energy(&start));
        assert_eq!(result.iterations, 0);
    }

    #[test]
    fn same_seed_same_result_different_seed_differs() {
        let (_, j) = ring_max_cut(12);
        let run = |seed: u64| {
            let engine = SbEngine::new(SbVariant::Discrete, 300);
            let mut source = ExactMvm::new(&j);
            engine.run(&j, &mut source, &SpinVector::all_up(12), seed)
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "bit-identical replays");
        let c = run(43);
        assert!(
            a.final_spins != c.final_spins || a.accepted != c.accepted,
            "different momentum seeds explore differently"
        );
    }

    #[test]
    fn device_run_is_bit_identical_monolithic_vs_tiled() {
        // The device force path goes through `TiledCrossbar::mvm`, whose
        // Ideal-mode read is bit-identical at every tile size — so the
        // whole SB trajectory matches between the one-tile (monolithic)
        // array and an 8-row tiling.
        let (_, j) = ring_max_cut(24);
        let initial = SpinVector::all_up(24);
        for variant in [SbVariant::Ballistic, SbVariant::Discrete] {
            let engine = SbEngine::new(variant, 200);
            let mut mono = DeviceMvm::new(
                TiledCrossbar::program(&j, CrossbarConfig::paper_defaults(), 24),
                4,
            );
            let mut tiled = DeviceMvm::new(
                TiledCrossbar::program(&j, CrossbarConfig::paper_defaults(), 8),
                4,
            );
            let a = engine.run(&j, &mut mono, &initial, 9);
            let b = engine.run(&j, &mut tiled, &initial, 9);
            assert_eq!(a.best_energy, b.best_energy, "{}", variant.label());
            assert_eq!(a.best_spins, b.best_spins, "{}", variant.label());
            assert_eq!(a.final_spins, b.final_spins, "{}", variant.label());
            assert_eq!(a.accepted, b.accepted, "{}", variant.label());
        }
    }

    #[test]
    fn device_step_read_counts_differ_by_variant() {
        let (_, j) = ring_max_cut(12);
        let initial = SpinVector::all_up(12);
        let steps = 50;
        let reads = |variant: SbVariant| {
            let engine = SbEngine::new(variant, steps);
            let mut source = DeviceMvm::new(
                TiledCrossbar::program(&j, CrossbarConfig::paper_defaults(), 12),
                4,
            );
            let run = engine.run(&j, &mut source, &initial, 3);
            run.activity.expect("device runs record stats").array_ops
        };
        assert_eq!(reads(SbVariant::Discrete), steps as u64, "1 read/step");
        assert_eq!(
            reads(SbVariant::Ballistic),
            4 * steps as u64,
            "in_bits reads/step"
        );
    }

    #[test]
    fn pressure_schedules_ramp_and_validate() {
        let linear = PressureSchedule::linear();
        assert!(linear.validate().is_ok());
        assert!((linear.at(999, 1000) - 1.0).abs() < 1e-12);
        assert!(linear.at(0, 1000) < 0.01);
        let delayed = PressureSchedule::DelayedLinear {
            onset: 0.5,
            end: 1.0,
        };
        assert!(delayed.validate().is_ok());
        assert_eq!(delayed.at(99, 1000), 0.0, "flat before onset");
        assert!((delayed.at(999, 1000) - 1.0).abs() < 1e-12);
        // Ramps are monotone non-decreasing.
        for schedule in [linear, delayed] {
            let mut prev = 0.0;
            for step in 0..100 {
                let a = schedule.at(step, 100);
                assert!(a >= prev - 1e-15);
                prev = a;
            }
        }
        assert!(PressureSchedule::Linear { end: f64::NAN }
            .validate()
            .is_err());
        assert!(PressureSchedule::Linear { end: 0.0 }.validate().is_err());
        assert!(PressureSchedule::DelayedLinear {
            onset: f64::INFINITY,
            end: 1.0
        }
        .validate()
        .is_err());
        assert!(PressureSchedule::DelayedLinear {
            onset: 1.0,
            end: 1.0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn suggested_coupling_strength_matches_goto_normalization() {
        // Ring: degree 2, |J| = 0.25 → c₀ = 0.5/(0.25·√2) = √2.
        let (_, j) = ring_max_cut(32);
        let c0 = suggest_coupling_strength(&j);
        assert!((c0 - std::f64::consts::SQRT_2).abs() < 1e-9, "c0={c0}");
        let empty = CsrCoupling::from_triplets(5, &[]).unwrap();
        assert_eq!(suggest_coupling_strength(&empty), 1.0);
    }

    #[test]
    fn trace_and_target_instrumentation_work() {
        let (_, j) = ring_max_cut(16);
        let engine = SbEngine::new(SbVariant::Discrete, 200)
            .with_trace(20)
            .with_target_energy(-6.0);
        let mut source = ExactMvm::new(&j);
        let result = engine.run(&j, &mut source, &SpinVector::all_up(16), 7);
        assert_eq!(result.trace.points().len(), 10);
        for w in result.trace.points().windows(2) {
            assert!(w[1].best_energy <= w[0].best_energy + 1e-12);
            assert!(w[1].temperature >= w[0].temperature, "pressure ramps up");
        }
        if result.best_energy <= -6.0 {
            assert!(result.first_target_hit.is_some());
        }
    }

    #[test]
    #[should_panic(expected = "dt must be finite and positive")]
    fn non_positive_dt_is_rejected() {
        let _ = SbEngine::new(SbVariant::Ballistic, 10).with_dt(0.0);
    }
}
