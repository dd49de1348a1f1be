//! The simulated-bifurcation solver family (bSB/dSB) on the FeCIM
//! crossbar: the `fecim-sb` engine wrapped behind the same builder-style
//! [`Solver`] surface as the annealers, so sessions, schedulers and
//! campaigns accept SB jobs with zero transport changes.

use serde::{Deserialize, Serialize};

use fecim_anneal::RunResult;
use fecim_crossbar::TiledCrossbar;
use fecim_hwcost::{AnnealerKind, EnergyReport, TimeReport};
use fecim_ising::{CsrCoupling, SpinVector};
use fecim_sb::{DeviceMvm, ExactMvm, PressureSchedule, SbEngine, SbVariant, MAX_IN_BITS};

use crate::solver::{pricing, DeviceArray, Solver};

/// Default input-DAC resolution of the ballistic variant's bit-serial
/// continuous drive (matches the array's 4-bit weight quantization).
const DEFAULT_IN_BITS: u8 = 4;

/// Configuration of the simulated-bifurcation solver (bSB/dSB).
///
/// Each SB step performs one full-vector coupling MVM through the
/// crossbar read path instead of the annealers' per-flip incremental-E
/// sense: the ballistic variant drives the continuous positions through
/// an `in_bits`-pass bit-serial DAC decomposition, the discrete variant
/// reads one sign vector per step.
///
/// `dt`, the pressure schedule, a fixed coupling strength and the input
/// DAC width are wire fields only;
/// [`Session::prepare`](crate::Session::prepare) checks them before
/// anything runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SbAnnealer {
    variant: SbVariant,
    steps: usize,
    dt: f64,
    pressure_schedule: PressureSchedule,
    coupling_strength: Option<f64>,
    in_bits: u8,
    trace_every: Option<usize>,
    target_energy: Option<f64>,
}

impl SbAnnealer {
    /// An SB solver with the engine defaults: `dt = 0.25`, a linear
    /// pressure ramp to `1.0`, problem-adapted coupling strength and a
    /// 4-bit input DAC. Whether its MVMs run software-exact or on the
    /// simulated crossbar is the request's
    /// [`BackendPlan`](crate::BackendPlan), not the solver's.
    pub fn new(variant: SbVariant, steps: usize) -> SbAnnealer {
        SbAnnealer {
            variant,
            steps,
            dt: 0.25,
            pressure_schedule: PressureSchedule::linear(),
            coupling_strength: None,
            in_bits: DEFAULT_IN_BITS,
            trace_every: None,
            target_energy: None,
        }
    }

    /// The ballistic variant (`f = J·x`, `in_bits` reads per step).
    pub fn ballistic(steps: usize) -> SbAnnealer {
        SbAnnealer::new(SbVariant::Ballistic, steps)
    }

    /// The discrete variant (`f = J·sign(x)`, one read per step).
    pub fn discrete(steps: usize) -> SbAnnealer {
        SbAnnealer::new(SbVariant::Discrete, steps)
    }

    /// Record a trace point every `every` steps.
    pub fn with_trace(mut self, every: usize) -> SbAnnealer {
        self.trace_every = Some(every.max(1));
        self
    }

    /// Record the first step whose best Ising energy reaches `target`
    /// (the time-to-solution metric); the result appears as
    /// `run.first_target_hit`.
    pub fn with_target_energy(mut self, target: f64) -> SbAnnealer {
        self.target_energy = Some(target);
        self
    }

    /// Full-array reads one SB step issues on the device path: `in_bits`
    /// bit-serial planes for the ballistic drive, one sign read for the
    /// discrete drive.
    fn reads_per_step(&self) -> u64 {
        match self.variant {
            SbVariant::Ballistic => self.in_bits as u64,
            SbVariant::Discrete => 1,
        }
    }

    /// Check this configuration: `steps`, `dt`, the pressure schedule,
    /// the input DAC width and a fixed coupling strength must be usable.
    /// (Zero-step warm-start echoes remain an engine-level contract —
    /// [`fecim_sb::SbEngine::run`] supports them — but a *request* for
    /// zero SB steps is a misconfiguration.)
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.steps == 0 {
            return Err("SB solver needs at least one step".to_string());
        }
        if !self.dt.is_finite() || self.dt <= 0.0 {
            return Err(format!(
                "SB time step must be finite and positive (got {})",
                self.dt
            ));
        }
        self.pressure_schedule.validate()?;
        if !(1..=MAX_IN_BITS).contains(&self.in_bits) {
            return Err(format!(
                "SB input DAC needs 1..={MAX_IN_BITS} bits (got {})",
                self.in_bits
            ));
        }
        if let Some(c0) = self.coupling_strength {
            if !c0.is_finite() || c0 <= 0.0 {
                return Err(format!(
                    "SB coupling strength must be finite and positive (got {c0})"
                ));
            }
        }
        Ok(())
    }

    /// The configured `fecim-sb` engine.
    pub(crate) fn engine(&self) -> SbEngine {
        let mut engine = SbEngine::new(self.variant, self.steps)
            .with_dt(self.dt)
            .with_pressure(self.pressure_schedule);
        if let Some(c0) = self.coupling_strength {
            engine = engine.with_coupling_strength(c0);
        }
        if let Some(every) = self.trace_every {
            engine = engine.with_trace(every);
        }
        if let Some(target) = self.target_energy {
            engine = engine.with_target_energy(target);
        }
        engine
    }
}

impl Solver for SbAnnealer {
    fn name(&self) -> &str {
        match self.variant {
            SbVariant::Ballistic => "simulated bifurcation (bSB)",
            SbVariant::Discrete => "simulated bifurcation (dSB)",
        }
    }

    fn kind(&self) -> AnnealerKind {
        // SB runs on the same in-situ crossbar hardware; only the read
        // pattern (full-vector MVM vs per-flip sense) differs, which the
        // cost model prices separately.
        AnnealerKind::InSitu
    }

    fn run_engine(
        &self,
        coupling: &CsrCoupling,
        initial: SpinVector,
        seed: u64,
        array: Option<&DeviceArray>,
    ) -> RunResult {
        let engine = self.engine();
        match array {
            None => {
                let mut source = ExactMvm::new(coupling);
                engine.run(coupling, &mut source, &initial, seed)
            }
            Some(array) => {
                let rows = array.rows(initial.len());
                let mut source = DeviceMvm::new(
                    TiledCrossbar::program(coupling, array.config.clone(), rows),
                    self.in_bits,
                );
                engine.run(coupling, &mut source, &initial, seed)
            }
        }
    }

    fn hardware_report(
        &self,
        run: &mut RunResult,
        spins: usize,
        array: Option<&DeviceArray>,
    ) -> (EnergyReport, TimeReport) {
        // SB updates every spin per step; `flips` has no SB meaning and
        // only feeds the annealer arms of the profile.
        let profile = pricing(array, spins, 1);
        let cost_model = profile.cost_model();
        // Prefer measured activity (device-in-loop) over the analytic model.
        match &run.activity {
            Some(stats) => (
                fecim_hwcost::energy_of(stats, &cost_model, fecim_hwcost::ExpUnit::Asic),
                fecim_hwcost::time_of(stats, &cost_model, fecim_hwcost::ExpUnit::Asic),
            ),
            None => (
                profile.sb_run_energy(&cost_model, run.iterations, self.reads_per_step()),
                profile.sb_run_time(&cost_model, run.iterations, self.reads_per_step()),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ideal_ring_trial;
    use crate::SolverSpec;
    use fecim_ising::MaxCut;

    fn ring_problem(n: usize) -> MaxCut {
        MaxCut::new(n, (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect()).unwrap()
    }

    #[test]
    fn both_variants_solve_ring_max_cut() {
        let problem = ring_problem(16);
        for solver in [SbAnnealer::ballistic(600), SbAnnealer::discrete(600)] {
            let report = solver.solve(&problem, 11).unwrap();
            assert_eq!(report.kind, AnnealerKind::InSitu);
            assert!(report.feasible);
            let cut = report.objective.unwrap();
            assert!(cut >= 14.0, "{}: cut={cut}", Solver::name(&solver));
            assert!(report.energy.total() > 0.0);
            assert!(report.time.total() > 0.0);
        }
    }

    #[test]
    fn device_in_loop_produces_measured_activity() {
        let report = ideal_ring_trial(SolverSpec::Sb(SbAnnealer::discrete(200)), 12, None, 3);
        let activity = report.run.activity.expect("device runs record stats");
        assert_eq!(activity.array_ops, 200, "one MVM read per dSB step");
        assert!(report.energy.total() > 0.0);
    }

    #[test]
    fn tiled_device_run_matches_monolithic_bit_for_bit() {
        // A request for zero SB steps is rejected; the engine's zero-step
        // echo is pinned in `fecim_sb`.
        for steps in [1usize, 150] {
            let solver = SolverSpec::Sb(SbAnnealer::ballistic(steps));
            let mono = ideal_ring_trial(solver.clone(), 24, None, 5);
            let tiled = ideal_ring_trial(solver, 24, Some(8), 5);
            assert_eq!(mono.best_energy, tiled.best_energy, "steps={steps}");
            assert_eq!(mono.best_spins, tiled.best_spins, "steps={steps}");
        }
    }

    #[test]
    fn handles_problems_with_linear_terms() {
        // Knapsack's capacity penalty has linear fields, exercising the
        // ancilla embedding.
        let problem = fecim_ising::Knapsack::new(vec![6, 5, 4], vec![3, 2, 2], 4).unwrap();
        let solver = SbAnnealer::ballistic(800);
        let report = solver.solve(&problem, 5).unwrap();
        assert!(report.feasible);
        assert_eq!(report.objective.unwrap(), 9.0);
    }

    #[test]
    fn analytic_cost_model_prices_bsb_reads_above_dsb() {
        let problem = ring_problem(16);
        let bsb = SbAnnealer::ballistic(300).solve(&problem, 2).unwrap();
        let dsb = SbAnnealer::discrete(300).solve(&problem, 2).unwrap();
        let ratio = bsb.energy.total() / dsb.energy.total();
        assert!(
            (ratio - DEFAULT_IN_BITS as f64).abs() < 1e-9,
            "analytic bSB/dSB energy ratio = in_bits, got {ratio}"
        );
    }

    #[test]
    fn validate_catches_wire_deserialized_misconfigurations() {
        assert!(SbAnnealer::ballistic(100).validate().is_ok());
        assert!(
            SbAnnealer::ballistic(0).validate().is_err(),
            "zero steps rejected"
        );
        let mut bad_dt = SbAnnealer::discrete(10);
        bad_dt.dt = f64::NAN;
        assert!(bad_dt.validate().is_err());
        bad_dt.dt = 0.0;
        assert!(bad_dt.validate().is_err());
        let mut bad_schedule = SbAnnealer::discrete(10);
        bad_schedule.pressure_schedule = PressureSchedule::Linear { end: f64::INFINITY };
        assert!(bad_schedule.validate().is_err());
        let mut bad_bits = SbAnnealer::ballistic(10);
        for in_bits in [0u8, 32, 40, 255] {
            bad_bits.in_bits = in_bits;
            assert!(bad_bits.validate().is_err(), "in_bits {in_bits} rejected");
        }
        bad_bits.in_bits = MAX_IN_BITS;
        assert!(bad_bits.validate().is_ok());
        let mut bad_c0 = SbAnnealer::ballistic(10);
        bad_c0.coupling_strength = Some(-1.0);
        assert!(bad_c0.validate().is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let problem = ring_problem(10);
        let solver = SbAnnealer::discrete(300);
        let a = solver.solve(&problem, 77).unwrap();
        let b = solver.solve(&problem, 77).unwrap();
        assert_eq!(a.best_energy, b.best_energy);
        assert_eq!(a.best_spins, b.best_spins);
    }
}
