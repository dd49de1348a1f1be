//! The proposed ferroelectric CiM in-situ annealer (paper Sec. 3): the
//! device-algorithm co-design of incremental-E transformation, DG FeFET
//! crossbar and tunable back-gate annealing flow, wrapped behind a
//! builder-style solver API.

use serde::{Deserialize, Serialize};

use fecim_anneal::{
    run_in_situ, suggest_einc_scale, AnnealConfig, ExactBackend, RunResult, SteppedSchedule,
    TiledBackend,
};
use fecim_device::{AnnealFactor, CurveError, DeviceFactor, FractionalFactor, TableFactor};
use fecim_hwcost::{AnnealerKind, EnergyReport, TimeReport};
use fecim_ising::{Coupling, CsrCoupling, SpinVector};

use crate::solver::{pricing, DeviceArray, Solver};

/// Which annealing-factor implementation drives the acceptance test.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FactorChoice {
    /// The paper's analytic constants `1/(−0.006T+5) − 0.2` (Fig. 6c).
    PaperFractional,
    /// The physical DG FeFET normalized current under the quantized
    /// `V_BG(T)` mapping.
    Device,
    /// A custom fractional form `a/(bT+c) + d` over `[0, t_max]`.
    Fractional {
        /// Numerator.
        a: f64,
        /// Denominator slope.
        b: f64,
        /// Denominator offset.
        c: f64,
        /// Additive constant.
        d: f64,
        /// Temperature range.
        t_max: f64,
    },
    /// An arbitrary sampled `(T, f)` curve.
    Table(Vec<(f64, f64)>),
}

impl FactorChoice {
    /// Build the factor, or the curve's [`CurveError`] when this choice
    /// cannot define one.
    fn build(&self) -> Result<Box<dyn AnnealFactor>, CurveError> {
        Ok(match self {
            FactorChoice::PaperFractional => Box::new(FractionalFactor::paper()),
            FactorChoice::Device => Box::new(DeviceFactor::paper()),
            FactorChoice::Fractional { a, b, c, d, t_max } => {
                Box::new(FractionalFactor::try_new(*a, *b, *c, *d, *t_max)?)
            }
            FactorChoice::Table(points) => Box::new(TableFactor::try_new(points.clone())?),
        })
    }
}

/// Configuration of the CiM in-situ annealer.
///
/// The builders are plain setters: [`Session::prepare`](crate::Session::prepare)
/// checks the whole configuration before anything runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CimAnnealer {
    iterations: usize,
    flips: usize,
    factor: FactorChoice,
    einc_scale: Option<f64>,
    trace_every: Option<usize>,
    target_energy: Option<f64>,
}

impl CimAnnealer {
    /// A solver with the paper's defaults: `t = 2` flips per iteration
    /// and the analytic fractional factor. Where its energies are
    /// measured is the request's
    /// [`BackendPlan`](crate::BackendPlan), not the solver's.
    pub fn new(iterations: usize) -> CimAnnealer {
        CimAnnealer {
            iterations,
            flips: 2,
            factor: FactorChoice::PaperFractional,
            einc_scale: None,
            trace_every: None,
            target_energy: None,
        }
    }

    /// Override the flip-set size `t = |F|` (at least 1).
    pub fn with_flips(mut self, flips: usize) -> CimAnnealer {
        self.flips = flips;
        self
    }

    /// Select the annealing-factor implementation.
    pub fn with_factor(mut self, factor: FactorChoice) -> CimAnnealer {
        self.factor = factor;
        self
    }

    /// Fix the positive `E_inc` normalization (default:
    /// problem-adapted [`suggest_einc_scale`]).
    pub fn with_einc_scale(mut self, scale: f64) -> CimAnnealer {
        self.einc_scale = Some(scale);
        self
    }

    /// Record a trace point every `every` iterations.
    pub fn with_trace(mut self, every: usize) -> CimAnnealer {
        self.trace_every = Some(every.max(1));
        self
    }

    /// Record the first iteration whose best Ising energy reaches
    /// `target` (the time-to-solution metric of the paper's Table 1);
    /// the result appears as `run.first_target_hit`.
    pub fn with_target_energy(mut self, target: f64) -> CimAnnealer {
        self.target_energy = Some(target);
        self
    }

    /// Check this configuration against everything the in-situ engine
    /// asserts on: at least one flip, a buildable annealing factor and a
    /// positive `E_inc` scale.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.flips == 0 {
            return Err("the CiM annealer needs at least one flip per iteration".to_string());
        }
        self.factor
            .build()
            .map_err(|e| format!("invalid annealing factor: {e}"))?;
        match self.einc_scale {
            Some(scale) if scale.is_nan() || scale <= 0.0 => {
                Err(format!("the E_inc scale must be positive (got {scale})"))
            }
            _ => Ok(()),
        }
    }

    /// Run the in-situ flow against an energy backend: schedule,
    /// annealing factor and `E_inc` normalization come from this
    /// solver's configuration; the backend decides where the
    /// measurements come from (see [`Solver::run_engine`]).
    fn anneal_with_backend<B: fecim_anneal::EnergyBackend>(
        &self,
        coupling: &CsrCoupling,
        backend: &mut B,
        seed: u64,
    ) -> RunResult {
        let n = coupling.dimension();
        let factor = self
            .factor
            .build()
            // audit:allow(panic-path): engine contract — `validate` builds this same factor in `Session::prepare`, so only an unvalidated `Solver::solve` reaches the error, as it reaches the engines' asserts
            .unwrap_or_else(|e| panic!("invalid annealing factor: {e}"));
        // A zero-iteration run (warm-start verbatim contract) never
        // samples the schedule, but the constructor insists on ≥ 1.
        let schedule = SteppedSchedule::over_iterations(factor.t_max(), 70, self.iterations.max(1));
        // Default normalization: 1/80 of the typical |σ_rᵀJσ_c|. The
        // division is the one-time full-scale calibration a hardware
        // bring-up performs on the ADC reference; 80 places the sweep's
        // selective phase early enough that the paper's tight iteration
        // budgets (700 iterations for 800 spins) convert into cut gain
        // rather than random walk. The calibration sweep lives in the
        // `ablation_sweeps` binary.
        let scale = self
            .einc_scale
            .unwrap_or_else(|| suggest_einc_scale(coupling, self.flips) / 80.0);
        let mut config = AnnealConfig::new(self.iterations, seed).with_flips(self.flips.min(n));
        if let Some(every) = self.trace_every {
            config = config.with_trace(every);
        }
        if let Some(target) = self.target_energy {
            config = config.with_target_energy(target);
        }
        run_in_situ(backend, &schedule, factor.as_ref(), scale, config)
    }
}

impl Solver for CimAnnealer {
    fn name(&self) -> &str {
        "in-situ (this work)"
    }

    fn kind(&self) -> AnnealerKind {
        AnnealerKind::InSitu
    }

    fn run_engine(
        &self,
        coupling: &CsrCoupling,
        initial: SpinVector,
        seed: u64,
        array: Option<&DeviceArray>,
    ) -> RunResult {
        match array {
            None => {
                let mut backend = ExactBackend::new(coupling, initial);
                self.anneal_with_backend(coupling, &mut backend, seed)
            }
            Some(array) => {
                let rows = array.rows(coupling.dimension());
                let mut backend = TiledBackend::new(coupling, initial, array.config.clone(), rows);
                self.anneal_with_backend(coupling, &mut backend, seed)
            }
        }
    }

    fn hardware_report(
        &self,
        run: &mut RunResult,
        spins: usize,
        array: Option<&DeviceArray>,
    ) -> (EnergyReport, TimeReport) {
        let profile = pricing(array, spins, self.flips);
        let cost_model = profile.cost_model();
        // Prefer measured activity (device-in-loop) over the analytic model.
        match &run.activity {
            Some(stats) => (
                fecim_hwcost::energy_of(stats, &cost_model, fecim_hwcost::ExpUnit::Asic),
                fecim_hwcost::time_of(stats, &cost_model, fecim_hwcost::ExpUnit::Asic),
            ),
            None => (
                profile.run_energy(AnnealerKind::InSitu, &cost_model, run.iterations),
                profile.run_time(AnnealerKind::InSitu, &cost_model, run.iterations),
            ),
        }
    }
}

/// Outcome of one solver invocation, with hardware costs attached.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolveReport {
    /// Which architecture produced this run.
    pub kind: AnnealerKind,
    /// Best exact Ising energy reached.
    pub best_energy: f64,
    /// Native objective of the best solution (`None` when solving a raw
    /// Ising model).
    pub objective: Option<f64>,
    /// Whether the best solution satisfies the problem's constraints.
    pub feasible: bool,
    /// Best solution in the problem's original spin space.
    pub best_spins: SpinVector,
    /// Hardware energy of the run.
    pub energy: EnergyReport,
    /// Hardware latency of the run.
    pub time: TimeReport,
    /// The raw annealing run.
    pub run: RunResult,
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
    fn solves_ring_max_cut_with_defaults() {
        let problem = ring_problem(16);
        let solver = CimAnnealer::new(2000).with_flips(1);
        let report = solver.solve(&problem, 11).unwrap();
        assert_eq!(report.kind, AnnealerKind::InSitu);
        assert!(report.feasible);
        let cut = report.objective.unwrap();
        assert!(cut >= 14.0, "cut={cut}");
        assert!(report.energy.total() > 0.0);
        assert!(report.time.total() > 0.0);
    }

    #[test]
    fn device_in_loop_produces_measured_activity() {
        let solver = SolverSpec::Cim(CimAnnealer::new(300).with_flips(1));
        let report = ideal_ring_trial(solver, 12, None, 3);
        let activity = report.run.activity.expect("crossbar runs record stats");
        assert!(activity.adc_conversions > 0);
        assert!(activity.bg_updates as usize >= 300);
    }

    #[test]
    fn tiled_device_in_loop_records_per_tile_activity() {
        let solver = SolverSpec::Cim(CimAnnealer::new(200).with_flips(1));
        let report = ideal_ring_trial(solver.clone(), 24, Some(8), 3);
        let activity = report.run.activity.expect("tiled runs record stats");
        assert!(activity.tiles_activated > 0, "per-tile activity recorded");
        assert!(activity.adc_conversions > 0);
        assert!(report.energy.total() > 0.0);
        // Ideal-fidelity tiling is bit-identical to the monolithic read,
        // so the solve trajectory matches the untiled device run exactly.
        let mono = ideal_ring_trial(solver, 24, None, 3);
        assert_eq!(report.best_energy, mono.best_energy);
        assert_eq!(report.best_spins, mono.best_spins);
    }

    #[test]
    fn handles_problems_with_linear_terms() {
        // Knapsack's capacity penalty has linear fields, exercising the
        // ancilla embedding.
        let problem = fecim_ising::Knapsack::new(vec![6, 5, 4], vec![3, 2, 2], 4).unwrap();
        let solver = CimAnnealer::new(1500).with_flips(1);
        let report = solver.solve(&problem, 5).unwrap();
        assert!(report.feasible);
        // Items 1 and 2 fill the capacity for the optimum value 9.
        assert_eq!(report.objective.unwrap(), 9.0);
    }

    #[test]
    fn device_factor_solves_too() {
        let problem = ring_problem(12);
        let solver = CimAnnealer::new(1500)
            .with_flips(1)
            .with_factor(FactorChoice::Device);
        let report = solver.solve(&problem, 9).unwrap();
        assert!(report.objective.unwrap() >= 10.0);
    }

    #[test]
    fn empty_table_curve_fails_at_prepare_time_with_context() {
        use crate::{ProblemSpec, Session, SessionError, SolveRequest};
        let prepare = |factor| {
            Session::new().prepare(&SolveRequest::new(
                ProblemSpec::MaxCut {
                    vertices: 4,
                    edges: (0..4).map(|i| (i, (i + 1) % 4, 1.0)).collect(),
                },
                SolverSpec::Cim(CimAnnealer::new(100).with_factor(factor)),
            ))
        };
        match prepare(FactorChoice::Table(Vec::new())) {
            Err(SessionError::InvalidRequest(message)) => assert!(
                message.contains("at least 2 points"),
                "descriptive message, got: {message}"
            ),
            _ => panic!("an empty curve must be an invalid request"),
        }
        assert!(prepare(FactorChoice::PaperFractional).is_ok());
        assert!(prepare(FactorChoice::Table(vec![(0.0, 0.1), (700.0, 1.0)])).is_ok());
    }

    #[test]
    fn trace_recording_respects_interval() {
        let problem = ring_problem(8);
        let solver = CimAnnealer::new(100).with_flips(1).with_trace(25);
        let report = solver.solve(&problem, 1).unwrap();
        assert_eq!(report.run.trace.points().len(), 4);
    }

    #[test]
    fn deterministic_given_seed() {
        let problem = ring_problem(10);
        let solver = CimAnnealer::new(500).with_flips(1);
        let a = solver.solve(&problem, 77).unwrap();
        let b = solver.solve(&problem, 77).unwrap();
        assert_eq!(a.best_energy, b.best_energy);
        assert_eq!(a.best_spins, b.best_spins);
    }
}
