//! The [`Session`] facade: one execution entry point for every
//! [`SolveRequest`], a single `run(request) -> SolveResponse` surface.
//!
//! A session resolves the request's typed [`BackendPlan`] into the
//! [`DeviceArray`] its trials measure on, and runs every trial of the
//! request's solver through the one [`Solver`](crate::Solver) trial
//! pipeline:
//!
//! * [`BackendPlan::Analytic`] — no array: software-exact measurements;
//! * [`BackendPlan::DeviceInLoop`] — one (optionally tiled) simulated
//!   crossbar in the measurement loop;
//! * [`BackendPlan::Batched`] — each trial is a tiled device-in-the-loop
//!   trial on its own array, programmed from
//!   [`CrossbarConfig::for_trial`]; the replicas are summarized as
//!   shared physical tile grids.
//!
//! The `session_api` equivalence tests pin the analytic route against
//! the solver's own [`Solver::solve`](crate::Solver::solve), the
//! batched route against per-seed tiled device trials, and tiled
//! against monolithic arrays. Read noise is counter-based and batched
//! silicon follows the trial seed, so results are a pure function of
//! the request in every fidelity.
//!
//! ## Trial-level execution: [`PreparedJob`]
//!
//! [`Session::run`] executes a request start to finish, but a scheduler
//! (`fecim-serve`) needs finer grain: validate once, then run *single
//! trials* whenever workers and grid stripes free up, possibly
//! interleaved with other requests' trials. [`Session::prepare`] splits
//! the pipeline at exactly that joint: it performs all validation and
//! problem building up front and returns a [`PreparedJob`] whose
//! [`run_trial`](PreparedJob::run_trial) produces the same per-trial
//! [`SolveReport`]s `Session::run` would, on every route, and whose
//! [`finish`](PreparedJob::finish) applies the same normalization and
//! summarization. `Session::run` itself is a thin loop over this API.

use std::fmt;

use serde::{Deserialize, Serialize};

use fecim_crossbar::{CrossbarConfig, Fidelity};
use fecim_device::VariationConfig;
use fecim_ising::{CopProblem, IsingError, IsingModel, ObjectiveSense, SpinVector};

use crate::annealer::SolveReport;
use crate::batch::BatchGridSummary;
use crate::request::{
    check_generated, BackendPlan, ProblemSpec, RunPlan, SolveRequest, SolverSpec,
};
use crate::solver::{run_trial, DeviceArray};

/// Error raised while validating or executing a [`SolveRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// The request combines options the machinery cannot serve (e.g. a
    /// batched backend with a baseline solver, or zero trials).
    InvalidRequest(String),
    /// The problem spec failed to build or encode into Ising form.
    Problem(IsingError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            SessionError::Problem(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SessionError::InvalidRequest(_) => None,
            SessionError::Problem(e) => Some(e),
        }
    }
}

impl From<IsingError> for SessionError {
    fn from(e: IsingError) -> SessionError {
        SessionError::Problem(e)
    }
}

impl SessionError {
    /// Collapse into the workspace's [`IsingError`] (request-shape
    /// errors become [`IsingError::InvalidProblem`]) — for callers whose
    /// signatures predate the job API.
    pub fn into_ising(self) -> IsingError {
        match self {
            SessionError::InvalidRequest(msg) => IsingError::InvalidProblem(msg),
            SessionError::Problem(e) => e,
        }
    }
}

fn invalid(msg: impl Into<String>) -> SessionError {
    SessionError::InvalidRequest(msg.into())
}

/// Normalized score of one trial (present when the request carries a
/// `reference` objective).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NormalizedTrial {
    /// Native objective divided by the request's reference.
    pub objective: f64,
    /// First iteration whose best energy reached the solver's configured
    /// target (`None` when the target was never hit or none was set) —
    /// the Table 1 time-to-solution numerator.
    pub first_target_hit: Option<usize>,
}

/// Aggregate view of a finished request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Trials executed.
    pub trials: usize,
    /// Trials whose best solution satisfied the problem's constraints.
    pub feasible_trials: usize,
    /// Best exact Ising energy over all trials (lower is better).
    pub best_energy: f64,
    /// Best native objective over all trials, honoring the problem's
    /// objective sense (`None` when solving a raw model).
    pub best_objective: Option<f64>,
    /// Mean native objective over all trials.
    pub mean_objective: Option<f64>,
    /// Total simulated hardware energy across trials, joules.
    pub total_energy: f64,
    /// Summed per-trial hardware latency, seconds (the serial-service
    /// time; batched grids additionally report their concurrent
    /// `batch_time` per [`BatchGridSummary`]).
    pub total_time: f64,
}

/// Outcome of [`Session::run`]: per-trial reports (with hardware
/// energy/time attribution and, on device backends, measured
/// [`ActivityStats`](fecim_crossbar::ActivityStats)), optional
/// normalized scores, shared-grid summaries, and the aggregate summary.
///
/// Fully serde-serializable, like the request that produced it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolveResponse {
    /// One report per trial, in trial order.
    pub reports: Vec<SolveReport>,
    /// Per-trial normalized scores (set when the request has a
    /// `reference`).
    pub normalized: Option<Vec<NormalizedTrial>>,
    /// Shared-grid summaries, one per physical grid the batched backend
    /// instantiated (empty for unbatched backends).
    pub grids: Vec<BatchGridSummary>,
    /// Aggregate summary.
    pub summary: RunSummary,
}

impl SolveResponse {
    /// The per-trial `(normalized objective, first target hit)` pairs,
    /// when the request carried a reference.
    pub fn normalized_pairs(&self) -> Option<Vec<(f64, Option<usize>)>> {
        self.normalized.as_ref().map(|trials| {
            trials
                .iter()
                .map(|t| (t.objective, t.first_target_hit))
                .collect()
        })
    }

    /// Just the per-trial normalized objectives (the success-rate /
    /// mean-cut input of the sweeps), when the request carried a
    /// reference.
    pub fn normalized_objectives(&self) -> Option<Vec<f64>> {
        self.normalized
            .as_ref()
            .map(|trials| trials.iter().map(|t| t.objective).collect())
    }
}

/// Executes [`SolveRequest`]s.
///
/// A session is cheap to construct and stateless between runs; it exists
/// so deployment-level configuration (today: an overriding
/// [`CrossbarConfig`] for device backends) has a home that is not the
/// serialized request.
///
/// ```
/// use fecim::{CimAnnealer, ProblemSpec, RunPlan, Session, SolveRequest, SolverSpec};
///
/// let request = SolveRequest::new(
///     ProblemSpec::MaxCut {
///         vertices: 8,
///         edges: (0..8).map(|i| (i, (i + 1) % 8, 1.0)).collect(),
///     },
///     SolverSpec::Cim(CimAnnealer::new(1500).with_flips(1)),
/// )
/// .with_run(RunPlan::Single { seed: 7 });
/// let response = Session::new().run(&request)?;
/// assert!(response.summary.best_objective.unwrap() >= 6.0);
/// # Ok::<(), fecim::SessionError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Session {
    crossbar: Option<CrossbarConfig>,
}

impl Session {
    /// A session with default device-backend configuration: the paper's
    /// crossbar at the request's fidelity, with typical variation in
    /// [`Fidelity::DeviceAccurate`] mode.
    pub fn new() -> Session {
        Session::default()
    }

    /// Override the crossbar configuration device backends program
    /// (quantization/ADC bits, variation, wire technology, …). For
    /// [`BackendPlan::DeviceInLoop`] the plan's fidelity still wins over
    /// `config.fidelity`; a [`BackendPlan::Batched`] grid programs this
    /// config verbatim (including its fidelity). Every batched trial
    /// programs its own array from [`CrossbarConfig::for_trial`], so
    /// results do not depend on `instances` chunking or grid placement.
    pub fn with_crossbar(mut self, config: CrossbarConfig) -> Session {
        self.crossbar = Some(config);
        self
    }

    /// Execute a request.
    ///
    /// # Errors
    ///
    /// [`SessionError::InvalidRequest`] when a solver parameter is unusable
    /// (zero flips, an undefined annealing factor, an empty schedule, …)
    /// or the request combines unsupported options (batched backend with
    /// a baseline solver, a device backend with MESA, zero
    /// trials/tiles/instances);
    /// [`SessionError::Problem`] when the problem spec fails to build or
    /// encode.
    pub fn run(&self, request: &SolveRequest) -> Result<SolveResponse, SessionError> {
        let job = self.prepare(request)?;
        let reports = job.run.to_ensemble().run(|seed| job.run_trial_seeded(seed));
        // Batched replicas pack `instances` at a time onto successive
        // physical grids, in trial order.
        let grids = match &job.route {
            PreparedRoute::Batched {
                tile_rows,
                instances,
                ..
            } => reports
                .chunks(*instances)
                .map(|chunk| BatchGridSummary::of(chunk, *tile_rows, job.quadratic().dimension()))
                .collect(),
            PreparedRoute::Array(_) => Vec::new(),
        };
        job.finish(reports, grids)
    }

    /// Validate a request and build everything its trials share — the
    /// problem, the solver and the array or shared-grid plan — without
    /// running anything. The returned [`PreparedJob`] runs trials one at
    /// a time; [`Session::run`] is a loop over it, and the `fecim-serve`
    /// scheduler interleaves trials of *different* prepared jobs on
    /// shared grids.
    ///
    /// # Errors
    ///
    /// Exactly the validation errors of [`Session::run`]:
    /// [`SessionError::InvalidRequest`] for unusable solver parameters or
    /// unsupported combinations and [`SessionError::Problem`] when the
    /// problem fails to build or encode.
    pub fn prepare(&self, request: &SolveRequest) -> Result<PreparedJob, SessionError> {
        if request.run.trials() == 0 {
            return Err(invalid("run plan must schedule at least one trial"));
        }
        if request.run.threads() == Some(0) {
            return Err(invalid("thread cap must be at least one worker"));
        }
        // The one gate for solver parameters: builders are plain setters
        // and wire payloads never run them.
        request.solver.validate().map_err(invalid)?;
        if let ProblemSpec::Generated(config) = &request.problem {
            check_generated(config).map_err(invalid)?;
        }
        let problem = request.problem.build()?;
        let initial = match &request.initial_spins {
            None => None,
            Some(spins) => {
                if spins.len() != problem.spin_count() {
                    return Err(invalid(format!(
                        "initial_spins length {} does not match the problem's {} spins",
                        spins.len(),
                        problem.spin_count()
                    )));
                }
                if spins.iter().any(|&s| s != 1 && s != -1) {
                    return Err(invalid("initial_spins entries must be -1 or +1"));
                }
                Some(SpinVector::from_signs(spins))
            }
        };
        if let BackendPlan::Batched {
            tile_rows,
            instances,
        } = request.backend
        {
            if !matches!(request.solver, SolverSpec::Cim(_) | SolverSpec::Sb(_)) {
                return Err(invalid(
                    "the batched backend supports only the CiM in-situ and SB solvers",
                ));
            }
            if tile_rows == 0 {
                return Err(invalid("batched backend needs tile_rows > 0"));
            }
            if instances == 0 {
                return Err(invalid("batched backend needs instances > 0"));
            }
        }
        // Encoding is deterministic: encode once up front so a bad
        // instance fails fast and every trial reuses both forms.
        let model = problem.to_ising()?;
        let quadratic = (!model.is_quadratic_only()).then(|| model.to_quadratic_only());
        let route = match request.backend {
            BackendPlan::Analytic => PreparedRoute::Array(None),
            BackendPlan::DeviceInLoop {
                fidelity,
                tile_rows,
            } => {
                if matches!(request.solver, SolverSpec::Mesa(_)) {
                    return Err(invalid(
                        "the MESA baseline runs only on the analytic backend",
                    ));
                }
                if tile_rows == Some(0) {
                    return Err(invalid("device backend needs tile_rows > 0"));
                }
                PreparedRoute::Array(Some(DeviceArray {
                    config: self.crossbar_for(fidelity),
                    tile_rows,
                }))
            }
            // The grid programs the session's crossbar override verbatim
            // (paper defaults otherwise): the Batched plan carries no
            // fidelity of its own.
            BackendPlan::Batched {
                tile_rows,
                instances,
            } => PreparedRoute::Batched {
                config: self
                    .crossbar
                    .clone()
                    .unwrap_or_else(CrossbarConfig::paper_defaults),
                tile_rows,
                instances,
            },
        };
        Ok(PreparedJob {
            problem,
            model,
            quadratic,
            solver: request.solver.clone(),
            route,
            run: request.run,
            reference: request.reference,
            initial,
        })
    }

    /// The crossbar configuration for a device-in-the-loop plan: the
    /// session override when present (fidelity still forced to the
    /// plan's), else the paper defaults with typical variation in
    /// device-accurate mode.
    fn crossbar_for(&self, fidelity: Fidelity) -> CrossbarConfig {
        let mut config = self.crossbar.clone().unwrap_or_else(|| {
            let mut config = CrossbarConfig::paper_defaults();
            if fidelity == Fidelity::DeviceAccurate {
                config.variation = VariationConfig::typical();
            }
            config
        });
        config.fidelity = fidelity;
        config
    }
}

/// One Ideal device-in-the-loop trial of `solver` on an `n`-vertex unit
/// ring, on the paper's crossbar tiled at `tile_rows` (`None` for the
/// monolithic array): the solver unit tests' device route.
#[cfg(test)]
pub(crate) fn ideal_ring_trial(
    solver: SolverSpec,
    n: usize,
    tile_rows: Option<usize>,
    seed: u64,
) -> SolveReport {
    let ring = ProblemSpec::MaxCut {
        vertices: n,
        edges: (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect(),
    };
    let request = SolveRequest::new(ring, solver)
        .with_backend(BackendPlan::DeviceInLoop {
            fidelity: Fidelity::Ideal,
            tile_rows,
        })
        .with_run(RunPlan::Single { seed });
    let mut response = Session::new().run(&request).expect("a ring encodes");
    response.reports.remove(0)
}

/// Where a [`PreparedJob`]'s trials measure their energies.
enum PreparedRoute {
    /// Analytic (`None`) or device-in-the-loop: every trial measures on
    /// the same array.
    Array(Option<DeviceArray>),
    /// Shared-grid batching: each trial measures on its own
    /// `tile_rows`-row array, programmed from `config.for_trial(seed)`;
    /// the caller places the replicas on a
    /// [`TileGrid`](fecim_crossbar::TileGrid) (chunked grids under
    /// [`Session::run`], live admission under the `fecim-serve`
    /// scheduler).
    Batched {
        config: CrossbarConfig,
        tile_rows: usize,
        instances: usize,
    },
}

/// A validated request, split into independently runnable trials — the
/// unit of work a scheduler interleaves across workers and shared grids.
///
/// Produced by [`Session::prepare`]. Each trial is seed-deterministic
/// (trial `i` gets `base_seed + i`), so *when* and *where* a trial runs
/// cannot change its result: [`run_trial`](PreparedJob::run_trial) on
/// any worker, for any route, reproduces what [`Session::run`] computes
/// bit for bit.
pub struct PreparedJob {
    problem: Box<dyn CopProblem + Send + Sync>,
    /// The problem's Ising form, encoded once at prepare time.
    model: IsingModel,
    /// `model` in quadratic-only form (ancilla-embedded fields) when it
    /// has fields; `None` when `model` is quadratic-only already. See
    /// [`PreparedJob::quadratic`].
    quadratic: Option<IsingModel>,
    solver: SolverSpec,
    route: PreparedRoute,
    run: RunPlan,
    reference: Option<f64>,
    /// Validated warm-start spins (original space), shared by every
    /// trial when the request carries `initial_spins`.
    initial: Option<SpinVector>,
}

impl fmt::Debug for PreparedJob {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreparedJob")
            .field("problem", &self.problem.name())
            .field("solver", &self.solver.name())
            .field(
                "route",
                &match self.route {
                    PreparedRoute::Array(_) => "array",
                    PreparedRoute::Batched { .. } => "batched",
                },
            )
            .field("run", &self.run)
            .finish()
    }
}

impl PreparedJob {
    /// The coupling every trial anneals and a batched replica programs:
    /// the model itself, or its ancilla embedding when it has fields.
    fn quadratic(&self) -> &IsingModel {
        self.quadratic.as_ref().unwrap_or(&self.model)
    }

    /// Trials the job's run plan schedules.
    pub fn trials(&self) -> usize {
        self.run.trials()
    }

    /// Seed of trial `trial` (the run plan's flat numbering).
    pub fn seed(&self, trial: usize) -> u64 {
        self.run.base_seed().wrapping_add(trial as u64)
    }

    /// Whether trials run as shared-grid replicas
    /// ([`BackendPlan::Batched`]).
    pub fn is_batched(&self) -> bool {
        matches!(self.route, PreparedRoute::Batched { .. })
    }

    /// Where a batched replica sits on a grid: `(tile_rows, dimension)`,
    /// its tile height and the quadratic spin count of its block
    /// (`None` for unbatched routes).
    pub fn batch_placement(&self) -> Option<(usize, usize)> {
        match &self.route {
            PreparedRoute::Batched { tile_rows, .. } => {
                Some((*tile_rows, self.quadratic().dimension()))
            }
            PreparedRoute::Array(_) => None,
        }
    }

    /// Run one trial. A batched trial programs and owns its own array;
    /// the caller places it on a grid (see `fecim-serve`'s live grids),
    /// which cannot change the result.
    ///
    /// # Errors
    ///
    /// [`SessionError::InvalidRequest`] when `trial` is out of range.
    pub fn run_trial(&self, trial: usize) -> Result<SolveReport, SessionError> {
        if trial >= self.trials() {
            return Err(invalid(format!(
                "trial {trial} out of range for {} trials",
                self.trials()
            )));
        }
        Ok(self.run_trial_seeded(self.seed(trial)))
    }

    fn run_trial_seeded(&self, seed: u64) -> SolveReport {
        let replica;
        let array = match &self.route {
            PreparedRoute::Array(array) => array.as_ref(),
            PreparedRoute::Batched {
                config, tile_rows, ..
            } => {
                replica = DeviceArray {
                    config: config.for_trial(seed),
                    tile_rows: Some(*tile_rows),
                };
                Some(&replica)
            }
        };
        run_trial(
            self.solver.as_solver(),
            self.problem.as_ref(),
            &self.model,
            self.quadratic(),
            self.initial.as_ref(),
            array,
            seed,
        )
    }

    /// Normalize and summarize finished trials into the job's
    /// [`SolveResponse`] — the same post-processing [`Session::run`]
    /// applies. `reports` may cover fewer trials than planned (a
    /// cancelled job summarizes what completed).
    ///
    /// # Errors
    ///
    /// [`SessionError::InvalidRequest`] when the request asked for
    /// normalized scoring but a report carries no native objective.
    pub fn finish(
        &self,
        reports: Vec<SolveReport>,
        grids: Vec<BatchGridSummary>,
    ) -> Result<SolveResponse, SessionError> {
        let normalized = normalized_trials(self.reference, self.solver.name(), &reports)?;
        let summary = summarize(self.problem.objective_sense(), &reports);
        Ok(SolveResponse {
            reports,
            normalized,
            grids,
            summary,
        })
    }
}

fn normalized_trials(
    reference: Option<f64>,
    solver_name: &str,
    reports: &[SolveReport],
) -> Result<Option<Vec<NormalizedTrial>>, SessionError> {
    let Some(reference) = reference else {
        return Ok(None);
    };
    reports
        .iter()
        .map(|report| {
            let objective = report.objective.ok_or_else(|| {
                invalid(format!(
                    "solver `{solver_name}` returned no native objective to normalize"
                ))
            })?;
            Ok(NormalizedTrial {
                objective: objective / reference,
                first_target_hit: report.run.first_target_hit,
            })
        })
        .collect::<Result<Vec<_>, SessionError>>()
        .map(Some)
}

fn summarize(sense: ObjectiveSense, reports: &[SolveReport]) -> RunSummary {
    let better = |a: f64, b: f64| match sense {
        ObjectiveSense::Maximize => a.max(b),
        ObjectiveSense::Minimize => a.min(b),
    };
    let mut best_objective: Option<f64> = None;
    let mut objective_sum = 0.0f64;
    let mut scored = 0usize;
    let mut best_energy = f64::INFINITY;
    let mut feasible_trials = 0usize;
    let mut total_energy = 0.0f64;
    let mut total_time = 0.0f64;
    for report in reports {
        if let Some(objective) = report.objective {
            best_objective = Some(match best_objective {
                Some(best) => better(best, objective),
                None => objective,
            });
            objective_sum += objective;
            scored += 1;
        }
        best_energy = best_energy.min(report.best_energy);
        feasible_trials += usize::from(report.feasible);
        total_energy += report.energy.total();
        total_time += report.time.total();
    }
    RunSummary {
        trials: reports.len(),
        feasible_trials,
        best_energy,
        best_objective,
        mean_objective: (scored > 0).then(|| objective_sum / scored as f64),
        total_energy,
        total_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CimAnnealer, DirectAnnealer, MesaAnnealer, Solver};
    use fecim_gset::{GeneratorConfig, GsetFamily};

    fn ring_spec(n: usize) -> ProblemSpec {
        ProblemSpec::MaxCut {
            vertices: n,
            edges: (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect(),
        }
    }

    fn cim_request(n: usize, iterations: usize) -> SolveRequest {
        SolveRequest::new(
            ring_spec(n),
            SolverSpec::Cim(CimAnnealer::new(iterations).with_flips(1)),
        )
    }

    #[test]
    fn single_run_matches_legacy_solve() {
        let request = cim_request(12, 400).with_run(RunPlan::Single { seed: 5 });
        let response = Session::new().run(&request).expect("ring encodes");
        assert_eq!(response.reports.len(), 1);
        let ring = fecim_ising::MaxCut::new(12, (0..12).map(|i| (i, (i + 1) % 12, 1.0)).collect())
            .unwrap();
        let legacy = CimAnnealer::new(400).with_flips(1).solve(&ring, 5).unwrap();
        assert_eq!(response.reports[0].best_energy, legacy.best_energy);
        assert_eq!(response.reports[0].best_spins, legacy.best_spins);
        assert_eq!(response.summary.trials, 1);
        assert_eq!(response.summary.best_energy, legacy.best_energy);
        assert!(response.grids.is_empty());
        assert!(response.normalized.is_none());
    }

    #[test]
    fn ensemble_runs_in_trial_order_with_reference_scoring() {
        let request = cim_request(10, 200)
            .with_run(RunPlan::Ensemble {
                trials: 4,
                base_seed: 21,
                threads: Some(1),
            })
            .with_reference(10.0);
        let response = Session::new().run(&request).expect("ring encodes");
        assert_eq!(response.reports.len(), 4);
        let normalized = response.normalized.as_ref().expect("reference set");
        for (report, trial) in response.reports.iter().zip(normalized) {
            assert_eq!(trial.objective, report.objective.unwrap() / 10.0);
        }
        let pairs = response.normalized_pairs().unwrap();
        assert_eq!(pairs.len(), 4);
    }

    #[test]
    fn invalid_combinations_are_rejected() {
        let mesa = SolveRequest::new(ring_spec(8), SolverSpec::Mesa(MesaAnnealer::new(50)))
            .with_backend(BackendPlan::DeviceInLoop {
                fidelity: Fidelity::Ideal,
                tile_rows: None,
            });
        assert!(matches!(
            Session::new().run(&mesa),
            Err(SessionError::InvalidRequest(_))
        ));
        let direct_batched = SolveRequest::new(
            ring_spec(8),
            SolverSpec::Direct(DirectAnnealer::cim_asic(50)),
        )
        .with_backend(BackendPlan::Batched {
            tile_rows: 4,
            instances: 2,
        });
        assert!(matches!(
            Session::new().run(&direct_batched),
            Err(SessionError::InvalidRequest(_))
        ));
        let zero_trials = cim_request(8, 50).with_run(RunPlan::Ensemble {
            trials: 0,
            base_seed: 0,
            threads: None,
        });
        assert!(matches!(
            Session::new().run(&zero_trials),
            Err(SessionError::InvalidRequest(_))
        ));
        // A wire-deserializable thread cap of zero must error, not panic
        // in the ensemble runner.
        let zero_threads = cim_request(8, 50).with_run(RunPlan::Ensemble {
            trials: 2,
            base_seed: 0,
            threads: Some(0),
        });
        assert!(matches!(
            Session::new().run(&zero_threads),
            Err(SessionError::InvalidRequest(_))
        ));
        let zero_tiles = cim_request(8, 50).with_backend(BackendPlan::Batched {
            tile_rows: 0,
            instances: 2,
        });
        assert!(matches!(
            Session::new().run(&zero_tiles),
            Err(SessionError::InvalidRequest(_))
        ));
    }

    #[test]
    fn unusable_generated_specs_are_rejected_before_generation() {
        let generated = |vertex_count, family, mean_degree| GeneratorConfig {
            vertex_count,
            family,
            mean_degree,
            seed: 3,
        };
        for degree in [-1.0, 0.0, f64::NAN, f64::INFINITY] {
            let request = SolveRequest::new(
                ProblemSpec::Generated(generated(60, GsetFamily::RandomUnit, degree)),
                SolverSpec::Cim(CimAnnealer::new(10)),
            );
            assert!(
                matches!(Session::new().prepare(&request), Err(SessionError::InvalidRequest(msg)) if msg.contains("mean degree")),
                "degree {degree}"
            );
        }
        // Sizes past what a request line could spell out are refused by
        // the check alone; nothing here generates them.
        for family in GsetFamily::all() {
            assert!(check_generated(&generated(usize::MAX, family, 4.0)).is_err());
            assert!(check_generated(&generated(1 << 40, family, 1e-6)).is_err());
        }
        assert!(check_generated(&generated(1 << 17, GsetFamily::RandomUnit, 1e9)).is_err());
        // The largest benchmark instances pass.
        assert!(check_generated(&generated(896, GsetFamily::RandomUnit, 313.25)).is_ok());
        assert!(check_generated(&generated(3000, GsetFamily::ToroidalUnit, 4.0)).is_ok());
        assert!(check_generated(&generated(1, GsetFamily::RandomSigned, 10.0)).is_ok());
    }

    #[test]
    fn batched_backend_chunks_large_ensembles_into_grids() {
        let request = cim_request(16, 60)
            .with_backend(BackendPlan::Batched {
                tile_rows: 4,
                instances: 2,
            })
            .with_run(RunPlan::Ensemble {
                trials: 5,
                base_seed: 7,
                threads: None,
            });
        let response = Session::new().run(&request).expect("ring encodes");
        assert_eq!(response.reports.len(), 5);
        assert_eq!(response.grids.len(), 3, "2 + 2 + 1 replicas");
        assert_eq!(response.grids[0].instances, 2);
        assert_eq!(response.grids[2].instances, 1);
        // Chunked seeds stay aligned with the flat trial numbering.
        let flat = cim_request(16, 60)
            .with_backend(BackendPlan::Batched {
                tile_rows: 4,
                instances: 5,
            })
            .with_run(RunPlan::Ensemble {
                trials: 5,
                base_seed: 7,
                threads: None,
            });
        let flat_response = Session::new().run(&flat).unwrap();
        for (a, b) in response.reports.iter().zip(&flat_response.reports) {
            assert_eq!(a.best_energy, b.best_energy);
            assert_eq!(a.best_spins, b.best_spins);
        }
    }

    #[test]
    fn warm_started_zero_iteration_run_echoes_fresh_run_result() {
        // A fresh run's best spins, fed back as `initial_spins` with a
        // zero-iteration solver, come back verbatim with the same energy
        // — the contract campaign round-chaining builds on.
        let fresh = Session::new()
            .run(&cim_request(12, 300).with_run(RunPlan::Single { seed: 9 }))
            .expect("ring encodes");
        let best = fresh.reports[0].best_spins.clone();
        let warm_request = SolveRequest::new(
            ring_spec(12),
            SolverSpec::Cim(CimAnnealer::new(0).with_flips(1)),
        )
        .with_run(RunPlan::Single { seed: 9 })
        .with_initial_spins(best.as_slice().to_vec());
        let warm = Session::new().run(&warm_request).expect("ring encodes");
        assert_eq!(warm.reports[0].best_spins, best);
        assert_eq!(warm.reports[0].best_energy, fresh.reports[0].best_energy);
    }

    #[test]
    fn warm_start_applies_to_batched_route() {
        let fresh = cim_request(16, 60).with_backend(BackendPlan::Batched {
            tile_rows: 4,
            instances: 2,
        });
        let fresh_out = Session::new().run(&fresh).unwrap();
        let best = fresh_out.reports[0].best_spins.clone();
        let warm = SolveRequest::new(
            ring_spec(16),
            SolverSpec::Cim(CimAnnealer::new(0).with_flips(1)),
        )
        .with_backend(BackendPlan::Batched {
            tile_rows: 4,
            instances: 2,
        })
        .with_initial_spins(best.as_slice().to_vec());
        let warm_out = Session::new().run(&warm).unwrap();
        assert_eq!(warm_out.reports[0].best_spins, best);
    }

    #[test]
    fn invalid_initial_spins_are_rejected() {
        let wrong_len = cim_request(8, 50).with_initial_spins(vec![1; 7]);
        assert!(matches!(
            Session::new().run(&wrong_len),
            Err(SessionError::InvalidRequest(_))
        ));
        let bad_value = cim_request(8, 50).with_initial_spins(vec![1, -1, 1, -1, 1, -1, 1, 0]);
        assert!(matches!(
            Session::new().run(&bad_value),
            Err(SessionError::InvalidRequest(_))
        ));
    }

    #[test]
    fn errors_format_and_convert() {
        let err = invalid("zero trials");
        assert_eq!(err.to_string(), "invalid request: zero trials");
        assert!(matches!(err.into_ising(), IsingError::InvalidProblem(_)));
        let problem: SessionError = IsingError::InvalidProblem("x".into()).into();
        assert!(problem.to_string().contains("invalid problem"));
        use std::error::Error;
        assert!(problem.source().is_some());
    }
}
