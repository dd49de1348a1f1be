//! # fecim
//!
//! A full-system reproduction of **"Device-Algorithm Co-Design of
//! Ferroelectric Compute-in-Memory In-Situ Annealer for Combinatorial
//! Optimization Problems"** (Qian et al., DAC 2025): the incremental-E
//! transformation, the DG FeFET crossbar, the tunable back-gate in-situ
//! annealing flow, and the CiM/FPGA + CiM/ASIC baselines it is evaluated
//! against.
//!
//! The workspace layering (see `DESIGN.md` in the repository root):
//!
//! * [`fecim_ising`] — Ising/QUBO models, COP encodings, incremental-E math;
//! * [`fecim_gset`] — Gset-style Max-Cut benchmark instances;
//! * [`fecim_device`] — FeFET/DG FeFET device models and `f(T)` factors;
//! * [`fecim_crossbar`] — the CiM array simulator;
//! * [`fecim_hwcost`] — 22 nm energy/latency accounting;
//! * [`fecim_anneal`] — the annealing engines;
//! * [`fecim_sb`] — the simulated-bifurcation (bSB/dSB) engines on the
//!   crossbar's full-vector MVM read path;
//! * this crate — the user-facing job API, solvers and the paper's
//!   experiments.
//!
//! ## Quickstart: the job API
//!
//! Everything runs through one surface: describe the job as a
//! serde-serializable [`SolveRequest`] (problem + solver + typed
//! [`BackendPlan`] + [`RunPlan`]) and hand it to [`Session::run`]:
//!
//! ```
//! use fecim::{
//!     CimAnnealer, DirectAnnealer, ProblemSpec, RunPlan, Session, SolveRequest, SolverSpec,
//! };
//!
//! // An 8-vertex ring: optimal cut = 8.
//! let problem = ProblemSpec::MaxCut {
//!     vertices: 8,
//!     edges: (0..8).map(|i| (i, (i + 1) % 8, 1.0)).collect(),
//! };
//! let session = Session::new();
//! let ours = session.run(
//!     &SolveRequest::new(
//!         problem.clone(),
//!         SolverSpec::Cim(CimAnnealer::new(1500).with_flips(1)),
//!     )
//!     .with_run(RunPlan::Single { seed: 7 }),
//! )?;
//! let baseline = session.run(
//!     &SolveRequest::new(
//!         problem,
//!         SolverSpec::Direct(DirectAnnealer::cim_asic(1500).with_flips(1)),
//!     )
//!     .with_run(RunPlan::Single { seed: 7 }),
//! )?;
//! assert!(ours.summary.best_objective.unwrap() >= 6.0);
//! // The co-designed annealer runs the same workload far cheaper:
//! assert!(baseline.summary.total_energy / ours.summary.total_energy > 2.0);
//! # Ok::<(), fecim::SessionError>(())
//! ```
//!
//! Requests round-trip through JSON unchanged
//! ([`SolveRequest::to_json`]/[`SolveRequest::from_json`]), and a
//! deserialized request produces bit-identical Ideal-mode results — a
//! future HTTP or queue front-end is a serialization boundary, not a
//! refactor.
//!
//! ## One request, many execution modes
//!
//! The [`BackendPlan`] selects where energy measurements come from
//! (software-exact, simulated crossbar, tiled arrays, shared-grid
//! batching) and the [`RunPlan`] scales from one seeded trial to a
//! parallel ensemble — results are bit-identical at any thread count:
//!
//! ```
//! use fecim::{CimAnnealer, ProblemSpec, RunPlan, Session, SolveRequest, SolverSpec};
//!
//! let request = SolveRequest::new(
//!     ProblemSpec::MaxCut {
//!         vertices: 8,
//!         edges: (0..8).map(|i| (i, (i + 1) % 8, 1.0)).collect(),
//!     },
//!     SolverSpec::Cim(CimAnnealer::new(500).with_flips(1)),
//! )
//! .with_run(RunPlan::Ensemble {
//!     trials: 8,
//!     base_seed: 1,
//!     threads: None,
//! })
//! .with_reference(8.0);
//! let response = Session::new().run(&request)?;
//! assert_eq!(response.reports.len(), 8);
//! assert_eq!(response.normalized.as_ref().unwrap().len(), 8);
//! # Ok::<(), fecim::SessionError>(())
//! ```
//!
//! The builder-style solvers ([`CimAnnealer`], [`DirectAnnealer`],
//! [`MesaAnnealer`]) and the [`Solver`] trait remain the machinery
//! underneath — [`Solver::solve`] is still the right call for quick
//! one-off library use. Everything ensemble- or batch-shaped goes
//! through requests.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod annealer;
mod baselines;
mod batch;
pub mod experiment;
mod mesa_solver;
pub mod report;
mod request;
mod sb_solver;
mod session;
mod solver;

pub use annealer::{CimAnnealer, FactorChoice, SolveReport};
pub use baselines::DirectAnnealer;
pub use batch::BatchGridSummary;
pub use experiment::{
    cost_trend, run_experiment, AlgoStats, ExperimentConfig, ExperimentOutcome, GroupOutcome,
    HardwareCost, Scale, TrendPoint,
};
pub use mesa_solver::MesaAnnealer;
pub use request::{
    BackendPlan, ProblemSpec, RunPlan, SolveRequest, SolverSpec, MAX_REQUEST_LINE_BYTES,
};
pub use sb_solver::SbAnnealer;
pub use session::{NormalizedTrial, PreparedJob, RunSummary, Session, SessionError, SolveResponse};
pub use solver::{DeviceArray, Solver};

pub use fecim_anneal as anneal;
pub use fecim_crossbar as crossbar;
pub use fecim_device as device;
pub use fecim_gset as gset;
pub use fecim_hwcost as hwcost;
pub use fecim_ising as ising;
pub use fecim_sb as sb;
