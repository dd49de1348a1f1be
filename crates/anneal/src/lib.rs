//! # fecim-anneal
//!
//! Annealing algorithms for the ferroelectric CiM in-situ annealer
//! (Qian et al., DAC 2025): the proposed in-situ flow (Algorithm 1 —
//! incremental-E measurement, fractional annealing factor, stepped
//! back-gate temperature descent), the direct-E Metropolis baseline the
//! CiM/FPGA and CiM/ASIC annealers run, MESA (ref \[7\]), greedy local
//! search for reference optima, and the rayon-backed [`Ensemble`] runner
//! for success-probability experiments (deterministic at any thread
//! count).
//!
//! ```
//! use fecim_anneal::{run_in_situ, AnnealConfig, ExactBackend, SteppedSchedule, suggest_einc_scale};
//! use fecim_device::FractionalFactor;
//! use fecim_ising::{CopProblem, MaxCut, SpinVector};
//!
//! let mc = MaxCut::new(4, vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])?;
//! let model = mc.to_ising()?;
//! let j = model.couplings();
//! let mut backend = ExactBackend::new(j, SpinVector::all_up(4));
//! let schedule = SteppedSchedule::paper(200);
//! let factor = FractionalFactor::paper();
//! let scale = suggest_einc_scale(j, 1);
//! let result = run_in_situ(&mut backend, &schedule, &factor, scale,
//!                          AnnealConfig::new(200, 7).with_flips(1));
//! assert!(mc.cut_from_energy(result.best_energy) >= 3.0);
//! # Ok::<(), fecim_ising::IsingError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod backend;
mod engine;
mod ensemble;
mod local_search;
mod mesa;
mod result;
mod schedule;
mod trace;

pub use backend::{EnergyBackend, ExactBackend, TiledBackend};
pub use engine::{run_direct, run_in_situ, suggest_einc_scale, Acceptance, AnnealConfig};
pub use ensemble::{success_rate, Ensemble};
pub use local_search::{local_search, multi_start_local_search};
pub use mesa::{run_mesa, MesaConfig};
pub use result::{Aggregate, RunRecorder, RunResult};
pub use schedule::{GeometricSchedule, Schedule, SteppedSchedule};
pub use trace::{Trace, TraceMode, TracePoint};
