//! Simulated-bifurcation engines (bSB/dSB) on the FeCIM crossbar.
//!
//! The paper's in-situ annealer is *spin-serial*: every iteration flips a
//! `t`-spin subset and senses one incremental-E read, so hardware
//! throughput is capped at `t` column groups per array cycle. The
//! simulated-bifurcation (SB) family evolves a *continuous* position /
//! momentum pair `(x_i, y_i)` per spin under a symplectic Euler update
//! and needs the full coupling product `J·x` (ballistic, bSB) or
//! `J·sign(x)` (discrete, dSB) each step — exactly one full-vector MVM
//! read of the same crossbar, replacing `n` spin-serial reads. That is
//! where SB's parallelism advantage shows up on this hardware, and why
//! the engine talks to the array through the
//! [`TiledCrossbar::mvm`](fecim_crossbar::TiledCrossbar::mvm) primitive:
//! Ideal/DeviceAccurate fidelities, any tiling, and batched trials (each
//! of which owns its array) all work unchanged.
//!
//! The crate has two layers:
//!
//! * [`MvmSource`] — where the per-step coupling product comes from:
//!   software-exact ([`ExactMvm`]) or the simulated crossbar
//!   ([`DeviceMvm`], which drives bSB's continuous input through a
//!   bit-serial sign-vector DAC decomposition);
//! * [`SbEngine`] — the bSB/dSB symplectic update loop, returning the
//!   same [`RunResult`](fecim_anneal::RunResult) shape as the annealing
//!   engines so solvers, sessions, schedulers and campaigns compose
//!   without new plumbing.
//!
//! Determinism: a run is a pure function of `(engine config, coupling,
//! initial spins, seed)`. The update loop is serial, the only randomness
//! is the seeded momentum draw, and the device MVM read is bit-identical
//! at any thread count (read noise is counter-based per MVM ordinal), so
//! SB trials inherit the workspace-wide bit-reproducibility contract.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod mvm;

pub use engine::{PressureSchedule, SbEngine, SbVariant};
pub use mvm::{DeviceMvm, ExactMvm, MvmSource, MAX_IN_BITS};
