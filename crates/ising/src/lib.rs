//! # fecim-ising
//!
//! Ising models, QUBO forms, COP→Ising transformations and the paper's
//! **incremental-E** energy kernels — the algorithmic substrate of the
//! ferroelectric compute-in-memory in-situ annealer (Qian et al., DAC 2025).
//!
//! The crate provides:
//!
//! * [`Spin`], [`SpinVector`], [`FlipMask`] — spin configurations and the
//!   `σ_f`/`σ_c`/`σ_r` decomposition of Sec. 3.2;
//! * [`DenseCoupling`], [`CsrCoupling`], [`IsingModel`] — symmetric coupling
//!   matrices with the `O(n²)` direct energy and the `O(n)` incremental
//!   `ΔE = 4σ_rᵀJσ_c` (Eq. 9);
//! * [`LocalFieldState`] — a local-field cache for fast exact software
//!   annealing;
//! * [`Qubo`] with the exact QUBO↔Ising equivalence, and [`decompose`] —
//!   qbsolv-style windowed sub-QUBO extraction for beyond-capacity
//!   instances;
//! * [`problems`] — Max-Cut (the paper's evaluation workload), graph
//!   coloring, knapsack, the SK spin glass and raw Ising encodings; any
//!   other COP arrives as a [`Qubo`].
//!
//! ## Quick example
//!
//! ```
//! use fecim_ising::{Coupling, CopProblem, FlipMask, MaxCut, SpinVector};
//!
//! let mc = MaxCut::new(4, vec![(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])?;
//! let model = mc.to_ising()?;
//! let spins = SpinVector::from_signs(&[1, -1, 1, -1]);
//! assert_eq!(mc.cut_value(&spins), 4.0); // bipartition cuts every edge
//!
//! // Incremental-E: ΔE of flipping spin 2 without recomputing σᵀJσ.
//! let mask = FlipMask::single(2, 4);
//! let new_spins = spins.flipped_by(&mask);
//! let de = model.couplings().delta_energy(&new_spins, &mask);
//! let direct = model.energy(&new_spins) - model.energy(&spins);
//! assert!((de - direct).abs() < 1e-12);
//! # Ok::<(), fecim_ising::IsingError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod coupling;
pub mod decompose;
mod energy;
mod error;
pub mod problems;
mod qubo;
mod spin;

pub use coupling::{Coupling, CsrCoupling, DenseCoupling, IsingModel};
pub use decompose::{impact_windows, SubQubo};
pub use energy::LocalFieldState;
pub use error::IsingError;
pub use problems::{
    CopProblem, GraphColoring, Knapsack, MaxCut, ObjectiveSense, RawIsing, SherringtonKirkpatrick,
};
pub use qubo::Qubo;
pub use spin::{FlipMask, Spin, SpinVector};
