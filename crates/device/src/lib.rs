//! # fecim-device
//!
//! Behavioural ferroelectric device models for the CiM in-situ annealer
//! (Qian et al., DAC 2025): a conventional FeFET, the scalar Preisach
//! polarization model behind its threshold programming, the double-gate
//! (DG) FeFET whose back gate realizes the tunable annealing factor, plus
//! device variation models and the `f(T) = a/(bT+c)+d` curve fitter.
//!
//! These replace the paper's SPECTRE + BSIM-IMG + Preisach compact-model
//! stack with pure-Rust models that reproduce the same transfer-curve
//! contracts (Fig. 2b/2d, Fig. 6b/6c) — see DESIGN.md for the substitution
//! rationale.
//!
//! ```
//! use fecim_device::{AnnealFactor, DeviceFactor, FractionalFactor};
//!
//! // The physical factor (normalized DG FeFET current under V_BG(T))...
//! let device = DeviceFactor::paper();
//! // ...and the paper's analytic approximation of it.
//! let analytic = FractionalFactor::paper();
//! let t = 350.0;
//! let err = (device.factor(t) - analytic.factor(t) / 1.05).abs();
//! assert!(device.factor(t) >= 0.0 && err < 0.25);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod anneal_factor;
mod counter_rng;
mod dg_fefet;
mod fefet;
mod fit;
mod preisach;
mod variation;

pub use anneal_factor::{AnnealFactor, CurveError, DeviceFactor, FractionalFactor, TableFactor};
pub use counter_rng::{PhiloxCounterRng, ReadNoise};
pub use dg_fefet::{DgFefet, DgFefetParams};
pub use fefet::{ChannelBias, Fefet, FefetParams, StoredBit};
pub use fit::{fit_fractional, FitError, FractionalFit};
pub use preisach::{PreisachFefet, PreisachParams};
pub use variation::{VariationConfig, VariationSampler};
