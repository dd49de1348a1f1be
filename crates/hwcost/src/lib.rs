//! # fecim-hwcost
//!
//! Hardware cost model of the three annealer architectures compared in the
//! paper (Qian et al., DAC 2025, Sec. 4): a 22 nm component cost database
//! (ADC of ref \[36\], `eˣ` units of ref \[18\], DESTINY-style wires of
//! ref \[37\]), energy/time accounting over crossbar activity counts, and
//! analytic per-iteration activity models for paper-scale runs.
//!
//! ```
//! use fecim_hwcost::{AnnealerKind, CostModel, IterationProfile};
//!
//! let model = CostModel::paper_22nm(3000, 4);
//! let profile = IterationProfile::paper(3000);
//! let ours = profile.run_energy(AnnealerKind::InSitu, &model, 1).total();
//! let base = profile.run_energy(AnnealerKind::CimAsic, &model, 1).total();
//! assert!(base / ours > 1000.0); // the Fig. 8 headline
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod accounting;
mod annealers;
mod components;

pub use accounting::{energy_of, time_of, EnergyReport, TimeReport};
pub use annealers::{AnnealerKind, IterationProfile};
pub use components::{CostModel, EventCost, ExpUnit};
