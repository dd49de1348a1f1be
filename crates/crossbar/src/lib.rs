//! # fecim-crossbar
//!
//! DG FeFET compute-in-memory crossbar simulator (Sec. 3.3 / Fig. 6d of
//! Qian et al., DAC 2025): `k`-bit signed quantization of the coupling
//! matrix, bit-sliced column sensing through multiplexed SAR ADCs, wire
//! parasitics, device variation, and hardware activity accounting.
//!
//! Two read modes mirror the paper's comparison: the proposed *in-situ
//! incremental-E* read (only flipped-spin columns activate) and the
//! conventional *direct VMV* read (whole array) used by the baseline
//! annealers. [`TiledCrossbar`] is the one array type: a grid of
//! fixed-size tiles, whose one-tile case (`tile_rows = n`) is the
//! monolithic array of the paper. [`TileGrid`] is the stripe-span
//! allocator of a grid shared by several batched instances, each of
//! which owns its own array.
//!
//! ```
//! use fecim_crossbar::{CrossbarConfig, TiledCrossbar};
//! use fecim_ising::{CsrCoupling, SpinVector};
//!
//! let j = CsrCoupling::from_triplets(4, &[(0, 1, 0.25), (2, 3, -0.25)])?;
//! // One 4-row tile: the monolithic array.
//! let mut xb = TiledCrossbar::program(&j, CrossbarConfig::paper_defaults(), 4);
//! let sigma = SpinVector::all_up(4);
//! let e = xb.vmv(sigma.as_slice());
//! assert!((e - 0.0).abs() < 0.5); // 2·(0.25) + 2·(−0.25) = 0
//! assert!(xb.stats().adc_conversions > 0);
//! # Ok::<(), fecim_ising::IsingError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adc;
mod array;
mod batch;
mod parasitics;
mod quant;
mod stats;
mod tiled;

pub use adc::{MuxAssignment, SarAdc};
pub use array::{CrossbarConfig, Fidelity};
pub use batch::{BatchStats, TileGrid};
pub use parasitics::{ArrayWires, WireParams};
pub use quant::QuantizedCoupling;
pub use stats::ActivityStats;
pub use tiled::{SensingMode, TiledCrossbar};
