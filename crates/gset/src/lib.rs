//! # fecim-gset
//!
//! Gset-style Max-Cut benchmark instances: graph data structures, seeded
//! generators matching the Stanford Gset structural families, and the
//! 30-instance suite used in the paper's evaluation (Sec. 4.1 of Qian et
//! al., DAC 2025).
//!
//! ```
//! use fecim_gset::{GeneratorConfig, GsetFamily};
//!
//! let graph = GeneratorConfig::new(128, 7)
//!     .with_family(GsetFamily::RandomSigned)
//!     .with_mean_degree(6.0)
//!     .generate();
//! let max_cut = graph.to_max_cut();
//! assert_eq!(max_cut.vertex_count(), 128);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod generate;
mod graph;
mod registry;

pub use generate::{GeneratorConfig, GsetFamily};
pub use graph::{Graph, GraphError};
pub use registry::{paper_suite, quick_suite, suite_instance, SizeGroup, SuiteInstance};
