//! Combinatorial optimization problems (COPs) and their Ising encodings.
//!
//! Every problem implements [`CopProblem`]: it can be transformed into an
//! [`IsingModel`] (the paper's "transformation" step, Fig. 3a) and can score
//! and validate a spin configuration in its native objective.

use crate::coupling::IsingModel;
use crate::error::IsingError;
use crate::spin::SpinVector;

mod coloring;
mod knapsack;
mod max_cut;
mod raw;
mod spin_glass;

pub use coloring::GraphColoring;
pub use knapsack::Knapsack;
pub use max_cut::MaxCut;
pub use raw::RawIsing;
pub use spin_glass::SherringtonKirkpatrick;

/// A combinatorial optimization problem that can be solved through an Ising
/// annealer.
///
/// The *native objective* is the quantity a user cares about (cut weight,
/// knapsack value, …); the Ising energy is its internal surrogate. By
/// convention lower Ising energy is better, while
/// [`CopProblem::native_objective`] follows the problem's own "bigger is
/// better / smaller is better" sense exposed via
/// [`CopProblem::objective_sense`].
pub trait CopProblem {
    /// Number of spins of the Ising encoding.
    fn spin_count(&self) -> usize;

    /// Transform to the Ising model whose ground state encodes the optimum
    /// (paper Fig. 1a "map to Ising model").
    ///
    /// # Errors
    ///
    /// Returns [`IsingError::InvalidProblem`] when the instance cannot be
    /// encoded (e.g. inconsistent sizes).
    fn to_ising(&self) -> Result<IsingModel, IsingError>;

    /// Score a configuration in the problem's native objective.
    fn native_objective(&self, spins: &SpinVector) -> f64;

    /// Whether the native objective is maximized or minimized.
    fn objective_sense(&self) -> ObjectiveSense;

    /// `true` when the configuration satisfies all hard constraints of the
    /// encoding (always `true` for unconstrained problems like Max-Cut).
    fn is_feasible(&self, spins: &SpinVector) -> bool;

    /// A human-readable name for reports.
    fn name(&self) -> &str;
}

/// Direction of a problem's native objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectiveSense {
    /// Larger native objective values are better (e.g. Max-Cut).
    Maximize,
    /// Smaller native objective values are better (e.g. graph-colouring
    /// violations).
    Minimize,
}

impl ObjectiveSense {
    /// `true` if `a` is strictly better than `b` under this sense.
    fn is_better(self, a: f64, b: f64) -> bool {
        match self {
            ObjectiveSense::Maximize => a > b,
            ObjectiveSense::Minimize => a < b,
        }
    }

    /// The better of two values under this sense.
    pub fn better(self, a: f64, b: f64) -> f64 {
        if self.is_better(a, b) {
            a
        } else {
            b
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sense_comparisons() {
        assert!(ObjectiveSense::Maximize.is_better(2.0, 1.0));
        assert!(!ObjectiveSense::Maximize.is_better(1.0, 1.0));
        assert!(ObjectiveSense::Minimize.is_better(1.0, 2.0));
        assert_eq!(ObjectiveSense::Maximize.better(2.0, 3.0), 3.0);
        assert_eq!(ObjectiveSense::Minimize.better(2.0, 3.0), 2.0);
    }
}
