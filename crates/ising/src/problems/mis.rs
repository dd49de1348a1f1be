//! Maximum independent set (MIS) as a penalty QUBO:
//! `−Σ x_i + A·Σ_{(i,j)∈E} x_i x_j` with `A > 1`.

use serde::{Deserialize, Serialize};

use crate::coupling::IsingModel;
use crate::error::IsingError;
use crate::problems::{CopProblem, ObjectiveSense};
use crate::qubo::Qubo;
use crate::spin::SpinVector;

/// A maximum-independent-set instance on an undirected graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MaxIndependentSet {
    n: usize,
    edges: Vec<(usize, usize)>,
    penalty: f64,
}

impl MaxIndependentSet {
    /// Build an instance with the default conflict penalty `2.0`.
    ///
    /// # Errors
    ///
    /// [`IsingError::InvalidProblem`] for out-of-range endpoints or
    /// self-loops.
    pub fn new(n: usize, edges: Vec<(usize, usize)>) -> Result<MaxIndependentSet, IsingError> {
        for &(u, v) in &edges {
            if u >= n || v >= n {
                return Err(IsingError::InvalidProblem(format!(
                    "edge ({u}, {v}) out of range for {n} vertices"
                )));
            }
            if u == v {
                return Err(IsingError::InvalidProblem(format!("self-loop at {u}")));
            }
        }
        Ok(MaxIndependentSet {
            n,
            edges,
            penalty: 2.0,
        })
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Vertices selected by `spins`.
    fn selected(&self, spins: &SpinVector) -> Vec<usize> {
        let x = spins.to_binaries();
        (0..self.n).filter(|&i| x[i] == 1).collect()
    }

    /// Number of edges with both endpoints selected.
    fn conflict_count(&self, spins: &SpinVector) -> usize {
        let x = spins.to_binaries();
        self.edges
            .iter()
            .filter(|&&(u, v)| x[u] == 1 && x[v] == 1)
            .count()
    }
}

impl CopProblem for MaxIndependentSet {
    fn spin_count(&self) -> usize {
        self.n
    }

    fn to_ising(&self) -> Result<IsingModel, IsingError> {
        let mut qubo = Qubo::new(self.n);
        for i in 0..self.n {
            qubo.add_term(i, i, -1.0);
        }
        for &(u, v) in &self.edges {
            qubo.add_term(u, v, self.penalty);
        }
        qubo.to_ising()
    }

    fn native_objective(&self, spins: &SpinVector) -> f64 {
        if self.is_feasible(spins) {
            self.selected(spins).len() as f64
        } else {
            0.0
        }
    }

    fn objective_sense(&self) -> ObjectiveSense {
        ObjectiveSense::Maximize
    }

    fn is_feasible(&self, spins: &SpinVector) -> bool {
        self.conflict_count(spins) == 0
    }

    fn name(&self) -> &str {
        "max-independent-set"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_state_of_path_graph() {
        // Path 0-1-2: MIS is {0, 2}, size 2.
        let p = MaxIndependentSet::new(3, vec![(0, 1), (1, 2)]).unwrap();
        let model = p.to_ising().unwrap();
        let mut best_e = f64::INFINITY;
        let mut best = None;
        for bits in 0u8..8 {
            let x: Vec<u8> = (0..3).map(|i| (bits >> i) & 1).collect();
            let s = SpinVector::from_binaries(&x);
            let e = model.energy(&s);
            if e < best_e {
                best_e = e;
                best = Some(s);
            }
        }
        let best = best.unwrap();
        assert!(p.is_feasible(&best));
        assert_eq!(p.selected(&best), vec![0, 2]);
    }

    #[test]
    fn conflicts_detected() {
        let p = MaxIndependentSet::new(2, vec![(0, 1)]).unwrap();
        let s = SpinVector::from_binaries(&[1, 1]);
        assert_eq!(p.conflict_count(&s), 1);
        assert!(!p.is_feasible(&s));
        assert_eq!(p.native_objective(&s), 0.0);
    }

    #[test]
    fn validation() {
        assert!(MaxIndependentSet::new(2, vec![(0, 3)]).is_err());
        assert!(MaxIndependentSet::new(2, vec![(0, 0)]).is_err());
    }
}
