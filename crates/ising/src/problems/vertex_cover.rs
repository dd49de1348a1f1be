//! Minimum vertex cover as a penalty QUBO:
//! `Σ x_i + A·Σ_{(u,v)∈E} (1 − x_u)(1 − x_v)` with `A > 1`.

use serde::{Deserialize, Serialize};

use crate::coupling::IsingModel;
use crate::error::IsingError;
use crate::problems::{CopProblem, ObjectiveSense};
use crate::qubo::Qubo;
use crate::spin::SpinVector;

/// A minimum-vertex-cover instance on an undirected graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VertexCover {
    n: usize,
    edges: Vec<(usize, usize)>,
    penalty: f64,
}

impl VertexCover {
    /// Build an instance with the default uncovered-edge penalty `2.0`.
    ///
    /// # Errors
    ///
    /// [`IsingError::InvalidProblem`] for out-of-range endpoints or
    /// self-loops.
    pub fn new(n: usize, edges: Vec<(usize, usize)>) -> Result<VertexCover, IsingError> {
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
        Ok(VertexCover {
            n,
            edges,
            penalty: 2.0,
        })
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Vertices selected into the cover by `spins`.
    fn cover(&self, spins: &SpinVector) -> Vec<usize> {
        let x = spins.to_binaries();
        (0..self.n).filter(|&i| x[i] == 1).collect()
    }

    /// Number of edges with neither endpoint in the cover.
    fn uncovered_count(&self, spins: &SpinVector) -> usize {
        let x = spins.to_binaries();
        self.edges
            .iter()
            .filter(|&&(u, v)| x[u] == 0 && x[v] == 0)
            .count()
    }
}

impl CopProblem for VertexCover {
    fn spin_count(&self) -> usize {
        self.n
    }

    fn to_ising(&self) -> Result<IsingModel, IsingError> {
        let mut qubo = Qubo::new(self.n);
        // (1−x_u)(1−x_v) = 1 − x_u − x_v + x_u x_v
        let a = self.penalty;
        let mut offset = 0.0;
        for i in 0..self.n {
            qubo.add_term(i, i, 1.0);
        }
        for &(u, v) in &self.edges {
            offset += a;
            qubo.add_term(u, u, -a);
            qubo.add_term(v, v, -a);
            qubo.add_term(u, v, a);
        }
        let mut model = qubo.to_ising()?;
        model.set_offset(model.offset() + offset);
        Ok(model)
    }

    fn native_objective(&self, spins: &SpinVector) -> f64 {
        if self.is_feasible(spins) {
            self.cover(spins).len() as f64
        } else {
            self.n as f64 + 1.0 // worse than any feasible cover
        }
    }

    fn objective_sense(&self) -> ObjectiveSense {
        ObjectiveSense::Minimize
    }

    fn is_feasible(&self, spins: &SpinVector) -> bool {
        self.uncovered_count(spins) == 0
    }

    fn name(&self) -> &str {
        "vertex-cover"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn star_graph_optimal_cover_is_the_hub() {
        // Star K1,4: hub 0 covers all edges.
        let edges: Vec<(usize, usize)> = (1..5).map(|v| (0, v)).collect();
        let p = VertexCover::new(5, edges).unwrap();
        let model = p.to_ising().unwrap();
        let mut best = (f64::INFINITY, None);
        for bits in 0u8..32 {
            let x: Vec<u8> = (0..5).map(|i| (bits >> i) & 1).collect();
            let s = SpinVector::from_binaries(&x);
            let e = model.energy(&s);
            if e < best.0 {
                best = (e, Some(s));
            }
        }
        let s = best.1.unwrap();
        assert!(p.is_feasible(&s));
        assert_eq!(p.cover(&s), vec![0]);
    }

    #[test]
    fn energy_of_feasible_cover_equals_its_size() {
        let p = VertexCover::new(3, vec![(0, 1), (1, 2)]).unwrap();
        let model = p.to_ising().unwrap();
        let s = SpinVector::from_binaries(&[0, 1, 0]); // cover {1}
        assert!(p.is_feasible(&s));
        assert!((model.energy(&s) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn uncovered_edges_detected_and_penalized() {
        let p = VertexCover::new(2, vec![(0, 1)]).unwrap();
        let empty = SpinVector::from_binaries(&[0, 0]);
        assert_eq!(p.uncovered_count(&empty), 1);
        assert!(!p.is_feasible(&empty));
        assert_eq!(p.native_objective(&empty), 3.0);
        let model = p.to_ising().unwrap();
        let covered = SpinVector::from_binaries(&[1, 0]);
        assert!(model.energy(&empty) > model.energy(&covered));
    }

    #[test]
    fn validation() {
        assert!(VertexCover::new(2, vec![(0, 5)]).is_err());
        assert!(VertexCover::new(2, vec![(1, 1)]).is_err());
    }
}
