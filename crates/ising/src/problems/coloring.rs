//! Graph coloring as a penalty-encoded QUBO (one-hot per vertex), one of the
//! COP classes cited in the paper's Table 1 (ref [7] solves coloring on a
//! FeFET CiM annealer).

use serde::{Deserialize, Serialize};

use crate::coupling::IsingModel;
use crate::error::IsingError;
use crate::problems::{CopProblem, ObjectiveSense};
use crate::qubo::Qubo;
use crate::spin::SpinVector;

/// A `k`-coloring instance: assign one of `k` colors to every vertex so that
/// no edge is monochromatic.
///
/// Spin layout: variable `x_{v,c}` (vertex `v` has color `c`) lives at index
/// `v * k + c`. The QUBO is
/// `A·Σ_v (1 − Σ_c x_{v,c})² + B·Σ_{(u,v)∈E} Σ_c x_{u,c} x_{v,c}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphColoring {
    n: usize,
    k: usize,
    edges: Vec<(usize, usize)>,
    one_hot_weight: f64,
    conflict_weight: f64,
}

impl GraphColoring {
    /// Build a `k`-coloring instance with default penalty weights.
    ///
    /// # Errors
    ///
    /// [`IsingError::InvalidProblem`] if `k == 0` or an edge endpoint is out
    /// of range or a self-loop.
    pub fn new(
        n: usize,
        k: usize,
        edges: Vec<(usize, usize)>,
    ) -> Result<GraphColoring, IsingError> {
        if k == 0 {
            return Err(IsingError::InvalidProblem("need at least one color".into()));
        }
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
        Ok(GraphColoring {
            n,
            k,
            edges,
            one_hot_weight: 4.0,
            conflict_weight: 2.0,
        })
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Number of colors.
    pub fn color_count(&self) -> usize {
        self.k
    }

    /// Spin index of variable `x_{v,c}`.
    fn variable_index(&self, v: usize, c: usize) -> usize {
        v * self.k + c
    }

    /// Decode a configuration into per-vertex colors; `None` where the
    /// one-hot constraint is violated.
    pub fn decode(&self, spins: &SpinVector) -> Vec<Option<usize>> {
        let x = spins.to_binaries();
        (0..self.n)
            .map(|v| {
                let set: Vec<usize> = (0..self.k)
                    .filter(|&c| x[self.variable_index(v, c)] == 1)
                    .collect();
                if set.len() == 1 {
                    Some(set[0])
                } else {
                    None
                }
            })
            .collect()
    }

    /// Number of constraint violations: vertices without exactly one color
    /// plus monochromatic edges.
    // audit:allow(dead-pub): COP diagnostic: solver_features checks the solved colouring with it
    pub fn violation_count(&self, spins: &SpinVector) -> usize {
        let colors = self.decode(spins);
        let mut violations = colors.iter().filter(|c| c.is_none()).count();
        for &(u, v) in &self.edges {
            if let (Some(a), Some(b)) = (colors[u], colors[v]) {
                if a == b {
                    violations += 1;
                }
            }
        }
        violations
    }
}

impl CopProblem for GraphColoring {
    fn spin_count(&self) -> usize {
        self.n * self.k
    }

    fn to_ising(&self) -> Result<IsingModel, IsingError> {
        let mut qubo = Qubo::new(self.spin_count());
        let a = self.one_hot_weight;
        let b = self.conflict_weight;
        // A (1 − Σ_c x)² = A (1 − 2Σx + (Σx)²); (Σx)² = Σx + 2Σ_{c<c'} x x'
        for v in 0..self.n {
            for c in 0..self.k {
                let i = self.variable_index(v, c);
                qubo.add_term(i, i, -a); // −2A x + A x = −A x
                for c2 in (c + 1)..self.k {
                    let j = self.variable_index(v, c2);
                    qubo.add_term(i, j, 2.0 * a);
                }
            }
        }
        for &(u, v) in &self.edges {
            for c in 0..self.k {
                qubo.add_term(self.variable_index(u, c), self.variable_index(v, c), b);
            }
        }
        let mut model = qubo.to_ising()?;
        // Constant +A per vertex from the expansion above.
        model.set_offset(model.offset() + a * self.n as f64);
        Ok(model)
    }

    fn native_objective(&self, spins: &SpinVector) -> f64 {
        self.violation_count(spins) as f64
    }

    fn objective_sense(&self) -> ObjectiveSense {
        ObjectiveSense::Minimize
    }

    fn is_feasible(&self, spins: &SpinVector) -> bool {
        self.violation_count(spins) == 0
    }

    fn name(&self) -> &str {
        "graph-coloring"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> GraphColoring {
        GraphColoring::new(3, 3, vec![(0, 1), (1, 2), (0, 2)]).unwrap()
    }

    fn encode(problem: &GraphColoring, colors: &[usize]) -> SpinVector {
        let mut bits = vec![0u8; problem.spin_count()];
        for (v, &c) in colors.iter().enumerate() {
            bits[problem.variable_index(v, c)] = 1;
        }
        SpinVector::from_binaries(&bits)
    }

    #[test]
    fn proper_coloring_is_feasible_and_lower_energy() {
        let p = triangle();
        let model = p.to_ising().unwrap();
        let good = encode(&p, &[0, 1, 2]);
        let bad = encode(&p, &[0, 0, 1]);
        assert!(p.is_feasible(&good));
        assert!(!p.is_feasible(&bad));
        assert!(model.energy(&good) < model.energy(&bad));
    }

    #[test]
    fn ground_energy_is_zero_for_proper_coloring() {
        let p = triangle();
        let model = p.to_ising().unwrap();
        let good = encode(&p, &[0, 1, 2]);
        assert!(model.energy(&good).abs() < 1e-9);
    }

    #[test]
    fn decode_detects_one_hot_violations() {
        let p = GraphColoring::new(2, 2, vec![(0, 1)]).unwrap();
        // Vertex 0 has two colors set, vertex 1 none.
        let s = SpinVector::from_binaries(&[1, 1, 0, 0]);
        let colors = p.decode(&s);
        assert_eq!(colors, vec![None, None]);
        assert_eq!(p.violation_count(&s), 2);
    }

    #[test]
    fn violation_counts_monochromatic_edges() {
        let p = triangle();
        let s = encode(&p, &[1, 1, 2]);
        assert_eq!(p.violation_count(&s), 1);
    }

    #[test]
    fn constructor_validation() {
        assert!(GraphColoring::new(2, 0, vec![]).is_err());
        assert!(GraphColoring::new(2, 2, vec![(0, 2)]).is_err());
        assert!(GraphColoring::new(2, 2, vec![(1, 1)]).is_err());
    }

    #[test]
    fn exhaustive_ground_states_are_proper_colorings() {
        // Path graph 0-1 with 2 colors: 4 variables, check all 16 states.
        let p = GraphColoring::new(2, 2, vec![(0, 1)]).unwrap();
        let model = p.to_ising().unwrap();
        let mut best = f64::INFINITY;
        let mut best_states = Vec::new();
        for bits in 0u32..16 {
            let x: Vec<u8> = (0..4).map(|i| ((bits >> i) & 1) as u8).collect();
            let s = SpinVector::from_binaries(&x);
            let e = model.energy(&s);
            if e < best - 1e-9 {
                best = e;
                best_states = vec![s];
            } else if (e - best).abs() < 1e-9 {
                best_states.push(s);
            }
        }
        assert!(!best_states.is_empty());
        for s in best_states {
            assert!(p.is_feasible(&s), "ground state must be a proper coloring");
        }
    }
}
