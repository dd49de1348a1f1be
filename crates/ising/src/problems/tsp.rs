//! Travelling salesman as a permutation-matrix QUBO (Lucas 2014): variable
//! `x_{v,t}` means "city `v` is visited at position `t`".

use serde::{Deserialize, Serialize};

use crate::coupling::IsingModel;
use crate::error::IsingError;
use crate::problems::{CopProblem, ObjectiveSense};
use crate::qubo::Qubo;
use crate::spin::SpinVector;

/// A symmetric TSP instance given by a full distance matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TravellingSalesman {
    n: usize,
    distances: Vec<f64>,
    penalty: f64,
}

impl TravellingSalesman {
    /// Build from a row-major `n×n` distance matrix.
    ///
    /// # Errors
    ///
    /// [`IsingError::DimensionMismatch`] on a non-square matrix;
    /// [`IsingError::InvalidProblem`] on asymmetric/negative/non-finite
    /// distances or `n < 3`.
    pub fn new(n: usize, distances: Vec<f64>) -> Result<TravellingSalesman, IsingError> {
        if n < 3 {
            return Err(IsingError::InvalidProblem("need at least 3 cities".into()));
        }
        if distances.len() != n * n {
            return Err(IsingError::DimensionMismatch {
                expected: n * n,
                found: distances.len(),
            });
        }
        let mut dmax = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                let d = distances[i * n + j];
                if !d.is_finite() || d < 0.0 {
                    return Err(IsingError::InvalidProblem(format!(
                        "invalid distance at ({i}, {j})"
                    )));
                }
                if (d - distances[j * n + i]).abs() > 1e-12 {
                    return Err(IsingError::InvalidProblem(format!(
                        "asymmetric distance at ({i}, {j})"
                    )));
                }
                dmax = dmax.max(d);
            }
        }
        Ok(TravellingSalesman {
            n,
            distances,
            penalty: 2.0 * dmax * n as f64,
        })
    }

    /// Distance between cities `i` and `j`.
    fn distance(&self, i: usize, j: usize) -> f64 {
        self.distances[i * self.n + j]
    }

    /// Spin index of `x_{v,t}`.
    pub fn variable_index(&self, v: usize, t: usize) -> usize {
        v * self.n + t
    }

    /// Decode a configuration into a tour (city at each position), `None` if
    /// the permutation constraints are violated.
    pub fn decode(&self, spins: &SpinVector) -> Option<Vec<usize>> {
        let x = spins.to_binaries();
        let mut tour = vec![usize::MAX; self.n];
        let mut used = vec![false; self.n];
        for t in 0..self.n {
            let cities: Vec<usize> = (0..self.n)
                .filter(|&v| x[self.variable_index(v, t)] == 1)
                .collect();
            if cities.len() != 1 {
                return None;
            }
            let v = cities[0];
            if used[v] {
                return None;
            }
            used[v] = true;
            tour[t] = v;
        }
        Some(tour)
    }

    /// Length of a decoded tour (closed cycle).
    // audit:allow(dead-pub): COP diagnostic: solver_features checks the decoded tour with it
    pub fn tour_length(&self, tour: &[usize]) -> f64 {
        let mut len = 0.0;
        for t in 0..tour.len() {
            let a = tour[t];
            let b = tour[(t + 1) % tour.len()];
            len += self.distance(a, b);
        }
        len
    }
}

impl CopProblem for TravellingSalesman {
    fn spin_count(&self) -> usize {
        self.n * self.n
    }

    fn to_ising(&self) -> Result<IsingModel, IsingError> {
        let n = self.n;
        let a = self.penalty;
        let mut qubo = Qubo::new(n * n);
        // Each position holds exactly one city and each city appears once:
        // A Σ_t (1 − Σ_v x_{v,t})² + A Σ_v (1 − Σ_t x_{v,t})².
        for t in 0..n {
            for v in 0..n {
                let i = self.variable_index(v, t);
                qubo.add_term(i, i, -a);
                for v2 in (v + 1)..n {
                    qubo.add_term(i, self.variable_index(v2, t), 2.0 * a);
                }
            }
        }
        for v in 0..n {
            for t in 0..n {
                let i = self.variable_index(v, t);
                qubo.add_term(i, i, -a);
                for t2 in (t + 1)..n {
                    qubo.add_term(i, self.variable_index(v, t2), 2.0 * a);
                }
            }
        }
        // Tour length: Σ_t Σ_{u≠v} d_uv x_{u,t} x_{v,t+1}.
        for t in 0..n {
            let t_next = (t + 1) % n;
            for u in 0..n {
                for v in 0..n {
                    if u != v {
                        let d = self.distance(u, v);
                        if d != 0.0 {
                            qubo.add_term(
                                self.variable_index(u, t),
                                self.variable_index(v, t_next),
                                d,
                            );
                        }
                    }
                }
            }
        }
        let mut model = qubo.to_ising()?;
        model.set_offset(model.offset() + 2.0 * a * n as f64);
        Ok(model)
    }

    fn native_objective(&self, spins: &SpinVector) -> f64 {
        match self.decode(spins) {
            Some(tour) => self.tour_length(&tour),
            None => f64::INFINITY,
        }
    }

    fn objective_sense(&self) -> ObjectiveSense {
        ObjectiveSense::Minimize
    }

    fn is_feasible(&self, spins: &SpinVector) -> bool {
        self.decode(spins).is_some()
    }

    fn name(&self) -> &str {
        "travelling-salesman"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_instance() -> TravellingSalesman {
        // 4 cities on a unit square (0,0) (1,0) (1,1) (0,1).
        let pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)];
        let mut d = vec![0.0; 16];
        for i in 0..4 {
            for j in 0..4 {
                let dx: f64 = pts[i].0 - pts[j].0;
                let dy: f64 = pts[i].1 - pts[j].1;
                d[i * 4 + j] = (dx * dx + dy * dy).sqrt();
            }
        }
        TravellingSalesman::new(4, d).unwrap()
    }

    fn encode(p: &TravellingSalesman, tour: &[usize]) -> SpinVector {
        let mut bits = vec![0u8; p.spin_count()];
        for (t, &v) in tour.iter().enumerate() {
            bits[p.variable_index(v, t)] = 1;
        }
        SpinVector::from_binaries(&bits)
    }

    #[test]
    fn perimeter_tour_is_optimal() {
        let p = square_instance();
        let good = encode(&p, &[0, 1, 2, 3]);
        let crossing = encode(&p, &[0, 2, 1, 3]);
        assert!(p.is_feasible(&good));
        assert!((p.native_objective(&good) - 4.0).abs() < 1e-9);
        assert!(p.native_objective(&crossing) > 4.0);
        let model = p.to_ising().unwrap();
        assert!(model.energy(&good) < model.energy(&crossing));
    }

    #[test]
    fn energy_of_valid_tour_equals_length() {
        let p = square_instance();
        let model = p.to_ising().unwrap();
        let s = encode(&p, &[1, 3, 0, 2]);
        let tour_len = p.native_objective(&s);
        // Constraint penalties vanish on a valid permutation, so energy is
        // exactly the tour length.
        assert!((model.energy(&s) - tour_len).abs() < 1e-6);
    }

    #[test]
    fn decode_rejects_invalid_assignments() {
        let p = square_instance();
        let s = SpinVector::from_binaries(&[0u8; 16]);
        assert!(p.decode(&s).is_none());
        assert_eq!(p.native_objective(&s), f64::INFINITY);
    }

    #[test]
    fn validation() {
        assert!(TravellingSalesman::new(2, vec![0.0; 4]).is_err());
        assert!(TravellingSalesman::new(3, vec![0.0; 8]).is_err());
        let mut d = vec![0.0; 9];
        d[1] = 1.0; // asymmetric
        assert!(TravellingSalesman::new(3, d).is_err());
    }
}
