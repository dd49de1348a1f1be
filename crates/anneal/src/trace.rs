//! Run traces: sampled time series of energy/temperature over an
//! annealing run (the raw material of the paper's Fig. 8(b)/9(b) iteration
//! sweeps and the convergence comparison of Fig. 10).

use serde::{Deserialize, Serialize};

/// One sampled point of an annealing run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TracePoint {
    /// Iteration index.
    pub iteration: usize,
    /// Exact Ising energy after this iteration.
    pub energy: f64,
    /// Best exact energy seen so far.
    pub best_energy: f64,
    /// Temperature (or control value) at this iteration.
    pub temperature: f64,
    /// Whether the proposal of this iteration was accepted.
    pub accepted: bool,
}

/// Sampling policy for traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceMode {
    /// Record nothing (fastest).
    Off,
    /// Record every `n`-th iteration, starting at iteration 0 (`0` is
    /// treated as `1`).
    Every(usize),
}

/// A sampled run trace.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    points: Vec<TracePoint>,
}

impl Trace {
    /// Empty trace.
    pub fn new() -> Trace {
        Trace { points: Vec::new() }
    }

    /// Record a point if `mode` samples this iteration.
    pub(crate) fn record(&mut self, mode: TraceMode, point: TracePoint) {
        match mode {
            TraceMode::Off => {}
            TraceMode::Every(n) => {
                let n = n.max(1);
                if point.iteration.is_multiple_of(n) {
                    self.points.push(point);
                }
            }
        }
    }

    /// The sampled points in iteration order.
    pub fn points(&self) -> &[TracePoint] {
        &self.points
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(iteration: usize) -> TracePoint {
        TracePoint {
            iteration,
            energy: -1.0,
            best_energy: -2.0,
            temperature: 0.5,
            accepted: true,
        }
    }

    #[test]
    fn off_mode_records_nothing() {
        let mut t = Trace::new();
        for i in 0..10 {
            t.record(TraceMode::Off, pt(i));
        }
        assert!(t.is_empty());
    }

    #[test]
    fn every_mode_samples() {
        let mut t = Trace::new();
        for i in 0..10 {
            t.record(TraceMode::Every(3), pt(i));
        }
        let iters: Vec<usize> = t.points().iter().map(|p| p.iteration).collect();
        assert_eq!(iters, vec![0, 3, 6, 9]);
    }

    #[test]
    fn zero_interval_is_treated_as_one() {
        let mut t = Trace::new();
        for i in 0..3 {
            t.record(TraceMode::Every(0), pt(i));
        }
        assert_eq!(t.points().len(), 3);
    }
}
