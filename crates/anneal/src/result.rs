//! Results of annealing runs.

use serde::{Deserialize, Serialize};

use fecim_crossbar::ActivityStats;
use fecim_ising::SpinVector;

use crate::trace::{Trace, TraceMode, TracePoint};

/// Outcome of one annealing run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Iterations executed.
    pub iterations: usize,
    /// Accepted proposals.
    pub accepted: usize,
    /// Exact Ising energy of the final configuration.
    pub final_energy: f64,
    /// Final configuration.
    pub final_spins: SpinVector,
    /// Best exact energy visited during the run.
    pub best_energy: f64,
    /// Configuration achieving `best_energy`.
    pub best_spins: SpinVector,
    /// First iteration at which the best energy reached the configured
    /// target (`None` when no target was set or it was never reached).
    /// Iteration 0 means the random initialization already met it.
    pub first_target_hit: Option<usize>,
    /// Sampled trace (empty unless tracing was enabled).
    pub trace: Trace,
    /// Hardware activity (present for crossbar-backed runs).
    pub activity: Option<ActivityStats>,
}

/// The run bookkeeping every engine shares: the accepted count, the best
/// state (replaced on strict improvement only), the first iteration whose
/// best energy reaches the target, and the sampled trace.
#[derive(Debug)]
pub struct RunRecorder {
    trace_mode: TraceMode,
    target_energy: Option<f64>,
    accepted: usize,
    best_energy: f64,
    best_spins: SpinVector,
    first_target_hit: Option<usize>,
    trace: Trace,
}

impl RunRecorder {
    /// Start from the initial state; a start that already meets
    /// `target_energy` is a hit at iteration 0.
    pub fn new(
        energy: f64,
        spins: &SpinVector,
        trace_mode: TraceMode,
        target_energy: Option<f64>,
    ) -> RunRecorder {
        let mut recorder = RunRecorder {
            trace_mode,
            target_energy,
            accepted: 0,
            best_energy: energy,
            best_spins: spins.clone(),
            first_target_hit: None,
            trace: Trace::new(),
        };
        recorder.check_target(0);
        recorder
    }

    /// Count a move accepted at `iteration` that left the state at
    /// `energy`. An improvement becomes the best state; if it is the first
    /// to reach the target, the hit is `iteration + 1`.
    pub fn accept(&mut self, iteration: usize, energy: f64, spins: &SpinVector) {
        self.accepted += 1;
        if energy < self.best_energy {
            self.best_energy = energy;
            self.best_spins = spins.clone();
            self.check_target(iteration + 1);
        }
    }

    /// Sample the state after `iteration` into the trace, if the trace
    /// mode samples it.
    pub fn sample(&mut self, iteration: usize, energy: f64, temperature: f64, accepted: bool) {
        self.trace.record(
            self.trace_mode,
            TracePoint {
                iteration,
                energy,
                best_energy: self.best_energy,
                temperature,
                accepted,
            },
        );
    }

    /// The result of a run of `iterations` that ended at `final_spins`.
    pub fn finish(
        self,
        iterations: usize,
        final_energy: f64,
        final_spins: SpinVector,
        activity: Option<ActivityStats>,
    ) -> RunResult {
        RunResult {
            iterations,
            accepted: self.accepted,
            final_energy,
            final_spins,
            best_energy: self.best_energy,
            best_spins: self.best_spins,
            first_target_hit: self.first_target_hit,
            trace: self.trace,
            activity,
        }
    }

    fn check_target(&mut self, iteration: usize) {
        if self.first_target_hit.is_none()
            && self.target_energy.is_some_and(|t| self.best_energy <= t)
        {
            self.first_target_hit = Some(iteration);
        }
    }
}

/// Aggregate statistics over a set of per-run scalar outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Aggregate {
    /// Number of values aggregated.
    pub count: usize,
    /// Mean value.
    pub mean: f64,
    /// Standard deviation (population).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Aggregate {
    /// Aggregate a slice of values.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn of(values: &[f64]) -> Aggregate {
        assert!(!values.is_empty(), "cannot aggregate zero values");
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Aggregate {
            count,
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_basic_statistics() {
        let a = Aggregate::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(a.count, 4);
        assert!((a.mean - 2.5).abs() < 1e-12);
        assert_eq!(a.min, 1.0);
        assert_eq!(a.max, 4.0);
        assert!((a.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero values")]
    fn aggregate_rejects_empty() {
        let _ = Aggregate::of(&[]);
    }
}
