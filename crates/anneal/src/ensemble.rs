//! Rayon-backed ensemble runner: the fan-out shape behind every
//! success-probability experiment in the paper (Fig. 10, Table 1) — many
//! independent trials of the same solver, each with its own deterministic
//! seed, executed in parallel.
//!
//! Determinism contract: trial `i` always receives seed `base_seed + i`
//! and outputs are returned in trial order, so results are **bit-identical
//! at any thread count** (including `RAYON_NUM_THREADS=1` or
//! [`Ensemble::with_max_threads`]`(1)`).

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// A plan for `trials` independent seeded runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ensemble {
    trials: usize,
    base_seed: u64,
    max_threads: Option<usize>,
}

impl Ensemble {
    /// Plan `trials` runs; trial `i` receives seed `base_seed + i`.
    pub fn new(trials: usize, base_seed: u64) -> Ensemble {
        Ensemble {
            trials,
            base_seed,
            max_threads: None,
        }
    }

    /// Cap the worker count (`1` forces sequential execution on the
    /// calling thread). Results are identical either way; this only
    /// trades wall-clock for CPU share.
    ///
    /// # Panics
    ///
    /// Panics if `max_threads == 0`.
    pub fn with_max_threads(mut self, max_threads: usize) -> Ensemble {
        assert!(max_threads > 0, "need at least one thread");
        self.max_threads = Some(max_threads);
        self
    }

    /// Number of planned trials.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Base seed of the plan.
    pub fn base_seed(&self) -> u64 {
        self.base_seed
    }

    /// The per-trial seeds, in trial order.
    // audit:allow(dead-pub): test seam: ensemble_determinism checks `run` against a hand-rolled loop over these seeds
    pub fn seeds(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.trials as u64).map(move |i| self.base_seed.wrapping_add(i))
    }

    /// Execute `run_fn(seed)` for every planned trial, in parallel, and
    /// return the outcomes in trial order.
    ///
    /// `run_fn` must derive all of its randomness from the seed it is
    /// given (e.g. by building a per-trial `StdRng` with
    /// `StdRng::seed_from_u64`) — that is what makes the ensemble
    /// reproducible regardless of how trials are scheduled over threads.
    pub fn run<T, F>(&self, run_fn: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u64) -> T + Sync,
    {
        let seeds: Vec<u64> = self.seeds().collect();
        let pool = rayon::current_num_threads();
        let workers = self.max_threads.unwrap_or(pool).min(pool).max(1);
        if workers == 1 || seeds.len() <= 1 {
            return seeds.into_iter().map(run_fn).collect();
        }
        if self.max_threads.is_none_or(|cap| cap >= pool) {
            // The cap doesn't bind: one task per trial, so the pool's
            // dynamic dispatch load-balances uneven trial costs.
            return seeds.into_par_iter().map(run_fn).collect();
        }
        // A binding cap: exactly `workers` contiguous chunks guarantees at
        // most `workers` trials in flight (the price is static splitting;
        // use `RAYON_NUM_THREADS` to shrink the whole pool when dynamic
        // balancing matters more than a per-ensemble cap).
        let chunk_size = seeds.len().div_ceil(workers);
        let chunks: Vec<Vec<u64>> = seeds.chunks(chunk_size).map(<[u64]>::to_vec).collect();
        let nested: Vec<Vec<T>> = chunks
            .into_par_iter()
            .map(|chunk| chunk.into_iter().map(&run_fn).collect())
            .collect();
        nested.into_iter().flatten().collect()
    }

    /// [`Ensemble::run`], additionally handing `run_fn` the trial index.
    // audit:allow(dead-pub): test seam: batched_parallel_equivalence runs one indexed instance per trial
    pub fn run_indexed<T, F>(&self, run_fn: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, u64) -> T + Sync,
    {
        let base = self.base_seed;
        self.run(move |seed| run_fn(seed.wrapping_sub(base) as usize, seed))
    }
}

/// Fraction of `values` meeting-or-exceeding `target`: the paper's
/// success rate over an ensemble's outcomes (Fig. 10: success = reaching
/// 90 % of the optimal cut). Use `maximize = false` for minimization
/// objectives.
pub fn success_rate(values: &[f64], target: f64, maximize: bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let hits = values
        .iter()
        .filter(|&&v| if maximize { v >= target } else { v <= target })
        .count();
    hits as f64 / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_in_trial_order() {
        let out = Ensemble::new(16, 100).run(|seed| seed * 2);
        assert_eq!(out, (100..116).map(|s| s * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn thread_cap_does_not_change_results() {
        let heavy = |seed: u64| {
            let mut acc = seed;
            for _ in 0..10_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            acc
        };
        let parallel = Ensemble::new(64, 7).run(heavy);
        let sequential = Ensemble::new(64, 7).with_max_threads(1).run(heavy);
        let capped = Ensemble::new(64, 7).with_max_threads(3).run(heavy);
        assert_eq!(parallel, sequential);
        assert_eq!(parallel, capped);
    }

    #[test]
    fn zero_trials_is_empty() {
        let out: Vec<u64> = Ensemble::new(0, 9).run(|s| s);
        assert!(out.is_empty());
    }

    #[test]
    fn indexed_run_matches_seed_arithmetic() {
        let out = Ensemble::new(8, 1000).run_indexed(|index, seed| (index, seed));
        for (i, (index, seed)) in out.into_iter().enumerate() {
            assert_eq!(index, i);
            assert_eq!(seed, 1000 + i as u64);
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = Ensemble::new(4, 0).with_max_threads(0);
    }

    #[test]
    fn success_rate_directions() {
        let vals = [0.5, 0.95, 0.99, 0.8];
        assert!((success_rate(&vals, 0.9, true) - 0.5).abs() < 1e-12);
        assert!((success_rate(&vals, 0.9, false) - 0.5).abs() < 1e-12);
        assert_eq!(success_rate(&[], 0.9, true), 0.0);
    }
}
