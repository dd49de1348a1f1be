//! Live shared grids: where batched trials of *different* jobs coexist.
//!
//! The pool keeps one [`BatchedTiledCrossbar`] per tile height in use.
//! Each batched trial is admitted as its own instance (block-diagonal
//! stripe span) just before it runs and retired as soon as it finishes,
//! so the grid's freed stripes admit queued work immediately — the
//! paper's array-parallelism argument applied across heterogeneous
//! requests instead of one lockstep cohort. Jobs whose admission does
//! not fit *right now* park in the grid's waiter list and are re-queued
//! by the next retirement.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, PoisonError};

use serde::{Deserialize, Serialize};

use fecim::PreparedJob;
use fecim_crossbar::{BatchInstance, BatchedTiledCrossbar, CrossbarConfig};
use fecim_ising::Coupling;

use crate::job::Job;

/// Outcome of an admission attempt.
pub(crate) enum Admission {
    /// A stripe span was reserved; run the trial against this handle.
    Granted(BatchInstance),
    /// No span fits right now; the job is parked until a retirement.
    Parked,
    /// The instance needs more stripes than the grid will ever have.
    Impossible {
        /// Stripes the instance needs.
        needed: usize,
    },
}

struct LiveGrid {
    shared: Arc<Mutex<BatchedTiledCrossbar>>,
    /// Jobs whose admission failed; re-queued on the next retirement.
    waiters: Vec<Arc<Job>>,
}

/// Point-in-time statistics of one live grid (see
/// [`Scheduler::grid_stats`](crate::Scheduler::grid_stats)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiveGridStats {
    /// Physical tile height of the grid.
    pub tile_rows: usize,
    /// Stripe capacity admissions respect.
    pub stripe_limit: usize,
    /// Stripes currently occupied by live instances.
    pub stripes_in_use: usize,
    /// Instances currently on the grid.
    pub live_instances: usize,
    /// Lifetime admissions.
    pub admissions: u64,
    /// Lifetime retirements.
    pub retirements: u64,
    /// Grid cycles issued so far.
    pub grid_cycles: u64,
    /// Reads executed so far.
    pub reads: u64,
    /// Fraction of offered tile slots that activated.
    pub grid_utilization: f64,
    /// Largest number of distinct instances served by one grid *cycle*.
    /// The scheduler only issues single-instance reads (one cycle per
    /// read), so this is 1 by construction once anything has run: it
    /// does not measure how many instances share the grid over time and
    /// is not a contention signal (see `live_instances` for that).
    pub peak_concurrent_instances: usize,
    /// Jobs currently parked waiting for stripes.
    pub waiting_jobs: usize,
}

/// One live grid per tile height, plus the admission bookkeeping.
pub(crate) struct GridPool {
    config: CrossbarConfig,
    stripe_limit: usize,
    grids: BTreeMap<usize, LiveGrid>,
}

impl GridPool {
    pub(crate) fn new(config: CrossbarConfig, stripe_limit: usize) -> GridPool {
        GridPool {
            config,
            stripe_limit,
            grids: BTreeMap::new(),
        }
    }

    /// The stripe capacity admissions respect.
    pub(crate) fn stripe_limit(&self) -> usize {
        self.stripe_limit
    }

    /// Try to place one replica of `prepared` onto the live grid for its
    /// tile height, parking `job` on failure.
    ///
    /// # Panics
    ///
    /// Panics if `prepared` is not a batched job (the scheduler routes
    /// solver jobs elsewhere).
    pub(crate) fn admit(&mut self, job: &Arc<Job>, prepared: &PreparedJob) -> Admission {
        // audit:allow(panic-path): documented `# Panics` contract above — the scheduler only routes batched jobs here, and batched jobs carry tiles and a coupling
        let tile_rows = prepared.tile_rows().expect("admitting a batched job");
        // audit:allow(panic-path): same documented contract as the line above
        let coupling = prepared.batch_coupling().expect("batched jobs carry one");
        // Reject never-fitting instances before instantiating a grid
        // for their tile height (same sizing rule as
        // `BatchedTiledCrossbar::stripes_needed`).
        let needed = coupling.dimension().div_ceil(tile_rows);
        if needed > self.stripe_limit {
            return Admission::Impossible { needed };
        }
        let config = self.config.clone();
        let limit = self.stripe_limit;
        let entry = self.grids.entry(tile_rows).or_insert_with(|| LiveGrid {
            shared: BatchedTiledCrossbar::new(config, tile_rows).into_shared(),
            waiters: Vec::new(),
        });
        let mut grid = lock_grid(&entry.shared);
        match grid.try_admit_instance(coupling, limit) {
            Some(index) => {
                drop(grid);
                Admission::Granted(BatchInstance::new(Arc::clone(&entry.shared), index))
            }
            None => {
                entry.waiters.push(Arc::clone(job));
                Admission::Parked
            }
        }
    }

    /// Retire a finished replica and hand back every parked job (the
    /// scheduler re-queues them; jobs that still don't fit simply park
    /// again).
    pub(crate) fn retire(&mut self, tile_rows: usize, instance: usize) -> Vec<Arc<Job>> {
        let entry = self
            .grids
            .get_mut(&tile_rows)
            // audit:allow(panic-path): every retire pairs with a prior admit that created this tile-height entry, and entries are never removed
            .expect("retiring from a grid that admitted");
        lock_grid(&entry.shared).retire_instance(instance);
        std::mem::take(&mut entry.waiters)
    }

    /// Snapshot per-grid statistics, smallest tile height first.
    pub(crate) fn stats(&self) -> Vec<LiveGridStats> {
        self.grids
            .iter()
            .map(|(&tile_rows, entry)| {
                let grid = lock_grid(&entry.shared);
                let batch = grid.batch_stats();
                LiveGridStats {
                    tile_rows,
                    stripe_limit: self.stripe_limit,
                    stripes_in_use: grid.stripes_in_use(),
                    live_instances: grid.live_instances(),
                    admissions: grid.admissions(),
                    retirements: grid.retirements(),
                    grid_cycles: batch.grid_cycles,
                    reads: batch.reads,
                    grid_utilization: batch.grid_utilization(),
                    peak_concurrent_instances: batch.peak_concurrent_instances,
                    waiting_jobs: entry.waiters.len(),
                }
            })
            .collect()
    }
}

fn lock_grid(
    shared: &Arc<Mutex<BatchedTiledCrossbar>>,
) -> std::sync::MutexGuard<'_, BatchedTiledCrossbar> {
    shared.lock().unwrap_or_else(PoisonError::into_inner)
}
