//! Live shared grids: where batched trials of *different* jobs coexist.
//!
//! The pool keeps one [`TileGrid`] span allocator per tile height in
//! use, by value under the pool's own lock. Each batched trial reserves a
//! stripe span (block-diagonal placement) just before it runs and retires
//! it as soon as it finishes, so the grid's freed stripes admit queued
//! work immediately — the paper's array-parallelism argument applied
//! across heterogeneous requests instead of one lockstep cohort. Jobs
//! whose admission does not fit *right now* park in the grid's waiter
//! list and are re-queued by the next retirement.
//!
//! The grid holds no arrays: a granted trial programs and reads its own
//! crossbar on the worker, with no lock held, and hands its
//! [`ActivityStats`] back at retirement. The grid counters follow
//! [`TileGrid`]'s retire-time rule: each read is one grid cycle offering
//! the tile rectangle the grid had while the trial held its span.

use std::collections::BTreeMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use fecim_crossbar::{ActivityStats, TileGrid};

use crate::job::Job;

/// Outcome of an admission attempt.
pub(crate) enum Admission {
    /// A stripe span was reserved in this grid slot; run the trial, then
    /// retire the slot.
    Granted(usize),
    /// No span fits right now; the job is parked until a retirement.
    Parked,
    /// The instance needs more stripes than the grid will ever have.
    Impossible {
        /// Stripes the instance needs.
        needed: usize,
    },
}

struct LiveGrid {
    grid: TileGrid,
    /// Jobs whose admission failed; re-queued on the next retirement.
    waiters: Vec<Arc<Job>>,
}

/// Point-in-time statistics of one live grid (see
/// [`Scheduler::grid_stats`](crate::Scheduler::grid_stats)).
///
/// Read counters grow when a trial retires: its `array_ops` add to
/// `reads`, and `grid_utilization` divides the trials' activated tiles
/// by `array_ops × physical tiles` summed over retired trials, the
/// rectangle measured while each trial still held its span.
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
    /// Grid cycles issued by retired trials: one per read, so always
    /// equal to `reads`.
    pub grid_cycles: u64,
    /// Reads executed by retired trials.
    pub reads: u64,
    /// Fraction of offered tile slots that activated.
    pub grid_utilization: f64,
    /// Largest number of distinct instances served by one grid *cycle*.
    /// Every read is a single-instance cycle, so this is 1 by
    /// construction once anything has run: it does not measure how many
    /// instances share the grid over time and is not a contention signal
    /// (see `live_instances` for that).
    pub peak_concurrent_instances: usize,
    /// Jobs currently parked waiting for stripes.
    pub waiting_jobs: usize,
}

/// One live grid per tile height, plus the admission bookkeeping.
pub(crate) struct GridPool {
    stripe_limit: usize,
    grids: BTreeMap<usize, LiveGrid>,
}

impl GridPool {
    pub(crate) fn new(stripe_limit: usize) -> GridPool {
        GridPool {
            stripe_limit,
            grids: BTreeMap::new(),
        }
    }

    /// The stripe capacity admissions respect.
    pub(crate) fn stripe_limit(&self) -> usize {
        self.stripe_limit
    }

    /// Try to reserve a stripe span for one replica placed at
    /// `(tile_rows, dimension)` (see
    /// [`PreparedJob::batch_placement`](fecim::PreparedJob::batch_placement))
    /// on the live grid for its tile height, parking `job` on failure.
    pub(crate) fn admit(
        &mut self,
        job: &Arc<Job>,
        (tile_rows, dimension): (usize, usize),
    ) -> Admission {
        // Reject never-fitting instances before instantiating a grid
        // for their tile height (same sizing rule as
        // `TileGrid::stripes_needed`).
        let needed = dimension.div_ceil(tile_rows);
        if needed > self.stripe_limit {
            return Admission::Impossible { needed };
        }
        let entry = self.grids.entry(tile_rows).or_insert_with(|| LiveGrid {
            grid: TileGrid::new(tile_rows),
            waiters: Vec::new(),
        });
        match entry.grid.try_admit(dimension, self.stripe_limit) {
            Some(slot) => Admission::Granted(slot),
            None => {
                entry.waiters.push(Arc::clone(job));
                Admission::Parked
            }
        }
    }

    /// Retire a finished replica with its trial's `activity` (zero when
    /// no trial ran) and hand back every parked job (the scheduler
    /// re-queues them; jobs that still don't fit simply park again).
    pub(crate) fn retire(
        &mut self,
        tile_rows: usize,
        slot: usize,
        activity: &ActivityStats,
    ) -> Vec<Arc<Job>> {
        let entry = self
            .grids
            .get_mut(&tile_rows)
            // audit:allow(panic-path): every retire pairs with a prior admit that created this tile-height entry, and entries are never removed
            .expect("retiring from a grid that admitted");
        entry.grid.retire(slot, activity);
        std::mem::take(&mut entry.waiters)
    }

    /// Snapshot per-grid statistics, smallest tile height first.
    pub(crate) fn stats(&self) -> Vec<LiveGridStats> {
        self.grids
            .iter()
            .map(|(&tile_rows, entry)| {
                let grid = &entry.grid;
                let batch = grid.batch_stats();
                LiveGridStats {
                    tile_rows,
                    stripe_limit: self.stripe_limit,
                    stripes_in_use: grid.stripes_in_use(),
                    live_instances: grid.live_instances(),
                    admissions: grid.admissions(),
                    retirements: grid.retirements(),
                    grid_cycles: batch.reads,
                    reads: batch.reads,
                    grid_utilization: batch.grid_utilization(),
                    peak_concurrent_instances: usize::from(batch.reads > 0),
                    waiting_jobs: entry.waiters.len(),
                }
            })
            .collect()
    }
}
