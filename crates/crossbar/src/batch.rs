//! Multi-problem batching: several instances' coupling blocks packed onto
//! one physical tile grid.
//!
//! An in-situ incremental read activates only the `t` stripes holding the
//! flipped column groups (× the driven row bands) — on a grid sized for
//! one instance, everything else idles. [`BatchedTiledCrossbar`] exploits
//! that slack the way scaled in-memory annealers do: instance `i`'s tiles
//! occupy their own stripe span of a shared grid, so while instance A
//! converts on its stripes' ADC banks, instances B and C convert on
//! theirs *in the same grid cycle*. The placement is block-diagonal along
//! the stripe axis: no two instances share a stripe, hence no two share
//! an ADC bank, row segment, or back-gate plane — reads of distinct
//! instances are physically concurrent and numerically independent.
//!
//! Consequences the tests pin down:
//!
//! * **Exact equivalence** — each instance's block behaves exactly like a
//!   standalone [`TiledCrossbar`] over the same coupling; in
//!   [`Fidelity::Ideal`](crate::Fidelity::Ideal) mode a batched read is
//!   bit-identical to the per-instance read of a standalone array of any
//!   tile size, the one-tile monolithic array included.
//! * **Determinism** — [`BatchedTiledCrossbar::read_batch`] fans
//!   instances out across threads, but instances are independent
//!   sub-arrays with their own seeds and noise streams, so results do not
//!   depend on scheduling. In device-accurate mode each instance draws
//!   its variation maps from a seed derived from the config seed and its
//!   batch index (distinct replicas see distinct silicon).
//! * **Attribution** — activity is recorded per instance (each block
//!   keeps its own [`ActivityStats`]), so hardware energy is attributable
//!   to the instance that caused it, while [`BatchStats`] tracks
//!   grid-level sharing (reads per batch, activated tiles vs. tiles
//!   available).
//!
//! For driving a shared grid from concurrently running solvers (one
//! replica per thread, as `fecim_anneal::Ensemble` does), clone per-
//! instance [`BatchInstance`] handles from the shared grid: each handle
//! implements [`InSituArray`] and serializes *simulator* access through a
//! mutex while the modeled hardware timing remains concurrent (disjoint
//! banks).
//!
//! ## Live grids: per-instance lifecycle
//!
//! Lockstep cohorts ([`BatchedTiledCrossbar::replicate`] + run them all)
//! are only half the story: a production queue wants to admit *new*
//! problems onto the grid as earlier replicas finish. Two methods turn
//! the batched grid into a live one:
//!
//! * [`BatchedTiledCrossbar::try_admit_instance`] places a coupling into
//!   the first freed stripe span that fits (first-fit, splitting wider
//!   spans), extending the grid's tail only while a stripe capacity
//!   allows it;
//! * [`BatchedTiledCrossbar::retire_instance`] frees an instance's
//!   stripe span back to the pool (coalescing adjacent free spans, and
//!   returning trailing stripes to the tail), so queued work can take
//!   its place.
//!
//! Retired slot *indices* are recycled too; because per-instance
//! variation seeds derive from the slot index, a new tenant admitted
//! into a recycled slot sees the same simulated silicon its predecessor
//! did — which is exactly what re-programming the same physical tiles
//! would do. In [`Fidelity::Ideal`](crate::Fidelity::Ideal) mode reads
//! are placement-independent, so live-grid scheduling cannot change
//! results. For device-accurate live grids,
//! [`BatchedTiledCrossbar::reseed_instance_for_trial`] re-programs an
//! admitted instance's stochastic state from the *trial's* seed (the
//! write-verify pass a new tenant would get), making results
//! placement- and admission-order-independent in every fidelity.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rayon::prelude::*;

use fecim_ising::Coupling;

use crate::array::{CrossbarConfig, InSituArray};
use crate::stats::ActivityStats;
use crate::tiled::{SensingMode, TiledCrossbar};

/// Deterministic per-instance seed: splitmix64 finalizer over the config
/// seed and the batch slot, so replicas of the same coupling still draw
/// independent variation maps (distinct physical tiles host them).
fn instance_seed(base: u64, index: usize) -> u64 {
    crate::tiled::splitmix64_finalize(base ^ ((index as u64) << 17) ^ 0xD1B5_4A32_D192_ED03)
}

/// Deterministic per-trial silicon seed: splitmix64 finalizer over the
/// grid's base config seed and the trial's own seed, so a reseeded
/// instance's variation maps and noise stream depend on *which trial*
/// runs, never on which slot or stripe span hosts it (see
/// [`BatchedTiledCrossbar::reseed_instance_for_trial`]).
fn trial_silicon_seed(base: u64, trial_seed: u64) -> u64 {
    crate::tiled::splitmix64_finalize(base ^ trial_seed.rotate_left(21) ^ 0x7C15_9E37_D192_4A32)
}

/// One instance's block on the shared grid.
#[derive(Debug, Clone)]
struct InstanceSlot {
    array: TiledCrossbar,
    /// First grid stripe owned by this instance (placement record; the
    /// block-diagonal layout guarantees spans never overlap).
    stripe_offset: usize,
    /// Stripes the instance occupies (freed back to the pool on retire).
    stripes: usize,
}

/// Grid-level sharing counters of a [`BatchedTiledCrossbar`].
///
/// Per-instance activity lives in each instance's own [`ActivityStats`]
/// ([`BatchedTiledCrossbar::instance_stats`]); this struct only measures
/// how well concurrent instances fill the shared grid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Grid cycles issued: one per [`BatchedTiledCrossbar::read_batch`]
    /// call, one per single-instance read.
    pub grid_cycles: u64,
    /// Individual reads executed across all cycles.
    pub reads: u64,
    /// Tiles activated across all cycles (sum over instances).
    pub tiles_activated: u64,
    /// Tile slots offered: physical tiles × grid cycles.
    pub tile_slots_offered: u64,
    /// Largest number of distinct instances served by one grid cycle.
    pub peak_concurrent_instances: usize,
}

impl BatchStats {
    /// Fraction of offered tile slots that actually activated — the
    /// throughput headroom argument: a lone instance leaves this low,
    /// batching raises it toward 1.
    pub fn grid_utilization(&self) -> f64 {
        if self.tile_slots_offered == 0 {
            return 0.0;
        }
        self.tiles_activated as f64 / self.tile_slots_offered as f64
    }

    fn reset(&mut self) {
        *self = BatchStats::default();
    }
}

/// One read request inside a [`BatchedTiledCrossbar::read_batch`] cycle.
#[derive(Debug, Clone, Copy)]
pub struct BatchRead<'a> {
    /// Which instance's block to read.
    pub instance: usize,
    /// Row drive vector (`σ_r` for incremental reads, `σ` for VMV).
    pub sigma_r: &'a [i8],
    /// Column select `σ_c` for an incremental read; `None` runs the
    /// direct VMV read instead.
    pub sigma_c: Option<&'a [i8]>,
    /// Back-gate annealing factor (ignored by VMV reads).
    pub factor: f64,
}

/// Several problem instances sharing one physical tile grid.
///
/// See the module docs for the placement and concurrency model. Build
/// with [`BatchedTiledCrossbar::new`] + [`push_instance`]
/// (heterogeneous problems) or [`replicate`] (an ensemble of one
/// problem), then read per instance or per batch.
///
/// [`push_instance`]: BatchedTiledCrossbar::push_instance
/// [`replicate`]: BatchedTiledCrossbar::replicate
#[derive(Debug, Clone)]
pub struct BatchedTiledCrossbar {
    config: CrossbarConfig,
    tile_rows: usize,
    /// Instance slots; `None` marks a retired slot whose index (and
    /// stripe span) is free for the next admission.
    slots: Vec<Option<InstanceSlot>>,
    /// Stripes of the shared grid (sum of instance stripe spans and
    /// interior free spans).
    total_stripes: usize,
    /// Row bands of the shared grid (worst instance, high-water).
    max_bands: usize,
    /// Freed interior stripe spans `(offset, width)`, sorted by offset
    /// and coalesced.
    free_spans: Vec<(usize, usize)>,
    /// Retired slot indices available for reuse.
    free_slots: Vec<usize>,
    /// Lifetime admissions (push + admit).
    admitted: u64,
    /// Lifetime retirements.
    retired: u64,
    batch: BatchStats,
}

impl BatchedTiledCrossbar {
    /// An empty grid that will place every pushed instance on
    /// `tile_rows`-row tiles.
    ///
    /// # Panics
    ///
    /// Panics if `tile_rows == 0`.
    pub fn new(config: CrossbarConfig, tile_rows: usize) -> BatchedTiledCrossbar {
        assert!(tile_rows > 0, "tile_rows must be positive");
        BatchedTiledCrossbar {
            config,
            tile_rows,
            slots: Vec::new(),
            total_stripes: 0,
            max_bands: 0,
            free_spans: Vec::new(),
            free_slots: Vec::new(),
            admitted: 0,
            retired: 0,
            batch: BatchStats::default(),
        }
    }

    /// Program `coupling` onto the next free stripe span and return the
    /// new instance's index. The instance draws its variation maps from a
    /// seed derived from the config seed and this index.
    ///
    /// # Panics
    ///
    /// Panics if the coupling is empty (forwarded from
    /// [`TiledCrossbar::program`]).
    pub fn push_instance<C: Coupling>(&mut self, coupling: &C) -> usize {
        self.try_admit_instance(coupling, usize::MAX)
            // audit:allow(panic-path): with a usize::MAX stripe limit admission only fails on an empty coupling — the documented `# Panics` contract above
            .expect("an unbounded grid always admits")
    }

    /// Admit `coupling` onto the grid if it fits within `stripe_limit`
    /// total stripes: freed spans are reused first-fit (wider spans are
    /// split), and the grid's tail extends only while the capacity
    /// allows. Returns the new instance's index, or `None` when the
    /// instance does not fit *right now* (retiring instances frees
    /// capacity; an instance needing more than `stripe_limit` stripes
    /// will never fit — see [`BatchedTiledCrossbar::stripes_needed`]).
    ///
    /// Retired slot indices are recycled; the admitted instance draws
    /// its variation maps from the recycled slot's seed (same simulated
    /// silicon as its predecessor — the physical-tile view of slot
    /// reuse).
    ///
    /// # Panics
    ///
    /// Panics if the coupling is empty (forwarded from
    /// [`TiledCrossbar::program`]).
    pub fn try_admit_instance<C: Coupling>(
        &mut self,
        coupling: &C,
        stripe_limit: usize,
    ) -> Option<usize> {
        let needed = self.stripes_needed(coupling.dimension());
        let offset = if let Some(pos) = self.free_spans.iter().position(|&(_, w)| w >= needed) {
            let (off, width) = self.free_spans[pos];
            if width == needed {
                self.free_spans.remove(pos);
            } else {
                self.free_spans[pos] = (off + needed, width - needed);
            }
            off
        } else if needed <= stripe_limit.saturating_sub(self.total_stripes) {
            let off = self.total_stripes;
            self.total_stripes += needed;
            off
        } else {
            return None;
        };
        let index = self.free_slots.pop().unwrap_or(self.slots.len());
        let mut config = self.config.clone();
        config.seed = instance_seed(self.config.seed, index);
        let array = TiledCrossbar::program(coupling, config, self.tile_rows);
        let (bands, stripes) = array.tile_grid();
        debug_assert_eq!(stripes, needed, "admission sizing must match programming");
        self.max_bands = self.max_bands.max(bands);
        let slot = InstanceSlot {
            array,
            stripe_offset: offset,
            stripes,
        };
        if index == self.slots.len() {
            self.slots.push(Some(slot));
        } else {
            self.slots[index] = Some(slot);
        }
        self.admitted += 1;
        Some(index)
    }

    /// Retire an instance: its stripe span returns to the free pool
    /// (coalescing with adjacent free spans; trailing spans shrink the
    /// grid's tail) and its slot index becomes reusable by the next
    /// admission.
    ///
    /// Outstanding [`BatchInstance`] handles onto the retired instance
    /// must not read anymore — reads panic, like any other access to a
    /// retired instance.
    ///
    /// # Panics
    ///
    /// Panics if `instance` is out of range or already retired.
    pub fn retire_instance(&mut self, instance: usize) {
        let slot = match self.slots.get_mut(instance) {
            // audit:allow(panic-path): the guard pattern just matched Some, so take() cannot observe None
            Some(slot @ Some(_)) => slot.take().expect("matched Some"),
            // audit:allow(panic-path): documented `# Panics` contract — retiring an out-of-range or already-retired instance is caller misuse that must abort
            _ => panic!(
                "instance {instance} is retired or out of range for {} slots",
                self.slots.len()
            ),
        };
        self.free_slots.push(instance);
        self.retired += 1;
        let span = (slot.stripe_offset, slot.stripes);
        let pos = self.free_spans.partition_point(|&(off, _)| off < span.0);
        self.free_spans.insert(pos, span);
        // Coalesce with the right neighbor, then the left.
        if pos + 1 < self.free_spans.len()
            && self.free_spans[pos].0 + self.free_spans[pos].1 == self.free_spans[pos + 1].0
        {
            self.free_spans[pos].1 += self.free_spans[pos + 1].1;
            self.free_spans.remove(pos + 1);
        }
        if pos > 0
            && self.free_spans[pos - 1].0 + self.free_spans[pos - 1].1 == self.free_spans[pos].0
        {
            self.free_spans[pos - 1].1 += self.free_spans[pos].1;
            self.free_spans.remove(pos);
        }
        // A free span ending at the tail hands its stripes back.
        if let Some(&(off, width)) = self.free_spans.last() {
            if off + width == self.total_stripes {
                self.total_stripes = off;
                self.free_spans.pop();
            }
        }
    }

    /// Stripes an instance of `dimension` spins would occupy on this
    /// grid (its tiled mapping is square: `ceil(n / tile_rows)` stripes).
    pub fn stripes_needed(&self, dimension: usize) -> usize {
        dimension.div_ceil(self.tile_rows)
    }

    /// Whether `instance` currently occupies the grid (admitted and not
    /// retired). Out-of-range indices are simply not live.
    pub fn is_live(&self, instance: usize) -> bool {
        matches!(self.slots.get(instance), Some(Some(_)))
    }

    /// Instances currently occupying the grid.
    pub fn live_instances(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Stripes currently occupied by live instances.
    pub fn stripes_in_use(&self) -> usize {
        self.total_stripes - self.free_spans.iter().map(|&(_, w)| w).sum::<usize>()
    }

    /// Lifetime admissions ([`push_instance`](Self::push_instance) +
    /// [`try_admit_instance`](Self::try_admit_instance)).
    pub fn admissions(&self) -> u64 {
        self.admitted
    }

    /// Lifetime retirements.
    pub fn retirements(&self) -> u64 {
        self.retired
    }

    /// A grid holding `count` replicas of one coupling — the ensemble
    /// sharing layout.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`, `tile_rows == 0`, or the coupling is empty.
    pub fn replicate<C: Coupling>(
        coupling: &C,
        count: usize,
        config: CrossbarConfig,
        tile_rows: usize,
    ) -> BatchedTiledCrossbar {
        assert!(count > 0, "need at least one instance");
        let mut grid = BatchedTiledCrossbar::new(config, tile_rows);
        for _ in 0..count {
            grid.push_instance(coupling);
        }
        grid
    }

    /// Number of instance slots ever allocated (live **and** retired —
    /// retired slot indices stay addressable until an admission recycles
    /// them). Equals the live count on lockstep grids that never retire;
    /// see [`BatchedTiledCrossbar::live_instances`] for the occupancy
    /// count.
    pub fn instance_count(&self) -> usize {
        self.slots.len()
    }

    /// The physical tile height shared by every instance.
    pub fn tile_rows(&self) -> usize {
        self.tile_rows
    }

    /// Shared-grid dimensions as `(row_bands, column_stripes)`.
    pub fn grid(&self) -> (usize, usize) {
        (self.max_bands, self.total_stripes)
    }

    /// Physical tiles the shared grid instantiates (its bounding
    /// rectangle; short instances leave their tall columns partly empty).
    pub fn physical_tiles(&self) -> usize {
        self.max_bands * self.total_stripes
    }

    /// First grid stripe owned by `instance`.
    ///
    /// # Panics
    ///
    /// Panics if `instance` is out of range.
    pub fn stripe_offset(&self, instance: usize) -> usize {
        self.slot(instance).stripe_offset
    }

    /// The instance's underlying tiled array (configuration, tile grid).
    ///
    /// # Panics
    ///
    /// Panics if `instance` is out of range.
    pub fn instance(&self, instance: usize) -> &TiledCrossbar {
        &self.slot(instance).array
    }

    /// Activity attributed to one instance.
    ///
    /// # Panics
    ///
    /// Panics if `instance` is out of range.
    pub fn instance_stats(&self, instance: usize) -> &ActivityStats {
        self.slot(instance).array.stats()
    }

    /// Activity summed over every live instance (retired instances take
    /// their attribution with them — snapshot before retiring).
    pub fn aggregate_stats(&self) -> ActivityStats {
        let mut total = ActivityStats::new();
        for slot in self.slots.iter().flatten() {
            total.merge(slot.array.stats());
        }
        total
    }

    /// Grid-level sharing counters.
    pub fn batch_stats(&self) -> &BatchStats {
        &self.batch
    }

    /// Clear per-instance and grid-level counters (admission/retirement
    /// lifetime counters keep running).
    pub fn reset_stats(&mut self) {
        for slot in self.slots.iter_mut().flatten() {
            slot.array.reset_stats();
        }
        self.batch.reset();
    }

    /// Clear one instance's counters (grid-level counters keep running).
    ///
    /// # Panics
    ///
    /// Panics if `instance` is out of range.
    pub fn reset_instance_stats(&mut self, instance: usize) {
        self.slot_mut(instance).array.reset_stats();
    }

    /// Re-program `instance`'s stochastic state (variation maps, noise
    /// key, read ordinal) from `trial_seed` — the write-verify pass a
    /// new tenant's trial gets. The derived silicon seed mixes the
    /// grid's *base* config seed with the trial seed and nothing else,
    /// so device-accurate results depend on which trial runs, never on
    /// which slot, stripe span, or admission order hosted it.
    ///
    /// With all-zero variation this is a no-op: ideal silicon is
    /// seed-independent, and skipping the redraw keeps Ideal-fidelity
    /// trials free of per-trial programming cost.
    ///
    /// # Panics
    ///
    /// Panics if `instance` is out of range or retired.
    pub fn reseed_instance_for_trial(&mut self, instance: usize, trial_seed: u64) {
        if self.config.variation.is_ideal() {
            return;
        }
        let seed = trial_silicon_seed(self.config.seed, trial_seed);
        self.slot_mut(instance).array.reseed(seed);
    }

    /// Set the per-stripe sensing schedule of every live instance (see
    /// [`SensingMode`]).
    pub fn set_sensing_mode(&mut self, mode: SensingMode) {
        for slot in self.slots.iter_mut().flatten() {
            slot.array.set_sensing_mode(mode);
        }
    }

    /// In-situ incremental read of one instance's block (see
    /// [`TiledCrossbar::incremental_form`]); the rest of the grid idles
    /// for the cycle.
    ///
    /// # Panics
    ///
    /// Panics if `instance` is out of range or the vector lengths differ
    /// from that instance's dimension.
    pub fn incremental_form(
        &mut self,
        instance: usize,
        sigma_r: &[i8],
        sigma_c: &[i8],
        factor: f64,
    ) -> f64 {
        let before = self.slot(instance).array.stats().tiles_activated;
        let value = self
            .slot_mut(instance)
            .array
            .incremental_form(sigma_r, sigma_c, factor);
        let after = self.slot(instance).array.stats().tiles_activated;
        self.account_cycle(1, 1, after - before);
        value
    }

    /// Direct VMV read of one instance's block (see
    /// [`TiledCrossbar::vmv`]); the rest of the grid idles for the cycle.
    ///
    /// # Panics
    ///
    /// Panics if `instance` is out of range or `sigma` has the wrong
    /// length.
    pub fn vmv(&mut self, instance: usize, sigma: &[i8]) -> f64 {
        let before = self.slot(instance).array.stats().tiles_activated;
        let value = self.slot_mut(instance).array.vmv(sigma);
        let after = self.slot(instance).array.stats().tiles_activated;
        self.account_cycle(1, 1, after - before);
        value
    }

    /// Full matrix-vector read of one instance's block (see
    /// [`TiledCrossbar::mvm`]); the rest of the grid idles for the
    /// cycle.
    ///
    /// # Panics
    ///
    /// Panics if `instance` is out of range or `sigma` has the wrong
    /// length.
    pub fn mvm(&mut self, instance: usize, sigma: &[i8]) -> Vec<f64> {
        let before = self.slot(instance).array.stats().tiles_activated;
        let value = self.slot_mut(instance).array.mvm(sigma);
        let after = self.slot(instance).array.stats().tiles_activated;
        self.account_cycle(1, 1, after - before);
        value
    }

    /// Execute one shared grid cycle: every request runs against its
    /// instance's block, distinct instances in parallel across threads
    /// (they occupy disjoint stripes, so the hardware converts them
    /// concurrently). Results come back in request order and are
    /// bit-identical to issuing the same reads one instance at a time.
    ///
    /// Multiple requests against the *same* instance are legal and run
    /// sequentially in request order (they share stripes, so the hardware
    /// would serialize them too).
    ///
    /// # Panics
    ///
    /// Panics if a request names an out-of-range instance or carries
    /// wrong-length vectors.
    pub fn read_batch(&mut self, reads: &[BatchRead<'_>]) -> Vec<f64> {
        for read in reads {
            assert!(
                self.is_live(read.instance),
                "batch read instance {} is retired or out of range for {} instances",
                read.instance,
                self.slots.len()
            );
        }
        let mut per_instance: Vec<Vec<usize>> = vec![Vec::new(); self.slots.len()];
        for (read_idx, read) in reads.iter().enumerate() {
            per_instance[read.instance].push(read_idx);
        }
        let concurrent = per_instance.iter().filter(|ops| !ops.is_empty()).count();
        let tiles_before: u64 = self
            .slots
            .iter()
            .flatten()
            .map(|s| s.array.stats().tiles_activated)
            .sum();

        // Fan out one task per instance touched; tasks own disjoint
        // `&mut` blocks, so no lock sits anywhere near the sensing loops.
        let jobs: Vec<(&mut TiledCrossbar, Vec<usize>)> = self
            .slots
            .iter_mut()
            .zip(per_instance)
            .filter(|(_, ops)| !ops.is_empty())
            .map(|(slot, ops)| {
                // audit:allow(panic-path): the filter above keeps only slots with pending ops, and ops are only assigned to live (Some) slots
                let slot = slot.as_mut().expect("liveness checked above");
                (&mut slot.array, ops)
            })
            .collect();
        let outcomes: Vec<Vec<(usize, f64)>> = jobs
            .into_par_iter()
            .map(|(array, ops)| {
                ops.into_iter()
                    .map(|read_idx| {
                        let read = &reads[read_idx];
                        let value = match read.sigma_c {
                            Some(sigma_c) => {
                                array.incremental_form(read.sigma_r, sigma_c, read.factor)
                            }
                            None => array.vmv(read.sigma_r),
                        };
                        (read_idx, value)
                    })
                    .collect()
            })
            .collect();

        let mut results = vec![0.0f64; reads.len()];
        for (read_idx, value) in outcomes.into_iter().flatten() {
            results[read_idx] = value;
        }
        let tiles_after: u64 = self
            .slots
            .iter()
            .flatten()
            .map(|s| s.array.stats().tiles_activated)
            .sum();
        self.account_cycle(reads.len() as u64, concurrent, tiles_after - tiles_before);
        results
    }

    /// Move the grid behind a shared handle for concurrently running
    /// drivers; pair with [`BatchedTiledCrossbar::handles`].
    pub fn into_shared(self) -> Arc<Mutex<BatchedTiledCrossbar>> {
        Arc::new(Mutex::new(self))
    }

    /// One [`BatchInstance`] handle per instance of a shared grid, in
    /// instance order.
    pub fn handles(shared: &Arc<Mutex<BatchedTiledCrossbar>>) -> Vec<BatchInstance> {
        let count = lock_shared(shared).instance_count();
        (0..count)
            .map(|index| BatchInstance::new(Arc::clone(shared), index))
            .collect()
    }

    fn slot(&self, instance: usize) -> &InstanceSlot {
        match self.slots.get(instance) {
            Some(Some(slot)) => slot,
            // audit:allow(panic-path): reads on a retired instance are a documented-panic API misuse (see `retire_instance`); aborting beats returning stale state
            Some(None) => panic!("instance {instance} is retired"),
            // audit:allow(panic-path): same documented out-of-range misuse contract as the arm above
            None => panic!(
                "instance {instance} out of range for {} instances",
                self.slots.len()
            ),
        }
    }

    fn slot_mut(&mut self, instance: usize) -> &mut InstanceSlot {
        let count = self.slots.len();
        match self.slots.get_mut(instance) {
            Some(Some(slot)) => slot,
            // audit:allow(panic-path): reads on a retired instance are a documented-panic API misuse (see `retire_instance`); aborting beats returning stale state
            Some(None) => panic!("instance {instance} is retired"),
            // audit:allow(panic-path): same documented out-of-range misuse contract as the arm above
            None => panic!("instance {instance} out of range for {count} instances"),
        }
    }

    fn account_cycle(&mut self, reads: u64, concurrent: usize, tiles_activated: u64) {
        self.batch.grid_cycles += 1;
        self.batch.reads += reads;
        self.batch.tiles_activated += tiles_activated;
        self.batch.tile_slots_offered += self.physical_tiles() as u64;
        self.batch.peak_concurrent_instances = self.batch.peak_concurrent_instances.max(concurrent);
    }
}

/// Recover the guard even from a poisoned mutex: the grid is plain data,
/// so a panicking peer cannot leave it logically torn mid-read (every
/// read completes or unwinds before the guard drops), and propagating the
/// poison would turn one failed replica into a panic in every other.
fn lock_shared(shared: &Arc<Mutex<BatchedTiledCrossbar>>) -> MutexGuard<'_, BatchedTiledCrossbar> {
    shared.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A per-instance handle onto a shared [`BatchedTiledCrossbar`]: looks
/// like an exclusive [`InSituArray`], so a device-in-the-loop solver can
/// drive its replica while sibling replicas share the same grid from
/// other threads.
///
/// Simulator access is serialized through the grid's mutex per read; the
/// modeled hardware cost is not (instances convert on disjoint ADC
/// banks). Each handle caches its instance's [`ActivityStats`] after
/// every read so `stats()` can hand out a reference without holding the
/// lock.
#[derive(Debug, Clone)]
pub struct BatchInstance {
    shared: Arc<Mutex<BatchedTiledCrossbar>>,
    index: usize,
    dimension: usize,
    stats: ActivityStats,
}

impl BatchInstance {
    /// Handle onto instance `index` of `shared`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the grid.
    pub fn new(shared: Arc<Mutex<BatchedTiledCrossbar>>, index: usize) -> BatchInstance {
        let (dimension, stats) = {
            let grid = lock_shared(&shared);
            let array = grid.instance(index);
            (array.dimension(), *array.stats())
        };
        BatchInstance {
            shared,
            index,
            dimension,
            stats,
        }
    }

    /// Which instance of the shared grid this handle drives.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Re-program this handle's instance for a trial (see
    /// [`BatchedTiledCrossbar::reseed_instance_for_trial`]): call before
    /// the trial's first read so device-accurate results are invariant
    /// to slot placement, admission order, and worker count.
    pub fn reseed_for_trial(&mut self, trial_seed: u64) {
        lock_shared(&self.shared).reseed_instance_for_trial(self.index, trial_seed);
    }

    /// The shared grid behind this handle.
    pub fn shared(&self) -> &Arc<Mutex<BatchedTiledCrossbar>> {
        &self.shared
    }
}

impl InSituArray for BatchInstance {
    fn dimension(&self) -> usize {
        self.dimension
    }

    fn incremental_form(&mut self, sigma_r: &[i8], sigma_c: &[i8], factor: f64) -> f64 {
        let mut grid = lock_shared(&self.shared);
        let value = grid.incremental_form(self.index, sigma_r, sigma_c, factor);
        self.stats = *grid.instance_stats(self.index);
        value
    }

    fn vmv(&mut self, sigma: &[i8]) -> f64 {
        let mut grid = lock_shared(&self.shared);
        let value = grid.vmv(self.index, sigma);
        self.stats = *grid.instance_stats(self.index);
        value
    }

    fn mvm(&mut self, sigma: &[i8]) -> Vec<f64> {
        let mut grid = lock_shared(&self.shared);
        let value = grid.mvm(self.index, sigma);
        self.stats = *grid.instance_stats(self.index);
        value
    }

    fn stats(&self) -> &ActivityStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        lock_shared(&self.shared).reset_instance_stats(self.index);
        self.stats.reset();
    }

    fn cell_factor(&self, vbg: f64) -> f64 {
        lock_shared(&self.shared)
            .instance(self.index)
            .cell_factor(vbg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Fidelity;
    use fecim_device::VariationConfig;
    use fecim_ising::{DenseCoupling, FlipMask, SpinVector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dense(n: usize, seed: u64) -> DenseCoupling {
        let mut rng = StdRng::seed_from_u64(seed);
        DenseCoupling::random(n, 0.4, 1.0, &mut rng)
    }

    fn config() -> CrossbarConfig {
        CrossbarConfig::paper_defaults()
    }

    /// The standalone monolithic array: one tile spanning every row.
    fn monolithic(m: &DenseCoupling) -> TiledCrossbar {
        TiledCrossbar::program(m, config(), m.dimension())
    }

    #[test]
    fn batched_reads_match_per_instance_monolithic_reads() {
        let n = 20;
        let problems = [dense(n, 1), dense(n, 2), dense(n, 3)];
        let mut grid = BatchedTiledCrossbar::new(config(), 7);
        for p in &problems {
            grid.push_instance(p);
        }
        let mut rng = StdRng::seed_from_u64(4);
        let spins: Vec<SpinVector> = (0..3).map(|_| SpinVector::random(n, &mut rng)).collect();
        let masks: Vec<FlipMask> = (0..3).map(|_| FlipMask::random(2, n, &mut rng)).collect();
        let flipped: Vec<SpinVector> = spins
            .iter()
            .zip(&masks)
            .map(|(s, m)| s.flipped_by(m))
            .collect();
        let rests: Vec<Vec<i8>> = flipped
            .iter()
            .zip(&masks)
            .map(|(s, m)| s.rest_vector(m))
            .collect();
        let changed: Vec<Vec<i8>> = flipped
            .iter()
            .zip(&masks)
            .map(|(s, m)| s.changed_vector(m))
            .collect();
        let reads: Vec<BatchRead> = (0..3)
            .map(|i| BatchRead {
                instance: i,
                sigma_r: &rests[i],
                sigma_c: Some(&changed[i]),
                factor: 0.7,
            })
            .collect();
        let batched = grid.read_batch(&reads);
        for i in 0..3 {
            let mut mono = monolithic(&problems[i]);
            let expected = mono.incremental_form(&rests[i], &changed[i], 0.7);
            assert_eq!(batched[i], expected, "instance {i}");
        }
        assert_eq!(grid.batch_stats().grid_cycles, 1);
        assert_eq!(grid.batch_stats().reads, 3);
        assert_eq!(grid.batch_stats().peak_concurrent_instances, 3);
    }

    #[test]
    fn batching_raises_grid_utilization() {
        let n = 16;
        let p = dense(n, 5);
        let mut solo = BatchedTiledCrossbar::replicate(&p, 4, config(), 4);
        let mut shared = solo.clone();
        let s = SpinVector::all_up(n);
        let mask = FlipMask::new(vec![3], n);
        let s_new = s.flipped_by(&mask);
        let r = s_new.rest_vector(&mask);
        let c = s_new.changed_vector(&mask);
        // Four cycles each serving one instance…
        for i in 0..4 {
            let _ = solo.incremental_form(i, &r, &c, 1.0);
        }
        // …vs one cycle serving all four.
        let reads: Vec<BatchRead> = (0..4)
            .map(|i| BatchRead {
                instance: i,
                sigma_r: &r,
                sigma_c: Some(&c),
                factor: 1.0,
            })
            .collect();
        let _ = shared.read_batch(&reads);
        assert_eq!(
            solo.batch_stats().tiles_activated,
            shared.batch_stats().tiles_activated
        );
        let solo_util = solo.batch_stats().grid_utilization();
        let shared_util = shared.batch_stats().grid_utilization();
        assert!(
            (shared_util / solo_util - 4.0).abs() < 1e-9,
            "batch of 4 quadruples utilization: {solo_util} vs {shared_util}"
        );
    }

    #[test]
    fn placement_is_block_diagonal_along_stripes() {
        let p20 = dense(20, 6);
        let p9 = dense(9, 7);
        let mut grid = BatchedTiledCrossbar::new(config(), 5);
        grid.push_instance(&p20); // 4 stripes × 4 bands
        grid.push_instance(&p9); // 2 stripes × 2 bands
        assert_eq!(grid.instance_count(), 2);
        assert_eq!(grid.stripe_offset(0), 0);
        assert_eq!(grid.stripe_offset(1), 4);
        assert_eq!(grid.grid(), (4, 6));
        assert_eq!(grid.physical_tiles(), 24);
    }

    #[test]
    fn replicas_draw_distinct_variation_maps() {
        let n = 12;
        let p = dense(n, 8);
        let mut cfg = config();
        cfg.fidelity = Fidelity::DeviceAccurate;
        cfg.variation = VariationConfig::typical();
        cfg.variation.read_noise_rel = 0.0; // isolate the programmed maps
        let mut grid = BatchedTiledCrossbar::replicate(&p, 2, cfg, 6);
        let s = SpinVector::all_up(n);
        let a = grid.vmv(0, s.as_slice());
        let b = grid.vmv(1, s.as_slice());
        assert_ne!(a, b, "replicas must not share silicon");
        // …but every replica is individually reproducible: rebuilding
        // from the same base config derives the same per-instance seeds.
        let cfg2 = grid.instance(0).config().clone();
        let mut again = BatchedTiledCrossbar::new(
            CrossbarConfig {
                seed: config().seed,
                ..cfg2
            },
            6,
        );
        again.push_instance(&p);
        again.push_instance(&p);
        assert_eq!(a, again.vmv(0, s.as_slice()));
        assert_eq!(b, again.vmv(1, s.as_slice()));
    }

    #[test]
    fn handles_drive_their_instances_independently() {
        let n = 14;
        let p = dense(n, 9);
        let shared = BatchedTiledCrossbar::replicate(&p, 3, config(), 7).into_shared();
        let mut handles = BatchedTiledCrossbar::handles(&shared);
        assert_eq!(handles.len(), 3);
        let s = SpinVector::all_up(n);
        let mut mono = monolithic(&p);
        let expected = mono.vmv(s.as_slice());
        for h in &mut handles {
            assert_eq!(h.dimension(), n);
            assert_eq!(h.vmv(s.as_slice()), expected);
            assert_eq!(h.stats().array_ops, 1);
        }
        // Per-instance attribution: each block saw exactly one read.
        let grid = lock_shared(&shared);
        for i in 0..3 {
            assert_eq!(grid.instance_stats(i).array_ops, 1);
        }
        assert_eq!(grid.aggregate_stats().array_ops, 3);
        assert_eq!(grid.batch_stats().grid_cycles, 3);
    }

    #[test]
    fn batched_mvm_matches_per_instance_monolithic_mvm() {
        // The SB placement contract: an instance's full-vector read on
        // the shared grid is bit-identical to the standalone monolithic
        // array's, both through the grid API and a BatchInstance handle.
        let n = 18;
        let problems = [dense(n, 41), dense(n, 42)];
        let mut grid = BatchedTiledCrossbar::new(config(), 7);
        for p in &problems {
            grid.push_instance(p);
        }
        let mut rng = StdRng::seed_from_u64(43);
        let s = SpinVector::random(n, &mut rng);
        for (i, p) in problems.iter().enumerate() {
            let mut mono = monolithic(p);
            assert_eq!(grid.mvm(i, s.as_slice()), mono.mvm(s.as_slice()));
        }
        let shared = grid.into_shared();
        let mut handles = BatchedTiledCrossbar::handles(&shared);
        for (i, p) in problems.iter().enumerate() {
            let mut mono = monolithic(p);
            assert_eq!(handles[i].mvm(s.as_slice()), mono.mvm(s.as_slice()));
            assert_eq!(handles[i].stats().array_ops, 2);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_instance_is_rejected() {
        let p = dense(8, 10);
        let mut grid = BatchedTiledCrossbar::replicate(&p, 1, config(), 4);
        let s = SpinVector::all_up(8);
        let _ = grid.vmv(1, s.as_slice());
    }

    #[test]
    fn admission_respects_stripe_capacity_and_reuses_freed_spans() {
        // tile_rows 4: an n-spin instance needs ceil(n/4) stripes.
        let p8 = dense(8, 20); // 2 stripes
        let p16 = dense(16, 21); // 4 stripes
        let p12 = dense(12, 22); // 3 stripes
        let mut grid = BatchedTiledCrossbar::new(config(), 4);
        assert_eq!(grid.stripes_needed(16), 4);

        let a = grid.try_admit_instance(&p16, 6).expect("4 of 6 fits");
        let b = grid.try_admit_instance(&p8, 6).expect("4+2 of 6 fits");
        assert_eq!((grid.stripe_offset(a), grid.stripe_offset(b)), (0, 4));
        assert_eq!(grid.stripes_in_use(), 6);
        assert_eq!(grid.live_instances(), 2);
        // Full: a 2-stripe instance does not fit right now.
        assert_eq!(grid.try_admit_instance(&p8, 6), None);

        // Retiring the 4-stripe head frees a span the next admissions
        // fill first-fit, splitting it.
        grid.retire_instance(a);
        assert!(!grid.is_live(a));
        assert_eq!(grid.live_instances(), 1);
        assert_eq!(grid.stripes_in_use(), 2);
        let c = grid.try_admit_instance(&p12, 6).expect("3 of 4 freed");
        assert_eq!(grid.stripe_offset(c), 0);
        let d = grid.try_admit_instance(&p8, 6);
        assert_eq!(d, None, "only 1 free stripe remains");
        assert_eq!(grid.admissions(), 3);
        assert_eq!(grid.retirements(), 1);
    }

    #[test]
    fn retirement_coalesces_spans_and_shrinks_the_tail() {
        let p8 = dense(8, 23); // 2 stripes each at tile_rows 4
        let mut grid = BatchedTiledCrossbar::new(config(), 4);
        let a = grid.try_admit_instance(&p8, 6).unwrap();
        let b = grid.try_admit_instance(&p8, 6).unwrap();
        let c = grid.try_admit_instance(&p8, 6).unwrap();
        // Freeing a and b coalesces [0,2)+[2,4) into one 4-stripe span…
        grid.retire_instance(a);
        grid.retire_instance(b);
        let p16 = dense(16, 24); // needs 4 contiguous stripes
        let d = grid.try_admit_instance(&p16, 6).expect("coalesced span");
        assert_eq!(grid.stripe_offset(d), 0);
        // …and freeing the tail returns stripes to the pool outright.
        grid.retire_instance(c);
        grid.retire_instance(d);
        assert_eq!(grid.stripes_in_use(), 0);
        let e = grid
            .try_admit_instance(&dense(24, 25), 6)
            .expect("empty grid admits a full-width instance");
        assert_eq!(grid.stripe_offset(e), 0);
        assert_eq!(grid.stripes_in_use(), 6);
    }

    #[test]
    fn recycled_slots_see_the_same_silicon() {
        let n = 12;
        let p = dense(n, 26);
        let mut cfg = config();
        cfg.fidelity = Fidelity::DeviceAccurate;
        cfg.variation = VariationConfig::typical();
        cfg.variation.read_noise_rel = 0.0; // isolate the programmed maps
        let mut grid = BatchedTiledCrossbar::new(cfg, 6);
        let s = SpinVector::all_up(n);
        let first = grid.try_admit_instance(&p, 4).unwrap();
        let before = grid.vmv(first, s.as_slice());
        grid.retire_instance(first);
        // The successor lands in the recycled slot — same per-slot seed,
        // hence the same simulated silicon.
        let second = grid.try_admit_instance(&p, 4).unwrap();
        assert_eq!(second, first);
        assert_eq!(grid.vmv(second, s.as_slice()), before);
    }

    #[test]
    fn trial_reseed_makes_results_slot_and_order_independent() {
        // Two grids admit the same two problems in opposite order, so
        // each problem lands in a different slot (different slot seed).
        // After reseeding each instance for its trial, device-accurate
        // noisy reads must be bit-identical across the grids: the trial,
        // not the placement, owns the silicon.
        let n = 12;
        let pa = dense(n, 33);
        let pb = dense(n, 34);
        let mut cfg = config();
        cfg.fidelity = Fidelity::DeviceAccurate;
        cfg.variation = VariationConfig::typical();
        assert!(cfg.variation.read_noise_rel > 0.0, "noisy case on purpose");
        let s = SpinVector::all_up(n);
        let mut g1 = BatchedTiledCrossbar::new(cfg.clone(), 6);
        let a1 = g1.try_admit_instance(&pa, 8).unwrap();
        let b1 = g1.try_admit_instance(&pb, 8).unwrap();
        let mut g2 = BatchedTiledCrossbar::new(cfg, 6);
        let b2 = g2.try_admit_instance(&pb, 8).unwrap();
        let a2 = g2.try_admit_instance(&pa, 8).unwrap();
        assert_ne!((a1, b1), (a2, b2), "placements really differ");
        g1.reseed_instance_for_trial(a1, 1001);
        g1.reseed_instance_for_trial(b1, 2002);
        g2.reseed_instance_for_trial(a2, 1001);
        g2.reseed_instance_for_trial(b2, 2002);
        assert_eq!(g1.vmv(a1, s.as_slice()), g2.vmv(a2, s.as_slice()));
        assert_eq!(g1.vmv(b1, s.as_slice()), g2.vmv(b2, s.as_slice()));
        // Distinct trials on identical couplings still see distinct
        // silicon: trial seeds, not slots, differentiate replicas.
        g1.reseed_instance_for_trial(a1, 1001);
        g2.reseed_instance_for_trial(a2, 7777);
        assert_ne!(g1.vmv(a1, s.as_slice()), g2.vmv(a2, s.as_slice()));
    }

    #[test]
    fn ideal_trial_reseed_is_free_and_harmless() {
        // All-zero variation means seed-independent silicon: the reseed
        // fast-path must skip the redraw entirely (slot seed retained)
        // and reads must be unaffected.
        let n = 10;
        let p = dense(n, 35);
        let mut grid = BatchedTiledCrossbar::replicate(&p, 2, config(), 5);
        let s = SpinVector::all_up(n);
        let before_seed = grid.instance(0).config().seed;
        let before = grid.vmv(0, s.as_slice());
        grid.reseed_instance_for_trial(0, 4242);
        assert_eq!(grid.instance(0).config().seed, before_seed);
        assert_eq!(grid.vmv(0, s.as_slice()), before);
    }

    #[test]
    #[should_panic(expected = "retired")]
    fn reads_on_retired_instances_panic() {
        let p = dense(8, 27);
        let mut grid = BatchedTiledCrossbar::new(config(), 4);
        let a = grid.try_admit_instance(&p, 4).unwrap();
        grid.retire_instance(a);
        let s = SpinVector::all_up(8);
        let _ = grid.vmv(a, s.as_slice());
    }

    #[test]
    #[should_panic(expected = "retired")]
    fn double_retire_panics() {
        let p = dense(8, 28);
        let mut grid = BatchedTiledCrossbar::new(config(), 4);
        let a = grid.try_admit_instance(&p, 4).unwrap();
        grid.retire_instance(a);
        grid.retire_instance(a);
    }

    #[test]
    fn same_instance_reads_in_one_batch_stay_ordered() {
        // Two reads against one instance serialize in request order —
        // results equal issuing them back to back.
        let n = 10;
        let p = dense(n, 11);
        let mut grid = BatchedTiledCrossbar::replicate(&p, 2, config(), 5);
        let mut reference = BatchedTiledCrossbar::replicate(&p, 2, config(), 5);
        let s = SpinVector::all_up(n);
        let mask = FlipMask::new(vec![2], n);
        let s_new = s.flipped_by(&mask);
        let r = s_new.rest_vector(&mask);
        let c = s_new.changed_vector(&mask);
        let reads = [
            BatchRead {
                instance: 0,
                sigma_r: &r,
                sigma_c: Some(&c),
                factor: 1.0,
            },
            BatchRead {
                instance: 0,
                sigma_r: s.as_slice(),
                sigma_c: None,
                factor: 1.0,
            },
        ];
        let out = grid.read_batch(&reads);
        let a = reference.incremental_form(0, &r, &c, 1.0);
        let b = reference.vmv(0, s.as_slice());
        assert_eq!(out, vec![a, b]);
        assert_eq!(grid.batch_stats().peak_concurrent_instances, 1);
    }
}
