//! Multi-problem batching: several instances' stripe spans on one
//! physical tile grid.
//!
//! An in-situ incremental read activates only the `t` stripes holding the
//! flipped column groups (× the driven row bands) — on a grid sized for
//! one instance, everything else idles. Scaled in-memory annealers exploit
//! that slack by placing instance `i`'s tiles on their own stripe span of
//! a shared grid, so while instance A converts on its stripes' ADC banks,
//! instances B and C convert on theirs *in the same grid cycle*. The
//! placement is block-diagonal along the stripe axis: no two instances
//! share a stripe, hence no two share an ADC bank, row segment, or
//! back-gate plane — reads of distinct instances are physically
//! concurrent and numerically independent.
//!
//! Nothing physical is shared, so nothing simulated is either: each
//! batched trial programs and owns a plain [`TiledCrossbar`](crate::TiledCrossbar)
//! and reads it without any lock. [`TileGrid`] only does the grid's
//! bookkeeping:
//!
//! * [`TileGrid::try_admit`] places an instance of a given dimension into
//!   the first freed stripe span that fits (first-fit, splitting wider
//!   spans), extending the grid's tail only while a stripe capacity
//!   allows it, and recycles retired slot indices;
//! * [`TileGrid::retire`] frees the span (coalescing adjacent free spans
//!   and returning trailing stripes to the tail) and folds the trial's
//!   [`ActivityStats`] into the grid's [`BatchStats`].
//!
//! **Accounting rule.** Every read of an instance is one grid cycle that
//! offers the grid's whole tile rectangle. At retirement the grid adds
//! the trial's `array_ops` to [`BatchStats::reads`], its
//! `tiles_activated` to [`BatchStats::tiles_activated`], and
//! `array_ops × physical_tiles()` — the rectangle while the span is still
//! held — to [`BatchStats::tile_slots_offered`]. With one live instance
//! this is exactly the per-read sum.
//!
//! **Silicon per trial.** A trial's device-accurate silicon is a function
//! of the trial, never of its slot or stripe span:
//! [`CrossbarConfig::for_trial`] derives the seed the trial programs its
//! array with (the write-verify pass a new tenant gets). In
//! [`Fidelity::Ideal`](crate::Fidelity::Ideal) mode reads are
//! placement-independent anyway, so live-grid scheduling cannot change
//! results in any fidelity.

use crate::array::CrossbarConfig;
use crate::stats::ActivityStats;

/// Deterministic per-trial silicon seed: splitmix64 finalizer over the
/// base config seed and the trial's own seed, so an array's variation
/// maps and noise stream depend on *which trial* runs, never on which
/// slot or stripe span hosts it.
fn trial_silicon_seed(base: u64, trial_seed: u64) -> u64 {
    crate::tiled::splitmix64_finalize(base ^ trial_seed.rotate_left(21) ^ 0x7C15_9E37_D192_4A32)
}

impl CrossbarConfig {
    /// The configuration a batched trial programs its own array with:
    /// the seed becomes a per-trial silicon seed derived from this
    /// config's seed and `trial_seed`, so distinct trials on identical
    /// couplings see distinct silicon and results never depend on grid
    /// placement, admission order or worker count.
    ///
    /// With all-zero variation the config comes back unchanged: ideal
    /// silicon is seed-independent.
    pub fn for_trial(&self, trial_seed: u64) -> CrossbarConfig {
        let mut config = self.clone();
        if !self.variation.is_ideal() {
            config.seed = trial_silicon_seed(self.seed, trial_seed);
        }
        config
    }
}

/// Grid-level sharing counters of a [`TileGrid`], accumulated at
/// retirement (see the module docs for the rule).
///
/// Per-instance activity lives in each trial's own [`ActivityStats`];
/// this struct only measures how well instances fill the shared grid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Reads executed by retired instances (one grid cycle each).
    pub reads: u64,
    /// Tiles activated by retired instances.
    pub tiles_activated: u64,
    /// Tile slots offered: physical tiles × reads, the rectangle taken
    /// while each instance still held its span.
    pub tile_slots_offered: u64,
}

impl BatchStats {
    /// Fraction of offered tile slots that actually activated.
    pub fn grid_utilization(&self) -> f64 {
        if self.tile_slots_offered == 0 {
            return 0.0;
        }
        self.tiles_activated as f64 / self.tile_slots_offered as f64
    }
}

/// The stripe-span allocator of one shared tile grid.
///
/// See the module docs for the placement model and the accounting rule.
#[derive(Debug, Clone)]
pub struct TileGrid {
    tile_rows: usize,
    /// Per slot: the live instance's span `(stripe_offset, stripes)`, or
    /// `None` for a retired slot whose index is free for reuse.
    slots: Vec<Option<(usize, usize)>>,
    /// Stripes of the shared grid (sum of live spans and interior free
    /// spans).
    total_stripes: usize,
    /// Row bands of the shared grid (worst instance, high-water).
    max_bands: usize,
    /// Freed interior stripe spans `(offset, width)`, sorted by offset
    /// and coalesced.
    free_spans: Vec<(usize, usize)>,
    /// Retired slot indices available for reuse.
    free_slots: Vec<usize>,
    admitted: u64,
    retired: u64,
    batch: BatchStats,
}

impl TileGrid {
    /// An empty grid of `tile_rows`-row tiles.
    ///
    /// # Panics
    ///
    /// Panics if `tile_rows == 0`.
    pub fn new(tile_rows: usize) -> TileGrid {
        assert!(tile_rows > 0, "tile_rows must be positive");
        TileGrid {
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

    /// Admit an instance of `dimension` spins if it fits within
    /// `stripe_limit` total stripes: freed spans are reused first-fit
    /// (wider spans are split), and the grid's tail extends only while
    /// the capacity allows. Returns the instance's slot index, or `None`
    /// when it does not fit *right now* (retiring instances frees
    /// capacity; an instance needing more than `stripe_limit` stripes
    /// never fits — see `TileGrid::stripes_needed`). Retired slot
    /// indices are recycled.
    pub fn try_admit(&mut self, dimension: usize, stripe_limit: usize) -> Option<usize> {
        let needed = self.stripes_needed(dimension);
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
        // A tiled mapping is square: as many row bands as stripes.
        self.max_bands = self.max_bands.max(needed);
        let span = Some((offset, needed));
        let index = match self.free_slots.pop() {
            Some(index) => {
                self.slots[index] = span;
                index
            }
            None => {
                self.slots.push(span);
                self.slots.len() - 1
            }
        };
        self.admitted += 1;
        Some(index)
    }

    /// Retire an instance: fold its trial's `activity` into the grid's
    /// [`BatchStats`] (offered slots use the rectangle before the span is
    /// freed), return its stripe span to the free pool (coalescing with
    /// adjacent free spans; trailing spans shrink the grid's tail) and
    /// make its slot index reusable. Pass zero activity when no trial
    /// ran.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or already retired.
    pub fn retire(&mut self, index: usize, activity: &ActivityStats) {
        let Some(span) = self.slots.get_mut(index).and_then(Option::take) else {
            // audit:allow(panic-path): documented `# Panics` contract — retiring an out-of-range or already-retired instance is caller misuse that must abort
            panic!(
                "instance {index} is retired or out of range for {} slots",
                self.slots.len()
            );
        };
        self.batch.reads += activity.array_ops;
        self.batch.tiles_activated += activity.tiles_activated;
        self.batch.tile_slots_offered += activity.array_ops * self.physical_tiles() as u64;
        self.free_slots.push(index);
        self.retired += 1;
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

    /// Stripes an instance of `dimension` spins occupies on this grid
    /// (its tiled mapping is square: `ceil(n / tile_rows)` stripes).
    fn stripes_needed(&self, dimension: usize) -> usize {
        dimension.div_ceil(self.tile_rows)
    }

    /// Instances currently occupying the grid.
    pub fn live_instances(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    /// Stripes currently occupied by live instances.
    pub fn stripes_in_use(&self) -> usize {
        self.total_stripes - self.free_spans.iter().map(|&(_, w)| w).sum::<usize>()
    }

    /// Lifetime admissions.
    pub fn admissions(&self) -> u64 {
        self.admitted
    }

    /// Lifetime retirements.
    pub fn retirements(&self) -> u64 {
        self.retired
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

    /// Grid-level sharing counters of every retired instance.
    pub fn batch_stats(&self) -> &BatchStats {
        &self.batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::Fidelity;
    use crate::TiledCrossbar;
    use fecim_device::VariationConfig;
    use fecim_ising::{Coupling, DenseCoupling, FlipMask, SpinVector};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dense(n: usize, seed: u64) -> DenseCoupling {
        let mut rng = StdRng::seed_from_u64(seed);
        DenseCoupling::random(n, 0.4, 1.0, &mut rng)
    }

    /// Typical variation without read noise: isolates the programmed
    /// maps.
    fn varied_config() -> CrossbarConfig {
        let mut cfg = CrossbarConfig::paper_defaults();
        cfg.fidelity = Fidelity::DeviceAccurate;
        cfg.variation = VariationConfig::typical();
        cfg.variation.read_noise_rel = 0.0;
        cfg
    }

    /// First grid stripe of live slot `slot`.
    fn offset(grid: &TileGrid, slot: usize) -> usize {
        grid.slots[slot].expect("live slot").0
    }

    fn activity(array_ops: u64, tiles_activated: u64) -> ActivityStats {
        ActivityStats {
            array_ops,
            tiles_activated,
            ..ActivityStats::new()
        }
    }

    /// The standalone monolithic array: one tile spanning every row.
    fn monolithic(m: &DenseCoupling) -> TiledCrossbar {
        TiledCrossbar::program(m, CrossbarConfig::paper_defaults(), m.dimension())
    }

    /// A batched replica's own array: 7-row tiles, per-trial silicon.
    fn replica(m: &DenseCoupling, trial_seed: u64) -> TiledCrossbar {
        TiledCrossbar::program(m, CrossbarConfig::paper_defaults().for_trial(trial_seed), 7)
    }

    #[test]
    fn batched_reads_match_per_instance_monolithic_reads() {
        // Batching is a placement change: in Ideal fidelity each
        // replica's incremental read equals the standalone monolithic
        // array's, whichever stripe span the grid gave it.
        let n = 20;
        let problems = [dense(n, 1), dense(n, 2), dense(n, 3)];
        let mut grid = TileGrid::new(7);
        let mut rng = StdRng::seed_from_u64(4);
        for (i, p) in problems.iter().enumerate() {
            let slot = grid.try_admit(n, usize::MAX).unwrap();
            assert_eq!(offset(&grid, slot), 3 * i);
            let s_new = SpinVector::random(n, &mut rng);
            let mask = FlipMask::random(2, n, &mut rng);
            let r = s_new.rest_vector(&mask);
            let c = s_new.changed_vector(&mask);
            assert_eq!(
                replica(p, 100 + i as u64).incremental_form(&r, &c, 0.7),
                monolithic(p).incremental_form(&r, &c, 0.7),
                "instance {i}"
            );
        }
    }

    #[test]
    fn batched_mvm_matches_per_instance_monolithic_mvm() {
        // The SB placement contract: a replica's full-vector read is
        // bit-identical to the standalone monolithic array's.
        let n = 18;
        let mut rng = StdRng::seed_from_u64(43);
        let s = SpinVector::random(n, &mut rng);
        for (i, p) in [dense(n, 41), dense(n, 42)].iter().enumerate() {
            assert_eq!(
                replica(p, i as u64).mvm(s.as_slice()),
                monolithic(p).mvm(s.as_slice()),
                "instance {i}"
            );
        }
    }

    #[test]
    fn handles_drive_their_instances_independently() {
        // Per-instance attribution: each replica's array counts only its
        // own reads, and the grid sums them when the replicas retire.
        let n = 14;
        let p = dense(n, 9);
        let s = SpinVector::all_up(n);
        let expected = monolithic(&p).vmv(s.as_slice());
        let mut grid = TileGrid::new(7);
        let slots: Vec<usize> = (0..3)
            .map(|_| grid.try_admit(n, usize::MAX).unwrap())
            .collect();
        for (trial, &slot) in slots.iter().enumerate() {
            let mut array = replica(&p, trial as u64);
            assert_eq!(array.vmv(s.as_slice()), expected);
            assert_eq!(array.stats().array_ops, 1);
            grid.retire(slot, array.stats());
        }
        assert_eq!(grid.batch_stats().reads, 3);
        assert_eq!(grid.live_instances(), 0);
    }

    #[test]
    fn placement_is_block_diagonal_along_stripes() {
        let mut grid = TileGrid::new(5);
        let a = grid.try_admit(20, usize::MAX).unwrap(); // 4 stripes × 4 bands
        let b = grid.try_admit(9, usize::MAX).unwrap(); // 2 stripes × 2 bands
        assert_eq!((offset(&grid, a), offset(&grid, b)), (0, 4));
        assert_eq!(grid.grid(), (4, 6));
        assert_eq!(grid.physical_tiles(), 24);
    }

    #[test]
    fn retire_accounts_reads_tiles_and_offered_slots() {
        // tile_rows 4: 8 spins → 2 stripes, 12 spins → 3 stripes; the
        // rectangle is 3 bands × 5 stripes = 15 tiles while both live.
        let mut grid = TileGrid::new(4);
        let a = grid.try_admit(8, 8).unwrap();
        let b = grid.try_admit(12, 8).unwrap();
        assert_eq!(grid.physical_tiles(), 15);
        grid.retire(a, &activity(10, 30));
        assert_eq!(grid.batch_stats().reads, 10);
        assert_eq!(grid.batch_stats().tiles_activated, 30);
        assert_eq!(grid.batch_stats().tile_slots_offered, 10 * 15);
        // `a` was the head span, so the rectangle keeps its 5 stripes
        // until `b` (the tail) retires.
        assert_eq!(grid.physical_tiles(), 15);
        grid.retire(b, &activity(4, 20));
        let stats = *grid.batch_stats();
        assert_eq!(stats.reads, 14);
        assert_eq!(stats.tiles_activated, 50);
        assert_eq!(stats.tile_slots_offered, 150 + 4 * 15);
        assert!((stats.grid_utilization() - 50.0 / 210.0).abs() < 1e-12);
        // Zero activity (an admission whose trial never ran) counts
        // nothing.
        let c = grid.try_admit(8, 8).unwrap();
        grid.retire(c, &ActivityStats::new());
        assert_eq!(*grid.batch_stats(), stats);
        assert_eq!(grid.stripes_in_use(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_instance_is_rejected() {
        let mut grid = TileGrid::new(4);
        grid.try_admit(8, usize::MAX).unwrap();
        grid.retire(1, &ActivityStats::new());
    }

    #[test]
    fn admission_respects_stripe_capacity_and_reuses_freed_spans() {
        // tile_rows 4: an n-spin instance needs ceil(n/4) stripes.
        let mut grid = TileGrid::new(4);
        assert_eq!(grid.stripes_needed(16), 4);

        let a = grid.try_admit(16, 6).expect("4 of 6 fits");
        let b = grid.try_admit(8, 6).expect("4+2 of 6 fits");
        assert_eq!((offset(&grid, a), offset(&grid, b)), (0, 4));
        assert_eq!(grid.stripes_in_use(), 6);
        assert_eq!(grid.live_instances(), 2);
        // Full: a 2-stripe instance does not fit right now.
        assert_eq!(grid.try_admit(8, 6), None);

        // Retiring the 4-stripe head frees a span the next admissions
        // fill first-fit, splitting it; the slot index is recycled.
        grid.retire(a, &ActivityStats::new());
        assert_eq!(grid.live_instances(), 1);
        assert_eq!(grid.stripes_in_use(), 2);
        let c = grid.try_admit(12, 6).expect("3 of 4 freed");
        assert_eq!(c, a, "retired slot index reused");
        assert_eq!(offset(&grid, c), 0);
        assert_eq!(grid.try_admit(8, 6), None, "only 1 free stripe remains");
        assert_eq!(grid.admissions(), 3);
        assert_eq!(grid.retirements(), 1);
    }

    #[test]
    fn retirement_coalesces_spans_and_shrinks_the_tail() {
        let mut grid = TileGrid::new(4); // 8 spins → 2 stripes each
        let a = grid.try_admit(8, 6).unwrap();
        let b = grid.try_admit(8, 6).unwrap();
        let c = grid.try_admit(8, 6).unwrap();
        // Freeing a and b coalesces [0,2)+[2,4) into one 4-stripe span…
        grid.retire(a, &ActivityStats::new());
        grid.retire(b, &ActivityStats::new());
        let d = grid.try_admit(16, 6).expect("coalesced span");
        assert_eq!(offset(&grid, d), 0);
        // …and freeing the tail returns stripes to the pool outright.
        grid.retire(c, &ActivityStats::new());
        grid.retire(d, &ActivityStats::new());
        assert_eq!(grid.stripes_in_use(), 0);
        let e = grid
            .try_admit(24, 6)
            .expect("empty grid admits a full-width instance");
        assert_eq!(offset(&grid, e), 0);
        assert_eq!(grid.stripes_in_use(), 6);
    }

    #[test]
    #[should_panic(expected = "retired")]
    fn double_retire_panics() {
        let mut grid = TileGrid::new(4);
        let a = grid.try_admit(8, 4).unwrap();
        grid.retire(a, &ActivityStats::new());
        grid.retire(a, &ActivityStats::new());
    }

    #[test]
    fn replicas_draw_distinct_variation_maps() {
        // Two trials of one coupling see distinct device-accurate
        // silicon, and each trial's silicon is reproducible.
        let p = dense(12, 8);
        let cfg = varied_config();
        let s = SpinVector::all_up(12);
        let read = |trial_seed: u64| {
            TiledCrossbar::program(&p, cfg.for_trial(trial_seed), 6).vmv(s.as_slice())
        };
        assert_ne!(read(1), read(2), "replicas must not share silicon");
        assert_eq!(read(1), read(1));
    }

    #[test]
    fn ideal_trial_reseed_is_free_and_harmless() {
        // All-zero variation means seed-independent silicon: the config
        // comes back unchanged.
        let cfg = CrossbarConfig::paper_defaults();
        assert_eq!(cfg.for_trial(4242), cfg);
        assert_ne!(varied_config().for_trial(4242).seed, varied_config().seed);
    }
}
