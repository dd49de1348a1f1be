//! Hardware activity counters.
//!
//! The crossbar simulator records *what the hardware did* — ADC
//! conversions, sequential conversion slots, driven rows/columns, back-gate
//! updates — and the `fecim-hwcost` crate turns those counts into energy
//! and latency (the methodology behind paper Figs. 8–9).

use serde::{Deserialize, Serialize};

/// Cumulative activity of a crossbar (and its periphery) over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivityStats {
    /// Array-level operations issued (one per energy-form evaluation).
    pub array_ops: u64,
    /// Row-input passes (positive/negative input phases count separately).
    pub row_passes: u64,
    /// Individual ADC conversions performed.
    pub adc_conversions: u64,
    /// Sequential ADC time slots: conversions that could not run in
    /// parallel because they share a multiplexed ADC.
    pub adc_slots: u64,
    /// Cells that actively conducted (row driven AND nonzero stored bit AND
    /// column selected).
    pub cells_activated: u64,
    /// Row-driver activations.
    pub rows_driven: u64,
    /// Column (DL) driver activations.
    pub columns_driven: u64,
    /// Back-gate DAC updates (the in-situ temperature encoder).
    pub bg_updates: u64,
    /// Digital shift-and-add operations.
    pub shift_add_ops: u64,
    /// Output-buffer writes.
    pub buffer_writes: u64,
    /// Physical tiles that participated in a read: tiles whose row range
    /// held a driven row AND whose column range held a selected group.
    /// The monolithic array counts as one tile; a [`crate::TiledCrossbar`]
    /// counts only the activated subset, which is what lets `fecim-hwcost`
    /// scale array energy with activated tiles instead of whole-array `n`.
    pub tiles_activated: u64,
    /// Exponential-function evaluations (baseline annealers only; recorded
    /// here so one report covers the whole iteration).
    pub exp_evaluations: u64,
}

impl ActivityStats {
    /// All-zero counters.
    pub fn new() -> ActivityStats {
        ActivityStats::default()
    }

    /// Add another stats block into this one.
    // audit:allow(dead-pub): test seam: tiled_equivalence sums fresh arrays' activity to compare it with a kept read
    pub fn merge(&mut self, other: &ActivityStats) {
        self.array_ops += other.array_ops;
        self.row_passes += other.row_passes;
        self.adc_conversions += other.adc_conversions;
        self.adc_slots += other.adc_slots;
        self.cells_activated += other.cells_activated;
        self.rows_driven += other.rows_driven;
        self.columns_driven += other.columns_driven;
        self.bg_updates += other.bg_updates;
        self.shift_add_ops += other.shift_add_ops;
        self.buffer_writes += other.buffer_writes;
        self.tiles_activated += other.tiles_activated;
        self.exp_evaluations += other.exp_evaluations;
    }

    /// Reset all counters to zero.
    pub fn reset(&mut self) {
        *self = ActivityStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates_every_field() {
        let mut a = ActivityStats::new();
        let b = ActivityStats {
            array_ops: 1,
            row_passes: 2,
            adc_conversions: 3,
            adc_slots: 4,
            cells_activated: 5,
            rows_driven: 6,
            columns_driven: 7,
            bg_updates: 8,
            shift_add_ops: 9,
            buffer_writes: 10,
            tiles_activated: 12,
            exp_evaluations: 11,
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.adc_conversions, 6);
        assert_eq!(a.exp_evaluations, 22);
        assert_eq!(a.buffer_writes, 20);
        assert_eq!(a.tiles_activated, 24);
    }

    #[test]
    fn reset_zeroes() {
        let mut s = ActivityStats {
            array_ops: 5,
            ..Default::default()
        };
        s.reset();
        assert_eq!(s, ActivityStats::new());
    }
}
