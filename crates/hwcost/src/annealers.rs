//! Per-annealer hardware models: the analytic per-iteration activity of
//! the three architectures the paper compares (Sec. 4), used to cost
//! paper-scale runs without simulating every cell.
//!
//! The same [`ActivityStats`] shape is produced by the cycle-level
//! crossbar simulator; an integration test pins the analytic counts to the
//! simulated ones.

use serde::{Deserialize, Serialize};

use fecim_crossbar::ActivityStats;

use crate::accounting::{energy_of, time_of, EnergyReport, TimeReport};
use crate::components::{CostModel, ExpUnit};

/// The three annealer architectures of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AnnealerKind {
    /// The proposed DG FeFET CiM in-situ annealer (incremental-E,
    /// fractional factor, no `eˣ` unit).
    InSitu,
    /// Baseline: FeFET CiM direct-E annealer with an FPGA `eˣ` unit
    /// (refs \[7\] + \[18\]).
    CimFpga,
    /// Baseline: FeFET CiM direct-E annealer with an ASIC `eˣ` unit.
    CimAsic,
}

impl AnnealerKind {
    /// All architectures in the paper's plotting order.
    pub fn all() -> [AnnealerKind; 3] {
        [
            AnnealerKind::CimFpga,
            AnnealerKind::CimAsic,
            AnnealerKind::InSitu,
        ]
    }

    /// Display label used in the figures.
    pub fn label(self) -> &'static str {
        match self {
            AnnealerKind::InSitu => "This Work",
            AnnealerKind::CimFpga => "CiM/FPGA",
            AnnealerKind::CimAsic => "CiM/ASIC",
        }
    }

    /// Which `eˣ` unit the architecture instantiates (`None` for the
    /// in-situ annealer, which eliminates the exponential).
    pub fn exp_unit(self) -> Option<ExpUnit> {
        match self {
            AnnealerKind::InSitu => None,
            AnnealerKind::CimFpga => Some(ExpUnit::Fpga),
            AnnealerKind::CimAsic => Some(ExpUnit::Asic),
        }
    }

    /// Computational complexity class of one iteration (paper Table 1).
    pub fn complexity(self) -> &'static str {
        match self {
            AnnealerKind::InSitu => "O(n)",
            _ => "O(n^2)",
        }
    }
}

/// Geometry/algorithm parameters that fix the per-iteration activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IterationProfile {
    /// Number of spins `n`.
    pub spins: usize,
    /// Quantization bits `k`.
    pub quant_bits: u8,
    /// Flip-set size `|F| = t` of the incremental transformation.
    pub flips: usize,
    /// ADC mux ratio `M`.
    pub mux_ratio: usize,
    /// Physical tile height when the matrix is mapped onto fixed-size
    /// tiles (`None` = one monolithic array). Row segments, back-gate
    /// planes and tile activations then scale with the activated-tile
    /// subset instead of whole-array `n`.
    pub tile_rows: Option<usize>,
    /// Problem instances sharing the physical grid (multi-problem
    /// batching): the grid is sized for all of them side by side along
    /// the stripe axis, and one *batched* iteration steps every instance
    /// concurrently on its own stripes' ADC banks. `1` = the classic
    /// single-instance mapping.
    pub batch_instances: usize,
}

impl IterationProfile {
    /// The paper's operating point for a given problem size: `k = 4`,
    /// `t = 2`, 8:1 muxed ADCs, one monolithic array.
    pub fn paper(spins: usize) -> IterationProfile {
        IterationProfile {
            spins,
            quant_bits: 4,
            flips: 2,
            mux_ratio: 8,
            tile_rows: None,
            batch_instances: 1,
        }
    }

    /// The paper's operating point mapped onto `tile_rows`-row tiles.
    ///
    /// # Panics
    ///
    /// Panics if `tile_rows == 0`.
    pub fn paper_tiled(spins: usize, tile_rows: usize) -> IterationProfile {
        assert!(tile_rows > 0, "tile_rows must be positive");
        IterationProfile {
            tile_rows: Some(tile_rows),
            ..IterationProfile::paper(spins)
        }
    }

    /// This profile with `instances` problems batched onto one shared
    /// grid (block-diagonal along the stripe axis).
    ///
    /// # Panics
    ///
    /// Panics if `instances == 0`.
    pub fn batched(mut self, instances: usize) -> IterationProfile {
        assert!(instances > 0, "need at least one instance");
        self.batch_instances = instances;
        self
    }

    /// The 22 nm cost model of this profile's geometry: whole-array wire
    /// lengths for the monolithic mapping, tile-length ones otherwise.
    pub fn cost_model(&self) -> CostModel {
        match self.tile_rows {
            None => CostModel::paper_22nm(self.spins, self.quant_bits),
            Some(rows) => CostModel::paper_22nm_tiled(self.spins, self.quant_bits, rows),
        }
    }

    /// Tile grid implied by the mapping: `(row_bands, column_stripes)`,
    /// `(1, 1)` for the monolithic array.
    fn tile_grid(&self) -> (usize, usize) {
        match self.tile_rows {
            None => (1, 1),
            Some(tr) => {
                let bands = self.spins.div_ceil(tr.max(1));
                (bands, bands)
            }
        }
    }

    /// Tiles activated by one iteration of `kind` *per instance*: the
    /// in-situ read touches only the stripes holding the `t` flipped
    /// column groups (all row bands, since `σ_r` is dense); the direct-E
    /// baselines activate the instance's whole block.
    pub fn activated_tiles(&self, kind: AnnealerKind) -> u64 {
        let (row_bands, col_stripes) = self.tile_grid();
        match kind {
            AnnealerKind::InSitu => (self.flips.min(col_stripes) * row_bands) as u64,
            AnnealerKind::CimFpga | AnnealerKind::CimAsic => (row_bands * col_stripes) as u64,
        }
    }

    /// Physical tiles of the shared grid under this mapping: one
    /// instance's tile block × the batch size (instances sit side by
    /// side along the stripe axis).
    pub fn grid_tiles(&self) -> u64 {
        let (row_bands, col_stripes) = self.tile_grid();
        (row_bands * col_stripes) as u64 * self.batch_instances as u64
    }

    /// Fraction of the shared grid's tiles a fully batched iteration
    /// activates (every instance stepping concurrently on its own
    /// stripes). With `batch_instances == 1` this is the classic
    /// activated/total ratio; serving the same grid one instance per
    /// cycle instead would divide it by the batch size — the
    /// multi-problem throughput argument.
    pub fn batch_utilization(&self, kind: AnnealerKind) -> f64 {
        let grid = self.grid_tiles();
        if grid == 0 {
            return 0.0;
        }
        (self.activated_tiles(kind) * self.batch_instances as u64) as f64 / grid as f64
    }

    /// Analytic activity of ONE annealing iteration of `kind`.
    ///
    /// Counting model (two input-sign passes, two polarity planes,
    /// `k` bit slices — see `fecim-crossbar`):
    ///
    /// * direct-E baselines convert every column group:
    ///   `2·n·2·k` conversions, serializing `M·k` per pass on the shared
    ///   ADCs, plus one `eˣ` evaluation;
    /// * the in-situ annealer converts only the `t` flipped groups:
    ///   `2·t·2·k` conversions in `k` slots per pass (interleaved mapping),
    ///   no `eˣ`.
    pub fn activity(&self, kind: AnnealerKind) -> ActivityStats {
        let n = self.spins as u64;
        let k = self.quant_bits as u64;
        let t = self.flips as u64;
        let m = self.mux_ratio as u64;
        let (_row_bands, col_stripes) = self.tile_grid();
        let tiles = self.activated_tiles(kind);
        match kind {
            AnnealerKind::InSitu => {
                let stripes = t.min(col_stripes as u64); // flipped groups' stripes
                ActivityStats {
                    array_ops: 1,
                    row_passes: 2,
                    adc_conversions: 2 * t * 2 * k,
                    adc_slots: 2 * k.min(t * k), // t groups on distinct ADC banks
                    cells_activated: 2 * t * k,  // active couplings of flipped spins
                    // Only changed FG inputs toggle, once per activated
                    // stripe's row segment.
                    rows_driven: 2 * t * stripes,
                    columns_driven: 2 * t * 2 * k,
                    // The BG DAC refresh reaches each activated tile's plane.
                    bg_updates: tiles.max(1),
                    shift_add_ops: 2 * t * 2 * k,
                    buffer_writes: 1,
                    tiles_activated: tiles,
                    exp_evaluations: 0,
                }
            }
            AnnealerKind::CimFpga | AnnealerKind::CimAsic => ActivityStats {
                array_ops: 1,
                row_passes: 2,
                adc_conversions: 2 * n * 2 * k,
                adc_slots: 2 * m * k,
                cells_activated: 2 * n * k,
                // Each toggled row spans every column stripe's segment.
                rows_driven: 2 * t * col_stripes as u64,
                columns_driven: 2 * n * 2 * k,
                bg_updates: 0,
                shift_add_ops: 2 * n * 2 * k,
                buffer_writes: 1,
                tiles_activated: tiles,
                exp_evaluations: 1,
            },
        }
    }

    /// Energy of one iteration of `kind` under `model`.
    fn iteration_energy(&self, kind: AnnealerKind, model: &CostModel) -> EnergyReport {
        let unit = kind.exp_unit().unwrap_or(ExpUnit::Asic);
        energy_of(&self.activity(kind), model, unit)
    }

    /// Latency of one iteration of `kind` under `model`.
    fn iteration_time(&self, kind: AnnealerKind, model: &CostModel) -> TimeReport {
        let unit = kind.exp_unit().unwrap_or(ExpUnit::Asic);
        time_of(&self.activity(kind), model, unit)
    }

    /// Energy of a whole run of `iterations` iterations.
    pub fn run_energy(
        &self,
        kind: AnnealerKind,
        model: &CostModel,
        iterations: usize,
    ) -> EnergyReport {
        self.iteration_energy(kind, model).scaled(iterations as f64)
    }

    /// Latency of a whole run of `iterations` iterations.
    pub fn run_time(&self, kind: AnnealerKind, model: &CostModel, iterations: usize) -> TimeReport {
        self.iteration_time(kind, model).scaled(iterations as f64)
    }

    /// Analytic activity of ONE simulated-bifurcation step.
    ///
    /// An SB step is `input_passes` full-array MVM reads (one sign-plane
    /// read for dSB, `in_bits` bit-serial planes for bSB), each the same
    /// dense read as a direct-E baseline pass — every column group
    /// converts on every read — plus a digital position/momentum update
    /// with no exponential evaluation and no background-gate refresh.
    fn sb_step_activity(&self, input_passes: u64) -> ActivityStats {
        let p = input_passes.max(1);
        let n = self.spins as u64;
        let k = self.quant_bits as u64;
        let m = self.mux_ratio as u64;
        let (row_bands, col_stripes) = self.tile_grid();
        ActivityStats {
            array_ops: p,
            row_passes: 2 * p,
            adc_conversions: p * 2 * n * 2 * k,
            adc_slots: p * 2 * m * k,
            cells_activated: p * 2 * n * k,
            rows_driven: p * 2 * n * col_stripes as u64,
            columns_driven: p * 2 * n * 2 * k,
            bg_updates: 0,
            shift_add_ops: p * 2 * n * 2 * k,
            // The symplectic update writes the full (x, y) state back.
            buffer_writes: p * n,
            tiles_activated: p * (row_bands * col_stripes) as u64,
            exp_evaluations: 0,
        }
    }

    /// Energy of a whole SB run: `steps` steps of `input_passes` MVM
    /// reads each.
    pub fn sb_run_energy(
        &self,
        model: &CostModel,
        steps: usize,
        input_passes: u64,
    ) -> EnergyReport {
        energy_of(&self.sb_step_activity(input_passes), model, ExpUnit::Asic).scaled(steps as f64)
    }

    /// Latency of a whole SB run: `steps` steps of `input_passes` MVM
    /// reads each.
    pub fn sb_run_time(&self, model: &CostModel, steps: usize, input_passes: u64) -> TimeReport {
        time_of(&self.sb_step_activity(input_passes), model, ExpUnit::Asic).scaled(steps as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_ratio_tracks_n_over_t() {
        // The Fig. 8 scaling law: ASIC-baseline/in-situ energy ≈ n/t.
        let model3000 = CostModel::paper_22nm(3000, 4);
        let p = IterationProfile::paper(3000);
        let base = p
            .iteration_energy(AnnealerKind::CimAsic, &model3000)
            .total();
        let ours = p.iteration_energy(AnnealerKind::InSitu, &model3000).total();
        let ratio = base / ours;
        assert!(
            (ratio - 1500.0).abs() / 1500.0 < 0.10,
            "ratio={ratio}, expected ≈ n/t = 1500"
        );
    }

    #[test]
    fn fpga_ratio_exceeds_asic_ratio() {
        // Fig. 8(a): the FPGA baseline pays extra for eˣ.
        for n in [800usize, 1000, 2000, 3000] {
            let model = CostModel::paper_22nm(n, 4);
            let p = IterationProfile::paper(n);
            let ours = p.iteration_energy(AnnealerKind::InSitu, &model).total();
            let fpga = p.iteration_energy(AnnealerKind::CimFpga, &model).total() / ours;
            let asic = p.iteration_energy(AnnealerKind::CimAsic, &model).total() / ours;
            assert!(fpga > asic, "n={n}: fpga={fpga} asic={asic}");
            assert!(asic > 0.9 * (n as f64 / 2.0), "n={n}: asic={asic}");
        }
    }

    #[test]
    fn time_ratio_close_to_mux_ratio() {
        // Fig. 9: both baselines are ≈8× slower (mux ratio), FPGA slightly
        // worse than ASIC.
        let model = CostModel::paper_22nm(1000, 4);
        let p = IterationProfile::paper(1000);
        let ours = p.iteration_time(AnnealerKind::InSitu, &model).total();
        let fpga = p.iteration_time(AnnealerKind::CimFpga, &model).total() / ours;
        let asic = p.iteration_time(AnnealerKind::CimAsic, &model).total() / ours;
        assert!(fpga > 7.0 && fpga < 9.5, "fpga={fpga}");
        assert!(asic > 7.0 && asic < 9.5, "asic={asic}");
        assert!(fpga > asic);
    }

    #[test]
    fn in_situ_has_no_exp_and_uses_bg() {
        let p = IterationProfile::paper(500);
        let a = p.activity(AnnealerKind::InSitu);
        assert_eq!(a.exp_evaluations, 0);
        assert_eq!(a.bg_updates, 1);
        let b = p.activity(AnnealerKind::CimFpga);
        assert_eq!(b.exp_evaluations, 1);
        assert_eq!(b.bg_updates, 0);
    }

    #[test]
    fn run_cost_scales_linearly_with_iterations() {
        let model = CostModel::paper_22nm(800, 4);
        let p = IterationProfile::paper(800);
        let one = p.run_energy(AnnealerKind::InSitu, &model, 1).total();
        let many = p.run_energy(AnnealerKind::InSitu, &model, 700).total();
        assert!((many / one - 700.0).abs() < 1e-6);
    }

    #[test]
    fn tiled_profile_counts_activated_tiles() {
        // 800 spins on 256-row tiles → a 4×4 grid. The in-situ iteration
        // touches its 2 flipped stripes across all 4 row bands; the
        // baselines light the whole grid.
        let p = IterationProfile::paper_tiled(800, 256);
        assert_eq!(p.tile_grid(), (4, 4));
        assert_eq!(p.activated_tiles(AnnealerKind::InSitu), 8);
        assert_eq!(p.activated_tiles(AnnealerKind::CimAsic), 16);
        let a = p.activity(AnnealerKind::InSitu);
        assert_eq!(a.tiles_activated, 8);
        assert_eq!(a.bg_updates, 8);
        // Monolithic mapping counts as a single tile.
        let mono = IterationProfile::paper(800);
        assert_eq!(mono.tile_grid(), (1, 1));
        assert_eq!(mono.activity(AnnealerKind::InSitu).tiles_activated, 1);
        assert_eq!(mono.activity(AnnealerKind::InSitu).bg_updates, 1);
    }

    #[test]
    fn sb_step_cost_scales_with_input_passes() {
        // A bSB step with a 4-bit input DAC issues 4 full-array reads,
        // a dSB step one — so its energy/latency are exactly 4× dSB's,
        // and neither pays for exponentials or BG refreshes.
        let model = CostModel::paper_22nm(800, 4);
        let p = IterationProfile::paper(800);
        let dsb = p.sb_step_activity(1);
        let bsb = p.sb_step_activity(4);
        assert_eq!(dsb.exp_evaluations, 0);
        assert_eq!(dsb.bg_updates, 0);
        assert_eq!(bsb.array_ops, 4 * dsb.array_ops);
        assert_eq!(bsb.adc_conversions, 4 * dsb.adc_conversions);
        let e_dsb = p.sb_run_energy(&model, 100, 1).total();
        let e_bsb = p.sb_run_energy(&model, 100, 4).total();
        assert!((e_bsb / e_dsb - 4.0).abs() < 1e-9, "energy ratio");
        let t_dsb = p.sb_run_time(&model, 100, 1).total();
        let t_bsb = p.sb_run_time(&model, 100, 4).total();
        assert!((t_bsb / t_dsb - 4.0).abs() < 1e-9, "time ratio");
        // An SB step reads the whole array, like a direct-E baseline
        // pass — dearer than the t-column in-situ sense.
        let in_situ = p.iteration_energy(AnnealerKind::InSitu, &model).total();
        assert!(e_dsb / 100.0 > in_situ, "full read > per-flip sense");
    }

    #[test]
    fn tiled_cost_model_cuts_baseline_wire_energy() {
        // Tile-scale lines are shorter, so the direct-E baseline (which
        // drives every stripe) still pays per-stripe row segments but at
        // tile-length CV² — net cheaper wires than one monolithic array.
        let n = 2000;
        let mono_model = CostModel::paper_22nm(n, 4);
        let tiled_model = CostModel::paper_22nm_tiled(n, 4, 256);
        assert!(tiled_model.row_toggle.energy < mono_model.row_toggle.energy);
        let mono = IterationProfile::paper(n);
        let tiled = IterationProfile::paper_tiled(n, 256);
        let e_mono = mono.iteration_energy(AnnealerKind::CimAsic, &mono_model);
        let e_tiled = tiled.iteration_energy(AnnealerKind::CimAsic, &tiled_model);
        assert!(
            e_tiled.wires < e_mono.wires,
            "tiled {} vs mono {}",
            e_tiled.wires,
            e_mono.wires
        );
        // ADC energy (activity-count based) is unchanged by the mapping.
        assert_eq!(e_tiled.adc, e_mono.adc);
    }

    #[test]
    fn cost_model_follows_the_profile_geometry() {
        let mono = IterationProfile::paper(800);
        assert_eq!(mono.cost_model(), CostModel::paper_22nm(800, 4));
        let tiled = IterationProfile {
            quant_bits: 6,
            ..IterationProfile::paper_tiled(800, 256)
        };
        assert_eq!(tiled.cost_model(), CostModel::paper_22nm_tiled(800, 6, 256));
        assert_ne!(tiled.cost_model(), mono.cost_model());
    }

    #[test]
    fn batched_profile_scales_grid_not_per_instance_activity() {
        let solo = IterationProfile::paper_tiled(800, 256);
        let batched = solo.batched(4);
        // Per-instance activity is mapping-invariant…
        assert_eq!(
            solo.activity(AnnealerKind::InSitu),
            batched.activity(AnnealerKind::InSitu)
        );
        // …while the shared grid grows with the batch.
        assert_eq!(solo.grid_tiles(), 16);
        assert_eq!(batched.grid_tiles(), 64);
        // A fully batched cycle keeps the activated fraction (8/16); the
        // same grid serving one instance per cycle would sit at 8/64.
        let util = batched.batch_utilization(AnnealerKind::InSitu);
        assert!((util - 0.5).abs() < 1e-12, "util={util}");
        assert_eq!(
            solo.batch_utilization(AnnealerKind::InSitu),
            util,
            "full batching restores the solo activated fraction"
        );
    }

    #[test]
    fn labels_and_complexity() {
        assert_eq!(AnnealerKind::InSitu.label(), "This Work");
        assert_eq!(AnnealerKind::InSitu.complexity(), "O(n)");
        assert_eq!(AnnealerKind::CimFpga.complexity(), "O(n^2)");
        assert_eq!(AnnealerKind::all().len(), 3);
    }
}
