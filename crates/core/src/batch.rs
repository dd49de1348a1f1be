//! Shared-grid batched solving: a whole device-in-the-loop ensemble on
//! ONE physical tile grid.
//!
//! A single in-situ iteration activates only the flipped stripes of one
//! instance's block; everything else idles. The batched route (a
//! [`SolveRequest`](crate::SolveRequest) with
//! [`BackendPlan::Batched`](crate::BackendPlan::Batched) through
//! [`Session::run`](crate::Session::run)) turns that slack into
//! throughput: the ensemble's replicas are placed side by side on one
//! [`TileGrid`] (block-diagonal along the stripe axis) and convert
//! concurrently on disjoint ADC banks — the grid serves `trials` solves
//! in the hardware time of roughly one.
//!
//! Nothing physical is shared, so a batched trial IS a tiled
//! device-in-the-loop trial on its own silicon: the session runs the
//! job's one solver through the same trial pipeline as every other
//! route, measuring on a [`DeviceArray`](crate::DeviceArray) programmed
//! from `config.for_trial(seed)` at the plan's `tile_rows`. Batching is
//! a placement change, not an algorithm change; this module only
//! summarizes the placement.

use serde::{Deserialize, Serialize};

use fecim_crossbar::TileGrid;

use crate::annealer::SolveReport;

/// Grid-level summary of one batched ensemble solve.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct BatchGridSummary {
    /// Replicas that shared the grid.
    pub instances: usize,
    /// Physical tile height of every block.
    pub tile_rows: usize,
    /// Shared-grid dimensions `(row_bands, column_stripes)`.
    pub grid: (usize, usize),
    /// Physical tiles the shared grid instantiates.
    pub physical_tiles: usize,
    /// Fraction of the grid's tile-cycles activated when every replica
    /// iterates concurrently (lockstep estimate: the replicas' summed
    /// activations over the grid's capacity for the longest replica's
    /// read count).
    pub concurrent_utilization: f64,
    /// Total hardware energy across all replicas, joules (attributed
    /// per replica in the individual [`SolveReport`]s).
    pub total_energy: f64,
    /// Hardware latency of the batch: replicas run concurrently on
    /// disjoint banks, so the batch finishes with its slowest replica.
    pub batch_time: f64,
    /// Hardware latency if the same grid served the replicas one at a
    /// time (the unbatched alternative): the sum of replica latencies.
    pub serial_time: f64,
    /// Solves per second of simulated hardware time under batching.
    pub instances_per_second: f64,
}

impl BatchGridSummary {
    /// Summarize the replicas in `reports` (trial order) placed side by
    /// side on one grid of `tile_rows`-row tiles, each replica a block
    /// of `dimension` quadratic spins.
    pub(crate) fn of(reports: &[SolveReport], tile_rows: usize, dimension: usize) -> Self {
        let mut grid = TileGrid::new(tile_rows);
        for _ in reports {
            grid.try_admit(dimension, usize::MAX);
        }
        let mut total_energy = 0.0f64;
        let mut batch_time = 0.0f64;
        let mut serial_time = 0.0f64;
        let mut activated = 0u64;
        let mut worst_reads = 0u64;
        for report in reports {
            total_energy += report.energy.total();
            batch_time = batch_time.max(report.time.total());
            serial_time += report.time.total();
            if let Some(stats) = &report.run.activity {
                activated += stats.tiles_activated;
                worst_reads = worst_reads.max(stats.array_ops);
            }
        }
        // Lockstep estimate: replicas iterate concurrently, so the grid
        // runs for the busiest replica's read count and every replica's
        // activated tiles land inside that window.
        let capacity = worst_reads * grid.physical_tiles() as u64;
        BatchGridSummary {
            instances: reports.len(),
            tile_rows,
            grid: grid.grid(),
            physical_tiles: grid.physical_tiles(),
            concurrent_utilization: if capacity == 0 {
                0.0
            } else {
                activated as f64 / capacity as f64
            },
            total_energy,
            batch_time,
            serial_time,
            instances_per_second: if batch_time > 0.0 {
                reports.len() as f64 / batch_time
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{
        BackendPlan, CimAnnealer, ProblemSpec, RunPlan, Session, SolveRequest, SolverSpec,
    };

    #[test]
    fn batch_summary_reports_sharing_win() {
        let request = SolveRequest::new(
            ProblemSpec::MaxCut {
                vertices: 16,
                edges: (0..16).map(|i| (i, (i + 1) % 16, 1.0)).collect(),
            },
            SolverSpec::Cim(CimAnnealer::new(80).with_flips(1)),
        )
        .with_backend(BackendPlan::Batched {
            tile_rows: 4,
            instances: 4,
        })
        .with_run(RunPlan::Ensemble {
            trials: 4,
            base_seed: 7,
            threads: None,
        });
        let out = Session::new().run(&request).expect("ring encodes");
        assert_eq!(out.grids.len(), 1);
        let g = &out.grids[0];
        assert_eq!(g.instances, 4);
        assert_eq!(g.grid.0, 4);
        assert_eq!(g.grid.1, 16, "4 replicas × 4 stripes each");
        assert_eq!(g.physical_tiles, 64);
        // Concurrency: the batch finishes with its slowest replica, far
        // sooner than serving replicas one at a time.
        assert!(g.batch_time > 0.0);
        assert!(
            g.serial_time > 3.0 * g.batch_time,
            "serial {} vs batch {}",
            g.serial_time,
            g.batch_time
        );
        assert!(g.instances_per_second > 0.0);
        assert!(g.concurrent_utilization > 0.0 && g.concurrent_utilization <= 1.0);
        // Per-replica attribution survives batching.
        for r in &out.reports {
            assert!(r.energy.total() > 0.0);
            assert!(r.run.activity.is_some());
        }
        let attributed: f64 = out.reports.iter().map(|r| r.energy.total()).sum();
        assert!((attributed - g.total_energy).abs() < 1e-12 * g.total_energy.abs().max(1.0));
    }
}
