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
//! in the hardware time of roughly one. Nothing physical is shared, so
//! every replica programs and anneals against its own
//! [`TiledCrossbar`](fecim_crossbar::TiledCrossbar), through the same
//! backends an unbatched tiled solve uses.
//!
//! In [`Fidelity::Ideal`](fecim_crossbar::Fidelity::Ideal) mode each
//! replica's trajectory is bit-identical to the same trial run unbatched
//! through [`CimAnnealer::with_tiled_device_in_loop`] — batching is a
//! placement change, not an algorithm change — which is exactly what the
//! equivalence tests pin.

use serde::{Deserialize, Serialize};

use fecim_anneal::{Ensemble, TiledBackend};
use fecim_crossbar::{CrossbarConfig, TileGrid};
use fecim_hwcost::{energy_of, time_of, CostModel, ExpUnit};
#[cfg(test)]
use fecim_ising::IsingError;
use fecim_ising::{CopProblem, Coupling, IsingModel, SpinVector};

use crate::annealer::{CimAnnealer, SolveReport};
use crate::solver::{Solver, INIT_SEED_SALT};

/// A solver that can anneal one batched replica on its own array — the
/// hook that lets the batched route serve both the CiM in-situ annealer
/// (incremental-E sensing through a [`TiledBackend`]) and the SB family
/// (full-vector MVM reads) through one code path.
pub(crate) trait BatchedSolve: Solver {
    /// Program the trial's array from `array = (config, tile_rows)` and
    /// run one trial on it; `initial` is the embedded start
    /// configuration.
    fn anneal_batched(
        &self,
        coupling: &fecim_ising::CsrCoupling,
        initial: SpinVector,
        array: (CrossbarConfig, usize),
        seed: u64,
    ) -> fecim_anneal::RunResult;
}

impl BatchedSolve for CimAnnealer {
    fn anneal_batched(
        &self,
        coupling: &fecim_ising::CsrCoupling,
        initial: SpinVector,
        (config, tile_rows): (CrossbarConfig, usize),
        seed: u64,
    ) -> fecim_anneal::RunResult {
        let mut backend = TiledBackend::new(coupling, initial, config, tile_rows);
        self.anneal_with_backend(coupling, &mut backend, seed)
    }
}

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

/// Outcome of one shared-grid batched ensemble: the per-replica reports
/// (trial order, bit-identical to unbatched runs in Ideal fidelity) plus
/// the shared-grid summary.
#[derive(Debug, Clone)]
pub struct BatchedEnsembleOutcome {
    /// One report per ensemble trial, in trial order.
    pub reports: Vec<SolveReport>,
    /// Grid-level sharing summary.
    pub grid: BatchGridSummary,
}

/// Solve `ensemble.trials()` device-in-the-loop replicas of `problem` on
/// one shared physical grid: encodes the problem once, then delegates to
/// [`batched_ensemble_prepared`]. Per-trial seeds and the
/// initial-configuration draw match
/// [`Solver::anneal_model`](crate::Solver::anneal_model), so in Ideal
/// fidelity trial `i` reproduces
/// `solver.with_tiled_device_in_loop(config, tile_rows)` solving the
/// same problem with seed `base_seed + i`, bit for bit.
///
/// # Errors
///
/// Propagates encoding errors from the problem's Ising transformation.
///
/// # Panics
///
/// Panics if `ensemble` plans zero trials or `tile_rows == 0`.
#[cfg(test)] // production callers go through `Session`'s prepared route
pub(crate) fn batched_ensemble(
    solver: &dyn BatchedSolve,
    problem: &(dyn CopProblem + Sync),
    config: CrossbarConfig,
    tile_rows: usize,
    ensemble: &Ensemble,
) -> Result<BatchedEnsembleOutcome, IsingError> {
    let model = problem.to_ising()?;
    let quadratic = model.to_quadratic_only();
    Ok(batched_ensemble_prepared(
        solver, problem, &model, &quadratic, config, tile_rows, ensemble, None,
    ))
}

/// One shared-grid ensemble over an already-encoded model; the
/// [`Session`](crate::Session) batched route calls this with the
/// encoding its `prepare` step produced, one grid per `instances`-wide
/// chunk of the run plan — no re-encoding per chunk.
#[allow(clippy::too_many_arguments)] // pub(crate) plumbing shared by two call sites
pub(crate) fn batched_ensemble_prepared(
    solver: &dyn BatchedSolve,
    problem: &(dyn CopProblem + Sync),
    model: &IsingModel,
    quadratic: &IsingModel,
    config: CrossbarConfig,
    tile_rows: usize,
    ensemble: &Ensemble,
    start: Option<&SpinVector>,
) -> BatchedEnsembleOutcome {
    assert!(ensemble.trials() > 0, "need at least one trial");
    let cost_model = CostModel::paper_22nm_tiled(model.dimension(), config.quant_bits, tile_rows);
    let reports: Vec<SolveReport> = ensemble.run(|seed| {
        batched_trial_report(
            solver,
            problem,
            model,
            quadratic,
            (&config, tile_rows),
            &cost_model,
            seed,
            start,
        )
    });

    // The replicas' placement: side by side on one grid.
    let mut grid = TileGrid::new(tile_rows);
    for _ in 0..ensemble.trials() {
        grid.try_admit(quadratic.dimension(), usize::MAX);
    }
    let mut total_energy = 0.0f64;
    let mut batch_time = 0.0f64;
    let mut serial_time = 0.0f64;
    let mut activated = 0u64;
    let mut worst_reads = 0u64;
    for report in &reports {
        total_energy += report.energy.total();
        batch_time = batch_time.max(report.time.total());
        serial_time += report.time.total();
        if let Some(stats) = &report.run.activity {
            activated += stats.tiles_activated;
            worst_reads = worst_reads.max(stats.array_ops);
        }
    }
    // Lockstep estimate: replicas iterate concurrently, so the grid runs
    // for the busiest replica's read count and every replica's activated
    // tiles land inside that window.
    let capacity = worst_reads * grid.physical_tiles() as u64;
    let summary = BatchGridSummary {
        instances: ensemble.trials(),
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
            ensemble.trials() as f64 / batch_time
        } else {
            0.0
        },
    };
    BatchedEnsembleOutcome {
        reports,
        grid: summary,
    }
}

/// One device-in-the-loop trial of `problem` as a batched replica: the
/// inner unit behind [`batched_ensemble_prepared`] *and* the scheduler's
/// live-grid trials (`fecim-serve`, through
/// [`PreparedJob::run_trial`](crate::PreparedJob::run_trial)), so both
/// execute replicas identically. The replica programs its own array from
/// [`CrossbarConfig::for_trial`], so device-accurate results are a pure
/// function of `(request, trial seed)` — invariant to chunking,
/// live-grid admission order, and scheduler worker count. Per-trial
/// seeding and the initial-configuration draw match
/// [`Solver::anneal_model`](crate::Solver::anneal_model); in Ideal
/// fidelity the trial is bit-identical to
/// `solver.with_tiled_device_in_loop(config, tile_rows)` solving the
/// same problem with the same seed. The replica is priced at tile-scale
/// geometry from its own measured activity.
#[allow(clippy::too_many_arguments)] // pub(crate) plumbing shared by two call sites
pub(crate) fn batched_trial_report(
    solver: &dyn BatchedSolve,
    problem: &dyn CopProblem,
    model: &IsingModel,
    quadratic: &IsingModel,
    (config, tile_rows): (&CrossbarConfig, usize),
    cost_model: &CostModel,
    seed: u64,
    start: Option<&SpinVector>,
) -> SolveReport {
    use rand::SeedableRng;
    let coupling = quadratic.couplings();
    let initial = match start {
        // Warm start: every replica anneals from the request's supplied
        // spins (embedded into the ancilla space when fields exist).
        Some(start) => crate::solver::embed_start(model, start),
        None => {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ INIT_SEED_SALT);
            SpinVector::random(coupling.dimension(), &mut rng)
        }
    };
    let run = solver.anneal_batched(coupling, initial, (config.for_trial(seed), tile_rows), seed);

    let spins = if model.is_quadratic_only() {
        run.best_spins.clone()
    } else {
        model.project_from_quadratic(&run.best_spins)
    };
    let objective = problem.native_objective(&spins);
    let feasible = problem.is_feasible(&spins);
    let stats = run
        .activity
        // audit:allow(panic-path): batched trials always run on a crossbar backend, which always populates `activity`; a None is a backend bug that must abort, not report zero cost
        .expect("batched backends always record activity");
    let energy = energy_of(&stats, cost_model, ExpUnit::Asic);
    let time = time_of(&stats, cost_model, ExpUnit::Asic);
    SolveReport {
        kind: solver.kind(),
        best_energy: run.best_energy,
        objective: Some(objective),
        feasible,
        best_spins: spins,
        energy,
        time,
        run,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fecim_ising::MaxCut;

    fn ring_problem(n: usize) -> MaxCut {
        MaxCut::new(n, (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect()).unwrap()
    }

    #[test]
    fn batched_ensemble_matches_unbatched_tiled_solves_bit_for_bit() {
        let problem = ring_problem(24);
        let solver = CimAnnealer::new(150).with_flips(1);
        let ensemble = Ensemble::new(3, 41);
        let batched = batched_ensemble(
            &solver,
            &problem,
            CrossbarConfig::paper_defaults(),
            8,
            &ensemble,
        )
        .expect("ring encodes");
        assert_eq!(batched.reports.len(), 3);
        let unbatched_solver = CimAnnealer::new(150)
            .with_flips(1)
            .with_tiled_device_in_loop(CrossbarConfig::paper_defaults(), 8);
        for (i, seed) in ensemble.seeds().enumerate() {
            let solo = unbatched_solver
                .solve(&problem, seed)
                .expect("ring encodes");
            assert_eq!(
                batched.reports[i].best_energy, solo.best_energy,
                "trial {i}"
            );
            assert_eq!(batched.reports[i].best_spins, solo.best_spins, "trial {i}");
            assert_eq!(
                batched.reports[i].run.accepted, solo.run.accepted,
                "trial {i}"
            );
        }
    }

    #[test]
    fn batch_summary_reports_sharing_win() {
        let problem = ring_problem(16);
        let solver = CimAnnealer::new(80).with_flips(1);
        let ensemble = Ensemble::new(4, 7);
        let out = batched_ensemble(
            &solver,
            &problem,
            CrossbarConfig::paper_defaults(),
            4,
            &ensemble,
        )
        .expect("ring encodes");
        let g = &out.grid;
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

    #[test]
    fn batched_ensemble_propagates_encoding_errors() {
        use fecim_ising::{IsingModel, ObjectiveSense, SpinVector};

        #[derive(Debug)]
        struct Unencodable;
        impl CopProblem for Unencodable {
            fn spin_count(&self) -> usize {
                4
            }
            fn to_ising(&self) -> Result<IsingModel, IsingError> {
                Err(IsingError::InvalidProblem("no Ising form".into()))
            }
            fn native_objective(&self, _: &SpinVector) -> f64 {
                0.0
            }
            fn objective_sense(&self) -> ObjectiveSense {
                ObjectiveSense::Maximize
            }
            fn is_feasible(&self, _: &SpinVector) -> bool {
                true
            }
            fn name(&self) -> &str {
                "unencodable"
            }
        }

        let solver = CimAnnealer::new(10);
        let err = batched_ensemble(
            &solver,
            &Unencodable,
            CrossbarConfig::paper_defaults(),
            4,
            &Ensemble::new(2, 1),
        )
        .expect_err("must propagate, not panic");
        assert!(matches!(err, IsingError::InvalidProblem(_)));
    }
}
