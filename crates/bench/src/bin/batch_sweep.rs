//! Multi-problem batching sweep: solve throughput vs batch size when an
//! ensemble of device-in-the-loop replicas shares ONE physical tile grid
//! (block-diagonal placement, concurrent conversion on disjoint ADC
//! banks — see `fecim_crossbar::TileGrid`).
//!
//! For every batch size the sweep reports simulated-hardware solves/sec
//! (batch finishes with its slowest replica), the serial-vs-batched
//! hardware speedup, grid utilization, and host wall-clock solves/sec —
//! plus a bit-identity check against the unbatched tiled solver, since
//! Ideal-fidelity batching is a placement change, not an algorithm
//! change. Every run is submitted as a `SolveRequest` with a
//! `BackendPlan::Batched` plan and executed by one `Session`.
//!
//! With `--noisy` the grid runs in `Fidelity::DeviceAccurate` with
//! typical variation and read noise: the bit-identity check then pins
//! trial 0 across batch sizes (each trial programs its own array from
//! the trial seed, so chunking must not change results).
//!
//! `cargo run --release -p fecim-bench --bin batch_sweep \
//!     [--scale quick|paper] [--batch-sizes 1,2,4,8] [--tile-rows N] [--noisy]`

use fecim::{BackendPlan, CimAnnealer, ProblemSpec, RunPlan, Session, SolveRequest, SolverSpec};
use fecim_anneal::{multi_start_local_search, success_rate};
use fecim_crossbar::Fidelity;
use fecim_gset::{GeneratorConfig, GsetFamily};
use fecim_ising::CopProblem;

fn main() {
    let scale = fecim_bench::parse_scale();
    let batch_sizes = fecim_bench::parse_batch_sizes();
    let (n, degree, iterations, default_tile_rows): (usize, f64, usize, usize) = match scale {
        fecim_bench::HarnessScale::Quick => (200, 8.0, 600, 64),
        fecim_bench::HarnessScale::Paper => (800, 24.0, 700, 256),
    };
    let tile_rows = fecim_bench::parse_tile_rows().unwrap_or(default_tile_rows);
    let graph = GeneratorConfig::new(n, 0xBA7C)
        .with_family(GsetFamily::RandomUnit)
        .with_mean_degree(degree)
        .generate();
    let problem = graph.to_max_cut();
    let model = problem
        .to_ising()
        .unwrap_or_else(|e| fecim_bench::fail_exit(&e));
    let (_, ref_energy) = multi_start_local_search(model.couplings(), 8, 2025);
    let reference = problem.cut_from_energy(ref_energy);
    let spec = ProblemSpec::from_graph(&graph);
    let solver = SolverSpec::Cim(CimAnnealer::new(iterations));
    let noisy = fecim_bench::parse_noisy();
    let session = if noisy {
        let mut cfg = fecim_crossbar::CrossbarConfig::paper_defaults();
        cfg.fidelity = Fidelity::DeviceAccurate;
        cfg.variation = fecim_device::VariationConfig::typical();
        Session::new().with_crossbar(cfg)
    } else {
        Session::new()
    };

    // Bit-identity reference. Ideal: the first trial solved unbatched
    // through the same tiles. Noisy: the first batch size's trial 0 —
    // per-trial silicon makes it chunking-invariant, so later batch
    // sizes must reproduce it exactly.
    let mut baseline = if noisy {
        None
    } else {
        let solo = session
            .run(
                &SolveRequest::new(spec.clone(), solver.clone())
                    .with_backend(BackendPlan::DeviceInLoop {
                        fidelity: Fidelity::Ideal,
                        tile_rows: Some(tile_rows),
                    })
                    .with_run(RunPlan::Single { seed: 2025 }),
            )
            .unwrap_or_else(|e| fecim_bench::fail_exit(&e));
        Some(solo.reports[0].best_energy)
    };

    let mode = if noisy { "device-noisy" } else { "ideal" };
    println!(
        "=== batch sweep ({mode}): n={n}, {iterations} iters, {tile_rows}-row tiles, ref cut {reference:.1} ===\n"
    );
    println!(
        "{:>6} {:>10} {:>12} {:>10} {:>12} {:>12} {:>14} {:>12}",
        "batch",
        "grid",
        "mean cut",
        "success",
        "hw inst/s",
        "hw speedup",
        "utilization",
        "wall inst/s"
    );

    let mut rows = Vec::new();
    for &batch in &batch_sizes {
        let request = SolveRequest::new(spec.clone(), solver.clone())
            .with_backend(BackendPlan::Batched {
                tile_rows,
                instances: batch,
            })
            .with_run(RunPlan::Ensemble {
                trials: batch,
                base_seed: 2025,
                threads: None,
            })
            .with_reference(reference);
        let started = std::time::Instant::now();
        let outcome = session
            .run(&request)
            .unwrap_or_else(|e| fecim_bench::fail_exit(&e));
        let wall = started.elapsed().as_secs_f64();
        match baseline {
            Some(expected) => assert_eq!(
                outcome.reports[0].best_energy, expected,
                "batched trial 0 (seed 2025) must be bit-identical across placements"
            ),
            None => baseline = Some(outcome.reports[0].best_energy),
        }
        let cuts: Vec<f64> = outcome
            .normalized_objectives()
            .expect("request carries a reference");
        let mean_cut = cuts.iter().sum::<f64>() / cuts.len() as f64;
        let sr = success_rate(&cuts, 0.9, true);
        let g = &outcome.grids[0];
        let hw_speedup = if g.batch_time > 0.0 {
            g.serial_time / g.batch_time
        } else {
            0.0
        };
        let wall_per_inst = batch as f64 / wall.max(1e-9);
        println!(
            "{batch:>6} {:>10} {mean_cut:>12.4} {:>9.0}% {:>12.1} {hw_speedup:>11.2}x {:>13.1}% {wall_per_inst:>12.2}",
            format!("{}x{}", g.grid.0, g.grid.1),
            sr * 100.0,
            g.instances_per_second,
            g.concurrent_utilization * 100.0,
        );
        rows.push(serde_json::json!({
            "batch": batch,
            "grid_bands": g.grid.0,
            "grid_stripes": g.grid.1,
            "physical_tiles": g.physical_tiles,
            "mean_normalized_cut": mean_cut,
            "success_rate": sr,
            "hw_instances_per_second": g.instances_per_second,
            "hw_speedup_vs_serial": hw_speedup,
            "concurrent_utilization": g.concurrent_utilization,
            "wall_instances_per_second": wall_per_inst,
            "total_energy_j": g.total_energy,
        }));
    }
    if noisy {
        println!("\nnoisy trial 0 bit-identical across batch sizes: yes");
    } else {
        println!("\nbatched trial 0 bit-identical to unbatched tiled solve: yes");
    }

    fecim_bench::write_artifact(
        "batch_sweep",
        &serde_json::json!({
            "spins": n,
            "iterations": iterations,
            "tile_rows": tile_rows,
            "mode": mode,
            "reference_cut": reference,
            "rows": rows,
        }),
    );
}
