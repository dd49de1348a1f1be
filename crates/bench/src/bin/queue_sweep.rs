//! Scheduled-throughput sweep: the `fecim-serve` scheduler digesting a
//! mixed arrival trace — batched jobs sharing live grids, analytic
//! ensembles, raw QUBO/Ising payloads — across worker counts and
//! priority distributions.
//!
//! Reported per worker count:
//!
//! * wall-clock jobs/sec and trials/sec of the whole trace;
//! * p50/p99 job sojourn latency (staged start → terminal response),
//!   the serving-side saturation curve: p99 collapses as workers are
//!   added until grid capacity and priority inversions bind;
//! * total simulated hardware time (worker count changes wall-clock
//!   only — the hardware cost attribution is scheduling-invariant);
//! * live-grid saturation: admissions, grid utilization, peak
//!   concurrent instances (the batching headroom argument of the
//!   paper's array-level parallelism, now across *heterogeneous* jobs).
//!
//! Priorities only reorder work, they never change per-job results —
//! in any fidelity (counter-based read noise plus per-trial silicon
//! keep device-accurate trials placement-independent). The completion
//! order column is where the priority distribution shows up, and the
//! sweep asserts per-job best energies are identical at every worker
//! count.
//!
//! `cargo run --release -p fecim-bench --bin queue_sweep \
//!     [--scale quick|paper] [--workers 1,2,4] [--repeat N] [--noisy]`
//!
//! `--noisy` programs every grid in `Fidelity::DeviceAccurate` with
//! typical variation and read noise. `--repeat N` offers the trace N
//! times (distinct seeds per copy) to push the queue toward
//! saturation without changing any single job's results.
//!
//! A scaled-down deterministic version of this trace (1 worker, staged
//! start) is pinned byte-for-byte in `tests/goldens/queue_sweep.json`.

use std::time::Instant;

use fecim::{BackendPlan, CimAnnealer, ProblemSpec, RunPlan, SolveRequest, SolverSpec};
use fecim_gset::{GeneratorConfig, GsetFamily};
use fecim_serve::{Scheduler, SchedulerConfig, SubmitOptions};

/// The arrival mix: `(label, request, priority)` triples, deterministic
/// from the scale.
fn trace(scale: fecim_bench::HarnessScale) -> Vec<(String, SolveRequest, i64)> {
    let (n_big, n_small, iterations, trials): (usize, usize, usize, usize) = match scale {
        fecim_bench::HarnessScale::Quick => (48, 24, 400, 4),
        fecim_bench::HarnessScale::Paper => (200, 96, 1000, 10),
    };
    let ring = |n: usize| ProblemSpec::MaxCut {
        vertices: n,
        edges: (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect(),
    };
    let cim = |iters: usize| SolverSpec::Cim(CimAnnealer::new(iters).with_flips(1));
    let mut jobs = Vec::new();
    // Batched jobs of two sizes share one live grid (tile height 8).
    for (i, priority) in [(0u64, 0i64), (1, 5), (2, 0), (3, -3)] {
        let n = if i % 2 == 0 { n_big } else { n_small };
        jobs.push((
            format!("batched-{i}"),
            SolveRequest::new(ring(n), cim(iterations))
                .with_backend(BackendPlan::Batched {
                    tile_rows: 8,
                    instances: 2,
                })
                .with_run(RunPlan::Ensemble {
                    trials,
                    base_seed: 100 + i,
                    threads: None,
                }),
            priority,
        ));
    }
    // Analytic ensembles on generated instances.
    for (i, priority) in [(0u64, 2i64), (1, 0)] {
        let graph = GeneratorConfig::new(n_big, 7 + i)
            .with_family(GsetFamily::RandomUnit)
            .with_mean_degree(6.0);
        jobs.push((
            format!("analytic-{i}"),
            SolveRequest::new(ProblemSpec::Generated(graph), cim(iterations)).with_run(
                RunPlan::Ensemble {
                    trials,
                    base_seed: 200 + i,
                    threads: None,
                },
            ),
            priority,
        ));
    }
    // Raw payloads, straight off the wire.
    jobs.push((
        "qubo".into(),
        SolveRequest::new(
            ProblemSpec::Qubo {
                q: vec![
                    vec![-1.0, 2.0, 0.0],
                    vec![0.0, -1.0, 2.0],
                    vec![0.0, 0.0, -1.0],
                ],
            },
            cim(iterations),
        )
        .with_run(RunPlan::Single { seed: 3 }),
        7,
    ));
    let n = n_small;
    let mut j = vec![vec![0.0; n]; n];
    for (a, b) in (0..n).map(|i| (i, (i + 1) % n)) {
        j[a][b] = 0.5;
        j[b][a] = 0.5;
    }
    jobs.push((
        "ising".into(),
        SolveRequest::new(ProblemSpec::Ising { h: vec![0.0; n], j }, cim(iterations)).with_run(
            RunPlan::Ensemble {
                trials: 2,
                base_seed: 400,
                threads: None,
            },
        ),
        1,
    ));
    jobs
}

/// The trace offered `repeat` times, each copy reseeded so the queue
/// fills without any copy's results depending on the others.
fn offered_load(
    scale: fecim_bench::HarnessScale,
    repeat: usize,
) -> Vec<(String, SolveRequest, i64)> {
    let mut jobs = Vec::new();
    for copy in 0..repeat {
        for (label, mut request, priority) in trace(scale) {
            if copy > 0 {
                request.run = match request.run {
                    RunPlan::Ensemble {
                        trials,
                        base_seed,
                        threads,
                    } => RunPlan::Ensemble {
                        trials,
                        base_seed: base_seed + 1000 * copy as u64,
                        threads,
                    },
                    RunPlan::Single { seed } => RunPlan::Single {
                        seed: seed + 1000 * copy as u64,
                    },
                };
            }
            jobs.push((format!("{label}/{copy}"), request, priority));
        }
    }
    jobs
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn main() {
    let scale = fecim_bench::parse_scale();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workers_list =
        fecim_bench::workers_from_args(&args).unwrap_or_else(|msg| fecim_bench::usage_exit(&msg));
    let noisy = fecim_bench::parse_noisy();
    let repeat = fecim_bench::parse_repeat();
    let mode = if noisy { "device-noisy" } else { "ideal" };

    println!(
        "=== queue_sweep ({mode}, offered load ×{repeat}): scheduled throughput vs worker \
         count ===\n"
    );
    println!(
        "{:>8} {:>8} {:>10} {:>12} {:>10} {:>10} {:>12} {:>10} {:>8} {:>6}",
        "workers",
        "jobs",
        "jobs/s",
        "trials/s",
        "p50 lat",
        "p99 lat",
        "hw time",
        "grid util",
        "peak",
        "adm"
    );
    let mut energy_baseline: Option<Vec<(String, f64)>> = None;
    for &workers in &workers_list {
        let jobs = offered_load(scale, repeat);
        let mut config = SchedulerConfig::workers(workers)
            .with_grid_stripes(32)
            .start_paused();
        if noisy {
            let mut cfg = fecim_crossbar::CrossbarConfig::paper_defaults();
            cfg.fidelity = fecim_crossbar::Fidelity::DeviceAccurate;
            cfg.variation = fecim_device::VariationConfig::typical();
            config = config.with_crossbar(cfg);
        }
        let scheduler = Scheduler::with_config(config);
        let handles: Vec<_> = jobs
            .into_iter()
            .map(|(label, request, priority)| {
                let handle =
                    scheduler.submit(request, SubmitOptions::priority(priority).with_tag(&label));
                (label, handle)
            })
            .collect();
        let job_count = handles.len();
        let start = Instant::now();
        // One waiter per job records its sojourn latency (staged start
        // → terminal response) the moment it settles — waiting in
        // submission order would overstate early finishers.
        let waiters: Vec<_> = handles
            .into_iter()
            .map(|(label, handle)| {
                std::thread::spawn(move || {
                    let response = handle.wait();
                    (label, handle, response, start.elapsed().as_secs_f64())
                })
            })
            .collect();
        scheduler.resume();
        let mut trials = 0usize;
        let mut hw_time = 0.0f64;
        let mut latencies: Vec<f64> = Vec::new();
        let mut order: Vec<(u64, String)> = Vec::new();
        let mut energies: Vec<(String, f64)> = Vec::new();
        for waiter in waiters {
            let (label, handle, response, latency) = waiter.join().expect("waiter joins");
            let response = response.unwrap_or_else(|e| fecim_bench::fail_exit(&e));
            trials += response.reports.len();
            hw_time += response.summary.total_time;
            latencies.push(latency);
            order.push((handle.finished_event().expect("finished"), label.clone()));
            for report in &response.reports {
                energies.push((label.clone(), report.best_energy));
            }
        }
        // Scheduling must never leak into results, in any fidelity.
        match &energy_baseline {
            Some(expected) => assert_eq!(
                &energies, expected,
                "per-job results drifted at {workers} workers"
            ),
            None => energy_baseline = Some(energies),
        }
        let elapsed = start.elapsed().as_secs_f64();
        latencies.sort_by(|a, b| a.total_cmp(b));
        let grids = scheduler.grid_stats();
        let (util, peak, admissions) = grids
            .first()
            .map(|g| {
                (
                    g.grid_utilization,
                    g.peak_concurrent_instances,
                    g.admissions,
                )
            })
            .unwrap_or((0.0, 0, 0));
        println!(
            "{:>8} {:>8} {:>10.2} {:>12.1} {:>8.1}ms {:>8.1}ms {:>10.2}us {:>10.4} {:>8} {:>6}",
            workers,
            job_count,
            job_count as f64 / elapsed,
            trials as f64 / elapsed,
            percentile(&latencies, 0.5) * 1e3,
            percentile(&latencies, 0.99) * 1e3,
            hw_time * 1e6,
            util,
            peak,
            admissions
        );
        order.sort();
        let sequence: Vec<&str> = order.iter().map(|(_, l)| l.as_str()).collect();
        println!("         completion order: {}\n", sequence.join(" → "));
        scheduler.join();
    }
    println!(
        "(hardware time is scheduling-invariant; wall-clock and tail latency scale with \
         workers until the trace's priority inversions and grid capacity bind)"
    );
}
