//! Golden-regression suite: small deterministic snapshots of the
//! experiment pipeline (a `fig10_success`-style outcome, a
//! `table1_summary` row, a tiled device-accurate probe, a scheduler
//! queue trace, a decomposed campaign trace, and every engine's raw
//! run) committed under `tests/goldens/` and diffed byte-for-byte
//! against fresh runs.
//!
//! Every quantity here is derived from seeded RNG streams, so on a given
//! platform any drift means a behavioral change — a future perf PR
//! cannot silently alter results. The comparison is byte-for-byte and
//! some values pass through libm transcendentals (`exp`/`ln`/`cos` in
//! the device model and noise draws), which are not correctly rounded
//! and may differ by ulps across libm implementations: the committed
//! goldens are pinned on the Linux/x86-64 CI toolchain, which is the
//! authority. If a golden fails on another platform but CI is green,
//! that is libm skew, not a regression — do not regenerate from such a
//! machine. When a change is *intended*, regenerate (on a CI-equivalent
//! platform) with
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p fecim-tests --test golden_figures
//! ```
//!
//! and review the JSON diff like any other code change.

use std::path::{Path, PathBuf};

use fecim::experiment::{run_experiment, ExperimentConfig, Scale};
use fecim::report::this_work_row;
use fecim::{BackendPlan, CimAnnealer, ProblemSpec, RunPlan, Session, SolveRequest, SolverSpec};
use fecim_crossbar::{CrossbarConfig, Fidelity};
use fecim_device::VariationConfig;
use fecim_gset::{GeneratorConfig, GsetFamily};
use fecim_serve::{
    run_campaign, CampaignSpec, DecomposePlan, ScheduleVariant, Scheduler, SchedulerConfig,
    SubmitOptions,
};

fn goldens_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("goldens")
}

/// Compare `value` against the committed golden `name`.json (or rewrite
/// it when `GOLDEN_REGEN` is set).
fn check_golden(name: &str, value: &serde_json::Value) {
    let dir = goldens_dir();
    let path = dir.join(format!("{name}.json"));
    let mut current = serde_json::to_string_pretty(value).expect("golden value serializes");
    current.push('\n');
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(&dir).expect("create goldens dir");
        std::fs::write(&path, &current).expect("write golden");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\nrun `GOLDEN_REGEN=1 cargo test -p fecim-tests --test \
             golden_figures` to create it",
            path.display()
        )
    });
    assert_eq!(
        committed, current,
        "golden `{name}` drifted: the pipeline's numeric behavior changed.\nIf the change is \
         intentional, regenerate with GOLDEN_REGEN=1 and commit the reviewed diff."
    );
}

/// The golden experiment: the two smallest quick-scale groups with a
/// tiled (32-row) hardware mapping, 2 runs per instance at the default
/// seed — seconds even in debug builds, yet exercising the full
/// ensemble → scoring → hardware-cost pipeline.
fn golden_experiment_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::new(Scale::Quick);
    config.runs_per_instance = 2;
    config.reference_starts = 2;
    config.max_spins = Some(100);
    config.tile_rows = Some(32);
    config
}

#[test]
fn fig10_outcome_and_table1_row_match_goldens() {
    let outcome = run_experiment(golden_experiment_config()).expect("quick suite encodes");
    assert_eq!(outcome.groups.len(), 2, "80- and 100-spin quick groups");
    check_golden(
        "fig10_quick",
        &serde_json::to_value(&outcome).expect("outcome serializes"),
    );
    check_golden(
        "table1_row",
        &serde_json::to_value(&this_work_row(&outcome)).expect("row serializes"),
    );
}

#[test]
fn tiling_sweep_artifact_matches_golden() {
    // A scaled-down `tiling_sweep` bench artifact (same row schema, same
    // generator family/seed-style inputs): the Ideal-fidelity tiled read
    // is bit-identical across tile sizes, so `mean_normalized_cut` must
    // be constant down the rows while the energy/activity columns show
    // the mapping trade-off. Runs through the job API, so this golden
    // also pins `Session::run`'s device-in-the-loop route.
    let n = 96;
    let iterations = 150;
    let runs = 3;
    let graph = GeneratorConfig::new(n, 0x711E)
        .with_family(GsetFamily::RandomUnit)
        .with_mean_degree(8.0)
        .generate();
    let problem = graph.to_max_cut();
    let model = fecim_ising::CopProblem::to_ising(&problem).expect("max-cut encodes");
    let (_, ref_energy) = fecim_anneal::multi_start_local_search(model.couplings(), 4, 2025);
    let reference = problem.cut_from_energy(ref_energy);
    let spec = ProblemSpec::from_graph(&graph);
    let session = Session::new();

    let mut rows = Vec::new();
    for tile_rows in [24, 48, 96] {
        let request =
            SolveRequest::new(spec.clone(), SolverSpec::Cim(CimAnnealer::new(iterations)))
                .with_backend(BackendPlan::DeviceInLoop {
                    fidelity: Fidelity::Ideal,
                    tile_rows: Some(tile_rows),
                })
                .with_run(RunPlan::Ensemble {
                    trials: runs,
                    base_seed: 2025,
                    threads: None,
                })
                .with_reference(reference);
        let response = session.run(&request).expect("valid request");
        let cuts: Vec<f64> = response
            .normalized_objectives()
            .expect("request carries a reference");
        let mean_cut = cuts.iter().sum::<f64>() / cuts.len() as f64;
        let mean_energy = response.summary.total_energy / response.reports.len() as f64;
        let tiles_per_iter = response
            .reports
            .iter()
            .map(|report| {
                let activity = report.run.activity.expect("device runs record stats");
                activity.tiles_activated as f64 / activity.array_ops.max(1) as f64
            })
            .sum::<f64>()
            / response.reports.len() as f64;
        rows.push(serde_json::json!({
            "tile_rows": tile_rows,
            "bands": n.div_ceil(tile_rows),
            "mean_normalized_cut": mean_cut,
            "success_rate": fecim_anneal::success_rate(&cuts, 0.9, true),
            "tiles_per_iteration": tiles_per_iter,
            "mean_energy_j": mean_energy,
        }));
    }
    check_golden(
        "tiling_sweep",
        &serde_json::json!({
            "spins": n,
            "iterations": iterations,
            "runs": runs,
            "device_accurate": false,
            "reference_cut": reference,
            "rows": rows,
        }),
    );
}

#[test]
fn tiled_device_accurate_probe_matches_golden() {
    // Locks the device-accurate tiled read path: per-tile variation
    // seeds, read noise stream, IR attenuation and per-tile activity all
    // feed the recorded numbers.
    let graph = GeneratorConfig::new(96, 0x601D)
        .with_family(GsetFamily::RandomUnit)
        .with_mean_degree(8.0)
        .generate();
    let mut cfg = CrossbarConfig::paper_defaults();
    cfg.fidelity = Fidelity::DeviceAccurate;
    cfg.variation = VariationConfig::typical();
    let request = SolveRequest::new(
        ProblemSpec::from_graph(&graph),
        SolverSpec::Cim(CimAnnealer::new(150).with_flips(2)),
    )
    .with_backend(BackendPlan::DeviceInLoop {
        fidelity: Fidelity::DeviceAccurate,
        tile_rows: Some(32),
    })
    .with_run(RunPlan::Single { seed: 2025 });
    let report = Session::new()
        .with_crossbar(cfg)
        .run(&request)
        .expect("max-cut always encodes")
        .reports
        .remove(0);
    let activity = report.run.activity.expect("device runs record activity");
    let snapshot = serde_json::json!({
        "best_energy": report.best_energy,
        "objective": report.objective,
        "accepted": report.run.accepted,
        "activity": activity,
        "energy_total_j": report.energy.total(),
        "time_total_s": report.time.total(),
    });
    check_golden("tiled_probe", &snapshot);
}

#[test]
fn queue_sweep_trace_matches_golden() {
    // A scaled-down `queue_sweep` trace: one worker, staged start, so
    // execution order is pure (priority, deadline, id) queue order and
    // every event ordinal, admission counter and energy is
    // deterministic. Pins the scheduler's claim → admit → run → retire
    // pipeline end to end, including live-grid sharing between two
    // batched problem sizes and raw-payload requests.
    let ring = |n: usize| ProblemSpec::MaxCut {
        vertices: n,
        edges: (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect(),
    };
    let cim = |iters: usize| SolverSpec::Cim(CimAnnealer::new(iters).with_flips(1));
    let jobs: Vec<(&str, SolveRequest, i64)> = vec![
        (
            "batched-big",
            SolveRequest::new(ring(24), cim(120))
                .with_backend(BackendPlan::Batched {
                    tile_rows: 8,
                    instances: 2,
                })
                .with_run(RunPlan::Ensemble {
                    trials: 3,
                    base_seed: 41,
                    threads: None,
                }),
            0,
        ),
        (
            "batched-small",
            SolveRequest::new(ring(16), cim(120))
                .with_backend(BackendPlan::Batched {
                    tile_rows: 8,
                    instances: 2,
                })
                .with_run(RunPlan::Ensemble {
                    trials: 2,
                    base_seed: 9,
                    threads: None,
                }),
            5,
        ),
        (
            "analytic",
            SolveRequest::new(
                ProblemSpec::Generated(
                    GeneratorConfig::new(20, 7)
                        .with_family(GsetFamily::RandomUnit)
                        .with_mean_degree(6.0),
                ),
                cim(200),
            )
            .with_run(RunPlan::Ensemble {
                trials: 2,
                base_seed: 11,
                threads: None,
            }),
            0,
        ),
        (
            "qubo",
            SolveRequest::new(
                ProblemSpec::Qubo {
                    q: vec![
                        vec![-1.0, 2.0, 0.0],
                        vec![0.0, -1.0, 2.0],
                        vec![0.0, 0.0, -1.0],
                    ],
                },
                cim(150),
            )
            .with_run(RunPlan::Single { seed: 3 }),
            -2,
        ),
        (
            "ising",
            SolveRequest::new(
                ProblemSpec::Ising {
                    h: vec![0.1, -0.1, 0.0, 0.0],
                    j: vec![
                        vec![0.0, 0.5, 0.0, 0.5],
                        vec![0.5, 0.0, 0.5, 0.0],
                        vec![0.0, 0.5, 0.0, 0.5],
                        vec![0.5, 0.0, 0.5, 0.0],
                    ],
                },
                cim(150),
            )
            .with_run(RunPlan::Single { seed: 4 }),
            10,
        ),
    ];
    let scheduler = Scheduler::with_config(
        SchedulerConfig::workers(1)
            .with_grid_stripes(8)
            .start_paused(),
    );
    let handles: Vec<_> = jobs
        .into_iter()
        .map(|(label, request, priority)| {
            (
                label,
                scheduler.submit(request, SubmitOptions::priority(priority)),
            )
        })
        .collect();
    scheduler.resume();
    let mut rows = Vec::new();
    for (label, handle) in &handles {
        let response = handle.wait().expect("trace job completes");
        rows.push(serde_json::json!({
            "label": label,
            "priority": handle.priority(),
            "status": handle.status(),
            "trials": response.reports.len(),
            "best_energy": response.summary.best_energy,
            "best_objective": response.summary.best_objective,
            "total_hw_energy_j": response.summary.total_energy,
            "total_hw_time_s": response.summary.total_time,
            "started_event": handle.started_event(),
            "finished_event": handle.finished_event(),
        }));
    }
    let grids = scheduler.grid_stats();
    scheduler.join();
    check_golden(
        "queue_sweep",
        &serde_json::json!({
            "workers": 1,
            "grid_stripes": 8,
            "jobs": rows,
            "grids": grids,
        }),
    );
}

#[test]
fn sb_trace_matches_golden() {
    // The SB family's byte pin, two halves: (a) an instrumented bSB
    // trajectory through `Session::run` — every trace point (step,
    // energy, best, bifurcation pressure, sign flips) is seeded-RNG
    // deterministic; (b) a noisy device-accurate dSB ensemble scheduled
    // at 8 workers — the scheduler determinism contract (now covering
    // SB) makes the committed bytes identical at any other worker
    // count.
    use fecim::SbAnnealer;
    let graph = GeneratorConfig::new(64, 0x5B17)
        .with_family(GsetFamily::RandomUnit)
        .with_mean_degree(6.0)
        .generate();
    let spec = ProblemSpec::from_graph(&graph);

    let traced = Session::new()
        .run(
            &SolveRequest::new(
                spec.clone(),
                SolverSpec::Sb(SbAnnealer::ballistic(120).with_trace(10)),
            )
            .with_run(RunPlan::Single { seed: 2025 }),
        )
        .expect("traced SB request runs");

    let mut device = CrossbarConfig::paper_defaults();
    device.fidelity = Fidelity::DeviceAccurate;
    device.variation = VariationConfig::typical();
    let scheduler = Scheduler::with_config(SchedulerConfig::workers(8).with_crossbar(device));
    let scheduled = scheduler
        .submit(
            SolveRequest::new(spec, SolverSpec::Sb(SbAnnealer::discrete(80)))
                .with_backend(BackendPlan::DeviceInLoop {
                    fidelity: Fidelity::DeviceAccurate,
                    tile_rows: Some(32),
                })
                .with_run(RunPlan::Ensemble {
                    trials: 3,
                    base_seed: 7,
                    threads: None,
                }),
            SubmitOptions::default(),
        )
        .wait()
        .expect("scheduled SB job completes");
    scheduler.join();

    check_golden(
        "sb_trace",
        &serde_json::json!({
            "traced": traced.reports[0],
            "scheduled_reports": scheduled.reports,
            "scheduled_summary": scheduled.summary,
        }),
    );
}

#[test]
fn engine_runs_match_golden() {
    // The engine-level byte pin: the full `RunResult` (trace, accepted
    // count, first target hit, activity) of every annealing engine on
    // one 60-spin G-set-style instance, with tracing and a target on,
    // on the exact and the 16-row tiled Ideal backends; plus
    // zero-iteration solves, which must echo their start.
    use fecim::sb::{DeviceMvm, ExactMvm, SbEngine, SbVariant};
    use fecim::{DirectAnnealer, MesaAnnealer, Solver};
    use fecim_anneal::{
        run_direct, run_in_situ, run_mesa, suggest_einc_scale, Acceptance, AnnealConfig,
        ExactBackend, GeometricSchedule, MesaConfig, RunResult, SteppedSchedule, TiledBackend,
    };
    use fecim_crossbar::TiledCrossbar;
    use fecim_device::FractionalFactor;
    use fecim_ising::SpinVector;
    use rand::SeedableRng;

    let n = 60;
    let iterations = 300;
    let graph = GeneratorConfig::new(n, 0xE61E)
        .with_family(GsetFamily::RandomUnit)
        .with_mean_degree(6.0)
        .generate();
    let problem = graph.to_max_cut();
    let model = fecim_ising::CopProblem::to_ising(&problem).expect("max-cut encodes");
    let j = model.couplings();
    let (_, ref_energy) = fecim_anneal::multi_start_local_search(j, 4, 2025);
    let target = 0.8 * ref_energy;
    let start = SpinVector::random(n, &mut rand::rngs::StdRng::seed_from_u64(17));
    let config = AnnealConfig::new(iterations, 2025)
        .with_trace(25)
        .with_target_energy(target);
    let xb = CrossbarConfig::paper_defaults();
    let tile_rows = 16;

    let factor = FractionalFactor::paper();
    let stepped = SteppedSchedule::paper(iterations);
    let scale = suggest_einc_scale(j, config.flips_per_iteration) / 80.0;
    let in_situ_exact = run_in_situ(
        &mut ExactBackend::new(j, start.clone()),
        &stepped,
        &factor,
        scale,
        config,
    );
    let in_situ_tiled = run_in_situ(
        &mut TiledBackend::new(j, start.clone(), xb.clone(), tile_rows),
        &stepped,
        &factor,
        scale,
        config,
    );

    let t0 = 16.0 * suggest_einc_scale(j, config.flips_per_iteration);
    let geometric = GeometricSchedule::over_iterations(t0, t0 * 1e-3, iterations);
    let direct = |rule: Acceptance| {
        let exact = run_direct(
            &mut ExactBackend::new(j, start.clone()),
            &geometric,
            rule,
            config,
        );
        let tiled = run_direct(
            &mut TiledBackend::new(j, start.clone(), xb.clone(), tile_rows),
            &geometric,
            rule,
            config,
        );
        serde_json::json!({ "exact": exact, "tiled": tiled })
    };
    let direct = serde_json::json!({
        "metropolis": direct(Acceptance::Metropolis),
        "linear_approx": direct(Acceptance::LinearApprox),
        "greedy": direct(Acceptance::Greedy),
    });

    let mesa = run_mesa(j, start.clone(), MesaConfig::new(iterations, t0, 2025));

    let bsb = SbEngine::new(SbVariant::Ballistic, 120)
        .with_trace(10)
        .with_target_energy(target)
        .run(j, &mut ExactMvm::new(j), &start, 2025);
    let dsb_tiled = SbEngine::new(SbVariant::Discrete, 120)
        .with_trace(10)
        .with_target_energy(target)
        .run(
            j,
            &mut DeviceMvm::new(TiledCrossbar::program(j, xb, tile_rows), 4),
            &start,
            2025,
        );

    // A target the start already meets is hit at iteration 0.
    let zero_cim = CimAnnealer::new(0)
        .with_target_energy(0.0)
        .solve(&problem, 11)
        .expect("solves");
    let zero_direct = DirectAnnealer::cim_asic(0)
        .with_target_energy(0.0)
        .solve(&problem, 11)
        .expect("solves");
    let zero_mesa = MesaAnnealer::new(0).solve(&problem, 11).expect("solves");
    let zero_runs: [&RunResult; 3] = [&zero_cim.run, &zero_direct.run, &zero_mesa.run];
    for run in zero_runs {
        assert_eq!(run.iterations, 0);
        assert_eq!(
            run.best_spins, run.final_spins,
            "zero iterations echo the start"
        );
    }

    check_golden(
        "engine_runs",
        &serde_json::json!({
            "target_energy": target,
            "in_situ": serde_json::json!({ "exact": in_situ_exact, "tiled": in_situ_tiled }),
            "direct": direct,
            "mesa": mesa,
            "sb": serde_json::json!({ "bsb_exact": bsb, "dsb_tiled": dsb_tiled }),
            "zero_iterations": serde_json::json!({
                "cim": zero_cim,
                "direct": zero_direct,
                "mesa": zero_mesa,
            }),
        }),
    );
}

#[test]
fn campaign_trace_matches_golden() {
    // A decomposed campaign on a 2x-over-capacity ring QUBO (24 spins
    // through a 12-spin grid): pins the whole orchestration layer —
    // window selection, clamped sub-QUBO extraction, warm starts,
    // stitching, the per-round energy/hardware trajectory and the
    // final spins. The campaign contract makes this worker-count
    // independent, so the golden pins that too (8 workers here, the
    // committed bytes must match any other count).
    let n = 24;
    let mut q = vec![vec![0.0; n]; n];
    for u in 0..n {
        let v = (u + 1) % n;
        q[u][v] += 2.0;
        q[u][u] -= 1.0;
        q[v][v] -= 1.0;
    }
    let spec = CampaignSpec::new(
        ProblemSpec::Qubo { q },
        3,
        vec![
            ScheduleVariant::new(SolverSpec::Cim(CimAnnealer::new(120).with_flips(1)))
                .with_trials(2),
            ScheduleVariant::new(SolverSpec::Cim(CimAnnealer::new(60).with_flips(1)))
                .with_trials(1),
        ],
    )
    .with_decompose(DecomposePlan::window(9).with_overlap(2))
    .with_backend(BackendPlan::Batched {
        tile_rows: 4,
        instances: 2,
    })
    .with_base_seed(31);
    let scheduler = Scheduler::with_config(SchedulerConfig::workers(8).with_grid_stripes(3));
    let outcome =
        run_campaign(&scheduler, &spec, &SubmitOptions::default()).expect("campaign runs");
    scheduler.join();
    check_golden(
        "campaign_trace",
        &serde_json::json!({
            "grid_capacity_spins": 12,
            "spec": spec,
            "outcome": outcome,
        }),
    );
}
