//! Job-API contract tests: `SolveRequest`/`SolveResponse` round-trip
//! through JSON, and `Session::run` is bit-identical in Ideal fidelity
//! to direct `Solver::solve` calls — per trial for normalized
//! ensembles, and against unbatched tiled solves for the batched
//! backend.

use fecim::{
    BackendPlan, CimAnnealer, DirectAnnealer, MesaAnnealer, ProblemSpec, RunPlan, Session,
    SessionError, SolveReport, SolveRequest, SolveResponse, Solver, SolverSpec,
};
use fecim_crossbar::Fidelity;
use fecim_gset::{GeneratorConfig, GsetFamily};
use fecim_ising::MaxCut;

fn ring(n: usize) -> MaxCut {
    MaxCut::new(n, (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect()).unwrap()
}

fn ring_spec(n: usize) -> ProblemSpec {
    ProblemSpec::MaxCut {
        vertices: n,
        edges: (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect(),
    }
}

fn gset_graph(n: usize, seed: u64) -> fecim_gset::Graph {
    GeneratorConfig::new(n, seed)
        .with_family(GsetFamily::RandomUnit)
        .with_mean_degree(8.0)
        .generate()
}

// ---------------------------------------------------------------------------
// JSON round-trips
// ---------------------------------------------------------------------------

#[test]
fn every_request_shape_roundtrips_through_json() {
    let requests = [
        SolveRequest::new(
            ring_spec(8),
            SolverSpec::Cim(CimAnnealer::new(100).with_flips(1)),
        ),
        SolveRequest::new(
            ProblemSpec::Generated(GeneratorConfig::new(32, 5)),
            SolverSpec::Direct(DirectAnnealer::cim_fpga(200)),
        )
        .with_backend(BackendPlan::DeviceInLoop {
            fidelity: Fidelity::DeviceAccurate,
            tile_rows: Some(16),
        })
        .with_run(RunPlan::Ensemble {
            trials: 3,
            base_seed: 9,
            threads: Some(2),
        })
        .with_reference(40.0),
        SolveRequest::new(ring_spec(12), SolverSpec::Mesa(MesaAnnealer::new(50))),
        SolveRequest::new(ring_spec(16), SolverSpec::Cim(CimAnnealer::new(60)))
            .with_backend(BackendPlan::Batched {
                tile_rows: 4,
                instances: 2,
            })
            .with_run(RunPlan::Ensemble {
                trials: 4,
                base_seed: 1,
                threads: None,
            }),
        SolveRequest::new(
            ProblemSpec::Knapsack {
                values: vec![3, 5],
                weights: vec![1, 2],
                capacity: 2,
            },
            SolverSpec::Cim(CimAnnealer::new(500)),
        ),
        SolveRequest::new(
            ProblemSpec::Coloring {
                vertices: 4,
                colors: 3,
                edges: vec![(0, 1), (1, 2)],
            },
            SolverSpec::Cim(CimAnnealer::new(500)),
        ),
    ];
    for request in requests {
        let wire = request.to_json().expect("request serializes");
        let back = SolveRequest::from_json(&wire).expect("request parses");
        assert_eq!(back, request);
        // Round-tripping the round-trip is stable (canonical form).
        assert_eq!(back.to_json().unwrap(), wire);
    }
}

#[test]
fn response_roundtrips_through_json() {
    let request = ring_request(10, 150)
        .with_run(RunPlan::Ensemble {
            trials: 2,
            base_seed: 3,
            threads: None,
        })
        .with_reference(10.0);
    let response = Session::new().run(&request).expect("ring encodes");
    let wire = serde_json::to_string(&response).expect("response serializes");
    let back: SolveResponse = serde_json::from_str(&wire).expect("response parses");
    assert_eq!(back.reports.len(), response.reports.len());
    assert_eq!(back.summary, response.summary);
    assert_eq!(back.normalized, response.normalized);
    for (a, b) in back.reports.iter().zip(&response.reports) {
        assert_eq!(a.best_energy, b.best_energy);
        assert_eq!(a.best_spins, b.best_spins);
        assert_eq!(a.energy.total(), b.energy.total());
    }
    // Stable canonical form.
    assert_eq!(serde_json::to_string(&back).unwrap(), wire);
}

fn ring_request(n: usize, iterations: usize) -> SolveRequest {
    SolveRequest::new(
        ring_spec(n),
        SolverSpec::Cim(CimAnnealer::new(iterations).with_flips(1)),
    )
}

// ---------------------------------------------------------------------------
// Bit-identity vs the legacy entry points (Ideal fidelity)
// ---------------------------------------------------------------------------

#[test]
fn session_single_run_matches_legacy_solve_for_all_architectures() {
    let problem = ring(14);
    let spec = ring_spec(14);
    let solvers: [(SolverSpec, &dyn Solver); 3] = [
        (
            SolverSpec::Cim(CimAnnealer::new(300).with_flips(1)),
            &CimAnnealer::new(300).with_flips(1),
        ),
        (
            SolverSpec::Direct(DirectAnnealer::cim_asic(300).with_flips(1)),
            &DirectAnnealer::cim_asic(300).with_flips(1),
        ),
        (
            SolverSpec::Mesa(MesaAnnealer::new(300)),
            &MesaAnnealer::new(300),
        ),
    ];
    let session = Session::new();
    for (spec_solver, legacy) in solvers {
        let response = session
            .run(
                &SolveRequest::new(spec.clone(), spec_solver)
                    .with_run(RunPlan::Single { seed: 11 }),
            )
            .expect("ring encodes");
        let expected = legacy.solve(&problem, 11).expect("ring encodes");
        assert_eq!(response.reports[0].best_energy, expected.best_energy);
        assert_eq!(response.reports[0].best_spins, expected.best_spins);
        assert_eq!(response.reports[0].run.accepted, expected.run.accepted);
        assert_eq!(
            response.reports[0].energy.total(),
            expected.energy.total(),
            "hardware attribution must survive the facade"
        );
    }
}

/// One Ideal device-in-the-loop trial of `solver` on `graph` through
/// `tile_rows`-row tiles (`None` = one monolithic array).
fn ideal_device_trial(
    graph: &fecim_gset::Graph,
    solver: CimAnnealer,
    tile_rows: Option<usize>,
    seed: u64,
) -> SolveReport {
    let request = SolveRequest::new(ProblemSpec::from_graph(graph), SolverSpec::Cim(solver))
        .with_backend(BackendPlan::DeviceInLoop {
            fidelity: Fidelity::Ideal,
            tile_rows,
        })
        .with_run(RunPlan::Single { seed });
    let mut response = Session::new().run(&request).expect("max-cut encodes");
    response.reports.remove(0)
}

#[test]
fn session_tiled_device_plan_matches_monolithic_trajectory() {
    // The plan's tile height reaches both the array and the pricing: an
    // Ideal tiled read equals the monolithic one, so the trajectory is
    // the same, while activity and hardware cost follow the tiles.
    let graph = gset_graph(48, 0xD1CE);
    let solver = CimAnnealer::new(120).with_flips(1);
    let tiled = ideal_device_trial(&graph, solver.clone(), Some(16), 2025);
    let mono = ideal_device_trial(&graph, solver, None, 2025);
    assert_eq!(tiled.best_energy, mono.best_energy);
    assert_eq!(tiled.best_spins, mono.best_spins);
    assert_eq!(tiled.run.accepted, mono.run.accepted);
    let tiles = |report: &SolveReport| report.run.activity.expect("device runs").tiles_activated;
    assert!(tiles(&tiled) > tiles(&mono), "per-tile activity recorded");
    assert_ne!(
        tiled.energy.total(),
        mono.energy.total(),
        "tile-scale pricing"
    );
}

#[test]
fn session_normalized_scores_match_per_trial_solves() {
    let graph = gset_graph(40, 0xBEEF);
    let problem = graph.to_max_cut();
    let reference = 30.0;
    let trials = 6;
    let base_seed = 91;
    let solver = CimAnnealer::new(200).with_target_energy(-10.0);
    // One `Solver::solve` per seed, `objective / reference`, and the
    // first target-hit iteration.
    let expected: Vec<(f64, Option<usize>)> = (0..trials as u64)
        .map(|i| {
            let report = solver
                .solve(&problem, base_seed + i)
                .expect("max-cut encodes");
            (
                report.objective.expect("max-cut has an objective") / reference,
                report.run.first_target_hit,
            )
        })
        .collect();
    let response = Session::new()
        .run(
            &SolveRequest::new(ProblemSpec::from_graph(&graph), SolverSpec::Cim(solver))
                .with_run(RunPlan::Ensemble {
                    trials,
                    base_seed,
                    threads: None,
                })
                .with_reference(reference),
        )
        .expect("max-cut encodes");
    assert_eq!(
        response.normalized_pairs().expect("reference set"),
        expected,
        "normalized scores and target hits must be bit-identical"
    );
}

#[test]
fn session_batched_backend_matches_unbatched_tiled_solves() {
    let graph = gset_graph(32, 0xCAFE);
    let solver = CimAnnealer::new(80).with_flips(1);
    let trials = 3;
    let base_seed = 55u64;
    let response = Session::new()
        .run(
            &SolveRequest::new(
                ProblemSpec::from_graph(&graph),
                SolverSpec::Cim(solver.clone()),
            )
            .with_backend(BackendPlan::Batched {
                tile_rows: 8,
                instances: trials,
            })
            .with_run(RunPlan::Ensemble {
                trials,
                base_seed,
                threads: None,
            }),
        )
        .expect("max-cut encodes");
    // Trial for trial, the shared grid must reproduce the unbatched
    // tiled device-in-the-loop run (the Ideal-fidelity contract).
    assert_eq!(response.reports.len(), trials);
    for (i, got) in response.reports.iter().enumerate() {
        let want = ideal_device_trial(&graph, solver.clone(), Some(8), base_seed + i as u64);
        assert_eq!(got.best_energy, want.best_energy, "trial {i}");
        assert_eq!(got.best_spins, want.best_spins, "trial {i}");
        assert_eq!(got.run.accepted, want.run.accepted, "trial {i}");
        assert!(got.energy.total() > 0.0);
    }
    // Sharing really happened: one grid, concurrent latency advantage.
    assert_eq!(response.grids.len(), 1);
    assert_eq!(response.grids[0].instances, trials);
    assert!(response.grids[0].serial_time > response.grids[0].batch_time);
}

#[test]
fn json_roundtripped_request_runs_bit_identical() {
    // The serialization boundary claim: ship the request over a wire,
    // rebuild it, and the solve is the same bit for bit.
    let request = SolveRequest::new(
        ProblemSpec::Generated(
            GeneratorConfig::new(64, 0xF00D)
                .with_family(GsetFamily::RandomUnit)
                .with_mean_degree(6.0),
        ),
        SolverSpec::Cim(CimAnnealer::new(150).with_flips(2)),
    )
    .with_backend(BackendPlan::DeviceInLoop {
        fidelity: Fidelity::Ideal,
        tile_rows: Some(32),
    })
    .with_run(RunPlan::Ensemble {
        trials: 2,
        base_seed: 77,
        threads: None,
    });
    let session = Session::new();
    let direct = session.run(&request).expect("valid request");
    let shipped = SolveRequest::from_json(&request.to_json().unwrap()).unwrap();
    let remote = session.run(&shipped).expect("valid request");
    for (a, b) in direct.reports.iter().zip(&remote.reports) {
        assert_eq!(a.best_energy, b.best_energy);
        assert_eq!(a.best_spins, b.best_spins);
        assert_eq!(a.run.accepted, b.run.accepted);
    }
    assert_eq!(direct.summary, remote.summary);
}

// ---------------------------------------------------------------------------
// Request validation
// ---------------------------------------------------------------------------

#[test]
fn unsupported_combinations_error_as_invalid_requests() {
    let session = Session::new();
    let cases = [
        SolveRequest::new(ring_spec(8), SolverSpec::Mesa(MesaAnnealer::new(40))).with_backend(
            BackendPlan::DeviceInLoop {
                fidelity: Fidelity::Ideal,
                tile_rows: None,
            },
        ),
        SolveRequest::new(
            ring_spec(8),
            SolverSpec::Direct(DirectAnnealer::cim_asic(40)),
        )
        .with_backend(BackendPlan::Batched {
            tile_rows: 4,
            instances: 2,
        }),
        SolveRequest::new(ring_spec(8), SolverSpec::Cim(CimAnnealer::new(40))).with_run(
            RunPlan::Ensemble {
                trials: 0,
                base_seed: 0,
                threads: None,
            },
        ),
        SolveRequest::new(ring_spec(8), SolverSpec::Cim(CimAnnealer::new(40))).with_backend(
            BackendPlan::DeviceInLoop {
                fidelity: Fidelity::Ideal,
                tile_rows: Some(0),
            },
        ),
    ];
    for request in cases {
        match session.run(&request) {
            Err(SessionError::InvalidRequest(msg)) => assert!(!msg.is_empty()),
            other => panic!("expected InvalidRequest, got {other:?}"),
        }
    }
    // Problem-construction failures surface as Problem errors, not panics.
    let broken = SolveRequest::new(
        ProblemSpec::MaxCut {
            vertices: 2,
            edges: vec![(0, 9, 1.0)],
        },
        SolverSpec::Cim(CimAnnealer::new(40)),
    );
    assert!(matches!(
        session.run(&broken),
        Err(SessionError::Problem(_))
    ));
}

#[test]
fn malformed_raw_payloads_error_as_problem_errors() {
    let session = Session::new();
    // Every payload errors the same way on every route: a single trial,
    // a referenced ensemble, and a batched grid.
    let run_everywhere = |problem: ProblemSpec| -> Vec<Result<SolveResponse, SessionError>> {
        let request = SolveRequest::new(problem, SolverSpec::Cim(CimAnnealer::new(40)));
        let ensemble = RunPlan::Ensemble {
            trials: 4,
            base_seed: 9,
            threads: None,
        };
        [
            request.clone(),
            request.clone().with_run(ensemble).with_reference(1.0),
            request
                .with_backend(BackendPlan::Batched {
                    tile_rows: 4,
                    instances: 2,
                })
                .with_run(ensemble),
        ]
        .iter()
        .map(|request| session.run(request))
        .collect()
    };
    // Non-square Q.
    for outcome in run_everywhere(ProblemSpec::Qubo {
        q: vec![vec![1.0, 2.0], vec![0.0]],
    }) {
        match outcome {
            Err(SessionError::Problem(fecim_ising::IsingError::DimensionMismatch {
                expected,
                found,
            })) => {
                assert_eq!((expected, found), (2, 1));
            }
            other => panic!("expected DimensionMismatch, got {other:?}"),
        }
    }
    // h/J dimension mismatch.
    for outcome in run_everywhere(ProblemSpec::Ising {
        h: vec![0.0; 2],
        j: vec![vec![0.0; 3]; 3],
    }) {
        assert!(
            matches!(
                outcome,
                Err(SessionError::Problem(
                    fecim_ising::IsingError::DimensionMismatch { .. }
                ))
            ),
            "{outcome:?}"
        );
    }
    // Asymmetric J.
    for outcome in run_everywhere(ProblemSpec::Ising {
        h: vec![0.0; 2],
        j: vec![vec![0.0, 1.0], vec![2.0, 0.0]],
    }) {
        assert!(
            matches!(
                outcome,
                Err(SessionError::Problem(
                    fecim_ising::IsingError::NotSymmetric { .. }
                ))
            ),
            "{outcome:?}"
        );
    }
}

#[test]
fn raw_payload_requests_solve_to_known_optima() {
    let session = Session::new();
    // QUBO chain with frustrated pairs: optimum x = (1,0,1), value −2.
    let qubo = SolveRequest::new(
        ProblemSpec::Qubo {
            q: vec![
                vec![-1.0, 2.0, 0.0],
                vec![0.0, -1.0, 2.0],
                vec![0.0, 0.0, -1.0],
            ],
        },
        SolverSpec::Cim(CimAnnealer::new(800).with_flips(1)),
    )
    .with_run(RunPlan::Ensemble {
        trials: 4,
        base_seed: 1,
        threads: None,
    });
    let response = session.run(&qubo).expect("payload builds");
    assert_eq!(response.summary.best_objective, Some(-2.0));
    // Raw Ising 4-ring, antiferromagnetic: ground energy −4 (J = 0.5
    // per directed pair, alternating spins cut all four bonds).
    let ising = SolveRequest::new(
        ProblemSpec::Ising {
            h: vec![0.0; 4],
            j: vec![
                vec![0.0, 0.5, 0.0, 0.5],
                vec![0.5, 0.0, 0.5, 0.0],
                vec![0.0, 0.5, 0.0, 0.5],
                vec![0.5, 0.0, 0.5, 0.0],
            ],
        },
        SolverSpec::Cim(CimAnnealer::new(800).with_flips(1)),
    )
    .with_run(RunPlan::Ensemble {
        trials: 4,
        base_seed: 1,
        threads: None,
    });
    let response = session.run(&ising).expect("payload builds");
    assert_eq!(response.summary.best_objective, Some(-4.0));
    assert_eq!(response.summary.best_energy, -4.0);
}

// ---------------------------------------------------------------------------
// Trial-level execution (`Session::prepare` / `PreparedJob`)
// ---------------------------------------------------------------------------

#[test]
fn prepared_trials_reproduce_session_run_one_by_one() {
    let session = Session::new();
    let request = SolveRequest::new(
        ProblemSpec::from_graph(&gset_graph(24, 3)),
        SolverSpec::Cim(CimAnnealer::new(200).with_flips(1)),
    )
    .with_run(RunPlan::Ensemble {
        trials: 3,
        base_seed: 17,
        threads: None,
    })
    .with_reference(20.0);
    let whole = session.run(&request).expect("valid request");
    let job = session.prepare(&request).expect("valid request");
    assert_eq!(job.trials(), 3);
    assert!(!job.is_batched());
    assert_eq!(job.batch_placement(), None);
    // Trials run individually — in any order — and `finish` rebuilds
    // the identical response.
    let reports: Vec<_> = [2usize, 0, 1]
        .into_iter()
        .map(|t| (t, job.run_trial(t).expect("trial runs")))
        .collect();
    let mut ordered: Vec<_> = reports.into_iter().collect();
    ordered.sort_by_key(|(t, _)| *t);
    let rebuilt = job
        .finish(ordered.into_iter().map(|(_, r)| r).collect(), Vec::new())
        .expect("finish post-processes");
    for (a, b) in whole.reports.iter().zip(&rebuilt.reports) {
        assert_eq!(a.best_energy, b.best_energy);
        assert_eq!(a.best_spins, b.best_spins);
    }
    assert_eq!(whole.summary, rebuilt.summary);
    assert_eq!(whole.normalized, rebuilt.normalized);
    // Out-of-range trials are errors, not panics.
    assert!(matches!(
        job.run_trial(3),
        Err(SessionError::InvalidRequest(_))
    ));
}

#[test]
fn prepared_batched_trials_expose_grid_requirements() {
    let session = Session::new();
    let request = SolveRequest::new(ring_spec(24), SolverSpec::Cim(CimAnnealer::new(80)))
        .with_backend(BackendPlan::Batched {
            tile_rows: 8,
            instances: 2,
        })
        .with_run(RunPlan::Ensemble {
            trials: 2,
            base_seed: 5,
            threads: None,
        });
    let job = session.prepare(&request).expect("valid request");
    assert!(job.is_batched());
    assert_eq!(job.batch_placement(), Some((8, 24)));
    assert_eq!(job.seed(1), 6);
    // Each batched trial programs its own array: run one at a time, in
    // any order, they reproduce `Session::run` bit for bit.
    let whole = session.run(&request).expect("valid request");
    for trial in [1usize, 0] {
        let report = job.run_trial(trial).expect("trial runs");
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&whole.reports[trial]).unwrap(),
            "trial {trial}"
        );
    }
    assert!(matches!(
        job.run_trial(2),
        Err(SessionError::InvalidRequest(_))
    ));
}
