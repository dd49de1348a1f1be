//! Scheduler semantics: the `fecim-serve` service API must (a) order
//! work by priority and deadline, (b) cancel between trials keeping the
//! completed prefix, (c) admit heterogeneous jobs onto one live grid as
//! stripes free up, and (d) — the headline determinism contract — make
//! scheduled results **bit-identical** to `Session::run` of the same
//! requests, at any worker count and submission order, in Ideal *and*
//! noisy DeviceAccurate fidelity (counter-based read noise plus
//! per-trial silicon make device-accurate trials a pure function of
//! the request and trial seed).

use std::time::Duration;

use fecim::{
    BackendPlan, CimAnnealer, ProblemSpec, RunPlan, Session, SolveRequest, SolveResponse,
    SolverSpec,
};
use fecim_serve::{JobStatus, Scheduler, SchedulerConfig, SchedulerError, SubmitOptions};

fn ring_spec(n: usize) -> ProblemSpec {
    ProblemSpec::MaxCut {
        vertices: n,
        edges: (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect(),
    }
}

fn cim(iterations: usize) -> SolverSpec {
    SolverSpec::Cim(CimAnnealer::new(iterations).with_flips(1))
}

/// The mixed workload of the bit-identity pin: analytic ensemble,
/// tiled device-in-the-loop, shared-grid batched, and a raw QUBO.
fn mixed_requests() -> Vec<SolveRequest> {
    vec![
        SolveRequest::new(ring_spec(12), cim(300))
            .with_run(RunPlan::Ensemble {
                trials: 4,
                base_seed: 11,
                threads: None,
            })
            .with_reference(12.0),
        SolveRequest::new(ring_spec(16), cim(150))
            .with_backend(BackendPlan::DeviceInLoop {
                fidelity: fecim_crossbar::Fidelity::Ideal,
                tile_rows: Some(8),
            })
            .with_run(RunPlan::Ensemble {
                trials: 2,
                base_seed: 5,
                threads: None,
            }),
        SolveRequest::new(ring_spec(24), cim(120))
            .with_backend(BackendPlan::Batched {
                tile_rows: 8,
                instances: 2,
            })
            .with_run(RunPlan::Ensemble {
                trials: 3,
                base_seed: 41,
                threads: None,
            }),
        SolveRequest::new(
            ProblemSpec::Qubo {
                q: vec![
                    vec![-1.0, 2.0, 0.0],
                    vec![0.0, -1.0, 2.0],
                    vec![0.0, 0.0, -1.0],
                ],
            },
            cim(200),
        )
        .with_run(RunPlan::Single { seed: 3 }),
    ]
}

/// Everything of a response except grid placement: the scheduler
/// reports live-grid placement through `grid_stats`, not per-chunk
/// summaries, so `grids` is the one documented divergence.
fn result_fingerprint(response: &SolveResponse) -> String {
    let reports = serde_json::to_string(&response.reports).expect("reports serialize");
    let normalized = serde_json::to_string(&response.normalized).expect("normalized serialize");
    let summary = serde_json::to_string(&response.summary).expect("summary serializes");
    format!("{reports}|{normalized}|{summary}")
}

#[test]
fn scheduled_results_bit_identical_to_session_at_1_and_8_workers() {
    let session = Session::new();
    let expected: Vec<String> = mixed_requests()
        .iter()
        .map(|request| result_fingerprint(&session.run(request).expect("session runs")))
        .collect();
    for workers in [1, 8] {
        let scheduler = Scheduler::with_config(SchedulerConfig::workers(workers).start_paused());
        let handles: Vec<_> = mixed_requests()
            .into_iter()
            .map(|request| scheduler.submit(request, SubmitOptions::default()))
            .collect();
        scheduler.resume();
        for (handle, expected) in handles.iter().zip(&expected) {
            let response = handle.wait().expect("job completes");
            assert_eq!(
                &result_fingerprint(&response),
                expected,
                "scheduled results must be bit-identical to Session::run at {workers} workers"
            );
            assert_eq!(handle.status(), JobStatus::Completed);
            let progress = handle.progress();
            assert_eq!(progress.trials_completed, progress.trials_total);
            assert_eq!(progress.in_flight, 0);
        }
        scheduler.join();
    }
}

/// The SB workload of the bit-identity pin: analytic ensemble, tiled
/// Ideal device-in-the-loop, shared-grid batched, and noisy
/// DeviceAccurate — both variants represented.
fn sb_requests() -> Vec<SolveRequest> {
    use fecim::SbAnnealer;
    vec![
        SolveRequest::new(ring_spec(12), SolverSpec::Sb(SbAnnealer::ballistic(200)))
            .with_run(RunPlan::Ensemble {
                trials: 4,
                base_seed: 11,
                threads: None,
            })
            .with_reference(12.0),
        SolveRequest::new(ring_spec(16), SolverSpec::Sb(SbAnnealer::discrete(150)))
            .with_backend(BackendPlan::DeviceInLoop {
                fidelity: fecim_crossbar::Fidelity::Ideal,
                tile_rows: Some(8),
            })
            .with_run(RunPlan::Ensemble {
                trials: 2,
                base_seed: 5,
                threads: None,
            }),
        SolveRequest::new(ring_spec(24), SolverSpec::Sb(SbAnnealer::ballistic(120)))
            .with_backend(BackendPlan::Batched {
                tile_rows: 8,
                instances: 2,
            })
            .with_run(RunPlan::Ensemble {
                trials: 3,
                base_seed: 41,
                threads: None,
            }),
        SolveRequest::new(ring_spec(12), SolverSpec::Sb(SbAnnealer::discrete(100)))
            .with_backend(BackendPlan::DeviceInLoop {
                fidelity: fecim_crossbar::Fidelity::DeviceAccurate,
                tile_rows: None,
            })
            .with_run(RunPlan::Ensemble {
                trials: 2,
                base_seed: 29,
                threads: None,
            }),
    ]
}

#[test]
fn sb_jobs_bit_identical_to_session_at_1_and_8_workers() {
    // The headline determinism contract extends verbatim to the SB
    // family: scheduled SB results must match `Session::run` bit for
    // bit at any worker count, in Ideal and noisy DeviceAccurate
    // fidelity (counter-based read noise per MVM ordinal plus per-trial
    // silicon make each trial a pure function of the request and
    // trial seed).
    let session = Session::new();
    let expected: Vec<String> = sb_requests()
        .iter()
        .map(|request| result_fingerprint(&session.run(request).expect("session runs")))
        .collect();
    for workers in [1, 8] {
        let scheduler = Scheduler::with_config(SchedulerConfig::workers(workers).start_paused());
        let handles: Vec<_> = sb_requests()
            .into_iter()
            .map(|request| scheduler.submit(request, SubmitOptions::default()))
            .collect();
        scheduler.resume();
        for (handle, expected) in handles.iter().zip(&expected) {
            let response = handle.wait().expect("SB job completes");
            assert_eq!(
                &result_fingerprint(&response),
                expected,
                "scheduled SB results must be bit-identical to Session::run at {workers} workers"
            );
            assert_eq!(handle.status(), JobStatus::Completed);
        }
        scheduler.join();
    }
}

#[test]
fn sb_batched_placement_matches_monolithic_tiling_trial_for_trial() {
    // The shared-grid replica reads its block-diagonal slice of the
    // grid; in Ideal fidelity that is the same exact MVM a dedicated
    // tiled array computes, so batched SB trials must land on the same
    // trajectories as the monolithic tiled placement (hardware-cost
    // accounting differs — the grid is shared — so the comparison is
    // per-trial energies and spins, not the full fingerprint).
    use fecim::SbAnnealer;
    let session = Session::new();
    for solver in [SbAnnealer::ballistic(150), SbAnnealer::discrete(150)] {
        let run = RunPlan::Ensemble {
            trials: 3,
            base_seed: 17,
            threads: None,
        };
        let batched = session
            .run(
                &SolveRequest::new(ring_spec(24), SolverSpec::Sb(solver.clone()))
                    .with_backend(BackendPlan::Batched {
                        tile_rows: 8,
                        instances: 2,
                    })
                    .with_run(run),
            )
            .expect("batched SB runs");
        let tiled = session
            .run(
                &SolveRequest::new(ring_spec(24), SolverSpec::Sb(solver))
                    .with_backend(BackendPlan::DeviceInLoop {
                        fidelity: fecim_crossbar::Fidelity::Ideal,
                        tile_rows: Some(8),
                    })
                    .with_run(run),
            )
            .expect("tiled SB runs");
        for (b, t) in batched.reports.iter().zip(&tiled.reports) {
            assert_eq!(b.best_energy, t.best_energy);
            assert_eq!(b.best_spins, t.best_spins);
        }
    }
}

#[test]
fn noisy_device_accurate_scheduling_is_bit_identical_and_order_invariant() {
    // The determinism contract now extends to DeviceAccurate fidelity
    // with read noise: counter-based noise plus per-trial silicon make
    // scheduled results a pure function of (request, trial seed), so
    // they must match `Session::run` at any worker count — and be
    // invariant to submission order, which permutes live-grid placement.
    let mut device = fecim_crossbar::CrossbarConfig::paper_defaults();
    device.fidelity = fecim_crossbar::Fidelity::DeviceAccurate;
    device.variation = fecim_device::VariationConfig::typical();
    assert!(device.variation.read_noise_rel > 0.0);
    let requests = || {
        vec![
            SolveRequest::new(ring_spec(18), cim(150))
                .with_backend(BackendPlan::Batched {
                    tile_rows: 8,
                    instances: 2,
                })
                .with_run(RunPlan::Ensemble {
                    trials: 3,
                    base_seed: 71,
                    threads: None,
                }),
            SolveRequest::new(ring_spec(12), cim(200))
                .with_backend(BackendPlan::Batched {
                    tile_rows: 6,
                    instances: 3,
                })
                .with_run(RunPlan::Ensemble {
                    trials: 4,
                    base_seed: 19,
                    threads: None,
                }),
        ]
    };
    let session = Session::new().with_crossbar(device.clone());
    let expected: Vec<String> = requests()
        .iter()
        .map(|request| result_fingerprint(&session.run(request).expect("session runs")))
        .collect();
    for (workers, reverse) in [(1, false), (1, true), (8, false), (8, true)] {
        let scheduler = Scheduler::with_config(
            SchedulerConfig::workers(workers)
                .with_crossbar(device.clone())
                .start_paused(),
        );
        let mut jobs: Vec<_> = requests().into_iter().enumerate().collect();
        if reverse {
            jobs.reverse();
        }
        let mut handles: Vec<_> = jobs
            .into_iter()
            .map(|(i, request)| (i, scheduler.submit(request, SubmitOptions::default())))
            .collect();
        handles.sort_by_key(|(i, _)| *i);
        scheduler.resume();
        for (i, handle) in &handles {
            let response = handle.wait().expect("job completes");
            assert_eq!(
                result_fingerprint(&response),
                expected[*i],
                "noisy scheduled job {i} drifted at {workers} workers (reversed={reverse})"
            );
        }
        scheduler.join();
    }
}

#[test]
fn priority_and_deadline_order_queued_jobs() {
    // One worker, staged while paused: execution order is pure queue
    // order, observable through the global event ordinals.
    let scheduler = Scheduler::with_config(SchedulerConfig::workers(1).start_paused());
    let request = SolveRequest::new(ring_spec(10), cim(100)).with_run(RunPlan::Single { seed: 1 });
    let low = scheduler.submit(request.clone(), SubmitOptions::priority(0));
    let high = scheduler.submit(request.clone(), SubmitOptions::priority(9));
    let mid = scheduler.submit(request.clone(), SubmitOptions::priority(4));
    // Equal priority: the earlier deadline runs first despite later
    // submission; no deadline runs after both.
    let slack = scheduler.submit(
        request.clone(),
        SubmitOptions::priority(4).with_deadline_ms(60_000),
    );
    let urgent = scheduler.submit(
        request.clone(),
        SubmitOptions::priority(4).with_deadline_ms(10),
    );
    scheduler.resume();
    for handle in [&low, &high, &mid, &slack, &urgent] {
        handle.wait().expect("job completes");
    }
    let started = |h: &fecim_serve::JobHandle| h.started_event().expect("ran");
    assert!(started(&high) < started(&mid), "priority 9 before 4");
    assert!(started(&mid) < started(&low), "priority 4 before 0");
    assert!(
        started(&urgent) < started(&mid),
        "deadline 10ms first among priority 4"
    );
    assert!(
        started(&slack) < started(&low),
        "priority 4 (any deadline) before 0"
    );
    assert!(
        high.finished_event().unwrap() < started(&low),
        "one worker: the high-priority job finished before the low one started"
    );
    scheduler.join();
}

#[test]
fn cancel_while_queued_is_empty_and_immediate() {
    let scheduler = Scheduler::with_config(SchedulerConfig::workers(1).start_paused());
    let handle = scheduler.submit(
        SolveRequest::new(ring_spec(10), cim(100)).with_run(RunPlan::Ensemble {
            trials: 4,
            base_seed: 0,
            threads: None,
        }),
        SubmitOptions::default(),
    );
    assert!(handle.cancel(), "queued jobs cancel");
    assert!(!handle.cancel(), "second cancel is a no-op");
    assert_eq!(handle.status(), JobStatus::Cancelled);
    match handle.wait() {
        Err(SchedulerError::Cancelled { completed, partial }) => {
            assert_eq!(completed, 0);
            assert!(partial.is_none());
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    scheduler.join();
}

#[test]
fn cancel_mid_ensemble_keeps_the_completed_prefix() {
    // Far more trials than any run finishes before the cancel lands
    // (20 000 trials of 20 000 iterations), so the job is always cut
    // short, however late the polling thread observes progress.
    const TRIALS: usize = 20_000;
    let run = |trials| RunPlan::Ensemble {
        trials,
        base_seed: 7,
        threads: None,
    };
    let request = SolveRequest::new(ring_spec(40), cim(20_000)).with_run(run(TRIALS));
    let scheduler = Scheduler::with_config(SchedulerConfig::workers(1));
    let handle = scheduler.submit(request.clone(), SubmitOptions::default());
    // Wait for real progress, then cancel between trials.
    while handle.progress().trials_completed < 2 {
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.cancel();
    let (completed, partial) = match handle.wait() {
        Err(SchedulerError::Cancelled { completed, partial }) => (completed, partial),
        other => panic!("expected Cancelled, got {other:?}"),
    };
    assert!(completed >= 2, "cancelled only after observed progress");
    assert!(completed < TRIALS, "cancellation must skip the queued tail");
    assert_eq!(handle.status(), JobStatus::Cancelled);
    let partial = *partial.expect("completed trials summarized");
    assert_eq!(partial.reports.len(), completed);
    assert_eq!(partial.summary.trials, completed);
    // One worker claims trials in order and trial `i` runs seed
    // `base_seed + i`, so the partial is bit-identical to Session::run
    // of the same request cut to the completed trials.
    let prefix = Session::new()
        .run(&request.with_run(run(completed)))
        .expect("session runs");
    assert_eq!(result_fingerprint(&partial), result_fingerprint(&prefix));
    scheduler.join();
}

#[test]
fn heterogeneous_jobs_share_one_live_grid() {
    // Job A: a long batched ensemble on the live grid (3 stripes per
    // replica at tile 8). Job B arrives mid-flight with a *different*
    // problem size (2 stripes) and must start before A finishes.
    let job_a = SolveRequest::new(ring_spec(24), cim(1500))
        .with_backend(BackendPlan::Batched {
            tile_rows: 8,
            instances: 2,
        })
        .with_run(RunPlan::Ensemble {
            trials: 6,
            base_seed: 21,
            threads: None,
        });
    let job_b = SolveRequest::new(ring_spec(16), cim(400))
        .with_backend(BackendPlan::Batched {
            tile_rows: 8,
            instances: 1,
        })
        .with_run(RunPlan::Single { seed: 77 });

    let session = Session::new();
    let expected_a = result_fingerprint(&session.run(&job_a).expect("session runs"));
    let expected_b = result_fingerprint(&session.run(&job_b).expect("session runs"));

    let scheduler = Scheduler::with_config(SchedulerConfig::workers(1).with_grid_stripes(16));
    let a = scheduler.submit(job_a, SubmitOptions::priority(0));
    while a.progress().trials_completed < 1 {
        std::thread::sleep(Duration::from_millis(1));
    }
    // Higher priority: B preempts A at the next trial boundary.
    let b = scheduler.submit(job_b, SubmitOptions::priority(5));
    let response_b = b.wait().expect("B completes");
    let response_a = a.wait().expect("A completes");

    assert!(
        b.started_event().unwrap() < a.finished_event().unwrap(),
        "the second job must start before the first finishes"
    );
    assert!(
        b.finished_event().unwrap() < a.finished_event().unwrap(),
        "one worker + higher priority: B even finishes first"
    );
    // Sharing the live grid changes nothing about the results.
    assert_eq!(result_fingerprint(&response_a), expected_a);
    assert_eq!(result_fingerprint(&response_b), expected_b);
    // Both problem sizes went through ONE grid (tile height 8), every
    // replica admitted and retired.
    let stats = scheduler.grid_stats();
    assert_eq!(stats.len(), 1, "one live grid serves both jobs");
    assert_eq!(stats[0].tile_rows, 8);
    assert_eq!(stats[0].admissions, 7, "6 replicas of A + 1 of B");
    assert_eq!(stats[0].retirements, 7);
    assert_eq!(stats[0].live_instances, 0);
    assert_eq!(stats[0].stripes_in_use, 0);
    scheduler.join();
}

#[test]
fn grid_reads_equal_the_trials_array_ops_at_1_and_2_workers() {
    // The retire-time accounting rule: every batched trial owns its
    // array and hands its activity back when it retires, so the grid's
    // read counter is the sum of the reports' `array_ops` at any worker
    // count, and the responses stay bit-identical to `Session::run`.
    let request = SolveRequest::new(ring_spec(24), cim(200))
        .with_backend(BackendPlan::Batched {
            tile_rows: 8,
            instances: 2,
        })
        .with_run(RunPlan::Ensemble {
            trials: 4,
            base_seed: 61,
            threads: None,
        });
    let expected = result_fingerprint(&Session::new().run(&request).expect("session runs"));
    for workers in [1, 2] {
        let scheduler = Scheduler::with_config(SchedulerConfig::workers(workers));
        let response = scheduler
            .submit(request.clone(), SubmitOptions::default())
            .wait()
            .expect("job completes");
        assert_eq!(result_fingerprint(&response), expected, "{workers} workers");
        let array_ops: u64 = response
            .reports
            .iter()
            .map(|r| {
                r.run
                    .activity
                    .expect("device trials record activity")
                    .array_ops
            })
            .sum();
        let stats = scheduler.grid_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].reads, array_ops, "{workers} workers");
        assert_eq!(stats[0].grid_cycles, array_ops);
        assert_eq!(stats[0].retirements, 4);
        assert_eq!(stats[0].peak_concurrent_instances, 1);
        assert!(stats[0].grid_utilization > 0.0 && stats[0].grid_utilization <= 1.0);
        scheduler.join();
    }
}

#[test]
fn full_grid_parks_jobs_until_stripes_free() {
    // Capacity 3 stripes: each 24-spin replica needs all of them, so
    // replicas of A and B strictly alternate through the same span.
    let batched = |seed: u64| {
        SolveRequest::new(ring_spec(24), cim(200))
            .with_backend(BackendPlan::Batched {
                tile_rows: 8,
                instances: 1,
            })
            .with_run(RunPlan::Ensemble {
                trials: 2,
                base_seed: seed,
                threads: None,
            })
    };
    let session = Session::new();
    let expected_a = result_fingerprint(&session.run(&batched(1)).expect("session runs"));
    let expected_b = result_fingerprint(&session.run(&batched(2)).expect("session runs"));
    let scheduler = Scheduler::with_config(
        SchedulerConfig::workers(2)
            .with_grid_stripes(3)
            .start_paused(),
    );
    let a = scheduler.submit(batched(1), SubmitOptions::default());
    let b = scheduler.submit(batched(2), SubmitOptions::default());
    scheduler.resume();
    assert_eq!(
        result_fingerprint(&a.wait().expect("A completes")),
        expected_a
    );
    assert_eq!(
        result_fingerprint(&b.wait().expect("B completes")),
        expected_b
    );
    let stats = scheduler.grid_stats();
    assert_eq!(stats[0].admissions, 4);
    assert_eq!(stats[0].retirements, 4);
    assert_eq!(stats[0].waiting_jobs, 0);
    scheduler.join();
}

#[test]
fn oversized_instances_fail_instead_of_deadlocking() {
    let scheduler = Scheduler::with_config(SchedulerConfig::workers(1).with_grid_stripes(2));
    let handle = scheduler.submit(
        SolveRequest::new(ring_spec(24), cim(100)).with_backend(BackendPlan::Batched {
            tile_rows: 8,
            instances: 1,
        }),
        SubmitOptions::default(),
    );
    match handle.wait() {
        Err(SchedulerError::Rejected(e)) => {
            assert!(e.to_string().contains("stripes"), "got: {e}");
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    assert_eq!(handle.status(), JobStatus::Failed);
    scheduler.join();
}

#[test]
fn invalid_requests_fail_through_the_handle() {
    let scheduler = Scheduler::new();
    // Batched + baseline solver is invalid at prepare time.
    let handle = scheduler.submit(
        SolveRequest::new(
            ring_spec(8),
            SolverSpec::Direct(fecim::DirectAnnealer::cim_asic(50)),
        )
        .with_backend(BackendPlan::Batched {
            tile_rows: 4,
            instances: 2,
        }),
        SubmitOptions::default(),
    );
    assert!(matches!(
        handle.wait(),
        Err(SchedulerError::Rejected(
            fecim::SessionError::InvalidRequest(_)
        ))
    ));
    scheduler.join();
}

#[test]
fn dropping_the_scheduler_fails_open_jobs_instead_of_hanging() {
    let scheduler = Scheduler::with_config(SchedulerConfig::workers(1).start_paused());
    let handle = scheduler.submit(
        SolveRequest::new(ring_spec(10), cim(100)),
        SubmitOptions::default(),
    );
    drop(scheduler);
    assert!(matches!(handle.wait(), Err(SchedulerError::Shutdown)));
    assert_eq!(handle.status(), JobStatus::Failed);
}

#[test]
fn elapsed_deadline_finalizes_without_running_a_trial() {
    // The acceptance pin: a job submitted with an already-elapsed
    // deadline must finalize as DeadlineExceeded without its ensemble
    // ever touching a backend.
    let scheduler = Scheduler::with_config(SchedulerConfig::workers(2));
    let handle = scheduler.submit(
        SolveRequest::new(ring_spec(16), cim(5000)).with_run(RunPlan::Ensemble {
            trials: 64,
            base_seed: 3,
            threads: None,
        }),
        SubmitOptions::default().with_deadline_ms(0),
    );
    match handle.wait() {
        Err(SchedulerError::DeadlineExceeded { completed, partial }) => {
            assert_eq!(completed, 0, "no trial may run past an elapsed deadline");
            assert!(partial.is_none());
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(handle.status(), JobStatus::DeadlineExceeded);
    assert_eq!(
        handle.started_event(),
        None,
        "the job never started: the deadline check precedes prepare"
    );
    scheduler.join();
}

#[test]
fn deadline_mid_ensemble_keeps_the_completed_prefix() {
    // Mirror of the cancel path: the deadline elapses mid-ensemble, the
    // current trial finishes, the queued tail is skipped, and the
    // partial prefix is bit-identical to an unconstrained run — trials
    // are pure functions of (request, base_seed + trial).
    let request = |trials: usize| {
        SolveRequest::new(ring_spec(40), cim(2500)).with_run(RunPlan::Ensemble {
            trials,
            base_seed: 7,
            threads: None,
        })
    };
    // Sized so no plausible host finishes inside the deadline: the
    // skipped tail costs nothing, and a few hundred trials of this size
    // fit in 100 ms on a fast release build.
    let trials = 100_000;
    let scheduler = Scheduler::with_config(SchedulerConfig::workers(1));
    let handle = scheduler.submit(
        request(trials),
        SubmitOptions::default().with_deadline_ms(100),
    );
    let (completed, partial) = match handle.wait() {
        Err(SchedulerError::DeadlineExceeded { completed, partial }) => (completed, partial),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    };
    assert_eq!(handle.status(), JobStatus::DeadlineExceeded);
    // The first trial is claimed before the deadline, and the whole
    // ensemble cannot finish within it.
    assert!(completed >= 1, "the in-flight trial runs to completion");
    assert!(completed < trials, "the deadline must skip the queued tail");
    let partial = *partial.expect("completed trials summarized");
    assert_eq!(partial.reports.len(), completed);
    assert_eq!(partial.summary.trials, completed);
    // One worker claims trials in order, so the partial equals a
    // deadline-free run of exactly `completed` trials, bit for bit.
    let reference = Session::new()
        .run(&request(completed))
        .expect("session runs");
    assert_eq!(result_fingerprint(&partial), result_fingerprint(&reference));
    scheduler.join();
}

#[test]
fn duplicate_submit_ids_fail_deterministically_in_jsonl_streams() {
    // Regression: a duplicate `Submit` id used to be undefined behavior
    // despite the "must be unique" doc contract. The duplicate line now
    // fails deterministically and the original job is untouched.
    let submit = |seed: u64| {
        serde_json::to_string(&fecim_serve::RequestLine::Submit {
            id: "twin".into(),
            request: SolveRequest::new(ring_spec(12), cim(300)).with_run(RunPlan::Ensemble {
                trials: 2,
                base_seed: seed,
                threads: None,
            }),
            options: SubmitOptions::default(),
        })
        .expect("protocol serializes")
    };
    let expected = result_fingerprint(
        &Session::new()
            .run(
                &SolveRequest::new(ring_spec(12), cim(300)).with_run(RunPlan::Ensemble {
                    trials: 2,
                    base_seed: 1,
                    threads: None,
                }),
            )
            .expect("session runs"),
    );
    for workers in [1, 8] {
        let stream = format!("{}\n{}\n", submit(1), submit(99));
        let mut output = Vec::new();
        let summary = fecim_serve::run_jsonl(
            std::io::BufReader::new(stream.as_bytes()),
            &mut output,
            SchedulerConfig::workers(workers),
        )
        .expect("stream serves");
        assert_eq!(summary.submitted, 1, "the duplicate never becomes a job");
        assert_eq!(summary.completed, 1);
        assert_eq!(summary.failed, 1);
        let responses = fecim_serve::check_responses(std::io::BufReader::new(output.as_slice()))
            .expect("responses parse");
        match &responses[0] {
            fecim_serve::ResponseLine::Completed { id, response } => {
                assert_eq!(id, "twin");
                assert_eq!(
                    result_fingerprint(response),
                    expected,
                    "the original submission's result is untouched by the duplicate"
                );
            }
            other => panic!("expected Completed, got {other:?}"),
        }
        match &responses[1] {
            fecim_serve::ResponseLine::Failed { id, error } => {
                assert_eq!(id, "twin");
                assert_eq!(error, "duplicate submission id `twin`");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }
}

#[test]
fn raw_payload_requests_run_through_the_scheduler() {
    // An Ising ring with a symmetry-breaking field: the ground state is
    // computable by hand. J couples neighbors antiferromagnetically.
    let n = 6;
    let mut j = vec![vec![0.0; n]; n];
    for (i, k) in (0..n).map(|i| (i, (i + 1) % n)) {
        j[i][k] = 0.5;
        j[k][i] = 0.5;
    }
    let request = SolveRequest::new(ProblemSpec::Ising { h: vec![0.1; 6], j }, cim(1200)).with_run(
        RunPlan::Ensemble {
            trials: 4,
            base_seed: 9,
            threads: None,
        },
    );
    let scheduler = Scheduler::new();
    let response = scheduler
        .submit(request, SubmitOptions::default())
        .wait()
        .expect("raw payload runs");
    // Alternating spins cut every bond: σᵀJσ = −6, field term ±0.
    assert!(response.summary.best_energy <= -5.0);
    assert_eq!(
        response.summary.best_objective,
        Some(response.summary.best_energy)
    );
    scheduler.join();
}
