//! The campaign orchestration layer, end to end across crates: the
//! warm-start contract it builds on (a zero-sweep run warm-started
//! with any trial's final spins echoes them verbatim), the acceptance
//! headline (a QUBO at 2× the grid's stripe capacity solves through
//! windowed decomposition with a monotone trajectory that is
//! bit-identical at 1 and 8 workers), the JSONL `Campaign` request
//! line on both transports, and journal compaction (recovery from a compacted journal is
//! bit-identical to recovery from the original).

use std::io::BufReader;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use fecim::BackendPlan;
use fecim::{CimAnnealer, ProblemSpec, RunPlan, Session, SolveRequest, SolveResponse, SolverSpec};
use fecim_ising::{Qubo, SpinVector};
use fecim_serve::{
    compact_records, drive, read_journal, run_campaign, run_jsonl, CampaignOutcome, CampaignSpec,
    DecomposePlan, RequestLine, ResponseLine, ScheduleVariant, Scheduler, SchedulerConfig,
    SubmitOptions, TcpServer, TcpServerConfig,
};

/// An antiferromagnetic ring as a minimization QUBO: ground state is
/// the alternating 2-coloring, energy `-n` for even `n`.
fn ring_qubo(n: usize) -> Vec<Vec<f64>> {
    let mut q = vec![vec![0.0; n]; n];
    for u in 0..n {
        let v = (u + 1) % n;
        q[u][v] += 2.0;
        q[u][u] -= 1.0;
        q[v][v] -= 1.0;
    }
    q
}

fn ring_spec(n: usize) -> ProblemSpec {
    ProblemSpec::Qubo { q: ring_qubo(n) }
}

fn cim(iterations: usize) -> SolverSpec {
    SolverSpec::Cim(CimAnnealer::new(iterations).with_flips(1))
}

// ---------------------------------------------------------------------
// Warm starts: the contract campaign round-chaining builds on
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any trial's final spins, fed back as `initial_spins` with zero
    /// remaining sweeps, come back verbatim with the same energy — for
    /// arbitrary ring sizes, seeds, ensemble widths, and trial indices.
    #[test]
    fn warm_started_zero_sweep_run_echoes_any_trial_verbatim(
        n in 4usize..24,
        base_seed in 0u64..1000,
        trials in 1usize..5,
        pick in 0usize..5,
    ) {
        let fresh = Session::new()
            .run(
                &SolveRequest::new(ring_spec(n), cim(120)).with_run(RunPlan::Ensemble {
                    trials,
                    base_seed,
                    threads: None,
                }),
            )
            .expect("ring encodes");
        let t = pick % trials;
        let report = &fresh.reports[t];
        let warm = Session::new()
            .run(
                &SolveRequest::new(ring_spec(n), cim(0))
                    .with_run(RunPlan::Single { seed: base_seed + t as u64 })
                    .with_initial_spins(report.best_spins.as_slice().to_vec()),
            )
            .expect("ring encodes");
        prop_assert_eq!(&warm.reports[0].best_spins, &report.best_spins);
        prop_assert_eq!(warm.reports[0].best_energy, report.best_energy);
    }
}

// ---------------------------------------------------------------------
// The acceptance headline: 2× over-capacity, deterministic at any
// worker count
// ---------------------------------------------------------------------

/// A ring QUBO at twice the grid's spin capacity, solved through
/// windowed decomposition on the batched crossbar backend.
fn over_capacity_spec() -> (CampaignSpec, usize, usize) {
    let stripes = 4;
    let tile_rows = 4;
    let n = 2 * stripes * tile_rows; // 32 spins on a 16-spin grid
    let spec = CampaignSpec::new(
        ring_spec(n),
        4,
        vec![ScheduleVariant::new(cim(150)).with_trials(2)],
    )
    .with_decompose(DecomposePlan::window(12).with_overlap(3))
    .with_backend(BackendPlan::Batched {
        tile_rows,
        instances: 2,
    })
    .with_base_seed(23);
    (spec, stripes, tile_rows)
}

fn run_over_capacity(workers: usize) -> CampaignOutcome {
    let (spec, stripes, _) = over_capacity_spec();
    let scheduler =
        Scheduler::with_config(SchedulerConfig::workers(workers).with_grid_stripes(stripes));
    let outcome = run_campaign(&scheduler, &spec, &SubmitOptions::default())
        .expect("over-capacity campaign runs");
    scheduler.join();
    outcome
}

#[test]
fn twice_over_capacity_qubo_solves_with_a_monotone_trajectory() {
    let (spec, stripes, tile_rows) = over_capacity_spec();
    let n = match &spec.problem {
        ProblemSpec::Qubo { q } => q.len(),
        _ => unreachable!(),
    };
    // The instance genuinely cannot be admitted whole: it needs more
    // stripes than the grid has.
    assert!(n.div_ceil(tile_rows) > stripes);

    let outcome = run_over_capacity(2);
    assert_eq!(outcome.rounds.len(), spec.rounds);
    assert!(outcome.rounds[0].jobs > 1, "decomposition produced windows");
    for pair in outcome.rounds.windows(2) {
        assert!(
            pair[1].best_energy <= pair[0].best_energy,
            "per-round best energy is monotone non-increasing"
        );
    }
    assert!(outcome.total_hw_time > 0.0);

    // The reported best energy is the exact full-model energy of the
    // reported spins, and the campaign actually solved the instance
    // (alternating ring ground state is -n for even n; require at
    // least a near-optimal cut rather than luck-of-the-seed exactness).
    let model = Qubo::from_matrix(&ring_qubo(n))
        .expect("ring is a valid QUBO")
        .to_ising()
        .expect("ring converts to Ising");
    assert_eq!(
        outcome.best_energy,
        model.energy(&SpinVector::from_signs(&outcome.best_spins))
    );
    assert!(
        outcome.best_energy <= -(n as f64) + 8.0,
        "best energy {} too far from the ring optimum {}",
        outcome.best_energy,
        -(n as f64)
    );
}

#[test]
fn over_capacity_trajectory_is_bit_identical_at_1_and_8_workers() {
    let solo = run_over_capacity(1);
    let fleet = run_over_capacity(8);
    assert_eq!(solo, fleet, "campaign outcome must not depend on workers");
}

#[test]
fn sb_variants_run_in_campaign_portfolios_deterministically() {
    // A mixed portfolio round: the CiM annealer and both SB variants
    // compete on every window of a decomposed over-capacity ring, with
    // warm starts chaining rounds (SB sign-initializes its positions
    // from `initial_spins`). The outcome must keep the campaign
    // contract: a monotone trajectory, exact full-model rescoring of
    // the reported spins, and bit-identity at 1 and 8 workers.
    use fecim::SbAnnealer;
    let n = 24;
    let spec = CampaignSpec::new(
        ring_spec(n),
        3,
        vec![
            ScheduleVariant::new(cim(120)).with_trials(1),
            ScheduleVariant::new(SolverSpec::Sb(SbAnnealer::ballistic(150))).with_trials(2),
            ScheduleVariant::new(SolverSpec::Sb(SbAnnealer::discrete(150))).with_trials(1),
        ],
    )
    .with_decompose(DecomposePlan::window(10).with_overlap(2))
    .with_backend(BackendPlan::Batched {
        tile_rows: 4,
        instances: 2,
    })
    .with_base_seed(47);
    let run = |workers: usize| {
        let scheduler =
            Scheduler::with_config(SchedulerConfig::workers(workers).with_grid_stripes(4));
        let outcome = run_campaign(&scheduler, &spec, &SubmitOptions::default())
            .expect("SB portfolio campaign runs");
        scheduler.join();
        outcome
    };
    let outcome = run(1);
    assert_eq!(outcome.rounds.len(), 3);
    for pair in outcome.rounds.windows(2) {
        assert!(
            pair[1].best_energy <= pair[0].best_energy,
            "per-round best energy is monotone non-increasing"
        );
    }
    let model = Qubo::from_matrix(&ring_qubo(n))
        .expect("ring is a valid QUBO")
        .to_ising()
        .expect("ring converts to Ising");
    assert_eq!(
        outcome.best_energy,
        model.energy(&SpinVector::from_signs(&outcome.best_spins))
    );
    assert!(
        outcome.best_energy <= -(n as f64) + 8.0,
        "best energy {} too far from the ring optimum {}",
        outcome.best_energy,
        -(n as f64)
    );
    assert_eq!(outcome, run(8), "SB campaign must not depend on workers");
}

// ---------------------------------------------------------------------
// JSONL transport: the Campaign request line
// ---------------------------------------------------------------------

#[test]
fn jsonl_campaign_line_matches_a_direct_campaign_run() {
    let spec = CampaignSpec::new(
        ring_spec(12),
        3,
        vec![ScheduleVariant::new(cim(150)).with_trials(2)],
    )
    .with_decompose(DecomposePlan::window(6).with_overlap(2))
    .with_base_seed(9);

    // Direct: the campaign driver over a plain scheduler.
    let scheduler = Scheduler::with_config(SchedulerConfig::workers(2));
    let direct =
        run_campaign(&scheduler, &spec, &SubmitOptions::default()).expect("direct campaign runs");
    scheduler.join();

    // Transport: the same spec as a `Campaign` line, sharing the
    // stream with an ordinary submission.
    let lines = [
        serde_json::to_string(&RequestLine::Submit {
            id: "plain".into(),
            request: SolveRequest::new(ring_spec(8), cim(100))
                .with_run(RunPlan::Single { seed: 3 }),
            options: SubmitOptions::default(),
        })
        .unwrap(),
        serde_json::to_string(&RequestLine::Campaign {
            id: "camp".into(),
            spec: spec.clone(),
            options: SubmitOptions::default(),
        })
        .unwrap(),
    ]
    .join("\n");
    let mut output = Vec::new();
    let summary = run_jsonl(
        BufReader::new(lines.as_bytes()),
        &mut output,
        SchedulerConfig::workers(2),
    )
    .expect("stream serves");
    assert_eq!(summary.submitted, 1);
    assert_eq!(summary.campaigns, 1);

    let responses: Vec<ResponseLine> = String::from_utf8(output)
        .expect("utf-8 output")
        .lines()
        .map(|line| serde_json::from_str(line).expect("response lines parse"))
        .collect();
    assert_eq!(responses.len(), 2, "one job terminal + one campaign line");
    assert!(matches!(&responses[0], ResponseLine::Completed { id, .. } if id == "plain"));
    match &responses[1] {
        ResponseLine::Campaign { id, outcome } => {
            assert_eq!(id, "camp");
            assert_eq!(
                outcome, &direct,
                "transport campaign must be bit-identical to the direct run"
            );
        }
        other => panic!("expected a Campaign line, got {other:?}"),
    }
}

#[test]
fn duplicate_campaign_ids_fail_without_running() {
    let spec = CampaignSpec::new(ring_spec(8), 1, vec![ScheduleVariant::new(cim(50))]);
    let campaign = |id: &str| RequestLine::Campaign {
        id: id.into(),
        spec: spec.clone(),
        options: SubmitOptions::default(),
    };
    let lines = [
        serde_json::to_string(&campaign("c")).unwrap(),
        serde_json::to_string(&campaign("c")).unwrap(),
    ]
    .join("\n");
    let mut output = Vec::new();
    let summary = run_jsonl(
        BufReader::new(lines.as_bytes()),
        &mut output,
        SchedulerConfig::workers(1),
    )
    .expect("stream serves");
    assert_eq!(summary.campaigns, 1);
    assert_eq!(summary.failed, 1);
    let text = String::from_utf8(output).expect("utf-8 output");
    let responses: Vec<ResponseLine> = text
        .lines()
        .map(|line| serde_json::from_str(line).expect("response lines parse"))
        .collect();
    assert!(responses
        .iter()
        .any(|r| matches!(r, ResponseLine::Campaign { id, .. } if id == "c")));
    assert!(responses.iter().any(
        |r| matches!(r, ResponseLine::Failed { id, error } if id == "c" && error.contains("duplicate"))
    ));
}

#[test]
fn tcp_campaign_lines_answer_like_the_batch_transport() {
    let spec = CampaignSpec::new(
        ring_spec(12),
        2,
        vec![ScheduleVariant::new(cim(150)).with_trials(2)],
    )
    .with_decompose(DecomposePlan::window(6).with_overlap(2))
    .with_base_seed(4);
    let campaign = |id: &str| RequestLine::Campaign {
        id: id.into(),
        spec: spec.clone(),
        options: SubmitOptions::default(),
    };
    // A campaign beside a job, then its id reused by a campaign and by
    // a job: both duplicates fail without running.
    let lines = [
        RequestLine::Submit {
            id: "plain".into(),
            request: SolveRequest::new(ring_spec(8), cim(100))
                .with_run(RunPlan::Single { seed: 3 }),
            options: SubmitOptions::default(),
        },
        campaign("camp"),
        campaign("camp"),
        RequestLine::Submit {
            id: "camp".into(),
            request: SolveRequest::new(ring_spec(8), cim(100)),
            options: SubmitOptions::default(),
        },
    ]
    .map(|line| serde_json::to_string(&line).unwrap())
    .join("\n");

    let mut batch = Vec::new();
    run_jsonl(lines.as_bytes(), &mut batch, SchedulerConfig::workers(2)).expect("stream serves");
    let server = TcpServer::bind(
        "127.0.0.1:0",
        TcpServerConfig {
            scheduler: SchedulerConfig::workers(2),
            max_open_jobs: None,
        },
    )
    .unwrap();
    let mut tcp = Vec::new();
    assert_eq!(
        drive(server.local_addr(), lines.as_bytes(), &mut tcp).unwrap(),
        4
    );
    server.shutdown();

    // Same lines modulo order: the TCP server answers as things finish.
    let sorted = |output: Vec<u8>| {
        let mut lines: Vec<String> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        lines.sort();
        lines
    };
    let (batch, tcp) = (sorted(batch), sorted(tcp));
    assert_eq!(batch, tcp);
    assert_eq!(
        batch
            .iter()
            .filter(|l| l.contains("duplicate submission id"))
            .count(),
        2
    );
    assert!(batch
        .iter()
        .any(|l| l.starts_with("{\"Campaign\":{\"id\":\"camp\"")));
}

// ---------------------------------------------------------------------
// Journal compaction: recovery is bit-identical before and after
// ---------------------------------------------------------------------

/// A self-deleting temp file path (the workspace has no tempfile dep).
struct TempPath(PathBuf);

impl TempPath {
    fn new(tag: &str) -> TempPath {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        TempPath(std::env::temp_dir().join(format!(
            "fecim-campaign-test-{}-{tag}-{n}.jsonl",
            std::process::id()
        )))
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Everything of a response except grid placement (the one documented
/// scheduler/session divergence — see `scheduler_api.rs`).
fn result_fingerprint(response: &SolveResponse) -> String {
    let reports = serde_json::to_string(&response.reports).expect("reports serialize");
    let summary = serde_json::to_string(&response.summary).expect("summary serializes");
    format!("{reports}|{summary}")
}

/// Recover the journal at `path` on a fresh journal-less scheduler and
/// return `(name, fingerprint)` per replayed job, in replay order.
fn replay(path: &PathBuf) -> Vec<(String, String)> {
    let scheduler = Scheduler::with_config(SchedulerConfig::workers(1).start_paused());
    let recovered = scheduler.recover(path).expect("journal replays");
    scheduler.resume();
    let results = recovered
        .into_iter()
        .map(|job| {
            let name = job.name.expect("tests name every job");
            let response = job.handle.wait().expect("replay completes");
            (name, result_fingerprint(&response))
        })
        .collect();
    scheduler.join();
    results
}

#[test]
fn compacted_journal_recovers_bit_identically() {
    let journal = TempPath::new("compact");
    let request = |n: usize, seed: u64| {
        SolveRequest::new(ring_spec(n), cim(200)).with_run(RunPlan::Ensemble {
            trials: 2,
            base_seed: seed,
            threads: None,
        })
    };
    // Phase 1: one job runs to completion, so the journal holds a full
    // settled lifecycle worth compacting away.
    {
        let scheduler =
            Scheduler::try_with_config(SchedulerConfig::workers(1).with_journal(&journal.0))
                .expect("journal opens");
        let handle = scheduler.submit_named(Some("done"), request(10, 5), SubmitOptions::default());
        handle.wait().expect("job completes");
        scheduler.join();
    }
    // Phase 2: two more jobs are submitted to a paused scheduler that
    // "crashes" (drops) before running them — they stay replayable.
    {
        let scheduler = Scheduler::try_with_config(
            SchedulerConfig::workers(1)
                .start_paused()
                .with_journal(&journal.0),
        )
        .expect("journal opens");
        let _a = scheduler.submit_named(Some("orphan-a"), request(12, 7), SubmitOptions::default());
        let _b = scheduler.submit_named(Some("orphan-b"), request(14, 9), SubmitOptions::default());
        drop(scheduler);
    }

    let records = read_journal(&journal.0).expect("journal reads");
    let compacted = compact_records(records.clone());
    assert!(
        compacted.len() < records.len(),
        "the settled job's records compact away"
    );
    assert!(
        compacted
            .iter()
            .all(|r| !matches!(r, fecim_serve::JournalRecord::Finalized { .. })),
        "no settled lifecycles survive compaction"
    );
    let compact_path = TempPath::new("compacted");
    let mut lines = String::new();
    for record in &compacted {
        lines.push_str(&serde_json::to_string(record).expect("records serialize"));
        lines.push('\n');
    }
    std::fs::write(&compact_path.0, lines).expect("write compacted journal");

    let original = replay(&journal.0);
    let after = replay(&compact_path.0);
    assert_eq!(
        original
            .iter()
            .map(|(name, _)| name.as_str())
            .collect::<Vec<_>>(),
        vec!["orphan-a", "orphan-b"],
        "exactly the unsettled jobs replay, in submission order"
    );
    assert_eq!(
        original, after,
        "recovery from the compacted journal is bit-identical"
    );
}
