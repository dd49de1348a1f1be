//! The production transport: the streaming TCP server (responses in
//! completion order, live `Status`/`Progress`, `Rejected`
//! backpressure) and the durable job journal — the crash-point matrix
//! pins that `Scheduler::recover` replays unfinished jobs
//! **bit-identically** to an uncrashed run at 1 and 8 workers, because
//! every trial is a pure function of (request, base_seed + trial).

use std::io::{BufRead, BufReader, Read as _, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use fecim::{CimAnnealer, ProblemSpec, RunPlan, Session, SolveRequest, SolveResponse, SolverSpec};
use fecim_serve::{
    check_responses_against, drive, jsonl::MAX_REQUEST_LINE_BYTES, read_journal, run_jsonl,
    JobStatus, JournalRecord, RequestLine, ResponseLine, Scheduler, SchedulerConfig,
    SchedulerError, SubmitOptions, TcpServer, TcpServerConfig,
};

fn ring_request(n: usize, iterations: usize) -> SolveRequest {
    SolveRequest::new(
        ProblemSpec::MaxCut {
            vertices: n,
            edges: (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect(),
        },
        SolverSpec::Cim(CimAnnealer::new(iterations).with_flips(1)),
    )
}

fn ensemble(n: usize, iterations: usize, trials: usize, base_seed: u64) -> SolveRequest {
    ring_request(n, iterations).with_run(RunPlan::Ensemble {
        trials,
        base_seed,
        threads: None,
    })
}

/// Everything of a response except grid placement (the one documented
/// scheduler/session divergence — see `scheduler_api.rs`).
fn result_fingerprint(response: &SolveResponse) -> String {
    let reports = serde_json::to_string(&response.reports).expect("reports serialize");
    let normalized = serde_json::to_string(&response.normalized).expect("normalized serialize");
    let summary = serde_json::to_string(&response.summary).expect("summary serializes");
    format!("{reports}|{normalized}|{summary}")
}

/// A self-deleting temp file path (the workspace has no tempfile dep).
struct TempPath(PathBuf);

impl TempPath {
    fn new(tag: &str) -> TempPath {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        TempPath(std::env::temp_dir().join(format!(
            "fecim-serve-test-{}-{tag}-{n}.jsonl",
            std::process::id()
        )))
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn write_records(path: &PathBuf, records: &[JournalRecord]) {
    let mut lines = String::new();
    for record in records {
        lines.push_str(&serde_json::to_string(record).expect("records serialize"));
        lines.push('\n');
    }
    std::fs::write(path, lines).expect("write journal");
}

fn json(line: &RequestLine) -> String {
    serde_json::to_string(line).expect("protocol serializes")
}

// ---------------------------------------------------------------------
// Streaming TCP transport
// ---------------------------------------------------------------------

#[test]
fn tcp_stream_matches_batch_results_modulo_ordering() {
    // The same request stream through both transports: streaming
    // reorders responses (completion order) but must compute identical
    // bits. The cancelled job is far too large to ever finish, so the
    // streaming transport's live cancel always beats completion; how
    // many trials it manages first is timing-dependent, which is why
    // the fingerprint comparison below excludes the cancelled id.
    let requests = [
        json(&RequestLine::Submit {
            id: "ring".into(),
            request: ensemble(12, 400, 3, 7),
            options: SubmitOptions::priority(1),
        }),
        json(&RequestLine::Submit {
            id: "qubo".into(),
            request: ensemble(16, 300, 2, 5),
            options: SubmitOptions::default(),
        }),
        json(&RequestLine::Submit {
            id: "doomed".into(),
            request: ensemble(16, 20_000, 100_000, 0),
            options: SubmitOptions::default(),
        }),
        json(&RequestLine::Cancel {
            id: "doomed".into(),
        }),
        json(&RequestLine::Cancel { id: "ghost".into() }),
    ]
    .join("\n");

    let mut batch_output = Vec::new();
    run_jsonl(
        BufReader::new(requests.as_bytes()),
        &mut batch_output,
        SchedulerConfig::workers(1),
    )
    .expect("batch serves");

    let server = TcpServer::bind(
        "127.0.0.1:0",
        TcpServerConfig {
            scheduler: SchedulerConfig::workers(1),
            max_open_jobs: None,
        },
    )
    .expect("server binds");
    let mut tcp_output = Vec::new();
    let received = drive(
        server.local_addr(),
        BufReader::new(requests.as_bytes()),
        &mut tcp_output,
    )
    .expect("drive round-trips");
    server.shutdown();
    // 3 submission terminals + the ghost cancel's failure; the doomed
    // cancel is answered by doomed's own terminal line.
    assert_eq!(received, 4);

    // Both outputs satisfy the per-id contract for this request stream.
    let batch = check_responses_against(
        BufReader::new(requests.as_bytes()),
        BufReader::new(batch_output.as_slice()),
    )
    .expect("batch responses check out");
    let tcp = check_responses_against(
        BufReader::new(requests.as_bytes()),
        BufReader::new(tcp_output.as_slice()),
    )
    .expect("tcp responses check out");

    // Modulo ordering, the streamed lines carry the same bits. The
    // cancelled job is excluded from the bit comparison: staged mode
    // cancels it before anything runs (always 0 completed trials),
    // while the live transport stops after whatever trial is in flight
    // when the cancel lands — both must settle it as Cancelled, but the
    // completed prefix is timing-dependent by design.
    let fingerprints = |lines: &[ResponseLine]| {
        let mut out: Vec<String> = lines
            .iter()
            .map(|line| match line {
                ResponseLine::Completed { id, response } => {
                    format!("{id}:completed:{}", result_fingerprint(response))
                }
                ResponseLine::Cancelled {
                    id,
                    completed_trials,
                    ..
                } => format!("{id}:cancelled:{completed_trials}"),
                ResponseLine::Failed { id, error } => format!("{id}:failed:{error}"),
                other => panic!("unexpected line {other:?}"),
            })
            .collect();
        out.sort();
        out
    };
    let without_doomed = |prints: &[String]| -> Vec<String> {
        prints
            .iter()
            .filter(|p| !p.starts_with("doomed:"))
            .cloned()
            .collect()
    };
    let batch_prints = fingerprints(&batch);
    let tcp_prints = fingerprints(&tcp);
    assert_eq!(without_doomed(&batch_prints), without_doomed(&tcp_prints));
    assert!(
        batch_prints.contains(&"doomed:cancelled:0".to_string()),
        "staged cancel runs nothing: {batch_prints:?}"
    );
    assert!(
        tcp_prints
            .iter()
            .any(|p| p.starts_with("doomed:cancelled:")),
        "live cancel must still settle the job as Cancelled: {tcp_prints:?}"
    );
}

#[test]
fn tcp_answers_queries_live_and_rejects_over_high_water() {
    let server = TcpServer::bind(
        "127.0.0.1:0",
        TcpServerConfig {
            scheduler: SchedulerConfig::workers(1),
            max_open_jobs: Some(1),
        },
    )
    .expect("server binds");
    let stream = TcpStream::connect(server.local_addr()).expect("connects");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut send = |line: &RequestLine| {
        writeln!(writer, "{}", json(line)).expect("send");
        writer.flush().expect("flush");
    };
    let mut recv = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("recv");
        serde_json::from_str::<ResponseLine>(line.trim()).expect("response parses")
    };

    // A job too long to ever finish within the test occupies the only
    // open-job slot (it is cancelled below, so the size is free).
    send(&RequestLine::Submit {
        id: "long".into(),
        request: ensemble(16, 20_000, 10_000, 0),
        options: SubmitOptions::default(),
    });
    // ...so the next submission bounces without entering the queue.
    send(&RequestLine::Submit {
        id: "bounced".into(),
        request: ensemble(8, 100, 1, 0),
        options: SubmitOptions::default(),
    });
    match recv() {
        ResponseLine::Rejected {
            id,
            open_jobs,
            limit,
        } => {
            assert_eq!(id, "bounced");
            assert_eq!(open_jobs, 1);
            assert_eq!(limit, 1);
        }
        other => panic!("expected Rejected, got {other:?}"),
    }
    // Live observations answer immediately, as often as asked.
    send(&RequestLine::Status { id: "long".into() });
    assert!(matches!(recv(), ResponseLine::Status { id, .. } if id == "long"));
    send(&RequestLine::Progress { id: "long".into() });
    match recv() {
        ResponseLine::Progress { id, progress } => {
            assert_eq!(id, "long");
            assert_eq!(progress.trials_total, 10_000);
        }
        other => panic!("expected Progress, got {other:?}"),
    }
    // Queries on never-submitted (and rejected) ids fail per line.
    send(&RequestLine::Status {
        id: "bounced".into(),
    });
    match recv() {
        ResponseLine::Failed { id, error } => {
            assert_eq!(id, "bounced");
            assert_eq!(error, "status for unknown id `bounced`");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    // Cancel settles the long job with whatever prefix completed.
    send(&RequestLine::Cancel { id: "long".into() });
    match recv() {
        ResponseLine::Cancelled {
            id,
            completed_trials,
            ..
        } => {
            assert_eq!(id, "long");
            assert!(completed_trials < 10_000);
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    drop(reader);
    drop(writer);
    server.shutdown();
}

#[test]
fn tcp_isolates_bad_lines_and_duplicate_ids() {
    let server = TcpServer::bind(
        "127.0.0.1:0",
        TcpServerConfig {
            scheduler: SchedulerConfig::workers(1),
            max_open_jobs: None,
        },
    )
    .expect("server binds");
    // Line 2 is 200k `[`, which used to overflow the JSON parser's stack
    // and abort the whole server; the nesting limit makes it one more
    // unparsable line, and the lines after it are still served.
    let requests = format!(
        "this is not json\n{}\n{}\n{}\n",
        "[".repeat(200_000),
        json(&RequestLine::Submit {
            id: "a".into(),
            request: ensemble(8, 100, 1, 0),
            options: SubmitOptions::default(),
        }),
        json(&RequestLine::Submit {
            id: "a".into(),
            request: ensemble(8, 100, 1, 9),
            options: SubmitOptions::default(),
        }),
    );
    let mut output = Vec::new();
    drive(
        server.local_addr(),
        BufReader::new(requests.as_bytes()),
        &mut output,
    )
    .expect("drive round-trips");
    server.shutdown();
    let mut lines: Vec<ResponseLine> = output
        .lines()
        .map(|l| serde_json::from_str(&l.expect("read")).expect("parses"))
        .collect();
    lines.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    assert_eq!(lines.len(), 4);
    // Each unparsable line gets a synthesized position id instead of
    // killing the stream (a streaming server cannot abort peers' jobs).
    assert!(lines.iter().any(
        |l| matches!(l, ResponseLine::Failed { id, error } if id == "line-1" && error.starts_with("unparsable")),
    ));
    assert!(lines.iter().any(
        |l| matches!(l, ResponseLine::Failed { id, error } if id == "line-2" && error.contains("depth limit")),
    ));
    assert!(lines.iter().any(
        |l| matches!(l, ResponseLine::Failed { id, error } if id == "a" && error == "duplicate submission id `a`"),
    ));
    assert!(lines
        .iter()
        .any(|l| matches!(l, ResponseLine::Completed { id, .. } if id == "a")));
}

#[test]
fn duplicate_ids_are_rejected_across_connections() {
    // Ids key the journal (and the recover subcommand's output), so
    // uniqueness is server-wide: a second CONNECTION reusing an id must
    // fail exactly like a second line on the same connection.
    let server = TcpServer::bind(
        "127.0.0.1:0",
        TcpServerConfig {
            scheduler: SchedulerConfig::workers(1),
            max_open_jobs: None,
        },
    )
    .expect("server binds");
    let addr = server.local_addr();

    let first = TcpStream::connect(addr).expect("first connects");
    let mut first_reader = BufReader::new(first.try_clone().expect("clone"));
    let mut first_writer = first;
    writeln!(
        first_writer,
        "{}",
        json(&RequestLine::Submit {
            id: "shared-id".into(),
            request: ensemble(8, 100, 1, 0),
            options: SubmitOptions::default(),
        })
    )
    .expect("send");
    first_writer.flush().expect("flush");
    let mut line = String::new();
    first_reader.read_line(&mut line).expect("terminal line");
    assert!(matches!(
        serde_json::from_str::<ResponseLine>(line.trim()).expect("parses"),
        ResponseLine::Completed { id, .. } if id == "shared-id"
    ));

    let second = TcpStream::connect(addr).expect("second connects");
    let mut second_reader = BufReader::new(second.try_clone().expect("clone"));
    let mut second_writer = second;
    writeln!(
        second_writer,
        "{}",
        json(&RequestLine::Submit {
            id: "shared-id".into(),
            request: ensemble(8, 100, 1, 9),
            options: SubmitOptions::default(),
        })
    )
    .expect("send");
    second_writer.flush().expect("flush");
    let mut line = String::new();
    second_reader.read_line(&mut line).expect("failure line");
    match serde_json::from_str::<ResponseLine>(line.trim()).expect("parses") {
        ResponseLine::Failed { id, error } => {
            assert_eq!(id, "shared-id");
            assert_eq!(error, "duplicate submission id `shared-id`");
        }
        other => panic!("expected cross-connection duplicate to fail, got {other:?}"),
    }

    drop((first_reader, first_writer, second_reader, second_writer));
    server.shutdown();
}

#[test]
fn shutdown_unblocks_idle_connections_and_delivers_in_flight_responses() {
    let server = TcpServer::bind(
        "127.0.0.1:0",
        TcpServerConfig {
            scheduler: SchedulerConfig::workers(1),
            max_open_jobs: None,
        },
    )
    .expect("server binds");
    let addr = server.local_addr();
    // An idle client that never sends a byte and never half-closes:
    // before read sides were half-closed at shutdown, this connection
    // alone made shutdown hang forever.
    let idle = TcpStream::connect(addr).expect("idle connects");
    // A client whose job completes but who also keeps the line open.
    let busy = TcpStream::connect(addr).expect("busy connects");
    let mut busy_reader = BufReader::new(busy.try_clone().expect("clone"));
    let mut busy_writer = busy;
    writeln!(
        busy_writer,
        "{}",
        json(&RequestLine::Submit {
            id: "quick".into(),
            request: ensemble(8, 100, 1, 0),
            options: SubmitOptions::default(),
        })
    )
    .expect("send");
    busy_writer.flush().expect("flush");
    let mut line = String::new();
    busy_reader.read_line(&mut line).expect("terminal line");
    assert!(matches!(
        serde_json::from_str::<ResponseLine>(line.trim()).expect("parses"),
        ResponseLine::Completed { id, .. } if id == "quick"
    ));

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("shutdown must not hang on connections that never close");
    // The server's sockets are gone; both clients now read EOF.
    let mut eof = String::new();
    assert_eq!(
        BufReader::new(idle).read_line(&mut eof).expect("idle eof"),
        0
    );
    assert_eq!(busy_reader.read_line(&mut eof).expect("busy eof"), 0);
}

#[test]
fn status_round_trips_do_not_wait_for_delayed_acks() {
    let server = TcpServer::bind(
        "127.0.0.1:0",
        TcpServerConfig {
            scheduler: SchedulerConfig::workers(1),
            max_open_jobs: None,
        },
    )
    .expect("server binds");
    let stream = TcpStream::connect(server.local_addr()).expect("connects");
    // The client sends each request as one segment, so any stall
    // measured below is the server's.
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut round_trip = |line: &RequestLine| {
        writer
            .write_all(format!("{}\n", json(line)).as_bytes())
            .expect("send");
        let mut response = String::new();
        reader.read_line(&mut response).expect("recv");
        serde_json::from_str::<ResponseLine>(response.trim()).expect("response parses")
    };
    let submit = RequestLine::Submit {
        id: "quick".into(),
        request: ensemble(8, 100, 1, 0),
        options: SubmitOptions::default(),
    };
    assert!(matches!(
        round_trip(&submit),
        ResponseLine::Completed { .. }
    ));
    // A response written as two segments (the JSON, then its newline)
    // holds the second one until the client's delayed ACK, ~40 ms per
    // round trip; one segment per line answers in well under 1 ms.
    let start = std::time::Instant::now();
    for _ in 0..20 {
        let status = RequestLine::Status { id: "quick".into() };
        assert!(matches!(
            round_trip(&status),
            ResponseLine::Status {
                status: JobStatus::Completed,
                ..
            }
        ));
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(400),
        "20 Status round trips took {elapsed:?}"
    );
    drop((reader, writer));
    server.shutdown();
}

#[test]
fn over_long_request_line_fails_by_position_and_the_connection_keeps_serving() {
    let server = TcpServer::bind(
        "127.0.0.1:0",
        TcpServerConfig {
            scheduler: SchedulerConfig::workers(1),
            max_open_jobs: None,
        },
    )
    .expect("server binds");
    let stream = TcpStream::connect(server.local_addr()).expect("connects");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = std::io::BufWriter::new(stream);
    // One byte over the cap, streamed rather than held in memory.
    let too_long = (MAX_REQUEST_LINE_BYTES + 1) as u64;
    std::io::copy(&mut std::io::repeat(b' ').take(too_long), &mut writer).expect("send");
    writeln!(writer).expect("send");
    writeln!(writer, "{}", json(&RequestLine::Status { id: "x".into() })).expect("send");
    writer.flush().expect("flush");
    writer
        .get_ref()
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let lines: Vec<ResponseLine> = reader
        .lines()
        .map(|l| serde_json::from_str(&l.expect("recv")).expect("response parses"))
        .collect();
    server.shutdown();
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert!(matches!(
        &lines[0],
        ResponseLine::Failed { id, error } if id == "line-1" && error.contains("byte limit")
    ));
    assert!(matches!(
        &lines[1],
        ResponseLine::Failed { id, error } if id == "x" && error == "status for unknown id `x`"
    ));
}

#[test]
fn invalid_solver_configs_fail_their_own_line_and_the_connection_keeps_serving() {
    // The fixture's eight solver configs would each trip an engine
    // assertion past `Session::prepare`; its ninth, valid line follows
    // them on the same connection. A panic would take down the only
    // worker and leave the client waiting, so the client runs on a
    // helper thread and the test fails after a timeout instead.
    let fixture = std::fs::read_to_string(
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join("serve_invalid_solvers.jsonl"),
    )
    .expect("fixture committed");
    let server = TcpServer::bind(
        "127.0.0.1:0",
        TcpServerConfig {
            scheduler: SchedulerConfig::workers(1),
            max_open_jobs: None,
        },
    )
    .expect("server binds");
    let (sender, receiver) = std::sync::mpsc::channel();
    let (address, input) = (server.local_addr(), fixture.clone());
    std::thread::spawn(move || {
        let mut output = Vec::new();
        let received = drive(address, BufReader::new(input.as_bytes()), &mut output);
        let _ = sender.send((received, output));
    });
    let (received, output) = receiver
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("the connection is answered instead of hanging");
    server.shutdown();
    assert_eq!(received.expect("drive round-trips"), 9);
    let responses = check_responses_against(
        BufReader::new(fixture.as_bytes()),
        BufReader::new(output.as_slice()),
    )
    .expect("one terminal line per submission");
    let failed = responses
        .iter()
        .filter(|line| matches!(line, ResponseLine::Failed { .. }))
        .count();
    assert_eq!(failed, 8, "{responses:?}");
    assert!(
        responses
            .iter()
            .any(|line| matches!(line, ResponseLine::Completed { id, .. } if id == "valid-ring")),
        "{responses:?}"
    );
}

// ---------------------------------------------------------------------
// Journal durability
// ---------------------------------------------------------------------

/// The workload of the crash matrix: three named jobs, heterogeneous
/// backends, long enough that an 8-worker run interleaves them.
fn journal_workload() -> Vec<(&'static str, SolveRequest)> {
    vec![
        ("a", ensemble(12, 300, 4, 11).with_reference(12.0)),
        (
            "b",
            ensemble(24, 120, 3, 41).with_backend(fecim::BackendPlan::Batched {
                tile_rows: 8,
                instances: 2,
            }),
        ),
        ("c", ensemble(16, 150, 2, 5)),
    ]
}

/// Run the workload journaled to `path`, return fingerprints by name.
fn journaled_run(path: &PathBuf, workers: usize) -> Vec<(String, String)> {
    let scheduler = Scheduler::try_with_config(
        SchedulerConfig::workers(workers)
            .start_paused()
            .with_journal(path),
    )
    .expect("journal opens");
    let handles: Vec<_> = journal_workload()
        .into_iter()
        .map(|(name, request)| {
            (
                name,
                scheduler.submit_named(Some(name), request, SubmitOptions::default()),
            )
        })
        .collect();
    scheduler.resume();
    let fingerprints = handles
        .into_iter()
        .map(|(name, handle)| {
            (
                name.to_string(),
                result_fingerprint(&handle.wait().expect("job completes")),
            )
        })
        .collect();
    scheduler.join();
    fingerprints
}

/// Replay `records` (written to a fresh journal file) on a paused
/// scheduler and return the recovered jobs' fingerprints by name.
fn replay(records: &[JournalRecord], workers: usize) -> Vec<(String, String)> {
    let crash = TempPath::new("crash");
    write_records(&crash.0, records);
    let scheduler = Scheduler::with_config(SchedulerConfig::workers(workers).start_paused());
    let recovered = scheduler.recover(&crash.0).expect("journal replays");
    scheduler.resume();
    let fingerprints = recovered
        .into_iter()
        .map(|job| {
            (
                job.name.expect("named submissions"),
                result_fingerprint(&job.handle.wait().expect("replayed job completes")),
            )
        })
        .collect();
    scheduler.join();
    fingerprints
}

#[test]
fn crash_point_matrix_replays_bit_identically_at_1_and_8_workers() {
    let expected: Vec<(String, String)> = journal_workload()
        .iter()
        .map(|(name, request)| {
            (
                name.to_string(),
                result_fingerprint(&Session::new().run(request).expect("session runs")),
            )
        })
        .collect();
    let expect = |name: &str| {
        expected
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, f)| f.clone())
            .expect("known name")
    };
    for workers in [1, 8] {
        // The uncrashed journaled run is itself bit-identical...
        let journal = TempPath::new("full");
        for (name, fingerprint) in journaled_run(&journal.0, workers) {
            assert_eq!(
                fingerprint,
                expect(&name),
                "uncrashed run, {workers} workers"
            );
        }
        let records = read_journal(&journal.0).expect("journal reads");

        // ...and so is every crash point's replay. Crash 1: after the
        // last submit — every job pending, nothing finalized.
        let last_submit = records
            .iter()
            .rposition(|r| matches!(r, JournalRecord::Submitted { .. }))
            .expect("submissions journaled");
        let after_submit = replay(&records[..=last_submit], workers);
        assert_eq!(after_submit.len(), 3, "all three jobs replay");
        for (name, fingerprint) in after_submit {
            assert_eq!(
                fingerprint,
                expect(&name),
                "crash after submit, {workers} workers"
            );
        }

        // Crash 2: mid-trial — some TrialDone records on disk, no
        // terminal record for at least the last job.
        let mid = last_submit + (records.len() - last_submit) / 2;
        let prefix = &records[..mid];
        let finalized: Vec<u64> = prefix
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Finalized { job, .. } => Some(*job),
                _ => None,
            })
            .collect();
        let pending_names: Vec<String> = prefix
            .iter()
            .filter_map(|r| match r {
                JournalRecord::Submitted { job, name, .. } if !finalized.contains(job) => {
                    Some(name.clone().expect("named"))
                }
                _ => None,
            })
            .collect();
        assert!(
            !pending_names.is_empty(),
            "the mid-trial crash point must leave work pending"
        );
        let mid_replay = replay(prefix, workers);
        assert_eq!(
            mid_replay
                .iter()
                .map(|(n, _)| n.clone())
                .collect::<Vec<_>>(),
            pending_names,
            "exactly the unfinalized jobs replay, in submission order"
        );
        for (name, fingerprint) in mid_replay {
            assert_eq!(
                fingerprint,
                expect(&name),
                "mid-trial replay re-runs from trial zero to the same bits"
            );
        }

        // Crash 3: pre-finalize — everything ran, the last terminal
        // record never hit the disk. Exactly one job replays.
        let last_finalize = records
            .iter()
            .rposition(|r| matches!(r, JournalRecord::Finalized { .. }))
            .expect("finalizations journaled");
        let pre_finalize = replay(&records[..last_finalize], workers);
        assert_eq!(pre_finalize.len(), 1, "only the torn-off job replays");
        let (name, fingerprint) = &pre_finalize[0];
        assert_eq!(
            fingerprint,
            &expect(name),
            "pre-finalize crash, {workers} workers"
        );
    }
}

#[test]
fn dropped_scheduler_leaves_its_jobs_replayable() {
    // A dropped scheduler fails open handles with `Shutdown` — which is
    // deliberately NOT journaled, so a real in-process "crash" leaves
    // the journal replayable.
    let journal = TempPath::new("drop");
    let request = ensemble(12, 300, 4, 11);
    let expected = result_fingerprint(&Session::new().run(&request).expect("session runs"));
    let scheduler = Scheduler::try_with_config(
        SchedulerConfig::workers(1)
            .start_paused()
            .with_journal(&journal.0),
    )
    .expect("journal opens");
    let handle = scheduler.submit_named(Some("orphan"), request, SubmitOptions::default());
    drop(scheduler);
    assert!(matches!(handle.wait(), Err(SchedulerError::Shutdown)));

    let records = read_journal(&journal.0).expect("journal reads");
    let replayed = replay(&records, 1);
    assert_eq!(replayed.len(), 1);
    assert_eq!(replayed[0].0, "orphan");
    assert_eq!(replayed[0].1, expected);
}

#[test]
fn recovery_with_a_journal_supersedes_and_converges() {
    // Recovering *into* the same journal marks the crashed ids
    // Superseded, so a second crash-and-recover cycle replays the new
    // ids, not the old ones twice.
    let journal = TempPath::new("supersede");
    let request = ensemble(12, 300, 2, 7);
    {
        let scheduler = Scheduler::try_with_config(
            SchedulerConfig::workers(1)
                .start_paused()
                .with_journal(&journal.0),
        )
        .expect("journal opens");
        let _handle = scheduler.submit_named(Some("x"), request, SubmitOptions::default());
        drop(scheduler); // crash before any trial
    }
    // First recovery appends Superseded{old, new} plus the replayed
    // job's full lifecycle.
    let scheduler = Scheduler::try_with_config(
        SchedulerConfig::workers(1)
            .start_paused()
            .with_journal(&journal.0),
    )
    .expect("journal opens");
    let recovered = scheduler.recover(&journal.0).expect("replays");
    assert_eq!(recovered.len(), 1);
    let old_id = recovered[0].crashed_id;
    let new_id = recovered[0].handle.id();
    scheduler.resume();
    recovered[0].handle.wait().expect("replay completes");
    scheduler.join();
    let records = read_journal(&journal.0).expect("journal reads");
    assert!(records.iter().any(
        |r| matches!(r, JournalRecord::Superseded { job, by } if *job == old_id && *by == new_id)
    ));
    // Second recovery: the old id is superseded, the new id finalized —
    // nothing pending.
    let scheduler = Scheduler::with_config(SchedulerConfig::workers(1).start_paused());
    let recovered = scheduler.recover(&journal.0).expect("replays");
    assert!(recovered.is_empty(), "repeated recovery converges");
    scheduler.resume();
    scheduler.join();
}

#[test]
fn crash_mid_recovery_never_loses_the_job_to_an_id_collision() {
    // A recovery run starts its id counter fresh, so without reseeding
    // it past the journal's maximum id, crashed job 1 replays AS job 1
    // and the `Superseded { job: 1, by: 1 }` record erases both
    // `Submitted` entries from the next replay — the job would vanish.
    let journal = TempPath::new("mid-recovery");
    let request = ensemble(12, 300, 2, 7);
    let expected = result_fingerprint(&Session::new().run(&request).expect("session runs"));
    {
        let scheduler = Scheduler::try_with_config(
            SchedulerConfig::workers(1)
                .start_paused()
                .with_journal(&journal.0),
        )
        .expect("journal opens");
        let _handle = scheduler.submit_named(Some("x"), request, SubmitOptions::default());
        drop(scheduler); // crash 1: journal holds only Submitted{1}
    }
    {
        // Recovery journaling into the same file appends the replayed
        // Submitted and its Superseded record...
        let scheduler = Scheduler::try_with_config(
            SchedulerConfig::workers(1)
                .start_paused()
                .with_journal(&journal.0),
        )
        .expect("journal opens");
        let recovered = scheduler.recover(&journal.0).expect("replays");
        assert_eq!(recovered.len(), 1);
        assert!(
            recovered[0].handle.id() > recovered[0].crashed_id,
            "replayed id {} must not collide with crashed id {}",
            recovered[0].handle.id(),
            recovered[0].crashed_id
        );
        drop(scheduler); // crash 2: mid-recovery, before the replay ran
    }
    // The second recovery must replay exactly one job — not zero (the
    // collision bug) and not two (the old id is superseded) — to the
    // same bits as an uncrashed run.
    let scheduler = Scheduler::with_config(SchedulerConfig::workers(1).start_paused());
    let recovered = scheduler.recover(&journal.0).expect("replays");
    assert_eq!(recovered.len(), 1, "the job survives a crash mid-recovery");
    assert_eq!(recovered[0].name.as_deref(), Some("x"));
    scheduler.resume();
    assert_eq!(
        result_fingerprint(&recovered[0].handle.wait().expect("replay completes")),
        expected
    );
    scheduler.join();

    // The torn window — crashing after the replayed Submitted but
    // before its Superseded record hit the disk — degrades to duplicate
    // work, never loss.
    let submits: Vec<JournalRecord> = read_journal(&journal.0)
        .expect("journal reads")
        .into_iter()
        .filter(|r| matches!(r, JournalRecord::Submitted { .. }))
        .take(2)
        .collect();
    let torn = TempPath::new("torn-window");
    write_records(&torn.0, &submits);
    let scheduler = Scheduler::with_config(SchedulerConfig::workers(1).start_paused());
    let recovered = scheduler.recover(&torn.0).expect("replays");
    assert_eq!(
        recovered.len(),
        2,
        "a torn Submitted/Superseded window duplicates work, never loses it"
    );
    scheduler.resume();
    for job in recovered {
        assert_eq!(
            result_fingerprint(&job.handle.wait().expect("duplicate completes")),
            expected
        );
    }
    scheduler.join();
}

#[test]
fn journaled_cancel_replays_as_cancellation() {
    // Submitted + CancelRequested with no terminal record: the crash
    // happened with a cancellation in flight. Replay must honor it
    // without running the ensemble.
    let journal = TempPath::new("cancel");
    let seed = TempPath::new("cancel-seed");
    {
        let scheduler = Scheduler::try_with_config(
            SchedulerConfig::workers(1)
                .start_paused()
                .with_journal(&seed.0),
        )
        .expect("journal opens");
        let _handle = scheduler.submit_named(
            Some("halted"),
            ensemble(16, 5000, 8, 0),
            SubmitOptions::default(),
        );
        drop(scheduler);
    }
    let mut records = read_journal(&seed.0).expect("journal reads");
    let job = records[0].job();
    records.push(JournalRecord::CancelRequested { job });
    write_records(&journal.0, &records);

    let scheduler = Scheduler::with_config(SchedulerConfig::workers(1).start_paused());
    let recovered = scheduler.recover(&journal.0).expect("replays");
    assert_eq!(recovered.len(), 1);
    assert!(recovered[0].cancel_requested);
    scheduler.resume();
    match recovered[0].handle.wait() {
        Err(SchedulerError::Cancelled { completed, .. }) => assert_eq!(completed, 0),
        other => panic!("expected Cancelled, got {other:?}"),
    }
    scheduler.join();
}

#[test]
fn torn_final_journal_line_is_tolerated_and_earlier_corruption_is_not() {
    let journal = TempPath::new("torn");
    {
        let scheduler = Scheduler::try_with_config(
            SchedulerConfig::workers(1)
                .start_paused()
                .with_journal(&journal.0),
        )
        .expect("journal opens");
        let _handle =
            scheduler.submit_named(Some("t"), ensemble(8, 100, 1, 0), SubmitOptions::default());
        drop(scheduler);
    }
    let intact = read_journal(&journal.0).expect("journal reads").len();
    // A crash mid-append tears the final line: ignored.
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&journal.0)
        .expect("reopen");
    write!(file, "{{\"TrialDone\":{{\"job\":1,").expect("tear");
    drop(file);
    assert_eq!(
        read_journal(&journal.0).expect("tolerates torn tail").len(),
        intact
    );
    // Corruption anywhere else is a hard error.
    let mut lines: Vec<String> = std::fs::read_to_string(&journal.0)
        .expect("read")
        .lines()
        .map(str::to_string)
        .collect();
    lines.insert(0, "garbage".into());
    std::fs::write(&journal.0, lines.join("\n")).expect("rewrite");
    assert!(
        read_journal(&journal.0).is_err(),
        "non-final corruption must not be silently skipped"
    );
}
