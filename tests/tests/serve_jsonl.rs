//! The `fecim-serve` JSONL transport: protocol round-trips, the
//! committed smoke fixture (which CI also feeds to the real binary),
//! and the end-to-end serve loop semantics — responses in submission
//! order, deterministic cancellation, per-line failure isolation.

use std::io::{BufReader, Read as _};
use std::path::{Path, PathBuf};

use fecim::gset::{GeneratorConfig, GsetFamily};
use fecim::{CimAnnealer, ProblemSpec, RunPlan, SolveRequest, SolverSpec};
use fecim_serve::{
    check_responses, check_responses_against, jsonl::MAX_REQUEST_LINE_BYTES, run_jsonl, JsonlError,
    RequestLine, ResponseLine, SchedulerConfig, SubmitOptions,
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

/// The CI smoke fixture: three submissions (a Max-Cut ensemble, a raw
/// QUBO, and a long Max-Cut), the last one cancelled in-stream — plus
/// a cancel for an id the stream never submits, which must get its own
/// `Failed` line instead of being silently swallowed.
fn fixture_lines() -> Vec<RequestLine> {
    vec![
        RequestLine::Submit {
            id: "ring".into(),
            request: ring_request(12, 400).with_run(RunPlan::Ensemble {
                trials: 3,
                base_seed: 7,
                threads: None,
            }),
            options: SubmitOptions::priority(1),
        },
        RequestLine::Submit {
            id: "qubo".into(),
            request: SolveRequest::new(
                ProblemSpec::Qubo {
                    q: vec![
                        vec![-1.0, 2.0, 0.0],
                        vec![0.0, -1.0, 2.0],
                        vec![0.0, 0.0, -1.0],
                    ],
                },
                SolverSpec::Cim(CimAnnealer::new(300).with_flips(1)),
            )
            .with_run(RunPlan::Single { seed: 2 }),
            options: SubmitOptions::default(),
        },
        RequestLine::Submit {
            id: "doomed".into(),
            // Far too large to ever finish: in the staged transport the
            // cancel applies before anything runs (free), and in the
            // streaming transport it guarantees the in-stream cancel
            // always beats completion instead of racing it.
            request: ring_request(16, 20_000).with_run(RunPlan::Ensemble {
                trials: 100_000,
                base_seed: 0,
                threads: None,
            }),
            options: SubmitOptions::default().with_tag("smoke"),
        },
        RequestLine::Cancel {
            id: "doomed".into(),
        },
        RequestLine::Cancel { id: "ghost".into() },
    ]
}

fn fixture_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join("serve_smoke.jsonl")
}

/// Solver keys the protocol no longer writes. The committed fixture
/// keeps them on purpose: serving it pins that an older client's lines
/// still decode, because the decoder skips unknown keys.
const RETIRED_SOLVER_KEYS: [&str; 2] = [
    "\"device_in_loop\":null,\"tile_rows\":null,",
    ",\"quant_bits\":4,\"mux_ratio\":8",
];

/// The committed fixture must stay in sync with the protocol types,
/// up to the [`RETIRED_SOLVER_KEYS`] it carries. Regenerate with
/// `FIXTURE_REGEN=1 cargo test -p fecim-tests --test serve_jsonl` after
/// an intentional protocol change.
#[test]
fn committed_smoke_fixture_matches_protocol() {
    let mut expected = String::new();
    for line in fixture_lines() {
        expected.push_str(&serde_json::to_string(&line).expect("protocol serializes"));
        expected.push('\n');
    }
    let path = fixture_path();
    if std::env::var("FIXTURE_REGEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create fixtures dir");
        std::fs::write(&path, &expected).expect("write fixture");
        eprintln!("regenerated {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {}: {e}\nrun `FIXTURE_REGEN=1 cargo test -p fecim-tests --test \
             serve_jsonl` to create it",
            path.display()
        )
    });
    let current = RETIRED_SOLVER_KEYS
        .iter()
        .fold(committed.clone(), |text, key| text.replace(key, ""));
    assert_eq!(current, expected, "fixture drifted from the protocol");
    // And every committed line parses back to the builder's value.
    for (line, built) in committed.lines().zip(fixture_lines()) {
        let parsed: RequestLine = serde_json::from_str(line).expect("fixture parses");
        assert_eq!(parsed, built);
    }
}

#[test]
fn serving_the_smoke_fixture_completes_two_and_cancels_one() {
    let fixture = std::fs::read_to_string(fixture_path()).expect("fixture committed");
    let mut output = Vec::new();
    let summary = run_jsonl(
        BufReader::new(fixture.as_bytes()),
        &mut output,
        SchedulerConfig::workers(2),
    )
    .expect("stream serves");
    assert_eq!(summary.submitted, 3);
    assert_eq!(summary.completed, 2);
    assert_eq!(summary.cancelled, 1);
    assert_eq!(summary.failed, 1, "the ghost cancel fails its own line");

    let responses = check_responses(BufReader::new(output.as_slice())).expect("responses parse");
    assert_eq!(
        responses.len(),
        4,
        "one response line per actionable input line"
    );
    // Responses come back in submission order, whatever ran first;
    // cancel errors trail the submissions.
    assert_eq!(
        responses.iter().map(ResponseLine::id).collect::<Vec<_>>(),
        vec!["ring", "qubo", "doomed", "ghost"]
    );
    // And the full per-id contract holds against the request stream.
    check_responses_against(
        BufReader::new(fixture.as_bytes()),
        BufReader::new(output.as_slice()),
    )
    .expect("fixture responses check out against the fixture requests");
    match &responses[0] {
        ResponseLine::Completed { response, .. } => {
            assert_eq!(response.reports.len(), 3);
            assert!(
                response.summary.best_objective.unwrap() >= 10.0,
                "12-ring cut"
            );
        }
        other => panic!("expected Completed, got {other:?}"),
    }
    match &responses[1] {
        ResponseLine::Completed { response, .. } => {
            // Optimum of the chain QUBO picks x0 and x2: value −2.
            assert_eq!(response.summary.best_objective, Some(-2.0));
        }
        other => panic!("expected Completed, got {other:?}"),
    }
    match &responses[2] {
        ResponseLine::Cancelled {
            completed_trials,
            partial,
            ..
        } => {
            // Cancelled while the scheduler was still paused: nothing ran.
            assert_eq!(*completed_trials, 0);
            assert!(partial.is_none());
        }
        other => panic!("expected Cancelled, got {other:?}"),
    }
    match &responses[3] {
        ResponseLine::Failed { error, .. } => {
            assert_eq!(error, "cancel for unknown id `ghost`");
        }
        other => panic!("expected Failed, got {other:?}"),
    }
}

#[test]
fn cancel_before_its_submission_still_applies() {
    // The whole stream is staged before execution, so a cancel that
    // precedes its submit in the byte stream beats the worker pool too.
    let cancel = serde_json::to_string(&RequestLine::Cancel { id: "late".into() }).unwrap();
    let submit = serde_json::to_string(&RequestLine::Submit {
        id: "late".into(),
        request: ring_request(16, 5000).with_run(RunPlan::Ensemble {
            trials: 8,
            base_seed: 0,
            threads: None,
        }),
        options: SubmitOptions::default(),
    })
    .unwrap();
    let mut output = Vec::new();
    let summary = run_jsonl(
        BufReader::new(format!("{cancel}\n{submit}\n").as_bytes()),
        &mut output,
        SchedulerConfig::workers(2),
    )
    .expect("stream serves");
    assert_eq!(summary.submitted, 1);
    assert_eq!(summary.cancelled, 1);
    assert_eq!(summary.failed, 0, "a forward cancel is not an error");
    let responses = check_responses(BufReader::new(output.as_slice())).expect("responses parse");
    assert!(matches!(
        &responses[0],
        ResponseLine::Cancelled {
            completed_trials: 0,
            ..
        }
    ));
}

#[test]
fn unknown_cancel_and_duplicate_ids_fail_per_line() {
    let ok = serde_json::to_string(&RequestLine::Submit {
        id: "a".into(),
        request: ring_request(8, 100),
        options: SubmitOptions::default(),
    })
    .unwrap();
    let dup = serde_json::to_string(&RequestLine::Submit {
        id: "a".into(),
        request: ring_request(8, 100),
        options: SubmitOptions::default(),
    })
    .unwrap();
    let ghost = serde_json::to_string(&RequestLine::Cancel { id: "ghost".into() }).unwrap();
    let stream = format!("{ok}\n\n{dup}\n{ghost}\n");
    let mut output = Vec::new();
    let summary = run_jsonl(
        BufReader::new(stream.as_bytes()),
        &mut output,
        SchedulerConfig::workers(1),
    )
    .expect("stream serves");
    assert_eq!(summary.submitted, 1);
    assert_eq!(summary.completed, 1);
    assert_eq!(summary.failed, 2, "duplicate id + unknown cancel");
    let responses = check_responses(BufReader::new(output.as_slice())).expect("responses parse");
    assert_eq!(responses.len(), 3);
    assert!(matches!(&responses[0], ResponseLine::Completed { id, .. } if id == "a"));
    assert!(matches!(&responses[1], ResponseLine::Failed { id, .. } if id == "a"));
    assert!(matches!(&responses[2], ResponseLine::Failed { id, .. } if id == "ghost"));
}

#[test]
fn malformed_lines_are_a_stream_error_with_position() {
    // The second input is one line of 200k `[`, which used to overflow
    // the JSON parser's stack and abort the process; the parser's
    // nesting limit makes it an ordinary positioned parse error.
    let valid = serde_json::to_string(&RequestLine::Submit {
        id: "before".into(),
        request: ring_request(8, 100),
        options: SubmitOptions::default(),
    })
    .unwrap();
    for (input, bad_line) in [
        ("{\"Submit\":{\"id\":oops\n".to_string(), 1),
        (format!("{valid}\n{}\n", "[".repeat(200_000)), 2),
    ] {
        let err = run_jsonl(
            BufReader::new(input.as_bytes()),
            Vec::new(),
            SchedulerConfig::workers(1),
        )
        .expect_err("malformed line");
        match err {
            JsonlError::Parse { line, .. } => assert_eq!(line, bad_line),
            other => panic!("expected Parse, got {other}"),
        }
    }
}

#[test]
fn escaped_non_bmp_ids_come_back_as_their_code_points() {
    // Python's default `json.dumps` writes every non-BMP character as a
    // surrogate-pair escape; the terminal line must answer the id the
    // client meant, written as raw UTF-8.
    let line = serde_json::to_string(&RequestLine::Submit {
        id: "job-😀".into(),
        request: ring_request(6, 50),
        options: SubmitOptions::default(),
    })
    .unwrap()
    .replace("job-😀", "job-\\ud83d\\ude00");
    assert!(line.contains(r"\ud83d\ude00"), "{line}");
    let mut out = Vec::new();
    run_jsonl(
        BufReader::new(format!("{line}\n").as_bytes()),
        &mut out,
        SchedulerConfig::workers(1),
    )
    .expect("the line parses");
    let out = String::from_utf8(out).unwrap();
    assert!(out.contains("\"job-😀\""), "{out}");
    let responses = check_responses(BufReader::new(out.as_bytes())).unwrap();
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].id(), "job-😀");
    assert!(matches!(responses[0], ResponseLine::Completed { .. }));
}

#[test]
fn over_long_lines_are_a_stream_error_with_position() {
    let valid = serde_json::to_string(&RequestLine::Submit {
        id: "before".into(),
        request: ring_request(8, 100),
        options: SubmitOptions::default(),
    })
    .unwrap();
    // Line 2 is one byte over the cap, streamed rather than held in
    // memory.
    let too_long = std::io::repeat(b' ').take((MAX_REQUEST_LINE_BYTES + 1) as u64);
    let input = std::io::Cursor::new(format!("{valid}\n"))
        .chain(too_long)
        .chain(&b"\n"[..]);
    let err = run_jsonl(
        BufReader::new(input),
        Vec::new(),
        SchedulerConfig::workers(1),
    )
    .expect_err("over-long line");
    match err {
        JsonlError::Parse { line, message } => {
            assert_eq!(line, 2);
            assert!(message.contains("byte limit"), "{message}");
        }
        other => panic!("expected Parse, got {other}"),
    }
}

#[test]
fn invalid_requests_inside_valid_lines_fail_their_own_job() {
    // A structurally valid line whose *request* is rejected at prepare
    // time (non-square Q): the stream keeps serving.
    let bad = serde_json::to_string(&RequestLine::Submit {
        id: "bad-q".into(),
        request: SolveRequest::new(
            ProblemSpec::Qubo {
                q: vec![vec![1.0, 2.0], vec![0.0]],
            },
            SolverSpec::Cim(CimAnnealer::new(100)),
        ),
        options: SubmitOptions::default(),
    })
    .unwrap();
    let ok = serde_json::to_string(&RequestLine::Submit {
        id: "ok".into(),
        request: ring_request(8, 200),
        options: SubmitOptions::default(),
    })
    .unwrap();
    let mut output = Vec::new();
    let summary = run_jsonl(
        BufReader::new(format!("{bad}\n{ok}\n").as_bytes()),
        &mut output,
        SchedulerConfig::workers(1),
    )
    .expect("stream serves");
    assert_eq!(summary.completed, 1);
    assert_eq!(summary.failed, 1);
    let responses = check_responses(BufReader::new(output.as_slice())).expect("responses parse");
    assert!(
        matches!(&responses[0], ResponseLine::Failed { id, error } if id == "bad-q" && error.contains("dimension")),
        "got {:?}",
        responses[0]
    );
}

#[test]
fn overflowing_qubo_payloads_fail_their_own_line_and_the_next_is_served() {
    // Finite entries whose sums overflow: a pair sum `q[0][1] + q[1][0]`
    // (from_matrix) and ten diagonal terms whose energy offset passes
    // f64::MAX (to_ising). Each line gets one typed failure, the worker
    // survives, and the line after each is still served.
    let submit = |id: &str, request: SolveRequest| {
        serde_json::to_string(&RequestLine::Submit {
            id: id.into(),
            request,
            options: SubmitOptions::default(),
        })
        .unwrap()
    };
    let qubo = |q: Vec<Vec<f64>>| {
        SolveRequest::new(
            ProblemSpec::Qubo { q },
            SolverSpec::Cim(CimAnnealer::new(50)),
        )
    };
    let pair = qubo(vec![vec![0.0, 1e308], vec![1e308, 0.0]]);
    let diagonal = qubo(
        (0..10)
            .map(|i| (0..10).map(|j| if i == j { 1e308 } else { 0.0 }).collect())
            .collect(),
    );
    let lines = [
        submit("pair", pair),
        submit("after-pair", ring_request(8, 100)),
        submit("offset", diagonal),
        submit("after-offset", ring_request(8, 100)),
    ];
    let mut output = Vec::new();
    let summary = run_jsonl(
        BufReader::new(format!("{}\n", lines.join("\n")).as_bytes()),
        &mut output,
        SchedulerConfig::workers(1),
    )
    .expect("stream serves");
    assert_eq!((summary.completed, summary.failed), (2, 2));
    let responses = check_responses(BufReader::new(output.as_slice())).expect("responses parse");
    let failure = |want: &str| {
        responses
            .iter()
            .filter_map(|line| match line {
                ResponseLine::Failed { id, error } if id == want => Some(error.clone()),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(failure("pair"), ["non-finite coupling at (0, 1)"]);
    let offset = failure("offset");
    assert!(
        offset.len() == 1 && offset[0].contains("offset"),
        "{offset:?}"
    );
    for id in ["after-pair", "after-offset"] {
        assert!(
            responses
                .iter()
                .any(|line| matches!(line, ResponseLine::Completed { id: done, .. } if done == id)),
            "{id} is served: {responses:?}"
        );
    }
}

#[test]
fn unusable_generated_specs_fail_their_own_line_and_the_next_is_served() {
    // A mean degree of -1 would generate the complete graph: the wire
    // spec never ran the builder's assertion, so the session checks it.
    let generated = |mean_degree| {
        SolveRequest::new(
            ProblemSpec::Generated(GeneratorConfig {
                vertex_count: 60,
                family: GsetFamily::RandomUnit,
                mean_degree,
                seed: 3,
            }),
            SolverSpec::Cim(CimAnnealer::new(50)),
        )
    };
    let submit = |id: &str, request: SolveRequest| {
        serde_json::to_string(&RequestLine::Submit {
            id: id.into(),
            request,
            options: SubmitOptions::default(),
        })
        .unwrap()
    };
    let lines = [
        submit("negative", generated(-1.0)),
        submit("after-negative", ring_request(8, 100)),
        submit("zero", generated(0.0)),
        submit("positive", generated(4.0)),
    ];
    let mut output = Vec::new();
    let summary = run_jsonl(
        BufReader::new(format!("{}\n", lines.join("\n")).as_bytes()),
        &mut output,
        SchedulerConfig::workers(1),
    )
    .expect("stream serves");
    assert_eq!((summary.completed, summary.failed), (2, 2));
    let responses = check_responses(BufReader::new(output.as_slice())).expect("responses parse");
    for id in ["negative", "zero"] {
        let failures: Vec<_> = responses
            .iter()
            .filter(|line| matches!(line, ResponseLine::Failed { id: failed, error } if failed == id && error.contains("mean degree")))
            .collect();
        assert_eq!(failures.len(), 1, "{id}: {responses:?}");
    }
    for id in ["after-negative", "positive"] {
        assert!(
            responses
                .iter()
                .any(|line| matches!(line, ResponseLine::Completed { id: done, .. } if done == id)),
            "{id} is served: {responses:?}"
        );
    }
}

#[test]
fn invalid_solver_configs_fail_their_own_line_and_the_next_is_served() {
    // Eight solver configs that each trip an engine assertion if they
    // get past `Session::prepare` (zero flips, an empty table, a pole in
    // the fractional factor's range, a negative E_inc scale, T0 or end
    // fraction, zero MESA epochs), then one valid ring. A panic would
    // take down the only worker and hang the stream, so the stream runs
    // on a helper thread and the test fails after a timeout instead.
    let fixture = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join("serve_invalid_solvers.jsonl"),
    )
    .expect("fixture committed");
    let (sender, receiver) = std::sync::mpsc::channel();
    let input = fixture.clone();
    std::thread::spawn(move || {
        let mut output = Vec::new();
        let summary = run_jsonl(
            BufReader::new(input.as_bytes()),
            &mut output,
            SchedulerConfig::workers(1),
        );
        let _ = sender.send((summary, output));
    });
    let (summary, output) = receiver
        .recv_timeout(std::time::Duration::from_secs(60))
        .expect("the stream is answered instead of hanging");
    let summary = summary.expect("stream serves");
    assert_eq!((summary.completed, summary.failed), (1, 8));
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
        matches!(responses.last(), Some(ResponseLine::Completed { id, .. }) if id == "valid-ring"),
        "{responses:?}"
    );
}

#[test]
fn status_and_progress_are_answered_at_stage_time() {
    // The batch transport stages before executing, so point-in-time
    // queries deterministically observe `Queued` for earlier-submitted
    // ids and fail for unknown ones — written before the terminals.
    let submit = serde_json::to_string(&RequestLine::Submit {
        id: "job".into(),
        request: ring_request(8, 100),
        options: SubmitOptions::default(),
    })
    .unwrap();
    let status = serde_json::to_string(&RequestLine::Status { id: "job".into() }).unwrap();
    let progress = serde_json::to_string(&RequestLine::Progress { id: "job".into() }).unwrap();
    let early = serde_json::to_string(&RequestLine::Status { id: "job".into() }).unwrap();
    let stream = format!("{early}\n{submit}\n{status}\n{progress}\n");
    let mut output = Vec::new();
    let summary = run_jsonl(
        BufReader::new(stream.as_bytes()),
        &mut output,
        SchedulerConfig::workers(1),
    )
    .expect("stream serves");
    assert_eq!(summary.submitted, 1);
    assert_eq!(summary.completed, 1);
    assert_eq!(summary.observations, 2, "the two post-submit queries");
    assert_eq!(summary.failed, 1, "the pre-submit query sees no job yet");
    let responses = check_responses(BufReader::new(output.as_slice())).expect("responses parse");
    assert_eq!(responses.len(), 4);
    assert!(
        matches!(&responses[0], ResponseLine::Failed { id, error } if id == "job" && error == "status for unknown id `job`")
    );
    assert!(
        matches!(&responses[1], ResponseLine::Status { id, status } if id == "job" && *status == fecim_serve::JobStatus::Queued)
    );
    match &responses[2] {
        ResponseLine::Progress { id, progress } => {
            assert_eq!(id, "job");
            assert_eq!(progress.trials_completed, 0, "staged, not yet running");
        }
        other => panic!("expected Progress, got {other:?}"),
    }
    assert!(matches!(&responses[3], ResponseLine::Completed { id, .. } if id == "job"));
    // Observations may repeat an id; the checker only counts terminals.
    check_responses_against(
        BufReader::new(stream.as_bytes()),
        BufReader::new(output.as_slice()),
    )
    .expect("observations don't violate the per-id contract");
}

#[test]
fn elapsed_deadlines_serialize_as_deadline_exceeded_lines() {
    let submit = serde_json::to_string(&RequestLine::Submit {
        id: "late".into(),
        request: ring_request(16, 5000).with_run(RunPlan::Ensemble {
            trials: 8,
            base_seed: 0,
            threads: None,
        }),
        options: SubmitOptions::default().with_deadline_ms(0),
    })
    .unwrap();
    let mut output = Vec::new();
    let summary = run_jsonl(
        BufReader::new(format!("{submit}\n").as_bytes()),
        &mut output,
        SchedulerConfig::workers(1),
    )
    .expect("stream serves");
    assert_eq!(summary.deadline_exceeded, 1);
    assert_eq!(summary.completed, 0);
    let responses = check_responses(BufReader::new(output.as_slice())).expect("responses parse");
    match &responses[0] {
        ResponseLine::DeadlineExceeded {
            id,
            completed_trials,
            partial,
        } => {
            assert_eq!(id, "late");
            assert_eq!(*completed_trials, 0);
            assert!(partial.is_none());
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

#[test]
fn check_responses_flags_double_settled_ids() {
    let completed = r#"{"Cancelled":{"id":"a","completed_trials":0,"partial":null}}"#;
    let stream = format!("{completed}\n{completed}\n");
    match check_responses(BufReader::new(stream.as_bytes())) {
        Err(JsonlError::Contract { message }) => {
            assert!(message.contains("`a` settled by 2"), "got: {message}");
        }
        other => panic!("expected Contract violation, got {other:?}"),
    }
}

#[test]
fn check_responses_against_flags_missing_and_spurious_ids() {
    let submit = serde_json::to_string(&RequestLine::Submit {
        id: "a".into(),
        request: ring_request(8, 100),
        options: SubmitOptions::default(),
    })
    .unwrap();
    let requests = format!("{submit}\n");
    // A dropped response is a contract violation...
    match check_responses_against(
        BufReader::new(requests.as_bytes()),
        BufReader::new(&b""[..]),
    ) {
        Err(JsonlError::Contract { message }) => {
            assert!(message.contains("`a`"), "got: {message}");
            assert!(message.contains("got 0"), "got: {message}");
        }
        other => panic!("expected Contract violation, got {other:?}"),
    }
    // ...and so is a response no request line asked for.
    let spurious = format!(
        "{}\n{}\n",
        r#"{"Cancelled":{"id":"a","completed_trials":0,"partial":null}}"#,
        r#"{"Failed":{"id":"nobody","error":"made up"}}"#
    );
    match check_responses_against(
        BufReader::new(requests.as_bytes()),
        BufReader::new(spurious.as_bytes()),
    ) {
        Err(JsonlError::Contract { message }) => {
            assert!(message.contains("`nobody`"), "got: {message}");
        }
        other => panic!("expected Contract violation, got {other:?}"),
    }
}
