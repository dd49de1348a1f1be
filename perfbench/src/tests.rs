//! Benchmark-level tests: the closed-loop client contract, digest
//! stability across repetitions and paths, smoke-size runs of every
//! workload, and the metric list against `BENCHMARK.json`.

use std::net::TcpStream;

use fecim_serve::{SchedulerConfig, TcpServer, TcpServerConfig};

use crate::client::{pass_lines, run_pass, Conn};
use crate::service::{check_pass, check_terminals, WORKERS};
use crate::trace::Tracer;
use crate::traced::{replay, scheduler_replay};
use crate::workload::{service_jobs, Size, Workload};
use crate::{expected_names, fig10, Metrics, END_TO_END};

const SERVICE: [Workload; 3] = [
    Workload::ServeMix,
    Workload::MvmIdeal,
    Workload::DeviceNoisy,
];

fn in_process_server() -> TcpServer {
    TcpServer::bind(
        "127.0.0.1:0",
        TcpServerConfig {
            scheduler: SchedulerConfig::workers(WORKERS),
            max_open_jobs: None,
        },
    )
    .expect("binds a local port")
}

#[test]
fn closed_loop_client_sees_exactly_one_terminal_line_per_submit() {
    let server = in_process_server();
    let addr = server.local_addr();
    let mut conns: Vec<Conn> = (0..2)
        .map(|_| Conn::new(TcpStream::connect(addr).expect("connects")).expect("wraps"))
        .collect();
    let jobs = service_jobs(Workload::ServeMix, 3, Size::Smoke);
    for passes in [0..1, 1..3] {
        let lines = pass_lines(&jobs, passes.clone());
        let exchanges = run_pass(&mut conns, &lines, true).expect("pass runs");
        assert_eq!(exchanges.len(), jobs.len() * passes.len());
        for (i, exchange) in exchanges.iter().enumerate() {
            assert_eq!(exchange.index, i, "every job sent exactly once");
            let terminal = exchange.terminal.as_ref().expect("terminal line arrived");
            assert_eq!(terminal.id(), lines.ids[i]);
            // The terminal line, then the Status answer — nothing else.
            assert_eq!(exchange.lines.len(), 2);
            assert!(exchange.status_rtt.is_some());
        }
        // Same requests over TCP and through the library: same bits, in
        // every pass.
        let library = check_terminals(&jobs, &replay(&Tracer::new(false), &jobs).terminals);
        for pass in exchanges.chunks(jobs.len()) {
            let check = check_pass(&jobs, pass, &lines);
            assert_eq!(check.errors, 0);
            assert_eq!(check.digest, library.digest);
        }
    }
    drop(conns);
    server.shutdown();
}

#[test]
fn smoke_digests_are_stable_and_agree_across_library_paths() {
    for workload in SERVICE {
        let jobs = service_jobs(workload, 11, Size::Smoke);
        let first = check_terminals(&jobs, &replay(&Tracer::new(false), &jobs).terminals);
        let traced = check_terminals(&jobs, &replay(&Tracer::new(true), &jobs).terminals);
        let scheduled = check_terminals(
            &jobs,
            &scheduler_replay(&Tracer::new(true), &jobs, None).terminals,
        );
        assert_eq!(first.errors, 0, "{workload:?}");
        assert_eq!(first.digest, traced.digest, "{workload:?}: repetition");
        assert_eq!(
            first.digest, scheduled.digest,
            "{workload:?}: scheduler path"
        );
        // The seed is the input: another seed, other results.
        let other = service_jobs(workload, 12, Size::Smoke);
        let other = check_terminals(&other, &replay(&Tracer::new(false), &other).terminals);
        assert_ne!(first.digest, other.digest, "{workload:?}");
    }
}

#[test]
fn fig10_smoke_repeats_bit_for_bit_and_the_traced_replay_matches() {
    let a = fig10::run(5, 1, true).expect("runs");
    let b = fig10::run(5, 1, true).expect("runs");
    assert!(a.stable && b.stable);
    assert_eq!(
        fig10::outcome_digest(&a.outcome),
        fig10::outcome_digest(&b.outcome)
    );
    let mut metrics = Metrics::default();
    let (attempted, errors, outcome, _) =
        fig10::run_traced(&Tracer::new(true), 5, true, &mut metrics).expect("runs");
    assert!(attempted > 0);
    assert_eq!(errors, 0, "replayed statistics differ from run_experiment");
    assert_eq!(
        fig10::outcome_digest(&outcome),
        fig10::outcome_digest(&a.outcome)
    );
}

#[test]
fn metric_lists_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let spec: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    let names = |key: &str| -> Vec<(String, String)> {
        match spec.get(key) {
            Some(serde_json::Value::Seq(rows)) => rows
                .iter()
                .map(|row| {
                    let field = |f: &str| match row.get(f) {
                        Some(serde_json::Value::Str(s)) => s.clone(),
                        other => panic!("{key}.{f} is not a string: {other:?}"),
                    };
                    (field("name"), field("unit"))
                })
                .collect(),
            other => panic!("{key} is not a list: {other:?}"),
        }
    };
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names("end_to_end"), e2e);
    let layer_names: Vec<String> = names("per_layer").into_iter().map(|(n, _)| n).collect();
    assert_eq!(layer_names, expected_names(true));
}
