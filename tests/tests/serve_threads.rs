//! The TCP server starts no OS thread per job: a connection runs on its
//! reader and its event loop, however many jobs it has in flight. The
//! file holds one test, so no concurrent test moves the process's thread
//! count while it is read.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};

use fecim::{CimAnnealer, ProblemSpec, SolveRequest, SolverSpec};
use fecim_serve::{
    check_responses_against, RequestLine, ResponseLine, SchedulerConfig, SubmitOptions, TcpServer,
    TcpServerConfig,
};

const JOBS: usize = 64;

/// The `Threads:` count of `/proc/self/status`.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .map(|count| count.trim().parse().unwrap())
        .unwrap()
}

fn ring(n: usize) -> SolveRequest {
    SolveRequest::new(
        ProblemSpec::MaxCut {
            vertices: n,
            edges: (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect(),
        },
        SolverSpec::Cim(CimAnnealer::new(50).with_flips(1)),
    )
}

#[test]
fn queued_jobs_start_no_threads() {
    let config = TcpServerConfig {
        scheduler: SchedulerConfig {
            paused: true,
            ..SchedulerConfig::workers(1)
        },
        max_open_jobs: None,
    };
    let server = TcpServer::bind("127.0.0.1:0", config).unwrap();
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut out = stream.try_clone().unwrap();
    let mut lines = BufReader::new(stream).lines();
    let mut requests = String::new();
    let mut responses = String::new();
    let mut round_trip = |request: &RequestLine, answers: usize| {
        let json = serde_json::to_string(request).unwrap() + "\n";
        out.write_all(json.as_bytes()).unwrap();
        requests.push_str(&json);
        for _ in 0..answers {
            responses.push_str(&(lines.next().unwrap().unwrap() + "\n"));
        }
    };

    // Warm up: the connection's threads are running once it answers.
    round_trip(&RequestLine::Status { id: "warm".into() }, 1);
    let before = process_threads();
    for i in 0..JOBS {
        let submit = RequestLine::Submit {
            id: format!("job-{i}"),
            request: ring(8 + i % 5),
            options: SubmitOptions::default(),
        };
        round_trip(&submit, 0);
    }
    // The loop answers lines in order, so this answer follows every submit.
    let last = RequestLine::Status {
        id: format!("job-{}", JOBS - 1),
    };
    round_trip(&last, 1);
    let after = process_threads();
    assert!(
        after <= before,
        "{JOBS} queued jobs took the process from {before} to {after} threads"
    );

    server.resume();
    out.shutdown(Shutdown::Write).unwrap();
    for line in lines {
        responses.push_str(&(line.unwrap() + "\n"));
    }
    let answered =
        check_responses_against(requests.as_bytes(), responses.as_bytes()).expect("contract holds");
    let completed = answered
        .iter()
        .filter(|line| matches!(line, ResponseLine::Completed { .. }))
        .count();
    assert_eq!(completed, JOBS);
    server.shutdown();
}
