//! The traced run of a service workload: the pass's exact requests
//! replayed through library calls (JSONL codec → problem encoding →
//! `Session` prepare / trials / finish), then through an in-process
//! `Scheduler`, then once over TCP for the `Status` round trip and the
//! digest cross-check — followed by the layer probes.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use fecim::{Session, SolveRequest};
use fecim_serve::{
    terminal_line, JobStatus, JsonlSummary, LiveGridStats, RequestLine, ResponseLine, Scheduler,
    SchedulerConfig, SubmitOptions,
};

use crate::client::{pass_lines, run_pass, scratch_path, Conn, Server};
use crate::service::{check_pass, check_terminals, PassCheck, CONNECTIONS, WORKERS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::Metrics;

/// Untraced/traced replay pairs behind `trace_overhead_frac`.
const OVERHEAD_PAIRS: usize = 3;

/// What one library replay produced and how long each layer took.
#[derive(Debug, Default)]
pub struct Replay {
    /// Terminal lines in job order.
    pub terminals: Vec<Option<ResponseLine>>,
    /// Wall seconds of the replay.
    pub wall_s: f64,
    /// Request bytes on the wire.
    pub request_bytes: usize,
    /// Response bytes on the wire.
    pub response_bytes: usize,
    /// ns spent parsing JSONL.
    pub parse_ns: u64,
    /// ns spent encoding JSONL.
    pub encode_ns: u64,
    /// `ProblemSpec::build` + `to_ising` per call.
    pub encode_ising_ns: Vec<f64>,
    /// `Session::prepare` per call.
    pub prepare_ns: Vec<f64>,
    /// `PreparedJob::run_trial` per call (batched jobs: `Session::run`
    /// divided by its trials).
    pub trial_ns: Vec<f64>,
    /// `PreparedJob::finish` per call.
    pub finish_ns: Vec<f64>,
    /// Σ session time (prepare + trials + finish) per job.
    pub session_ns_per_job: Vec<u64>,
    /// Σ trial time of device-backed jobs (host time behind the modeled
    /// activated cells).
    pub device_trial_ns: u64,
}

/// One job through the library, each call in its own span.
fn replay_job(
    tracer: &Tracer,
    session: &Session,
    index: usize,
    job: &SolveRequest,
    out: &mut Replay,
) -> ResponseLine {
    let id = format!("p0-j{index}");
    let req = Some(index);
    let submit = RequestLine::Submit {
        id: id.clone(),
        request: job.clone(),
        options: SubmitOptions::default(),
    };
    tracer.span("bench.job", None, req, |root| {
        let (line, ns) = tracer.timed("jsonl.encode", root, req, |_| {
            serde_json::to_string(&submit).expect("request lines serialize")
        });
        out.encode_ns += ns;
        out.request_bytes += line.len();
        let (parsed, ns) = tracer.timed("jsonl.parse", root, req, |_| {
            serde_json::from_str::<RequestLine>(&line)
        });
        out.parse_ns += ns;
        let request: SolveRequest = match parsed {
            Ok(RequestLine::Submit { request, .. }) => request,
            other => {
                return ResponseLine::Failed {
                    id,
                    error: format!("request line did not round-trip: {other:?}"),
                }
            }
        };
        let (encoded, ns) = tracer.timed("ising.encode", root, req, |_| {
            request.problem.build().and_then(|p| p.to_ising())
        });
        out.encode_ising_ns.push(ns as f64);
        if let Err(e) = encoded {
            return ResponseLine::Failed {
                id,
                error: e.to_string(),
            };
        }
        let (prepared, prepare_ns) =
            tracer.timed("session.prepare", root, req, |_| session.prepare(&request));
        out.prepare_ns.push(prepare_ns as f64);
        let prepared = match prepared {
            Ok(p) => p,
            Err(e) => {
                return ResponseLine::Failed {
                    id,
                    error: e.to_string(),
                }
            }
        };
        let device = !matches!(request.backend, fecim::BackendPlan::Analytic);
        let mut session_ns = prepare_ns;
        let outcome = if prepared.is_batched() {
            // A batched trial needs a live grid slot; `Session::run`
            // packs the replicas onto chunked grids itself.
            let (response, ns) =
                tracer.timed("session.run_batched", root, req, |_| session.run(&request));
            session_ns += ns;
            out.device_trial_ns += ns;
            out.trial_ns
                .push(ns as f64 / prepared.trials().max(1) as f64);
            response
        } else {
            let mut reports = Vec::with_capacity(prepared.trials());
            let mut failed = None;
            for trial in 0..prepared.trials() {
                let (report, ns) =
                    tracer.timed("session.trial", root, req, |_| prepared.run_trial(trial));
                out.trial_ns.push(ns as f64);
                session_ns += ns;
                if device {
                    out.device_trial_ns += ns;
                }
                match report {
                    Ok(r) => reports.push(r),
                    Err(e) => {
                        failed = Some(e);
                        break;
                    }
                }
            }
            match failed {
                Some(e) => Err(e),
                None => {
                    let (response, ns) = tracer.timed("session.finish", root, req, |_| {
                        prepared.finish(reports, Vec::new())
                    });
                    out.finish_ns.push(ns as f64);
                    session_ns += ns;
                    response
                }
            }
        };
        out.session_ns_per_job.push(session_ns);
        let line = match outcome {
            Ok(response) => ResponseLine::Completed { id, response },
            Err(e) => ResponseLine::Failed {
                id,
                error: e.to_string(),
            },
        };
        let (wire, ns) = tracer.timed("jsonl.encode", root, req, |_| {
            serde_json::to_string(&line).expect("response lines serialize")
        });
        out.encode_ns += ns;
        out.response_bytes += wire.len();
        let (back, ns) = tracer.timed("jsonl.parse", root, req, |_| {
            serde_json::from_str::<ResponseLine>(&wire)
        });
        out.parse_ns += ns;
        back.unwrap_or(line)
    })
}

/// Replay every job of a pass, in order, on this thread.
pub fn replay(tracer: &Tracer, jobs: &[SolveRequest]) -> Replay {
    let session = Session::new();
    let mut out = Replay::default();
    let started = Instant::now();
    for (index, job) in jobs.iter().enumerate() {
        let line = replay_job(tracer, &session, index, job, &mut out);
        out.terminals.push(Some(line));
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out
}

/// What the in-process scheduler replay measured.
#[derive(Debug)]
pub struct SchedulerReplay {
    /// Terminal lines in job order.
    pub terminals: Vec<Option<ResponseLine>>,
    /// Submit → first non-`Queued` status, ms, per job.
    pub queue_wait_ms: Vec<f64>,
    /// Submit → terminal outcome, ns, per job.
    pub latency_ns: Vec<u64>,
    /// Grid statistics at the end of the pass.
    pub grids: Vec<LiveGridStats>,
    /// Highest `waiting_jobs` total seen while polling.
    pub waiting_jobs_peak: usize,
    /// Journal size after the pass, bytes.
    pub journal_bytes: u64,
}

/// The pass through an in-process [`Scheduler`] (same worker count and
/// defaults as the served binary), closed loop over `CONNECTIONS` client
/// threads.
pub fn scheduler_replay(
    tracer: &Tracer,
    jobs: &[SolveRequest],
    journal: Option<&Path>,
) -> SchedulerReplay {
    let mut config = SchedulerConfig::workers(WORKERS);
    if let Some(journal) = journal {
        let _ = std::fs::remove_file(journal);
        config = config.with_journal(journal);
    }
    let scheduler = Scheduler::with_config(config);
    let cursor = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, ResponseLine, f64, u64)>> = Mutex::new(Vec::new());
    let waiting_peak = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..CONNECTIONS {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                if index >= jobs.len() {
                    return;
                }
                let id = format!("p0-j{index}");
                let ((line, wait_ms), ns) =
                    tracer.timed("scheduler.job", None, Some(index), |_| {
                        let handle = scheduler.submit_named(
                            Some(&id),
                            jobs[index].clone(),
                            SubmitOptions::default(),
                        );
                        let submitted = Instant::now();
                        while handle.status() == JobStatus::Queued {
                            let waiting: usize =
                                scheduler.grid_stats().iter().map(|g| g.waiting_jobs).sum();
                            waiting_peak.fetch_max(waiting, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_micros(20));
                        }
                        let wait_ms = submitted.elapsed().as_secs_f64() * 1e3;
                        let line =
                            terminal_line(id.clone(), handle.wait(), &mut JsonlSummary::default());
                        (line, wait_ms)
                    });
                results
                    .lock()
                    .expect("result list is never poisoned")
                    .push((index, line, wait_ms, ns));
            });
        }
    });
    let grids = scheduler.grid_stats();
    scheduler.join();
    let journal_bytes = journal
        .and_then(|j| std::fs::metadata(j).ok())
        .map_or(0, |m| m.len());
    if let Some(journal) = journal {
        let _ = std::fs::remove_file(journal);
    }
    let mut results = results.into_inner().expect("result list is never poisoned");
    results.sort_by_key(|r| r.0);
    SchedulerReplay {
        queue_wait_ms: results.iter().map(|r| r.2).collect(),
        latency_ns: results.iter().map(|r| r.3).collect(),
        terminals: results.into_iter().map(|r| Some(r.1)).collect(),
        grids,
        waiting_jobs_peak: waiting_peak.into_inner(),
        journal_bytes,
    }
}

/// One TCP pass with a `Status` round trip after every completion.
pub fn tcp_pass(
    jobs: &[SolveRequest],
    bin: &Path,
    journal: Option<&Path>,
) -> std::io::Result<(PassCheck, Vec<f64>)> {
    if let Some(journal) = journal {
        let _ = std::fs::remove_file(journal);
    }
    let (mut server, first, _) = Server::spawn(bin, WORKERS, journal)?;
    let mut conns = vec![Conn::new(first)?];
    while conns.len() < CONNECTIONS {
        conns.push(Conn::new(server.connect()?)?);
    }
    let lines = pass_lines(jobs, 0..1);
    let exchanges = run_pass(&mut conns, &lines, true)?;
    drop(conns);
    server.stop();
    if let Some(journal) = journal {
        let _ = std::fs::remove_file(journal);
    }
    let check = check_pass(jobs, &exchanges, &lines);
    let rtts = exchanges
        .iter()
        .filter_map(|e| e.status_rtt)
        .map(|d| d.as_secs_f64() * 1e6)
        .collect();
    Ok((check, rtts))
}

/// Outcome of the traced run's cross-checks.
#[derive(Debug)]
pub struct TracedCheck {
    /// Jobs attempted across the replays.
    pub attempted: usize,
    /// Errors across the replays plus digest disagreements.
    pub errors: usize,
    /// The library replay's digest.
    pub digest: u64,
    /// Modeled totals of the library replay.
    pub reference: PassCheck,
}

/// The traced run of a service workload; fills the per-layer metrics
/// except the probes.
pub fn run_service(
    tracer: &Tracer,
    jobs: &[SolveRequest],
    bin: &Path,
    tmp: &Path,
    journaled: bool,
    metrics: &mut Metrics,
) -> std::io::Result<TracedCheck> {
    let journal = journaled.then(|| scratch_path(tmp, "traced-journal"));
    // Untraced and traced replays of the same pass, alternated after a
    // warm-up; the medians give the overhead ratio. Only the last traced
    // replay records into `tracer`.
    let _warm = replay(&Tracer::new(false), jobs);
    let (mut plain_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut last = None;
    for pair in 0..OVERHEAD_PAIRS {
        let plain = replay(&Tracer::new(false), jobs);
        plain_walls.push(plain.wall_s);
        let scratch = Tracer::new(true);
        let traced = replay(
            if pair + 1 == OVERHEAD_PAIRS {
                tracer
            } else {
                &scratch
            },
            jobs,
        );
        traced_walls.push(traced.wall_s);
        last = Some((plain, traced));
    }
    let (plain, traced) = last.expect("OVERHEAD_PAIRS > 0");
    let plain_check = check_terminals(jobs, &plain.terminals);
    let library = check_terminals(jobs, &traced.terminals);
    let sched = scheduler_replay(tracer, jobs, journal.as_deref());
    let sched_check = check_terminals(jobs, &sched.terminals);
    let (tcp_check, rtts) = tcp_pass(jobs, bin, journal.as_deref())?;

    let digests = [plain_check.digest, sched_check.digest, tcp_check.digest];
    let disagreements = digests.iter().filter(|&&d| d != library.digest).count();
    let check = TracedCheck {
        attempted: 4 * jobs.len(),
        errors: plain_check.errors
            + library.errors
            + sched_check.errors
            + tcp_check.errors
            + disagreements,
        digest: library.digest,
        reference: library.clone(),
    };

    metrics.set(
        "trace_overhead_frac",
        median(&traced_walls) / median(&plain_walls) - 1.0,
        "frac",
    );
    metrics.set("tcp.status_rtt_us", median(&rtts), "us");
    let kb = (traced.request_bytes + traced.response_bytes) as f64 / 1024.0;
    metrics.set(
        "jsonl.parse_us_per_kb",
        traced.parse_ns as f64 / 1e3 / kb,
        "us/KB",
    );
    metrics.set(
        "jsonl.encode_us_per_kb",
        traced.encode_ns as f64 / 1e3 / kb,
        "us/KB",
    );
    metrics.set("jsonl.request_bytes", traced.request_bytes as f64, "B");
    metrics.set("jsonl.response_bytes", traced.response_bytes as f64, "B");
    metrics.set(
        "ising.encode_ms",
        median(&traced.encode_ising_ns) / 1e6,
        "ms",
    );
    metrics.set("session.prepare_ms", median(&traced.prepare_ns) / 1e6, "ms");
    metrics.set("session.trial_ms", median(&traced.trial_ns) / 1e6, "ms");
    metrics.set("session.finish_us", median(&traced.finish_ns) / 1e3, "us");
    metrics.set(
        "scheduler.queue_wait_ms",
        median(&sched.queue_wait_ms),
        "ms",
    );
    // Per job, submit → outcome through the scheduler minus the session
    // work (prepare + trials + finish) the same job needs when called
    // directly, summed and divided by the trial count: queue wait,
    // dispatch and contention, less what trial-level parallelism saves
    // (so it can be negative).
    let trials: usize = jobs.iter().map(|j| j.run.trials()).sum();
    let excess_ns: f64 = sched
        .latency_ns
        .iter()
        .zip(&traced.session_ns_per_job)
        .map(|(&latency, &session)| latency as f64 - session as f64)
        .sum();
    metrics.set(
        "scheduler.overhead_us_per_trial",
        excess_ns / 1e3 / trials.max(1) as f64,
        "us",
    );
    let admissions: u64 = sched.grids.iter().map(|g| g.admissions).sum();
    let peak = sched
        .grids
        .iter()
        .map(|g| g.peak_concurrent_instances)
        .max()
        .unwrap_or(0);
    let utilization = sched
        .grids
        .iter()
        .map(|g| g.grid_utilization)
        .fold(0.0, f64::max);
    metrics.set("grid.admissions", admissions as f64, "count");
    metrics.set("grid.peak_concurrent_instances", peak as f64, "count");
    metrics.set("grid.utilization", utilization, "frac");
    metrics.set(
        "grid.waiting_jobs_peak",
        sched.waiting_jobs_peak as f64,
        "count",
    );
    metrics.set("journal.bytes", sched.journal_bytes as f64, "B");
    metrics.set(
        "crossbar.cells_activated",
        library.cells_activated as f64,
        "count",
    );
    metrics.set("crossbar.adc_slots", library.adc_slots as f64, "count");
    metrics.set(
        "crossbar.ns_per_cell",
        if library.cells_activated > 0 {
            traced.device_trial_ns as f64 / library.cells_activated as f64
        } else {
            0.0
        },
        "ns",
    );
    Ok(check)
}
