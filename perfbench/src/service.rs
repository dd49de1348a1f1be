//! The untraced end-to-end run of a service workload: the release
//! `fecim-serve` binary driven over TCP in closed loop.

use std::path::Path;
use std::time::Instant;

use fecim_serve::{check_responses_against, ResponseLine};

use crate::client::{
    pass_lines, run_pass, scratch_path, status_line, Conn, Exchange, PassLines, Server,
};
use crate::digest::{fold, line_digest};
use crate::stats::median;
use crate::workload::{service_jobs, Size, Workload};
use fecim::SolveRequest;

/// Server worker threads and client connections (the box has 2 CPUs).
pub const WORKERS: usize = 2;
/// Closed-loop client connections.
pub const CONNECTIONS: usize = 2;
/// Set-up repetitions per run; the median is reported.
pub const SETUP_REPS: usize = 9;

/// The checked outcome of one pass.
#[derive(Debug, Clone)]
pub struct PassCheck {
    /// Per-job digests, in job order.
    pub job_digests: Vec<u64>,
    /// Fold of `job_digests`.
    pub digest: u64,
    /// Failed/rejected/deadline/cancelled jobs, missing or foreign
    /// terminal lines, wrong trial counts and stream-contract violations.
    pub errors: usize,
    /// Modeled hardware time summed over the pass's responses, seconds.
    pub modeled_time_s: f64,
    /// Modeled hardware energy summed over the pass's responses, joules.
    pub modeled_energy_j: f64,
    /// Modeled activated cells summed over every trial's `ActivityStats`.
    pub cells_activated: u64,
    /// Modeled ADC slots summed over every trial's `ActivityStats`.
    pub adc_slots: u64,
}

/// Check a pass's terminal lines against its jobs and fold its digest.
pub fn check_terminals(jobs: &[SolveRequest], terminals: &[Option<ResponseLine>]) -> PassCheck {
    let mut check = PassCheck {
        job_digests: Vec::with_capacity(jobs.len()),
        digest: 0,
        errors: 0,
        modeled_time_s: 0.0,
        modeled_energy_j: 0.0,
        cells_activated: 0,
        adc_slots: 0,
    };
    for (job, terminal) in jobs.iter().zip(terminals) {
        match terminal {
            Some(line) => {
                check.job_digests.push(line_digest(line));
                match line {
                    ResponseLine::Completed { response, .. }
                        if response.reports.len() == job.run.trials() =>
                    {
                        check.modeled_time_s += response.summary.total_time;
                        check.modeled_energy_j += response.summary.total_energy;
                        for report in &response.reports {
                            if let Some(activity) = &report.run.activity {
                                check.cells_activated += activity.cells_activated;
                                check.adc_slots += activity.adc_slots;
                            }
                        }
                    }
                    _ => check.errors += 1,
                }
            }
            None => {
                check.job_digests.push(0);
                check.errors += 1;
            }
        }
    }
    check.errors += terminals.len().abs_diff(jobs.len());
    check.digest = fold(&check.job_digests);
    check
}

/// Check a TCP pass: the whole response stream against the request
/// stream (`check_responses_against`), then every terminal line.
pub fn check_pass(jobs: &[SolveRequest], exchanges: &[Exchange], lines: &PassLines) -> PassCheck {
    let mut requests = String::new();
    let mut responses = String::new();
    for exchange in exchanges {
        requests.push_str(&lines.submits[exchange.index]);
        requests.push('\n');
        if exchange.lines.len() > 1 {
            requests.push_str(&status_line(&lines.ids[exchange.index]));
            requests.push('\n');
        }
        for line in &exchange.lines {
            responses.push_str(line.trim_end());
            responses.push('\n');
        }
    }
    let contract_ok = check_responses_against(requests.as_bytes(), responses.as_bytes()).is_ok()
        && exchanges.len() == jobs.len();
    let terminals: Vec<Option<ResponseLine>> =
        exchanges.iter().map(|e| e.terminal.clone()).collect();
    let mut check = check_terminals(jobs, &terminals);
    if !contract_ok {
        check.errors = check.errors.max(1);
    }
    check
}

/// Everything an untraced service run measured.
#[derive(Debug, Clone)]
pub struct ServiceRun {
    /// Jobs per pass.
    pub jobs_per_pass: usize,
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Passes offered after the warm-up.
    pub passes: usize,
    /// Per-job latencies of the measured passes, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// `Status` round trips, microseconds.
    pub status_rtts_us: Vec<f64>,
    /// Submits sent in measured passes.
    pub attempted: usize,
    /// Errors (see [`PassCheck::errors`]) plus per-job digest mismatches
    /// against the warm-up pass.
    pub errors: usize,
    /// Wall seconds of the measured passes.
    pub measured_s: f64,
    /// Server `VmHWM` just before shutdown, MiB.
    pub peak_rss_mb: f64,
    /// The warm-up pass's check (digest, modeled totals).
    pub reference: PassCheck,
    /// Whether every measured pass reproduced the warm-up digest.
    pub digest_stable: bool,
}

/// A served run, ready for its warm-up pass.
struct Setup {
    jobs: Vec<SolveRequest>,
    warm: PassLines,
    server: Server,
    conns: Vec<Conn>,
    /// Median set-up time, seconds.
    setup_s: f64,
}

/// Generate the requests and the warm-up pass's lines, spawn the server
/// and connect, `SETUP_REPS` times (keeping the last); set-up time is
/// generation plus spawn-to-first-accept.
fn set_up(
    workload: Workload,
    seed: u64,
    size: Size,
    bin: &Path,
    tmp: &Path,
) -> std::io::Result<Setup> {
    let journal = workload.journaled().then(|| scratch_path(tmp, "journal"));
    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        // Dropping the previous server kills it and waits for it.
        drop(kept.take());
        if let Some(journal) = &journal {
            let _ = std::fs::remove_file(journal);
        }
        let started = Instant::now();
        let jobs = service_jobs(workload, seed, size);
        let warm = pass_lines(&jobs, 0..1);
        let generated = started.elapsed();
        let (server, first, accept) = Server::spawn(bin, WORKERS, journal.as_deref())?;
        setups.push((generated + accept).as_secs_f64());
        kept = Some((server, first, jobs, warm));
    }
    let (server, first, jobs, warm) = kept.expect("SETUP_REPS > 0");
    let mut conns = vec![Conn::new(first)?];
    while conns.len() < CONNECTIONS {
        conns.push(Conn::new(server.connect()?)?);
    }
    Ok(Setup {
        jobs,
        warm,
        server,
        conns,
        setup_s: median(&setups),
    })
}

/// Remove the journal a journaled run wrote.
fn clean_up(workload: Workload, tmp: &Path) {
    if workload.journaled() {
        let _ = std::fs::remove_file(scratch_path(tmp, "journal"));
    }
}

/// The untraced end-to-end run: set up, one warm-up pass, then a fixed
/// amount of work sized to `seconds` (see [`Workload::passes`]) offered
/// as one continuous closed-loop stream, so no connection idles at pass
/// boundaries.
///
/// # Errors
///
/// I/O errors talking to the server.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    size: Size,
    bin: &Path,
    tmp: &Path,
) -> std::io::Result<ServiceRun> {
    let Setup {
        jobs,
        warm,
        mut server,
        mut conns,
        setup_s,
    } = set_up(workload, seed, size, bin, tmp)?;
    let send_status = workload.status_after_completion();
    let warm_exchanges = run_pass(&mut conns, &warm, send_status)?;
    let reference = check_pass(&jobs, &warm_exchanges, &warm);
    let passes = workload.passes(seconds);
    let lines = pass_lines(&jobs, 1..1 + passes);
    let measuring = Instant::now();
    let exchanges = run_pass(&mut conns, &lines, send_status)?;
    let measured_s = measuring.elapsed().as_secs_f64();
    let mut run = ServiceRun {
        jobs_per_pass: jobs.len(),
        setup_s,
        passes,
        latencies_ms: Vec::new(),
        status_rtts_us: Vec::new(),
        attempted: lines.ids.len(),
        errors: reference.errors + lines.ids.len().abs_diff(exchanges.len()),
        measured_s,
        peak_rss_mb: server.peak_rss_mb().unwrap_or(0.0),
        reference: reference.clone(),
        digest_stable: true,
    };
    drop(conns);
    server.stop();
    clean_up(workload, tmp);
    for pass in exchanges.chunks(jobs.len()) {
        let check = check_pass(&jobs, pass, &lines);
        let mismatches = check
            .job_digests
            .iter()
            .zip(&reference.job_digests)
            .filter(|(a, b)| a != b)
            .count();
        run.digest_stable &= check.digest == reference.digest;
        run.errors += check.errors + mismatches;
    }
    for exchange in &exchanges {
        run.latencies_ms.push(exchange.latency.as_secs_f64() * 1e3);
        if let Some(rtt) = exchange.status_rtt {
            run.status_rtts_us.push(rtt.as_secs_f64() * 1e6);
        }
    }
    Ok(run)
}
