//! `perfbench`: the fecim benchmark driver.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           [--server-bin PATH] [--out-dir DIR] [--commit SHA]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! traced replay and the layer probes and reports the per-layer metrics.
//! Human-readable lines go first; the last line of standard output is one
//! JSON object `{correct, attempted, failed, metrics}`. `perfbench/run.py`
//! builds the binaries and calls this program; see `perfbench/README.md`.

mod client;
mod digest;
mod fig10;
mod probes;
mod service;
mod stats;
mod trace;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use fecim::ising::Coupling;

use crate::stats::{median, tail};
use crate::trace::{self_times_ns, Tracer};
use crate::workload::{dense_n896, service_jobs, Size, Workload};

/// End-to-end metrics, reported by every untraced run: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Layers whose summed span self time the traced run reports.
pub const SELF_TIME_LAYERS: &[&str] = &[
    "bench",
    "jsonl",
    "ising",
    "session",
    "scheduler",
    "crossbar",
    "device",
    "anneal",
    "sb",
];

/// Per-layer metrics, reported by every traced run: (name, unit).
/// `self_ms.<layer>` rows are added from [`SELF_TIME_LAYERS`].
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tcp.status_rtt_us", "us"),
    ("jsonl.parse_us_per_kb", "us/KB"),
    ("jsonl.encode_us_per_kb", "us/KB"),
    ("jsonl.request_bytes", "B"),
    ("jsonl.response_bytes", "B"),
    ("scheduler.queue_wait_ms", "ms"),
    ("scheduler.overhead_us_per_trial", "us"),
    ("grid.admissions", "count"),
    ("grid.peak_concurrent_instances", "count"),
    ("grid.utilization", "frac"),
    ("grid.waiting_jobs_peak", "count"),
    ("journal.bytes", "B"),
    ("session.prepare_ms", "ms"),
    ("session.trial_ms", "ms"),
    ("session.finish_us", "us"),
    ("ising.encode_ms", "ms"),
    ("crossbar.program_ms", "ms"),
    ("crossbar.vmv_us.ideal", "us"),
    ("crossbar.vmv_us.noisy", "us"),
    ("crossbar.mvm_us.ideal", "us"),
    ("crossbar.mvm_us.noisy", "us"),
    ("crossbar.incremental_us.ideal", "us"),
    ("crossbar.incremental_us.noisy", "us"),
    ("crossbar.vmv_us.ideal.n896", "us"),
    ("crossbar.vmv_us.noisy.n896", "us"),
    ("crossbar.cells_activated", "count"),
    ("crossbar.adc_slots", "count"),
    ("crossbar.ns_per_cell", "ns"),
    ("device.sl_current_ns", "ns"),
    ("device.cell_factor_ns", "ns"),
    ("anneal.in_situ_iter_ns", "ns"),
    ("anneal.direct_iter_ns", "ns"),
    ("anneal.mesa_iter_ns", "ns"),
    ("anneal.reference_ms", "ms"),
    ("anneal.in_situ_device_iter_ns", "ns"),
    ("sb.step_us.ideal", "us"),
    ("sb.step_us.noisy", "us"),
    ("trace_overhead_frac", "frac"),
];

/// Named metric values with units.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Set a metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    /// Set a metric unless an earlier measurement already did.
    pub fn set_if_absent(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.entry(name.to_string()).or_insert((value, unit));
    }

    fn json(&self) -> serde_json::Value {
        serde_json::Value::Map(
            self.0
                .iter()
                .map(|(name, (value, unit))| {
                    (
                        name.clone(),
                        serde_json::json!({"value": value, "unit": unit}),
                    )
                })
                .collect(),
        )
    }
}

/// Every metric name a run of the given kind must report.
pub fn expected_names(traced: bool) -> Vec<String> {
    if !traced {
        return END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    }
    let mut names: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    names.extend(SELF_TIME_LAYERS.iter().map(|l| format!("self_ms.{l}")));
    names
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    server_bin: Option<PathBuf>,
    out_dir: PathBuf,
    commit: String,
}

fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: perfbench --workload serve_mix|mvm_ideal|device_noisy|fig10_paper --seed N \
         --seconds S --trace 0|1 [--server-bin PATH] [--out-dir DIR] [--commit SHA]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<String> {
        raw.iter().position(|a| a == flag).map(|i| {
            raw.get(i + 1)
                .cloned()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        })
    };
    let workload = value("--workload")
        .map(|w| Workload::parse(&w).unwrap_or_else(|| usage(&format!("unknown workload {w:?}"))))
        .unwrap_or_else(|| usage("--workload is required"));
    let number =
        |flag: &str, default: &str| -> String { value(flag).unwrap_or_else(|| default.into()) };
    let seed = number("--seed", "1")
        .parse()
        .unwrap_or_else(|_| usage("--seed needs an unsigned integer"));
    let seconds: f64 = number("--seconds", "20")
        .parse()
        .unwrap_or_else(|_| usage("--seconds needs a number"));
    let traced = match number("--trace", "0").as_str() {
        "0" => false,
        "1" => true,
        other => usage(&format!("--trace must be 0 or 1, got {other:?}")),
    };
    Args {
        workload,
        seed,
        seconds,
        traced,
        server_bin: value("--server-bin").map(PathBuf::from),
        out_dir: PathBuf::from(number("--out-dir", ".bench_build/perfbench")),
        commit: number("--commit", "unknown"),
    }
}

/// The outcome of one run, before printing.
#[derive(Debug)]
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Metrics,
    digest: u64,
}

fn server_bin(args: &Args) -> &Path {
    args.server_bin
        .as_deref()
        .unwrap_or_else(|| usage("service workloads need --server-bin"))
}

fn run_service_e2e(args: &Args, tmp: &Path) -> Result<Outcome, String> {
    let run = service::run(
        args.workload,
        args.seed,
        args.seconds,
        Size::Full,
        server_bin(args),
        tmp,
    )
    .map_err(|e| format!("service run failed: {e}"))?;
    let mut metrics = Metrics::default();
    let latency_tail = tail(&run.latencies_ms);
    metrics.set("jobs_per_s", run.attempted as f64 / run.measured_s, "1/s");
    metrics.set("latency_p50_ms", median(&run.latencies_ms), "ms");
    metrics.set("latency_tail_ms", latency_tail.value, "ms");
    let per_pass_s = run.measured_s / run.passes as f64;
    metrics.set("wall_s", per_pass_s, "s");
    metrics.set("setup_s", run.setup_s, "s");
    metrics.set("peak_rss_mb", run.peak_rss_mb, "MB");
    let error_rate = run.errors as f64 / run.attempted.max(1) as f64;
    println!(
        "passes: {} x {} jobs in {:.2}s; latency tail = p{:.2} over {} samples ({} beyond)",
        run.passes,
        run.jobs_per_pass,
        run.measured_s,
        latency_tail.percentile,
        latency_tail.samples,
        latency_tail.beyond
    );
    let per_job: Vec<String> = (0..run.jobs_per_pass)
        .map(|j| {
            let samples: Vec<f64> = run
                .latencies_ms
                .iter()
                .skip(j)
                .step_by(run.jobs_per_pass)
                .copied()
                .collect();
            format!("j{j}={:.1}", median(&samples))
        })
        .collect();
    println!(
        "median latency per job of the pass (ms): {}",
        per_job.join(" ")
    );
    if !run.status_rtts_us.is_empty() {
        println!(
            "status round trip: median {:.1} us",
            median(&run.status_rtts_us)
        );
    }
    println!(
        "error_rate: {error_rate} ({} errors / {} submits); result_digest {:016x} ({})",
        run.errors,
        run.attempted,
        run.reference.digest,
        if run.digest_stable {
            "identical in every pass"
        } else {
            "CHANGED between passes"
        }
    );
    println!(
        "modeled per pass (outputs, not targets; model not validated against silicon): \
         hw time {:.6e} s, hw energy {:.6e} J, {} cells activated  |  host per pass {:.3} s",
        run.reference.modeled_time_s,
        run.reference.modeled_energy_j,
        run.reference.cells_activated,
        per_pass_s
    );
    Ok(Outcome {
        correct: run.errors == 0 && run.digest_stable,
        attempted: run.attempted,
        failed: run.errors,
        metrics,
        digest: run.reference.digest,
    })
}

fn run_fig10_e2e(args: &Args) -> Result<Outcome, String> {
    let run = fig10::run(args.seed, args.workload.passes(args.seconds), false)?;
    let jobs = fig10::jobs_of(&run.outcome) * run.walls.len();
    let total: f64 = run.walls.iter().sum();
    let latencies_ms: Vec<f64> = run.walls.iter().map(|w| w * 1e3).collect();
    let latency_tail = tail(&latencies_ms);
    let mut metrics = Metrics::default();
    metrics.set("jobs_per_s", jobs as f64 / total, "1/s");
    metrics.set("latency_p50_ms", median(&latencies_ms), "ms");
    metrics.set("latency_tail_ms", latency_tail.value, "ms");
    metrics.set("wall_s", median(&run.walls), "s");
    metrics.set("setup_s", run.setup_s, "s");
    metrics.set(
        "peak_rss_mb",
        client::vm_hwm_mb("/proc/self/status").unwrap_or(0.0),
        "MB",
    );
    let digest = fig10::outcome_digest(&run.outcome);
    println!(
        "experiments: {} ({} ensemble requests each); latency = one whole experiment, \
         tail = p{:.0} over {} samples",
        run.walls.len(),
        fig10::jobs_of(&run.outcome),
        latency_tail.percentile,
        latency_tail.samples
    );
    println!(
        "result_digest {digest:016x} ({})",
        if run.stable {
            "identical in every repetition"
        } else {
            "CHANGED between repetitions"
        }
    );
    println!(
        "success rate (outputs, not targets; model not validated against silicon): \
         in-situ {:.1}% vs paper 98%, baseline {:.1}% vs paper 50%",
        100.0 * run.outcome.in_situ_mean_success(),
        100.0 * run.outcome.baseline_mean_success()
    );
    for g in &run.outcome.groups {
        let in_situ = g
            .hardware
            .iter()
            .find(|h| h.kind == fecim::hwcost::AnnealerKind::InSitu);
        if let Some(h) = in_situ {
            println!(
                "  {:?}: n={} iters={} modeled in-situ run {:.3e} s / {:.3e} J; \
                 success in-situ {:.0}% baseline {:.0}%",
                g.group,
                g.spins,
                g.iterations,
                h.time,
                h.energy,
                100.0 * g.in_situ.success_rate,
                100.0 * g.baseline.success_rate
            );
        }
    }
    println!("host wall per experiment: {:.3} s", median(&run.walls));
    Ok(Outcome {
        correct: run.stable,
        attempted: run.walls.len() * fig10::jobs_of(&run.outcome),
        failed: usize::from(!run.stable),
        metrics,
        digest,
    })
}

fn run_traced(args: &Args, tmp: &Path, tracer: &Tracer) -> Result<Outcome, String> {
    let mut metrics = Metrics::default();
    let (attempted, errors, digest, largest) = match args.workload {
        Workload::Fig10Paper => {
            let (attempted, errors, outcome, largest) =
                fig10::run_traced(tracer, args.seed, false, &mut metrics)?;
            (attempted, errors, fig10::outcome_digest(&outcome), largest)
        }
        workload => {
            let jobs = service_jobs(workload, args.seed, Size::Full);
            let check = traced::run_service(
                tracer,
                &jobs,
                server_bin(args),
                tmp,
                workload.journaled(),
                &mut metrics,
            )
            .map_err(|e| format!("traced run failed: {e}"))?;
            let largest = jobs
                .iter()
                .filter_map(|j| j.problem.build().ok()?.to_ising().ok())
                .max_by_key(|m| m.dimension())
                .ok_or("the pass has no buildable problem")?;
            println!(
                "modeled per pass (outputs, not targets; model not validated against silicon): \
                 hw time {:.6e} s, hw energy {:.6e} J",
                check.reference.modeled_time_s, check.reference.modeled_energy_j
            );
            (
                check.attempted,
                check.errors,
                check.digest,
                largest.couplings().clone(),
            )
        }
    };
    println!(
        "probes on the largest instance (n = {}) and the dense n = 896 instance",
        largest.dimension()
    );
    probes::run(
        tracer,
        &largest,
        &dense_n896(args.seed),
        args.seed,
        &mut metrics,
    );

    let spans = tracer.spans();
    let self_ns = self_times_ns(&spans);
    for layer in SELF_TIME_LAYERS {
        let total: u64 = spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| {
                let prefix = s.name.split('.').next().unwrap_or("");
                prefix == *layer || (*layer == "bench" && prefix == "probe")
            })
            .map(|(_, ns)| ns)
            .sum();
        metrics.set(&format!("self_ms.{layer}"), total as f64 / 1e6, "ms");
    }
    let trace_path = args.out_dir.join("traces").join(format!(
        "{}-seed{}.json",
        args.workload.name(),
        args.seed
    ));
    write_json(&trace_path, &serde_json::json!({ "spans": spans }));
    println!("spans: {} written to {}", spans.len(), trace_path.display());
    println!(
        "result_digest {digest:016x}; cross-checks {}",
        if errors == 0 { "pass" } else { "FAILED" }
    );
    Ok(Outcome {
        correct: errors == 0,
        attempted,
        failed: errors,
        metrics,
        digest,
    })
}

fn write_json(path: &Path, value: &serde_json::Value) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    let body = serde_json::to_string_pretty(value).expect("json values serialize");
    if let Err(e) = std::fs::write(path, body + "\n") {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }
}

fn main() {
    let args = parse_args();
    let tmp = args.out_dir.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        usage(&format!("cannot create {}: {e}", tmp.display()));
    }
    let hw_threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    let rayon_threads = rayon::current_num_threads();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} hw_threads={hw_threads} \
         server_workers={} connections={} rayon_threads={rayon_threads} commit={} profile=release",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced),
        service::WORKERS,
        service::CONNECTIONS,
        args.commit,
    );
    let tracer = Tracer::new(args.traced);
    let result = match (args.traced, args.workload) {
        (true, _) => run_traced(&args, &tmp, &tracer),
        (false, Workload::Fig10Paper) => run_fig10_e2e(&args),
        (false, _) => run_service_e2e(&args, &tmp),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    };
    let expected = expected_names(args.traced);
    let reported: Vec<&String> = outcome.metrics.0.keys().collect();
    let mut mismatched: Vec<&String> = expected
        .iter()
        .filter(|n| !outcome.metrics.0.contains_key(*n))
        .collect();
    mismatched.extend(reported.into_iter().filter(|n| !expected.contains(n)));
    if !mismatched.is_empty() {
        eprintln!("error: metric set mismatch (missing or unexpected): {mismatched:?}");
        outcome.correct = false;
    }
    for (name, (value, unit)) in &outcome.metrics.0 {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    let record = serde_json::json!({
        "workload": args.workload.name(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.traced,
        "hw_threads": hw_threads,
        "server_workers": service::WORKERS,
        "connections": service::CONNECTIONS,
        "rayon_threads": rayon_threads,
        "commit": args.commit,
        "profile": "release",
        "result_digest": format!("{:016x}", outcome.digest),
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics.json(),
    });
    write_json(
        &args.out_dir.join("results").join(format!(
            "{}-seed{}-trace{}.json",
            args.workload.name(),
            args.seed,
            u8::from(args.traced)
        )),
        &record,
    );
    let last = serde_json::json!({
        "correct": outcome.correct,
        "attempted": outcome.attempted.max(1),
        "failed": outcome.failed,
        "metrics": outcome.metrics.json(),
    });
    println!(
        "{}",
        serde_json::to_string(&last).expect("json values serialize")
    );
}

#[cfg(test)]
mod tests;
