//! The paper-scale Fig. 10 protocol in process: `run_experiment` on the
//! 30-instance suite, 100 runs per instance, in-situ vs direct-E.

use std::time::Instant;

use fecim::anneal::{multi_start_local_search, success_rate, Aggregate, Ensemble};
use fecim::experiment::AlgoStats;
use fecim::ising::{CopProblem, Coupling};
use fecim::{
    run_experiment, CimAnnealer, DirectAnnealer, ExperimentConfig, ExperimentOutcome, ProblemSpec,
    RunPlan, Scale, Session, SolveRequest, SolverSpec,
};

use crate::digest::Fnv;
use crate::service::SETUP_REPS;
use crate::stats::median;
use crate::trace::Tracer;
use crate::Metrics;

/// The experiment configuration for a seed (`Smoke` shrinks it to the
/// quick suite with two groups).
pub fn config(seed: u64, smoke: bool) -> ExperimentConfig {
    let mut config = if smoke {
        let mut c = ExperimentConfig::new(Scale::Quick);
        c.runs_per_instance = 4;
        c.max_spins = Some(120);
        c
    } else {
        ExperimentConfig::new(Scale::Paper)
    };
    config.seed = seed;
    config
}

/// Digest of an experiment outcome: every group's statistics and
/// modeled hardware cost.
pub fn outcome_digest(outcome: &ExperimentOutcome) -> u64 {
    let mut h = Fnv::default();
    h.write_json(outcome);
    h.finish()
}

/// Ensemble requests the protocol issues (two annealers per instance).
pub fn jobs_of(outcome: &ExperimentOutcome) -> usize {
    outcome.groups.iter().map(|g| 2 * g.instances).sum()
}

/// Whether an outcome is well formed: every group present with its
/// instances and runs, rates within [0, 1].
pub fn outcome_ok(outcome: &ExperimentOutcome, expected_instances: usize) -> bool {
    let instances: usize = outcome.groups.iter().map(|g| g.instances).sum();
    instances == expected_instances
        && outcome.groups.iter().all(|g| {
            g.runs_per_instance == outcome.config.runs_per_instance
                && (0.0..=1.0).contains(&g.in_situ.success_rate)
                && (0.0..=1.0).contains(&g.baseline.success_rate)
                && g.in_situ.mean_normalized_cut.is_finite()
        })
}

/// Everything the untraced run measured.
#[derive(Debug)]
pub struct Fig10Run {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Wall seconds of each experiment.
    pub walls: Vec<f64>,
    /// The first outcome.
    pub outcome: ExperimentOutcome,
    /// Whether every repetition reproduced the first digest and was well
    /// formed.
    pub stable: bool,
}

/// Set-up: build the configuration and materialize the suite, whose
/// sizes are checked before the run.
fn set_up(seed: u64, smoke: bool) -> (ExperimentConfig, usize, f64) {
    let mut setups = Vec::new();
    let mut result = None;
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        let config = config(seed, smoke);
        let suite = config.instances();
        let mut vertices = 0usize;
        let mut count = 0usize;
        for inst in &suite {
            if config
                .max_spins
                .is_some_and(|m| inst.config.vertex_count > m)
            {
                continue;
            }
            vertices += inst.graph().vertex_count();
            count += 1;
        }
        std::hint::black_box(vertices);
        let _ = fecim::anneal::Ensemble::new(1, 0).run(|s| s);
        setups.push(started.elapsed().as_secs_f64());
        result = Some((config, count));
    }
    let (config, count) = result.expect("SETUP_REPS > 0");
    (config, count, median(&setups))
}

/// Run the experiment `repetitions` times.
pub fn run(seed: u64, repetitions: usize, smoke: bool) -> Result<Fig10Run, String> {
    let (config, instances, setup_s) = set_up(seed, smoke);
    let mut walls = Vec::new();
    let mut first: Option<(ExperimentOutcome, u64)> = None;
    let mut stable = true;
    for _ in 0..repetitions.max(1) {
        let started = Instant::now();
        let outcome = run_experiment(config).map_err(|e| e.to_string())?;
        walls.push(started.elapsed().as_secs_f64());
        let digest = outcome_digest(&outcome);
        stable &= outcome_ok(&outcome, instances);
        match &first {
            Some((_, d)) => stable &= *d == digest,
            None => first = Some((outcome, digest)),
        }
    }
    let (outcome, _) = first.expect("ran at least once");
    Ok(Fig10Run {
        setup_s,
        walls,
        outcome,
        stable,
    })
}

/// The traced run: the experiment once untraced, then the same protocol
/// rebuilt from library calls (reference search, problem encoding,
/// `Session` prepare / trials / finish) with a span around each call,
/// checked statistic for statistic against the untraced outcome.
/// Returns (attempted, errors, the untraced outcome, the largest
/// instance's coupling).
pub fn run_traced(
    tracer: &Tracer,
    seed: u64,
    smoke: bool,
    metrics: &mut Metrics,
) -> Result<(usize, usize, ExperimentOutcome, fecim::ising::CsrCoupling), String> {
    let config = config(seed, smoke);
    let started = Instant::now();
    let outcome = run_experiment(config).map_err(|e| e.to_string())?;
    let plain_wall = started.elapsed().as_secs_f64();

    let session = Session::new();
    let suite = config.instances();
    let mut errors = 0usize;
    let mut attempted = 0usize;
    let (mut encode_ising, mut prepare, mut trials, mut finish, mut reference) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut largest: Option<fecim::ising::CsrCoupling> = None;
    let traced_started = Instant::now();
    for group_outcome in &outcome.groups {
        let group = group_outcome.group;
        let members: Vec<_> = suite.iter().filter(|i| i.group == group).collect();
        let iterations = config.iterations_for(group);
        let mut runs: [Vec<(f64, Option<usize>)>; 2] = [Vec::new(), Vec::new()];
        for (inst_idx, inst) in members.iter().enumerate() {
            let req = Some(attempted);
            let graph = inst.graph();
            let problem = graph.to_max_cut();
            let model = problem.to_ising().map_err(|e| e.to_string())?;
            let ((_, energy), ns) = tracer.timed("anneal.reference", None, req, |_| {
                multi_start_local_search(model.couplings(), config.reference_starts, config.seed)
            });
            reference.push(ns as f64);
            if largest
                .as_ref()
                .is_none_or(|c| c.dimension() < model.dimension())
            {
                largest = Some(model.couplings().clone());
            }
            let cut = problem.cut_from_energy(energy);
            let target = problem.energy_from_cut(config.target_fraction * cut);
            let base_seed = config.seed ^ ((inst_idx as u64) << 32);
            let spec = ProblemSpec::from_graph(&graph);
            let solvers = [
                SolverSpec::Cim(CimAnnealer::new(iterations).with_target_energy(target)),
                SolverSpec::Direct(DirectAnnealer::cim_asic(iterations).with_target_energy(target)),
            ];
            for (arm, solver) in solvers.into_iter().enumerate() {
                attempted += 1;
                let request = SolveRequest::new(spec.clone(), solver)
                    .with_run(RunPlan::Ensemble {
                        trials: config.runs_per_instance,
                        base_seed,
                        threads: None,
                    })
                    .with_reference(cut);
                tracer.span("bench.job", None, req, |root| {
                    let (_, ns) = tracer.timed("ising.encode", root, req, |_| {
                        request.problem.build().and_then(|p| p.to_ising())
                    });
                    encode_ising.push(ns as f64);
                    let (prepared, ns) =
                        tracer.timed("session.prepare", root, req, |_| session.prepare(&request));
                    prepare.push(ns as f64);
                    let Ok(prepared) = prepared else {
                        errors += 1;
                        return;
                    };
                    // The same fan-out `Session::run` uses; each trial in
                    // its own span on whichever pool thread runs it.
                    let timed: Vec<_> =
                        Ensemble::new(config.runs_per_instance, base_seed).run(|trial_seed| {
                            let trial = trial_seed.wrapping_sub(base_seed) as usize;
                            tracer.timed("session.trial", root, req, |_| prepared.run_trial(trial))
                        });
                    let mut reports = Vec::with_capacity(timed.len());
                    for (report, ns) in timed {
                        trials.push(ns as f64);
                        match report {
                            Ok(r) => reports.push(r),
                            Err(_) => errors += 1,
                        }
                    }
                    let (response, ns) = tracer.timed("session.finish", root, req, |_| {
                        prepared.finish(reports, Vec::new())
                    });
                    finish.push(ns as f64);
                    let Ok(response) = response else {
                        errors += 1;
                        return;
                    };
                    runs[arm].extend(response.normalized_pairs().unwrap_or_default());
                });
            }
        }
        // Rebuild the group statistics exactly as the protocol does and
        // compare them bit for bit with the untraced outcome.
        let stats = |runs: &[(f64, Option<usize>)]| {
            let cuts: Vec<f64> = runs.iter().map(|r| r.0).collect();
            let hits: Vec<f64> = runs.iter().filter_map(|r| r.1).map(|h| h as f64).collect();
            let agg = Aggregate::of(&cuts);
            AlgoStats {
                mean_normalized_cut: agg.mean,
                std_normalized_cut: agg.std_dev,
                success_rate: success_rate(&cuts, config.target_fraction, true),
                mean_iterations_to_target: (!hits.is_empty()).then(|| Aggregate::of(&hits).mean),
            }
        };
        errors += usize::from(stats(&runs[0]) != group_outcome.in_situ);
        errors += usize::from(stats(&runs[1]) != group_outcome.baseline);
    }
    let traced_wall = traced_started.elapsed().as_secs_f64();

    metrics.set(
        "trace_overhead_frac",
        traced_wall / plain_wall - 1.0,
        "frac",
    );
    metrics.set("ising.encode_ms", median(&encode_ising) / 1e6, "ms");
    metrics.set("session.prepare_ms", median(&prepare) / 1e6, "ms");
    metrics.set("session.trial_ms", median(&trials) / 1e6, "ms");
    metrics.set("session.finish_us", median(&finish) / 1e3, "us");
    metrics.set("anneal.reference_ms", median(&reference) / 1e6, "ms");
    // The protocol runs in process on the analytic backend: no wire
    // codec, server, scheduler, grid, journal or modeled crossbar
    // activity, so those layers read 0.
    for (name, unit) in [
        ("jsonl.parse_us_per_kb", "us/KB"),
        ("jsonl.encode_us_per_kb", "us/KB"),
        ("jsonl.request_bytes", "B"),
        ("jsonl.response_bytes", "B"),
        ("tcp.status_rtt_us", "us"),
        ("scheduler.queue_wait_ms", "ms"),
        ("scheduler.overhead_us_per_trial", "us"),
        ("grid.admissions", "count"),
        ("grid.peak_concurrent_instances", "count"),
        ("grid.utilization", "frac"),
        ("grid.waiting_jobs_peak", "count"),
        ("journal.bytes", "B"),
        ("crossbar.cells_activated", "count"),
        ("crossbar.adc_slots", "count"),
        ("crossbar.ns_per_cell", "ns"),
    ] {
        metrics.set(name, 0.0, unit);
    }
    let largest = largest.ok_or("the suite is empty")?;
    Ok((2 * attempted, errors, outcome, largest))
}
