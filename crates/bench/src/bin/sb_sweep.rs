//! Simulated-bifurcation ablation: bSB and dSB against the CiM in-situ
//! annealer and the MESA baseline at **matched simulated hardware
//! time**, on a dense-ish Max-Cut instance (n ≥ 800) and a
//! Sherrington–Kirkpatrick spin glass.
//!
//! The SB arms spend their budget on full-vector MVM reads (one per
//! step for dSB, `in_bits` bit-serial planes for bSB), the annealer
//! arms on per-flip incremental-E sensing — the comparison the SB
//! family exists for: at equal array time the synchronous update
//! touches every spin each step, where the annealers touch `t = |F|`.
//! The bSB arm sets the per-trial time budget; every other arm's
//! iteration count is rescaled to it (analytic hardware time is linear
//! in iterations, so the match is exact up to rounding).
//!
//! Reported per arm: iterations, per-trial hardware time (the matched
//! budget), mean/best quality, and quality per unit hardware time.
//!
//! `cargo run --release -p fecim-bench --bin sb_sweep \
//!     [--scale quick|paper] [--repeat N]`
//!
//! `--repeat N` widens every arm's ensemble N-fold (distinct seeds) —
//! the same spelling the other sweeps use (see `queue_sweep`).

use fecim::{
    CimAnnealer, MesaAnnealer, ProblemSpec, RunPlan, SbAnnealer, Session, SolveRequest,
    SolveResponse, SolverSpec,
};
use fecim_anneal::multi_start_local_search;
use fecim_bench::{parse_repeat, parse_scale, HarnessScale};
use fecim_gset::{GeneratorConfig, GsetFamily};
use fecim_ising::{CopProblem, Coupling, SherringtonKirkpatrick};

/// One comparison arm: a label plus a solver builder at a given
/// iteration/step count.
struct Arm {
    label: &'static str,
    build: fn(usize) -> SolverSpec,
}

const ARMS: [Arm; 4] = [
    Arm {
        label: "bSB",
        build: |steps| SolverSpec::Sb(SbAnnealer::ballistic(steps)),
    },
    Arm {
        label: "dSB",
        build: |steps| SolverSpec::Sb(SbAnnealer::discrete(steps)),
    },
    Arm {
        label: "CiM in-situ",
        build: |iters| SolverSpec::Cim(CimAnnealer::new(iters).with_flips(1)),
    },
    Arm {
        label: "MESA",
        build: |iters| SolverSpec::Mesa(MesaAnnealer::new(iters)),
    },
];

struct ArmResult {
    label: &'static str,
    iterations: usize,
    hw_time_per_trial: f64,
    mean_objective: f64,
    best_objective: f64,
    best_energy: f64,
}

/// Run every arm on `spec` at the bSB arm's per-trial hardware budget.
fn run_matched(
    session: &Session,
    spec: &ProblemSpec,
    bsb_steps: usize,
    trials: usize,
    base_seed: u64,
) -> Vec<ArmResult> {
    let run_arm = |arm: &Arm, iterations: usize| -> (SolveResponse, usize) {
        let request =
            SolveRequest::new(spec.clone(), (arm.build)(iterations)).with_run(RunPlan::Ensemble {
                trials,
                base_seed,
                threads: None,
            });
        let response = session
            .run(&request)
            .unwrap_or_else(|e| fecim_bench::fail_exit(&e));
        (response, iterations)
    };
    let per_trial = |response: &SolveResponse| response.summary.total_time / trials as f64;

    // The bSB arm sets the budget; the others probe once and rescale.
    let (bsb, _) = run_arm(&ARMS[0], bsb_steps);
    let budget = per_trial(&bsb);
    let mut results = Vec::new();
    for (i, arm) in ARMS.iter().enumerate() {
        let (response, iterations) = if i == 0 {
            (bsb.clone(), bsb_steps)
        } else {
            let (probe, probe_iters) = run_arm(arm, bsb_steps.max(64));
            let scaled = ((probe_iters as f64) * budget / per_trial(&probe))
                .round()
                .max(1.0) as usize;
            run_arm(arm, scaled)
        };
        let objectives: Vec<f64> = response
            .reports
            .iter()
            .map(|r| r.objective.unwrap_or(r.best_energy))
            .collect();
        let mean = objectives.iter().sum::<f64>() / objectives.len() as f64;
        let best = response
            .summary
            .best_objective
            .unwrap_or(response.summary.best_energy);
        results.push(ArmResult {
            label: arm.label,
            iterations,
            hw_time_per_trial: per_trial(&response),
            mean_objective: mean,
            best_objective: best,
            best_energy: response.summary.best_energy,
        });
    }
    results
}

fn print_table(title: &str, sense: &str, results: &[ArmResult]) -> Vec<serde_json::Value> {
    let budget = results[0].hw_time_per_trial;
    println!("--- {title} ({sense}; per-trial budget {budget:.3e} s) ---");
    println!(
        "{:>12} {:>9} {:>12} {:>12} {:>12} {:>12}",
        "arm", "iters", "hw(s)/trial", "mean obj", "best obj", "best E"
    );
    let mut rows = Vec::new();
    for r in results {
        // The honesty check behind "matched hardware time": every arm
        // must actually land on the bSB budget (rounding aside).
        assert!(
            (r.hw_time_per_trial - budget).abs() / budget < 0.05,
            "{}: hardware time {} strays from the {} budget",
            r.label,
            r.hw_time_per_trial,
            budget
        );
        println!(
            "{:>12} {:>9} {:>12.3e} {:>12.2} {:>12.2} {:>12.2}",
            r.label,
            r.iterations,
            r.hw_time_per_trial,
            r.mean_objective,
            r.best_objective,
            r.best_energy
        );
        rows.push(serde_json::json!({
            "arm": r.label,
            "iterations": r.iterations,
            "hw_time_per_trial_s": r.hw_time_per_trial,
            "mean_objective": r.mean_objective,
            "best_objective": r.best_objective,
            "best_energy": r.best_energy,
        }));
    }
    println!();
    rows
}

fn main() {
    let scale = parse_scale();
    let repeat = parse_repeat();
    let (n_cut, degree, n_sk, bsb_steps, trials) = match scale {
        HarnessScale::Quick => (800, 6.0, 200, 250, 3),
        HarnessScale::Paper => (2000, 10.0, 800, 1500, 10),
    };
    let trials = trials * repeat;
    let session = Session::new();

    println!(
        "=== sb_sweep: bSB/dSB vs CiM/MESA annealing at matched hardware time \
         (Max-Cut n={n_cut}, SK n={n_sk}, {trials} trials) ===\n"
    );

    // --- Max-Cut, n >= 800 ------------------------------------------------
    let graph = GeneratorConfig::new(n_cut, 0x5B)
        .with_family(GsetFamily::RandomUnit)
        .with_mean_degree(degree)
        .generate();
    let problem = graph.to_max_cut();
    let model = problem
        .to_ising()
        .unwrap_or_else(|e| fecim_bench::fail_exit(&e));
    let (_, ls_energy) = multi_start_local_search(model.couplings(), 6, 9);
    let reference = problem.cut_from_energy(ls_energy);
    let cut_results = run_matched(
        &session,
        &ProblemSpec::from_graph(&graph),
        bsb_steps,
        trials,
        2025,
    );
    for r in &cut_results {
        assert!(
            r.best_objective >= 0.8 * reference,
            "{}: cut {} below 80% of the local-search reference {}",
            r.label,
            r.best_objective,
            reference
        );
    }
    let cut_rows = print_table(
        &format!("Max-Cut n={n_cut} (reference cut {reference})"),
        "maximize cut",
        &cut_results,
    );

    // --- Sherrington–Kirkpatrick spin glass --------------------------------
    let sk = SherringtonKirkpatrick::new(n_sk, 11).unwrap_or_else(|e| fecim_bench::fail_exit(&e));
    let sk_model = sk.to_ising().unwrap_or_else(|e| fecim_bench::fail_exit(&e));
    let n = sk_model.couplings().dimension();
    let mut j = vec![vec![0.0; n]; n];
    for (row, j_row) in j.iter_mut().enumerate() {
        sk_model
            .couplings()
            .for_each_in_row(row, |col, value| j_row[col] = value);
    }
    let sk_results = run_matched(
        &session,
        &ProblemSpec::Ising { h: vec![0.0; n], j },
        bsb_steps,
        trials,
        7,
    );
    let sk_rows = print_table(
        &format!("Sherrington–Kirkpatrick n={n_sk}"),
        "minimize energy",
        &sk_results,
    );

    println!(
        "(every arm spends the bSB arm's per-trial hardware budget: SB on full-vector MVM \
         reads, the annealers on per-flip incremental-E sensing)"
    );
    fecim_bench::write_artifact(
        "sb_sweep",
        &serde_json::json!({
            "scale": format!("{scale:?}"),
            "trials": trials,
            "bsb_steps": bsb_steps,
            "max_cut": serde_json::json!({
                "spins": n_cut,
                "reference_cut": reference,
                "rows": cut_rows,
            }),
            "sk": serde_json::json!({
                "spins": n_sk,
                "rows": sk_rows,
            }),
        }),
    );
}
