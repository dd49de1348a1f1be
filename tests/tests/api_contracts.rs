//! API-contract tests following the Rust API guidelines: key public types
//! are `Send + Sync` (usable across the Monte-Carlo worker threads),
//! implement the common traits, and errors behave as `std::error::Error`.

use fecim::{CimAnnealer, DirectAnnealer, MesaAnnealer, SolveReport, Solver};
use fecim_crossbar::{ActivityStats, CrossbarConfig, TiledCrossbar};
use fecim_device::{DgFefet, Fefet, FractionalFactor, PreisachFefet};
use fecim_gset::{Graph, GraphError, SuiteInstance};
use fecim_ising::{
    CopProblem, CsrCoupling, DenseCoupling, GraphColoring, IsingError, IsingModel, Knapsack,
    MaxCut, ObjectiveSense, SpinVector,
};

fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn core_types_are_send_and_sync() {
    assert_send_sync::<CimAnnealer>();
    assert_send_sync::<DirectAnnealer>();
    assert_send_sync::<MesaAnnealer>();
    assert_send_sync::<SolveReport>();
    assert_send_sync::<TiledCrossbar>();
    assert_send_sync::<CrossbarConfig>();
    assert_send_sync::<ActivityStats>();
    assert_send_sync::<Fefet>();
    assert_send_sync::<DgFefet>();
    assert_send_sync::<PreisachFefet>();
    assert_send_sync::<FractionalFactor>();
    assert_send_sync::<Graph>();
    assert_send_sync::<SuiteInstance>();
    assert_send_sync::<CsrCoupling>();
    assert_send_sync::<DenseCoupling>();
    assert_send_sync::<IsingModel>();
    assert_send_sync::<MaxCut>();
    assert_send_sync::<SpinVector>();
}

#[test]
fn errors_are_std_errors_with_lowercase_messages() {
    fn check(err: &dyn std::error::Error) {
        let msg = err.to_string();
        assert!(!msg.is_empty());
        assert!(
            msg.starts_with(char::is_lowercase) || msg.starts_with(char::is_numeric),
            "error messages follow std conventions: {msg:?}"
        );
        assert!(!msg.ends_with('.'), "no trailing punctuation: {msg:?}");
    }
    check(&IsingError::DimensionMismatch {
        expected: 4,
        found: 5,
    });
    check(&IsingError::InvalidProblem("bad thing".into()));
    check(&GraphError::SelfLoop(3));
    check(&GraphError::Parse {
        line: 2,
        message: "nope".into(),
    });
    check(&fecim_device::FitError::TooFewSamples(1));
}

#[test]
fn debug_representations_are_never_empty() {
    assert!(!format!("{:?}", SpinVector::all_up(0)).is_empty());
    assert!(!format!("{:?}", ActivityStats::new()).is_empty());
    assert!(!format!("{:?}", CrossbarConfig::paper_defaults()).is_empty());
    assert!(!format!("{:?}", FractionalFactor::paper()).is_empty());
}

#[test]
fn builders_are_chainable_and_cloneable() {
    let solver = CimAnnealer::new(100)
        .with_flips(1)
        .with_einc_scale(0.5)
        .with_trace(10)
        .with_target_energy(-5.0);
    let cloned = solver.clone();
    // Both configurations drive identical runs.
    let mc = MaxCut::new(6, (0..6).map(|i| (i, (i + 1) % 6, 1.0)).collect()).unwrap();
    let a = solver.solve(&mc, 9).unwrap();
    let b = cloned.solve(&mc, 9).unwrap();
    assert_eq!(a.best_energy, b.best_energy);
}

/// The three solver architectures, as trait objects — the exact shape the
/// experiment drivers dispatch over.
fn all_solvers(iterations: usize) -> Vec<(&'static str, Box<dyn Solver>)> {
    vec![
        (
            "in-situ",
            Box::new(CimAnnealer::new(iterations).with_flips(1)),
        ),
        (
            "cim-asic",
            Box::new(DirectAnnealer::cim_asic(iterations).with_flips(1)),
        ),
        ("mesa", Box::new(MesaAnnealer::new(iterations))),
    ]
}

/// `SolveReport` invariants every solver must uphold on every problem:
/// consistent architecture tag, a native objective within the problem's
/// bounds, a truthful feasibility flag, and nonzero energy/time
/// accounting.
fn assert_report_contract(
    label: &str,
    solver: &dyn Solver,
    problem: &dyn CopProblem,
    report: &SolveReport,
    objective_bounds: (f64, f64),
) {
    assert_eq!(report.kind, solver.kind(), "{label}: kind mismatch");
    let objective = report
        .objective
        .unwrap_or_else(|| panic!("{label}: COP solve must score the native objective"));
    let (lo, hi) = objective_bounds;
    assert!(
        (lo..=hi).contains(&objective),
        "{label}: objective {objective} outside [{lo}, {hi}]"
    );
    assert_eq!(
        report.feasible,
        problem.is_feasible(&report.best_spins),
        "{label}: feasibility flag disagrees with the problem"
    );
    assert!(
        (problem.native_objective(&report.best_spins) - objective).abs() < 1e-9,
        "{label}: objective not reproducible from best_spins"
    );
    assert!(
        report.energy.total() > 0.0,
        "{label}: zero energy accounting"
    );
    assert!(report.time.total() > 0.0, "{label}: zero time accounting");
    assert!(report.run.iterations > 0, "{label}: no iterations recorded");
    assert!(
        report.best_energy.is_finite(),
        "{label}: non-finite best energy"
    );
}

#[test]
fn solver_contract_holds_on_ring_max_cut() {
    let n = 12;
    let problem = MaxCut::new(n, (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect()).unwrap();
    assert_eq!(problem.objective_sense(), ObjectiveSense::Maximize);
    for (label, solver) in all_solvers(1500) {
        let report = solver.solve(&problem, 7).unwrap();
        // A cut is between 0 and the total edge weight of the ring.
        assert_report_contract(label, solver.as_ref(), &problem, &report, (0.0, n as f64));
    }
}

#[test]
fn solver_contract_holds_on_graph_coloring() {
    // 3-colouring a 6-cycle: a minimized objective, and a one-hot
    // encoding with a constant offset.
    let n = 6;
    let problem = GraphColoring::new(n, 3, (0..n).map(|i| (i, (i + 1) % n)).collect()).unwrap();
    assert_eq!(problem.objective_sense(), ObjectiveSense::Minimize);
    for (label, solver) in all_solvers(2000) {
        let report = solver.solve(&problem, 11).unwrap();
        // Violations: at most one per uncoloured vertex plus one per edge.
        assert_report_contract(
            label,
            solver.as_ref(),
            &problem,
            &report,
            (0.0, 2.0 * n as f64),
        );
    }
}

#[test]
fn solver_contract_holds_on_knapsack() {
    // The capacity penalty carries linear terms (exercises the ancilla
    // path); a feasible selection scores at most the optimum, 23.
    let problem = Knapsack::new(vec![10, 13, 7, 8], vec![3, 4, 2, 3], 7).unwrap();
    for (label, solver) in all_solvers(3000) {
        let report = solver.solve(&problem, 3).unwrap();
        assert_report_contract(label, solver.as_ref(), &problem, &report, (0.0, 23.0));
    }
}

#[test]
fn solvers_work_behind_threads() {
    // The exact pattern the Monte-Carlo harness relies on.
    let solver = CimAnnealer::new(200);
    let mc = MaxCut::new(8, (0..8).map(|i| (i, (i + 1) % 8, 1.0)).collect()).unwrap();
    let results: Vec<f64> = std::thread::scope(|scope| {
        (0..4u64)
            .map(|seed| {
                let solver = &solver;
                let mc = &mc;
                scope.spawn(move || solver.solve(mc, seed).unwrap().best_energy)
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    assert_eq!(results.len(), 4);
}
