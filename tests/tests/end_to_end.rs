//! End-to-end integration: COP → Ising → annealer → solution, across the
//! public API of the whole workspace.

use fecim::{
    BackendPlan, CimAnnealer, DirectAnnealer, FactorChoice, ProblemSpec, RunPlan, Session,
    SolveRequest, Solver, SolverSpec,
};
use fecim_crossbar::Fidelity;
use fecim_gset::{GeneratorConfig, GsetFamily};
use fecim_ising::{Knapsack, MaxCut};

#[test]
fn in_situ_annealer_beats_target_on_gset_style_instance() {
    let graph = GeneratorConfig::new(150, 12)
        .with_family(GsetFamily::RandomUnit)
        .with_mean_degree(12.0)
        .generate();
    let problem = graph.to_max_cut();
    let report = CimAnnealer::new(4000).solve(&problem, 3).unwrap();
    // Unit-weight instance: random assignment cuts ~|E|/2; the annealer
    // must do substantially better.
    let random_level = graph.edge_count() as f64 / 2.0;
    assert!(
        report.objective.unwrap() > random_level * 1.2,
        "cut {} vs random {}",
        report.objective.unwrap(),
        random_level
    );
}

#[test]
fn energy_cut_duality_holds_through_the_solver() {
    let graph = GeneratorConfig::new(80, 5)
        .with_family(GsetFamily::RandomSigned)
        .with_mean_degree(8.0)
        .generate();
    let problem = graph.to_max_cut();
    let report = CimAnnealer::new(1000).solve(&problem, 9).unwrap();
    let expected_cut = problem.cut_from_energy(report.best_energy);
    assert!(
        (expected_cut - report.objective.unwrap()).abs() < 1e-6,
        "duality broken: {} vs {}",
        expected_cut,
        report.objective.unwrap()
    );
}

#[test]
fn knapsack_end_to_end_reaches_dp_optimum() {
    let knapsack = Knapsack::new(vec![6, 5, 8, 9, 6, 7], vec![2, 3, 6, 7, 5, 9], 15).unwrap();
    let dp = knapsack.optimal_value();
    let report = CimAnnealer::new(6000)
        .with_flips(1)
        .solve(&knapsack, 17)
        .unwrap();
    assert!(report.feasible);
    assert!(
        report.objective.unwrap() >= dp as f64 * 0.9,
        "annealed {} vs dp {dp}",
        report.objective.unwrap()
    );
}

#[test]
fn all_three_architectures_solve_the_same_problem() {
    let problem = MaxCut::new(24, (0..24).map(|i| (i, (i + 1) % 24, 1.0)).collect()).unwrap();
    let ours = CimAnnealer::new(3000)
        .with_flips(1)
        .solve(&problem, 5)
        .unwrap();
    let fpga = DirectAnnealer::cim_fpga(3000)
        .with_flips(1)
        .solve(&problem, 5)
        .unwrap();
    let asic = DirectAnnealer::cim_asic(3000)
        .with_flips(1)
        .solve(&problem, 5)
        .unwrap();
    for r in [&ours, &fpga, &asic] {
        assert!(
            r.objective.unwrap() >= 20.0,
            "{:?}: {}",
            r.kind,
            r.objective.unwrap()
        );
    }
    // Architecture ordering from the paper: FPGA > ASIC >> ours in energy.
    assert!(fpga.energy.total() > asic.energy.total());
    assert!(asic.energy.total() > ours.energy.total());
}

#[test]
fn device_factor_and_analytic_factor_agree_on_quality() {
    let graph = GeneratorConfig::new(100, 77)
        .with_family(GsetFamily::RandomUnit)
        .with_mean_degree(10.0)
        .generate();
    let problem = graph.to_max_cut();
    let analytic = CimAnnealer::new(2000)
        .with_factor(FactorChoice::PaperFractional)
        .solve(&problem, 1)
        .unwrap();
    let device = CimAnnealer::new(2000)
        .with_factor(FactorChoice::Device)
        .solve(&problem, 1)
        .unwrap();
    let a = analytic.objective.unwrap();
    let d = device.objective.unwrap();
    assert!(
        (a - d).abs() / a < 0.1,
        "factor implementations diverge: analytic {a} device {d}"
    );
}

#[test]
fn device_in_loop_matches_software_quality_within_tolerance() {
    let graph = GeneratorConfig::new(64, 13)
        .with_family(GsetFamily::RandomUnit)
        .with_mean_degree(8.0)
        .generate();
    let problem = graph.to_max_cut();
    let software = CimAnnealer::new(1500).solve(&problem, 2).unwrap();
    let request = SolveRequest::new(
        ProblemSpec::from_graph(&graph),
        SolverSpec::Cim(CimAnnealer::new(1500)),
    )
    .with_backend(BackendPlan::DeviceInLoop {
        fidelity: Fidelity::Ideal,
        tile_rows: None,
    })
    .with_run(RunPlan::Single { seed: 2 });
    let hardware = Session::new().run(&request).unwrap().reports.remove(0);
    let s = software.objective.unwrap();
    let h = hardware.objective.unwrap();
    assert!(
        (s - h).abs() / s < 0.15,
        "quantized hardware diverges: software {s} hardware {h}"
    );
    assert!(hardware.run.activity.is_some());
    assert!(software.run.activity.is_none());
}

#[test]
fn whole_pipeline_is_deterministic() {
    let graph = GeneratorConfig::new(60, 55)
        .with_family(GsetFamily::ToroidalSigned)
        .generate();
    let problem = graph.to_max_cut();
    let solver = CimAnnealer::new(800);
    let a = solver.solve(&problem, 42).unwrap();
    let b = solver.solve(&problem, 42).unwrap();
    assert_eq!(a.best_energy, b.best_energy);
    assert_eq!(a.best_spins, b.best_spins);
    assert_eq!(a.energy.total(), b.energy.total());
}
