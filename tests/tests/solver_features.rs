//! Integration tests for the extended solver features: time-to-target
//! tracking, the MESA baseline, and the `ising::problems` encodings
//! (knapsack, coloring, spin glass).

use fecim::{CimAnnealer, DirectAnnealer, MesaAnnealer, SbAnnealer, Solver};
use fecim_gset::{GeneratorConfig, GsetFamily};
use fecim_ising::{CopProblem, Coupling, GraphColoring, Knapsack, MaxCut, SherringtonKirkpatrick};

/// The engine's reported best energy must be the exact `Coupling::energy`
/// of the best embedded configuration it returns — for every encoding,
/// with or without ancilla-embedded linear terms.
fn assert_energy_consistent(problem: &dyn CopProblem, report: &fecim::SolveReport) {
    let model = problem.to_ising().expect("encodes");
    let quadratic = model.to_quadratic_only();
    let recomputed = quadratic.couplings().energy(&report.run.best_spins);
    assert!(
        (recomputed - report.run.best_energy).abs() < 1e-6,
        "{}: engine best {} vs Coupling::energy {}",
        problem.name(),
        report.run.best_energy,
        recomputed
    );
}

fn unit_graph(n: usize, seed: u64) -> fecim_gset::Graph {
    GeneratorConfig::new(n, seed)
        .with_family(GsetFamily::RandomUnit)
        .with_mean_degree(10.0)
        .generate()
}

#[test]
fn first_target_hit_is_recorded_and_consistent() {
    let graph = unit_graph(100, 21);
    let problem = graph.to_max_cut();
    // An easy target: 55% of the edge weight (random assignments sit at
    // 50%; the optimum of a degree-10 unit graph is ≈62%).
    let target_cut = 0.55 * graph.edge_count() as f64;
    let target_energy = problem.energy_from_cut(target_cut);
    let report = CimAnnealer::new(3000)
        .with_target_energy(target_energy)
        .solve(&problem, 3)
        .unwrap();
    let hit = report
        .run
        .first_target_hit
        .expect("easy target must be hit");
    assert!(hit <= 3000);
    // The reported best must actually satisfy the target.
    assert!(report.best_energy <= target_energy + 1e-9);
    // An impossible target is never hit.
    let impossible = problem.energy_from_cut(graph.edge_count() as f64 * 2.0);
    let report = CimAnnealer::new(500)
        .with_target_energy(impossible)
        .solve(&problem, 3)
        .unwrap();
    assert_eq!(report.run.first_target_hit, None);
}

#[test]
fn baseline_reaches_target_later_than_in_situ_on_tight_budget() {
    // The Fig. 10 "converge faster" claim at the run level.
    let graph = unit_graph(200, 5);
    let problem = graph.to_max_cut();
    let target_energy = problem.energy_from_cut(0.58 * graph.edge_count() as f64);
    let budget = 2000;
    let mut ours_hits = Vec::new();
    let mut base_hits = Vec::new();
    for seed in 0..5u64 {
        let ours = CimAnnealer::new(budget)
            .with_target_energy(target_energy)
            .solve(&problem, seed)
            .unwrap();
        let base = DirectAnnealer::cim_asic(budget)
            .with_target_energy(target_energy)
            .solve(&problem, seed)
            .unwrap();
        if let Some(h) = ours.run.first_target_hit {
            ours_hits.push(h as f64);
        }
        if let Some(h) = base.run.first_target_hit {
            base_hits.push(h as f64);
        }
    }
    assert!(!ours_hits.is_empty(), "in-situ must hit the target");
    let ours_mean = ours_hits.iter().sum::<f64>() / ours_hits.len() as f64;
    if !base_hits.is_empty() {
        let base_mean = base_hits.iter().sum::<f64>() / base_hits.len() as f64;
        assert!(
            ours_mean <= base_mean * 1.2,
            "in-situ {ours_mean} vs baseline {base_mean}"
        );
    }
}

#[test]
fn mesa_beats_plain_baseline_on_average() {
    let graph = unit_graph(120, 9);
    let problem = graph.to_max_cut();
    let mut mesa_total = 0.0;
    let mut plain_total = 0.0;
    for seed in 0..5u64 {
        mesa_total += MesaAnnealer::new(2000)
            .solve(&problem, seed)
            .unwrap()
            .objective
            .unwrap();
        plain_total += DirectAnnealer::cim_asic(2000)
            .with_flips(1)
            .solve(&problem, seed)
            .unwrap()
            .objective
            .unwrap();
    }
    // MESA's re-heating epochs should not be materially worse; typically
    // slightly better on multimodal instances.
    assert!(
        mesa_total >= plain_total * 0.95,
        "mesa {mesa_total} vs plain {plain_total}"
    );
}

#[test]
fn sk_spin_glass_solvable_through_the_full_stack() {
    let sk = SherringtonKirkpatrick::new(100, 11).unwrap();
    let report = CimAnnealer::new(5000).with_flips(1).solve(&sk, 1).unwrap();
    // Energy density should approach the Parisi band from above.
    let density = report.objective.unwrap();
    assert!(density < -0.55, "density {density}");
    assert!(density > -0.85, "density {density} unphysically low");
    assert_energy_consistent(&sk, &report);
}

#[test]
fn knapsack_respects_capacity_and_approaches_dp_optimum() {
    let k = Knapsack::new(vec![10, 13, 7, 8], vec![3, 4, 2, 3], 7).unwrap();
    let report = CimAnnealer::new(6000).with_flips(1).solve(&k, 4).unwrap();
    assert!(report.feasible, "selection must fit the capacity");
    assert!(k.selection_weight(&report.best_spins) <= k.capacity());
    let value = report.objective.unwrap();
    let optimum = k.optimal_value() as f64;
    assert!(value <= optimum, "cannot beat the DP optimum");
    assert!(value >= 0.8 * optimum, "value {value} vs optimum {optimum}");
    assert_energy_consistent(&k, &report);
}

#[test]
fn graph_coloring_finds_a_proper_coloring() {
    // A 5-cycle is 3-colorable; every vertex must get exactly one color
    // and no edge may be monochromatic.
    let edges: Vec<(usize, usize)> = (0..5).map(|i| (i, (i + 1) % 5)).collect();
    let coloring = GraphColoring::new(5, 3, edges).unwrap();
    let report = CimAnnealer::new(8000)
        .with_flips(1)
        .solve(&coloring, 6)
        .unwrap();
    assert!(report.feasible, "must be a proper coloring");
    assert_eq!(coloring.violation_count(&report.best_spins), 0);
    let colors = coloring.decode(&report.best_spins);
    assert!(colors.iter().all(|c| c.is_some()));
    assert_energy_consistent(&coloring, &report);
}

#[test]
fn sb_variants_satisfy_the_solver_contract_on_the_standard_fixtures() {
    // Both SB variants through the same `Solver` surface as the
    // annealers: ring Max-Cut (pure quadratic), graph colouring (a
    // minimized objective whose encoding has an offset) and knapsack
    // (ancilla-embedded linear terms). The reported best energy must be
    // the exact `Coupling::energy` of the reported spins in every case.
    let ring = MaxCut::new(16, (0..16).map(|i| (i, (i + 1) % 16, 1.0)).collect()).unwrap();
    let coloring = GraphColoring::new(5, 3, (0..5).map(|i| (i, (i + 1) % 5)).collect()).unwrap();
    let knapsack = Knapsack::new(vec![10, 13, 7, 8], vec![3, 4, 2, 3], 7).unwrap();
    for solver in [SbAnnealer::ballistic(800), SbAnnealer::discrete(800)] {
        let name = fecim::Solver::name(&solver).to_string();

        let report = solver.solve(&ring, 11).unwrap();
        assert!(
            report.objective.unwrap() >= 14.0,
            "{name}: ring cut {}",
            report.objective.unwrap()
        );
        assert_energy_consistent(&ring, &report);

        // The 5-cycle is 3-colourable: SB must find a proper colouring.
        let report = solver.solve(&coloring, 11).unwrap();
        assert!(report.feasible, "{name}: colouring must be proper");
        assert_eq!(report.objective.unwrap(), 0.0, "{name}: violations");
        assert_energy_consistent(&coloring, &report);

        // A feasible selection within 80% of the DP optimum.
        let report = solver.solve(&knapsack, 11).unwrap();
        assert!(report.feasible, "{name}: selection must fit the capacity");
        let optimum = knapsack.optimal_value() as f64;
        assert!(
            report.objective.unwrap() >= 0.8 * optimum,
            "{name}: value {} vs optimum {optimum}",
            report.objective.unwrap()
        );
        assert_energy_consistent(&knapsack, &report);
    }
}
