//! Determinism contract of the rayon-backed [`Ensemble`] runner: the
//! same base seed must produce bit-identical results at any worker
//! count — `RAYON_NUM_THREADS=1`, an explicit thread cap, or the default
//! pool — because every trial derives all randomness from its own seed
//! and outcomes are returned in trial order.

use fecim::{
    BackendPlan, CimAnnealer, DirectAnnealer, MesaAnnealer, ProblemSpec, RunPlan, SbAnnealer,
    Session, SolveRequest, Solver, SolverSpec,
};
use fecim_anneal::Ensemble;
use fecim_crossbar::{CrossbarConfig, Fidelity};
use fecim_device::VariationConfig;
use fecim_gset::{GeneratorConfig, Graph, GsetFamily};
use fecim_ising::MaxCut;

fn test_graph() -> Graph {
    GeneratorConfig::new(96, 4242)
        .with_family(GsetFamily::RandomUnit)
        .with_mean_degree(8.0)
        .generate()
}

fn test_problem() -> MaxCut {
    test_graph().to_max_cut()
}

fn best_energies(solver: &dyn Solver, problem: &MaxCut, ensemble: &Ensemble) -> Vec<f64> {
    ensemble.run(|seed| solver.solve(problem, seed).expect("valid").best_energy)
}

/// Per-trial best energies of a `trials`-trial ensemble of `solver` on
/// the test graph, measured on a device-accurate crossbar with typical
/// variation through 32-row tiles, at worker cap `threads`.
fn device_best_energies(
    solver: &SolverSpec,
    trials: usize,
    base_seed: u64,
    threads: Option<usize>,
) -> Vec<f64> {
    let mut cfg = CrossbarConfig::paper_defaults();
    cfg.fidelity = Fidelity::DeviceAccurate;
    cfg.variation = VariationConfig::typical();
    let request = SolveRequest::new(ProblemSpec::from_graph(&test_graph()), solver.clone())
        .with_backend(BackendPlan::DeviceInLoop {
            fidelity: Fidelity::DeviceAccurate,
            tile_rows: Some(32),
        })
        .with_run(RunPlan::Ensemble {
            trials,
            base_seed,
            threads,
        });
    let response = Session::new()
        .with_crossbar(cfg)
        .run(&request)
        .expect("valid");
    response.reports.iter().map(|r| r.best_energy).collect()
}

#[test]
fn same_base_seed_is_bit_identical_across_thread_counts() {
    let problem = test_problem();
    let solver = CimAnnealer::new(400).with_flips(1);

    let default_threads = best_energies(&solver, &problem, &Ensemble::new(12, 2025));
    let capped = best_energies(
        &solver,
        &problem,
        &Ensemble::new(12, 2025).with_max_threads(3),
    );
    let sequential = best_energies(
        &solver,
        &problem,
        &Ensemble::new(12, 2025).with_max_threads(1),
    );
    // Bit-identical, not approximately equal.
    assert_eq!(default_threads, sequential);
    assert_eq!(default_threads, capped);

    // And identical to a hand-rolled sequential loop over the same seeds.
    let by_hand: Vec<f64> = Ensemble::new(12, 2025)
        .seeds()
        .map(|seed| solver.solve(&problem, seed).expect("valid").best_energy)
        .collect();
    assert_eq!(default_threads, by_hand);
}

#[test]
fn rayon_num_threads_env_does_not_change_results() {
    let problem = test_problem();
    let solver = DirectAnnealer::cim_asic(400).with_flips(1);
    let ensemble = Ensemble::new(8, 7);

    // Restore any externally-set value afterwards (CI runs this whole
    // binary under RAYON_NUM_THREADS=1 on purpose).
    let previous = std::env::var("RAYON_NUM_THREADS").ok();
    let with_default_pool = best_energies(&solver, &problem, &ensemble);
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let single_threaded = best_energies(&solver, &problem, &ensemble);
    match previous {
        Some(value) => std::env::set_var("RAYON_NUM_THREADS", value),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }

    assert_eq!(with_default_pool, single_threaded);
}

#[test]
fn all_architectures_are_ensemble_deterministic() {
    let problem = test_problem();
    let solvers: [&dyn Solver; 3] = [
        &CimAnnealer::new(300).with_flips(1),
        &DirectAnnealer::cim_fpga(300).with_flips(1),
        &MesaAnnealer::new(300),
    ];
    for solver in solvers {
        let a = best_energies(solver, &problem, &Ensemble::new(6, 99));
        let b = best_energies(solver, &problem, &Ensemble::new(6, 99).with_max_threads(1));
        assert_eq!(
            a,
            b,
            "{} not deterministic across thread counts",
            solver.name()
        );
    }
}

#[test]
fn tiled_device_accurate_backend_is_ensemble_deterministic() {
    // The hardest determinism case: the device-accurate tiled backend in
    // the loop — per-tile variation maps, shared read-noise RNG, IR drop —
    // must still be bit-identical across thread counts, because every
    // trial programs its own array from its own seed.
    let solver = SolverSpec::Cim(CimAnnealer::new(150).with_flips(1));
    let default_threads = device_best_energies(&solver, 6, 314, None);
    let capped = device_best_energies(&solver, 6, 314, Some(2));
    let sequential = device_best_energies(&solver, 6, 314, Some(1));
    assert_eq!(default_threads, sequential, "bit-identical under tiling");
    assert_eq!(default_threads, capped);
    // The RAYON_NUM_THREADS env path is covered by the dedicated CI step
    // that re-runs this whole binary under a forced single thread;
    // mutating the process-global env here would race
    // `rayon_num_threads_env_does_not_change_results` under the parallel
    // test harness.
}

#[test]
fn sb_variants_are_ensemble_deterministic_at_1_2_and_8_threads() {
    // The SB family joins the determinism contract: trial results are a
    // pure function of (solver, problem, trial seed) — the momentum
    // draw, the symplectic trajectory and the sign readouts never
    // consult shared state, so thread count cannot matter.
    let problem = test_problem();
    for solver in [SbAnnealer::ballistic(200), SbAnnealer::discrete(200)] {
        let eight = best_energies(&solver, &problem, &Ensemble::new(8, 77).with_max_threads(8));
        let two = best_energies(&solver, &problem, &Ensemble::new(8, 77).with_max_threads(2));
        let one = best_energies(&solver, &problem, &Ensemble::new(8, 77).with_max_threads(1));
        assert_eq!(eight, one, "{} drifted across thread counts", solver.name());
        assert_eq!(eight, two, "{} drifted across thread counts", solver.name());
    }
}

#[test]
fn sb_device_accurate_tiled_backend_is_ensemble_deterministic() {
    // SB's hardest determinism case mirrors the annealers': the
    // device-accurate tiled crossbar in the MVM loop — per-tile
    // variation maps and counter-based read noise per MVM ordinal —
    // must stay bit-identical across thread counts because every trial
    // programs its own array from its own seed.
    let solver = SolverSpec::Sb(SbAnnealer::discrete(100));
    let default_threads = device_best_energies(&solver, 6, 515, None);
    let capped = device_best_energies(&solver, 6, 515, Some(2));
    let sequential = device_best_energies(&solver, 6, 515, Some(1));
    assert_eq!(default_threads, sequential, "bit-identical under tiling");
    assert_eq!(default_threads, capped);
}

#[test]
fn distinct_base_seeds_explore_distinct_trajectories() {
    let problem = test_problem();
    let solver = CimAnnealer::new(200).with_flips(1);
    let a = best_energies(&solver, &problem, &Ensemble::new(6, 1));
    let b = best_energies(&solver, &problem, &Ensemble::new(6, 1_000_000));
    assert_ne!(a, b, "independent ensembles should not repeat trajectories");
}

#[test]
fn parallel_reference_search_equals_a_serial_fold_over_its_starts() {
    // The starts come from one RNG in order and the reduction keeps the
    // earliest of equal energies, so the parallel search must return what
    // a serial scan of the same starts returns — spins included, which a
    // ring (many tied local optima) exercises.
    use fecim_anneal::{local_search, multi_start_local_search};
    use fecim_ising::{CopProblem, Coupling, SpinVector};
    use rand::{rngs::StdRng, SeedableRng};

    let ring = MaxCut::new(40, (0..40).map(|i| (i, (i + 1) % 40, 1.0)).collect()).expect("valid");
    for problem in [test_problem(), ring] {
        let model = problem.to_ising().expect("valid");
        let coupling = model.couplings();
        for (starts, seed) in [(1, 3), (12, 2025), (20, 9)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let serial = (0..starts)
                .map(|_| local_search(coupling, SpinVector::random(coupling.dimension(), &mut rng)))
                .reduce(|best, next| if next.1 < best.1 { next } else { best })
                .expect("at least one start");
            let parallel = multi_start_local_search(coupling, starts, seed);
            assert_eq!(parallel.0, serial.0, "{starts} starts, seed {seed}");
            assert_eq!(parallel.1.to_bits(), serial.1.to_bits());
        }
    }
}
