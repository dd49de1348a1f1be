//! Adversarial contracts of the two new scaling mechanisms:
//!
//! 1. **Parallel per-stripe sensing** is bit-identical across
//!    `RAYON_NUM_THREADS` ∈ {1, 2, 8} and across sensing modes, and in
//!    Ideal fidelity still bit-identical to the independent signal-chain
//!    oracle (`oracle/mod.rs`) — the parallel reduction replays the
//!    serial accumulation order, so scheduling must never leak into
//!    results.
//! 2. **Multi-problem batching**: every batched replica programs its own
//!    array from `CrossbarConfig::for_trial`, whose reads match the
//!    oracle's in Ideal fidelity, and a batched device-in-the-loop
//!    ensemble solve matches the unbatched tiled solver trial for trial.
//! 3. **Counter-based read noise**: DeviceAccurate sensing with
//!    `read_noise_rel > 0` takes the same parallel fan-out and stays
//!    bit-identical across thread counts, and batched device-accurate
//!    ensembles are invariant to how trials are chunked onto grids —
//!    every trial's silicon derives from the trial seed alone.
//!
//! The thread-count loop mutates `RAYON_NUM_THREADS` (read per dispatch
//! by the rayon shim). Mutating the environment while another thread
//! reads it is a data race (glibc `setenv`/`getenv`), so every test in
//! this binary serializes through [`EnvGuard`]: one lock shared by
//! mutators and readers alike, with the inherited value (CI pins it to
//! 1 or 8) restored on drop even when an assertion fails mid-case.

mod oracle;

use std::sync::{Mutex, MutexGuard, PoisonError};

use proptest::prelude::*;

use fecim::{
    BackendPlan, CimAnnealer, ProblemSpec, RunPlan, Session, SolveRequest, SolveResponse,
    SolverSpec,
};
use fecim_anneal::Ensemble;
use fecim_crossbar::{CrossbarConfig, Fidelity, SensingMode, TiledCrossbar};
use fecim_device::VariationConfig;
use fecim_ising::{CsrCoupling, FlipMask, SpinVector};
use oracle::Oracle;

/// The paper crossbar in DeviceAccurate fidelity with typical variation
/// (`read_noise_rel = 0.02`): the configuration that used to force the
/// serial sensing fallback.
fn noisy_config() -> CrossbarConfig {
    let mut cfg = CrossbarConfig::paper_defaults();
    cfg.fidelity = Fidelity::DeviceAccurate;
    cfg.variation = VariationConfig::typical();
    cfg
}

/// Everything of a response except grid placement (chunk summaries
/// legitimately differ when the same trials pack onto different grids).
fn result_fingerprint(response: &SolveResponse) -> String {
    let reports = serde_json::to_string(&response.reports).expect("reports serialize");
    let normalized = serde_json::to_string(&response.normalized).expect("normalized serialize");
    format!("{reports}|{normalized}")
}

/// Serializes `RAYON_NUM_THREADS` access across this binary's tests and
/// restores the inherited value on drop (assertion failures included).
struct EnvGuard {
    _lock: MutexGuard<'static, ()>,
    inherited: Option<String>,
}

impl EnvGuard {
    fn acquire() -> EnvGuard {
        static LOCK: Mutex<()> = Mutex::new(());
        // A panicked holder (failed assertion) left the env restored via
        // Drop, so the poisoned state carries no torn data.
        let lock = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        EnvGuard {
            _lock: lock,
            inherited: std::env::var("RAYON_NUM_THREADS").ok(),
        }
    }

    fn set_threads(&self, threads: &str) {
        std::env::set_var("RAYON_NUM_THREADS", threads);
    }
}

impl Drop for EnvGuard {
    fn drop(&mut self) {
        match &self.inherited {
            Some(value) => std::env::set_var("RAYON_NUM_THREADS", value),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
    }
}

/// Strategy: a random symmetric coupling (as triplets) over `n` spins,
/// dense enough that multi-stripe reads have real work per stripe.
fn coupling_strategy(max_n: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (12..=max_n).prop_flat_map(|n| {
        let triplet =
            (0..n, 0..n, -2.0f64..2.0).prop_filter_map("no self-loops", move |(i, j, w)| {
                if i == j {
                    None
                } else {
                    Some((i.min(j), i.max(j), w))
                }
            });
        (Just(n), proptest::collection::vec(triplet, n..6 * n))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Parallel sensing is bit-identical to sequential sensing and to the
    /// oracle at every tested thread count.
    #[test]
    fn parallel_sensing_is_thread_count_invariant(
        (n, triplets) in coupling_strategy(48),
        seed in 0u64..1000,
        flips in 1usize..6,
    ) {
        let env = EnvGuard::acquire();
        let coupling = CsrCoupling::from_triplets(n, &triplets).unwrap();
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let spins = SpinVector::random(n, &mut rng);
        let mask = FlipMask::random(flips.min(n), n, &mut rng);
        let s_new = spins.flipped_by(&mask);
        let r = s_new.rest_vector(&mask);
        let c = s_new.changed_vector(&mask);

        let reference = Oracle::program(&coupling, &CrossbarConfig::paper_defaults());
        let vmv_expected = reference.vmv(spins.as_slice());
        let inc_expected = reference.incremental_form(&r, &c, 0.41);
        let mvm_expected = reference.mvm(spins.as_slice());

        let tile_rows = (n / 3).max(1);
        let mut sequential =
            TiledCrossbar::program(&coupling, CrossbarConfig::paper_defaults(), tile_rows)
                .with_sensing_mode(SensingMode::Sequential);
        prop_assert_eq!(sequential.vmv(spins.as_slice()), vmv_expected);
        prop_assert_eq!(sequential.incremental_form(&r, &c, 0.41), inc_expected);
        prop_assert_eq!(sequential.mvm(spins.as_slice()), mvm_expected.clone());

        for threads in ["1", "2", "8"] {
            env.set_threads(threads);
            let mut parallel =
                TiledCrossbar::program(&coupling, CrossbarConfig::paper_defaults(), tile_rows)
                    .with_sensing_mode(SensingMode::Parallel);
            prop_assert_eq!(
                parallel.vmv(spins.as_slice()), vmv_expected,
                "vmv drifted at RAYON_NUM_THREADS={}", threads
            );
            prop_assert_eq!(
                parallel.incremental_form(&r, &c, 0.41), inc_expected,
                "incremental drifted at RAYON_NUM_THREADS={}", threads
            );
            prop_assert_eq!(
                parallel.mvm(spins.as_slice()), mvm_expected.clone(),
                "mvm drifted at RAYON_NUM_THREADS={}", threads
            );
        }
    }

    /// Batched replicas, each on its own per-trial array, match the
    /// oracle's reads in Ideal fidelity, whatever the thread count
    /// driving the ensemble.
    #[test]
    fn batched_reads_match_monolithic_reads(
        (n, triplets) in coupling_strategy(32),
        seed in 0u64..1000,
    ) {
        let env = EnvGuard::acquire();
        let coupling = CsrCoupling::from_triplets(n, &triplets).unwrap();
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let instances = 3usize;
        let spins: Vec<SpinVector> =
            (0..instances).map(|_| SpinVector::random(n, &mut rng)).collect();
        let reference = Oracle::program(&coupling, &CrossbarConfig::paper_defaults());
        let expected: Vec<f64> = spins.iter().map(|s| reference.vmv(s.as_slice())).collect();

        for threads in ["1", "8"] {
            env.set_threads(threads);
            let got = Ensemble::new(instances, seed).run_indexed(|i, trial_seed| {
                let config = CrossbarConfig::paper_defaults().for_trial(trial_seed);
                TiledCrossbar::program(&coupling, config, (n / 2).max(1)).vmv(spins[i].as_slice())
            });
            prop_assert_eq!(
                &got, &expected,
                "batched reads drifted at RAYON_NUM_THREADS={}", threads
            );
        }
    }

    /// Device-accurate sensing with multiplicative read noise is
    /// bit-identical between sequential and parallel modes at every
    /// tested thread count: the counter RNG addresses each draw by
    /// `(read ordinal, row, column)`, so the fan-out cannot reorder the
    /// noise stream.
    #[test]
    fn noisy_parallel_sensing_is_thread_count_invariant(
        (n, triplets) in coupling_strategy(40),
        seed in 0u64..1000,
        flips in 1usize..6,
    ) {
        let env = EnvGuard::acquire();
        let coupling = CsrCoupling::from_triplets(n, &triplets).unwrap();
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let spins = SpinVector::random(n, &mut rng);
        let mask = FlipMask::random(flips.min(n), n, &mut rng);
        let s_new = spins.flipped_by(&mask);
        let r = s_new.rest_vector(&mask);
        let c = s_new.changed_vector(&mask);

        let mut cfg = noisy_config();
        cfg.seed = seed ^ 0xD1CE;
        prop_assert!(cfg.variation.read_noise_rel > 0.0);
        let tile_rows = (n / 3).max(1);
        let mut sequential = TiledCrossbar::program(&coupling, cfg.clone(), tile_rows)
            .with_sensing_mode(SensingMode::Sequential);
        // Two reads per array: the second read must see the advanced
        // ordinal identically in every mode.
        let vmv_expected = sequential.vmv(spins.as_slice());
        let inc_expected = sequential.incremental_form(&r, &c, 0.41);

        for threads in ["1", "2", "8"] {
            env.set_threads(threads);
            let mut parallel = TiledCrossbar::program(&coupling, cfg.clone(), tile_rows)
                .with_sensing_mode(SensingMode::Parallel);
            prop_assert_eq!(
                parallel.vmv(spins.as_slice()), vmv_expected,
                "noisy vmv drifted at RAYON_NUM_THREADS={}", threads
            );
            prop_assert_eq!(
                parallel.incremental_form(&r, &c, 0.41), inc_expected,
                "noisy incremental drifted at RAYON_NUM_THREADS={}", threads
            );
        }
    }
}

#[test]
fn noisy_batched_session_is_chunk_and_thread_invariant() {
    // Solve-level pin of per-trial silicon: a device-accurate batched
    // ensemble must give the same per-trial results whether five trials
    // share one five-instance grid or pack 2+2+1 onto three successive
    // grids, at any thread count. Before counter-based noise, silicon
    // was a function of grid slot, so chunking was observable.
    let env = EnvGuard::acquire();
    let session = Session::new().with_crossbar(noisy_config());
    let request = |instances: usize| {
        SolveRequest::new(
            ProblemSpec::MaxCut {
                vertices: 20,
                edges: (0..20).map(|i| (i, (i + 1) % 20, 1.0)).collect(),
            },
            SolverSpec::Cim(CimAnnealer::new(120).with_flips(2)),
        )
        .with_backend(BackendPlan::Batched {
            tile_rows: 8,
            instances,
        })
        .with_run(RunPlan::Ensemble {
            trials: 5,
            base_seed: 901,
            threads: None,
        })
    };
    env.set_threads("1");
    let flat = result_fingerprint(&session.run(&request(5)).expect("flat run"));
    for threads in ["1", "2", "8"] {
        env.set_threads(threads);
        for instances in [5usize, 2] {
            let response = session.run(&request(instances)).expect("chunked run");
            assert_eq!(
                result_fingerprint(&response),
                flat,
                "noisy batched results drifted at instances={instances}, \
                 RAYON_NUM_THREADS={threads}"
            );
        }
    }
}

#[test]
fn batched_gset_scale_ensemble_matches_unbatched_solves() {
    // The batched-backend contract at G-set scale: three replicas of an
    // n = 800 instance share one 256-row-tile grid; every trial's whole
    // Ideal-fidelity trajectory must equal the unbatched tiled run.
    // This test only *reads* the thread count, but its dispatches must
    // not race a sibling test's env mutation — take the same guard.
    let _env = EnvGuard::acquire();
    let n = 800;
    let graph = fecim_gset::GeneratorConfig::new(n, 0xBA7C)
        .with_family(fecim_gset::GsetFamily::RandomUnit)
        .with_mean_degree(6.0)
        .generate();
    let solver = CimAnnealer::new(30).with_flips(2);
    let base_seed = 77u64;
    let batched = Session::new()
        .run(
            &SolveRequest::new(
                ProblemSpec::from_graph(&graph),
                SolverSpec::Cim(solver.clone()),
            )
            .with_backend(BackendPlan::Batched {
                tile_rows: 256,
                instances: 3,
            })
            .with_run(RunPlan::Ensemble {
                trials: 3,
                base_seed,
                threads: None,
            }),
        )
        .expect("max-cut encodes");
    assert_eq!(batched.reports.len(), 3);
    assert_eq!(batched.grids.len(), 1);
    let grid = &batched.grids[0];
    assert_eq!(grid.instances, 3);
    assert_eq!(grid.grid, (4, 12), "three 4x4 blocks side by side");
    for (i, report) in batched.reports.iter().enumerate() {
        let solo = Session::new()
            .run(
                &SolveRequest::new(
                    ProblemSpec::from_graph(&graph),
                    SolverSpec::Cim(solver.clone()),
                )
                .with_backend(BackendPlan::DeviceInLoop {
                    fidelity: Fidelity::Ideal,
                    tile_rows: Some(256),
                })
                .with_run(RunPlan::Single {
                    seed: base_seed + i as u64,
                }),
            )
            .expect("max-cut encodes")
            .reports
            .remove(0);
        assert_eq!(report.best_energy, solo.best_energy, "trial {i}");
        assert_eq!(report.best_spins, solo.best_spins, "trial {i}");
        assert_eq!(report.run.accepted, solo.run.accepted, "trial {i}");
        assert_eq!(report.run.activity, solo.run.activity, "trial {i}");
        assert_eq!(report.energy.total(), solo.energy.total(), "trial {i}");
    }
    // Sharing really happened: one grid, per-replica attribution intact.
    assert!(grid.concurrent_utilization > 0.0);
    assert!(grid.serial_time > grid.batch_time);
    for report in &batched.reports {
        assert!(report.run.activity.is_some());
        assert!(report.energy.total() > 0.0);
    }
}
