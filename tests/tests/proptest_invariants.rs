//! Property-based tests of the core invariants, across crate boundaries.

use proptest::prelude::*;

use fecim_ising::{
    CopProblem, Coupling, CsrCoupling, DenseCoupling, FlipMask, LocalFieldState, MaxCut, Qubo,
    SpinVector,
};

/// Strategy: a random symmetric coupling (as triplets) over `n` spins.
fn coupling_strategy(max_n: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (4..=max_n).prop_flat_map(|n| {
        let triplet =
            (0..n, 0..n, -2.0f64..2.0).prop_filter_map("no self-loops", move |(i, j, w)| {
                if i == j {
                    None
                } else {
                    Some((i.min(j), i.max(j), w))
                }
            });
        (Just(n), proptest::collection::vec(triplet, 0..3 * n))
    })
}

/// An SB force source that records the spins each step reads from: the
/// sign vector of a dSB read, the signs of a bSB read's positions.
struct SpinsRecorder<'a> {
    source: &'a mut dyn fecim::sb::MvmSource,
    seen: Vec<SpinVector>,
}

impl fecim::sb::MvmSource for SpinsRecorder<'_> {
    fn dimension(&self) -> usize {
        self.source.dimension()
    }

    fn mvm_signs(&mut self, sigma: &[i8]) -> Vec<f64> {
        self.seen.push(SpinVector::from_signs(sigma));
        self.source.mvm_signs(sigma)
    }

    fn mvm_continuous(&mut self, x: &[f64]) -> Vec<f64> {
        let signs: Vec<i8> = x.iter().map(|&v| if v >= 0.0 { 1 } else { -1 }).collect();
        self.seen.push(SpinVector::from_signs(&signs));
        self.source.mvm_continuous(x)
    }

    fn activity(&self) -> Option<fecim_crossbar::ActivityStats> {
        self.source.activity()
    }
}

/// The run invariants every engine keeps: the best state is never worse
/// than the final one and is scored exactly, acceptances never outnumber
/// iterations, the traced best never rises, and a target counts as hit
/// exactly when the best energy reaches it.
fn check_run(
    label: &str,
    coupling: &CsrCoupling,
    run: &fecim_anneal::RunResult,
    target: Option<f64>,
    tolerance: f64,
) -> Result<(), String> {
    let fail = |what: &str| Err(format!("{label}: {what}"));
    if run.best_energy > run.final_energy {
        return fail("best energy above final energy");
    }
    if (run.best_energy - coupling.energy(&run.best_spins)).abs() > tolerance {
        return fail("best energy does not score its spins");
    }
    if run.accepted > run.iterations {
        return fail("more acceptances than iterations");
    }
    if run
        .trace
        .points()
        .windows(2)
        .any(|w| w[1].best_energy > w[0].best_energy)
    {
        return fail("traced best energy rises");
    }
    let reached = target.is_some_and(|t| run.best_energy <= t);
    if run.first_target_hit.is_some() != reached {
        return fail("first target hit disagrees with the best energy");
    }
    Ok(())
}

/// A coupling that exposes only the required `Coupling` methods of the
/// CSR matrix it wraps, so every provided method runs the trait default.
struct DefaultMethods<'a>(&'a CsrCoupling);

impl Coupling for DefaultMethods<'_> {
    fn dimension(&self) -> usize {
        self.0.dimension()
    }

    fn get(&self, i: usize, j: usize) -> f64 {
        self.0.get(i, j)
    }

    fn for_each_in_row(&self, i: usize, f: impl FnMut(usize, f64)) {
        self.0.for_each_in_row(i, f)
    }

    fn coupling_count(&self) -> usize {
        self.0.coupling_count()
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The one-pass setup is bit-exact: `LocalFieldState`'s energy from its
    /// fields equals `Coupling::energy` on CSR and dense couplings, and the
    /// CSR `local_field` override gives the trait default's fields and
    /// energy.
    #[test]
    fn setup_pass_is_bit_identical(
        (n, triplets) in coupling_strategy(24),
        seed in 0u64..1000,
    ) {
        let csr = CsrCoupling::from_triplets(n, &triplets).unwrap();
        let mut dense = DenseCoupling::zeros(n);
        for i in 0..n {
            csr.for_each_in_row(i, |j, v| dense.set(i, j, v));
        }
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let spins = SpinVector::random(n, &mut rng);
        prop_assert_eq!(
            bits(&csr.local_fields(&spins)),
            bits(&DefaultMethods(&csr).local_fields(&spins))
        );
        prop_assert_eq!(
            csr.energy(&spins).to_bits(),
            DefaultMethods(&csr).energy(&spins).to_bits()
        );
        let state = LocalFieldState::new(&csr, spins.clone());
        prop_assert_eq!(state.energy().to_bits(), csr.energy(&spins).to_bits());
        let state = LocalFieldState::new(&dense, spins.clone());
        prop_assert_eq!(state.energy().to_bits(), dense.energy(&spins).to_bits());
    }

    /// Every engine keeps the run invariants of `check_run` on random
    /// couplings, seeds, flip counts and targets.
    #[test]
    fn engines_keep_run_invariants(
        (n, triplets) in coupling_strategy(12),
        seed in 0u64..1000,
        flips in 1usize..4,
        iterations in 0usize..80,
        target in -8.0f64..2.0,
    ) {
        use fecim::sb::{ExactMvm, SbEngine, SbVariant};
        use fecim_anneal::{
            run_direct, run_in_situ, run_mesa, suggest_einc_scale, Acceptance, AnnealConfig,
            ExactBackend, GeometricSchedule, MesaConfig, SteppedSchedule,
        };
        use rand::SeedableRng;

        let coupling = CsrCoupling::from_triplets(n, &triplets).unwrap();
        let tolerance = 1e-9 * (1.0 + triplets.iter().map(|t| t.2.abs()).sum::<f64>());
        let start = SpinVector::random(n, &mut rand::rngs::StdRng::seed_from_u64(seed));
        let config = AnnealConfig::new(iterations, seed)
            .with_flips(flips.min(n))
            .with_trace(3)
            .with_target_energy(target);
        let scale = suggest_einc_scale(&coupling, config.flips_per_iteration);

        let in_situ = run_in_situ(
            &mut ExactBackend::new(&coupling, start.clone()),
            &SteppedSchedule::paper(iterations.max(1)),
            &fecim_device::FractionalFactor::paper(),
            scale,
            config,
        );
        prop_assert_eq!(check_run("in-situ", &coupling, &in_situ, Some(target), tolerance), Ok(()));

        let t0 = 4.0 * scale;
        let schedule = GeometricSchedule::over_iterations(t0, t0 * 1e-3, iterations.max(1));
        for rule in [Acceptance::Metropolis, Acceptance::LinearApprox, Acceptance::Greedy] {
            let direct = run_direct(
                &mut ExactBackend::new(&coupling, start.clone()),
                &schedule,
                rule,
                config,
            );
            let label = format!("direct {rule:?}");
            prop_assert_eq!(check_run(&label, &coupling, &direct, Some(target), tolerance), Ok(()));
        }

        // MESA takes no target, so it never reports a hit.
        let mesa = run_mesa(&coupling, start.clone(), MesaConfig::new(iterations, t0, seed));
        prop_assert_eq!(check_run("MESA", &coupling, &mesa, None, tolerance), Ok(()));

        for variant in [SbVariant::Ballistic, SbVariant::Discrete] {
            let sb = SbEngine::new(variant, iterations)
                .with_trace(3)
                .with_target_energy(target)
                .run(&coupling, &mut ExactMvm::new(&coupling), &start, seed);
            prop_assert_eq!(
                check_run(variant.label(), &coupling, &sb, Some(target), tolerance),
                Ok(())
            );
        }
    }

    /// SB rescoring is exact: on non-dyadic weights (whose row sums round,
    /// so a different summation order shows in the bits), every energy a
    /// bSB or dSB run records equals `Coupling::energy` of that step's
    /// spins, bit for bit, on the exact source and on an Ideal tiled
    /// array.
    #[test]
    fn sb_recorded_energies_score_their_spins_bit_for_bit(
        (n, triplets) in coupling_strategy(20),
        seed in 0u64..1000,
        steps in 1usize..60,
        tile_rows in 3usize..9,
    ) {
        use fecim::sb::{DeviceMvm, ExactMvm, MvmSource, SbEngine, SbVariant};
        use fecim_crossbar::{CrossbarConfig, TiledCrossbar};
        use rand::SeedableRng;

        let coupling = CsrCoupling::from_triplets(n, &triplets).unwrap();
        let start = SpinVector::random(n, &mut rand::rngs::StdRng::seed_from_u64(seed));
        for variant in [SbVariant::Ballistic, SbVariant::Discrete] {
            for tiled in [false, true] {
                let engine = SbEngine::new(variant, steps).with_trace(1);
                let mut exact = ExactMvm::new(&coupling);
                let mut device = DeviceMvm::new(
                    TiledCrossbar::program(&coupling, CrossbarConfig::paper_defaults(), tile_rows),
                    4,
                );
                let source: &mut dyn MvmSource = if tiled { &mut device } else { &mut exact };
                let mut recording = SpinsRecorder { source, seen: Vec::new() };
                let run = engine.run(&coupling, &mut recording, &start, seed);
                // Step t's spins drive step t + 1's read; the last step's
                // are the final spins.
                let mut spins = recording.seen.split_off(1);
                spins.push(run.final_spins.clone());
                let label = format!("{} tiled={tiled}", variant.label());
                prop_assert_eq!(run.trace.points().len(), steps, "{}", label);
                for (point, spins) in run.trace.points().iter().zip(&spins) {
                    prop_assert_eq!(
                        point.energy.to_bits(),
                        coupling.energy(spins).to_bits(),
                        "{} step {}", label, point.iteration
                    );
                }
                prop_assert_eq!(
                    run.best_energy.to_bits(),
                    coupling.energy(&run.best_spins).to_bits(),
                    "{} best", label
                );
            }
        }
    }

    /// THE paper invariant (Eq. 9): 4·σ_rᵀJσ_c == E(σ_new) − E(σ) for any
    /// coupling, configuration and flip set.
    #[test]
    fn incremental_e_equals_direct_difference(
        (n, triplets) in coupling_strategy(24),
        seed in 0u64..1000,
        flips in 0usize..24,
    ) {
        let coupling = CsrCoupling::from_triplets(n, &triplets).unwrap();
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let spins = SpinVector::random(n, &mut rng);
        let mask = FlipMask::random(flips.min(n), n, &mut rng);
        let new_spins = spins.flipped_by(&mask);
        let direct = coupling.energy(&new_spins) - coupling.energy(&spins);
        let incremental = coupling.delta_energy(&new_spins, &mask);
        prop_assert!((direct - incremental).abs() < 1e-9,
            "direct {direct} vs incremental {incremental}");
    }

    /// Local-field state stays consistent with from-scratch evaluation
    /// after arbitrary flip sequences.
    #[test]
    fn local_fields_stay_consistent(
        (n, triplets) in coupling_strategy(16),
        seed in 0u64..1000,
        steps in 1usize..30,
    ) {
        let coupling = CsrCoupling::from_triplets(n, &triplets).unwrap();
        use rand::SeedableRng;
        use rand::Rng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut state = LocalFieldState::new(&coupling, SpinVector::random(n, &mut rng));
        for _ in 0..steps {
            let t = rng.gen_range(1..=3.min(n));
            let mask = FlipMask::random(t, n, &mut rng);
            state.apply(&mask);
        }
        let fresh = coupling.energy(state.spins());
        prop_assert!((state.energy() - fresh).abs() < 1e-6);
    }

    /// Max-Cut cut/energy duality for arbitrary weighted graphs.
    #[test]
    fn max_cut_duality(
        (n, triplets) in coupling_strategy(20),
        seed in 0u64..1000,
    ) {
        let edges: Vec<(usize, usize, f64)> = triplets;
        let mc = MaxCut::new(n, edges).unwrap();
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let spins = SpinVector::random(n, &mut rng);
        let model = mc.to_ising().unwrap();
        let via_energy = mc.cut_from_energy(model.energy(&spins));
        prop_assert!((via_energy - mc.cut_value(&spins)).abs() < 1e-9);
    }

    /// QUBO → Ising conversion preserves objective values exactly.
    #[test]
    fn qubo_ising_equivalence(
        n in 2usize..10,
        terms in proptest::collection::vec((0usize..10, 0usize..10, -3.0f64..3.0), 1..20),
        bits in proptest::collection::vec(0u8..2, 10),
    ) {
        let mut qubo = Qubo::new(n);
        for (i, j, q) in terms {
            qubo.add_term(i % n, j % n, q);
        }
        let x: Vec<u8> = bits.into_iter().take(n).collect();
        let x = if x.len() < n { vec![0; n] } else { x };
        let model = qubo.to_ising().unwrap();
        let spins = SpinVector::from_binaries(&x);
        prop_assert!((qubo.evaluate(&x) - model.energy(&spins)).abs() < 1e-9);
    }

    /// Quantized crossbar reconstruction error is bounded by half an LSB.
    #[test]
    fn quantization_error_bound(
        (n, triplets) in coupling_strategy(16),
        bits in 1u8..=8,
    ) {
        let coupling = CsrCoupling::from_triplets(n, &triplets).unwrap();
        let q = fecim_crossbar::QuantizedCoupling::from_coupling(&coupling, bits);
        let bound = q.max_quantization_error() + 1e-12;
        for i in 0..n {
            for j in 0..n {
                let err = (q.reconstruct(i, j) - coupling.get(i, j)).abs();
                prop_assert!(err <= bound, "({i},{j}): {err} > {bound}");
            }
        }
    }

    /// Flip-mask decomposition: σ_c + σ_r == σ_new with disjoint supports.
    #[test]
    fn sigma_decomposition_partitions(
        n in 1usize..64,
        seed in 0u64..1000,
        flips in 0usize..64,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let spins = SpinVector::random(n, &mut rng);
        let mask = FlipMask::random(flips.min(n), n, &mut rng);
        let s_new = spins.flipped_by(&mask);
        let c = s_new.changed_vector(&mask);
        let r = s_new.rest_vector(&mask);
        for i in 0..n {
            prop_assert_eq!(c[i] + r[i], s_new.get(i));
            prop_assert!(c[i] == 0 || r[i] == 0);
        }
    }

    /// Dense and sparse couplings agree on every energy query.
    #[test]
    fn dense_sparse_agreement(
        n in 4usize..16,
        seed in 0u64..1000,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dense = DenseCoupling::random(n, 0.5, 2.0, &mut rng);
        let sparse = CsrCoupling::from_dense(&dense);
        let spins = SpinVector::random(n, &mut rng);
        prop_assert!((dense.energy(&spins) - sparse.energy(&spins)).abs() < 1e-9);
        let mask = FlipMask::random(2.min(n), n, &mut rng);
        let s_new = spins.flipped_by(&mask);
        prop_assert!(
            (dense.delta_energy(&s_new, &mask) - sparse.delta_energy(&s_new, &mask)).abs() < 1e-9
        );
    }
}

/// The CSR rows of a coupling, values as bits.
fn csr_rows(coupling: &CsrCoupling) -> Vec<Vec<(usize, u64)>> {
    (0..coupling.dimension())
        .map(|i| {
            let (cols, values) = coupling.row_entries(i);
            cols.iter()
                .zip(values)
                .map(|(&j, v)| (j, v.to_bits()))
                .collect()
        })
        .collect()
}

/// The earlier `CsrCoupling::from_triplets`: one unstable sort of both
/// directions of every pair, then a merge. Its rows, values as bits.
fn old_from_triplets(n: usize, triplets: &[(usize, usize, f64)]) -> Vec<Vec<(usize, u64)>> {
    let mut full: Vec<(usize, usize, f64)> = Vec::new();
    for &(i, j, v) in triplets {
        full.push((i, j, v));
        full.push((j, i, v));
    }
    full.sort_unstable_by_key(|a| (a.0, a.1));
    let mut merged: Vec<(usize, usize, f64)> = Vec::new();
    for (i, j, v) in full {
        match merged.last_mut() {
            Some(last) if (last.0, last.1) == (i, j) => last.2 += v,
            _ => merged.push((i, j, v)),
        }
    }
    let mut rows = vec![Vec::new(); n];
    for (i, j, v) in merged {
        rows[i].push((j, v.to_bits()));
    }
    rows
}

/// The earlier `Qubo::to_ising` coupling triplets: an ordered-map fold.
fn old_to_ising_triplets(qubo: &Qubo) -> Vec<(usize, usize, f64)> {
    let mut quad = std::collections::BTreeMap::new();
    for &(i, j, q) in qubo.entries() {
        if i != j {
            *quad.entry((i, j)).or_insert(0.0) += q / 4.0;
        }
    }
    quad.into_iter()
        .filter(|&(_, v)| v != 0.0)
        .map(|((i, j), v)| (i, j, v / 2.0))
        .collect()
}

/// Triplets over a few spins, so pairs repeat in both orientations.
fn repeated_pairs() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (2usize..8).prop_flat_map(|n| {
        let triplet = ((0..n, 0..n), -2.0f64..2.0)
            .prop_filter_map("no self-loops", |((i, j), w)| (i != j).then_some((i, j, w)));
        (Just(n), proptest::collection::vec(triplet, 0..6 * n))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The counting-sort `from_triplets` matches the earlier sort-and-merge
    /// bit for bit wherever that one was order-independent: pairs with at
    /// most two copies, and any number of copies whose sums are exact.
    #[test]
    fn from_triplets_matches_the_sort_and_merge_bit_for_bit((n, triplets) in repeated_pairs()) {
        let mut copies = std::collections::BTreeMap::new();
        let at_most_two: Vec<(usize, usize, f64)> = triplets
            .iter()
            .copied()
            .filter(|&(i, j, _)| {
                let count = copies.entry((i.min(j), i.max(j))).or_insert(0);
                *count += 1;
                *count <= 2
            })
            .collect();
        let quarters: Vec<(usize, usize, f64)> = triplets
            .iter()
            .map(|&(i, j, w)| (i, j, (w * 8.0).round() / 4.0))
            .collect();
        for set in [&at_most_two, &quarters] {
            let new = CsrCoupling::from_triplets(n, set).expect("valid triplets");
            prop_assert_eq!(csr_rows(&new), old_from_triplets(n, set));
        }
    }

    /// `Qubo::to_ising` matches the earlier ordered-map fold bit for bit,
    /// duplicate terms included: each pair still sums from 0.0 in input
    /// order.
    #[test]
    fn qubo_to_ising_matches_the_ordered_map_fold_bit_for_bit(
        (n, terms) in repeated_pairs(),
        diagonal in proptest::collection::vec(-2.0f64..2.0, 0..4),
    ) {
        let mut qubo = Qubo::new(n);
        for (k, &(i, j, q)) in terms.iter().enumerate() {
            qubo.add_term(i, j, q);
            if let Some(&d) = diagonal.get(k % 4) {
                qubo.add_term(i, i, d);
            }
        }
        let model = qubo.to_ising().expect("valid QUBO");
        prop_assert_eq!(
            csr_rows(model.couplings()),
            old_from_triplets(n, &old_to_ising_triplets(&qubo))
        );
        // The ancilla embedding, against the earlier triplet order (each
        // row's couplings, then its field).
        if model.is_quadratic_only() {
            return;
        }
        let mut embedded = Vec::new();
        for i in 0..n {
            let (cols, values) = model.couplings().row_entries(i);
            for (&j, &v) in cols.iter().zip(values) {
                if i < j {
                    embedded.push((i + 1, j + 1, v));
                }
            }
            if model.fields()[i] != 0.0 {
                embedded.push((0, i + 1, model.fields()[i] / 2.0));
            }
        }
        prop_assert_eq!(
            csr_rows(model.to_quadratic_only().couplings()),
            old_from_triplets(n + 1, &embedded)
        );
    }
}
