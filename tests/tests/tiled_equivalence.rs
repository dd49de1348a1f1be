//! Adversarial contract of the tiled crossbar: in `Fidelity::Ideal` mode
//! every tiling must be **bit-identical** to the independent signal-chain
//! [`Oracle`] — same global quantization, one ADC quantization point per
//! column/bit-slice on the chained stripe lines — for any tile size,
//! whether or not it divides `n`, the one-tile monolithic array included.
//! Plus the G-set-scale acceptance run: an `n ≥ 800` instance
//! device-in-the-loop through 256-row tiles.
//!
//! The Ideal read counts conducting cells per (sign pass, plane, bit
//! slice) line, so the suite also drives rows from {−1, 0, +1} (bSB's
//! bit-serial planes), sweeps `quant_bits` over {1, 4, 8} (8 fills every
//! slice lane), saturates a 2-bit ADC, and reads one dense `n = 896`
//! array whose line counts exceed 255. A dense `n = 896` DeviceAccurate
//! array with variation and read noise pins parallel stripe sensing to
//! the serial sequencer bit for bit.
//!
//! An Ideal array keeps the line counts of its last full read and
//! updates them differentially, so the suite also runs random sequences
//! of reads on one long-lived array — drives that change no row, a few,
//! half or all of them — against the oracle and against a fresh array's
//! `ActivityStats`, and reads a star whose hub column carries more
//! conducting cells on one line than a 16-bit counter holds. The bSB
//! bit-serial drive (`DeviceMvm::mvm_continuous`) keeps one such read
//! per input bit plane; evolving positions at 1, 4 and 8 input bits must
//! read like fresh arrays at every step.

mod oracle;

use proptest::prelude::*;

use fecim::CimAnnealer;
use fecim_crossbar::{
    ActivityStats, CrossbarConfig, Fidelity, QuantizedCoupling, SensingMode, TiledCrossbar,
};
use fecim_device::VariationConfig;
use fecim_gset::{GeneratorConfig, GsetFamily};
use fecim_ising::{CsrCoupling, DenseCoupling, FlipMask, SpinVector};
use fecim_sb::{DeviceMvm, MvmSource};
use oracle::Oracle;
use rand::{Rng, SeedableRng};

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

/// A read's output as bits, so `-0.0` and `0.0` differ.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// One read of a sequence: its output bits and the activity it added.
fn read_once(
    array: &mut TiledCrossbar,
    op: usize,
    sigma: &[i8],
    weights: &[i8],
    factor: f64,
) -> (Vec<u64>, ActivityStats) {
    array.reset_stats();
    let out = match op {
        0 => bits(&array.mvm(sigma)),
        1 => bits(&[array.vmv(sigma)]),
        _ => bits(&[array.incremental_form(sigma, weights, factor)]),
    };
    (out, *array.stats())
}

/// Tile sizes exercised against an `n`-spin instance: one that divides
/// `n`, several that do not, the degenerate single tile, and a
/// larger-than-array tile.
fn tile_sizes(n: usize) -> Vec<usize> {
    let mut sizes = vec![
        (n / 2).max(1), // divides n when n is even; remainder band otherwise
        3,
        5,
        7,
        n,
        n + 3,
    ];
    sizes.retain(|&t| t >= 1);
    sizes.dedup();
    sizes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// TiledCrossbar::vmv and ::mvm equal the oracle exactly in Ideal
    /// fidelity, for dividing and non-dividing tile sizes.
    #[test]
    fn tiled_vmv_is_exactly_monolithic(
        (n, triplets) in coupling_strategy(24),
        seed in 0u64..1000,
    ) {
        let coupling = CsrCoupling::from_triplets(n, &triplets).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let spins = SpinVector::random(n, &mut rng);
        let reference = Oracle::program(&coupling, &CrossbarConfig::paper_defaults());
        let expected = reference.vmv(spins.as_slice());
        let expected_mvm = reference.mvm(spins.as_slice());
        for tile_rows in tile_sizes(n) {
            let mut tiled =
                TiledCrossbar::program(&coupling, CrossbarConfig::paper_defaults(), tile_rows);
            let got = tiled.vmv(spins.as_slice());
            prop_assert_eq!(
                got, expected,
                "tile_rows={} n={}: {} != {}", tile_rows, n, got, expected
            );
            prop_assert_eq!(
                tiled.mvm(spins.as_slice()), expected_mvm.clone(),
                "mvm tile_rows={} n={}", tile_rows, n
            );
        }
    }

    /// TiledCrossbar::incremental_form equals the oracle exactly in Ideal
    /// fidelity, for random flip masks and a scaled annealing factor.
    #[test]
    fn tiled_incremental_is_exactly_monolithic(
        (n, triplets) in coupling_strategy(24),
        seed in 0u64..1000,
        flips in 1usize..8,
    ) {
        let coupling = CsrCoupling::from_triplets(n, &triplets).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let spins = SpinVector::random(n, &mut rng);
        let mask = FlipMask::random(flips.min(n), n, &mut rng);
        let s_new = spins.flipped_by(&mask);
        let r = s_new.rest_vector(&mask);
        let c = s_new.changed_vector(&mask);
        let reference = Oracle::program(&coupling, &CrossbarConfig::paper_defaults());
        for tile_rows in tile_sizes(n) {
            let mut tiled =
                TiledCrossbar::program(&coupling, CrossbarConfig::paper_defaults(), tile_rows);
            for factor in [1.0f64, 0.41] {
                let expected = reference.incremental_form(&r, &c, factor);
                let got = tiled.incremental_form(&r, &c, factor);
                prop_assert_eq!(
                    got, expected,
                    "tile_rows={} n={} factor={}", tile_rows, n, factor
                );
            }
        }
    }

    /// Ternary row drives, every slice width and a saturating 2-bit ADC:
    /// vmv, mvm and the incremental read (factors below, at and above 1)
    /// still equal the oracle exactly.
    #[test]
    fn ternary_drives_slice_widths_and_saturation_match_the_oracle(
        (n, triplets) in coupling_strategy(24),
        seed in 0u64..1000,
        bits_idx in 0usize..3,
        adc_idx in 0usize..2,
    ) {
        let coupling = CsrCoupling::from_triplets(n, &triplets).unwrap();
        let config = CrossbarConfig {
            quant_bits: [1, 4, 8][bits_idx],
            adc_bits: [2, 13][adc_idx],
            ..CrossbarConfig::paper_defaults()
        };
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut ternary = || -> Vec<i8> { (0..n).map(|_| rng.gen_range(-1i8..=1)).collect() };
        let (sigma, sigma_r, sigma_c) = (ternary(), ternary(), ternary());
        let reference = Oracle::program(&coupling, &config);
        for tile_rows in tile_sizes(n) {
            let mut tiled = TiledCrossbar::program(&coupling, config.clone(), tile_rows);
            prop_assert_eq!(tiled.vmv(&sigma), reference.vmv(&sigma), "vmv tile_rows={}", tile_rows);
            prop_assert_eq!(tiled.mvm(&sigma), reference.mvm(&sigma), "mvm tile_rows={}", tile_rows);
            for factor in [1.0f64, 0.41, 3.7] {
                prop_assert_eq!(
                    tiled.incremental_form(&sigma_r, &sigma_c, factor),
                    reference.incremental_form(&sigma_r, &sigma_c, factor),
                    "incremental tile_rows={} factor={}", tile_rows, factor
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random sequences of `mvm`, `vmv` and `incremental_form` on one
    /// long-lived Ideal array (kept full reads, differential updates,
    /// recounts, scaled and partial reads in between) equal the oracle
    /// bit for bit, and every read's `ActivityStats` equal a fresh
    /// array's, for every slice width and dividing and non-dividing
    /// tiles.
    #[test]
    fn read_sequences_on_one_array_match_the_oracle_and_a_fresh_array(
        (n, triplets) in coupling_strategy(24),
        seed in 0u64..1000,
        bits_k in 1u8..9,
        parallel in 0usize..2,
    ) {
        let coupling = CsrCoupling::from_triplets(n, &triplets).unwrap();
        let config = CrossbarConfig {
            quant_bits: bits_k,
            ..CrossbarConfig::paper_defaults()
        };
        let reference = Oracle::program(&coupling, &config);
        let mode = [SensingMode::Auto, SensingMode::Parallel][parallel];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for tile_rows in tile_sizes(n) {
            let program = || {
                TiledCrossbar::program(&coupling, config.clone(), tile_rows).with_sensing_mode(mode)
            };
            let mut tiled = program();
            let mut sigma: Vec<i8> = (0..n).map(|_| rng.gen_range(-1i8..=1)).collect();
            for step in 0..16 {
                // Change no row, a few, about half, or all of them, each
                // to one of its two other drive values.
                let changed: Vec<usize> = match rng.gen_range(0..4usize) {
                    0 => Vec::new(),
                    1 => (0..rng.gen_range(1..=3usize)).map(|_| rng.gen_range(0..n)).collect(),
                    2 => (0..n).filter(|_| rng.gen::<f64>() < 0.5).collect(),
                    _ => (0..n).collect(),
                };
                for i in changed {
                    sigma[i] = (sigma[i] + 1 + rng.gen_range(1..=2i8)) % 3 - 1;
                }
                // Incremental reads weight every column by ±1 (a full read
                // at factor 1) or by σ itself (zero columns skip).
                let weights: Vec<i8> = if rng.gen::<bool>() {
                    (0..n).map(|_| if rng.gen::<bool>() { 1 } else { -1 }).collect()
                } else {
                    sigma.clone()
                };
                let factor = [1.0, 0.41][rng.gen_range(0..2usize)];
                let op = rng.gen_range(0..3usize);
                let (got, stats) = read_once(&mut tiled, op, &sigma, &weights, factor);
                let (fresh, fresh_stats) = read_once(&mut program(), op, &sigma, &weights, factor);
                let expected = match op {
                    0 => bits(&reference.mvm(&sigma)),
                    1 => bits(&[reference.vmv(&sigma)]),
                    _ => bits(&[reference.incremental_form(&sigma, &weights, factor)]),
                };
                let label = format!("tile_rows={tile_rows} n={n} k={bits_k} step={step} op={op}");
                prop_assert_eq!(&got, &expected, "oracle {}", label);
                prop_assert_eq!(&got, &fresh, "fresh {}", label);
                prop_assert_eq!(stats, fresh_stats, "stats {}", label);
            }
        }
    }
}

#[test]
fn bit_serial_drives_keep_one_read_per_plane_and_read_like_fresh_arrays() {
    // bSB drives one sign plane per input bit, and each plane keeps its
    // own full read. Positions drift a little every step, so low bit
    // planes churn while high ones barely move, and now and then a third
    // of them jump, so planes both update and recount. Every step's
    // product and activity must equal a freshly programmed array's,
    // whose every plane sweeps.
    let n = 150;
    let mut rng = rand::rngs::StdRng::seed_from_u64(51);
    let mut triplets = Vec::new();
    for _ in 0..6 * n {
        let (i, j): (usize, usize) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if i != j {
            triplets.push((i.min(j), i.max(j), rng.gen_range(-1.0..1.0)));
        }
    }
    let coupling = CsrCoupling::from_triplets(n, &triplets).unwrap();
    for in_bits in [1u8, 4, 8] {
        for (tile_rows, mode) in [
            (n, SensingMode::Auto),
            (40, SensingMode::Auto),
            (40, SensingMode::Parallel),
        ] {
            let program = || {
                TiledCrossbar::program(&coupling, CrossbarConfig::paper_defaults(), tile_rows)
                    .with_sensing_mode(mode)
            };
            let mut kept = DeviceMvm::new(program(), in_bits);
            let mut fresh_activity = ActivityStats::new();
            let mut x: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0f64..=1.0)).collect();
            for step in 0..24 {
                for v in &mut x {
                    *v = (*v + rng.gen_range(-0.02f64..0.02)).clamp(-1.0, 1.0);
                }
                if step % 8 == 7 {
                    for _ in 0..n / 3 {
                        x[rng.gen_range(0..n)] = rng.gen_range(-1.0f64..=1.0);
                    }
                }
                let got = kept.mvm_continuous(&x);
                let mut fresh = DeviceMvm::new(program(), in_bits);
                let want = fresh.mvm_continuous(&x);
                let label = format!("in_bits={in_bits} tile_rows={tile_rows} {mode:?} step={step}");
                assert_eq!(bits(&got), bits(&want), "{label}");
                fresh_activity.merge(&fresh.activity().unwrap());
                assert_eq!(kept.activity().unwrap(), fresh_activity, "{label}");
            }
        }
    }
}

#[test]
fn star_hub_line_past_sixteen_bits_reads_differentially() {
    // The hub's column holds one entry per leaf, and almost every leaf is
    // +1, so one (pass, plane, slice) line counts more conducting cells
    // than a 16-bit counter holds. Moving leaves and then the hub itself
    // (every leaf column moves) between sign passes must read like a
    // fresh array and like the oracle.
    let n = u16::MAX as usize + 4465;
    let triplets: Vec<(usize, usize, f64)> = (1..n)
        .map(|j| (0, j, if j % 997 == 0 { -1.0 } else { 1.0 }))
        .collect();
    let coupling = CsrCoupling::from_triplets(n, &triplets).unwrap();
    let config = CrossbarConfig::paper_defaults();
    let reference = Oracle::program(&coupling, &config);
    let program = || TiledCrossbar::program(&coupling, config.clone(), 4096);
    let mut tiled = program();
    let mut sigma = vec![1i8; n];
    for step in 0..6 {
        match step {
            2 => sigma[5] = -1,
            3 => sigma[7] = 0,
            4 => sigma[0] = -1,
            5 => sigma.iter_mut().for_each(|s| *s = -*s),
            _ => {}
        }
        let (got, stats) = read_once(&mut tiled, 0, &sigma, &sigma, 1.0);
        let (fresh, fresh_stats) = read_once(&mut program(), 0, &sigma, &sigma, 1.0);
        assert_eq!(got, bits(&reference.mvm(&sigma)), "step {step}");
        assert_eq!(got, fresh, "step {step}");
        assert_eq!(stats, fresh_stats, "step {step}");
    }
    assert!(
        hub_line_count(&coupling, &sigma) > usize::from(u16::MAX),
        "the hub line outgrows 16 bits"
    );
}

/// The most conducting cells on one line of the hub's column under the
/// all-inverted drive the star test ends on.
fn hub_line_count(coupling: &CsrCoupling, sigma: &[i8]) -> usize {
    let quant =
        QuantizedCoupling::from_coupling(coupling, CrossbarConfig::paper_defaults().quant_bits);
    quant
        .column(0)
        .iter()
        .filter(|&&(row, pos, _)| sigma[row as usize] == -1 && pos & 1 == 1)
        .count()
}

#[test]
fn dense_n896_mvm_with_line_counts_past_255_matches_the_oracle() {
    // A mostly ferromagnetic dense coupling under a mostly +1 drive puts
    // hundreds of conducting cells on one (pass, plane, slice) line, so a
    // counter narrower than the column length would wrap.
    let n = 896;
    let mut dense = DenseCoupling::zeros(n);
    for i in 0..n {
        for j in i + 1..n {
            dense.set(i, j, if (i + j) % 7 == 0 { -0.5 } else { 1.0 });
        }
    }
    let coupling = CsrCoupling::from_dense(&dense);
    let sigma: Vec<i8> = (0..n)
        .map(|i| match (i % 5, i % 11) {
            (_, 0) => 0,
            (0, _) => -1,
            _ => 1,
        })
        .collect();
    let config = CrossbarConfig::paper_defaults();
    let quant = QuantizedCoupling::from_coupling(&coupling, config.quant_bits);
    let longest_line = (0..n)
        .map(|j| {
            quant
                .column(j)
                .iter()
                .filter(|&&(row, pos, _)| sigma[row as usize] == 1 && pos & 1 == 1)
                .count()
        })
        .max()
        .unwrap();
    assert!(
        longest_line > 255,
        "longest line holds {longest_line} cells"
    );
    let expected = Oracle::program(&coupling, &config).mvm(&sigma);
    for tile_rows in [128, n] {
        let mut tiled = TiledCrossbar::program(&coupling, config.clone(), tile_rows);
        assert_eq!(tiled.mvm(&sigma), expected, "tile_rows={tile_rows}");
    }
}

#[test]
fn dense_n896_noisy_parallel_vmv_matches_sequential() {
    // Paper-scale DeviceAccurate reads with typical variation and read
    // noise on 128-row tiles: counter-addressed noise lets the stripes
    // fan out, and the fan-out must not change one bit, on the first
    // read or on the next read ordinal.
    let n = 896;
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let coupling = CsrCoupling::from_dense(&DenseCoupling::random(n, 0.35, 1.0, &mut rng));
    let spins = SpinVector::random(n, &mut rng);
    let mut config = CrossbarConfig::paper_defaults();
    config.fidelity = Fidelity::DeviceAccurate;
    config.variation = VariationConfig::typical();
    let mut sequential = TiledCrossbar::program(&coupling, config.clone(), 128)
        .with_sensing_mode(SensingMode::Sequential);
    let mut parallel =
        TiledCrossbar::program(&coupling, config, 128).with_sensing_mode(SensingMode::Parallel);
    let first = sequential.vmv(spins.as_slice());
    assert_eq!(parallel.vmv(spins.as_slice()).to_bits(), first.to_bits());
    let second = sequential.vmv(spins.as_slice());
    assert_ne!(second, first, "each read draws fresh read noise");
    assert_eq!(parallel.vmv(spins.as_slice()).to_bits(), second.to_bits());
}

#[test]
fn gset_scale_instance_runs_through_256_row_tiles() {
    // The acceptance run: the paper's smallest G-set group (n = 800)
    // device-in-the-loop through the tiled array at the default 256-row
    // tile — a 4×4 grid no single physical array could hold.
    let n = 800;
    let graph = GeneratorConfig::new(n, 0x6E57)
        .with_family(GsetFamily::RandomUnit)
        .with_mean_degree(6.0)
        .generate();
    let problem = graph.to_max_cut();
    let solver = CimAnnealer::new(40)
        .with_flips(2)
        .with_tiled_device_in_loop(CrossbarConfig::paper_defaults(), 256);
    let report = solver.solve(&problem, 7).expect("max-cut always encodes");
    let activity = report.run.activity.expect("device runs record activity");
    assert!(report.feasible);
    assert!(activity.tiles_activated > 0, "tiles activated");
    // The in-situ iterations light at most t stripes × 4 row bands = 8
    // tiles; only the initial full VMV calibration touches all 16.
    assert!(activity.array_ops >= 40);
    let per_incremental = (activity.tiles_activated - 16) as f64 / (activity.array_ops - 1) as f64;
    assert!(
        per_incremental <= 8.0,
        "incremental reads stay tile-local: {per_incremental}"
    );
    assert!(report.energy.total() > 0.0);
    assert!(report.time.total() > 0.0);
}

#[test]
fn non_divisible_gset_scale_tiling_matches_monolithic_solve() {
    // 900 spins on 256-row tiles (remainder band of 132 rows): the whole
    // Ideal-fidelity solve trajectory must equal the monolithic
    // device-in-the-loop run (`tile_rows: None`, one 900-row tile) bit
    // for bit.
    let n = 900;
    let graph = GeneratorConfig::new(n, 0x6E58)
        .with_family(GsetFamily::RandomUnit)
        .with_mean_degree(4.0)
        .generate();
    let problem = graph.to_max_cut();
    let tiled = CimAnnealer::new(25)
        .with_flips(2)
        .with_tiled_device_in_loop(CrossbarConfig::paper_defaults(), 256)
        .solve(&problem, 3)
        .unwrap();
    let mono = CimAnnealer::new(25)
        .with_flips(2)
        .with_device_in_loop(CrossbarConfig::paper_defaults())
        .solve(&problem, 3)
        .unwrap();
    assert_eq!(tiled.best_energy, mono.best_energy);
    assert_eq!(tiled.best_spins, mono.best_spins);
    assert_eq!(tiled.run.accepted, mono.run.accepted);
}
