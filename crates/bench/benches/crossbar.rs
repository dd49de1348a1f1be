//! Crossbar read-path benchmarks: the in-situ incremental read vs the
//! full direct VMV read, at both fidelities — the simulator-side mirror of
//! the paper's "activate only the flipped columns" argument.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use fecim_crossbar::{CrossbarConfig, Fidelity, SensingMode, TiledCrossbar};
use fecim_ising::{CsrCoupling, DenseCoupling, FlipMask, SpinVector};

fn instance(n: usize, seed: u64) -> (CsrCoupling, SpinVector, FlipMask) {
    let mut rng = StdRng::seed_from_u64(seed);
    let coupling =
        CsrCoupling::from_dense(&DenseCoupling::random(n, 10.0 / n as f64, 1.0, &mut rng));
    let spins = SpinVector::random(n, &mut rng);
    let mask = FlipMask::random(2, n, &mut rng);
    (coupling, spins, mask)
}

fn bench_reads(c: &mut Criterion) {
    let mut group = c.benchmark_group("crossbar_reads");
    group.sample_size(20);
    for &n in &[128usize, 512] {
        let (coupling, spins, mask) = instance(n, n as u64);
        let new_spins = spins.flipped_by(&mask);
        let r = new_spins.rest_vector(&mask);
        let cvec = new_spins.changed_vector(&mask);
        let mut xb = TiledCrossbar::program(&coupling, CrossbarConfig::paper_defaults(), n);
        group.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, _| {
            b.iter(|| xb.incremental_form(&r, &cvec, 0.7))
        });
        group.bench_with_input(BenchmarkId::new("full_vmv", n), &n, |b, _| {
            b.iter(|| xb.vmv(spins.as_slice()))
        });
    }
    group.finish();
}

fn bench_fidelity(c: &mut Criterion) {
    let mut group = c.benchmark_group("crossbar_fidelity");
    group.sample_size(20);
    let n = 256;
    let (coupling, spins, mask) = instance(n, 99);
    let new_spins = spins.flipped_by(&mask);
    let r = new_spins.rest_vector(&mask);
    let cvec = new_spins.changed_vector(&mask);
    for (label, fidelity) in [
        ("ideal", Fidelity::Ideal),
        ("device", Fidelity::DeviceAccurate),
    ] {
        let mut cfg = CrossbarConfig::paper_defaults();
        cfg.fidelity = fidelity;
        let mut xb = TiledCrossbar::program(&coupling, cfg, n);
        group.bench_function(BenchmarkId::new("incremental", label), |b| {
            b.iter(|| xb.incremental_form(&r, &cvec, 0.7))
        });
    }
    group.finish();
}

fn bench_tiled_reads(c: &mut Criterion) {
    // 256-row tiles against the one-tile monolithic array at a
    // beyond-array-size instance (n = 1024): same reads, per-tile
    // bookkeeping on top.
    let mut group = c.benchmark_group("tiled_reads_1024");
    group.sample_size(20);
    let n = 1024;
    let (coupling, spins, mask) = instance(n, 7);
    let new_spins = spins.flipped_by(&mask);
    let r = new_spins.rest_vector(&mask);
    let cvec = new_spins.changed_vector(&mask);
    let mut mono = TiledCrossbar::program(&coupling, CrossbarConfig::paper_defaults(), n);
    let mut tiled = TiledCrossbar::program(&coupling, CrossbarConfig::paper_defaults(), 256);
    group.bench_function("incremental/monolithic", |b| {
        b.iter(|| mono.incremental_form(&r, &cvec, 0.7))
    });
    group.bench_function("incremental/tiled256", |b| {
        b.iter(|| tiled.incremental_form(&r, &cvec, 0.7))
    });
    group.bench_function("vmv/tiled256", |b| b.iter(|| tiled.vmv(spins.as_slice())));
    group.finish();
}

fn bench_parallel_sensing(c: &mut Criterion) {
    // The acceptance number for per-stripe rayon fan-out: paper-scale
    // (n ≥ 800) direct reads with stripes sensed in parallel vs the
    // serial sequencer. Results are bit-identical (ordered reduction,
    // counter-addressed read noise); only wall-clock differs. Three
    // workloads: a dense Ideal read (the coupling-bound case), a
    // device-accurate noiseless read (per-cell FeFET evaluation, the
    // simulation-bound case), and a device-accurate read with typical
    // variation and read noise — the case that used to fall back to the
    // serial sequencer and now fans out like the others.
    let mut group = c.benchmark_group("tiled_sensing_n896");
    group.sample_size(20);
    let n = 896;
    let mut rng = StdRng::seed_from_u64(42);
    let coupling = CsrCoupling::from_dense(&DenseCoupling::random(n, 0.35, 1.0, &mut rng));
    let spins = SpinVector::random(n, &mut rng);
    let mut device_cfg = CrossbarConfig::paper_defaults();
    device_cfg.fidelity = Fidelity::DeviceAccurate;
    let mut noisy_cfg = device_cfg.clone();
    noisy_cfg.variation = fecim_device::VariationConfig::typical();
    for (label, cfg) in [
        ("ideal", CrossbarConfig::paper_defaults()),
        ("device", device_cfg),
        ("device_noisy", noisy_cfg),
    ] {
        let mut sequential = TiledCrossbar::program(&coupling, cfg.clone(), 128)
            .with_sensing_mode(SensingMode::Sequential);
        let mut parallel =
            TiledCrossbar::program(&coupling, cfg, 128).with_sensing_mode(SensingMode::Parallel);
        assert_eq!(
            sequential.vmv(spins.as_slice()),
            parallel.vmv(spins.as_slice()),
            "modes must agree bit for bit"
        );
        group.bench_function(BenchmarkId::new("vmv_sequential", label), |b| {
            b.iter(|| sequential.vmv(spins.as_slice()))
        });
        group.bench_function(BenchmarkId::new("vmv_parallel", label), |b| {
            b.iter(|| parallel.vmv(spins.as_slice()))
        });
    }
    group.finish();
}

fn bench_programming(c: &mut Criterion) {
    let mut group = c.benchmark_group("crossbar_programming");
    group.sample_size(10);
    for &n in &[256usize, 1024] {
        let (coupling, _, _) = instance(n, n as u64 + 1);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| TiledCrossbar::program(&coupling, CrossbarConfig::paper_defaults(), n))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_reads,
    bench_fidelity,
    bench_tiled_reads,
    bench_parallel_sensing,
    bench_programming
);
criterion_main!(benches);
