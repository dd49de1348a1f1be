//! Annealing-engine benchmarks: per-iteration cost of the in-situ flow vs
//! the direct-E Metropolis baseline on exact and crossbar backends, and
//! whole-run throughput at the paper's 800-node operating point.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use fecim_anneal::{
    run_direct, run_in_situ, suggest_einc_scale, Acceptance, AnnealConfig, ExactBackend,
    GeometricSchedule, SteppedSchedule, TiledBackend,
};
use fecim_crossbar::CrossbarConfig;
use fecim_device::FractionalFactor;
use fecim_gset::{GeneratorConfig, GsetFamily};
use fecim_ising::{CopProblem, CsrCoupling, SpinVector};

fn coupling(n: usize, degree: f64, seed: u64) -> CsrCoupling {
    let graph = GeneratorConfig::new(n, seed)
        .with_family(GsetFamily::RandomUnit)
        .with_mean_degree(degree)
        .generate();
    graph
        .to_max_cut()
        .to_ising()
        .expect("valid")
        .couplings()
        .clone()
}

fn bench_exact_engines(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_exact_1000_iters");
    group.sample_size(20);
    for &n in &[200usize, 800] {
        let j = coupling(n, 12.0, n as u64);
        let schedule = SteppedSchedule::paper(1000);
        let factor = FractionalFactor::paper();
        let scale = suggest_einc_scale(&j, 2) / 80.0;
        group.bench_with_input(BenchmarkId::new("in_situ", n), &n, |b, _| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(1);
                let mut backend = ExactBackend::new(&j, SpinVector::random(n, &mut rng));
                run_in_situ(
                    &mut backend,
                    &schedule,
                    &factor,
                    scale,
                    AnnealConfig::new(1000, 1),
                )
            })
        });
        let metro_schedule = GeometricSchedule::over_iterations(10.0, 0.1, 1000);
        group.bench_with_input(BenchmarkId::new("direct_metropolis", n), &n, |b, _| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(1);
                let mut backend = ExactBackend::new(&j, SpinVector::random(n, &mut rng));
                run_direct(
                    &mut backend,
                    &metro_schedule,
                    Acceptance::Metropolis,
                    AnnealConfig::new(1000, 1),
                )
            })
        });
    }
    group.finish();
}

fn bench_crossbar_engine(c: &mut Criterion) {
    // Device-in-the-loop is the expensive path; benchmark a short run.
    let mut group = c.benchmark_group("engine_crossbar_200_iters");
    group.sample_size(10);
    let n = 128;
    let j = coupling(n, 10.0, 5);
    let schedule = SteppedSchedule::paper(200);
    let factor = FractionalFactor::paper();
    let scale = suggest_einc_scale(&j, 2) / 80.0;
    group.bench_function("in_situ_device_in_loop", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(2);
            let mut backend = TiledBackend::new(
                &j,
                SpinVector::random(n, &mut rng),
                CrossbarConfig::paper_defaults(),
                n,
            );
            run_in_situ(
                &mut backend,
                &schedule,
                &factor,
                scale,
                AnnealConfig::new(200, 2),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_exact_engines, bench_crossbar_engine);
criterion_main!(benches);
