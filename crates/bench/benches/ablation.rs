//! Ablation micro-benchmarks for the design choices DESIGN.md calls out:
//! interleaved vs blocked ADC mapping (serialization slots), quantization
//! bits (read cost), and the analytic vs device-backed annealing factor.
//! The quality-side ablations live in the `ablation_sweeps` binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use fecim_crossbar::{CrossbarConfig, MuxAssignment, TiledCrossbar};
use fecim_device::{AnnealFactor, DeviceFactor, FractionalFactor};
use fecim_ising::{CsrCoupling, DenseCoupling, FlipMask, SpinVector};

fn bench_mux_mapping(c: &mut Criterion) {
    // Slot computation for sparse activations under both placements.
    let mut group = c.benchmark_group("mux_slot_model");
    let interleaved = MuxAssignment::interleaved(3000, 8);
    let blocked = MuxAssignment::blocked(3000, 8);
    let active: Vec<usize> = vec![17, 18]; // adjacent flipped spins
    group.bench_function("interleaved", |b| {
        b.iter(|| interleaved.slots_for(std::hint::black_box(&active), 4))
    });
    group.bench_function("blocked", |b| {
        b.iter(|| blocked.slots_for(std::hint::black_box(&active), 4))
    });
    group.finish();
}

fn bench_quant_bits(c: &mut Criterion) {
    let mut group = c.benchmark_group("quant_bits_read_cost");
    group.sample_size(20);
    let n = 256;
    let mut rng = StdRng::seed_from_u64(11);
    let coupling =
        CsrCoupling::from_dense(&DenseCoupling::random(n, 10.0 / n as f64, 1.0, &mut rng));
    let spins = SpinVector::random(n, &mut rng);
    let mask = FlipMask::random(2, n, &mut rng);
    let new_spins = spins.flipped_by(&mask);
    let r = new_spins.rest_vector(&mask);
    let cvec = new_spins.changed_vector(&mask);
    for &bits in &[1u8, 2, 4, 8] {
        let mut cfg = CrossbarConfig::paper_defaults();
        cfg.quant_bits = bits;
        let mut xb = TiledCrossbar::program(&coupling, cfg, n);
        group.bench_with_input(BenchmarkId::from_parameter(bits), &bits, |b, _| {
            b.iter(|| xb.incremental_form(&r, &cvec, 0.7))
        });
    }
    group.finish();
}

fn bench_factor_backends(c: &mut Criterion) {
    let analytic = FractionalFactor::paper();
    let device = DeviceFactor::paper();
    c.bench_function("factor_analytic", |b| {
        b.iter(|| analytic.factor(std::hint::black_box(350.0)))
    });
    c.bench_function("factor_device", |b| {
        b.iter(|| device.factor(std::hint::black_box(350.0)))
    });
}

criterion_group!(
    benches,
    bench_mux_mapping,
    bench_quant_bits,
    bench_factor_backends
);
criterion_main!(benches);
