//! Direct layer probes on a workload's largest instance: crossbar
//! programming and reads (Ideal and noisy), device cell evaluation,
//! engine iterations and SB steps. Every call is timed by a span; the
//! reported value is the median span, divided by the calls one span
//! covers.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use fecim::anneal::{
    multi_start_local_search, run_direct, run_in_situ, run_mesa, suggest_einc_scale, Acceptance,
    AnnealConfig, ExactBackend, GeometricSchedule, MesaConfig, SteppedSchedule, TiledBackend,
};
use fecim::crossbar::{CrossbarConfig, Fidelity, TiledCrossbar};
use fecim::device::{DgFefet, FractionalFactor, StoredBit, VariationConfig};
use fecim::ising::{Coupling, CsrCoupling, FlipMask, SpinVector};
use fecim::sb::{DeviceMvm, SbEngine, SbVariant};

use crate::stats::median;
use crate::trace::Tracer;
use crate::Metrics;

/// Tile height of every probed array (the service workloads' tiling).
const TILE_ROWS: usize = 128;
/// Time budget per probed call kind.
const BUDGET: Duration = Duration::from_millis(150);
/// Fewest calls per probed kind.
const MIN_REPS: usize = 3;

/// Ideal and noisy (DeviceAccurate, typical variation, read noise)
/// crossbar configurations.
pub fn configs() -> [(&'static str, CrossbarConfig); 2] {
    let mut noisy = CrossbarConfig::paper_defaults();
    noisy.fidelity = Fidelity::DeviceAccurate;
    noisy.variation = VariationConfig::typical();
    [
        ("ideal", CrossbarConfig::paper_defaults()),
        ("noisy", noisy),
    ]
}

/// Call `f` inside `name` spans until the budget is spent (at least
/// `MIN_REPS` times) and return the median span duration in ns.
fn probe<T>(tracer: &Tracer, name: &str, parent: Option<usize>, mut f: impl FnMut() -> T) -> f64 {
    let started = Instant::now();
    let mut durations = Vec::new();
    while durations.len() < MIN_REPS || (started.elapsed() < BUDGET && durations.len() < 10_000) {
        let (out, ns) = tracer.timed(name, parent, None, |_| f());
        black_box(out);
        durations.push(ns as f64);
    }
    median(&durations)
}

/// Probe every layer on `coupling` (the workload's largest instance) and
/// on `dense` (the n = 896 sensing-sweep instance).
pub fn run(
    tracer: &Tracer,
    coupling: &CsrCoupling,
    dense: &CsrCoupling,
    seed: u64,
    metrics: &mut Metrics,
) {
    let n = coupling.dimension();
    let mut rng = StdRng::seed_from_u64(seed);
    let spins = SpinVector::random(n, &mut rng);
    let mask = FlipMask::random(2.min(n), n, &mut rng);
    let flipped = spins.flipped_by(&mask);
    let rest = flipped.rest_vector(&mask);
    let changed = flipped.changed_vector(&mask);

    tracer.span("probe.crossbar", None, None, |parent| {
        for (label, config) in configs() {
            let program_ns = probe(tracer, "crossbar.program", parent, || {
                TiledCrossbar::program(coupling, config.clone(), TILE_ROWS)
            });
            if label == "ideal" {
                metrics.set("crossbar.program_ms", program_ns / 1e6, "ms");
            }
            let mut array = TiledCrossbar::program(coupling, config.clone(), TILE_ROWS);
            let vmv = probe(tracer, "crossbar.vmv", parent, || {
                array.vmv(spins.as_slice())
            });
            let mvm = probe(tracer, "crossbar.mvm", parent, || {
                array.mvm(spins.as_slice())
            });
            let inc = probe(tracer, "crossbar.incremental", parent, || {
                array.incremental_form(rest.as_slice(), changed.as_slice(), 0.7)
            });
            metrics.set(&format!("crossbar.vmv_us.{label}"), vmv / 1e3, "us");
            metrics.set(&format!("crossbar.mvm_us.{label}"), mvm / 1e3, "us");
            metrics.set(&format!("crossbar.incremental_us.{label}"), inc / 1e3, "us");
            let dense_spins = SpinVector::random(dense.dimension(), &mut rng);
            let mut dense_array = TiledCrossbar::program(dense, config, TILE_ROWS);
            let dense_vmv = probe(tracer, "crossbar.vmv", parent, || {
                dense_array.vmv(dense_spins.as_slice())
            });
            metrics.set(
                &format!("crossbar.vmv_us.{label}.n896"),
                dense_vmv / 1e3,
                "us",
            );
        }
    });

    const CELL_CALLS: usize = 10_000;
    tracer.span("probe.device", None, None, |parent| {
        let mut cell = DgFefet::new(Default::default());
        cell.program(StoredBit::One);
        let sl = probe(tracer, "device.sl_current", parent, || {
            let mut acc = 0.0;
            for k in 0..CELL_CALLS {
                acc += cell.sl_current(k % 2 == 0, true, black_box(0.55));
            }
            acc
        });
        metrics.set("device.sl_current_ns", sl / CELL_CALLS as f64, "ns");
        let [(_, _), (_, noisy)] = configs();
        let array = TiledCrossbar::program(coupling, noisy, TILE_ROWS);
        let cf = probe(tracer, "device.cell_factor", parent, || {
            let mut acc = 0.0;
            for k in 0..CELL_CALLS {
                acc += array.cell_factor(black_box(0.1 + (k % 8) as f64 * 0.05));
            }
            acc
        });
        metrics.set("device.cell_factor_ns", cf / CELL_CALLS as f64, "ns");
    });

    tracer.span("probe.anneal", None, None, |parent| {
        const ITERS: usize = 2000;
        let schedule = SteppedSchedule::paper(ITERS);
        let factor = FractionalFactor::paper();
        let scale = suggest_einc_scale(coupling, 2) / 80.0;
        let in_situ = probe(tracer, "anneal.in_situ", parent, || {
            let mut backend = ExactBackend::new(coupling, spins.clone());
            run_in_situ(
                &mut backend,
                &schedule,
                &factor,
                scale,
                AnnealConfig::new(ITERS, 1),
            )
        });
        let metro = GeometricSchedule::over_iterations(10.0, 0.1, ITERS);
        let direct = probe(tracer, "anneal.direct", parent, || {
            let mut backend = ExactBackend::new(coupling, spins.clone());
            run_direct(
                &mut backend,
                &metro,
                Acceptance::Metropolis,
                AnnealConfig::new(ITERS, 1),
            )
        });
        let t0 = 16.0 * suggest_einc_scale(coupling, 1);
        let mesa = probe(tracer, "anneal.mesa", parent, || {
            run_mesa(coupling, spins.clone(), MesaConfig::new(ITERS, t0, 1))
        });
        let reference = probe(tracer, "anneal.reference", parent, || {
            multi_start_local_search(coupling, 4, seed)
        });
        metrics.set("anneal.in_situ_iter_ns", in_situ / ITERS as f64, "ns");
        metrics.set("anneal.direct_iter_ns", direct / ITERS as f64, "ns");
        metrics.set("anneal.mesa_iter_ns", mesa / ITERS as f64, "ns");
        metrics.set_if_absent("anneal.reference_ms", reference / 1e6, "ms");
        const DEVICE_ITERS: usize = 200;
        let [(_, _), (_, noisy)] = configs();
        let device_schedule = SteppedSchedule::paper(DEVICE_ITERS);
        // Programming stays outside the span: this row is the per
        // iteration read-and-accept cost.
        let mut durations = Vec::new();
        for _ in 0..MIN_REPS {
            let mut backend = TiledBackend::new(coupling, spins.clone(), noisy.clone(), TILE_ROWS);
            let (run, ns) = tracer.timed("anneal.in_situ_device", parent, None, |_| {
                run_in_situ(
                    &mut backend,
                    &device_schedule,
                    &factor,
                    scale,
                    AnnealConfig::new(DEVICE_ITERS, 2),
                )
            });
            black_box(run);
            durations.push(ns as f64);
        }
        metrics.set(
            "anneal.in_situ_device_iter_ns",
            median(&durations) / DEVICE_ITERS as f64,
            "ns",
        );
    });

    tracer.span("probe.sb", None, None, |parent| {
        const STEPS: usize = 8;
        let engine = SbEngine::new(SbVariant::Discrete, STEPS);
        for (label, config) in configs() {
            let mut durations = Vec::new();
            for rep in 0..MIN_REPS {
                let array = TiledCrossbar::program(coupling, config.clone(), TILE_ROWS);
                let mut source = DeviceMvm::new(array, 4);
                let (run, ns) = tracer.timed("sb.run", parent, None, |_| {
                    engine.run(coupling, &mut source, &spins, rep as u64)
                });
                black_box(run);
                durations.push(ns as f64);
            }
            metrics.set(
                &format!("sb.step_us.{label}"),
                median(&durations) / STEPS as f64 / 1e3,
                "us",
            );
        }
    });
}
