//! The workloads and the request sets they generate from a seed.
//!
//! A service workload is one *pass*: a fixed list of jobs whose sizes
//! and solver settings are set by position, while the seed picks the
//! graph instances, payload values and trial seeds. Every pass of a run
//! offers the same requests under fresh ids, so every pass must produce
//! the same result digest.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fecim::crossbar::Fidelity;
use fecim::gset::{GeneratorConfig, GsetFamily};
use fecim::ising::{CsrCoupling, DenseCoupling};
use fecim::{
    BackendPlan, CimAnnealer, DirectAnnealer, MesaAnnealer, ProblemSpec, RunPlan, SbAnnealer,
    SolveRequest, SolverSpec,
};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Many small Ideal-fidelity jobs of mixed kinds, journaled.
    ServeMix,
    /// Long bSB/dSB jobs on Ideal tiled crossbars: full-array reads.
    MvmIdeal,
    /// DeviceAccurate CiM and dSB jobs with variation and read noise.
    DeviceNoisy,
    /// The paper-scale Fig. 10 protocol, in process.
    Fig10Paper,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "serve_mix" => Workload::ServeMix,
            "mvm_ideal" => Workload::MvmIdeal,
            "device_noisy" => Workload::DeviceNoisy,
            "fig10_paper" => Workload::Fig10Paper,
            _ => return None,
        })
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeMix => "serve_mix",
            Workload::MvmIdeal => "mvm_ideal",
            Workload::DeviceNoisy => "device_noisy",
            Workload::Fig10Paper => "fig10_paper",
        }
    }

    /// Host seconds one pass takes on the reference machine (2 CPUs):
    /// a run of `seconds` offers `passes(seconds)` passes, a fixed amount
    /// of work, so faster code finishes sooner instead of doing more.
    fn nominal_pass_s(self) -> f64 {
        match self {
            Workload::ServeMix => 0.9,
            Workload::MvmIdeal => 0.75,
            Workload::DeviceNoisy => 0.27,
            Workload::Fig10Paper => 9.5,
        }
    }

    /// Passes (for `fig10_paper`, experiments) a run of `seconds` offers.
    pub fn passes(self, seconds: f64) -> usize {
        ((seconds / self.nominal_pass_s()).round() as usize).max(1)
    }

    /// Whether the server journals this workload's jobs.
    pub fn journaled(self) -> bool {
        self == Workload::ServeMix
    }

    /// Whether the client sends a `Status` line after each completion.
    pub fn status_after_completion(self) -> bool {
        self == Workload::ServeMix
    }
}

/// Size knob: `Full` is the benchmark, `Smoke` shrinks every job so a
/// whole run finishes in seconds (used by the tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Tiny sizes for tests.
    Smoke,
}

fn generated(n: usize, degree: f64, seed: u64) -> GeneratorConfig {
    GeneratorConfig::new(n, seed)
        .with_family(GsetFamily::RandomUnit)
        .with_mean_degree(degree)
}

fn ensemble(trials: usize, base_seed: u64) -> RunPlan {
    RunPlan::Ensemble {
        trials,
        base_seed,
        threads: None,
    }
}

/// The request set of one pass of a service workload.
///
/// # Panics
///
/// Panics for [`Workload::Fig10Paper`], which is not a service workload.
pub fn service_jobs(workload: Workload, seed: u64, size: Size) -> Vec<SolveRequest> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e_4b_e1);
    let smoke = size == Size::Smoke;
    match workload {
        Workload::ServeMix => serve_mix(&mut rng, smoke),
        Workload::MvmIdeal => mvm_ideal(&mut rng, smoke),
        Workload::DeviceNoisy => device_noisy(&mut rng, smoke),
        Workload::Fig10Paper => panic!("fig10_paper runs in process, not as service jobs"),
    }
}

fn serve_mix(rng: &mut StdRng, smoke: bool) -> Vec<SolveRequest> {
    let scale = |n: usize| if smoke { (n / 4).max(8) } else { n };
    let iters = |i: usize| if smoke { i / 10 } else { i };
    let cim = |i: usize| SolverSpec::Cim(CimAnnealer::new(iters(i)).with_flips(1));
    let mut jobs = Vec::new();
    // Batched CiM ensembles sharing a live grid.
    for &n in &[24usize, 48, 96, 48, 24, 96] {
        jobs.push(
            SolveRequest::new(
                ProblemSpec::Generated(generated(scale(n), 4.0, rng.gen())),
                cim(400),
            )
            .with_backend(BackendPlan::Batched {
                tile_rows: 8,
                instances: 2,
            })
            .with_run(ensemble(4, rng.gen_range(0..1_000_000))),
        );
    }
    // Analytic CiM / Direct / MESA ensembles on generated graphs.
    for (k, &n) in [64usize, 128, 200, 64, 128, 200].iter().enumerate() {
        let solver = match k % 3 {
            0 => cim(800),
            1 => SolverSpec::Direct(DirectAnnealer::cim_asic(iters(800))),
            _ => SolverSpec::Mesa(MesaAnnealer::new(iters(800))),
        };
        jobs.push(
            SolveRequest::new(
                ProblemSpec::Generated(generated(scale(n), 6.0, rng.gen())),
                solver,
            )
            .with_run(ensemble(4, rng.gen_range(0..1_000_000))),
        );
    }
    // Device-in-the-loop CiM jobs at Ideal fidelity on small tiles.
    for &n in &[48usize, 96, 48, 96] {
        jobs.push(
            SolveRequest::new(
                ProblemSpec::Generated(generated(scale(n), 6.0, rng.gen())),
                cim(300),
            )
            .with_backend(BackendPlan::DeviceInLoop {
                fidelity: Fidelity::Ideal,
                tile_rows: Some(32),
            })
            .with_run(ensemble(2, rng.gen_range(0..1_000_000))),
        );
    }
    // Raw payloads straight off the wire: dense QUBOs (lines of hundreds
    // of KB) and sparse Ising models.
    for _ in 0..2 {
        let n = scale(300);
        let mut q = vec![vec![0.0; n]; n];
        for (i, row) in q.iter_mut().enumerate() {
            for (j, entry) in row.iter_mut().enumerate().skip(i) {
                if i == j || rng.gen::<f64>() < 0.3 {
                    *entry = (rng.gen_range(-1000..=1000) as f64) / 1000.0;
                }
            }
        }
        jobs.push(
            SolveRequest::new(ProblemSpec::Qubo { q }, cim(500))
                .with_run(ensemble(2, rng.gen_range(0..1_000_000))),
        );
    }
    for _ in 0..2 {
        let n = scale(150);
        let mut edges = Vec::new();
        for a in 0..n {
            for _ in 0..3 {
                let b = rng.gen_range(0..n);
                if a != b {
                    edges.push((a, b, (rng.gen_range(-100..=100) as f64) / 100.0));
                }
            }
        }
        let mut j = vec![vec![0.0; n]; n];
        for (a, b, w) in edges {
            j[a][b] = w;
            j[b][a] = w;
        }
        let h = (0..n)
            .map(|_| (rng.gen_range(-50..=50) as f64) / 100.0)
            .collect();
        jobs.push(
            SolveRequest::new(ProblemSpec::Ising { h, j }, cim(500))
                .with_run(ensemble(2, rng.gen_range(0..1_000_000))),
        );
    }
    jobs
}

fn tiled_ideal() -> BackendPlan {
    BackendPlan::DeviceInLoop {
        fidelity: Fidelity::Ideal,
        tile_rows: Some(128),
    }
}

fn mvm_ideal(rng: &mut StdRng, smoke: bool) -> Vec<SolveRequest> {
    // (n, mean degree, ballistic?, steps): G-set densities as in the
    // paper suite (n = 800 at degree 48, n = 2000 at degree 20) plus one
    // dense instance at the sensing sweep's ~0.35 density. Step counts
    // give every job about the same host time (~0.3 s at 2 workers), so
    // the latency percentiles sit inside one cluster, not between kinds.
    let plan: [(usize, f64, bool, usize); 5] = [
        (800, 48.0, false, 150),
        (800, 48.0, true, 58),
        (2000, 20.0, false, 100),
        (2000, 20.0, true, 32),
        (896, 0.35 * 895.0, false, 29),
    ];
    plan.iter()
        .map(|&(n, degree, ballistic, steps)| {
            let (n, steps) = if smoke { (n / 8, 4) } else { (n, steps) };
            let degree = degree.min(n as f64 - 1.0);
            let solver = if ballistic {
                SbAnnealer::ballistic(steps)
            } else {
                SbAnnealer::discrete(steps)
            };
            SolveRequest::new(
                ProblemSpec::Generated(generated(n, degree, rng.gen())),
                SolverSpec::Sb(solver),
            )
            .with_backend(tiled_ideal())
            .with_run(RunPlan::Single {
                seed: rng.gen_range(0..1_000_000),
            })
        })
        .collect()
}

fn device_noisy(rng: &mut StdRng, smoke: bool) -> Vec<SolveRequest> {
    let n = if smoke { 96 } else { 800 };
    let backend = BackendPlan::DeviceInLoop {
        fidelity: Fidelity::DeviceAccurate,
        tile_rows: Some(128),
    };
    let mut jobs = Vec::new();
    for _ in 0..3 {
        let iterations = if smoke { 100 } else { 4000 };
        jobs.push(
            SolveRequest::new(
                ProblemSpec::Generated(generated(n, 20.0, rng.gen())),
                SolverSpec::Cim(CimAnnealer::new(iterations)),
            )
            .with_backend(backend)
            .with_run(ensemble(2, rng.gen_range(0..1_000_000))),
        );
    }
    let steps = if smoke { 3 } else { 30 };
    jobs.push(
        SolveRequest::new(
            ProblemSpec::Generated(generated(n, 20.0, rng.gen())),
            SolverSpec::Sb(SbAnnealer::discrete(steps)),
        )
        .with_backend(backend)
        .with_run(RunPlan::Single {
            seed: rng.gen_range(0..1_000_000),
        }),
    );
    jobs
}

/// The dense instance of the sensing sweep's shape (n = 896, density
/// 0.35), drawn from `seed`: the `crossbar.vmv_us.*.n896` probe rows.
pub fn dense_n896(seed: u64) -> CsrCoupling {
    let mut rng = StdRng::seed_from_u64(seed);
    CsrCoupling::from_dense(&DenseCoupling::random(896, 0.35, 1.0, &mut rng))
}
