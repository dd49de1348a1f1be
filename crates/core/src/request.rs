//! The serde-serializable job API: one [`SolveRequest`] describes *what*
//! to solve (a [`ProblemSpec`]), *how* to anneal it (a [`SolverSpec`]),
//! *where* the energy measurements come from (a typed [`BackendPlan`])
//! and *how many* seeded trials to run (a [`RunPlan`]).
//!
//! A request is plain data: it round-trips through JSON unchanged, so a
//! network or queue front-end is a serialization boundary, not a
//! refactor. Execution lives in [`Session::run`](crate::Session::run),
//! which routes the request to the same solver/ensemble/batched
//! machinery the builder-style API uses — Ideal-fidelity results are
//! bit-identical to the legacy entry points.

use serde::{Deserialize, Serialize};

use fecim_crossbar::Fidelity;
use fecim_gset::{GeneratorConfig, Graph, GsetFamily};
use fecim_ising::{CopProblem, GraphColoring, IsingError, Knapsack, MaxCut, Qubo, RawIsing};

use crate::annealer::CimAnnealer;
use crate::baselines::DirectAnnealer;
use crate::mesa_solver::MesaAnnealer;
use crate::sb_solver::SbAnnealer;
use crate::solver::Solver;

/// Longest request line a transport buffers, in bytes, newline
/// excluded. The largest lines in the benchmark ledger are raw dense
/// n = 300 QUBO payloads at ~290 KB, and dense lines grow as n², so
/// 64 MiB leaves room for paper-scale dense payloads while bounding
/// what one hostile line can make a connection hold.
pub const MAX_REQUEST_LINE_BYTES: usize = 64 << 20;

/// Most vertices plus expected edges a [`ProblemSpec::Generated`] spec
/// may expand to: as many as the longest request line can spell out as
/// an explicit [`ProblemSpec::MaxCut`] edge list, whose shortest edge,
/// `[0,1,1],`, takes 8 bytes. A few bytes of spec cannot ask for more
/// than a full line could carry.
const MAX_GENERATED_SIZE: f64 = (MAX_REQUEST_LINE_BYTES / 8) as f64;

/// Check a wire-deserialized generator config before it runs: the
/// builder's mean-degree assertion never ran on it, a mean degree that
/// is not finite and positive generates the complete graph, and a huge
/// vertex count would allocate without bound.
pub(crate) fn check_generated(config: &GeneratorConfig) -> Result<(), String> {
    let degree = config.mean_degree;
    if !(degree.is_finite() && degree > 0.0) {
        return Err(format!(
            "a generated graph needs a finite mean degree > 0 (got {degree})"
        ));
    }
    let n = config.vertex_count as f64;
    let expected_degree = match config.family {
        GsetFamily::RandomUnit | GsetFamily::RandomSigned => degree.min((n - 1.0).max(0.0)),
        // The torus has degree 4; the almost-planar matching adds 1.
        GsetFamily::ToroidalUnit | GsetFamily::ToroidalSigned | GsetFamily::AlmostPlanar => 5.0,
    };
    let size = n * (1.0 + expected_degree / 2.0);
    if size > MAX_GENERATED_SIZE {
        return Err(format!(
            "a generated graph of {} vertices at mean degree {degree} expands to ~{size:.3e} \
             vertices and edges, over the {MAX_GENERATED_SIZE:.3e} a request line can carry",
            config.vertex_count
        ));
    }
    Ok(())
}

/// A serializable description of the combinatorial problem to solve.
///
/// Every variant carries only plain data, so a spec can be shipped over
/// a wire and rebuilt with [`ProblemSpec::build`] on the other side.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ProblemSpec {
    /// An explicit weighted Max-Cut instance.
    MaxCut {
        /// Vertex count.
        vertices: usize,
        /// Weighted edges `(u, v, w)`.
        edges: Vec<(usize, usize, f64)>,
    },
    /// A Gset-style generated Max-Cut instance (deterministic from the
    /// generator's seed, so the spec stays tiny at any problem size).
    Generated(GeneratorConfig),
    /// A 0/1 knapsack instance.
    Knapsack {
        /// Item values.
        values: Vec<u64>,
        /// Item weights.
        weights: Vec<u64>,
        /// Weight capacity.
        capacity: u64,
    },
    /// A graph `k`-coloring instance (objective: conflict count, lower
    /// is better).
    Coloring {
        /// Vertex count.
        vertices: usize,
        /// Number of colors.
        colors: usize,
        /// Edges `(u, v)`.
        edges: Vec<(usize, usize)>,
    },
    /// A raw QUBO payload: minimize `xᵀQx` over binary `x`, no named
    /// generator or COP encoding required. `q` is the full square
    /// coefficient matrix, row-major; `q[i][j] + q[j][i]` weight the
    /// pair `x_i·x_j` and diagonal entries are the linear terms.
    Qubo {
        /// Square coefficient matrix.
        q: Vec<Vec<f64>>,
    },
    /// A raw Ising payload: minimize `H(σ) = σᵀJσ + hᵀσ` over
    /// `σ ∈ {−1,+1}ⁿ`. The native objective is the energy itself.
    Ising {
        /// Linear fields, length `n`.
        h: Vec<f64>,
        /// Symmetric zero-diagonal coupling matrix, `n×n` row-major
        /// (carry linear terms in `h`).
        j: Vec<Vec<f64>>,
    },
}

impl ProblemSpec {
    /// The Max-Cut spec of a benchmark graph (explicit edge list, so the
    /// rebuilt problem is bit-identical to `graph.to_max_cut()`).
    pub fn from_graph(graph: &Graph) -> ProblemSpec {
        ProblemSpec::MaxCut {
            vertices: graph.vertex_count(),
            edges: graph.edges().to_vec(),
        }
    }

    /// Build the concrete [`CopProblem`] this spec describes.
    ///
    /// # Errors
    ///
    /// Propagates the problem type's own construction errors (index out
    /// of range, self-loops, zero colors, …).
    pub fn build(&self) -> Result<Box<dyn CopProblem + Send + Sync>, IsingError> {
        Ok(match self {
            ProblemSpec::MaxCut { vertices, edges } => {
                Box::new(MaxCut::new(*vertices, edges.clone())?)
            }
            ProblemSpec::Generated(config) => Box::new(config.generate().into_max_cut()),
            ProblemSpec::Knapsack {
                values,
                weights,
                capacity,
            } => Box::new(Knapsack::new(values.clone(), weights.clone(), *capacity)?),
            ProblemSpec::Coloring {
                vertices,
                colors,
                edges,
            } => Box::new(GraphColoring::new(*vertices, *colors, edges.clone())?),
            ProblemSpec::Qubo { q } => Box::new(Qubo::from_matrix(q)?),
            ProblemSpec::Ising { h, j } => Box::new(RawIsing::new(h.clone(), j)?),
        })
    }
}

/// Which annealer architecture executes the request.
///
/// Each variant embeds the full solver configuration (iterations, flips,
/// annealing factor, schedule knobs, …) — the same builder types the
/// library API uses, which already serialize. A solver carries no device
/// settings: the request's [`BackendPlan`] is the single authority on
/// where energy measurements come from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SolverSpec {
    /// The proposed ferroelectric CiM in-situ annealer.
    Cim(CimAnnealer),
    /// A direct-E baseline (CiM/FPGA or CiM/ASIC exponential unit).
    Direct(DirectAnnealer),
    /// The MESA multi-epoch baseline (software schedule on direct-E
    /// hardware; analytic backend only).
    Mesa(MesaAnnealer),
    /// The simulated-bifurcation family (bSB/dSB) on the same crossbar:
    /// one full-vector MVM read per step instead of per-flip sensing.
    Sb(SbAnnealer),
}

impl SolverSpec {
    /// Human-readable architecture name ([`Solver::name`]).
    pub fn name(&self) -> &str {
        self.as_solver().name()
    }

    /// Check the embedded solver's configuration: every value its engine
    /// would assert on is an error (as is a zero SB step count). The one
    /// gate for solver parameters, which
    /// [`Session::prepare`](crate::Session::prepare) runs for every
    /// request.
    pub(crate) fn validate(&self) -> Result<(), String> {
        match self {
            SolverSpec::Cim(solver) => solver.validate(),
            SolverSpec::Direct(solver) => solver.validate(),
            SolverSpec::Mesa(solver) => solver.validate(),
            SolverSpec::Sb(solver) => solver.validate(),
        }
    }

    /// The embedded solver behind the [`Solver`] interface.
    pub(crate) fn as_solver(&self) -> &dyn Solver {
        match self {
            SolverSpec::Cim(solver) => solver,
            SolverSpec::Direct(solver) => solver,
            SolverSpec::Mesa(solver) => solver,
            SolverSpec::Sb(solver) => solver,
        }
    }
}

/// Where the annealer's energy measurements come from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackendPlan {
    /// Software-exact incremental-E evaluation (no simulated hardware in
    /// the loop). This is the default, and the mode the quality
    /// experiments of Figs. 8–10 use.
    #[default]
    Analytic,
    /// Route every energy measurement through the simulated DG FeFET
    /// crossbar: quantization, ADC conversion, activity statistics, and
    /// — at [`Fidelity::DeviceAccurate`] — per-cell variation and read
    /// noise (typical magnitudes unless the
    /// [`Session`](crate::Session) carries an explicit
    /// [`CrossbarConfig`](fecim_crossbar::CrossbarConfig)).
    DeviceInLoop {
        /// Analog-path fidelity of the simulated array.
        fidelity: Fidelity,
        /// Physical tile height for the tiled array composition
        /// (`None` = one monolithic array; `Some(rows)` maps the
        /// coupling matrix onto fixed-size tiles, which is how
        /// beyond-array-size instances run device-in-the-loop).
        tile_rows: Option<usize>,
    },
    /// Shared-grid batching: pack up to `instances` ensemble replicas
    /// block-diagonally onto ONE physical tile grid and anneal them
    /// concurrently on disjoint ADC banks (CiM in-situ and SB solvers
    /// only). Ensembles larger than `instances` run as successive grids.
    Batched {
        /// Physical tile height of every replica's block.
        tile_rows: usize,
        /// Replicas sharing one grid.
        instances: usize,
    },
}

/// How many seeded trials the request runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunPlan {
    /// One trial with the given seed.
    Single {
        /// RNG seed of the trial.
        seed: u64,
    },
    /// A parallel ensemble: trial `i` receives seed `base_seed + i` and
    /// results come back in trial order — bit-identical at any thread
    /// count (the [`Ensemble`](fecim_anneal::Ensemble) contract).
    Ensemble {
        /// Number of trials.
        trials: usize,
        /// Seed of trial 0.
        base_seed: u64,
        /// Optional cap on concurrent worker threads (`None` = the rayon
        /// pool's width). Never changes results, only wall-clock.
        threads: Option<usize>,
    },
}

impl Default for RunPlan {
    fn default() -> RunPlan {
        RunPlan::Single { seed: 0 }
    }
}

impl RunPlan {
    /// Number of trials this plan executes.
    pub fn trials(&self) -> usize {
        match *self {
            RunPlan::Single { .. } => 1,
            RunPlan::Ensemble { trials, .. } => trials,
        }
    }

    /// Seed of trial 0.
    pub fn base_seed(&self) -> u64 {
        match *self {
            RunPlan::Single { seed } => seed,
            RunPlan::Ensemble { base_seed, .. } => base_seed,
        }
    }

    /// The requested worker-thread cap, if any.
    pub fn threads(&self) -> Option<usize> {
        match *self {
            RunPlan::Single { .. } => None,
            RunPlan::Ensemble { threads, .. } => threads,
        }
    }

    /// The equivalent [`Ensemble`](fecim_anneal::Ensemble) plan.
    pub(crate) fn to_ensemble(self) -> fecim_anneal::Ensemble {
        let ensemble = fecim_anneal::Ensemble::new(self.trials(), self.base_seed());
        match self.threads() {
            Some(cap) => ensemble.with_max_threads(cap),
            None => ensemble,
        }
    }
}

/// One self-contained solve job: problem + solver + backend + run plan,
/// optionally with a reference objective for normalized scoring.
///
/// Requests serialize to JSON and back unchanged (see
/// [`SolveRequest::to_json`]), and a deserialized request produces
/// bit-identical Ideal-mode results — the contract a queued or
/// network-facing deployment builds on.
///
/// ```
/// use fecim::{CimAnnealer, ProblemSpec, RunPlan, Session, SolveRequest, SolverSpec};
///
/// let request = SolveRequest::new(
///     ProblemSpec::MaxCut {
///         vertices: 8,
///         edges: (0..8).map(|i| (i, (i + 1) % 8, 1.0)).collect(),
///     },
///     SolverSpec::Cim(CimAnnealer::new(1500).with_flips(1)),
/// )
/// .with_run(RunPlan::Single { seed: 7 });
/// let wire = request.to_json()?;
/// let response = Session::new().run(&SolveRequest::from_json(&wire)?)?;
/// assert!(response.summary.best_objective.unwrap() >= 6.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveRequest {
    /// The problem to solve.
    pub problem: ProblemSpec,
    /// The annealer architecture and its configuration.
    pub solver: SolverSpec,
    /// Where energy measurements come from (default
    /// [`BackendPlan::Analytic`]).
    pub backend: BackendPlan,
    /// How many seeded trials to run (default one trial, seed 0).
    pub run: RunPlan,
    /// Reference objective for normalized scoring: when set, the
    /// response reports `objective / reference` per trial (the Fig. 10 /
    /// Table 1 record), alongside the first target-hit iteration.
    pub reference: Option<f64>,
    /// Warm-start spins in the problem's original `±1` space: when set,
    /// every trial starts from exactly these spins instead of drawing a
    /// random configuration from its seed (trials still differ through
    /// their seeded proposal streams). Length must equal the problem's
    /// spin count. A warm-started run whose solver performs zero
    /// iterations returns these spins verbatim — the contract campaign
    /// round-chaining builds on.
    pub initial_spins: Option<Vec<i8>>,
}

impl SolveRequest {
    /// A request with the default backend ([`BackendPlan::Analytic`])
    /// and run plan (one trial, seed 0).
    pub fn new(problem: ProblemSpec, solver: SolverSpec) -> SolveRequest {
        SolveRequest {
            problem,
            solver,
            backend: BackendPlan::default(),
            run: RunPlan::default(),
            reference: None,
            initial_spins: None,
        }
    }

    /// Select the backend plan.
    pub fn with_backend(mut self, backend: BackendPlan) -> SolveRequest {
        self.backend = backend;
        self
    }

    /// Select the run plan.
    pub fn with_run(mut self, run: RunPlan) -> SolveRequest {
        self.run = run;
        self
    }

    /// Score trials as `objective / reference` in the response.
    pub fn with_reference(mut self, reference: f64) -> SolveRequest {
        self.reference = Some(reference);
        self
    }

    /// Warm-start every trial from the given `±1` spins (length must
    /// equal the problem's spin count; validated by
    /// [`Session::prepare`](crate::Session::prepare)).
    pub fn with_initial_spins(mut self, spins: Vec<i8>) -> SolveRequest {
        self.initial_spins = Some(spins);
        self
    }

    /// Serialize the request to JSON.
    ///
    /// # Errors
    ///
    /// Propagates the serializer's error (practically unreachable for
    /// these plain-data types).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Rebuild a request from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns the parse error for malformed or mistyped JSON.
    // audit:allow(dead-pub): test seam: the wire round-trip tests decode `to_json` output with it
    pub fn from_json(json: &str) -> Result<SolveRequest, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn problem_spec_from_graph_matches_to_max_cut() {
        let graph = GeneratorConfig::new(24, 7).generate();
        let spec = ProblemSpec::from_graph(&graph);
        let built = spec.build().expect("valid graph builds");
        let direct = graph.to_max_cut();
        let model_a = built.to_ising().unwrap();
        let model_b = fecim_ising::CopProblem::to_ising(&direct).unwrap();
        assert_eq!(model_a.dimension(), model_b.dimension());
        assert_eq!(built.name(), direct.name());
    }

    #[test]
    fn generated_spec_is_deterministic() {
        let config = GeneratorConfig::new(16, 99);
        let a = ProblemSpec::Generated(config).build().unwrap();
        let b = ProblemSpec::Generated(config).build().unwrap();
        assert_eq!(
            a.to_ising().unwrap().dimension(),
            b.to_ising().unwrap().dimension()
        );
    }

    #[test]
    fn invalid_specs_surface_construction_errors() {
        let bad_edge = ProblemSpec::MaxCut {
            vertices: 2,
            edges: vec![(0, 5, 1.0)],
        };
        assert!(bad_edge.build().is_err());
        let zero_colors = ProblemSpec::Coloring {
            vertices: 3,
            colors: 0,
            edges: vec![(0, 1)],
        };
        assert!(zero_colors.build().is_err());
        let nonsquare_q = ProblemSpec::Qubo {
            q: vec![vec![1.0, 2.0], vec![0.0]],
        };
        assert!(matches!(
            nonsquare_q.build(),
            Err(IsingError::DimensionMismatch { .. })
        ));
        let mismatched_ising = ProblemSpec::Ising {
            h: vec![0.0; 2],
            j: vec![vec![0.0; 3]; 3],
        };
        assert!(matches!(
            mismatched_ising.build(),
            Err(IsingError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn raw_payload_specs_build_solvable_problems() {
        // One frustrated pair: optimum picks exactly one of x0/x1.
        let qubo = ProblemSpec::Qubo {
            q: vec![vec![-1.0, 2.0], vec![0.0, -1.0]],
        }
        .build()
        .expect("valid payload");
        assert_eq!(qubo.name(), "qubo");
        assert_eq!(qubo.spin_count(), 2);
        let ising = ProblemSpec::Ising {
            h: vec![0.1, -0.1, 0.0],
            j: vec![
                vec![0.0, 0.5, 0.0],
                vec![0.5, 0.0, -0.25],
                vec![0.0, -0.25, 0.0],
            ],
        }
        .build()
        .expect("valid payload");
        assert_eq!(ising.name(), "raw-ising");
        assert_eq!(ising.to_ising().unwrap().dimension(), 3);
    }

    #[test]
    fn run_plan_accessors() {
        let single = RunPlan::Single { seed: 9 };
        assert_eq!(single.trials(), 1);
        assert_eq!(single.base_seed(), 9);
        assert_eq!(single.threads(), None);
        let ens = RunPlan::Ensemble {
            trials: 12,
            base_seed: 40,
            threads: Some(2),
        };
        assert_eq!(ens.trials(), 12);
        assert_eq!(ens.base_seed(), 40);
        assert_eq!(ens.threads(), Some(2));
        assert_eq!(RunPlan::default(), RunPlan::Single { seed: 0 });
        assert_eq!(BackendPlan::default(), BackendPlan::Analytic);
    }

    #[test]
    fn request_json_roundtrip_is_identity() {
        let request = SolveRequest::new(
            ProblemSpec::Knapsack {
                values: vec![3, 5, 8],
                weights: vec![1, 2, 3],
                capacity: 4,
            },
            SolverSpec::Cim(CimAnnealer::new(700).with_flips(1)),
        )
        .with_backend(BackendPlan::DeviceInLoop {
            fidelity: Fidelity::Ideal,
            tile_rows: Some(64),
        })
        .with_run(RunPlan::Ensemble {
            trials: 4,
            base_seed: 11,
            threads: None,
        })
        .with_reference(12.0)
        .with_initial_spins(vec![1, -1, 1, -1, 1, -1]);
        let wire = request.to_json().expect("serializes");
        let back = SolveRequest::from_json(&wire).expect("parses");
        assert_eq!(back, request);
    }

    #[test]
    fn requests_without_initial_spins_still_parse() {
        // Wire backward compatibility: pre-warm-start request JSON has no
        // `initial_spins` key and must keep parsing as `None`.
        let request = SolveRequest::new(
            ProblemSpec::MaxCut {
                vertices: 2,
                edges: vec![(0, 1, 1.0)],
            },
            SolverSpec::Cim(CimAnnealer::new(10)),
        );
        let wire = request.to_json().expect("serializes");
        let legacy = wire.replace(",\"initial_spins\":null", "");
        assert_ne!(legacy, wire, "fixture must actually drop the key");
        let parsed = SolveRequest::from_json(&legacy).expect("legacy JSON parses");
        assert_eq!(parsed, request);
    }

    #[test]
    fn requests_with_retired_solver_device_keys_still_parse() {
        // Wire backward compatibility: solvers used to carry their own
        // device settings. An older client's keys are skipped, and the
        // backend plan alone decides where energies are measured.
        let mut device = fecim_crossbar::CrossbarConfig::paper_defaults();
        device.fidelity = Fidelity::DeviceAccurate;
        let retired = format!(
            "\"device_in_loop\":{},\"tile_rows\":3,\"quant_bits\":6,\"mux_ratio\":2,",
            serde_json::to_string(&device).expect("config serializes")
        );
        let ring = ProblemSpec::MaxCut {
            vertices: 6,
            edges: (0..6).map(|i| (i, (i + 1) % 6, 1.0)).collect(),
        };
        let session = crate::Session::new();
        let respond = |request: &SolveRequest| {
            let response = session.run(request).expect("a ring solves");
            serde_json::to_string(&response).expect("response serializes")
        };
        for (tag, solver) in [
            ("Cim", SolverSpec::Cim(CimAnnealer::new(40))),
            ("Direct", SolverSpec::Direct(DirectAnnealer::cim_asic(40))),
            ("Sb", SolverSpec::Sb(SbAnnealer::discrete(40))),
        ] {
            let request =
                SolveRequest::new(ring.clone(), solver).with_run(RunPlan::Single { seed: 4 });
            let wire = request.to_json().expect("serializes");
            let open = format!("{{\"{tag}\":{{");
            let legacy = wire.replacen(&open, &format!("{open}{retired}"), 1);
            assert_ne!(legacy, wire, "fixture must actually carry the keys");
            let parsed = SolveRequest::from_json(&legacy).expect("legacy JSON parses");
            assert_eq!(parsed, request, "{tag}");
            assert_eq!(respond(&parsed), respond(&request), "{tag}");
        }
    }

    #[test]
    fn solver_spec_names_match_solver_trait() {
        let cim = CimAnnealer::new(10);
        assert_eq!(SolverSpec::Cim(cim.clone()).name(), Solver::name(&cim));
        let fpga = DirectAnnealer::cim_fpga(10);
        assert_eq!(SolverSpec::Direct(fpga.clone()).name(), Solver::name(&fpga));
        let mesa = MesaAnnealer::new(10);
        assert_eq!(SolverSpec::Mesa(mesa).name(), Solver::name(&mesa));
        let bsb = SbAnnealer::ballistic(10);
        assert_eq!(SolverSpec::Sb(bsb.clone()).name(), Solver::name(&bsb));
        let dsb = SbAnnealer::discrete(10);
        assert_eq!(SolverSpec::Sb(dsb.clone()).name(), Solver::name(&dsb));
    }
}
