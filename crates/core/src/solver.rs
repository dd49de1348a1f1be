//! The unifying [`Solver`] abstraction over the three annealer
//! architectures.
//!
//! Every solver in this crate ([`CimAnnealer`](crate::CimAnnealer),
//! [`DirectAnnealer`](crate::DirectAnnealer),
//! [`MesaAnnealer`](crate::MesaAnnealer)) runs the same pipeline:
//!
//! 1. transform the COP to an Ising model (ancilla-embedding linear
//!    terms when present);
//! 2. draw the seeded random start configuration;
//! 3. run an architecture-specific annealing engine on the quadratic
//!    coupling;
//! 4. project the best embedded configuration back to the problem's
//!    original spins and score it in the native objective;
//! 5. attach hardware energy/time costs for the architecture.
//!
//! Step 1 happens once per job; steps 2–5 are one function here,
//! `run_trial`, which every trial of every request route runs.
//! Implementors supply only the two architecture-specific hooks
//! [`Solver::run_engine`] (step 3) and [`Solver::hardware_report`]
//! (step 5's costing rule). Experiment drivers dispatch over
//! `&dyn Solver`, so adding a fourth architecture never touches them.
//!
//! A solver's configuration says how to anneal, never where the
//! energies are measured. That is the job's [`DeviceArray`], which
//! [`Session::prepare`](crate::Session::prepare) resolves once from the
//! request's [`BackendPlan`](crate::BackendPlan) and `run_trial` hands
//! to both hooks: `None` measures software-exact, `Some` on the
//! simulated crossbar (a batched replica on its own array).

use rand::SeedableRng;

use fecim_anneal::RunResult;
use fecim_crossbar::CrossbarConfig;
use fecim_hwcost::{AnnealerKind, EnergyReport, IterationProfile, TimeReport};
use fecim_ising::{CopProblem, Coupling, CsrCoupling, IsingError, IsingModel, SpinVector};

use crate::annealer::SolveReport;

/// Seed salt applied before drawing the initial configuration, so the
/// start state and the engine's proposal stream come from decorrelated
/// streams of the same user seed.
pub(crate) const INIT_SEED_SALT: u64 = 0xA5A5_5A5A;

/// The simulated crossbar a trial measures its energies on.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceArray {
    /// The array's configuration: fidelity, quantization, ADC and
    /// variation.
    pub config: CrossbarConfig,
    /// Physical tile height. `None` is one monolithic array, priced with
    /// whole-array wire geometry.
    pub tile_rows: Option<usize>,
}

impl DeviceArray {
    /// Rows per tile for an `n`-spin coupling: `n` for the monolithic
    /// array.
    pub(crate) fn rows(&self, n: usize) -> usize {
        self.tile_rows.unwrap_or(n)
    }
}

/// The profile a run over `spins` spins with `flips`-spin proposals is
/// priced with: the array's quantization, ADC muxing and tile height,
/// or the paper's operating point when energies were measured exactly.
pub(crate) fn pricing(array: Option<&DeviceArray>, spins: usize, flips: usize) -> IterationProfile {
    let paper = IterationProfile {
        flips,
        ..IterationProfile::paper(spins)
    };
    match array {
        None => paper,
        Some(array) => IterationProfile {
            quant_bits: array.config.quant_bits,
            mux_ratio: array.config.mux_ratio,
            tile_rows: array.tile_rows,
            ..paper
        },
    }
}

/// A combinatorial-optimization solver with hardware-cost accounting —
/// the common face of the paper's three annealer architectures.
///
/// Object safe: experiment drivers hold `&dyn Solver` / `Box<dyn Solver>`
/// and the [`Ensemble`](fecim_anneal::Ensemble) runner fans solver calls
/// out across threads (`Solver: Send + Sync`).
pub trait Solver: Send + Sync {
    /// Human-readable architecture name for reports and logs.
    fn name(&self) -> &str;

    /// The architecture tag attached to [`SolveReport::kind`].
    fn kind(&self) -> AnnealerKind;

    /// Architecture hook: anneal a prepared quadratic coupling from the
    /// given start configuration, measuring energies on `array` (exactly
    /// when `None`). `seed` drives the engine's proposal stream.
    fn run_engine(
        &self,
        coupling: &CsrCoupling,
        initial: SpinVector,
        seed: u64,
        array: Option<&DeviceArray>,
    ) -> RunResult;

    /// Architecture hook: the hardware energy/time of a finished run over
    /// `spins` logical spins, priced for the geometry of the `array` it
    /// ran on. Receives the run mutably so architectures can stamp
    /// architecture-implied activity (e.g. the baselines' one `eˣ`
    /// evaluation per iteration) before costing.
    fn hardware_report(
        &self,
        run: &mut RunResult,
        spins: usize,
        array: Option<&DeviceArray>,
    ) -> (EnergyReport, TimeReport);

    /// Solve a COP: transform to Ising, anneal from the seeded random
    /// start with software-exact energies, score the best solution in the
    /// problem's native objective and attach hardware costs.
    ///
    /// # Errors
    ///
    /// Propagates encoding errors from the problem's Ising transformation.
    fn solve(&self, problem: &dyn CopProblem, seed: u64) -> Result<SolveReport, IsingError> {
        let model = problem.to_ising()?;
        let quadratic = (!model.is_quadratic_only()).then(|| model.to_quadratic_only());
        let quadratic = quadratic.as_ref().unwrap_or(&model);
        Ok(run_trial(
            self, problem, &model, quadratic, None, None, seed,
        ))
    }
}

/// One trial of `solver` on `problem`, whose Ising form is `model` and
/// whose ancilla-embedded quadratic-only form is `quadratic`, measured
/// on `array` — the one pipeline every route of every request runs:
///
/// 1. start from `start` embedded into the quadratic space (warm start),
///    or from the spins drawn from `seed ^ INIT_SEED_SALT`;
/// 2. [`Solver::run_engine`] on the quadratic coupling;
/// 3. project the best configuration back to the problem's spins and
///    score it in the native objective;
/// 4. price the run with [`Solver::hardware_report`].
pub(crate) fn run_trial<S: Solver + ?Sized>(
    solver: &S,
    problem: &dyn CopProblem,
    model: &IsingModel,
    quadratic: &IsingModel,
    start: Option<&SpinVector>,
    array: Option<&DeviceArray>,
    seed: u64,
) -> SolveReport {
    let coupling = quadratic.couplings();
    let initial = match start {
        Some(start) => embed_start(model, start),
        None => {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ INIT_SEED_SALT);
            SpinVector::random(coupling.dimension(), &mut rng)
        }
    };
    let mut run = solver.run_engine(coupling, initial, seed, array);
    let spins = if model.is_quadratic_only() {
        run.best_spins.clone()
    } else {
        model.project_from_quadratic(&run.best_spins)
    };
    let objective = problem.native_objective(&spins);
    let feasible = problem.is_feasible(&spins);
    let (energy, time) = solver.hardware_report(&mut run, model.dimension(), array);
    SolveReport {
        kind: solver.kind(),
        best_energy: run.best_energy,
        objective: Some(objective),
        feasible,
        best_spins: spins,
        energy,
        time,
        run,
    }
}

/// Embed a start configuration given in `model`'s original spin space
/// into the quadratic-only space [`Solver::run_engine`] anneals over.
/// Models with linear fields gain an ancilla spin at index 0, fixed to
/// `+1` so the gauge projection recovers the original spins unchanged.
fn embed_start(model: &IsingModel, start: &SpinVector) -> SpinVector {
    assert_eq!(
        start.len(),
        model.dimension(),
        "warm-start spins must match the model dimension"
    );
    if model.is_quadratic_only() {
        start.clone()
    } else {
        let mut signs = Vec::with_capacity(start.len() + 1);
        signs.push(1);
        signs.extend_from_slice(start.as_slice());
        SpinVector::from_signs(&signs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CimAnnealer, DirectAnnealer, MesaAnnealer};
    use fecim_ising::MaxCut;

    fn ring_problem(n: usize) -> MaxCut {
        MaxCut::new(n, (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect()).unwrap()
    }

    #[test]
    fn all_three_architectures_dispatch_dynamically() {
        let ours = CimAnnealer::new(1500).with_flips(1);
        let fpga = DirectAnnealer::cim_fpga(1500).with_flips(1);
        let mesa = MesaAnnealer::new(1500);
        let solvers: [&dyn Solver; 3] = [&ours, &fpga, &mesa];
        let problem = ring_problem(12);
        for solver in solvers {
            let report = solver.solve(&problem, 5).unwrap();
            assert_eq!(report.kind, solver.kind(), "{}", solver.name());
            assert!(report.objective.unwrap() >= 8.0, "{}", solver.name());
            assert!(!solver.name().is_empty());
        }
    }

    #[test]
    fn unencodable_problems_error_instead_of_panicking() {
        use fecim_ising::ObjectiveSense;

        #[derive(Debug)]
        struct NoIsingForm;
        impl fecim_ising::CopProblem for NoIsingForm {
            fn spin_count(&self) -> usize {
                3
            }
            fn to_ising(&self) -> Result<fecim_ising::IsingModel, IsingError> {
                Err(IsingError::InvalidProblem(
                    "this model has no Ising form".into(),
                ))
            }
            fn native_objective(&self, _: &fecim_ising::SpinVector) -> f64 {
                0.0
            }
            fn objective_sense(&self) -> ObjectiveSense {
                ObjectiveSense::Maximize
            }
            fn is_feasible(&self, _: &fecim_ising::SpinVector) -> bool {
                true
            }
            fn name(&self) -> &str {
                "no-ising-form"
            }
        }

        let problem = NoIsingForm;
        for solver in [
            &CimAnnealer::new(50) as &dyn Solver,
            &DirectAnnealer::cim_asic(50),
            &MesaAnnealer::new(50),
        ] {
            let err = solver.solve(&problem, 1).expect_err("must not panic");
            assert!(matches!(err, IsingError::InvalidProblem(_)), "{err}");
        }
    }

    /// One warm-started trial of `solver` on `problem` from `start`.
    fn warm_trial(
        solver: &dyn Solver,
        problem: &dyn CopProblem,
        start: &SpinVector,
        seed: u64,
    ) -> SolveReport {
        let model = problem.to_ising().unwrap();
        let quadratic = model.to_quadratic_only();
        run_trial(solver, problem, &model, &quadratic, Some(start), None, seed)
    }

    #[test]
    fn warm_start_zero_iteration_run_returns_start_verbatim() {
        // Quadratic-only model (Max-Cut ring): no ancilla embedding.
        let ring = ring_problem(8);
        let model = ring.to_ising().unwrap();
        let start = SpinVector::from_signs(&[1, -1, 1, 1, -1, -1, 1, -1]);
        let report = warm_trial(&CimAnnealer::new(0), &ring, &start, 7);
        assert_eq!(report.best_spins, start);
        assert_eq!(report.best_energy, model.energy(&start));

        // Model WITH linear fields: the ancilla embedding must project
        // the supplied spins back unchanged, for all three engines.
        let mut qubo = fecim_ising::Qubo::new(4);
        qubo.add_term(0, 0, -1.0);
        qubo.add_term(0, 1, 2.0);
        qubo.add_term(1, 1, 0.75);
        qubo.add_term(2, 3, -0.5);
        assert!(!qubo.to_ising().unwrap().is_quadratic_only());
        let start = SpinVector::from_signs(&[-1, 1, -1, 1]);
        for solver in [
            &CimAnnealer::new(0) as &dyn Solver,
            &DirectAnnealer::cim_fpga(0),
            &MesaAnnealer::new(0),
        ] {
            let report = warm_trial(solver, &qubo, &start, 3);
            assert_eq!(report.best_spins, start, "{}", solver.name());
            assert_eq!(report.run.iterations, 0, "{}", solver.name());
        }
    }

    #[test]
    fn warm_start_with_iterations_never_worsens_the_start() {
        let ring = ring_problem(16);
        let model = ring.to_ising().unwrap();
        let start = SpinVector::all_up(16); // worst cut: energy 16·J
        let solver = CimAnnealer::new(300).with_flips(1);
        let report = warm_trial(&solver, &ring, &start, 11);
        assert!(
            report.best_energy <= model.energy(&start),
            "best over a trajectory that includes the start cannot exceed it"
        );
    }

    #[test]
    fn boxed_solvers_compose() {
        let solvers: Vec<Box<dyn Solver>> = vec![
            Box::new(CimAnnealer::new(300).with_flips(1)),
            Box::new(DirectAnnealer::cim_asic(300).with_flips(1)),
            Box::new(MesaAnnealer::new(300)),
        ];
        let problem = ring_problem(8);
        let energies: Vec<f64> = solvers
            .iter()
            .map(|s| s.solve(&problem, 1).unwrap().best_energy)
            .collect();
        assert_eq!(energies.len(), 3);
    }
}
