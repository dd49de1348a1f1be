//! The two baseline annealers of the paper's evaluation (Sec. 4): FeFET
//! CiM direct-E simulated annealing with an FPGA or ASIC exponential
//! unit (refs [7] + [18]), plus the MESA variant of ref [7].

use serde::{Deserialize, Serialize};

use fecim_anneal::{
    run_direct, suggest_einc_scale, Acceptance, AnnealConfig, ExactBackend, GeometricSchedule,
    RunResult, TiledBackend,
};
use fecim_hwcost::{AnnealerKind, EnergyReport, ExpUnit, TimeReport};
use fecim_ising::{Coupling, CsrCoupling, SpinVector};

use crate::solver::{pricing, DeviceArray, Solver};

/// Baseline direct-E CiM annealer (conventional FeFET crossbar + digital
/// Metropolis acceptance with a hardware `eˣ` unit).
///
/// The builders are plain setters: [`Session::prepare`](crate::Session::prepare)
/// checks the whole configuration before anything runs. The acceptance
/// rule, a fixed `T0` and the end fraction are wire fields only.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DirectAnnealer {
    iterations: usize,
    flips: usize,
    exp_unit: ExpUnit,
    acceptance: Acceptance,
    t0: Option<f64>,
    t_end_fraction: f64,
    trace_every: Option<usize>,
    target_energy: Option<f64>,
}

impl DirectAnnealer {
    /// The CiM/FPGA-based annealer of the paper.
    // audit:allow(dead-pub): test seam: the solver, session and wire tests build the FPGA-exp baseline with it
    pub fn cim_fpga(iterations: usize) -> DirectAnnealer {
        DirectAnnealer::new(iterations, ExpUnit::Fpga)
    }

    /// The CiM/ASIC-based annealer of the paper.
    pub fn cim_asic(iterations: usize) -> DirectAnnealer {
        DirectAnnealer::new(iterations, ExpUnit::Asic)
    }

    fn new(iterations: usize, exp_unit: ExpUnit) -> DirectAnnealer {
        DirectAnnealer {
            iterations,
            flips: 2,
            exp_unit,
            acceptance: Acceptance::Metropolis,
            t0: None,
            t_end_fraction: 1e-2,
            trace_every: None,
            target_energy: None,
        }
    }

    /// Override the flip-set size (at least 1).
    pub fn with_flips(mut self, flips: usize) -> DirectAnnealer {
        self.flips = flips;
        self
    }

    /// Record a trace point every `every` iterations.
    pub fn with_trace(mut self, every: usize) -> DirectAnnealer {
        self.trace_every = Some(every.max(1));
        self
    }

    /// Record the first iteration whose best Ising energy reaches
    /// `target` (the time-to-solution metric of the paper's Table 1);
    /// the result appears as `run.first_target_hit`.
    pub fn with_target_energy(mut self, target: f64) -> DirectAnnealer {
        self.target_energy = Some(target);
        self
    }

    /// Check this configuration against everything the direct-E engine
    /// asserts on: at least one flip, and a geometric schedule with
    /// `0 < T_end < T0` where `T_end = T0 · t_end_fraction`.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.flips == 0 {
            return Err("the direct-E baseline needs at least one flip per iteration".to_string());
        }
        if let Some(t0) = self.t0.filter(|t0| !t0.is_finite() || *t0 <= 0.0) {
            return Err(format!(
                "the direct-E T0 must be finite and positive (got {t0})"
            ));
        }
        // The default T0 is problem-adapted, finite and positive, so only
        // a fixed one can be multiplied out here; 1 stands in for it,
        // which checks 0 < t_end_fraction < 1.
        let t0 = self.t0.unwrap_or(1.0);
        let t_end = t0 * self.t_end_fraction;
        if !(t_end > 0.0 && t_end < t0) {
            return Err(format!(
                "the direct-E t_end_fraction must put T_end strictly between 0 and T0 (got {})",
                self.t_end_fraction
            ));
        }
        Ok(())
    }
}

impl Solver for DirectAnnealer {
    fn name(&self) -> &str {
        match self.exp_unit {
            ExpUnit::Fpga => "CiM/FPGA direct-E baseline",
            ExpUnit::Asic => "CiM/ASIC direct-E baseline",
        }
    }

    fn kind(&self) -> AnnealerKind {
        match self.exp_unit {
            ExpUnit::Fpga => AnnealerKind::CimFpga,
            ExpUnit::Asic => AnnealerKind::CimAsic,
        }
    }

    fn run_engine(
        &self,
        coupling: &CsrCoupling,
        initial: SpinVector,
        seed: u64,
        array: Option<&DeviceArray>,
    ) -> RunResult {
        let n = coupling.dimension();
        // Default T0: a few times the typical |ΔE| of a t-flip move, so
        // the Metropolis walk starts hot (the classical SA prescription).
        let t0 = self
            .t0
            .unwrap_or_else(|| 4.0 * 4.0 * suggest_einc_scale(coupling, self.flips));
        // A zero-iteration run (warm-start verbatim contract) never
        // samples the schedule, but the constructor insists on ≥ 1.
        let schedule = GeometricSchedule::over_iterations(
            t0,
            t0 * self.t_end_fraction,
            self.iterations.max(1),
        );
        let mut config = AnnealConfig::new(self.iterations, seed).with_flips(self.flips.min(n));
        if let Some(every) = self.trace_every {
            config = config.with_trace(every);
        }
        if let Some(target) = self.target_energy {
            config = config.with_target_energy(target);
        }
        match array {
            None => {
                let mut backend = ExactBackend::new(coupling, initial);
                run_direct(&mut backend, &schedule, self.acceptance, config)
            }
            Some(array) => {
                let mut backend =
                    TiledBackend::new(coupling, initial, array.config.clone(), array.rows(n));
                run_direct(&mut backend, &schedule, self.acceptance, config)
            }
        }
    }

    fn hardware_report(
        &self,
        run: &mut RunResult,
        spins: usize,
        array: Option<&DeviceArray>,
    ) -> (EnergyReport, TimeReport) {
        // The baseline evaluates eˣ once per iteration (Fig. 1b digital
        // computation); stamp it into measured activity when present.
        if let Some(stats) = run.activity.as_mut() {
            stats.exp_evaluations = run.iterations as u64;
        }
        let profile = pricing(array, spins, self.flips);
        let cost_model = profile.cost_model();
        match &run.activity {
            Some(stats) => (
                fecim_hwcost::energy_of(stats, &cost_model, self.exp_unit),
                fecim_hwcost::time_of(stats, &cost_model, self.exp_unit),
            ),
            None => (
                profile.run_energy(self.kind(), &cost_model, run.iterations),
                profile.run_time(self.kind(), &cost_model, run.iterations),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::ideal_ring_trial;
    use crate::SolverSpec;
    use fecim_ising::MaxCut;

    fn ring_problem(n: usize) -> MaxCut {
        MaxCut::new(n, (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect()).unwrap()
    }

    #[test]
    fn asic_baseline_solves_ring() {
        let problem = ring_problem(16);
        let solver = DirectAnnealer::cim_asic(4000).with_flips(1);
        let report = solver.solve(&problem, 21).unwrap();
        assert_eq!(report.kind, AnnealerKind::CimAsic);
        assert!(report.objective.unwrap() >= 14.0);
    }

    #[test]
    fn fpga_and_asic_share_algorithm_but_not_cost() {
        // Paper Sec. 4.2: same algorithm → identical solving results;
        // different eˣ hardware → different energy.
        let problem = ring_problem(12);
        let fpga = DirectAnnealer::cim_fpga(500).solve(&problem, 3).unwrap();
        let asic = DirectAnnealer::cim_asic(500).solve(&problem, 3).unwrap();
        assert_eq!(fpga.best_energy, asic.best_energy);
        assert_eq!(fpga.best_spins, asic.best_spins);
        assert!(fpga.energy.total() > asic.energy.total());
    }

    #[test]
    fn baseline_energy_exceeds_in_situ_by_large_factor() {
        use crate::annealer::CimAnnealer;
        let problem = ring_problem(64);
        let ours = CimAnnealer::new(100).solve(&problem, 1).unwrap();
        let base = DirectAnnealer::cim_asic(100).solve(&problem, 1).unwrap();
        let ratio = base.energy.total() / ours.energy.total();
        // n/t = 64/2 = 32 for the analytic profile.
        assert!(ratio > 20.0, "ratio={ratio}");
    }

    #[test]
    fn device_in_loop_counts_exp_evaluations() {
        let solver = SolverSpec::Direct(DirectAnnealer::cim_asic(50).with_flips(1));
        let report = ideal_ring_trial(solver, 10, None, 7);
        let stats = report.run.activity.unwrap();
        assert_eq!(stats.exp_evaluations, 50);
        assert!(report.energy.exp > 0.0);
    }

    #[test]
    fn greedy_ablation_differs_from_metropolis() {
        let problem = ring_problem(20);
        let greedy = DirectAnnealer {
            acceptance: Acceptance::Greedy,
            ..DirectAnnealer::cim_asic(300)
        }
        .solve(&problem, 5)
        .unwrap();
        // Greedy accepts only downhill: over the same iterations it must
        // accept fewer moves than a hot Metropolis run.
        let metro = DirectAnnealer {
            t0: Some(50.0),
            ..DirectAnnealer::cim_asic(300)
        }
        .solve(&problem, 5)
        .unwrap();
        assert_eq!(greedy.run.iterations, metro.run.iterations);
        assert!(greedy.run.accepted < metro.run.accepted);
    }
}
