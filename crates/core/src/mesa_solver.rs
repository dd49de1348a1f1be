//! MESA solver facade: the Multi-Epoch SA variant of the FeFET CiM
//! annealer (paper ref [7]), costed like the CiM/ASIC baseline (same
//! direct-E hardware; MESA changes only the schedule logic).

use serde::{Deserialize, Serialize};

use fecim_anneal::{run_mesa, suggest_einc_scale, MesaConfig, RunResult};
use fecim_hwcost::{AnnealerKind, EnergyReport, ExpUnit, IterationProfile, TimeReport};
use fecim_ising::{CsrCoupling, SpinVector};

use crate::solver::{DeviceArray, Solver};

/// The MESA baseline solver (ref \[7\]'s enhanced SA on direct-E hardware).
///
/// The epoch count and re-heat factor are wire fields only;
/// [`Session::prepare`](crate::Session::prepare) checks them before
/// anything runs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MesaAnnealer {
    iterations: usize,
    epochs: usize,
    reheat: f64,
}

impl MesaAnnealer {
    /// MESA with the defaults of ref \[7\]: 4 epochs, 0.5× re-heating.
    pub fn new(iterations: usize) -> MesaAnnealer {
        MesaAnnealer {
            iterations,
            epochs: 4,
            reheat: 0.5,
        }
    }

    /// Check this configuration against everything the MESA engine
    /// asserts on: at least one epoch.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.epochs == 0 {
            return Err("MESA needs at least one epoch".to_string());
        }
        Ok(())
    }
}

impl Solver for MesaAnnealer {
    fn name(&self) -> &str {
        "MESA multi-epoch baseline"
    }

    fn kind(&self) -> AnnealerKind {
        AnnealerKind::CimAsic
    }

    /// MESA runs only on the analytic backend (the session rejects a
    /// device plan), so `array` is always `None`.
    fn run_engine(
        &self,
        coupling: &CsrCoupling,
        initial: SpinVector,
        seed: u64,
        _array: Option<&DeviceArray>,
    ) -> RunResult {
        let t0 = 16.0 * suggest_einc_scale(coupling, 1);
        let mut config = MesaConfig::new(self.iterations, t0, seed);
        config.epochs = self.epochs;
        // A zero budget runs zero iterations (the warm-start verbatim
        // contract); any other budget runs at least one per epoch.
        config.iterations_per_epoch = if self.iterations == 0 {
            0
        } else {
            (self.iterations / self.epochs).max(1)
        };
        config.reheat = self.reheat;
        run_mesa(coupling, initial, config)
    }

    fn hardware_report(
        &self,
        run: &mut RunResult,
        spins: usize,
        _array: Option<&DeviceArray>,
    ) -> (EnergyReport, TimeReport) {
        // Same direct-E hardware as the ASIC baseline (one exp unit, full
        // array reads each iteration).
        let profile = IterationProfile::paper(spins);
        let cost_model = profile.cost_model();
        let mut activity = profile.activity(AnnealerKind::CimAsic);
        let iters = run.iterations as u64;
        activity.array_ops *= iters;
        activity.row_passes *= iters;
        activity.adc_conversions *= iters;
        activity.adc_slots *= iters;
        activity.cells_activated *= iters;
        activity.rows_driven *= iters;
        activity.columns_driven *= iters;
        activity.shift_add_ops *= iters;
        activity.buffer_writes *= iters;
        activity.exp_evaluations *= iters;
        let energy = fecim_hwcost::energy_of(&activity, &cost_model, ExpUnit::Asic);
        let time = fecim_hwcost::time_of(&activity, &cost_model, ExpUnit::Asic);
        (energy, time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fecim_ising::MaxCut;

    fn ring_problem(n: usize) -> MaxCut {
        MaxCut::new(n, (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect()).unwrap()
    }

    #[test]
    fn mesa_solves_ring() {
        let problem = ring_problem(16);
        let report = MesaAnnealer::new(4000).solve(&problem, 3).unwrap();
        assert!(report.objective.unwrap() >= 14.0);
        assert_eq!(report.kind, AnnealerKind::CimAsic);
        assert!(report.energy.exp > 0.0, "MESA pays for the exp unit");
    }

    #[test]
    fn epoch_override() {
        let problem = ring_problem(12);
        let a = MesaAnnealer {
            epochs: 2,
            ..MesaAnnealer::new(1000)
        }
        .solve(&problem, 7)
        .unwrap();
        let b = MesaAnnealer {
            epochs: 5,
            ..MesaAnnealer::new(1000)
        }
        .solve(&problem, 7)
        .unwrap();
        // Different epoch structure → different trajectories (almost surely).
        assert!(a.best_energy != b.best_energy || a.run.accepted != b.run.accepted);
    }

    #[test]
    fn mesa_energy_cost_matches_asic_baseline_per_iteration() {
        use crate::baselines::DirectAnnealer;
        let problem = ring_problem(32);
        let mesa = MesaAnnealer::new(500).solve(&problem, 1).unwrap();
        let asic = DirectAnnealer::cim_asic(500).solve(&problem, 1).unwrap();
        let rel = (mesa.energy.total() - asic.energy.total()).abs() / asic.energy.total();
        assert!(rel < 1e-9, "MESA runs on the same hardware: rel={rel}");
    }
}
