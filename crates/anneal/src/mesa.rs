//! Multi-Epoch Simulated Annealing (MESA), the enhanced SA of the FeFET
//! CiM annealer the paper compares against (ref [7]): the run is split
//! into epochs; each epoch re-heats to a progressively lower starting
//! temperature and continues from the best configuration seen so far.

use serde::{Deserialize, Serialize};

use fecim_ising::{CsrCoupling, SpinVector};

use crate::backend::ExactBackend;
use crate::engine::{run_direct, Acceptance, AnnealConfig};
use crate::result::RunResult;
use crate::schedule::GeometricSchedule;
use crate::trace::{Trace, TraceMode};

/// MESA configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MesaConfig {
    /// Number of epochs.
    pub epochs: usize,
    /// Iterations per epoch.
    pub iterations_per_epoch: usize,
    /// Initial temperature of the first epoch.
    pub t0: f64,
    /// Final temperature of each epoch's geometric schedule.
    pub t_end: f64,
    /// Re-heat factor: epoch `e` starts at `t0 · reheat^e`.
    pub reheat: f64,
    /// Flips per iteration.
    pub flips_per_iteration: usize,
    /// RNG seed.
    pub seed: u64,
}

impl MesaConfig {
    /// Defaults matching the MESA description of ref \[7\]: 4 epochs, 0.5×
    /// re-heating, single-spin flips.
    pub fn new(total_iterations: usize, t0: f64, seed: u64) -> MesaConfig {
        let epochs = 4;
        MesaConfig {
            epochs,
            iterations_per_epoch: (total_iterations / epochs).max(1),
            t0,
            t_end: (t0 * 1e-3).max(1e-9),
            reheat: 0.5,
            flips_per_iteration: 1,
            seed,
        }
    }
}

/// Run MESA on an exact software backend.
///
/// Returns the result of the *whole* process: best over all epochs, final
/// state of the last epoch, accepted/iteration counts summed.
///
/// # Panics
///
/// Panics if `epochs == 0` or schedule parameters are invalid.
pub fn run_mesa(coupling: &CsrCoupling, initial: SpinVector, config: MesaConfig) -> RunResult {
    assert!(config.epochs > 0, "need at least one epoch");
    let run_epoch = |epoch: usize, start: SpinVector| {
        let t0 = (config.t0 * config.reheat.powi(epoch as i32)).max(config.t_end * 2.0);
        // A zero-iteration epoch never samples the schedule, but the
        // constructor insists on ≥ 1.
        let schedule = GeometricSchedule::over_iterations(
            t0,
            config.t_end,
            config.iterations_per_epoch.max(1),
        );
        let mut backend = ExactBackend::new(coupling, start);
        run_direct(
            &mut backend,
            &schedule,
            Acceptance::Metropolis,
            AnnealConfig {
                iterations: config.iterations_per_epoch,
                flips_per_iteration: config.flips_per_iteration,
                seed: config.seed.wrapping_add(epoch as u64),
                trace: TraceMode::Off,
                target_energy: None,
            },
        )
    };

    let mut last = run_epoch(0, initial);
    let mut accepted = last.accepted;
    let mut iterations = last.iterations;
    let mut best_energy = last.best_energy;
    let mut best_spins = last.best_spins.clone();
    for epoch in 1..config.epochs {
        // Each epoch continues from the best configuration found so far.
        last = run_epoch(epoch, best_spins.clone());
        accepted += last.accepted;
        iterations += last.iterations;
        if last.best_energy < best_energy {
            best_energy = last.best_energy;
            best_spins = last.best_spins.clone();
        }
    }

    RunResult {
        iterations,
        accepted,
        final_energy: last.final_energy,
        final_spins: last.final_spins,
        best_energy,
        best_spins,
        first_target_hit: None,
        trace: Trace::new(),
        activity: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fecim_ising::{CopProblem, MaxCut};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring(n: usize) -> (MaxCut, CsrCoupling) {
        let edges: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect();
        let mc = MaxCut::new(n, edges).unwrap();
        let j = mc.to_ising().unwrap().couplings().clone();
        (mc, j)
    }

    #[test]
    fn mesa_solves_ring() {
        let (mc, j) = ring(16);
        let mut rng = StdRng::seed_from_u64(31);
        let init = SpinVector::random(16, &mut rng);
        let result = run_mesa(&j, init, MesaConfig::new(4000, 2.0, 5));
        let cut = mc.cut_from_energy(result.best_energy);
        assert!(cut >= 14.0, "cut={cut}");
        assert_eq!(result.iterations, 4000);
    }

    #[test]
    fn mesa_beats_or_equals_single_epoch_with_same_budget() {
        let (_, j) = ring(24);
        let mut rng = StdRng::seed_from_u64(33);
        let init = SpinVector::random(24, &mut rng);
        let mesa = run_mesa(&j, init.clone(), MesaConfig::new(2000, 2.0, 9));
        // Single epoch == epochs:1.
        let single = run_mesa(
            &j,
            init,
            MesaConfig {
                epochs: 1,
                iterations_per_epoch: 2000,
                ..MesaConfig::new(2000, 2.0, 9)
            },
        );
        assert!(mesa.best_energy <= single.best_energy + 1e-9);
    }

    #[test]
    fn mesa_is_deterministic() {
        let (_, j) = ring(12);
        let init = SpinVector::all_up(12);
        let a = run_mesa(&j, init.clone(), MesaConfig::new(500, 2.0, 1));
        let b = run_mesa(&j, init, MesaConfig::new(500, 2.0, 1));
        assert_eq!(a.best_energy, b.best_energy);
    }
}
