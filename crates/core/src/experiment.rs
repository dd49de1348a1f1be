//! The paper's evaluation protocol (Sec. 4) as a reusable experiment
//! runner: the 30-instance Max-Cut suite, parallel solver ensembles
//! (rayon-backed, deterministic at any thread count), success-rate
//! scoring against 90 %-of-optimum targets, and hardware energy/time
//! accounting — the data behind Figs. 8, 9, 10 and Table 1.
//!
//! Every measured ensemble is submitted as a [`SolveRequest`] and
//! executed by a [`Session`], so the protocol never names an execution
//! path beyond the two architecture choices it compares; swapping either
//! is a one-line change in [`run_experiment`]'s request construction.

use serde::{Deserialize, Serialize};

use fecim_anneal::{multi_start_local_search, success_rate, Aggregate};
use fecim_gset::{paper_suite, quick_suite, SizeGroup, SuiteInstance};
use fecim_hwcost::{AnnealerKind, IterationProfile};
use fecim_ising::{CopProblem, IsingError};

use crate::annealer::CimAnnealer;
use crate::baselines::DirectAnnealer;
use crate::request::{ProblemSpec, RunPlan, SolveRequest, SolverSpec};
use crate::session::Session;

/// Evaluation scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scale {
    /// Scaled-down suite (≈10 % node counts, 2 instances/group, 10 runs):
    /// minutes on a laptop, same qualitative shape.
    Quick,
    /// The paper's full protocol: 30 instances, 100 runs each, iteration
    /// budgets 700/1000/10⁴/10⁵.
    Paper,
}

/// Experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Evaluation scale.
    pub scale: Scale,
    /// Monte-Carlo runs per instance (paper: 100).
    pub runs_per_instance: usize,
    /// Success target as a fraction of the reference optimum (paper: 0.9).
    pub target_fraction: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Local-search starts for the reference optimum.
    pub reference_starts: usize,
    /// Physical tile height for hardware-cost accounting (`None` = one
    /// monolithic array per instance): row/column wire events are priced
    /// at tile geometry and the per-iteration activated-tile counts are
    /// reported per architecture.
    pub tile_rows: Option<usize>,
    /// Skip size groups whose instances exceed this many spins (used by
    /// the golden-regression suite and CI smoke runs to bound cost).
    pub max_spins: Option<usize>,
    /// Problem instances batched onto one shared tile grid for the
    /// hardware accounting (`1` = the classic one-grid-per-instance
    /// mapping). Sizes the reported shared grid
    /// ([`HardwareCost::grid_tiles`]); per-cycle utilization under full
    /// batching is batch-invariant by construction (grid and concurrent
    /// activations scale together — throughput grows at constant
    /// utilization, which is the batching argument). Never affects
    /// solution quality: batching is a placement change.
    pub batch_instances: usize,
}

impl ExperimentConfig {
    /// Defaults for a scale.
    pub fn new(scale: Scale) -> ExperimentConfig {
        match scale {
            Scale::Quick => ExperimentConfig {
                scale,
                runs_per_instance: 10,
                target_fraction: 0.9,
                seed: 2025,
                reference_starts: 8,
                tile_rows: None,
                max_spins: None,
                batch_instances: 1,
            },
            Scale::Paper => ExperimentConfig {
                scale,
                runs_per_instance: 100,
                target_fraction: 0.9,
                seed: 2025,
                reference_starts: 20,
                tile_rows: None,
                max_spins: None,
                batch_instances: 1,
            },
        }
    }

    /// The benchmark instances for this scale.
    pub fn instances(&self) -> Vec<SuiteInstance> {
        match self.scale {
            Scale::Quick => quick_suite(0.1),
            Scale::Paper => paper_suite(),
        }
    }

    /// Iteration budget for a group at this scale. Quick mode shrinks the
    /// budgets by the same factor as the instance sizes (10×), preserving
    /// the iterations-per-spin pressure that drives the Fig. 10
    /// separation between the annealers.
    pub fn iterations_for(&self, group: SizeGroup) -> usize {
        let full = group.iteration_budget();
        match self.scale {
            Scale::Quick => (full / 10).clamp(64, 10_000),
            Scale::Paper => full,
        }
    }
}

/// Solution-quality statistics of one annealer on one instance group.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlgoStats {
    /// Mean cut normalized by the reference optimum.
    pub mean_normalized_cut: f64,
    /// Standard deviation of the normalized cut.
    pub std_normalized_cut: f64,
    /// Fraction of runs reaching the success target.
    pub success_rate: f64,
    /// Mean iterations to first reach the target, over successful runs
    /// (`None` when no run succeeded) — the Table 1 time-to-solution
    /// numerator.
    pub mean_iterations_to_target: Option<f64>,
}

/// Hardware cost of one annealer on one group (per run).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HardwareCost {
    /// Architecture.
    pub kind: AnnealerKind,
    /// Energy per run, joules.
    pub energy: f64,
    /// Time per run, seconds.
    pub time: f64,
    /// Physical tiles activated per iteration under the configured
    /// mapping (1 for the monolithic array).
    pub tiles_per_iteration: u64,
    /// Physical tiles of the shared grid implied by
    /// [`ExperimentConfig::batch_instances`] (see
    /// [`IterationProfile::grid_tiles`]).
    pub grid_tiles: u64,
    /// Fraction of the shared grid a fully batched iteration activates
    /// (see [`IterationProfile::batch_utilization`]; batch-invariant —
    /// serving the same grid one instance per cycle would divide it by
    /// the batch size).
    pub grid_utilization: f64,
}

/// Everything measured for one size group.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupOutcome {
    /// The size group.
    pub group: SizeGroup,
    /// Vertices per instance at this scale.
    pub spins: usize,
    /// Iterations per run.
    pub iterations: usize,
    /// Instances evaluated.
    pub instances: usize,
    /// Monte-Carlo runs per instance.
    pub runs_per_instance: usize,
    /// Proposed in-situ annealer quality.
    pub in_situ: AlgoStats,
    /// Baseline (direct-E Metropolis; CiM/FPGA and CiM/ASIC share it).
    pub baseline: AlgoStats,
    /// Per-architecture hardware cost of one run.
    pub hardware: Vec<HardwareCost>,
}

/// Full experiment outcome (all groups).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentOutcome {
    /// Configuration used.
    pub config: ExperimentConfig,
    /// Per-group results in size order.
    pub groups: Vec<GroupOutcome>,
}

impl ExperimentOutcome {
    /// Mean success rate of the in-situ annealer across groups (the
    /// paper's "98 % average" headline).
    pub fn in_situ_mean_success(&self) -> f64 {
        mean(self.groups.iter().map(|g| g.in_situ.success_rate))
    }

    /// Mean success rate of the baselines across groups (the paper's
    /// "50 %" comparison point).
    pub fn baseline_mean_success(&self) -> f64 {
        mean(self.groups.iter().map(|g| g.baseline.success_rate))
    }

    /// Energy ratio `kind / in-situ` per group (Fig. 8a bar heights).
    pub fn energy_ratios(&self, kind: AnnealerKind) -> Vec<(SizeGroup, f64)> {
        self.ratios(kind, |h| h.energy)
    }

    /// Time ratio `kind / in-situ` per group (Fig. 9a bar heights).
    pub fn time_ratios(&self, kind: AnnealerKind) -> Vec<(SizeGroup, f64)> {
        self.ratios(kind, |h| h.time)
    }

    fn ratios(
        &self,
        kind: AnnealerKind,
        metric: impl Fn(&HardwareCost) -> f64,
    ) -> Vec<(SizeGroup, f64)> {
        self.groups
            .iter()
            .map(|g| {
                let get = |k: AnnealerKind| {
                    g.hardware
                        .iter()
                        .find(|h| h.kind == k)
                        .map(&metric)
                        .unwrap_or(f64::NAN)
                };
                (g.group, get(kind) / get(AnnealerKind::InSitu))
            })
            .collect()
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Run the full efficiency-and-quality comparison (Figs. 8a, 9a, 10).
///
/// Solution quality uses the software-exact backend (the algorithms are
/// identical to the hardware flow; device effects are studied separately
/// in the ablation benches). Hardware costs come from the analytic
/// per-iteration activity model, which an integration test pins against
/// the cycle-level crossbar simulator.
///
/// # Errors
///
/// Propagates the first instance-encoding error instead of panicking
/// (impossible for the built-in Max-Cut suites, which always encode).
pub fn run_experiment(config: ExperimentConfig) -> Result<ExperimentOutcome, IsingError> {
    let instances = config.instances();
    let mut groups = Vec::new();
    for group in SizeGroup::all() {
        let members: Vec<&SuiteInstance> = instances.iter().filter(|i| i.group == group).collect();
        if members.is_empty() {
            continue;
        }
        if let Some(max) = config.max_spins {
            if members[0].config.vertex_count > max {
                continue;
            }
        }
        groups.push(run_group(&config, group, &members)?);
    }
    Ok(ExperimentOutcome { config, groups })
}

fn run_group(
    config: &ExperimentConfig,
    group: SizeGroup,
    members: &[&SuiteInstance],
) -> Result<GroupOutcome, IsingError> {
    let iterations = config.iterations_for(group);
    let mut in_situ_runs: Vec<(f64, Option<usize>)> = Vec::new();
    let mut baseline_runs: Vec<(f64, Option<usize>)> = Vec::new();
    let mut spins = 0usize;
    let session = Session::new();

    for (inst_idx, inst) in members.iter().enumerate() {
        let graph = inst.graph();
        spins = graph.vertex_count();
        let problem = graph.to_max_cut();
        let model = problem.to_ising()?;
        let reference = {
            let (_, energy) =
                multi_start_local_search(model.couplings(), config.reference_starts, config.seed);
            problem.cut_from_energy(energy)
        };
        // Target in energy units: the Ising energy of a 90%-of-optimum cut.
        let target_energy = problem.energy_from_cut(config.target_fraction * reference);
        let run = RunPlan::Ensemble {
            trials: config.runs_per_instance,
            base_seed: config.seed ^ ((inst_idx as u64) << 32),
            threads: None,
        };
        let spec = ProblemSpec::from_graph(&graph);
        let ours = CimAnnealer::new(iterations).with_target_energy(target_energy);
        let base = DirectAnnealer::cim_asic(iterations).with_target_energy(target_energy);
        for (solver, runs) in [
            (SolverSpec::Cim(ours), &mut in_situ_runs),
            (SolverSpec::Direct(base), &mut baseline_runs),
        ] {
            let request = SolveRequest::new(spec.clone(), solver)
                .with_run(run)
                .with_reference(reference);
            let response = session.run(&request).map_err(|e| e.into_ising())?;
            runs.extend(
                response
                    .normalized_pairs()
                    // audit:allow(panic-path): the request was built `with_reference` just above, so the response always carries normalized pairs
                    .expect("request carries a reference"),
            );
        }
    }

    let algo_stats = |runs: &[(f64, Option<usize>)]| {
        let cuts: Vec<f64> = runs.iter().map(|r| r.0).collect();
        let hits: Vec<f64> = runs.iter().filter_map(|r| r.1).map(|h| h as f64).collect();
        let agg = Aggregate::of(&cuts);
        AlgoStats {
            mean_normalized_cut: agg.mean,
            std_normalized_cut: agg.std_dev,
            success_rate: success_rate(&cuts, config.target_fraction, true),
            mean_iterations_to_target: if hits.is_empty() {
                None
            } else {
                Some(Aggregate::of(&hits).mean)
            },
        }
    };

    let profile = match config.tile_rows {
        None => IterationProfile::paper(spins),
        Some(tr) => IterationProfile::paper_tiled(spins, tr),
    }
    .batched(config.batch_instances.max(1));
    let cost_model = profile.cost_model();
    let hardware = AnnealerKind::all()
        .into_iter()
        .map(|kind| HardwareCost {
            kind,
            energy: profile.run_energy(kind, &cost_model, iterations).total(),
            time: profile.run_time(kind, &cost_model, iterations).total(),
            tiles_per_iteration: profile.activated_tiles(kind),
            grid_tiles: profile.grid_tiles(),
            grid_utilization: profile.batch_utilization(kind),
        })
        .collect();

    Ok(GroupOutcome {
        group,
        spins,
        iterations,
        instances: members.len(),
        runs_per_instance: config.runs_per_instance,
        in_situ: algo_stats(&in_situ_runs),
        baseline: algo_stats(&baseline_runs),
        hardware,
    })
}

/// Cumulative hardware cost vs iteration count for one problem size — the
/// series of Figs. 8(b) and 9(b).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrendPoint {
    /// Iteration count.
    pub iterations: usize,
    /// Cumulative energy per architecture, joules (same order as
    /// [`AnnealerKind::all`]).
    pub energy: Vec<f64>,
    /// Cumulative time per architecture, seconds.
    pub time: Vec<f64>,
}

/// Compute the iteration-sweep trends for an `n`-spin instance
/// (paper: `n = 1000`, sweep 0..1000).
pub fn cost_trend(spins: usize, max_iterations: usize, points: usize) -> Vec<TrendPoint> {
    assert!(points >= 2, "need at least two points");
    let profile = IterationProfile::paper(spins);
    let cost_model = profile.cost_model();
    (0..points)
        .map(|k| {
            let iterations = max_iterations * k / (points - 1);
            let energy = AnnealerKind::all()
                .into_iter()
                .map(|kind| profile.run_energy(kind, &cost_model, iterations).total())
                .collect();
            let time = AnnealerKind::all()
                .into_iter()
                .map(|kind| profile.run_time(kind, &cost_model, iterations).total())
                .collect();
            TrendPoint {
                iterations,
                energy,
                time,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiment_reproduces_paper_shape() {
        // The structural claims of Figs. 8–10 at quick scale:
        // (i) in-situ success ≥ baseline success;
        // (ii) energy ratios grow with problem size;
        // (iii) time ratios ≈ 8 for both baselines.
        let mut config = ExperimentConfig::new(Scale::Quick);
        config.runs_per_instance = 3;
        config.reference_starts = 4;
        let outcome = run_experiment(config).expect("quick suite encodes");
        assert_eq!(outcome.groups.len(), 4);

        assert!(
            outcome.in_situ_mean_success() >= outcome.baseline_mean_success(),
            "in-situ {} vs baseline {}",
            outcome.in_situ_mean_success(),
            outcome.baseline_mean_success()
        );

        let ratios = outcome.energy_ratios(AnnealerKind::CimAsic);
        assert!(ratios.windows(2).all(|w| w[1].1 > w[0].1), "{ratios:?}");

        for (_, r) in outcome.time_ratios(AnnealerKind::CimAsic) {
            assert!(r > 6.0 && r < 10.0, "time ratio {r}");
        }
        for (_, r) in outcome.time_ratios(AnnealerKind::CimFpga) {
            assert!(r > 6.0 && r < 10.5, "time ratio {r}");
        }
    }

    #[test]
    fn cost_trend_is_linear_in_iterations() {
        let trend = cost_trend(1000, 1000, 6);
        assert_eq!(trend.len(), 6);
        assert_eq!(trend[0].iterations, 0);
        assert_eq!(trend[0].energy.iter().sum::<f64>(), 0.0);
        // Linearity: value at 1000 = 5 × value at 200.
        for arch in 0..3 {
            let e200 = trend[1].energy[arch];
            let e1000 = trend[5].energy[arch];
            assert!((e1000 / e200 - 5.0).abs() < 1e-9);
        }
    }

    #[test]
    fn tiled_experiment_reports_activated_tiles() {
        let mut config = ExperimentConfig::new(Scale::Quick);
        config.runs_per_instance = 2;
        config.reference_starts = 2;
        config.max_spins = Some(100);
        config.tile_rows = Some(32);
        let outcome = run_experiment(config).expect("quick suite encodes");
        // max_spins keeps only the 80- and 100-spin quick groups.
        assert_eq!(outcome.groups.len(), 2);
        for g in &outcome.groups {
            let ours = g
                .hardware
                .iter()
                .find(|h| h.kind == AnnealerKind::InSitu)
                .unwrap();
            let base = g
                .hardware
                .iter()
                .find(|h| h.kind == AnnealerKind::CimAsic)
                .unwrap();
            // The in-situ read touches only the flipped stripes; the
            // baseline lights the whole grid.
            assert!(ours.tiles_per_iteration < base.tiles_per_iteration);
            assert!(base.tiles_per_iteration >= 9, "n={} grid", g.spins);
        }
    }

    #[test]
    fn batch_instances_scales_reported_grid_at_constant_utilization() {
        let mut config = ExperimentConfig::new(Scale::Quick);
        config.runs_per_instance = 2;
        config.reference_starts = 2;
        config.max_spins = Some(80);
        config.tile_rows = Some(32);
        let solo = run_experiment(config).expect("quick suite encodes");
        config.batch_instances = 4;
        let batched = run_experiment(config).expect("quick suite encodes");
        let get = |o: &ExperimentOutcome| o.groups[0].hardware[0];
        // The knob is observable: the shared grid grows with the batch…
        assert_eq!(get(&batched).grid_tiles, 4 * get(&solo).grid_tiles);
        // …while per-cycle utilization and per-run cost stay put (the
        // batching claim: throughput scales at constant utilization).
        assert_eq!(get(&batched).grid_utilization, get(&solo).grid_utilization);
        assert_eq!(get(&batched).energy, get(&solo).energy);
        assert_eq!(
            batched.groups[0].in_situ.mean_normalized_cut,
            solo.groups[0].in_situ.mean_normalized_cut,
            "placement change never touches solution quality"
        );
    }

    #[test]
    fn experiment_config_budgets() {
        let q = ExperimentConfig::new(Scale::Quick);
        // Quick mode: 10x smaller instances AND 10x smaller budgets.
        assert_eq!(q.iterations_for(SizeGroup::N800), 70);
        assert_eq!(q.iterations_for(SizeGroup::N1000), 100);
        assert_eq!(q.iterations_for(SizeGroup::N2000), 1000);
        assert_eq!(q.iterations_for(SizeGroup::N3000), 10_000);
        let p = ExperimentConfig::new(Scale::Paper);
        assert_eq!(p.iterations_for(SizeGroup::N3000), 100_000);
        assert_eq!(p.instances().len(), 30);
    }
}
