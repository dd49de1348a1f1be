//! The paper's 30-instance Max-Cut benchmark suite (Sec. 4.1):
//! 9×800-node, 9×1000-node, 9×2000-node and 3×3000-node instances, with the
//! per-group iteration budgets 700 / 1000 / 10 000 / 100 000 used in the
//! evaluation.

use serde::{Deserialize, Serialize};

use crate::generate::{GeneratorConfig, GsetFamily};
use crate::graph::Graph;

/// One of the four problem-size groups of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SizeGroup {
    /// 800-node group (9 instances, 700 iterations per run).
    N800,
    /// 1000-node group (9 instances, 1000 iterations per run).
    N1000,
    /// 2000-node group (9 instances, 10 000 iterations per run).
    N2000,
    /// 3000-node group (3 instances, 100 000 iterations per run).
    N3000,
}

impl SizeGroup {
    /// All groups in evaluation order.
    pub fn all() -> [SizeGroup; 4] {
        [
            SizeGroup::N800,
            SizeGroup::N1000,
            SizeGroup::N2000,
            SizeGroup::N3000,
        ]
    }

    /// Number of vertices of instances in this group.
    pub fn vertex_count(self) -> usize {
        match self {
            SizeGroup::N800 => 800,
            SizeGroup::N1000 => 1000,
            SizeGroup::N2000 => 2000,
            SizeGroup::N3000 => 3000,
        }
    }

    /// Number of instances the paper uses in this group.
    fn instance_count(self) -> usize {
        match self {
            SizeGroup::N800 | SizeGroup::N1000 | SizeGroup::N2000 => 9,
            SizeGroup::N3000 => 3,
        }
    }

    /// Annealing iterations per run in the paper's evaluation.
    pub fn iteration_budget(self) -> usize {
        match self {
            SizeGroup::N800 => 700,
            SizeGroup::N1000 => 1000,
            SizeGroup::N2000 => 10_000,
            SizeGroup::N3000 => 100_000,
        }
    }
}

/// A named instance of the benchmark suite.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteInstance {
    /// Instance label, e.g. `"F800-3"` (F for "fecim Gset-style").
    pub label: String,
    /// Size group the instance belongs to.
    pub group: SizeGroup,
    /// Generator configuration (fully determines the graph).
    pub config: GeneratorConfig,
}

impl SuiteInstance {
    /// Materialize the graph.
    pub fn graph(&self) -> Graph {
        self.config.generate()
    }
}

/// The full 30-instance suite of the paper, deterministically seeded.
///
/// Instances rotate through the three Gset structural families so each size
/// group mixes random-unit, random-signed and toroidal graphs, like the
/// Gset ranges the paper draws from.
///
/// # Examples
///
/// ```
/// use fecim_gset::{paper_suite, SizeGroup};
/// let suite = paper_suite();
/// assert_eq!(suite.len(), 30);
/// let n800: Vec<_> = suite.iter().filter(|i| i.group == SizeGroup::N800).collect();
/// assert_eq!(n800.len(), 9);
/// ```
pub fn paper_suite() -> Vec<SuiteInstance> {
    let mut out = Vec::with_capacity(30);
    for group in SizeGroup::all() {
        for k in 0..group.instance_count() {
            out.push(suite_instance(group, k));
        }
    }
    out
}

/// Gset structural statistics of a size group: the family and mean degree
/// of the actual Gset instances the paper draws from (G1–G9 at 800 nodes:
/// dense random, degree ≈ 48; G43+ at 1000/2000 nodes: random, degree
/// ≈ 20; G48–G50 at 3000 nodes: degree-4 torus).
fn group_family(group: SizeGroup) -> (GsetFamily, f64) {
    match group {
        SizeGroup::N800 => (GsetFamily::RandomUnit, 48.0),
        SizeGroup::N1000 | SizeGroup::N2000 => (GsetFamily::RandomUnit, 20.0),
        SizeGroup::N3000 => (GsetFamily::ToroidalUnit, 4.0),
    }
}

/// A single instance of the paper suite by group and index.
///
/// # Panics
///
/// Panics if `index >= group.instance_count()`.
// audit:allow(dead-pub): test seam: serde_roundtrips round-trips one paper-suite instance built through it
pub fn suite_instance(group: SizeGroup, index: usize) -> SuiteInstance {
    assert!(
        index < group.instance_count(),
        "group has only {} instances",
        group.instance_count()
    );
    let n = group.vertex_count();
    let (family, degree) = group_family(group);
    let seed = 0xF3C1_0000 ^ ((n as u64) << 8) ^ index as u64;
    let config = GeneratorConfig::new(n, seed)
        .with_family(family)
        .with_mean_degree(degree);
    SuiteInstance {
        label: format!("F{n}-{index}"),
        group,
        config,
    }
}

/// A scaled-down analogue of the paper suite for fast CI / `--scale quick`
/// harness runs: same four-group structure at `scale` × the vertex counts
/// (minimum 32), 2 instances per group, degrees capped to stay sparse at
/// the reduced sizes.
pub fn quick_suite(scale: f64) -> Vec<SuiteInstance> {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    let mut out = Vec::new();
    for group in SizeGroup::all() {
        let n = ((group.vertex_count() as f64 * scale) as usize).max(32);
        let (family, degree) = group_family(group);
        let degree = degree.min(n as f64 / 5.0).max(4.0);
        for k in 0..2usize {
            let seed = ((n as u64) << 8) ^ k as u64;
            out.push(SuiteInstance {
                label: format!("Q{n}-{k}"),
                group,
                config: GeneratorConfig::new(n, seed)
                    .with_family(family)
                    .with_mean_degree(degree),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_matches_paper_counts() {
        let suite = paper_suite();
        assert_eq!(suite.len(), 30);
        for group in SizeGroup::all() {
            let cnt = suite.iter().filter(|i| i.group == group).count();
            assert_eq!(cnt, group.instance_count());
        }
    }

    #[test]
    fn iteration_budgets_match_paper() {
        assert_eq!(SizeGroup::N800.iteration_budget(), 700);
        assert_eq!(SizeGroup::N1000.iteration_budget(), 1000);
        assert_eq!(SizeGroup::N2000.iteration_budget(), 10_000);
        assert_eq!(SizeGroup::N3000.iteration_budget(), 100_000);
    }

    #[test]
    fn instances_have_declared_sizes() {
        let inst = suite_instance(SizeGroup::N800, 0);
        let g = inst.graph();
        assert_eq!(g.vertex_count(), 800);
        assert!(g.edge_count() > 0);
    }

    #[test]
    fn instances_are_distinct_within_group() {
        let a = suite_instance(SizeGroup::N1000, 0).graph();
        let b = suite_instance(SizeGroup::N1000, 1).graph();
        assert_ne!(a, b);
    }

    #[test]
    fn labels_are_unique() {
        let suite = paper_suite();
        let mut labels: Vec<&str> = suite.iter().map(|i| i.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 30);
    }

    #[test]
    fn quick_suite_is_small_and_structured() {
        let q = quick_suite(0.1);
        assert_eq!(q.len(), 8);
        for inst in &q {
            let g = inst.graph();
            assert!(g.vertex_count() >= 32);
            assert!(g.vertex_count() <= 300);
        }
    }

    #[test]
    #[should_panic(expected = "instances")]
    fn out_of_range_instance_panics() {
        let _ = suite_instance(SizeGroup::N3000, 3);
    }
}
