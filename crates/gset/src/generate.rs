//! Seeded generators for Gset-*style* Max-Cut instances.
//!
//! The paper evaluates on instances from the Stanford Gset suite (ref [38]).
//! Gset contains three structural families — uniform random graphs,
//! ±1-weighted random graphs, and (quasi-)toroidal lattices — which these
//! generators reproduce with controlled seeds. DESIGN.md records this
//! substitution: solver behaviour is driven by size/degree/weight
//! statistics, which are matched here, not by the specific Gset files.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::graph::Graph;

/// The structural family of a generated instance, mirroring the Gset suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GsetFamily {
    /// Erdős–Rényi random graph with all weights `+1` (Gset G1–G5 style).
    RandomUnit,
    /// Erdős–Rényi random graph with weights drawn from `{−1, +1}`
    /// (Gset G6–G10 style).
    RandomSigned,
    /// 2-D torus lattice with unit weights (Gset G48–G50 style: an
    /// even-sided torus is bipartite, so the optimal cut equals the edge
    /// count exactly).
    ToroidalUnit,
    /// 2-D torus lattice with ±1 weights (Gset G11–G13 style).
    ToroidalSigned,
    /// "Almost planar" union of a torus and a sparse random matching
    /// (Gset G14+ style).
    AlmostPlanar,
}

impl GsetFamily {
    /// All families, for sweeps.
    pub fn all() -> [GsetFamily; 5] {
        [
            GsetFamily::RandomUnit,
            GsetFamily::RandomSigned,
            GsetFamily::ToroidalUnit,
            GsetFamily::ToroidalSigned,
            GsetFamily::AlmostPlanar,
        ]
    }
}

/// Configuration of an instance generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeneratorConfig {
    /// Number of vertices.
    pub vertex_count: usize,
    /// Structural family.
    pub family: GsetFamily,
    /// Target mean degree (random families; the torus is fixed at 4).
    pub mean_degree: f64,
    /// RNG seed; the same configuration and seed always produce the same
    /// graph.
    pub seed: u64,
}

impl GeneratorConfig {
    /// Gset-like defaults: signed random graph of mean degree 10 — close to
    /// the G6–G10 family the paper's 800-node group resembles.
    pub fn new(vertex_count: usize, seed: u64) -> GeneratorConfig {
        GeneratorConfig {
            vertex_count,
            family: GsetFamily::RandomSigned,
            mean_degree: 10.0,
            seed,
        }
    }

    /// Set the family.
    pub fn with_family(mut self, family: GsetFamily) -> GeneratorConfig {
        self.family = family;
        self
    }

    /// Set the target mean degree.
    ///
    /// # Panics
    ///
    /// Panics if `mean_degree` is not positive.
    pub fn with_mean_degree(mut self, mean_degree: f64) -> GeneratorConfig {
        assert!(mean_degree > 0.0, "mean degree must be positive");
        self.mean_degree = mean_degree;
        self
    }

    /// Generate the instance.
    pub fn generate(&self) -> Graph {
        let mut rng = StdRng::seed_from_u64(self.seed);
        match self.family {
            GsetFamily::RandomUnit => {
                random_graph(self.vertex_count, self.mean_degree, false, &mut rng)
            }
            GsetFamily::RandomSigned => {
                random_graph(self.vertex_count, self.mean_degree, true, &mut rng)
            }
            GsetFamily::ToroidalUnit => toroidal_graph(self.vertex_count, false, &mut rng),
            GsetFamily::ToroidalSigned => toroidal_graph(self.vertex_count, true, &mut rng),
            GsetFamily::AlmostPlanar => almost_planar_graph(self.vertex_count, &mut rng),
        }
    }
}

/// Erdős–Rényi `G(n, p)` with `p = mean_degree/(n−1)`; weights `+1`, or
/// uniform `{−1, +1}` when `signed`.
fn random_graph(n: usize, mean_degree: f64, signed: bool, rng: &mut StdRng) -> Graph {
    if n < 2 {
        return Graph::empty(n);
    }
    let p = (mean_degree / (n as f64 - 1.0)).min(1.0);
    // Geometric skipping: expected O(m) instead of O(n²).
    let ln_q = (1.0 - p).ln();
    let total_pairs = n * (n - 1) / 2;
    let expected = p * total_pairs as f64;
    let mut g = Graph::with_edge_capacity(n, (expected + 4.0 * expected.sqrt()) as usize);
    let mut pairs = PairWalk::new(n);
    let mut idx: i64 = -1;
    loop {
        let r: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let skip = if p >= 1.0 {
            1
        } else {
            1 + (r.ln() / ln_q).floor() as i64
        };
        idx += skip.max(1);
        if idx as usize >= total_pairs {
            break;
        }
        let (u, v) = pairs.pair(idx as usize);
        let w = if signed {
            if rng.gen::<bool>() {
                1.0
            } else {
                -1.0
            }
        } else {
            1.0
        };
        // audit:allow(panic-path): the row walk yields in-range pairs u < v and ±1 weights are finite, so add_edge cannot fail
        g.add_edge(u, v, w).expect("generated edges are valid");
    }
    g
}

/// The pairs `(u, v)` with `u < v` of `n` vertices in lexicographic
/// order, looked up by linear index. The generator's indices only grow,
/// so the row `u` an index falls in is walked forward, O(n) over a whole
/// graph instead of a search per edge.
#[derive(Debug)]
struct PairWalk {
    n: usize,
    /// Row `u` holds the indices `row_start..row_end`.
    u: usize,
    row_start: usize,
    row_end: usize,
}

impl PairWalk {
    fn new(n: usize) -> PairWalk {
        PairWalk {
            n,
            u: 0,
            row_start: 0,
            row_end: n - 1,
        }
    }

    /// The `idx`-th pair; `idx` must not decrease between calls and must
    /// stay below `n(n−1)/2`.
    fn pair(&mut self, idx: usize) -> (usize, usize) {
        while idx >= self.row_end {
            self.u += 1;
            self.row_start = self.row_end;
            self.row_end += self.n - 1 - self.u;
        }
        (self.u, self.u + 1 + (idx - self.row_start))
    }
}

/// Map a linear index to the `idx`-th pair `(u, v)` with `u < v` in
/// lexicographic order by a binary search over the rows: the reference
/// [`PairWalk`] is pinned against.
#[cfg(test)]
fn pair_from_index(idx: usize, n: usize) -> (usize, usize) {
    let mut lo = 0usize;
    let mut hi = n - 1;
    let row_start = |u: usize| u * (2 * n - u - 1) / 2;
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if row_start(mid) <= idx {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    let u = lo;
    let v = u + 1 + (idx - row_start(u));
    (u, v)
}

/// A `rows × cols` torus (mean degree 4) with unit or ±1 weights. An
/// even×even grid is chosen whenever `n` admits one, which makes the
/// unit-weight torus bipartite: the optimal cut then equals the edge count
/// (the Gset G48–G50 property). Leftover vertices stay isolated and do not
/// affect the cut.
fn toroidal_graph(n: usize, signed: bool, rng: &mut StdRng) -> Graph {
    let (rows, cols) = torus_grid(n);
    let mut g = Graph::empty(n.max(rows * cols));
    for r in 0..rows {
        for c in 0..cols {
            let v = r * cols + c;
            let right = r * cols + (c + 1) % cols;
            let down = ((r + 1) % rows) * cols + c;
            let mut weight = || {
                if !signed || rng.gen::<bool>() {
                    1.0
                } else {
                    -1.0
                }
            };
            let w1 = weight();
            let w2 = weight();
            if v != right {
                // audit:allow(panic-path): torus neighbours are in-range, the v != right guard rules out self-loops, and ±1 weights are finite
                g.add_edge(v, right, w1).expect("torus edges valid");
            }
            if v != down {
                // audit:allow(panic-path): same torus-construction invariant as the edge above
                g.add_edge(v, down, w2).expect("torus edges valid");
            }
        }
    }
    g
}

/// Pick torus dimensions for `n` vertices: prefer an even×even factor pair
/// near √n (bipartite torus), falling back to the floor-square grid.
fn torus_grid(n: usize) -> (usize, usize) {
    let side = ((n as f64).sqrt().floor() as usize).max(2);
    let mut best: Option<(usize, usize)> = None;
    for rows in (2..=side).rev() {
        if rows % 2 != 0 || !n.is_multiple_of(rows) {
            continue;
        }
        let cols = n / rows;
        if cols.is_multiple_of(2) && cols >= 2 {
            best = Some((rows, cols));
            break;
        }
    }
    best.unwrap_or((side, (n / side).max(2)))
}

/// Torus plus a sparse random perfect-matching overlay, emulating the
/// "almost planar" Gset graphs.
fn almost_planar_graph(n: usize, rng: &mut StdRng) -> Graph {
    let mut g = toroidal_graph(n, true, rng);
    let n = g.vertex_count();
    let mut perm: Vec<usize> = (0..n).collect();
    // Fisher–Yates shuffle.
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    for chunk in perm.chunks_exact(2) {
        let (u, v) = (chunk[0], chunk[1]);
        if u != v {
            let w = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            // audit:allow(panic-path): u and v come from a permutation of 0..n (in-range, distinct by the guard above) and ±1 weights are finite
            g.add_edge(u, v, w).expect("matching edges valid");
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_per_seed() {
        let cfg = GeneratorConfig::new(100, 42);
        assert_eq!(cfg.generate(), cfg.generate());
        let other = GeneratorConfig::new(100, 43).generate();
        assert_ne!(cfg.generate(), other);
    }

    #[test]
    fn random_unit_weights_are_all_one() {
        let g = GeneratorConfig::new(200, 1)
            .with_family(GsetFamily::RandomUnit)
            .generate();
        assert!(g.edges().iter().all(|&(_, _, w)| w == 1.0));
    }

    #[test]
    fn random_signed_has_both_signs() {
        let g = GeneratorConfig::new(300, 2).generate();
        let pos = g.edges().iter().filter(|&&(_, _, w)| w == 1.0).count();
        let neg = g.edges().iter().filter(|&&(_, _, w)| w == -1.0).count();
        assert!(pos > 0 && neg > 0);
        assert_eq!(pos + neg, g.edge_count());
    }

    #[test]
    fn mean_degree_is_close_to_target() {
        let g = GeneratorConfig::new(2000, 3)
            .with_mean_degree(10.0)
            .generate();
        let d = g.mean_degree();
        assert!((d - 10.0).abs() < 1.5, "mean degree {d} too far from 10");
    }

    #[test]
    fn torus_has_degree_four() {
        let g = GeneratorConfig::new(100, 4)
            .with_family(GsetFamily::ToroidalSigned)
            .generate();
        // Interior structure: every used vertex has degree 4 on a 10×10 torus.
        let mut degrees = [0; 100];
        for &(u, v, _) in g.edges() {
            degrees[u] += 1;
            degrees[v] += 1;
        }
        assert_eq!(degrees, [4; 100]);
    }

    #[test]
    fn almost_planar_increases_degree() {
        let torus = GeneratorConfig::new(100, 5)
            .with_family(GsetFamily::ToroidalSigned)
            .generate();
        let ap = GeneratorConfig::new(100, 5)
            .with_family(GsetFamily::AlmostPlanar)
            .generate();
        assert!(ap.edge_count() > torus.edge_count());
    }

    #[test]
    fn pair_from_index_enumerates_all_pairs() {
        let n = 7;
        let mut seen = std::collections::BTreeSet::new();
        for idx in 0..(n * (n - 1) / 2) {
            let (u, v) = pair_from_index(idx, n);
            assert!(u < v && v < n, "idx={idx} gave ({u},{v})");
            assert!(seen.insert((u, v)), "duplicate pair at idx={idx}");
        }
        assert_eq!(seen.len(), n * (n - 1) / 2);
    }

    #[test]
    fn pair_walk_matches_the_binary_search() {
        for n in 2..40 {
            let total = n * (n - 1) / 2;
            // Every index, and a sparse walk that skips whole rows.
            for stride in [1, 3, n + 2] {
                let mut walk = PairWalk::new(n);
                for idx in (0..total).step_by(stride) {
                    assert_eq!(walk.pair(idx), pair_from_index(idx, n), "n={n} idx={idx}");
                }
            }
        }
    }

    #[test]
    fn tiny_graphs_do_not_panic() {
        for family in GsetFamily::all() {
            let g = GeneratorConfig::new(5, 9).with_family(family).generate();
            assert!(g.vertex_count() >= 4);
        }
    }
}
