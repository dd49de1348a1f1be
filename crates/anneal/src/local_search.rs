//! Greedy 1-flip local search and multi-start refinement.
//!
//! Used to (i) compute reference near-optimal cut values for the success
//! criterion of the paper's Fig. 10 (target = 90 % of the optimum) and
//! (ii) serve as a sanity baseline for the annealers.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

use fecim_ising::{Coupling, CsrCoupling, FlipMask, LocalFieldState, SpinVector};

/// Run steepest-descent 1-flip local search until no improving flip
/// exists. Returns the local optimum and its exact energy.
///
/// Complexity: each sweep is `O(n)` over cached local fields; flips update
/// fields in `O(deg)`.
pub fn local_search(coupling: &CsrCoupling, start: SpinVector) -> (SpinVector, f64) {
    let n = coupling.dimension();
    let mut state = LocalFieldState::new(coupling, start);
    loop {
        // ΔE of flipping i alone is −4·σ_i·l_i; pick the most negative.
        let mut best_gain = -1e-12;
        let mut best_idx = None;
        for i in 0..n {
            let gain = -4.0 * state.spins().get(i) as f64 * state.field(i);
            if gain < best_gain {
                best_gain = gain;
                best_idx = Some(i);
            }
        }
        match best_idx {
            Some(i) => {
                state.apply(&FlipMask::single(i, n));
            }
            None => break,
        }
    }
    let energy = state.energy();
    (state.spins().clone(), energy)
}

/// Multi-start local search: `starts` random initializations, best local
/// optimum kept. Deterministic per seed at any thread count: the starts
/// are drawn in order from one RNG, searched in parallel, and the lowest
/// energy wins with ties going to the earliest start.
///
/// # Panics
///
/// Panics if `starts == 0`.
pub fn multi_start_local_search(
    coupling: &CsrCoupling,
    starts: usize,
    seed: u64,
) -> (SpinVector, f64) {
    assert!(starts > 0, "need at least one start");
    let n = coupling.dimension();
    let mut rng = StdRng::seed_from_u64(seed);
    let initial: Vec<SpinVector> = (0..starts)
        .map(|_| SpinVector::random(n, &mut rng))
        .collect();
    let optima: Vec<(SpinVector, f64)> = initial
        .into_par_iter()
        .map(|start| local_search(coupling, start))
        .collect();
    optima
        .into_iter()
        .reduce(|best, next| if next.1 < best.1 { next } else { best })
        .unwrap_or_else(|| unreachable!("at least one start was searched"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fecim_ising::{CopProblem, MaxCut};
    use rand::Rng;

    fn ring(n: usize) -> (MaxCut, CsrCoupling) {
        let edges: Vec<(usize, usize, f64)> = (0..n).map(|i| (i, (i + 1) % n, 1.0)).collect();
        let mc = MaxCut::new(n, edges).unwrap();
        let j = mc.to_ising().unwrap().couplings().clone();
        (mc, j)
    }

    #[test]
    fn local_search_reaches_local_optimum() {
        let (_, j) = ring(20);
        let mut rng = StdRng::seed_from_u64(1);
        let start = SpinVector::random(20, &mut rng);
        let (spins, energy) = local_search(&j, start);
        // No single flip improves further.
        let state = LocalFieldState::new(&j, spins);
        for i in 0..20 {
            let gain = -4.0 * state.spins().get(i) as f64 * state.field(i);
            assert!(gain >= -1e-9, "flip {i} would still improve by {gain}");
        }
        assert!((state.energy() - energy).abs() < 1e-9);
    }

    #[test]
    fn multi_start_finds_ring_optimum() {
        let (mc, j) = ring(16);
        let (spins, energy) = multi_start_local_search(&j, 20, 3);
        let cut = mc.cut_from_energy(energy);
        assert_eq!(cut, mc.cut_value(&spins));
        assert!(cut >= 14.0, "cut={cut}, optimum 16");
    }

    #[test]
    fn multi_start_is_deterministic() {
        let (_, j) = ring(12);
        let a = multi_start_local_search(&j, 5, 7);
        let b = multi_start_local_search(&j, 5, 7);
        assert_eq!(a.1, b.1);
        assert_eq!(a.0, b.0);
    }

    #[test]
    fn more_starts_never_hurt() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut edges = Vec::new();
        for i in 0..30usize {
            for jx in (i + 1)..30 {
                if rng.gen::<f64>() < 0.2 {
                    edges.push((i, jx, if rng.gen::<bool>() { 1.0 } else { -1.0 }));
                }
            }
        }
        let mc = MaxCut::new(30, edges).unwrap();
        let j = mc.to_ising().unwrap().couplings().clone();
        let few = multi_start_local_search(&j, 2, 11).1;
        let many = multi_start_local_search(&j, 20, 11).1;
        assert!(many <= few + 1e-12);
    }
}
