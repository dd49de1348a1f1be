//! qbsolv-style decomposition of beyond-capacity QUBOs.
//!
//! The physical array bounds how many spins one solve can hold, but a
//! large QUBO restricted to a *window* of variables — with every
//! out-of-window variable clamped at its current value — is again a
//! (smaller) QUBO: the clamped cross terms fold into the window's
//! linear coefficients and a constant offset. [`SubQubo::extract`]
//! performs that clamping exactly, [`impact_windows`] picks window
//! contents in impact order (the variables whose single flip moves the
//! objective most, the qbsolv selection rule), and
//! [`SubQubo::write_back`] stitches a sub-solution into the global
//! assignment. Iterating extract → solve → write-back over all windows,
//! warm-starting each round from the last, is the campaign loop of
//! `fecim-serve`.
//!
//! All functions take assignments in the workspace's `±1` spin
//! convention (`x_i = (1 − σ_i)/2`, so `σ = +1 ↔ x = 0`), matching
//! [`SpinVector`](crate::SpinVector) and solver warm starts.

use crate::error::IsingError;
use crate::qubo::Qubo;

/// A window of a larger QUBO with every out-of-window variable clamped
/// at its current value — itself an exactly-equivalent smaller QUBO.
///
/// For any assignment of the window variables, `sub.qubo().evaluate(x)
/// + sub.offset()` equals the full objective with the out-of-window
/// variables held at the clamping assignment (pinned by the
/// `clamping_is_exact` test).
#[derive(Debug, Clone, PartialEq)]
pub struct SubQubo {
    window: Vec<usize>,
    qubo: Qubo,
    offset: f64,
}

impl SubQubo {
    /// Clamp `qubo` to `window`: terms with both endpoints inside the
    /// window survive unchanged, cross terms fold into the window's
    /// linear coefficients at the clamped variable's binary value, and
    /// fully-clamped terms accumulate into [`SubQubo::offset`].
    ///
    /// `spins` is the full current assignment in `±1` form; only its
    /// out-of-window entries matter.
    ///
    /// # Errors
    ///
    /// [`IsingError::DimensionMismatch`] when `spins.len()` differs from
    /// the QUBO dimension; [`IsingError::InvalidProblem`] for an empty
    /// window, an out-of-range or duplicate window index, or a spin
    /// entry outside `±1`.
    pub fn extract(qubo: &Qubo, window: &[usize], spins: &[i8]) -> Result<SubQubo, IsingError> {
        let n = qubo.dimension();
        check_spins(spins, n)?;
        if window.is_empty() {
            return Err(IsingError::InvalidProblem(
                "decomposition window must contain at least one variable".into(),
            ));
        }
        let mut pos = vec![usize::MAX; n];
        for (p, &g) in window.iter().enumerate() {
            if g >= n {
                return Err(IsingError::InvalidProblem(format!(
                    "window variable {g} out of range for {n} variables"
                )));
            }
            if pos[g] != usize::MAX {
                return Err(IsingError::InvalidProblem(format!(
                    "window lists variable {g} twice"
                )));
            }
            pos[g] = p;
        }
        let x = |k: usize| (1.0 - spins[k] as f64) / 2.0;
        let mut sub = Qubo::new(window.len());
        let mut offset = 0.0;
        for &(i, j, q) in qubo.entries() {
            match (pos[i], pos[j]) {
                (pi, pj) if pi != usize::MAX && pj != usize::MAX => sub.add_term(pi, pj, q),
                (pi, _) if pi != usize::MAX => {
                    let c = q * x(j);
                    if c != 0.0 {
                        sub.add_term(pi, pi, c);
                    }
                }
                (_, pj) if pj != usize::MAX => {
                    let c = q * x(i);
                    if c != 0.0 {
                        sub.add_term(pj, pj, c);
                    }
                }
                // x·x = x for binaries, so this also covers clamped
                // diagonal (linear) terms.
                _ => offset += q * x(i) * x(j),
            }
        }
        Ok(SubQubo {
            window: window.to_vec(),
            qubo: sub,
            offset,
        })
    }

    /// Global indices of the window, in sub-variable order: sub-variable
    /// `p` is global variable `self.window()[p]`.
    pub fn window(&self) -> &[usize] {
        &self.window
    }

    /// The clamped sub-QUBO over `window().len()` variables.
    pub fn qubo(&self) -> &Qubo {
        &self.qubo
    }

    /// Constant contribution of the fully-clamped terms: add to any
    /// sub-objective to recover the full objective at the clamping
    /// assignment.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Number of sub-problem variables.
    pub fn dimension(&self) -> usize {
        self.window.len()
    }

    /// The sub-QUBO as a full square coefficient matrix (upper
    /// triangular, diagonal = linear terms) — the raw-payload wire form
    /// of `fecim::ProblemSpec::Qubo`.
    pub fn to_matrix(&self) -> Vec<Vec<f64>> {
        let d = self.dimension();
        let mut m = vec![vec![0.0; d]; d];
        for &(i, j, q) in self.qubo.entries() {
            m[i][j] += q;
        }
        m
    }

    /// Stitch a sub-solution back into the global assignment:
    /// `spins[window[p]] = sub_spins[p]` for every sub-variable.
    ///
    /// # Panics
    ///
    /// Panics when `sub_spins.len()` differs from the window size or
    /// `spins` is shorter than the parent QUBO.
    pub fn write_back(&self, spins: &mut [i8], sub_spins: &[i8]) {
        assert_eq!(
            sub_spins.len(),
            self.window.len(),
            "sub-solution must cover the window"
        );
        for (&g, &s) in self.window.iter().zip(sub_spins) {
            spins[g] = s;
        }
    }
}

/// Impact-ordered window selection (the qbsolv rule): rank variables by
/// the magnitude of the objective change their single flip would cause
/// under the current assignment, then cut the ranking into windows of
/// `window` variables, consecutive windows sharing `overlap` variables
/// of the ranking. Every variable lands in at least one window; the
/// last window may be smaller. Each returned window is sorted by global
/// index (ascending), and the whole selection is a deterministic
/// function of `(qubo, spins)` — ties rank lower-indexed variables
/// first.
///
/// # Errors
///
/// [`IsingError::DimensionMismatch`] when `spins.len()` differs from
/// the QUBO dimension; [`IsingError::InvalidProblem`] when `window` is
/// zero, `overlap >= window`, or a spin entry is outside `±1`.
pub fn impact_windows(
    qubo: &Qubo,
    spins: &[i8],
    window: usize,
    overlap: usize,
) -> Result<Vec<Vec<usize>>, IsingError> {
    let n = qubo.dimension();
    check_spins(spins, n)?;
    if window == 0 {
        return Err(IsingError::InvalidProblem(
            "window size must be at least one variable".into(),
        ));
    }
    if overlap >= window {
        return Err(IsingError::InvalidProblem(format!(
            "overlap {overlap} must be smaller than the window size {window}"
        )));
    }
    if window >= n {
        return Ok(vec![(0..n).collect()]);
    }

    // One pass over the terms: flipping x_k changes each term touching k
    // by q·(x_k' − x_k)·x_other (and q·(x_k' − x_k) on the diagonal).
    let x = |k: usize| (1.0 - spins[k] as f64) / 2.0;
    let mut delta = vec![0.0f64; n];
    for &(i, j, q) in qubo.entries() {
        if i == j {
            delta[i] += q * (1.0 - 2.0 * x(i));
        } else {
            delta[i] += q * (1.0 - 2.0 * x(i)) * x(j);
            delta[j] += q * (1.0 - 2.0 * x(j)) * x(i);
        }
    }
    let mut ranked: Vec<usize> = (0..n).collect();
    // Impact descending, index ascending on ties — total_cmp keeps the
    // order total and deterministic even for degenerate (non-finite)
    // impact sums.
    ranked.sort_by(|&a, &b| delta[b].abs().total_cmp(&delta[a].abs()).then(a.cmp(&b)));

    let stride = window - overlap;
    let mut windows = Vec::new();
    let mut start = 0usize;
    loop {
        let end = (start + window).min(n);
        let mut chunk: Vec<usize> = ranked[start..end].to_vec();
        chunk.sort_unstable();
        windows.push(chunk);
        if end == n {
            return Ok(windows);
        }
        start += stride;
    }
}

fn check_spins(spins: &[i8], n: usize) -> Result<(), IsingError> {
    if spins.len() != n {
        return Err(IsingError::DimensionMismatch {
            expected: n,
            found: spins.len(),
        });
    }
    if spins.iter().any(|&s| s != 1 && s != -1) {
        return Err(IsingError::InvalidProblem(
            "assignment entries must be -1 or +1".into(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_qubo(n: usize, seed: u64) -> Qubo {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut q = Qubo::new(n);
        for i in 0..n {
            for j in i..n {
                if rng.gen::<f64>() < 0.5 {
                    q.add_term(i, j, rng.gen_range(-2.0..2.0));
                }
            }
        }
        q
    }

    fn random_spins(n: usize, seed: u64) -> Vec<i8> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
            .collect()
    }

    /// Objective `xᵀQx` of a full assignment given in `±1` spin form.
    ///
    /// # Errors
    ///
    /// [`IsingError::DimensionMismatch`] on a length mismatch;
    /// [`IsingError::InvalidProblem`] for entries outside `±1`.
    fn spin_objective(qubo: &Qubo, spins: &[i8]) -> Result<f64, IsingError> {
        check_spins(spins, qubo.dimension())?;
        let x: Vec<u8> = spins.iter().map(|&s| u8::from(s != 1)).collect();
        Ok(qubo.evaluate(&x))
    }

    #[test]
    fn clamping_is_exact() {
        // For every window assignment, sub objective + offset must equal
        // the full objective with out-of-window variables clamped.
        let q = random_qubo(8, 3);
        let spins = random_spins(8, 4);
        let window = [1usize, 4, 6];
        let sub = SubQubo::extract(&q, &window, &spins).unwrap();
        assert_eq!(sub.dimension(), 3);
        for bits in 0u32..8 {
            let sub_spins: Vec<i8> = (0..3)
                .map(|p| if bits >> p & 1 == 1 { -1 } else { 1 })
                .collect();
            let mut full = spins.clone();
            sub.write_back(&mut full, &sub_spins);
            let direct = spin_objective(&q, &full).unwrap();
            let via_sub = spin_objective(sub.qubo(), &sub_spins).unwrap() + sub.offset();
            assert!(
                (direct - via_sub).abs() < 1e-9,
                "bits={bits:b}: direct={direct} sub={via_sub}"
            );
        }
    }

    #[test]
    fn sub_matrix_round_trips_through_from_matrix() {
        let q = random_qubo(10, 7);
        let spins = random_spins(10, 8);
        let sub = SubQubo::extract(&q, &[0, 3, 5, 9], &spins).unwrap();
        let rebuilt = Qubo::from_matrix(&sub.to_matrix()).unwrap();
        for bits in 0u32..16 {
            let x: Vec<u8> = (0..4).map(|p| (bits >> p & 1) as u8).collect();
            assert!(
                (rebuilt.evaluate(&x) - sub.qubo().evaluate(&x)).abs() < 1e-12,
                "bits={bits:b}"
            );
        }
    }

    #[test]
    fn impact_windows_cover_all_variables_and_respect_overlap() {
        let q = random_qubo(20, 11);
        let spins = random_spins(20, 12);
        let windows = impact_windows(&q, &spins, 6, 2).unwrap();
        let mut seen = [false; 20];
        for w in &windows {
            assert!(w.len() <= 6);
            assert!(w.windows(2).all(|p| p[0] < p[1]), "sorted ascending");
            for &g in w {
                seen[g] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every variable windowed");
        // Consecutive windows share exactly `overlap` ranking slots.
        assert_eq!(windows.len(), 5, "(20 - 6).div_ceil(4) + 1");
    }

    #[test]
    fn impact_windows_rank_by_flip_gain() {
        // x2's flip moves the objective by 10, x0's by 1, x1's by 0 —
        // the first window must take the high-impact variables.
        let mut q = Qubo::new(4);
        q.add_term(2, 2, 10.0);
        q.add_term(0, 0, 1.0);
        q.add_term(3, 3, -3.0);
        let windows = impact_windows(&q, &[1, 1, 1, 1], 2, 0).unwrap();
        assert_eq!(windows[0], vec![2, 3], "highest |impact| first, sorted");
    }

    #[test]
    fn oversized_window_collapses_to_one_window() {
        let q = random_qubo(5, 1);
        let windows = impact_windows(&q, &[1; 5], 8, 3).unwrap();
        assert_eq!(windows, vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn selection_is_deterministic() {
        let q = random_qubo(30, 21);
        let spins = random_spins(30, 22);
        let a = impact_windows(&q, &spins, 7, 3).unwrap();
        let b = impact_windows(&q, &spins, 7, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_inputs_error() {
        let q = random_qubo(6, 2);
        let spins = random_spins(6, 2);
        assert!(matches!(
            SubQubo::extract(&q, &[], &spins),
            Err(IsingError::InvalidProblem(_))
        ));
        assert!(matches!(
            SubQubo::extract(&q, &[0, 6], &spins),
            Err(IsingError::InvalidProblem(_))
        ));
        assert!(matches!(
            SubQubo::extract(&q, &[0, 0], &spins),
            Err(IsingError::InvalidProblem(_))
        ));
        assert!(matches!(
            SubQubo::extract(&q, &[0], &spins[..4]),
            Err(IsingError::DimensionMismatch { .. })
        ));
        assert!(matches!(
            SubQubo::extract(&q, &[0], &[0, 1, 1, 1, 1, 1]),
            Err(IsingError::InvalidProblem(_))
        ));
        assert!(matches!(
            impact_windows(&q, &spins, 0, 0),
            Err(IsingError::InvalidProblem(_))
        ));
        assert!(matches!(
            impact_windows(&q, &spins, 3, 3),
            Err(IsingError::InvalidProblem(_))
        ));
    }
}
