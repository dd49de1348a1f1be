//! Spin states, spin vectors and flip masks.
//!
//! The paper's incremental-E transformation (Sec. 3.2) is built on three
//! derived vectors: the flip mask `σ_f`, the *changed* vector
//! `σ_c = σ_new ∘ σ_f` and the *rest* vector `σ_r = σ_new ∘ (1 − σ_f)`.
//! [`SpinVector`] and [`FlipMask`] provide exactly these operations.

use std::fmt;

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A single Ising spin, `+1` or `-1`.
///
/// # Examples
///
/// ```
/// use fecim_ising::Spin;
/// let up = Spin::Up;
/// assert_eq!(up.value(), 1);
/// assert_eq!(up.flipped(), Spin::Down);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Spin {
    /// Spin value `+1`.
    Up,
    /// Spin value `-1`.
    Down,
}

impl Spin {
    /// Numeric value of the spin: `+1` for [`Spin::Up`], `-1` for [`Spin::Down`].
    pub fn value(self) -> i8 {
        match self {
            Spin::Up => 1,
            Spin::Down => -1,
        }
    }

    /// The opposite spin.
    pub fn flipped(self) -> Spin {
        match self {
            Spin::Up => Spin::Down,
            Spin::Down => Spin::Up,
        }
    }

    /// Build a spin from any signed value; positive maps to [`Spin::Up`].
    ///
    /// # Panics
    ///
    /// Panics if `v == 0`, which is not a valid Ising spin.
    fn from_sign(v: i64) -> Spin {
        assert!(v != 0, "spin value must be nonzero");
        if v > 0 {
            Spin::Up
        } else {
            Spin::Down
        }
    }
}

impl fmt::Display for Spin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Spin::Up => write!(f, "+1"),
            Spin::Down => write!(f, "-1"),
        }
    }
}

/// A configuration of `n` Ising spins.
///
/// Internally stored as `i8` values in `{-1, +1}` so that energy kernels can
/// work directly on signed arithmetic without branching.
///
/// # Examples
///
/// ```
/// use fecim_ising::SpinVector;
/// let s = SpinVector::all_up(4);
/// assert_eq!(s.len(), 4);
/// assert!(s.iter().all(|x| x == 1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SpinVector {
    spins: Vec<i8>,
}

impl SpinVector {
    /// All spins up (`+1`).
    // audit:allow(dead-pub): test seam: the unit, integration and doc tests start from the all-up state
    pub fn all_up(n: usize) -> SpinVector {
        SpinVector { spins: vec![1; n] }
    }

    /// Uniformly random configuration drawn from `rng`.
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> SpinVector {
        let spins = (0..n)
            .map(|_| if rng.gen::<bool>() { 1 } else { -1 })
            .collect();
        SpinVector { spins }
    }

    /// Build from raw signed values.
    ///
    /// # Panics
    ///
    /// Panics if any element is not `-1` or `+1`.
    pub fn from_signs(values: &[i8]) -> SpinVector {
        assert!(
            values.iter().all(|&v| v == 1 || v == -1),
            "spin values must be -1 or +1"
        );
        SpinVector {
            spins: values.to_vec(),
        }
    }

    /// Build from QUBO binaries via `σ_i = 1 − 2 x_i`.
    // audit:allow(dead-pub): test seam: the COP and QUBO tests enumerate binary assignments through it
    pub fn from_binaries(bits: &[u8]) -> SpinVector {
        SpinVector {
            spins: bits.iter().map(|&b| if b == 0 { 1 } else { -1 }).collect(),
        }
    }

    /// Convert to QUBO binaries via `x_i = (1 − σ_i)/2`.
    pub fn to_binaries(&self) -> Vec<u8> {
        self.spins
            .iter()
            .map(|&s| if s > 0 { 0 } else { 1 })
            .collect()
    }

    /// Number of spins.
    pub fn len(&self) -> usize {
        self.spins.len()
    }

    /// `true` when the configuration holds no spins.
    pub fn is_empty(&self) -> bool {
        self.spins.is_empty()
    }

    /// Raw `i8` view of the spins (each `-1` or `+1`).
    pub fn as_slice(&self) -> &[i8] {
        &self.spins
    }

    /// Spin at `i` as a signed value.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> i8 {
        self.spins[i]
    }

    /// Spin at `i` as a [`Spin`].
    pub fn spin(&self, i: usize) -> Spin {
        Spin::from_sign(self.spins[i] as i64)
    }

    /// Set spin `i` to `value` (`-1` or `+1`).
    ///
    /// # Panics
    ///
    /// Panics if `value` is not `-1` or `+1`, or `i` is out of bounds.
    pub fn set(&mut self, i: usize, value: i8) {
        assert!(value == 1 || value == -1, "spin values must be -1 or +1");
        self.spins[i] = value;
    }

    /// Flip spin `i` in place.
    pub fn flip(&mut self, i: usize) {
        self.spins[i] = -self.spins[i];
    }

    /// A copy with the spins in `mask` flipped: `σ_new = σ ∘ (1 − 2 σ_f)`
    /// (paper Alg. 1, line 4).
    pub fn flipped_by(&self, mask: &FlipMask) -> SpinVector {
        let mut out = self.clone();
        for &i in mask.indices() {
            out.flip(i);
        }
        out
    }

    /// The changed-spin vector `σ_c = σ_new ∘ σ_f`: keeps the *new* values of
    /// flipped spins, zero elsewhere (paper Eq. 7). Entries are in
    /// `{-1, 0, +1}`.
    pub fn changed_vector(&self, mask: &FlipMask) -> Vec<i8> {
        let mut out = vec![0i8; self.len()];
        for &i in mask.indices() {
            out[i] = self.spins[i];
        }
        out
    }

    /// The rest-spin vector `σ_r = σ_new ∘ (1 − σ_f)`: keeps unflipped spin
    /// values, zero at flipped positions (paper Eq. 8).
    pub fn rest_vector(&self, mask: &FlipMask) -> Vec<i8> {
        let mut out = self.spins.clone();
        for &i in mask.indices() {
            out[i] = 0;
        }
        out
    }

    /// Iterate over the spins as `i8` values.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, i8>> {
        self.spins.iter().copied()
    }
}

impl FromIterator<i8> for SpinVector {
    fn from_iter<T: IntoIterator<Item = i8>>(iter: T) -> Self {
        SpinVector::from_signs(&iter.into_iter().collect::<Vec<_>>())
    }
}

impl fmt::Display for SpinVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (idx, s) in self.spins.iter().enumerate() {
            if idx > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}", if *s > 0 { '+' } else { '-' })?;
        }
        write!(f, "]")
    }
}

/// The set `F` of spins flipped within one annealing iteration (the logical
/// vector `σ_f` of the paper, stored sparsely as sorted unique indices).
///
/// # Examples
///
/// ```
/// use fecim_ising::{FlipMask, SpinVector};
/// let mask = FlipMask::new(vec![2, 0], 4);
/// assert_eq!(mask.indices(), &[0, 2]);
/// let s = SpinVector::all_up(4);
/// let s_new = s.flipped_by(&mask);
/// assert_eq!(s_new.as_slice(), &[-1, 1, -1, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlipMask {
    indices: Vec<usize>,
    n: usize,
}

impl FlipMask {
    /// Build a mask over `n` spins flipping the given `indices`.
    ///
    /// Indices are deduplicated and sorted.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= n`.
    pub fn new(mut indices: Vec<usize>, n: usize) -> FlipMask {
        indices.sort_unstable();
        indices.dedup();
        assert!(
            indices.last().is_none_or(|&i| i < n),
            "flip index out of range"
        );
        FlipMask { indices, n }
    }

    /// A mask flipping a single spin.
    pub fn single(i: usize, n: usize) -> FlipMask {
        FlipMask::new(vec![i], n)
    }

    /// Draw `t` distinct flip positions uniformly at random (Alg. 1, line 3).
    ///
    /// # Panics
    ///
    /// Panics if `t > n`.
    pub fn random<R: Rng + ?Sized>(t: usize, n: usize, rng: &mut R) -> FlipMask {
        let mut mask = FlipMask {
            indices: Vec::with_capacity(t),
            n,
        };
        mask.redraw(t, rng);
        mask
    }

    /// Replace the flip set in place with `t` fresh distinct positions,
    /// reusing the allocation: the same draws from `rng` and the same
    /// mask as [`FlipMask::random`] over this mask's dimension.
    ///
    /// # Panics
    ///
    /// Panics if `t` exceeds the dimension.
    pub fn redraw<R: Rng + ?Sized>(&mut self, t: usize, rng: &mut R) {
        let n = self.n;
        assert!(t <= n, "cannot flip more spins than exist");
        // Floyd's algorithm for a uniform t-subset without allocation of 0..n.
        let chosen = &mut self.indices;
        chosen.clear();
        for j in (n - t)..n {
            let r = rng.gen_range(0..=j);
            if chosen.contains(&r) {
                chosen.push(j);
            } else {
                chosen.push(r);
            }
        }
        // Floyd's draws are already distinct, so sorting is all `new` adds.
        chosen.sort_unstable();
    }

    /// Sorted flip indices (the support of `σ_f`).
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Number of spins the mask refers to (the dimension `n`).
    pub fn dimension(&self) -> usize {
        self.n
    }

    /// `true` when no spin is flipped.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// `true` when spin `i` is flipped.
    pub fn contains(&self, i: usize) -> bool {
        self.indices.binary_search(&i).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn spin_value_and_flip() {
        assert_eq!(Spin::Up.value(), 1);
        assert_eq!(Spin::Down.value(), -1);
        assert_eq!(Spin::Up.flipped(), Spin::Down);
        assert_eq!(Spin::Down.flipped(), Spin::Up);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn spin_from_zero_panics() {
        let _ = Spin::from_sign(0);
    }

    #[test]
    fn vector_constructors() {
        assert_eq!(SpinVector::all_up(3).as_slice(), &[1, 1, 1]);
        let v = SpinVector::from_signs(&[1, -1, 1]);
        assert_eq!(v.get(1), -1);
    }

    #[test]
    fn vector_random_is_valid_and_seeded() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = SpinVector::random(100, &mut rng);
        assert!(a.iter().all(|s| s == 1 || s == -1));
        let mut rng2 = StdRng::seed_from_u64(7);
        let b = SpinVector::random(100, &mut rng2);
        assert_eq!(a, b, "same seed must give same configuration");
    }

    #[test]
    fn binaries_roundtrip() {
        let v = SpinVector::from_signs(&[1, -1, -1, 1]);
        assert_eq!(SpinVector::from_binaries(&v.to_binaries()), v);
    }

    #[test]
    fn flip_and_flip_all() {
        let mut v = SpinVector::all_up(4);
        v.flip(2);
        assert_eq!(v.as_slice(), &[1, 1, -1, 1]);
    }

    #[test]
    fn mask_sorts_and_dedups() {
        let m = FlipMask::new(vec![3, 1, 3], 5);
        assert_eq!(m.indices(), &[1, 3]);
        assert_eq!(m.indices().len(), 2);
        assert!(m.contains(3));
        assert!(!m.contains(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn mask_rejects_out_of_range() {
        let _ = FlipMask::new(vec![5], 5);
    }

    #[test]
    fn mask_random_has_t_distinct() {
        let mut rng = StdRng::seed_from_u64(42);
        for t in 0..=10 {
            let m = FlipMask::random(t, 10, &mut rng);
            assert_eq!(m.indices().len(), t);
        }
    }

    #[test]
    fn redrawn_mask_matches_fresh_masks_and_rng_stream() {
        let mut fresh_rng = StdRng::seed_from_u64(17);
        let mut reused_rng = StdRng::seed_from_u64(17);
        let mut reused = FlipMask::random(0, 40, &mut reused_rng);
        for k in 0..200 {
            let t = [2, 1, 3, 40, 0][k % 5];
            let fresh = FlipMask::random(t, 40, &mut fresh_rng);
            reused.redraw(t, &mut reused_rng);
            assert_eq!(reused, fresh, "draw {k}");
            assert_eq!(reused, FlipMask::new(reused.indices().to_vec(), 40));
        }
        assert_eq!(fresh_rng.next_u64(), reused_rng.next_u64());
    }

    #[test]
    fn changed_and_rest_vectors_partition_sigma_new() {
        let mut rng = StdRng::seed_from_u64(3);
        let s = SpinVector::random(8, &mut rng);
        let mask = FlipMask::new(vec![0, 4, 7], 8);
        let s_new = s.flipped_by(&mask);
        let c = s_new.changed_vector(&mask);
        let r = s_new.rest_vector(&mask);
        // σ_c + σ_r == σ_new elementwise, supports are disjoint.
        for i in 0..8 {
            assert_eq!(c[i] + r[i], s_new.get(i));
            assert!(c[i] == 0 || r[i] == 0);
        }
        // σ_c is the *new* (i.e. flipped) value at flipped positions.
        for &i in mask.indices() {
            assert_eq!(c[i], -s.get(i));
        }
    }

    #[test]
    fn flipped_by_is_involution() {
        let mut rng = StdRng::seed_from_u64(9);
        let s = SpinVector::random(16, &mut rng);
        let mask = FlipMask::random(5, 16, &mut rng);
        assert_eq!(s.flipped_by(&mask).flipped_by(&mask), s);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Spin::Up.to_string(), "+1");
        let v = SpinVector::from_signs(&[1, -1]);
        assert_eq!(v.to_string(), "[+ -]");
    }
}
