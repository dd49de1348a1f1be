//! Spin-coupling matrices `J` (dense and sparse) and the Ising model.
//!
//! The paper works with the general quadratic form `E = σᵀJσ` (Eq. 2) where
//! `J` is symmetric. Linear (self-coupling) terms `h` are carried separately
//! here: the paper's `J_ii = h_i` shortcut does not contribute to `σᵀJσ`
//! (because `σ_i² = 1` makes diagonal terms constant), so the standard
//! *ancilla-spin embedding* is provided instead by
//! [`IsingModel::to_quadratic_only`].

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::IsingError;
use crate::spin::{FlipMask, SpinVector};

/// Read access to a symmetric coupling matrix, the contract shared by the
/// dense and sparse representations.
///
/// Implementations must guarantee symmetry (`get(i,j) == get(j,i)`, bit
/// for bit) and a zero diagonal, and visit each row's entries in
/// ascending column order. Consumers rely on both: row `j` is column
/// `j`, so a crossbar programs its column-major store straight from the
/// rows, and a column read can gather over a row. Every visit dispatches
/// statically; no code holds a `dyn Coupling`.
pub trait Coupling {
    /// Matrix dimension `n` (number of spins).
    fn dimension(&self) -> usize;

    /// Entry `J_ij`.
    fn get(&self, i: usize, j: usize) -> f64;

    /// Visit the nonzero entries `(j, J_ij)` of row `i`, ascending by `j`.
    fn for_each_in_row(&self, i: usize, f: impl FnMut(usize, f64));

    /// Number of stored nonzero couplings (each unordered pair counted once).
    fn coupling_count(&self) -> usize;

    /// Direct Ising energy `E = σᵀJσ` — the `O(n²)` computation the paper's
    /// incremental transformation avoids.
    ///
    /// # Panics
    ///
    /// Panics if `spins.len() != self.dimension()`.
    fn energy(&self, spins: &SpinVector) -> f64 {
        assert_eq!(spins.len(), self.dimension(), "dimension mismatch");
        let mut e = 0.0;
        for i in 0..self.dimension() {
            e += spins.get(i) as f64 * self.local_field(i, spins);
        }
        e
    }

    /// Local field `l_i = Σ_j J_ij σ_j` of spin `i`, summed in row order:
    /// the row sum [`Coupling::energy`] weights by `σ_i`.
    fn local_field(&self, i: usize, spins: &SpinVector) -> f64 {
        let mut acc = 0.0;
        self.for_each_in_row(i, |j, v| {
            acc += v * spins.get(j) as f64;
        });
        acc
    }

    /// Local field `l_i = Σ_j J_ij σ_j` for every spin.
    fn local_fields(&self, spins: &SpinVector) -> Vec<f64> {
        let n = self.dimension();
        assert_eq!(spins.len(), n, "dimension mismatch");
        (0..n).map(|i| self.local_field(i, spins)).collect()
    }

    /// The incremental-E bilinear form `σ_rᵀ J σ_c` (paper Eq. 9 without the
    /// factor 4), evaluated sparsely over the flip set: cost
    /// `O(|F| · row_nnz)`.
    fn incremental_form(&self, new_spins: &SpinVector, mask: &FlipMask) -> f64 {
        assert_eq!(new_spins.len(), self.dimension(), "dimension mismatch");
        // σ_rᵀ J σ_c = Σ_{j∈F} σ_new[j] · Σ_{i∉F} J_ij σ_new[i]
        let mut total = 0.0;
        for &j in mask.indices() {
            let sj = new_spins.get(j) as f64;
            let mut acc = 0.0;
            self.for_each_in_row(j, |i, v| {
                if !mask.contains(i) {
                    acc += v * new_spins.get(i) as f64;
                }
            });
            total += sj * acc;
        }
        total
    }

    /// Exact energy difference `ΔE = E(σ_new) − E(σ) = 4·σ_rᵀJσ_c`
    /// (paper Eq. 9), computed in `O(|F| · row_nnz)` instead of `O(n²)`.
    fn delta_energy(&self, new_spins: &SpinVector, mask: &FlipMask) -> f64 {
        4.0 * self.incremental_form(new_spins, mask)
    }
}

/// Dense symmetric coupling matrix with zero diagonal.
///
/// Storage is a full row-major `n×n` buffer; suited to the dense Gset-style
/// Max-Cut instances of the paper's evaluation and to crossbar mapping where
/// every `J_ij` occupies a physical cell group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseCoupling {
    n: usize,
    data: Vec<f64>,
}

impl DenseCoupling {
    /// Zero matrix of dimension `n`.
    // audit:allow(dead-pub): test seam: tiled_equivalence and the crossbar tests build dense references from it
    pub fn zeros(n: usize) -> DenseCoupling {
        DenseCoupling {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Build from a row-major `n×n` slice, validating symmetry, finiteness
    /// and a zero diagonal.
    ///
    /// # Errors
    ///
    /// [`IsingError::DimensionMismatch`] if `data.len() != n²`;
    /// [`IsingError::NotSymmetric`] / [`IsingError::NonFiniteCoupling`] on
    /// invalid entries. A nonzero diagonal is rejected as
    /// [`IsingError::InvalidProblem`].
    pub fn from_rows(n: usize, data: &[f64]) -> Result<DenseCoupling, IsingError> {
        if data.len() != n * n {
            return Err(IsingError::DimensionMismatch {
                expected: n * n,
                found: data.len(),
            });
        }
        for i in 0..n {
            for j in 0..n {
                let v = data[i * n + j];
                if !v.is_finite() {
                    return Err(IsingError::NonFiniteCoupling { row: i, col: j });
                }
                if (v - data[j * n + i]).abs() > 1e-12 {
                    return Err(IsingError::NotSymmetric { row: i, col: j });
                }
            }
            if data[i * n + i] != 0.0 {
                return Err(IsingError::InvalidProblem(format!(
                    "nonzero diagonal at {i}; carry linear terms in `h` instead"
                )));
            }
        }
        Ok(DenseCoupling {
            n,
            data: data.to_vec(),
        })
    }

    /// Set the symmetric pair `J_ij = J_ji = value`.
    ///
    /// # Panics
    ///
    /// Panics if `i == j` (diagonal must stay zero), if indices are out of
    /// range, or if `value` is not finite.
    pub fn set(&mut self, i: usize, j: usize, value: f64) {
        assert!(i != j, "diagonal couplings are not allowed");
        assert!(i < self.n && j < self.n, "index out of range");
        assert!(value.is_finite(), "coupling must be finite");
        self.data[i * self.n + j] = value;
        self.data[j * self.n + i] = value;
    }

    /// Add `value` to the symmetric pair `J_ij = J_ji`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`DenseCoupling::set`].
    pub fn add(&mut self, i: usize, j: usize, value: f64) {
        let cur = self.get(i, j);
        self.set(i, j, cur + value);
    }

    /// Random symmetric matrix with entries drawn uniformly from
    /// `[-scale, scale]` at density `density` (useful for tests and benches).
    pub fn random<R: Rng + ?Sized>(
        n: usize,
        density: f64,
        scale: f64,
        rng: &mut R,
    ) -> DenseCoupling {
        let mut m = DenseCoupling::zeros(n);
        for i in 0..n {
            for j in (i + 1)..n {
                if rng.gen::<f64>() < density {
                    let v = rng.gen_range(-scale..=scale);
                    m.set(i, j, v);
                }
            }
        }
        m
    }

    /// Row `i` as a dense slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Largest absolute coupling value (`0.0` for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &v| m.max(v.abs()))
    }

    /// Row-major copy of the underlying buffer.
    pub fn to_vec(&self) -> Vec<f64> {
        self.data.clone()
    }
}

impl Coupling for DenseCoupling {
    fn dimension(&self) -> usize {
        self.n
    }

    fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    fn for_each_in_row(&self, i: usize, mut f: impl FnMut(usize, f64)) {
        let row = self.row(i);
        for (j, &v) in row.iter().enumerate() {
            if v != 0.0 {
                f(j, v);
            }
        }
    }

    fn coupling_count(&self) -> usize {
        let mut c = 0;
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if self.get(i, j) != 0.0 {
                    c += 1;
                }
            }
        }
        c
    }
}

/// Compressed-sparse-row symmetric coupling matrix.
///
/// Stores both `(i,j)` and `(j,i)` for O(1) row iteration; suited to the
/// sparse toroidal/graph instances and to the software-exact annealing
/// engine where `ΔE` only touches the neighbourhood of flipped spins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrCoupling {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrCoupling {
    /// Build from an unordered list of `(i, j, value)` triplets (each
    /// unordered pair given once). Duplicate pairs are summed: the copies
    /// of a pair, given as `(i, j)` or `(j, i)`, merge by a left fold in
    /// input order.
    ///
    /// # Errors
    ///
    /// [`IsingError::IndexOutOfRange`] for indices `>= n`;
    /// [`IsingError::InvalidProblem`] for diagonal entries;
    /// [`IsingError::NonFiniteCoupling`] for non-finite values.
    pub fn from_triplets(
        n: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<CsrCoupling, IsingError> {
        CsrCoupling::from_pairs(n, triplets.iter().copied())
    }

    /// [`CsrCoupling::from_triplets`] over a re-iterable stream of
    /// triplets, so an encoder hands its pairs over without collecting
    /// them first. The stream is walked twice: once to validate and
    /// count, once to fill.
    pub(crate) fn from_pairs(
        n: usize,
        triplets: impl Iterator<Item = (usize, usize, f64)> + Clone,
    ) -> Result<CsrCoupling, IsingError> {
        // Validate, and count both directions of every pair by row.
        let mut row_ptr = vec![0usize; n + 1];
        for (i, j, v) in triplets.clone() {
            if i >= n {
                return Err(IsingError::IndexOutOfRange {
                    index: i,
                    dimension: n,
                });
            }
            if j >= n {
                return Err(IsingError::IndexOutOfRange {
                    index: j,
                    dimension: n,
                });
            }
            if i == j {
                return Err(IsingError::InvalidProblem(format!(
                    "diagonal coupling at {i}; carry linear terms in `h` instead"
                )));
            }
            if !v.is_finite() {
                return Err(IsingError::NonFiniteCoupling { row: i, col: j });
            }
            row_ptr[i + 1] += 1;
            row_ptr[j + 1] += 1;
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        // Bucket both directions of every pair by row, in input order.
        let mut col_idx = vec![0usize; row_ptr[n]];
        let mut values = vec![0.0f64; row_ptr[n]];
        let mut next = row_ptr[..n].to_vec();
        for (i, j, v) in triplets {
            for (row, col) in [(i, j), (j, i)] {
                col_idx[next[row]] = col;
                values[next[row]] = v;
                next[row] += 1;
            }
        }
        // Put each row in column order with a stable sort (rows usually
        // arrive sorted), then merge the copies of a pair, compacting in
        // place. A row without copies moves down whole.
        let mut unsorted: Vec<(usize, f64)> = Vec::new();
        let mut len = 0;
        for i in 0..n {
            let (start, end) = (row_ptr[i], row_ptr[i + 1]);
            row_ptr[i] = len;
            if col_idx[start..end].is_sorted_by(|a, b| a < b) {
                if len < start {
                    col_idx.copy_within(start..end, len);
                    values.copy_within(start..end, len);
                }
                len += end - start;
                continue;
            }
            if !col_idx[start..end].is_sorted() {
                unsorted.clear();
                unsorted.extend(
                    col_idx[start..end]
                        .iter()
                        .copied()
                        .zip(values[start..end].iter().copied()),
                );
                unsorted.sort_by_key(|&(j, _)| j);
                for (k, (j, v)) in unsorted.iter().enumerate() {
                    (col_idx[start + k], values[start + k]) = (*j, *v);
                }
            }
            for k in start..end {
                if len > row_ptr[i] && col_idx[len - 1] == col_idx[k] {
                    values[len - 1] += values[k];
                } else {
                    (col_idx[len], values[len]) = (col_idx[k], values[k]);
                    len += 1;
                }
            }
        }
        row_ptr[n] = len;
        col_idx.truncate(len);
        values.truncate(len);
        Ok(CsrCoupling {
            n,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Convert a dense matrix to CSR, dropping explicit zeros.
    pub fn from_dense(dense: &DenseCoupling) -> CsrCoupling {
        let n = dense.dimension();
        let mut triplets = Vec::new();
        for i in 0..n {
            for j in (i + 1)..n {
                let v = dense.get(i, j);
                if v != 0.0 {
                    triplets.push((i, j, v));
                }
            }
        }
        // audit:allow(panic-path): every DenseCoupling mutation path asserts finite, symmetric, zero-diagonal entries, and the loop emits only in-range i < j triplets — exactly what from_triplets validates
        CsrCoupling::from_triplets(n, &triplets).expect("dense matrix is always valid")
    }

    /// Neighbours `(j, J_ij)` of spin `i` as a slice pair.
    pub fn row_entries(&self, i: usize) -> (&[usize], &[f64]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Average number of neighbours per spin.
    pub fn mean_degree(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.col_idx.len() as f64 / self.n as f64
    }
}

impl Coupling for CsrCoupling {
    fn dimension(&self) -> usize {
        self.n
    }

    fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row_entries(i);
        match cols.binary_search(&j) {
            Ok(pos) => vals[pos],
            Err(_) => 0.0,
        }
    }

    fn for_each_in_row(&self, i: usize, mut f: impl FnMut(usize, f64)) {
        let (cols, vals) = self.row_entries(i);
        for (&j, &v) in cols.iter().zip(vals.iter()) {
            f(j, v);
        }
    }

    fn coupling_count(&self) -> usize {
        self.col_idx.len() / 2
    }

    /// The trait default's sum, in the same order, over the row slices
    /// instead of a callback per entry.
    fn local_field(&self, i: usize, spins: &SpinVector) -> f64 {
        let s = spins.as_slice();
        let (cols, vals) = self.row_entries(i);
        let mut acc = 0.0;
        for (&j, &v) in cols.iter().zip(vals) {
            acc += v * s[j] as f64;
        }
        acc
    }
}

/// A complete Ising model: symmetric couplings `J`, linear fields `h` and a
/// constant energy offset, i.e. `H(σ) = σᵀJσ + hᵀσ + offset` (paper Eq. 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IsingModel {
    couplings: CsrCoupling,
    fields: Vec<f64>,
    offset: f64,
}

impl IsingModel {
    /// Build from couplings, with zero fields and offset.
    pub fn new(couplings: CsrCoupling) -> IsingModel {
        let n = couplings.dimension();
        IsingModel {
            couplings,
            fields: vec![0.0; n],
            offset: 0.0,
        }
    }

    /// Build with explicit linear fields `h`.
    ///
    /// # Errors
    ///
    /// [`IsingError::DimensionMismatch`] if `fields.len()` differs from the
    /// coupling dimension.
    pub fn with_fields(couplings: CsrCoupling, fields: Vec<f64>) -> Result<IsingModel, IsingError> {
        if fields.len() != couplings.dimension() {
            return Err(IsingError::DimensionMismatch {
                expected: couplings.dimension(),
                found: fields.len(),
            });
        }
        Ok(IsingModel {
            couplings,
            fields,
            offset: 0.0,
        })
    }

    /// Set the constant energy offset (returned by [`IsingModel::energy`]).
    pub fn set_offset(&mut self, offset: f64) {
        self.offset = offset;
    }

    /// Constant energy offset.
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Number of spins.
    pub fn dimension(&self) -> usize {
        self.couplings.dimension()
    }

    /// The coupling matrix.
    pub fn couplings(&self) -> &CsrCoupling {
        &self.couplings
    }

    /// Linear fields `h`.
    pub fn fields(&self) -> &[f64] {
        &self.fields
    }

    /// `true` when all linear fields are zero (pure quadratic model, the form
    /// the crossbar maps directly).
    pub fn is_quadratic_only(&self) -> bool {
        self.fields.iter().all(|&h| h == 0.0)
    }

    /// Full Hamiltonian `σᵀJσ + hᵀσ + offset`.
    pub fn energy(&self, spins: &SpinVector) -> f64 {
        let quad = self.couplings.energy(spins);
        let lin: f64 = self
            .fields
            .iter()
            .zip(spins.iter())
            .map(|(&h, s)| h * s as f64)
            .sum();
        quad + lin + self.offset
    }

    /// Energy difference of flipping `mask` from the current configuration
    /// `σ` to `σ_new = σ.flipped_by(mask)`, including linear terms.
    pub fn delta_energy(&self, spins: &SpinVector, mask: &FlipMask) -> f64 {
        let new_spins = spins.flipped_by(mask);
        let quad = self.couplings.delta_energy(&new_spins, mask);
        // Linear part: h_i (σ_new,i − σ_i) = −2 h_i σ_i for flipped i.
        let lin: f64 = mask
            .indices()
            .iter()
            .map(|&i| -2.0 * self.fields[i] * spins.get(i) as f64)
            .sum();
        quad + lin
    }

    /// Embed linear fields into a pure quadratic model one spin larger using
    /// the standard ancilla trick: `h_i σ_i = J'_{0,i+1} σ_0 σ_{i+1}` with
    /// ancilla `σ_0` pinned conceptually to `+1`.
    ///
    /// Returns the enlarged model (fields all zero). Solutions `σ'` of the
    /// enlarged model map back by taking spins `1..` and multiplying by
    /// `σ'_0` (the global Z₂ symmetry makes both gauges equivalent).
    pub fn to_quadratic_only(&self) -> IsingModel {
        if self.is_quadratic_only() {
            return self.clone();
        }
        let n = self.dimension();
        // σᵀJσ counts J_ij twice (ij and ji), so h_i σ_0 σ_i needs
        // J_{0,i+1} = h_i / 2. The ancilla's pairs go first, so every row
        // reaches `from_triplets` already in column order.
        let mut triplets: Vec<(usize, usize, f64)> = (0..n)
            .filter(|&i| self.fields[i] != 0.0)
            .map(|i| (0, i + 1, self.fields[i] / 2.0))
            .collect();
        for i in 0..n {
            let (cols, values) = self.couplings.row_entries(i);
            for (&j, &v) in cols.iter().zip(values) {
                if i < j {
                    triplets.push((i + 1, j + 1, v));
                }
            }
        }
        let couplings =
            // audit:allow(panic-path): triplets are in-range off-diagonal pairs built from an already-validated model (finite couplings and fields), so re-validation cannot fail
            CsrCoupling::from_triplets(n + 1, &triplets).expect("valid by construction");
        let mut m = IsingModel::new(couplings);
        m.set_offset(self.offset);
        m
    }

    /// Map a solution of the ancilla-embedded model back to the original
    /// gauge (see [`IsingModel::to_quadratic_only`]).
    ///
    /// # Panics
    ///
    /// Panics if `embedded.len() != self.dimension() + 1`.
    pub fn project_from_quadratic(&self, embedded: &SpinVector) -> SpinVector {
        assert_eq!(
            embedded.len(),
            self.dimension() + 1,
            "ancilla dimension mismatch"
        );
        let gauge = embedded.get(0);
        (1..embedded.len())
            .map(|i| embedded.get(i) * gauge)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_dense() -> DenseCoupling {
        let mut m = DenseCoupling::zeros(4);
        m.set(0, 1, 1.0);
        m.set(1, 2, -2.0);
        m.set(2, 3, 0.5);
        m.set(0, 3, -1.5);
        m
    }

    #[test]
    fn dense_set_get_symmetric() {
        let m = small_dense();
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(1, 0), 1.0);
        assert_eq!(m.get(2, 1), -2.0);
        assert_eq!(m.get(0, 2), 0.0);
        assert_eq!(m.coupling_count(), 4);
    }

    #[test]
    fn dense_from_rows_validates() {
        let ok = DenseCoupling::from_rows(2, &[0.0, 1.0, 1.0, 0.0]);
        assert!(ok.is_ok());
        let asym = DenseCoupling::from_rows(2, &[0.0, 1.0, 2.0, 0.0]);
        assert!(matches!(asym, Err(IsingError::NotSymmetric { .. })));
        let diag = DenseCoupling::from_rows(2, &[1.0, 0.0, 0.0, 0.0]);
        assert!(matches!(diag, Err(IsingError::InvalidProblem(_))));
        let nan = DenseCoupling::from_rows(2, &[0.0, f64::NAN, f64::NAN, 0.0]);
        assert!(matches!(nan, Err(IsingError::NonFiniteCoupling { .. })));
        let dim = DenseCoupling::from_rows(2, &[0.0; 3]);
        assert!(matches!(dim, Err(IsingError::DimensionMismatch { .. })));
    }

    #[test]
    fn energy_matches_hand_computation() {
        let m = small_dense();
        let s = SpinVector::from_signs(&[1, -1, 1, -1]);
        // σᵀJσ counts each pair twice: 2*(J01 σ0σ1 + J12 σ1σ2 + J23 σ2σ3 + J03 σ0σ3)
        let expected = 2.0 * (-1.0 + -2.0 * -1.0 + -0.5 + -1.5 * -1.0);
        assert!((m.energy(&s) - expected).abs() < 1e-12);
    }

    #[test]
    fn csr_matches_dense() {
        let mut rng = StdRng::seed_from_u64(11);
        let dense = DenseCoupling::random(20, 0.3, 2.0, &mut rng);
        let csr = CsrCoupling::from_dense(&dense);
        assert_eq!(csr.coupling_count(), dense.coupling_count());
        for i in 0..20 {
            for j in 0..20 {
                assert_eq!(csr.get(i, j), dense.get(i, j));
            }
        }
        let s = SpinVector::random(20, &mut rng);
        assert!((csr.energy(&s) - dense.energy(&s)).abs() < 1e-9);
    }

    #[test]
    fn csr_duplicate_triplets_are_summed() {
        let csr = CsrCoupling::from_triplets(3, &[(0, 1, 1.0), (1, 0, 0.5)]).unwrap();
        assert_eq!(csr.get(0, 1), 1.5);
        assert_eq!(csr.get(1, 0), 1.5);
    }

    #[test]
    fn csr_rejects_bad_triplets() {
        assert!(matches!(
            CsrCoupling::from_triplets(2, &[(0, 2, 1.0)]),
            Err(IsingError::IndexOutOfRange { .. })
        ));
        assert!(matches!(
            CsrCoupling::from_triplets(2, &[(1, 1, 1.0)]),
            Err(IsingError::InvalidProblem(_))
        ));
    }

    #[test]
    fn delta_energy_equals_direct_difference_dense() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = DenseCoupling::random(16, 0.5, 1.0, &mut rng);
        for t in [0usize, 1, 2, 5, 16] {
            let s = SpinVector::random(16, &mut rng);
            let mask = FlipMask::random(t, 16, &mut rng);
            let s_new = s.flipped_by(&mask);
            let direct = m.energy(&s_new) - m.energy(&s);
            let inc = m.delta_energy(&s_new, &mask);
            assert!(
                (direct - inc).abs() < 1e-9,
                "t={t}: direct={direct} inc={inc}"
            );
        }
    }

    #[test]
    fn local_fields_relate_to_single_flip_delta() {
        let mut rng = StdRng::seed_from_u64(6);
        let m = DenseCoupling::random(12, 0.6, 1.0, &mut rng);
        let s = SpinVector::random(12, &mut rng);
        let fields = m.local_fields(&s);
        for (i, &field) in fields.iter().enumerate() {
            let mask = FlipMask::single(i, 12);
            let s_new = s.flipped_by(&mask);
            let de = m.energy(&s_new) - m.energy(&s);
            // ΔE for flipping spin i = −4 σ_i l_i.
            let expected = -4.0 * s.get(i) as f64 * field;
            assert!((de - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn model_with_fields_energy_and_delta() {
        let csr = CsrCoupling::from_triplets(3, &[(0, 1, 1.0), (1, 2, -1.0)]).unwrap();
        let model = IsingModel::with_fields(csr, vec![0.5, 0.0, -0.5]).unwrap();
        let s = SpinVector::from_signs(&[1, 1, -1]);
        // quad: 2*(1*1*1 + 1*-1*-1) = 4; lin: 0.5*1 + (-0.5)*(-1) = 1.0
        assert!((model.energy(&s) - 5.0).abs() < 1e-12);
        let mask = FlipMask::new(vec![0, 2], 3);
        let s_new = s.flipped_by(&mask);
        let direct = model.energy(&s_new) - model.energy(&s);
        assert!((model.delta_energy(&s, &mask) - direct).abs() < 1e-12);
    }

    #[test]
    fn ancilla_embedding_preserves_energy() {
        let mut rng = StdRng::seed_from_u64(8);
        let csr =
            CsrCoupling::from_triplets(4, &[(0, 1, 1.0), (2, 3, -1.0), (0, 3, 0.25)]).unwrap();
        let model = IsingModel::with_fields(csr, vec![0.3, -0.7, 0.1, 0.0]).unwrap();
        let quad = model.to_quadratic_only();
        assert!(quad.is_quadratic_only());
        assert_eq!(quad.dimension(), 5);
        for _ in 0..20 {
            let s = SpinVector::random(4, &mut rng);
            // Embed with ancilla +1: energies must match exactly.
            let mut embedded = vec![1i8];
            embedded.extend_from_slice(s.as_slice());
            let es = SpinVector::from_signs(&embedded);
            assert!((model.energy(&s) - quad.energy(&es)).abs() < 1e-9);
            // Projection back must recover σ in either gauge.
            let mut flipped_gauge: Vec<i8> = embedded.iter().map(|&v| -v).collect();
            flipped_gauge[0] = -1;
            let back = model.project_from_quadratic(&SpinVector::from_signs(&flipped_gauge));
            assert_eq!(back, s);
        }
    }

    #[test]
    fn mean_degree_counts_both_directions() {
        let csr = CsrCoupling::from_triplets(4, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        assert!((csr.mean_degree() - 1.0).abs() < 1e-12);
    }
}
