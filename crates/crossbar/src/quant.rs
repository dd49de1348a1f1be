//! `k`-bit signed quantization of the coupling matrix `J` for crossbar
//! mapping (paper Sec. 3.3: "Each element in the matrix J is mapped onto a
//! 1×k subarray, with each cell storing 1 bit under k-bit quantization";
//! positive and negative values live in separate polarity planes since the
//! array handles non-negative quantities only).

use serde::{Deserialize, Serialize};

use fecim_ising::Coupling;

/// A coupling matrix quantized to `k`-bit magnitude codes with separate
/// positive/negative polarity planes, stored column-sparse (zero couplings
/// occupy cells but never conduct).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedCoupling {
    n: usize,
    bits: u8,
    scale: f64,
    /// Per column: sorted `(row, pos_code, neg_code)` entries with at least
    /// one nonzero code.
    columns: Vec<Vec<(u32, u8, u8)>>,
}

/// The `bits`-bit quantization of a matrix whose largest magnitude is
/// `max_abs`: the one rounding rule [`QuantizedCoupling`] and the
/// crossbar's programming share.
#[derive(Debug, Clone, Copy)]
pub(crate) struct QuantStep {
    /// J units per code LSB: `max_abs / (2^bits − 1)`, or 1 for an
    /// all-zero matrix.
    pub(crate) scale: f64,
    /// Largest magnitude code, `2^bits − 1`.
    levels: u32,
}

impl QuantStep {
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 8.
    pub(crate) fn new(max_abs: f64, bits: u8) -> QuantStep {
        assert!((1..=8).contains(&bits), "bits must be in 1..=8");
        let levels = (1u32 << bits) - 1;
        let scale = if max_abs == 0.0 {
            1.0
        } else {
            max_abs / levels as f64
        };
        QuantStep { scale, levels }
    }

    /// The magnitude code of `v`: `|v| / scale` rounded to the nearest
    /// code, clamped to the full scale.
    pub(crate) fn code(self, v: f64) -> u8 {
        ((v.abs() / self.scale).round() as u32).min(self.levels) as u8
    }
}

impl QuantizedCoupling {
    /// Quantize `coupling` to `bits`-bit magnitudes.
    ///
    /// The quantization step is `scale = max|J| / (2^bits − 1)`; each entry
    /// is rounded to the nearest code in its polarity plane.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 8.
    // audit:allow(dead-pub): reference: builds the quantization the oracle and the store tests compare against
    pub fn from_coupling<C: Coupling>(coupling: &C, bits: u8) -> QuantizedCoupling {
        let n = coupling.dimension();
        let mut max_abs = 0.0f64;
        for i in 0..n {
            coupling.for_each_in_row(i, |_, v| {
                max_abs = max_abs.max(v.abs());
            });
        }
        let step = QuantStep::new(max_abs, bits);
        let mut columns: Vec<Vec<(u32, u8, u8)>> = vec![Vec::new(); n];
        for i in 0..n {
            coupling.for_each_in_row(i, |j, v| {
                // Row i of J contributes the cell (row=i) of column group j.
                let code = step.code(v);
                if code > 0 {
                    let (pos, neg) = if v > 0.0 { (code, 0) } else { (0, code) };
                    columns[j].push((i as u32, pos, neg));
                }
            });
        }
        for col in &mut columns {
            col.sort_unstable_by_key(|e| e.0);
        }
        QuantizedCoupling {
            n,
            bits,
            scale: step.scale,
            columns,
        }
    }

    /// Matrix dimension `n`.
    pub fn dimension(&self) -> usize {
        self.n
    }

    /// Bits per magnitude code (`k`).
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Quantization step (J units per code LSB).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Sparse entries `(row, pos_code, neg_code)` of column group `j`.
    pub fn column(&self, j: usize) -> &[(u32, u8, u8)] {
        &self.columns[j]
    }

    /// Reconstructed (de-quantized) value of `J_ij`.
    // audit:allow(dead-pub): reference: proptest_invariants bounds the reconstruction error with it
    pub fn reconstruct(&self, i: usize, j: usize) -> f64 {
        match self.columns[j].binary_search_by_key(&(i as u32), |e| e.0) {
            Ok(pos) => {
                let (_, p, m) = self.columns[j][pos];
                self.scale * (p as f64 - m as f64)
            }
            Err(_) => 0.0,
        }
    }

    /// Worst-case absolute reconstruction error (`scale / 2`).
    // audit:allow(dead-pub): reference: proptest_invariants bounds the reconstruction error with it
    pub fn max_quantization_error(&self) -> f64 {
        self.scale / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fecim_ising::DenseCoupling;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_dense(n: usize, seed: u64) -> DenseCoupling {
        let mut rng = StdRng::seed_from_u64(seed);
        DenseCoupling::random(n, 0.5, 2.0, &mut rng)
    }

    #[test]
    fn reconstruction_error_is_bounded_by_half_lsb() {
        let dense = random_dense(24, 1);
        for bits in [2u8, 4, 8] {
            let q = QuantizedCoupling::from_coupling(&dense, bits);
            let bound = q.max_quantization_error() + 1e-12;
            for i in 0..24 {
                for j in 0..24 {
                    let err = (q.reconstruct(i, j) - dense.get(i, j)).abs();
                    assert!(err <= bound, "bits={bits} ({i},{j}): err={err}");
                }
            }
        }
    }

    #[test]
    fn higher_precision_reduces_error() {
        let dense = random_dense(16, 2);
        let q2 = QuantizedCoupling::from_coupling(&dense, 2);
        let q8 = QuantizedCoupling::from_coupling(&dense, 8);
        let err = |q: &QuantizedCoupling| -> f64 {
            let mut e = 0.0;
            for i in 0..16 {
                for j in 0..16 {
                    e += (q.reconstruct(i, j) - dense.get(i, j)).abs();
                }
            }
            e
        };
        assert!(err(&q8) < err(&q2));
    }

    #[test]
    fn unit_weights_quantize_exactly() {
        // Gset ±1 weights (J = ±0.25) are exactly representable at any k.
        let mut dense = DenseCoupling::zeros(4);
        dense.set(0, 1, 0.25);
        dense.set(1, 2, -0.25);
        let q = QuantizedCoupling::from_coupling(&dense, 4);
        assert_eq!(q.reconstruct(0, 1), 0.25);
        assert_eq!(q.reconstruct(1, 2), -0.25);
        assert_eq!(q.reconstruct(2, 1), -0.25, "symmetry preserved");
        assert_eq!(q.reconstruct(0, 2), 0.0);
    }

    #[test]
    fn polarity_planes_are_disjoint() {
        let dense = random_dense(12, 3);
        let q = QuantizedCoupling::from_coupling(&dense, 6);
        for j in 0..12 {
            for &(_, p, m) in q.column(j) {
                assert!(p == 0 || m == 0, "a cell pair holds one polarity");
                assert!(p > 0 || m > 0, "stored entries are nonzero");
            }
        }
    }

    #[test]
    fn geometry_matches_paper_mapping() {
        let dense = random_dense(10, 4);
        let q = QuantizedCoupling::from_coupling(&dense, 8);
        assert_eq!(q.dimension(), 10);
    }

    #[test]
    fn zero_matrix_is_handled() {
        let dense = DenseCoupling::zeros(5);
        let q = QuantizedCoupling::from_coupling(&dense, 4);
        assert!((0..5).all(|j| q.column(j).is_empty()));
        assert_eq!(q.reconstruct(0, 1), 0.0);
    }
}
