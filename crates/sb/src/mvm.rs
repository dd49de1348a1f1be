//! MVM sources: where the simulated-bifurcation coupling product comes
//! from.
//!
//! Both SB variants consume one matrix-vector product per step. The
//! discrete variant drives a plain sign vector — one
//! [`TiledCrossbar::mvm`] read. The ballistic variant needs `J·x` for
//! continuous `x ∈ [−1, 1]ⁿ`, which the crossbar serves *bit-serially*:
//! the input DAC quantizes `x` to a signed fixed-point code and drives
//! one sign-vector plane per input bit (entries `{−1, 0, +1}`; zero
//! rows conduct in neither polarity pass), and the digital periphery
//! recombines the per-plane outputs with shift-add weights `2^b`. A
//! `in_bits`-bit drive therefore costs `in_bits` array reads per step —
//! the hardware-cost differentiator between bSB and dSB that
//! `fecim-hwcost` prices.

use fecim_crossbar::{ActivityStats, TiledCrossbar};
use fecim_ising::Coupling;

/// Where the per-step SB coupling product comes from.
///
/// Implementations must be deterministic: the same call sequence on the
/// same source yields bit-identical outputs (the device path inherits
/// this from the crossbar's counter-based read-noise contract).
pub trait MvmSource {
    /// Matrix dimension `n`.
    fn dimension(&self) -> usize;

    /// One sign-vector product `(Jσ)_j` for `σ ∈ {−1, 0, +1}ⁿ` — the
    /// dSB drive (and the per-plane primitive of the bSB drive).
    fn mvm_signs(&mut self, sigma: &[i8]) -> Vec<f64>;

    /// The continuous product `(Jx)_j` for `x ∈ [−1, 1]ⁿ` — the bSB
    /// drive.
    fn mvm_continuous(&mut self, x: &[f64]) -> Vec<f64>;

    /// Accumulated hardware activity (`None` for software sources).
    fn activity(&self) -> Option<ActivityStats>;
}

/// Software-exact coupling product, the SB analogue of the annealers'
/// `ExactBackend`: full-precision f64 arithmetic, no quantization, no
/// activity statistics.
#[derive(Debug)]
pub struct ExactMvm<'a, C: Coupling + ?Sized> {
    coupling: &'a C,
}

impl<'a, C: Coupling + ?Sized> ExactMvm<'a, C> {
    /// Wrap a coupling matrix.
    pub fn new(coupling: &'a C) -> ExactMvm<'a, C> {
        ExactMvm { coupling }
    }
}

impl<C: Coupling + ?Sized> ExactMvm<'_, C> {
    /// `(Jx)_j = Σ_i J_ji x_i` for every output `j`, each a sum over row
    /// `j` in ascending `i`. `J` is symmetric, so these are the additions,
    /// in the same order, of scattering rows `i` with nonzero `x_i` into
    /// the outputs: a zero `x_i` adds a signed zero, which leaves every
    /// partial sum (never `−0.0`, since it starts at `+0.0`) unchanged.
    fn gather(&self, x: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..self.coupling.dimension())
            .map(|j| {
                let mut acc = 0.0;
                self.coupling.for_each_in_row(j, |i, v| acc += x(i) * v);
                acc
            })
            .collect()
    }
}

impl<C: Coupling + ?Sized> MvmSource for ExactMvm<'_, C> {
    fn dimension(&self) -> usize {
        self.coupling.dimension()
    }

    fn mvm_signs(&mut self, sigma: &[i8]) -> Vec<f64> {
        assert_eq!(sigma.len(), self.coupling.dimension(), "dimension mismatch");
        self.gather(|i| f64::from(sigma[i]))
    }

    fn mvm_continuous(&mut self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.coupling.dimension(), "dimension mismatch");
        self.gather(|i| x[i])
    }

    fn activity(&self) -> Option<ActivityStats> {
        None
    }
}

/// Crossbar-backed coupling product: every product is a
/// [`TiledCrossbar::mvm`] read of a programmed array (one tile for the
/// monolithic case), so quantization, ADC behaviour, fidelity modes and
/// activity accounting all come from the simulated hardware.
#[derive(Debug)]
pub struct DeviceMvm {
    array: TiledCrossbar,
    in_bits: u8,
}

/// Widest input-DAC code the bit-serial drive supports: the full-scale
/// code `2^in_bits − 1` must fit the signed 32-bit code path.
pub const MAX_IN_BITS: u8 = 31;

impl DeviceMvm {
    /// Wrap a programmed array. `in_bits` is the input-DAC resolution of
    /// the bit-serial continuous drive: a bSB step issues `in_bits`
    /// sign-plane reads, while the dSB sign drive always costs one.
    ///
    /// # Panics
    ///
    /// Panics if `in_bits` is 0 or above [`MAX_IN_BITS`].
    pub fn new(array: TiledCrossbar, in_bits: u8) -> DeviceMvm {
        assert!(
            (1..=MAX_IN_BITS).contains(&in_bits),
            "the input DAC needs 1..={MAX_IN_BITS} bits (got {in_bits})"
        );
        DeviceMvm { array, in_bits }
    }
}

impl MvmSource for DeviceMvm {
    fn dimension(&self) -> usize {
        self.array.dimension()
    }

    fn mvm_signs(&mut self, sigma: &[i8]) -> Vec<f64> {
        self.array.mvm(sigma)
    }

    fn mvm_continuous(&mut self, x: &[f64]) -> Vec<f64> {
        let n = x.len();
        assert_eq!(self.array.dimension(), n, "dimension mismatch");
        // Signed fixed-point input code: full scale = 2^in_bits − 1.
        let levels = (1u32 << self.in_bits) - 1;
        let codes: Vec<i32> = x
            .iter()
            .map(|&v| {
                let c = (v.clamp(-1.0, 1.0) * levels as f64).round() as i32;
                c.clamp(-(levels as i32), levels as i32)
            })
            .collect();
        let mut out = vec![0.0; n];
        // One sign-vector plane per input bit, LSB first. Every plane is
        // issued even when all-zero: the bit-serial pipeline runs a
        // fixed schedule, which keeps the per-step read count (and the
        // noise-counter advance) data-independent.
        for b in 0..self.in_bits {
            let plane: Vec<i8> = codes
                .iter()
                .map(|&c| {
                    if (c.unsigned_abs() >> b) & 1 == 1 {
                        if c < 0 {
                            -1
                        } else {
                            1
                        }
                    } else {
                        0
                    }
                })
                .collect();
            let partial = self.array.mvm(&plane);
            let weight = (1u64 << b) as f64 / levels as f64;
            for (acc, term) in out.iter_mut().zip(partial) {
                *acc += weight * term;
            }
        }
        out
    }

    fn activity(&self) -> Option<ActivityStats> {
        Some(*self.array.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fecim_crossbar::{CrossbarConfig, TiledCrossbar};
    use fecim_ising::{CsrCoupling, DenseCoupling};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `j` programmed as the monolithic array (one `n`-row tile).
    fn monolithic(j: &CsrCoupling) -> TiledCrossbar {
        TiledCrossbar::program(j, CrossbarConfig::paper_defaults(), j.dimension())
    }

    fn random_coupling(n: usize, seed: u64) -> CsrCoupling {
        let mut rng = StdRng::seed_from_u64(seed);
        let dense = DenseCoupling::random(n, 0.6, 1.0, &mut rng);
        let mut triplets = Vec::new();
        for i in 0..n {
            dense.for_each_in_row(i, |j, v| {
                if j > i {
                    triplets.push((i, j, v));
                }
            });
        }
        CsrCoupling::from_triplets(n, &triplets).unwrap()
    }

    #[test]
    fn exact_sign_product_matches_dense_math() {
        let n = 12;
        let j = random_coupling(n, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let sigma: Vec<i8> = (0..n)
            .map(|_| [-1i8, 0, 1][rng.gen_range(0..3usize)])
            .collect();
        let mut exact = ExactMvm::new(&j);
        let out = exact.mvm_signs(&sigma);
        for (col, &got) in out.iter().enumerate() {
            let mut want = 0.0;
            for (row, &s) in sigma.iter().enumerate() {
                want += j.get(row, col) * s as f64;
            }
            assert!((got - want).abs() < 1e-12, "col {col}: {got} vs {want}");
        }
        assert!(exact.activity().is_none());
    }

    #[test]
    fn exact_continuous_product_matches_dense_math() {
        let n = 10;
        let j = random_coupling(n, 5);
        let mut rng = StdRng::seed_from_u64(6);
        let x: Vec<f64> = (0..n).map(|_| 2.0 * rng.gen::<f64>() - 1.0).collect();
        let mut exact = ExactMvm::new(&j);
        let out = exact.mvm_continuous(&x);
        for (col, &got) in out.iter().enumerate() {
            let mut want = 0.0;
            for (row, &xi) in x.iter().enumerate() {
                want += j.get(row, col) * xi;
            }
            assert!((got - want).abs() < 1e-12, "col {col}: {got} vs {want}");
        }
    }

    /// The row-by-row scatter reference: every row `i` with a nonzero
    /// input adds `x_i · J_ij` to output `j`.
    fn scatter(j: &impl Coupling, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; j.dimension()];
        for (i, &xi) in x.iter().enumerate() {
            if xi != 0.0 {
                j.for_each_in_row(i, |col, v| out[col] += xi * v);
            }
        }
        out
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn exact_products_gather_the_scatter_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(10);
        for (n, seed) in [(1, 1), (9, 2), (64, 3)] {
            let sparse = random_coupling(n, seed);
            let dense = DenseCoupling::random(n, 0.3, 2.0, &mut rng);
            for _ in 0..4 {
                // Inputs with zeros of both signs.
                let sigma: Vec<i8> = (0..n)
                    .map(|_| [-1i8, 0, 1][rng.gen_range(0..3usize)])
                    .collect();
                let x: Vec<f64> = (0..n)
                    .map(|_| match rng.gen_range(0..4u8) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => 2.0 * rng.gen::<f64>() - 1.0,
                    })
                    .collect();
                let signs: Vec<f64> = sigma.iter().map(|&s| f64::from(s)).collect();
                let mut exact = ExactMvm::new(&sparse);
                assert_eq!(
                    bits(&exact.mvm_signs(&sigma)),
                    bits(&scatter(&sparse, &signs))
                );
                assert_eq!(bits(&exact.mvm_continuous(&x)), bits(&scatter(&sparse, &x)));
                let mut exact = ExactMvm::new(&dense);
                assert_eq!(
                    bits(&exact.mvm_signs(&sigma)),
                    bits(&scatter(&dense, &signs))
                );
                assert_eq!(bits(&exact.mvm_continuous(&x)), bits(&scatter(&dense, &x)));
            }
        }
    }

    #[test]
    fn device_bit_serial_drive_approximates_the_exact_product() {
        let n = 16;
        let j = random_coupling(n, 7);
        let mut rng = StdRng::seed_from_u64(8);
        let x: Vec<f64> = (0..n).map(|_| 2.0 * rng.gen::<f64>() - 1.0).collect();
        let exact = ExactMvm::new(&j).mvm_continuous(&x);
        let mut device = DeviceMvm::new(monolithic(&j), 8);
        let got = device.mvm_continuous(&x);
        // Error budget: 4-bit weight quantization (LSB n·max|J|/(2^4−1)
        // per column in the worst case) plus the 8-bit input code.
        let mut max_abs = 0.0f64;
        for i in 0..n {
            j.for_each_in_row(i, |_, v| max_abs = max_abs.max(v.abs()));
        }
        let tol = n as f64 * max_abs * (1.0 / 15.0 + 1.0 / 255.0) + 1e-9;
        for (col, (&g, &e)) in got.iter().zip(&exact).enumerate() {
            assert!((g - e).abs() < tol, "col {col}: {g} vs {e} (tol {tol})");
        }
        // Fixed bit-serial schedule: exactly in_bits array reads.
        let stats = device.activity().expect("device sources record stats");
        assert_eq!(stats.array_ops, 8);
    }

    #[test]
    fn device_sign_drive_is_one_read_and_deterministic() {
        let n = 12;
        let j = random_coupling(n, 9);
        let sigma: Vec<i8> = (0..n).map(|i| if i % 2 == 0 { 1 } else { -1 }).collect();
        let run = || {
            let mut device = DeviceMvm::new(monolithic(&j), 4);
            let out = device.mvm_signs(&sigma);
            (out, device.activity().unwrap().array_ops)
        };
        let (a, ops_a) = run();
        let (b, ops_b) = run();
        assert_eq!(a, b, "bit-identical replays");
        assert_eq!(ops_a, 1);
        assert_eq!(ops_b, 1);
    }

    #[test]
    #[should_panic(expected = "needs 1..=31 bits")]
    fn zero_input_bits_are_rejected() {
        let j = random_coupling(4, 1);
        let _ = DeviceMvm::new(monolithic(&j), 0);
    }

    #[test]
    #[should_panic(expected = "needs 1..=31 bits")]
    fn input_codes_wider_than_31_bits_are_rejected() {
        let j = random_coupling(4, 1);
        let _ = DeviceMvm::new(monolithic(&j), 32);
    }
}
