//! Independent Ideal-fidelity reference of the crossbar signal chain,
//! built from the public quantizer and ADC only — no tiles, no activity
//! counters, no fan-out. It visits sign pass, then column, then row, and
//! sums each bit slice's current by repeated addition in row order, so
//! the equivalence suites can demand bit-identity from every tiling.

use fecim_crossbar::{CrossbarConfig, QuantizedCoupling, SarAdc};
use fecim_ising::Coupling;

pub struct Oracle {
    quant: QuantizedCoupling,
    adc: SarAdc,
}

impl Oracle {
    pub fn program<C: Coupling>(coupling: &C, config: &CrossbarConfig) -> Oracle {
        let n = coupling.dimension();
        Oracle {
            quant: QuantizedCoupling::from_coupling(coupling, config.quant_bits),
            adc: SarAdc::new(config.adc_bits, n as f64),
        }
    }

    /// Column `j`'s signed output for one sign pass, in code units.
    fn column(&self, j: usize, rows: &[i8], sign: i8, factor: f64) -> f64 {
        let k = usize::from(self.quant.bits());
        let mut sums = [[0.0f64; 8]; 2];
        for &(row, pos, neg) in self.quant.column(j) {
            if rows[row as usize] != sign {
                continue;
            }
            let (plane, code) = if pos > 0 { (0, pos) } else { (1, neg) };
            for (b, sum) in sums[plane].iter_mut().take(k).enumerate() {
                if (code >> b) & 1 == 1 {
                    *sum += factor;
                }
            }
        }
        let mut value = [0.0f64; 2];
        for (plane, total) in value.iter_mut().enumerate() {
            for (b, &sum) in sums[plane].iter().take(k).enumerate() {
                *total += (1u64 << b) as f64 * self.adc.quantize(sum);
            }
        }
        f64::from(sign) * (value[0] - value[1])
    }

    /// Every sensed column's weighted term, in visiting order; columns
    /// of weight 0 are not sensed.
    fn terms(&self, rows: &[i8], weight: impl Fn(usize) -> f64, factor: f64) -> Vec<(usize, f64)> {
        let mut terms = Vec::new();
        for sign in [1i8, -1] {
            for j in 0..self.quant.dimension() {
                if weight(j) != 0.0 {
                    terms.push((j, weight(j) * self.column(j, rows, sign, factor)));
                }
            }
        }
        terms
    }

    fn scalar(&self, terms: Vec<(usize, f64)>) -> f64 {
        self.quant.scale() * terms.iter().fold(0.0, |total, &(_, term)| total + term)
    }

    pub fn incremental_form(&self, sigma_r: &[i8], sigma_c: &[i8], factor: f64) -> f64 {
        self.scalar(self.terms(sigma_r, |j| f64::from(sigma_c[j]), factor))
    }

    pub fn vmv(&self, sigma: &[i8]) -> f64 {
        self.scalar(self.terms(sigma, |j| f64::from(sigma[j]), 1.0))
    }

    pub fn mvm(&self, sigma: &[i8]) -> Vec<f64> {
        let mut out = vec![0.0f64; self.quant.dimension()];
        for (j, term) in self.terms(sigma, |_| 1.0, 1.0) {
            out[j] += term;
        }
        out.iter().map(|v| v * self.quant.scale()).collect()
    }
}
