//! Device non-idealities: device-to-device threshold variation and read
//! noise. The paper's robustness argument for CiM annealers (Sec. 1, 2.1)
//! rests on tolerance to exactly these effects; the ablation benches sweep
//! them.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Magnitudes of the modeled non-idealities.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VariationConfig {
    /// Device-to-device threshold-voltage sigma, volts (one sample per
    /// cell at array programming time).
    pub sigma_vth_d2d: f64,
    /// Cycle-to-cycle threshold sigma, volts (resampled per program
    /// operation).
    pub sigma_vth_c2c: f64,
    /// Relative standard deviation of multiplicative read noise on sensed
    /// currents.
    pub read_noise_rel: f64,
}

impl VariationConfig {
    /// No non-idealities (ideal device).
    pub fn ideal() -> VariationConfig {
        VariationConfig {
            sigma_vth_d2d: 0.0,
            sigma_vth_c2c: 0.0,
            read_noise_rel: 0.0,
        }
    }

    /// Typical magnitudes for scaled FeFET arrays: 54 mV d2d sigma,
    /// 20 mV c2c sigma, 2 % read noise.
    pub fn typical() -> VariationConfig {
        VariationConfig {
            sigma_vth_d2d: 0.054,
            sigma_vth_c2c: 0.020,
            read_noise_rel: 0.02,
        }
    }

    /// `true` when every term is zero.
    pub fn is_ideal(&self) -> bool {
        self.sigma_vth_d2d == 0.0 && self.sigma_vth_c2c == 0.0 && self.read_noise_rel == 0.0
    }
}

impl Default for VariationConfig {
    fn default() -> VariationConfig {
        VariationConfig::ideal()
    }
}

/// Seeded sampler of the variation terms.
#[derive(Debug, Clone)]
pub struct VariationSampler {
    config: VariationConfig,
    rng: StdRng,
}

impl VariationSampler {
    /// New sampler with a fixed seed (same seed → same variation map).
    pub fn new(config: VariationConfig, seed: u64) -> VariationSampler {
        VariationSampler {
            config,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The configured magnitudes.
    pub fn config(&self) -> &VariationConfig {
        &self.config
    }

    /// Draw a standard normal via Box–Muller.
    fn standard_normal(&mut self) -> f64 {
        let u1: f64 = self.rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = self.rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Device-to-device threshold offset for a freshly placed cell, volts.
    pub fn d2d_vth_offset(&mut self) -> f64 {
        if self.config.sigma_vth_d2d == 0.0 {
            return 0.0;
        }
        self.standard_normal() * self.config.sigma_vth_d2d
    }

    /// Cycle-to-cycle threshold offset for one program operation, volts.
    pub fn c2c_vth_offset(&mut self) -> f64 {
        if self.config.sigma_vth_c2c == 0.0 {
            return 0.0;
        }
        self.standard_normal() * self.config.sigma_vth_c2c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_sampler_is_exactly_zero() {
        let mut s = VariationSampler::new(VariationConfig::ideal(), 1);
        for _ in 0..10 {
            assert_eq!(s.d2d_vth_offset(), 0.0);
            assert_eq!(s.c2c_vth_offset(), 0.0);
        }
    }

    #[test]
    fn offsets_have_requested_scale() {
        let mut s = VariationSampler::new(VariationConfig::typical(), 2);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| s.d2d_vth_offset()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        let sigma = var.sqrt();
        assert!(mean.abs() < 0.002, "mean={mean}");
        assert!((sigma - 0.054).abs() < 0.004, "sigma={sigma}");
    }

    #[test]
    fn same_seed_reproduces_sequence() {
        let mut a = VariationSampler::new(VariationConfig::typical(), 3);
        let mut b = VariationSampler::new(VariationConfig::typical(), 3);
        for _ in 0..100 {
            assert_eq!(a.d2d_vth_offset(), b.d2d_vth_offset());
        }
    }
}
