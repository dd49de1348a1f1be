//! Counter-based read-noise generation: every draw is a pure function
//! of `(key, counter)`, so noise samples are order-independent and a
//! noisy sensing pass can fan out across threads with bit-reproducible
//! results — the GPU-simulation trick (Philox/Threefry counter RNGs)
//! applied to the annealer's multiplicative read noise.
//!
//! The serial alternative (one `StdRng` consumed in row-major sense
//! order) couples every draw to the traversal order, which forced the
//! tiled sensing path back onto a sequential sweep whenever
//! `read_noise_rel > 0`. With a counter RNG the draw for a cell depends
//! only on *which* read touched *which* cell, never on which thread got
//! there first.

use std::f64::consts::PI;

use serde::{Deserialize, Serialize};

/// Philox2x64-10 constants (Salmon et al., "Parallel random numbers:
/// as easy as 1, 2, 3", SC'11).
const PHILOX_M: u64 = 0xD2B7_4407_B1CE_6E93;
const PHILOX_W: u64 = 0x9E37_79B9_7F4A_7C15;
const PHILOX_ROUNDS: u32 = 10;

/// A keyed Philox2x64-10 counter RNG.
///
/// `next_pair(c0, c1)` maps a 128-bit counter to two independent `u64`
/// words; identical `(key, counter)` always yields identical output, so
/// draws may be evaluated in any order on any thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhiloxCounterRng {
    key: u64,
}

impl PhiloxCounterRng {
    /// New generator under `key`. Distinct keys give statistically
    /// independent streams.
    pub fn new(key: u64) -> PhiloxCounterRng {
        PhiloxCounterRng { key }
    }

    /// The stream key.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// One Philox2x64-10 block: counter `(c0, c1)` → two output words.
    fn next_pair(&self, mut c0: u64, mut c1: u64) -> (u64, u64) {
        let mut key = self.key;
        for _ in 0..PHILOX_ROUNDS {
            let product = (PHILOX_M as u128) * (c0 as u128);
            let hi = (product >> 64) as u64;
            let lo = product as u64;
            c0 = hi ^ key ^ c1;
            c1 = lo;
            key = key.wrapping_add(PHILOX_W);
        }
        (c0, c1)
    }

    /// Two uniforms in `[0, 1)` from one counter block (53-bit mantissa
    /// precision, the standard `bits >> 11` construction).
    fn uniform_pair(&self, c0: u64, c1: u64) -> (f64, f64) {
        let (a, b) = self.next_pair(c0, c1);
        (u64_to_unit_f64(a), u64_to_unit_f64(b))
    }

    /// A standard-normal draw for counter `(c0, c1)` via the Box–Muller
    /// cosine branch (the same transform [`VariationSampler`] uses, so
    /// both noise paths share one distributional idiom).
    ///
    /// [`VariationSampler`]: crate::VariationSampler
    pub fn standard_normal(&self, c0: u64, c1: u64) -> f64 {
        let (u1, u2) = self.uniform_pair(c0, c1);
        let u1 = u1.max(f64::MIN_POSITIVE);
        (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
    }
}

/// Map a `u64` to `[0, 1)` keeping the top 53 bits.
fn u64_to_unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Multiplicative read-noise source for sensed currents: a counter RNG
/// keyed per array plus the relative noise magnitude.
///
/// Each draw is addressed by `(read_ordinal, row, col)` — the array's
/// monotonically increasing read counter and the cell's *global*
/// coordinates. Within one read every driven cell is sensed exactly
/// once, so the triple uniquely identifies a draw regardless of which
/// stripe, chunk, or thread evaluates it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReadNoise {
    rng: PhiloxCounterRng,
    rel: f64,
}

impl ReadNoise {
    /// Noise source with relative sigma `rel` under `key`.
    pub fn new(key: u64, rel: f64) -> ReadNoise {
        ReadNoise {
            rng: PhiloxCounterRng::new(key),
            rel,
        }
    }

    /// Relative standard deviation of the multiplicative noise.
    pub fn rel(&self) -> f64 {
        self.rel
    }

    /// The multiplicative gain `1 + rel * N(0, 1)` for the cell at
    /// global `(row, col)` during read `ordinal`. Exactly `1.0` when the
    /// source is silent.
    pub fn gain(&self, ordinal: u64, row: usize, col: usize) -> f64 {
        if self.rel == 0.0 {
            return 1.0;
        }
        let cell = ((row as u64) << 32) | (col as u64 & 0xFFFF_FFFF);
        1.0 + self.rel * self.rng.standard_normal(ordinal, cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn normal_stream(rng: &PhiloxCounterRng, n: usize) -> Vec<f64> {
        (0..n).map(|i| rng.standard_normal(i as u64, 0)).collect()
    }

    #[test]
    fn draws_are_pure_functions_of_key_and_counter() {
        let a = PhiloxCounterRng::new(42);
        let b = PhiloxCounterRng::new(42);
        for c0 in [0u64, 1, 7, u64::MAX] {
            for c1 in [0u64, 3, u64::MAX - 1] {
                assert_eq!(a.next_pair(c0, c1), b.next_pair(c0, c1));
                assert_eq!(a.standard_normal(c0, c1), b.standard_normal(c0, c1));
            }
        }
        let c = PhiloxCounterRng::new(43);
        assert_ne!(a.next_pair(0, 0), c.next_pair(0, 0));
    }

    #[test]
    fn normal_draws_have_standard_moments_and_tails() {
        let rng = PhiloxCounterRng::new(0xFEC1);
        let n = 200_000;
        let samples = normal_stream(&rng, n);
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.01, "mean={mean}");
        assert!((var - 1.0).abs() < 0.02, "var={var}");
        // Tail mass: P(|X| > 2) ≈ 4.55 %, P(|X| > 3) ≈ 0.27 %.
        let beyond2 = samples.iter().filter(|x| x.abs() > 2.0).count() as f64 / n as f64;
        let beyond3 = samples.iter().filter(|x| x.abs() > 3.0).count() as f64 / n as f64;
        assert!((beyond2 - 0.0455).abs() < 0.005, "P(|X|>2)={beyond2}");
        assert!((beyond3 - 0.0027).abs() < 0.0015, "P(|X|>3)={beyond3}");
    }

    #[test]
    fn adjacent_counters_are_decorrelated() {
        // Key avalanche: draws at neighbouring ordinals / cells must look
        // independent — sample correlation near zero and roughly half the
        // output bits flipping between adjacent counters.
        let rng = PhiloxCounterRng::new(0xABCD);
        let n = 50_000;
        let mut lag_products = 0.0;
        let mut bit_flips = 0u32;
        let mut pairs = 0u32;
        for i in 0..n {
            let x = rng.standard_normal(i, 0);
            let y = rng.standard_normal(i + 1, 0);
            let z = rng.standard_normal(i, 1);
            lag_products += x * y + x * z;
            let (a0, _) = rng.next_pair(i, 0);
            let (b0, _) = rng.next_pair(i + 1, 0);
            bit_flips += (a0 ^ b0).count_ones();
            pairs += 1;
        }
        let corr = lag_products / (2.0 * n as f64);
        assert!(corr.abs() < 0.01, "lag correlation={corr}");
        let mean_flips = f64::from(bit_flips) / f64::from(pairs);
        assert!(
            (mean_flips - 32.0).abs() < 1.0,
            "mean bit flips={mean_flips}"
        );
    }

    #[test]
    fn pinned_stream_golden() {
        // The exact output words and normal draws are part of the repro
        // contract: any change here silently invalidates every committed
        // DeviceAccurate golden. Never update these values casually.
        let rng = PhiloxCounterRng::new(0x1234_5678_9ABC_DEF0);
        assert_eq!(
            rng.next_pair(0, 0),
            (6786042769349037055, 11326669776442810550)
        );
        assert_eq!(
            rng.next_pair(1, 0),
            (7028900182397414914, 3977605205227953127)
        );
        assert_eq!(
            rng.next_pair(0, 1),
            (6320041209167587973, 16475792235501943709)
        );
        let draws: Vec<f64> = (0..4).map(|i| rng.standard_normal(i, 7)).collect();
        assert_eq!(
            draws,
            vec![
                -1.5446458881347234,
                0.38764754954098485,
                -1.1616307565933337,
                0.5295100792778569,
            ]
        );
    }

    #[test]
    fn silent_noise_is_exactly_unity() {
        let noise = ReadNoise::new(99, 0.0);
        assert_eq!(noise.rel(), 0.0);
        for ordinal in 0..8 {
            assert_eq!(noise.gain(ordinal, 3, 5), 1.0);
        }
    }

    #[test]
    fn gain_scale_tracks_rel() {
        let noise = ReadNoise::new(0xFEC1, 0.02);
        let n = 100_000usize;
        let gains: Vec<f64> = (0..n).map(|i| noise.gain(i as u64, 1, 2)).collect();
        let mean = gains.iter().sum::<f64>() / n as f64;
        let var = gains.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.001, "mean={mean}");
        assert!((var.sqrt() - 0.02).abs() < 0.001, "sigma={}", var.sqrt());
    }

    #[test]
    fn gain_is_order_independent() {
        let noise = ReadNoise::new(7, 0.05);
        let forward: Vec<f64> = (0..64).map(|c| noise.gain(3, c / 8, c % 8)).collect();
        let backward: Vec<f64> = (0..64).rev().map(|c| noise.gain(3, c / 8, c % 8)).collect();
        let reversed: Vec<f64> = backward.into_iter().rev().collect();
        assert_eq!(forward, reversed);
    }
}
