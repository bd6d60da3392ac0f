//! Minimal deterministic pseudo-random number generator.
//!
//! The workspace builds fully offline, so instead of depending on the `rand`
//! crate the generators use this small xoshiro256++ implementation (public
//! domain algorithm by Blackman & Vigna, seeded through SplitMix64 exactly as
//! the reference implementation recommends). It is *not* cryptographic — it
//! only has to be fast, well distributed and bit-for-bit reproducible across
//! platforms so every experiment and benchmark run can be replayed.

/// A small, seedable, reproducible PRNG (xoshiro256++).
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Creates a generator from a 64-bit seed (SplitMix64 state expansion).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Rng {
            s: [next(), next(), next(), next()],
        }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform draw from `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw from `[-1, 1]`.
    #[inline]
    pub fn unit_symmetric(&mut self) -> f64 {
        2.0 * self.next_f64() - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seed_from_u64(7);
        let mut b = Rng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn uniform_values_stay_in_range_and_spread() {
        let mut rng = Rng::seed_from_u64(42);
        let draws: Vec<f64> = (0..4096).map(|_| rng.unit_symmetric()).collect();
        assert!(draws.iter().all(|&x| (-1.0..=1.0).contains(&x)));
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!(mean.abs() < 0.05, "mean suspiciously far from 0: {mean}");
        assert!(draws.iter().any(|&x| x > 0.5) && draws.iter().any(|&x| x < -0.5));
    }
}
