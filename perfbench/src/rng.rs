//! Seeded generators for the operation streams.
//!
//! Everything a workload feeds the program comes from these, so a seed
//! fixes the stream exactly: no clock, address or thread timing enters.

/// SplitMix64 step; used to expand seeds and as a cheap integer mixer.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256** generator.
#[derive(Debug, Clone)]
pub struct Rng([u64; 4]);

impl Rng {
    /// A generator for one client stream: `seed` is the run's seed,
    /// `stream` separates workloads and threads.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut z = mix64(seed) ^ mix64(stream.wrapping_add(0x5EED));
        let mut s = [0u64; 4];
        for w in &mut s {
            z = mix64(z);
            *w = z;
        }
        Self(s)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `percent / 100`.
    pub fn percent(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// Zipf-distributed ranks in `0..n` (rank 0 most popular), using the
/// closed-form approximation of Gray et al. that YCSB uses: one `powf`
/// per draw after an O(n) set-up.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: f64,
    theta: f64,
    zetan: f64,
    alpha: f64,
    eta: f64,
}

impl Zipf {
    /// A distribution over `n >= 2` items with skew `theta` in `(0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n >= 2 && theta > 0.0 && theta < 1.0, "zipf: bad parameters");
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        let nf = n as f64;
        Self {
            n: nf,
            theta,
            zetan,
            alpha: 1.0 / (1.0 - theta),
            eta: (1.0 - (2.0 / nf).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let rank = (self.n * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n as u64 - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1 << 16, 0.99);
        let mut rng = Rng::new(1, 2);
        let mut top = 0;
        for _ in 0..100_000 {
            let r = z.sample(&mut rng);
            assert!(r < 1 << 16);
            if r < 16 {
                top += 1;
            }
        }
        // Under Zipf(0.99) over 64 Ki items the 16 hottest take ~28 %.
        assert!((20_000..40_000).contains(&top), "top-16 share {top}");
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::new(3, 4);
        for n in 1..100 {
            assert!(rng.below(n) < n);
        }
    }
}
