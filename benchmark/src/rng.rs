//! The benchmark's one random source: a splitmix64 stream, so the seed
//! alone fixes arrivals, keys and graphs on any host and toolchain.

pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// One exponential inter-arrival gap (a Poisson process of rate
    /// `1/mean_ns`), capped at 8× the mean so a single draw cannot park
    /// the arrival process for a whole window.
    pub fn exp_gap(&mut self, mean_ns: f64) -> u64 {
        let g = -mean_ns * (1.0 - self.next_f64()).ln();
        g.min(mean_ns * 8.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaps_have_the_asked_mean_and_cap() {
        let mut rng = SplitMix64::new(42);
        let n = 100_000;
        let gaps: Vec<u64> = (0..n).map(|_| rng.exp_gap(2e6)).collect();
        let mean = gaps.iter().sum::<u64>() as f64 / n as f64;
        assert!((mean / 2e6 - 1.0).abs() < 0.02, "mean gap {mean}");
        assert!(gaps.iter().all(|&g| g <= 16_000_000));
    }
}
