//! Inverse-CDF zipf sampler (the vendored `rand` has no zipf
//! distribution).

use rand::rngs::StdRng;
use rand::Rng;

/// Samples ranks `0..n` with probability proportional to
/// `1 / (rank + 1)^s`.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// A sampler over `n` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// The cumulative distribution, one entry per rank, ending at 1.
    pub fn cdf(&self) -> &[f64] {
        &self.cdf
    }

    /// Draws one rank in `0..n`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn cdf_follows_the_harmonic_weights() {
        let z = ZipfSampler::new(4, 1.0);
        let h4 = 1.0 + 0.5 + 1.0 / 3.0 + 0.25;
        let expected = [1.0 / h4, 1.5 / h4, (1.5 + 1.0 / 3.0) / h4, 1.0];
        for (got, want) in z.cdf().iter().zip(expected) {
            assert!((got - want).abs() < 1e-12, "{got} vs {want}");
        }
    }

    #[test]
    fn samples_match_the_cdf_and_stay_in_range() {
        let z = ZipfSampler::new(50, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 50];
        const DRAWS: usize = 200_000;
        for _ in 0..DRAWS {
            counts[z.sample(&mut rng)] += 1;
        }
        let head = counts[0] as f64 / DRAWS as f64;
        assert!((head - z.cdf()[0]).abs() < 0.01, "rank 0 share {head}");
        let first_ten: usize = counts[..10].iter().sum();
        let share = first_ten as f64 / DRAWS as f64;
        assert!((share - z.cdf()[9]).abs() < 0.01, "top-10 share {share}");
    }
}
