//! Weight initialisation.

use crate::nn::matrix::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

/// Samples a standard normal via Box-Muller.
pub(crate) fn normal(rng: &mut StdRng) -> f32 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

/// Xavier/Glorot-normal initialisation for a `[fan_in × fan_out]` weight
/// matrix: `N(0, 2 / (fan_in + fan_out))`.
pub(crate) fn xavier(fan_in: usize, fan_out: usize, rng: &mut StdRng) -> Matrix {
    let std = (2.0 / (fan_in + fan_out) as f32).sqrt();
    let data = (0..fan_in * fan_out).map(|_| normal(rng) * std).collect();
    Matrix::from_vec(fan_in, fan_out, data)
}

/// He-normal initialisation (`N(0, 2 / fan_in)`), preferred before ReLU.
pub(crate) fn he(fan_in: usize, fan_out: usize, rng: &mut StdRng) -> Matrix {
    let std = (2.0 / fan_in as f32).sqrt();
    let data = (0..fan_in * fan_out).map(|_| normal(rng) * std).collect();
    Matrix::from_vec(fan_in, fan_out, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn normal_has_reasonable_moments() {
        let mut rng = StdRng::seed_from_u64(0);
        let samples: Vec<f32> = (0..10_000).map(|_| normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / samples.len() as f32;
        let var =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / samples.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn xavier_scale_shrinks_with_width() {
        let mut rng = StdRng::seed_from_u64(1);
        let wide = xavier(1000, 1000, &mut rng);
        let narrow = xavier(4, 4, &mut rng);
        let spread =
            |m: &Matrix| m.data().iter().map(|x| x * x).sum::<f32>() / m.data().len() as f32;
        assert!(spread(&wide) < spread(&narrow));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = xavier(8, 8, &mut StdRng::seed_from_u64(9));
        let b = xavier(8, 8, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
        let c = he(8, 8, &mut StdRng::seed_from_u64(9));
        let d = he(8, 8, &mut StdRng::seed_from_u64(9));
        assert_eq!(c, d);
    }
}
