//! Losses and policy heads.

use crate::nn::matrix::Matrix;

/// Numerically-stable softmax over one logits row, restricted to the
/// positions where `mask` is `true`. Masked positions get probability 0.
///
/// Action masking is how the agents keep the fixed-width `n_max²` action
/// layer valid for smaller queries: invalid pair actions are masked out
/// before sampling.
/// # Degenerate rows
///
/// * All positions masked: there is nothing to normalise over, so the
///   result is all zeros — callers treat this as a bug in the mask
///   (environments always expose at least one action).
/// * At least one valid position but a degenerate `sum` (NaN logits,
///   all valid logits `−∞`, or a non-finite maximum): the result is
///   **uniform over the valid positions**. Previously these rows came
///   back as all-zero or all-NaN and surfaced much later as the
///   sampler's far-from-root-cause "mask has a valid action" panic.
pub fn masked_softmax(logits: &[f32], mask: &[bool]) -> Vec<f32> {
    debug_assert_eq!(logits.len(), mask.len());
    let valid = || mask.iter().enumerate().filter(|(_, &m)| m).map(|(i, _)| i);
    let mut probs: Vec<f32> = valid().map(|i| logits[i]).collect();
    softmax_in_place(&mut probs);
    let mut out = vec![0.0f32; logits.len()];
    for (i, p) in valid().zip(probs) {
        out[i] = p;
    }
    out
}

/// [`masked_softmax`] with every position valid, overwriting the logits
/// with their probabilities: what a caller that has already gathered the
/// valid logits uses. A degenerate row comes back uniform, as there.
pub(crate) fn softmax_in_place(logits: &mut [f32]) {
    if logits.is_empty() {
        return;
    }
    let mut max = f32::NEG_INFINITY;
    for &l in logits.iter() {
        if l > max {
            max = l;
        }
    }
    let mut sum = 0.0f32;
    if max.is_finite() {
        for l in logits.iter_mut() {
            *l = (*l - max).exp();
            sum += *l;
        }
    }
    if sum > 0.0 && sum.is_finite() {
        for p in logits.iter_mut() {
            *p /= sum;
        }
    } else {
        // NaN logits poison `sum`; all-NaN or all-−∞ logits leave `max`
        // non-finite. Fall back to uniform so downstream
        // sampling/argmax stays well-defined.
        logits.fill(1.0 / logits.len() as f32);
    }
}

/// [`masked_softmax`] over every row of a B×A logits matrix with
/// per-row masks. Row `r` of the result is bit-identical to
/// `masked_softmax(logits.row(r), masks[r])` — the batched update path
/// relies on this to preserve per-row parity.
pub(crate) fn masked_softmax_batch(logits: &Matrix, masks: &[&[bool]]) -> Matrix {
    assert_eq!(
        logits.rows(),
        masks.len(),
        "masked_softmax_batch: {} logits rows vs {} masks",
        logits.rows(),
        masks.len()
    );
    let cols = logits.cols();
    let mut out = Matrix::zeros(logits.rows(), cols);
    for (r, mask) in masks.iter().enumerate() {
        let probs = masked_softmax(logits.row(r), mask);
        out.data_mut()[r * cols..(r + 1) * cols].copy_from_slice(&probs);
    }
    out
}

/// Gradient of `-log π(action)` w.r.t. the logits row, scaled by
/// `advantage`: the REINFORCE policy-gradient contribution
/// `(π − onehot(action)) · advantage`, with masked positions zeroed.
pub(crate) fn policy_gradient(
    logits: &[f32],
    mask: &[bool],
    action: usize,
    advantage: f32,
) -> Vec<f32> {
    policy_gradient_from_probs(&masked_softmax(logits, mask), mask, action, advantage)
}

/// [`policy_gradient`] from an already-computed probability row, for
/// callers (an entropy bonus) that need the softmax anyway —
/// the probabilities are not recomputed.
pub(crate) fn policy_gradient_from_probs(
    probs: &[f32],
    mask: &[bool],
    action: usize,
    advantage: f32,
) -> Vec<f32> {
    let mut grad = probs.to_vec();
    grad[action] -= 1.0;
    for (g, &m) in grad.iter_mut().zip(mask) {
        if m {
            *g *= advantage;
        } else {
            *g = 0.0;
        }
    }
    grad
}

/// Mean-squared-error loss and gradient for a batch of scalar predictions:
/// returns `(loss, grad_matrix)` with `grad = 2 (pred − target) / n`.
pub(crate) fn mse_grad(predictions: &Matrix, targets: &[f32]) -> (f32, Matrix) {
    debug_assert_eq!(predictions.rows(), targets.len());
    debug_assert_eq!(predictions.cols(), 1);
    let n = targets.len().max(1) as f32;
    let mut grad = Matrix::zeros(predictions.rows(), 1);
    let mut loss = 0.0f32;
    #[allow(clippy::needless_range_loop)] // index drives both matrices
    for i in 0..predictions.rows() {
        let diff = predictions.get(i, 0) - targets[i];
        loss += diff * diff;
        grad.set(i, 0, 2.0 * diff / n);
    }
    (loss / n, grad)
}

/// Entropy of a (masked) probability distribution, in nats. Used for
/// exploration bonuses.
pub(crate) fn entropy(probs: &[f32]) -> f32 {
    probs
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| -p * p.ln())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one_over_mask() {
        let logits = vec![1.0, 2.0, 3.0, 4.0];
        let mask = vec![true, false, true, true];
        let p = masked_softmax(&logits, &mask);
        assert_eq!(p[1], 0.0);
        let sum: f32 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        // Higher logits → higher probability.
        assert!(p[3] > p[2] && p[2] > p[0]);
    }

    #[test]
    fn softmax_handles_extreme_logits() {
        let logits = vec![1000.0, -1000.0];
        let mask = vec![true, true];
        let p = masked_softmax(&logits, &mask);
        assert!((p[0] - 1.0).abs() < 1e-6);
        assert!(p[1] < 1e-6);
        assert!(p.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn softmax_all_masked_is_zero() {
        let p = masked_softmax(&[1.0, 2.0], &[false, false]);
        assert_eq!(p, vec![0.0, 0.0]);
        // NaN logits don't change the all-masked contract.
        let p = masked_softmax(&[f32::NAN, f32::NAN], &[false, false]);
        assert_eq!(p, vec![0.0, 0.0]);
    }

    /// Regression (degenerate-softmax bugfix): a NaN logit used to
    /// poison the whole row into NaN/zero probabilities, surfacing much
    /// later as the sampler's "mask has a valid action" panic. Rows
    /// with ≥1 valid position and a degenerate sum now come back
    /// uniform over the valid set.
    #[test]
    fn softmax_nan_logit_row_is_uniform_over_valid() {
        let p = masked_softmax(&[f32::NAN, 1.0, 2.0, 0.0], &[true, true, true, false]);
        assert_eq!(p, vec![1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 0.0]);
        // All valid logits NaN.
        let p = masked_softmax(&[f32::NAN, f32::NAN], &[true, true]);
        assert_eq!(p, vec![0.5, 0.5]);
        // NaN hiding on a *masked* position must not degrade the row.
        let p = masked_softmax(&[f32::NAN, 0.0, 0.0], &[false, true, true]);
        assert_eq!(p, vec![0.0, 0.5, 0.5]);
        assert!(p.iter().all(|x| x.is_finite()));
    }

    /// Regression (degenerate-softmax bugfix): all valid logits at −∞
    /// (or a +∞ max, whose shifted exponentials are NaN) previously
    /// produced an all-zero / NaN row despite valid actions existing.
    #[test]
    fn softmax_non_finite_extremes_are_uniform_over_valid() {
        let ninf = f32::NEG_INFINITY;
        let p = masked_softmax(&[ninf, ninf, 1.0], &[true, true, false]);
        assert_eq!(p, vec![0.5, 0.5, 0.0]);
        let p = masked_softmax(&[f32::INFINITY, 0.0], &[true, true]);
        assert_eq!(p, vec![0.5, 0.5]);
    }

    #[test]
    fn batch_helpers_match_per_row_bitwise() {
        let logits = Matrix::from_vec(
            3,
            4,
            vec![
                0.3,
                -1.2,
                2.7,
                0.05, // plain row
                1e3,
                -1e3,
                0.0,
                4.5, // extreme row
                f32::NAN,
                0.5,
                0.5,
                0.0, // degenerate row
            ],
        );
        let masks_owned = [
            vec![true, true, false, true],
            vec![true, true, true, true],
            vec![true, true, true, false],
        ];
        let masks: Vec<&[bool]> = masks_owned.iter().map(|m| m.as_slice()).collect();

        let probs = masked_softmax_batch(&logits, &masks);
        for (r, mask) in masks.iter().enumerate() {
            let row_probs = masked_softmax(logits.row(r), mask);
            assert_eq!(probs.row(r), &row_probs[..], "softmax row {r}");
        }
    }

    #[test]
    fn policy_gradient_direction() {
        let logits = vec![0.0, 0.0, 0.0];
        let mask = vec![true, true, true];
        // Positive advantage: chosen action's gradient is negative
        // (gradient descent increases its logit).
        let g = policy_gradient(&logits, &mask, 1, 1.0);
        assert!(g[1] < 0.0);
        assert!(g[0] > 0.0 && g[2] > 0.0);
        // Negative advantage flips the direction.
        let g = policy_gradient(&logits, &mask, 1, -1.0);
        assert!(g[1] > 0.0);
    }

    #[test]
    fn mse_on_perfect_prediction_is_zero() {
        let preds = Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]);
        let (loss, grad) = mse_grad(&preds, &[1.0, 2.0, 3.0]);
        assert_eq!(loss, 0.0);
        assert!(grad.data().iter().all(|&g| g == 0.0));
        let (loss2, grad2) = mse_grad(&preds, &[0.0, 2.0, 3.0]);
        assert!(loss2 > 0.0);
        assert!(grad2.get(0, 0) > 0.0);
    }

    #[test]
    fn entropy_maximal_for_uniform() {
        let uniform = vec![0.25; 4];
        let peaked = vec![0.97, 0.01, 0.01, 0.01];
        assert!(entropy(&uniform) > entropy(&peaked));
        assert!((entropy(&uniform) - (4.0f32).ln()).abs() < 1e-6);
    }
}
