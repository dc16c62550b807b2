//! The reward-prediction function for learning from demonstration.
//!
//! §5.1's recipe: train a network to predict, for each `(state, action)`
//! pair in an expert history, the eventual episode quality (the paper uses
//! query latency `L_q`). At plan time the agent runs every valid action
//! through this function and picks the one predicted to be cheapest, with
//! a small ε-probability of exploring another valid action.

use crate::nn::build::Build;
use crate::nn::{loss, Activation, Adam, Matrix, Mlp, MlpGradients};
use crate::rl::reinforce::GRAD_CLIP;
use rand::rngs::StdRng;
use rand::Rng;

/// Reward-model hyperparameters. Gradients are clipped at the policy's
/// global norm (5.0).
#[derive(Debug, Clone)]
pub struct RewardModelConfig {
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Adam learning rate.
    pub lr: f32,
}

impl Default for RewardModelConfig {
    fn default() -> Self {
        Self {
            hidden: vec![128, 64],
            lr: 1e-3,
        }
    }
}

/// Predicts the episode outcome (e.g. latency) of taking `action` in a
/// state. Input is the state features concatenated with a one-hot action
/// encoding; output is a scalar.
pub struct RewardModel {
    net: Mlp,
    optimizer: Adam,
    /// The gradients of the last step, kept so a step overwrites them
    /// instead of allocating a set.
    grads: MlpGradients,
    state_dim: usize,
    action_dim: usize,
}

impl RewardModel {
    /// Creates a model for the given dimensions.
    pub fn new(
        state_dim: usize,
        action_dim: usize,
        config: RewardModelConfig,
        rng: &mut StdRng,
    ) -> Self {
        let mut sizes = vec![state_dim + action_dim];
        sizes.extend_from_slice(&config.hidden);
        sizes.push(1);
        let net = Mlp::new(&sizes, Activation::ReLU, rng);
        Self {
            grads: MlpGradients::zeros_like(&net),
            net,
            optimizer: Adam::new(config.lr),
            state_dim,
            action_dim,
        }
    }

    /// State feature width.
    pub fn state_dim(&self) -> usize {
        self.state_dim
    }

    /// Action count.
    pub fn action_dim(&self) -> usize {
        self.action_dim
    }

    fn encode(&self, features: &[f32], action: usize) -> Vec<f32> {
        debug_assert_eq!(features.len(), self.state_dim);
        debug_assert!(action < self.action_dim);
        let mut row = Vec::with_capacity(self.state_dim + self.action_dim);
        row.extend_from_slice(features);
        row.resize(self.state_dim + self.action_dim, 0.0);
        row[self.state_dim + action] = 1.0;
        row
    }

    /// Predicted outcome of `(state, action)`.
    pub fn predict(&self, features: &[f32], action: usize) -> f32 {
        let x = Matrix::row_vector(self.encode(features, action));
        self.net.predict(&x).get(0, 0)
    }

    /// Predicted outcome for every action; invalid actions get `+∞` so a
    /// minimum search never picks them.
    pub(crate) fn predict_all(&self, features: &[f32], mask: &[bool]) -> Vec<f32> {
        debug_assert_eq!(mask.len(), self.action_dim);
        // Batch all valid actions in one forward pass.
        let valid: Vec<usize> = (0..self.action_dim).filter(|&a| mask[a]).collect();
        let mut out = vec![f32::INFINITY; self.action_dim];
        if valid.is_empty() {
            return out;
        }
        let mut data = Vec::with_capacity(valid.len() * (self.state_dim + self.action_dim));
        for &a in &valid {
            data.extend_from_slice(&self.encode(features, a));
        }
        let x = Matrix::from_vec(valid.len(), self.state_dim + self.action_dim, data);
        let preds = self.net.predict(&x);
        for (i, &a) in valid.iter().enumerate() {
            out[a] = preds.get(i, 0);
        }
        out
    }

    /// ε-greedy minimum-prediction action selection.
    pub(crate) fn select_min(
        &self,
        features: &[f32],
        mask: &[bool],
        epsilon: f32,
        rng: &mut StdRng,
    ) -> usize {
        let valid: Vec<usize> = (0..self.action_dim).filter(|&a| mask[a]).collect();
        assert!(!valid.is_empty(), "no valid actions");
        if epsilon > 0.0 && rng.gen::<f32>() < epsilon {
            return valid[rng.gen_range(0..valid.len())];
        }
        let preds = self.predict_all(features, mask);
        valid
            .into_iter()
            .min_by(|&a, &b| {
                preds[a]
                    .partial_cmp(&preds[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("non-empty valid set")
    }

    /// One MSE training step over `(features, action, target)` samples;
    /// returns the batch loss.
    ///
    /// This is the batched NN path: the whole minibatch is one B×(S+A)
    /// matrix, one forward, one backward. The nn kernels accumulate
    /// batched gradients in row order, so the step is bit-identical to
    /// accumulating one forward/backward per sample (see the
    /// `batched_training_matches_per_row_reference` parity test).
    pub(crate) fn train_batch(&mut self, samples: &[(Vec<f32>, usize, f32)]) -> f32 {
        if samples.is_empty() {
            return 0.0;
        }
        let mut data = Vec::with_capacity(samples.len() * (self.state_dim + self.action_dim));
        let mut targets = Vec::with_capacity(samples.len());
        for (features, action, target) in samples {
            data.extend_from_slice(&self.encode(features, *action));
            targets.push(*target);
        }
        let x = Matrix::from_vec(samples.len(), self.state_dim + self.action_dim, data);
        let cache = self.net.forward(&x);
        let (l, grad) = loss::mse_grad(cache.output(), &targets);
        self.net
            .backward_into(Build::host(), &cache, grad, None, &mut self.grads);
        self.grads.clip_global_norm(GRAD_CLIP);
        self.optimizer.step(&mut self.net, &self.grads);
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn config() -> RewardModelConfig {
        RewardModelConfig {
            hidden: vec![32],
            lr: 0.01,
        }
    }

    #[test]
    fn learns_action_dependent_rewards() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = RewardModel::new(2, 3, config(), &mut rng);
        // Latency: action 0 → 10, action 1 → 1, action 2 → 5 (state-free).
        let samples: Vec<(Vec<f32>, usize, f32)> = vec![
            (vec![1.0, 0.0], 0, 10.0),
            (vec![1.0, 0.0], 1, 1.0),
            (vec![1.0, 0.0], 2, 5.0),
            (vec![0.0, 1.0], 0, 10.0),
            (vec![0.0, 1.0], 1, 1.0),
            (vec![0.0, 1.0], 2, 5.0),
        ];
        let first = model.train_batch(&samples);
        for _ in 0..500 {
            model.train_batch(&samples);
        }
        let last = model.train_batch(&samples);
        assert!(last < first * 0.05, "{first} → {last}");
        let chosen = model.select_min(&[1.0, 0.0], &[true; 3], 0.0, &mut rng);
        assert_eq!(chosen, 1);
        let preds = model.predict_all(&[1.0, 0.0], &[true; 3]);
        assert!(preds[1] < preds[2] && preds[2] < preds[0], "{preds:?}");
    }

    #[test]
    fn masked_actions_never_chosen() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = RewardModel::new(1, 4, config(), &mut rng);
        let mask = [false, false, true, false];
        for eps in [0.0, 0.5, 1.0] {
            for _ in 0..10 {
                assert_eq!(model.select_min(&[1.0], &mask, eps, &mut rng), 2);
            }
        }
        let preds = model.predict_all(&[1.0], &mask);
        assert!(preds[0].is_infinite() && preds[2].is_finite());
    }

    #[test]
    fn epsilon_explores() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = RewardModel::new(1, 2, config(), &mut rng);
        // Make action 0 clearly the minimum.
        for _ in 0..300 {
            model.train_batch(&[(vec![1.0], 0, 0.0), (vec![1.0], 1, 10.0)]);
        }
        let greedy: Vec<usize> = (0..50)
            .map(|_| model.select_min(&[1.0], &[true, true], 0.0, &mut rng))
            .collect();
        assert!(greedy.iter().all(|&a| a == 0));
        let explored: Vec<usize> = (0..100)
            .map(|_| model.select_min(&[1.0], &[true, true], 1.0, &mut rng))
            .collect();
        assert!(explored.contains(&1), "ε=1 never explored");
    }

    /// Parity anchor for the reward model's batched training step: one
    /// fused forward/backward over the B×(S+A) matrix must be
    /// bit-identical — loss, gradients, and the Adam step — to running
    /// one forward/backward per sample and accumulating the per-row MSE
    /// gradients in sample order.
    #[test]
    fn batched_training_matches_per_row_reference() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut model = RewardModel::new(2, 3, config(), &mut rng);
        let mut reference = model.net.clone();
        let mut ref_opt = Adam::new(config().lr);
        let samples: Vec<(Vec<f32>, usize, f32)> = vec![
            (vec![0.3, -0.7], 0, 4.0),
            (vec![1.0, 0.0], 2, 1.5),
            (vec![-0.2, 0.9], 1, 7.0),
            (vec![0.0, 0.0], 0, 2.5),
        ];
        let n = samples.len() as f32;
        for step in 0..25 {
            // Per-row reference: one forward/backward per sample, MSE
            // gradient 2·(pred − target)/n per row, accumulated in
            // sample order.
            let mut grads = MlpGradients::zeros_like(&reference);
            let mut ref_loss = 0.0f32;
            for (features, action, target) in &samples {
                let row = {
                    let mut row = features.clone();
                    row.resize(2 + 3, 0.0);
                    row[2 + action] = 1.0;
                    row
                };
                let cache = reference.forward(&Matrix::row_vector(row));
                let diff = cache.output().get(0, 0) - target;
                ref_loss += diff * diff;
                let g = reference.backward(&cache, Matrix::from_vec(1, 1, vec![2.0 * diff / n]));
                grads.add(&g);
            }
            grads.clip_global_norm(GRAD_CLIP);
            ref_opt.step(&mut reference, &grads);

            let batch_loss = model.train_batch(&samples);
            assert_eq!(batch_loss, ref_loss / n, "loss diverged at step {step}");
            assert_eq!(&model.net, &reference, "weights diverged at step {step}");
        }
    }

    #[test]
    fn empty_batch_is_noop() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = RewardModel::new(1, 2, config(), &mut rng);
        assert_eq!(model.train_batch(&[]), 0.0);
        assert_eq!(model.state_dim(), 1);
        assert_eq!(model.action_dim(), 2);
    }
}
