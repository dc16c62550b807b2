//! Policy snapshots: the rollout-only view of a policy-gradient agent.
//!
//! Parallel episode collection (Balsa-style simultaneous agents) needs
//! worker threads that *act* with a frozen copy of the policy while the
//! learner thread keeps the mutable optimizer state. [`PolicySnapshot`]
//! is that frozen copy: plain owned weights (`Send + Sync`) laid out for
//! batch-1 inference, masked softmax action selection, and the episode
//! rollout loop. [`ReinforceAgent`](crate::rl::ReinforceAgent) keeps its
//! policy *as* a snapshot and acts through it, so a snapshot consumes
//! the RNG stream *identically* to the live agent — the property the
//! `workers = 1` determinism-parity contract rests on.

use crate::nn::build::Build;
use crate::nn::infer::transposed_head;
use crate::nn::matrix::{compact, Matrix};
use crate::nn::{loss, InferScratch, Mlp};
use crate::rl::env::Environment;
use crate::rl::episode::{Episode, Transition};
use rand::rngs::StdRng;
use rand::Rng;
use std::cmp::Ordering;

/// A frozen, shareable copy of a policy network.
///
/// Beside the weights it keeps the output layer transposed, the layout
/// batch-1 inference reads it in — and the one the backward pass
/// multiplies the output gradient by — built once per set of weights.
/// Cloning is the only cost; everything else is read-only, so one
/// snapshot can be shared across worker threads behind an `Arc`.
#[derive(Debug, Clone)]
pub struct PolicySnapshot {
    policy: Mlp,
    /// `policy`'s output layer transposed ([`transposed_head`]).
    head: Matrix,
}

// Snapshots cross thread boundaries by design; `Mlp` is plain owned
// data, so this holds structurally — the assertion makes the contract
// explicit and breaks the build if interior mutability ever sneaks in.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PolicySnapshot>();
};

/// Action selection with the buffers it reuses from step to step: the
/// legal actions of the current mask, the state's non-zeros, their
/// logits, and the network's activations. Only the legal actions'
/// logits are computed ([`PolicySnapshot::logits_at`]), and each is bit
/// for bit [`Mlp::predict`]'s, so the action and probability are what a
/// masked softmax over the full logits row gives — masked entries carry
/// probability zero there and can neither win the argmax nor be sampled.
#[derive(Debug, Clone, Default)]
pub struct Selector {
    legal: Vec<usize>,
    nonzero: Vec<(usize, f32)>,
    /// The legal actions' logits, then their probabilities.
    probs: Vec<f32>,
    scratch: InferScratch,
}

impl Selector {
    /// Samples an action from the masked softmax over `policy`'s logits
    /// for the dense state row `features` (or takes the mode when
    /// `greedy`; of equal modes, the last). Returns the action and its
    /// probability.
    ///
    /// Panics when `mask` allows no action.
    pub fn select(
        &mut self,
        policy: &PolicySnapshot,
        features: &[f32],
        mask: &[bool],
        rng: &mut StdRng,
        greedy: bool,
    ) -> (usize, f32) {
        assert_eq!(
            features.len(),
            policy.policy.input_size(),
            "input width mismatch"
        );
        let mut legal = std::mem::take(&mut self.legal);
        let mut nonzero = std::mem::take(&mut self.nonzero);
        legal.clear();
        legal.extend(mask.iter().enumerate().filter(|(_, &m)| m).map(|(i, _)| i));
        compact(features, &mut nonzero);
        let chosen = self.select_legal(policy, &nonzero, &legal, rng, greedy);
        self.legal = legal;
        self.nonzero = nonzero;
        chosen
    }

    /// [`Self::select`] for a state given as its non-zeros, `(p, value)`
    /// pairs in ascending `p` (as
    /// [`RolloutState::nonzeros`](crate::RolloutState::nonzeros) keeps
    /// them), over the actions a mask allows, given as their ids in
    /// ascending order (as
    /// [`RolloutState::legal_actions`](crate::RolloutState::legal_actions)
    /// writes them).
    ///
    /// Panics when `legal` is empty.
    pub fn select_legal(
        &mut self,
        policy: &PolicySnapshot,
        nonzeros: &[(usize, f32)],
        legal: &[usize],
        rng: &mut StdRng,
        greedy: bool,
    ) -> (usize, f32) {
        debug_assert!(legal.is_sorted_by(|a, b| a < b), "legal actions ascend");
        let Self { probs, scratch, .. } = self;
        // Fail at the root cause: an all-masked row used to crawl
        // through the softmax as zeros and only blow up in the sampling
        // fallback below.
        let first_valid = *legal.first().expect("action mask has no valid action");
        policy.logits_at(nonzeros, legal, scratch, probs);
        // A NaN logit would poison every comparison below and silently
        // pick an arbitrary action. Detect it and fall back
        // deterministically to the first valid action (whose uniform
        // probability the degenerate softmax provides).
        let poisoned = probs.iter().any(|l| l.is_nan());
        loss::softmax_in_place(probs);
        if poisoned {
            return (first_valid, probs[0]);
        }
        if greedy {
            let (best, p) = probs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(Ordering::Equal))
                .expect("at least one legal action");
            return (legal[best], *p);
        }
        let draw: f32 = rng.gen();
        let mut acc = 0.0;
        for (&action, &p) in legal.iter().zip(probs.iter()) {
            if p <= 0.0 {
                continue;
            }
            acc += p;
            if draw <= acc {
                return (action, p);
            }
        }
        // Floating-point round-off can leave acc slightly below 1.
        let last = probs
            .iter()
            .rposition(|&p| p > 0.0)
            .expect("mask has a valid action");
        (legal[last], probs[last])
    }
}

impl PolicySnapshot {
    /// Wraps `policy`, laying its output layer out for inference.
    pub fn new(policy: Mlp) -> Self {
        let head = transposed_head(&policy, Build::host());
        Self { policy, head }
    }

    /// The frozen policy network.
    pub fn policy(&self) -> &Mlp {
        &self.policy
    }

    /// The policy's output layer transposed ([`transposed_head`]).
    pub(crate) fn head(&self) -> &Matrix {
        &self.head
    }

    /// Changes the weights through `train` (an optimizer step), then
    /// lays the new output layer out again through `build`: the
    /// snapshot never serves one generation's head with another's
    /// weights.
    pub(crate) fn retrain(&mut self, build: Build, train: impl FnOnce(&mut Mlp)) {
        train(&mut self.policy);
        self.head = transposed_head(&self.policy, build);
    }

    /// The policy's logits at the columns `outputs` for a state given
    /// as its non-zeros, `(p, value)` pairs in ascending `p`: bit for
    /// bit [`Mlp::predict`]'s at those columns. `logits` is cleared
    /// first; nothing is allocated once `scratch` and `logits` have
    /// grown to the network's widths.
    pub fn logits_at(
        &self,
        nonzeros: &[(usize, f32)],
        outputs: &[usize],
        scratch: &mut InferScratch,
        logits: &mut Vec<f32>,
    ) {
        self.policy
            .logits_at(self.head.data(), nonzeros, outputs, scratch, logits);
    }

    /// Samples an action from the masked softmax over the policy's
    /// logits (or takes the mode when `greedy`). Returns the action and
    /// its probability under the policy. One-off: a rollout keeps a
    /// [`Selector`] across its steps instead.
    pub fn select_action(
        &self,
        features: &[f32],
        mask: &[bool],
        rng: &mut StdRng,
        greedy: bool,
    ) -> (usize, f32) {
        Selector::default().select(self, features, mask, rng, greedy)
    }

    /// Rolls out one episode in `env` with the frozen policy.
    pub(crate) fn run_episode<E: Environment>(
        &self,
        env: &mut E,
        rng: &mut StdRng,
        greedy: bool,
    ) -> Episode {
        env.reset(rng);
        let mut episode = Episode::new();
        let mut features = Vec::with_capacity(env.state_dim());
        let mut mask = Vec::with_capacity(env.action_dim());
        let mut selector = Selector::default();
        while !env.is_terminal() {
            env.state_features(&mut features);
            env.action_mask(&mut mask);
            let (action, _prob) = selector.select(self, &features, &mask, rng, greedy);
            let result = env.step(action, rng);
            episode.transitions.push(Transition {
                features: features.clone(),
                mask: mask.clone(),
                action,
                reward: result.reward,
            });
            if result.done {
                break;
            }
        }
        episode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rl::env::toy::Bandit;
    use crate::rl::{ReinforceAgent, ReinforceConfig};
    use rand::SeedableRng;

    #[test]
    fn snapshot_matches_live_agent_action_stream() {
        let mut rng = StdRng::seed_from_u64(0);
        let agent = ReinforceAgent::new(
            1,
            3,
            ReinforceConfig {
                hidden: vec![8],
                ..Default::default()
            },
            &mut rng,
        );
        let snapshot = agent.snapshot();
        let mask = [true; 3];
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let a = agent.select_action(&[1.0], &mask, &mut rng_a, false);
            let b = snapshot.select_action(&[1.0], &mask, &mut rng_b, false);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn snapshot_rollout_matches_live_agent() {
        let mut rng = StdRng::seed_from_u64(1);
        let agent = ReinforceAgent::new(
            1,
            2,
            ReinforceConfig {
                hidden: vec![8],
                ..Default::default()
            },
            &mut rng,
        );
        let snapshot = agent.snapshot();
        let mut env_a = Bandit::new(vec![0.3, 0.7]);
        let mut env_b = Bandit::new(vec![0.3, 0.7]);
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        let ea = agent.run_episode(&mut env_a, &mut rng_a, false);
        let eb = snapshot.run_episode(&mut env_b, &mut rng_b, false);
        assert_eq!(ea.transitions.len(), eb.transitions.len());
        for (a, b) in ea.transitions.iter().zip(&eb.transitions) {
            assert_eq!(a.action, b.action);
            assert_eq!(a.reward, b.reward);
        }
    }

    /// Regression (NaN-unsafe greedy selection bugfix): a NaN logit
    /// used to propagate through `masked_softmax` and
    /// `max_by(partial_cmp…unwrap_or(Equal))`, silently picking an
    /// arbitrary — possibly masked — action. Selection must now fall
    /// back deterministically to the first valid action, greedy or
    /// sampled.
    #[test]
    fn nan_logits_fall_back_to_first_valid_action() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut policy = Mlp::new(&[2, 4, 4], crate::nn::Activation::ReLU, &mut rng);
        // Poison the network: every logit becomes NaN for any input.
        for w in policy.layers_mut()[0].w.data_mut() {
            *w = f32::NAN;
        }
        let snapshot = PolicySnapshot::new(policy);
        let mask = [false, true, true, false];
        for greedy in [false, true] {
            for _ in 0..10 {
                let (a, p) = snapshot.select_action(&[0.5, -0.5], &mask, &mut rng, greedy);
                assert_eq!(a, 1, "greedy={greedy}: must pick the first valid action");
                assert!(mask[a], "greedy={greedy}: picked a masked action");
                assert_eq!(p, 0.5, "uniform-over-valid probability");
            }
        }
    }

    /// Action selection as it was before [`Selector`]: the full logits
    /// row from [`Mlp::predict`], a masked softmax over all of it, the
    /// argmax or the sampling walk over every entry. Kept as the
    /// reference the selector is held equal to.
    fn reference_select(
        policy: &Mlp,
        features: &[f32],
        mask: &[bool],
        rng: &mut StdRng,
        greedy: bool,
    ) -> (usize, f32) {
        let first_valid = mask
            .iter()
            .position(|&m| m)
            .expect("action mask has no valid action");
        let x = crate::nn::Matrix::row_vector(features.to_vec());
        let logits = policy.predict(&x);
        let row = logits.row(0);
        let probs = loss::masked_softmax(row, mask);
        if row.iter().zip(mask).any(|(l, &m)| m && l.is_nan()) {
            return (first_valid, probs[first_valid]);
        }
        if greedy {
            let (best, p) = probs
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .expect("non-empty action space");
            return (best, *p);
        }
        let draw: f32 = rng.gen();
        let mut acc = 0.0;
        for (i, &p) in probs.iter().enumerate() {
            if p <= 0.0 {
                continue;
            }
            acc += p;
            if draw <= acc {
                return (i, p);
            }
        }
        let a = probs
            .iter()
            .rposition(|&p| p > 0.0)
            .expect("mask has a valid action");
        (a, probs[a])
    }

    /// Greedy and sampled, one selector kept across calls: the action,
    /// the probability's bits and the RNG stream are the reference's,
    /// over masks from one legal action to all of them.
    #[test]
    fn selector_matches_full_row_selection() {
        let mut rng = StdRng::seed_from_u64(5);
        let policy = Mlp::new(&[10, 16, 16, 25], crate::nn::Activation::ReLU, &mut rng);
        let snapshot = PolicySnapshot::new(policy.clone());
        let mut selector = Selector::default();
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        for case in 0..200usize {
            let features: Vec<f32> = (0..10)
                .map(|i| {
                    if (i + case) % 3 == 0 {
                        0.0
                    } else {
                        rng.gen::<f32>() - 0.5
                    }
                })
                .collect();
            let keep = 1 + case % 25;
            let mut mask: Vec<bool> = (0..25).map(|_| rng.gen_range(0..25usize) < keep).collect();
            mask[case % 25] = true;
            let greedy = case % 2 == 0;
            let got = selector.select(&snapshot, &features, &mask, &mut rng_a, greedy);
            let want = reference_select(&policy, &features, &mask, &mut rng_b, greedy);
            assert_eq!(
                (got.0, got.1.to_bits()),
                (want.0, want.1.to_bits()),
                "case {case}"
            );
        }
        assert_eq!(
            rng_a.gen::<u64>(),
            rng_b.gen::<u64>(),
            "RNG streams diverged"
        );
    }

    /// Of two legal actions with equal maximal logits the later wins —
    /// `max_by`'s rule, which the greedy golden logs were cut under.
    #[test]
    fn greedy_tie_goes_to_the_later_action() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut policy = Mlp::new(&[2, 4, 5], crate::nn::Activation::ReLU, &mut rng);
        // Zero weights: every logit is its bias.
        for layer in policy.layers_mut() {
            layer.w.data_mut().fill(0.0);
        }
        policy.layers_mut()[1].b = vec![9.0, 1.0, 3.0, 3.0, 2.0];
        let mask = [false, true, true, true, true];
        let snapshot = PolicySnapshot::new(policy.clone());
        let got = snapshot.select_action(&[0.5, -0.5], &mask, &mut rng, true);
        let want = reference_select(&policy, &[0.5, -0.5], &mask, &mut rng, true);
        assert_eq!(
            got.0, 3,
            "the later of the two maxima, and never the masked 9.0"
        );
        assert_eq!((got.0, got.1.to_bits()), (want.0, want.1.to_bits()));
    }

    /// Regression companion: an all-masked action space now panics at
    /// the selection site with a root-cause message instead of the old
    /// far-from-root-cause sampler panic.
    #[test]
    #[should_panic(expected = "action mask has no valid action")]
    fn all_masked_action_space_panics_with_clear_message() {
        let mut rng = StdRng::seed_from_u64(4);
        let agent = ReinforceAgent::new(
            2,
            3,
            ReinforceConfig {
                hidden: vec![4],
                ..Default::default()
            },
            &mut rng,
        );
        let _ = agent.select_action(&[0.0, 1.0], &[false, false, false], &mut rng, false);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn wrong_input_width_panics() {
        let mut rng = StdRng::seed_from_u64(8);
        let policy = Mlp::new(&[3, 2], crate::nn::Activation::ReLU, &mut rng);
        let _ = PolicySnapshot::new(policy).select_action(&[1.0], &[true, true], &mut rng, true);
    }

    #[test]
    fn greedy_selection_is_the_mode() {
        let mut rng = StdRng::seed_from_u64(2);
        let agent = ReinforceAgent::new(2, 4, ReinforceConfig::default(), &mut rng);
        let snapshot = agent.snapshot();
        let mask = [true, false, true, true];
        let (a, p) = snapshot.select_action(&[0.5, -0.5], &mask, &mut rng, true);
        assert!(mask[a]);
        assert!(p > 0.0);
        // Greedy ignores the RNG: the same call returns the same action.
        let (b, _) = snapshot.select_action(&[0.5, -0.5], &mask, &mut rng, true);
        assert_eq!(a, b);
    }
}
