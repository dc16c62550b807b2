//! Episode buffers and return computation.

/// One step of an episode.
#[derive(Debug, Clone)]
pub struct Transition {
    /// State features at decision time.
    pub features: Vec<f32>,
    /// Valid-action mask at decision time.
    pub mask: Vec<bool>,
    /// Action taken.
    pub action: usize,
    /// Immediate reward.
    pub reward: f32,
}

/// A completed episode.
#[derive(Debug, Clone, Default)]
pub struct Episode {
    /// Steps in order.
    pub(crate) transitions: Vec<Transition>,
}

impl Episode {
    /// An empty episode.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sum of rewards.
    #[cfg(test)]
    pub(crate) fn total_reward(&self) -> f32 {
        self.transitions.iter().map(|t| t.reward).sum()
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// Whether the episode has no steps.
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// Discounted return from each step (`G_t`).
    pub(crate) fn returns(&self, gamma: f32) -> Vec<f32> {
        discounted_returns(
            &self
                .transitions
                .iter()
                .map(|t| t.reward)
                .collect::<Vec<_>>(),
            gamma,
        )
    }
}

/// Computes discounted returns `G_t = r_t + γ G_{t+1}`.
pub(crate) fn discounted_returns(rewards: &[f32], gamma: f32) -> Vec<f32> {
    let mut out = vec![0.0; rewards.len()];
    let mut acc = 0.0f32;
    for i in (0..rewards.len()).rev() {
        acc = rewards[i] + gamma * acc;
        out[i] = acc;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn returns_with_gamma_one() {
        assert_eq!(
            discounted_returns(&[0.0, 0.0, 5.0], 1.0),
            vec![5.0, 5.0, 5.0]
        );
    }

    #[test]
    fn returns_with_discount() {
        let r = discounted_returns(&[1.0, 1.0], 0.5);
        assert_eq!(r, vec![1.5, 1.0]);
    }

    #[test]
    fn sparse_terminal_reward_propagates() {
        // The query-optimization shape: zeros until the terminal reward.
        let r = discounted_returns(&[0.0, 0.0, 0.0, 2.0], 0.9);
        assert!((r[0] - 2.0 * 0.9f32.powi(3)).abs() < 1e-6);
        assert_eq!(r[3], 2.0);
    }

    #[test]
    fn episode_accessors() {
        let mut e = Episode::new();
        assert!(e.is_empty());
        e.transitions.push(Transition {
            features: vec![1.0],
            mask: vec![true],
            action: 0,
            reward: 3.0,
        });
        assert_eq!(e.len(), 1);
        assert_eq!(e.total_reward(), 3.0);
        assert_eq!(e.returns(0.9), vec![3.0]);
    }
}
