//! Replaying served queries back into RL episodes — the ingest side of
//! the online-learning loop.
//!
//! The serving layer records what it *did* (the bound [`QueryGraph`],
//! the forest-merge decisions of the plan that executed, and the work
//! the executor actually performed); this module turns that record back
//! into an [`Episode`] the policy-gradient agent can train on, by
//! replaying the decisions through the same [`RolloutState`] the policy
//! infers over. Feature vectors and action masks are recomputed against
//! the *current* statistics at replay time — exactly what a live
//! environment rollout would have produced — so the training-side and
//! serving-side views of a state cannot drift.
//!
//! A replayed transition does not say how probable its action was when
//! it was taken — a cache-hit serve never computes that. REINFORCE, the
//! one backend of [`crate::ReJoinAgent`], has no use for it: its
//! gradient re-derives `log π(a|s)` from the current policy's forward
//! pass.

use crate::featurize::{Featurizer, RolloutState};
use hfqo_query::QueryGraph;
use hfqo_rl::{Episode, Transition};
use hfqo_stats::{EstimatedCardinality, StatsCatalog};

/// Why a served record could not be replayed into an episode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// Fewer than two relations: no join decisions to learn from.
    NoDecisions,
    /// More relations than the featurizer was built for.
    TooManyRelations {
        /// Relations in the query.
        relations: usize,
        /// The featurizer's capacity.
        max_rels: usize,
    },
    /// The decision count does not match `relations − 1`.
    WrongDecisionCount {
        /// Decisions recorded.
        got: usize,
        /// Decisions a full episode needs.
        expected: usize,
    },
    /// A decision was not a valid forest merge, or was excluded by the
    /// action mask (e.g. a cross-join pair under connected-only
    /// masking). Training on a masked action would push probability
    /// mass the softmax can never emit, so the record is rejected.
    InvalidDecision {
        /// Index of the offending decision.
        step: usize,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoDecisions => write!(f, "query has no join decisions"),
            Self::TooManyRelations {
                relations,
                max_rels,
            } => {
                write!(
                    f,
                    "{relations} relations exceed featurizer capacity {max_rels}"
                )
            }
            Self::WrongDecisionCount { got, expected } => {
                write!(f, "{got} decisions recorded, episode needs {expected}")
            }
            Self::InvalidDecision { step } => {
                write!(f, "decision {step} is not a valid (masked) forest merge")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Replays a served query's forest-merge `decisions` into a training
/// [`Episode`]: one transition per decision, featurized against `stats`,
/// zero reward everywhere except the terminal step, which carries
/// `terminal_reward` (computed by the caller from the observed
/// execution, e.g. work-derived latency).
///
/// `require_connected` must match the masking the policy is trained
/// under; a decision the mask excludes fails with
/// [`ReplayError::InvalidDecision`] rather than producing an episode the
/// masked softmax cannot represent.
pub fn episode_from_decisions(
    graph: &QueryGraph,
    decisions: &[(usize, usize)],
    terminal_reward: f32,
    featurizer: &Featurizer,
    stats: &StatsCatalog,
    require_connected: bool,
) -> Result<Episode, ReplayError> {
    let n = graph.relation_count();
    if n < 2 {
        return Err(ReplayError::NoDecisions);
    }
    if n > featurizer.max_rels() {
        return Err(ReplayError::TooManyRelations {
            relations: n,
            max_rels: featurizer.max_rels(),
        });
    }
    if decisions.len() != n - 1 {
        return Err(ReplayError::WrongDecisionCount {
            got: decisions.len(),
            expected: n - 1,
        });
    }
    let est = EstimatedCardinality::new(stats);
    let mut state = RolloutState::new(*featurizer, graph, &est);
    let mut episode = Episode::new();
    for (step, &(x, y)) in decisions.iter().enumerate() {
        let features = state.features().to_vec();
        let mut mask = Vec::new();
        state.mask(require_connected, &mut mask);
        let action = featurizer.encode_pair(x, y);
        if action >= mask.len() || !mask[action] || !state.merge(x, y) {
            return Err(ReplayError::InvalidDecision { step });
        }
        let terminal = step + 1 == decisions.len();
        episode.transitions.push(Transition {
            features,
            mask,
            action,
            reward: if terminal { terminal_reward } else { 0.0 },
        });
    }
    debug_assert!(state.is_terminal(), "n − 1 valid merges terminate");
    Ok(episode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{EnvContext, PlanEnv};
    use crate::reward::RewardMode;
    use crate::{QueryOrder, StageSet};
    use hfqo_opt::test_support::{chain_query, TestDb};
    use hfqo_opt::{expert_actions, PlannerContext};
    use hfqo_rl::Environment as _;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Replaying the expert's decisions must reproduce exactly the
    /// transitions a live environment rollout of the same actions
    /// produces: same features, same masks, same action encoding, same
    /// sparse-reward shape.
    #[test]
    fn replay_matches_live_environment_rollout() {
        let db = TestDb::chain(5, 300);
        let queries = vec![chain_query(&db, 5)];
        let plan_ctx = PlannerContext::new(db.db.catalog(), &db.stats);
        let expert = expert_actions(&plan_ctx, &queries[0]).unwrap();

        let ctx = EnvContext::new(&db.db, &db.stats);
        let mut env = PlanEnv::new(
            ctx,
            &queries,
            6,
            QueryOrder::Fixed(0),
            RewardMode::InverseCost,
            StageSet::join_order_only(),
        );
        let featurizer = env.featurizer();
        let mut rng = StdRng::seed_from_u64(0);
        let mut features = Vec::new();
        let mut mask = Vec::new();
        env.reset(&mut rng);
        let mut reference = Vec::new();
        for &(x, y) in &expert.actions {
            env.state_features(&mut features);
            env.action_mask(&mut mask);
            let action = featurizer.encode_pair(x, y);
            reference.push((features.clone(), mask.clone(), action));
            env.step(action, &mut rng);
        }

        let episode = episode_from_decisions(
            &queries[0],
            &expert.actions,
            7.5,
            &featurizer,
            &db.stats,
            false,
        )
        .unwrap();
        assert_eq!(episode.len(), expert.actions.len());
        for (t, (f, m, a)) in episode.transitions.iter().zip(&reference) {
            assert_eq!(&t.features, f);
            assert_eq!(&t.mask, m);
            assert_eq!(t.action, *a);
        }
        // Sparse terminal reward.
        let rewards: Vec<f32> = episode.transitions.iter().map(|t| t.reward).collect();
        assert_eq!(rewards, vec![0.0, 0.0, 0.0, 7.5]);
    }

    #[test]
    fn rejects_degenerate_records() {
        let db = TestDb::chain(4, 200);
        let graph = chain_query(&db, 4);
        let single = chain_query(&db, 1);
        let featurizer = Featurizer::new(4);
        let narrow = Featurizer::new(3);
        assert_eq!(
            episode_from_decisions(&single, &[], 1.0, &featurizer, &db.stats, false).err(),
            Some(ReplayError::NoDecisions)
        );
        assert_eq!(
            episode_from_decisions(&graph, &[(0, 1)], 1.0, &narrow, &db.stats, false).err(),
            Some(ReplayError::TooManyRelations {
                relations: 4,
                max_rels: 3
            })
        );
        assert_eq!(
            episode_from_decisions(&graph, &[(0, 1)], 1.0, &featurizer, &db.stats, false).err(),
            Some(ReplayError::WrongDecisionCount {
                got: 1,
                expected: 3
            })
        );
        // (0, 0) is never a valid merge.
        assert_eq!(
            episode_from_decisions(
                &graph,
                &[(0, 0), (0, 1), (0, 1)],
                1.0,
                &featurizer,
                &db.stats,
                false
            )
            .err(),
            Some(ReplayError::InvalidDecision { step: 0 })
        );
    }

    /// Under connected-only masking a cross-join decision must be
    /// rejected, not trained on: the masked softmax assigns it zero
    /// probability, so its policy gradient is undefined.
    #[test]
    fn cross_join_decisions_rejected_under_connected_masking() {
        let db = TestDb::chain(4, 200);
        let graph = chain_query(&db, 4);
        let featurizer = Featurizer::new(4);
        // Chain t0–t1–t2–t3: merging (0, 2) is a cross join.
        let decisions = [(0, 2), (0, 1), (0, 1)];
        assert_eq!(
            episode_from_decisions(&graph, &decisions, 1.0, &featurizer, &db.stats, true).err(),
            Some(ReplayError::InvalidDecision { step: 0 })
        );
        // The same decisions replay fine when cross joins are allowed.
        assert!(
            episode_from_decisions(&graph, &decisions, 1.0, &featurizer, &db.stats, false).is_ok()
        );
    }
}
