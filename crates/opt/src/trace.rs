//! Expert traces for learning from demonstration (§5.1).
//!
//! The paper's LfD recipe records, for each workload query, the episode
//! history `H_q = [(a_0, s_0), (a_1, s_1), …]` of the traditional
//! optimizer's decisions plus the resulting latency `L_q`. Here the
//! expert's chosen join tree is decompiled into the *exact* forest-merge
//! action sequence the RL environment uses (see
//! [`hfqo_query::tree_to_actions`]), so demonstrations and agent episodes
//! share one action vocabulary.

use crate::optimizer::OptError;
use crate::planner::{Planner, PlannerContext, TraditionalPlanner};
use hfqo_query::{tree_to_actions, PhysicalPlan, QueryGraph};

/// One expert demonstration: the optimizer's action sequence for a query
/// plus its plan and cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpertEpisode {
    /// Forest-merge actions `(x, y)` in episode order.
    pub actions: Vec<(usize, usize)>,
    /// The expert's physical plan.
    pub plan: PhysicalPlan,
    /// The expert plan's estimated cost (`M(t)` — the Phase-1 quality
    /// signal; callers typically overwrite this with measured latency
    /// `L_q` before training, per the paper's step 2).
    pub cost: f64,
}

/// Runs the expert — [`TraditionalPlanner::new`], the planner a serving
/// session defaults to — on a query and extracts its demonstration
/// episode.
pub fn expert_actions(
    ctx: &PlannerContext<'_>,
    graph: &QueryGraph,
) -> Result<ExpertEpisode, OptError> {
    let planned = TraditionalPlanner::new().plan(ctx, graph)?;
    let tree = planned.plan.root.join_tree();
    let actions = tree_to_actions(&tree, graph.relation_count());
    Ok(ExpertEpisode {
        actions,
        plan: planned.plan,
        cost: planned.cost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{chain_query, TestDb};
    use hfqo_query::Forest;

    #[test]
    fn expert_actions_replay_to_expert_tree() {
        let db = TestDb::chain(5, 400);
        let graph = chain_query(&db, 5);
        let ctx = PlannerContext::new(db.db.catalog(), &db.stats);
        let episode = expert_actions(&ctx, &graph).unwrap();
        assert_eq!(episode.actions.len(), 4);
        let mut forest = Forest::initial(5);
        for &(x, y) in &episode.actions {
            assert!(forest.merge(x, y), "invalid expert action ({x},{y})");
        }
        let replayed = forest.into_tree().expect("terminal");
        assert_eq!(replayed, episode.plan.root.join_tree());
    }

    #[test]
    fn single_relation_has_no_actions() {
        let db = TestDb::chain(1, 100);
        let graph = chain_query(&db, 1);
        let ctx = PlannerContext::new(db.db.catalog(), &db.stats);
        let episode = expert_actions(&ctx, &graph).unwrap();
        assert!(episode.actions.is_empty());
        assert!(episode.cost > 0.0);
    }
}
