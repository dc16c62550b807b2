//! Incremental learning curricula (§5.3).
//!
//! The paper decomposes query optimization difficulty along two axes
//! (Figure 6): the number of *pipeline stages* the model must handle and
//! the number of *relations* per query. Figure 7's three decompositions
//! become three curriculum generators here; each produces a sequence of
//! training phases the same agent walks through.
//!
//! Each phase is executed by the standard trainer
//! ([`crate::trainer::train`] via the incremental experiment driver) on
//! a [`crate::PlanEnv`] built with the widest stage set the curriculum
//! reaches and narrowed to the phase's with
//! [`PlanEnv::set_stages`](crate::PlanEnv::set_stages), so the state
//! layout one agent sees is the same in every phase.

use hfqo_query::QueryGraph;

/// Which optimization stages the agent itself decides (join ordering is
/// always the agent's; disabled stages fall back to the traditional
/// optimizer, mirroring §5.3.1's "traditional techniques construct the
/// complete execution plan").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSet {
    /// The agent picks access paths.
    pub index_selection: bool,
    /// The agent picks join algorithms.
    pub join_operators: bool,
    /// The agent picks the aggregate operator.
    pub agg_operators: bool,
}

impl StageSet {
    /// Join ordering only — the ReJOIN prototype's scope.
    pub fn join_order_only() -> Self {
        Self {
            index_selection: false,
            join_operators: false,
            agg_operators: false,
        }
    }

    /// Join ordering + index selection (the first pipeline extension the
    /// paper sketches).
    pub fn through_index() -> Self {
        Self {
            index_selection: true,
            join_operators: false,
            agg_operators: false,
        }
    }

    /// Join ordering + index selection + join operators.
    pub fn through_join_ops() -> Self {
        Self {
            index_selection: true,
            join_operators: true,
            agg_operators: false,
        }
    }

    /// The entire simplified pipeline of Figure 8.
    pub fn full() -> Self {
        Self {
            index_selection: true,
            join_operators: true,
            agg_operators: true,
        }
    }

    /// The pipeline prefixes in order.
    pub fn pipeline_prefixes() -> [StageSet; 4] {
        [
            Self::join_order_only(),
            Self::through_index(),
            Self::through_join_ops(),
            Self::full(),
        ]
    }

    /// Number of enabled stages (join ordering counts as one).
    pub fn enabled_count(&self) -> usize {
        1 + usize::from(self.index_selection)
            + usize::from(self.join_operators)
            + usize::from(self.agg_operators)
    }
}

/// One phase of a curriculum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CurriculumPhase {
    /// Stages the agent decides this phase.
    pub stages: StageSet,
    /// Maximum query relation count admitted this phase (`None` = all).
    pub max_rels: Option<usize>,
    /// Episodes to train in this phase.
    pub episodes: usize,
}

/// The three decompositions of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Curriculum {
    /// Grow the pipeline, full relation range each phase (§5.3.1).
    Pipeline,
    /// Grow the relation count, full pipeline each phase (§5.3.2).
    Relations,
    /// Grow both together (§5.3.3).
    Hybrid,
    /// No curriculum: the full task from episode one (the §4 baseline
    /// that fails to beat random choice).
    Flat,
}

impl Curriculum {
    /// Generates the phase sequence for a workload whose largest query
    /// has `workload_max_rels` relations, spending `total_episodes`
    /// across phases (split evenly, remainder to the last phase).
    pub fn phases(&self, workload_max_rels: usize, total_episodes: usize) -> Vec<CurriculumPhase> {
        let plan: Vec<(StageSet, Option<usize>)> = match self {
            Curriculum::Flat => vec![(StageSet::full(), None)],
            Curriculum::Pipeline => StageSet::pipeline_prefixes()
                .into_iter()
                .map(|s| (s, None))
                .collect(),
            Curriculum::Relations => {
                // 2, 3, …, max relations; full pipeline throughout.
                (2..=workload_max_rels.max(2))
                    .map(|n| (StageSet::full(), Some(n)))
                    .collect()
            }
            Curriculum::Hybrid => {
                // Phase k enables pipeline prefix k and admits k+2
                // relations; once the pipeline is complete, keep growing
                // relations.
                let prefixes = StageSet::pipeline_prefixes();
                let mut out = Vec::new();
                let mut rels = 2usize;
                for stage in prefixes {
                    out.push((stage, Some(rels.min(workload_max_rels.max(2)))));
                    rels += 1;
                }
                while rels <= workload_max_rels {
                    out.push((StageSet::full(), Some(rels)));
                    rels += 1;
                }
                out
            }
        };
        let n = plan.len().max(1);
        let per = total_episodes / n;
        let remainder = total_episodes - per * n;
        plan.into_iter()
            .enumerate()
            .map(|(i, (stages, max_rels))| CurriculumPhase {
                stages,
                max_rels,
                episodes: per + if i == n - 1 { remainder } else { 0 },
            })
            .collect()
    }
}

/// Filters a workload to queries with at most `max_rels` relations;
/// `None` admits everything. Returns indices into the original slice.
pub fn admitted_queries(queries: &[QueryGraph], max_rels: Option<usize>) -> Vec<usize> {
    queries
        .iter()
        .enumerate()
        .filter(|(_, q)| max_rels.is_none_or(|m| q.relation_count() <= m))
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfqo_catalog::TableId;
    use hfqo_query::Relation;

    fn query_with_rels(n: usize) -> QueryGraph {
        QueryGraph::new(
            (0..n)
                .map(|i| Relation {
                    table: TableId(i as u32),
                    alias: format!("t{i}"),
                })
                .collect(),
            vec![],
            vec![],
            vec![],
            vec![],
        )
    }

    #[test]
    fn stage_sets_grow_monotonically() {
        let prefixes = StageSet::pipeline_prefixes();
        for w in prefixes.windows(2) {
            assert!(w[0].enabled_count() < w[1].enabled_count());
        }
        assert_eq!(StageSet::join_order_only().enabled_count(), 1);
        assert_eq!(StageSet::full().enabled_count(), 4);
    }

    #[test]
    fn pipeline_curriculum_has_four_phases() {
        let phases = Curriculum::Pipeline.phases(8, 1000);
        assert_eq!(phases.len(), 4);
        assert_eq!(phases[0].stages, StageSet::join_order_only());
        assert_eq!(phases[3].stages, StageSet::full());
        assert!(phases.iter().all(|p| p.max_rels.is_none()));
        let total: usize = phases.iter().map(|p| p.episodes).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn relations_curriculum_grows_query_size() {
        let phases = Curriculum::Relations.phases(5, 400);
        assert_eq!(phases.len(), 4); // 2, 3, 4, 5
        assert_eq!(phases[0].max_rels, Some(2));
        assert_eq!(phases[3].max_rels, Some(5));
        assert!(phases.iter().all(|p| p.stages == StageSet::full()));
    }

    #[test]
    fn hybrid_grows_both_axes() {
        let phases = Curriculum::Hybrid.phases(7, 700);
        assert_eq!(phases[0].stages, StageSet::join_order_only());
        assert_eq!(phases[0].max_rels, Some(2));
        // Pipeline completes by phase 4; relations keep growing after.
        assert_eq!(phases[3].stages, StageSet::full());
        let last = phases.last().expect("non-empty");
        assert_eq!(last.max_rels, Some(7));
        let total: usize = phases.iter().map(|p| p.episodes).sum();
        assert_eq!(total, 700);
    }

    #[test]
    fn flat_is_single_phase() {
        let phases = Curriculum::Flat.phases(10, 123);
        assert_eq!(phases.len(), 1);
        assert_eq!(phases[0].episodes, 123);
        assert_eq!(phases[0].stages, StageSet::full());
    }

    #[test]
    fn admitted_queries_filters_by_size() {
        let queries = vec![query_with_rels(2), query_with_rels(5), query_with_rels(3)];
        assert_eq!(admitted_queries(&queries, Some(3)), vec![0, 2]);
        assert_eq!(admitted_queries(&queries, None), vec![0, 1, 2]);
        assert!(admitted_queries(&queries, Some(1)).is_empty());
    }
}
