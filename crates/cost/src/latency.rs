//! The analytic latency model.
//!
//! The paper's experiments need query *latency* as a reward signal, but
//! executing tens of thousands of plans per experiment configuration is
//! exactly the "performance evaluation overhead" problem §4 describes. We
//! therefore simulate latency analytically: the same cost formulas, but
//! driven by **true** cardinalities, an in-memory parameter set that
//! systematically disagrees with the costing one, and multiplicative
//! log-normal noise. Real wall-clock execution remains available through
//! `hfqo-exec` and is used by the latency-overhead experiment; tests verify
//! the two sources rank plans consistently.

use crate::model::CostModel;
use crate::params::CostParams;
use hfqo_query::{PhysicalPlan, QueryGraph};
use hfqo_stats::{CardinalitySource, StatsCatalog};
use rand::rngs::StdRng;
use rand::Rng;

/// Simulated execution latency, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulatedLatency {
    /// Latency in milliseconds.
    pub millis: f64,
}

/// Analytic latency model.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    params: CostParams,
    /// Conversion from latency-cost units to milliseconds.
    pub ms_per_unit: f64,
    /// Standard deviation of the log-normal noise (0 disables noise).
    pub(crate) noise_sigma: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self {
            params: CostParams::in_memory_latency(),
            ms_per_unit: 0.01,
            noise_sigma: 0.08,
        }
    }
}

impl LatencyModel {
    /// A noiseless model (deterministic; useful in tests).
    #[cfg(test)]
    fn noiseless() -> Self {
        Self {
            noise_sigma: 0.0,
            ..Self::default()
        }
    }

    /// Simulates the latency of executing `plan`.
    ///
    /// `cards` should be a *true*-cardinality source for faithful
    /// simulation (the execution-backed oracle in `hfqo-exec`), though any
    /// source works.
    pub fn simulate<C: CardinalitySource>(
        &self,
        graph: &QueryGraph,
        plan: &PhysicalPlan,
        stats: &StatsCatalog,
        cards: &C,
        rng: &mut StdRng,
    ) -> SimulatedLatency {
        let model = CostModel::new(&self.params, stats);
        let est = model.plan_cost(graph, plan, cards);
        let noise = if self.noise_sigma > 0.0 {
            // Log-normal multiplicative noise via Box-Muller.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (self.noise_sigma * z).exp()
        } else {
            1.0
        };
        SimulatedLatency {
            millis: (est.total * self.ms_per_unit * noise).max(0.001),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfqo_catalog::{ColumnId, ColumnStatsMeta, TableId};
    use hfqo_query::{AccessPath, BoundColumn, JoinAlgo, JoinEdge, PlanNode, RelId, Relation};
    use hfqo_sql::CompareOp;
    use hfqo_stats::{ColumnStats, EstimatedCardinality, TableStats};
    use rand::SeedableRng;

    fn setup() -> (StatsCatalog, QueryGraph) {
        let mk = |rows: f64| TableStats {
            row_count: rows,
            row_width: 16.0,
            columns: vec![ColumnStats {
                meta: ColumnStatsMeta {
                    ndv: rows,
                    min: 0.0,
                    max: rows - 1.0,
                    null_frac: 0.0,
                },
                histogram: None,
                mcvs: vec![],
            }],
        };
        let stats = StatsCatalog::new(vec![mk(1000.0), mk(5000.0)]);
        let graph = QueryGraph::new(
            vec![
                Relation {
                    table: TableId(0),
                    alias: "a".into(),
                },
                Relation {
                    table: TableId(1),
                    alias: "b".into(),
                },
            ],
            vec![JoinEdge {
                left: BoundColumn::new(RelId(0), ColumnId(0)),
                op: CompareOp::Eq,
                right: BoundColumn::new(RelId(1), ColumnId(0)),
            }],
            vec![],
            vec![],
            vec![],
        );
        (stats, graph)
    }

    fn plan(algo: JoinAlgo, conds: Vec<usize>) -> PhysicalPlan {
        PhysicalPlan::new(PlanNode::Join {
            algo,
            conds,
            left: Box::new(PlanNode::Scan {
                rel: RelId(0),
                path: AccessPath::SeqScan,
            }),
            right: Box::new(PlanNode::Scan {
                rel: RelId(1),
                path: AccessPath::SeqScan,
            }),
        })
    }

    #[test]
    fn noiseless_is_deterministic() {
        let (stats, graph) = setup();
        let est = EstimatedCardinality::new(&stats);
        let model = LatencyModel::noiseless();
        let mut rng = StdRng::seed_from_u64(1);
        let a = model.simulate(
            &graph,
            &plan(JoinAlgo::Hash, vec![0]),
            &stats,
            &est,
            &mut rng,
        );
        let b = model.simulate(
            &graph,
            &plan(JoinAlgo::Hash, vec![0]),
            &stats,
            &est,
            &mut rng,
        );
        assert_eq!(a, b);
        assert!(a.millis > 0.0);
    }

    #[test]
    fn bad_plans_are_slower() {
        let (stats, graph) = setup();
        let est = EstimatedCardinality::new(&stats);
        let model = LatencyModel::noiseless();
        let mut rng = StdRng::seed_from_u64(1);
        let good = model.simulate(
            &graph,
            &plan(JoinAlgo::Hash, vec![0]),
            &stats,
            &est,
            &mut rng,
        );
        let cross = model.simulate(
            &graph,
            &plan(JoinAlgo::NestedLoop, vec![]),
            &stats,
            &est,
            &mut rng,
        );
        assert!(cross.millis > 5.0 * good.millis);
    }

    #[test]
    fn noise_is_bounded_and_multiplicative() {
        let (stats, graph) = setup();
        let est = EstimatedCardinality::new(&stats);
        let model = LatencyModel::default();
        let base = LatencyModel::noiseless()
            .simulate(
                &graph,
                &plan(JoinAlgo::Hash, vec![0]),
                &stats,
                &est,
                &mut StdRng::seed_from_u64(0),
            )
            .millis;
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let l = model
                .simulate(
                    &graph,
                    &plan(JoinAlgo::Hash, vec![0]),
                    &stats,
                    &est,
                    &mut rng,
                )
                .millis;
            // ±8% sigma: 5 sigma bounds are generous.
            assert!(
                l > base * 0.6 && l < base * 1.6,
                "latency {l} vs base {base}"
            );
        }
    }
}
