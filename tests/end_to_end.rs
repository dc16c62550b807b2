//! Cross-crate integration: SQL text → binder → optimizer → executor,
//! with the statistics and cost machinery in the loop.

use hfqo::prelude::*;
use hfqo::workload::tpch::{build_tpch, TpchConfig};
use hfqo_query::{AccessPath, JoinAlgo, PlanNode, RelId};

fn imdb() -> WorkloadBundle {
    WorkloadBundle::imdb_job(
        ImdbConfig {
            base_rows: 400,
            seed: 77,
        },
        5,
    )
}

#[test]
fn sql_to_rows_pipeline() {
    let bundle = imdb();
    let sql = "SELECT COUNT(*) FROM title t, movie_keyword mk, keyword k \
               WHERE t.id = mk.movie_id AND mk.keyword_id = k.id \
               AND t.production_year > 50";
    let stmt = parse_select(sql).expect("parses");
    let graph = bind_select(&stmt, bundle.db.catalog()).expect("binds");
    let expert = TraditionalPlanner::new();
    let ctx = PlannerContext::new(bundle.db.catalog(), &bundle.stats);
    let planned = expert.plan(&ctx, &graph).expect("plannable");
    planned.plan.validate(&graph).expect("valid plan");
    let out = execute(&bundle.db, &graph, &planned.plan, ExecConfig::default()).expect("executes");
    assert_eq!(out.rows.len(), 1, "COUNT(*) returns one row");
    let count = out.rows[0][0].as_int().expect("int count");
    assert!(count > 0, "the join is non-empty on generated data");
}

#[test]
fn every_join_order_gives_the_same_answer() {
    // The answer must be plan-invariant: execute a 3-relation query
    // under several hand-built orders and algorithms.
    let bundle = imdb();
    let sql = "SELECT COUNT(*) FROM title t, cast_info ci, role_type rt \
               WHERE t.id = ci.movie_id AND ci.role_id = rt.id \
               AND t.production_year < 100";
    let graph =
        bind_select(&parse_select(sql).expect("parses"), bundle.db.catalog()).expect("binds");
    let expert = TraditionalPlanner::new();
    let ctx = PlannerContext::new(bundle.db.catalog(), &bundle.stats);
    let reference = execute(
        &bundle.db,
        &graph,
        &expert.plan(&ctx, &graph).expect("plannable").plan,
        ExecConfig::default(),
    )
    .expect("reference executes")
    .rows;

    let scan = |rel: u32| PlanNode::Scan {
        rel: RelId(rel),
        path: AccessPath::SeqScan,
    };
    // (t ⋈ ci) ⋈ rt and (ci ⋈ rt) ⋈ t, hash and merge.
    for (a, b, c) in [(0u32, 1u32, 2u32), (1, 2, 0)] {
        for algo in [JoinAlgo::Hash, JoinAlgo::Merge, JoinAlgo::NestedLoop] {
            let inner_conds = graph.joins_between(
                hfqo_query::RelSet::single(RelId(a)),
                hfqo_query::RelSet::single(RelId(b)),
            );
            let inner = PlanNode::Join {
                algo,
                conds: inner_conds,
                left: Box::new(scan(a)),
                right: Box::new(scan(b)),
            };
            let outer_conds =
                graph.joins_between(inner.rel_set(), hfqo_query::RelSet::single(RelId(c)));
            let plan = PhysicalPlan::new(PlanNode::Aggregate {
                algo: hfqo_query::AggAlgo::Hash,
                input: Box::new(PlanNode::Join {
                    algo: JoinAlgo::Hash,
                    conds: outer_conds,
                    left: Box::new(inner),
                    right: Box::new(scan(c)),
                }),
            });
            plan.validate(&graph).expect("valid");
            let rows = execute(&bundle.db, &graph, &plan, ExecConfig::default())
                .expect("executes")
                .rows;
            assert_eq!(rows, reference, "order ({a},{b},{c}) algo {algo:?}");
        }
    }
}

#[test]
fn true_cardinality_matches_actual_execution() {
    let bundle = imdb();
    let sql = "SELECT COUNT(*) FROM title t, movie_companies mc \
               WHERE t.id = mc.movie_id AND t.kind_id = 2";
    let graph =
        bind_select(&parse_select(sql).expect("parses"), bundle.db.catalog()).expect("binds");
    let expert = TraditionalPlanner::new();
    let ctx = PlannerContext::new(bundle.db.catalog(), &bundle.stats);
    let planned = expert.plan(&ctx, &graph).expect("plannable");
    // Count via execution of the non-aggregated join.
    let join_only = match &planned.plan.root {
        PlanNode::Aggregate { input, .. } => PhysicalPlan::new((**input).clone()),
        other => PhysicalPlan::new(other.clone()),
    };
    let executed = execute(&bundle.db, &graph, &join_only, ExecConfig::default())
        .expect("executes")
        .rows
        .len() as f64;
    let oracle = TrueCardinality::new(&bundle.db);
    let counted = oracle.set_rows(&graph, graph.all_rels());
    assert_eq!(executed, counted, "oracle must agree with execution");
}

#[test]
fn estimates_are_imperfect_but_bounded_on_correlated_data() {
    // The IMDB-like generator correlates production_year with kind_id;
    // the independence assumption must produce a finite, positive, but
    // generally wrong estimate — the premise of §5.2.
    let bundle = imdb();
    let sql = "SELECT COUNT(*) FROM title t \
               WHERE t.production_year > 60 AND t.kind_id = 3";
    let graph =
        bind_select(&parse_select(sql).expect("parses"), bundle.db.catalog()).expect("binds");
    let est = EstimatedCardinality::new(&bundle.stats);
    let oracle = TrueCardinality::new(&bundle.db);
    let estimated = est.set_rows(&graph, graph.all_rels());
    let truth = oracle.set_rows(&graph, graph.all_rels());
    assert!(estimated >= 1.0);
    assert!(truth >= 0.0);
    // Sanity ceiling: neither exceeds the table size.
    assert!(estimated <= 400.0 + 1.0);
    assert!(truth <= 400.0);
}

#[test]
fn tpch_templates_plan_and_execute() {
    let (db, stats) = build_tpch(TpchConfig {
        lineitem_rows: 2_000,
        seed: 6,
    });
    let expert = TraditionalPlanner::new();
    let ctx = PlannerContext::new(db.catalog(), &stats);
    for graph in hfqo::workload::tpch::bind_templates(db.catalog()) {
        let planned = expert.plan(&ctx, &graph).expect("plannable");
        let out = execute(&db, &graph, &planned.plan, ExecConfig::default())
            .unwrap_or_else(|e| panic!("{:?} failed: {e}", graph.label));
        assert!(!out.rows.is_empty(), "{:?}", graph.label);
    }
}

#[test]
fn expert_beats_random_on_cost_across_the_suite() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let bundle = imdb();
    let expert = TraditionalPlanner::new();
    let ctx = PlannerContext::new(bundle.db.catalog(), &bundle.stats);
    let mut rng = StdRng::seed_from_u64(0);
    let mut expert_wins = 0usize;
    let mut total = 0usize;
    for graph in bundle.queries.iter().take(25) {
        let expert_cost = expert.plan(&ctx, graph).expect("plannable").cost;
        let (model, cards) = (ctx.cost_model(), ctx.estimator());
        let (_, random_cost) = random_plan(graph, bundle.db.catalog(), &model, &cards, &mut rng);
        let random_cost = random_cost.total;
        total += 1;
        if expert_cost <= random_cost * 1.0001 {
            expert_wins += 1;
        }
    }
    assert!(
        expert_wins * 10 >= total * 9,
        "expert won only {expert_wins}/{total}"
    );
}
