//! The expert's plans, pinned. For every JOB-like query at DP thresholds
//! 1 (all greedy), 10 (the default) and 13, the plan — tree, join
//! algorithms, access paths — and `cost.to_bits()` are recorded in
//! `tests/golden/expert_plans_seed21.txt`; regenerate deliberately with
//! `HFQO_BLESS=1 cargo test --test expert_plans`. The fixture is the
//! repo benchmark's: the IMDB-like database at 300 base rows and the
//! suite, both at seed 21. CI runs this file in release too, so DP's
//! float sums are held profile-independent.

use hfqo::exec::{execute, ExecConfig};
use hfqo::opt::test_support::TestDb;
use hfqo::prelude::*;
use hfqo::query::{AccessPath, BoundColumn, JoinEdge, RelId, Relation};
use hfqo::sql::CompareOp;
use hfqo::stats::QueryCardinality;
use hfqo::workload::imdb::{build_imdb, ImdbConfig};
use hfqo::workload::job::generate_job_suite;
use std::collections::HashSet;
use std::fmt::Write as _;

/// The planner's tree on one line: `r<rel>` for a sequential scan,
/// `r<rel>@<index>/s<selection>` for an index scan, and
/// `<algo><conds>(left,right)` / `<algo>(input)` above them.
fn render(node: &PlanNode, out: &mut String) {
    match node {
        PlanNode::Scan { rel, path } => match path {
            AccessPath::SeqScan => write!(out, "r{}", rel.0),
            AccessPath::IndexScan {
                index,
                driving_selection,
            } => write!(out, "r{}@{index}/s{driving_selection}", rel.0),
        }
        .expect("writes to a String"),
        PlanNode::Join {
            algo,
            conds,
            left,
            right,
        } => {
            write!(out, "{}{conds:?}(", algo.name()).expect("writes to a String");
            render(left, out);
            out.push(',');
            render(right, out);
            out.push(')');
        }
        PlanNode::Aggregate { algo, input } => {
            write!(out, "{}(", algo.name()).expect("writes to a String");
            render(input, out);
            out.push(')');
        }
    }
}

/// One line per query and threshold: the plan, and its cost's bits.
/// Each reported cost must also be the one the cost model re-walks from
/// the plan, bit for bit. At the default threshold the learner's expert —
/// `PlanEnv::expert_cost`, the reward's reference — and a traditional
/// serving session must report that same cost.
#[test]
fn expert_plans_match_the_golden() {
    let (db, stats) = build_imdb(ImdbConfig {
        base_rows: 300,
        seed: 21,
    });
    let suite = generate_job_suite(db.catalog(), 21);
    assert_eq!(suite.len(), 113);
    let graphs: Vec<QueryGraph> = suite.iter().map(|q| q.graph.clone()).collect();
    let max_rels = graphs
        .iter()
        .map(QueryGraph::relation_count)
        .max()
        .unwrap_or(0);
    let mut env = PlanEnv::new(
        EnvContext::new(&db, &stats),
        &graphs,
        max_rels,
        QueryOrder::Cycle,
        RewardMode::InverseCost,
        StageSet::join_order_only(),
    );
    let session = QuerySession::traditional(db.clone(), stats.clone());
    let ctx = PlannerContext::new(db.catalog(), &stats);
    let (model, cards) = (ctx.cost_model(), ctx.estimator());
    let mut actual = String::new();
    for threshold in [1, 10, 13] {
        let expert = TraditionalPlanner::new().with_dp_threshold(threshold);
        for (i, q) in suite.iter().enumerate() {
            let planned = expert
                .plan(&ctx, &q.graph)
                .expect("the expert plans every query");
            let bits = planned.cost.to_bits();
            let re_walked = model.plan_cost(&q.graph, &planned.plan, &cards).total;
            assert_eq!(
                bits,
                re_walked.to_bits(),
                "{} at threshold {threshold}",
                q.label
            );
            if threshold == 10 {
                // A template hit would report its template's cost.
                session.invalidate_cache();
                let served = session
                    .plan(&q.graph)
                    .expect("the session plans every query")
                    .0;
                assert_eq!(bits, env.expert_cost(i).to_bits(), "{}: PlanEnv", q.label);
                assert_eq!(bits, served.cost.to_bits(), "{}: QuerySession", q.label);
            }
            let mut plan = String::new();
            render(&planned.plan.root, &mut plan);
            writeln!(
                actual,
                "t{threshold} {} {} {plan} {:016x}",
                q.label,
                planned.method,
                planned.cost.to_bits()
            )
            .expect("writes to a String");
        }
    }
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/expert_plans_seed21.txt"
    );
    if std::env::var("HFQO_BLESS").is_ok() {
        std::fs::write(golden_path, &actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(golden_path)
        .expect("golden file present (regenerate with HFQO_BLESS=1)");
    assert_eq!(
        expected, actual,
        "expert plans drifted from {golden_path}; if the change is \
         intentional, regenerate with HFQO_BLESS=1"
    );
}

/// The expert's cardinality memo has the estimator's bits on every
/// relation and every connected set of every JOB-like query: the sets
/// DP prices, and every set greedy and the learned planner can build.
#[test]
fn memo_has_the_estimators_bits_on_every_connected_set() {
    let (db, stats) = build_imdb(ImdbConfig {
        base_rows: 300,
        seed: 21,
    });
    let est = EstimatedCardinality::new(&stats);
    let mut checked = 0;
    for q in generate_job_suite(db.catalog(), 21) {
        let graph = &q.graph;
        let memo = QueryCardinality::new(graph, &est);
        for rel in graph.all_rels().iter() {
            let (memo_rows, est_rows) = (memo.base_rows(graph, rel), est.base_rows(graph, rel));
            assert_eq!(
                memo_rows.to_bits(),
                est_rows.to_bits(),
                "{} {rel:?}",
                q.label
            );
        }
        for bits in 1..1u64 << graph.relation_count() {
            let set = RelSet(bits);
            if graph.is_connected(set) {
                let (memo_rows, est_rows) = (memo.set_rows(graph, set), est.set_rows(graph, set));
                assert_eq!(
                    memo_rows.to_bits(),
                    est_rows.to_bits(),
                    "{} {set:?}",
                    q.label
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 113, "{checked} sets");
}

/// A disconnected query's components are crossed in a fixed order, so
/// fifty fresh plans of it are one plan, executing to one `work`. Two
/// shapes: four relations with no join edge, and two joined pairs.
#[test]
fn cross_product_fallback_is_deterministic() {
    let db = TestDb::chain(4, 12);
    let relations: Vec<Relation> = (0..4)
        .map(|i| Relation {
            table: hfqo::catalog::TableId(i),
            alias: format!("t{i}"),
        })
        .collect();
    // `t_i.fk` references `t_{i-1}.id`; keep the edges 0–1 and 2–3.
    let edge = |i: u32| JoinEdge {
        left: BoundColumn::new(RelId(i - 1), hfqo::catalog::ColumnId(0)),
        op: CompareOp::Eq,
        right: BoundColumn::new(RelId(i), hfqo::catalog::ColumnId(1)),
    };
    let shapes = [
        QueryGraph::new(relations.clone(), vec![], vec![], vec![], vec![]),
        QueryGraph::new(relations, vec![edge(1), edge(3)], vec![], vec![], vec![]),
    ];
    for graph in &shapes {
        let mut outcomes = HashSet::new();
        for _ in 0..50 {
            let planned = TraditionalPlanner::new()
                .plan(&PlannerContext::new(db.db.catalog(), &db.stats), graph)
                .expect("plans");
            planned.plan.validate(graph).expect("a valid plan");
            let work = execute(&db.db, graph, &planned.plan, ExecConfig::default())
                .expect("executes")
                .stats
                .work;
            let mut plan = String::new();
            render(&planned.plan.root, &mut plan);
            outcomes.insert((plan, work));
        }
        assert_eq!(outcomes.len(), 1, "{outcomes:?}");
    }
}
