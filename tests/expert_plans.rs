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
use hfqo::opt::TraditionalOptimizer;
use hfqo::query::{AccessPath, BoundColumn, JoinEdge, PlanNode, QueryGraph, RelId, Relation};
use hfqo::sql::CompareOp;
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
/// Each reported cost must also be the one `cost_of` re-walks from the
/// plan, bit for bit.
#[test]
fn expert_plans_match_the_golden() {
    let (db, stats) = build_imdb(ImdbConfig {
        base_rows: 300,
        seed: 21,
    });
    let suite = generate_job_suite(db.catalog(), 21);
    assert_eq!(suite.len(), 113);
    let mut actual = String::new();
    for threshold in [1, 10, 13] {
        let opt = TraditionalOptimizer::new(db.catalog(), &stats).with_dp_threshold(threshold);
        for q in &suite {
            let planned = opt.plan(&q.graph).expect("the expert plans every query");
            assert_eq!(
                planned.cost.to_bits(),
                opt.cost_of(&q.graph, &planned.plan).to_bits(),
                "{} at threshold {threshold}",
                q.label
            );
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
            let planned = TraditionalOptimizer::new(db.db.catalog(), &db.stats)
                .plan(graph)
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
