//! Single-layer probes: one call into one layer on a captured input,
//! timed from outside. They say *which* operator, or which half of the
//! network, a change in a workload's figures came from.
//!
//! A probe's figure is the median of [`REPS`] timed calls after one
//! untimed call.

use crate::ledger::report::{Metrics, PER_LAYER};
use crate::ledger::stats::median;
use crate::ledger::Clock;
use crate::workloads::job::fixture;
use crate::workloads::WORLD_SEED;
use hfqo_catalog::{Catalog, Column, ColumnId, ColumnType, IndexId, TableSchema};
use hfqo_exec::{execute, ExecConfig};
use hfqo_nn::Matrix;
use hfqo_query::{
    AccessPath, AggAlgo, BoundColumn, Forest, JoinAlgo, Lit, PhysicalPlan, PlanNode, QueryGraph,
    RelId, Relation, Selection,
};
use hfqo_rejoin::{Featurizer, PolicyKind, ReJoinAgent};
use hfqo_sql::CompareOp;
use hfqo_stats::{build_database_stats, EstimatedCardinality};
use hfqo_storage::{Database, Encoding, Value};
use hfqo_workload::synth::{Shape, SynthConfig, SynthDb};
use hfqo_workload::with_count_root;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Timed calls per probe.
const REPS: usize = 5;
/// Rows per table of the operator fixture (that of the executor
/// micro-benchmarks).
const ROWS: usize = 20_000;
/// Rows per side of the nested-loop probe, which visits every pair.
const NESTED_ROWS: usize = 1_000;

/// Median time of `call`, ns.
fn time_ns<T>(clock: Clock, reps: usize, mut call: impl FnMut() -> T) -> f64 {
    black_box(call());
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = clock();
            black_box(call());
            (clock() - start) as f64
        })
        .collect();
    median(&mut samples)
}

fn scan(rel: u32, path: AccessPath) -> PlanNode {
    PlanNode::Scan {
        rel: RelId(rel),
        path,
    }
}

fn count(input: PlanNode) -> PlanNode {
    PlanNode::Aggregate {
        algo: AggAlgo::Hash,
        input: Box::new(input),
    }
}

fn count_join(algo: JoinAlgo) -> PhysicalPlan {
    PhysicalPlan::new(count(PlanNode::Join {
        algo,
        conds: vec![0],
        left: Box::new(scan(0, AccessPath::SeqScan)),
        right: Box::new(scan(1, AccessPath::SeqScan)),
    }))
}

fn select(graph: &QueryGraph, column: u32, op: CompareOp, value: Lit) -> QueryGraph {
    QueryGraph::new(
        graph.relations().to_vec(),
        graph.joins().to_vec(),
        vec![Selection {
            column: BoundColumn::new(RelId(0), ColumnId(column)),
            op,
            value,
        }],
        graph.aggregates().to_vec(),
        graph.group_by().to_vec(),
    )
}

/// A `ROWS`-row table `f(v, d, r)`: `v` a plain int cycling 0..100, `d`
/// a dictionary-coded tag with no runs, `r` the same tags in runs of
/// 200, run-length-encoded over the dictionary codes. `< 50` passes half
/// the rows of each.
fn encoded_fixture() -> (Database, QueryGraph) {
    let mut cat = Catalog::new();
    let t = cat
        .add_table(TableSchema::new(
            "f",
            vec![
                Column::new("v", ColumnType::Int),
                Column::new("d", ColumnType::Text),
                Column::new("r", ColumnType::Text),
            ],
        ))
        .expect("fresh catalog");
    let mut db = Database::new(cat);
    let table = db.table_mut(t).expect("table exists");
    for i in 0..ROWS as i64 {
        table
            .append_row(&[
                Value::Int(i % 100),
                Value::str(format!("s{:02}", i % 100)),
                Value::str(format!("s{:02}", (i / 200) % 100)),
            ])
            .expect("schema matches");
    }
    table.dictionary_encode_strings(4096);
    table.rle_encode_columns(2);
    assert_eq!(
        table.encodings(),
        [Encoding::Plain, Encoding::Dict, Encoding::Rle],
        "the filter probes need one column per encoding"
    );
    let graph = QueryGraph::new(
        vec![Relation {
            table: t,
            alias: "f".into(),
        }],
        vec![],
        vec![],
        vec![],
        vec![],
    );
    (db, graph)
}

/// Operator probes on the serial engine. A row is one input row the
/// operator visits; for the nested loop, one pair.
fn operators(clock: Clock, reps: usize, m: &mut Metrics) {
    let config = ExecConfig::with_budget(200_000_000);
    let synth = SynthDb::build(SynthConfig {
        tables: 2,
        rows: ROWS,
        seed: 11,
    });
    let mut probe =
        |name: &str, db: &Database, graph: &QueryGraph, plan: PhysicalPlan, rows: usize| {
            let ns = time_ns(clock, reps, || {
                execute(db, graph, &plan, config)
                    .expect("probe plan executes")
                    .stats
                    .work
            });
            m.set(&format!("exec.op.{name}.ns_per_row"), ns / rows as f64);
        };

    let one = synth.query(Shape::Chain, 1, 0, 0);
    let seq = || PhysicalPlan::new(scan(0, AccessPath::SeqScan));
    probe("seq_scan", &synth.db, &one, seq(), ROWS);
    let by_key = select(&one, 0, CompareOp::Lt, Lit::Int(ROWS as i64 / 2));
    let index = AccessPath::IndexScan {
        index: IndexId(0),
        driving_selection: 0,
    };
    probe(
        "index_scan",
        &synth.db,
        &by_key,
        PhysicalPlan::new(scan(0, index)),
        ROWS / 2,
    );
    probe(
        "hash_agg",
        &synth.db,
        &with_count_root(&one),
        PhysicalPlan::new(count(scan(0, AccessPath::SeqScan))),
        ROWS,
    );
    let two = with_count_root(&synth.query(Shape::Chain, 2, 0, 0));
    probe(
        "hash_join",
        &synth.db,
        &two,
        count_join(JoinAlgo::Hash),
        2 * ROWS,
    );
    probe(
        "merge_join",
        &synth.db,
        &two,
        count_join(JoinAlgo::Merge),
        2 * ROWS,
    );

    let small = SynthDb::build(SynthConfig {
        tables: 2,
        rows: NESTED_ROWS,
        seed: 11,
    });
    let two = with_count_root(&small.query(Shape::Chain, 2, 0, 0));
    probe(
        "nested_loop",
        &small.db,
        &two,
        count_join(JoinAlgo::NestedLoop),
        NESTED_ROWS * NESTED_ROWS,
    );

    let (db, graph) = encoded_fixture();
    let half = Lit::Str("s50".into());
    probe(
        "filter_int",
        &db,
        &select(&graph, 0, CompareOp::Lt, Lit::Int(50)),
        seq(),
        ROWS,
    );
    probe(
        "filter_dict",
        &db,
        &select(&graph, 1, CompareOp::Lt, half.clone()),
        seq(),
        ROWS,
    );
    probe(
        "filter_rle",
        &db,
        &select(&graph, 2, CompareOp::Lt, half),
        seq(),
        ROWS,
    );
}

/// Featurizer and network probes on a state captured from the largest
/// JOB-like query, at the serving planner's widths; then the two
/// rebuilds a refresh after mutation pays, on the same fixture.
fn learned_and_rebuilds(clock: Clock, reps: usize, m: &mut Metrics) {
    let (db, stats, suite) = fixture(false);
    let graph = suite
        .iter()
        .map(|q| &q.graph)
        .max_by_key(|g| g.relation_count())
        .expect("the suite has queries");
    let featurizer = Featurizer::new(graph.relation_count());
    let agent = ReJoinAgent::new(
        featurizer.state_dim(),
        featurizer.action_dim(),
        PolicyKind::default_reinforce(),
        &mut StdRng::seed_from_u64(WORLD_SEED),
    );
    let snapshot = agent.snapshot();
    let policy = snapshot.policy();
    let est = EstimatedCardinality::new(&stats);
    let forest = Forest::initial(graph.relation_count());
    let mut features = Vec::new();
    let us = |ns: f64| ns / 1e3;
    m.set(
        "rejoin.featurize.us_per_call",
        us(time_ns(clock, reps * 20, || {
            featurizer.featurize(graph, &forest, &est, &mut features)
        })),
    );
    let x = Matrix::row_vector(features);
    m.set(
        "nn.forward.us_per_call",
        us(time_ns(clock, reps * 20, || policy.predict(&x))),
    );
    let cache = policy.forward(&x);
    let grad = Matrix::from_vec(
        1,
        featurizer.action_dim(),
        vec![1.0; featurizer.action_dim()],
    );
    m.set(
        "nn.backward.us_per_call",
        us(time_ns(clock, reps * 20, || {
            policy.backward(&cache, grad.clone())
        })),
    );

    let mut db = db;
    m.set(
        "stats.build.us_per_call",
        us(time_ns(clock, reps, || build_database_stats(&db))),
    );
    m.set(
        "storage.build_indexes.us_per_call",
        us(time_ns(clock, reps, || {
            db.build_indexes().expect("indexes rebuild")
        })),
    );
}

/// Every probe.
pub fn all(clock: Clock, smoke: bool) -> Metrics {
    let reps = if smoke { 1 } else { REPS };
    let mut m = Metrics::new(PER_LAYER);
    operators(clock, reps, &mut m);
    learned_and_rebuilds(clock, reps, &mut m);
    m
}
