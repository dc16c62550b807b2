//! Executor operator throughput: reference row engine vs the
//! vectorized evaluator, plus intra-query parallel scaling and bulk-load
//! throughput.
//!
//! The workloads mirror what training actually executes — `COUNT(*)`
//! joins (the paper's JOB-style queries) — plus a full-output join where
//! both engines must materialise every column, and a plain scan. Each
//! case runs through `execute_rows` (row-at-a-time reference, `row`) and
//! `execute` at one thread (`t1`) so the speedup is directly visible in
//! one report.
//!
//! `parallel_scaling` times the same evaluator at 2/4/8 threads on the
//! join-heavy cases (their one-thread base is `executor/*/t1`),
//! asserting result identity against one thread before any timing. On
//! single-CPU containers the medians stay flat (there is nothing to
//! scale onto) — the numbers are only meaningful on multi-core hosts.

use criterion::{criterion_group, criterion_main, Criterion};
use hfqo_exec::{execute, execute_rows, ExecConfig};
use hfqo_opt::test_support::with_count;
use hfqo_query::{AccessPath, AggAlgo, JoinAlgo, PhysicalPlan, PlanNode, RelId};
use hfqo_workload::loader::{load_imdb_csv_dir, LoaderOptions};
use hfqo_workload::synth::{Shape, SynthConfig, SynthDb};
use std::path::Path;

fn scan(rel: u32) -> PlanNode {
    PlanNode::Scan {
        rel: RelId(rel),
        path: AccessPath::SeqScan,
    }
}

fn join(algo: JoinAlgo, conds: Vec<usize>, left: PlanNode, right: PlanNode) -> PlanNode {
    PlanNode::Join {
        algo,
        conds,
        left: Box::new(left),
        right: Box::new(right),
    }
}

fn count(input: PlanNode) -> PlanNode {
    PlanNode::Aggregate {
        algo: AggAlgo::Hash,
        input: Box::new(input),
    }
}

fn bench_executor(c: &mut Criterion) {
    let db = SynthDb::build(SynthConfig {
        tables: 3,
        rows: 20_000,
        seed: 11,
    });
    let budget = ExecConfig::with_budget(200_000_000);
    let mut group = c.benchmark_group("executor");
    group.sample_size(10);

    // Plain scan, full output: both engines materialise 20k rows.
    {
        let single = db.query(Shape::Chain, 1, 1, 0);
        let plan = PhysicalPlan::new(scan(0));
        group.bench_function("seq_scan_20k/row", |b| {
            b.iter(|| {
                execute_rows(&db.db, &single, &plan, budget)
                    .expect("fits")
                    .rows
                    .len()
            })
        });
        group.bench_function("seq_scan_20k/t1", |b| {
            b.iter(|| {
                execute(&db.db, &single, &plan, budget)
                    .expect("fits")
                    .rows
                    .len()
            })
        });
    }

    // Hash-join-heavy counting query (the training workload shape):
    // 20k ⋈ 20k ⋈ 20k chain under COUNT(*). Early projection lets the
    // evaluator carry only join keys.
    {
        let graph = with_count(db.query(Shape::Chain, 3, 1, 0));
        let plan = PhysicalPlan::new(count(join(
            JoinAlgo::Hash,
            vec![1],
            join(JoinAlgo::Hash, vec![0], scan(0), scan(1)),
            scan(2),
        )));
        group.bench_function("hash_join_chain3_count/row", |b| {
            b.iter(|| {
                execute_rows(&db.db, &graph, &plan, budget)
                    .expect("fits")
                    .rows
                    .len()
            })
        });
        group.bench_function("hash_join_chain3_count/t1", |b| {
            b.iter(|| {
                execute(&db.db, &graph, &plan, budget)
                    .expect("fits")
                    .rows
                    .len()
            })
        });
    }

    // Two-way joins per algorithm, COUNT(*) root.
    let graph2 = with_count(db.query(Shape::Chain, 2, 1, 0));
    for algo in [JoinAlgo::Hash, JoinAlgo::Merge] {
        let plan = PhysicalPlan::new(count(join(algo, vec![0], scan(0), scan(1))));
        group.bench_function(format!("{}_20k_x_20k_count/row", algo.name()), |b| {
            b.iter(|| {
                execute_rows(&db.db, &graph2, &plan, budget)
                    .expect("fits")
                    .rows
                    .len()
            })
        });
        group.bench_function(format!("{}_20k_x_20k_count/t1", algo.name()), |b| {
            b.iter(|| {
                execute(&db.db, &graph2, &plan, budget)
                    .expect("fits")
                    .rows
                    .len()
            })
        });
    }

    // Full-output hash join: no projection win — both engines pay final
    // row materialisation; measures the vectorization floor.
    {
        let graph = db.query(Shape::Chain, 2, 1, 0);
        let plan = PhysicalPlan::new(join(JoinAlgo::Hash, vec![0], scan(0), scan(1)));
        group.bench_function("hash_join_20k_full_output/row", |b| {
            b.iter(|| {
                execute_rows(&db.db, &graph, &plan, budget)
                    .expect("fits")
                    .rows
                    .len()
            })
        });
        group.bench_function("hash_join_20k_full_output/t1", |b| {
            b.iter(|| {
                execute(&db.db, &graph, &plan, budget)
                    .expect("fits")
                    .rows
                    .len()
            })
        });
    }

    group.finish();
}

/// Predicate-kernel throughput across the selectivity range: a 20k-row
/// table filtered at 1%/10%/50%/90% through an int column (plain
/// storage) and a text column (dictionary + run-length encoded), each
/// through the row engine and the evaluator's selection-vector kernels
/// at one and four threads. Result identity (and the expected survivor
/// count) is asserted before any timing.
fn bench_filter_selectivity(c: &mut Criterion) {
    use hfqo_catalog::{Catalog, Column, ColumnId, ColumnType, TableSchema};
    use hfqo_query::{BoundColumn, Lit, QueryGraph, Relation, Selection};
    use hfqo_sql::CompareOp;
    use hfqo_storage::{Database, Value};

    const ROWS: i64 = 20_000;

    // `v` cycles 0..100 (uniform, no runs — stays plain); `s` holds 100
    // distinct tags in runs of 200 — the dictionary encodes it and RLE
    // stacks on the codes. `v < K` and `s < "sKK"` each pass exactly K%.
    let mut cat = Catalog::new();
    let t = cat
        .add_table(TableSchema::new(
            "f",
            vec![
                Column::new("v", ColumnType::Int),
                Column::new("s", ColumnType::Text),
            ],
        ))
        .expect("fresh catalog");
    let mut db = Database::new(cat);
    {
        let table = db.table_mut(t).expect("table exists");
        for i in 0..ROWS {
            table
                .append_row(&[
                    Value::Int(i % 100),
                    Value::str(format!("s{:02}", (i / 200) % 100)),
                ])
                .expect("schema matches");
        }
        assert_eq!(table.dictionary_encode_strings(4096), 1);
        assert_eq!(table.rle_encode_columns(2), 1);
    }

    let graph_with = |sel: Selection| {
        QueryGraph::new(
            vec![Relation {
                table: t,
                alias: "f".into(),
            }],
            vec![],
            vec![sel],
            vec![],
            vec![],
        )
    };
    let plan = PhysicalPlan::new(scan(0));
    let budget = ExecConfig::with_budget(200_000_000);

    let mut group = c.benchmark_group("filter_selectivity");
    group.sample_size(10);
    for pct in [1i64, 10, 50, 90] {
        let cases = [
            (
                "int",
                graph_with(Selection {
                    column: BoundColumn::new(RelId(0), ColumnId(0)),
                    op: CompareOp::Lt,
                    value: Lit::Int(pct),
                }),
            ),
            (
                "dict",
                graph_with(Selection {
                    column: BoundColumn::new(RelId(0), ColumnId(1)),
                    op: CompareOp::Lt,
                    value: Lit::Str(format!("s{pct:02}")),
                }),
            ),
        ];
        for (col, graph) in &cases {
            // Identity gate: the row engine and both team sizes agree,
            // and the predicate passes exactly pct% of the table.
            let batch = execute(&db, graph, &plan, budget).expect("fits");
            let row = execute_rows(&db, graph, &plan, budget).expect("fits");
            assert_eq!(
                batch.rows.len() as i64,
                ROWS * pct / 100,
                "{col} {pct}% survivor count"
            );
            assert_eq!(batch.rows, row.rows, "{col} {pct}% rows");
            assert_eq!(batch.stats.work, row.stats.work, "{col} {pct}% work");
            let par = execute(&db, graph, &plan, budget.threads(4)).expect("fits");
            assert_eq!(par.rows, batch.rows, "{col} {pct}% parallel rows");
            assert_eq!(
                par.stats.work, batch.stats.work,
                "{col} {pct}% parallel work"
            );

            group.bench_function(format!("{col}_{pct}pct/row"), |b| {
                b.iter(|| {
                    execute_rows(&db, graph, &plan, budget)
                        .expect("fits")
                        .rows
                        .len()
                })
            });
            group.bench_function(format!("{col}_{pct}pct/t1"), |b| {
                b.iter(|| execute(&db, graph, &plan, budget).expect("fits").rows.len())
            });
            group.bench_function(format!("{col}_{pct}pct/t4"), |b| {
                b.iter(|| {
                    execute(&db, graph, &plan, budget.threads(4))
                        .expect("fits")
                        .rows
                        .len()
                })
            });
        }
    }
    group.finish();
}

/// Morsel-driven parallel scaling on join-heavy queries. Before timing
/// anything, every (plan, threads) pair is executed once and checked
/// bit-identical to the one-thread result — a scaling number for a
/// wrong answer is worthless.
fn bench_parallel_scaling(c: &mut Criterion) {
    let db = SynthDb::build(SynthConfig {
        tables: 3,
        rows: 20_000,
        seed: 11,
    });
    let budget = ExecConfig::with_budget(200_000_000);
    let mut group = c.benchmark_group("parallel_scaling");
    group.sample_size(10);

    let cases: Vec<(&str, _, PhysicalPlan)> = vec![
        (
            "hash_join_20k_x_20k_count",
            with_count(db.query(Shape::Chain, 2, 1, 0)),
            PhysicalPlan::new(count(join(JoinAlgo::Hash, vec![0], scan(0), scan(1)))),
        ),
        (
            "hash_join_chain3_count",
            with_count(db.query(Shape::Chain, 3, 1, 0)),
            PhysicalPlan::new(count(join(
                JoinAlgo::Hash,
                vec![1],
                join(JoinAlgo::Hash, vec![0], scan(0), scan(1)),
                scan(2),
            ))),
        ),
        (
            "hash_join_20k_full_output",
            db.query(Shape::Chain, 2, 1, 0),
            PhysicalPlan::new(join(JoinAlgo::Hash, vec![0], scan(0), scan(1))),
        ),
    ];

    for (name, graph, plan) in &cases {
        let serial = execute(&db.db, graph, plan, budget).expect("fits");
        for threads in [2usize, 4, 8] {
            let cfg = budget.threads(threads);
            // Result identity gate: same rows in the same order, same
            // work total, at every thread count.
            let par = execute(&db.db, graph, plan, cfg).expect("fits");
            assert_eq!(par.rows, serial.rows, "{name} t={threads}");
            assert_eq!(par.stats.work, serial.stats.work, "{name} t={threads}");
            group.bench_function(format!("{name}/t{threads}"), |b| {
                b.iter(|| execute(&db.db, graph, plan, cfg).expect("fits").rows.len())
            });
        }
    }

    group.finish();
}

/// Bulk CSV ingest throughput over the checked-in IMDB sample (rows/s
/// reported via the loader's own wall-clock; the bench measures the
/// whole load including dictionary encoding, indexes, and statistics).
fn bench_loader(c: &mut Criterion) {
    let dir = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/data/imdb_sample"
    ));
    if !dir.exists() {
        return;
    }
    let opts = LoaderOptions::default();
    let (_, _, report) = load_imdb_csv_dir(dir, &opts).expect("sample loads");
    let rows = report.total_rows();
    assert_eq!(rows, 1437, "checked-in sample size");
    println!(
        "loader: {} rows, {} bytes, {:.0} rows/s (parse+insert only)",
        rows,
        report.total_bytes(),
        report.rows_per_sec()
    );

    let mut group = c.benchmark_group("loader");
    group.sample_size(10);
    group.bench_function("imdb_sample_1k", |b| {
        b.iter(|| {
            load_imdb_csv_dir(dir, &opts)
                .expect("sample loads")
                .2
                .total_rows()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_executor,
    bench_filter_selectivity,
    bench_parallel_scaling,
    bench_loader
);
criterion_main!(benches);
