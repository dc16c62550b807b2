//! Batch-vs-row executor equivalence.
//!
//! The vectorized batch pipeline must be *observationally identical* to
//! the reference row engine: identical row multisets (hash-grouped
//! output order may differ) and identical `ExecStats.work` totals, on
//! every workload the experiments use — synthetic chain/star/cycle
//! queries and the IMDB/JOB-like suite — across expert plans, random
//! plans, every join algorithm, and budget-capped aborts.
//!
//! Every check also runs the **morsel-driven parallel evaluator** at
//! each thread count in `HFQO_EXEC_THREADS` (default `2,4`): parallel
//! results must match the serial batch pipeline *in exact row order*
//! (hash-grouped aggregates excepted — their emission order is
//! unspecified in both engines), with identical work totals, and abort
//! on exactly the same budgets.
//!
//! A third axis covers **storage encodings**: the same workload
//! materialised plain, dictionary-encoded, and run-length encoded must
//! yield identical results and work everywhere (see
//! [`encoding_equivalence`], gated by `HFQO_FORCE_ENCODING`).

use hfqo::exec::{execute_rows, ExecError};
use hfqo::prelude::*;
use hfqo::workload::synth::{Shape, SynthConfig, SynthDb};
use hfqo_query::{AggAlgo, PlanNode};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// Thread counts for the parallel-vs-serial pass: `HFQO_EXEC_THREADS`
/// (comma-separated), defaulting to `2,4`.
fn exec_threads() -> &'static [usize] {
    static COUNTS: OnceLock<Vec<usize>> = OnceLock::new();
    COUNTS.get_or_init(|| match std::env::var("HFQO_EXEC_THREADS") {
        Ok(raw) => raw
            .split(',')
            .map(|tok| {
                tok.trim()
                    .parse::<usize>()
                    .unwrap_or_else(|_| panic!("invalid HFQO_EXEC_THREADS entry {tok:?}"))
                    .max(1)
            })
            .collect(),
        Err(_) => vec![2, 4],
    })
}

/// One uniformly random valid plan of `graph`.
fn draw_random_plan(db: &SynthDb, graph: &QueryGraph, rng: &mut StdRng) -> PhysicalPlan {
    let ctx = PlannerContext::new(db.db.catalog(), &db.stats);
    let (model, cards) = (ctx.cost_model(), ctx.estimator());
    PhysicalPlan::new(random_plan(graph, db.db.catalog(), &model, &cards, rng).0)
}

fn synth() -> &'static SynthDb {
    static DB: OnceLock<SynthDb> = OnceLock::new();
    DB.get_or_init(|| {
        SynthDb::build(SynthConfig {
            tables: 6,
            rows: 400,
            seed: 21,
        })
    })
}

fn imdb() -> &'static WorkloadBundle {
    static DB: OnceLock<WorkloadBundle> = OnceLock::new();
    DB.get_or_init(|| {
        WorkloadBundle::imdb_job(
            ImdbConfig {
                base_rows: 300,
                seed: 9,
            },
            6,
        )
    })
}

/// Asserts the two engines agree on `plan`: same row multiset, same
/// work; or the same budget-exceeded outcome. Then re-runs the plan
/// through the parallel evaluator at every [`exec_threads`] count and
/// asserts it matches the serial batch outcome exactly.
fn assert_equivalent(
    db: &Database,
    graph: &QueryGraph,
    plan: &PhysicalPlan,
    config: ExecConfig,
    what: &str,
) {
    let batch = hfqo::exec::execute(db, graph, plan, config);
    let row = execute_rows(db, graph, plan, config);
    match (&batch, row) {
        (Ok(b), Ok(r)) => {
            let mut bs = b.rows.clone();
            let mut rs = r.rows.clone();
            bs.sort();
            rs.sort();
            assert_eq!(bs, rs, "{what}: row multisets differ");
            assert_eq!(b.stats.work, r.stats.work, "{what}: work totals differ");
            assert_eq!(b.layout, r.layout, "{what}: layouts differ");
            assert_eq!(b.schema, r.schema, "{what}: schemas differ");
        }
        (
            Err(ExecError::BudgetExceeded { budget: b, .. }),
            Err(ExecError::BudgetExceeded { budget: r, .. }),
        ) => {
            assert_eq!(*b, r, "{what}: different budgets reported");
        }
        (b, r) => panic!(
            "{what}: engines disagree on outcome: batch {:?} vs row {:?}",
            b.as_ref().map(|o| o.rows.len()),
            r.map(|o| o.rows.len())
        ),
    }
    // Hash-grouped aggregates emit groups in unspecified order in both
    // engines; everything else is order-deterministic and the parallel
    // evaluator must reproduce the serial order bit-for-bit.
    let order_stable = !matches!(
        &plan.root,
        PlanNode::Aggregate {
            algo: AggAlgo::Hash,
            ..
        }
    );
    for &threads in exec_threads() {
        let par = hfqo::exec::execute(db, graph, plan, config.threads(threads));
        match (&batch, par) {
            (Ok(b), Ok(p)) => {
                if order_stable {
                    assert_eq!(p.rows, b.rows, "{what}: parallel t={threads} row order");
                } else {
                    let mut ps = p.rows.clone();
                    let mut bs = b.rows.clone();
                    ps.sort();
                    bs.sort();
                    assert_eq!(ps, bs, "{what}: parallel t={threads} multiset");
                }
                assert_eq!(
                    p.stats.work, b.stats.work,
                    "{what}: parallel t={threads} work"
                );
                assert_eq!(p.layout, b.layout, "{what}: parallel t={threads} layout");
                assert_eq!(p.schema, b.schema, "{what}: parallel t={threads} schema");
            }
            (
                Err(ExecError::BudgetExceeded { budget: b, .. }),
                Err(ExecError::BudgetExceeded { budget: p, .. }),
            ) => {
                assert_eq!(*b, p, "{what}: parallel t={threads} budget");
            }
            (b, p) => panic!(
                "{what}: serial and parallel (t={threads}) disagree: {:?} vs {:?}",
                b.as_ref().map(|o| o.rows.len()),
                p.map(|o| o.rows.len())
            ),
        }
    }
}

#[test]
fn synth_expert_plans_are_equivalent() {
    let db = synth();
    let expert = TraditionalPlanner::new();
    let ctx = PlannerContext::new(db.db.catalog(), &db.stats);
    for shape in [Shape::Chain, Shape::Star, Shape::Cycle] {
        for n in 2..=5 {
            for qseed in 0..3 {
                let graph = db.query(shape, n, 2, qseed);
                let plan = expert.plan(&ctx, &graph).expect("plannable").plan;
                assert_equivalent(
                    &db.db,
                    &graph,
                    &plan,
                    ExecConfig::default(),
                    &format!("synth {shape:?} n={n} seed={qseed}"),
                );
            }
        }
    }
}

#[test]
fn synth_random_plans_are_equivalent() {
    let db = synth();
    let mut rng = StdRng::seed_from_u64(3);
    for qseed in 0..6 {
        let graph = db.query(Shape::Chain, 4, 2, qseed);
        for p in 0..4 {
            let plan = draw_random_plan(db, &graph, &mut rng);
            // A random order can be a budget-busting cross join; both
            // engines must agree either way.
            assert_equivalent(
                &db.db,
                &graph,
                &plan,
                ExecConfig::default(),
                &format!("random qseed={qseed} p={p}"),
            );
        }
    }
}

#[test]
fn imdb_job_expert_plans_are_equivalent() {
    let bundle = imdb();
    let expert = TraditionalPlanner::new();
    let ctx = PlannerContext::new(bundle.db.catalog(), &bundle.stats);
    for (i, graph) in bundle.queries.iter().take(20).enumerate() {
        let plan = expert.plan(&ctx, graph).expect("plannable").plan;
        assert_equivalent(
            &bundle.db,
            graph,
            &plan,
            ExecConfig::default(),
            &format!("imdb q{i} ({:?})", graph.label),
        );
    }
}

#[test]
fn aggregate_variants_are_equivalent() {
    let db = synth();
    let expert = TraditionalPlanner::new();
    let ctx = PlannerContext::new(db.db.catalog(), &db.stats);
    for qseed in 0..4 {
        let graph = hfqo::opt::test_support::with_count(db.query(Shape::Star, 4, 1, qseed));
        let plan = expert.plan(&ctx, &graph).expect("plannable").plan;
        // Exercise both aggregation algorithms over the same join tree.
        for algo in [AggAlgo::Hash, AggAlgo::Sort] {
            let plan = match &plan.root {
                PlanNode::Aggregate { input, .. } => PhysicalPlan::new(PlanNode::Aggregate {
                    algo,
                    input: input.clone(),
                }),
                other => PhysicalPlan::new(PlanNode::Aggregate {
                    algo,
                    input: Box::new(other.clone()),
                }),
            };
            assert_equivalent(
                &db.db,
                &graph,
                &plan,
                ExecConfig::default(),
                &format!("agg {algo:?} qseed={qseed}"),
            );
        }
    }
}

#[test]
fn budget_capped_plans_abort_identically() {
    let db = synth();
    let mut rng = StdRng::seed_from_u64(8);
    let graph = db.query(Shape::Chain, 5, 0, 2);
    for p in 0..6 {
        let plan = draw_random_plan(db, &graph, &mut rng);
        assert_equivalent(
            &db.db,
            &graph,
            &plan,
            ExecConfig::with_budget(5_000),
            &format!("tight-budget p={p}"),
        );
    }
}

mod empty_input {
    //! Zero-batch coverage for the operator zoo: a selection filters an
    //! input to zero rows, and the batch pipeline must agree with the
    //! row engine everywhere a zero-batch can reach — merge join (the
    //! original PR 2 fix), hash join build and probe sides, and both
    //! aggregation algorithms. These pin the class of bug where an
    //! operator indexes into a first batch that never arrives.

    use super::*;
    use hfqo::catalog::{Column, ColumnId, ColumnType, TableSchema};
    use hfqo::query::{AccessPath, BoundColumn, JoinEdge, Lit, RelId, Relation, Selection};
    use hfqo::sql::CompareOp;
    use hfqo::storage::Value;
    use hfqo_query::JoinAlgo;

    /// A two-table database (`a`, `b`, one int key column, 5 matching
    /// rows each) and its join graph, with a never-matching selection
    /// on each relation listed in `empty_rels`.
    fn join_fixture(empty_rels: &[usize]) -> (Database, QueryGraph) {
        let mut cat = Catalog::new();
        let a = cat
            .add_table(TableSchema::new(
                "a",
                vec![Column::new("k", ColumnType::Int)],
            ))
            .unwrap();
        let b = cat
            .add_table(TableSchema::new(
                "b",
                vec![Column::new("k", ColumnType::Int)],
            ))
            .unwrap();
        let mut db = Database::new(cat);
        for i in 0..5i64 {
            db.table_mut(a)
                .unwrap()
                .append_row(&[Value::Int(i)])
                .unwrap();
            db.table_mut(b)
                .unwrap()
                .append_row(&[Value::Int(i)])
                .unwrap();
        }
        let graph = QueryGraph::new(
            vec![
                Relation {
                    table: a,
                    alias: "a".into(),
                },
                Relation {
                    table: b,
                    alias: "b".into(),
                },
            ],
            vec![JoinEdge {
                left: BoundColumn::new(RelId(0), ColumnId(0)),
                op: CompareOp::Eq,
                right: BoundColumn::new(RelId(1), ColumnId(0)),
            }],
            // Never-matching selections empty the chosen sides.
            empty_rels
                .iter()
                .map(|&r| Selection {
                    column: BoundColumn::new(RelId(r as u32), ColumnId(0)),
                    op: CompareOp::Lt,
                    value: Lit::Int(-100),
                })
                .collect(),
            vec![],
            vec![],
        );
        (db, graph)
    }

    fn join_plan(algo: JoinAlgo) -> PhysicalPlan {
        PhysicalPlan::new(PlanNode::Join {
            algo,
            conds: vec![0],
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

    /// Merge join with an empty input side. Promoted from a PR 1 review
    /// scratch test; this exposed (and pins) the zero-batch key-column
    /// sort panic fixed in PR 2.
    #[test]
    fn merge_join_with_empty_input_side_is_equivalent() {
        let (db, graph) = join_fixture(&[0]);
        let plan = join_plan(JoinAlgo::Merge);
        assert_equivalent(
            &db,
            &graph,
            &plan,
            ExecConfig::default(),
            "empty-side merge",
        );
        let out = hfqo::exec::execute(&db, &graph, &plan, ExecConfig::default()).unwrap();
        assert_eq!(out.rows.len(), 0, "filtered side yields no join output");
    }

    /// Hash join whose *probe* side (the left input) is filtered to
    /// zero rows: the probe loop must drain cleanly against a populated
    /// build table.
    #[test]
    fn hash_join_with_empty_probe_side_is_equivalent() {
        let (db, graph) = join_fixture(&[0]);
        let plan = join_plan(JoinAlgo::Hash);
        assert_equivalent(
            &db,
            &graph,
            &plan,
            ExecConfig::default(),
            "empty-probe hash join",
        );
        let out = hfqo::exec::execute(&db, &graph, &plan, ExecConfig::default()).unwrap();
        assert_eq!(out.rows.len(), 0);
    }

    /// Hash join whose *build* side (the right input) is filtered to
    /// zero rows: building over no batches must leave a valid, empty
    /// hash table for the probe phase.
    #[test]
    fn hash_join_with_empty_build_side_is_equivalent() {
        let (db, graph) = join_fixture(&[1]);
        let plan = join_plan(JoinAlgo::Hash);
        assert_equivalent(
            &db,
            &graph,
            &plan,
            ExecConfig::default(),
            "empty-build hash join",
        );
        let out = hfqo::exec::execute(&db, &graph, &plan, ExecConfig::default()).unwrap();
        assert_eq!(out.rows.len(), 0);
    }

    /// Both sides empty at once, for every join algorithm.
    #[test]
    fn joins_with_both_sides_empty_are_equivalent() {
        for algo in [JoinAlgo::Hash, JoinAlgo::Merge, JoinAlgo::NestedLoop] {
            let (db, graph) = join_fixture(&[0, 1]);
            let plan = join_plan(algo);
            assert_equivalent(
                &db,
                &graph,
                &plan,
                ExecConfig::default(),
                &format!("both-empty {algo:?}"),
            );
        }
    }

    /// Aggregation (hash- and sort-based) over an input filtered to
    /// zero rows: the aggregate operator sees no batches at all, and
    /// both engines must agree on the result of aggregating nothing.
    #[test]
    fn aggregation_over_empty_input_is_equivalent() {
        for algo in [AggAlgo::Hash, AggAlgo::Sort] {
            let (db, graph) = join_fixture(&[0, 1]);
            let graph = hfqo::opt::test_support::with_count(graph);
            let plan = PhysicalPlan::new(PlanNode::Aggregate {
                algo,
                input: Box::new(join_plan(JoinAlgo::Hash).root),
            });
            assert_equivalent(
                &db,
                &graph,
                &plan,
                ExecConfig::default(),
                &format!("empty-input aggregate {algo:?}"),
            );
        }
    }
}

mod morsel_geometry {
    //! Property: parallel execution is invariant to morsel geometry.
    //! Random (thread count, morsel size) pairs over expert plans must
    //! reproduce the serial batch result bit-for-bit — row order, work
    //! total, everything. This is the knob space a bug in morsel-order
    //! reassembly or charge accounting would show up in.

    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn parallel_execution_is_invariant_to_morsel_geometry(
            threads in 2usize..6,
            morsel in 1usize..700,
            shape_ix in 0usize..3,
            qseed in 0u64..4,
        ) {
            let db = synth();
            let shape = [Shape::Chain, Shape::Star, Shape::Cycle][shape_ix];
            let graph = db.query(shape, 3, 1, qseed);
            let expert = TraditionalPlanner::new();
            let ctx = PlannerContext::new(db.db.catalog(), &db.stats);
            let plan = expert.plan(&ctx, &graph).expect("plannable").plan;
            let serial = hfqo::exec::execute(&db.db, &graph, &plan, ExecConfig::default())
                .expect("serial executes");
            let cfg = ExecConfig::default().threads(threads).morsel_rows(morsel);
            let par = hfqo::exec::execute(&db.db, &graph, &plan, cfg)
                .expect("parallel executes");
            let order_stable = !matches!(
                &plan.root,
                PlanNode::Aggregate { algo: AggAlgo::Hash, .. }
            );
            if order_stable {
                prop_assert_eq!(&par.rows, &serial.rows);
            } else {
                let mut ps = par.rows.clone();
                let mut ss = serial.rows.clone();
                ps.sort();
                ss.sort();
                prop_assert_eq!(ps, ss);
            }
            prop_assert_eq!(par.stats.work, serial.stats.work);
        }
    }
}

mod encoding_equivalence {
    //! Property: results and work are invariant to storage encoding.
    //! The same IMDB workload is materialised three ways — plain
    //! columns, dictionary-encoded text, and run-length encoding
    //! stacked on top — and every plan must produce the same row
    //! multiset and the *same `ExecStats.work`* on each, across the row
    //! engine, the batch engine, and the parallel evaluator at every
    //! thread count. Work charges per *visited row*, so compression
    //! must never change what a query costs.
    //!
    //! `HFQO_FORCE_ENCODING` (comma-separated `plain,dict,rle`)
    //! restricts the encodings exercised — the CI matrix uses it to run
    //! each encoding in its own job; the default covers all three and
    //! cross-checks them against each other.

    use super::*;
    use proptest::prelude::*;

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Enc {
        Plain,
        Dict,
        Rle,
    }

    impl Enc {
        fn parse(tok: &str) -> Self {
            match tok.trim() {
                "plain" => Self::Plain,
                "dict" => Self::Dict,
                "rle" => Self::Rle,
                other => panic!("invalid HFQO_FORCE_ENCODING entry {other:?}"),
            }
        }
    }

    /// Encodings under test: `HFQO_FORCE_ENCODING` or all three.
    fn forced_encodings() -> &'static [Enc] {
        static ENCS: OnceLock<Vec<Enc>> = OnceLock::new();
        ENCS.get_or_init(|| match std::env::var("HFQO_FORCE_ENCODING") {
            Ok(raw) => raw.split(',').map(Enc::parse).collect(),
            Err(_) => vec![Enc::Plain, Enc::Dict, Enc::Rle],
        })
    }

    /// The [`super::imdb`] workload, re-encoded wholesale: every column
    /// decoded to plain storage first, then pushed into `enc`. Thresholds
    /// are maximal (`usize::MAX` distinct values, average run ≥ 1) so the
    /// encoding applies to every eligible column, not just favourable
    /// ones. Indexes are rebuilt over the re-encoded columns.
    fn encoded(enc: Enc) -> &'static WorkloadBundle {
        static PLAIN: OnceLock<WorkloadBundle> = OnceLock::new();
        static DICT: OnceLock<WorkloadBundle> = OnceLock::new();
        static RLE: OnceLock<WorkloadBundle> = OnceLock::new();
        let cell = match enc {
            Enc::Plain => &PLAIN,
            Enc::Dict => &DICT,
            Enc::Rle => &RLE,
        };
        cell.get_or_init(|| {
            let mut bundle = WorkloadBundle::imdb_job(
                ImdbConfig {
                    base_rows: 300,
                    seed: 9,
                },
                6,
            );
            let tids: Vec<_> = bundle.db.catalog().tables().map(|(tid, _)| tid).collect();
            for tid in tids {
                let table = bundle.db.table_mut(tid).expect("table exists");
                table.decode_columns();
                match enc {
                    Enc::Plain => {}
                    Enc::Dict => {
                        table.dictionary_encode_strings(usize::MAX);
                    }
                    Enc::Rle => {
                        table.dictionary_encode_strings(usize::MAX);
                        table.rle_encode_columns(1);
                    }
                }
            }
            bundle.db.build_indexes().expect("indexes rebuild");
            bundle
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn results_and_work_are_encoding_invariant(
            qi in 0usize..20,
            budget_k in 0u64..40,
        ) {
            // Each encoding first proves row/batch/parallel agreement
            // internally, then its serial batch outcome is compared
            // against the first encoding's — including budget aborts,
            // which must trip at the same work count everywhere.
            let mut baseline = None;
            for &enc in forced_encodings() {
                let bundle = encoded(enc);
                let graph = &bundle.queries[qi % bundle.queries.len()];
                let expert = TraditionalPlanner::new();
                let ctx = PlannerContext::new(bundle.db.catalog(), &bundle.stats);
                let plan = expert.plan(&ctx, graph).expect("plannable").plan;
                // budget_k == 0 means unlimited; small multiples force
                // mid-plan aborts.
                let config = match budget_k {
                    0 => ExecConfig::default(),
                    k => ExecConfig::with_budget(k * 5_000),
                };
                assert_equivalent(
                    &bundle.db,
                    graph,
                    &plan,
                    config,
                    &format!("encoding {enc:?} q{qi}"),
                );
                let outcome = match hfqo::exec::execute(&bundle.db, graph, &plan, config) {
                    Ok(out) => {
                        let mut rows = out.rows;
                        rows.sort();
                        Ok((rows, out.stats.work))
                    }
                    Err(ExecError::BudgetExceeded { work_done, budget }) => {
                        Err((work_done, budget))
                    }
                    Err(e) => panic!("encoding {enc:?} q{qi}: {e:?}"),
                };
                match &baseline {
                    None => baseline = Some((enc, outcome)),
                    Some((base_enc, base)) => prop_assert_eq!(
                        &outcome,
                        base,
                        "q{} encoding {:?} vs {:?}",
                        qi,
                        enc,
                        base_enc
                    ),
                }
            }
        }
    }
}

mod join_paths {
    //! Property: hash and nested-loop joins equal the row oracle — rows,
    //! row order and `work` — across every boundary of the evaluator's
    //! join tables and of the nested loop's choice between looking its
    //! matches up and scanning for them: build keys of one, two, three
    //! and many rows, laid out grouped (a table keeps that layout) and
    //! shuffled (a table regroups it); more distinct keys than a table's
    //! map is pre-sized for; NULL keys on both sides; probe and inner
    //! row counts on both sides of the lookup rule; a second `=` and a
    //! `<` beside the key; full and zero-width (`COUNT(*)`) outputs; and
    //! teams of 1, 2 and 4 × morsels of 1, 64 and 4096 rows. A budget
    //! sweep then holds aborts to the oracle's through both nested-loop
    //! ways.

    use super::*;
    use hfqo::catalog::{Column, ColumnId, ColumnType, TableSchema};
    use hfqo::query::{AccessPath, BoundColumn, JoinEdge, RelId, Relation};
    use hfqo::sql::CompareOp;
    use hfqo::storage::Value;
    use hfqo_query::JoinAlgo;
    use proptest::prelude::*;
    use rand::Rng;

    const GEOMETRIES: [(usize, usize); 9] = [
        (1, 1),
        (1, 64),
        (1, 4096),
        (2, 1),
        (2, 64),
        (2, 4096),
        (4, 1),
        (4, 64),
        (4, 4096),
    ];

    /// Join conditions (edges 0, 1, 2 of [`world`]): the key alone, the
    /// key and a second `=`, the key and a `<`, both `=`s and the `<`,
    /// and both `=`s with the low-cardinality `r` first, so that a hash
    /// join charges the candidates of `r` and matches on both.
    const CONDS: [&[usize]; 5] = [&[0], &[0, 1], &[0, 2], &[0, 1, 2], &[1, 0]];

    /// The probe side `a(k, r)` and the inner (build) side `b(k, r)`
    /// holding `a_keys` and `b_keys`, `r` in `0..4` or NULL; edges 0
    /// `a.k = b.k`, 1 `a.r = b.r`, 2 `a.r < b.r`.
    fn world(
        a_keys: &[Option<i64>],
        b_keys: &[Option<i64>],
        rng: &mut StdRng,
    ) -> (Database, QueryGraph) {
        let cols = || {
            vec![
                Column::nullable("k", ColumnType::Int),
                Column::nullable("r", ColumnType::Int),
            ]
        };
        let mut cat = Catalog::new();
        let a = cat.add_table(TableSchema::new("a", cols())).unwrap();
        let b = cat.add_table(TableSchema::new("b", cols())).unwrap();
        let mut db = Database::new(cat);
        for (table, keys) in [(a, a_keys), (b, b_keys)] {
            for &k in keys {
                let r = match rng.gen_range(0..8u32) {
                    0 => Value::Null,
                    r => Value::Int(i64::from(r % 4)),
                };
                let row = [k.map_or(Value::Null, Value::Int), r];
                db.table_mut(table).unwrap().append_row(&row).unwrap();
            }
        }
        let edge = |col: u32, op| JoinEdge {
            left: BoundColumn::new(RelId(0), ColumnId(col)),
            op,
            right: BoundColumn::new(RelId(1), ColumnId(col)),
        };
        let relation = |table, alias: &str| Relation {
            table,
            alias: alias.into(),
        };
        let graph = QueryGraph::new(
            vec![relation(a, "a"), relation(b, "b")],
            vec![
                edge(0, CompareOp::Eq),
                edge(1, CompareOp::Eq),
                edge(1, CompareOp::Lt),
            ],
            vec![],
            vec![],
            vec![],
        );
        (db, graph)
    }

    /// `inner` build keys whose rows per key follow `profile` — 0: one
    /// each; 1: one, two or three; 2: one to four keys share all rows;
    /// 3: one, two, three or 20–80 — with one row in ten NULL, grouped by
    /// key or shuffled. Returns the keys and how many distinct ones.
    fn inner_keys(
        inner: usize,
        profile: usize,
        grouped: bool,
        rng: &mut StdRng,
    ) -> (Vec<Option<i64>>, i64) {
        let mut keys: Vec<Option<i64>> = Vec::with_capacity(inner);
        let few = rng.gen_range(1..=4i64);
        let mut key = 0i64;
        while keys.len() < inner {
            let rows = match profile {
                0 => 1,
                1 => rng.gen_range(1..=3usize),
                2 => inner,
                _ => [1, 2, 3, rng.gen_range(20..=80)][rng.gen_range(0..4usize)],
            };
            for _ in 0..rows.min(inner - keys.len()) {
                let k = if profile == 2 {
                    rng.gen_range(0..few)
                } else {
                    key
                };
                keys.push((rng.gen_range(0..10u32) != 0).then_some(k));
            }
            key += 1;
        }
        if grouped {
            keys.sort_by_key(|k| k.unwrap_or(i64::MAX));
        } else {
            for i in (1..keys.len()).rev() {
                keys.swap(i, rng.gen_range(0..=i));
            }
        }
        let distinct = if profile == 2 { few } else { key };
        (keys, distinct)
    }

    fn join(algo: JoinAlgo, conds: &[usize]) -> PlanNode {
        let scan = |rel| {
            Box::new(PlanNode::Scan {
                rel: RelId(rel),
                path: AccessPath::SeqScan,
            })
        };
        PlanNode::Join {
            algo,
            conds: conds.to_vec(),
            left: scan(0),
            right: scan(1),
        }
    }

    /// `plan` at every geometry against the row oracle: the same rows in
    /// the same order and the same `work`, unbudgeted.
    fn assert_paths_match(db: &Database, graph: &QueryGraph, plan: &PhysicalPlan, what: &str) {
        let unbounded = ExecConfig::with_budget(u64::MAX);
        let oracle = execute_rows(db, graph, plan, unbounded).expect("oracle executes");
        for (threads, morsel_rows) in GEOMETRIES {
            let config = unbounded.threads(threads).morsel_rows(morsel_rows);
            let got = hfqo::exec::execute(db, graph, plan, config).expect("executes");
            let tag = format!("{what} t={threads} m={morsel_rows}");
            assert_eq!(got.rows, oracle.rows, "{tag}: rows");
            assert_eq!(got.stats.work, oracle.stats.work, "{tag}: work");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn joins_equal_the_row_oracle_across_table_and_lookup_boundaries(
            seed in 0u64..1_000_000,
            probe in 0usize..160,
            inner in 0usize..400,
            profile in 0usize..4,
            grouped in 0usize..2,
            size in 0usize..5,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            // One case in five is a unique-key build past the table's
            // 1024-key pre-size: a hash join only, its pairs are many.
            // One in five has an inner side of 0–2 rows, half the time
            // all NULL: an empty table, or a nested loop with no inner row.
            let wide = size == 0;
            let (inner, profile) = match size {
                0 => (1024 + inner * 4, 0),
                1 => (inner % 3, profile),
                _ => (inner, profile),
            };
            let (mut b_keys, distinct) = inner_keys(inner, profile, grouped == 1, &mut rng);
            if size == 1 && seed % 2 == 0 {
                b_keys.fill(None);
            }
            // Probe keys: one in ten NULL, one in five absent from `b`.
            let a_keys: Vec<Option<i64>> = (0..probe)
                .map(|_| match rng.gen_range(0..10u32) {
                    0 => None,
                    1 | 2 => Some(-1 - rng.gen_range(0..5i64)),
                    _ => Some(rng.gen_range(0..distinct.max(1))),
                })
                .collect();
            let (db, graph) = world(&a_keys, &b_keys, &mut rng);
            let counted = hfqo::opt::test_support::with_count(graph.clone());
            let algos: &[JoinAlgo] = if wide {
                &[JoinAlgo::Hash]
            } else {
                &[JoinAlgo::Hash, JoinAlgo::NestedLoop]
            };
            for &algo in algos {
                for conds in CONDS {
                    let what = format!("{algo:?} {conds:?} {probe}×{inner} profile {profile}");
                    let plan = PhysicalPlan::new(join(algo, conds));
                    assert_paths_match(&db, &graph, &plan, &what);
                    let count = PhysicalPlan::new(PlanNode::Aggregate {
                        algo: AggAlgo::Hash,
                        input: Box::new(plan.root.clone()),
                    });
                    assert_paths_match(&db, &counted, &count, &format!("COUNT(*) {what}"));
                }
            }
        }
    }

    #[test]
    fn budget_aborts_match_the_oracle_through_both_nested_loop_ways() {
        // 66 × 66 rows looks its matches up (66 · 66 > 32 · 132); 8 × 66
        // scans. Both over shuffled keys of one to three rows, with a `<`
        // beside the key; every team size and every morsel size once (all
        // nine pairs would take the debug suite 18 s).
        let mut rng = StdRng::seed_from_u64(25);
        let (b_keys, distinct) = inner_keys(66, 1, false, &mut rng);
        for probe in [66, 8] {
            let a_keys: Vec<Option<i64>> = (0..probe)
                .map(|i| (i % 9 != 4).then(|| rng.gen_range(0..distinct + 2)))
                .collect();
            let (db, graph) = world(&a_keys, &b_keys, &mut rng);
            let plan = PhysicalPlan::new(join(JoinAlgo::NestedLoop, &[0, 2]));
            let total = execute_rows(&db, &graph, &plan, ExecConfig::with_budget(u64::MAX))
                .expect("oracle executes")
                .stats
                .work;
            for budget in 0..=total + 1 {
                let oracle_aborts =
                    execute_rows(&db, &graph, &plan, ExecConfig::with_budget(budget)).is_err();
                assert_eq!(oracle_aborts, budget < total);
                for (threads, morsel_rows) in [(1, 1), (2, 64), (4, 4096)] {
                    let config = ExecConfig::with_budget(budget)
                        .threads(threads)
                        .morsel_rows(morsel_rows);
                    let tag = format!("{probe}×66 budget {budget} t={threads} m={morsel_rows}");
                    match hfqo::exec::execute(&db, &graph, &plan, config) {
                        Ok(_) => assert!(!oracle_aborts, "{tag}: ran, the oracle aborts"),
                        Err(ExecError::BudgetExceeded { budget: b, .. }) => {
                            assert!(
                                oracle_aborts && b == budget,
                                "{tag}: aborted, the oracle runs"
                            )
                        }
                        Err(other) => panic!("{tag}: {other}"),
                    }
                }
            }
        }
    }
}

#[test]
fn true_cardinality_oracle_matches_row_counts() {
    // The oracle now counts through zero-column batch pipelines; its
    // counts must equal full row-engine execution of the same subsets.
    let bundle = imdb();
    for graph in bundle.queries.iter().take(8) {
        let oracle = TrueCardinality::new(&bundle.db);
        let counted = oracle.set_rows(graph, graph.all_rels());
        let expert = TraditionalPlanner::new();
        let ctx = PlannerContext::new(bundle.db.catalog(), &bundle.stats);
        let plan = expert.plan(&ctx, graph).expect("plannable").plan;
        let join_only = match &plan.root {
            PlanNode::Aggregate { input, .. } => PhysicalPlan::new((**input).clone()),
            other => PhysicalPlan::new(other.clone()),
        };
        let executed = execute_rows(&bundle.db, graph, &join_only, ExecConfig::default())
            .expect("executes")
            .rows
            .len() as f64;
        assert_eq!(counted, executed, "{:?}", graph.label);
    }
}

mod arena_reuse {
    //! The evaluator keeps one scratch arena per thread — the stage
    //! list's buffers, spare chunk columns, selection and pair buffers,
    //! spare join tables — and every execute on that thread takes from
    //! it and gives back to it. Nothing an execute returns may depend on
    //! what ran before it on the thread: not on another plan's buffers,
    //! not on a plan that aborted half-way through a stage, and not on
    //! the constants an earlier run of the same plan read.

    use super::*;
    use hfqo::exec::Row;
    use hfqo_query::{bind_select, substitute, AggAlgo, Lit};
    use rand::Rng;

    /// `template_zipf`'s database: twelve `s{i}(id, fk, val)` tables of
    /// 300 rows.
    fn zipf_db() -> &'static SynthDb {
        static DB: OnceLock<SynthDb> = OnceLock::new();
        DB.get_or_init(|| {
            SynthDb::build(SynthConfig {
                tables: 12,
                rows: 300,
                seed: 31,
            })
        })
    }

    /// `count` `template_zipf`-shaped templates: `COUNT(*)` over a chain
    /// of 6–8 distinct tables joined `id = fk`, with an equality
    /// selection on the first table's `val` at constant `constant`.
    fn zipf_chains(count: usize, constant: i64) -> Vec<QueryGraph> {
        let catalog = zipf_db().db.catalog();
        let mut rng = StdRng::seed_from_u64(0x7E3);
        (0..count)
            .map(|_| {
                let n = rng.gen_range(6..=8usize);
                let mut picked: Vec<usize> = Vec::with_capacity(n);
                while picked.len() < n {
                    let t = rng.gen_range(0..12usize);
                    if !picked.contains(&t) {
                        picked.push(t);
                    }
                }
                let from: Vec<String> = picked
                    .iter()
                    .enumerate()
                    .map(|(i, t)| format!("s{t} a{i}"))
                    .collect();
                let joins: Vec<String> =
                    (1..n).map(|i| format!("a{}.id = a{i}.fk", i - 1)).collect();
                let sql = format!(
                    "SELECT COUNT(*) FROM {} WHERE {} AND a0.val = {constant}",
                    from.join(", "),
                    joins.join(" AND ")
                );
                let stmt = parse_select(&sql).expect("generated SQL parses");
                bind_select(&stmt, catalog).expect("generated SQL binds")
            })
            .collect()
    }

    /// The thread counts to run at: one, and every `HFQO_EXEC_THREADS`
    /// count.
    fn team_sizes() -> Vec<usize> {
        let mut sizes = vec![1];
        sizes.extend(exec_threads().iter().filter(|&&t| t != 1));
        sizes
    }

    /// Whether `plan`'s rows come in one fixed order: all but a hash
    /// aggregate's groups do.
    fn order_stable(graph: &QueryGraph, plan: &PhysicalPlan) -> bool {
        let hashed = matches!(
            plan.root,
            PlanNode::Aggregate {
                algo: AggAlgo::Hash,
                ..
            }
        );
        !hashed || graph.group_by().is_empty()
    }

    fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort();
        rows
    }

    /// One plan to run again and again, with what its first execute
    /// returned.
    struct Case<'a> {
        db: &'a Database,
        graph: QueryGraph,
        plan: PhysicalPlan,
        what: String,
    }

    /// Every JOB-suite query whose expert plan serves within the default
    /// budget, and 24 `template_zipf`-shaped chains; and, apart, the
    /// JOB-suite plans that exceed the budget.
    fn cases() -> (Vec<Case<'static>>, Vec<Case<'static>>) {
        let (mut servable, mut aborting) = (Vec::new(), Vec::new());
        let expert = TraditionalPlanner::new();
        let bundle = imdb();
        let ctx = PlannerContext::new(bundle.db.catalog(), &bundle.stats);
        for (i, graph) in bundle.queries.iter().enumerate() {
            let plan = expert.plan(&ctx, graph).expect("plannable").plan;
            let case = Case {
                db: &bundle.db,
                graph: graph.clone(),
                plan,
                what: format!("job q{i} ({:?})", graph.label),
            };
            match hfqo::exec::execute(case.db, &case.graph, &case.plan, ExecConfig::default()) {
                Ok(_) => servable.push(case),
                Err(ExecError::BudgetExceeded { .. }) => aborting.push(case),
                Err(e) => panic!("{}: {e}", case.what),
            }
        }
        let zipf = zipf_db();
        let ctx = PlannerContext::new(zipf.db.catalog(), &zipf.stats);
        for (i, graph) in zipf_chains(24, 1).into_iter().enumerate() {
            let plan = expert.plan(&ctx, &graph).expect("plannable").plan;
            servable.push(Case {
                db: &zipf.db,
                graph,
                plan,
                what: format!("chain {i}"),
            });
        }
        (servable, aborting)
    }

    #[test]
    fn reused_arenas_return_the_first_executes_rows_and_work() {
        let (cases, aborting) = cases();
        assert!(cases.len() > 100, "{} servable plans", cases.len());
        let n = cases.len();
        // Front to back; and from both ends inwards, so every plan
        // follows other plans than it did the first time.
        let forward: Vec<usize> = (0..n).collect();
        let inward: Vec<usize> = (0..n)
            .map(|k| if k % 2 == 0 { k / 2 } else { n - 1 - k / 2 })
            .collect();
        let mut reference: Vec<Option<(Vec<Row>, u64)>> = vec![None; n];
        for threads in team_sizes() {
            let config = ExecConfig::default().threads(threads);
            let first: Vec<(Vec<Row>, u64)> = cases
                .iter()
                .map(|c| {
                    let out = hfqo::exec::execute(c.db, &c.graph, &c.plan, config)
                        .unwrap_or_else(|e| panic!("{}: {e}", c.what));
                    (out.rows, out.stats.work)
                })
                .collect();
            for (at, (case, (rows, work))) in cases.iter().zip(&first).enumerate() {
                let want = reference[at].get_or_insert_with(|| {
                    let oracle = execute_rows(case.db, &case.graph, &case.plan, config)
                        .unwrap_or_else(|e| panic!("{}: {e}", case.what));
                    let rows = sorted(oracle.rows);
                    (rows, oracle.stats.work)
                });
                assert_eq!(
                    *work, want.1,
                    "{} t={threads}: work against the oracle",
                    case.what
                );
                assert!(
                    sorted(rows.clone()) == want.0,
                    "{} t={threads}: rows differ from the oracle's",
                    case.what
                );
            }
            for (round, order) in [&forward, &inward, &forward, &inward]
                .into_iter()
                .enumerate()
            {
                for (k, &at) in order.iter().enumerate() {
                    let case = &cases[at];
                    // Every so often a plan aborts half-way: over the
                    // budget, or, when the suite has no such plan, a
                    // servable one under a budget it runs out of.
                    if k % 7 == 3 {
                        let (abort, budget) = match aborting.get(k % aborting.len().max(1)) {
                            Some(a) => (a, ExecConfig::default().work_budget),
                            None => (case, first[at].1 / 2),
                        };
                        let cfg = ExecConfig::with_budget(budget).threads(threads);
                        let got = hfqo::exec::execute(abort.db, &abort.graph, &abort.plan, cfg);
                        assert!(
                            matches!(got, Err(ExecError::BudgetExceeded { .. })),
                            "{} t={threads}: expected an abort",
                            abort.what
                        );
                    }
                    let tag = format!("{} t={threads} round {round}", case.what);
                    let out = hfqo::exec::execute(case.db, &case.graph, &case.plan, config)
                        .unwrap_or_else(|e| panic!("{tag}: {e}"));
                    let (rows, work) = &first[at];
                    assert_eq!(out.stats.work, *work, "{tag}: work");
                    if order_stable(&case.graph, &case.plan) {
                        assert!(
                            out.rows == *rows,
                            "{tag}: rows differ from the first execute's"
                        );
                    } else {
                        assert!(
                            sorted(out.rows) == sorted(rows.clone()),
                            "{tag}: rows differ"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn one_plan_serves_its_template_at_every_constant() {
        // One plan per template, planned at constant 1 and run at every
        // other constant the way a template hit runs it: the template's
        // graph with the constant substituted into its slot.
        let zipf = zipf_db();
        let expert = TraditionalPlanner::new();
        let ctx = PlannerContext::new(zipf.db.catalog(), &zipf.stats);
        let mut matched = 0usize;
        for (i, template) in zipf_chains(6, 1).into_iter().enumerate() {
            let plan = expert.plan(&ctx, &template).expect("plannable").plan;
            for threads in team_sizes() {
                let config = ExecConfig::default().threads(threads);
                for constant in (0..=210).rev() {
                    let graph = substitute(&template, [Lit::Int(constant)]);
                    let tag = format!("chain {i} at {constant} t={threads}");
                    let got = hfqo::exec::execute(&zipf.db, &graph, &plan, config);
                    let want = execute_rows(&zipf.db, &graph, &plan, config);
                    match (got, want) {
                        (Ok(got), Ok(want)) => {
                            assert_eq!(got.stats.work, want.stats.work, "{tag}: work");
                            assert_eq!(got.rows, want.rows, "{tag}: rows");
                            matched += usize::from(got.rows[0][0] != Value::Int(0));
                        }
                        (
                            Err(ExecError::BudgetExceeded { budget: a, .. }),
                            Err(ExecError::BudgetExceeded { budget: b, .. }),
                        ) => assert_eq!(a, b, "{tag}"),
                        (got, want) => panic!(
                            "{tag}: {:?} against the oracle's {:?}",
                            got.map(|o| o.rows),
                            want.map(|o| o.rows)
                        ),
                    }
                }
            }
        }
        assert!(matched > 0, "some constant selects rows");
    }
}
