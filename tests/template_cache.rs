//! Template-cache integration: the (template, params) fingerprint
//! split, selectivity-band re-planning, single-flight cold misses,
//! concurrent zipf-parameterized serving (CI runs this file across the
//! `HFQO_WORKERS` / `HFQO_EXEC_THREADS` matrix), and how real template
//! fingerprints spread over the cache's shards and fill its capacity.

use hfqo::prelude::*;
use hfqo::query::{AccessPath, AggExpr, BoundColumn, JoinEdge, Lit, RelId, Relation, Selection};
use hfqo::serve::{CachedPlan, PlanCache, PlanKey, MAX_CACHE_SHARDS, SELECTIVITY_BAND};
use hfqo::sql::{AggFunc, CompareOp};
use hfqo::workload::imdb::build_catalog;
use hfqo::workload::job::generate_job_suite;
use hfqo::workload::synth::{Shape, SynthConfig, SynthDb};
use hfqo_storage::catalog::{ColumnId, TableId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

fn synth_config() -> SynthConfig {
    SynthConfig {
        tables: 7,
        rows: 400,
        seed: 77,
    }
}

fn generator() -> &'static SynthDb {
    static DB: OnceLock<SynthDb> = OnceLock::new();
    DB.get_or_init(|| SynthDb::build(synth_config()))
}

fn shape_from(v: u8) -> Shape {
    match v % 3 {
        0 => Shape::Chain,
        1 => Shape::Star,
        _ => Shape::Cycle,
    }
}

/// Rebuilds `graph` with a transformed selection list (same relations,
/// joins, and output shape).
fn with_selections(graph: &QueryGraph, selections: Vec<Selection>) -> QueryGraph {
    QueryGraph::new(
        graph.relations().to_vec(),
        graph.joins().to_vec(),
        selections,
        graph.aggregates().to_vec(),
        graph.group_by().to_vec(),
    )
}

/// A random graph built field by field rather than bound from SQL: up
/// to six relations over random tables, random join edges, selections
/// with `Int`, `Float` and `Str` literals, aggregates with and without
/// a column, and GROUP BY columns.
fn random_graph(seed: u64) -> QueryGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(1..=6u32);
    let column = |rng: &mut StdRng| {
        BoundColumn::new(RelId(rng.gen_range(0..n)), ColumnId(rng.gen_range(0..4)))
    };
    let ops = [
        CompareOp::Eq,
        CompareOp::Neq,
        CompareOp::Lt,
        CompareOp::Le,
        CompareOp::Gt,
        CompareOp::Ge,
    ];
    let funcs = [
        AggFunc::Count,
        AggFunc::Sum,
        AggFunc::Min,
        AggFunc::Max,
        AggFunc::Avg,
    ];
    let relations = (0..n)
        .map(|i| Relation {
            table: TableId(rng.gen_range(0..8)),
            alias: format!("t{i}"),
        })
        .collect();
    let joins = (0..rng.gen_range(0..=n + 1))
        .map(|_| JoinEdge {
            left: column(&mut rng),
            op: ops[rng.gen_range(0..ops.len())],
            right: column(&mut rng),
        })
        .collect();
    let selections = (0..rng.gen_range(0..=4))
        .map(|_| Selection {
            column: column(&mut rng),
            op: ops[rng.gen_range(0..ops.len())],
            value: match rng.gen_range(0..3) {
                0 => Lit::Int(rng.gen_range(-1000..1000i64)),
                1 => Lit::Float(rng.gen::<f64>() * 100.0),
                _ => Lit::Str(format!("s{}", rng.gen_range(0..50))),
            },
        })
        .collect();
    let aggregates = (0..rng.gen_range(0..=2))
        .map(|_| AggExpr {
            func: funcs[rng.gen_range(0..funcs.len())],
            column: rng.gen_bool(0.5).then(|| column(&mut rng)),
        })
        .collect();
    let group_by = (0..rng.gen_range(0..=2))
        .map(|_| column(&mut rng))
        .collect();
    QueryGraph::new(relations, joins, selections, aggregates, group_by)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `PlanKey::of` folds the graph once into both fingerprints; each
    /// is what its own walk computes.
    #[test]
    fn plan_key_is_both_fingerprints_from_one_walk(seed in 0u64..1_000_000) {
        let graph = random_graph(seed);
        let key = PlanKey::of(&graph);
        prop_assert_eq!(key.template, template_fingerprint(&graph).0);
        prop_assert_eq!(key.exact, fingerprint(&graph));
    }

    /// The templated-workload fix, property form: queries differing
    /// only in their literal constants share one template fingerprint
    /// (with the literals extracted into the parameter vector in slot
    /// order), while the exact fingerprint still tells them apart.
    #[test]
    fn same_template_different_literals_share_a_template(
        shape in 0u8..3,
        n in 3usize..7,
        s1 in 0u64..500,
        s2 in 500u64..1000,
    ) {
        let gen = generator();
        let a = gen.query(shape_from(shape), n, 2, s1);
        let b = gen.query(shape_from(shape), n, 2, s2);
        let (ta, pa) = template_fingerprint(&a);
        let (tb, pb) = template_fingerprint(&b);
        prop_assert_eq!(ta, tb, "literal-only variation must not split templates");
        prop_assert_eq!(pa.len(), a.selections().len());
        prop_assert_eq!(pa.len(), pb.len());
        // Slot order: parameter i is selection i's literal.
        for (param, sel) in pa.params().iter().zip(a.selections()) {
            prop_assert_eq!(param, &sel.value);
        }
        // The exact fingerprint distinguishes them iff the literals do.
        prop_assert_eq!(
            fingerprint(&a) == fingerprint(&b),
            pa == pb,
            "exact fingerprints must track the parameter vectors"
        );
    }

    /// Structurally distinct queries must NOT share a template: the
    /// template hashes the join structure, predicate columns, operators,
    /// and slot order — not just "some query over these tables".
    /// (n ≥ 3 because all three shapes coincide at two relations.)
    #[test]
    fn structurally_distinct_queries_get_distinct_templates(
        c1 in 0usize..12,
        offset in 1usize..12,
        seed in 0u64..1000,
    ) {
        // Twelve distinct (shape, size) structures; the offset picks a
        // guaranteed-different second one (the vendored proptest has no
        // `prop_assume`, so distinctness is built into the generator).
        let c2 = (c1 + offset) % 12;
        let (shape1, n1) = ((c1 / 4) as u8, 3 + c1 % 4);
        let (shape2, n2) = ((c2 / 4) as u8, 3 + c2 % 4);
        let gen = generator();
        let a = gen.query(shape_from(shape1), n1, 2, seed);
        let b = gen.query(shape_from(shape2), n2, 2, seed);
        prop_assert_ne!(
            template_fingerprint(&a).0,
            template_fingerprint(&b).0,
            "different join structures must not share a template"
        );
    }

    /// Per-slot structure is part of the template: reordering the
    /// predicate slots or changing one comparison operator produces a
    /// different template even over identical relations and literals.
    #[test]
    fn slot_structure_splits_templates(seed in 0u64..1000) {
        let gen = generator();
        // sel_every=1 puts a selection on every relation: 3 slots.
        let base = gen.query(Shape::Chain, 3, 1, seed);
        let (t_base, _) = template_fingerprint(&base);

        let mut reordered = base.selections().to_vec();
        reordered.reverse();
        let reordered = with_selections(&base, reordered);
        prop_assert_ne!(
            t_base,
            template_fingerprint(&reordered).0,
            "slot order is structural"
        );

        let mut op_changed = base.selections().to_vec();
        op_changed[0].op = CompareOp::Ge;
        let op_changed = with_selections(&base, op_changed);
        prop_assert_ne!(
            t_base,
            template_fingerprint(&op_changed).0,
            "comparison operators are structural"
        );

        // …while rebinding every literal (the parameterization) is not.
        let rebound: Vec<Selection> = base
            .selections()
            .iter()
            .map(|s| Selection { value: Lit::Int(7), ..s.clone() })
            .collect();
        let rebound = with_selections(&base, rebound);
        prop_assert_eq!(t_base, template_fingerprint(&rebound).0);
    }
}

/// A chain query with one *equality* selection on `s0.val` (the zipf
/// column): the selectivity of `val = c` swings by orders of magnitude
/// between the most common value and the tail, which is what the
/// re-plan band exists to catch. (The synth generator only emits range
/// selections, whose estimates are too uniform to leave the band.)
fn eq_query(gen: &SynthDb, value: i64) -> QueryGraph {
    let base = gen.query(Shape::Chain, 3, 0, 0);
    with_selections(
        &base,
        vec![Selection {
            column: BoundColumn::new(RelId(0), ColumnId(2)),
            op: CompareOp::Eq,
            value: Lit::Int(value),
        }],
    )
}

/// The named selectivity-band acceptance test: a template hit whose
/// current parameters' estimated selectivity deviates outside the band
/// re-plans into a separate per-template plan bucket instead of being
/// served the mismatched plan.
#[test]
fn selectivity_band_replan_triggers_new_plan_bucket() {
    let synth = SynthDb::build(synth_config());
    // `val` is Zipf(n=200, s=1.0): value 1 is the head (~17% of rows),
    // value 180 is deep tail. Self-check that the statistics really put
    // them outside the default band before asserting cache behavior.
    let common = eq_query(&synth, 1);
    let rare = eq_query(&synth, 180);
    let other_tail = eq_query(&synth, 185);
    let (t_common, _) = template_fingerprint(&common);
    let (t_rare, _) = template_fingerprint(&rare);
    assert_eq!(t_common, t_rare, "same template, different constants");
    let s_common = selection_selectivities(&synth.stats, &common)[0];
    let s_rare = selection_selectivities(&synth.stats, &rare)[0];
    assert!(
        s_common / s_rare > SELECTIVITY_BAND,
        "fixture must straddle the band: common={s_common} rare={s_rare}"
    );

    let session = QuerySession::traditional(synth.db, synth.stats);
    assert_eq!(
        session.serve_graph(&common).unwrap().cache,
        CacheOutcome::Miss
    );
    // Same template, out-of-band constants: re-plan, not a blind hit.
    let rare_served = session.serve_graph(&rare).unwrap();
    assert_eq!(rare_served.cache, CacheOutcome::Replan);
    assert!(!rare_served.cache_hit);
    let m = session.cache_metrics();
    assert_eq!((m.misses, m.replans, m.len, m.plans), (1, 1, 1, 2));

    // Both regimes now hit their own buckets…
    assert_eq!(
        session.serve_graph(&common).unwrap().cache,
        CacheOutcome::ExactHit
    );
    assert_eq!(
        session.serve_graph(&rare).unwrap().cache,
        CacheOutcome::ExactHit
    );
    // …and a *new* tail constant band-matches the rare bucket: within a
    // regime the template's plan is shared across constants.
    let served = session.serve_graph(&other_tail).unwrap();
    assert_eq!(served.cache, CacheOutcome::TemplateHit);
    assert!(served.cache_hit);
    assert_eq!(session.cache_metrics().plans, 2, "no third bucket");
}

/// A planner wrapper that counts how many times `plan` actually runs —
/// the observable for the single-flight guarantee. `plan` refuses to
/// finish until every racing thread has arrived at its probe, so the
/// race window is held open *deterministically*: without single-flight,
/// all racers end up in here and the run count explodes; with it, the
/// one leader waits for the stragglers and everyone else hits.
struct CountingPlanner {
    inner: TraditionalPlanner,
    runs: std::sync::Arc<AtomicUsize>,
    arrived: std::sync::Arc<AtomicUsize>,
    workers: usize,
}

impl Planner for CountingPlanner {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn plan(
        &self,
        ctx: &PlannerContext<'_>,
        graph: &QueryGraph,
    ) -> Result<hfqo::opt::PlannedQuery, hfqo::opt::OptError> {
        // Relaxed: counters/gates only; the scope join orders the final
        // asserts, and atomic visibility alone drives the gate below.
        self.runs.fetch_add(1, Ordering::Relaxed);
        while self.arrived.load(Ordering::Relaxed) < self.workers {
            std::thread::yield_now();
        }
        self.inner.plan(ctx, graph)
    }
}

/// Satellite regression (silent double-planning): N threads racing on
/// the same cold fingerprint must run the planner exactly once — the
/// rest wait on the in-flight plan and hit. Any residual race would be
/// visible as `duplicate_plans > 0`.
#[test]
fn racing_cold_misses_plan_exactly_once() {
    let synth = SynthDb::build(synth_config());
    let graph = synth.query(Shape::Chain, 4, 2, 9);
    let runs = std::sync::Arc::new(AtomicUsize::new(0));
    let arrived = std::sync::Arc::new(AtomicUsize::new(0));
    let workers = 8;
    let planner = CountingPlanner {
        inner: TraditionalPlanner::new(),
        runs: std::sync::Arc::clone(&runs),
        arrived: std::sync::Arc::clone(&arrived),
        workers,
    };
    let session = QuerySession::new(synth.db, synth.stats, Box::new(planner));
    let barrier = std::sync::Barrier::new(workers);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let session = &session;
            let graph = &graph;
            let (barrier, arrived) = (&barrier, &arrived);
            scope.spawn(move || {
                barrier.wait();
                // Announce arrival before probing: the planning leader
                // holds its flight open until all racers are past this
                // point (see CountingPlanner::plan).
                arrived.fetch_add(1, Ordering::Relaxed);
                session.plan(graph).expect("plan");
            });
        }
    });
    assert_eq!(
        runs.load(Ordering::Relaxed),
        1,
        "exactly one planner run for {workers} racing threads"
    );
    let m = session.cache_metrics();
    assert_eq!(m.misses, 1, "one leader planned; the rest waited and hit");
    assert_eq!(
        m.duplicate_plans, 0,
        "single-flight leaves no duplicate inserts"
    );
    assert_eq!(
        m.hits + m.misses + m.replans,
        workers as u64,
        "every probe accounted exactly once"
    );
    assert_eq!(m.plans, 1, "one plan bucket for the one planner run");
}

/// Worker counts: `HFQO_WORKERS` (comma-separated), default `2,4` —
/// the acceptance matrix for the concurrent template-sharing test.
fn worker_counts() -> Vec<usize> {
    match std::env::var("HFQO_WORKERS") {
        Ok(v) => v
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<usize>()
                    .unwrap_or_else(|_| panic!("invalid HFQO_WORKERS entry `{s}`"))
                    .max(1)
            })
            .collect(),
        Err(_) => vec![2, 4],
    }
}

/// Executor threads for the serving sessions below: `HFQO_EXEC_THREADS`
/// (single value; CI varies it), default 1.
fn exec_threads() -> usize {
    std::env::var("HFQO_EXEC_THREADS")
        .ok()
        .and_then(|v| v.split(',').next().and_then(|s| s.trim().parse().ok()))
        .unwrap_or(1)
        .max(1)
}

/// The headline workload: one template, zipf-skewed parameters, served
/// concurrently. Every worker must observe the serial reference rows,
/// and the cache must actually share — hits plus intra-template
/// re-plans, with at most a handful of cold misses on the single
/// template.
#[test]
fn concurrent_zipf_template_serving_matches_serial_reference() {
    let synth = SynthDb::build(synth_config());
    // 12 parameterizations of one chain template (literal-only
    // variation), zipf-ordered repetition: early queries dominate.
    let params: Vec<QueryGraph> = (0..12u64)
        .map(|s| synth.query(Shape::Chain, 4, 2, 700 + s))
        .collect();
    let template = template_fingerprint(&params[0]).0;
    for q in &params {
        assert_eq!(template_fingerprint(q).0, template, "one template only");
    }
    // Zipf-ish access pattern over the parameterizations: index i is
    // served proportionally to 1/(i+1).
    let schedule: Vec<usize> = (0..params.len())
        .flat_map(|i| std::iter::repeat_n(i, params.len() / (i + 1)))
        .collect();

    let exec = ExecConfig::default().threads(exec_threads());
    let serial =
        QuerySession::traditional(synth.db.clone(), synth.stats.clone()).with_exec_config(exec);
    let reference: Vec<Vec<Vec<hfqo::storage::Value>>> = params
        .iter()
        .map(|q| {
            let mut rows = serial.serve_graph(q).expect("serial serve").outcome.rows;
            rows.sort();
            rows
        })
        .collect();

    for workers in worker_counts() {
        let session =
            QuerySession::traditional(synth.db.clone(), synth.stats.clone()).with_exec_config(exec);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let session = &session;
                let params = &params;
                let schedule = &schedule;
                let reference = &reference;
                scope.spawn(move || {
                    for round in 0..2 {
                        for i in 0..schedule.len() {
                            // Stagger so workers race on different
                            // parameterizations first.
                            let idx = schedule[(i + w * 3 + round) % schedule.len()];
                            let served =
                                session.serve_graph(&params[idx]).expect("concurrent serve");
                            let mut rows = served.outcome.rows.clone();
                            rows.sort();
                            assert_eq!(
                                rows, reference[idx],
                                "worker {w} round {round} param {idx}"
                            );
                        }
                    }
                });
            }
        });
        let m = session.cache_metrics();
        let serves = (workers * 2 * schedule.len()) as u64;
        assert_eq!(m.hits + m.misses + m.replans, serves, "probe accounting");
        assert_eq!(
            m.len, 1,
            "a single template entry serves the whole workload"
        );
        assert!(
            m.sharing_rate() > 0.9,
            "templated workload must share: hits={} replans={} misses={} (rate {:.3})",
            m.hits,
            m.replans,
            m.misses,
            m.sharing_rate()
        );
        assert_eq!(m.duplicate_plans, 0, "no silent double-planning");
    }
}

/// Structurally distinct three-relation templates over the synthetic
/// schema: for every ordered choice of three of `tables` tables, a
/// chain (`a – b – c`) and a star (`a – b`, `a – c`), each with one
/// range slot on `a.val`. Cheap to serve, `2 · tables · (tables − 1) ·
/// (tables − 2)` of them.
fn chain_and_star_templates(tables: u32) -> Vec<QueryGraph> {
    let edge = |left: u32, right: u32| JoinEdge {
        left: BoundColumn::new(RelId(left), ColumnId(0)),
        op: CompareOp::Eq,
        right: BoundColumn::new(RelId(right), ColumnId(1)),
    };
    let mut out = Vec::new();
    for a in 0..tables {
        for b in (0..tables).filter(|&b| b != a) {
            for c in (0..tables).filter(|&c| c != a && c != b) {
                for hub in [1, 0] {
                    let relations = [a, b, c]
                        .iter()
                        .enumerate()
                        .map(|(i, &t)| Relation {
                            table: TableId(t),
                            alias: format!("a{i}"),
                        })
                        .collect();
                    let slot = Selection {
                        column: BoundColumn::new(RelId(0), ColumnId(2)),
                        op: CompareOp::Lt,
                        value: Lit::Int(40),
                    };
                    out.push(QueryGraph::new(
                        relations,
                        vec![edge(0, 1), edge(hub, 2)],
                        vec![slot],
                        vec![],
                        vec![],
                    ));
                }
            }
        }
    }
    out
}

/// Chains of 6–8 relations over twelve synthetic tables, ending in an
/// equality slot on the driving relation: the family the `template_zipf`
/// benchmark workload draws its 256 templates from, drawn the same way.
fn long_chain_templates(want: usize) -> Vec<QueryGraph> {
    let tables = 12;
    // Only the catalog is used: the rows are never read.
    let synth = SynthDb::build(SynthConfig {
        tables,
        rows: 4,
        seed: 31,
    });
    let mut rng = StdRng::seed_from_u64(0x7E3);
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(want);
    while out.len() < want {
        let n = rng.gen_range(6..=8usize);
        let mut picked: Vec<usize> = Vec::with_capacity(n);
        while picked.len() < n {
            let t = rng.gen_range(0..tables);
            if !picked.contains(&t) {
                picked.push(t);
            }
        }
        let from: Vec<String> = picked
            .iter()
            .enumerate()
            .map(|(i, t)| format!("s{t} a{i}"))
            .collect();
        let joins: Vec<String> = (1..n).map(|i| format!("a{}.id = a{i}.fk", i - 1)).collect();
        let sql = format!(
            "SELECT COUNT(*) FROM {} WHERE {} AND a0.val = 1",
            from.join(", "),
            joins.join(" AND ")
        );
        let stmt = parse_select(&sql).expect("generated SQL parses");
        let graph = bind_select(&stmt, synth.db.catalog()).expect("generated SQL binds");
        if seen.insert(template_fingerprint(&graph).0) {
            out.push(graph);
        }
    }
    out
}

/// Shard spread over real fingerprints: the benchmark's long chains and
/// generated chain/star templates, each family alone, then both with the
/// JOB suite's templates (a family's variants differ in constants
/// only), fed to a 16-shard cache too large to evict. Every shard must
/// be used and none may hold more than 2.5× its fair share — a shard
/// choice that reads correlated fingerprint bits (the XOR of the two FNV
/// lanes has a constant bit 0) leaves half the shards, and so half the
/// capacity, unreachable.
#[test]
fn template_fingerprints_spread_over_every_shard() {
    let mut seen = std::collections::BTreeSet::new();
    let job: Vec<QueryGraph> = generate_job_suite(&build_catalog(), 7)
        .into_iter()
        .map(|q| q.graph)
        .filter(|g| seen.insert(template_fingerprint(g).0))
        .collect();
    assert_eq!(job.len(), 33, "one template per JOB family");
    let long_chains = long_chain_templates(256);
    let small = chain_and_star_templates(7);
    let all: Vec<QueryGraph> = [&job[..], &long_chains[..], &small[..]].concat();
    let placeholder = std::sync::Arc::new(CachedPlan {
        plan: PhysicalPlan::new(PlanNode::Scan {
            rel: RelId(0),
            path: AccessPath::SeqScan,
        }),
        cost: 0.0,
        method: PlannerMethod::DynamicProgramming,
        selectivities: vec![],
    });
    for (family, graphs) in [
        ("long chains", &long_chains),
        ("chains and stars", &small),
        ("all with job", &all),
    ] {
        let cache = PlanCache::new(MAX_CACHE_SHARDS * graphs.len());
        for graph in graphs {
            cache.insert(&PlanKey::of(graph), std::sync::Arc::clone(&placeholder));
        }
        let m = cache.metrics();
        assert_eq!(m.shards, MAX_CACHE_SHARDS);
        assert_eq!(m.len, graphs.len(), "{family}: templates are distinct");
        assert_eq!(m.evictions, 0, "{family}: sized not to evict");
        assert_eq!(
            m.occupied_shards, m.shards,
            "{family}: every shard must be reachable"
        );
        let fair = m.len as f64 / m.shards as f64;
        assert!(
            m.largest_shard as f64 <= 2.5 * fair,
            "{family}: fullest shard holds {} of {} templates (fair share {fair:.1})",
            m.largest_shard,
            m.len
        );
    }
}

/// The cache holds what its configuration says it holds: 256 distinct
/// templates served once each through a default session fill (nearly)
/// all 128 entries over all 16 shards, and every template that did not
/// stay was evicted — not dropped, not refused.
#[test]
fn default_cache_fills_to_its_capacity() {
    let synth = SynthDb::build(synth_config());
    let templates = chain_and_star_templates(synth_config().tables as u32);
    let session = QuerySession::traditional(synth.db, synth.stats);
    for graph in &templates[..256] {
        assert_eq!(
            session.serve_graph(graph).expect("serves").cache,
            CacheOutcome::Miss,
            "templates are distinct"
        );
    }
    let m = session.cache_metrics();
    assert_eq!((m.capacity, m.shards), (128, 16), "default geometry");
    assert_eq!(m.occupied_shards, m.shards);
    assert!(
        (112..=m.capacity).contains(&m.len),
        "256 templates through a {}-entry cache left {} cached",
        m.capacity,
        m.len
    );
    assert!(m.largest_shard <= m.capacity / m.shards);
    assert_eq!(m.evictions as usize, 256 - m.len);
}
