//! The drift battery: "hands-free" under a changing world.
//!
//! Exercises `hfqo_workload::drift` end to end:
//!
//! * **Mutation determinism** — fixed-seed mutation operators are pure
//!   functions of `(database, seed)`: two applications produce
//!   bit-identical tables, cell by cell, with physical encodings
//!   preserved.
//! * **Post-mutation engine identity** — after a mutation battery, the
//!   row, batch, and parallel engines (at every `HFQO_EXEC_THREADS`
//!   count) and all three storage encodings still agree on results and
//!   work totals.
//! * **Stale-statistics fencing** — `rebuild_stats()` mid-traffic drops
//!   every cached selectivity-band decision: template hits after a
//!   rebuild re-derive per-slot selectivities from the new statistics,
//!   never serving a band decision computed under pre-shock stats.
//! * **Concurrent mutation + serving** — appender traffic racing
//!   servers through versioned snapshots, row identity asserted against
//!   a serial replay reference, no torn dictionary/RLE columns.
//! * **Shock→recovery** — the standard scripted scenario reaches expert
//!   p95 parity after every shock, pinned bit-for-bit by the golden
//!   drift-recovery log (`HFQO_BLESS=1` regenerates).
//!
//! No wall-clock anywhere: latencies are work-derived, waits are
//! bounded spin counters (CI runs this file under `HFQO_LOCKCHECK` and
//! across the `HFQO_WORKERS` matrix).

use hfqo::exec::execute_rows;
use hfqo::prelude::*;
use hfqo::query::{BoundColumn, Lit, RelId, Selection};
use hfqo::sql::CompareOp;
use hfqo::workload::synth::{Shape, SynthConfig, SynthDb};
use hfqo_storage::catalog::ColumnId;
use hfqo_storage::Encoding;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Thread counts for the parallel-engine pass: `HFQO_EXEC_THREADS`
/// (comma-separated), defaulting to `1,2,4`.
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
        Err(_) => vec![1, 2, 4],
    })
}

/// Server-thread count for the concurrent test: last entry of
/// `HFQO_WORKERS`, default 2.
fn workers() -> usize {
    std::env::var("HFQO_WORKERS")
        .ok()
        .and_then(|v| v.split(',').next_back()?.trim().parse().ok())
        .unwrap_or(2)
}

fn synth() -> &'static SynthDb {
    static DB: OnceLock<SynthDb> = OnceLock::new();
    DB.get_or_init(|| {
        SynthDb::build(SynthConfig {
            tables: 6,
            rows: 300,
            seed: 21,
        })
    })
}

/// Every cell of every table, decoded — the bit-identity oracle.
fn all_cells(db: &Database) -> Vec<(u32, Vec<Vec<Value>>)> {
    let mut out = Vec::new();
    let mut tid = 0u32;
    while let Ok(table) = db.table(hfqo_storage::catalog::TableId(tid)) {
        let rows = (0..table.row_count())
            .map(|r| {
                (0..table.schema().arity())
                    .map(|c| table.value_at(r, ColumnId(c as u32)))
                    .collect()
            })
            .collect();
        out.push((tid, rows));
        tid += 1;
    }
    out
}

fn table_encodings(db: &Database) -> Vec<Vec<Encoding>> {
    let mut out = Vec::new();
    let mut tid = 0u32;
    while let Ok(table) = db.table(hfqo_storage::catalog::TableId(tid)) {
        out.push(table.encodings());
        tid += 1;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Satellite: fixed-seed mutation operators are deterministic.
    /// Applying the same `Mutation` to two clones of the same database
    /// yields bit-identical tables — every cell, every physical
    /// encoding — so drift scenarios replay exactly.
    #[test]
    fn fixed_seed_mutations_are_bit_deterministic(
        op in 0u8..3,
        table in 0u32..6,
        seed in 0u64..1_000_000_000,
        frac_pct in 0u8..=100,
    ) {
        let tid = hfqo_storage::catalog::TableId(table);
        let fraction = f64::from(frac_pct) / 100.0;
        let mutation = match op {
            0 => Mutation::append(tid, (seed % 97) as usize, seed),
            1 => Mutation::skew_shift(tid, ColumnId(2), fraction, seed),
            _ => Mutation::bulk_delete(tid, fraction, seed),
        };
        let mut a = synth().db.clone();
        let mut b = synth().db.clone();
        let ra = apply_mutation(&mut a, &mutation).expect("valid mutation");
        let rb = apply_mutation(&mut b, &mutation).expect("valid mutation");
        prop_assert_eq!(ra, rb);
        prop_assert_eq!(all_cells(&a), all_cells(&b));
        prop_assert_eq!(table_encodings(&a), table_encodings(&b));
        // Mutations never change a column's physical layout.
        prop_assert_eq!(table_encodings(&a), table_encodings(&synth().db));
    }
}

/// Runs `plan` through the batch engine, the row engine, and the
/// parallel evaluator at every `HFQO_EXEC_THREADS` count; asserts all
/// agree on the row multiset and the work total, then returns them.
fn engines_agree(
    db: &Database,
    graph: &QueryGraph,
    plan: &hfqo::query::PhysicalPlan,
    what: &str,
) -> (Vec<Vec<Value>>, u64) {
    let config = ExecConfig::with_budget(60_000_000);
    let batch = hfqo::exec::execute(db, graph, plan, config).expect("batch engine");
    let row = execute_rows(db, graph, plan, config).expect("row engine");
    let mut expected = batch.rows.clone();
    expected.sort();
    let mut rows = row.rows.clone();
    rows.sort();
    assert_eq!(expected, rows, "{what}: row engine multiset");
    assert_eq!(batch.stats.work, row.stats.work, "{what}: row engine work");
    for &threads in exec_threads() {
        let par = hfqo::exec::execute(db, graph, plan, config.threads(threads)).expect("parallel");
        let mut rows = par.rows.clone();
        rows.sort();
        assert_eq!(expected, rows, "{what}: parallel t={threads} multiset");
        assert_eq!(
            batch.stats.work, par.stats.work,
            "{what}: parallel t={threads} work"
        );
    }
    (expected, batch.stats.work)
}

/// Satellite: after a mutation battery, all three engines × every
/// thread count × all three storage encodings still produce identical
/// results and work totals — mutations preserve the typed-column and
/// encoding invariants the vectorized kernels rely on.
#[test]
fn post_mutation_results_identical_across_engines_threads_encodings() {
    use hfqo_storage::catalog::TableId;
    let mut db = synth().db.clone();
    for m in [
        Mutation::append(TableId(0), 140, 6001),
        Mutation::skew_shift(TableId(1), ColumnId(2), 0.6, 6002),
        Mutation::skew_shift(TableId(2), ColumnId(1), 0.4, 6003),
        Mutation::bulk_delete(TableId(3), 0.35, 6004),
        Mutation::append(TableId(4), 90, 6005),
    ] {
        apply_mutation(&mut db, &m).expect("battery applies");
    }
    let stats = build_database_stats(&db);
    let expert = TraditionalPlanner::new();
    let ctx = PlannerContext::new(db.catalog(), &stats);

    let queries: Vec<QueryGraph> = [
        (Shape::Chain, 4, 31),
        (Shape::Star, 4, 32),
        (Shape::Cycle, 4, 33),
        (Shape::Chain, 5, 34),
    ]
    .into_iter()
    .map(|(shape, n, seed)| synth().query(shape, n, 1, seed))
    .collect();

    for (qi, graph) in queries.iter().enumerate() {
        let plan = expert.plan(&ctx, graph).expect("plannable").plan;
        let (plain_rows, plain_work) =
            engines_agree(&db, graph, &plan, &format!("q{qi} post-mutation"));

        // The same mutated data re-encoded wholesale: results and work
        // must not depend on the physical layout.
        for enc in ["dict", "rle"] {
            let mut encoded = db.clone();
            let tids: Vec<_> = encoded.catalog().tables().map(|(tid, _)| tid).collect();
            for tid in tids {
                let table = encoded.table_mut(tid).expect("table exists");
                table.decode_columns();
                table.dictionary_encode_strings(usize::MAX);
                if enc == "rle" {
                    table.rle_encode_columns(1);
                }
            }
            encoded.build_indexes().expect("indexes rebuild");
            let (rows, work) =
                engines_agree(&encoded, graph, &plan, &format!("q{qi} {enc}-encoded"));
            assert_eq!(plain_rows, rows, "q{qi}: {enc} encoding changed results");
            assert_eq!(plain_work, work, "q{qi}: {enc} encoding changed work");
        }
    }
}

/// A chain query with one equality selection on the zipf `val` column
/// of its first relation — the selectivity swings between head and
/// tail constants are what the re-plan band exists to catch.
fn eq_query(gen: &SynthDb, value: i64) -> QueryGraph {
    let base = gen.query(Shape::Chain, 3, 0, 0);
    QueryGraph::new(
        base.relations().to_vec(),
        base.joins().to_vec(),
        vec![Selection {
            column: BoundColumn::new(RelId(0), ColumnId(2)),
            op: CompareOp::Eq,
            value: Lit::Int(value),
        }],
        base.aggregates().to_vec(),
        base.group_by().to_vec(),
    )
}

/// Satellite (regression): `rebuild_stats()` mid-traffic must drop
/// stale selectivity buckets. A template-cache hit after the rebuild
/// re-derives per-slot selectivities from the *new* statistics — it
/// must never serve a band decision computed under pre-shock stats.
///
/// The fixture finds two constants `(a, b)` whose estimated
/// selectivities are *within* the band under the pre-shock statistics
/// but *outside* it after a skew-shift mutation + rebuild. Pre-shock,
/// `b` band-matches `a`'s bucket (TemplateHit). If the cache kept the
/// pre-shock band decision, `b` would still hit after the rebuild; the
/// epoch fence + re-derivation force a Replan instead.
#[test]
fn rebuild_stats_drops_stale_selectivity_bands() {
    let gen = SynthDb::build(SynthConfig {
        tables: 4,
        rows: 400,
        seed: 77,
    });
    let target = eq_query(&gen, 1).relations()[0].table;
    let shock = Mutation::skew_shift(target, ColumnId(2), 0.7, 4242);

    // New-world statistics, computed on a clone up front so the search
    // below can compare both regimes.
    let mut post_db = gen.db.clone();
    apply_mutation(&mut post_db, &shock).expect("skew applies");
    let post_stats = build_database_stats(&post_db);

    let band = hfqo::serve::SELECTIVITY_BAND;
    let sel = |stats: &hfqo::stats::StatsCatalog, v: i64| {
        selection_selectivities(stats, &eq_query(&gen, v))[0]
    };
    let ratio = |x: f64, y: f64| if x > y { x / y } else { y / x };
    // Find a constant pair that is within-band before the shock and
    // outside it after: the skew re-weights the value distribution, so
    // estimated selectivities of surviving vs wiped-out tail constants
    // diverge. Margins on both sides keep the fixture unambiguous.
    let (a, b) = (1..=200i64)
        .flat_map(|a| (1..=200i64).map(move |b| (a, b)))
        .find(|&(a, b)| {
            a != b
                && ratio(sel(&gen.stats, a), sel(&gen.stats, b)) < band * 0.9
                && ratio(sel(&post_stats, a), sel(&post_stats, b)) > band * 1.1
        })
        .expect("fixture must yield a band-splitting constant pair");

    let mut session = QuerySession::traditional(gen.db.clone(), gen.stats.clone());
    assert_eq!(
        session.serve_graph(&eq_query(&gen, a)).unwrap().cache,
        CacheOutcome::Miss
    );
    // Pre-shock: same template, in-band constant — the bucket is shared.
    assert_eq!(
        session.serve_graph(&eq_query(&gen, b)).unwrap().cache,
        CacheOutcome::TemplateHit
    );

    // The shock lands mid-traffic; the session refreshes hands-free.
    apply_mutation(session.db_mut(), &shock).expect("skew applies");
    session.refresh_after_mutation().expect("refresh");
    assert!(
        session.cache_metrics().invalidations >= 1,
        "stats rebuild must epoch-fence the plan cache"
    );

    // Post-shock: the epoch fence dropped the stale bucket entirely…
    assert_eq!(
        session.serve_graph(&eq_query(&gen, a)).unwrap().cache,
        CacheOutcome::Miss,
        "pre-shock bucket must not survive the stats rebuild"
    );
    // …and the band decision for `b` is re-derived from the *new*
    // statistics: the pair now straddles the band, so a blind
    // TemplateHit here would be serving a pre-shock decision.
    assert_eq!(
        session.serve_graph(&eq_query(&gen, b)).unwrap().cache,
        CacheOutcome::Replan,
        "band decision must be re-derived from rebuilt statistics"
    );
}

/// Satellite: concurrent mutation + serving. An appender thread applies
/// the mutation script and publishes immutable versioned snapshots
/// through [`DbSnapshots`]; server threads race it, serving whatever
/// version they observe. Every served result is asserted against a
/// serial-replay reference for that exact version — so a torn read
/// (a dictionary or RLE column observed mid-append) is impossible to
/// miss: it would change the row multiset. Bounded spin counters only;
/// no sleeps, no wall-clock.
#[test]
fn concurrent_mutation_and_serving_matches_serial_replay() {
    use hfqo_storage::catalog::TableId;
    let gen = SynthDb::build(SynthConfig {
        tables: 4,
        rows: 200,
        seed: 5,
    });
    // RLE-encode everything so the mutation path exercises encoded
    // columns (synth data is all-Int: dictionary encoding applies to
    // strings and is covered by the engines/encodings test above).
    let mut base = gen.db.clone();
    for t in 0..4u32 {
        base.table_mut(TableId(t)).unwrap().rle_encode_columns(1);
    }
    base.build_indexes().expect("indexes rebuild");

    let script: Vec<Mutation> = vec![
        Mutation::append(TableId(0), 60, 901),
        Mutation::skew_shift(TableId(1), ColumnId(2), 0.5, 902),
        Mutation::bulk_delete(TableId(2), 0.3, 903),
        Mutation::append(TableId(3), 40, 904),
    ];
    let graph = gen.query(Shape::Chain, 4, 1, 12);

    // Serial replay reference: expected rows per version, plus the
    // plan each version's server will execute (planned fresh per
    // version, exactly like the racing servers do).
    let config = ExecConfig::with_budget(60_000_000);
    let mut reference = Vec::new();
    let mut replay = base.clone();
    for applied in 0..=script.len() {
        if applied > 0 {
            apply_mutation(&mut replay, &script[applied - 1]).expect("replay applies");
        }
        let stats = build_database_stats(&replay);
        let plan = TraditionalPlanner::new()
            .plan(&PlannerContext::new(replay.catalog(), &stats), &graph)
            .expect("plannable")
            .plan;
        let mut rows = hfqo::exec::execute(&replay, &graph, &plan, config)
            .expect("reference executes")
            .rows;
        rows.sort();
        reference.push((plan, rows));
    }

    let snapshots = DbSnapshots::new(base.clone());
    let versions = script.len() as u64;
    let served_checks = AtomicU64::new(0);
    // Generous progress bound: a wedged appender or a starved server
    // fails loudly instead of hanging the suite (no deadlines — the
    // lint forbids wall-clock in this file).
    const SPIN_BOUND: u64 = 2_000_000_000;

    std::thread::scope(|scope| {
        let reference = &reference;
        let snapshots = &snapshots;
        let served_checks = &served_checks;
        let graph = &graph;
        let script = &script;

        scope.spawn(move || {
            // The appender mutates a private clone and publishes
            // immutable snapshots — servers can never observe a
            // half-appended column.
            let mut db = base;
            for m in script {
                apply_mutation(&mut db, m).expect("appender applies");
                snapshots.publish(db.clone());
            }
        });

        for _ in 0..workers() {
            scope.spawn(move || {
                let mut last_seen = u64::MAX;
                let mut spins = 0u64;
                loop {
                    let (version, db) = snapshots.load();
                    if version == last_seen {
                        spins += 1;
                        assert!(spins < SPIN_BOUND, "server starved: no new version");
                        std::hint::spin_loop();
                        continue;
                    }
                    last_seen = version;
                    let (plan, expected) = &reference[version as usize];
                    let mut rows = hfqo::exec::execute(&db, graph, plan, config)
                        .expect("server executes")
                        .rows;
                    rows.sort();
                    assert_eq!(
                        &rows, expected,
                        "version {version}: served rows diverge from serial replay"
                    );
                    served_checks.fetch_add(1, Ordering::Relaxed);
                    if version == versions {
                        return;
                    }
                }
            });
        }
    });

    assert!(
        served_checks.load(Ordering::Relaxed) >= workers() as u64,
        "every server must verify at least the final version"
    );
    // Appends through the encoded push path kept the RLE layout.
    let (final_version, final_db) = snapshots.load();
    assert_eq!(final_version, versions);
    for t in 0..4u32 {
        let encs = final_db.table(TableId(t)).unwrap().encodings();
        assert!(
            encs.contains(&Encoding::Rle),
            "table {t}: mutations must preserve RLE columns (got {encs:?})"
        );
    }
}

/// The whole scenario is a pure function of its seeds: two runs of the
/// standard script produce identical outcomes — every round, every
/// p95 bit, every generation count. This is what makes the golden log
/// below meaningful.
#[test]
fn drift_scenario_is_bit_reproducible() {
    let a = DriftScenario::imdb_job().run();
    let b = DriftScenario::imdb_job().run();
    assert_eq!(a, b, "fixed-seed drift scenario must be bit-reproducible");
}

/// Satellite (golden): the standard shock→recovery scenario, pinned.
/// The learned planner must return to expert p95 parity after every
/// shock, within the generation counts recorded in
/// `tests/golden/drift_recovery_seed41.txt` — regenerate deliberately
/// with `HFQO_BLESS=1 cargo test --test drift golden`. The log is
/// profile-independent: identical under dev and release builds,
/// because every latency derives from the deterministic work counter.
#[test]
fn golden_drift_recovery_log() {
    let scenario = DriftScenario::imdb_job();
    let shock_kinds: Vec<ShockKind> = scenario.shocks.iter().map(|s| s.kind).collect();
    assert!(
        shock_kinds.len() >= 3,
        "battery must cover >= 3 shock kinds"
    );
    assert!(shock_kinds.contains(&ShockKind::AppendGrowth));
    assert!(shock_kinds.contains(&ShockKind::SkewShift));
    assert!(shock_kinds.contains(&ShockKind::NewTemplates));
    assert!(shock_kinds.contains(&ShockKind::BulkDelete));

    let outcome = scenario.run();

    // Hands-free: every shock recovers to expert parity within the
    // bounded round budget, and the mutation shocks visibly moved the
    // statistics (the recovery wasn't measured against a stale world).
    assert!(outcome.all_parity(), "{}", outcome.golden_log());
    for (report, kind) in outcome.shocks.iter().zip(&shock_kinds) {
        assert_eq!(report.label, kind.label());
        assert!(report.serves > 0, "{}: nothing served", report.label);
        let expect_drift = *kind != ShockKind::NewTemplates;
        assert_eq!(
            report.drift.is_significant(),
            expect_drift,
            "{}: unexpected drift magnitude",
            report.label
        );
    }

    let actual = outcome.golden_log();
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/drift_recovery_seed41.txt"
    );
    if std::env::var("HFQO_BLESS").is_ok() {
        std::fs::write(golden_path, &actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(golden_path)
        .expect("golden file present (regenerate with HFQO_BLESS=1)");
    assert_eq!(
        expected, actual,
        "fixed-seed drift-recovery log drifted from {golden_path}; if \
         the change is intentional, regenerate with HFQO_BLESS=1"
    );
}
