//! Serving-layer integration: plan-cache correctness, LRU eviction,
//! stats-rebuild invalidation, the learned planner behind
//! `QuerySession`, the statement cache over the JOB-like suite, and
//! concurrent serving of graphs and of text (the CI smoke test runs
//! this file at `HFQO_WORKERS=2`).

use hfqo::opt::{OptError, PlannedQuery};
use hfqo::prelude::*;
use hfqo::sql::tokenize_with_shape;
use hfqo::workload::imdb::build_imdb;
use hfqo::workload::job::generate_job_suite;
use hfqo::workload::synth::{Shape, SynthConfig, SynthDb};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, OnceLock};

fn synth_config() -> SynthConfig {
    SynthConfig {
        tables: 7,
        rows: 150,
        seed: 55,
    }
}

/// One shared session for the property test (building a database per
/// case would dominate the run time). The generator side is a second
/// build of the same deterministic database.
fn shared_session() -> &'static QuerySession {
    static SESSION: OnceLock<QuerySession> = OnceLock::new();
    SESSION.get_or_init(|| {
        let synth = SynthDb::build(synth_config());
        QuerySession::traditional(synth.db, synth.stats)
    })
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

fn sorted_rows(served: &ServedQuery) -> Vec<Vec<hfqo::storage::Value>> {
    let mut rows = served.outcome.rows.clone();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Plan-cache correctness: a cache-hit serve must execute to the
    /// identical row multiset and identical `ExecStats.work` as the
    /// freshly planned serve of the same query.
    #[test]
    fn cache_hit_executes_identically_to_fresh_plan(
        n in 2usize..6,
        shape in 0u8..3,
        qseed in 0u64..40,
    ) {
        let session = shared_session();
        let graph = generator().query(shape_from(shape), n, 2, qseed);
        session.invalidate_cache();
        let fresh = session.serve_graph(&graph).expect("fresh serve");
        let hit = session.serve_graph(&graph).expect("cached serve");
        prop_assert!(!fresh.cache_hit);
        prop_assert!(hit.cache_hit);
        prop_assert_eq!(&hit.plan, &fresh.plan);
        prop_assert_eq!(sorted_rows(&hit), sorted_rows(&fresh));
        prop_assert_eq!(hit.outcome.stats.work, fresh.outcome.stats.work);
        prop_assert_eq!(hit.method, fresh.method);
    }
}

/// Structurally distinct queries (different shapes/sizes), so each has
/// its own template fingerprint. Same-shape queries differing only in
/// seed now share a template — exactly what the old version of the LRU
/// test below unknowingly relied on *not* happening.
fn distinct_template_queries(bundle: &SynthDb) -> Vec<QueryGraph> {
    vec![
        bundle.query(Shape::Chain, 3, 2, 100),
        bundle.query(Shape::Star, 4, 2, 101),
        bundle.query(Shape::Cycle, 5, 2, 102),
    ]
}

#[test]
fn lru_eviction_drops_the_least_recently_used_plan() {
    let synth = SynthDb::build(synth_config());
    let queries = distinct_template_queries(&synth);
    // A two-template cache is one shard, so the LRU order is exact.
    let session = QuerySession::traditional(synth.db, synth.stats).with_cache_capacity(2);
    // Fill: q0, q1 (both miss).
    assert!(!session.serve_graph(&queries[0]).unwrap().cache_hit);
    assert!(!session.serve_graph(&queries[1]).unwrap().cache_hit);
    // Touch q0 so q1 becomes LRU, then insert q2 → q1 evicted.
    assert!(session.serve_graph(&queries[0]).unwrap().cache_hit);
    assert!(!session.serve_graph(&queries[2]).unwrap().cache_hit);
    assert_eq!(session.cache_metrics().evictions, 1);
    // q0 survived; q1 must re-plan.
    assert!(session.serve_graph(&queries[0]).unwrap().cache_hit);
    assert!(!session.serve_graph(&queries[1]).unwrap().cache_hit);
}

#[test]
fn stats_rebuild_invalidates_the_plan_cache() {
    let synth = SynthDb::build(synth_config());
    let graph = synth.query(Shape::Star, 4, 2, 7);
    let mut session = QuerySession::traditional(synth.db, synth.stats);
    let before = session.serve_graph(&graph).unwrap();
    assert!(session.serve_graph(&graph).unwrap().cache_hit);
    session.rebuild_stats();
    let after = session.serve_graph(&graph).unwrap();
    assert!(!after.cache_hit, "stats rebuild must invalidate the cache");
    assert_eq!(session.cache_metrics().invalidations, 1);
    // Rebuilding from the unchanged database re-derives the same
    // statistics, so the re-planned query gives the same answer.
    assert_eq!(sorted_rows(&after), sorted_rows(&before));
}

/// All four strategies serve through one session: swap planners behind
/// the trait, get identical results, correctly attributed. The query
/// carries a `COUNT(*)` root because non-aggregated output columns
/// follow plan-leaf order — different join orders permute them, so only
/// the aggregated shape is directly comparable across planners.
#[test]
fn all_four_planners_serve_through_the_session() {
    let synth = SynthDb::build(synth_config());
    let graph = hfqo::opt::test_support::with_count(synth.query(Shape::Chain, 4, 2, 11));

    // Train (briefly) on the serving query so the learned planner is a
    // real frozen policy, then freeze it.
    let stats_clone = synth.stats.clone();
    let db_clone = synth.db.clone();
    let queries = vec![graph.clone()];
    let ctx = EnvContext::new(&db_clone, &stats_clone);
    let mut env = PlanEnv::new(
        ctx,
        &queries,
        4,
        QueryOrder::Cycle,
        RewardMode::LogRelative,
        StageSet::join_order_only(),
    );
    env.require_connected = true;
    let mut rng = StdRng::seed_from_u64(2);
    let mut agent = ReinforceAgent::new(
        env.state_dim(),
        env.action_dim(),
        ReinforceConfig::default(),
        &mut rng,
    );
    let _ = train(&mut env, &mut agent, 40, &mut rng);
    let learned = LearnedPlanner::freeze(&agent, env.featurizer());

    let mut session = QuerySession::traditional(synth.db, synth.stats);
    let planners: Vec<(Box<dyn Planner>, PlannerMethod)> = vec![
        (
            Box::new(TraditionalPlanner::new()),
            PlannerMethod::DynamicProgramming,
        ),
        (
            Box::new(TraditionalPlanner::new().with_dp_threshold(0)),
            PlannerMethod::Greedy,
        ),
        (Box::new(RandomPlanner::new(5)), PlannerMethod::Random),
        (Box::new(learned), PlannerMethod::Learned),
    ];
    let mut reference: Option<Vec<Vec<hfqo::storage::Value>>> = None;
    for (planner, method) in planners {
        session.set_planner(planner);
        let served = session.serve_graph(&graph).unwrap();
        assert!(!served.cache_hit, "planner swap must invalidate");
        assert_eq!(served.method, method);
        served.plan.validate(&graph).unwrap();
        let rows = sorted_rows(&served);
        match &reference {
            None => reference = Some(rows),
            Some(expected) => assert_eq!(&rows, expected, "{method} changed results"),
        }
        // And each strategy's plans cache like any other.
        assert!(session.serve_graph(&graph).unwrap().cache_hit);
    }
}

/// Worker counts for the concurrency smoke test: `HFQO_WORKERS` (a
/// count or comma-separated counts; CI runs 2), default 2.
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
        Err(_) => vec![2],
    }
}

/// Executor thread counts for the intra-query parallelism test:
/// `HFQO_EXEC_THREADS` (comma-separated; CI runs 1, 2 and 4), default
/// `2,4`.
fn exec_thread_counts() -> Vec<usize> {
    match std::env::var("HFQO_EXEC_THREADS") {
        Ok(v) => v
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<usize>()
                    .unwrap_or_else(|_| panic!("invalid HFQO_EXEC_THREADS entry `{s}`"))
                    .max(1)
            })
            .collect(),
        Err(_) => vec![2, 4],
    }
}

/// A session configured for intra-query parallelism must serve the
/// identical rows and the identical `ExecStats.work` as a single-thread
/// session — the executor's thread count is invisible to everything
/// above it, including online-learning reward signals derived from
/// served work.
#[test]
fn served_results_are_independent_of_executor_threads() {
    let synth = SynthDb::build(synth_config());
    let queries: Vec<QueryGraph> = (0..6u64)
        .map(|s| synth.query(shape_from(s as u8), 2 + (s as usize % 4), 2, 300 + s))
        .collect();
    let serial = QuerySession::traditional(synth.db.clone(), synth.stats.clone());
    let reference: Vec<_> = queries
        .iter()
        .map(|q| serial.serve_graph(q).expect("serial serve"))
        .collect();
    for threads in exec_thread_counts() {
        let session = QuerySession::traditional(synth.db.clone(), synth.stats.clone())
            .with_exec_config(ExecConfig::default().threads(threads));
        for (q, reference) in queries.iter().zip(&reference) {
            let served = session.serve_graph(q).expect("parallel serve");
            assert_eq!(
                sorted_rows(&served),
                sorted_rows(reference),
                "threads={threads} rows"
            );
            assert_eq!(
                served.outcome.stats.work, reference.outcome.stats.work,
                "threads={threads} work"
            );
            assert_eq!(served.plan, reference.plan, "threads={threads} plan");
        }
    }
}

/// N threads serve the same workload against one shared session; every
/// thread must observe the sequential reference results, and the cache
/// counters must add up.
#[test]
fn concurrent_serving_matches_sequential_results() {
    let synth = SynthDb::build(synth_config());
    let queries: Vec<QueryGraph> = (0..6u64)
        .map(|s| synth.query(shape_from(s as u8), 2 + (s as usize % 4), 2, 200 + s))
        .collect();
    let session = QuerySession::traditional(synth.db, synth.stats);
    let reference: Vec<_> = queries
        .iter()
        .map(|q| sorted_rows(&session.serve_graph(q).expect("reference serve")))
        .collect();

    for workers in worker_counts() {
        session.invalidate_cache();
        let before = session.cache_metrics();
        std::thread::scope(|scope| {
            for w in 0..workers {
                let session = &session;
                let queries = &queries;
                let reference = &reference;
                scope.spawn(move || {
                    // Stagger starting offsets so threads race on
                    // different fingerprints first.
                    for round in 0..3 {
                        for i in 0..queries.len() {
                            let idx = (i + w + round) % queries.len();
                            let served = session
                                .serve_graph(&queries[idx])
                                .expect("concurrent serve");
                            assert_eq!(
                                sorted_rows(&served),
                                reference[idx],
                                "worker {w} round {round} query {idx}"
                            );
                        }
                    }
                });
            }
        });
        let after = session.cache_metrics();
        // Every serve accounts as exactly one of hit / miss / re-plan —
        // a thread that waits on another's in-flight planner run counts
        // only its final (post-wait) probe.
        let probes = (after.hits - before.hits)
            + (after.misses - before.misses)
            + (after.replans - before.replans);
        assert_eq!(
            probes as usize,
            workers * 3 * queries.len(),
            "every serve probes the cache exactly once"
        );
        assert_eq!(
            after.duplicate_plans, before.duplicate_plans,
            "single-flight: racing cold misses must not double-plan"
        );
        assert!(
            after.len <= queries.len(),
            "at most one template entry per distinct structure"
        );
    }
}

/// What of a serve must not depend on the route the query took to the
/// back half, or on which thread served it: the plan, its cost and
/// method, the rows and the work — or the error.
type Served = Result<
    (
        PhysicalPlan,
        f64,
        PlannerMethod,
        Vec<Vec<hfqo::storage::Value>>,
        u64,
    ),
    ServeError,
>;

fn essentials(served: Result<ServedQuery, ServeError>) -> Served {
    served.map(|s| {
        (
            s.plan,
            s.cost,
            s.method,
            s.outcome.rows,
            s.outcome.stats.work,
        )
    })
}

/// `serve(sql)`, `serve_prepared(&prepare(sql)?)` and
/// `serve_shared(bind(parse(sql)))` are three ways into one back half:
/// on every text of the JOB-like suite — the ones that exhaust the work
/// budget included — they return the same plan, cost, method, rows,
/// work and `CacheOutcome`, cold and warm. And the saving is where it
/// is claimed: each template is bound once, on the first text of its
/// shape; every other serve is a statement hit, and after the warm
/// pass (`job_warm`'s steady state) later passes over the servable
/// texts count one statement hit per serve and no miss.
#[test]
fn text_statement_and_graph_entry_points_agree_on_the_job_suite() {
    let (db, stats) = build_imdb(ImdbConfig {
        base_rows: 100,
        seed: 21,
    });
    let suite = generate_job_suite(db.catalog(), 21);
    // A budget a fair share of the suite's expert plans exceed, so the
    // error route is compared too (and cheaply).
    let session = || {
        QuerySession::traditional(db.clone(), stats.clone())
            .with_exec_config(ExecConfig::with_budget(100_000))
    };
    let (by_text, by_statement, by_graph) = (session(), session(), session());
    let mut servable = Vec::new();
    // The statement cache remembers templates: texts of one shape (the
    // suite's families, which differ only in constants, and the few
    // texts it repeats under two labels) bind once between them.
    let shape = |sql: &str| tokenize_with_shape(sql).unwrap().1;
    let mut seen = std::collections::HashSet::new();
    for pass in ["cold", "warm"] {
        for q in &suite {
            let seen_before = !seen.insert(shape(&q.sql)) || pass == "warm";
            let text = by_text.serve(&q.sql);
            let statement = by_statement
                .prepare(&q.sql)
                .and_then(|p| by_statement.serve_prepared(&p));
            let graph = parse_select(&q.sql)
                .map_err(ServeError::from)
                .and_then(|stmt| Ok(bind_select(&stmt, by_graph.catalog())?))
                .and_then(|g| by_graph.serve_shared(Arc::new(g)));
            let outcome = |s: &Result<ServedQuery, ServeError>| s.as_ref().ok().map(|s| s.cache);
            assert_eq!(outcome(&text), outcome(&statement), "{pass} {}", q.label);
            assert_eq!(outcome(&text), outcome(&graph), "{pass} {}", q.label);
            if let Ok(served) = &text {
                assert_eq!(served.statement_hit, seen_before, "{pass} {}", q.label);
                if pass == "cold" {
                    servable.push(&q.sql);
                }
            }
            let text = essentials(text);
            assert_eq!(text, essentials(statement), "{pass} {}", q.label);
            assert_eq!(text, essentials(graph), "{pass} {}", q.label);
        }
    }
    assert!(
        (suite.len() / 2..suite.len()).contains(&servable.len()),
        "most texts serve and some exceed the budget: {} of {}",
        servable.len(),
        suite.len()
    );

    let texts: std::collections::HashSet<&String> = suite.iter().map(|q| &q.sql).collect();
    assert!(
        seen.len() < texts.len() / 2,
        "{} templates among {} texts",
        seen.len(),
        texts.len()
    );
    // A text that binds is remembered whether or not it then executes.
    let warm = by_text.cache_metrics();
    assert_eq!(warm.statement_misses as usize, seen.len());
    assert_eq!(warm.statement_hits as usize, 2 * suite.len() - seen.len());
    assert_eq!(warm.statements, seen.len());
    const PASSES: usize = 2;
    for _ in 0..PASSES {
        for sql in &servable {
            let served = by_text.serve(sql).expect("servable");
            assert!(served.statement_hit);
            assert_eq!(served.cache, CacheOutcome::ExactHit);
        }
    }
    let after = by_text.cache_metrics();
    assert_eq!(after.statement_misses, warm.statement_misses);
    assert_eq!(
        (after.statement_hits - warm.statement_hits) as usize,
        PASSES * servable.len(),
        "every later serve is a statement hit"
    );
    // The other two sessions never looked a text up.
    for session in [&by_statement, &by_graph] {
        let m = session.cache_metrics();
        assert_eq!(
            (m.statement_hits, m.statement_misses, m.statements),
            (0, 0, 0)
        );
    }
}

/// `HFQO_WORKERS` threads serve ten distinct texts — each its own
/// template — through a session whose caches hold four, each thread in
/// its own order, so statements are looked up, prepared twice by racing
/// threads, inserted and evicted under one another's feet. Every
/// result must be the sequential one, the bound must hold, every lookup
/// must be counted once, and the statement lock must stay a leaf (a
/// debug build runs under the lock-order checker).
#[test]
fn concurrent_text_serving_churns_statements_and_matches_sequential_results() {
    const CAPACITY: usize = 4;
    const ROUNDS: usize = 4;
    let synth = SynthDb::build(synth_config());
    // SynthDb tables are s{i}(id, fk, val).
    let pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6)].map(|(a, b)| {
        format!("SELECT COUNT(*) FROM s{a}, s{b} WHERE s{a}.id = s{b}.fk AND s{a}.val < 60")
    });
    let triples = [(0, 2, 3), (1, 3, 4), (2, 4, 5), (3, 5, 6)].map(|(a, b, c)| {
        format!(
            "SELECT COUNT(*) FROM s{a}, s{b}, s{c} \
             WHERE s{a}.id = s{b}.fk AND s{b}.id = s{c}.fk AND s{c}.val > 40"
        )
    });
    let texts: Vec<String> = pairs.into_iter().chain(triples).collect();
    assert!(texts.len() > 2 * CAPACITY);
    let reference: Vec<Served> = {
        let sequential = QuerySession::traditional(synth.db.clone(), synth.stats.clone());
        texts
            .iter()
            .map(|sql| essentials(sequential.serve(sql)))
            .collect()
    };
    assert!(reference.iter().all(Result::is_ok));

    for workers in worker_counts() {
        let session = QuerySession::traditional(synth.db.clone(), synth.stats.clone())
            .with_cache_capacity(CAPACITY);
        let barrier = Barrier::new(workers);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let (session, texts, reference, barrier) = (&session, &texts, &reference, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    for round in 0..ROUNDS {
                        for i in 0..texts.len() {
                            // Odd workers walk the list backwards, and
                            // every worker starts somewhere else.
                            let step = if w.is_multiple_of(2) {
                                i
                            } else {
                                texts.len() - 1 - i
                            };
                            let idx = (step + 3 * w + round) % texts.len();
                            assert_eq!(
                                essentials(session.serve(&texts[idx])),
                                reference[idx],
                                "worker {w} round {round} text {idx}"
                            );
                            assert!(session.cache_metrics().statements <= CAPACITY);
                        }
                    }
                });
            }
        });
        let m = session.cache_metrics();
        assert_eq!(
            (m.statement_hits + m.statement_misses) as usize,
            workers * ROUNDS * texts.len(),
            "workers={workers}: every serve looks its text up exactly once"
        );
        assert!(m.statement_misses as usize >= texts.len());
        assert_eq!(m.statements, CAPACITY, "workers={workers}: full, not over");
    }
}

/// The expert, except that its `fail_on`-th call (from 1) is an `Err` —
/// one it returns only once `gate` has been met from outside, so a test
/// decides what else is going on meanwhile.
struct FailsOnNth {
    inner: TraditionalPlanner,
    fail_on: usize,
    calls: Arc<AtomicUsize>,
    gate: Arc<Barrier>,
}

impl Planner for FailsOnNth {
    fn name(&self) -> &'static str {
        "fails-on-nth"
    }

    fn plan(&self, ctx: &PlannerContext<'_>, graph: &QueryGraph) -> Result<PlannedQuery, OptError> {
        // Relaxed: a call counter — the RMW alone numbers the calls, and
        // the test reads the total after joining every serving thread.
        if self.calls.fetch_add(1, Ordering::Relaxed) + 1 != self.fail_on {
            return self.inner.plan(ctx, graph);
        }
        self.gate.wait();
        Err(OptError::Unsupported("injected fault".into()))
    }
}

/// Fault injection: a planner call that fails, fails one serve. One
/// thread, then `HFQO_WORKERS` threads, serve one text whose first
/// planner call — the single-flight leader's — fails only after every
/// other thread is waiting on its flight. The leader's serve is the one
/// `Err`; the waiters are released and one of them plans; nothing is
/// cached from the failed flight, and the next serve of the same text
/// plans (if no waiter did), caches and then hits.
#[test]
fn a_failed_planner_call_fails_one_serve_and_caches_nothing() {
    const SQL: &str = "SELECT COUNT(*) FROM s0, s1, s2 \
                       WHERE s0.id = s1.fk AND s1.id = s2.fk AND s0.val < 50";
    let synth = SynthDb::build(synth_config());
    let want = QuerySession::traditional(synth.db.clone(), synth.stats.clone())
        .serve(SQL)
        .expect("reference serve");
    for workers in std::iter::once(1).chain(worker_counts()) {
        let calls = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new(Barrier::new(2));
        let planner = FailsOnNth {
            inner: TraditionalPlanner::new(),
            fail_on: 1,
            calls: Arc::clone(&calls),
            gate: Arc::clone(&gate),
        };
        let session = QuerySession::new(synth.db.clone(), synth.stats.clone(), Box::new(planner));
        let results: Vec<Result<ServedQuery, ServeError>> = std::thread::scope(|scope| {
            let serving: Vec<_> = (0..workers)
                .map(|_| scope.spawn(|| session.serve(SQL)))
                .collect();
            // A waiter is counted, under the shard lock, before it
            // blocks on the flight, so once all are counted none can
            // still become a leader of its own; only then may the
            // leader's call fail.
            while (session.cache_metrics().flight_waits as usize) < workers - 1 {
                std::thread::yield_now();
            }
            gate.wait();
            serving
                .into_iter()
                .map(|h| h.join().expect("no serve panics"))
                .collect()
        });

        let (served, failed): (Vec<_>, Vec<_>) = results.into_iter().partition(Result::is_ok);
        assert!(
            matches!(
                failed[..],
                [Err(ServeError::Plan(OptError::Unsupported(_)))]
            ),
            "workers={workers}: the leader alone fails, and as a planning error"
        );
        // One more planner call served every released waiter; a lone
        // worker leaves the cache as empty as it found it.
        assert_eq!(calls.load(Ordering::Relaxed), 1 + usize::from(workers > 1));
        let m = session.cache_metrics();
        assert_eq!((m.len, m.plans), if workers > 1 { (1, 1) } else { (0, 0) });
        let next = session.serve(SQL).expect("the next serve");
        assert_eq!(next.cache_hit, workers > 1, "workers={workers}");
        let hit = session.serve(SQL).expect("the serve after it");
        assert!(hit.cache_hit, "workers={workers}");
        assert_eq!(calls.load(Ordering::Relaxed), 2, "workers={workers}");
        for served in served.into_iter().map(Result::unwrap).chain([next, hit]) {
            assert_eq!(served.plan, want.plan, "workers={workers}");
            assert_eq!(served.outcome.rows, want.outcome.rows, "workers={workers}");
            assert_eq!(served.outcome.stats.work, want.outcome.stats.work);
        }
        let m = session.cache_metrics();
        assert_eq!((m.len, m.plans), (1, 1), "workers={workers}");
        assert_eq!((m.duplicate_plans, m.stale_inserts), (0, 0));
    }
}
