//! Online-learning serving integration: the closed loop of
//! serve → record → retrain → hot-swap.
//!
//! The contracts pinned here:
//!
//! * **Smoke (JOB)** — with online training enabled on a JOB serving
//!   workload, at least one snapshot swap occurs, every swap
//!   invalidates the plan cache, and served results are identical to
//!   freshly-planned execution before and after every swap.
//! * **Training disabled ⇒ frozen serving** — a session with an
//!   attached-but-never-stepped trainer serves bit-identically to a
//!   plain frozen `LearnedPlanner` session (plans, costs, rows, work).
//! * **Torn snapshots are impossible** — under concurrent serving with
//!   policy hot-swaps racing mid-traffic, every served plan is exactly
//!   one published generation's deterministic plan, never a hybrid.
//! * **Reproducibility** — a fixed-seed, single-threaded online run
//!   (serve bursts interleaved with `OnlineTrainer::step`) reproduces
//!   the identical sequence of plans, costs, work, and generations.
//!
//! CI runs this file as the online-learning smoke next to the
//! `HFQO_WORKERS` serving suite.

use hfqo::opt::test_support::with_count;
use hfqo::prelude::*;
use hfqo::storage::Value;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

fn sorted_rows(served: &ServedQuery) -> Vec<Vec<Value>> {
    let mut rows = served.outcome.rows.clone();
    rows.sort();
    rows
}

/// A small JOB bundle plus a handful of its mid-size queries (COUNT(*)
/// roots so results are directly comparable across join orders).
fn job_fixture() -> (WorkloadBundle, Vec<QueryGraph>, usize) {
    let bundle = WorkloadBundle::imdb_job(
        ImdbConfig {
            base_rows: 200,
            seed: 31,
        },
        31,
    );
    let queries: Vec<QueryGraph> = bundle
        .queries
        .iter()
        .filter(|q| (4..=7).contains(&q.relation_count()))
        .take(6)
        .cloned()
        .map(with_count)
        .collect();
    let max_rels = queries
        .iter()
        .map(QueryGraph::relation_count)
        .max()
        .unwrap_or(2);
    (bundle, queries, max_rels)
}

fn fresh_agent(featurizer: &Featurizer, seed: u64) -> ReinforceAgent {
    let mut rng = StdRng::seed_from_u64(seed);
    ReinforceAgent::new(
        featurizer.state_dim(),
        featurizer.action_dim(),
        ReinforceConfig::default(),
        &mut rng,
    )
}

/// The acceptance-criteria smoke: a bounded online run on the JOB
/// workload swaps at least one policy generation, every swap
/// invalidates the plan cache, and serving results stay identical to
/// freshly-planned execution throughout.
#[test]
fn online_smoke_swaps_generations_with_identical_results() {
    let (bundle, queries, max_rels) = job_fixture();
    assert!(queries.len() >= 4, "JOB fixture must yield queries");
    let mut session = QuerySession::traditional(bundle.db, bundle.stats);
    // Freshly-planned reference results (expert planner, cache cold).
    let reference: Vec<_> = queries
        .iter()
        .map(|q| sorted_rows(&session.serve_graph(q).expect("reference serve")))
        .collect();

    let featurizer = Featurizer::new(max_rels);
    let agent = fresh_agent(&featurizer, 11);
    let mut trainer = OnlineTrainer::attach(
        &mut session,
        agent,
        featurizer,
        true,
        OnlineConfig {
            swap_every: queries.len(),
            ..OnlineConfig::default()
        },
    );

    let mut swaps = 0u64;
    for _round in 0..4 {
        for (i, q) in queries.iter().enumerate() {
            let served = session.serve_graph(q).expect("online serve");
            assert_eq!(served.method, PlannerMethod::Learned);
            assert_eq!(
                sorted_rows(&served),
                reference[i],
                "online serving changed results (swap #{swaps})"
            );
        }
        let step = trainer.step(&session);
        assert_eq!(step.skipped, 0, "every JOB record must replay");
        if step.swapped() {
            swaps += step.swaps as u64;
            // The swap invalidated the cache: the next serve re-plans
            // with the new generation, and results are still identical
            // to freshly-planned execution.
            let served = session.serve_graph(&queries[0]).expect("post-swap serve");
            assert!(!served.cache_hit, "swap must invalidate the plan cache");
            assert_eq!(sorted_rows(&served), reference[0]);
        }
    }
    assert!(
        swaps >= 1,
        "bounded run must publish at least one generation"
    );
    assert_eq!(trainer.generation(), swaps);
    assert_eq!(trainer.metrics().swaps, swaps);
    // Attaching swapped the strategy (one invalidation), then every
    // generation invalidated once more.
    assert_eq!(session.cache_metrics().invalidations, 1 + swaps);
    assert_eq!(trainer.metrics().skipped, 0);
    assert!(trainer.agent().episodes_seen() >= queries.len());
}

/// With training disabled (trainer attached but never stepped), serving
/// is bit-identical to the PR 4 frozen-policy path: same plans, same
/// cost bits, same rows, same work, same cache behaviour.
#[test]
fn training_disabled_serving_is_bit_identical_to_frozen_policy() {
    let (bundle, queries, max_rels) = job_fixture();
    let featurizer = Featurizer::new(max_rels);

    // Frozen reference: a plain LearnedPlanner session.
    let mut frozen = QuerySession::traditional(bundle.db.clone(), bundle.stats.clone());
    frozen.set_planner(Box::new(
        LearnedPlanner::freeze(&fresh_agent(&featurizer, 23), featurizer)
            .with_require_connected(true),
    ));

    // Online session whose agent has identical weights (same seed), but
    // whose trainer never runs.
    let mut online = QuerySession::traditional(bundle.db, bundle.stats);
    let trainer = OnlineTrainer::attach(
        &mut online,
        fresh_agent(&featurizer, 23),
        featurizer,
        true,
        OnlineConfig::default(),
    );

    for round in 0..2 {
        for q in &queries {
            let a = frozen.serve_graph(q).expect("frozen serve");
            let b = online.serve_graph(q).expect("online serve");
            assert_eq!(a.plan, b.plan, "round {round}");
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
            assert_eq!(a.method, b.method);
            assert_eq!(a.cache_hit, b.cache_hit);
            assert_eq!(a.outcome.rows, b.outcome.rows);
            assert_eq!(a.outcome.stats.work, b.outcome.stats.work);
        }
    }
    assert_eq!(trainer.generation(), 0, "training never ran");
    // Recording is the only observable difference.
    let m = trainer.log().metrics();
    assert_eq!(m.recorded as usize, 2 * queries.len());
}

/// A fixed-seed, single-threaded online run — serve bursts interleaved
/// with trainer steps — is exactly reproducible: identical plans, cost
/// bits, executed work, and swap generations.
#[test]
fn fixed_seed_online_run_is_reproducible() {
    fn run() -> Vec<(u64, u64, u64)> {
        let (bundle, queries, max_rels) = job_fixture();
        let mut session = QuerySession::traditional(bundle.db, bundle.stats);
        let featurizer = Featurizer::new(max_rels);
        let mut trainer = OnlineTrainer::attach(
            &mut session,
            fresh_agent(&featurizer, 47),
            featurizer,
            true,
            OnlineConfig {
                swap_every: 4,
                ..OnlineConfig::default()
            },
        );
        let mut trace = Vec::new();
        for _round in 0..3 {
            for q in &queries {
                let served = session.serve_graph(q).expect("serves");
                trace.push((
                    served.cost.to_bits(),
                    served.outcome.stats.work,
                    trainer.generation(),
                ));
            }
            trainer.step(&session);
        }
        trace.push((0, 0, trainer.generation()));
        trace
    }
    assert_eq!(run(), run(), "online run must be reproducible");
}

/// Concurrent hot-swaps mid-traffic: every served plan must be exactly
/// one published generation's deterministic plan (never a torn hybrid),
/// results never change, and each swap invalidates the plan cache —
/// the swap path here is precisely `OnlineTrainer::swap`'s
/// store-then-invalidate sequence, driven directly so the two
/// generations' reference plans are known in advance.
#[test]
fn hot_swap_mid_traffic_never_serves_torn_plans() {
    let (bundle, queries, max_rels) = job_fixture();
    let featurizer = Featurizer::new(max_rels);
    let gen_a = LearnedPlanner::freeze(&fresh_agent(&featurizer, 1), featurizer)
        .with_require_connected(true);
    let gen_b = LearnedPlanner::freeze(&fresh_agent(&featurizer, 2), featurizer)
        .with_require_connected(true);

    let mut session = QuerySession::traditional(bundle.db, bundle.stats);
    // Reference rows (expert) and the two generations' exact plans.
    let reference: Vec<_> = queries
        .iter()
        .map(|q| sorted_rows(&session.serve_graph(q).expect("reference serve")))
        .collect();
    let ctx = PlannerContext::new(session.catalog(), session.stats());
    let plans_a: Vec<_> = queries
        .iter()
        .map(|q| gen_a.plan(&ctx, q).expect("gen A plans").plan)
        .collect();
    let plans_b: Vec<_> = queries
        .iter()
        .map(|q| gen_b.plan(&ctx, q).expect("gen B plans").plan)
        .collect();

    let handle = PlannerHandle::new(gen_a.clone());
    session.set_planner(Box::new(HotSwapPlanner::new(Arc::clone(&handle))));
    let inv_before = session.cache_metrics().invalidations;

    const SWAPS: u64 = 16;
    let workers: usize = std::env::var("HFQO_WORKERS")
        .ok()
        .and_then(|v| v.split(',').next_back()?.trim().parse().ok())
        .unwrap_or(2);
    let stop = AtomicBool::new(false);
    let serves = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let session = &session;
            let queries = &queries;
            let (reference, plans_a, plans_b) = (&reference, &plans_a, &plans_b);
            let (stop, serves) = (&stop, &serves);
            scope.spawn(move || {
                let mut i = w;
                // ordering: Acquire — pairs with the Release store after
                // the swap loop; loop exit implies all swaps are visible.
                while !stop.load(Ordering::Acquire) {
                    let idx = i % queries.len();
                    let served = session.serve_graph(&queries[idx]).expect("serves");
                    assert!(
                        served.plan == plans_a[idx] || served.plan == plans_b[idx],
                        "worker {w}: torn or unknown plan for query {idx}"
                    );
                    assert_eq!(sorted_rows(&served), reference[idx], "query {idx}");
                    // Relaxed: progress counter, only paces the swap loop.
                    serves.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
        // Swap generations mid-traffic, exactly as OnlineTrainer::swap
        // does: publish a complete frozen planner, then invalidate.
        // Between swaps, wait for demonstrable serving progress (one
        // serve per worker) instead of sleeping: every swap then really
        // races live serves, and the pacing cannot under- or overshoot
        // on a loaded runner. Bounded so wedged workers fail loudly.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        for swap in 0..SWAPS {
            let next = if swap % 2 == 0 { &gen_b } else { &gen_a };
            handle.store(next.clone());
            session.invalidate_cache();
            let target = serves.load(Ordering::Relaxed) + workers as u64;
            while serves.load(Ordering::Relaxed) < target {
                assert!(
                    std::time::Instant::now() < deadline,
                    "workers made no serving progress within 60 s of swap {swap}"
                );
                std::thread::yield_now();
            }
        }
        // ordering: Release — pairs with the workers' Acquire loop check.
        stop.store(true, Ordering::Release);
    });
    assert_eq!(handle.generation(), SWAPS);
    let invalidations = session.cache_metrics().invalidations - inv_before;
    assert_eq!(invalidations, SWAPS, "every swap invalidates the cache");
}

/// The background mode: a trainer thread runs `OnlineTrainer::run`
/// while serving continues; stopping it leaves a swapped-in, coherent
/// generation and correct results throughout.
#[test]
fn background_trainer_swaps_while_serving() {
    let (bundle, queries, max_rels) = job_fixture();
    let mut session = QuerySession::traditional(bundle.db, bundle.stats);
    let reference: Vec<_> = queries
        .iter()
        .map(|q| sorted_rows(&session.serve_graph(q).expect("reference serve")))
        .collect();
    let featurizer = Featurizer::new(max_rels);
    let mut trainer = OnlineTrainer::attach(
        &mut session,
        fresh_agent(&featurizer, 5),
        featurizer,
        true,
        OnlineConfig {
            swap_every: 4,
            drain_batch: 8,
            ..OnlineConfig::default()
        },
    );
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let session_ref = &session;
        let stop_ref = &stop;
        let gen_handle = Arc::clone(trainer.handle());
        let thread = scope.spawn(move || {
            trainer.run(session_ref, stop_ref, std::time::Duration::from_millis(1));
            trainer
        });
        // Keep serving until the trainer has demonstrably published a
        // generation (bounded so a wedged trainer fails loudly instead
        // of hanging) — on a loaded single-CPU runner a fixed round
        // count could finish before the trainer thread ever ran.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        loop {
            for (i, q) in queries.iter().enumerate() {
                let served = session.serve_graph(q).expect("serves under training");
                assert_eq!(sorted_rows(&served), reference[i]);
            }
            if gen_handle.generation() >= 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "background trainer published no generation within 60 s"
            );
        }
        // ordering: Release — pairs with the trainer's Acquire stop
        // check in `OnlineTrainer::run`.
        stop.store(true, Ordering::Release);
        let trainer = thread.join().expect("trainer thread");
        assert!(
            trainer.generation() >= 1,
            "background trainer must publish at least one generation"
        );
        assert!(trainer.metrics().trained >= 4);
    });
}
