//! Serving-layer benchmarks: end-to-end `QuerySession` throughput with
//! the plan cache cold vs warm, and planner-vs-planner (traditional DP
//! vs learned) planning latency, on JOB-like and synthetic workloads.
//!
//! The cold/warm pair is the tentpole claim: with the cache warm, the
//! per-query planning cost collapses to a fingerprint lookup, so
//! serving latency drops to execution cost alone — with identical
//! results either way (asserted below before any timing runs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hfqo_catalog::ColumnId;
use hfqo_opt::{Planner, PlannerContext, TraditionalPlanner};
use hfqo_query::{template_fingerprint, BoundColumn, Lit, QueryGraph, RelId, Selection};
use hfqo_rejoin::{
    train_parallel, EnvContext, Featurizer, LearnedPlanner, PlanEnv, PolicyKind, QueryOrder,
    ReJoinAgent, RewardMode, StageSet, TrainerConfig,
};
use hfqo_rl::Environment as _;
use hfqo_serve::QuerySession;
use hfqo_sql::CompareOp;
use hfqo_workload::imdb::ImdbConfig;
use hfqo_workload::synth::{Shape, SynthConfig, SynthDb};
use hfqo_workload::WorkloadBundle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// DP-range queries (8–9 relations): planning is expensive, execution
/// on the small benchmark databases is not — the regime where a plan
/// cache pays. Queries whose expert plan exceeds the session's work
/// budget are skipped (a handful of synthetic shapes explode even at
/// 300-row tables).
fn serving_queries(
    bundle: &WorkloadBundle,
    session: &QuerySession,
    take: usize,
) -> Vec<QueryGraph> {
    let queries: Vec<QueryGraph> = bundle
        .queries
        .iter()
        .filter(|q| (8..=9).contains(&q.relation_count()))
        .filter(|q| session.serve_graph(q).is_ok())
        .take(take)
        .cloned()
        .collect();
    session.invalidate_cache();
    queries
}

/// Asserts cold and warm serving return identical rows and work, then
/// prints a one-shot qps summary (medians land in the criterion lines).
fn verify_and_report_qps(label: &str, session: &QuerySession, queries: &[QueryGraph]) {
    for q in queries {
        session.invalidate_cache();
        let cold = session.serve_graph(q).expect("cold serve");
        let warm = session.serve_graph(q).expect("warm serve");
        assert!(!cold.cache_hit && warm.cache_hit);
        let (mut a, mut b) = (cold.outcome.rows.clone(), warm.outcome.rows.clone());
        a.sort();
        b.sort();
        assert_eq!(a, b, "cache hit changed results");
        assert_eq!(cold.outcome.stats.work, warm.outcome.stats.work);
    }
    const ROUNDS: usize = 20;
    let cold_s = {
        let start = Instant::now();
        for _ in 0..ROUNDS {
            session.invalidate_cache();
            for q in queries {
                std::hint::black_box(session.serve_graph(q).expect("serves"));
            }
        }
        start.elapsed().as_secs_f64()
    };
    session.invalidate_cache();
    for q in queries {
        let _ = session.serve_graph(q).expect("warms");
    }
    let warm_s = {
        let start = Instant::now();
        for _ in 0..ROUNDS {
            for q in queries {
                std::hint::black_box(session.serve_graph(q).expect("serves"));
            }
        }
        start.elapsed().as_secs_f64()
    };
    let served = (ROUNDS * queries.len()) as f64;
    eprintln!(
        "serving/{label}: cache-cold {:.0} qps, cache-warm {:.0} qps ({:.1}x)",
        served / cold_s,
        served / warm_s,
        cold_s / warm_s
    );
}

fn bench_serving(c: &mut Criterion) {
    let job = WorkloadBundle::imdb_job(
        ImdbConfig {
            base_rows: 300,
            seed: 21,
        },
        21,
    );
    let synth = WorkloadBundle::synthetic(
        SynthConfig {
            tables: 9,
            rows: 300,
            seed: 22,
        },
        &[8, 9],
        2,
    );

    let mut group = c.benchmark_group("serving");
    for (label, bundle) in [("job", &job), ("synth", &synth)] {
        let session = QuerySession::traditional(bundle.db.clone(), bundle.stats.clone());
        let queries = serving_queries(bundle, &session, 4);
        assert!(
            !queries.is_empty(),
            "{label}: no servable 8-9 relation queries"
        );
        verify_and_report_qps(label, &session, &queries);
        group.bench_with_input(
            BenchmarkId::new("cache_cold", label),
            &queries,
            |b, queries| {
                b.iter(|| {
                    session.invalidate_cache();
                    for q in queries {
                        std::hint::black_box(session.serve_graph(q).expect("serves"));
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("cache_warm", label),
            &queries,
            |b, queries| {
                // Warm every fingerprint once, then time hit-path serves.
                for q in queries {
                    let _ = session.serve_graph(q).expect("warms");
                }
                b.iter(|| {
                    for q in queries {
                        std::hint::black_box(session.serve_graph(q).expect("serves"));
                    }
                })
            },
        );
    }
    group.finish();
}

/// Inverse-CDF zipf sampler over `1..=n` (the vendored `rand` shim has
/// no zipf distribution).
struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    fn sample(&self, rng: &mut StdRng) -> i64 {
        let u: f64 = rng.gen();
        (self.cdf.partition_point(|&c| c < u) + 1) as i64
    }
}

/// One parameterization of the single-template workload: an
/// 8-relation chain with an equality selection on the zipf-distributed
/// `s0.val` column — the structure is fixed, only the constant varies.
fn template_instance(base: &QueryGraph, value: i64) -> QueryGraph {
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

/// The templated-workload benchmark the cache fix targets: every query
/// is the same 8-relation template, parameterized by zipf-sampled
/// constants. Before the (template, params) split this workload got
/// zero cache sharing — every new constant was a cold fingerprint and a
/// full DP plan. Asserts >90% sharing (hits + intra-template re-plans)
/// and cold/warm result identity, then reports qps at 1/8/32/64 serving
/// threads.
fn bench_template_serving(c: &mut Criterion) {
    let synth = SynthDb::build(SynthConfig {
        tables: 8,
        rows: 300,
        seed: 31,
    });
    let base = synth.query(Shape::Chain, 8, 0, 0);
    let zipf = ZipfSampler::new(200, 1.0);
    let mut rng = StdRng::seed_from_u64(13);
    const SERVES: usize = 1024;
    let workload: Vec<QueryGraph> = (0..SERVES)
        .map(|_| template_instance(&base, zipf.sample(&mut rng)))
        .collect();
    let template = template_fingerprint(&workload[0]).0;
    assert!(
        workload
            .iter()
            .all(|q| template_fingerprint(q).0 == template),
        "the whole workload must be one template"
    );

    let session = QuerySession::traditional(synth.db, synth.stats);
    // Correctness before any timing: for a sample of distinct
    // constants, the cold (freshly planned) and warm (cache-served)
    // serves must return identical rows and work.
    for value in [1, 2, 3, 17, 60, 180] {
        let q = template_instance(&base, value);
        session.invalidate_cache();
        let cold = session.serve_graph(&q).expect("cold serve");
        let warm = session.serve_graph(&q).expect("warm serve");
        assert!(!cold.cache_hit && warm.cache_hit);
        let (mut a, mut b) = (cold.outcome.rows.clone(), warm.outcome.rows.clone());
        a.sort();
        b.sort();
        assert_eq!(a, b, "cache hit changed results for val = {value}");
        assert_eq!(cold.outcome.stats.work, warm.outcome.stats.work);
    }

    // The headline number: sharing rate over the zipf workload from a
    // cold cache. Every serve after the first either hits (exact or
    // band-matched) or re-plans within the template — misses stay O(1).
    session.invalidate_cache();
    let before = session.cache_metrics();
    for q in &workload {
        std::hint::black_box(session.serve_graph(q).expect("serves"));
    }
    let m = session.cache_metrics();
    let (hits, replans, misses) = (
        m.hits - before.hits,
        m.replans - before.replans,
        m.misses - before.misses,
    );
    let sharing = (hits + replans) as f64 / (hits + replans + misses) as f64;
    eprintln!(
        "serving/template_zipf: sharing {:.1}% (hits {hits}, replans {replans}, \
         misses {misses}; {} plan buckets)",
        sharing * 100.0,
        m.plans,
    );
    assert!(
        sharing > 0.9,
        "templated workload must share >90% of probes, got {:.3}",
        sharing
    );

    // Throughput scaling: N threads serve disjoint slices of the warm
    // workload against the one shared session.
    for threads in [1usize, 8, 32, 64] {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..threads {
                let session = &session;
                let workload = &workload;
                scope.spawn(move || {
                    for q in workload.iter().skip(t).step_by(threads) {
                        std::hint::black_box(session.serve_graph(q).expect("serves"));
                    }
                });
            }
        });
        let qps = SERVES as f64 / start.elapsed().as_secs_f64();
        eprintln!("serving/template_zipf: {threads:>2} threads, {qps:.0} qps");
    }

    let mut group = c.benchmark_group("serving_template");
    group.bench_with_input(
        BenchmarkId::new("zipf_warm", 1),
        &workload,
        |b, workload| {
            b.iter(|| {
                for q in workload.iter().take(64) {
                    std::hint::black_box(session.serve_graph(q).expect("serves"));
                }
            })
        },
    );
    group.finish();
}

fn bench_planners(c: &mut Criterion) {
    let bundle = WorkloadBundle::imdb_job(
        ImdbConfig {
            base_rows: 300,
            seed: 23,
        },
        23,
    );
    // A briefly-trained policy: planning *time* is independent of policy
    // quality, and the protocol measures a trained agent.
    let make_env = |_w: usize| {
        let ctx = EnvContext::new(&bundle.db, &bundle.stats);
        let mut env = PlanEnv::new(
            ctx,
            &bundle.queries,
            bundle.max_rels().max(2),
            QueryOrder::Shuffle,
            RewardMode::LogRelative,
            StageSet::join_order_only(),
        );
        env.require_connected = true;
        env
    };
    let mut rng = StdRng::seed_from_u64(7);
    let env = make_env(0);
    let mut agent = ReJoinAgent::new(
        env.state_dim(),
        env.action_dim(),
        PolicyKind::default_reinforce(),
        &mut rng,
    );
    drop(env);
    let _ = train_parallel(make_env, &mut agent, TrainerConfig::new(60), &mut rng);

    let expert = TraditionalPlanner::new();
    let learned = LearnedPlanner::freeze(&agent, Featurizer::new(bundle.max_rels().max(2)))
        .with_require_connected(true);
    let ctx = PlannerContext::new(bundle.db.catalog(), &bundle.stats);

    let mut group = c.benchmark_group("planner_latency");
    for n in [6usize, 9, 12, 17] {
        let Some(query) = bundle.queries.iter().find(|q| q.relation_count() == n) else {
            continue;
        };
        for (name, planner) in [
            ("traditional", &expert as &dyn Planner),
            ("learned", &learned as &dyn Planner),
        ] {
            group.bench_with_input(BenchmarkId::new(name, n), query, |b, query| {
                b.iter(|| planner.plan(&ctx, query).expect("plannable").cost)
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_template_serving,
    bench_serving,
    bench_planners
);
criterion_main!(benches);
