//! Episode-collection throughput: sequential vs parallel trainer.
//!
//! Trains on a synthetic hash-join workload with *executed* latency
//! rewards — every episode runs its plan through the batch engine, the
//! expensive-episode regime parallel collection exists for — and
//! reports episodes/sec at 1, 2, 4, and 8 workers. On a single-core
//! host the round-barrier overhead makes the multi-worker
//! configurations a measured cost, not a speedup; the scaling claim
//! needs cores.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hfqo_exec::ExecConfig;
use hfqo_rejoin::{
    EnvContext, ParallelTrainer, PlanEnv, PolicyKind, QueryOrder, ReJoinAgent, RewardMode,
    StageSet, TrainerConfig,
};
use hfqo_rl::{Environment, ReinforceConfig, UpdatePath};
use hfqo_workload::synth::{Shape, SynthConfig, SynthDb};
use rand::rngs::StdRng;
use rand::SeedableRng;

const EPISODES: usize = 48;

fn bench_episode_collection(c: &mut Criterion) {
    let db = SynthDb::build(SynthConfig {
        tables: 6,
        rows: 1_500,
        seed: 5,
    });
    let queries = vec![
        db.query(Shape::Chain, 5, 2, 0).with_label("chain5"),
        db.query(Shape::Star, 5, 1, 1).with_label("star5"),
        db.query(Shape::Chain, 4, 2, 2).with_label("chain4"),
        db.query(Shape::Cycle, 5, 0, 3).with_label("cycle5"),
    ];
    let make_env = |_w: usize| {
        let ctx = EnvContext::new(&db.db, &db.stats)
            .with_executed_latency(ExecConfig::with_budget(2_000_000));
        let mut env = PlanEnv::new(
            ctx,
            &queries,
            5,
            QueryOrder::Cycle,
            RewardMode::InverseLatency,
            StageSet::join_order_only(),
        );
        env.require_connected = true;
        env
    };

    // Each iteration collects EPISODES episodes: episodes/sec =
    // EPISODES / iteration time.
    let mut group = c.benchmark_group("episode_collection");
    group.sample_size(10);
    for workers in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("synth_hash_join_48ep", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(11);
                    let env = make_env(0);
                    let mut agent = ReJoinAgent::new(
                        env.state_dim(),
                        env.action_dim(),
                        PolicyKind::Reinforce(ReinforceConfig {
                            hidden: vec![64, 64],
                            batch_episodes: 8,
                            ..Default::default()
                        }),
                        &mut rng,
                    );
                    let trainer =
                        ParallelTrainer::new(TrainerConfig::new(EPISODES).with_workers(workers));
                    let log = trainer.train(make_env, &mut agent, &mut rng);
                    assert_eq!(log.len(), EPISODES);
                    log.len()
                })
            },
        );
    }
    group.finish();
}

/// End-to-end episodes/sec of the sequential trainer with the batched
/// vs per-row network-update path. The two paths are bit-identical in
/// results (parity tests in `hfqo_rl` and the golden log), so the
/// delta here is the wall-clock the mini-batched NN path buys on the
/// full training loop — episode rollout cost included.
fn bench_update_path(c: &mut Criterion) {
    let db = SynthDb::build(SynthConfig {
        tables: 6,
        rows: 1_500,
        seed: 5,
    });
    let queries = vec![
        db.query(Shape::Chain, 5, 2, 0).with_label("chain5"),
        db.query(Shape::Star, 5, 1, 1).with_label("star5"),
        db.query(Shape::Chain, 4, 2, 2).with_label("chain4"),
        db.query(Shape::Cycle, 5, 0, 3).with_label("cycle5"),
    ];
    let mut group = c.benchmark_group("update_path");
    group.sample_size(10);
    for (label, path) in [
        ("batched", UpdatePath::Batched),
        ("per_row", UpdatePath::PerRow),
    ] {
        group.bench_with_input(
            BenchmarkId::new("synth_48ep_eps_per_sec", label),
            &path,
            |b, &path| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(11);
                    let ctx = EnvContext::new(&db.db, &db.stats);
                    let mut env = PlanEnv::new(
                        ctx,
                        &queries,
                        5,
                        QueryOrder::Cycle,
                        RewardMode::LogRelative,
                        StageSet::join_order_only(),
                    );
                    env.require_connected = true;
                    let mut agent = ReJoinAgent::new(
                        env.state_dim(),
                        env.action_dim(),
                        PolicyKind::Reinforce(ReinforceConfig {
                            hidden: vec![128, 128],
                            batch_episodes: 8,
                            ..Default::default()
                        }),
                        &mut rng,
                    );
                    agent.set_update_path(path);
                    let config = TrainerConfig::new(EPISODES);
                    let log = hfqo_rejoin::train(&mut env, &mut agent, config, &mut rng);
                    assert_eq!(log.len(), EPISODES);
                    log.len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_episode_collection, bench_update_path);
criterion_main!(benches);
