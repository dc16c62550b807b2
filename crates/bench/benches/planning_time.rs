//! Criterion micro-version of Figure 3c: traditional planning vs ReJOIN
//! inference at several query sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hfqo_opt::TraditionalOptimizer;
use hfqo_rejoin::{EnvContext, PlanEnv, PolicyKind, QueryOrder, ReJoinAgent, RewardMode, StageSet};
use hfqo_rl::Environment as _;
use hfqo_workload::synth::SynthConfig;
use hfqo_workload::WorkloadBundle;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_planning(c: &mut Criterion) {
    let sizes = [4usize, 8, 12, 17];
    let bundle = WorkloadBundle::synthetic(
        SynthConfig {
            tables: 17,
            rows: 500,
            seed: 42,
        },
        &sizes,
        1,
    );
    let optimizer = TraditionalOptimizer::new(bundle.db.catalog(), &bundle.stats);
    let mut rng = StdRng::seed_from_u64(0);
    let ctx = EnvContext::new(&bundle.db, &bundle.stats);
    let mut env = PlanEnv::new(
        ctx,
        &bundle.queries,
        17,
        QueryOrder::Fixed(0),
        RewardMode::RelativeToExpert,
        StageSet::join_order_only(),
    );
    let agent = ReJoinAgent::new(
        env.state_dim(),
        env.action_dim(),
        PolicyKind::default_reinforce(),
        &mut rng,
    );

    let mut group = c.benchmark_group("planning_time");
    for (qi, &n) in sizes.iter().enumerate() {
        group.bench_with_input(BenchmarkId::new("expert", n), &qi, |b, &qi| {
            b.iter(|| optimizer.plan(&bundle.queries[qi]).expect("plannable").cost)
        });
        group.bench_with_input(BenchmarkId::new("rejoin", n), &qi, |b, &qi| {
            env.set_order(QueryOrder::Fixed(qi));
            let _ = agent.run_episode(&mut env, &mut rng, true); // warm caches
            b.iter(|| agent.run_episode(&mut env, &mut rng, true).len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_planning);
criterion_main!(benches);
