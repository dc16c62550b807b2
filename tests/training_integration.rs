//! Cross-crate integration of the learning stack: environments, agents,
//! and the three §5 methods driven through the public facade API.

use hfqo::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_workload() -> (WorkloadBundle, Vec<QueryGraph>) {
    let bundle = WorkloadBundle::imdb_job(
        ImdbConfig {
            base_rows: 300,
            seed: 31,
        },
        17,
    );
    let queries: Vec<QueryGraph> = bundle
        .queries
        .iter()
        .filter(|q| q.relation_count() <= 5)
        .take(6)
        .cloned()
        .collect();
    assert!(!queries.is_empty());
    (bundle, queries)
}

/// The join-ordering environment — ReJOIN's scope — over `queries`.
fn join_env<'a>(
    bundle: &'a WorkloadBundle,
    queries: &'a [QueryGraph],
    order: QueryOrder,
    mode: RewardMode,
) -> PlanEnv<'a> {
    let ctx = EnvContext::new(&bundle.db, &bundle.stats);
    PlanEnv::new(ctx, queries, 5, order, mode, StageSet::join_order_only())
}

#[test]
fn rejoin_training_beats_its_own_start() {
    let (bundle, queries) = small_workload();
    let mut env = join_env(
        &bundle,
        &queries,
        QueryOrder::Shuffle,
        RewardMode::LogRelative,
    );
    let mut rng = StdRng::seed_from_u64(2);
    let mut agent = ReinforceAgent::new(
        env.state_dim(),
        env.action_dim(),
        ReinforceConfig::default(),
        &mut rng,
    );
    let log = train(&mut env, &mut agent, 500, &mut rng);
    let start = log.initial_geo_ratio(60).expect("non-empty");
    let end = log.final_geo_ratio(60).expect("non-empty");
    assert!(
        end < start,
        "training did not improve: {start:.2} → {end:.2}"
    );
    // Small queries: the trained agent should be near the expert.
    assert!(end < 3.0, "final ratio {end:.2} too high");
}

#[test]
fn figure2_replay_through_public_api() {
    let (bundle, queries) = small_workload();
    let four_rel: Vec<QueryGraph> = queries
        .iter()
        .filter(|q| q.relation_count() == 4)
        .cloned()
        .collect();
    if four_rel.is_empty() {
        return; // suite seed produced no 4-relation query under 6 taken
    }
    let ctx = EnvContext::new(&bundle.db, &bundle.stats);
    let mut env = PlanEnv::new(
        ctx,
        &four_rel,
        4,
        QueryOrder::Fixed(0),
        RewardMode::InverseCost,
        StageSet::join_order_only(),
    );
    let featurizer = env.featurizer();
    let mut rng = StdRng::seed_from_u64(0);
    env.reset(&mut rng);
    // The paper's Figure 2: actions [1,3], [2,3], [1,2] (1-based).
    env.step(featurizer.encode_pair(0, 2), &mut rng);
    env.step(featurizer.encode_pair(0, 1), &mut rng);
    let last = env.step(featurizer.encode_pair(0, 1), &mut rng);
    assert!(last.done);
    assert!(last.reward > 0.0, "terminal reward is 1/M(t) > 0");
    let outcome = env.last_outcome().expect("finished");
    assert_eq!(
        outcome.plan.root.join_tree().compact(),
        "((0 ⋈ 2) ⋈ (1 ⋈ 3))"
    );
}

#[test]
fn demonstration_learning_through_facade() {
    let (bundle, queries) = small_workload();
    let mut env = join_env(
        &bundle,
        &queries,
        QueryOrder::Cycle,
        RewardMode::InverseLatency,
    );
    let mut rng = StdRng::seed_from_u64(4);
    let config = DemonstrationConfig {
        pretrain_steps: 120,
        finetune_episodes: 40,
        ..Default::default()
    };
    let outcome = learn_from_demonstration(&mut env, &config, &mut rng);
    assert_eq!(outcome.log.len(), 40);
    assert_eq!(outcome.expert_latency_ms.len(), queries.len());
    let first = outcome.pretrain_losses.first().copied().expect("non-empty");
    let last = outcome.pretrain_losses.last().copied().expect("non-empty");
    assert!(last < first, "pretraining did not reduce loss");
}

#[test]
fn bootstrap_through_facade() {
    let (bundle, queries) = small_workload();
    let mut env = join_env(&bundle, &queries, QueryOrder::Cycle, RewardMode::NegLogCost);
    let mut rng = StdRng::seed_from_u64(5);
    let mut agent = ReinforceAgent::new(
        env.state_dim(),
        env.action_dim(),
        ReinforceConfig::default(),
        &mut rng,
    );
    let config = BootstrapConfig {
        phase1_episodes: 80,
        observe_episodes: 30,
        phase2_episodes: 40,
        scale_rewards: true,
    };
    let outcome = cost_bootstrap(&mut env, &mut agent, &config, &mut rng);
    assert_eq!(outcome.log.len(), 120);
    assert!(outcome.scaler.is_ready());
    let (l_min, l_max) = outcome.scaler.latency_range();
    assert!(l_min > 0.0 && l_max >= l_min);
}

#[test]
fn full_plan_env_trains_and_evaluates() {
    let (bundle, queries) = small_workload();
    let ctx = EnvContext::new(&bundle.db, &bundle.stats);
    let mut env = PlanEnv::new(
        ctx,
        &queries,
        5,
        QueryOrder::Shuffle,
        RewardMode::LogRelative,
        StageSet::full(),
    );
    let mut rng = StdRng::seed_from_u64(6);
    let mut agent = ReinforceAgent::new(
        env.state_dim(),
        env.action_dim(),
        ReinforceConfig::default(),
        &mut rng,
    );
    let log = train(&mut env, &mut agent, 120, &mut rng);
    assert_eq!(log.len(), 120);
    let records = evaluate_per_query(&mut env, &agent, QueryOrder::Shuffle, &mut rng);
    assert_eq!(records.len(), queries.len());
    for r in &records {
        assert!(r.agent_cost > 0.0 && r.expert_cost > 0.0);
    }
}

/// Worker counts to exercise in the determinism tests: the
/// `HFQO_WORKERS` environment variable (a count or comma-separated
/// counts — CI runs the suite at 1, 2, and 4), defaulting to `[1, 2]`.
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
        Err(_) => vec![1, 2],
    }
}

/// Runs the parallel trainer end to end at a given worker count.
fn parallel_run(
    bundle: &WorkloadBundle,
    queries: &[QueryGraph],
    workers: usize,
    seed: u64,
    episodes: usize,
) -> TrainingLog {
    let make_env =
        |_w: usize| join_env(bundle, queries, QueryOrder::Cycle, RewardMode::LogRelative);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut agent = {
        let env = make_env(0);
        ReinforceAgent::new(
            env.state_dim(),
            env.action_dim(),
            ReinforceConfig::default(),
            &mut rng,
        )
    };
    let config = TrainerConfig::new(episodes).with_workers(workers);
    train_parallel(make_env, &mut agent, config, &mut rng)
}

/// The determinism-parity contract, part 1: `workers = 1` is the exact
/// legacy sequential loop — same seed, bit-identical `TrainingLog` to
/// calling `train()` directly.
#[test]
fn parallel_workers1_is_bit_identical_to_sequential_train() {
    let (bundle, queries) = small_workload();
    let seed = 21;
    let episodes = 40;

    let sequential = {
        let mut env = join_env(
            &bundle,
            &queries,
            QueryOrder::Cycle,
            RewardMode::LogRelative,
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut agent = ReinforceAgent::new(
            env.state_dim(),
            env.action_dim(),
            ReinforceConfig::default(),
            &mut rng,
        );
        train(&mut env, &mut agent, episodes, &mut rng)
    };
    let parallel = parallel_run(&bundle, &queries, 1, seed, episodes);
    assert_eq!(
        sequential, parallel,
        "workers=1 must replay the sequential trainer bit for bit"
    );
}

/// The determinism-parity contract, part 2: at any worker count, the
/// per-worker seeded streams make the run a pure function of the seed —
/// same seed ⇒ same log, bit for bit. Exercised at every count in
/// `HFQO_WORKERS` (CI runs 1, 2, and 4).
#[test]
fn parallel_same_seed_reproduces_at_all_worker_counts() {
    let (bundle, queries) = small_workload();
    for workers in worker_counts() {
        let a = parallel_run(&bundle, &queries, workers, 33, 24);
        let b = parallel_run(&bundle, &queries, workers, 33, 24);
        assert_eq!(a, b, "workers={workers}: same seed must reproduce");
        assert_eq!(a.len(), 24);
        // Episode order and the global Cycle walk survive parallel
        // collection.
        for (i, r) in a.records.iter().enumerate() {
            assert_eq!(r.episode, i);
            assert_eq!(r.query_idx, i % queries.len());
        }
        // A different seed must change the run (the log carries
        // per-episode costs; 24 identical episodes would mean the seed
        // is ignored).
        let c = parallel_run(&bundle, &queries, workers, 34, 24);
        assert_ne!(a, c, "workers={workers}: seed must matter");
    }
}

/// Golden-log regression: a fixed-seed 50-episode run on the synth
/// workload must keep producing exactly the `(query_idx, agent_cost,
/// reward)` tuples recorded in `tests/golden/training_log_seed7.txt`.
/// Any RL-stack refactor that shifts an RNG draw, a feature, or a cost
/// shows up here as a diff. Regenerate deliberately with
/// `HFQO_BLESS=1 cargo test --test training_integration golden`.
#[test]
fn golden_log_fixed_seed_synth_run() {
    use hfqo::workload::synth::{Shape, SynthConfig, SynthDb};

    let synth = SynthDb::build(SynthConfig {
        tables: 6,
        rows: 200,
        seed: 17,
    });
    let queries = vec![
        synth.query(Shape::Chain, 4, 2, 0).with_label("chain4"),
        synth.query(Shape::Star, 4, 1, 1).with_label("star4"),
        synth.query(Shape::Chain, 3, 2, 2).with_label("chain3"),
        synth.query(Shape::Cycle, 4, 0, 3).with_label("cycle4"),
    ];
    let ctx = EnvContext::new(&synth.db, &synth.stats);
    let mut env = PlanEnv::new(
        ctx,
        &queries,
        4,
        QueryOrder::Cycle,
        RewardMode::LogRelative,
        StageSet::join_order_only(),
    );
    let mut rng = StdRng::seed_from_u64(7);
    let mut agent = ReinforceAgent::new(
        env.state_dim(),
        env.action_dim(),
        ReinforceConfig::default(),
        &mut rng,
    );
    let log = train(&mut env, &mut agent, 50, &mut rng);
    let actual: String = log
        .records
        .iter()
        .map(|r| format!("{} {:?} {:?}\n", r.query_idx, r.agent_cost, r.reward))
        .collect();

    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/training_log_seed7.txt"
    );
    if std::env::var("HFQO_BLESS").is_ok() {
        std::fs::write(golden_path, &actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(golden_path)
        .expect("golden file present (regenerate with HFQO_BLESS=1)");
    assert_eq!(
        expected, actual,
        "fixed-seed training log drifted from {golden_path}; if the \
         change is intentional, regenerate with HFQO_BLESS=1"
    );
}

/// The mini-batch tentpole's end-to-end statement: training with the
/// batched update path (the default) and with the retained per-row
/// reference path produces the **same log, bit for bit** — every
/// forward, gradient, and optimizer step agrees, so every subsequent
/// rollout consumes the RNG stream identically.
#[test]
fn per_row_update_path_reproduces_batched_training_bitwise() {
    use hfqo_rejoin::rl::UpdatePath;

    let (bundle, queries) = small_workload();
    let run = |path: UpdatePath| {
        let mut env = join_env(
            &bundle,
            &queries,
            QueryOrder::Cycle,
            RewardMode::LogRelative,
        );
        let mut rng = StdRng::seed_from_u64(19);
        let mut agent = ReinforceAgent::new(
            env.state_dim(),
            env.action_dim(),
            ReinforceConfig::default(),
            &mut rng,
        );
        agent.set_update_path(path);
        train(&mut env, &mut agent, 48, &mut rng)
    };
    let batched = run(UpdatePath::Batched);
    let per_row = run(UpdatePath::PerRow);
    assert_eq!(
        batched, per_row,
        "batched and per-row training logs must be bit-identical"
    );
}
