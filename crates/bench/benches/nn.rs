//! Per-update wall-clock of the NN training path: batched vs per-row.
//!
//! One REINFORCE policy update over B transitions at ReJOIN scale
//! (612 → 128 → 128 → 289 with masked logits), for B ∈ {1, 8, 32,
//! 128}. The batched path assembles the update's transitions into one
//! B×612 matrix and runs a single forward + single backward; the
//! per-row reference runs one forward/backward per transition and
//! accumulates. The two are bit-identical (see the parity tests in
//! `hfqo_rl`), so the delta here is pure wall-clock. An imitation
//! (cross-entropy) group covers the supervised path the same way.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hfqo_rl::{Episode, ReinforceAgent, ReinforceConfig, Transition, UpdatePath};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const STATE_DIM: usize = 612;
const ACTION_DIM: usize = 289;
const BATCH_SIZES: [usize; 4] = [1, 8, 32, 128];

/// A deterministic synthetic episode with `b` transitions at ReJOIN
/// feature/action widths, with a realistically sparse action mask.
fn synthetic_episode(b: usize, rng: &mut StdRng) -> Episode {
    let mut episode = Episode::new();
    for _ in 0..b {
        let features: Vec<f32> = (0..STATE_DIM).map(|_| rng.gen::<f32>() - 0.5).collect();
        let mask: Vec<bool> = (0..ACTION_DIM).map(|i| i % 3 != 1).collect();
        let action = 3 * (rng.gen_range(0..ACTION_DIM / 3));
        episode.transitions.push(Transition {
            features,
            mask,
            action,
            reward: rng.gen::<f32>(),
        });
    }
    episode
}

fn agent_for(path: UpdatePath, rng: &mut StdRng) -> ReinforceAgent {
    let mut agent = ReinforceAgent::new(
        STATE_DIM,
        ACTION_DIM,
        ReinforceConfig {
            hidden: vec![128, 128],
            // One episode per update: iteration time == per-update time.
            batch_episodes: 1,
            ..Default::default()
        },
        rng,
    );
    agent.set_update_path(path);
    agent
}

fn bench_policy_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("nn_policy_update");
    group.sample_size(20);
    for b in BATCH_SIZES {
        let mut rng = StdRng::seed_from_u64(7);
        let episode = synthetic_episode(b, &mut rng);
        for (label, path) in [
            ("batched", UpdatePath::Batched),
            ("per_row", UpdatePath::PerRow),
        ] {
            let mut agent = agent_for(path, &mut rng);
            group.bench_with_input(
                BenchmarkId::new(format!("reinforce_{label}"), b),
                &b,
                |bench, _| {
                    bench.iter(|| {
                        agent.observe(episode.clone());
                        agent.updates()
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_imitation_update(c: &mut Criterion) {
    let mut group = c.benchmark_group("nn_imitation_update");
    group.sample_size(20);
    for b in BATCH_SIZES {
        let mut rng = StdRng::seed_from_u64(11);
        let batch: Vec<(Vec<f32>, Vec<bool>, usize)> = synthetic_episode(b, &mut rng)
            .transitions
            .into_iter()
            .map(|t| (t.features, t.mask, t.action))
            .collect();
        for (label, path) in [
            ("batched", UpdatePath::Batched),
            ("per_row", UpdatePath::PerRow),
        ] {
            let mut agent = agent_for(path, &mut rng);
            group.bench_with_input(
                BenchmarkId::new(format!("imitate_{label}"), b),
                &b,
                |bench, _| bench.iter(|| agent.imitate_step(&batch)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_policy_update, bench_imitation_update);
criterion_main!(benches);
