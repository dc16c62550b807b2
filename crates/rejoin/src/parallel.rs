//! Parallel episode collection — the multi-worker training harness.
//!
//! Latency-grounded rewards make each episode expensive, which is the
//! paper's central obstacle to hands-free training (§5). Balsa and Neo
//! attack the same wall by collecting experience on many agents at
//! once; this module does the equivalent for our trainer: `N` worker
//! threads each own an environment clone over the *shared, read-only*
//! `Database`/`Catalog`/statistics, roll out episodes with a frozen
//! [`PolicySnapshot`] of the current policy, and stream
//! `(Episode, EpisodeOutcome)` pairs over a channel to the learner
//! thread, which applies policy updates synchronously (A2C-style
//! rounds) through the existing [`ReinforceAgent`].
//!
//! # Determinism contract
//!
//! * `workers = 1` runs the exact legacy sequential loop
//!   ([`crate::trainer::train`]) on the caller's RNG — the resulting
//!   [`TrainingLog`] is bit-identical to calling `train` directly.
//! * `workers = N > 1` derives one seeded RNG stream per worker from
//!   the caller's RNG and assigns episode `i` to worker `i % N`. Each
//!   round collects exactly one episode per worker against the
//!   round-start snapshot; the learner buffers the round and applies
//!   observations in episode order, so thread scheduling cannot change
//!   the result: the same seed and the same worker count reproduce the
//!   same log, bit for bit. Different worker counts are *different
//!   (equally valid) runs* — the episode-to-stream assignment changes.
//! * Under [`QueryOrder::Cycle`] the workers emulate the global
//!   round-robin walk (episode `i` trains on query `i % len`), so the
//!   query schedule matches the sequential trainer at any worker
//!   count. `Shuffle` draws from each worker's own stream; `Fixed`
//!   behaves as in the sequential loop.

use crate::env::{EpisodeOutcome, PlanEnv, QueryOrder};
use crate::metrics::TrainingLog;
use crate::rl::{Episode, PolicySnapshot, ReinforceAgent};
use crate::trainer::{record_from, train, TrainerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc;
use std::sync::Arc;

/// One episode assignment handed to a worker: the query to train on,
/// when the learner drives the schedule (`Cycle` emulation); `None`
/// leaves the env's own order in charge. (The learner tracks global
/// episode indices itself — results come back on per-worker channels,
/// so they cannot be misattributed.)
struct EpisodeSpec {
    fixed_query: Option<usize>,
}

/// A round's worth of work for one worker: one episode with a frozen
/// policy.
struct Command {
    /// Frozen policy to act with.
    snapshot: Arc<PolicySnapshot>,
    /// The episode to collect this round.
    spec: EpisodeSpec,
}

/// A collected episode travelling back to the learner.
struct Collected {
    episode: Episode,
    outcome: EpisodeOutcome,
}

/// Trains `agent` for `config.episodes` episodes, collecting on
/// `config.workers` threads. See the module docs for the determinism
/// contract.
///
/// `make_env(w)` builds worker `w`'s environment over the shared
/// read-only world; every call must produce an environment over the
/// same workload and reward configuration (clone the `EnvContext`,
/// share the `Database`/stats borrows):
///
/// ```
/// use hfqo_opt::test_support::{chain_query, TestDb};
/// use hfqo_rejoin::rl::{ReinforceAgent, ReinforceConfig};
/// use hfqo_rejoin::{
///     train_parallel, EnvContext, Featurizer, PlanEnv, QueryOrder, RewardMode, StageSet,
///     TrainerConfig,
/// };
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let fixture = TestDb::chain(3, 150);
/// let queries = vec![chain_query(&fixture, 3)];
/// let make_env = |_worker: usize| {
///     let ctx = EnvContext::new(&fixture.db, &fixture.stats);
///     PlanEnv::new(
///         ctx,
///         &queries,
///         3,
///         QueryOrder::Cycle,
///         RewardMode::LogRelative,
///         StageSet::join_order_only(),
///     )
/// };
/// let featurizer = Featurizer::new(3);
/// let mut rng = StdRng::seed_from_u64(7);
/// let mut agent = ReinforceAgent::new(
///     featurizer.state_dim(),
///     featurizer.action_dim(),
///     ReinforceConfig::default(),
///     &mut rng,
/// );
/// let config = TrainerConfig::new(8).with_workers(2);
/// let log = train_parallel(make_env, &mut agent, config, &mut rng);
/// assert_eq!(log.len(), 8);
/// ```
pub fn train_parallel<'a, F>(
    mut make_env: F,
    agent: &mut ReinforceAgent,
    config: TrainerConfig,
    rng: &mut StdRng,
) -> TrainingLog
where
    F: FnMut(usize) -> PlanEnv<'a>,
{
    if config.workers <= 1 {
        // Exact legacy behavior: same env, same RNG stream, same loop.
        let mut env = make_env(0);
        return train(&mut env, agent, config.episodes, rng);
    }
    let workers = config.workers.min(config.episodes.max(1));
    // Per-worker seeded streams, derived from the caller's RNG so the
    // whole run is a function of the original seed.
    let worker_seeds: Vec<u64> = (0..workers).map(|_| rng.gen()).collect();
    let mut envs: Vec<PlanEnv<'a>> = (0..workers).map(&mut make_env).collect();
    let order = envs[0].order();
    let workload_len = envs[0].queries().len();
    let cycle = matches!(order, QueryOrder::Cycle);

    let mut log = TrainingLog::new();
    std::thread::scope(|scope| {
        // One result channel *per worker*: a worker that dies (panics)
        // drops its own sender, so the learner's recv turns into an
        // immediate error instead of a permanent hang — the panic then
        // propagates when the scope joins.
        let mut cmd_txs: Vec<mpsc::Sender<Command>> = Vec::with_capacity(workers);
        let mut result_rxs: Vec<mpsc::Receiver<Collected>> = Vec::with_capacity(workers);
        for (w, mut env) in envs.drain(..).enumerate() {
            let (cmd_tx, cmd_rx) = mpsc::channel::<Command>();
            let (result_tx, result_rx) = mpsc::channel::<Collected>();
            cmd_txs.push(cmd_tx);
            result_rxs.push(result_rx);
            let seed = worker_seeds[w];
            scope.spawn(move || {
                let mut wrng = StdRng::seed_from_u64(seed);
                while let Ok(Command { snapshot, spec }) = cmd_rx.recv() {
                    if let Some(q) = spec.fixed_query {
                        env.set_order(QueryOrder::Fixed(q));
                    }
                    let episode = snapshot.run_episode(&mut env, &mut wrng, false);
                    let outcome = env.last_outcome().cloned().expect("episode just finished");
                    // The learner hanging up mid-run only happens on
                    // its panic; don't double-panic from the worker.
                    if result_tx.send(Collected { episode, outcome }).is_err() {
                        return;
                    }
                }
            });
        }

        let mut next = 0usize;
        while next < config.episodes {
            let round_end = (next + workers).min(config.episodes);
            let snapshot = Arc::new(agent.snapshot());
            for index in next..round_end {
                let spec = EpisodeSpec {
                    fixed_query: cycle.then(|| index % workload_len),
                };
                cmd_txs[index - next]
                    .send(Command {
                        snapshot: Arc::clone(&snapshot),
                        spec,
                    })
                    .expect("worker thread alive");
            }
            // Barrier: wait for the whole round, receiving in worker
            // (= episode) order so thread scheduling cannot reorder
            // learning.
            for index in next..round_end {
                let c = result_rxs[index - next].recv().unwrap_or_else(|_| {
                    panic!("worker {} died collecting episode {index}", index - next)
                });
                log.push(record_from(&c.outcome, index));
                agent.observe(c.episode);
            }
            next = round_end;
        }
        drop(cmd_txs); // hang up: workers exit their recv loop
    });
    agent.update();
    log
}

// Worker environments cross thread boundaries; these hold structurally
// because the world they borrow is read-only (`Database`, `Catalog`,
// `StatsCatalog` are `Sync`) and everything else is owned. The
// assertions break the build if interior mutability ever sneaks into
// the shared state.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<PlanEnv<'static>>();
    assert_sync::<hfqo_storage::Database>();
    assert_sync::<hfqo_stats::StatsCatalog>();
    assert_send::<EpisodeOutcome>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvContext;
    use crate::incremental::StageSet;
    use crate::reward::RewardMode;
    use crate::rl::{Environment, ReinforceConfig};
    use hfqo_opt::test_support::{chain_query, TestDb};
    use hfqo_query::QueryGraph;

    fn fixtures() -> (TestDb, Vec<QueryGraph>) {
        let db = TestDb::chain(4, 300);
        let queries = vec![
            chain_query(&db, 4).with_label("a"),
            chain_query(&db, 3).with_label("b"),
        ];
        (db, queries)
    }

    fn small_agent(env: &PlanEnv<'_>, rng: &mut StdRng) -> ReinforceAgent {
        ReinforceAgent::new(
            env.state_dim(),
            env.action_dim(),
            ReinforceConfig {
                hidden: vec![16],
                batch_episodes: 4,
                ..Default::default()
            },
            rng,
        )
    }

    fn run(workers: usize, seed: u64, episodes: usize) -> TrainingLog {
        let (db, queries) = fixtures();
        let make_env = |_w: usize| {
            let ctx = EnvContext::new(&db.db, &db.stats);
            PlanEnv::new(
                ctx,
                &queries,
                5,
                QueryOrder::Cycle,
                RewardMode::LogRelative,
                StageSet::join_order_only(),
            )
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut agent = small_agent(&make_env(0), &mut rng);
        let config = TrainerConfig::new(episodes).with_workers(workers);
        train_parallel(make_env, &mut agent, config, &mut rng)
    }

    #[test]
    fn parallel_covers_all_episodes_in_order() {
        let log = run(3, 9, 10);
        assert_eq!(log.len(), 10);
        for (i, r) in log.records.iter().enumerate() {
            assert_eq!(r.episode, i);
            // Cycle emulation: episode i trains on query i % 2.
            assert_eq!(r.query_idx, i % 2);
            assert!(r.agent_cost > 0.0);
        }
    }

    #[test]
    fn same_seed_same_workers_reproduces() {
        let a = run(3, 11, 12);
        let b = run(3, 11, 12);
        assert_eq!(a, b);
    }

    #[test]
    fn workers_capped_by_episode_count() {
        // 8 workers, 3 episodes: must not deadlock waiting on idle
        // workers.
        let log = run(8, 13, 3);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn agent_sees_every_episode() {
        let (db, queries) = fixtures();
        let make_env = |_w: usize| {
            let ctx = EnvContext::new(&db.db, &db.stats);
            PlanEnv::new(
                ctx,
                &queries,
                5,
                QueryOrder::Cycle,
                RewardMode::LogRelative,
                StageSet::join_order_only(),
            )
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut agent = small_agent(&make_env(0), &mut rng);
        let config = TrainerConfig::new(20).with_workers(4);
        let log = train_parallel(make_env, &mut agent, config, &mut rng);
        assert_eq!(log.len(), 20);
        assert_eq!(agent.episodes_seen(), 20);
    }
}
