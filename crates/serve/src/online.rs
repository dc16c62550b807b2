//! The online trainer: closing the paper's hands-free loop inside the
//! serving layer.
//!
//! The loop the paper is named for — execute, observe the latency,
//! learn, plan better — runs here as four moving parts:
//!
//! ```text
//!   serving threads                         trainer (one thread)
//!   ──────────────────                      ─────────────────────
//!   serve → execute ──record──▶ ExperienceLog ──drain──▶ replay to
//!     ▲                         (bounded ring)           Episodes
//!     │                                                    │ observe
//!     │ plan via                                           ▼
//!   HotSwapPlanner ◀──────store generation────── freeze PolicySnapshot
//!     (PlannerHandle)      + invalidate plan cache   every `swap_every`
//! ```
//!
//! Rewards are [`RewardMode::NegLogLatency`] of the executor's **work
//! counter** (converted to milliseconds by `ms_per_unit`, exactly as the
//! training environments' executed-latency path does), not wall-clock —
//! so a fixed-seed, single-threaded run of serve →
//! [`OnlineTrainer::step`] → serve is reproducible bit for bit. With no trainer attached (or an attached
//! trainer never stepped), serving is byte-identical to the frozen
//! `PolicySnapshot` path: recording is the only side effect and it
//! never influences planning or execution.
//!
//! The trainer can run synchronously (call [`step`](OnlineTrainer::step)
//! between serving bursts — the deterministic driver) or in the
//! background ([`run`](OnlineTrainer::run) on a scoped thread, stopping
//! on an [`AtomicBool`]). Either way, a policy swap publishes a
//! complete frozen generation through the [`PlannerHandle`] and
//! invalidates the session's plan cache, exactly as
//! [`QuerySession::set_planner`] does for explicit strategy swaps.

use crate::experience::{ExperienceLog, EXPERIENCE_CAPACITY};
use crate::session::QuerySession;
use crate::swap::{HotSwapPlanner, PlannerHandle};
use hfqo_rejoin::rl::ReinforceAgent;
use hfqo_rejoin::{
    episode_from_decisions, Featurizer, LearnedPlanner, RewardMode, MS_PER_WORK_UNIT,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Online-learning knobs. The experience ring holds 1024 entries,
/// oldest dropped beyond it.
#[derive(Debug, Clone)]
pub struct OnlineConfig {
    /// Maximum experiences consumed per [`OnlineTrainer::step`]
    /// (minimum 1).
    pub drain_batch: usize,
    /// Replayed episodes between policy-snapshot swaps (minimum 1).
    pub swap_every: usize,
    /// Work-units → milliseconds conversion for the reward (defaults to
    /// [`MS_PER_WORK_UNIT`], the constant the training environments'
    /// executed-latency path uses).
    pub ms_per_unit: f64,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            drain_batch: 32,
            swap_every: 16,
            ms_per_unit: MS_PER_WORK_UNIT,
        }
    }
}

/// What one [`OnlineTrainer::step`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnlineStep {
    /// Experiences drained from the log.
    pub(crate) drained: usize,
    /// Experiences replayed into episodes and observed by the agent.
    pub trained: usize,
    /// Experiences that could not be replayed (single-relation queries,
    /// oversized queries, mask-rejected decisions).
    pub skipped: usize,
    /// Policy generations this step published (a step draining more
    /// than `swap_every` episodes can publish several).
    pub swaps: usize,
}

impl OnlineStep {
    /// Whether this step published at least one policy generation.
    pub fn swapped(&self) -> bool {
        self.swaps > 0
    }
}

/// Lifetime counters for an [`OnlineTrainer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OnlineMetrics {
    /// Experiences drained across all steps.
    pub(crate) drained: u64,
    /// Episodes trained on.
    pub trained: u64,
    /// Experiences skipped as un-replayable.
    pub skipped: u64,
    /// Policy generations published.
    pub swaps: u64,
}

/// The background learner of the online serving loop. See the
/// [module docs](self).
pub struct OnlineTrainer {
    agent: ReinforceAgent,
    handle: Arc<PlannerHandle>,
    log: Arc<ExperienceLog>,
    config: OnlineConfig,
    since_swap: usize,
    metrics: OnlineMetrics,
}

impl OnlineTrainer {
    /// Wires a session for online learning and returns its trainer:
    /// generation 0 is the agent's current policy frozen with
    /// `featurizer` (connected-only masking per `require_connected` —
    /// must match how the agent trains), the session plans through a
    /// [`HotSwapPlanner`] over a fresh [`PlannerHandle`], and every
    /// executed query is recorded into a fresh [`ExperienceLog`].
    pub fn attach(
        session: &mut QuerySession,
        agent: ReinforceAgent,
        featurizer: Featurizer,
        require_connected: bool,
        mut config: OnlineConfig,
    ) -> Self {
        // swap_every = 0 would publish a generation (and invalidate the
        // cache) per experience, drain_batch = 0 would make every step
        // a silent no-op.
        config.swap_every = config.swap_every.max(1);
        config.drain_batch = config.drain_batch.max(1);
        let planner =
            LearnedPlanner::freeze(&agent, featurizer).with_require_connected(require_connected);
        let handle = PlannerHandle::new(planner);
        let log = Arc::new(ExperienceLog::new(EXPERIENCE_CAPACITY));
        session.set_planner(Box::new(HotSwapPlanner::new(Arc::clone(&handle))));
        session.set_experience_log(Some(Arc::clone(&log)));
        Self {
            agent,
            handle,
            log,
            config,
            since_swap: 0,
            metrics: OnlineMetrics::default(),
        }
    }

    /// The handle serving threads plan through.
    pub fn handle(&self) -> &Arc<PlannerHandle> {
        &self.handle
    }

    /// The experience log the session records into.
    pub fn log(&self) -> &Arc<ExperienceLog> {
        &self.log
    }

    /// Policy generations published so far.
    pub fn generation(&self) -> u64 {
        self.handle.generation()
    }

    /// Lifetime counters.
    pub fn metrics(&self) -> OnlineMetrics {
        self.metrics
    }

    /// The learning agent (e.g. for `episodes_seen`).
    pub fn agent(&self) -> &ReinforceAgent {
        &self.agent
    }

    /// One training step: drain up to `drain_batch` experiences, replay
    /// each into an episode against the session's *current* statistics,
    /// hand them to the agent, and after every `swap_every` replayed
    /// episodes flush the agent, freeze a snapshot, publish it as the
    /// next generation, and invalidate `session`'s plan cache (the
    /// cadence check runs per episode, so a step that drains more than
    /// `swap_every` episodes publishes proportionally more
    /// generations).
    ///
    /// Call this from one thread at a time (the trainer is `&mut self`);
    /// serving threads keep running concurrently throughout.
    pub fn step(&mut self, session: &QuerySession) -> OnlineStep {
        let batch = self.log.drain(self.config.drain_batch);
        let mut step = OnlineStep {
            drained: batch.len(),
            ..OnlineStep::default()
        };
        let generation = self.handle.load();
        let featurizer = generation.featurizer();
        let require_connected = generation.require_connected();
        for exp in &batch {
            let latency_ms = (exp.executed_work as f64 * self.config.ms_per_unit).max(0.001);
            let reward =
                RewardMode::NegLogLatency.terminal_reward(exp.cost, exp.cost, Some(latency_ms));
            match episode_from_decisions(
                &exp.graph,
                &exp.decisions,
                reward,
                &featurizer,
                session.stats(),
                require_connected,
            ) {
                Ok(episode) => {
                    self.agent.observe(episode);
                    self.since_swap += 1;
                    step.trained += 1;
                }
                Err(_) => step.skipped += 1,
            }
            if self.since_swap >= self.config.swap_every {
                self.swap(session);
                step.swaps += 1;
            }
        }
        self.metrics.drained += step.drained as u64;
        self.metrics.trained += step.trained as u64;
        self.metrics.skipped += step.skipped as u64;
        step
    }

    /// Flushes the agent, freezes its policy, publishes it as the next
    /// generation, and invalidates `session`'s plan cache (cached plans
    /// belong to the previous generation). A serving thread racing the
    /// swap either finishes on the generation it already loaded —
    /// whose plans execute to identical results — or plans with the new
    /// one; it can never observe a torn policy.
    pub fn swap(&mut self, session: &QuerySession) -> u64 {
        self.agent.update();
        let next = self.handle.load().with_snapshot(self.agent.snapshot());
        let generation = self.handle.store(next);
        session.invalidate_cache();
        self.since_swap = 0;
        self.metrics.swaps += 1;
        generation
    }

    /// Runs the training loop until `stop` is set: step, and sleep for
    /// `idle` whenever the experience log had nothing to drain. Designed
    /// for a scoped background thread next to serving threads; pausing
    /// (never calling this, or stopping it) leaves serving bit-identical
    /// to the frozen-policy path.
    pub fn run(&mut self, session: &QuerySession, stop: &AtomicBool, idle: Duration) {
        // ordering: Acquire — pairs with the Release store by the
        // stopping thread, so everything it wrote before requesting the
        // stop is visible to the trainer's final loop exit.
        while !stop.load(Ordering::Acquire) {
            let step = self.step(session);
            if step.drained == 0 {
                std::thread::sleep(idle);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfqo_opt::test_support::{chain_query, with_count, TestDb};
    use hfqo_query::QueryGraph;
    use hfqo_rejoin::rl::ReinforceConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn online_session(n: usize, rows: usize) -> (QuerySession, OnlineTrainer, QueryGraph) {
        let fixture = TestDb::chain(n, rows);
        let graph = with_count(chain_query(&fixture, n));
        let mut session = QuerySession::traditional(fixture.db, fixture.stats);
        let featurizer = Featurizer::new(n);
        let mut rng = StdRng::seed_from_u64(9);
        let agent = ReinforceAgent::new(
            featurizer.state_dim(),
            featurizer.action_dim(),
            ReinforceConfig::default(),
            &mut rng,
        );
        let trainer = OnlineTrainer::attach(
            &mut session,
            agent,
            featurizer,
            true,
            OnlineConfig {
                swap_every: 4,
                ..OnlineConfig::default()
            },
        );
        (session, trainer, graph)
    }

    #[test]
    fn serves_record_experience_and_steps_train() {
        let (session, mut trainer, graph) = online_session(4, 200);
        for _ in 0..4 {
            session.invalidate_cache();
            session.serve_graph(&graph).unwrap();
        }
        assert_eq!(trainer.log().len(), 4);
        let step = trainer.step(&session);
        assert_eq!(step.drained, 4);
        assert_eq!(step.trained, 4);
        assert_eq!(step.skipped, 0);
        assert!(step.swapped(), "swap_every=4 reached");
        assert_eq!(trainer.generation(), 1);
        assert_eq!(trainer.agent().episodes_seen(), 4);
        // The swap invalidated the cache: next serve re-plans.
        assert!(!session.serve_graph(&graph).unwrap().cache_hit);
    }

    #[test]
    fn cache_hits_also_record() {
        let (session, trainer, graph) = online_session(3, 150);
        let cold = session.serve_graph(&graph).unwrap();
        let warm = session.serve_graph(&graph).unwrap();
        assert!(!cold.cache_hit && warm.cache_hit);
        let batch = trainer.log().drain(10);
        assert_eq!(batch.len(), 2);
        assert!(!batch[0].cache_hit);
        assert!(batch[1].cache_hit);
        assert_eq!(batch[0].decisions, batch[1].decisions);
        assert_eq!(batch[0].executed_work, batch[1].executed_work);
    }

    #[test]
    fn empty_log_steps_are_no_ops() {
        let (session, mut trainer, _) = online_session(3, 100);
        let step = trainer.step(&session);
        assert_eq!(step, OnlineStep::default());
        assert_eq!(trainer.generation(), 0);
    }
}
