//! Atomic policy hot-swapping: publish a retrained planner generation
//! to live serving threads without pausing them.
//!
//! [`PlannerHandle`] is the shared cell: the current
//! [`LearnedPlanner`] lives behind an `Arc` whose pointer is replaced
//! wholesale on [`store`](PlannerHandle::store) (arc-swap style — a
//! reader that loaded the old `Arc` keeps a complete, immutable policy
//! for as long as it needs it, so a plan is always produced by exactly
//! one generation and can never observe half-updated weights). Readers
//! take a read lock only long enough to clone the `Arc` — O(1), never
//! while planning — and training happens entirely outside the cell, so
//! serving threads never block on a policy update; the only writer
//! critical section is the pointer replacement itself.
//!
//! [`HotSwapPlanner`] adapts a handle to the [`Planner`] trait so a
//! [`crate::QuerySession`] can own it like any other strategy. Each
//! `plan` call loads the handle exactly once and runs the whole
//! greedy-argmax episode against that generation.
//!
//! Swapping does **not** touch the plan cache — the cache belongs to
//! the session. [`crate::OnlineTrainer`] invalidates the session's
//! cache immediately after every store, mirroring what
//! `QuerySession::set_planner` does on a strategy swap; plans from the
//! previous generation remain *correct* (every generation's plans
//! execute to identical results), they are just no longer the plans the
//! current policy would pick.

use hfqo_opt::{OptError, PlannedQuery, Planner, PlannerContext};
use hfqo_query::QueryGraph;
use hfqo_rejoin::LearnedPlanner;
use hfqo_sync::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The shared cell holding the current learned-planner generation.
#[derive(Debug)]
pub struct PlannerHandle {
    current: RwLock<Arc<LearnedPlanner>>,
    generation: AtomicU64,
}

impl PlannerHandle {
    /// A handle whose generation 0 is `planner`.
    pub fn new(planner: LearnedPlanner) -> Arc<Self> {
        Arc::new(Self {
            current: RwLock::new("serve.swap.handle", Arc::new(planner)),
            generation: AtomicU64::new(0),
        })
    }

    /// The current generation's planner (O(1): read-lock + `Arc`
    /// clone).
    pub fn load(&self) -> Arc<LearnedPlanner> {
        Arc::clone(&self.current.read())
    }

    /// Publishes `planner` as the next generation and returns the new
    /// generation number. The write lock is held only for the pointer
    /// replacement; in-flight readers finish their episodes on the
    /// generation they already loaded.
    pub fn store(&self, planner: LearnedPlanner) -> u64 {
        let next = Arc::new(planner);
        *self.current.write() = next;
        // ordering: AcqRel — the release half publishes the pointer
        // store above to any thread whose Acquire `generation()` read
        // observes the bump (a thread that sees generation N can load a
        // planner at least that new); the acquire half orders
        // back-to-back stores from different trainer threads.
        self.generation.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Generations published so far (0 = still the initial policy).
    pub fn generation(&self) -> u64 {
        // ordering: Acquire — pairs with the AcqRel bump in `store` so
        // an observed generation implies the matching planner swap is
        // visible too.
        self.generation.load(Ordering::Acquire)
    }
}

/// The current handle generation behind the [`Planner`] trait.
#[derive(Debug, Clone)]
pub struct HotSwapPlanner {
    handle: Arc<PlannerHandle>,
}

// Serving threads share the planner; the handle is lock-guarded shared
// state by construction. The assertion breaks the build if a
// non-thread-safe member ever sneaks in.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<HotSwapPlanner>();
};

impl HotSwapPlanner {
    /// A planner view over `handle`.
    pub fn new(handle: Arc<PlannerHandle>) -> Self {
        Self { handle }
    }

    /// The underlying handle.
    pub fn handle(&self) -> &Arc<PlannerHandle> {
        &self.handle
    }
}

impl Planner for HotSwapPlanner {
    fn name(&self) -> &'static str {
        "learned-online"
    }

    fn plan(&self, ctx: &PlannerContext<'_>, graph: &QueryGraph) -> Result<PlannedQuery, OptError> {
        // One load per plan: the whole episode walks a single
        // generation, so a concurrent store can never tear a plan.
        self.handle.load().plan(ctx, graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfqo_opt::test_support::{chain_query, TestDb};
    use hfqo_rejoin::rl::{ReinforceAgent, ReinforceConfig};
    use hfqo_rejoin::Featurizer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn planner_with_seed(seed: u64) -> LearnedPlanner {
        let f = Featurizer::new(4);
        let mut rng = StdRng::seed_from_u64(seed);
        let agent = ReinforceAgent::new(
            f.state_dim(),
            f.action_dim(),
            ReinforceConfig::default(),
            &mut rng,
        );
        LearnedPlanner::freeze(&agent, f)
    }

    #[test]
    fn store_bumps_generation_and_swaps_the_policy() {
        let db = TestDb::chain(4, 200);
        let graph = chain_query(&db, 4);
        let ctx = hfqo_opt::PlannerContext::new(db.db.catalog(), &db.stats);
        let handle = PlannerHandle::new(planner_with_seed(1));
        let planner = HotSwapPlanner::new(Arc::clone(&handle));
        assert_eq!(handle.generation(), 0);
        let before = planner.plan(&ctx, &graph).unwrap();
        assert_eq!(handle.store(planner_with_seed(2)), 1);
        let after = planner.plan(&ctx, &graph).unwrap();
        // Different random inits may or may not pick different join
        // orders; what must hold is that each serve used exactly one
        // generation's deterministic choice.
        assert_eq!(planner.plan(&ctx, &graph).unwrap().plan, after.plan);
        before.plan.validate(&graph).unwrap();
        after.plan.validate(&graph).unwrap();
    }

    #[test]
    fn loaded_generation_outlives_a_store() {
        let handle = PlannerHandle::new(planner_with_seed(3));
        let old = handle.load();
        handle.store(planner_with_seed(4));
        // The old Arc is still a complete, usable policy.
        let db = TestDb::chain(3, 100);
        let graph = chain_query(&db, 3);
        let ctx = hfqo_opt::PlannerContext::new(db.db.catalog(), &db.stats);
        old.plan(&ctx, &graph)
            .unwrap()
            .plan
            .validate(&graph)
            .unwrap();
        assert_eq!(handle.generation(), 1);
    }
}
