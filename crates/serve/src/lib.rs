//! # hfqo-serve
//!
//! The query-serving layer: one [`QuerySession`] owns the database,
//! statistics, a [`hfqo_opt::Planner`] strategy, and a
//! fingerprint-keyed plan cache, and answers SQL end to end —
//! parse → bind → plan → execute — from any number of threads.
//!
//! This is the ROADMAP's "serve heavy traffic" layer and the paper's
//! end state: with a learned planner plugged in, the trained policy
//! produces the plans at query time; with
//! [`hfqo_opt::TraditionalPlanner`], the same session is the classical
//! expert. The cache (see [`cache`]) amortises planning across repeated
//! query shapes under a two-part key: a structure-only
//! [`hfqo_query::TemplateFingerprint`] groups every parameterization of
//! a template into one sharded entry (so `val < 20` and `val < 90`
//! share plans), the exact [`hfqo_query::QueryFingerprint`] is the
//! intra-template fast path, and a selectivity band re-plans when the
//! current constants' estimated selectivity diverges from every cached
//! bucket. The bound is a template-granular LRU, cold misses are
//! single-flighted, and invalidation is explicit (and epoch-fenced) on
//! statistics rebuilds and planner swaps.
//!
//! In front of the plan cache sits the statement cache ([`statement`]):
//! the session serves a [`Prepared`] statement, not a string, and a
//! text it has served before — still among the last `capacity` distinct
//! texts — is not lexed, parsed, bound or fingerprinted again.
//!
//! Since PR 5 the layer also **closes the hands-free loop** the paper
//! is named for: a session can record every executed query into an
//! [`ExperienceLog`] ([`experience`]), a background [`OnlineTrainer`]
//! ([`online`]) replays those records into policy-gradient episodes
//! rewarded on the *observed* execution work, and each retrained
//! policy generation is hot-swapped into live serving through an
//! atomic [`PlannerHandle`] ([`swap`]) — readers never block on
//! training, a plan is always produced by exactly one frozen
//! generation, and every swap invalidates the plan cache.
//!
//! ## Serving in five lines
//!
//! ```
//! use hfqo_serve::QuerySession;
//! # let fixture = hfqo_opt::test_support::TestDb::chain(3, 200);
//! // `TestDb::chain(3, …)` builds tables t0(id, val), t1(id, fk, val), t2(…).
//! let session = QuerySession::traditional(fixture.db, fixture.stats);
//! let served = session.serve("SELECT COUNT(*) FROM t0 a, t1 b WHERE a.id = b.fk")?;
//! assert_eq!(served.outcome.rows.len(), 1);
//! assert!(session.serve("SELECT COUNT(*) FROM t0 x, t1 y WHERE x.id = y.fk")?.cache_hit);
//! # Ok::<(), hfqo_serve::ServeError>(())
//! ```

pub mod cache;
pub mod experience;
pub mod online;
pub mod session;
pub mod statement;
pub mod swap;

pub use cache::{
    CacheConfig, CacheMetrics, CacheOutcome, CachedPlan, PlanCache, PlanKey, Probe,
    DEFAULT_CACHE_CAPACITY, MAX_CACHE_SHARDS, SELECTIVITY_BAND,
};
pub use experience::{Experience, ExperienceLog, ExperienceMetrics};
pub use online::{OnlineConfig, OnlineMetrics, OnlineStep, OnlineTrainer};
pub use session::{QuerySession, ServeError, ServedQuery};
pub use statement::Prepared;
pub use swap::{HotSwapPlanner, PlannerHandle};
