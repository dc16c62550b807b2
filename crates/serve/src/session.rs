//! The query-serving session.
//!
//! [`QuerySession`] owns the whole serving world — database (with its
//! catalog), statistics, a [`Planner`], the statement cache and the plan
//! cache — and runs the full pipeline as one call:
//!
//! ```text
//!   serve(sql)
//!     ├─ statement  text → statement cache ──hit──────────┐
//!     │               └──miss──→ prepare(sql):            │
//!     │                   parse    sql::parse_select      │
//!     │                   bind     hfqo_query::bind_select│
//!     │                   key      (template, exact)      │
//!     │                 → remembered                      ▼
//!     │                                  Prepared { graph, key }
//!     └─ serve_prepared
//!         ├─ plan       selectivity signature
//!         │               → PlanCache::probe ──hit───────→ PhysicalPlan
//!         │                        └──miss/replan──→ Planner::plan → insert
//!         ├─ execute    hfqo_exec::execute (vectorized)    → rows + stats
//!         └─ record     ExperienceLog (when attached)
//! ```
//!
//! **The session serves a statement, not a string.** A [`Prepared`] —
//! the bound graph and its [`PlanKey`] — is what the front half of a
//! serve produces and all the back half consumes.
//! [`QuerySession::prepare`] is the front half,
//! [`QuerySession::serve_prepared`] the back half, and
//! [`QuerySession::serve`] is *look the text up; on a miss prepare and
//! remember it; serve the statement* — there is no route around the
//! statement cache and nothing that turns it off. A text served before
//! (and still among the last [`CacheConfig::capacity`] distinct texts)
//! is not lexed, parsed, bound or fingerprinted again; what a statement
//! hit still pays is the signature, the probe, the hit's plan-tree
//! clone and the execution. The graph entry points
//! ([`QuerySession::serve_shared`], [`QuerySession::serve_graph`]) wrap
//! their graph in a `Prepared` and take the same back half. The cache's
//! rules — exact text as the key, one global LRU, a leaf lock, emptied
//! by [`QuerySession::db_mut`] and by nothing else — are in
//! [`crate::statement`].
//!
//! Planning is cached under the **two-part key** of
//! [`mod@hfqo_query::fingerprint`]: the structure-only
//! [`hfqo_query::TemplateFingerprint`] groups every parameterization of
//! a query template into one cache entry, and the exact
//! [`hfqo_query::QueryFingerprint`] stays as the fast path within it.
//! On a probe the session also passes the statistics' selectivity
//! signature of the query's current literals
//! ([`hfqo_stats::selection_selectivities`]); a template hit whose
//! signature falls outside the configured band of every cached plan
//! re-plans into a separate per-template plan bucket (see
//! [`crate::cache`]) — templated workloads share plans, but a
//! rare-constant probe is not served a common-constant plan.
//!
//! Serving is concurrent: `serve` takes `&self`, the owned world is
//! read-only (`Database`/`StatsCatalog` are `Sync`), and the plan cache
//! is internally sharded — N threads contend per shard, not on one
//! global mutex, and planning and execution run outside any lock. Cold
//! misses are single-flighted per exact fingerprint: threads racing on
//! the same cold query run the planner exactly once, the rest wait and
//! hit. The statement cache's one lock is held for a hash-slot lookup
//! and a text comparison only (the text is hashed before it is taken).
//!
//! Mutation is explicit and exclusive. The session remembers, per
//! table, the data version ([`Database::table_versions`]) its
//! statistics describe — [`QuerySession::new`] takes `stats` as
//! describing `db` as handed over — so after the database moved,
//! [`QuerySession::refresh_after_mutation`] rebuilds the indexes and
//! re-scans the statistics of the tables that changed and of no other;
//! [`QuerySession::rebuild_stats`] is the everything-is-stale case.
//! Either invalidates the plan cache (plans chosen under stale
//! statistics may no longer be the ones the planner would pick), and
//! [`QuerySession::set_planner`] swaps the strategy, also
//! invalidating (cached plans would otherwise be attributed to the
//! wrong strategy). None of them touches the statement cache: a bound
//! graph depends on the catalog alone, and the key a remembered
//! statement carries is the one a fresh bind would compute, so
//! plan-cache outcomes are the same with or without it. Because
//! planning happens outside the cache locks, an invalidation can race
//! an in-flight plan; inserts are epoch-guarded (see
//! [`PlanCache::insert_if_current`]), so a plan produced under a
//! superseded planner or statistics epoch is served once but never
//! cached.
//!
//! [`PlanCache::insert_if_current`]: crate::cache::PlanCache::insert_if_current

use crate::cache::{
    CacheConfig, CacheMetrics, CacheOutcome, CachedPlan, PlanCache, PlanKey, Probe,
};
use crate::experience::{Experience, ExperienceLog};
use crate::statement::{Prepared, StatementCache};
use hfqo_exec::{execute, ExecConfig, ExecError, ExecOutcome};
use hfqo_opt::{OptError, PlannedQuery, Planner, PlannerContext, PlannerMethod};
use hfqo_query::sql::{parse_select, ParseError};
use hfqo_query::{bind_select, tree_to_actions, PhysicalPlan, QueryError, QueryGraph};
use hfqo_stats::{database_table_stats, selection_selectivities, StatsCatalog};
use hfqo_storage::catalog::Catalog;
use hfqo_storage::Database;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Everything that can go wrong between SQL text and result rows.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The SQL text did not parse.
    Parse(ParseError),
    /// The statement did not bind against the catalog.
    Bind(QueryError),
    /// The planner rejected the query.
    Plan(OptError),
    /// Execution failed (budget, bad plan, …).
    Exec(ExecError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Parse(e) => write!(f, "parse error: {e}"),
            Self::Bind(e) => write!(f, "bind error: {e}"),
            Self::Plan(e) => write!(f, "planning error: {e}"),
            Self::Exec(e) => write!(f, "execution error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ParseError> for ServeError {
    fn from(e: ParseError) -> Self {
        Self::Parse(e)
    }
}

impl From<QueryError> for ServeError {
    fn from(e: QueryError) -> Self {
        Self::Bind(e)
    }
}

impl From<OptError> for ServeError {
    fn from(e: OptError) -> Self {
        Self::Plan(e)
    }
}

impl From<ExecError> for ServeError {
    fn from(e: ExecError) -> Self {
        Self::Exec(e)
    }
}

/// One served query: the bound graph, the plan that ran (and where it
/// came from), and the execution outcome.
#[derive(Debug, Clone)]
pub struct ServedQuery {
    /// The bound query graph (shared with the experience log when one
    /// is attached, and with the statement cache when the query came in
    /// as text; callers going through [`QuerySession::serve_shared`]
    /// share their own `Arc` — no deep clone on the serve path).
    pub graph: Arc<QueryGraph>,
    /// The physical plan that executed.
    pub plan: PhysicalPlan,
    /// Estimated cost of the plan (at planning time).
    pub cost: f64,
    /// Which strategy produced the plan.
    pub method: PlannerMethod,
    /// Whether the plan came from the cache
    /// (`cache.is_hit()`; kept alongside [`Self::cache`] for callers
    /// that only care hit-or-not).
    pub cache_hit: bool,
    /// How the cache answered: exact hit, intra-template (band) hit,
    /// out-of-band re-plan, or cold miss.
    pub cache: CacheOutcome,
    /// Whether the text was found in the statement cache, so that this
    /// serve did not parse, bind or fingerprint. Always `false` on the
    /// entry points that take a graph or a [`Prepared`] rather than
    /// text.
    pub statement_hit: bool,
    /// Planning wall-clock: the cache lookup on a hit, the planner run
    /// on a miss.
    pub planning_time: std::time::Duration,
    /// Rows, schema, and execution statistics.
    pub outcome: ExecOutcome,
}

/// The concurrent query-serving session. See the [module docs](self).
pub struct QuerySession {
    db: Database,
    stats: StatsCatalog,
    /// The table data versions `stats` describes; a table whose
    /// version in `db` differs (or has no entry) is due a re-scan.
    stats_versions: Vec<u64>,
    planner: Box<dyn Planner>,
    /// Internally sharded and synchronized; see [`crate::cache`].
    cache: PlanCache,
    /// SQL text → prepared statement, bounded at the plan cache's
    /// capacity; see [`crate::statement`].
    statements: StatementCache,
    exec_config: ExecConfig,
    /// When attached, every executed query is recorded for online
    /// learning (see [`crate::online`]). Recording never influences
    /// planning or execution — with no consumer draining the log,
    /// serving output is identical to an unattached session.
    experience: Option<Arc<ExperienceLog>>,
}

// N serving threads share one `&QuerySession`: the owned world is plain
// read-only data, the planner is `Send + Sync` by trait bound, and the
// cache is internally synchronized. The assertion breaks the build if a
// non-thread-safe member ever sneaks in.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QuerySession>();
};

impl QuerySession {
    /// A session owning `db` and `stats`, planning with `planner`.
    /// `stats` is taken as describing `db` as handed over: a later
    /// [`Self::refresh_after_mutation`] re-scans only tables changed
    /// after this call.
    pub fn new(db: Database, stats: StatsCatalog, planner: Box<dyn Planner>) -> Self {
        let cache = PlanCache::with_config(CacheConfig::default());
        Self {
            stats_versions: db.table_versions().to_vec(),
            db,
            stats,
            planner,
            statements: StatementCache::new(cache.config().capacity),
            cache,
            exec_config: ExecConfig::default(),
            experience: None,
        }
    }

    /// A session with the traditional DP/greedy expert planner.
    pub fn traditional(db: Database, stats: StatsCatalog) -> Self {
        Self::new(db, stats, Box::new(hfqo_opt::TraditionalPlanner::new()))
    }

    /// Overrides the execution configuration (builder style).
    pub fn with_exec_config(mut self, config: ExecConfig) -> Self {
        self.exec_config = config;
        self
    }

    /// Overrides the plan-cache capacity (builder style), and with it
    /// the statement cache's bound. Cached entries and remembered
    /// statements are dropped (counted as one invalidation), but the
    /// accumulated cache metrics and the invalidation epoch **carry
    /// across** — a capacity change never silently zeroes the counters
    /// or un-fences in-flight stale inserts.
    pub fn with_cache_capacity(self, capacity: usize) -> Self {
        let cache = self.cache.rebuilt_with(CacheConfig { capacity });
        self.statements.resize(cache.config().capacity);
        Self { cache, ..self }
    }

    /// The owned database.
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the owned database — for loading data or
    /// mutating tables between serving phases. Data changes leave
    /// cached plans *valid* (plans are data-independent) but the
    /// changed tables' indexes and statistics stale; call
    /// [`Self::refresh_after_mutation`] afterwards. Changes are seen
    /// through the tables' data versions, so assigning a whole other
    /// `Database` through this reference needs [`Self::rebuild_stats`]
    /// (and its own `build_indexes`) instead.
    ///
    /// The catalog is reachable through this reference, and a bound
    /// graph holds the table and column ids that catalog gave it, so
    /// handing it out forgets every remembered statement: the next
    /// serve of each text binds afresh. This is the statement cache's
    /// one invalidation rule.
    pub fn db_mut(&mut self) -> &mut Database {
        self.statements.clear();
        &mut self.db
    }

    /// The catalog.
    pub fn catalog(&self) -> &Catalog {
        self.db.catalog()
    }

    /// The current statistics.
    pub fn stats(&self) -> &StatsCatalog {
        &self.stats
    }

    /// Snapshot of the plan-cache counters (aggregated across shards)
    /// and the statement cache's.
    pub fn cache_metrics(&self) -> CacheMetrics {
        let (statement_hits, statement_misses, statements) = self.statements.counts();
        CacheMetrics {
            statement_hits,
            statement_misses,
            statements,
            ..self.cache.metrics()
        }
    }

    /// Drops every cached plan. Remembered statements stay: they do not
    /// depend on what the planner or the statistics said.
    pub fn invalidate_cache(&self) {
        self.cache.invalidate();
    }

    /// Swaps the planning strategy and invalidates the cache (cached
    /// plans belong to the previous strategy).
    pub fn set_planner(&mut self, planner: Box<dyn Planner>) {
        self.planner = planner;
        self.invalidate_cache();
    }

    /// Attaches (or detaches, with `None`) an experience log: every
    /// subsequently executed query is recorded for online learning.
    pub(crate) fn set_experience_log(&mut self, log: Option<Arc<ExperienceLog>>) {
        self.experience = log;
    }

    /// Re-scans every table of the owned database into fresh
    /// statistics and invalidates the plan cache: plans chosen under
    /// the old estimates may no longer be the planner's choice.
    pub fn rebuild_stats(&mut self) {
        self.stats_versions.clear();
        self.refresh_stats();
    }

    /// Re-scans the tables whose data version is not the one the
    /// statistics describe, then invalidates the plan cache — once per
    /// call, stale tables or none, as every refresh always has.
    fn refresh_stats(&mut self) {
        for (id, _) in self.db.catalog().tables() {
            let version = self.db.table_versions()[id.index()];
            if self.stats_versions.get(id.index()) != Some(&version) {
                self.stats.set_table(id, database_table_stats(&self.db, id));
            }
        }
        self.stats_versions = self.db.table_versions().to_vec();
        self.invalidate_cache();
    }

    /// The one-call drift path after mutating the owned database
    /// through [`Self::db_mut`] (or the drift harness's mutation
    /// operators): rebuilds the indexes of every table that changed
    /// (index row ids are positional, so any append/delete/skew leaves
    /// them stale), re-scans those tables' statistics, and invalidates
    /// the plan cache. Which tables changed is read off the database's
    /// per-table data versions. Because planning happens outside the
    /// cache locks, the invalidation bumps the epoch and in-flight
    /// plans computed under the pre-mutation statistics are served once
    /// but never cached — the same fence policy swaps rely on.
    pub fn refresh_after_mutation(&mut self) -> Result<(), hfqo_storage::StorageError> {
        self.db.refresh_indexes()?;
        self.refresh_stats();
        Ok(())
    }

    /// Plans `graph`, going through the cache. Returns the planned
    /// query and how the cache answered. On a hit the `planning_time`
    /// is the lookup's wall-clock.
    pub fn plan(&self, graph: &QueryGraph) -> Result<(PlannedQuery, CacheOutcome), ServeError> {
        self.plan_keyed(graph, &PlanKey::of(graph))
    }

    /// [`Self::plan`] with `key` = `PlanKey::of(graph)` already known.
    fn plan_keyed(
        &self,
        graph: &QueryGraph,
        key: &PlanKey,
    ) -> Result<(PlannedQuery, CacheOutcome), ServeError> {
        // The current parameters' selectivity signature: recorded at
        // planning time, compared by the band on template hits.
        let current = selection_selectivities(&self.stats, graph);
        let start = Instant::now();
        match self.cache.probe(key, &current) {
            Probe::Hit { plan, outcome } => Ok((
                PlannedQuery {
                    plan: plan.plan.clone(),
                    cost: plan.cost,
                    planning_time: start.elapsed(),
                    method: plan.method,
                },
                outcome,
            )),
            Probe::Plan {
                guard,
                epoch,
                outcome,
            } => {
                // This thread is the single-flight leader for the key:
                // plan outside the cache locks (misses on distinct
                // queries proceed in parallel), then insert under the
                // probe-time epoch. An invalidation racing the planning
                // (stats rebuild, planner swap, online policy swap)
                // bumps the cache epoch, so the superseded plan is
                // served once but never cached — a stale generation's
                // plan must not resurrect as cache hits. On planner
                // error the guard's drop releases any waiters to retry.
                let ctx = PlannerContext::new(self.db.catalog(), &self.stats);
                let planned = self.planner.plan(&ctx, graph)?;
                let entry = Arc::new(CachedPlan {
                    plan: planned.plan.clone(),
                    cost: planned.cost,
                    method: planned.method,
                    selectivities: current,
                });
                self.cache.insert_if_current(key, entry, epoch);
                drop(guard);
                Ok((planned, outcome))
            }
        }
    }

    /// The front half of a serve: parse, bind against the catalog, and
    /// compute the plan-cache key. Nothing is planned, executed or
    /// remembered; [`Self::serve`] is what consults and fills the
    /// statement cache.
    pub fn prepare(&self, sql: &str) -> Result<Prepared, ServeError> {
        let stmt = parse_select(sql)?;
        let graph = bind_select(&stmt, self.db.catalog())?;
        Ok(Prepared::new(Arc::new(graph)))
    }

    /// The back half of a serve: plan (through the cache) and execute a
    /// prepared statement, and record it when a log is attached. The
    /// statement's `Arc` is shared with the result and the experience
    /// record; the graph is never deep-cloned.
    pub fn serve_prepared(&self, prepared: &Prepared) -> Result<ServedQuery, ServeError> {
        let graph = prepared.graph();
        let (planned, cache) = self.plan_keyed(graph, &prepared.key())?;
        let outcome = execute(&self.db, graph, &planned.plan, self.exec_config)?;
        if let Some(log) = &self.experience {
            // The join decisions are derived from the executed plan's
            // tree skeleton, so cache hits and misses — and any
            // planning strategy — leave the same kind of record.
            log.push(Experience {
                graph: Arc::clone(graph),
                decisions: tree_to_actions(&planned.plan.root.join_tree(), graph.relation_count()),
                executed_work: outcome.stats.work,
                elapsed: outcome.stats.elapsed,
                cost: planned.cost,
                method: planned.method,
                cache_hit: cache.is_hit(),
            });
        }
        Ok(ServedQuery {
            graph: Arc::clone(graph),
            plan: planned.plan,
            cost: planned.cost,
            method: planned.method,
            cache_hit: cache.is_hit(),
            cache,
            statement_hit: false,
            planning_time: planned.planning_time,
            outcome,
        })
    }

    /// Serves an already-bound, already-shared query graph: fingerprint
    /// it, then [`Self::serve_prepared`]. Callers that serve one graph
    /// repeatedly can keep the [`Prepared`] and skip the fingerprints
    /// too.
    pub fn serve_shared(&self, graph: Arc<QueryGraph>) -> Result<ServedQuery, ServeError> {
        self.serve_prepared(&Prepared::new(graph))
    }

    /// Serves an already-bound query graph: one clone up front to share
    /// it, then [`Self::serve_shared`]. Callers that already hold an
    /// `Arc<QueryGraph>` (repeated templated serves) should call
    /// `serve_shared` directly and skip the clone entirely.
    pub fn serve_graph(&self, graph: &QueryGraph) -> Result<ServedQuery, ServeError> {
        self.serve_shared(Arc::new(graph.clone()))
    }

    /// Serves SQL text: the statement remembered for exactly this text,
    /// or — the first time, and after eviction or [`Self::db_mut`] —
    /// [`Self::prepare`]d now and remembered; then
    /// [`Self::serve_prepared`]. A text that fails to parse or bind is
    /// not remembered and fails the same way next time. The statement
    /// lock is not held while preparing: threads that miss one text at
    /// once each prepare it, and the last insert wins.
    pub fn serve(&self, sql: &str) -> Result<ServedQuery, ServeError> {
        let (prepared, statement_hit) = match self.statements.get(sql) {
            Some(prepared) => (prepared, true),
            None => {
                let prepared = self.prepare(sql)?;
                self.statements.insert(sql, prepared.clone());
                (prepared, false)
            }
        };
        let mut served = self.serve_prepared(&prepared)?;
        served.statement_hit = statement_hit;
        Ok(served)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfqo_opt::test_support::{chain_query, with_count, TestDb};
    use hfqo_opt::{RandomPlanner, TraditionalPlanner};

    fn session(n: usize, rows: usize) -> (QuerySession, QueryGraph) {
        let fixture = TestDb::chain(n, rows);
        let graph = with_count(chain_query(&fixture, n));
        let session = QuerySession::traditional(fixture.db, fixture.stats);
        (session, graph)
    }

    #[test]
    fn serves_a_graph_end_to_end() {
        let (session, graph) = session(3, 200);
        let served = session.serve_graph(&graph).unwrap();
        assert!(!served.cache_hit);
        assert_eq!(served.cache, CacheOutcome::Miss);
        assert_eq!(served.method, PlannerMethod::DynamicProgramming);
        assert_eq!(served.outcome.rows.len(), 1, "COUNT(*) row");
        served.plan.validate(&graph).unwrap();
        assert!(served.cost > 0.0);
        assert!(served.outcome.stats.work > 0);
    }

    #[test]
    fn second_serve_hits_the_cache_with_identical_results() {
        let (session, graph) = session(4, 200);
        let cold = session.serve_graph(&graph).unwrap();
        let warm = session.serve_graph(&graph).unwrap();
        assert!(!cold.cache_hit);
        assert!(warm.cache_hit);
        assert_eq!(warm.cache, CacheOutcome::ExactHit);
        assert_eq!(warm.plan, cold.plan);
        assert_eq!(warm.cost, cold.cost);
        assert_eq!(warm.method, cold.method);
        assert_eq!(warm.outcome.rows, cold.outcome.rows);
        assert_eq!(warm.outcome.stats.work, cold.outcome.stats.work);
        let m = session.cache_metrics();
        assert_eq!((m.hits, m.misses, m.len), (1, 1, 1));
    }

    /// Satellite regression: the shared-`Arc` serve path must produce
    /// output identical to the clone-up-front path — the deep-clone
    /// removal is a pure performance fix.
    #[test]
    fn serve_shared_matches_serve_graph_exactly() {
        let (session, graph) = session(3, 200);
        let via_ref = session.serve_graph(&graph).unwrap();
        let shared = Arc::new(graph.clone());
        let via_arc = session.serve_shared(Arc::clone(&shared)).unwrap();
        assert_eq!(via_arc.plan, via_ref.plan);
        assert_eq!(via_arc.cost, via_ref.cost);
        assert_eq!(via_arc.method, via_ref.method);
        assert_eq!(via_arc.outcome.rows, via_ref.outcome.rows);
        assert_eq!(via_arc.outcome.stats.work, via_ref.outcome.stats.work);
        // The result's graph IS the caller's Arc — not a clone of it.
        assert!(Arc::ptr_eq(&via_arc.graph, &shared));
        // …and with an experience log attached the record shares it too.
        let (mut logged, graph2) = self::session(3, 200);
        let log = Arc::new(ExperienceLog::new(8));
        logged.set_experience_log(Some(Arc::clone(&log)));
        let shared2 = Arc::new(graph2);
        let served = logged.serve_shared(Arc::clone(&shared2)).unwrap();
        assert!(Arc::ptr_eq(&served.graph, &shared2));
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn serves_sql_text_through_the_catalog() {
        let (session, _) = session(2, 150);
        // TestDb chains are t0(id, val), t1(id, fk, val).
        let sql = "SELECT COUNT(*) FROM t0 a, t1 b WHERE a.id = b.fk AND a.val < 20";
        let served = session.serve(sql).unwrap();
        assert_eq!(served.outcome.rows.len(), 1);
        // Alias changes normalise to the same fingerprint: serving the
        // renamed text is an exact cache hit.
        let renamed = "SELECT COUNT(*) FROM t0 x, t1 y WHERE x.id = y.fk AND x.val < 20";
        assert_eq!(
            session.serve(renamed).unwrap().cache,
            CacheOutcome::ExactHit
        );
        // A different literal is a different *exact* fingerprint but the
        // same template; its selectivity is within the band, so the plan
        // is shared — this is the templated-workload fix.
        let other = "SELECT COUNT(*) FROM t0 x, t1 y WHERE x.id = y.fk AND x.val < 21";
        let other = session.serve(other).unwrap();
        assert!(other.cache_hit);
        assert_eq!(other.cache, CacheOutcome::TemplateHit);
        // A different *structure* (operator) is a true miss.
        let op = "SELECT COUNT(*) FROM t0 x, t1 y WHERE x.id = y.fk AND x.val >= 21";
        assert_eq!(session.serve(op).unwrap().cache, CacheOutcome::Miss);
    }

    #[test]
    fn errors_surface_per_stage() {
        let (session, _) = session(2, 100);
        assert!(matches!(
            session.serve("SELEC nope"),
            Err(ServeError::Parse(_))
        ));
        assert!(matches!(
            session.serve("SELECT COUNT(*) FROM missing m"),
            Err(ServeError::Bind(_))
        ));
        let empty = QueryGraph::new(vec![], vec![], vec![], vec![], vec![]);
        assert!(matches!(
            session.serve_graph(&empty),
            Err(ServeError::Plan(OptError::EmptyQuery))
        ));
        // A planner error abandons the single-flight; the next probe of
        // the same graph must plan again rather than hang or hit.
        assert!(matches!(
            session.serve_graph(&empty),
            Err(ServeError::Plan(OptError::EmptyQuery))
        ));
        // Budget exhaustion surfaces as an execution error.
        let (tight, graph) = {
            let fixture = TestDb::chain(3, 300);
            let graph = with_count(chain_query(&fixture, 3));
            (
                QuerySession::traditional(fixture.db, fixture.stats)
                    .with_exec_config(ExecConfig::with_budget(10)),
                graph,
            )
        };
        assert!(matches!(
            tight.serve_graph(&graph),
            Err(ServeError::Exec(ExecError::BudgetExceeded { .. }))
        ));
    }

    #[test]
    fn set_planner_invalidates_and_reattributes() {
        let (mut session, graph) = session(3, 150);
        let dp = session.serve_graph(&graph).unwrap();
        assert_eq!(dp.method, PlannerMethod::DynamicProgramming);
        session.set_planner(Box::new(TraditionalPlanner::new().with_dp_threshold(0)));
        let greedy = session.serve_graph(&graph).unwrap();
        assert!(!greedy.cache_hit, "planner swap invalidates the cache");
        assert_eq!(greedy.method, PlannerMethod::Greedy);
        assert_eq!(
            greedy.outcome.rows, dp.outcome.rows,
            "strategies agree on results"
        );
        session.set_planner(Box::new(RandomPlanner::new(1)));
        let random = session.serve_graph(&graph).unwrap();
        assert_eq!(random.method, PlannerMethod::Random);
        assert_eq!(random.outcome.rows, dp.outcome.rows);
    }

    #[test]
    fn rebuild_stats_invalidates_the_cache() {
        let (mut session, graph) = session(3, 150);
        let _ = session.serve_graph(&graph).unwrap();
        assert!(session.serve_graph(&graph).unwrap().cache_hit);
        session.rebuild_stats();
        let after = session.serve_graph(&graph).unwrap();
        assert!(!after.cache_hit, "stats rebuild must invalidate");
        assert_eq!(session.cache_metrics().invalidations, 1);
    }

    #[test]
    fn refresh_after_mutation_rebuilds_indexes_stats_and_cache() {
        use hfqo_storage::catalog::TableId;
        use hfqo_storage::Value;
        let (mut session, graph) = session(2, 100);
        let _ = session.serve_graph(&graph).unwrap();
        assert!(session.serve_graph(&graph).unwrap().cache_hit);
        let t = TableId(0);
        let before = session.stats().table(t).row_count;
        // TestDb chains: t0(id, val).
        let next_id = session.db().table(t).unwrap().row_count() as i64;
        session
            .db_mut()
            .table_mut(t)
            .unwrap()
            .append_row(&[Value::Int(next_id), Value::Int(5)])
            .unwrap();
        session.refresh_after_mutation().unwrap();
        assert_eq!(session.stats().table(t).row_count, before + 1.0);
        let after = session.serve_graph(&graph).unwrap();
        assert!(!after.cache_hit, "mutation refresh must invalidate");
        assert_eq!(session.cache_metrics().invalidations, 1);
    }

    /// Which tables a refresh re-scans is read off the data versions:
    /// a table that did not move keeps the statistics it had (here a
    /// sentinel no scan would produce), one that moved gets a full
    /// rebuild's entry, and a refresh that finds nothing stale still
    /// invalidates the cache, once.
    #[test]
    fn refresh_rescans_only_tables_that_moved() {
        use hfqo_stats::build_database_stats;
        use hfqo_storage::catalog::TableId;
        use hfqo_storage::Value;
        let (mut session, _) = session(2, 100);
        let (t0, t1) = (TableId(0), TableId(1));
        let mut sentinel = session.stats().table(t1).clone();
        sentinel.row_count = -1.0;
        session.stats.set_table(t0, sentinel.clone());
        session.stats.set_table(t1, sentinel.clone());
        let versions = session.db().table_versions().to_vec();
        let next_id = session.db().table(t0).unwrap().row_count() as i64;
        session
            .db_mut()
            .table_mut(t0)
            .unwrap()
            .append_row(&[Value::Int(next_id), Value::Int(5)])
            .unwrap();
        assert_ne!(session.db().table_versions()[0], versions[0]);
        assert_eq!(session.db().table_versions()[1], versions[1]);

        session.refresh_after_mutation().unwrap();
        assert_eq!(session.stats().table(t1), &sentinel, "untouched table");
        assert_eq!(
            session.stats().table(t0),
            &database_table_stats(session.db(), t0)
        );
        assert_eq!(session.cache_metrics().invalidations, 1);

        session.stats.set_table(t0, sentinel.clone());
        session.refresh_after_mutation().unwrap();
        assert_eq!(session.stats().table(t0), &sentinel, "nothing was stale");
        assert_eq!(session.cache_metrics().invalidations, 2);

        session.rebuild_stats();
        assert_eq!(session.stats(), &build_database_stats(session.db()));
        assert_eq!(session.cache_metrics().invalidations, 3);
    }

    #[test]
    fn plan_returns_outcome_without_executing() {
        let (session, graph) = session(3, 150);
        let (first, outcome_a) = session.plan(&graph).unwrap();
        let (second, outcome_b) = session.plan(&graph).unwrap();
        assert_eq!(outcome_a, CacheOutcome::Miss);
        assert_eq!(outcome_b, CacheOutcome::ExactHit);
        assert!(!outcome_a.is_hit());
        assert!(outcome_b.is_hit());
        assert_eq!(first.plan, second.plan);
        assert_eq!(first.method, second.method);
    }

    /// Satellite regression: `with_cache_capacity` used to rebuild the
    /// cache from scratch, silently zeroing the accumulated metrics and
    /// resetting the invalidation epoch (so a pre-rebuild in-flight
    /// plan could slip past the epoch fence). Both must carry across.
    #[test]
    fn with_cache_capacity_carries_metrics_and_epoch() {
        let (session, graph) = session(3, 150);
        let _ = session.serve_graph(&graph).unwrap();
        let _ = session.serve_graph(&graph).unwrap();
        session.invalidate_cache();
        let before = session.cache_metrics();
        assert_eq!(
            (before.hits, before.misses, before.invalidations),
            (1, 1, 1)
        );
        let session = session.with_cache_capacity(64);
        let after = session.cache_metrics();
        assert_eq!(after.hits, before.hits, "hits survive the rebuild");
        assert_eq!(after.misses, before.misses, "misses survive the rebuild");
        assert_eq!(
            after.invalidations,
            before.invalidations + 1,
            "the rebuild itself counts as an invalidation"
        );
        assert_eq!(after.capacity, 64);
        assert_eq!(after.len, 0, "entries do not survive");
        // The epoch advanced, so the session keeps serving correctly.
        assert_eq!(
            session.serve_graph(&graph).unwrap().cache,
            CacheOutcome::Miss
        );
        assert!(session.serve_graph(&graph).unwrap().cache_hit);
    }

    // ---- the statement cache -------------------------------------

    // TestDb chains are t0(id, val), t1(id, fk, val), ….
    const TEXT: &str = "SELECT COUNT(*) FROM t0 a, t1 b WHERE a.id = b.fk AND a.val < 20";

    fn statement_counts(session: &QuerySession) -> (u64, u64, usize) {
        let m = session.cache_metrics();
        (m.statement_hits, m.statement_misses, m.statements)
    }

    /// Everything about a serve that must not depend on how the query
    /// reached the back half.
    fn assert_same_serve(a: &ServedQuery, b: &ServedQuery) {
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.method, b.method);
        assert_eq!(a.outcome.rows, b.outcome.rows);
        assert_eq!(a.outcome.stats.work, b.outcome.stats.work);
    }

    #[test]
    fn a_text_served_before_is_a_statement_hit_on_the_same_graph() {
        let (mut session, _) = session(2, 150);
        let log = Arc::new(ExperienceLog::new(8));
        session.set_experience_log(Some(Arc::clone(&log)));
        let first = session.serve(TEXT).unwrap();
        let again = session.serve(TEXT).unwrap();
        assert!(!first.statement_hit);
        assert!(again.statement_hit);
        assert!(Arc::ptr_eq(&first.graph, &again.graph), "bound once");
        assert_eq!(
            (first.cache, again.cache),
            (CacheOutcome::Miss, CacheOutcome::ExactHit)
        );
        assert_same_serve(&first, &again);
        assert_eq!(statement_counts(&session), (1, 1, 1));
        // Both experience records share that one graph.
        let records = log.drain(8);
        assert_eq!(records.len(), 2);
        assert!(Arc::ptr_eq(&records[0].graph, &records[1].graph));
        assert!(Arc::ptr_eq(&records[0].graph, &first.graph));
    }

    /// Text, prepared statement and shared graph are three ways into
    /// one back half. (`tests/serving.rs` repeats this over the whole
    /// JOB-like suite.)
    #[test]
    fn the_three_entry_points_agree() {
        let serve = |how: fn(&QuerySession) -> ServedQuery| {
            let (session, _) = session(2, 150);
            [how(&session), how(&session)]
        };
        let by_text = serve(|s| s.serve(TEXT).unwrap());
        let by_statement = serve(|s| s.serve_prepared(&s.prepare(TEXT).unwrap()).unwrap());
        let by_graph = serve(|s| {
            let graph = bind_select(&parse_select(TEXT).unwrap(), s.catalog()).unwrap();
            s.serve_shared(Arc::new(graph)).unwrap()
        });
        for other in [&by_statement, &by_graph] {
            for (a, b) in by_text.iter().zip(other) {
                assert_same_serve(a, b);
                assert_eq!(a.cache, b.cache);
                assert!(!b.statement_hit, "no text, no statement lookup");
            }
        }
        let (session, _) = session(2, 150);
        let prepared = session.prepare(TEXT).unwrap();
        assert_eq!(prepared.key(), PlanKey::of(prepared.graph()));
        assert_eq!(
            statement_counts(&session),
            (0, 0, 0),
            "prepare does not remember"
        );
    }

    #[test]
    fn another_spelling_is_a_statement_miss_and_a_plan_cache_exact_hit() {
        let (session, _) = session(2, 150);
        let first = session.serve(TEXT).unwrap();
        let spellings = [
            TEXT.to_lowercase().replace("count", "COUNT"),
            TEXT.replace(' ', "  "),
            TEXT.replace("a.", "x.").replace("t0 a", "t0 x"),
        ];
        for (i, sql) in spellings.iter().enumerate() {
            assert_ne!(sql, TEXT);
            let served = session.serve(sql).unwrap();
            assert!(!served.statement_hit, "{sql}");
            assert_eq!(served.cache, CacheOutcome::ExactHit, "{sql}");
            assert!(!Arc::ptr_eq(&served.graph, &first.graph));
            assert_same_serve(&served, &first);
            assert_eq!(statement_counts(&session), (0, 2 + i as u64, 2 + i));
        }
    }

    #[test]
    fn a_text_that_fails_is_never_remembered() {
        let (session, _) = session(2, 100);
        for sql in ["SELEC nope", "SELECT COUNT(*) FROM missing m"] {
            let first = session.serve(sql).unwrap_err();
            let again = session.serve(sql).unwrap_err();
            assert_eq!(first, again, "{sql}");
            assert!(matches!(first, ServeError::Parse(_) | ServeError::Bind(_)));
        }
        assert_eq!(statement_counts(&session), (0, 4, 0));
    }

    #[test]
    fn the_statement_bound_is_the_cache_capacity() {
        let (session, _) = session(2, 150);
        let session = session.with_cache_capacity(2);
        let texts: Vec<String> = (20..23)
            .map(|v| TEXT.replace("20", &v.to_string()))
            .collect();
        let mut reference: Vec<Option<ServedQuery>> = vec![None; texts.len()];
        // Round-robin through one text more than fits: the text about
        // to be served is always the one evicted last, so every serve
        // prepares again — and must come out as it did the first time.
        for round in 0..3 {
            for (sql, reference) in texts.iter().zip(&mut reference) {
                let served = session.serve(sql).unwrap();
                assert!(!served.statement_hit, "round {round}: {sql}");
                assert!(session.cache_metrics().statements <= 2);
                match reference {
                    None => *reference = Some(served),
                    Some(first) => {
                        assert_same_serve(&served, first);
                        assert_eq!(*served.graph, *first.graph);
                    }
                }
            }
        }
        assert_eq!(statement_counts(&session), (0, 9, 2));
        // The two most recent texts are the two remembered.
        assert!(session.serve(&texts[2]).unwrap().statement_hit);
        assert!(session.serve(&texts[1]).unwrap().statement_hit);
        assert!(!session.serve(&texts[0]).unwrap().statement_hit);
    }

    /// The one invalidation rule: a remembered graph holds the ids the
    /// catalog gave it, so handing the database out forgets it. Here
    /// the database is replaced by one whose `t0.val` is another column
    /// id; a remembered graph would filter on `fk1`.
    #[test]
    fn db_mut_forgets_statements_and_the_next_serve_binds_afresh() {
        use hfqo_storage::catalog::ColumnId;
        const SQL: &str = "SELECT COUNT(*) FROM t0 a WHERE a.val < 20";
        let (mut session, _) = session(2, 150);
        let before = session.serve(SQL).unwrap();
        assert!(session.serve(SQL).unwrap().statement_hit);
        assert_eq!(before.graph.selections()[0].column.column, ColumnId(1));

        // Stars are t0(id, fk1, val), t1(id, val).
        *session.db_mut() = TestDb::star(2, 150).db;
        session.rebuild_stats();
        assert_eq!(session.cache_metrics().statements, 0);
        let after = session.serve(SQL).unwrap();
        assert!(!after.statement_hit);
        assert_eq!(after.graph.selections()[0].column.column, ColumnId(2));
        let star = TestDb::star(2, 150);
        let fresh = QuerySession::traditional(star.db, star.stats);
        assert_same_serve(&after, &fresh.serve(SQL).unwrap());

        // A mutation that leaves the catalog alone pays the same
        // forgetting: the session cannot see what the borrower did.
        let _ = session.db_mut();
        assert!(!session.serve(SQL).unwrap().statement_hit);
    }

    /// Statistics, planner and plan-cache changes decide which plan a
    /// statement gets, not what the statement is.
    #[test]
    fn statistics_and_planner_changes_keep_statements() {
        let (mut session, _) = session(2, 150);
        let first = session.serve(TEXT).unwrap();
        type Change = fn(&mut QuerySession);
        let changes: [(&str, Change); 4] = [
            ("rebuild_stats", |s| s.rebuild_stats()),
            ("refresh_after_mutation", |s| {
                s.refresh_after_mutation().unwrap()
            }),
            ("set_planner", |s| {
                s.set_planner(Box::new(hfqo_opt::TraditionalPlanner::new()))
            }),
            ("invalidate_cache", |s| s.invalidate_cache()),
        ];
        for (what, change) in changes {
            change(&mut session);
            let served = session.serve(TEXT).unwrap();
            assert!(served.statement_hit, "{what} keeps the statement");
            assert_eq!(served.cache, CacheOutcome::Miss, "{what} drops the plan");
            assert!(Arc::ptr_eq(&served.graph, &first.graph));
            assert_same_serve(&served, &first);
        }
        assert_eq!(statement_counts(&session), (4, 1, 1));
    }

    #[test]
    fn statement_counters_carry_across_cache_rebuilds_and_the_bound_follows() {
        let (session, _) = session(2, 150);
        let texts: Vec<String> = (20..24)
            .map(|v| TEXT.replace("20", &v.to_string()))
            .collect();
        session.serve(&texts[0]).unwrap();
        session.serve(&texts[0]).unwrap();
        assert_eq!(statement_counts(&session), (1, 1, 1));
        let session = session.with_cache_capacity(3);
        assert_eq!(
            statement_counts(&session),
            (1, 1, 0),
            "counters stay, statements go"
        );
        for sql in &texts {
            session.serve(sql).unwrap();
        }
        assert_eq!(statement_counts(&session), (1, 5, 3), "bounded at 3");
        let session = session.with_cache_capacity(1);
        assert_eq!(statement_counts(&session), (1, 5, 0));
        session.serve(&texts[0]).unwrap();
        session.serve(&texts[1]).unwrap();
        assert_eq!(statement_counts(&session), (1, 7, 1), "bounded at 1");
    }
}
