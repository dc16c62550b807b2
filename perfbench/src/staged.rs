//! The staged serve: `QuerySession::serve` re-made from the public
//! calls it makes, in the order it makes them, on the benchmark's own
//! [`PlanCache`], with a span around each call.
//!
//! The program is not instrumented by this benchmark; this is how a
//! served query's time is attributed to crates from outside. Every
//! traced run first proves (`assert_same_as_session` in `run.rs`) that
//! the staged serve returns the plan, rows and `work` of
//! `QuerySession::serve` for each distinct query, so the spans measure
//! the same program.

use crate::ledger::span::Tracer;
use hfqo_exec::{execute, ExecConfig, ExecOutcome};
use hfqo_opt::{PlannedQuery, Planner, PlannerContext};
use hfqo_query::{
    bind_select, fingerprint, template_fingerprint, tree_to_actions, PhysicalPlan, QueryGraph,
};
use hfqo_serve::{
    CacheOutcome, CachedPlan, Experience, ExperienceLog, PlanCache, PlanKey, Probe, ServeError,
};
use hfqo_sql::parse_select;
use hfqo_stats::{selection_selectivities, StatsCatalog};
use hfqo_storage::Database;
use std::sync::Arc;
use std::time::Duration;

/// The parts of a `QuerySession` a serve reads.
pub struct ServeWorld<'a> {
    /// The database.
    pub db: &'a Database,
    /// Its statistics.
    pub stats: &'a StatsCatalog,
    /// The planning strategy.
    pub planner: &'a dyn Planner,
    /// Span name for planner runs: `opt.plan` or `rejoin.plan`.
    pub planner_span: &'static str,
    /// The benchmark's own plan cache.
    pub cache: &'a PlanCache,
    /// Execution configuration.
    pub exec: ExecConfig,
    /// Experience log, when the session records for online learning.
    pub log: Option<&'a ExperienceLog>,
}

/// What a staged serve returns (the fields of `ServedQuery` the
/// benchmark compares).
pub struct Staged {
    /// The plan that ran.
    pub plan: PhysicalPlan,
    /// How the cache answered.
    pub cache: CacheOutcome,
    /// Rows and execution statistics.
    pub outcome: ExecOutcome,
}

/// `QuerySession::plan`, staged.
pub fn plan(
    w: &ServeWorld<'_>,
    graph: &QueryGraph,
    t: &mut Tracer,
) -> Result<(PlannedQuery, CacheOutcome), ServeError> {
    let (template, _params) = t.leaf("query.fingerprint_template", || template_fingerprint(graph));
    let exact = t.leaf("query.fingerprint_exact", || fingerprint(graph));
    let key = PlanKey { template, exact };
    let current = t.leaf("stats.selectivity_signature", || {
        selection_selectivities(w.stats, graph)
    });
    match t.leaf("serve.cache.probe", || w.cache.probe(&key, &current)) {
        Probe::Hit { plan, outcome } => Ok((
            PlannedQuery {
                plan: plan.plan.clone(),
                cost: plan.cost,
                planning_time: Duration::ZERO,
                method: plan.method,
            },
            outcome,
        )),
        Probe::Plan {
            guard,
            epoch,
            outcome,
        } => {
            let planned = t.leaf(w.planner_span, || {
                let ctx = PlannerContext::new(w.db.catalog(), w.stats);
                w.planner.plan(&ctx, graph)
            })?;
            t.leaf("serve.cache.insert", || {
                let entry = Arc::new(CachedPlan {
                    plan: planned.plan.clone(),
                    cost: planned.cost,
                    method: planned.method,
                    selectivities: current,
                });
                w.cache.insert_if_current(&key, entry, epoch);
                drop(guard);
            });
            Ok((planned, outcome))
        }
    }
}

/// The planning half of a serve from SQL text: parse, bind, and
/// `QuerySession::plan`, staged. Nothing executes.
pub fn plan_sql(
    w: &ServeWorld<'_>,
    sql: &str,
    t: &mut Tracer,
) -> Result<(PlannedQuery, CacheOutcome), ServeError> {
    let root = t.enter("serve.total");
    let stmt = t.leaf("sql.parse", || parse_select(sql))?;
    let graph = t.leaf("query.bind", || bind_select(&stmt, w.db.catalog()))?;
    let planned = plan(w, &graph, t)?;
    t.exit(root);
    Ok(planned)
}

/// `QuerySession::serve_shared`, staged.
pub fn serve_shared(
    w: &ServeWorld<'_>,
    graph: Arc<QueryGraph>,
    t: &mut Tracer,
) -> Result<Staged, ServeError> {
    let root = t.enter("serve.total");
    let staged = plan_and_execute(w, graph, t)?;
    t.exit(root);
    Ok(staged)
}

/// `QuerySession::serve`, staged.
pub fn serve(w: &ServeWorld<'_>, sql: &str, t: &mut Tracer) -> Result<Staged, ServeError> {
    let root = t.enter("serve.total");
    let stmt = t.leaf("sql.parse", || parse_select(sql))?;
    let graph = t.leaf("query.bind", || bind_select(&stmt, w.db.catalog()))?;
    let staged = plan_and_execute(w, Arc::new(graph), t)?;
    t.exit(root);
    Ok(staged)
}

fn plan_and_execute(
    w: &ServeWorld<'_>,
    graph: Arc<QueryGraph>,
    t: &mut Tracer,
) -> Result<Staged, ServeError> {
    let (planned, cache) = plan(w, &graph, t)?;
    let outcome = t.leaf("exec.execute", || {
        execute(w.db, &graph, &planned.plan, w.exec)
    })?;
    if let Some(log) = w.log {
        t.leaf("serve.experience.push", || {
            log.push(Experience {
                graph: Arc::clone(&graph),
                decisions: tree_to_actions(&planned.plan.root.join_tree(), graph.relation_count()),
                executed_work: outcome.stats.work,
                elapsed: outcome.stats.elapsed,
                cost: planned.cost,
                method: planned.method,
                cache_hit: cache.is_hit(),
            })
        });
    }
    Ok(Staged {
        plan: planned.plan,
        cache,
        outcome,
    })
}
