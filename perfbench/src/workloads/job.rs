//! `job_warm`: the JOB-like suite served from a warm plan cache.
//!
//! Why: this is the steady state a deployed session lives in. Every op
//! is an exact cache hit, so the planner does nothing and `exec` is
//! nearly all of each op — executor work shows here and planner work
//! must not.
//!
//! The session runs the serial pull pipeline. The morsel-parallel
//! evaluator is a second implementation of the same operators; a traced
//! run also executes every op's plan on it, at one thread per core, and
//! reports that as `exec.parallel.*` beside the serial figures, so a
//! change that helps one engine at the other's expense shows, and the
//! two engines' `work` is held equal to the unit. It is not a workload
//! of its own: its latency on small queries is thread wake-up time,
//! which on the measuring hosts sits at one of two levels for minutes at
//! a time (p50 of the whole list 386–400 µs in one battery, 745–849 µs
//! in the next, serial figures unchanged), so a bound on it would gate
//! on the hypervisor's idle policy.

use super::{cache_layers, exec_layers, nproc, scaled, shuffled, sorted, span_layers};
use super::{Prepared, Traced, Verdict, Workload, WORLD_SEED};
use crate::ledger::report::{Metrics, PER_LAYER};
use crate::ledger::span::Tracer;
use crate::ledger::stats::Segment;
use crate::ledger::Clock;
use crate::staged::{self, ServeWorld};
use hfqo_exec::{execute, execute_rows, ExecConfig, Row};
use hfqo_opt::TraditionalPlanner;
use hfqo_query::{PhysicalPlan, QueryGraph};
use hfqo_serve::{CacheConfig, PlanCache, QuerySession};
use hfqo_workload::imdb::{build_imdb, ImdbConfig};
use hfqo_workload::job::{generate_job_suite, JobQuery};
use std::sync::Arc;

/// Rows per IMDB-like base table.
pub const BASE_ROWS: usize = 300;

/// The fixture database and the JOB-like suite over it.
pub fn fixture(
    smoke: bool,
) -> (
    hfqo_storage::Database,
    hfqo_stats::StatsCatalog,
    Vec<JobQuery>,
) {
    let (db, stats) = build_imdb(ImdbConfig {
        base_rows: BASE_ROWS,
        seed: WORLD_SEED,
    });
    let mut suite = generate_job_suite(db.catalog(), WORLD_SEED);
    suite.truncate(scaled(suite.len(), smoke));
    (db, stats, suite)
}

fn session(smoke: bool) -> (QuerySession, Vec<JobQuery>) {
    let (db, stats, suite) = fixture(smoke);
    (QuerySession::traditional(db, stats), suite)
}

/// The op list: the suite's queries whose expert plan fits the default
/// work budget, in a seed-decided order.
pub struct Inputs {
    smoke: bool,
    /// Suite positions of the servable queries.
    servable: Vec<usize>,
    /// Queries left out because their expert plan exceeds the budget.
    excluded: usize,
    /// Order the servable queries are sent in, one pass.
    order: Vec<usize>,
}

impl Inputs {
    /// Finds the servable queries by serving the whole suite once on a
    /// world of its own.
    pub fn prepare(seed: u64, smoke: bool) -> Self {
        let (session, suite) = session(smoke);
        let servable: Vec<usize> = (0..suite.len())
            .filter(|&i| session.serve(&suite[i].sql).is_ok())
            .collect();
        Self {
            smoke,
            excluded: suite.len() - servable.len(),
            order: shuffled(servable.len(), seed),
            servable,
        }
    }
}

impl Prepared for Inputs {
    fn build(&self) -> Box<dyn Workload + '_> {
        let (session, suite) = session(self.smoke);
        // The warm pass: plans and caches every op, and records what
        // each returns so timed ops can be checked cheaply.
        let ops = self
            .servable
            .iter()
            .map(|&i| {
                let served = session
                    .serve(&suite[i].sql)
                    .expect("servable at prepare time");
                Op {
                    sql: suite[i].sql.clone(),
                    graph: served.graph,
                    plan: served.plan,
                    rows: sorted(served.outcome.rows),
                    work: served.outcome.stats.work,
                }
            })
            .collect();
        Box::new(World {
            inputs: self,
            session,
            ops,
            expert: TraditionalPlanner::new(),
            staged_cache: PlanCache::with_config(CacheConfig::default()),
            passes: 0,
            parallel_ops: 0,
            failed: 0,
        })
    }
}

struct Op {
    sql: String,
    graph: Arc<QueryGraph>,
    plan: PhysicalPlan,
    rows: Vec<Row>,
    work: u64,
}

struct World<'a> {
    inputs: &'a Inputs,
    session: QuerySession,
    ops: Vec<Op>,
    expert: TraditionalPlanner,
    staged_cache: PlanCache,
    passes: u64,
    /// Ops executed on the parallel evaluator by traced runs.
    parallel_ops: u64,
    failed: u64,
}

impl World<'_> {
    fn staged(&self) -> ServeWorld<'_> {
        ServeWorld {
            db: self.session.db(),
            stats: self.session.stats(),
            planner: &self.expert,
            planner_span: "opt.plan",
            cache: &self.staged_cache,
            exec: ExecConfig::default(),
            log: None,
        }
    }

    /// Every op's plan once on the morsel-parallel evaluator, one thread
    /// per core, timed around `execute` alone.
    fn parallel_pass(&mut self, clock: Clock) -> Metrics {
        let config = ExecConfig::default().threads(nproc());
        let (mut busy_ns, mut work) = (0u64, 0u64);
        for op in &self.ops {
            let start = clock();
            let outcome = execute(self.session.db(), &op.graph, &op.plan, config);
            busy_ns += clock() - start;
            if outcome.is_ok_and(|o| o.stats.work == op.work && sorted(o.rows) == op.rows) {
                work += op.work;
            } else {
                self.failed += 1;
            }
        }
        self.parallel_ops += self.ops.len() as u64;
        let mut m = Metrics::new(PER_LAYER);
        let per_op = self.ops.len().max(1) as f64;
        m.set("exec.parallel.us_per_op", busy_ns as f64 / 1e3 / per_op);
        m.set("exec.parallel.work_per_op", work as f64 / per_op);
        m.set(
            "exec.parallel.ns_per_work",
            busy_ns as f64 / work.max(1) as f64,
        );
        m.set("exec.parallel.threads", config.threads as f64);
        m
    }
}

impl Workload for World<'_> {
    fn pass(&mut self, clock: Clock) -> Segment {
        let mut seg = Segment::default();
        for &i in &self.inputs.order {
            let op = &self.ops[i];
            let start = clock();
            let served = self.session.serve(&op.sql);
            let elapsed = clock() - start;
            seg.busy_ns += elapsed;
            seg.latencies_us.push(elapsed as f64 / 1e3);
            let ok = served.is_ok_and(|s| {
                s.cache_hit
                    && s.outcome.rows.len() == op.rows.len()
                    && s.outcome.stats.work == op.work
            });
            self.failed += u64::from(!ok);
        }
        self.passes += 1;
        seg
    }

    fn trace(&mut self, clock: Clock, deadline: u64) -> Result<Traced, String> {
        // Proof first; it also warms the staged cache.
        let mut scratch = Tracer::new(clock);
        for op in &self.ops {
            scratch.next_op(0);
            let staged = staged::serve(&self.staged(), &op.sql, &mut scratch)
                .map_err(|e| format!("staged serve failed: {e}"))?;
            if staged.plan != op.plan
                || sorted(staged.outcome.rows) != op.rows
                || staged.outcome.stats.work != op.work
            {
                return Err(format!(
                    "staged serve differs from QuerySession::serve on {}",
                    op.sql
                ));
            }
        }

        let mut tracer = Tracer::new(clock);
        let (mut busy_ns, mut work, mut rows_out) = (0u64, 0u64, 0u64);
        let before = self.staged_cache.metrics();
        loop {
            for &i in &self.inputs.order {
                let op = &self.ops[i];
                tracer.next_op(op.graph.relation_count() as u8);
                let start = clock();
                let staged = staged::serve(&self.staged(), &op.sql, &mut tracer);
                busy_ns += clock() - start;
                match staged {
                    Ok(s) if s.outcome.stats.work == op.work => {
                        work += s.outcome.stats.work;
                        rows_out += s.outcome.rows.len() as u64;
                    }
                    _ => self.failed += 1,
                }
            }
            self.passes += 1;
            if clock() >= deadline {
                break;
            }
        }
        let ops = u64::from(tracer.ops());
        let mut layers = span_layers(&tracer, ops);
        layers.merge(cache_layers(&before, &self.staged_cache.metrics(), ops));
        layers.merge(exec_layers(&tracer, work, rows_out, ops));
        layers.merge(self.parallel_pass(clock));
        layers.set("bench.ops_per_pass", self.ops.len() as f64);
        layers.set("bench.ops_excluded", self.inputs.excluded as f64);
        layers.set("bench.clients", 1.0);
        Ok(Traced {
            tracer,
            qps: ops as f64 / (busy_ns as f64 / 1e9),
            layers,
        })
    }

    fn verify(&mut self) -> Verdict {
        let mut verdict = Verdict {
            attempted: self.passes * self.ops.len() as u64 + self.parallel_ops,
            failed: self.failed,
            notes: Vec::new(),
        };
        if self.failed > 0 {
            verdict.notes.push(format!(
                "{} op(s) errored, missed the cache, or changed rows or work",
                self.failed
            ));
        }
        // The row engine is an independent implementation of every
        // operator; serial, same budget.
        for op in &self.ops {
            let oracle = execute_rows(
                self.session.db(),
                &op.graph,
                &op.plan,
                ExecConfig::default(),
            );
            let agrees = oracle.is_ok_and(|o| o.stats.work == op.work && sorted(o.rows) == op.rows);
            if !agrees {
                verdict.failed += self.passes;
                verdict
                    .notes
                    .push(format!("row engine disagrees on {}", op.sql));
            }
        }
        verdict
    }
}
