//! `plan_cold_expert` and `plan_cold_learned`: parse, bind and plan
//! every JOB-like query against an invalidated cache; nothing executes.
//!
//! Why: this is the regime of the paper's Fig. 3c — planning time by
//! relation count, DP expert against learned inference. `sql`, `query`
//! and `opt` (or `rejoin` + `nn`) do all the work and `exec` none, so a
//! planner change shows here and on no other workload. The two arms are
//! two workloads so that each reports its own latency distribution.

use super::job::fixture;
use super::{cache_layers, shuffled, span_layers, Prepared, Traced, Verdict, Workload, WORLD_SEED};
use crate::ledger::span::Tracer;
use crate::ledger::stats::Segment;
use crate::ledger::Clock;
use crate::staged::{self, ServeWorld};
use hfqo_exec::ExecConfig;
use hfqo_opt::{Planner, PlannerContext, TraditionalPlanner};
use hfqo_query::{bind_select, PhysicalPlan};
use hfqo_rejoin::{Featurizer, LearnedPlanner, PolicyKind, ReJoinAgent};
use hfqo_serve::{CacheConfig, CacheOutcome, PlanCache, QuerySession};
use hfqo_sql::parse_select;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Largest relation count in the JOB-like suite: the featurizer's width.
const MAX_RELS: usize = 17;

/// Which planner the session holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arm {
    /// `TraditionalPlanner`: exhaustive DP below ten relations, greedy
    /// from ten up.
    Expert,
    /// A frozen, seed-initialised `LearnedPlanner`. Planning time does
    /// not depend on how well the policy was trained.
    Learned,
}

impl Arm {
    fn planner(self) -> Box<dyn Planner> {
        match self {
            Arm::Expert => Box::new(TraditionalPlanner::new()),
            Arm::Learned => {
                let featurizer = Featurizer::new(MAX_RELS);
                let agent = ReJoinAgent::new(
                    featurizer.state_dim(),
                    featurizer.action_dim(),
                    PolicyKind::default_reinforce(),
                    &mut StdRng::seed_from_u64(WORLD_SEED),
                );
                Box::new(LearnedPlanner::freeze(&agent, featurizer).with_require_connected(true))
            }
        }
    }

    fn span(self) -> &'static str {
        match self {
            Arm::Expert => "opt.plan",
            Arm::Learned => "rejoin.plan",
        }
    }
}

/// The op list: all 113 SQL texts, in a seed-decided order.
pub struct Inputs {
    arm: Arm,
    smoke: bool,
    order: Vec<usize>,
}

impl Inputs {
    /// Decides the order.
    pub fn prepare(arm: Arm, seed: u64, smoke: bool) -> Self {
        let (_, _, suite) = fixture(smoke);
        Self {
            arm,
            smoke,
            order: shuffled(suite.len(), seed),
        }
    }
}

impl Prepared for Inputs {
    fn build(&self) -> Box<dyn Workload + '_> {
        let (db, stats, suite) = fixture(self.smoke);
        let session = QuerySession::new(db, stats, self.arm.planner());
        // The warm pass: every query planned once, through the session,
        // each from an empty cache (variants of one JOB family share a
        // template and would otherwise be handed each other's plans).
        let ops = suite
            .into_iter()
            .map(|q| {
                session.invalidate_cache();
                let (planned, _) = session.plan(&q.graph).expect("every suite query plans");
                Op {
                    sql: q.sql,
                    rels: q.graph.relation_count() as u8,
                    plan: planned.plan,
                }
            })
            .collect();
        Box::new(World {
            inputs: self,
            session,
            ops,
            planner: self.arm.planner(),
            staged_cache: PlanCache::with_config(CacheConfig::default()),
            passes: 0,
            failed: 0,
        })
    }
}

struct Op {
    sql: String,
    rels: u8,
    plan: PhysicalPlan,
}

struct World<'a> {
    inputs: &'a Inputs,
    session: QuerySession,
    ops: Vec<Op>,
    /// A second instance of the arm's planner, for the staged serve and
    /// for the oracle (planners are deterministic).
    planner: Box<dyn Planner>,
    staged_cache: PlanCache,
    passes: u64,
    failed: u64,
}

impl World<'_> {
    fn staged(&self) -> ServeWorld<'_> {
        ServeWorld {
            db: self.session.db(),
            stats: self.session.stats(),
            planner: self.planner.as_ref(),
            planner_span: self.inputs.arm.span(),
            cache: &self.staged_cache,
            exec: ExecConfig::default(),
            log: None,
        }
    }
}

impl Workload for World<'_> {
    fn pass(&mut self, clock: Clock) -> Segment {
        let mut seg = Segment::default();
        for &i in &self.inputs.order {
            let op = &self.ops[i];
            // Untimed: only a fresh invalidation makes every op a cold
            // miss (see the warm pass).
            self.session.invalidate_cache();
            let start = clock();
            let planned = parse_select(&op.sql)
                .map_err(|e| e.to_string())
                .and_then(|stmt| {
                    bind_select(&stmt, self.session.catalog()).map_err(|e| e.to_string())
                })
                .and_then(|graph| self.session.plan(&graph).map_err(|e| e.to_string()));
            let elapsed = clock() - start;
            seg.busy_ns += elapsed;
            seg.latencies_us.push(elapsed as f64 / 1e3);
            let ok = planned
                .is_ok_and(|(p, outcome)| outcome == CacheOutcome::Miss && p.plan == op.plan);
            self.failed += u64::from(!ok);
        }
        self.passes += 1;
        seg
    }

    fn trace(&mut self, clock: Clock, deadline: u64) -> Result<Traced, String> {
        let mut scratch = Tracer::new(clock);
        for op in &self.ops {
            self.staged_cache.invalidate();
            scratch.next_op(0);
            let (planned, outcome) = staged::plan_sql(&self.staged(), &op.sql, &mut scratch)
                .map_err(|e| format!("staged plan failed: {e}"))?;
            if planned.plan != op.plan || outcome != CacheOutcome::Miss {
                return Err(format!(
                    "staged plan differs from QuerySession::plan on {}",
                    op.sql
                ));
            }
        }

        let mut tracer = Tracer::new(clock);
        let mut busy_ns = 0u64;
        let before = self.staged_cache.metrics();
        loop {
            for &i in &self.inputs.order {
                let op = &self.ops[i];
                self.staged_cache.invalidate();
                tracer.next_op(op.rels);
                let start = clock();
                let planned = staged::plan_sql(&self.staged(), &op.sql, &mut tracer);
                busy_ns += clock() - start;
                let ok = planned.is_ok_and(|(p, _)| p.plan == op.plan);
                self.failed += u64::from(!ok);
            }
            self.passes += 1;
            if clock() >= deadline {
                break;
            }
        }
        let ops = u64::from(tracer.ops());
        let mut layers = span_layers(&tracer, ops);
        layers.merge(cache_layers(&before, &self.staged_cache.metrics(), ops));
        layers.set("bench.ops_per_pass", self.ops.len() as f64);
        layers.set("bench.clients", 1.0);
        Ok(Traced {
            tracer,
            qps: ops as f64 / (busy_ns as f64 / 1e9),
            layers,
        })
    }

    fn verify(&mut self) -> Verdict {
        let mut verdict = Verdict {
            attempted: self.passes * self.ops.len() as u64,
            failed: self.failed,
            notes: Vec::new(),
        };
        if self.failed > 0 {
            verdict.notes.push(format!(
                "{} op(s) errored, hit the cache, or changed plan",
                self.failed
            ));
        }
        // Nothing executes, so the oracle is the planner called
        // directly, past the session and its cache: the plan must be the
        // one the session served, and valid for its query.
        let ctx = PlannerContext::new(self.session.catalog(), self.session.stats());
        for op in &self.ops {
            let agrees = parse_select(&op.sql)
                .ok()
                .and_then(|stmt| bind_select(&stmt, self.session.catalog()).ok())
                .is_some_and(|graph| {
                    op.plan.validate(&graph).is_ok()
                        && self
                            .planner
                            .plan(&ctx, &graph)
                            .is_ok_and(|p| p.plan == op.plan)
                });
            if !agrees {
                verdict.failed += self.passes;
                verdict
                    .notes
                    .push(format!("direct planning disagrees on {}", op.sql));
            }
        }
        verdict
    }
}
