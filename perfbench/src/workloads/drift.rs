//! `online_drift`: the scripted `DriftScenario::imdb_job` world — ten
//! 4–7-relation templates under online training, hit by append growth,
//! a skew shift, a new template and a bulk delete — repeated back to
//! back.
//!
//! Why: this is the write side of the system, which no other workload
//! touches: experience push, policy-gradient step, hot swap
//! invalidating the cache, data mutation and statistics rebuild beside
//! live reads, and learned plans of varying quality.
//!
//! The loop below is `DriftHarness::run` re-made from the public calls
//! it makes (`QuerySession`, `OnlineTrainer::attach` / `step`,
//! `apply_mutation`, `refresh_after_mutation`), so that each serve and
//! each step can be timed from outside. It must reach parity in exactly
//! the generations the library harness does; `verify` checks that
//! against the library's own run. The scenario is scripted, so this
//! workload's inputs are the same at every seed.

use super::{cache_layers, exec_layers, sorted, span_layers, Prepared, Traced, Verdict, Workload};
use crate::ledger::span::{self_times, Tracer};
use crate::ledger::stats::{median, Segment};
use crate::ledger::Clock;
use crate::staged::{self, ServeWorld};
use hfqo_exec::{execute_rows, Row};
use hfqo_query::{PhysicalPlan, QueryGraph};
use hfqo_rejoin::{Featurizer, PolicyKind, ReJoinAgent};
use hfqo_serve::{
    CacheConfig, HotSwapPlanner, OnlineConfig, OnlineTrainer, PlanCache, QuerySession,
};
use hfqo_workload::{apply_mutation, DriftConfig, DriftScenario, Shock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Hot swaps timed at the end of each traced repetition.
const SWAP_PROBES: usize = 8;

/// The scripted scenario has no seed-derived inputs.
pub struct Inputs;

impl Prepared for Inputs {
    fn build(&self) -> Box<dyn Workload + '_> {
        // The first repetition is the warm pass: untimed, it fixes what
        // every later repetition must reproduce.
        let first = repetition(|| 0, How::Session, Check::Expert);
        Box::new(World {
            expected: first.signature(),
            serves: 0,
            step_us: Vec::new(),
            failed: first.failed,
        })
    }
}

/// One phase's recovery: `(label, generations to parity, last p95)`.
type Phase = (String, Option<u64>, f64);

/// What a repetition must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
struct Signature {
    phases: Vec<Phase>,
    learned_work: u64,
    expert_work: u64,
}

struct World {
    /// What the first repetition did, which every other must repeat.
    expected: Signature,
    /// Learned-session serves so far.
    serves: u64,
    /// `OnlineTrainer::step` latencies from untraced repetitions, µs.
    step_us: Vec<f64>,
    failed: u64,
}

impl World {
    fn absorb(&mut self, rep: &Rep) {
        self.serves += rep.serve_us.len() as u64;
        self.failed += rep.failed;
        if rep.signature() != self.expected {
            // A repetition that took another path is wrong throughout.
            self.failed += rep.serve_us.len() as u64;
        }
    }
}

impl Workload for World {
    fn pass(&mut self, clock: Clock) -> Segment {
        let rep = repetition(clock, How::Session, Check::Expert);
        self.absorb(&rep);
        self.step_us.extend_from_slice(&rep.step_us);
        Segment {
            latencies_us: rep.serve_us,
            busy_ns: rep.busy_ns,
        }
    }

    fn trace(&mut self, clock: Clock, deadline: u64) -> Result<Traced, String> {
        // Proof: the whole scenario through each entry point, compared
        // serve by serve.
        let real = repetition(clock, How::Session, Check::Record);
        let mut scratch = Tracer::new(clock);
        let cache = PlanCache::with_config(CacheConfig::default());
        let staged = repetition(clock, How::Staged(&mut scratch, &cache), Check::Record);
        if real.signature() != staged.signature() || real.record != staged.record {
            return Err(
                "staged serve differs from QuerySession::serve_shared on online_drift".into(),
            );
        }

        let mut tracer = Tracer::new(clock);
        let before = cache.metrics();
        let (mut busy_ns, mut serves, mut work) = (0u64, 0u64, 0u64);
        let (mut steps, mut episodes, mut generations, mut dropped) = (0u64, 0u64, 0u64, 0u64);
        let mut reps = 0u64;
        loop {
            let rep = repetition(clock, How::Staged(&mut tracer, &cache), Check::Expert);
            self.absorb(&rep);
            busy_ns += rep.busy_ns;
            serves += rep.serve_us.len() as u64;
            work += rep.learned_work;
            steps += rep.step_us.len() as u64;
            episodes += rep.episodes;
            generations += rep.generations;
            dropped += rep.dropped;
            reps += 1;
            if clock() >= deadline {
                break;
            }
        }
        let st = self_times(tracer.spans());
        let per_call = |name: &str| {
            st.get(name)
                .map_or(0.0, |s| s.self_ns as f64 / 1e3 / s.calls.max(1) as f64)
        };
        let mut layers = span_layers(&tracer, serves);
        layers.merge(cache_layers(&before, &cache.metrics(), serves));
        layers.merge(exec_layers(&tracer, work, serves, serves));
        layers.set(
            "serve.online.step.us_per_call",
            per_call("serve.online.step"),
        );
        layers.set(
            "serve.online.swap.us_per_call",
            per_call("serve.online.swap"),
        );
        layers.set("serve.refresh.us_per_call", per_call("serve.refresh"));
        layers.set(
            "workload.drift.mutate.us_per_call",
            per_call("workload.drift.mutate"),
        );
        layers.set(
            "serve.online.episodes_per_step",
            episodes as f64 / steps.max(1) as f64,
        );
        layers.set("serve.online.generations", generations as f64 / reps as f64);
        layers.set("serve.experience.dropped", dropped as f64);
        if !self.step_us.is_empty() {
            layers.set("serve.online.step.p50_us", median(&mut self.step_us));
        }
        layers.set(
            "serve.online.generations_to_parity",
            self.expected.phases.iter().filter_map(|p| p.1).sum::<u64>() as f64,
        );
        layers.set(
            "serve.online.work_ratio_vs_expert",
            self.expected.learned_work as f64 / self.expected.expert_work as f64,
        );
        layers.set("bench.ops_per_pass", real.serve_us.len() as f64);
        layers.set("bench.clients", 1.0);
        Ok(Traced {
            tracer,
            qps: serves as f64 / (busy_ns as f64 / 1e9),
            layers,
        })
    }

    fn verify(&mut self) -> Verdict {
        let mut verdict = Verdict {
            attempted: self.serves,
            failed: self.failed,
            notes: Vec::new(),
        };
        if self.failed > 0 {
            verdict.notes.push(format!(
                "{} serve(s) errored, disagreed with the expert session, or belonged to a \
                 repetition that did not reproduce the first",
                self.failed
            ));
        }
        // One more repetition with the row engine checking every
        // reference the expert session produces.
        let oracle = repetition(|| 0, How::Session, Check::RowEngine);
        if oracle.failed > 0 || oracle.signature() != self.expected {
            verdict.failed = verdict.attempted;
            verdict
                .notes
                .push("row engine disagrees with the expert session".into());
        }
        // The library's own harness must recover in the same generations
        // with the same final p95: its golden log pins both.
        let golden = DriftScenario::imdb_job().run();
        let golden: Vec<Phase> = std::iter::once(&golden.warmup)
            .chain(&golden.shocks)
            .map(|r| (r.label.clone(), r.generations_to_parity, r.final_p95_ms()))
            .collect();
        if golden != self.expected.phases {
            verdict.failed = verdict.attempted;
            verdict.notes.push(format!(
                "recovery differs from DriftScenario::imdb_job().run(): {:?} vs {golden:?}",
                self.expected.phases
            ));
        }
        verdict
    }
}

/// What a repetition checks beyond learned rows against the expert
/// session's.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Check {
    /// Nothing more.
    Expert,
    /// Also keep every serve's plan, rows and work, for the proof.
    Record,
    /// Also check every expert reference against the row engine.
    RowEngine,
}

/// Which entry point serves the learned session's queries.
enum How<'a> {
    /// `QuerySession::serve_shared`.
    Session,
    /// The staged serve, on this cache, recording into this tracer.
    Staged(&'a mut Tracer, &'a PlanCache),
}

/// What one run of the scenario observed.
struct Rep {
    serve_us: Vec<f64>,
    step_us: Vec<f64>,
    /// Sum of every timed call: serves, steps, mutations, refreshes.
    busy_ns: u64,
    learned_work: u64,
    expert_work: u64,
    phases: Vec<Phase>,
    episodes: u64,
    generations: u64,
    dropped: u64,
    failed: u64,
    /// Every serve's plan, rows and work, when asked for.
    record: Option<Vec<(PhysicalPlan, Vec<Row>, u64)>>,
}

impl Rep {
    fn signature(&self) -> Signature {
        Signature {
            phases: self.phases.clone(),
            learned_work: self.learned_work,
            expert_work: self.expert_work,
        }
    }
}

/// The harness's percentile (nearest rank), kept as it is there: parity
/// is decided on it, so the interpolating one would change the
/// generations.
fn nearest_rank(mut values: Vec<f64>, p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[((values.len() as f64 - 1.0) * p).round() as usize]
}

/// The state of one run of the scenario.
struct Run<'a> {
    clock: Clock,
    how: How<'a>,
    config: DriftConfig,
    learned: QuerySession,
    expert: QuerySession,
    trainer: OnlineTrainer,
    planner: HotSwapPlanner,
    queries: Vec<Arc<QueryGraph>>,
    check: Check,
    rep: Rep,
}

/// Runs the whole scripted scenario once.
fn repetition(clock: Clock, how: How<'_>, check: Check) -> Rep {
    let DriftScenario {
        db,
        stats,
        queries,
        shocks,
        config,
    } = DriftScenario::imdb_job();
    let expert = QuerySession::traditional(db.clone(), stats.clone()).with_exec_config(config.exec);
    let mut learned = QuerySession::traditional(db, stats).with_exec_config(config.exec);
    let featurizer = Featurizer::new(config.max_rels);
    let agent = ReJoinAgent::new(
        featurizer.state_dim(),
        featurizer.action_dim(),
        PolicyKind::default_reinforce(),
        &mut StdRng::seed_from_u64(config.agent_seed),
    );
    let online = OnlineConfig {
        swap_every: config.swap_every,
        drain_batch: config.drain_batch,
        ms_per_unit: config.ms_per_unit,
        ..OnlineConfig::default()
    };
    let trainer = OnlineTrainer::attach(&mut learned, agent, featurizer, true, online);
    if let How::Staged(_, cache) = &how {
        // A session starts each repetition with an empty cache.
        cache.invalidate();
    }
    let mut run = Run {
        clock,
        how,
        planner: HotSwapPlanner::new(Arc::clone(trainer.handle())),
        learned,
        expert,
        trainer,
        queries: queries.into_iter().map(Arc::new).collect(),
        rep: Rep {
            serve_us: Vec::new(),
            step_us: Vec::new(),
            busy_ns: 0,
            learned_work: 0,
            expert_work: 0,
            phases: Vec::new(),
            episodes: 0,
            generations: 0,
            dropped: 0,
            failed: 0,
            record: (check == Check::Record).then(Vec::new),
        },
        check,
        config,
    };
    run.recover("warmup", run.config.warmup_rounds);
    for shock in &shocks {
        run.apply_shock(shock);
    }
    run.rep.generations = run.trainer.generation();
    run.rep.dropped = run.trainer.log().metrics().dropped;
    if let How::Staged(tracer, _) = &mut run.how {
        for _ in 0..SWAP_PROBES {
            tracer.next_op(0);
            tracer.leaf("serve.online.swap", || run.trainer.swap(&run.learned));
        }
    }
    run.rep
}

impl Run<'_> {
    /// Times `call`, charges it to the repetition, and records a span of
    /// its own op when tracing.
    fn timed<T>(&mut self, span: &'static str, call: impl FnOnce(&mut Self) -> T) -> (T, u64) {
        // Steps, mutations and refreshes are ops of their own in the
        // span file; they join no relations.
        let id = match &mut self.how {
            How::Staged(tracer, _) => {
                tracer.next_op(0);
                Some(tracer.enter(span))
            }
            How::Session => None,
        };
        let start = (self.clock)();
        let out = call(self);
        let elapsed = (self.clock)() - start;
        if let (Some(id), How::Staged(tracer, _)) = (id, &mut self.how) {
            tracer.exit(id);
        }
        self.rep.busy_ns += elapsed;
        (out, elapsed)
    }

    fn step(&mut self) {
        let (step, elapsed) = self.timed("serve.online.step", |run| run.trainer.step(&run.learned));
        self.rep.step_us.push(elapsed as f64 / 1e3);
        self.rep.episodes += step.trained as u64;
        if let (How::Staged(_, cache), true) = (&self.how, step.swapped()) {
            // The trainer invalidated the session's cache; the staged
            // serve's cache is the benchmark's and follows suit.
            cache.invalidate();
        }
    }

    /// The expert's rows and work for every current query, and its p95.
    fn reference(&mut self) -> (Vec<(Vec<Row>, u64)>, f64) {
        let mut out = Vec::with_capacity(self.queries.len());
        for q in &self.queries {
            let served = self
                .expert
                .serve_shared(Arc::clone(q))
                .expect("expert serves");
            let (rows, work) = (sorted(served.outcome.rows), served.outcome.stats.work);
            if self.check == Check::RowEngine {
                let oracle = execute_rows(self.expert.db(), q, &served.plan, self.config.exec);
                let agrees = oracle.is_ok_and(|o| o.stats.work == work && sorted(o.rows) == rows);
                self.rep.failed += u64::from(!agrees);
            }
            out.push((rows, work));
        }
        let latencies = out
            .iter()
            .map(|(_, work)| *work as f64 * self.config.ms_per_unit)
            .collect();
        (out, nearest_rank(latencies, 0.95))
    }

    /// Serves every query once through the learned session; returns the
    /// round's work-derived p95.
    fn serve_round(&mut self, reference: &[(Vec<Row>, u64)]) -> f64 {
        let mut latencies = Vec::with_capacity(self.queries.len());
        for (i, (rows, expert_work)) in reference.iter().enumerate() {
            let q = Arc::clone(&self.queries[i]);
            let start = (self.clock)();
            let served = match &mut self.how {
                How::Session => self
                    .learned
                    .serve_shared(q)
                    .map(|s| (s.plan, s.outcome.rows, s.outcome.stats.work)),
                How::Staged(tracer, cache) => {
                    tracer.next_op(q.relation_count() as u8);
                    let world = ServeWorld {
                        db: self.learned.db(),
                        stats: self.learned.stats(),
                        planner: &self.planner,
                        planner_span: "rejoin.plan",
                        cache,
                        exec: self.config.exec,
                        log: Some(self.trainer.log()),
                    };
                    staged::serve_shared(&world, q, tracer)
                        .map(|s| (s.plan, s.outcome.rows, s.outcome.stats.work))
                }
            };
            let elapsed = (self.clock)() - start;
            self.rep.busy_ns += elapsed;
            self.rep.serve_us.push(elapsed as f64 / 1e3);
            let work = match served {
                Ok((plan, got, work)) => {
                    let got = sorted(got);
                    self.rep.failed += u64::from(&got != rows);
                    if let Some(record) = &mut self.rep.record {
                        record.push((plan, got, work));
                    }
                    work
                }
                Err(_) => {
                    self.rep.failed += 1;
                    self.config.exec.work_budget
                }
            };
            self.rep.learned_work += work;
            self.rep.expert_work += expert_work;
            latencies.push(work as f64 * self.config.ms_per_unit);
        }
        nearest_rank(latencies, 0.95)
    }

    fn recover(&mut self, label: &str, max_rounds: usize) {
        let (reference, expert_p95) = self.reference();
        let start_generation = self.trainer.generation();
        let mut to_parity = None;
        let mut last_p95 = expert_p95;
        for _ in 0..max_rounds {
            last_p95 = self.serve_round(&reference);
            if last_p95 <= self.config.parity_factor * expert_p95 {
                to_parity = Some(self.trainer.generation() - start_generation);
                break;
            }
            self.step();
        }
        self.rep
            .phases
            .push((label.to_string(), to_parity, last_p95));
    }

    fn apply_shock(&mut self, shock: &Shock) {
        for m in &shock.mutations {
            self.timed("workload.drift.mutate", |run| {
                apply_mutation(run.learned.db_mut(), m).expect("valid mutation script")
            });
            apply_mutation(self.expert.db_mut(), m).expect("valid mutation script");
        }
        self.expert
            .refresh_after_mutation()
            .expect("expert refresh");
        self.queries
            .extend(shock.new_queries.iter().cloned().map(Arc::new));
        if !shock.mutations.is_empty() {
            // Rounds on stale statistics: results must stay right, only
            // plan quality lags.
            let (reference, _) = self.reference();
            for _ in 0..self.config.stats_lag_rounds {
                self.serve_round(&reference);
                self.step();
            }
        }
        self.timed("serve.refresh", |run| {
            run.learned
                .refresh_after_mutation()
                .expect("learned refresh")
        });
        if let How::Staged(_, cache) = &self.how {
            cache.invalidate();
        }
        self.recover(shock.kind.label(), self.config.max_rounds_per_shock);
    }
}
