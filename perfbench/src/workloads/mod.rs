//! The workloads. Each is a fixed, seed-derived op list served in a
//! closed loop: a client sends its next op only after the previous one
//! returned, because callers of `QuerySession` are library callers that
//! wait for their reply.
//!
//! A workload has two halves. Its **inputs** ([`Prepared`]) are the op
//! list made from `--seed`; making them is the benchmark's business and
//! is not timed. Its **world** ([`Workload`]) is the system set up to
//! serve those ops — database, statistics, session, warm cache — and
//! building it is what `setup_s` times.
//!
//! The database and query suite are the same at every seed (they are
//! the fixture); the seed decides the order ops are sent in and, on
//! `template_zipf`, which templates and constants are drawn. That keeps
//! the exact figures (`work` per op, swap generations) comparable
//! between runs at different seeds.

pub mod drift;
pub mod job;
pub mod plan_cold;
pub mod zipf;

use crate::ledger::report::{Metrics, PER_LAYER};
use crate::ledger::span::{durations_us, self_times, Tracer};
use crate::ledger::stats::{median, percentile, Segment};
use crate::ledger::Clock;
use hfqo_exec::Row;
use hfqo_serve::CacheMetrics;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: &[&str] = &[
    "plan_cold_expert",
    "plan_cold_learned",
    "job_warm",
    "template_zipf",
    "online_drift",
];

/// Seed of the fixture every workload serves (database rows and the
/// JOB-like suite's constants). Not the `--seed` argument.
pub const WORLD_SEED: u64 = 21;

/// Op lists are cut to this fraction under `--smoke`.
const SMOKE_DIVISOR: usize = 50;

/// Client threads for the concurrent workload and worker threads for
/// the parallel engine: one per core, as the load generator shares the
/// machine with the program it drives.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A workload's inputs, made from the seed.
pub trait Prepared {
    /// Sets the system up to serve the op list. Timed as `setup_s`.
    fn build(&self) -> Box<dyn Workload + '_>;
}

/// A world ready to serve its op list.
pub trait Workload {
    /// Serves one pass of the op list through the program's own entry
    /// point.
    fn pass(&mut self, clock: Clock) -> Segment;

    /// Proves the staged serve identical to the program's entry point
    /// on every distinct op, then serves whole passes through it until
    /// `deadline`, recording spans.
    fn trace(&mut self, clock: Clock, deadline: u64) -> Result<Traced, String>;

    /// Checks everything served so far against the independent oracle
    /// and returns how many ops were attempted and how many failed. Runs
    /// after timing: the row engine's working set would otherwise set
    /// the process's peak RSS.
    fn verify(&mut self) -> Verdict;
}

/// Ops attempted and failed, and why.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Ops sent through `pass` and `trace`.
    pub attempted: u64,
    /// Ops that returned an error, were refused, or disagreed with the
    /// oracle.
    pub failed: u64,
    /// One line per kind of failure, for standard error.
    pub notes: Vec<String>,
}

/// What a traced run hands back.
pub struct Traced {
    /// Every span, all clients merged.
    pub tracer: Tracer,
    /// Ops per second of charged time, for `trace.overhead_share`.
    pub qps: f64,
    /// Counters only this workload has (cache shares, generations, …).
    pub layers: Metrics,
}

/// Makes the named workload's inputs.
pub fn prepare(name: &str, seed: u64, smoke: bool) -> Result<Box<dyn Prepared>, String> {
    Ok(match name {
        "plan_cold_expert" => Box::new(plan_cold::Inputs::prepare(
            plan_cold::Arm::Expert,
            seed,
            smoke,
        )),
        "plan_cold_learned" => Box::new(plan_cold::Inputs::prepare(
            plan_cold::Arm::Learned,
            seed,
            smoke,
        )),
        "job_warm" => Box::new(job::Inputs::prepare(seed, smoke)),
        "template_zipf" => Box::new(zipf::Inputs::prepare(nproc(), seed, smoke)),
        "online_drift" => Box::new(drift::Inputs),
        other => {
            return Err(format!(
                "unknown workload `{other}`; expected one of {}",
                NAMES.join(", ")
            ))
        }
    })
}

/// `0..n` in an order decided by `seed` (Fisher–Yates).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// The length an op list of `full` entries has in this run.
pub fn scaled(full: usize, smoke: bool) -> usize {
    if smoke {
        full.div_ceil(SMOKE_DIVISOR).max(2).min(full)
    } else {
        full
    }
}

/// Rows in a canonical order, so results compare across join orders.
pub fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

/// The per-op layer figures every workload derives from its spans:
/// self time per layer call, the Fig. 3c planning-time buckets, and the
/// root span's total, glue and p99.
pub fn span_layers(tracer: &Tracer, ops: u64) -> Metrics {
    let spans = tracer.spans();
    let mut m = Metrics::new(PER_LAYER);
    let per_op = ops.max(1) as f64;
    let st = self_times(spans);
    let self_us = |name: &str| st.get(name).map_or(0.0, |s| s.self_ns as f64 / 1e3);
    for (span, metric) in [
        ("sql.parse", "sql.parse.us_per_op"),
        ("query.bind", "query.bind.us_per_op"),
        (
            "query.fingerprint_template",
            "query.fingerprint_template.us_per_op",
        ),
        (
            "query.fingerprint_exact",
            "query.fingerprint_exact.us_per_op",
        ),
        (
            "stats.selectivity_signature",
            "stats.selectivity_signature.us_per_op",
        ),
        ("serve.cache.probe", "serve.cache.probe.us_per_op"),
        ("serve.cache.insert", "serve.cache.insert.us_per_op"),
        ("opt.plan", "opt.plan.us_per_op"),
        ("rejoin.plan", "rejoin.plan.us_per_op"),
        ("exec.execute", "exec.execute.us_per_op"),
        ("serve.experience.push", "serve.experience.push.us_per_op"),
        ("serve.total", "serve.glue.us_per_op"),
    ] {
        m.set(metric, self_us(span) / per_op);
    }
    m.set(
        "opt.plan.calls_per_op",
        st.get("opt.plan").map_or(0.0, |s| s.calls as f64) / per_op,
    );
    for planner in ["opt.plan", "rejoin.plan"] {
        for (label, range) in [("n04-07", 4..=7u8), ("n08-10", 8..=10), ("n11-17", 11..=17)] {
            let mut d = durations_us(spans, planner, |s| range.contains(&tracer.rels_of(s.op)));
            let p50 = if d.is_empty() { 0.0 } else { median(&mut d) };
            m.set(&format!("{planner}.p50_us.{label}"), p50);
        }
    }
    let mut totals = durations_us(spans, "serve.total", |_| true);
    if !totals.is_empty() {
        m.set("serve.total.us_per_op", totals.iter().sum::<f64>() / per_op);
        totals.sort_by(f64::total_cmp);
        m.set("serve.p99_us", percentile(&totals, 0.99));
    }
    m.set("trace.ops", ops as f64);
    m
}

/// The executor figures: work and rows per op, and busy time per unit
/// of work — executor efficiency with plan quality divided out.
pub fn exec_layers(tracer: &Tracer, work: u64, rows_out: u64, ops: u64) -> Metrics {
    let exec_ns = self_times(tracer.spans())
        .get("exec.execute")
        .map_or(0, |s| s.self_ns);
    let mut m = Metrics::new(PER_LAYER);
    let per_op = ops.max(1) as f64;
    m.set("exec.work_per_op", work as f64 / per_op);
    m.set("exec.rows_out_per_op", rows_out as f64 / per_op);
    m.set("exec.ns_per_work", exec_ns as f64 / work.max(1) as f64);
    m
}

/// The plan-cache figures, from the change in a cache's counters over
/// `ops` traced ops.
pub fn cache_layers(before: &CacheMetrics, after: &CacheMetrics, ops: u64) -> Metrics {
    let mut m = Metrics::new(PER_LAYER);
    let per_op = ops.max(1) as f64;
    let delta = |f: fn(&CacheMetrics) -> u64| (f(after) - f(before)) as f64;
    m.set(
        "serve.cache.exact_hit_share",
        delta(|c| c.exact_hits) / per_op,
    );
    m.set(
        "serve.cache.template_hit_share",
        delta(|c| c.template_hits) / per_op,
    );
    m.set("serve.cache.replan_share", delta(|c| c.replans) / per_op);
    m.set("serve.cache.miss_share", delta(|c| c.misses) / per_op);
    m.set(
        "serve.cache.evictions_per_kop",
        delta(|c| c.evictions) * 1e3 / per_op,
    );
    m.set(
        "serve.cache.flight_waits_per_kop",
        delta(|c| c.flight_waits) * 1e3 / per_op,
    );
    m.set("serve.cache.stale_inserts", delta(|c| c.stale_inserts));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffles_are_permutations_decided_by_the_seed() {
        let a = shuffled(98, 21);
        assert_eq!(a, shuffled(98, 21), "same seed, same order");
        assert_ne!(a, shuffled(98, 1009), "another seed, another order");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..98).collect::<Vec<_>>());
    }

    #[test]
    fn smoke_keeps_a_fiftieth_but_never_nothing() {
        assert_eq!(scaled(113, false), 113);
        assert_eq!(scaled(113, true), 3);
        assert_eq!(scaled(512, true), 11);
        assert_eq!(scaled(10, true), 2);
        assert_eq!(scaled(1, true), 1);
    }
}
