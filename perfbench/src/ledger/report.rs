//! The metric names the benchmark may emit, and the result line.
//!
//! `BENCHMARK.json` declares the same names; a test keeps the two in
//! step. [`Metrics::set`] refuses a name that is not declared here, so
//! nothing undeclared can reach the output.

use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, printed by `--trace 0`. Every
/// workload reports every one of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps", "ops/s"),
    ("p50_us", "us"),
    ("p95_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, printed by `--trace 1`. A layer a
/// workload never enters reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sql.parse.us_per_op", "us"),
    ("query.bind.us_per_op", "us"),
    ("query.fingerprint_template.us_per_op", "us"),
    ("query.fingerprint_exact.us_per_op", "us"),
    ("stats.selectivity_signature.us_per_op", "us"),
    ("stats.build.us_per_call", "us"),
    ("storage.build_indexes.us_per_call", "us"),
    ("serve.cache.probe.us_per_op", "us"),
    ("serve.cache.insert.us_per_op", "us"),
    ("serve.cache.exact_hit_share", "share"),
    ("serve.cache.template_hit_share", "share"),
    ("serve.cache.replan_share", "share"),
    ("serve.cache.miss_share", "share"),
    ("serve.cache.evictions_per_kop", "1/kop"),
    ("serve.cache.flight_waits_per_kop", "1/kop"),
    ("serve.cache.stale_inserts", "count"),
    ("opt.plan.us_per_op", "us"),
    ("opt.plan.calls_per_op", "1/op"),
    ("opt.plan.p50_us.n04-07", "us"),
    ("opt.plan.p50_us.n08-10", "us"),
    ("opt.plan.p50_us.n11-17", "us"),
    ("rejoin.plan.us_per_op", "us"),
    ("rejoin.plan.p50_us.n04-07", "us"),
    ("rejoin.plan.p50_us.n08-10", "us"),
    ("rejoin.plan.p50_us.n11-17", "us"),
    ("rejoin.featurize.us_per_call", "us"),
    ("nn.forward.us_per_call", "us"),
    ("nn.backward.us_per_call", "us"),
    ("exec.execute.us_per_op", "us"),
    ("exec.work_per_op", "work"),
    ("exec.rows_out_per_op", "rows"),
    ("exec.ns_per_work", "ns/work"),
    ("exec.parallel.us_per_op", "us"),
    ("exec.parallel.work_per_op", "work"),
    ("exec.parallel.ns_per_work", "ns/work"),
    ("exec.parallel.threads", "count"),
    ("exec.op.seq_scan.ns_per_row", "ns/row"),
    ("exec.op.filter_int.ns_per_row", "ns/row"),
    ("exec.op.filter_dict.ns_per_row", "ns/row"),
    ("exec.op.filter_rle.ns_per_row", "ns/row"),
    ("exec.op.hash_join.ns_per_row", "ns/row"),
    ("exec.op.merge_join.ns_per_row", "ns/row"),
    ("exec.op.nested_loop.ns_per_row", "ns/row"),
    ("exec.op.index_scan.ns_per_row", "ns/row"),
    ("exec.op.hash_agg.ns_per_row", "ns/row"),
    ("serve.experience.push.us_per_op", "us"),
    ("serve.experience.dropped", "count"),
    ("serve.online.step.us_per_call", "us"),
    ("serve.online.step.p50_us", "us"),
    ("serve.online.episodes_per_step", "1/step"),
    ("serve.online.swap.us_per_call", "us"),
    ("serve.online.generations", "count"),
    ("serve.online.generations_to_parity", "count"),
    ("serve.online.work_ratio_vs_expert", "ratio"),
    ("serve.refresh.us_per_call", "us"),
    ("workload.drift.mutate.us_per_call", "us"),
    ("serve.total.us_per_op", "us"),
    ("serve.glue.us_per_op", "us"),
    ("serve.p99_us", "us"),
    ("trace.overhead_share", "share"),
    ("trace.ops", "count"),
    ("bench.ops_per_pass", "count"),
    ("bench.ops_excluded", "count"),
    ("bench.clients", "count"),
];

/// Metric values keyed by declared name.
#[derive(Debug, Clone)]
pub struct Metrics {
    declared: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// An empty set over `declared` ([`END_TO_END`] or [`PER_LAYER`]).
    pub fn new(declared: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            declared,
            values: BTreeMap::new(),
        }
    }

    /// Records `value` under `name`. Panics on an undeclared name or a
    /// value JSON cannot carry: both are bugs in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let (declared, _) = self
            .declared
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared in ledger/report.rs"));
        assert!(value.is_finite(), "metric `{name}` is not finite: {value}");
        self.values.insert(declared, value);
    }

    /// Adds every entry of `other` (same declared set).
    pub fn merge(&mut self, other: Metrics) {
        self.values.extend(other.values);
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// `(name, value, unit)` for every declared metric, in declaration
    /// order; a metric never set reads 0.
    pub fn rows(&self) -> Vec<(&'static str, f64, &'static str)> {
        self.declared
            .iter()
            .map(|&(name, unit)| (name, self.values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }
}

/// What one run reports: the last line of standard output.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every op's output matched the oracle.
    pub correct: bool,
    /// Ops measured.
    pub attempted: u64,
    /// Ops that errored, were refused, or returned wrong rows.
    pub failed: u64,
    /// The metrics of this run.
    pub metrics: Metrics,
}

impl RunResult {
    /// The result as one line of JSON.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .rows()
            .into_iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_every_declared_metric() {
        let mut metrics = Metrics::new(END_TO_END);
        metrics.set("qps", 1234.5);
        metrics.set("setup_s", 0.25);
        let line = RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics,
        }
        .to_json();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
        assert!(line.contains("\"qps\": {\"value\": 1234.5, \"unit\": \"ops/s\"}"));
        assert!(line.contains("\"p95_us\": {\"value\": 0, \"unit\": \"us\"}"));
        assert!(!line.contains('\n'));
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_names_are_refused() {
        Metrics::new(END_TO_END).set("exec.execute.us_per_op", 1.0);
    }

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(name), "bad metric name {name}");
            assert!(ok_unit(unit), "bad unit {unit} on {name}");
            assert!(seen.insert(*name), "{name} declared twice");
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
