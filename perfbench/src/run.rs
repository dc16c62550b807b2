//! One run of one workload: set-up, then either the timed passes
//! (`--trace 0`, end-to-end metrics) or the staged trace and the probes
//! (`--trace 1`, per-layer metrics), then verification.
//!
//! ## How a timing is reported
//!
//! A run serves its op list over and over for `--seconds`. Each pass is
//! the same ops, so each yields its own qps, p50 and p95, and the run
//! reports the figure of the **fastest pass**. The hosts this runs on
//! slow down by a fifth or more for seconds at a time (a neighbour on
//! the core, a frequency step). Such interference only ever adds time,
//! so the least-disturbed pass is the steadiest estimate of what the
//! program costs; the median over passes moves whenever more than half a
//! run is disturbed (measured: README, "Bounds"). What the program
//! itself does slowly still shows, because every pass does all of it:
//! tails inside a pass are in its p95. The table on standard error also
//! gives the median and the slowest pass.

use crate::ledger::report::{Metrics, RunResult, END_TO_END};
use crate::ledger::rss::peak_rss_mib;
use crate::ledger::span::write_jsonl;
use crate::ledger::stats::{over_segments, Segment, Summary};
use crate::ledger::Clock;
use crate::probes;
use crate::workloads::{prepare, Workload};
use std::path::PathBuf;

/// Times the world is built per run; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Share of a traced run's seconds spent untraced, as the base of
/// `trace.overhead_share`.
const UNTRACED_SHARE: f64 = 0.3;
/// Failure notes printed per run.
const MAX_NOTES: usize = 8;
/// Spans written to the span file; all of them are aggregated.
const SPAN_FILE_CAP: usize = 200_000;

/// The command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed of the op list.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Trace the staged serve and print per-layer metrics.
    pub trace: bool,
    /// A fiftieth of each op list, one pass, one set-up: a functional
    /// check, not a measurement.
    pub smoke: bool,
    /// Where a traced run writes its spans.
    pub spans: PathBuf,
}

fn ns(seconds: f64) -> u64 {
    (seconds * 1e9) as u64
}

/// Serves passes of the op list until `deadline`, at least one. Each
/// pass is one segment.
fn passes_until(world: &mut dyn Workload, clock: Clock, deadline: u64) -> Vec<Segment> {
    let mut segs = Vec::new();
    loop {
        segs.push(world.pass(clock));
        if clock() >= deadline {
            return segs;
        }
    }
}

/// Runs the workload and returns its result line's contents. Prints a
/// table of the same figures, with spreads, to standard error.
pub fn run(args: &Args, clock: Clock) -> Result<RunResult, String> {
    let inputs = prepare(&args.workload, args.seed, args.smoke)?;
    let (setup_reps, seconds) = if args.smoke {
        (1, 0.0)
    } else {
        (SETUP_REPS, args.seconds)
    };

    let mut setups = Vec::with_capacity(setup_reps);
    let mut world = None;
    for _ in 0..setup_reps {
        // Drop the previous world first: two alive at once would double
        // the peak RSS.
        drop(world.take());
        let start = clock();
        world = Some(inputs.build());
        setups.push((clock() - start) as f64 / 1e9);
    }
    let mut world = world.expect("at least one set-up");
    let setup = Summary::of(setups);

    let metrics = if args.trace {
        let base = passes_until(
            world.as_mut(),
            clock,
            clock() + ns(seconds * UNTRACED_SHARE),
        );
        let base_ops: usize = base.iter().map(|s| s.latencies_us.len()).sum();
        let base_ns: u64 = base.iter().map(|s| s.busy_ns).sum();
        let base_qps = base_ops as f64 / (base_ns as f64 / 1e9);
        let traced = world.trace(clock, clock() + ns(seconds * (1.0 - UNTRACED_SHARE)))?;
        let mut m = traced.layers;
        m.merge(probes::all(clock, args.smoke));
        m.set("trace.overhead_share", 1.0 - traced.qps / base_qps);
        let spans = traced.tracer.spans();
        match write_jsonl(spans, &args.spans, SPAN_FILE_CAP) {
            Ok(()) => eprintln!(
                "{} of {} spans written to {}",
                spans.len().min(SPAN_FILE_CAP),
                spans.len(),
                args.spans.display()
            ),
            Err(e) => eprintln!(
                "warning: span file {} not written: {e}",
                args.spans.display()
            ),
        }
        for (name, value, unit) in m.rows() {
            eprintln!("{name:<44} {value:>16.4} {unit}");
        }
        m
    } else {
        let segs = passes_until(world.as_mut(), clock, clock() + ns(seconds));
        // Read before the oracle runs: the row engine materialises
        // intermediate results the program under test never holds.
        let rss = peak_rss_mib()?;
        let samples: usize = segs.iter().map(|s| s.latencies_us.len()).sum();
        let mut m = Metrics::new(END_TO_END);
        let mut row = |name: &str, value: f64, s: Summary, unit: &str, of: &str| {
            eprintln!(
                "{name:<12} {value:>14.4} {unit:<6} ({of}: {:.4} to {:.4}, median {:.4})",
                s.min, s.max, s.median
            );
            m.set(name, value);
        };
        row("setup_s", setup.median, setup, "s", "set-ups");
        let qps = over_segments(&segs, Segment::qps);
        row("qps", qps.max, qps, "ops/s", "passes");
        let p50 = over_segments(&segs, |s| s.latency(0.50));
        row("p50_us", p50.min, p50, "us", "passes");
        let p95 = over_segments(&segs, |s| s.latency(0.95));
        row("p95_us", p95.min, p95, "us", "passes");
        eprintln!("{:<12} {rss:>14.4} MiB", "peak_rss_mb");
        m.set("peak_rss_mb", rss);
        eprintln!(
            "{samples} samples in {} passes of {} ops",
            segs.len(),
            samples / segs.len()
        );
        m
    };

    let verdict = world.verify();
    for note in verdict.notes.iter().take(MAX_NOTES) {
        eprintln!("FAILED: {note}");
    }
    if verdict.notes.len() > MAX_NOTES {
        eprintln!("FAILED: … and {} more", verdict.notes.len() - MAX_NOTES);
    }
    Ok(RunResult {
        correct: verdict.failed == 0,
        attempted: verdict.attempted,
        // A query the oracle rejects fails every pass it was served in,
        // which a workload may count past what it attempted.
        failed: verdict.failed.min(verdict.attempted),
        metrics,
    })
}
