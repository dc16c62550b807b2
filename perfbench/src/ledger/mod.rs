//! Measurement plumbing shared by every workload: percentile and
//! segment maths, the zipf sampler, the span tracer, peak-RSS
//! reading, and the result line.
//!
//! Nothing in here reads the host clock. The benchmark has exactly one
//! clock read (`now_ns` in `main.rs`); everything else takes it as a
//! [`Clock`], so the unit tests drive these modules with a fake one.

pub mod report;
pub mod rss;
pub mod span;
pub mod stats;
pub mod zipf;

/// Monotonic nanoseconds since an arbitrary origin.
pub type Clock = fn() -> u64;

#[cfg(test)]
pub(crate) mod fake {
    use std::cell::Cell;

    thread_local! {
        static NOW: Cell<u64> = const { Cell::new(0) };
    }

    /// Sets this thread's fake time.
    pub fn set(ns: u64) {
        NOW.with(|n| n.set(ns));
    }

    /// Advances this thread's fake time.
    pub fn advance(ns: u64) {
        NOW.with(|n| n.set(n.get() + ns));
    }

    /// A [`super::Clock`] reading this thread's fake time.
    pub fn clock() -> u64 {
        NOW.with(Cell::get)
    }
}
