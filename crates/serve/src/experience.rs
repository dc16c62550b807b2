//! The experience log: what the serving layer remembers about executed
//! queries so a trainer can learn from live traffic.
//!
//! Every serve that executes records one [`Experience`]: the bound
//! query graph, the forest-merge join decisions of the plan that ran
//! (derived from the plan's join-tree skeleton, so the record is
//! planner-agnostic — expert, learned, and even cache-hit serves all
//! leave the same kind of trace), and the executor's observed work,
//! which is the deterministic latency signal online training rewards
//! on.
//!
//! The log is a bounded, thread-safe ring: serving threads `push` from
//! the hot path (one short mutex hold, O(1)), the trainer `drain`s
//! mini-batches from the other side, and when producers outrun the
//! consumer the *oldest* experience is dropped — under policy
//! improvement, old trajectories are the least valuable thing in the
//! buffer. Drops are counted, never silent.

use hfqo_opt::PlannerMethod;
use hfqo_query::QueryGraph;
use hfqo_sync::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// One executed query, as remembered for online learning.
#[derive(Debug, Clone)]
pub struct Experience {
    /// The bound query graph the plan was produced for (shared with the
    /// `ServedQuery` the serve returned).
    pub graph: Arc<QueryGraph>,
    /// Forest-merge decisions `(x, y)` reconstructing the executed
    /// plan's join tree (empty for single-relation queries).
    pub decisions: Vec<(usize, usize)>,
    /// Work units the executor actually performed — the deterministic
    /// latency observation.
    pub executed_work: u64,
    /// Wall-clock of the execution (informational; training rewards on
    /// `executed_work`, which is reproducible).
    pub elapsed: Duration,
    /// The planner's estimated cost at planning time.
    pub cost: f64,
    /// Which strategy produced the plan.
    pub method: PlannerMethod,
    /// Whether the plan came from the plan cache.
    pub cache_hit: bool,
}

/// Counters describing the log's lifetime activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExperienceMetrics {
    /// Experiences ever pushed.
    pub recorded: u64,
    /// Experiences evicted unconsumed by the capacity bound.
    pub dropped: u64,
    /// Experiences handed to a consumer via `drain`.
    pub(crate) drained: u64,
    /// Experiences currently buffered.
    pub len: usize,
    /// Configured capacity.
    pub capacity: usize,
}

#[derive(Debug, Default)]
struct Inner {
    buf: VecDeque<Experience>,
    recorded: u64,
    dropped: u64,
    drained: u64,
}

/// A bounded, thread-safe experience ring. See the [module docs](self).
#[derive(Debug)]
pub struct ExperienceLog {
    inner: Mutex<Inner>,
    capacity: usize,
}

/// The online trainer's ring capacity: a few serving bursts' worth of
/// queries.
pub(crate) const EXPERIENCE_CAPACITY: usize = 1024;

impl ExperienceLog {
    /// An empty log bounded at `capacity` experiences (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new("serve.experience.log", Inner::default()),
            capacity: capacity.max(1),
        }
    }

    /// Appends an experience, evicting the oldest buffered one when at
    /// capacity.
    pub fn push(&self, experience: Experience) {
        let mut inner = self.inner.lock();
        if inner.buf.len() >= self.capacity {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(experience);
        inner.recorded += 1;
    }

    /// Removes and returns up to `max` experiences, oldest first.
    pub fn drain(&self, max: usize) -> Vec<Experience> {
        let mut inner = self.inner.lock();
        let take = max.min(inner.buf.len());
        let out: Vec<Experience> = inner.buf.drain(..take).collect();
        inner.drained += out.len() as u64;
        out
    }

    /// Experiences currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().buf.len()
    }

    /// Whether the log is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the lifetime counters.
    pub fn metrics(&self) -> ExperienceMetrics {
        let inner = self.inner.lock();
        ExperienceMetrics {
            recorded: inner.recorded,
            dropped: inner.dropped,
            drained: inner.drained,
            len: inner.buf.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfqo_query::QueryGraph;

    fn exp(tag: u64) -> Experience {
        Experience {
            graph: Arc::new(QueryGraph::new(vec![], vec![], vec![], vec![], vec![])),
            decisions: vec![],
            executed_work: tag,
            elapsed: Duration::ZERO,
            cost: 1.0,
            method: PlannerMethod::Greedy,
            cache_hit: false,
        }
    }

    #[test]
    fn push_drain_fifo() {
        let log = ExperienceLog::new(8);
        for i in 0..5 {
            log.push(exp(i));
        }
        assert_eq!(log.len(), 5);
        let batch = log.drain(3);
        assert_eq!(
            batch.iter().map(|e| e.executed_work).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(log.len(), 2);
        let rest = log.drain(100);
        assert_eq!(rest.len(), 2);
        assert!(log.is_empty());
        let m = log.metrics();
        assert_eq!((m.recorded, m.dropped, m.drained), (5, 0, 5));
    }

    #[test]
    fn capacity_bound_drops_oldest() {
        let log = ExperienceLog::new(3);
        for i in 0..5 {
            log.push(exp(i));
        }
        let m = log.metrics();
        assert_eq!((m.len, m.dropped, m.capacity), (3, 2, 3));
        let kept: Vec<u64> = log.drain(10).iter().map(|e| e.executed_work).collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest experiences evicted first");
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let log = ExperienceLog::new(0);
        log.push(exp(1));
        log.push(exp(2));
        assert_eq!(log.metrics().capacity, 1);
        assert_eq!(log.drain(10)[0].executed_work, 2);
    }
}
