//! The span tracer of the staged serve.
//!
//! A span is recorded around each call the benchmark makes into a
//! layer: name, start, end, the span that caused it, and the op it
//! belongs to. Spans stay in memory while the run measures and are
//! written out once, at the end. A layer's figure is its **self time**:
//! a span's duration minus the part its child spans cover.

use super::Clock;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// One recorded span. Times are [`Clock`] nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// `<crate>.<call>`, e.g. `exec.execute`.
    pub name: &'static str,
    /// When the call was entered.
    pub start: u64,
    /// When it returned.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The op (one served query, one trainer step, …) this belongs to.
    pub op: u32,
}

/// Records spans for one thread.
pub struct Tracer {
    clock: Clock,
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Relations joined by each op, indexed by op id; entry 0 is unused
    /// (spans entered before the first op).
    op_rels: Vec<u8>,
}

impl Tracer {
    /// An empty tracer reading `clock`.
    pub fn new(clock: Clock) -> Self {
        Self {
            clock,
            spans: Vec::new(),
            open: Vec::new(),
            op_rels: vec![0],
        }
    }

    /// Starts the next op: spans entered from here on carry its id.
    /// `rels` is how many relations the op's query joins (0 for an op
    /// that is not a query), which the planning-time buckets group by.
    /// Spans an earlier op left open (an error unwound past their
    /// exit) are closed at the current time.
    pub fn next_op(&mut self, rels: u8) {
        while let Some(&id) = self.open.last() {
            self.exit(id);
        }
        self.op_rels.push(rels);
    }

    /// Ops started so far.
    pub fn ops(&self) -> u32 {
        (self.op_rels.len() - 1) as u32
    }

    /// Relations joined by the op with this id.
    pub fn rels_of(&self, op: u32) -> u8 {
        self.op_rels[op as usize]
    }

    /// Enters a span; returns the id to [`Self::exit`] it with.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start: 0,
            end: 0,
            parent: self.open.last().copied(),
            op: self.ops(),
        });
        self.open.push(id);
        // Read the clock last so bookkeeping is charged to the parent.
        self.spans[id as usize].start = (self.clock)();
        id
    }

    /// Exits the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        let end = (self.clock)();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must exit innermost-first");
        self.spans[id as usize].end = end;
    }

    /// Runs `call` inside a span named `name`.
    pub fn leaf<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = call();
        self.exit(id);
        out
    }

    /// Every span recorded so far, in entry order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans, keeping parents and ops distinct.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        let op_base = self.ops();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            op: s.op + op_base,
            ..s
        }));
        self.op_rels.extend_from_slice(&other.op_rels[1..]);
    }
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Duration minus the direct children's durations, summed, ns.
    pub self_ns: u64,
    /// Spans with this name.
    pub calls: u64,
}

/// Self time per span name. Children of one span never overlap (one
/// thread records them in sequence), so the part of a span its
/// children cover is the sum of their durations.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.end - s.start);
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let entry = out.entry(s.name).or_default();
        entry.self_ns += own;
        entry.calls += 1;
    }
    out
}

/// Durations, µs, of every span named `name` for which `keep` holds.
pub fn durations_us(spans: &[Span], name: &str, keep: impl Fn(&Span) -> bool) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && keep(s))
        .map(|s| (s.end - s.start) as f64 / 1e3)
        .collect()
}

/// Writes the first `cap` spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &Path, cap: usize) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate().take(cap) {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            s.name, s.start, s.end, s.op
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::super::fake;
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        fake::set(0);
        let mut t = Tracer::new(fake::clock);
        t.next_op(4);
        let root = t.enter("serve.total");
        fake::advance(5); // glue before the first child
        t.leaf("sql.parse", || fake::advance(10));
        fake::advance(1);
        let plan = t.enter("serve.plan");
        fake::advance(2);
        t.leaf("opt.plan", || fake::advance(40));
        t.leaf("serve.cache.insert", || fake::advance(3));
        t.exit(plan);
        t.leaf("exec.execute", || fake::advance(100));
        fake::advance(4);
        t.exit(root);

        let spans = t.spans();
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2), "opt.plan nests under serve.plan");
        assert!(spans.iter().all(|s| s.op == 1));

        let st = self_times(spans);
        assert_eq!(st["serve.total"].self_ns, 5 + 1 + 4);
        assert_eq!(st["serve.plan"].self_ns, 2);
        assert_eq!(st["opt.plan"].self_ns, 40);
        assert_eq!(st["exec.execute"].self_ns, 100);
        let total: u64 = st.values().map(|s| s.self_ns).sum();
        assert_eq!(total, spans[0].end - spans[0].start, "self times add up");
    }

    #[test]
    fn ops_are_numbered_and_absorbed_tracers_stay_distinct() {
        fake::set(0);
        let mut a = Tracer::new(fake::clock);
        for _ in 0..2 {
            a.next_op(5);
            let r = a.enter("serve.total");
            a.leaf("exec.execute", || fake::advance(7));
            a.exit(r);
        }
        let mut b = Tracer::new(fake::clock);
        b.next_op(9);
        let r = b.enter("serve.total");
        b.leaf("exec.execute", || fake::advance(9));
        b.exit(r);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(
            spans.iter().map(|s| s.op).collect::<Vec<_>>(),
            [1, 1, 2, 2, 3, 3]
        );
        assert_eq!(spans[5].parent, Some(4));
        assert_eq!((a.ops(), a.rels_of(2), a.rels_of(3)), (3, 5, 9));
        let st = self_times(spans);
        assert_eq!(
            st["exec.execute"],
            SelfTime {
                self_ns: 23,
                calls: 3
            }
        );
        assert_eq!(durations_us(spans, "exec.execute", |s| s.op == 3), [0.009]);
    }

    #[test]
    fn next_op_closes_spans_an_error_left_open() {
        fake::set(0);
        let mut t = Tracer::new(fake::clock);
        t.next_op(0);
        t.enter("serve.total");
        t.enter("query.bind");
        fake::advance(3);
        t.next_op(0);
        assert!(t.spans().iter().all(|s| s.end == 3));
        let r = t.enter("serve.total");
        t.exit(r);
        assert_eq!(t.spans()[2].parent, None);
    }
}
