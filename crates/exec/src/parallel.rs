//! The plan evaluator: morsel-driven, stage by stage.
//!
//! Every vectorized execution — [`crate::execute`],
//! [`crate::execute_for_stats`], the [`crate::TrueCardinality`] oracle —
//! runs here. The plan tree is evaluated stage by stage — scans, join
//! builds and probes, and aggregation each fan out over a team of up to
//! [`ExecConfig::threads`] workers pulling fixed-size **morsels** (row
//! ranges) from a shared atomic dispenser — and every stage's output is
//! reassembled in morsel order before the next stage starts. A team of
//! one runs inline on the calling thread (no spawn), so `threads = 1`
//! is the same code, not a second engine; it also needs no hash
//! partitioning, so it builds one join table and folds one group map.
//!
//! ## Determinism contract
//!
//! Results are *bit-identical* at any thread count and any morsel size —
//! row order, float `SUM`/`AVG` bits and `ExecStats::work` — and
//! multiset- and work-identical to the row oracle
//! ([`crate::rowexec`]), which the equivalence suite asserts. Three
//! mechanisms make that hold:
//!
//! * **Order-preserving reassembly.** Workers tag each morsel's output
//!   with the morsel index; the stage concatenates them in index order,
//!   so the row stream entering the next stage does not depend on which
//!   worker produced what. Join candidate lists are likewise kept in
//!   build-row order, so probes emit matches in one fixed order.
//! * **Partitioned state instead of shared state.** Hash-join builds and
//!   grouped aggregation split their keys across partitions by one
//!   fixed-constant hash (`KeyHasher`: no per-process key, so a key
//!   lands in the same partition on every run and every host); the
//!   integer-keyed join tables hash with it too. Nothing observable
//!   depends on a table's iteration order, only on look-ups.
//!   Each partition is built and folded by exactly one worker, with
//!   partition-local row lists that preserve global input order — a
//!   group's accumulator folds its rows in input order at every team
//!   size, so even float `SUM`/`AVG` bits match. No worker ever writes
//!   state another worker reads.
//! * **Charge-total equality.** Workers accumulate work charges locally
//!   and flush them to one shared atomic counter (every
//!   `FLUSH_EVERY` units and at worker exit), so the final total
//!   equals the row oracle's charge total exactly: `u64` addition is
//!   commutative, and the per-row/per-candidate charge rules are the
//!   same at every team size. A plan aborts with `BudgetExceeded` here
//!   iff it aborts under the row oracle; only the `work_done` overshoot
//!   reported on abort may differ.
//!
//! Sort-merge joins sort their two sides concurrently (one stable sort,
//! one comparator) but advance the merge cursors serially — the merge
//! loop is inherently sequential and its charge pattern (one unit per
//! cursor comparison) depends on the traversal. Global (non-`GROUP BY`)
//! aggregates fold on one thread, an accumulator at a time over its
//! whole input column, in row order (`ops::agg::fold_column`): float
//! accumulation is not associative, so a tree reduction would change
//! result bits, while one add per row in the order the row oracle adds
//! them cannot. `COUNT(*)` reads no column and is the row count.
//!
//! ## No `Value` per row
//!
//! A join resolves its column operands once: a condition between
//! integer columns becomes an `IntCond` over typed slices. Conditions
//! are applied a probe row at a time — the rows it could pair with are
//! gathered, `Conds::retain` narrows them one condition after another,
//! and the survivors are emitted as one run — so the comparison operator
//! is chosen once per run, not per pair. Which form runs is read off the
//! column types; anything without a typed form (floats, text, mixed
//! numerics) goes through `eval_cmp_cols`. Aggregates other than
//! `COUNT(*)` still build a `Value` per row (`Acc::update`).
//!
//! ## Joins pay per row
//!
//! A plan node's `JoinAlgo` fixes what a join means and what it
//! charges; row counts choose how the evaluator finds the pairs. A hash
//! join's build fills `JoinTable`s: each key's rows are one ascending
//! slice of a single array. A build makes a handful of allocations
//! however many keys it holds, and does one map look-up per run of equal
//! keys. An integer-keyed nested loop builds the same table over its
//! inner side when `looks_up` says its two row counts favour it, and
//! reads each probe key's matches from the table. Otherwise it scans the
//! inner key slice. Either way it finds the same rows in the same order
//! under the same charges, so nothing a plan's `work` or a test can
//! observe depends on the choice. An empty inner side or an empty
//! table is paid for without touching a row.
//!
//! [`ExecConfig::threads`]: crate::ExecConfig::threads

use crate::error::ExecError;
use crate::executor::ExecConfig;
use crate::ops::agg::{fold_column, Acc, AggSpec};
use crate::ops::join::{join_output, Side};
use crate::ops::scan::ScanSpec;
use crate::ops::{eval_cmp_cols, resolve_conds, SlotCond};
use crate::projection::{scan_projection, ColSet, Projection};
use crate::row::Row;
use hfqo_query::sql::CompareOp;
use hfqo_query::{AccessPath, AggAlgo, JoinAlgo, PlanNode, QueryError, QueryGraph, RelId};
use hfqo_storage::catalog::ColumnType;
use hfqo_storage::{ColumnVector, Database, Value};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher, RandomState};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::OnceLock;

/// How many locally-accumulated work units a worker buffers before
/// flushing to the shared budget counter. Bounds both atomic contention
/// (one `fetch_add` per `FLUSH_EVERY` units) and how far a worker can
/// run past an exhausted budget before noticing.
const FLUSH_EVERY: u64 = 4096;

/// The per-query work counter shared by all workers.
struct SharedBudget {
    used: AtomicU64,
    limit: u64,
}

impl SharedBudget {
    fn new(limit: u64) -> Self {
        Self {
            used: AtomicU64::new(0),
            limit,
        }
    }

    /// Adds `n` units; fails when the post-add total exceeds the limit.
    fn add(&self, n: u64) -> Result<(), ExecError> {
        if n == 0 {
            return Ok(());
        }
        // Relaxed: a commutative sum — every interleaving of the
        // fetch_adds yields the same total, and the scope join orders
        // the final read; no other memory piggybacks on this counter.
        let total = self.used.fetch_add(n, AtomicOrdering::Relaxed) + n;
        if total > self.limit {
            Err(ExecError::BudgetExceeded {
                work_done: total,
                budget: self.limit,
            })
        } else {
            Ok(())
        }
    }

    fn used(&self) -> u64 {
        // Relaxed: read after the worker-scope join, which already
        // ordered every flush.
        self.used.load(AtomicOrdering::Relaxed)
    }
}

/// Worker-local charge accumulator. Once the shared counter passes the
/// limit it can only grow, so every worker's next flush also fails —
/// an exhausted budget stops the whole team within one flush window.
struct Charger<'a> {
    shared: &'a SharedBudget,
    pending: u64,
}

impl<'a> Charger<'a> {
    fn new(shared: &'a SharedBudget) -> Self {
        Self { shared, pending: 0 }
    }

    #[inline]
    fn charge(&mut self, n: u64) -> Result<(), ExecError> {
        self.pending += n;
        if self.pending >= FLUSH_EVERY {
            self.flush()
        } else {
            Ok(())
        }
    }

    /// Pushes pending charges to the shared counter. Must be called at
    /// worker exit so success leaves the shared total equal to the
    /// row oracle's.
    fn flush(&mut self) -> Result<(), ExecError> {
        self.shared.add(std::mem::take(&mut self.pending))
    }
}

/// The shared morsel dispenser: workers claim fixed-size row ranges
/// with one atomic increment, so work distribution balances itself
/// without a scheduler.
struct Morsels {
    next: AtomicUsize,
    count: usize,
    size: usize,
    total: usize,
}

impl Morsels {
    fn new(total: usize, size: usize) -> Self {
        let size = size.max(1);
        Self {
            next: AtomicUsize::new(0),
            count: total.div_ceil(size),
            size,
            total,
        }
    }

    /// Worker-team size for this dispenser: spawning more workers than
    /// morsels only creates threads with nothing to claim.
    fn team(&self, threads: usize) -> usize {
        threads.min(self.count.max(1))
    }

    /// Claims the next unclaimed morsel: its index and row range.
    fn claim(&self) -> Option<(usize, Range<usize>)> {
        // Relaxed: the RMW's atomicity alone makes every index unique,
        // which is the entire claim protocol; the claimed rows are
        // read-only input published before the workers were spawned.
        let idx = self.next.fetch_add(1, AtomicOrdering::Relaxed);
        if idx >= self.count {
            return None;
        }
        let start = idx * self.size;
        Some((idx, start..(start + self.size).min(self.total)))
    }
}

/// Runs `work` on `threads` scoped workers and collects their results
/// in worker order; the lowest-indexed failure wins, a panicked worker
/// counting as [`ExecError::WorkerPanicked`]. A team of one runs inline
/// on the calling thread.
fn run_workers<T, F>(threads: usize, work: F) -> Result<Vec<T>, ExecError>
where
    T: Send,
    F: Fn(usize) -> Result<T, ExecError> + Sync,
{
    if threads <= 1 {
        return Ok(vec![work(0)?]);
    }
    let results: Vec<Result<T, ExecError>> = std::thread::scope(|s| {
        let work = &work;
        let handles: Vec<_> = (0..threads).map(|w| s.spawn(move || work(w))).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or(Err(ExecError::WorkerPanicked)))
            .collect()
    });
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        out.push(r?);
    }
    Ok(out)
}

/// Rows produced by one unit of parallel work — a morsel's output, or a
/// whole stage's after reassembly. The row count is tracked separately
/// because zero-width outputs (pure counting runs) exist.
pub(crate) struct Chunk {
    cols: Vec<ColumnVector>,
    pub(crate) rows: usize,
}

impl Chunk {
    fn empty(types: &[ColumnType]) -> Self {
        Self {
            cols: types.iter().map(|&t| ColumnVector::new(t)).collect(),
            rows: 0,
        }
    }

    /// Materialises the chunk as rows, column-wise: each column's values
    /// are exported in one monomorphic pass
    /// ([`ColumnVector::values_onto`]) instead of a per-cell dispatch.
    pub(crate) fn into_rows(self) -> Vec<Row> {
        let mut rows: Vec<Row> = Vec::new();
        rows.resize_with(self.rows, || Vec::with_capacity(self.cols.len()));
        for col in &self.cols {
            col.values_onto(&mut rows);
        }
        rows
    }
}

/// Concatenates indexed chunks in index order — the reassembly step
/// that makes every stage order-preserving. A stage that produced one
/// chunk hands it on without a copy.
fn concat_indexed(types: &[ColumnType], mut chunks: Vec<(usize, Chunk)>) -> Chunk {
    if chunks.len() == 1 {
        return chunks.remove(0).1;
    }
    chunks.sort_by_key(|&(idx, _)| idx);
    let mut out = Chunk::empty(types);
    for (_, ch) in chunks {
        out.rows += ch.rows;
        for (dst, src) in out.cols.iter_mut().zip(&ch.cols) {
            dst.append_column(src);
        }
    }
    out
}

/// A fully-evaluated plan node: its projection and materialised rows.
struct NodeOut {
    proj: Projection,
    data: Chunk,
}

struct Ctx<'a> {
    db: &'a Database,
    graph: &'a QueryGraph,
    threads: usize,
    morsel_rows: usize,
    budget: &'a SharedBudget,
}

impl Ctx<'_> {
    /// Worker-team size for a stage over `rows` input rows.
    fn team_for(&self, rows: usize) -> usize {
        Morsels::new(rows, self.morsel_rows).team(self.threads)
    }

    /// Hash partitions for join builds and grouped folds: a power of two
    /// with slack over the team size so partitions balance. A team of
    /// one builds one table — nothing to partition.
    fn partitions(&self) -> usize {
        if self.threads == 1 {
            1
        } else {
            (self.threads * 4).next_power_of_two()
        }
    }
}

/// The machine's available parallelism, read once per process: the
/// lookup reads cgroup and affinity state, too slow to repeat per query.
fn hardware_threads() -> usize {
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Evaluates `root` and returns its output with the work total.
/// `required` is what the root's output must carry — for an aggregated
/// root, what its *input* must carry. Results, row order, and the work
/// total are identical at every `config.threads`.
pub(crate) fn evaluate(
    db: &Database,
    graph: &QueryGraph,
    root: &PlanNode,
    required: &ColSet,
    config: ExecConfig,
) -> Result<(Chunk, u64), ExecError> {
    let budget = SharedBudget::new(config.work_budget);
    // Worker teams never exceed the machine's parallelism: extra
    // threads on an oversubscribed core only add scheduling overhead,
    // and results are identical at any team size by construction.
    let threads = if config.threads > 1 {
        config.threads.min(hardware_threads())
    } else {
        1
    };
    let ctx = Ctx {
        db,
        graph,
        threads,
        morsel_rows: config.morsel_rows.max(1),
        budget: &budget,
    };
    let out = eval_root(&ctx, root, required)?;
    Ok((out, budget.used()))
}

/// The plan root: an aggregate over its input, or a bare node.
fn eval_root(ctx: &Ctx<'_>, root: &PlanNode, required: &ColSet) -> Result<Chunk, ExecError> {
    match root {
        PlanNode::Aggregate { algo, input } => {
            let child = eval_node(ctx, input, required)?;
            eval_aggregate(ctx, *algo, &child)
        }
        node => Ok(eval_node(ctx, node, required)?.data),
    }
}

fn eval_node(ctx: &Ctx<'_>, node: &PlanNode, required: &ColSet) -> Result<NodeOut, ExecError> {
    match node {
        PlanNode::Scan { rel, path } => eval_scan(ctx, *rel, path, required),
        PlanNode::Join {
            algo,
            conds,
            left,
            right,
        } => {
            // Children must additionally carry this join's condition
            // columns; they are dropped again from this node's output
            // unless an ancestor requires them.
            let mut cond_cols = Vec::new();
            for &c in conds.iter() {
                let edge = ctx.graph.joins().get(c).ok_or_else(|| {
                    QueryError::InvalidPlan(format!("join cond #{c} out of range"))
                })?;
                cond_cols.push(edge.left);
                cond_cols.push(edge.right);
            }
            let child_required = required.with(cond_cols);
            let left = eval_node(ctx, left, &child_required)?;
            let right = eval_node(ctx, right, &child_required)?;
            eval_join(ctx, *algo, conds, &left, &right, required)
        }
        PlanNode::Aggregate { .. } => {
            Err(QueryError::InvalidPlan("aggregate below the plan root".into()).into())
        }
    }
}

/// Scan: workers claim morsels of the visit range, filter and gather
/// locally, and the outputs reassemble in morsel order (= table order).
/// Charges one unit per visited row plus one per emitted row.
fn eval_scan(
    ctx: &Ctx<'_>,
    rel: RelId,
    path: &AccessPath,
    required: &ColSet,
) -> Result<NodeOut, ExecError> {
    let proj = scan_projection(ctx.graph, ctx.db, rel, required);
    let spec = ScanSpec::new(ctx.db, ctx.graph, rel, path, &proj)?;
    let types = proj.column_types(ctx.graph, ctx.db.catalog());
    let morsels = Morsels::new(spec.visit_count(), ctx.morsel_rows);
    let chunks = run_workers(morsels.team(ctx.threads), |_w| {
        let mut charger = Charger::new(ctx.budget);
        let mut out: Vec<(usize, Chunk)> = Vec::new();
        let mut rid_buf: Vec<u32> = Vec::new();
        while let Some((idx, range)) = morsels.claim() {
            charger.charge(range.len() as u64)?; // visited rows
            let mut chunk = Chunk::empty(&types);
            if spec.is_plain_seq() {
                // Unfiltered sequential morsels copy contiguous column
                // ranges — no row-id gather.
                chunk.rows = range.len();
                for (dst, src) in chunk.cols.iter_mut().zip(spec.projected_columns()) {
                    dst.append_range(src, range.start, range.len());
                }
            } else {
                // One selection vector per morsel, then a column-wise
                // bulk gather: dense selections (long contiguous spans
                // of survivors) copy spans, sparse ones gather per row.
                rid_buf.clear();
                spec.filter_visits(range.start, range.len(), &mut rid_buf);
                chunk.rows = rid_buf.len();
                let spans = hfqo_storage::coalesce_spans(&rid_buf);
                for (dst, src) in chunk.cols.iter_mut().zip(spec.projected_columns()) {
                    match &spans {
                        Some(spans) => {
                            for &(start, len) in spans {
                                dst.append_range(src, start, len);
                            }
                        }
                        None => src.gather_into(&rid_buf, dst),
                    }
                }
            }
            charger.charge(chunk.rows as u64)?; // emitted rows
            out.push((idx, chunk));
        }
        charger.flush()?;
        Ok(out)
    })?;
    let data = concat_indexed(&types, chunks.into_iter().flatten().collect());
    Ok(NodeOut { proj, data })
}

fn eval_join(
    ctx: &Ctx<'_>,
    algo: JoinAlgo,
    conds: &[usize],
    left: &NodeOut,
    right: &NodeOut,
    required: &ColSet,
) -> Result<NodeOut, ExecError> {
    let slot_conds = resolve_conds(
        ctx.graph,
        conds,
        |c| left.proj.slot(c),
        |c| right.proj.slot(c),
    )?;
    let (proj, out_map) = join_output(&left.proj, &right.proj, required);
    let types = proj.column_types(ctx.graph, ctx.db.catalog());
    let data = match algo {
        JoinAlgo::Hash => hash_join(ctx, &slot_conds, &out_map, &types, left, right)?,
        JoinAlgo::NestedLoop => nested_join(ctx, &slot_conds, &out_map, &types, left, right)?,
        JoinAlgo::Merge => merge_join(ctx, &slot_conds, &out_map, &types, left, right)?,
    };
    Ok(NodeOut { proj, data })
}

/// The `(left row, right row)` matches a join buffers before it gathers
/// them into its output columns. Large enough that a gather's per-column
/// type dispatch is paid once per couple of thousand rows and not once
/// per cell; bounded — instead of holding a whole morsel's matches — so
/// that a plan on its way to `BudgetExceeded` with a narrow output
/// cannot pile up millions of pairs first.
const PAIR_BATCH: usize = 2048;

/// A join's output side: matches go in as row-id pairs and leave as
/// column-wise gathers ([`ColumnVector::gather_into`]), one batch of at
/// most [`PAIR_BATCH`] at a time, in the order they were pushed. A
/// zero-width output (an empty `out_map`: the join under a `COUNT(*)`)
/// has nothing to gather, so its matches are counted, never buffered,
/// and its buffers are never allocated.
struct PairEmitter<'a> {
    out_map: &'a [Side],
    types: &'a [ColumnType],
    left: &'a [ColumnVector],
    right: &'a [ColumnVector],
    l_rows: Vec<u32>,
    r_rows: Vec<u32>,
    chunk: Chunk,
}

impl<'a> PairEmitter<'a> {
    fn new(
        out_map: &'a [Side],
        types: &'a [ColumnType],
        left: &'a NodeOut,
        right: &'a NodeOut,
    ) -> Self {
        let batch = if out_map.is_empty() { 0 } else { PAIR_BATCH };
        Self {
            out_map,
            types,
            left: &left.data.cols,
            right: &right.data.cols,
            l_rows: Vec::with_capacity(batch),
            r_rows: Vec::with_capacity(batch),
            chunk: Chunk::empty(types),
        }
    }

    /// Pushes `(l_row, r)` for every `r` of `r_rows`, in order.
    fn push_run(&mut self, l_row: u32, mut r_rows: &[u32]) {
        if self.out_map.is_empty() {
            self.chunk.rows += r_rows.len();
            return;
        }
        while !r_rows.is_empty() {
            if self.l_rows.len() == PAIR_BATCH {
                self.flush();
            }
            let n = r_rows.len().min(PAIR_BATCH - self.l_rows.len());
            self.l_rows.resize(self.l_rows.len() + n, l_row);
            self.r_rows.extend_from_slice(&r_rows[..n]);
            r_rows = &r_rows[n..];
        }
    }

    fn flush(&mut self) {
        debug_assert!(self.l_rows.len() <= PAIR_BATCH && self.l_rows.len() == self.r_rows.len());
        for (dst, side) in self.chunk.cols.iter_mut().zip(self.out_map) {
            match side {
                Side::Left(s) => self.left[*s].gather_into(&self.l_rows, dst),
                Side::Right(s) => self.right[*s].gather_into(&self.r_rows, dst),
            }
        }
        self.chunk.rows += self.l_rows.len();
        self.l_rows.clear();
        self.r_rows.clear();
    }

    /// Everything pushed since the last `take`, as one chunk.
    fn take(&mut self) -> Chunk {
        self.flush();
        std::mem::replace(&mut self.chunk, Chunk::empty(self.types))
    }
}

/// A join condition over two plain integer columns, resolved once per
/// join to typed slices: a pair satisfies it iff both sides are valid
/// and the `i64`s compare as `op` asks, which is what `eval_cmp_cols`
/// would find. Executor chunks are always plain, so every condition
/// between integer columns qualifies.
#[derive(Clone, Copy)]
struct IntCond<'a> {
    op: CompareOp,
    l_vals: &'a [i64],
    l_valid: &'a [bool],
    r_vals: &'a [i64],
    r_valid: &'a [bool],
}

impl<'a> IntCond<'a> {
    /// `cond` over typed slices, if both its columns are plain integers.
    fn resolve(cond: SlotCond, left: &'a NodeOut, right: &'a NodeOut) -> Option<Self> {
        match (&left.data.cols[cond.l_slot], &right.data.cols[cond.r_slot]) {
            (ColumnVector::Int(l_vals, l_valid), ColumnVector::Int(r_vals, r_valid)) => {
                Some(Self {
                    op: cond.op,
                    l_vals,
                    l_valid,
                    r_vals,
                    r_valid,
                })
            }
            _ => None,
        }
    }

    /// The left value at `row`; `None` for NULL.
    #[inline]
    fn left(&self, row: usize) -> Option<i64> {
        self.l_valid[row].then(|| self.l_vals[row])
    }

    /// The right value at `row`; `None` for NULL.
    #[inline]
    fn right(&self, row: usize) -> Option<i64> {
        self.r_valid[row].then(|| self.r_vals[row])
    }

    /// Keeps the rows of `r_rows` that pair with `l_row` under this
    /// condition. The left value is read and the operator chosen once
    /// per call, so each arm is one loop of `i64` compares.
    fn retain(&self, l_row: usize, r_rows: &mut Vec<u32>) {
        if !self.l_valid[l_row] {
            r_rows.clear();
            return;
        }
        let l = self.l_vals[l_row];
        match self.op {
            CompareOp::Eq => self.retain_by(r_rows, |r| l == r),
            CompareOp::Neq => self.retain_by(r_rows, |r| l != r),
            CompareOp::Lt => self.retain_by(r_rows, |r| l < r),
            CompareOp::Le => self.retain_by(r_rows, |r| l <= r),
            CompareOp::Gt => self.retain_by(r_rows, |r| l > r),
            CompareOp::Ge => self.retain_by(r_rows, |r| l >= r),
        }
    }

    #[inline]
    fn retain_by(&self, r_rows: &mut Vec<u32>, pairs_with: impl Fn(i64) -> bool) {
        r_rows.retain(|&r| self.r_valid[r as usize] && pairs_with(self.r_vals[r as usize]));
    }
}

/// One join condition, resolved once per join against its two inputs.
enum Cond<'a> {
    Int(IntCond<'a>),
    /// Floats, text, mixed numerics: the generic column comparison.
    Other(CompareOp, &'a ColumnVector, &'a ColumnVector),
}

/// A join's conditions beyond its key, applied a probe row at a time:
/// the operator gathers the right rows that row could pair with, and
/// [`Conds::retain`] narrows them one condition after another — a run
/// per condition rather than every condition per pair, so the integer
/// ones never leave their slices.
struct Conds<'a>(Vec<Cond<'a>>);

impl<'a> Conds<'a> {
    /// Every condition of `conds` but `conds[except]` — the one a join
    /// has already applied as its typed key.
    fn resolve(
        conds: &[SlotCond],
        except: Option<usize>,
        left: &'a NodeOut,
        right: &'a NodeOut,
    ) -> Self {
        let kept = conds
            .iter()
            .enumerate()
            .filter(|&(at, _)| Some(at) != except);
        Self(
            kept.map(|(_, &c)| match IntCond::resolve(c, left, right) {
                Some(int) => Cond::Int(int),
                None => Cond::Other(c.op, &left.data.cols[c.l_slot], &right.data.cols[c.r_slot]),
            })
            .collect(),
        )
    }

    /// Keeps the rows of `r_rows`, in order, whose pair with `l_row`
    /// satisfies every condition (a NULL on either side satisfies none).
    fn retain(&self, l_row: usize, r_rows: &mut Vec<u32>) {
        for cond in &self.0 {
            match cond {
                Cond::Int(int) => int.retain(l_row, r_rows),
                Cond::Other(op, l, r) => {
                    r_rows.retain(|&r_row| eval_cmp_cols(*op, l, l_row, r, r_row as usize))
                }
            }
        }
    }

    /// The rows of `r_rows` that [`Self::retain`] keeps for `l_row`:
    /// `r_rows` itself when there is no condition to apply, else a
    /// narrowed copy in `sel`.
    fn narrow<'s>(&self, l_row: usize, r_rows: &'s [u32], sel: &'s mut Vec<u32>) -> &'s [u32] {
        if self.0.is_empty() {
            return r_rows;
        }
        sel.clear();
        sel.extend_from_slice(r_rows);
        self.retain(l_row, sel);
        sel
    }
}

/// The one hash function of partitioned state and integer join tables:
/// a multiply by a fixed odd constant per 64-bit word, xor-folded on
/// `finish` so the well-mixed high half of the product reaches the low
/// bits a `HashMap` picks its bucket from. No per-process key — the same
/// key hashes alike on every run and host — and one multiply for an
/// `i64`, where SipHash runs its rounds.
#[derive(Default, Clone, Copy)]
struct KeyHasher(u64);

/// 2^64 / φ, odd.
const KEY_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

impl KeyHasher {
    /// The partition this hash selects under `mask`: bits 32 and up,
    /// clear of the low bits a partition's own table indexes by, so keys
    /// that share a partition still spread over its buckets.
    #[inline]
    fn partition(&self, mask: usize) -> usize {
        ((self.finish() >> 32) as usize) & mask
    }
}

impl Hasher for KeyHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for word in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..word.len()].copy_from_slice(word);
            self.write_u64(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(KEY_MUL);
    }

    #[inline]
    fn write_i64(&mut self, x: i64) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// Deterministic partition of a key under [`KeyHasher`]: the same key
/// lands in the same partition on every run at every thread count.
#[inline]
fn partition_of<T: Hash + ?Sized>(key: &T, mask: usize) -> usize {
    if mask == 0 {
        return 0;
    }
    let mut h = KeyHasher::default();
    key.hash(&mut h);
    h.partition(mask)
}

/// Splits rows `0..rows` into `parts` lists by `part_of` (`None` drops
/// the row), charging one unit per row. Per-morsel buckets merge in
/// morsel order, so every list is ascending: partition-local order is
/// global input order.
fn partition_rows<F>(
    ctx: &Ctx<'_>,
    rows: usize,
    parts: usize,
    part_of: F,
) -> Result<Vec<Vec<u32>>, ExecError>
where
    F: Fn(usize) -> Option<usize> + Sync,
{
    let morsels = Morsels::new(rows, ctx.morsel_rows);
    let parted = run_workers(morsels.team(ctx.threads), |_w| {
        let mut charger = Charger::new(ctx.budget);
        let mut out: Vec<(usize, Vec<Vec<u32>>)> = Vec::new();
        while let Some((idx, range)) = morsels.claim() {
            charger.charge(range.len() as u64)?;
            let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); parts];
            for row in range {
                if let Some(p) = part_of(row) {
                    buckets[p].push(row as u32);
                }
            }
            out.push((idx, buckets));
        }
        charger.flush()?;
        Ok(out)
    })?;
    let mut flat: Vec<(usize, Vec<Vec<u32>>)> = parted.into_iter().flatten().collect();
    flat.sort_by_key(|&(idx, _)| idx);
    let mut partitions: Vec<Vec<u32>> = vec![Vec::new(); parts];
    for (_, buckets) in flat {
        for (p, rows) in buckets.into_iter().enumerate() {
            partitions[p].extend(rows);
        }
    }
    Ok(partitions)
}

/// Runs `job` once per partition on a team of at most `team` workers —
/// each partition is handled by exactly one worker — and returns the
/// results in partition order.
fn per_partition<T, F>(team: usize, parts: usize, job: F) -> Result<Vec<T>, ExecError>
where
    T: Send,
    F: Fn(usize) -> Result<T, ExecError> + Sync,
{
    let jobs = Morsels::new(parts, 1);
    let done = run_workers(team.min(parts), |_w| {
        let mut out: Vec<(usize, T)> = Vec::new();
        while let Some((p, _)) = jobs.claim() {
            out.push((p, job(p)?));
        }
        Ok(out)
    })?;
    let mut flat: Vec<(usize, T)> = done.into_iter().flatten().collect();
    flat.sort_by_key(|&(p, _)| p);
    Ok(flat.into_iter().map(|(_, t)| t).collect())
}

/// A join table: every key's build rows, ascending, as one slice of a
/// single row array (CSR form). A table costs a handful of allocations
/// however many keys it holds. A `Vec` per key cost an allocation per
/// key: 38–50 ns a build row on `job_warm`'s 60–600-row unique-key
/// builds in place, against 8–11 for this form.
struct JoinTable<K, S> {
    spans: HashMap<K, Span, S>,
    rows: Vec<u32>,
}

/// Where one key's candidates sit in [`JoinTable::rows`].
#[derive(Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

impl<K: Hash + Eq, S: BuildHasher> JoinTable<K, S> {
    /// `key`'s build rows in ascending order; `None` for an absent key.
    #[inline]
    fn get(&self, key: &K) -> Option<&[u32]> {
        let span = self.spans.get(key)?;
        let start = span.start as usize;
        Some(&self.rows[start..start + span.len as usize])
    }

    fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// One partition's join table over raw `i64` keys — the fast path when
/// both key columns are integer-typed: no `Value` per probe, and
/// [`KeyHasher`] in place of SipHash. A nested loop builds one over its
/// inner side when [`looks_up`] says so.
type IntTable = JoinTable<i64, BuildHasherDefault<KeyHasher>>;

/// One partition's join table over [`Value`] keys (everything else),
/// under the standard library's keyed hasher: text keys come from
/// outside the program. Cross-type numeric keys never match in either
/// representation, exactly like the row engine's `HashMap<&Value>`
/// (`Int` and `Float` hash differently by design; the binder
/// type-checks join keys).
type AnyTable = JoinTable<Value, RandomState>;

/// A key a [`JoinTable`] files its rows under. [`JoinKey::same`] only
/// has to be sound: `true` must mean the table's map files both keys
/// under one entry (same hash, equal), so a run of such rows may share
/// one lookup. `Value`'s `==` is not that — `0.0 == -0.0` and
/// `Int(2) == Float(2.0)`, each pair hashing apart.
trait JoinKey: Hash + Eq {
    fn same(&self, other: &Self) -> bool;
}

impl JoinKey for i64 {
    #[inline]
    fn same(&self, other: &Self) -> bool {
        self == other
    }
}

impl JoinKey for Value {
    fn same(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

/// Distinct keys a build pre-sizes its map for, at most: the 60–600-row
/// unique-key builds of `online_drift` and `job_warm` never rehash, and
/// the 106 361-row builds over 8 keys allocate 2048 buckets, not 128k.
/// Timed in place over a `job_warm` pass, three runs per bound, ns a
/// build row on 60–600-row unique keys / 106 361-row few-key builds: no
/// pre-size 20.0–24.2 / 2.2–2.5, 256 8.8–10.4 / 2.2–2.5, 1024 7.9–8.6 /
/// 2.3–2.5, 4096 7.9–9.2 / 2.3–2.7.
const PRESIZE_KEYS: usize = 1024;

/// The table over `rows` of the build side, skipping NULL keys
/// (`key_at` gives `None`). `rows` ascends, so every key's slice is in
/// build-row order.
///
/// One pass appends the non-NULL rows in order and files them a run of
/// consecutive equal keys at a time — one map look-up per run, so the
/// three 106 361-row builds of a `job_warm` pass, 95 runs each, cost 95
/// look-ups apiece. Each key's span starts where its first run did.
/// When no key comes back after another key's run (unique keys, and
/// keys already grouped) that layout is the table. Otherwise the spans
/// are laid out afresh in map order and every run is copied to its
/// key's place, indexed by where the key's first run started.
///
/// Kept out of line: inlined into `hash_join`, the same loop read 15–24
/// ns a build row on `job_warm`'s unique-key builds in place, against
/// 8–13 out of line.
#[inline(never)]
fn table_over<K, S>(
    key_at: impl Fn(usize) -> Option<K>,
    rows: impl ExactSizeIterator<Item = u32>,
) -> JoinTable<K, S>
where
    K: JoinKey,
    S: BuildHasher + Default,
{
    let presize = rows.len().min(PRESIZE_KEYS);
    let mut spans: HashMap<K, Span, S> = HashMap::with_capacity_and_hasher(presize, S::default());
    let mut filed: Vec<u32> = Vec::with_capacity(rows.len());
    // `(where the run's key started, run length)`, in row order.
    let mut runs: Vec<(u32, u32)> = Vec::with_capacity(presize);
    let mut regrouped = false;
    let mut close = |key: K, from: usize, to: usize| {
        let len = (to - from) as u32;
        let span = spans.entry(key).or_insert(Span {
            start: from as u32,
            len: 0,
        });
        regrouped |= span.len != 0;
        span.len += len;
        runs.push((span.start, len));
    };
    // The open run: its key and where it starts in `filed`.
    let mut run: Option<(K, usize)> = None;
    for row in rows {
        let Some(key) = key_at(row as usize) else {
            continue;
        };
        if !run.as_ref().is_some_and(|(k, _)| k.same(&key)) {
            if let Some((k, from)) = run.replace((key, filed.len())) {
                close(k, from, filed.len());
            }
        }
        filed.push(row);
    }
    if let Some((k, from)) = run {
        close(k, from, filed.len());
    }
    if !regrouped {
        return JoinTable { spans, rows: filed };
    }
    // `cursor[s]`: the next free slot of the key whose first run
    // started at `s`.
    let mut cursor = vec![0u32; filed.len()];
    let mut end = 0u32;
    for span in spans.values_mut() {
        cursor[span.start as usize] = end;
        span.start = end;
        end += span.len;
    }
    let mut out = vec![0u32; filed.len()];
    let mut from = 0usize;
    for (first, len) in runs {
        let (at, len) = (&mut cursor[first as usize], len as usize);
        let to = *at as usize;
        out[to..to + len].copy_from_slice(&filed[from..from + len]);
        *at += len as u32;
        from += len;
    }
    JoinTable { spans, rows: out }
}

/// A hash join's build: one table per partition, radix-partitioned when
/// the team has more than one worker. Build rows cost one unit each
/// (NULL keys charged but excluded). With partitions, build rows are
/// split by key hash in parallel and each partition's table is built by
/// one worker from a row list that preserves build order; a team of one
/// builds a single table straight off the build side. Either way every
/// key's candidate list is in ascending build-row order.
fn build_tables<K, S, F>(
    ctx: &Ctx<'_>,
    build_rows: usize,
    key_at: F,
) -> Result<Vec<JoinTable<K, S>>, ExecError>
where
    K: JoinKey + Send,
    S: BuildHasher + Default + Send,
    F: Fn(usize) -> Option<K> + Sync,
{
    let parts = ctx.partitions();
    if parts == 1 {
        ctx.budget.add(build_rows as u64)?;
        return Ok(vec![table_over(&key_at, 0..build_rows as u32)]);
    }
    let mask = parts - 1;
    let partitions = partition_rows(ctx, build_rows, parts, |row| {
        key_at(row).map(|k| partition_of(&k, mask))
    })?;
    // Charge-free (the partition pass charged the build), and sized
    // from the build side: a small build does not pay a team spawn.
    per_partition(ctx.team_for(build_rows), parts, |p| {
        Ok(table_over(&key_at, partitions[p].iter().copied()))
    })
}

/// A hash join's probe pass: probe morsels look their key (`probe_key`;
/// `None` for NULL) up in its partition's table without touching
/// shared state and emit in probe order. One unit per probe row, one
/// per candidate, one per emitted row. `residual` is what a candidate
/// must still satisfy: a probe row's candidate list is charged,
/// narrowed by it (when it is anything) and appended as one run.
/// Against tables with no row the probe rows are charged in one add and
/// nothing is looked up.
#[allow(clippy::too_many_arguments)]
fn probe_tables<K, S>(
    ctx: &Ctx<'_>,
    tables: &[JoinTable<K, S>],
    residual: &Conds<'_>,
    out_map: &[Side],
    types: &[ColumnType],
    left: &NodeOut,
    right: &NodeOut,
    probe_key: impl Fn(usize) -> Option<K> + Sync,
) -> Result<Chunk, ExecError>
where
    K: Hash + Eq + Sync,
    S: BuildHasher + Sync,
{
    if tables.iter().all(JoinTable::is_empty) {
        ctx.budget.add(left.data.rows as u64)?;
        return Ok(Chunk::empty(types));
    }
    let mask = tables.len() - 1;
    let candidates = |row| {
        let k = probe_key(row)?;
        tables[partition_of(&k, mask)].get(&k)
    };
    let morsels = Morsels::new(left.data.rows, ctx.morsel_rows);
    let chunks = run_workers(morsels.team(ctx.threads), |_w| {
        let mut charger = Charger::new(ctx.budget);
        let mut emitter = PairEmitter::new(out_map, types, left, right);
        let mut out: Vec<(usize, Chunk)> = Vec::new();
        let mut sel: Vec<u32> = Vec::new();
        while let Some((idx, range)) = morsels.claim() {
            charger.charge(range.len() as u64)?;
            for row in range {
                let Some(candidates) = candidates(row) else {
                    continue;
                };
                charger.charge(candidates.len() as u64)?;
                let matches = residual.narrow(row, candidates, &mut sel);
                charger.charge(matches.len() as u64)?;
                emitter.push_run(row as u32, matches);
            }
            out.push((idx, emitter.take()));
        }
        charger.flush()?;
        Ok(out)
    })?;
    Ok(concat_indexed(
        types,
        chunks.into_iter().flatten().collect(),
    ))
}

/// Hash join on the first `=` condition (the row oracle's key, so the
/// candidate counts agree): [`build_tables`] over the right input, then
/// [`probe_tables`] with the left. Two plain integer key columns take
/// the typed form — `i64` keys off the slices, and candidates, which
/// matched by `i64` equality, narrowed only by the *other* conditions;
/// any other key goes through [`Value`]s and its candidates through
/// every condition.
fn hash_join(
    ctx: &Ctx<'_>,
    conds: &[SlotCond],
    out_map: &[Side],
    types: &[ColumnType],
    left: &NodeOut,
    right: &NodeOut,
) -> Result<Chunk, ExecError> {
    let at = conds
        .iter()
        .position(|c| c.op == CompareOp::Eq)
        .ok_or_else(|| {
            QueryError::InvalidPlan("hash join requires an equality condition".into())
        })?;
    let build_rows = right.data.rows;
    let int_key = IntCond::resolve(conds[at], left, right);
    let residual = Conds::resolve(conds, int_key.map(|_| at), left, right);
    if let Some(key) = int_key {
        let tables: Vec<IntTable> = build_tables(ctx, build_rows, |row| key.right(row))?;
        probe_tables(
            ctx,
            &tables,
            &residual,
            out_map,
            types,
            left,
            right,
            |row| key.left(row),
        )
    } else {
        let non_null = |col: &ColumnVector, row| {
            let k = col.get(row);
            (!k.is_null()).then_some(k)
        };
        let build_col = &right.data.cols[conds[at].r_slot];
        let probe_col = &left.data.cols[conds[at].l_slot];
        let tables: Vec<AnyTable> = build_tables(ctx, build_rows, |row| non_null(build_col, row))?;
        probe_tables(
            ctx,
            &tables,
            &residual,
            out_map,
            types,
            left,
            right,
            |row| non_null(probe_col, row),
        )
    }
}

/// Scanned pairs that one table row, or one look-up, is worth: a nested
/// loop builds a table over its inner side when `probe × inner >
/// LOOKUP_PAIRS × (probe + inner)`. Measured in place with each way
/// forced on every nested loop of a `job_warm` pass: a scanned pair
/// costs 0.31–0.50 ns; a table costs 2.4 ns an inner row to build on
/// grouped keys (3 × 47 441: 115 µs against a 45 µs scan) and up to
/// ≈ 13 on unique ones; a probe row's look-up about 4 ns (32 064 × 38:
/// 126 µs against 608). That is 6–32 pairs per inner row and about ten
/// per probe row, so 32 on both sides takes the table only where it
/// wins at the dearest build measured: 124 × 9 726, 853 × 2 640 (705 →
/// 11 µs) and 32 064 × 38 look up; 3 × 47 441 and 1 × 66 840 scan. The
/// shapes it leaves scanning that a table would still speed up are
/// inner sides of 4–24 rows, 1–11 µs a join and ≈ 0.4 µs a `job_warm`
/// op in all.
const LOOKUP_PAIRS: u64 = 32;

/// Whether an integer-keyed nested loop of `probe` × `inner` rows finds
/// its pairs through a table over the inner side rather than by
/// scanning the inner key slice per probe row (see [`LOOKUP_PAIRS`]).
/// Row counts alone decide; both ways find the same pairs in the same
/// order.
fn looks_up(probe: usize, inner: usize) -> bool {
    let (probe, inner) = (probe as u64, inner as u64);
    probe * inner > LOOKUP_PAIRS * (probe + inner)
}

/// Nested-loop join: probe morsels against the fully materialised
/// inner side. One unit per (probe, inner) pair and one per emitted
/// row, charged per probe row: the inner side's size first, the matches
/// after. With an integer `=` condition a probe row's key matches are
/// found one of two ways, chosen by [`looks_up`] from the two row
/// counts: read off an [`IntTable`] over the inner side — built once,
/// before the workers start, shared read-only and charged nothing, as
/// the scan is — or by scanning the inner key slice. Both yield the
/// matching inner rows in ascending order, and only those see the other
/// conditions. An empty inner side pairs with nothing and charges
/// nothing, so it returns at once.
fn nested_join(
    ctx: &Ctx<'_>,
    conds: &[SlotCond],
    out_map: &[Side],
    types: &[ColumnType],
    left: &NodeOut,
    right: &NodeOut,
) -> Result<Chunk, ExecError> {
    let inner_rows = right.data.rows;
    if inner_rows == 0 {
        return Ok(Chunk::empty(types));
    }
    let int_key = conds.iter().enumerate().find_map(|(at, &c)| {
        let key = IntCond::resolve(c, left, right)?;
        (key.op == CompareOp::Eq).then_some((at, key))
    });
    let rest = Conds::resolve(conds, int_key.map(|(at, _)| at), left, right);
    let int_key = int_key.map(|(_, key)| key);
    let table: Option<IntTable> = int_key
        .filter(|_| looks_up(left.data.rows, inner_rows))
        .map(|key| table_over(|row| key.right(row), 0..inner_rows as u32));
    let morsels = Morsels::new(left.data.rows, ctx.morsel_rows);
    let chunks = run_workers(morsels.team(ctx.threads), |_w| {
        let mut charger = Charger::new(ctx.budget);
        let mut emitter = PairEmitter::new(out_map, types, left, right);
        let mut out: Vec<(usize, Chunk)> = Vec::new();
        let mut sel: Vec<u32> = Vec::new();
        while let Some((idx, range)) = morsels.claim() {
            for row in range {
                charger.charge(inner_rows as u64)?;
                let matches = match (&int_key, &table) {
                    (Some(key), Some(table)) => {
                        let found = key.left(row).and_then(|k| table.get(&k));
                        rest.narrow(row, found.unwrap_or_default(), &mut sel)
                    }
                    (Some(key), None) => {
                        sel.clear();
                        if let Some(k) = key.left(row) {
                            for (b_row, (&b_key, &valid)) in
                                key.r_vals.iter().zip(key.r_valid).enumerate()
                            {
                                if b_key == k && valid {
                                    sel.push(b_row as u32);
                                }
                            }
                        }
                        rest.retain(row, &mut sel);
                        &sel
                    }
                    (None, _) => {
                        sel.clear();
                        sel.extend(0..inner_rows as u32);
                        rest.retain(row, &mut sel);
                        &sel
                    }
                };
                charger.charge(matches.len() as u64)?;
                emitter.push_run(row as u32, matches);
            }
            out.push((idx, emitter.take()));
        }
        charger.flush()?;
        Ok(out)
    })?;
    Ok(concat_indexed(
        types,
        chunks.into_iter().flatten().collect(),
    ))
}

/// Sort-merge join: the two key sorts run concurrently (a stable sort,
/// so the permutations do not depend on the team size); the merge
/// itself advances serially because its charge pattern — one unit per
/// cursor comparison, one per pair in each equal block — depends on the
/// traversal. A left row's equal block is narrowed by the conditions as
/// a hash probe's candidates are: all of them, or all but an integer key.
fn merge_join(
    ctx: &Ctx<'_>,
    conds: &[SlotCond],
    out_map: &[Side],
    types: &[ColumnType],
    left: &NodeOut,
    right: &NodeOut,
) -> Result<Chunk, ExecError> {
    let at = conds
        .iter()
        .position(|c| c.op == CompareOp::Eq)
        .ok_or_else(|| {
            QueryError::InvalidPlan("merge join requires an equality condition".into())
        })?;
    let key = conds[at];
    let lcol = &left.data.cols[key.l_slot];
    let rcol = &right.data.cols[key.r_slot];
    let mut li: Vec<u32> = (0..left.data.rows as u32)
        .filter(|&r| !lcol.is_null(r as usize))
        .collect();
    let mut ri: Vec<u32> = (0..right.data.rows as u32)
        .filter(|&r| !rcol.is_null(r as usize))
        .collect();
    ctx.budget.add(((li.len() + ri.len()) as u64).max(1))?;
    {
        let (li_ref, ri_ref) = (&mut li, &mut ri);
        let mut sort_left =
            move || li_ref.sort_by(|&a, &b| lcol.total_cmp_at(a as usize, lcol, b as usize));
        let mut sort_right =
            move || ri_ref.sort_by(|&a, &b| rcol.total_cmp_at(a as usize, rcol, b as usize));
        if ctx.threads > 1 {
            std::thread::scope(|s| {
                s.spawn(sort_left);
                sort_right();
            });
        } else {
            sort_left();
            sort_right();
        }
    }

    // An equal block of two integer columns has already met the key.
    let int_key = IntCond::resolve(key, left, right).map(|_| at);
    let rest = Conds::resolve(conds, int_key, left, right);
    let mut sel: Vec<u32> = Vec::new();
    let mut emitter = PairEmitter::new(out_map, types, left, right);
    let mut charger = Charger::new(ctx.budget);
    let (mut i, mut j) = (0usize, 0usize);
    while i < li.len() && j < ri.len() {
        charger.charge(1)?;
        let (l_row0, r_row0) = (li[i] as usize, ri[j] as usize);
        match lcol.total_cmp_at(l_row0, rcol, r_row0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let i_end = (i..li.len())
                    .take_while(|&x| lcol.total_cmp_at(li[x] as usize, lcol, l_row0).is_eq())
                    .last()
                    .unwrap_or(i)
                    + 1;
                let j_end = (j..ri.len())
                    .take_while(|&x| rcol.total_cmp_at(ri[x] as usize, rcol, r_row0).is_eq())
                    .last()
                    .unwrap_or(j)
                    + 1;
                for &lx in &li[i..i_end] {
                    charger.charge((j_end - j) as u64)?;
                    let matches = rest.narrow(lx as usize, &ri[j..j_end], &mut sel);
                    charger.charge(matches.len() as u64)?;
                    emitter.push_run(lx, matches);
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    charger.flush()?;
    Ok(emitter.take())
}

/// Folds `rows` of the input into per-group accumulators and returns one
/// output row (keys, then aggregate values) per group. `rows` ascends,
/// so every accumulator folds in input order.
fn fold_groups(
    spec: &AggSpec,
    cols: &[ColumnVector],
    rows: impl Iterator<Item = usize>,
) -> Result<Vec<Vec<Value>>, ExecError> {
    let mut groups: HashMap<Vec<Value>, Vec<Acc>> = HashMap::new();
    for row in rows {
        let k: Vec<Value> = spec.key_slots.iter().map(|&s| cols[s].get(row)).collect();
        let accs = groups.entry(k).or_insert_with(|| spec.new_accs());
        for (acc, slot) in accs.iter_mut().zip(&spec.agg_slots) {
            let v = slot.map(|s| cols[s].get(row));
            acc.update(v.as_ref())?;
        }
    }
    Ok(groups
        .into_iter()
        .map(|(mut key, accs)| {
            key.extend(accs.into_iter().map(Acc::finish));
            key
        })
        .collect())
}

/// Aggregation at the plan root. Grouped inputs cost one unit per input
/// row; with more than one worker they are partitioned by key hash
/// (order-preserving within each partition) and folded
/// partition-by-partition — a group's rows land wholly in one partition,
/// so every accumulator folds in global input order and float sums are
/// bit-identical at every team size. Global aggregates fold on one
/// thread for the same reason, an accumulator at a time ([`fold_column`]).
fn eval_aggregate(ctx: &Ctx<'_>, algo: AggAlgo, child: &NodeOut) -> Result<Chunk, ExecError> {
    let spec = AggSpec::resolve(ctx.graph, ctx.db.catalog(), &child.proj)?;
    let input_rows = child.data.rows;
    let cols = &child.data.cols;
    let parts = ctx.partitions();

    let mut out_rows: Vec<Vec<Value>> = if spec.key_slots.is_empty() {
        ctx.budget.add(input_rows as u64)?;
        // An aggregate over zero rows with no GROUP BY still yields one
        // row (SQL semantics: COUNT(*) = 0) — an empty fold covers it.
        let aggs = spec.agg_funcs.iter().zip(&spec.agg_slots);
        let row = aggs.map(|(&func, slot)| fold_column(func, slot.map(|s| &cols[s]), input_rows));
        vec![row.collect::<Result<_, _>>()?]
    } else if parts == 1 {
        ctx.budget.add(input_rows as u64)?;
        fold_groups(&spec, cols, 0..input_rows)?
    } else {
        let mask = parts - 1;
        let partitions = partition_rows(ctx, input_rows, parts, |row| {
            let mut h = KeyHasher::default();
            for &s in &spec.key_slots {
                cols[s].get(row).hash(&mut h);
            }
            Some(h.partition(mask))
        })?;
        // Disjoint key sets per partition, no accumulator merging,
        // charge-free (the partition pass charged the input rows), and
        // sized from the input: a small fold does not pay a team spawn.
        per_partition(ctx.team_for(input_rows), parts, |p| {
            fold_groups(&spec, cols, partitions[p].iter().map(|&r| r as usize))
        })?
        .into_iter()
        .flatten()
        .collect()
    };

    if algo == AggAlgo::Sort {
        // The sort's cost, charged on the input size.
        ctx.budget.add(input_rows as u64)?;
        out_rows.sort();
    }
    ctx.budget.add(out_rows.len() as u64)?;
    let mut chunk = Chunk::empty(&spec.out_types);
    for row in &out_rows {
        for (col, v) in chunk.cols.iter_mut().zip(row) {
            let ok = col.push(v);
            debug_assert!(ok, "aggregate output value fits its column type");
        }
        chunk.rows += 1;
    }
    Ok(chunk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::projection::{aggregate_inputs, all_columns};
    use hfqo_query::sql::{AggFunc, CompareOp};
    use hfqo_query::{AggExpr, BoundColumn, JoinEdge, Relation, Selection};
    use hfqo_storage::catalog::{Catalog, Column, ColumnId, TableSchema};

    /// Two tables a(k, v, pad), b(k, w); query joins a.k = b.k with a
    /// selection on a.v and COUNT(*) + SUM(b.w).
    fn setup() -> (Database, QueryGraph) {
        let mut cat = Catalog::new();
        let a = cat
            .add_table(TableSchema::new(
                "a",
                vec![
                    Column::new("k", ColumnType::Int),
                    Column::new("v", ColumnType::Int),
                    Column::new("pad", ColumnType::Text),
                ],
            ))
            .unwrap();
        let b = cat
            .add_table(TableSchema::new(
                "b",
                vec![
                    Column::new("k", ColumnType::Int),
                    Column::new("w", ColumnType::Int),
                ],
            ))
            .unwrap();
        let mut db = Database::new(cat);
        for i in 0..10i64 {
            db.table_mut(a)
                .unwrap()
                .append_row(&[Value::Int(i), Value::Int(i % 3), Value::str("x")])
                .unwrap();
            db.table_mut(b)
                .unwrap()
                .append_row(&[Value::Int(i % 5), Value::Int(i)])
                .unwrap();
        }
        let graph = QueryGraph::new(
            vec![
                Relation {
                    table: a,
                    alias: "a".into(),
                },
                Relation {
                    table: b,
                    alias: "b".into(),
                },
            ],
            vec![JoinEdge {
                left: BoundColumn::new(RelId(0), ColumnId(0)),
                op: CompareOp::Eq,
                right: BoundColumn::new(RelId(1), ColumnId(0)),
            }],
            vec![Selection {
                column: BoundColumn::new(RelId(0), ColumnId(1)),
                op: CompareOp::Eq,
                value: hfqo_query::Lit::Int(0),
            }],
            vec![
                AggExpr {
                    func: AggFunc::Count,
                    column: None,
                },
                AggExpr {
                    func: AggFunc::Sum,
                    column: Some(BoundColumn::new(RelId(1), ColumnId(1))),
                },
            ],
            vec![],
        );
        (db, graph)
    }

    fn join_of(algo: JoinAlgo, conds: &[usize]) -> PlanNode {
        PlanNode::Join {
            algo,
            conds: conds.to_vec(),
            left: Box::new(PlanNode::Scan {
                rel: RelId(0),
                path: AccessPath::SeqScan,
            }),
            right: Box::new(PlanNode::Scan {
                rel: RelId(1),
                path: AccessPath::SeqScan,
            }),
        }
    }

    /// The `(rel, column)` pairs the join's output carries under
    /// `required`, and its row count.
    fn join_output_under(required: &ColSet, threads: usize) -> (Vec<(u32, u32)>, usize) {
        let (db, graph) = setup();
        let budget = SharedBudget::new(1_000_000);
        let ctx = Ctx {
            db: &db,
            graph: &graph,
            threads,
            morsel_rows: 4,
            budget: &budget,
        };
        let out = eval_node(&ctx, &join_of(JoinAlgo::Hash, &[0]), required).unwrap();
        assert_eq!(out.data.cols.len(), out.proj.width());
        assert!(budget.used() > 0);
        let cols = out
            .proj
            .columns()
            .iter()
            .map(|c| (c.rel.0, c.column.0))
            .collect();
        (cols, out.data.rows)
    }

    #[test]
    fn full_requirement_matches_row_layout_order() {
        let (db, graph) = setup();
        let (cols, _) = join_output_under(&all_columns(&graph, &db), 1);
        // Leaf order (a then b), column-id order within each leaf — the
        // row engine's layout.
        assert_eq!(cols, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]);
    }

    #[test]
    fn aggregate_requirement_prunes_unreferenced_columns() {
        let (_, graph) = setup();
        // Only b.w survives above the join: a.k/b.k are consumed by the
        // join itself, a.v by the scan filter, a.pad by nothing.
        let (cols, _) = join_output_under(&aggregate_inputs(&graph), 1);
        assert_eq!(cols, vec![(1, 1)]);
    }

    #[test]
    fn empty_requirement_yields_zero_width_counting_output() {
        // a.v = 0 keeps a ids {0, 3, 6, 9}; b.k = i % 5 has 2 rows per
        // key in 0..5 → ids 0 and 3 match 2 rows each, 6/9 none. The
        // count survives with no column to carry it, at any team size.
        for threads in [1, 2] {
            let (cols, rows) = join_output_under(&ColSet::new(), threads);
            assert!(cols.is_empty());
            assert_eq!(rows, 4);
        }
    }

    /// Two tables `a(k, v, f, s, r)` and `b(k, w, f, s, r)` shaped so
    /// that `a.k = b.k` yields exactly `n` rows: `a` holds keys `0..p`,
    /// `b` holds `n` rows with key `i % p`, and each side adds a NULL-key
    /// row and a key the other side lacks. `f` and `s` carry the key as
    /// a float and as text; `v` is `a`'s row number and `w = i % 3`; `r`
    /// is the row number modulo 7, NULL on every fourth row of `a` and
    /// every fifth of `b`.
    /// Join edges: 0 `a.k = b.k`, 1 `a.v < b.w`, 2 `a.f = b.f`,
    /// 3 `a.s = b.s`, 4 `a.r = b.r`, 5 `a.r >= b.r`, 6 `a.f < b.w`.
    fn fan_fixture(p: usize, n: usize) -> (Database, QueryGraph) {
        let cols = |third: &str| {
            vec![
                Column::nullable("k", ColumnType::Int),
                Column::new(third, ColumnType::Int),
                Column::nullable("f", ColumnType::Float),
                Column::nullable("s", ColumnType::Text),
                Column::nullable("r", ColumnType::Int),
            ]
        };
        let mut cat = Catalog::new();
        let a = cat.add_table(TableSchema::new("a", cols("v"))).unwrap();
        let b = cat.add_table(TableSchema::new("b", cols("w"))).unwrap();
        let mut db = Database::new(cat);
        let row = |key: Option<i64>, third: i64, r: Option<i64>| {
            let r = r.map_or(Value::Null, Value::Int);
            match key {
                Some(k) => [
                    Value::Int(k),
                    Value::Int(third),
                    Value::Float(k as f64),
                    Value::str(format!("s{k}")),
                    r,
                ],
                None => [Value::Null, Value::Int(third), Value::Null, Value::Null, r],
            }
        };
        let residual = |i: usize, null_every: usize| {
            (i % null_every != null_every - 1).then_some((i % 7) as i64)
        };
        let a_keys = (0..p as i64).map(Some).chain([None, Some(-1)]);
        for (i, key) in a_keys.enumerate() {
            let t = db.table_mut(a).unwrap();
            t.append_row(&row(key, i as i64, residual(i, 4))).unwrap();
        }
        let b_keys = (0..n).map(|i| Some((i % p) as i64)).chain([None, Some(-2)]);
        for (i, key) in b_keys.enumerate() {
            let t = db.table_mut(b).unwrap();
            t.append_row(&row(key, (i % 3) as i64, residual(i, 5)))
                .unwrap();
        }
        let edge = |l_col: u32, op, r_col: u32| JoinEdge {
            left: BoundColumn::new(RelId(0), ColumnId(l_col)),
            op,
            right: BoundColumn::new(RelId(1), ColumnId(r_col)),
        };
        let graph = QueryGraph::new(
            vec![
                Relation {
                    table: a,
                    alias: "a".into(),
                },
                Relation {
                    table: b,
                    alias: "b".into(),
                },
            ],
            vec![
                edge(0, CompareOp::Eq, 0),
                edge(1, CompareOp::Lt, 1),
                edge(2, CompareOp::Eq, 2),
                edge(3, CompareOp::Eq, 3),
                edge(4, CompareOp::Eq, 4),
                edge(4, CompareOp::Ge, 4),
                edge(2, CompareOp::Lt, 1),
            ],
            vec![],
            vec![],
            vec![],
        );
        (db, graph)
    }

    /// Evaluates `node` on a team of exactly `threads` (no clamp to the
    /// host's cores, unlike [`evaluate`]) and returns its rows and work.
    fn run(
        (db, graph): &(Database, QueryGraph),
        node: &PlanNode,
        required: &ColSet,
        (threads, morsel_rows): (usize, usize),
        budget: u64,
    ) -> Result<(Vec<Row>, u64), ExecError> {
        let budget = SharedBudget::new(budget);
        let ctx = Ctx {
            db,
            graph,
            threads,
            morsel_rows,
            budget: &budget,
        };
        let out = eval_root(&ctx, node, required)?;
        Ok((out.into_rows(), budget.used()))
    }

    const GEOMETRIES: [(usize, usize); 9] = [
        (1, 1),
        (1, 64),
        (1, 4096),
        (2, 1),
        (2, 64),
        (2, 4096),
        (4, 1),
        (4, 64),
        (4, 4096),
    ];

    /// Checks `node` against the row oracle at every team size and
    /// morsel size: the same rows as a multiset, in one order at every
    /// geometry, the same `work`, and the same count and `work` from a
    /// zero-width counting run. Returns the row count.
    fn assert_matches_oracle(world: &(Database, QueryGraph), node: PlanNode) -> usize {
        let (db, graph) = world;
        let plan = hfqo_query::PhysicalPlan::new(node);
        let oracle =
            crate::execute_rows(db, graph, &plan, ExecConfig::with_budget(u64::MAX)).unwrap();
        let mut want = oracle.rows;
        want.sort();
        let mut order: Option<Vec<Row>> = None;
        for geometry in GEOMETRIES {
            let tag = format!("{:?} at {geometry:?}", plan.root);
            let (rows, work) = run(
                world,
                &plan.root,
                &all_columns(graph, db),
                geometry,
                u64::MAX,
            )
            .unwrap();
            assert_eq!(work, oracle.stats.work, "{tag}");
            let mut sorted = rows.clone();
            sorted.sort();
            assert!(sorted == want, "{tag}: rows differ from the oracle's");
            let first = order.get_or_insert_with(|| rows.clone());
            assert!(rows == *first, "{tag}: row order moved");
            let (counted, work) =
                run(world, &plan.root, &ColSet::new(), geometry, u64::MAX).unwrap();
            assert!(counted.iter().all(Vec::is_empty), "{tag}");
            assert_eq!(
                (counted.len(), work),
                (want.len(), oracle.stats.work),
                "{tag}"
            );
        }
        want.len()
    }

    #[test]
    fn join_outputs_straddle_the_pair_batch() {
        for n in [
            0,
            PAIR_BATCH - 1,
            PAIR_BATCH,
            PAIR_BATCH + 1,
            3 * PAIR_BATCH + 1,
        ] {
            // One probe key with `n` candidates, `n` keys with one
            // each, and five keys sharing them: the batch fills inside a
            // run, across probe rows, and both.
            for p in [1, 5, n.max(1)] {
                let world = fan_fixture(p, n);
                for algo in [JoinAlgo::Hash, JoinAlgo::Merge, JoinAlgo::NestedLoop] {
                    if algo == JoinAlgo::NestedLoop && p > 5 {
                        continue; // n² pairs per geometry
                    }
                    assert_eq!(assert_matches_oracle(&world, join_of(algo, &[0])), n);
                }
            }
        }
    }

    #[test]
    fn null_keys_match_nothing_on_the_integer_paths() {
        // Three live keys, and a NULL key on each side: the NULLs pair
        // with nothing, each other included.
        let world = fan_fixture(3, 7);
        for algo in [JoinAlgo::NestedLoop, JoinAlgo::Hash] {
            let node = join_of(algo, &[0]);
            assert_eq!(assert_matches_oracle(&world, node.clone()), 7);
            let (db, graph) = &world;
            let (rows, _) =
                run(&world, &node, &all_columns(graph, db), (1, 4096), u64::MAX).unwrap();
            assert!(rows.iter().all(|r| !r[0].is_null() && r[0] == r[5]));
        }
    }

    #[test]
    fn residual_and_generic_conditions_match_the_oracle() {
        let world = fan_fixture(4, 50);
        // Integer key plus a residual `<`: 50 key matches, fewer rows.
        for algo in [JoinAlgo::NestedLoop, JoinAlgo::Hash, JoinAlgo::Merge] {
            let rows = assert_matches_oracle(&world, join_of(algo, &[0, 1]));
            assert!(0 < rows && rows < 50, "{algo:?}: {rows}");
            // `=` on Float, then on Text: no typed key to resolve.
            assert_eq!(assert_matches_oracle(&world, join_of(algo, &[2])), 50);
            assert_eq!(assert_matches_oracle(&world, join_of(algo, &[3])), 50);
        }
        // Only a `<`, and no condition at all (6 × 52 rows).
        let rows = assert_matches_oracle(&world, join_of(JoinAlgo::NestedLoop, &[1]));
        assert!(0 < rows && rows < 6 * 52);
        assert_eq!(
            assert_matches_oracle(&world, join_of(JoinAlgo::NestedLoop, &[])),
            6 * 52
        );
    }

    #[test]
    fn residual_conditions_match_the_oracle() {
        // Four keys with 100 build rows each — the `job_warm` shape: a
        // low-cardinality key whose candidates the residual mostly
        // rejects. Rows of `a` carry `r` = 0, 1, 2, NULL, 4, 5.
        let world = fan_fixture(4, 400);
        let (db, graph) = &world;
        for algo in [JoinAlgo::Hash, JoinAlgo::NestedLoop, JoinAlgo::Merge] {
            // A second `=`: of 100 candidates per probe row, those whose
            // `r` is the probe row's, about one in nine.
            let two_eq = join_of(algo, &[0, 4]);
            let rows = assert_matches_oracle(&world, two_eq.clone());
            assert!(0 < rows && rows < 400 / 6, "{algo:?}: {rows}");
            // A NULL on either side of the residual pairs with nothing,
            // though both sides hold NULLs under matching keys.
            let (out, _) = run(
                &world,
                &two_eq,
                &all_columns(graph, db),
                (1, 4096),
                u64::MAX,
            )
            .unwrap();
            assert!(out.iter().all(|r| !r[4].is_null() && r[4] == r[9]));
            // Integer inequalities, a mixed Int/Float pair (no typed
            // form: the generic comparison), and three conditions.
            let ge = assert_matches_oracle(&world, join_of(algo, &[0, 5]));
            assert!(rows < ge && ge < 400, "{algo:?}: {ge}");
            let mixed = assert_matches_oracle(&world, join_of(algo, &[0, 6]));
            assert!(0 < mixed && mixed < 400, "{algo:?}: {mixed}");
            let three = assert_matches_oracle(&world, join_of(algo, &[0, 5, 1]));
            assert!(0 < three && three < ge, "{algo:?}: {three}");
        }
        // Integer conditions with no `=` among them: the keyless loop.
        let rows = assert_matches_oracle(&world, join_of(JoinAlgo::NestedLoop, &[5, 1]));
        assert!(0 < rows && rows < 6 * 402);
    }

    #[test]
    fn budget_aborts_exactly_when_the_oracle_does() {
        let world = fan_fixture(3, 40);
        let (db, graph) = &world;
        for node in [
            join_of(JoinAlgo::NestedLoop, &[0]),
            join_of(JoinAlgo::NestedLoop, &[0, 1]),
            join_of(JoinAlgo::Hash, &[0]),
            join_of(JoinAlgo::Hash, &[0, 1]),
            join_of(JoinAlgo::Hash, &[0, 4]),
        ] {
            let plan = hfqo_query::PhysicalPlan::new(node);
            let total = crate::execute_rows(db, graph, &plan, ExecConfig::default())
                .unwrap()
                .stats
                .work;
            for budget in 0..=total + 1 {
                let oracle = crate::execute_rows(db, graph, &plan, ExecConfig::with_budget(budget));
                assert_eq!(oracle.is_err(), budget < total);
                for (threads, morsel_rows) in GEOMETRIES {
                    let tag = format!("{:?} b={budget} t={threads} m={morsel_rows}", plan.root);
                    let cfg = ExecConfig::with_budget(budget)
                        .threads(threads)
                        .morsel_rows(morsel_rows);
                    let required = all_columns(graph, db);
                    for err in [
                        crate::execute(db, graph, &plan, cfg).err(),
                        run(
                            &world,
                            &plan.root,
                            &required,
                            (threads, morsel_rows),
                            budget,
                        )
                        .err(),
                    ] {
                        match err {
                            None => assert!(oracle.is_ok(), "{tag}"),
                            Some(ExecError::BudgetExceeded { budget: b, .. }) => {
                                assert!(oracle.is_err() && b == budget, "{tag}")
                            }
                            Some(other) => panic!("{tag}: {other}"),
                        }
                    }
                }
            }
        }
    }

    /// One eight-row table whose columns cover what a global aggregate
    /// can meet, under `aggregates`; `keep_rows = false` adds a selection
    /// no row passes. Columns: 0 `i` Int (one value past 2^53); 1 `lo`
    /// and 2 `hi`, Floats whose extreme is a `-0.0`/`0.0` tie and whose
    /// sum depends on the order of the adds; 3 `nan` and 4 `nan0`, a NaN
    /// inside and a NaN first; 5 `s` Text; 6–8 `ni`/`nf`/`ns`, the three
    /// types with NULLs; 9–11 `zi`/`zf`/`zs`, the three types all NULL.
    fn agg_fixture(aggregates: Vec<AggExpr>, keep_rows: bool) -> (Database, QueryGraph) {
        use ColumnType::{Float, Int, Text};
        let nan = f64::NAN;
        let ints = |v: [i64; 8]| v.map(Value::Int);
        let floats = |v: [f64; 8]| v.map(Value::Float);
        let texts = |v: [&str; 8]| v.map(Value::str);
        // Every third row, from the first, is NULL.
        let holes = |v: [Value; 8]| {
            let mut at = 0;
            v.map(|x| {
                at += 1;
                if at % 3 == 1 {
                    Value::Null
                } else {
                    x
                }
            })
        };
        let nulls = || [(); 8].map(|_| Value::Null);
        let columns: Vec<(Column, [Value; 8])> = vec![
            (
                Column::new("i", Int),
                ints([3, -7, 3, 0, (1 << 53) + 1, -1, 5, 5]),
            ),
            (
                Column::new("lo", Float),
                floats([-0.0, 0.0, 0.1, 0.2, 0.3, 1e16, 3.5, 0.0]),
            ),
            (
                Column::new("hi", Float),
                floats([0.0, -0.0, -0.1, -0.2, -0.3, -1e16, -3.5, -0.0]),
            ),
            (
                Column::new("nan", Float),
                floats([1.0, nan, -2.0, 5.0, nan, 0.5, -9.0, 2.0]),
            ),
            (
                Column::new("nan0", Float),
                floats([nan, 1.0, -2.0, 5.0, 0.25, 0.5, -9.0, 2.0]),
            ),
            (
                Column::new("s", Text),
                texts(["pear", "apple", "fig", "apple", "zoo", "kiwi", "zoo", "yam"]),
            ),
            (
                Column::nullable("ni", Int),
                holes(ints([0, 4, -2, 0, 4, 10, 0, -2])),
            ),
            (
                Column::nullable("nf", Float),
                holes(floats([0.0, 0.1, 0.2, 0.0, 0.3, -0.0, 0.0, 0.0])),
            ),
            (
                Column::nullable("ns", Text),
                holes(texts(["", "m", "b", "", "m", "x", "", "b"])),
            ),
            (Column::nullable("zi", Int), nulls()),
            (Column::nullable("zf", Float), nulls()),
            (Column::nullable("zs", Text), nulls()),
        ];
        let mut cat = Catalog::new();
        let schema = columns.iter().map(|(c, _)| c.clone()).collect();
        let t = cat.add_table(TableSchema::new("t", schema)).unwrap();
        let mut db = Database::new(cat);
        for row in 0..8 {
            let values: Vec<Value> = columns.iter().map(|(_, v)| v[row].clone()).collect();
            db.table_mut(t).unwrap().append_row(&values).unwrap();
        }
        let selections = if keep_rows {
            vec![]
        } else {
            vec![Selection {
                column: BoundColumn::new(RelId(0), ColumnId(0)),
                op: CompareOp::Lt,
                value: hfqo_query::Lit::Int(-100),
            }]
        };
        let relation = Relation {
            table: t,
            alias: "t".into(),
        };
        let graph = QueryGraph::new(vec![relation], vec![], selections, aggregates, vec![]);
        (db, graph)
    }

    fn agg(func: AggFunc, column: u32) -> AggExpr {
        AggExpr {
            func,
            column: Some(BoundColumn::new(RelId(0), ColumnId(column))),
        }
    }

    /// The global aggregate over `world`'s table at every algorithm and
    /// geometry against the row oracle: the same values to the bit (and
    /// variant: `Value`'s own equality takes `2` for `2.0` and a NaN for
    /// anything), the same `work`, or the same `BadAggregate`. Returns
    /// the output row, `None` for the error.
    fn assert_aggregate_matches_oracle(world: &(Database, QueryGraph)) -> Option<Row> {
        let (db, graph) = world;
        let same_bits = |a: &Value, b: &Value| match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            (Value::Int(x), Value::Int(y)) => x == y,
            (Value::Str(x), Value::Str(y)) => x == y,
            (Value::Null, Value::Null) => true,
            _ => false,
        };
        let mut out = None;
        for algo in [AggAlgo::Hash, AggAlgo::Sort] {
            let plan = hfqo_query::PhysicalPlan::new(PlanNode::Aggregate {
                algo,
                input: Box::new(PlanNode::Scan {
                    rel: RelId(0),
                    path: AccessPath::SeqScan,
                }),
            });
            let oracle = crate::execute_rows(db, graph, &plan, ExecConfig::with_budget(u64::MAX));
            for geometry in GEOMETRIES {
                let tag = format!("{algo:?} at {geometry:?}");
                let required = aggregate_inputs(graph);
                let got = run(world, &plan.root, &required, geometry, u64::MAX);
                match (&oracle, got) {
                    (Ok(want), Ok((rows, work))) => {
                        assert_eq!(work, want.stats.work, "{tag}");
                        assert_eq!((rows.len(), want.rows.len()), (1, 1), "{tag}");
                        assert_eq!(rows[0].len(), graph.aggregates().len(), "{tag}");
                        for (at, (g, w)) in rows[0].iter().zip(&want.rows[0]).enumerate() {
                            let expr = &graph.aggregates()[at];
                            assert!(same_bits(g, w), "{tag}: {expr} is {g:?}, oracle {w:?}");
                        }
                        out = rows.into_iter().next();
                    }
                    (Err(ExecError::BadAggregate(_)), Err(ExecError::BadAggregate(_))) => {}
                    (want, got) => panic!("{tag}: {got:?}, oracle {:?}", want.as_ref().err()),
                }
            }
        }
        out
    }

    #[test]
    fn global_aggregates_match_the_oracle_to_the_bit() {
        // Every function over every column in one query, so each
        // accumulator folds its own column beside the others.
        let mut all = vec![AggExpr {
            func: AggFunc::Count,
            column: None,
        }];
        for column in 0..12 {
            all.extend([AggFunc::Count, AggFunc::Min, AggFunc::Max].map(|f| agg(f, column)));
            // `SUM`/`AVG` over text fail on the first non-NULL value, so
            // of the text columns only the all-NULL one can join in.
            if ![5, 8].contains(&column) {
                all.extend([AggFunc::Sum, AggFunc::Avg].map(|f| agg(f, column)));
            }
        }
        let world = agg_fixture(all.clone(), true);
        let row = assert_aggregate_matches_oracle(&world).unwrap();
        let value_of = |func: AggFunc, column: u32| {
            let wanted = agg(func, column);
            let at = all.iter().position(|a| *a == wanted).unwrap();
            row[at].clone()
        };
        let float_bits = |v: Value| match v {
            Value::Float(f) => f.to_bits(),
            other => panic!("{other:?} is not a float"),
        };
        // The first of equal values stays, whatever its sign bit; a NaN
        // neither replaces nor is replaced.
        assert_eq!(row[0], Value::Int(8));
        assert_eq!(float_bits(value_of(AggFunc::Min, 1)), (-0.0f64).to_bits());
        assert_eq!(float_bits(value_of(AggFunc::Max, 2)), 0.0f64.to_bits());
        assert_eq!(float_bits(value_of(AggFunc::Min, 3)), (-9.0f64).to_bits());
        assert!(f64::from_bits(float_bits(value_of(AggFunc::Max, 4))).is_nan());
        assert_eq!(value_of(AggFunc::Min, 5), Value::str("apple"));
        assert_eq!(value_of(AggFunc::Count, 6), Value::Int(5));
        assert_eq!(value_of(AggFunc::Max, 8), Value::str("x"));
        // All-NULL input: a zero count and sum, no extreme or average.
        assert_eq!(value_of(AggFunc::Count, 9), Value::Int(0));
        assert_eq!(float_bits(value_of(AggFunc::Sum, 10)), 0.0f64.to_bits());
        assert!(value_of(AggFunc::Avg, 9).is_null() && value_of(AggFunc::Max, 11).is_null());

        // Zero input rows still yield the one row.
        let row = assert_aggregate_matches_oracle(&agg_fixture(all, false)).unwrap();
        assert_eq!(row[0], Value::Int(0));

        // Text is not summable — unless there is no text to sum.
        for (func, column) in [(AggFunc::Sum, 5), (AggFunc::Avg, 5), (AggFunc::Sum, 8)] {
            let aggregates = vec![agg(AggFunc::Max, 0), agg(func, column)];
            let failed = assert_aggregate_matches_oracle(&agg_fixture(aggregates.clone(), true));
            assert!(failed.is_none(), "{func:?} over column {column}");
            assert!(assert_aggregate_matches_oracle(&agg_fixture(aggregates, false)).is_some());
        }
    }

    #[test]
    fn a_panicking_worker_fails_the_query_not_the_caller() {
        let out = run_workers(2, |w| {
            if w == 1 {
                panic!("worker 1 of 2 panics (this test wants it to)");
            }
            Ok(w)
        });
        assert_eq!(out, Err(ExecError::WorkerPanicked));
        // The lowest worker index wins, whatever kind of failure it is.
        let out: Result<Vec<()>, _> = run_workers(2, |w| {
            if w == 1 {
                panic!("worker 1 of 2 panics (this test wants it to)");
            }
            Err(ExecError::BadAggregate("worker 0".into()))
        });
        assert_eq!(out, Err(ExecError::BadAggregate("worker 0".into())));
    }

    #[test]
    fn key_hasher_is_pinned() {
        // Partition assignment and join-table layout are the same on
        // every run and host only while these hold; a changed constant
        // or mixing step shows here.
        let hash = |k: i64| BuildHasherDefault::<KeyHasher>::default().hash_one(k);
        assert_eq!(hash(0), 0);
        assert_eq!(hash(1), 0x9E37_79B9_E17D_05AC);
        assert_eq!(hash(-7), 0xAC7B_ABED_288D_3080);
        assert_eq!(partition_of(&1i64, 7), 1);
        assert_eq!(partition_of(&-7i64, 7), 5);
    }

    #[test]
    fn lookup_rule_on_the_measured_shapes() {
        for (probe, inner) in [(124, 9_726), (853, 2_640), (32_064, 38), (105, 9_726)] {
            assert!(looks_up(probe, inner), "{probe} × {inner} should look up");
        }
        for (probe, inner) in [(3, 47_441), (1, 66_840), (600, 0), (0, 600), (64, 64)] {
            assert!(!looks_up(probe, inner), "{probe} × {inner} should scan");
        }
    }

    /// Build-side keys: key `i` of `counts` holds `counts[i]` rows, and
    /// every seventh row is NULL. `layout` 0 groups each key's rows, 1
    /// deals them round-robin in blocks of up to 50 (runs that recur), 2
    /// shuffles them (runs of one or two).
    fn build_keys(counts: &[usize], layout: u8) -> Vec<Option<i64>> {
        let mut keys: Vec<i64> = Vec::new();
        match layout {
            0 => {
                for (k, &n) in counts.iter().enumerate() {
                    keys.extend(std::iter::repeat_n(k as i64, n));
                }
            }
            1 => {
                let mut left = counts.to_vec();
                while left.iter().any(|&n| n > 0) {
                    for (k, n) in left.iter_mut().enumerate() {
                        let take = (*n).min(50);
                        keys.extend(std::iter::repeat_n(k as i64, take));
                        *n -= take;
                    }
                }
            }
            _ => {
                keys = build_keys(counts, 0).into_iter().flatten().collect();
                let mut state = 0x2545_F491_4F6C_DD1Du64;
                for i in (1..keys.len()).rev() {
                    state = state.wrapping_mul(KEY_MUL).wrapping_add(1);
                    keys.swap(i, (state >> 33) as usize % (i + 1));
                }
            }
        }
        let mut out = Vec::with_capacity(keys.len() + keys.len() / 6);
        for k in keys {
            if out.len() % 7 == 6 {
                out.push(None);
            }
            out.push(Some(k));
        }
        out
    }

    /// The reference a join table must equal: a `Vec` per key, pushed
    /// in row order.
    fn reference_table<K: Hash + Eq + Clone>(keys: &[Option<K>]) -> HashMap<K, Vec<u32>> {
        let mut table: HashMap<K, Vec<u32>> = HashMap::new();
        for (row, k) in keys.iter().enumerate() {
            if let Some(k) = k {
                table.entry(k.clone()).or_default().push(row as u32);
            }
        }
        table
    }

    /// Builds `keys` into tables at teams of 1, 2 and 4 (one table, then
    /// 8 and 16 partitions) and holds every key's slice to the reference
    /// table, `absent` to `None`, and the build's charge to one unit a row.
    fn assert_tables_match_reference<K, S>(keys: &[Option<K>], absent: &K)
    where
        K: JoinKey + Clone + Send + Sync + std::fmt::Debug,
        S: BuildHasher + Default + Send,
    {
        let reference = reference_table(keys);
        let (db, graph) = setup();
        for (threads, morsel_rows) in [(1, 4096), (2, 64), (4, 4096)] {
            let budget = SharedBudget::new(u64::MAX);
            let ctx = Ctx {
                db: &db,
                graph: &graph,
                threads,
                morsel_rows,
                budget: &budget,
            };
            let tables: Vec<JoinTable<K, S>> =
                build_tables(&ctx, keys.len(), |row| keys[row].clone()).unwrap();
            assert_eq!(budget.used(), keys.len() as u64);
            let mask = tables.len() - 1;
            let get = |k: &K| tables[partition_of(k, mask)].get(k);
            for (k, rows) in &reference {
                let got = get(k).unwrap_or_else(|| panic!("{k:?} missing at t={threads}"));
                assert_eq!(got, &rows[..], "{k:?} at t={threads}");
                assert!(got.windows(2).all(|w| w[0] < w[1]));
            }
            let filed: usize = tables.iter().map(|t| t.rows.len()).sum();
            assert_eq!(filed, keys.iter().flatten().count(), "t={threads}");
            assert_eq!(get(absent), None, "t={threads}");
        }
    }

    #[test]
    fn join_tables_equal_a_vec_per_key_table() {
        // Keys of 1, 2, 3, 4 096 and 100 000 rows, and 3 000 keys of one
        // row each — past the map's pre-size, so it grows.
        let skewed = [1, 2, 3, 4096, 100_000];
        let unique = [1; 3_000];
        for layout in 0..3 {
            for counts in [&skewed[..], &unique[..]] {
                let keys = build_keys(counts, layout);
                assert_tables_match_reference::<i64, BuildHasherDefault<KeyHasher>>(&keys, &-1);
                let text: Vec<Option<Value>> = keys
                    .iter()
                    .map(|k| k.map(|k| Value::str(format!("k{k}"))))
                    .collect();
                assert_tables_match_reference::<Value, RandomState>(&text, &Value::str("k-1"));
            }
        }
    }

    #[test]
    fn keys_that_compare_equal_but_hash_apart_stay_apart() {
        // `Value`'s `==` takes `0.0` for `-0.0`; the map hashes them by
        // bits, so a run of one is not a run of the other.
        let keys: Vec<Option<Value>> = [0.0, -0.0, -0.0, 0.0, 1.5, 0.0]
            .iter()
            .map(|&f| Some(Value::Float(f)))
            .collect();
        let table: JoinTable<Value, BuildHasherDefault<KeyHasher>> =
            table_over(|row| keys[row].clone(), 0..keys.len() as u32);
        assert_eq!(table.get(&Value::Float(0.0)), Some(&[0, 3, 5][..]));
        assert_eq!(table.get(&Value::Float(-0.0)), Some(&[1, 2][..]));
        assert_eq!(table.get(&Value::Float(2.0)), None);
    }
}
