//! The plan evaluator: a flat stage list, run morsel by morsel.
//!
//! Every vectorized execution — [`crate::execute`],
//! [`crate::execute_for_stats`], the [`crate::TrueCardinality`] oracle —
//! runs here. An execute pays for its plan's shape once: one derivation
//! pass ([`crate::stages`]) checks the plan and turns it into a flat
//! list of stages in post-order, each with its output columns and
//! types, its join slots, output map and key form worked out. The list
//! then runs over an explicit operand stack: a scan pushes its output,
//! a join pops its two inputs and pushes its own, the root aggregate
//! pops its input. Scans, join builds and probes, and aggregation each
//! fan out over a team of up to [`ExecConfig::threads`] workers pulling
//! fixed-size **morsels** (row ranges) from a shared atomic dispenser,
//! and every stage's output is reassembled in morsel order before the
//! next stage starts. A team of one runs inline on the calling thread
//! (no spawn), so `threads = 1` is the same code, not a second engine;
//! it also needs no hash partitioning, so it builds one join table and
//! folds one group map.
//!
//! ## The scratch arena
//!
//! Each thread that executes keeps one `Arena`: the stage list's
//! buffers, the operand stack, and one `Scratch` per worker — spare
//! chunk columns by type, the selection vector, the span list, the
//! pair buffers of `PairEmitter`, the scan's filter and visit lists,
//! and spare join tables by type. Stages take from it and give back to
//! it, so an execute at steady state allocates little beyond its output
//! rows, and a stage's hash map is the previous stage's, cleared. What
//! is taken is always cleared before use, so an execute that aborts
//! (a `BudgetExceeded`, say) leaves nothing the next one can see; its
//! buffers are simply not given back. What an arena keeps between
//! executes is bounded (`RETAIN_BYTES`, `SPARE_BYTES`,
//! `SPARE_ROWS`), so a large plan's buffers are freed, not held by the
//! thread.
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
//!   depends on a table's iteration order, only on look-ups — which is
//!   also why a table reused from the arena, with more buckets than a
//!   fresh one, answers alike. Each partition is built and folded by
//!   exactly one worker, with partition-local row lists that preserve
//!   global input order — a group's accumulator folds its rows in input
//!   order at every team size, so even float `SUM`/`AVG` bits match. No
//!   worker ever writes state another worker reads.
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
//! A join reads its column operands as the stage list resolved them: a
//! condition between integer columns becomes an `IntCond` over typed
//! slices. Conditions are applied a probe row at a time — the rows it
//! could pair with are gathered, `Conds::retain` narrows them one
//! condition after another, and the survivors are emitted as one run —
//! so the comparison operator is chosen once per run, not per pair.
//! Which form runs is read off the column types; anything without a
//! typed form (floats, text, mixed numerics) goes through
//! `eval_cmp_cols`. Aggregates other than `COUNT(*)` still build a
//! `Value` per row (`Acc::update`).
//!
//! ## Joins pay per row
//!
//! A plan node's `JoinAlgo` fixes what a join means and what it
//! charges; row counts choose how the evaluator finds the pairs. A hash
//! join's build fills `JoinTable`s: each key's rows are one ascending
//! slice of a single array. A build reuses its map and row arrays from
//! the arena, and does one map look-up per run of equal keys. A hash
//! join's table holds what its probe reads, chosen from its conditions
//! and its output width (`TableForm`): a probe row is charged the build
//! rows that share its first `=` key, as the row oracle charges them,
//! but walks only the rows it can emit. With a second `=` between
//! integer columns the rows are filed per key pair beside a count per
//! first key; under a zero-width output with nothing left to check the
//! table holds counts and no row. Each form has a probe loop of its own;
//! the partition pass, the morsel loop (`run_morsels`) and the
//! `PairEmitter` are shared by every form of one key type. An empty
//! probe side pays for the build and builds nothing. An integer-keyed
//! nested loop builds a `JoinTable` over its inner side when `looks_up`
//! says its two row counts favour it, and reads each probe key's
//! matches from the table.
//! Otherwise it scans the inner key slice. Either way it finds the same
//! rows in the same order under the same charges, so nothing a plan's
//! `work` or a test can observe depends on the choice. An empty inner
//! side or an empty table is paid for without touching a row.
//!
//! [`ExecConfig::threads`]: crate::ExecConfig::threads

use crate::error::ExecError;
use crate::executor::ExecConfig;
use crate::ops::agg::{fold_column, Acc, AggSpec};
use crate::ops::filter::Pred;
use crate::ops::scan::ScanSpec;
use crate::ops::{eval_cmp_cols, SlotCond};
use crate::row::Row;
use crate::stages::{Carry, Keys, Op, Side, StageList};
use hfqo_query::sql::CompareOp;
use hfqo_query::{AccessPath, AggAlgo, BoundColumn, JoinAlgo, PlanNode, QueryGraph, RelId};
use hfqo_storage::catalog::ColumnType;
use hfqo_storage::{ColumnVector, Database, Value};
use std::any::Any;
use std::cell::RefCell;
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

/// Runs every job on a scoped thread of its own and collects the
/// results in job order; the lowest-indexed failure wins, a panicked
/// job counting as [`ExecError::WorkerPanicked`].
fn spawn_all<T, J>(jobs: impl Iterator<Item = J>) -> Result<Vec<T>, ExecError>
where
    T: Send,
    J: FnOnce() -> Result<T, ExecError> + Send,
{
    std::thread::scope(|s| {
        let handles: Vec<_> = jobs.map(|job| s.spawn(job)).collect();
        let results: Vec<Result<T, ExecError>> = handles
            .into_iter()
            .map(|h| h.join().unwrap_or(Err(ExecError::WorkerPanicked)))
            .collect();
        results.into_iter().collect()
    })
}

/// Runs `work` on `threads` scoped workers and collects their results
/// in worker order ([`spawn_all`]). A team of one runs inline on the
/// calling thread.
fn run_workers<T, F>(threads: usize, work: F) -> Result<Vec<T>, ExecError>
where
    T: Send,
    F: Fn(usize) -> Result<T, ExecError> + Sync,
{
    if threads <= 1 {
        return Ok(vec![work(0)?]);
    }
    let work = &work;
    spawn_all((0..threads).map(|w| move || work(w)))
}

/// Rows produced by one unit of parallel work — a morsel's output, or
/// a whole stage's after reassembly. The row count is tracked
/// separately because zero-width outputs (pure counting runs) exist.
pub(crate) struct Chunk {
    cols: Vec<ColumnVector>,
    pub(crate) rows: usize,
}

impl Chunk {
    /// Materialises the chunk as rows, column-wise: each column's values
    /// are exported in one monomorphic pass
    /// ([`ColumnVector::values_onto`]) instead of a per-cell dispatch.
    pub(crate) fn to_rows(&self) -> Vec<Row> {
        let mut rows: Vec<Row> = Vec::new();
        rows.resize_with(self.rows, || Vec::with_capacity(self.cols.len()));
        for col in &self.cols {
            col.values_onto(&mut rows);
        }
        rows
    }
}

/// Bytes of spare chunk columns and join tables one [`Scratch`] keeps
/// between stages and executes, at most. Every chunk and table of a
/// `template_zipf` execute (300-row tables) fits, so those executes
/// allocate nothing for them. A `job_warm` plan's larger ones do not and
/// are freed. Measured on `job_warm` (seed 21, 2 vCPUs): keeping up to
/// 256 KiB read `peak_rss_mb` ≈ 0.9 MiB higher than keeping nothing —
/// spares pin heap that larger buffers would reuse — and 64 KiB read
/// the same as nothing.
const RETAIN_BYTES: usize = 64 << 10;

/// The largest spare column or join table a [`Scratch`] keeps (a
/// column of 1 820 integer rows), and how many spare columns of a type
/// or spare column lists it keeps.
const SPARE_BYTES: usize = 16 << 10;
const SPARE_COLUMNS: usize = 64;

/// Selection, span and pair buffers grown past this many entries (a
/// morsel's worth) are freed at the end of an execute rather than kept.
const SPARE_ROWS: usize = 4096;

/// The buffers one worker's stages draw from. See the module docs.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Spare plain columns, cleared: ints, floats, text.
    spare: [Vec<ColumnVector>; 3],
    /// Bytes the spare columns and tables hold.
    retained: usize,
    /// Spare chunk column lists, empty.
    lists: Vec<Vec<ColumnVector>>,
    /// A scan's selection vector; a join's narrowed candidates.
    sel: Vec<u32>,
    /// A dense selection's spans.
    spans: Vec<(usize, usize)>,
    /// [`PairEmitter`]'s pair buffers.
    l_rows: Vec<u32>,
    r_rows: Vec<u32>,
    /// A scan's compiled filters and index-scan visits.
    filters: Vec<Pred>,
    visits: Vec<u32>,
    /// A stage's morsel outputs, tagged with their morsel index.
    outs: Vec<(usize, Chunk)>,
    tables: Tables,
}

/// The slot of a plain column type in [`Scratch::spare`].
fn spare_slot(ty: ColumnType) -> usize {
    match ty {
        ColumnType::Int => 0,
        ColumnType::Float => 1,
        ColumnType::Text => 2,
    }
}

/// The bytes a plain column's buffers hold; `None` for encodings a
/// chunk never carries.
fn column_bytes(col: &ColumnVector) -> Option<usize> {
    match col {
        ColumnVector::Int(v, n) => Some(v.capacity() * 8 + n.capacity()),
        ColumnVector::Float(v, n) => Some(v.capacity() * 8 + n.capacity()),
        ColumnVector::Str(v, n) => Some(v.capacity() * 16 + n.capacity()),
        _ => None,
    }
}

impl Scratch {
    /// An empty chunk of `types`, from spare columns where there are any.
    fn chunk(&mut self, types: &[ColumnType]) -> Chunk {
        let mut cols = self.lists.pop().unwrap_or_default();
        for &ty in types {
            let col = match self.spare[spare_slot(ty)].pop() {
                Some(col) => {
                    self.retained -= column_bytes(&col).unwrap_or(0);
                    col
                }
                None => ColumnVector::new(ty),
            };
            cols.push(col);
        }
        Chunk { cols, rows: 0 }
    }

    /// Concatenates indexed chunks, in order, into one: the reassembly
    /// step that makes every stage order-preserving. A stage that
    /// produced one chunk hands it on without a copy; more are copied
    /// into columns of exactly their total length, and recycled.
    fn concat(&mut self, types: &[ColumnType], chunks: &mut Vec<(usize, Chunk)>) -> Chunk {
        if chunks.len() <= 1 {
            return match chunks.pop() {
                Some((_, chunk)) => chunk,
                None => self.chunk(types),
            };
        }
        let rows = chunks.iter().map(|(_, c)| c.rows).sum();
        let mut cols = self.lists.pop().unwrap_or_default();
        cols.extend(
            types
                .iter()
                .map(|&ty| ColumnVector::with_capacity(ty, rows)),
        );
        for (_, chunk) in chunks.drain(..) {
            for (dst, src) in cols.iter_mut().zip(&chunk.cols) {
                dst.append_column(src);
            }
            self.recycle(chunk);
        }
        Chunk { cols, rows }
    }

    /// Takes `chunk`'s columns back, cleared, as far as the bounds allow.
    fn recycle(&mut self, chunk: Chunk) {
        let mut cols = chunk.cols;
        for mut col in cols.drain(..) {
            let Some(bytes) = column_bytes(&col) else {
                continue;
            };
            let spare = &mut self.spare[spare_slot(col.ty())];
            let fits = bytes <= SPARE_BYTES && self.retained + bytes <= RETAIN_BYTES;
            if fits && spare.len() < SPARE_COLUMNS {
                col.clear();
                self.retained += bytes;
                spare.push(col);
            }
        }
        if self.lists.len() < SPARE_COLUMNS {
            self.lists.push(cols);
        }
    }

    /// A spare table of type `T`, or a new one. Its content is whatever
    /// it held last: the caller refills it.
    fn table<K, T: HashTable<K>>(&mut self) -> T {
        match self.tables.spare::<T>().and_then(Vec::pop) {
            Some(table) => {
                self.retained -= table.bytes();
                table
            }
            None => T::default(),
        }
    }

    /// Keeps `table` for a later [`Self::table`], as far as the bounds
    /// allow: one spare of each table type.
    fn give_table<K, T: HashTable<K>>(&mut self, table: T) {
        let bytes = table.bytes();
        if bytes > SPARE_BYTES || self.retained + bytes > RETAIN_BYTES {
            return;
        }
        let spares = self.tables.spares::<T>();
        if spares.is_empty() {
            spares.push(table);
            self.retained += bytes;
        }
    }

    /// Frees the row buffers an execute grew past [`SPARE_ROWS`].
    fn trim(&mut self) {
        for buf in [
            &mut self.sel,
            &mut self.l_rows,
            &mut self.r_rows,
            &mut self.visits,
        ] {
            if buf.capacity() > SPARE_ROWS {
                *buf = Vec::new();
            }
        }
        if self.spans.capacity() > SPARE_ROWS {
            self.spans = Vec::new();
        }
    }
}

/// Spare join tables and table lists, by type: one `Vec<T>` of spares
/// per type `T` met so far.
#[derive(Default)]
struct Tables {
    spare: Vec<Box<dyn Any + Send>>,
}

impl Tables {
    /// The spares of type `T`, if any type `T` was kept.
    fn spare<T: Send + 'static>(&mut self) -> Option<&mut Vec<T>> {
        self.spare
            .iter_mut()
            .find_map(|s| s.downcast_mut::<Vec<T>>())
    }

    /// The spares of type `T`.
    fn spares<T: Send + 'static>(&mut self) -> &mut Vec<T> {
        if self.spare::<T>().is_none() {
            self.spare.push(Box::new(Vec::<T>::new()));
        }
        self.spare().expect("pushed above")
    }
}

/// One thread's evaluator state, reused by every execute on it: the
/// stage list, the operand stack and the workers' scratch.
#[derive(Default)]
struct Arena {
    stages: StageList,
    stack: Vec<Chunk>,
    /// One per worker; the first is the calling thread's.
    workers: Vec<Scratch>,
}

thread_local! {
    static ARENA: RefCell<Arena> = RefCell::default();
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

/// Derives `root`'s stage list ([`StageList::derive`]; `cover` asks for
/// the whole-graph check), runs it, and returns what `finish` reads off
/// the root's output, with the work total. `carry` is what a
/// non-aggregated root's output carries. Results, row order, and the
/// work total are identical at every `config.threads`.
pub(crate) fn evaluate<R>(
    db: &Database,
    graph: &QueryGraph,
    root: &PlanNode,
    (carry, cover): (Carry, bool),
    config: ExecConfig,
    finish: impl FnOnce(&Chunk) -> R,
) -> Result<(R, u64), ExecError> {
    // Worker teams never exceed the machine's parallelism: extra
    // threads on an oversubscribed core only add scheduling overhead,
    // and results are identical at any team size by construction.
    let threads = if config.threads > 1 {
        config.threads.min(hardware_threads())
    } else {
        1
    };
    let geometry = (threads, config.morsel_rows.max(1));
    run_plan(
        db,
        graph,
        root,
        (carry, cover),
        geometry,
        config.work_budget,
        finish,
    )
}

/// [`evaluate`] on a team of exactly `threads` workers claiming morsels
/// of `morsel_rows`, under a budget of `budget` units.
fn run_plan<R>(
    db: &Database,
    graph: &QueryGraph,
    root: &PlanNode,
    (carry, cover): (Carry, bool),
    (threads, morsel_rows): (usize, usize),
    budget: u64,
    finish: impl FnOnce(&Chunk) -> R,
) -> Result<(R, u64), ExecError> {
    let budget = SharedBudget::new(budget);
    let ctx = Ctx {
        db,
        graph,
        threads,
        morsel_rows,
        budget: &budget,
    };
    let run = |arena: &mut Arena| {
        arena
            .stages
            .derive(db.catalog(), graph, root, carry, cover)?;
        let out = arena.run(&ctx);
        for scratch in &mut arena.workers {
            scratch.trim();
        }
        let out = out?;
        let read = finish(&out);
        arena.workers[0].recycle(out);
        Ok((read, budget.used()))
    };
    // An execute nested in another on the same thread (none is, today)
    // would find the arena taken, and gets one of its own.
    ARENA.with(|arena| match arena.try_borrow_mut() {
        Ok(mut arena) => run(&mut arena),
        Err(_) => run(&mut Arena::default()),
    })
}

impl Arena {
    /// Runs the derived stage list over the operand stack.
    fn run(&mut self, ctx: &Ctx<'_>) -> Result<Chunk, ExecError> {
        let Arena {
            stages,
            stack,
            workers,
        } = self;
        if workers.len() < ctx.threads {
            workers.resize_with(ctx.threads, Scratch::default);
        }
        // An aborted execute leaves its operands behind.
        for chunk in stack.drain(..) {
            workers[0].recycle(chunk);
        }
        let pop = |stack: &mut Vec<Chunk>| stack.pop().expect("stages run in post-order");
        for stage in stages.stages() {
            let types = stages.types(stage);
            let out = match &stage.op {
                Op::Scan { rel, path } => {
                    eval_scan(ctx, workers, *rel, path, stages.columns(stage), types)?
                }
                Op::Join {
                    algo,
                    conds,
                    out_map,
                    keys,
                } => {
                    let right = pop(stack);
                    let left = pop(stack);
                    let join = JoinInputs {
                        conds: stages.conds(conds),
                        keys,
                        residual: stages.residual(keys),
                        out_map: stages.out_map(out_map),
                        types,
                        left: &left,
                        right: &right,
                    };
                    let out = match algo {
                        JoinAlgo::Hash => hash_join(ctx, workers, &join)?,
                        JoinAlgo::NestedLoop => nested_join(ctx, workers, &join)?,
                        JoinAlgo::Merge => merge_join(ctx, workers, &join)?,
                    };
                    workers[0].recycle(left);
                    workers[0].recycle(right);
                    out
                }
                Op::Aggregate { algo } => {
                    let input = pop(stack);
                    let out = eval_aggregate(ctx, workers, *algo, stages.aggregate(), &input)?;
                    workers[0].recycle(input);
                    out
                }
            };
            stack.push(out);
        }
        Ok(pop(stack))
    }
}

/// What a morsel stage does with one morsel: charges it and appends its
/// output rows to the chunk, using the worker's scratch.
type MorselFn<'a> = dyn Fn(&mut Scratch, &mut Charger<'_>, Range<usize>, &mut Chunk) -> Result<(), ExecError>
    + Sync
    + 'a;

/// Runs `morsel` over every morsel of `rows` input rows, each into a
/// chunk of its own, and returns the stage's output in morsel order. A
/// team of one runs inline and its morsels come in order; a larger
/// team's are put in order by their morsel index.
fn run_morsels(
    ctx: &Ctx<'_>,
    workers: &mut [Scratch],
    rows: usize,
    types: &[ColumnType],
    morsel: &MorselFn<'_>,
) -> Result<Chunk, ExecError> {
    let morsels = Morsels::new(rows, ctx.morsel_rows);
    let team = morsels.team(ctx.threads);
    let mut outs = std::mem::take(&mut workers[0].outs);
    outs.clear();
    if team <= 1 {
        let scratch = &mut workers[0];
        let mut charger = Charger::new(ctx.budget);
        while let Some((idx, range)) = morsels.claim() {
            let mut chunk = scratch.chunk(types);
            morsel(scratch, &mut charger, range, &mut chunk)?;
            outs.push((idx, chunk));
        }
        charger.flush()?;
    } else {
        let morsels = &morsels;
        let done = spawn_all(workers[..team].iter_mut().map(|scratch| {
            move || {
                let mut charger = Charger::new(ctx.budget);
                let mut outs: Vec<(usize, Chunk)> = Vec::new();
                while let Some((idx, range)) = morsels.claim() {
                    let mut chunk = scratch.chunk(types);
                    morsel(scratch, &mut charger, range, &mut chunk)?;
                    outs.push((idx, chunk));
                }
                charger.flush()?;
                Ok(outs)
            }
        }))?;
        outs.extend(done.into_iter().flatten());
        outs.sort_by_key(|&(idx, _)| idx);
    }
    let out = workers[0].concat(types, &mut outs);
    workers[0].outs = outs;
    Ok(out)
}

/// Scan: workers claim morsels of the visit range, filter and gather
/// into their chunk, and the outputs reassemble in morsel order (=
/// table order). Charges one unit per visited row plus one per emitted
/// row.
fn eval_scan(
    ctx: &Ctx<'_>,
    workers: &mut [Scratch],
    rel: RelId,
    path: &AccessPath,
    columns: &[BoundColumn],
    types: &[ColumnType],
) -> Result<Chunk, ExecError> {
    let buffers = (
        std::mem::take(&mut workers[0].filters),
        std::mem::take(&mut workers[0].visits),
    );
    let spec = ScanSpec::new(ctx.db, ctx.graph, rel, path, columns, buffers)?;
    let plain = spec.is_plain_seq();
    let out = run_morsels(
        ctx,
        workers,
        spec.visit_count(),
        types,
        &|scratch, charger, range, chunk| {
            charger.charge(range.len() as u64)?; // visited rows
            let before = chunk.rows;
            if plain {
                // Unfiltered sequential morsels copy contiguous column
                // ranges — no row-id gather.
                chunk.rows += range.len();
                for (dst, src) in chunk.cols.iter_mut().zip(spec.projected_columns()) {
                    dst.append_range(src, range.start, range.len());
                }
            } else {
                // One selection vector per morsel, then a column-wise bulk
                // gather: dense selections (long contiguous spans of
                // survivors) copy spans, sparse ones gather per row.
                let Scratch { sel, spans, .. } = scratch;
                sel.clear();
                spec.filter_visits(range.start, range.len(), sel);
                chunk.rows += sel.len();
                let dense = hfqo_storage::coalesce_spans(sel, spans);
                for (dst, src) in chunk.cols.iter_mut().zip(spec.projected_columns()) {
                    if dense {
                        for &(start, len) in spans.iter() {
                            dst.append_range(src, start, len);
                        }
                    } else {
                        src.gather_into(sel, dst);
                    }
                }
            }
            charger.charge((chunk.rows - before) as u64) // emitted rows
        },
    );
    let (filters, visits) = spec.into_buffers();
    workers[0].filters = filters;
    if let Some(visits) = visits {
        workers[0].visits = visits;
    }
    out
}

/// A join stage's inputs, as the stage list resolved them.
struct JoinInputs<'a> {
    conds: &'a [SlotCond],
    keys: &'a Keys,
    /// The conditions a match must still satisfy after its typed key or
    /// keys ([`Keys::residual`]).
    residual: &'a [SlotCond],
    out_map: &'a [Side],
    types: &'a [ColumnType],
    left: &'a Chunk,
    right: &'a Chunk,
}

impl<'a> JoinInputs<'a> {
    /// The stage list's typed form of condition `at`: both its columns
    /// are integer-typed, so both are integer columns.
    fn int_cond(&self, at: usize) -> IntCond<'a> {
        IntCond::resolve(self.conds[at], self.left, self.right)
            .expect("an integer-typed slot holds an integer column")
    }

    /// A hash or merge join's key: the stage list checked it has one.
    fn key(&self) -> usize {
        self.keys.key.expect("a hash or merge join keys on an `=`")
    }
}

/// The `(left row, right row)` matches a join buffers before it gathers
/// them into its output columns. Large enough that a gather's per-column
/// type dispatch is paid once per couple of thousand rows and not once
/// per cell; bounded — instead of holding a whole morsel's matches — so
/// that a plan on its way to `BudgetExceeded` with a narrow output
/// cannot pile up millions of pairs first.
const PAIR_BATCH: usize = 2048;

/// A join's output side: matches go in as row-id pairs and leave as
/// column-wise gathers ([`ColumnVector::gather_into`]) into the chunk,
/// one batch of at most [`PAIR_BATCH`] at a time, in the order they
/// were pushed. A zero-width output (an empty `out_map`: the join under
/// a `COUNT(*)`) has nothing to gather, so its matches are counted,
/// never buffered. The pair buffers are the worker's scratch; whatever
/// is pushed must be [`Self::flush`]ed before the emitter is dropped.
struct PairEmitter<'i, 's> {
    out_map: &'i [Side],
    left: &'i [ColumnVector],
    right: &'i [ColumnVector],
    l_rows: &'s mut Vec<u32>,
    r_rows: &'s mut Vec<u32>,
    chunk: &'s mut Chunk,
}

impl<'i, 's> PairEmitter<'i, 's> {
    fn new(
        join: &JoinInputs<'i>,
        l_rows: &'s mut Vec<u32>,
        r_rows: &'s mut Vec<u32>,
        chunk: &'s mut Chunk,
    ) -> Self {
        l_rows.clear();
        r_rows.clear();
        Self {
            out_map: join.out_map,
            left: &join.left.cols,
            right: &join.right.cols,
            l_rows,
            r_rows,
            chunk,
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

    /// Counts `n` pairs of a zero-width output.
    fn count(&mut self, n: usize) {
        debug_assert!(self.out_map.is_empty());
        self.chunk.rows += n;
    }

    /// Gathers the buffered pairs into the chunk.
    fn flush(&mut self) {
        debug_assert!(self.l_rows.len() <= PAIR_BATCH && self.l_rows.len() == self.r_rows.len());
        if self.l_rows.is_empty() {
            return;
        }
        for (dst, side) in self.chunk.cols.iter_mut().zip(self.out_map) {
            match side {
                Side::Left(s) => self.left[*s].gather_into(self.l_rows, dst),
                Side::Right(s) => self.right[*s].gather_into(self.r_rows, dst),
            }
        }
        self.chunk.rows += self.l_rows.len();
        self.l_rows.clear();
        self.r_rows.clear();
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
    fn resolve(cond: SlotCond, left: &'a Chunk, right: &'a Chunk) -> Option<Self> {
        match (&left.cols[cond.l_slot], &right.cols[cond.r_slot]) {
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
    /// The join's residual conditions over its two inputs.
    fn resolve(join: &JoinInputs<'a>) -> Self {
        let (left, right) = (join.left, join.right);
        Self(
            join.residual
                .iter()
                .map(|&c| match IntCond::resolve(c, left, right) {
                    Some(int) => Cond::Int(int),
                    None => Cond::Other(c.op, &left.cols[c.l_slot], &right.cols[c.r_slot]),
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
/// however many keys it holds, and none when it is refilled from the
/// arena. A `Vec` per key cost an allocation per key: 38–50 ns a build
/// row on `job_warm`'s 60–600-row unique-key builds in place, against
/// 8–11 for this form.
struct JoinTable<K, S> {
    spans: HashMap<K, Span, S>,
    rows: Vec<u32>,
    /// [`Self::fill`]'s own buffers: each run's `(where its key's first
    /// run started, length)`, the regroup cursors, and the regrouped
    /// row array.
    runs: Vec<(u32, u32)>,
    cursor: Vec<u32>,
    regrouped: Vec<u32>,
}

impl<K, S: Default> Default for JoinTable<K, S> {
    fn default() -> Self {
        Self {
            spans: HashMap::default(),
            rows: Vec::new(),
            runs: Vec::new(),
            cursor: Vec::new(),
            regrouped: Vec::new(),
        }
    }
}

/// Where one key's candidates sit in [`JoinTable::rows`].
#[derive(Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

impl<K: JoinKey, S: BuildHasher> JoinTable<K, S> {
    /// `key`'s build rows in ascending order; `None` for an absent key.
    #[inline]
    fn get(&self, key: &K) -> Option<&[u32]> {
        let span = self.spans.get(key)?;
        let start = span.start as usize;
        Some(&self.rows[start..start + span.len as usize])
    }

    /// Refills the table with `rows` of the build side, skipping NULL
    /// keys (`key_at` gives `None`). `rows` ascends, so every key's
    /// slice is in build-row order.
    ///
    /// One pass appends the non-NULL rows in order and files them a run
    /// of consecutive equal keys at a time — one map look-up per run, so
    /// the three 106 361-row builds of a `job_warm` pass, 95 runs each,
    /// cost 95 look-ups apiece. Each key's span starts where its first
    /// run did. When no key comes back after another key's run (unique
    /// keys, and keys already grouped) that layout is the table.
    /// Otherwise the spans are laid out afresh in map order and every
    /// run is copied to its key's place, indexed by where the key's
    /// first run started.
    ///
    /// Kept out of line: inlined into the hash join, the same loop read
    /// 15–24 ns a build row on `job_warm`'s unique-key builds in place,
    /// against 8–13 out of line.
    #[inline(never)]
    fn fill(
        &mut self,
        key_at: impl Fn(usize) -> Option<K>,
        rows: impl ExactSizeIterator<Item = u32>,
    ) {
        let JoinTable {
            spans,
            rows: filed,
            runs,
            cursor,
            regrouped: out,
        } = self;
        let presize = rows.len().min(PRESIZE_KEYS);
        spans.clear();
        spans.reserve(presize);
        filed.clear();
        filed.reserve(rows.len());
        runs.clear();
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
            return;
        }
        // `cursor[s]`: the next free slot of the key whose first run
        // started at `s`.
        cursor.clear();
        cursor.resize(filed.len(), 0);
        let mut end = 0u32;
        for span in spans.values_mut() {
            cursor[span.start as usize] = end;
            span.start = end;
            end += span.len;
        }
        out.clear();
        out.resize(filed.len(), 0);
        let mut from = 0usize;
        for &(first, len) in runs.iter() {
            let (at, len) = (&mut cursor[first as usize], len as usize);
            let to = *at as usize;
            out[to..to + len].copy_from_slice(&filed[from..from + len]);
            *at += len as u32;
            from += len;
        }
        std::mem::swap(filed, out);
        // The regroup's buffers outlive the build only while they are
        // small: a large build's would double what its table holds
        // through the probe.
        if out.capacity() > SPARE_ROWS {
            (*runs, *cursor, *out) = Default::default();
        }
    }
}

/// The hasher of tables over raw `i64` keys — the fast path when both
/// key columns are integer-typed: no `Value` per probe, and
/// [`KeyHasher`] in place of SipHash. Tables over [`Value`] keys
/// (everything else) keep the standard library's keyed hasher: text keys
/// come from outside the program. Cross-type numeric keys never match in
/// either representation, exactly like the row engine's
/// `HashMap<&Value>` (`Int` and `Float` hash differently by design; the
/// binder type-checks join keys).
type IntHasher = BuildHasherDefault<KeyHasher>;

/// A join table over `i64` keys. A nested loop builds one over its inner
/// side when [`looks_up`] says so.
type IntTable = JoinTable<i64, IntHasher>;

/// A key a [`JoinTable`] files its rows under. [`JoinKey::same`] only
/// has to be sound: `true` must mean the table's map files both keys
/// under one entry (same hash, equal), so a run of such rows may share
/// one lookup. `Value`'s `==` is not that — `0.0 == -0.0` and
/// `Int(2) == Float(2.0)`, each pair hashing apart.
trait JoinKey: Hash + Eq + Send + Sync + 'static {
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

/// A two-key table's key: the first `=`'s, then the second integer
/// `=`'s.
impl<K: JoinKey> JoinKey for (K, i64) {
    #[inline]
    fn same(&self, other: &Self) -> bool {
        self.1 == other.1 && self.0.same(&other.0)
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

/// Refills `counts` with how many of `rows` of the build side file
/// under each key, skipping NULL keys: a counting table's whole
/// content. One map look-up per run of consecutive equal keys, as in
/// [`JoinTable::fill`], and no row array.
fn count_over<K, S>(
    counts: &mut HashMap<K, u32, S>,
    key_at: impl Fn(usize) -> Option<K>,
    rows: impl ExactSizeIterator<Item = u32>,
) where
    K: JoinKey,
    S: BuildHasher,
{
    counts.clear();
    counts.reserve(rows.len().min(PRESIZE_KEYS));
    let mut run: Option<(K, u32)> = None;
    for row in rows {
        let Some(key) = key_at(row as usize) else {
            continue;
        };
        if let Some((k, n)) = &mut run {
            if k.same(&key) {
                *n += 1;
                continue;
            }
        }
        if let Some((k, n)) = run.replace((key, 1)) {
            *counts.entry(k).or_insert(0) += n;
        }
    }
    if let Some((k, n)) = run {
        *counts.entry(k).or_insert(0) += n;
    }
}

/// The bytes a map's buckets hold, roughly.
fn map_bytes<K, V, S>(map: &HashMap<K, V, S>) -> usize {
    map.capacity() * (std::mem::size_of::<(K, V)>() + 1)
}

/// What a hash join's table must hold, read off its conditions and its
/// output width.
#[derive(Clone, Copy)]
struct TableForm<'a> {
    /// A second `=`, between plain integer columns: the table is keyed
    /// on both keys, beside a count per first key that carries the
    /// charge.
    second: Option<IntCond<'a>>,
    /// The output is zero-width and no condition is left to check after
    /// the key or keys: the table keeps a count per key and no row.
    counting: bool,
}

/// One partition of a hash join's build, in the form its probe reads
/// ([`TableForm`]). Every form is partitioned by the first key, so a
/// probe row finds everything it reads in one partition. Each form is a
/// type of its own, so each gets a probe loop of its own, with no branch
/// on the form per probe row (one such branch cost `template_zipf`'s
/// 300 × 13-row probes 8–9 % of `execute`).
trait HashTable<K>: Default + Sized + Send + Sync + 'static {
    /// What a probe row matches when no build row shares both its keys.
    const NOTHING: Matches<'static>;

    /// Refills the table with `rows` of the build side, whose first key
    /// is `first` (`None` for NULL). `rows` ascends, so each key's rows
    /// do.
    fn fill(
        &mut self,
        form: TableForm<'_>,
        first: impl Fn(usize) -> Option<K>,
        rows: impl ExactSizeIterator<Item = u32> + Clone,
    );

    /// Whether no build row filed under a key.
    fn is_empty(&self) -> bool;

    /// The bytes the table's buffers hold, roughly.
    fn bytes(&self) -> usize;

    /// For a probe row with first key `k1` and second key `k2` (read
    /// only by two-key tables; `None` for NULL): how many build rows
    /// share `k1` — the row oracle's candidates, which it charges — and
    /// which of them match. `None` when no build row shares `k1`.
    fn look(&self, k1: K, k2: impl FnOnce() -> Option<i64>) -> Option<(u32, Matches<'_>)>;
}

/// What a probe row finds in a [`HashTable`]: the rows or the count of
/// the build rows that match its key or keys.
enum Matches<'t> {
    Rows(&'t [u32]),
    Count(u32),
}

/// Each first key's build rows.
impl<K, S> HashTable<K> for JoinTable<K, S>
where
    K: JoinKey,
    S: BuildHasher + Default + Send + Sync + 'static,
{
    const NOTHING: Matches<'static> = Matches::Rows(&[]);

    fn fill(
        &mut self,
        _: TableForm<'_>,
        first: impl Fn(usize) -> Option<K>,
        rows: impl ExactSizeIterator<Item = u32> + Clone,
    ) {
        JoinTable::fill(self, first, rows)
    }

    fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn bytes(&self) -> usize {
        let rows = self.rows.capacity() + self.cursor.capacity() + self.regrouped.capacity();
        map_bytes(&self.spans) + 4 * rows + 8 * self.runs.capacity()
    }

    #[inline]
    fn look(&self, k1: K, _: impl FnOnce() -> Option<i64>) -> Option<(u32, Matches<'_>)> {
        let rows = self.get(&k1)?;
        Some((rows.len() as u32, Matches::Rows(rows)))
    }
}

/// Each first key's build-row count: a counting table.
impl<K, S> HashTable<K> for HashMap<K, u32, S>
where
    K: JoinKey,
    S: BuildHasher + Default + Send + Sync + 'static,
{
    const NOTHING: Matches<'static> = Matches::Count(0);

    fn fill(
        &mut self,
        _: TableForm<'_>,
        first: impl Fn(usize) -> Option<K>,
        rows: impl ExactSizeIterator<Item = u32> + Clone,
    ) {
        count_over(self, first, rows)
    }

    fn is_empty(&self) -> bool {
        HashMap::is_empty(self)
    }

    fn bytes(&self) -> usize {
        map_bytes(self)
    }

    #[inline]
    fn look(&self, k1: K, _: impl FnOnce() -> Option<i64>) -> Option<(u32, Matches<'_>)> {
        let n = *self.get(&k1)?;
        Some((n, Matches::Count(n)))
    }
}

/// A two-key table: each first key's build-row count, which carries the
/// charge, beside `pairs`, the rows or counts of each key pair. A build
/// row with a NULL second key counts under its first key and files
/// under no pair.
struct Paired<K, S, T> {
    firsts: HashMap<K, u32, S>,
    pairs: T,
}

impl<K, S: Default, T: Default> Default for Paired<K, S, T> {
    fn default() -> Self {
        Self {
            firsts: HashMap::default(),
            pairs: T::default(),
        }
    }
}

/// A two-key table that files rows per key pair.
type PairRows<K, S> = Paired<K, S, JoinTable<(K, i64), S>>;

/// A two-key table that counts rows per key pair.
type PairCounts<K, S> = Paired<K, S, HashMap<(K, i64), u32, S>>;

impl<K, S, T> HashTable<K> for Paired<K, S, T>
where
    K: JoinKey,
    S: BuildHasher + Default + Send + Sync + 'static,
    T: HashTable<(K, i64)>,
{
    const NOTHING: Matches<'static> = T::NOTHING;

    fn fill(
        &mut self,
        form: TableForm<'_>,
        first: impl Fn(usize) -> Option<K>,
        rows: impl ExactSizeIterator<Item = u32> + Clone,
    ) {
        count_over(&mut self.firsts, &first, rows.clone());
        let pair = |row| Some((first(row)?, form.second?.right(row)?));
        self.pairs.fill(form, pair, rows);
    }

    fn is_empty(&self) -> bool {
        self.firsts.is_empty()
    }

    fn bytes(&self) -> usize {
        map_bytes(&self.firsts) + self.pairs.bytes()
    }

    #[inline]
    fn look(&self, k1: K, k2: impl FnOnce() -> Option<i64>) -> Option<(u32, Matches<'_>)> {
        let n = *self.firsts.get(&k1)?;
        let found = k2().and_then(|k2| self.pairs.look((k1, k2), || None));
        Some((n, found.map_or(T::NOTHING, |(_, matches)| matches)))
    }
}

/// Charges a hash join's `build_rows` build rows and, with more than
/// one worker, splits them by the hash of their first key
/// (`build_key`; NULL keys are dropped) into the partitions
/// [`build_tables`] reads, each ascending. `None` for a team of one,
/// which builds one table.
fn partition_build<K: Hash>(
    ctx: &Ctx<'_>,
    build_rows: usize,
    build_key: &(impl Fn(usize) -> Option<K> + Sync),
) -> Result<Option<Vec<Vec<u32>>>, ExecError> {
    let parts = ctx.partitions();
    if parts == 1 {
        ctx.budget.add(build_rows as u64)?;
        return Ok(None);
    }
    let mask = parts - 1;
    let partitions = partition_rows(ctx, build_rows, parts, |row| {
        build_key(row).map(|k| partition_of(&k, mask))
    })?;
    Ok(Some(partitions))
}

/// A hash join's build: one [`HashTable`] per partition of
/// `partitions`, or a single table straight off the build side's
/// `build_rows` rows when there is none (a team of one). Tables and
/// their list come from the arena; [`give_tables`] hands them back.
/// Charge-free: the caller charged the build.
fn build_tables<K, T>(
    ctx: &Ctx<'_>,
    scratch: &mut Scratch,
    build_rows: usize,
    partitions: Option<&[Vec<u32>]>,
    form: TableForm<'_>,
    first: &(impl Fn(usize) -> Option<K> + Sync),
) -> Result<Vec<T>, ExecError>
where
    K: JoinKey,
    T: HashTable<K>,
{
    let mut tables: Vec<T> = scratch
        .tables
        .spare()
        .and_then(Vec::pop)
        .unwrap_or_default();
    match partitions {
        None => {
            let mut table: T = scratch.table();
            table.fill(form, first, 0..build_rows as u32);
            tables.push(table);
        }
        // Sized from the build side: a small build does not pay a team
        // spawn.
        Some(partitions) => tables.extend(per_partition(
            ctx.team_for(build_rows),
            partitions.len(),
            |p| {
                let mut table = T::default();
                table.fill(form, first, partitions[p].iter().copied());
                Ok(table)
            },
        )?),
    }
    Ok(tables)
}

/// Hands a build's tables, and their list, back to the arena.
fn give_tables<K, T: HashTable<K>>(scratch: &mut Scratch, mut tables: Vec<T>) {
    for table in tables.drain(..) {
        scratch.give_table(table);
    }
    let lists = scratch.tables.spares::<Vec<T>>();
    if lists.is_empty() {
        lists.push(tables);
    }
}

/// A hash join's inputs and what it read off them, once per join.
struct HashJoin<'a> {
    form: TableForm<'a>,
    /// The conditions a match must still satisfy after its key or keys.
    residual: Conds<'a>,
    join: &'a JoinInputs<'a>,
}

impl HashJoin<'_> {
    /// The build over the right input, then the probe with the left, in
    /// the [`HashTable`] type that the join's form names: keys `K`
    /// hashed by `S`, read off the right side by `build_key` and the
    /// left by `probe_key`. Build rows cost one unit each (NULL keys
    /// charged but excluded). With more than one worker the build rows
    /// are first split by key hash in parallel ([`partition_rows`]) —
    /// once per key type, whatever the form — and each partition's table
    /// is built by one worker from a row list that preserves build
    /// order; a team of one builds a single table straight off the build
    /// side. Either way every key's rows are in ascending build-row
    /// order.
    fn run<K, S>(
        &self,
        ctx: &Ctx<'_>,
        workers: &mut [Scratch],
        build_key: impl Fn(usize) -> Option<K> + Sync,
        probe_key: impl Fn(usize) -> Option<K> + Sync,
    ) -> Result<Chunk, ExecError>
    where
        K: JoinKey,
        S: BuildHasher + Default + Send + Sync + 'static,
    {
        let partitions = partition_build(ctx, self.join.right.rows, &build_key)?;
        let (parts, build, probe) = (partitions.as_deref(), &build_key, &probe_key);
        match (self.form.second.is_some(), self.form.counting) {
            (false, false) => self.run_as::<K, JoinTable<K, S>>(ctx, workers, parts, build, probe),
            (false, true) => {
                self.run_as::<K, HashMap<K, u32, S>>(ctx, workers, parts, build, probe)
            }
            (true, false) => self.run_as::<K, PairRows<K, S>>(ctx, workers, parts, build, probe),
            (true, true) => self.run_as::<K, PairCounts<K, S>>(ctx, workers, parts, build, probe),
        }
    }

    /// Builds `T` tables and probes them: the probe morsels look their
    /// first key (`probe_key`; `None` for NULL) up in its partition's
    /// table without touching shared state and emit in probe order. One
    /// unit per probe row, one per candidate — a build row sharing the
    /// first key — and one per emitted row. A probe row's matches are
    /// narrowed by the join's residual conditions (when there are any)
    /// and appended as one run, or, in a counting table, added as a
    /// count. Against tables with no row the probe rows are charged in
    /// one add and nothing is looked up. Only this loop is compiled per
    /// form.
    fn run_as<K: JoinKey, T: HashTable<K>>(
        &self,
        ctx: &Ctx<'_>,
        workers: &mut [Scratch],
        partitions: Option<&[Vec<u32>]>,
        build_key: &(impl Fn(usize) -> Option<K> + Sync),
        probe_key: &(impl Fn(usize) -> Option<K> + Sync),
    ) -> Result<Chunk, ExecError> {
        let (join, form, residual) = (self.join, self.form, &self.residual);
        let build_rows = join.right.rows;
        let tables: Vec<T> = build_tables(
            ctx,
            &mut workers[0],
            build_rows,
            partitions,
            form,
            build_key,
        )?;
        let out = if tables.iter().all(T::is_empty) {
            ctx.budget
                .add(join.left.rows as u64)
                .map(|()| workers[0].chunk(join.types))
        } else {
            let mask = tables.len() - 1;
            let tables = &tables;
            let look = |row| {
                let k1 = probe_key(row)?;
                let k2 = || form.second.and_then(|k2| k2.left(row));
                tables[partition_of(&k1, mask)].look(k1, k2)
            };
            run_morsels(
                ctx,
                workers,
                join.left.rows,
                join.types,
                &|scratch, charger, range, chunk| {
                    charger.charge(range.len() as u64)?;
                    let Scratch {
                        sel,
                        l_rows,
                        r_rows,
                        ..
                    } = scratch;
                    let mut emitter = PairEmitter::new(join, l_rows, r_rows, chunk);
                    for row in range {
                        let Some((candidates, matches)) = look(row) else {
                            continue;
                        };
                        charger.charge(u64::from(candidates))?;
                        match matches {
                            Matches::Rows(rows) => {
                                let matches = residual.narrow(row, rows, sel);
                                charger.charge(matches.len() as u64)?;
                                emitter.push_run(row as u32, matches);
                            }
                            Matches::Count(n) => {
                                charger.charge(u64::from(n))?;
                                emitter.count(n as usize);
                            }
                        }
                    }
                    emitter.flush();
                    Ok(())
                },
            )
        };
        give_tables::<K, T>(&mut workers[0], tables);
        out
    }
}

/// Hash join on the first `=` condition (the row oracle's key, so the
/// candidate counts agree), through [`HashJoin::run`]. Two plain integer
/// key columns take the typed form — `i64` keys off the slices, and
/// matches, which met the key by `i64` equality, narrowed only by the
/// *other* conditions; any other key goes through [`Value`]s and its
/// matches through every condition. A second `=` between plain integer
/// columns keys the table on both ([`TableForm::second`]), and a
/// zero-width output with nothing left to check keeps counts
/// ([`TableForm::counting`]); the stage list says which. An empty probe
/// side pays for the build and builds nothing.
fn hash_join(
    ctx: &Ctx<'_>,
    workers: &mut [Scratch],
    join: &JoinInputs<'_>,
) -> Result<Chunk, ExecError> {
    let at = join.key();
    if join.left.rows == 0 {
        ctx.budget.add(join.right.rows as u64)?;
        return Ok(workers[0].chunk(join.types));
    }
    let hash = HashJoin {
        form: TableForm {
            second: join.keys.second.map(|i| join.int_cond(i)),
            counting: join.keys.counting,
        },
        residual: Conds::resolve(join),
        join,
    };
    if join.keys.int_key {
        let key = join.int_cond(at);
        hash.run::<i64, IntHasher>(ctx, workers, |row| key.right(row), |row| key.left(row))
    } else {
        let non_null = |col: &ColumnVector, row| {
            let k = col.get(row);
            (!k.is_null()).then_some(k)
        };
        let build_col = &join.right.cols[join.conds[at].r_slot];
        let probe_col = &join.left.cols[join.conds[at].l_slot];
        hash.run::<Value, RandomState>(
            ctx,
            workers,
            |row| non_null(build_col, row),
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
    workers: &mut [Scratch],
    join: &JoinInputs<'_>,
) -> Result<Chunk, ExecError> {
    let (left, right) = (join.left, join.right);
    let inner_rows = right.rows;
    if inner_rows == 0 {
        return Ok(workers[0].chunk(join.types));
    }
    let rest = Conds::resolve(join);
    let int_key = join.keys.key.map(|at| join.int_cond(at));
    let table: Option<IntTable> = int_key
        .filter(|_| looks_up(left.rows, inner_rows))
        .map(|key| {
            let mut table: IntTable = workers[0].table();
            table.fill(|row| key.right(row), 0..inner_rows as u32);
            table
        });
    let out = run_morsels(
        ctx,
        workers,
        left.rows,
        join.types,
        &|scratch, charger, range, chunk| {
            let Scratch {
                sel,
                l_rows,
                r_rows,
                ..
            } = scratch;
            let mut emitter = PairEmitter::new(join, l_rows, r_rows, chunk);
            for row in range {
                charger.charge(inner_rows as u64)?;
                let matches = match (&int_key, &table) {
                    (Some(key), Some(table)) => {
                        let found = key.left(row).and_then(|k| table.get(&k));
                        rest.narrow(row, found.unwrap_or_default(), sel)
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
                        rest.retain(row, sel);
                        &sel[..]
                    }
                    (None, _) => {
                        sel.clear();
                        sel.extend(0..inner_rows as u32);
                        rest.retain(row, sel);
                        &sel[..]
                    }
                };
                charger.charge(matches.len() as u64)?;
                emitter.push_run(row as u32, matches);
            }
            emitter.flush();
            Ok(())
        },
    );
    if let Some(table) = table {
        workers[0].give_table(table);
    }
    out
}

/// Sort-merge join: the two key sorts run concurrently (a stable sort,
/// so the permutations do not depend on the team size); the merge
/// itself advances serially because its charge pattern — one unit per
/// cursor comparison, one per pair in each equal block — depends on the
/// traversal. A left row's equal block is narrowed by the conditions as
/// a hash probe's candidates are: all of them, or all but an integer key.
fn merge_join(
    ctx: &Ctx<'_>,
    workers: &mut [Scratch],
    join: &JoinInputs<'_>,
) -> Result<Chunk, ExecError> {
    let (left, right) = (join.left, join.right);
    let key = join.conds[join.key()];
    let lcol = &left.cols[key.l_slot];
    let rcol = &right.cols[key.r_slot];
    let mut li: Vec<u32> = (0..left.rows as u32)
        .filter(|&r| !lcol.is_null(r as usize))
        .collect();
    let mut ri: Vec<u32> = (0..right.rows as u32)
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
    let rest = Conds::resolve(join);
    let scratch = &mut workers[0];
    let mut out = scratch.chunk(join.types);
    let Scratch {
        sel,
        l_rows,
        r_rows,
        ..
    } = scratch;
    let mut emitter = PairEmitter::new(join, l_rows, r_rows, &mut out);
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
                    let matches = rest.narrow(lx as usize, &ri[j..j_end], sel);
                    charger.charge(matches.len() as u64)?;
                    emitter.push_run(lx, matches);
                }
                i = i_end;
                j = j_end;
            }
        }
    }
    emitter.flush();
    charger.flush()?;
    Ok(out)
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
/// thread for the same reason, an accumulator at a time ([`fold_column`]),
/// straight into the output row.
fn eval_aggregate(
    ctx: &Ctx<'_>,
    workers: &mut [Scratch],
    algo: AggAlgo,
    spec: &AggSpec,
    input: &Chunk,
) -> Result<Chunk, ExecError> {
    let input_rows = input.rows;
    let cols = &input.cols;
    let mut out = workers[0].chunk(&spec.out_types);
    if spec.key_slots.is_empty() {
        // An aggregate over zero rows with no GROUP BY still yields one
        // row (SQL semantics: COUNT(*) = 0) — an empty fold covers it.
        ctx.budget.add(input_rows as u64)?;
        let aggs = spec.agg_funcs.iter().zip(&spec.agg_slots);
        for (col, (&func, slot)) in out.cols.iter_mut().zip(aggs) {
            let value = fold_column(func, slot.map(|s| &cols[s]), input_rows)?;
            let ok = col.push(&value);
            debug_assert!(ok, "aggregate output value fits its column type");
        }
        if algo == AggAlgo::Sort {
            // The sort's cost, charged on the input size.
            ctx.budget.add(input_rows as u64)?;
        }
        ctx.budget.add(1)?;
        out.rows = 1;
        return Ok(out);
    }
    let parts = ctx.partitions();
    let mut out_rows: Vec<Vec<Value>> = if parts == 1 {
        ctx.budget.add(input_rows as u64)?;
        fold_groups(spec, cols, 0..input_rows)?
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
            fold_groups(spec, cols, partitions[p].iter().map(|&r| r as usize))
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
    for row in &out_rows {
        for (col, v) in out.cols.iter_mut().zip(row) {
            let ok = col.push(v);
            debug_assert!(ok, "aggregate output value fits its column type");
        }
        out.rows += 1;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::Stage;
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

    /// The `(rel, column)` pairs the hash join of `setup` outputs, bare
    /// under `carry` or under the graph's aggregate, and the plan's
    /// output row count and width.
    fn join_output_under(
        aggregated: bool,
        carry: Carry,
        threads: usize,
    ) -> (Vec<(u32, u32)>, (usize, usize)) {
        let (db, graph) = setup();
        let mut root = join_of(JoinAlgo::Hash, &[0]);
        if aggregated {
            root = PlanNode::Aggregate {
                algo: AggAlgo::Hash,
                input: Box::new(root),
            };
        }
        let mut stages = StageList::default();
        stages
            .derive(db.catalog(), &graph, &root, carry, true)
            .unwrap();
        let is_join = |s: &&Stage| matches!(s.op, Op::Join { .. });
        let join = stages.stages().iter().find(is_join).unwrap();
        let cols = stages.columns(join).iter().map(|c| (c.rel.0, c.column.0));
        let geometry = (threads, 4);
        let shape = |out: &Chunk| (out.rows, out.cols.len());
        let (shape, work) = run_plan(
            &db,
            &graph,
            &root,
            (carry, true),
            geometry,
            1_000_000,
            shape,
        )
        .unwrap();
        assert!(work > 0);
        (cols.collect(), shape)
    }

    #[test]
    fn full_requirement_matches_row_layout_order() {
        let (cols, (_, width)) = join_output_under(false, Carry::Everything, 1);
        // Leaf order (a then b), column-id order within each leaf — the
        // row engine's layout.
        assert_eq!(cols, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]);
        assert_eq!(width, cols.len());
    }

    #[test]
    fn aggregate_requirement_prunes_unreferenced_columns() {
        // Only b.w survives above the join: a.k/b.k are consumed by the
        // join itself, a.v by the scan filter, a.pad by nothing.
        for carry in [Carry::Everything, Carry::Nothing] {
            let (cols, (rows, width)) = join_output_under(true, carry, 1);
            assert_eq!(cols, vec![(1, 1)]);
            assert_eq!((rows, width), (1, 2));
        }
    }

    #[test]
    fn empty_requirement_yields_zero_width_counting_output() {
        // a.v = 0 keeps a ids {0, 3, 6, 9}; b.k = i % 5 has 2 rows per
        // key in 0..5 → ids 0 and 3 match 2 rows each, 6/9 none. The
        // count survives with no column to carry it, at any team size.
        for threads in [1, 2] {
            let (cols, shape) = join_output_under(false, Carry::Nothing, threads);
            assert!(cols.is_empty());
            assert_eq!(shape, (4, 0));
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
        carry: Carry,
        geometry: (usize, usize),
        budget: u64,
    ) -> Result<(Vec<Row>, u64), ExecError> {
        run_plan(
            db,
            graph,
            node,
            (carry, true),
            geometry,
            budget,
            Chunk::to_rows,
        )
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
            let (rows, work) =
                run(world, &plan.root, Carry::Everything, geometry, u64::MAX).unwrap();
            assert_eq!(work, oracle.stats.work, "{tag}");
            let mut sorted = rows.clone();
            sorted.sort();
            assert!(sorted == want, "{tag}: rows differ from the oracle's");
            let first = order.get_or_insert_with(|| rows.clone());
            assert!(rows == *first, "{tag}: row order moved");
            let (counted, work) =
                run(world, &plan.root, Carry::Nothing, geometry, u64::MAX).unwrap();
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
            let (rows, _) = run(&world, &node, Carry::Everything, (1, 4096), u64::MAX).unwrap();
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
            // A Float key beside an integer `=`: a two-key table over
            // `Value` first keys.
            let rows = assert_matches_oracle(&world, join_of(algo, &[2, 4]));
            assert!(0 < rows && rows < 50, "{algo:?}: {rows}");
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
        for algo in [JoinAlgo::Hash, JoinAlgo::NestedLoop, JoinAlgo::Merge] {
            // A second `=`: of 100 candidates per probe row, those whose
            // `r` is the probe row's, about one in nine.
            let two_eq = join_of(algo, &[0, 4]);
            let rows = assert_matches_oracle(&world, two_eq.clone());
            assert!(0 < rows && rows < 400 / 6, "{algo:?}: {rows}");
            // A NULL on either side of the residual pairs with nothing,
            // though both sides hold NULLs under matching keys.
            let (out, _) = run(&world, &two_eq, Carry::Everything, (1, 4096), u64::MAX).unwrap();
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
        // The same tables with no probe row: a hash join pays for its
        // build and builds nothing.
        let no_probe = Selection {
            column: BoundColumn::new(RelId(0), ColumnId(0)),
            op: CompareOp::Lt,
            value: hfqo_query::Lit::Int(-100),
        };
        let (rels, joins) = (world.1.relations().to_vec(), world.1.joins().to_vec());
        let empty_probe = (
            world.0.clone(),
            QueryGraph::new(rels, joins, vec![no_probe], vec![], vec![]),
        );
        let hash = |conds: &[usize]| join_of(JoinAlgo::Hash, conds);
        for conds in [&[0][..], &[0, 4]] {
            assert_eq!(assert_matches_oracle(&empty_probe, hash(conds)), 0);
        }
        let cases = [
            (&world, join_of(JoinAlgo::NestedLoop, &[0])),
            (&world, join_of(JoinAlgo::NestedLoop, &[0, 1])),
            (&world, hash(&[0])),
            (&world, hash(&[0, 1])),
            (&world, hash(&[0, 4])),
            (&world, hash(&[0, 4, 1])),
            (&empty_probe, hash(&[0])),
            (&empty_probe, hash(&[0, 4])),
        ];
        for (world, node) in cases {
            let (db, graph) = world;
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
                    let geometry = (threads, morsel_rows);
                    for err in [
                        crate::execute(db, graph, &plan, cfg).err(),
                        run(world, &plan.root, Carry::Everything, geometry, budget).err(),
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
                let got = run(world, &plan.root, Carry::Nothing, geometry, u64::MAX);
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

    /// Builds `keys` into tables of every form at teams of 1, 2 and 4
    /// (one table, then 8 and 16 partitions) and holds them to tables
    /// built row by row: a `Vec` per first key, and a `Vec` per key pair
    /// whose second key is `row % 3`, NULL on every fifth row. Every
    /// first key's and every pair's build rows are filed once.
    fn assert_tables_match_reference<K, S>(keys: &[Option<K>], absent: &K)
    where
        K: JoinKey + Clone + std::fmt::Debug,
        S: BuildHasher + Default + Send + Sync + 'static,
    {
        let seconds: Vec<Option<i64>> = (0..keys.len())
            .map(|row| (row % 5 != 4).then_some((row % 3) as i64))
            .collect();
        let s_vals: Vec<i64> = seconds.iter().map(|k| k.unwrap_or(0)).collect();
        let s_valid: Vec<bool> = seconds.iter().map(Option::is_some).collect();
        let second = IntCond {
            op: CompareOp::Eq,
            l_vals: &s_vals,
            l_valid: &s_valid,
            r_vals: &s_vals,
            r_valid: &s_valid,
        };
        let pair_keys: Vec<Option<(K, i64)>> = keys
            .iter()
            .zip(&seconds)
            .map(|(k1, k2)| Some((k1.clone()?, (*k2)?)))
            .collect();
        let (firsts, pairs) = (reference_table(keys), reference_table(&pair_keys));
        let (n_keys, n_pairs) = (
            keys.iter().flatten().count(),
            pair_keys.iter().flatten().count(),
        );
        let form = |second, counting| TableForm { second, counting };
        for geometry in [(1, 4096), (2, 64), (4, 4096)] {
            let tag = format!("at {geometry:?}");
            let rows: Vec<JoinTable<K, S>> =
                assert_form_matches(keys, form(None, false), geometry, &firsts, &pairs, absent);
            let filed: usize = rows.iter().map(|t| t.rows.len()).sum();
            assert_eq!(filed, n_keys, "{tag}");
            let counts: Vec<HashMap<K, u32, S>> =
                assert_form_matches(keys, form(None, true), geometry, &firsts, &pairs, absent);
            let filed: u32 = counts.iter().flat_map(HashMap::values).sum();
            assert_eq!(filed as usize, n_keys, "{tag}");
            let pair_rows: Vec<PairRows<K, S>> = assert_form_matches(
                keys,
                form(Some(second), false),
                geometry,
                &firsts,
                &pairs,
                absent,
            );
            let filed: usize = pair_rows.iter().map(|t| t.pairs.rows.len()).sum();
            assert_eq!(filed, n_pairs, "{tag}");
            let pair_counts: Vec<PairCounts<K, S>> = assert_form_matches(
                keys,
                form(Some(second), true),
                geometry,
                &firsts,
                &pairs,
                absent,
            );
            let filed: u32 = pair_counts.iter().flat_map(|t| t.pairs.values()).sum();
            assert_eq!(filed as usize, n_pairs, "{tag}");
            let counted: u32 = pair_counts.iter().flat_map(|t| t.firsts.values()).sum();
            assert_eq!(counted as usize, n_keys, "{tag}");
        }
    }

    /// Builds `keys` into `T` tables of `form` at `geometry` and probes
    /// them: every first key of `firsts` is charged its rows and, in a
    /// one-key form, finds them (or their count); every pair of `pairs`
    /// finds its rows (or their count) in a two-key form; `absent`
    /// finds nothing, and the build charges one unit a row.
    fn assert_form_matches<K, T>(
        keys: &[Option<K>],
        form: TableForm<'_>,
        (threads, morsel_rows): (usize, usize),
        firsts: &HashMap<K, Vec<u32>>,
        pairs: &HashMap<(K, i64), Vec<u32>>,
        absent: &K,
    ) -> Vec<T>
    where
        K: JoinKey + Clone + std::fmt::Debug,
        T: HashTable<K>,
    {
        let counting = form.counting;
        let tag = format!(
            "t={threads} two keys {} counting {counting}",
            form.second.is_some()
        );
        let (db, graph) = setup();
        let budget = SharedBudget::new(u64::MAX);
        let ctx = Ctx {
            db: &db,
            graph: &graph,
            threads,
            morsel_rows,
            budget: &budget,
        };
        let first = |row: usize| keys[row].clone();
        let parts = partition_build(&ctx, keys.len(), &first).unwrap();
        let mut scratch = Scratch::default();
        let tables: Vec<T> = build_tables(
            &ctx,
            &mut scratch,
            keys.len(),
            parts.as_deref(),
            form,
            &first,
        )
        .unwrap();
        assert_eq!(budget.used(), keys.len() as u64, "{tag}");
        let mask = tables.len() - 1;
        // What a probe finds, as rows; a count reads as that many
        // `u32::MAX`es, and so does what it is held to.
        let look = |k1: &K, k2: Option<i64>| {
            let (charged, found) = tables[partition_of(k1, mask)].look(k1.clone(), || k2)?;
            let found = match found {
                Matches::Rows(rows) => {
                    assert!(!counting && rows.windows(2).all(|w| w[0] < w[1]), "{tag}");
                    rows.to_vec()
                }
                Matches::Count(n) => {
                    assert!(counting, "{tag}");
                    vec![u32::MAX; n as usize]
                }
            };
            Some((charged as usize, found))
        };
        let read = |want: &[u32]| {
            if counting {
                vec![u32::MAX; want.len()]
            } else {
                want.to_vec()
            }
        };
        for (k1, rows) in firsts {
            let (charged, found) =
                look(k1, None).unwrap_or_else(|| panic!("{k1:?} missing, {tag}"));
            assert_eq!(charged, rows.len(), "{k1:?}, {tag}");
            let want = if form.second.is_some() { &[][..] } else { rows };
            assert_eq!(found, read(want), "{k1:?}, {tag}");
        }
        if form.second.is_some() {
            for ((k1, k2), rows) in pairs {
                let (charged, found) = look(k1, Some(*k2)).unwrap();
                assert_eq!(charged, firsts[k1].len(), "{k1:?}, {tag}");
                assert_eq!(found, read(rows), "({k1:?}, {k2}), {tag}");
                assert_eq!(look(k1, Some(3)).unwrap().1, read(&[]), "{tag}");
            }
        }
        assert_eq!(look(absent, Some(0)), None, "{tag}");
        tables
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
                assert_tables_match_reference::<i64, IntHasher>(&keys, &-1);
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
        let mut table: JoinTable<Value, BuildHasherDefault<KeyHasher>> = JoinTable::default();
        table.fill(|row| keys[row].clone(), 0..keys.len() as u32);
        assert_eq!(table.get(&Value::Float(0.0)), Some(&[0, 3, 5][..]));
        assert_eq!(table.get(&Value::Float(-0.0)), Some(&[1, 2][..]));
        assert_eq!(table.get(&Value::Float(2.0)), None);
    }
}
