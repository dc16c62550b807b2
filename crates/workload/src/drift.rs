//! The drift harness: proving "hands-free" under a changing world.
//!
//! Every other workload in this crate serves a frozen database with
//! frozen statistics — exactly the setting where the paper's hands-free
//! optimizer is least needed. This module supplies the moving target:
//!
//! * **Mutation operators** ([`Mutation`] / [`apply_mutation`]) —
//!   deterministic, seed-driven changes to a live
//!   [`Database`]: append-heavy growth batches
//!   sampled from the live row distribution, skew shifts that collapse a
//!   value column toward one head value, and bulk deletes. Every
//!   operator preserves the typed-column invariants *and* each column's
//!   physical encoding ([`hfqo_storage::Encoding`]), so the row, batch,
//!   and parallel engines stay bit-identical on the mutated data, and
//!   rebuilds the mutated table's indexes (index row ids are positional
//!   and go stale under any mutation of their table).
//! * **Shock scripts** ([`Shock`] / [`ShockKind`]) — a shock bundles
//!   mutations with optional new query templates arriving mid-run, the
//!   two ways a serving workload's world actually moves.
//! * **The shock→recovery harness** ([`DriftHarness`]) — runs an
//!   expert (`TraditionalPlanner`-backed) session and a learned
//!   session (an [`OnlineTrainer`]-attached REINFORCE agent) over the
//!   *same* mutating database, interleaves serving traffic with
//!   mutation events and mid-traffic
//!   [`rebuild_stats`](QuerySession::rebuild_stats), and measures, per
//!   shock, how many policy swap generations and serves the learned
//!   planner needs to return to expert parity on p95 latency
//!   ([`RecoveryReport`]).
//!
//! **Determinism contract.** Mutations are pure functions of
//! `(database, seed)`: fixed seeds reproduce bit-identical
//! post-mutation tables. The harness measures latency from the
//! executor's deterministic work counter (`ExecStats.work ×
//! ms_per_unit`), never wall-clock, and the agent's only randomness is
//! its seeded init — so a whole scenario run, including every
//! [`RecoveryReport`], is bit-reproducible and golden-loggable across
//! dev and release profiles. Served rows are asserted identical to the
//! expert's freshly-planned reference on *every* serve, before any
//! latency is recorded.

use hfqo_catalog::{ColumnId, TableId};
use hfqo_exec::ExecConfig;
use hfqo_query::{AggExpr, QueryGraph};
use hfqo_rejoin::{Featurizer, PolicyKind, ReJoinAgent};
use hfqo_serve::{OnlineConfig, OnlineTrainer, QuerySession, ServedQuery};
use hfqo_sql::AggFunc;
use hfqo_stats::{stats_drift, DriftMagnitude, StatsCatalog};
use hfqo_storage::{Database, StorageError, Value};
use hfqo_sync::RwLock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;

/// What can go wrong applying a mutation.
#[derive(Debug)]
pub enum DriftError {
    /// The storage layer rejected the change (missing table, schema
    /// violation, index rebuild failure).
    Storage(StorageError),
    /// The mutation itself is unusable: out-of-range fraction, append
    /// into an empty table, skewing a primary key, …
    InvalidMutation(String),
}

impl fmt::Display for DriftError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Storage(e) => write!(f, "storage error: {e}"),
            Self::InvalidMutation(msg) => write!(f, "invalid mutation: {msg}"),
        }
    }
}

impl std::error::Error for DriftError {}

impl From<StorageError> for DriftError {
    fn from(e: StorageError) -> Self {
        Self::Storage(e)
    }
}

/// A seed-driven change to a live database.
#[derive(Debug, Clone, PartialEq)]
pub enum MutationOp {
    /// Appends `rows` rows to `table`. Non-key columns copy values from
    /// seeded source rows of the pre-mutation table (growth preserves
    /// the live distribution, nulls included); an integer primary key
    /// continues past the current maximum, so uniqueness and index
    /// invariants hold. Appending goes through the encoded columns'
    /// own push paths — dictionary and RLE layouts extend in place.
    Append {
        /// Target table.
        table: TableId,
        /// Rows to append.
        rows: usize,
    },
    /// Overwrites a seeded `fraction` of `column`'s rows with one
    /// seeded head value drawn from the live column — the distribution
    /// collapses toward that value (ndv falls, one MCV grows). The
    /// rebuilt column is re-encoded to the physical layout it had.
    /// Rejected for primary-key columns.
    SkewShift {
        /// Target table.
        table: TableId,
        /// Column whose distribution shifts.
        column: ColumnId,
        /// Fraction of rows re-pointed at the head value, in `[0, 1]`.
        fraction: f64,
    },
    /// Deletes a seeded `fraction` of `table`'s rows (at least one row
    /// always survives, so statistics and scans stay well-defined).
    /// Every column is rebuilt from the survivors and re-encoded to its
    /// previous physical layout.
    BulkDelete {
        /// Target table.
        table: TableId,
        /// Fraction of rows deleted, in `[0, 1]`.
        fraction: f64,
    },
}

/// A [`MutationOp`] plus the seed that makes it deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct Mutation {
    /// The operator.
    pub op: MutationOp,
    /// Seed for every random draw the operator makes.
    pub seed: u64,
}

impl Mutation {
    /// An append-growth mutation.
    pub fn append(table: TableId, rows: usize, seed: u64) -> Self {
        Self {
            op: MutationOp::Append { table, rows },
            seed,
        }
    }

    /// A skew-shift mutation.
    pub fn skew_shift(table: TableId, column: ColumnId, fraction: f64, seed: u64) -> Self {
        Self {
            op: MutationOp::SkewShift {
                table,
                column,
                fraction,
            },
            seed,
        }
    }

    /// A bulk-delete mutation.
    pub fn bulk_delete(table: TableId, fraction: f64, seed: u64) -> Self {
        Self {
            op: MutationOp::BulkDelete { table, fraction },
            seed,
        }
    }
}

/// What one mutation did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MutationReport {
    /// The mutated table.
    pub table: TableId,
    /// Row count before.
    pub rows_before: usize,
    /// Row count after.
    pub rows_after: usize,
}

/// Applies one mutation to `db` and rebuilds the indexes it left stale:
/// index row ids are positional, so any mutation invalidates the
/// indexes of the table it touched — found through the database's
/// per-table data versions ([`Database::refresh_indexes`]), which also
/// picks up any other table changed since its indexes were built.
/// Deterministic: the same `(db, mutation)` pair always produces the
/// bit-identical post-mutation database. The caller still owns
/// statistics freshness — sessions should follow up with
/// [`QuerySession::refresh_after_mutation`].
pub fn apply_mutation(
    db: &mut Database,
    mutation: &Mutation,
) -> Result<MutationReport, DriftError> {
    let report = match &mutation.op {
        MutationOp::Append { table, rows } => append_rows(db, *table, *rows, mutation.seed)?,
        MutationOp::SkewShift {
            table,
            column,
            fraction,
        } => skew_shift(db, *table, *column, *fraction, mutation.seed)?,
        MutationOp::BulkDelete { table, fraction } => {
            bulk_delete(db, *table, *fraction, mutation.seed)?
        }
    };
    db.refresh_indexes()?;
    Ok(report)
}

fn append_rows(
    db: &mut Database,
    tid: TableId,
    rows: usize,
    seed: u64,
) -> Result<MutationReport, DriftError> {
    let table = db.table_mut(tid)?;
    let rows_before = table.row_count();
    if rows_before == 0 && rows > 0 {
        return Err(DriftError::InvalidMutation(format!(
            "append into empty table {tid:?}: growth samples from live rows"
        )));
    }
    let schema = table.schema().clone();
    let pk = schema.primary_key();
    let mut next_pk = 0i64;
    if let Some(c) = pk {
        for row in 0..rows_before {
            match table.value_at(row, c) {
                Value::Int(x) => next_pk = next_pk.max(x + 1),
                Value::Null => {}
                other => {
                    return Err(DriftError::InvalidMutation(format!(
                        "append requires an integer primary key, found {other}"
                    )))
                }
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA11E_4D00);
    let mut row_buf: Vec<Value> = Vec::with_capacity(schema.arity());
    for _ in 0..rows {
        // Sampling strictly below `rows_before` keeps the source pool
        // fixed at the pre-mutation rows: growth echoes the live
        // distribution and never feeds on its own output.
        let src = rng.gen_range(0..rows_before);
        row_buf.clear();
        for i in 0..schema.arity() {
            let c = ColumnId(i as u32);
            if pk == Some(c) {
                row_buf.push(Value::Int(next_pk));
                next_pk += 1;
            } else {
                row_buf.push(table.value_at(src, c));
            }
        }
        table.append_row(&row_buf)?;
    }
    Ok(MutationReport {
        table: tid,
        rows_before,
        rows_after: rows_before + rows,
    })
}

fn skew_shift(
    db: &mut Database,
    tid: TableId,
    col: ColumnId,
    fraction: f64,
    seed: u64,
) -> Result<MutationReport, DriftError> {
    if !(0.0..=1.0).contains(&fraction) {
        return Err(DriftError::InvalidMutation(format!(
            "skew fraction {fraction} outside [0, 1]"
        )));
    }
    let table = db.table_mut(tid)?;
    if table.schema().primary_key() == Some(col) {
        return Err(DriftError::InvalidMutation(
            "skewing a primary-key column would break uniqueness".into(),
        ));
    }
    let rows = table.row_count();
    let report = MutationReport {
        table: tid,
        rows_before: rows,
        rows_after: rows,
    };
    if rows == 0 || fraction == 0.0 {
        return Ok(report);
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EC7_0000);
    // The head value the distribution collapses toward: the first
    // non-null among a bounded number of seeded probes.
    let mut head = None;
    for _ in 0..16 {
        let v = table.value_at(rng.gen_range(0..rows), col);
        if !v.is_null() {
            head = Some(v);
            break;
        }
    }
    let Some(head) = head else {
        return Err(DriftError::InvalidMutation(format!(
            "no non-null head value found in table {tid:?} column #{}",
            col.index()
        )));
    };
    let mask: Vec<bool> = (0..rows).map(|_| rng.gen_bool(fraction)).collect();
    table.rebuild_column(col, |row, v| if mask[row] { head.clone() } else { v })?;
    Ok(report)
}

fn bulk_delete(
    db: &mut Database,
    tid: TableId,
    fraction: f64,
    seed: u64,
) -> Result<MutationReport, DriftError> {
    if !(0.0..=1.0).contains(&fraction) {
        return Err(DriftError::InvalidMutation(format!(
            "delete fraction {fraction} outside [0, 1]"
        )));
    }
    let table = db.table_mut(tid)?;
    let rows_before = table.row_count();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDE1E_7E00);
    let mut keep: Vec<bool> = (0..rows_before).map(|_| !rng.gen_bool(fraction)).collect();
    if rows_before > 0 && !keep.iter().any(|&k| k) {
        // Never empty a table: scans, stats, and join results over a
        // zero-row relation would make the scenario degenerate.
        keep[0] = true;
    }
    let rows_after = table.retain_rows(&keep)?;
    Ok(MutationReport {
        table: tid,
        rows_before,
        rows_after,
    })
}

/// The shock taxonomy the recovery battery measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShockKind {
    /// Append-heavy growth batches across the joined tables.
    AppendGrowth,
    /// A value-distribution shift re-weighting selection columns.
    SkewShift,
    /// Bulk deletes shrinking the joined tables.
    BulkDelete,
    /// New query templates arriving mid-run (no data change).
    NewTemplates,
}

impl ShockKind {
    /// Stable label used in reports and golden logs.
    pub fn label(self) -> &'static str {
        match self {
            Self::AppendGrowth => "append_growth",
            Self::SkewShift => "skew_shift",
            Self::BulkDelete => "bulk_delete",
            Self::NewTemplates => "new_templates",
        }
    }
}

/// One scripted shock: a batch of mutations applied between serving
/// rounds, plus query templates that start arriving with it.
#[derive(Debug, Clone)]
pub struct Shock {
    /// Which kind of world change this is.
    pub kind: ShockKind,
    /// Mutations applied (in order) when the shock lands.
    pub mutations: Vec<Mutation>,
    /// Templates added to the served workload when the shock lands.
    pub new_queries: Vec<QueryGraph>,
}

impl Shock {
    /// An empty shock of the given kind.
    pub fn new(kind: ShockKind) -> Self {
        Self {
            kind,
            mutations: Vec::new(),
            new_queries: Vec::new(),
        }
    }

    /// Adds a mutation (builder style).
    pub fn with_mutation(mut self, m: Mutation) -> Self {
        self.mutations.push(m);
        self
    }

    /// Adds a new mid-run query template (builder style).
    pub fn with_query(mut self, q: QueryGraph) -> Self {
        self.new_queries.push(q);
        self
    }
}

/// Knobs of the shock→recovery harness.
#[derive(Debug, Clone)]
pub struct DriftConfig {
    /// Seed for the learned agent's initial weights.
    pub agent_seed: u64,
    /// Featurizer capacity: the largest `relation_count` any query —
    /// including mid-run arrivals — may have.
    pub max_rels: usize,
    /// Policy-swap cadence of the online trainer (episodes per
    /// generation).
    pub swap_every: usize,
    /// Experiences drained per trainer step.
    pub drain_batch: usize,
    /// Parity threshold: recovery is declared when the learned round
    /// p95 is at most `parity_factor ×` the expert's p95.
    pub parity_factor: f64,
    /// Maximum warm-up rounds before the first shock.
    pub warmup_rounds: usize,
    /// Maximum recovery rounds measured per shock.
    pub max_rounds_per_shock: usize,
    /// Serving rounds run on *stale* statistics after each shock before
    /// the mid-traffic stats rebuild — results must stay correct (plans
    /// are data-independent), only plan quality lags.
    pub stats_lag_rounds: usize,
    /// Execution configuration for both sessions.
    pub exec: ExecConfig,
    /// Work-units → milliseconds conversion, shared by the trainer's
    /// rewards and the report's latencies.
    pub ms_per_unit: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        let online = OnlineConfig::default();
        Self {
            agent_seed: 0xD21F7,
            max_rels: 8,
            swap_every: 4,
            drain_batch: 64,
            parity_factor: 1.1,
            warmup_rounds: 24,
            max_rounds_per_shock: 32,
            stats_lag_rounds: 1,
            // Headroom above the executor default: recovery scenarios
            // deliberately serve bad (untrained / post-shock) plans,
            // and the harness needs to *measure* them, not abort them.
            exec: ExecConfig::with_budget(60_000_000),
            ms_per_unit: online.ms_per_unit,
        }
    }
}

/// One measured serving round during recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryRound {
    /// Round index since the shock (0 = first post-rebuild round).
    pub round: usize,
    /// Policy generation that served this round.
    pub generation: u64,
    /// Work-derived p95 latency of the round's serves, in ms.
    pub p95_ms: f64,
    /// Whether this round met the parity threshold.
    pub parity: bool,
}

/// The per-shock recovery measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// Shock label (a [`ShockKind::label`], or `"warmup"`).
    pub label: String,
    /// The expert's p95 on the post-shock world (freshly planned,
    /// work-derived, constant across rounds).
    pub expert_p95_ms: f64,
    /// Every measured round, in order.
    pub rounds: Vec<RecoveryRound>,
    /// Learned-session serves measured during recovery.
    pub serves: usize,
    /// Policy generation when the shock landed.
    pub start_generation: u64,
    /// Swap generations from shock to the first parity round; `None`
    /// when parity was not reached within the round budget.
    pub generations_to_parity: Option<u64>,
    /// How far the shock moved the statistics (zero for pure
    /// new-template shocks).
    pub drift: DriftMagnitude,
}

impl RecoveryReport {
    /// Whether the learned planner returned to expert parity.
    pub fn parity_reached(&self) -> bool {
        self.generations_to_parity.is_some()
    }

    /// p95 of the last measured round (the expert p95 when no round
    /// was measured, which happens only with a zero round budget).
    pub fn final_p95_ms(&self) -> f64 {
        self.rounds.last().map_or(self.expert_p95_ms, |r| r.p95_ms)
    }

    /// The `(shock_kind, generations, p95, parity_reached)` line the
    /// golden drift-recovery log pins. `{:?}` float formatting is the
    /// shortest round-trip representation, identical across dev and
    /// release profiles because every input is deterministic.
    pub fn golden_line(&self) -> String {
        let generations = match self.generations_to_parity {
            Some(g) => g.to_string(),
            None => "-".to_string(),
        };
        format!(
            "shock={} generations={} p95={:?} parity={}",
            self.label,
            generations,
            self.final_p95_ms(),
            self.parity_reached()
        )
    }
}

/// The whole scenario's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftOutcome {
    /// The pre-shock warm-up (same recovery loop, label `"warmup"`).
    pub warmup: RecoveryReport,
    /// One report per shock, in scenario order.
    pub shocks: Vec<RecoveryReport>,
}

impl DriftOutcome {
    /// Whether warm-up and every shock reached parity.
    pub fn all_parity(&self) -> bool {
        self.warmup.parity_reached() && self.shocks.iter().all(RecoveryReport::parity_reached)
    }

    /// The golden log: one [`RecoveryReport::golden_line`] per phase.
    pub fn golden_log(&self) -> String {
        std::iter::once(&self.warmup)
            .chain(&self.shocks)
            .map(|r| format!("{}\n", r.golden_line()))
            .collect()
    }
}

/// `q` with a single `COUNT(*)` root (projections dropped, structure
/// unchanged) — aggregate roots make results directly comparable across
/// join orders, which the harness's identity assertion relies on.
pub fn with_count_root(q: &QueryGraph) -> QueryGraph {
    let label = q.label.clone();
    let g = QueryGraph::new(
        q.relations().to_vec(),
        q.joins().to_vec(),
        q.selections().to_vec(),
        vec![AggExpr {
            func: AggFunc::Count,
            column: None,
        }],
        q.group_by().to_vec(),
    );
    match label {
        Some(l) => g.with_label(l),
        None => g,
    }
}

/// A shock battery derived from the workload itself: append growth on
/// every table the queries touch, a skew shift on every non-key column
/// the queries select on, a new template arriving mid-run, and a bulk
/// delete. Works against any schema (IMDB-like, TPC-H-like, synthetic)
/// because the targets come from the query graphs, not from hardcoded
/// table ids. Fully determined by `seed`; target order is sorted, so
/// the battery is independent of query order too.
pub fn shock_battery_for(
    db: &Database,
    queries: &[QueryGraph],
    growth_rows: usize,
    new_query: QueryGraph,
    seed: u64,
) -> Vec<Shock> {
    let mut tables: Vec<TableId> = queries
        .iter()
        .flat_map(|q| q.relations().iter().map(|r| r.table))
        .collect();
    tables.sort_unstable_by_key(|t| t.0);
    tables.dedup();
    let mut sel_cols: Vec<(TableId, ColumnId)> = queries
        .iter()
        .flat_map(|q| {
            q.selections().iter().map(|s| {
                let table = q.relations()[s.column.rel.index()].table;
                (table, s.column.column)
            })
        })
        .filter(|&(t, c)| {
            db.table(t)
                .map(|tab| tab.schema().primary_key() != Some(c))
                .unwrap_or(false)
        })
        .collect();
    sel_cols.sort_unstable_by_key(|&(t, c)| (t.0, c.0));
    sel_cols.dedup();

    let mut growth = Shock::new(ShockKind::AppendGrowth);
    let mut delete = Shock::new(ShockKind::BulkDelete);
    for (i, &t) in tables.iter().enumerate() {
        let salt = seed.wrapping_add(i as u64);
        growth = growth.with_mutation(Mutation::append(t, growth_rows, salt));
        delete = delete.with_mutation(Mutation::bulk_delete(t, 0.25, salt));
    }
    let mut skew = Shock::new(ShockKind::SkewShift);
    for (i, &(t, c)) in sel_cols.iter().enumerate() {
        let salt = seed.wrapping_add(1000 + i as u64);
        skew = skew.with_mutation(Mutation::skew_shift(t, c, 0.5, salt));
    }
    vec![
        growth,
        skew,
        Shock::new(ShockKind::NewTemplates).with_query(new_query),
        delete,
    ]
}

/// The standard shock battery over the [`SynthDb`](crate::synth::SynthDb)
/// schema (`s{i}(id, fk, val)`): append growth across the first
/// `tables` tables, a skew shift of every `val` selection column toward
/// one head value, a bulk delete, and a new template arriving mid-run.
/// Fully determined by `seed`.
pub fn synth_shock_battery(
    tables: usize,
    growth_rows: usize,
    new_query: QueryGraph,
    seed: u64,
) -> Vec<Shock> {
    let val = ColumnId(2);
    let mut growth = Shock::new(ShockKind::AppendGrowth);
    let mut skew = Shock::new(ShockKind::SkewShift);
    let mut delete = Shock::new(ShockKind::BulkDelete);
    for t in 0..tables {
        let tid = TableId(t as u32);
        let salt = seed.wrapping_add(t as u64);
        growth = growth.with_mutation(Mutation::append(tid, growth_rows, salt));
        skew = skew.with_mutation(Mutation::skew_shift(tid, val, 0.6, salt));
        delete = delete.with_mutation(Mutation::bulk_delete(tid, 0.35, salt));
    }
    vec![
        growth,
        skew,
        Shock::new(ShockKind::NewTemplates).with_query(new_query),
        delete,
    ]
}

/// A complete scripted drift scenario: the world, the traffic, and the
/// shocks. [`DriftScenario::imdb_job`] is the standard fixed-seed
/// script shared by the integration tests, the golden drift-recovery
/// log, the repo benchmark's `online_drift` workload, and the
/// `drift_recovery` example — one scenario, so every consumer pins the
/// same numbers.
pub struct DriftScenario {
    /// The initial database.
    pub db: Database,
    /// Statistics over the initial database.
    pub stats: StatsCatalog,
    /// The serving traffic (templates served every round).
    pub queries: Vec<QueryGraph>,
    /// The shock script, in order.
    pub shocks: Vec<Shock>,
    /// Harness knobs.
    pub config: DriftConfig,
}

impl DriftScenario {
    /// The standard scenario: ten 4–7-relation JOB-like templates over
    /// the IMDB-like database, hit with the full shock battery (append
    /// growth, skew shift, a new template arriving mid-run, bulk
    /// delete). The agent seed is chosen so the battery exercises both
    /// recovery modes: the warm-up and the bulk delete require real
    /// relearning (multiple swap generations), while the policy absorbs
    /// the growth and skew shocks without retraining — parity at the
    /// serving generation.
    pub fn imdb_job() -> Self {
        let bundle = crate::suite::WorkloadBundle::imdb_job(
            crate::imdb::ImdbConfig {
                base_rows: 200,
                seed: 41,
            },
            41,
        );
        let mut queries: Vec<QueryGraph> = bundle
            .queries
            .iter()
            .filter(|q| (4..=7).contains(&q.relation_count()))
            .take(11)
            .map(with_count_root)
            .collect();
        let newcomer = queries
            .pop()
            .expect("the JOB-like suite has 4-7 rel queries");
        let shocks = shock_battery_for(&bundle.db, &queries, 150, newcomer, 41);
        Self {
            db: bundle.db,
            stats: bundle.stats,
            queries,
            shocks,
            config: DriftConfig {
                agent_seed: 16,
                max_rounds_per_shock: 40,
                ..DriftConfig::default()
            },
        }
    }

    /// Builds the harness and runs the whole script.
    pub fn run(self) -> DriftOutcome {
        let mut harness = DriftHarness::new(self.db, self.stats, self.queries, self.config);
        harness.run(&self.shocks)
    }
}

fn sorted_rows(served: &ServedQuery) -> Vec<Vec<Value>> {
    let mut rows = served.outcome.rows.clone();
    rows.sort();
    rows
}

fn percentile(mut latencies: Vec<f64>, p: f64) -> f64 {
    if latencies.is_empty() {
        return 0.0;
    }
    latencies.sort_by(f64::total_cmp);
    let idx = ((latencies.len() as f64 - 1.0) * p).round() as usize;
    latencies[idx]
}

/// The shock→recovery harness. See the [module docs](self).
pub struct DriftHarness {
    learned: QuerySession,
    expert: QuerySession,
    trainer: OnlineTrainer,
    queries: Vec<Arc<QueryGraph>>,
    config: DriftConfig,
}

impl DriftHarness {
    /// Builds the two sessions over clones of `(db, stats)` and wires
    /// the learned one for online training.
    ///
    /// Panics when `queries` is empty or any query (now or later via a
    /// [`ShockKind::NewTemplates`] shock) exceeds `config.max_rels` —
    /// the featurizer's capacity is fixed at attach time, exactly the
    /// constraint a production deployment would size for.
    pub fn new(
        db: Database,
        stats: StatsCatalog,
        queries: Vec<QueryGraph>,
        config: DriftConfig,
    ) -> Self {
        assert!(!queries.is_empty(), "the harness needs serving traffic");
        for q in &queries {
            assert!(
                q.relation_count() <= config.max_rels,
                "query exceeds the featurizer capacity max_rels={}",
                config.max_rels
            );
        }
        let expert =
            QuerySession::traditional(db.clone(), stats.clone()).with_exec_config(config.exec);
        let mut learned = QuerySession::traditional(db, stats).with_exec_config(config.exec);
        let featurizer = Featurizer::new(config.max_rels);
        let mut rng = StdRng::seed_from_u64(config.agent_seed);
        let agent = ReJoinAgent::new(
            featurizer.state_dim(),
            featurizer.action_dim(),
            PolicyKind::default_reinforce(),
            &mut rng,
        );
        let online = OnlineConfig {
            swap_every: config.swap_every,
            drain_batch: config.drain_batch,
            ms_per_unit: config.ms_per_unit,
            ..OnlineConfig::default()
        };
        let trainer = OnlineTrainer::attach(&mut learned, agent, featurizer, true, online);
        Self {
            learned,
            expert,
            trainer,
            queries: queries.into_iter().map(Arc::new).collect(),
            config,
        }
    }

    /// Policy generations published so far.
    pub fn generation(&self) -> u64 {
        self.trainer.generation()
    }

    /// The currently served templates.
    pub fn queries(&self) -> &[Arc<QueryGraph>] {
        &self.queries
    }

    /// Runs warm-up to initial parity, then every shock in order,
    /// returning the full measurement. Deterministic for a fixed
    /// `(db, stats, queries, config, shocks)` input.
    pub fn run(&mut self, shocks: &[Shock]) -> DriftOutcome {
        let warmup = self.recover(
            "warmup",
            self.config.warmup_rounds,
            DriftMagnitude::default(),
        );
        let shocks = shocks.iter().map(|shock| self.apply_shock(shock)).collect();
        DriftOutcome { warmup, shocks }
    }

    /// Lands one shock and measures recovery: apply the mutations to
    /// both sessions' databases, serve `stats_lag_rounds` on stale
    /// statistics (results must stay correct — only plan quality lags),
    /// rebuild statistics mid-traffic, then serve-and-train until the
    /// learned p95 returns to expert parity or the round budget runs
    /// out.
    pub fn apply_shock(&mut self, shock: &Shock) -> RecoveryReport {
        let stats_before = self.learned.stats().clone();
        for m in &shock.mutations {
            apply_mutation(self.learned.db_mut(), m).expect("valid mutation script");
            apply_mutation(self.expert.db_mut(), m).expect("valid mutation script");
        }
        // The expert is the reference: it refreshes immediately.
        self.expert
            .refresh_after_mutation()
            .expect("expert refresh");
        for q in &shock.new_queries {
            assert!(
                q.relation_count() <= self.config.max_rels,
                "mid-run template exceeds the featurizer capacity max_rels={}",
                self.config.max_rels
            );
            self.queries.push(Arc::new(q.clone()));
        }
        if !shock.mutations.is_empty() && self.config.stats_lag_rounds > 0 {
            let (reference, _) = self.reference();
            for _ in 0..self.config.stats_lag_rounds {
                let _ = self.serve_round(&reference);
                self.trainer.step(&self.learned);
            }
        }
        self.learned
            .refresh_after_mutation()
            .expect("learned refresh");
        let drift = stats_drift(&stats_before, self.learned.stats());
        self.recover(shock.kind.label(), self.config.max_rounds_per_shock, drift)
    }

    /// Expert reference for the current world: per-query sorted rows
    /// (the identity oracle) and the expert's work-derived p95.
    fn reference(&self) -> (Vec<Vec<Vec<Value>>>, f64) {
        let mut rows = Vec::with_capacity(self.queries.len());
        let mut latencies = Vec::with_capacity(self.queries.len());
        for q in &self.queries {
            let served = self
                .expert
                .serve_shared(Arc::clone(q))
                .expect("expert serves");
            latencies.push(served.outcome.stats.work as f64 * self.config.ms_per_unit);
            rows.push(sorted_rows(&served));
        }
        (rows, percentile(latencies, 0.95))
    }

    /// Serves every template once through the learned session,
    /// asserting row identity against the expert reference *before*
    /// recording any latency. Returns the round's p95.
    fn serve_round(&self, reference: &[Vec<Vec<Value>>]) -> f64 {
        let latencies: Vec<f64> = self
            .queries
            .iter()
            .zip(reference)
            .map(|(q, expected)| {
                let served = self
                    .learned
                    .serve_shared(Arc::clone(q))
                    .expect("learned serves");
                assert_eq!(
                    &sorted_rows(&served),
                    expected,
                    "drifted serving changed results for {:?}",
                    q.label
                );
                served.outcome.stats.work as f64 * self.config.ms_per_unit
            })
            .collect();
        percentile(latencies, 0.95)
    }

    fn recover(&mut self, label: &str, max_rounds: usize, drift: DriftMagnitude) -> RecoveryReport {
        let (reference, expert_p95_ms) = self.reference();
        let start_generation = self.trainer.generation();
        let mut rounds = Vec::new();
        let mut serves = 0usize;
        let mut generations_to_parity = None;
        for round in 0..max_rounds {
            let p95_ms = self.serve_round(&reference);
            serves += self.queries.len();
            // The generation that served this round (swaps land in the
            // step *after* the serves they learn from).
            let generation = self.trainer.generation();
            let parity = p95_ms <= self.config.parity_factor * expert_p95_ms;
            rounds.push(RecoveryRound {
                round,
                generation,
                p95_ms,
                parity,
            });
            if parity {
                generations_to_parity = Some(generation - start_generation);
                break;
            }
            self.trainer.step(&self.learned);
        }
        RecoveryReport {
            label: label.to_string(),
            expert_p95_ms,
            rounds,
            serves,
            start_generation,
            generations_to_parity,
            drift,
        }
    }
}

/// Atomically versioned database snapshots for concurrent
/// mutation-while-serving tests: one appender clones, mutates, and
/// [`publish`](DbSnapshots::publish)es; server threads
/// [`load`](DbSnapshots::load) a coherent `(version, database)` pair
/// and can never observe a torn (mid-append) dictionary or RLE column,
/// because published snapshots are immutable by construction. The lock
/// is an [`hfqo_sync::RwLock`], so every acquisition enters the
/// lockdep order graph under `HFQO_LOCKCHECK`.
pub struct DbSnapshots {
    inner: RwLock<(u64, Arc<Database>)>,
}

impl DbSnapshots {
    /// Version 0 wraps the initial database.
    pub fn new(db: Database) -> Self {
        Self {
            inner: RwLock::new("workload.drift.snapshots", (0, Arc::new(db))),
        }
    }

    /// The current `(version, snapshot)` pair, loaded coherently.
    pub fn load(&self) -> (u64, Arc<Database>) {
        let guard = self.inner.read();
        (guard.0, Arc::clone(&guard.1))
    }

    /// The current version.
    pub fn version(&self) -> u64 {
        self.inner.read().0
    }

    /// Publishes the next version and returns its number.
    pub fn publish(&self, db: Database) -> u64 {
        let mut guard = self.inner.write();
        guard.0 += 1;
        guard.1 = Arc::new(db);
        guard.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{Shape, SynthConfig, SynthDb};

    fn synth() -> SynthDb {
        SynthDb::build(SynthConfig {
            tables: 4,
            rows: 120,
            seed: 3,
        })
    }

    /// Every index of `db` is what a rebuild of all of them yields.
    fn assert_indexes_match_a_full_rebuild(db: &Database, context: &dyn fmt::Debug) {
        let mut full = db.clone();
        full.build_indexes().unwrap();
        for i in 0..db.catalog().index_count() {
            let id = hfqo_catalog::IndexId(i as u32);
            assert!(db.index_storage(id).is_some(), "{context:?}: index {i}");
            assert_eq!(
                db.index_storage(id),
                full.index_storage(id),
                "{context:?}: index {i}"
            );
        }
    }

    #[test]
    fn mutations_are_deterministic_and_preserve_schema() {
        let s = synth();
        for mutation in [
            Mutation::append(TableId(0), 40, 7),
            Mutation::skew_shift(TableId(1), ColumnId(2), 0.5, 7),
            Mutation::bulk_delete(TableId(2), 0.3, 7),
        ] {
            let mut a = s.db.clone();
            let mut b = s.db.clone();
            let ra = apply_mutation(&mut a, &mutation).unwrap();
            let rb = apply_mutation(&mut b, &mutation).unwrap();
            assert_eq!(ra, rb);
            assert_indexes_match_a_full_rebuild(&a, &mutation);
            let t = ra.table;
            let (ta, tb) = (a.table(t).unwrap(), b.table(t).unwrap());
            assert_eq!(ta.row_count(), tb.row_count());
            for row in 0..ta.row_count() {
                for c in 0..ta.schema().arity() {
                    assert_eq!(
                        ta.value_at(row, ColumnId(c as u32)),
                        tb.value_at(row, ColumnId(c as u32)),
                        "{mutation:?} row {row} col {c}"
                    );
                }
            }
        }
    }

    /// The standard battery, in order, through two sessions built from
    /// one database as the harness builds them: after every mutation
    /// the indexes are a full rebuild's, a mutation moves the version of
    /// its own table only, and after a refresh — per shock, or once
    /// with the whole battery's changes piled up — the statistics are a
    /// full re-scan's.
    #[test]
    fn incremental_refresh_equals_full_rebuild_over_the_battery() {
        use hfqo_stats::build_database_stats;
        let scenario = DriftScenario::imdb_job();
        let mut prompt = QuerySession::traditional(scenario.db.clone(), scenario.stats.clone());
        let mut late = QuerySession::traditional(scenario.db, scenario.stats);
        let mut kinds = Vec::new();
        for shock in &scenario.shocks {
            for m in &shock.mutations {
                let before = late.db().table_versions().to_vec();
                let report = apply_mutation(late.db_mut(), m).unwrap();
                apply_mutation(prompt.db_mut(), m).unwrap();
                assert_indexes_match_a_full_rebuild(late.db(), m);
                for (t, (now, was)) in late.db().table_versions().iter().zip(&before).enumerate() {
                    assert_eq!(now != was, t == report.table.index(), "{m:?}: table {t}");
                }
                kinds.push(std::mem::discriminant(&m.op));
            }
            prompt.refresh_after_mutation().unwrap();
            assert_eq!(prompt.stats(), &build_database_stats(prompt.db()));
        }
        kinds.dedup();
        assert_eq!(kinds.len(), 3, "append, skew shift and bulk delete");
        late.refresh_after_mutation().unwrap();
        assert_eq!(late.stats(), &build_database_stats(late.db()));
        assert_eq!(late.stats(), prompt.stats());
        assert_eq!(late.db().table_versions(), prompt.db().table_versions());
    }

    #[test]
    fn append_continues_primary_keys() {
        let s = synth();
        let mut db = s.db.clone();
        let report = apply_mutation(&mut db, &Mutation::append(TableId(0), 25, 9)).unwrap();
        assert_eq!(report.rows_before, 120);
        assert_eq!(report.rows_after, 145);
        let t = db.table(TableId(0)).unwrap();
        let mut ids: Vec<i64> = (0..t.row_count())
            .map(|r| match t.value_at(r, ColumnId(0)) {
                Value::Int(x) => x,
                v => panic!("non-int pk {v}"),
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 145, "primary keys stay unique");
    }

    #[test]
    fn skew_shift_collapses_the_distribution() {
        let s = synth();
        let mut db = s.db.clone();
        let distinct = |db: &Database| {
            let t = db.table(TableId(0)).unwrap();
            let mut vals: Vec<Value> = (0..t.row_count())
                .map(|r| t.value_at(r, ColumnId(2)))
                .collect();
            vals.sort_by(|a, b| a.total_cmp(b));
            vals.dedup();
            vals.len()
        };
        let before = distinct(&db);
        apply_mutation(
            &mut db,
            &Mutation::skew_shift(TableId(0), ColumnId(2), 0.9, 11),
        )
        .unwrap();
        assert!(distinct(&db) < before, "ndv must fall under heavy skew");
    }

    #[test]
    fn invalid_mutations_are_rejected() {
        let s = synth();
        let mut db = s.db.clone();
        // Primary-key skew.
        let err = apply_mutation(
            &mut db,
            &Mutation::skew_shift(TableId(0), ColumnId(0), 0.5, 1),
        )
        .unwrap_err();
        assert!(matches!(err, DriftError::InvalidMutation(_)), "{err}");
        // Out-of-range fractions.
        assert!(apply_mutation(&mut db, &Mutation::bulk_delete(TableId(0), 1.5, 1)).is_err());
        assert!(apply_mutation(
            &mut db,
            &Mutation::skew_shift(TableId(0), ColumnId(2), -0.1, 1)
        )
        .is_err());
        // Missing table.
        assert!(matches!(
            apply_mutation(&mut db, &Mutation::append(TableId(99), 1, 1)).unwrap_err(),
            DriftError::Storage(_)
        ));
    }

    #[test]
    fn bulk_delete_never_empties_a_table() {
        let s = synth();
        let mut db = s.db.clone();
        let report = apply_mutation(&mut db, &Mutation::bulk_delete(TableId(3), 1.0, 5)).unwrap();
        assert_eq!(report.rows_after, 1, "one survivor guaranteed");
    }

    #[test]
    fn snapshots_version_monotonically() {
        let s = synth();
        let snaps = DbSnapshots::new(s.db.clone());
        let (v0, db0) = snaps.load();
        assert_eq!(v0, 0);
        let mut next = s.db.clone();
        apply_mutation(&mut next, &Mutation::append(TableId(0), 10, 1)).unwrap();
        assert_eq!(snaps.publish(next), 1);
        assert_eq!(snaps.version(), 1);
        let (v1, db1) = snaps.load();
        assert_eq!(v1, 1);
        assert_eq!(
            db0.table(TableId(0)).unwrap().row_count() + 10,
            db1.table(TableId(0)).unwrap().row_count()
        );
    }

    #[test]
    fn with_count_root_keeps_structure() {
        let s = synth();
        let q = s.query(Shape::Chain, 3, 1, 2);
        let c = with_count_root(&q);
        assert_eq!(c.relations(), q.relations());
        assert_eq!(c.joins(), q.joins());
        assert_eq!(c.selections(), q.selections());
        assert_eq!(c.label, q.label);
    }

    #[test]
    fn shock_battery_covers_all_kinds() {
        let s = synth();
        let battery = synth_shock_battery(4, 50, s.query(Shape::Star, 4, 1, 8), 21);
        let kinds: Vec<ShockKind> = battery.iter().map(|s| s.kind).collect();
        assert!(kinds.contains(&ShockKind::AppendGrowth));
        assert!(kinds.contains(&ShockKind::SkewShift));
        assert!(kinds.contains(&ShockKind::BulkDelete));
        assert!(kinds.contains(&ShockKind::NewTemplates));
        assert!(battery
            .iter()
            .find(|s| s.kind == ShockKind::NewTemplates)
            .is_some_and(|s| !s.new_queries.is_empty()));
    }
}
