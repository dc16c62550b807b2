//! The sharded, template-keyed plan cache.
//!
//! Keys are two-part (see `hfqo_query::fingerprint`): a
//! [`TemplateFingerprint`] groups every parameterization of one query
//! template into a single entry, and the exact [`QueryFingerprint`] is
//! kept as a fast path *within* that entry. A template entry holds a
//! small set of plan *buckets*; each bucket records the
//! stats-estimated selectivity signature of the parameter vector it
//! was planned for, and a probe whose current parameters' estimated
//! selectivities deviate by more than [`SELECTIVITY_BAND`] from every
//! bucket re-plans into a new bucket instead of serving a mismatched
//! plan (the plan that is good for `id = rare_value` may be terrible for
//! `id = common_value`).
//!
//! ## Concurrency
//!
//! The cache is internally synchronized (`probe`/`insert` take
//! `&self`): entries live in a power-of-two number of shards, each
//! behind its own mutex, so N serving threads only contend when they
//! touch the same shard — not on one global lock. The count follows from
//! the capacity: the largest power of two at most
//! `min(MAX_CACHE_SHARDS, capacity / 8)`, and at least 1, so a shard is
//! sized for 8 entries or more and a cache under 16 entries is one exact
//! LRU. Metrics are kept per shard and aggregated by
//! [`PlanCache::metrics`].
//!
//! Cold misses are **single-flighted per shard**: the first thread to
//! miss a key registers an in-flight marker and plans; concurrent
//! threads probing the same exact key wait on the flight and then
//! re-probe, so a racing burst on one cold fingerprint burns exactly
//! one planner run. If the leader fails (planner error, stale epoch),
//! waiters wake, miss again, and one of them becomes the next leader.
//! Should two planner runs for one key ever still race (e.g. a caller
//! bypassing the flight guard), the insert is last-write-wins and the
//! race is *observable*: it increments the `duplicate_plans` counter.
//!
//! ## Shard choice
//!
//! A template's shard is bits 32 and up of one fingerprint lane
//! multiplied by a fixed odd 64-bit constant (`shard_index`, the only
//! place a shard is chosen; `exec`'s `KeyHasher::partition` picks join
//! partitions the same way). The fingerprint's raw bits must not be
//! used, alone or XOR-folded: its two FNV-1a lanes share a multiplier
//! and start from bases that differ by an odd constant, so bit 0 of
//! `a ^ b` is 1 for every input and the neighbouring bits are
//! correlated (see "Hash construction" in `hfqo_query::fingerprint`).
//! Folding the lanes reaches at most half the shards — 6 of 16 on the
//! benchmark's templates, a "128-entry" cache that holds 48. The
//! capacity is dealt out over the shards, whose bounds differ by at most
//! one and sum to it, and eviction is per-shard LRU: the cache never
//! holds more than its capacity, and it fills to it only when templates
//! spread; [`CacheMetrics::occupied_shards`] and
//! [`CacheMetrics::largest_shard`] make the spread observable.
//!
//! ## Invalidation epochs
//!
//! Invalidation must stay atomic across shards: a single global
//! [`PlanCache::epoch`] counter is bumped *before* the shards are
//! swept, and [`PlanCache::insert_if_current`] rejects any plan whose
//! probe-time epoch is stale. A plan produced under a superseded
//! planner/statistics generation is therefore served once but can
//! never resurrect as cache hits, no matter which shard it lands in.

use hfqo_opt::PlannerMethod;
use hfqo_query::{PhysicalPlan, QueryFingerprint, TemplateFingerprint};
use hfqo_sync::{Condvar, Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cached plan: everything the session needs to answer a hit without
/// re-planning.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedPlan {
    /// The finished physical plan.
    pub plan: PhysicalPlan,
    /// Estimated cost at planning time.
    pub cost: f64,
    /// Which strategy produced it.
    pub method: PlannerMethod,
    /// Stats-estimated selectivity of each selection slot's literal at
    /// planning time, in slot order — what probes compare against the
    /// current parameters to decide hit vs re-plan.
    pub selectivities: Vec<f64>,
}

/// The cache's two-part key: the template the entry is grouped under
/// and the exact fingerprint used as the intra-template fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Structure-only fingerprint: selects the template entry (and the
    /// shard).
    pub template: TemplateFingerprint,
    /// Value-inclusive fingerprint: the exact fast path within the
    /// entry.
    pub exact: QueryFingerprint,
}

impl PlanKey {
    /// Computes both fingerprints of `graph`.
    pub fn of(graph: &hfqo_query::QueryGraph) -> Self {
        let (template, _) = hfqo_query::template_fingerprint(graph);
        Self {
            template,
            exact: hfqo_query::fingerprint(graph),
        }
    }
}

/// How a probe was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The exact fingerprint was already mapped: served without even
    /// scoring selectivities.
    ExactHit,
    /// First sight of these constants, but an existing bucket's
    /// selectivity signature is within the band: the template's plan is
    /// shared.
    TemplateHit,
    /// The template is cached but every bucket's signature is outside
    /// the band: the caller must plan (into a new bucket).
    Replan,
    /// The template itself is not cached: the caller must plan.
    Miss,
}

impl CacheOutcome {
    /// Whether a cached plan was served (no planner run).
    pub fn is_hit(self) -> bool {
        matches!(self, Self::ExactHit | Self::TemplateHit)
    }
}

/// Cache observability counters, aggregated across shards (monotonic
/// over the cache's lifetime and carried across capacity rebuilds).
///
/// One struct for both of a session's caches: the `statement_*` fields
/// describe the text-keyed statement cache in front of the plan cache
/// (see [`crate::statement`]) and are filled by
/// `QuerySession::cache_metrics`; a bare [`PlanCache`] has no
/// statements and reports them as zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheMetrics {
    /// Probe hits (`exact_hits + template_hits`).
    pub hits: u64,
    /// Hits through the exact-fingerprint fast path.
    pub exact_hits: u64,
    /// Hits through selectivity-band matching (new constants served by
    /// an existing bucket).
    pub template_hits: u64,
    /// Probes that found the template but re-planned because the
    /// current parameters' selectivities fell outside every bucket's
    /// band.
    pub replans: u64,
    /// Probes that found no template entry.
    pub misses: u64,
    /// Template entries evicted by the capacity bound.
    pub evictions: u64,
    /// Whole-cache invalidations (stats rebuilds, planner swaps,
    /// capacity rebuilds, explicit clears). Equal to the epoch.
    pub invalidations: u64,
    /// Inserts rejected because an invalidation happened between the
    /// probe and the insert (the plan was produced under a superseded
    /// planner/statistics epoch).
    pub stale_inserts: u64,
    /// Inserts that found their exact fingerprint already cached: two
    /// threads both planned the same query (last write wins). With
    /// single-flight this stays 0; a nonzero value makes a
    /// double-planning race observable instead of silent.
    pub duplicate_plans: u64,
    /// Probes that waited on another thread's in-flight planner run
    /// instead of planning the same key themselves.
    pub flight_waits: u64,
    /// Template entries currently cached.
    pub len: usize,
    /// Plan buckets currently cached (≥ `len`; a template entry holds
    /// one bucket per distinct selectivity regime).
    pub plans: usize,
    /// Configured capacity: a bound on template entries across all
    /// shards (`len` never exceeds it).
    pub capacity: usize,
    /// Number of shards (worked out from `capacity`).
    pub shards: usize,
    /// Shards currently holding at least one template entry. A full
    /// cache that reads fewer than `shards` here is not using its
    /// capacity.
    pub occupied_shards: usize,
    /// Template entries in the fullest shard (≤ `capacity / shards`,
    /// rounded up).
    pub largest_shard: usize,
    /// `serve(sql)` calls whose exact text was remembered: no lex,
    /// parse, bind or fingerprint ran. Graph and `Prepared` entry
    /// points count as neither hit nor miss.
    pub statement_hits: u64,
    /// `serve(sql)` calls whose text was not remembered — first sight,
    /// evicted by the bound, forgotten by `db_mut()`, or a text that
    /// fails to parse or bind (which is never remembered, so it misses
    /// every time).
    pub statement_misses: u64,
    /// Statements currently remembered (≤ `capacity`: the statement
    /// cache is one LRU bounded at the plan cache's capacity).
    pub statements: usize,
}

impl CacheMetrics {
    /// Fraction of probes that found their template (hits plus
    /// intra-template re-plans) — the parameterized-sharing rate.
    /// `1.0` when nothing has been probed.
    pub fn sharing_rate(&self) -> f64 {
        let probes = self.hits + self.replans + self.misses;
        if probes == 0 {
            return 1.0;
        }
        (self.hits + self.replans) as f64 / probes as f64
    }
}

/// Cache size. The shard count and the re-plan policy are constants
/// ([`MAX_CACHE_SHARDS`], [`SELECTIVITY_BAND`], `PLANS_PER_TEMPLATE`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Bound on template entries across all shards (minimum 1): the
    /// cache never holds more.
    pub capacity: usize,
}

/// Default capacity: comfortably above the JOB suite's 113 queries over
/// 33 templates.
pub const DEFAULT_CACHE_CAPACITY: usize = 128;

/// Most shards a cache splits into: enough to keep 64 serving threads
/// from serializing on one mutex. The default 128-entry cache has this
/// many, of 8 entries each.
pub const MAX_CACHE_SHARDS: usize = 16;

/// Fewest entries a shard of a multi-shard cache is sized for, so that
/// per-shard LRU stays close to the LRU of the whole cache.
const MIN_SHARD_CAPACITY: usize = 8;

/// Re-plan band (4×): a bucket matches when, for every selection slot,
/// the ratio between the current and recorded selectivity estimate is
/// at most this factor. Beyond it the optimal join order is likely
/// different and the probe re-plans.
pub const SELECTIVITY_BAND: f64 = 4.0;

/// Plan buckets per template entry. When full, the oldest bucket is
/// overwritten round-robin.
pub(crate) const PLANS_PER_TEMPLATE: usize = 8;

/// Bound on one template entry's exact fast-path map: a template that
/// stays cached would otherwise gain a key per distinct parameter
/// vector for ever. Far above what a bucket-sized set of regimes needs
/// (the benchmark's templates see 200 constants each); on overflow the
/// map is cleared and the buckets answer by band until it refills.
const MAX_EXACT_KEYS: usize = 1024;

/// 2^64 / φ, odd: the multiplier `shard_index` mixes a lane with.
const SHARD_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity: DEFAULT_CACHE_CAPACITY,
        }
    }
}

/// The shard count for a cache of `capacity` entries: the largest power
/// of two at most `min(MAX_CACHE_SHARDS, capacity / MIN_SHARD_CAPACITY)`,
/// and at least 1.
fn shard_count(capacity: usize) -> usize {
    let fit = (capacity / MIN_SHARD_CAPACITY).clamp(1, MAX_CACHE_SHARDS);
    1 << fit.ilog2()
}

/// One plan bucket: a plan plus the selectivity signature it was
/// planned for.
#[derive(Debug)]
struct Bucket {
    cached: Arc<CachedPlan>,
}

/// One template's worth of cached plans.
#[derive(Debug, Default)]
struct TemplateEntry {
    /// Exact fingerprint → bucket index: the fast path that skips
    /// selectivity scoring for repeated exact queries.
    exact: HashMap<QueryFingerprint, usize>,
    /// Plan buckets, one per distinct selectivity regime seen.
    buckets: Vec<Bucket>,
    /// Round-robin victim cursor once `buckets` is full.
    next_victim: usize,
    /// Last-use stamp from the shard's monotonic clock.
    used: u64,
}

impl TemplateEntry {
    /// Points the fast path for `exact` at bucket `i`, clearing the map
    /// first when it is at [`MAX_EXACT_KEYS`]: every key it held still
    /// hits by band, at the cost of one selectivity scoring.
    fn pin_exact(&mut self, exact: QueryFingerprint, i: usize) {
        if self.exact.len() >= MAX_EXACT_KEYS {
            self.exact.clear();
        }
        self.exact.insert(exact, i);
    }
}

/// A cold-miss flight: the leader plans, waiters block here until the
/// leader's insert (or failure) completes the flight.
#[derive(Debug)]
struct Flight {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Self {
            done: Mutex::new("serve.cache.flight", false),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) {
        let mut done = self.done.lock();
        while !*done {
            done = self.cv.wait(done);
        }
    }

    fn complete(&self) {
        *self.done.lock() = true;
        self.cv.notify_all();
    }
}

/// Per-shard counters; folded into [`CacheMetrics`] on demand.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    exact_hits: u64,
    template_hits: u64,
    replans: u64,
    misses: u64,
    evictions: u64,
    stale_inserts: u64,
    duplicate_plans: u64,
    flight_waits: u64,
}

impl Counters {
    fn add(&mut self, other: &Counters) {
        self.exact_hits += other.exact_hits;
        self.template_hits += other.template_hits;
        self.replans += other.replans;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.stale_inserts += other.stale_inserts;
        self.duplicate_plans += other.duplicate_plans;
        self.flight_waits += other.flight_waits;
    }
}

#[derive(Debug, Default)]
struct Shard {
    /// Template-entry bound of this shard (≥ 1); the shards' bounds sum
    /// to the cache's capacity.
    capacity: usize,
    entries: HashMap<TemplateFingerprint, TemplateEntry>,
    inflight: HashMap<QueryFingerprint, Arc<Flight>>,
    clock: u64,
    counters: Counters,
}

/// Completes (and unregisters) a cold-miss flight when dropped, whether
/// the leader inserted a plan, hit a planner error, or panicked —
/// waiters must never hang on a dead leader.
#[derive(Debug)]
pub struct FlightGuard<'a> {
    cache: &'a PlanCache,
    shard: usize,
    key: QueryFingerprint,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        let flight = {
            let mut shard = self.cache.lock_shard(self.shard);
            shard.inflight.remove(&self.key)
        };
        if let Some(flight) = flight {
            flight.complete();
        }
    }
}

/// A probe's answer: either a plan to serve, or the obligation to plan
/// (as the single-flight leader for this key).
#[derive(Debug)]
pub enum Probe<'a> {
    /// A cached plan was served.
    Hit {
        /// The bucket's plan (O(1) `Arc` clone; the plan tree is cloned
        /// outside the shard lock by the caller).
        plan: Arc<CachedPlan>,
        /// [`CacheOutcome::ExactHit`] or [`CacheOutcome::TemplateHit`].
        outcome: CacheOutcome,
    },
    /// The caller is the planning leader for this key: plan, then
    /// [`PlanCache::insert_if_current`] with `epoch`, then drop the
    /// guard (dropping without inserting — e.g. on planner error —
    /// releases the waiters to retry).
    Plan {
        /// Completes the flight on drop.
        guard: FlightGuard<'a>,
        /// Epoch captured at probe time; pass to `insert_if_current`.
        epoch: u64,
        /// [`CacheOutcome::Miss`] or [`CacheOutcome::Replan`].
        outcome: CacheOutcome,
    },
}

/// What the entry lookup found, separated from counter updates to keep
/// the borrow of the entry map short.
enum Lookup {
    Exact(Arc<CachedPlan>),
    Band(Arc<CachedPlan>),
    OutOfBand,
    NoTemplate,
}

/// The sharded, template-keyed plan cache. See the [module docs](self).
#[derive(Debug)]
pub struct PlanCache {
    shards: Vec<Mutex<Shard>>,
    /// Global invalidation epoch; bumped before the shard sweep so a
    /// stale insert can never land in an already-swept shard.
    ///
    /// All accesses are `Relaxed`: every epoch read that feeds a
    /// decision (`probe` capture, `insert_if_current` compare) happens
    /// under the shard mutex, and `invalidate` locks every shard after
    /// the bump. The mutex's release→acquire edges order the bump
    /// against any insert that locks a shard after its sweep; an insert
    /// that locks a shard *before* its sweep may read the pre-bump
    /// epoch, land, and then be swept — the same outcome `SeqCst` gave.
    /// (Was `SeqCst`; downgraded in the PR 8 ordering audit. Regression
    /// test: `invalidate_racing_inserts_never_resurrects_plans`.)
    epoch: AtomicU64,
    /// Counters carried over from before a capacity rebuild.
    base: Counters,
    config: CacheConfig,
}

impl PlanCache {
    /// An empty cache bounded at `capacity` template entries (minimum
    /// 1).
    pub fn new(capacity: usize) -> Self {
        Self::with_config(CacheConfig { capacity })
    }

    /// An empty cache of `config.capacity` entries (minimum 1), dealt
    /// out over shards whose bounds differ by at most one (see
    /// "Concurrency" in the [module docs](self)).
    pub fn with_config(config: CacheConfig) -> Self {
        let capacity = config.capacity.max(1);
        let n = shard_count(capacity);
        let shards = (0..n)
            .map(|i| {
                let shard = Shard {
                    capacity: capacity / n + usize::from(i < capacity % n),
                    ..Shard::default()
                };
                Mutex::new("serve.cache.shard", shard)
            })
            .collect();
        Self {
            shards,
            epoch: AtomicU64::new(0),
            base: Counters::default(),
            config: CacheConfig { capacity },
        }
    }

    /// The active configuration (capacity at least 1).
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Rebuilds the cache with `config`, **carrying the accumulated
    /// metrics and the invalidation epoch across**: entries are
    /// dropped (counted as one invalidation, so the epoch also fences
    /// any in-flight plans from before the rebuild), but counters never
    /// silently reset.
    pub(crate) fn rebuilt_with(self, config: CacheConfig) -> Self {
        let mut base = self.base;
        for shard in &self.shards {
            base.add(&self.lock_shard_of(shard).counters);
        }
        // `self` is owned here, so no other thread can touch the epoch.
        let epoch = self.epoch.load(Ordering::Relaxed) + 1;
        let mut next = Self::with_config(config);
        next.base = base;
        next.epoch = AtomicU64::new(epoch);
        next
    }

    /// The only place a shard is chosen; see "Shard choice" in the
    /// [module docs](self).
    fn shard_index(&self, template: TemplateFingerprint) -> usize {
        let mixed = (template.0 as u64).wrapping_mul(SHARD_MUL);
        ((mixed >> 32) as usize) & (self.shards.len() - 1)
    }

    fn lock_shard(&self, index: usize) -> MutexGuard<'_, Shard> {
        self.lock_shard_of(&self.shards[index])
    }

    fn lock_shard_of<'a>(&self, shard: &'a Mutex<Shard>) -> MutexGuard<'a, Shard> {
        // Poison panics with the site label via hfqo_sync's unified path.
        shard.lock()
    }

    /// The current invalidation epoch. Callers that plan outside the
    /// shard locks capture the epoch at probe time (it is part of
    /// [`Probe::Plan`]) and pass it to [`Self::insert_if_current`]; an
    /// invalidation in between bumps the epoch, so the superseded plan
    /// is discarded instead of resurrecting into the fresh cache.
    pub fn epoch(&self) -> u64 {
        // Relaxed: see the `epoch` field docs — the shard mutexes carry
        // the synchronization; this value is only compared under them.
        self.epoch.load(Ordering::Relaxed)
    }

    /// Probes for `key`, with `current` the stats-estimated selectivity
    /// signature of the query's parameter vector (slot order, see
    /// `hfqo_stats::selection_selectivities`).
    ///
    /// Returns either a plan to serve or a [`Probe::Plan`] obligation.
    /// When another thread is already planning the same exact key, the
    /// call blocks until that flight completes and then re-probes
    /// (single-flight; see the [module docs](self)).
    pub fn probe(&self, key: &PlanKey, current: &[f64]) -> Probe<'_> {
        let si = self.shard_index(key.template);
        loop {
            let mut shard = self.lock_shard(si);
            shard.clock += 1;
            let clock = shard.clock;
            let lookup = match shard.entries.get_mut(&key.template) {
                None => Lookup::NoTemplate,
                Some(entry) => {
                    entry.used = clock;
                    if let Some(&i) = entry.exact.get(&key.exact) {
                        Lookup::Exact(Arc::clone(&entry.buckets[i].cached))
                    } else if let Some(i) = entry
                        .buckets
                        .iter()
                        .position(|b| within_band(current, &b.cached.selectivities))
                    {
                        // Pin the fast path so these constants skip
                        // selectivity scoring from now on.
                        entry.pin_exact(key.exact, i);
                        Lookup::Band(Arc::clone(&entry.buckets[i].cached))
                    } else {
                        Lookup::OutOfBand
                    }
                }
            };
            let outcome = match lookup {
                Lookup::Exact(plan) => {
                    shard.counters.exact_hits += 1;
                    return Probe::Hit {
                        plan,
                        outcome: CacheOutcome::ExactHit,
                    };
                }
                Lookup::Band(plan) => {
                    shard.counters.template_hits += 1;
                    return Probe::Hit {
                        plan,
                        outcome: CacheOutcome::TemplateHit,
                    };
                }
                Lookup::OutOfBand => CacheOutcome::Replan,
                Lookup::NoTemplate => CacheOutcome::Miss,
            };
            // No servable plan. Single-flight: wait for an in-flight
            // planner run on the same key, or become the leader.
            if let Some(flight) = shard.inflight.get(&key.exact) {
                let flight = Arc::clone(flight);
                shard.counters.flight_waits += 1;
                drop(shard);
                flight.wait();
                // The leader finished (insert, stale reject, or
                // failure): re-probe. A successful insert turns this
                // into an exact hit; otherwise this thread may become
                // the next leader.
                continue;
            }
            shard.inflight.insert(key.exact, Arc::new(Flight::new()));
            match outcome {
                CacheOutcome::Replan => shard.counters.replans += 1,
                _ => shard.counters.misses += 1,
            }
            // Relaxed: captured under the shard lock; see the field docs.
            let epoch = self.epoch.load(Ordering::Relaxed);
            return Probe::Plan {
                guard: FlightGuard {
                    cache: self,
                    shard: si,
                    key: key.exact,
                },
                epoch,
                outcome,
            };
        }
    }

    /// Inserts (or, for a racing duplicate, replaces) the plan for
    /// `key`, but only when no invalidation has happened since `epoch`
    /// was captured (see [`Self::epoch`]). Evicts the shard's
    /// least-recently-used template entry when a new template arrives
    /// at capacity. Returns whether the plan was inserted.
    pub fn insert_if_current(&self, key: &PlanKey, cached: Arc<CachedPlan>, epoch: u64) -> bool {
        let si = self.shard_index(key.template);
        let mut shard = self.lock_shard(si);
        // Relaxed: compared under the shard lock; see the field docs.
        if epoch != self.epoch.load(Ordering::Relaxed) {
            shard.counters.stale_inserts += 1;
            return false;
        }
        shard.clock += 1;
        let clock = shard.clock;
        // Evict at template granularity: a new template at capacity
        // displaces the least-recently-used template (all its buckets).
        if !shard.entries.contains_key(&key.template) && shard.entries.len() >= shard.capacity {
            if let Some(&lru) = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.used)
                .map(|(t, _)| t)
            {
                shard.entries.remove(&lru);
                shard.counters.evictions += 1;
            }
        }
        let entry = shard.entries.entry(key.template).or_default();
        entry.used = clock;
        let duplicate = if let Some(&i) = entry.exact.get(&key.exact) {
            // Two threads planned the same exact query (single-flight
            // bypassed or raced): last write wins, observably.
            entry.buckets[i].cached = cached;
            true
        } else {
            let idx = if entry.buckets.len() < PLANS_PER_TEMPLATE {
                entry.buckets.push(Bucket { cached });
                entry.buckets.len() - 1
            } else {
                // Bucket bound reached: overwrite round-robin and drop
                // fast-path pointers into the overwritten bucket.
                let v = entry.next_victim % PLANS_PER_TEMPLATE;
                entry.next_victim = (v + 1) % PLANS_PER_TEMPLATE;
                entry.exact.retain(|_, i| *i != v);
                entry.buckets[v] = Bucket { cached };
                v
            };
            entry.pin_exact(key.exact, idx);
            false
        };
        if duplicate {
            shard.counters.duplicate_plans += 1;
        }
        true
    }

    /// Inserts unconditionally under the current epoch (test aid and
    /// single-threaded use).
    pub fn insert(&self, key: &PlanKey, cached: Arc<CachedPlan>) {
        let epoch = self.epoch();
        self.insert_if_current(key, cached, epoch);
    }

    /// Drops every entry (stats rebuild, planner swap, explicit
    /// clear). The epoch is bumped *before* the shard sweep, so an
    /// insert racing this call either lands in a shard that is still
    /// about to be swept or is rejected as stale — a superseded plan
    /// can never survive the invalidation.
    pub fn invalidate(&self) {
        // Relaxed: the shard lock/unlock in the sweep below publishes
        // the bump to every insert that locks a shard after its sweep;
        // see the `epoch` field docs.
        self.epoch.fetch_add(1, Ordering::Relaxed);
        for shard in &self.shards {
            self.lock_shard_of(shard).entries.clear();
        }
    }

    /// Current observability counters, aggregated across shards (plus
    /// counters carried over from before any capacity rebuild).
    pub fn metrics(&self) -> CacheMetrics {
        let mut sum = self.base;
        let mut len = 0;
        let mut plans = 0;
        let mut occupied_shards = 0;
        let mut largest_shard = 0;
        for shard in &self.shards {
            let shard = self.lock_shard_of(shard);
            sum.add(&shard.counters);
            len += shard.entries.len();
            occupied_shards += usize::from(!shard.entries.is_empty());
            largest_shard = largest_shard.max(shard.entries.len());
            plans += shard
                .entries
                .values()
                .map(|e| e.buckets.len())
                .sum::<usize>();
        }
        CacheMetrics {
            hits: sum.exact_hits + sum.template_hits,
            exact_hits: sum.exact_hits,
            template_hits: sum.template_hits,
            replans: sum.replans,
            misses: sum.misses,
            evictions: sum.evictions,
            invalidations: self.epoch(),
            stale_inserts: sum.stale_inserts,
            duplicate_plans: sum.duplicate_plans,
            flight_waits: sum.flight_waits,
            len,
            plans,
            capacity: self.config.capacity,
            shards: self.shards.len(),
            occupied_shards,
            largest_shard,
            ..CacheMetrics::default()
        }
    }

    /// Whether `key`'s exact fingerprint is currently cached (no
    /// recency effect; test aid).
    #[cfg(test)]
    fn contains_exact(&self, key: &PlanKey) -> bool {
        let shard = self.lock_shard(self.shard_index(key.template));
        shard
            .entries
            .get(&key.template)
            .is_some_and(|e| e.exact.contains_key(&key.exact))
    }

    /// Whether `template` has a cached entry (test aid).
    #[cfg(test)]
    fn contains_template(&self, template: TemplateFingerprint) -> bool {
        let shard = self.lock_shard(self.shard_index(template));
        shard.entries.contains_key(&template)
    }
}

/// Whether `current` is within [`SELECTIVITY_BAND`] of `recorded` on
/// every slot. Signatures of different lengths never match (they belong
/// to different templates and would mean a fingerprint collision).
fn within_band(current: &[f64], recorded: &[f64]) -> bool {
    if current.len() != recorded.len() {
        return false;
    }
    // Floor far below any real selectivity (estimates clamp at 1e-9):
    // keeps the ratio finite without masking genuine differences.
    const FLOOR: f64 = 1e-12;
    current.iter().zip(recorded).all(|(&c, &r)| {
        let (c, r) = (c.max(FLOOR), r.max(FLOOR));
        let ratio = if c > r { c / r } else { r / c };
        ratio <= SELECTIVITY_BAND
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfqo_query::{AccessPath, PlanNode, RelId};

    fn plan(tag: u32) -> Arc<CachedPlan> {
        plan_with_sel(tag, vec![])
    }

    fn plan_with_sel(tag: u32, selectivities: Vec<f64>) -> Arc<CachedPlan> {
        Arc::new(CachedPlan {
            plan: PhysicalPlan::new(PlanNode::Scan {
                rel: RelId(tag),
                path: AccessPath::SeqScan,
            }),
            cost: f64::from(tag),
            method: PlannerMethod::DynamicProgramming,
            selectivities,
        })
    }

    fn key(template: u128, exact: u128) -> PlanKey {
        PlanKey {
            template: TemplateFingerprint(template),
            exact: QueryFingerprint(exact),
        }
    }

    /// Serves the probe's plan or panics — for tests that expect hits.
    fn expect_hit(
        cache: &PlanCache,
        key: &PlanKey,
        current: &[f64],
    ) -> (Arc<CachedPlan>, CacheOutcome) {
        match cache.probe(key, current) {
            Probe::Hit { plan, outcome } => (plan, outcome),
            Probe::Plan { outcome, .. } => panic!("expected hit, got {outcome:?}"),
        }
    }

    /// Runs the miss path: asserts the probe demands planning and
    /// inserts `plan` under the probe's epoch.
    fn miss_and_insert(
        cache: &PlanCache,
        key: &PlanKey,
        current: &[f64],
        plan: Arc<CachedPlan>,
    ) -> CacheOutcome {
        match cache.probe(key, current) {
            Probe::Hit { outcome, .. } => panic!("expected miss, got {outcome:?}"),
            Probe::Plan {
                guard,
                epoch,
                outcome,
            } => {
                cache.insert_if_current(key, plan, epoch);
                drop(guard);
                outcome
            }
        }
    }

    #[test]
    fn exact_hit_returns_the_inserted_plan() {
        let cache = PlanCache::new(4);
        let k = key(1, 10);
        assert_eq!(
            miss_and_insert(&cache, &k, &[], plan(7)),
            CacheOutcome::Miss
        );
        let (p, outcome) = expect_hit(&cache, &k, &[]);
        assert_eq!(p, plan(7));
        assert_eq!(outcome, CacheOutcome::ExactHit);
        let m = cache.metrics();
        assert_eq!(
            (m.hits, m.exact_hits, m.misses, m.len, m.plans),
            (1, 1, 1, 1, 1)
        );
    }

    #[test]
    fn different_params_share_a_template_within_the_band() {
        let cache = PlanCache::new(4);
        let a = key(1, 10);
        let b = key(1, 11); // same template, different constants
        miss_and_insert(&cache, &a, &[0.010], plan_with_sel(1, vec![0.010]));
        // 0.02 vs 0.01 is within the default 4× band: shared.
        let (p, outcome) = expect_hit(&cache, &b, &[0.020]);
        assert_eq!(p, plan_with_sel(1, vec![0.010]));
        assert_eq!(outcome, CacheOutcome::TemplateHit);
        // …and the fast path was pinned: the same constants now hit
        // without selectivity scoring.
        let (_, outcome) = expect_hit(&cache, &b, &[0.020]);
        assert_eq!(outcome, CacheOutcome::ExactHit);
        let m = cache.metrics();
        assert_eq!((m.template_hits, m.exact_hits, m.misses), (1, 1, 1));
        assert_eq!((m.len, m.plans), (1, 1), "one template, one bucket");
    }

    #[test]
    fn out_of_band_params_replan_into_a_new_bucket() {
        let cache = PlanCache::new(4);
        let common = key(1, 10);
        let rare = key(1, 12);
        miss_and_insert(&cache, &common, &[0.2], plan_with_sel(1, vec![0.2]));
        // 0.001 vs 0.2 is 200× outside the band: must re-plan.
        let outcome = miss_and_insert(&cache, &rare, &[0.001], plan_with_sel(2, vec![0.001]));
        assert_eq!(outcome, CacheOutcome::Replan);
        let m = cache.metrics();
        assert_eq!((m.replans, m.misses), (1, 1));
        assert_eq!((m.len, m.plans), (1, 2), "one template, two buckets");
        // Each regime now hits its own bucket.
        let (p, _) = expect_hit(&cache, &common, &[0.2]);
        assert_eq!(p.cost, 1.0);
        let (p, _) = expect_hit(&cache, &rare, &[0.001]);
        assert_eq!(p.cost, 2.0);
        // A third set of constants lands in whichever bucket matches:
        // 0.003 is within 4x of 0.001 (rare) but 66x off 0.2 (common).
        let (p, outcome) = expect_hit(&cache, &key(1, 13), &[0.003]);
        assert_eq!(outcome, CacheOutcome::TemplateHit);
        assert_eq!(p.cost, 2.0, "matched the rare-constant bucket");
    }

    #[test]
    fn band_matching_is_per_slot() {
        assert!(within_band(&[0.1, 0.01], &[0.2, 0.02]));
        assert!(!within_band(&[0.1, 0.0001], &[0.2, 0.02]));
        assert!(!within_band(&[0.1], &[0.1, 0.1]), "length mismatch");
        assert!(within_band(&[], &[]), "no slots always match");
        assert!(within_band(&[0.0], &[0.0]), "floor keeps zeros finite");
    }

    #[test]
    fn lru_eviction_drops_the_coldest_template() {
        let cache = PlanCache::new(2);
        miss_and_insert(&cache, &key(1, 10), &[], plan(1));
        miss_and_insert(&cache, &key(2, 20), &[], plan(2));
        // Touch template 1 so template 2 becomes LRU.
        expect_hit(&cache, &key(1, 10), &[]);
        miss_and_insert(&cache, &key(3, 30), &[], plan(3));
        assert!(cache.contains_template(TemplateFingerprint(1)));
        assert!(!cache.contains_template(TemplateFingerprint(2)));
        assert!(cache.contains_template(TemplateFingerprint(3)));
        assert_eq!(cache.metrics().evictions, 1);
        assert_eq!(cache.metrics().len, 2);
    }

    #[test]
    fn duplicate_insert_is_last_write_wins_and_counted() {
        // Documents the double-planning contract: if two planner runs
        // for one exact key ever race past the single-flight (or a
        // caller inserts directly), the second insert replaces the
        // first *and* increments `duplicate_plans` — the race is
        // observable, never silent.
        let cache = PlanCache::new(4);
        let k = key(1, 10);
        cache.insert(&k, plan(1));
        cache.insert(&k, plan(9));
        let m = cache.metrics();
        assert_eq!(m.duplicate_plans, 1);
        assert_eq!((m.len, m.plans), (1, 1), "no second bucket");
        let (p, _) = expect_hit(&cache, &k, &[]);
        assert_eq!(p, plan(9), "last insert wins");
    }

    #[test]
    fn invalidate_clears_and_counts() {
        let cache = PlanCache::new(4);
        cache.insert(&key(1, 10), plan(1));
        cache.insert(&key(2, 20), plan(2));
        let m = cache.metrics();
        assert_eq!(
            m.occupied_shards + m.largest_shard,
            3,
            "two entries: one shard of two, or two of one"
        );
        cache.invalidate();
        let m = cache.metrics();
        assert_eq!((m.len, m.plans), (0, 0));
        assert_eq!((m.occupied_shards, m.largest_shard), (0, 0));
        assert_eq!(m.invalidations, 1);
        assert!(matches!(
            cache.probe(&key(1, 10), &[]),
            Probe::Plan {
                outcome: CacheOutcome::Miss,
                ..
            }
        ));
    }

    /// Regression (online hot-swap stale-insert race): a plan produced
    /// under epoch E must not enter the cache after an invalidation
    /// bumped the epoch — it would resurrect a superseded generation's
    /// plan as cache hits until the next invalidation.
    #[test]
    fn insert_if_current_rejects_superseded_epochs() {
        let cache = PlanCache::new(4);
        let epoch = cache.epoch();
        assert!(cache.insert_if_current(&key(1, 10), plan(1), epoch));
        cache.invalidate();
        assert!(!cache.insert_if_current(&key(2, 20), plan(2), epoch));
        assert!(
            !cache.contains_exact(&key(2, 20)),
            "stale insert must be discarded"
        );
        assert_eq!(cache.metrics().stale_inserts, 1);
        // The fresh epoch inserts normally.
        assert!(cache.insert_if_current(&key(2, 20), plan(2), cache.epoch()));
        assert!(cache.contains_exact(&key(2, 20)));
    }

    #[test]
    fn bucket_bound_overwrites_round_robin() {
        let cache = PlanCache::new(4);
        // Signatures 10× apart: each is outside the others' band.
        let regimes = PLANS_PER_TEMPLATE as u32;
        let sel = |i: u32| 0.5 * 10f64.powi(-(i as i32));
        for i in 0..regimes {
            cache.insert(&key(1, u128::from(10 + i)), plan_with_sel(i, vec![sel(i)]));
        }
        assert_eq!(cache.metrics().plans, PLANS_PER_TEMPLATE);
        // One regime more overwrites bucket 0; its fast-path pointer dies.
        cache.insert(
            &key(1, u128::from(10 + regimes)),
            plan_with_sel(regimes, vec![sel(regimes)]),
        );
        assert_eq!(
            cache.metrics().plans,
            PLANS_PER_TEMPLATE,
            "bucket bound holds"
        );
        assert!(!cache.contains_exact(&key(1, 10)));
        for i in 1..=regimes {
            assert!(cache.contains_exact(&key(1, u128::from(10 + i))));
        }
    }

    #[test]
    fn rebuild_carries_metrics_and_epoch() {
        let cache = PlanCache::new(4);
        let k = key(1, 10);
        miss_and_insert(&cache, &k, &[], plan(1));
        expect_hit(&cache, &k, &[]);
        cache.invalidate();
        let before = cache.metrics();
        assert_eq!(
            (before.hits, before.misses, before.invalidations),
            (1, 1, 1)
        );
        let stale_epoch = 0; // captured before the invalidation above
        let cache = cache.rebuilt_with(CacheConfig { capacity: 64 });
        let after = cache.metrics();
        assert_eq!(after.hits, before.hits, "hits carried");
        assert_eq!(after.misses, before.misses, "misses carried");
        assert_eq!(
            after.invalidations,
            before.invalidations + 1,
            "the rebuild itself counts as an invalidation"
        );
        assert_eq!(after.capacity, 64);
        assert_eq!((after.len, after.plans), (0, 0), "entries drop");
        // The epoch fence survives the rebuild: a plan from before it
        // is still rejected.
        assert!(!cache.insert_if_current(&k, plan(1), stale_epoch));
        assert_eq!(cache.metrics().stale_inserts, 1);
    }

    /// The shard count is the largest power of two at most
    /// `min(16, capacity / 8)`, at least 1; the shards' bounds are
    /// within one of each other and sum to the (clamped) capacity.
    #[test]
    fn shard_count_follows_capacity_and_bounds_sum_to_it() {
        for (capacity, shards) in [
            (0, 1),
            (1, 1),
            (7, 1),
            (8, 1),
            (127, 8),
            (128, 16),
            (1000, 16),
        ] {
            let cache = PlanCache::new(capacity);
            let bounds: Vec<usize> = (0..cache.shards.len())
                .map(|i| cache.lock_shard(i).capacity)
                .collect();
            assert_eq!(bounds.len(), shards, "capacity {capacity}");
            assert_eq!(cache.metrics().shards, shards, "capacity {capacity}");
            assert_eq!(cache.config().capacity, capacity.max(1));
            assert_eq!(bounds.iter().sum::<usize>(), capacity.max(1));
            let (lo, hi) = (bounds.iter().min(), bounds.iter().max());
            assert!(hi.zip(lo).is_some_and(|(h, l)| h - l <= 1 && *l >= 1));
            // Still stores and serves.
            cache.insert(&key(1, 10), plan(1));
            expect_hit(&cache, &key(1, 10), &[]);
        }
    }

    /// Capacity is a bound: however the templates fall over the shards,
    /// the cache never holds more than its capacity, and every shard
    /// takes inserts (none is sized 0).
    #[test]
    fn capacity_is_a_bound() {
        for capacity in [1, 2, 3, 17, 130, 128] {
            let cache = PlanCache::new(capacity);
            for t in 0..1000u128 {
                cache.insert(&key(t, t), plan(1));
            }
            let m = cache.metrics();
            assert!(
                m.len <= capacity,
                "capacity {capacity} holds {} entries",
                m.len
            );
            assert!(
                cache.contains_template(TemplateFingerprint(999)),
                "capacity {capacity}: the last insert is cached"
            );
            if capacity == DEFAULT_CACHE_CAPACITY {
                assert_eq!((m.shards, m.largest_shard), (MAX_CACHE_SHARDS, 8));
            }
        }
    }

    /// The lane pairs `Fnv2` emits agree with `(a, a ^ C)`, `C` odd, at
    /// bit 0 (and nearly so just above it): a shard choice that folds
    /// the lanes sees a constant there and reaches half the shards at
    /// best. Both parities and all 16 shards must be reachable.
    #[test]
    fn lanes_that_differ_by_an_odd_constant_reach_every_shard() {
        let cache = PlanCache::with_config(CacheConfig::default());
        for c in [1u64, 0x9E37_79B9_7F4A_7C15, u64::MAX] {
            let mut reached = [false; MAX_CACHE_SHARDS];
            for i in 1..=256u64 {
                // FNV-1a's own step, so `a` looks like a lane value.
                let a = i.wrapping_mul(0x0000_0100_0000_01B3);
                let template = TemplateFingerprint((u128::from(a) << 64) | u128::from(a ^ c));
                reached[cache.shard_index(template)] = true;
            }
            assert!(reached.iter().all(|&r| r), "C = {c:#x}: {reached:?}");
        }
    }

    /// A template that stays cached is probed with ever-new constants:
    /// every probe after the first still hits, and the fast-path map
    /// stays under its bound instead of gaining a key per constant.
    #[test]
    fn exact_fast_path_is_bounded_under_ever_new_constants() {
        let cache = PlanCache::new(1);
        let planned = plan_with_sel(1, vec![0.01]);
        miss_and_insert(&cache, &key(1, 0), &[0.01], Arc::clone(&planned));
        let exact_keys = || {
            cache.lock_shard(0).entries[&TemplateFingerprint(1)]
                .exact
                .len()
        };
        for c in 1..10_000u128 {
            let (p, outcome) = expect_hit(&cache, &key(1, c), &[0.01]);
            assert_eq!(outcome, CacheOutcome::TemplateHit, "constant {c}");
            assert!(Arc::ptr_eq(&p, &planned));
            assert!(exact_keys() <= MAX_EXACT_KEYS, "constant {c}");
        }
        // Keys dropped by an overflow are served by band, then pinned
        // again; the planned-for constants are among them.
        assert!(!cache.contains_exact(&key(1, 0)));
        let (_, outcome) = expect_hit(&cache, &key(1, 0), &[0.01]);
        assert_eq!(outcome, CacheOutcome::TemplateHit);
        let (_, outcome) = expect_hit(&cache, &key(1, 0), &[0.01]);
        assert_eq!(outcome, CacheOutcome::ExactHit);
        let m = cache.metrics();
        assert_eq!((m.misses, m.replans, m.len, m.plans), (1, 0, 1, 1));
        assert_eq!(m.hits, 10_001);
    }

    #[test]
    fn sharing_rate_counts_hits_and_replans() {
        let m = CacheMetrics {
            hits: 80,
            replans: 15,
            misses: 5,
            ..CacheMetrics::default()
        };
        assert!((m.sharing_rate() - 0.95).abs() < 1e-12);
        assert_eq!(CacheMetrics::default().sharing_rate(), 1.0);
    }

    #[test]
    fn concurrent_cold_misses_single_flight() {
        use std::sync::atomic::AtomicUsize;
        let cache = PlanCache::new(16);
        let k = key(7, 70);
        let planned = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    barrier.wait();
                    match cache.probe(&k, &[]) {
                        Probe::Hit { plan: p, .. } => assert_eq!(p, plan(1)),
                        Probe::Plan { guard, epoch, .. } => {
                            // Relaxed: the scope join below orders this
                            // against the final load.
                            planned.fetch_add(1, Ordering::Relaxed);
                            cache.insert_if_current(&k, plan(1), epoch);
                            drop(guard);
                        }
                    }
                });
            }
        });
        assert_eq!(
            planned.load(Ordering::Relaxed),
            1,
            "exactly one leader plans a racing cold miss"
        );
        let m = cache.metrics();
        assert_eq!(m.duplicate_plans, 0);
        assert_eq!(m.misses, 1);
        assert_eq!(m.hits + m.flight_waits, 7 + m.flight_waits);
        assert_eq!(m.hits + m.misses + m.replans, 8, "every probe counted once");
    }

    /// Regression test for the PR 8 ordering audit, which downgraded
    /// the invalidation epoch from `SeqCst` to `Relaxed`: once
    /// `invalidate` returns, inserts carrying a pre-invalidation epoch
    /// must be rejected as stale, and no plan inserted before the sweep
    /// may survive — even while inserters are still hammering the
    /// cache with the stale epoch.
    #[test]
    fn invalidate_racing_inserts_never_resurrects_plans() {
        let cache = PlanCache::new(64);
        let barrier = std::sync::Barrier::new(5);
        std::thread::scope(|scope| {
            for t in 0..4u128 {
                let (cache, barrier) = (&cache, &barrier);
                scope.spawn(move || {
                    // Epoch captured strictly before the invalidation.
                    let epoch = cache.epoch();
                    barrier.wait();
                    // Bounded (not flag-driven): the loop must finish on
                    // its own even on a single-CPU box where spinners
                    // starve the main thread.
                    for i in 0..500u128 {
                        cache.insert_if_current(&key(t * 1000 + i, i), plan(1), epoch);
                    }
                });
            }
            barrier.wait();
            cache.invalidate();
            // The sweep has visited every shard: entries inserted before
            // it are gone, and the still-running inserters carry a
            // pre-invalidation epoch, so nothing can land from here on.
            assert_eq!(cache.metrics().len, 0, "swept entries must stay gone");
        });
        assert_eq!(cache.metrics().len, 0);
        assert!(
            !cache.insert_if_current(&key(9999, 9999), plan(1), cache.epoch() - 1),
            "a pre-invalidation epoch must be rejected as stale"
        );
    }

    #[test]
    fn abandoned_flight_releases_waiters() {
        let cache = PlanCache::new(4);
        let k = key(3, 30);
        // Leader probes, then drops the guard without inserting
        // (planner failure): a subsequent probe must become the new
        // leader instead of hanging.
        match cache.probe(&k, &[]) {
            Probe::Plan { guard, .. } => drop(guard),
            Probe::Hit { .. } => panic!("cold cache cannot hit"),
        }
        assert!(matches!(cache.probe(&k, &[]), Probe::Plan { .. }));
    }
}
