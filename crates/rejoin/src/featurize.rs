//! ReJOIN state vectorisation.
//!
//! Following the case study (§3, with details from the ReJOIN paper it
//! summarises), a state is the current forest of join subtrees plus static
//! information about the query's join and selection predicates:
//!
//! * **Tree structure** — one row per forest slot; the entry for base
//!   relation `r` is `1/2^depth(r)` within that subtree (0 when absent).
//!   The root-level weighting lets the network see *how* relations have
//!   been combined, not just which.
//! * **Join adjacency** — a symmetric 0/1 matrix marking which relation
//!   pairs are connected by a join predicate.
//! * **Selections** — per relation, a flag and the estimated combined
//!   selectivity of its selection predicates.
//!
//! Everything is laid out at a fixed `max_rels` width so one network
//! serves queries of any size, with invalid actions masked.
//!
//! [`Featurizer::featurize`] and [`Featurizer::action_mask`] derive a
//! state from a forest from scratch; they are the specification. What
//! plans, replays and trains is [`RolloutState`], which is built once
//! per query and updated on each merge, and which tests hold equal to
//! the specification, on a [`Forest`] merged with the same pairs, bit for
//! bit after every merge.

use hfqo_query::{Forest, QueryGraph, RelId, RelSet};
use hfqo_stats::{CardinalitySource as _, EstimatedCardinality, QueryCardinality};

/// Fixed-width featurizer for forests over at most `max_rels` relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Featurizer {
    max_rels: usize,
}

impl Featurizer {
    /// A featurizer for queries of up to `max_rels` relations.
    pub fn new(max_rels: usize) -> Self {
        assert!(max_rels >= 2, "need at least two relations to join");
        Self { max_rels }
    }

    /// The configured maximum relation count.
    pub fn max_rels(&self) -> usize {
        self.max_rels
    }

    /// Width of the base state vector: `max² (tree) + max² (adjacency) +
    /// 2·max (selections) + max (subtree sizes) + max (relation sizes)`.
    ///
    /// The two cardinality sections carry the information ReJOIN's
    /// database-wide one-hot rows carried implicitly (its tree vectors
    /// spanned *all* database relations, so relation identity — and thus
    /// size — was learnable). Our slots are query-relative, so sizes are
    /// provided explicitly: log-scaled estimated rows of each current
    /// subtree, and log-scaled raw rows of each base relation.
    pub fn state_dim(&self) -> usize {
        2 * self.max_rels * self.max_rels + 4 * self.max_rels
    }

    /// Size of the ordered-pair action space (`max²`; the diagonal is
    /// never valid).
    pub fn action_dim(&self) -> usize {
        self.max_rels * self.max_rels
    }

    /// Encodes `(x, y)` as an action id.
    #[inline]
    pub fn encode_pair(&self, x: usize, y: usize) -> usize {
        x * self.max_rels + y
    }

    /// Decodes an action id back to `(x, y)`.
    #[inline]
    pub fn decode_pair(&self, action: usize) -> (usize, usize) {
        (action / self.max_rels, action % self.max_rels)
    }

    /// Writes the state features for `forest` over `graph` into `out`
    /// (cleared first; always `state_dim` long).
    pub fn featurize(
        &self,
        graph: &QueryGraph,
        forest: &Forest,
        est: &EstimatedCardinality<'_>,
        out: &mut Vec<f32>,
    ) {
        let m = self.max_rels;
        out.clear();
        out.resize(self.state_dim(), 0.0);
        // Tree-structure rows.
        for (slot, tree) in forest.trees().iter().enumerate().take(m) {
            for rel in tree.rel_set().iter() {
                if rel.index() >= m {
                    continue;
                }
                let depth = tree.depth_of(rel).unwrap_or(0);
                out[slot * m + rel.index()] = 0.5f32.powi(depth as i32);
            }
        }
        self.write_static(graph, est, out);
        // Estimated size of each current subtree.
        let size_base = self.size_base();
        for (slot, tree) in forest.trees().iter().enumerate().take(m) {
            out[size_base + slot] = size_feature(est.set_rows(graph, tree.rel_set()));
        }
    }

    /// Offset of the subtree-size section.
    fn size_base(&self) -> usize {
        2 * self.max_rels * self.max_rels + 2 * self.max_rels
    }

    /// Writes the sections a merge never changes — join adjacency,
    /// selections, raw relation sizes — into an already zeroed `out`.
    fn write_static(&self, graph: &QueryGraph, est: &EstimatedCardinality<'_>, out: &mut [f32]) {
        let m = self.max_rels;
        // Join adjacency (symmetric).
        let adj_base = m * m;
        for edge in graph.joins() {
            let (i, j) = (edge.left.rel.index(), edge.right.rel.index());
            if i < m && j < m {
                out[adj_base + i * m + j] = 1.0;
                out[adj_base + j * m + i] = 1.0;
            }
        }
        // Selection features.
        let sel_base = 2 * m * m;
        for rel_idx in 0..graph.relation_count().min(m) {
            let rel = RelId(rel_idx as u32);
            let has_sel = graph.selections_on(rel).next().is_some();
            if has_sel {
                out[sel_base + 2 * rel_idx] = 1.0;
                let sel = est.selection_selectivity_of(graph, rel);
                out[sel_base + 2 * rel_idx + 1] = sel as f32;
            } else {
                out[sel_base + 2 * rel_idx + 1] = 1.0;
            }
        }
        // Raw size of each base relation, log-scaled into [0, 1].
        let raw_base = 2 * m * m + 3 * m;
        for rel_idx in 0..graph.relation_count().min(m) {
            let table = graph.relation(RelId(rel_idx as u32)).table;
            let raw = est.stats().table(table).row_count.max(1.0);
            out[raw_base + rel_idx] = (((raw + 1.0).ln() / 20.0) as f32).clamp(0.0, 1.0);
        }
    }

    /// Writes the valid-action mask for `forest` into `out` (cleared
    /// first; always `action_dim` long). A pair `(x, y)` is valid when
    /// both index live subtrees and `x ≠ y`; with `require_connected`,
    /// the two subtrees must additionally share a join predicate (no
    /// cross joins — ReJOIN itself allowed them, so the default in the
    /// environments is `false`).
    pub fn action_mask(
        &self,
        graph: &QueryGraph,
        forest: &Forest,
        require_connected: bool,
        out: &mut Vec<bool>,
    ) {
        let m = self.max_rels;
        out.clear();
        out.resize(self.action_dim(), false);
        let len = forest.len().min(m);
        let mut any = false;
        for x in 0..len {
            for y in 0..len {
                if x == y {
                    continue;
                }
                let valid = if require_connected {
                    graph.sets_connected(forest.trees()[x].rel_set(), forest.trees()[y].rel_set())
                } else {
                    true
                };
                if valid {
                    out[self.encode_pair(x, y)] = true;
                    any = true;
                }
            }
        }
        // A disconnected remainder with `require_connected` would deadlock
        // the episode; fall back to allowing all pairs (the paper's
        // cross-join-permitting space).
        if !any && len >= 2 {
            for x in 0..len {
                for y in 0..len {
                    if x != y {
                        out[self.encode_pair(x, y)] = true;
                    }
                }
            }
        }
    }
}

/// The subtree-size feature: estimated rows, log-scaled into [0, 1].
fn size_feature(rows: f64) -> f32 {
    ((rows.max(1.0).ln() / 20.0) as f32).clamp(0.0, 1.0)
}

/// The state of one rollout: a forest's feature vector and action mask,
/// kept current instead of rebuilt. It holds no trees; a planner builds
/// its plan from the same merges in an [`hfqo_opt::PlanForest`].
///
/// Built once per (query, estimator): the static feature sections are
/// written once, the query's [`QueryCardinality`] looks up every
/// relation's `base_rows` and every join edge's selectivity once, and
/// each forest slot keeps the set of relations adjacent to it, so "are
/// slots `x` and `y` connected" is a bit test. The planner that steps the
/// state prices its [`hfqo_opt::PlanForest`] from the same memo
/// ([`Self::cards`]). [`Self::merge`] follows [`Forest::merge`]'s slot
/// movement (both inputs removed, the join appended) and computes only
/// the new slot. After any sequence of merges [`Self::features`] is, bit
/// for bit, what [`Featurizer::featurize`] writes for the [`Forest`] the
/// same merges build, and [`Self::mask`] what
/// [`Featurizer::action_mask`] writes.
#[derive(Debug, Clone)]
pub struct RolloutState {
    featurizer: Featurizer,
    features: Vec<f32>,
    cards: QueryCardinality,
    slots: Vec<Slot>,
    /// The tree-structure row of a slot being built.
    row: Vec<f32>,
}

/// What a [`RolloutState`] keeps per forest slot beside its features.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// The relations the subtree covers.
    covered: RelSet,
    /// The relations a join edge connects them to.
    adjacent: RelSet,
}

impl RolloutState {
    /// The initial state of `graph`: every relation its own subtree.
    ///
    /// Panics when `graph` has more relations than `featurizer` has
    /// slots; callers reject such queries first.
    pub fn new(featurizer: Featurizer, graph: &QueryGraph, est: &EstimatedCardinality<'_>) -> Self {
        let (m, n) = (featurizer.max_rels, graph.relation_count());
        assert!(n <= m, "{n} relations exceed featurizer capacity {m}");
        let mut features = vec![0.0; featurizer.state_dim()];
        featurizer.write_static(graph, est, &mut features);
        let cards = QueryCardinality::new(graph, est);
        let size_base = featurizer.size_base();
        let neighbors = graph.neighbor_masks();
        let mut slots = Vec::with_capacity(n);
        for rel in graph.all_rels().iter() {
            let (slot, covered) = (rel.index(), RelSet::single(rel));
            features[slot * m + slot] = 1.0;
            features[size_base + slot] = size_feature(cards.rows(covered));
            let adjacent = neighbors[slot];
            slots.push(Slot { covered, adjacent });
        }
        Self {
            featurizer,
            features,
            cards,
            slots,
            row: vec![0.0; m],
        }
    }

    /// The query's cardinality memo: what the state's size features are
    /// computed from, and what its planner prices with.
    pub fn cards(&self) -> &QueryCardinality {
        &self.cards
    }

    /// Whether at most one subtree remains.
    pub fn is_terminal(&self) -> bool {
        self.slots.len() <= 1
    }

    /// The state vector of the current forest (`state_dim` long).
    pub fn features(&self) -> &[f32] {
        &self.features
    }

    /// Writes the valid-action mask of the current forest into `out`
    /// (cleared first; always `action_dim` long), under
    /// [`Featurizer::action_mask`]'s rules.
    pub fn mask(&self, require_connected: bool, out: &mut Vec<bool>) {
        out.clear();
        out.resize(self.featurizer.action_dim(), false);
        let len = self.slots.len();
        let mut any = false;
        if require_connected {
            for (x, left) in self.slots.iter().enumerate() {
                for (y, right) in self.slots.iter().enumerate() {
                    if x != y && !left.adjacent.is_disjoint(right.covered) {
                        out[self.featurizer.encode_pair(x, y)] = true;
                        any = true;
                    }
                }
            }
        }
        // Cross joins allowed, or nothing connected: every pair.
        if !any {
            for x in 0..len {
                for y in 0..len {
                    out[self.featurizer.encode_pair(x, y)] = x != y;
                }
            }
        }
    }

    /// Merges the subtrees at slots `x` and `y` as [`Forest::merge`]
    /// does; returns `false`, leaving the state untouched, on an invalid
    /// pair.
    pub fn merge(&mut self, x: usize, y: usize) -> bool {
        let len = self.slots.len();
        if x == y || x >= len || y >= len {
            return false;
        }
        let m = self.featurizer.max_rels;
        let size_base = self.featurizer.size_base();
        // Every relation of either input sits one level deeper under
        // the join: its weight halves, exactly (a power of two).
        for rel in 0..m {
            self.row[rel] = (self.features[x * m + rel] + self.features[y * m + rel]) * 0.5;
        }
        let joined = Slot {
            covered: self.slots[x].covered.union(self.slots[y].covered),
            adjacent: self.slots[x].adjacent.union(self.slots[y].adjacent),
        };
        let mut dst = 0;
        for src in 0..len {
            if src == x || src == y {
                continue;
            }
            if dst != src {
                self.features.copy_within(src * m..(src + 1) * m, dst * m);
                self.features[size_base + dst] = self.features[size_base + src];
                self.slots[dst] = self.slots[src];
            }
            dst += 1;
        }
        self.slots.truncate(dst);
        self.slots.push(joined);
        self.features[dst * m..(dst + 1) * m].copy_from_slice(&self.row);
        self.features[(dst + 1) * m..(dst + 2) * m].fill(0.0);
        self.features[size_base + dst] = size_feature(self.cards.rows(joined.covered));
        self.features[size_base + dst + 1] = 0.0;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfqo_opt::cost::{CostModel, CostParams};
    use hfqo_opt::physical::build_scan;
    use hfqo_opt::PlanForest;
    use hfqo_query::sql::CompareOp;
    use hfqo_query::{AccessPath, BoundColumn, JoinEdge, Lit, PhysicalPlan, Relation, Selection};
    use hfqo_stats::{ColumnStats, StatsCatalog, TableStats};
    use hfqo_storage::catalog::{ColumnId, ColumnStatsMeta, TableId};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn graph4() -> (QueryGraph, StatsCatalog) {
        // Chain 0-1-2-3 with a selection on r1.
        let relations = (0..4)
            .map(|i| Relation {
                table: TableId(i),
                alias: format!("t{i}"),
            })
            .collect();
        let joins = (1..4)
            .map(|i| JoinEdge {
                left: BoundColumn::new(RelId(i - 1), ColumnId(0)),
                op: CompareOp::Eq,
                right: BoundColumn::new(RelId(i), ColumnId(0)),
            })
            .collect();
        let selections = vec![Selection {
            column: BoundColumn::new(RelId(1), ColumnId(0)),
            op: CompareOp::Lt,
            value: Lit::Int(50),
        }];
        let graph = QueryGraph::new(relations, joins, selections, vec![], vec![]);
        let stats = StatsCatalog::new(
            (0..4)
                .map(|_| TableStats {
                    row_count: 100.0,
                    row_width: 8.0,
                    columns: vec![ColumnStats {
                        meta: ColumnStatsMeta {
                            ndv: 100.0,
                            min: 0.0,
                            max: 99.0,
                            null_frac: 0.0,
                        },
                        histogram: hfqo_stats::Histogram::build(
                            (0..100).map(|i| i as f64).collect(),
                            10,
                        ),
                        mcvs: vec![],
                    }],
                })
                .collect(),
        );
        (graph, stats)
    }

    #[test]
    fn dimensions() {
        let f = Featurizer::new(10);
        assert_eq!(f.state_dim(), 2 * 100 + 40);
        assert_eq!(f.action_dim(), 100);
        assert_eq!(f.max_rels(), 10);
        let (x, y) = f.decode_pair(f.encode_pair(3, 7));
        assert_eq!((x, y), (3, 7));
    }

    #[test]
    fn initial_state_features() {
        let (graph, stats) = graph4();
        let est = EstimatedCardinality::new(&stats);
        let f = Featurizer::new(6);
        let forest = Forest::initial(4);
        let mut out = Vec::new();
        f.featurize(&graph, &forest, &est, &mut out);
        assert_eq!(out.len(), f.state_dim());
        // Each initial subtree is a leaf at depth 0 → weight 1.0 on its
        // own relation.
        for slot in 0..4 {
            assert_eq!(out[slot * 6 + slot], 1.0);
        }
        // Unused slots are empty.
        assert!(out[4 * 6..6 * 6].iter().all(|&v| v == 0.0));
        // Adjacency marks the chain edges symmetrically.
        let adj = 36;
        assert_eq!(out[adj + 1], 1.0); // 0-1
        assert_eq!(out[adj + 6], 1.0); // 1-0
        assert_eq!(out[adj + 3], 0.0); // 0-3 absent
                                       // Selection features: r1 flagged with selectivity < 1.
        let sel = 72;
        assert_eq!(out[sel + 2], 1.0);
        assert!(out[sel + 3] < 0.9);
        // r0 has no selection → flag 0, selectivity 1.
        assert_eq!(out[sel], 0.0);
        assert_eq!(out[sel + 1], 1.0);
        // Subtree-size features: live slots get positive log-sizes,
        // dead slots stay zero.
        let size_base = 72 + 12;
        for slot in 0..4 {
            assert!(out[size_base + slot] > 0.0, "slot {slot}");
        }
        assert_eq!(out[size_base + 4], 0.0);
        // Raw relation sizes present for every query relation.
        let raw_base = 72 + 18;
        for r in 0..4 {
            assert!(out[raw_base + r] > 0.0, "rel {r}");
        }
    }

    #[test]
    fn merged_subtree_weights_halve() {
        let (graph, stats) = graph4();
        let est = EstimatedCardinality::new(&stats);
        let f = Featurizer::new(6);
        let mut forest = Forest::initial(4);
        forest.merge(0, 1); // forest: [t2, t3, (t0 ⋈ t1)]
        let mut out = Vec::new();
        f.featurize(&graph, &forest, &est, &mut out);
        // Slot 2 holds the merged tree: both rels at depth 1 → 0.5.
        assert_eq!(out[2 * 6], 0.5);
        assert_eq!(out[2 * 6 + 1], 0.5);
        // Slot 0 now holds t2.
        assert_eq!(out[2], 1.0);
    }

    #[test]
    fn mask_excludes_diagonal_and_dead_slots() {
        let (graph, _) = graph4();
        let f = Featurizer::new(6);
        let forest = Forest::initial(4);
        let mut mask = Vec::new();
        f.action_mask(&graph, &forest, false, &mut mask);
        assert_eq!(mask.len(), 36);
        assert!(!mask[f.encode_pair(2, 2)]);
        assert!(mask[f.encode_pair(0, 3)]);
        assert!(mask[f.encode_pair(3, 0)]);
        assert!(!mask[f.encode_pair(0, 4)]); // slot 4 empty
        assert!(!mask[f.encode_pair(5, 1)]);
        assert_eq!(mask.iter().filter(|&&m| m).count(), 4 * 3);
    }

    #[test]
    fn connected_mask_follows_join_graph() {
        let (graph, _) = graph4();
        let f = Featurizer::new(6);
        let forest = Forest::initial(4);
        let mut mask = Vec::new();
        f.action_mask(&graph, &forest, true, &mut mask);
        // Chain 0-1-2-3: (0,1) ok, (0,2) not.
        assert!(mask[f.encode_pair(0, 1)]);
        assert!(!mask[f.encode_pair(0, 2)]);
        assert_eq!(mask.iter().filter(|&&m| m).count(), 6);
    }

    /// `RolloutState` against the specification on `shadow`, the forest
    /// the same merges build: feature bits, and the mask with and without
    /// connected-only masking.
    fn assert_state_matches_spec(
        state: &RolloutState,
        shadow: &Forest,
        f: Featurizer,
        graph: &QueryGraph,
        est: &EstimatedCardinality<'_>,
    ) {
        let (mut features, mut mask, mut spec_mask) = (Vec::new(), Vec::new(), Vec::new());
        f.featurize(graph, shadow, est, &mut features);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(state.features()), bits(&features), "{shadow:?}");
        for require_connected in [false, true] {
            state.mask(require_connected, &mut mask);
            f.action_mask(graph, shadow, require_connected, &mut spec_mask);
            assert_eq!(mask, spec_mask, "connected {require_connected}: {shadow:?}");
        }
    }

    /// A query over `n` single-column tables of uneven sizes: a chain,
    /// a star, a cycle, or two chains with no edge between them, with a
    /// `<` selection on every third relation when `selections`.
    fn shaped_graph(shape: u8, n: usize, selections: bool) -> (QueryGraph, StatsCatalog) {
        let relations = (0..n)
            .map(|i| Relation {
                table: TableId(i as u32),
                alias: format!("t{i}"),
            })
            .collect();
        let edge = |l: usize, r: usize| JoinEdge {
            left: BoundColumn::new(RelId(l as u32), ColumnId(0)),
            op: if (l + r) % 4 == 3 {
                CompareOp::Lt
            } else {
                CompareOp::Eq
            },
            right: BoundColumn::new(RelId(r as u32), ColumnId(0)),
        };
        let joins = match shape % 4 {
            0 => (1..n).map(|i| edge(i - 1, i)).collect(),
            1 => (1..n).map(|i| edge(0, i)).collect(),
            2 => (1..n)
                .map(|i| edge(i - 1, i))
                .chain((n > 2).then(|| edge(n - 1, 0)))
                .collect(),
            _ => (1..n)
                .filter(|&i| i != n / 2)
                .map(|i| edge(i - 1, i))
                .collect::<Vec<_>>(),
        };
        let selections = (0..n)
            .filter(|i| selections && i % 3 == 1)
            .map(|i| Selection {
                column: BoundColumn::new(RelId(i as u32), ColumnId(0)),
                op: CompareOp::Lt,
                value: Lit::Int(10 + 7 * i as i64),
            })
            .collect();
        let graph = QueryGraph::new(relations, joins, selections, vec![], vec![]);
        let stats = StatsCatalog::new(
            (0..n)
                .map(|i| {
                    let rows = 40 + 37 * i;
                    TableStats {
                        row_count: rows as f64,
                        row_width: 8.0,
                        columns: vec![ColumnStats {
                            meta: ColumnStatsMeta {
                                ndv: (rows / (1 + i % 3)) as f64,
                                min: 0.0,
                                max: rows as f64,
                                null_frac: 0.0,
                            },
                            histogram: hfqo_stats::Histogram::build(
                                (0..rows).map(|v| v as f64).collect(),
                                10,
                            ),
                            mcvs: vec![],
                        }],
                    }
                })
                .collect(),
        );
        (graph, stats)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The updated state equals the rebuilt one after every merge of
        /// a random legal merge sequence, the all-pairs fallback of a
        /// disconnected remainder included; and a `PlanForest` stepped
        /// with the same pairs ends in the same tree, costed as
        /// `plan_cost` costs it.
        #[test]
        fn updated_state_equals_rebuilt_state(
            shape in 0u8..4,
            n in 2usize..=12,
            selections in 0u8..2,
            require_connected in 0u8..2,
            seed in 0u64..1_000_000,
        ) {
            let (graph, stats) = shaped_graph(shape, n, selections == 1);
            let est = EstimatedCardinality::new(&stats);
            let f = Featurizer::new(12);
            let mut state = RolloutState::new(f, &graph, &est);
            let mut shadow = Forest::initial(n);
            let model = CostModel::new(&CostParams::POSTGRES_LIKE, &stats);
            let scans = (graph.all_rels().iter())
                .map(|rel| build_scan(&graph, rel, AccessPath::SeqScan, &model, &est));
            let mut forest = PlanForest::from_leaves(&graph, scans);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut mask = Vec::new();
            assert_state_matches_spec(&state, &shadow, f, &graph, &est);
            while !state.is_terminal() {
                state.mask(require_connected == 1, &mut mask);
                let legal: Vec<usize> = (0..mask.len()).filter(|&a| mask[a]).collect();
                let (x, y) = f.decode_pair(legal[rng.gen_range(0..legal.len())]);
                prop_assert!(state.merge(x, y));
                prop_assert!(shadow.merge(x, y));
                let price = forest.price(x, y, false, &model, &est);
                forest.merge(x, y, price);
                assert_state_matches_spec(&state, &shadow, f, &graph, &est);
            }
            let (root, cost) = forest.take_root();
            prop_assert_eq!(Some(root.join_tree()), shadow.into_tree());
            let recursive = model.plan_cost(&graph, &PhysicalPlan::new(root), &est);
            prop_assert_eq!(cost.total.to_bits(), recursive.total.to_bits());
        }
    }

    /// A refused merge leaves the state as it was.
    #[test]
    fn refused_merge_changes_nothing() {
        let (graph, stats) = graph4();
        let est = EstimatedCardinality::new(&stats);
        let f = Featurizer::new(6);
        let mut state = RolloutState::new(f, &graph, &est);
        let mut shadow = Forest::initial(4);
        assert!(state.merge(3, 1) && shadow.merge(3, 1));
        let before = state.clone();
        for (x, y) in [(1, 1), (0, 3), (7, 0)] {
            assert!(!state.merge(x, y), "({x}, {y})");
        }
        assert_eq!(state.features(), before.features());
        assert_state_matches_spec(&state, &shadow, f, &graph, &est);
    }

    #[test]
    fn disconnected_fallback_unmasks() {
        // No join edges at all: require_connected would mask everything,
        // so the fallback must re-open all pairs.
        let (graph, _) = graph4();
        let no_joins = QueryGraph::new(graph.relations().to_vec(), vec![], vec![], vec![], vec![]);
        let f = Featurizer::new(6);
        let forest = Forest::initial(4);
        let mut mask = Vec::new();
        f.action_mask(&no_joins, &forest, true, &mut mask);
        assert_eq!(mask.iter().filter(|&&m| m).count(), 12);
    }
}
