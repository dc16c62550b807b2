//! Prepared statements and the session's statement cache, one entry per
//! statement template.
//!
//! A [`Prepared`] is everything the front half of a serve produces —
//! lex → parse → bind → both fingerprints — and everything the back
//! half (selectivity signature → probe → plan → execute → record)
//! consumes. The session's `StatementCache` remembers one `Prepared` per
//! *template*: a text whose template was served before is not parsed,
//! bound or fingerprinted for its template again. Its literals are put
//! into the remembered graph's selections and only its exact
//! fingerprint is computed; a text that repeats the remembered
//! constants is served the remembered statement itself.
//!
//! **The key** is the text's *shape*: its token stream with every
//! literal reduced to its kind (`Int`, `Float`, `Str`), written down by
//! the lexer in the pass that makes the tokens
//! ([`tokenize_with_shape`](hfqo_query::sql::tokenize_with_shape)).
//! Whitespace and keyword case never reach it; identifiers (aliases
//! included), operators, punctuation, predicate order and each
//! literal's kind all do. Texts of one shape differ only in literal
//! values, and such texts bind to graphs that differ only in their
//! selections' values: the parser and the binder read a literal's kind,
//! never its value, and the k-th literal of a text is its graph's k-th
//! selection ([`hfqo_query::substitute`]). So the remembered
//! [`TemplateFingerprint`](hfqo_query::TemplateFingerprint) is every
//! such text's. A text that differs in an alias, a column or a
//! literal's kind (`3` against `3.0`) has another shape; the plan cache
//! still gives an alias change the same plan, through equal
//! fingerprints.
//!
//! **The spelling finds a template without lexing.** A text's spelling
//! is its bytes with each literal blanked to its kind
//! ([`blank_literals`](hfqo_query::sql::blank_literals)): one pass over
//! the bytes, where a lex dispatches on every token. Texts of one
//! spelling have one shape, so each entry also answers to the spelling
//! of the last text that reached it. A serve first looks its spelling
//! up; only when that misses — the first text of a template, or another
//! spacing or keyword case of one — does it lex and look the shape up,
//! and a shape hit moves the entry to the new spelling. A template
//! generated by one program is spelled one way, so its texts, whatever
//! their constants, are never lexed again.
//!
//! **Rules.** A lookup builds and hashes its key *outside* the lock,
//! finds the slot by that hash and then compares the full key, so a
//! hash collision is a miss, never a wrong statement. A text that does
//! not lex is never looked up by shape; one that fails to parse or bind
//! is never remembered. Each serve of a text that lexes counts one hit
//! or one miss. The bound is one LRU of templates over the whole cache,
//! not a slice per shard: a replay that cycles through slightly fewer
//! templates than the bound must hit every time, and per-shard slices
//! would overflow one shard and thrash it. The lock is a **leaf** —
//! taken for a lookup or an insert and released before anything else
//! runs, never held across spelling, lexing, substitution, parse, bind,
//! probe, plan or execute — so it cannot take part in a lock-order
//! cycle. Two threads that miss one template both prepare it and the
//! later insert wins; preparing is idempotent up to the constants
//! remembered and costs microseconds, so there is no single-flight
//! here.
//!
//! **Invalidation.** A bound graph depends on the catalog and on
//! nothing else, so the only event that empties the cache is the
//! session handing out `&mut Database`. Statistics rebuilds, planner
//! swaps and online policy swaps change which *plan* a statement gets,
//! which is the plan cache's business; the [`PlanKey`] a statement
//! carries, remembered or substituted, is the one [`PlanKey::of`] would
//! compute afresh.

use crate::cache::PlanKey;
use hfqo_query::sql::Token;
use hfqo_query::{fingerprint, substitute, Lit, QueryGraph};
use hfqo_sync::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasher, RandomState};
use std::sync::Arc;

/// A statement ready to serve: the bound query graph and its plan-cache
/// key. Produced by [`crate::QuerySession::prepare`] (or [`Self::new`]
/// from an already-bound graph) and consumed by
/// [`crate::QuerySession::serve_prepared`]. Cloning is an `Arc` clone.
///
/// A `Prepared` is bound against one catalog: serve it on the session
/// that prepared it, and prepare again after changing that session's
/// catalog through `db_mut()`.
#[derive(Debug, Clone)]
pub struct Prepared {
    graph: Arc<QueryGraph>,
    /// Always `PlanKey::of(&graph)`; private so it cannot drift.
    key: PlanKey,
}

impl Prepared {
    /// Wraps a bound graph, computing both fingerprints once.
    pub fn new(graph: Arc<QueryGraph>) -> Self {
        let key = PlanKey::of(&graph);
        Self { graph, key }
    }

    /// The bound query graph.
    pub fn graph(&self) -> &Arc<QueryGraph> {
        &self.graph
    }

    /// The plan-cache key of [`Self::graph`].
    pub fn key(&self) -> PlanKey {
        self.key
    }

    /// The statement a text binds to whose tokens, or literal tokens
    /// alone, are `tokens`, where the text has this statement's shape:
    /// this statement when every literal is its own, bit for bit, and
    /// otherwise its graph with the literals of `tokens` substituted,
    /// under this template fingerprint and a new exact one.
    pub(crate) fn with_literals_of(&self, tokens: &[Token<'_>]) -> Self {
        let literals = tokens
            .iter()
            .filter(|t| matches!(t, Token::Int(_) | Token::Float(_) | Token::Str(_)));
        let own = self.graph.selections().iter().map(|s| &s.value);
        if literals.clone().zip(own).all(|(t, v)| is_value(t, v)) {
            return self.clone();
        }
        let graph = substitute(&self.graph, literals.map(literal));
        let key = PlanKey {
            template: self.key.template,
            exact: fingerprint(&graph),
        };
        Self {
            graph: Arc::new(graph),
            key,
        }
    }
}

/// Whether the literal token `token` is `value`, bit for bit (`-0.0`
/// is not `0.0`: the exact fingerprint tells them apart).
fn is_value(token: &Token<'_>, value: &Lit) -> bool {
    match (token, value) {
        (Token::Int(a), Lit::Int(b)) => a == b,
        (Token::Float(a), Lit::Float(b)) => a.to_bits() == b.to_bits(),
        (Token::Str(a), Lit::Str(b)) => a == b,
        _ => false,
    }
}

/// The bound value of a literal token, as the binder makes it.
fn literal(token: &Token<'_>) -> Lit {
    match token {
        Token::Int(v) => Lit::Int(*v),
        Token::Float(v) => Lit::Float(*v),
        Token::Str(s) => Lit::Str(s.to_string()),
        other => unreachable!("not a literal: {other:?}"),
    }
}

/// A key — a text's shape or its spelling — and its hash under one
/// cache's hasher.
pub(crate) struct StatementKey {
    hash: u64,
    bytes: Vec<u8>,
}

/// End of the recency list.
const NIL: usize = usize::MAX;

/// One remembered template, linked into the recency list by slot
/// index.
struct Node {
    shape: StatementKey,
    /// The spelling of the last text that reached this template.
    spelling: StatementKey,
    prepared: Prepared,
    /// Towards the most recently used.
    prev: usize,
    /// Towards the least recently used.
    next: usize,
}

/// The lock's contents: a slab of at most `capacity` nodes threaded
/// into a most-recent-first list, and two hash → slot indexes, by shape
/// and by spelling. Every operation is O(1).
struct Lru {
    capacity: usize,
    by_shape: HashMap<u64, usize>,
    /// A spelling hash whose slot now has another spelling is not kept;
    /// two spellings with one hash keep the later.
    by_spelling: HashMap<u64, usize>,
    nodes: Vec<Node>,
    /// Most recently used slot, or [`NIL`] when empty.
    head: usize,
    /// Least recently used slot — the next eviction.
    tail: usize,
    hits: u64,
    misses: u64,
}

impl Lru {
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.nodes[i].prev, self.nodes[i].next);
        match prev {
            NIL => self.head = next,
            p => self.nodes[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n].prev = prev,
        }
    }

    fn push_front(&mut self, i: usize) {
        self.nodes[i].prev = NIL;
        self.nodes[i].next = self.head;
        match self.head {
            NIL => self.tail = i,
            h => self.nodes[h].prev = i,
        }
        self.head = i;
    }

    /// Counts a hit on slot `i`, makes it the most recent and returns
    /// its statement.
    fn hit(&mut self, i: usize) -> Prepared {
        self.hits += 1;
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        self.nodes[i].prepared.clone()
    }

    fn get_spelled(&mut self, spelling: &StatementKey) -> Option<Prepared> {
        let slot = self.by_spelling.get(&spelling.hash).copied();
        let i = slot.filter(|&i| self.nodes[i].spelling.bytes == spelling.bytes)?;
        Some(self.hit(i))
    }

    fn get(&mut self, shape: &StatementKey, spelling: &StatementKey) -> Option<Prepared> {
        let slot = self.by_shape.get(&shape.hash).copied();
        let Some(i) = slot.filter(|&i| self.nodes[i].shape.bytes == shape.bytes) else {
            self.misses += 1;
            return None;
        };
        if self.nodes[i].spelling.bytes != spelling.bytes {
            self.forget_spelling(i);
            self.nodes[i].spelling = StatementKey {
                hash: spelling.hash,
                bytes: spelling.bytes.clone(),
            };
            self.by_spelling.insert(spelling.hash, i);
        }
        Some(self.hit(i))
    }

    /// Drops slot `i`'s spelling from the index, unless a later
    /// spelling with its hash took the entry over.
    fn forget_spelling(&mut self, i: usize) {
        let hash = self.nodes[i].spelling.hash;
        if self.by_spelling.get(&hash) == Some(&i) {
            self.by_spelling.remove(&hash);
        }
    }

    /// Remembers `node` as the most recent statement and returns the
    /// one it displaced, if any, for the caller to drop outside the
    /// lock.
    fn insert(&mut self, node: Node) -> Option<Node> {
        let reused = if let Some(&i) = self.by_shape.get(&node.shape.hash) {
            // The same template prepared by two racing threads (or, once
            // in 2^64, another shape with this hash): the last insert
            // wins.
            Some(i)
        } else if self.nodes.len() < self.capacity {
            None
        } else {
            self.by_shape.remove(&self.nodes[self.tail].shape.hash);
            Some(self.tail)
        };
        let (i, displaced) = match reused {
            Some(i) => {
                self.forget_spelling(i);
                self.unlink(i);
                (i, Some(std::mem::replace(&mut self.nodes[i], node)))
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1, None)
            }
        };
        self.by_shape.insert(self.nodes[i].shape.hash, i);
        self.by_spelling.insert(self.nodes[i].spelling.hash, i);
        self.push_front(i);
        displaced
    }

    fn clear(&mut self) {
        self.by_shape.clear();
        self.by_spelling.clear();
        self.nodes.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// Statement template → [`Prepared`], an LRU behind one leaf lock,
/// found by a text's spelling or its shape. See the [module docs](self)
/// for the rules.
pub(crate) struct StatementCache {
    /// Keyed per cache: SQL text is outside input, so slots must not be
    /// predictable from it.
    hasher: RandomState,
    inner: Mutex<Lru>,
}

impl StatementCache {
    /// An empty cache remembering at most `capacity` statements.
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            hasher: RandomState::new(),
            inner: Mutex::new(
                "serve.statements",
                Lru {
                    capacity: capacity.max(1),
                    by_shape: HashMap::new(),
                    by_spelling: HashMap::new(),
                    nodes: Vec::new(),
                    head: NIL,
                    tail: NIL,
                    hits: 0,
                    misses: 0,
                },
            ),
        }
    }

    /// `bytes` — a shape or a spelling — as a key of this cache.
    pub(crate) fn key(&self, bytes: Vec<u8>) -> StatementKey {
        StatementKey {
            hash: self.hasher.hash_one(&bytes),
            bytes,
        }
    }

    /// The statement of the template last reached by a text spelled
    /// `spelling`, made the most recent; counts a hit, and nothing when
    /// there is none (the shape lookup that follows counts).
    pub(crate) fn get_spelled(&self, spelling: &StatementKey) -> Option<Prepared> {
        self.inner.lock().get_spelled(spelling)
    }

    /// The statement remembered for the template of shape `shape`, made
    /// the most recent, which `spelling` now reaches too; counts a hit
    /// or a miss.
    pub(crate) fn get(&self, shape: &StatementKey, spelling: &StatementKey) -> Option<Prepared> {
        self.inner.lock().get(shape, spelling)
    }

    /// Remembers `prepared` for the template of shape `shape`, reached
    /// by `spelling`, evicting the least recently used template when
    /// full.
    pub(crate) fn insert(
        &self,
        mut shape: StatementKey,
        mut spelling: StatementKey,
        prepared: Prepared,
    ) {
        // Kept for as long as the template is: no room to spare.
        shape.bytes.shrink_to_fit();
        spelling.bytes.shrink_to_fit();
        let node = Node {
            shape,
            spelling,
            prepared,
            prev: NIL,
            next: NIL,
        };
        // The guard is a temporary of this statement: the displaced
        // statement (its keys and maybe the last `Arc` of a graph) is
        // freed after the lock is released.
        let displaced = self.inner.lock().insert(node);
        drop(displaced);
    }

    /// Forgets every statement; the counters stay.
    pub(crate) fn clear(&self) {
        self.inner.lock().clear();
    }

    /// Forgets every statement and changes the bound; the counters
    /// stay.
    pub(crate) fn resize(&self, capacity: usize) {
        let mut lru = self.inner.lock();
        lru.clear();
        lru.capacity = capacity.max(1);
    }

    /// `(hits, misses, statements currently remembered)`.
    pub(crate) fn counts(&self) -> (u64, u64, usize) {
        let lru = self.inner.lock();
        (lru.hits, lru.misses, lru.nodes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfqo_query::sql::{blank_literals, tokenize, tokenize_with_shape};

    /// A distinguishable statement: an empty graph is enough — the
    /// cache never looks inside one.
    fn prepared() -> Prepared {
        Prepared::new(Arc::new(QueryGraph::new(
            vec![],
            vec![],
            vec![],
            vec![],
            vec![],
        )))
    }

    fn shape(sql: &str) -> Vec<u8> {
        tokenize_with_shape(sql).unwrap().1
    }

    /// `sql`'s (shape, spelling) keys.
    fn keys(cache: &StatementCache, sql: &str) -> (StatementKey, StatementKey) {
        let spelling = blank_literals(sql).unwrap().0;
        (cache.key(shape(sql)), cache.key(spelling))
    }

    fn insert(cache: &StatementCache, sql: &str, prepared: Prepared) {
        let (shape, spelling) = keys(cache, sql);
        cache.insert(shape, spelling, prepared);
    }

    /// A serve's lookups: by spelling, then by shape.
    fn get(cache: &StatementCache, sql: &str) -> Option<Prepared> {
        let (shape, spelling) = keys(cache, sql);
        cache
            .get_spelled(&spelling)
            .or_else(|| cache.get(&shape, &spelling))
    }

    /// The remembered shapes, most recent first, read off the list — and
    /// the list, the slab and both indexes must agree with one another.
    fn order(cache: &StatementCache) -> Vec<Vec<u8>> {
        let lru = cache.inner.lock();
        let mut shapes = Vec::new();
        let (mut i, mut prev) = (lru.head, NIL);
        while i != NIL {
            let node = &lru.nodes[i];
            assert_eq!(node.prev, prev, "back link of {:?}", node.shape.bytes);
            assert_eq!(lru.by_shape.get(&node.shape.hash), Some(&i));
            assert_eq!(lru.by_spelling.get(&node.spelling.hash), Some(&i));
            shapes.push(node.shape.bytes.clone());
            (prev, i) = (i, node.next);
        }
        assert_eq!(lru.tail, prev);
        assert_eq!(shapes.len(), lru.nodes.len());
        assert_eq!(shapes.len(), lru.by_shape.len());
        assert_eq!(shapes.len(), lru.by_spelling.len());
        assert!(shapes.len() <= lru.capacity);
        shapes
    }

    fn shapes(texts: &[&str]) -> Vec<Vec<u8>> {
        texts.iter().map(|t| shape(t)).collect()
    }

    #[test]
    fn a_hit_is_the_remembered_statement_for_any_text_of_the_shape() {
        let cache = StatementCache::new(4);
        assert!(get(&cache, "a.x = 1").is_none());
        let a = prepared();
        insert(&cache, "a.x = 1", a.clone());
        for text in ["a.x = 1", "a.x = 2", "a . x=-3", "a.x=4"] {
            let hit = get(&cache, text).expect("remembered");
            assert!(Arc::ptr_eq(hit.graph(), a.graph()));
            assert_eq!(hit.key(), a.key());
        }
        assert!(get(&cache, "A.x = 1").is_none(), "identifier case");
        assert!(get(&cache, "a.x = 1.0").is_none(), "literal kind");
        assert_eq!(cache.counts(), (4, 3, 1));
    }

    /// The spelling finds the entry of the last text that reached it: a
    /// new spelling is found by shape and takes the entry over.
    #[test]
    fn an_entry_answers_to_the_spelling_that_reached_it_last() {
        let cache = StatementCache::new(4);
        insert(&cache, "a.x = 1", prepared());
        let spelled = |sql| cache.get_spelled(&keys(&cache, sql).1).is_some();
        assert!(spelled("a.x = 2"));
        assert!(!spelled("a.x=2"), "another spacing is another spelling");
        assert!(get(&cache, "a.x=2").is_some(), "found by shape");
        assert!(spelled("a.x=3"), "…and now by its spelling");
        assert!(!spelled("a.x = 3"), "which replaced the old one");
        order(&cache);
        assert_eq!(cache.counts(), (3, 0, 1));
    }

    #[test]
    fn evicts_the_least_recently_used_and_a_hit_refreshes() {
        let cache = StatementCache::new(3);
        for t in ["a", "b", "c"] {
            insert(&cache, t, prepared());
        }
        assert_eq!(order(&cache), shapes(&["c", "b", "a"]));
        assert!(get(&cache, "a").is_some());
        assert_eq!(order(&cache), shapes(&["a", "c", "b"]));
        assert!(get(&cache, "a").is_some(), "already most recent");
        assert!(get(&cache, "c").is_some(), "from the middle of the list");
        assert_eq!(order(&cache), shapes(&["c", "a", "b"]));
        insert(&cache, "d", prepared());
        assert_eq!(order(&cache), shapes(&["d", "c", "a"]));
        assert!(get(&cache, "b").is_none(), "the least recent went");
        for t in ["e", "f", "g"] {
            insert(&cache, t, prepared());
        }
        assert_eq!(order(&cache), shapes(&["g", "f", "e"]));
    }

    #[test]
    fn reinserting_a_shape_replaces_it_in_place() {
        let cache = StatementCache::new(2);
        insert(&cache, "a = 1", prepared());
        insert(&cache, "b", prepared());
        let again = prepared();
        insert(&cache, "a  =  2", again.clone());
        assert_eq!(order(&cache), shapes(&["a = 3", "b"]), "no second slot");
        let hit = get(&cache, "a  =  4").unwrap();
        assert!(Arc::ptr_eq(hit.graph(), again.graph()));
        assert!(cache.get_spelled(&keys(&cache, "a = 1").1).is_none());
    }

    #[test]
    fn a_bound_of_one_holds_one() {
        let cache = StatementCache::new(0);
        insert(&cache, "a", prepared());
        insert(&cache, "b", prepared());
        assert_eq!(order(&cache), shapes(&["b"]));
        insert(&cache, "b", prepared());
        assert_eq!(order(&cache), shapes(&["b"]));
    }

    #[test]
    fn clear_and_resize_forget_statements_and_keep_counters() {
        let cache = StatementCache::new(4);
        insert(&cache, "a", prepared());
        insert(&cache, "b", prepared());
        assert!(get(&cache, "a").is_some());
        cache.clear();
        assert!(order(&cache).is_empty());
        assert!(get(&cache, "a").is_none());
        assert_eq!(cache.counts(), (1, 1, 0));
        insert(&cache, "a", prepared());
        cache.resize(1);
        assert_eq!(cache.counts(), (1, 1, 0));
        insert(&cache, "a", prepared());
        insert(&cache, "b", prepared());
        assert_eq!(order(&cache), shapes(&["b"]), "the new bound holds");
    }

    /// A wrong statement must be impossible even when two keys share a
    /// slot hash: the full key is compared on a hit. Forced here by
    /// planting a node under another text's hashes.
    #[test]
    fn a_hash_collision_is_a_miss_not_a_wrong_statement() {
        let cache = StatementCache::new(4);
        let (shape, spelling) = keys(&cache, "wanted");
        let (squatter_shape, squatter_spelling) = keys(&cache, "squatter");
        let displaced = cache.inner.lock().insert(Node {
            shape: StatementKey {
                hash: shape.hash,
                bytes: squatter_shape.bytes,
            },
            spelling: StatementKey {
                hash: spelling.hash,
                bytes: squatter_spelling.bytes,
            },
            prepared: prepared(),
            prev: NIL,
            next: NIL,
        });
        assert!(displaced.is_none());
        assert!(cache.get_spelled(&spelling).is_none());
        assert!(cache.get(&shape, &spelling).is_none());
        let statement = prepared();
        cache.insert(shape, spelling, statement.clone());
        assert_eq!(order(&cache), shapes(&["wanted"]), "last insert wins");
        let hit = get(&cache, "wanted").unwrap();
        assert!(Arc::ptr_eq(hit.graph(), statement.graph()));
    }

    /// The same constants are the remembered statement itself; others,
    /// a `-0.0` for a `0.0` included, are a new graph under the same
    /// template with its own exact fingerprint — what binding them
    /// would give. Whole token streams and literal tokens alone serve
    /// alike.
    #[test]
    fn new_literals_are_substituted_and_the_same_ones_share_the_graph() {
        use hfqo_query::sql::CompareOp;
        use hfqo_query::{BoundColumn, RelId, Relation, Selection};
        use hfqo_storage::catalog::{ColumnId, TableId};
        let column = BoundColumn::new(RelId(0), ColumnId(0));
        let graph = |values: [Lit; 3]| {
            let selections = values
                .into_iter()
                .map(|value| Selection {
                    column,
                    op: CompareOp::Eq,
                    value,
                })
                .collect();
            let relations = vec![Relation {
                table: TableId(0),
                alias: "a".into(),
            }];
            QueryGraph::new(relations, vec![], selections, vec![], vec![])
        };
        let values = |i, f, s: &str| [Lit::Int(i), Lit::Float(f), Lit::Str(s.into())];
        let remembered = Prepared::new(Arc::new(graph(values(1, 0.0, "x"))));
        let all_tokens = |sql| tokenize(sql).unwrap();
        let literals = |sql| blank_literals(sql).unwrap().1;
        for tokens in [all_tokens, literals] {
            let same = remembered.with_literals_of(&tokens("a = 1 AND b = 0.0 AND c = 'x'"));
            assert!(Arc::ptr_eq(same.graph(), remembered.graph()));
            assert_eq!(same.key(), remembered.key());
            for (sql, want) in [
                ("a = 2 AND b = 0.0 AND c = 'x'", values(2, 0.0, "x")),
                ("a = 1 AND b = -0.0 AND c = 'x'", values(1, -0.0, "x")),
                ("a = 1 AND b = 0.0 AND c = 'it''s'", values(1, 0.0, "it's")),
            ] {
                let other = remembered.with_literals_of(&tokens(sql));
                assert_eq!(**other.graph(), graph(want.clone()), "{sql}");
                assert_eq!(other.key(), PlanKey::of(&graph(want)), "{sql}");
                assert_eq!(other.key().template, remembered.key().template);
                assert_ne!(other.key().exact, remembered.key().exact, "{sql}");
            }
        }
    }
}
