//! Prepared statements and the session's text-keyed statement cache.
//!
//! A [`Prepared`] is everything the front half of a serve produces —
//! parse → bind → both fingerprints — and everything the back half
//! (selectivity signature → probe → plan → execute → record) consumes.
//! The session's `StatementCache` remembers the `Prepared` of each SQL
//! text it served, so a text served before skips the front half
//! entirely.
//!
//! **Rules.** The key is the exact bytes of the text: a text differing
//! in case, spacing or an alias is another statement (the two still
//! meet in the plan cache, through their equal fingerprints). A lookup
//! hashes the text *outside* the lock, finds the slot by that hash and
//! then compares the full text, so a hash collision is a miss, never a
//! wrong statement. The bound is one LRU over the whole cache, not a
//! slice per shard: a replay that cycles through slightly fewer texts
//! than the bound must hit every time, and per-shard slices would
//! overflow one shard and thrash it. The lock is a **leaf** — taken for
//! a lookup or an insert and released before anything else runs, never
//! held across parse, bind, probe, plan or execute — so it cannot take
//! part in a lock-order cycle. Two threads that miss one text both
//! prepare it and the later insert wins; preparing is idempotent and
//! costs microseconds, so there is no single-flight here.
//!
//! **Invalidation.** A bound graph depends on the catalog and on
//! nothing else, so the only event that empties the cache is the
//! session handing out `&mut Database`. Statistics rebuilds, planner
//! swaps and online policy swaps change which *plan* a statement gets,
//! which is the plan cache's business; the [`PlanKey`] a remembered
//! statement carries is the one [`PlanKey::of`] would compute afresh.

use crate::cache::PlanKey;
use hfqo_query::QueryGraph;
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
}

/// End of the recency list.
const NIL: usize = usize::MAX;

/// One remembered statement, linked into the recency list by slot
/// index.
struct Node {
    hash: u64,
    text: Box<str>,
    prepared: Prepared,
    /// Towards the most recently used.
    prev: usize,
    /// Towards the least recently used.
    next: usize,
}

/// The lock's contents: a slab of at most `capacity` nodes threaded
/// into a most-recent-first list, and the text-hash → slot index.
/// Every operation is O(1).
struct Lru {
    capacity: usize,
    index: HashMap<u64, usize>,
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

    fn get(&mut self, hash: u64, sql: &str) -> Option<Prepared> {
        let slot = self.index.get(&hash).copied();
        let Some(i) = slot.filter(|&i| &*self.nodes[i].text == sql) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        if self.head != i {
            self.unlink(i);
            self.push_front(i);
        }
        Some(self.nodes[i].prepared.clone())
    }

    /// Remembers `node` as the most recent statement and returns the
    /// one it displaced, if any, for the caller to drop outside the
    /// lock.
    fn insert(&mut self, node: Node) -> Option<Node> {
        let reused = if let Some(&i) = self.index.get(&node.hash) {
            // The same text prepared by two racing threads (or, once in
            // 2^64, another text with this hash): the last insert wins.
            Some(i)
        } else if self.nodes.len() < self.capacity {
            None
        } else {
            self.index.remove(&self.nodes[self.tail].hash);
            Some(self.tail)
        };
        let (i, displaced) = match reused {
            Some(i) => {
                self.unlink(i);
                (i, Some(std::mem::replace(&mut self.nodes[i], node)))
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1, None)
            }
        };
        self.index.insert(self.nodes[i].hash, i);
        self.push_front(i);
        displaced
    }

    fn clear(&mut self) {
        self.index.clear();
        self.nodes.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// SQL text → [`Prepared`], an LRU behind one leaf lock. See the
/// [module docs](self) for the rules.
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
                    index: HashMap::new(),
                    nodes: Vec::new(),
                    head: NIL,
                    tail: NIL,
                    hits: 0,
                    misses: 0,
                },
            ),
        }
    }

    /// The statement remembered for exactly `sql`, made the most
    /// recent; counts a hit or a miss.
    pub(crate) fn get(&self, sql: &str) -> Option<Prepared> {
        let hash = self.hasher.hash_one(sql);
        self.inner.lock().get(hash, sql)
    }

    /// Remembers `prepared` for `sql`, evicting the least recently used
    /// statement when full.
    pub(crate) fn insert(&self, sql: &str, prepared: Prepared) {
        let node = Node {
            hash: self.hasher.hash_one(sql),
            text: sql.into(),
            prepared,
            prev: NIL,
            next: NIL,
        };
        // The guard is a temporary of this statement: the displaced
        // statement (a text and maybe the last `Arc` of a graph) is
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

    /// The remembered texts, most recent first, read off the list — and
    /// the list, the slab and the index must agree with one another.
    fn order(cache: &StatementCache) -> Vec<String> {
        let lru = cache.inner.lock();
        let mut texts = Vec::new();
        let (mut i, mut prev) = (lru.head, NIL);
        while i != NIL {
            let node = &lru.nodes[i];
            assert_eq!(node.prev, prev, "back link of `{}`", node.text);
            assert_eq!(lru.index.get(&node.hash), Some(&i));
            texts.push(node.text.to_string());
            (prev, i) = (i, node.next);
        }
        assert_eq!(lru.tail, prev);
        assert_eq!(texts.len(), lru.nodes.len());
        assert_eq!(texts.len(), lru.index.len());
        assert!(texts.len() <= lru.capacity);
        texts
    }

    #[test]
    fn a_hit_is_the_remembered_statement_and_exact_text_only() {
        let cache = StatementCache::new(4);
        assert!(cache.get("a").is_none());
        let a = prepared();
        cache.insert("a", a.clone());
        let hit = cache.get("a").expect("remembered");
        assert!(Arc::ptr_eq(hit.graph(), a.graph()));
        assert_eq!(hit.key(), a.key());
        assert!(cache.get("A").is_none(), "case is part of the text");
        assert!(cache.get("a ").is_none(), "spacing is part of the text");
        assert_eq!(cache.counts(), (1, 3, 1));
    }

    #[test]
    fn evicts_the_least_recently_used_and_a_hit_refreshes() {
        let cache = StatementCache::new(3);
        for t in ["a", "b", "c"] {
            cache.insert(t, prepared());
        }
        assert_eq!(order(&cache), ["c", "b", "a"]);
        assert!(cache.get("a").is_some());
        assert_eq!(order(&cache), ["a", "c", "b"]);
        assert!(cache.get("a").is_some(), "already most recent");
        assert!(cache.get("c").is_some(), "from the middle of the list");
        assert_eq!(order(&cache), ["c", "a", "b"]);
        cache.insert("d", prepared());
        assert_eq!(order(&cache), ["d", "c", "a"]);
        assert!(cache.get("b").is_none(), "the least recent went");
        cache.insert("e", prepared());
        cache.insert("f", prepared());
        cache.insert("g", prepared());
        assert_eq!(order(&cache), ["g", "f", "e"]);
    }

    #[test]
    fn reinserting_a_text_replaces_it_in_place() {
        let cache = StatementCache::new(2);
        cache.insert("a", prepared());
        cache.insert("b", prepared());
        let again = prepared();
        cache.insert("a", again.clone());
        assert_eq!(order(&cache), ["a", "b"], "no second slot, no eviction");
        assert!(Arc::ptr_eq(cache.get("a").unwrap().graph(), again.graph()));
    }

    #[test]
    fn a_bound_of_one_holds_one() {
        let cache = StatementCache::new(0);
        cache.insert("a", prepared());
        cache.insert("b", prepared());
        assert_eq!(order(&cache), ["b"]);
        cache.insert("b", prepared());
        assert_eq!(order(&cache), ["b"]);
    }

    #[test]
    fn clear_and_resize_forget_statements_and_keep_counters() {
        let cache = StatementCache::new(4);
        cache.insert("a", prepared());
        cache.insert("b", prepared());
        assert!(cache.get("a").is_some());
        cache.clear();
        assert!(order(&cache).is_empty());
        assert!(cache.get("a").is_none());
        assert_eq!(cache.counts(), (1, 1, 0));
        cache.insert("a", prepared());
        cache.resize(1);
        assert_eq!(cache.counts(), (1, 1, 0));
        cache.insert("a", prepared());
        cache.insert("b", prepared());
        assert_eq!(order(&cache), ["b"], "the new bound holds");
    }

    /// A wrong statement must be impossible even when two texts share a
    /// slot hash: the full text is compared on a hit. Forced here by
    /// planting a node under another text's hash.
    #[test]
    fn a_hash_collision_is_a_miss_not_a_wrong_statement() {
        let cache = StatementCache::new(4);
        let hash = cache.hasher.hash_one("wanted");
        let displaced = cache.inner.lock().insert(Node {
            hash,
            text: "squatter".into(),
            prepared: prepared(),
            prev: NIL,
            next: NIL,
        });
        assert!(displaced.is_none());
        assert!(cache.get("wanted").is_none());
        let wanted = prepared();
        cache.insert("wanted", wanted.clone());
        assert_eq!(order(&cache), ["wanted"], "last insert wins the slot");
        assert!(Arc::ptr_eq(
            cache.get("wanted").unwrap().graph(),
            wanted.graph()
        ));
    }
}
