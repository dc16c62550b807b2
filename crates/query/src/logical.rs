//! Logical join trees.
//!
//! A [`JoinTree`] is the object ReJOIN's episodes construct: an unordered
//! binary tree over the query's relations, with no physical decisions yet.
//! The traditional optimizer also produces one as the skeleton of its
//! physical plan.

use crate::graph::{RelId, RelSet};

/// A binary join tree over query relations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JoinTree {
    /// A base relation.
    Leaf(RelId),
    /// A join of two subtrees.
    Join(Box<JoinTree>, Box<JoinTree>),
}

impl JoinTree {
    /// A leaf.
    pub fn leaf(rel: RelId) -> Self {
        JoinTree::Leaf(rel)
    }

    /// Joins two subtrees.
    pub fn join(left: JoinTree, right: JoinTree) -> Self {
        JoinTree::Join(Box::new(left), Box::new(right))
    }

    /// The set of relations covered by this tree.
    pub fn rel_set(&self) -> RelSet {
        match self {
            JoinTree::Leaf(r) => RelSet::single(*r),
            JoinTree::Join(l, r) => l.rel_set().union(r.rel_set()),
        }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        match self {
            JoinTree::Leaf(_) => 1,
            JoinTree::Join(l, r) => l.leaf_count() + r.leaf_count(),
        }
    }

    /// Number of join nodes (`leaf_count - 1`).
    pub fn join_count(&self) -> usize {
        self.leaf_count().saturating_sub(1)
    }

    /// Height of the tree (a leaf has height 0).
    pub fn height(&self) -> usize {
        match self {
            JoinTree::Leaf(_) => 0,
            JoinTree::Join(l, r) => 1 + l.height().max(r.height()),
        }
    }

    /// Depth of `rel` below this node, or `None` if absent. The root's own
    /// leaves in a single-leaf tree have depth 0.
    pub fn depth_of(&self, rel: RelId) -> Option<usize> {
        match self {
            JoinTree::Leaf(r) => (*r == rel).then_some(0),
            JoinTree::Join(l, r) => l.depth_of(rel).or_else(|| r.depth_of(rel)).map(|d| d + 1),
        }
    }

    /// Whether the tree is left-deep (every right child is a leaf).
    pub fn is_left_deep(&self) -> bool {
        match self {
            JoinTree::Leaf(_) => true,
            JoinTree::Join(l, r) => matches!(**r, JoinTree::Leaf(_)) && l.is_left_deep(),
        }
    }

    /// Visits leaves left-to-right.
    pub fn leaves(&self) -> Vec<RelId> {
        let mut out = Vec::with_capacity(self.leaf_count());
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves(&self, out: &mut Vec<RelId>) {
        match self {
            JoinTree::Leaf(r) => out.push(*r),
            JoinTree::Join(l, r) => {
                l.collect_leaves(out);
                r.collect_leaves(out);
            }
        }
    }

    /// Compact textual form, e.g. `((0 ⋈ 2) ⋈ (1 ⋈ 3))`.
    pub fn compact(&self) -> String {
        match self {
            JoinTree::Leaf(r) => r.0.to_string(),
            JoinTree::Join(l, r) => format!("({} ⋈ {})", l.compact(), r.compact()),
        }
    }
}

/// An ordered forest of join subtrees: ReJOIN's episode state.
///
/// The paper's transition is `s_{i+1} = (s_i − {s_i[x], s_i[y]}) ∪
/// {s_i[x] ⋈ s_i[y]}`. This type fixes the set's element order — required
/// for the integer pair actions to be well defined — with the convention:
/// *remove positions `x` and `y`, append the merged tree at the end*, `x`
/// on the left. Every forest walk shares it: the expert-trace generator
/// ([`tree_to_actions`]), `hfqo_rejoin::RolloutState`'s feature slots, and
/// `hfqo_opt::PlanForest`'s costed slots, which greedy, random, the
/// learned planner and the RL environment step; a test in `hfqo-rejoin`
/// replays the paper's Figure 2 episode to pin it down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Forest {
    trees: Vec<JoinTree>,
}

impl Forest {
    /// The initial state for an `n`-relation query: each relation is its
    /// own subtree, in relation order.
    pub fn initial(n: usize) -> Self {
        Self {
            trees: (0..n).map(|i| JoinTree::leaf(RelId(i as u32))).collect(),
        }
    }

    /// The subtrees, in order.
    pub fn trees(&self) -> &[JoinTree] {
        &self.trees
    }

    /// Number of subtrees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the forest holds no trees.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Whether this is a terminal state (a single tree).
    pub fn is_terminal(&self) -> bool {
        self.trees.len() <= 1
    }

    /// Merges the subtrees at positions `x` and `y` (`x ≠ y`, both in
    /// range): removes both and appends `trees[x] ⋈ trees[y]`. Returns
    /// `false` (leaving the forest untouched) on an invalid pair.
    pub fn merge(&mut self, x: usize, y: usize) -> bool {
        if x == y || x >= self.trees.len() || y >= self.trees.len() {
            return false;
        }
        // Remove the higher index first so the lower stays valid.
        let (hi, lo) = if x > y { (x, y) } else { (y, x) };
        let hi_tree = self.trees.remove(hi);
        let lo_tree = self.trees.remove(lo);
        let (left, right) = if x < y {
            (lo_tree, hi_tree)
        } else {
            (hi_tree, lo_tree)
        };
        self.trees.push(JoinTree::join(left, right));
        true
    }

    /// The single remaining tree of a terminal forest.
    pub fn into_tree(mut self) -> Option<JoinTree> {
        if self.trees.len() == 1 {
            self.trees.pop()
        } else {
            None
        }
    }

    /// Position of the subtree covering exactly `set`, if present.
    pub fn position_of(&self, set: RelSet) -> Option<usize> {
        self.trees.iter().position(|t| t.rel_set() == set)
    }
}

/// Derives the forest-merge action sequence that reconstructs `tree`
/// starting from [`Forest::initial`]. Join nodes are replayed bottom-up in
/// post-order; the returned `(x, y)` pairs use the shared forest
/// convention, so feeding them to [`Forest::merge`] reproduces `tree`
/// exactly. This is how expert plans are converted into imitation-learning
/// demonstrations (§5.1).
pub fn tree_to_actions(tree: &JoinTree, n: usize) -> Vec<(usize, usize)> {
    let mut actions = Vec::with_capacity(tree.join_count());
    let mut forest = Forest::initial(n);
    let mut stack = Vec::new();
    collect_joins_postorder(tree, &mut stack);
    for (lset, rset) in stack {
        let x = forest.position_of(lset).expect("left subtree present");
        let y = forest.position_of(rset).expect("right subtree present");
        actions.push((x, y));
        let merged = forest.merge(x, y);
        debug_assert!(merged);
    }
    actions
}

fn collect_joins_postorder(tree: &JoinTree, out: &mut Vec<(RelSet, RelSet)>) {
    if let JoinTree::Join(l, r) = tree {
        collect_joins_postorder(l, out);
        collect_joins_postorder(r, out);
        out.push((l.rel_set(), r.rel_set()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bushy4() -> JoinTree {
        // ((0 ⋈ 2) ⋈ (1 ⋈ 3)) — the terminal state of the paper's Figure 2.
        JoinTree::join(
            JoinTree::join(JoinTree::leaf(RelId(0)), JoinTree::leaf(RelId(2))),
            JoinTree::join(JoinTree::leaf(RelId(1)), JoinTree::leaf(RelId(3))),
        )
    }

    #[test]
    fn rel_set_and_counts() {
        let t = bushy4();
        assert_eq!(t.rel_set(), RelSet::full(4));
        assert_eq!(t.leaf_count(), 4);
        assert_eq!(t.join_count(), 3);
        assert_eq!(t.height(), 2);
    }

    #[test]
    fn depths() {
        let t = bushy4();
        assert_eq!(t.depth_of(RelId(0)), Some(2));
        assert_eq!(t.depth_of(RelId(3)), Some(2));
        assert_eq!(t.depth_of(RelId(9)), None);
        assert_eq!(JoinTree::leaf(RelId(1)).depth_of(RelId(1)), Some(0));
    }

    #[test]
    fn shape_predicates() {
        assert!(!bushy4().is_left_deep());
        let ld = JoinTree::join(
            JoinTree::join(JoinTree::leaf(RelId(0)), JoinTree::leaf(RelId(1))),
            JoinTree::leaf(RelId(2)),
        );
        assert!(ld.is_left_deep());
    }

    #[test]
    fn leaves_order_and_compact() {
        let t = bushy4();
        assert_eq!(t.leaves(), vec![RelId(0), RelId(2), RelId(1), RelId(3)]);
        assert_eq!(t.compact(), "((0 ⋈ 2) ⋈ (1 ⋈ 3))");
    }

    /// The paper's Figure 2 episode: actions [1,3] then [2,3] then [1,2]
    /// over relations {A=0, B=1, C=2, D=3} yield ((A ⋈ C) ⋈ (B ⋈ D)).
    ///
    /// (The paper displays 1-based indices; ours are 0-based, so its
    /// `[1,3]` is our `(0,2)`, etc.)
    #[test]
    fn figure2_episode_replays() {
        let mut forest = Forest::initial(4);
        assert!(forest.merge(0, 2)); // A ⋈ C → forest [B, D, (A⋈C)]
        assert!(forest.merge(0, 1)); // B ⋈ D → forest [(A⋈C), (B⋈D)]
        assert!(forest.merge(0, 1)); // final join
        assert!(forest.is_terminal());
        let tree = forest.into_tree().expect("terminal");
        assert_eq!(tree.compact(), "((0 ⋈ 2) ⋈ (1 ⋈ 3))");
    }

    #[test]
    fn merge_rejects_invalid_pairs() {
        let mut forest = Forest::initial(3);
        assert!(!forest.merge(0, 0));
        assert!(!forest.merge(0, 5));
        assert_eq!(forest.len(), 3);
        assert!(!forest.is_terminal());
        assert!(!forest.is_empty());
    }

    #[test]
    fn merge_order_controls_join_sides() {
        let mut f1 = Forest::initial(2);
        f1.merge(0, 1);
        assert_eq!(f1.trees()[0].compact(), "(0 ⋈ 1)");
        let mut f2 = Forest::initial(2);
        f2.merge(1, 0);
        assert_eq!(f2.trees()[0].compact(), "(1 ⋈ 0)");
    }

    #[test]
    fn tree_to_actions_roundtrip() {
        let tree = bushy4();
        let actions = tree_to_actions(&tree, 4);
        assert_eq!(actions.len(), 3);
        let mut forest = Forest::initial(4);
        for (x, y) in actions {
            assert!(forest.merge(x, y));
        }
        assert_eq!(forest.into_tree().expect("terminal"), tree);
    }

    #[test]
    fn tree_to_actions_left_deep() {
        let ld = JoinTree::join(
            JoinTree::join(JoinTree::leaf(RelId(2)), JoinTree::leaf(RelId(0))),
            JoinTree::leaf(RelId(1)),
        );
        let actions = tree_to_actions(&ld, 3);
        let mut forest = Forest::initial(3);
        for (x, y) in actions {
            assert!(forest.merge(x, y));
        }
        assert_eq!(forest.into_tree().expect("terminal"), ld);
    }

    #[test]
    fn position_of_finds_subtrees() {
        let forest = Forest::initial(3);
        assert_eq!(forest.position_of(RelSet::single(RelId(2))), Some(2));
        assert_eq!(forest.position_of(RelSet::full(2)), None);
    }
}
