//! The JOB-like query suite.
//!
//! 113 queries named `1a..33d` (33 families; families 1–14 have four
//! variants, 15–33 have three — matching the Join Order Benchmark's 113
//! queries over 33 structures). Every family is a connected subgraph of
//! the IMDB-like FK graph spanning 4–17 relations; variants share the
//! structure and differ in selection constants, exactly like JOB's
//! `a/b/c` variants. Queries are emitted as SQL text and bound through
//! the real parser + binder, so the suite also exercises the front-end.

use crate::imdb::{alias_of, FK_EDGES};
use hfqo_query::sql::parse_select;
use hfqo_query::{bind_select, QueryGraph};
use hfqo_storage::catalog::Catalog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The queries Figure 3b reports.
pub const FIGURE3B_LABELS: &[&str] = &[
    "1a", "1b", "1c", "1d", "8c", "12b", "13c", "15a", "16b", "22c",
];

/// Relation counts per family (covers the paper's 4–17 range).
const FAMILY_SIZES: [usize; 33] = [
    4, 5, 6, 6, 7, 7, 8, 8, 8, 9, 9, 9, 10, 10, 10, 11, 11, 12, 12, 5, 6, 7, 8, 9, 13, 14, 15, 16,
    17, 10, 11, 12, 13,
];

/// One generated query.
#[derive(Debug, Clone)]
pub struct JobQuery {
    /// JOB-style label, e.g. `"8c"`.
    pub label: String,
    /// The SQL text.
    pub sql: String,
    /// The bound query graph (label attached).
    pub graph: QueryGraph,
}

/// A selection site: `(table, column, kind)`.
#[derive(Debug, Clone, Copy)]
enum SelKind {
    /// `col = <int in range>`
    EqInt(i64, i64),
    /// `col > <int in range>`
    GtInt(i64, i64),
    /// `col < <int in range>`
    LtInt(i64, i64),
    /// `col = '<prefix><k>'` with `k` in range
    EqText(&'static str, i64),
}

/// Candidate selection predicates per table.
const SELECTION_SITES: &[(&str, &str, SelKind)] = &[
    ("title", "production_year", SelKind::GtInt(40, 130)),
    ("title", "production_year", SelKind::LtInt(30, 120)),
    ("title", "kind_id", SelKind::EqInt(0, 6)),
    ("movie_info", "info_type_id", SelKind::EqInt(0, 112)),
    ("movie_info", "info", SelKind::GtInt(50, 400)),
    ("movie_info_idx", "info_type_id", SelKind::EqInt(0, 112)),
    ("cast_info", "role_id", SelKind::EqInt(0, 11)),
    ("cast_info", "note", SelKind::EqText("cnote_", 30)),
    ("movie_companies", "company_type_id", SelKind::EqInt(0, 3)),
    ("movie_companies", "note", SelKind::EqText("note_", 50)),
    ("company_name", "country_code", SelKind::LtInt(5, 100)),
    ("name", "gender", SelKind::EqInt(0, 1)),
    ("keyword", "phonetic_code", SelKind::LtInt(100, 900)),
    ("char_name", "name_pcode", SelKind::LtInt(500, 9000)),
];

/// Grows a connected subgraph of the FK graph with `n` tables, seeded by
/// `rng`. Returns the chosen tables and the FK edges among them.
fn grow_subgraph(
    n: usize,
    rng: &mut StdRng,
) -> (Vec<&'static str>, Vec<(usize, usize, &'static str)>) {
    // Start from a fact-like hub so growth has room.
    const STARTS: &[&str] = &[
        "cast_info",
        "movie_info",
        "movie_companies",
        "movie_keyword",
        "title",
    ];
    let mut chosen: Vec<&'static str> = vec![STARTS[rng.gen_range(0..STARTS.len())]];
    while chosen.len() < n {
        // Tables adjacent to the chosen set.
        let mut frontier: Vec<&'static str> = Vec::new();
        for &(child, _, parent) in FK_EDGES {
            let child_in = chosen.contains(&child);
            let parent_in = chosen.contains(&parent);
            if child_in && !parent_in && !frontier.contains(&parent) {
                frontier.push(parent);
            }
            if parent_in && !child_in && !frontier.contains(&child) {
                frontier.push(child);
            }
        }
        if frontier.is_empty() {
            break; // whole schema consumed
        }
        let next = frontier[rng.gen_range(0..frontier.len())];
        chosen.push(next);
    }
    // All FK edges with both endpoints chosen: (child_idx, parent_idx, col).
    let mut edges = Vec::new();
    for &(child, col, parent) in FK_EDGES {
        if let (Some(ci), Some(pi)) = (
            chosen.iter().position(|&t| t == child),
            chosen.iter().position(|&t| t == parent),
        ) {
            edges.push((ci, pi, col));
        }
    }
    (chosen, edges)
}

/// The per-family skeleton: tables, edges, and selection sites.
struct FamilySkeleton {
    tables: Vec<&'static str>,
    edges: Vec<(usize, usize, &'static str)>,
    sites: Vec<(usize, &'static str, SelKind)>,
}

fn family_skeleton(family: usize, seed: u64) -> FamilySkeleton {
    let mut rng = StdRng::seed_from_u64(seed ^ (family as u64).wrapping_mul(0x9E37_79B9));
    let n = FAMILY_SIZES[(family - 1) % FAMILY_SIZES.len()];
    let (tables, edges) = grow_subgraph(n, &mut rng);
    // 1–3 selection sites on tables present in this family.
    let applicable: Vec<(usize, &'static str, SelKind)> = SELECTION_SITES
        .iter()
        .filter_map(|&(table, col, kind)| {
            tables
                .iter()
                .position(|&t| t == table)
                .map(|i| (i, col, kind))
        })
        .collect();
    let want = 1 + rng.gen_range(0..3usize.min(applicable.len().max(1)));
    let mut sites = Vec::new();
    let mut pool = applicable;
    for _ in 0..want.min(pool.len()) {
        let i = rng.gen_range(0..pool.len());
        sites.push(pool.swap_remove(i));
    }
    FamilySkeleton {
        tables,
        edges,
        sites,
    }
}

fn render_sql(skeleton: &FamilySkeleton, variant_rng: &mut StdRng) -> String {
    let mut sql = String::from("SELECT COUNT(*) FROM ");
    for (i, &t) in skeleton.tables.iter().enumerate() {
        if i > 0 {
            sql.push_str(", ");
        }
        sql.push_str(t);
        sql.push_str(" AS ");
        sql.push_str(alias_of(t));
    }
    let mut preds: Vec<String> = Vec::new();
    for &(child_idx, parent_idx, col) in &skeleton.edges {
        preds.push(format!(
            "{}.{} = {}.id",
            alias_of(skeleton.tables[child_idx]),
            col,
            alias_of(skeleton.tables[parent_idx]),
        ));
    }
    for &(tbl_idx, col, kind) in &skeleton.sites {
        let alias = alias_of(skeleton.tables[tbl_idx]);
        let pred = match kind {
            SelKind::EqInt(lo, hi) => {
                format!("{alias}.{col} = {}", variant_rng.gen_range(lo..=hi))
            }
            SelKind::GtInt(lo, hi) => {
                format!("{alias}.{col} > {}", variant_rng.gen_range(lo..=hi))
            }
            SelKind::LtInt(lo, hi) => {
                format!("{alias}.{col} < {}", variant_rng.gen_range(lo..=hi))
            }
            SelKind::EqText(prefix, pool) => {
                format!(
                    "{alias}.{col} = '{prefix}{}'",
                    variant_rng.gen_range(0..pool)
                )
            }
        };
        preds.push(pred);
    }
    if !preds.is_empty() {
        sql.push_str(" WHERE ");
        sql.push_str(&preds.join(" AND "));
    }
    sql.push(';');
    sql
}

/// Number of variants for a family (families 1–14 have four, the rest
/// three — totalling 113).
pub(crate) fn variants_of(family: usize) -> usize {
    if family <= 14 {
        4
    } else {
        3
    }
}

/// Generates the full 113-query suite against the given catalog.
pub fn generate_job_suite(catalog: &Catalog, seed: u64) -> Vec<JobQuery> {
    let mut out = Vec::with_capacity(113);
    for family in 1..=33usize {
        let skeleton = family_skeleton(family, seed);
        for v in 0..variants_of(family) {
            let letter = (b'a' + v as u8) as char;
            let label = format!("{family}{letter}");
            let mut variant_rng =
                StdRng::seed_from_u64(seed ^ ((family as u64) << 8) ^ (v as u64 + 1));
            let sql = render_sql(&skeleton, &mut variant_rng);
            let stmt = parse_select(&sql).expect("generated SQL parses");
            let graph = bind_select(&stmt, catalog)
                .expect("generated SQL binds")
                .with_label(label.clone());
            out.push(JobQuery { label, sql, graph });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imdb::build_catalog;

    fn suite() -> Vec<JobQuery> {
        generate_job_suite(&build_catalog(), 7)
    }

    #[test]
    fn suite_has_113_queries() {
        let s = suite();
        assert_eq!(s.len(), 113);
        let labels: std::collections::HashSet<_> = s.iter().map(|q| q.label.clone()).collect();
        assert_eq!(labels.len(), 113, "labels are unique");
    }

    #[test]
    fn all_queries_are_connected_and_sized() {
        let s = suite();
        let mut max_rels = 0;
        let mut min_rels = usize::MAX;
        for q in &s {
            assert!(
                q.graph.is_connected(q.graph.all_rels()),
                "{} is disconnected",
                q.label
            );
            let n = q.graph.relation_count();
            min_rels = min_rels.min(n);
            max_rels = max_rels.max(n);
            assert!(
                !q.graph.selections().is_empty(),
                "{} has no selection",
                q.label
            );
            assert!(q.graph.joins().len() >= n - 1, "{} underjoined", q.label);
        }
        assert!(min_rels >= 4, "min {min_rels}");
        assert_eq!(max_rels, 17, "max {max_rels}");
    }

    #[test]
    fn variants_share_structure_differ_in_constants() {
        let s = suite();
        let a = s.iter().find(|q| q.label == "3a").expect("exists");
        let b = s.iter().find(|q| q.label == "3b").expect("exists");
        assert_eq!(a.graph.relation_count(), b.graph.relation_count());
        assert_eq!(a.graph.joins(), b.graph.joins());
        assert_ne!(a.sql, b.sql, "variants must differ");
    }

    #[test]
    fn generation_is_deterministic() {
        let s1 = suite();
        let s2 = suite();
        for (a, b) in s1.iter().zip(&s2) {
            assert_eq!(a.sql, b.sql);
        }
        // Different seed → different suite.
        let s3 = generate_job_suite(&build_catalog(), 8);
        assert!(s1.iter().zip(&s3).any(|(a, b)| a.sql != b.sql));
    }

    #[test]
    fn sql_round_trips_through_parser() {
        for q in suite().iter().take(20) {
            let stmt = parse_select(&q.sql).expect("parses");
            let rebound = bind_select(&stmt, &build_catalog()).expect("binds");
            assert_eq!(rebound.relation_count(), q.graph.relation_count());
        }
    }
}
