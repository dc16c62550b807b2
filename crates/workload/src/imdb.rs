//! The IMDB-like schema and data generator.
//!
//! Seventeen tables arranged like the core of the IMDB schema the Join
//! Order Benchmark uses: a central `title` table, large fact-like
//! satellites (`cast_info`, `movie_info`, `movie_companies`,
//! `movie_keyword`, …), and small dimension tables (`kind_type`,
//! `info_type`, `role_type`, `link_type`, `company_type`).
//!
//! Three properties of the real dataset matter to the experiments and
//! are reproduced: **skew** (zipfian foreign keys — a few movies carry
//! most of the cast), **shape** (FK chains and stars of fan-out 1:2 to
//! 1:5), and **correlation** (`production_year` correlates with
//! `kind_id`; note columns correlate with role ids), which breaks the
//! optimizer's independence assumption exactly where the paper needs the
//! cost model to be wrong.

use hfqo_stats::{build_database_stats, StatsCatalog};
use hfqo_storage::catalog::{Catalog, Column, ColumnId, ColumnType, TableId};
use hfqo_storage::{ColumnGen, Database, Distribution, TableGen};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Generation scale: table row counts derive from `base_rows`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImdbConfig {
    /// Rows in the `title` table; satellites scale with it.
    pub base_rows: usize,
    /// Data generation seed.
    pub seed: u64,
}

impl Default for ImdbConfig {
    fn default() -> Self {
        Self {
            base_rows: 8_000,
            seed: 0xDB,
        }
    }
}

/// A foreign-key edge of the schema: `(child_table, child_column,
/// parent_table)` — parents are always referenced by their `id` column.
pub(crate) const FK_EDGES: &[(&str, &str, &str)] = &[
    ("title", "kind_id", "kind_type"),
    ("movie_companies", "movie_id", "title"),
    ("movie_companies", "company_id", "company_name"),
    ("movie_companies", "company_type_id", "company_type"),
    ("movie_info", "movie_id", "title"),
    ("movie_info", "info_type_id", "info_type"),
    ("movie_info_idx", "movie_id", "title"),
    ("movie_info_idx", "info_type_id", "info_type"),
    ("movie_keyword", "movie_id", "title"),
    ("movie_keyword", "keyword_id", "keyword"),
    ("cast_info", "movie_id", "title"),
    ("cast_info", "person_id", "name"),
    ("cast_info", "role_id", "role_type"),
    ("cast_info", "person_role_id", "char_name"),
    ("aka_title", "movie_id", "title"),
    ("movie_link", "movie_id", "title"),
    ("movie_link", "link_type_id", "link_type"),
];

/// All table names of the schema.
pub(crate) const TABLE_NAMES: &[&str] = &[
    "title",
    "kind_type",
    "info_type",
    "company_type",
    "company_name",
    "movie_companies",
    "movie_info",
    "movie_info_idx",
    "movie_keyword",
    "keyword",
    "cast_info",
    "name",
    "role_type",
    "char_name",
    "aka_title",
    "movie_link",
    "link_type",
];

/// Canonical short alias per table (as JOB uses `t`, `mc`, `mi`, …).
pub fn alias_of(table: &str) -> &'static str {
    match table {
        "title" => "t",
        "kind_type" => "kt",
        "info_type" => "it",
        "company_type" => "ct",
        "company_name" => "cn",
        "movie_companies" => "mc",
        "movie_info" => "mi",
        "movie_info_idx" => "mi_idx",
        "movie_keyword" => "mk",
        "keyword" => "k",
        "cast_info" => "ci",
        "name" => "n",
        "role_type" => "rt",
        "char_name" => "chn",
        "aka_title" => "at",
        "movie_link" => "ml",
        "link_type" => "lt",
        _ => "x",
    }
}

fn rows_for(table: &str, base: usize) -> usize {
    match table {
        "title" => base,
        "kind_type" => 7,
        "info_type" => 113,
        "company_type" => 4,
        "company_name" => (base / 10).max(20),
        "movie_companies" => base * 2,
        "movie_info" => base * 3,
        "movie_info_idx" => base,
        "movie_keyword" => base * 2,
        "keyword" => (base / 5).max(20),
        "cast_info" => base * 5,
        "name" => base * 2,
        "role_type" => 12,
        "char_name" => (base / 2).max(20),
        "aka_title" => (base / 4).max(10),
        "movie_link" => (base / 10).max(10),
        "link_type" => 18,
        other => unreachable!("unknown table {other}"),
    }
}

/// Builds the catalog: every table gets an `id` primary key with a B-tree
/// index; FK columns on the large satellites get B-tree indexes too
/// (matching JOB's indexed IMDB setup).
pub fn build_catalog() -> Catalog {
    let mut cat = Catalog::new();
    let columns_for = |table: &str| -> Vec<Column> {
        let mut cols = vec![Column::new("id", ColumnType::Int)];
        match table {
            "title" => {
                cols.push(Column::new("kind_id", ColumnType::Int));
                // Real IMDB dumps leave production_year unset for many
                // titles; the CSV sample carries \N rows for it.
                cols.push(Column::nullable("production_year", ColumnType::Int));
                cols.push(Column::new("phonetic_code", ColumnType::Int));
            }
            "kind_type" => cols.push(Column::new("kind", ColumnType::Text)),
            "info_type" => cols.push(Column::new("info", ColumnType::Text)),
            "company_type" => cols.push(Column::new("kind", ColumnType::Text)),
            "company_name" => {
                cols.push(Column::new("country_code", ColumnType::Int));
                cols.push(Column::new("name_pcode", ColumnType::Int));
            }
            "movie_companies" => {
                cols.push(Column::new("movie_id", ColumnType::Int));
                cols.push(Column::new("company_id", ColumnType::Int));
                cols.push(Column::new("company_type_id", ColumnType::Int));
                cols.push(Column::nullable("note", ColumnType::Text));
            }
            "movie_info" | "movie_info_idx" => {
                cols.push(Column::new("movie_id", ColumnType::Int));
                cols.push(Column::new("info_type_id", ColumnType::Int));
                cols.push(Column::new("info", ColumnType::Int));
            }
            "movie_keyword" => {
                cols.push(Column::new("movie_id", ColumnType::Int));
                cols.push(Column::new("keyword_id", ColumnType::Int));
            }
            "keyword" => {
                cols.push(Column::new("keyword", ColumnType::Text));
                cols.push(Column::new("phonetic_code", ColumnType::Int));
            }
            "cast_info" => {
                cols.push(Column::new("movie_id", ColumnType::Int));
                cols.push(Column::new("person_id", ColumnType::Int));
                cols.push(Column::new("role_id", ColumnType::Int));
                cols.push(Column::new("person_role_id", ColumnType::Int));
                cols.push(Column::new("note", ColumnType::Text));
            }
            "name" => {
                cols.push(Column::new("gender", ColumnType::Int));
                cols.push(Column::new("name_pcode", ColumnType::Int));
            }
            "role_type" => cols.push(Column::new("role", ColumnType::Text)),
            "char_name" => cols.push(Column::new("name_pcode", ColumnType::Int)),
            "aka_title" => cols.push(Column::new("movie_id", ColumnType::Int)),
            "movie_link" => {
                cols.push(Column::new("movie_id", ColumnType::Int));
                cols.push(Column::new("link_type_id", ColumnType::Int));
            }
            "link_type" => cols.push(Column::new("link", ColumnType::Text)),
            other => unreachable!("unknown table {other}"),
        }
        cols
    };
    for &name in TABLE_NAMES {
        let schema = hfqo_storage::catalog::TableSchema::new(name, columns_for(name))
            .with_primary_key(ColumnId(0));
        let t = cat.add_table(schema).expect("unique table names");
        cat.add_index(format!("{name}_pkey"), t, ColumnId(0), true)
            .expect("unique index names");
    }
    // FK indexes on the big satellites.
    for &(child, col, _) in FK_EDGES {
        let t = cat.table_by_name(child).expect("table exists");
        if rows_for(child, 1000) >= 1000 {
            let c = cat.resolve_column(t, col).expect("column exists");
            let _ = cat.add_index(format!("{child}_{col}_idx"), t, c, false);
        }
    }
    cat
}

fn generator_for(table: &str, base: usize) -> TableGen {
    let fk = |parent: &str, s: f64| {
        ColumnGen::new(Distribution::FkZipf {
            target_rows: rows_for(parent, base) as u64,
            s,
        })
    };
    let seq = || ColumnGen::new(Distribution::Sequential);
    let columns = match table {
        "title" => vec![
            seq(),
            fk("kind_type", 0.9),
            // production_year correlated with kind_id (levels ≈ decades).
            ColumnGen::new(Distribution::Correlated {
                source: 1,
                levels: 140,
                noise: 0.35,
            }),
            ColumnGen::new(Distribution::Zipf { n: 1000, s: 0.6 }),
        ],
        "kind_type" => vec![
            seq(),
            ColumnGen::new(Distribution::TextPool {
                prefix: "kind_",
                pool: 7,
                s: 0.0,
            }),
        ],
        "info_type" => vec![
            seq(),
            ColumnGen::new(Distribution::TextPool {
                prefix: "info_",
                pool: 113,
                s: 0.0,
            }),
        ],
        "company_type" => vec![
            seq(),
            ColumnGen::new(Distribution::TextPool {
                prefix: "ctype_",
                pool: 4,
                s: 0.0,
            }),
        ],
        "company_name" => vec![
            seq(),
            ColumnGen::new(Distribution::Zipf { n: 120, s: 1.1 }),
            ColumnGen::new(Distribution::UniformInt { lo: 0, hi: 9_999 }),
        ],
        "movie_companies" => vec![
            seq(),
            fk("title", 0.7),
            fk("company_name", 1.1),
            fk("company_type", 0.5),
            ColumnGen::new(Distribution::TextPool {
                prefix: "note_",
                pool: 50,
                s: 1.2,
            }),
        ],
        "movie_info" | "movie_info_idx" => vec![
            seq(),
            fk("title", 0.8),
            fk("info_type", 1.0),
            // info value correlated with info_type_id.
            ColumnGen::new(Distribution::Correlated {
                source: 2,
                levels: 500,
                noise: 0.25,
            }),
        ],
        "movie_keyword" => vec![seq(), fk("title", 0.8), fk("keyword", 1.2)],
        "keyword" => vec![
            seq(),
            ColumnGen::new(Distribution::TextPool {
                prefix: "kw_",
                pool: 2000,
                s: 0.9,
            }),
            ColumnGen::new(Distribution::UniformInt { lo: 0, hi: 999 }),
        ],
        "cast_info" => vec![
            seq(),
            fk("title", 0.9),
            fk("name", 0.9),
            fk("role_type", 1.0),
            fk("char_name", 0.8),
            ColumnGen::new(Distribution::TextPool {
                prefix: "cnote_",
                pool: 30,
                s: 1.3,
            }),
        ],
        "name" => vec![
            seq(),
            ColumnGen::new(Distribution::UniformInt { lo: 0, hi: 1 }),
            ColumnGen::new(Distribution::UniformInt { lo: 0, hi: 9_999 }),
        ],
        "role_type" => vec![
            seq(),
            ColumnGen::new(Distribution::TextPool {
                prefix: "role_",
                pool: 12,
                s: 0.0,
            }),
        ],
        "char_name" => vec![
            seq(),
            ColumnGen::new(Distribution::UniformInt { lo: 0, hi: 9_999 }),
        ],
        "aka_title" => vec![seq(), fk("title", 1.0)],
        "movie_link" => vec![seq(), fk("title", 1.0), fk("link_type", 0.6)],
        "link_type" => vec![
            seq(),
            ColumnGen::new(Distribution::TextPool {
                prefix: "link_",
                pool: 18,
                s: 0.0,
            }),
        ],
        other => unreachable!("unknown table {other}"),
    };
    TableGen {
        columns,
        rows: rows_for(table, base),
    }
}

/// Builds the database (catalog + data + indexes) and its statistics.
pub fn build_imdb(config: ImdbConfig) -> (Database, StatsCatalog) {
    let catalog = build_catalog();
    let mut db = Database::new(catalog);
    let mut rng = StdRng::seed_from_u64(config.seed);
    for &name in TABLE_NAMES {
        let tid = db.catalog().table_by_name(name).expect("table exists");
        let schema = db.catalog().table(tid).expect("exists").clone();
        let table = generator_for(name, config.base_rows)
            .generate(&schema, &mut rng)
            .expect("generator matches schema");
        db.load_table(tid, table).expect("schema matches");
    }
    db.build_indexes().expect("catalog indexes are valid");
    let stats = build_database_stats(&db);
    (db, stats)
}

/// Resolves a table id by name (panics on unknown names — the schema is
/// static).
pub fn table_id(db: &Database, name: &str) -> TableId {
    db.catalog().table_by_name(name).expect("known table")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Database, StatsCatalog) {
        build_imdb(ImdbConfig {
            base_rows: 400,
            seed: 1,
        })
    }

    #[test]
    fn all_tables_built_with_rows() {
        let (db, stats) = tiny();
        assert_eq!(db.catalog().table_count(), 17);
        for &name in TABLE_NAMES {
            let tid = table_id(&db, name);
            let rows = db.table(tid).expect("exists").row_count();
            assert!(rows > 0, "{name} is empty");
            assert_eq!(stats.table(tid).row_count, rows as f64, "{name}");
        }
        // Fact tables scale relative to title.
        let title = db
            .table(table_id(&db, "title"))
            .expect("exists")
            .row_count();
        let ci = db
            .table(table_id(&db, "cast_info"))
            .expect("exists")
            .row_count();
        assert_eq!(ci, title * 5);
    }

    #[test]
    fn fk_edges_resolve() {
        let (db, _) = tiny();
        for &(child, col, parent) in FK_EDGES {
            let c = table_id(&db, child);
            let p = table_id(&db, parent);
            assert!(db.catalog().resolve_column(c, col).is_ok(), "{child}.{col}");
            assert!(db.catalog().resolve_column(p, "id").is_ok(), "{parent}.id");
        }
    }

    #[test]
    fn fk_values_within_parent_range() {
        let (db, _) = tiny();
        let ci = table_id(&db, "cast_info");
        let name_rows = db.table(table_id(&db, "name")).expect("exists").row_count() as i64;
        let table = db.table(ci).expect("exists");
        let col = db
            .catalog()
            .resolve_column(ci, "person_id")
            .expect("exists");
        for r in 0..table.row_count() {
            let v = table.value_at(r, col).as_int().expect("int fk");
            assert!(v >= 0 && v < name_rows);
        }
    }

    #[test]
    fn skew_present_in_fact_fks() {
        let (db, stats) = tiny();
        let mk = table_id(&db, "movie_keyword");
        let kw_col = db
            .catalog()
            .resolve_column(mk, "keyword_id")
            .expect("exists");
        let col_stats = &stats.table(mk).columns[kw_col.index()];
        // Zipf-skewed FK: the most common keyword covers far more than
        // the uniform share.
        let uniform_share = 1.0 / col_stats.meta.ndv.max(1.0);
        let top = col_stats.mcvs.first().map(|(_, f)| *f).unwrap_or(0.0);
        assert!(
            top > 4.0 * uniform_share,
            "top share {top} vs uniform {uniform_share}"
        );
    }

    #[test]
    fn determinism_per_seed() {
        let (db1, _) = tiny();
        let (db2, _) = tiny();
        let t = table_id(&db1, "title");
        let a = db1.table(t).expect("exists");
        let b = db2.table(t).expect("exists");
        for r in [0usize, 17, 399] {
            for c in 0..a.schema().arity() {
                assert_eq!(
                    a.value_at(r, ColumnId(c as u32)),
                    b.value_at(r, ColumnId(c as u32))
                );
            }
        }
    }

    #[test]
    fn aliases_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for &t in TABLE_NAMES {
            assert!(seen.insert(alias_of(t)), "duplicate alias for {t}");
        }
    }
}
