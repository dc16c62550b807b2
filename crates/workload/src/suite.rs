//! Ready-to-train workload bundles.

use crate::imdb::{build_imdb, ImdbConfig};
use crate::job::generate_job_suite;
use crate::synth::{Shape, SynthConfig, SynthDb};
use hfqo_query::QueryGraph;
use hfqo_stats::StatsCatalog;
use hfqo_storage::Database;

/// A database, its statistics, and a query workload — everything the RL
/// environments need.
pub struct WorkloadBundle {
    /// The database.
    pub db: Database,
    /// Table statistics.
    pub stats: StatsCatalog,
    /// The workload queries.
    pub queries: Vec<QueryGraph>,
}

impl WorkloadBundle {
    /// Largest relation count in the workload.
    pub fn max_rels(&self) -> usize {
        self.queries
            .iter()
            .map(QueryGraph::relation_count)
            .max()
            .unwrap_or(0)
    }

    /// The IMDB-like database with the 113-query JOB-like suite — the
    /// workload of Figures 3a and 3b.
    pub fn imdb_job(config: ImdbConfig, suite_seed: u64) -> Self {
        let (db, stats) = build_imdb(config);
        let queries = generate_job_suite(db.catalog(), suite_seed)
            .into_iter()
            .map(|q| q.graph)
            .collect();
        Self { db, stats, queries }
    }

    /// A synthetic bundle: for each size in `sizes`, `per_size` queries
    /// alternating chain/star/cycle shapes — the workload of Figure 3c
    /// and the incremental-learning experiments.
    pub fn synthetic(config: SynthConfig, sizes: &[usize], per_size: usize) -> Self {
        let synth = SynthDb::build(config);
        let mut queries = Vec::with_capacity(sizes.len() * per_size);
        for &n in sizes {
            for v in 0..per_size {
                let shape = match v % 3 {
                    0 => Shape::Chain,
                    1 if n >= 3 => Shape::Star,
                    _ if n >= 3 => Shape::Cycle,
                    _ => Shape::Chain,
                };
                let q = synth
                    .query(shape, n, 2, (n as u64) << 8 | v as u64)
                    .with_label(format!("n{n}v{v}"));
                queries.push(q);
            }
        }
        Self {
            db: synth.db,
            stats: synth.stats,
            queries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imdb_job_bundle() {
        let bundle = WorkloadBundle::imdb_job(
            ImdbConfig {
                base_rows: 300,
                seed: 2,
            },
            11,
        );
        assert_eq!(bundle.queries.len(), 113);
        assert_eq!(bundle.max_rels(), 17);
        assert_eq!(bundle.db.catalog().table_count(), 17);
    }

    #[test]
    fn synthetic_bundle_sizes() {
        let bundle = WorkloadBundle::synthetic(
            SynthConfig {
                tables: 8,
                rows: 200,
                seed: 4,
            },
            &[2, 4, 6],
            3,
        );
        assert_eq!(bundle.queries.len(), 9);
        assert_eq!(bundle.max_rels(), 6);
        assert!(bundle.queries.iter().all(|q| q.is_connected(q.all_rels())));
    }
}
