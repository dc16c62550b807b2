//! End-to-end SQL serving on the IMDB-like database through
//! [`QuerySession`]: parse → bind → plan (fingerprint-keyed plan cache)
//! → execute, with EXPLAIN output, runtime statistics, the cache-warm
//! second round showing the front end (text → statement hit) and
//! planning (plan-cache hit) amortised away, and a third round with one
//! constant changed in each text: still a statement hit, since the
//! statement cache remembers templates, not texts.
//!
//! ```sh
//! cargo run --release --example execute_sql
//! ```

use hfqo::prelude::*;
use hfqo::query::display::explain;
use hfqo::workload::imdb::build_imdb;
use hfqo::workload::job::generate_job_suite;

fn main() {
    let (db, stats) = build_imdb(ImdbConfig {
        base_rows: 2_000,
        seed: 4,
    });
    // The first JOB-like text of six or more relations (under suite
    // seed 5 it runs within the session's default work budget).
    let job = generate_job_suite(db.catalog(), 5)
        .into_iter()
        .find(|q| q.graph.relation_count() >= 6)
        .expect("the suite spans 4–17 relations");
    // One session owns the whole serving world: database, statistics,
    // the traditional DP/greedy planner, and the plan cache.
    let session = QuerySession::traditional(db, stats);

    let queries = [
        "SELECT COUNT(*) FROM title t WHERE t.production_year > 60 AND t.kind_id = 1;",
        "SELECT COUNT(*), MIN(t.production_year) FROM title t, movie_keyword mk \
         WHERE t.id = mk.movie_id AND t.kind_id = 2;",
        job.sql.as_str(),
    ];

    for sql in queries {
        println!("─────────────────────────────────────────────");
        println!("SQL: {sql}\n");
        let served = session.serve(sql).expect("serves");
        println!(
            "plan ({}, estimated cost {:.1}, planned in {:?}, cache {}):\n{}",
            served.method,
            served.cost,
            served.planning_time,
            if served.cache_hit { "hit" } else { "miss" },
            explain(&served.plan.root, &served.graph)
        );
        // The outcome carries the real output schema — for aggregated
        // queries: group keys followed by aggregate values.
        println!("columns: {}", served.outcome.schema);
        print!("result: ");
        for row in served.outcome.rows.iter().take(3) {
            let cells: Vec<String> = served
                .outcome
                .schema
                .columns
                .iter()
                .zip(row)
                .map(|(c, v)| format!("{} = {v}", c.name()))
                .collect();
            print!("[{}] ", cells.join(", "));
        }
        println!(
            "\nruntime: {} work units in {:?}",
            served.outcome.stats.work, served.outcome.stats.elapsed
        );

        // Cross-check the estimate against the truth.
        let oracle = TrueCardinality::new(session.db());
        let est = EstimatedCardinality::new(session.stats());
        let graph = &served.graph;
        let estimated = est.set_rows(graph, graph.all_rels());
        let true_rows = oracle.set_rows(graph, graph.all_rels());
        println!(
            "cardinality: estimated {estimated:.0} vs true {true_rows:.0} (q-error {:.1})",
            (estimated / true_rows.max(1.0)).max(true_rows / estimated.max(1.0))
        );
    }

    // Serve the workload again: every text is a remembered statement
    // (no parse, bind or fingerprint) and every plan comes from the
    // cache, so what is left of a serve is the execution.
    println!("─────────────────────────────────────────────");
    println!("second round (cache-warm):");
    for sql in queries {
        let served = session.serve(sql).expect("serves");
        assert!(served.statement_hit, "repeated text must be remembered");
        assert!(served.cache_hit, "repeated query must hit the plan cache");
        println!(
            "  {} … statement hit, cache hit, planned in {:?}, {} work units",
            &sql[..40.min(sql.len())],
            served.planning_time,
            served.outcome.stats.work
        );
    }
    // And once more with one constant changed in each text: the
    // template is remembered, so the new constant is put into its bound
    // graph, and the plan cache decides whether its plan still fits.
    println!("third round (one constant changed):");
    for sql in queries {
        let other = next_constant(sql);
        let served = session.serve(&other).expect("serves");
        assert!(
            served.statement_hit,
            "a remembered template with another constant"
        );
        println!(
            "  {} … statement hit, cache {:?}, {} work units",
            &other[..40.min(other.len())],
            served.cache,
            served.outcome.stats.work
        );
    }
    let m = session.cache_metrics();
    println!(
        "statements: {} hits / {} misses, {} remembered",
        m.statement_hits, m.statement_misses, m.statements
    );
    println!(
        "plan cache: {} hits / {} misses, {} of {} entries in {} of {} shards (fullest holds {})",
        m.hits, m.misses, m.len, m.capacity, m.occupied_shards, m.shards, m.largest_shard
    );
    assert_eq!(
        (m.statement_hits, m.statement_misses, m.statements),
        (6, 3, 3),
        "each template prepared once, then served from the statement cache"
    );
}

/// `sql` with its last integer constant one higher: the last run of
/// digits that does not end a name.
fn next_constant(sql: &str) -> String {
    let bytes = sql.as_bytes();
    let mut end = bytes.len();
    loop {
        end = bytes[..end]
            .iter()
            .rposition(u8::is_ascii_digit)
            .expect("an integer constant")
            + 1;
        let start = bytes[..end]
            .iter()
            .rposition(|b| !b.is_ascii_digit())
            .map_or(0, |i| i + 1);
        let named =
            start > 0 && (bytes[start - 1].is_ascii_alphabetic() || bytes[start - 1] == b'_');
        if !named {
            let value: i64 = sql[start..end].parse().expect("an integer");
            return format!("{}{}{}", &sql[..start], value + 1, &sql[end..]);
        }
        end = start;
    }
}
