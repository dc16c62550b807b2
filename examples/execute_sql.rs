//! End-to-end SQL serving on the TPC-H-like database through
//! [`QuerySession`]: parse → bind → plan (fingerprint-keyed plan cache)
//! → execute, with EXPLAIN output, runtime statistics, and the
//! cache-warm second round showing the front end (text → statement
//! hit) and planning (plan-cache hit) amortised away.
//!
//! ```sh
//! cargo run --release --example execute_sql
//! ```

use hfqo::prelude::*;
use hfqo::query::display::explain;
use hfqo::workload::tpch::{build_tpch, TpchConfig};

fn main() {
    let (db, stats) = build_tpch(TpchConfig {
        lineitem_rows: 20_000,
        seed: 4,
    });
    // One session owns the whole serving world: database, statistics,
    // the traditional DP/greedy planner, and the plan cache.
    let session = QuerySession::traditional(db, stats);

    let queries = [
        "SELECT COUNT(*) FROM lineitem l WHERE l.l_shipdate < 1000 AND l.l_quantity > 45;",
        "SELECT COUNT(*), MIN(o.o_totalprice) FROM customer c, orders o \
         WHERE c.c_custkey = o.o_custkey AND c.c_mktsegment = 2;",
        "SELECT COUNT(*) FROM customer c, orders o, lineitem l, supplier s, nation n, region r \
         WHERE c.c_custkey = o.o_custkey AND o.o_orderkey = l.l_orderkey \
         AND l.l_suppkey = s.s_suppkey AND s.s_nationkey = n.n_nationkey \
         AND n.n_regionkey = r.r_regionkey AND o.o_orderdate < 1800;",
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
    // (no lex, parse, bind or fingerprint) and every plan comes from
    // the cache, so what is left of a serve is the execution.
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
        (3, 3, 3),
        "each text prepared once, then served from the statement cache"
    );
}
