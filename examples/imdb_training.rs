//! Train ReJOIN on the JOB-like workload — a miniature Figure 3a.
//!
//! ```sh
//! cargo run --release --example imdb_training
//! # collect episodes on 4 worker threads (same-seed runs reproduce):
//! cargo run --release --example imdb_training -- --workers 4
//! ```
//!
//! The worker count can also come from `HFQO_WORKERS`.

use hfqo::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `--workers N` (or `HFQO_WORKERS=N`), defaulting to 1 — the exact
/// sequential trainer.
fn worker_count() -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--workers" {
            let v = args.next().expect("--workers requires a value");
            return v.parse().expect("invalid --workers value");
        }
    }
    std::env::var("HFQO_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn main() {
    let episodes = 2_000;
    let window = 100;
    let workers = worker_count();
    println!("building IMDB-like database and 113 JOB-like queries …");
    let bundle = WorkloadBundle::imdb_job(
        ImdbConfig {
            base_rows: 1_500,
            seed: 1,
        },
        9,
    );
    // Keep the example fast: train on the small-to-mid-size queries.
    let queries: Vec<QueryGraph> = bundle
        .queries
        .iter()
        .filter(|q| q.relation_count() <= 8)
        .cloned()
        .collect();
    println!(
        "training on {} queries (4–8 relations) for {episodes} episodes \
         ({workers} worker{}) …",
        queries.len(),
        if workers == 1 { "" } else { "s" }
    );

    let make_env = |_w: usize| {
        let ctx = EnvContext::new(&bundle.db, &bundle.stats);
        PlanEnv::new(
            ctx,
            &queries,
            8,
            QueryOrder::Shuffle,
            RewardMode::LogRelative,
            StageSet::join_order_only(),
        )
    };
    let mut env = make_env(0);
    let mut rng = StdRng::seed_from_u64(3);
    let mut agent = ReinforceAgent::new(
        env.state_dim(),
        env.action_dim(),
        ReinforceConfig::default(),
        &mut rng,
    );
    let config = TrainerConfig::new(episodes).with_workers(workers);
    let log = train_parallel(make_env, &mut agent, config, &mut rng);

    println!("\nepisode   plan cost relative to expert (geometric MA {window})");
    for (ep, ratio) in log.moving_geo_ratio(window).iter().step_by(200) {
        let bar_len = ((ratio.min(20.0) / 20.0) * 50.0) as usize;
        println!("{ep:>7}   {:>7.2}x  {}", ratio, "#".repeat(bar_len.max(1)));
    }
    match log.convergence_episode_geo(1.0, window) {
        Some(ep) => println!("\nreached expert parity at episode {ep}"),
        None => println!(
            "\nfinal ratio {:.2}x after {episodes} episodes (longer runs converge further; \
             see `cargo run --release -p hfqo_bench -- fig3a --full`)",
            log.final_geo_ratio(window).expect("non-empty")
        ),
    }

    // Greedy per-query evaluation, Figure 3b style, on a few queries.
    let records = evaluate_per_query(&mut env, &agent, QueryOrder::Shuffle, &mut rng);
    println!("\nper-query greedy evaluation (first 8):");
    println!("query     expert_cost   rejoin_cost   ratio");
    for r in records.iter().take(8) {
        println!(
            "{:<9} {:>11.1} {:>13.1} {:>7.2}",
            r.label.as_deref().unwrap_or("?"),
            r.expert_cost,
            r.agent_cost,
            r.cost_ratio()
        );
    }
}
