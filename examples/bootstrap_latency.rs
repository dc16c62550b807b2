//! Cost-model bootstrapping (§5.2): cost-model "training wheels", then
//! fine-tuning on scaled latency.
//!
//! ```sh
//! cargo run --release --example bootstrap_latency
//! ```

use hfqo::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let bundle = WorkloadBundle::imdb_job(
        ImdbConfig {
            base_rows: 800,
            seed: 5,
        },
        13,
    );
    let queries: Vec<QueryGraph> = bundle
        .queries
        .iter()
        .filter(|q| q.relation_count() <= 7)
        .take(20)
        .cloned()
        .collect();
    println!("bootstrapping on {} queries …", queries.len());

    let ctx = EnvContext::new(&bundle.db, &bundle.stats);
    let mut env = PlanEnv::new(
        ctx,
        &queries,
        7,
        QueryOrder::Shuffle,
        RewardMode::NegLogCost,
        StageSet::join_order_only(),
    );
    let mut rng = StdRng::seed_from_u64(0);
    let mut agent = ReinforceAgent::new(
        env.state_dim(),
        env.action_dim(),
        ReinforceConfig::default(),
        &mut rng,
    );
    let config = BootstrapConfig {
        phase1_episodes: 600,
        observe_episodes: 100,
        phase2_episodes: 400,
        scale_rewards: true,
    };
    let outcome = cost_bootstrap(&mut env, &mut agent, &config, &mut rng);

    let (c_min, c_max) = outcome.scaler.cost_range();
    let (l_min, l_max) = outcome.scaler.latency_range();
    println!("\nPhase 1 trained on the cost model (no plan was ever executed).");
    println!("observed near convergence: costs {c_min:.0}..{c_max:.0}, latencies {l_min:.2}..{l_max:.2} ms");
    println!(
        "the paper's r_l scaling maps a {l_max:.1} ms plan to {:.0} — back in cost range",
        outcome.scaler.scale(l_max)
    );

    println!("\nepisode   cost ratio vs expert (geometric MA 50)");
    for (ep, ratio) in outcome.log.moving_geo_ratio(50).iter().step_by(100) {
        let marker = if *ep >= outcome.phase_boundary {
            " <- phase 2 (latency reward)"
        } else {
            ""
        };
        println!("{ep:>7}   {ratio:>7.2}x{marker}");
    }
    println!(
        "\nfinal ratio {:.2}x; phase switch at episode {}",
        outcome.log.final_geo_ratio(50).expect("non-empty"),
        outcome.phase_boundary
    );
    println!("run `cargo run --release -p hfqo_bench -- bootstrap` for the scaled-vs-raw ablation");
}
