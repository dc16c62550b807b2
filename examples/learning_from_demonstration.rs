//! Learning from demonstration (§5.1): imitate the expert, then
//! fine-tune on latency — without ever executing a catastrophic plan.
//!
//! ```sh
//! cargo run --release --example learning_from_demonstration
//! ```

use hfqo::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let bundle = WorkloadBundle::imdb_job(
        ImdbConfig {
            base_rows: 800,
            seed: 8,
        },
        21,
    );
    let queries: Vec<QueryGraph> = bundle
        .queries
        .iter()
        .filter(|q| q.relation_count() <= 7)
        .take(16)
        .cloned()
        .collect();
    println!(
        "learning from demonstration on {} queries (expert: the DP optimizer) …",
        queries.len()
    );

    let ctx = EnvContext::new(&bundle.db, &bundle.stats);
    let mut env = PlanEnv::new(
        ctx,
        &queries,
        7,
        QueryOrder::Cycle,
        RewardMode::InverseLatency,
        StageSet::join_order_only(),
    );
    let mut rng = StdRng::seed_from_u64(0);
    let config = DemonstrationConfig {
        pretrain_steps: 800,
        finetune_episodes: 400,
        ..Default::default()
    };
    let outcome = learn_from_demonstration(&mut env, &config, &mut rng);

    let first_loss = outcome
        .pretrain_losses
        .first()
        .copied()
        .unwrap_or(f64::NAN as f32);
    let last_loss = outcome
        .pretrain_losses
        .last()
        .copied()
        .unwrap_or(f64::NAN as f32);
    println!("\nPhase 1 — reward-prediction pretraining on expert histories:");
    println!(
        "  loss {first_loss:.3} → {last_loss:.3} over {} minibatches",
        config.pretrain_steps
    );

    let expert_mean = outcome.expert_latency_ms.iter().sum::<f64>()
        / outcome.expert_latency_ms.len().max(1) as f64;
    println!("\nPhase 2 — fine-tuning by argmin-prediction planning:");
    println!("  episodes           : {}", outcome.log.len());
    println!("  expert mean latency: {expert_mean:.2} ms");
    println!("  worst plan executed: {:.2} ms", outcome.worst_latency_ms);
    println!("  slip re-trainings  : {}", outcome.retrain_events.len());
    println!(
        "  final cost ratio   : {:.2}x",
        outcome.log.final_geo_ratio(50).expect("non-empty")
    );
    println!(
        "\nthe point (§5.1): a tabula-rasa latency learner executes plans thousands of\n\
         times slower than the expert before improving; the demonstration-guided agent's\n\
         worst plan stayed within {:.0}× of the expert mean.",
        outcome.worst_latency_ms / expert_mean
    );
}
