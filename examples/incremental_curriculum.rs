//! Incremental learning (§5.3): growing the task instead of starting
//! with everything.
//!
//! Shows the three decompositions of Figure 7 as executable curricula
//! over the full-plan environment, one hybrid walk in detail.
//!
//! ```sh
//! cargo run --release --example incremental_curriculum
//! ```

use hfqo::prelude::*;
use hfqo::rejoin::incremental::admitted_queries;
use hfqo::workload::synth::SynthConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // Synthetic workload with 2–6-relation queries: real suites lack the
    // small queries the relations curriculum needs (§5.3.2 notes TPC-H
    // has two single-relation templates and JOB none).
    let sizes: Vec<usize> = (2..=6).collect();
    let bundle = WorkloadBundle::synthetic(
        SynthConfig {
            tables: 6,
            rows: 800,
            seed: 2,
        },
        &sizes,
        4,
    );
    println!(
        "workload: {} queries over 2–6 relations\n",
        bundle.queries.len()
    );

    for curriculum in [
        Curriculum::Pipeline,
        Curriculum::Relations,
        Curriculum::Hybrid,
    ] {
        let phases = curriculum.phases(bundle.max_rels(), 1200);
        println!("{curriculum:?} curriculum — {} phases:", phases.len());
        for (i, p) in phases.iter().enumerate() {
            println!(
                "  phase {}: stages={} rels≤{} episodes={}",
                i + 1,
                p.stages.enabled_count(),
                p.max_rels.map_or("all".to_string(), |m| m.to_string()),
                p.episodes
            );
        }
    }

    // Walk the hybrid curriculum with one agent.
    println!("\ntraining the Hybrid curriculum …");
    let mut rng = StdRng::seed_from_u64(1);
    let max_rels = bundle.max_rels();
    let probe = PlanEnv::new(
        EnvContext::new(&bundle.db, &bundle.stats),
        &bundle.queries,
        max_rels,
        QueryOrder::Shuffle,
        RewardMode::LogRelative,
        StageSet::full(),
    );
    let mut agent = ReJoinAgent::new(
        probe.state_dim(),
        probe.action_dim(),
        PolicyKind::default_reinforce(),
        &mut rng,
    );
    drop(probe);
    for (i, phase) in Curriculum::Hybrid
        .phases(max_rels, 1200)
        .into_iter()
        .enumerate()
    {
        let admitted = admitted_queries(&bundle.queries, phase.max_rels);
        if admitted.is_empty() || phase.episodes == 0 {
            continue;
        }
        let phase_queries: Vec<QueryGraph> = admitted
            .iter()
            .map(|&qi| bundle.queries[qi].clone())
            .collect();
        let mut env = PlanEnv::new(
            EnvContext::new(&bundle.db, &bundle.stats),
            &phase_queries,
            max_rels,
            QueryOrder::Shuffle,
            RewardMode::LogRelative,
            StageSet::full(),
        );
        env.set_stages(phase.stages);
        let log = train(
            &mut env,
            &mut agent,
            TrainerConfig::new(phase.episodes),
            &mut rng,
        );
        println!(
            "  phase {}: {} queries, {} stages → ratio {:.2}x",
            i + 1,
            phase_queries.len(),
            phase.stages.enabled_count(),
            log.final_geo_ratio(50).unwrap_or(f64::NAN),
        );
    }

    // Final evaluation on the complete task.
    let mut eval_env = PlanEnv::new(
        EnvContext::new(&bundle.db, &bundle.stats),
        &bundle.queries,
        max_rels,
        QueryOrder::Cycle,
        RewardMode::LogRelative,
        StageSet::full(),
    );
    let records = evaluate_per_query(&mut eval_env, &agent, QueryOrder::Cycle, &mut rng);
    let geo = (records
        .iter()
        .map(|r| r.cost_ratio().max(1e-12).ln())
        .sum::<f64>()
        / records.len().max(1) as f64)
        .exp();
    println!("\nfull task (all queries, all pipeline stages): geometric mean ratio {geo:.2}x");
    println!("run `cargo run --release -p hfqo_bench -- incremental` for the 4-way comparison");
}
