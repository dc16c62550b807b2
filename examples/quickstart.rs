//! Quickstart: build a database, walk the paper's Figure 2 episode,
//! train an agent, then serve the query through [`QuerySession`] with
//! the expert *and* the learned planner behind the same [`Planner`]
//! trait.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hfqo::opt::physical::best_aggregate_if_needed;
use hfqo::opt::PlanForest;
use hfqo::prelude::*;
use hfqo::query::display::explain;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // A small IMDB-like database (17 tables, skewed and correlated data).
    let bundle = WorkloadBundle::imdb_job(
        ImdbConfig {
            base_rows: 1_000,
            seed: 42,
        },
        7,
    );
    let catalog = bundle.db.catalog();

    // Parse and bind a four-relation query, as in Figure 2's
    // `SELECT * FROM A, B, C, D WHERE ...`.
    let sql = "SELECT COUNT(*) \
               FROM title AS t, cast_info AS ci, name AS n, role_type AS rt \
               WHERE t.id = ci.movie_id AND ci.person_id = n.id \
               AND ci.role_id = rt.id AND t.production_year > 60";
    println!("SQL:\n  {sql}\n");
    let stmt = parse_select(sql).expect("valid SQL");
    let graph = bind_select(&stmt, catalog).expect("binds against the catalog");

    // 1. A ReJOIN episode, replaying Figure 2's actions by hand:
    //    merge (A,C), then (B,D), then the two subtrees. The traditional
    //    machinery completes each merge into a physical join, as it does
    //    for every learned plan: best access paths at the leaves, the
    //    cheapest algorithm for the sides the agent chose, and the
    //    aggregate at the root.
    let plan_ctx = PlannerContext::new(catalog, &bundle.stats);
    let (model, est) = (plan_ctx.cost_model(), plan_ctx.estimator());
    let mut forest = PlanForest::best_access_paths(&graph, catalog, &model, &est);
    for (x, y) in [(0, 2), (0, 1), (0, 1)] {
        // A ⋈ C, then B ⋈ D, then (A ⋈ C) ⋈ (B ⋈ D).
        let price = forest.price(x, y, false, &model, &est);
        forest.merge(x, y, price);
    }
    let (figure2_plan, figure2_cost) = best_aggregate_if_needed(&graph, forest.take_root(), &model);
    let figure2_cost = figure2_cost.total;
    println!(
        "Figure 2 episode's join ordering: {}",
        figure2_plan.join_tree().compact()
    );
    println!(
        "completed by the optimizer (cost {:.1}, reward 1/M(t) = {:.2e}):\n{}",
        figure2_cost,
        1.0 / figure2_cost,
        explain(&figure2_plan, &graph)
    );

    // 2. Let an agent *learn* the ordering instead of hand-replaying it.
    let queries = vec![graph.clone()];
    let ctx = EnvContext::new(&bundle.db, &bundle.stats);
    let mut env = PlanEnv::new(
        ctx,
        &queries,
        4,
        QueryOrder::Cycle,
        RewardMode::LogRelative,
        StageSet::join_order_only(),
    );
    let featurizer = env.featurizer();
    let mut rng = StdRng::seed_from_u64(0);
    let mut agent = ReinforceAgent::new(
        env.state_dim(),
        env.action_dim(),
        ReinforceConfig::default(),
        &mut rng,
    );
    let log = train(&mut env, &mut agent, 300, &mut rng);
    println!(
        "\nafter 300 episodes on this query: cost ratio vs expert {:.3} (started at {:.3})",
        log.final_geo_ratio(30).expect("non-empty"),
        log.initial_geo_ratio(30).expect("non-empty"),
    );

    // 3. Serve the query for real. One session owns the world; the
    //    planning strategy is swappable behind the `Planner` trait.
    let mut session = QuerySession::traditional(bundle.db, bundle.stats);
    let expert = session.serve(sql).expect("expert serves");
    println!(
        "\nexpert plan ({}, cost {:.1}, planned in {:?}):\n{}",
        expert.method,
        expert.cost,
        expert.planning_time,
        explain(&expert.plan.root, &expert.graph)
    );

    // Freeze the trained policy into a planner and swap it in (this
    // invalidates the plan cache — cached plans belonged to the expert).
    // The environment above allowed cross-join pairs, so inference must
    // walk the same action space.
    let learned = LearnedPlanner::freeze(&agent, featurizer).with_require_connected(false);
    session.set_planner(Box::new(learned));
    let served = session.serve(sql).expect("learned planner serves");
    println!(
        "learned plan ({}, cost {:.1}, planned in {:?}):\n{}",
        served.method,
        served.cost,
        served.planning_time,
        explain(&served.plan.root, &served.graph)
    );

    // Same answer either way; the work may differ with the plan.
    println!(
        "expert:  COUNT(*) = {}   (work {}, {:?})",
        expert.outcome.rows[0][0], expert.outcome.stats.work, expert.outcome.stats.elapsed
    );
    println!(
        "learned: COUNT(*) = {}   (work {}, {:?})",
        served.outcome.rows[0][0], served.outcome.stats.work, served.outcome.stats.elapsed
    );
    assert_eq!(expert.outcome.rows, served.outcome.rows, "plans must agree");

    // 4. Repeats hit both caches: the text is a remembered statement
    //    (not parsed or bound again) and planning becomes a lookup.
    let again = session.serve(sql).expect("serves from cache");
    assert!(again.statement_hit && again.cache_hit);
    assert_eq!(again.outcome.rows, served.outcome.rows);
    let m = session.cache_metrics();
    println!(
        "\nserved again from the plan cache in {:?} ({} hits / {} misses; \
         statements: {} hits / {} misses, {} remembered)",
        again.planning_time, m.hits, m.misses, m.statement_hits, m.statement_misses, m.statements
    );

    // 5. Close the hands-free loop: keep learning from the queries the
    //    session actually executes. The trainer drains the experience
    //    log, rewards on the executor's observed work, and hot-swaps
    //    each retrained policy generation into live serving.
    let trainer_agent = agent; // keep training the same policy online
    let mut trainer = OnlineTrainer::attach(
        &mut session,
        trainer_agent,
        featurizer,
        false, // the training env above allowed cross-join pairs
        OnlineConfig {
            swap_every: 8,
            ..OnlineConfig::default()
        },
    );
    for _burst in 0..4 {
        for _ in 0..8 {
            let _ = session.serve(sql).expect("serves under online training");
        }
        let step = trainer.step(&session);
        if step.swapped() {
            println!(
                "online trainer published policy generation {} \
                 (trained on {} served episodes so far)",
                trainer.generation(),
                trainer.metrics().trained
            );
        }
    }
    let online = session.serve(sql).expect("serves the latest generation");
    assert_eq!(
        online.outcome.rows, served.outcome.rows,
        "results never change"
    );
    println!(
        "after online learning (gen {}): cost {:.1}, work {}",
        trainer.generation(),
        online.cost,
        online.outcome.stats.work
    );
}
