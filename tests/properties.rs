//! Property-based tests on cross-crate invariants.

use hfqo::prelude::*;
use hfqo::workload::synth::{Shape, SynthConfig, SynthDb};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// One shared synthetic database for all properties (building per-case
/// would dominate the run time).
fn synth() -> &'static SynthDb {
    static DB: OnceLock<SynthDb> = OnceLock::new();
    DB.get_or_init(|| {
        SynthDb::build(SynthConfig {
            tables: 7,
            rows: 150,
            seed: 99,
        })
    })
}

/// One uniformly random valid plan of `graph`.
fn draw_random_plan(db: &SynthDb, graph: &QueryGraph, rng: &mut StdRng) -> PhysicalPlan {
    let ctx = PlannerContext::new(db.db.catalog(), &db.stats);
    let (model, cards) = (ctx.cost_model(), ctx.estimator());
    PhysicalPlan::new(random_plan(graph, db.db.catalog(), &model, &cards, rng).0)
}

fn shape_from(v: u8) -> Shape {
    match v % 3 {
        0 => Shape::Chain,
        1 => Shape::Star,
        _ => Shape::Cycle,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random plans over random queries always validate, and the DP
    /// optimizer never prices worse than they do.
    #[test]
    fn dp_never_loses_to_random(
        n in 2usize..6,
        shape in 0u8..3,
        qseed in 0u64..50,
        pseed in 0u64..50,
    ) {
        let db = synth();
        let graph = db.query(shape_from(shape), n, 2, qseed);
        let expert = TraditionalPlanner::new();
        let ctx = PlannerContext::new(db.db.catalog(), &db.stats);
        let expert_cost = expert.plan(&ctx, &graph).expect("plannable").cost;
        let mut rng = StdRng::seed_from_u64(pseed);
        let (model, cards) = (ctx.cost_model(), ctx.estimator());
        let (root, random_cost) = random_plan(&graph, db.db.catalog(), &model, &cards, &mut rng);
        let plan = PhysicalPlan::new(root);
        plan.validate(&graph).expect("random plans are valid");
        let random_cost = random_cost.total;
        prop_assert!(expert_cost <= random_cost * 1.0001,
            "dp {expert_cost} vs random {random_cost}");
    }

    /// Every random plan executes to the same row count as the expert
    /// plan (within budget; small data guarantees it fits).
    #[test]
    fn all_plans_agree_on_results(
        n in 2usize..5,
        shape in 0u8..3,
        qseed in 0u64..25,
        pseed in 0u64..25,
    ) {
        let db = synth();
        let graph = db.query(shape_from(shape), n, 2, qseed);
        let ctx = PlannerContext::new(db.db.catalog(), &db.stats);
        let expert = TraditionalPlanner::new().plan(&ctx, &graph).expect("plannable");
        let expert_count = execute(&db.db, &graph, &expert.plan, ExecConfig::default())
            .expect("expert executes")
            .rows
            .len();
        let mut rng = StdRng::seed_from_u64(pseed);
        let plan = draw_random_plan(db, &graph, &mut rng);
        match execute(&db.db, &graph, &plan, ExecConfig::default()) {
            Ok(out) => prop_assert_eq!(out.rows.len(), expert_count),
            // A random cross-join order can legitimately exhaust the work
            // budget even on tiny tables — exactly the catastrophic-plan
            // behaviour the budget exists to contain.
            Err(hfqo::exec::ExecError::BudgetExceeded { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
    }

    /// The batch pipeline and the reference row engine agree — same row
    /// multiset, same work total — on random plans over random queries,
    /// including budget-capped aborts.
    #[test]
    fn batch_and_row_engines_are_equivalent(
        n in 2usize..5,
        shape in 0u8..3,
        qseed in 0u64..25,
        pseed in 0u64..25,
    ) {
        let db = synth();
        let graph = db.query(shape_from(shape), n, 2, qseed);
        let mut rng = StdRng::seed_from_u64(pseed);
        let plan = draw_random_plan(db, &graph, &mut rng);
        let config = ExecConfig::default();
        let batch = execute(&db.db, &graph, &plan, config);
        let row = hfqo::exec::execute_rows(&db.db, &graph, &plan, config);
        match (batch, row) {
            (Ok(b), Ok(r)) => {
                let mut bs = b.rows;
                let mut rs = r.rows;
                bs.sort();
                rs.sort();
                prop_assert_eq!(bs, rs);
                prop_assert_eq!(b.stats.work, r.stats.work);
            }
            (
                Err(hfqo::exec::ExecError::BudgetExceeded { .. }),
                Err(hfqo::exec::ExecError::BudgetExceeded { .. }),
            ) => {}
            (b, r) => prop_assert!(
                false,
                "engines disagree: batch {:?} vs row {:?}",
                b.map(|o| o.rows.len()),
                r.map(|o| o.rows.len())
            ),
        }
    }

    /// The estimated cardinality of a join subset never increases when a
    /// selection is added to the query.
    #[test]
    fn selections_never_increase_estimates(
        n in 2usize..6,
        qseed in 0u64..50,
    ) {
        let db = synth();
        let with_sel = db.query(Shape::Chain, n, 1, qseed);
        let without_sel = db.query(Shape::Chain, n, 0, qseed);
        let est = EstimatedCardinality::new(&db.stats);
        let a = est.set_rows(&with_sel, with_sel.all_rels());
        let b = est.set_rows(&without_sel, without_sel.all_rels());
        prop_assert!(a <= b * 1.0001, "with sel {a} vs without {b}");
    }

    /// Any legal sequence of forest merges produces a tree covering all
    /// relations, after exactly n−1 merges.
    #[test]
    fn forest_merges_always_terminate(
        n in 2usize..10,
        seed in 0u64..100,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut forest = Forest::initial(n);
        let mut merges = 0;
        while !forest.is_terminal() {
            let len = forest.len();
            let x = rand::Rng::gen_range(&mut rng, 0..len);
            let mut y = rand::Rng::gen_range(&mut rng, 0..len);
            while y == x {
                y = rand::Rng::gen_range(&mut rng, 0..len);
            }
            prop_assert!(forest.merge(x, y));
            merges += 1;
        }
        prop_assert_eq!(merges, n - 1);
        let tree = forest.into_tree().expect("terminal");
        prop_assert_eq!(tree.rel_set(), RelSet::full(n));
        prop_assert_eq!(tree.leaf_count(), n);
    }

    /// Featurised states are always finite, correctly sized, and masks
    /// always expose at least one action on non-terminal forests.
    #[test]
    fn featurization_is_well_formed(
        n in 2usize..7,
        merges in 0usize..3,
        seed in 0u64..50,
    ) {
        let db = synth();
        let graph = db.query(Shape::Chain, n, 2, seed);
        let est = EstimatedCardinality::new(&db.stats);
        let featurizer = Featurizer::new(7);
        let mut forest = Forest::initial(n);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..merges.min(n.saturating_sub(2)) {
            let len = forest.len();
            let x = rand::Rng::gen_range(&mut rng, 0..len);
            let y = (x + 1) % len;
            forest.merge(x, y);
        }
        let mut features = Vec::new();
        featurizer.featurize(&graph, &forest, &est, &mut features);
        prop_assert_eq!(features.len(), featurizer.state_dim());
        prop_assert!(features.iter().all(|f| f.is_finite()));
        prop_assert!(features.iter().all(|&f| (0.0..=1.0).contains(&f)));
        if !forest.is_terminal() {
            let mut mask = Vec::new();
            featurizer.action_mask(&graph, &forest, false, &mut mask);
            prop_assert_eq!(mask.len(), featurizer.action_dim());
            prop_assert!(mask.iter().any(|&m| m));
        }
    }

    /// Reward scaling is monotone: slower plans never score a lower
    /// scaled value than faster ones.
    #[test]
    fn reward_scaler_is_monotone(
        c1 in 1.0f64..1e4,
        c2 in 1.0f64..1e4,
        l1 in 0.1f64..1e3,
        spread in 1.01f64..10.0,
        probe_a in 0.1f64..1e4,
        probe_b in 0.1f64..1e4,
    ) {
        let mut scaler = RewardScaler::new();
        scaler.observe(c1, l1);
        scaler.observe(c2, l1 * spread);
        prop_assert!(scaler.is_ready());
        let (lo, hi) = if probe_a <= probe_b { (probe_a, probe_b) } else { (probe_b, probe_a) };
        prop_assert!(scaler.scale(lo) <= scaler.scale(hi) + 1e-9);
    }
}
