//! The paper's figures and §4/§5 experiments, one subcommand each:
//!
//! ```sh
//! cargo run --release -p hfqo_bench -- fig3a --quick --seed 7
//! ```
//!
//! [`EXPERIMENTS`] is the only list of them: dispatch and `--help` both
//! read it. Every experiment takes `--seed N` and `--quick` (small
//! workload, short training; the default) or `--full` (paper-scale), and
//! prints its table to stdout.

#![forbid(unsafe_code)]

use hfqo_bench::experiments::{
    bootstrap_exp, common, fig3a, fig3b, fig3c, incremental_exp, latency_overhead, lfd, naive,
    Scale,
};
use hfqo_bench::report::{pct, render_table};
use hfqo_bench::RunArgs;
use hfqo_workload::WorkloadBundle;

/// One experiment the binary can run.
struct Experiment {
    /// Subcommand.
    name: &'static str,
    /// What it reproduces.
    artifact: &'static str,
    /// Whether it trains through `train_parallel` and so takes
    /// `--workers`; the phase-interleaved trainers collect sequentially.
    workers: bool,
    run: fn(RunArgs),
}

const EXPERIMENTS: [Experiment; 8] = [
    Experiment {
        name: "fig3a",
        artifact: "Figure 3a — ReJOIN convergence vs episodes",
        workers: true,
        run: run_fig3a,
    },
    Experiment {
        name: "fig3b",
        artifact: "Figure 3b — per-query plan cost, expert vs trained ReJOIN",
        workers: true,
        run: run_fig3b,
    },
    Experiment {
        name: "fig3c",
        artifact: "Figure 3c — planning time vs relation count",
        workers: true,
        run: run_fig3c,
    },
    Experiment {
        name: "naive",
        artifact: "§4 \"Search Space Size\" — full-space tabula rasa ≈ random",
        workers: true,
        run: run_naive,
    },
    Experiment {
        name: "latency-overhead",
        artifact: "§4 \"Performance Evaluation Overhead\"",
        workers: true,
        run: run_latency_overhead,
    },
    Experiment {
        name: "lfd",
        artifact: "§5.1 learning from demonstration",
        workers: false,
        run: run_lfd,
    },
    Experiment {
        name: "bootstrap",
        artifact: "§5.2 cost-model bootstrapping (+ scaling ablation)",
        workers: false,
        run: run_bootstrap,
    },
    Experiment {
        name: "incremental",
        artifact: "§5.3 pipeline / relations / hybrid curricula",
        workers: false,
        run: run_incremental,
    },
];

/// What the command line asked for.
enum Command {
    Help,
    Run(&'static Experiment, RunArgs),
}

/// Parses `<experiment> [--seed N] [--quick|--full] [--workers N]`
/// (without `argv[0]`); the error is a one-line usage message.
fn parse(mut args: impl Iterator<Item = String>) -> Result<Command, String> {
    let name = args.next().ok_or("missing experiment; --help lists them")?;
    if name == "--help" || name == "-h" {
        return Ok(Command::Help);
    }
    let exp = EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| format!("unknown experiment `{name}`; --help lists them"))?;
    let mut run = RunArgs::default();
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} requires a value"));
        match arg.as_str() {
            "--seed" => {
                let v = value()?;
                run.seed = v.parse().map_err(|_| format!("invalid seed `{v}`"))?;
            }
            "--full" => run.full = true,
            "--quick" => run.full = false,
            "--workers" if !exp.workers => {
                return Err(format!(
                    "`{name}` collects episodes sequentially and takes no --workers"
                ))
            }
            "--workers" => {
                let v = value()?;
                run.workers = v
                    .parse::<usize>()
                    .map_err(|_| format!("invalid worker count `{v}`"))?
                    .max(1);
            }
            "--help" | "-h" => return Ok(Command::Help),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Command::Run(exp, run))
}

fn help() -> String {
    let usage = "usage: hfqo_bench <experiment> [--seed N] [--quick|--full] [--workers N]";
    let list = table(
        &["experiment", "paper artifact", "--workers"],
        &EXPERIMENTS,
        |e| {
            let workers = if e.workers { "yes" } else { "no" };
            vec![e.name.into(), e.artifact.into(), workers.into()]
        },
    );
    format!("{usage}\n\n{list}")
}

fn main() {
    match parse(std::env::args().skip(1)) {
        Ok(Command::Help) => print!("{}", help()),
        Ok(Command::Run(exp, args)) => {
            let scale = if args.full { "full" } else { "quick" };
            eprintln!(
                "{}: {} (seed {}, {scale}) ...",
                exp.name, exp.artifact, args.seed
            );
            (exp.run)(args);
        }
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// The IMDB + JOB-like bundle of a run. The latency-reward experiments
/// simulate a latency per episode, which is their bottleneck: a quick
/// run caps their queries at 8 relations.
fn bundle(args: RunArgs, latency_reward: bool) -> WorkloadBundle {
    let bundle = common::imdb_bundle(Scale::from_args(args), args.seed);
    if latency_reward && !args.full {
        common::cap_query_size(bundle, 8)
    } else {
        bundle
    }
}

/// Renders one table row per item.
fn table<T>(headers: &[&str], items: &[T], row: impl Fn(&T) -> Vec<String>) -> String {
    let rows: Vec<Vec<String>> = items.iter().map(row).collect();
    render_table(headers, &rows)
}

/// Prints a two-column table.
fn print_pairs(headers: [&str; 2], rows: &[(&str, String)]) {
    let pairs = table(&headers, rows, |(k, v)| vec![k.to_string(), v.clone()]);
    println!("{pairs}");
}

fn run_fig3a(args: RunArgs) {
    let scale = Scale::from_args(args);
    let (result, _agent) = fig3a::run(&bundle(args, false), scale, args.seed, args.workers);

    println!(
        "# Figure 3a — ReJOIN convergence (cost relative to expert, MA window {})",
        scale.ma_window
    );
    let headers = ["episode", "ma_cost_rel_expert"];
    let series = table(&headers, &result.series, |(ep, r)| {
        vec![ep.to_string(), pct(*r)]
    });
    println!("{series}");
    println!("initial ratio : {}", pct(result.initial_ratio));
    println!("final ratio   : {}", pct(result.final_ratio));
    match result.convergence_episode {
        Some(ep) => println!("reached expert parity at episode {ep}"),
        None => println!(
            "did not reach expert parity within {} episodes",
            result.episodes
        ),
    }
}

fn run_fig3b(args: RunArgs) {
    let bundle = bundle(args, false);
    let (_conv, agent) = fig3a::run(&bundle, Scale::from_args(args), args.seed, args.workers);
    let result = fig3b::run(&bundle, &agent);

    println!("# Figure 3b — optimizer cost of final plans (expert vs trained ReJOIN)");
    let headers = ["query", "expert_cost", "rejoin_cost", "ratio"];
    let costs = table(&headers, &result.rows, |r| {
        vec![
            r.label.clone(),
            format!("{:.1}", r.expert_cost),
            format!("{:.1}", r.rejoin_cost),
            format!("{:.3}", r.rejoin_cost / r.expert_cost),
        ]
    });
    println!("{costs}");
    println!(
        "ReJOIN at-or-below expert on {}/{} queries",
        result.wins_or_ties,
        result.rows.len()
    );
}

fn run_fig3c(args: RunArgs) {
    let (rows_per_table, train_episodes) = if args.full {
        (2_000, 3_000)
    } else {
        (500, 600)
    };
    let result = fig3c::run(rows_per_table, train_episodes, args.seed, args.workers);

    println!("# Figure 3c — planning time (µs) vs number of relations");
    let headers = ["relations", "expert_us", "rejoin_us"];
    let times = table(&headers, &result.rows, |r| {
        vec![
            r.relations.to_string(),
            format!("{:.1}", r.expert_us),
            format!("{:.1}", r.rejoin_us),
        ]
    });
    println!("{times}");
    let faster = &result.rejoin_faster_at;
    println!("ReJOIN plans faster than the expert at relation counts {faster:?}");
}

fn run_naive(args: RunArgs) {
    let scale = Scale::from_args(args);
    let result = naive::run(&bundle(args, false), scale, args.seed, args.workers);

    println!(
        "# §4 Search Space Size — final cost relative to expert after {} episodes",
        result.episodes
    );
    print_pairs(
        ["approach", "cost_rel_expert"],
        &[
            ("join-order only (ReJOIN)", pct(result.join_order_ratio)),
            ("full plan space (naive)", pct(result.full_space_ratio)),
            ("random plans", pct(result.random_ratio)),
        ],
    );
}

fn run_latency_overhead(args: RunArgs) {
    let scale = Scale::from_args(args);
    let r = latency_overhead::run(&bundle(args, true), scale, args.seed, args.workers);

    println!("# §4 Performance Evaluation Overhead — latency-as-reward training bill");
    let secs = |s: f64| format!("{s:.1} s");
    print_pairs(
        ["metric", "value"],
        &[
            ("total simulated execution", secs(r.latency_training_exec_s)),
            ("first training quarter", secs(r.first_quarter_exec_s)),
            ("last training quarter", secs(r.last_quarter_exec_s)),
            (
                "catastrophic episodes (>100× expert)",
                r.catastrophic_episodes.to_string(),
            ),
            ("worst single plan", format!("{:.1} ms", r.worst_ms)),
            ("expert mean latency", format!("{:.2} ms", r.expert_mean_ms)),
            ("final cost ratio", format!("{:.2}", r.final_ratio)),
        ],
    );
}

fn run_lfd(args: RunArgs) {
    let r = lfd::run(&bundle(args, true), Scale::from_args(args), args.seed);

    println!(
        "# §5.1 Learning from Demonstration — {} fine-tuning episodes",
        r.lfd_episodes
    );
    let ratio = |x: f64| format!("{x:.2}");
    let ms = |x: f64| format!("{x:.1} ms");
    print_pairs(
        ["metric", "value"],
        &[
            ("LfD final cost ratio", ratio(r.lfd_final_ratio)),
            ("tabula-rasa final cost ratio", ratio(r.tabula_final_ratio)),
            ("LfD worst latency", ms(r.lfd_worst_ms)),
            ("tabula-rasa worst latency", ms(r.tabula_worst_ms)),
            ("LfD slip re-trainings", r.lfd_retrains.to_string()),
            ("expert mean latency", format!("{:.2} ms", r.expert_mean_ms)),
        ],
    );
}

fn run_bootstrap(args: RunArgs) {
    let result = bootstrap_exp::run(&bundle(args, true), Scale::from_args(args), args.seed);

    println!(
        "# §5.2 Cost-Model Bootstrapping — phase switch at episode {}",
        result.phase1_episodes
    );
    let headers = [
        "phase-2 reward",
        "ratio_before",
        "worst_after_switch",
        "final",
    ];
    let runs = table(&headers, &[&result.scaled, &result.unscaled], |r| {
        let reward = if r.scaled {
            "scaled (r_l formula)"
        } else {
            "raw latency"
        };
        vec![
            reward.to_string(),
            format!("{:.2}", r.ratio_before_switch),
            format!("{:.2}", r.worst_ratio_after_switch),
            format!("{:.2}", r.final_ratio),
        ]
    });
    println!("{runs}");
    let (c_min, c_max) = result.scaled.cost_range;
    let (l_min, l_max) = result.scaled.latency_range;
    println!(
        "observed phase-1 ranges: cost {c_min:.1}..{c_max:.1}, latency {l_min:.2}..{l_max:.2} ms"
    );
}

fn run_incremental(args: RunArgs) {
    let result = incremental_exp::run(Scale::from_args(args), args.seed);

    println!("# §5.3 Incremental Learning — full-task cost ratio after equal budgets");
    let headers = ["curriculum", "phases", "full_task_ratio"];
    let curricula = table(&headers, &result.rows, |r| {
        vec![
            r.curriculum.clone(),
            r.phases.to_string(),
            format!("{:.2}", r.full_task_ratio),
        ]
    });
    println!("{curricula}");
    println!(
        "({} queries, {} episodes per curriculum)",
        result.queries, result.total_episodes
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_words(words: &[&str]) -> Result<Command, String> {
        parse(words.iter().map(|s| s.to_string()))
    }

    /// The run a command line resolves to; panics on help or an error.
    fn run_of(words: &[&str]) -> (&'static str, RunArgs) {
        match parse_words(words) {
            Ok(Command::Run(exp, args)) => (exp.name, args),
            Ok(Command::Help) => panic!("{words:?} asked for help"),
            Err(msg) => panic!("{words:?}: {msg}"),
        }
    }

    #[test]
    fn every_row_dispatches_under_a_unique_name_that_help_lists() {
        let help = help();
        for (i, exp) in EXPERIMENTS.iter().enumerate() {
            assert_eq!(run_of(&[exp.name]), (exp.name, RunArgs::default()));
            assert!(help.contains(exp.name), "--help omits {}", exp.name);
            assert!(
                EXPERIMENTS[..i].iter().all(|e| e.name != exp.name),
                "{} is listed twice",
                exp.name
            );
            assert!(matches!(
                parse_words(&[exp.name, "--help"]),
                Ok(Command::Help)
            ));
        }
        assert!(matches!(parse_words(&["--help"]), Ok(Command::Help)));
        assert!(matches!(parse_words(&["-h"]), Ok(Command::Help)));

        let defaults = RunArgs::default();
        assert_eq!(
            (defaults.seed, defaults.full, defaults.workers),
            (42, false, 1)
        );
        let (_, a) = run_of(&["fig3a", "--seed", "7", "--full"]);
        assert_eq!((a.seed, a.full), (7, true));
        let (_, b) = run_of(&["fig3a", "--full", "--quick"]);
        assert!(!b.full);
    }

    #[test]
    fn workers_is_taken_exactly_by_the_rows_that_declare_it() {
        for exp in &EXPERIMENTS {
            let parsed = parse_words(&[exp.name, "--workers", "2"]);
            match parsed {
                Ok(Command::Run(_, args)) => {
                    assert!(exp.workers, "{} took --workers", exp.name);
                    assert_eq!(args.workers, 2);
                }
                Ok(Command::Help) => panic!("{} printed help", exp.name),
                Err(msg) => {
                    assert!(!exp.workers, "{} refused --workers: {msg}", exp.name);
                    assert!(msg.contains(exp.name) && !msg.contains('\n'));
                }
            }
        }
        let sequential: Vec<&str> = EXPERIMENTS
            .iter()
            .filter(|e| !e.workers)
            .map(|e| e.name)
            .collect();
        assert_eq!(sequential, ["lfd", "bootstrap", "incremental"]);

        assert_eq!(run_of(&["naive", "--workers", "4"]).1.workers, 4);
        // Zero coerces to the sequential trainer.
        assert_eq!(run_of(&["naive", "--workers", "0"]).1.workers, 1);
        assert!(parse_words(&["naive", "--workers"]).is_err());
        assert!(parse_words(&["naive", "--workers", "x"]).is_err());
    }

    #[test]
    fn unknown_subcommands_and_flags_are_one_line_errors() {
        for words in [
            &[][..],
            &["fig3d"],
            &["exp_lfd"],
            &["--seed", "3"],
            &["fig3c", "--wat"],
            &["fig3c", "--seed"],
            &["fig3c", "--seed", "x"],
            &["fig3c", "lfd"],
        ] {
            match parse_words(words) {
                Err(msg) => assert!(!msg.is_empty() && !msg.contains('\n'), "{msg:?}"),
                Ok(_) => panic!("{words:?} was accepted"),
            }
        }
    }
}
