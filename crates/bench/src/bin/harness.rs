//! The experiment harness: regenerates every figure and claim table.
//!
//! Run `harness` with no arguments (or any unknown verb) for the
//! generated usage listing — the table below is the single source of
//! truth for what exists, so the listing can never drift from the
//! dispatcher.

use std::fmt::Write as _;

use sensorcer_bench::*;

/// A seeded harness pass that writes a JSON report to its second arg.
type SeededRunner = fn(u64, &str) -> Result<String, String>;

/// Paper figures/claim tables dispatched through [`run_one`].
const EXPERIMENTS: &[&str] = &[
    "fig1", "fig2", "fig3", "b1", "b2", "b3", "b4", "b5", "b7", "b8", "a1", "a2",
];

/// Seeded report-writing verbs: `harness <verb> [seed] [out]`.
/// One row per verb: name, runner, default output path, description.
const SEEDED: &[(&str, SeededRunner, &str, &str)] = &[
    (
        "chaos",
        chaos::run,
        chaos::DEFAULT_OUT,
        "seeded fault-injection soak over degraded-mode federated reads",
    ),
    (
        "trace",
        trace::run,
        trace::DEFAULT_OUT,
        "the chaos soak with the flight recorder on, trace validated",
    ),
    (
        "verify",
        verify::run,
        verify::DEFAULT_OUT,
        "DPOR-lite schedule exploration + buggy-reaper mutation check",
    ),
    (
        "obs",
        obs::run,
        obs::DEFAULT_OUT,
        "SLO burn-rate alerting and anomaly detection over the chaos soak",
    ),
    (
        "storm",
        storm::run,
        storm::DEFAULT_OUT,
        "tenant storm: admission control, breaker lifecycle, autoscaler",
    ),
    (
        "perfetto",
        perfetto::run,
        perfetto::DEFAULT_OUT,
        "the tenant storm exported as a Perfetto trace (buffered, validated)",
    ),
];

/// Every subcommand with its argument shape and a one-line description —
/// the usage listing is generated from this table.
fn subcommands() -> Vec<(String, &'static str)> {
    let mut rows = vec![(
        "<experiment> [seed]".to_string(),
        "regenerate one paper figure or claim table (fig1 fig2 fig3 b1-b5 b7 b8 a1 a2, or `all`)",
    )];
    for (name, _, default_out, desc) in SEEDED {
        rows.push((format!("{name} [seed] [out={default_out}]"), *desc));
    }
    rows
}

fn usage() -> ! {
    let rows = subcommands();
    let width = rows.iter().map(|(h, _)| h.len()).max().unwrap_or(0);
    let mut out = String::from("usage: harness <subcommand> [args]\n\nsubcommands:\n");
    for (head, desc) in &rows {
        let _ = writeln!(out, "  {head:<width$}  {desc}");
    }
    let _ = write!(
        out,
        "\nnotes:\n  seeds default to {DEFAULT_SEED}\n  `harness perfetto` also writes {}, \
         `harness trace` also writes its span export beside [out] as *.spans.json\n",
        perfetto::DEFAULT_SUMMARY
    );
    eprint!("{out}");
    std::process::exit(2);
}

fn run_one(which: &str, seed: u64) {
    match which {
        "fig1" => print!("{}", figs::fig1_architecture()),
        "fig2" => {
            let (out, _) = figs::fig2_deployment();
            print!("{out}");
        }
        "fig3" => {
            let o = figs::fig3_experiment();
            print!("{}", o.transcript);
            println!(
                "check: subnet={:.3}  network={:.3}  (expected network = (subnet + coral)/2)",
                o.subnet_value, o.network_value
            );
        }
        "b1" => print!("{}", b1_overhead::run(seed)),
        "b2" => print!("{}", b2_scalability::run(seed)),
        "b3" => print!("{}", b3_provisioning::run(seed)),
        "b4" => print!("{}", b4_failover::run(seed)),
        "b5" => print!("{}", b5_discovery::run(seed)),
        "b7" => print!("{}", b7_baselines::run(seed)),
        "b8" => print!("{}", b8_parallel::run()),
        "a1" => print!("{}", a1_ablation::run(seed)),
        "a2" => print!("{}", a2_energy::run(seed)),
        other => {
            eprintln!("unknown experiment '{other}'\n");
            usage();
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or_else(|| usage());

    // The seeded report-writers take an optional seed then an output
    // path; defaults come from the SEEDED table.
    if let Some((_, runner, default_out, _)) = SEEDED.iter().find(|(n, ..)| *n == which) {
        let seed = match args.get(1) {
            Some(s) => s.parse().unwrap_or_else(|_| {
                eprintln!("seed must be an integer, got '{s}'");
                usage();
            }),
            None => DEFAULT_SEED,
        };
        let out = args.get(2).map(String::as_str).unwrap_or(default_out);
        match runner(seed, out) {
            Ok(transcript) => print!("{transcript}"),
            Err(e) => {
                eprint!("{e}");
                std::process::exit(1);
            }
        }
        return;
    }

    if which != "all" && !EXPERIMENTS.contains(&which) {
        eprintln!("unknown subcommand '{which}'\n");
        usage();
    }

    let seed = match args.get(1) {
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("seed must be an integer, got '{s}'");
            usage();
        }),
        None => DEFAULT_SEED,
    };

    if which == "all" {
        for exp in EXPERIMENTS {
            run_one(exp, seed);
            println!();
        }
    } else {
        run_one(which, seed);
    }
}
