//! The experiment harness: regenerates every figure, claim table and
//! committed report.
//!
//! Run `harness` with no arguments (or any unknown verb) for the
//! generated usage listing — it and the dispatcher both read
//! [`paper::MODELLED`] and [`LEGS`], so the listing can never drift.

use std::fmt::Write as _;
use std::path::Path;

use sensorcer_bench::legs::{parse_seed, Leg, LEGS};
use sensorcer_bench::{paper, DEFAULT_SEED};

fn usage() -> ! {
    let mut rows = vec![(
        "<experiment> [seed]".to_string(),
        format!(
            "print one paper figure or claim table ({}, or `all`)",
            paper::MODELLED.join(" ")
        ),
    )];
    for leg in LEGS {
        rows.push((format!("{} [seed] [out]", leg.verb), leg.about.to_string()));
    }
    let width = rows.iter().map(|(h, _)| h.len()).max().unwrap_or(0);
    let mut out = String::from("usage: harness <subcommand> [args]\n\nsubcommands:\n");
    for (head, desc) in &rows {
        let _ = writeln!(out, "  {head:<width$}  {desc}");
    }
    let _ = writeln!(
        out,
        "\nnotes:\n  seeds default to {DEFAULT_SEED}\n  [out] defaults to the verb's committed \
         report, and only on the default seed"
    );
    for leg in LEGS {
        if let Some(ext) = leg.side_ext {
            let _ = writeln!(
                out,
                "  `harness {}` also writes [out] with its extension replaced by .{ext}",
                leg.verb
            );
        }
    }
    eprint!("{out}");
    std::process::exit(2);
}

/// Run `leg` on `seed`, write its report to `out` and its side output
/// beside it; the transcript, `Err` when the run failed or a file could
/// not be written.
fn write(leg: &Leg, seed: u64, out: &str) -> Result<String, String> {
    let run = (leg.run)(seed);
    let mut transcript = run.transcript;
    std::fs::write(out, run.report.render()).map_err(|e| format!("cannot write {out}: {e}"))?;
    let mut wrote = out.to_string();
    if let (Some(ext), Some(side)) = (leg.side_ext, &run.side) {
        let path = Path::new(out).with_extension(ext);
        std::fs::write(&path, side).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let _ = write!(wrote, " and {}", path.display());
    }
    let _ = writeln!(transcript, "wrote {wrote}");
    for f in &run.failures {
        let _ = writeln!(transcript, "{f}");
    }
    if run.failures.is_empty() {
        Ok(transcript)
    } else {
        Err(transcript)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let which = args.first().map(String::as_str).unwrap_or_else(|| usage());

    if let Some(leg) = LEGS.iter().find(|l| l.verb == which) {
        let (seed, out) = leg.args(&args[1..]).unwrap_or_else(|e| {
            eprintln!("{e}\n");
            usage();
        });
        match write(leg, seed, &out) {
            Ok(transcript) => print!("{transcript}"),
            Err(e) => {
                eprint!("{e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let seed = parse_seed(args.get(1)).unwrap_or_else(|e| {
        eprintln!("{e}\n");
        usage();
    });
    let ids: Vec<&str> = match which {
        "all" => paper::MODELLED.to_vec(),
        id => vec![id],
    };
    for (i, id) in ids.iter().enumerate() {
        let Some(text) = paper::render(id, seed) else {
            eprintln!("unknown subcommand '{which}'\n");
            usage();
        };
        if i > 0 {
            println!();
        }
        print!("{text}");
    }
}
