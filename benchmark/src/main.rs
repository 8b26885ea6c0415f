//! `yardstick` — the federated-read benchmark.
//!
//! One process runs one workload:
//!
//! ```text
//! yardstick --workload flat_read --seed 42 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics (a count pass with the
//! counting allocator on, then set-up timed five times, then the timing
//! pass); `--trace 1` reports the per-layer metrics (a reference pass, a
//! traced pass with the layer probes replayed after every 16th op, and the
//! probe-overhead passes). `--check` runs the workload on scripted sensors
//! and asserts its answers instead of timing them. The last line of
//! standard output is the result as one JSON object; `README.md` defines
//! every metric.

mod alloc;
mod calibrate;
mod gen;
mod json;
mod passes;
mod probes;
mod report;
mod stats;
mod trace;
mod worlds;

use std::process::ExitCode;

use worlds::Workload;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub check: bool,
    /// Warm-up and count-pass ops divided by 20 and one set-up instead of
    /// five, for a quick look; the frozen numbers do not apply.
    pub smoke: bool,
}

const USAGE: &str =
    "usage: yardstick --workload <flat_read|tree_read|tenant_storm|registry_churn|mote_scale> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--check] [--smoke]\n       \
                     yardstick compare <a.json> <b.json>";

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::FlatRead,
        seed: 42,
        seconds: 10.0,
        trace: false,
        check: false,
        smoke: false,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(name).ok_or_else(|| format!("no workload '{name}'"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--check" => args.check = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, a, b] => report::compare_files(a, b),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("yardstick: {why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.check {
        return match passes::check(&args) {
            Ok(ops) => {
                println!("{}: check passed over {ops} ops", args.workload.name());
                ExitCode::SUCCESS
            }
            Err(why) => {
                eprintln!("{}: check FAILED: {why}", args.workload.name());
                ExitCode::FAILURE
            }
        };
    }
    let result = if args.trace {
        passes::per_layer(&args)
    } else {
        passes::end_to_end(&args)
    };
    report::emit(&args, &result);
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = parse(&argv(
            "--workload mote_scale --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::MoteScale);
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.check),
            (7, 10.0, true, false)
        );
    }

    #[test]
    fn rejects_what_it_does_not_understand() {
        assert!(parse(&argv("--seed 7")).is_err(), "workload is required");
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--workload flat_read --trace 2")).is_err());
        assert!(parse(&argv("--workload flat_read --seconds 0")).is_err());
        assert!(parse(&argv("--workload flat_read --seed")).is_err());
        assert!(parse(&argv("--workload flat_read --frobnicate")).is_err());
    }
}
