//! The report legs: one row per committed `*_1.json` report. `harness`
//! builds its usage listing and dispatch from [`LEGS`], and
//! `tests/committed_artifacts.rs` regenerates every row on
//! [`DEFAULT_SEED`] and holds it byte for byte to the committed file, so
//! a new report is one row here and nothing else.

use sensorcer_trace::json::Json;

use crate::chaos::{run_soak_observed, SoakConfig};
use crate::obs::run_obs;
use crate::perfetto::export_storm;
use crate::storm::{StormConfig, StormRun};
use crate::trace::{self, TRACE_CAPACITY};
use crate::verify::run_verify;
use crate::{paper, DEFAULT_SEED};

/// What one leg's run left behind. Nothing is written yet: the harness
/// writes `report` (and `side`, beside it) and exits nonzero on any
/// failure; the regeneration test compares the bytes instead.
pub struct LegRun {
    pub report: Json,
    /// One line per problem the run found in itself; empty on a pass.
    pub failures: Vec<String>,
    /// What the harness prints.
    pub transcript: String,
    /// A second output too large or too binary to commit: `harness
    /// chaos`'s span export, `harness storm`'s protobuf stream.
    pub side: Option<Vec<u8>>,
}

impl LegRun {
    /// A run with no side output; each failure is `label: item`.
    fn new<T: std::fmt::Display>(
        report: Json,
        transcript: String,
        label: &str,
        failures: &[T],
    ) -> LegRun {
        LegRun {
            report,
            failures: failures.iter().map(|f| format!("{label}: {f}")).collect(),
            transcript,
            side: None,
        }
    }

    /// This run with `member` added to its report before the closing
    /// `passed`, which then also requires `problems` to be empty; each
    /// problem becomes a failure `label: problem`, and `side` the side
    /// output.
    fn with_member(
        mut self,
        (key, member): (&str, Json),
        (label, problems): (&str, &[String]),
        side: Vec<u8>,
    ) -> LegRun {
        let Json::Obj(members) = &mut self.report else {
            unreachable!("a report is an object")
        };
        let passed = members.pop().is_some_and(|(_, v)| v == Json::Bool(true));
        members.push((key.into(), member));
        members.push(("passed".into(), (passed && problems.is_empty()).into()));
        self.failures
            .extend(problems.iter().map(|p| format!("{label}: {p}")));
        self.side = Some(side);
        self
    }
}

/// One committed report and the run that writes it.
pub struct Leg {
    /// `harness <verb> [seed] [out]`.
    pub verb: &'static str,
    /// The committed report, at the repo root.
    pub file: &'static str,
    /// Dotted paths the report must hold; through an array, every element.
    pub required: &'static [&'static str],
    pub about: &'static str,
    /// The extension [`LegRun::side`] is written under, beside the report.
    pub side_ext: Option<&'static str>,
    pub run: fn(u64) -> LegRun,
}

pub const LEGS: &[Leg] = &[
    Leg {
        verb: "chaos",
        file: "CHAOS_1.json",
        required: &[
            "reads",
            "injected",
            "violations",
            "reconverged",
            "trace.roots",
            "trace.fnv64",
            "trace.problems",
        ],
        about: "seeded fault-injection soak over degraded-mode federated reads, \
                traced and its trace validated",
        side_ext: Some("spans.json"),
        run: chaos,
    },
    Leg {
        verb: "verify",
        file: "VERIFY_1.json",
        required: &["scenarios", "distinct_schedules", "mutation"],
        about: "DPOR-lite schedule exploration + buggy-reaper mutation check",
        side_ext: None,
        run: |seed| {
            let r = run_verify(seed);
            let mut failures: Vec<String> =
                r.violations().map(|(s, v)| format!("{s}: {v}")).collect();
            if !r.passed() {
                failures.push("verify: FAIL (see the totals above)".into());
            }
            LegRun::new(r.json(), r.summary(), "violation", &failures)
        },
    },
    Leg {
        verb: "obs",
        file: "OBS_1.json",
        // Every storm alert carries its exemplars.
        required: &["storm_slos.alerts.exemplars", "clean_slos", "ops"],
        about: "SLO burn-rate alerting over the chaos soak",
        side_ext: None,
        run: |seed| {
            let r = run_obs(seed);
            LegRun::new(r.json(), r.summary(), "problem", &r.problems)
        },
    },
    Leg {
        verb: "storm",
        file: "STORM_1.json",
        required: &[
            "critical",
            "bulk",
            "admission",
            "breaker",
            "scaling",
            "perfetto.fnv64",
            "perfetto.tracks",
            "perfetto.flows",
            "perfetto.sampler_ticks",
        ],
        about: "tenant storm: admission control, breaker lifecycle, autoscaler; \
                exported as a Perfetto trace and validated",
        side_ext: Some("perfetto-trace"),
        run: storm,
    },
    Leg {
        verb: "paper",
        file: "PAPER_1.json",
        required: paper::MODELLED,
        about: "every modelled paper figure and claim table",
        side_ext: None,
        run: paper::leg,
    },
];

/// The chaos soak with the flight recorder on (tracing changes nothing in
/// the soak's report) and the trace's health checks as its `trace`
/// member; the span export is the side output.
fn chaos(seed: u64) -> LegRun {
    let cfg = SoakConfig {
        trace_capacity: Some(TRACE_CAPACITY),
        ..SoakConfig::new(seed)
    };
    let (r, recorder) = run_soak_observed(&cfg, None);
    let recorder = recorder.expect("trace_capacity was set, recorder must exist");
    let verdict = trace::check(&recorder);
    let export = recorder.to_json();
    let transcript = r.summary() + &verdict.summary();
    LegRun::new(r.json(), transcript, "violation", &r.violations).with_member(
        ("trace", verdict.json(&export)),
        ("trace problem", &verdict.problems),
        export.into_bytes(),
    )
}

/// The tenant storm with a telemetry sampler attached (it only reads the
/// registry, so the storm's report is unchanged), exported to Perfetto;
/// the export's summary is the `perfetto` member and the protobuf stream
/// the side output.
fn storm(seed: u64) -> LegRun {
    let (bytes, p, StormRun { report: r, .. }) = export_storm(&StormConfig::new(seed));
    let transcript = r.summary() + &p.summary();
    LegRun::new(r.json(), transcript, "violation", &r.violations).with_member(
        ("perfetto", p.json()),
        ("perfetto problem", &p.problems),
        bytes,
    )
}

/// An optional seed argument: [`DEFAULT_SEED`] when absent.
pub fn parse_seed(arg: Option<&String>) -> Result<u64, String> {
    arg.map_or(Ok(DEFAULT_SEED), |s| {
        s.parse()
            .map_err(|_| format!("seed must be an integer, got '{s}'"))
    })
}

impl Leg {
    /// The seed and report path of `harness <verb> [seed] [out]`, from
    /// the arguments after the verb. Without `[out]` the report goes to
    /// the committed file, and only on [`DEFAULT_SEED`]: any other seed
    /// must name its own path, so it never overwrites a committed report.
    pub fn args(&self, args: &[String]) -> Result<(u64, String), String> {
        let seed = parse_seed(args.first())?;
        match args.get(1) {
            Some(out) => Ok((seed, out.clone())),
            None if seed == DEFAULT_SEED => Ok((seed, self.file.to_string())),
            None => Err(format!(
                "seed {seed} is not the default {DEFAULT_SEED}: name an [out] path \
                 ({} holds the default seed's report)",
                self.file
            )),
        }
    }
}
