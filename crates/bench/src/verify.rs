//! `harness verify`: the schedule-exploration gate.
//!
//! Drives the DPOR-lite explorer from `sensorcer-verify` over the three
//! clean federation scenarios — lease churn, provisioning failover,
//! degraded reads — sampling schedules under three derived seeds per
//! scenario, holding each run to its scenario's invariants, with one
//! trace-transparency check per scenario. Distinct schedules
//! are counted by unioning choice-vector hashes across seeds, so the
//! headline number never double counts the FIFO baseline each sampling
//! pass revisits.
//!
//! The same pass runs the *mutation* check: the intentionally buggy
//! [`BuggyReaper`](sensorcer_verify::scenarios::BuggyReaper) scenario —
//! a lease renewal and an over-eager reaper co-scheduled at the same
//! instant — must look clean under FIFO and be caught by exploration,
//! both exhaustively and under each of three pinned sampling seeds. A
//! verifier that cannot re-find a known ordering bug proves nothing
//! about the clean scenarios.
//!
//! `harness verify [seed] [out.json]` writes `VERIFY_1.json` and exits
//! nonzero on any violation, a missed mutation, or coverage below the
//! distinct-schedule floor.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use sensorcer_trace::json::Json;
use sensorcer_verify::explore::{
    explore, run_one, ChoicePolicy, ExploreConfig, ExploreReport, Scenario,
};
use sensorcer_verify::scenarios::{BuggyReaper, DegradedRead, LeaseChurn, ProvisionFailover};

/// Distinct schedules the clean scenarios must reach in total.
pub const DISTINCT_FLOOR: usize = 1000;

/// Pinned sampling seeds for the mutation check — fixed forever so a
/// detection regression cannot hide behind seed drift.
pub const MUTATION_SEEDS: [u64; 3] = [11, 23, 47];

/// Sampled schedules per (scenario, seed) pass.
const SAMPLE_BUDGET: usize = 140;

/// Schedules the mutation check may spend per attempt.
const MUTATION_BUDGET: usize = 64;

/// splitmix64 — derives per-pass sampling seeds from the CLI seed.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Exploration totals for one clean scenario, unioned over its seeds.
#[derive(Clone, Debug, Default)]
pub struct ScenarioStats {
    pub name: String,
    pub schedules_run: usize,
    /// Union of distinct choice-vector hashes across all seed passes.
    pub distinct_schedules: usize,
    pub choice_points: u64,
    pub max_width: usize,
    pub violations: Vec<String>,
}

/// How the mutation check fared.
#[derive(Clone, Debug, Default)]
pub struct MutationStats {
    /// The bug must be invisible under FIFO, or it is not an *ordering*
    /// bug and the check is vacuous.
    pub fifo_clean: bool,
    pub detected_exhaustive: bool,
    /// Detection under each of [`MUTATION_SEEDS`].
    pub detected_by_seed: Vec<(u64, bool)>,
    /// First violation message the exhaustive pass produced.
    pub example: String,
}

impl MutationStats {
    pub fn passed(&self) -> bool {
        self.fifo_clean
            && self.detected_exhaustive
            && !self.detected_by_seed.is_empty()
            && self.detected_by_seed.iter().all(|&(_, d)| d)
    }
}

/// The whole `harness verify` result.
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    pub seed: u64,
    pub scenarios: Vec<ScenarioStats>,
    pub mutation: MutationStats,
}

impl VerifyReport {
    pub fn distinct_total(&self) -> usize {
        self.scenarios.iter().map(|s| s.distinct_schedules).sum()
    }

    pub fn schedules_run_total(&self) -> usize {
        self.scenarios.iter().map(|s| s.schedules_run).sum()
    }

    pub fn violations(&self) -> impl Iterator<Item = (&str, &String)> {
        self.scenarios
            .iter()
            .flat_map(|s| s.violations.iter().map(move |v| (s.name.as_str(), v)))
    }

    pub fn passed(&self) -> bool {
        self.violations().next().is_none()
            && self.distinct_total() >= DISTINCT_FLOOR
            && self.mutation.passed()
    }

    /// The `VERIFY_1.json` report.
    pub fn json(&self) -> Json {
        let scenarios = self.scenarios.iter().map(|s| {
            Json::obj([
                ("name", s.name.as_str().into()),
                ("schedules_run", s.schedules_run.into()),
                ("distinct_schedules", s.distinct_schedules.into()),
                ("choice_points", s.choice_points.into()),
                ("max_width", s.max_width.into()),
                ("violations", Json::arr(&s.violations)),
            ])
        });
        let m = &self.mutation;
        let by_seed = m.detected_by_seed.iter().map(|&(seed, detected)| {
            Json::obj([("seed", seed.into()), ("detected", detected.into())])
        });
        Json::report(
            [
                ("seed", self.seed.into()),
                ("distinct_floor", DISTINCT_FLOOR.into()),
                ("schedules_run", self.schedules_run_total().into()),
                ("distinct_schedules", self.distinct_total().into()),
                ("scenarios", Json::arr(scenarios)),
                (
                    "mutation",
                    Json::obj([
                        ("scenario", "buggy-reaper".into()),
                        ("fifo_clean", m.fifo_clean.into()),
                        ("detected_exhaustive", m.detected_exhaustive.into()),
                        ("detected_by_seed", Json::arr(by_seed)),
                        ("example", m.example.as_str().into()),
                    ]),
                ),
            ],
            self.passed(),
        )
    }

    /// Human transcript, one line per scenario plus the mutation verdict.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for s in &self.scenarios {
            let _ = writeln!(
                out,
                "verify {:<20} {:>4} schedules ({:>4} distinct), {} choice points (max width {}) — {}",
                s.name,
                s.schedules_run,
                s.distinct_schedules,
                s.choice_points,
                s.max_width,
                if s.violations.is_empty() {
                    "clean".to_string()
                } else {
                    format!("{} VIOLATIONS", s.violations.len())
                }
            );
        }
        let m = &self.mutation;
        let _ = writeln!(
            out,
            "verify buggy-reaper mutation: fifo {}, exhaustive {}, seeds {} — {}",
            if m.fifo_clean {
                "clean (as required)"
            } else {
                "DIRTY"
            },
            if m.detected_exhaustive {
                "caught"
            } else {
                "MISSED"
            },
            m.detected_by_seed
                .iter()
                .map(|(s, d)| format!("{s}:{}", if *d { "caught" } else { "MISSED" }))
                .collect::<Vec<_>>()
                .join(" "),
            if m.passed() { "PASS" } else { "FAIL" }
        );
        let _ = writeln!(
            out,
            "verify total: {} schedules explored, {} distinct (floor {}) — {}",
            self.schedules_run_total(),
            self.distinct_total(),
            DISTINCT_FLOOR,
            if self.passed() { "PASS" } else { "FAIL" }
        );
        out
    }
}

fn explore_scenario(scenario: &dyn Scenario, base_seed: u64) -> ScenarioStats {
    let mut stats = ScenarioStats {
        name: scenario.name().to_string(),
        ..Default::default()
    };
    let mut union: BTreeSet<u64> = BTreeSet::new();
    let mut seed = base_seed;
    for pass in 0..3 {
        seed = splitmix(seed);
        // Trace transparency is schedule-independent (FIFO vs FIFO); once
        // per scenario is enough.
        let cfg = ExploreConfig {
            check_tracing: pass == 0,
            ..ExploreConfig::sample(seed, SAMPLE_BUDGET)
        };
        let report: ExploreReport = explore(scenario, &cfg);
        stats.schedules_run += report.schedules_run;
        stats.choice_points += report.choice_points;
        stats.max_width = stats.max_width.max(report.max_width);
        stats.violations.extend(report.violations);
        union.extend(report.schedule_hashes);
    }
    stats.distinct_schedules = union.len();
    stats
}

fn check_mutation() -> MutationStats {
    let bug = BuggyReaper;
    let fifo = run_one(&bug, ChoicePolicy::Prefix(Vec::new()), false);
    let exhaustive = explore(
        &bug,
        &ExploreConfig {
            check_tracing: false,
            ..ExploreConfig::exhaustive(MUTATION_BUDGET)
        },
    );
    let detected_by_seed = MUTATION_SEEDS
        .iter()
        .map(|&s| {
            let r = explore(
                &bug,
                &ExploreConfig {
                    check_tracing: false,
                    ..ExploreConfig::sample(s, MUTATION_BUDGET)
                },
            );
            (s, !r.passed())
        })
        .collect();
    MutationStats {
        fifo_clean: fifo.violations.is_empty(),
        detected_exhaustive: !exhaustive.passed(),
        detected_by_seed,
        example: exhaustive.violations.first().cloned().unwrap_or_default(),
    }
}

/// Run the full verification pass.
pub fn run_verify(seed: u64) -> VerifyReport {
    let scenarios: [&dyn Scenario; 3] = [&LeaseChurn, &ProvisionFailover, &DegradedRead];
    VerifyReport {
        seed,
        scenarios: scenarios
            .iter()
            .map(|s| explore_scenario(*s, seed))
            .collect(),
        mutation: check_mutation(),
    }
}
