//! Trace health checks for the chaos soak's flight recorder.
//!
//! `harness chaos [seed] [out.json]` runs the [`crate::chaos`] soak with
//! the flight recorder on, then holds the trace to three standards; the
//! verdict and the span export's fingerprint are the report's `trace`
//! member (default `CHAOS_1.json`), and the full span export is written
//! beside it (`CHAOS_1.spans.json`, not committed):
//!
//! * **structure** — every span id unique, every parent present, every
//!   span closed, nothing dropped from the ring ([`FlightRecorder::validate`]);
//! * **explainability** — every top-level read that ended `degraded` or
//!   `error` must carry its own explanation in the subtree: a non-ok
//!   child span, or a retry / failover / substitution event. A degraded
//!   read whose trace cannot say *why* is a harness failure;
//! * **determinism** — span ids are sequence numbers and timestamps are
//!   virtual, so the exported JSON is bit-for-bit identical per seed
//!   (pinned by the tests here).

use std::collections::BTreeMap;

use sensorcer_sim::prelude::*;
use sensorcer_trace::json::Json;
use sensorcer_trace::perfetto::fnv64;

/// Ring capacity for the harness run: a default 600 s soak records a few
/// tens of thousands of spans, so this never wraps — and the checks fail
/// loudly if it ever does, because a wrapped ring can orphan children.
pub const TRACE_CAPACITY: usize = 262_144;

/// Events that count as an explanation for a degraded or failed read.
const EXPLAIN_EVENTS: [&str; 6] = [
    "retry.attempt",
    "retry.exhausted",
    "failover.attempt",
    "failover.success",
    "degradation.substitute",
    "degradation.missing",
];

/// What the trace checks found.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceCheck {
    pub spans: usize,
    pub events: usize,
    pub roots: usize,
    pub degraded_roots: usize,
    pub error_roots: usize,
    /// Structural or explainability failures; empty on a passing trace.
    pub problems: Vec<String>,
}

impl TraceCheck {
    pub fn passed(&self) -> bool {
        self.problems.is_empty()
    }

    /// The report's `trace` member: the verdict plus the length and
    /// FNV-1a fingerprint of the span `export`, which is too large to
    /// commit.
    pub fn json(&self, export: &str) -> Json {
        Json::obj([
            ("spans", self.spans.into()),
            ("events", self.events.into()),
            (
                "roots",
                Json::obj([
                    ("total", self.roots.into()),
                    ("degraded", self.degraded_roots.into()),
                    ("error", self.error_roots.into()),
                ]),
            ),
            ("bytes", export.len().into()),
            ("fnv64", format!("{:016x}", fnv64(export.as_bytes())).into()),
            ("problems", Json::arr(&self.problems)),
        ])
    }

    /// One transcript line.
    pub fn summary(&self) -> String {
        format!(
            "trace: {} spans / {} events; {} roots ({} degraded, {} error) — {}\n",
            self.spans,
            self.events,
            self.roots,
            self.degraded_roots,
            self.error_roots,
            if self.passed() { "PASS" } else { "FAIL" }
        )
    }
}

/// Depth-first walk of `root`'s subtree looking for an explanation: a
/// descendant span that is itself not ok, or an [`EXPLAIN_EVENTS`] event
/// anywhere in the subtree (the root's own events count — retries happen
/// on the span that owns the attempt).
fn subtree_explains(spans: &[&Span], kids: &BTreeMap<u64, Vec<usize>>, root: usize) -> bool {
    let mut stack = vec![root];
    while let Some(i) = stack.pop() {
        let s = spans[i];
        if i != root && s.outcome != Outcome::Ok {
            return true;
        }
        if EXPLAIN_EVENTS.iter().any(|e| s.has_event(e)) {
            return true;
        }
        if let Some(children) = kids.get(&s.id.0) {
            stack.extend(children.iter().copied());
        }
    }
    false
}

/// Run every trace-health check against a recorder.
pub fn check(recorder: &FlightRecorder) -> TraceCheck {
    let mut problems = recorder.validate(true);
    if recorder.dropped() > 0 {
        problems.push(format!(
            "ring dropped {} spans — raise TRACE_CAPACITY so parents cannot be orphaned",
            recorder.dropped()
        ));
    }

    let spans: Vec<&Span> = recorder.spans().collect();
    let kids = recorder.children_index();
    let events: usize = spans.iter().map(|s| s.events.len()).sum();
    let (mut roots, mut degraded_roots, mut error_roots) = (0usize, 0usize, 0usize);
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_some() {
            continue;
        }
        roots += 1;
        match s.outcome {
            Outcome::Ok => continue,
            Outcome::Degraded => degraded_roots += 1,
            Outcome::Error => error_roots += 1,
        }
        if !subtree_explains(&spans, &kids, i) {
            problems.push(format!(
                "unexplained {} root: span {} {} \"{}\" at t={}ns has no non-ok descendant \
                 and no retry/failover/degradation event in its subtree",
                s.outcome.as_str(),
                s.id.0,
                s.name,
                s.label,
                s.start_ns
            ));
        }
    }

    TraceCheck {
        spans: spans.len(),
        events,
        roots,
        degraded_roots,
        error_roots,
        problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{run_soak_observed, SoakConfig};
    use sensorcer_sim::chaos::ChaosConfig;

    fn quick_cfg(seed: u64) -> SoakConfig {
        SoakConfig {
            chaos: ChaosConfig {
                horizon: SimDuration::from_secs(180),
                ..Default::default()
            },
            tail_reads: 5,
            trace_capacity: Some(TRACE_CAPACITY),
            ..SoakConfig::new(seed)
        }
    }

    /// The default fault mix is mild enough that retries and equivalence
    /// failover mask nearly everything; this storm makes whole pairs go
    /// dark at once so quorum substitution and read failures actually
    /// happen, exercising the explainability check for real.
    fn storm_cfg(seed: u64) -> SoakConfig {
        SoakConfig {
            chaos: ChaosConfig {
                horizon: SimDuration::from_secs(240),
                period: SimDuration::from_secs(3),
                partition_prob: 0.35,
                isolate_prob: 0.30,
                crash_prob: 0.30,
                min_outage: SimDuration::from_secs(10),
                max_outage: SimDuration::from_secs(40),
                ..Default::default()
            },
            tail_reads: 5,
            trace_capacity: Some(TRACE_CAPACITY),
            ..SoakConfig::new(seed)
        }
    }

    #[test]
    fn traced_soak_report_matches_untraced() {
        // The recorder must be a pure observer: flipping it on cannot
        // change a single read, retry, or fault outcome.
        let traced = quick_cfg(0xD00D);
        let untraced = SoakConfig {
            trace_capacity: None,
            ..traced
        };
        let (with_trace, rec) = run_soak_observed(&traced, None);
        let without = crate::chaos::run_soak(&untraced);
        assert_eq!(with_trace, without, "tracing perturbed the simulation");
        assert!(!rec.unwrap().is_empty());
    }

    #[test]
    fn trace_export_is_deterministic_per_seed() {
        let cfg = quick_cfg(0xD00D);
        let (_, a) = run_soak_observed(&cfg, None);
        let (_, b) = run_soak_observed(&cfg, None);
        assert_eq!(
            a.unwrap().to_json(),
            b.unwrap().to_json(),
            "same seed must export the bit-identical trace"
        );
    }

    #[test]
    fn short_soak_traces_are_healthy_and_explainable() {
        // Three seeds so the explainability check meets a variety of
        // fault mixes, not one lucky schedule.
        for seed in [3u64, 7, 0xD00D] {
            let cfg = quick_cfg(seed);
            let (report, rec) = run_soak_observed(&cfg, None);
            let rec = rec.unwrap();
            let verdict = check(&rec);
            assert!(verdict.passed(), "seed {seed}: {:#?}", verdict.problems);
            assert!(verdict.spans > 100, "seed {seed}: suspiciously few spans");
            let soak_roots = rec
                .spans()
                .filter(|s| s.name == "soak.read" && s.parent.is_none())
                .count();
            // +2: the priming reads are traced but not counted in the report.
            assert_eq!(
                soak_roots as u64,
                report.reads_total + 2,
                "seed {seed}: every top-level read gets exactly one root span"
            );
        }
    }

    #[test]
    fn degraded_reads_actually_occur_and_are_explained() {
        // Pin that the check is exercised for real: the storm must
        // produce degraded or failed roots, or the explainability
        // guarantee is vacuously true — and those traces must still
        // pass every check.
        let mut non_ok_roots = 0;
        for seed in [3u64, 7, 0xD00D] {
            let (_, rec) = run_soak_observed(&storm_cfg(seed), None);
            let v = check(&rec.unwrap());
            assert!(v.passed(), "storm seed {seed}: {:#?}", v.problems);
            non_ok_roots += v.degraded_roots + v.error_roots;
        }
        assert!(
            non_ok_roots > 0,
            "no storm seed produced a degraded/failed read"
        );
    }
}
