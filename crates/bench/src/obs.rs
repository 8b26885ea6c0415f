//! Observability harness: the federation health engine exercised end to
//! end against the chaos soak.
//!
//! `harness obs [seed] [out.json]` runs the [`crate::chaos`] soak twice
//! — under the storm fault mix and with every fault probability at zero
//! — with an SLO engine riding along as its [`SoakObserver`], holding
//! four objectives on the two composites ([`soak_slos`]). After the
//! storm run it links exemplars into every fired alert from the flight
//! recorder (the slowest degraded or failed `soak.read` spans inside the
//! alert window) and holds the whole thing to three standards before
//! writing `OBS_1.json`:
//!
//! * the storm **must** fire at least one burn-rate alert, and every
//!   alert's exemplars must resolve to real degraded/failed spans in the
//!   exported trace — an alert that cannot point at evidence is a bug;
//! * the clean run **must not** fire anything — an alert without a fault
//!   is a false page;
//! * everything is derived from virtual time and seeded draws, so the
//!   exported JSON is bit-for-bit identical per seed.

use sensorcer_obs::{
    group_by_op, slowest_offenders, BurnRateWindows, ReadOutcome, SloEngine, SloKind, SloReport,
    SloSpec,
};
use sensorcer_sim::chaos::ChaosConfig;
use sensorcer_sim::prelude::*;
use sensorcer_trace::json::Json;

use crate::chaos::{
    run_soak_observed, SoakConfig, SoakObserver, SoakReport, LKG_COMPOSITE, QUORUM_COMPOSITE,
};
use crate::trace::TRACE_CAPACITY;

/// The storm fault mix (same shape the trace tests use): dense faults,
/// whole equivalence pairs dark at once, so degradation and failures
/// genuinely happen.
pub fn storm_soak(seed: u64) -> SoakConfig {
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

/// The control: identical world and cadence, zero fault probability.
pub fn clean_soak(seed: u64) -> SoakConfig {
    let mut cfg = storm_soak(seed);
    cfg.chaos.partition_prob = 0.0;
    cfg.chaos.isolate_prob = 0.0;
    cfg.chaos.crash_prob = 0.0;
    cfg.chaos.slow_prob = 0.0;
    cfg
}

/// The objectives `harness obs` holds the soak composites to. Windows are
/// scaled to the 240 s storm horizon (fast 45 s / slow 180 s at 3x / 1.5x
/// burn) — long enough that a single bad round cannot page, short enough
/// that a sustained storm does.
pub fn soak_slos() -> Vec<SloSpec> {
    let windows = BurnRateWindows {
        fast: SimDuration::from_secs(45),
        slow: SimDuration::from_secs(180),
        fast_burn: 3.0,
        slow_burn: 1.5,
    };
    let spec = |name: &str, service: &str, kind: SloKind| SloSpec {
        name: name.into(),
        service: service.into(),
        kind,
        windows,
    };
    vec![
        spec(
            "quorum-availability",
            QUORUM_COMPOSITE,
            SloKind::Availability { min_ratio: 0.90 },
        ),
        spec(
            "quorum-latency-p99",
            QUORUM_COMPOSITE,
            SloKind::LatencyP99 {
                max_ns: SimDuration::from_secs(1).as_nanos(),
            },
        ),
        spec(
            "quorum-freshness",
            QUORUM_COMPOSITE,
            SloKind::Freshness {
                max_age_ns: SimDuration::from_secs(30).as_nanos(),
                min_ratio: 0.95,
            },
        ),
        spec(
            "lkg-degraded-ratio",
            LKG_COMPOSITE,
            SloKind::DegradedRatio { max_ratio: 0.20 },
        ),
    ]
}

/// Every metric name a representative soak registers at runtime — the
/// raw material for the naming audit in `tests/metric_names.rs`, which
/// holds each to `subsystem.object.action`. A short storm is the
/// densest exerciser we have: it touches retries, failover, degradation,
/// chaos accounting and the network counters in one run.
pub fn runtime_metric_names() -> Vec<String> {
    struct KeyCollector(std::collections::BTreeSet<String>);
    impl SoakObserver for KeyCollector {
        fn on_read(
            &mut self,
            _env: &Env,
            _service: &str,
            _started: SimTime,
            _outcome: ReadOutcome,
            _data_age_ns: Option<u64>,
        ) {
        }
        fn on_round(&mut self, env: &Env) {
            self.0.extend(env.metrics.all_keys());
        }
    }
    let mut cfg = storm_soak(1);
    cfg.chaos.horizon = SimDuration::from_secs(90);
    cfg.chaos.min_outage = SimDuration::from_secs(5);
    cfg.chaos.max_outage = SimDuration::from_secs(10);
    cfg.trace_capacity = None;
    let mut kc = KeyCollector(Default::default());
    let _ = run_soak_observed(&cfg, Some(&mut kc));
    // The tenant storm registers the overload-protection families the
    // soak never touches: admission.*, breaker.*, autoscale.* and the
    // burst gauges. Audit those under the same rule.
    kc.0.extend(crate::storm::runtime_metric_names());
    kc.0.into_iter().collect()
}

/// The SLO engine, fed purely through the observer hooks.
impl SoakObserver for SloEngine {
    fn on_read(
        &mut self,
        env: &Env,
        service: &str,
        started: SimTime,
        outcome: ReadOutcome,
        data_age_ns: Option<u64>,
    ) {
        let now = env.now();
        let latency_ns = (now - started).as_nanos();
        self.record_read(now, service, outcome, latency_ns);
        if let Some(age) = data_age_ns {
            self.record_freshness(now, service, age);
        }
        self.evaluate(now);
    }
}

/// Everything one `harness obs` run produced.
pub struct ObsReport {
    pub seed: u64,
    pub storm_soak: SoakReport,
    pub storm_slos: SloReport,
    pub clean_slos: SloReport,
    /// `(op, count, degraded, errors, p50_ns, p99_ns)` per operation.
    pub op_stats: Vec<(String, u64, u64, u64, f64, f64)>,
    /// Harness-level failures; empty on a passing run.
    pub problems: Vec<String>,
}

impl ObsReport {
    pub fn passed(&self) -> bool {
        self.problems.is_empty()
    }

    /// The `OBS_1.json` report: operation quantiles in whole nanoseconds.
    pub fn json(&self) -> Json {
        let ops = self
            .op_stats
            .iter()
            .map(|(op, count, degraded, errors, p50, p99)| {
                Json::obj([
                    ("op", op.as_str().into()),
                    ("count", (*count).into()),
                    ("degraded", (*degraded).into()),
                    ("errors", (*errors).into()),
                    ("p50_ns", Json::rounded(*p50, 0)),
                    ("p99_ns", Json::rounded(*p99, 0)),
                ])
            });
        let storm = &self.storm_soak;
        Json::report(
            [
                ("seed", self.seed.into()),
                (
                    "storm",
                    Json::obj([
                        ("reads", storm.reads_total.into()),
                        ("ok", storm.reads_ok.into()),
                        ("failed", storm.reads_failed.into()),
                        ("degraded", storm.reads_degraded.into()),
                        ("faults", storm.injected.total().into()),
                    ]),
                ),
                ("storm_slos", self.storm_slos.json()),
                ("clean_slos", self.clean_slos.json()),
                ("ops", Json::arr(ops)),
                ("problems", Json::arr(&self.problems)),
            ],
            self.passed(),
        )
    }

    /// One-paragraph human transcript.
    pub fn summary(&self) -> String {
        let firing_or_fired = self.storm_slos.alerts.len();
        format!(
            "obs harness seed={}: storm {} reads ({} failed / {} degraded), {} alert(s) fired; \
             clean run {} alert(s) — {}\n",
            self.seed,
            self.storm_soak.reads_total,
            self.storm_soak.reads_failed,
            self.storm_soak.reads_degraded,
            firing_or_fired,
            self.clean_slos.alerts.len(),
            if self.passed() {
                "PASS".to_string()
            } else {
                format!("FAIL ({} problems)", self.problems.len())
            }
        )
    }
}

/// Link exemplars into every fired alert: the slowest degraded/failed
/// `soak.read` spans for the alert's service, overlapping the alert's
/// active window. Returns one problem string per alert left without
/// evidence.
fn link_exemplars(slos: &mut SloEngine, recorder: &FlightRecorder, end: SimTime) -> Vec<String> {
    let mut problems = Vec::new();
    let alerts: Vec<(usize, String, SimTime, Option<SimTime>, SimDuration)> = slos
        .alerts()
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let slow = slos
                .specs()
                .find(|s| s.name == a.slo)
                .map(|s| s.windows.slow)
                .unwrap_or(SimDuration::from_secs(180));
            (i, a.service.clone(), a.fired_at, a.resolved_at, slow)
        })
        .collect();
    for (idx, service, fired_at, resolved_at, slow) in alerts {
        let window_start = SimTime(fired_at.as_nanos().saturating_sub(slow.as_nanos()));
        let window_end = resolved_at.unwrap_or(end);
        let offenders = slowest_offenders(
            recorder,
            |s| {
                s.name == "soak.read"
                    && s.outcome != Outcome::Ok
                    && &*s.label == service.as_str()
                    && s.end_ns >= window_start.as_nanos()
                    && s.start_ns <= window_end.as_nanos()
            },
            3,
        );
        if offenders.is_empty() {
            problems.push(format!(
                "alert #{idx} ({service}) has no degraded/failed span in its window — \
                 an alert must point at evidence"
            ));
        }
        slos.attach_exemplars(idx, offenders);
    }
    problems
}

/// Run the full observability harness for one seed.
pub fn run_obs(seed: u64) -> ObsReport {
    let mut problems = Vec::new();

    // Storm leg: faults on, recorder on, observer riding along.
    let mut storm_engine = SloEngine::new(soak_slos());
    let (storm_soak, recorder) = run_soak_observed(&storm_soak(seed), Some(&mut storm_engine));
    let recorder = recorder.expect("storm soak runs traced");
    let storm_end = SimTime(recorder.spans().map(|s| s.end_ns).max().unwrap_or_default());
    storm_engine.evaluate(storm_end);
    problems.extend(link_exemplars(&mut storm_engine, &recorder, storm_end));
    let storm_slos = storm_engine.report(storm_end);
    if storm_slos.alerts.is_empty() {
        problems.push(
            "storm fired no burn-rate alert — the objectives are too loose to detect a storm"
                .into(),
        );
    }
    // Every exemplar must resolve to a real, non-ok span in the trace.
    for a in &storm_slos.alerts {
        for &(_, span_id, _) in &a.exemplars {
            match recorder.span_by_id(SpanId(span_id)) {
                Some(s) if s.outcome != Outcome::Ok => {}
                Some(_) => problems.push(format!(
                    "alert '{}' exemplar span {span_id} is Ok — not evidence",
                    a.slo
                )),
                None => problems.push(format!(
                    "alert '{}' exemplar span {span_id} not found in the trace",
                    a.slo
                )),
            }
        }
    }

    // Clean leg: identical world, zero faults — must stay silent.
    let mut clean_engine = SloEngine::new(soak_slos());
    let (_, _) = run_soak_observed(&clean_soak(seed), Some(&mut clean_engine));
    let clean_slos = clean_engine.report(storm_end);
    if !clean_slos.alerts.is_empty() {
        problems.push(format!(
            "clean run fired {} alert(s) — false pages",
            clean_slos.alerts.len()
        ));
    }
    if !clean_slos.healthy() {
        problems.push("clean run failed an objective".into());
    }

    // Trace analytics: per-op aggregates for the report.
    let op_stats = group_by_op(&recorder)
        .into_iter()
        .map(|(op, st)| {
            (
                op.to_string(),
                st.count,
                st.degraded,
                st.errors,
                st.durations.quantile(0.50),
                st.durations.quantile(0.99),
            )
        })
        .collect();

    ObsReport {
        seed,
        storm_soak,
        storm_slos,
        clean_slos,
        op_stats,
        problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_report_is_deterministic_per_seed() {
        let a = run_obs(7);
        let b = run_obs(7);
        assert_eq!(a.json(), b.json(), "seed 7 must reproduce bit-identically");
    }

    #[test]
    fn storm_fires_alerts_with_resolving_exemplars_and_clean_stays_silent() {
        let r = run_obs(7);
        assert!(r.passed(), "problems: {:#?}", r.problems);
        assert!(!r.storm_slos.alerts.is_empty(), "storm must page");
        for a in &r.storm_slos.alerts {
            assert!(
                !a.exemplars.is_empty(),
                "alert {} carries no exemplars",
                a.slo
            );
        }
        assert!(r.clean_slos.alerts.is_empty(), "clean run must not page");
        assert!(r.clean_slos.healthy());
    }

    #[test]
    fn observer_does_not_perturb_the_soak() {
        // The observed storm soak must report exactly what the unobserved
        // one does — the observer is read-only by construction, but this
        // pins it against regression.
        let cfg = storm_soak(3);
        let mut obs = SloEngine::new(soak_slos());
        let (observed, _) = run_soak_observed(&cfg, Some(&mut obs));
        let (unobserved, _) = run_soak_observed(&cfg, None);
        assert_eq!(observed, unobserved);
    }

    #[test]
    fn ops_cover_the_root_reads() {
        let r = run_obs(3);
        assert!(
            r.op_stats.iter().any(|(op, ..)| op == "soak.read"),
            "op stats must cover the root reads: {:?}",
            r.op_stats.iter().map(|o| &o.0).collect::<Vec<_>>()
        );
    }
}
