//! The SLO engine: declarative objectives over sim-time sliding windows
//! with multi-window burn-rate alerting.
//!
//! Every objective kind reduces to the same machinery: a bounded stream
//! of timestamped good/bad observations plus an **error budget** (the
//! fraction of observations allowed to be bad). The *burn rate* over a
//! window is `bad_fraction / budget` — 1.0 means spending the budget
//! exactly as fast as the objective tolerates, 10 means burning it ten
//! times too fast. An alert fires only when **both** a fast and a slow
//! window exceed their burn thresholds (the standard multi-window guard:
//! the fast window gives low detection latency, the slow window keeps a
//! brief blip from paging), and resolves once the fast window drops back
//! under burn 1.0.
//!
//! All arithmetic is over virtual time and deterministic inputs, so a
//! seeded run produces a bit-identical alert history.

use std::collections::VecDeque;

use sensorcer_sim::time::{SimDuration, SimTime};
use sensorcer_trace::json::Json;
use sensorcer_trace::Histogram;

/// What a service promises. Each kind maps an observation to good/bad and
/// carries the error budget implied by its target.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum SloKind {
    /// At least `min_ratio` of reads complete (degraded still counts as
    /// answered). Budget: `1 - min_ratio` of reads may fail.
    Availability { min_ratio: f64 },
    /// At most 1% of reads may take longer than `max_ns` (a p99 latency
    /// objective phrased as a countable event stream).
    LatencyP99 { max_ns: u64 },
    /// Data served must be fresh: at each freshness check, the age of the
    /// service's last successful reading must not exceed `max_age_ns`.
    /// Budget: `1 - min_ratio` of checks may find stale data.
    Freshness { max_age_ns: u64, min_ratio: f64 },
    /// At most `max_ratio` of answered reads may be degraded
    /// (substituted or missing children).
    DegradedRatio { max_ratio: f64 },
}

impl SloKind {
    /// The fraction of observations this objective allows to be bad.
    pub fn budget(&self) -> f64 {
        match *self {
            SloKind::Availability { min_ratio } => (1.0 - min_ratio).max(1e-9),
            SloKind::LatencyP99 { .. } => 0.01,
            SloKind::Freshness { min_ratio, .. } => (1.0 - min_ratio).max(1e-9),
            SloKind::DegradedRatio { max_ratio } => max_ratio.max(1e-9),
        }
    }

    /// Human-readable objective, for reports.
    pub fn describe(&self) -> String {
        match *self {
            SloKind::Availability { min_ratio } => {
                format!("availability >= {:.2}%", min_ratio * 100.0)
            }
            SloKind::LatencyP99 { max_ns } => {
                format!("read latency p99 <= {:.1}ms", max_ns as f64 / 1e6)
            }
            SloKind::Freshness {
                max_age_ns,
                min_ratio,
            } => format!(
                "data age <= {:.1}s on {:.2}% of checks",
                max_age_ns as f64 / 1e9,
                min_ratio * 100.0
            ),
            SloKind::DegradedRatio { max_ratio } => {
                format!("degraded reads <= {:.2}%", max_ratio * 100.0)
            }
        }
    }

    pub fn key(&self) -> &'static str {
        match self {
            SloKind::Availability { .. } => "availability",
            SloKind::LatencyP99 { .. } => "latency_p99",
            SloKind::Freshness { .. } => "freshness",
            SloKind::DegradedRatio { .. } => "degraded_ratio",
        }
    }
}

/// The two evaluation windows and their burn-rate thresholds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BurnRateWindows {
    pub fast: SimDuration,
    pub slow: SimDuration,
    /// Burn-rate threshold the fast window must exceed to fire.
    pub fast_burn: f64,
    /// Burn-rate threshold the slow window must exceed to fire.
    pub slow_burn: f64,
}

impl Default for BurnRateWindows {
    /// 1-minute fast / 10-minute slow windows at 10x / 2x burn — scaled
    /// for soak horizons of minutes rather than SRE months.
    fn default() -> Self {
        BurnRateWindows {
            fast: SimDuration::from_secs(60),
            slow: SimDuration::from_secs(600),
            fast_burn: 10.0,
            slow_burn: 2.0,
        }
    }
}

/// One declared objective for one service.
#[derive(Clone, Debug, PartialEq)]
pub struct SloSpec {
    /// Unique objective name, e.g. `"quorum-availability"`.
    pub name: String,
    /// The service (composite or mote) the objective covers.
    pub service: String,
    pub kind: SloKind,
    pub windows: BurnRateWindows,
}

impl SloSpec {
    pub fn new(name: impl Into<String>, service: impl Into<String>, kind: SloKind) -> SloSpec {
        SloSpec {
            name: name.into(),
            service: service.into(),
            kind,
            windows: BurnRateWindows::default(),
        }
    }
}

/// How one observed read ended, from the SLO engine's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    Ok,
    Degraded,
    Error,
}

/// One burn-rate alert, from firing to (possibly) resolution.
#[derive(Clone, Debug, PartialEq)]
pub struct Alert {
    pub slo: String,
    pub service: String,
    pub fired_at: SimTime,
    pub resolved_at: Option<SimTime>,
    /// Burn rates at the moment of firing.
    pub burn_fast: f64,
    pub burn_slow: f64,
    /// `(trace_id, span_id, duration_ns)` of the slowest offending spans
    /// inside the alert window, linked in by the trace analytics layer.
    pub exemplars: Vec<(u64, u64, u64)>,
}

/// A state change produced by [`SloEngine::evaluate`] — the hook callers
/// use to surface alerts as flight-recorder events.
#[derive(Clone, Debug, PartialEq)]
pub struct AlertTransition {
    pub slo: String,
    pub service: String,
    pub at: SimTime,
    /// `true` = fired, `false` = resolved.
    pub fired: bool,
    pub burn_fast: f64,
    pub burn_slow: f64,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum AlertState {
    Idle,
    /// Index into the engine's alert history.
    Firing(usize),
}

/// `(bad, total)` over `events[start..]`: one window's share of the
/// observation stream, kept as events arrive and age out instead of being
/// recounted at every evaluation.
#[derive(Clone, Copy, Default)]
struct Tail {
    start: usize,
    bad: u64,
    total: u64,
}

impl Tail {
    fn add(&mut self, is_bad: bool) {
        self.total += 1;
        self.bad += u64::from(is_bad);
    }

    fn drop_one(&mut self, is_bad: bool) {
        self.total -= 1;
        self.bad -= u64::from(is_bad);
    }
}

struct SloInstance {
    spec: SloSpec,
    /// Timestamped observations in time order, trimmed to the slow window
    /// on evaluate.
    events: VecDeque<(SimTime, bool)>,
    /// The events inside each window as of the last evaluation.
    fast: Tail,
    slow: Tail,
    state: AlertState,
    /// Whole-run totals (never trimmed) for the final verdict.
    total: u64,
    bad: u64,
    /// Latency samples for the service (all kinds record them so the
    /// report can quote quantiles next to any verdict).
    latency: Histogram,
}

fn window_start(t: SimTime, window: SimDuration) -> SimTime {
    SimTime(t.as_nanos().saturating_sub(window.as_nanos()))
}

impl SloInstance {
    fn push(&mut self, t: SimTime, is_bad: bool) {
        self.events.push_back((t, is_bad));
        self.fast.add(is_bad);
        self.slow.add(is_bad);
        self.total += 1;
        if is_bad {
            self.bad += 1;
        }
    }

    /// Move both windows up to instant `t`: events older than the slow
    /// window leave the queue, events older than the fast window leave its
    /// tail. Each event is passed once per window over its lifetime.
    fn advance(&mut self, t: SimTime) {
        let keep_from = window_start(t, self.spec.windows.slow);
        while let Some(&(at, is_bad)) = self.events.front() {
            if at >= keep_from {
                break;
            }
            self.events.pop_front();
            self.slow.drop_one(is_bad);
            // Still inside a fast window longer than the slow one?
            match self.fast.start.checked_sub(1) {
                Some(shifted) => self.fast.start = shifted,
                None => self.fast.drop_one(is_bad),
            }
        }
        let fast_from = window_start(t, self.spec.windows.fast);
        while let Some(&(at, is_bad)) = self.events.get(self.fast.start) {
            if at >= fast_from {
                break;
            }
            self.fast.start += 1;
            self.fast.drop_one(is_bad);
        }
    }

    /// `(bad, total)` over `[t - window, t]` for a window whose `tail` was
    /// advanced to an instant no later than `t`: the kept counts less what
    /// has aged out since, without touching the tail.
    fn window_counts(&self, t: SimTime, window: SimDuration, tail: Tail) -> (u64, u64) {
        let from = window_start(t, window);
        let mut counts = tail;
        for &(at, is_bad) in self.events.range(tail.start..) {
            if at >= from {
                break;
            }
            counts.drop_one(is_bad);
        }
        (counts.bad, counts.total)
    }

    /// Burn rates `(fast, slow)` at `t`: bad-fraction over each window
    /// divided by the error budget. Zero traffic burns nothing — an idle
    /// service is not in violation.
    fn burns(&self, t: SimTime) -> (f64, f64) {
        let w = self.spec.windows;
        let burn = |(bad, total): (u64, u64)| {
            if total == 0 {
                return 0.0;
            }
            (bad as f64 / total as f64) / self.spec.kind.budget()
        };
        (
            burn(self.window_counts(t, w.fast, self.fast)),
            burn(self.window_counts(t, w.slow, self.slow)),
        )
    }
}

/// The final judgement on one objective.
#[derive(Clone, Debug, PartialEq)]
pub struct SloVerdict {
    pub name: String,
    pub service: String,
    pub objective: String,
    pub kind_key: &'static str,
    /// Whole-run observation counts.
    pub total: u64,
    pub bad: u64,
    /// Whole-run bad fraction vs. the budget.
    pub bad_ratio: f64,
    pub budget: f64,
    /// Did the whole run stay inside the budget?
    pub met: bool,
    /// Burn rates at evaluation time.
    pub burn_fast: f64,
    pub burn_slow: f64,
    /// Is the alert currently firing?
    pub firing: bool,
    /// Latency quantiles over every observation carrying a latency (NaN
    /// when the objective saw none — freshness checks carry no latency).
    pub latency_p50_ns: f64,
    pub latency_p99_ns: f64,
}

/// Everything the engine knows at one evaluation instant.
#[derive(Clone, Debug, PartialEq)]
pub struct SloReport {
    pub at: SimTime,
    pub verdicts: Vec<SloVerdict>,
    /// Full alert history, fired order (resolved alerts included).
    pub alerts: Vec<Alert>,
}

impl SloReport {
    /// No objective missed and no alert still firing.
    pub fn healthy(&self) -> bool {
        self.verdicts.iter().all(|v| v.met && !v.firing)
    }

    /// The report as one [`Json`] value, embedded whole in `OBS_1.json`:
    /// ratios to six decimals, burn rates to three, latencies in whole
    /// nanoseconds (absent when the objective saw none).
    pub fn json(&self) -> Json {
        let verdicts = self.verdicts.iter().map(|v| {
            let mut kv = vec![
                ("name", v.name.as_str().into()),
                ("service", v.service.as_str().into()),
                ("kind", v.kind_key.into()),
                ("objective", v.objective.as_str().into()),
                ("total", v.total.into()),
                ("bad", v.bad.into()),
                ("bad_ratio", Json::rounded(v.bad_ratio, 6)),
                ("budget", Json::rounded(v.budget, 6)),
                ("met", v.met.into()),
                ("burn_fast", Json::rounded(v.burn_fast, 3)),
                ("burn_slow", Json::rounded(v.burn_slow, 3)),
                ("firing", v.firing.into()),
            ];
            if v.latency_p99_ns.is_finite() {
                kv.push(("latency_p50_ns", Json::rounded(v.latency_p50_ns, 0)));
                kv.push(("latency_p99_ns", Json::rounded(v.latency_p99_ns, 0)));
            }
            Json::obj(kv)
        });
        let alerts = self.alerts.iter().map(|a| {
            let exemplars = a.exemplars.iter().map(|&(trace, span, dur)| {
                Json::obj([
                    ("trace", trace.into()),
                    ("span", span.into()),
                    ("duration_ns", dur.into()),
                ])
            });
            Json::obj([
                ("slo", a.slo.as_str().into()),
                ("service", a.service.as_str().into()),
                ("fired_at_ns", a.fired_at.as_nanos().into()),
                (
                    "resolved_at_ns",
                    a.resolved_at.map(SimTime::as_nanos).into(),
                ),
                ("burn_fast", Json::rounded(a.burn_fast, 3)),
                ("burn_slow", Json::rounded(a.burn_slow, 3)),
                ("exemplars", Json::arr(exemplars)),
            ])
        });
        Json::obj([
            ("at_ns", self.at.as_nanos().into()),
            ("verdicts", Json::arr(verdicts)),
            ("alerts", Json::arr(alerts)),
        ])
    }
}

/// The engine: feed observations, evaluate at sim-time instants, read the
/// verdicts and alert history back.
pub struct SloEngine {
    slos: Vec<SloInstance>,
    alerts: Vec<Alert>,
}

impl SloEngine {
    pub fn new(specs: Vec<SloSpec>) -> SloEngine {
        SloEngine {
            slos: specs
                .into_iter()
                .map(|spec| SloInstance {
                    spec,
                    events: VecDeque::new(),
                    fast: Tail::default(),
                    slow: Tail::default(),
                    state: AlertState::Idle,
                    total: 0,
                    bad: 0,
                    latency: Histogram::new(),
                })
                .collect(),
            alerts: Vec::new(),
        }
    }

    pub fn specs(&self) -> impl Iterator<Item = &SloSpec> {
        self.slos.iter().map(|s| &s.spec)
    }

    /// Feed one completed read for `service`. Availability, latency and
    /// degraded-ratio objectives on that service each classify it by
    /// their own rule; freshness objectives ignore reads (they observe
    /// [`record_freshness`](Self::record_freshness) checks instead).
    pub fn record_read(
        &mut self,
        t: SimTime,
        service: &str,
        outcome: ReadOutcome,
        latency_ns: u64,
    ) {
        for slo in self.slos.iter_mut().filter(|s| s.spec.service == service) {
            let is_bad = match slo.spec.kind {
                SloKind::Availability { .. } => outcome == ReadOutcome::Error,
                SloKind::LatencyP99 { max_ns } => latency_ns > max_ns,
                SloKind::DegradedRatio { .. } => outcome == ReadOutcome::Degraded,
                SloKind::Freshness { .. } => continue,
            };
            slo.push(t, is_bad);
            slo.latency.record(latency_ns as f64);
        }
    }

    /// Feed one freshness check: the age of `service`'s last successful
    /// reading at time `t`.
    pub fn record_freshness(&mut self, t: SimTime, service: &str, age_ns: u64) {
        for slo in self.slos.iter_mut().filter(|s| s.spec.service == service) {
            if let SloKind::Freshness { max_age_ns, .. } = slo.spec.kind {
                slo.push(t, age_ns > max_age_ns);
            }
        }
    }

    /// Evaluate every objective at instant `t`: trim windows, update the
    /// firing state machines, and return the transitions that happened
    /// (so callers can mirror them into the flight recorder). Like the
    /// observations, the instants given here, to
    /// [`burn_rates`](Self::burn_rates) and to [`report`](Self::report)
    /// never go backwards: a window that has moved on keeps no count of
    /// what it left behind.
    pub fn evaluate(&mut self, t: SimTime) -> Vec<AlertTransition> {
        let mut transitions = Vec::new();
        for slo in &mut self.slos {
            slo.advance(t);
            let w = slo.spec.windows;
            let (burn_fast, burn_slow) = slo.burns(t);
            match slo.state {
                AlertState::Idle => {
                    if burn_fast >= w.fast_burn && burn_slow >= w.slow_burn {
                        slo.state = AlertState::Firing(self.alerts.len());
                        self.alerts.push(Alert {
                            slo: slo.spec.name.clone(),
                            service: slo.spec.service.clone(),
                            fired_at: t,
                            resolved_at: None,
                            burn_fast,
                            burn_slow,
                            exemplars: Vec::new(),
                        });
                        transitions.push(AlertTransition {
                            slo: slo.spec.name.clone(),
                            service: slo.spec.service.clone(),
                            at: t,
                            fired: true,
                            burn_fast,
                            burn_slow,
                        });
                    }
                }
                AlertState::Firing(idx) => {
                    // Resolve on the fast window dropping under burn 1.0:
                    // the service is again spending less budget than the
                    // objective tolerates.
                    if burn_fast < 1.0 {
                        if let Some(a) = self.alerts.get_mut(idx) {
                            a.resolved_at = Some(t);
                        }
                        slo.state = AlertState::Idle;
                        transitions.push(AlertTransition {
                            slo: slo.spec.name.clone(),
                            service: slo.spec.service.clone(),
                            at: t,
                            fired: false,
                            burn_fast,
                            burn_slow,
                        });
                    }
                }
            }
        }
        transitions
    }

    /// Attach exemplar spans to an alert (by index in firing order).
    pub fn attach_exemplars(&mut self, alert_idx: usize, exemplars: Vec<(u64, u64, u64)>) {
        if let Some(a) = self.alerts.get_mut(alert_idx) {
            a.exemplars = exemplars;
        }
    }

    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Current burn rates per *service*, as `(service, burn_fast,
    /// burn_slow)` tuples in first-seen spec order. A service tracked by
    /// several objectives reports the worst (highest) burn of each
    /// window, so a feedback consumer — the provision-side autoscaler —
    /// reacts to whichever objective is bleeding fastest. Plain tuples by
    /// design: this is the obs→provision hand-off and must not couple the
    /// crates.
    pub fn burn_rates(&self, t: SimTime) -> Vec<(String, f64, f64)> {
        let mut out: Vec<(String, f64, f64)> = Vec::new();
        for slo in &self.slos {
            let (fast, slow) = slo.burns(t);
            match out.iter_mut().find(|(s, _, _)| s == &slo.spec.service) {
                Some(entry) => {
                    entry.1 = entry.1.max(fast);
                    entry.2 = entry.2.max(slow);
                }
                None => out.push((slo.spec.service.clone(), fast, slow)),
            }
        }
        out
    }

    /// The verdict sheet at instant `t`. Does not advance the state
    /// machines — call [`evaluate`](Self::evaluate) for that.
    pub fn report(&self, t: SimTime) -> SloReport {
        let verdicts = self
            .slos
            .iter()
            .map(|slo| {
                let (burn_fast, burn_slow) = slo.burns(t);
                let bad_ratio = if slo.total == 0 {
                    0.0
                } else {
                    slo.bad as f64 / slo.total as f64
                };
                SloVerdict {
                    name: slo.spec.name.clone(),
                    service: slo.spec.service.clone(),
                    objective: slo.spec.kind.describe(),
                    kind_key: slo.spec.kind.key(),
                    total: slo.total,
                    bad: slo.bad,
                    bad_ratio,
                    budget: slo.spec.kind.budget(),
                    met: bad_ratio <= slo.spec.kind.budget(),
                    burn_fast,
                    burn_slow,
                    firing: matches!(slo.state, AlertState::Firing(_)),
                    latency_p50_ns: slo.latency.quantile(0.50),
                    latency_p99_ns: slo.latency.quantile(0.99),
                }
            })
            .collect();
        SloReport {
            at: t,
            verdicts,
            alerts: self.alerts.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime(s * 1_000_000_000)
    }

    fn avail_spec() -> SloSpec {
        // 90% availability, 30s/120s windows, 5x/2x burn.
        SloSpec {
            name: "t-avail".into(),
            service: "Svc".into(),
            kind: SloKind::Availability { min_ratio: 0.90 },
            windows: BurnRateWindows {
                fast: SimDuration::from_secs(30),
                slow: SimDuration::from_secs(120),
                fast_burn: 5.0,
                slow_burn: 2.0,
            },
        }
    }

    #[test]
    fn healthy_traffic_never_fires() {
        let mut e = SloEngine::new(vec![avail_spec()]);
        for i in 0..200u64 {
            e.record_read(secs(i), "Svc", ReadOutcome::Ok, 1_000_000);
            assert!(e.evaluate(secs(i)).is_empty());
        }
        let r = e.report(secs(200));
        assert!(r.healthy());
        assert_eq!(r.verdicts[0].total, 200);
        assert_eq!(r.verdicts[0].bad, 0);
        assert!(r.alerts.is_empty());
    }

    #[test]
    fn sustained_errors_fire_then_recovery_resolves() {
        let mut e = SloEngine::new(vec![avail_spec()]);
        // Healthy baseline.
        for i in 0..60u64 {
            e.record_read(secs(i), "Svc", ReadOutcome::Ok, 1_000_000);
            e.evaluate(secs(i));
        }
        // Hard outage: every read fails. Burn = 10 (error rate 1.0 over a
        // 0.1 budget) in both windows once enough bad events accumulate.
        let mut fired_at = None;
        for i in 60..120u64 {
            e.record_read(secs(i), "Svc", ReadOutcome::Error, 5_000_000);
            for tr in e.evaluate(secs(i)) {
                if tr.fired {
                    fired_at = Some(i);
                }
            }
        }
        let fired_at = fired_at.expect("outage must fire the burn-rate alert");
        assert!(
            (60..90).contains(&fired_at),
            "fast window should detect within ~30s, fired at {fired_at}"
        );
        // Recovery: clean reads push the fast window back under burn 1.
        let mut resolved = false;
        for i in 120..200u64 {
            e.record_read(secs(i), "Svc", ReadOutcome::Ok, 1_000_000);
            for tr in e.evaluate(secs(i)) {
                if !tr.fired {
                    resolved = true;
                }
            }
        }
        assert!(resolved, "recovery must resolve the alert");
        let r = e.report(secs(200));
        assert_eq!(r.alerts.len(), 1);
        assert!(r.alerts[0].resolved_at.is_some());
        assert!(!r.verdicts[0].firing);
        // The run as a whole blew the 10% budget: 60 bad of 200.
        assert!(!r.verdicts[0].met);
    }

    #[test]
    fn short_blip_does_not_page() {
        let mut e = SloEngine::new(vec![avail_spec()]);
        for i in 0..300u64 {
            // One failure burst of 3 reads in a long healthy run: the
            // slow window never crosses 2x burn.
            let outcome = if (100..103).contains(&i) {
                ReadOutcome::Error
            } else {
                ReadOutcome::Ok
            };
            e.record_read(secs(i), "Svc", outcome, 1_000_000);
            assert!(e.evaluate(secs(i)).is_empty(), "blip must not fire (t={i})");
        }
        assert!(e.report(secs(300)).healthy());
    }

    #[test]
    fn latency_objective_counts_slow_reads() {
        let spec = SloSpec::new(
            "t-lat",
            "Svc",
            SloKind::LatencyP99 {
                max_ns: 10_000_000, // 10ms
            },
        );
        let mut e = SloEngine::new(vec![spec]);
        for i in 0..100u64 {
            let lat = if i % 2 == 0 { 1_000_000 } else { 50_000_000 };
            e.record_read(secs(i), "Svc", ReadOutcome::Ok, lat);
        }
        e.evaluate(secs(100));
        let r = e.report(secs(100));
        assert_eq!(r.verdicts[0].bad, 50);
        assert!(!r.verdicts[0].met, "50% slow blows a 1% budget");
        assert!(r.verdicts[0].latency_p99_ns >= 49_000_000.0);
    }

    #[test]
    fn freshness_checks_ignore_reads_and_vice_versa() {
        let fresh = SloSpec::new(
            "t-fresh",
            "Svc",
            SloKind::Freshness {
                max_age_ns: 5_000_000_000,
                min_ratio: 0.99,
            },
        );
        let mut e = SloEngine::new(vec![fresh, avail_spec()]);
        e.record_read(secs(1), "Svc", ReadOutcome::Ok, 1_000);
        e.record_freshness(secs(2), "Svc", 1_000_000_000);
        e.record_freshness(secs(3), "Svc", 60_000_000_000);
        let r = e.report(secs(3));
        let fresh_v = &r.verdicts[0];
        assert_eq!(fresh_v.total, 2, "freshness sees only its checks");
        assert_eq!(fresh_v.bad, 1);
        let avail_v = &r.verdicts[1];
        assert_eq!(avail_v.total, 1, "availability sees only reads");
    }

    #[test]
    fn degraded_ratio_objective() {
        let spec = SloSpec::new("t-deg", "Svc", SloKind::DegradedRatio { max_ratio: 0.25 });
        let mut e = SloEngine::new(vec![spec]);
        for i in 0..10u64 {
            let o = if i < 2 {
                ReadOutcome::Degraded
            } else {
                ReadOutcome::Ok
            };
            e.record_read(secs(i), "Svc", o, 1_000);
        }
        let r = e.report(secs(10));
        assert_eq!(r.verdicts[0].bad, 2);
        assert!(r.verdicts[0].met, "20% degraded inside a 25% budget");
    }

    #[test]
    fn services_are_isolated() {
        let mut e = SloEngine::new(vec![avail_spec()]);
        e.record_read(secs(1), "Other", ReadOutcome::Error, 1_000);
        let r = e.report(secs(1));
        assert_eq!(r.verdicts[0].total, 0, "other services' reads invisible");
    }

    #[test]
    fn report_json_is_shaped() {
        let mut e = SloEngine::new(vec![avail_spec()]);
        e.record_read(secs(1), "Svc", ReadOutcome::Ok, 2_000_000);
        let j = e.report(secs(2)).json().render();
        assert!(j.contains("\"verdicts\""));
        assert!(j.contains("\"t-avail\""));
        assert!(j.contains("\"alerts\": []"));
        assert!(j.contains("\"burn_fast\""));
    }
}
