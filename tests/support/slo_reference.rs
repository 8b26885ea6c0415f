//! A reference SLO engine with no shortcuts: every
//! [`evaluate`](ReferenceEngine::evaluate) advances both windows of every
//! objective and runs its state machine, and every observation is matched
//! to its objectives by comparing service names. Its window arithmetic is
//! the production engine's, line for line. `tests/slo_oracle.rs` holds
//! `sensorcer_obs::SloEngine` to it bit for bit.

use std::collections::VecDeque;

use sensorcer_obs::{Alert, AlertTransition, ReadOutcome, SloKind, SloReport, SloSpec, SloVerdict};
use sensorcer_suite::sim::time::{SimDuration, SimTime};
use sensorcer_trace::Histogram;

/// `(bad, total)` over `events[start..]`.
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

struct Objective {
    spec: SloSpec,
    events: VecDeque<(SimTime, bool)>,
    fast: Tail,
    slow: Tail,
    /// Index of the firing alert, if any.
    firing: Option<usize>,
    total: u64,
    bad: u64,
    latency: Histogram,
}

fn window_start(t: SimTime, window: SimDuration) -> SimTime {
    SimTime(t.as_nanos().saturating_sub(window.as_nanos()))
}

impl Objective {
    fn push(&mut self, t: SimTime, is_bad: bool) {
        self.events.push_back((t, is_bad));
        self.fast.add(is_bad);
        self.slow.add(is_bad);
        self.total += 1;
        self.bad += u64::from(is_bad);
    }

    fn advance(&mut self, t: SimTime) {
        let keep_from = window_start(t, self.spec.windows.slow);
        while let Some(&(at, is_bad)) = self.events.front() {
            if at >= keep_from {
                break;
            }
            self.events.pop_front();
            self.slow.drop_one(is_bad);
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

pub struct ReferenceEngine {
    slos: Vec<Objective>,
    alerts: Vec<Alert>,
}

impl ReferenceEngine {
    pub fn new(specs: Vec<SloSpec>) -> ReferenceEngine {
        ReferenceEngine {
            slos: specs
                .into_iter()
                .map(|spec| Objective {
                    spec,
                    events: VecDeque::new(),
                    fast: Tail::default(),
                    slow: Tail::default(),
                    firing: None,
                    total: 0,
                    bad: 0,
                    latency: Histogram::new(),
                })
                .collect(),
            alerts: Vec::new(),
        }
    }

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

    pub fn record_freshness(&mut self, t: SimTime, service: &str, age_ns: u64) {
        for slo in self.slos.iter_mut().filter(|s| s.spec.service == service) {
            if let SloKind::Freshness { max_age_ns, .. } = slo.spec.kind {
                slo.push(t, age_ns > max_age_ns);
            }
        }
    }

    pub fn evaluate(&mut self, t: SimTime) -> Vec<AlertTransition> {
        let mut transitions = Vec::new();
        for slo in &mut self.slos {
            slo.advance(t);
            let w = slo.spec.windows;
            let (burn_fast, burn_slow) = slo.burns(t);
            let fired = match slo.firing {
                None if burn_fast >= w.fast_burn && burn_slow >= w.slow_burn => {
                    slo.firing = Some(self.alerts.len());
                    self.alerts.push(Alert {
                        slo: slo.spec.name.clone(),
                        service: slo.spec.service.clone(),
                        fired_at: t,
                        resolved_at: None,
                        burn_fast,
                        burn_slow,
                        exemplars: Vec::new(),
                    });
                    true
                }
                Some(idx) if burn_fast < 1.0 => {
                    self.alerts[idx].resolved_at = Some(t);
                    slo.firing = None;
                    false
                }
                _ => continue,
            };
            transitions.push(AlertTransition {
                slo: slo.spec.name.clone(),
                service: slo.spec.service.clone(),
                at: t,
                fired,
                burn_fast,
                burn_slow,
            });
        }
        transitions
    }

    pub fn alerts(&self) -> &[Alert] {
        &self.alerts
    }

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
                    firing: slo.firing.is_some(),
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
