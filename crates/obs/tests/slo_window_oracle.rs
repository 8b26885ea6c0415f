//! `SloEngine` keeps each window's `(bad, total)` as events arrive and age
//! out. Over generated observation streams it must report, bit for bit,
//! the burn rates, transitions and alert history of an engine that
//! recounts both windows from the event queue at every call.

use std::collections::VecDeque;

use sensorcer_obs::{BurnRateWindows, ReadOutcome, SloEngine, SloKind, SloSpec};
use sensorcer_sim::check::{run_cases, Gen};
use sensorcer_sim::prelude::{SimDuration, SimTime};

/// One objective, evaluated by rescanning.
struct Rescan {
    spec: SloSpec,
    events: VecDeque<(SimTime, bool)>,
    firing: bool,
}

impl Rescan {
    fn burn(&self, t: SimTime, window: SimDuration) -> f64 {
        let from = SimTime(t.as_nanos().saturating_sub(window.as_nanos()));
        let in_window = || self.events.iter().filter(move |(at, _)| *at >= from);
        let total = in_window().count();
        if total == 0 {
            return 0.0;
        }
        let bad = in_window().filter(|(_, bad)| *bad).count();
        (bad as f64 / total as f64) / self.spec.kind.budget()
    }

    fn burns(&self, t: SimTime) -> (u64, u64) {
        let w = self.spec.windows;
        (
            self.burn(t, w.fast).to_bits(),
            self.burn(t, w.slow).to_bits(),
        )
    }

    /// `Some(fired)` if the alert changed state at `t`.
    fn evaluate(&mut self, t: SimTime) -> Option<bool> {
        let w = self.spec.windows;
        let keep_from = SimTime(t.as_nanos().saturating_sub(w.slow.as_nanos()));
        while self.events.front().is_some_and(|(at, _)| *at < keep_from) {
            self.events.pop_front();
        }
        let (fast, slow) = (self.burn(t, w.fast), self.burn(t, w.slow));
        if !self.firing && fast >= w.fast_burn && slow >= w.slow_burn {
            self.firing = true;
            Some(true)
        } else if self.firing && fast < 1.0 {
            self.firing = false;
            Some(false)
        } else {
            None
        }
    }
}

fn gen_spec(g: &mut Gen, i: usize) -> SloSpec {
    let kind = match g.u64_in(0, 4) {
        0 => SloKind::Availability {
            min_ratio: g.f64_in(0.5, 0.99),
        },
        1 => SloKind::LatencyP99 { max_ns: 1_000 },
        2 => SloKind::DegradedRatio {
            max_ratio: g.f64_in(0.05, 0.5),
        },
        _ => SloKind::Freshness {
            max_age_ns: 1_000,
            min_ratio: g.f64_in(0.5, 0.99),
        },
    };
    SloSpec {
        name: format!("slo-{i}"),
        service: ["A", "B"][g.usize_in(0, 2)].to_string(),
        kind,
        // Now and then a fast window longer than the slow one: the queue
        // is trimmed to the slow window, and the fast count with it.
        windows: BurnRateWindows {
            fast: SimDuration::from_secs(g.u64_in(1, 40)),
            slow: SimDuration::from_secs(g.u64_in(5, 120)),
            fast_burn: g.f64_in(1.0, 6.0),
            slow_burn: g.f64_in(0.5, 3.0),
        },
    }
}

#[test]
fn kept_window_counts_are_the_rescan() {
    let (mut fired, mut resolved, mut aged_out) = (0usize, 0usize, 0usize);
    run_cases("slo-window-oracle", 200, |g| {
        let specs: Vec<SloSpec> = (0..g.usize_in(1, 5)).map(|i| gen_spec(g, i)).collect();
        let mut engine = SloEngine::new(specs.clone());
        let mut model: Vec<Rescan> = specs
            .into_iter()
            .map(|spec| Rescan {
                spec,
                events: VecDeque::new(),
                firing: false,
            })
            .collect();
        let mut now = SimTime::ZERO;
        // Outages come in runs, or no alert would ever fire.
        let mut failing = false;
        for _ in 0..g.usize_in(50, 400) {
            match g.u64_in(0, 10) {
                0..=3 => {
                    let service = ["A", "B", "C"][g.usize_in(0, 3)];
                    let bad = g.chance(if failing { 0.9 } else { 0.05 });
                    if g.chance(0.8) {
                        let (outcome, latency) = match (bad, g.u64_in(0, 3)) {
                            (false, _) => (ReadOutcome::Ok, 10),
                            (true, 0) => (ReadOutcome::Error, 10),
                            (true, 1) => (ReadOutcome::Degraded, 10),
                            (true, _) => (ReadOutcome::Ok, 5_000),
                        };
                        engine.record_read(now, service, outcome, latency);
                        for m in model.iter_mut().filter(|m| m.spec.service == service) {
                            let is_bad = match m.spec.kind {
                                SloKind::Availability { .. } => outcome == ReadOutcome::Error,
                                SloKind::LatencyP99 { max_ns } => latency > max_ns,
                                SloKind::DegradedRatio { .. } => outcome == ReadOutcome::Degraded,
                                SloKind::Freshness { .. } => continue,
                            };
                            m.events.push_back((now, is_bad));
                        }
                    } else {
                        let age = if bad { 5_000 } else { 10 };
                        engine.record_freshness(now, service, age);
                        for m in model.iter_mut().filter(|m| m.spec.service == service) {
                            if let SloKind::Freshness { max_age_ns, .. } = m.spec.kind {
                                m.events.push_back((now, age > max_age_ns));
                            }
                        }
                    }
                }
                // Several observations may share an instant.
                4..=5 => now += SimDuration::from_millis(g.u64_in(0, 4_000)),
                6 => now += SimDuration::from_secs(g.u64_in(0, 90)),
                7 => failing = !failing,
                8 => {
                    let got: Vec<(String, bool)> = engine
                        .evaluate(now)
                        .into_iter()
                        .map(|tr| {
                            assert_eq!(tr.at, now);
                            (tr.slo, tr.fired)
                        })
                        .collect();
                    let before: usize = model.iter().map(|m| m.events.len()).sum();
                    let expected: Vec<(String, bool)> = model
                        .iter_mut()
                        .filter_map(|m| Some((m.spec.name.clone(), m.evaluate(now)?)))
                        .collect();
                    assert_eq!(got, expected, "at {now}");
                    aged_out += before - model.iter().map(|m| m.events.len()).sum::<usize>();
                    fired += got.iter().filter(|(_, f)| *f).count();
                    resolved += got.iter().filter(|(_, f)| !*f).count();
                }
                // Read between evaluations: the windows have moved on since
                // the counts were last brought up to date.
                _ => {
                    let report = engine.report(now);
                    for (v, m) in report.verdicts.iter().zip(&model) {
                        let got = (v.burn_fast.to_bits(), v.burn_slow.to_bits());
                        assert_eq!(got, m.burns(now), "{} at {now}", v.name);
                        assert_eq!(v.firing, m.firing);
                    }
                    for (service, fast, slow) in engine.burn_rates(now) {
                        let of_service = || model.iter().filter(|m| m.spec.service == service);
                        let worst = |pick: fn((u64, u64)) -> u64| {
                            of_service()
                                .map(|m| f64::from_bits(pick(m.burns(now))))
                                .fold(f64::MIN, f64::max)
                                .to_bits()
                        };
                        assert_eq!(fast.to_bits(), worst(|b| b.0), "{service} at {now}");
                        assert_eq!(slow.to_bits(), worst(|b| b.1), "{service} at {now}");
                    }
                }
            }
        }
    });
    assert!(
        fired > 50 && resolved > 20 && aged_out > 5_000,
        "{fired} fired, {resolved} resolved, {aged_out} events aged out"
    );
}
