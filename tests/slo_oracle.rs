//! Model oracle for the SLO engine.
//!
//! `SloEngine` skips an objective that has seen no observation since an
//! evaluation that changed nothing, up to the first instant one of its
//! counted observations can age out of a window, and finds a service's
//! objectives through an index instead of comparing every spec's service
//! name. The reference in `tests/support/slo_reference.rs` does neither:
//! it advances and evaluates every objective at every instant. Generated
//! streams drive both in lockstep and every transition, alert, burn rate
//! and report must agree bit for bit (compared through `Debug`, which
//! prints each `f64` by its bits and a NaN quantile as `NaN`).
//!
//! The streams cover several services with one to three objectives of all
//! four kinds each, specs in shuffled order, fast windows shorter, equal to
//! and longer than slow ones, burn thresholds under 1.0 (an alert that
//! fires and resolves on the same burns), observations at t = 0 and many
//! at one instant, reads of a service no objective watches, idle gaps
//! longer than both windows, instants placed on and one nanosecond past
//! the moment an observation ages out, and `burn_rates` / `report` calls
//! between evaluations.

#[path = "support/slo_reference.rs"]
mod slo_reference;

use sensorcer_obs::{BurnRateWindows, ReadOutcome, SloEngine, SloKind, SloSpec};
use sensorcer_suite::sim::check::{run_cases, Gen};
use sensorcer_suite::sim::time::{SimDuration, SimTime};
use slo_reference::ReferenceEngine;

const SEC: u64 = 1_000_000_000;
const MS: u64 = 1_000_000;

fn kind(g: &mut Gen) -> SloKind {
    match g.usize_in(0, 4) {
        0 => SloKind::Availability {
            min_ratio: *g.pick(&[0.5, 0.8, 0.9, 0.99]),
        },
        1 => SloKind::LatencyP99 {
            max_ns: *g.pick(&[MS, 5 * MS]),
        },
        2 => SloKind::Freshness {
            max_age_ns: *g.pick(&[SEC, 10 * SEC]),
            min_ratio: *g.pick(&[0.5, 0.9]),
        },
        _ => SloKind::DegradedRatio {
            max_ratio: *g.pick(&[0.1, 0.3, 0.5]),
        },
    }
}

/// One to four watched services, each with one to three objectives, in
/// shuffled spec order.
fn specs(g: &mut Gen) -> (Vec<SloSpec>, Vec<String>) {
    let services: Vec<String> = (0..g.usize_in(1, 5)).map(|s| format!("S{s}")).collect();
    let mut specs = Vec::new();
    for service in &services {
        for k in 0..g.usize_in(1, 4) {
            let kind = kind(g);
            specs.push(SloSpec {
                name: format!("{service}-{k}-{}", kind.key()),
                service: service.clone(),
                kind,
                windows: BurnRateWindows {
                    fast: SimDuration(g.u64_in(1, 16) * SEC),
                    slow: SimDuration(g.u64_in(1, 16) * SEC),
                    fast_burn: *g.pick(&[0.5, 1.0, 2.0, 4.0, 10.0]),
                    slow_burn: *g.pick(&[0.5, 1.0, 1.5, 3.0]),
                },
            });
        }
    }
    for i in (1..specs.len()).rev() {
        let j = g.usize_in(0, i + 1);
        specs.swap(i, j);
    }
    (specs, services)
}

fn same<T: std::fmt::Debug>(engine: T, reference: T, what: &str, step: usize) {
    let (engine, reference) = (format!("{engine:?}"), format!("{reference:?}"));
    assert_eq!(engine, reference, "{what} differs at step {step}");
}

/// The next instant: often the same one, sometimes a short step or an
/// idle gap longer than every window, and sometimes exactly on, or one
/// nanosecond past, the instant a recent observation leaves a window.
fn next_instant(g: &mut Gen, t: u64, recent: &[u64], windows: &[u64]) -> u64 {
    match g.usize_in(0, 10) {
        0..=3 => t,
        4..=6 => t + g.u64_in(1, 3 * SEC),
        7 => t + 20 * SEC + g.u64_in(0, 10 * SEC),
        _ if !recent.is_empty() => {
            let at = recent[g.usize_in(recent.len().saturating_sub(4), recent.len())];
            t.max(at + g.pick(windows) + g.u64_in(0, 2))
        }
        _ => t,
    }
}

fn run_stream(g: &mut Gen, steps: usize) {
    let (specs, mut services) = specs(g);
    services.push("Unwatched".into());
    let windows: Vec<u64> = specs
        .iter()
        .flat_map(|s| [s.windows.fast.as_nanos(), s.windows.slow.as_nanos()])
        .collect();
    let mut engine = SloEngine::new(specs.clone());
    let mut reference = ReferenceEngine::new(specs);
    let mut t = 0u64;
    let mut recent: Vec<u64> = Vec::new();
    for step in 0..steps {
        let now = SimTime(t);
        match g.usize_in(0, 20) {
            0..=7 => {
                let service = g.pick(&services).clone();
                let outcome =
                    *g.pick(&[ReadOutcome::Ok, ReadOutcome::Degraded, ReadOutcome::Error]);
                let latency = g.u64_in(0, 10 * MS);
                engine.record_read(now, &service, outcome, latency);
                reference.record_read(now, &service, outcome, latency);
                recent.push(t);
            }
            8..=10 => {
                let service = g.pick(&services).clone();
                let age = g.u64_in(0, 20 * SEC);
                engine.record_freshness(now, &service, age);
                reference.record_freshness(now, &service, age);
                recent.push(t);
            }
            11..=17 => {
                same(
                    engine.evaluate(now),
                    reference.evaluate(now),
                    "evaluate",
                    step,
                );
                same(engine.alerts(), reference.alerts(), "alerts", step);
            }
            18 => same(
                engine.burn_rates(now),
                reference.burn_rates(now),
                "burn_rates",
                step,
            ),
            _ => same(engine.report(now), reference.report(now), "report", step),
        }
        t = next_instant(g, t, &recent, &windows);
    }
    let now = SimTime(t);
    same(
        engine.evaluate(now),
        reference.evaluate(now),
        "evaluate",
        steps,
    );
    same(engine.report(now), reference.report(now), "report", steps);
    same(
        engine.burn_rates(now),
        reference.burn_rates(now),
        "burn_rates",
        steps,
    );
}

#[test]
fn the_engine_matches_the_evaluate_everything_reference() {
    run_cases("slo_oracle", 600, |g| run_stream(g, 240));
}

#[test]
fn a_quiet_objective_still_resolves_when_its_last_bad_read_ages_out() {
    // One objective, fast 10 s / slow 60 s: two bad reads fire the alert;
    // with no further traffic it resolves at the first instant the fast
    // window no longer holds them, 10 s and one nanosecond later.
    let spec = SloSpec {
        name: "t-avail".into(),
        service: "T".into(),
        kind: SloKind::Availability { min_ratio: 0.9 },
        windows: BurnRateWindows {
            fast: SimDuration::from_secs(10),
            slow: SimDuration::from_secs(60),
            fast_burn: 2.0,
            slow_burn: 2.0,
        },
    };
    let mut engine = SloEngine::new(vec![spec]);
    engine.record_read(SimTime(5 * SEC), "T", ReadOutcome::Error, 0);
    engine.record_read(SimTime(5 * SEC), "T", ReadOutcome::Error, 0);
    assert!(engine.evaluate(SimTime(5 * SEC))[0].fired);
    for s in 6..=15 {
        assert!(engine.evaluate(SimTime(s * SEC)).is_empty(), "t = {s} s");
    }
    let resolved = engine.evaluate(SimTime(15 * SEC + 1));
    assert!(!resolved[0].fired);
    assert_eq!(engine.alerts()[0].resolved_at, Some(SimTime(15 * SEC + 1)));
}
