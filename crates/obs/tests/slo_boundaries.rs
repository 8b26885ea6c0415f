//! SLO window arithmetic at the awkward sim-time boundaries: traffic
//! straddling t=0 (window start saturates), events exactly one window
//! old (inclusive edge), zero traffic, and whole-run invariants under
//! seeded pseudo-traffic across three pinned seeds.

use sensorcer_obs::{BurnRateWindows, ReadOutcome, SloEngine, SloKind, SloSpec};
use sensorcer_sim::prelude::{SimDuration, SimTime};

const NS: u64 = 1_000_000_000;

fn secs(s: u64) -> SimTime {
    SimTime(s * NS)
}

/// 90% availability, 30s/120s windows, 5x/2x burn.
fn avail_spec() -> SloSpec {
    SloSpec {
        name: "b-avail".into(),
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
fn windows_straddling_t0_saturate_instead_of_underflowing() {
    // At t=5s both windows reach back past t=0; the window start must
    // clamp to 0 and count everything fed so far.
    let mut e = SloEngine::new(vec![avail_spec()]);
    for i in 0..5u64 {
        e.record_read(secs(i), "Svc", ReadOutcome::Error, 1_000_000);
    }
    e.evaluate(secs(4));
    let r = e.report(secs(4));
    // All 5 reads are bad: burn = 1.0 / 0.1 = 10 in both windows.
    assert_eq!(r.verdicts[0].total, 5);
    assert_eq!(r.verdicts[0].bad, 5);
    assert!((r.verdicts[0].burn_fast - 10.0).abs() < 1e-9);
    assert!((r.verdicts[0].burn_slow - 10.0).abs() < 1e-9);
    // Both windows saw enough burn from the very first evaluations: the
    // alert fires even though a full window has never elapsed yet.
    assert!(r.verdicts[0].firing);
}

#[test]
fn event_exactly_one_window_old_still_counts_one_nanosecond_later_does_not() {
    let mut e = SloEngine::new(vec![avail_spec()]);
    e.record_read(secs(10), "Svc", ReadOutcome::Error, 1_000_000);

    // Exactly 30s later: [t - fast, t] is inclusive at the left edge.
    let edge = SimTime(secs(40).0);
    e.evaluate(edge);
    let r = e.report(edge);
    assert!(
        r.verdicts[0].burn_fast > 0.0,
        "event exactly `fast` old must still be inside the window"
    );

    // One nanosecond past the edge the event ages out and the fast
    // window is empty again (zero traffic burns zero).
    let past = SimTime(secs(40).0 + 1);
    e.evaluate(past);
    let r = e.report(past);
    assert_eq!(r.verdicts[0].burn_fast, 0.0);
    // ...but it is still inside the 120s slow window.
    assert!(r.verdicts[0].burn_slow > 0.0);
}

#[test]
fn alert_fires_at_the_edge_and_resolves_when_the_window_empties() {
    let mut e = SloEngine::new(vec![avail_spec()]);
    // A burst of failures, then silence. The alert must fire during the
    // burst and resolve once the fast window slides clear of it — with
    // no traffic at all in between.
    for i in 0..10u64 {
        e.record_read(secs(i), "Svc", ReadOutcome::Error, 1_000_000);
        e.evaluate(secs(i));
    }
    let alerts = e.alerts().to_vec();
    assert_eq!(alerts.len(), 1, "burst must fire exactly once");
    assert!(alerts[0].resolved_at.is_none());

    // Last failure at t=9s; at t=39s it is exactly `fast` old (still
    // in), at 39s+1ns the window is empty and the alert resolves.
    assert!(e.evaluate(SimTime(secs(39).0)).is_empty());
    let transitions = e.evaluate(SimTime(secs(39).0 + 1));
    assert_eq!(transitions.len(), 1);
    assert!(!transitions[0].fired);
    let resolved = e.alerts()[0].resolved_at.expect("alert resolved");
    assert_eq!(resolved.as_nanos(), secs(39).0 + 1);
}

#[test]
fn zero_traffic_never_fires_and_reports_healthy() {
    let mut e = SloEngine::new(vec![
        avail_spec(),
        SloSpec {
            name: "b-fresh".into(),
            service: "Svc".into(),
            kind: SloKind::Freshness {
                max_age_ns: 30 * NS,
                min_ratio: 0.95,
            },
            windows: BurnRateWindows::default(),
        },
    ]);
    // Evaluate at t=0 (windows saturate to the empty range) and far out.
    assert!(e.evaluate(secs(0)).is_empty());
    assert!(e.evaluate(secs(100_000)).is_empty());
    let r = e.report(secs(100_000));
    assert!(r.healthy());
    for v in &r.verdicts {
        assert_eq!(v.total, 0);
        assert_eq!(v.burn_fast, 0.0);
        assert_eq!(v.burn_slow, 0.0);
        assert!(v.met, "an idle service is not in violation");
    }
    assert!(r.alerts.is_empty());
}

/// Tiny deterministic LCG so the seeded sweep needs no RNG dependency.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

/// One outage-shaped traffic pattern: reads every second, failing inside
/// a seeded outage window, evaluated after every read.
fn run_seeded(seed: u64) -> (SloEngine, u64) {
    let mut rng = Lcg(seed);
    let outage_start = 100 + rng.next() % 200;
    let outage_len = 40 + rng.next() % 60;
    let mut e = SloEngine::new(vec![avail_spec()]);
    let horizon = 600u64;
    for i in 0..horizon {
        let failing = i >= outage_start && i < outage_start + outage_len;
        // Mild background error noise outside the outage (~3%).
        let noisy = rng.next() % 100 < 3;
        let outcome = if failing || noisy {
            ReadOutcome::Error
        } else {
            ReadOutcome::Ok
        };
        e.record_read(secs(i), "Svc", outcome, 1_000_000);
        e.evaluate(secs(i));
    }
    e.evaluate(secs(horizon));
    (e, horizon)
}

#[test]
fn seeded_sweeps_hold_the_alert_invariants() {
    for seed in [3u64, 7, 1979] {
        let (e, horizon) = run_seeded(seed);
        let r = e.report(secs(horizon));
        // Totals survive window trimming: every read fed is accounted.
        assert_eq!(r.verdicts[0].total, horizon, "seed {seed}");
        // A 40s+ hard outage must page this objective.
        assert!(!r.alerts.is_empty(), "seed {seed}: outage must fire");
        for a in &r.alerts {
            // Fire/resolve ordering is sane and inside the run.
            let resolved = a.resolved_at.expect("quiet tail resolves every alert");
            assert!(a.fired_at <= resolved, "seed {seed}");
            assert!(resolved <= secs(horizon), "seed {seed}");
            assert!(a.burn_fast >= 5.0 && a.burn_slow >= 2.0, "seed {seed}");
        }
        // Determinism: the same seed reproduces the same report.
        let (e2, _) = run_seeded(seed);
        assert_eq!(r.json(), e2.report(secs(horizon)).json(), "seed {seed}");
    }
}
