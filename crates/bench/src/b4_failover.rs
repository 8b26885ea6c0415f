//! B4 — outage tolerance (§VII).
//!
//! "The system handles very well several types of network and computer
//! outages." Two measurable halves:
//!
//! * **Provisioned-service failover** — crash the cybernode hosting a
//!   provisioned composite and measure the client-observed unavailability
//!   window until the monitor re-provisions it elsewhere, sweeping the
//!   monitor heartbeat.
//! * **Stale-registration cleanup** — crash an ESP's mote and measure how
//!   long its dead registration lingers in the LUS, sweeping the lease
//!   duration (the "leasing keeps the sensor network healthy" claim).
//! * **Degraded-mode read availability** — partition one child of a
//!   composite for a fixed window and count how many client reads each
//!   [`DegradationPolicy`] × retry-budget combination still answers
//!   (B4c). Strict forfeits every read that touches the outage;
//!   `Quorum`/`LastKnownGood` substitute and flag instead.
//! * **Rejoin** — crash an ESP's mote for k × its lease and restart it;
//!   measure how long until it reads again (B4e).

use sensorcer_core::prelude::*;
use sensorcer_provision::cybernode::Cybernode;
use sensorcer_provision::factory::FactoryRegistry;
use sensorcer_provision::monitor::ProvisionMonitor;
use sensorcer_provision::policy::AllocationPolicy;
use sensorcer_provision::qos::QosCapabilities;
use sensorcer_registry::item::ServiceTemplate;
use sensorcer_registry::lease::LeasePolicy;
use sensorcer_registry::lus::{LookupService, LusHandle};
use sensorcer_sensors::prelude::*;
use sensorcer_sim::prelude::*;

use crate::table::{fmt_us, Table};

/// Crash the node hosting a provisioned composite; poll through the façade
/// path until it answers again. Returns the unavailability window.
pub fn failover_window(heartbeat: SimDuration, seed: u64) -> SimDuration {
    let mut env = Env::with_seed(seed);
    let lab = env.add_host("lab", HostKind::Server);
    let client = env.add_host("client", HostKind::Workstation);
    let lus = LookupService::deploy(
        &mut env,
        lab,
        "LUS",
        "public",
        LeasePolicy {
            max_duration: SimDuration::from_secs(360_000),
            default_duration: SimDuration::from_secs(10),
        },
        SimDuration::from_millis(500),
    );
    let renewal =
        sensorcer_registry::renewal::LeaseRenewalService::deploy(&mut env, lab, "Renewal");
    let mut factories = FactoryRegistry::new();
    factories.register(COMPOSITE_TYPE_KEY, composite_factory(lus, Some(renewal)));
    let monitor = ProvisionMonitor::deploy(
        &mut env,
        lab,
        "Monitor",
        AllocationPolicy::LeastUtilized,
        factories,
        Some(lus),
        heartbeat,
    );
    let mut node_hosts = Vec::new();
    for i in 0..2 {
        let h = env.add_host(format!("cyb{i}"), HostKind::Server);
        let node = Cybernode::deploy(
            &mut env,
            h,
            &format!("Cyb-{i}"),
            QosCapabilities::lab_server(),
            Some(lus),
        );
        env.with_service(monitor.service, |_e, m: &mut ProvisionMonitor| {
            m.register_cybernode(node)
        })
        .expect("monitor");
        node_hosts.push(h);
    }
    let mote = env.add_host("mote", HostKind::SensorMote);
    deploy_esp(
        &mut env,
        EspConfig {
            lease: SimDuration::from_secs(10),
            renewal: Some(renewal),
            ..EspConfig::new(
                mote,
                "Sensor-000",
                Box::new(ScriptedProbe::new(vec![21.0], Unit::Celsius)),
                lus,
            )
        },
    );
    let accessor = sensorcer_exertion::ServiceAccessor::new(vec![lus]);
    // Short lease so the dead instance's registration lapses promptly.
    let mut spec = CompositeSpec::named("HA").with_children(["Sensor-000"]);
    spec.qos = sensorcer_provision::qos::QosRequirements::modest();
    let mut os = spec.to_opstring();
    os.elements[0] = os.elements[0]
        .clone()
        .with_config(sensorcer_core::provisioner::config_keys::LEASE_SECS, "5");
    let placed = monitor
        .deploy_opstring(&mut env, client, os)
        .expect("net")
        .expect("placed");
    let victim = placed[0].host;

    // Confirm healthy, then kill the node.
    client::get_value(&mut env, client, &accessor, "HA").expect("healthy");
    let crash_at = env.now();
    env.crash_host(victim);

    // Poll until a read succeeds again, stepping virtual time.
    loop {
        env.run_for(SimDuration::from_millis(200));
        if client::get_value(&mut env, client, &accessor, "HA").is_ok() {
            break;
        }
        assert!(
            env.now() - crash_at < SimDuration::from_secs(120),
            "failover did not complete within 120 virtual seconds"
        );
    }
    env.now() - crash_at
}

/// A LUS and a renewal service on a lab server, and one ESP on its own
/// mote, joined with `lease`: `(env, lab, mote, lus)`.
fn renewed_mote(lease: SimDuration, seed: u64) -> (Env, HostId, HostId, LusHandle) {
    let mut env = Env::with_seed(seed);
    let lab = env.add_host("lab", HostKind::Server);
    let lus = LookupService::deploy(
        &mut env,
        lab,
        "LUS",
        "public",
        LeasePolicy {
            max_duration: SimDuration::from_secs(360_000),
            default_duration: lease,
        },
        SimDuration::from_millis(500),
    );
    let renewal =
        sensorcer_registry::renewal::LeaseRenewalService::deploy(&mut env, lab, "Renewal");
    let mote = env.add_host("mote", HostKind::SensorMote);
    deploy_esp(
        &mut env,
        EspConfig {
            lease,
            renewal: Some(renewal),
            ..EspConfig::new(
                mote,
                "Doomed",
                Box::new(ScriptedProbe::new(vec![21.0], Unit::Celsius)),
                lus,
            )
        },
    );
    (env, lab, mote, lus)
}

/// Crash an ESP's mote; measure how long its registration lingers.
pub fn stale_registration_window(lease: SimDuration, seed: u64) -> SimDuration {
    let (mut env, lab, mote, lus) = renewed_mote(lease, seed);
    env.run_for(lease * 2); // steady state with renewals
    let crash_at = env.now();
    env.crash_host(mote);
    loop {
        env.run_for(SimDuration::from_millis(200));
        let still_there = lus
            .lookup_one(&mut env, lab, &ServiceTemplate::by_name("Doomed"))
            .expect("lus reachable")
            .is_some();
        if !still_there {
            break;
        }
        assert!(
            env.now() - crash_at < lease * 4,
            "stale registration should lapse within ~2 lease periods"
        );
    }
    env.now() - crash_at
}

/// Crash an ESP's mote `phase` after two lease periods, for `outage`, and
/// restart it; measure how long after the restart its first read
/// succeeds. Once the outage has outlasted the lease, the ESP rejoins
/// under its uuid at its next renewal tick.
fn rejoin_window(
    lease: SimDuration,
    outage: SimDuration,
    phase: SimDuration,
    seed: u64,
) -> SimDuration {
    let (mut env, lab, mote, lus) = renewed_mote(lease, seed);
    let accessor = sensorcer_exertion::ServiceAccessor::new(vec![lus]);
    env.run_for(lease * 2 + phase);
    env.crash_host(mote);
    env.run_for(outage);
    env.restart_host(mote);
    let restarted = env.now();
    while client::get_value(&mut env, lab, &accessor, "Doomed").is_err() {
        assert!(
            env.now() - restarted < lease,
            "a restarted mote should rejoin within one renewal interval"
        );
        env.run_for(SimDuration::from_millis(200));
    }
    env.now() - restarted
}

/// Failover-window distribution across independent seeds.
pub fn failover_distribution(
    heartbeat: SimDuration,
    seeds: u64,
    base_seed: u64,
) -> sensorcer_sim::metrics::Summary {
    let samples: Vec<f64> = (0..seeds)
        .map(|i| failover_window(heartbeat, base_seed ^ (i * 0x9E3779B9)).as_micros_f64())
        .collect();
    sensorcer_sim::metrics::Summary::of(&samples).expect("non-empty")
}

/// Read a 3-child composite every 2 s through a 60 s window during which
/// one child is partitioned away for the first 30 s. Returns
/// `(reads, ok, degraded)` — the raw material for the B4c table.
pub fn degraded_read_availability(
    policy: DegradationPolicy,
    retry: sensorcer_exertion::RetryPolicy,
    seed: u64,
) -> (u64, u64, u64) {
    degraded_read_run(policy, retry, seed).0
}

/// Per-mote accounting of the same outage window: who burned the retry
/// budget, whose reads were substituted away. The telemetry registry
/// attributes every retry to the servicer's host and name, so the table
/// localises the outage instead of reporting one global counter.
#[derive(Clone, Debug, PartialEq)]
pub struct MoteRetryRow {
    pub service: String,
    pub retry_attempts: u64,
    pub retry_exhausted: u64,
    /// Times this child's reading was substituted by the composite.
    pub substituted: u64,
}

/// Run the B4c outage and break the retry traffic down by mote.
pub fn retry_attribution(
    policy: DegradationPolicy,
    retry: sensorcer_exertion::RetryPolicy,
    seed: u64,
) -> Vec<MoteRetryRow> {
    use sensorcer_exertion::retry::keys as retry_keys;
    let (_, env, motes) = degraded_read_run(policy, retry, seed);
    motes
        .iter()
        .enumerate()
        .map(|(i, &mote)| {
            let service = format!("S{i}");
            MoteRetryRow {
                retry_attempts: env.metrics.get_host(mote, retry_keys::RETRY_ATTEMPTS),
                retry_exhausted: env.metrics.get_host(mote, retry_keys::RETRY_EXHAUSTED),
                substituted: env
                    .metrics
                    .get_labeled(sensorcer_core::csp::keys::SUBSTITUTED_CHILDREN, &service),
                service,
            }
        })
        .collect()
}

fn degraded_read_run(
    policy: DegradationPolicy,
    retry: sensorcer_exertion::RetryPolicy,
    seed: u64,
) -> ((u64, u64, u64), Env, Vec<HostId>) {
    let mut env = Env::with_seed(seed);
    let lab = env.add_host("lab", HostKind::Server);
    let client = env.add_host("client", HostKind::Workstation);
    let lus = LookupService::deploy(
        &mut env,
        lab,
        "LUS",
        "public",
        LeasePolicy {
            max_duration: SimDuration::from_secs(360_000),
            default_duration: SimDuration::from_secs(36_000),
        },
        SimDuration::from_millis(500),
    );
    let mut motes = Vec::new();
    for i in 0..3u64 {
        let mote = env.add_host(format!("m{i}"), HostKind::SensorMote);
        deploy_esp(
            &mut env,
            EspConfig {
                lease: SimDuration::from_secs(36_000),
                ..EspConfig::new(
                    mote,
                    format!("S{i}"),
                    Box::new(ScriptedProbe::new(vec![20.0 + i as f64], Unit::Celsius)),
                    lus,
                )
            },
        );
        motes.push(mote);
    }
    let mut cfg = CspConfig::new(lab, "DR", lus);
    cfg.lease = SimDuration::from_secs(36_000);
    cfg.children = (0..3).map(|i| format!("S{i}")).collect();
    cfg.degradation = policy;
    cfg.retry = retry;
    deploy_csp(&mut env, cfg).expect("composite");
    let accessor = sensorcer_exertion::ServiceAccessor::new(vec![lus]);
    client::get_value(&mut env, client, &accessor, "DR").expect("priming read");

    // One child out for the first half of the window, then healed.
    let victim = motes[2];
    env.topo.partition(lab, victim);
    let heal_at = env.now() + SimDuration::from_secs(30);
    env.schedule_at(heal_at, move |env| env.topo.heal(lab, victim));

    let end = env.now() + SimDuration::from_secs(60);
    let (mut reads, mut ok, mut degraded) = (0u64, 0u64, 0u64);
    while env.now() < end {
        reads += 1;
        if let Ok((_, d)) = client::get_value_detailed(&mut env, client, &accessor, "DR") {
            ok += 1;
            if d.is_degraded() {
                degraded += 1;
            }
        }
        env.run_for(SimDuration::from_secs(2));
    }
    ((reads, ok, degraded), env, motes)
}

/// B4c table: policy × retry budget → read availability.
pub fn degraded_read_table(seed: u64) -> Table {
    let mut c = Table::new(
        "B4c: composite read availability through a 30s child outage (60s window, reads every 2s)",
        &["policy", "retry", "reads", "ok", "degraded", "availability"],
    );
    let policies = [
        ("strict", DegradationPolicy::Strict),
        ("quorum(2)", DegradationPolicy::Quorum(2)),
        (
            "last-known-good",
            DegradationPolicy::LastKnownGood {
                max_age: SimDuration::from_secs(300),
            },
        ),
    ];
    let retries = [
        ("none", sensorcer_exertion::RetryPolicy::none()),
        ("transient", sensorcer_exertion::RetryPolicy::transient()),
    ];
    for (pname, policy) in policies {
        for (rname, retry) in retries {
            let (reads, ok, degraded) = degraded_read_availability(policy, retry, seed);
            c.row(&[
                pname.to_string(),
                rname.to_string(),
                reads.to_string(),
                ok.to_string(),
                degraded.to_string(),
                format!("{:.0}%", 100.0 * ok as f64 / reads.max(1) as f64),
            ]);
        }
    }
    c.note(
        "strict forfeits every read touching the outage; quorum/LKG answer degraded and flagged",
    );
    c.note(
        "retries stretch each failing read (~10s budget) but only rescue reads the heal overtakes",
    );
    c
}

/// B4d table: the same outage, attributed per mote — retries land on the
/// partitioned child's host, substitutions name the victim's service.
pub fn retry_attribution_table(seed: u64) -> Table {
    let mut t = Table::new(
        "B4d: per-mote retry/substitution attribution through the 30s outage of m2 \
         (quorum(2), transient retries)",
        &["mote", "retry attempts", "retry exhausted", "substituted"],
    );
    let rows = retry_attribution(
        DegradationPolicy::Quorum(2),
        sensorcer_exertion::RetryPolicy::transient(),
        seed,
    );
    for r in &rows {
        t.row(&[
            r.service.clone(),
            r.retry_attempts.to_string(),
            r.retry_exhausted.to_string(),
            r.substituted.to_string(),
        ]);
    }
    t.note("per-host counters localise the outage: healthy motes stay at zero");
    t
}

pub fn run_table(seed: u64) -> (Table, Table) {
    let mut a = Table::new(
        "B4a: provisioned-composite failover window vs. monitor heartbeat (10 seeds)",
        &["heartbeat", "p50 outage", "p90 outage", "max outage"],
    );
    for hb_ms in [500u64, 1_000, 5_000] {
        let s = failover_distribution(SimDuration::from_millis(hb_ms), 10, seed);
        a.row(&[
            format!("{hb_ms}ms"),
            fmt_us(s.p50),
            fmt_us(s.p90),
            fmt_us(s.max),
        ]);
    }
    a.note("outage ≈ stale-lease lapse + heartbeat detection + re-instantiation + re-registration");
    a.note("distribution over 10 independent seeds; crash instants vary with link jitter draws");

    let mut b = Table::new(
        "B4b: stale ESP registration lifetime vs. lease duration",
        &["lease", "lingers for"],
    );
    for lease_s in [5u64, 30, 120] {
        let w = stale_registration_window(SimDuration::from_secs(lease_s), seed);
        b.row(&[format!("{lease_s}s"), fmt_us(w.as_micros_f64())]);
    }
    b.note("a dead provider stops renewing; its item survives at most one lease period");
    (a, b)
}

/// B4e table: time to readable after a mote outage of k × lease, over
/// crash instants spread across one renewal interval.
fn rejoin_table(seed: u64) -> Table {
    let lease = SimDuration::from_secs(30);
    let mut e = Table::new(
        "B4e: ESP readable again after a mote outage of k x lease \
         (lease 30s, renewed every 10s; 5 crash phases 2s apart)",
        &["k", "outage", "p50 readable after restart", "max"],
    );
    for (k, outage) in [("0.5", lease / 2), ("2", lease * 2), ("10", lease * 10)] {
        let samples: Vec<f64> = (0..5)
            .map(|j| {
                rejoin_window(lease, outage, SimDuration::from_secs(2 * j), seed).as_micros_f64()
            })
            .collect();
        let s = sensorcer_sim::metrics::Summary::of(&samples).expect("non-empty");
        e.row(&[
            k.to_string(),
            fmt_us(outage.as_micros_f64()),
            fmt_us(s.p50),
            fmt_us(s.max),
        ]);
    }
    e.note("shorter than the lease, the registration is still held: readable at once");
    e.note(
        "longer, the item lapsed; the mote rejoins under its uuid at its next renewal tick \
         (<= lease/3 after the restart)",
    );
    e
}

pub fn run(seed: u64) -> String {
    let (a, b) = run_table(seed);
    let c = degraded_read_table(seed);
    let d = retry_attribution_table(seed);
    let e = rejoin_table(seed);
    format!(
        "{}\n{}\n{}\n{}\n{}",
        a.render(),
        b.render(),
        c.render(),
        d.render(),
        e.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failover_completes_and_scales_with_heartbeat() {
        let fast = failover_window(SimDuration::from_millis(500), 3);
        let slow = failover_window(SimDuration::from_secs(5), 3);
        assert!(
            fast < slow,
            "faster heartbeat, faster recovery: {fast} vs {slow}"
        );
        assert!(slow < SimDuration::from_secs(30), "{slow}");
    }

    #[test]
    fn failover_distribution_is_tight_and_ordered() {
        let s = failover_distribution(SimDuration::from_secs(1), 6, 7);
        assert!(s.min <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.max);
        // Recovery is lease-dominated: the spread across seeds is bounded
        // (no pathological outliers past the lease + a few heartbeats).
        assert!(s.max < 30e6, "max outage {}us", s.max);
        assert!(
            s.min > 1e6,
            "recovery can't beat the stale-lease window: {}us",
            s.min
        );
    }

    #[test]
    fn degraded_policies_beat_strict_through_an_outage() {
        let (reads_s, ok_s, deg_s) = degraded_read_availability(
            DegradationPolicy::Strict,
            sensorcer_exertion::RetryPolicy::none(),
            9,
        );
        let (reads_q, ok_q, deg_q) = degraded_read_availability(
            DegradationPolicy::Quorum(2),
            sensorcer_exertion::RetryPolicy::none(),
            9,
        );
        let (reads_k, ok_k, deg_k) = degraded_read_availability(
            DegradationPolicy::LastKnownGood {
                max_age: SimDuration::from_secs(300),
            },
            sensorcer_exertion::RetryPolicy::none(),
            9,
        );
        // Strict loses the outage window outright and never degrades.
        assert!(
            ok_s < reads_s,
            "strict must forfeit reads: {ok_s}/{reads_s}"
        );
        assert_eq!(deg_s, 0);
        // Quorum and LKG answer everything, flagging the outage reads.
        assert_eq!(ok_q, reads_q, "quorum answers every read");
        assert_eq!(ok_k, reads_k, "last-known-good answers every read");
        assert!(
            deg_q > 0 && deg_k > 0,
            "outage reads must be flagged: {deg_q}, {deg_k}"
        );
        // And degraded reads stop once the child heals.
        assert!(deg_q < reads_q && deg_k < reads_k);
    }

    #[test]
    fn retries_localise_to_the_partitioned_mote() {
        let rows = retry_attribution(
            DegradationPolicy::Quorum(2),
            sensorcer_exertion::RetryPolicy::transient(),
            9,
        );
        assert_eq!(rows.len(), 3);
        let victim = &rows[2]; // m2 is the partitioned child
        assert!(
            victim.retry_attempts > 0,
            "outage must burn retries: {victim:?}"
        );
        assert!(
            victim.substituted > 0,
            "quorum must substitute the victim: {victim:?}"
        );
        for healthy in &rows[..2] {
            assert_eq!(
                healthy.retry_attempts, 0,
                "healthy mote retried: {healthy:?}"
            );
            assert_eq!(healthy.retry_exhausted, 0, "{healthy:?}");
            assert_eq!(healthy.substituted, 0, "{healthy:?}");
        }
    }

    #[test]
    fn a_restarted_mote_is_readable_within_one_renewal_interval() {
        let lease = SimDuration::from_secs(30);
        for phase in [0, 3, 7].map(SimDuration::from_secs) {
            let w = rejoin_window(lease, lease / 2, phase, 3);
            assert!(w < SimDuration::from_secs(1), "k=0.5: {w}");
            for k in [2, 10] {
                let w = rejoin_window(lease, lease * k, phase, 3);
                assert!(w <= lease / 3 + SimDuration::from_secs(1), "k={k}: {w}");
            }
        }
    }

    #[test]
    fn stale_window_tracks_lease_duration() {
        let short = stale_registration_window(SimDuration::from_secs(5), 3);
        let long = stale_registration_window(SimDuration::from_secs(60), 3);
        assert!(short < long, "{short} vs {long}");
        // Renewal at lease/2 means worst-case staleness is ~1 lease.
        assert!(short <= SimDuration::from_secs(6), "{short}");
        assert!(long <= SimDuration::from_secs(66), "{long}");
    }
}
