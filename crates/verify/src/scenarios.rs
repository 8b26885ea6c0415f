//! Federated worlds the schedule explorer drives.
//!
//! Each scenario builds a small but real slice of the federation —
//! lookup service, leases, renewal, provisioning, composite reads — with
//! timer periods deliberately aligned so several events are co-scheduled
//! at the same virtual instant. Those ties are exactly what the explorer
//! permutes; the scenarios assert the federation invariants that must
//! hold under *every* delivery order:
//!
//! * [`LeaseChurn`] — a renewing provider stays registered, a lapsed one
//!   is reaped, a cancelled one disappears; no lease is used past expiry.
//! * [`ProvisionFailover`] — a crashed node's instance moves exactly
//!   once (never double-deploys) and the planned count is restored.
//! * [`DegradedRead`] — composite reads that substitute or drop children
//!   are always flagged suspect with a populated `DegradedInfo`.
//! * [`BuggyReaper`] — an intentionally broken aggressive reaper that
//!   cancels leases *about to* expire: correct under FIFO (renewal is
//!   registered first) but wrong when the explorer delivers the reap
//!   before the same-instant renewal. The mutation test uses it to prove
//!   the explorer detects a real ordering bug.

use std::cell::RefCell;
use std::rc::Rc;

use sensorcer_core::csp::DegradationPolicy;
use sensorcer_core::prelude::*;
use sensorcer_provision::cybernode::Cybernode;
use sensorcer_provision::factory::FactoryRegistry;
use sensorcer_provision::monitor::ProvisionMonitor;
use sensorcer_provision::opstring::{OperationalString, ServiceElement};
use sensorcer_provision::policy::AllocationPolicy;
use sensorcer_provision::qos::{QosCapabilities, QosRequirements};
use sensorcer_registry::attributes::Entry;
use sensorcer_registry::ids::{interfaces, SvcUuid};
use sensorcer_registry::item::{ServiceItem, ServiceTemplate};
use sensorcer_registry::lease::LeasePolicy;
use sensorcer_registry::lus::LookupService;
use sensorcer_sensors::prelude::*;
use sensorcer_sim::prelude::*;

use crate::explore::{Scenario, ScenarioResult};

fn fnv(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x1_0000_0000_01b3);
}

fn fnv_str(h: &mut u64, s: &str) {
    for b in s.bytes() {
        fnv(h, b as u64);
    }
    fnv(h, 0xFF);
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Register a bare provider item named `name` living on `host`.
fn provider_item(name: &str, host: HostId, service: ServiceId) -> ServiceItem {
    ServiceItem::new(
        SvcUuid::NIL,
        host,
        service,
        vec![interfaces::SENSOR_DATA_ACCESSOR.into()],
        vec![Entry::Name(name.to_string())],
    )
}

/// Lease churn under permuted reap/renew/lookup order.
///
/// One LUS (reaper every 500 ms), three providers with 1.5 s leases:
/// `Stable` renews on a 500 ms grid, `Lapser` never renews, `Canceller`
/// cancels at exactly t=1 s. Two clients each look all three up at every
/// grid instant. All workload timers are pinned at *absolute* grid times
/// (relative rescheduling would drift off-grid as calls consume virtual
/// time), so each 500 ms boundary co-schedules a renewal, six lookups
/// and — early on — the reaper, and the explorer owns their order.
#[derive(Clone, Copy, Debug, Default)]
pub struct LeaseChurn;

impl Scenario for LeaseChurn {
    fn name(&self) -> &'static str {
        "lease-churn"
    }

    fn reap_grace(&self) -> SimDuration {
        SimDuration::from_millis(1500)
    }

    fn run(&self, env: &mut Env) -> ScenarioResult {
        let lab = env.add_host("lab", HostKind::Server);
        let client = env.add_host("client", HostKind::Workstation);
        let lease = SimDuration::from_millis(1500);
        let lus = LookupService::deploy(
            env,
            lab,
            "LUS",
            "public",
            LeasePolicy {
                max_duration: SimDuration::from_secs(100_000),
                default_duration: lease,
            },
            SimDuration::from_millis(500),
        );

        let mut violations = Vec::new();
        let mut providers = Vec::new();
        for name in ["Stable", "Lapser", "Canceller"] {
            let host = env.add_host(format!("{name}-host"), HostKind::SensorMote);
            let service = env.deploy(host, name, ());
            let reg = match lus.register(env, host, provider_item(name, host, service), Some(lease))
            {
                Ok(reg) => reg,
                Err(e) => {
                    violations.push(format!("registering {name} failed: {e}"));
                    continue;
                }
            };
            providers.push((name, host, reg));
        }

        // Stable renews on the grid: each renewal lands a full second
        // before the running expiry, so it is on time under every order.
        if let Some((_, host, reg)) = providers.iter().find(|(n, _, _)| *n == "Stable").copied() {
            let lease_id = reg.lease.id;
            for tick in 1..=12u64 {
                env.schedule_at(
                    SimTime::ZERO + SimDuration::from_millis(500 * tick),
                    move |env| {
                        let _ =
                            lus.renew(env, host, lease_id, Some(SimDuration::from_millis(1500)));
                    },
                );
            }
        }
        if let Some((_, host, reg)) = providers
            .iter()
            .find(|(n, _, _)| *n == "Canceller")
            .copied()
        {
            let lease_id = reg.lease.id;
            // At t=1s the lease (expiring 1.5s) is still live; the cancel
            // joins the 1s choice point with reap, renewal and lookups.
            env.schedule_at(SimTime::ZERO + SimDuration::from_secs(1), move |env| {
                let _ = lus.cancel(env, host, lease_id);
            });
        }

        // Six independent lookups per grid instant (two clients × three
        // names), each its own timer so the whole batch ties; the results
        // feed the digest so schedule-visible differences are captured.
        let client2 = env.add_host("client2", HostKind::Workstation);
        // (virtual nanos, client index, provider name, found?)
        type LookupLog = Rc<RefCell<Vec<(u64, u8, String, bool)>>>;
        let seen: LookupLog = Rc::default();
        for tick in 1..=12u64 {
            for (who, from) in [(0u8, client), (1u8, client2)] {
                for name in ["Stable", "Lapser", "Canceller"] {
                    let log = Rc::clone(&seen);
                    env.schedule_at(
                        SimTime::ZERO + SimDuration::from_millis(500 * tick),
                        move |env| {
                            let hit = lus
                                .lookup_one(env, from, &ServiceTemplate::by_name(name))
                                .map(|o| o.is_some())
                                .unwrap_or(false);
                            log.borrow_mut().push((
                                env.now().as_nanos(),
                                who,
                                name.to_string(),
                                hit,
                            ));
                        },
                    );
                }
            }
        }

        env.run_for(SimDuration::from_secs(7));

        // End-state invariants: the renewing provider survived, the
        // lapsed and cancelled ones are gone.
        let mut digest = FNV_SEED;
        for (name, expect) in [("Stable", true), ("Lapser", false), ("Canceller", false)] {
            let hit = lus
                .lookup_one(env, client, &ServiceTemplate::by_name(name))
                .map(|o| o.is_some())
                .unwrap_or(false);
            if hit != expect {
                violations.push(format!(
                    "{name}: expected {} at end of run, found {}",
                    if expect { "registered" } else { "absent" },
                    if hit { "registered" } else { "absent" }
                ));
            }
            fnv(&mut digest, hit as u64);
        }
        for (at, who, name, hit) in seen.borrow().iter() {
            fnv(&mut digest, *at);
            fnv(&mut digest, *who as u64);
            fnv_str(&mut digest, name);
            fnv(&mut digest, *hit as u64);
        }
        fnv(
            &mut digest,
            env.metrics
                .get(sensorcer_registry::lus::keys::LEASES_REAPED),
        );
        ScenarioResult { digest, violations }
    }
}

struct Bean;

/// Provision failover under permuted heartbeat/reap order.
///
/// A monitor (heartbeat 500 ms) places two instances across three
/// cybernodes registered with a LUS (reaper 500 ms, renewals 500 ms). The
/// node hosting the first instance crashes at t=1.25 s and reboots at
/// t=2.75 s. Under every delivery order the opstring must return to its
/// planned count with each instance deployed exactly once — the
/// `provision` state machine flags any double-deploy.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProvisionFailover;

impl Scenario for ProvisionFailover {
    fn name(&self) -> &'static str {
        "provision-failover"
    }

    fn run(&self, env: &mut Env) -> ScenarioResult {
        let lab = env.add_host("lab", HostKind::Server);
        let client = env.add_host("client", HostKind::Workstation);
        let lus = LookupService::deploy(
            env,
            lab,
            "LUS",
            "public",
            LeasePolicy {
                max_duration: SimDuration::from_secs(100_000),
                default_duration: SimDuration::from_millis(1500),
            },
            SimDuration::from_millis(500),
        );

        let mut factories = FactoryRegistry::new();
        factories.register_fn("bean", |env, host, _el, instance| {
            Ok(env.deploy(host, instance.to_string(), Bean))
        });
        let monitor = ProvisionMonitor::deploy(
            env,
            lab,
            "Monitor",
            AllocationPolicy::LeastUtilized,
            factories,
            Some(lus),
            SimDuration::from_millis(500),
        );
        let mut nodes = Vec::new();
        for i in 0..3 {
            let h = env.add_host(format!("node{i}"), HostKind::Server);
            let n = Cybernode::deploy(
                env,
                h,
                &format!("Cybernode-{i}"),
                QosCapabilities::lab_server(),
                Some(lus),
            );
            env.with_service(monitor.service, |_e, m: &mut ProvisionMonitor| {
                m.register_cybernode(n)
            })
            .ok();
            nodes.push(n);
        }

        let os = OperationalString::new("net").with_element(
            ServiceElement::singleton("svc", "bean")
                .with_planned(2)
                .with_max_per_node(1)
                .with_qos(QosRequirements {
                    memory_mb: 64,
                    ..Default::default()
                }),
        );
        let mut violations = Vec::new();
        let placed = match monitor.deploy_opstring(env, client, os) {
            Ok(Ok(p)) => p,
            other => {
                return ScenarioResult {
                    digest: 0,
                    violations: vec![format!("initial deploy failed: {other:?}")],
                }
            }
        };
        let victim = placed[0].host;
        env.schedule_at(SimTime::ZERO + SimDuration::from_millis(1250), move |env| {
            env.crash_host(victim);
        });
        env.schedule_at(SimTime::ZERO + SimDuration::from_millis(2750), move |env| {
            env.restart_host(victim);
        });

        // Three observer lookups per grid instant — pinned at absolute
        // times so they keep tying with the heartbeat/reap timers and
        // with each other; their hits feed the digest.
        let observed: Rc<RefCell<Vec<(u64, u8, bool)>>> = Rc::default();
        for tick in 1..=11u64 {
            for i in 0..3u8 {
                let log = Rc::clone(&observed);
                env.schedule_at(
                    SimTime::ZERO + SimDuration::from_millis(500 * tick),
                    move |env| {
                        let hit = lus
                            .lookup_one(
                                env,
                                client,
                                &ServiceTemplate::by_name(format!("Cybernode-{i}")),
                            )
                            .map(|o| o.is_some())
                            .unwrap_or(false);
                        log.borrow_mut().push((env.now().as_nanos(), i, hit));
                    },
                );
            }
        }

        env.run_for(SimDuration::from_secs(6));

        let (instances, failovers) = env
            .with_service(monitor.service, |_e, m: &mut ProvisionMonitor| {
                (m.instances("net"), m.failovers_total())
            })
            .unwrap_or_default();
        if instances.len() != 2 {
            violations.push(format!(
                "planned 2 instances, {} live at end",
                instances.len()
            ));
        }
        let mut names: Vec<&str> = instances.iter().map(|r| r.instance.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        if names.len() != instances.len() {
            violations.push("an instance is deployed more than once".to_string());
        }
        for rec in &instances {
            if !env.is_service_up(rec.service) {
                violations.push(format!(
                    "instance {} placed on a dead service",
                    rec.instance
                ));
            }
        }
        if failovers == 0 {
            violations.push("the crashed instance never failed over".to_string());
        }

        let mut digest = FNV_SEED;
        fnv(&mut digest, failovers);
        for rec in &instances {
            fnv_str(&mut digest, &rec.instance);
            fnv(&mut digest, rec.node.host.0 as u64);
        }
        for &(at, i, hit) in observed.borrow().iter() {
            fnv(&mut digest, at);
            fnv(&mut digest, i as u64);
            fnv(&mut digest, hit as u64);
        }
        ScenarioResult { digest, violations }
    }
}

/// Degraded composite reads under permuted read order.
///
/// A `Quorum(2)` composite over three scripted ESPs; three clients each
/// read it at every 500 ms grid instant (absolute-time timers, so the
/// batch of three reads ties at every instant). One mote is crashed at
/// t=1.25 s and rebooted at t=3.25 s. Invariants, per read: a read that
/// substitutes or drops children must be flagged suspect and must carry
/// the affected children in its `DegradedInfo`; after the heal the final
/// read must be clean.
#[derive(Clone, Copy, Debug, Default)]
pub struct DegradedRead;

impl Scenario for DegradedRead {
    fn name(&self) -> &'static str {
        "degraded-read"
    }

    fn run(&self, env: &mut Env) -> ScenarioResult {
        let lab = env.add_host("lab", HostKind::Server);
        let client = env.add_host("client", HostKind::Workstation);
        env.topo.join_group(client, "public");
        let lus = LookupService::deploy(
            env,
            lab,
            "LUS",
            "public",
            LeasePolicy {
                max_duration: SimDuration::from_secs(100_000),
                default_duration: SimDuration::from_millis(1500),
            },
            SimDuration::from_millis(500),
        );
        let mut motes = Vec::new();
        for i in 0..3 {
            let name = format!("S{i}");
            let mote = env.add_host(format!("{name}-mote"), HostKind::SensorMote);
            // Leases far longer than the horizon: the crash window (2 s)
            // must not evaporate the registration, or the composite could
            // never reconverge post-heal.
            deploy_esp(
                env,
                EspConfig {
                    lease: SimDuration::from_secs(36_000),
                    ..EspConfig::new(
                        mote,
                        name,
                        Box::new(ScriptedProbe::new(
                            vec![10.0 * (i + 1) as f64],
                            Unit::Celsius,
                        )),
                        lus,
                    )
                },
            );
            motes.push(mote);
        }

        let mut cfg = CspConfig::new(lab, "Quorum", lus);
        cfg.lease = SimDuration::from_secs(36_000);
        cfg.children = vec!["S0".into(), "S1".into(), "S2".into()];
        cfg.degradation = DegradationPolicy::Quorum(2);
        if deploy_csp(env, cfg).is_err() {
            return ScenarioResult {
                digest: 0,
                violations: vec!["composite deploy failed".into()],
            };
        }

        let accessor = sensorcer_exertion::ServiceAccessor::new(vec![lus]);
        let victim = motes[2];
        env.schedule_at(SimTime::ZERO + SimDuration::from_millis(1250), move |env| {
            env.crash_host(victim);
        });
        env.schedule_at(SimTime::ZERO + SimDuration::from_millis(3250), move |env| {
            env.restart_host(victim);
        });

        let mut readers = vec![client];
        for i in 1..3 {
            let c = env.add_host(format!("client{i}"), HostKind::Workstation);
            env.topo.join_group(c, "public");
            readers.push(c);
        }

        let results: Rc<RefCell<Vec<(u64, u8, u8)>>> = Rc::default();
        let violations: Rc<RefCell<Vec<String>>> = Rc::default();
        for tick in 1..=11u64 {
            for (who, from) in readers.iter().copied().enumerate() {
                let (log, bad, acc) = (
                    Rc::clone(&results),
                    Rc::clone(&violations),
                    accessor.clone(),
                );
                env.schedule_at(
                    SimTime::ZERO + SimDuration::from_millis(500 * tick),
                    move |env| {
                        let t = env.now();
                        match client::get_value_detailed(env, from, &acc, "Quorum") {
                            Ok((r, d)) => {
                                if d.is_degraded() {
                                    if r.good {
                                        bad.borrow_mut().push(format!(
                                            "t={t:?}: degraded read not flagged suspect \
                                         (substituted: {:?}, missing: {:?})",
                                            d.substituted, d.missing
                                        ));
                                    }
                                    if d.substituted.is_empty() && d.missing.is_empty() {
                                        bad.borrow_mut().push(format!(
                                            "t={t:?}: degraded read carries an empty DegradedInfo"
                                        ));
                                    }
                                } else if !r.good {
                                    bad.borrow_mut().push(format!(
                                        "t={t:?}: suspect read carries no DegradedInfo at all"
                                    ));
                                }
                                log.borrow_mut().push((
                                    t.as_nanos(),
                                    who as u8,
                                    1 + d.is_degraded() as u8,
                                ));
                            }
                            Err(_) => log.borrow_mut().push((t.as_nanos(), who as u8, 0)),
                        }
                    },
                );
            }
        }

        env.run_for(SimDuration::from_secs(7));

        let mut violations = violations.borrow().clone();
        match client::get_value_detailed(env, client, &accessor, "Quorum") {
            Ok((r, d)) if r.good && !d.is_degraded() => {}
            Ok(_) => violations.push("post-heal read still degraded".into()),
            Err(e) => violations.push(format!("post-heal read failed: {e}")),
        }

        let mut digest = FNV_SEED;
        for &(at, who, outcome) in results.borrow().iter() {
            fnv(&mut digest, at);
            fnv(&mut digest, who as u64);
            fnv(&mut digest, outcome as u64);
        }
        ScenarioResult { digest, violations }
    }
}

/// The intentionally broken scenario behind the mutation test.
///
/// A provider's 3 s lease is renewed by a timer at t=2.5 s. A *buggy*
/// aggressive reaper — "reap anything expiring within the next 600 ms" —
/// is co-scheduled at the same instant, registered after the renewal so
/// FIFO order renews first and the run passes. When the explorer flips
/// the tie, the reap lands first, kills a lease that was about to be
/// renewed on time, and the provider vanishes: the ordering bug the
/// schedule explorer exists to catch.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuggyReaper;

impl Scenario for BuggyReaper {
    fn name(&self) -> &'static str {
        "buggy-reaper"
    }

    fn reap_grace(&self) -> SimDuration {
        SimDuration::from_secs(100)
    }

    fn run(&self, env: &mut Env) -> ScenarioResult {
        let lab = env.add_host("lab", HostKind::Server);
        let client = env.add_host("client", HostKind::Workstation);
        let lease_dur = SimDuration::from_secs(3);
        let lus = LookupService::deploy(
            env,
            lab,
            "LUS",
            "public",
            LeasePolicy {
                max_duration: SimDuration::from_secs(100_000),
                default_duration: lease_dur,
            },
            // The legitimate reaper is parked far beyond the horizon; the
            // buggy aggressive one below is the subject.
            SimDuration::from_secs(50_000),
        );

        let host = env.add_host("victim-host", HostKind::SensorMote);
        let service = env.deploy(host, "Victim", ());
        let reg = match lus.register(
            env,
            host,
            provider_item("Victim", host, service),
            Some(lease_dur),
        ) {
            Ok(reg) => reg,
            Err(e) => {
                return ScenarioResult {
                    digest: 0,
                    violations: vec![format!("register failed: {e}")],
                }
            }
        };
        let lease_id = reg.lease.id;
        let expiry: Rc<RefCell<SimTime>> = Rc::new(RefCell::new(reg.lease.expires));

        // Renewal at t=2.5s — 500ms before expiry, comfortably on time.
        let tick = SimTime::ZERO + SimDuration::from_millis(2500);
        let exp = Rc::clone(&expiry);
        env.schedule_at(tick, move |env| {
            if let Ok(Ok(renewed)) = lus.renew(env, host, lease_id, Some(lease_dur)) {
                *exp.borrow_mut() = renewed.expires;
            }
        });
        // The bug: an "aggressive reaper" co-scheduled at the same instant
        // cancels any lease within 600ms of expiry — including one whose
        // renewal is in flight right now.
        let exp = Rc::clone(&expiry);
        env.schedule_at(tick, move |env| {
            let remaining = exp.borrow().as_nanos().saturating_sub(env.now().as_nanos());
            if remaining <= SimDuration::from_millis(600).as_nanos() {
                let _ = lus.cancel(env, lab, lease_id);
            }
        });

        env.run_for(SimDuration::from_secs(4));

        let mut violations = Vec::new();
        let hit = lus
            .lookup_one(env, client, &ServiceTemplate::by_name("Victim"))
            .map(|o| o.is_some())
            .unwrap_or(false);
        if !hit {
            violations.push(
                "provider renewed on time but lost its registration (reap beat the renewal)"
                    .to_string(),
            );
        }
        let mut digest = FNV_SEED;
        fnv(&mut digest, hit as u64);
        fnv(&mut digest, expiry.borrow().as_nanos());
        ScenarioResult { digest, violations }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, run_one, ChoicePolicy, ExploreConfig};

    #[test]
    fn lease_churn_is_clean_under_fifo() {
        let out = run_one(&LeaseChurn, ChoicePolicy::Prefix(Vec::new()), false);
        assert!(out.violations.is_empty(), "{:#?}", out.violations);
        assert!(
            !out.choices.is_empty(),
            "no choice points — the scenario is vacuous"
        );
        assert!(
            out.lifecycle_events > 0,
            "no lifecycle transitions observed"
        );
        let (d, w, r) = out.hb_activity;
        assert!(
            d > 0 && w > 0 && r > 0,
            "hb tracker saw nothing: {:?}",
            (d, w, r)
        );
    }

    #[test]
    fn provision_failover_is_clean_under_fifo() {
        let out = run_one(&ProvisionFailover, ChoicePolicy::Prefix(Vec::new()), false);
        assert!(out.violations.is_empty(), "{:#?}", out.violations);
        assert!(!out.choices.is_empty());
        assert!(out.lifecycle_events > 0);
    }

    #[test]
    fn degraded_read_is_clean_under_fifo() {
        let out = run_one(&DegradedRead, ChoicePolicy::Prefix(Vec::new()), false);
        assert!(out.violations.is_empty(), "{:#?}", out.violations);
        assert!(!out.choices.is_empty());
    }

    #[test]
    fn lease_churn_survives_sampled_schedules() {
        let report = explore(&LeaseChurn, &ExploreConfig::sample(7, 12));
        assert!(report.passed(), "{:#?}", report.violations);
        assert!(
            report.distinct_schedules >= 2,
            "sampling found no reorderings"
        );
    }

    #[test]
    fn buggy_reaper_passes_fifo_but_fails_under_exploration() {
        let fifo = run_one(&BuggyReaper, ChoicePolicy::Prefix(Vec::new()), false);
        assert!(
            fifo.violations.is_empty(),
            "FIFO must hide the bug: {:#?}",
            fifo.violations
        );
        let report = explore(&BuggyReaper, &ExploreConfig::exhaustive(64));
        assert!(
            !report.passed(),
            "the explorer must catch the injected ordering bug"
        );
        assert!(report
            .violations
            .iter()
            .any(|v| v.contains("lost its registration")));
    }
}
