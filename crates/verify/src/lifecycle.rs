//! Lifecycle state machines as data, and a checker that replays runtime
//! transitions against them.
//!
//! The middleware crates report every lifecycle transition through
//! [`Env::lifecycle`](sensorcer_sim::env::Env::lifecycle) — which feeds
//! the installed observer (the explorer's
//! [`Checks`](crate::explore::Checks)) and mirrors each transition onto
//! the open flight-recorder span. This module declares what the legal
//! machines *are* (transition tables, one row per `(from, transition,
//! to)`) and checks the observed stream against them, plus the temporal
//! invariants a table alone cannot express: a lease is never renewed at
//! or past its expiry, never reaped before it, and never left expired
//! but unreaped at the end of a run.

use std::collections::BTreeMap;

use sensorcer_sim::env::LifecycleEvent;
use sensorcer_sim::time::{SimDuration, SimTime};
use sensorcer_trace::FlightRecorder;

/// A lifecycle state machine: legal transitions between named states.
/// `initial` is the state an entity is in before its first transition.
#[derive(Debug)]
pub struct StateMachine {
    /// Matches [`LifecycleEvent::kind`].
    pub kind: &'static str,
    pub initial: &'static str,
    /// `(from_state, transition, to_state)` rows; a transition observed
    /// with no matching row for the entity's current state is a
    /// violation.
    pub transitions: &'static [(&'static str, &'static str, &'static str)],
}

impl StateMachine {
    fn next(&self, from: &str, transition: &str) -> Option<&'static str> {
        self.transitions
            .iter()
            .find(|(f, t, _)| *f == from && *t == transition)
            .map(|(_, _, to)| *to)
    }
}

/// Jini registration leases ([`sensorcer_registry::lease::LeaseTable`]
/// under [`sensorcer_registry::lus::LookupService`]). `info` carries the
/// expiry (grant/renew) or the reap instant, in nanos of virtual time.
pub static LEASE_MACHINE: StateMachine = StateMachine {
    kind: "lease",
    initial: "new",
    transitions: &[
        ("new", "grant", "held"),
        ("held", "renew", "held"),
        ("held", "cancel", "ended"),
        ("held", "reap", "ended"),
    ],
};

/// Rio provisioning of one opstring instance
/// ([`sensorcer_provision::monitor::ProvisionMonitor`]). A `deploy` of an
/// already-deployed instance — the double-deploy the paper's failover
/// must never produce — has no row and is therefore flagged.
pub static PROVISION_MACHINE: StateMachine = StateMachine {
    kind: "provision",
    initial: "unplaced",
    transitions: &[
        ("unplaced", "deploy", "deployed"),
        ("deployed", "failover", "deployed"),
        ("deployed", "pending", "pending"),
        ("pending", "deploy", "deployed"),
        ("deployed", "undeploy", "unplaced"),
        ("pending", "undeploy", "unplaced"),
    ],
};

/// Flight-recorder spans. Their transitions are not routed through
/// `Env::lifecycle` (the recorder *is* the trace plane); the checker
/// enforces this machine structurally via [`check_recorder`].
pub static SPAN_MACHINE: StateMachine = StateMachine {
    kind: "span",
    initial: "new",
    transitions: &[
        ("new", "start", "open"),
        ("open", "event", "open"),
        ("open", "end", "closed"),
    ],
};

/// Replays a lifecycle event stream against the declared machines.
#[derive(Debug, Default)]
pub struct LifecycleChecker {
    /// Current state per `(kind, entity)`.
    states: BTreeMap<(&'static str, u64), &'static str>,
    /// Lease expiry per entity, maintained from grant/renew `info`.
    lease_expiry: BTreeMap<u64, u64>,
    violations: Vec<String>,
    events: u64,
}

impl LifecycleChecker {
    pub fn new() -> LifecycleChecker {
        LifecycleChecker::default()
    }

    fn machine(kind: &str) -> Option<&'static StateMachine> {
        match kind {
            "lease" => Some(&LEASE_MACHINE),
            "provision" => Some(&PROVISION_MACHINE),
            "span" => Some(&SPAN_MACHINE),
            _ => None,
        }
    }

    /// Feed one observed transition.
    pub fn feed(&mut self, at: SimTime, ev: LifecycleEvent) {
        self.events += 1;
        let Some(machine) = Self::machine(ev.kind) else {
            self.violations
                .push(format!("unknown lifecycle kind '{}'", ev.kind));
            return;
        };
        let key = (machine.kind, ev.entity);
        let state = self.states.get(&key).copied().unwrap_or(machine.initial);
        match machine.next(state, ev.transition) {
            Some(next) => {
                self.states.insert(key, next);
            }
            None => self.violations.push(format!(
                "{} {:#x}: illegal transition '{}' from state '{}' at {:?}",
                ev.kind, ev.entity, ev.transition, state, at
            )),
        }
        if ev.kind == "lease" {
            self.check_lease_timing(at, ev);
        }
    }

    /// The temporal half of the lease machine: expiry bookkeeping.
    fn check_lease_timing(&mut self, at: SimTime, ev: LifecycleEvent) {
        let now = at.as_nanos();
        match ev.transition {
            "grant" => {
                self.lease_expiry.insert(ev.entity, ev.info);
            }
            "renew" => {
                if let Some(&old) = self.lease_expiry.get(&ev.entity) {
                    if now >= old {
                        self.violations.push(format!(
                            "lease {:#x} renewed at {now}ns but expired at {old}ns — used past expiry",
                            ev.entity
                        ));
                    }
                }
                self.lease_expiry.insert(ev.entity, ev.info);
            }
            "reap" => {
                if let Some(&expires) = self.lease_expiry.get(&ev.entity) {
                    if now < expires {
                        self.violations.push(format!(
                            "lease {:#x} reaped at {now}ns before its expiry {expires}ns",
                            ev.entity
                        ));
                    }
                }
            }
            _ => {}
        }
    }

    /// End-of-run check: every lease that expired before `now` (minus a
    /// reaper-interval `grace`) must have been reaped or cancelled —
    /// "every registered servicer is reaped or renewed".
    pub fn finish(&mut self, now: SimTime, grace: SimDuration) {
        for ((kind, entity), state) in self.states.iter() {
            if *kind != "lease" || *state != "held" {
                continue;
            }
            let Some(&expires) = self.lease_expiry.get(entity) else {
                continue;
            };
            if expires.saturating_add(grace.as_nanos()) < now.as_nanos() {
                self.violations.push(format!(
                    "lease {entity:#x} expired at {expires}ns but was never reaped by {}ns",
                    now.as_nanos()
                ));
            }
        }
    }

    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Transitions fed so far — lets harnesses assert non-vacuity.
    pub fn events(&self) -> u64 {
        self.events
    }
}

/// Structural span-machine check over a finished flight recorder: every
/// span must have closed (`open → end → closed`), events only attach to
/// spans that were open, and timestamps must be monotone. Delegates to
/// the recorder's own validator, which enforces exactly this.
pub fn check_recorder(rec: &FlightRecorder) -> Vec<String> {
    let mut problems = rec.validate(true);
    for span in rec.spans() {
        if span.end_ns < span.start_ns {
            problems.push(format!("span '{}' ends before it starts", span.name));
        }
        for ev in &span.events {
            if ev.at_ns < span.start_ns || ev.at_ns > span.end_ns {
                problems.push(format!(
                    "span '{}': event '{}' outside the span's lifetime",
                    span.name, ev.name
                ));
            }
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: &'static str, entity: u64, transition: &'static str, info: u64) -> LifecycleEvent {
        LifecycleEvent {
            kind,
            entity,
            transition,
            info,
        }
    }

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    #[test]
    fn clean_lease_lifecycle_passes() {
        let mut c = LifecycleChecker::new();
        c.feed(t(0), ev("lease", 1, "grant", t(10).as_nanos()));
        c.feed(t(5), ev("lease", 1, "renew", t(15).as_nanos()));
        c.feed(t(16), ev("lease", 1, "reap", t(16).as_nanos()));
        c.finish(t(20), SimDuration::from_secs(1));
        assert!(c.violations().is_empty(), "{:?}", c.violations());
        assert_eq!(c.events(), 3);
    }

    #[test]
    fn renew_past_expiry_is_flagged() {
        let mut c = LifecycleChecker::new();
        c.feed(t(0), ev("lease", 1, "grant", t(10).as_nanos()));
        c.feed(t(10), ev("lease", 1, "renew", t(20).as_nanos()));
        assert!(
            c.violations()
                .iter()
                .any(|v| v.contains("used past expiry")),
            "{:?}",
            c.violations()
        );
    }

    #[test]
    fn reap_before_expiry_is_flagged() {
        let mut c = LifecycleChecker::new();
        c.feed(t(0), ev("lease", 1, "grant", t(10).as_nanos()));
        c.feed(t(5), ev("lease", 1, "reap", t(5).as_nanos()));
        assert!(c
            .violations()
            .iter()
            .any(|v| v.contains("before its expiry")));
    }

    #[test]
    fn renew_after_reap_is_an_illegal_transition() {
        let mut c = LifecycleChecker::new();
        c.feed(t(0), ev("lease", 1, "grant", t(10).as_nanos()));
        c.feed(t(11), ev("lease", 1, "reap", t(11).as_nanos()));
        c.feed(t(12), ev("lease", 1, "renew", t(22).as_nanos()));
        assert!(c
            .violations()
            .iter()
            .any(|v| v.contains("illegal transition 'renew'")));
    }

    #[test]
    fn expired_but_unreaped_lease_is_flagged_at_finish() {
        let mut c = LifecycleChecker::new();
        c.feed(t(0), ev("lease", 7, "grant", t(10).as_nanos()));
        c.finish(t(30), SimDuration::from_secs(1));
        assert!(c.violations().iter().any(|v| v.contains("never reaped")));
    }

    #[test]
    fn double_deploy_is_flagged() {
        let mut c = LifecycleChecker::new();
        c.feed(t(0), ev("provision", 9, "deploy", 1));
        c.feed(t(1), ev("provision", 9, "deploy", 2));
        assert!(c
            .violations()
            .iter()
            .any(|v| v.contains("illegal transition 'deploy'")));
    }

    #[test]
    fn failover_and_pending_cycle_is_legal() {
        let mut c = LifecycleChecker::new();
        c.feed(t(0), ev("provision", 9, "deploy", 1));
        c.feed(t(1), ev("provision", 9, "failover", 2));
        c.feed(t(2), ev("provision", 9, "pending", 0));
        c.feed(t(3), ev("provision", 9, "deploy", 3));
        c.feed(t(4), ev("provision", 9, "undeploy", 0));
        assert!(c.violations().is_empty(), "{:?}", c.violations());
    }
}
