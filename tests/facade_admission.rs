//! The façade's admission gate stands in front of every verb.
//!
//! Overload protection only holds if every tenant-facing request passes
//! the gate before it reaches a sensor. A façade whose default tenant
//! policy admits nothing (`rate 0, burst 0, max_in_flight 0`) must
//! therefore answer every `FacadeHandle` verb with a typed admission
//! rejection, and no ESP host may receive a single message while it
//! does. A verb that dispatched around the gate — under any method
//! name — either succeeds or fails with some other error, and an ESP
//! hears of it.

use std::collections::BTreeSet;

use sensorcer_suite::core::prelude::*;
use sensorcer_suite::exertion::ServicerBox;
use sensorcer_suite::sim::prelude::*;

/// Every host a message was delivered to.
#[derive(Default)]
struct Receivers(BTreeSet<HostId>);

impl Observer for Receivers {
    fn deliver(&mut self, _from: HostId, to: HostId) {
        self.0.insert(to);
    }
}

/// The paper's Fig. 2 world with `gate` as the façade's default tenant
/// policy, observed from the moment the gate is installed.
fn world(gate: TenantPolicy) -> (Env, Deployment) {
    let config = DeploymentConfig::fig2();
    let mut env = Env::with_seed(config.seed);
    let d = standard_deployment(&mut env, &config);
    let ctrl = shared_admission(AdmissionController::new(gate));
    env.with_service(d.facade.service, |_e, sb: &mut ServicerBox| {
        sb.downcast_mut::<SensorcerFacade>()
            .expect("a façade is deployed here")
            .install_admission(ctrl)
    })
    .expect("façade deployed");
    env.set_observer(Receivers::default());
    (env, d)
}

/// An observer of another type than the one [`world`] installs.
struct Silent;

impl Observer for Silent {}

/// The ESP hosts that received a message since [`world`] returned.
fn esps_reached(env: &mut Env, d: &Deployment) -> Vec<HostId> {
    assert!(
        env.take_observer::<Silent>().is_none(),
        "taking the wrong type must leave the observer installed"
    );
    let seen = env
        .take_observer::<Receivers>()
        .expect("observer installed");
    d.mote_hosts
        .iter()
        .copied()
        .filter(|h| seen.0.contains(h))
        .collect()
}

#[test]
fn a_closed_gate_rejects_every_verb_before_any_esp_hears_of_it() {
    let closed = TenantPolicy {
        class: QosClass::Standard,
        rate_per_sec: 0.0,
        burst: 0.0,
        max_in_flight: 0,
    };
    let (mut env, d) = world(closed);
    let (f, from, esp) = (d.facade, d.workstation, "Neem-Sensor");
    let composite = "Gate-Composite";
    let verdicts: Vec<(&str, Result<(), String>)> = vec![
        ("list_services", f.list_services(&mut env, from).map(drop)),
        ("network_health", f.network_health(&mut env, from).map(drop)),
        ("slo_report", f.slo_report(&mut env, from).map(drop)),
        ("get_value", f.get_value(&mut env, from, esp).map(drop)),
        (
            "get_value_as",
            f.get_value_as(&mut env, from, "bulk", esp).map(drop),
        ),
        (
            "get_value_detailed",
            f.get_value_detailed(&mut env, from, esp).map(drop),
        ),
        (
            "get_history",
            f.get_history(&mut env, from, esp, 4).map(drop),
        ),
        ("get_info", f.get_info(&mut env, from, esp).map(drop)),
        (
            "compose_service",
            f.compose_service(&mut env, from, composite, &[esp])
                .map(drop),
        ),
        (
            "add_expression",
            f.add_expression(&mut env, from, composite, "a"),
        ),
        (
            "create_service",
            f.create_service(&mut env, from, composite, &[esp], Some("a")),
        ),
        (
            "remove_service",
            f.remove_service(&mut env, from, composite, esp),
        ),
    ];
    for (verb, verdict) in verdicts {
        match verdict {
            Err(m) => assert!(is_rejection(&m), "{verb} failed, but not at the gate: {m}"),
            Ok(()) => panic!("{verb} passed a gate that admits nothing"),
        }
    }
    assert_eq!(esps_reached(&mut env, &d), Vec::<HostId>::new());
}

/// The observer sees an ESP that is read: the check above is not vacuous.
#[test]
fn an_open_gate_lets_a_read_reach_its_esp() {
    let (mut env, d) = world(TenantPolicy::new(QosClass::Standard, 100.0, 100.0, 64));
    d.facade
        .get_value(&mut env, d.workstation, "Neem-Sensor")
        .expect("an admitted read");
    assert!(!esps_reached(&mut env, &d).is_empty());
}
