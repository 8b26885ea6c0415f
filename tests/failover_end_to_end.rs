//! End-to-end outage tolerance (§VII): cybernode failover, partition
//! recovery, and lease-driven cleanup — through the public API only.

use sensorcer_suite::core::prelude::*;
use sensorcer_suite::provision::monitor::ProvisionMonitor;
use sensorcer_suite::registry::item::ServiceTemplate;
use sensorcer_suite::sim::prelude::*;

fn world() -> (Env, Deployment) {
    let config = DeploymentConfig::fig2();
    let mut env = Env::with_seed(config.seed);
    let d = standard_deployment(&mut env, &config);
    (env, d)
}

/// Poll until the provider answers or `limit` passes; returns recovery time.
fn wait_until_up(env: &mut Env, d: &Deployment, name: &str, limit: SimDuration) -> SimDuration {
    let t0 = env.now();
    loop {
        env.run_for(SimDuration::from_millis(500));
        if d.facade.get_value(env, d.workstation, name).is_ok() {
            return env.now() - t0;
        }
        assert!(
            env.now() - t0 < limit,
            "'{name}' did not recover within {limit}"
        );
    }
}

#[test]
fn provisioned_composite_survives_cybernode_crash() {
    let (mut env, d) = world();
    d.facade
        .create_service(
            &mut env,
            d.workstation,
            "HA",
            &["Neem-Sensor", "Jade-Sensor"],
            Some("(a + b)/2"),
        )
        .unwrap();
    let first_home = env
        .find_service("HA")
        .and_then(|s| env.service_host(s))
        .expect("placed");
    env.crash_host(first_home);

    let recovery = wait_until_up(&mut env, &d, "HA", SimDuration::from_secs(120));
    // Recovery is dominated by the stale registration's lease (30 s): the
    // monitor re-provisions within a heartbeat, but requestors bind to the
    // stale item until it lapses.
    assert!(recovery < SimDuration::from_secs(60), "{recovery}");

    let instances = env
        .with_service(d.monitor.service, |_e, m: &mut ProvisionMonitor| {
            m.instances("sensor-HA")
        })
        .unwrap();
    assert_eq!(instances.len(), 1);
    assert_ne!(
        instances[0].node.host, first_home,
        "must move to the survivor"
    );
}

#[test]
fn double_crash_exhausts_pool_then_recovers_on_restart() {
    let (mut env, d) = world();
    d.facade
        .create_service(&mut env, d.workstation, "HA", &["Neem-Sensor"], None)
        .unwrap();
    // Kill both cybernodes: nowhere to run.
    for &h in &d.cybernode_hosts {
        env.crash_host(h);
    }
    env.run_for(SimDuration::from_secs(60));
    assert!(
        d.facade.get_value(&mut env, d.workstation, "HA").is_err(),
        "no cybernodes, no composite"
    );
    // Bring one back: the monitor's pending placement retries.
    env.restart_host(d.cybernode_hosts[0]);
    let recovery = wait_until_up(&mut env, &d, "HA", SimDuration::from_secs(120));
    assert!(recovery < SimDuration::from_secs(60), "{recovery}");
}

#[test]
fn partitioned_mote_degrades_loudly_and_heals() {
    let (mut env, d) = world();
    let neem_mote = d.mote_hosts[0];
    env.topo.isolate(neem_mote);
    let err = d
        .facade
        .get_value(&mut env, d.workstation, "Neem-Sensor")
        .unwrap_err();
    assert!(
        err.contains("partition") || err.contains("unreachable"),
        "{err}"
    );
    env.topo.reconnect(neem_mote);
    assert!(d
        .facade
        .get_value(&mut env, d.workstation, "Neem-Sensor")
        .is_ok());
}

/// The services registered under `name`.
fn listed(env: &mut Env, d: &Deployment, name: &str) -> Vec<ServiceId> {
    d.lus
        .lookup(env, d.workstation, &ServiceTemplate::by_name(name), 10)
        .unwrap()
        .iter()
        .map(|item| item.service)
        .collect()
}

#[test]
fn dead_sensor_disappears_from_listing_and_restarts_rejoin() {
    let (mut env, d) = world();
    let lease = DeploymentConfig::fig2().lease;
    let coral_mote = d.mote_hosts[2];
    env.crash_host(coral_mote);
    env.run_for(lease * 2);

    let mut model = BrowserModel::new();
    model
        .refresh_services(&mut env, d.workstation, d.facade)
        .unwrap();
    assert!(
        !model.services.iter().any(|(n, _)| n == "Coral-Sensor"),
        "ghost registration must evaporate"
    );

    // The paper: "when it is up the node is immediately available in the
    // network". The original ESP rejoins at its next renewal tick.
    env.restart_host(coral_mote);
    env.run_for(lease / 3);
    assert_eq!(
        listed(&mut env, &d, "Coral-Sensor"),
        vec![d.esps[2].service]
    );
    assert!(d
        .facade
        .get_value(&mut env, d.workstation, "Coral-Sensor")
        .is_ok());
}

#[test]
fn an_undeployed_sensor_leaves_the_registry_within_a_renewal_interval() {
    let (mut env, d) = world();
    let lease = DeploymentConfig::fig2().lease;
    env.run_for(lease);
    assert_eq!(listed(&mut env, &d, "Neem-Sensor"), vec![d.esps[0].service]);
    assert!(env.undeploy(d.esps[0].service));
    env.run_for(lease / 3);
    assert_eq!(listed(&mut env, &d, "Neem-Sensor"), vec![]);
}

#[test]
fn an_undeployed_composite_leaves_the_registry_within_a_renewal_interval() {
    let (mut env, d) = world();
    d.facade
        .create_service(&mut env, d.workstation, "HA", &["Neem-Sensor"], None)
        .unwrap();
    let ha = env.find_service("HA").expect("placed");
    assert_eq!(listed(&mut env, &d, "HA"), vec![ha]);
    d.monitor
        .undeploy_opstring(&mut env, d.workstation, "sensor-HA")
        .unwrap()
        .unwrap();
    // The composite's lease is the provisioner's default, 30 s.
    env.run_for(SimDuration::from_secs(30) / 3);
    assert_eq!(listed(&mut env, &d, "HA"), vec![]);
}

#[test]
fn composite_over_dead_child_fails_with_named_culprit() {
    let (mut env, d) = world();
    d.facade
        .create_service(
            &mut env,
            d.workstation,
            "Pair",
            &["Neem-Sensor", "Coral-Sensor"],
            None,
        )
        .unwrap();
    env.crash_host(d.mote_hosts[2]); // Coral
    let err = d
        .facade
        .get_value(&mut env, d.workstation, "Pair")
        .unwrap_err();
    assert!(err.contains("Coral-Sensor"), "culprit must be named: {err}");
}
