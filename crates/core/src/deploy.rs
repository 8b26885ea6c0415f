//! One-call standard deployment of the full SenSORCER stack.
//!
//! Reproduces the environment of the paper's Fig. 2: Jini infrastructure
//! (lookup service, transaction manager, lease renewal, event mailbox),
//! Rio provisioning (monitor + cybernodes), four elementary temperature
//! sensors (Neem/Jade/Coral/Diamond), a jobber for federated jobs, and
//! the SenSORCER façade. Examples, integration tests and every benchmark
//! build on this.

use sensorcer_exertion::fmi::{Jobber, ServiceAccessor};
use sensorcer_provision::cybernode::{Cybernode, CybernodeHandle};
use sensorcer_provision::factory::FactoryRegistry;
use sensorcer_provision::monitor::{MonitorHandle, ProvisionMonitor};
use sensorcer_provision::policy::AllocationPolicy;
use sensorcer_provision::qos::QosCapabilities;
use sensorcer_registry::events::{EventMailbox, MailboxHandle};
use sensorcer_registry::item::ServiceItem;
use sensorcer_registry::lease::LeasePolicy;
use sensorcer_registry::lus::{LookupService, LusHandle};
use sensorcer_registry::renewal::{join, LeaseRenewalService, RenewalHandle};
use sensorcer_registry::txn::{TmHandle, TransactionManager};
use sensorcer_sensors::spot;
use sensorcer_sim::env::Env;
use sensorcer_sim::time::SimDuration;
use sensorcer_sim::topology::{HostId, HostKind};

use crate::esp::{deploy_esp, EspConfig, EspHandle};
use crate::facade::{FacadeHandle, SensorcerFacade};
use crate::provisioner::{composite_factory, COMPOSITE_TYPE_KEY};

/// Deployment parameters.
#[derive(Clone, Debug)]
pub struct DeploymentConfig {
    pub seed: u64,
    /// Discovery group.
    pub group: String,
    /// Names of the elementary temperature sensors to stand up, one mote
    /// host each.
    pub sensor_names: Vec<String>,
    /// Number of cybernodes.
    pub cybernodes: usize,
    /// Registration lease for sensor services.
    pub lease: SimDuration,
    /// Background sampling period for ESP local stores (None = on demand).
    pub sample_every: Option<SimDuration>,
    pub policy: AllocationPolicy,
    /// Provision-monitor heartbeat.
    pub heartbeat: SimDuration,
}

impl DeploymentConfig {
    /// The paper's Fig. 2 world: four SunSPOT temperature sensors, two
    /// cybernodes.
    pub fn fig2() -> DeploymentConfig {
        DeploymentConfig {
            seed: 0x5E2509,
            group: "public".into(),
            sensor_names: [
                "Neem-Sensor",
                "Jade-Sensor",
                "Coral-Sensor",
                "Diamond-Sensor",
            ]
            .map(String::from)
            .to_vec(),
            cybernodes: 2,
            lease: SimDuration::from_secs(30),
            sample_every: Some(SimDuration::from_secs(5)),
            policy: AllocationPolicy::LeastUtilized,
            heartbeat: SimDuration::from_secs(1),
        }
    }
}

/// Handles to everything the standard deployment stood up.
pub struct Deployment {
    /// The lab server hosting the Jini/Rio infrastructure.
    pub lab: HostId,
    /// The workstation the browser/requestors run on.
    pub workstation: HostId,
    pub lus: LusHandle,
    pub tm: TmHandle,
    pub renewal: RenewalHandle,
    pub mailbox: MailboxHandle,
    pub monitor: MonitorHandle,
    pub cybernodes: Vec<CybernodeHandle>,
    pub cybernode_hosts: Vec<HostId>,
    pub esps: Vec<EspHandle>,
    pub mote_hosts: Vec<HostId>,
    pub facade: FacadeHandle,
    pub accessor: ServiceAccessor,
    pub group: String,
}

/// Build the standard deployment into `env`.
pub fn standard_deployment(env: &mut Env, config: &DeploymentConfig) -> Deployment {
    // --- Hosts ---------------------------------------------------------
    let lab = env.add_host("persimmon.cs.ttu.edu", HostKind::Server);
    let workstation = env.add_host("browser-workstation", HostKind::Workstation);
    env.topo.join_group(workstation, &config.group);

    // --- Jini infrastructure --------------------------------------------
    let lus = LookupService::deploy(
        env,
        lab,
        "Lookup Service",
        &config.group,
        // Infrastructure services join with the default duration and no
        // renewer, so the default is effectively "for the life of the
        // deployment"; sensor services join with explicit short leases and
        // the renewal service.
        LeasePolicy {
            max_duration: SimDuration::from_secs(1_000_000),
            default_duration: SimDuration::from_secs(1_000_000),
        },
        SimDuration::from_millis(500),
    );
    let tm = TransactionManager::deploy(env, lab, "Transaction Manager", SimDuration::from_secs(1));
    let renewal = LeaseRenewalService::deploy(env, lab, "Lease Renewal Service");
    let mailbox = EventMailbox::deploy(env, lab, "Event Mailbox");
    // Register the infrastructure pieces so the browser lists them, as the
    // paper's Fig. 2 shows (Transaction Manager, Lease Renewal Service,
    // Event Mailbox all appear in the Inca X service tree).
    for (name, iface, service) in [
        (
            "Transaction Manager",
            sensorcer_registry::ids::interfaces::TRANSACTION_MANAGER,
            tm.service,
        ),
        (
            "Lease Renewal Service",
            sensorcer_registry::ids::interfaces::LEASE_RENEWAL,
            renewal.service,
        ),
        (
            "Event Mailbox",
            sensorcer_registry::ids::interfaces::EVENT_MAILBOX,
            mailbox.service,
        ),
    ] {
        let item = ServiceItem::provider(lab, service, &[iface], name, "INFRASTRUCTURE");
        let _ = join(env, lus, item, None, None);
    }

    // --- Rio provisioning ------------------------------------------------
    let mut factories = FactoryRegistry::new();
    factories.register(COMPOSITE_TYPE_KEY, composite_factory(lus, Some(renewal)));
    let monitor = ProvisionMonitor::deploy(
        env,
        lab,
        "Monitor",
        config.policy,
        factories,
        Some(lus),
        config.heartbeat,
    );
    let mut cybernodes = Vec::new();
    let mut cybernode_hosts = Vec::new();
    for i in 0..config.cybernodes {
        let host = env.add_host(format!("cybernode-{i}"), HostKind::Server);
        let node = Cybernode::deploy(
            env,
            host,
            &format!("Cybernode-{i}"),
            QosCapabilities::lab_server(),
            Some(lus),
        );
        #[expect(
            clippy::expect_used,
            reason = "the monitor is deployed a few lines up: every world of \
                      tests/fig2_deployment.rs and tests/determinism.rs comes through here"
        )]
        env.with_service(monitor.service, |_e, m: &mut ProvisionMonitor| {
            m.register_cybernode(node)
        })
        .expect("monitor deployed above");
        cybernodes.push(node);
        cybernode_hosts.push(host);
    }

    // --- Elementary sensor services --------------------------------------
    let mut esps = Vec::new();
    let mut mote_hosts = Vec::new();
    for (i, name) in config.sensor_names.iter().enumerate() {
        let mote = env.add_host(format!("{name}-mote"), HostKind::SensorMote);
        let probe = spot::sunspot_temperature(&format!("SPOT-{i:04}"), env.fork_rng());
        let esp = deploy_esp(
            env,
            EspConfig {
                renewal: Some(renewal),
                lease: config.lease,
                sample_every: config.sample_every,
                location: Some(("CP TTU".into(), "3".into(), "310".into())),
                ..EspConfig::new(mote, name.clone(), Box::new(probe), lus)
            },
        );
        esps.push(esp);
        mote_hosts.push(mote);
    }

    // --- Rendezvous + façade ----------------------------------------------
    let accessor = ServiceAccessor::new(vec![lus]);
    Jobber::deploy(env, lab, "Jobber", accessor.clone());
    let facade = SensorcerFacade::deploy(
        env,
        lab,
        "SenSORCER Facade",
        accessor.clone(),
        Some(monitor),
    );

    Deployment {
        lab,
        workstation,
        lus,
        tm,
        renewal,
        mailbox,
        monitor,
        cybernodes,
        cybernode_hosts,
        esps,
        mote_hosts,
        facade,
        accessor,
        group: config.group.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorcer_sim::prelude::{Env, SimDuration};

    #[test]
    fn fig2_world_comes_up_complete() {
        let config = DeploymentConfig::fig2();
        let mut env = Env::with_seed(config.seed);
        let d = standard_deployment(&mut env, &config);

        let rows = d.facade.list_services(&mut env, d.workstation).unwrap();
        let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
        for expected in [
            "Lookup Service",
            "Monitor",
            "Cybernode-0",
            "Cybernode-1",
            "Neem-Sensor",
            "Jade-Sensor",
            "Coral-Sensor",
            "Diamond-Sensor",
            "SenSORCER Facade",
            "Jobber",
        ] {
            assert!(
                names.contains(&expected),
                "missing {expected}; have {names:?}"
            );
        }
        // The LUS itself registers? No — it *is* the registry; the browser
        // sees it because the facade lists it explicitly via its handle.
        assert_eq!(d.esps.len(), 4);
        assert_eq!(d.cybernodes.len(), 2);
    }

    #[test]
    fn sensors_answer_after_deployment() {
        let config = DeploymentConfig::fig2();
        let mut env = Env::with_seed(config.seed);
        let d = standard_deployment(&mut env, &config);
        for name in &config.sensor_names {
            let r = d.facade.get_value(&mut env, d.workstation, name).unwrap();
            assert!((10.0..35.0).contains(&r.value), "{name}: {}", r.value);
        }
    }

    #[test]
    fn deployment_survives_an_hour_of_leases() {
        let config = DeploymentConfig::fig2();
        let mut env = Env::with_seed(config.seed);
        let d = standard_deployment(&mut env, &config);
        env.run_for(SimDuration::from_secs(3600));
        let r = d.facade.get_value(&mut env, d.workstation, "Neem-Sensor");
        assert!(r.is_ok(), "renewals must keep sensors registered: {r:?}");
    }

    #[test]
    fn scalable_config_generates_sensors() {
        let config = DeploymentConfig {
            sensor_names: (0..10).map(|i| format!("Sensor-{i:03}")).collect(),
            sample_every: None,
            ..DeploymentConfig::fig2()
        };
        let mut env = Env::with_seed(config.seed);
        let d = standard_deployment(&mut env, &config);
        assert_eq!(d.esps.len(), 10);
        let r = d
            .facade
            .get_value(&mut env, d.workstation, "Sensor-007")
            .unwrap();
        assert!(r.value.is_finite());
    }
}
