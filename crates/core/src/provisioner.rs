//! The Sensor Service Provisioner: Rio integration for sensor services.
//!
//! "A Sensor Service Provisioner provides for provisioning of sensor
//! services based on quality of service specified by requestors according
//! to the Rio framework" (§V.B). The piece of machinery that makes §VI
//! step 3 work is the **composite-sensor factory** registered with the
//! provision monitor: when the monitor places a `composite-sensor`
//! element on a cybernode, the factory builds a
//! [`crate::csp::CompositeSensorProvider`] from the element's config (children,
//! expression), deploys it on the node and registers it with the LUS.

use std::rc::Rc;

use sensorcer_provision::factory::{FnFactory, ServiceFactory};
use sensorcer_provision::monitor::{MonitorHandle, ProvisionError};
use sensorcer_provision::opstring::{OperationalString, ServiceElement};
use sensorcer_provision::qos::QosRequirements;
use sensorcer_registry::lus::LusHandle;
use sensorcer_registry::renewal::RenewalHandle;
use sensorcer_sim::env::Env;
use sensorcer_sim::time::SimDuration;
use sensorcer_sim::topology::HostId;

use crate::csp::{deploy_csp, CspConfig};

/// The factory `type_key` for provisioned composite sensor services.
pub const COMPOSITE_TYPE_KEY: &str = "composite-sensor";

/// Config keys understood by the composite factory.
pub mod config_keys {
    /// Comma-separated child provider names composed at startup.
    pub const CHILDREN: &str = "children";
    /// Compute expression installed at startup.
    pub const EXPRESSION: &str = "expression";
    /// Registration lease seconds (default 30).
    pub const LEASE_SECS: &str = "lease-secs";
}

/// Build the composite-sensor factory. `renewal`, when given, keeps the
/// provisioned service's registration alive.
pub fn composite_factory(lus: LusHandle, renewal: Option<RenewalHandle>) -> Rc<dyn ServiceFactory> {
    Rc::new(FnFactory(
        move |env: &mut Env, host: HostId, element: &ServiceElement, instance: &str| {
            let mut cfg = CspConfig::new(host, instance, lus);
            cfg.renewal = renewal;
            if let Some(children) = element.config.get(config_keys::CHILDREN) {
                cfg.children = children
                    .split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            cfg.expression = element.config.get(config_keys::EXPRESSION).cloned();
            if let Some(secs) = element.config.get(config_keys::LEASE_SECS) {
                let secs: u64 = secs
                    .parse()
                    .map_err(|_| format!("bad lease-secs: {secs}"))?;
                cfg.lease = SimDuration::from_secs(secs);
            }
            deploy_csp(env, cfg).map(|h| h.service)
        },
    ))
}

/// Request parameters for provisioning one composite sensor service.
#[derive(Clone, Debug, Default)]
pub struct CompositeSpec {
    pub name: String,
    pub children: Vec<String>,
    pub expression: Option<String>,
    pub qos: QosRequirements,
}

impl CompositeSpec {
    pub fn named(name: impl Into<String>) -> CompositeSpec {
        CompositeSpec {
            name: name.into(),
            qos: QosRequirements::modest(),
            ..Default::default()
        }
    }

    pub fn with_children<I: IntoIterator<Item = S>, S: Into<String>>(mut self, c: I) -> Self {
        self.children = c.into_iter().map(Into::into).collect();
        self
    }

    /// The operational string realizing this spec.
    pub fn to_opstring(&self) -> OperationalString {
        let mut element = ServiceElement::singleton(self.name.clone(), COMPOSITE_TYPE_KEY)
            .with_qos(self.qos.clone());
        if !self.children.is_empty() {
            element = element.with_config(config_keys::CHILDREN, self.children.join(","));
        }
        if let Some(e) = &self.expression {
            element = element.with_config(config_keys::EXPRESSION, e.clone());
        }
        OperationalString::new(format!("sensor-{}", self.name)).with_element(element)
    }
}

/// Provision a composite sensor service onto the best matching cybernode —
/// the user-facing act of §VI step 3 ("Provisioned a new composite service
/// on to the network").
pub fn provision_composite(
    env: &mut Env,
    from: HostId,
    monitor: MonitorHandle,
    spec: &CompositeSpec,
) -> Result<HostId, ProvisionError> {
    let placed = monitor
        .deploy_opstring(env, from, spec.to_opstring())
        .map_err(|_| ProvisionError::NoCandidate(spec.name.clone()))??;
    Ok(placed[0].host)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accessor::client;
    use crate::esp::{deploy_esp, EspConfig};
    use sensorcer_exertion::ServiceAccessor;
    use sensorcer_provision::cybernode::Cybernode;
    use sensorcer_provision::factory::FactoryRegistry;
    use sensorcer_provision::monitor::ProvisionMonitor;
    use sensorcer_provision::policy::AllocationPolicy;
    use sensorcer_provision::qos::QosCapabilities;
    use sensorcer_registry::lease::LeasePolicy;
    use sensorcer_registry::lus::LookupService;
    use sensorcer_sensors::prelude::*;
    use sensorcer_sim::prelude::*;

    struct World {
        env: Env,
        client: HostId,
        lus: LusHandle,
        monitor: MonitorHandle,
        accessor: ServiceAccessor,
        node_hosts: Vec<HostId>,
        renewal: sensorcer_registry::renewal::RenewalHandle,
    }

    fn setup(nodes: usize) -> World {
        let mut env = Env::with_seed(1);
        let lab = env.add_host("lab", HostKind::Server);
        let client = env.add_host("client", HostKind::Workstation);
        let lus = LookupService::deploy(
            &mut env,
            lab,
            "LUS",
            "public",
            LeasePolicy::default(),
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
            SimDuration::from_secs(1),
        );
        let mut node_hosts = Vec::new();
        for i in 0..nodes {
            let h = env.add_host(format!("cyb{i}"), HostKind::Server);
            let node = Cybernode::deploy(
                &mut env,
                h,
                &format!("Cybernode-{i}"),
                QosCapabilities::lab_server(),
                Some(lus),
            );
            env.with_service(monitor.service, |_e, m: &mut ProvisionMonitor| {
                m.register_cybernode(node)
            })
            .unwrap();
            node_hosts.push(h);
        }
        let accessor = ServiceAccessor::new(vec![lus]);
        World {
            env,
            client,
            lus,
            monitor,
            accessor,
            node_hosts,
            renewal,
        }
    }

    fn add_esp(w: &mut World, name: &str, value: f64) {
        let mote = w.env.add_host(format!("{name}-mote"), HostKind::SensorMote);
        deploy_esp(
            &mut w.env,
            EspConfig {
                renewal: Some(w.renewal),
                ..EspConfig::new(
                    mote,
                    name,
                    Box::new(ScriptedProbe::new(vec![value], Unit::Celsius)),
                    w.lus,
                )
            },
        );
    }

    #[test]
    fn provisioned_composite_is_usable_like_fig3() {
        let mut w = setup(2);
        add_esp(&mut w, "Composite-A", 23.0); // stands in for the subnet
        add_esp(&mut w, "Coral-Sensor", 25.0);
        let mut spec =
            CompositeSpec::named("New-Composite").with_children(["Composite-A", "Coral-Sensor"]);
        spec.expression = Some("(a + b)/2".into());
        let placed_on = provision_composite(&mut w.env, w.client, w.monitor, &spec).unwrap();
        assert!(
            w.node_hosts.contains(&placed_on),
            "must land on a cybernode"
        );
        let r = client::get_value(&mut w.env, w.client, &w.accessor, "New-Composite").unwrap();
        assert_eq!(r.value, 24.0);
        // Its registration is renewed: still resolvable much later.
        w.env.run_for(SimDuration::from_secs(120));
        assert!(client::get_value(&mut w.env, w.client, &w.accessor, "New-Composite").is_ok());
    }

    #[test]
    fn provisioned_composite_fails_over_on_node_crash() {
        let mut w = setup(2);
        add_esp(&mut w, "A", 10.0);
        let spec = CompositeSpec::named("HA-Composite").with_children(["A"]);
        let first = provision_composite(&mut w.env, w.client, w.monitor, &spec).unwrap();
        w.env.crash_host(first);
        w.env.run_for(SimDuration::from_secs(5));
        // The monitor re-provisioned on the surviving node; the stale LUS
        // registration for the dead instance lapses, the new one answers.
        let r = client::get_value(&mut w.env, w.client, &w.accessor, "HA-Composite");
        assert!(r.is_ok(), "{r:?}");
        let instances = w
            .env
            .with_service(w.monitor.service, |_e, m: &mut ProvisionMonitor| {
                m.instances("sensor-HA-Composite")
            })
            .unwrap();
        assert_eq!(instances.len(), 1);
        assert_ne!(instances[0].node.host, first);
    }

    #[test]
    fn spec_builds_valid_opstring() {
        let mut spec = CompositeSpec::named("X").with_children(["A", "B"]);
        spec.expression = Some("(a+b)/2".into());
        let os = spec.to_opstring();
        assert!(os.validate().is_ok());
        assert_eq!(os.elements[0].config[config_keys::CHILDREN], "A,B");
        assert_eq!(os.elements[0].config[config_keys::EXPRESSION], "(a+b)/2");
        assert_eq!(os.elements[0].type_key, COMPOSITE_TYPE_KEY);
    }

    #[test]
    fn factory_rejects_invalid_expression() {
        let mut w = setup(1);
        add_esp(&mut w, "A", 1.0);
        let mut spec = CompositeSpec::named("Bad").with_children(["A"]);
        spec.expression = Some("(a + b)/2".into()); // b unbound
        let err = provision_composite(&mut w.env, w.client, w.monitor, &spec).unwrap_err();
        assert!(matches!(err, ProvisionError::NoCandidate(_)));
    }

    #[test]
    fn bad_lease_secs_config_fails_factory() {
        let mut w = setup(1);
        let mut os = CompositeSpec::named("X").to_opstring();
        os.elements[0] = os.elements[0]
            .clone()
            .with_config(config_keys::LEASE_SECS, "not-a-number");
        let res = w.monitor.deploy_opstring(&mut w.env, w.client, os).unwrap();
        assert!(res.is_err());
    }
}
