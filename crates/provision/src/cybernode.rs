//! Cybernodes — Rio's compute nodes.
//!
//! "Dynamic network formation of sensors in SenSORCER dynamically
//! allocates a CSP to the capable cybernode (the Rio compute node) with
//! operational specifications provided by the requestor" (§V.B). A
//! [`Cybernode`] advertises its [`QosCapabilities`], accepts instantiation
//! requests from the provision monitor, tracks its memory reservations,
//! and tears services down on request.

use std::collections::BTreeMap;
use std::rc::Rc;

use sensorcer_sim::env::{Env, ServiceId};
use sensorcer_sim::topology::{HostId, NetError};
use sensorcer_sim::wire::ProtocolStack;

use sensorcer_registry::ids::interfaces;
use sensorcer_registry::item::ServiceItem;
use sensorcer_registry::lus::LusHandle;
use sensorcer_registry::renewal::join;

use crate::factory::{ProvisionedService, ServiceFactory};
use crate::opstring::ServiceElement;
use crate::qos::QosCapabilities;

/// One instance the cybernode is hosting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostedInstance {
    pub instance: String,
    pub element: String,
    pub service: ServiceId,
    pub memory_mb: u32,
}

/// Why an instantiation request was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CybernodeError {
    /// QoS no longer satisfiable (capacity taken since matching).
    InsufficientCapacity,
    /// Per-node instance cap for the element reached.
    ElementCapReached,
    /// The factory failed to build the service.
    FactoryFailed(String),
    /// Unknown instance name on terminate.
    UnknownInstance,
}

impl std::fmt::Display for CybernodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CybernodeError::InsufficientCapacity => f.write_str("insufficient capacity"),
            CybernodeError::ElementCapReached => f.write_str("per-node element cap reached"),
            CybernodeError::FactoryFailed(e) => write!(f, "factory failed: {e}"),
            CybernodeError::UnknownInstance => f.write_str("unknown instance"),
        }
    }
}

impl std::error::Error for CybernodeError {}

/// The compute-node service.
#[derive(Debug)]
pub struct Cybernode {
    pub host: HostId,
    caps: QosCapabilities,
    reserved_mb: u32,
    hosted: BTreeMap<String, HostedInstance>,
    instantiations_total: u64,
}

impl Cybernode {
    pub fn new(host: HostId, caps: QosCapabilities) -> Cybernode {
        Cybernode {
            host,
            caps,
            reserved_mb: 0,
            hosted: BTreeMap::new(),
            instantiations_total: 0,
        }
    }

    /// Deploy a cybernode on `host`; if `lus` is given, register it there
    /// (interface `Cybernode`) so monitors can discover it.
    pub fn deploy(
        env: &mut Env,
        host: HostId,
        name: &str,
        caps: QosCapabilities,
        lus: Option<LusHandle>,
    ) -> CybernodeHandle {
        let service = env.deploy(host, name, Cybernode::new(host, caps));
        if let Some(lus) = lus {
            let item =
                ServiceItem::provider(host, service, &[interfaces::CYBERNODE], name, "CYBERNODE");
            // Cybernodes are infrastructure: join with a long lease.
            let _ = join(env, lus, item, None, None);
        }
        CybernodeHandle { service, host }
    }

    pub fn capabilities(&self) -> &QosCapabilities {
        &self.caps
    }

    pub fn reserved_mb(&self) -> u32 {
        self.reserved_mb
    }

    /// Number of hosted instances of `element`.
    pub fn count_of(&self, element: &str) -> u32 {
        self.hosted
            .values()
            .filter(|h| h.element == element)
            .count() as u32
    }

    pub fn hosted(&self) -> impl Iterator<Item = &HostedInstance> {
        self.hosted.values()
    }

    pub fn instantiations_total(&self) -> u64 {
        self.instantiations_total
    }

    fn instantiate(
        &mut self,
        env: &mut Env,
        element: &ServiceElement,
        instance: &str,
        factory: Rc<dyn ServiceFactory>,
    ) -> Result<ProvisionedService, CybernodeError> {
        if !element.qos.satisfied_by(&self.caps, self.reserved_mb) {
            return Err(CybernodeError::InsufficientCapacity);
        }
        if self.count_of(&element.name) >= element.max_per_node {
            return Err(CybernodeError::ElementCapReached);
        }
        // Instantiation is not free: class loading / bean wiring.
        env.consume(sensorcer_sim::time::SimDuration::from_millis(20));
        let service = factory
            .create(env, self.host, element, instance)
            .map_err(CybernodeError::FactoryFailed)?;
        self.reserved_mb += element.qos.memory_mb;
        self.hosted.insert(
            instance.to_string(),
            HostedInstance {
                instance: instance.to_string(),
                element: element.name.clone(),
                service,
                memory_mb: element.qos.memory_mb,
            },
        );
        self.instantiations_total += 1;
        Ok(ProvisionedService {
            service,
            instance: instance.to_string(),
            element: element.name.clone(),
            host: self.host,
        })
    }

    fn terminate(&mut self, env: &mut Env, instance: &str) -> Result<(), CybernodeError> {
        let rec = self
            .hosted
            .remove(instance)
            .ok_or(CybernodeError::UnknownInstance)?;
        self.reserved_mb = self.reserved_mb.saturating_sub(rec.memory_mb);
        env.undeploy(rec.service);
        Ok(())
    }
}

/// Remote handle to a cybernode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CybernodeHandle {
    pub service: ServiceId,
    pub host: HostId,
}

impl CybernodeHandle {
    /// Ask the node to instantiate an element (monitor → node).
    pub fn instantiate(
        &self,
        env: &mut Env,
        from: HostId,
        element: &ServiceElement,
        instance: &str,
        factory: Rc<dyn ServiceFactory>,
    ) -> Result<Result<ProvisionedService, CybernodeError>, NetError> {
        let element = element.clone();
        let instance = instance.to_string();
        // The request carries the element descriptor (roughly its debug
        // size) — in Rio this is the serialized service bean config.
        let req = 160
            + element
                .config
                .iter()
                .map(|(k, v)| k.len() + v.len())
                .sum::<usize>();
        env.call(
            from,
            self.service,
            ProtocolStack::Tcp,
            req,
            move |env, node: &mut Cybernode| {
                (node.instantiate(env, &element, &instance, factory), 64)
            },
        )
    }

    /// Tear an instance down.
    pub fn terminate(
        &self,
        env: &mut Env,
        from: HostId,
        instance: &str,
    ) -> Result<Result<(), CybernodeError>, NetError> {
        let instance = instance.to_string();
        env.call(
            from,
            self.service,
            ProtocolStack::Tcp,
            48,
            move |env, node: &mut Cybernode| (node.terminate(env, &instance), 8),
        )
    }

    /// Fetch utilization for placement decisions.
    pub fn utilization(
        &self,
        env: &mut Env,
        from: HostId,
    ) -> Result<(QosCapabilities, u32), NetError> {
        env.call(
            from,
            self.service,
            ProtocolStack::Tcp,
            16,
            |_env, node: &mut Cybernode| ((node.caps.clone(), node.reserved_mb), 96),
        )
    }

    /// Heartbeat: is the node reachable and responding?
    pub fn ping(&self, env: &mut Env, from: HostId) -> Result<(), NetError> {
        env.call(
            from,
            self.service,
            ProtocolStack::Tcp,
            8,
            |_env, _node: &mut Cybernode| ((), 8),
        )
    }

    /// Per-element instance count (used by placement).
    pub fn count_of(&self, env: &mut Env, from: HostId, element: &str) -> Result<u32, NetError> {
        let element = element.to_string();
        env.call(
            from,
            self.service,
            ProtocolStack::Tcp,
            32,
            move |_env, node: &mut Cybernode| (node.count_of(&element), 8),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::FactoryRegistry;
    use crate::qos::QosRequirements;
    use sensorcer_sim::prelude::*;

    struct Bean;

    fn setup() -> (Env, HostId, HostId, CybernodeHandle, FactoryRegistry) {
        let mut env = Env::with_seed(1);
        let monitor = env.add_host("monitor", HostKind::Server);
        let node_host = env.add_host("node", HostKind::Server);
        let node = Cybernode::deploy(
            &mut env,
            node_host,
            "Cybernode",
            QosCapabilities::lab_server(),
            None,
        );
        let mut reg = FactoryRegistry::new();
        reg.register_fn("bean", |env, host, _el, instance| {
            Ok(env.deploy(host, instance.to_string(), Bean))
        });
        (env, monitor, node_host, node, reg)
    }

    #[test]
    fn instantiate_deploys_and_reserves() {
        let (mut env, monitor, node_host, node, reg) = setup();
        let el = ServiceElement::singleton("svc", "bean").with_qos(QosRequirements {
            memory_mb: 100,
            ..Default::default()
        });
        let p = node
            .instantiate(&mut env, monitor, &el, "svc", reg.get("bean").unwrap())
            .unwrap()
            .unwrap();
        assert_eq!(p.host, node_host);
        assert_eq!(env.service_name(p.service), Some("svc"));
        assert_eq!(node.count_of(&mut env, monitor, "svc").unwrap(), 1);
        env.with_service(node.service, |_e, n: &mut Cybernode| {
            assert_eq!(n.reserved_mb(), 100);
            assert_eq!(n.instantiations_total(), 1);
        })
        .unwrap();
    }

    #[test]
    fn per_node_cap_enforced() {
        let (mut env, monitor, _nh, node, reg) = setup();
        let el = ServiceElement::singleton("svc", "bean").with_max_per_node(1);
        node.instantiate(&mut env, monitor, &el, "svc", reg.get("bean").unwrap())
            .unwrap()
            .unwrap();
        let err = node
            .instantiate(&mut env, monitor, &el, "svc-2", reg.get("bean").unwrap())
            .unwrap()
            .unwrap_err();
        assert_eq!(err, CybernodeError::ElementCapReached);
    }

    #[test]
    fn capacity_exhaustion_refused() {
        let (mut env, monitor, _nh, node, reg) = setup();
        let big = ServiceElement::singleton("fat", "bean")
            .with_max_per_node(10)
            .with_qos(QosRequirements {
                memory_mb: 5000,
                ..Default::default()
            });
        node.instantiate(&mut env, monitor, &big, "fat-1", reg.get("bean").unwrap())
            .unwrap()
            .unwrap();
        let err = node
            .instantiate(&mut env, monitor, &big, "fat-2", reg.get("bean").unwrap())
            .unwrap()
            .unwrap_err();
        assert_eq!(
            err,
            CybernodeError::InsufficientCapacity,
            "8192 MB can't fit 2×5000"
        );
    }

    #[test]
    fn terminate_releases_capacity_and_undeploys() {
        let (mut env, monitor, _nh, node, reg) = setup();
        let el = ServiceElement::singleton("svc", "bean").with_qos(QosRequirements {
            memory_mb: 64,
            ..Default::default()
        });
        let p = node
            .instantiate(&mut env, monitor, &el, "svc", reg.get("bean").unwrap())
            .unwrap()
            .unwrap();
        node.terminate(&mut env, monitor, "svc").unwrap().unwrap();
        assert_eq!(env.service_host(p.service), None, "service undeployed");
        env.with_service(node.service, |_e, n: &mut Cybernode| {
            assert_eq!(n.reserved_mb(), 0);
            assert_eq!(n.hosted().count(), 0);
        })
        .unwrap();
        let err = node
            .terminate(&mut env, monitor, "svc")
            .unwrap()
            .unwrap_err();
        assert_eq!(err, CybernodeError::UnknownInstance);
    }

    #[test]
    fn factory_failure_reserves_nothing() {
        let (mut env, monitor, _nh, node, mut reg) = setup();
        reg.register_fn("broken", |_e, _h, _el, _i| Err("boom".into()));
        let el = ServiceElement::singleton("svc", "broken");
        let err = node
            .instantiate(&mut env, monitor, &el, "svc", reg.get("broken").unwrap())
            .unwrap()
            .unwrap_err();
        assert!(matches!(err, CybernodeError::FactoryFailed(_)));
        env.with_service(node.service, |_e, n: &mut Cybernode| {
            assert_eq!(n.reserved_mb(), 0);
        })
        .unwrap();
    }

    #[test]
    fn ping_and_utilization() {
        let (mut env, monitor, _nh, node, _reg) = setup();
        assert!(node.ping(&mut env, monitor).is_ok());
        let (caps, reserved) = node.utilization(&mut env, monitor).unwrap();
        assert_eq!(caps, QosCapabilities::lab_server());
        assert_eq!(reserved, 0);
        env.crash_host(node.host);
        assert!(node.ping(&mut env, monitor).is_err());
    }

    #[test]
    fn deploy_with_lus_registers() {
        let mut env = Env::with_seed(9);
        let lab = env.add_host("lab", HostKind::Server);
        let lus = sensorcer_registry::lus::LookupService::deploy(
            &mut env,
            lab,
            "LUS",
            "public",
            sensorcer_registry::lease::LeasePolicy::default(),
            SimDuration::from_millis(500),
        );
        Cybernode::deploy(
            &mut env,
            lab,
            "Cybernode",
            QosCapabilities::lab_server(),
            Some(lus),
        );
        let found = lus
            .lookup(
                &mut env,
                lab,
                &sensorcer_registry::item::ServiceTemplate::by_interface(interfaces::CYBERNODE),
                10,
            )
            .unwrap();
        assert_eq!(found.len(), 1);
    }
}
