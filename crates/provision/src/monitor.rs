//! The provision monitor — Rio's deployment brain.
//!
//! Keeps every [`OperationalString`]'s actual instance count equal to its
//! planned count: places elements on QoS-matching cybernodes via the
//! configured [`AllocationPolicy`], watches instances with a heartbeat
//! timer, and re-provisions onto a different node when one fails — the
//! paper's "fault tolerance achieved by dynamically allocating the service
//! to a different compute node (cyber node), if the original node fails"
//! (§IV.C).

use std::collections::BTreeMap;

use sensorcer_sim::env::{Env, ServiceId};
use sensorcer_sim::time::{SimDuration, SimTime};
use sensorcer_sim::topology::{HostId, NetError};
use sensorcer_sim::trace::{Outcome, SpanId};
use sensorcer_sim::wire::ProtocolStack;

use sensorcer_registry::ids::interfaces;
use sensorcer_registry::item::ServiceItem;
use sensorcer_registry::lus::LusHandle;
use sensorcer_registry::renewal::join;

use crate::cybernode::CybernodeHandle;
use crate::factory::{FactoryRegistry, ProvisionedService};
use crate::opstring::{OperationalString, ServiceElement};
use crate::policy::{AllocationPolicy, Candidate};

/// Provisioning failures surfaced to the deployer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProvisionError {
    /// The opstring failed validation.
    Invalid(String),
    /// No factory registered for an element's `type_key`.
    UnknownFactory(String),
    /// No cybernode satisfies the element's QoS (or all attempts failed).
    NoCandidate(String),
    /// The named opstring is not deployed.
    UnknownOpstring(String),
    /// The named opstring is already deployed.
    AlreadyDeployed(String),
}

impl std::fmt::Display for ProvisionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProvisionError::Invalid(e) => write!(f, "invalid opstring: {e}"),
            ProvisionError::UnknownFactory(k) => write!(f, "no factory for type '{k}'"),
            ProvisionError::NoCandidate(e) => write!(f, "no capable cybernode for element '{e}'"),
            ProvisionError::UnknownOpstring(n) => write!(f, "opstring '{n}' is not deployed"),
            ProvisionError::AlreadyDeployed(n) => write!(f, "opstring '{n}' is already deployed"),
        }
    }
}

impl std::error::Error for ProvisionError {}

/// What happened to an instance, for the event log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProvisionEventKind {
    /// Placed on a node.
    Deployed { node: HostId },
    /// Moved from a failed node to a new one.
    Failover { from: HostId, to: HostId },
    /// Planned but currently unplaceable; will be retried.
    Pending,
    /// Torn down.
    Undeployed,
}

/// One entry in the monitor's event log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProvisionEvent {
    pub at: SimTime,
    pub opstring: String,
    pub element: String,
    pub instance: String,
    pub kind: ProvisionEventKind,
}

/// A live placed instance.
#[derive(Clone, Debug)]
pub struct InstanceRecord {
    pub element: String,
    pub instance: String,
    pub node: CybernodeHandle,
    pub service: ServiceId,
}

/// A managed opstring. Fields are private: the instance list and pending
/// queue are state-machine state only `check`/`place` may move.
#[derive(Debug)]
pub struct Deployment {
    opstring: OperationalString,
    instances: Vec<InstanceRecord>,
    /// Instances planned but currently unplaced (retried each check).
    pending: Vec<String>,
}

impl Deployment {
    fn element(&self, name: &str) -> Option<&ServiceElement> {
        self.opstring.elements.iter().find(|e| e.name == name)
    }

    /// Element an instance name belongs to (`name` or `name-k`).
    fn element_of_instance(&self, instance: &str) -> Option<&ServiceElement> {
        self.opstring
            .elements
            .iter()
            .find(|e| instance == e.name || instance.starts_with(&format!("{}-", e.name)))
    }
}

/// The monitor service.
pub struct ProvisionMonitor {
    host: HostId,
    policy: AllocationPolicy,
    factories: FactoryRegistry,
    cybernodes: Vec<CybernodeHandle>,
    rr_cursor: usize,
    deployments: BTreeMap<String, Deployment>,
    events: Vec<ProvisionEvent>,
    failovers_total: u64,
    /// Copies a terminate could not reach (their node was down), retried
    /// on the first heartbeat that finds the node up again: a node that
    /// reboots must not keep serving an instance placed elsewhere meanwhile.
    stale: Vec<(String, CybernodeHandle)>,
}

impl ProvisionMonitor {
    pub fn new(host: HostId, policy: AllocationPolicy, factories: FactoryRegistry) -> Self {
        ProvisionMonitor {
            host,
            policy,
            factories,
            cybernodes: Vec::new(),
            rr_cursor: 0,
            deployments: BTreeMap::new(),
            events: Vec::new(),
            failovers_total: 0,
            stale: Vec::new(),
        }
    }

    /// Deploy a monitor on `host` with a heartbeat check every
    /// `heartbeat`; registers with `lus` when given.
    pub fn deploy(
        env: &mut Env,
        host: HostId,
        name: &str,
        policy: AllocationPolicy,
        factories: FactoryRegistry,
        lus: Option<LusHandle>,
        heartbeat: SimDuration,
    ) -> MonitorHandle {
        let service = env.deploy(host, name, ProvisionMonitor::new(host, policy, factories));
        if let Some(lus) = lus {
            let iface = [interfaces::PROVISION_MONITOR];
            let item = ServiceItem::provider(host, service, &iface, name, "MONITOR");
            let _ = join(env, lus, item, None, None);
        }
        env.schedule_every(heartbeat, heartbeat, move |env| {
            env.with_service(service, |env, m: &mut ProvisionMonitor| m.check(env))
                .is_ok()
        });
        MonitorHandle { service, host }
    }

    /// Make a cybernode available for placement.
    pub fn register_cybernode(&mut self, node: CybernodeHandle) {
        if !self.cybernodes.contains(&node) {
            self.cybernodes.push(node);
        }
    }

    /// The host this monitor runs on.
    pub fn host(&self) -> HostId {
        self.host
    }

    pub fn policy(&self) -> AllocationPolicy {
        self.policy
    }

    /// Deploy an opstring: place every planned instance. On a placement
    /// failure everything placed so far is rolled back and the error
    /// returned (the all-or-nothing flavour keeps tests crisp; pending
    /// retry still applies to *failover*, not initial deploy).
    pub fn deploy_opstring(
        &mut self,
        env: &mut Env,
        opstring: OperationalString,
    ) -> Result<Vec<ProvisionedService>, ProvisionError> {
        let span = if env.tracing_enabled() {
            let label = opstring.name.clone();
            let s = env.span_start("provision.deploy", &label, self.host);
            env.span_field(s, "elements", opstring.elements.len());
            s
        } else {
            SpanId::INVALID
        };
        let result = self.deploy_opstring_inner(env, opstring);
        if span.is_valid() {
            match &result {
                Ok(placed) => env.span_field(span, "placed", placed.len()),
                Err(e) => env.span_field(span, "error", e.to_string()),
            }
        }
        env.span_end(
            span,
            if result.is_ok() {
                Outcome::Ok
            } else {
                Outcome::Error
            },
        );
        result
    }

    fn deploy_opstring_inner(
        &mut self,
        env: &mut Env,
        opstring: OperationalString,
    ) -> Result<Vec<ProvisionedService>, ProvisionError> {
        opstring.validate().map_err(ProvisionError::Invalid)?;
        if self.deployments.contains_key(&opstring.name) {
            return Err(ProvisionError::AlreadyDeployed(opstring.name));
        }
        let mut placed: Vec<InstanceRecord> = Vec::new();
        let mut results = Vec::new();
        for element in &opstring.elements {
            if self.factories.get(&element.type_key).is_none() {
                self.rollback(env, placed);
                return Err(ProvisionError::UnknownFactory(element.type_key.clone()));
            }
            for i in 0..element.planned {
                let instance = if element.planned == 1 {
                    element.name.clone()
                } else {
                    format!("{}-{}", element.name, i + 1)
                };
                match self.place(env, &opstring.name, element, &instance) {
                    Some((p, node)) => {
                        placed.push(InstanceRecord {
                            element: element.name.clone(),
                            instance: instance.clone(),
                            node,
                            service: p.service,
                        });
                        results.push(p);
                    }
                    None => {
                        self.rollback(env, placed);
                        return Err(ProvisionError::NoCandidate(element.name.clone()));
                    }
                }
            }
        }
        self.deployments.insert(
            opstring.name.clone(),
            Deployment {
                opstring,
                instances: placed,
                pending: Vec::new(),
            },
        );
        Ok(results)
    }

    fn rollback(&mut self, env: &mut Env, placed: Vec<InstanceRecord>) {
        for rec in placed {
            self.terminate(env, rec.node, rec.instance);
        }
    }

    /// Tell `node` to drop `instance`. A node that cannot be reached keeps
    /// its copy, so the terminate is queued and retried by [`Self::check`].
    /// A node known to be down is not called at all: the call could only
    /// wait out its timeout.
    fn terminate(&mut self, env: &mut Env, node: CybernodeHandle, instance: String) {
        if !env.is_service_up(node.service) || node.terminate(env, self.host, &instance).is_err() {
            self.stale.push((instance, node));
        }
    }

    /// Place one instance on the first candidate that accepts it and
    /// return it with that node; `None` if every candidate refuses.
    fn place(
        &mut self,
        env: &mut Env,
        opstring: &str,
        element: &ServiceElement,
        instance: &str,
    ) -> Option<(ProvisionedService, CybernodeHandle)> {
        let factory = self.factories.get(&element.type_key)?;
        // Build the feasible candidate list by querying each node (paying
        // the network cost of the utilization calls). A node known to be
        // down is skipped: asking it could only wait out the call timeout.
        let mut candidates: Vec<Candidate<CybernodeHandle>> = Vec::new();
        for node in self.cybernodes.clone() {
            if !env.is_service_up(node.service) {
                continue;
            }
            let Ok((caps, reserved)) = node.utilization(env, self.host) else {
                continue;
            };
            if !element.qos.satisfied_by(&caps, reserved) {
                continue;
            }
            let Ok(count) = node.count_of(env, self.host, &element.name) else {
                continue;
            };
            if count >= element.max_per_node {
                continue;
            }
            candidates.push(Candidate {
                node,
                caps,
                reserved_mb: reserved,
            });
        }
        while !candidates.is_empty() {
            let idx = self
                .policy
                .select(&element.qos, &candidates, &mut self.rr_cursor)?;
            let chosen = candidates.remove(idx);
            match chosen
                .node
                .instantiate(env, self.host, element, instance, factory.clone())
            {
                Ok(Ok(p)) => {
                    self.events.push(ProvisionEvent {
                        at: env.now(),
                        opstring: opstring.to_string(),
                        element: element.name.clone(),
                        instance: instance.to_string(),
                        kind: ProvisionEventKind::Deployed {
                            node: chosen.node.host,
                        },
                    });
                    return Some((p, chosen.node));
                }
                // Refused or unreachable: try the next candidate.
                Ok(Err(_)) | Err(_) => continue,
            }
        }
        None
    }

    /// Undeploy an opstring, terminating all its instances.
    pub fn undeploy_opstring(&mut self, env: &mut Env, name: &str) -> Result<(), ProvisionError> {
        let dep = self
            .deployments
            .remove(name)
            .ok_or_else(|| ProvisionError::UnknownOpstring(name.to_string()))?;
        for rec in dep.instances {
            self.terminate(env, rec.node, rec.instance.clone());
            self.events.push(ProvisionEvent {
                at: env.now(),
                opstring: name.to_string(),
                element: rec.element,
                instance: rec.instance,
                kind: ProvisionEventKind::Undeployed,
            });
        }
        Ok(())
    }

    /// Heartbeat pass: verify every instance is up; re-provision dead ones
    /// onto other nodes; retry pending placements.
    pub fn check(&mut self, env: &mut Env) {
        // 0. A node that is back up drops the copies a terminate could not
        // reach while it was down, before anything is placed.
        for (instance, node) in std::mem::take(&mut self.stale) {
            if env.is_service_up(node.service) {
                self.terminate(env, node, instance);
            } else {
                self.stale.push((instance, node));
            }
        }

        let names: Vec<String> = self.deployments.keys().cloned().collect();
        for name in names {
            // Take the deployment out to sidestep aliasing with `self`.
            let Some(mut dep) = self.deployments.remove(&name) else {
                continue;
            };

            // 1. Find dead instances.
            let mut survivors = Vec::new();
            let mut dead: Vec<InstanceRecord> = Vec::new();
            for rec in dep.instances.drain(..) {
                if env.is_service_up(rec.service) {
                    survivors.push(rec);
                } else {
                    dead.push(rec);
                }
            }
            dep.instances = survivors;

            // 2. Re-place dead instances. The old node is told to drop its
            // copy first (queued for step 0 while the node is down), so a
            // reboot cannot leave it serving the instance a second time.
            for rec in dead {
                let Some(element) = dep.element(&rec.element).cloned() else {
                    continue;
                };
                // Each re-placement is a `provision.failover` span: the
                // failed host, and where the instance landed (or pending).
                let span = if env.tracing_enabled() {
                    let s = env.span_start("provision.failover", &rec.instance, self.host);
                    env.span_field(s, "opstring", name.as_str());
                    env.span_field(s, "from_host", rec.node.host.0 as u64);
                    s
                } else {
                    SpanId::INVALID
                };
                self.terminate(env, rec.node, rec.instance.clone());
                match self.place(env, &name, &element, &rec.instance) {
                    Some((p, node)) => {
                        self.failovers_total += 1;
                        if span.is_valid() {
                            env.span_field(span, "to_host", p.host.0 as u64);
                        }
                        env.span_end(span, Outcome::Ok);
                        self.events.push(ProvisionEvent {
                            at: env.now(),
                            opstring: name.clone(),
                            element: rec.element.clone(),
                            instance: rec.instance.clone(),
                            kind: ProvisionEventKind::Failover {
                                from: rec.node.host,
                                to: p.host,
                            },
                        });
                        dep.instances.push(InstanceRecord {
                            element: rec.element,
                            instance: rec.instance,
                            node,
                            service: p.service,
                        });
                    }
                    None => {
                        if span.is_valid() {
                            env.span_field(span, "pending", true);
                        }
                        env.span_end(span, Outcome::Degraded);
                        self.events.push(ProvisionEvent {
                            at: env.now(),
                            opstring: name.clone(),
                            element: rec.element.clone(),
                            instance: rec.instance.clone(),
                            kind: ProvisionEventKind::Pending,
                        });
                        dep.pending.push(rec.instance);
                    }
                }
            }

            // 3. Retry pending placements.
            let pending = std::mem::take(&mut dep.pending);
            for instance in pending {
                let Some(element) = dep.element_of_instance(&instance).cloned() else {
                    continue;
                };
                match self.place(env, &name, &element, &instance) {
                    Some((p, node)) => {
                        dep.instances.push(InstanceRecord {
                            element: element.name.clone(),
                            instance,
                            node,
                            service: p.service,
                        });
                    }
                    None => dep.pending.push(instance),
                }
            }

            self.deployments.insert(name, dep);
        }
    }

    /// The planned count of an element, if deployed.
    pub fn planned_of(&self, opstring: &str, element: &str) -> Option<u32> {
        self.deployments
            .get(opstring)?
            .element(element)
            .map(|e| e.planned)
    }

    /// Retarget an element's planned count and converge immediately: a
    /// raise places the new instances now (unplaceable ones go pending and
    /// are retried each heartbeat), a cut terminates surplus instances
    /// highest-index first. This is the autoscaler's actuator — the same
    /// opstring mutation an operator would make, minus redeploying.
    pub fn set_planned(
        &mut self,
        env: &mut Env,
        opstring: &str,
        element: &str,
        planned: u32,
    ) -> Result<(), ProvisionError> {
        if planned == 0 {
            return Err(ProvisionError::Invalid(format!(
                "element '{element}' cannot plan zero instances"
            )));
        }
        let Some(mut dep) = self.deployments.remove(opstring) else {
            return Err(ProvisionError::UnknownOpstring(opstring.to_string()));
        };
        let Some(pos) = dep.opstring.elements.iter().position(|e| e.name == element) else {
            let name = dep.opstring.name.clone();
            self.deployments.insert(name, dep);
            return Err(ProvisionError::Invalid(format!(
                "opstring '{opstring}' has no element '{element}'"
            )));
        };
        let old = dep.opstring.elements[pos].planned;
        dep.opstring.elements[pos].planned = planned;
        let el = dep.opstring.elements[pos].clone();

        if planned > old {
            for i in old..planned {
                let instance = format!("{}-{}", el.name, i + 1);
                match self.place(env, opstring, &el, &instance) {
                    Some((p, node)) => {
                        dep.instances.push(InstanceRecord {
                            element: el.name.clone(),
                            instance,
                            node,
                            service: p.service,
                        });
                    }
                    None => {
                        self.events.push(ProvisionEvent {
                            at: env.now(),
                            opstring: opstring.to_string(),
                            element: el.name.clone(),
                            instance: instance.clone(),
                            kind: ProvisionEventKind::Pending,
                        });
                        dep.pending.push(instance);
                    }
                }
            }
        } else if planned < old {
            // Surplus pending slots are free capacity: drop those first.
            let mut surplus = (old - planned) as usize;
            let belongs = |n: &str| n == el.name || n.starts_with(&format!("{}-", el.name));
            while surplus > 0 {
                let Some(idx) = dep.pending.iter().rposition(|n| belongs(n)) else {
                    break;
                };
                dep.pending.remove(idx);
                surplus -= 1;
            }
            // Then terminate live instances, highest index first (the bare
            // `name` instance counts as index 1 and goes last).
            let index_of = |n: &str| -> u32 {
                n.rsplit('-')
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(1)
            };
            for _ in 0..surplus {
                let Some(idx) = dep
                    .instances
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.element == el.name)
                    .max_by_key(|(_, r)| index_of(&r.instance))
                    .map(|(i, _)| i)
                else {
                    break;
                };
                let rec = dep.instances.remove(idx);
                self.terminate(env, rec.node, rec.instance.clone());
                self.events.push(ProvisionEvent {
                    at: env.now(),
                    opstring: opstring.to_string(),
                    element: rec.element,
                    instance: rec.instance,
                    kind: ProvisionEventKind::Undeployed,
                });
            }
        }
        self.deployments.insert(dep.opstring.name.clone(), dep);
        Ok(())
    }

    /// The live instances of an opstring.
    pub fn instances(&self, opstring: &str) -> Vec<InstanceRecord> {
        self.deployments
            .get(opstring)
            .map(|d| d.instances.clone())
            .unwrap_or_default()
    }

    pub fn events(&self) -> &[ProvisionEvent] {
        &self.events
    }

    pub fn failovers_total(&self) -> u64 {
        self.failovers_total
    }
}

impl std::fmt::Debug for ProvisionMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProvisionMonitor")
            .field("host", &self.host)
            .field("policy", &self.policy)
            .field("cybernodes", &self.cybernodes.len())
            .field("deployments", &self.deployments.len())
            .finish()
    }
}

/// Remote handle to a deployed monitor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MonitorHandle {
    pub service: ServiceId,
    pub host: HostId,
}

impl MonitorHandle {
    /// Remote opstring deployment (requestor → monitor).
    pub fn deploy_opstring(
        &self,
        env: &mut Env,
        from: HostId,
        opstring: OperationalString,
    ) -> Result<Result<Vec<ProvisionedService>, ProvisionError>, NetError> {
        let req = 200
            + opstring
                .elements
                .iter()
                .map(|e| e.name.len() + e.type_key.len() + 64)
                .sum::<usize>();
        env.call(
            from,
            self.service,
            ProtocolStack::Tcp,
            req,
            move |env, m: &mut ProvisionMonitor| (m.deploy_opstring(env, opstring), 96),
        )
    }

    /// Remote undeploy.
    pub fn undeploy_opstring(
        &self,
        env: &mut Env,
        from: HostId,
        name: &str,
    ) -> Result<Result<(), ProvisionError>, NetError> {
        let name = name.to_string();
        env.call(
            from,
            self.service,
            ProtocolStack::Tcp,
            64,
            move |env, m: &mut ProvisionMonitor| (m.undeploy_opstring(env, &name), 8),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cybernode::Cybernode;
    use crate::qos::{QosCapabilities, QosRequirements};
    use sensorcer_registry::item::ServiceTemplate;
    use sensorcer_sim::prelude::*;

    struct Bean;

    struct World {
        env: Env,
        monitor: MonitorHandle,
        nodes: Vec<CybernodeHandle>,
        client: HostId,
    }

    fn setup(node_count: usize, policy: AllocationPolicy) -> World {
        let mut env = Env::with_seed(1);
        let mon_host = env.add_host("monitor", HostKind::Server);
        let client = env.add_host("client", HostKind::Workstation);
        let mut factories = FactoryRegistry::new();
        factories.register_fn("bean", |env, host, _el, instance| {
            Ok(env.deploy(host, instance.to_string(), Bean))
        });
        let monitor = ProvisionMonitor::deploy(
            &mut env,
            mon_host,
            "Monitor",
            policy,
            factories,
            None,
            SimDuration::from_secs(1),
        );
        let mut nodes = Vec::new();
        for i in 0..node_count {
            let h = env.add_host(format!("node{i}"), HostKind::Server);
            let n = Cybernode::deploy(
                &mut env,
                h,
                &format!("Cybernode-{i}"),
                QosCapabilities::lab_server(),
                None,
            );
            env.with_service(monitor.service, |_e, m: &mut ProvisionMonitor| {
                m.register_cybernode(n)
            })
            .unwrap();
            nodes.push(n);
        }
        World {
            env,
            monitor,
            nodes,
            client,
        }
    }

    fn opstring(n_planned: u32) -> OperationalString {
        OperationalString::new("net").with_element(
            ServiceElement::singleton("svc", "bean")
                .with_planned(n_planned)
                .with_max_per_node(10)
                .with_qos(QosRequirements {
                    memory_mb: 64,
                    ..Default::default()
                }),
        )
    }

    #[test]
    fn deploys_singleton() {
        let mut w = setup(2, AllocationPolicy::LeastUtilized);
        let placed = w
            .monitor
            .deploy_opstring(&mut w.env, w.client, opstring(1))
            .unwrap()
            .unwrap();
        assert_eq!(placed.len(), 1);
        assert!(w.env.is_service_up(placed[0].service));
    }

    #[test]
    fn replicas_spread_with_least_utilized() {
        let mut w = setup(3, AllocationPolicy::LeastUtilized);
        let placed = w
            .monitor
            .deploy_opstring(&mut w.env, w.client, opstring(3))
            .unwrap()
            .unwrap();
        let hosts: std::collections::BTreeSet<HostId> = placed.iter().map(|p| p.host).collect();
        assert_eq!(hosts.len(), 3, "least-utilized must spread replicas");
    }

    #[test]
    fn max_per_node_forces_spread_even_with_best_fit() {
        let mut w = setup(3, AllocationPolicy::BestFit);
        let os = OperationalString::new("net").with_element(
            ServiceElement::singleton("svc", "bean")
                .with_planned(3)
                .with_max_per_node(1),
        );
        let placed = w
            .monitor
            .deploy_opstring(&mut w.env, w.client, os)
            .unwrap()
            .unwrap();
        let hosts: std::collections::BTreeSet<HostId> = placed.iter().map(|p| p.host).collect();
        assert_eq!(hosts.len(), 3);
    }

    #[test]
    fn no_capable_node_rolls_back() {
        let mut w = setup(1, AllocationPolicy::LeastUtilized);
        let os = OperationalString::new("net").with_element(
            ServiceElement::singleton("svc", "bean")
                .with_planned(2)
                .with_max_per_node(1), // second replica cannot fit anywhere
        );
        let err = w
            .monitor
            .deploy_opstring(&mut w.env, w.client, os)
            .unwrap()
            .unwrap_err();
        assert_eq!(err, ProvisionError::NoCandidate("svc".into()));
        // Rollback: the node hosts nothing.
        w.env
            .with_service(w.nodes[0].service, |_e, n: &mut Cybernode| {
                assert_eq!(n.hosted().count(), 0);
            })
            .unwrap();
    }

    #[test]
    fn unknown_factory_and_duplicate_errors() {
        let mut w = setup(1, AllocationPolicy::LeastUtilized);
        let os = OperationalString::new("net")
            .with_element(ServiceElement::singleton("svc", "no-such-factory"));
        let err = w
            .monitor
            .deploy_opstring(&mut w.env, w.client, os)
            .unwrap()
            .unwrap_err();
        assert_eq!(
            err,
            ProvisionError::UnknownFactory("no-such-factory".into())
        );

        w.monitor
            .deploy_opstring(&mut w.env, w.client, opstring(1))
            .unwrap()
            .unwrap();
        let err = w
            .monitor
            .deploy_opstring(&mut w.env, w.client, opstring(1))
            .unwrap()
            .unwrap_err();
        assert_eq!(err, ProvisionError::AlreadyDeployed("net".into()));
    }

    #[test]
    fn failover_moves_instance_to_surviving_node() {
        let mut w = setup(2, AllocationPolicy::LeastUtilized);
        let placed = w
            .monitor
            .deploy_opstring(&mut w.env, w.client, opstring(1))
            .unwrap()
            .unwrap();
        let original_host = placed[0].host;
        w.env.crash_host(original_host);
        // The heartbeat (1 s) must detect and re-provision.
        w.env.run_for(SimDuration::from_secs(3));
        let instances = w
            .env
            .with_service(w.monitor.service, |_e, m: &mut ProvisionMonitor| {
                m.instances("net")
            })
            .unwrap();
        assert_eq!(instances.len(), 1);
        assert_ne!(
            instances[0].node.host, original_host,
            "must move to the other node"
        );
        assert!(w.env.is_service_up(instances[0].service));
        w.env
            .with_service(w.monitor.service, |_e, m: &mut ProvisionMonitor| {
                assert_eq!(m.failovers_total(), 1);
                assert!(m
                    .events()
                    .iter()
                    .any(|e| matches!(e.kind, ProvisionEventKind::Failover { .. })));
            })
            .unwrap();
    }

    #[test]
    fn a_failover_does_not_wait_on_the_node_that_died() {
        let mut w = setup(2, AllocationPolicy::LeastUtilized);
        let placed = w
            .monitor
            .deploy_opstring(&mut w.env, w.client, opstring(1))
            .unwrap()
            .unwrap();
        w.env.crash_host(placed[0].host);
        let detected = w.env.now();
        w.env
            .with_service(w.monitor.service, |env, m: &mut ProvisionMonitor| {
                m.check(env)
            })
            .unwrap();
        let replaced = w
            .env
            .with_service(w.monitor.service, |_e, m: &mut ProvisionMonitor| {
                m.events()
                    .iter()
                    .find(|e| matches!(e.kind, ProvisionEventKind::Failover { .. }))
                    .map(|e| e.at)
            })
            .unwrap()
            .expect("the instance is re-placed");
        let timeout = w.env.config.call_timeout;
        assert!(
            replaced - detected < timeout,
            "re-placed {:?} after detection, call timeout {timeout:?}",
            replaced - detected
        );
    }

    #[test]
    fn a_node_that_reboots_after_failover_drops_its_stale_copy() {
        let mut w = setup(2, AllocationPolicy::LeastUtilized);
        // Beans join a lookup service, renewed every 300 ms: more often
        // than the monitor's 1 s heartbeat.
        let lab = w.monitor.host;
        let policy = sensorcer_registry::lease::LeasePolicy::default();
        let reap = SimDuration::from_millis(500);
        let lus = sensorcer_registry::lus::LookupService::deploy(
            &mut w.env, lab, "LUS", "public", policy, reap,
        );
        let renewal =
            sensorcer_registry::renewal::LeaseRenewalService::deploy(&mut w.env, lab, "Renewal");
        let interval = SimDuration::from_millis(300);
        let bean = move |env: &mut Env, host, _: &ServiceElement, instance: &str| {
            let service = env.deploy(host, instance, Bean);
            let item = ServiceItem::provider(host, service, &[], instance, "BEAN");
            join(env, lus, item, Some(interval * 3), Some(renewal)).map_err(|e| e.to_string())?;
            Ok(service)
        };
        w.env
            .with_service(w.monitor.service, |_e, m: &mut ProvisionMonitor| {
                m.factories.register_fn("bean", bean)
            })
            .unwrap();
        let placed = w
            .monitor
            .deploy_opstring(&mut w.env, w.client, opstring(1))
            .unwrap()
            .unwrap();
        // The terminate sent while the node is down cannot reach it; the
        // node comes back still hosting the copy that failed over, whose
        // lease lapsed meanwhile, so it rejoins until it is terminated.
        let stale = *w.nodes.iter().find(|n| n.host == placed[0].host).unwrap();
        w.env.crash_host(stale.host);
        w.env.run_for(SimDuration::from_secs(3));
        w.env.restart_host(stale.host);
        let listed = |env: &mut Env| {
            let found = lus.lookup(env, w.client, &ServiceTemplate::by_name("svc"), 10);
            found.unwrap().iter().map(|i| i.service).collect::<Vec<_>>()
        };
        let (until, mut both) = (w.env.now() + SimDuration::from_secs(10), 0);
        let hosts = |env: &mut Env| {
            env.with_service(stale.service, |_e, n: &mut Cybernode| n.hosted().count())
        };
        while hosts(&mut w.env) == Ok(1) && w.env.now() < until {
            w.env.run_for(SimDuration::from_millis(100));
            both += usize::from(listed(&mut w.env).len() == 2);
        }
        assert!(both > 0, "the stale copy rejoined before it was terminated");
        // Terminated: its join ends and cancels its lease at the next tick.
        w.env.run_for(interval);
        let survivor = w
            .env
            .with_service(w.monitor.service, |_e, m: &mut ProvisionMonitor| {
                m.instances("net")[0].service
            })
            .unwrap();
        assert_eq!(
            listed(&mut w.env),
            vec![survivor],
            "one svc: the copy that failed over"
        );
        w.env.run_for(SimDuration::from_secs(10));
        let (mut hosted, mut reserved) = (0, 0);
        for node in &w.nodes {
            w.env
                .with_service(node.service, |_e, n: &mut Cybernode| {
                    hosted += n.hosted().count();
                    reserved += n.reserved_mb();
                })
                .unwrap();
        }
        assert_eq!((hosted, reserved), (1, 64), "copies hosted, MB reserved");
    }

    #[test]
    fn unplaceable_failover_goes_pending_then_recovers() {
        let mut w = setup(1, AllocationPolicy::LeastUtilized);
        w.monitor
            .deploy_opstring(&mut w.env, w.client, opstring(1))
            .unwrap()
            .unwrap();
        let node_host = w.nodes[0].host;
        w.env.crash_host(node_host);
        w.env.run_for(SimDuration::from_secs(3));
        w.env
            .with_service(w.monitor.service, |_e, m: &mut ProvisionMonitor| {
                assert_eq!(m.instances("net").len(), 0);
                assert!(m
                    .events()
                    .iter()
                    .any(|e| e.kind == ProvisionEventKind::Pending));
            })
            .unwrap();
        // Node comes back: pending placement is retried. (The cybernode's
        // state survived the crash — same machine rebooted.)
        w.env.restart_host(node_host);
        w.env.run_for(SimDuration::from_secs(3));
        let instances = w
            .env
            .with_service(w.monitor.service, |_e, m: &mut ProvisionMonitor| {
                m.instances("net")
            })
            .unwrap();
        assert_eq!(
            instances.len(),
            1,
            "pending instance must be placed on recovery"
        );
    }

    #[test]
    fn undeploy_terminates_instances() {
        let mut w = setup(2, AllocationPolicy::RoundRobin);
        let placed = w
            .monitor
            .deploy_opstring(&mut w.env, w.client, opstring(2))
            .unwrap()
            .unwrap();
        w.monitor
            .undeploy_opstring(&mut w.env, w.client, "net")
            .unwrap()
            .unwrap();
        for p in placed {
            assert!(!w.env.is_service_up(p.service) || w.env.service_host(p.service).is_none());
        }
        let err = w
            .monitor
            .undeploy_opstring(&mut w.env, w.client, "net")
            .unwrap()
            .unwrap_err();
        assert_eq!(err, ProvisionError::UnknownOpstring("net".into()));
    }

    #[test]
    fn set_planned_scales_up_and_back_down() {
        let mut w = setup(3, AllocationPolicy::LeastUtilized);
        w.monitor
            .deploy_opstring(&mut w.env, w.client, opstring(1))
            .unwrap()
            .unwrap();
        w.env
            .with_service(w.monitor.service, |env, m: &mut ProvisionMonitor| {
                assert_eq!(m.planned_of("net", "svc"), Some(1));
                m.set_planned(env, "net", "svc", 3).unwrap();
                assert_eq!(m.planned_of("net", "svc"), Some(3));
                let mut names: Vec<String> = m
                    .instances("net")
                    .iter()
                    .map(|r| r.instance.clone())
                    .collect();
                names.sort();
                assert_eq!(names, vec!["svc", "svc-2", "svc-3"]);

                // Cut back: highest indices terminated first, the original
                // singleton survives.
                m.set_planned(env, "net", "svc", 1).unwrap();
                let live = m.instances("net");
                assert_eq!(live.len(), 1);
                assert_eq!(live[0].instance, "svc");
                assert!(m
                    .events()
                    .iter()
                    .any(|e| e.kind == ProvisionEventKind::Undeployed && e.instance == "svc-3"));
            })
            .unwrap();
    }

    #[test]
    fn set_planned_rejects_bad_targets_and_goes_pending_when_full() {
        let mut w = setup(1, AllocationPolicy::LeastUtilized);
        let os = OperationalString::new("net").with_element(
            ServiceElement::singleton("svc", "bean")
                .with_planned(1)
                .with_max_per_node(1),
        );
        w.monitor
            .deploy_opstring(&mut w.env, w.client, os)
            .unwrap()
            .unwrap();
        w.env
            .with_service(w.monitor.service, |env, m: &mut ProvisionMonitor| {
                assert!(matches!(
                    m.set_planned(env, "net", "svc", 0),
                    Err(ProvisionError::Invalid(_))
                ));
                assert!(matches!(
                    m.set_planned(env, "ghost", "svc", 2),
                    Err(ProvisionError::UnknownOpstring(_))
                ));
                assert!(matches!(
                    m.set_planned(env, "net", "ghost", 2),
                    Err(ProvisionError::Invalid(_))
                ));
                // The single node is at its per-element cap: the raise
                // sticks, but the extra instance parks as pending.
                m.set_planned(env, "net", "svc", 2).unwrap();
                assert_eq!(m.instances("net").len(), 1);
                assert!(m
                    .events()
                    .iter()
                    .any(|e| e.kind == ProvisionEventKind::Pending));
                // Cutting back consumes the pending slot, not the live one.
                m.set_planned(env, "net", "svc", 1).unwrap();
                assert_eq!(m.instances("net").len(), 1);
            })
            .unwrap();
        // A later heartbeat must not resurrect the cancelled pending slot.
        w.env.run_for(SimDuration::from_secs(3));
        w.env
            .with_service(w.monitor.service, |_e, m: &mut ProvisionMonitor| {
                assert_eq!(m.instances("net").len(), 1);
            })
            .unwrap();
    }
}
