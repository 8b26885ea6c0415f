//! # sensorcer-provision
//!
//! The Rio substitute (§IV.C of the paper): cybernodes advertising QoS
//! capabilities, operational-string deployment descriptors, pluggable
//! allocation policies, and a provision monitor that keeps planned
//! instance counts alive — re-provisioning onto surviving nodes when a
//! cybernode fails.
//!
//! This is what lets SenSORCER "dynamically adapt to addition and removal
//! of sensor resource on the network" and run "sensor service on the
//! compute resource available in the network that matches required QoS".
//!
//! ```
//! use sensorcer_provision::prelude::*;
//! use sensorcer_sim::prelude::*;
//!
//! let mut env = Env::with_seed(7);
//! let lab = env.add_host("lab", HostKind::Server);
//! let node_host = env.add_host("node", HostKind::Server);
//!
//! struct Bean;
//! let mut factories = FactoryRegistry::new();
//! factories.register_fn("bean", |env, host, _el, inst| {
//!     Ok(env.deploy(host, inst.to_string(), Bean))
//! });
//!
//! let monitor = ProvisionMonitor::deploy(
//!     &mut env, lab, "Monitor", AllocationPolicy::LeastUtilized,
//!     factories, None, SimDuration::from_secs(1),
//! );
//! let node = Cybernode::deploy(&mut env, node_host, "Cybernode",
//!     QosCapabilities::lab_server(), None);
//! env.with_service(monitor.service, |_e, m: &mut ProvisionMonitor| {
//!     m.register_cybernode(node)
//! }).unwrap();
//!
//! let os = OperationalString::new("demo")
//!     .with_element(ServiceElement::singleton("svc", "bean"));
//! let placed = monitor.deploy_opstring(&mut env, lab, os).unwrap().unwrap();
//! assert_eq!(placed.len(), 1);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
pub mod autoscale;
pub mod cybernode;
pub mod factory;
pub mod monitor;
pub mod opstring;
pub mod policy;
pub mod qos;

/// One-stop imports.
pub mod prelude {
    pub use crate::autoscale::{AutoScaler, AutoScalerConfig, ScaleAction};
    pub use crate::cybernode::{Cybernode, CybernodeError, CybernodeHandle, HostedInstance};
    pub use crate::factory::{FactoryRegistry, FnFactory, ProvisionedService, ServiceFactory};
    pub use crate::monitor::{
        InstanceRecord, MonitorHandle, ProvisionError, ProvisionEvent, ProvisionEventKind,
        ProvisionMonitor,
    };
    pub use crate::opstring::{OperationalString, ServiceElement};
    pub use crate::policy::{AllocationPolicy, Candidate};
    pub use crate::qos::{QosCapabilities, QosRequirements};
}

pub use prelude::*;
