//! # sensorcer-core
//!
//! The paper's primary contribution: the SenSORCER framework for managing
//! sensor-federated networks, built on the Jini-substitute registry, the
//! Rio-substitute provisioner, the SORCER-substitute exertion runtime and
//! the Groovy-substitute expression language.
//!
//! The Measure–Compute–Communicate (MC²) pipeline of §V.A maps onto:
//!
//! * **Measure** — [`esp::ElementarySensorProvider`] wraps a
//!   technology-specific sensor probe and exports readings via the common
//!   `SensorDataAccessor` interface.
//! * **Compute** — [`csp::CompositeSensorProvider`] composes ESPs *and*
//!   other CSPs, binds children to dynamically created variables
//!   (`a`, `b`, `c`, …) and evaluates a runtime compute-expression such as
//!   the paper's `(a + b + c)/3`.
//! * **Communicate** — exertion-oriented federated method invocation
//!   carries requests; the [`facade::SensorcerFacade`] is the single entry
//!   point offering network management, service lookup and QoS-driven
//!   provisioning of new composites onto cybernodes.
//!
//! [`deploy::standard_deployment`] stands the whole Fig. 2 world up in one
//! call; [`browser`] reproduces the paper's zero-install sensor browser as
//! text. Everything runs on one thread in the simulator's virtual time.
//!
//! ```
//! use sensorcer_core::prelude::*;
//! use sensorcer_sim::prelude::*;
//!
//! let config = DeploymentConfig::fig2();
//! let mut env = Env::with_seed(config.seed);
//! let d = standard_deployment(&mut env, &config);
//!
//! // Read a sensor through the façade, like the browser's "Get Value".
//! let r = d.facade.get_value(&mut env, d.workstation, "Neem-Sensor").unwrap();
//! assert!((10.0..35.0).contains(&r.value));
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Boxed-closure callback signatures (event sinks, 2PC participants,
// simulated parallel branches) trip this lint; the types are the API.
#![allow(clippy::type_complexity)]

pub mod accessor;
pub mod admission;
pub mod browser;
pub mod csp;
pub mod deploy;
pub mod esp;
pub mod facade;
pub mod provisioner;

/// One-stop imports.
pub mod prelude {
    pub use crate::accessor::{client, mgmt, selectors, DegradedInfo, SensorInfo, SensorReading};
    pub use crate::admission::{
        admit, is_rejection, shared_admission, shared_breakers, AdmissionController, BreakerConfig,
        BreakerRegistry, BreakerState, QosClass, SharedAdmission, SharedBreakers, Shed, ShedReason,
        TenantPolicy,
    };
    pub use crate::browser::{
        render_browser, render_info, render_services, render_values, BrowserModel,
    };
    pub use crate::csp::{
        deploy_csp, variable_for, Child, CompositeSensorProvider, CspConfig, CspHandle,
        DegradationPolicy,
    };
    pub use crate::deploy::{standard_deployment, Deployment, DeploymentConfig};
    pub use crate::esp::{deploy_esp, ElementarySensorProvider, EspConfig, EspHandle};
    pub use crate::facade::{ops, FacadeHandle, SensorcerFacade, ServiceRow};
    pub use crate::provisioner::{
        composite_factory, provision_composite, CompositeSpec, COMPOSITE_TYPE_KEY,
    };
}

pub use prelude::*;
