//! # sensorcer-suite
//!
//! Facade crate re-exporting the complete SenSORCER reproduction — a
//! from-scratch Rust implementation of *"SenSORCER: A Framework for
//! Managing Sensor-Federated Networks"* (Bhosale & Sobolewski, ICPP
//! Workshops 2009), including every substrate the paper builds on:
//!
//! * [`sim`] — deterministic discrete-event network simulation,
//! * [`expr`] — the runtime expression language (Groovy substitute),
//! * [`sensors`] — probes, TEDS, calibration, faults, batteries,
//! * [`registry`] — discovery, lookup, leases, events, transactions (Jini),
//! * [`provision`] — cybernodes, opstrings, QoS, failover (Rio),
//! * [`exertion`] — contexts, tasks/jobs, FMI, jobber/spacer (SORCER),
//! * [`core`] — ESP, CSP, façade, browser: the paper's contribution,
//! * [`baselines`] — the related-work comparators.
//!
//! See `README.md` for a tour, `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for the paper-vs-measured record. The runnable
//! examples (`cargo run --example quickstart`) start from here:
//!
//! ```
//! use sensorcer_suite::core::prelude::*;
//! use sensorcer_suite::sim::prelude::*;
//!
//! let config = DeploymentConfig::fig2();
//! let mut env = Env::with_seed(config.seed);
//! let d = standard_deployment(&mut env, &config);
//! let r = d.facade.get_value(&mut env, d.workstation, "Neem-Sensor").unwrap();
//! assert!(r.value.is_finite());
//! ```

pub use sensorcer_baselines as baselines;
pub use sensorcer_core as core;
pub use sensorcer_exertion as exertion;
pub use sensorcer_expr as expr;
pub use sensorcer_provision as provision;
pub use sensorcer_registry as registry;
pub use sensorcer_sensors as sensors;
pub use sensorcer_sim as sim;
