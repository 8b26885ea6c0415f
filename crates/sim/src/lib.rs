//! # sensorcer-sim
//!
//! Deterministic discrete-event simulation substrate for the SenSORCER
//! reproduction. Provides virtual time, seeded randomness, a host/link
//! topology with fault injection, byte-accurate protocol-stack accounting,
//! and the [`env::Env`] world in which every middleware service object of
//! the other crates is deployed and invoked.
//!
//! The original paper ran on a physical LAN (Jini multicast discovery, RMI
//! calls, SunSPOT radio links). This crate is the substitution for that
//! testbed: it reproduces the network *behaviour* the paper's claims are
//! about — header overhead of IP for tiny readings, discovery and leasing
//! dynamics, outages — in a fully deterministic, laptop-scale form.
//!
//! ## Quick tour
//!
//! ```
//! use sensorcer_sim::prelude::*;
//!
//! let mut env = Env::with_seed(7);
//! let lab = env.add_host("lab", HostKind::Server);
//! let desk = env.add_host("desk", HostKind::Workstation);
//!
//! struct Counter(u32);
//! let svc = env.deploy(lab, "counter", Counter(0));
//!
//! let n = env
//!     .call(desk, svc, ProtocolStack::Tcp, 16, |_env, c: &mut Counter| {
//!         c.0 += 1;
//!         (c.0, 8)
//!     })
//!     .unwrap();
//! assert_eq!(n, 1);
//! assert!(env.now().as_nanos() > 0);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Boxed-closure callback signatures (event sinks, 2PC participants,
// simulated parallel branches) trip this lint; the types are the API.
#![allow(clippy::type_complexity)]

pub mod chaos;
pub mod check;
pub mod env;
pub mod metrics;
pub mod rng;
pub mod time;
mod timers;
pub mod topology;
pub mod wire;

/// Re-export of the tracing/telemetry primitives this substrate records
/// into (span ids, the flight recorder, bucketed histograms).
pub use sensorcer_trace as trace;

/// One-stop imports for downstream crates.
pub mod prelude {
    pub use sensorcer_trace::{
        FieldValue, FlightRecorder, Histogram, Outcome, Span, SpanEvent, SpanId, TraceId,
    };

    pub use crate::chaos::{ChaosConfig, ChaosCounts, ChaosEvent, ChaosSchedule};
    pub use crate::env::{Env, EnvConfig, Observer, RepeatHandle, ServiceId, TimerGroup, TimerId};
    pub use crate::metrics::{
        keys as metric_keys, sampler_keys, Metrics, SamplerConfig, Summary, TelemetrySampler,
    };
    pub use crate::rng::SimRng;
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::topology::{Host, HostId, HostKind, LinkModel, NetError, SubnetId, Topology};
    pub use crate::wire::ProtocolStack;
}

pub use prelude::*;
