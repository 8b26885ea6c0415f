//! # sensorcer-obs
//!
//! The layer that turns recorded telemetry into *answers*. PR 3 gave the
//! federation raw signals — spans in a flight recorder, a typed metrics
//! registry — but nothing interpreted them: no notion of an objective
//! being violated, no way to ask "why was this read slow". This crate
//! closes the loop, in two pillars:
//!
//! * [`slo`] — declarative per-service objectives (availability, read
//!   latency p99, data freshness, degraded-read ratio) evaluated over
//!   sim-time sliding windows, with Google-SRE-style multi-window
//!   burn-rate alerting and a firing → resolved state machine.
//! * [`analytics`] — a query layer over exported [`FlightRecorder`]
//!   trees: group-by aggregation into per-op duration histograms and
//!   exemplar selection, so every alert carries the trace ids of its
//!   slowest offending spans.
//!
//! Plus [`naming`], the runtime metric-name auditor enforcing the one
//! `subsystem.object.action` convention across every key the registry
//! has ever seen.
//!
//! Everything here is pure interpretation: feeding the engines never
//! mutates the simulation, so an observed run is bit-for-bit identical
//! to an unobserved one.
//!
//! [`FlightRecorder`]: sensorcer_trace::FlightRecorder

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod analytics;
pub mod naming;
pub mod slo;
pub mod timeline;

pub use analytics::{group_by_op, slowest_offenders, OpStats};
pub use naming::{check_name, check_names};
pub use slo::{
    Alert, AlertTransition, BurnRateWindows, ReadOutcome, SloEngine, SloKind, SloReport, SloSpec,
    SloVerdict,
};
pub use timeline::{alert_timeline, ALERT_TRACK};
