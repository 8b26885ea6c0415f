//! # sensorcer-obs
//!
//! The layer that turns recorded telemetry into *answers*. PR 3 gave the
//! federation raw signals — spans in a flight recorder, a typed metrics
//! registry — but nothing interpreted them: no notion of an objective
//! being violated, no way to ask "why was this read slow". This crate
//! closes the loop, in four pillars:
//!
//! * [`slo`] — declarative per-service objectives (availability, read
//!   latency p99, data freshness, degraded-read ratio) evaluated over
//!   sim-time sliding windows, with Google-SRE-style multi-window
//!   burn-rate alerting and a firing → resolved state machine.
//! * [`anomaly`] — streaming EWMA and MAD detectors subscribed to the
//!   metrics registry; deterministic, seed-stable flagging of latency
//!   spikes, drop-rate surges and per-host excursions.
//! * [`analytics`] — a query layer over exported [`FlightRecorder`]
//!   trees: filter by op/outcome/host, group-by aggregation into per-op
//!   duration histograms, critical-path extraction, and exemplar
//!   selection so every alert carries the trace ids of its slowest
//!   offending spans.
//! * [`profile`] — hotspot ranking and flamegraph excerpts over the
//!   sim-time profiler's collapsed-stack output, so scale runs report
//!   *where* the virtual time went, not just how much there was.
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

#![forbid(unsafe_code)]

pub mod analytics;
pub mod anomaly;
pub mod naming;
pub mod profile;
pub mod slo;
pub mod timeline;

pub use analytics::{
    critical_path, group_by_op, slowest_offenders, CriticalPath, OpStats, PathStep, SpanQuery,
};
pub use anomaly::{Anomaly, AnomalyMonitor, EwmaDetector, MadDetector};
pub use naming::{check_name, check_names};
pub use profile::{flame_excerpt, frame_totals, hotspots, Hotspot};
pub use slo::{
    Alert, AlertTransition, BurnRateWindows, ReadOutcome, SloEngine, SloKind, SloReport, SloSpec,
    SloVerdict,
};
pub use timeline::{alert_timeline, ALERT_TRACK};
