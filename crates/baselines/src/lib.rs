//! # sensorcer-baselines
//!
//! Comparator implementations for the paper's Related Work section (§III)
//! plus the naive strawman its Motivation section (§II) argues against:
//!
//! * [`direct`] — static per-sensor IP polling (no discovery, no
//!   federation; §II.1–2's pain points made executable);
//! * [`jini3level`] — the three-level TCI/SSP/ASP Jini clustering
//!   framework of Bertocco et al. (§III.A);
//! * [`surrogate`] — the surrogate-architecture framework of Blumenthal
//!   et al. (§III.B), with motes streaming to surrogate objects;
//! * [`scenario`] — a uniform "network-wide average" workload driver that
//!   runs the same aggregation question against all of the above *and*
//!   SenSORCER itself, for the B7 comparison benches.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Boxed-closure callback signatures (event sinks, 2PC participants,
// simulated parallel branches) trip this lint; the types are the API.
#![allow(clippy::type_complexity)]

pub mod direct;
pub mod jini3level;
pub mod scenario;
pub mod surrogate;

pub use scenario::{all_scenarios, expected_average, RoundResult, Scenario};
