//! # sensorcer-verify
//!
//! Schedule exploration for the SenSORCER reproduction. The federation's
//! timers — Jini lease renewals and reapers, Rio heartbeats, composite
//! reads — often fall due at the same virtual instant, and the scheduler
//! breaks such ties FIFO. This crate permutes those ties and holds small
//! federated worlds to their invariants under every order it tries:
//!
//! * [`explore`](mod@explore) — a DPOR-lite **schedule explorer** over the discrete
//!   event scheduler in `sensorcer-sim`: at every virtual instant with
//!   ≥2 co-scheduled timers it permutes delivery order (bounded
//!   exhaustive for small scenarios, seeded random sampling for large
//!   ones) and collects each scenario's invariant violations, plus a
//!   flight-recorder check and a traced-vs-untraced digest comparison
//!   (trace transparency).
//! * [`scenarios`] — small federated worlds the explorer drives,
//!   including an intentionally buggy one ([`scenarios::BuggyReaper`])
//!   that the mutation test uses to prove the explorer detects a real
//!   ordering bug.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod explore;
pub mod scenarios;

pub mod prelude {
    pub use crate::explore::{
        explore, run_one, trace_transparency, ChoicePolicy, ExploreConfig, ExploreReport, Scenario,
        ScenarioResult, ScheduleOutcome,
    };
    pub use crate::scenarios::{BuggyReaper, DegradedRead, LeaseChurn, ProvisionFailover};
}

pub use prelude::*;
