//! # sensorcer-verify
//!
//! Mechanical correctness checking for the SenSORCER reproduction. The
//! federation is a web of concurrent lifecycle state machines — Jini
//! leases, Rio provisioning, SORCER exertions — layered with retries,
//! failover, degraded reads and tracing. This crate makes their ordering
//! discipline checkable by tooling instead of review:
//!
//! * [`explore`] — a DPOR-lite **schedule explorer** over the discrete
//!   event scheduler in `sensorcer-sim`: at every virtual instant with
//!   ≥2 co-scheduled timers it permutes delivery order (bounded
//!   exhaustive for small scenarios, seeded random sampling for large
//!   ones) and asserts federation invariants after every schedule.
//! * happens-before checking — vector clocks on wire deliveries
//!   (`sensorcer_sim::hb`, inside the observer the explorer installs) flag any
//!   read of shared federation state not ordered after its write.
//! * [`lifecycle`] — the lease / provisioning / span state machines
//!   declared as transition tables, with a checker that holds every
//!   runtime transition (delivered through `Env::lifecycle` and mirrored
//!   onto flight-recorder spans) against them.
//! * [`lint`] — an in-repo source lint pass (`harness lint`) banning
//!   `unwrap()`/`expect()` outside tests and benches, wall-clock time in
//!   deterministic code, `pub` fields on state-machine types, direct
//!   timer-queue access outside the engine, and external crate
//!   dependencies in manifests.
//! * [`scenarios`] — small federated worlds the explorer drives,
//!   including an intentionally buggy one ([`scenarios::BuggyReaper`])
//!   that the mutation test uses to prove the explorer detects a real
//!   ordering bug.

#![forbid(unsafe_code)]

pub mod explore;
pub mod lifecycle;
pub mod lint;
pub mod scenarios;

pub mod prelude {
    pub use crate::explore::{
        explore, run_one, trace_transparency, Checks, ChoicePolicy, ExploreConfig, ExploreReport,
        Scenario, ScenarioResult, ScheduleOutcome,
    };
    pub use crate::lifecycle::{
        LifecycleChecker, StateMachine, LEASE_MACHINE, PROVISION_MACHINE, SPAN_MACHINE,
    };
    pub use crate::lint::{lint_manifest, lint_tree, LintFinding};
    pub use crate::scenarios::{BuggyReaper, DegradedRead, LeaseChurn, ProvisionFailover};
}

pub use prelude::*;
