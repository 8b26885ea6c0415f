//! # sensorcer-bench
//!
//! The experiment library behind the `harness` binary and the Criterion
//! benches. One module per experiment id from `DESIGN.md` §4 / the paper:
//!
//! | module            | id  | source in the paper                        |
//! |-------------------|-----|--------------------------------------------|
//! | [`figs`]          | F1–F3 | Figs. 1–3 + §VI steps 1–6                |
//! | [`b1_overhead`]   | B1  | §II.1 header overhead                      |
//! | [`b2_scalability`]| B2  | §VII scalability                           |
//! | [`b3_provisioning`]| B3 | §V.B/§VII dynamic provisioning             |
//! | [`b4_failover`]   | B4  | §VII outage tolerance                      |
//! | [`b5_discovery`]  | B5  | §IV.B/§VII plug-and-play                   |
//! | [`b7_baselines`]  | B7  | §III related-work comparison               |
//! | [`b8_parallel`]   | B8  | local-mode parallel collection             |
//! | [`a1_ablation`]   | A1  | design-choice ablations (binding cache)    |
//! | [`a2_energy`]     | A2  | mote energy per delivered reading          |
//!
//! Every experiment renders a [`table::Table`] whose output is recorded in
//! `EXPERIMENTS.md`; the unit tests in each module pin the *shape* of the
//! result (who wins, what grows) so regressions fail loudly.

#![forbid(unsafe_code)]
pub mod a1_ablation;
pub mod a2_energy;
pub mod b1_overhead;
pub mod b2_scalability;
pub mod b3_provisioning;
pub mod b4_failover;
pub mod b5_discovery;
pub mod b7_baselines;
pub mod b8_parallel;
pub mod chaos;
pub mod figs;
pub mod helpers;
pub mod microbench;
pub mod obs;
pub mod perfetto;
pub mod perfetto_scale;
pub mod storm;
pub mod table;
pub mod trace;
pub mod verify;

/// The default seed every harness run uses, for reproducible tables.
pub const DEFAULT_SEED: u64 = 0x5E2509;
