//! The paper's figures and claim tables, by experiment id, and the
//! `paper` leg that pins the modelled ones in `PAPER_1.json`.
//!
//! Every experiment runs on virtual time from seeded draws, so its
//! rendered output is a pure function of the seed; `PAPER_1.json` holds
//! each as its rendered lines, and a change to any reproduced number is a
//! visible diff of a committed file.

use sensorcer_trace::json::Json;

use crate::legs::LegRun;
use crate::{
    a1_ablation, a2_energy, b1_overhead, b2_scalability, b3_provisioning, b4_failover,
    b5_discovery, b7_baselines, figs,
};

/// The modelled experiments, in the order `harness all` and
/// `PAPER_1.json` give them.
pub const MODELLED: &[&str] = &[
    "fig1", "fig2", "fig3", "b1", "b2", "b3", "b4", "b5", "b7", "a1", "a2",
];

/// One experiment's rendered output, or `None` for an unknown id.
pub fn render(id: &str, seed: u64) -> Option<String> {
    Some(match id {
        "fig1" => figs::fig1_architecture(),
        "fig2" => figs::fig2_deployment().0,
        "fig3" => {
            let o = figs::fig3_experiment();
            format!(
                "{}check: subnet={:.3}  network={:.3}  (expected network = (subnet + coral)/2)\n",
                o.transcript, o.subnet_value, o.network_value
            )
        }
        "b1" => b1_overhead::run(seed),
        "b2" => b2_scalability::run(seed),
        "b3" => b3_provisioning::run(seed),
        "b4" => b4_failover::run(seed),
        "b5" => b5_discovery::run(seed),
        "b7" => b7_baselines::run(seed),
        "a1" => a1_ablation::run(seed),
        "a2" => a2_energy::run(seed),
        _ => return None,
    })
}

/// The `paper` leg: every modelled experiment on `seed`.
pub fn leg(seed: u64) -> LegRun {
    let rendered: Vec<(&str, String)> = MODELLED
        .iter()
        .map(|id| (*id, render(id, seed).unwrap_or_default()))
        .collect();
    let members = rendered
        .iter()
        .map(|(id, text)| (*id, Json::arr(text.lines())));
    LegRun {
        report: Json::report([("seed", seed.into())].into_iter().chain(members), true),
        failures: Vec::new(),
        transcript: rendered
            .iter()
            .map(|(_, text)| text.as_str())
            .collect::<Vec<_>>()
            .join("\n"),
        side: None,
    }
}
