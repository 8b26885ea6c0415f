//! Comparable aggregation scenarios across architectures.
//!
//! B7's workload is one question — "average temperature across N sensors,
//! asked repeatedly" — answered by four systems: direct polling, the
//! three-level Jini stack, the surrogate architecture, and SenSORCER
//! (flat CSP). Each scenario owns its own [`Env`] (same seed, same link
//! models, same probe values) and exposes the same `round()` operation so
//! harnesses can sweep them uniformly.

use sensorcer_core::prelude::*;
use sensorcer_sensors::prelude::*;
use sensorcer_sim::prelude::*;

use crate::direct::{deploy_direct_sensor, DirectClient};
use crate::jini3level;
use crate::surrogate;

/// Result of one aggregation round.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RoundResult {
    /// The aggregate (None when the architecture failed to produce one).
    pub value: Option<f64>,
    /// Virtual time the round took, as observed by the client.
    pub latency: SimDuration,
    /// Wire bytes attributable to the round (total across all hosts).
    pub wire_bytes: u64,
}

/// A runnable aggregation scenario.
pub struct Scenario {
    pub name: &'static str,
    env: Env,
    run: Box<dyn FnMut(&mut Env) -> Option<f64>>,
}

impl Scenario {
    /// Execute one aggregation round, measuring latency and bytes.
    pub fn round(&mut self) -> RoundResult {
        let t0 = self.env.now();
        let b0 = self.env.metrics.get(metric_keys::BYTES_WIRE);
        let value = (self.run)(&mut self.env);
        RoundResult {
            value,
            latency: self.env.now() - t0,
            wire_bytes: self.env.metrics.delta(metric_keys::BYTES_WIRE, b0),
        }
    }

    /// Advance background time (streaming baselines accrue cost here).
    pub fn idle(&mut self, d: SimDuration) {
        self.env.run_for(d);
    }

    /// Total wire bytes since the scenario started.
    pub fn total_wire_bytes(&self) -> u64 {
        self.env.metrics.get(metric_keys::BYTES_WIRE)
    }

    pub fn env_mut(&mut self) -> &mut Env {
        &mut self.env
    }
}

/// The common probe bank: constant temperatures 20.0, 20.1, … so every
/// architecture aggregates identical data.
fn probe_value(i: usize) -> f64 {
    20.0 + i as f64 * 0.1
}

fn make_probe(i: usize) -> Box<dyn SensorProbe> {
    Box::new(ScriptedProbe::new(vec![probe_value(i)], Unit::Celsius))
}

/// Expected network-wide average for `n` sensors (for correctness checks).
pub fn expected_average(n: usize) -> f64 {
    (0..n).map(probe_value).sum::<f64>() / n as f64
}

/// Direct per-sensor polling over TCP.
pub fn direct_scenario(n: usize, seed: u64) -> Scenario {
    let mut env = Env::with_seed(seed);
    let client_host = env.add_host("client", HostKind::Workstation);
    let mut client = DirectClient::new(client_host, ProtocolStack::Tcp);
    for i in 0..n {
        let mote = env.add_host(format!("mote{i}"), HostKind::SensorMote);
        client.sensors.push(deploy_direct_sensor(
            &mut env,
            mote,
            &format!("s{i}"),
            make_probe(i),
        ));
    }
    Scenario {
        name: "direct-polling",
        env,
        run: Box::new(move |env| client.network_average(env)),
    }
}

/// Three-level TCI/SSP/ASP stack; sensors split across two SSPs with
/// TCIs of up to 8 sensors.
pub fn three_level_scenario(n: usize, seed: u64) -> Scenario {
    let mut env = Env::with_seed(seed);
    let client = env.add_host("client", HostKind::Workstation);
    // Layout: fill TCIs of 8, split across 2 SSPs.
    let tci_count = n.div_ceil(8).max(1);
    let mut layout = vec![Vec::new(), Vec::new()];
    let mut remaining = n;
    for t in 0..tci_count {
        let take = remaining.min(8);
        layout[t % 2].push(take);
        remaining -= take;
    }
    layout.retain(|l| !l.is_empty());
    let (asp, _tcis) = jini3level::deploy_three_level(&mut env, &layout, |_e, i| make_probe(i));
    Scenario {
        name: "three-level-jini",
        env,
        run: Box::new(move |env| jini3level::network_average(env, client, asp)),
    }
}

/// Surrogate architecture: nodes stream at 1 Hz; queries accept data up to
/// 5 s old.
pub fn surrogate_scenario(n: usize, seed: u64) -> Scenario {
    let mut env = Env::with_seed(seed);
    let server = env.add_host("surrogate-host", HostKind::Server);
    let client = env.add_host("client", HostKind::Workstation);
    let host_svc = surrogate::deploy_surrogate_host(&mut env, server, "Surrogate Host");
    for i in 0..n {
        let mote = env.add_host(format!("mote{i}"), HostKind::SensorMote);
        surrogate::attach_node(
            &mut env,
            mote,
            &format!("node{i}"),
            make_probe(i),
            host_svc,
            SimDuration::from_secs(1),
        );
    }
    // Warm the cache so the first query sees data. Several periods, so a
    // single lost radio frame cannot leave a node unrepresented.
    env.run_for(SimDuration::from_secs(5));
    Scenario {
        name: "surrogate",
        env,
        run: Box::new(move |env| {
            surrogate::network_average(env, client, host_svc, SimDuration::from_secs(5))
        }),
    }
}

/// SenSORCER: one flat CSP averaging all ESPs, read through the federated
/// path (bind via LUS, parallel child reads).
pub fn sensorcer_scenario(n: usize, seed: u64) -> Scenario {
    let mut env = Env::with_seed(seed);
    let lab = env.add_host("lab", HostKind::Server);
    let client = env.add_host("client", HostKind::Workstation);
    let lus = sensorcer_registry::lus::LookupService::deploy(
        &mut env,
        lab,
        "LUS",
        "public",
        sensorcer_registry::lease::LeasePolicy {
            max_duration: SimDuration::from_secs(36_000),
            default_duration: SimDuration::from_secs(3_600),
        },
        SimDuration::from_secs(1),
    );
    for i in 0..n {
        let mote = env.add_host(format!("mote{i}"), HostKind::SensorMote);
        deploy_esp(
            &mut env,
            EspConfig {
                lease: SimDuration::from_secs(3_600),
                ..EspConfig::new(mote, format!("Sensor-{i:03}"), make_probe(i), lus)
            },
        );
    }
    let mut cfg = CspConfig::new(lab, "Network-Average", lus);
    cfg.lease = SimDuration::from_secs(3_600);
    cfg.children = (0..n).map(|i| format!("Sensor-{i:03}")).collect();
    #[expect(
        clippy::expect_used,
        reason = "a static composite over the ESPs deployed above always validates: see \
                  tests/baseline_parity.rs, which builds it over 4, 16 and 48 ESPs"
    )]
    deploy_csp(&mut env, cfg).expect("valid composite");
    let accessor = sensorcer_exertion::ServiceAccessor::new(vec![lus]);
    Scenario {
        name: "sensorcer-csp",
        env,
        run: Box::new(move |env| {
            client::get_value(env, client, &accessor, "Network-Average")
                .ok()
                .map(|r| r.value)
        }),
    }
}

/// All four scenarios for a given size.
pub fn all_scenarios(n: usize, seed: u64) -> Vec<Scenario> {
    vec![
        direct_scenario(n, seed),
        three_level_scenario(n, seed),
        surrogate_scenario(n, seed),
        sensorcer_scenario(n, seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_architecture_computes_the_same_average() {
        let n = 12;
        let want = expected_average(n);
        for mut s in all_scenarios(n, 7) {
            let r = s.round();
            let got = r.value.unwrap_or(f64::NAN);
            assert!(
                (got - want).abs() < 1e-9,
                "{}: got {got}, want {want}",
                s.name
            );
            assert!(
                r.latency > SimDuration::ZERO,
                "{}: rounds take time",
                s.name
            );
            assert!(r.wire_bytes > 0, "{}: rounds cost bytes", s.name);
        }
    }

    #[test]
    fn surrogate_queries_are_cheapest_per_round_but_stream_in_idle() {
        let n = 16;
        let mut surrogate = surrogate_scenario(n, 7);
        let mut direct = direct_scenario(n, 7);
        let rs = surrogate.round();
        let rd = direct.round();
        assert!(
            rs.wire_bytes < rd.wire_bytes / 4,
            "surrogate round {} vs direct {}",
            rs.wire_bytes,
            rd.wire_bytes
        );
        // But idle time costs the surrogate network bytes, the poller none.
        let s0 = surrogate.total_wire_bytes();
        let d0 = direct.total_wire_bytes();
        surrogate.idle(SimDuration::from_secs(60));
        direct.idle(SimDuration::from_secs(60));
        assert!(surrogate.total_wire_bytes() > s0 + 1000);
        assert_eq!(direct.total_wire_bytes(), d0);
    }

    #[test]
    fn sensorcer_round_beats_sequential_polling_latency_at_scale() {
        let n = 32;
        let mut ours = sensorcer_scenario(n, 7);
        let mut direct = direct_scenario(n, 7);
        // Skip first round (cold caches equal for both anyway) and measure.
        let r_ours = ours.round();
        let r_direct = direct.round();
        assert!(
            r_ours.latency < r_direct.latency,
            "parallel federation {} should beat sequential polling {}",
            r_ours.latency,
            r_direct.latency
        );
    }
}
