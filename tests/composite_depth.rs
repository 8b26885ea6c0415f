//! The simulated cost of composite nesting (§V.A, Fig. 3): a chain of
//! single-child composites over one sensor pays the radio hop to the mote
//! once, and each level on top of it adds one LUS bind plus one provider
//! hop — linear in depth, with a per-level cost inside a stated band.

use sensorcer_bench::helpers::sensor_world;
use sensorcer_suite::core::csp::{deploy_csp, CspConfig};
use sensorcer_suite::sim::prelude::*;

/// Virtual read latency of a chain of `depth` single-child composites
/// (each with an expression) over one sensor.
fn depth_latency(depth: usize, seed: u64) -> SimDuration {
    let mut w = sensor_world(1, seed);
    let mut below = "Sensor-000".to_string();
    for level in 0..depth {
        let name = format!("L{level}");
        let host = w.env.add_host(format!("{name}-host"), HostKind::Server);
        let mut cfg = CspConfig::new(host, name.clone(), w.lus);
        cfg.lease = SimDuration::from_secs(36_000);
        cfg.children = vec![below.clone()];
        cfg.expression = Some("a * 1.0".into());
        deploy_csp(&mut w.env, cfg).expect("chain level");
        below = name;
    }
    let (v, dt) = w.timed_read(&below);
    v.expect("chain read");
    dt
}

#[test]
fn depth_latency_grows_linearly() {
    let d1 = depth_latency(1, 11);
    let d4 = depth_latency(4, 11);
    let d8 = depth_latency(8, 11);
    // Each extra level costs one LAN bind + hop (~1-3 ms virtual) on top
    // of the shared radio floor — check additive, ordered growth.
    assert!(d4 > d1 && d8 > d4, "{d1} {d4} {d8}");
    let per_level = (d8.as_nanos() - d1.as_nanos()) as f64 / 7.0;
    assert!(
        (200_000.0..10_000_000.0).contains(&per_level),
        "per-level cost {per_level}ns out of expected band"
    );
}
