//! Cross-run determinism: the foundation every experiment table stands
//! on. Same seed in, bit-identical world out — across deployments,
//! federated reads, failure schedules and whole experiment tables.

use sensorcer_suite::baselines::scenario::sensorcer_scenario;
use sensorcer_suite::core::prelude::*;
use sensorcer_suite::sim::prelude::*;

#[test]
fn scenario_rounds_are_bit_identical_across_runs() {
    let run = |seed: u64| {
        let mut s = sensorcer_scenario(16, seed);
        (0..5).map(|_| s.round()).collect::<Vec<_>>()
    };
    let a = run(77);
    let b = run(77);
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.value, rb.value);
        assert_eq!(ra.latency, rb.latency);
        assert_eq!(ra.wire_bytes, rb.wire_bytes);
    }
    let c = run(78);
    assert!(
        a.iter().zip(&c).any(|(x, y)| x.latency != y.latency),
        "different seeds must diverge somewhere"
    );
}

#[test]
fn failure_schedules_replay_exactly() {
    let run = || {
        let config = DeploymentConfig::fig2();
        let mut env = Env::with_seed(config.seed);
        let d = standard_deployment(&mut env, &config);
        d.facade
            .create_service(&mut env, d.workstation, "HA", &["Neem-Sensor"], None)
            .unwrap();
        let home = env
            .find_service("HA")
            .and_then(|s| env.service_host(s))
            .unwrap();
        env.crash_host(home);
        // Poll to recovery; record the exact recovery instant and traffic.
        loop {
            env.run_for(SimDuration::from_millis(500));
            if d.facade.get_value(&mut env, d.workstation, "HA").is_ok() {
                break;
            }
        }
        (
            env.now(),
            env.metrics.get(metric_keys::BYTES_WIRE),
            env.metrics.get(metric_keys::CALLS_OK),
        )
    };
    assert_eq!(run(), run(), "failover replay must be exact");
}

#[test]
fn experiment_tables_are_reproducible() {
    // Every modelled table, rendered twice in one process: the byte test in
    // `committed_artifacts` renders each once, so per-thread scratch that
    // leaks from one run into the next shows only here.
    for id in sensorcer_bench::paper::MODELLED {
        let first = sensorcer_bench::paper::render(id, 4242);
        assert!(first.is_some(), "{id} is a modelled experiment");
        assert_eq!(first, sensorcer_bench::paper::render(id, 4242), "{id}");
    }
}

#[test]
fn metrics_account_conservation() {
    // Payload never exceeds wire bytes; ok + failed calls partition all
    // call attempts.
    let config = DeploymentConfig::fig2();
    let mut env = Env::with_seed(config.seed);
    let d = standard_deployment(&mut env, &config);
    // A crashed mote produces genuine failed network calls ("Ghost" would
    // fail at binding, which is a successful lookup returning nothing).
    env.crash_host(d.mote_hosts[1]);
    for _ in 0..5 {
        let _ = d.facade.get_value(&mut env, d.workstation, "Neem-Sensor");
        let _ = d.facade.get_value(&mut env, d.workstation, "Jade-Sensor");
    }
    let payload = env.metrics.get(metric_keys::BYTES_PAYLOAD);
    let wire = env.metrics.get(metric_keys::BYTES_WIRE);
    assert!(
        wire > payload,
        "headers must cost something: {wire} vs {payload}"
    );
    assert!(env.metrics.get(metric_keys::CALLS_OK) > 0);
    assert!(
        env.metrics.get(metric_keys::CALLS_FAILED) > 0,
        "dead-mote reads must fail"
    );
}
