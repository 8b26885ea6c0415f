//! Sharded-engine equivalence gate: enabling per-subnet event shards is
//! a performance lever, never a semantic one. For any seed, a soak run
//! with sharding on (any shard count) must produce the *bit-identical*
//! report — every read outcome, retry count and injected fault — and the
//! bit-identical flight-recorder export, because the sharded queue still
//! pops timers in global `(deadline, seq)` order; only the window
//! bookkeeping differs.
//!
//! This is the PR-4 determinism story extended to the sharded engine:
//! the DPOR/happens-before machinery explores schedules *within* the
//! model, while this gate pins that the engine itself never reorders.

use std::cell::RefCell;
use std::rc::Rc;

use sensorcer_bench::chaos::{run_soak, run_soak_traced, SoakConfig};
use sensorcer_bench::trace::TRACE_CAPACITY;
use sensorcer_sim::chaos::ChaosConfig;
use sensorcer_sim::prelude::*;

/// Three distinct fault mixes, same spirit as `tests/chaos_soak.rs`.
const SEEDS: [u64; 3] = [1, 42, 0x5E2509];

/// The shard counts under test — including counts that don't divide the
/// six-mote world evenly.
const SHARD_COUNTS: [usize; 3] = [2, 4, 8];

/// A bounded soak (the default horizon is for CI's soak gate, not a
/// 12-run equivalence matrix).
fn quick_cfg(seed: u64) -> SoakConfig {
    SoakConfig {
        chaos: ChaosConfig {
            horizon: SimDuration::from_secs(180),
            ..Default::default()
        },
        tail_reads: 5,
        ..SoakConfig::new(seed)
    }
}

/// The PR-2 chaos storm: aggressive pair-wide outages, recorder on.
/// Mirrors the storm the trace analytics are validated against.
fn storm_cfg(seed: u64) -> SoakConfig {
    SoakConfig {
        chaos: ChaosConfig {
            horizon: SimDuration::from_secs(240),
            period: SimDuration::from_secs(3),
            partition_prob: 0.35,
            isolate_prob: 0.30,
            crash_prob: 0.30,
            min_outage: SimDuration::from_secs(10),
            max_outage: SimDuration::from_secs(40),
            ..Default::default()
        },
        tail_reads: 5,
        trace_capacity: Some(TRACE_CAPACITY),
        ..SoakConfig::new(seed)
    }
}

#[test]
fn sharded_soak_reports_are_bit_identical_to_sequential() {
    for seed in SEEDS {
        let sequential = run_soak(&quick_cfg(seed));
        assert!(
            sequential.reads_total > 50,
            "seed {seed}: soak too short to be a meaningful oracle"
        );
        for shards in SHARD_COUNTS {
            let sharded = run_soak(&SoakConfig {
                shards: Some(shards),
                ..quick_cfg(seed)
            });
            assert_eq!(
                sequential, sharded,
                "seed {seed}, {shards} shards: report diverged from sequential"
            );
        }
    }
}

#[test]
fn sharded_storm_trace_export_is_bit_identical() {
    // The storm config is the hard case: dense fault/heal timer traffic,
    // retries and failovers interleaving at equal deadlines, with the
    // flight recorder capturing every span. One byte of reordering in
    // the engine shows up in the JSON export.
    let seed = SEEDS[1];
    let (seq_report, seq_rec) = run_soak_traced(&storm_cfg(seed));
    let (sh_report, sh_rec) = run_soak_traced(&SoakConfig {
        shards: Some(4),
        ..storm_cfg(seed)
    });
    assert_eq!(seq_report, sh_report, "storm report diverged under shards");
    let seq_json = seq_rec.expect("recorder on").to_json();
    let sh_json = sh_rec.expect("recorder on").to_json();
    assert_eq!(
        seq_json, sh_json,
        "storm trace export diverged under shards"
    );
    assert!(
        seq_report.reads_degraded > 0 || seq_report.reads_failed > 0,
        "storm produced no degradation — equivalence check proved too little"
    );
}

/// The mote-radio cross-subnet latency — the conservative window
/// lookahead for a mote-only multi-subnet world.
const LOOKAHEAD: SimDuration = SimDuration::from_millis(5);

/// Eight motes, one per subnet: every shard count under test gets at
/// least one populated lane, and the lookahead is the 5 ms radio hop.
fn mote_world(seed: u64) -> (Env, Vec<HostId>) {
    let mut env = Env::with_seed(seed);
    let hosts: Vec<HostId> = (0..8)
        .map(|i| {
            let h = env.add_host(format!("m{i}"), HostKind::SensorMote);
            env.topo.set_subnet(h, SubnetId(i));
            h
        })
        .collect();
    (env, hosts)
}

/// A seed-salted first deadline, so the window edge under test never
/// sits at a fixed absolute instant.
fn t0_for(seed: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(1 + seed % 7)
}

/// Schedule the boundary probe: events inside the first window, an
/// equal-deadline tie pair, one event at *exactly* `t0 + lookahead`
/// (the inclusive window edge) and one a microsecond past it. Each
/// callback appends `(label, fire_time)` to the shared log.
fn schedule_boundary_probe(
    env: &mut Env,
    hosts: &[HostId],
    t0: SimTime,
) -> Rc<RefCell<Vec<(u32, SimTime)>>> {
    let log = Rc::new(RefCell::new(Vec::new()));
    let record = |env: &mut Env, host: usize, at: SimTime, label: u32| {
        let log = Rc::clone(&log);
        env.schedule_at_on(hosts[host], at, move |env| {
            log.borrow_mut().push((label, env.now()));
        });
    };
    record(env, 0, t0, 0);
    record(env, 7, t0 + SimDuration::from_millis(2), 1);
    // Equal deadlines on different subnets: registration order breaks
    // the tie identically on both engines.
    record(env, 1, t0 + SimDuration::from_millis(1), 2);
    record(env, 2, t0 + SimDuration::from_millis(1), 3);
    // The event at exactly the horizon — the inclusive edge.
    record(env, 3, t0 + LOOKAHEAD, 4);
    // And one strictly past it, which must wait for the next window.
    record(env, 5, t0 + LOOKAHEAD + SimDuration::from_micros(1), 5);
    log
}

#[test]
fn events_at_the_inclusive_window_edge_match_sequential() {
    for seed in SEEDS {
        let t0 = t0_for(seed);
        // Sequential oracle: no windows, plain (deadline, seq) order.
        let (mut env, hosts) = mote_world(seed);
        let log = schedule_boundary_probe(&mut env, &hosts, t0);
        env.run_until(t0 + SimDuration::from_millis(30));
        let baseline = log.borrow().clone();
        assert_eq!(
            baseline.iter().map(|&(l, _)| l).collect::<Vec<_>>(),
            vec![0, 2, 3, 1, 4, 5],
            "seed {seed}: sequential firing order is the oracle"
        );
        for shards in SHARD_COUNTS {
            let (mut env, hosts) = mote_world(seed);
            env.enable_sharding(shards);
            let log = schedule_boundary_probe(&mut env, &hosts, t0);
            env.run_until(t0 + SimDuration::from_millis(30));
            assert_eq!(
                *log.borrow(),
                baseline,
                "seed {seed}, {shards} shards: boundary events diverged"
            );
            // The edge is inclusive: the event at exactly t0 + lookahead
            // rides the first window; only the one strictly past it
            // opens a second. Three windows would mean an exclusive edge.
            assert_eq!(
                env.shard_stats().windows,
                2,
                "seed {seed}, {shards} shards: wrong window count"
            );
        }
    }
}

#[test]
fn strictly_past_horizon_opens_a_new_window() {
    for seed in SEEDS {
        let t0 = t0_for(seed);
        for (offset, want_windows) in [(LOOKAHEAD, 1), (LOOKAHEAD + SimDuration::from_micros(1), 2)]
        {
            for shards in SHARD_COUNTS {
                let (mut env, hosts) = mote_world(seed);
                env.enable_sharding(shards);
                let fired = Rc::new(RefCell::new(0u32));
                for (host, at) in [(0usize, t0), (4usize, t0 + offset)] {
                    let fired = Rc::clone(&fired);
                    env.schedule_at_on(hosts[host], at, move |_env| {
                        *fired.borrow_mut() += 1;
                    });
                }
                env.run_until(t0 + SimDuration::from_millis(30));
                assert_eq!(*fired.borrow(), 2, "seed {seed}: both events fired");
                assert_eq!(
                    env.shard_stats().windows,
                    want_windows,
                    "seed {seed}, {shards} shards, offset {offset:?}"
                );
            }
        }
    }
}

/// Timer churn: 500 one-shot timers spread over the eight subnets and
/// 100 ms — many windows, every lane busy, shard migration on the worker
/// pool — must fire in the sequential engine's order and leave nothing
/// queued.
#[test]
fn timer_churn_across_subnets_matches_sequential() {
    const TIMERS: u64 = 500;
    let spread = SimDuration::from_millis(100);
    let churn = |shards: Option<usize>| {
        let (mut env, hosts) = mote_world(5);
        if let Some(n) = shards {
            env.enable_sharding(n);
            env.set_worker_pool(sensorcer_runtime::ThreadPool::new(2));
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..TIMERS {
            let at = env.now() + SimDuration::from_nanos(1 + i * spread.as_nanos() / TIMERS);
            let log = Rc::clone(&log);
            env.schedule_at_on(hosts[i as usize % hosts.len()], at, move |env| {
                log.borrow_mut().push((i, env.now()));
            });
        }
        env.run_for(spread + SimDuration::from_millis(1));
        assert_eq!(env.pending_timers(), 0);
        let fired = log.borrow().clone();
        (fired, env.now(), env.shard_stats().windows)
    };
    let (baseline, end, _) = churn(None);
    assert_eq!(baseline.len(), TIMERS as usize);
    for shards in SHARD_COUNTS {
        let (fired, now, windows) = churn(Some(shards));
        assert_eq!(fired, baseline, "{shards} shards: firing order diverged");
        assert_eq!(now, end);
        assert!(
            windows > 1,
            "{shards} shards: churn ran in {windows} window(s)"
        );
    }
}
