//! The passes a run is made of.

use std::time::{Duration, Instant};

use sensorcer_sim::prelude::*;

use crate::alloc;
use crate::calibrate::machine_speed;
use crate::gen::{Op, OpGen};
use crate::json::Json;
use crate::probes::Probes;
use crate::report::RunResult;
use crate::stats::{median, summarize, Fnv64, PassStats, Segment};
use crate::trace::Recorder;
use crate::worlds::{Outcome, ProbeKind, Workload, World};
use crate::Args;

/// Segments of a timing pass; the pass reports medians over them.
const SEGMENTS: u32 = 10;
/// World builds timed for `setup_s`; the median is reported.
const SETUP_REPS: usize = 5;
/// Every how many ops the traced pass records an op span and replays the
/// layer probes.
const TRACE_EVERY: u64 = 16;
/// Probe replays stop here so the span file stays a few megabytes.
const MAX_REPLAYS: u64 = 400;
/// Simulated seconds each engine runs in the sharding comparison.
const SHARD_WINDOWS: usize = 150;

/// What the ops of one or more passes added up to.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub shed: u64,
    /// Values that were NaN or outside their sensor's range.
    pub invalid: u64,
    /// Simulated nanoseconds spent inside ops.
    pub sim_ns: u64,
    /// Outcome, value bits and completion time of every op, in order.
    pub hash: Fnv64,
}

impl Tally {
    fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.shed += other.shed;
        self.invalid += other.invalid;
    }
}

/// A generator replaying steps drawn beforehand, so that drawing them is
/// not charged to the count pass's allocation counts.
struct Replay(std::vec::IntoIter<Op>);

impl OpGen for Replay {
    fn next_op(&mut self) -> Op {
        self.0.next().expect("enough steps were drawn for the pass")
    }
}

struct Runner {
    world: Box<dyn World>,
    gen: Box<dyn OpGen>,
}

impl Runner {
    fn new(w: Workload, seed: u64, kind: ProbeKind) -> Runner {
        Runner {
            world: w.build(seed, kind),
            gen: w.generator(seed),
        }
    }

    /// Run steps until one op has completed; returns it with its result
    /// and the host time it took.
    fn next(&mut self, tally: &mut Tally) -> (Op, crate::worlds::OpResult, Duration) {
        loop {
            let op = self.gen.next_op();
            let sim0 = self.world.env().now();
            let t0 = Instant::now();
            let Some(result) = self.world.apply(&op) else {
                continue;
            };
            let host = t0.elapsed();
            let sim1 = self.world.env().now();
            tally.attempted += 1;
            tally.sim_ns += (sim1 - sim0).as_nanos();
            match result.outcome {
                Outcome::Failed => tally.failed += 1,
                Outcome::Shed => tally.shed += 1,
                Outcome::Ok | Outcome::Degraded => {}
            }
            if !result.valid || !result.value.is_finite() {
                tally.invalid += 1;
            }
            tally.hash.u64(result.outcome as u64);
            tally.hash.u64(result.value.to_bits());
            tally.hash.u64(sim1.as_nanos());
            return (op, result, host);
        }
    }

    fn run_ops(&mut self, n: usize, tally: &mut Tally) {
        for _ in 0..n {
            self.next(tally);
        }
    }

    /// Run ops for `budget` of host time as one segment.
    fn run_for(&mut self, budget: Duration, tally: &mut Tally) -> Segment {
        let mut seg = Segment::default();
        let start = Instant::now();
        while start.elapsed() < budget {
            let (_, _, host) = self.next(tally);
            seg.op_ns.push(host.as_nanos() as f64);
        }
        seg.wall_s = start.elapsed().as_secs_f64();
        seg
    }

    /// The timing pass: ten segments, each bracketed by a calibration
    /// burst and scaled by the mean of the two.
    fn timing_pass(&mut self, seconds: f64, tally: &mut Tally) -> PassStats {
        let budget = Duration::from_secs_f64(seconds / f64::from(SEGMENTS));
        let mut segments = Vec::new();
        let mut before = machine_speed();
        for _ in 0..SEGMENTS {
            let mut seg = self.run_for(budget, tally);
            let after = machine_speed();
            seg.speed = (before + after) / 2.0;
            before = after;
            segments.push(seg);
        }
        summarize(&segments)
    }
}

fn scaled(n: usize, smoke: bool) -> usize {
    if smoke {
        (n / 20).max(1)
    } else {
        n
    }
}

/// `--check`: the workload on scripted sensors, answers asserted.
pub fn check(args: &Args) -> Result<u64, String> {
    let w = args.workload;
    let mut r = Runner::new(w, args.seed, ProbeKind::Scripted);
    // mote_scale must outlive one 300 s lease term for `verify` to mean
    // anything; its world has already run 100 s when it is handed over.
    let ops = match w {
        Workload::MoteScale => 320,
        _ => w.count_ops() / 10,
    };
    let mut tally = Tally::default();
    for i in 0..ops {
        let (op, result, _) = r.next(&mut tally);
        if result.outcome == Outcome::Failed {
            return Err(format!("op {i} ({op:?}) failed"));
        }
        if !result.valid {
            return Err(format!(
                "op {i} ({op:?}) returned {}, out of range",
                result.value
            ));
        }
        if let (Outcome::Ok, Some(want)) = (result.outcome, r.world.expected(&op)) {
            if (result.value - want).abs() > 1e-9 {
                return Err(format!(
                    "op {i} ({op:?}) returned {}, expected {want}",
                    result.value
                ));
            }
        }
    }
    r.world.verify()?;
    Ok(tally.attempted)
}

/// `--trace 0`: the end-to-end metrics.
pub fn end_to_end(args: &Args) -> RunResult {
    let w = args.workload;
    let warm = scaled(w.warmup_ops(), args.smoke);
    let count = scaled(w.count_ops(), args.smoke);
    let mut out = RunResult::default();
    let mut total = Tally::default();

    // Count pass, on a world of its own: the allocator counts from before
    // the world exists, so the high-water mark is the world's, and the
    // steps are drawn first, so drawing them is not counted.
    let mut steps = Vec::new();
    let mut gen = w.generator(args.seed);
    let mut drawn = 0;
    while drawn < warm + count {
        let op = gen.next_op();
        if !op.is_control() {
            drawn += 1;
        }
        steps.push(op);
    }
    drop(gen);
    alloc::start();
    let mut r = Runner {
        world: w.build(args.seed, ProbeKind::Simulated),
        gen: Box::new(Replay(steps.into_iter())),
    };
    r.run_ops(warm, &mut Tally::default());
    let wire0 = r.world.env().metrics.get(metric_keys::BYTES_WIRE);
    let before = alloc::snapshot();
    let mut counted = Tally::default();
    r.run_ops(count, &mut counted);
    let after = alloc::snapshot();
    alloc::stop();
    let wire1 = r.world.env().metrics.get(metric_keys::BYTES_WIRE);
    out.verify("count pass", r.world.verify());
    drop(r);
    total.absorb(&counted);
    let per_op = |x: u64| x as f64 / count as f64;
    out.metric("sim_ms_per_op", per_op(counted.sim_ns) / 1e6);
    out.metric("wire_bytes_per_op", per_op(wire1 - wire0));
    out.metric("allocs_per_op", per_op(after.allocs - before.allocs));
    out.metric("alloc_bytes_per_op", per_op(after.bytes - before.bytes));
    out.metric("heap_peak_mb", after.peak_live_bytes as f64 / 1e6);
    out.extra(
        "result_fnv64",
        Json::Str(format!("{:016x}", counted.hash.0)),
    );
    out.extra("count_ops", Json::Num(count as f64));

    // Set-up, timed: build the world and warm it. The last one is kept
    // for the timing pass.
    let reps = if args.smoke { 1 } else { SETUP_REPS };
    let mut setups = Vec::new();
    let mut runner: Option<Runner> = None;
    let mut raw_setups = Vec::new();
    for _ in 0..reps {
        drop(runner.take());
        let before = machine_speed();
        let t0 = Instant::now();
        let mut r = Runner::new(w, args.seed, ProbeKind::Simulated);
        r.run_ops(warm, &mut Tally::default());
        let raw = t0.elapsed().as_secs_f64();
        raw_setups.push(raw);
        setups.push(raw * (before + machine_speed()) / 2.0);
        runner = Some(r);
    }
    let mut r = runner.expect("at least one set-up");
    out.metric("setup_s", median(&setups));
    out.extra("raw_setup_s", Json::Num(median(&raw_setups)));

    let mut timed = Tally::default();
    let stats = r.timing_pass(args.seconds, &mut timed);
    out.verify("timing pass", r.world.verify());
    total.absorb(&timed);
    out.metric("ops_per_s", stats.ops_per_s);
    out.metric("op_p50_us", stats.p50_us);
    out.metric("op_p90_us", stats.p90_us);
    out.extra("timed_ops", Json::Num(stats.ops as f64));
    out.extra("raw_ops_per_s", Json::Num(stats.raw_ops_per_s));
    out.extra("machine_speed", Json::Num(stats.speed));
    out.extra("op_p99_us", Json::Num(stats.p99_us));

    out.metric(
        "ok_ratio",
        (total.attempted - total.failed) as f64 / total.attempted as f64,
    );
    out.finish(&total);
    out
}

/// Counters the reference pass reads before and after, for per-op counts.
const COUNTERS: [&str; 9] = [
    metric_keys::CALLS_OK,
    metric_keys::CALLS_FAILED,
    metric_keys::PACKETS,
    metric_keys::BYTES_WIRE,
    metric_keys::BYTES_PAYLOAD,
    sensorcer_exertion::retry::keys::RETRY_ATTEMPTS,
    sensorcer_core::csp::keys::FAILOVER_ATTEMPTS,
    sensorcer_core::csp::keys::DEGRADED_READS,
    sensorcer_core::admission::keys::BREAKER_SKIPPED,
];
const QUEUE_DELAYS: &str = sensorcer_core::admission::keys::QUEUE_DELAYS;

fn read_counters(env: &Env) -> Vec<u64> {
    COUNTERS
        .iter()
        .chain([&QUEUE_DELAYS])
        .map(|k| env.metrics.get(k))
        .collect()
}

/// Timers scheduled since the world began: timer ids are handed out in
/// sequence, so scheduling a no-op reads the counter.
fn timer_seq(env: &mut Env) -> u64 {
    env.schedule(SimDuration::ZERO, |_env| {}).0
}

/// `--trace 1`: the per-layer metrics.
pub fn per_layer(args: &Args) -> RunResult {
    let w = args.workload;
    let warm = scaled(w.warmup_ops(), args.smoke);
    let mut out = RunResult::default();
    let mut total = Tally::default();
    let mut r = Runner::new(w, args.seed, ProbeKind::Simulated);
    r.run_ops(warm, &mut Tally::default());
    let targets = r.world.targets();

    // Reference pass: no spans, no probes. Per-op counts come from here,
    // so that nothing a probe does is counted as the workload's.
    let c0 = read_counters(r.world.env());
    let t0 = timer_seq(r.world.env());
    let mut reference = Tally::default();
    let ref_seg = r.run_for(Duration::from_secs_f64(args.seconds * 0.25), &mut reference);
    let t1 = timer_seq(r.world.env());
    let c1 = read_counters(r.world.env());
    let ref_stats = summarize(std::slice::from_ref(&ref_seg));
    let ops = reference.attempted as f64;
    let delta = |i: usize| (c1[i] - c0[i]) as f64;
    let calls_per_op = (delta(0) + delta(1)) / ops;
    let timers_per_op = (t1 - t0 - 1) as f64 / ops;
    out.metric("sim.env.calls_per_op", calls_per_op);
    out.metric("sim.env.timers_per_op", timers_per_op);
    out.metric(
        "sim.env.pending_timers",
        r.world.env().pending_timers() as f64,
    );
    out.metric("sim.wire.packets_per_op", delta(2) / ops);
    out.metric(
        "sim.wire.header_ratio",
        (delta(3) - delta(4)) / delta(3).max(1.0),
    );
    out.metric("exertion.retry.retries_per_op", delta(5) / ops);
    out.metric("core.csp.failover_attempts_per_op", delta(6) / ops);
    out.metric("core.csp.degraded_ratio", delta(7) / ops);
    out.metric("core.admission.breaker_skipped_per_op", delta(8) / ops);
    out.metric("core.admission.queue_delay_ratio", delta(9) / ops);
    out.metric("core.admission.shed_ratio", reference.shed as f64 / ops);
    out.metric("bench.op_p99_us", ref_stats.p99_us);
    out.metric(
        "core.facade.read_p99_us",
        if targets.facade.is_some() {
            ref_stats.p99_us
        } else {
            0.0
        },
    );
    out.metric(
        "expr.program.binds_per_op",
        targets.shape_count("expr.program.bind_ns"),
    );
    total.absorb(&reference);

    // Traced pass: an `op` span around every 16th op, then the probes
    // replayed as its children.
    let mut probes = Probes::new(r.world.env(), targets);
    let mut rec = Recorder::new();
    let mut traced = Tally::default();
    let mut op_time = Duration::ZERO;
    let budget = Duration::from_secs_f64(args.seconds * 0.5);
    let start = Instant::now();
    let mut n = 0u64;
    while start.elapsed() < budget {
        let spanned = n.is_multiple_of(TRACE_EVERY);
        let span = spanned.then(|| rec.begin_op(n));
        let (op, result, host) = r.next(&mut traced);
        if let Some(span) = span {
            rec.end(span);
        }
        op_time += host;
        probes.observe(r.world.env(), &op, result.outcome);
        if let Some(span) = span {
            if n / TRACE_EVERY < MAX_REPLAYS {
                probes.replay(r.world.env(), &mut rec, span);
            }
        }
        n += 1;
    }
    total.absorb(&traced);
    let ref_op_s: f64 = ref_seg.op_ns.iter().sum::<f64>() / 1e9;
    // Ops per second of time spent in ops, which leaves the probes out.
    let traced_rate = traced.attempted as f64 / op_time.as_secs_f64();
    let reference_rate = ops / ref_op_s;
    out.metric("bench.trace_overhead_ratio", traced_rate / reference_rate);

    // Flight-recorder overhead: the same ops with `enable_tracing` on.
    let first = rec.begin_op(n);
    rec.end(first);
    probes.span_cost(r.world.env(), &mut rec, first);
    let plain = r.run_for(Duration::from_secs_f64(args.seconds * 0.08), &mut total);
    r.world.env().enable_tracing(1 << 16);
    let mut with_recorder = Tally::default();
    let recorded = r.run_for(
        Duration::from_secs_f64(args.seconds * 0.08),
        &mut with_recorder,
    );
    let spans = r
        .world
        .env()
        .disable_tracing()
        .map_or(0, |fr| fr.len() as u64 + fr.dropped());
    total.absorb(&with_recorder);
    let rate = |s: &Segment| s.op_ns.len() as f64 / (s.op_ns.iter().sum::<f64>() / 1e9);
    out.metric(
        "trace.recorder.overhead_ratio",
        rate(&recorded) / rate(&plain),
    );
    out.metric(
        "trace.recorder.spans_per_op",
        spans as f64 / with_recorder.attempted as f64,
    );

    // Sequential engine against the sharded one, where there are subnets
    // to shard by.
    let (mut shard_ratio, mut windows_per_s) = (0.0, 0.0);
    if w == Workload::MoteScale && !args.smoke {
        let mut run_windows = |r: &mut Runner| {
            let t0 = Instant::now();
            r.run_ops(SHARD_WINDOWS, &mut total);
            SHARD_WINDOWS as f64 / t0.elapsed().as_secs_f64()
        };
        let sequential = run_windows(&mut r);
        let env = r.world.env();
        let sim0 = env.now();
        let windows0 = env.shard_stats().windows;
        env.enable_sharding(crate::worlds::mote_scale::SUBNETS);
        env.set_worker_pool(sensorcer_runtime::ThreadPool::with_default_parallelism());
        let sharded = run_windows(&mut r);
        let env = r.world.env();
        windows_per_s =
            (env.shard_stats().windows - windows0) as f64 / (env.now() - sim0).as_secs_f64();
        env.disable_sharding();
        shard_ratio = sequential / sharded;
    }
    out.metric("sim.shard.overhead_ratio", shard_ratio);
    out.metric("sim.shard.windows_per_sim_s", windows_per_s);

    let (renewals_failed, items) = r.world.registry_totals();
    out.metric("registry.renewal.renewals_failed", renewals_failed as f64);
    out.metric("registry.lus.items_end", items as f64);
    out.verify("traced run", r.world.verify());

    // Unit costs: the median over replays of each probe's span.
    let unit = |name: &str| {
        let costs = rec.unit_costs(name);
        if costs.is_empty() {
            0.0
        } else {
            median(&costs)
        }
    };
    let t = r.world.targets();
    let children = t.composite.as_ref().map_or(0, |(_, n)| *n) as f64;
    let csp = unit("core.csp.read_ns");
    out.metric(
        "core.csp.self_ns_per_child",
        if children > 0.0 {
            (csp - children * unit("exertion.fmi.exert_ns") - unit("expr.program.bind_ns"))
                / children
        } else {
            0.0
        },
    );
    let facade = unit("core.facade.read_ns");
    out.metric(
        "core.facade.self_ns",
        if facade > 0.0 { facade - csp } else { 0.0 },
    );
    // Every other `*_ns` metric is the span of that name.
    for (name, _, _) in crate::report::PER_LAYER {
        if name.ends_with("_ns") && !out.has(name) {
            out.metric(name, unit(name));
        }
    }

    // The ledger: how much of an op the unit costs account for. Every
    // `Env::call` is charged by measured count, so the calls a unit cost
    // contains are taken back out of it.
    let call_ns = unit("sim.env.call_ns");
    let mut ledger = vec![
        ("sim.env.call_ns", calls_per_op, call_ns),
        ("sim.env.timer_ns", timers_per_op, unit("sim.env.timer_ns")),
    ];
    for c in &t.shape_counts {
        let own = (unit(c.metric) - c.env_calls * call_ns).max(0.0);
        ledger.push((c.metric, c.per_op, own));
    }
    let explained_ns: f64 = ledger.iter().map(|(_, n, ns)| n * ns).sum();
    out.metric(
        "ledger.explained_ratio",
        explained_ns / (ref_stats.p50_us * 1e3),
    );
    out.extra(
        "ledger",
        Json::Arr(
            ledger
                .iter()
                .map(|(name, per_op, ns)| {
                    Json::Obj(vec![
                        ("unit_cost".into(), Json::Str((*name).into())),
                        ("per_op".into(), Json::Num(*per_op)),
                        ("ns".into(), Json::Num(*ns)),
                    ])
                })
                .collect(),
        ),
    );
    out.extra("reference_op_p50_us", Json::Num(ref_stats.p50_us));
    out.extra("reference_ops", Json::Num(ops));
    out.extra(
        "probe_replays",
        Json::Num(rec.unit_costs("sim.env.call_ns").len() as f64),
    );
    out.extra("spans", Json::Num(rec.spans().len() as f64));
    out.trace = Some(rec.to_json(w.name()));
    out.finish(&total);
    out
}
