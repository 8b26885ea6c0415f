//! Differential test: the streaming Perfetto exporter is byte-for-byte
//! identical to the buffered `export()` on the real storm world, across
//! seeds and regardless of where the packet stream is cut by flushes —
//! interning state, track descriptors and flow bookkeeping must all
//! survive flush boundaries.

use sensorcer_bench::perfetto::sampler_config;
use sensorcer_bench::storm::{run_storm_full, StormConfig};
use sensorcer_obs::alert_timeline;
use sensorcer_sim::prelude::*;
use sensorcer_trace::perfetto::{
    self, CounterSeries, ExportConfig, InstantTrack, StreamingExporter,
};
use sensorcer_trace::StreamItem;

/// A shortened storm — same shape as the committed `harness perfetto`
/// run, smaller windows — so three seeds stay fast in debug builds.
fn mini_cfg(seed: u64) -> StormConfig {
    let mut cfg = StormConfig::new(seed);
    cfg.warmup = SimDuration::from_secs(5);
    cfg.burst.hold = SimDuration::from_secs(30);
    cfg.tail = SimDuration::from_secs(40);
    cfg.outage_after = SimDuration::from_secs(15);
    cfg.outage = SimDuration::from_secs(15);
    cfg
}

struct StormTrace {
    rec: FlightRecorder,
    counters: Vec<CounterSeries>,
    timelines: Vec<InstantTrack>,
    cfg: ExportConfig,
}

fn storm_trace(seed: u64) -> StormTrace {
    let mut sampler = TelemetrySampler::new(sampler_config());
    let run = run_storm_full(&mini_cfg(seed), Some(&mut sampler));
    let mut cfg = ExportConfig::default();
    for (id, name) in &run.hosts {
        cfg.host_names.insert(*id, name.clone());
    }
    StormTrace {
        rec: run.recorder.expect("storm runs traced"),
        counters: sampler.into_series(),
        timelines: vec![alert_timeline(&run.alerts)],
        cfg,
    }
}

/// Replay the exact feed order `export()` uses, flushing to the sink
/// every `cadence` packets.
fn stream_with_cadence(t: &StormTrace, cadence: u64) -> Vec<u8> {
    let mut ex = StreamingExporter::new(t.cfg.clone());
    let mut out = Vec::new();
    let mut boundary = cadence;
    let mut step = |ex: &mut StreamingExporter, out: &mut Vec<u8>| {
        if ex.stats().packets >= boundary {
            ex.flush(out).expect("vec flush");
            boundary = ex.stats().packets + cadence;
        }
    };
    for item in t.rec.stream_items() {
        match item {
            StreamItem::Span(s) => ex.feed_span(s),
            StreamItem::Eviction(m) => ex.feed_eviction(m),
        }
        step(&mut ex, &mut out);
    }
    for timeline in &t.timelines {
        ex.feed_instant_track(timeline);
        step(&mut ex, &mut out);
    }
    for c in &t.counters {
        ex.feed_counter_series(c);
        step(&mut ex, &mut out);
    }
    ex.finish(&mut out).expect("finish");
    out
}

#[test]
fn streaming_matches_buffered_export_across_seeds_and_flush_cadences() {
    for seed in [1u64, 2, 3] {
        let t = storm_trace(seed);
        let buffered = perfetto::export(&t.rec, &t.counters, &t.timelines, &t.cfg);
        assert!(!buffered.is_empty(), "seed {seed}: empty trace");
        for cadence in [1u64, 7, 64] {
            let streamed = stream_with_cadence(&t, cadence);
            assert_eq!(
                streamed, buffered,
                "seed {seed}: flush-every-{cadence}-packets diverged from buffered export"
            );
        }
        let dec = perfetto::decode(&buffered).expect("decodes");
        assert_eq!(
            perfetto::validate(&dec),
            Vec::<String>::new(),
            "seed {seed}"
        );
    }
}

#[test]
fn incremental_drains_match_the_one_shot_snapshot() {
    // Streaming's real shape: the recorder is drained in pieces between
    // runs. Feeding each drained batch must equal exporting the same
    // spans snapshotted whole.
    let build = |drain_every: Option<usize>| -> Vec<u8> {
        let mut rec = FlightRecorder::new(256);
        let mut ex = StreamingExporter::new(ExportConfig::default());
        let mut out = Vec::new();
        for i in 0..40u64 {
            let root = rec.span_start("storm.read", "svc", 1 + i % 4, i * 1_000);
            let child = rec.span_start("csp.child", "svc", 1 + i % 4, i * 1_000 + 100);
            if i % 5 == 0 {
                rec.span_event(child, i * 1_000 + 200, "retry.attempt", vec![]);
            }
            rec.span_end(child, i * 1_000 + 600, Outcome::Ok);
            rec.span_end(root, i * 1_000 + 900, Outcome::Ok);
            if drain_every.is_some_and(|n| (i as usize + 1).is_multiple_of(n)) {
                for item in rec.drain_closed() {
                    match item {
                        sensorcer_trace::DrainItem::Span(s) => ex.feed_span(&s),
                        sensorcer_trace::DrainItem::Eviction(m) => ex.feed_eviction(&m),
                    }
                }
                ex.pump(&mut out).expect("pump");
            }
        }
        for item in rec.drain_closed() {
            match item {
                sensorcer_trace::DrainItem::Span(s) => ex.feed_span(&s),
                sensorcer_trace::DrainItem::Eviction(m) => ex.feed_eviction(&m),
            }
        }
        ex.finish(&mut out).expect("finish");
        out
    };
    let whole = build(None);
    for drain_every in [1usize, 3, 17] {
        assert_eq!(
            build(Some(drain_every)),
            whole,
            "drain-every-{drain_every} diverged"
        );
    }
}
