//! `harness perfetto-scale`: the 10⁵-mote B9 world streamed to
//! disk as a Perfetto trace under a hard encoder-memory ceiling, with
//! the sim-time profiler attached.
//!
//! Where `harness perfetto` snapshots a finished storm and buffers the
//! whole byte stream, this leg exercises the *streaming* pipeline the
//! federation scale demands: a 16-subnet world fires one
//! `mote.sample` span per mote, and after every 100 ms chunk
//! the flight recorder is drained ([`FlightRecorder::drain_closed`])
//! into a [`StreamingExporter`] pumping a [`FileSink`] — so encoder
//! memory is bounded by the flush threshold plus one packet, never by
//! trace length, and [`ENCODER_CEILING_BYTES`] (64 MiB, documented
//! safety margin ≫ the ~256 KiB working set) is asserted against the
//! measured `peak_buffered_bytes`. Watermark pruning keeps the lane
//! state proportional to the open-span set.
//!
//! The [`Profiler`] rides the same drain: per-op/host/lane self time,
//! a collapsed-stack flamegraph, and cumulative per-lane busy counter
//! tracks, sampled at each chunk edge, that are streamed into the trace
//! itself. Because every span
//! nests under a per-chunk `scale.window` root, Σ self time equals the
//! window-run time *exactly* — the summary records the ratio in ppm and
//! fails the run if it drifts past 1%.
//!
//! Self-validation: the finished file is read back (decoder memory is
//! the file size — deliberately outside the *encoder* ceiling), decoded
//! and [`validate`]d, and its FNV-1a fingerprint is cross-checked
//! against the sink's running hash. The committed artifact is
//! `PERFETTO_2.json`; every field in it is a pure function of
//! `(seed, motes)`, so CI asserts bit-identical reruns.
//!
//! [`FlightRecorder::drain_closed`]: sensorcer_trace::FlightRecorder::drain_closed
//! [`StreamingExporter`]: sensorcer_trace::perfetto::StreamingExporter
//! [`FileSink`]: sensorcer_trace::perfetto::FileSink
//! [`Profiler`]: sensorcer_trace::profile::Profiler
//! [`validate`]: sensorcer_trace::perfetto::validate

use std::fmt::Write as _;

use sensorcer_sim::prelude::*;
use sensorcer_trace::json::Json;
use sensorcer_trace::perfetto::{self, ExportConfig, FileSink, StreamingExporter};
use sensorcer_trace::profile::Profiler;
use sensorcer_trace::DrainItem;

use crate::perfetto::StreamShape;

/// Where `harness perfetto-scale` writes the binary trace by default.
pub const DEFAULT_OUT: &str = "federation-scale.perfetto-trace";
/// The committed summary artifact for the default output path.
pub const DEFAULT_SUMMARY: &str = "PERFETTO_2.json";
/// Keys `tests/committed_artifacts.rs` requires of `PERFETTO_2.json`.
pub const REQUIRED_KEYS: &[&str] = &["motes", "self_window_ratio_ppm", "stream", "top_ops"];
/// Motes in the default run, and so in the committed `PERFETTO_2.json`.
pub const DEFAULT_MOTES: usize = 100_000;
/// The documented hard ceiling on encoder working memory (scratch
/// buffer high-water mark). The streaming design keeps the real peak
/// near [`FLUSH_THRESHOLD`] + one packet; the ceiling is the contract
/// CI asserts, with a wide safety margin.
pub const ENCODER_CEILING_BYTES: u64 = 64 * 1024 * 1024;
/// Scratch bytes that trigger a flush to the sink.
const FLUSH_THRESHOLD: usize = perfetto::DEFAULT_FLUSH_THRESHOLD;
/// Closed-span ring capacity — far above one chunk's span count, so the
/// streaming drain (not eviction) is what bounds memory.
const RECORDER_CAPACITY: usize = 16 * 1024;
/// Subnets (one profiler lane each), matching the B9 scaling world.
const SUBNETS: u32 = 16;
/// Motes per 100 ms window-run chunk (drain cadence).
const CHUNK_TIMERS: usize = 4_000;

/// Mote count: `SENSORCER_PERFETTO_MOTES` overrides [`DEFAULT_MOTES`]
/// (CI uses a reduced 10⁴ pass).
fn motes_from_env() -> usize {
    std::env::var("SENSORCER_PERFETTO_MOTES")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(DEFAULT_MOTES)
}

/// Metric names this leg registers at runtime, for the metric-name
/// audit: the world's own counter plus the profiler's dynamic
/// per-lane counter-track names.
pub fn runtime_metric_names() -> Vec<String> {
    let mut names = vec!["scale.timers.fired".to_string()];
    for lane in 0..SUBNETS {
        names.push(format!("profile.lane{lane}.busy_ns"));
    }
    names
}

/// One hot operation, as summarised in the JSON artifact.
pub struct TopOp {
    pub name: String,
    pub count: u64,
    pub self_ns: u64,
}

/// What one streaming export did — every field a pure function of
/// `(seed, motes)`, so the artifact diffs clean across reruns.
pub struct ScaleReport {
    pub seed: u64,
    pub motes: usize,
    pub chunks: usize,
    /// Σ duration of the per-chunk `scale.window` roots (virtual ns).
    pub window_run_ns: u64,
    /// Σ profiler self time over every span (virtual ns).
    pub self_total_ns: u64,
    /// `self_total_ns / window_run_ns` in parts per million — 1_000_000
    /// when self time partitions the window run exactly.
    pub self_window_ratio_ppm: u64,
    pub bytes: u64,
    pub hash: u64,
    pub shape: StreamShape,
    pub flushes: u64,
    pub peak_buffered_bytes: usize,
    pub lane_state_peak: usize,
    pub spans: u64,
    pub top_ops: Vec<TopOp>,
    /// The profiler's collapsed-stack table (flamegraph input), hottest
    /// line first — surfaced in the transcript, not the JSON.
    pub flame: String,
    pub problems: Vec<String>,
}

impl ScaleReport {
    pub fn passed(&self) -> bool {
        self.problems.is_empty()
    }

    /// The `PERFETTO_2.json` summary.
    pub fn json(&self) -> Json {
        let top_ops = self.top_ops.iter().map(|op| {
            Json::obj([
                ("op", op.name.as_str().into()),
                ("count", op.count.into()),
                ("self_ns", op.self_ns.into()),
            ])
        });
        Json::report(
            [
                ("seed", self.seed.into()),
                ("motes", self.motes.into()),
                ("chunks", self.chunks.into()),
                ("window_run_ns", self.window_run_ns.into()),
                ("self_total_ns", self.self_total_ns.into()),
                ("self_window_ratio_ppm", self.self_window_ratio_ppm.into()),
                ("bytes", self.bytes.into()),
                ("fnv64", format!("{:016x}", self.hash).into()),
            ]
            .into_iter()
            .chain(self.shape.json())
            .chain([
                ("spans", self.spans.into()),
                (
                    "stream",
                    Json::obj([
                        ("flushes", self.flushes.into()),
                        ("peak_buffered_bytes", self.peak_buffered_bytes.into()),
                        ("lane_state_peak", self.lane_state_peak.into()),
                        ("encoder_ceiling_bytes", ENCODER_CEILING_BYTES.into()),
                    ]),
                ),
                ("top_ops", Json::arr(top_ops)),
                ("problems", Json::arr(&self.problems)),
            ]),
            self.passed(),
        )
    }

    pub fn summary(&self) -> String {
        format!(
            "perfetto-scale seed={} motes={}: {} bytes (fnv64 {:016x}), {}; \
             {} chunks, self/window = {} ppm; \
             peak buffered {} B (ceiling {} B), {} flushes — {}\n",
            self.seed,
            self.motes,
            self.bytes,
            self.hash,
            self.shape,
            self.chunks,
            self.self_window_ratio_ppm,
            self.peak_buffered_bytes,
            ENCODER_CEILING_BYTES,
            self.flushes,
            if self.passed() {
                "PASS".to_string()
            } else {
                format!("FAIL ({} problems)", self.problems.len())
            }
        )
    }
}

/// Build and run the world, streaming the trace to `out_path`. Pure
/// function of `(seed, motes)` — identical arguments produce identical
/// bytes and an identical report.
pub fn export_scale(seed: u64, motes: usize, out_path: &str) -> Result<ScaleReport, String> {
    if motes == 0 {
        return Err("perfetto-scale: motes must be positive".into());
    }
    let chunks = motes.div_ceil(CHUNK_TIMERS);
    let chunk_ns: u64 = 100_000_000; // 100 ms of virtual time per chunk
    let total_spread_ns = chunk_ns * chunks as u64;

    // -- World: 16 mote hosts (one per subnet) + a coordinator.
    let mut env = Env::with_seed(seed);
    let mut hosts = Vec::new();
    let mut export_cfg = ExportConfig::default();
    for s in 0..SUBNETS {
        let h = env.add_host(format!("m{s}"), HostKind::SensorMote);
        env.topo.set_subnet(h, SubnetId(s));
        export_cfg.host_names.insert(h.0 as u64, format!("m{s}"));
        hosts.push(h);
    }
    let coord = env.add_host("coord", HostKind::Server);
    export_cfg.host_names.insert(coord.0 as u64, "coord".into());
    env.enable_tracing(RECORDER_CAPACITY);

    // -- Observability rig: profiler + sampler + sink.
    let mut profiler = Profiler::new();
    for (s, h) in hosts.iter().enumerate() {
        profiler.set_lane(h.0 as u64, s as u32);
    }
    let mut sampler = TelemetrySampler::new(SamplerConfig {
        period: SimDuration::from_millis(100),
        counters: vec!["scale.timers.*".into()],
        gauges: vec![],
        pending_timers: true,
    });
    let mut ex = StreamingExporter::with_flush_threshold(export_cfg, FLUSH_THRESHOLD);
    let mut sink = FileSink::create(out_path)?;

    // -- Load: one sampled span per mote, spread evenly over the run.
    // Every 16th sample nests a `csp.read`; every 1000th carries a
    // `retry.attempt` chain event so the trace has flows to resolve.
    for i in 0..motes {
        let host = hosts[i % hosts.len()];
        let at = SimTime(1 + (i as u64 * total_spread_ns) / motes as u64);
        env.schedule_at(at, move |env: &mut Env| {
            let span = env.span_start("mote.sample", "mote", host);
            env.consume(SimDuration::from_micros(2 + (i % 5) as u64));
            if i % 16 == 0 {
                let read = env.span_start("csp.read", "probe", host);
                env.consume(SimDuration::from_micros(1));
                env.span_end(read, Outcome::Ok);
            }
            if i % 1000 == 0 {
                env.span_event(span, "retry.attempt", vec![]);
            }
            env.span_end(span, Outcome::Ok);
            env.metrics.add("scale.timers.fired", 1);
        });
    }

    // -- The streaming loop: run one chunk under a `scale.window` root,
    // then drain recorder → profiler + exporter, sample the profiler's
    // lanes at the chunk edge, sampler delta → exporter, prune lane
    // state, pump the sink.
    let mut window_run_ns = 0u64;
    for k in 0..chunks {
        let t_start = env.now();
        let edge = SimTime(chunk_ns * (k as u64 + 1));
        let root = env.span_start("scale.window", "window-run", coord);
        env.run_until(edge);
        env.span_end(root, Outcome::Ok);
        window_run_ns += env.now().as_nanos() - t_start.as_nanos();
        sampler.sample(&mut env);

        let items = match env.recorder_mut() {
            Some(r) => r.drain_closed(),
            None => Vec::new(),
        };
        for item in &items {
            match item {
                DrainItem::Span(s) => {
                    profiler.feed_span(s);
                    ex.feed_span(s);
                }
                DrainItem::Eviction(m) => ex.feed_eviction(m),
            }
        }
        profiler.sample_lanes(edge.as_nanos());
        for series in sampler.take_series_delta() {
            ex.feed_counter_series(&series);
        }
        let wm = env
            .recorder()
            .and_then(|r| r.open_min_start_ns())
            .unwrap_or_else(|| env.now().as_nanos());
        ex.advance_watermark(wm);
        ex.pump(&mut sink)?;
    }

    // -- The profiler's per-lane utilization rides into the trace as
    // native cumulative counter tracks.
    for series in profiler.lane_utilization_series() {
        ex.feed_counter_series(&series);
        ex.pump(&mut sink)?;
    }
    let stats = ex.finish(&mut sink)?;
    let (bytes_written, hash) = sink.finish()?;

    // -- Self-validation: read the file back (decoder memory is the
    // file size — outside the encoder ceiling by design) and check it.
    let mut problems: Vec<String> = Vec::new();
    let disk = std::fs::read(out_path).map_err(|e| format!("cannot re-read {out_path}: {e}"))?;
    if disk.len() as u64 != bytes_written {
        problems.push(format!(
            "sink wrote {bytes_written} bytes but the file holds {}",
            disk.len()
        ));
    }
    if perfetto::fnv64(&disk) != hash {
        problems.push("sink fingerprint does not match the file bytes".into());
    }
    let decoded = match perfetto::decode(&disk) {
        Ok(d) => d,
        Err(e) => {
            problems.push(format!("decode failed: {e}"));
            perfetto::DecodedTrace::default()
        }
    };
    problems.extend(perfetto::validate(&decoded));
    if stats.peak_buffered_bytes as u64 > ENCODER_CEILING_BYTES {
        problems.push(format!(
            "peak buffered encoder memory {} exceeds the {} ceiling",
            stats.peak_buffered_bytes, ENCODER_CEILING_BYTES
        ));
    }
    let dropped = env.recorder().map_or(0, |r| r.dropped());
    if dropped > 0 {
        problems.push(format!(
            "streaming drain still evicted {dropped} spans — chunk outgrew the ring"
        ));
    }

    // -- Profiler accounting: self time must partition the window run.
    let prof = profiler.report();
    let ratio_ppm = prof
        .total_self_ns
        .saturating_mul(1_000_000)
        .checked_div(window_run_ns)
        .unwrap_or(0);
    if ratio_ppm.abs_diff(1_000_000) > 10_000 {
        problems.push(format!(
            "profiler self time {} ns vs window run {} ns — off by more than 1%",
            prof.total_self_ns, window_run_ns
        ));
    }
    let expected_fired = motes as u64;
    let fired = env.metrics.get("scale.timers.fired");
    if fired != expected_fired {
        problems.push(format!("{fired} of {expected_fired} mote timers fired"));
    }

    Ok(ScaleReport {
        seed,
        motes,
        chunks,
        window_run_ns,
        self_total_ns: prof.total_self_ns,
        self_window_ratio_ppm: ratio_ppm,
        bytes: bytes_written,
        hash,
        shape: StreamShape::of(&decoded),
        flushes: stats.flushes,
        peak_buffered_bytes: stats.peak_buffered_bytes,
        lane_state_peak: stats.lane_state_peak,
        spans: stats.spans,
        top_ops: prof
            .by_op
            .iter()
            .take(5)
            .map(|(name, s)| TopOp {
                name: name.clone(),
                count: s.count,
                self_ns: s.self_ns,
            })
            .collect(),
        flame: profiler.collapsed_stacks(),
        problems,
    })
}

/// `harness perfetto-scale` entry point: stream one seeded run to
/// `out_path`, write the JSON summary next to it, return the transcript
/// (`Err` on any validation problem so the harness exits nonzero).
pub fn run(seed: u64, out_path: &str) -> Result<String, String> {
    let motes = motes_from_env();
    let wall = std::time::Instant::now();
    let report = export_scale(seed, motes, out_path)?;
    let wall_ms = wall.elapsed().as_millis();
    let summary_path = if out_path == DEFAULT_OUT {
        DEFAULT_SUMMARY.to_string()
    } else {
        format!("{out_path}.summary.json")
    };
    std::fs::write(&summary_path, report.json().render())
        .map_err(|e| format!("cannot write {summary_path}: {e}"))?;

    let mut transcript = report.summary();
    let _ = writeln!(
        transcript,
        "wall time {wall_ms} ms; wrote {out_path} and {summary_path}"
    );
    // Flamegraph excerpt: the hottest collapsed stacks with their share
    // of total self time, via the obs-side profile analytics. The raw
    // collapsed table in the summary JSON feeds any renderer
    // (`flamegraph.pl`, speedscope, inferno) directly.
    let _ = writeln!(transcript, "flamegraph (collapsed stacks, hottest first):");
    transcript.push_str(&sensorcer_obs::flame_excerpt(&report.flame, 6));
    if report.passed() {
        Ok(transcript)
    } else {
        for p in &report.problems {
            let _ = writeln!(transcript, "problem: {p}");
        }
        Err(transcript)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_out(tag: &str) -> String {
        std::env::temp_dir()
            .join(format!(
                "sensorcer-scale-{tag}-{}.perfetto-trace",
                std::process::id()
            ))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn small_scale_run_passes_its_own_validation() {
        let out = tmp_out("small");
        let report = export_scale(11, 1_200, &out).expect("export");
        assert!(report.passed(), "{:?}", report.problems);
        // Every span accounted for: motes + nested reads + chunk roots.
        assert_eq!(report.spans, 1_200 + 75 + 1);
        assert_eq!(report.shape.slices as u64, report.spans);
        // Self time partitions the window run exactly.
        assert_eq!(report.self_window_ratio_ppm, 1_000_000);
        assert_eq!(report.self_total_ns, report.window_run_ns);
        assert!(report.shape.flows > 0, "retry chain events must flow");
        assert!(report.shape.counter_points > 0);
        assert!((report.peak_buffered_bytes as u64) < ENCODER_CEILING_BYTES);
        // The flame output carries full root-to-leaf paths.
        assert!(
            report.flame.contains("scale.window;mote.sample;csp.read "),
            "{}",
            report.flame
        );
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn scale_export_is_bit_identical_per_seed() {
        let out_a = tmp_out("det-a");
        let out_b = tmp_out("det-b");
        let a = export_scale(7, 900, &out_a).expect("export a");
        let b = export_scale(7, 900, &out_b).expect("export b");
        assert_eq!(a.hash, b.hash, "same seed must produce identical bytes");
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.json(), b.json(), "summary must be deterministic");
        let fa = std::fs::read(&out_a).expect("read a");
        let fb = std::fs::read(&out_b).expect("read b");
        assert_eq!(fa, fb);
        let _ = std::fs::remove_file(&out_a);
        let _ = std::fs::remove_file(&out_b);
    }

    #[test]
    fn metric_names_cover_the_dynamic_lane_tracks() {
        let names = runtime_metric_names();
        assert!(names.iter().any(|n| n == "profile.lane15.busy_ns"));
        assert!(sensorcer_obs::check_names(names.iter().map(|s| s.as_str())).is_empty());
    }
}
