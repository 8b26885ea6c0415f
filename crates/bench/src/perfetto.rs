//! The tenant storm rendered as a Perfetto trace.
//!
//! `harness storm` runs the full [`storm`](crate::storm) scenario with a
//! [`TelemetrySampler`] pumped once per round, then feeds everything the
//! run left behind — the flight recorder, the sampled counter/gauge
//! series, the façade's SLO alert history — through
//! [`sensorcer_trace::perfetto::export`] into one `.perfetto-trace` byte
//! stream that <https://ui.perfetto.dev> opens directly.
//!
//! Before anything is written, the stream is round-tripped through the
//! in-repo decoder and [`validate`]d: every slice begin must have a
//! matching end, every flow id must resolve to at least two events, and
//! cumulative counter tracks must never decrease. A run that fails its
//! own trace is a harness failure, not a shipped artifact.
//!
//! Two files come out: the storm report (`STORM_1.json`), whose
//! `perfetto` member holds an FNV-1a hash and the decoded shape of the
//! stream and is regenerated byte for byte by
//! `tests/committed_artifacts.rs`, and the binary trace beside it
//! (`STORM_1.perfetto-trace`, not committed).
//!
//! [`validate`]: sensorcer_trace::perfetto::validate

use sensorcer_obs::alert_timeline;
use sensorcer_sim::prelude::*;
use sensorcer_trace::json::Json;
use sensorcer_trace::perfetto::{self, ExportConfig, InstantTrack};

use crate::storm::{run_storm, StormConfig, StormRun};

/// The sampler the leg attaches to the storm: 1 s cadence (one snapshot
/// per nominal round), watching the overload-protection counter families
/// and the control-plane gauges, plus the event-engine depth.
pub fn sampler_config() -> SamplerConfig {
    SamplerConfig {
        period: SimDuration::from_secs(1),
        counters: vec![
            "admission.requests.*".into(),
            "admission.queue.delays".into(),
            "breaker.calls.*".into(),
            "breaker.state.*".into(),
        ],
        gauges: vec!["chaos.burst.*".into(), "slo.burn.*".into()],
    }
}

/// What one export did, summarised for the storm report.
pub struct PerfettoReport {
    pub bytes: usize,
    /// FNV-1a 64-bit hash of the trace bytes (the determinism fingerprint).
    pub hash: u64,
    pub shape: StreamShape,
    pub eviction_markers: usize,
    pub sampler_ticks: u64,
    pub alerts: usize,
    /// Decoder validation failures; empty on a pass.
    pub problems: Vec<String>,
}

impl PerfettoReport {
    pub fn passed(&self) -> bool {
        self.problems.is_empty()
    }

    /// The storm report's `perfetto` member.
    pub fn json(&self) -> Json {
        Json::obj(
            [
                ("bytes", self.bytes.into()),
                ("fnv64", format!("{:016x}", self.hash).into()),
            ]
            .into_iter()
            .chain(self.shape.json())
            .chain([
                ("eviction_markers", self.eviction_markers.into()),
                ("sampler_ticks", self.sampler_ticks.into()),
                ("alerts", self.alerts.into()),
                ("problems", Json::arr(&self.problems)),
            ]),
        )
    }

    pub fn summary(&self) -> String {
        format!(
            "perfetto export: {} bytes (fnv64 {:016x}), {}, {} eviction markers, \
             {} sampler ticks, {} alerts — {}\n",
            self.bytes,
            self.hash,
            self.shape,
            self.eviction_markers,
            self.sampler_ticks,
            self.alerts,
            if self.passed() {
                "PASS".to_string()
            } else {
                format!("FAIL ({} problems)", self.problems.len())
            }
        )
    }
}

/// What the in-repo decoder counted in an exported stream: the shape
/// half of the storm report's `perfetto` member.
pub struct StreamShape {
    pub packets: usize,
    pub process_tracks: usize,
    pub thread_tracks: usize,
    pub counter_tracks: usize,
    pub slices: usize,
    pub instants: usize,
    pub counter_points: usize,
    pub flows: usize,
}

impl StreamShape {
    pub fn of(d: &perfetto::DecodedTrace) -> StreamShape {
        let tracks = |kind: fn(&perfetto::DecodedTrack) -> bool| {
            d.tracks.values().filter(|t| kind(t)).count()
        };
        StreamShape {
            packets: d.packets,
            process_tracks: tracks(|t| t.is_process),
            thread_tracks: tracks(|t| t.is_thread),
            counter_tracks: tracks(|t| t.is_counter),
            slices: d.slices(),
            instants: d.instants(),
            counter_points: d.counter_points(),
            flows: d.flow_ids().len(),
        }
    }

    /// `packets`, `tracks`, `events` and `flows`, in summary order.
    pub fn json(&self) -> [(&'static str, Json); 4] {
        [
            ("packets", self.packets.into()),
            (
                "tracks",
                Json::obj([
                    ("process", self.process_tracks.into()),
                    ("thread", self.thread_tracks.into()),
                    ("counter", self.counter_tracks.into()),
                ]),
            ),
            (
                "events",
                Json::obj([
                    ("slices", self.slices.into()),
                    ("instants", self.instants.into()),
                    ("counter_points", self.counter_points.into()),
                ]),
            ),
            ("flows", self.flows.into()),
        ]
    }
}

impl std::fmt::Display for StreamShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} packets, {} slices / {} instants / {} counter points on {}p+{}t+{}c tracks, \
             {} flows",
            self.packets,
            self.slices,
            self.instants,
            self.counter_points,
            self.process_tracks,
            self.thread_tracks,
            self.counter_tracks,
            self.flows
        )
    }
}

/// Run one sampled storm and export it. Pure function of the config —
/// identical configs produce identical bytes.
pub fn export_storm(cfg: &StormConfig) -> (Vec<u8>, PerfettoReport, StormRun) {
    let mut sampler = TelemetrySampler::new(sampler_config());
    let run = run_storm(cfg, Some(&mut sampler));
    let ticks = sampler.ticks();

    let mut export_cfg = ExportConfig::default();
    for (id, name) in &run.hosts {
        export_cfg.host_names.insert(*id, name.clone());
    }
    let counters: Vec<perfetto::CounterSeries> = sampler.into_series();
    let timelines: Vec<InstantTrack> = vec![alert_timeline(&run.alerts)];

    let empty = FlightRecorder::new(0);
    let rec = run.recorder.as_ref().unwrap_or(&empty);
    let bytes = perfetto::export(rec, &counters, &timelines, &export_cfg);

    let mut problems: Vec<String> = Vec::new();
    let decoded = match perfetto::decode(&bytes) {
        Ok(d) => d,
        Err(e) => {
            problems.push(format!("decode failed: {e}"));
            perfetto::decode(&[]).unwrap_or_else(|_| unreachable!("empty trace decodes"))
        }
    };
    problems.extend(perfetto::validate(&decoded));

    let report = PerfettoReport {
        bytes: bytes.len(),
        hash: perfetto::fnv64(&bytes),
        shape: StreamShape::of(&decoded),
        eviction_markers: rec.evictions().len(),
        sampler_ticks: ticks,
        alerts: run.alerts.len(),
        problems,
    };
    (bytes, report, run)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shortened storm — same shape, smaller windows — so the export
    /// tests stay fast in debug builds. The full-length run is exercised
    /// by `tests/committed_artifacts.rs`.
    fn mini_cfg(seed: u64) -> StormConfig {
        let mut cfg = StormConfig::new(seed);
        cfg.warmup = SimDuration::from_secs(5);
        cfg.burst.hold = SimDuration::from_secs(30);
        cfg.tail = SimDuration::from_secs(40);
        cfg.outage_after = SimDuration::from_secs(15);
        cfg.outage = SimDuration::from_secs(15);
        cfg
    }

    #[test]
    fn export_decodes_clean_across_pinned_seeds() {
        for seed in [1u64, 2, 3] {
            let (bytes, report, _) = export_storm(&mini_cfg(seed));
            assert!(!bytes.is_empty(), "seed {seed}: empty trace");
            assert_eq!(bytes[0], 0x0a, "seed {seed}: bad magic byte");
            let decoded = perfetto::decode(&bytes).expect("decodes");
            let problems = perfetto::validate(&decoded);
            assert!(problems.is_empty(), "seed {seed}: {problems:#?}");
            // The storm genuinely produced a story worth looking at:
            // spans on slices, sampled counters, and resolvable flows.
            assert!(decoded.slices() > 0, "seed {seed}: no slices");
            assert!(decoded.counter_points() > 0, "seed {seed}: no counters");
            assert!(!decoded.flow_ids().is_empty(), "seed {seed}: no flows");
            assert!(report.sampler_ticks > 0, "seed {seed}: sampler never ran");
        }
    }

    #[test]
    fn export_is_bit_identical_per_seed() {
        let cfg = mini_cfg(7);
        let (a, ra, _) = export_storm(&cfg);
        let (b, rb, _) = export_storm(&cfg);
        assert_eq!(a, b, "same seed must produce identical bytes");
        assert_eq!(ra.hash, rb.hash);
        assert_eq!(perfetto::fnv64(&a), ra.hash);
    }

    #[test]
    fn alert_timeline_rides_into_the_trace() {
        let (bytes, report, run) = export_storm(&mini_cfg(1));
        // The storm burns the bulk SLO hard enough to page; those alerts
        // must surface as instants on the slo-alerts track.
        assert!(report.alerts > 0, "storm fired no alerts");
        assert!(!run.alerts.is_empty());
        let decoded = perfetto::decode(&bytes).expect("decodes");
        assert!(
            decoded
                .tracks
                .values()
                .any(|t| t.name == sensorcer_obs::ALERT_TRACK),
            "missing the alert timeline track"
        );
        assert!(decoded.instants() > 0);
    }
}
