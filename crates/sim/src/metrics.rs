//! Measurement plumbing: the telemetry registry.
//!
//! The benchmark harness reads everything it reports from here. Counters
//! are keyed by a free-form category string (e.g. `"bytes.payload"`,
//! `"packets.udp"`) plus optional per-host attribution, so experiments can
//! ask questions like "how many bytes crossed the TCI's link?" (B7).
//! Sample series go into log-linear bucketed [`Histogram`]s whose memory is
//! bounded by the number of distinct buckets, not the sample count — a
//! week-long soak records latencies without growing. Gauges (global and
//! per-host) carry last-written values like a mote's last successful read
//! time, and labeled counters attribute a metric by a free-form dimension
//! (per-servicer retry counts, per-child substitutions).
//!
//! Keys are interned on first sight: a write whose key (and label) has
//! been seen before allocates nothing, and no getter ever allocates. Ids
//! are handed out in arrival order, so every iterator orders by *name*.
//! A caller that writes the same name on a hot path resolves it once with
//! [`Metrics::key`] and writes through the [`Key`]; the string-keyed
//! methods are "resolve, then the same write".

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use sensorcer_trace::Histogram;

use crate::topology::HostId;

/// A metric name resolved by [`Metrics::key`]: the index of its `Slot`.
/// Belongs to the registry that issued it and outlives [`Metrics::clear`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Key(u32);

/// Everything recorded under one key.
#[derive(Debug)]
struct Slot {
    name: Arc<str>,
    counter: Option<u64>,
    gauge: Option<f64>,
    samples: Option<Histogram>,
    labels: BTreeMap<Box<str>, u64>,
    /// Per-host breakdown of `counter`, indexed by host id and as long as
    /// the highest host that wrote; `None` where a host never did.
    per_host: Vec<Option<u64>>,
    /// Per-host gauges, laid out like `per_host`.
    host_gauges: Vec<Option<f64>>,
}

/// The cell of `host` in a per-host vector, grown to reach it. Growth is
/// exact: the vectors of a 20 000-host world are most of the registry, and
/// doubling would leave up to half of each unused.
fn host_cell<T: Copy>(cells: &mut Vec<Option<T>>, host: HostId) -> &mut Option<T> {
    let i = host.0 as usize;
    if i >= cells.len() {
        cells.reserve_exact(i + 1 - cells.len());
        cells.resize(i + 1, None);
    }
    &mut cells[i]
}

/// The written cells of a per-host vector, in host order.
fn written<T: Copy>(cells: &[Option<T>]) -> impl Iterator<Item = (HostId, T)> + '_ {
    cells
        .iter()
        .enumerate()
        .filter_map(|(i, v)| Some((HostId(i as u32), (*v)?)))
}

/// Monotonic counters, gauges, and bounded sample histograms for one
/// simulation run.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Key name → slot index, in name order. Survives [`Metrics::clear`].
    ids: BTreeMap<Arc<str>, Key>,
    slots: Vec<Slot>,
}

impl Metrics {
    pub fn new() -> Self {
        Metrics::default()
    }

    fn slot(&self, key: &str) -> Option<&Slot> {
        self.ids.get(key).map(|&id| &self.slots[id.0 as usize])
    }

    /// Resolve `name` to the key that writes it, interning it on first
    /// sight. Resolving registers nothing a getter or iterator can see.
    pub fn key(&mut self, name: &str) -> Key {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        #[expect(
            clippy::expect_used,
            reason = "keys are names written in the source, not data (every key a soak and the \
                      tenant storm register is a `subsystem.object.action` name: see \
                      tests/metric_names.rs): far fewer than 2^32"
        )]
        let id = Key(u32::try_from(self.slots.len()).expect("fewer than 2^32 metric keys"));
        let name: Arc<str> = name.into();
        self.ids.insert(Arc::clone(&name), id);
        self.slots.push(Slot {
            name,
            counter: None,
            gauge: None,
            samples: None,
            labels: BTreeMap::new(),
            per_host: Vec::new(),
            host_gauges: Vec::new(),
        });
        id
    }

    fn slot_mut(&mut self, key: &str) -> &mut Slot {
        let id = self.key(key);
        &mut self.slots[id.0 as usize]
    }

    /// Slots in key-name order.
    fn by_name(&self) -> impl Iterator<Item = &Slot> {
        self.ids.values().map(|&id| &self.slots[id.0 as usize])
    }

    /// Add `n` to the counter `key`.
    pub fn add(&mut self, key: &str, n: u64) {
        let key = self.key(key);
        self.add_key(key, n);
    }

    /// [`Metrics::add`] through a resolved key.
    #[inline]
    pub fn add_key(&mut self, key: Key, n: u64) {
        *self.slots[key.0 as usize].counter.get_or_insert(0) += n;
    }

    /// Add `n` to the counter `key` attributed to `host` (and to the global
    /// counter of the same name).
    pub fn add_host(&mut self, host: HostId, key: &str, n: u64) {
        let key = self.key(key);
        self.add_host_key(host, key, n);
    }

    /// [`Metrics::add_host`] through a resolved key.
    #[inline]
    pub fn add_host_key(&mut self, host: HostId, key: Key, n: u64) {
        let slot = &mut self.slots[key.0 as usize];
        *slot.counter.get_or_insert(0) += n;
        *host_cell(&mut slot.per_host, host).get_or_insert(0) += n;
    }

    /// Current value of a counter (0 if never touched).
    pub fn get(&self, key: &str) -> u64 {
        self.slot(key).and_then(|s| s.counter).unwrap_or(0)
    }

    /// Current per-host value of a counter.
    pub fn get_host(&self, host: HostId, key: &str) -> u64 {
        self.slot(key)
            .and_then(|s| *s.per_host.get(host.0 as usize)?)
            .unwrap_or(0)
    }

    /// Add `n` to the counter `key` under a free-form `label` dimension
    /// (e.g. a servicer name). Labeled counts are a breakdown of their own;
    /// they do not feed the global counter.
    pub fn add_labeled(&mut self, key: &str, label: &str, n: u64) {
        let labels = &mut self.slot_mut(key).labels;
        match labels.get_mut(label) {
            Some(v) => *v += n,
            None => {
                labels.insert(label.into(), n);
            }
        }
    }

    /// Current value of a labeled counter.
    pub fn get_labeled(&self, key: &str, label: &str) -> u64 {
        self.slot(key)
            .and_then(|s| s.labels.get(label))
            .copied()
            .unwrap_or(0)
    }

    /// All labels recorded for a key with their counts, in label order.
    pub fn labels_for(&self, key: &str) -> Vec<(String, u64)> {
        self.slot(key)
            .into_iter()
            .flat_map(|s| &s.labels)
            .map(|(l, v)| (l.to_string(), *v))
            .collect()
    }

    /// Set a last-written-wins gauge.
    pub fn set_gauge(&mut self, key: &str, value: f64) {
        self.slot_mut(key).gauge = Some(value);
    }

    /// Read a gauge, if ever set.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.slot(key)?.gauge
    }

    /// Set a per-host gauge (e.g. `sensor.read.last_ns` on a mote).
    pub fn set_host_gauge(&mut self, host: HostId, key: &str, value: f64) {
        let key = self.key(key);
        self.set_host_gauge_key(host, key, value);
    }

    /// [`Metrics::set_host_gauge`] through a resolved key.
    #[inline]
    pub fn set_host_gauge_key(&mut self, host: HostId, key: Key, value: f64) {
        *host_cell(&mut self.slots[key.0 as usize].host_gauges, host) = Some(value);
    }

    /// Read a per-host gauge, if ever set.
    pub fn host_gauge(&self, host: HostId, key: &str) -> Option<f64> {
        *self.slot(key)?.host_gauges.get(host.0 as usize)?
    }

    /// Record one sample into the named series (latencies, sizes, ...).
    /// Storage is a bounded bucketed histogram: a soak can record forever.
    pub fn record(&mut self, key: &str, value: f64) {
        self.slot_mut(key)
            .samples
            .get_or_insert_with(Histogram::new)
            .record(value);
    }

    /// Summary statistics over a recorded series, if any samples exist.
    pub fn summary(&self, key: &str) -> Option<Summary> {
        Summary::of_histogram(self.histogram(key)?)
    }

    /// Direct access to a recorded series' histogram.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.slot(key)?.samples.as_ref()
    }

    /// All counter keys with their values, in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.by_name()
            .filter_map(|s| s.counter.map(|v| (&*s.name, v)))
    }

    /// All global gauges with their last-written values, in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.by_name()
            .filter_map(|s| s.gauge.map(|v| (&*s.name, v)))
    }

    /// All per-host gauges, in (host, key) order.
    pub fn host_gauges(&self) -> impl Iterator<Item = (HostId, &str, f64)> {
        let mut all: Vec<(HostId, &str, f64)> = self
            .by_name()
            .flat_map(|s| written(&s.host_gauges).map(|(h, v)| (h, &*s.name, v)))
            .collect();
        // Stable: a host's gauges stay in the name order they arrived in.
        all.sort_by_key(|&(h, _, _)| h);
        all.into_iter()
    }

    /// All recorded sample series with their histograms, in key order.
    pub fn samples(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.by_name()
            .filter_map(|s| s.samples.as_ref().map(|h| (&*s.name, h)))
    }

    /// Every metric name this run has registered, across all five stores
    /// (counters, per-host counters, labeled counters, gauges, per-host
    /// gauges, sample series) — the raw material for the runtime naming
    /// audit (`tests/metric_names.rs`) and for observers that subscribe by key.
    pub fn all_keys(&self) -> BTreeSet<String> {
        // A per-host counter always has its global counter; a per-host
        // gauge may be the only thing recorded under its key.
        self.slots
            .iter()
            .filter(|s| {
                s.counter.is_some()
                    || s.gauge.is_some()
                    || s.samples.is_some()
                    || !s.labels.is_empty()
                    || written(&s.host_gauges).next().is_some()
            })
            .map(|s| s.name.to_string())
            .collect()
    }

    /// Per-host counters for a key, in host order.
    pub fn hosts_for(&self, key: &str) -> Vec<(HostId, u64)> {
        self.slot(key)
            .map(|s| written(&s.per_host).collect())
            .unwrap_or_default()
    }

    /// Reset everything (used between benchmark phases sharing an Env).
    /// Interned names are kept, so re-use after a clear stays allocation-free.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            s.counter = None;
            s.gauge = None;
            s.samples = None;
            s.labels.clear();
            s.per_host.clear();
            s.host_gauges.clear();
        }
    }

    /// Difference of a counter against a previous snapshot value.
    pub fn delta(&self, key: &str, before: u64) -> u64 {
        self.get(key).saturating_sub(before)
    }
}

/// Order statistics of a sample series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

impl Summary {
    /// Compute a summary; returns `None` for an empty slice.
    pub fn of(xs: &[f64]) -> Option<Summary> {
        if xs.is_empty() {
            return None;
        }
        let mut sorted: Vec<f64> = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        let q = |p: f64| -> f64 {
            // Nearest-rank percentile.
            let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            sorted[rank - 1]
        };
        Some(Summary {
            count: sorted.len(),
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            p50: q(0.50),
            p90: q(0.90),
            p99: q(0.99),
        })
    }

    /// Summary from a bucketed histogram; count/mean/min/max are exact,
    /// percentiles are bucket-resolution (< 0.8% relative error, exact for
    /// integer samples up to 255).
    pub fn of_histogram(h: &Histogram) -> Option<Summary> {
        if h.is_empty() {
            return None;
        }
        Some(Summary {
            count: h.count() as usize,
            mean: h.mean(),
            min: h.min(),
            max: h.max(),
            p50: h.quantile(0.50),
            p90: h.quantile(0.90),
            p99: h.quantile(0.99),
        })
    }
}

/// Well-known counter keys used by the simulation kernel. Middleware crates
/// add their own keys on top.
pub mod keys {
    /// Application payload bytes handed to the network.
    pub const BYTES_PAYLOAD: &str = "net.bytes.payload";
    /// Total bytes on the wire including all protocol headers.
    pub const BYTES_WIRE: &str = "net.bytes.wire";
    /// Data packets transmitted (after fragmentation).
    pub const PACKETS: &str = "net.packets.sent";
    /// Logical request/response calls completed successfully.
    pub const CALLS_OK: &str = "net.calls.ok";
    /// Logical calls that failed (loss, partition, crash, timeout).
    pub const CALLS_FAILED: &str = "net.calls.failed";
    /// Packets dropped by the loss model.
    pub const PACKETS_LOST: &str = "net.packets.lost";
    /// Retransmitted packets (reliable stacks only).
    pub const RETRANSMITS: &str = "net.packets.retransmitted";
    /// Multicast transmissions.
    pub const MULTICASTS: &str = "net.packets.multicast";
}

/// Metric keys the telemetry sampler registers about itself, held to the
/// same `subsystem.object.action` convention as everything it samples.
pub mod sampler_keys {
    /// Snapshot ticks actually taken (cadence hits, not calls).
    pub const TICKS: &str = "sampler.ticks.taken";
    /// Individual `(time, value)` points appended across all series.
    pub const POINTS: &str = "sampler.points.recorded";

    pub const ALL: &[&str] = &[TICKS, POINTS];
}

/// Synthetic gauge series name for the event engine's pending-timer
/// backlog, sampled straight off the queue rather than the registry.
pub const PENDING_TIMERS_SERIES: &str = "engine.timers.pending";

/// Key specs select which registry entries a sampler snapshots: an exact
/// key, or a `prefix.*` wildcard matching every key under the prefix.
fn spec_matches(spec: &str, key: &str) -> bool {
    match spec.strip_suffix('*') {
        Some(prefix) => key.starts_with(prefix),
        None => spec == key,
    }
}

/// What a [`TelemetrySampler`] watches and how often. It always samples
/// the engine's pending-timer backlog too, as [`PENDING_TIMERS_SERIES`].
#[derive(Clone, Debug)]
pub struct SamplerConfig {
    /// Sim-time cadence between snapshots.
    pub period: crate::time::SimDuration,
    /// Counter keys (exact or `prefix.*`) snapshotted as cumulative
    /// series — Perfetto counter tracks asserted non-decreasing.
    pub counters: Vec<String>,
    /// Gauge keys (exact or `prefix.*`) snapshotted as value series.
    pub gauges: Vec<String>,
}

impl Default for SamplerConfig {
    fn default() -> SamplerConfig {
        SamplerConfig {
            period: crate::time::SimDuration::from_secs(1),
            counters: Vec::new(),
            gauges: Vec::new(),
        }
    }
}

/// Continuous telemetry sampler: a sim-time cadence snapshotter that
/// turns registry counters and gauges (admission depth, burst level,
/// burn rate, timer backlog) into [`CounterSeries`] for the Perfetto
/// export's counter tracks.
///
/// Drive it from a scenario loop — call [`sample`](Self::sample) once
/// per round; it no-ops until the next cadence boundary, so call
/// frequency does not change what gets recorded. Sampling reads the
/// registry and appends to internal series only (plus its own
/// `sampler.*` bookkeeping counters), so a sampled run's simulation
/// results are identical to an unsampled one.
///
/// [`CounterSeries`]: sensorcer_trace::perfetto::CounterSeries
#[derive(Debug)]
pub struct TelemetrySampler {
    cfg: SamplerConfig,
    next_due: Option<crate::time::SimTime>,
    ticks: u64,
    counters: BTreeMap<String, Vec<(u64, f64)>>,
    gauges: BTreeMap<String, Vec<(u64, f64)>>,
}

impl TelemetrySampler {
    pub fn new(mut cfg: SamplerConfig) -> TelemetrySampler {
        // A zero period would spin the catch-up loop forever.
        if cfg.period.0 == 0 {
            cfg.period = crate::time::SimDuration(1);
        }
        TelemetrySampler {
            cfg,
            next_due: None,
            ticks: 0,
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
        }
    }

    /// Snapshot ticks taken so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Take a snapshot if the cadence is due (the first call anchors the
    /// cadence at the current sim time). Safe to call every round.
    pub fn sample(&mut self, env: &mut crate::env::Env) {
        let now = env.now();
        let due = *self.next_due.get_or_insert(now);
        if now < due {
            return;
        }
        // Catch up past gaps longer than one period so the cadence stays
        // anchored to the original grid.
        let mut next = due;
        while next <= now {
            next += self.cfg.period;
        }
        self.next_due = Some(next);
        self.ticks += 1;

        let t = now.as_nanos();
        let mut points = 0u64;
        for (key, v) in env.metrics.counters() {
            if self.cfg.counters.iter().any(|s| spec_matches(s, key)) {
                self.counters
                    .entry(key.to_string())
                    .or_default()
                    .push((t, v as f64));
                points += 1;
            }
        }
        for (key, v) in env.metrics.gauges() {
            if self.cfg.gauges.iter().any(|s| spec_matches(s, key)) {
                self.gauges.entry(key.to_string()).or_default().push((t, v));
                points += 1;
            }
        }
        self.gauges
            .entry(PENDING_TIMERS_SERIES.to_string())
            .or_default()
            .push((t, env.pending_timers() as f64));
        points += 1;
        env.metrics.add(sampler_keys::TICKS, 1);
        env.metrics.add(sampler_keys::POINTS, points);
    }

    /// The recorded series as Perfetto counter-track inputs: counters as
    /// cumulative `Count` series, gauges as free-moving `Value` series,
    /// sorted by name.
    pub fn into_series(self) -> Vec<sensorcer_trace::perfetto::CounterSeries> {
        use sensorcer_trace::perfetto::{CounterSeries, CounterUnit};
        let mut out = Vec::with_capacity(self.counters.len() + self.gauges.len());
        for (name, points) in self.counters {
            out.push(CounterSeries {
                name,
                unit: CounterUnit::Count,
                points,
            });
        }
        for (name, points) in self.gauges {
            out.push(CounterSeries {
                name,
                unit: CounterUnit::Value,
                points,
            });
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = Metrics::new();
        m.add("x", 3);
        m.add("x", 4);
        assert_eq!(m.get("x"), 7);
        assert_eq!(m.get("missing"), 0);
    }

    #[test]
    fn per_host_attribution_feeds_global() {
        let mut m = Metrics::new();
        let h1 = HostId(1);
        let h2 = HostId(2);
        m.add_host(h1, "bytes", 10);
        m.add_host(h2, "bytes", 5);
        assert_eq!(m.get("bytes"), 15);
        assert_eq!(m.get_host(h1, "bytes"), 10);
        assert_eq!(m.get_host(h2, "bytes"), 5);
        assert_eq!(m.hosts_for("bytes"), vec![(h1, 10), (h2, 5)]);
    }

    #[test]
    fn summary_statistics() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&xs).unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p90, 90.0);
        assert_eq!(s.p99, 99.0);
        assert!((s.mean - 50.5).abs() < 1e-9);
    }

    #[test]
    fn summary_of_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
        let m = Metrics::new();
        assert!(m.summary("nothing").is_none());
    }

    #[test]
    fn summary_single_sample() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!(s.p50, 7.0);
        assert_eq!(s.p99, 7.0);
        assert_eq!(s.mean, 7.0);
    }

    #[test]
    fn record_and_summarize_via_metrics() {
        let mut m = Metrics::new();
        for v in [5.0, 1.0, 3.0] {
            m.record("lat", v);
        }
        let s = m.summary("lat").unwrap();
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.count, 3);
    }

    #[test]
    fn samples_are_bounded_by_buckets_not_count() {
        let mut m = Metrics::new();
        for i in 0..200_000u64 {
            m.record("lat", (i % 500) as f64);
        }
        let h = m.histogram("lat").unwrap();
        assert_eq!(h.count(), 200_000);
        assert!(h.bucket_count() < 1_000, "{}", h.bucket_count());
        let s = m.summary("lat").unwrap();
        assert_eq!(s.count, 200_000);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 499.0);
    }

    #[test]
    fn labeled_counters_break_down_by_dimension() {
        let mut m = Metrics::new();
        m.add_labeled("retries", "S0", 2);
        m.add_labeled("retries", "S1", 1);
        m.add_labeled("retries", "S0", 1);
        assert_eq!(m.get_labeled("retries", "S0"), 3);
        assert_eq!(m.get_labeled("retries", "S1"), 1);
        assert_eq!(m.get_labeled("retries", "S9"), 0);
        assert_eq!(
            m.labels_for("retries"),
            vec![("S0".to_string(), 3), ("S1".to_string(), 1)]
        );
        // Labeled counts are a breakdown, not a feed into the global.
        assert_eq!(m.get("retries"), 0);
    }

    #[test]
    fn gauges_are_last_written_wins() {
        let mut m = Metrics::new();
        let h = HostId(4);
        assert!(m.gauge("g").is_none());
        m.set_gauge("g", 1.5);
        m.set_gauge("g", 2.5);
        assert_eq!(m.gauge("g"), Some(2.5));
        m.set_host_gauge(h, "last_read", 10.0);
        m.set_host_gauge(h, "last_read", 99.0);
        assert_eq!(m.host_gauge(h, "last_read"), Some(99.0));
        assert!(m.host_gauge(HostId(5), "last_read").is_none());
    }

    #[test]
    fn iteration_hooks_expose_every_registered_key() {
        let mut m = Metrics::new();
        m.add("a.b.c", 1);
        m.add_host(HostId(1), "d.e.f", 2);
        m.add_labeled("g.h.i", "L", 3);
        m.set_gauge("j.k.l", 1.0);
        m.set_host_gauge(HostId(2), "m.n.o", 2.0);
        m.record("p.q.r", 3.0);
        let keys = m.all_keys();
        for k in ["a.b.c", "d.e.f", "g.h.i", "j.k.l", "m.n.o", "p.q.r"] {
            assert!(keys.contains(k), "missing {k}");
        }
        assert_eq!(m.gauges().collect::<Vec<_>>(), vec![("j.k.l", 1.0)]);
        assert_eq!(m.host_gauges().count(), 1);
        assert_eq!(m.samples().count(), 1);
    }

    #[test]
    fn clear_and_delta() {
        let mut m = Metrics::new();
        m.add("x", 9);
        let before = m.get("x");
        m.add("x", 6);
        assert_eq!(m.delta("x", before), 6);
        m.clear();
        assert_eq!(m.get("x"), 0);
    }

    #[test]
    fn sampler_snapshots_on_its_cadence_only() {
        use crate::env::Env;
        use crate::time::SimDuration;

        let mut env = Env::with_seed(7);
        let mut s = TelemetrySampler::new(SamplerConfig {
            period: SimDuration::from_secs(2),
            counters: vec!["admission.*".into()],
            gauges: vec!["chaos.burst.level_t0".into()],
        });
        for round in 0..10u64 {
            env.metrics.add("admission.requests.shed", 1);
            env.metrics.add("other.requests.served", 1);
            env.metrics.set_gauge("chaos.burst.level_t0", round as f64);
            s.sample(&mut env);
            // Extra same-instant calls are no-ops: the cadence, not the
            // call count, decides what gets recorded.
            s.sample(&mut env);
            env.run_for(SimDuration::from_secs(1));
        }
        // 10 virtual seconds at a 2 s period = ticks at t=0,2,4,6,8.
        assert_eq!(s.ticks(), 5);
        assert_eq!(env.metrics.get(sampler_keys::TICKS), 5);
        assert!(env.metrics.get(sampler_keys::POINTS) >= 10);

        let series = s.into_series();
        let names: Vec<&str> = series.iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"admission.requests.shed"));
        assert!(names.contains(&"chaos.burst.level_t0"));
        assert!(names.contains(&PENDING_TIMERS_SERIES));
        assert!(!names.contains(&"other.requests.served"), "{names:?}");

        let shed = series
            .iter()
            .find(|c| c.name == "admission.requests.shed")
            .unwrap();
        assert_eq!(shed.points.len(), 5);
        assert!(matches!(
            shed.unit,
            sensorcer_trace::perfetto::CounterUnit::Count
        ));
        // Cumulative counter snapshots never decrease.
        assert!(shed.points.windows(2).all(|w| w[0].1 <= w[1].1));
        // Timestamps ride the virtual clock.
        assert_eq!(shed.points[1].0 - shed.points[0].0, 2_000_000_000);
    }

    #[test]
    fn sampler_wildcards_and_exact_keys() {
        assert!(spec_matches("admission.*", "admission.requests.shed"));
        assert!(spec_matches("a.b.c", "a.b.c"));
        assert!(!spec_matches("a.b.c", "a.b.c.d"));
        assert!(!spec_matches("admission.*", "breaker.calls.skipped"));
        assert!(spec_matches("*", "anything.at.all"));
    }
}
