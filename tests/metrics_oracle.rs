//! Differential oracle for the telemetry registry: `Metrics` interns its
//! keys, stores values by id and per-host values in vectors indexed by
//! host, and can be written by name or through a resolved `Key` — so
//! everything a caller can observe — every getter and every iterator,
//! *including order* — is checked here against a plain string-keyed
//! `BTreeMap` model over generated operation sequences that mix both write
//! paths. `TelemetrySampler`, the Perfetto counter tracks and the committed
//! artifact fingerprints all read those iterators.

use std::collections::{BTreeMap, BTreeSet};

use sensorcer_suite::sim::check::{run_cases, Gen};
use sensorcer_suite::sim::metrics::{Key, Metrics};
use sensorcer_suite::sim::topology::HostId;

// Small alphabets, listed out of name order so that arrival order (the
// order ids are handed out in) and name order disagree.
const KEYS: [&str; 6] = ["net.z", "net.a", "m", "a.b.c", "net", "z.only.gauge"];
const HOSTS: [HostId; 4] = [HostId(7), HostId(0), HostId(3), HostId(1)];
const LABELS: [&str; 4] = ["S1", "S0", "", "s0"];

/// What `Metrics` was before keys were interned: one string-keyed ordered
/// map per store.
#[derive(Default)]
struct Model {
    counters: BTreeMap<String, u64>,
    per_host: BTreeMap<(HostId, String), u64>,
    labeled: BTreeMap<(String, String), u64>,
    gauges: BTreeMap<String, f64>,
    host_gauges: BTreeMap<(HostId, String), f64>,
    samples: BTreeMap<String, Vec<f64>>,
}

impl Model {
    fn all_keys(&self) -> BTreeSet<String> {
        let mut keys: BTreeSet<String> = BTreeSet::new();
        keys.extend(self.counters.keys().cloned());
        keys.extend(self.per_host.keys().map(|(_, k)| k.clone()));
        keys.extend(self.labeled.keys().map(|(k, _)| k.clone()));
        keys.extend(self.gauges.keys().cloned());
        keys.extend(self.host_gauges.keys().map(|(_, k)| k.clone()));
        keys.extend(self.samples.keys().cloned());
        keys
    }
}

/// One generated operation, applied to both sides. The three writes that
/// have a key-based twin take it half the time, through a key resolved at
/// its first such use and `held` from then on — across every later
/// `clear()` of the case.
fn step(g: &mut Gen, m: &mut Metrics, model: &mut Model, held: &mut BTreeMap<&'static str, Key>) {
    let key = *g.pick(&KEYS);
    let host = *g.pick(&HOSTS);
    let label = *g.pick(&LABELS);
    let resolved = g
        .chance(0.5)
        .then(|| *held.entry(key).or_insert_with(|| m.key(key)));
    match g.u64_in(0, 20) {
        0..=3 => {
            // Zero is a legal increment and still registers the counter.
            let n = g.u64_in(0, 4);
            match resolved {
                Some(k) => m.add_key(k, n),
                None => m.add(key, n),
            }
            *model.counters.entry(key.to_string()).or_insert(0) += n;
        }
        4..=8 => {
            // Often the first sight of a key.
            let n = g.u64_in(0, 1000);
            match resolved {
                Some(k) => m.add_host_key(host, k, n),
                None => m.add_host(host, key, n),
            }
            *model.counters.entry(key.to_string()).or_insert(0) += n;
            *model.per_host.entry((host, key.to_string())).or_insert(0) += n;
        }
        9..=11 => {
            let n = g.u64_in(0, 5);
            m.add_labeled(key, label, n);
            *model
                .labeled
                .entry((key.to_string(), label.to_string()))
                .or_insert(0) += n;
        }
        12..=13 => {
            let v = g.f64_in(-10.0, 10.0);
            m.set_gauge(key, v);
            model.gauges.insert(key.to_string(), v);
        }
        14..=16 => {
            let v = g.f64_in(0.0, 1.0);
            match resolved {
                Some(k) => m.set_host_gauge_key(host, k, v),
                None => m.set_host_gauge(host, key, v),
            }
            model.host_gauges.insert((host, key.to_string()), v);
        }
        17..=18 => {
            // NaN samples are dropped, but the series exists from then on.
            let v = if g.chance(0.1) {
                f64::NAN
            } else {
                g.u64_in(0, 200) as f64
            };
            m.record(key, v);
            let series = model.samples.entry(key.to_string()).or_default();
            if !v.is_nan() {
                series.push(v);
            }
        }
        _ => {
            m.clear();
            *model = Model::default();
        }
    }
}

fn assert_same(m: &Metrics, model: &Model) {
    // Point getters, present or not.
    for key in KEYS.iter().copied().chain(["never.written"]) {
        let want = model.counters.get(key).copied().unwrap_or(0);
        assert_eq!(m.get(key), want, "get({key})");
        assert_eq!(m.delta(key, 1), want.saturating_sub(1), "delta({key})");
        assert_eq!(m.gauge(key), model.gauges.get(key).copied(), "gauge({key})");
        for host in HOSTS.iter().copied().chain([HostId(99)]) {
            let k = (host, key.to_string());
            assert_eq!(
                m.get_host(host, key),
                model.per_host.get(&k).copied().unwrap_or(0),
                "get_host({host}, {key})"
            );
            assert_eq!(
                m.host_gauge(host, key),
                model.host_gauges.get(&k).copied(),
                "host_gauge({host}, {key})"
            );
        }
        for label in LABELS.iter().copied().chain(["nobody"]) {
            let k = (key.to_string(), label.to_string());
            assert_eq!(
                m.get_labeled(key, label),
                model.labeled.get(&k).copied().unwrap_or(0),
                "get_labeled({key}, {label:?})"
            );
        }

        // Per-key breakdowns, in host and label order.
        let hosts: Vec<(HostId, u64)> = model
            .per_host
            .iter()
            .filter(|((_, k), _)| k == key)
            .map(|((h, _), v)| (*h, *v))
            .collect();
        assert_eq!(m.hosts_for(key), hosts, "hosts_for({key})");
        let labels: Vec<(String, u64)> = model
            .labeled
            .iter()
            .filter(|((k, _), _)| k == key)
            .map(|((_, l), v)| (l.clone(), *v))
            .collect();
        assert_eq!(m.labels_for(key), labels, "labels_for({key})");

        // Sample series: exact moments, and absent means absent.
        match model.samples.get(key) {
            None => {
                assert!(m.histogram(key).is_none(), "histogram({key})");
                assert!(m.summary(key).is_none(), "summary({key})");
            }
            Some(xs) => {
                let h = m.histogram(key).expect("series was recorded");
                assert_eq!(h.count(), xs.len() as u64, "count({key})");
                assert_eq!(m.summary(key).is_some(), !xs.is_empty(), "summary({key})");
                if let Some(s) = m.summary(key) {
                    assert_eq!(s.count, xs.len());
                    assert_eq!(s.min, xs.iter().copied().fold(f64::INFINITY, f64::min));
                    assert_eq!(s.max, xs.iter().copied().fold(f64::NEG_INFINITY, f64::max));
                }
            }
        }
    }

    // Whole-store iterators: same entries, same order.
    let counters: Vec<(&str, u64)> = model.counters.iter().map(|(k, v)| (&**k, *v)).collect();
    assert_eq!(m.counters().collect::<Vec<_>>(), counters, "counters()");
    let gauges: Vec<(&str, f64)> = model.gauges.iter().map(|(k, v)| (&**k, *v)).collect();
    assert_eq!(m.gauges().collect::<Vec<_>>(), gauges, "gauges()");
    let host_gauges: Vec<(HostId, &str, f64)> = model
        .host_gauges
        .iter()
        .map(|((h, k), v)| (*h, &**k, *v))
        .collect();
    assert_eq!(
        m.host_gauges().collect::<Vec<_>>(),
        host_gauges,
        "host_gauges()"
    );
    let series: Vec<(&str, u64)> = model
        .samples
        .iter()
        .map(|(k, xs)| (&**k, xs.len() as u64))
        .collect();
    assert_eq!(
        m.samples().map(|(k, h)| (k, h.count())).collect::<Vec<_>>(),
        series,
        "samples()"
    );
    assert_eq!(m.all_keys(), model.all_keys(), "all_keys()");
}

#[test]
fn interned_metrics_match_the_string_keyed_model() {
    run_cases("interned_metrics_match_the_string_keyed_model", 128, |g| {
        let mut m = Metrics::new();
        let mut model = Model::default();
        let mut held = BTreeMap::new();
        // Resolving a name registers nothing: the model never hears of it.
        m.key("resolved.never.written");
        assert_same(&m, &model);
        for _ in 0..g.usize_in(20, 120) {
            step(g, &mut m, &mut model, &mut held);
            assert_same(&m, &model);
        }
    });
}

/// The key API's corners, pinned: what a resolved key is and is not.
#[test]
fn a_resolved_key_is_the_name_it_was_resolved_from() {
    let mut m = Metrics::new();
    let wire = m.key("net.bytes.wire");
    assert_eq!(m.key("net.bytes.wire"), wire, "resolving twice is one key");
    assert!(
        m.all_keys().is_empty(),
        "a resolved key is not a metric yet"
    );
    assert_eq!(m.counters().count(), 0);

    // Both paths land in the same counter and the same per-host cell.
    m.add_host_key(HostId(3), wire, 10);
    m.add_host(HostId(3), "net.bytes.wire", 5);
    m.add_key(wire, 1);
    m.add("net.bytes.wire", 1);
    assert_eq!(m.get("net.bytes.wire"), 17);
    assert_eq!(m.get_host(HostId(3), "net.bytes.wire"), 15);

    // A host that wrote zero is a host that wrote: it stays listed, and
    // the hosts between it and its neighbours, which never wrote, do not
    // appear.
    m.add_host_key(HostId(9), wire, 0);
    m.add_host(HostId(6), "net.bytes.wire", 0);
    assert_eq!(
        m.hosts_for("net.bytes.wire"),
        vec![(HostId(3), 15), (HostId(6), 0), (HostId(9), 0)]
    );
    assert_eq!(m.get_host(HostId(4), "net.bytes.wire"), 0);
    assert_eq!(m.get_host(HostId(10), "net.bytes.wire"), 0);

    // A key taken before `clear()` writes after it, to a clean slate.
    let battery = m.key("sensor.battery.level");
    m.set_host_gauge_key(HostId(2), battery, 0.5);
    m.clear();
    assert!(m.hosts_for("net.bytes.wire").is_empty());
    assert_eq!(m.host_gauge(HostId(2), "sensor.battery.level"), None);
    m.add_host_key(HostId(1), wire, 4);
    m.set_host_gauge_key(HostId(0), battery, 0.25);
    assert_eq!(m.hosts_for("net.bytes.wire"), vec![(HostId(1), 4)]);
    assert_eq!(
        m.host_gauges().collect::<Vec<_>>(),
        vec![(HostId(0), "sensor.battery.level", 0.25)]
    );
    assert_eq!(m.key("net.bytes.wire"), wire, "names outlive a clear");
}

/// `mote_scale` has 20 032 hosts and the last of them writes: per-host
/// storage reaches it without the hosts below it becoming visible.
#[test]
fn the_highest_host_of_a_20_000_host_world_writes() {
    let mut m = Metrics::new();
    let top = HostId(19_999);
    let packets = m.key("net.packets.sent");
    m.add_host_key(top, packets, 2);
    m.set_host_gauge(top, "sensor.read.last_ns", 1e9);
    m.add_host(HostId(0), "net.packets.sent", 1);
    assert_eq!(m.get("net.packets.sent"), 3);
    assert_eq!(m.get_host(top, "net.packets.sent"), 2);
    assert_eq!(m.get_host(HostId(19_998), "net.packets.sent"), 0);
    assert_eq!(m.get_host(HostId(20_000), "net.packets.sent"), 0);
    assert_eq!(
        m.hosts_for("net.packets.sent"),
        vec![(HostId(0), 1), (top, 2)]
    );
    assert_eq!(m.host_gauge(top, "sensor.read.last_ns"), Some(1e9));
    assert_eq!(m.host_gauge(HostId(0), "sensor.read.last_ns"), None);
    assert_eq!(
        m.host_gauges().collect::<Vec<_>>(),
        vec![(top, "sensor.read.last_ns", 1e9)]
    );
    let keys: Vec<String> = m.all_keys().into_iter().collect();
    assert_eq!(keys, ["net.packets.sent", "sensor.read.last_ns"]);
}

/// The cases the generator reaches only by luck, pinned.
#[test]
fn arrival_order_never_leaks_into_an_iterator() {
    let mut m = Metrics::new();
    // First sight through `add_host`, in reverse name order.
    m.add_host(HostId(2), "z.last", 1);
    m.add_host(HostId(2), "a.first", 2);
    m.add_host(HostId(1), "z.last", 3);
    // A key that only ever exists as a per-host gauge, and one that only
    // exists as a gauge.
    m.set_host_gauge(HostId(2), "y.gauge", 0.5);
    m.set_host_gauge(HostId(2), "b.gauge", 0.25);
    m.set_host_gauge(HostId(1), "y.gauge", 0.75);
    m.set_gauge("m.gauge", 1.0);
    assert_eq!(
        m.counters().collect::<Vec<_>>(),
        vec![("a.first", 2), ("z.last", 4)]
    );
    assert_eq!(
        m.host_gauges().collect::<Vec<_>>(),
        vec![
            (HostId(1), "y.gauge", 0.75),
            (HostId(2), "b.gauge", 0.25),
            (HostId(2), "y.gauge", 0.5),
        ]
    );
    assert_eq!(m.hosts_for("z.last"), vec![(HostId(1), 3), (HostId(2), 1)]);
    let keys: Vec<String> = m.all_keys().into_iter().collect();
    assert_eq!(keys, ["a.first", "b.gauge", "m.gauge", "y.gauge", "z.last"]);

    // Re-use after `clear`: nothing of the old run is visible, and a key
    // seen before the clear comes back empty-handed until written again.
    m.clear();
    assert!(m.all_keys().is_empty());
    assert_eq!(m.counters().count(), 0);
    assert_eq!(m.host_gauges().count(), 0);
    assert_eq!(m.get("z.last"), 0);
    assert_eq!(m.get_host(HostId(2), "z.last"), 0);
    assert_eq!(m.gauge("m.gauge"), None);
    m.add("z.last", 0);
    assert_eq!(m.counters().collect::<Vec<_>>(), vec![("z.last", 0)]);
    assert!(m.hosts_for("z.last").is_empty());
}
