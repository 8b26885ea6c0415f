//! One connection per binding, end to end: a warmed composite read pays no
//! TCP setup; a child that failed, a composite without its binding cache
//! and a requestor that bound a dead provider's lingering registration pay
//! it where they open a connection, and only there.

use std::cell::Cell;
use std::rc::Rc;

use sensorcer_suite::core::prelude::*;
use sensorcer_suite::exertion::prelude::*;
use sensorcer_suite::expr::Value;
use sensorcer_suite::registry::attributes::Entry;
use sensorcer_suite::registry::ids::{interfaces, SvcUuid};
use sensorcer_suite::registry::item::ServiceItem;
use sensorcer_suite::registry::lease::LeasePolicy;
use sensorcer_suite::registry::lus::{LookupService, LusHandle};
use sensorcer_suite::sensors::prelude::*;
use sensorcer_suite::sim::prelude::*;

const LONG: SimDuration = SimDuration::from_secs(36_000);
const CHILDREN: usize = 16;
/// SYN, SYN-ACK, ACK, FIN, FIN-ACK at 58 B each.
const SETUP: u64 = 290;

struct World {
    env: Env,
    client: HostId,
    lus: LusHandle,
    accessor: ServiceAccessor,
}

fn world(seed: u64) -> World {
    let mut env = Env::with_seed(seed);
    let lab = env.add_host("lab", HostKind::Server);
    let client = env.add_host("client", HostKind::Workstation);
    let lus = LookupService::deploy(
        &mut env,
        lab,
        "LUS",
        "public",
        LeasePolicy {
            max_duration: LONG,
            default_duration: LONG,
        },
        SimDuration::from_millis(500),
    );
    World {
        env,
        client,
        lus,
        accessor: ServiceAccessor::new(vec![lus]),
    }
}

fn esp(w: &mut World, host: HostId, name: &str, value: f64) -> EspHandle {
    let probe = Box::new(ScriptedProbe::new(vec![value], Unit::Celsius));
    let config = EspConfig {
        lease: LONG,
        ..EspConfig::new(host, name, probe, w.lus)
    };
    deploy_esp(&mut w.env, config)
}

/// A composite `Hub` on the lab server over `children` (one mote each,
/// `S0`, `S1`, …) and the motes.
fn hub(w: &mut World, children: usize) -> (CspHandle, Vec<HostId>) {
    let mut motes = Vec::new();
    let mut names = Vec::new();
    for i in 0..children {
        let mote = w.env.add_host(format!("m{i}"), HostKind::SensorMote);
        esp(w, mote, &format!("S{i}"), 20.0 + i as f64);
        motes.push(mote);
        names.push(format!("S{i}"));
    }
    let lab = w.lus.host;
    let mut config = CspConfig::new(lab, "Hub", w.lus);
    config.lease = LONG;
    config.children = names;
    (deploy_csp(&mut w.env, config).expect("Hub deploys"), motes)
}

/// What one requestor read of `name` did.
#[derive(Debug, PartialEq)]
struct Read {
    value: Result<f64, String>,
    took: SimDuration,
    wire: u64,
    /// Wire bytes of retransmitted packets (mote links lose 1 %).
    resent: u64,
    /// Wire bytes that are neither payload, a data packet's headers nor a
    /// retransmission: connection setup.
    setup: u64,
    calls: u64,
}

fn read(w: &mut World, name: &str) -> Read {
    let counters = |env: &Env| {
        [
            metric_keys::BYTES_WIRE,
            metric_keys::BYTES_PAYLOAD,
            metric_keys::PACKETS,
            metric_keys::RETRANSMITS,
            metric_keys::CALLS_OK,
            metric_keys::CALLS_FAILED,
        ]
        .map(|key| env.metrics.get(key))
    };
    let (before, t0) = (counters(&w.env), w.env.now());
    let value = client::get_value(&mut w.env, w.client, &w.accessor, name).map(|r| r.value);
    let after = counters(&w.env);
    let d: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let headers = ProtocolStack::Tcp.header_bytes() as u64;
    // A retransmission puts the headers and 64 B on the wire again.
    let resent = (headers + 64) * d[3];
    Read {
        value,
        took: w.env.now() - t0,
        wire: d[0],
        resent,
        setup: d[0] - d[1] - headers * d[2] - resent,
        calls: d[4] + d[5],
    }
}

#[test]
fn a_warmed_composite_read_pays_no_setup() {
    let mut w = world(11);
    hub(&mut w, CHILDREN);
    let reads = [
        read(&mut w, "Hub"),
        read(&mut w, "Hub"),
        read(&mut w, "Hub"),
    ];
    // Cold, every connection opens once: the requestor's to the registry
    // and to the composite, the composite's to the registry and to each
    // child; 16 more lookups ride the composite's registry connection.
    let cold = &reads[0];
    assert_eq!(cold.calls, 2 * CHILDREN as u64 + 2);
    assert_eq!(cold.setup, (CHILDREN as u64 + 3) * SETUP, "{cold:?}");
    // Warm: 16 child hops, the requestor hop and its lookup, none opening.
    let hops = CHILDREN as u64 + 2;
    for warm in &reads[1..] {
        assert_eq!((warm.calls, warm.setup), (hops, 0), "{warm:?}");
    }
    assert_eq!(
        reads[1].wire - reads[1].resent,
        reads[2].wire - reads[2].resent
    );
    // The same reads when every exchange opened a connection of its own
    // (answer, time taken, wire bytes): the answers and the clock are
    // unchanged; a warm read ships 18 setups fewer.
    let one_shot = [
        (27.5, 30_110_717, 21_926),
        (27.5, 29_806_369, 12_954),
        (27.5, 37_335_321, 13_076),
    ];
    for (got, (value, took, wire)) in reads.iter().zip(one_shot) {
        assert_eq!(got.value, Ok(value));
        assert_eq!(got.took, SimDuration::from_nanos(took));
        assert_eq!(got.wire + got.calls * SETUP - got.setup, wire);
    }
    for (warm, (_, _, wire)) in reads[1..].iter().zip(&one_shot[1..]) {
        assert_eq!(wire - warm.wire, hops * SETUP);
    }
}

/// A sensor that answers `value` and, once `trip` holds a host, crashes
/// that host while it serves: a sibling later in the same fan-out finds
/// its mote down.
struct Tripwire {
    trip: Rc<Cell<Option<HostId>>>,
}

impl Servicer for Tripwire {
    fn provider_name(&self) -> &str {
        "S0"
    }

    fn service(&mut self, env: &mut Env, exertion: &mut Exertion) {
        let Exertion::Task(task) = exertion else {
            return;
        };
        task.context
            .put(paths::SENSOR_VALUE, 20.0)
            .put(paths::SENSOR_UNIT, Value::literal("°C"))
            .put(paths::SENSOR_QUALITY, Value::literal("good"));
        task.status = ExertionStatus::Done;
        if let Some(host) = self.trip.take() {
            env.crash_host(host);
        }
    }
}

#[test]
fn a_child_that_failed_mid_read_opens_again_after_its_restart() {
    let mut w = world(12);
    let lab = w.lus.host;
    let trip = Rc::new(Cell::new(None));
    let svc = w.env.deploy(
        lab,
        "S0",
        ServicerBox::new(Tripwire {
            trip: Rc::clone(&trip),
        }),
    );
    let item = ServiceItem::new(
        SvcUuid::NIL,
        lab,
        svc,
        vec![interfaces::SENSOR_DATA_ACCESSOR.into()],
        vec![Entry::Name("S0".into())],
    );
    w.lus
        .register(&mut w.env, lab, item, None)
        .expect("S0 registers");
    let mote = w.env.add_host("m1", HostKind::SensorMote);
    esp(&mut w, mote, "S1", 22.0);
    let mut config = CspConfig::new(lab, "Hub", w.lus);
    config.lease = LONG;
    config.children = vec!["S0".into(), "S1".into()];
    deploy_csp(&mut w.env, config).expect("Hub deploys");

    read(&mut w, "Hub");
    assert_eq!(read(&mut w, "Hub").setup, 0, "warm");
    trip.set(Some(mote));
    let tripped = read(&mut w, "Hub");
    assert!(tripped.value.is_err(), "strict: {tripped:?}");
    w.env.restart_host(mote);
    let back = read(&mut w, "Hub");
    assert_eq!(back.value, Ok(21.0));
    assert_eq!(back.setup, SETUP, "only S1's hop opens again: {back:?}");
    assert_eq!(read(&mut w, "Hub").setup, 0);
}

#[test]
fn a_composite_without_its_binding_cache_pays_every_hop() {
    let mut w = world(13);
    let (hub, _) = hub(&mut w, CHILDREN);
    w.env
        .with_service(hub.service, |_e, sb: &mut ServicerBox| {
            sb.downcast_mut::<CompositeSensorProvider>()
                .expect("a composite")
                .binding_cache_enabled = false;
        })
        .expect("Hub is deployed");
    read(&mut w, "Hub");
    for _ in 0..2 {
        let steady = read(&mut w, "Hub");
        // Each child costs a lookup, riding the composite's registry
        // connection, and a one-shot hop.
        assert_eq!(steady.calls, 2 * CHILDREN as u64 + 2);
        assert_eq!(steady.setup, CHILDREN as u64 * SETUP, "{steady:?}");
    }
}

#[test]
fn a_read_that_binds_a_dead_instance_reads_its_replacement() {
    let mut w = world(15);
    let (dead_mote, live_mote) = (
        w.env.add_host("m0", HostKind::SensorMote),
        w.env.add_host("m1", HostKind::SensorMote),
    );
    let dead = esp(&mut w, dead_mote, "X", 11.0);
    w.env.crash_host(dead_mote);
    esp(&mut w, live_mote, "X", 22.0);
    let iface = interfaces::SENSOR_DATA_ACCESSOR;
    let first = w.accessor.bind(&mut w.env, w.client, iface, Some("X"));
    assert_eq!(
        first.map(|item| item.service),
        Some(dead.service),
        "the dead instance's lingering registration is matched first"
    );
    let got = read(&mut w, "X");
    assert_eq!(got.value, Ok(22.0));
    let timeout = w.env.config.call_timeout;
    assert!(
        got.took < timeout + timeout / 4,
        "one call timeout, then the replacement: {got:?}"
    );
}

#[test]
fn a_requestor_passes_over_the_instance_it_found_dead() {
    let mut w = world(1);
    let (first, second) = (
        w.env.add_host("m0", HostKind::SensorMote),
        w.env.add_host("m1", HostKind::SensorMote),
    );
    let dead = esp(&mut w, first, "X", 11.0);
    assert_eq!(read(&mut w, "X").value, Ok(11.0));
    w.env.crash_host(first);
    let failed = read(&mut w, "X");
    assert!(failed.value.is_err(), "{failed:?}");
    esp(&mut w, second, "X", 22.0);
    let iface = interfaces::SENSOR_DATA_ACCESSOR;
    let listed = w.accessor.bind(&mut w.env, w.client, iface, Some("X"));
    assert_eq!(
        listed.map(|item| item.service),
        Some(dead.service),
        "the dead instance's lingering registration is matched first"
    );
    let timeout = w.env.config.call_timeout;
    for poll in 0..3 {
        let got = read(&mut w, "X");
        assert_eq!(got.value, Ok(22.0), "poll {poll}");
        assert!(
            got.took < timeout,
            "poll {poll} waited on the dead instance: {got:?}"
        );
    }
}

#[test]
fn a_dead_instance_that_is_the_only_match_is_read_again() {
    let mut w = world(17);
    let mote = w.env.add_host("m0", HostKind::SensorMote);
    esp(&mut w, mote, "X", 11.0);
    w.env.crash_host(mote);
    assert!(read(&mut w, "X").value.is_err());
    w.env.restart_host(mote);
    let got = read(&mut w, "X");
    assert_eq!(got.value, Ok(11.0), "{got:?}");
    assert_eq!(got.calls, 2, "one lookup, one hop: {got:?}");
}
