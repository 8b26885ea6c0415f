//! Golden for background sampling: 64 motes sample every 5 s for well
//! over two wraps of their 256-slot rings, while reads interleave with
//! the sampling ticks, one ESP is undeployed and another has its probe
//! swapped mid-run. Every mote's `getHistory(256)` (values and times), a
//! final `getValue`, the clock and the pending timer count are folded
//! into one FNV-1a fingerprint, pinned to what the per-service layout
//! computed before the probes and rings moved into one bank per world:
//! a change to where a mote keeps its state must not change one bit of
//! what it answers, nor when its timers fire. (Re-pinned once since, for
//! one timer fewer: the lookup service's own entry no longer has a renew
//! timer.)

use sensorcer_suite::core::prelude::*;
use sensorcer_suite::exertion::prelude::*;
use sensorcer_suite::expr::Value;
use sensorcer_suite::registry::ids::interfaces;
use sensorcer_suite::registry::lease::LeasePolicy;
use sensorcer_suite::registry::lus::LookupService;
use sensorcer_suite::sensors::prelude::*;
use sensorcer_suite::sim::prelude::*;

const MOTES: usize = 64;
const PERIOD: SimDuration = SimDuration::from_secs(5);
const LEASE: SimDuration = SimDuration::from_secs(100_000);

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Call `selector` on `service` directly, bypassing lookup; `None` once
/// the service is gone.
fn ask(
    env: &mut Env,
    from: HostId,
    service: ServiceId,
    selector: &str,
    ctx: Context,
) -> Option<Exertion> {
    let task = Task::new(
        selector,
        Signature::new(interfaces::SENSOR_DATA_ACCESSOR, selector),
        ctx,
    );
    exert_on(env, from, service, task.into(), None).ok()
}

fn floats(ctx: &Context, path: &str) -> Vec<f64> {
    match ctx.get(path) {
        Some(Value::List(xs)) => xs.iter().filter_map(Value::as_f64).collect(),
        _ => Vec::new(),
    }
}

fn fingerprint(seed: u64) -> u64 {
    let mut env = Env::with_seed(seed);
    let lab = env.add_host("lab", HostKind::Server);
    let client = env.add_host("client", HostKind::Workstation);
    env.topo.join_group(client, "public");
    let policy = LeasePolicy {
        max_duration: LEASE,
        default_duration: LEASE,
    };
    let lus = LookupService::deploy(
        &mut env,
        lab,
        "LUS",
        "public",
        policy,
        SimDuration::from_secs(1),
    );
    let motes: Vec<EspHandle> = (0..MOTES)
        .map(|i| {
            let host = env.add_host(format!("mote-{i}"), HostKind::SensorMote);
            let rng = env.fork_rng();
            let serial = format!("SN-{i:02}");
            let probe: Box<dyn SensorProbe> = match i % 4 {
                3 => Box::new(humidity(&serial, rng)),
                _ => Box::new(sunspot_temperature(&serial, rng)),
            };
            deploy_esp(
                &mut env,
                EspConfig {
                    lease: LEASE,
                    sample_every: (i % 16 != 15).then_some(PERIOD),
                    ..EspConfig::new(host, format!("M{i:02}"), probe, lus)
                },
            )
        })
        .collect();

    // One read per 7 s step, so reads and ticks interleave.
    let step = SimDuration::from_millis(7_000);
    for k in 0..430u64 {
        env.run_for(step);
        let mote = motes[(k as usize * 7) % MOTES];
        let _ = ask(
            &mut env,
            client,
            mote.service,
            selectors::GET_VALUE,
            Context::new(),
        );
        match k {
            150 => {
                assert!(env.undeploy(motes[5].service));
            }
            200 => env
                .with_service(motes[9].service, |_, sb: &mut ServicerBox| {
                    let esp = sb
                        .downcast_mut::<ElementarySensorProvider>()
                        .expect("an ESP");
                    esp.swap_probe(Box::new(humidity("SN-swap", SimRng::new(99))));
                })
                .expect("deployed"),
            _ => {}
        }
    }
    assert!(
        env.now().as_secs_f64() > 2.0 * 256.0 * 5.0,
        "two ring wraps"
    );

    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut full = 0;
    for mote in &motes {
        let hist = ask(
            &mut env,
            client,
            mote.service,
            selectors::GET_HISTORY,
            Context::new().with("arg/count", 256i64),
        );
        match hist {
            Some(hist) if hist.status().is_done() => {
                let values = floats(hist.context(), "history/values");
                let times = floats(hist.context(), "history/times");
                h.word(values.len() as u64);
                full += usize::from(values.len() == 256);
                for (v, t) in values.iter().zip(&times) {
                    h.word(v.to_bits());
                    h.word(t.to_bits());
                }
            }
            _ => h.word(u64::MAX),
        }
        let read = ask(
            &mut env,
            client,
            mote.service,
            selectors::GET_VALUE,
            Context::new(),
        );
        match read.filter(|r| r.status().is_done()) {
            Some(read) => {
                let r = SensorReading::from_context(read.context()).expect("a reading");
                h.word(r.value.to_bits());
                h.word(r.at_ns);
                h.word(u64::from(r.good));
            }
            None => h.word(u64::MAX),
        }
    }
    assert_eq!(full, MOTES - 4 - 1, "every sampled, deployed ring is full");
    h.word(env.now().as_nanos());
    h.word(env.pending_timers() as u64);
    h.0
}

#[test]
fn banked_sampling_answers_match_the_golden() {
    assert_eq!(format!("{:016x}", fingerprint(42)), "f47ecfb46f2dd774");
    assert_eq!(format!("{:016x}", fingerprint(7)), "d486f7280f1696ac");
}
