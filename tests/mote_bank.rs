//! Both arms of a mote's probe, and the liveness of its sampling. The
//! mote bank holds a simulated probe by value and any other technology
//! behind its box, so a probe swapped from one arm to the other and back
//! must leave the ring holding exactly what each probe sampled, in order,
//! and every answer must come from the probe installed at the time. A
//! mote's sampling tick learns that its provider is gone from a flag the
//! provider's `Drop` clears, so an undeployed mote must stop sampling —
//! and give up its timer — at its next deadline.

use std::cell::Cell;
use std::rc::Rc;

use sensorcer_suite::core::prelude::*;
use sensorcer_suite::exertion::prelude::*;
use sensorcer_suite::expr::Value;
use sensorcer_suite::registry::ids::interfaces;
use sensorcer_suite::registry::lease::LeasePolicy;
use sensorcer_suite::registry::lus::{LookupService, LusHandle};
use sensorcer_suite::sensors::prelude::*;
use sensorcer_suite::sim::prelude::*;

const PERIOD: SimDuration = SimDuration::from_secs(5);
const LEASE: SimDuration = SimDuration::from_secs(100_000);

struct World {
    env: Env,
    client: HostId,
    lus: LusHandle,
}

fn world() -> World {
    let mut env = Env::with_seed(3);
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
    World { env, client, lus }
}

impl World {
    /// Deploy an ESP that samples every [`PERIOD`].
    fn deploy(&mut self, name: &str, probe: Box<dyn SensorProbe>) -> ServiceId {
        let host = self
            .env
            .add_host(format!("{name}-mote"), HostKind::SensorMote);
        let config = EspConfig {
            lease: LEASE,
            sample_every: Some(PERIOD),
            ..EspConfig::new(host, name, probe, self.lus)
        };
        deploy_esp(&mut self.env, config).service
    }

    /// Call `selector` on `service` directly, bypassing lookup.
    fn ask(&mut self, service: ServiceId, selector: &str, ctx: Context) -> Context {
        let task = Task::new(
            selector,
            Signature::new(interfaces::SENSOR_DATA_ACCESSOR, selector),
            ctx,
        );
        let done = exert_on(&mut self.env, self.client, service, task.into(), None)
            .expect("the service is deployed");
        assert!(done.status().is_done(), "{selector}: {:?}", done.status());
        done.context().clone()
    }

    fn get_value(&mut self, service: ServiceId) -> SensorReading {
        let ctx = self.ask(service, selectors::GET_VALUE, Context::new());
        SensorReading::from_context(&ctx).expect("a reading")
    }

    fn unit(&mut self, service: ServiceId) -> String {
        let ctx = self.ask(service, selectors::GET_INFO, Context::new());
        SensorInfo::from_context(&ctx).expect("an info").unit
    }

    /// Every held measurement as `(value, at_ns)`, oldest first.
    fn history(&mut self, service: ServiceId) -> Vec<(f64, u64)> {
        let ctx = self.ask(
            service,
            selectors::GET_HISTORY,
            Context::new().with("arg/count", 256i64),
        );
        let list = |path: &str| match ctx.get(path) {
            Some(Value::List(xs)) => xs.iter().filter_map(Value::as_f64).collect(),
            _ => Vec::new(),
        };
        let times: Vec<f64> = list("history/times");
        list("history/values")
            .into_iter()
            .zip(times.into_iter().map(|t| t as u64))
            .collect()
    }

    fn swap(&mut self, service: ServiceId, probe: Box<dyn SensorProbe>) {
        self.env
            .with_service(service, |_, sb: &mut ServicerBox| {
                let esp = sb
                    .downcast_mut::<ElementarySensorProvider>()
                    .expect("an ESP");
                esp.swap_probe(probe);
            })
            .expect("deployed");
    }
}

/// What `probe` samples at each of `instants`, in order.
fn replay(probe: &mut dyn SensorProbe, instants: &[u64]) -> Vec<(f64, u64)> {
    instants
        .iter()
        .map(|&at| {
            let m = probe.sample(SimTime(at)).expect("replayed sample");
            (m.value, at)
        })
        .collect()
}

#[test]
fn a_probe_swapped_between_arms_keeps_the_ring_and_answers_right() {
    let mut w = world();
    let temperature = || sunspot_temperature("SN-1", SimRng::new(11));
    let service = w.deploy("M", Box::new(temperature()));
    assert_eq!(w.unit(service), "°C");

    // Held by value: a simulated probe.
    w.env.run_for(SimDuration::from_secs(30));
    let first = w.get_value(service);
    let boxed_at = w.env.now().as_nanos();
    // Behind its box: any other technology.
    w.swap(
        service,
        Box::new(ScriptedProbe::new(vec![100.0, 101.0], Unit::Lux)),
    );
    assert_eq!(w.unit(service), "lx", "getInfo asks the boxed probe");
    w.env.run_for(SimDuration::from_secs(30));
    let second = w.get_value(service);
    let inline_at = w.env.now().as_nanos();
    // By value again, a new simulated probe.
    let humid = || humidity("SN-2", SimRng::new(12));
    w.swap(service, Box::new(humid()));
    assert_eq!(w.unit(service), "%RH");
    w.env.run_for(SimDuration::from_secs(30));
    let third = w.get_value(service);

    let held = w.history(service);
    let phase = |from: u64, to: u64| -> Vec<(f64, u64)> {
        held.iter()
            .copied()
            .filter(|&(_, at)| (from..to).contains(&at))
            .collect()
    };
    let (simulated, scripted, humidity) = (
        phase(0, boxed_at),
        phase(boxed_at, inline_at),
        phase(inline_at, u64::MAX),
    );
    assert_eq!(
        simulated.len() + scripted.len() + humidity.len(),
        held.len()
    );
    for part in [&simulated, &scripted, &humidity] {
        assert!(part.len() >= 6, "six ticks and a read per phase: {part:?}");
    }

    let instants = |part: &[(f64, u64)]| part.iter().map(|&(_, at)| at).collect::<Vec<_>>();
    assert_eq!(simulated, replay(&mut temperature(), &instants(&simulated)));
    let cycled: Vec<f64> = (0..scripted.len()).map(|k| [100.0, 101.0][k % 2]).collect();
    let values: Vec<f64> = scripted.iter().map(|&(v, _)| v).collect();
    assert_eq!(values, cycled, "the scripted probe, in the same ring");
    assert_eq!(humidity, replay(&mut humid(), &instants(&humidity)));

    // Each read answered from the probe installed then, and is the newest
    // measurement of its phase.
    for (read, part, unit) in [
        (&first, &simulated, "°C"),
        (&second, &scripted, "lx"),
        (&third, &humidity, "%RH"),
    ] {
        assert_eq!(read.unit, unit);
        assert_eq!(part.last(), Some(&(read.value, read.at_ns)));
    }
}

/// A scripted probe that counts its samples where the test can see them.
struct Counting {
    inner: ScriptedProbe,
    samples: Rc<Cell<u64>>,
    last_at: Rc<Cell<SimTime>>,
}

impl SensorProbe for Counting {
    fn sample(&mut self, now: SimTime) -> Result<Measurement, ProbeError> {
        self.samples.set(self.samples.get() + 1);
        self.last_at.set(now);
        self.inner.sample(now)
    }

    fn teds(&self) -> &Teds {
        self.inner.teds()
    }
}

#[test]
fn an_undeployed_mote_stops_sampling_at_its_next_deadline() {
    let mut w = world();
    let samples = Rc::new(Cell::new(0));
    let last_at = Rc::new(Cell::new(SimTime::ZERO));
    let before = w.deploy("A", Box::new(temperature(1)));
    let counted = w.deploy(
        "B",
        Box::new(Counting {
            inner: ScriptedProbe::new(vec![1.0], Unit::Celsius),
            samples: Rc::clone(&samples),
            last_at: Rc::clone(&last_at),
        }),
    );
    let after = w.deploy("C", Box::new(temperature(2)));
    w.env.run_for(SimDuration::from_secs(42));
    let held = [before, after].map(|s| w.history(s).len());

    let pending = w.env.pending_timers();
    let taken = samples.get();
    assert!(taken >= 8, "sampled every 5 s: {taken}");
    assert!(w.env.undeploy(counted));
    let deadline = last_at.get() + PERIOD;
    // The timer counts until its deadline...
    w.env.run_until(deadline - SimDuration::from_nanos(1));
    assert_eq!(w.env.pending_timers(), pending);
    // ...where the tick finds the provider gone, samples nothing and ends.
    w.env.run_until(deadline);
    assert_eq!(w.env.pending_timers(), pending - 1);
    w.env.run_for(SimDuration::from_secs(60));
    assert_eq!(samples.get(), taken, "no sample after the undeploy");
    assert_eq!(w.env.pending_timers(), pending - 1);

    // Its neighbours in the bank sample on, on either side of it.
    for (service, was) in [before, after].into_iter().zip(held) {
        assert!(w.history(service).len() >= was + 12);
    }
}

fn temperature(seed: u64) -> SimulatedProbe {
    sunspot_temperature(&format!("SN-{seed}"), SimRng::new(seed))
}
