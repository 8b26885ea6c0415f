//! The Elementary Sensor Provider — "the basic building block of this
//! framework" (§V.B).
//!
//! An ESP wraps one technology-specific [`SensorProbe`] (the only
//! sensor-dependent component), keeps a local [`RingStore`] of recent
//! measurements, and exports readings through the `SensorDataAccessor`
//! interface — reachable, like every operation in EOA, only through
//! exertions. On startup it "registers itself with the Jini service
//! registry" under a lease kept alive by the lease-renewal service.
//!
//! The probe and the ring are not held by the provider but by its world's
//! one `MoteBank`, at the provider's slot, and a background sampling tick
//! is a member of the bank's one timer group. A tick goes from the timer
//! lane to its mote's page and its ring and nowhere else: a simulated
//! probe sits in the page by value, and whether the provider is still
//! deployed is a flag beside it.

use std::any::Any;
use std::cell::{Ref, RefCell, RefMut};
use std::ops::{Index, IndexMut};
use std::rc::Rc;
use std::sync::Arc;

use sensorcer_exertion::prelude::*;
use sensorcer_expr::Value;
use sensorcer_registry::attributes::Entry;
use sensorcer_registry::ids::{interfaces, SvcUuid};
use sensorcer_registry::item::ServiceItem;
use sensorcer_registry::lus::LusHandle;
use sensorcer_registry::renewal::{join, RenewalHandle};
use sensorcer_sensors::prelude::*;
use sensorcer_sim::env::{Env, ServiceId, TimerGroup};
use sensorcer_sim::metrics::Key;
use sensorcer_sim::time::{SimDuration, SimTime};
use sensorcer_sim::topology::HostId;

use crate::accessor::{selectors, SensorInfo};

/// Per-host gauge keys written by sensor providers; read back by the
/// facade's `network_health` snapshot.
pub mod gauges {
    /// Sim-time (ns) of the last successfully served `getValue`.
    pub const LAST_READ_NS: &str = "sensor.read.last_ns";
    /// Battery level [0, 1] observed at the last served read.
    pub const BATTERY: &str = "sensor.battery.level";
}

/// Measurements an ESP keeps: the most `getHistory` can serve. The ring
/// is held in full from construction, 17 B a record, so it is 4 352 B of
/// what every mote costs whether it samples or not.
const HISTORY_CAPACITY: usize = 256;

/// Where a served read stamps the per-host [`gauges`].
struct HealthGauges {
    host: HostId,
    last_read: Key,
    battery: Key,
}

/// A mote's probe: a [`SimulatedProbe`] by value, so that sampling it
/// reads the mote's page; any other technology behind its box.
#[expect(
    clippy::large_enum_variant,
    reason = "inline on purpose: a tick reads the probe from its mote's page; the footprint \
              is pinned by a_mote_and_its_page_keep_their_size"
)]
enum Probe {
    Simulated(SimulatedProbe),
    Boxed(Box<dyn SensorProbe>),
}

impl Probe {
    /// Unbox `probe` if it is a [`SimulatedProbe`].
    fn new(probe: Box<dyn SensorProbe>) -> Probe {
        if !(&*probe as &dyn Any).is::<SimulatedProbe>() {
            return Probe::Boxed(probe);
        }
        match (probe as Box<dyn Any>).downcast::<SimulatedProbe>() {
            Ok(simulated) => Probe::Simulated(*simulated),
            Err(_) => unreachable!("a SimulatedProbe, checked above"),
        }
    }

    fn sample(&mut self, now: SimTime) -> Result<Measurement, ProbeError> {
        match self {
            Probe::Simulated(probe) => probe.sample(now),
            Probe::Boxed(probe) => probe.sample(now),
        }
    }

    fn as_dyn(&mut self) -> &mut dyn SensorProbe {
        match self {
            Probe::Simulated(probe) => probe,
            Probe::Boxed(probe) => &mut **probe,
        }
    }
}

/// What one mote keeps: its probe, its local store, and whether the
/// provider that answers for it is still deployed.
struct Mote {
    probe: Probe,
    ring: RingStore,
    deployed: bool,
}

impl Mote {
    fn sample(&mut self, now: SimTime) -> Result<Measurement, ProbeError> {
        let m = self.probe.sample(now)?;
        self.ring.push(m);
        Ok(m)
    }
}

/// Motes per page of a [`MoteBank`].
const PAGE: usize = 64;

/// Every ESP's mote in one world, by slot in deploy order — which is
/// roughly the order their sampling ticks fire in, so a sampling pass
/// streams through the bank instead of reaching each provider through its
/// service slot and boxes. The motes sit in pages of [`PAGE`], each
/// allocated whole when its first mote arrives: the bank never moves a
/// mote and never holds more than one page's slack. Found through
/// [`Env::shared`]; every sampling tick is a member of its one timer group.
#[derive(Default)]
struct MoteBank {
    pages: Vec<Vec<Mote>>,
    /// The sampling callback, registered with the first ESP that samples
    /// in the background.
    sampling: Option<TimerGroup>,
}

impl Index<usize> for MoteBank {
    type Output = Mote;

    fn index(&self, slot: usize) -> &Mote {
        &self.pages[slot / PAGE][slot % PAGE]
    }
}

impl IndexMut<usize> for MoteBank {
    fn index_mut(&mut self, slot: usize) -> &mut Mote {
        &mut self.pages[slot / PAGE][slot % PAGE]
    }
}

impl MoteBank {
    /// Add `mote` and return its slot.
    fn push(&mut self, mote: Mote) -> usize {
        if self.pages.last().is_none_or(|page| page.len() == PAGE) {
            self.pages.push(Vec::with_capacity(PAGE));
        }
        let last = self.pages.len() - 1;
        self.pages[last].push(mote);
        last * PAGE + self.pages[last].len() - 1
    }

    /// The sampling group of `bank`, registered on first use.
    fn sampling(bank: &Rc<RefCell<MoteBank>>, env: &mut Env) -> TimerGroup {
        let registered = bank.borrow().sampling;
        registered.unwrap_or_else(|| {
            let shared = Rc::clone(bank);
            let group = env.timer_group(move |env, slot| shared.borrow_mut().tick(env.now(), slot));
            bank.borrow_mut().sampling = Some(group);
            group
        })
    }

    /// One sampling tick of `slot`: sample into its ring, and keep ticking
    /// while its provider is deployed.
    fn tick(&mut self, now: SimTime, slot: u32) -> bool {
        let mote = &mut self[slot as usize];
        if mote.deployed {
            let _ = mote.sample(now);
        }
        mote.deployed
    }
}

/// The provider state. Its probe and ring live in the world's mote bank,
/// at `slot`.
pub struct ElementarySensorProvider {
    name: String,
    exerted_by: Arc<str>,
    /// Filled once the registration is granted; formatted only by
    /// `getInfo`.
    uuid: Option<SvcUuid>,
    /// The host this provider was deployed on and its gauge keys.
    health: HealthGauges,
    bank: Rc<RefCell<MoteBank>>,
    slot: usize,
    reads_total: u64,
}

impl ElementarySensorProvider {
    fn mote(&self) -> RefMut<'_, Mote> {
        RefMut::map(self.bank.borrow_mut(), |bank| &mut bank[self.slot])
    }

    /// The local store, borrowed from the world's mote bank.
    pub fn store(&self) -> Ref<'_, RingStore> {
        Ref::map(self.bank.borrow(), |bank| &bank[self.slot].ring)
    }

    pub fn reads_total(&self) -> u64 {
        self.reads_total
    }

    /// Replace the probe behind a live provider — the software side of a
    /// field technician swapping the physical sensor. The local store and
    /// registration are untouched, exactly as §VII promises: "one can
    /// easily change the existing implementation and technologies of the
    /// sensors used".
    pub fn swap_probe(&mut self, probe: Box<dyn SensorProbe>) {
        self.mote().probe = Probe::new(probe);
    }

    /// Take one sample now and record it (what a sampling tick and
    /// `getValue` do).
    pub fn sample_now(&mut self, env: &mut Env) -> Result<Measurement, ProbeError> {
        self.mote().sample(env.now())
    }

    fn handle_get_value(&mut self, env: &mut Env, task: &mut Task) {
        self.reads_total += 1;
        let mut mote = self.mote();
        match mote.sample(env.now()) {
            Ok(m) => {
                write_measurement(&mut task.context, &m);
                // Transmitting the reply costs the mote energy.
                mote.probe.as_dyn().charge_tx(task.context.wire_size());
                task.status = ExertionStatus::Done;
            }
            Err(ProbeError::Dropout) | Err(ProbeError::TooFast) => {
                // Serve the freshest stored measurement, flagged suspect —
                // this is exactly why §III.B wants a local store.
                match mote.ring.latest() {
                    Some(m) => {
                        let stale = Measurement {
                            quality: Quality::Suspect,
                            ..m
                        };
                        write_measurement(&mut task.context, &stale);
                        task.status = ExertionStatus::Done;
                    }
                    None => task.fail("probe dropout and no stored measurement"),
                }
            }
            Err(ProbeError::BatteryDead) => task.fail("sensor battery exhausted"),
        }
        if matches!(task.status, ExertionStatus::Done) {
            let h = &self.health;
            let now_ns = env.now().as_nanos() as f64;
            env.metrics.set_host_gauge_key(h.host, h.last_read, now_ns);
            env.metrics
                .set_host_gauge_key(h.host, h.battery, mote.probe.as_dyn().battery_level());
        }
    }

    fn handle_get_history(&mut self, task: &mut Task) {
        let count = task.context.get_f64("arg/count").unwrap_or(16.0).max(0.0) as usize;
        let store = self.store();
        let recent = || store.iter_recent(count);
        let values = recent().map(|m| Value::Float(m.value));
        let times = recent().map(|m| Value::Int(m.at.as_nanos() as i64));
        task.context
            .put("history/values", Value::List(values.collect()))
            .put("history/times", Value::List(times.collect()));
        task.status = ExertionStatus::Done;
    }

    fn handle_get_info(&mut self, task: &mut Task) {
        let mut mote = self.mote();
        let probe = mote.probe.as_dyn();
        let info = SensorInfo {
            name: self.name.clone(),
            service_type: "ELEMENTARY".into(),
            uuid: self.uuid.map(|u| u.to_string()).unwrap_or_default(),
            contained: Vec::new(),
            expression: None,
            unit: probe.teds().unit.symbol().to_string(),
            battery: probe.battery_level(),
        };
        info.write_to(&mut task.context);
        task.status = ExertionStatus::Done;
    }
}

/// Write a measurement into the standard context paths.
pub fn write_measurement(ctx: &mut Context, m: &Measurement) {
    ctx.put(paths::SENSOR_VALUE, m.value);
    ctx.put(paths::RESULT, m.value);
    ctx.put(paths::SENSOR_UNIT, Value::literal(m.unit.symbol()));
    ctx.put(paths::SENSOR_AT, m.at.as_nanos() as f64);
    ctx.put(
        paths::SENSOR_QUALITY,
        Value::literal(if m.is_good() { "good" } else { "suspect" }),
    );
}

impl Servicer for ElementarySensorProvider {
    fn provider_name(&self) -> &str {
        &self.name
    }

    fn service(&mut self, env: &mut Env, exertion: &mut Exertion) {
        let Exertion::Task(task) = exertion else {
            if let Exertion::Job(job) = exertion {
                job.status = ExertionStatus::Failed(format!(
                    "elementary provider '{}' cannot coordinate jobs",
                    self.name
                ));
            }
            return;
        };
        if &*task.signature.interface != interfaces::SENSOR_DATA_ACCESSOR {
            task.fail(format!(
                "'{}' implements {}, not {}",
                self.name,
                interfaces::SENSOR_DATA_ACCESSOR,
                task.signature.interface
            ));
            return;
        }
        task.trace.push(Arc::clone(&self.exerted_by));
        match &*task.signature.selector {
            selectors::GET_VALUE => self.handle_get_value(env, task),
            selectors::GET_HISTORY => self.handle_get_history(task),
            selectors::GET_INFO => self.handle_get_info(task),
            other => task.fail(format!("'{}' has no operation '{other}'", self.name)),
        }
    }
}

/// Clears the mote's `deployed` flag, so its next tick samples nothing and
/// ends its timer.
///
/// This runs at [`Env::undeploy`]: the service table holds the only `Rc`
/// to a provider but for a call in progress on it, which holds a clone
/// until it returns, and this provider's handlers never run the clock, so
/// no tick falls between the undeploy and the drop.
///
/// It never runs while the bank is borrowed. The bank is borrowed by a
/// tick, which only samples a probe into a ring; by `deploy_esp`'s push;
/// and by this provider's handlers, while a call still holds the provider.
/// None of them undeploys a service or drops a provider. (A drop must not
/// panic all the same, so it tries the borrow rather than insisting.)
impl Drop for ElementarySensorProvider {
    fn drop(&mut self) {
        if let Ok(mut bank) = self.bank.try_borrow_mut() {
            bank[self.slot].deployed = false;
        }
    }
}

impl std::fmt::Debug for ElementarySensorProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElementarySensorProvider")
            .field("name", &self.name)
            .field("stored", &self.store().len())
            .field("reads_total", &self.reads_total)
            .finish()
    }
}

/// Everything needed to stand an ESP up on the network.
pub struct EspConfig {
    pub host: HostId,
    pub name: String,
    pub probe: Box<dyn SensorProbe>,
    /// Lookup service to register with.
    pub lus: LusHandle,
    /// Renewal service keeping the registration alive; `None` leaves
    /// renewal to the test (the lease will lapse).
    pub renewal: Option<RenewalHandle>,
    pub lease: SimDuration,
    /// Background sampling period for the local store; `None` samples only
    /// on demand.
    pub sample_every: Option<SimDuration>,
    /// Location attribute for the registration (building, floor, room).
    pub location: Option<(String, String, String)>,
    /// Equivalence group: providers sharing a group are interchangeable —
    /// a composite whose named child is gone may fall back to any of them
    /// (§V.A). Registered as a `Custom { key: "equivalence-group" }` entry.
    pub equivalence_group: Option<String>,
}

impl EspConfig {
    pub fn new(
        host: HostId,
        name: impl Into<String>,
        probe: Box<dyn SensorProbe>,
        lus: LusHandle,
    ) -> EspConfig {
        EspConfig {
            host,
            name: name.into(),
            probe,
            lus,
            renewal: None,
            lease: SimDuration::from_secs(30),
            sample_every: None,
            location: None,
            equivalence_group: None,
        }
    }
}

/// Handle to a deployed ESP.
#[derive(Clone, Copy, Debug)]
pub struct EspHandle {
    pub service: ServiceId,
    pub host: HostId,
}

/// Deploy an ESP: create the provider, register it with the LUS
/// (interfaces `SensorDataAccessor` + `Servicer`, type `ELEMENTARY`),
/// arrange lease renewal, and start background sampling if configured.
pub fn deploy_esp(env: &mut Env, config: EspConfig) -> EspHandle {
    let bank = env.shared(MoteBank::default);
    let slot = bank.borrow_mut().push(Mote {
        probe: Probe::new(config.probe),
        ring: RingStore::new(HISTORY_CAPACITY),
        deployed: true,
    });
    let esp = ElementarySensorProvider {
        exerted_by: exerted_by(&config.name),
        name: config.name.clone(),
        uuid: None,
        health: HealthGauges {
            host: config.host,
            last_read: env.metrics.key(gauges::LAST_READ_NS),
            battery: env.metrics.key(gauges::BATTERY),
        },
        bank: Rc::clone(&bank),
        slot,
        reads_total: 0,
    };
    let service = env.deploy(config.host, config.name.clone(), ServicerBox::new(esp));

    let mut item = ServiceItem::provider(
        config.host,
        service,
        &[interfaces::SENSOR_DATA_ACCESSOR, interfaces::SERVICER],
        &config.name,
        "ELEMENTARY",
    );
    if let Some((building, floor, room)) = config.location {
        item.attributes.push(Entry::Location {
            building,
            floor,
            room,
        });
    }
    if let Some(group) = config.equivalence_group {
        item.attributes.push(Entry::Custom {
            key: crate::csp::EQUIVALENCE_GROUP_KEY.to_string(),
            value: group,
        });
    }
    if let Ok(reg) = join(env, config.lus, item, Some(config.lease), config.renewal) {
        let _ = env.with_service(service, |_env, sb: &mut ServicerBox| {
            if let Some(esp) = sb.downcast_mut::<ElementarySensorProvider>() {
                esp.uuid = Some(reg.uuid);
            }
        });
    }

    if let Some(every) = config.sample_every {
        let group = MoteBank::sampling(&bank, env);
        env.schedule_member(group, slot as u32, every, every);
    }

    EspHandle {
        service,
        host: config.host,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accessor::{client, SensorReading};
    use sensorcer_registry::lease::LeasePolicy;
    use sensorcer_registry::lus::LookupService;
    use sensorcer_sim::prelude::*;

    struct World {
        env: Env,
        client: HostId,
        mote: HostId,
        lus: LusHandle,
        accessor: ServiceAccessor,
    }

    fn setup() -> World {
        let mut env = Env::with_seed(1);
        let lab = env.add_host("lab", HostKind::Server);
        let client = env.add_host("client", HostKind::Workstation);
        let mote = env.add_host("mote", HostKind::SensorMote);
        let lus = LookupService::deploy(
            &mut env,
            lab,
            "LUS",
            "public",
            LeasePolicy::default(),
            SimDuration::from_millis(500),
        );
        let accessor = ServiceAccessor::new(vec![lus]);
        World {
            env,
            client,
            mote,
            lus,
            accessor,
        }
    }

    fn scripted(values: Vec<f64>) -> Box<dyn SensorProbe> {
        Box::new(ScriptedProbe::new(values, Unit::Celsius))
    }

    #[test]
    fn deployed_esp_answers_get_value() {
        let mut w = setup();
        deploy_esp(
            &mut w.env,
            EspConfig::new(w.mote, "Neem-Sensor", scripted(vec![21.25]), w.lus),
        );
        let reading = client::get_value(&mut w.env, w.client, &w.accessor, "Neem-Sensor").unwrap();
        assert_eq!(
            reading,
            SensorReading {
                value: 21.25,
                unit: "°C".into(),
                at_ns: reading.at_ns,
                good: true
            }
        );
    }

    #[test]
    fn get_info_describes_the_sensor() {
        let mut w = setup();
        deploy_esp(
            &mut w.env,
            EspConfig {
                location: Some(("CP TTU".into(), "3".into(), "310".into())),
                ..EspConfig::new(w.mote, "Neem-Sensor", scripted(vec![20.0]), w.lus)
            },
        );
        let info = client::get_info(&mut w.env, w.client, &w.accessor, "Neem-Sensor").unwrap();
        assert_eq!(info.service_type, "ELEMENTARY");
        assert_eq!(info.unit, "°C");
        assert!(info.contained.is_empty());
        assert!(!info.uuid.is_empty(), "uuid filled from registration");
    }

    #[test]
    fn background_sampling_fills_history() {
        let mut w = setup();
        deploy_esp(
            &mut w.env,
            EspConfig {
                sample_every: Some(SimDuration::from_secs(1)),
                ..EspConfig::new(w.mote, "Neem-Sensor", scripted(vec![1.0, 2.0, 3.0]), w.lus)
            },
        );
        w.env.run_for(SimDuration::from_secs(5));
        let hist =
            client::get_history(&mut w.env, w.client, &w.accessor, "Neem-Sensor", 3).unwrap();
        assert_eq!(hist.len(), 3);
        assert_eq!(
            hist,
            vec![3.0, 1.0, 2.0],
            "cycling script, last 3 of 5 samples"
        );
    }

    #[test]
    fn history_is_the_last_256_oldest_first_once_the_ring_has_wrapped() {
        let mut w = setup();
        let script: Vec<f64> = (0..300).map(f64::from).collect();
        deploy_esp(
            &mut w.env,
            EspConfig {
                sample_every: Some(SimDuration::from_millis(10)),
                ..EspConfig::new(w.mote, "Neem-Sensor", scripted(script.clone()), w.lus)
            },
        );
        w.env.run_for(SimDuration::from_secs(3)); // inside the 30 s lease
        for asked in [16, 256, 1_000] {
            let hist = client::get_history(&mut w.env, w.client, &w.accessor, "Neem-Sensor", asked)
                .unwrap();
            assert_eq!(hist, script[300 - asked.min(256)..], "asked for {asked}");
        }
    }

    #[test]
    fn stored_measurements_keep_their_unit_across_a_probe_swap() {
        let mut w = setup();
        let h = deploy_esp(
            &mut w.env,
            EspConfig::new(w.mote, "Swapped", scripted(vec![21.0]), w.lus),
        );
        w.env
            .with_service(h.service, |env, sb: &mut ServicerBox| {
                let esp = sb.downcast_mut::<ElementarySensorProvider>().unwrap();
                esp.sample_now(env).unwrap();
                esp.swap_probe(Box::new(ScriptedProbe::new(vec![40.0], Unit::Lux)));
                esp.sample_now(env).unwrap();
                let held: Vec<(f64, Unit)> = esp
                    .store()
                    .iter_recent(2)
                    .map(|m| (m.value, m.unit))
                    .collect();
                assert_eq!(held, [(21.0, Unit::Celsius), (40.0, Unit::Lux)]);
            })
            .unwrap();
    }

    #[test]
    fn unknown_selector_fails() {
        let mut w = setup();
        deploy_esp(
            &mut w.env,
            EspConfig::new(w.mote, "N", scripted(vec![1.0]), w.lus),
        );
        let task = Task::new(
            "bad",
            Signature::new(interfaces::SENSOR_DATA_ACCESSOR, "selfDestruct").on("N"),
            Context::new(),
        );
        let done = exert(&mut w.env, w.client, task.into(), &w.accessor);
        assert!(done.status().is_failed());
    }

    #[test]
    fn dropout_served_from_store_as_suspect() {
        let mut w = setup();
        let probe = SimulatedProbe::new(
            Teds::sunspot_temperature("d"),
            Signal::Constant(20.0),
            SimRng::new(9),
        )
        .with_faults(FaultInjector::new(FaultModel {
            dropout_prob: 0.0,
            ..Default::default()
        }));
        deploy_esp(
            &mut w.env,
            EspConfig::new(w.mote, "D", Box::new(probe), w.lus),
        );
        // First read fills the store.
        let r1 = client::get_value(&mut w.env, w.client, &w.accessor, "D").unwrap();
        assert!(r1.good);
        // Swap in total dropout.
        let svc = w.env.find_service("D").unwrap();
        w.env
            .with_service(svc, |_e, sb: &mut ServicerBox| {
                let esp = sb.downcast_mut::<ElementarySensorProvider>().unwrap();
                esp.swap_probe(Box::new(
                    SimulatedProbe::new(
                        Teds::sunspot_temperature("d"),
                        Signal::Constant(20.0),
                        SimRng::new(9),
                    )
                    .with_faults(FaultInjector::new(FaultModel {
                        dropout_prob: 1.0,
                        ..Default::default()
                    })),
                ));
            })
            .unwrap();
        let r2 = client::get_value(&mut w.env, w.client, &w.accessor, "D").unwrap();
        assert!(!r2.good, "stale store reading must be flagged suspect");
        assert_eq!((r2.value, r2.at_ns), (r1.value, r1.at_ns));
    }

    #[test]
    fn dead_battery_fails_reads() {
        let mut w = setup();
        let probe = SimulatedProbe::new(
            Teds::sunspot_temperature("b"),
            Signal::Constant(20.0),
            SimRng::new(3),
        )
        .with_battery(Battery::new(10.0, 50.0, 1.0)); // dies on first sample
        deploy_esp(
            &mut w.env,
            EspConfig::new(w.mote, "B", Box::new(probe), w.lus),
        );
        let err = client::get_value(&mut w.env, w.client, &w.accessor, "B").unwrap_err();
        assert!(err.contains("battery"), "{err}");
    }

    #[test]
    fn lease_without_renewal_lapses_and_binding_fails() {
        let mut w = setup();
        deploy_esp(
            &mut w.env,
            EspConfig {
                lease: SimDuration::from_secs(5),
                ..EspConfig::new(w.mote, "Ephemeral", scripted(vec![1.0]), w.lus)
            },
        );
        assert!(client::get_value(&mut w.env, w.client, &w.accessor, "Ephemeral").is_ok());
        w.env.run_for(SimDuration::from_secs(10));
        let err = client::get_value(&mut w.env, w.client, &w.accessor, "Ephemeral").unwrap_err();
        assert!(err.contains("no provider"), "{err}");
    }

    #[test]
    fn renewal_keeps_esp_bound() {
        let mut w = setup();
        let renewal_host = w
            .env
            .topo
            .group_members("public")
            .first()
            .copied()
            .unwrap_or(HostId(0));
        let renewal = sensorcer_registry::renewal::LeaseRenewalService::deploy(
            &mut w.env,
            renewal_host,
            "Lease Renewal Service",
        );
        deploy_esp(
            &mut w.env,
            EspConfig {
                lease: SimDuration::from_secs(5),
                renewal: Some(renewal),
                ..EspConfig::new(w.mote, "Durable", scripted(vec![1.0]), w.lus)
            },
        );
        w.env.run_for(SimDuration::from_secs(60));
        assert!(client::get_value(&mut w.env, w.client, &w.accessor, "Durable").is_ok());
    }

    /// Every mote sits in the bank, 20 000 of them in `mote_scale`: a
    /// byte added to a simulated probe is 20 000 bytes there.
    #[test]
    fn a_mote_and_its_page_keep_their_size() {
        assert_eq!(std::mem::size_of::<Mote>(), 472);
        assert_eq!(PAGE, 64);
    }

    #[test]
    fn esp_rejects_jobs() {
        let mut w = setup();
        let h = deploy_esp(
            &mut w.env,
            EspConfig::new(w.mote, "N", scripted(vec![1.0]), w.lus),
        );
        let job = Job::new("j", ControlStrategy::sequence());
        let done = exert_on(&mut w.env, w.client, h.service, job.into(), None).unwrap();
        assert!(done.status().is_failed());
    }
}
