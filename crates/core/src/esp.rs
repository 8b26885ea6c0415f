//! The Elementary Sensor Provider — "the basic building block of this
//! framework" (§V.B).
//!
//! An ESP wraps one technology-specific [`SensorProbe`] (the only
//! sensor-dependent component), keeps a local [`RingStore`] of recent
//! measurements, and exports readings through the `SensorDataAccessor`
//! interface — reachable, like every operation in EOA, only through
//! exertions. On startup it "registers itself with the Jini service
//! registry" under a lease kept alive by the lease-renewal service.

use std::sync::Arc;

use sensorcer_exertion::prelude::*;
use sensorcer_expr::Value;
use sensorcer_registry::attributes::Entry;
use sensorcer_registry::ids::{interfaces, SvcUuid};
use sensorcer_registry::item::ServiceItem;
use sensorcer_registry::lus::LusHandle;
use sensorcer_registry::renewal::RenewalHandle;
use sensorcer_registry::txn::TxnId;
use sensorcer_sensors::prelude::*;
use sensorcer_sim::env::{Env, ServiceId};
use sensorcer_sim::metrics::Key;
use sensorcer_sim::time::SimDuration;
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

/// Measurements an ESP keeps — the most `getHistory` can serve, and, as the
/// ring is held in full from construction, 17 B each of what a mote costs.
const HISTORY_CAPACITY: usize = 256;

/// Where a served read stamps the per-host [`gauges`].
struct HealthGauges {
    host: HostId,
    last_read: Key,
    battery: Key,
}

/// The provider state.
pub struct ElementarySensorProvider {
    name: String,
    exerted_by: Arc<str>,
    uuid: String,
    /// The host this provider was deployed on and its gauge keys, resolved
    /// once by [`deploy_esp`]; a provider never deployed stamps nothing.
    health: Option<HealthGauges>,
    /// Crate-visible so tests and fault-injection benches can swap the
    /// probe behind a live provider ("replace the sensor in the field").
    pub(crate) probe: Box<dyn SensorProbe>,
    store: RingStore,
    reads_total: u64,
}

impl ElementarySensorProvider {
    pub fn new(name: impl Into<String>, probe: Box<dyn SensorProbe>) -> Self {
        let name = name.into();
        ElementarySensorProvider {
            exerted_by: exerted_by(&name),
            name,
            uuid: String::new(),
            health: None,
            probe,
            store: RingStore::new(HISTORY_CAPACITY),
            reads_total: 0,
        }
    }

    pub fn store(&self) -> &RingStore {
        &self.store
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
        self.probe = probe;
    }

    /// Take one sample now and record it (used by the sampling timer and
    /// by `getValue`).
    pub fn sample_now(&mut self, env: &mut Env) -> Result<Measurement, ProbeError> {
        let m = self.probe.sample(env.now())?;
        self.store.push(m);
        Ok(m)
    }

    fn handle_get_value(&mut self, env: &mut Env, task: &mut Task) {
        self.reads_total += 1;
        match self.sample_now(env) {
            Ok(m) => {
                write_measurement(&mut task.context, &m);
                // Transmitting the reply costs the mote energy.
                self.probe.charge_tx(task.context.wire_size());
                task.status = ExertionStatus::Done;
            }
            Err(ProbeError::Dropout) | Err(ProbeError::TooFast) => {
                // Serve the freshest stored measurement, flagged suspect —
                // this is exactly why §III.B wants a local store.
                match self.store.latest() {
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
        if let (Some(h), true) = (&self.health, matches!(task.status, ExertionStatus::Done)) {
            let now_ns = env.now().as_nanos() as f64;
            env.metrics.set_host_gauge_key(h.host, h.last_read, now_ns);
            env.metrics
                .set_host_gauge_key(h.host, h.battery, self.probe.battery_level());
        }
    }

    fn handle_get_history(&mut self, task: &mut Task) {
        let count = task.context.get_f64("arg/count").unwrap_or(16.0).max(0.0) as usize;
        let recent = || self.store.iter_recent(count);
        let values = recent().map(|m| Value::Float(m.value));
        let times = recent().map(|m| Value::Int(m.at.as_nanos() as i64));
        task.context
            .put("history/values", Value::List(values.collect()))
            .put("history/times", Value::List(times.collect()));
        task.status = ExertionStatus::Done;
    }

    fn handle_get_info(&mut self, task: &mut Task) {
        let info = SensorInfo {
            name: self.name.clone(),
            service_type: "ELEMENTARY".into(),
            uuid: self.uuid.clone(),
            contained: Vec::new(),
            expression: None,
            unit: self.probe.teds().unit.symbol().to_string(),
            battery: self.probe.battery_level(),
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

    fn service(&mut self, env: &mut Env, exertion: &mut Exertion, _txn: Option<TxnId>) {
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

impl std::fmt::Debug for ElementarySensorProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ElementarySensorProvider")
            .field("name", &self.name)
            .field("stored", &self.store.len())
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
    let mut esp = ElementarySensorProvider::new(config.name.clone(), config.probe);
    esp.health = Some(HealthGauges {
        host: config.host,
        last_read: env.metrics.key(gauges::LAST_READ_NS),
        battery: env.metrics.key(gauges::BATTERY),
    });
    let service = env.deploy(config.host, config.name.clone(), ServicerBox::new(esp));

    let mut attributes = vec![
        Entry::Name(config.name.clone()),
        Entry::ServiceType("ELEMENTARY".into()),
    ];
    if let Some((building, floor, room)) = config.location {
        attributes.push(Entry::Location {
            building,
            floor,
            room,
        });
    }
    if let Some(group) = config.equivalence_group {
        attributes.push(Entry::Custom {
            key: crate::csp::EQUIVALENCE_GROUP_KEY.to_string(),
            value: group,
        });
    }
    let item = ServiceItem::new(
        SvcUuid::NIL,
        config.host,
        service,
        vec![
            interfaces::SENSOR_DATA_ACCESSOR.into(),
            interfaces::SERVICER.into(),
        ],
        attributes,
    );
    let registration = config
        .lus
        .register(env, config.host, item, Some(config.lease));
    if let Ok(reg) = registration {
        let _ = env.with_service(service, |_env, sb: &mut ServicerBox| {
            if let Some(esp) = sb.downcast_mut::<ElementarySensorProvider>() {
                esp.uuid = reg.uuid.to_string();
            }
        });
        if let Some(renewal) = config.renewal {
            renewal.manage(env, config.host, config.lus, reg.lease, config.lease);
        }
    }

    if let Some(every) = config.sample_every {
        env.schedule_every(every, every, move |env| {
            env.with_service(service, |env, sb: &mut ServicerBox| {
                if let Some(esp) = sb.downcast_mut::<ElementarySensorProvider>() {
                    let _ = esp.sample_now(env);
                }
            })
            .is_ok()
        });
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
        let done = exert(&mut w.env, w.client, task.into(), &w.accessor, None);
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
                esp.probe = Box::new(
                    SimulatedProbe::new(
                        Teds::sunspot_temperature("d"),
                        Signal::Constant(20.0),
                        SimRng::new(9),
                    )
                    .with_faults(FaultInjector::new(FaultModel {
                        dropout_prob: 1.0,
                        ..Default::default()
                    })),
                );
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
