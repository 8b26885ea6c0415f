//! Differential oracle for the lent requestor read.
//!
//! `client::get_value_detailed` reads through its accessor's one lent
//! request: re-armed from a per-provider header, bound through one
//! template whose `Name` is rewritten in place. What that must never
//! change is what the old form did by construction: every read built a
//! fresh task and a fresh template (`tests/support/fresh_read.rs` keeps
//! that form as the reference).
//!
//! Generated scripts of interleaved reads run in twin worlds of one seed,
//! one driven by the reference and one by the lent read. Every world has
//! several providers read through one accessor, an unknown name, a
//! composite that degrades because its first child crashes a sibling's
//! host mid-read, an ESP with a dead battery, a provider that lapses and
//! is registered again under the same name at a new service id, and the
//! flight recorder on. Every result must print the same, and the metric
//! counters (wire bytes included, so each provider's reads must ride its
//! own connection) and the span export must be equal.
//!
//! `Trip`, the composite's first child, answers with a fingerprint of the
//! request as it arrived (context size, trace length, status, label), so a
//! request that was not re-armed shows in the value read.
//!
//! The lent state is private to the accessor, so the six slips the lent
//! form makes possible are seeded in a mirror of `LentRequest::exert`
//! built from the same public pieces (`RequestHeader::arm`, a template, a
//! connection per header, `exert_lent`). Unmutated, the mirror matches the
//! reference on every case; each mutant must fail.
//!
//! The façade hop is held the same way. `FacadeHandle` re-arms one
//! session per requesting host and façade; `tests/support/fresh_facade.rs`
//! builds a fresh task per call, as the handle did before. Generated
//! scripts interleave `get_value_as`, `get_value_detailed` and
//! `list_services` from two hosts across tenants and services, with shed
//! reads, degraded reads, the façade's host crashed mid-read and the
//! recorder on. A spy at the façade's address keeps every request as it
//! arrived. Results, counters (wire bytes included: each host's calls
//! ride their own connection in the reference too) and spans must be
//! equal, and so must every arrival. Four slips are seeded in a mirror of
//! the session: the last tenant kept, the reply context kept, the trace
//! kept, and one session for both hosts.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use sensorcer_obs::{SloKind, SloSpec};
use sensorcer_suite::core::prelude::*;
use sensorcer_suite::exertion::prelude::*;
use sensorcer_suite::expr::Value;
use sensorcer_suite::registry::attributes::{AttrMatch, Entry};
use sensorcer_suite::registry::ids::{interfaces, SvcUuid};
use sensorcer_suite::registry::item::{ServiceItem, ServiceTemplate};
use sensorcer_suite::registry::lease::LeasePolicy;
use sensorcer_suite::registry::lus::{LookupService, LusHandle};
use sensorcer_suite::sensors::prelude::*;
use sensorcer_suite::sim::check::{run_cases, Gen};
use sensorcer_suite::sim::prelude::*;

#[path = "support/fresh_facade.rs"]
mod fresh_facade;
#[path = "support/fresh_read.rs"]
mod fresh_read;

const CASES: u64 = 40;
const LONG: SimDuration = SimDuration::from_secs(36_000);
/// The first `Jade-Sensor` registers for this long, unrenewed.
const SHORT: SimDuration = SimDuration::from_secs(3);
const NAMES: [&str; 6] = ["Neem", "Jade-Sensor", "Dead", "Trip", "Hub", "Ghost"];

#[derive(Clone, Copy, Debug, PartialEq)]
enum Slip {
    None,
    /// The re-arm keeps the last reply's context.
    KeepContext,
    /// It keeps the trace.
    KeepTrace,
    /// It keeps a `Failed` status.
    KeepFailed,
    /// The template's name is not rewritten after the first read.
    StaleTemplate,
    /// The header's label is the one of the provider read before.
    ForeignLabel,
    /// Every provider's reads ride one connection.
    OneLink,
}

/// A composite's child that answers with a fingerprint of the request as
/// it arrived and, on every `crash_every`-th read from the composite,
/// crashes the `victim` host for `down_for`: `Neem`'s mote, so the
/// composite's next child hop finds it down, or the façade's host, so the
/// reply of the read under way is lost.
struct Trip {
    name: &'static str,
    line: Arc<str>,
    served: u64,
    crash_every: u64,
    down_for: SimDuration,
    victim: HostId,
}

impl Trip {
    fn deploy(self, env: &mut Env, lus: LusHandle, host: HostId) {
        let name = self.name;
        let svc = env.deploy(host, name, ServicerBox::new(self));
        let item = ServiceItem::new(
            SvcUuid::NIL,
            host,
            svc,
            vec![interfaces::SENSOR_DATA_ACCESSOR.into()],
            vec![Entry::Name(name.into())],
        );
        lus.register(env, host, item, None)
            .expect("a trip registers");
    }
}

impl Servicer for Trip {
    fn provider_name(&self) -> &str {
        self.name
    }

    fn service(&mut self, env: &mut Env, exertion: &mut Exertion) {
        let Exertion::Task(task) = exertion else {
            return;
        };
        let status = match &task.status {
            ExertionStatus::Initial => 0.0,
            ExertionStatus::Running => 1.0,
            ExertionStatus::Done => 2.0,
            ExertionStatus::Failed(_) => 3.0,
        };
        let fingerprint = 1000.0 * task.context.len() as f64
            + 100.0 * task.trace.len() as f64
            + 10.0 * status
            + f64::from(task.name.strip_prefix("read ") != Some(self.name));
        let from_composite = task.context.contains("composite/visited");
        task.trace.push(Arc::clone(&self.line));
        task.context
            .put(paths::SENSOR_VALUE, fingerprint)
            .put(paths::SENSOR_UNIT, Value::literal("°C"))
            .put(paths::SENSOR_QUALITY, Value::literal("good"));
        task.status = ExertionStatus::Done;
        self.served += 1;
        if from_composite && self.served.is_multiple_of(self.crash_every) {
            let victim = self.victim;
            env.crash_host(victim);
            env.schedule(self.down_for, move |env| env.restart_host(victim));
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum Step {
    Read(&'static str),
    Wait(SimDuration),
    /// Retire the lapsed `Jade-Sensor` and deploy one under its name.
    Reregister,
}

struct World {
    env: Env,
    client: HostId,
    lus: LusHandle,
    accessor: ServiceAccessor,
    jade: EspHandle,
    jade_mote: HostId,
}

fn scripted_esp(
    env: &mut Env,
    lus: LusHandle,
    mote: HostId,
    name: &str,
    values: Vec<f64>,
    lease: SimDuration,
) -> EspHandle {
    deploy_esp(
        env,
        EspConfig {
            lease,
            ..EspConfig::new(
                mote,
                name,
                Box::new(ScriptedProbe::new(values, Unit::Celsius)),
                lus,
            )
        },
    )
}

fn world(seed: u64, crash_every: u64, down_for: SimDuration) -> World {
    let mut env = Env::with_seed(seed);
    env.enable_tracing(1 << 16);
    let lab = env.add_host("lab", HostKind::Server);
    let client = env.add_host("client", HostKind::Workstation);
    let motes: Vec<HostId> = (0..4)
        .map(|i| env.add_host(format!("m{i}"), HostKind::SensorMote))
        .collect();
    let lus = LookupService::deploy(
        &mut env,
        lab,
        "LUS",
        "public",
        LeasePolicy {
            max_duration: SimDuration::from_secs(360_000),
            default_duration: LONG,
        },
        SimDuration::from_millis(500),
    );
    scripted_esp(
        &mut env,
        lus,
        motes[0],
        "Neem",
        vec![21.0, 22.5, 19.0],
        LONG,
    );
    let jade = scripted_esp(
        &mut env,
        lus,
        motes[1],
        "Jade-Sensor",
        vec![30.0, 31.0],
        SHORT,
    );
    let dead = SimulatedProbe::new(
        Teds::sunspot_temperature("dead"),
        Signal::Constant(20.0),
        SimRng::new(3),
    )
    .with_battery(Battery::new(10.0, 50.0, 1.0));
    deploy_esp(
        &mut env,
        EspConfig {
            lease: LONG,
            ..EspConfig::new(motes[2], "Dead", Box::new(dead), lus)
        },
    );
    Trip {
        name: "Trip",
        line: exerted_by("Trip"),
        served: 0,
        crash_every,
        down_for,
        victim: motes[0],
    }
    .deploy(&mut env, lus, motes[3]);
    let mut hub = CspConfig::new(lab, "Hub", lus);
    hub.lease = LONG;
    hub.children = vec!["Trip".into(), "Neem".into(), "Jade-Sensor".into()];
    hub.degradation = DegradationPolicy::Quorum(1);
    deploy_csp(&mut env, hub).expect("Hub deploys");
    World {
        env,
        client,
        lus,
        accessor: ServiceAccessor::new(vec![lus]),
        jade,
        jade_mote: motes[1],
    }
}

/// A generated world: its seed, Trip's crash rhythm and a script.
#[derive(Clone, Debug)]
struct Case {
    seed: u64,
    crash_every: u64,
    down_for: SimDuration,
    steps: Vec<Step>,
}

fn gen_case(g: &mut Gen) -> Case {
    let mut steps: Vec<Step> = (0..g.usize_in(12, 28))
        .map(|_| match g.u64_in(0, 10) {
            0 => Step::Wait(SimDuration::from_millis(g.u64_in(10, 4_000))),
            _ => {
                let &name = g.pick(&NAMES);
                Step::Read(name)
            }
        })
        .collect();
    let at = g.usize_in(1, steps.len());
    steps.insert(at, Step::Reregister);
    Case {
        seed: g.u64(),
        crash_every: g.u64_in(1, 3),
        down_for: SimDuration::from_millis(g.u64_in(100, 5_000)),
        steps,
    }
}

/// How a world's requestor reads.
enum Reader {
    /// Fresh task and template per read; a connection and a dead
    /// instance per provider name.
    Reference(HashMap<String, (Connection, Option<ServiceId>)>),
    /// `client::get_value_detailed`.
    Lent,
    /// The mirror under a slip.
    Mirror(Box<Mirror>),
}

type Read = Result<(SensorReading, DegradedInfo), String>;

impl Reader {
    fn read(&mut self, w: &mut World, name: &str) -> Read {
        let (env, from, accessor) = (&mut w.env, w.client, &w.accessor);
        match self {
            Reader::Reference(links) => {
                fresh_read::get_value_detailed(env, from, accessor, links, name)
            }
            Reader::Lent => client::get_value_detailed(env, from, accessor, name),
            Reader::Mirror(m) => m.read(env, from, accessor, name),
        }
    }
}

/// Everything a requestor or an operator can observe of a script's run.
#[derive(Debug, PartialEq)]
struct Observed {
    results: Vec<String>,
    counters: Vec<(String, u64)>,
    spans: String,
}

fn run(case: &Case, mut reader: Reader) -> Observed {
    let mut w = world(case.seed, case.crash_every, case.down_for);
    let mut results = Vec::new();
    for step in &case.steps {
        match *step {
            Step::Read(name) => {
                let read = reader.read(&mut w, name);
                results.push(format!("{name}: {read:?}"));
            }
            Step::Wait(d) => w.env.run_for(d),
            Step::Reregister => {
                // Past the first registration's lease and the reaper.
                w.env.run_for(SHORT + SimDuration::from_secs(1));
                w.env.undeploy(w.jade.service);
                w.jade = scripted_esp(
                    &mut w.env,
                    w.lus,
                    w.jade_mote,
                    "Jade-Sensor",
                    vec![40.0, 41.5],
                    LONG,
                );
                results.push(format!("re-registered at {:?}", w.jade.service));
            }
        }
    }
    let recorder = w.env.disable_tracing().expect("the recorder is on");
    Observed {
        results,
        counters: w
            .env
            .metrics
            .counters()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        spans: recorder.to_json(),
    }
}

/// `LentRequest::exert` and the parse of `client::get_value_detailed`,
/// over public pieces, with the slip a mutation seeds.
struct Mirror {
    slip: Slip,
    request: Exertion,
    headers: Vec<(RequestHeader, Connection, Option<ServiceId>)>,
    template: ServiceTemplate,
    /// The label the last read was sent under.
    last_label: Option<Arc<str>>,
}

impl Mirror {
    fn new(slip: Slip) -> Mirror {
        Mirror {
            slip,
            request: Task::new(
                "",
                Signature::new(interfaces::SENSOR_DATA_ACCESSOR, selectors::GET_VALUE),
                Context::new(),
            )
            .into(),
            headers: Vec::new(),
            template: ServiceTemplate::by_interface(interfaces::SENSOR_DATA_ACCESSOR)
                .and_attr(AttrMatch::name("")),
            last_label: None,
        }
    }

    /// Arm the request for `provider`; the header it was armed from, where
    /// it lies and where the connection its read rides lies.
    fn arm(&mut self, provider: &str) -> (RequestHeader, usize, usize) {
        let at = match self.headers.iter().position(|(h, ..)| &*h.pin == provider) {
            Some(at) => at,
            None => {
                let header = RequestHeader::new(format!("read {provider}"), provider);
                self.headers.push((header, Connection::closed(), None));
                self.headers.len() - 1
            }
        };
        let mut header = self.headers[at].0.clone();
        if let (Slip::ForeignLabel, Some(last)) = (self.slip, &self.last_label) {
            header.label = Arc::clone(last);
        }
        self.last_label = Some(Arc::clone(&self.headers[at].0.label));
        let Exertion::Task(task) = &mut self.request else {
            unreachable!("the mirror lends a task")
        };
        let (context, trace, status) = (
            std::mem::take(&mut task.context),
            std::mem::take(&mut task.trace),
            task.status.clone(),
        );
        header.arm(&mut self.request);
        let Exertion::Task(task) = &mut self.request else {
            unreachable!("the mirror lends a task")
        };
        match self.slip {
            Slip::KeepContext => task.context = context,
            Slip::KeepTrace => task.trace = trace,
            Slip::KeepFailed if status.is_failed() => task.status = status,
            _ => {}
        }
        if let Some(AttrMatch::Name(Some(name))) = self.template.attributes.first_mut() {
            if self.slip != Slip::StaleTemplate || name.is_empty() {
                name.clear();
                name.push_str(provider);
            }
        }
        let link = if self.slip == Slip::OneLink { 0 } else { at };
        (header, at, link)
    }

    fn read(
        &mut self,
        env: &mut Env,
        from: HostId,
        accessor: &ServiceAccessor,
        name: &str,
    ) -> Read {
        let (header, at, link) = self.arm(name);
        let mut dead = self.headers[at].2;
        let link = &mut self.headers[link].1;
        let lender = Lender {
            template: &self.template,
            header: &header,
            link,
            dead: &mut dead,
        };
        exert_lent(env, from, &mut self.request, accessor, Some(lender));
        self.headers[at].2 = dead;
        let done = &self.request;
        match done.status() {
            ExertionStatus::Done => SensorReading::from_context(done.context())
                .map(|r| (r, DegradedInfo::from_context(done.context())))
                .ok_or_else(|| "provider returned no reading".to_string()),
            ExertionStatus::Failed(e) => Err(e.clone()),
            other => Err(format!("unexpected exertion status {other:?}")),
        }
    }
}

fn differs(want: &Observed, got: &Observed) -> Option<String> {
    if got.results != want.results {
        let at = want
            .results
            .iter()
            .zip(&got.results)
            .position(|(a, b)| a != b)
            .unwrap_or(want.results.len().min(got.results.len()));
        return Some(format!(
            "result {at} differs:\n got {:?}\nwant {:?}",
            got.results.get(at),
            want.results.get(at)
        ));
    }
    if got.counters != want.counters {
        return Some(format!(
            "counters differ:\n got {:?}\nwant {:?}",
            got.counters, want.counters
        ));
    }
    (got.spans != want.spans).then(|| "the span exports differ".to_string())
}

/// Every scenario the worlds promise shows up across the generated cases.
fn coverage(runs: &[Observed]) {
    let all: Vec<&String> = runs.iter().flat_map(|o| &o.results).collect();
    let seen = |needle: &str| all.iter().filter(|r| r.contains(needle)).count();
    for needle in [
        "Ghost: Err(\"no provider found",
        "Dead: Err(\"sensor battery exhausted",
        "provider unreachable",
        "missing: [\"Neem\"]",
        "re-registered",
        "Jade-Sensor: Ok((SensorReading { value: 40.0",
    ] {
        assert!(
            seen(needle) >= 3,
            "only {} results show {needle}",
            seen(needle)
        );
    }
}

#[test]
fn a_lent_read_equals_a_freshly_built_one() {
    let mut runs = Vec::new();
    run_cases("lent_read_oracle", CASES, |g| {
        let case = gen_case(g);
        let want = run(&case, Reader::Reference(HashMap::new()));
        for (what, reader) in [
            ("lent", Reader::Lent),
            ("mirror", Reader::Mirror(Box::new(Mirror::new(Slip::None)))),
        ] {
            if let Some(why) = differs(&want, &run(&case, reader)) {
                panic!("{what} read differs from the reference on {case:?}: {why}");
            }
        }
        runs.push(want);
    });
    coverage(&runs);
}

/// How many generated cases notice `slip`.
fn caught(slip: Slip) -> u32 {
    let mut caught = 0;
    run_cases("lent_read_oracle", CASES, |g| {
        let case = gen_case(g);
        let want = run(&case, Reader::Reference(HashMap::new()));
        let got = run(&case, Reader::Mirror(Box::new(Mirror::new(slip))));
        caught += u32::from(differs(&want, &got).is_some());
    });
    caught
}

#[test]
fn a_rearm_that_keeps_the_reply_context_is_caught() {
    let n = caught(Slip::KeepContext);
    assert!(n >= 20, "only {n} cases noticed the kept context");
}

#[test]
fn a_rearm_that_keeps_the_trace_is_caught() {
    let n = caught(Slip::KeepTrace);
    assert!(n >= 20, "only {n} cases noticed the kept trace");
}

#[test]
fn a_rearm_that_keeps_a_failed_status_is_caught() {
    let n = caught(Slip::KeepFailed);
    assert!(n >= 20, "only {n} cases noticed the kept failure");
}

#[test]
fn a_template_whose_name_is_not_rewritten_is_caught() {
    let n = caught(Slip::StaleTemplate);
    assert!(n >= 20, "only {n} cases noticed the stale template");
}

#[test]
fn a_header_labelled_for_another_provider_is_caught() {
    let n = caught(Slip::ForeignLabel);
    assert!(n >= 20, "only {n} cases noticed the foreign label");
}

#[test]
fn one_connection_for_every_provider_is_caught() {
    let n = caught(Slip::OneLink);
    assert!(n >= 20, "only {n} cases noticed the shared connection");
}

// The façade hop: `FacadeHandle` re-arms one session per requesting host
// and façade, against the fresh task per call of `support/fresh_facade.rs`.

/// A roomy tenant, and one whose bucket holds a single token refilled
/// every four seconds, so its clumped reads are shed.
const TENANTS: [&str; 2] = ["gold", "bulk"];
const SERVICES: [&str; 3] = ["Hub", "Neem", "Ghost"];

#[derive(Clone, Copy, Debug, PartialEq)]
enum FacadeSlip {
    None,
    /// A read that names no tenant still carries the last read's.
    KeepTenant,
    /// The re-arm keeps the last reply's context under the arguments.
    KeepReply,
    /// It keeps the trace.
    KeepTrace,
    /// Both requesting hosts share one session.
    SharedSession,
}

#[derive(Clone, Copy, Debug)]
enum Call {
    /// `get_value_as` from client `.0`.
    As(usize, &'static str, &'static str),
    /// `get_value_detailed` from client `.0`.
    Detailed(usize, &'static str),
    /// `list_services` from client `.0`.
    List(usize),
    Wait(SimDuration),
}

/// Keeps every request as it arrives at the façade, then has the façade
/// serve it in place: a stand-in for the façade's own address, so what a
/// session sends is seen whole, trace included.
struct Spy {
    facade: ServiceId,
    arrivals: Rc<RefCell<Vec<String>>>,
}

impl Servicer for Spy {
    fn provider_name(&self) -> &str {
        "Front"
    }

    fn service(&mut self, env: &mut Env, exertion: &mut Exertion) {
        self.arrivals.borrow_mut().push(format!("{exertion:?}"));
        env.with_service(self.facade, |env, sb: &mut ServicerBox| {
            sb.service(env, exertion)
        })
        .expect("the façade sits beside its spy");
    }
}

struct FacadeWorld {
    env: Env,
    clients: [HostId; 2],
    front: FacadeHandle,
    arrivals: Rc<RefCell<Vec<String>>>,
}

/// A façade with admission and SLOs before `Hub` (quorum 1 of `Trip`,
/// `Fell`, `Neem`): `Trip` downs `Neem`'s mote, so reads degrade, and
/// `Fell` downs the façade's host mid-read.
fn facade_world(case: &FacadeCase) -> FacadeWorld {
    let mut env = Env::with_seed(case.seed);
    env.enable_tracing(1 << 16);
    let lab = env.add_host("lab", HostKind::Server);
    let front = env.add_host("front", HostKind::Server);
    let clients = [
        env.add_host("desk-0", HostKind::Workstation),
        env.add_host("desk-1", HostKind::Workstation),
    ];
    let motes: Vec<HostId> = (0..3)
        .map(|i| env.add_host(format!("m{i}"), HostKind::SensorMote))
        .collect();
    let lus = LookupService::deploy(
        &mut env,
        lab,
        "LUS",
        "public",
        LeasePolicy {
            max_duration: SimDuration::from_secs(360_000),
            default_duration: LONG,
        },
        SimDuration::from_millis(500),
    );
    scripted_esp(&mut env, lus, motes[0], "Neem", vec![21.0, 22.5], LONG);
    for (name, at, victim, crash_every) in [
        ("Trip", motes[1], motes[0], case.trip_every),
        ("Fell", motes[2], front, case.fell_every),
    ] {
        Trip {
            name,
            line: exerted_by(name),
            served: 0,
            crash_every,
            down_for: case.down_for,
            victim,
        }
        .deploy(&mut env, lus, at);
    }
    let mut hub = CspConfig::new(lab, "Hub", lus);
    hub.lease = LONG;
    hub.children = vec!["Trip".into(), "Fell".into(), "Neem".into()];
    hub.degradation = DegradationPolicy::Quorum(1);
    deploy_csp(&mut env, hub).expect("Hub deploys");

    let facade = SensorcerFacade::deploy_with_slos(
        &mut env,
        front,
        "Facade",
        ServiceAccessor::new(vec![lus]),
        None,
        vec![SloSpec::new(
            "hub-availability",
            "Hub",
            SloKind::Availability { min_ratio: 0.9 },
        )],
    );
    let mut gate = AdmissionController::new(TenantPolicy::new(QosClass::Standard, 50.0, 50.0, 64));
    gate.register("bulk", TenantPolicy::new(QosClass::Bulk, 0.25, 1.0, 64));
    let gate = shared_admission(gate);
    env.with_service(facade.service, |_env, sb: &mut ServicerBox| {
        sb.downcast_mut::<SensorcerFacade>()
            .expect("a façade was deployed here")
            .install_admission(gate);
    })
    .expect("the façade is up");
    let arrivals = Rc::default();
    let spy = Spy {
        facade: facade.service,
        arrivals: Rc::clone(&arrivals),
    };
    let spy = env.deploy(front, "Front", ServicerBox::new(spy));
    FacadeWorld {
        env,
        clients,
        front: FacadeHandle {
            service: spy,
            host: front,
        },
        arrivals,
    }
}

#[derive(Clone, Debug)]
struct FacadeCase {
    seed: u64,
    trip_every: u64,
    fell_every: u64,
    down_for: SimDuration,
    calls: Vec<Call>,
}

fn gen_facade_case(g: &mut Gen) -> FacadeCase {
    let calls = (0..g.usize_in(16, 36))
        .map(|_| {
            let host = g.usize_in(0, 2);
            let (&tenant, &service) = (g.pick(&TENANTS), g.pick(&SERVICES));
            match g.u64_in(0, 12) {
                0 => Call::Wait(SimDuration::from_millis(g.u64_in(10, 6_000))),
                1 => Call::List(host),
                2..=5 => Call::Detailed(host, service),
                _ => Call::As(host, tenant, service),
            }
        })
        .collect();
    FacadeCase {
        seed: g.u64(),
        trip_every: g.u64_in(1, 3),
        fell_every: g.u64_in(3, 7),
        down_for: SimDuration::from_millis(g.u64_in(100, 5_000)),
        calls,
    }
}

/// How a façade world's requestors call.
enum Caller {
    /// A fresh task per call; a connection per requesting host.
    Reference(HashMap<HostId, Connection>),
    /// `FacadeHandle`.
    Lent,
    /// The mirror under a slip.
    Mirror(FacadeMirror),
}

impl Caller {
    /// Make `call` and print what it returned.
    fn call(&mut self, w: &mut FacadeWorld, call: Call) -> String {
        let (env, front) = (&mut w.env, w.front);
        let (at, selector, args) = match call {
            Call::As(at, tenant, service) => {
                let args = fresh_facade::get_value_args(Some(tenant), service);
                (at, ops::GET_VALUE, args)
            }
            Call::Detailed(at, service) => {
                let args = fresh_facade::get_value_args(None, service);
                (at, ops::GET_VALUE, args)
            }
            Call::List(at) => (at, ops::LIST_SERVICES, Context::new()),
            Call::Wait(d) => {
                env.run_for(d);
                return format!("waited {d}");
            }
        };
        let from = w.clients[at];
        let reply = match self {
            Caller::Lent => return lent_call(env, front, from, call),
            Caller::Reference(links) => {
                fresh_facade::run(env, from, front.service, links, selector, args)
            }
            Caller::Mirror(m) => m.run(env, from, front.service, selector, args),
        };
        match call {
            Call::As(..) => format!("{:?}", reply.and_then(|ctx| fresh_facade::reading(&ctx))),
            Call::Detailed(..) => {
                format!("{:?}", reply.and_then(|ctx| fresh_facade::detailed(&ctx)))
            }
            _ => format!("{:?}", reply.map(|ctx| fresh_facade::listed(&ctx))),
        }
    }
}

/// `call` through `FacadeHandle`, printed.
fn lent_call(env: &mut Env, front: FacadeHandle, from: HostId, call: Call) -> String {
    match call {
        Call::As(_, tenant, service) => {
            format!("{:?}", front.get_value_as(env, from, tenant, service))
        }
        Call::Detailed(_, service) => format!("{:?}", front.get_value_detailed(env, from, service)),
        _ => format!("{:?}", front.list_services(env, from)),
    }
}

/// Everything a requestor, an operator or the façade can observe of a
/// script's run: what the façade received, and how.
#[derive(Debug, PartialEq)]
struct FacadeObserved {
    seen: Observed,
    arrivals: Vec<String>,
}

fn run_facade(case: &FacadeCase, mut caller: Caller) -> FacadeObserved {
    let mut w = facade_world(case);
    let results = case
        .calls
        .iter()
        .map(|&call| caller.call(&mut w, call))
        .collect();
    let recorder = w.env.disable_tracing().expect("the recorder is on");
    let arrivals = w.arrivals.borrow().clone();
    FacadeObserved {
        seen: Observed {
            results,
            counters: w
                .env
                .metrics
                .counters()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            spans: recorder.to_json(),
        },
        arrivals,
    }
}

/// One session of the mirror: its task and connection.
struct MirrorSession {
    request: Exertion,
    link: Connection,
}

/// `FacadeHandle::run` over public pieces, with the slip a mutation seeds.
struct FacadeMirror {
    slip: FacadeSlip,
    sessions: HashMap<Option<HostId>, MirrorSession>,
}

impl FacadeMirror {
    fn new(slip: FacadeSlip) -> FacadeMirror {
        FacadeMirror {
            slip,
            sessions: HashMap::new(),
        }
    }

    fn run(
        &mut self,
        env: &mut Env,
        from: HostId,
        facade: ServiceId,
        selector: &'static str,
        args: Context,
    ) -> Result<Context, String> {
        let slip = self.slip;
        let key = (slip != FacadeSlip::SharedSession).then_some(from);
        let session = self.sessions.entry(key).or_insert_with(|| MirrorSession {
            request: Task::new(
                "",
                Signature::new(interfaces::SENSORCER_FACADE, ""),
                Context::new(),
            )
            .into(),
            link: Connection::closed(),
        });
        let Exertion::Task(task) = &mut session.request else {
            unreachable!("the mirror lends a task")
        };
        if *task.signature.selector != *selector {
            task.name = format!("facade {selector}").into();
            task.signature.selector = selector.into();
        }
        task.status = ExertionStatus::Initial;
        if slip != FacadeSlip::KeepTrace {
            task.trace.clear();
        }
        let tenant = task.context.get("arg/tenant").cloned();
        if slip != FacadeSlip::KeepReply {
            task.context.clear();
        }
        if let (FacadeSlip::KeepTenant, Some(tenant)) = (slip, tenant) {
            task.context.put("arg/tenant", tenant);
        }
        for (path, value) in args.iter() {
            task.context.put(path.to_string(), value.clone());
        }
        let sent = exert_in_place(env, from, facade, &mut session.request, &mut session.link);
        match sent {
            Ok(()) => match session.request.status() {
                ExertionStatus::Done => Ok(session.request.context().clone()),
                ExertionStatus::Failed(e) => Err(e.clone()),
                other => Err(format!("unexpected status {other:?}")),
            },
            Err(e) => Err(format!("facade unreachable: {e}")),
        }
    }
}

fn facade_differs(want: &FacadeObserved, got: &FacadeObserved) -> Option<String> {
    if got.arrivals != want.arrivals {
        let at = (want.arrivals.iter().zip(&got.arrivals))
            .position(|(a, b)| a != b)
            .unwrap_or(want.arrivals.len().min(got.arrivals.len()));
        return Some(format!(
            "arrival {at} differs:\n got {:?}\nwant {:?}",
            got.arrivals.get(at),
            want.arrivals.get(at)
        ));
    }
    differs(&want.seen, &got.seen)
}

#[test]
fn a_lent_facade_call_equals_a_freshly_built_one() {
    let mut runs = Vec::new();
    run_cases("lent_facade_oracle", CASES, |g| {
        let case = gen_facade_case(g);
        let want = run_facade(&case, Caller::Reference(HashMap::new()));
        for (what, caller) in [
            ("lent", Caller::Lent),
            (
                "mirror",
                Caller::Mirror(FacadeMirror::new(FacadeSlip::None)),
            ),
        ] {
            if let Some(why) = facade_differs(&want, &run_facade(&case, caller)) {
                panic!("{what} call differs from the reference on {case:?}: {why}");
            }
        }
        runs.push(want.seen);
    });
    let all: Vec<&String> = runs.iter().flat_map(|o| &o.results).collect();
    for needle in [
        "reason=rate_limit",
        "facade unreachable",
        "missing: [\"Neem\"]",
        "no provider found for SensorDataAccessor#getValue@Ghost",
        "Ok([(\"Facade\", \"FACADE\")",
    ] {
        let seen = all.iter().filter(|r| r.contains(needle)).count();
        assert!(seen >= 3, "only {seen} results show {needle}");
    }
}

/// How many generated façade cases notice `slip`.
fn facade_caught(slip: FacadeSlip) -> u32 {
    let mut caught = 0;
    run_cases("lent_facade_oracle", CASES, |g| {
        let case = gen_facade_case(g);
        let want = run_facade(&case, Caller::Reference(HashMap::new()));
        let got = run_facade(&case, Caller::Mirror(FacadeMirror::new(slip)));
        caught += u32::from(facade_differs(&want, &got).is_some());
    });
    caught
}

#[test]
fn a_facade_call_that_keeps_the_last_tenant_is_caught() {
    let n = facade_caught(FacadeSlip::KeepTenant);
    assert!(n >= 20, "only {n} cases noticed the kept tenant");
}

#[test]
fn a_facade_call_that_keeps_the_reply_context_is_caught() {
    let n = facade_caught(FacadeSlip::KeepReply);
    assert!(n >= 20, "only {n} cases noticed the kept reply");
}

#[test]
fn a_facade_call_that_keeps_the_trace_is_caught() {
    let n = facade_caught(FacadeSlip::KeepTrace);
    assert!(n >= 20, "only {n} cases noticed the kept trace");
}

#[test]
fn one_session_for_two_hosts_is_caught() {
    let n = facade_caught(FacadeSlip::SharedSession);
    assert!(n >= 20, "only {n} cases noticed the shared session");
}
