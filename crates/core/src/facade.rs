//! The SenSORCER Façade — "the single entry point of the SenSORCER
//! system" (§V.B).
//!
//! The façade provides uniform access for the sensor browser: it carries a
//! `ServiceAccessor` (LUS lookups), a **Sensor Network Manager** (create
//! subnets/networks by composing services, add/remove nodes, install
//! expressions) and a **Sensor Service Provisioner** (deploy new composite
//! services onto cybernodes via the provision monitor). Like every peer it
//! is a `Servicer`: the browser's buttons in Fig. 2 ("Get Sensor List",
//! "Get Value", "Compose Service", "Add Expression", "Create Service")
//! map one-to-one onto its selectors.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use sensorcer_exertion::prelude::*;
use sensorcer_expr::{Text, Value};
use sensorcer_obs::{AlertTransition, ReadOutcome, SloEngine, SloSpec};
use sensorcer_provision::monitor::MonitorHandle;
use sensorcer_registry::attributes::{name_of, service_type_of, Entry};
use sensorcer_registry::ids::interfaces;
use sensorcer_registry::item::{ServiceItem, ServiceTemplate};
use sensorcer_registry::lus::LusHandle;
use sensorcer_registry::renewal::join;
use sensorcer_sim::conn::Connection;
use sensorcer_sim::env::{Env, ServiceId};
use sensorcer_sim::topology::HostId;

use crate::accessor::{client, mgmt, SensorInfo, SensorReading};
use crate::admission::{self, SharedAdmission};
use crate::provisioner::{provision_composite, CompositeSpec};

/// Façade operation selectors (the browser's buttons).
pub mod ops {
    pub const LIST_SERVICES: &str = "listServices";
    pub const GET_VALUE: &str = "getValue";
    pub const GET_INFO: &str = "getInfo";
    pub const GET_HISTORY: &str = "getHistory";
    pub const COMPOSE_SERVICE: &str = "composeService";
    pub const ADD_EXPRESSION: &str = "addExpression";
    pub const CREATE_SERVICE: &str = "createService";
    pub const REMOVE_SERVICE: &str = "removeService";
    pub const NETWORK_HEALTH: &str = "networkHealth";
    pub const SLO_REPORT: &str = "sloReport";
}

/// One row of the browser's service list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceRow {
    pub name: String,
    pub service_type: String,
    pub host: HostId,
}

/// One host's row in the federation health snapshot — what the paper's
/// sensor browser would render next to each node: is the mote up, what is
/// registered there, how stale its last reading is, and how much degraded
/// traffic it has caused.
#[derive(Clone, Debug, PartialEq)]
pub struct HostHealth {
    pub host: HostId,
    pub name: String,
    pub kind: String,
    /// Whether the simulated host is up right now.
    pub alive: bool,
    /// Service names currently registered (lease still live) on this host.
    pub services: Vec<String>,
    /// Age of the last successfully served read, if any reads were served.
    pub last_read_age_ns: Option<u64>,
    /// Battery level observed at the last served read (ESP hosts only).
    pub battery: Option<f64>,
    /// Retry traffic attributed to providers on this host.
    pub retry_attempts: u64,
    pub retry_exhausted: u64,
    /// Times this host's providers were substituted from a last-known-good
    /// cache during a degraded composite read.
    pub substituted: u64,
}

/// The façade provider.
pub struct SensorcerFacade {
    name: String,
    exerted_by: Arc<str>,
    host: HostId,
    accessor: ServiceAccessor,
    monitor: Option<MonitorHandle>,
    requests_total: u64,
    /// Health engine, present once objectives have been installed. Every
    /// `getValue` that flows through the façade feeds it.
    slos: Option<SloEngine>,
    /// Overload gate, present once admission control has been installed.
    /// Every request is admitted, queued (in virtual time) or shed with a
    /// typed rejection before any selector runs.
    admission: Option<SharedAdmission>,
}

impl SensorcerFacade {
    fn new(
        name: impl Into<String>,
        host: HostId,
        accessor: ServiceAccessor,
        monitor: Option<MonitorHandle>,
    ) -> Self {
        let name = name.into();
        SensorcerFacade {
            exerted_by: exerted_by(&name),
            name,
            host,
            accessor,
            monitor,
            requests_total: 0,
            slos: None,
            admission: None,
        }
    }

    /// Install the overload gate. The caller keeps a clone of the shared
    /// controller to retune tenant rates while the façade is live (the
    /// autoscaling feedback path).
    pub fn install_admission(&mut self, ctrl: SharedAdmission) {
        self.admission = Some(ctrl);
    }

    /// Burn-rate snapshot from the installed health engine, as
    /// `(service, burn_fast, burn_slow)` tuples — the tap the SLO-driven
    /// autoscaler reads each control-loop pass. Empty without SLOs.
    pub fn burn_rates(&self, now: sensorcer_sim::time::SimTime) -> Vec<(String, f64, f64)> {
        self.slos
            .as_ref()
            .map(|s| s.burn_rates(now))
            .unwrap_or_default()
    }

    /// Structured alert history from the installed health engine, fired
    /// and resolved alike, with exemplar trace ids attached — the tap the
    /// Perfetto alert-timeline track reads. Empty without SLOs.
    pub fn slo_alerts(&self) -> Vec<sensorcer_obs::Alert> {
        self.slos
            .as_ref()
            .map(|s| s.alerts().to_vec())
            .unwrap_or_default()
    }

    /// Deploy a façade and register it with every LUS the accessor knows.
    pub fn deploy(
        env: &mut Env,
        host: HostId,
        name: &str,
        accessor: ServiceAccessor,
        monitor: Option<MonitorHandle>,
    ) -> FacadeHandle {
        let facade = SensorcerFacade::new(name, host, accessor, monitor);
        Self::deploy_built(env, facade)
    }

    /// Deploy a façade with SLO objectives pre-installed: its `getValue`
    /// traffic is recorded against them and `sloReport` serves the
    /// verdicts.
    pub fn deploy_with_slos(
        env: &mut Env,
        host: HostId,
        name: &str,
        accessor: ServiceAccessor,
        monitor: Option<MonitorHandle>,
        specs: Vec<SloSpec>,
    ) -> FacadeHandle {
        let mut facade = SensorcerFacade::new(name, host, accessor, monitor);
        facade.slos = Some(SloEngine::new(specs));
        Self::deploy_built(env, facade)
    }

    fn deploy_built(env: &mut Env, facade: SensorcerFacade) -> FacadeHandle {
        let host = facade.host;
        let name = facade.name.clone();
        let name = name.as_str();
        let lus_list: Vec<LusHandle> = facade.accessor.lus_handles().to_vec();
        let service = env.deploy(host, name, ServicerBox::new(facade));
        for lus in lus_list {
            let interfaces = [interfaces::SENSORCER_FACADE, interfaces::SERVICER];
            let mut item = ServiceItem::provider(host, service, &interfaces, name, "FACADE");
            item.attributes
                .push(Entry::Comment("SenSORCER Facade".into()));
            let _ = join(env, lus, item, None, None);
        }
        FacadeHandle { service, host }
    }

    /// The network manager's service listing: everything registered, as
    /// the browser's left panel shows it.
    fn list_services(&self, env: &mut Env) -> Vec<ServiceRow> {
        let mut rows = Vec::new();
        for lus in self.accessor.lus_handles() {
            if let Ok(items) = lus.lookup(env, self.host, &ServiceTemplate::any(), usize::MAX) {
                for item in items {
                    let name = name_of(&item.attributes).unwrap_or("(unnamed)").to_string();
                    if rows.iter().any(|r: &ServiceRow| r.name == name) {
                        continue;
                    }
                    rows.push(ServiceRow {
                        name,
                        service_type: service_type_of(&item.attributes)
                            .unwrap_or("UNKNOWN")
                            .to_string(),
                        host: item.host,
                    });
                }
            }
        }
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        rows
    }

    /// Per-host health snapshot across the whole federation: liveness,
    /// registered services, last-read age, battery, and how much retry /
    /// substitution traffic each host has caused. One row per host, in
    /// host-id order.
    fn network_health(&self, env: &mut Env) -> Vec<HostHealth> {
        // Registration state first (needs &mut Env for the LUS calls).
        let mut services_by_host: std::collections::BTreeMap<HostId, Vec<String>> =
            std::collections::BTreeMap::new();
        for lus in self.accessor.lus_handles() {
            if let Ok(items) = lus.lookup(env, self.host, &ServiceTemplate::any(), usize::MAX) {
                for item in items {
                    let name = name_of(&item.attributes).unwrap_or("(unnamed)").to_string();
                    let names = services_by_host.entry(item.host).or_default();
                    if !names.contains(&name) {
                        names.push(name);
                    }
                }
            }
        }
        let now_ns = env.now().as_nanos();
        let mut rows = Vec::with_capacity(env.topo.host_count());
        for h in env.topo.hosts() {
            let services = services_by_host.get(&h.id).cloned().unwrap_or_default();
            let substituted = services
                .iter()
                .map(|s| {
                    env.metrics
                        .get_labeled(crate::csp::keys::SUBSTITUTED_CHILDREN, s)
                })
                .sum();
            rows.push(HostHealth {
                host: h.id,
                name: h.name.clone(),
                kind: format!("{:?}", h.kind),
                alive: h.alive,
                services,
                last_read_age_ns: env
                    .metrics
                    .host_gauge(h.id, crate::esp::gauges::LAST_READ_NS)
                    .map(|t| now_ns.saturating_sub(t as u64)),
                battery: env.metrics.host_gauge(h.id, crate::esp::gauges::BATTERY),
                retry_attempts: env
                    .metrics
                    .get_host(h.id, sensorcer_exertion::retry::keys::RETRY_ATTEMPTS),
                retry_exhausted: env
                    .metrics
                    .get_host(h.id, sensorcer_exertion::retry::keys::RETRY_EXHAUSTED),
                substituted,
            });
        }
        rows
    }

    fn handle(&mut self, env: &mut Env, task: &mut Task) {
        self.requests_total += 1;
        let Some(ctrl) = self.admission.clone() else {
            self.dispatch(env, task);
            return;
        };
        let tenant = text_arg(&task.context, "arg/tenant").unwrap_or(Text::Static("default"));
        match admission::admit(env, &ctrl, &tenant) {
            Ok(()) => {
                self.dispatch(env, task);
                ctrl.borrow_mut().complete(&tenant);
            }
            Err(shed) => {
                // A shed read still burns the target service's error
                // budget: overload is an availability failure the health
                // engine (and through it the autoscaler) must see.
                if &*task.signature.selector == ops::GET_VALUE {
                    if let Some(name) = text_arg(&task.context, "arg/service") {
                        if let Some(slos) = self.slos.as_mut() {
                            let now = env.now();
                            slos.record_read(now, &name, ReadOutcome::Error, 0);
                            let transitions = slos.evaluate(now);
                            mirror_transitions(env, &transitions);
                        }
                    }
                }
                task.fail(shed.rejection());
            }
        }
    }

    fn dispatch(&mut self, env: &mut Env, task: &mut Task) {
        let selector = Arc::clone(&task.signature.selector);
        let outcome: Result<(), String> = match &*selector {
            ops::LIST_SERVICES => {
                let rows = self.list_services(env);
                let list: Arc<[Value]> = rows
                    .iter()
                    .map(|r| {
                        let mut m = std::collections::BTreeMap::new();
                        m.insert("name".to_string(), r.name.as_str().into());
                        m.insert("type".to_string(), r.service_type.as_str().into());
                        Value::Map(m)
                    })
                    .collect();
                task.context.put("services/list", Value::List(list));
                Ok(())
            }
            ops::NETWORK_HEALTH => {
                let rows = self.network_health(env);
                let list: Arc<[Value]> = rows
                    .iter()
                    .map(|r| {
                        let mut m = std::collections::BTreeMap::new();
                        m.insert("host".to_string(), Value::Int(r.host.0 as i64));
                        m.insert("name".to_string(), r.name.as_str().into());
                        m.insert("kind".to_string(), r.kind.as_str().into());
                        m.insert("alive".to_string(), Value::Bool(r.alive));
                        m.insert(
                            "services".to_string(),
                            Value::List(r.services.iter().map(|s| s.as_str().into()).collect()),
                        );
                        if let Some(age) = r.last_read_age_ns {
                            m.insert("last_read_age_ns".to_string(), Value::Int(age as i64));
                        }
                        if let Some(b) = r.battery {
                            m.insert("battery".to_string(), Value::Float(b));
                        }
                        m.insert(
                            "retry_attempts".to_string(),
                            Value::Int(r.retry_attempts as i64),
                        );
                        m.insert(
                            "retry_exhausted".to_string(),
                            Value::Int(r.retry_exhausted as i64),
                        );
                        m.insert("substituted".to_string(), Value::Int(r.substituted as i64));
                        Value::Map(m)
                    })
                    .collect();
                task.context.put("health/hosts", Value::List(list));
                Ok(())
            }
            ops::GET_VALUE => match text_arg(&task.context, "arg/service") {
                Some(name) => {
                    let t0 = env.now();
                    let res = client::get_value_detailed(env, self.host, &self.accessor, &name);
                    if let Some(slos) = self.slos.as_mut() {
                        let now = env.now();
                        let latency_ns = (now - t0).as_nanos();
                        match &res {
                            Ok((reading, degraded)) => {
                                let outcome = if degraded.is_degraded() {
                                    ReadOutcome::Degraded
                                } else {
                                    ReadOutcome::Ok
                                };
                                slos.record_read(now, &name, outcome, latency_ns);
                                // The reading's timestamp doubles as a
                                // freshness check: how old is the data the
                                // federation just served?
                                slos.record_freshness(
                                    now,
                                    &name,
                                    now.as_nanos().saturating_sub(reading.at_ns),
                                );
                            }
                            Err(_) => slos.record_read(now, &name, ReadOutcome::Error, latency_ns),
                        }
                        let transitions = slos.evaluate(now);
                        mirror_transitions(env, &transitions);
                    }
                    res.map(|(reading, degraded)| {
                        task.context.put(paths::SENSOR_VALUE, reading.value);
                        task.context.put(paths::RESULT, reading.value);
                        task.context
                            .put(paths::SENSOR_UNIT, Value::Str(reading.unit));
                        task.context.put(paths::SENSOR_AT, reading.at_ns as f64);
                        let quality = if reading.good { "good" } else { "suspect" };
                        task.context
                            .put(paths::SENSOR_QUALITY, Value::literal(quality));
                        // Degraded-read detail rides along so browser
                        // clients can see *which* children substituted.
                        degraded.write_to(&mut task.context);
                    })
                }
                None => Err("getValue needs arg/service".into()),
            },
            ops::SLO_REPORT => match self.slos.as_mut() {
                Some(slos) => {
                    let now = env.now();
                    let transitions = slos.evaluate(now);
                    mirror_transitions(env, &transitions);
                    let report = slos.report(now);
                    task.context
                        .put("slo/healthy", Value::Bool(report.healthy()));
                    task.context
                        .put("slo/alerts", Value::Int(report.alerts.len() as i64));
                    task.context.put("slo/report", report.json().render());
                    Ok(())
                }
                None => Err("no SLOs installed on this facade".into()),
            },
            ops::GET_INFO => match text_arg(&task.context, "arg/service") {
                Some(name) => client::get_info(env, self.host, &self.accessor, &name)
                    .map(|info| info.write_to(&mut task.context)),
                None => Err("getInfo needs arg/service".into()),
            },
            ops::GET_HISTORY => match text_arg(&task.context, "arg/service") {
                Some(name) => {
                    let count = task.context.get_f64("arg/count").unwrap_or(16.0) as usize;
                    client::get_history(env, self.host, &self.accessor, &name, count).map(
                        |values| {
                            task.context.put(
                                "history/values",
                                Value::List(values.into_iter().map(Value::Float).collect()),
                            );
                        },
                    )
                }
                None => Err("getHistory needs arg/service".into()),
            },
            ops::COMPOSE_SERVICE => {
                let composite = task.context.get_str("arg/composite").map(str::to_string);
                let children: Vec<String> = match task.context.get("arg/children") {
                    Some(Value::List(xs)) => xs.iter().map(|v| v.to_string()).collect(),
                    _ => Vec::new(),
                };
                match composite {
                    Some(composite) if !children.is_empty() => {
                        let mut vars = Vec::new();
                        let mut result = Ok(());
                        for child in &children {
                            match client::manage(
                                env,
                                self.host,
                                &self.accessor,
                                &composite,
                                mgmt::ADD_SERVICE,
                                Context::new().with("arg/service", child.as_str()),
                            ) {
                                Ok(ctx) => {
                                    vars.push(ctx.get_str("mgmt/variable").unwrap_or("?").into())
                                }
                                Err(e) => {
                                    result = Err(e);
                                    break;
                                }
                            }
                        }
                        task.context.put("mgmt/variables", Value::List(vars.into()));
                        result
                    }
                    Some(_) => Err("composeService needs a non-empty arg/children list".into()),
                    None => Err("composeService needs arg/composite".into()),
                }
            }
            ops::ADD_EXPRESSION => {
                let service = task.context.get_str("arg/service").map(str::to_string);
                let expr = task.context.get_str("arg/expression").map(str::to_string);
                match (service, expr) {
                    (Some(service), Some(expr)) => client::manage(
                        env,
                        self.host,
                        &self.accessor,
                        &service,
                        mgmt::SET_EXPRESSION,
                        Context::new().with("arg/expression", expr.as_str()),
                    )
                    .map(|_| ()),
                    _ => Err("addExpression needs arg/service and arg/expression".into()),
                }
            }
            ops::REMOVE_SERVICE => {
                let composite = task.context.get_str("arg/composite").map(str::to_string);
                let service = task.context.get_str("arg/service").map(str::to_string);
                match (composite, service) {
                    (Some(composite), Some(service)) => client::manage(
                        env,
                        self.host,
                        &self.accessor,
                        &composite,
                        mgmt::REMOVE_SERVICE,
                        Context::new().with("arg/service", service.as_str()),
                    )
                    .map(|_| ()),
                    _ => Err("removeService needs arg/composite and arg/service".into()),
                }
            }
            ops::CREATE_SERVICE => {
                let name = task.context.get_str("arg/name").map(str::to_string);
                match (name, self.monitor) {
                    (Some(name), Some(monitor)) => {
                        let mut spec = CompositeSpec::named(name);
                        if let Some(Value::List(xs)) = task.context.get("arg/children") {
                            spec.children = xs.iter().map(|v| v.to_string()).collect();
                        }
                        if let Some(e) = task.context.get_str("arg/expression") {
                            spec.expression = Some(e.to_string());
                        }
                        match provision_composite(env, self.host, monitor, &spec) {
                            Ok(host) => {
                                task.context.put("mgmt/provisioned-on", host.0 as i64);
                                Ok(())
                            }
                            Err(e) => Err(e.to_string()),
                        }
                    }
                    (None, _) => Err("createService needs arg/name".into()),
                    (_, None) => Err("no provision monitor attached to this facade".into()),
                }
            }
            other => Err(format!("facade has no operation '{other}'")),
        };
        match outcome {
            Ok(()) => task.status = ExertionStatus::Done,
            Err(e) => task.fail(e),
        }
    }
}

/// The text argument at `path`, shared with the request's context rather
/// than copied out of it.
fn text_arg(context: &Context, path: &str) -> Option<Text> {
    match context.get(path) {
        Some(Value::Str(s)) => Some(s.clone()),
        _ => None,
    }
}

/// Surface SLO state changes as flight-recorder events on the innermost
/// open span (a no-op when tracing is off).
fn mirror_transitions(env: &mut Env, transitions: &[AlertTransition]) {
    if transitions.is_empty() {
        return;
    }
    let cur = env.current_span();
    if !cur.is_valid() {
        return;
    }
    for tr in transitions {
        env.span_event(
            cur,
            if tr.fired {
                "slo.fired"
            } else {
                "slo.resolved"
            },
            vec![
                ("slo", tr.slo.as_str().into()),
                ("service", tr.service.as_str().into()),
                ("burn_fast", tr.burn_fast.into()),
                ("burn_slow", tr.burn_slow.into()),
            ],
        );
    }
}

impl Servicer for SensorcerFacade {
    fn provider_name(&self) -> &str {
        &self.name
    }

    fn service(&mut self, env: &mut Env, exertion: &mut Exertion) {
        let Exertion::Task(task) = exertion else {
            if let Exertion::Job(job) = exertion {
                job.status = ExertionStatus::Failed("the facade executes tasks, not jobs".into());
            }
            return;
        };
        if &*task.signature.interface != interfaces::SENSORCER_FACADE {
            task.fail(format!(
                "facade implements {}, not {}",
                interfaces::SENSORCER_FACADE,
                task.signature.interface
            ));
            return;
        }
        task.trace.push(Arc::clone(&self.exerted_by));
        self.handle(env, task);
    }
}

impl std::fmt::Debug for SensorcerFacade {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SensorcerFacade")
            .field("name", &self.name)
            .field("requests_total", &self.requests_total)
            .finish()
    }
}

/// Handle to a deployed façade: a value proxy, copied freely. What it
/// holds open lives where JERI's connection manager keeps a value proxy's
/// connections: in one session per requesting host, found through the
/// world it calls in.
#[derive(Clone, Copy, Debug)]
pub struct FacadeHandle {
    pub service: ServiceId,
    pub host: HostId,
}

/// One argument of a façade request.
enum Arg<'a> {
    /// Shared from the session's copy of the text.
    Text(&'a str),
    Value(Value),
}

/// What one requesting host keeps open to one façade: the one task its
/// calls re-arm (buffers kept), the connection they ride, and every
/// argument text sent so far, so a call builds no label, signature,
/// context or text. Each call sends byte for byte the task a fresh build
/// would.
struct FacadeSession {
    request: Exertion,
    link: Connection,
    texts: HashSet<Arc<str>>,
}

/// Every [`FacadeSession`] of a world, by requesting host and façade,
/// found through [`Env::shared`]. A session is out while a call has it.
#[derive(Default)]
struct FacadeSessions(HashMap<(HostId, ServiceId), FacadeSession>);

impl FacadeSession {
    fn new() -> FacadeSession {
        FacadeSession {
            request: Task::new(
                "",
                Signature::new(interfaces::SENSORCER_FACADE, ""),
                Context::new(),
            )
            .into(),
            link: Connection::closed(),
            texts: HashSet::new(),
        }
    }

    /// Make the request the one a freshly built `selector` task with
    /// `args` would be: labelled `facade <selector>`, with nothing the
    /// last call left behind (reply, failure, trace, arguments).
    fn arm<'a>(
        &mut self,
        selector: &'static str,
        args: impl IntoIterator<Item = (&'static str, Arg<'a>)>,
    ) {
        let Exertion::Task(task) = &mut self.request else {
            unreachable!("the façade exerts the lent task in place")
        };
        if *task.signature.selector != *selector {
            task.name = format!("facade {selector}").into();
            task.signature.selector = selector.into();
        }
        task.status = ExertionStatus::Initial;
        task.trace.clear();
        task.context.clear();
        for (path, arg) in args {
            let value = match arg {
                Arg::Text(text) => {
                    let shared = match self.texts.get(text) {
                        Some(shared) => Arc::clone(shared),
                        None => {
                            let shared: Arc<str> = text.into();
                            self.texts.insert(Arc::clone(&shared));
                            shared
                        }
                    };
                    Value::Str(Text::Shared(shared))
                }
                Arg::Value(value) => value,
            };
            task.context.put(path, value);
        }
    }
}

impl FacadeHandle {
    /// Call `selector` with `args` from `from` and read the reply where it
    /// lies. The call re-arms `from`'s session with this façade and rides
    /// its connection; a call made while the session is out (nested in
    /// another) builds a fresh one.
    fn run<'a, R>(
        &self,
        env: &mut Env,
        from: HostId,
        selector: &'static str,
        args: impl IntoIterator<Item = (&'static str, Arg<'a>)>,
        read: impl FnOnce(&Context) -> R,
    ) -> Result<R, String> {
        let sessions = env.shared(FacadeSessions::default);
        let key = (from, self.service);
        let taken = sessions.borrow_mut().0.remove(&key);
        let mut session = taken.unwrap_or_else(FacadeSession::new);
        session.arm(selector, args);
        // Admission is applied by the façade servicer on arrival: this
        // exertion targets the gate itself (tests/facade_admission.rs).
        let sent = exert_in_place(
            env,
            from,
            self.service,
            &mut session.request,
            &mut session.link,
        );
        let reply = match (sent, &mut session.request) {
            (Err(e), _) => Err(format!("facade unreachable: {e}")),
            (Ok(()), Exertion::Task(task)) => match &mut task.status {
                ExertionStatus::Done => Ok(read(&task.context)),
                ExertionStatus::Failed(e) => Err(std::mem::take(e)),
                other => Err(format!("unexpected status {other:?}")),
            },
            (Ok(()), Exertion::Job(_)) => unreachable!("the façade exerts the lent task in place"),
        };
        sessions.borrow_mut().0.insert(key, session);
        reply
    }

    /// "Get Sensor List".
    pub fn list_services(
        &self,
        env: &mut Env,
        from: HostId,
    ) -> Result<Vec<(String, String)>, String> {
        self.run(env, from, ops::LIST_SERVICES, [], |ctx| {
            match ctx.get("services/list") {
                Some(Value::List(xs)) => xs
                    .iter()
                    .filter_map(|v| match v {
                        Value::Map(m) => Some((
                            m.get("name").map(ToString::to_string).unwrap_or_default(),
                            m.get("type").map(ToString::to_string).unwrap_or_default(),
                        )),
                        _ => None,
                    })
                    .collect(),
                _ => Vec::new(),
            }
        })
    }

    /// Federation health snapshot, one row per host, as the façade's
    /// `networkHealth` operation serves it.
    pub fn network_health(&self, env: &mut Env, from: HostId) -> Result<Vec<HostHealth>, String> {
        self.run(env, from, ops::NETWORK_HEALTH, [], |ctx| {
            let Some(Value::List(xs)) = ctx.get("health/hosts") else {
                return Vec::new();
            };
            xs.iter()
                .filter_map(|v| {
                    let Value::Map(m) = v else { return None };
                    let int = |key: &str| match m.get(key) {
                        Some(Value::Int(i)) => Some(*i),
                        _ => None,
                    };
                    let s = |key: &str| match m.get(key) {
                        Some(Value::Str(s)) => s.to_string(),
                        _ => String::new(),
                    };
                    Some(HostHealth {
                        host: HostId(int("host")? as u32),
                        name: s("name"),
                        kind: s("kind"),
                        alive: matches!(m.get("alive"), Some(Value::Bool(true))),
                        services: match m.get("services") {
                            Some(Value::List(svcs)) => svcs
                                .iter()
                                .filter_map(|v| match v {
                                    Value::Str(s) => Some(s.to_string()),
                                    _ => None,
                                })
                                .collect(),
                            _ => Vec::new(),
                        },
                        last_read_age_ns: int("last_read_age_ns").map(|i| i as u64),
                        battery: match m.get("battery") {
                            Some(Value::Float(b)) => Some(*b),
                            _ => None,
                        },
                        retry_attempts: int("retry_attempts").unwrap_or(0) as u64,
                        retry_exhausted: int("retry_exhausted").unwrap_or(0) as u64,
                        substituted: int("substituted").unwrap_or(0) as u64,
                    })
                })
                .collect()
        })
    }

    /// SLO verdict sheet from the façade's health engine: `(healthy,
    /// alert count, report JSON)`. Errs when no SLOs are installed.
    pub fn slo_report(&self, env: &mut Env, from: HostId) -> Result<(bool, u64, String), String> {
        self.run(env, from, ops::SLO_REPORT, [], |ctx| {
            let healthy = matches!(ctx.get("slo/healthy"), Some(Value::Bool(true)));
            let alerts = match ctx.get("slo/alerts") {
                Some(Value::Int(n)) => *n as u64,
                _ => 0,
            };
            let json = ctx.get_str("slo/report").unwrap_or("{}").to_string();
            (healthy, alerts, json)
        })
    }

    /// "Get Value".
    pub fn get_value(
        &self,
        env: &mut Env,
        from: HostId,
        service: &str,
    ) -> Result<SensorReading, String> {
        self.get_value_detailed(env, from, service).map(|(r, _)| r)
    }

    /// "Get Value" on behalf of a named tenant: the request carries the
    /// tenant identity through the façade's admission gate, so quota,
    /// class budget and shed accounting apply to that tenant.
    pub fn get_value_as(
        &self,
        env: &mut Env,
        from: HostId,
        tenant: &str,
        service: &str,
    ) -> Result<SensorReading, String> {
        let args = [
            ("arg/service", Arg::Text(service)),
            ("arg/tenant", Arg::Text(tenant)),
        ];
        self.run(env, from, ops::GET_VALUE, args, SensorReading::from_context)?
            .ok_or_else(|| "no reading returned".to_string())
    }

    /// "Get Value", plus which composite children (if any) degraded.
    pub fn get_value_detailed(
        &self,
        env: &mut Env,
        from: HostId,
        service: &str,
    ) -> Result<(SensorReading, crate::accessor::DegradedInfo), String> {
        let args = [("arg/service", Arg::Text(service))];
        self.run(env, from, ops::GET_VALUE, args, |ctx| {
            SensorReading::from_context(ctx)
                .map(|r| (r, crate::accessor::DegradedInfo::from_context(ctx)))
        })?
        .ok_or_else(|| "no reading returned".to_string())
    }

    /// Recent stored measurements of a sensor service.
    pub fn get_history(
        &self,
        env: &mut Env,
        from: HostId,
        service: &str,
        count: usize,
    ) -> Result<Vec<f64>, String> {
        let args = [
            ("arg/service", Arg::Text(service)),
            ("arg/count", Arg::Value(Value::Int(count as i64))),
        ];
        self.run(env, from, ops::GET_HISTORY, args, |ctx| {
            match ctx.get("history/values") {
                Some(Value::List(xs)) => xs.iter().filter_map(Value::as_f64).collect(),
                _ => Vec::new(),
            }
        })
    }

    /// Sensor Service Information panel.
    pub fn get_info(
        &self,
        env: &mut Env,
        from: HostId,
        service: &str,
    ) -> Result<SensorInfo, String> {
        let args = [("arg/service", Arg::Text(service))];
        self.run(env, from, ops::GET_INFO, args, SensorInfo::from_context)?
            .ok_or_else(|| "no info returned".to_string())
    }

    /// "Compose Service": add children into a composite. Returns the
    /// variables assigned.
    pub fn compose_service(
        &self,
        env: &mut Env,
        from: HostId,
        composite: &str,
        children: &[&str],
    ) -> Result<Vec<String>, String> {
        let list = Value::List(children.iter().map(|&c| c.into()).collect());
        let args = [
            ("arg/composite", Arg::Text(composite)),
            ("arg/children", Arg::Value(list)),
        ];
        self.run(env, from, ops::COMPOSE_SERVICE, args, |ctx| {
            match ctx.get("mgmt/variables") {
                Some(Value::List(xs)) => xs.iter().map(ToString::to_string).collect(),
                _ => Vec::new(),
            }
        })
    }

    /// "Add Expression".
    pub fn add_expression(
        &self,
        env: &mut Env,
        from: HostId,
        service: &str,
        expression: &str,
    ) -> Result<(), String> {
        let args = [
            ("arg/service", Arg::Text(service)),
            ("arg/expression", Arg::Value(expression.into())),
        ];
        self.run(env, from, ops::ADD_EXPRESSION, args, |_| ())
    }

    /// "Create Service": provision a fresh composite onto a cybernode.
    pub fn create_service(
        &self,
        env: &mut Env,
        from: HostId,
        name: &str,
        children: &[&str],
        expression: Option<&str>,
    ) -> Result<(), String> {
        let list = || Value::List(children.iter().map(|&c| c.into()).collect());
        let args = [("arg/name", Arg::Text(name))]
            .into_iter()
            .chain((!children.is_empty()).then(|| ("arg/children", Arg::Value(list()))))
            .chain(expression.map(|e| ("arg/expression", Arg::Value(e.into()))));
        self.run(env, from, ops::CREATE_SERVICE, args, |_| ())
    }

    /// Remove a child from a composite.
    pub fn remove_service(
        &self,
        env: &mut Env,
        from: HostId,
        composite: &str,
        service: &str,
    ) -> Result<(), String> {
        let args = [
            ("arg/composite", Arg::Text(composite)),
            ("arg/service", Arg::Text(service)),
        ];
        self.run(env, from, ops::REMOVE_SERVICE, args, |_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csp::{deploy_csp, CspConfig};
    use crate::esp::{deploy_esp, EspConfig};
    use sensorcer_registry::lease::LeasePolicy;
    use sensorcer_registry::lus::LookupService;
    use sensorcer_sensors::prelude::*;
    use sensorcer_sim::prelude::*;

    struct World {
        env: Env,
        client: HostId,
        lus: LusHandle,
        facade: FacadeHandle,
    }

    fn setup() -> World {
        let mut env = Env::with_seed(1);
        let lab = env.add_host("lab", HostKind::Server);
        let client = env.add_host("client", HostKind::Workstation);
        let lus = LookupService::deploy(
            &mut env,
            lab,
            "LUS",
            "public",
            LeasePolicy::default(),
            SimDuration::from_millis(500),
        );
        let accessor = ServiceAccessor::new(vec![lus]);
        let facade = SensorcerFacade::deploy(&mut env, lab, "SenSORCER Facade", accessor, None);
        World {
            env,
            client,
            lus,
            facade,
        }
    }

    fn add_esp(w: &mut World, name: &str, value: f64) {
        let mote = w.env.add_host(format!("{name}-mote"), HostKind::SensorMote);
        deploy_esp(
            &mut w.env,
            EspConfig::new(
                mote,
                name,
                Box::new(ScriptedProbe::new(vec![value], Unit::Celsius)),
                w.lus,
            ),
        );
    }

    #[test]
    fn list_services_shows_registered_world() {
        let mut w = setup();
        add_esp(&mut w, "Neem-Sensor", 20.0);
        add_esp(&mut w, "Jade-Sensor", 21.0);
        let rows = w.facade.list_services(&mut w.env, w.client).unwrap();
        let names: Vec<&str> = rows.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"Neem-Sensor"));
        assert!(names.contains(&"Jade-Sensor"));
        assert!(names.contains(&"SenSORCER Facade"));
        let types: Vec<&str> = rows.iter().map(|(_, t)| t.as_str()).collect();
        assert!(types.contains(&"ELEMENTARY"));
        assert!(types.contains(&"FACADE"));
    }

    #[test]
    fn get_value_through_facade() {
        let mut w = setup();
        add_esp(&mut w, "Neem-Sensor", 21.5);
        let r = w
            .facade
            .get_value(&mut w.env, w.client, "Neem-Sensor")
            .unwrap();
        assert_eq!(r.value, 21.5);
        assert!(w.facade.get_value(&mut w.env, w.client, "Ghost").is_err());
    }

    #[test]
    fn compose_and_expression_workflow() {
        let mut w = setup();
        add_esp(&mut w, "Neem-Sensor", 20.0);
        add_esp(&mut w, "Jade-Sensor", 22.0);
        add_esp(&mut w, "Diamond-Sensor", 27.0);
        deploy_csp(
            &mut w.env,
            CspConfig::new(w.facade.host, "Composite-Service", w.lus),
        )
        .unwrap();

        let vars = w
            .facade
            .compose_service(
                &mut w.env,
                w.client,
                "Composite-Service",
                &["Neem-Sensor", "Jade-Sensor", "Diamond-Sensor"],
            )
            .unwrap();
        assert_eq!(vars, vec!["a", "b", "c"]);
        w.facade
            .add_expression(&mut w.env, w.client, "Composite-Service", "(a + b + c)/3")
            .unwrap();
        let r = w
            .facade
            .get_value(&mut w.env, w.client, "Composite-Service")
            .unwrap();
        assert_eq!(r.value, 23.0);

        let info = w
            .facade
            .get_info(&mut w.env, w.client, "Composite-Service")
            .unwrap();
        assert_eq!(info.expression.as_deref(), Some("(a + b + c)/3"));
        assert_eq!(info.contained.len(), 3);

        // Remove one child; expression referencing it drops.
        w.facade
            .remove_service(&mut w.env, w.client, "Composite-Service", "Jade-Sensor")
            .unwrap();
        let info = w
            .facade
            .get_info(&mut w.env, w.client, "Composite-Service")
            .unwrap();
        assert_eq!(info.contained.len(), 2);
        assert_eq!(info.expression, None);
    }

    #[test]
    fn history_through_the_facade() {
        let mut w = setup();
        add_esp(&mut w, "H", 21.0);
        // Three direct reads fill the ESP's local store.
        for _ in 0..3 {
            w.facade.get_value(&mut w.env, w.client, "H").unwrap();
        }
        let hist = w.facade.get_history(&mut w.env, w.client, "H", 10).unwrap();
        assert_eq!(hist.len(), 3);
        assert!(hist.iter().all(|v| *v == 21.0));
        assert!(w
            .facade
            .get_history(&mut w.env, w.client, "Ghost", 5)
            .is_err());
    }

    #[test]
    fn network_health_reports_liveness_staleness_and_degradation() {
        let mut w = setup();
        add_esp(&mut w, "Neem-Sensor", 20.0);
        add_esp(&mut w, "Jade-Sensor", 22.0);
        w.facade
            .get_value(&mut w.env, w.client, "Neem-Sensor")
            .unwrap();
        w.env.run_for(SimDuration::from_secs(2));

        let rows = w.facade.network_health(&mut w.env, w.client).unwrap();
        assert_eq!(rows.len(), w.env.topo.host_count(), "one row per host");
        let by_name = |rows: &[HostHealth], n: &str| -> HostHealth {
            rows.iter().find(|r| r.name == n).unwrap().clone()
        };

        let neem = by_name(&rows, "Neem-Sensor-mote");
        assert!(neem.alive);
        assert_eq!(neem.kind, "SensorMote");
        assert_eq!(neem.services, vec!["Neem-Sensor".to_string()]);
        let age = neem
            .last_read_age_ns
            .expect("read was served from this mote");
        assert!(
            age >= SimDuration::from_secs(2).as_nanos(),
            "age counts from the read"
        );
        assert!(neem.battery.unwrap_or(0.0) > 0.0);

        let jade = by_name(&rows, "Jade-Sensor-mote");
        assert_eq!(jade.last_read_age_ns, None, "never read");

        // Kill a mote: the next snapshot reflects it (liveness is live
        // topology state; the lapsed registration follows the lease).
        let dead = neem.host;
        w.env.crash_host(dead);
        let rows = w.facade.network_health(&mut w.env, w.client).unwrap();
        assert!(!by_name(&rows, "Neem-Sensor-mote").alive);
    }

    #[test]
    fn slo_report_through_the_facade() {
        use sensorcer_obs::SloKind;
        let mut env = Env::with_seed(3);
        let lab = env.add_host("lab", HostKind::Server);
        let client = env.add_host("client", HostKind::Workstation);
        let lus = LookupService::deploy(
            &mut env,
            lab,
            "LUS",
            "public",
            LeasePolicy::default(),
            SimDuration::from_millis(500),
        );
        let accessor = ServiceAccessor::new(vec![lus]);
        let facade = SensorcerFacade::deploy_with_slos(
            &mut env,
            lab,
            "Facade",
            accessor,
            None,
            vec![
                SloSpec::new("t-avail", "T", SloKind::Availability { min_ratio: 0.9 }),
                SloSpec::new(
                    "t-fresh",
                    "T",
                    SloKind::Freshness {
                        max_age_ns: SimDuration::from_secs(60).as_nanos(),
                        min_ratio: 0.99,
                    },
                ),
            ],
        );
        let mut w = World {
            env,
            client,
            lus,
            facade,
        };
        add_esp(&mut w, "T", 20.0);

        // Clean traffic: both objectives met, zero alerts.
        for _ in 0..5 {
            w.facade.get_value(&mut w.env, w.client, "T").unwrap();
        }
        let (healthy, alerts, json) = w.facade.slo_report(&mut w.env, w.client).unwrap();
        assert!(healthy, "{json}");
        assert_eq!(alerts, 0);
        assert!(json.contains("\"t-avail\""));
        assert!(json.contains("\"t-fresh\""));
        assert!(json.contains("\"total\": 5"));

        // Failed reads are recorded as errors against availability.
        w.env.crash_host(w.env.topo.hosts().last().unwrap().id);
        for _ in 0..5 {
            let _ = w.facade.get_value(&mut w.env, w.client, "T");
        }
        let (healthy, _, json) = w.facade.slo_report(&mut w.env, w.client).unwrap();
        assert!(!healthy, "50% errors blow a 10% budget: {json}");
        assert!(json.contains("\"met\": false"));
    }

    #[test]
    fn slo_report_without_slos_fails_cleanly() {
        let mut w = setup();
        let err = w.facade.slo_report(&mut w.env, w.client).unwrap_err();
        assert!(err.contains("no SLOs"), "{err}");
    }

    #[test]
    fn create_service_without_monitor_fails() {
        let mut w = setup();
        let err = w
            .facade
            .create_service(&mut w.env, w.client, "X", &[], None)
            .unwrap_err();
        assert!(err.contains("monitor"), "{err}");
    }

    #[test]
    fn facade_rejects_unknown_op_and_bad_args() {
        let mut w = setup();
        let err = w
            .facade
            .run(&mut w.env, w.client, "selfDestruct", [], |_| ())
            .unwrap_err();
        assert!(err.contains("no operation"));
        let err = w
            .facade
            .run(&mut w.env, w.client, ops::GET_VALUE, [], |_| ())
            .unwrap_err();
        assert!(err.contains("arg/service"));
        let err = w
            .facade
            .run(
                &mut w.env,
                w.client,
                ops::COMPOSE_SERVICE,
                [("arg/composite", Arg::Text("X"))],
                |_| (),
            )
            .unwrap_err();
        assert!(err.contains("children"));
    }

    #[test]
    fn facade_unreachable_reports_cleanly() {
        let mut w = setup();
        w.env.crash_host(w.facade.host);
        let err = w.facade.list_services(&mut w.env, w.client).unwrap_err();
        assert!(err.contains("unreachable"), "{err}");
    }
}
