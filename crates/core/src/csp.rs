//! The Composite Sensor Provider.
//!
//! A CSP "composes both ESPs and CSPs, processes service requests,
//! collects the sensor data from its component sensor services, and makes
//! its values defined in terms of component values available via the
//! `SensorDataAccessor` interface" (§V.B). Children are bound to
//! dynamically created expression variables (`a`, `b`, `c`, … — exactly
//! as Fig. 3 shows) and a user-supplied compute expression combines them;
//! with no expression the CSP reports the component average.
//!
//! Because a CSP is itself a `SensorDataAccessor`, CSPs nest — "the CSP's
//! ability to contain other CSPs makes logical sensor networking
//! possible" — and reading the root of a composite tree federates reads
//! across the whole logical network, in parallel.

use std::sync::Arc;

use sensorcer_exertion::prelude::*;
use sensorcer_expr::{Program, SlotFrame, Text, Value};
use sensorcer_registry::attributes::Entry;
use sensorcer_registry::ids::{interfaces, SvcUuid};
use sensorcer_registry::item::ServiceItem;
use sensorcer_registry::lus::LusHandle;
use sensorcer_registry::renewal::RenewalHandle;
use sensorcer_registry::txn::TxnId;
use sensorcer_sensors::calib::Calibration;
use sensorcer_sim::env::{Env, ServiceId};
use sensorcer_sim::time::{SimDuration, SimTime};
use sensorcer_sim::topology::{HostId, NetError};
use sensorcer_sim::trace::{Outcome, SpanId};

use crate::accessor::{mgmt, selectors, SensorInfo};

/// Metric keys bumped by composite reads.
pub mod keys {
    /// Equivalence-group failovers attempted after a primary failure.
    pub const FAILOVER_ATTEMPTS: &str = "csp.failover.attempts";
    /// Failovers that produced a usable reading.
    pub const FAILOVER_SUCCESS: &str = "csp.failover.success";
    /// Reads that completed only by degrading (substituted/missing children).
    pub const DEGRADED_READS: &str = "csp.reads.degraded";
    /// Children substituted from the last-known-good cache.
    pub const SUBSTITUTED_CHILDREN: &str = "csp.children.substituted";
    /// Children skipped entirely — failed with no cached value to lend.
    pub const MISSING_CHILDREN: &str = "csp.children.missing";
}

/// What a composite does when a child read still fails after retry and
/// equivalence-group failover.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DegradationPolicy {
    /// All-or-nothing: any failed child fails the whole read (the
    /// historical behaviour, and the default).
    #[default]
    Strict,
    /// The read succeeds while at least `n` children deliver fresh
    /// readings; the rest are substituted from last-known-good values
    /// where available (or skipped by the default aggregate). The result
    /// is flagged `suspect` — never silently clean.
    Quorum(usize),
    /// Every failed child is substituted by its last delivered value, as
    /// long as that value is no older than `max_age`; the result is
    /// flagged `suspect`. A child with no recent-enough value fails the
    /// read.
    LastKnownGood { max_age: SimDuration },
}

/// One cached child reading for degraded-mode substitution.
#[derive(Clone, Debug)]
struct LastGood {
    value: f64,
    unit: Text,
    at: SimTime,
}

/// One composed child service.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Child {
    /// Expression variable bound to this child (`a`, `b`, ...).
    pub var: String,
    /// The child's provider `Name` attribute.
    pub service_name: String,
    /// Optional equivalence group: when the named provider is not
    /// available, "the request can be passed on to the equivalent
    /// available service provider" (§V.A) — any provider registered with
    /// this `equivalence-group` attribute.
    pub group: Option<String>,
}

/// Variable name for child position `i`: `a`..`z`, then `v26`, `v27`, …
pub fn variable_for(i: usize) -> String {
    if i < 26 {
        ((b'a' + i as u8) as char).to_string()
    } else {
        format!("v{i}")
    }
}

/// Breadcrumb context path used to detect composition cycles at read time.
const VISITED_PATH: &str = "composite/visited";

/// The header of the request to one child.
struct ChildRequest {
    /// Task name, `read <child>`.
    label: Arc<str>,
    /// Provider pin of the signature, `<child>`.
    pin: Arc<str>,
}

/// Make the composite's in-flight request the one `to` gets, exactly as a
/// freshly built task would read: whatever the last hop left behind (a
/// reply, a failure, another child's pin) is gone, and the buffers stay.
fn arm(request: &mut Exertion, to: &ChildRequest, visited: &Value) {
    let Exertion::Task(task) = request else {
        unreachable!("providers exert a lent task in place; none replaces it")
    };
    task.name.clone_from(&to.label);
    task.signature.provider_name = Some(Arc::clone(&to.pin));
    task.status = ExertionStatus::Initial;
    task.trace.clear();
    task.context.clear();
    task.context.put(VISITED_PATH, visited.clone());
}

/// Registration attribute key marking interchangeable providers (§V.A's
/// "equivalent available service provider").
pub const EQUIVALENCE_GROUP_KEY: &str = "equivalence-group";

/// The provider state.
pub struct CompositeSensorProvider {
    name: String,
    /// `name` as this provider's entry in the visited breadcrumb.
    breadcrumb: Value,
    exerted_by: Arc<str>,
    uuid: String,
    host: HostId,
    accessor: ServiceAccessor,
    children: Vec<Child>,
    /// What differs between the requests to two children: the label
    /// (`read <name>`) and the provider pin (`<name>`), rebuilt whenever
    /// `children` changes so the per-read fan-out formats nothing.
    requests: Vec<ChildRequest>,
    /// The one request this composite has in flight, signed
    /// `SensorDataAccessor#getValue`. The fan-out is sequential on the
    /// host, so every primary, re-bind and failover hop [`arm`]s this same
    /// task for its child, lends it down and reads the reply out of it:
    /// the context and trace buffers are allocated once per composite,
    /// not once per hop.
    in_flight: Exertion,
    expression: Option<Program>,
    /// Reusable slot frame for expression evaluation (no per-read scope).
    frame: SlotFrame,
    /// Output calibration applied to the computed composite value.
    pub calibration: Calibration,
    /// Binding-cache switch (on by default). Exists for the A1 ablation
    /// bench: with it off, every child read pays a LUS lookup, the
    /// original Jini-without-proxy-reuse behaviour.
    pub binding_cache_enabled: bool,
    /// What to do when a child read fails after retry + failover.
    pub degradation: DegradationPolicy,
    /// Retry budget applied to each child dispatch (primary bindings;
    /// the group-fallback hop stays single-shot to bound read latency).
    pub retry: RetryPolicy,
    /// Per-servicer circuit breakers, consulted before every child
    /// dispatch (primary, re-bind and failover hops alike): an open
    /// breaker skips the target instead of burning the retry budget
    /// against a host that keeps timing out.
    pub breakers: Option<crate::admission::SharedBreakers>,
    /// Last clean reading per child position, for degraded-mode
    /// substitution. Only mutated after the parallel fan-out returns.
    last_good: Vec<Option<LastGood>>,
    reads_total: u64,
    /// Cached proxy per child position (the Jini model: a downloaded proxy
    /// is reused until it fails). Invalidated per child on network
    /// failure, so a re-provisioned child is re-bound on the next read.
    bindings: Vec<Option<ServiceId>>,
}

impl CompositeSensorProvider {
    pub fn new(name: impl Into<String>, host: HostId, accessor: ServiceAccessor) -> Self {
        let name = name.into();
        CompositeSensorProvider {
            exerted_by: exerted_by(&name),
            breadcrumb: name.as_str().into(),
            name,
            uuid: String::new(),
            host,
            accessor,
            children: Vec::new(),
            requests: Vec::new(),
            in_flight: Task::new(
                "",
                Signature::new(interfaces::SENSOR_DATA_ACCESSOR, selectors::GET_VALUE),
                Context::new(),
            )
            .into(),
            expression: None,
            frame: SlotFrame::new(),
            calibration: Calibration::Identity,
            binding_cache_enabled: true,
            degradation: DegradationPolicy::Strict,
            retry: RetryPolicy::none(),
            breakers: None,
            last_good: Vec::new(),
            reads_total: 0,
            bindings: Vec::new(),
        }
    }

    pub fn children(&self) -> &[Child] {
        &self.children
    }

    pub fn expression_source(&self) -> Option<&str> {
        self.expression.as_ref().map(Program::source)
    }

    pub fn reads_total(&self) -> u64 {
        self.reads_total
    }

    /// Add a child service by provider name; returns the variable bound to
    /// it. "The variables that are used in the expression are created
    /// dynamically, as the services are added into the composite provider"
    /// (§VI).
    pub fn add_service(&mut self, service_name: &str) -> Result<String, String> {
        self.add_service_grouped(service_name, None)
    }

    /// Like [`CompositeSensorProvider::add_service`], with an equivalence
    /// group to fall back to when the named provider is unavailable.
    pub fn add_service_grouped(
        &mut self,
        service_name: &str,
        group: Option<String>,
    ) -> Result<String, String> {
        if service_name == self.name {
            return Err(format!("composite '{}' cannot contain itself", self.name));
        }
        if self.children.iter().any(|c| c.service_name == service_name) {
            return Err(format!("'{service_name}' is already composed"));
        }
        let var = variable_for(self.children.len());
        self.children.push(Child {
            var: var.clone(),
            service_name: service_name.to_string(),
            group,
        });
        self.last_good.push(None);
        self.bindings.push(None);
        self.rebuild_requests();
        Ok(var)
    }

    /// Recompute the per-child request headers from `children`. Called on
    /// every composition change so reads find everything precomputed.
    fn rebuild_requests(&mut self) {
        self.requests = self
            .children
            .iter()
            .map(|child| ChildRequest {
                label: format!("read {}", child.service_name).into(),
                pin: child.service_name.as_str().into(),
            })
            .collect();
    }

    /// Remove a child. Remaining children are re-lettered by position so
    /// variables always run `a`, `b`, `c`, … without gaps; an installed
    /// expression is re-validated and dropped if it no longer binds.
    pub fn remove_service(&mut self, service_name: &str) -> Result<(), String> {
        let pos = self
            .children
            .iter()
            .position(|c| c.service_name == service_name)
            .ok_or_else(|| format!("'{service_name}' is not composed here"))?;
        self.children.remove(pos);
        self.last_good.remove(pos);
        self.bindings.remove(pos);
        for (i, child) in self.children.iter_mut().enumerate() {
            child.var = variable_for(i);
        }
        self.rebuild_requests();
        if let Some(expr) = &self.expression {
            let vars: Vec<&str> = self.children.iter().map(|c| c.var.as_str()).collect();
            if !expr.missing_inputs(&vars).is_empty() {
                self.expression = None;
            }
        }
        Ok(())
    }

    /// Install the compute expression, checking every input variable is
    /// bound to a composed child.
    pub fn set_expression(&mut self, source: &str) -> Result<(), String> {
        let program = Program::compile(source).map_err(|e| e.to_string())?;
        let vars: Vec<&str> = self.children.iter().map(|c| c.var.as_str()).collect();
        let missing = program.missing_inputs(&vars);
        if !missing.is_empty() {
            return Err(format!(
                "expression references unbound variable(s): {} (bound: {})",
                missing.join(", "),
                vars.join(", ")
            ));
        }
        self.expression = Some(program);
        Ok(())
    }

    /// Collect all child values (in parallel across the federation) and
    /// compute the composite value.
    /// Traced wrapper: a `csp.read` span covers the whole fan-out, with
    /// the degradation verdict attached after the inner read settles.
    fn handle_get_value(&mut self, env: &mut Env, task: &mut Task) {
        let span = if env.tracing_enabled() {
            let label = self.name.clone();
            let s = env.span_start("csp.read", &label, self.host);
            env.span_field(s, "children", self.children.len());
            s
        } else {
            SpanId::INVALID
        };
        self.get_value_inner(env, task);
        if span.is_valid() {
            match task.status.clone() {
                ExertionStatus::Failed(e) => {
                    env.span_field(span, "error", e);
                    env.span_end(span, Outcome::Error);
                }
                _ => {
                    let substituted = task
                        .context
                        .get_str(paths::SENSOR_SUBSTITUTED)
                        .map(str::to_string);
                    let missing = task
                        .context
                        .get_str(paths::SENSOR_MISSING)
                        .map(str::to_string);
                    let degraded = substituted.is_some() || missing.is_some();
                    if let Some(s) = substituted {
                        env.span_field(span, "substituted", s);
                    }
                    if let Some(m) = missing {
                        env.span_field(span, "missing", m);
                    }
                    env.span_end(
                        span,
                        if degraded {
                            Outcome::Degraded
                        } else {
                            Outcome::Ok
                        },
                    );
                }
            }
        }
    }

    fn get_value_inner(&mut self, env: &mut Env, task: &mut Task) {
        self.reads_total += 1;
        if self.children.is_empty() {
            task.fail(format!(
                "composite '{}' has no composed services",
                self.name
            ));
            return;
        }

        // Cycle guard: refuse to read if this provider already appears in
        // the visited breadcrumb of the incoming request.
        let above: &[Value] = match task.context.get(VISITED_PATH) {
            Some(Value::List(xs)) => xs,
            _ => &[],
        };
        if above
            .iter()
            .any(|v| matches!(v, Value::Str(s) if **s == *self.name))
        {
            task.fail(format!("composition cycle detected at '{}'", self.name));
            return;
        }
        // One breadcrumb list for the whole fan-out, built once per read:
        // every child request shares it.
        let visited = Value::List(
            above
                .iter()
                .cloned()
                .chain([self.breadcrumb.clone()])
                .collect(),
        );

        // Fan the child reads out in parallel — this is a small federation
        // exerted for this request. Every hop re-arms and lends the one
        // in-flight request; nothing per-child is formatted or allocated
        // here. Bindings are cached (the Jini proxy model): only an unknown
        // or failed child costs a LUS lookup.
        let accessor = &self.accessor;
        let bindings = &mut self.bindings;
        let cache_enabled = self.binding_cache_enabled;
        let host = self.host;
        let retry = self.retry;
        let breakers = self.breakers.as_ref();
        let children = &self.children;
        let requests = &self.requests;
        let request = &mut self.in_flight;
        let collected = env.parallel_over(
            0..children.len(),
            |env: &mut Env, idx: usize| -> Result<(f64, Text, bool), String> {
                let child = &children[idx];
                // One `csp.child` span per fan-out branch; the dispatch
                // spans and retry events nest under it.
                let span = env.span_start("csp.child", &child.service_name, host);
                let child_start = env.now();
                let name: &str = &child.service_name;
                let binding = &mut bindings[idx];
                let to = &requests[idx];
                let mut run = |env: &mut Env| -> Result<(f64, Text, bool), String> {
                    // One hop: arm the request for this child, lend it to
                    // `svc` under `budget`, tell the breaker how the wire
                    // behaved, and read the reply where it lies (the unit
                    // is moved out of its context, not copied). The outer
                    // error means no reply came back at all.
                    let mut hop = |env: &mut Env,
                                   svc: ServiceId,
                                   budget: &RetryPolicy,
                                   who: &str|
                     -> Result<Result<(f64, Text, bool), String>, NetError> {
                        arm(request, to, &visited);
                        let sent =
                            exert_in_place_rearmed(env, host, svc, request, None, budget, |r| {
                                arm(r, to, &visited)
                            });
                        if let Some(b) = breakers {
                            b.borrow_mut().record(env, svc, sent.err());
                        }
                        sent?;
                        Ok(match request.status() {
                            ExertionStatus::Done => {
                                let ctx = request.context_mut();
                                match ctx.get_f64(paths::SENSOR_VALUE) {
                                    Some(v) => {
                                        let good =
                                            ctx.get_str(paths::SENSOR_QUALITY) != Some("suspect");
                                        let unit = match ctx.remove(paths::SENSOR_UNIT) {
                                            Some(Value::Str(u)) => u,
                                            _ => Text::Static(""),
                                        };
                                        Ok((v, unit, good))
                                    }
                                    None => Err(format!("'{who}' returned no value")),
                                }
                            }
                            ExertionStatus::Failed(e) => Err(format!("'{who}': {e}")),
                            other => Err(format!("'{who}': unexpected status {other:?}")),
                        })
                    };

                    // Resolve the named provider: cached proxy first; a
                    // stale proxy is dropped and the name re-bound within
                    // this same read.
                    let mut failure: Option<String> = None;
                    let cached = if cache_enabled { *binding } else { None };
                    if let Some(svc) = cached {
                        if breakers.is_some_and(|b| !b.borrow_mut().allow(env, svc)) {
                            // Breaker open: a fresh bind would reach the
                            // same tripped provider, so skip straight to
                            // the group fallback without retrying.
                            failure = Some(format!("'{name}': breaker open"));
                        } else {
                            match hop(env, svc, &retry, name) {
                                Ok(Ok(v)) => return Ok(v),
                                // Answered but failed (dead transducer,
                                // expression error in a nested CSP, ...) —
                                // a fresh bind would reach the same
                                // provider, so skip straight to the group
                                // fallback.
                                Ok(Err(e)) => failure = Some(e),
                                // Stale proxy: drop and re-bind below.
                                Err(_) => *binding = None,
                            }
                        }
                    }
                    if failure.is_none() {
                        let bound =
                            accessor.bind(env, host, interfaces::SENSOR_DATA_ACCESSOR, Some(name));
                        match bound {
                            Some(item)
                                if breakers
                                    .is_some_and(|b| !b.borrow_mut().allow(env, item.service)) =>
                            {
                                failure = Some(format!("'{name}': breaker open"));
                            }
                            Some(item) => {
                                if cache_enabled {
                                    *binding = Some(item.service);
                                }
                                match hop(env, item.service, &retry, name) {
                                    Ok(Ok(v)) => return Ok(v),
                                    Ok(Err(e)) => failure = Some(e),
                                    Err(e) => {
                                        *binding = None;
                                        failure =
                                            Some(format!("'{name}': provider unreachable: {e}"));
                                    }
                                }
                            }
                            None => failure = Some(format!("'{name}': no provider found")),
                        }
                    }

                    // §V.A: "If for any reason, a particular sensor service
                    // is not available, the request can be passed on to the
                    // equivalent available service provider" — whether the
                    // named provider is gone *or* answered with a failure.
                    if let Some(group) = child.group.as_deref() {
                        env.metrics.add(keys::FAILOVER_ATTEMPTS, 1);
                        if span.is_valid() {
                            // elapsed_ns: how much of this child's budget
                            // the primary burned before we gave up on it.
                            env.span_event(
                                span,
                                "failover.attempt",
                                vec![
                                    ("group", group.into()),
                                    ("elapsed_ns", (env.now() - child_start).as_nanos().into()),
                                ],
                            );
                        }
                        let primary = failure
                            .take()
                            .unwrap_or_else(|| format!("'{name}': read failed"));
                        let equivalent = accessor.bind_by_attr_excluding(
                            env,
                            host,
                            interfaces::SENSOR_DATA_ACCESSOR,
                            sensorcer_registry::attributes::AttrMatch::Custom {
                                key: Some(EQUIVALENCE_GROUP_KEY.into()),
                                value: Some(group.into()),
                            },
                            Some(name),
                        );
                        match equivalent {
                            Some(item)
                                if breakers
                                    .is_some_and(|b| !b.borrow_mut().allow(env, item.service)) =>
                            {
                                failure = Some(format!("{primary}; equivalent breaker open"));
                            }
                            Some(item) => {
                                let eq = item.name().unwrap_or("equivalent").to_string();
                                // The failover hop stays single-shot: the
                                // retry budget was already spent on the
                                // primary.
                                match hop(env, item.service, &RetryPolicy::none(), &eq) {
                                    Ok(Ok(v)) => {
                                        env.metrics.add(keys::FAILOVER_SUCCESS, 1);
                                        if span.is_valid() {
                                            env.span_event(
                                                span,
                                                "failover.success",
                                                vec![
                                                    ("equivalent", eq.as_str().into()),
                                                    (
                                                        "elapsed_ns",
                                                        (env.now() - child_start).as_nanos().into(),
                                                    ),
                                                ],
                                            );
                                        }
                                        // Deliberately not cached: the
                                        // primary is retried next read.
                                        return Ok(v);
                                    }
                                    Ok(Err(e)) => {
                                        failure = Some(format!("{primary}; equivalent {e}"));
                                    }
                                    Err(e) => {
                                        failure = Some(format!(
                                            "{primary}; equivalent '{eq}' unreachable: {e}"
                                        ));
                                    }
                                }
                            }
                            None => {
                                failure = Some(format!(
                                    "{primary}; no equivalent provider in group '{group}' available"
                                ));
                            }
                        }
                    }
                    Err(failure.unwrap_or_else(|| format!("'{name}': read failed")))
                };
                let outcome = run(env);
                match &outcome {
                    Ok((_, _, good)) => {
                        if span.is_valid() && !*good {
                            env.span_field(span, "quality", "suspect");
                        }
                        env.span_end(span, Outcome::Ok);
                    }
                    Err(e) => {
                        if span.is_valid() {
                            env.span_field(span, "error", e.as_str());
                        }
                        env.span_end(span, Outcome::Error);
                    }
                }
                outcome
            },
        );
        // The hub pays CPU per child for demarshalling and bookkeeping —
        // child reads overlap on the network, but aggregation work on this
        // provider is serial. This is what makes very wide flat composites
        // lose to hierarchies (B2).
        env.consume(sensorcer_sim::time::SimDuration::from_micros(120) * collected.len() as u64);

        let mut unit = Text::Static("");
        let mut all_good = true;
        let mut errors: Vec<(usize, String)> = Vec::new();
        // Already in the shape the expression binds; the default average
        // reads the same list back through `as_f64`.
        let mut readings: Vec<(&str, Value)> = Vec::with_capacity(collected.len());
        let now = env.now();
        for (idx, outcome) in collected.into_iter().enumerate() {
            match outcome {
                Ok((v, u, good)) => {
                    readings.push((&children[idx].var, Value::Float(v)));
                    all_good &= good;
                    if unit.is_empty() {
                        unit.clone_from(&u);
                    }
                    if good {
                        // Fresh clean reading — remember it for future
                        // degraded reads of this child.
                        self.last_good[idx] = Some(LastGood {
                            value: v,
                            unit: u,
                            at: now,
                        });
                    }
                }
                Err(e) => errors.push((idx, e)),
            }
        }

        // Children that still failed after retry and failover: what happens
        // next is the composite's degradation policy. Substitutions are
        // surfaced in the result context — a degraded read is never
        // silently clean.
        let mut substituted: Vec<&str> = Vec::new();
        let mut missing: Vec<&str> = Vec::new();
        if !errors.is_empty() {
            match self.degradation {
                DegradationPolicy::Strict => {
                    let msgs: Vec<&str> = errors.iter().map(|(_, e)| e.as_str()).collect();
                    task.fail(format!("component read failures: {}", msgs.join("; ")));
                    return;
                }
                DegradationPolicy::Quorum(n) => {
                    if readings.len() < n {
                        let msgs: Vec<&str> = errors.iter().map(|(_, e)| e.as_str()).collect();
                        task.fail(format!(
                            "quorum not met: {} of {} children answered (need {}); {}",
                            readings.len(),
                            children.len(),
                            n,
                            msgs.join("; ")
                        ));
                        return;
                    }
                    for (idx, _) in &errors {
                        let child = children[*idx].service_name.as_str();
                        match &self.last_good[*idx] {
                            Some(lg) => {
                                readings.push((&children[*idx].var, Value::Float(lg.value)));
                                if unit.is_empty() {
                                    unit.clone_from(&lg.unit);
                                }
                                let age = now - lg.at;
                                let cur = env.current_span();
                                if cur.is_valid() {
                                    env.span_event(
                                        cur,
                                        "degradation.substitute",
                                        vec![
                                            ("child", child.into()),
                                            ("age_ns", age.as_nanos().into()),
                                        ],
                                    );
                                }
                                env.metrics
                                    .add_labeled(keys::SUBSTITUTED_CHILDREN, child, 1);
                                substituted.push(child);
                            }
                            None => {
                                let cur = env.current_span();
                                if cur.is_valid() {
                                    env.span_event(
                                        cur,
                                        "degradation.missing",
                                        vec![("child", child.into())],
                                    );
                                }
                                env.metrics.add_labeled(keys::MISSING_CHILDREN, child, 1);
                                missing.push(child);
                            }
                        }
                    }
                }
                DegradationPolicy::LastKnownGood { max_age } => {
                    for (idx, e) in &errors {
                        let child = children[*idx].service_name.as_str();
                        match &self.last_good[*idx] {
                            Some(lg) if now - lg.at <= max_age => {
                                readings.push((&children[*idx].var, Value::Float(lg.value)));
                                if unit.is_empty() {
                                    unit.clone_from(&lg.unit);
                                }
                                let age = now - lg.at;
                                let cur = env.current_span();
                                if cur.is_valid() {
                                    env.span_event(
                                        cur,
                                        "degradation.substitute",
                                        vec![
                                            ("child", child.into()),
                                            ("age_ns", age.as_nanos().into()),
                                        ],
                                    );
                                }
                                env.metrics
                                    .add_labeled(keys::SUBSTITUTED_CHILDREN, child, 1);
                                substituted.push(child);
                            }
                            _ => {
                                task.fail(format!(
                                    "failed child has no recent last-known-good value: {e}"
                                ));
                                return;
                            }
                        }
                    }
                }
            }
            if !missing.is_empty() && self.expression.is_some() {
                task.fail(format!(
                    "degraded read cannot bind expression variables for missing children: {}",
                    missing.join(", ")
                ));
                return;
            }
            all_good = false;
            env.metrics.add(keys::DEGRADED_READS, 1);
            env.metrics
                .add(keys::SUBSTITUTED_CHILDREN, substituted.len() as u64);
        }

        // The expression evaluation gets its own span: a read that fails
        // *here* failed on the hub, after every child already answered.
        let eval_span = match (&self.expression, env.tracing_enabled()) {
            (Some(program), true) => {
                let s = env.span_start("csp.eval", program.source(), self.host);
                env.span_field(s, "inputs", readings.len());
                s
            }
            _ => SpanId::INVALID,
        };
        let computed = match &self.expression {
            Some(program) => match program.bind_in(&readings, &mut self.frame) {
                Ok(v) => match v.as_f64() {
                    Some(x) => x,
                    None => {
                        let msg = format!("expression produced non-numeric value: {v}");
                        if eval_span.is_valid() {
                            env.span_field(eval_span, "error", msg.as_str());
                        }
                        env.span_end(eval_span, Outcome::Error);
                        task.fail(msg);
                        return;
                    }
                },
                Err(e) => {
                    let msg = format!("expression error: {e}");
                    if eval_span.is_valid() {
                        env.span_field(eval_span, "error", msg.as_str());
                    }
                    env.span_end(eval_span, Outcome::Error);
                    task.fail(msg);
                    return;
                }
            },
            // Default aggregation when no expression is installed.
            None => {
                readings.iter().filter_map(|(_, v)| v.as_f64()).sum::<f64>() / readings.len() as f64
            }
        };
        env.span_end(eval_span, Outcome::Ok);
        let value = self.calibration.apply(computed);

        task.context.put(paths::SENSOR_VALUE, value);
        task.context.put(paths::RESULT, value);
        task.context.put(paths::SENSOR_UNIT, unit);
        task.context
            .put(paths::SENSOR_AT, env.now().as_nanos() as f64);
        task.context.put(
            paths::SENSOR_QUALITY,
            Value::literal(if all_good { "good" } else { "suspect" }),
        );
        if !substituted.is_empty() {
            task.context
                .put(paths::SENSOR_SUBSTITUTED, substituted.join(","));
        }
        if !missing.is_empty() {
            task.context.put(paths::SENSOR_MISSING, missing.join(","));
        }
        task.status = ExertionStatus::Done;
    }

    fn handle_get_info(&mut self, task: &mut Task) {
        let info = SensorInfo {
            name: self.name.clone(),
            service_type: "COMPOSITE".into(),
            uuid: self.uuid.clone(),
            contained: self
                .children
                .iter()
                .map(|c| c.service_name.clone())
                .collect(),
            expression: self.expression_source().map(str::to_string),
            unit: String::new(),
            battery: 1.0,
        };
        info.write_to(&mut task.context);
        task.status = ExertionStatus::Done;
    }

    fn handle_management(&mut self, task: &mut Task) {
        let outcome = match &*task.signature.selector {
            mgmt::ADD_SERVICE => match task.context.get_str("arg/service") {
                Some(name) => {
                    let group = task.context.get_str("arg/group").map(str::to_string);
                    self.add_service_grouped(name, group).map(|var| {
                        task.context.put("mgmt/variable", var);
                    })
                }
                None => Err("addService needs arg/service".into()),
            },
            mgmt::REMOVE_SERVICE => match task.context.get_str("arg/service") {
                Some(name) => self.remove_service(name),
                None => Err("removeService needs arg/service".into()),
            },
            mgmt::SET_EXPRESSION => match task.context.get_str("arg/expression") {
                Some(src) => self.set_expression(src),
                None => Err("setExpression needs arg/expression".into()),
            },
            other => Err(format!(
                "'{}' has no management operation '{other}'",
                self.name
            )),
        };
        match outcome {
            Ok(()) => task.status = ExertionStatus::Done,
            Err(e) => task.fail(e),
        }
    }
}

impl Servicer for CompositeSensorProvider {
    fn provider_name(&self) -> &str {
        &self.name
    }

    fn service(&mut self, env: &mut Env, exertion: &mut Exertion, _txn: Option<TxnId>) {
        let Exertion::Task(task) = exertion else {
            if let Exertion::Job(job) = exertion {
                job.status = ExertionStatus::Failed(format!(
                    "composite provider '{}' executes tasks; jobs go to rendezvous peers",
                    self.name
                ));
            }
            return;
        };
        task.trace.push(Arc::clone(&self.exerted_by));
        match &*task.signature.interface {
            i if i == interfaces::SENSOR_DATA_ACCESSOR => match &*task.signature.selector {
                selectors::GET_VALUE => self.handle_get_value(env, task),
                selectors::GET_INFO => self.handle_get_info(task),
                selectors::GET_HISTORY => task.fail(format!(
                    "composite '{}' computes values on demand; ask its components for history",
                    self.name
                )),
                other => task.fail(format!("'{}' has no operation '{other}'", self.name)),
            },
            i if i == interfaces::COMPOSITE_MANAGEMENT => self.handle_management(task),
            other => task.fail(format!("'{}' does not implement {other}", self.name)),
        }
    }
}

impl std::fmt::Debug for CompositeSensorProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompositeSensorProvider")
            .field("name", &self.name)
            .field("children", &self.children)
            .field("expression", &self.expression_source())
            .finish()
    }
}

/// Configuration for standing a CSP up.
pub struct CspConfig {
    pub host: HostId,
    pub name: String,
    pub lus: LusHandle,
    pub renewal: Option<RenewalHandle>,
    pub lease: SimDuration,
    /// Children to compose at startup (provider names).
    pub children: Vec<String>,
    /// Compute expression to install at startup.
    pub expression: Option<String>,
    /// What a failed child does to the composite read (default: Strict).
    pub degradation: DegradationPolicy,
    /// Retry budget for child dispatches (default: none — fail fast).
    pub retry: RetryPolicy,
    /// Shared circuit-breaker registry (default: none — never skip).
    pub breakers: Option<crate::admission::SharedBreakers>,
}

impl CspConfig {
    pub fn new(host: HostId, name: impl Into<String>, lus: LusHandle) -> CspConfig {
        CspConfig {
            host,
            name: name.into(),
            lus,
            renewal: None,
            lease: SimDuration::from_secs(30),
            children: Vec::new(),
            expression: None,
            degradation: DegradationPolicy::Strict,
            retry: RetryPolicy::none(),
            breakers: None,
        }
    }
}

/// Handle to a deployed CSP.
#[derive(Clone, Copy, Debug)]
pub struct CspHandle {
    pub service: ServiceId,
    pub host: HostId,
}

/// Deploy a CSP and register it (interfaces `SensorDataAccessor`,
/// `CompositeManagement`, `Servicer`; type `COMPOSITE`).
pub fn deploy_csp(env: &mut Env, config: CspConfig) -> Result<CspHandle, String> {
    let accessor = ServiceAccessor::new(vec![config.lus]);
    let mut csp = CompositeSensorProvider::new(config.name.clone(), config.host, accessor);
    csp.degradation = config.degradation;
    csp.retry = config.retry;
    csp.breakers = config.breakers;
    for child in &config.children {
        csp.add_service(child)?;
    }
    if let Some(expr) = &config.expression {
        csp.set_expression(expr)?;
    }
    let service = env.deploy(config.host, config.name.clone(), ServicerBox::new(csp));
    let item = ServiceItem::new(
        SvcUuid::NIL,
        config.host,
        service,
        vec![
            interfaces::SENSOR_DATA_ACCESSOR.into(),
            interfaces::COMPOSITE_MANAGEMENT.into(),
            interfaces::SERVICER.into(),
        ],
        vec![
            Entry::Name(config.name.clone()),
            Entry::ServiceType("COMPOSITE".into()),
        ],
    );
    let registration = config
        .lus
        .register(env, config.host, item, Some(config.lease));
    if let Ok(reg) = registration {
        let _ = env.with_service(service, |_env, sb: &mut ServicerBox| {
            if let Some(csp) = sb.downcast_mut::<CompositeSensorProvider>() {
                csp.uuid = reg.uuid.to_string();
            }
        });
        if let Some(renewal) = config.renewal {
            renewal.manage(env, config.host, config.lus, reg.lease, config.lease);
        }
    }
    Ok(CspHandle {
        service,
        host: config.host,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accessor::client;
    use crate::esp::{deploy_esp, EspConfig};
    use sensorcer_registry::lease::LeasePolicy;
    use sensorcer_registry::lus::LookupService;
    use sensorcer_sensors::prelude::*;
    use sensorcer_sim::prelude::*;

    struct World {
        env: Env,
        client: HostId,
        server: HostId,
        lus: LusHandle,
        accessor: ServiceAccessor,
    }

    fn setup() -> World {
        setup_seeded(1)
    }

    fn setup_seeded(seed: u64) -> World {
        let mut env = Env::with_seed(seed);
        let server = env.add_host("server", HostKind::Server);
        let client = env.add_host("client", HostKind::Workstation);
        let lus = LookupService::deploy(
            &mut env,
            server,
            "LUS",
            "public",
            LeasePolicy::default(),
            SimDuration::from_millis(500),
        );
        let accessor = ServiceAccessor::new(vec![lus]);
        World {
            env,
            client,
            server,
            lus,
            accessor,
        }
    }

    fn add_esp(w: &mut World, name: &str, value: f64) -> HostId {
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
        mote
    }

    #[test]
    fn paper_average_over_three_sensors() {
        // §VI steps 1-2: subnet of three ESPs with "(a + b + c)/3".
        let mut w = setup();
        add_esp(&mut w, "Neem-Sensor", 20.0);
        add_esp(&mut w, "Jade-Sensor", 22.0);
        add_esp(&mut w, "Diamond-Sensor", 27.0);
        let mut cfg = CspConfig::new(w.server, "Composite-Service", w.lus);
        cfg.children = vec![
            "Neem-Sensor".into(),
            "Jade-Sensor".into(),
            "Diamond-Sensor".into(),
        ];
        cfg.expression = Some("(a + b + c)/3".into());
        deploy_csp(&mut w.env, cfg).unwrap();

        let r = client::get_value(&mut w.env, w.client, &w.accessor, "Composite-Service").unwrap();
        assert_eq!(r.value, 23.0);
        assert_eq!(r.unit, "°C");
        assert!(r.good);
    }

    #[test]
    fn nested_composites_like_fig3() {
        // §VI steps 3-6: a network = { subnet, Coral } with "(a + b)/2".
        let mut w = setup();
        add_esp(&mut w, "Neem-Sensor", 20.0);
        add_esp(&mut w, "Jade-Sensor", 22.0);
        add_esp(&mut w, "Diamond-Sensor", 27.0);
        add_esp(&mut w, "Coral-Sensor", 25.0);
        let mut sub = CspConfig::new(w.server, "Composite-Service", w.lus);
        sub.children = vec![
            "Neem-Sensor".into(),
            "Jade-Sensor".into(),
            "Diamond-Sensor".into(),
        ];
        sub.expression = Some("(a + b + c)/3".into());
        deploy_csp(&mut w.env, sub).unwrap();

        let mut net = CspConfig::new(w.server, "New-Composite", w.lus);
        net.children = vec!["Composite-Service".into(), "Coral-Sensor".into()];
        net.expression = Some("(a + b)/2".into());
        deploy_csp(&mut w.env, net).unwrap();

        let r = client::get_value(&mut w.env, w.client, &w.accessor, "New-Composite").unwrap();
        assert_eq!(r.value, (23.0 + 25.0) / 2.0);
    }

    #[test]
    fn default_aggregation_is_average() {
        let mut w = setup();
        add_esp(&mut w, "A", 10.0);
        add_esp(&mut w, "B", 20.0);
        let mut cfg = CspConfig::new(w.server, "C", w.lus);
        cfg.children = vec!["A".into(), "B".into()];
        deploy_csp(&mut w.env, cfg).unwrap();
        let r = client::get_value(&mut w.env, w.client, &w.accessor, "C").unwrap();
        assert_eq!(r.value, 15.0);
    }

    #[test]
    fn variables_assigned_in_add_order() {
        assert_eq!(variable_for(0), "a");
        assert_eq!(variable_for(2), "c");
        assert_eq!(variable_for(25), "z");
        assert_eq!(variable_for(26), "v26");

        let mut w = setup();
        let mut csp = CompositeSensorProvider::new("C", w.server, w.accessor.clone());
        assert_eq!(csp.add_service("X").unwrap(), "a");
        assert_eq!(csp.add_service("Y").unwrap(), "b");
        assert!(csp.add_service("Y").is_err(), "duplicates rejected");
        assert!(csp.add_service("C").is_err(), "self-composition rejected");
        let _ = &mut w;
    }

    #[test]
    fn removal_reletters_and_drops_stale_expression() {
        let w = setup();
        let mut csp = CompositeSensorProvider::new("C", w.server, w.accessor.clone());
        csp.add_service("X").unwrap();
        csp.add_service("Y").unwrap();
        csp.add_service("Z").unwrap();
        csp.set_expression("(a + b + c)/3").unwrap();
        csp.remove_service("Y").unwrap();
        assert_eq!(
            csp.children(),
            &[
                Child {
                    var: "a".into(),
                    service_name: "X".into(),
                    group: None
                },
                Child {
                    var: "b".into(),
                    service_name: "Z".into(),
                    group: None
                }
            ]
        );
        assert_eq!(
            csp.expression_source(),
            None,
            "expression using 'c' must drop"
        );
        csp.set_expression("a - b").unwrap();
        assert!(csp.remove_service("Nope").is_err());
    }

    #[test]
    fn expression_validation_against_bound_variables() {
        let w = setup();
        let mut csp = CompositeSensorProvider::new("C", w.server, w.accessor.clone());
        csp.add_service("X").unwrap();
        let err = csp.set_expression("(a + b)/2").unwrap_err();
        assert!(err.contains('b'), "{err}");
        assert!(csp.set_expression("a * 2").is_ok());
        assert!(csp.set_expression("a +").is_err(), "syntax errors surface");
    }

    #[test]
    fn failed_child_fails_composite_read() {
        let mut w = setup();
        add_esp(&mut w, "A", 10.0);
        let mut cfg = CspConfig::new(w.server, "C", w.lus);
        cfg.children = vec!["A".into(), "Ghost".into()];
        deploy_csp(&mut w.env, cfg).unwrap();
        let err = client::get_value(&mut w.env, w.client, &w.accessor, "C").unwrap_err();
        assert!(err.contains("Ghost"), "{err}");
    }

    #[test]
    fn empty_composite_fails_read() {
        let mut w = setup();
        deploy_csp(&mut w.env, CspConfig::new(w.server, "Empty", w.lus)).unwrap();
        let err = client::get_value(&mut w.env, w.client, &w.accessor, "Empty").unwrap_err();
        assert!(err.contains("no composed services"));
    }

    #[test]
    fn composition_cycles_detected_at_read_time() {
        let mut w = setup();
        // A contains B, B contains A — constructed by direct management to
        // bypass the self-composition guard.
        let mut a = CspConfig::new(w.server, "A", w.lus);
        a.children = vec!["B".into()];
        deploy_csp(&mut w.env, a).unwrap();
        let mut b = CspConfig::new(w.server, "B", w.lus);
        b.children = vec!["A".into()];
        deploy_csp(&mut w.env, b).unwrap();
        let err = client::get_value(&mut w.env, w.client, &w.accessor, "A").unwrap_err();
        // Either guard may fire: the visited breadcrumb ("cycle") or the
        // call-layer re-entrancy detector ("busy").
        assert!(err.contains("cycle") || err.contains("busy"), "{err}");
    }

    #[test]
    fn management_via_exertions() {
        let mut w = setup();
        add_esp(&mut w, "X", 4.0);
        add_esp(&mut w, "Y", 8.0);
        deploy_csp(&mut w.env, CspConfig::new(w.server, "C", w.lus)).unwrap();

        let ctx = client::manage(
            &mut w.env,
            w.client,
            &w.accessor,
            "C",
            mgmt::ADD_SERVICE,
            Context::new().with("arg/service", "X"),
        )
        .unwrap();
        assert_eq!(ctx.get_str("mgmt/variable"), Some("a"));
        client::manage(
            &mut w.env,
            w.client,
            &w.accessor,
            "C",
            mgmt::ADD_SERVICE,
            Context::new().with("arg/service", "Y"),
        )
        .unwrap();
        client::manage(
            &mut w.env,
            w.client,
            &w.accessor,
            "C",
            mgmt::SET_EXPRESSION,
            Context::new().with("arg/expression", "max(a, b)"),
        )
        .unwrap();
        let r = client::get_value(&mut w.env, w.client, &w.accessor, "C").unwrap();
        assert_eq!(r.value, 8.0);

        let info = client::get_info(&mut w.env, w.client, &w.accessor, "C").unwrap();
        assert_eq!(info.service_type, "COMPOSITE");
        assert_eq!(info.contained, vec!["X".to_string(), "Y".to_string()]);
        assert_eq!(info.expression.as_deref(), Some("max(a, b)"));

        // Bad management calls fail, not crash.
        assert!(client::manage(
            &mut w.env,
            w.client,
            &w.accessor,
            "C",
            mgmt::SET_EXPRESSION,
            Context::new()
        )
        .is_err());
    }

    #[test]
    fn suspect_child_marks_composite_suspect() {
        let mut w = setup();
        // One healthy ESP plus one whose reading will be suspect (dropout
        // served from store).
        add_esp(&mut w, "Good", 10.0);
        let mote = w.env.add_host("sus-mote", HostKind::SensorMote);
        let probe = SimulatedProbe::new(
            Teds::sunspot_temperature("s"),
            Signal::Constant(20.0),
            SimRng::new(5),
        );
        deploy_esp(
            &mut w.env,
            EspConfig::new(mote, "Sus", Box::new(probe), w.lus),
        );
        // Prime the store, then swap to full dropout.
        client::get_value(&mut w.env, w.client, &w.accessor, "Sus").unwrap();
        let svc = w.env.find_service("Sus").unwrap();
        w.env
            .with_service(svc, |_e, sb: &mut ServicerBox| {
                let esp = sb
                    .downcast_mut::<crate::esp::ElementarySensorProvider>()
                    .unwrap();
                esp.probe = Box::new(
                    SimulatedProbe::new(
                        Teds::sunspot_temperature("s"),
                        Signal::Constant(20.0),
                        SimRng::new(5),
                    )
                    .with_faults(FaultInjector::new(FaultModel {
                        dropout_prob: 1.0,
                        ..Default::default()
                    })),
                );
            })
            .unwrap();

        let mut cfg = CspConfig::new(w.server, "C", w.lus);
        cfg.children = vec!["Good".into(), "Sus".into()];
        deploy_csp(&mut w.env, cfg).unwrap();
        let r = client::get_value(&mut w.env, w.client, &w.accessor, "C").unwrap();
        assert!(!r.good, "one suspect component taints the composite");
        assert_eq!(r.value, 15.0);
    }

    #[test]
    fn output_calibration_applies() {
        let mut w = setup();
        add_esp(&mut w, "A", 10.0);
        let handle = deploy_csp(
            &mut w.env,
            CspConfig {
                children: vec!["A".into()],
                ..CspConfig::new(w.server, "C", w.lus)
            },
        )
        .unwrap();
        w.env
            .with_service(handle.service, |_e, sb: &mut ServicerBox| {
                sb.downcast_mut::<CompositeSensorProvider>()
                    .unwrap()
                    .calibration = Calibration::Linear {
                    gain: 1.8,
                    offset: 32.0,
                }; // °C → °F
            })
            .unwrap();
        let r = client::get_value(&mut w.env, w.client, &w.accessor, "C").unwrap();
        assert_eq!(r.value, 50.0);
    }

    #[test]
    fn equivalent_provider_takes_over_when_named_child_dies() {
        // §V.A: "If for any reason, a particular sensor service is not
        // available, the request can be passed on to the equivalent
        // available service provider."
        let mut w = setup();
        // Two interchangeable greenhouse sensors, short leases.
        let mut motes = Vec::new();
        for (name, value) in [("GH-Primary", 20.0), ("GH-Backup", 24.0)] {
            let mote = w.env.add_host(format!("{name}-mote"), HostKind::SensorMote);
            deploy_esp(
                &mut w.env,
                EspConfig {
                    lease: SimDuration::from_secs(5),
                    equivalence_group: Some("greenhouse".into()),
                    ..EspConfig::new(
                        mote,
                        name,
                        Box::new(ScriptedProbe::new(vec![value], Unit::Celsius)),
                        w.lus,
                    )
                },
            );
            motes.push(mote);
        }
        // Keep the backup alive with its own renewal.
        let renewal = sensorcer_registry::renewal::LeaseRenewalService::deploy(
            &mut w.env, w.server, "Renewal",
        );
        // Re-register the backup with renewal so only the primary lapses.
        let backup_svc = w.env.find_service("GH-Backup").unwrap();
        let item = ServiceItem::new(
            SvcUuid::NIL,
            motes[1],
            backup_svc,
            vec![interfaces::SENSOR_DATA_ACCESSOR.into()],
            vec![
                Entry::Name("GH-Backup".into()),
                Entry::Custom {
                    key: EQUIVALENCE_GROUP_KEY.into(),
                    value: "greenhouse".into(),
                },
            ],
        );
        let reg = w
            .lus
            .register(&mut w.env, motes[1], item, Some(SimDuration::from_secs(5)))
            .unwrap();
        renewal.manage(
            &mut w.env,
            motes[1],
            w.lus,
            reg.lease,
            SimDuration::from_secs(5),
        );

        // Composite pinned to the primary, with the group as fallback.
        let handle = deploy_csp(&mut w.env, CspConfig::new(w.server, "GH", w.lus)).unwrap();
        w.env
            .with_service(handle.service, |_e, sb: &mut ServicerBox| {
                let csp = sb.downcast_mut::<CompositeSensorProvider>().unwrap();
                csp.add_service_grouped("GH-Primary", Some("greenhouse".into()))
                    .unwrap();
            })
            .unwrap();

        // Healthy: reads the primary.
        let r = client::get_value(&mut w.env, w.client, &w.accessor, "GH").unwrap();
        assert_eq!(r.value, 20.0);

        // Kill the primary and let its registration lapse.
        w.env.crash_host(motes[0]);
        w.env.run_for(SimDuration::from_secs(10));

        // The request is passed on to the equivalent available provider.
        let r = client::get_value(&mut w.env, w.client, &w.accessor, "GH").unwrap();
        assert_eq!(r.value, 24.0, "backup must take over");
    }

    #[test]
    fn failed_reading_from_live_provider_also_fails_over() {
        // The named provider is reachable but its transducer is dead (it
        // answers with a failure); the equivalent provider must take over.
        let mut w = setup();
        let m1 = w.env.add_host("p-mote", HostKind::SensorMote);
        let dead = SimulatedProbe::new(
            Teds::sunspot_temperature("dead"),
            Signal::Constant(0.0),
            SimRng::new(1),
        )
        .with_battery(Battery::new(1.0, 100.0, 0.0));
        deploy_esp(
            &mut w.env,
            EspConfig {
                equivalence_group: Some("pair".into()),
                ..EspConfig::new(m1, "Pair-Primary", Box::new(dead), w.lus)
            },
        );
        let m2 = w.env.add_host("b-mote", HostKind::SensorMote);
        deploy_esp(
            &mut w.env,
            EspConfig {
                equivalence_group: Some("pair".into()),
                ..EspConfig::new(
                    m2,
                    "Pair-Backup",
                    Box::new(ScriptedProbe::new(vec![42.0], Unit::Celsius)),
                    w.lus,
                )
            },
        );
        let handle = deploy_csp(&mut w.env, CspConfig::new(w.server, "P", w.lus)).unwrap();
        w.env
            .with_service(handle.service, |_e, sb: &mut ServicerBox| {
                sb.downcast_mut::<CompositeSensorProvider>()
                    .unwrap()
                    .add_service_grouped("Pair-Primary", Some("pair".into()))
                    .unwrap();
            })
            .unwrap();
        let r = client::get_value(&mut w.env, w.client, &w.accessor, "P").unwrap();
        assert_eq!(
            r.value, 42.0,
            "backup answers even though the primary is reachable"
        );
    }

    #[test]
    fn without_a_group_the_dead_child_fails_the_read() {
        let mut w = setup();
        let mote = w.env.add_host("solo-mote", HostKind::SensorMote);
        deploy_esp(
            &mut w.env,
            EspConfig {
                lease: SimDuration::from_secs(5),
                ..EspConfig::new(
                    mote,
                    "Solo",
                    Box::new(ScriptedProbe::new(vec![20.0], Unit::Celsius)),
                    w.lus,
                )
            },
        );
        let mut cfg = CspConfig::new(w.server, "C", w.lus);
        cfg.children = vec!["Solo".into()];
        deploy_csp(&mut w.env, cfg).unwrap();
        assert!(client::get_value(&mut w.env, w.client, &w.accessor, "C").is_ok());
        w.env.crash_host(mote);
        w.env.run_for(SimDuration::from_secs(10));
        assert!(client::get_value(&mut w.env, w.client, &w.accessor, "C").is_err());
    }

    #[test]
    fn deploy_rejects_bad_startup_expression() {
        let mut w = setup();
        let mut cfg = CspConfig::new(w.server, "C", w.lus);
        cfg.children = vec!["A".into()];
        cfg.expression = Some("(a + b)/2".into());
        assert!(deploy_csp(&mut w.env, cfg).is_err());
    }

    #[test]
    fn failover_failure_reports_both_errors_and_counts_attempts() {
        // Both the primary and its only equivalent answer with failures:
        // the composite error must name both, and the failover metrics
        // must show an attempt without a success.
        let mut w = setup();
        for name in ["Dead-A", "Dead-B"] {
            let mote = w.env.add_host(format!("{name}-mote"), HostKind::SensorMote);
            let probe = SimulatedProbe::new(
                Teds::sunspot_temperature(name),
                Signal::Constant(0.0),
                SimRng::new(1),
            )
            .with_battery(Battery::new(1.0, 100.0, 0.0));
            deploy_esp(
                &mut w.env,
                EspConfig {
                    equivalence_group: Some("dead-pair".into()),
                    ..EspConfig::new(mote, name, Box::new(probe), w.lus)
                },
            );
        }
        let handle = deploy_csp(&mut w.env, CspConfig::new(w.server, "DP", w.lus)).unwrap();
        w.env
            .with_service(handle.service, |_e, sb: &mut ServicerBox| {
                sb.downcast_mut::<CompositeSensorProvider>()
                    .unwrap()
                    .add_service_grouped("Dead-A", Some("dead-pair".into()))
                    .unwrap();
            })
            .unwrap();

        let err = client::get_value(&mut w.env, w.client, &w.accessor, "DP").unwrap_err();
        assert!(
            err.contains("'Dead-A'"),
            "primary error must be named: {err}"
        );
        assert!(
            err.contains("equivalent") && err.contains("'Dead-B'"),
            "equivalent's own error must be included: {err}"
        );
        assert_eq!(w.env.metrics.get(keys::FAILOVER_ATTEMPTS), 1);
        assert_eq!(w.env.metrics.get(keys::FAILOVER_SUCCESS), 0);

        // And a successful failover counts a success: a second pair whose
        // backup is alive.
        let m3 = w.env.add_host("live-mote", HostKind::SensorMote);
        deploy_esp(
            &mut w.env,
            EspConfig {
                equivalence_group: Some("live-pair".into()),
                ..EspConfig::new(
                    m3,
                    "Live-Backup",
                    Box::new(ScriptedProbe::new(vec![7.0], Unit::Celsius)),
                    w.lus,
                )
            },
        );
        let m4 = w.env.add_host("dead-c-mote", HostKind::SensorMote);
        let probe = SimulatedProbe::new(
            Teds::sunspot_temperature("dead-c"),
            Signal::Constant(0.0),
            SimRng::new(1),
        )
        .with_battery(Battery::new(1.0, 100.0, 0.0));
        deploy_esp(
            &mut w.env,
            EspConfig {
                equivalence_group: Some("live-pair".into()),
                ..EspConfig::new(m4, "Dead-C", Box::new(probe), w.lus)
            },
        );
        let handle = deploy_csp(&mut w.env, CspConfig::new(w.server, "LP", w.lus)).unwrap();
        w.env
            .with_service(handle.service, |_e, sb: &mut ServicerBox| {
                sb.downcast_mut::<CompositeSensorProvider>()
                    .unwrap()
                    .add_service_grouped("Dead-C", Some("live-pair".into()))
                    .unwrap();
            })
            .unwrap();
        let r = client::get_value(&mut w.env, w.client, &w.accessor, "LP").unwrap();
        assert_eq!(r.value, 7.0);
        assert_eq!(w.env.metrics.get(keys::FAILOVER_SUCCESS), 1);
    }

    #[test]
    fn no_equivalent_available_is_said_so() {
        let mut w = setup();
        let mote = w.env.add_host("only-mote", HostKind::SensorMote);
        deploy_esp(
            &mut w.env,
            EspConfig {
                lease: SimDuration::from_secs(5),
                equivalence_group: Some("lonely".into()),
                ..EspConfig::new(
                    mote,
                    "Only",
                    Box::new(ScriptedProbe::new(vec![1.0], Unit::Celsius)),
                    w.lus,
                )
            },
        );
        let handle = deploy_csp(&mut w.env, CspConfig::new(w.server, "L", w.lus)).unwrap();
        w.env
            .with_service(handle.service, |_e, sb: &mut ServicerBox| {
                sb.downcast_mut::<CompositeSensorProvider>()
                    .unwrap()
                    .add_service_grouped("Only", Some("lonely".into()))
                    .unwrap();
            })
            .unwrap();
        w.env.crash_host(mote);
        w.env.run_for(SimDuration::from_secs(10));
        let err = client::get_value(&mut w.env, w.client, &w.accessor, "L").unwrap_err();
        assert!(
            err.contains("no equivalent provider in group 'lonely'"),
            "absence of an equivalent must be explicit: {err}"
        );
    }

    #[test]
    fn quorum_read_survives_an_unreachable_child_and_flags_it() {
        let mut w = setup();
        add_esp(&mut w, "S0", 10.0);
        add_esp(&mut w, "S1", 20.0);
        let s2_mote = add_esp(&mut w, "S2", 30.0);
        let mut cfg = CspConfig::new(w.server, "Q", w.lus);
        cfg.children = vec!["S0".into(), "S1".into(), "S2".into()];
        cfg.degradation = DegradationPolicy::Quorum(2);
        deploy_csp(&mut w.env, cfg).unwrap();

        // Prime: clean read populates the last-known-good cache.
        let (r, d) = client::get_value_detailed(&mut w.env, w.client, &w.accessor, "Q").unwrap();
        assert_eq!(r.value, 20.0);
        assert!(r.good && !d.is_degraded());

        // Cut S2 off; quorum 2-of-3 still holds and S2's last value
        // substitutes, so the average is unchanged — but flagged.
        w.env.topo.partition(w.server, s2_mote);
        w.env.run_for(SimDuration::from_secs(5));
        let (r, d) = client::get_value_detailed(&mut w.env, w.client, &w.accessor, "Q").unwrap();
        assert_eq!(r.value, 20.0, "last-known-good 30.0 substitutes for S2");
        assert!(!r.good, "degraded read must be flagged suspect");
        assert_eq!(d.substituted, vec!["S2".to_string()]);
        assert!(d.missing.is_empty());
        assert!(w.env.metrics.get(keys::DEGRADED_READS) >= 1);
        assert!(w.env.metrics.get(keys::SUBSTITUTED_CHILDREN) >= 1);

        // Heal: the composite reconverges to clean on the next read.
        w.env.topo.heal(w.server, s2_mote);
        w.env.run_for(SimDuration::from_secs(5));
        let (r, d) = client::get_value_detailed(&mut w.env, w.client, &w.accessor, "Q").unwrap();
        assert!(
            r.good && !d.is_degraded(),
            "post-heal reads reconverge to clean"
        );
        assert_eq!(r.value, 20.0);
    }

    #[test]
    fn quorum_not_met_fails_with_counts() {
        let mut w = setup();
        add_esp(&mut w, "S0", 10.0);
        let mote = add_esp(&mut w, "S1", 20.0);
        let mut cfg = CspConfig::new(w.server, "Q", w.lus);
        cfg.children = vec!["S0".into(), "S1".into()];
        cfg.degradation = DegradationPolicy::Quorum(2);
        deploy_csp(&mut w.env, cfg).unwrap();
        client::get_value(&mut w.env, w.client, &w.accessor, "Q").unwrap();

        w.env.crash_host(mote);
        w.env.run_for(SimDuration::from_secs(5));
        let err = client::get_value(&mut w.env, w.client, &w.accessor, "Q").unwrap_err();
        assert!(err.contains("quorum not met: 1 of 2"), "{err}");
        assert!(err.contains("'S1'"), "failing child still named: {err}");
    }

    #[test]
    fn quorum_without_cached_value_reports_child_missing() {
        // A child that dies before ever delivering has no last-known-good
        // value: the read still succeeds (quorum held) but the child is
        // reported missing and skipped by the default average.
        let mut w = setup();
        add_esp(&mut w, "S0", 10.0);
        add_esp(&mut w, "S1", 20.0);
        let mote = add_esp(&mut w, "S2", 99.0);
        let mut cfg = CspConfig::new(w.server, "Q", w.lus);
        cfg.children = vec!["S0".into(), "S1".into(), "S2".into()];
        cfg.degradation = DegradationPolicy::Quorum(2);
        deploy_csp(&mut w.env, cfg).unwrap();

        // S2 dies before the composite ever reads it.
        w.env.crash_host(mote);
        w.env.run_for(SimDuration::from_secs(5));
        let (r, d) = client::get_value_detailed(&mut w.env, w.client, &w.accessor, "Q").unwrap();
        assert_eq!(r.value, 15.0, "average skips the missing child");
        assert!(!r.good);
        assert!(d.substituted.is_empty());
        assert_eq!(d.missing, vec!["S2".to_string()]);
    }

    #[test]
    fn last_known_good_substitutes_within_max_age_only() {
        let mut w = setup();
        add_esp(&mut w, "S0", 10.0);
        let mote = add_esp(&mut w, "S1", 30.0);
        let mut cfg = CspConfig::new(w.server, "K", w.lus);
        cfg.children = vec!["S0".into(), "S1".into()];
        // Long lease: the test waits out the LKG max_age, and the
        // composite itself must stay registered that long.
        cfg.lease = SimDuration::from_secs(300);
        cfg.degradation = DegradationPolicy::LastKnownGood {
            max_age: SimDuration::from_secs(120),
        };
        deploy_csp(&mut w.env, cfg).unwrap();
        client::get_value(&mut w.env, w.client, &w.accessor, "K").unwrap();

        w.env.crash_host(mote);
        w.env.run_for(SimDuration::from_secs(5));
        // Within max_age: substituted, flagged.
        let (r, d) = client::get_value_detailed(&mut w.env, w.client, &w.accessor, "K").unwrap();
        assert_eq!(r.value, 20.0);
        assert!(!r.good);
        assert_eq!(d.substituted, vec!["S1".to_string()]);

        // Stale: the cached value ages out and the read fails.
        w.env.run_for(SimDuration::from_secs(200));
        let err = client::get_value(&mut w.env, w.client, &w.accessor, "K").unwrap_err();
        assert!(err.contains("last-known-good"), "{err}");
    }

    #[test]
    fn breaker_open_child_degrades_quorum_not_fails() {
        // A tripped circuit on one child must read exactly like an
        // unreachable child: quorum holds, the last-known-good value
        // substitutes, the read is flagged — never a hard failure, and
        // never a retry burn against the breaker-open service.
        for seed in [5u64, 6, 7] {
            let mut w = setup_seeded(seed);
            add_esp(&mut w, "S0", 10.0);
            add_esp(&mut w, "S1", 20.0);
            let s2_mote = w.env.add_host("S2-mote", HostKind::SensorMote);
            let s2 = deploy_esp(
                &mut w.env,
                EspConfig::new(
                    s2_mote,
                    "S2",
                    Box::new(ScriptedProbe::new(vec![30.0], Unit::Celsius)),
                    w.lus,
                ),
            );
            let breakers = crate::admission::shared_breakers(Default::default());
            let mut cfg = CspConfig::new(w.server, "Q", w.lus);
            cfg.children = vec!["S0".into(), "S1".into(), "S2".into()];
            cfg.degradation = DegradationPolicy::Quorum(2);
            cfg.retry = RetryPolicy::transient();
            cfg.breakers = Some(breakers.clone());
            deploy_csp(&mut w.env, cfg).unwrap();

            // Prime: clean read fills the caches and binds the children.
            let (r, d) =
                client::get_value_detailed(&mut w.env, w.client, &w.accessor, "Q").unwrap();
            assert!(r.good && !d.is_degraded(), "seed {seed}");

            let now = w.env.now();
            breakers.borrow_mut().trip(s2.service, now);
            let retries_before = w
                .env
                .metrics
                .get(sensorcer_exertion::retry::keys::RETRY_ATTEMPTS);
            let (r, d) =
                client::get_value_detailed(&mut w.env, w.client, &w.accessor, "Q").unwrap();
            assert_eq!(r.value, 20.0, "seed {seed}: cached 30.0 substitutes");
            assert!(!r.good, "seed {seed}: substitution must be flagged");
            assert_eq!(d.substituted, vec!["S2".to_string()], "seed {seed}");
            assert!(d.missing.is_empty(), "seed {seed}");
            assert!(
                w.env.metrics.get(crate::admission::keys::BREAKER_SKIPPED) >= 1,
                "seed {seed}: the open breaker must skip the dispatch"
            );
            assert_eq!(
                w.env
                    .metrics
                    .get(sensorcer_exertion::retry::keys::RETRY_ATTEMPTS),
                retries_before,
                "seed {seed}: a skipped child must not burn the retry budget"
            );
        }
    }

    #[test]
    fn breaker_open_child_substitutes_under_last_known_good() {
        for seed in [5u64, 6, 7] {
            let mut w = setup_seeded(seed);
            add_esp(&mut w, "S0", 10.0);
            let s1_mote = w.env.add_host("S1-mote", HostKind::SensorMote);
            let s1 = deploy_esp(
                &mut w.env,
                EspConfig::new(
                    s1_mote,
                    "S1",
                    Box::new(ScriptedProbe::new(vec![30.0], Unit::Celsius)),
                    w.lus,
                ),
            );
            let breakers = crate::admission::shared_breakers(Default::default());
            let mut cfg = CspConfig::new(w.server, "K", w.lus);
            cfg.children = vec!["S0".into(), "S1".into()];
            cfg.degradation = DegradationPolicy::LastKnownGood {
                max_age: SimDuration::from_secs(120),
            };
            cfg.breakers = Some(breakers.clone());
            deploy_csp(&mut w.env, cfg).unwrap();
            client::get_value(&mut w.env, w.client, &w.accessor, "K").unwrap();

            let now = w.env.now();
            breakers.borrow_mut().trip(s1.service, now);
            let (r, d) =
                client::get_value_detailed(&mut w.env, w.client, &w.accessor, "K").unwrap();
            assert_eq!(r.value, 20.0, "seed {seed}: cached 30.0 substitutes");
            assert!(!r.good, "seed {seed}");
            assert_eq!(d.substituted, vec!["S1".to_string()], "seed {seed}");
        }
    }

    #[test]
    fn strict_stays_all_or_nothing_even_with_retry() {
        // Strict + retry budget: the read still fails when a child is
        // gone for good — retries only cover transient faults.
        let mut w = setup();
        add_esp(&mut w, "S0", 10.0);
        let mote = add_esp(&mut w, "S1", 20.0);
        let mut cfg = CspConfig::new(w.server, "ST", w.lus);
        cfg.children = vec!["S0".into(), "S1".into()];
        cfg.retry = RetryPolicy::transient();
        deploy_csp(&mut w.env, cfg).unwrap();
        client::get_value(&mut w.env, w.client, &w.accessor, "ST").unwrap();

        w.env.crash_host(mote);
        w.env.run_for(SimDuration::from_secs(5));
        let err = client::get_value(&mut w.env, w.client, &w.accessor, "ST").unwrap_err();
        assert!(err.contains("component read failures"), "{err}");
    }

    #[test]
    fn retry_budget_rides_out_a_transient_partition() {
        // The child's mote is partitioned from the composite when the
        // read starts, but a heal is already scheduled inside the retry
        // budget: with retries the read comes back clean — not degraded,
        // not failed.
        let mut w = setup();
        add_esp(&mut w, "S0", 10.0);
        let mote = add_esp(&mut w, "S1", 20.0);
        let mut cfg = CspConfig::new(w.server, "R", w.lus);
        cfg.children = vec!["S0".into(), "S1".into()];
        cfg.retry = RetryPolicy {
            attempts: 4,
            backoff: SimDuration::from_secs(2),
            deadline: SimDuration::from_secs(30),
        };
        deploy_csp(&mut w.env, cfg).unwrap();
        client::get_value(&mut w.env, w.client, &w.accessor, "R").unwrap();

        let server = w.server;
        w.env.topo.partition(server, mote);
        let at = w.env.now() + SimDuration::from_secs(5);
        w.env
            .schedule_at(at, move |env| env.topo.heal(server, mote));
        let (r, d) = client::get_value_detailed(&mut w.env, w.client, &w.accessor, "R").unwrap();
        assert_eq!(r.value, 15.0);
        assert!(
            r.good && !d.is_degraded(),
            "retried read is clean, not degraded"
        );
    }
}
