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

use std::cell::RefCell;
use std::sync::Arc;

use sensorcer_exertion::prelude::*;
use sensorcer_expr::{Program, SlotFrame, Text, Value};
use sensorcer_registry::attributes::AttrMatch;
use sensorcer_registry::ids::interfaces;
use sensorcer_registry::item::{ServiceItem, ServiceTemplate};
use sensorcer_registry::lus::LusHandle;
use sensorcer_registry::renewal::{join, RenewalHandle};
use sensorcer_sensors::calib::Calibration;
use sensorcer_sim::conn::Connection;
use sensorcer_sim::env::{Env, ServiceId};
use sensorcer_sim::time::{SimDuration, SimTime};
use sensorcer_sim::topology::{HostId, NetError};
use sensorcer_sim::trace::{Outcome, SpanId};

use crate::accessor::{join_children, mgmt, selectors, write_degraded, SensorInfo};

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
#[derive(Clone, Debug, PartialEq)]
pub struct LastGood {
    pub value: f64,
    pub unit: Text,
    /// The parent's clock when the reading settled.
    pub at: SimTime,
}

/// What one child read came back with after retry and failover: its
/// value, its unit and whether it was clean — or why it failed.
pub type ChildOutcome = Result<(f64, Text, bool), ChildError>;

/// Why one provider gave a child no value.
#[derive(Clone, Debug, PartialEq)]
pub enum Miss {
    /// Its breaker is open, so no hop was made.
    BreakerOpen,
    /// No provider matched the bind.
    NotFound,
    /// No reply came back.
    Unreachable(NetError),
    /// It answered without a value.
    NoValue,
    /// It answered with this failure.
    Failed(String),
    /// It answered with another status.
    Unexpected(ExertionStatus),
}

/// Why a child read failed: what the named provider did and, after a
/// failover, what its equivalent did (`None` inside when the group had
/// none to offer). Kept as parts: a read that degrades past the child
/// never renders it; it is rendered where it is read, for a span field
/// or a failed read's message.
#[derive(Clone, Debug, PartialEq)]
pub struct ChildError {
    named: Miss,
    equivalent: Option<(Option<Arc<ServiceItem>>, Miss)>,
}

impl From<Miss> for ChildError {
    fn from(named: Miss) -> ChildError {
        ChildError {
            named,
            equivalent: None,
        }
    }
}

impl ChildError {
    /// The failure in words, as `child`'s read reports it.
    fn text(&self, child: &Child) -> String {
        use std::fmt::Write;
        let name = child.service_name.as_str();
        let mut text = match &self.named {
            Miss::BreakerOpen => format!("'{name}': breaker open"),
            Miss::NotFound => format!("'{name}': no provider found"),
            Miss::Unreachable(e) => format!("'{name}': provider unreachable: {e}"),
            answered => answer_text(name, answered),
        };
        let _ = match &self.equivalent {
            None => Ok(()),
            Some((None, _)) => write!(
                text,
                "; no equivalent provider in group '{}' available",
                child.group.as_deref().unwrap_or_default()
            ),
            Some((Some(_), Miss::BreakerOpen)) => write!(text, "; equivalent breaker open"),
            Some((Some(item), miss)) => {
                let eq = item.name().unwrap_or("equivalent");
                match miss {
                    Miss::Unreachable(e) => write!(text, "; equivalent '{eq}' unreachable: {e}"),
                    answered => write!(text, "; equivalent {}", answer_text(eq, answered)),
                }
            }
        };
        text
    }
}

/// What `who` answered instead of a value, in words.
fn answer_text(who: &str, miss: &Miss) -> String {
    match miss {
        Miss::Failed(e) => format!("'{who}': {e}"),
        Miss::Unexpected(status) => format!("'{who}': unexpected status {status:?}"),
        _ => format!("'{who}' returned no value"),
    }
}

/// What becomes of a child whose read failed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fate {
    /// Its last-known-good `value`, `age` old, stands in for it.
    Substituted { value: f64, age: SimDuration },
    /// Nothing stands in; the default aggregate skips it.
    Missing,
}

/// Everything a degradation policy decides about one read.
#[derive(Clone, Debug, PartialEq)]
pub struct Settled {
    /// Each failed child's fate by position, in the order the parent
    /// reports them — fates decided before a failing verdict included.
    pub fates: Vec<(usize, Fate)>,
    /// The first non-empty unit: fresh readings first, then substitutes.
    pub unit: Text,
    /// `Ok(all_good)`, or the message the read fails with.
    pub verdict: Result<bool, String>,
}

impl Settled {
    /// The readings to bind as `(child position, value)`: fresh readings
    /// in child order, then substitutes in fate order. The default average
    /// sums them in this order.
    pub fn readings<'a>(
        &'a self,
        outcomes: &'a [ChildOutcome],
    ) -> impl Iterator<Item = (usize, f64)> + 'a {
        let fresh =
            (outcomes.iter().enumerate()).filter_map(|(i, o)| Some((i, o.as_ref().ok()?.0)));
        let substitutes = self.fates.iter().filter_map(|&(i, fate)| match fate {
            Fate::Substituted { value, .. } => Some((i, value)),
            Fate::Missing => None,
        });
        fresh.chain(substitutes)
    }
}

/// The names of the children whose fate is `Missing` (`missing`) or
/// `Substituted` (`!missing`), in fate order.
fn fate_names<'c>(children: &'c [Child], fates: &[(usize, Fate)], missing: bool) -> Vec<&'c str> {
    fates
        .iter()
        .filter(|(_, fate)| (*fate == Fate::Missing) == missing)
        .map(|&(i, _)| children[i].service_name.as_str())
        .collect()
}

/// Every failure among `outcomes`, in child order, as one message.
fn failures(children: &[Child], outcomes: &[ChildOutcome]) -> String {
    let errors: Vec<String> = (children.iter().zip(outcomes))
        .filter_map(|(child, o)| Some(o.as_ref().err()?.text(child)))
        .collect();
    errors.join("; ")
}

/// Decide a read from its children's outcomes alone: the readings to
/// bind, each failed child's fate, the unit and the verdict. The caller
/// applies metrics, span events, `last_good` and the result.
///
/// `Quorum(n)` counts fresh readings only; a last-good value stands in
/// while its age is `<= max_age`; a missing child fails a composite with
/// an expression; a read left with no reading at all fails.
pub fn settle(
    policy: DegradationPolicy,
    expression: bool,
    children: &[Child],
    outcomes: &[ChildOutcome],
    last_good: &[Option<LastGood>],
    now: SimTime,
) -> Settled {
    let (mut fresh, mut all_good, mut unit) = (0, true, None);
    for (_, u, good) in outcomes.iter().flatten() {
        fresh += 1;
        all_good &= good;
        unit = unit.or((!u.is_empty()).then_some(u));
    }
    let mut fates = Vec::new();
    let mut verdict = match policy {
        _ if fresh == outcomes.len() => Ok(all_good),
        DegradationPolicy::Strict => Err(format!(
            "component read failures: {}",
            failures(children, outcomes)
        )),
        DegradationPolicy::Quorum(n) if fresh < n => Err(format!(
            "quorum not met: {fresh} of {} children answered (need {n}); {}",
            outcomes.len(),
            failures(children, outcomes)
        )),
        _ => Ok(false),
    };
    let max_age = match policy {
        DegradationPolicy::LastKnownGood { max_age } => Some(max_age),
        _ => None,
    };
    if verdict.is_ok() {
        for (idx, outcome) in outcomes.iter().enumerate() {
            let Err(e) = outcome else { continue };
            // `since` saturates: a composite shared by two parents is read
            // in sibling branches of one fan-out, and the later-run branch
            // may stand at an instant before the reading it kept.
            match &last_good[idx] {
                Some(lg) if max_age.is_none_or(|max| now.since(lg.at) <= max) => {
                    unit = unit.or((!lg.unit.is_empty()).then_some(&lg.unit));
                    let (value, age) = (lg.value, now.since(lg.at));
                    fates.push((idx, Fate::Substituted { value, age }));
                }
                _ if max_age.is_none() => fates.push((idx, Fate::Missing)),
                _ => {
                    verdict = Err(format!(
                        "failed child has no recent last-known-good value: {}",
                        e.text(&children[idx])
                    ));
                    break;
                }
            }
        }
    }
    let lent = fates.iter().filter(|(_, f)| *f != Fate::Missing).count();
    if verdict.is_ok() && expression && lent < fates.len() {
        let missing = fate_names(children, &fates, true).join(", ");
        verdict = Err(format!(
            "degraded read cannot bind expression variables for missing children: {missing}"
        ));
    } else if verdict.is_ok() && fresh + lent == 0 {
        verdict = Err(format!(
            "no child left a reading to aggregate: {}",
            failures(children, outcomes)
        ));
    }
    Settled {
        fates,
        unit: unit.map_or(Text::Static(""), Text::clone),
        verdict,
    }
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

/// Make the composite's in-flight request the one `to` gets, exactly as a
/// freshly built task would read: `to` re-arms it, and the breadcrumb is
/// its whole context.
fn arm(request: &mut Exertion, to: &RequestHeader, visited: &Arc<[Value]>) {
    to.arm(request);
    request
        .context_mut()
        .put(VISITED_PATH, Value::List(Arc::clone(visited)));
}

/// The buffers one composite read works in.
#[derive(Default)]
struct ReadScratch {
    /// Every child's outcome, in child order.
    outcomes: Vec<ChildOutcome>,
    /// The expression's slot frame.
    frame: SlotFrame,
    /// What a re-bind or a failover binds by, repinned per bind.
    templates: BindTemplates,
}

thread_local! {
    /// This thread's idle [`ReadScratch`]es. A composite read pops one and
    /// pushes it back when done, so a child composite served inside its
    /// parent's fan-out pops another: nested reads never share buffers,
    /// and the thread holds as many as its deepest nesting, however many
    /// composites it serves, reusing them read after read.
    static SCRATCH: RefCell<Vec<ReadScratch>> = const { RefCell::new(Vec::new()) };
}

impl ReadScratch {
    fn take() -> ReadScratch {
        SCRATCH.with_borrow_mut(Vec::pop).unwrap_or_default()
    }

    /// Drop this read's outcomes and hand the buffers to the next read.
    fn put_back(mut self) {
        self.outcomes.clear();
        SCRATCH.with_borrow_mut(|stack| stack.push(self));
    }
}

/// One read's fan-out: what every child hop shares, and the one request
/// they all lend.
struct FanOut<'r> {
    accessor: &'r ServiceAccessor,
    host: HostId,
    retry: RetryPolicy,
    breakers: Option<&'r crate::admission::SharedBreakers>,
    cache_enabled: bool,
    children: &'r [Child],
    requests: &'r [RequestHeader],
    bindings: &'r mut [Connection],
    request: &'r mut Exertion,
    /// The templates a re-bind and a failover bind by, repinned per bind.
    templates: &'r mut BindTemplates,
    /// The breadcrumb every child request carries.
    visited: &'r Arc<[Value]>,
}

impl FanOut<'_> {
    /// Read child `idx` under its own `csp.child` span (the dispatch spans
    /// and retry events nest under it): the named provider first, then
    /// §V.A's "equivalent available service provider" — whether the named
    /// provider is gone *or* answered with a failure.
    fn read_child(&mut self, env: &mut Env, idx: usize) -> ChildOutcome {
        let child = &self.children[idx];
        let span = env.span_start("csp.child", &child.service_name, self.host);
        let started = env.now();
        let outcome = match (self.read_named(env, idx), &child.group) {
            (Err(named), Some(group)) => self.fail_over(env, idx, group, named, span, started),
            (outcome, _) => outcome.map_err(ChildError::from),
        };
        match &outcome {
            Ok((_, _, good)) => {
                if span.is_valid() && !*good {
                    env.span_field(span, "quality", "suspect");
                }
                env.span_end(span, Outcome::Ok);
            }
            Err(e) => {
                if span.is_valid() {
                    env.span_field(span, "error", e.text(child));
                }
                env.span_end(span, Outcome::Error);
            }
        }
        outcome
    }

    /// Resolve the named provider: cached proxy first; a stale proxy is
    /// dropped and the name re-bound within this same read. A cached
    /// binding keeps its connection to the provider open across reads;
    /// without the cache every hop is one-shot.
    fn read_named(&mut self, env: &mut Env, idx: usize) -> Result<(f64, Text, bool), Miss> {
        let mut link = self.bindings[idx];
        if let Some(svc) = link.peer().filter(|_| self.cache_enabled) {
            if self.breaker_open(env, svc) {
                // Breaker open: a fresh bind would reach the same tripped
                // provider, so skip straight to the group fallback without
                // retrying.
                return Err(Miss::BreakerOpen);
            }
            let sent = self.hop(env, idx, svc, &mut link, self.retry);
            self.bindings[idx] = link;
            // Answered, well or with a failure (dead transducer, expression
            // error in a nested CSP, ...) — a fresh bind would reach the
            // same provider, so a failure goes straight to the group
            // fallback. No reply means a stale proxy: the failed hop closed
            // the binding's connection, which drops it; re-bind below.
            if let Ok(outcome) = sent {
                return outcome;
            }
        }
        let by_name = &mut self.templates.by_name;
        by_name.repin(&self.children[idx].service_name);
        match self.accessor.bind_by(env, self.host, by_name, |_| false) {
            Some(item) if self.breaker_open(env, item.service) => Err(Miss::BreakerOpen),
            Some(item) => {
                let mut link = Connection::closed();
                let sent = self.hop(env, idx, item.service, &mut link, self.retry);
                if self.cache_enabled {
                    self.bindings[idx] = link;
                }
                sent.unwrap_or_else(|e| Err(Miss::Unreachable(e)))
            }
            None => Err(Miss::NotFound),
        }
    }

    /// Pass child `idx`'s request on to a provider of its equivalence
    /// `group` after the named one failed with `named`.
    fn fail_over(
        &mut self,
        env: &mut Env,
        idx: usize,
        group: &str,
        named: Miss,
        span: SpanId,
        started: SimTime,
    ) -> ChildOutcome {
        env.metrics.add(keys::FAILOVER_ATTEMPTS, 1);
        if span.is_valid() {
            // elapsed_ns: how much of this child's budget the primary
            // burned before we gave up on it.
            let elapsed = (env.now() - started).as_nanos();
            let fields = vec![("group", group.into()), ("elapsed_ns", elapsed.into())];
            env.span_event(span, "failover.attempt", fields);
        }
        let failed = move |item, miss| ChildError {
            named,
            equivalent: Some((item, miss)),
        };
        let by_group = &mut self.templates.by_group;
        by_group.repin(group);
        let name = self.children[idx].service_name.as_str();
        let Some(item) = self
            .accessor
            .bind_by(env, self.host, by_group, |item| item.name() == Some(name))
        else {
            return Err(failed(None, Miss::NotFound));
        };
        if self.breaker_open(env, item.service) {
            return Err(failed(Some(item), Miss::BreakerOpen));
        }
        // The failover hop stays single-shot and one-shot: the retry budget
        // was already spent on the primary, and no binding holds it.
        let once = RetryPolicy::none();
        match self.hop(env, idx, item.service, &mut Connection::closed(), once) {
            Ok(Ok(v)) => {
                env.metrics.add(keys::FAILOVER_SUCCESS, 1);
                if span.is_valid() {
                    let elapsed = (env.now() - started).as_nanos();
                    let eq = item.name().unwrap_or("equivalent");
                    let fields = vec![("equivalent", eq.into()), ("elapsed_ns", elapsed.into())];
                    env.span_event(span, "failover.success", fields);
                }
                // Deliberately not cached: the primary is retried next read.
                Ok(v)
            }
            Ok(Err(miss)) => Err(failed(Some(item), miss)),
            Err(e) => Err(failed(Some(item), Miss::Unreachable(e))),
        }
    }

    /// Whether a breaker is open on `svc`, so the hop must be skipped.
    fn breaker_open(&self, env: &mut Env, svc: ServiceId) -> bool {
        self.breakers
            .is_some_and(|b| !b.borrow_mut().allow(env, svc))
    }

    /// One hop: arm the request for child `idx`, lend it to `svc` over
    /// `link` under `budget`, tell the breaker how the wire behaved, and
    /// read the reply where it lies (the unit and a failure's message are
    /// moved out of it, not copied). The outer error means no reply came
    /// back at all.
    fn hop(
        &mut self,
        env: &mut Env,
        idx: usize,
        svc: ServiceId,
        link: &mut Connection,
        budget: RetryPolicy,
    ) -> Result<Result<(f64, Text, bool), Miss>, NetError> {
        let (to, visited) = (&self.requests[idx], self.visited);
        arm(self.request, to, visited);
        let sent = exert_in_place_rearmed(env, self.host, svc, self.request, link, &budget, |r| {
            arm(r, to, visited)
        });
        if let Some(b) = self.breakers {
            b.borrow_mut().record(env, svc, sent.err());
        }
        sent?;
        let Exertion::Task(task) = &mut *self.request else {
            unreachable!("a provider exerts the lent task in place")
        };
        Ok(match &mut task.status {
            ExertionStatus::Done => {
                let ctx = &mut task.context;
                match ctx.get_f64(paths::SENSOR_VALUE) {
                    Some(v) => {
                        let good = ctx.get_str(paths::SENSOR_QUALITY) != Some("suspect");
                        let unit = match ctx.remove(paths::SENSOR_UNIT) {
                            Some(Value::Str(u)) => u,
                            _ => Text::Static(""),
                        };
                        Ok((v, unit, good))
                    }
                    None => Err(Miss::NoValue),
                }
            }
            ExertionStatus::Failed(e) => Err(Miss::Failed(std::mem::take(e))),
            other => Err(Miss::Unexpected(other.clone())),
        })
    }
}

/// The templates a composite's re-binds and failovers bind by: its
/// children's interface with a `Name`, and with an equivalence group.
struct BindTemplates {
    by_name: ServiceTemplate,
    by_group: ServiceTemplate,
}

impl Default for BindTemplates {
    fn default() -> BindTemplates {
        let iface = || ServiceTemplate::by_interface(interfaces::SENSOR_DATA_ACCESSOR);
        BindTemplates {
            by_name: iface().and_attr(AttrMatch::name("")),
            by_group: iface().and_attr(AttrMatch::Custom {
                key: Some(EQUIVALENCE_GROUP_KEY.into()),
                value: Some(String::new()),
            }),
        }
    }
}

/// Registration attribute key marking interchangeable providers (§V.A's
/// "equivalent available service provider").
pub const EQUIVALENCE_GROUP_KEY: &str = "equivalence-group";

/// The provider state.
pub struct CompositeSensorProvider {
    name: String,
    /// `name` as this provider's entry in the visited breadcrumb.
    breadcrumb: Value,
    /// The breadcrumb the last read's child requests carried: its incoming
    /// list plus `breadcrumb`. Rebuilt only when a read arrives with a
    /// different list, as it does through another parent.
    visited: Arc<[Value]>,
    exerted_by: Arc<str>,
    uuid: String,
    host: HostId,
    accessor: ServiceAccessor,
    children: Vec<Child>,
    /// What differs between the requests to two children: the label
    /// (`read <name>`) and the provider pin (`<name>`), one per child,
    /// built when the child is added so the per-read fan-out formats
    /// nothing.
    requests: Vec<RequestHeader>,
    /// The one request this composite has in flight, signed
    /// `SensorDataAccessor#getValue`. The fan-out is sequential on the
    /// host, so every primary, re-bind and failover hop [`arm`]s this same
    /// task for its child, lends it down and reads the reply out of it:
    /// the context and trace buffers are allocated once per composite,
    /// not once per hop.
    in_flight: Exertion,
    expression: Option<Program>,
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
    /// is reused until it fails), as the connection to the bound provider
    /// that the child's hops ride. A network failure closes it and so
    /// drops the binding, and a re-provisioned child is re-bound on the
    /// next read.
    bindings: Vec<Connection>,
}

impl CompositeSensorProvider {
    pub fn new(name: impl Into<String>, host: HostId, accessor: ServiceAccessor) -> Self {
        let name = name.into();
        CompositeSensorProvider {
            exerted_by: exerted_by(&name),
            breadcrumb: name.as_str().into(),
            visited: Arc::new([]),
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
        self.requests.push(RequestHeader::new(
            format!("read {service_name}"),
            service_name,
        ));
        self.last_good.push(None);
        self.bindings.push(Connection::closed());
        Ok(var)
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
        self.requests.remove(pos);
        self.last_good.remove(pos);
        self.bindings.remove(pos);
        for (i, child) in self.children.iter_mut().enumerate() {
            child.var = variable_for(i);
        }
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
    /// compute the composite value, under a `csp.read` span that carries
    /// the degradation verdict.
    fn handle_get_value(&mut self, env: &mut Env, task: &mut Task) {
        let span = env.span_start("csp.read", &self.name, self.host);
        env.span_field(span, "children", self.children.len());
        let mut scratch = ReadScratch::take();
        let read = self.get_value_inner(env, task, &mut scratch);
        scratch.put_back();
        if span.is_valid() {
            let outcome = match &read {
                Err(e) => {
                    env.span_field(span, "error", e.as_str());
                    Outcome::Error
                }
                Ok(names) if names.iter().all(Vec::is_empty) => Outcome::Ok,
                Ok(names) => {
                    for (key, names) in ["substituted", "missing"].into_iter().zip(names) {
                        if !names.is_empty() {
                            env.span_field(span, key, join_children(names));
                        }
                    }
                    Outcome::Degraded
                }
            };
            env.span_end(span, outcome);
        }
        match read {
            Ok(_) => task.status = ExertionStatus::Done,
            Err(e) => task.fail(e),
        }
    }

    /// Fan the read out to every child, [`settle`] it, and apply what was
    /// settled: `last_good`, the degradation events and metrics, the
    /// expression and the result context. Returns the substituted and
    /// missing children, or why the read failed. The outcomes and the
    /// expression's slots live in `scratch`, so a read allocates no list.
    fn get_value_inner(
        &mut self,
        env: &mut Env,
        task: &mut Task,
        scratch: &mut ReadScratch,
    ) -> Result<[Vec<&str>; 2], String> {
        self.reads_total += 1;
        let name = &self.name;
        if self.children.is_empty() {
            return Err(format!("composite '{name}' has no composed services"));
        }

        // Cycle guard: refuse to read if this provider already appears in
        // the visited breadcrumb of the incoming request.
        let above: &[Value] = match task.context.get(VISITED_PATH) {
            Some(Value::List(xs)) => xs,
            _ => &[],
        };
        let is_me = |v: &Value| matches!(v, Value::Str(s) if **s == **name);
        if above.iter().any(is_me) {
            return Err(format!("composition cycle detected at '{name}'"));
        }
        // One breadcrumb list for the whole fan-out, shared by every child
        // request and kept across reads that arrive with the same list.
        if self.visited.split_last().map(|(_, crumbs)| crumbs) != Some(above) {
            self.visited = above.iter().chain([&self.breadcrumb]).cloned().collect();
        }

        // Fan the child reads out in parallel — this is a small federation
        // exerted for this request. Every hop re-arms and lends the one
        // in-flight request and pushes its outcome into the scratch list;
        // on a clean read nothing is formatted or allocated here. Bindings
        // are cached (the Jini proxy model): only an unknown or failed
        // child costs a LUS lookup.
        let ReadScratch {
            outcomes,
            frame,
            templates,
        } = scratch;
        let children = &self.children;
        let mut fan = FanOut {
            accessor: &self.accessor,
            host: self.host,
            retry: self.retry,
            breakers: self.breakers.as_ref(),
            cache_enabled: self.binding_cache_enabled,
            children,
            requests: &self.requests,
            bindings: &mut self.bindings,
            request: &mut self.in_flight,
            templates,
            visited: &self.visited,
        };
        env.parallel_over(0..children.len(), |env: &mut Env, idx: usize| {
            outcomes.push(fan.read_child(env, idx));
        });
        // The hub pays CPU per child for demarshalling and bookkeeping —
        // child reads overlap on the network, but aggregation work on this
        // provider is serial. This is what makes very wide flat composites
        // lose to hierarchies (B2).
        env.consume(sensorcer_sim::time::SimDuration::from_micros(120) * outcomes.len() as u64);

        // Ages are measured to this instant; it stamps this read's clean readings.
        let at = env.now();
        let mut settled = settle(
            self.degradation,
            self.expression.is_some(),
            children,
            outcomes,
            &self.last_good,
            at,
        );
        for (idx, outcome) in outcomes.iter().enumerate() {
            if let Ok((value, unit, true)) = outcome {
                // Fresh clean reading — remember it for future degraded
                // reads of this child, whatever the verdict.
                let (value, unit) = (*value, unit.clone());
                self.last_good[idx] = Some(LastGood { value, unit, at });
            }
        }
        // Failed children are surfaced in events, metrics and the result
        // context — a degraded read is never silently clean.
        for &(idx, fate) in &settled.fates {
            let child = children[idx].service_name.as_str();
            let (event, key) = match fate {
                Fate::Substituted { .. } => ("degradation.substitute", keys::SUBSTITUTED_CHILDREN),
                Fate::Missing => ("degradation.missing", keys::MISSING_CHILDREN),
            };
            let cur = env.current_span();
            if cur.is_valid() {
                let mut fields = vec![("child", child.into())];
                if let Fate::Substituted { age, .. } = fate {
                    fields.push(("age_ns", age.as_nanos().into()));
                }
                env.span_event(cur, event, fields);
            }
            env.metrics.add_labeled(key, child, 1);
        }
        // Moved out, not cloned: the fates left in `settled` still give the
        // readings below.
        let all_good = std::mem::replace(&mut settled.verdict, Ok(false))?;
        let substituted = fate_names(children, &settled.fates, false);
        let missing = fate_names(children, &settled.fates, true);
        if !settled.fates.is_empty() {
            env.metrics.add(keys::DEGRADED_READS, 1);
            env.metrics
                .add(keys::SUBSTITUTED_CHILDREN, substituted.len() as u64);
        }

        let computed = match &self.expression {
            // The expression evaluation gets its own span: a read that
            // fails *here* failed on the hub, after every child answered.
            Some(program) => {
                let span = env.span_start("csp.eval", program.source(), self.host);
                env.span_field(span, "inputs", settled.readings(outcomes).count());
                let readings = settled
                    .readings(outcomes)
                    .map(|(idx, v)| (children[idx].var.as_str(), Value::Float(v)));
                let value = match program.bind_iter_in(readings, frame) {
                    Ok(v) => v
                        .as_f64()
                        .ok_or_else(|| format!("expression produced non-numeric value: {v}")),
                    Err(e) => Err(format!("expression error: {e}")),
                };
                match &value {
                    Ok(_) => env.span_end(span, Outcome::Ok),
                    Err(msg) => {
                        env.span_field(span, "error", msg.as_str());
                        env.span_end(span, Outcome::Error);
                    }
                }
                value?
            }
            // Default aggregation when no expression is installed.
            None => {
                let sum: f64 = settled.readings(outcomes).map(|(_, v)| v).sum();
                sum / settled.readings(outcomes).count() as f64
            }
        };
        let value = self.calibration.apply(computed);

        let ctx = &mut task.context;
        ctx.put(paths::SENSOR_VALUE, value);
        ctx.put(paths::RESULT, value);
        ctx.put(paths::SENSOR_UNIT, settled.unit);
        ctx.put(paths::SENSOR_AT, env.now().as_nanos() as f64);
        let quality = if all_good { "good" } else { "suspect" };
        ctx.put(paths::SENSOR_QUALITY, Value::literal(quality));
        write_degraded(ctx, &substituted, &missing);
        Ok([substituted, missing])
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

    fn service(&mut self, env: &mut Env, exertion: &mut Exertion) {
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
    let interfaces = [
        interfaces::SENSOR_DATA_ACCESSOR,
        interfaces::COMPOSITE_MANAGEMENT,
        interfaces::SERVICER,
    ];
    let item = ServiceItem::provider(config.host, service, &interfaces, &config.name, "COMPOSITE");
    if let Ok(reg) = join(env, config.lus, item, Some(config.lease), config.renewal) {
        let _ = env.with_service(service, |_env, sb: &mut ServicerBox| {
            if let Some(csp) = sb.downcast_mut::<CompositeSensorProvider>() {
                csp.uuid = reg.uuid.to_string();
            }
        });
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

    /// Every `composite/visited` list a [`Recorder`] was asked with.
    type Crumbs = std::rc::Rc<std::cell::RefCell<Vec<Vec<String>>>>;

    /// A sensor that answers 1.0 and records the breadcrumb it was read with.
    struct Recorder {
        name: String,
        seen: Crumbs,
    }

    impl Servicer for Recorder {
        fn provider_name(&self) -> &str {
            &self.name
        }

        fn service(&mut self, _env: &mut Env, exertion: &mut Exertion) {
            let Exertion::Task(task) = exertion else {
                return;
            };
            let crumbs = match task.context.get(VISITED_PATH) {
                Some(Value::List(xs)) => xs.iter().map(|v| v.to_string()).collect(),
                _ => Vec::new(),
            };
            self.seen.borrow_mut().push(crumbs);
            task.context.put(paths::SENSOR_VALUE, 1.0);
            task.status = ExertionStatus::Done;
        }
    }

    fn add_recorder(w: &mut World, name: &str) -> Crumbs {
        let seen = Crumbs::default();
        let recorder = Recorder {
            name: name.into(),
            seen: seen.clone(),
        };
        let service = w.env.deploy(w.server, name, ServicerBox::new(recorder));
        let iface = [interfaces::SENSOR_DATA_ACCESSOR];
        let item = ServiceItem::provider(w.server, service, &iface, name, "ELEMENTARY");
        w.lus.register(&mut w.env, w.server, item, None).unwrap();
        seen
    }

    /// `(provider, request label, provider pin)` for every request a
    /// [`Labelled`] sensor served.
    type Asked = std::rc::Rc<std::cell::RefCell<Vec<(String, String, String)>>>;

    /// A sensor that answers 1.0 and logs each request's label and pin.
    struct Labelled {
        name: String,
        asked: Asked,
    }

    impl Servicer for Labelled {
        fn provider_name(&self) -> &str {
            &self.name
        }

        fn service(&mut self, _env: &mut Env, exertion: &mut Exertion) {
            let Exertion::Task(task) = exertion else {
                return;
            };
            let pin = task.signature.provider_name.as_deref().unwrap_or("");
            let asked = (self.name.clone(), task.name.to_string(), pin.to_string());
            self.asked.borrow_mut().push(asked);
            task.context.put(paths::SENSOR_VALUE, 1.0);
            task.status = ExertionStatus::Done;
        }
    }

    #[test]
    fn a_removed_child_takes_its_request_label_with_it() {
        let mut w = setup();
        let asked = Asked::default();
        for name in ["a", "b", "c"] {
            let sensor = Labelled {
                name: name.into(),
                asked: asked.clone(),
            };
            let service = w.env.deploy(w.server, name, ServicerBox::new(sensor));
            let iface = [interfaces::SENSOR_DATA_ACCESSOR];
            let item = ServiceItem::provider(w.server, service, &iface, name, "ELEMENTARY");
            w.lus.register(&mut w.env, w.server, item, None).unwrap();
        }
        let mut cfg = CspConfig::new(w.server, "C", w.lus);
        cfg.children = vec!["a".into(), "b".into(), "c".into()];
        deploy_csp(&mut w.env, cfg).unwrap();
        let ctx = Context::new().with("arg/service", "b");
        let (env, client, accessor) = (&mut w.env, w.client, &w.accessor);
        client::manage(env, client, accessor, "C", mgmt::REMOVE_SERVICE, ctx).unwrap();

        w.env.enable_tracing(64);
        client::get_value(&mut w.env, w.client, &w.accessor, "C").unwrap();
        let hop = |p: &str| (p.to_string(), format!("read {p}"), p.to_string());
        assert_eq!(*asked.borrow(), [hop("a"), hop("c")]);
        let recorder = w.env.recorder().unwrap();
        let mut hops: Vec<&str> = recorder
            .spans()
            .filter(|s| s.name == "fmi.dispatch" && &*s.label != "C")
            .map(|s| &*s.label)
            .collect();
        hops.sort_unstable();
        assert_eq!(hops, ["a", "c"]);
    }

    /// X under P: X read directly, through P, then directly again.
    fn x_under_p() -> (World, Crumbs) {
        let mut w = setup();
        let seen = add_recorder(&mut w, "R");
        let mut x = CspConfig::new(w.server, "X", w.lus);
        x.children = vec!["R".into()];
        deploy_csp(&mut w.env, x).unwrap();
        let mut p = CspConfig::new(w.server, "P", w.lus);
        p.children = vec!["X".into()];
        deploy_csp(&mut w.env, p).unwrap();
        for via in ["X", "P", "X"] {
            client::get_value(&mut w.env, w.client, &w.accessor, via).unwrap();
        }
        (w, seen)
    }

    #[test]
    fn cached_breadcrumb_follows_the_path_a_read_arrives_by() {
        let (mut w, seen) = x_under_p();
        let path = |p: &[&str]| p.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let expected = vec![path(&["X"]), path(&["P", "X"]), path(&["X"])];
        assert_eq!(*seen.borrow(), expected);
        // The same path twice in a row reuses the list and still carries it.
        client::get_value(&mut w.env, w.client, &w.accessor, "X").unwrap();
        assert_eq!(seen.borrow().last(), Some(&path(&["X"])));
    }

    #[test]
    fn cycle_added_after_the_breadcrumb_is_cached_is_still_refused() {
        let (mut w, _) = x_under_p();
        // X now contains P, which contains X.
        let ctx = Context::new().with("arg/service", "P");
        client::manage(
            &mut w.env,
            w.client,
            &w.accessor,
            "X",
            mgmt::ADD_SERVICE,
            ctx,
        )
        .unwrap();
        for via in ["X", "P"] {
            let err = client::get_value(&mut w.env, w.client, &w.accessor, via).unwrap_err();
            assert!(err.contains("cycle") || err.contains("busy"), "{err}");
        }
        // A request whose breadcrumb already names X is refused by X's own
        // guard, warm cache or not.
        let mut x = CompositeSensorProvider::new("X", w.server, w.accessor.clone());
        x.add_service("R").unwrap();
        let read = |crumbs: Vec<Value>| -> Exertion {
            let sig = Signature::new(interfaces::SENSOR_DATA_ACCESSOR, selectors::GET_VALUE);
            let ctx = Context::new().with(VISITED_PATH, Value::List(crumbs.into()));
            Task::new("read X", sig, ctx).into()
        };
        let mut warm = read(Vec::new());
        x.service(&mut w.env, &mut warm);
        assert_eq!(*warm.status(), ExertionStatus::Done);
        let mut looped = read(vec!["P".into(), "X".into()]);
        x.service(&mut w.env, &mut looped);
        let expected = ExertionStatus::Failed("composition cycle detected at 'X'".into());
        assert_eq!(*looped.status(), expected);
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
                esp.swap_probe(Box::new(
                    SimulatedProbe::new(
                        Teds::sunspot_temperature("s"),
                        Signal::Constant(20.0),
                        SimRng::new(5),
                    )
                    .with_faults(FaultInjector::new(FaultModel {
                        dropout_prob: 1.0,
                        ..Default::default()
                    })),
                ));
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
        // Only the backup is kept alive, so only the primary lapses.
        let renewal = sensorcer_registry::renewal::LeaseRenewalService::deploy(
            &mut w.env, w.server, "Renewal",
        );
        let mut motes = Vec::new();
        for (name, value, renewal) in [
            ("GH-Primary", 20.0, None),
            ("GH-Backup", 24.0, Some(renewal)),
        ] {
            let mote = w.env.add_host(format!("{name}-mote"), HostKind::SensorMote);
            deploy_esp(
                &mut w.env,
                EspConfig {
                    lease: SimDuration::from_secs(5),
                    renewal,
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
    fn breaker_open_equivalent_is_not_dispatched() {
        // The failover hop asks the breaker too: a tripped equivalent is
        // skipped, and the read says why it failed.
        let mut w = setup();
        let mut hosts = Vec::new();
        for (name, value) in [("GH-Primary", 20.0), ("GH-Backup", 24.0)] {
            let mote = w.env.add_host(format!("{name}-mote"), HostKind::SensorMote);
            let probe = Box::new(ScriptedProbe::new(vec![value], Unit::Celsius));
            let esp = EspConfig {
                equivalence_group: Some("greenhouse".into()),
                ..EspConfig::new(mote, name, probe, w.lus)
            };
            hosts.push((mote, deploy_esp(&mut w.env, esp).service));
        }
        let breakers = crate::admission::shared_breakers(Default::default());
        let mut cfg = CspConfig::new(w.server, "GH", w.lus);
        cfg.breakers = Some(breakers.clone());
        let handle = deploy_csp(&mut w.env, cfg).unwrap();
        w.env
            .with_service(handle.service, |_e, sb: &mut ServicerBox| {
                sb.downcast_mut::<CompositeSensorProvider>()
                    .unwrap()
                    .add_service_grouped("GH-Primary", Some("greenhouse".into()))
                    .unwrap();
            })
            .unwrap();

        w.env.crash_host(hosts[0].0);
        let now = w.env.now();
        breakers.borrow_mut().trip(hosts[1].1, now);
        let err = client::get_value(&mut w.env, w.client, &w.accessor, "GH").unwrap_err();
        assert!(err.contains("equivalent breaker open"), "{err}");
        assert!(w.env.metrics.get(crate::admission::keys::BREAKER_SKIPPED) >= 1);
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
