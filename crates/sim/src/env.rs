//! The simulation world.
//!
//! An [`Env`] owns the virtual clock, the timer queue, the network
//! [`Topology`], the [`Metrics`] sink and every deployed service object.
//! Middleware built on top of it (registry, provisioning, exertions,
//! sensor providers) interacts exclusively through:
//!
//! * [`Env::call`] — a synchronous remote invocation that checks
//!   reachability, charges wire bytes/latency per [`ProtocolStack`], and
//!   then runs a closure against the target service object;
//! * [`Env::multicast`] — a one-to-group transmission (discovery);
//! * [`Env::schedule`] / [`Env::schedule_every`] — timers that drive
//!   leases, renewals, sampling and monitors;
//! * fault injection (`crash_host`, `partition`, …).
//!
//! The model is a *synchronous-call discrete-event simulation*: a remote
//! call executes its handler inline while the clock advances by the
//! simulated propagation and processing time. Concurrent branches are
//! expressed with [`Env::parallel`], which runs each branch from a common
//! start time and merges to the latest completion (fork/max-merge). This
//! keeps the whole middleware deterministic and single-threaded while still
//! producing honest virtual-time and bytes-on-wire measurements.

use std::any::Any;
use std::cell::RefCell;
use std::rc::Rc;

use sensorcer_trace::{FieldValue, FlightRecorder, Outcome, SpanId};

use crate::conn::Exchange;
use crate::metrics::{keys, Key, Metrics};
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::timers::{Repeat, TimerCallback, TimerKey, Timers};
use crate::topology::{HostId, HostKind, NetError, Topology};
use crate::wire::ProtocolStack;

/// Identifier of a deployed service object.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct ServiceId(pub u64);

impl std::fmt::Display for ServiceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "svc{}", self.0)
    }
}

/// Identifier of a scheduled timer: its sequence number — every timer an
/// `Env` ever queues, one-shot or one firing of a repeating one, takes the
/// next — and, for [`Env::cancel`], where its callback is stored.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub u64, usize);

/// Kept for `benchmark/`; the `[benchmark]` queue deletes it.
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub struct ShardStats {
    pub windows: u64,
}

/// Retransmission budget for reliable stacks before giving up.
const MAX_RETRANSMITS: u32 = 8;

/// Simulated per-call processing cost on the callee (scheduling,
/// dispatch, marshalling) added on top of wire time.
const DISPATCH_COST: SimDuration = SimDuration::from_micros(50);

/// Tunables of the simulation kernel.
#[derive(Clone, Copy, Debug)]
pub struct EnvConfig {
    /// RNG seed; everything stochastic derives from it.
    pub seed: u64,
    /// How long a requestor waits before declaring a call dead when the
    /// destination is unreachable or an unreliable packet is lost.
    pub call_timeout: SimDuration,
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig {
            seed: 0xC0FFEE,
            call_timeout: SimDuration::from_secs(2),
        }
    }
}

struct ServiceSlot {
    host: HostId,
    name: String,
    obj: Rc<RefCell<dyn Any>>,
}

impl ServiceSlot {
    /// A free function over the table so callers can hold another field of
    /// `Env` mutably.
    fn lookup(table: &[Option<ServiceSlot>], id: ServiceId) -> Option<&ServiceSlot> {
        table.get(usize::try_from(id.0).ok()?)?.as_ref()
    }
}

/// A callback registered with [`Env::timer_group`]: its members are
/// repeating timers that each name it by index instead of owning a closure.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimerGroup(u32);

/// Handle to a repeating timer; dropping it does *not* cancel the timer,
/// call [`RepeatHandle::cancel`] explicitly.
#[derive(Clone, Debug)]
pub struct RepeatHandle(Rc<std::cell::Cell<bool>>);

impl RepeatHandle {
    /// Stop future firings (the current firing, if in progress, completes).
    pub fn cancel(&self) {
        self.0.set(false);
    }
}

/// The kernel's own counters ([`keys`]), resolved when the registry is
/// built: every call writes several of them.
struct NetKeys {
    bytes_payload: Key,
    bytes_wire: Key,
    packets: Key,
    calls_ok: Key,
    calls_failed: Key,
    packets_lost: Key,
    retransmits: Key,
    multicasts: Key,
}

impl NetKeys {
    fn resolve(metrics: &mut Metrics) -> NetKeys {
        NetKeys {
            bytes_payload: metrics.key(keys::BYTES_PAYLOAD),
            bytes_wire: metrics.key(keys::BYTES_WIRE),
            packets: metrics.key(keys::PACKETS),
            calls_ok: metrics.key(keys::CALLS_OK),
            calls_failed: metrics.key(keys::CALLS_FAILED),
            packets_lost: metrics.key(keys::PACKETS_LOST),
            retransmits: metrics.key(keys::RETRANSMITS),
            multicasts: metrics.key(keys::MULTICASTS),
        }
    }
}

/// The simulation world. See the module docs for the interaction model.
pub struct Env {
    pub config: EnvConfig,
    pub topo: Topology,
    /// The telemetry registry. Its `net.*` keys are resolved into `net`, so
    /// reset it with [`Metrics::clear`], never by assigning a new registry.
    pub metrics: Metrics,
    net: NetKeys,
    clock: SimTime,
    rng: SimRng,
    /// Pending timers, fired in `(deadline, seq)` order: one-shots in a
    /// heap, repeating timers in one lane per interval.
    timers: Timers,
    next_timer_seq: u64,
    /// Indexed by `ServiceId`: ids count up from zero and are never
    /// reused, so an undeployed service leaves a hole.
    services: Vec<Option<ServiceSlot>>,
    /// One value per type, shared by the services that ask for it with
    /// [`Env::shared`].
    shared: Vec<Rc<dyn Any>>,
    /// Optional flight recorder for structured spans. Absent by default
    /// so uninstrumented runs pay only a null check.
    recorder: Option<FlightRecorder>,
    /// Optional [`Observer`] of deliveries. Absent by default, and then
    /// every delivery pays one null check.
    observer: Option<Box<dyn Observer>>,
    /// Optional schedule oracle: when ≥2 timers are co-scheduled at the
    /// same deadline, picks which fires next (index into the seq-ordered
    /// due set). `None` means FIFO by seq — the historical order. The
    /// schedule explorer in `sensorcer-verify` installs this to permute
    /// delivery order systematically.
    tie_chooser: Option<Box<dyn FnMut(usize) -> usize>>,
}

/// A passive watcher of one [`Env`], installed with [`Env::set_observer`].
/// Its hook defaults to a no-op and is not given the `Env`, so an
/// observer can neither re-enter the world nor change its schedule.
pub trait Observer: Any {
    /// A message went `from → to`: each leg of a call, a one-way send,
    /// each receiver of a multicast.
    fn deliver(&mut self, _from: HostId, _to: HostId) {}
}

impl Env {
    pub fn new(config: EnvConfig) -> Self {
        let mut metrics = Metrics::new();
        Env {
            rng: SimRng::new(config.seed),
            config,
            topo: Topology::new(),
            net: NetKeys::resolve(&mut metrics),
            metrics,
            clock: SimTime::ZERO,
            timers: Timers::default(),
            next_timer_seq: 0,
            services: Vec::new(),
            shared: Vec::new(),
            recorder: None,
            observer: None,
            tie_chooser: None,
        }
    }

    /// A world with default configuration and the given seed.
    pub fn with_seed(seed: u64) -> Self {
        Env::new(EnvConfig {
            seed,
            ..EnvConfig::default()
        })
    }

    // ------------------------------------------------------------------
    // Clock and randomness
    // ------------------------------------------------------------------

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Advance the clock by a simulated processing cost.
    #[inline]
    pub fn consume(&mut self, d: SimDuration) {
        self.clock += d;
    }

    /// Mutable access to the deterministic RNG.
    #[inline]
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Fork an independent RNG stream (e.g. for a sensor probe).
    pub fn fork_rng(&mut self) -> SimRng {
        self.rng.fork()
    }

    // ------------------------------------------------------------------
    // Span tracing (the flight recorder)
    // ------------------------------------------------------------------

    /// Install a [`FlightRecorder`] holding at most `capacity` closed
    /// spans. Replaces any previous recorder.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.recorder = Some(FlightRecorder::new(capacity));
    }

    /// Remove and return the recorder (tracing becomes free again).
    pub fn disable_tracing(&mut self) -> Option<FlightRecorder> {
        self.recorder.take()
    }

    /// Whether a flight recorder is installed. Gate expensive label
    /// construction behind this; the span ops themselves already no-op
    /// on [`SpanId::INVALID`].
    #[inline]
    pub fn tracing_enabled(&self) -> bool {
        self.recorder.is_some()
    }

    /// Read-only access to the installed recorder.
    pub fn recorder(&self) -> Option<&FlightRecorder> {
        self.recorder.as_ref()
    }

    /// Open a span as a child of the innermost open span (or as a new
    /// trace root). Returns [`SpanId::INVALID`] — on which every other
    /// span operation is a no-op — when tracing is disabled.
    pub fn span_start(&mut self, name: &'static str, label: &str, host: HostId) -> SpanId {
        match self.recorder.as_mut() {
            Some(r) => r.span_start(name, label, host.0 as u64, self.clock.as_nanos()),
            None => SpanId::INVALID,
        }
    }

    /// Like [`span_start`](Self::span_start), but labelled and hosted
    /// from a deployed service's slot — the hot dispatch path uses this
    /// to avoid copying the provider name just to satisfy the borrow
    /// checker.
    pub fn span_start_for(
        &mut self,
        name: &'static str,
        provider: ServiceId,
        fallback_host: HostId,
    ) -> SpanId {
        match self.recorder.as_mut() {
            Some(r) => {
                let (label, host) = match ServiceSlot::lookup(&self.services, provider) {
                    Some(s) => (s.name.as_str(), s.host),
                    None => ("?", fallback_host),
                };
                r.span_start(name, label, host.0 as u64, self.clock.as_nanos())
            }
            None => SpanId::INVALID,
        }
    }

    /// Attach a structured field to an open span.
    pub fn span_field(&mut self, id: SpanId, key: &'static str, value: impl Into<FieldValue>) {
        if let Some(r) = self.recorder.as_mut() {
            r.span_field(id, key, value.into());
        }
    }

    /// Record a point-in-time event on an open span.
    pub fn span_event(
        &mut self,
        id: SpanId,
        name: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        if let Some(r) = self.recorder.as_mut() {
            let now = self.clock.as_nanos();
            r.span_event(id, now, name, fields);
        }
    }

    /// The innermost open span (e.g. to annotate the enclosing operation
    /// from a lower layer), or `INVALID` when none.
    pub fn current_span(&self) -> SpanId {
        self.recorder
            .as_ref()
            .map_or(SpanId::INVALID, |r| r.current())
    }

    /// Close an open span with its outcome.
    pub fn span_end(&mut self, id: SpanId, outcome: Outcome) {
        if let Some(r) = self.recorder.as_mut() {
            let now = self.clock.as_nanos();
            r.span_end(id, now, outcome);
        }
    }

    // ------------------------------------------------------------------
    // The observer
    // ------------------------------------------------------------------

    /// Install `observer`, replacing any previous one.
    pub fn set_observer(&mut self, observer: impl Observer) {
        self.observer = Some(Box::new(observer));
    }

    /// Remove and return the installed observer when it is a `T`; an
    /// observer of another type stays installed.
    pub fn take_observer<T: Observer>(&mut self) -> Option<Box<T>> {
        if !(self.observer.as_deref()? as &dyn Any).is::<T>() {
            return None;
        }
        let observer: Box<dyn Any> = self.observer.take()?;
        observer.downcast().ok()
    }

    /// Record a message edge `from → to` (called by the delivery paths).
    #[inline]
    fn observe_delivery(&mut self, from: HostId, to: HostId) {
        if let Some(o) = self.observer.as_mut() {
            o.deliver(from, to);
        }
    }

    // ------------------------------------------------------------------
    // Hosts and faults
    // ------------------------------------------------------------------

    /// Add a host to the topology.
    pub fn add_host(&mut self, name: impl Into<String>, kind: HostKind) -> HostId {
        self.topo.add_host(name, kind)
    }

    /// Crash a host: it stops responding; its services stay deployed and
    /// come back verbatim on [`Env::restart_host`] (the paper's "when it is
    /// up the node is immediately available" behaviour).
    pub fn crash_host(&mut self, host: HostId) {
        if let Some(h) = self.topo.host_mut(host) {
            h.alive = false;
        }
    }

    /// Bring a crashed host back.
    pub fn restart_host(&mut self, host: HostId) {
        if let Some(h) = self.topo.host_mut(host) {
            h.alive = true;
        }
    }

    // ------------------------------------------------------------------
    // Service deployment
    // ------------------------------------------------------------------

    /// Deploy a service object on a host and return its id.
    pub fn deploy<T: Any>(&mut self, host: HostId, name: impl Into<String>, obj: T) -> ServiceId {
        self.deploy_shared(host, name, Rc::new(RefCell::new(obj)))
    }

    /// Deploy a pre-wrapped (possibly externally shared) service object.
    pub fn deploy_shared<T: Any>(
        &mut self,
        host: HostId,
        name: impl Into<String>,
        obj: Rc<RefCell<T>>,
    ) -> ServiceId {
        let id = ServiceId(self.services.len() as u64);
        self.services.push(Some(ServiceSlot {
            host,
            name: name.into(),
            obj,
        }));
        id
    }

    fn service(&self, id: ServiceId) -> Option<&ServiceSlot> {
        ServiceSlot::lookup(&self.services, id)
    }

    /// Deployed services with their ids, in id order.
    fn deployed(&self) -> impl Iterator<Item = (ServiceId, &ServiceSlot)> {
        self.services
            .iter()
            .enumerate()
            .filter_map(|(i, s)| Some((ServiceId(i as u64), s.as_ref()?)))
    }

    /// Remove a service. Returns true if it was deployed.
    pub fn undeploy(&mut self, id: ServiceId) -> bool {
        usize::try_from(id.0)
            .ok()
            .and_then(|i| self.services.get_mut(i))
            .is_some_and(|s| s.take().is_some())
    }

    /// The host a service runs on.
    pub fn service_host(&self, id: ServiceId) -> Option<HostId> {
        self.service(id).map(|s| s.host)
    }

    /// The deployment name of a service.
    pub fn service_name(&self, id: ServiceId) -> Option<&str> {
        self.service(id).map(|s| s.name.as_str())
    }

    /// Ids of all services deployed on `host`, in id order.
    pub fn services_on(&self, host: HostId) -> Vec<ServiceId> {
        self.deployed()
            .filter(|(_, s)| s.host == host)
            .map(|(id, _)| id)
            .collect()
    }

    /// Find a deployed service by its deployment name.
    pub fn find_service(&self, name: &str) -> Option<ServiceId> {
        self.deployed()
            .find(|(_, s)| s.name == name)
            .map(|(id, _)| id)
    }

    /// Whether the service is deployed *and* its host is alive.
    pub fn is_service_up(&self, id: ServiceId) -> bool {
        self.service(id).is_some_and(|s| self.topo.is_alive(s.host))
    }

    /// Whether the deployed service object is of concrete type `T`.
    pub fn service_is<T: Any>(&self, id: ServiceId) -> bool {
        self.service(id)
            .is_some_and(|s| s.obj.borrow().downcast_ref::<T>().is_some())
    }

    /// The world's one `T`, made by `make` on first use: state that many
    /// services of a kind share (every ESP's probe and ring sit in one
    /// bank), found by its type.
    pub fn shared<T: Any>(&mut self, make: impl FnOnce() -> T) -> Rc<RefCell<T>> {
        for value in &self.shared {
            if let Ok(t) = Rc::clone(value).downcast::<RefCell<T>>() {
                return t;
            }
        }
        let t = Rc::new(RefCell::new(make()));
        self.shared.push(Rc::clone(&t) as Rc<dyn Any>);
        t
    }

    /// Run a closure against a service object with **no** network
    /// accounting. This is the local (same-process) access path and the
    /// escape hatch for tests.
    pub fn with_service<T: Any, R>(
        &mut self,
        id: ServiceId,
        f: impl FnOnce(&mut Env, &mut T) -> R,
    ) -> Result<R, NetError> {
        let slot = self.service(id).ok_or(NetError::NoSuchService)?;
        let obj = Rc::clone(&slot.obj);
        let mut borrow = obj.borrow_mut();
        let typed = borrow
            .downcast_mut::<T>()
            .unwrap_or_else(|| panic!("service {id} is not a {}", std::any::type_name::<T>()));
        Ok(f(self, typed))
    }

    // ------------------------------------------------------------------
    // Remote calls
    // ------------------------------------------------------------------

    /// Account a one-way transfer of `payload` bytes from `from` to `to`
    /// over `stack`, advancing the clock by the transfer time. Returns the
    /// transfer duration, or an error when the loss model defeats delivery.
    fn transfer(
        &mut self,
        from: HostId,
        to: HostId,
        stack: ProtocolStack,
        payload: usize,
    ) -> Result<SimDuration, NetError> {
        let link = self.topo.link(from, to);
        let packets = stack.packets_for(payload);
        let wire = stack.bytes_on_wire(payload);

        self.metrics
            .add_host_key(from, self.net.bytes_payload, payload as u64);
        self.metrics
            .add_host_key(from, self.net.bytes_wire, wire as u64);
        self.metrics
            .add_host_key(from, self.net.packets, packets as u64);

        let mut extra = SimDuration::ZERO;
        for _ in 0..packets {
            let mut attempts = 0u32;
            while self.rng.chance(link.loss) {
                self.metrics.add_key(self.net.packets_lost, 1);
                if !stack.is_reliable() {
                    // Fire-and-forget: the requestor only notices at its
                    // timeout.
                    self.clock += self.config.call_timeout;
                    return Err(NetError::Lost);
                }
                attempts += 1;
                if attempts > MAX_RETRANSMITS {
                    self.clock += self.config.call_timeout;
                    return Err(NetError::Timeout);
                }
                // Retransmission: another copy of the packet on the wire
                // after an RTO-ish back-off.
                self.metrics.add_key(self.net.retransmits, 1);
                self.metrics.add_host_key(
                    from,
                    self.net.bytes_wire,
                    stack.header_bytes() as u64 + 64,
                );
                extra += link.base_latency * 2u64.pow(attempts.min(6));
            }
        }

        let delay = link.delay(wire, &mut self.rng) + extra;
        self.clock += delay;
        Ok(delay)
    }

    /// A synchronous remote invocation.
    ///
    /// Checks reachability, transfers `req_bytes` from the caller's host to
    /// the service's host, runs `f` against the service object (which may
    /// itself advance the clock, e.g. by making nested calls), then
    /// transfers the response bytes back. `f` returns the result value and
    /// the response payload size.
    ///
    /// On unreachability the caller's clock advances by the configured
    /// call timeout before the error returns — exactly the cost a real
    /// requestor pays to find out.
    ///
    /// `via` says whether the exchange opens a connection, and so pays the
    /// stack's setup bytes: a bare [`ProtocolStack`] is a one-shot exchange
    /// that does; a caller holding a [`Connection`] asks it (see
    /// [`crate::conn`]).
    ///
    /// [`Connection`]: crate::conn::Connection
    pub fn call<T: Any, R>(
        &mut self,
        from: HostId,
        to: ServiceId,
        via: impl Into<Exchange>,
        req_bytes: usize,
        f: impl FnOnce(&mut Env, &mut T) -> (R, usize),
    ) -> Result<R, NetError> {
        let slot = match self.service(to) {
            Some(s) => s,
            None => {
                // Host may well be up: a connection is refused quickly.
                self.clock += SimDuration::from_micros(500);
                self.metrics.add_key(self.net.calls_failed, 1);
                return Err(NetError::NoSuchService);
            }
        };
        let dest = slot.host;
        let obj = Rc::clone(&slot.obj);

        if let Err(e) = self.topo.check_path(from, dest) {
            self.clock += self.config.call_timeout;
            self.metrics.add_key(self.net.calls_failed, 1);
            return Err(e);
        }

        // Connection management overhead, charged when the exchange opens
        // a connection. It costs bytes, never time.
        let Exchange { stack, opens } = via.into();
        let setup = if opens { stack.setup_bytes() } else { 0 };
        if setup > 0 {
            self.metrics
                .add_host_key(from, self.net.bytes_wire, setup as u64);
        }

        if let Err(e) = self.transfer(from, dest, stack, req_bytes) {
            self.metrics.add_key(self.net.calls_failed, 1);
            return Err(e);
        }
        self.observe_delivery(from, dest);

        self.clock += DISPATCH_COST;

        let (value, resp_bytes) = {
            let mut borrow = match obj.try_borrow_mut() {
                Ok(b) => b,
                Err(_) => {
                    // Re-entrant call: this service is already executing a
                    // request somewhere up the current call chain — a call
                    // cycle. Surface it as an error instead of panicking.
                    self.metrics.add_key(self.net.calls_failed, 1);
                    return Err(NetError::Busy);
                }
            };
            let typed = borrow
                .downcast_mut::<T>()
                .unwrap_or_else(|| panic!("service {to} is not a {}", std::any::type_name::<T>()));
            f(self, typed)
        };

        if let Err(e) = self.transfer(dest, from, stack, resp_bytes) {
            self.metrics.add_key(self.net.calls_failed, 1);
            return Err(e);
        }
        self.observe_delivery(dest, from);

        self.metrics.add_key(self.net.calls_ok, 1);
        Ok(value)
    }

    /// Account a one-way message (no reply expected) from `from` to `to`,
    /// such as a remote-event delivery. Checks the path, charges bytes and
    /// latency, and returns the transfer time.
    pub fn send_oneway(
        &mut self,
        from: HostId,
        to: HostId,
        stack: ProtocolStack,
        payload: usize,
    ) -> Result<SimDuration, NetError> {
        self.topo.check_path(from, to)?;
        let dt = self.transfer(from, to, stack, payload)?;
        self.observe_delivery(from, to);
        Ok(dt)
    }

    /// One-to-group transmission (e.g. a multicast discovery request):
    /// one send, delivered independently to every *other* group member
    /// whose path from `from` is currently intact and passes the loss
    /// model. Returns the hosts that received the packet.
    pub fn multicast(
        &mut self,
        from: HostId,
        group: &str,
        stack: ProtocolStack,
        payload: usize,
    ) -> Vec<HostId> {
        self.metrics.add_key(self.net.multicasts, 1);
        let wire = stack.bytes_on_wire(payload);
        self.metrics
            .add_host_key(from, self.net.bytes_payload, payload as u64);
        self.metrics
            .add_host_key(from, self.net.bytes_wire, wire as u64);
        self.metrics
            .add_host_key(from, self.net.packets, stack.packets_for(payload) as u64);

        let members = self.topo.group_members(group);
        let mut delivered = Vec::new();
        let mut max_delay = SimDuration::ZERO;
        for m in members {
            if m == from || self.topo.check_path(from, m).is_err() {
                continue;
            }
            let link = self.topo.link(from, m);
            if self.rng.chance(link.loss) {
                self.metrics.add_key(self.net.packets_lost, 1);
                continue;
            }
            max_delay = max_delay.max(link.delay(wire, &mut self.rng));
            delivered.push(m);
        }
        for &m in &delivered {
            self.observe_delivery(from, m);
        }
        self.clock += max_delay;
        delivered
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Schedule `f` to run at absolute time `at` (clamped to now).
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut Env) + 'static) -> TimerId {
        let seq = self.next_timer_seq();
        let slot = self.timers.push(at.max(self.clock), seq, Box::new(f));
        TimerId(seq, slot)
    }

    /// Take the next sequence number.
    fn next_timer_seq(&mut self) -> u64 {
        let seq = self.next_timer_seq;
        self.next_timer_seq += 1;
        seq
    }

    /// Queue a repeating timer `after` from now, under the next sequence
    /// number.
    fn arm(&mut self, after: SimDuration, interval: SimDuration, repeat: Repeat) {
        assert!(
            !interval.is_zero(),
            "repeating timer needs a nonzero interval"
        );
        let seq = self.next_timer_seq();
        let at = self.clock + after;
        self.timers.push_every(at, seq, interval, repeat);
    }

    /// Schedule `f` to run `after` from now.
    pub fn schedule(&mut self, after: SimDuration, f: impl FnOnce(&mut Env) + 'static) -> TimerId {
        let at = self.clock + after;
        self.schedule_at(at, f)
    }

    /// Cancel a pending one-shot timer, dropping what it captured. No
    /// effect if already fired.
    pub fn cancel(&mut self, id: TimerId) {
        self.timers.remove(id.0, id.1);
    }

    /// Schedule `f` to run every `interval`, starting after `first_after`.
    /// The closure keeps firing until it returns `false` or the returned
    /// handle is cancelled.
    pub fn schedule_every(
        &mut self,
        first_after: SimDuration,
        interval: SimDuration,
        f: impl FnMut(&mut Env) -> bool + 'static,
    ) -> RepeatHandle {
        let alive = Rc::new(std::cell::Cell::new(true));
        let handle = RepeatHandle(Rc::clone(&alive));
        let repeat = Repeat::Closure {
            alive,
            f: Box::new(f),
        };
        self.arm(first_after, interval, repeat);
        handle
    }

    /// Register `f` as the callback of a group of repeating timers, each
    /// started with [`Env::schedule_member`]. `f(env, member)` runs when
    /// `member` fires and keeps it firing while it returns `true`. `f` is
    /// shared for the call, so a member's body may fire others of its group.
    pub fn timer_group(&mut self, f: impl Fn(&mut Env, u32) -> bool + 'static) -> TimerGroup {
        self.timers.groups.push(Rc::new(f));
        TimerGroup(self.timers.groups.len() as u32 - 1)
    }

    /// [`Env::schedule_every`] for member `member` of `group`: it fires the
    /// group's callback every `interval`, starting after `first_after`,
    /// under the same keys a closure would take, and holds no allocation
    /// of its own. There is no handle: the callback stops a member by
    /// returning `false` for it.
    pub fn schedule_member(
        &mut self,
        group: TimerGroup,
        member: u32,
        first_after: SimDuration,
        interval: SimDuration,
    ) {
        let repeat = Repeat::Member {
            group: group.0,
            member,
        };
        self.arm(first_after, interval, repeat);
    }

    /// Number of pending (non-cancelled) timers. A repeating timer counts
    /// until the first deadline after its handle was cancelled.
    pub fn pending_timers(&self) -> usize {
        self.timers.len()
    }

    /// No-op: kept for `benchmark/`; the `[benchmark]` queue deletes it.
    #[doc(hidden)]
    pub fn enable_sharding(&mut self, _shards: usize) {}

    /// No-op: kept for `benchmark/`; the `[benchmark]` queue deletes it.
    #[doc(hidden)]
    pub fn disable_sharding(&mut self) {}

    /// No-op: kept for `benchmark/`; the `[benchmark]` queue deletes it.
    #[doc(hidden)]
    pub fn set_worker_pool(&mut self, _pool: sensorcer_runtime::ThreadPool) {}

    /// Always zero windows: kept for `benchmark/`; the `[benchmark]` queue
    /// deletes it.
    #[doc(hidden)]
    pub fn shard_stats(&self) -> ShardStats {
        ShardStats { windows: 0 }
    }

    /// Install a schedule oracle: whenever ≥2 timers are co-scheduled at
    /// the same deadline, `f(k)` picks which of the `k` due timers
    /// (presented FIFO by seq) fires next. Out-of-range picks are clamped.
    /// The default (no oracle) fires FIFO — the historical deterministic
    /// order. The schedule explorer in `sensorcer-verify` uses this to
    /// permute delivery order systematically.
    pub fn set_tie_chooser(&mut self, f: impl FnMut(usize) -> usize + 'static) {
        self.tie_chooser = Some(Box::new(f));
    }

    /// Fire the next pending timer, if any, advancing the clock to its
    /// deadline. Returns whether a timer fired.
    pub fn step(&mut self) -> bool {
        self.step_due(SimTime::FAR_FUTURE)
    }

    /// `step`, but only if the next pending timer is due by `t`.
    ///
    /// With a schedule oracle installed, every timer due at the minimal
    /// deadline is gathered and the oracle picks one; the rest stay
    /// queued. Only one timer fires per step, so timers the fired handler
    /// co-schedules at the same instant join the next choice point.
    fn step_due(&mut self, t: SimTime) -> bool {
        let due = match self.tie_chooser.as_mut() {
            Some(choose) => self.timers.pop_chosen(t, choose),
            None => self.timers.pop_due(t),
        };
        match due {
            Some((key, callback)) => {
                self.fire(key, callback);
                true
            }
            None => false,
        }
    }

    /// Run one popped timer. A repeating one goes back in the queue once
    /// its closure has returned, so it takes the next sequence number and
    /// the clock as the closure left them.
    fn fire(&mut self, key: TimerKey, callback: TimerCallback) {
        // Synchronous-call DES: handlers can push the clock past later
        // deadlines, in which case those fire "late" at the current
        // clock — never earlier than their scheduled time.
        self.clock = self.clock.max(key.at);
        match callback {
            TimerCallback::Once(f) => f(self),
            TimerCallback::Every(interval, mut repeat) => {
                let again = match &mut repeat {
                    Repeat::Closure { alive, f } => {
                        let again = alive.get() && f(self) && alive.get();
                        alive.set(again);
                        again
                    }
                    Repeat::Member { group, member } => {
                        let f = Rc::clone(&self.timers.groups[*group as usize]);
                        f(self, *member)
                    }
                };
                if again {
                    self.arm(interval, interval, repeat);
                }
            }
        }
    }

    /// Process every timer due up to `t`, then set the clock to at least
    /// `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while self.step_due(t) {}
        self.clock = self.clock.max(t);
    }

    /// Process timers for the next `d` of virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.clock + d;
        self.run_until(t);
    }

    /// Run until no timers remain or the clock passes `limit`.
    pub fn run_until_idle(&mut self, limit: SimTime) {
        while self.clock < limit && self.step_due(limit) {}
    }

    // ------------------------------------------------------------------
    // Simulated parallelism
    // ------------------------------------------------------------------

    /// Run one branch per item as if they executed concurrently from the
    /// current instant: `branch(env, item)` runs a branch, each branch
    /// starts at the same time, and the clock ends at the *latest* branch
    /// completion (fork/max-merge). Results are in item order.
    pub fn parallel_over<I: IntoIterator, T>(
        &mut self,
        items: I,
        mut branch: impl FnMut(&mut Env, I::Item) -> T,
    ) -> Vec<T> {
        let items = items.into_iter();
        let t0 = self.clock;
        let mut end = t0;
        let mut out = Vec::with_capacity(items.size_hint().0);
        for item in items {
            self.clock = t0;
            out.push(branch(self, item));
            end = end.max(self.clock);
        }
        self.clock = end;
        out
    }

    /// [`Env::parallel_over`] for branches that are each a closure of
    /// their own.
    pub fn parallel<T>(&mut self, branches: Vec<Box<dyn FnOnce(&mut Env) -> T + '_>>) -> Vec<T> {
        self.parallel_over(branches, |env, branch| branch(env))
    }
}

impl std::fmt::Debug for Env {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Env")
            .field("now", &self.clock)
            .field("hosts", &self.topo.host_count())
            .field("services", &self.deployed().count())
            .field("pending_timers", &self.timers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo {
        hits: u32,
    }

    fn two_host_env() -> (Env, HostId, HostId) {
        let mut env = Env::with_seed(1);
        let a = env.add_host("a", HostKind::Workstation);
        let b = env.add_host("b", HostKind::Server);
        (env, a, b)
    }

    #[test]
    fn deploy_and_call() {
        let (mut env, a, b) = two_host_env();
        let svc = env.deploy(b, "echo", Echo { hits: 0 });
        let before = env.now();
        let n = env
            .call(a, svc, ProtocolStack::Tcp, 100, |_env, e: &mut Echo| {
                e.hits += 1;
                (e.hits, 8)
            })
            .unwrap();
        assert_eq!(n, 1);
        assert!(env.now() > before, "a call takes virtual time");
        assert_eq!(env.metrics.get(keys::CALLS_OK), 1);
        assert!(env.metrics.get(keys::BYTES_WIRE) > 108);
    }

    #[test]
    fn call_to_missing_service_fails_fast() {
        let (mut env, a, _) = two_host_env();
        let err = env
            .call(
                a,
                ServiceId(42),
                ProtocolStack::Udp,
                10,
                |_e, _x: &mut Echo| ((), 0),
            )
            .unwrap_err();
        assert_eq!(err, NetError::NoSuchService);
        assert_eq!(env.metrics.get(keys::CALLS_FAILED), 1);
    }

    #[test]
    fn call_to_crashed_host_times_out() {
        let (mut env, a, b) = two_host_env();
        let svc = env.deploy(b, "echo", Echo { hits: 0 });
        env.crash_host(b);
        let t0 = env.now();
        let err = env
            .call(a, svc, ProtocolStack::Tcp, 10, |_e, _x: &mut Echo| ((), 0))
            .unwrap_err();
        assert_eq!(err, NetError::HostDown);
        assert_eq!(env.now() - t0, env.config.call_timeout);
        env.restart_host(b);
        assert!(env
            .call(a, svc, ProtocolStack::Tcp, 10, |_e, x: &mut Echo| (
                x.hits, 0
            ))
            .is_ok());
    }

    #[test]
    fn partition_blocks_calls() {
        let (mut env, a, b) = two_host_env();
        let svc = env.deploy(b, "echo", Echo { hits: 0 });
        env.topo.partition(a, b);
        let err = env
            .call(a, svc, ProtocolStack::Udp, 10, |_e, _x: &mut Echo| ((), 0))
            .unwrap_err();
        assert_eq!(err, NetError::Partitioned);
        env.topo.heal(a, b);
        assert!(env
            .call(a, svc, ProtocolStack::Udp, 10, |_e, _x: &mut Echo| ((), 0))
            .is_ok());
    }

    #[test]
    fn timers_fire_in_order() {
        let mut env = Env::with_seed(2);
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(vec![]));
        for (delay_ms, tag) in [(30u64, 3u32), (10, 1), (20, 2)] {
            let log = Rc::clone(&log);
            env.schedule(SimDuration::from_millis(delay_ms), move |_env| {
                log.borrow_mut().push(tag);
            });
        }
        env.run_for(SimDuration::from_millis(100));
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn equal_deadline_timers_fire_fifo() {
        let mut env = Env::with_seed(2);
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(vec![]));
        for tag in 0..5u32 {
            let log = Rc::clone(&log);
            env.schedule(SimDuration::from_millis(10), move |_env| {
                log.borrow_mut().push(tag);
            });
        }
        env.run_for(SimDuration::from_millis(10));
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let mut env = Env::with_seed(3);
        let fired = Rc::new(std::cell::Cell::new(false));
        let f2 = Rc::clone(&fired);
        let id = env.schedule(SimDuration::from_millis(5), move |_env| f2.set(true));
        env.cancel(id);
        env.run_for(SimDuration::from_millis(50));
        assert!(!fired.get());
        assert_eq!(env.pending_timers(), 0);
    }

    #[test]
    fn cancel_after_fire_leaves_nothing_behind() {
        let mut env = Env::with_seed(1);
        let fired = env.schedule(SimDuration::from_millis(10), |_| {});
        let live = env.schedule(SimDuration::from_secs(5), |_| {});
        let dropped = env.schedule(SimDuration::from_secs(5), |_| {});
        env.run_for(SimDuration::from_millis(20));
        // Documented as "no effect" — also on the timer that has since
        // moved into the fired one's slot.
        let tenant = env.schedule(SimDuration::from_secs(5), |_| {});
        assert_eq!(tenant.1, fired.1);
        env.cancel(fired);
        env.cancel(fired);
        assert_eq!(env.pending_timers(), 3);
        // A real cancellation is counted once however often it is asked
        // for.
        env.cancel(dropped);
        env.cancel(dropped);
        assert_eq!(env.pending_timers(), 2);
        env.run_for(SimDuration::from_secs(10));
        assert_eq!(env.pending_timers(), 0);
        env.cancel(live);
        assert_eq!(env.pending_timers(), 0);
        assert!(
            env.timers.pop_due(SimTime::FAR_FUTURE).is_none(),
            "no stale key outlives its deadline"
        );
    }

    #[test]
    fn repeating_timer_fires_until_cancelled() {
        let mut env = Env::with_seed(4);
        let count = Rc::new(std::cell::Cell::new(0u32));
        let c2 = Rc::clone(&count);
        let handle = env.schedule_every(
            SimDuration::from_millis(10),
            SimDuration::from_millis(10),
            move |_env| {
                c2.set(c2.get() + 1);
                true
            },
        );
        env.run_for(SimDuration::from_millis(55));
        assert_eq!(count.get(), 5);
        handle.cancel();
        env.run_for(SimDuration::from_millis(100));
        assert_eq!(count.get(), 5, "no firings after cancel");
    }

    #[test]
    fn repeating_timer_stops_when_closure_returns_false() {
        let mut env = Env::with_seed(5);
        let count = Rc::new(std::cell::Cell::new(0u32));
        let c2 = Rc::clone(&count);
        env.schedule_every(
            SimDuration::from_millis(1),
            SimDuration::from_millis(1),
            move |_env| {
                c2.set(c2.get() + 1);
                c2.get() < 3
            },
        );
        env.run_for(SimDuration::from_millis(100));
        assert_eq!(count.get(), 3);
    }

    #[test]
    fn parallel_merges_to_latest_branch() {
        let mut env = Env::with_seed(6);
        let t0 = env.now();
        let results = env.parallel::<u64>(vec![
            Box::new(|env| {
                env.consume(SimDuration::from_millis(10));
                1
            }),
            Box::new(|env| {
                env.consume(SimDuration::from_millis(30));
                2
            }),
            Box::new(|env| {
                env.consume(SimDuration::from_millis(20));
                3
            }),
        ]);
        assert_eq!(results, vec![1, 2, 3]);
        assert_eq!(env.now() - t0, SimDuration::from_millis(30));
    }

    #[test]
    fn multicast_reaches_group_members_only() {
        let mut env = Env::with_seed(7);
        let a = env.add_host("a", HostKind::Server);
        let b = env.add_host("b", HostKind::Server);
        let c = env.add_host("c", HostKind::Server);
        let d = env.add_host("d", HostKind::Server);
        for h in [a, b, c] {
            env.topo.join_group(h, "public");
        }
        env.crash_host(c);
        let got = env.multicast(a, "public", ProtocolStack::Udp, 64);
        assert_eq!(got, vec![b], "sender, non-members and dead hosts excluded");
        let _ = d;
        assert_eq!(env.metrics.get(keys::MULTICASTS), 1);
    }

    #[test]
    fn with_service_is_free_of_network_cost() {
        let (mut env, _a, b) = two_host_env();
        let svc = env.deploy(b, "echo", Echo { hits: 0 });
        let t0 = env.now();
        env.with_service(svc, |_env, e: &mut Echo| e.hits += 10)
            .unwrap();
        assert_eq!(env.now(), t0);
        let hits = env.with_service(svc, |_env, e: &mut Echo| e.hits).unwrap();
        assert_eq!(hits, 10);
    }

    #[test]
    fn undeploy_then_call_fails() {
        let (mut env, a, b) = two_host_env();
        let svc = env.deploy(b, "echo", Echo { hits: 0 });
        assert!(env.undeploy(svc));
        assert!(!env.undeploy(svc));
        let err = env
            .call(a, svc, ProtocolStack::Udp, 1, |_e, _x: &mut Echo| ((), 0))
            .unwrap_err();
        assert_eq!(err, NetError::NoSuchService);
    }

    #[test]
    fn service_queries() {
        let (mut env, _a, b) = two_host_env();
        let s1 = env.deploy(b, "one", Echo { hits: 0 });
        let s2 = env.deploy(b, "two", Echo { hits: 0 });
        assert_eq!(env.services_on(b), vec![s1, s2]);
        assert_eq!(env.find_service("two"), Some(s2));
        assert_eq!(env.find_service("none"), None);
        assert_eq!(env.service_host(s1), Some(b));
        assert_eq!(env.service_name(s2), Some("two"));
        assert!(env.is_service_up(s1));
        env.crash_host(b);
        assert!(!env.is_service_up(s1));
    }

    #[test]
    fn lossy_udp_calls_eventually_fail() {
        let (mut env, a, b) = two_host_env();
        let svc = env.deploy(b, "echo", Echo { hits: 0 });
        env.topo.set_link(
            a,
            b,
            crate::topology::LinkModel {
                loss: 1.0,
                ..crate::topology::LinkModel::lan()
            },
        );
        let err = env
            .call(a, svc, ProtocolStack::Udp, 10, |_e, _x: &mut Echo| ((), 0))
            .unwrap_err();
        assert_eq!(err, NetError::Lost);
        assert!(env.metrics.get(keys::PACKETS_LOST) >= 1);
    }

    #[test]
    fn lossy_tcp_calls_retransmit_and_succeed() {
        let (mut env, a, b) = two_host_env();
        let svc = env.deploy(b, "echo", Echo { hits: 0 });
        env.topo.set_link(
            a,
            b,
            crate::topology::LinkModel {
                loss: 0.3,
                ..crate::topology::LinkModel::lan()
            },
        );
        let mut ok = 0;
        for _ in 0..50 {
            if env
                .call(a, svc, ProtocolStack::Tcp, 32, |_e, x: &mut Echo| {
                    x.hits += 1;
                    ((), 8)
                })
                .is_ok()
            {
                ok += 1;
            }
        }
        assert!(ok >= 45, "TCP should survive 30% loss: {ok}/50");
        assert!(env.metrics.get(keys::RETRANSMITS) > 0);
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut env = Env::with_seed(8);
        env.run_until(SimTime::ZERO + SimDuration::from_secs(10));
        assert_eq!(env.now().as_secs_f64(), 10.0);
    }

    #[test]
    fn run_until_idle_stops_at_queue_exhaustion_or_limit() {
        let mut env = Env::with_seed(9);
        let count = Rc::new(std::cell::Cell::new(0u32));
        for i in 1..=5u64 {
            let c = Rc::clone(&count);
            env.schedule(SimDuration::from_secs(i), move |_env| c.set(c.get() + 1));
        }
        // Limit cuts the run short: only timers at 1s and 2s fire.
        env.run_until_idle(SimTime::ZERO + SimDuration::from_millis(2500));
        assert_eq!(count.get(), 2);
        // No limit pressure: the rest drain and the clock stops at the
        // last firing, not at the limit.
        env.run_until_idle(SimTime::ZERO + SimDuration::from_secs(100));
        assert_eq!(count.get(), 5);
        assert_eq!(env.now(), SimTime::ZERO + SimDuration::from_secs(5));
        assert_eq!(env.pending_timers(), 0);
    }

    #[test]
    fn send_oneway_accounts_and_respects_faults() {
        let (mut env, a, b) = two_host_env();
        let before = env.metrics.get(keys::BYTES_WIRE);
        let dt = env.send_oneway(a, b, ProtocolStack::Udp, 100).unwrap();
        assert!(dt > SimDuration::ZERO);
        assert!(env.metrics.delta(keys::BYTES_WIRE, before) > 100);
        env.crash_host(b);
        assert_eq!(
            env.send_oneway(a, b, ProtocolStack::Udp, 100).unwrap_err(),
            NetError::HostDown
        );
        env.restart_host(b);
        env.topo.partition(a, b);
        assert_eq!(
            env.send_oneway(a, b, ProtocolStack::Udp, 100).unwrap_err(),
            NetError::Partitioned
        );
    }

    #[test]
    fn spans_are_noops_until_tracing_enabled() {
        let mut env = Env::with_seed(5);
        let h = env.add_host("h", HostKind::Server);
        assert!(!env.tracing_enabled());
        let s = env.span_start("op", "x", h);
        assert!(!s.is_valid());
        env.span_field(s, "k", 1u64);
        env.span_event(s, "e", vec![]);
        env.span_end(s, Outcome::Ok);
        assert!(env.recorder().is_none());
        assert_eq!(env.current_span(), SpanId::INVALID);
    }

    #[test]
    fn spans_carry_sim_time_and_nest_across_consume() {
        let mut env = Env::with_seed(5);
        let h = env.add_host("h", HostKind::Server);
        env.enable_tracing(64);
        env.consume(SimDuration::from_millis(1));
        let root = env.span_start("read", "root", h);
        env.consume(SimDuration::from_millis(2));
        let kid = env.span_start("dispatch", "svc", h);
        assert_eq!(env.current_span(), kid);
        env.span_event(kid, "retry.attempt", vec![("attempt", 1u64.into())]);
        env.consume(SimDuration::from_millis(3));
        env.span_end(kid, Outcome::Error);
        assert_eq!(env.current_span(), root);
        env.span_end(root, Outcome::Ok);

        let rec = env.disable_tracing().expect("recorder installed");
        assert!(!env.tracing_enabled());
        let spans: Vec<_> = rec.spans().collect();
        assert_eq!(spans.len(), 2);
        let (k, r) = (spans[0], spans[1]);
        assert_eq!(k.parent, Some(r.id));
        assert_eq!(k.start_ns, 3_000_000);
        assert_eq!(k.end_ns, 6_000_000);
        assert_eq!(r.start_ns, 1_000_000);
        assert!(k.has_event("retry.attempt"));
        assert!(rec.validate(true).is_empty());
    }

    #[test]
    fn tie_chooser_permutes_equal_deadline_timers() {
        let mut env = Env::with_seed(2);
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(vec![]));
        for tag in 0..3u32 {
            let log = Rc::clone(&log);
            env.schedule(SimDuration::from_millis(10), move |_env| {
                log.borrow_mut().push(tag);
            });
        }
        // Always pick the last of the due set: reverses FIFO.
        env.set_tie_chooser(|k| k - 1);
        env.run_for(SimDuration::from_millis(10));
        assert_eq!(*log.borrow(), vec![2, 1, 0]);
    }

    #[test]
    fn tie_chooser_clamps_and_respects_cancellation() {
        let mut env = Env::with_seed(2);
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(vec![]));
        let mut ids = vec![];
        for tag in 0..4u32 {
            let log = Rc::clone(&log);
            ids.push(env.schedule(SimDuration::from_millis(5), move |_env| {
                log.borrow_mut().push(tag);
            }));
        }
        env.cancel(ids[1]);
        env.set_tie_chooser(|_k| usize::MAX); // clamped to the last choice
        env.run_for(SimDuration::from_millis(5));
        assert_eq!(
            *log.borrow(),
            vec![3, 2, 0],
            "cancelled timer 1 never fires"
        );
    }

    #[test]
    fn reentrant_call_reports_busy_not_panic() {
        let mut env = Env::with_seed(10);
        let h = env.add_host("h", HostKind::Server);
        struct Selfish {
            me: Option<ServiceId>,
        }
        let svc = env.deploy(h, "selfish", Selfish { me: None });
        env.with_service(svc, |_e, s: &mut Selfish| s.me = Some(svc))
            .unwrap();
        let result = env.call(h, svc, ProtocolStack::Tcp, 8, |env, s: &mut Selfish| {
            // Call back into ourselves while borrowed: must error cleanly.
            let me = s.me.expect("set above");
            let inner = env.call(h, me, ProtocolStack::Tcp, 8, |_e, _s: &mut Selfish| ((), 0));
            (inner, 8)
        });
        assert_eq!(result.unwrap().unwrap_err(), NetError::Busy);
    }
}
