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

use sensorcer_runtime::ThreadPool;
use sensorcer_trace::{FieldValue, FlightRecorder, Outcome, SpanId};

use crate::hb::HbViolation;
use crate::metrics::{keys, Key, Metrics};
use crate::rng::SimRng;
use crate::shard::{ShardStats, ShardedQueue, TimerCallback, TimerKey};
use crate::time::{SimDuration, SimTime};
use crate::topology::{HostId, HostKind, NetError, SubnetId, Topology};
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
pub struct TimerId(pub u64, u32);

/// Tunables of the simulation kernel.
#[derive(Clone, Copy, Debug)]
pub struct EnvConfig {
    /// RNG seed; everything stochastic derives from it.
    pub seed: u64,
    /// How long a requestor waits before declaring a call dead when the
    /// destination is unreachable or an unreliable packet is lost.
    pub call_timeout: SimDuration,
    /// Retransmission budget for reliable stacks before giving up.
    pub max_retransmits: u32,
    /// Simulated per-call processing cost on the callee (scheduling,
    /// dispatch, marshalling) added on top of wire time.
    pub dispatch_cost: SimDuration,
}

impl Default for EnvConfig {
    fn default() -> Self {
        EnvConfig {
            seed: 0xC0FFEE,
            call_timeout: SimDuration::from_secs(2),
            max_retransmits: 8,
            dispatch_cost: SimDuration::from_micros(50),
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

/// Handle to a repeating timer; dropping it does *not* cancel the timer,
/// call [`RepeatHandle::cancel`] explicitly.
#[derive(Clone, Debug)]
pub struct RepeatHandle(Rc<std::cell::Cell<bool>>);

impl RepeatHandle {
    /// Stop future firings (the current firing, if in progress, completes).
    pub fn cancel(&self) {
        self.0.set(false);
    }

    pub fn is_active(&self) -> bool {
        self.0.get()
    }
}

/// A lifecycle transition reported by instrumented middleware: the lease,
/// provisioning and span state machines declared in `sensorcer-verify`
/// receive these and check each transition against their tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LifecycleEvent {
    /// Which state machine the entity belongs to (`"lease"`,
    /// `"provision"`, …).
    pub kind: &'static str,
    /// Entity identity within the machine (lease id, hashed instance
    /// name, …).
    pub entity: u64,
    /// The transition taken.
    pub transition: &'static str,
    /// Transition-specific payload (e.g. the new expiry in nanos for
    /// lease grants/renewals; zero when unused).
    pub info: u64,
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
    /// The timer store: one heap when sequential, per-subnet shards once
    /// [`Env::enable_sharding`] splits it. All access goes through the
    /// shard API — `peek`/`pop_due` are global-minimum over every shard,
    /// so firing order is identical either way.
    timer_queue: ShardedQueue,
    next_timer_seq: u64,
    /// Subnet affinity of the currently-executing timer; timers scheduled
    /// from inside a callback inherit it, so per-mote activity (renewal
    /// chains, sampling loops) stays pinned to the mote's shard.
    active_hint: SubnetId,
    /// Worker pool for window-edge key migration in sharded mode; absent
    /// means migration is serial (still correct, just unbatched).
    pool: Option<ThreadPool>,
    /// Indexed by `ServiceId`: ids count up from zero and are never
    /// reused, so an undeployed service leaves a hole.
    services: Vec<Option<ServiceSlot>>,
    /// Optional flight recorder for structured spans. Absent by default
    /// so uninstrumented runs pay only a null check.
    recorder: Option<FlightRecorder>,
    /// Optional [`Observer`] of deliveries, shared-state accesses,
    /// lifecycle transitions and sync windows. Absent by default, and
    /// then every hook site is one null check.
    observer: Option<Box<dyn Observer>>,
    /// Optional schedule oracle: when ≥2 timers are co-scheduled at the
    /// same deadline, picks which fires next (index into the seq-ordered
    /// due set). `None` means FIFO by seq — the historical order. The
    /// schedule explorer in `sensorcer-verify` installs this to permute
    /// delivery order systematically.
    tie_chooser: Option<Box<dyn FnMut(usize) -> usize>>,
    /// Conservative windows closed so far (sharded engine only).
    windows_seen: u64,
}

/// One closed conservative sync window of the sharded engine, as
/// reported to [`Observer::window`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowObservation {
    /// 0-based window ordinal since the environment was created.
    pub index: u64,
    /// The window's opening instant (earliest due deadline).
    pub start: SimTime,
    /// The window edge — the shard resynchronization barrier.
    pub horizon: SimTime,
    /// Timers fired inside the window.
    pub fired: u64,
}

/// A passive watcher of one [`Env`], installed with [`Env::set_observer`]:
/// the happens-before tracker ([`crate::hb::HbTracker`]), the schedule
/// explorer's checks and the window log behind occupancy profiling are
/// impls. Every method defaults to a no-op and none is given the `Env`,
/// so an observer can neither re-enter the world nor change its schedule.
pub trait Observer: Any {
    /// `host` wrote the shared federation state named `key` (a registry's
    /// items, a mailbox queue).
    fn cell_write(&mut self, _host: HostId, _key: &str) {}

    /// `host` read the shared federation state named `key`; returns the
    /// violation when the latest write is not ordered before the read.
    fn cell_read(&mut self, _host: HostId, _key: &str) -> Option<HbViolation> {
        None
    }

    /// A message went `from → to`: each leg of a call, a one-way send,
    /// each receiver of a multicast.
    fn deliver(&mut self, _from: HostId, _to: HostId) {}

    /// A lifecycle transition reported through [`Env::lifecycle`] at `at`.
    fn lifecycle(&mut self, _at: SimTime, _ev: LifecycleEvent) {}

    /// A conservative sync window of the sharded engine closed.
    fn window(&mut self, _w: &WindowObservation) {}
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
            timer_queue: ShardedQueue::new(),
            next_timer_seq: 0,
            active_hint: SubnetId(0),
            pool: None,
            services: Vec::new(),
            recorder: None,
            observer: None,
            tie_chooser: None,
            windows_seen: 0,
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

    /// Mutable access to the installed recorder — the streaming drain
    /// hook: callers pull retired spans and eviction markers with
    /// [`FlightRecorder::drain_closed`] between runs while tracing stays
    /// live.
    pub fn recorder_mut(&mut self) -> Option<&mut FlightRecorder> {
        self.recorder.as_mut()
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

    /// Whether an observer is installed. Gate building an annotation's
    /// key behind this; the hooks are already no-ops without one.
    #[inline]
    pub fn observing(&self) -> bool {
        self.observer.is_some()
    }

    /// Record a message edge `from → to` (called by the delivery paths).
    #[inline]
    fn observe_delivery(&mut self, from: HostId, to: HostId) {
        if let Some(o) = self.observer.as_mut() {
            o.deliver(from, to);
        }
    }

    /// Annotate a write of shared federation state `key` by `host`.
    #[inline]
    pub fn cell_write(&mut self, host: HostId, key: &str) {
        if let Some(o) = self.observer.as_mut() {
            o.cell_write(host, key);
        }
    }

    /// Annotate a read of shared federation state `key` by `host`. A
    /// violation the observer reports is, with tracing on, surfaced as an
    /// `hb.violation` event on the current span.
    pub fn cell_read(&mut self, host: HostId, key: &str) {
        let Some(v) = self.observer.as_mut().and_then(|o| o.cell_read(host, key)) else {
            return;
        };
        let span = self.current_span();
        if span.is_valid() {
            self.span_event(
                span,
                "hb.violation",
                vec![
                    ("key", v.key.into()),
                    ("reader", (v.reader.0 as u64).into()),
                    ("writer", (v.writer.0 as u64).into()),
                ],
            );
        }
    }

    /// Report a lifecycle transition. Goes to the observer when one is
    /// installed and, with tracing on, mirrors onto the current span as a
    /// `lifecycle` event — which is how the state-machine checkers in
    /// `sensorcer-verify` see runtime transitions through the flight
    /// recorder.
    pub fn lifecycle(
        &mut self,
        kind: &'static str,
        entity: u64,
        transition: &'static str,
        info: u64,
    ) {
        if self.observer.is_none() && self.recorder.is_none() {
            return;
        }
        let ev = LifecycleEvent {
            kind,
            entity,
            transition,
            info,
        };
        if let Some(o) = self.observer.as_mut() {
            o.lifecycle(self.clock, ev);
        }
        let span = self.current_span();
        if span.is_valid() {
            self.span_event(
                span,
                "lifecycle",
                vec![
                    ("kind", FieldValue::from(kind)),
                    ("entity", entity.into()),
                    ("transition", FieldValue::from(transition)),
                    ("info", info.into()),
                ],
            );
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
                if attempts > self.config.max_retransmits {
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
    pub fn call<T: Any, R>(
        &mut self,
        from: HostId,
        to: ServiceId,
        stack: ProtocolStack,
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

        // Connection management overhead (charged once per exchange).
        let setup = stack.setup_bytes();
        if setup > 0 {
            self.metrics
                .add_host_key(from, self.net.bytes_wire, setup as u64);
        }

        if let Err(e) = self.transfer(from, dest, stack, req_bytes) {
            self.metrics.add_key(self.net.calls_failed, 1);
            return Err(e);
        }
        self.observe_delivery(from, dest);

        self.clock += self.config.dispatch_cost;

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

    /// Schedule `f` to run at absolute time `at` (clamped to now). The
    /// timer inherits the subnet affinity of whatever timer is currently
    /// executing (the root context is subnet 0); use
    /// [`Env::schedule_at_on`] to pin it to a host's subnet explicitly.
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut Env) + 'static) -> TimerId {
        let hint = self.active_hint;
        self.schedule_at_hinted(at, hint, f)
    }

    /// Schedule `f` at absolute time `at` with the subnet affinity of
    /// `host` — the entry point used when deploying per-subnet activity,
    /// so the timer (and everything it transitively schedules) lands on
    /// that subnet's shard.
    pub fn schedule_at_on(
        &mut self,
        host: HostId,
        at: SimTime,
        f: impl FnOnce(&mut Env) + 'static,
    ) -> TimerId {
        let hint = self.topo.subnet_of(host);
        self.schedule_at_hinted(at, hint, f)
    }

    /// Schedule `f` to run `after` from now on `host`'s subnet shard.
    pub fn schedule_on(
        &mut self,
        host: HostId,
        after: SimDuration,
        f: impl FnOnce(&mut Env) + 'static,
    ) -> TimerId {
        let at = self.clock + after;
        self.schedule_at_on(host, at, f)
    }

    fn schedule_at_hinted(
        &mut self,
        at: SimTime,
        hint: SubnetId,
        f: impl FnOnce(&mut Env) + 'static,
    ) -> TimerId {
        self.push_timer(at, hint, TimerCallback::Once(Box::new(f)))
    }

    /// Queue `callback` under the next sequence number.
    fn push_timer(&mut self, at: SimTime, hint: SubnetId, callback: TimerCallback) -> TimerId {
        let seq = self.next_timer_seq;
        self.next_timer_seq += 1;
        let at = at.max(self.clock);
        let slot = self.timer_queue.push(at, seq, hint, callback);
        TimerId(seq, slot)
    }

    /// Schedule `f` to run `after` from now.
    pub fn schedule(&mut self, after: SimDuration, f: impl FnOnce(&mut Env) + 'static) -> TimerId {
        let at = self.clock + after;
        self.schedule_at(at, f)
    }

    /// Cancel a pending one-shot timer, dropping what it captured. No
    /// effect if already fired.
    pub fn cancel(&mut self, id: TimerId) {
        self.timer_queue.remove(id.0, id.1);
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
        assert!(
            !interval.is_zero(),
            "repeating timer needs a nonzero interval"
        );
        let alive = Rc::new(std::cell::Cell::new(true));
        let handle = RepeatHandle(Rc::clone(&alive));
        let at = self.clock + first_after;
        let every = TimerCallback::Every {
            interval,
            alive,
            f: Box::new(f),
        };
        self.push_timer(at, self.active_hint, every);
        handle
    }

    /// Number of pending (non-cancelled) timers. A repeating timer counts
    /// until the first deadline after its handle was cancelled.
    pub fn pending_timers(&self) -> usize {
        self.timer_queue.len()
    }

    // ------------------------------------------------------------------
    // Sharded execution
    // ------------------------------------------------------------------

    /// Split the timer queue into `shards` per-subnet shards (see
    /// [`crate::shard`]). `run_until` switches to the conservative
    /// time-window protocol: shards synchronize at window edges bounded
    /// by the minimum cross-subnet link latency, and execution stays
    /// bit-identical to the sequential engine for a given seed. Safe to
    /// call mid-run; pending timers are redistributed by subnet.
    pub fn enable_sharding(&mut self, shards: usize) {
        self.timer_queue.set_shard_count(shards.max(1));
    }

    /// Collapse back to the single sequential heap.
    pub fn disable_sharding(&mut self) {
        self.timer_queue.set_shard_count(1);
    }

    /// Whether the timer queue is currently sharded.
    pub fn is_sharded(&self) -> bool {
        self.timer_queue.is_sharded()
    }

    /// Install a worker pool used to parallelize window-edge key
    /// migration across shards. Optional: without it, sharded runs
    /// migrate serially (identical results, no thread fan-out).
    pub fn set_worker_pool(&mut self, pool: ThreadPool) {
        self.pool = Some(pool);
    }

    /// Cumulative shard-sync counters (windows opened, keys migrated,
    /// parallel migrations) for overhead reporting.
    pub fn shard_stats(&self) -> ShardStats {
        self.timer_queue.stats()
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
    fn step_due(&mut self, t: SimTime) -> bool {
        if self.tie_chooser.is_some() {
            return self.step_chosen(t);
        }
        match self.timer_queue.pop_due(t) {
            Some((key, callback)) => {
                self.fire(key, callback);
                true
            }
            None => false,
        }
    }

    /// Run one popped timer. A repeating one goes back in the queue once
    /// its closure has returned, so it takes the next sequence number, the
    /// clock and the subnet affinity as the closure left them.
    fn fire(&mut self, key: TimerKey, callback: TimerCallback) {
        // Synchronous-call DES: handlers can push the clock past later
        // deadlines, in which case those fire "late" at the current
        // clock — never earlier than their scheduled time.
        self.clock = self.clock.max(key.at);
        self.active_hint = key.hint;
        match callback {
            TimerCallback::Once(f) => f(self),
            TimerCallback::Every {
                interval,
                alive,
                mut f,
            } => {
                if !alive.get() {
                    return;
                }
                if f(self) && alive.get() {
                    let every = TimerCallback::Every { interval, alive, f };
                    self.push_timer(self.clock + interval, self.active_hint, every);
                } else {
                    alive.set(false);
                }
            }
        }
    }

    /// `step_due` with a schedule oracle installed: gather every timer due
    /// at the minimal deadline, let the oracle pick one, and put the rest
    /// back (their seq keys keep relative FIFO order among themselves).
    /// Only one timer fires per step, so timers the fired handler
    /// co-schedules at the same instant join the next choice point.
    fn step_chosen(&mut self, t: SimTime) -> bool {
        let Some(first) = self.timer_queue.pop_key_due(t) else {
            return false;
        };
        let mut due = vec![first];
        while let Some(tied) = self.timer_queue.pop_key_due(first.at) {
            due.push(tied);
        }
        let k = due.len();
        let pick = if k == 1 {
            0
        } else {
            match self.tie_chooser.as_mut() {
                Some(f) => f(k).min(k - 1),
                None => 0,
            }
        };
        let key = due.remove(pick);
        for rest in due {
            self.timer_queue.push_key(rest);
        }
        let callback = self.timer_queue.take(key);
        self.fire(key, callback);
        true
    }

    /// Process every timer due up to `t`, then set the clock to at least
    /// `t`. With sharding enabled this runs the conservative time-window
    /// protocol (see [`Env::run_until_windowed`]); the set and order of
    /// timers fired is identical either way.
    pub fn run_until(&mut self, t: SimTime) {
        if self.timer_queue.is_sharded() {
            self.run_until_windowed(t);
            return;
        }
        while self.step_due(t) {}
        self.clock = self.clock.max(t);
    }

    /// The conservative time-window protocol: find the earliest pending
    /// deadline `t₀`, open a window `[t₀, min(t₀ + lookahead, t)]` where
    /// the lookahead is the minimum cross-subnet link latency from the
    /// topology (no cross-subnet influence can arrive sooner), migrate
    /// every due key from the shard heaps into the merged hot heap — in
    /// parallel on the worker pool when the backlog is large — then drain
    /// the window in global (deadline, seq) order. The window edge is the
    /// barrier at which all shards resynchronize.
    ///
    /// Because `pop_due` is always the global minimum and every timer keeps
    /// the sequence number the sequential engine would have assigned,
    /// the firing order is bit-identical to the sequential engine; the
    /// window only controls how often shard heaps synchronize.
    fn run_until_windowed(&mut self, t: SimTime) {
        let lookahead = self
            .topo
            .min_cross_subnet_latency()
            .unwrap_or(SimDuration::from_millis(1));
        while let Some(next) = self.timer_queue.peek() {
            if next.at > t {
                break;
            }
            let horizon = (next.at + lookahead).min(t);
            // The pool leaves `self` for the call so the queue can borrow
            // it while `self` is mutably borrowed.
            let pool = self.pool.take();
            self.timer_queue.open_window(horizon, pool.as_ref());
            self.pool = pool;
            let mut fired = 0u64;
            while self.step_due(horizon) {
                fired += 1;
            }
            self.timer_queue.close_window();
            let index = self.windows_seen;
            self.windows_seen += 1;
            if let Some(o) = self.observer.as_mut() {
                o.window(&WindowObservation {
                    index,
                    start: next.at,
                    horizon,
                    fired,
                });
            }
        }
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
            .field("pending_timers", &self.timer_queue.len())
            .field("shards", &self.timer_queue.shard_count())
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
        assert_eq!(
            env.timer_queue.peek(),
            None,
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
        assert!(!handle.is_active());
    }

    #[test]
    fn repeating_timer_stops_when_closure_returns_false() {
        let mut env = Env::with_seed(5);
        let count = Rc::new(std::cell::Cell::new(0u32));
        let c2 = Rc::clone(&count);
        let handle = env.schedule_every(
            SimDuration::from_millis(1),
            SimDuration::from_millis(1),
            move |_env| {
                c2.set(c2.get() + 1);
                c2.get() < 3
            },
        );
        env.run_for(SimDuration::from_millis(100));
        assert_eq!(count.get(), 3);
        assert!(!handle.is_active());
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
    fn hb_tracks_call_edges_and_flags_unordered_reads() {
        let (mut env, a, b) = two_host_env();
        let svc = env.deploy(b, "echo", Echo { hits: 0 });
        env.set_observer(crate::hb::HbTracker::new());
        assert!(env.observing());
        // A write at b that a learns about through a call's response edge.
        env.cell_write(b, "state");
        env.call(a, svc, ProtocolStack::Tcp, 8, |_e, x: &mut Echo| {
            x.hits += 1;
            ((), 8)
        })
        .unwrap();
        env.cell_read(a, "state");
        // A write at a third host nobody heard from races every reader.
        let c = env.add_host("c", HostKind::Server);
        env.cell_write(c, "state");
        env.cell_read(a, "state");
        assert!(env.take_observer::<Lifecycles>().is_none(), "wrong type");
        let hb = env
            .take_observer::<crate::hb::HbTracker>()
            .expect("tracker installed");
        assert!(!env.observing());
        assert_eq!(hb.violations().len(), 1);
        assert_eq!(hb.violations()[0].writer, c);
        assert_eq!(hb.violations()[0].reader, a);
    }

    /// Keeps every lifecycle transition it is shown.
    #[derive(Default)]
    struct Lifecycles(Vec<(SimTime, LifecycleEvent)>);

    impl Observer for Lifecycles {
        fn lifecycle(&mut self, at: SimTime, ev: LifecycleEvent) {
            self.0.push((at, ev));
        }
    }

    #[test]
    fn lifecycle_events_reach_sink_and_open_span() {
        let mut env = Env::with_seed(3);
        let h = env.add_host("h", HostKind::Server);
        env.set_observer(Lifecycles::default());
        env.enable_tracing(16);
        let span = env.span_start("op", "x", h);
        env.lifecycle("lease", 7, "grant", 123);
        env.span_end(span, Outcome::Ok);
        let rec = env.disable_tracing().expect("recorder");
        let got = env.take_observer::<Lifecycles>().expect("installed").0;
        assert_eq!(got.len(), 1);
        assert_eq!(
            got[0].1,
            LifecycleEvent {
                kind: "lease",
                entity: 7,
                transition: "grant",
                info: 123
            }
        );
        let spans: Vec<_> = rec.spans().collect();
        assert!(spans[0].has_event("lifecycle"));
    }

    /// Build a 3-subnet world with cross-scheduling timer chains and log
    /// every firing as (time, tag); used to pin sharded ≡ sequential.
    fn run_firing_log(shards: Option<usize>, pool: bool) -> (Vec<(u64, u32)>, Env) {
        let mut env = Env::with_seed(42);
        let mut hosts = Vec::new();
        for i in 0..6u32 {
            let h = env.add_host(format!("m{i}"), HostKind::SensorMote);
            env.topo.set_subnet(h, SubnetId(i % 3));
            hosts.push(h);
        }
        // A non-mote pair in different subnets drops the cross-subnet
        // lookahead to the LAN latency — the tighter window case.
        let s0 = env.add_host("gw0", HostKind::Server);
        let s1 = env.add_host("gw1", HostKind::Server);
        env.topo.set_subnet(s0, SubnetId(0));
        env.topo.set_subnet(s1, SubnetId(1));
        if let Some(n) = shards {
            env.enable_sharding(n);
            if pool {
                env.set_worker_pool(ThreadPool::new(2));
            }
        }
        let log: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(vec![]));
        for (i, &h) in hosts.iter().enumerate() {
            let log = Rc::clone(&log);
            let peer = hosts[(i + 1) % hosts.len()];
            env.schedule_on(
                h,
                SimDuration::from_millis(1 + i as u64),
                move |env: &mut Env| {
                    log.borrow_mut().push((env.now().as_nanos(), i as u32));
                    // Cross-subnet reschedule: lands on the peer's shard
                    // and must still fire in global order.
                    let log2 = Rc::clone(&log);
                    env.schedule_on(peer, SimDuration::from_millis(2), move |env: &mut Env| {
                        log2.borrow_mut()
                            .push((env.now().as_nanos(), 100 + i as u32));
                    });
                },
            );
        }
        // Equal-deadline cluster across subnets exercises FIFO ties.
        for (i, &h) in hosts.iter().enumerate() {
            let log = Rc::clone(&log);
            env.schedule_on(h, SimDuration::from_millis(10), move |env: &mut Env| {
                log.borrow_mut()
                    .push((env.now().as_nanos(), 200 + i as u32));
            });
        }
        env.run_for(SimDuration::from_millis(50));
        let out = log.borrow().clone();
        (out, env)
    }

    #[test]
    fn sharded_run_is_bit_identical_to_sequential() {
        let (seq_log, _) = run_firing_log(None, false);
        for shards in [2usize, 3, 8] {
            let (shard_log, env) = run_firing_log(Some(shards), false);
            assert_eq!(shard_log, seq_log, "{shards}-shard run diverged");
            assert!(env.shard_stats().windows > 0, "windows actually opened");
        }
        let (pooled_log, _) = run_firing_log(Some(3), true);
        assert_eq!(pooled_log, seq_log, "pooled migration diverged");
    }

    #[test]
    fn window_observer_is_passive_and_accounts_every_firing() {
        let (base_log, _) = run_firing_log(Some(3), false);
        let mut env = Env::with_seed(42);
        let mut hosts = Vec::new();
        for i in 0..6u32 {
            let h = env.add_host(format!("m{i}"), HostKind::SensorMote);
            env.topo.set_subnet(h, SubnetId(i % 3));
            hosts.push(h);
        }
        let s0 = env.add_host("gw0", HostKind::Server);
        let s1 = env.add_host("gw1", HostKind::Server);
        env.topo.set_subnet(s0, SubnetId(0));
        env.topo.set_subnet(s1, SubnetId(1));
        env.enable_sharding(3);
        #[derive(Default)]
        struct Windows(Vec<WindowObservation>);
        impl Observer for Windows {
            fn window(&mut self, w: &WindowObservation) {
                self.0.push(*w);
            }
        }
        env.set_observer(Windows::default());
        let log: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(vec![]));
        for (i, &h) in hosts.iter().enumerate() {
            let log = Rc::clone(&log);
            let peer = hosts[(i + 1) % hosts.len()];
            env.schedule_on(
                h,
                SimDuration::from_millis(1 + i as u64),
                move |env: &mut Env| {
                    log.borrow_mut().push((env.now().as_nanos(), i as u32));
                    let log2 = Rc::clone(&log);
                    env.schedule_on(peer, SimDuration::from_millis(2), move |env: &mut Env| {
                        log2.borrow_mut()
                            .push((env.now().as_nanos(), 100 + i as u32));
                    });
                },
            );
        }
        for (i, &h) in hosts.iter().enumerate() {
            let log = Rc::clone(&log);
            env.schedule_on(h, SimDuration::from_millis(10), move |env: &mut Env| {
                log.borrow_mut()
                    .push((env.now().as_nanos(), 200 + i as u32));
            });
        }
        env.run_for(SimDuration::from_millis(50));
        assert_eq!(*log.borrow(), base_log, "observer perturbed the schedule");
        let obs = env.take_observer::<Windows>().expect("installed").0;
        assert!(!obs.is_empty());
        let fired: u64 = obs.iter().map(|w| w.fired).sum();
        assert_eq!(fired, base_log.len() as u64, "every firing attributed");
        for (i, w) in obs.iter().enumerate() {
            assert_eq!(w.index, i as u64, "window ordinals are contiguous");
            assert!(w.start <= w.horizon);
        }
        assert_eq!(obs.len() as u64, env.shard_stats().windows);
    }

    #[test]
    fn sharding_mid_run_redistributes_and_preserves_order() {
        let mut env = Env::with_seed(7);
        let a = env.add_host("a", HostKind::SensorMote);
        let b = env.add_host("b", HostKind::SensorMote);
        env.topo.set_subnet(b, SubnetId(1));
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(vec![]));
        for (i, &h) in [a, b, a, b].iter().enumerate() {
            let log = Rc::clone(&log);
            env.schedule_on(h, SimDuration::from_millis(i as u64 + 1), move |_env| {
                log.borrow_mut().push(i as u32);
            });
        }
        env.run_for(SimDuration::from_millis(1));
        env.enable_sharding(2);
        assert!(env.is_sharded());
        assert_eq!(env.pending_timers(), 3);
        env.run_for(SimDuration::from_millis(10));
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3]);
        env.disable_sharding();
        assert!(!env.is_sharded());
    }

    #[test]
    fn tie_chooser_sees_cross_shard_due_sets() {
        let mut env = Env::with_seed(2);
        let mut hosts = Vec::new();
        for i in 0..3u32 {
            let h = env.add_host(format!("m{i}"), HostKind::SensorMote);
            env.topo.set_subnet(h, SubnetId(i));
            hosts.push(h);
        }
        env.enable_sharding(3);
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(vec![]));
        for (tag, &h) in hosts.iter().enumerate() {
            let log = Rc::clone(&log);
            env.schedule_on(h, SimDuration::from_millis(10), move |_env| {
                log.borrow_mut().push(tag as u32);
            });
        }
        // Reverse-FIFO oracle must see all 3 equal-deadline timers even
        // though they live on 3 different shards.
        env.set_tie_chooser(|k| k - 1);
        env.run_for(SimDuration::from_millis(10));
        assert_eq!(*log.borrow(), vec![2, 1, 0]);
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
