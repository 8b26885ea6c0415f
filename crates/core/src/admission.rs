//! Overload protection for the façade: per-tenant admission control with
//! token-bucket quotas, QoS-class load shedding, and per-servicer circuit
//! breakers.
//!
//! The paper's façade is "the single entry point of the SenSORCER system"
//! — which makes it the single place a hot tenant can starve everyone
//! else. This module puts a gate in front of it:
//!
//! * **Token buckets over sim-time** — each tenant has a refill rate and a
//!   burst allowance; a request with no token available is *queued* (the
//!   façade waits out the predicted token arrival in virtual time) or
//!   *shed*, never silently delayed past its class budget.
//! * **QoS classes** — [`QosClass::Critical`] / [`QosClass::Standard`] /
//!   [`QosClass::Bulk`] with strictly ordered queue-wait budgets. Priority
//!   is enforced through the budgets: Bulk tolerates almost no queueing,
//!   so under pressure Bulk is shed first, Standard second, and Critical
//!   keeps flowing — strict-priority dispatch expressed as deadline-aware
//!   shedding.
//! * **Typed rejections** — a shed request fails with a parseable
//!   [`REJECTION_PREFIX`] message and an `admission.shed` trace event;
//!   it never surfaces as a timeout.
//! * **Circuit breakers** — a [`BreakerRegistry`] tracks consecutive
//!   transient [`NetError`]s per servicer and trips Closed → Open →
//!   HalfOpen over sim-time so a known-bad host is skipped instead of
//!   retried (the composite fan-out consults it before every dispatch).
//!
//! Everything runs on virtual time: admission waits are `env.run_for`
//! sleeps and breaker cool-downs compare `env.now()`, so seeded runs stay
//! bit-identical.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use sensorcer_exertion::retry::RetryPolicy;
use sensorcer_sim::env::{Env, ServiceId};
use sensorcer_sim::time::{SimDuration, SimTime};
use sensorcer_sim::topology::NetError;

/// Metric keys exported by the admission layer.
pub mod keys {
    /// Requests admitted through the gate (also labeled by QoS class).
    pub const ADMITTED: &str = "admission.requests.admitted";
    /// Requests shed with a typed rejection (also labeled by QoS class).
    pub const SHED: &str = "admission.requests.shed";
    /// Requests that waited for a token before admission.
    pub const QUEUE_DELAYS: &str = "admission.queue.delays";
    /// Distribution of queue waits, in nanoseconds.
    pub const QUEUE_WAIT_NS: &str = "admission.queue.wait_ns";
    /// Dispatches skipped because the target's breaker was open.
    pub const BREAKER_SKIPPED: &str = "breaker.calls.skipped";
    /// Closed/HalfOpen → Open transitions.
    pub const BREAKER_OPENED: &str = "breaker.state.opened";
    /// Open/HalfOpen → Closed transitions.
    pub const BREAKER_CLOSED: &str = "breaker.state.closed";
    /// Open → HalfOpen transitions (cool-down elapsed, probes allowed).
    pub const BREAKER_HALF_OPEN: &str = "breaker.probes.halfopen";
}

// ---------------------------------------------------------------------------
// QoS classes
// ---------------------------------------------------------------------------

/// Service class of a tenant. Ordered by priority: `Critical` outranks
/// `Standard` outranks `Bulk`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum QosClass {
    Critical,
    Standard,
    Bulk,
}

impl QosClass {
    /// The longest queue wait a request of this class accepts before it is
    /// shed instead. Strictly decreasing with priority rank inverted —
    /// Bulk tolerates the least queueing, so it is rejected first when the
    /// gate backs up, which is exactly how strict-priority dispatch
    /// degrades under overload.
    pub fn queue_budget(self) -> SimDuration {
        match self {
            QosClass::Critical => SimDuration::from_millis(2_000),
            QosClass::Standard => SimDuration::from_millis(800),
            QosClass::Bulk => SimDuration::from_millis(150),
        }
    }

    pub fn as_str(self) -> &'static str {
        match self {
            QosClass::Critical => "critical",
            QosClass::Standard => "standard",
            QosClass::Bulk => "bulk",
        }
    }
}

// ---------------------------------------------------------------------------
// Per-tenant quotas
// ---------------------------------------------------------------------------

/// Quota assigned to one tenant.
#[derive(Clone, Copy, Debug)]
pub struct TenantPolicy {
    pub class: QosClass,
    /// Token refill rate, requests per virtual second.
    pub rate_per_sec: f64,
    /// Bucket capacity: how many requests may arrive back-to-back before
    /// queueing starts.
    pub burst: f64,
    /// Concurrent in-flight requests allowed (admitted but not completed).
    pub max_in_flight: u32,
}

impl TenantPolicy {
    pub fn new(class: QosClass, rate_per_sec: f64, burst: f64, max_in_flight: u32) -> TenantPolicy {
        assert!(rate_per_sec > 0.0, "a tenant needs a positive refill rate");
        assert!(burst >= 1.0, "a bucket must hold at least one token");
        TenantPolicy {
            class,
            rate_per_sec,
            burst,
            max_in_flight,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct TenantState {
    /// May go negative: a queued request reserves its token up front, so
    /// the deficit *is* the virtual queue — the next request's predicted
    /// wait grows with every reservation ahead of it.
    tokens: f64,
    last_refill: SimTime,
    in_flight: u32,
}

/// Why a request was shed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ShedReason {
    /// The predicted token wait exceeded the class queue budget.
    RateLimit { wait: SimDuration },
    /// The tenant's in-flight concurrency cap was reached.
    Concurrency,
}

impl ShedReason {
    pub fn kind(self) -> &'static str {
        match self {
            ShedReason::RateLimit { .. } => "rate_limit",
            ShedReason::Concurrency => "concurrency",
        }
    }

    pub fn wait_ns(self) -> u64 {
        match self {
            ShedReason::RateLimit { wait } => wait.as_nanos(),
            ShedReason::Concurrency => 0,
        }
    }
}

/// A typed shed verdict, convertible into the rejection message a client
/// sees.
#[derive(Clone, Debug, PartialEq)]
pub struct Shed {
    pub tenant: String,
    pub class: QosClass,
    pub reason: ShedReason,
}

/// Every shed request fails with a message starting with this prefix, so
/// clients (and the storm harness) can tell load shedding apart from real
/// faults without string-guessing.
pub const REJECTION_PREFIX: &str = "admission rejected:";

/// Whether a task failure message is a typed admission rejection.
pub fn is_rejection(msg: &str) -> bool {
    msg.starts_with(REJECTION_PREFIX)
}

impl Shed {
    pub fn rejection(&self) -> String {
        format!(
            "{REJECTION_PREFIX} tenant={} class={} reason={} wait_ns={}",
            self.tenant,
            self.class.as_str(),
            self.reason.kind(),
            self.reason.wait_ns()
        )
    }
}

enum Decision {
    Admit,
    Queue(SimDuration),
    Shed(ShedReason),
}

/// The façade-front gate: one token bucket + concurrency cap per tenant.
#[derive(Debug)]
pub struct AdmissionController {
    default_policy: TenantPolicy,
    tenants: BTreeMap<String, (TenantPolicy, TenantState)>,
}

impl AdmissionController {
    /// `default_policy` covers tenants that never registered explicitly.
    pub fn new(default_policy: TenantPolicy) -> AdmissionController {
        AdmissionController {
            default_policy,
            tenants: BTreeMap::new(),
        }
    }

    /// Assign (or replace) a tenant's quota. The bucket starts full.
    pub fn register(&mut self, tenant: impl Into<String>, policy: TenantPolicy) {
        let state = TenantState {
            tokens: policy.burst,
            last_refill: SimTime::ZERO,
            in_flight: 0,
        };
        self.tenants.insert(tenant.into(), (policy, state));
    }

    /// Retune a tenant's refill rate in place (the autoscaling feedback
    /// path: capacity added behind the façade raises the rate the gate
    /// lets through). Burst scales proportionally.
    pub fn set_rate(&mut self, tenant: &str, rate_per_sec: f64) {
        if let Some((policy, state)) = self.tenants.get_mut(tenant) {
            assert!(rate_per_sec > 0.0, "a tenant needs a positive refill rate");
            let scale = rate_per_sec / policy.rate_per_sec;
            policy.rate_per_sec = rate_per_sec;
            policy.burst = (policy.burst * scale).max(1.0);
            // Preserve the fill fraction so a capacity change takes effect
            // immediately instead of waiting out the old bucket's deficit.
            state.tokens *= scale;
        }
    }

    pub fn class_of(&self, tenant: &str) -> QosClass {
        self.tenants
            .get(tenant)
            .map(|(p, _)| p.class)
            .unwrap_or(self.default_policy.class)
    }

    pub fn rate_of(&self, tenant: &str) -> f64 {
        self.tenants
            .get(tenant)
            .map(|(p, _)| p.rate_per_sec)
            .unwrap_or(self.default_policy.rate_per_sec)
    }

    pub fn in_flight_of(&self, tenant: &str) -> u32 {
        self.tenants
            .get(tenant)
            .map(|(_, s)| s.in_flight)
            .unwrap_or(0)
    }

    /// A request finished (success or failure): release its concurrency
    /// slot. Must be called exactly once per admitted request.
    pub fn complete(&mut self, tenant: &str) {
        if let Some((_, state)) = self.tenants.get_mut(tenant) {
            state.in_flight = state.in_flight.saturating_sub(1);
        }
    }

    fn decide(&mut self, now: SimTime, tenant: &str) -> (QosClass, Decision) {
        // The tenant's name is copied once, the first time it is seen.
        if let Some((policy, state)) = self.tenants.get_mut(tenant) {
            return (policy.class, gate(policy, state, now));
        }
        let policy = self.default_policy;
        let mut state = TenantState {
            tokens: policy.burst,
            last_refill: now,
            in_flight: 0,
        };
        let decision = gate(&policy, &mut state, now);
        self.tenants.insert(tenant.to_string(), (policy, state));
        (policy.class, decision)
    }
}

/// One request against one tenant's bucket and concurrency cap.
fn gate(policy: &TenantPolicy, state: &mut TenantState, now: SimTime) -> Decision {
    // Refill from elapsed virtual time, capped at the burst allowance. A
    // sibling branch of a parallel fan-out can reach the gate at an
    // instant before the last refill: nothing has elapsed there, and the
    // bucket's clock does not move back.
    let elapsed = now.since(state.last_refill).as_secs_f64();
    state.tokens = (state.tokens + elapsed * policy.rate_per_sec).min(policy.burst);
    state.last_refill = state.last_refill.max(now);

    if state.in_flight >= policy.max_in_flight {
        return Decision::Shed(ShedReason::Concurrency);
    }
    if state.tokens >= 1.0 {
        state.tokens -= 1.0;
        state.in_flight += 1;
        return Decision::Admit;
    }
    // Predicted wait until this request's token exists. The token
    // deficit left by earlier queued requests is included, so the wait
    // grows as the virtual queue deepens.
    let wait = SimDuration::from_secs_f64((1.0 - state.tokens) / policy.rate_per_sec);
    if wait > policy.class.queue_budget() {
        return Decision::Shed(ShedReason::RateLimit { wait });
    }
    // Reserve the token now (tokens go negative) and queue.
    state.tokens -= 1.0;
    state.in_flight += 1;
    Decision::Queue(wait)
}

/// Shared handle: the deployed façade keeps one clone, the operator (or
/// the storm harness's scaler loop) keeps another to retune rates live.
pub type SharedAdmission = Rc<RefCell<AdmissionController>>;

pub fn shared_admission(ctrl: AdmissionController) -> SharedAdmission {
    Rc::new(RefCell::new(ctrl))
}

/// Run one request through the gate. Queued requests wait out their
/// predicted token arrival in *virtual* time (`env.run_for`), which is
/// safe inside a servicer: handler-side clock advancement never trips the
/// caller's dispatch timeout. The controller borrow is dropped before the
/// wait so timers firing during it can reach the controller again.
pub fn admit(env: &mut Env, ctrl: &SharedAdmission, tenant: &str) -> Result<(), Shed> {
    let (class, decision) = ctrl.borrow_mut().decide(env.now(), tenant);
    match decision {
        Decision::Admit => {}
        Decision::Queue(wait) => {
            env.metrics.add(keys::QUEUE_DELAYS, 1);
            env.metrics
                .record(keys::QUEUE_WAIT_NS, wait.as_nanos() as f64);
            env.run_for(wait);
        }
        Decision::Shed(reason) => {
            env.metrics.add(keys::SHED, 1);
            env.metrics.add_labeled(keys::SHED, class.as_str(), 1);
            let cur = env.current_span();
            if cur.is_valid() {
                env.span_event(
                    cur,
                    "admission.shed",
                    vec![
                        ("tenant", tenant.into()),
                        ("class", class.as_str().into()),
                        ("reason", reason.kind().into()),
                        ("predicted_wait_ns", reason.wait_ns().into()),
                    ],
                );
            }
            return Err(Shed {
                tenant: tenant.to_string(),
                class,
                reason,
            });
        }
    }
    env.metrics.add(keys::ADMITTED, 1);
    env.metrics.add_labeled(keys::ADMITTED, class.as_str(), 1);
    Ok(())
}

// ---------------------------------------------------------------------------
// Circuit breakers
// ---------------------------------------------------------------------------

/// Breaker state machine per servicer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every dispatch allowed.
    Closed,
    /// Tripped: dispatches are skipped until the cool-down elapses.
    Open,
    /// Cool-down elapsed: a bounded number of probes may go through; one
    /// success closes the breaker, one transient failure re-opens it.
    HalfOpen,
}

#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive transient failures that trip Closed → Open.
    pub failure_threshold: u32,
    /// Cool-down before Open → HalfOpen.
    pub open_for: SimDuration,
    /// Probes allowed while HalfOpen.
    pub half_open_probes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failure_threshold: 3,
            open_for: SimDuration::from_secs(30),
            half_open_probes: 1,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Breaker {
    state: BreakerState,
    consecutive: u32,
    opened_at: SimTime,
    probes_left: u32,
}

impl Breaker {
    fn new() -> Breaker {
        Breaker {
            state: BreakerState::Closed,
            consecutive: 0,
            opened_at: SimTime::ZERO,
            probes_left: 0,
        }
    }
}

/// All breakers of one composite/facade layer, indexed by the dense
/// servicer id. A servicer never touched has no breaker yet and reads
/// `Closed`; touching one grows the table up to its id.
#[derive(Debug)]
pub struct BreakerRegistry {
    config: BreakerConfig,
    breakers: Vec<Breaker>,
}

impl BreakerRegistry {
    pub fn new(config: BreakerConfig) -> BreakerRegistry {
        BreakerRegistry {
            config,
            breakers: Vec::new(),
        }
    }

    pub fn state(&self, svc: ServiceId) -> BreakerState {
        self.breakers
            .get(svc.0 as usize)
            .map_or(BreakerState::Closed, |b| b.state)
    }

    /// `svc`'s breaker, made (closed) on first touch.
    fn breaker(&mut self, svc: ServiceId) -> &mut Breaker {
        let i = svc.0 as usize;
        if i >= self.breakers.len() {
            self.breakers.resize(i + 1, Breaker::new());
        }
        &mut self.breakers[i]
    }

    /// Whether a dispatch to `svc` may proceed right now. An open breaker
    /// whose cool-down has elapsed moves to HalfOpen and grants its probe
    /// budget; an open breaker still cooling skips the call (counted, and
    /// surfaced as a `breaker.skip` event on the current span).
    pub fn allow(&mut self, env: &mut Env, svc: ServiceId) -> bool {
        let now = env.now();
        let config = self.config;
        let b = self.breaker(svc);
        let allowed = match b.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                // A sibling branch of a parallel fan-out can stand at an
                // instant before another branch opened this breaker: it had
                // not opened yet there, so the call may go.
                if now < b.opened_at || now - b.opened_at >= config.open_for {
                    b.state = BreakerState::HalfOpen;
                    b.probes_left = config.half_open_probes;
                    env.metrics.add(keys::BREAKER_HALF_OPEN, 1);
                    b.probes_left > 0 && {
                        b.probes_left -= 1;
                        true
                    }
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                b.probes_left > 0 && {
                    b.probes_left -= 1;
                    true
                }
            }
        };
        if !allowed {
            env.metrics.add(keys::BREAKER_SKIPPED, 1);
            let cur = env.current_span();
            if cur.is_valid() {
                env.span_event(cur, "breaker.skip", vec![("service", svc.0.into())]);
            }
        }
        allowed
    }

    /// Record the outcome of a dispatch to `svc`. Transient network errors
    /// (the retryable set, plus a retry deadline exhausted *by* transient
    /// errors) count toward tripping; success — or a non-transient error,
    /// which proves the host answered — resets.
    pub fn record(&mut self, env: &mut Env, svc: ServiceId, err: Option<NetError>) {
        let now = env.now();
        let config = self.config;
        let b = self.breaker(svc);
        let transient = matches!(
            err,
            Some(e) if RetryPolicy::retryable(e) || e == NetError::DeadlineExhausted
        );
        if transient {
            b.consecutive += 1;
            let trips = match b.state {
                BreakerState::Closed => b.consecutive >= config.failure_threshold,
                BreakerState::HalfOpen => true,
                BreakerState::Open => false,
            };
            if trips {
                b.state = BreakerState::Open;
                b.opened_at = now;
                b.consecutive = 0;
                env.metrics.add(keys::BREAKER_OPENED, 1);
                let cur = env.current_span();
                if cur.is_valid() {
                    env.span_event(cur, "breaker.open", vec![("service", svc.0.into())]);
                }
            }
        } else {
            if b.state != BreakerState::Closed {
                env.metrics.add(keys::BREAKER_CLOSED, 1);
            }
            b.state = BreakerState::Closed;
            b.consecutive = 0;
        }
    }

    /// Force a breaker open at `now` (operator action / tests).
    pub fn trip(&mut self, svc: ServiceId, now: SimTime) {
        let b = self.breaker(svc);
        b.state = BreakerState::Open;
        b.opened_at = now;
        b.consecutive = 0;
    }
}

/// Shared handle threaded through the composite fan-out closures.
pub type SharedBreakers = Rc<RefCell<BreakerRegistry>>;

pub fn shared_breakers(config: BreakerConfig) -> SharedBreakers {
    Rc::new(RefCell::new(BreakerRegistry::new(config)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env() -> Env {
        Env::with_seed(11)
    }

    fn controller() -> SharedAdmission {
        let mut ctrl =
            AdmissionController::new(TenantPolicy::new(QosClass::Standard, 10.0, 5.0, 8));
        ctrl.register("vip", TenantPolicy::new(QosClass::Critical, 10.0, 2.0, 8));
        ctrl.register("batch", TenantPolicy::new(QosClass::Bulk, 10.0, 2.0, 8));
        shared_admission(ctrl)
    }

    #[test]
    fn bucket_admits_burst_then_queues_in_sim_time() {
        let mut env = env();
        let ctrl = controller();
        // Burst of 2 admitted instantly.
        let t0 = env.now();
        admit(&mut env, &ctrl, "vip").unwrap();
        admit(&mut env, &ctrl, "vip").unwrap();
        assert_eq!(env.now(), t0, "burst admissions cost no virtual time");
        // Third request queues ~100ms (rate 10/s), in virtual time.
        admit(&mut env, &ctrl, "vip").unwrap();
        assert_eq!((env.now() - t0).as_nanos(), 100_000_000);
        assert_eq!(env.metrics.get(keys::ADMITTED), 3);
        assert_eq!(env.metrics.get(keys::QUEUE_DELAYS), 1);
        assert_eq!(env.metrics.get_labeled(keys::ADMITTED, "critical"), 3);
        // After a quiet second the bucket is full again.
        for _ in 0..3 {
            ctrl.borrow_mut().complete("vip");
        }
        env.run_for(SimDuration::from_secs(1));
        let t1 = env.now();
        admit(&mut env, &ctrl, "vip").unwrap();
        assert_eq!(env.now(), t1);
    }

    #[test]
    fn bulk_sheds_first_under_identical_pressure() {
        // Identical rate and burst for both tenants; the only difference
        // is the class budget. A drained bucket refills one token per
        // second, so the predicted 1s wait busts Bulk's 150ms budget but
        // fits inside Critical's 2s budget: under the same pressure Bulk
        // is rejected eagerly while Critical queues and keeps flowing.
        let mut env = env();
        let mut ctrl =
            AdmissionController::new(TenantPolicy::new(QosClass::Standard, 1.0, 2.0, 64));
        ctrl.register("vip", TenantPolicy::new(QosClass::Critical, 1.0, 2.0, 64));
        ctrl.register("batch", TenantPolicy::new(QosClass::Bulk, 1.0, 2.0, 64));
        let ctrl = shared_admission(ctrl);
        for tenant in ["vip", "batch"] {
            admit(&mut env, &ctrl, tenant).unwrap();
            admit(&mut env, &ctrl, tenant).unwrap();
        }
        let shed = admit(&mut env, &ctrl, "batch").unwrap_err();
        assert_eq!(
            shed.reason,
            ShedReason::RateLimit {
                wait: SimDuration::from_secs(1)
            }
        );
        let t0 = env.now();
        admit(&mut env, &ctrl, "vip").unwrap();
        assert_eq!(
            (env.now() - t0).as_nanos(),
            1_000_000_000,
            "queued, not shed"
        );
        assert_eq!(env.metrics.get_labeled(keys::SHED, "bulk"), 1);
        assert_eq!(env.metrics.get_labeled(keys::SHED, "critical"), 0);
    }

    #[test]
    fn concurrency_cap_sheds_and_completion_releases() {
        let mut env = env();
        let mut ctrl =
            AdmissionController::new(TenantPolicy::new(QosClass::Standard, 1_000.0, 1_000.0, 2));
        ctrl.register(
            "t",
            TenantPolicy::new(QosClass::Standard, 1_000.0, 1_000.0, 2),
        );
        let ctrl = shared_admission(ctrl);
        admit(&mut env, &ctrl, "t").unwrap();
        admit(&mut env, &ctrl, "t").unwrap();
        let shed = admit(&mut env, &ctrl, "t").unwrap_err();
        assert_eq!(shed.reason, ShedReason::Concurrency);
        assert!(is_rejection(&shed.rejection()));
        assert!(shed.rejection().contains("reason=concurrency"));
        ctrl.borrow_mut().complete("t");
        admit(&mut env, &ctrl, "t").unwrap();
        assert_eq!(ctrl.borrow().in_flight_of("t"), 2);
    }

    #[test]
    fn unknown_tenant_falls_back_to_the_default_policy() {
        let mut env = env();
        let ctrl = controller();
        admit(&mut env, &ctrl, "stranger").unwrap();
        assert_eq!(ctrl.borrow().class_of("stranger"), QosClass::Standard);
        assert_eq!(env.metrics.get_labeled(keys::ADMITTED, "standard"), 1);
    }

    #[test]
    fn set_rate_rescales_bucket_and_burst() {
        let ctrl = controller();
        ctrl.borrow_mut().set_rate("batch", 40.0);
        assert_eq!(ctrl.borrow().rate_of("batch"), 40.0);
        // Burst scaled 4x from 2.0.
        let mut env = env();
        for _ in 0..8 {
            admit(&mut env, &ctrl, "batch").unwrap();
            ctrl.borrow_mut().complete("batch");
        }
        assert_eq!(env.metrics.get(keys::QUEUE_DELAYS), 0, "burst holds 8 now");
    }

    #[test]
    fn breaker_trips_cools_probes_and_closes() {
        let mut env = env();
        let svc = ServiceId(7);
        let reg = shared_breakers(BreakerConfig {
            failure_threshold: 3,
            open_for: SimDuration::from_secs(10),
            half_open_probes: 1,
        });
        // Closed: three consecutive transients trip it.
        for _ in 0..2 {
            reg.borrow_mut()
                .record(&mut env, svc, Some(NetError::Timeout));
            assert_eq!(reg.borrow().state(svc), BreakerState::Closed);
        }
        // A retry deadline exhausted *by* transients is transient too.
        reg.borrow_mut()
            .record(&mut env, svc, Some(NetError::DeadlineExhausted));
        assert_eq!(reg.borrow().state(svc), BreakerState::Open);
        assert_eq!(env.metrics.get(keys::BREAKER_OPENED), 1);

        // Cooling: dispatches are skipped.
        assert!(!reg.borrow_mut().allow(&mut env, svc));
        assert_eq!(env.metrics.get(keys::BREAKER_SKIPPED), 1);

        // Cool-down elapsed: one probe allowed, a second is not.
        env.run_for(SimDuration::from_secs(10));
        assert!(reg.borrow_mut().allow(&mut env, svc));
        assert_eq!(reg.borrow().state(svc), BreakerState::HalfOpen);
        assert!(!reg.borrow_mut().allow(&mut env, svc));

        // Probe failure re-opens immediately (no threshold in HalfOpen)…
        reg.borrow_mut()
            .record(&mut env, svc, Some(NetError::HostDown));
        assert_eq!(reg.borrow().state(svc), BreakerState::Open);
        // …and after another cool-down a successful probe closes it.
        env.run_for(SimDuration::from_secs(10));
        assert!(reg.borrow_mut().allow(&mut env, svc));
        reg.borrow_mut().record(&mut env, svc, None);
        assert_eq!(reg.borrow().state(svc), BreakerState::Closed);
        assert_eq!(env.metrics.get(keys::BREAKER_CLOSED), 1);
    }

    #[test]
    fn non_transient_errors_do_not_trip_the_breaker() {
        let mut env = env();
        let svc = ServiceId(9);
        let reg = shared_breakers(BreakerConfig::default());
        for _ in 0..10 {
            // The host answered — it is not the breaker's business.
            reg.borrow_mut()
                .record(&mut env, svc, Some(NetError::NoSuchService));
        }
        assert_eq!(reg.borrow().state(svc), BreakerState::Closed);
        // Mixed traffic never accumulates to the threshold.
        for _ in 0..10 {
            reg.borrow_mut().record(&mut env, svc, Some(NetError::Lost));
            reg.borrow_mut().record(&mut env, svc, None);
        }
        assert_eq!(reg.borrow().state(svc), BreakerState::Closed);
    }

    #[test]
    fn a_rewound_clock_neither_panics_nor_refills() {
        let mut ctrl =
            AdmissionController::new(TenantPolicy::new(QosClass::Standard, 1.0, 2.0, 64));
        ctrl.register("t", TenantPolicy::new(QosClass::Critical, 1.0, 2.0, 64));
        let later = SimTime(10_000_000_000);
        for _ in 0..2 {
            assert!(matches!(ctrl.decide(later, "t").1, Decision::Admit));
        }
        // A sibling branch of a fan-out standing at 4 s finds the drained
        // bucket as it is: one second to its token, not a wrapped refill.
        let (_, d) = ctrl.decide(SimTime(4_000_000_000), "t");
        assert!(matches!(d, Decision::Queue(w) if w == SimDuration::from_secs(1)));
        // Nor did the bucket's clock move back to 4 s: back at 10 s nothing
        // has elapsed either, and the queue is two tokens deep.
        let (_, d) = ctrl.decide(later, "t");
        assert!(matches!(d, Decision::Queue(w) if w == SimDuration::from_secs(2)));
    }

    #[test]
    fn breakers_touched_out_of_id_order_keep_their_own_state() {
        let mut env = env();
        let mut reg = BreakerRegistry::new(BreakerConfig {
            failure_threshold: 2,
            open_for: SimDuration::from_secs(5),
            half_open_probes: 1,
        });
        let (a, b, c, d) = (ServiceId(40), ServiceId(3), ServiceId(17), ServiceId(0));
        let timeout = Some(NetError::Timeout);
        for (svc, err) in [
            (a, timeout),
            (b, None),
            (c, Some(NetError::HostDown)),
            (a, timeout),
            (d, Some(NetError::Lost)),
            (c, Some(NetError::HostDown)),
            (d, None),
            (b, Some(NetError::NoSuchService)),
        ] {
            reg.record(&mut env, svc, err);
        }
        let states = |reg: &BreakerRegistry| [a, b, c, d].map(|svc| reg.state(svc));
        use BreakerState::{Closed, HalfOpen, Open};
        assert_eq!(states(&reg), [Open, Closed, Open, Closed]);

        // Past the cool-down the open ones half-open, probed in any order.
        env.run_for(SimDuration::from_secs(5));
        assert!(reg.allow(&mut env, c));
        assert!(reg.allow(&mut env, a));
        assert_eq!(states(&reg), [HalfOpen, Closed, HalfOpen, Closed]);

        // A servicer never touched reads closed, and reading it makes none.
        assert_eq!(reg.state(ServiceId(1 << 20)), Closed);
        assert_eq!(reg.breakers.len(), 41);
        assert!(reg.allow(&mut env, ServiceId(99)));
        assert_eq!(reg.state(ServiceId(99)), Closed);
    }

    #[test]
    fn rejection_messages_parse_back() {
        let shed = Shed {
            tenant: "batch".into(),
            class: QosClass::Bulk,
            reason: ShedReason::RateLimit {
                wait: SimDuration::from_millis(400),
            },
        };
        let msg = shed.rejection();
        assert!(is_rejection(&msg));
        assert!(msg.contains("tenant=batch"));
        assert!(msg.contains("class=bulk"));
        assert!(msg.contains("reason=rate_limit"));
        assert!(msg.contains("wait_ns=400000000"));
        assert!(!is_rejection("component read failures: x"));
    }
}
