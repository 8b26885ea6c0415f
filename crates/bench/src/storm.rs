//! Tenant storm: the overload-protection stack exercised end to end.
//!
//! A bulk tenant's request rate is ramped to 8× baseline by a seeded
//! [`ChaosSchedule::generate_burst`] storm while a critical tenant keeps
//! reading through the same façade. Everything the admission layer is for
//! must hold at once:
//!
//! * the bulk storm is **shed, not served**: excess requests fail with a
//!   typed [`REJECTION_PREFIX`] message and an `admission.shed` trace
//!   event — never a timeout, and never at the critical tenant's expense;
//! * sheds burn the bulk service's availability SLO, the façade's burn
//!   rates feed the [`AutoScaler`], and planned capacity steps up
//!   (bounded, with hysteresis and cool-down: at most two raises per
//!   storm, no flapping);
//! * added capacity raises the tenant's admitted rate (the gate models
//!   the replicas behind it), so shedding subsides at the peak and stops
//!   once the storm decays — and the scaler then converges planned counts
//!   back down to the minimum;
//! * a mid-storm crash of one critical child trips its circuit breaker:
//!   the dead host is *skipped* (group failover serves the read) instead
//!   of re-burning the retry budget, and a half-open probe closes the
//!   breaker after the restart.
//!
//! All of it runs on virtual time from seeded draws, so a storm is
//! bit-identical per seed. `harness storm [seed] [out.json]` writes a
//! JSON summary (default `STORM_1.json`).
//!
//! [`REJECTION_PREFIX`]: sensorcer_core::admission::REJECTION_PREFIX

use sensorcer_core::admission;
use sensorcer_core::csp::{deploy_csp, CompositeSensorProvider, CspConfig};
use sensorcer_core::prelude::*;
use sensorcer_exertion::retry::RetryPolicy;
use sensorcer_exertion::ServicerBox;
use sensorcer_obs::{BurnRateWindows, SloKind, SloSpec};
use sensorcer_provision::prelude::*;
use sensorcer_registry::lease::LeasePolicy;
use sensorcer_registry::lus::LookupService;
use sensorcer_registry::renewal::LeaseRenewalService;
use sensorcer_sensors::prelude::*;
use sensorcer_sim::chaos::{burst_gauge_key, BurstConfig, ChaosEvent, ChaosSchedule};
use sensorcer_sim::prelude::*;
use sensorcer_trace::json::Json;

use crate::trace::TRACE_CAPACITY;

/// The critical tenant's composite (two grouped children; one is crashed
/// mid-storm to exercise the breaker + failover path).
pub const CRITICAL_SERVICE: &str = "Critical-Feed";
/// The bulk tenant's sensor service.
pub const BULK_SERVICE: &str = "Bulk-Feed";
/// The bulk tenant's id in the burst schedule (`chaos.burst.level_t0`).
pub const BULK_TENANT_ID: u32 = 0;

const VIP: &str = "vip";
const BATCH: &str = "batch";
const OPSTRING: &str = "storm-net";
const ELEMENT: &str = "bulk-worker";

/// Knobs for one storm run.
#[derive(Clone, Copy, Debug)]
pub struct StormConfig {
    pub seed: u64,
    /// Nominal read-round cadence (rounds stretch when queueing backs up).
    pub round: SimDuration,
    /// Calm lead-in before the burst schedule starts.
    pub warmup: SimDuration,
    /// The bulk tenant's ramp/hold/decay storm shape.
    pub burst: BurstConfig,
    /// Post-storm window in which the scaler must converge back down.
    pub tail: SimDuration,
    /// Crash of one critical child, measured from storm start.
    pub outage_after: SimDuration,
    pub outage: SimDuration,
    /// Critical-tenant reads per round.
    pub critical_per_round: u32,
    /// Bulk-tenant reads per round at baseline (scaled by the burst level).
    pub bulk_base_per_round: f64,
    /// Bulk tokens/s granted per planned instance. Chosen so the token
    /// interval stays *comfortably* above Bulk's 150 ms queue budget at
    /// every planned count (at the cap of 3 instances, 1/4.5 s ≈ 222 ms):
    /// an overloaded bulk tenant is shed, not silently queued. A thin
    /// margin here flaps the scaler — in-flight refill nudges predicted
    /// waits just under the budget, sheds stop while demand still exceeds
    /// capacity, burn collapses, and the scaler cuts mid-storm.
    pub bulk_base_rate: f64,
    /// Scaler control-loop cadence, in rounds.
    pub scaler_every: u64,
    pub scaler: AutoScalerConfig,
    pub breaker: BreakerConfig,
    /// Flight-recorder capacity; `None` runs untraced (the shed-event
    /// cross-check is skipped).
    pub trace_capacity: Option<usize>,
}

impl StormConfig {
    pub fn new(seed: u64) -> StormConfig {
        StormConfig {
            seed,
            round: SimDuration::from_secs(1),
            warmup: SimDuration::from_secs(20),
            burst: BurstConfig {
                hold: SimDuration::from_secs(90),
                ..BurstConfig::default()
            },
            tail: SimDuration::from_secs(150),
            outage_after: SimDuration::from_secs(60),
            outage: SimDuration::from_secs(40),
            critical_per_round: 2,
            bulk_base_per_round: 1.0,
            bulk_base_rate: 1.5,
            scaler_every: 5,
            scaler: AutoScalerConfig {
                max_planned: 3,
                ..AutoScalerConfig::default()
            },
            breaker: BreakerConfig {
                open_for: SimDuration::from_secs(15),
                ..BreakerConfig::default()
            },
            trace_capacity: Some(TRACE_CAPACITY),
        }
    }
}

/// What one storm run did and found.
#[derive(Clone, Debug, PartialEq)]
pub struct StormReport {
    pub seed: u64,
    pub rounds: u64,
    pub critical_reads: u64,
    pub critical_ok: u64,
    pub critical_failed: u64,
    pub bulk_reads: u64,
    pub bulk_ok: u64,
    /// Bulk reads rejected with a typed admission message.
    pub bulk_shed: u64,
    /// Bulk reads that failed any other way (must be zero).
    pub bulk_failed_other: u64,
    /// `admission.requests.*` totals at the end of the run.
    pub admitted_metric: u64,
    pub shed_metric: u64,
    pub queue_delays: u64,
    /// `admission.shed` events found in the exported trace.
    pub shed_trace_events: u64,
    /// `breaker.*` totals at the end of the run.
    pub breaker_opened: u64,
    pub breaker_skipped: u64,
    pub breaker_half_open: u64,
    pub breaker_closed: u64,
    /// Scaling actions applied, split by direction.
    pub up_actions: u64,
    pub down_actions: u64,
    pub max_planned: u32,
    pub final_planned: u32,
    /// Worst fast-window burn the critical service ever showed.
    pub max_critical_burn: f64,
    /// Burst steps the schedule injected above baseline.
    pub bursts_injected: u64,
    /// Invariant violations; empty on a passing run.
    pub violations: Vec<String>,
    /// Every metric key the run registered (for the naming audit).
    pub metric_keys: Vec<String>,
}

impl StormReport {
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// The `STORM_1.json` report; the burn rate keeps three decimals.
    pub fn json(&self) -> Json {
        Json::report(
            [
                ("seed", self.seed.into()),
                ("rounds", self.rounds.into()),
                (
                    "critical",
                    Json::obj([
                        ("reads", self.critical_reads.into()),
                        ("ok", self.critical_ok.into()),
                        ("failed", self.critical_failed.into()),
                    ]),
                ),
                (
                    "bulk",
                    Json::obj([
                        ("reads", self.bulk_reads.into()),
                        ("ok", self.bulk_ok.into()),
                        ("shed", self.bulk_shed.into()),
                        ("failed_other", self.bulk_failed_other.into()),
                    ]),
                ),
                (
                    "admission",
                    Json::obj([
                        ("admitted", self.admitted_metric.into()),
                        ("shed", self.shed_metric.into()),
                        ("queue_delays", self.queue_delays.into()),
                        ("shed_trace_events", self.shed_trace_events.into()),
                    ]),
                ),
                (
                    "breaker",
                    Json::obj([
                        ("opened", self.breaker_opened.into()),
                        ("skipped", self.breaker_skipped.into()),
                        ("half_open", self.breaker_half_open.into()),
                        ("closed", self.breaker_closed.into()),
                    ]),
                ),
                (
                    "scaling",
                    Json::obj([
                        ("up", self.up_actions.into()),
                        ("down", self.down_actions.into()),
                        ("max_planned", self.max_planned.into()),
                        ("final_planned", self.final_planned.into()),
                    ]),
                ),
                (
                    "max_critical_burn",
                    Json::rounded(self.max_critical_burn, 3),
                ),
                ("bursts_injected", self.bursts_injected.into()),
                ("violations", Json::arr(&self.violations)),
            ],
            self.passed(),
        )
    }

    /// One-paragraph human transcript.
    pub fn summary(&self) -> String {
        format!(
            "tenant storm seed={}: {} rounds, critical {}/{} ok, bulk {} reads \
             ({} ok / {} shed / {} other), scaling {} up / {} down (peak planned {}, \
             final {}), breaker {} opened / {} skipped / {} closed — {}\n",
            self.seed,
            self.rounds,
            self.critical_ok,
            self.critical_reads,
            self.bulk_reads,
            self.bulk_ok,
            self.bulk_shed,
            self.bulk_failed_other,
            self.up_actions,
            self.down_actions,
            self.max_planned,
            self.final_planned,
            self.breaker_opened,
            self.breaker_skipped,
            self.breaker_closed,
            if self.passed() {
                "PASS".to_string()
            } else {
                format!("FAIL ({} violations)", self.violations.len())
            }
        )
    }
}

/// Everything a storm leaves behind: the scored report and the raw
/// telemetry the Perfetto exporter feeds on.
pub struct StormRun {
    pub report: StormReport,
    /// The flight recorder, if the run was traced.
    pub recorder: Option<FlightRecorder>,
    /// `(host id, host name)` for every host in the topology, in id order —
    /// the Perfetto process-track names.
    pub hosts: Vec<(u64, String)>,
    /// The façade's full SLO alert history (fired and resolved).
    pub alerts: Vec<sensorcer_obs::Alert>,
}

/// One tenant-attributed read with a `storm.read` root span, so shed and
/// breaker events below it stay explainable from the trace.
fn traced_read(
    env: &mut Env,
    facade: &FacadeHandle,
    from: HostId,
    tenant: &str,
    service: &str,
) -> Result<SensorReading, String> {
    let span = if env.tracing_enabled() {
        env.span_start("storm.read", service, from)
    } else {
        SpanId::INVALID
    };
    let res = facade.get_value_as(env, from, tenant, service);
    if span.is_valid() {
        match &res {
            Ok(_) => env.span_end(span, Outcome::Ok),
            Err(e) => {
                env.span_field(span, "error", e.as_str());
                env.span_end(span, Outcome::Error);
            }
        }
    }
    res
}

struct Bean;

/// Run one storm to completion, optionally pumping a [`TelemetrySampler`]
/// once per round, and return the report plus the raw telemetry
/// ([`StormRun`]). The sampler only *reads* the registry (its own
/// bookkeeping counters aside), so a sampled storm's report is identical
/// to an unsampled one on the same seed, modulo `metric_keys`.
pub fn run_storm(cfg: &StormConfig, mut sampler: Option<&mut TelemetrySampler>) -> StormRun {
    let mut env = Env::with_seed(cfg.seed);
    if let Some(capacity) = cfg.trace_capacity {
        env.enable_tracing(capacity);
    }
    let lab = env.add_host("lab", HostKind::Server);
    let client = env.add_host("client", HostKind::Workstation);
    env.topo.join_group(client, "public");
    let lus = LookupService::deploy(
        &mut env,
        lab,
        "Lookup Service",
        "public",
        LeasePolicy::default(),
        SimDuration::from_secs(1),
    );

    // Every provider joins with the paper deployment's lease and the
    // renewal service, as in the chaos soak.
    let lease = DeploymentConfig::fig2().lease;
    let renewal = LeaseRenewalService::deploy(&mut env, lab, "Lease Renewal Service");

    // Critical feed: two equivalent children so a breaker-open child can
    // fail over instead of failing the tenant.
    let mut crit_motes = Vec::new();
    for name in ["Critical-A", "Critical-B"] {
        let mote = env.add_host(format!("{name}-mote"), HostKind::SensorMote);
        deploy_esp(
            &mut env,
            EspConfig {
                lease,
                renewal: Some(renewal),
                equivalence_group: Some("g-crit".into()),
                ..EspConfig::new(
                    mote,
                    name,
                    Box::new(ScriptedProbe::new(vec![21.0], Unit::Celsius)),
                    lus,
                )
            },
        );
        crit_motes.push(mote);
    }
    let bulk_mote = env.add_host("bulk-mote", HostKind::SensorMote);
    deploy_esp(
        &mut env,
        EspConfig {
            lease,
            renewal: Some(renewal),
            ..EspConfig::new(
                bulk_mote,
                BULK_SERVICE,
                Box::new(ScriptedProbe::new(vec![7.0], Unit::Celsius)),
                lus,
            )
        },
    );

    let breakers = sensorcer_core::admission::shared_breakers(cfg.breaker);
    let mut csp_cfg = CspConfig::new(lab, CRITICAL_SERVICE, lus);
    csp_cfg.lease = lease;
    csp_cfg.renewal = Some(renewal);
    csp_cfg.retry = RetryPolicy::transient();
    csp_cfg.breakers = Some(breakers.clone());
    let crit = deploy_csp(&mut env, csp_cfg).expect("critical composite");
    env.with_service(crit.service, |_e, sb: &mut ServicerBox| {
        let csp = sb
            .downcast_mut::<CompositeSensorProvider>()
            .expect("composite");
        for name in ["Critical-A", "Critical-B"] {
            csp.add_service_grouped(name, Some("g-crit".to_string()))
                .expect("grouped child");
        }
    })
    .expect("composite reachable");

    // Provisioning: the bulk element the scaler retargets. The instances
    // model capacity behind the façade — each planned instance raises the
    // bulk tenant's admitted token rate by one `bulk_base_rate` share.
    let mut factories = FactoryRegistry::new();
    factories.register_fn("bulk-bean", |env, host, _el, instance| {
        Ok(env.deploy(host, instance.to_string(), Bean))
    });
    let monitor = ProvisionMonitor::deploy(
        &mut env,
        lab,
        "Monitor",
        AllocationPolicy::LeastUtilized,
        factories,
        None,
        SimDuration::from_secs(1),
    );
    for i in 0..2 {
        let h = env.add_host(format!("cyb{i}"), HostKind::Server);
        let node = Cybernode::deploy(
            &mut env,
            h,
            &format!("Cyb-{i}"),
            QosCapabilities::lab_server(),
            None,
        );
        env.with_service(monitor.service, |_e, m: &mut ProvisionMonitor| {
            m.register_cybernode(node)
        })
        .expect("monitor reachable");
    }
    let os = OperationalString::new(OPSTRING).with_element(
        ServiceElement::singleton(ELEMENT, "bulk-bean")
            .with_planned(1)
            .with_max_per_node(4),
    );
    monitor
        .deploy_opstring(&mut env, lab, os)
        .expect("monitor reachable")
        .expect("opstring deploys");

    // Façade: SLOs on both tenant-facing services, admission in front.
    let windows = BurnRateWindows {
        fast: SimDuration::from_secs(45),
        slow: SimDuration::from_secs(180),
        fast_burn: 3.0,
        slow_burn: 1.5,
    };
    let spec = |name: &str, service: &str| SloSpec {
        name: name.into(),
        service: service.into(),
        kind: SloKind::Availability { min_ratio: 0.90 },
        windows,
    };
    let accessor = sensorcer_exertion::ServiceAccessor::new(vec![lus]);
    let facade = SensorcerFacade::deploy_with_slos(
        &mut env,
        lab,
        "SenSORCER Facade",
        accessor,
        Some(monitor),
        vec![
            spec("critical-availability", CRITICAL_SERVICE),
            spec("bulk-availability", BULK_SERVICE),
        ],
    );
    let mut ctrl_inner =
        AdmissionController::new(TenantPolicy::new(QosClass::Standard, 50.0, 50.0, 1024));
    ctrl_inner.register(VIP, TenantPolicy::new(QosClass::Critical, 20.0, 20.0, 1024));
    ctrl_inner.register(
        BATCH,
        TenantPolicy::new(QosClass::Bulk, cfg.bulk_base_rate, 3.0, 1024),
    );
    let ctrl = sensorcer_core::admission::shared_admission(ctrl_inner);
    {
        let gate = ctrl.clone();
        env.with_service(facade.service, |_e, sb: &mut ServicerBox| {
            sb.downcast_mut::<SensorcerFacade>()
                .expect("facade")
                .install_admission(gate);
        })
        .expect("facade reachable");
    }

    let mut scaler = AutoScaler::new(cfg.scaler);
    scaler.watch(BULK_SERVICE, OPSTRING, ELEMENT);

    // The storm: a burst schedule for the bulk tenant merged with one
    // mid-storm crash/restart of a critical child, drawn from an rng
    // stream independent of the env's jitter draws.
    let storm_start = env.now() + cfg.warmup;
    let storm_len = cfg.burst.ramp + cfg.burst.hold + cfg.burst.decay;
    let end = storm_start + storm_len + cfg.tail;
    let mut rng = SimRng::new(cfg.seed ^ 0x5702_14AD);
    let schedule = ChaosSchedule::generate_burst(&mut rng, BULK_TENANT_ID, storm_start, &cfg.burst)
        .merge(ChaosSchedule {
            events: vec![
                (
                    storm_start + cfg.outage_after,
                    ChaosEvent::Crash {
                        host: crit_motes[1],
                    },
                ),
                (
                    storm_start + cfg.outage_after + cfg.outage,
                    ChaosEvent::Restart {
                        host: crit_motes[1],
                    },
                ),
            ],
        });
    let bursts_injected = schedule.counts().bursts;
    schedule.install(&mut env);

    let mut violations: Vec<String> = Vec::new();
    let (mut rounds, mut critical_reads, mut critical_ok, mut critical_failed) =
        (0u64, 0u64, 0u64, 0u64);
    let (mut bulk_reads, mut bulk_ok, mut bulk_shed, mut bulk_failed_other) =
        (0u64, 0u64, 0u64, 0u64);
    let mut last_shed_at = SimTime::ZERO;
    let mut max_planned = 1u32;
    let mut max_critical_burn = 0.0f64;

    while env.now() < end {
        rounds += 1;
        let round_start = env.now();
        if let Some(s) = sampler.as_mut() {
            s.sample(&mut env);
        }

        // Control loop: façade burn rates → scaler → planned count →
        // admitted token rate. The gate's capacity *is* the fleet's.
        if rounds % cfg.scaler_every == 0 {
            let now = env.now();
            let burns = env
                .with_service(facade.service, |_e, sb: &mut ServicerBox| {
                    sb.downcast_mut::<SensorcerFacade>()
                        .expect("facade")
                        .burn_rates(now)
                })
                .expect("facade reachable");
            if let Some((_, fast, _)) = burns.iter().find(|(s, _, _)| s == CRITICAL_SERVICE) {
                max_critical_burn = max_critical_burn.max(*fast);
            }
            // Mirror each service's fast burn into a gauge so the sampler
            // can turn the control signal into a Perfetto counter track.
            for (service, fast, _) in &burns {
                let key = format!("slo.burn.{}", service.to_lowercase().replace('-', "_"));
                env.metrics.set_gauge(&key, *fast);
            }
            scaler.evaluate(&mut env, monitor, &burns);
            let planned = env
                .with_service(monitor.service, |_e, m: &mut ProvisionMonitor| {
                    m.planned_of(OPSTRING, ELEMENT).unwrap_or(1)
                })
                .expect("monitor reachable");
            max_planned = max_planned.max(planned);
            ctrl.borrow_mut()
                .set_rate(BATCH, cfg.bulk_base_rate * f64::from(planned));
        }

        for _ in 0..cfg.critical_per_round {
            critical_reads += 1;
            match traced_read(&mut env, &facade, client, VIP, CRITICAL_SERVICE) {
                Ok(_) => critical_ok += 1,
                Err(e) => {
                    critical_failed += 1;
                    violations.push(format!(
                        "t={:?}: critical read failed during the storm: {e}",
                        round_start
                    ));
                }
            }
        }

        let level = env
            .metrics
            .gauge(&burst_gauge_key(BULK_TENANT_ID))
            .unwrap_or(1.0);
        let demand = (cfg.bulk_base_per_round * level).round() as u64;
        for _ in 0..demand {
            bulk_reads += 1;
            match traced_read(&mut env, &facade, client, BATCH, BULK_SERVICE) {
                Ok(_) => bulk_ok += 1,
                Err(e) if admission::is_rejection(&e) => {
                    bulk_shed += 1;
                    last_shed_at = env.now();
                }
                Err(e) => {
                    bulk_failed_other += 1;
                    violations.push(format!(
                        "t={:?}: bulk read failed without a typed rejection: {e}",
                        round_start
                    ));
                }
            }
        }

        let elapsed = env.now() - round_start;
        if elapsed < cfg.round {
            env.run_for(cfg.round - elapsed);
        }
    }

    // --- Invariants ------------------------------------------------------
    if bulk_shed == 0 {
        violations.push("storm never overloaded the gate: no bulk request was shed".into());
    }
    let shed_metric = env.metrics.get(admission::keys::SHED);
    if shed_metric != bulk_shed {
        violations.push(format!(
            "gate accounting disagrees with clients: metric {shed_metric} vs observed {bulk_shed}"
        ));
    }
    if env.metrics.get_labeled(admission::keys::SHED, "critical") != 0 {
        violations.push("a critical request was shed".into());
    }
    if max_critical_burn >= 1.0 {
        violations.push(format!(
            "critical availability burned at {max_critical_burn:.2}x — the storm leaked \
             across tenants"
        ));
    }
    if last_shed_at > end - SimDuration::from_secs(30) {
        violations.push("shedding never reconverged: sheds within 30 s of the end".into());
    }

    let up_actions = scaler.actions().iter().filter(|a| a.is_up()).count() as u64;
    let down_actions = scaler.actions().len() as u64 - up_actions;
    if !(1..=2).contains(&up_actions) {
        violations.push(format!("{up_actions} scale-ups (expected 1–2)"));
    }
    if !(1..=2).contains(&down_actions) {
        violations.push(format!("{down_actions} scale-downs (expected 1–2)"));
    }
    if let Some(first_down) = scaler.actions().iter().position(|a| !a.is_up()) {
        if scaler.actions()[first_down..].iter().any(|a| a.is_up()) {
            violations.push("scaler flapped: a raise landed after the first cut".into());
        }
    }
    let final_planned = env
        .with_service(monitor.service, |_e, m: &mut ProvisionMonitor| {
            m.planned_of(OPSTRING, ELEMENT).unwrap_or(0)
        })
        .expect("monitor reachable");
    if final_planned != cfg.scaler.min_planned {
        violations.push(format!(
            "planned count did not converge: {final_planned} (want {})",
            cfg.scaler.min_planned
        ));
    }
    let final_rate = ctrl.borrow().rate_of(BATCH);
    if (final_rate - cfg.bulk_base_rate * f64::from(cfg.scaler.min_planned)).abs() > 1e-9 {
        violations.push(format!("bulk rate not restored: {final_rate}"));
    }

    let breaker_opened = env.metrics.get(admission::keys::BREAKER_OPENED);
    let breaker_skipped = env.metrics.get(admission::keys::BREAKER_SKIPPED);
    let breaker_half_open = env.metrics.get(admission::keys::BREAKER_HALF_OPEN);
    let breaker_closed = env.metrics.get(admission::keys::BREAKER_CLOSED);
    if breaker_opened == 0 {
        violations.push("the outage never tripped a breaker".into());
    }
    if breaker_skipped == 0 {
        violations.push("an open breaker never skipped a dispatch".into());
    }
    if breaker_closed == 0 {
        violations.push("the breaker never closed after the restart".into());
    }

    let alerts = env
        .with_service(facade.service, |_e, sb: &mut ServicerBox| {
            sb.downcast_mut::<SensorcerFacade>()
                .expect("facade")
                .slo_alerts()
        })
        .expect("facade reachable");
    let hosts: Vec<(u64, String)> = env
        .topo
        .hosts()
        .map(|h| (u64::from(h.id.0), h.name.clone()))
        .collect();

    let metric_keys: Vec<String> = env.metrics.all_keys().into_iter().collect();
    let recorder = env.disable_tracing();
    let mut shed_trace_events = 0u64;
    if let Some(rec) = &recorder {
        shed_trace_events = rec
            .spans()
            .flat_map(|s| s.events.iter())
            .filter(|e| e.name == "admission.shed")
            .count() as u64;
        if rec.dropped() == 0 && shed_trace_events != bulk_shed {
            violations.push(format!(
                "{shed_trace_events} admission.shed trace events for {bulk_shed} sheds — \
                 every shed must be explainable from the trace"
            ));
        }
    }

    let report = StormReport {
        seed: cfg.seed,
        rounds,
        critical_reads,
        critical_ok,
        critical_failed,
        bulk_reads,
        bulk_ok,
        bulk_shed,
        bulk_failed_other,
        admitted_metric: env.metrics.get(admission::keys::ADMITTED),
        shed_metric,
        queue_delays: env.metrics.get(admission::keys::QUEUE_DELAYS),
        shed_trace_events,
        breaker_opened,
        breaker_skipped,
        breaker_half_open,
        breaker_closed,
        up_actions,
        down_actions,
        max_planned,
        final_planned,
        max_critical_burn,
        bursts_injected,
        violations,
        metric_keys,
    };
    StormRun {
        report,
        recorder,
        hosts,
        alerts,
    }
}

/// Every metric key a representative storm registers at runtime — merged
/// into the metric-name audit (`tests/metric_names.rs`) so the admission, breaker,
/// autoscale, burst and sampler keys are all held to
/// `subsystem.object.action`. Runs with a default sampler attached so the
/// `sampler.*` bookkeeping keys register the way `harness storm` sees
/// them.
pub fn runtime_metric_names() -> Vec<String> {
    let mut sampler = TelemetrySampler::new(SamplerConfig::default());
    run_storm(&StormConfig::new(1), Some(&mut sampler))
        .report
        .metric_keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorcer_provision::autoscale::keys as autoscale_keys;

    #[test]
    fn storm_is_deterministic_per_seed() {
        let cfg = StormConfig::new(0xD00D);
        let a = run_storm(&cfg, None).report;
        let b = run_storm(&cfg, None).report;
        assert_eq!(a, b, "same seed must reproduce the identical report");
    }

    #[test]
    fn storm_passes_on_pinned_seeds() {
        for seed in [1u64, 2, 3] {
            let r = run_storm(&StormConfig::new(seed), None).report;
            assert!(r.passed(), "seed {seed} violations: {:#?}", r.violations);
            // The storm genuinely overloaded the gate, every excess
            // request was a typed rejection, and the critical tenant
            // never noticed.
            assert!(r.bulk_shed > 0, "seed {seed}: no sheds");
            assert_eq!(r.bulk_failed_other, 0);
            assert_eq!(r.critical_failed, 0);
            assert!(r.max_critical_burn < 1.0);
            // Scaling stepped up under pressure and converged back.
            assert_eq!(r.max_planned, 3, "seed {seed}");
            assert_eq!(r.final_planned, 1, "seed {seed}");
            assert!(r.up_actions <= 2 && r.down_actions <= 2);
            // The outage exercised the full breaker lifecycle.
            assert!(r.breaker_opened >= 1 && r.breaker_closed >= 1);
            assert!(r.breaker_skipped >= 1);
        }
    }

    #[test]
    fn storm_registers_the_overload_metrics() {
        let names = runtime_metric_names();
        for key in [
            admission::keys::ADMITTED,
            admission::keys::SHED,
            admission::keys::QUEUE_DELAYS,
            admission::keys::BREAKER_OPENED,
            admission::keys::BREAKER_SKIPPED,
            autoscale_keys::ACTIONS_UP,
            autoscale_keys::ACTIONS_DOWN,
            sensorcer_sim::chaos::keys::CHAOS_BURSTS,
            &burst_gauge_key(BULK_TENANT_ID),
            sampler_keys::TICKS,
            sampler_keys::POINTS,
        ] {
            assert!(names.iter().any(|n| n == key), "missing {key}");
        }
        assert!(
            names.iter().any(|n| n.starts_with("slo.burn.")),
            "control loop must mirror burn rates into gauges"
        );
    }
}
