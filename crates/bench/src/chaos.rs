//! Chaos soak: federated reads under seeded, deterministic fault injection.
//!
//! A small federated world — lab server with the LUS, six grouped ESP
//! motes, a `Quorum(4)` composite over all six and a `LastKnownGood`
//! composite over three — is bombarded by a pre-generated
//! [`ChaosSchedule`] of partitions, isolations, crashes and slow-link
//! windows while a client issues read after read. Everything (faults,
//! retries, backoffs, lease renewals) runs through the one deterministic
//! timer queue, so a soak is exactly reproducible from its seed.
//!
//! Invariants checked each round:
//!
//! * a read that substitutes or drops children is flagged `suspect` and
//!   reports the affected children — never silently clean;
//! * the quorum composite answers whenever at least 4 of its 6 children
//!   are reachable and no further faults land mid-read;
//! * the last-known-good composite answers *every* read after priming
//!   (the chaos horizon is far shorter than its `max_age`);
//! * once the schedule drains (every fault has a paired inverse), reads
//!   reconverge to clean — the post-heal tail must be all-Ok, undegraded.
//!
//! `harness chaos [seed] [out.json]` runs one soak and writes a JSON
//! summary of injected faults vs. degraded/failed reads (default
//! `CHAOS_1.json`).

use sensorcer_core::csp::{self, DegradationPolicy};
use sensorcer_core::prelude::*;
use sensorcer_exertion::retry::{self, RetryPolicy};
use sensorcer_obs::ReadOutcome;
use sensorcer_registry::lease::LeasePolicy;
use sensorcer_registry::lus::LookupService;
use sensorcer_sensors::prelude::*;
use sensorcer_sim::chaos::{keys as chaos_keys, ChaosConfig, ChaosCounts, ChaosSchedule};
use sensorcer_sim::prelude::*;
use sensorcer_trace::json::Json;

/// Keys `tests/committed_artifacts.rs` requires of `CHAOS_1.json`.
/// The `Quorum(4)`-of-six composite under test.
pub const QUORUM_COMPOSITE: &str = "Chaos-Quorum";
/// The `LastKnownGood` composite under test.
pub const LKG_COMPOSITE: &str = "Chaos-LKG";

/// Knobs for one soak run.
#[derive(Clone, Copy, Debug)]
pub struct SoakConfig {
    pub seed: u64,
    /// Idle gap between read rounds (reads themselves also advance time).
    pub read_period: SimDuration,
    /// Post-heal rounds that must all come back clean.
    pub tail_reads: usize,
    pub chaos: ChaosConfig,
    /// Flight-recorder capacity; `None` (the default) runs untraced, so
    /// the instrumented read path stays a null check.
    pub trace_capacity: Option<usize>,
}

impl SoakConfig {
    pub fn new(seed: u64) -> SoakConfig {
        SoakConfig {
            seed,
            read_period: SimDuration::from_secs(2),
            tail_reads: 20,
            chaos: ChaosConfig::default(),
            trace_capacity: None,
        }
    }
}

/// What one soak run did and found.
#[derive(Clone, Debug, PartialEq)]
pub struct SoakReport {
    pub seed: u64,
    /// Read rounds completed inside the chaos window.
    pub rounds: u64,
    /// Top-level composite reads issued (each fans out to 3–6 children).
    pub reads_total: u64,
    pub reads_ok: u64,
    pub reads_failed: u64,
    /// Successful reads that substituted or dropped at least one child.
    pub reads_degraded: u64,
    /// Faults the schedule injected, by class.
    pub injected: ChaosCounts,
    /// `exertion.retry.attempts` at the end of the run.
    pub retry_attempts: u64,
    /// `csp.failover.attempts` at the end of the run.
    pub failover_attempts: u64,
    /// `chaos.events.applied` — events actually applied (faults plus inverses).
    pub events_applied: u64,
    /// Invariant violations, empty on a passing run.
    pub violations: Vec<String>,
    /// Did the post-heal tail come back all-clean?
    pub reconverged: bool,
}

impl SoakReport {
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && self.reconverged
    }

    /// The `CHAOS_1.json` report: injected faults vs. read outcomes.
    pub fn json(&self) -> Json {
        Json::report(
            [
                ("seed", self.seed.into()),
                ("rounds", self.rounds.into()),
                (
                    "reads",
                    Json::obj([
                        ("total", self.reads_total.into()),
                        ("ok", self.reads_ok.into()),
                        ("failed", self.reads_failed.into()),
                        ("degraded", self.reads_degraded.into()),
                    ]),
                ),
                (
                    "injected",
                    Json::obj([
                        ("partitions", self.injected.partitions.into()),
                        ("isolates", self.injected.isolates.into()),
                        ("crashes", self.injected.crashes.into()),
                        ("slow_links", self.injected.slow_links.into()),
                        ("total", self.injected.total().into()),
                    ]),
                ),
                (
                    "metrics",
                    Json::obj([
                        ("retry_attempts", self.retry_attempts.into()),
                        ("failover_attempts", self.failover_attempts.into()),
                        ("events_applied", self.events_applied.into()),
                    ]),
                ),
                ("violations", Json::arr(&self.violations)),
                ("reconverged", self.reconverged.into()),
            ],
            self.passed(),
        )
    }

    /// One-paragraph human transcript.
    pub fn summary(&self) -> String {
        format!(
            "chaos soak seed={}: {} rounds, {} reads ({} ok / {} failed / {} degraded), \
             {} faults injected ({} partitions, {} isolates, {} crashes, {} slow links), \
             {} retries, {} failovers — {}\n",
            self.seed,
            self.rounds,
            self.reads_total,
            self.reads_ok,
            self.reads_failed,
            self.reads_degraded,
            self.injected.total(),
            self.injected.partitions,
            self.injected.isolates,
            self.injected.crashes,
            self.injected.slow_links,
            self.retry_attempts,
            self.failover_attempts,
            if self.passed() {
                "PASS".to_string()
            } else {
                format!("FAIL ({} violations)", self.violations.len())
            }
        )
    }
}

/// Passive spectator of a soak: sees every completed top-level read and
/// every settled round, but only through `&Env` — the type system
/// guarantees an observed soak is bit-identical to an unobserved one.
/// This is how the health engine (`harness obs`) watches a run.
pub trait SoakObserver {
    /// One completed top-level read: which service, when it started
    /// (virtual time), how it ended, and the age of the data served
    /// (`None` when the read failed outright).
    fn on_read(
        &mut self,
        env: &Env,
        service: &str,
        started: SimTime,
        outcome: ReadOutcome,
        data_age_ns: Option<u64>,
    );

    /// End of one read round — metrics are settled, a good moment to
    /// sample counters and gauges.
    fn on_round(&mut self, _env: &Env) {}
}

/// [`traced_read`] plus the observer callback.
fn observed_read(
    env: &mut Env,
    from: HostId,
    accessor: &sensorcer_exertion::ServiceAccessor,
    name: &str,
    obs: &mut Option<&mut dyn SoakObserver>,
) -> Result<
    (
        sensorcer_core::accessor::SensorReading,
        sensorcer_core::accessor::DegradedInfo,
    ),
    String,
> {
    let started = env.now();
    let result = traced_read(env, from, accessor, name);
    if let Some(o) = obs.as_deref_mut() {
        let now = env.now();
        let (outcome, age) = match &result {
            Ok((r, d)) => (
                if d.is_degraded() {
                    ReadOutcome::Degraded
                } else {
                    ReadOutcome::Ok
                },
                Some(now.as_nanos().saturating_sub(r.at_ns)),
            ),
            Err(_) => (ReadOutcome::Error, None),
        };
        o.on_read(env, name, started, outcome, age);
    }
    result
}

/// One top-level federated read with a `soak.read` root span: every
/// dispatch, retry, failover and substitution below it nests under this
/// span, which is what makes a degraded read explainable from its trace.
/// With tracing off this is exactly `client::get_value_detailed`.
fn traced_read(
    env: &mut Env,
    from: HostId,
    accessor: &sensorcer_exertion::ServiceAccessor,
    name: &str,
) -> Result<
    (
        sensorcer_core::accessor::SensorReading,
        sensorcer_core::accessor::DegradedInfo,
    ),
    String,
> {
    let span = if env.tracing_enabled() {
        env.span_start("soak.read", name, from)
    } else {
        SpanId::INVALID
    };
    let result = client::get_value_detailed(env, from, accessor, name);
    if span.is_valid() {
        match &result {
            Ok((_, d)) if d.is_degraded() => {
                if !d.substituted.is_empty() {
                    env.span_field(span, "substituted", d.substituted.join(","));
                }
                if !d.missing.is_empty() {
                    env.span_field(span, "missing", d.missing.join(","));
                }
                env.span_end(span, Outcome::Degraded);
            }
            Ok(_) => env.span_end(span, Outcome::Ok),
            Err(e) => {
                env.span_field(span, "error", e.as_str());
                env.span_end(span, Outcome::Error);
            }
        }
    }
    result
}

/// Run one soak to completion.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    run_soak_observed(cfg, None).0
}

/// Like [`run_soak`], returning the flight recorder too when
/// `cfg.trace_capacity` is set (the substrate of `harness chaos`), with
/// an optional [`SoakObserver`] riding along (that of `harness obs`).
pub fn run_soak_observed(
    cfg: &SoakConfig,
    mut obs: Option<&mut dyn SoakObserver>,
) -> (SoakReport, Option<FlightRecorder>) {
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
        // Leases far longer than the soak: registration churn is the
        // churn benches' subject, not this one's.
        LeasePolicy {
            max_duration: SimDuration::from_secs(360_000),
            default_duration: SimDuration::from_secs(36_000),
        },
        SimDuration::from_secs(1),
    );

    // Six motes in three equivalence pairs: failover has somewhere to go.
    let groups = ["g-a", "g-a", "g-b", "g-b", "g-c", "g-c"];
    let mut motes = Vec::new();
    for (i, group) in groups.iter().enumerate() {
        let name = format!("S{i}");
        let mote = env.add_host(format!("{name}-mote"), HostKind::SensorMote);
        deploy_esp(
            &mut env,
            EspConfig {
                lease: SimDuration::from_secs(36_000),
                equivalence_group: Some((*group).into()),
                ..EspConfig::new(
                    mote,
                    name,
                    Box::new(ScriptedProbe::new(
                        vec![10.0 * (i + 1) as f64],
                        Unit::Celsius,
                    )),
                    lus,
                )
            },
        );
        motes.push(mote);
    }

    let retry_policy = RetryPolicy::transient();
    let mut q = CspConfig::new(lab, QUORUM_COMPOSITE, lus);
    q.lease = SimDuration::from_secs(36_000);
    q.degradation = DegradationPolicy::Quorum(4);
    q.retry = retry_policy;
    let q = deploy_csp(&mut env, q).expect("quorum composite");

    let mut k = CspConfig::new(lab, LKG_COMPOSITE, lus);
    k.lease = SimDuration::from_secs(36_000);
    k.degradation = DegradationPolicy::LastKnownGood {
        max_age: SimDuration::from_secs(3600),
    };
    k.retry = retry_policy;
    let k = deploy_csp(&mut env, k).expect("lkg composite");

    // Children join with their equivalence groups so a failed child can
    // fail over to its pair partner before degrading.
    for (handle, n) in [(q, 6usize), (k, 3usize)] {
        env.with_service(
            handle.service,
            |_e, sb: &mut sensorcer_exertion::ServicerBox| {
                let csp = sb
                    .downcast_mut::<sensorcer_core::csp::CompositeSensorProvider>()
                    .expect("composite");
                for (i, group) in groups.iter().enumerate().take(n) {
                    csp.add_service_grouped(&format!("S{i}"), Some((*group).to_string()))
                        .expect("grouped child");
                }
            },
        )
        .expect("composite reachable");
    }

    let accessor = sensorcer_exertion::ServiceAccessor::new(vec![lus]);
    let mut violations: Vec<String> = Vec::new();

    // Prime: one clean read per composite fills the last-known-good
    // caches before any fault lands.
    env.run_for(SimDuration::from_secs(1));
    for name in [QUORUM_COMPOSITE, LKG_COMPOSITE] {
        match observed_read(&mut env, client, &accessor, name, &mut obs) {
            Ok((r, d)) if r.good && !d.is_degraded() => {}
            Ok(_) => violations.push(format!("priming read of {name} was degraded")),
            Err(e) => violations.push(format!("priming read of {name} failed: {e}")),
        }
    }

    // The schedule is drawn from its own rng stream (independent of the
    // env's jitter draws) and fully materialised before installation.
    let mut rng = SimRng::new(cfg.seed ^ 0xC4A0_5EED);
    let start = env.now();
    let schedule = ChaosSchedule::generate(&mut rng, lab, &motes, start, &cfg.chaos);
    let injected = schedule.counts();
    let events = schedule.events.clone();
    let horizon_end = start + cfg.chaos.horizon;
    schedule.install(&mut env);

    let (mut rounds, mut reads_total, mut reads_ok, mut reads_failed, mut reads_degraded) =
        (0u64, 0u64, 0u64, 0u64, 0u64);

    // A round's invariant checks are only binding when no further fault
    // can land mid-read: a heal arriving inside the retry budget can
    // legitimately turn a "doomed" read into a clean one and vice versa.
    let quiet_guard = SimDuration::from_secs(45);

    while env.now() < horizon_end {
        rounds += 1;
        let t = env.now();
        let reachable = motes
            .iter()
            .filter(|&&m| env.topo.check_path(lab, m).is_ok())
            .count();
        let quiet = !events
            .iter()
            .any(|&(at, _)| at >= t && at <= t + quiet_guard);

        reads_total += 2;
        match observed_read(&mut env, client, &accessor, QUORUM_COMPOSITE, &mut obs) {
            Ok((r, d)) => {
                reads_ok += 1;
                if d.is_degraded() {
                    reads_degraded += 1;
                    if r.good {
                        violations.push(format!(
                            "t={t:?}: degraded quorum read not flagged suspect \
                             (substituted: {:?}, missing: {:?})",
                            d.substituted, d.missing
                        ));
                    }
                }
            }
            Err(e) => {
                reads_failed += 1;
                if quiet && reachable >= 4 {
                    violations.push(format!(
                        "t={t:?}: quorum satisfiable ({reachable}/6 reachable, no \
                         events pending) but read failed: {e}"
                    ));
                }
            }
        }
        match observed_read(&mut env, client, &accessor, LKG_COMPOSITE, &mut obs) {
            Ok((r, d)) => {
                reads_ok += 1;
                if d.is_degraded() {
                    reads_degraded += 1;
                    if r.good {
                        violations.push(format!(
                            "t={t:?}: degraded last-known-good read not flagged suspect"
                        ));
                    }
                }
            }
            Err(e) => {
                reads_failed += 1;
                // After priming, the LKG composite must answer every read:
                // its max_age dwarfs the whole chaos horizon.
                violations.push(format!("t={t:?}: last-known-good read failed: {e}"));
            }
        }
        if let Some(o) = obs.as_deref_mut() {
            o.on_round(&env);
        }
        env.run_for(cfg.read_period);
    }

    // Every fault is paired with an inverse before the quiesce tail — by
    // now the topology must be fully healed.
    for &m in &motes {
        if env.topo.check_path(lab, m).is_err() {
            violations.push(format!(
                "topology not clean after horizon: mote {m} unreachable"
            ));
        }
    }

    // Post-heal tail: reads must reconverge to all-clean.
    let mut reconverged = true;
    for _ in 0..cfg.tail_reads {
        env.run_for(cfg.read_period);
        for name in [QUORUM_COMPOSITE, LKG_COMPOSITE] {
            reads_total += 1;
            match observed_read(&mut env, client, &accessor, name, &mut obs) {
                Ok((r, d)) if r.good && !d.is_degraded() => reads_ok += 1,
                Ok(_) => {
                    reads_ok += 1;
                    reads_degraded += 1;
                    reconverged = false;
                }
                Err(e) => {
                    reads_failed += 1;
                    reconverged = false;
                    violations.push(format!("post-heal read of {name} failed: {e}"));
                }
            }
        }
        if let Some(o) = obs.as_deref_mut() {
            o.on_round(&env);
        }
    }
    if !reconverged {
        violations.push("post-heal reads did not reconverge to clean".into());
    }

    let recorder = env.disable_tracing();
    let report = SoakReport {
        seed: cfg.seed,
        rounds,
        reads_total,
        reads_ok,
        reads_failed,
        reads_degraded,
        injected,
        retry_attempts: env.metrics.get(retry::keys::RETRY_ATTEMPTS),
        failover_attempts: env.metrics.get(csp::keys::FAILOVER_ATTEMPTS),
        events_applied: env.metrics.get(chaos_keys::CHAOS_EVENTS),
        violations,
        reconverged,
    };
    (report, recorder)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_is_deterministic_per_seed() {
        let cfg = SoakConfig {
            chaos: ChaosConfig {
                horizon: SimDuration::from_secs(180),
                ..Default::default()
            },
            tail_reads: 5,
            ..SoakConfig::new(0xD00D)
        };
        let a = run_soak(&cfg);
        let b = run_soak(&cfg);
        assert_eq!(a, b, "same seed must reproduce the identical report");
    }

    #[test]
    fn short_soak_passes_and_actually_injects() {
        let cfg = SoakConfig {
            chaos: ChaosConfig {
                horizon: SimDuration::from_secs(180),
                ..Default::default()
            },
            tail_reads: 5,
            ..SoakConfig::new(7)
        };
        let r = run_soak(&cfg);
        assert!(r.passed(), "violations: {:#?}", r.violations);
        assert!(
            r.injected.total() > 0,
            "a soak without faults proves nothing"
        );
        assert!(
            r.events_applied >= r.injected.total(),
            "inverses also apply"
        );
        assert!(r.reads_total > 50);
        assert_eq!(r.reads_total, r.reads_ok + r.reads_failed);
    }
}
