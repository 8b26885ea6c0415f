//! Model oracle for the composite read.
//!
//! A composite fans one read out to its children and settles what came
//! back under its degradation policy (§V.A). Two halves hold it:
//!
//! * **the federation** — generated worlds (flat composites and trees of
//!   two to four levels under `Strict`, `Quorum(n)` and `LastKnownGood`,
//!   equivalence groups with one standby, breakers, retries, expressions;
//!   and diamonds, where two parents share one child composite) are read
//!   again and again, with crashes, partitions, heals and lapsing
//!   leases between reads. A naive reference written from the policy rules
//!   computes from ground truth — each probe's script, each host's up /
//!   crashed / partitioned state, each lease's expiry, each child's last
//!   clean reading — what every read must return: the value (through the
//!   tree-walking interpreter), unit, quality and degraded children, or the
//!   failure with its policy-level cause and the failing children's names;
//! * **the table** — [`settle`] against a table model, exhaustively: up to
//!   four children, each clean / suspect / failed × last good none / fresh
//!   / stale / exactly `max_age` old, under every policy, with and without
//!   an expression.
//!
//! Crashes in the middle of a read are not modelled: every fault lands
//! between two reads. Neither is breaker state: reads are [`GAP`] apart
//! and a default breaker half-opens again after 30 s, so the breakers the
//! worlds share never change an outcome here. The breaker gates are held
//! by `csp.rs`'s `breaker_open_*` unit tests.

#[path = "support/expr_interp.rs"]
mod interp;

use interp::{eval_script_with_budget, Scope};
use sensorcer_suite::core::csp::{settle, ChildOutcome, Fate, LastGood, Miss};
use sensorcer_suite::core::prelude::*;
use sensorcer_suite::exertion::prelude::*;
use sensorcer_suite::expr::{parse, Script, Text, Value, DEFAULT_STEP_BUDGET};
use sensorcer_suite::registry::ids::interfaces;
use sensorcer_suite::registry::lease::LeasePolicy;
use sensorcer_suite::registry::lus::{LookupService, LusHandle};
use sensorcer_suite::sensors::prelude::*;
use sensorcer_suite::sim::check::{run_cases, Gen};
use sensorcer_suite::sim::prelude::*;

/// Reads start this far apart. A read — retries, failovers and four levels
/// of nesting included — takes a small part of it, so every age and lease
/// expiry is decided by counting reads, with half a gap of margin.
const GAP: SimDuration = SimDuration::from_secs(600);
/// Reads of each generated world.
const READS: usize = 6;
/// Generated worlds per seed.
const WORLDS: u64 = 500;

// ---------------------------------------------------------------------
// Ground truth
// ---------------------------------------------------------------------

/// One scripted sample: a clean or suspect reading, or a dead transducer
/// (the provider answers the read with a failure).
#[derive(Clone, Copy, Debug)]
enum Sample {
    Good(f64),
    Suspect(f64),
    Dead,
}

/// A probe that plays its script, one entry per served read, cyclically.
struct Scripted {
    teds: ScriptedProbe,
    unit: Unit,
    script: Vec<Sample>,
    next: usize,
}

impl SensorProbe for Scripted {
    fn sample(&mut self, now: SimTime) -> Result<Measurement, ProbeError> {
        let sample = self.script[self.next % self.script.len()];
        self.next += 1;
        match sample {
            Sample::Good(v) => Ok(Measurement::good(v, self.unit, now)),
            Sample::Suspect(v) => Ok(Measurement {
                quality: Quality::Suspect,
                ..Measurement::good(v, self.unit, now)
            }),
            Sample::Dead => Err(ProbeError::BatteryDead),
        }
    }

    fn teds(&self) -> &Teds {
        self.teds.teds()
    }
}

struct Esp {
    name: String,
    host: HostId,
    /// Host of the composite that reads this sensor.
    hub: HostId,
    unit: Unit,
    script: Vec<Sample>,
    /// Reads served so far: the next one plays `script[served % len]`.
    served: usize,
    /// The last read its registration is live for (`None`: never lapses).
    lease_until: Option<usize>,
    crashed: bool,
    partitioned: bool,
}

#[derive(Clone, Copy, Debug)]
enum Node {
    Esp(usize),
    Csp(usize),
}

struct Slot {
    name: String,
    node: Node,
    /// An equivalent provider the composite may fall back to.
    standby: Option<usize>,
    /// Whether the composite holds a proxy from an earlier read: a proxy
    /// is reused until the wire fails, and only a fresh lookup needs a
    /// live lease.
    proxy: bool,
    /// The last clean reading: value, unit and the read it came from.
    last_good: Option<(f64, String, usize)>,
}

struct Csp {
    name: String,
    host: HostId,
    policy: DegradationPolicy,
    expression: Option<Script>,
    children: Vec<Slot>,
}

/// What a read must return.
#[derive(Debug)]
struct Reading {
    value: f64,
    unit: String,
    good: bool,
    substituted: Vec<String>,
    missing: Vec<String>,
}

/// Why a read must fail: its message names `cause` and every child in
/// `names`.
#[derive(Debug)]
struct Failure {
    cause: String,
    names: Vec<String>,
}

#[derive(Default)]
struct Model {
    esps: Vec<Esp>,
    /// `csps[0]` is the root.
    csps: Vec<Csp>,
}

type Fresh = Result<(f64, String, bool), ()>;

impl Model {
    fn up(&self, e: usize) -> bool {
        !self.esps[e].crashed && !self.esps[e].partitioned
    }

    fn registered(&self, e: usize, read: usize) -> bool {
        self.esps[e].lease_until.is_none_or(|last| read <= last)
    }

    fn serve(&mut self, e: usize) -> Fresh {
        let esp = &mut self.esps[e];
        let sample = esp.script[esp.served % esp.script.len()];
        esp.served += 1;
        let unit = esp.unit.symbol().to_string();
        match sample {
            Sample::Good(v) => Ok((v, unit, true)),
            Sample::Suspect(v) => Ok((v, unit, false)),
            Sample::Dead => Err(()),
        }
    }

    /// Child `i` of composite `c`: the named provider, then its standby.
    fn child(&mut self, c: usize, i: usize, read: usize) -> Fresh {
        let named = match self.csps[c].children[i].node {
            Node::Csp(inner) => self
                .read(inner, read)
                .map(|r| (r.value, r.unit, r.good))
                .map_err(drop),
            Node::Esp(e) => {
                let proxy = self.csps[c].children[i].proxy && self.up(e);
                let found = proxy || self.registered(e, read);
                self.csps[c].children[i].proxy = found && self.up(e);
                match found && self.up(e) {
                    true => self.serve(e),
                    false => Err(()),
                }
            }
        };
        match (named, self.csps[c].children[i].standby) {
            (Err(()), Some(s)) if self.registered(s, read) && self.up(s) => self.serve(s),
            (named, _) => named,
        }
    }

    fn read(&mut self, c: usize, read: usize) -> Result<Reading, Failure> {
        let outcomes: Vec<Fresh> = (0..self.csps[c].children.len())
            .map(|i| self.child(c, i, read))
            .collect();
        let csp = &mut self.csps[c];
        let names: Vec<String> = csp.children.iter().map(|s| s.name.clone()).collect();
        let kept: Vec<Option<(f64, String)>> = csp
            .children
            .iter()
            .map(|s| {
                let (v, unit, at) = s.last_good.clone()?;
                let age = read - at;
                match csp.policy {
                    DegradationPolicy::LastKnownGood { max_age } if GAP * age as u64 > max_age => {
                        None
                    }
                    _ => Some((v, unit)),
                }
            })
            .collect();
        let decided = decide(
            csp.policy,
            csp.expression.is_some(),
            &names,
            &outcomes,
            &kept,
        );
        for (slot, outcome) in csp.children.iter_mut().zip(&outcomes) {
            if let Ok((v, unit, true)) = outcome {
                slot.last_good = Some((*v, unit.clone(), read));
            }
        }
        let d = decided?;
        let value = match &csp.expression {
            Some(script) => {
                let mut scope: Scope = d
                    .readings
                    .iter()
                    .map(|&(i, v)| (variable_for(i), Value::Float(v)))
                    .collect();
                let fail = |cause: String| Failure {
                    cause,
                    names: Vec::new(),
                };
                match eval_script_with_budget(script, &mut scope, DEFAULT_STEP_BUDGET) {
                    Ok(v) => v
                        .as_f64()
                        .ok_or_else(|| fail("expression produced non-numeric value".into()))?,
                    Err(e) => return Err(fail(format!("expression error: {e}"))),
                }
            }
            None => d.readings.iter().map(|&(_, v)| v).sum::<f64>() / d.readings.len() as f64,
        };
        Ok(Reading {
            value,
            unit: d.unit,
            good: d.good,
            substituted: d.substituted.iter().map(|&i| names[i].clone()).collect(),
            missing: d.missing.iter().map(|&i| names[i].clone()).collect(),
        })
    }
}

/// What a policy makes of one read.
#[derive(Debug)]
struct Decided {
    /// Child position and value, in binding order.
    readings: Vec<(usize, f64)>,
    unit: String,
    good: bool,
    substituted: Vec<usize>,
    missing: Vec<usize>,
}

/// The policy rules, from the README: with no failed child the read is
/// clean exactly when every reading is. `Strict` fails on any failed
/// child. `Quorum(n)` needs `n` fresh readings — substitutes do not count
/// — and lends each failed child its last clean value, of any age, or
/// reports it missing. `LastKnownGood` lends each failed child a value no
/// older than `max_age` (`kept` holds only those) and fails on the first
/// child without one. A missing child fails a composite with an
/// expression; a read left with no reading fails. Fresh readings bind
/// first in child order, then substitutes; the unit is the first non-empty
/// one in that order.
fn decide(
    policy: DegradationPolicy,
    expression: bool,
    names: &[String],
    outcomes: &[Fresh],
    kept: &[Option<(f64, String)>],
) -> Result<Decided, Failure> {
    let failed: Vec<usize> = (0..outcomes.len())
        .filter(|&i| outcomes[i].is_err())
        .collect();
    let fresh: Vec<(usize, f64, String, bool)> = (outcomes.iter().enumerate())
        .filter_map(|(i, o)| {
            o.as_ref()
                .ok()
                .map(|(v, u, good)| (i, *v, u.clone(), *good))
        })
        .collect();
    let fail = |cause: String, who: &[usize]| Failure {
        cause,
        names: who.iter().map(|&i| names[i].clone()).collect(),
    };
    let mut substituted = Vec::new();
    let mut missing = Vec::new();
    if !failed.is_empty() {
        match policy {
            DegradationPolicy::Strict => {
                return Err(fail("component read failures".into(), &failed));
            }
            DegradationPolicy::Quorum(n) if fresh.len() < n => {
                let cause = format!(
                    "quorum not met: {} of {} children answered (need {n})",
                    fresh.len(),
                    outcomes.len()
                );
                return Err(fail(cause, &failed));
            }
            DegradationPolicy::Quorum(_) => {
                for &i in &failed {
                    match kept[i] {
                        Some(_) => substituted.push(i),
                        None => missing.push(i),
                    }
                }
            }
            DegradationPolicy::LastKnownGood { .. } => {
                for &i in &failed {
                    if kept[i].is_none() {
                        let cause = "failed child has no recent last-known-good value";
                        return Err(fail(cause.into(), &[i]));
                    }
                    substituted.push(i);
                }
            }
        }
    }
    if expression && !missing.is_empty() {
        let cause = "degraded read cannot bind expression variables for missing children";
        return Err(fail(cause.into(), &missing));
    }
    if fresh.is_empty() && substituted.is_empty() {
        return Err(fail("no child left a reading to aggregate".into(), &failed));
    }
    let lent = substituted.iter().map(|&i| {
        let (v, unit) = kept[i].clone().expect("a substitute has a kept value");
        (i, v, unit)
    });
    let bound: Vec<(usize, f64, String)> = (fresh.iter().map(|(i, v, u, _)| (*i, *v, u.clone())))
        .chain(lent)
        .collect();
    Ok(Decided {
        readings: bound.iter().map(|(i, v, _)| (*i, *v)).collect(),
        unit: (bound.iter().map(|(_, _, u)| u.clone()))
            .find(|u| !u.is_empty())
            .unwrap_or_default(),
        good: failed.is_empty() && fresh.iter().all(|(_, _, _, good)| *good),
        substituted,
        missing,
    })
}

// ---------------------------------------------------------------------
// Generated worlds
// ---------------------------------------------------------------------

struct World {
    env: Env,
    client: HostId,
    accessor: ServiceAccessor,
    model: Model,
}

/// What every composite of a world shares.
struct Build<'g> {
    g: &'g mut Gen,
    env: Env,
    lus: LusHandle,
    breakers: Option<SharedBreakers>,
    model: Model,
    /// In a diamond world, the level of the shared composite and, once
    /// built, its position: the root composes at least two composites,
    /// and every parent one level above the shared one composes it.
    diamond: Option<(usize, Option<usize>)>,
}

impl Build<'_> {
    /// A sensor under `hub`, registered under `group` when given.
    fn esp(&mut self, hub: HostId, group: Option<String>) -> usize {
        let g = &mut *self.g;
        let name = format!("E{:03}", self.model.esps.len());
        let host = self
            .env
            .add_host(format!("{name}-mote"), HostKind::SensorMote);
        let unit = *g.pick(&[Unit::Celsius, Unit::Lux, Unit::Dimensionless]);
        let script = g.vec_of(1, 5, |g| {
            let v = g.u64_in(0, 400) as f64 / 4.0 - 20.0;
            match g.u64_in(0, 10) {
                0 => Sample::Dead,
                1 => Sample::Suspect(v),
                _ => Sample::Good(v),
            }
        });
        let lease_until = g.chance(0.2).then(|| g.usize_in(0, READS));
        let lease = match lease_until {
            Some(last) => GAP * last as u64 + GAP / 2,
            None => GAP * 1_000,
        };
        let probe = Scripted {
            teds: ScriptedProbe::new(vec![0.0], unit),
            unit,
            script: script.clone(),
            next: 0,
        };
        deploy_esp(
            &mut self.env,
            EspConfig {
                lease,
                equivalence_group: group,
                ..EspConfig::new(host, name.clone(), Box::new(probe), self.lus)
            },
        );
        self.model.esps.push(Esp {
            name,
            host,
            hub,
            unit,
            script,
            served: 0,
            lease_until,
            crashed: false,
            partitioned: false,
        });
        self.model.esps.len() - 1
    }

    /// A composite with `levels` levels of composites under and including
    /// it; returns its position in `model.csps`.
    fn csp(&mut self, levels: usize) -> usize {
        let c = self.model.csps.len();
        let name = if c == 0 {
            "Root".to_string()
        } else {
            format!("C{c:03}")
        };
        let host = self.env.add_host(format!("{name}-hub"), HostKind::Server);
        self.model.csps.push(Csp {
            name: name.clone(),
            host,
            policy: DegradationPolicy::Strict,
            expression: None,
            children: Vec::new(),
        });
        let width = self.g.usize_in(1, 5);
        let forked = c == 0 && self.diamond.is_some();
        let width = if forked { width.max(2) } else { width };
        let mut children: Vec<Slot> = Vec::new();
        for i in 0..width {
            let slot = if levels > 1 && (i == 0 || (forked && i == 1) || self.g.chance(0.25)) {
                let inner = self.inner(levels - 1, &children);
                Slot {
                    name: self.model.csps[inner].name.clone(),
                    node: Node::Csp(inner),
                    standby: None,
                    proxy: false,
                    last_good: None,
                }
            } else {
                let primary = format!("E{:03}", self.model.esps.len());
                let group = self.g.chance(0.3).then(|| group_of(&primary));
                let e = self.esp(host, group.clone());
                let standby = group.map(|group| self.esp(host, Some(group)));
                Slot {
                    name: self.model.esps[e].name.clone(),
                    node: Node::Esp(e),
                    standby,
                    proxy: false,
                    last_good: None,
                }
            };
            children.push(slot);
        }
        let g = &mut *self.g;
        let policy = match g.u64_in(0, 3) {
            0 => DegradationPolicy::Strict,
            1 => DegradationPolicy::Quorum(g.usize_in(0, width + 2)),
            _ => DegradationPolicy::LastKnownGood {
                max_age: GAP * g.u64_in(0, 4) + GAP / 2,
            },
        };
        let source = g.chance(0.4).then(|| expression(g, width));
        let mut cfg = CspConfig::new(host, name, self.lus);
        cfg.lease = GAP * 1_000;
        cfg.degradation = policy;
        cfg.breakers = self.breakers.clone();
        if g.chance(0.3) {
            cfg.retry = RetryPolicy::transient();
        }
        let handle = deploy_csp(&mut self.env, cfg).expect("generated composite deploys");
        // Compose through the provider itself: `CspConfig` cannot give a
        // child its equivalence group.
        let composed: Vec<(String, Option<String>)> = (children.iter())
            .map(|s| (s.name.clone(), s.standby.map(|_| group_of(&s.name))))
            .collect();
        self.env
            .with_service(handle.service, |_env, sb: &mut ServicerBox| {
                let csp = sb
                    .downcast_mut::<CompositeSensorProvider>()
                    .expect("a composite");
                for (name, group) in composed {
                    csp.add_service_grouped(&name, group).expect("fresh child");
                }
                if let Some(source) = &source {
                    csp.set_expression(source)
                        .expect("generated expressions bind");
                }
            })
            .expect("composite deployed");
        let csp = &mut self.model.csps[c];
        csp.policy = policy;
        csp.expression = source.map(|s| parse(&s).expect("generated expressions parse"));
        csp.children = children;
        c
    }

    /// A composite of `levels` levels for a parent that composes
    /// `siblings`: in a diamond world, the shared one at its level unless
    /// the parent has it already; otherwise a fresh one.
    fn inner(&mut self, levels: usize, siblings: &[Slot]) -> usize {
        let composed = |c: usize| {
            siblings
                .iter()
                .any(|s| matches!(s.node, Node::Csp(x) if x == c))
        };
        match self.diamond {
            Some((at, Some(shared))) if at == levels && !composed(shared) => shared,
            Some((at, None)) if at == levels => {
                let shared = self.csp(levels);
                self.diamond = Some((at, Some(shared)));
                shared
            }
            _ => self.csp(levels),
        }
    }
}

/// The equivalence group of a grouped sensor's slot.
fn group_of(primary: &str) -> String {
    format!("group-of-{primary}")
}

/// An expression over `a`, `b`, … for `width` children: the paper's
/// average, an extreme, a weighted difference, or one that reads only `a`.
fn expression(g: &mut Gen, width: usize) -> String {
    let vars: Vec<String> = (0..width).map(variable_for).collect();
    match g.u64_in(0, 5) {
        0 => format!("({})/{width}", vars.join(" + ")),
        1 => format!("max({})", vars.join(", ")),
        2 => format!("min({})", vars.join(", ")),
        3 => format!("a * 2 - {}", vars[width - 1]),
        _ => "a + 0.5".to_string(),
    }
}

fn gen_world(g: &mut Gen) -> World {
    build_world(g, false).0
}

/// A world of three or four levels whose root composes two or more
/// composites, each composing one shared composite two levels below the
/// root. Returns the world and the shared composite's position.
fn gen_diamond(g: &mut Gen) -> (World, usize) {
    let (w, shared) = build_world(g, true);
    (w, shared.expect("a diamond world has a shared composite"))
}

fn build_world(g: &mut Gen, diamond: bool) -> (World, Option<usize>) {
    let mut env = Env::with_seed(g.u64());
    let server = env.add_host("lus", HostKind::Server);
    let client = env.add_host("client", HostKind::Workstation);
    let policy = LeasePolicy {
        max_duration: GAP * 10_000,
        default_duration: SimDuration::from_secs(30),
    };
    let lus = LookupService::deploy(
        &mut env,
        server,
        "LUS",
        "public",
        policy,
        SimDuration::from_secs(10),
    );
    let breakers = g
        .chance(0.3)
        .then(|| shared_breakers(BreakerConfig::default()));
    let levels = if diamond {
        g.usize_in(3, 5)
    } else {
        g.usize_in(1, 5)
    };
    let mut build = Build {
        g,
        env,
        lus,
        breakers,
        model: Model::default(),
        diamond: diamond.then(|| (levels - 2, None)),
    };
    build.csp(levels);
    let world = World {
        env: build.env,
        client,
        accessor: ServiceAccessor::new(vec![lus]),
        model: build.model,
    };
    (world, build.diamond.and_then(|(_, shared)| shared))
}

/// Faults between two reads: crash a sensor (for good), cut it off from
/// its composite, or heal such a cut.
fn chaos(g: &mut Gen, w: &mut World) {
    for _ in 0..g.usize_in(0, 3) {
        let e = g.usize_in(0, w.model.esps.len());
        let esp = &mut w.model.esps[e];
        match g.u64_in(0, 4) {
            0 => {
                w.env.crash_host(esp.host);
                esp.crashed = true;
            }
            1 | 2 => {
                w.env.topo.partition(esp.host, esp.hub);
                esp.partitioned = true;
            }
            _ => {
                w.env.topo.heal(esp.host, esp.hub);
                esp.partitioned = false;
            }
        }
    }
}

/// How often each path of the reference was taken, summed over worlds.
#[derive(Default, Debug)]
struct Seen {
    reads: usize,
    clean: usize,
    suspect: usize,
    substituted: usize,
    missing: usize,
    failures: std::collections::BTreeMap<String, usize>,
}

fn check(
    want: Result<Reading, Failure>,
    got: Result<(SensorReading, DegradedInfo), String>,
    seen: &mut Seen,
) {
    seen.reads += 1;
    match (want, got) {
        (Ok(want), Ok((r, d))) => {
            assert!(
                want.value.to_bits() == r.value.to_bits()
                    || (want.value.is_nan() && r.value.is_nan()),
                "value: want {want:?}, got {r:?}"
            );
            assert_eq!(want.unit, r.unit.as_str(), "unit: want {want:?}, got {r:?}");
            assert_eq!(want.good, r.good, "quality: want {want:?}, got {r:?}");
            assert_eq!(
                want.substituted, d.substituted,
                "substituted: want {want:?}"
            );
            assert_eq!(want.missing, d.missing, "missing: want {want:?}");
            match want.good {
                true => seen.clean += 1,
                false => seen.suspect += 1,
            }
            seen.substituted += want.substituted.len();
            seen.missing += want.missing.len();
        }
        (Err(want), Err(msg)) => {
            assert!(msg.contains(&want.cause), "cause: want {want:?}, got {msg}");
            for name in &want.names {
                assert!(
                    msg.contains(name.as_str()),
                    "{name} not named: want {want:?}, got {msg}"
                );
            }
            let cause = want.cause.split(':').next().unwrap_or_default().to_string();
            *seen.failures.entry(cause).or_default() += 1;
        }
        (want, got) => panic!("want {want:?}, got {got:?}"),
    }
}

fn federation(name: &str) {
    let mut seen = Seen::default();
    run_cases(name, WORLDS, |g| {
        let mut w = gen_world(g);
        for read in 0..READS {
            w.env.run_until(SimTime::ZERO + GAP * read as u64);
            let want = w.model.read(0, read);
            let got = client::get_value_detailed(&mut w.env, w.client, &w.accessor, "Root");
            check(want, got, &mut seen);
            chaos(g, &mut w);
        }
        // An unreachable task keeps its own name.
        let root = w.model.csps[0].host;
        w.env.topo.partition(w.client, root);
        let task = Task::new(
            "read Root",
            Signature::new(interfaces::SENSOR_DATA_ACCESSOR, selectors::GET_VALUE).on("Root"),
            Context::new(),
        );
        let done = exert(&mut w.env, w.client, task.into(), &w.accessor);
        assert_eq!(done.name(), "read Root");
        assert!(
            matches!(done.status(), ExertionStatus::Failed(_)),
            "{done:?}"
        );
    });
    covered(&seen);
}

/// Every path the reference knows was taken, many times over.
fn covered(seen: &Seen) {
    assert!(seen.clean > 300 && seen.suspect > 300, "{seen:?}");
    assert!(seen.substituted > 100 && seen.missing > 20, "{seen:?}");
    for cause in [
        "component read failures",
        "quorum not met",
        "failed child has no recent last-known-good value",
        "degraded read cannot bind expression variables for missing children",
        "no child left a reading to aggregate",
    ] {
        assert!(
            seen.failures.get(cause).is_some_and(|&n| n >= 5),
            "{cause}: {seen:?}"
        );
    }
}

#[test]
fn federated_reads_match_the_reference() {
    federation("federated_reads_match_the_reference");
}

#[test]
fn federated_reads_match_the_reference_on_a_second_seed() {
    federation("federated_reads_match_the_reference_on_a_second_seed");
}

/// Diamond worlds: every read of the root reads the shared composite
/// through each of its parents, and a direct read of it follows. Its
/// cached breadcrumb changes with the path every time, and the nested
/// reads share per-depth scratch with their siblings.
#[test]
fn diamond_reads_match_the_reference() {
    let mut seen = Seen::default();
    run_cases("diamond_reads_match_the_reference", 300, |g| {
        let (mut w, shared) = gen_diamond(g);
        let name = w.model.csps[shared].name.clone();
        for read in 0..READS {
            w.env.run_until(SimTime::ZERO + GAP * read as u64);
            for (c, via) in [(0, "Root"), (shared, name.as_str())] {
                let want = w.model.read(c, read);
                let got = client::get_value_detailed(&mut w.env, w.client, &w.accessor, via);
                check(want, got, &mut seen);
            }
            chaos(g, &mut w);
        }
    });
    covered(&seen);
}

// ---------------------------------------------------------------------
// The table
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Read {
    Clean,
    Suspect,
    Failed,
}

#[derive(Clone, Copy, Debug)]
enum Kept {
    None,
    Fresh,
    Stale,
    AtMaxAge,
}

const MAX_AGE: SimDuration = SimDuration::from_secs(10);

/// One row: `settle` against [`decide`] for these children.
fn table_row(policy: DegradationPolicy, expression: bool, cells: &[(Read, Kept)]) {
    let now = SimTime::ZERO + SimDuration::from_secs(1_000);
    let children: Vec<Child> = (0..cells.len())
        .map(|i| Child {
            var: variable_for(i),
            service_name: format!("C{i}"),
            group: None,
        })
        .collect();
    let unit = |i: usize, tag: &str| match i % 2 {
        0 => Text::Static(""),
        _ => Text::from(format!("{tag}{i}")),
    };
    let outcomes: Vec<ChildOutcome> = (cells.iter().enumerate())
        .map(|(i, (read, _))| match read {
            Read::Clean => Ok((i as f64 + 1.0, unit(i + 1, "u"), true)),
            Read::Suspect => Ok((i as f64 + 0.5, unit(i + 1, "u"), false)),
            Read::Failed => Err(Miss::NotFound.into()),
        })
        .collect();
    let last_good: Vec<Option<LastGood>> = (cells.iter().enumerate())
        .map(|(i, (_, kept))| {
            let age = match kept {
                Kept::None => return None,
                Kept::Fresh => SimDuration::from_secs(1),
                Kept::Stale => MAX_AGE + SimDuration::from_nanos(1),
                Kept::AtMaxAge => MAX_AGE,
            };
            Some(LastGood {
                value: 100.0 + i as f64,
                unit: unit(i, "lg"),
                at: now - age,
            })
        })
        .collect();

    let fresh: Vec<Fresh> = (outcomes.iter())
        .map(|o| {
            o.as_ref()
                .map(|(v, u, good)| (*v, u.to_string(), *good))
                .map_err(drop)
        })
        .collect();
    let kept: Vec<Option<(f64, String)>> = (last_good.iter())
        .map(|lg| {
            let lg = lg.as_ref()?;
            let recent = match policy {
                DegradationPolicy::LastKnownGood { max_age } => now - lg.at <= max_age,
                _ => true,
            };
            recent.then(|| (lg.value, lg.unit.to_string()))
        })
        .collect();
    let names: Vec<String> = children.iter().map(|c| c.service_name.clone()).collect();
    let want = decide(policy, expression, &names, &fresh, &kept);
    // The fates the parent reports, in child order — those decided before
    // a failing verdict included: none when the policy fails outright,
    // every failed child's under a met quorum, and under last-known-good
    // the substitutes before the first child without a recent value.
    let failed = (0..cells.len()).filter(|&i| outcomes[i].is_err());
    let substitute = |i: usize| {
        let lg = last_good[i].as_ref()?;
        kept[i].as_ref()?;
        Some((
            i,
            Fate::Substituted {
                value: lg.value,
                age: now - lg.at,
            },
        ))
    };
    let answered = outcomes.len() - failed.clone().count();
    let fates: Vec<(usize, Fate)> = match policy {
        DegradationPolicy::Strict => Vec::new(),
        DegradationPolicy::Quorum(n) if answered < n => Vec::new(),
        DegradationPolicy::Quorum(_) => failed
            .map(|i| substitute(i).unwrap_or((i, Fate::Missing)))
            .collect(),
        DegradationPolicy::LastKnownGood { .. } => failed.map_while(substitute).collect(),
    };
    let got = settle(policy, expression, &children, &outcomes, &last_good, now);
    let row = format!("{policy:?} expression={expression} {cells:?}: got {got:?}");
    assert_eq!(got.fates, fates, "{row}");

    match want {
        Ok(want) => {
            assert_eq!(got.verdict, Ok(want.good), "{row}");
            let readings: Vec<(usize, f64)> = got.readings(&outcomes).collect();
            assert_eq!(readings, want.readings, "{row}");
            assert_eq!(got.unit.as_str(), want.unit, "{row}");
        }
        Err(want) => {
            let msg = got.verdict.as_ref().expect_err(&row);
            assert!(msg.contains(&want.cause), "{row}");
            for name in &want.names {
                assert!(msg.contains(name.as_str()), "{name}: {row}");
            }
        }
    }
}

/// Every table of up to four children under every policy, with and
/// without an expression.
#[test]
fn settle_matches_the_table_model() {
    let reads = [Read::Clean, Read::Suspect, Read::Failed];
    let kept = [Kept::None, Kept::Fresh, Kept::Stale, Kept::AtMaxAge];
    let cells: Vec<(Read, Kept)> = reads
        .iter()
        .flat_map(|&r| kept.iter().map(move |&k| (r, k)))
        .collect();
    let mut rows = 0usize;
    for n in 1..=4usize {
        let policies: Vec<DegradationPolicy> = [DegradationPolicy::Strict]
            .into_iter()
            .chain((0..=n + 1).map(DegradationPolicy::Quorum))
            .chain([DegradationPolicy::LastKnownGood { max_age: MAX_AGE }])
            .collect();
        for code in 0..cells.len().pow(n as u32) {
            let row: Vec<(Read, Kept)> = (0..n)
                .map(|i| cells[code / cells.len().pow(i as u32) % cells.len()])
                .collect();
            for &policy in &policies {
                for expression in [false, true] {
                    table_row(policy, expression, &row);
                    rows += 1;
                }
            }
        }
    }
    assert_eq!(rows, 2 * (12 * 5 + 144 * 6 + 1_728 * 7 + 20_736 * 8));
}

/// The rules the README states, pinned row by row.
#[test]
fn settle_pins_the_policy_rules() {
    use DegradationPolicy::{LastKnownGood, Quorum};
    let now = SimTime::ZERO + SimDuration::from_secs(1_000);
    let children: Vec<Child> = ["A", "B"]
        .iter()
        .enumerate()
        .map(|(i, name)| Child {
            var: variable_for(i),
            service_name: (*name).into(),
            group: None,
        })
        .collect();
    let clean: ChildOutcome = Ok((1.0, Text::Static("°C"), true));
    // Rendered for its child, the failure names it: `'B': no provider found`.
    let down: ChildOutcome = Err(Miss::NotFound.into());
    let kept = |age: SimDuration| LastGood {
        value: 7.0,
        unit: Text::Static("°C"),
        at: now - age,
    };
    let outcomes = [clean.clone(), down.clone()];

    // `max_age` is inclusive: a value exactly that old still stands in.
    let lkg = LastKnownGood { max_age: MAX_AGE };
    let settled = settle(
        lkg,
        false,
        &children,
        &outcomes,
        &[None, Some(kept(MAX_AGE))],
        now,
    );
    assert_eq!(settled.verdict, Ok(false));
    let lent = Fate::Substituted {
        value: 7.0,
        age: MAX_AGE,
    };
    assert_eq!(settled.fates, vec![(1, lent)]);
    assert_eq!(
        settled.readings(&outcomes).collect::<Vec<_>>(),
        [(0, 1.0), (1, 7.0)]
    );

    // `Quorum(n)` counts fresh readings only: a substitute does not make
    // up the second one.
    let b_kept = [None, Some(kept(SimDuration::from_secs(1)))];
    let settled = settle(Quorum(2), false, &children, &outcomes, &b_kept, now);
    let msg = settled
        .verdict
        .expect_err("one fresh reading of two needed");
    assert!(
        msg.contains("quorum not met: 1 of 2") && msg.contains("'B'"),
        "{msg}"
    );

    // A missing child fails a composite with an expression, after its fate
    // is reported.
    let settled = settle(Quorum(1), true, &children, &outcomes, &[None, None], now);
    let msg = settled.verdict.expect_err("b cannot be bound");
    assert!(msg.contains("missing children: B"), "{msg}");
    assert_eq!(settled.fates, vec![(1, Fate::Missing)]);

    // `Quorum(0)` with nothing left fails instead of averaging nothing
    // into NaN.
    let outcomes = [down.clone(), down];
    let settled = settle(Quorum(0), false, &children, &outcomes, &[None, None], now);
    let msg = settled.verdict.expect_err("no reading, no value");
    assert!(
        msg.contains("no child left a reading") && msg.contains("'A'"),
        "{msg}"
    );
    assert_eq!(settled.fates, vec![(0, Fate::Missing), (1, Fate::Missing)]);
}
