//! Differential oracle for the lent FMI hop.
//!
//! `exert_in_place` lends the caller's exertion to the provider and the
//! retry loop re-arms that same exertion before a repeated attempt; a
//! composite keeps one request in flight and re-arms it for every child
//! hop. What that must never change is what the old shipped form did by
//! construction: every attempt and every child saw a *fresh copy* of the
//! request. Two halves:
//!
//! * **the hop** — generated tasks, jobs and contexts go through a
//!   reference written here the old way (`request.clone()` per attempt, a
//!   plain loop over `exert_on`) and through the production entry points,
//!   lent and by value, in twin worlds of one seed: same reply, status,
//!   trace, clock, provider runs and every counter (`net.bytes.wire`,
//!   retries) — clean, across a scheduled partition, and when the
//!   *response* is lost after the provider ran;
//! * **the composite** — spy children keep every request exactly as it
//!   arrived, and each must equal a freshly built one whatever the hop
//!   before it left behind: a reply, a failure, another child's pin, a
//!   lost response, a re-composition, a failover.
//!
//! The composite's `arm` is private, so the three slips the lent form
//! makes possible (no re-arm between attempts, no `Context::clear()`
//! between children, the previous child's pin kept) are seeded in a mirror
//! of its fan-out built from the same public pieces. Unmutated, the mirror
//! passes every check the real composite passes; each mutant must fail.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use sensorcer_suite::core::csp::EQUIVALENCE_GROUP_KEY;
use sensorcer_suite::core::prelude::*;
use sensorcer_suite::exertion::prelude::*;
use sensorcer_suite::exertion::retry::keys;
use sensorcer_suite::expr::Value;
use sensorcer_suite::registry::attributes::{AttrMatch, Entry};
use sensorcer_suite::registry::ids::{interfaces, SvcUuid};
use sensorcer_suite::registry::item::ServiceItem;
use sensorcer_suite::registry::lease::LeasePolicy;
use sensorcer_suite::registry::lus::{LookupService, LusHandle};
use sensorcer_suite::registry::txn::TxnId;
use sensorcer_suite::sim::check::{run_cases, Gen};
use sensorcer_suite::sim::prelude::*;
use sensorcer_suite::sim::topology::LinkModel;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Mutation {
    None,
    /// The retry loop sends the exertion again as the last attempt left it.
    SkipRearm,
    /// `arm` keeps the context the last hop left.
    SkipClear,
    /// `arm` keeps the pin of the child it served before.
    KeepPin,
}

/// Every packet on the link is lost until a timer a millisecond later
/// clears the override: the reply under way is lost, the next attempt (the
/// timer fires inside its backoff wait) gets through.
fn lose_the_reply(env: &mut Env, a: HostId, b: HostId) {
    let dead = LinkModel {
        loss: 1.0,
        ..LinkModel::lan()
    };
    env.topo.set_link(a, b, dead);
    env.schedule(SimDuration::from_millis(1), move |env| {
        env.topo.clear_link(a, b)
    });
}

// ---------------------------------------------------------------------
// The hop
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug)]
enum Weather {
    Clean,
    /// Client and provider partitioned from the start, healed by a timer.
    Partition {
        heal_after: SimDuration,
    },
    /// The provider's first `n` replies are lost after it ran.
    ResponseLoss(u32),
}

struct HopWorld {
    env: Env,
    client: HostId,
    svc: ServiceId,
    runs: Rc<Cell<u32>>,
}

/// One provider whose reply depends on everything it was sent: it counts
/// the entries it received, doubles `arg/x`, consumes `arg/once` and fails
/// on `arg/fail` — so a request that was not re-armed answers differently.
fn hop_world(seed: u64, weather: Weather) -> HopWorld {
    let mut env = Env::with_seed(seed);
    let host = env.add_host("h", HostKind::Server);
    let client = env.add_host("c", HostKind::Workstation);
    let runs = Rc::new(Cell::new(0));
    let lost_replies = match weather {
        Weather::ResponseLoss(n) => n,
        _ => 0,
    };
    let tasker = Tasker::new("Echo", "Oracle").on("run", {
        let runs = Rc::clone(&runs);
        move |env, ctx| {
            runs.set(runs.get() + 1);
            ctx.put("echo/entries", ctx.len() as i64);
            if let Some(x) = ctx.get_f64("arg/x") {
                ctx.put(paths::RESULT, 2.0 * x);
            }
            ctx.remove("arg/once");
            if runs.get() <= lost_replies {
                lose_the_reply(env, client, host);
            }
            match ctx.contains("arg/fail") {
                true => Err("asked to fail".into()),
                false => Ok(()),
            }
        }
    });
    let svc = env.deploy(host, "Echo", ServicerBox::new(tasker));
    if let Weather::Partition { heal_after } = weather {
        env.topo.partition(client, host);
        env.schedule(heal_after, move |env| env.topo.heal(client, host));
    }
    HopWorld {
        env,
        client,
        svc,
        runs,
    }
}

fn gen_value(g: &mut Gen) -> Value {
    match g.u64_in(0, 5) {
        0 => Value::Bool(g.bool()),
        1 => Value::Int(g.i64_in(-5, 5)),
        2 => Value::Float(g.u64_in(0, 100) as f64 / 4.0),
        3 => Value::Str(g.ascii_string(12).into()),
        _ => Value::List(g.vec_of(0, 4, |g| Value::Int(g.i64_in(0, 9))).into()),
    }
}

fn gen_task(g: &mut Gen) -> Task {
    const PATHS: [&str; 7] = [
        "arg/x",
        "arg/once",
        "a",
        "a/b",
        "echo/entries",
        paths::RESULT,
        paths::ERROR,
    ];
    let mut signature = Signature::new("Oracle", if g.chance(0.9) { "run" } else { "nope" });
    if g.bool() {
        signature = signature.on("Echo");
    }
    let mut context = Context::new();
    for _ in 0..g.usize_in(0, 6) {
        context.put(*g.pick(&PATHS), gen_value(g));
    }
    if g.chance(0.1) {
        context.put("arg/fail", true);
    }
    Task::new(g.alpha_string(1, 8), signature, context)
}

fn gen_request(g: &mut Gen) -> Exertion {
    if g.chance(0.85) {
        return gen_task(g).into();
    }
    // A tasker refuses jobs: the refusal has to come back the same way.
    let mut job = Job::new(g.alpha_string(1, 8), ControlStrategy::sequence());
    for _ in 0..g.usize_in(0, 3) {
        job = job.with(gen_task(g));
    }
    job.into()
}

fn gen_policy(g: &mut Gen) -> RetryPolicy {
    match g.u64_in(0, 3) {
        0 => RetryPolicy::none(),
        1 => RetryPolicy::transient(),
        _ => RetryPolicy {
            attempts: g.u64_in(2, 6) as u32,
            backoff: SimDuration::from_millis(g.u64_in(10, 200)),
            deadline: SimDuration::from_secs(g.u64_in(1, 12)),
        },
    }
}

fn gen_weather(g: &mut Gen) -> Weather {
    match g.u64_in(0, 3) {
        0 => Weather::Clean,
        1 => Weather::Partition {
            heal_after: SimDuration::from_millis(g.u64_in(50, 5_000)),
        },
        _ => Weather::ResponseLoss(g.u64_in(1, 4) as u32),
    }
}

/// The shipped hop as it was before exertions were lent: every attempt
/// sends a fresh copy of the request and the reply is a value of its own.
/// Budget arithmetic and counters as `retry.rs` documents them.
fn shipped(
    w: &mut HopWorld,
    request: &Exertion,
    policy: &RetryPolicy,
) -> Result<Exertion, NetError> {
    let (env, from, provider) = (&mut w.env, w.client, w.svc);
    let start = env.now();
    let mut attempt = 0u32;
    let bump = |env: &mut Env, key: &str| {
        let host = env.service_host(provider).unwrap_or(from);
        env.metrics.add_host(host, key, 1);
        env.metrics.add_labeled(key, "Echo", 1);
    };
    loop {
        let e = match exert_on(env, from, provider, request.clone(), None) {
            Ok(done) => {
                if attempt > 0 {
                    bump(env, keys::RETRY_SUCCESS);
                }
                return Ok(done);
            }
            Err(e) if policy.is_none() || !RetryPolicy::retryable(e) => return Err(e),
            Err(e) => e,
        };
        attempt += 1;
        let spent = env.now() - start;
        let backoff = policy.backoff * 2u64.pow(attempt - 1);
        if attempt >= policy.attempts || spent >= policy.deadline {
            bump(env, keys::RETRY_EXHAUSTED);
            return Err(e);
        }
        if policy.deadline.saturating_sub(spent) < backoff {
            bump(env, keys::RETRY_EXHAUSTED);
            return Err(NetError::DeadlineExhausted);
        }
        bump(env, keys::RETRY_ATTEMPTS);
        env.run_for(backoff);
    }
}

/// Everything a caller or an operator can observe of one dispatch.
#[derive(Debug, PartialEq)]
struct Observed {
    reply: Result<Exertion, NetError>,
    now: SimTime,
    provider_runs: u32,
    counters: Vec<(String, u64)>,
}

fn observe(w: HopWorld, reply: Result<Exertion, NetError>) -> Observed {
    Observed {
        reply,
        now: w.env.now(),
        provider_runs: w.runs.get(),
        counters: w
            .env
            .metrics
            .counters()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    }
}

/// One generated dispatch, three ways in three worlds of one seed. `Ok`
/// says whether the dispatch got its reply only by sending again after
/// the provider had run — the case the re-arm exists for.
fn hop_case(g: &mut Gen, mutation: Mutation) -> Result<bool, String> {
    let (seed, weather, policy, request) = (g.u64(), gen_weather(g), gen_policy(g), gen_request(g));

    let mut w = hop_world(seed, weather);
    let reply = shipped(&mut w, &request, &policy);
    let reference = observe(w, reply);

    let mut w = hop_world(seed, weather);
    let mut lent = request.clone();
    let sent = match mutation {
        Mutation::SkipRearm => exert_in_place_rearmed(
            &mut w.env,
            w.client,
            w.svc,
            &mut lent,
            None,
            &policy,
            |_| {},
        ),
        _ => exert_in_place_retry(&mut w.env, w.client, w.svc, &mut lent, None, &policy),
    };
    let in_place = observe(w, sent.map(|()| lent));

    let mut w = hop_world(seed, weather);
    let reply = match policy.is_none() {
        true => exert_on(&mut w.env, w.client, w.svc, request.clone(), None),
        false => exert_on_retry(&mut w.env, w.client, w.svc, request.clone(), None, &policy),
    };
    let by_value = observe(w, reply);

    for (what, got) in [("lent", in_place), ("by value", by_value)] {
        if got != reference {
            return Err(format!(
                "{what} differs under {weather:?} / {policy:?}:\n got {got:?}\nwant {reference:?}"
            ));
        }
    }
    Ok(reference.reply.is_ok() && reference.provider_runs > 1)
}

#[test]
fn a_lent_exertion_comes_back_as_the_shipped_copy_did() {
    let mut retried = 0;
    run_cases("lent_equals_shipped", 400, |g| {
        retried += u32::from(hop_case(g, Mutation::None).unwrap());
    });
    // The generator does reach the case the re-arm exists for.
    assert!(
        retried >= 20,
        "only {retried} replies were lost and retried"
    );
}

#[test]
fn skipping_the_rearm_between_attempts_is_caught() {
    let mut caught = 0;
    run_cases("lent_equals_shipped", 400, |g| {
        caught += u32::from(hop_case(g, Mutation::SkipRearm).is_err());
    });
    assert!(
        caught >= 20,
        "only {caught} cases noticed the missing re-arm"
    );
}

// ---------------------------------------------------------------------
// The composite
// ---------------------------------------------------------------------

const VISITED: &str = "composite/visited";
const HUB: &str = "Hub";

#[derive(Clone, Copy)]
enum Reply {
    Value(f64),
    /// What an ESP with an exhausted battery answers.
    Dead,
    /// `Done`, and nothing in the context.
    Silent,
    /// A good reading whose response is lost on the way back.
    Lost(f64),
}

/// Every request a spy received, exactly as it arrived: `(spy, request)`.
type Log = Rc<RefCell<Vec<(String, Exertion)>>>;

struct Spy {
    name: String,
    line: Arc<str>,
    script: Vec<Reply>,
    served: usize,
    log: Log,
    /// The composite's host and this spy's, for [`Reply::Lost`].
    link: (HostId, HostId),
}

impl Servicer for Spy {
    fn provider_name(&self) -> &str {
        &self.name
    }

    fn service(&mut self, env: &mut Env, exertion: &mut Exertion, _txn: Option<TxnId>) {
        self.log
            .borrow_mut()
            .push((self.name.clone(), exertion.clone()));
        let Exertion::Task(task) = exertion else {
            return;
        };
        task.trace.push(Arc::clone(&self.line));
        let reply = self.script[self.served.min(self.script.len() - 1)];
        self.served += 1;
        match reply {
            Reply::Value(v) | Reply::Lost(v) => {
                task.context
                    .put(paths::SENSOR_VALUE, v)
                    .put(paths::SENSOR_UNIT, Value::literal("°C"))
                    .put(paths::SENSOR_QUALITY, Value::literal("good"));
                task.status = ExertionStatus::Done;
                if matches!(reply, Reply::Lost(_)) {
                    lose_the_reply(env, self.link.0, self.link.1);
                }
            }
            Reply::Dead => task.fail("sensor battery exhausted"),
            Reply::Silent => task.status = ExertionStatus::Done,
        }
    }
}

struct Fed {
    env: Env,
    client: HostId,
    hub: HostId,
    motes: HostId,
    lus: LusHandle,
    accessor: ServiceAccessor,
    log: Log,
}

fn fed() -> Fed {
    let mut env = Env::with_seed(23);
    let lab = env.add_host("lab", HostKind::Server);
    let hub = env.add_host("hub", HostKind::Server);
    let motes = env.add_host("motes", HostKind::Server);
    let client = env.add_host("client", HostKind::Workstation);
    let lus = LookupService::deploy(
        &mut env,
        lab,
        "LUS",
        "public",
        LeasePolicy::default(),
        SimDuration::from_millis(500),
    );
    Fed {
        env,
        client,
        hub,
        motes,
        lus,
        accessor: ServiceAccessor::new(vec![lus]),
        log: Log::default(),
    }
}

fn deploy_spy(f: &mut Fed, name: &str, group: Option<&str>, script: &[Reply]) {
    let spy = Spy {
        name: name.into(),
        line: exerted_by(name),
        script: script.to_vec(),
        served: 0,
        log: Rc::clone(&f.log),
        link: (f.hub, f.motes),
    };
    let svc = f.env.deploy(f.motes, name, ServicerBox::new(spy));
    let mut attributes = vec![Entry::Name(name.into())];
    attributes.extend(group.map(|g| Entry::Custom {
        key: EQUIVALENCE_GROUP_KEY.into(),
        value: g.into(),
    }));
    let item = ServiceItem::new(
        SvcUuid::NIL,
        f.motes,
        svc,
        vec![interfaces::SENSOR_DATA_ACCESSOR.into()],
        attributes,
    );
    f.lus.register(&mut f.env, f.motes, item, None).unwrap();
}

/// The request a child of `HUB` gets when nothing is reused: built from
/// scratch, as the composite did for every hop before it lent one.
fn fresh(child: &str) -> Exertion {
    Task::new(
        format!("read {child}"),
        Signature::new(interfaces::SENSOR_DATA_ACCESSOR, selectors::GET_VALUE).on(child),
        Context::new().with(VISITED, Value::List(vec![HUB.into()].into())),
    )
    .into()
}

/// Drain the log: the hops made since the last check must be exactly
/// `expect` — `(spy reached, child the request is labelled for)` — and
/// every request must equal a fresh one, header, context, status, trace
/// and wire size.
fn check_log(f: &Fed, expect: &[(&str, &str)]) -> Result<(), String> {
    let log = std::mem::take(&mut *f.log.borrow_mut());
    let reached: Vec<&str> = log.iter().map(|(spy, _)| &**spy).collect();
    let wanted: Vec<&str> = expect.iter().map(|(spy, _)| *spy).collect();
    if reached != wanted {
        return Err(format!("hops reached {reached:?}, expected {wanted:?}"));
    }
    for ((spy, got), (_, child)) in log.iter().zip(expect) {
        let want = fresh(child);
        if *got != want || got.wire_size() != want.wire_size() {
            return Err(format!(
                "'{spy}' was sent a request that is not fresh:\n got {got:?}\nwant {want:?}"
            ));
        }
    }
    Ok(())
}

/// What a read answered: the value and which children had none.
#[derive(Debug, PartialEq)]
struct Answer {
    value: Option<f64>,
    missing: Vec<String>,
}

fn answer(value: f64, missing: &[&str]) -> Answer {
    Answer {
        value: Some(value),
        missing: missing.iter().map(|m| m.to_string()).collect(),
    }
}

/// `arm` of `csp.rs`, with the slip a mutation seeds.
fn mirror_arm(request: &mut Exertion, child: &str, mutation: Mutation) {
    let Exertion::Task(task) = request else {
        unreachable!("the mirror lends a task")
    };
    task.name = format!("read {child}").into();
    if mutation != Mutation::KeepPin || task.signature.provider_name.is_none() {
        task.signature.provider_name = Some(child.into());
    }
    task.status = ExertionStatus::Initial;
    task.trace.clear();
    if mutation != Mutation::SkipClear {
        task.context.clear();
    }
    task.context
        .put(VISITED, Value::List(vec![HUB.into()].into()));
}

/// The composite's fan-out over public pieces only: one in-flight request,
/// armed per hop, lent with `exert_in_place_rearmed`, read where it lies;
/// `Quorum(1)` with the default average.
struct Mirror {
    children: Vec<(String, Option<String>)>,
    retry: RetryPolicy,
    in_flight: Exertion,
    mutation: Mutation,
}

impl Mirror {
    fn hop(&mut self, f: &mut Fed, svc: ServiceId, child: &str, retry: RetryPolicy) -> Option<f64> {
        let mutation = self.mutation;
        let request = &mut self.in_flight;
        mirror_arm(request, child, mutation);
        exert_in_place_rearmed(&mut f.env, f.hub, svc, request, None, &retry, |r| {
            if mutation != Mutation::SkipRearm {
                mirror_arm(r, child, mutation)
            }
        })
        .ok()?;
        match request.status() {
            ExertionStatus::Done => request.context().get_f64(paths::SENSOR_VALUE),
            _ => None,
        }
    }

    fn read(&mut self, f: &mut Fed) -> Answer {
        let iface = interfaces::SENSOR_DATA_ACCESSOR;
        let (mut values, mut missing) = (Vec::new(), Vec::new());
        for (child, group) in self.children.clone() {
            let mut got = match f.accessor.bind(&mut f.env, f.hub, iface, Some(&child)) {
                Some(item) => self.hop(f, item.service, &child, self.retry),
                None => None,
            };
            if let (None, Some(group)) = (got, &group) {
                let attr = AttrMatch::Custom {
                    key: Some(EQUIVALENCE_GROUP_KEY.into()),
                    value: Some(group.clone()),
                };
                let equivalent =
                    f.accessor
                        .bind_by_attr_excluding(&mut f.env, f.hub, iface, attr, Some(&child));
                if let Some(item) = equivalent {
                    got = self.hop(f, item.service, &child, RetryPolicy::none());
                }
            }
            match got {
                Some(v) => values.push(v),
                None => missing.push(child),
            }
        }
        Answer {
            value: (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64),
            missing,
        }
    }
}

/// The real composite, or its mirror under a mutation.
enum Subject {
    Composite(CspHandle),
    Mirror(Mirror),
}

impl Subject {
    fn new(
        f: &mut Fed,
        mirror: Option<Mutation>,
        children: &[(&str, Option<&str>)],
        retry: RetryPolicy,
    ) -> Subject {
        let children: Vec<(String, Option<String>)> = children
            .iter()
            .map(|(c, g)| (c.to_string(), g.map(str::to_string)))
            .collect();
        if let Some(mutation) = mirror {
            return Subject::Mirror(Mirror {
                children,
                retry,
                in_flight: Task::new(
                    "",
                    Signature::new(interfaces::SENSOR_DATA_ACCESSOR, selectors::GET_VALUE),
                    Context::new(),
                )
                .into(),
                mutation,
            });
        }
        let mut cfg = CspConfig::new(f.hub, HUB, f.lus);
        cfg.degradation = DegradationPolicy::Quorum(1);
        cfg.retry = retry;
        let handle = deploy_csp(&mut f.env, cfg).unwrap();
        let subject = Subject::Composite(handle);
        subject.compose(f, |csp| {
            for (child, group) in children {
                csp.add_service_grouped(&child, group).unwrap();
            }
        });
        subject
    }

    /// Edit the real composite's children through its management face.
    fn compose(&self, f: &mut Fed, edit: impl FnOnce(&mut CompositeSensorProvider)) {
        let Subject::Composite(handle) = self else {
            return;
        };
        f.env
            .with_service(handle.service, |_env, sb: &mut ServicerBox| {
                edit(sb.downcast_mut().expect("a composite was deployed"))
            })
            .unwrap();
    }

    fn replace_child(&mut self, f: &mut Fed, gone: &str, new: &str) {
        self.compose(f, |csp| {
            csp.remove_service(gone).unwrap();
            csp.add_service(new).unwrap();
        });
        if let Subject::Mirror(m) = self {
            m.children.retain(|(c, _)| c != gone);
            m.children.push((new.to_string(), None));
        }
    }

    fn read(&mut self, f: &mut Fed) -> Answer {
        match self {
            Subject::Mirror(m) => m.read(f),
            Subject::Composite(_) => {
                match client::get_value_detailed(&mut f.env, f.client, &f.accessor, HUB) {
                    Ok((reading, degraded)) => Answer {
                        value: Some(reading.value),
                        missing: degraded.missing,
                    },
                    Err(_) => Answer {
                        value: None,
                        missing: Vec::new(),
                    },
                }
            }
        }
    }
}

fn expect_answer(got: Answer, want: Answer) -> Result<(), String> {
    match got == want {
        true => Ok(()),
        false => Err(format!("answered {got:?}, expected {want:?}")),
    }
}

/// `[good A, dead-battery B, silent C, good D]`, read twice: B's failure
/// and `error/message`, A's reading and every pin stay where they were
/// made; B and C are reported missing and never lend another's value.
fn nothing_travels_between_children(mirror: Option<Mutation>) -> Result<(), String> {
    let mut f = fed();
    deploy_spy(&mut f, "A", None, &[Reply::Value(20.0)]);
    deploy_spy(&mut f, "B", None, &[Reply::Dead]);
    deploy_spy(&mut f, "C", None, &[Reply::Silent]);
    deploy_spy(&mut f, "D", None, &[Reply::Value(30.0)]);
    let children = [("A", None), ("B", None), ("C", None), ("D", None)];
    let mut subject = Subject::new(&mut f, mirror, &children, RetryPolicy::none());
    for _ in 0..2 {
        expect_answer(subject.read(&mut f), answer(25.0, &["B", "C"]))?;
        check_log(&f, &[("A", "A"), ("B", "B"), ("C", "C"), ("D", "D")])?;
    }
    Ok(())
}

/// `remove_service` / `add_service` re-label the armed request: the new
/// child is asked under its own name, the removed one not at all.
fn recomposition_relabels_the_request(mirror: Option<Mutation>) -> Result<(), String> {
    let mut f = fed();
    deploy_spy(&mut f, "A", None, &[Reply::Value(20.0)]);
    deploy_spy(&mut f, "B", None, &[Reply::Value(30.0)]);
    deploy_spy(&mut f, "Sea", None, &[Reply::Value(40.0)]);
    let children = [("A", None), ("B", None)];
    let mut subject = Subject::new(&mut f, mirror, &children, RetryPolicy::none());
    expect_answer(subject.read(&mut f), answer(25.0, &[]))?;
    check_log(&f, &[("A", "A"), ("B", "B")])?;
    subject.replace_child(&mut f, "A", "Sea");
    expect_answer(subject.read(&mut f), answer(35.0, &[]))?;
    check_log(&f, &[("B", "B"), ("Sea", "Sea")])
}

/// The failover hop carries the request the primary got — same label, same
/// pin, same bytes — not what the primary's failure left in it.
fn a_failover_hop_sends_a_fresh_request(mirror: Option<Mutation>) -> Result<(), String> {
    let mut f = fed();
    deploy_spy(&mut f, "B", Some("g"), &[Reply::Dead]);
    deploy_spy(&mut f, "E", Some("g"), &[Reply::Value(5.0)]);
    let children = [("B", Some("g"))];
    let mut subject = Subject::new(&mut f, mirror, &children, RetryPolicy::none());
    for _ in 0..2 {
        expect_answer(subject.read(&mut f), answer(5.0, &[]))?;
        check_log(&f, &[("B", "B"), ("E", "B")])?;
    }
    Ok(())
}

/// The child ran and its reply was lost: the retry sends the request
/// again, not the reply the composite never received.
fn a_retry_after_a_lost_reply_sends_the_request_again(
    mirror: Option<Mutation>,
) -> Result<(), String> {
    let mut f = fed();
    deploy_spy(&mut f, "A", None, &[Reply::Lost(20.0), Reply::Value(20.0)]);
    let mut subject = Subject::new(&mut f, mirror, &[("A", None)], RetryPolicy::transient());
    expect_answer(subject.read(&mut f), answer(20.0, &[]))?;
    check_log(&f, &[("A", "A"), ("A", "A")])?;
    match f.env.metrics.get(keys::RETRY_SUCCESS) {
        1 => Ok(()),
        n => Err(format!("{n} dispatches succeeded by retry, expected 1")),
    }
}

/// A scenario run against the real composite (`None`) or the mirror.
type Scenario = fn(Option<Mutation>) -> Result<(), String>;

const SCENARIOS: [(&str, Scenario); 4] = [
    ("between children", nothing_travels_between_children),
    ("recomposition", recomposition_relabels_the_request),
    ("failover", a_failover_hop_sends_a_fresh_request),
    (
        "lost reply",
        a_retry_after_a_lost_reply_sends_the_request_again,
    ),
];

#[test]
fn the_in_flight_request_leaks_nothing_from_hop_to_hop() {
    for (name, scenario) in SCENARIOS {
        scenario(None).unwrap_or_else(|e| panic!("composite, {name}: {e}"));
        scenario(Some(Mutation::None)).unwrap_or_else(|e| panic!("mirror, {name}: {e}"));
    }
}

#[test]
fn each_seeded_slip_in_the_arm_is_caught() {
    let failed = |mutation| -> Vec<&str> {
        SCENARIOS
            .iter()
            .filter(|(_, scenario)| scenario(Some(mutation)).is_err())
            .map(|(name, _)| *name)
            .collect()
    };
    let all: Vec<&str> = SCENARIOS.iter().map(|(name, _)| *name).collect();
    assert_eq!(failed(Mutation::SkipRearm), ["lost reply"]);
    // Whatever the hop before left — a reply, a failure — is still there.
    assert_eq!(failed(Mutation::SkipClear), all);
    // Needs a second child to show; a failover keeps its primary's pin.
    assert_eq!(
        failed(Mutation::KeepPin),
        ["between children", "recomposition"]
    );
}
