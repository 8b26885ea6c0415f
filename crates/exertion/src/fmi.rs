//! Federated method invocation.
//!
//! "In EOA requestors do not have to lookup for any network provider at
//! all, they can submit an exertion onto the network" (§IV.D). [`exert`]
//! is that submission: it binds the exertion to providers through the
//! [`ServiceAccessor`] (which wraps LUS lookups), forms the federation,
//! and drives the collaboration — directly for a bare task, through a
//! [`Jobber`] for push jobs, through a [`Spacer`] and the exertion space
//! for pull jobs. The paper's `exert(Transaction)` takes no transaction
//! here (no exertion carries one), and every hop on this path is
//! fail-fast: the one retry loop ([`crate::retry`]) serves the composite's
//! child hop.
//!
//! [`exert`] takes the request by value and hands the reply back; it wraps
//! [`exert_lent`], the one submission path, which exerts a lent request in
//! place. A requestor that reads over and over lends its accessor's one
//! [`LentRequest`]: re-armed per read, bound through one template, so a
//! read builds nothing.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

use sensorcer_registry::attributes::AttrMatch;
use sensorcer_registry::ids::{interfaces, InterfaceId};
use sensorcer_registry::item::{ServiceItem, ServiceTemplate};
use sensorcer_registry::lus::LusHandle;
use sensorcer_registry::renewal::join;
use sensorcer_sim::conn::Connection;
use sensorcer_sim::env::{Env, ServiceId};
use sensorcer_sim::time::SimDuration;
use sensorcer_sim::topology::{HostId, NetError};

use crate::context::Context;
use crate::exertion::{
    Access, Exertion, ExertionStatus, Flow, Job, RequestHeader, Signature, Task,
};
use crate::servicer::{exert_in_place, Servicer, ServicerBox};
use crate::space::{EntryId, SpaceHandle};

/// Finds service providers for signatures: "A Service Accessor finds
/// service providers using the Jini Lookup Services" (§V.B).
///
/// An accessor is also its requestor's lender: it keeps the one
/// [`LentRequest`] its reads re-arm, made by the first read, and the
/// connection its binding lookups ride to each lookup service. A clone
/// starts without either, so the state lives and dies with its requestor.
#[derive(Default)]
pub struct ServiceAccessor {
    lus: Vec<LusHandle>,
    /// The connection to each of `lus`, in order.
    links: Vec<Cell<Connection>>,
    /// Out while a read has it ([`ServiceAccessor::take_lent`]).
    lent: RefCell<Option<Box<LentRequest>>>,
}

impl Clone for ServiceAccessor {
    fn clone(&self) -> ServiceAccessor {
        ServiceAccessor::new(self.lus.clone())
    }
}

impl std::fmt::Debug for ServiceAccessor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServiceAccessor")
            .field("lus", &self.lus)
            .finish()
    }
}

impl ServiceAccessor {
    pub fn new(lus: Vec<LusHandle>) -> ServiceAccessor {
        ServiceAccessor {
            links: vec![Cell::default(); lus.len()],
            lus,
            lent: RefCell::default(),
        }
    }

    pub fn lus_handles(&self) -> &[LusHandle] {
        &self.lus
    }

    /// Find one provider matching a signature's interface (and name pin).
    pub fn bind(
        &self,
        env: &mut Env,
        from: HostId,
        interface: &str,
        provider_name: Option<&str>,
    ) -> Option<Arc<ServiceItem>> {
        let mut tpl = ServiceTemplate::by_interface(interface);
        if let Some(name) = provider_name {
            tpl = tpl.and_attr(AttrMatch::name(name));
        }
        self.bind_by(env, from, &tpl, |_| false)
    }

    /// The first provider any known LUS matches `template` with that `skip`
    /// does not refuse, looked up over this accessor's connection to it. A
    /// caller that binds over and over keeps one template and
    /// [`ServiceTemplate::repin`]s it per bind.
    pub fn bind_by(
        &self,
        env: &mut Env,
        from: HostId,
        template: &ServiceTemplate,
        skip: impl Fn(&ServiceItem) -> bool,
    ) -> Option<Arc<ServiceItem>> {
        self.lus.iter().zip(&self.links).find_map(|(lus, link)| {
            let mut held = link.get();
            let found = lus.lookup_first_where(env, from, &mut held, template, &skip);
            link.set(held);
            found.ok()?
        })
    }

    /// Find all providers of an interface across the known LUSes
    /// (de-duplicated by uuid).
    pub fn list(&self, env: &mut Env, from: HostId, interface: &str) -> Vec<ServiceItem> {
        let tpl = ServiceTemplate::by_interface(interface);
        let mut out: Vec<ServiceItem> = Vec::new();
        for lus in &self.lus {
            if let Ok(items) = lus.lookup(env, from, &tpl, usize::MAX) {
                for item in items {
                    if !out.iter().any(|i| i.uuid == item.uuid) {
                        out.push((*item).clone());
                    }
                }
            }
        }
        out
    }

    /// Take this accessor's lent request for `interface#selector` out for
    /// one read, or make one if it has none for that operation (the first
    /// read, or a read nested inside another through the same accessor).
    /// Hand it back with [`ServiceAccessor::put_lent`].
    pub fn take_lent(&self, interface: &str, selector: &str) -> Box<LentRequest> {
        match self.lent.take() {
            Some(lent) if lent.signs(interface, selector) => lent,
            _ => Box::new(LentRequest::new(Signature::new(interface, selector))),
        }
    }

    /// Keep `lent` for the next read.
    pub fn put_lent(&self, lent: Box<LentRequest>) {
        self.lent.replace(Some(lent));
    }
}

/// A requestor's one request in flight, for one operation: re-armed from a
/// per-provider [`RequestHeader`] and bound through one template whose
/// `Name` string is rewritten in place, so a read through it builds no
/// task, no label and no template. What each read sends, binds and
/// records is byte for byte what a freshly built task would.
///
/// Beside each header lie the connection that provider's reads ride (so
/// a requestor that reads it over and over opens one connection, not one
/// per read) and the instance of it last found dead.
#[derive(Debug)]
pub struct LentRequest {
    request: Exertion,
    /// One header, connection and dead instance per provider read, keyed
    /// by its pin.
    headers: HashMap<Arc<str>, (RequestHeader, Connection, Option<ServiceId>)>,
    /// The signature's interface, and a `Name` match for the pin.
    template: ServiceTemplate,
}

impl LentRequest {
    fn new(signature: Signature) -> LentRequest {
        let interface = InterfaceId(Arc::clone(&signature.interface));
        LentRequest {
            template: ServiceTemplate::by_interface(interface).and_attr(AttrMatch::name("")),
            request: Task::new("", signature, Context::new()).into(),
            headers: HashMap::new(),
        }
    }

    fn signs(&self, interface: &str, selector: &str) -> bool {
        let Exertion::Task(task) = &self.request else {
            return false;
        };
        *task.signature.interface == *interface && *task.signature.selector == *selector
    }

    /// Re-arm the request for `provider` (its header labelled by `label`
    /// the first time) and submit it in place, as [`exert`] submits a
    /// fresh one, over the provider's connection. The reply lies in the
    /// returned request until the next read re-arms it.
    pub fn exert(
        &mut self,
        env: &mut Env,
        from: HostId,
        accessor: &ServiceAccessor,
        provider: &str,
        label: impl FnOnce() -> String,
    ) -> &mut Exertion {
        let (header, link, dead) = match self.headers.get_mut(provider) {
            Some(held) => held,
            None => {
                let header = RequestHeader::new(label(), provider);
                self.headers.entry(Arc::clone(&header.pin)).or_insert((
                    header,
                    Connection::closed(),
                    None,
                ))
            }
        };
        header.arm(&mut self.request);
        self.template.repin(provider);
        let lender = Lender {
            template: &self.template,
            header,
            link,
            dead,
        };
        exert_lent(env, from, &mut self.request, accessor, Some(lender));
        &mut self.request
    }
}

/// What a requestor that lends its request gives [`exert_lent`] for a
/// bare task: the template it binds by (its interface and pin already
/// written), the header that re-arms the request, the connection its hops
/// to that provider ride, and the instance of it that last gave no reply.
pub struct Lender<'a> {
    pub template: &'a ServiceTemplate,
    pub header: &'a RequestHeader,
    pub link: &'a mut Connection,
    pub dead: &'a mut Option<ServiceId>,
}

/// How often a coordinator polls the exertion space for a result.
const POLL: SimDuration = SimDuration::from_millis(50);
/// How long a coordinator waits before failing a task no provider took.
const MAX_WAIT: SimDuration = SimDuration::from_secs(30);

/// The coordination a jobber, a spacer and a requestor's own bare-task
/// submission share. With a `space` it pulls a job's direct tasks through
/// it; without one it binds and invokes their providers directly.
struct Coordinator<'a> {
    host: HostId,
    accessor: &'a ServiceAccessor,
    space: Option<SpaceHandle>,
}

impl Coordinator<'_> {
    /// Coordinate a job, or bind a bare task and lend it to its provider:
    /// the requestor's own exertion goes down and comes back exerted. A
    /// task binds by its lender's template when it has a lender, else by
    /// its signature, and then goes out on a one-shot connection.
    fn run_exertion(&self, env: &mut Env, exertion: &mut Exertion, lender: Option<Lender>) {
        let task = match exertion {
            Exertion::Job(job) => return self.run_job(env, job),
            Exertion::Task(task) => task,
        };
        let bound = match &lender {
            Some(lender) => self.bind_lent(env, lender),
            None => self
                .accessor
                .bind(
                    env,
                    self.host,
                    &task.signature.interface,
                    task.signature.provider_name.as_deref(),
                )
                .map(|item| item.service),
        };
        let Some(bound) = bound else {
            task.fail(format!("no provider found for {}", task.signature));
            return;
        };
        let sent = match lender {
            Some(lender) => self.lend(env, exertion, bound, lender),
            None => exert_in_place(env, self.host, bound, exertion, &mut Connection::closed()),
        };
        if let (Err(e), Exertion::Task(task)) = (sent, exertion) {
            // No reply arrived: whatever the provider wrote before its
            // response was lost is not the requestor's to see.
            task.context.clear();
            task.trace.clear();
            task.fail(format!("provider unreachable: {e}"));
        }
    }

    /// Bind by the lender's template, passing over the instance it last
    /// found dead while anything else matches (its registration lingers
    /// beside its replacement's). When it is the only match it may have
    /// come back, so it is bound again.
    fn bind_lent(&self, env: &mut Env, lender: &Lender) -> Option<ServiceId> {
        let dead = *lender.dead;
        let passed = Cell::new(false);
        let found = self.accessor.bind_by(env, self.host, lender.template, |i| {
            let is_dead = Some(i.service) == dead;
            passed.set(passed.get() || is_dead);
            is_dead
        });
        found
            .map(|item| item.service)
            .or(dead.filter(|_| passed.get()))
    }

    /// Lend the request to `bound` over the lender's connection. If no
    /// reply comes back, bind once more, skipping that service by id (the
    /// dead instance's lingering registration and its replacement share a
    /// name), and send the re-armed request to whatever else matches. The
    /// lender remembers the last instance that gave no reply, and forgets
    /// it once it answers.
    fn lend(
        &self,
        env: &mut Env,
        exertion: &mut Exertion,
        bound: ServiceId,
        lender: Lender,
    ) -> Result<(), NetError> {
        let Lender {
            template,
            header,
            link,
            dead,
        } = lender;
        let mut send = |env: &mut Env, exertion: &mut Exertion, to: ServiceId| {
            let sent = exert_in_place(env, self.host, to, exertion, link);
            match sent {
                Ok(()) if *dead == Some(to) => *dead = None,
                Ok(()) => {}
                Err(_) => *dead = Some(to),
            }
            sent
        };
        let sent = send(env, exertion, bound);
        if sent.is_ok() {
            return sent;
        }
        match self
            .accessor
            .bind_by(env, self.host, template, |i| i.service == bound)
        {
            Some(other) => {
                header.arm(exertion);
                send(env, exertion, other.service)
            }
            None => sent,
        }
    }

    fn run_job(&self, env: &mut Env, job: &mut Job) {
        // A pulled task goes through the space; anything else runs here.
        let pull_through = match (job.strategy.access, self.space) {
            (Access::Push, _) => None,
            (Access::Pull, Some(space)) => Some(space),
            (Access::Pull, None) => {
                job.status = ExertionStatus::Failed(
                    "pull-mode job reached a coordinator without an exertion space".into(),
                );
                return;
            }
        };
        job.status = ExertionStatus::Running;
        match (job.strategy.flow, pull_through) {
            (Flow::Sequence, _) => {
                let mut prev_result: Option<sensorcer_expr::Value> = None;
                for child in &mut job.exertions {
                    // Dataflow pipe: a sequence stage may consume the
                    // previous stage's result as `pipe/in`.
                    if let (Some(v), Exertion::Task(t)) = (&prev_result, &mut *child) {
                        if !t.context.contains("pipe/in") {
                            t.context.put("pipe/in", v.clone());
                        }
                    }
                    match (pull_through, &mut *child) {
                        (Some(space), Exertion::Task(t)) => {
                            let offered = self.offer(env, space, t);
                            self.await_results(env, space, offered.into_iter().collect());
                        }
                        _ => self.run_exertion(env, child, None),
                    }
                    prev_result = child.context().get(crate::context::paths::RESULT).cloned();
                    if child.status().is_failed() {
                        break;
                    }
                }
            }
            (Flow::Parallel, None) => {
                env.parallel_over(&mut job.exertions, |env, child| {
                    self.run_exertion(env, child, None)
                });
            }
            (Flow::Parallel, Some(space)) => {
                // Every direct task goes into the space up front, so free
                // providers take them concurrently; child jobs run here.
                let mut waiting = Vec::new();
                for child in &mut job.exertions {
                    match child {
                        Exertion::Job(j) => self.run_job(env, j),
                        Exertion::Task(t) => waiting.extend(self.offer(env, space, t)),
                    }
                }
                self.await_results(env, space, waiting);
            }
        }

        // Fold child results into the job context and settle status.
        for child in &job.exertions {
            job.context.merge_under(child.name(), child.context());
        }
        let failed: Vec<&str> = job
            .exertions
            .iter()
            .filter(|e| !e.status().is_done())
            .map(|e| e.name())
            .collect();
        job.status = if failed.is_empty() {
            ExertionStatus::Done
        } else {
            ExertionStatus::Failed(format!("children failed: {}", failed.join(", ")))
        };
    }

    /// Write `t` to the space for a provider to take, or fail it if the
    /// write does not land.
    fn offer<'t>(
        &self,
        env: &mut Env,
        space: SpaceHandle,
        t: &'t mut Task,
    ) -> Option<(&'t mut Task, EntryId)> {
        match space.write(env, self.host, t.clone()) {
            Ok(id) => Some((t, id)),
            Err(e) => {
                t.fail(format!("space write failed: {e}"));
                None
            }
        }
    }

    /// Poll the space until every offered task comes back exerted or the
    /// coordinator's patience runs out; a task no provider took fails.
    fn await_results(
        &self,
        env: &mut Env,
        space: SpaceHandle,
        mut waiting: Vec<(&mut Task, EntryId)>,
    ) {
        let deadline = env.now() + MAX_WAIT;
        while !waiting.is_empty() && env.now() < deadline {
            env.run_for(POLL);
            waiting.retain_mut(|(t, id)| match space.take_result(env, self.host, *id) {
                Ok(Some(done)) => {
                    **t = done;
                    false
                }
                _ => true,
            });
        }
        for (t, _) in waiting {
            t.fail("no provider took the task from the space in time");
        }
    }
}

/// What a jobber and a spacer are made of: a named rendezvous peer that
/// coordinates the jobs sent to it, through `space` if it has one.
struct Peer {
    name: String,
    host: HostId,
    accessor: ServiceAccessor,
    space: Option<SpaceHandle>,
}

impl Peer {
    /// Deploy the peer as `wrap` makes it and register it under
    /// `interface` and `service_type` with the LUSes its accessor knows.
    fn deploy<S: Servicer>(
        self,
        env: &mut Env,
        interface: &str,
        service_type: &str,
        wrap: fn(Peer) -> S,
    ) -> ServiceId {
        let (host, name) = (self.host, self.name.clone());
        let lus_list = self.accessor.lus_handles().to_vec();
        let service = env.deploy(host, &name, ServicerBox::new(wrap(self)));
        for lus in lus_list {
            let item = ServiceItem::provider(
                host,
                service,
                &[interface, interfaces::SERVICER],
                &name,
                service_type,
            );
            let _ = join(env, lus, item, None, None);
        }
        service
    }

    fn service(&self, env: &mut Env, exertion: &mut Exertion) {
        let coordinator = Coordinator {
            host: self.host,
            accessor: &self.accessor,
            space: self.space,
        };
        coordinator.run_exertion(env, exertion, None);
    }
}

/// Push-mode rendezvous peer: receives jobs and coordinates their
/// execution by binding and invoking providers directly.
pub struct Jobber(Peer);

impl Jobber {
    /// Deploy a jobber and register it (interface `Jobber`) with the LUSes
    /// known to its accessor.
    pub fn deploy(env: &mut Env, host: HostId, name: &str, accessor: ServiceAccessor) -> ServiceId {
        let peer = Peer {
            name: name.into(),
            host,
            accessor,
            space: None,
        };
        peer.deploy(env, interfaces::JOBBER, "JOBBER", Jobber)
    }
}

impl Servicer for Jobber {
    fn provider_name(&self) -> &str {
        &self.0.name
    }

    fn service(&mut self, env: &mut Env, exertion: &mut Exertion) {
        self.0.service(env, exertion);
    }
}

/// Pull-mode rendezvous peer: coordinates jobs through the exertion space.
pub struct Spacer(Peer);

impl Spacer {
    /// Deploy a spacer and register it (interface `Spacer`).
    pub fn deploy(
        env: &mut Env,
        host: HostId,
        name: &str,
        accessor: ServiceAccessor,
        space: SpaceHandle,
    ) -> ServiceId {
        let peer = Peer {
            name: name.into(),
            host,
            accessor,
            space: Some(space),
        };
        peer.deploy(env, interfaces::SPACER, "SPACER", Spacer)
    }
}

impl Servicer for Spacer {
    fn provider_name(&self) -> &str {
        &self.0.name
    }

    fn service(&mut self, env: &mut Env, exertion: &mut Exertion) {
        self.0.service(env, exertion);
    }
}

/// Submit an exertion onto the network: the `Exertion.exert(Transaction)`
/// operation of §IV.D, with no transaction (none is ever carried), for a
/// requestor that hands the request over and wants the reply by value.
/// [`exert_lent`] does the work.
pub fn exert(
    env: &mut Env,
    from: HostId,
    mut exertion: Exertion,
    accessor: &ServiceAccessor,
) -> Exertion {
    exert_lent(env, from, &mut exertion, accessor, None);
    exertion
}

/// Submit a lent exertion onto the network; it comes back exerted in
/// place. The federation forms dynamically: a bare task binds directly (by
/// its [`Lender`]'s template and over its connection when it has one, else
/// by its signature and one-shot); push jobs go to a discovered jobber;
/// pull jobs to a spacer.
///
/// When the flight recorder is on, each submission opens an `exert` root
/// span (unless a span is already open, in which case it nests), so the
/// whole federation formed for this exertion shares one trace.
pub fn exert_lent(
    env: &mut Env,
    from: HostId,
    exertion: &mut Exertion,
    accessor: &ServiceAccessor,
    lender: Option<Lender>,
) {
    let span = if env.tracing_enabled() {
        let s = env.span_start("exert", exertion.name(), from);
        env.span_field(
            s,
            "kind",
            match &exertion {
                Exertion::Task(_) => "task",
                Exertion::Job(_) => "job",
            },
        );
        s
    } else {
        sensorcer_sim::trace::SpanId::INVALID
    };
    exert_inner(env, from, exertion, accessor, lender);
    if span.is_valid() {
        let outcome = match exertion.status() {
            ExertionStatus::Failed(msg) => {
                let msg = msg.clone();
                env.span_field(span, "error", msg);
                sensorcer_sim::trace::Outcome::Error
            }
            _ => sensorcer_sim::trace::Outcome::Ok,
        };
        env.span_end(span, outcome);
    }
}

fn exert_inner(
    env: &mut Env,
    from: HostId,
    exertion: &mut Exertion,
    accessor: &ServiceAccessor,
    lender: Option<Lender>,
) {
    let rendezvous_iface = match &*exertion {
        Exertion::Task(_) => {
            // Elementary request: bind and invoke directly.
            let coordinator = Coordinator {
                host: from,
                accessor,
                space: None,
            };
            coordinator.run_exertion(env, exertion, lender);
            return;
        }
        Exertion::Job(job) => match job.strategy.access {
            Access::Push => interfaces::JOBBER,
            Access::Pull => interfaces::SPACER,
        },
    };
    let failure = match accessor.bind(env, from, rendezvous_iface, None) {
        None => format!("no rendezvous peer ({rendezvous_iface}) available"),
        Some(peer) => {
            let sent = exertion.clone();
            match exert_in_place(env, from, peer.service, exertion, &mut Connection::closed()) {
                Ok(()) => return,
                Err(e) => {
                    // The rendezvous peer vanished mid-exertion: the job
                    // comes back as it was sent, whatever the peer did to
                    // it before its reply was lost.
                    *exertion = sent;
                    format!("rendezvous unreachable: {e}")
                }
            }
        }
    };
    if let Exertion::Job(job) = exertion {
        job.status = ExertionStatus::Failed(failure);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{paths, Context};
    use crate::exertion::{ControlStrategy, Signature};
    use crate::servicer::Tasker;
    use crate::space::{attach_worker, ExertionSpace};
    use sensorcer_registry::lease::LeasePolicy;
    use sensorcer_registry::lus::LookupService;
    use sensorcer_sim::prelude::*;

    struct World {
        env: Env,
        client: HostId,
        accessor: ServiceAccessor,
        lus: LusHandle,
    }

    fn setup() -> World {
        let mut env = Env::with_seed(1);
        let lab = env.add_host("lab", HostKind::Server);
        let client = env.add_host("client", HostKind::Workstation);
        env.topo.join_group(client, "public");
        let lus = LookupService::deploy(
            &mut env,
            lab,
            "LUS",
            "public",
            LeasePolicy::default(),
            SimDuration::from_millis(500),
        );
        let accessor = ServiceAccessor::new(vec![lus]);
        World {
            env,
            client,
            accessor,
            lus,
        }
    }

    fn deploy_math(w: &mut World, name: &str, factor: f64) {
        let host = w.env.add_host(format!("{name}-host"), HostKind::Server);
        let tasker = Tasker::new(name, "Math").on("scale", move |_env, ctx: &mut Context| {
            let x = ctx
                .get_f64("arg/x")
                .or_else(|| ctx.get_f64("pipe/in"))
                .ok_or("missing arg/x")?;
            ctx.put(paths::RESULT, factor * x);
            Ok(())
        });
        let svc = w.env.deploy(host, name, ServicerBox::new(tasker));
        let item =
            ServiceItem::provider(host, svc, &["Math", interfaces::SERVICER], name, "TASKER");
        w.lus.register(&mut w.env, host, item, None).unwrap();
    }

    fn scale_task(name: &str, provider: Option<&str>, x: f64) -> Task {
        let mut sig = Signature::new("Math", "scale");
        if let Some(p) = provider {
            sig = sig.on(p);
        }
        Task::new(name, sig, Context::new().with("arg/x", x))
    }

    #[test]
    fn bare_task_binds_through_accessor() {
        let mut w = setup();
        deploy_math(&mut w, "Doubler", 2.0);
        let done = exert(
            &mut w.env,
            w.client,
            scale_task("t", None, 21.0).into(),
            &w.accessor,
        );
        assert!(done.status().is_done(), "{:?}", done.status());
        assert_eq!(done.context().get_f64(paths::RESULT), Some(42.0));
    }

    #[test]
    fn provider_name_pin_is_respected() {
        let mut w = setup();
        deploy_math(&mut w, "Doubler", 2.0);
        deploy_math(&mut w, "Tripler", 3.0);
        let done = exert(
            &mut w.env,
            w.client,
            scale_task("t", Some("Tripler"), 10.0).into(),
            &w.accessor,
        );
        assert_eq!(done.context().get_f64(paths::RESULT), Some(30.0));
        // Unknown provider name fails the bind.
        let done = exert(
            &mut w.env,
            w.client,
            scale_task("t", Some("Quadrupler"), 10.0).into(),
            &w.accessor,
        );
        assert!(done.status().is_failed());
    }

    #[test]
    fn push_job_via_jobber_parallel() {
        let mut w = setup();
        deploy_math(&mut w, "Doubler", 2.0);
        deploy_math(&mut w, "Tripler", 3.0);
        let jh = w.env.add_host("jobber", HostKind::Server);
        Jobber::deploy(&mut w.env, jh, "Jobber", w.accessor.clone());

        let job = Job::new("both", ControlStrategy::parallel())
            .with(scale_task("double", Some("Doubler"), 10.0))
            .with(scale_task("triple", Some("Tripler"), 10.0));
        let done = exert(&mut w.env, w.client, job.into(), &w.accessor);
        assert!(done.status().is_done(), "{:?}", done.status());
        assert_eq!(done.context().get_f64("double/result/value"), Some(20.0));
        assert_eq!(done.context().get_f64("triple/result/value"), Some(30.0));
    }

    #[test]
    fn sequence_job_pipes_results_forward() {
        let mut w = setup();
        deploy_math(&mut w, "Doubler", 2.0);
        let jh = w.env.add_host("jobber", HostKind::Server);
        Jobber::deploy(&mut w.env, jh, "Jobber", w.accessor.clone());

        // Second stage has no arg/x: it consumes the pipe.
        let stage2 = Task::new("again", Signature::new("Math", "scale"), Context::new());
        let job = Job::new("chain", ControlStrategy::sequence())
            .with(scale_task("first", None, 5.0))
            .with(stage2);
        let done = exert(&mut w.env, w.client, job.into(), &w.accessor);
        assert!(done.status().is_done(), "{:?}", done.status());
        assert_eq!(
            done.context().get_f64("again/result/value"),
            Some(20.0),
            "5·2·2"
        );
    }

    #[test]
    fn nested_jobs_coordinate_inline() {
        let mut w = setup();
        deploy_math(&mut w, "Doubler", 2.0);
        let jh = w.env.add_host("jobber", HostKind::Server);
        Jobber::deploy(&mut w.env, jh, "Jobber", w.accessor.clone());

        let inner = Job::new("inner", ControlStrategy::parallel())
            .with(scale_task("a", None, 1.0))
            .with(scale_task("b", None, 2.0));
        let outer = Job::new("outer", ControlStrategy::sequence())
            .with(inner)
            .with(scale_task("c", None, 3.0));
        let done = exert(&mut w.env, w.client, outer.into(), &w.accessor);
        assert!(done.status().is_done(), "{:?}", done.status());
        assert_eq!(done.context().get_f64("inner/a/result/value"), Some(2.0));
        assert_eq!(done.context().get_f64("inner/b/result/value"), Some(4.0));
        assert_eq!(done.context().get_f64("c/result/value"), Some(6.0));
    }

    #[test]
    fn parallel_job_takes_max_not_sum_of_branch_time() {
        let mut w = setup();
        for name in ["M1", "M2", "M3", "M4"] {
            deploy_math(&mut w, name, 1.0);
        }
        let jh = w.env.add_host("jobber", HostKind::Server);
        Jobber::deploy(&mut w.env, jh, "Jobber", w.accessor.clone());

        let make_job = |flow| {
            let mut job = Job::new(
                "j",
                ControlStrategy {
                    flow,
                    access: Access::Push,
                },
            );
            for (i, name) in ["M1", "M2", "M3", "M4"].iter().enumerate() {
                job = job.with(scale_task(&format!("t{i}"), Some(name), 1.0));
            }
            Exertion::Job(job)
        };
        let t0 = w.env.now();
        let seq = exert(&mut w.env, w.client, make_job(Flow::Sequence), &w.accessor);
        let seq_time = w.env.now() - t0;
        let t1 = w.env.now();
        let par = exert(&mut w.env, w.client, make_job(Flow::Parallel), &w.accessor);
        let par_time = w.env.now() - t1;
        assert!(seq.status().is_done() && par.status().is_done());
        assert!(
            par_time.as_nanos() * 2 < seq_time.as_nanos(),
            "parallel {par_time} should beat sequence {seq_time} by >2x"
        );
    }

    #[test]
    fn pull_job_via_spacer_and_workers() {
        let mut w = setup();
        deploy_math(&mut w, "Doubler", 2.0);
        // Space + spacer + a worker for the Doubler.
        let sh = w.env.add_host("space-host", HostKind::Server);
        let space = ExertionSpace::deploy(&mut w.env, sh, "Exertion Space");
        Spacer::deploy(&mut w.env, sh, "Spacer", w.accessor.clone(), space);
        let provider = w.env.find_service("Doubler").unwrap();
        attach_worker(&mut w.env, provider, space, SimDuration::from_millis(20));

        let job = Job::new("pulled", ControlStrategy::parallel().pull())
            .with(scale_task("a", None, 4.0))
            .with(scale_task("b", None, 5.0));
        let done = exert(&mut w.env, w.client, job.into(), &w.accessor);
        assert!(done.status().is_done(), "{:?}", done.status());
        assert_eq!(done.context().get_f64("a/result/value"), Some(8.0));
        assert_eq!(done.context().get_f64("b/result/value"), Some(10.0));
    }

    #[test]
    fn sequential_pull_pipes_results_through_the_space() {
        let mut w = setup();
        deploy_math(&mut w, "Doubler", 2.0);
        let sh = w.env.add_host("space-host", HostKind::Server);
        let space = ExertionSpace::deploy(&mut w.env, sh, "space");
        Spacer::deploy(&mut w.env, sh, "Spacer", w.accessor.clone(), space);
        let provider = w.env.find_service("Doubler").unwrap();
        attach_worker(&mut w.env, provider, space, SimDuration::from_millis(20));

        // Second stage has no arg/x: it must consume the pipe from stage 1
        // — which only works if the spacer sequences the space writes.
        let stage2 = Task::new("again", Signature::new("Math", "scale"), Context::new());
        let job = Job::new("chain", ControlStrategy::sequence().pull())
            .with(scale_task("first", None, 5.0))
            .with(stage2);
        let done = exert(&mut w.env, w.client, job.into(), &w.accessor);
        assert!(done.status().is_done(), "{:?}", done.status());
        assert_eq!(
            done.context().get_f64("again/result/value"),
            Some(20.0),
            "5·2·2"
        );
    }

    #[test]
    fn pull_job_times_out_without_workers() {
        let mut w = setup();
        let sh = w.env.add_host("space-host", HostKind::Server);
        let space = ExertionSpace::deploy(&mut w.env, sh, "space");
        Spacer::deploy(&mut w.env, sh, "Spacer", w.accessor.clone(), space);
        let job = Job::new("stranded", ControlStrategy::parallel().pull())
            .with(scale_task("a", None, 1.0));
        let done = exert(&mut w.env, w.client, job.into(), &w.accessor);
        assert!(done.status().is_failed());
    }

    #[test]
    fn an_unreachable_rendezvous_returns_the_job_that_was_sent() {
        let mut w = setup();
        deploy_math(&mut w, "Doubler", 2.0);
        let jh = w.env.add_host("jobber", HostKind::Server);
        Jobber::deploy(&mut w.env, jh, "Jobber", w.accessor.clone());
        w.env.crash_host(jh);
        let job = Job::new("survey", ControlStrategy::parallel()).with(scale_task("a", None, 1.0));
        let done = exert(&mut w.env, w.client, job.into(), &w.accessor);
        assert_eq!(done.name(), "survey");
        assert_eq!(done.task_count(), 1);
        match done.status() {
            ExertionStatus::Failed(msg) => {
                assert!(msg.starts_with("rendezvous unreachable: "), "{msg}")
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn a_pull_job_at_a_jobber_keeps_its_reason() {
        let mut w = setup();
        deploy_math(&mut w, "Doubler", 2.0);
        let jh = w.env.add_host("jobber", HostKind::Server);
        Jobber::deploy(&mut w.env, jh, "Jobber", w.accessor.clone());
        let pulled =
            Job::new("pulled", ControlStrategy::parallel().pull()).with(scale_task("a", None, 1.0));
        let outer = Job::new("outer", ControlStrategy::sequence()).with(pulled);
        let Exertion::Job(done) = exert(&mut w.env, w.client, outer.into(), &w.accessor) else {
            panic!("a job comes back as a job");
        };
        assert_eq!(
            done.status,
            ExertionStatus::Failed("children failed: pulled".into())
        );
        assert_eq!(
            *done.exertions[0].status(),
            ExertionStatus::Failed(
                "pull-mode job reached a coordinator without an exertion space".into()
            )
        );
    }

    #[test]
    fn a_failed_stage_stops_the_sequence_pushed_and_pulled() {
        let mut w = setup();
        deploy_math(&mut w, "Doubler", 2.0);
        let jh = w.env.add_host("jobber", HostKind::Server);
        Jobber::deploy(&mut w.env, jh, "Jobber", w.accessor.clone());
        let sh = w.env.add_host("space-host", HostKind::Server);
        let space = ExertionSpace::deploy(&mut w.env, sh, "space");
        Spacer::deploy(&mut w.env, sh, "Spacer", w.accessor.clone(), space);
        let provider = w.env.find_service("Doubler").unwrap();
        attach_worker(&mut w.env, provider, space, SimDuration::from_millis(20));

        let mut stages = Vec::new();
        for strategy in [
            ControlStrategy::sequence(),
            ControlStrategy::sequence().pull(),
        ] {
            let broken = Task::new("broken", Signature::new("Math", "explode"), Context::new());
            let job = Job::new("chain", strategy)
                .with(scale_task("first", None, 5.0))
                .with(broken)
                .with(scale_task("last", None, 1.0));
            let Exertion::Job(done) = exert(&mut w.env, w.client, job.into(), &w.accessor) else {
                panic!("a job comes back as a job");
            };
            let seen: Vec<_> = done
                .exertions
                .iter()
                .map(|e| (e.status().clone(), e.context().get_f64(paths::RESULT)))
                .collect();
            stages.push((done.status, seen));
        }
        let (status, seen) = &stages[0];
        assert_eq!(
            *status,
            ExertionStatus::Failed("children failed: broken, last".into())
        );
        assert_eq!(seen[0], (ExertionStatus::Done, Some(10.0)));
        assert!(seen[1].0.is_failed(), "{:?}", seen[1]);
        assert_eq!(seen[2], (ExertionStatus::Initial, None), "never ran");
        assert_eq!(stages[0], stages[1], "push and pull agree stage by stage");
    }

    #[test]
    fn job_without_rendezvous_fails_gracefully() {
        let mut w = setup();
        deploy_math(&mut w, "Doubler", 2.0);
        let job =
            Job::new("nojobber", ControlStrategy::parallel()).with(scale_task("a", None, 1.0));
        let done = exert(&mut w.env, w.client, job.into(), &w.accessor);
        match done.status() {
            ExertionStatus::Failed(msg) => assert!(msg.contains("rendezvous"), "{msg}"),
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn failed_child_fails_job_but_keeps_sibling_results() {
        let mut w = setup();
        deploy_math(&mut w, "Doubler", 2.0);
        let jh = w.env.add_host("jobber", HostKind::Server);
        Jobber::deploy(&mut w.env, jh, "Jobber", w.accessor.clone());

        let job = Job::new("mixed", ControlStrategy::parallel())
            .with(scale_task("ok", None, 1.0))
            .with(scale_task("bad", Some("NoSuchProvider"), 1.0));
        let done = exert(&mut w.env, w.client, job.into(), &w.accessor);
        assert!(done.status().is_failed());
        assert_eq!(done.context().get_f64("ok/result/value"), Some(2.0));
        match done.status() {
            ExertionStatus::Failed(msg) => assert!(msg.contains("bad")),
            _ => unreachable!(),
        }
    }

    #[test]
    fn accessor_discovery_and_listing() {
        let mut w = setup();
        deploy_math(&mut w, "Doubler", 2.0);
        deploy_math(&mut w, "Tripler", 3.0);
        let found = sensorcer_registry::discovery::discover(&mut w.env, w.client, "public");
        let accessor = ServiceAccessor::new(found);
        assert_eq!(accessor.lus_handles().len(), 1);
        let items = accessor.list(&mut w.env, w.client, "Math");
        assert_eq!(items.len(), 2);
        assert!(accessor
            .bind(&mut w.env, w.client, "Math", Some("Doubler"))
            .is_some());
        assert!(accessor
            .bind(&mut w.env, w.client, "NoIface", None)
            .is_none());
    }
}
