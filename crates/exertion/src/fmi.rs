//! Federated method invocation.
//!
//! "In EOA requestors do not have to lookup for any network provider at
//! all, they can submit an exertion onto the network" (§IV.D). [`exert`]
//! is that submission: it binds the exertion to providers through the
//! [`ServiceAccessor`] (which wraps LUS lookups), forms the federation,
//! and drives the collaboration — directly for a bare task, through a
//! [`Jobber`] for push jobs, through a [`Spacer`] and the exertion space
//! for pull jobs.

use std::cell::Cell;
use std::sync::Arc;

use sensorcer_registry::attributes::AttrMatch;
use sensorcer_registry::ids::interfaces;
use sensorcer_registry::item::{ServiceItem, ServiceTemplate};
use sensorcer_registry::lus::LusHandle;
use sensorcer_registry::txn::TxnId;
use sensorcer_sim::env::Env;
use sensorcer_sim::time::SimDuration;
use sensorcer_sim::topology::HostId;

use crate::exertion::{Access, Exertion, ExertionStatus, Flow, Job, Task};
use crate::retry::{exert_in_place_retry, exert_on_retry, RetryPolicy};
use crate::servicer::{Servicer, ServicerBox};
use crate::space::SpaceHandle;

/// Finds service providers for signatures: "A Service Accessor finds
/// service providers using the Jini Lookup Services" (§V.B).
#[derive(Clone, Debug, Default)]
pub struct ServiceAccessor {
    lus: Vec<LusHandle>,
}

impl ServiceAccessor {
    pub fn new(lus: Vec<LusHandle>) -> ServiceAccessor {
        ServiceAccessor { lus }
    }

    /// Build from multicast discovery of `group`.
    pub fn from_discovery(env: &mut Env, from: HostId, group: &str) -> ServiceAccessor {
        ServiceAccessor {
            lus: sensorcer_registry::discovery::discover(env, from, group),
        }
    }

    pub fn lus_handles(&self) -> &[LusHandle] {
        &self.lus
    }

    fn template_for(interface: &str, provider_name: Option<&str>) -> ServiceTemplate {
        let mut tpl = ServiceTemplate::by_interface(interface);
        if let Some(name) = provider_name {
            tpl = tpl.and_attr(AttrMatch::name(name));
        }
        tpl
    }

    /// Find one provider matching a signature's interface (and name pin).
    pub fn bind(
        &self,
        env: &mut Env,
        from: HostId,
        interface: &str,
        provider_name: Option<&str>,
    ) -> Option<Arc<ServiceItem>> {
        let tpl = Self::template_for(interface, provider_name);
        for lus in &self.lus {
            if let Ok(Some(item)) = lus.lookup_first_excluding(env, from, &tpl, None) {
                return Some(item);
            }
        }
        None
    }

    /// Find one provider of `interface` that also carries an attribute
    /// satisfying `attr` (e.g. an equivalence-group tag). Used for §V.A's
    /// "passed on to the equivalent available service provider".
    pub fn bind_by_attr(
        &self,
        env: &mut Env,
        from: HostId,
        interface: &str,
        attr: AttrMatch,
    ) -> Option<Arc<ServiceItem>> {
        self.bind_by_attr_excluding(env, from, interface, attr, None)
    }

    /// Like [`ServiceAccessor::bind_by_attr`], skipping the provider named
    /// `exclude` — the one that just failed and must not be chosen again.
    pub fn bind_by_attr_excluding(
        &self,
        env: &mut Env,
        from: HostId,
        interface: &str,
        attr: AttrMatch,
        exclude: Option<&str>,
    ) -> Option<Arc<ServiceItem>> {
        let tpl = ServiceTemplate::by_interface(interface).and_attr(attr);
        for lus in &self.lus {
            if let Ok(Some(item)) = lus.lookup_first_excluding(env, from, &tpl, exclude) {
                return Some(item);
            }
        }
        None
    }

    /// Find all providers of an interface across the known LUSes
    /// (de-duplicated by uuid).
    pub fn list(&self, env: &mut Env, from: HostId, interface: &str) -> Vec<ServiceItem> {
        let tpl = Self::template_for(interface, None);
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
}

/// Shared coordination logic between jobbers and spacers.
struct Coordinator<'a> {
    host: HostId,
    accessor: &'a ServiceAccessor,
    space: Option<SpaceHandle>,
    poll: SimDuration,
    max_wait: SimDuration,
    retry: RetryPolicy,
    tasks_dispatched: &'a Cell<u64>,
}

impl Coordinator<'_> {
    /// Coordinate a job, or bind a bare task and lend it to its provider:
    /// the requestor's own exertion goes down and comes back exerted.
    fn run_exertion(&self, env: &mut Env, exertion: &mut Exertion, txn: Option<TxnId>) {
        let task = match exertion {
            Exertion::Job(job) => return self.run_job(env, job, txn),
            Exertion::Task(task) => task,
        };
        let bound = self.accessor.bind(
            env,
            self.host,
            &task.signature.interface,
            task.signature.provider_name.as_deref(),
        );
        let Some(item) = bound else {
            task.fail(format!("no provider found for {}", task.signature));
            return;
        };
        self.tasks_dispatched.set(self.tasks_dispatched.get() + 1);
        let sent = exert_in_place_retry(env, self.host, item.service, exertion, txn, &self.retry);
        if let (Err(e), Exertion::Task(task)) = (sent, exertion) {
            // No reply arrived: whatever the provider wrote before its
            // response was lost is not the requestor's to see.
            task.context.clear();
            task.trace.clear();
            task.fail(format!("provider unreachable: {e}"));
        }
    }

    fn run_job(&self, env: &mut Env, job: &mut Job, txn: Option<TxnId>) {
        job.status = ExertionStatus::Running;
        match (job.strategy.flow, job.strategy.access) {
            (Flow::Sequence, Access::Push) => {
                let mut prev_result: Option<sensorcer_expr::Value> = None;
                for child in &mut job.exertions {
                    // Dataflow pipe: a sequence stage may consume the
                    // previous stage's result as `pipe/in`.
                    if let (Some(v), Exertion::Task(t)) = (&prev_result, &mut *child) {
                        if !t.context.contains("pipe/in") {
                            t.context.put("pipe/in", v.clone());
                        }
                    }
                    self.run_exertion(env, child, txn);
                    prev_result = child.context().get(crate::context::paths::RESULT).cloned();
                    if child.status().is_failed() {
                        break;
                    }
                }
            }
            (Flow::Parallel, Access::Push) => {
                env.parallel_over(&mut job.exertions, |env, child| {
                    self.run_exertion(env, child, txn)
                });
            }
            (_, Access::Pull) => self.run_job_pull(env, job, txn),
        }

        // Fold child results into the job context and settle status.
        let mut all_done = true;
        for child in &job.exertions {
            job.context.merge_under(child.name(), child.context());
            if !child.status().is_done() {
                all_done = false;
            }
        }
        job.status = if all_done {
            ExertionStatus::Done
        } else {
            let failed: Vec<&str> = job
                .exertions
                .iter()
                .filter(|e| !e.status().is_done())
                .map(|e| e.name())
                .collect();
            ExertionStatus::Failed(format!("children failed: {}", failed.join(", ")))
        };
    }

    /// Pull mode: direct child tasks go through the exertion space; child
    /// jobs recurse.
    fn run_job_pull(&self, env: &mut Env, job: &mut Job, txn: Option<TxnId>) {
        let Some(space) = self.space else {
            job.status = ExertionStatus::Failed(
                "pull-mode job reached a coordinator without an exertion space".into(),
            );
            return;
        };
        match job.strategy.flow {
            // Sequential pull: one task at a time through the space, with
            // the dataflow pipe between stages, like the push sequence.
            Flow::Sequence => {
                let mut prev_result: Option<sensorcer_expr::Value> = None;
                for child in job.exertions.iter_mut() {
                    match child {
                        Exertion::Job(j) => self.run_job(env, j, txn),
                        Exertion::Task(t) => {
                            if let Some(v) = &prev_result {
                                if !t.context.contains("pipe/in") {
                                    t.context.put("pipe/in", v.clone());
                                }
                            }
                            self.tasks_dispatched.set(self.tasks_dispatched.get() + 1);
                            match space.write(env, self.host, t.clone()) {
                                Ok(id) => match self.await_result(env, space, id) {
                                    Some(done) => *t = done,
                                    None => {
                                        t.fail("no provider took the task from the space in time")
                                    }
                                },
                                Err(e) => t.fail(format!("space write failed: {e}")),
                            }
                        }
                    }
                    prev_result = child.context().get(crate::context::paths::RESULT).cloned();
                    if child.status().is_failed() {
                        break;
                    }
                }
            }
            // Parallel pull: write every direct task up front; free
            // providers take them concurrently.
            Flow::Parallel => {
                let mut waiting: Vec<(usize, crate::space::EntryId)> = Vec::new();
                for (i, child) in job.exertions.iter_mut().enumerate() {
                    match child {
                        Exertion::Job(j) => self.run_job(env, j, txn),
                        Exertion::Task(t) => {
                            self.tasks_dispatched.set(self.tasks_dispatched.get() + 1);
                            match space.write(env, self.host, t.clone()) {
                                Ok(id) => waiting.push((i, id)),
                                Err(e) => t.fail(format!("space write failed: {e}")),
                            }
                        }
                    }
                }
                let deadline = env.now() + self.max_wait;
                while !waiting.is_empty() && env.now() < deadline {
                    env.run_for(self.poll);
                    let mut still = Vec::new();
                    for (i, id) in waiting {
                        match space.take_result(env, self.host, id) {
                            Ok(Some(done)) => job.exertions[i] = Exertion::Task(done),
                            Ok(None) => still.push((i, id)),
                            Err(_) => still.push((i, id)),
                        }
                    }
                    waiting = still;
                }
                for (i, _) in waiting {
                    if let Exertion::Task(t) = &mut job.exertions[i] {
                        t.fail("no provider took the task from the space in time");
                    }
                }
            }
        }
    }

    /// Poll the space for one result until it arrives or the coordinator's
    /// patience runs out.
    fn await_result(
        &self,
        env: &mut Env,
        space: SpaceHandle,
        id: crate::space::EntryId,
    ) -> Option<Task> {
        let deadline = env.now() + self.max_wait;
        while env.now() < deadline {
            env.run_for(self.poll);
            if let Ok(Some(done)) = space.take_result(env, self.host, id) {
                return Some(done);
            }
        }
        None
    }
}

/// Push-mode rendezvous peer: receives jobs and coordinates their
/// execution by binding and invoking providers directly.
pub struct Jobber {
    name: String,
    host: HostId,
    accessor: ServiceAccessor,
    /// Retry budget applied to each provider dispatch. Defaults to
    /// [`RetryPolicy::none`] (fail-fast, the historical behaviour).
    pub retry: RetryPolicy,
    jobs_coordinated: u64,
    tasks_dispatched: Cell<u64>,
}

impl Jobber {
    pub fn new(name: impl Into<String>, host: HostId, accessor: ServiceAccessor) -> Jobber {
        Jobber {
            name: name.into(),
            host,
            accessor,
            retry: RetryPolicy::none(),
            jobs_coordinated: 0,
            tasks_dispatched: Cell::new(0),
        }
    }

    /// Deploy a jobber and register it (interface `Jobber`) with the LUSes
    /// known to its accessor.
    pub fn deploy(
        env: &mut Env,
        host: HostId,
        name: &str,
        accessor: ServiceAccessor,
    ) -> sensorcer_sim::env::ServiceId {
        let lus_list = accessor.lus_handles().to_vec();
        let service = env.deploy(
            host,
            name,
            ServicerBox::new(Jobber::new(name, host, accessor)),
        );
        for lus in lus_list {
            let item = ServiceItem::new(
                sensorcer_registry::ids::SvcUuid::NIL,
                host,
                service,
                vec![interfaces::JOBBER.into(), interfaces::SERVICER.into()],
                vec![
                    sensorcer_registry::attributes::Entry::Name(name.to_string()),
                    sensorcer_registry::attributes::Entry::ServiceType("JOBBER".into()),
                ],
            );
            let _ = lus.register(env, host, item, None);
        }
        service
    }

    pub fn jobs_coordinated(&self) -> u64 {
        self.jobs_coordinated
    }

    pub fn tasks_dispatched(&self) -> u64 {
        self.tasks_dispatched.get()
    }

    fn coordinator(&self) -> Coordinator<'_> {
        Coordinator {
            host: self.host,
            accessor: &self.accessor,
            space: None,
            poll: SimDuration::from_millis(50),
            max_wait: SimDuration::from_secs(30),
            retry: self.retry,
            tasks_dispatched: &self.tasks_dispatched,
        }
    }
}

impl Servicer for Jobber {
    fn provider_name(&self) -> &str {
        &self.name
    }

    fn service(&mut self, env: &mut Env, exertion: &mut Exertion, txn: Option<TxnId>) {
        if let Exertion::Job(_) = exertion {
            self.jobs_coordinated += 1;
        }
        self.coordinator().run_exertion(env, exertion, txn);
    }
}

/// Pull-mode rendezvous peer: coordinates jobs through the exertion space.
pub struct Spacer {
    name: String,
    host: HostId,
    accessor: ServiceAccessor,
    space: SpaceHandle,
    /// How often the spacer polls the space for results.
    pub poll: SimDuration,
    /// How long the spacer waits before failing un-taken tasks.
    pub max_wait: SimDuration,
    /// Retry budget applied to direct provider dispatches (child jobs
    /// coordinated inline). Defaults to fail-fast.
    pub retry: RetryPolicy,
    jobs_coordinated: u64,
    tasks_dispatched: Cell<u64>,
}

impl Spacer {
    pub fn new(
        name: impl Into<String>,
        host: HostId,
        accessor: ServiceAccessor,
        space: SpaceHandle,
    ) -> Spacer {
        Spacer {
            name: name.into(),
            host,
            accessor,
            space,
            poll: SimDuration::from_millis(50),
            max_wait: SimDuration::from_secs(30),
            retry: RetryPolicy::none(),
            jobs_coordinated: 0,
            tasks_dispatched: Cell::new(0),
        }
    }

    /// Deploy a spacer and register it (interface `Spacer`).
    pub fn deploy(
        env: &mut Env,
        host: HostId,
        name: &str,
        accessor: ServiceAccessor,
        space: SpaceHandle,
    ) -> sensorcer_sim::env::ServiceId {
        let lus_list = accessor.lus_handles().to_vec();
        let service = env.deploy(
            host,
            name,
            ServicerBox::new(Spacer::new(name, host, accessor, space)),
        );
        for lus in lus_list {
            let item = ServiceItem::new(
                sensorcer_registry::ids::SvcUuid::NIL,
                host,
                service,
                vec![interfaces::SPACER.into(), interfaces::SERVICER.into()],
                vec![
                    sensorcer_registry::attributes::Entry::Name(name.to_string()),
                    sensorcer_registry::attributes::Entry::ServiceType("SPACER".into()),
                ],
            );
            let _ = lus.register(env, host, item, None);
        }
        service
    }

    pub fn jobs_coordinated(&self) -> u64 {
        self.jobs_coordinated
    }

    pub fn tasks_dispatched(&self) -> u64 {
        self.tasks_dispatched.get()
    }
}

impl Servicer for Spacer {
    fn provider_name(&self) -> &str {
        &self.name
    }

    fn service(&mut self, env: &mut Env, exertion: &mut Exertion, txn: Option<TxnId>) {
        if let Exertion::Job(_) = exertion {
            self.jobs_coordinated += 1;
        }
        let coordinator = Coordinator {
            host: self.host,
            accessor: &self.accessor,
            space: Some(self.space),
            poll: self.poll,
            max_wait: self.max_wait,
            retry: self.retry,
            tasks_dispatched: &self.tasks_dispatched,
        };
        coordinator.run_exertion(env, exertion, txn);
    }
}

/// Submit an exertion onto the network: the `Exertion.exert(Transaction)`
/// operation of §IV.D. The federation forms dynamically: bare tasks bind
/// directly; push jobs go to a discovered jobber; pull jobs to a spacer.
pub fn exert(
    env: &mut Env,
    from: HostId,
    exertion: Exertion,
    accessor: &ServiceAccessor,
    txn: Option<TxnId>,
) -> Exertion {
    exert_with_retry(env, from, exertion, accessor, txn, &RetryPolicy::none())
}

/// [`exert`] under a retry budget: every network dispatch — the hop to the
/// rendezvous peer and each bare-task provider invocation — retries
/// transient errors within `retry`'s bounds.
///
/// When the flight recorder is on, each submission opens an `exert` root
/// span (unless a span is already open, in which case it nests), so the
/// whole federation formed for this exertion shares one trace.
pub fn exert_with_retry(
    env: &mut Env,
    from: HostId,
    exertion: Exertion,
    accessor: &ServiceAccessor,
    txn: Option<TxnId>,
    retry: &RetryPolicy,
) -> Exertion {
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
    let done = exert_inner(env, from, exertion, accessor, txn, retry);
    if span.is_valid() {
        let outcome = match done.status() {
            ExertionStatus::Failed(msg) => {
                let msg = msg.clone();
                env.span_field(span, "error", msg);
                sensorcer_sim::trace::Outcome::Error
            }
            _ => sensorcer_sim::trace::Outcome::Ok,
        };
        env.span_end(span, outcome);
    }
    done
}

fn exert_inner(
    env: &mut Env,
    from: HostId,
    exertion: Exertion,
    accessor: &ServiceAccessor,
    txn: Option<TxnId>,
    retry: &RetryPolicy,
) -> Exertion {
    match &exertion {
        Exertion::Task(_) => {
            // Elementary request: bind and invoke directly.
            let counter = Cell::new(0);
            let coordinator = Coordinator {
                host: from,
                accessor,
                space: None,
                poll: SimDuration::from_millis(50),
                max_wait: SimDuration::from_secs(30),
                retry: *retry,
                tasks_dispatched: &counter,
            };
            let mut ex = exertion;
            coordinator.run_exertion(env, &mut ex, txn);
            ex
        }
        Exertion::Job(job) => {
            let rendezvous_iface = match job.strategy.access {
                Access::Push => interfaces::JOBBER,
                Access::Pull => interfaces::SPACER,
            };
            let Some(peer) = accessor.bind(env, from, rendezvous_iface, None) else {
                let mut ex = exertion;
                if let Exertion::Job(j) = &mut ex {
                    j.status = ExertionStatus::Failed(format!(
                        "no rendezvous peer ({rendezvous_iface}) available"
                    ));
                }
                return ex;
            };
            match exert_on_retry(env, from, peer.service, exertion, txn, retry) {
                Ok(done) => done,
                Err(e) => {
                    // The rendezvous peer vanished mid-exertion.
                    let mut job = Job::new("lost", Default::default());
                    job.status = ExertionStatus::Failed(format!("rendezvous unreachable: {e}"));
                    Exertion::Job(job)
                }
            }
        }
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
        let item = ServiceItem::new(
            sensorcer_registry::ids::SvcUuid::NIL,
            host,
            svc,
            vec!["Math".into(), interfaces::SERVICER.into()],
            vec![sensorcer_registry::attributes::Entry::Name(name.into())],
        );
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
            None,
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
            None,
        );
        assert_eq!(done.context().get_f64(paths::RESULT), Some(30.0));
        // Unknown provider name fails the bind.
        let done = exert(
            &mut w.env,
            w.client,
            scale_task("t", Some("Quadrupler"), 10.0).into(),
            &w.accessor,
            None,
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
        let done = exert(&mut w.env, w.client, job.into(), &w.accessor, None);
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
        let done = exert(&mut w.env, w.client, job.into(), &w.accessor, None);
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
        let done = exert(&mut w.env, w.client, outer.into(), &w.accessor, None);
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
        let seq = exert(
            &mut w.env,
            w.client,
            make_job(Flow::Sequence),
            &w.accessor,
            None,
        );
        let seq_time = w.env.now() - t0;
        let t1 = w.env.now();
        let par = exert(
            &mut w.env,
            w.client,
            make_job(Flow::Parallel),
            &w.accessor,
            None,
        );
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
        let done = exert(&mut w.env, w.client, job.into(), &w.accessor, None);
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
        let done = exert(&mut w.env, w.client, job.into(), &w.accessor, None);
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
        let spacer_svc = Spacer::deploy(&mut w.env, sh, "Spacer", w.accessor.clone(), space);
        // Shorten the wait so the test is snappy.
        w.env
            .with_service(spacer_svc, |_e, sb: &mut ServicerBox| {
                sb.downcast_mut::<Spacer>().unwrap().max_wait = SimDuration::from_secs(1);
            })
            .unwrap();
        let job = Job::new("stranded", ControlStrategy::parallel().pull())
            .with(scale_task("a", None, 1.0));
        let done = exert(&mut w.env, w.client, job.into(), &w.accessor, None);
        assert!(done.status().is_failed());
    }

    #[test]
    fn job_without_rendezvous_fails_gracefully() {
        let mut w = setup();
        deploy_math(&mut w, "Doubler", 2.0);
        let job =
            Job::new("nojobber", ControlStrategy::parallel()).with(scale_task("a", None, 1.0));
        let done = exert(&mut w.env, w.client, job.into(), &w.accessor, None);
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
        let done = exert(&mut w.env, w.client, job.into(), &w.accessor, None);
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
        let accessor = ServiceAccessor::from_discovery(&mut w.env, w.client, "public");
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
