//! The `Servicer` peer interface and the generic tasker.
//!
//! "All service providers in EOA implement the
//! `service(Exertion, Transaction): Exertion` operation of the Servicer
//! interface" (§IV.D), and operations are invoked *indirectly*: a
//! requestor never calls `getValue` itself, it passes an exertion whose
//! signature names the operation. [`ServicerBox`] is the uniform deployed
//! form every exertion-capable provider takes in the simulation;
//! [`exert_in_place`] is the single network dispatch point.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::Arc;

use sensorcer_registry::txn::TxnId;
use sensorcer_sim::env::{Env, ServiceId};
use sensorcer_sim::topology::{HostId, NetError};
use sensorcer_sim::wire::ProtocolStack;

use crate::context::Context;
use crate::exertion::{Exertion, ExertionStatus, Task};

/// Upcast support so concrete provider types can be recovered from a
/// [`ServicerBox`] (e.g. for management operations in tests).
pub trait AsAny {
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A service peer: accepts exertions for execution. Implementations set
/// the exertion's status and write results into its context.
pub trait Servicer: AsAny + 'static {
    /// The provider's `Name` attribute (for traces and binding checks).
    fn provider_name(&self) -> &str;

    /// Execute the exertion in place.
    fn service(&mut self, env: &mut Env, exertion: &mut Exertion, txn: Option<TxnId>);
}

/// The uniform deployed wrapper for exertion-capable providers.
pub struct ServicerBox {
    inner: Box<dyn Servicer>,
}

impl ServicerBox {
    pub fn new(servicer: impl Servicer) -> ServicerBox {
        ServicerBox {
            inner: Box::new(servicer),
        }
    }

    pub fn provider_name(&self) -> &str {
        self.inner.provider_name()
    }

    /// Invoke the peer's `service` operation.
    pub fn service(&mut self, env: &mut Env, exertion: &mut Exertion, txn: Option<TxnId>) {
        self.inner.service(env, exertion, txn);
    }

    /// Recover the concrete provider type.
    pub fn downcast_mut<T: Servicer>(&mut self) -> Option<&mut T> {
        // Deref the box explicitly: `self.inner.as_any_mut()` would resolve
        // the blanket `AsAny` impl on `Box<dyn Servicer>` itself and return
        // the box, not the provider.
        (*self.inner).as_any_mut().downcast_mut::<T>()
    }
}

impl std::fmt::Debug for ServicerBox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServicerBox")
            .field("provider", &self.provider_name())
            .finish()
    }
}

/// Lend an exertion to a deployed [`ServicerBox`] across the simulated
/// network — the FMI hop. The provider exerts it in place, so on `Ok` the
/// caller's exertion *is* the reply: the same one goes down and comes back
/// (§IV.D), nothing is copied. On `Err` the provider may or may not have
/// run (a lost response comes after it did); re-arm the request before
/// sending it again.
///
/// When the flight recorder is on, each hop is an `fmi.dispatch` span
/// labelled with the provider's registered name and carrying the request
/// and response wire sizes.
pub fn exert_in_place(
    env: &mut Env,
    from: HostId,
    provider: ServiceId,
    exertion: &mut Exertion,
    txn: Option<TxnId>,
) -> Result<(), NetError> {
    let req = exertion.wire_size();
    let span = env.span_start_for("fmi.dispatch", provider, from);
    if span.is_valid() {
        env.span_field(span, "from_host", from.0);
        env.span_field(span, "bytes.req", req as u64);
    }
    let result = env.call(
        from,
        provider,
        ProtocolStack::Tcp,
        req,
        |env, sb: &mut ServicerBox| {
            sb.service(env, exertion, txn);
            ((), exertion.wire_size())
        },
    );
    if span.is_valid() {
        match &result {
            Ok(()) => {
                env.span_field(span, "bytes.resp", exertion.wire_size() as u64);
                let outcome = if exertion.status().is_failed() {
                    env.span_field(span, "status", "failed");
                    sensorcer_sim::trace::Outcome::Error
                } else {
                    sensorcer_sim::trace::Outcome::Ok
                };
                env.span_end(span, outcome);
            }
            Err(e) => {
                env.span_field(span, "error", e.to_string());
                env.span_end(span, sensorcer_sim::trace::Outcome::Error);
            }
        }
    }
    result
}

/// [`exert_in_place`] for a caller that owns the request and wants the
/// reply by value.
#[inline]
pub fn exert_on(
    env: &mut Env,
    from: HostId,
    provider: ServiceId,
    mut exertion: Exertion,
    txn: Option<TxnId>,
) -> Result<Exertion, NetError> {
    exert_in_place(env, from, provider, &mut exertion, txn)?;
    Ok(exertion)
}

/// The line a provider adds to [`Task::trace`] when it exerts a task. A
/// provider's name is fixed, so it builds the line once and pushes a
/// shared copy per read.
pub fn exerted_by(provider: &str) -> Arc<str> {
    format!("exerted by {provider}").into()
}

/// Handler signature for one selector of a [`Tasker`].
pub type SelectorHandler = Box<dyn FnMut(&mut Env, &mut Context) -> Result<(), String>>;

/// A generic domain-specific task peer: a named provider exposing a set of
/// selectors on one interface. The paper calls these *taskers* — "domain
/// specific servicers within the federation".
pub struct Tasker {
    name: String,
    exerted_by: Arc<str>,
    interface: String,
    handlers: BTreeMap<String, SelectorHandler>,
    tasks_served: u64,
}

impl Tasker {
    pub fn new(name: impl Into<String>, interface: impl Into<String>) -> Tasker {
        let name = name.into();
        Tasker {
            exerted_by: exerted_by(&name),
            name,
            interface: interface.into(),
            handlers: BTreeMap::new(),
            tasks_served: 0,
        }
    }

    /// Register a selector handler (builder style).
    pub fn on(
        mut self,
        selector: impl Into<String>,
        handler: impl FnMut(&mut Env, &mut Context) -> Result<(), String> + 'static,
    ) -> Tasker {
        self.handlers.insert(selector.into(), Box::new(handler));
        self
    }

    pub fn interface(&self) -> &str {
        &self.interface
    }

    pub fn tasks_served(&self) -> u64 {
        self.tasks_served
    }

    fn run_task(&mut self, env: &mut Env, task: &mut Task, _txn: Option<TxnId>) {
        if *task.signature.interface != *self.interface {
            task.fail(format!(
                "provider '{}' implements {}, not {}",
                self.name, self.interface, task.signature.interface
            ));
            return;
        }
        task.status = ExertionStatus::Running;
        task.trace.push(Arc::clone(&self.exerted_by));
        match self.handlers.get_mut(&*task.signature.selector) {
            Some(handler) => match handler(env, &mut task.context) {
                Ok(()) => {
                    self.tasks_served += 1;
                    task.status = ExertionStatus::Done;
                }
                Err(e) => task.fail(e),
            },
            None => task.fail(format!(
                "provider '{}' has no operation '{}'",
                self.name, task.signature.selector
            )),
        }
    }
}

impl Servicer for Tasker {
    fn provider_name(&self) -> &str {
        &self.name
    }

    fn service(&mut self, env: &mut Env, exertion: &mut Exertion, txn: Option<TxnId>) {
        match exertion {
            Exertion::Task(task) => self.run_task(env, task, txn),
            Exertion::Job(job) => {
                // Taskers execute elementary requests only; jobs belong to
                // rendezvous peers.
                job.status = ExertionStatus::Failed(format!(
                    "tasker '{}' cannot coordinate jobs; send jobs to a jobber or spacer",
                    self.name
                ));
            }
        }
    }
}

impl std::fmt::Debug for Tasker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tasker")
            .field("name", &self.name)
            .field("interface", &self.interface)
            .field("selectors", &self.handlers.keys().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exertion::{ControlStrategy, Job, Signature};
    use sensorcer_sim::prelude::*;

    fn adder() -> Tasker {
        Tasker::new("Adder", "Arithmetic").on("add", |_env, ctx| {
            let a = ctx.get_f64("arg/a").ok_or("missing arg/a")?;
            let b = ctx.get_f64("arg/b").ok_or("missing arg/b")?;
            ctx.put(crate::context::paths::RESULT, a + b);
            Ok(())
        })
    }

    fn add_task(a: f64, b: f64) -> Task {
        Task::new(
            "add",
            Signature::new("Arithmetic", "add"),
            Context::new().with("arg/a", a).with("arg/b", b),
        )
    }

    #[test]
    fn tasker_executes_matching_task() {
        let mut env = Env::with_seed(1);
        let host = env.add_host("h", HostKind::Server);
        let client = env.add_host("c", HostKind::Workstation);
        let svc = env.deploy(host, "Adder", ServicerBox::new(adder()));

        let result = exert_on(&mut env, client, svc, add_task(2.0, 3.0).into(), None).unwrap();
        assert!(result.status().is_done());
        assert_eq!(
            result.context().get_f64(crate::context::paths::RESULT),
            Some(5.0)
        );
        match &result {
            Exertion::Task(t) => assert_eq!(t.trace, vec![exerted_by("Adder")]),
            _ => panic!(),
        }
    }

    #[test]
    fn wrong_selector_and_interface_fail_cleanly() {
        let mut env = Env::with_seed(2);
        let host = env.add_host("h", HostKind::Server);
        let svc = env.deploy(host, "Adder", ServicerBox::new(adder()));

        let t = Task::new(
            "mul",
            Signature::new("Arithmetic", "multiply"),
            Context::new(),
        );
        let r = exert_on(&mut env, host, svc, t.into(), None).unwrap();
        assert!(r.status().is_failed());

        let t = Task::new("x", Signature::new("OtherInterface", "add"), Context::new());
        let r = exert_on(&mut env, host, svc, t.into(), None).unwrap();
        assert!(r.status().is_failed());
    }

    #[test]
    fn handler_errors_become_failed_status_with_context_message() {
        let mut env = Env::with_seed(3);
        let host = env.add_host("h", HostKind::Server);
        let svc = env.deploy(host, "Adder", ServicerBox::new(adder()));
        let t = Task::new("add", Signature::new("Arithmetic", "add"), Context::new());
        let r = exert_on(&mut env, host, svc, t.into(), None).unwrap();
        assert!(r.status().is_failed());
        assert_eq!(
            r.context().get_str(crate::context::paths::ERROR),
            Some("missing arg/a")
        );
    }

    #[test]
    fn taskers_reject_jobs() {
        let mut env = Env::with_seed(4);
        let host = env.add_host("h", HostKind::Server);
        let svc = env.deploy(host, "Adder", ServicerBox::new(adder()));
        let job = Job::new("j", ControlStrategy::sequence()).with(add_task(1.0, 2.0));
        let r = exert_on(&mut env, host, svc, job.into(), None).unwrap();
        assert!(r.status().is_failed());
    }

    #[test]
    fn exertion_to_dead_provider_errors_at_network_level() {
        let mut env = Env::with_seed(5);
        let host = env.add_host("h", HostKind::Server);
        let client = env.add_host("c", HostKind::Workstation);
        let svc = env.deploy(host, "Adder", ServicerBox::new(adder()));
        env.crash_host(host);
        let err = exert_on(&mut env, client, svc, add_task(1.0, 2.0).into(), None).unwrap_err();
        assert_eq!(err, NetError::HostDown);
    }

    #[test]
    fn downcast_recovers_concrete_type() {
        let mut sb = ServicerBox::new(adder());
        assert_eq!(sb.provider_name(), "Adder");
        let t: &mut Tasker = sb.downcast_mut().unwrap();
        assert_eq!(t.interface(), "Arithmetic");
        assert_eq!(t.tasks_served(), 0);

        struct Other;
        impl Servicer for Other {
            fn provider_name(&self) -> &str {
                "o"
            }
            fn service(&mut self, _e: &mut Env, _x: &mut Exertion, _t: Option<TxnId>) {}
        }
        assert!(sb.downcast_mut::<Other>().is_none());
    }

    #[test]
    fn tasks_served_counts() {
        let mut env = Env::with_seed(6);
        let host = env.add_host("h", HostKind::Server);
        let svc = env.deploy(host, "Adder", ServicerBox::new(adder()));
        for i in 0..3 {
            exert_on(&mut env, host, svc, add_task(i as f64, 1.0).into(), None).unwrap();
        }
        env.with_service(svc, |_e, sb: &mut ServicerBox| {
            assert_eq!(sb.downcast_mut::<Tasker>().unwrap().tasks_served(), 3);
        })
        .unwrap();
    }
}
