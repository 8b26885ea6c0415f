//! # sensorcer-exertion
//!
//! The SORCER substitute (§IV.D of the paper): exertion-oriented
//! programming. Service requests are *exertions* — tasks (elementary) and
//! jobs (hierarchical composites) carrying their data ([`Context`]),
//! operations ([`Signature`]) and [`ControlStrategy`]. Every provider
//! implements the `Servicer` peer interface (`service(Exertion, Txn)`),
//! operations are only reachable indirectly through exertions, and
//! [`exert`] submits a request "onto the network" — binding providers via
//! lookup, coordinating push jobs through a [`Jobber`] and pull jobs
//! through a [`Spacer`] over the tuple-space [`ExertionSpace`].
//!
//! ```
//! use sensorcer_exertion::prelude::*;
//! use sensorcer_registry::prelude::*;
//! use sensorcer_sim::prelude::*;
//!
//! let mut env = Env::with_seed(7);
//! let lab = env.add_host("lab", HostKind::Server);
//! let lus = LookupService::deploy(&mut env, lab, "LUS", "public",
//!     LeasePolicy::default(), SimDuration::from_millis(500));
//!
//! // A tasker offering Math#double.
//! let tasker = Tasker::new("Doubler", "Math").on("double", |_env, ctx| {
//!     let x = ctx.get_f64("arg/x").ok_or("missing arg/x")?;
//!     ctx.put("result/value", 2.0 * x);
//!     Ok(())
//! });
//! let svc = env.deploy(lab, "Doubler", ServicerBox::new(tasker));
//! lus.register(&mut env, lab, ServiceItem::new(
//!     SvcUuid::NIL, lab, svc, vec!["Math".into()],
//!     vec![Entry::Name("Doubler".into())],
//! ), None).unwrap();
//!
//! // Submit an exertion onto the network.
//! let accessor = ServiceAccessor::new(vec![lus]);
//! let task = Task::new("t", Signature::new("Math", "double"),
//!     Context::new().with("arg/x", 21.0));
//! let done = exert(&mut env, lab, task.into(), &accessor, None);
//! assert!(done.status().is_done());
//! assert_eq!(done.context().get_f64("result/value"), Some(42.0));
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Boxed-closure callback signatures (event sinks, 2PC participants,
// simulated parallel branches) trip this lint; the types are the API.
#![allow(clippy::type_complexity)]

pub mod context;
pub mod exertion;
pub mod fmi;
pub mod retry;
pub mod servicer;
pub mod space;

/// One-stop imports.
pub mod prelude {
    pub use crate::context::{paths, value_wire_size, Context};
    pub use crate::exertion::{
        Access, ControlStrategy, Exertion, ExertionStatus, Flow, Job, Signature, Task,
    };
    pub use crate::fmi::{exert, exert_with_retry, Jobber, ServiceAccessor, Spacer};
    pub use crate::retry::{
        exert_in_place_rearmed, exert_in_place_retry, exert_on_retry, RetryPolicy,
    };
    pub use crate::servicer::{
        exert_in_place, exert_on, exerted_by, Servicer, ServicerBox, Tasker,
    };
    pub use crate::space::{attach_worker, EntryId, ExertionSpace, SpaceHandle};
}

pub use prelude::*;
