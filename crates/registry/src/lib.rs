//! # sensorcer-registry
//!
//! The Jini substitute (§IV.B of the paper): multicast discovery, a
//! lookup service with template matching and leased registrations, one
//! `join` that keeps a provider registered through a lease-renewal
//! service, distributed events with an event mailbox, and a
//! two-phase-commit transaction manager.
//!
//! This is the plug-and-play backbone of SenSORCER: "new services entering
//! the network become available immediately from LUSs and the existing
//! services that are disabled are automatically disposed from the sensor
//! network."
//!
//! ```
//! use sensorcer_registry::prelude::*;
//! use sensorcer_sim::prelude::*;
//!
//! let mut env = Env::with_seed(7);
//! let lab = env.add_host("lab", HostKind::Server);
//! let client = env.add_host("desk", HostKind::Workstation);
//!
//! let lus = LookupService::deploy(
//!     &mut env, lab, "LUS", "public",
//!     LeasePolicy::default(), SimDuration::from_millis(500),
//! );
//!
//! // A provider registers under a lease; a requestor discovers and looks up.
//! let item = ServiceItem::new(
//!     SvcUuid::NIL, lab, ServiceId(1),
//!     vec![interfaces::SENSOR_DATA_ACCESSOR.into()],
//!     vec![Entry::Name("Neem-Sensor".into())],
//! );
//! lus.register(&mut env, lab, item, None).unwrap();
//!
//! let found = discover_one(&mut env, client, "public").unwrap();
//! let hits = found.lookup(&mut env, client, &ServiceTemplate::by_name("Neem-Sensor"), 10).unwrap();
//! assert_eq!(hits.len(), 1);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
// Boxed-closure callback signatures (event sinks, 2PC participants,
// simulated parallel branches) trip this lint; the types are the API.
#![allow(clippy::type_complexity)]

pub mod attributes;
pub mod discovery;
pub mod events;
pub mod hier;
pub mod ids;
pub mod item;
pub mod lease;
pub mod lus;
mod postings;
pub mod renewal;
pub mod txn;

/// One-stop imports.
pub mod prelude {
    pub use crate::attributes::{name_of, service_type_of, AttrMatch, Entry};
    pub use crate::discovery::{discover, discover_one};
    pub use crate::events::{EventMailbox, EventSink, MailboxHandle, ServiceEvent, Transition};
    pub use crate::hier::{CountingBloom, HierHandle, RootRegistry};
    pub use crate::ids::{interfaces, InterfaceId, SvcUuid};
    pub use crate::item::{ServiceItem, ServiceTemplate};
    pub use crate::lease::{Lease, LeaseError, LeaseId, LeasePolicy, LeaseTable};
    pub use crate::lus::{LookupService, LusHandle, ServiceRegistration};
    pub use crate::renewal::{join, LeaseRenewalService, RenewalHandle};
    pub use crate::txn::{
        Participant, TmHandle, TransactionManager, TxnError, TxnId, TxnState, Vote,
    };
}

pub use prelude::*;
