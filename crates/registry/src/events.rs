//! Distributed events, mirroring Jini's remote event model.
//!
//! A requestor registers interest in template transitions at the lookup
//! service ("distributed events", §IV.D) and receives [`ServiceEvent`]s
//! when matching registrations appear, disappear or change. The
//! [`EventMailbox`] reproduces Jini's event mailbox service visible in the
//! paper's Fig. 2: a store-and-forward box for requestors that are not
//! always reachable.

use sensorcer_sim::env::Env;
use sensorcer_sim::time::SimTime;
use sensorcer_sim::topology::HostId;
use sensorcer_sim::wire::ProtocolStack;

use crate::ids::SvcUuid;
use crate::item::ServiceItem;

/// Metric keys bumped by event delivery.
pub mod keys {
    /// Events dropped because the listener's host was unreachable.
    pub const EVENTS_DROPPED: &str = "registry.events.dropped";
    /// Events delivered to a reachable listener.
    pub const EVENTS_DELIVERED: &str = "registry.events.delivered";
}

/// How a service's relationship to a template changed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Transition {
    /// A non-matching (or absent) service now matches — it joined.
    NoMatchToMatch,
    /// A matching service no longer matches — it left (lease expiry,
    /// cancellation, attribute change).
    MatchToNoMatch,
    /// A matching service changed attributes but still matches.
    MatchToMatch,
}

/// One event delivered to a listener.
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceEvent {
    /// Monotonic per-registration sequence number.
    pub seq: u64,
    /// When the transition happened (virtual time).
    pub at: SimTime,
    pub uuid: SvcUuid,
    pub transition: Transition,
    /// The item after the transition (None for departures).
    pub item: Option<ServiceItem>,
}

/// Approximate wire size of one event notification.
pub fn event_wire_size(ev: &ServiceEvent) -> usize {
    use sensorcer_sim::wire::WireEncode;
    8 + 8 + 16 + 1 + ev.item.as_ref().map_or(0, |i| i.encoded_len())
}

/// Where events for one registration get delivered.
///
/// The `deliver` closure plays the role of the remote listener proxy; the
/// `host` lets the sender account the network hop honestly. The closure
/// must not call back into the service that is firing the event.
pub struct EventSink {
    pub host: HostId,
    pub deliver: Box<dyn FnMut(&mut Env, &ServiceEvent)>,
}

impl EventSink {
    /// Deliver an event across the simulated network. Jini events are
    /// best-effort: an unreachable listener loses the event — but never
    /// silently. The drop is counted (globally and against the listener's
    /// host) and surfaces as an `event.dropped` trace event on whatever
    /// span is open, so a missed notification is diagnosable after the
    /// fact.
    pub fn send(&mut self, env: &mut Env, from: HostId, event: &ServiceEvent) -> bool {
        match env.send_oneway(from, self.host, ProtocolStack::Tcp, event_wire_size(event)) {
            Ok(_) => {
                env.metrics.add(keys::EVENTS_DELIVERED, 1);
                (self.deliver)(env, event);
                true
            }
            Err(e) => {
                env.metrics.add_host(self.host, keys::EVENTS_DROPPED, 1);
                let cur = env.current_span();
                if cur.is_valid() {
                    env.span_event(
                        cur,
                        "event.dropped",
                        vec![
                            ("listener_host", (self.host.0 as u64).into()),
                            ("seq", event.seq.into()),
                            ("error", e.to_string().into()),
                        ],
                    );
                }
                false
            }
        }
    }
}

impl std::fmt::Debug for EventSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventSink")
            .field("host", &self.host)
            .finish_non_exhaustive()
    }
}

/// Store-and-forward event box (Jini Event Mailbox service). Deploy it on
/// a host, register its [`MailboxHandle::sink`] as the listener, and pull
/// accumulated events later.
#[derive(Debug, Default)]
pub struct EventMailbox {
    events: Vec<ServiceEvent>,
    delivered_total: u64,
}

impl EventMailbox {
    pub fn new() -> EventMailbox {
        EventMailbox::default()
    }

    /// Deploy a mailbox on `host` and return the service id plus a factory
    /// for sinks feeding it.
    pub fn deploy(env: &mut Env, host: HostId, name: &str) -> MailboxHandle {
        let shared = std::rc::Rc::new(std::cell::RefCell::new(EventMailbox::new()));
        let id = env.deploy_shared(host, name, std::rc::Rc::clone(&shared));
        MailboxHandle {
            service: id,
            host,
            shared,
        }
    }

    fn push(&mut self, ev: ServiceEvent) {
        self.events.push(ev);
        self.delivered_total += 1;
    }

    /// Drain all stored events (oldest first).
    pub fn drain(&mut self) -> Vec<ServiceEvent> {
        std::mem::take(&mut self.events)
    }

    /// Number of events currently waiting.
    pub fn pending(&self) -> usize {
        self.events.len()
    }

    /// Events ever delivered to the box.
    pub fn delivered_total(&self) -> u64 {
        self.delivered_total
    }
}

/// Handle to a deployed mailbox.
#[derive(Clone)]
pub struct MailboxHandle {
    pub service: sensorcer_sim::env::ServiceId,
    pub host: HostId,
    shared: std::rc::Rc<std::cell::RefCell<EventMailbox>>,
}

impl MailboxHandle {
    /// An [`EventSink`] that stores into this mailbox.
    pub fn sink(&self) -> EventSink {
        let shared = std::rc::Rc::clone(&self.shared);
        EventSink {
            host: self.host,
            deliver: Box::new(move |_env, ev| shared.borrow_mut().push(ev.clone())),
        }
    }

    /// Pull the stored events from a remote requestor at `from`, paying
    /// the network cost.
    pub fn pull(
        &self,
        env: &mut Env,
        from: HostId,
    ) -> Result<Vec<ServiceEvent>, sensorcer_sim::topology::NetError> {
        env.call(
            from,
            self.service,
            ProtocolStack::Tcp,
            32,
            |_env, mb: &mut EventMailbox| {
                let evs = mb.drain();
                let bytes: usize = evs.iter().map(event_wire_size).sum();
                (evs, bytes.max(8))
            },
        )
    }
}

impl std::fmt::Debug for MailboxHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MailboxHandle")
            .field("service", &self.service)
            .field("host", &self.host)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorcer_sim::prelude::*;

    fn event(seq: u64) -> ServiceEvent {
        ServiceEvent {
            seq,
            at: SimTime::ZERO,
            uuid: SvcUuid(seq as u128),
            transition: Transition::NoMatchToMatch,
            item: None,
        }
    }

    #[test]
    fn sink_delivers_over_network() {
        let mut env = Env::with_seed(1);
        let a = env.add_host("a", HostKind::Server);
        let b = env.add_host("b", HostKind::Server);
        let got = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let got2 = std::rc::Rc::clone(&got);
        let mut sink = EventSink {
            host: b,
            deliver: Box::new(move |_env, ev| got2.borrow_mut().push(ev.seq)),
        };
        assert!(sink.send(&mut env, a, &event(1)));
        assert_eq!(*got.borrow(), vec![1]);
        assert!(env.metrics.get(metric_keys::BYTES_WIRE) > 0);
    }

    #[test]
    fn unreachable_listener_drops_event() {
        let mut env = Env::with_seed(2);
        let a = env.add_host("a", HostKind::Server);
        let b = env.add_host("b", HostKind::Server);
        env.crash_host(b);
        let mut sink = EventSink {
            host: b,
            deliver: Box::new(|_e, _ev| panic!("must not deliver")),
        };
        assert!(!sink.send(&mut env, a, &event(1)));
    }

    #[test]
    fn dropped_events_are_counted_and_traced() {
        let mut env = Env::with_seed(7);
        let a = env.add_host("a", HostKind::Server);
        let b = env.add_host("b", HostKind::Server);
        env.crash_host(b);
        env.enable_tracing(16);
        let root = env.span_start("notify", "test", a);
        let mut sink = EventSink {
            host: b,
            deliver: Box::new(|_e, _ev| panic!("must not deliver")),
        };
        assert!(!sink.send(&mut env, a, &event(1)));
        env.span_end(root, Outcome::Ok);

        assert_eq!(env.metrics.get(keys::EVENTS_DROPPED), 1);
        assert_eq!(env.metrics.get_host(b, keys::EVENTS_DROPPED), 1);
        assert_eq!(env.metrics.get(keys::EVENTS_DELIVERED), 0);
        let rec = env.disable_tracing().unwrap();
        let span = rec.spans().find(|s| s.name == "notify").unwrap();
        assert!(span.has_event("event.dropped"));

        // A reachable listener counts a delivery, not a drop.
        let mut ok_sink = EventSink {
            host: a,
            deliver: Box::new(|_e, _ev| {}),
        };
        assert!(ok_sink.send(&mut env, a, &event(2)));
        assert_eq!(env.metrics.get(keys::EVENTS_DELIVERED), 1);
        assert_eq!(env.metrics.get(keys::EVENTS_DROPPED), 1);
    }

    #[test]
    fn mailbox_stores_and_drains() {
        let mut env = Env::with_seed(3);
        let srv = env.add_host("srv", HostKind::Server);
        let client = env.add_host("client", HostKind::Workstation);
        let mb = EventMailbox::deploy(&mut env, srv, "Event Mailbox");
        let mut sink = mb.sink();
        sink.send(&mut env, srv, &event(1));
        sink.send(&mut env, srv, &event(2));
        let events = mb.pull(&mut env, client).unwrap();
        assert_eq!(events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![1, 2]);
        // Drained: second pull is empty.
        assert!(mb.pull(&mut env, client).unwrap().is_empty());
    }

    #[test]
    fn mailbox_counts_totals() {
        let mut env = Env::with_seed(4);
        let srv = env.add_host("srv", HostKind::Server);
        let mb = EventMailbox::deploy(&mut env, srv, "mb");
        let mut sink = mb.sink();
        for i in 0..5 {
            sink.send(&mut env, srv, &event(i));
        }
        env.with_service(mb.service, |_e, m: &mut EventMailbox| {
            assert_eq!(m.pending(), 5);
            assert_eq!(m.delivered_total(), 5);
        })
        .unwrap();
    }

    #[test]
    fn event_wire_size_counts_item() {
        let bare = event(1);
        let with_item = ServiceEvent {
            item: Some(ServiceItem::new(
                SvcUuid(1),
                HostId(0),
                ServiceId(0),
                vec![],
                vec![],
            )),
            ..event(1)
        };
        assert!(event_wire_size(&with_item) > event_wire_size(&bare));
    }
}
