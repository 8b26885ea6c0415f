//! Connections held by bindings.
//!
//! A TCP exchange pays [`ProtocolStack::setup_bytes`] for the connection
//! it opens. A caller that calls one service over and over keeps that
//! connection open instead, as Jini JERI's connection manager and RMI do:
//! the [`Connection`] lives with the binding that owns it (a composite's
//! cached child, a requestor's per-provider header, an accessor's lookup
//! service, a renewal service's registrar), not in [`Env`], and
//! [`Env::call`] is only told whether the exchange opens one.
//!
//! A connection closes when its owner drops it or calls another service
//! over it, when a call over it fails, or once it has been idle for longer
//! than [`IDLE_LIMIT`]. The idle check is made at the next call; no timer
//! runs for it. A failed call also drops the binding: a closed connection
//! names no peer.
//!
//! [`Env`]: crate::env::Env
//! [`Env::call`]: crate::env::Env::call

use crate::env::ServiceId;
use crate::time::{SimDuration, SimTime};
use crate::wire::ProtocolStack;

/// How long an open connection may sit unused before it is closed: 15 s,
/// the JERI and RMI default.
pub const IDLE_LIMIT: SimDuration = SimDuration::from_secs(15);

/// What one exchange puts on the wire besides its payloads: the stack, and
/// whether it opens a connection (and so pays the stack's setup bytes).
///
/// A bare [`ProtocolStack`] converts to a one-shot exchange: the connection
/// opens for it and closes after it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Exchange {
    pub stack: ProtocolStack,
    pub opens: bool,
}

impl From<ProtocolStack> for Exchange {
    fn from(stack: ProtocolStack) -> Exchange {
        Exchange { stack, opens: true }
    }
}

/// The peer a closed connection names: no deployed service has this id.
const CLOSED: ServiceId = ServiceId(u64::MAX);

/// A binding's connection to the service it calls: the peer and when the
/// last call over it ended. Closed, it names no peer.
///
/// A caller asks [`Connection::open`] for the exchange of its next call,
/// makes the call, and reports how it went to [`Connection::settle`]. A
/// one-shot caller has nothing to keep and passes a bare stack instead.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Connection {
    peer: ServiceId,
    last_use: SimTime,
}

impl Default for Connection {
    fn default() -> Connection {
        Connection::closed()
    }
}

impl Connection {
    /// A connection that is not open to anything.
    pub const fn closed() -> Connection {
        Connection {
            peer: CLOSED,
            last_use: SimTime::ZERO,
        }
    }

    /// The service the connection was last open to, unless a failed call
    /// closed it since. An idle connection still names its peer: the next
    /// call reopens it.
    pub fn peer(&self) -> Option<ServiceId> {
        (self.peer != CLOSED).then_some(self.peer)
    }

    /// Whether a call to `to` at `now` finds the connection open.
    fn is_open_to(&self, to: ServiceId, now: SimTime) -> bool {
        self.peer == to && to != CLOSED && now.since(self.last_use) <= IDLE_LIMIT
    }

    /// The exchange for a call to `to` over `stack` starting at `now`. It
    /// opens the connection unless one to `to` is open; a connection to
    /// any other service is closed first.
    pub fn open(&mut self, to: ServiceId, stack: ProtocolStack, now: SimTime) -> Exchange {
        let opens = !self.is_open_to(to, now);
        self.peer = to;
        Exchange { stack, opens }
    }

    /// Record how the call [`Connection::open`] was asked for ended at
    /// `now`: a reply keeps the connection open from `now`, a failure
    /// closes it.
    pub fn settle<R, E>(&mut self, result: &Result<R, E>, now: SimTime) {
        match result {
            Ok(_) => self.last_use = now,
            Err(_) => *self = Connection::closed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Env;
    use crate::topology::{HostId, HostKind, NetError};

    struct Echo;

    /// Two services on a server, a workstation calling them.
    fn world() -> (Env, HostId, HostId, ServiceId, ServiceId) {
        let mut env = Env::with_seed(3);
        let lab = env.add_host("lab", HostKind::Server);
        let desk = env.add_host("desk", HostKind::Workstation);
        let a = env.deploy(lab, "a", Echo);
        let b = env.deploy(lab, "b", Echo);
        (env, lab, desk, a, b)
    }

    /// Call `to` over `conn`; the wire bytes it cost and how it ended.
    fn call(env: &mut Env, from: HostId, conn: &mut Connection, to: ServiceId) -> (u64, bool) {
        let before = env.metrics.get("net.bytes.wire");
        let via = conn.open(to, ProtocolStack::Tcp, env.now());
        let result: Result<(), NetError> =
            env.call(from, to, via, 16, |_e, _s: &mut Echo| ((), 16));
        conn.settle(&result, env.now());
        (env.metrics.get("net.bytes.wire") - before, result.is_ok())
    }

    /// The bytes of one exchange of 16 B each way, without setup.
    fn bare() -> u64 {
        2 * ProtocolStack::Tcp.bytes_on_wire(16) as u64
    }

    const SETUP: u64 = 290;

    #[test]
    fn the_first_call_pays_setup() {
        let (mut env, _, desk, a, _) = world();
        let mut conn = Connection::closed();
        assert_eq!(call(&mut env, desk, &mut conn, a), (bare() + SETUP, true));
        assert_eq!(conn.peer(), Some(a));
        assert_eq!(std::mem::size_of::<Connection>(), 16);
    }

    #[test]
    fn a_call_within_the_idle_limit_reuses_the_connection() {
        let (mut env, _, desk, a, _) = world();
        let mut conn = Connection::closed();
        call(&mut env, desk, &mut conn, a);
        env.run_for(IDLE_LIMIT);
        assert_eq!(call(&mut env, desk, &mut conn, a), (bare(), true));
        assert_eq!(call(&mut env, desk, &mut conn, a), (bare(), true));
    }

    #[test]
    fn a_failed_call_closes_the_connection() {
        let (mut env, lab, desk, a, _) = world();
        let mut conn = Connection::closed();
        call(&mut env, desk, &mut conn, a);
        env.crash_host(lab);
        let (_, ok) = call(&mut env, desk, &mut conn, a);
        assert!(!ok);
        assert_eq!(conn.peer(), None, "the binding is dropped");
        env.restart_host(lab);
        assert_eq!(call(&mut env, desk, &mut conn, a), (bare() + SETUP, true));
    }

    #[test]
    fn a_call_after_more_than_the_idle_limit_pays_again() {
        let (mut env, _, desk, a, _) = world();
        let mut conn = Connection::closed();
        call(&mut env, desk, &mut conn, a);
        env.run_for(IDLE_LIMIT + SimDuration::from_nanos(1));
        assert!(!conn.is_open_to(a, env.now()));
        assert_eq!(conn.peer(), Some(a), "idle, not dropped");
        assert_eq!(call(&mut env, desk, &mut conn, a), (bare() + SETUP, true));
    }

    #[test]
    fn a_call_to_another_service_pays_again() {
        let (mut env, _, desk, a, b) = world();
        let mut conn = Connection::closed();
        call(&mut env, desk, &mut conn, a);
        assert_eq!(call(&mut env, desk, &mut conn, b), (bare() + SETUP, true));
        assert_eq!(call(&mut env, desk, &mut conn, a), (bare() + SETUP, true));
    }

    #[test]
    fn a_bare_stack_is_one_shot() {
        let (mut env, _, desk, a, _) = world();
        for _ in 0..2 {
            let before = env.metrics.get("net.bytes.wire");
            env.call(desk, a, ProtocolStack::Tcp, 16, |_e, _s: &mut Echo| {
                ((), 16)
            })
            .unwrap();
            assert_eq!(env.metrics.get("net.bytes.wire") - before, bare() + SETUP);
        }
    }
}
