//! Transaction manager with two-phase commit.
//!
//! Jini's transaction manager (visible in the paper's Fig. 2 as
//! "Transaction Manager") coordinates multi-provider operations; SORCER
//! passes a transaction through `service(Exertion, Transaction)` (§IV.D).
//! The reproduction implements the classic 2PC protocol over the
//! simulated network: prepare-vote, then commit or roll back everywhere.
//! No exertion carries a transaction here: participants and callers drive
//! the manager directly through its [`TmHandle`].

use std::collections::BTreeMap;

use sensorcer_sim::env::{Env, ServiceId};
use sensorcer_sim::time::{SimDuration, SimTime};
use sensorcer_sim::topology::HostId;
use sensorcer_sim::wire::ProtocolStack;

/// Identifier of one transaction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TxnId(pub u64);

/// A participant's vote in the prepare phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Vote {
    /// Ready to commit; changes are staged durably.
    Prepared,
    /// Cannot commit; the transaction must abort.
    Abort,
}

/// Lifecycle of a transaction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxnState {
    Active,
    Committed,
    Aborted,
}

/// Why a commit attempt failed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TxnError {
    Unknown,
    /// The transaction was already finished.
    NotActive,
    /// A participant voted abort or was unreachable during prepare.
    Aborted,
}

impl std::fmt::Display for TxnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxnError::Unknown => f.write_str("unknown transaction"),
            TxnError::NotActive => f.write_str("transaction is not active"),
            TxnError::Aborted => f.write_str("transaction aborted"),
        }
    }
}

impl std::error::Error for TxnError {}

/// A participant joined into a transaction: its host (for network
/// accounting) and its three protocol callbacks.
pub struct Participant {
    pub host: HostId,
    pub prepare: Box<dyn FnMut(&mut Env, TxnId) -> Vote>,
    pub commit: Box<dyn FnMut(&mut Env, TxnId)>,
    pub abort: Box<dyn FnMut(&mut Env, TxnId)>,
}

impl std::fmt::Debug for Participant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Participant")
            .field("host", &self.host)
            .finish_non_exhaustive()
    }
}

struct Txn {
    state: TxnState,
    deadline: SimTime,
    participants: Vec<Participant>,
}

/// 2PC coordinator. Deploy with [`TransactionManager::deploy`].
pub struct TransactionManager {
    pub host: HostId,
    next: u64,
    txns: BTreeMap<TxnId, Txn>,
    committed_total: u64,
    aborted_total: u64,
}

/// Wire size of one 2PC control message (tid + verb + ack).
const CONTROL_MSG_BYTES: usize = 24;

impl TransactionManager {
    pub fn new(host: HostId) -> TransactionManager {
        TransactionManager {
            host,
            next: 1,
            txns: BTreeMap::new(),
            committed_total: 0,
            aborted_total: 0,
        }
    }

    /// Deploy on `host` with a reaper that aborts transactions that pass
    /// their deadline without committing.
    pub fn deploy(env: &mut Env, host: HostId, name: &str, reap_every: SimDuration) -> TmHandle {
        let service = env.deploy(host, name, TransactionManager::new(host));
        env.schedule_every(reap_every, reap_every, move |env| {
            env.with_service(service, |env, tm: &mut TransactionManager| tm.reap(env))
                .is_ok()
        });
        TmHandle { service, host }
    }

    /// Begin a transaction with a commit deadline `timeout` from `now`.
    pub fn create(&mut self, now: SimTime, timeout: SimDuration) -> TxnId {
        let id = TxnId(self.next);
        self.next += 1;
        self.txns.insert(
            id,
            Txn {
                state: TxnState::Active,
                deadline: now + timeout,
                participants: Vec::new(),
            },
        );
        id
    }

    /// Join a participant into an active transaction.
    pub fn join(&mut self, id: TxnId, participant: Participant) -> Result<(), TxnError> {
        let txn = self.txns.get_mut(&id).ok_or(TxnError::Unknown)?;
        if txn.state != TxnState::Active {
            return Err(TxnError::NotActive);
        }
        txn.participants.push(participant);
        Ok(())
    }

    /// Two-phase commit. Phase 1 sends prepare to every participant and
    /// collects votes; any abort vote or unreachable participant rolls the
    /// whole transaction back. Phase 2 sends the decision.
    pub fn commit(&mut self, env: &mut Env, id: TxnId) -> Result<(), TxnError> {
        let txn = self.txns.get_mut(&id).ok_or(TxnError::Unknown)?;
        if txn.state != TxnState::Active {
            return Err(TxnError::NotActive);
        }
        let tm_host = self.host;

        // Phase 1: prepare.
        let mut all_prepared = true;
        for p in txn.participants.iter_mut() {
            let reachable = env
                .send_oneway(tm_host, p.host, ProtocolStack::Tcp, CONTROL_MSG_BYTES)
                .is_ok();
            if !reachable {
                all_prepared = false;
                break;
            }
            let vote = (p.prepare)(env, id);
            // Vote travels back.
            let _ = env.send_oneway(p.host, tm_host, ProtocolStack::Tcp, CONTROL_MSG_BYTES);
            if vote == Vote::Abort {
                all_prepared = false;
                break;
            }
        }

        // Phase 2: decision.
        if all_prepared {
            for p in txn.participants.iter_mut() {
                if env
                    .send_oneway(tm_host, p.host, ProtocolStack::Tcp, CONTROL_MSG_BYTES)
                    .is_ok()
                {
                    (p.commit)(env, id);
                }
            }
            txn.state = TxnState::Committed;
            self.committed_total += 1;
            Ok(())
        } else {
            for p in txn.participants.iter_mut() {
                if env
                    .send_oneway(tm_host, p.host, ProtocolStack::Tcp, CONTROL_MSG_BYTES)
                    .is_ok()
                {
                    (p.abort)(env, id);
                }
            }
            txn.state = TxnState::Aborted;
            self.aborted_total += 1;
            Err(TxnError::Aborted)
        }
    }

    /// Explicitly roll back an active transaction.
    pub fn abort(&mut self, env: &mut Env, id: TxnId) -> Result<(), TxnError> {
        let txn = self.txns.get_mut(&id).ok_or(TxnError::Unknown)?;
        if txn.state != TxnState::Active {
            return Err(TxnError::NotActive);
        }
        let tm_host = self.host;
        for p in txn.participants.iter_mut() {
            if env
                .send_oneway(tm_host, p.host, ProtocolStack::Tcp, CONTROL_MSG_BYTES)
                .is_ok()
            {
                (p.abort)(env, id);
            }
        }
        txn.state = TxnState::Aborted;
        self.aborted_total += 1;
        Ok(())
    }

    /// Abort every active transaction past its deadline.
    pub fn reap(&mut self, env: &mut Env) {
        let now = env.now();
        let overdue: Vec<TxnId> = self
            .txns
            .iter()
            .filter(|(_, t)| t.state == TxnState::Active && now >= t.deadline)
            .map(|(id, _)| *id)
            .collect();
        for id in overdue {
            let _ = self.abort(env, id);
        }
    }

    /// Current state of a transaction.
    pub fn state(&self, id: TxnId) -> Option<TxnState> {
        self.txns.get(&id).map(|t| t.state)
    }

    pub fn committed_total(&self) -> u64 {
        self.committed_total
    }

    pub fn aborted_total(&self) -> u64 {
        self.aborted_total
    }
}

impl std::fmt::Debug for TransactionManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransactionManager")
            .field("host", &self.host)
            .field("txns", &self.txns.len())
            .finish()
    }
}

/// Client-side handle for remote transaction operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TmHandle {
    pub service: ServiceId,
    pub host: HostId,
}

impl TmHandle {
    pub fn create(
        &self,
        env: &mut Env,
        from: HostId,
        timeout: SimDuration,
    ) -> Result<TxnId, sensorcer_sim::topology::NetError> {
        env.call(
            from,
            self.service,
            ProtocolStack::Tcp,
            16,
            |env, tm: &mut TransactionManager| {
                let now = env.now();
                (tm.create(now, timeout), 16)
            },
        )
    }

    pub fn join(
        &self,
        env: &mut Env,
        from: HostId,
        id: TxnId,
        participant: Participant,
    ) -> Result<Result<(), TxnError>, sensorcer_sim::topology::NetError> {
        env.call(
            from,
            self.service,
            ProtocolStack::Tcp,
            64,
            move |_env, tm: &mut TransactionManager| (tm.join(id, participant), 8),
        )
    }

    pub fn commit(
        &self,
        env: &mut Env,
        from: HostId,
        id: TxnId,
    ) -> Result<Result<(), TxnError>, sensorcer_sim::topology::NetError> {
        env.call(
            from,
            self.service,
            ProtocolStack::Tcp,
            16,
            move |env, tm: &mut TransactionManager| (tm.commit(env, id), 8),
        )
    }

    pub fn abort(
        &self,
        env: &mut Env,
        from: HostId,
        id: TxnId,
    ) -> Result<Result<(), TxnError>, sensorcer_sim::topology::NetError> {
        env.call(
            from,
            self.service,
            ProtocolStack::Tcp,
            16,
            move |env, tm: &mut TransactionManager| (tm.abort(env, id), 8),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorcer_sim::prelude::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A fake resource that stages writes and applies them at commit.
    #[derive(Default, Debug)]
    struct Ledger {
        staged: Option<i64>,
        value: i64,
        vote: Option<Vote>, // None = Prepared
    }

    fn participant(host: HostId, ledger: &Rc<RefCell<Ledger>>) -> Participant {
        let l1 = Rc::clone(ledger);
        let l2 = Rc::clone(ledger);
        let l3 = Rc::clone(ledger);
        Participant {
            host,
            prepare: Box::new(move |_env, _id| l1.borrow().vote.unwrap_or(Vote::Prepared)),
            commit: Box::new(move |_env, _id| {
                let mut l = l2.borrow_mut();
                if let Some(v) = l.staged.take() {
                    l.value = v;
                }
            }),
            abort: Box::new(move |_env, _id| {
                l3.borrow_mut().staged = None;
            }),
        }
    }

    fn setup() -> (Env, HostId, HostId, HostId, TmHandle) {
        let mut env = Env::with_seed(1);
        let tm_host = env.add_host("tm", HostKind::Server);
        let a = env.add_host("a", HostKind::Server);
        let b = env.add_host("b", HostKind::Server);
        let tm = TransactionManager::deploy(
            &mut env,
            tm_host,
            "Transaction Manager",
            SimDuration::from_secs(1),
        );
        (env, tm_host, a, b, tm)
    }

    #[test]
    fn successful_two_phase_commit() {
        let (mut env, _tmh, a, b, tm) = setup();
        let la = Rc::new(RefCell::new(Ledger {
            staged: Some(10),
            ..Default::default()
        }));
        let lb = Rc::new(RefCell::new(Ledger {
            staged: Some(20),
            ..Default::default()
        }));
        let id = tm.create(&mut env, a, SimDuration::from_secs(30)).unwrap();
        tm.join(&mut env, a, id, participant(a, &la))
            .unwrap()
            .unwrap();
        tm.join(&mut env, b, id, participant(b, &lb))
            .unwrap()
            .unwrap();
        tm.commit(&mut env, a, id).unwrap().unwrap();
        assert_eq!(la.borrow().value, 10);
        assert_eq!(lb.borrow().value, 20);
        env.with_service(tm.service, |_e, t: &mut TransactionManager| {
            assert_eq!(t.state(id), Some(TxnState::Committed));
            assert_eq!(t.committed_total(), 1);
        })
        .unwrap();
    }

    #[test]
    fn abort_vote_rolls_everyone_back() {
        let (mut env, _tmh, a, b, tm) = setup();
        let la = Rc::new(RefCell::new(Ledger {
            staged: Some(10),
            ..Default::default()
        }));
        let lb = Rc::new(RefCell::new(Ledger {
            staged: Some(20),
            vote: Some(Vote::Abort),
            ..Default::default()
        }));
        let id = tm.create(&mut env, a, SimDuration::from_secs(30)).unwrap();
        tm.join(&mut env, a, id, participant(a, &la))
            .unwrap()
            .unwrap();
        tm.join(&mut env, b, id, participant(b, &lb))
            .unwrap()
            .unwrap();
        let err = tm.commit(&mut env, a, id).unwrap().unwrap_err();
        assert_eq!(err, TxnError::Aborted);
        assert_eq!(la.borrow().value, 0, "staged write must be rolled back");
        assert_eq!(la.borrow().staged, None);
        assert_eq!(lb.borrow().value, 0);
    }

    #[test]
    fn unreachable_participant_aborts() {
        let (mut env, _tmh, a, b, tm) = setup();
        let la = Rc::new(RefCell::new(Ledger {
            staged: Some(10),
            ..Default::default()
        }));
        let lb = Rc::new(RefCell::new(Ledger {
            staged: Some(20),
            ..Default::default()
        }));
        let id = tm.create(&mut env, a, SimDuration::from_secs(30)).unwrap();
        tm.join(&mut env, a, id, participant(a, &la))
            .unwrap()
            .unwrap();
        tm.join(&mut env, b, id, participant(b, &lb))
            .unwrap()
            .unwrap();
        env.crash_host(b);
        let err = tm.commit(&mut env, a, id).unwrap().unwrap_err();
        assert_eq!(err, TxnError::Aborted);
        assert_eq!(la.borrow().value, 0);
    }

    #[test]
    fn double_commit_rejected() {
        let (mut env, _tmh, a, _b, tm) = setup();
        let la = Rc::new(RefCell::new(Ledger {
            staged: Some(1),
            ..Default::default()
        }));
        let id = tm.create(&mut env, a, SimDuration::from_secs(30)).unwrap();
        tm.join(&mut env, a, id, participant(a, &la))
            .unwrap()
            .unwrap();
        tm.commit(&mut env, a, id).unwrap().unwrap();
        assert_eq!(
            tm.commit(&mut env, a, id).unwrap(),
            Err(TxnError::NotActive)
        );
        assert_eq!(tm.abort(&mut env, a, id).unwrap(), Err(TxnError::NotActive));
        assert_eq!(
            tm.commit(&mut env, a, TxnId(999)).unwrap(),
            Err(TxnError::Unknown)
        );
    }

    #[test]
    fn deadline_reaper_aborts_stale_transactions() {
        let (mut env, _tmh, a, _b, tm) = setup();
        let la = Rc::new(RefCell::new(Ledger {
            staged: Some(1),
            ..Default::default()
        }));
        let id = tm.create(&mut env, a, SimDuration::from_secs(5)).unwrap();
        tm.join(&mut env, a, id, participant(a, &la))
            .unwrap()
            .unwrap();
        env.run_for(SimDuration::from_secs(10));
        env.with_service(tm.service, |_e, t: &mut TransactionManager| {
            assert_eq!(t.state(id), Some(TxnState::Aborted));
            assert_eq!(t.aborted_total(), 1);
        })
        .unwrap();
        assert_eq!(
            la.borrow().staged,
            None,
            "reaped abort reaches participants"
        );
    }

    #[test]
    fn explicit_abort() {
        let (mut env, _tmh, a, _b, tm) = setup();
        let la = Rc::new(RefCell::new(Ledger {
            staged: Some(1),
            ..Default::default()
        }));
        let id = tm.create(&mut env, a, SimDuration::from_secs(30)).unwrap();
        tm.join(&mut env, a, id, participant(a, &la))
            .unwrap()
            .unwrap();
        tm.abort(&mut env, a, id).unwrap().unwrap();
        assert_eq!(la.borrow().staged, None);
    }

    #[test]
    fn join_after_finish_rejected() {
        let (mut env, _tmh, a, _b, tm) = setup();
        let la = Rc::new(RefCell::new(Ledger::default()));
        let id = tm.create(&mut env, a, SimDuration::from_secs(30)).unwrap();
        tm.commit(&mut env, a, id).unwrap().unwrap(); // empty txn commits
        let res = tm.join(&mut env, a, id, participant(a, &la)).unwrap();
        assert_eq!(res, Err(TxnError::NotActive));
    }
}
