//! The exertion space — a tuple space for pull-mode federations.
//!
//! SORCER's *spacers* coordinate job execution through a JavaSpaces-style
//! shared space: the coordinator writes task entries, idle providers take
//! entries matching their interface, execute them, and write results back
//! (§IV.D's rendezvous peers). Pull mode load-balances by construction:
//! whichever provider is free takes the next entry.

use std::collections::BTreeMap;

use sensorcer_sim::env::{Env, RepeatHandle, ServiceId};
use sensorcer_sim::time::{SimDuration, SimTime};
use sensorcer_sim::topology::{HostId, NetError};
use sensorcer_sim::wire::ProtocolStack;

use crate::exertion::{Exertion, Task};
use crate::servicer::{exert_on, ServicerBox};

/// Metric keys bumped by space workers.
pub mod keys {
    /// Worker polls that could not reach the space (per worker host).
    pub const SPACE_UNREACHABLE: &str = "exertion.space.unreachable";
}

/// Identifier of a task entry in the space.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EntryId(pub u64);

/// Default lifetime of a written entry — like JavaSpaces, every entry is
/// leased and evaporates if nobody takes it (a crashed coordinator must
/// not leak tasks forever).
pub const DEFAULT_ENTRY_TTL: SimDuration = SimDuration::from_secs(120);

/// The space service.
#[derive(Debug, Default)]
pub struct ExertionSpace {
    next: u64,
    /// Written task entries, not yet taken, in write order, each with its
    /// lease expiry.
    pending: Vec<(EntryId, Task, SimTime)>,
    /// Completed results awaiting collection, each with its lease expiry.
    done: BTreeMap<EntryId, (Task, SimTime)>,
    writes_total: u64,
    takes_total: u64,
    expired_total: u64,
}

impl ExertionSpace {
    pub fn new() -> ExertionSpace {
        ExertionSpace::default()
    }

    /// Deploy a space on `host` with an entry-lease reaper.
    pub fn deploy(env: &mut Env, host: HostId, name: &str) -> SpaceHandle {
        let service = env.deploy(host, name, ExertionSpace::new());
        let reap_every = SimDuration::from_secs(1);
        env.schedule_every(reap_every, reap_every, move |env| {
            let now = env.now();
            env.with_service(service, |_e, sp: &mut ExertionSpace| sp.reap(now))
                .is_ok()
        });
        SpaceHandle { service, host }
    }

    fn write(&mut self, task: Task, expires: SimTime) -> EntryId {
        let id = EntryId(self.next);
        self.next += 1;
        self.pending.push((id, task, expires));
        self.writes_total += 1;
        id
    }

    /// Drop entries and results whose leases have lapsed.
    pub fn reap(&mut self, now: SimTime) {
        let before = self.pending.len() + self.done.len();
        self.pending.retain(|(_, _, exp)| now < *exp);
        self.done.retain(|_, (_, exp)| now < *exp);
        self.expired_total += (before - (self.pending.len() + self.done.len())) as u64;
    }

    pub fn expired_total(&self) -> u64 {
        self.expired_total
    }

    fn take_matching(&mut self, interface: &str) -> Option<(EntryId, Task)> {
        let pos = self
            .pending
            .iter()
            .position(|(_, t, _)| &*t.signature.interface == interface)?;
        self.takes_total += 1;
        let (id, task, _) = self.pending.remove(pos);
        Some((id, task))
    }

    fn put_result(&mut self, id: EntryId, task: Task, expires: SimTime) {
        self.done.insert(id, (task, expires));
    }

    fn take_result(&mut self, id: EntryId) -> Option<Task> {
        self.done.remove(&id).map(|(t, _)| t)
    }

    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    pub fn done_count(&self) -> usize {
        self.done.len()
    }

    pub fn writes_total(&self) -> u64 {
        self.writes_total
    }

    pub fn takes_total(&self) -> u64 {
        self.takes_total
    }
}

/// Remote handle to a deployed space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpaceHandle {
    pub service: ServiceId,
    pub host: HostId,
}

impl SpaceHandle {
    /// Write a task entry under the default entry lease.
    pub fn write(&self, env: &mut Env, from: HostId, task: Task) -> Result<EntryId, NetError> {
        self.write_with_ttl(env, from, task, DEFAULT_ENTRY_TTL)
    }

    /// Write a task entry whose lease lapses after `ttl`.
    pub fn write_with_ttl(
        &self,
        env: &mut Env,
        from: HostId,
        task: Task,
        ttl: SimDuration,
    ) -> Result<EntryId, NetError> {
        let req = task.wire_size();
        env.call(
            from,
            self.service,
            ProtocolStack::Tcp,
            req,
            move |env, sp: &mut ExertionSpace| {
                let expires = env.now() + ttl;
                (sp.write(task, expires), 16)
            },
        )
    }

    /// Take (destructively) the oldest entry whose signature interface is
    /// `interface`, if any.
    pub fn take_matching(
        &self,
        env: &mut Env,
        from: HostId,
        interface: &str,
    ) -> Result<Option<(EntryId, Task)>, NetError> {
        let interface = interface.to_string();
        env.call(
            from,
            self.service,
            ProtocolStack::Tcp,
            48,
            move |_env, sp: &mut ExertionSpace| {
                let taken = sp.take_matching(&interface);
                let resp = taken.as_ref().map_or(8, |(_, t)| t.wire_size() + 16);
                (taken, resp)
            },
        )
    }

    /// Write back a completed task.
    pub fn put_result(
        &self,
        env: &mut Env,
        from: HostId,
        id: EntryId,
        task: Task,
    ) -> Result<(), NetError> {
        let req = task.wire_size() + 16;
        env.call(
            from,
            self.service,
            ProtocolStack::Tcp,
            req,
            move |env, sp: &mut ExertionSpace| {
                let expires = env.now() + DEFAULT_ENTRY_TTL;
                sp.put_result(id, task, expires);
                ((), 8)
            },
        )
    }

    /// Collect a result if ready.
    pub fn take_result(
        &self,
        env: &mut Env,
        from: HostId,
        id: EntryId,
    ) -> Result<Option<Task>, NetError> {
        env.call(
            from,
            self.service,
            ProtocolStack::Tcp,
            24,
            move |_env, sp: &mut ExertionSpace| {
                let t = sp.take_result(id);
                let resp = t.as_ref().map_or(8, Task::wire_size);
                (t, resp)
            },
        )
    }
}

/// Attach a space worker to a provider: a timer on the provider's host
/// that polls the space for entries matching `interface`, executes them on
/// the provider, and writes results back. Returns the handle controlling
/// the worker.
///
/// This is the provider-side half of pull-mode federation: "whichever
/// service peer is free takes the next task".
pub fn attach_worker(
    env: &mut Env,
    provider: ServiceId,
    space: SpaceHandle,
    poll: SimDuration,
) -> RepeatHandle {
    let interface_host = env.service_host(provider);
    env.schedule_every(poll, poll, move |env| {
        let Some(host) = interface_host else {
            return false;
        };
        // Stop polling if the provider is gone; pause while its host is
        // down (the entry stays in the space for someone else).
        if env.service_host(provider).is_none() {
            return false;
        }
        if !env.topo.is_alive(host) {
            return true;
        }
        // What interface does the provider serve? Ask it locally.
        let Ok(interface) = env.with_service(provider, |_env, sb: &mut ServicerBox| {
            sb.downcast_mut::<crate::servicer::Tasker>()
                .map(|t| t.interface().to_string())
        }) else {
            return false;
        };
        let Some(interface) = interface else {
            return false;
        };
        match space.take_matching(env, host, &interface) {
            Ok(Some((id, task))) => {
                let name = task.name.clone();
                match exert_on(env, host, provider, task.into(), None) {
                    Ok(Exertion::Task(done)) => {
                        let _ = space.put_result(env, host, id, done);
                    }
                    Ok(Exertion::Job(_)) => unreachable!("wrote a task, got a job"),
                    Err(_) => {
                        // Provider unreachable mid-poll: re-inject a failed
                        // marker so the coordinator is not left waiting.
                        let mut failed = Task::new(
                            name,
                            crate::exertion::Signature::new(interface.clone(), "getValue"),
                            crate::context::Context::new(),
                        );
                        failed.fail("worker lost its provider");
                        let _ = space.put_result(env, host, id, failed);
                    }
                }
                true
            }
            Ok(None) => true,
            Err(_) => {
                // Space unreachable this round; retry later — but count it
                // per host so a soak run can see a stalled worker instead
                // of a silently idle one.
                env.metrics.add_host(host, keys::SPACE_UNREACHABLE, 1);
                true
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{paths, Context};
    use crate::exertion::Signature;
    use crate::servicer::Tasker;
    use sensorcer_sim::prelude::*;

    fn doubler(name: &str) -> ServicerBox {
        ServicerBox::new(
            Tasker::new(name, "Math").on("double", |_env, ctx: &mut Context| {
                let x = ctx.get_f64("arg/x").ok_or("missing arg/x")?;
                ctx.put(paths::RESULT, 2.0 * x);
                Ok(())
            }),
        )
    }

    fn double_task(name: &str, x: f64) -> Task {
        Task::new(
            name,
            Signature::new("Math", "double"),
            Context::new().with("arg/x", x),
        )
    }

    #[test]
    fn write_take_result_cycle() {
        let mut env = Env::with_seed(1);
        let h = env.add_host("h", HostKind::Server);
        let space = ExertionSpace::deploy(&mut env, h, "Exertion Space");

        let id = space.write(&mut env, h, double_task("t1", 5.0)).unwrap();
        // Nothing matching a different interface.
        assert!(space.take_matching(&mut env, h, "Other").unwrap().is_none());
        let (tid, task) = space.take_matching(&mut env, h, "Math").unwrap().unwrap();
        assert_eq!(tid, id);
        assert_eq!(&*task.name, "t1");
        // Result not ready yet.
        assert!(space.take_result(&mut env, h, id).unwrap().is_none());
        space.put_result(&mut env, h, id, task).unwrap();
        assert!(space.take_result(&mut env, h, id).unwrap().is_some());
        // Results are consumed.
        assert!(space.take_result(&mut env, h, id).unwrap().is_none());
    }

    #[test]
    fn entries_are_taken_oldest_first() {
        let mut env = Env::with_seed(2);
        let h = env.add_host("h", HostKind::Server);
        let space = ExertionSpace::deploy(&mut env, h, "space");
        space.write(&mut env, h, double_task("first", 1.0)).unwrap();
        space
            .write(&mut env, h, double_task("second", 2.0))
            .unwrap();
        let (_, t) = space.take_matching(&mut env, h, "Math").unwrap().unwrap();
        assert_eq!(&*t.name, "first");
    }

    #[test]
    fn worker_drains_space_and_returns_results() {
        let mut env = Env::with_seed(3);
        let space_host = env.add_host("space", HostKind::Server);
        let worker_host = env.add_host("worker", HostKind::Server);
        let client = env.add_host("client", HostKind::Workstation);
        let space = ExertionSpace::deploy(&mut env, space_host, "space");
        let provider = env.deploy(worker_host, "Doubler", doubler("Doubler"));
        attach_worker(&mut env, provider, space, SimDuration::from_millis(50));

        let ids: Vec<EntryId> = (0..4)
            .map(|i| {
                space
                    .write(&mut env, client, double_task(&format!("t{i}"), i as f64))
                    .unwrap()
            })
            .collect();
        env.run_for(SimDuration::from_secs(2));
        for (i, id) in ids.iter().enumerate() {
            let done = space
                .take_result(&mut env, client, *id)
                .unwrap()
                .expect("result ready");
            assert!(done.status.is_done());
            assert_eq!(done.context.get_f64(paths::RESULT), Some(2.0 * i as f64));
        }
        env.with_service(space.service, |_e, sp: &mut ExertionSpace| {
            assert_eq!(sp.pending_count(), 0);
            assert_eq!(sp.writes_total(), 4);
            assert_eq!(sp.takes_total(), 4);
        })
        .unwrap();
    }

    #[test]
    fn two_workers_share_the_load() {
        let mut env = Env::with_seed(4);
        let space_host = env.add_host("space", HostKind::Server);
        let space = ExertionSpace::deploy(&mut env, space_host, "space");
        let mut providers = Vec::new();
        for i in 0..2 {
            let h = env.add_host(format!("w{i}"), HostKind::Server);
            let p = env.deploy(h, format!("Doubler-{i}"), doubler(&format!("Doubler-{i}")));
            attach_worker(&mut env, p, space, SimDuration::from_millis(50));
            providers.push(p);
        }
        let ids: Vec<EntryId> = (0..10)
            .map(|i| {
                space
                    .write(
                        &mut env,
                        space_host,
                        double_task(&format!("t{i}"), i as f64),
                    )
                    .unwrap()
            })
            .collect();
        env.run_for(SimDuration::from_secs(5));
        let mut served = [0u64; 2];
        for (i, p) in providers.iter().enumerate() {
            served[i] = env
                .with_service(*p, |_e, sb: &mut ServicerBox| {
                    sb.downcast_mut::<Tasker>().unwrap().tasks_served()
                })
                .unwrap();
        }
        assert_eq!(served[0] + served[1], 10, "all entries executed");
        assert!(
            served[0] > 0 && served[1] > 0,
            "both workers participate: {served:?}"
        );
        for id in ids {
            assert!(space
                .take_result(&mut env, space_host, id)
                .unwrap()
                .is_some());
        }
    }

    #[test]
    fn worker_pauses_while_host_down_and_entry_survives() {
        let mut env = Env::with_seed(5);
        let space_host = env.add_host("space", HostKind::Server);
        let worker_host = env.add_host("worker", HostKind::Server);
        let space = ExertionSpace::deploy(&mut env, space_host, "space");
        let provider = env.deploy(worker_host, "Doubler", doubler("Doubler"));
        attach_worker(&mut env, provider, space, SimDuration::from_millis(50));

        env.crash_host(worker_host);
        let id = space
            .write(&mut env, space_host, double_task("t", 3.0))
            .unwrap();
        env.run_for(SimDuration::from_secs(2));
        assert!(
            space
                .take_result(&mut env, space_host, id)
                .unwrap()
                .is_none(),
            "no one should have taken the entry"
        );
        env.restart_host(worker_host);
        env.run_for(SimDuration::from_secs(2));
        let done = space
            .take_result(&mut env, space_host, id)
            .unwrap()
            .expect("after restart");
        assert!(done.status.is_done());
    }

    #[test]
    fn unreachable_space_is_counted_instead_of_silent() {
        let mut env = Env::with_seed(9);
        let space_host = env.add_host("space", HostKind::Server);
        let worker_host = env.add_host("worker", HostKind::Server);
        let space = ExertionSpace::deploy(&mut env, space_host, "space");
        let provider = env.deploy(worker_host, "Doubler", doubler("Doubler"));
        attach_worker(&mut env, provider, space, SimDuration::from_millis(50));

        // Worker host is fine, but the space's host is unreachable: every
        // poll fails and must leave a per-host metric trail.
        env.topo.partition(worker_host, space_host);
        env.run_for(SimDuration::from_secs(1));
        let stalls = env.metrics.get_host(worker_host, keys::SPACE_UNREACHABLE);
        assert!(stalls > 0, "stalled polls must be counted");
        assert_eq!(
            env.metrics.get(keys::SPACE_UNREACHABLE),
            stalls,
            "global mirror"
        );

        // Healed: the worker resumes and the counter stops climbing.
        env.topo.heal(worker_host, space_host);
        let id = space
            .write(&mut env, space_host, double_task("t", 2.0))
            .unwrap();
        env.run_for(SimDuration::from_secs(1));
        assert_eq!(
            env.metrics.get_host(worker_host, keys::SPACE_UNREACHABLE),
            stalls
        );
        assert!(space
            .take_result(&mut env, space_host, id)
            .unwrap()
            .is_some());
    }

    #[test]
    fn worker_stops_when_provider_undeployed() {
        let mut env = Env::with_seed(6);
        let h = env.add_host("h", HostKind::Server);
        let space = ExertionSpace::deploy(&mut env, h, "space");
        let provider = env.deploy(h, "Doubler", doubler("Doubler"));
        attach_worker(&mut env, provider, space, SimDuration::from_millis(50));
        env.undeploy(provider);
        env.run_for(SimDuration::from_secs(1));
        // Only the space's own lease reaper remains; the worker timer is gone.
        assert_eq!(env.pending_timers(), 1, "worker timer must stop itself");
    }

    #[test]
    fn unclaimed_entries_expire_under_their_lease() {
        let mut env = Env::with_seed(7);
        let h = env.add_host("h", HostKind::Server);
        let space = ExertionSpace::deploy(&mut env, h, "space");
        let id = space
            .write_with_ttl(
                &mut env,
                h,
                double_task("t", 1.0),
                SimDuration::from_secs(5),
            )
            .unwrap();
        env.run_for(SimDuration::from_secs(3));
        env.with_service(space.service, |_e, sp: &mut ExertionSpace| {
            assert_eq!(sp.pending_count(), 1, "still leased");
        })
        .unwrap();
        env.run_for(SimDuration::from_secs(5));
        env.with_service(space.service, |_e, sp: &mut ExertionSpace| {
            assert_eq!(sp.pending_count(), 0, "lease lapsed, entry reaped");
            assert_eq!(sp.expired_total(), 1);
        })
        .unwrap();
        // Nobody can take it anymore.
        assert!(space.take_matching(&mut env, h, "Math").unwrap().is_none());
        let _ = id;
    }

    #[test]
    fn uncollected_results_also_expire() {
        let mut env = Env::with_seed(8);
        let h = env.add_host("h", HostKind::Server);
        let space = ExertionSpace::deploy(&mut env, h, "space");
        let id = space.write(&mut env, h, double_task("t", 1.0)).unwrap();
        let (tid, task) = space.take_matching(&mut env, h, "Math").unwrap().unwrap();
        space.put_result(&mut env, h, tid, task).unwrap();
        // Results live under DEFAULT_ENTRY_TTL; far later, they are gone.
        env.run_for(DEFAULT_ENTRY_TTL + SimDuration::from_secs(5));
        assert!(space.take_result(&mut env, h, id).unwrap().is_none());
    }
}
