//! Joining the federation: [`join`] registers a provider's item and, with
//! a lease renewal service (Jini infrastructure visible in the paper's
//! Fig. 2 service listing), keeps it registered for as long as the
//! provider is deployed, after Jini's `JoinManager`.
//!
//! Leases are renewed "periodically by their service provider" (§IV.B) —
//! here, by the renewal service acting for the provider. While the
//! provider's host is down the renewal is skipped, so a dead provider's
//! lease lapses and its registration evaporates: the self-cleaning the
//! paper relies on. Once the host is back the item is registered again
//! under its old uuid ("when it is up the node is immediately
//! available"), and once the provider is undeployed its lease is
//! cancelled and the join ends.

use std::sync::Arc;

use sensorcer_sim::conn::Connection;
use sensorcer_sim::env::{Env, ServiceId};
use sensorcer_sim::time::SimDuration;
use sensorcer_sim::topology::{HostId, NetError};

use crate::item::ServiceItem;
use crate::lease::Lease;
use crate::lus::{LusHandle, ServiceRegistration};

/// A deployed renewal service: its statistics, and the one connection its
/// renewals and cancels ride to the lookup service, shared by every join
/// it serves.
#[derive(Debug, Default)]
pub struct LeaseRenewalService {
    renewals_ok: u64,
    renewals_failed: u64,
    link: Connection,
}

impl LeaseRenewalService {
    /// Deploy on `host`.
    pub fn deploy(env: &mut Env, host: HostId, name: &str) -> RenewalHandle {
        let service = env.deploy(host, name, LeaseRenewalService::default());
        RenewalHandle { service, host }
    }

    /// Ticks that left the lease held: renewed, or registered again.
    pub fn renewals_ok(&self) -> u64 {
        self.renewals_ok
    }

    /// Ticks that did not: the owner's host was down, or the lookup
    /// service could not be reached.
    pub fn renewals_failed(&self) -> u64 {
        self.renewals_failed
    }
}

/// Handle to a deployed renewal service.
#[derive(Clone, Copy, Debug)]
pub struct RenewalHandle {
    pub service: ServiceId,
    pub host: HostId,
}

/// Register `item` with `lus` from its own host for `lease` (`None`: the
/// registry's default), and with a `renewer`, keep it registered while
/// `item.service` is deployed.
///
/// The renewer renews every third of the lease, so one missed tick still
/// leaves a covering renewal before expiry. A tick while the owner's host
/// is down is skipped. When the lookup service reports the lease gone, or
/// the host is back after the lease lapsed, the item is registered again
/// under its uuid. Once the service is undeployed the lease is cancelled
/// and the join ends. The item kept for that is the one the registry
/// holds, shared, not a copy: attributes edited at the registry since
/// are not what a rejoin restores.
///
/// Renewals and the cancel ride the renewer's one connection to the
/// lookup service, whichever join they serve; a rejoin registers from the
/// owner's host, one-shot. An undeployed renewer renews nothing.
///
/// Without a renewer the registration lives out its lease. Nothing is
/// joined if the first registration fails.
pub fn join(
    env: &mut Env,
    lus: LusHandle,
    item: ServiceItem,
    lease: Option<SimDuration>,
    renewer: Option<RenewalHandle>,
) -> Result<ServiceRegistration, NetError> {
    let (reg, item) = lus.register_shared(env, item.host, Arc::new(item), lease)?;
    let Some(renewer) = renewer else {
        return Ok(reg);
    };
    let term = lease.unwrap_or_else(|| reg.lease.remaining(env.now()));
    let interval = SimDuration::from_nanos((term.as_nanos() / 3).max(1));
    let mut lease = reg.lease;
    env.schedule_every(interval, interval, move |env| {
        let Some(owner) = env.service_host(item.service) else {
            // Undeployed: the registration goes with the service.
            let _ = env.with_service(renewer.service, |env, s: &mut LeaseRenewalService| {
                lus.cancel_over(env, renewer.host, &mut s.link, lease.id)
            });
            return false;
        };
        let _ = env.with_service(renewer.service, |env, s: &mut LeaseRenewalService| {
            let held = if !env.topo.is_alive(owner) {
                None
            } else if env.now() >= lease.expires {
                rejoin(env, lus, owner, &item, term)
            } else {
                match lus.renew_over(env, renewer.host, &mut s.link, lease.id, Some(term)) {
                    Ok(Ok(renewed)) => Some(renewed),
                    Ok(Err(_)) => rejoin(env, lus, owner, &item, term),
                    // The lookup service was unreachable: try again next tick.
                    Err(_) => None,
                }
            };
            match held {
                Some(held) => {
                    lease = held;
                    s.renewals_ok += 1;
                }
                None => s.renewals_failed += 1,
            }
        });
        true
    });
    Ok(reg)
}

/// Register `item` again from its host `owner`, under its uuid.
fn rejoin(
    env: &mut Env,
    lus: LusHandle,
    owner: HostId,
    item: &Arc<ServiceItem>,
    term: SimDuration,
) -> Option<Lease> {
    lus.register_shared(env, owner, Arc::clone(item), Some(term))
        .ok()
        .map(|(reg, _)| reg.lease)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::SvcUuid;
    use crate::item::ServiceTemplate;
    use crate::lease::LeasePolicy;
    use crate::lus::LookupService;
    use sensorcer_sim::prelude::*;

    const LEASE: SimDuration = SimDuration::from_secs(4);

    /// A provider on `mote` joined with a renewer, and what it registered.
    fn setup() -> (Env, HostId, LusHandle, RenewalHandle, ServiceRegistration) {
        let mut env = Env::with_seed(1);
        let lab = env.add_host("lab", HostKind::Server);
        let mote = env.add_host("mote", HostKind::SensorMote);
        let lus = LookupService::deploy(
            &mut env,
            lab,
            "LUS",
            "public",
            LeasePolicy::default(),
            SimDuration::from_millis(500),
        );
        let renewal = LeaseRenewalService::deploy(&mut env, lab, "Lease Renewal Service");
        let service = env.deploy(mote, "N", ());
        let item = ServiceItem::provider(mote, service, &[], "N", "ELEMENTARY");
        let reg = join(&mut env, lus, item, Some(LEASE), Some(renewal)).unwrap();
        (env, mote, lus, renewal, reg)
    }

    /// The uuids listed under the name `N`.
    fn listed(env: &mut Env, lus: LusHandle) -> Vec<SvcUuid> {
        let found = lus.lookup(env, lus.host, &ServiceTemplate::by_name("N"), 10);
        found.unwrap().iter().map(|item| item.uuid).collect()
    }

    fn stats(env: &mut Env, renewal: RenewalHandle) -> (u64, u64) {
        env.with_service(renewal.service, |_e, s: &mut LeaseRenewalService| {
            (s.renewals_ok(), s.renewals_failed())
        })
        .unwrap()
    }

    #[test]
    fn managed_lease_outlives_its_duration() {
        let (mut env, _, lus, renewal, reg) = setup();
        env.run_for(SimDuration::from_secs(60));
        assert_eq!(listed(&mut env, lus), vec![reg.uuid]);
        assert_eq!(
            stats(&mut env, renewal),
            (44, 0),
            "renewed every third of the lease"
        );
    }

    #[test]
    fn dead_owner_lapses_out_of_the_registry() {
        let (mut env, mote, lus, renewal, reg) = setup();
        env.crash_host(mote);
        env.run_for(LEASE * 3);
        assert_eq!(
            listed(&mut env, lus),
            vec![],
            "the dead provider's item evaporates"
        );
        assert_eq!(
            stats(&mut env, renewal).1,
            9,
            "the ticks while down are skipped"
        );
        // Back up: it rejoins under its uuid at its next tick.
        env.restart_host(mote);
        env.run_for(LEASE / 3);
        assert_eq!(listed(&mut env, lus), vec![reg.uuid]);
    }

    #[test]
    fn a_lease_the_lus_forgot_is_taken_again() {
        let (mut env, _, lus, renewal, reg) = setup();
        lus.cancel(&mut env, lus.host, reg.lease.id)
            .unwrap()
            .unwrap();
        assert_eq!(listed(&mut env, lus), vec![]);
        env.run_for(LEASE / 3);
        assert_eq!(listed(&mut env, lus), vec![reg.uuid]);
        assert_eq!(stats(&mut env, renewal).1, 0);
    }

    #[test]
    fn undeploying_the_provider_ends_its_join() {
        let (mut env, _, lus, renewal, _) = setup();
        env.run_for(SimDuration::from_secs(10));
        let provider = env.find_service("N").unwrap();
        assert!(env.undeploy(provider));
        env.run_for(LEASE / 3);
        assert_eq!(
            listed(&mut env, lus),
            vec![],
            "cancelled, not left to lapse"
        );
        let ended = stats(&mut env, renewal);
        env.run_for(SimDuration::from_secs(20));
        assert_eq!(
            stats(&mut env, renewal),
            ended,
            "no tick after the join ended"
        );
    }
}
