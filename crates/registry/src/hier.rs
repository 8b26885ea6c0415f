//! Hierarchical lookup: per-subnet LUS shards under a root registry.
//!
//! SenSORCER's federation is a CSP tree — per-subnet composite sensor
//! providers aggregating elementary providers below them. The flat
//! [`LookupService`] mirrors a single Jini LUS; at 10⁵ motes every
//! interface query walks one giant posting set. This module shards the
//! registry the same way the federation itself shards: one LUS per
//! subnet, plus a [`RootRegistry`] mirroring the CSP tree that holds
//! only *summaries* — per-subnet interface counts fronted by a counting
//! Bloom filter — so `lookup_all_by_interface` fans out only to subnets
//! that can actually match.
//!
//! Summary maintenance is push-based: each subnet LUS gets a
//! summary sink (see [`LookupService::set_summary_sink`]) that forwards
//! posting-set deltas to the root over the simulated network. Deltas
//! that fail to deliver (root briefly unreachable) stay buffered and
//! ride along with the next delta from that subnet, so the root may
//! transiently *overcount* (benign: the fan-out query returns an empty
//! slice) but never undercounts once a flush succeeds — no false
//! negatives, which the churn tests below pin.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use sensorcer_sim::env::{Env, ServiceId};
use sensorcer_sim::topology::{HostId, NetError, SubnetId};
use sensorcer_sim::wire::ProtocolStack;

use crate::ids::{InterfaceId, SvcUuid};
use crate::lus::{LookupService, LusHandle};
use crate::postings::{fnv1a, FNV_OFFSET};

/// Counters in the per-subnet Bloom summary. Small and fixed: the root
/// holds one per subnet, and the filter only needs to screen interface
/// *names*, of which a federation has tens, not millions.
const BLOOM_SLOTS: usize = 256;

/// Seeds for the two FNV-1a hash functions. Deterministic — the summary
/// state is part of the simulation and must replay bit-identically.
const BLOOM_SEEDS: [u64; 2] = [FNV_OFFSET, 0x9747_b28c_8f2a_3b11];

/// A counting Bloom filter over interface names: O(1) membership screen
/// with deletions. May report a name it no longer holds (false positive)
/// but never misses one it does — exactly the asymmetry a routing
/// summary needs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CountingBloom {
    counters: Vec<u32>,
}

impl Default for CountingBloom {
    fn default() -> Self {
        CountingBloom {
            counters: vec![0; BLOOM_SLOTS],
        }
    }
}

impl CountingBloom {
    fn slots(name: &str) -> [usize; 2] {
        BLOOM_SEEDS.map(|seed| (fnv1a(seed, name.as_bytes()) % BLOOM_SLOTS as u64) as usize)
    }

    fn holds(&self, slots: [usize; 2]) -> bool {
        slots.iter().all(|&i| self.counters[i] > 0)
    }

    pub fn add(&mut self, name: &str) {
        for i in Self::slots(name) {
            self.counters[i] = self.counters[i].saturating_add(1);
        }
    }

    pub fn remove(&mut self, name: &str) {
        for i in Self::slots(name) {
            self.counters[i] = self.counters[i].saturating_sub(1);
        }
    }
}

/// What the root knows about one subnet: where its LUS is, and which
/// interfaces it currently serves (exact counts behind a Bloom screen).
struct SubnetEntry {
    lus: LusHandle,
    counts: BTreeMap<InterfaceId, i64>,
    bloom: CountingBloom,
}

/// The root of the hierarchical registry: a service holding only
/// subnet → interface summaries, never items. Deploy with
/// [`RootRegistry::deploy`]; query through [`HierHandle`].
pub struct RootRegistry {
    host: HostId,
    subnets: BTreeMap<SubnetId, SubnetEntry>,
}

impl RootRegistry {
    /// Deploy an empty root on `host`; attach subnets with
    /// [`HierHandle::attach_subnet`].
    pub fn deploy(env: &mut Env, host: HostId, name: &str) -> HierHandle {
        let root = RootRegistry {
            host,
            subnets: BTreeMap::new(),
        };
        let service = env.deploy(host, name, root);
        HierHandle { service, host }
    }

    fn attach(&mut self, subnet: SubnetId, lus: LusHandle, seed: Vec<(InterfaceId, u64)>) {
        let mut entry = SubnetEntry {
            lus,
            counts: BTreeMap::new(),
            bloom: CountingBloom::default(),
        };
        for (iface, n) in seed {
            if n > 0 {
                entry.bloom.add(iface.as_str());
                entry.counts.insert(iface, n as i64);
            }
        }
        self.subnets.insert(subnet, entry);
    }

    fn apply(&mut self, subnet: SubnetId, iface: &InterfaceId, delta: i64) {
        let Some(entry) = self.subnets.get_mut(&subnet) else {
            return;
        };
        let n = entry.counts.entry(iface.clone()).or_insert(0);
        let was_present = *n > 0;
        *n += delta;
        let is_present = *n > 0;
        if *n <= 0 {
            entry.counts.remove(iface);
        }
        match (was_present, is_present) {
            (false, true) => entry.bloom.add(iface.as_str()),
            (true, false) => entry.bloom.remove(iface.as_str()),
            _ => {}
        }
    }

    /// Subnets that can match `iface`: the Bloom summary screens first
    /// (the name hashed once per query, two counter reads per subnet), the
    /// exact count confirms. Sorted by subnet id for deterministic fan-out
    /// order.
    pub fn matching_subnets(&self, iface: &InterfaceId) -> Vec<(SubnetId, LusHandle)> {
        let slots = CountingBloom::slots(iface.as_str());
        let matching = || {
            self.subnets.iter().filter(move |(_, e)| {
                e.bloom.holds(slots) && e.counts.get(iface).is_some_and(|&n| n > 0)
            })
        };
        let mut out = Vec::with_capacity(matching().count());
        out.extend(matching().map(|(&s, e)| (s, e.lus)));
        out
    }
}

impl std::fmt::Debug for RootRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RootRegistry")
            .field("host", &self.host)
            .field("subnets", &self.subnets.len())
            .finish()
    }
}

/// Client-side handle to the hierarchical registry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierHandle {
    pub service: ServiceId,
    pub host: HostId,
}

impl HierHandle {
    /// Attach a subnet LUS under the root: seed the root's summary with
    /// the LUS's current posting counts, then install a summary sink on
    /// the LUS that pushes every subsequent delta to the root over the
    /// network (buffered and retried on failure, so a reachable root
    /// never misses a registration).
    pub fn attach_subnet(
        &self,
        env: &mut Env,
        subnet: SubnetId,
        lus: LusHandle,
    ) -> Result<(), NetError> {
        let seed = env.with_service(lus.service, |_env, l: &mut LookupService| {
            l.interface_counts()
        })?;
        let root_service = self.service;
        env.with_service(root_service, |_env, r: &mut RootRegistry| {
            r.attach(subnet, lus, seed)
        })?;

        let pending: Rc<RefCell<Vec<(InterfaceId, i64)>>> = Rc::new(RefCell::new(Vec::new()));
        let from = lus.host;
        env.with_service(lus.service, |_env, l: &mut LookupService| {
            l.set_summary_sink(move |env, iface, delta| {
                pending.borrow_mut().push((iface.clone(), delta));
                let batch: Vec<(InterfaceId, i64)> = pending.borrow().clone();
                let bytes = 8 + batch.iter().map(|(i, _)| i.wire_size() + 8).sum::<usize>();
                let sent = env.call(
                    from,
                    root_service,
                    ProtocolStack::Tcp,
                    bytes,
                    move |_env, r: &mut RootRegistry| {
                        for (iface, delta) in &batch {
                            r.apply(subnet, iface, *delta);
                        }
                        ((), 8)
                    },
                );
                if sent.is_ok() {
                    pending.borrow_mut().clear();
                }
            })
        })?;
        Ok(())
    }

    /// The subnets the root believes can serve `iface` (remote query).
    pub fn matching_subnets(
        &self,
        env: &mut Env,
        from: HostId,
        iface: &InterfaceId,
    ) -> Result<Vec<(SubnetId, LusHandle)>, NetError> {
        let req = iface.wire_size() + 8;
        env.call(
            from,
            self.service,
            ProtocolStack::Tcp,
            req,
            |_env, r: &mut RootRegistry| {
                let subnets = r.matching_subnets(iface);
                let resp = (subnets.len() * 12).max(8);
                (subnets, resp)
            },
        )
    }

    /// Federation-wide interface query: ask the root which subnets can
    /// match, then fan out **only to those**, collecting each subnet's
    /// shared uuid slice. Cost scales with the number of *matching*
    /// subnets, not the federation size — the sub-linear curve B9 pins.
    ///
    /// Subnets that fail mid-fan-out (crash, partition) are skipped —
    /// the federation answer is what the reachable subnets can serve.
    pub fn lookup_all_by_interface(
        &self,
        env: &mut Env,
        from: HostId,
        iface: &InterfaceId,
    ) -> Result<Vec<(SubnetId, Arc<[SvcUuid]>)>, NetError> {
        let subnets = self.matching_subnets(env, from, iface)?;
        let mut out = Vec::with_capacity(subnets.len());
        for (subnet, lus) in subnets {
            match lus.lookup_interface_uuids(env, from, iface) {
                Ok(uuids) if !uuids.is_empty() => out.push((subnet, uuids)),
                Ok(_) | Err(_) => {}
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Entry;
    use crate::ids::interfaces;
    use crate::item::{ServiceItem, ServiceTemplate};
    use crate::lease::LeasePolicy;
    use sensorcer_sim::prelude::*;

    /// The root's current belief about a subnet's posting count for
    /// `iface` (0 when unknown).
    fn summary_count(r: &RootRegistry, subnet: SubnetId, iface: &InterfaceId) -> i64 {
        r.subnets
            .get(&subnet)
            .and_then(|e| e.counts.get(iface).copied())
            .unwrap_or(0)
    }

    fn sensor_item(name: &str, host: HostId, svc: u64, iface: &str) -> ServiceItem {
        ServiceItem::new(
            crate::ids::SvcUuid::NIL,
            host,
            ServiceId(svc),
            vec![iface.into()],
            vec![Entry::Name(name.into())],
        )
    }

    /// Three subnets, each with a LUS, all attached under one root.
    fn federation(env: &mut Env) -> (HostId, HierHandle, Vec<(HostId, LusHandle)>) {
        let root_host = env.add_host("root", HostKind::Server);
        let client = env.add_host("client", HostKind::Workstation);
        let root = RootRegistry::deploy(env, root_host, "RootRegistry");
        let mut subnets = Vec::new();
        for i in 0..3u32 {
            let h = env.add_host(format!("gw{i}"), HostKind::Server);
            env.topo.set_subnet(h, SubnetId(i));
            let lus = LookupService::deploy(
                env,
                h,
                &format!("LUS-{i}"),
                &format!("subnet-{i}"),
                LeasePolicy::default(),
                SimDuration::from_millis(500),
            );
            root.attach_subnet(env, SubnetId(i), lus).unwrap();
            subnets.push((h, lus));
        }
        (client, root, subnets)
    }

    /// Ground truth: ask every subnet LUS directly, keep non-empty.
    fn brute_force(
        env: &mut Env,
        from: HostId,
        subnets: &[(HostId, LusHandle)],
        iface: &InterfaceId,
    ) -> Vec<(SubnetId, Vec<SvcUuid>)> {
        let mut out = Vec::new();
        for (i, (_, lus)) in subnets.iter().enumerate() {
            let uuids = lus.lookup_interface_uuids(env, from, iface).unwrap();
            if !uuids.is_empty() {
                out.push((SubnetId(i as u32), uuids.to_vec()));
            }
        }
        out
    }

    fn hier_result(
        env: &mut Env,
        from: HostId,
        root: &HierHandle,
        iface: &InterfaceId,
    ) -> Vec<(SubnetId, Vec<SvcUuid>)> {
        root.lookup_all_by_interface(env, from, iface)
            .unwrap()
            .into_iter()
            .map(|(s, u)| (s, u.to_vec()))
            .collect()
    }

    #[test]
    fn fan_out_reaches_only_matching_subnets() {
        let mut env = Env::with_seed(11);
        let (client, root, subnets) = federation(&mut env);
        // Register a sensor in subnets 0 and 2 only.
        for &i in &[0usize, 2] {
            let (h, lus) = subnets[i];
            lus.register(
                &mut env,
                h,
                sensor_item(
                    &format!("S{i}"),
                    h,
                    10 + i as u64,
                    interfaces::SENSOR_DATA_ACCESSOR,
                ),
                None,
            )
            .unwrap();
        }
        let iface: InterfaceId = interfaces::SENSOR_DATA_ACCESSOR.into();
        let matched = root.matching_subnets(&mut env, client, &iface).unwrap();
        let ids: Vec<SubnetId> = matched.iter().map(|(s, _)| *s).collect();
        assert_eq!(ids, vec![SubnetId(0), SubnetId(2)], "subnet 1 screened out");

        let hier = hier_result(&mut env, client, &root, &iface);
        let brute = brute_force(&mut env, client, &subnets, &iface);
        assert_eq!(hier, brute);
        assert_eq!(hier.len(), 2);
        assert_eq!(hier[0].1.len(), 1);

        // Every subnet LUS self-registers as a LookupService, so that
        // interface matches everywhere.
        let lus_iface: InterfaceId = interfaces::LOOKUP_SERVICE.into();
        assert_eq!(
            root.matching_subnets(&mut env, client, &lus_iface)
                .unwrap()
                .len(),
            3,
            "seed snapshot captured pre-attach registrations"
        );
    }

    #[test]
    fn summaries_track_register_cancel_and_lease_expiry_churn() {
        let mut env = Env::with_seed(12);
        let (client, root, subnets) = federation(&mut env);
        let iface: InterfaceId = interfaces::SENSOR_DATA_ACCESSOR.into();
        let (h0, lus0) = subnets[0];

        // Register: summary appears after the push.
        let reg = lus0
            .register(
                &mut env,
                h0,
                sensor_item("A", h0, 1, interfaces::SENSOR_DATA_ACCESSOR),
                None,
            )
            .unwrap();
        env.with_service(root.service, |_e, r: &mut RootRegistry| {
            assert_eq!(summary_count(r, SubnetId(0), &iface), 1);
        })
        .unwrap();

        // Cancel: the -1 delta lands and the subnet stops matching.
        lus0.cancel(&mut env, h0, reg.lease.id).unwrap().unwrap();
        env.with_service(root.service, |_e, r: &mut RootRegistry| {
            assert_eq!(summary_count(r, SubnetId(0), &iface), 0);
            assert!(r.matching_subnets(&iface).is_empty());
        })
        .unwrap();

        // Lease expiry: the reaper's unindex pushes the -1 too.
        lus0.register(
            &mut env,
            h0,
            sensor_item("B", h0, 2, interfaces::SENSOR_DATA_ACCESSOR),
            Some(SimDuration::from_secs(2)),
        )
        .unwrap();
        env.with_service(root.service, |_e, r: &mut RootRegistry| {
            assert_eq!(summary_count(r, SubnetId(0), &iface), 1);
        })
        .unwrap();
        env.run_for(SimDuration::from_secs(4));
        env.with_service(root.service, |_e, r: &mut RootRegistry| {
            assert_eq!(summary_count(r, SubnetId(0), &iface), 0);
        })
        .unwrap();
        assert!(hier_result(&mut env, client, &root, &iface).is_empty());
    }

    #[test]
    fn differential_brute_force_vs_hierarchical_under_random_churn() {
        let mut env = Env::with_seed(13);
        let (client, root, subnets) = federation(&mut env);
        let ifaces: Vec<InterfaceId> = vec![
            interfaces::SENSOR_DATA_ACCESSOR.into(),
            interfaces::CYBERNODE.into(),
            InterfaceId::new("RareProbe"),
        ];
        let mut rng = SimRng::new(0xD1FF);
        let mut live: Vec<(usize, crate::lease::LeaseId)> = Vec::new();
        for round in 0..40u64 {
            let si = (rng.next_u64() % 3) as usize;
            let (h, lus) = subnets[si];
            if rng.chance(0.6) || live.is_empty() {
                let iface = &ifaces[(rng.next_u64() % ifaces.len() as u64) as usize];
                let lease_secs = 1 + rng.next_u64() % 6;
                let reg = lus
                    .register(
                        &mut env,
                        h,
                        sensor_item(&format!("r{round}"), h, 100 + round, iface.as_str()),
                        Some(SimDuration::from_secs(lease_secs)),
                    )
                    .unwrap();
                live.push((si, reg.lease.id));
            } else {
                let victim = (rng.next_u64() % live.len() as u64) as usize;
                let (vsi, lease) = live.swap_remove(victim);
                let (vh, vlus) = subnets[vsi];
                // May already have expired; both outcomes are fine.
                let _ = vlus.cancel(&mut env, vh, lease).unwrap();
            }
            env.run_for(SimDuration::from_millis(700));

            // After every mutation round: hierarchical ≡ brute force for
            // every interface, and no stale subnet reports a match it
            // cannot serve.
            for iface in &ifaces {
                let hier = hier_result(&mut env, client, &root, iface);
                let brute = brute_force(&mut env, client, &subnets, iface);
                assert_eq!(hier, brute, "round {round}, iface {iface}");
                let matched = root.matching_subnets(&mut env, client, iface).unwrap();
                for (s, lus) in matched {
                    let served = lus.lookup_interface_uuids(&mut env, client, iface).unwrap();
                    assert!(
                        !served.is_empty(),
                        "round {round}: subnet {s} reported a match for {iface} it cannot serve"
                    );
                }
            }
        }
    }

    #[test]
    fn deltas_buffer_while_root_unreachable_and_flush_on_recovery() {
        let mut env = Env::with_seed(14);
        let (client, root, subnets) = federation(&mut env);
        let iface: InterfaceId = interfaces::SENSOR_DATA_ACCESSOR.into();
        let (h0, lus0) = subnets[0];

        env.crash_host(root.host);
        lus0.register(
            &mut env,
            h0,
            sensor_item("A", h0, 1, interfaces::SENSOR_DATA_ACCESSOR),
            None,
        )
        .unwrap();
        env.restart_host(root.host);
        // Root missed the +1; the next delta from the same subnet carries
        // the buffered one along.
        lus0.register(
            &mut env,
            h0,
            sensor_item("B", h0, 2, interfaces::SENSOR_DATA_ACCESSOR),
            None,
        )
        .unwrap();
        env.with_service(root.service, |_e, r: &mut RootRegistry| {
            assert_eq!(summary_count(r, SubnetId(0), &iface), 2);
        })
        .unwrap();
        let hier = hier_result(&mut env, client, &root, &iface);
        let brute = brute_force(&mut env, client, &subnets, &iface);
        assert_eq!(hier, brute);
    }

    #[test]
    fn counting_bloom_membership_with_deletion() {
        let may_contain = |b: &CountingBloom, name: &str| b.holds(CountingBloom::slots(name));
        let mut b = CountingBloom::default();
        assert!(!may_contain(&b, "SensorDataAccessor"));
        b.add("SensorDataAccessor");
        b.add("SensorDataAccessor");
        b.add("Cybernode");
        assert!(may_contain(&b, "SensorDataAccessor"));
        assert!(may_contain(&b, "Cybernode"));
        b.remove("SensorDataAccessor");
        assert!(may_contain(&b, "SensorDataAccessor"), "one copy left");
        b.remove("SensorDataAccessor");
        assert!(!may_contain(&b, "SensorDataAccessor"));
        assert!(may_contain(&b, "Cybernode"), "unrelated entry untouched");
    }

    #[test]
    fn template_lookup_still_works_per_subnet() {
        // The hierarchy narrows by interface; attribute-level matching
        // stays a per-subnet LUS concern and must be unaffected.
        let mut env = Env::with_seed(15);
        let (client, _root, subnets) = federation(&mut env);
        let (h1, lus1) = subnets[1];
        lus1.register(
            &mut env,
            h1,
            sensor_item("Neem", h1, 5, interfaces::SENSOR_DATA_ACCESSOR),
            None,
        )
        .unwrap();
        let found = lus1
            .lookup(&mut env, client, &ServiceTemplate::by_name("Neem"), 10)
            .unwrap();
        assert_eq!(found.len(), 1);
    }
}
