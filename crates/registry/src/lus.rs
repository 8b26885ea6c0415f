//! The lookup service (LUS) — Jini's service registry (§IV.B).
//!
//! Providers register [`ServiceItem`]s under leases; requestors locate
//! services by [`ServiceTemplate`]; listeners get [`ServiceEvent`]s when
//! the set of matching registrations changes. A reaper timer expires
//! un-renewed registrations, which is what makes a SenSORCER network
//! self-healing: "if the service gets disabled then the lease is not
//! renewed and the service is deregistered from the LUS and thus leaves
//! the network".

use std::collections::BTreeMap;
use std::sync::Arc;

use sensorcer_sim::conn::Connection;
use sensorcer_sim::env::{Env, ServiceId};
use sensorcer_sim::time::{SimDuration, SimTime};
use sensorcer_sim::topology::{HostId, NetError};
use sensorcer_sim::trace::{Outcome, SpanId};
use sensorcer_sim::wire::ProtocolStack;

use crate::events::{EventSink, ServiceEvent, Transition};
use crate::ids::{InterfaceId, SvcUuid};
use crate::item::{ServiceItem, ServiceTemplate};
use crate::lease::{Lease, LeaseError, LeaseId, LeasePolicy, LeaseTable};
use crate::postings::{post, unpost, AttrPostings, Posting};

/// Metric keys bumped by the registry lifecycle.
pub mod keys {
    /// Registrations expired by the reaper (per LUS host and globally).
    pub const LEASES_REAPED: &str = "registry.leases.reaped";
}

/// Result of registering a service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceRegistration {
    pub uuid: SvcUuid,
    pub lease: Lease,
}

/// One event-interest registration.
struct EventReg {
    template: ServiceTemplate,
    transitions: Vec<Transition>,
    sink: EventSink,
    seq: u64,
}

/// Where a template's matches can be, each kind in uuid order.
enum Candidates<'a> {
    /// The template's explicit ids, sorted and deduplicated.
    Ids(Vec<SvcUuid>),
    /// The smallest posting among the template's constraints.
    Posting(&'a Posting),
    /// Every item: no constraint narrows enough to pay.
    All,
}

/// The registry state. Deploy with [`LookupService::deploy`]; interact
/// remotely through [`LusHandle`].
///
/// Items are held behind [`Arc`] and posted under each interface they
/// implement and each indexed attribute they carry (see
/// `postings`), so a lookup narrows to the smallest posting among
/// its template's constraints instead of scanning every registration, and
/// hands out the stored handles instead of deep clones. Postings iterate
/// in uuid order, which keeps result sets byte-identical to a linear scan
/// of the uuid-keyed item map. A registered item's interface ids share
/// the name the interface's posting key holds, so each name is stored
/// once however many items implement it.
pub struct LookupService {
    host: HostId,
    group: String,
    items: BTreeMap<SvcUuid, Arc<ServiceItem>>,
    /// Interface name → uuids of the items implementing it.
    by_interface: BTreeMap<InterfaceId, Posting>,
    by_attribute: AttrPostings,
    /// Maps registration leases to the uuid they keep alive.
    reg_leases: LeaseTable<SvcUuid>,
    event_regs: LeaseTable<EventReg>,
    registrations_total: u64,
    /// Memoized `Arc`'d uuid slice per interface: built lazily from the
    /// posting set, shared by every caller until a registration or
    /// departure touching that interface invalidates it. This is what
    /// lets `lookup_all_by_interface`-style queries return without
    /// cloning the posting `BTreeSet` per call.
    iface_uuid_cache: BTreeMap<InterfaceId, Arc<[SvcUuid]>>,
    /// Observer of posting-set deltas — the hierarchical root registry
    /// installs one so its per-subnet summaries stay current. Called with
    /// (interface, +1/-1) on every index/unindex.
    summary_sink: Option<Box<dyn FnMut(&mut Env, &InterfaceId, i64)>>,
}

impl LookupService {
    pub fn new(host: HostId, group: impl Into<String>, policy: LeasePolicy) -> LookupService {
        LookupService {
            host,
            group: group.into(),
            items: BTreeMap::new(),
            by_interface: BTreeMap::new(),
            by_attribute: AttrPostings::default(),
            reg_leases: LeaseTable::new(policy),
            event_regs: LeaseTable::new(policy),
            registrations_total: 0,
            iface_uuid_cache: BTreeMap::new(),
            summary_sink: None,
        }
    }

    /// A lookup service whose attribute postings all share one key: the
    /// worst a hash collision can do. Its answers must be those of
    /// [`LookupService::new`]; only its candidate sets are wider. A test
    /// seam, not a configuration.
    #[doc(hidden)]
    pub fn with_colliding_attribute_keys(
        host: HostId,
        group: impl Into<String>,
        policy: LeasePolicy,
    ) -> LookupService {
        LookupService {
            by_attribute: AttrPostings::one_bucket(),
            ..LookupService::new(host, group, policy)
        }
    }

    fn index_item(&mut self, env: &mut Env, item: &ServiceItem) {
        for iface in &item.interfaces {
            if post(&mut self.by_interface, iface, item.uuid) {
                self.interface_changed(env, iface, 1);
            }
        }
        self.by_attribute.index(item.uuid, &item.attributes);
    }

    fn unindex_item(&mut self, env: &mut Env, item: &ServiceItem) {
        for iface in &item.interfaces {
            if unpost(&mut self.by_interface, iface, item.uuid) {
                self.interface_changed(env, iface, -1);
            }
        }
        self.by_attribute.unindex(item.uuid, &item.attributes);
    }

    /// A uuid joined or left `iface`'s posting: the memoized slice is
    /// stale and the summary sink hears the delta.
    fn interface_changed(&mut self, env: &mut Env, iface: &InterfaceId, delta: i64) {
        self.iface_uuid_cache.remove(iface);
        if let Some(mut sink) = self.summary_sink.take() {
            sink(env, iface, delta);
            self.summary_sink = Some(sink);
        }
    }

    /// Install an observer of posting-set deltas (see
    /// [`crate::hier::RootRegistry`]); replaces any previous one.
    pub fn set_summary_sink(&mut self, sink: impl FnMut(&mut Env, &InterfaceId, i64) + 'static) {
        self.summary_sink = Some(Box::new(sink));
    }

    /// The uuids of every item implementing `iface`, in uuid order, as a
    /// shared slice. The slice is memoized: repeated calls between index
    /// changes hand out the same allocation, so the per-query cost is one
    /// map probe and an `Arc` bump instead of a posting-set clone.
    pub fn interface_uuids(&mut self, iface: &InterfaceId) -> Arc<[SvcUuid]> {
        if let Some(hit) = self.iface_uuid_cache.get(iface) {
            return Arc::clone(hit);
        }
        let posting = self.by_interface.get_key_value(iface);
        let uuids: Arc<[SvcUuid]> = posting
            .map_or_else(Vec::new, |(_, posting)| posting.iter().copied().collect())
            .into();
        // Keyed by the posting's copy of the name when there is one.
        let key = posting.map_or(iface, |(held, _)| held).clone();
        self.iface_uuid_cache.insert(key, Arc::clone(&uuids));
        uuids
    }

    /// Deploy a LUS on `host`, join it to the discovery `group`, and start
    /// its lease reaper (fires every `reap_every`).
    pub fn deploy(
        env: &mut Env,
        host: HostId,
        name: &str,
        group: &str,
        policy: LeasePolicy,
        reap_every: SimDuration,
    ) -> LusHandle {
        let lus = LookupService::new(host, group, policy);
        let service = env.deploy(host, name, lus);
        env.topo.join_group(host, group);
        env.schedule_every(reap_every, reap_every, move |env| {
            // Keep reaping as long as the LUS is deployed.
            env.with_service(service, |env, lus: &mut LookupService| lus.reap(env))
                .is_ok()
        });
        // A Jini LUS registers itself in its own registry, so browsers see
        // it in the service listing. Its entry lives as long as the LUS.
        let iface = [crate::ids::interfaces::LOOKUP_SERVICE];
        let self_item = ServiceItem::provider(host, service, &iface, name, "INFRASTRUCTURE");
        let _ = env.with_service(service, |env, lus: &mut LookupService| {
            lus.admit(env, Arc::new(self_item), SimTime::FAR_FUTURE)
        });
        LusHandle { service, host }
    }

    /// The discovery group this LUS serves.
    pub fn group(&self) -> &str {
        &self.group
    }

    /// The host this LUS runs on.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Register (or re-register) a service item. A nil uuid is assigned a
    /// fresh one — the Jini "assign me an id" flow. Re-registering a live
    /// uuid replaces its item and cancels the lease that kept it, so each
    /// registration has one lease.
    pub fn register(
        &mut self,
        env: &mut Env,
        item: ServiceItem,
        duration: Option<SimDuration>,
    ) -> ServiceRegistration {
        let expires = env.now() + self.reg_leases.term(duration);
        self.admit(env, Arc::new(item), expires).0
    }

    /// Register `item` until `expires`, handing back the handle the
    /// registry keeps. An item shared elsewhere (a rejoin passes back the
    /// handle it was given) is registered as it stands; only one held
    /// nowhere else gets a uuid and the posting keys' interface names.
    fn admit(
        &mut self,
        env: &mut Env,
        mut item: Arc<ServiceItem>,
        expires: SimTime,
    ) -> (ServiceRegistration, Arc<ServiceItem>) {
        let span = if env.tracing_enabled() {
            let label = item.name().unwrap_or("(unnamed)").to_string();
            env.span_start("lus.register", &label, self.host)
        } else {
            SpanId::INVALID
        };
        let now = env.now();
        if let Some(fresh) = Arc::get_mut(&mut item) {
            if fresh.uuid.is_nil() {
                fresh.uuid = SvcUuid::generate(env.rng());
            }
            // Share the names the interface postings hold; a name new to
            // the registry becomes its posting's key as it is.
            for iface in &mut fresh.interfaces {
                if let Some((held, _)) = self.by_interface.get_key_value(iface) {
                    *iface = held.clone();
                }
            }
        }
        let uuid = item.uuid;
        let old = self.items.insert(uuid, Arc::clone(&item));
        if let Some(old) = &old {
            self.unindex_item(env, old);
            self.reg_leases.retire(|held| *held == uuid);
        }
        self.index_item(env, &item);
        let lease = self.reg_leases.grant_until(expires, uuid);
        self.registrations_total += 1;
        self.fire(env, now, uuid, old.as_deref(), Some(&item));
        if span.is_valid() {
            env.span_field(span, "uuid", uuid.to_string());
            env.span_field(span, "replaced", old.is_some());
        }
        env.span_end(span, Outcome::Ok);
        (ServiceRegistration { uuid, lease }, item)
    }

    /// Renew a registration lease at the current virtual time.
    pub fn renew(
        &mut self,
        env: &mut Env,
        lease: LeaseId,
        duration: Option<SimDuration>,
    ) -> Result<Lease, LeaseError> {
        self.reg_leases.renew(env.now(), lease, duration)
    }

    /// Cancel a registration, removing the item immediately.
    pub fn cancel(&mut self, env: &mut Env, lease: LeaseId) -> Result<(), LeaseError> {
        let uuid = self.reg_leases.cancel(lease)?;
        let now = env.now();
        if let Some(old) = self.items.remove(&uuid) {
            self.unindex_item(env, &old);
            self.fire(env, now, uuid, Some(&old), None);
        }
        Ok(())
    }

    /// Replace the attributes of a live registration (e.g. a provider
    /// updating its `Comment`). Fires `MatchToMatch`/transition events.
    ///
    /// The pre-modification snapshot exists only while at least one live
    /// event registration might observe the transition; without listeners
    /// the attributes are swapped in place.
    pub fn modify_attributes(
        &mut self,
        env: &mut Env,
        uuid: SvcUuid,
        attributes: Vec<crate::attributes::Entry>,
    ) -> bool {
        let now = env.now();
        let Some(item) = self.items.get_mut(&uuid) else {
            return false;
        };
        self.by_attribute
            .reindex(uuid, &item.attributes, &attributes);
        let has_listeners = self.event_regs.live(now).next().is_some();
        let old = has_listeners.then(|| Arc::clone(item));
        // Clones the item only if someone still shares it: the snapshot
        // just taken for the listeners, or a lookup result.
        Arc::make_mut(item).attributes = attributes;
        if let Some(old) = old {
            let new = Arc::clone(item);
            self.fire(env, now, uuid, Some(&old), Some(&new));
        }
        true
    }

    /// Where `template`'s matches can be: `None` if nowhere.
    fn candidates(&self, template: &ServiceTemplate) -> Option<Candidates<'_>> {
        // Explicit ids: direct map hits, in uuid order for scan parity.
        if !template.ids.is_empty() {
            let mut ids = template.ids.clone();
            ids.sort_unstable();
            ids.dedup();
            return Some(Candidates::Ids(ids));
        }

        // Every interface constraint and every indexed attribute
        // constraint has a posting: intersect by scanning the smallest. An
        // interface nobody implements, or an attribute value nobody
        // carries, means no matches.
        let postings = template
            .interfaces
            .iter()
            .map(|iface| self.by_interface.get(iface))
            .chain(
                template
                    .attributes
                    .iter()
                    .filter_map(|attr| self.by_attribute.candidates(attr)),
            );
        let mut smallest: Option<&Posting> = None;
        for posting in postings {
            let posting = posting?;
            if smallest.is_none_or(|c| posting.len() < c.len()) {
                smallest = Some(posting);
            }
        }
        Some(match smallest {
            // A posting only helps if it actually narrows the scan: a
            // per-uuid map probe costs more than walking one entry, so if
            // it covers most of the registry (e.g. an interface every
            // service implements) the sequential scan wins.
            Some(posting) if posting.len() * 2 < self.items.len() => Candidates::Posting(posting),
            _ => Candidates::All,
        })
    }

    /// Run `matches` over `candidates` in uuid order and visit what
    /// passes, up to `max`, until the visitor returns `false`.
    fn visit_candidates(
        &self,
        candidates: &Candidates<'_>,
        template: &ServiceTemplate,
        max: usize,
        mut visit: impl FnMut(&Arc<ServiceItem>) -> bool,
    ) {
        if max == 0 {
            return;
        }
        let mut seen = 0usize;
        let mut emit = |item: &Arc<ServiceItem>| -> bool {
            if !template.matches(item) {
                return true;
            }
            seen += 1;
            visit(item) && seen < max
        };
        match candidates {
            Candidates::Ids(ids) => {
                for id in ids {
                    if let Some(item) = self.items.get(id) {
                        if !emit(item) {
                            return;
                        }
                    }
                }
            }
            Candidates::Posting(posting) => {
                for uuid in posting.iter() {
                    if !emit(&self.items[uuid]) {
                        return;
                    }
                }
            }
            Candidates::All => {
                for item in self.items.values() {
                    if !emit(item) {
                        return;
                    }
                }
            }
        }
    }

    /// Visit every registered item matching `template` in uuid order, up
    /// to `max`, without cloning anything. The visitor returns `true` to
    /// keep scanning, `false` to stop early.
    ///
    /// The indexes only narrow the candidate set — every candidate still
    /// passes through [`ServiceTemplate::matches`], and candidate sets
    /// iterate in uuid order, so the visited sequence is exactly what a
    /// linear scan of the item map would produce.
    pub fn lookup_visit(
        &self,
        template: &ServiceTemplate,
        max: usize,
        visit: impl FnMut(&Arc<ServiceItem>) -> bool,
    ) {
        if let Some(candidates) = self.candidates(template) {
            self.visit_candidates(&candidates, template, max, visit);
        }
    }

    /// All currently registered items matching `template`, up to `max`, as
    /// shared handles. The result is sized once, for `max` or the
    /// candidates, whichever is fewer.
    pub fn lookup(&self, template: &ServiceTemplate, max: usize) -> Vec<Arc<ServiceItem>> {
        let Some(candidates) = self.candidates(template) else {
            return Vec::new();
        };
        let bound = match &candidates {
            Candidates::Ids(ids) => ids.len(),
            Candidates::Posting(posting) => posting.len(),
            Candidates::All => self.items.len(),
        };
        let mut out = Vec::with_capacity(max.min(bound));
        self.visit_candidates(&candidates, template, max, |item| {
            out.push(Arc::clone(item));
            true
        });
        out
    }

    /// First match, if any.
    pub fn lookup_one(&self, template: &ServiceTemplate) -> Option<Arc<ServiceItem>> {
        let mut hit = None;
        self.lookup_visit(template, 1, |item| {
            hit = Some(Arc::clone(item));
            false
        });
        hit
    }

    /// Register interest in service transitions.
    pub fn notify(
        &mut self,
        now: SimTime,
        template: ServiceTemplate,
        transitions: Vec<Transition>,
        sink: EventSink,
        duration: Option<SimDuration>,
    ) -> Lease {
        self.event_regs.grant(
            now,
            duration,
            EventReg {
                template,
                transitions,
                sink,
                seq: 0,
            },
        )
    }

    /// Expire overdue registrations and event interests, firing departure
    /// events. Called by the reaper timer. Expiries are counted (globally
    /// and against this LUS host) and, with tracing on, grouped under a
    /// `lus.reap` span so a service's silent departure from the network is
    /// attributable to a lapsed lease.
    pub fn reap(&mut self, env: &mut Env) {
        let now = env.now();
        let reaped = self.reg_leases.reap(now);
        let span = if !reaped.is_empty() && env.tracing_enabled() {
            let s = env.span_start("lus.reap", &self.group, self.host);
            env.span_field(s, "expired", reaped.len());
            s
        } else {
            SpanId::INVALID
        };
        if !reaped.is_empty() {
            env.metrics
                .add_host(self.host, keys::LEASES_REAPED, reaped.len() as u64);
        }
        for (_, uuid) in reaped {
            if let Some(old) = self.items.remove(&uuid) {
                self.unindex_item(env, &old);
                self.fire(env, now, uuid, Some(&old), None);
            }
        }
        env.span_end(span, Outcome::Ok);
        self.event_regs.reap(now);
    }

    /// Current posting-set sizes per interface — the seed snapshot the
    /// hierarchical root registry takes when a subnet LUS attaches.
    pub fn interface_counts(&self) -> Vec<(InterfaceId, u64)> {
        self.by_interface
            .iter()
            .map(|(iface, posting)| (iface.clone(), posting.len() as u64))
            .collect()
    }

    /// Number of live registered services.
    pub fn item_count(&self) -> usize {
        self.items.len()
    }

    /// Total registrations ever accepted.
    pub fn registrations_total(&self) -> u64 {
        self.registrations_total
    }

    fn fire(
        &mut self,
        env: &mut Env,
        now: SimTime,
        uuid: SvcUuid,
        old: Option<&ServiceItem>,
        new: Option<&ServiceItem>,
    ) {
        let host = self.host;
        // Collect live event registrations; deliver outside the iteration
        // to keep the borrow checker honest about `self`.
        let live_ids: Vec<LeaseId> = self.event_regs.live(now).map(|(id, _)| id).collect();
        for id in live_ids {
            let Ok(reg) = self.event_regs.get_mut(now, id) else {
                continue;
            };
            let was = old.is_some_and(|i| reg.template.matches(i));
            let is = new.is_some_and(|i| reg.template.matches(i));
            let transition = match (was, is) {
                (false, true) => Transition::NoMatchToMatch,
                (true, false) => Transition::MatchToNoMatch,
                (true, true) => Transition::MatchToMatch,
                (false, false) => continue,
            };
            if !reg.transitions.contains(&transition) {
                continue;
            }
            reg.seq += 1;
            let event = ServiceEvent {
                seq: reg.seq,
                at: now,
                uuid,
                transition,
                item: new.cloned().or_else(|| old.cloned()),
            };
            reg.sink.send(env, host, &event);
        }
    }
}

impl std::fmt::Debug for LookupService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LookupService")
            .field("host", &self.host)
            .field("group", &self.group)
            .field("items", &self.items.len())
            .field("event_regs", &self.event_regs.len())
            .finish()
    }
}

/// Client-side handle (the "discovered registrar"): wraps remote calls
/// with honest wire accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LusHandle {
    pub service: ServiceId,
    pub host: HostId,
}

impl LusHandle {
    /// Register a service item from `from`.
    pub fn register(
        &self,
        env: &mut Env,
        from: HostId,
        item: ServiceItem,
        duration: Option<SimDuration>,
    ) -> Result<ServiceRegistration, NetError> {
        self.register_shared(env, from, Arc::new(item), duration)
            .map(|(reg, _)| reg)
    }

    /// [`register`](Self::register), handing back the handle the registry
    /// keeps on the item: what a join registers again, not a copy.
    pub(crate) fn register_shared(
        &self,
        env: &mut Env,
        from: HostId,
        item: Arc<ServiceItem>,
        duration: Option<SimDuration>,
    ) -> Result<(ServiceRegistration, Arc<ServiceItem>), NetError> {
        let req = item.wire_size() + 16;
        env.call(
            from,
            self.service,
            ProtocolStack::Tcp,
            req,
            |env, lus: &mut LookupService| {
                let expires = env.now() + lus.reg_leases.term(duration);
                (lus.admit(env, item, expires), 40)
            },
        )
    }

    /// Renew a registration lease from `from`.
    pub fn renew(
        &self,
        env: &mut Env,
        from: HostId,
        lease: LeaseId,
        duration: Option<SimDuration>,
    ) -> Result<Result<Lease, LeaseError>, NetError> {
        self.renew_over(env, from, &mut Connection::closed(), lease, duration)
    }

    /// [`renew`](Self::renew) over `link`, a connection the caller keeps.
    pub(crate) fn renew_over(
        &self,
        env: &mut Env,
        from: HostId,
        link: &mut Connection,
        lease: LeaseId,
        duration: Option<SimDuration>,
    ) -> Result<Result<Lease, LeaseError>, NetError> {
        self.call_over(env, from, link, 24, |env, lus| {
            (lus.renew(env, lease, duration), 24)
        })
    }

    /// Cancel a registration from `from`.
    pub fn cancel(
        &self,
        env: &mut Env,
        from: HostId,
        lease: LeaseId,
    ) -> Result<Result<(), LeaseError>, NetError> {
        self.cancel_over(env, from, &mut Connection::closed(), lease)
    }

    /// [`cancel`](Self::cancel) over `link`, a connection the caller keeps.
    pub(crate) fn cancel_over(
        &self,
        env: &mut Env,
        from: HostId,
        link: &mut Connection,
        lease: LeaseId,
    ) -> Result<Result<(), LeaseError>, NetError> {
        self.call_over(env, from, link, 16, |env, lus| (lus.cancel(env, lease), 8))
    }

    /// One exchange with the registry over `link`: it pays TCP setup only
    /// when it opens the connection.
    fn call_over<R>(
        &self,
        env: &mut Env,
        from: HostId,
        link: &mut Connection,
        req: usize,
        f: impl FnOnce(&mut Env, &mut LookupService) -> (R, usize),
    ) -> Result<R, NetError> {
        let via = link.open(self.service, ProtocolStack::Tcp, env.now());
        let result = env.call(from, self.service, via, req, f);
        link.settle(&result, env.now());
        result
    }

    /// Remote lookup. The result shares the items the registry holds; the
    /// response is charged each item's encoded size, as if marshalled.
    pub fn lookup(
        &self,
        env: &mut Env,
        from: HostId,
        template: &ServiceTemplate,
        max: usize,
    ) -> Result<Vec<Arc<ServiceItem>>, NetError> {
        let req = template.wire_size() + 8;
        env.call(
            from,
            self.service,
            ProtocolStack::Tcp,
            req,
            |_env, lus: &mut LookupService| {
                let found = lus.lookup(template, max);
                let resp: usize = found.iter().map(|item| item.wire_size()).sum();
                (found, resp.max(8))
            },
        )
    }

    /// Remote bulk uuid lookup by interface: the registry-side cost is a
    /// cache probe and an `Arc` bump (no posting-set clone); the wire is
    /// charged 16 bytes per uuid as if the slice were marshalled.
    pub fn lookup_interface_uuids(
        &self,
        env: &mut Env,
        from: HostId,
        iface: &InterfaceId,
    ) -> Result<Arc<[SvcUuid]>, NetError> {
        let req = iface.wire_size() + 8;
        env.call(
            from,
            self.service,
            ProtocolStack::Tcp,
            req,
            |_env, lus: &mut LookupService| {
                let uuids = lus.interface_uuids(iface);
                let resp = (uuids.len() * 16).max(8);
                (uuids, resp)
            },
        )
    }

    /// Remote single lookup.
    pub fn lookup_one(
        &self,
        env: &mut Env,
        from: HostId,
        template: &ServiceTemplate,
    ) -> Result<Option<Arc<ServiceItem>>, NetError> {
        self.lookup_first_where(env, from, &mut Connection::closed(), template, |_| false)
    }

    /// Remote lookup, over `link`, of the first match that `skip` does not
    /// refuse. The registry visits candidates in place and hands out the
    /// one it holds.
    pub fn lookup_first_where(
        &self,
        env: &mut Env,
        from: HostId,
        link: &mut Connection,
        template: &ServiceTemplate,
        skip: impl Fn(&ServiceItem) -> bool,
    ) -> Result<Option<Arc<ServiceItem>>, NetError> {
        let req = template.wire_size() + 8;
        self.call_over(env, from, link, req, |_env, lus| {
            let mut hit = None;
            lus.lookup_visit(template, usize::MAX, |item| {
                if skip(item) {
                    return true;
                }
                hit = Some(Arc::clone(item));
                false
            });
            let resp = hit.as_ref().map_or(8, |i| i.wire_size());
            (hit, resp)
        })
    }

    /// Register an event listener.
    pub fn notify(
        &self,
        env: &mut Env,
        from: HostId,
        template: ServiceTemplate,
        transitions: Vec<Transition>,
        sink: EventSink,
        duration: Option<SimDuration>,
    ) -> Result<Lease, NetError> {
        let req = template.wire_size() + 24;
        env.call(
            from,
            self.service,
            ProtocolStack::Tcp,
            req,
            move |env, lus: &mut LookupService| {
                let now = env.now();
                (lus.notify(now, template, transitions, sink, duration), 24)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::Entry;
    use crate::ids::interfaces;
    use sensorcer_sim::prelude::*;

    fn setup() -> (Env, HostId, HostId, LusHandle) {
        let mut env = Env::with_seed(1);
        let lab = env.add_host("lab", HostKind::Server);
        let client = env.add_host("client", HostKind::Workstation);
        let lus = LookupService::deploy(
            &mut env,
            lab,
            "Lookup Service",
            "public",
            LeasePolicy::default(),
            SimDuration::from_millis(500),
        );
        (env, lab, client, lus)
    }

    fn sensor_item(name: &str, host: HostId, svc: u64) -> ServiceItem {
        let iface = [interfaces::SENSOR_DATA_ACCESSOR];
        ServiceItem::provider(host, ServiceId(svc), &iface, name, "ELEMENTARY")
    }

    #[test]
    fn register_assigns_uuid_and_lookup_finds() {
        let (mut env, lab, client, lus) = setup();
        let reg = lus
            .register(&mut env, client, sensor_item("Neem-Sensor", lab, 9), None)
            .unwrap();
        assert!(!reg.uuid.is_nil());
        let found = lus
            .lookup(
                &mut env,
                client,
                &ServiceTemplate::by_name("Neem-Sensor"),
                10,
            )
            .unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].uuid, reg.uuid);
        assert_eq!(found[0].service, ServiceId(9));
    }

    #[test]
    fn lookup_by_interface_and_max() {
        let (mut env, lab, client, lus) = setup();
        for (i, name) in ["Neem", "Jade", "Coral", "Diamond"].iter().enumerate() {
            lus.register(&mut env, client, sensor_item(name, lab, i as u64), None)
                .unwrap();
        }
        let tpl = ServiceTemplate::by_interface(interfaces::SENSOR_DATA_ACCESSOR);
        assert_eq!(lus.lookup(&mut env, client, &tpl, 100).unwrap().len(), 4);
        assert_eq!(lus.lookup(&mut env, client, &tpl, 2).unwrap().len(), 2);
        assert!(lus
            .lookup_one(&mut env, client, &ServiceTemplate::by_name("Jade"))
            .unwrap()
            .is_some());
        assert!(lus
            .lookup_one(&mut env, client, &ServiceTemplate::by_name("Nope"))
            .unwrap()
            .is_none());
    }

    #[test]
    fn unrenewed_lease_expires_and_service_leaves() {
        let (mut env, lab, client, lus) = setup();
        lus.register(
            &mut env,
            client,
            sensor_item("Neem", lab, 1),
            Some(SimDuration::from_secs(5)),
        )
        .unwrap();
        env.run_for(SimDuration::from_secs(4));
        let tpl = ServiceTemplate::by_interface(interfaces::SENSOR_DATA_ACCESSOR);
        assert_eq!(lus.lookup(&mut env, client, &tpl, 10).unwrap().len(), 1);
        env.run_for(SimDuration::from_secs(2));
        assert_eq!(
            lus.lookup(&mut env, client, &tpl, 10).unwrap().len(),
            0,
            "reaper must drop the expired registration"
        );
    }

    #[test]
    fn renewal_keeps_service_alive() {
        let (mut env, lab, client, lus) = setup();
        let reg = lus
            .register(
                &mut env,
                client,
                sensor_item("Neem", lab, 1),
                Some(SimDuration::from_secs(5)),
            )
            .unwrap();
        for _ in 0..5 {
            env.run_for(SimDuration::from_secs(3));
            lus.renew(
                &mut env,
                client,
                reg.lease.id,
                Some(SimDuration::from_secs(5)),
            )
            .unwrap()
            .unwrap();
        }
        assert_eq!(
            lus.lookup(
                &mut env,
                client,
                &ServiceTemplate::by_interface(interfaces::SENSOR_DATA_ACCESSOR),
                10
            )
            .unwrap()
            .len(),
            1
        );
    }

    #[test]
    fn renewal_at_or_after_expiry_is_refused_before_the_reaper_runs() {
        let (mut env, lab, client, lus) = setup();
        let reg = lus
            .register(
                &mut env,
                client,
                sensor_item("Neem", lab, 1),
                Some(SimDuration::from_secs(5)),
            )
            .unwrap();
        // The registration call took virtual time, so the expiry falls
        // between two 500 ms reaper ticks and the lease is still held.
        let mut renew_at = |at: SimTime| {
            env.run_for(at.since(env.now()));
            env.with_service(lus.service, |env, l: &mut LookupService| {
                l.renew(env, reg.lease.id, None)
            })
            .unwrap()
        };
        let expires = reg.lease.expires;
        assert_eq!(renew_at(expires), Err(LeaseError::Expired));
        assert_eq!(
            renew_at(expires + SimDuration::from_millis(1)),
            Err(LeaseError::Expired)
        );
    }

    #[test]
    fn re_registering_a_live_uuid_retires_its_old_lease() {
        let (mut env, lab, _, lus) = setup();
        let mut item = sensor_item("Neem", lab, 1);
        let secs = |s| Some(SimDuration::from_secs(s));
        let first = lus.register(&mut env, lab, item.clone(), secs(4)).unwrap();
        env.run_for(SimDuration::from_secs(2));
        item.uuid = first.uuid;
        let second = lus.register(&mut env, lab, item, secs(30)).unwrap();
        // Past the first lease's expiry and a reap, the item is held by the
        // second lease alone: the first can neither renew nor cancel it.
        env.run_for(SimDuration::from_secs(5));
        let old = first.lease.id;
        assert_eq!(
            lus.renew(&mut env, lab, old, None).unwrap(),
            Err(LeaseError::Unknown)
        );
        assert_eq!(
            lus.cancel(&mut env, lab, old).unwrap(),
            Err(LeaseError::Unknown)
        );
        assert!(lus
            .renew(&mut env, lab, second.lease.id, None)
            .unwrap()
            .is_ok());
        let tpl = ServiceTemplate::by_name("Neem");
        assert_eq!(lus.lookup(&mut env, lab, &tpl, 10).unwrap().len(), 1);
    }

    #[test]
    fn cancel_removes_immediately() {
        let (mut env, lab, client, lus) = setup();
        let reg = lus
            .register(&mut env, client, sensor_item("Neem", lab, 1), None)
            .unwrap();
        lus.cancel(&mut env, client, reg.lease.id).unwrap().unwrap();
        assert_eq!(
            lus.lookup(
                &mut env,
                client,
                &ServiceTemplate::by_interface(interfaces::SENSOR_DATA_ACCESSOR),
                10
            )
            .unwrap()
            .len(),
            0
        );
        // Double cancel is an application-level error, not a crash.
        assert!(lus.cancel(&mut env, client, reg.lease.id).unwrap().is_err());
    }

    #[test]
    fn events_fire_on_join_and_leave() {
        let (mut env, lab, client, lus) = setup();
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let seen2 = std::rc::Rc::clone(&seen);
        let sink = EventSink {
            host: client,
            deliver: Box::new(move |_env, ev| seen2.borrow_mut().push(ev.transition)),
        };
        lus.notify(
            &mut env,
            client,
            ServiceTemplate::by_interface(interfaces::SENSOR_DATA_ACCESSOR),
            vec![Transition::NoMatchToMatch, Transition::MatchToNoMatch],
            sink,
            Some(SimDuration::from_secs(300)),
        )
        .unwrap();

        let reg = lus
            .register(
                &mut env,
                client,
                sensor_item("Neem", lab, 1),
                Some(SimDuration::from_secs(3)),
            )
            .unwrap();
        assert_eq!(*seen.borrow(), vec![Transition::NoMatchToMatch]);

        // Let it expire: a departure event follows from the reaper.
        env.run_for(SimDuration::from_secs(5));
        assert_eq!(
            *seen.borrow(),
            vec![Transition::NoMatchToMatch, Transition::MatchToNoMatch]
        );
        let _ = reg;
    }

    #[test]
    fn attribute_modification_fires_match_to_match() {
        let (mut env, lab, client, lus) = setup();
        let seen = std::rc::Rc::new(std::cell::RefCell::new(0u32));
        let seen2 = std::rc::Rc::clone(&seen);
        lus.notify(
            &mut env,
            client,
            ServiceTemplate::any(),
            vec![Transition::MatchToMatch],
            EventSink {
                host: client,
                deliver: Box::new(move |_e, _ev| *seen2.borrow_mut() += 1),
            },
            None,
        )
        .unwrap();
        let reg = lus
            .register(&mut env, client, sensor_item("Neem", lab, 1), None)
            .unwrap();
        env.with_service(lus.service, |env, l: &mut LookupService| {
            assert!(l.modify_attributes(env, reg.uuid, vec![Entry::Name("Renamed".into())]));
            assert!(!l.modify_attributes(env, SvcUuid(999), vec![]));
        })
        .unwrap();
        assert_eq!(*seen.borrow(), 1);
        let found = lus
            .lookup_one(&mut env, client, &ServiceTemplate::by_name("Renamed"))
            .unwrap();
        assert!(found.is_some());
    }

    #[test]
    fn events_to_dead_listeners_are_dropped_silently() {
        let (mut env, lab, client, lus) = setup();
        lus.notify(
            &mut env,
            client,
            ServiceTemplate::any(),
            vec![Transition::NoMatchToMatch],
            EventSink {
                host: client,
                deliver: Box::new(|_e, _ev| panic!("unreachable listener")),
            },
            None,
        )
        .unwrap();
        env.crash_host(client);
        // Registration from the lab host itself still works; event delivery
        // fails silently.
        env.with_service(lus.service, |env, l: &mut LookupService| {
            l.register(env, sensor_item("Neem", lab, 1), None);
        })
        .unwrap();
    }

    #[test]
    fn interface_uuids_shares_one_allocation_until_invalidated() {
        let (mut env, lab, client, lus) = setup();
        let reg_a = lus
            .register(&mut env, client, sensor_item("A", lab, 1), None)
            .unwrap();
        let iface: InterfaceId = interfaces::SENSOR_DATA_ACCESSOR.into();
        let first = lus
            .lookup_interface_uuids(&mut env, client, &iface)
            .unwrap();
        let again = lus
            .lookup_interface_uuids(&mut env, client, &iface)
            .unwrap();
        assert_eq!(first.len(), 1);
        assert!(
            Arc::ptr_eq(&first, &again),
            "repeat queries share the memoized slice"
        );

        // A registration touching the interface invalidates the cache.
        let reg_b = lus
            .register(&mut env, client, sensor_item("B", lab, 2), None)
            .unwrap();
        let grown = lus
            .lookup_interface_uuids(&mut env, client, &iface)
            .unwrap();
        assert_eq!(grown.len(), 2);
        assert!(!Arc::ptr_eq(&first, &grown));
        let mut expect = vec![reg_a.uuid, reg_b.uuid];
        expect.sort_unstable();
        assert_eq!(grown.as_ref(), expect.as_slice(), "uuid order preserved");

        // Departure (cancel) also invalidates; unknown interfaces are an
        // empty shared slice, not an error.
        lus.cancel(&mut env, client, reg_a.lease.id)
            .unwrap()
            .unwrap();
        let shrunk = lus
            .lookup_interface_uuids(&mut env, client, &iface)
            .unwrap();
        assert_eq!(shrunk.as_ref(), &[reg_b.uuid]);
        let none = lus
            .lookup_interface_uuids(&mut env, client, &InterfaceId::new("NoSuch"))
            .unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn interface_uuids_cache_survives_unrelated_churn_and_expiry() {
        let (mut env, lab, client, lus) = setup();
        lus.register(&mut env, client, sensor_item("A", lab, 1), None)
            .unwrap();
        let iface: InterfaceId = interfaces::SENSOR_DATA_ACCESSOR.into();
        let first = lus
            .lookup_interface_uuids(&mut env, client, &iface)
            .unwrap();
        // Churn on a different interface must not invalidate this slice.
        let other = ServiceItem::new(
            SvcUuid::NIL,
            lab,
            ServiceId(7),
            vec![interfaces::CYBERNODE.into()],
            vec![Entry::Name("node".into())],
        );
        lus.register(&mut env, client, other, None).unwrap();
        let again = lus
            .lookup_interface_uuids(&mut env, client, &iface)
            .unwrap();
        assert!(Arc::ptr_eq(&first, &again));

        // Lease expiry (reaper-driven removal) must invalidate.
        lus.register(
            &mut env,
            client,
            sensor_item("Fleeting", lab, 8),
            Some(SimDuration::from_secs(2)),
        )
        .unwrap();
        env.run_for(SimDuration::from_secs(4));
        let after = lus
            .lookup_interface_uuids(&mut env, client, &iface)
            .unwrap();
        assert_eq!(after.len(), 1, "expired registration dropped");
    }

    #[test]
    fn registry_stats() {
        let (mut env, lab, client, lus) = setup();
        lus.register(&mut env, client, sensor_item("A", lab, 1), None)
            .unwrap();
        lus.register(&mut env, client, sensor_item("B", lab, 2), None)
            .unwrap();
        env.with_service(lus.service, |_e, l: &mut LookupService| {
            // The LUS registers itself, plus the two sensors.
            assert_eq!(l.item_count(), 3);
            assert_eq!(l.registrations_total(), 3);
            assert_eq!(l.group(), "public");
        })
        .unwrap();
    }
}
