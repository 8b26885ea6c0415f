//! Leases — the mechanism that "keeps the sensor network healthy and
//! robust" (§IV.B).
//!
//! Every registration is granted for a bounded duration and must be
//! renewed; a provider that dies simply stops renewing and its
//! registration evaporates. [`LeaseTable`] is the bookkeeping shared by
//! the lookup service, the event registrations and the tuple space.

use sensorcer_sim::time::{SimDuration, SimTime};

/// Identifier of one granted lease.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LeaseId(pub u64);

/// A granted lease as returned to the holder.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Lease {
    pub id: LeaseId,
    pub expires: SimTime,
}

impl Lease {
    pub fn is_expired(&self, now: SimTime) -> bool {
        now >= self.expires
    }

    /// Remaining validity at `now` (zero if expired).
    pub fn remaining(&self, now: SimTime) -> SimDuration {
        self.expires.since(now)
    }
}

/// Errors from lease operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LeaseError {
    /// The lease is unknown (never granted, cancelled, or already expired
    /// and reaped).
    Unknown,
    /// The lease exists but has passed its expiry (reap pending).
    Expired,
}

impl std::fmt::Display for LeaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LeaseError::Unknown => f.write_str("unknown lease"),
            LeaseError::Expired => f.write_str("lease expired"),
        }
    }
}

impl std::error::Error for LeaseError {}

/// Policy limits for granted durations.
#[derive(Clone, Copy, Debug)]
pub struct LeasePolicy {
    /// Longest duration a grant or renewal will be given.
    pub max_duration: SimDuration,
    /// Default when the requestor asks for "any".
    pub default_duration: SimDuration,
}

impl Default for LeasePolicy {
    fn default() -> Self {
        LeasePolicy {
            max_duration: SimDuration::from_secs(300),
            default_duration: SimDuration::from_secs(30),
        }
    }
}

/// Bookkeeping for granted leases of resources of type `T` (typically a
/// key identifying the leased thing).
///
/// Ids are granted in order, so the table is a run of chunks, each holding
/// the leases of `CHUNK` consecutive ids densely and in id order: a
/// lease costs its id's offset in the chunk, its expiry and its resource.
/// A chunk goes once it holds no lease, so what a table keeps, and what a
/// reap walks, is bounded by the leases alive, not by every id ever
/// granted.
#[derive(Debug)]
pub struct LeaseTable<T> {
    policy: LeasePolicy,
    next: u64,
    /// In id order; none of them empty.
    chunks: Vec<Chunk<T>>,
}

/// The live and pending-reap leases among ids `index * CHUNK ..
/// (index + 1) * CHUNK`.
#[derive(Debug)]
struct Chunk<T> {
    index: u64,
    /// No entry of the chunk expires before this instant, so `reap` scans
    /// only the chunks `now` has reached. A lower bound, not the minimum:
    /// `cancel` and a lengthening `renew` leave it where it is, and the
    /// next scan of the chunk tightens it. Leases of one age share chunks,
    /// so long-lived ones sit in chunks no reap visits.
    none_due_before: SimTime,
    /// `(offset of the id in the chunk, expiry, resource)`, by offset.
    entries: Vec<(u8, SimTime, T)>,
}

/// Lease ids per chunk. An offset within a chunk fits in a `u8`.
const CHUNK: u64 = 256;

fn split(id: LeaseId) -> (u64, u8) {
    (id.0 / CHUNK, (id.0 % CHUNK) as u8)
}

impl<T> Chunk<T> {
    fn id(&self, offset: u8) -> LeaseId {
        LeaseId(self.index * CHUNK + u64::from(offset))
    }

    fn find(&self, offset: u8) -> Option<usize> {
        self.entries.binary_search_by_key(&offset, |e| e.0).ok()
    }
}

impl<T> LeaseTable<T> {
    pub fn new(policy: LeasePolicy) -> LeaseTable<T> {
        LeaseTable {
            policy,
            next: 1,
            chunks: Vec::new(),
        }
    }

    fn chunk_pos(&self, index: u64) -> Option<usize> {
        self.chunks.binary_search_by_key(&index, |c| c.index).ok()
    }

    /// The entry of `id`, if the table holds it.
    fn entry(&self, id: LeaseId) -> Option<&(u8, SimTime, T)> {
        let (index, offset) = split(id);
        let chunk = &self.chunks[self.chunk_pos(index)?];
        Some(&chunk.entries[chunk.find(offset)?])
    }

    fn entry_mut(&mut self, id: LeaseId) -> Option<(&mut SimTime, &mut (u8, SimTime, T))> {
        let (index, offset) = split(id);
        let pos = self.chunk_pos(index)?;
        let chunk = &mut self.chunks[pos];
        let i = chunk.find(offset)?;
        Some((&mut chunk.none_due_before, &mut chunk.entries[i]))
    }

    /// Grant a lease over `resource`. `requested` is clamped to the policy
    /// maximum; `None` means the policy default.
    pub fn grant(&mut self, now: SimTime, requested: Option<SimDuration>, resource: T) -> Lease {
        let dur = requested
            .unwrap_or(self.policy.default_duration)
            .min(self.policy.max_duration);
        let id = LeaseId(self.next);
        self.next += 1;
        let expires = now + dur;
        let (index, offset) = split(id);
        // Ids are consecutive, so the lease belongs to the last chunk or
        // to a new one after it.
        match self.chunks.last_mut() {
            Some(chunk) if chunk.index == index => {
                chunk.none_due_before = chunk.none_due_before.min(expires);
                chunk.entries.push((offset, expires, resource));
            }
            _ => self.chunks.push(Chunk {
                index,
                none_due_before: expires,
                entries: vec![(offset, expires, resource)],
            }),
        }
        Lease { id, expires }
    }

    /// Renew an existing, unexpired lease.
    pub fn renew(
        &mut self,
        now: SimTime,
        id: LeaseId,
        requested: Option<SimDuration>,
    ) -> Result<Lease, LeaseError> {
        let dur = requested
            .unwrap_or(self.policy.default_duration)
            .min(self.policy.max_duration);
        let (bound, entry) = self.entry_mut(id).ok_or(LeaseError::Unknown)?;
        if now >= entry.1 {
            return Err(LeaseError::Expired);
        }
        entry.1 = now + dur;
        // A renewal may ask for less than the lease had left.
        *bound = (*bound).min(entry.1);
        Ok(Lease {
            id,
            expires: entry.1,
        })
    }

    /// Cancel a lease, returning its resource.
    pub fn cancel(&mut self, id: LeaseId) -> Result<T, LeaseError> {
        let (index, offset) = split(id);
        let pos = self.chunk_pos(index).ok_or(LeaseError::Unknown)?;
        let chunk = &mut self.chunks[pos];
        let i = chunk.find(offset).ok_or(LeaseError::Unknown)?;
        let (_, _, resource) = chunk.entries.remove(i);
        if chunk.entries.is_empty() {
            self.chunks.remove(pos);
        }
        Ok(resource)
    }

    /// Remove every lease expired at `now`, returning the reaped resources
    /// in `LeaseId` order. Chunks are filtered in place; one left empty
    /// goes with its last lease.
    pub fn reap(&mut self, now: SimTime) -> Vec<(LeaseId, T)> {
        let mut reaped = Vec::new();
        let mut emptied = false;
        for chunk in &mut self.chunks {
            if now < chunk.none_due_before {
                continue;
            }
            let mut earliest_left = SimTime::FAR_FUTURE;
            let index = chunk.index;
            let dead = chunk.entries.extract_if(.., |(_, exp, _)| {
                if now >= *exp {
                    return true;
                }
                earliest_left = earliest_left.min(*exp);
                false
            });
            reaped
                .extend(dead.map(|(offset, _, r)| (LeaseId(index * CHUNK + u64::from(offset)), r)));
            chunk.none_due_before = earliest_left;
            emptied |= chunk.entries.is_empty();
        }
        if emptied {
            self.chunks.retain(|chunk| !chunk.entries.is_empty());
        }
        reaped
    }

    /// Access the resource behind a live lease.
    pub fn get(&self, now: SimTime, id: LeaseId) -> Result<&T, LeaseError> {
        let (_, exp, r) = self.entry(id).ok_or(LeaseError::Unknown)?;
        if now >= *exp {
            Err(LeaseError::Expired)
        } else {
            Ok(r)
        }
    }

    /// Mutable access to the resource behind a live lease.
    pub fn get_mut(&mut self, now: SimTime, id: LeaseId) -> Result<&mut T, LeaseError> {
        let (_, (_, exp, r)) = self.entry_mut(id).ok_or(LeaseError::Unknown)?;
        if now >= *exp {
            Err(LeaseError::Expired)
        } else {
            Ok(r)
        }
    }

    /// All live resources at `now`, in grant order.
    pub fn live(&self, now: SimTime) -> impl Iterator<Item = (LeaseId, &T)> {
        self.chunks.iter().flat_map(move |chunk| {
            chunk
                .entries
                .iter()
                .filter(move |(_, exp, _)| now < *exp)
                .map(|(offset, _, r)| (chunk.id(*offset), r))
        })
    }

    /// Count of entries, live or pending reap.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(|chunk| chunk.entries.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Chunks of `CHUNK` consecutive ids the table keeps: never more
    /// than the chunks that hold a lease.
    pub fn chunks_held(&self) -> usize {
        self.chunks.len()
    }

    /// The earliest expiry among current entries (drives reaper timers).
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.chunks
            .iter()
            .flat_map(|chunk| chunk.entries.iter().map(|(_, exp, _)| *exp))
            .min()
    }

    pub fn policy(&self) -> LeasePolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn table() -> LeaseTable<&'static str> {
        LeaseTable::new(LeasePolicy {
            max_duration: SimDuration::from_secs(100),
            default_duration: SimDuration::from_secs(10),
        })
    }

    #[test]
    fn grant_uses_default_and_clamps_to_max() {
        let mut lt = table();
        let l1 = lt.grant(t(0), None, "a");
        assert_eq!(l1.expires, t(10));
        let l2 = lt.grant(t(0), Some(SimDuration::from_secs(1_000)), "b");
        assert_eq!(l2.expires, t(100));
        assert_ne!(l1.id, l2.id);
    }

    #[test]
    fn renewal_extends_from_now() {
        let mut lt = table();
        let l = lt.grant(t(0), None, "a");
        let l2 = lt.renew(t(5), l.id, None).unwrap();
        assert_eq!(l2.expires, t(15));
        assert_eq!(l2.id, l.id);
    }

    #[test]
    fn renewal_of_expired_lease_fails() {
        let mut lt = table();
        let l = lt.grant(t(0), None, "a");
        assert_eq!(lt.renew(t(10), l.id, None), Err(LeaseError::Expired));
        assert_eq!(
            lt.renew(t(99), LeaseId(999), None),
            Err(LeaseError::Unknown)
        );
    }

    #[test]
    fn cancel_returns_resource() {
        let mut lt = table();
        let l = lt.grant(t(0), None, "payload");
        assert_eq!(lt.cancel(l.id), Ok("payload"));
        assert_eq!(lt.cancel(l.id), Err(LeaseError::Unknown));
    }

    #[test]
    fn reap_removes_only_expired() {
        let mut lt = table();
        let a = lt.grant(t(0), Some(SimDuration::from_secs(5)), "a");
        let _b = lt.grant(t(0), Some(SimDuration::from_secs(50)), "b");
        let reaped = lt.reap(t(10));
        assert_eq!(reaped, vec![(a.id, "a")]);
        assert_eq!(lt.len(), 1);
        assert_eq!(lt.live(t(10)).count(), 1);
    }

    #[test]
    fn get_respects_expiry() {
        let mut lt = table();
        let l = lt.grant(t(0), None, "a");
        assert_eq!(lt.get(t(5), l.id), Ok(&"a"));
        assert_eq!(lt.get(t(10), l.id), Err(LeaseError::Expired));
        *lt.get_mut(t(5), l.id).unwrap() = "changed";
        assert_eq!(lt.get(t(6), l.id), Ok(&"changed"));
    }

    #[test]
    fn next_expiry_is_minimum() {
        let mut lt = table();
        assert_eq!(lt.next_expiry(), None);
        lt.grant(t(0), Some(SimDuration::from_secs(30)), "a");
        lt.grant(t(0), Some(SimDuration::from_secs(5)), "b");
        assert_eq!(lt.next_expiry(), Some(t(5)));
    }

    #[test]
    fn lease_helpers() {
        let l = Lease {
            id: LeaseId(1),
            expires: t(10),
        };
        assert!(!l.is_expired(t(9)));
        assert!(l.is_expired(t(10)));
        assert_eq!(l.remaining(t(4)), SimDuration::from_secs(6));
        assert_eq!(l.remaining(t(40)), SimDuration::ZERO);
    }
}
