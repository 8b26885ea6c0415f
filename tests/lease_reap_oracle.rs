//! `LeaseTable` keeps its leases densely in chunks of 256 consecutive ids,
//! drops a chunk with its last lease, and keeps a lower bound on the
//! earliest expiry in each chunk so a reap scans only the chunks `now` has
//! reached. Over generated grant / renew / cancel / get / advance sequences
//! every operation must answer what one ordered map scanned in full would,
//! and a reap must take exactly what that scan takes, in `LeaseId` order.
//! Over a million grants the chunks it keeps must follow the live set.

use std::collections::{BTreeMap, BTreeSet};

use sensorcer_suite::registry::lease::{Lease, LeaseError, LeaseId, LeasePolicy, LeaseTable};
use sensorcer_suite::sim::check::{run_cases, Gen};
use sensorcer_suite::sim::prelude::*;

/// Lease ids per chunk of the table under test.
const CHUNK: u64 = 256;

/// The table with no chunks and no bound: one ordered map, every lease
/// looked at on every reap.
struct FullScan {
    policy: LeasePolicy,
    next: u64,
    entries: BTreeMap<LeaseId, (SimTime, u32)>,
}

impl FullScan {
    fn new(policy: LeasePolicy) -> FullScan {
        FullScan {
            policy,
            next: 1,
            entries: BTreeMap::new(),
        }
    }

    fn expiry(&self, now: SimTime, requested: Option<SimDuration>) -> SimTime {
        now + requested
            .unwrap_or(self.policy.default_duration)
            .min(self.policy.max_duration)
    }

    fn grant(&mut self, now: SimTime, requested: Option<SimDuration>, r: u32) -> Lease {
        let lease = Lease {
            id: LeaseId(self.next),
            expires: self.expiry(now, requested),
        };
        self.next += 1;
        self.entries.insert(lease.id, (lease.expires, r));
        lease
    }

    fn live_entry(&mut self, now: SimTime, id: LeaseId) -> Result<&mut (SimTime, u32), LeaseError> {
        match self.entries.get_mut(&id) {
            None => Err(LeaseError::Unknown),
            Some((exp, _)) if now >= *exp => Err(LeaseError::Expired),
            Some(entry) => Ok(entry),
        }
    }

    fn renew(
        &mut self,
        now: SimTime,
        id: LeaseId,
        requested: Option<SimDuration>,
    ) -> Result<Lease, LeaseError> {
        let expires = self.expiry(now, requested);
        self.live_entry(now, id)?.0 = expires;
        Ok(Lease { id, expires })
    }

    fn cancel(&mut self, id: LeaseId) -> Result<u32, LeaseError> {
        self.entries
            .remove(&id)
            .map(|(_, r)| r)
            .ok_or(LeaseError::Unknown)
    }

    fn live(&self, now: SimTime) -> Vec<(LeaseId, u32)> {
        self.entries
            .iter()
            .filter(|(_, (exp, _))| now < *exp)
            .map(|(id, (_, r))| (*id, *r))
            .collect()
    }

    fn next_expiry(&self) -> Option<SimTime> {
        self.entries.values().map(|(exp, _)| *exp).min()
    }

    fn reap(&mut self, now: SimTime) -> Vec<(LeaseId, u32)> {
        let dead: Vec<LeaseId> = self
            .entries
            .iter()
            .filter(|(_, (exp, _))| now >= *exp)
            .map(|(id, _)| *id)
            .collect();
        dead.into_iter()
            .map(|id| (id, self.entries.remove(&id).expect("collected above").1))
            .collect()
    }

    /// Chunks of the table under test that hold at least one lease.
    fn chunks_holding(&self) -> usize {
        let chunks: BTreeSet<u64> = self.entries.keys().map(|id| id.0 / CHUNK).collect();
        chunks.len()
    }
}

fn secs(g: &mut Gen) -> SimDuration {
    SimDuration::from_secs(g.u64_in(1, 40))
}

#[test]
fn reap_with_the_bound_is_the_full_scan() {
    let policy = LeasePolicy {
        max_duration: SimDuration::from_secs(30),
        default_duration: SimDuration::from_secs(10),
    };
    let (mut reaped, mut idle, mut wide, mut found, mut written) = (0usize, 0, 0, 0, 0);
    run_cases("lease-reap", 300, |g| {
        let mut table: LeaseTable<u32> = LeaseTable::new(policy);
        let mut model = FullScan::new(policy);
        let mut now = SimTime::ZERO;
        for step in 0..g.u64_in(20, 200) as u32 {
            let known = model.next;
            let mut grant = |g: &mut Gen, model: &mut FullScan| {
                let requested = g.bool().then(|| secs(g));
                let lease = table.grant(now, requested, step);
                assert_eq!(lease, model.grant(now, requested, step));
            };
            let some_id = |g: &mut Gen| LeaseId(g.u64_in(0, known + 2));
            match g.u64_in(0, 48) {
                // A burst of registrations: the ids run on into new chunks.
                0 => (0..g.u64_in(100, 500)).for_each(|_| grant(g, &mut model)),
                1..=10 => grant(g, &mut model),
                // Renewals both lengthen and shorten what a lease had left.
                11..=18 => {
                    let id = some_id(g);
                    let requested = g.bool().then(|| secs(g));
                    assert_eq!(
                        table.renew(now, id, requested),
                        model.renew(now, id, requested)
                    );
                }
                19..=21 => {
                    let id = some_id(g);
                    assert_eq!(table.cancel(id), model.cancel(id));
                }
                // Cancel the lease a chunk's bound rests on: the bound stays
                // low, and the scan it lets through must find nothing due.
                22..=23 => {
                    let chunk = g.u64_in(0, known / CHUNK + 1);
                    let earliest = model
                        .entries
                        .range(LeaseId(chunk * CHUNK)..LeaseId((chunk + 1) * CHUNK))
                        .min_by_key(|(_, (exp, _))| *exp)
                        .map(|(id, _)| *id);
                    if let Some(id) = earliest {
                        assert_eq!(table.cancel(id), model.cancel(id));
                    }
                }
                24..=31 => now += SimDuration::from_secs(g.u64_in(0, 8)),
                40..=43 => {
                    let id = some_id(g);
                    let got = table.get(now, id).copied();
                    assert_eq!(got, model.live_entry(now, id).map(|e| e.1));
                    found += usize::from(got.is_ok());
                }
                // Write through `get_mut`; later reads and reaps must see it.
                44..=45 => {
                    let id = some_id(g);
                    let mark = 1_000_000 + step;
                    match (table.get_mut(now, id), model.live_entry(now, id)) {
                        (Ok(r), Ok(entry)) => {
                            assert_eq!(*r, entry.1);
                            (*r, entry.1) = (mark, mark);
                            written += 1;
                        }
                        (got, expected) => assert_eq!(got.map(|r| *r), expected.map(|e| e.1)),
                    }
                }
                46..=47 => {
                    let live: Vec<(LeaseId, u32)> =
                        table.live(now).map(|(id, r)| (id, *r)).collect();
                    assert_eq!(live, model.live(now), "at {now}");
                }
                _ => {
                    let got = table.reap(now);
                    assert_eq!(got, model.reap(now), "at {now}");
                    reaped += got.len();
                    idle += usize::from(got.is_empty());
                }
            }
            assert_eq!(table.len(), model.entries.len());
            assert_eq!(table.is_empty(), model.entries.is_empty());
            assert_eq!(table.next_expiry(), model.next_expiry());
            assert!(table.chunks_held() <= model.chunks_holding() + 1);
        }
        wide += usize::from(model.next > 3 * CHUNK);
        // A reap far enough out takes everything that is left, and the
        // table keeps no chunk after it.
        let end = now + SimDuration::from_secs(60);
        assert_eq!(table.reap(end), model.reap(end));
        assert!(table.is_empty());
        assert_eq!(table.chunks_held(), 0);
    });
    assert!(
        reaped > 1_000 && idle > 1_000 && wide > 50 && found > 500 && written > 200,
        "{reaped} reaped, {idle} idle reaps, {wide} cases over three chunks, \
         {found} live gets, {written} writes through get_mut"
    );
}

/// A registry that lives for a million grants with a steady live set: the
/// chunks the table keeps, and so the memory it holds and the chunks a
/// reap walks, follow the leases alive, not every id ever granted.
#[test]
fn a_million_grants_keep_only_the_chunks_of_live_leases() {
    const GRANTS: u32 = 1_000_000;
    let policy = LeasePolicy {
        max_duration: SimDuration::from_secs(60),
        default_duration: SimDuration::from_secs(30),
    };
    let mut table: LeaseTable<u32> = LeaseTable::new(policy);
    let mut rng = SimRng::new(0x50AC);
    let mut now = SimTime::ZERO;
    // The model, indexed both ways so a reap costs what it takes.
    let mut leases: BTreeMap<LeaseId, (SimTime, u32)> = BTreeMap::new();
    let mut due: BTreeSet<(SimTime, LeaseId)> = BTreeSet::new();
    let mut per_chunk: BTreeMap<u64, u32> = BTreeMap::new();
    let forget = |id: LeaseId, per_chunk: &mut BTreeMap<u64, u32>| {
        let n = per_chunk.get_mut(&(id.0 / CHUNK)).expect("held");
        *n -= 1;
        if *n == 0 {
            per_chunk.remove(&(id.0 / CHUNK));
        }
    };
    let (mut most_live, mut most_held, mut reaped) = (0usize, 0usize, 0usize);
    for i in 0..GRANTS {
        let requested = SimDuration::from_millis(rng.range_u64(1_000, 60_000));
        let lease = table.grant(now, Some(requested), i);
        leases.insert(lease.id, (lease.expires, i));
        due.insert((lease.expires, lease.id));
        *per_chunk.entry(lease.id.0 / CHUNK).or_default() += 1;

        if rng.chance(0.1) {
            let id = LeaseId(lease.id.0.saturating_sub(rng.range_u64(0, 2_000)));
            let expected = leases.remove(&id).map(|(exp, r)| {
                due.remove(&(exp, id));
                forget(id, &mut per_chunk);
                r
            });
            assert_eq!(table.cancel(id).ok(), expected);
        }
        // Sixteen grants a simulated second, then the reaper.
        if i % 16 == 15 {
            now += SimDuration::from_secs(1);
            let mut expected = Vec::new();
            while let Some(&(exp, id)) = due.first() {
                if exp > now {
                    break;
                }
                due.pop_first();
                let (_, r) = leases.remove(&id).expect("due leases are held");
                forget(id, &mut per_chunk);
                expected.push((id, r));
            }
            expected.sort_unstable();
            let got = table.reap(now);
            assert_eq!(got, expected, "at {now}");
            reaped += got.len();
        }
        assert!(
            table.chunks_held() <= per_chunk.len() + 1,
            "grant {i}: {} chunks held, {} hold a lease",
            table.chunks_held(),
            per_chunk.len()
        );
        most_live = most_live.max(leases.len());
        most_held = most_held.max(table.chunks_held());
    }
    assert_eq!(table.len(), leases.len());
    // Steady state: about 480 leases alive over about 4 chunks, out of
    // 3 907 chunks' worth of ids granted.
    assert!(
        most_live < 1_500 && most_held <= 8 && reaped > 800_000,
        "{most_live} live at most, {most_held} chunks at most, {reaped} reaped"
    );
}
