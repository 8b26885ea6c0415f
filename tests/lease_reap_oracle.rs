//! `LeaseTable::reap` keeps a lower bound on the earliest expiry in each
//! chunk of 256 consecutive lease ids and scans only the chunks `now` has
//! reached. Over generated grant / renew / cancel / advance sequences it
//! must reap exactly what a scan of every lease would, in `LeaseId` order,
//! at every tick.

use std::collections::BTreeMap;

use sensorcer_suite::registry::lease::{LeaseError, LeaseId, LeasePolicy, LeaseTable};
use sensorcer_suite::sim::check::{run_cases, Gen};
use sensorcer_suite::sim::prelude::*;

/// The table with no bound: every lease looked at on every reap.
#[derive(Default)]
struct FullScan {
    next: u64,
    entries: BTreeMap<LeaseId, (SimTime, u32)>,
}

impl FullScan {
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
    let (mut reaped, mut idle, mut wide) = (0usize, 0usize, 0usize);
    run_cases("lease-reap", 300, |g| {
        let mut table: LeaseTable<u32> = LeaseTable::new(policy);
        let mut model = FullScan {
            next: 1,
            ..FullScan::default()
        };
        let mut now = SimTime::ZERO;
        for step in 0..g.u64_in(20, 200) as u32 {
            let known = model.next;
            let mut grant = |g: &mut Gen, model: &mut FullScan| {
                let requested = g.bool().then(|| secs(g));
                let lease = table.grant(now, requested, step);
                assert_eq!(lease.id, LeaseId(model.next));
                model.next += 1;
                model.entries.insert(lease.id, (lease.expires, step));
            };
            match g.u64_in(0, 40) {
                // A burst of registrations: the ids run on into new chunks.
                0 => (0..g.u64_in(100, 500)).for_each(|_| grant(g, &mut model)),
                1..=10 => grant(g, &mut model),
                // Renewals both lengthen and shorten what a lease had left.
                11..=18 => {
                    let id = LeaseId(g.u64_in(1, known + 1));
                    let requested = g.bool().then(|| secs(g));
                    let expected = match model.entries.get(&id) {
                        None => Err(LeaseError::Unknown),
                        Some((exp, _)) if now >= *exp => Err(LeaseError::Expired),
                        Some(_) => Ok(()),
                    };
                    let got = table.renew(now, id, requested);
                    assert_eq!(got.map(|_| ()), expected);
                    if let (Ok(lease), Some(entry)) = (got, model.entries.get_mut(&id)) {
                        entry.0 = lease.expires;
                    }
                }
                19..=21 => {
                    let id = LeaseId(g.u64_in(1, known + 1));
                    let expected = model.entries.remove(&id).map(|(_, r)| r);
                    assert_eq!(table.cancel(id).ok(), expected);
                }
                // Cancel the lease a chunk's bound rests on: the bound stays
                // low, and the scan it lets through must find nothing due.
                22..=23 => {
                    let chunk = g.u64_in(0, known / 256 + 1);
                    let earliest = model
                        .entries
                        .range(LeaseId(chunk * 256)..LeaseId((chunk + 1) * 256))
                        .min_by_key(|(_, (exp, _))| *exp)
                        .map(|(id, _)| *id);
                    if let Some(id) = earliest {
                        let expected = model.entries.remove(&id).map(|(_, r)| r);
                        assert_eq!(table.cancel(id).ok(), expected);
                    }
                }
                24..=31 => now += SimDuration::from_secs(g.u64_in(0, 8)),
                _ => {
                    let got = table.reap(now);
                    assert_eq!(got, model.reap(now), "at {now}");
                    reaped += got.len();
                    idle += usize::from(got.is_empty());
                }
            }
            assert_eq!(table.len(), model.entries.len());
            assert_eq!(
                table.next_expiry(),
                model.entries.values().map(|(exp, _)| *exp).min()
            );
        }
        wide += usize::from(model.next > 3 * 256);
        // A reap far enough out takes everything that is left.
        let end = now + SimDuration::from_secs(60);
        assert_eq!(table.reap(end), model.reap(end));
        assert!(table.is_empty());
    });
    assert!(
        reaped > 1_000 && idle > 1_000 && wide > 50,
        "{reaped} reaped, {idle} idle reaps, {wide} cases over three chunks"
    );
}
