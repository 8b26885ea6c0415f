//! Deterministic happens-before tracking for the simulated federation.
//!
//! Every host carries a [`VectorClock`]; the clock ticks on each message
//! send and merges on each delivery ([`crate::env::Env::call`],
//! [`crate::env::Env::send_oneway`], [`crate::env::Env::multicast`]).
//! Middleware annotates accesses to shared federation state (registry
//! items, mailbox queues) on named keys with
//! [`Env::cell_write`](crate::env::Env::cell_write) /
//! [`Env::cell_read`](crate::env::Env::cell_read), which the tracker sees
//! through its [`Observer`] impl. A read whose host has *not* observed the
//! latest write — no chain of message deliveries orders the write before
//! the read — is a race in the federation's ordering discipline and is
//! recorded as a violation (and, with tracing on, surfaced as an
//! `hb.violation` event on the open span).
//!
//! The simulation itself is single-threaded, so these are not data races;
//! they are *protocol* races: state observed through a channel (e.g. a
//! direct `with_service` poke) that no message edge justifies. On a clean
//! tree the tracker stays silent across every explored schedule, which is
//! what `harness verify` asserts.

use std::collections::{BTreeMap, BTreeSet};

use crate::env::Observer;
use crate::topology::HostId;

/// Stored-violation cap: like the eviction markers, keep the first 1024
/// distinct violations and only count the rest, so a long soak with a
/// hot racy key cannot balloon memory.
const MAX_VIOLATIONS: usize = 1024;

/// A classic vector clock over host ids. Sparse: hosts that never
/// communicated are implicitly at zero.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct VectorClock {
    ticks: BTreeMap<u32, u64>,
}

impl VectorClock {
    pub fn new() -> VectorClock {
        VectorClock::default()
    }

    /// This clock's component for `host`.
    pub fn get(&self, host: HostId) -> u64 {
        self.ticks.get(&host.0).copied().unwrap_or(0)
    }

    /// Advance `host`'s own component (a local event / message send).
    pub fn tick(&mut self, host: HostId) {
        *self.ticks.entry(host.0).or_insert(0) += 1;
    }

    /// Component-wise maximum (message receipt).
    pub fn merge(&mut self, other: &VectorClock) {
        for (&h, &t) in &other.ticks {
            let e = self.ticks.entry(h).or_insert(0);
            if *e < t {
                *e = t;
            }
        }
    }

    /// `true` when every component of `other` is ≤ the matching component
    /// here — i.e. `other` happened before (or equals) this clock.
    pub fn dominates(&self, other: &VectorClock) -> bool {
        other.ticks.iter().all(|(&h, &t)| self.get(HostId(h)) >= t)
    }
}

/// One detected ordering violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HbViolation {
    /// The shared-state key that was read.
    pub key: String,
    /// Host that performed the unordered read.
    pub reader: HostId,
    /// Host that performed the latest write.
    pub writer: HostId,
}

impl std::fmt::Display for HbViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "read of '{}' at {} not ordered after write at {}",
            self.key, self.reader, self.writer
        )
    }
}

/// The per-run happens-before state: host clocks, a last-write log per
/// key, and the violations found. An [`Observer`]: install it with
/// [`Env::set_observer`](crate::env::Env::set_observer), alone or inside
/// an observer that forwards to it, and take it back with
/// `take_observer` after the run.
#[derive(Default, Debug)]
pub struct HbTracker {
    clocks: BTreeMap<u32, VectorClock>,
    writes: BTreeMap<String, (HostId, VectorClock)>,
    violations: Vec<HbViolation>,
    /// `(key, writer, reader)` triples already stored once; repeats only
    /// bump [`HbTracker::violations_total`].
    seen: BTreeSet<(String, u32, u32)>,
    violations_total: u64,
    suppressed: u64,
    deliveries: u64,
    reads: u64,
    writes_seen: u64,
}

impl HbTracker {
    pub fn new() -> HbTracker {
        HbTracker::default()
    }

    fn clock_mut(&mut self, host: HostId) -> &mut VectorClock {
        self.clocks.entry(host.0).or_default()
    }

    pub fn violations(&self) -> &[HbViolation] {
        &self.violations
    }

    /// Every violation detected, including deduped/capped repeats.
    pub fn violations_total(&self) -> u64 {
        self.violations_total
    }

    /// Violations dropped by dedupe or the storage cap.
    pub fn suppressed(&self) -> u64 {
        self.suppressed
    }

    /// (deliveries, writes, reads) processed — lets harnesses prove the
    /// checker was not vacuous.
    pub fn activity(&self) -> (u64, u64, u64) {
        (self.deliveries, self.writes_seen, self.reads)
    }
}

impl Observer for HbTracker {
    /// A message edge `from → to`: the sender ticks, the receiver merges
    /// the sender's clock and ticks its own component.
    fn deliver(&mut self, from: HostId, to: HostId) {
        self.deliveries += 1;
        self.clock_mut(from).tick(from);
        let snapshot = self.clock_mut(from).clone();
        let rx = self.clock_mut(to);
        rx.merge(&snapshot);
        rx.tick(to);
    }

    /// Record a write of shared state `key` by `host`.
    fn cell_write(&mut self, host: HostId, key: &str) {
        self.writes_seen += 1;
        self.clock_mut(host).tick(host);
        let snapshot = self.clock_mut(host).clone();
        self.writes.insert(key.to_string(), (host, snapshot));
    }

    /// Record a read of shared state `key` by `host`; returns the
    /// violation when the latest write is not ordered before this read.
    fn cell_read(&mut self, host: HostId, key: &str) -> Option<HbViolation> {
        self.reads += 1;
        let Some((writer, wclock)) = self.writes.get(key).cloned() else {
            return None; // never written: trivially ordered
        };
        let ordered = self.clock_mut(host).dominates(&wclock);
        if ordered {
            return None;
        }
        let v = HbViolation {
            key: key.to_string(),
            reader: host,
            writer,
        };
        // Dedupe on (key, writer, reader) and cap storage at the first
        // 1024: every occurrence is still counted and returned to the
        // caller (a span event fires per occurrence), but a hot racy key
        // stores one entry, not millions.
        self.violations_total += 1;
        let sig = (v.key.clone(), v.writer.0, v.reader.0);
        if self.seen.insert(sig) && self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(v.clone());
        } else {
            self.suppressed += 1;
        }
        Some(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: HostId = HostId(1);
    const B: HostId = HostId(2);
    const C: HostId = HostId(3);

    #[test]
    fn clock_merge_and_dominate() {
        let mut a = VectorClock::new();
        a.tick(A);
        a.tick(A);
        let mut b = VectorClock::new();
        b.tick(B);
        assert!(!a.dominates(&b));
        b.merge(&a);
        assert!(b.dominates(&a));
        assert_eq!(b.get(A), 2);
        assert_eq!(b.get(B), 1);
    }

    #[test]
    fn ordered_read_after_message_edge_is_clean() {
        let mut hb = HbTracker::new();
        hb.cell_write(A, "reg.items");
        // A tells B about it (any delivery chain works).
        hb.deliver(A, B);
        assert_eq!(hb.cell_read(B, "reg.items"), None);
        assert!(hb.violations().is_empty());
    }

    #[test]
    fn unordered_read_is_flagged() {
        let mut hb = HbTracker::new();
        hb.cell_write(A, "reg.items");
        // B reads with no delivery from A: a protocol race.
        let v = hb.cell_read(B, "reg.items").expect("violation");
        assert_eq!(v.writer, A);
        assert_eq!(v.reader, B);
        assert_eq!(hb.violations().len(), 1);
    }

    #[test]
    fn transitive_delivery_orders_reads() {
        let mut hb = HbTracker::new();
        hb.cell_write(A, "k");
        hb.deliver(A, B);
        hb.deliver(B, C);
        assert_eq!(hb.cell_read(C, "k"), None, "A→B→C carries the write");
    }

    #[test]
    fn same_host_read_is_always_ordered() {
        let mut hb = HbTracker::new();
        hb.cell_write(A, "k");
        assert_eq!(hb.cell_read(A, "k"), None);
    }

    #[test]
    fn later_unrelated_write_re_races_the_reader() {
        let mut hb = HbTracker::new();
        hb.cell_write(A, "k");
        hb.deliver(A, B);
        assert_eq!(hb.cell_read(B, "k"), None);
        hb.cell_write(C, "k"); // C overwrites without telling B
        assert!(hb.cell_read(B, "k").is_some());
        let (d, w, r) = hb.activity();
        assert_eq!((d, w, r), (1, 2, 2));
    }

    #[test]
    fn repeated_violations_dedupe_on_key_writer_reader() {
        let mut hb = HbTracker::new();
        hb.cell_write(A, "k");
        for _ in 0..100 {
            assert!(
                hb.cell_read(B, "k").is_some(),
                "every occurrence is returned"
            );
        }
        assert_eq!(hb.violations().len(), 1, "but only one is stored");
        assert_eq!(hb.violations_total(), 100);
        assert_eq!(hb.suppressed(), 99);
        // A different triple (same key, different reader) stores anew.
        assert!(hb.cell_read(C, "k").is_some());
        assert_eq!(hb.violations().len(), 2);
    }

    #[test]
    fn stored_violations_cap_at_first_1024() {
        let mut hb = HbTracker::new();
        for i in 0..1500u64 {
            let key = format!("cell.{i}");
            hb.cell_write(A, &key);
            assert!(hb.cell_read(B, &key).is_some());
        }
        assert_eq!(hb.violations().len(), 1024);
        assert_eq!(hb.violations_total(), 1500);
        assert_eq!(hb.suppressed(), 1500 - 1024);
    }

    // ------------------------------------------------------------------
    // Vector-clock laws: property-style sweeps over seeded random clocks
    // ------------------------------------------------------------------

    /// A random sparse clock over hosts 0..6, built from real `tick`s.
    fn random_clock(rng: &mut crate::rng::SimRng) -> VectorClock {
        let mut c = VectorClock::new();
        for h in 0..6u32 {
            for _ in 0..rng.index(8) {
                c.tick(HostId(h));
            }
        }
        c
    }

    fn merged(a: &VectorClock, b: &VectorClock) -> VectorClock {
        let mut m = a.clone();
        m.merge(b);
        m
    }

    #[test]
    fn merge_is_commutative_associative_idempotent() {
        let mut rng = crate::rng::SimRng::new(0x5E2509);
        for _ in 0..200 {
            let (a, b, c) = (
                random_clock(&mut rng),
                random_clock(&mut rng),
                random_clock(&mut rng),
            );
            assert_eq!(merged(&a, &b), merged(&b, &a), "commutative");
            assert_eq!(
                merged(&merged(&a, &b), &c),
                merged(&a, &merged(&b, &c)),
                "associative"
            );
            assert_eq!(merged(&a, &a), a, "idempotent");
            // The join is an upper bound of both operands.
            let j = merged(&a, &b);
            assert!(j.dominates(&a) && j.dominates(&b));
        }
    }

    #[test]
    fn dominates_is_a_partial_order() {
        let mut rng = crate::rng::SimRng::new(42);
        for _ in 0..200 {
            let (a, b, c) = (
                random_clock(&mut rng),
                random_clock(&mut rng),
                random_clock(&mut rng),
            );
            assert!(a.dominates(&a), "reflexive");
            if a.dominates(&b) && b.dominates(&a) {
                assert_eq!(a, b, "antisymmetric");
            }
            if a.dominates(&b) && b.dominates(&c) {
                assert!(a.dominates(&c), "transitive");
            }
            // tick strictly increases: the ticked clock dominates the
            // original and not vice versa.
            let mut t = a.clone();
            t.tick(HostId(0));
            assert!(t.dominates(&a) && !a.dominates(&t));
        }
    }

    /// `HbTracker::deliver` must be exactly tick-then-merge-then-tick on
    /// the public `VectorClock` API: replay random op sequences against a
    /// manual clock model and require identical read verdicts.
    #[test]
    fn deliver_round_trips_through_tick_and_merge() {
        for seed in [1u64, 7, 23, 0x5E2509] {
            let mut rng = crate::rng::SimRng::new(seed);
            let mut hb = HbTracker::new();
            let mut clocks: BTreeMap<u32, VectorClock> = BTreeMap::new();
            let mut writes: BTreeMap<&'static str, VectorClock> = BTreeMap::new();
            let keys = ["reg.items", "mail.queue", "fed.map"];
            for _ in 0..400 {
                let a = rng.index(5) as u32;
                let b = rng.index(5) as u32;
                match rng.index(3) {
                    0 if a != b => {
                        hb.deliver(HostId(a), HostId(b));
                        // The model: sender ticks, receiver merges the
                        // sender's snapshot and ticks its own component.
                        clocks.entry(a).or_default().tick(HostId(a));
                        let snap = clocks.entry(a).or_default().clone();
                        let rx = clocks.entry(b).or_default();
                        rx.merge(&snap);
                        rx.tick(HostId(b));
                    }
                    1 => {
                        let key = keys[rng.index(keys.len())];
                        hb.cell_write(HostId(a), key);
                        clocks.entry(a).or_default().tick(HostId(a));
                        writes.insert(key, clocks.entry(a).or_default().clone());
                    }
                    _ => {
                        let key = keys[rng.index(keys.len())];
                        let verdict = hb.cell_read(HostId(a), key);
                        let expect_clean = match writes.get(key) {
                            None => true,
                            Some(w) => clocks.entry(a).or_default().dominates(w),
                        };
                        assert_eq!(
                            verdict.is_none(),
                            expect_clean,
                            "seed {seed}: tracker and clock model disagree on '{key}'"
                        );
                    }
                }
            }
        }
    }
}
