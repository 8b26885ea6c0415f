//! Local measurement store.
//!
//! §III.B argues that "the service provided by the single sensor should be
//! capable of storing data to the local store" because sensors produce
//! data faster than consumers poll. The elementary sensor provider keeps a
//! bounded ring of recent measurements so `getHistory`-style requests are
//! served locally instead of re-sampling.

use sensorcer_sim::time::SimTime;

use crate::units::{Measurement, Quality, Unit};

/// Set in a slot's tag when the measurement is [`Quality::Suspect`]; the
/// low bits index [`Unit::ALL`].
const SUSPECT: u8 = 0x80;

/// Bounded FIFO of recent measurements (oldest evicted first).
///
/// Every ESP holds a full ring from construction, and a `Measurement` is
/// 18 bytes of information padded to 24, so a slot is 17 instead: `(value,
/// at)` whole in one slice, and in a second a one-byte tag for unit and
/// quality — per slot, because a swapped probe may report another unit.
/// Both are allocated in [`RingStore::new`] and never again.
#[derive(Debug, Clone)]
pub struct RingStore {
    slots: Box<[(f64, SimTime)]>,
    tags: Box<[u8]>,
    /// Slot of the oldest held measurement.
    head: usize,
    len: usize,
    total_recorded: u64,
}

impl RingStore {
    /// Create a store holding up to `capacity` measurements.
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> RingStore {
        assert!(capacity > 0, "ring store capacity must be positive");
        RingStore {
            slots: vec![(0.0, SimTime::ZERO); capacity].into(),
            tags: vec![0; capacity].into(),
            head: 0,
            len: 0,
            total_recorded: 0,
        }
    }

    /// Slot `k` places after `head`, for `k` up to the capacity.
    fn slot(&self, k: usize) -> usize {
        let i = self.head + k;
        if i < self.slots.len() {
            i
        } else {
            i - self.slots.len()
        }
    }

    /// Record a measurement, evicting the oldest if full.
    pub fn push(&mut self, m: Measurement) {
        // When full this is `head`: the oldest slot is the one overwritten.
        let i = self.slot(self.len);
        self.slots[i] = (m.value, m.at);
        self.tags[i] = m.unit as u8 | if m.is_good() { 0 } else { SUSPECT };
        if self.len == self.slots.len() {
            self.head = self.slot(1);
        } else {
            self.len += 1;
        }
        self.total_recorded += 1;
    }

    /// The most recent `n` measurements (all, if fewer are held), oldest
    /// first, without collecting them.
    pub fn iter_recent(&self, n: usize) -> impl Iterator<Item = Measurement> + '_ {
        (self.len.saturating_sub(n)..self.len).map(move |k| {
            let i = self.slot(k);
            let (value, at) = self.slots[i];
            let tag = self.tags[i];
            Measurement {
                value,
                unit: Unit::ALL[usize::from(tag & !SUSPECT)],
                at,
                quality: if tag & SUSPECT == 0 {
                    Quality::Good
                } else {
                    Quality::Suspect
                },
            }
        })
    }

    /// Most recent measurement, if any.
    pub fn latest(&self) -> Option<Measurement> {
        self.iter_recent(1).next()
    }

    /// Number of measurements currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total measurements ever recorded (including evicted).
    pub fn total_recorded(&self) -> u64 {
        self.total_recorded
    }

    /// The most recent `n` measurements, oldest first.
    pub fn recent(&self, n: usize) -> Vec<Measurement> {
        self.iter_recent(n).collect()
    }

    /// Measurements taken at or after `since`, oldest first.
    pub fn since(&self, since: SimTime) -> Vec<Measurement> {
        self.iter_recent(self.len)
            .filter(|m| m.at >= since)
            .collect()
    }

    /// Mean of all held good-quality values, if any exist.
    pub fn mean_good(&self) -> Option<f64> {
        let good = || self.iter_recent(self.len).filter(Measurement::is_good);
        let n = good().count();
        (n > 0).then(|| good().map(|m| m.value).sum::<f64>() / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorcer_sim::time::SimDuration;

    fn m(v: f64, secs: u64) -> Measurement {
        Measurement::good(
            v,
            Unit::Celsius,
            SimTime::ZERO + SimDuration::from_secs(secs),
        )
    }

    #[test]
    fn push_and_latest() {
        let mut s = RingStore::new(3);
        assert!(s.is_empty());
        assert!(s.latest().is_none());
        s.push(m(1.0, 1));
        s.push(m(2.0, 2));
        assert_eq!(s.latest().unwrap().value, 2.0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn eviction_keeps_newest() {
        let mut s = RingStore::new(3);
        for i in 1..=5 {
            s.push(m(i as f64, i));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.total_recorded(), 5);
        let vals: Vec<f64> = s.recent(10).iter().map(|x| x.value).collect();
        assert_eq!(vals, vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn recent_returns_tail_in_order() {
        let mut s = RingStore::new(10);
        for i in 1..=6 {
            s.push(m(i as f64, i));
        }
        let vals: Vec<f64> = s.recent(2).iter().map(|x| x.value).collect();
        assert_eq!(vals, vec![5.0, 6.0]);
        assert_eq!(s.recent(0), vec![]);
    }

    #[test]
    fn since_filters_by_time() {
        let mut s = RingStore::new(10);
        for i in 1..=5 {
            s.push(m(i as f64, i));
        }
        let cut = SimTime::ZERO + SimDuration::from_secs(3);
        let vals: Vec<f64> = s.since(cut).iter().map(|x| x.value).collect();
        assert_eq!(vals, vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn mean_good_ignores_suspect() {
        let mut s = RingStore::new(10);
        s.push(m(10.0, 1));
        s.push(Measurement {
            quality: Quality::Suspect,
            ..m(1000.0, 2)
        });
        s.push(m(20.0, 3));
        assert_eq!(s.mean_good(), Some(15.0));
        let empty = RingStore::new(2);
        assert_eq!(empty.mean_good(), None);
    }

    /// At 20 000 motes × 256 slots one byte per slot is 5 MB, and the six
    /// bytes of padding in a `Measurement` are 30 MB.
    #[test]
    fn a_slot_and_its_tag_are_seventeen_bytes() {
        use std::mem::{size_of, size_of_val};
        assert!(size_of::<(f64, SimTime)>() + size_of::<u8>() <= 17);
        let s = RingStore::new(256);
        assert_eq!(size_of_val(&*s.slots) + size_of_val(&*s.tags), 4352);
        assert!(
            Unit::ALL.len() <= usize::from(SUSPECT),
            "units fit below the quality bit"
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = RingStore::new(0);
    }
}
