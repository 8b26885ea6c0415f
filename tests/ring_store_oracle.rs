//! Differential oracle for the ESP's local store: `RingStore` keeps each
//! measurement as one packed 17-byte record (value, instant and a one-byte
//! tag) in one slice it never reallocates, so everything a caller can observe is
//! checked here, bit for bit, against the `VecDeque<Measurement>` it
//! replaced — over generated programmes that wrap every ring at least three
//! times and interleave every unit, both qualities, non-finite values and
//! the ends of the clock. `getHistory` and the stale-read fallback of
//! `getValue` read this store.

use std::collections::VecDeque;

use sensorcer_suite::sensors::prelude::*;
use sensorcer_suite::sim::check::{run_cases, Gen};
use sensorcer_suite::sim::time::SimTime;

/// What `RingStore` was: whole measurements in a deque.
struct Model {
    buf: VecDeque<Measurement>,
    capacity: usize,
    total_recorded: u64,
}

impl Model {
    fn push(&mut self, m: Measurement) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(m);
        self.total_recorded += 1;
    }

    fn recent(&self, n: usize) -> Vec<Measurement> {
        let skip = self.buf.len().saturating_sub(n);
        self.buf.iter().skip(skip).copied().collect()
    }

    fn since(&self, since: SimTime) -> Vec<Measurement> {
        self.buf.iter().filter(|m| m.at >= since).copied().collect()
    }

    fn mean_good(&self) -> Option<f64> {
        let good: Vec<f64> = self
            .buf
            .iter()
            .filter(|m| m.is_good())
            .map(|m| m.value)
            .collect();
        if good.is_empty() {
            None
        } else {
            Some(good.iter().sum::<f64>() / good.len() as f64)
        }
    }
}

/// A measurement as the bits it is made of: NaN equals itself, `-0.0` does
/// not equal `0.0`.
fn bits(m: &Measurement) -> (u64, Unit, u64, Quality) {
    (m.value.to_bits(), m.unit, m.at.0, m.quality)
}

fn all_bits<'a>(ms: impl IntoIterator<Item = &'a Measurement>) -> Vec<(u64, Unit, u64, Quality)> {
    ms.into_iter().map(bits).collect()
}

/// The values a narrower encoding would lose: signed zero, the infinities,
/// a NaN that carries a payload, a subnormal, the largest finite value.
const VALUES: [u64; 8] = [
    0x8000_0000_0000_0000, // -0.0
    0,                     // 0.0
    0x7ff0_0000_0000_0000, // +inf
    0xfff0_0000_0000_0000, // -inf
    0x7ff8_dead_beef_0001, // NaN with a payload
    1,                     // smallest subnormal
    0x7fef_ffff_ffff_ffff, // f64::MAX
    0x4035_4000_0000_0000, // 21.25
];

/// Mostly a clock that moves forward as a sampling timer's does; sometimes
/// either end of it, or anywhere (a 16-byte slot that stole the high bits
/// of `at` for its tag would fail here).
fn gen_at(g: &mut Gen, now: &mut u64) -> SimTime {
    match g.u64_in(0, 10) {
        0 => SimTime(u64::MAX),
        1 => SimTime::ZERO,
        2 => SimTime(g.u64()),
        _ => {
            *now += g.u64_in(0, 5_000_000_000);
            SimTime(*now)
        }
    }
}

fn gen_measurement(g: &mut Gen, now: &mut u64) -> Measurement {
    let value = if g.chance(0.3) {
        *g.pick(&VALUES)
    } else {
        g.u64() // any bit pattern at all
    };
    Measurement {
        value: f64::from_bits(value),
        // A swapped probe reports another unit into the same ring.
        unit: *g.pick(&Unit::ALL),
        at: gen_at(g, now),
        quality: if g.chance(0.7) {
            Quality::Good
        } else {
            Quality::Suspect
        },
    }
}

fn assert_same(g: &mut Gen, store: &RingStore, model: &Model) {
    let len = model.buf.len();
    assert_eq!(store.len(), len, "len");
    assert_eq!(store.is_empty(), model.buf.is_empty(), "is_empty");
    assert_eq!(store.capacity(), model.capacity, "capacity");
    assert_eq!(store.total_recorded(), model.total_recorded, "total");
    assert_eq!(
        store.latest().as_ref().map(bits),
        model.buf.back().map(bits),
        "latest"
    );
    for n in [0, 1, len, len + 1, g.usize_in(0, len + 2)] {
        let want = all_bits(&model.recent(n));
        assert_eq!(all_bits(&store.recent(n)), want, "recent({n})");
        let streamed: Vec<Measurement> = store.iter_recent(n).collect();
        assert_eq!(all_bits(&streamed), want, "iter_recent({n})");
    }
    let held = model.buf[g.usize_in(0, len)].at;
    for t in [held, SimTime::ZERO, SimTime(u64::MAX), SimTime(g.u64())] {
        assert_eq!(
            all_bits(&store.since(t)),
            all_bits(&model.since(t)),
            "since({t:?})"
        );
    }
    assert_eq!(
        store.mean_good().map(f64::to_bits),
        model.mean_good().map(f64::to_bits),
        "mean_good"
    );
}

/// The capacities the first programmes get: the smallest, the ESP's own
/// 256 and its neighbours, and the largest generated.
const EDGE_CAPACITIES: [usize; 6] = [1, 2, 255, 256, 257, 300];

#[test]
fn the_packed_ring_matches_the_deque_of_whole_measurements() {
    let mut case = 0;
    run_cases(
        "the_packed_ring_matches_the_deque_of_whole_measurements",
        240,
        |g| {
            let capacity = match EDGE_CAPACITIES.get(case) {
                Some(&edge) => edge,
                None if g.chance(0.85) => g.usize_in(1, 17),
                None => g.usize_in(1, 301),
            };
            case += 1;
            let mut store = RingStore::new(capacity);
            let mut model = Model {
                buf: VecDeque::new(),
                capacity,
                total_recorded: 0,
            };
            assert!(store.is_empty() && store.latest().is_none());
            assert_eq!(store.mean_good(), None);
            let mut now = 0;
            // Three full wrap-arounds, and a partial fourth.
            for _ in 0..3 * capacity + g.usize_in(1, capacity + 1) {
                let m = gen_measurement(g, &mut now);
                store.push(m);
                model.push(m);
                assert_same(g, &store, &model);
            }
            // A clone is a store of its own.
            let mut copy = store.clone();
            copy.push(gen_measurement(g, &mut now));
            assert_same(g, &store, &model);
        },
    );
}
