//! The timer store.
//!
//! Pending timers are one `BinaryHeap` of *keys* (deadline + sequence
//! number + slab slot), while the callbacks — boxed closures over
//! `Rc`-shared service objects — stay in a slab (`Vec` + free list) the
//! key's slot indexes. Firing a timer is a heap pop and one indexed move
//! out of the slab: no hash table, and no allocation beyond the closure
//! the caller boxed.
//!
//! A slot remembers the seq of the timer it holds. Cancelling a one-shot
//! timer empties its slot at once (the captured state drops there) and
//! leaves the key in the heap; a key whose seq no longer matches its
//! slot's is stale and is discarded when it surfaces. Seqs are never
//! reused, so a slot handed to a newer timer cannot resurrect an old key.
//!
//! A repeating timer is a single [`TimerCallback::Every`] entry that
//! `Env` pushes back — closure moved, not re-boxed — after each firing.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use crate::env::Env;
use crate::time::{SimDuration, SimTime};

/// What a pending timer runs.
pub(crate) enum TimerCallback {
    Once(Box<dyn FnOnce(&mut Env)>),
    /// A repeating timer: after `f` returns `true` with `alive` still set,
    /// `Env` re-queues this same entry `interval` later.
    Every {
        interval: SimDuration,
        alive: Rc<Cell<bool>>,
        f: Box<dyn FnMut(&mut Env) -> bool>,
    },
}

/// The heap entry of a pending timer. Ordered by `(at, seq)` — deadline,
/// then FIFO; `seq` is unique, so the order is total and the slab slot
/// never influences it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TimerKey {
    pub at: SimTime,
    pub seq: u64,
    /// Where the callback sits in the slab.
    pub slot: u32,
}

impl PartialEq for TimerKey {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerKey {}
impl PartialOrd for TimerKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// One slab entry: the callback of the pending timer `seq`, or vacant.
struct Slot {
    seq: u64,
    callback: Option<TimerCallback>,
}

/// The seq of a vacant slot; no timer ever carries it.
const VACANT: u64 = u64::MAX;

/// The timer store. One per [`Env`].
#[derive(Default)]
pub(crate) struct Timers {
    heap: BinaryHeap<Reverse<TimerKey>>,
    /// The callback of every pending timer, at its key's `slot`.
    slots: Vec<Slot>,
    /// Vacant entries of `slots`, reused last-freed first.
    free: Vec<u32>,
}

impl Timers {
    /// Number of pending timers; cancelled ones left when they were
    /// cancelled, whatever stale keys still sit in the heap.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Put a key back that [`Timers::pop_key_due`] popped but that was
    /// not run (the tie-chooser path gathers a due set and returns the
    /// losers): its callback never left the slab.
    pub fn push_key(&mut self, k: TimerKey) {
        self.heap.push(Reverse(k));
    }

    /// Add a timer and return its slab slot. `seq` must be fresh
    /// (monotone).
    pub fn push(&mut self, at: SimTime, seq: u64, callback: TimerCallback) -> u32 {
        let entry = Slot {
            seq,
            callback: Some(callback),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = entry;
                slot
            }
            None => {
                #[expect(clippy::expect_used, reason = "2³² pending timers is 160 GiB of slab")]
                let slot = u32::try_from(self.slots.len()).expect("under 2^32 pending timers");
                self.slots.push(entry);
                slot
            }
        };
        self.push_key(TimerKey { at, seq, slot });
        slot
    }

    /// Take timer `seq` out of `slot`, if that is still what the slot
    /// holds. A cancelled timer's key stays in the heap and is skipped
    /// as stale later.
    pub fn remove(&mut self, seq: u64, slot: u32) -> Option<TimerCallback> {
        let entry = self.slots.get_mut(slot as usize)?;
        if entry.seq != seq {
            return None;
        }
        entry.seq = VACANT;
        self.free.push(slot);
        entry.callback.take()
    }

    /// Pop the minimal pending key if it is due by `t`, discarding the
    /// stale keys above it and leaving its callback in the slab
    /// ([`Timers::remove`] fetches it, [`Timers::push_key`] puts the key
    /// back).
    pub fn pop_key_due(&mut self, t: SimTime) -> Option<TimerKey> {
        loop {
            let Reverse(k) = *self.heap.peek()?;
            if self.slots[k.slot as usize].seq != k.seq {
                self.heap.pop();
                continue;
            }
            if k.at > t {
                return None;
            }
            self.heap.pop();
            return Some(k);
        }
    }

    /// Pop the minimal pending timer if it is due by `t`.
    pub fn pop_due(&mut self, t: SimTime) -> Option<(TimerKey, TimerCallback)> {
        loop {
            let k = self.pop_key_due(t)?;
            if let Some(callback) = self.remove(k.seq, k.slot) {
                return Some((k, callback));
            }
        }
    }
}

impl std::fmt::Debug for Timers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Timers")
            .field("pending", &self.len())
            .field("keys", &self.heap.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn nop() -> TimerCallback {
        TimerCallback::Once(Box::new(|_env| {}))
    }

    fn drain(q: &mut Timers) -> Vec<u64> {
        std::iter::from_fn(|| q.pop_due(SimTime::FAR_FUTURE).map(|(k, _)| k.seq)).collect()
    }

    #[test]
    fn removed_timer_is_skipped_and_its_slot_is_reused_safely() {
        let mut q = Timers::default();
        let a = q.push(t(10), 0, nop());
        let b = q.push(t(20), 1, nop());
        assert!(q.remove(0, a).is_some());
        assert!(q.remove(0, a).is_none(), "already gone");
        assert_eq!(q.len(), 1);
        // The vacated slot goes to a newer timer; the stale key for seq 0
        // still sits in the heap ahead of it and must not fire it early.
        let c = q.push(t(30), 2, nop());
        assert_eq!(c, a);
        assert!(
            q.remove(0, a).is_none(),
            "an old id cannot cancel the slot's new tenant"
        );
        assert_eq!(q.pop_due(t(15)).map(|(k, _)| k.seq), None);
        assert_eq!(drain(&mut q), vec![1, 2]);
        assert_eq!(q.len(), 0);
        assert!(q.remove(1, b).is_none(), "fired");
    }

    #[test]
    fn requeued_key_keeps_its_slot() {
        let mut q = Timers::default();
        let slot = q.push(t(5), 7, nop());
        let k = q.pop_key_due(t(5)).expect("due");
        assert_eq!((k.seq, k.slot), (7, slot));
        assert_eq!(q.len(), 1, "the callback never left the slab");
        q.push_key(k);
        assert!(q.remove(7, slot).is_some(), "still cancellable by its id");
        assert_eq!(drain(&mut q), Vec::<u64>::new());
    }
}
