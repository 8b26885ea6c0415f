//! The timer store.
//!
//! One-shot and repeating timers are kept apart, and a pop takes the least
//! `(deadline, seq)` of the two, so timers fire in exactly the order one
//! queue of every timer would give.
//!
//! One-shots are one `BinaryHeap` of *keys* (deadline + sequence number +
//! slab slot), while the callbacks — boxed closures over `Rc`-shared
//! service objects — stay in a slab (`Vec` + free list) the key's slot
//! indexes. Firing one is a heap pop and one indexed move out of the slab:
//! no hash table, and no allocation beyond the closure the caller boxed.
//! A slot remembers the seq of the timer it holds. Cancelling a one-shot
//! empties its slot at once (the captured state drops there) and leaves
//! the key in the heap; a key whose seq no longer matches its slot's is
//! stale and is discarded when it surfaces. Seqs are never reused, so a
//! slot handed to a newer timer cannot resurrect an old key.
//!
//! Repeating timers never enter the heap. Each distinct interval has a
//! *lane*: a `VecDeque` of `(key, closure)` sorted by `(deadline, seq)`.
//! A firing re-arms `interval` after the clock under the next seq, and the
//! clock only moves forward between firings, so the re-armed entry goes
//! at the back of its lane — no sift through a heap of every sampling and
//! renewal timer in the world. An entry that would sort before the back (a
//! first arm inside a branch of `Env::parallel_over`, which rewinds the
//! clock, or a tie loser the chooser did not pick) is inserted at its
//! sorted place instead. Lanes are found by a linear scan: a world has a
//! handful of distinct intervals. A repeating timer is cancelled through
//! its shared `alive` flag, so it leaves its lane only at its deadline.
//!
//! A lane entry is either such a closure or a *member*: an index into one
//! callback registered for a whole group of timers (every ESP's sampling
//! tick in a world is a member of one group). A member owns no allocation
//! and no flag; it stops when the group's callback returns `false` for it.
//! Both kinds take keys from the same sequence and sit in the same lanes,
//! so whether a timer is a closure or a member never changes when it fires.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;

use crate::env::Env;
use crate::time::{SimDuration, SimTime};

/// A repeating timer, re-armed one interval later while it asks to be.
pub(crate) enum Repeat {
    /// A closure of its own: re-armed after `f` returns `true` with
    /// `alive` still set.
    Closure {
        alive: Rc<Cell<bool>>,
        f: Box<dyn FnMut(&mut Env) -> bool>,
    },
    /// Member `member` of callback group `group`: re-armed after the
    /// group's callback returns `true` for it.
    Member { group: u32, member: u32 },
}

/// The callback of a timer group, called with the member that fired. It
/// is shared, not moved out, for the call, so a member's body may fire
/// other members of its own group.
pub(crate) type GroupCallback = Rc<dyn Fn(&mut Env, u32) -> bool>;

/// What a popped timer runs.
pub(crate) enum TimerCallback {
    Once(Box<dyn FnOnce(&mut Env)>),
    /// A repeating timer and its interval.
    Every(SimDuration, Repeat),
}

/// The position of a pending timer. Ordered by `(at, seq)` — deadline,
/// then FIFO; `seq` is unique, so the order is total and `slot` never
/// influences it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TimerKey {
    pub at: SimTime,
    pub seq: u64,
    /// Where the callback sits: the slab slot of a one-shot, the lane of
    /// a repeating timer.
    pub slot: usize,
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

/// One slab entry: the callback of the pending one-shot `seq`, or vacant.
struct Slot {
    seq: u64,
    callback: Option<Box<dyn FnOnce(&mut Env)>>,
}

/// The seq of a vacant slot; no timer ever carries it.
const VACANT: u64 = u64::MAX;

/// The repeating timers of one interval, sorted by `(at, seq)`.
struct Lane {
    interval: SimDuration,
    queue: VecDeque<(TimerKey, Repeat)>,
}

impl Lane {
    /// Append, or insert at the sorted place if `key` sorts before the
    /// back.
    fn insert(&mut self, key: TimerKey, repeat: Repeat) {
        match self.queue.back() {
            Some((last, _)) if *last > key => {
                let i = self.queue.partition_point(|(k, _)| *k < key);
                self.queue.insert(i, (key, repeat));
            }
            _ => self.queue.push_back((key, repeat)),
        }
    }
}

/// A due timer off the queue that may yet be put back: a one-shot's key,
/// its callback left in the slab, or a whole lane entry.
enum Popped {
    Once(TimerKey),
    Every(TimerKey, Repeat),
}

impl Popped {
    fn key(&self) -> TimerKey {
        match self {
            Popped::Once(k) | Popped::Every(k, _) => *k,
        }
    }
}

/// The timer store. One per [`Env`].
#[derive(Default)]
pub(crate) struct Timers {
    heap: BinaryHeap<Reverse<TimerKey>>,
    /// The callback of every pending one-shot, at its key's `slot`.
    slots: Vec<Slot>,
    /// Vacant entries of `slots`, reused last-freed first.
    free: Vec<usize>,
    /// One per distinct interval, in order of first use; never removed.
    lanes: Vec<Lane>,
    /// The callbacks of timer groups, by group id; never removed.
    pub groups: Vec<GroupCallback>,
}

impl Timers {
    /// Number of pending timers: one-shots left when they were cancelled,
    /// whatever stale keys still sit in the heap; repeating timers at
    /// their deadline.
    pub fn len(&self) -> usize {
        let repeating: usize = self.lanes.iter().map(|l| l.queue.len()).sum();
        self.slots.len() - self.free.len() + repeating
    }

    /// Add a one-shot timer and return its slab slot. `seq` must be fresh
    /// (monotone).
    pub fn push(&mut self, at: SimTime, seq: u64, callback: Box<dyn FnOnce(&mut Env)>) -> usize {
        let entry = Slot {
            seq,
            callback: Some(callback),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = entry;
                slot
            }
            None => {
                self.slots.push(entry);
                self.slots.len() - 1
            }
        };
        self.heap.push(Reverse(TimerKey { at, seq, slot }));
        slot
    }

    /// Add a repeating timer to the lane of `interval`. `seq` must be
    /// fresh (monotone).
    pub fn push_every(&mut self, at: SimTime, seq: u64, interval: SimDuration, repeat: Repeat) {
        let lane = match self.lanes.iter().position(|l| l.interval == interval) {
            Some(lane) => lane,
            None => {
                self.lanes.push(Lane {
                    interval,
                    queue: VecDeque::new(),
                });
                self.lanes.len() - 1
            }
        };
        let key = TimerKey {
            at,
            seq,
            slot: lane,
        };
        self.lanes[lane].insert(key, repeat);
    }

    /// Take one-shot `seq` out of `slot`, if that is still what the slot
    /// holds. A cancelled timer's key stays in the heap and is skipped
    /// as stale later.
    pub fn remove(&mut self, seq: u64, slot: usize) -> Option<Box<dyn FnOnce(&mut Env)>> {
        let entry = self.slots.get_mut(slot)?;
        if entry.seq != seq {
            return None;
        }
        entry.seq = VACANT;
        self.free.push(slot);
        entry.callback.take()
    }

    /// Pop the minimal pending timer if it is due by `t`.
    pub fn pop_due(&mut self, t: SimTime) -> Option<(TimerKey, TimerCallback)> {
        loop {
            let popped = self.pop_next(t)?;
            if let Some(due) = self.take(popped) {
                return Some(due);
            }
        }
    }

    /// Pop every pending timer at the minimal deadline, if it is due by
    /// `t`, and let `choose(k)` pick which of the `k` fires (presented
    /// FIFO by seq; out-of-range picks are clamped, and `choose` is asked
    /// only when `k ≥ 2`). The others go back where they were.
    pub fn pop_chosen(
        &mut self,
        t: SimTime,
        choose: impl FnOnce(usize) -> usize,
    ) -> Option<(TimerKey, TimerCallback)> {
        let first = self.pop_next(t)?;
        let at = first.key().at;
        let mut due = vec![first];
        while let Some(tied) = self.pop_next(at) {
            due.push(tied);
        }
        let k = due.len();
        let pick = if k == 1 { 0 } else { choose(k).min(k - 1) };
        let chosen = due.remove(pick);
        for rest in due {
            match rest {
                Popped::Once(key) => self.heap.push(Reverse(key)),
                Popped::Every(key, repeat) => self.lanes[key.slot].insert(key, repeat),
            }
        }
        self.take(chosen)
    }

    /// Pop the least of the live heap top and the lane fronts if it is
    /// due by `t`, discarding the stale keys above the heap top.
    fn pop_next(&mut self, t: SimTime) -> Option<Popped> {
        let mut next = loop {
            match self.heap.peek() {
                Some(&Reverse(k)) if self.slots[k.slot].seq != k.seq => {
                    self.heap.pop();
                }
                top => break top.map(|&Reverse(k)| k),
            }
        };
        let mut lane = None;
        for (i, l) in self.lanes.iter().enumerate() {
            if let Some(&(k, _)) = l.queue.front() {
                if next.is_none_or(|n| k < n) {
                    next = Some(k);
                    lane = Some(i);
                }
            }
        }
        if next?.at > t {
            return None;
        }
        match lane {
            None => self.heap.pop().map(|Reverse(k)| Popped::Once(k)),
            Some(i) => self.lanes[i]
                .queue
                .pop_front()
                .map(|(k, repeat)| Popped::Every(k, repeat)),
        }
    }

    /// The callback of a popped timer; `None` if a one-shot's slot no
    /// longer holds it.
    fn take(&mut self, popped: Popped) -> Option<(TimerKey, TimerCallback)> {
        match popped {
            Popped::Once(k) => {
                let f = self.remove(k.seq, k.slot)?;
                Some((k, TimerCallback::Once(f)))
            }
            Popped::Every(k, repeat) => {
                let interval = self.lanes[k.slot].interval;
                Some((k, TimerCallback::Every(interval, repeat)))
            }
        }
    }
}

impl std::fmt::Debug for Timers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Timers")
            .field("pending", &self.len())
            .field("keys", &self.heap.len())
            .field("lanes", &self.lanes.len())
            .field("groups", &self.groups.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn nop() -> Box<dyn FnOnce(&mut Env)> {
        Box::new(|_env| {})
    }

    fn every() -> Repeat {
        Repeat::Closure {
            alive: Rc::new(Cell::new(true)),
            f: Box::new(|_env| true),
        }
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
    fn a_tie_loser_keeps_its_slot() {
        let mut q = Timers::default();
        let slot = q.push(t(5), 7, nop());
        q.push(t(5), 8, nop());
        let (k, _) = q.pop_chosen(t(5), |_| 1).expect("due");
        assert_eq!(k.seq, 8);
        assert_eq!(q.len(), 1, "the loser's callback never left the slab");
        assert!(q.remove(7, slot).is_some(), "still cancellable by its id");
        assert_eq!(drain(&mut q), Vec::<u64>::new());
    }

    #[test]
    fn an_out_of_order_arm_takes_its_sorted_place_in_the_lane() {
        let mut q = Timers::default();
        let d = SimDuration::from_millis(10);
        q.push_every(t(30), 0, d, every());
        q.push_every(t(40), 1, d, every());
        // Armed later but due earlier, as after a rewound clock.
        q.push_every(t(20), 2, d, every());
        q.push_every(t(30), 3, d, every());
        assert_eq!(drain(&mut q), vec![2, 0, 3, 1]);
    }

    #[test]
    fn a_lane_front_and_the_heap_top_fire_in_deadline_then_seq_order() {
        let mut q = Timers::default();
        let d = SimDuration::from_millis(10);
        q.push(t(20), 0, nop());
        q.push_every(t(10), 1, d, every());
        q.push(t(10), 2, nop());
        q.push_every(t(20), 3, SimDuration::from_millis(20), every());
        q.push_every(t(30), 4, d, every());
        q.push(t(5), 5, nop());
        assert_eq!(drain(&mut q), vec![5, 1, 2, 0, 3, 4]);
    }

    #[test]
    fn an_earlier_heap_key_fires_before_every_lane_front() {
        let mut q = Timers::default();
        q.push_every(t(10), 0, SimDuration::from_millis(10), every());
        q.push_every(t(10), 1, SimDuration::from_millis(20), every());
        q.push(t(10), 2, nop());
        q.push(t(5), 3, nop());
        assert_eq!(q.pop_due(t(10)).map(|(k, _)| k.seq), Some(3));
        assert_eq!(q.pop_due(t(9)).map(|(k, _)| k.seq), None);
        assert_eq!(drain(&mut q), vec![0, 1, 2]);
    }

    #[test]
    fn len_counts_lane_entries() {
        let mut q = Timers::default();
        let d = SimDuration::from_millis(10);
        q.push_every(t(10), 0, d, every());
        q.push_every(t(10), 1, SimDuration::from_millis(20), every());
        let slot = q.push(t(10), 2, nop());
        q.push_every(t(20), 3, d, every());
        assert_eq!(q.len(), 4);
        q.remove(2, slot);
        assert_eq!(q.len(), 3, "a cancelled one-shot leaves at once");
        q.pop_due(t(10));
        assert_eq!(q.len(), 2);
        let (k, cb) = q.pop_due(t(10)).expect("due");
        assert!(matches!(cb, TimerCallback::Every(i, _) if i == SimDuration::from_millis(20)));
        assert_eq!((k.seq, q.len()), (1, 1));
    }

    #[test]
    fn a_tie_loser_comes_back_in_seq_order() {
        let mut q = Timers::default();
        let d = SimDuration::from_millis(10);
        for seq in 0..4 {
            q.push_every(t(10), seq, d, every());
        }
        q.push_every(t(20), 4, d, every());
        q.push(t(10), 5, nop());
        let (k, _) = q
            .pop_chosen(t(10), |k| {
                assert_eq!(k, 5, "every timer at the deadline is offered");
                2
            })
            .expect("due");
        assert_eq!(k.seq, 2);
        assert_eq!(q.len(), 5);
        assert_eq!(drain(&mut q), vec![0, 1, 3, 5, 4]);
    }
}
