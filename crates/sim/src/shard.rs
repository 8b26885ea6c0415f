//! Per-subnet event shards for the timer queue.
//!
//! The sequential engine keeps one global `BinaryHeap` of timers ordered
//! by `(deadline, seq)`. At 10⁵ motes that heap is both the memory and
//! the synchronization bottleneck, so [`ShardedQueue`] splits the *keys*
//! (deadline + sequence number + subnet hint + slab slot) into one
//! min-heap per subnet shard, while the callbacks — boxed closures over
//! `Rc`-shared service objects, which can never leave the coordinating
//! thread — stay in a slab (`Vec` + free list) the key's slot indexes.
//! Firing a timer is a heap pop and one indexed move out of the slab: no
//! hash table, and no allocation beyond the closure the caller boxed.
//!
//! A slot remembers the seq of the timer it holds. Cancelling a one-shot
//! timer empties its slot at once (the captured state drops there) and
//! leaves the key in its heap; a key whose seq no longer matches its
//! slot's is stale and is discarded when it surfaces. Seqs are never
//! reused, so a slot handed to a newer timer cannot resurrect an old key.
//!
//! A repeating timer is a single [`TimerCallback::Every`] entry that
//! `Env` pushes back — closure moved, not re-boxed — after each firing.
//!
//! ## The conservative time-window protocol
//!
//! `Env::run_until` in sharded mode executes *windows*: it finds the
//! earliest pending deadline `t₀`, opens a window `[t₀, t₀ + lookahead]`
//! where the lookahead is the minimum cross-subnet link latency from
//! [`crate::topology::Topology::min_cross_subnet_latency`] (no
//! cross-subnet influence can arrive sooner than that), and migrates
//! every due key from the shard heaps into a merged `hot` heap — the only
//! part that parallelizes, via [`sensorcer_runtime::ThreadPool::par_map`]
//! over the `Send` key heaps. The window edge is the barrier: all shards
//! synchronize before the next window opens.
//!
//! ## Determinism
//!
//! Execution order is **bit-identical to the sequential engine**: every
//! timer carries the globally monotone sequence number the sequential
//! engine would have given it, keys are totally ordered by
//! `(deadline, seq)` (the shard id and slot ride along for bookkeeping
//! only — seq is already unique), and callbacks always run on the
//! coordinating thread in that merged order. The window is therefore a
//! *batching* lever: it bounds how often shard heaps synchronize, not
//! which order events fire in, so DPOR schedule exploration and the
//! happens-before checks from `sensorcer-verify` hold unchanged, and the
//! parallel key migration cannot perturb a single result byte.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use crate::env::Env;
use crate::time::{SimDuration, SimTime};
use crate::topology::SubnetId;

/// What a pending timer runs. Not `Send` (it closes over `Rc`-shared
/// service state), which is why only keys shard across threads.
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

/// The `Send` part of a pending timer. Ordered by `(at, seq)` — exactly
/// the sequential engine's deadline-then-FIFO order; `seq` is globally
/// unique so the order is total and neither the subnet hint nor the slab
/// slot ever influences it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TimerKey {
    pub at: SimTime,
    pub seq: u64,
    /// Subnet affinity at scheduling time; selects the shard heap.
    pub hint: SubnetId,
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

/// Cumulative counters for honest shard-sync overhead reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Windows opened (each one is a full shard barrier).
    pub windows: u64,
    /// Keys migrated shard-heap → hot-heap across all windows.
    pub keys_migrated: u64,
    /// Windows whose key migration ran on the worker pool.
    pub parallel_windows: u64,
}

/// Don't bother fanning a window's key migration out to worker threads
/// unless at least this many keys are pending across all shards — below
/// it the wake/steal round-trip costs more than the heap pops it saves.
const PARALLEL_MIGRATION_THRESHOLD: usize = 4096;

/// One slab entry: the callback of the pending timer `seq`, or vacant.
struct Slot {
    seq: u64,
    callback: Option<TimerCallback>,
}

/// The seq of a vacant slot; no timer ever carries it.
const VACANT: u64 = u64::MAX;

/// Which heap a head key was read from.
#[derive(Clone, Copy)]
enum Lane {
    Hot,
    Shard(usize),
}

/// The sharded timer store. One per [`Env`]; starts with a single shard
/// (the sequential engine, same heap discipline as before) until
/// `Env::enable_sharding` splits it per subnet.
pub(crate) struct ShardedQueue {
    /// Per-shard min-heaps of timer keys; a key lives in
    /// `shards[hint % shards.len()]` while outside the hot window.
    shards: Vec<BinaryHeap<Reverse<TimerKey>>>,
    /// The merged execution heap for the open window. Always participates
    /// in `peek`/`pop_due`, so keys parked here between windows (e.g.
    /// after a nested `run_until` widened the window) still fire in order.
    hot: BinaryHeap<Reverse<TimerKey>>,
    /// Upper edge of the open window; new keys at or below it go straight
    /// into `hot` (they would fire inside this window sequentially too).
    horizon: Option<SimTime>,
    /// The callback of every pending timer, at its key's `slot`.
    slots: Vec<Slot>,
    /// Vacant entries of `slots`, reused last-freed first.
    free: Vec<u32>,
    stats: ShardStats,
}

impl ShardedQueue {
    pub fn new() -> ShardedQueue {
        ShardedQueue {
            shards: vec![BinaryHeap::new()],
            hot: BinaryHeap::new(),
            horizon: None,
            slots: Vec::new(),
            free: Vec::new(),
            stats: ShardStats::default(),
        }
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub fn is_sharded(&self) -> bool {
        self.shards.len() > 1
    }

    pub fn stats(&self) -> ShardStats {
        self.stats
    }

    /// Number of pending timers; cancelled ones left when they were
    /// cancelled, whatever stale keys still sit in the heaps.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Re-shard to `n` heaps, redistributing every pending key by its
    /// subnet hint (stale keys are dropped on the way). O(pending);
    /// called once at `enable_sharding`.
    pub fn set_shard_count(&mut self, n: usize) {
        let n = n.max(1);
        let mut keys: Vec<TimerKey> = Vec::with_capacity(self.len());
        for heap in self.shards.iter_mut().chain([&mut self.hot]) {
            keys.extend(heap.drain().map(|Reverse(k)| k));
        }
        self.shards = (0..n).map(|_| BinaryHeap::new()).collect();
        for k in keys {
            if self.is_live(k) {
                self.push_key(k);
            }
        }
    }

    fn shard_index(&self, hint: SubnetId) -> usize {
        hint.0 as usize % self.shards.len()
    }

    /// File a key under its shard, or into the open window. Also the way
    /// back for a key popped with [`ShardedQueue::pop_key_due`] but not
    /// executed (the tie-chooser path gathers a due set and returns the
    /// losers): its callback never left the slab.
    pub fn push_key(&mut self, k: TimerKey) {
        if self.horizon.is_some_and(|h| k.at <= h) {
            self.hot.push(Reverse(k));
        } else {
            let i = self.shard_index(k.hint);
            self.shards[i].push(Reverse(k));
        }
    }

    /// Add a timer and return its slab slot. `seq` must be fresh
    /// (globally monotone).
    pub fn push(&mut self, at: SimTime, seq: u64, hint: SubnetId, callback: TimerCallback) -> u32 {
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
        self.push_key(TimerKey {
            at,
            seq,
            hint,
            slot,
        });
        slot
    }

    /// Take timer `seq` out of `slot`, if that is still what the slot
    /// holds. Its key stays in a heap and is skipped as stale later.
    pub fn remove(&mut self, seq: u64, slot: u32) -> Option<TimerCallback> {
        let entry = self.slots.get_mut(slot as usize)?;
        if entry.seq != seq {
            return None;
        }
        entry.seq = VACANT;
        self.free.push(slot);
        entry.callback.take()
    }

    fn is_live(&self, k: TimerKey) -> bool {
        self.slots[k.slot as usize].seq == k.seq
    }

    /// The globally minimal key, across hot and every shard, stale or not.
    fn head(&self) -> Option<(TimerKey, Lane)> {
        let mut best = self.hot.peek().map(|Reverse(k)| (*k, Lane::Hot));
        for (i, heap) in self.shards.iter().enumerate() {
            if let Some(Reverse(k)) = heap.peek() {
                if best.is_none_or(|(b, _)| *k < b) {
                    best = Some((*k, Lane::Shard(i)));
                }
            }
        }
        best
    }

    /// The globally minimal pending key, discarding the stale keys above it.
    fn live_head(&mut self) -> Option<(TimerKey, Lane)> {
        loop {
            let (k, lane) = self.head()?;
            if self.is_live(k) {
                return Some((k, lane));
            }
            self.pop_lane(lane);
        }
    }

    fn pop_lane(&mut self, lane: Lane) {
        match lane {
            Lane::Hot => self.hot.pop(),
            Lane::Shard(i) => self.shards[i].pop(),
        };
    }

    /// The globally minimal pending key.
    pub fn peek(&mut self) -> Option<TimerKey> {
        self.live_head().map(|(k, _)| k)
    }

    /// Pop the globally minimal pending key if it is due by `t`, leaving
    /// its callback in the slab ([`ShardedQueue::take`] fetches it,
    /// [`ShardedQueue::push_key`] puts the key back).
    pub fn pop_key_due(&mut self, t: SimTime) -> Option<TimerKey> {
        let (k, lane) = self.live_head()?;
        if k.at > t {
            return None;
        }
        self.pop_lane(lane);
        Some(k)
    }

    /// The callback of a key popped live and not run since.
    #[expect(clippy::expect_used, reason = "a live key's slot holds its callback")]
    pub fn take(&mut self, k: TimerKey) -> TimerCallback {
        self.remove(k.seq, k.slot).expect("live key has a callback")
    }

    /// Pop the globally minimal pending timer if it is due by `t`.
    pub fn pop_due(&mut self, t: SimTime) -> Option<(TimerKey, TimerCallback)> {
        let k = self.pop_key_due(t)?;
        Some((k, self.take(k)))
    }

    /// Open a window: migrate every key with `at <= horizon` from the
    /// shard heaps into `hot`, then record the horizon so same-window
    /// newcomers join `hot` directly. The migration fans out to `pool`
    /// when the backlog is large; the per-shard extractions touch only
    /// `Send` keys and merge into one heap afterwards, so parallel and
    /// serial migration are indistinguishable to the simulation.
    pub fn open_window(&mut self, horizon: SimTime, pool: Option<&sensorcer_runtime::ThreadPool>) {
        self.stats.windows += 1;
        let pending: usize = self.shards.iter().map(BinaryHeap::len).sum();
        let migrated: usize;
        match pool {
            Some(pool) if self.is_sharded() && pending >= PARALLEL_MIGRATION_THRESHOLD => {
                self.stats.parallel_windows += 1;
                let heaps: Vec<BinaryHeap<Reverse<TimerKey>>> =
                    self.shards.iter_mut().map(std::mem::take).collect();
                let done = pool.par_map(heaps, |mut heap| {
                    let mut due = Vec::new();
                    while heap.peek().is_some_and(|Reverse(k)| k.at <= horizon) {
                        #[expect(
                            clippy::expect_used,
                            reason = "peeked non-empty on the line above"
                        )]
                        due.push(heap.pop().expect("head peeked").0);
                    }
                    (heap, due)
                });
                let mut total = 0usize;
                for (i, (heap, due)) in done.into_iter().enumerate() {
                    self.shards[i] = heap;
                    total += due.len();
                    self.hot.extend(due.into_iter().map(Reverse));
                }
                migrated = total;
            }
            _ => {
                let mut total = 0usize;
                for heap in &mut self.shards {
                    while heap.peek().is_some_and(|Reverse(k)| k.at <= horizon) {
                        #[expect(
                            clippy::expect_used,
                            reason = "peeked non-empty on the line above"
                        )]
                        self.hot.push(Reverse(heap.pop().expect("head peeked").0));
                        total += 1;
                    }
                }
                migrated = total;
            }
        }
        self.stats.keys_migrated += migrated as u64;
        // A nested run_until may have opened a wider window; never shrink
        // it — keys already in hot were admitted against the wider edge.
        self.horizon = Some(self.horizon.map_or(horizon, |h| h.max(horizon)));
    }

    /// Close the window (the barrier edge). Keys a nested, wider window
    /// parked in `hot` simply stay there; `peek`/`pop_due` order is global so
    /// they still fire at the right instant.
    pub fn close_window(&mut self) {
        self.horizon = None;
    }
}

impl std::fmt::Debug for ShardedQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedQueue")
            .field("shards", &self.shards.len())
            .field("pending", &self.len())
            .field("hot", &self.hot.len())
            .field("horizon", &self.horizon)
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

    fn drain(q: &mut ShardedQueue) -> Vec<u64> {
        std::iter::from_fn(|| q.pop_due(SimTime::FAR_FUTURE).map(|(k, _)| k.seq)).collect()
    }

    #[test]
    fn pop_order_is_global_deadline_then_seq_across_shards() {
        let mut q = ShardedQueue::new();
        q.set_shard_count(4);
        q.push(t(30), 0, SubnetId(3), nop());
        q.push(t(10), 1, SubnetId(1), nop());
        q.push(t(10), 2, SubnetId(2), nop());
        q.push(t(20), 3, SubnetId(0), nop());
        assert_eq!(drain(&mut q), vec![1, 2, 3, 0]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn window_migration_preserves_order_and_counts_stats() {
        let mut q = ShardedQueue::new();
        q.set_shard_count(2);
        for seq in 0..10u64 {
            q.push(t(seq), seq, SubnetId(seq as u32), nop());
        }
        q.open_window(t(4), None);
        assert_eq!(q.stats().windows, 1);
        assert_eq!(q.stats().keys_migrated, 5);
        // A key scheduled inside the open window joins the merge directly
        // and still fires in global (deadline, seq) order; one past the
        // horizon parks in its shard heap untouched.
        q.push(t(3), 100, SubnetId(1), nop());
        q.push(t(50), 101, SubnetId(1), nop());
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop_due(t(4)).map(|(k, _)| k.seq)).collect();
        q.close_window();
        assert_eq!(seqs, vec![0, 1, 2, 3, 100, 4]);
        assert_eq!(q.len(), 6, "5 future keys plus the one past the horizon");
    }

    #[test]
    fn parallel_and_serial_migration_agree() {
        let pool = sensorcer_runtime::ThreadPool::new(4);
        let build = |shards: usize| {
            let mut q = ShardedQueue::new();
            q.set_shard_count(shards);
            for seq in 0..(2 * PARALLEL_MIGRATION_THRESHOLD as u64) {
                q.push(t(seq % 97), seq, SubnetId(seq as u32 % 8), nop());
            }
            q
        };
        let drain = |mut q: ShardedQueue| {
            let mut seqs = Vec::new();
            while let Some((k, _)) = q.pop_due(SimTime::FAR_FUTURE) {
                seqs.push((k.at, k.seq));
            }
            seqs
        };
        let mut par = build(8);
        par.open_window(t(96), Some(&pool));
        assert_eq!(par.stats().parallel_windows, 1);
        let mut ser = build(8);
        ser.open_window(t(96), None);
        assert_eq!(ser.stats().parallel_windows, 0);
        assert_eq!(drain(par), drain(ser));
    }

    #[test]
    fn reshard_redistributes_without_losing_keys() {
        let mut q = ShardedQueue::new();
        for seq in 0..100u64 {
            q.push(t(seq), seq, SubnetId(seq as u32 % 16), nop());
        }
        q.set_shard_count(8);
        assert_eq!(q.shard_count(), 8);
        assert_eq!(q.len(), 100);
        assert_eq!(drain(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn removed_timer_is_skipped_and_its_slot_is_reused_safely() {
        let mut q = ShardedQueue::new();
        let a = q.push(t(10), 0, SubnetId(0), nop());
        let b = q.push(t(20), 1, SubnetId(0), nop());
        assert!(q.remove(0, a).is_some());
        assert!(q.remove(0, a).is_none(), "already gone");
        assert_eq!(q.len(), 1);
        // The vacated slot goes to a newer timer; the stale key for seq 0
        // still sits in the heap ahead of it and must not fire it early.
        let c = q.push(t(30), 2, SubnetId(0), nop());
        assert_eq!(c, a);
        assert!(
            q.remove(0, a).is_none(),
            "an old id cannot cancel the slot's new tenant"
        );
        assert_eq!(q.peek().map(|k| k.seq), Some(1));
        assert_eq!(q.pop_due(t(15)).map(|(k, _)| k.seq), None);
        assert_eq!(drain(&mut q), vec![1, 2]);
        assert_eq!(q.len(), 0);
        assert!(q.remove(1, b).is_none(), "fired");
    }

    #[test]
    fn requeued_key_keeps_its_slot() {
        let mut q = ShardedQueue::new();
        q.set_shard_count(2);
        let slot = q.push(t(5), 7, SubnetId(1), nop());
        let k = q.pop_key_due(t(5)).expect("due");
        assert_eq!((k.seq, k.slot), (7, slot));
        assert_eq!(q.len(), 1, "the callback never left the slab");
        q.push_key(k);
        assert!(q.remove(7, slot).is_some(), "still cancellable by its id");
        assert_eq!(drain(&mut q), Vec::<u64>::new());
    }

    #[test]
    fn resharding_drops_stale_keys() {
        let mut q = ShardedQueue::new();
        let slot = q.push(t(1), 0, SubnetId(0), nop());
        q.push(t(2), 1, SubnetId(1), nop());
        q.remove(0, slot);
        q.set_shard_count(4);
        assert_eq!(q.shards.iter().map(BinaryHeap::len).sum::<usize>(), 1);
        assert_eq!(drain(&mut q), vec![1]);
    }
}
