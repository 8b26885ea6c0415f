//! A work-stealing thread pool.
//!
//! The simulated deployment mode runs everything on virtual time, but the
//! *local* (embedded) deployment mode of `sensorcer-core` executes
//! composite reads on real threads. This pool is its engine: one
//! [`Worker`] queue per thread with an [`Injector`] for external
//! submissions, stealing between threads when a local queue runs dry, and
//! parking idle workers so an idle pool costs nothing.

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::deque::{Injector, Steal, Stealer, Worker};
use crate::sync::{Condvar, Mutex};

type Job = Box<dyn FnOnce() + Send>;

struct Shared {
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    shutdown: AtomicBool,
    /// Jobs submitted but not yet completed (for idle tracking in tests).
    inflight: AtomicUsize,
    sleep_lock: Mutex<()>,
    wake: Condvar,
}

impl Shared {
    /// Find the next job: local queue, then injector, then steal.
    fn find_job(&self, local: &Worker<Job>, index: usize) -> Option<Job> {
        if let Some(job) = local.pop() {
            return Some(job);
        }
        loop {
            // Drain a batch from the injector into the local queue.
            match self.injector.steal_batch_and_pop(local) {
                Steal::Success(job) => return Some(job),
                Steal::Retry => continue,
                Steal::Empty => break,
            }
        }
        self.steal_any(index)
    }

    /// Grab one job from the injector or any worker's deque. Used by
    /// workers (stealing) and by threads blocked in `par_map` (helping
    /// with queued work instead of idling — this is what makes nested
    /// `par_map` deadlock-free when every worker is busy).
    fn steal_any(&self, skip: usize) -> Option<Job> {
        loop {
            match self.injector.steal() {
                Steal::Success(job) => return Some(job),
                Steal::Retry => continue,
                Steal::Empty => break,
            }
        }
        let n = self.stealers.len();
        for k in 0..n {
            let victim = (skip + 1 + k) % n;
            loop {
                match self.stealers[victim].steal() {
                    Steal::Success(job) => return Some(job),
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
        }
        None
    }
}

/// The pool. Dropping it shuts workers down (pending jobs are completed
/// first because shutdown is only observed when the queues are empty).
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// Create a pool with `threads` workers (min 1).
    pub fn new(threads: usize) -> ThreadPool {
        let threads = threads.max(1);
        let workers: Vec<Worker<Job>> = (0..threads).map(|_| Worker::new_fifo()).collect();
        let stealers = workers.iter().map(Worker::stealer).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            shutdown: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            sleep_lock: Mutex::new(()),
            wake: Condvar::new(),
        });
        #[expect(
            clippy::expect_used,
            reason = "a pool that cannot start its workers at startup is unrecoverable"
        )]
        let handles = workers
            .into_iter()
            .enumerate()
            .map(|(index, local)| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sensorcer-worker-{index}"))
                    .spawn(move || worker_loop(shared, local, index))
                    .expect("spawn worker thread")
            })
            .collect();
        ThreadPool {
            shared,
            handles,
            threads,
        }
    }

    /// A pool sized to the machine.
    pub fn with_default_parallelism() -> ThreadPool {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ThreadPool::new(n)
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Submit a fire-and-forget job.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.shared.inflight.fetch_add(1, Ordering::SeqCst);
        let shared = Arc::clone(&self.shared);
        self.shared.injector.push(Box::new(move || {
            job();
            shared.inflight.fetch_sub(1, Ordering::SeqCst);
        }));
        let _guard = self.shared.sleep_lock.lock();
        self.shared.wake.notify_all();
    }

    /// Map `f` over `items` in parallel, preserving order. The calling
    /// thread participates in the work, so this also functions (serially)
    /// on a saturated or single-threaded pool. Panics in `f` propagate to
    /// the caller after all items finish or are abandoned.
    pub fn par_map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Send + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        if n == 1 {
            // Cheaper than the whole latch machinery.
            let mut items = items;
            #[expect(clippy::expect_used, reason = "len() == 1 checked above")]
            return vec![f(items.pop().expect("len checked"))];
        }

        struct Operation<T, R, F> {
            items: Vec<Mutex<Option<T>>>,
            results: Vec<Mutex<Option<R>>>,
            next: AtomicUsize,
            remaining: AtomicUsize,
            panicked: Mutex<Option<Box<dyn std::any::Any + Send>>>,
            done_lock: Mutex<bool>,
            done: Condvar,
            f: F,
        }

        impl<T, R, F: Fn(T) -> R> Operation<T, R, F> {
            /// Claim and run items until none remain. Returns true if this
            /// call completed the final item.
            fn work(&self) -> bool {
                let mut finished_last = false;
                loop {
                    let i = self.next.fetch_add(1, Ordering::SeqCst);
                    if i >= self.items.len() {
                        break;
                    }
                    #[expect(
                        clippy::expect_used,
                        reason = "the counter hands each index to exactly one worker"
                    )]
                    let item = self.items[i]
                        .lock()
                        .take()
                        .expect("each index claimed once");
                    match std::panic::catch_unwind(AssertUnwindSafe(|| (self.f)(item))) {
                        Ok(r) => *self.results[i].lock() = Some(r),
                        Err(payload) => {
                            let mut p = self.panicked.lock();
                            if p.is_none() {
                                *p = Some(payload);
                            }
                        }
                    }
                    if self.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                        finished_last = true;
                    }
                }
                finished_last
            }

            fn signal_done(&self) {
                let mut done = self.done_lock.lock();
                *done = true;
                self.done.notify_all();
            }
        }

        let op = Arc::new(Operation {
            items: items.into_iter().map(|t| Mutex::new(Some(t))).collect(),
            results: (0..n).map(|_| Mutex::new(None)).collect(),
            next: AtomicUsize::new(0),
            remaining: AtomicUsize::new(n),
            panicked: Mutex::new(None),
            done_lock: Mutex::new(false),
            done: Condvar::new(),
            f,
        });

        let helpers = (self.threads).min(n.saturating_sub(1));
        for _ in 0..helpers {
            let op = Arc::clone(&op);
            let shared = Arc::clone(&self.shared);
            self.shared.inflight.fetch_add(1, Ordering::SeqCst);
            let job: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                if op.work() {
                    op.signal_done();
                }
                shared.inflight.fetch_sub(1, Ordering::SeqCst);
            });
            // SAFETY: the job borrows no stack data — it owns Arc clones —
            // but `T`/`R`/`F` need not be 'static, so the box's trait
            // object isn't 'static either. Erasing the lifetime is sound
            // because `par_map` blocks below until `remaining` hits zero
            // (the `done` condvar), so the operation — and everything the
            // job can reach — outlives every worker's use of it. `T`, `R`
            // and `F` cross threads only under their Send/Sync bounds.
            let job: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(job) };
            self.shared.injector.push(job);
        }
        {
            let _guard = self.shared.sleep_lock.lock();
            self.shared.wake.notify_all();
        }

        // The caller works too; then waits for stragglers — *helping* with
        // queued pool work while it waits. Without the helping, nested
        // par_map calls deadlock once every worker thread is blocked inside
        // an outer operation: the inner operations' helper jobs would sit
        // in the queues with nobody left to run them.
        if op.work() {
            op.signal_done();
        }
        loop {
            if *op.done_lock.lock() {
                break;
            }
            if let Some(job) = self.shared.steal_any(0) {
                job();
                continue;
            }
            let mut done = op.done_lock.lock();
            if *done {
                break;
            }
            op.done
                .wait_for(&mut done, std::time::Duration::from_millis(1));
        }

        // Wait until every helper job has dropped its Arc — including ones
        // still queued that never claimed an item. This upholds the
        // transmute's contract: nothing reachable from the operation (in
        // particular `F`'s borrows of the caller's stack) survives past
        // this return. Keep helping so queued stragglers get executed even
        // when all workers are blocked in outer operations.
        while Arc::strong_count(&op) > 1 {
            match self.shared.steal_any(0) {
                Some(job) => job(),
                None => std::thread::yield_now(),
            }
        }

        if let Some(payload) = op.panicked.lock().take() {
            std::panic::resume_unwind(payload);
        }
        #[expect(
            clippy::expect_used,
            reason = "the loop above waited until this is the last Arc"
        )]
        let op = Arc::into_inner(op).expect("exclusive ownership established above");
        #[expect(
            clippy::expect_used,
            reason = "the done signal orders every result write before this read"
        )]
        let results: Vec<R> = op
            .results
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("all results written before done signal")
            })
            .collect();
        results
    }

    /// Number of jobs submitted but not yet finished.
    pub fn inflight(&self) -> usize {
        self.shared.inflight.load(Ordering::SeqCst)
    }

    /// Busy-wait (with parking) until all spawned jobs finish.
    pub fn wait_idle(&self) {
        while self.inflight() > 0 {
            std::thread::yield_now();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, local: Worker<Job>, index: usize) {
    loop {
        if let Some(job) = shared.find_job(&local, index) {
            job();
            continue;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Nothing to do: park until a submission or shutdown wakes us.
        let mut guard = shared.sleep_lock.lock();
        // Re-check under the lock to avoid missed wakeups.
        if shared.shutdown.load(Ordering::SeqCst) || !shared.injector.is_empty() {
            continue;
        }
        shared
            .wake
            .wait_for(&mut guard, std::time::Duration::from_millis(50));
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _guard = self.shared.sleep_lock.lock();
            self.shared.wake.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .field("inflight", &self.inflight())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn spawn_runs_jobs() {
        let pool = ThreadPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn par_map_preserves_order() {
        let pool = ThreadPool::new(4);
        let out = pool.par_map((0..1000).collect(), |i: u64| i * 2);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 2 * i as u64);
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let pool = ThreadPool::new(2);
        assert_eq!(pool.par_map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(pool.par_map(vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_borrows_caller_state() {
        let pool = ThreadPool::new(4);
        let base = [10u64, 20, 30]; // borrowed by the closure
        let out = pool.par_map(vec![0usize, 1, 2], |i| base[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn par_map_actually_uses_multiple_threads() {
        let pool = ThreadPool::new(4);
        let seen: Mutex<std::collections::HashSet<std::thread::ThreadId>> =
            Mutex::new(Default::default());
        pool.par_map((0..64).collect(), |_i: u32| {
            seen.lock().insert(std::thread::current().id());
            // Force enough dwell time that helpers get a slice.
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        assert!(
            seen.lock().len() >= 2,
            "expected >=2 threads, got {}",
            seen.lock().len()
        );
    }

    #[test]
    fn par_map_single_thread_pool_still_completes() {
        let pool = ThreadPool::new(1);
        let out = pool.par_map((0..100).collect(), |i: u32| i + 1);
        assert_eq!(out.len(), 100);
        assert_eq!(out[99], 100);
    }

    #[test]
    fn panic_in_par_map_propagates() {
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(vec![1u32, 2, 3], |i| {
                if i == 2 {
                    panic!("boom");
                }
                i
            });
        }));
        assert!(result.is_err());
        // The pool survives and keeps working afterwards.
        let out = pool.par_map(vec![1u32, 2], |i| i * 10);
        assert_eq!(out, vec![10, 20]);
    }

    #[test]
    fn nested_par_map_does_not_deadlock() {
        let pool = Arc::new(ThreadPool::new(2));
        // The caller participates in work, so even a saturated pool makes
        // progress on nested operations.
        let p2 = Arc::clone(&pool);
        let out = pool.par_map(vec![1u64, 2, 3, 4], move |i| {
            p2.par_map(vec![i, i + 1], |j| j * 2).iter().sum::<u64>()
        });
        assert_eq!(out, vec![2 + 4, 4 + 6, 6 + 8, 8 + 10]);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ThreadPool::new(3);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..10 {
            let c = Arc::clone(&counter);
            pool.spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        drop(pool); // must not hang
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn threads_clamped_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        let out = pool.par_map(vec![1, 2, 3], |i: i32| i);
        assert_eq!(out, vec![1, 2, 3]);
    }
}
