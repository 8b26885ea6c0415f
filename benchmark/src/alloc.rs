//! Counting allocator for the count pass.
//!
//! Wraps the system allocator and, only while the *calling thread* has
//! switched counting on, tallies allocations, bytes requested and the
//! live-bytes high-water mark. Off (the default) costs one thread-local
//! load per call, so the timing pass runs on it unperturbed; on costs a
//! few relaxed atomics per call (~25 % of a flat read), which is why the
//! allocation metrics come from a pass of their own.
//!
//! The switch is per thread so that a count is exact: the benchmark's
//! main thread counts only its own work, and a unit test is not polluted
//! by tests running beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};

pub struct Counting;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
}

// Statistics only: nothing is published through these, so Relaxed.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

#[inline]
fn on() -> bool {
    // `try_with` because the allocator also runs while a thread is torn
    // down; a `Cell<bool>` has no destructor, so this never fails in
    // practice, and counting nothing is the right answer if it does.
    ON.try_with(Cell::get).unwrap_or(false)
}

#[inline]
fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged, so `System`'s guarantees are
// this allocator's guarantees; the bookkeeping touches only atomics and a
// destructor-free thread-local and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through as is.
        let p = unsafe { System.alloc(layout) };
        if on() && !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, passed through as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if on() && !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` are the caller's, passed through as is.
        unsafe { System.dealloc(ptr, layout) };
        if on() {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, passed
        // through as is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if on() && !p.is_null() {
            // A growth or shrink in place is one allocator call asking for
            // `new_size` bytes and giving `layout.size()` back.
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            grew(new_size);
        }
        p
    }
}

/// Counter readings; subtract two snapshots for a delta.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    pub allocs: u64,
    pub bytes: u64,
    /// High-water mark of bytes allocated and not yet freed since
    /// [`start`]. Memory allocated before `start` and freed after it
    /// counts against this, so start before building what is measured.
    pub peak_live_bytes: u64,
}

/// Zero the counters and count this thread's allocator calls from here.
pub fn start() {
    ON.with(|on| on.set(false));
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.with(|on| on.set(true));
}

/// Stop counting on this thread.
pub fn stop() {
    ON.with(|on| on.set(false));
}

pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_live_bytes: PEAK.load(Relaxed).max(0) as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test, not two: the counters are process-wide, so two tests that
    // both call `start` would reset each other's counts.
    #[test]
    fn off_counts_nothing_and_on_counts_a_vec_growth_exactly() {
        start();
        stop();
        let before = snapshot();
        let v: Vec<u64> = Vec::with_capacity(100);
        drop(v);
        assert_eq!(snapshot(), before, "off path must not count");

        start();
        let mut v: Vec<u8> = Vec::with_capacity(16);
        let a = snapshot();
        assert_eq!((a.allocs, a.bytes), (1, 16));
        v.extend_from_slice(&[0u8; 16]);
        v.reserve_exact(48); // one realloc to exactly 64 bytes
        let b = snapshot();
        assert_eq!((b.allocs, b.bytes), (2, 16 + 64));
        assert_eq!(b.peak_live_bytes, 64);
        drop(v);
        let c = snapshot();
        assert_eq!((c.allocs, c.bytes, c.peak_live_bytes), (2, 80, 64));
        stop();
    }
}
