//! Thin synchronization primitives with a `parking_lot`-style API on top
//! of `std::sync`.
//!
//! `lock()` returns the guard directly (poisoning is converted into the
//! inner guard: a panic that poisons a lock has already been captured and
//! will be re-raised by the pool's panic plumbing, so propagating poison a
//! second time would only obscure the original payload), and
//! [`Condvar::wait_for`] takes the guard by `&mut` like `parking_lot`'s.

use std::sync::PoisonError;
use std::time::Duration;

/// Mutual exclusion with non-poisoning `lock()`.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

/// Guard returned by [`Mutex::lock`]. Wraps the std guard in an `Option`
/// so [`Condvar::wait_for`] can temporarily take ownership.
pub struct MutexGuard<'a, T> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        MutexGuard { inner: Some(guard) }
    }

    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    #[expect(
        clippy::expect_used,
        reason = "guard invariant: inner is present outside wait_for()"
    )]
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside wait")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    #[expect(
        clippy::expect_used,
        reason = "guard invariant: inner is present outside wait_for()"
    )]
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside wait")
    }
}

/// Condition variable whose wait takes the guard by `&mut`.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }

    /// Wait until notified or `timeout` elapses. Returns `true` if the
    /// wait timed out.
    pub fn wait_for<T>(&self, guard: &mut MutexGuard<'_, T>, timeout: Duration) -> bool {
        #[expect(
            clippy::expect_used,
            reason = "guard invariant: inner is present outside wait_for()"
        )]
        let inner = guard.inner.take().expect("guard present outside wait");
        let (inner, result) = self
            .inner
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(inner);
        result.timed_out()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_survives_panicking_holder() {
        let m = Arc::new(Mutex::new(5u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 5, "lock usable after a panicking holder");
    }

    #[test]
    fn wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        assert!(cv.wait_for(&mut g, Duration::from_millis(5)));
    }

    #[test]
    fn wait_for_sees_notification() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut flag = m.lock();
            *flag = true;
            cv.notify_all();
            drop(flag);
        });
        let (m, cv) = &*pair;
        let mut flag = m.lock();
        while !*flag {
            cv.wait_for(&mut flag, Duration::from_millis(50));
        }
        drop(flag);
        t.join().unwrap();
    }
}
