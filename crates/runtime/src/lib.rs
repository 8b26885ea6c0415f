//! # sensorcer-runtime
//!
//! A unit [`ThreadPool`], kept for `benchmark/`, whose sharding pass
//! still builds one for `Env::set_worker_pool`; the `[benchmark]` queue
//! deletes the crate. Nothing in the workspace starts a thread: the
//! federation runs on one thread in virtual time.

/// Kept for `benchmark/`; the `[benchmark]` queue deletes it.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadPool;

impl ThreadPool {
    /// Kept for `benchmark/`; the `[benchmark]` queue deletes it.
    pub fn with_default_parallelism() -> ThreadPool {
        ThreadPool
    }
}
