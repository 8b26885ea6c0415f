//! # sensorcer-runtime
//!
//! Real-thread parallel execution for the *local* (embedded,
//! non-simulated) deployment mode of the SenSORCER reproduction. Provides
//! a work-stealing [`ThreadPool`] (per-worker deques + parking) whose
//! [`ThreadPool::par_map`] lets a composite sensor provider fan its child
//! reads out over actual OS threads — the HPC counterpart of the
//! simulator's virtual-time `Flow::Parallel`.
//!
//! ```
//! use sensorcer_runtime::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let squares = pool.par_map((0..100u64).collect(), |i| i * i);
//! assert_eq!(squares[7], 49);
//! ```

// The one audited `unsafe` block in the workspace lives in `pool`
// (lifetime erasure for scoped parallel jobs, see its SAFETY note);
// every other crate is `#![forbid(unsafe_code)]`.
#![deny(unsafe_op_in_unsafe_fn)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
pub mod deque;
pub mod pool;
pub mod sync;

pub use pool::ThreadPool;
