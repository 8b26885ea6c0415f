//! How fast is this machine right now?
//!
//! The sandbox this benchmark is judged in shares its host: the same
//! binary on the same seed runs up to 1.4× slower for minutes at a time,
//! with no steal time to show for it. Ten runs of `tree_read` spread 15 %
//! raw, which would bury any regression smaller than that.
//!
//! So every timed stretch is bracketed by a burst of a fixed kernel made
//! of what the program under test is made of — `format!`, `String` keys,
//! a `BTreeMap` — and host times are scaled by how fast the kernel ran
//! against [`REFERENCE_ROUNDS_PER_S`]. Eight back-to-back runs that spread
//! 15 % as measured spread 1.6 % scaled; over a quarter of an hour the
//! scaled spread is 4–10 %. A second kernel over a 25 MB working set
//! tracked the workloads no better on any of the five, so there is one.
//! The kernel is this crate's code over `std` only, so no change to
//! `crates/` can move it; the unscaled figures are printed beside the
//! scaled ones.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Kernel rounds per second on the machine the op counts were sized on,
/// at its usual speed. Only fixes the scale: a machine speed of 1.0 means
/// this rate.
pub const REFERENCE_ROUNDS_PER_S: f64 = 2_400.0;

const BURST: Duration = Duration::from_millis(50);
const KEYS: u64 = 1_000;

fn round() -> u64 {
    let mut map: BTreeMap<String, u64> = BTreeMap::new();
    for i in 0..KEYS {
        map.insert(format!("net.bytes.{}.{}", i % 37, i), i);
    }
    for i in 0..KEYS {
        if let Some(v) = map.get_mut(&format!("net.bytes.{}.{}", i % 37, i)) {
            *v += 1;
        }
    }
    map.values().sum()
}

/// Run the kernel for 50 ms; returns the machine's speed as a multiple of
/// the reference (above 1: faster).
pub fn machine_speed() -> f64 {
    let start = Instant::now();
    let mut rounds = 0u32;
    while start.elapsed() < BURST {
        std::hint::black_box(round());
        rounds += 1;
    }
    f64::from(rounds) / start.elapsed().as_secs_f64() / REFERENCE_ROUNDS_PER_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_its_work_and_speed_is_positive() {
        // Every key found once: the sum of 0..KEYS plus KEYS increments.
        assert_eq!(round(), KEYS * (KEYS - 1) / 2 + KEYS);
        let s = machine_speed();
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
