//! B8 — real-thread parallel collection in local (embedded) mode.
//!
//! The simulated experiments measure virtual time; this one measures real
//! CPU time: evaluating a composite tree over live probes sequentially vs.
//! sampled on scoped threads, across thread counts. This is the
//! HPC face of the paper's "various services take part in both
//! communication and computation processes".

use std::time::Instant;

use sensorcer_core::local::{synthetic_tree_with_work, LocalFederation};

use crate::table::Table;

/// Wall-clock nanoseconds per read, (sequential, parallel with `threads`).
/// `work_iters` models per-leaf acquisition cost (driver I/O, filtering).
pub fn read_costs(
    depth: usize,
    fanout: usize,
    threads: usize,
    work_iters: u32,
    reads: u32,
) -> (f64, f64) {
    let fed = LocalFederation::new(synthetic_tree_with_work(depth, fanout, 21.0, work_iters));
    let t0 = Instant::now();
    for _ in 0..reads {
        fed.read_sequential().expect("sequential read");
    }
    let seq = t0.elapsed().as_nanos() as f64 / reads as f64;

    let fed = LocalFederation::new(synthetic_tree_with_work(depth, fanout, 21.0, work_iters));
    let t0 = Instant::now();
    for _ in 0..reads {
        fed.read_parallel(threads).expect("parallel read");
    }
    let par = t0.elapsed().as_nanos() as f64 / reads as f64;
    (seq, par)
}

pub fn run_table() -> Table {
    let mut t = Table::new(
        "B8: local-mode composite read, sequential vs. scoped-thread parallel (host time)",
        &[
            "tree",
            "leaf acquisition",
            "threads",
            "sequential/read",
            "parallel/read",
            "speedup",
        ],
    );
    // Free leaves (scheduling-bound: parallelism cannot help) vs. leaves
    // with realistic acquisition work (compute-bound: parallelism pays).
    // Work rows are labelled with their measured sequential cost per leaf.
    for work_iters in [0u32, 4_000, 20_000] {
        for threads in [2usize, 4, 8] {
            let (seq, par) = read_costs(1, 64, threads, work_iters, 50);
            let label = match work_iters {
                0 => "free".to_string(),
                n => format!("{n} iters = {:.0}us/leaf", seq / 64e3),
            };
            t.row(&[
                "wide 1x64".to_string(),
                label,
                threads.to_string(),
                format!("{:.1}us", seq / 1e3),
                format!("{:.1}us", par / 1e3),
                format!("{:.2}x", seq / par),
            ]);
        }
    }
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    t.note("free leaves are scheduling-bound: fan-out overhead dominates, sequential wins");
    t.note("with real acquisition work the scoped threads win, bounded by available cores");
    t.note(format!(
        "this machine exposes {cpus} core(s); speedup is capped at that"
    ));
    t.note("run with --release for meaningful absolute numbers");
    t
}

pub fn run() -> String {
    run_table().render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_and_sequential_agree_on_value() {
        let fed = LocalFederation::new(synthetic_tree_with_work(2, 8, 21.0, 0));
        let seq = fed.read_sequential().unwrap();
        let par = fed.read_parallel(4).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn costs_are_measurable() {
        let (seq, par) = read_costs(1, 32, 4, 0, 20);
        assert!(seq > 0.0 && par > 0.0);
    }

    #[test]
    fn parallel_wins_with_heavy_leaves_given_cores() {
        // With substantial per-leaf work parallel must beat sequential —
        // but only when the machine actually has more than one core to
        // run on (CI containers often expose just one).
        let cpus = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let (seq, par) = read_costs(1, 64, 8, 20_000, 10);
        if cpus >= 2 {
            assert!(
                par < seq,
                "parallel {par}ns vs sequential {seq}ns on {cpus} cores"
            );
        } else {
            // Single core: parallel must at least not collapse.
            assert!(
                par < seq * 3.0,
                "parallel {par}ns vs sequential {seq}ns on 1 core"
            );
        }
    }

    #[test]
    fn table_has_nine_rows() {
        // Keep this cheap: structural check only (perf assertions belong
        // to release-mode criterion runs, not debug unit tests).
        let t = run_table();
        assert_eq!(t.rows.len(), 9);
    }
}
