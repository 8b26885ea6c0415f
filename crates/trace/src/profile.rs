//! Sim-time sampling profiler driven by the span stack.
//!
//! The simulator's virtual clock makes profiling exact instead of
//! statistical: every closed [`Span`] carries its precise virtual-time
//! extent, so *self time* (duration minus time covered by children) can
//! be attributed deterministically — per operation name, per host and
//! per lane (a caller-chosen group of hosts). The profiler consumes
//! the same retirement stream the streaming Perfetto exporter does
//! (spans in close order), holding state proportional to the *open*
//! span set plus the distinct-stack table, never the trace length.
//!
//! Outputs:
//!
//! * [`ProfileReport`] — self/total time tables by op, host and lane.
//!   When the run is wrapped in root spans, Σ self time equals the
//!   run time exactly (self time partitions the root extents).
//! * [`Profiler::collapsed_stacks`] — `a;b;c <ns>` lines, the standard
//!   collapsed-stack format flamegraph tooling consumes directly.
//! * [`Profiler::lane_utilization_series`] — cumulative per-lane busy
//!   nanoseconds at each [`Profiler::sample_lanes`] instant, ready to
//!   feed the exporter as native Perfetto counter tracks.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::perfetto::{CounterSeries, CounterUnit};
use crate::Span;

/// Metric keys the profiler is held to by the repo-wide
/// `subsystem.object.action` naming audit (the `profile.*` family).
pub mod keys {
    pub const SPANS_FED: &str = "profile.spans.fed";
    pub const SELF_TOTAL_NS: &str = "profile.self_time.total_ns";
    pub const STACKS_DISTINCT: &str = "profile.stacks.distinct";
    pub const LANE_BUSY_NS: &str = "profile.lane_busy.total_ns";

    pub const ALL: &[&str] = &[SPANS_FED, SELF_TOTAL_NS, STACKS_DISTINCT, LANE_BUSY_NS];
}

/// Aggregate timing for one operation name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpStat {
    pub count: u64,
    /// Wall (virtual) extent summed over spans.
    pub total_ns: u64,
    /// Extent not covered by child spans.
    pub self_ns: u64,
}

/// The profiler's summary tables, sorted hottest-first.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ProfileReport {
    pub spans: u64,
    pub total_self_ns: u64,
    /// `(op name, stat)`, descending self time.
    pub by_op: Vec<(String, OpStat)>,
    /// `(host, self ns)`, descending.
    pub by_host: Vec<(u64, u64)>,
    /// `(lane, self ns)`, descending — only hosts mapped via
    /// [`Profiler::set_lane`] contribute.
    pub by_lane: Vec<(u32, u64)>,
}

/// Exact sim-time profiler over the span retirement stream.
///
/// Feed closed spans in retirement order ([`FlightRecorder::drain_closed`]
/// order); parenting is resolved through span ids, so interleaved
/// subtrees from different hosts attribute correctly.
///
/// [`FlightRecorder::drain_closed`]: crate::FlightRecorder::drain_closed
#[derive(Debug, Default)]
pub struct Profiler {
    lane_of_host: BTreeMap<u64, u32>,
    by_op: BTreeMap<&'static str, OpStat>,
    by_host: BTreeMap<u64, u64>,
    by_lane: BTreeMap<u32, u64>,
    /// Open-parent id → virtual time covered by already-closed children.
    child_ns: BTreeMap<u64, u64>,
    /// Open-parent id → collapsed stack suffixes accumulated from its
    /// closed descendants, awaiting the parent's own frame prefix.
    pending_stacks: BTreeMap<u64, BTreeMap<String, u64>>,
    /// Finished `root;..;leaf → self ns` stacks.
    collapsed: BTreeMap<String, u64>,
    /// `(instant, by_lane)` at each [`Profiler::sample_lanes`] call.
    lane_samples: Vec<(u64, BTreeMap<u32, u64>)>,
    total_self_ns: u64,
    spans: u64,
}

impl Profiler {
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Map a host onto a lane (e.g. its subnet index) for per-lane
    /// attribution and utilization tracks. Unmapped hosts still count
    /// toward op/host tables.
    pub fn set_lane(&mut self, host: u64, lane: u32) {
        self.lane_of_host.insert(host, lane);
    }

    /// Sample every lane's cumulative busy time at `at_ns`; call it after
    /// feeding the spans that closed by then, at non-decreasing instants.
    pub fn sample_lanes(&mut self, at_ns: u64) {
        self.lane_samples.push((at_ns, self.by_lane.clone()));
    }

    /// Attribute one closed span. Call in retirement order.
    pub fn feed_span(&mut self, s: &Span) {
        self.spans += 1;
        let dur = s.duration_ns();
        let child = self.child_ns.remove(&s.id.0).unwrap_or(0);
        let self_ns = dur.saturating_sub(child);
        self.total_self_ns += self_ns;
        let stat = self.by_op.entry(s.name).or_default();
        stat.count += 1;
        stat.total_ns += dur;
        stat.self_ns += self_ns;
        *self.by_host.entry(s.host).or_insert(0) += self_ns;
        if let Some(&lane) = self.lane_of_host.get(&s.host) {
            *self.by_lane.entry(lane).or_insert(0) += self_ns;
        }
        if let Some(p) = s.parent {
            *self.child_ns.entry(p.0).or_insert(0) += dur;
        }
        // Collapsed stacks: children left their suffixes under this id;
        // prefix them with our frame and pass upward (or finish at root).
        let suffixes = self.pending_stacks.remove(&s.id.0).unwrap_or_default();
        let sink = match s.parent {
            Some(p) => self.pending_stacks.entry(p.0).or_default(),
            None => &mut self.collapsed,
        };
        for (stack, ns) in suffixes {
            let mut key = String::with_capacity(s.name.len() + 1 + stack.len());
            key.push_str(s.name);
            key.push(';');
            key.push_str(&stack);
            *sink.entry(key).or_insert(0) += ns;
        }
        if self_ns > 0 {
            *sink.entry(s.name.to_string()).or_insert(0) += self_ns;
        }
    }

    /// Spans fed so far.
    pub fn spans_fed(&self) -> u64 {
        self.spans
    }

    /// Total self time attributed so far.
    pub fn total_self_ns(&self) -> u64 {
        self.total_self_ns
    }

    /// The summary tables, hottest-first.
    pub fn report(&self) -> ProfileReport {
        let mut by_op: Vec<(String, OpStat)> = self
            .by_op
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect();
        by_op.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(&b.0)));
        let mut by_host: Vec<(u64, u64)> = self.by_host.iter().map(|(k, v)| (*k, *v)).collect();
        by_host.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut by_lane: Vec<(u32, u64)> = self.by_lane.iter().map(|(k, v)| (*k, *v)).collect();
        by_lane.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ProfileReport {
            spans: self.spans,
            total_self_ns: self.total_self_ns,
            by_op,
            by_host,
            by_lane,
        }
    }

    /// The full stack table in collapsed format — `root;..;leaf <ns>`
    /// per line, sorted — consumable by any flamegraph renderer.
    /// Suffixes still waiting on an open ancestor are included as-is so
    /// a mid-run snapshot loses nothing.
    pub fn collapsed_stacks(&self) -> String {
        let mut merged: BTreeMap<&str, u64> = BTreeMap::new();
        for (k, v) in &self.collapsed {
            *merged.entry(k.as_str()).or_insert(0) += *v;
        }
        for pending in self.pending_stacks.values() {
            for (k, v) in pending {
                *merged.entry(k.as_str()).or_insert(0) += *v;
            }
        }
        let mut out = String::with_capacity(merged.len() * 32);
        for (k, v) in merged {
            let _ = writeln!(out, "{k} {v}");
        }
        out
    }

    /// Distinct finished stacks.
    pub fn distinct_stacks(&self) -> usize {
        self.collapsed.len()
    }

    /// Cumulative per-lane busy time at each [`Profiler::sample_lanes`]
    /// instant — one `count`-unit series per mapped lane, ready for
    /// [`StreamingExporter::feed_counter_series`]. Deterministic: lanes
    /// ascending, one point per sample.
    ///
    /// [`StreamingExporter::feed_counter_series`]: crate::perfetto::StreamingExporter::feed_counter_series
    pub fn lane_utilization_series(&self) -> Vec<CounterSeries> {
        let mut lanes: Vec<u32> = self.lane_of_host.values().copied().collect();
        lanes.sort_unstable();
        lanes.dedup();
        lanes
            .into_iter()
            .map(|lane| {
                let points = self
                    .lane_samples
                    .iter()
                    .map(|(at, busy)| (*at, busy.get(&lane).copied().unwrap_or(0) as f64))
                    .collect();
                CounterSeries {
                    name: format!("profile.lane{lane}.busy_ns"),
                    unit: CounterUnit::Count,
                    points,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlightRecorder, Outcome};

    fn feed_all(p: &mut Profiler, r: &FlightRecorder) {
        for s in r.spans() {
            p.feed_span(s);
        }
    }

    #[test]
    fn self_time_partitions_the_root_exactly() {
        let mut r = FlightRecorder::new(64);
        let root = r.span_start("scale.window", "w0", 1, 0);
        let a = r.span_start("mote.sample", "m1", 1, 100);
        r.span_end(a, 300, Outcome::Ok);
        let b = r.span_start("mote.sample", "m2", 1, 300);
        let c = r.span_start("csp.read", "leaf", 1, 350);
        r.span_end(c, 500, Outcome::Ok);
        r.span_end(b, 600, Outcome::Ok);
        r.span_end(root, 1_000, Outcome::Ok);

        let mut p = Profiler::new();
        feed_all(&mut p, &r);
        let rep = p.report();
        assert_eq!(rep.spans, 4);
        // Σ self over every span is exactly the root's extent.
        assert_eq!(rep.total_self_ns, 1_000);
        let ops: BTreeMap<&str, OpStat> = rep.by_op.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        assert_eq!(ops["scale.window"].self_ns, 500); // 1000 - 200 - 300
        assert_eq!(ops["mote.sample"].self_ns, 350); // 200 + (300 - 150)
        assert_eq!(ops["csp.read"].self_ns, 150);
        assert_eq!(ops["mote.sample"].count, 2);
        assert_eq!(ops["mote.sample"].total_ns, 500);
    }

    #[test]
    fn collapsed_stacks_carry_full_paths() {
        let mut r = FlightRecorder::new(64);
        let root = r.span_start("scale.window", "w", 1, 0);
        let m = r.span_start("mote.sample", "m", 1, 100);
        let inner = r.span_start("csp.read", "c", 1, 150);
        r.span_end(inner, 250, Outcome::Ok);
        r.span_end(m, 400, Outcome::Ok);
        r.span_end(root, 1_000, Outcome::Ok);
        let mut p = Profiler::new();
        feed_all(&mut p, &r);
        let folded = p.collapsed_stacks();
        assert!(folded.contains("scale.window 700\n"), "{folded}");
        assert!(
            folded.contains("scale.window;mote.sample 200\n"),
            "{folded}"
        );
        assert!(
            folded.contains("scale.window;mote.sample;csp.read 100\n"),
            "{folded}"
        );
        let total: u64 = folded
            .lines()
            .filter_map(|l| l.rsplit(' ').next())
            .filter_map(|n| n.parse::<u64>().ok())
            .sum();
        assert_eq!(total, p.total_self_ns(), "stacks partition self time");
    }

    #[test]
    fn lane_attribution_and_busy_series() {
        let mut p = Profiler::new();
        p.set_lane(1, 0);
        p.set_lane(2, 1);
        let mut r = FlightRecorder::new(64);
        let a = r.span_start("mote.sample", "a", 1, 100);
        r.span_end(a, 400, Outcome::Ok); // lane 0
        feed_all(&mut p, &r);
        p.sample_lanes(1_000);
        let mut r = FlightRecorder::new(64);
        let b = r.span_start("mote.sample", "b", 2, 500);
        r.span_end(b, 1_500, Outcome::Ok); // lane 1
        feed_all(&mut p, &r);
        p.sample_lanes(2_000);
        let rep = p.report();
        assert_eq!(rep.by_lane, vec![(1, 1_000), (0, 300)]);
        let series = p.lane_utilization_series();
        assert_eq!(series.len(), 2);
        assert_eq!(series[0].name, "profile.lane0.busy_ns");
        assert_eq!(series[0].points, vec![(1_000, 300.0), (2_000, 300.0)]);
        assert_eq!(series[1].points, vec![(1_000, 0.0), (2_000, 1_000.0)]);
    }

    #[test]
    fn mid_run_snapshot_keeps_orphan_suffixes() {
        // A child closes while its parent is still open: the stack view
        // must still show the child's time (as a suffix) until the
        // parent retires.
        let mut r = FlightRecorder::new(64);
        let _root = r.span_start("scale.window", "w", 1, 0);
        let m = r.span_start("mote.sample", "m", 1, 100);
        r.span_end(m, 300, Outcome::Ok);
        let mut p = Profiler::new();
        feed_all(&mut p, &r);
        assert!(p.collapsed_stacks().contains("mote.sample 200\n"));
        assert_eq!(p.distinct_stacks(), 0, "nothing rooted yet");
    }
}
