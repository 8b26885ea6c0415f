//! Query layer over exported [`FlightRecorder`] trees.
//!
//! The recorder gives raw spans; operators need answers: *which op got
//! slow, where did that read spend its time, which traces should I look
//! at first?* This module answers those without re-running anything:
//!
//! * [`group_by_op`] — aggregate spans into per-op [`OpStats`] (counts
//!   by outcome plus a duration histogram, so p50/p99 per op are one
//!   call away).
//! * [`critical_path`] — walk a trace tree from its root, at each level
//!   descending into the last-finishing child, yielding the chain of
//!   spans that actually determined end-to-end latency.
//! * [`slowest_offenders`] — the exemplar selector: the N slowest spans
//!   passing a filter, as `(trace, span, duration_ns)` triples ready to
//!   attach to an SLO alert or anomaly.

use std::collections::BTreeMap;

use sensorcer_trace::{FlightRecorder, Histogram, Outcome, Span, SpanId};

/// Aggregate view of one operation name.
#[derive(Debug)]
pub struct OpStats {
    pub count: u64,
    pub ok: u64,
    pub degraded: u64,
    pub errors: u64,
    /// Span durations in nanoseconds.
    pub durations: Histogram,
}

impl OpStats {
    fn new() -> OpStats {
        OpStats {
            count: 0,
            ok: 0,
            degraded: 0,
            errors: 0,
            durations: Histogram::new(),
        }
    }

    /// Fraction of spans that did not end Ok.
    pub fn bad_ratio(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.degraded + self.errors) as f64 / self.count as f64
        }
    }
}

/// Group every closed span by its operation name.
pub fn group_by_op(rec: &FlightRecorder) -> BTreeMap<&'static str, OpStats> {
    let mut by_op: BTreeMap<&'static str, OpStats> = BTreeMap::new();
    for s in rec.spans() {
        let st = by_op.entry(s.name).or_insert_with(OpStats::new);
        st.count += 1;
        match s.outcome {
            Outcome::Ok => st.ok += 1,
            Outcome::Degraded => st.degraded += 1,
            Outcome::Error => st.errors += 1,
        }
        st.durations.record(s.duration_ns() as f64);
    }
    by_op
}

/// One hop on a critical path.
#[derive(Clone, Debug, PartialEq)]
pub struct PathStep {
    pub span: SpanId,
    pub op: &'static str,
    pub label: String,
    /// Total duration of this span.
    pub duration_ns: u64,
    /// Time this span spent *not* covered by the next step (self time
    /// for interior steps; full duration for the leaf).
    pub self_ns: u64,
}

/// The chain of spans that determined a trace's end-to-end latency.
#[derive(Clone, Debug, PartialEq)]
pub struct CriticalPath {
    pub steps: Vec<PathStep>,
    pub total_ns: u64,
}

impl CriticalPath {
    /// The step with the largest self time — "where the time went".
    pub fn dominant(&self) -> Option<&PathStep> {
        self.steps.iter().max_by_key(|s| s.self_ns)
    }
}

/// Extract the critical path of the trace rooted at `root`: starting at
/// the root, repeatedly descend into the child that *finishes last* (ties
/// broken toward the longer child, then lower span id, so the walk is
/// deterministic). Returns `None` if `root` is not a closed span.
pub fn critical_path(rec: &FlightRecorder, root: SpanId) -> Option<CriticalPath> {
    let spans: Vec<&Span> = rec.spans().collect();
    let children = rec.children_index();
    let mut cur = *spans.iter().find(|s| s.id == root)?;
    let total_ns = cur.duration_ns();
    let mut steps = Vec::new();
    loop {
        let next = children
            .get(&cur.id.0)
            .into_iter()
            .flatten()
            .map(|&i| spans[i])
            .max_by(|a, b| {
                a.end_ns
                    .cmp(&b.end_ns)
                    .then(a.duration_ns().cmp(&b.duration_ns()))
                    .then(b.id.0.cmp(&a.id.0))
            });
        let covered = next.map_or(0, |n| n.duration_ns());
        steps.push(PathStep {
            span: cur.id,
            op: cur.name,
            label: cur.label.to_string(),
            duration_ns: cur.duration_ns(),
            self_ns: cur.duration_ns().saturating_sub(covered),
        });
        match next {
            Some(n) => cur = n,
            None => break,
        }
    }
    Some(CriticalPath { steps, total_ns })
}

/// The `n` slowest spans passing `keep`, slowest first, as
/// `(trace_id, span_id, duration_ns)` triples — the exemplar format the
/// SLO engine attaches to alerts. Deterministic: ties break on span id.
pub fn slowest_offenders(
    rec: &FlightRecorder,
    keep: impl Fn(&Span) -> bool,
    n: usize,
) -> Vec<(u64, u64, u64)> {
    let mut hits: Vec<(u64, u64, u64)> = rec
        .spans()
        .filter(|s| keep(s))
        .map(|s| (s.trace.0, s.id.0, s.duration_ns()))
        .collect();
    hits.sort_by(|a, b| b.2.cmp(&a.2).then(a.1.cmp(&b.1)));
    hits.truncate(n);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorcer_trace::FieldValue;

    /// A little two-trace world:
    ///
    /// trace A: read(0..100) { probe(10..40), probe(20..90) }   degraded
    /// trace B: read(200..230) { probe(205..225) }              ok
    fn rig() -> FlightRecorder {
        let mut r = FlightRecorder::new(64);
        let ra = r.span_start("csp.read", "Temp", 1, 0);
        let a1 = r.span_start("csp.child", "m1", 2, 10);
        r.span_end(a1, 40, Outcome::Ok);
        let a2 = r.span_start("csp.child", "m2", 3, 20);
        r.span_end(a2, 90, Outcome::Error);
        r.span_field(ra, "quorum", FieldValue::U64(1));
        r.span_end(ra, 100, Outcome::Degraded);

        let rb = r.span_start("csp.read", "Temp", 1, 200);
        let b1 = r.span_start("csp.child", "m1", 2, 205);
        r.span_end(b1, 225, Outcome::Ok);
        r.span_end(rb, 230, Outcome::Ok);
        r
    }

    #[test]
    fn group_by_op_counts_and_durations() {
        let r = rig();
        let by_op = group_by_op(&r);
        let reads = &by_op["csp.read"];
        assert_eq!(
            (reads.count, reads.ok, reads.degraded, reads.errors),
            (2, 1, 1, 0)
        );
        assert_eq!(reads.durations.max(), 100.0);
        assert_eq!(reads.durations.min(), 30.0);
        assert!((reads.bad_ratio() - 0.5).abs() < 1e-12);
        let children = &by_op["csp.child"];
        assert_eq!(children.count, 3);
        assert_eq!(children.errors, 1);
    }

    #[test]
    fn critical_path_follows_last_finishing_child() {
        let r = rig();
        let root = r.spans().find(|s| s.duration_ns() == 100).unwrap().id;
        let cp = critical_path(&r, root).unwrap();
        assert_eq!(cp.total_ns, 100);
        assert_eq!(cp.steps.len(), 2);
        // The path goes through the child ending at 90, not the one at 40.
        assert_eq!(cp.steps[1].label, "m2");
        assert_eq!(cp.steps[1].duration_ns, 70);
        assert_eq!(cp.steps[1].self_ns, 70);
        // Root self time: 100 total minus the 70 covered by the child.
        assert_eq!(cp.steps[0].self_ns, 30);
        // The dominant step is the slow probe.
        assert_eq!(cp.dominant().unwrap().label, "m2");
    }

    #[test]
    fn critical_path_of_unknown_span_is_none() {
        let r = rig();
        assert!(critical_path(&r, SpanId(99_999)).is_none());
    }

    #[test]
    fn slowest_offenders_rank_and_truncate() {
        let r = rig();
        let top = slowest_offenders(&r, |s| s.name == "csp.child", 2);
        assert_eq!(top.len(), 2);
        // Slowest first: the 70 ns probe, then the 30 ns one.
        assert_eq!(top[0].2, 70);
        assert_eq!(top[1].2, 30);
        // Exemplars resolve back to real spans.
        for (_, span_id, _) in &top {
            assert!(r.span_by_id(SpanId(*span_id)).is_some());
        }
    }
}
