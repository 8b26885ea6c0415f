//! Query layer over exported [`FlightRecorder`] trees.
//!
//! The recorder gives raw spans; operators need answers: *which op got
//! slow, which traces should I look at first?* This module answers those
//! without re-running anything:
//!
//! * [`group_by_op`] — aggregate spans into per-op [`OpStats`] (counts
//!   by outcome plus a duration histogram, so p50/p99 per op are one
//!   call away).
//! * [`slowest_offenders`] — the exemplar selector: the N slowest spans
//!   passing a filter, as `(trace, span, duration_ns)` triples ready to
//!   attach to an SLO alert.

use std::collections::BTreeMap;

use sensorcer_trace::{FlightRecorder, Histogram, Outcome, Span};

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
    use sensorcer_trace::{FieldValue, SpanId};

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
        let children = &by_op["csp.child"];
        assert_eq!(children.count, 3);
        assert_eq!(children.errors, 1);
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
