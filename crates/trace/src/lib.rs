//! Deterministic tracing and telemetry primitives for SenSORCER.
//!
//! The simulator is single-threaded and every remote dispatch is a
//! synchronous call, so span parenting falls out of a plain stack: a span
//! started while another is open becomes its child, and "parallel" branches
//! (which the simulator executes sequentially under a fork/max-merge clock)
//! nest correctly as long as each branch closes its own spans. Ids are
//! sequential counters and timestamps are virtual nanoseconds, so the span
//! tree produced by a seeded run is bit-for-bit reproducible.
//!
//! Two exports:
//!
//! * [`FlightRecorder`] — a bounded ring buffer of closed [`Span`]s with
//!   structured fields and point-in-time events, JSON export, and a
//!   structural [`validate`](FlightRecorder::validate) pass (unique ids, no
//!   orphan parents).
//! * [`Histogram`] — a log-linear bucketed histogram (128 sub-buckets per
//!   octave) whose memory is bounded by the number of *distinct* buckets,
//!   not the number of samples; integers up to 255 land in exact buckets so
//!   small pinned percentiles survive the move from raw sample vectors.
//!
//! This crate is dependency-free and sits *below* the simulator in the
//! workspace graph; hosts are therefore carried as raw integers and the
//! simulator layers its typed ids on top.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

pub mod json;
pub mod perfetto;

use json::Json;

/// Version stamped into every JSON export this workspace produces (the
/// flight recorder's export and every [`json::Json::report`]). Version 1
/// was the unversioned shape; 2 adds the `schema_version` field itself plus
/// the flight recorder's eviction markers. Bump on any breaking shape
/// change so downstream tooling can detect drift.
pub const EXPORT_SCHEMA_VERSION: u32 = 2;

/// Identifies one logical end-to-end operation (e.g. a federated read).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// Identifies one span within a trace. `SpanId(0)` is the invalid
/// sentinel returned when tracing is disabled; every recorder operation
/// on it is a no-op, so instrumented code needs no `if enabled` guards.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    pub const INVALID: SpanId = SpanId(0);

    pub fn is_valid(self) -> bool {
        self.0 != 0
    }
}

/// A structured span attribute value.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    U64(u64),
    I64(i64),
    F64(f64),
    Bool(bool),
    /// `Arc<str>` so repeated labels (service names, hosts) clone cheaply.
    Str(Arc<str>),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::I64(v)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(Arc::from(v))
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(Arc::from(v.as_str()))
    }
}
impl From<Arc<str>> for FieldValue {
    fn from(v: Arc<str>) -> Self {
        FieldValue::Str(v)
    }
}

impl FieldValue {
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(v) => Some(*v),
            FieldValue::I64(v) => u64::try_from(*v).ok(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(v) => Some(v),
            _ => None,
        }
    }
}

impl From<&FieldValue> for Json {
    fn from(v: &FieldValue) -> Json {
        match v {
            FieldValue::U64(v) => (*v).into(),
            FieldValue::I64(v) => (*v).into(),
            FieldValue::F64(v) => (*v).into(),
            FieldValue::Bool(v) => (*v).into(),
            FieldValue::Str(v) => (**v).into(),
        }
    }
}

/// How a span ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// Answered, but with substitutions / dropped children / suspect data.
    Degraded,
    Error,
}

impl Outcome {
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::Degraded => "degraded",
            Outcome::Error => "error",
        }
    }
}

/// A point-in-time annotation inside a span (a retry attempt, a failover,
/// a substitution decision).
#[derive(Clone, Debug, PartialEq)]
pub struct SpanEvent {
    pub at_ns: u64,
    pub name: &'static str,
    pub fields: Vec<(&'static str, FieldValue)>,
}

/// One timed operation in the federation: an exertion dispatch, a CSP
/// fan-out, a child read, a provisioning action.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub trace: TraceId,
    pub parent: Option<SpanId>,
    /// Static operation name ("fmi.dispatch", "csp.read", ...).
    pub name: &'static str,
    /// Dynamic label — usually the service or exertion name.
    pub label: Arc<str>,
    /// Raw host id (the simulator's `HostId.0`).
    pub host: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub outcome: Outcome,
    pub fields: Vec<(&'static str, FieldValue)>,
    pub events: Vec<SpanEvent>,
}

impl Span {
    /// First field with this key, if any.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Virtual-time duration of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn has_event(&self, name: &str) -> bool {
        self.events.iter().any(|e| e.name == name)
    }

    fn json(&self) -> Json {
        let mut kv = vec![
            ("id", self.id.0.into()),
            ("trace", self.trace.0.into()),
            ("parent", self.parent.map(|p| p.0).into()),
            ("name", self.name.into()),
            ("label", (*self.label).into()),
            ("host", self.host.into()),
            ("start_ns", self.start_ns.into()),
            ("end_ns", self.end_ns.into()),
            ("outcome", self.outcome.as_str().into()),
        ];
        if !self.fields.is_empty() {
            kv.push(("fields", fields_json(&self.fields)));
        }
        if !self.events.is_empty() {
            let events = self.events.iter().map(|e| {
                let mut ev = vec![("at_ns", e.at_ns.into()), ("name", e.name.into())];
                if !e.fields.is_empty() {
                    ev.push(("fields", fields_json(&e.fields)));
                }
                Json::obj(ev)
            });
            kv.push(("events", Json::arr(events)));
        }
        Json::obj(kv)
    }
}

fn fields_json(fields: &[(&'static str, FieldValue)]) -> Json {
    Json::obj(fields.iter().map(|(k, v)| (*k, v.into())))
}

/// One ring-buffer eviction that happened while spans were still open —
/// the moment an exported trace may start orphaning child slices. The
/// Perfetto export renders these as instants on a `flight-recorder`
/// track so truncation is visible instead of silent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvictionMarker {
    /// Virtual time of the `span_end` whose retirement forced the
    /// eviction.
    pub at_ns: u64,
    /// The closed span that was pushed out of the ring.
    pub evicted: SpanId,
    /// How many spans were open at that moment (potential orphans).
    pub open_at_eviction: usize,
}

/// Markers are bounded like everything else in the recorder; past this
/// the count in [`FlightRecorder::dropped_while_open`] keeps the tally.
const MAX_EVICTION_MARKERS: usize = 1024;

/// One element of the recorder's retirement stream: closed spans in the
/// order they retired into the ring, with eviction markers interleaved
/// at the exact position the eviction happened. Consumers see markers
/// *before* the span whose retirement forced them, so marker timestamps
/// are ordered relative to the slice ends around them.
#[derive(Debug, PartialEq)]
pub enum StreamItem<'a> {
    Span(&'a Span),
    Eviction(&'a EvictionMarker),
}

/// Bounded ring buffer of spans with stack-discipline parenting.
///
/// `span_start` makes the new span a child of the innermost open span and
/// a member of its trace (or roots a fresh trace when the stack is empty);
/// `span_end` retires it into the closed ring, evicting the oldest closed
/// span once `capacity` is reached (evictions are counted, never silent —
/// and evictions that race still-open spans additionally record an
/// [`EvictionMarker`], because those are the ones that can orphan child
/// slices in an export). All operations on [`SpanId::INVALID`] are no-ops.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    next_trace: u64,
    next_span: u64,
    /// Open spans, innermost last — stack discipline makes the open set
    /// *be* the parenting stack, so no id→span map is needed and the
    /// common close (innermost first) finds its span at the back.
    open: Vec<Span>,
    /// Labels repeat heavily (service names, composite names); interning
    /// makes the steady-state cost of a span label one lookup + one
    /// `Arc` clone instead of an allocation.
    labels: BTreeSet<Arc<str>>,
    closed: VecDeque<Span>,
    dropped: u64,
    dropped_while_open: u64,
    evictions: Vec<EvictionMarker>,
    /// Retirement sequence of each marker in `evictions` (parallel
    /// vector; the marker precedes the span with that retirement index
    /// in the stream). Kept out of the public `EvictionMarker` so the
    /// pinned JSON export shape is untouched.
    eviction_seqs: Vec<u64>,
    /// Total spans ever retired into the ring, numbering the retirement
    /// stream that `stream_items` reconstructs.
    retired: u64,
}

impl FlightRecorder {
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            next_trace: 0,
            next_span: 0,
            open: Vec::with_capacity(16),
            labels: BTreeSet::new(),
            // Pre-size the ring (bounded for huge capacities) so the hot
            // record path never stalls on a doubling copy.
            closed: VecDeque::with_capacity(capacity.min(65_536)),
            dropped: 0,
            dropped_while_open: 0,
            evictions: Vec::new(),
            eviction_seqs: Vec::new(),
            retired: 0,
        }
    }

    fn intern(&mut self, label: &str) -> Arc<str> {
        match self.labels.get(label) {
            Some(l) => Arc::clone(l),
            None => {
                let l: Arc<str> = Arc::from(label);
                self.labels.insert(Arc::clone(&l));
                l
            }
        }
    }

    fn open_mut(&mut self, id: SpanId) -> Option<&mut Span> {
        self.open.iter_mut().rev().find(|s| s.id == id)
    }

    /// Open a span. Parent and trace are inherited from the innermost open
    /// span; with an empty stack this roots a new trace.
    pub fn span_start(
        &mut self,
        name: &'static str,
        label: &str,
        host: u64,
        now_ns: u64,
    ) -> SpanId {
        self.next_span += 1;
        let id = SpanId(self.next_span);
        let (trace, parent) = match self.open.last() {
            Some(p) => (p.trace, Some(p.id)),
            None => {
                self.next_trace += 1;
                (TraceId(self.next_trace), None)
            }
        };
        let label = self.intern(label);
        self.open.push(Span {
            id,
            trace,
            parent,
            name,
            label,
            host,
            start_ns: now_ns,
            end_ns: now_ns,
            outcome: Outcome::Ok,
            fields: Vec::new(),
            events: Vec::new(),
        });
        id
    }

    /// The innermost open span, or `INVALID` when none is open.
    pub fn current(&self) -> SpanId {
        self.open.last().map(|s| s.id).unwrap_or(SpanId::INVALID)
    }

    pub fn span_field(&mut self, id: SpanId, key: &'static str, value: FieldValue) {
        if let Some(s) = self.open_mut(id) {
            s.fields.push((key, value));
        }
    }

    pub fn span_event(
        &mut self,
        id: SpanId,
        now_ns: u64,
        name: &'static str,
        fields: Vec<(&'static str, FieldValue)>,
    ) {
        if let Some(s) = self.open_mut(id) {
            s.events.push(SpanEvent {
                at_ns: now_ns,
                name,
                fields,
            });
        }
    }

    /// Close a span. Removes it from the open stack wherever it sits (a
    /// defensive guard against mismatched start/end nesting) and retires
    /// it into the bounded ring.
    pub fn span_end(&mut self, id: SpanId, now_ns: u64, outcome: Outcome) {
        let Some(i) = self.open.iter().rposition(|s| s.id == id) else {
            return;
        };
        let mut s = self.open.remove(i);
        s.end_ns = now_ns;
        s.outcome = outcome;
        if self.closed.len() >= self.capacity {
            let evicted = self.closed.pop_front();
            self.dropped += 1;
            // Wrapping while spans are still open is the case that can
            // orphan child slices in an export — mark it explicitly so
            // downstream consumers see truncation instead of inferring it.
            if !self.open.is_empty() {
                self.dropped_while_open += 1;
                if self.evictions.len() < MAX_EVICTION_MARKERS {
                    if let Some(old) = &evicted {
                        self.evictions.push(EvictionMarker {
                            at_ns: now_ns,
                            evicted: old.id,
                            open_at_eviction: self.open.len(),
                        });
                        // The marker precedes the span retiring right now.
                        self.eviction_seqs.push(self.retired);
                    }
                }
            }
        }
        self.closed.push_back(s);
        self.retired += 1;
    }

    /// Closed spans, oldest first (in end order).
    pub fn spans(&self) -> impl Iterator<Item = &Span> {
        self.closed.iter()
    }

    /// Closed root spans (no parent), oldest first — one per trace when
    /// nothing has been evicted.
    pub fn roots(&self) -> impl Iterator<Item = &Span> {
        self.closed.iter().filter(|s| s.parent.is_none())
    }

    /// A closed span by id (linear scan; analytics passes index instead).
    pub fn span_by_id(&self, id: SpanId) -> Option<&Span> {
        self.closed.iter().find(|s| s.id == id)
    }

    pub fn len(&self) -> usize {
        self.closed.len()
    }

    pub fn is_empty(&self) -> bool {
        self.closed.is_empty()
    }

    /// Closed spans evicted from the ring to honour `capacity`.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The subset of [`dropped`](Self::dropped) evictions that happened
    /// while spans were still open — each one a potential orphaned child
    /// slice in an export.
    pub fn dropped_while_open(&self) -> u64 {
        self.dropped_while_open
    }

    /// Explicit markers for the first 1024 evictions that raced open
    /// spans, in occurrence order.
    pub fn evictions(&self) -> &[EvictionMarker] {
        &self.evictions
    }

    /// The retirement stream still held by the ring: closed spans oldest
    /// first with eviction markers interleaved at the retirement position
    /// where each eviction happened. This is the feed order of the
    /// Perfetto export — markers come out in timestamp
    /// order relative to the slice-end packets around them instead of
    /// being appended after everything else.
    pub fn stream_items(&self) -> Vec<StreamItem<'_>> {
        let mut items = Vec::with_capacity(self.closed.len() + self.evictions.len());
        let first = self.retired - self.closed.len() as u64;
        let mut mi = 0;
        for (i, s) in self.closed.iter().enumerate() {
            let seq = first + i as u64;
            while mi < self.evictions.len() && self.eviction_seqs[mi] <= seq {
                items.push(StreamItem::Eviction(&self.evictions[mi]));
                mi += 1;
            }
            items.push(StreamItem::Span(s));
        }
        for m in &self.evictions[mi..] {
            items.push(StreamItem::Eviction(m));
        }
        items
    }

    /// Map from parent span id to the (closed) children's indices in
    /// [`spans`](Self::spans) order — the raw material for tree walks.
    pub fn children_index(&self) -> BTreeMap<u64, Vec<usize>> {
        let mut idx: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (i, s) in self.closed.iter().enumerate() {
            if let Some(p) = s.parent {
                idx.entry(p.0).or_default().push(i);
            }
        }
        idx
    }

    /// Structural invariants: unique span ids and (when nothing has been
    /// evicted) no orphan parent references, no span ending before it
    /// starts, no still-open spans if `require_closed`.
    pub fn validate(&self, require_closed: bool) -> Vec<String> {
        let mut problems = Vec::new();
        let mut seen: BTreeMap<u64, u32> = BTreeMap::new();
        for s in &self.closed {
            *seen.entry(s.id.0).or_insert(0) += 1;
            if !s.id.is_valid() {
                problems.push("span with invalid id 0".to_string());
            }
            if s.end_ns < s.start_ns {
                problems.push(format!("span {} ends before it starts", s.id.0));
            }
        }
        for (id, n) in &seen {
            if *n > 1 {
                problems.push(format!("span id {id} appears {n} times"));
            }
        }
        if self.dropped == 0 {
            for s in &self.closed {
                if let Some(p) = s.parent {
                    if !seen.contains_key(&p.0) && !self.open.iter().any(|o| o.id == p) {
                        problems.push(format!("span {} has orphan parent {}", s.id.0, p.0));
                    }
                }
            }
        }
        if require_closed && !self.open.is_empty() {
            problems.push(format!("{} spans still open", self.open.len()));
        }
        problems
    }

    /// The whole recorder as one JSON document (closed spans only).
    pub fn to_json(&self) -> String {
        let evictions = self.evictions.iter().map(|m| {
            Json::obj([
                ("at_ns", m.at_ns.into()),
                ("evicted", m.evicted.0.into()),
                ("open", m.open_at_eviction.into()),
            ])
        });
        Json::obj([
            ("schema_version", EXPORT_SCHEMA_VERSION.into()),
            ("spans_closed", self.closed.len().into()),
            ("spans_open", self.open.len().into()),
            ("spans_dropped", self.dropped.into()),
            ("spans_dropped_while_open", self.dropped_while_open.into()),
            ("evictions", Json::arr(evictions)),
            ("spans", Json::arr(self.closed.iter().map(Span::json))),
        ])
        .render()
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Map an f64 onto a totally-ordered u64 (the standard sign-flip trick),
/// so truncating low bits buckets values monotonically.
fn ordered_bits(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

fn from_ordered_bits(b: u64) -> f64 {
    f64::from_bits(if b >> 63 == 1 { b & !(1 << 63) } else { !b })
}

/// Mantissa bits kept per bucket: 128 sub-buckets per octave (< 0.8%
/// relative error), and every integer up to 255 gets an *exact* bucket.
const MANTISSA_BITS: u32 = 7;
const SHIFT: u32 = 52 - MANTISSA_BITS;

/// Log-linear bucketed histogram with exact count/sum/min/max.
///
/// Memory is bounded by the number of distinct buckets touched — O(1) in
/// the sample count — which is what lets long soaks record latency samples
/// forever without growing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    buckets: BTreeMap<u64, u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    pub fn record(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        *self.buckets.entry(ordered_bits(v) >> SHIFT).or_insert(0) += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn min(&self) -> f64 {
        self.min
    }

    pub fn max(&self) -> f64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Distinct buckets in use (the memory bound).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Nearest-rank quantile, `p` in (0, 1]. Exact at the extremes — the
    /// first rank returns `min`, the last returns `max` — which makes
    /// single-sample and all-samples-equal histograms exact at every `p`.
    /// Interior ranks return the lower edge of the bucket holding that
    /// rank, clamped into `[min, max]` (exact for integers ≤ 255, < 0.8%
    /// relative error otherwise). An empty histogram returns NaN: a loud
    /// sentinel rather than a plausible-looking latency of 0.
    pub fn quantile(&self, p: f64) -> f64 {
        self.try_quantile(p).unwrap_or(f64::NAN)
    }

    /// [`quantile`](Self::quantile) that makes the empty case a `None`
    /// instead of a NaN sentinel.
    pub fn try_quantile(&self, p: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((p * self.count as f64).ceil() as u64).clamp(1, self.count);
        // The extreme ranks are tracked exactly; answering them from
        // `min`/`max` instead of a bucket edge keeps one-sample and
        // one-bucket histograms free of reconstruction error.
        if rank == 1 {
            return Some(self.min);
        }
        if rank == self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (key, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(from_ordered_bits(key << SHIFT).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    pub fn clear(&mut self) {
        *self = Histogram::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_parenting_links_children() {
        let mut r = FlightRecorder::new(64);
        let root = r.span_start("root", "R", 0, 100);
        let kid = r.span_start("kid", "K", 1, 110);
        r.span_end(kid, 120, Outcome::Ok);
        let kid2 = r.span_start("kid", "K2", 2, 130);
        r.span_end(kid2, 140, Outcome::Error);
        r.span_end(root, 150, Outcome::Degraded);

        let spans: Vec<_> = r.spans().collect();
        assert_eq!(spans.len(), 3);
        // Closed in end order: kid, kid2, root.
        assert_eq!(spans[0].parent, Some(root));
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[2].parent, None);
        assert_eq!(spans[0].trace, spans[2].trace);
        assert_eq!(spans[2].outcome, Outcome::Degraded);
        assert!(r.validate(true).is_empty(), "{:?}", r.validate(true));
    }

    #[test]
    fn sequential_roots_get_fresh_traces() {
        let mut r = FlightRecorder::new(8);
        let a = r.span_start("op", "a", 0, 0);
        r.span_end(a, 1, Outcome::Ok);
        let b = r.span_start("op", "b", 0, 2);
        r.span_end(b, 3, Outcome::Ok);
        let spans: Vec<_> = r.spans().collect();
        assert_ne!(spans[0].trace, spans[1].trace);
        assert_ne!(spans[0].id, spans[1].id);
    }

    #[test]
    fn invalid_span_ops_are_noops() {
        let mut r = FlightRecorder::new(8);
        r.span_field(SpanId::INVALID, "k", 1u64.into());
        r.span_event(SpanId::INVALID, 0, "e", vec![]);
        r.span_end(SpanId::INVALID, 0, Outcome::Ok);
        assert_eq!(r.len(), 0);
        assert_eq!(r.current(), SpanId::INVALID);
    }

    #[test]
    fn ring_bounds_and_counts_evictions() {
        let mut r = FlightRecorder::new(2);
        for i in 0..5u64 {
            let s = r.span_start("op", "x", 0, i);
            r.span_end(s, i + 1, Outcome::Ok);
        }
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 3);
    }

    #[test]
    fn fields_and_events_round_trip() {
        let mut r = FlightRecorder::new(8);
        let s = r.span_start("op", "svc", 3, 10);
        r.span_field(s, "retries", 2u64.into());
        r.span_field(s, "error", "timed out".into());
        r.span_event(s, 12, "retry.attempt", vec![("attempt", 1u64.into())]);
        r.span_end(s, 20, Outcome::Error);
        let sp = r.spans().next().unwrap();
        assert_eq!(sp.field("retries").and_then(|f| f.as_u64()), Some(2));
        assert_eq!(
            sp.field("error").and_then(|f| f.as_str()),
            Some("timed out")
        );
        assert!(sp.has_event("retry.attempt"));
        assert_eq!(sp.host, 3);
    }

    #[test]
    fn json_export_is_wellformed_enough() {
        let mut r = FlightRecorder::new(8);
        let s = r.span_start("op", "a \"quoted\" name", 0, 0);
        r.span_field(s, "note", "line\nbreak".into());
        r.span_end(s, 5, Outcome::Ok);
        let j = r.to_json();
        assert!(j.contains("\"spans_closed\": 1"));
        assert!(j.contains("a \\\"quoted\\\" name"));
        assert!(j.contains("line\\nbreak"));
        assert!(j.ends_with("}\n"));
    }

    #[test]
    fn validate_flags_orphans() {
        let mut r = FlightRecorder::new(8);
        let root = r.span_start("root", "r", 0, 0);
        let kid = r.span_start("kid", "k", 0, 1);
        r.span_end(kid, 2, Outcome::Ok);
        r.span_end(root, 3, Outcome::Ok);
        // Forge an orphan by clearing the parent's record.
        r.closed.retain(|s| s.id != root);
        let problems = r.validate(true);
        assert!(
            problems.iter().any(|p| p.contains("orphan")),
            "{problems:?}"
        );
    }

    #[test]
    fn histogram_small_integers_are_exact() {
        let mut h = Histogram::new();
        for i in 1..=100 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.50), 50.0);
        assert_eq!(h.quantile(0.90), 90.0);
        assert_eq!(h.quantile(0.99), 99.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 100.0);
        assert!((h.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_memory_is_bounded() {
        let mut h = Histogram::new();
        for i in 0..100_000u64 {
            h.record(1.0 + (i % 1000) as f64 / 10.0);
        }
        assert_eq!(h.count(), 100_000);
        // 1.0..=100.9 spans ~7 octaves * 128 buckets max; far below 100k.
        assert!(h.bucket_count() < 2_000, "{}", h.bucket_count());
    }

    #[test]
    fn histogram_large_values_stay_within_a_percent() {
        let mut h = Histogram::new();
        for i in 0..10_000 {
            h.record(1e6 + i as f64 * 100.0);
        }
        let p50 = h.quantile(0.5);
        let exact = 1e6 + 4_999.0 * 100.0;
        assert!(
            (p50 - exact).abs() / exact < 0.01,
            "p50={p50} exact={exact}"
        );
    }

    #[test]
    fn histogram_empty_quantile_is_a_loud_sentinel() {
        let h = Histogram::new();
        assert!(h.quantile(0.5).is_nan(), "empty must not look like data");
        assert!(h.quantile(0.99).is_nan());
        assert_eq!(h.try_quantile(0.5), None);
    }

    #[test]
    fn histogram_single_sample_is_exact_at_every_quantile() {
        let mut h = Histogram::new();
        h.record(123.456);
        for p in [0.01, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(p), 123.456, "p={p}");
        }
    }

    #[test]
    fn histogram_one_bucket_is_exact_not_interpolated() {
        // All samples identical: one bucket, every quantile exact.
        let mut h = Histogram::new();
        for _ in 0..1000 {
            h.record(7.25);
        }
        assert_eq!(h.bucket_count(), 1);
        for p in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(p), 7.25, "p={p}");
        }
        // Two near-identical samples sharing a bucket: the extremes answer
        // from the exact min/max, never a reconstructed bucket edge.
        let mut h = Histogram::new();
        h.record(1000.0);
        h.record(1000.5);
        assert_eq!(h.bucket_count(), 1);
        assert_eq!(h.quantile(0.5), 1000.0);
        assert_eq!(h.quantile(1.0), 1000.5);
        assert_eq!(h.quantile(0.99), 1000.5, "last rank answers max exactly");
    }

    #[test]
    fn histogram_extreme_ranks_are_exact() {
        let mut h = Histogram::new();
        for v in [3.1, 900.77, 12.0, 45.6] {
            h.record(v);
        }
        // rank 1 (p small) and rank == count (p = 1.0) bypass the buckets.
        assert_eq!(h.quantile(0.2), 3.1);
        assert_eq!(h.quantile(1.0), 900.77);
    }

    #[test]
    fn histogram_negative_and_zero() {
        let mut h = Histogram::new();
        for v in [-5.0, -1.0, 0.0, 1.0, 5.0] {
            h.record(v);
        }
        assert_eq!(h.min(), -5.0);
        assert_eq!(h.max(), 5.0);
        assert!(h.quantile(0.5) <= 0.0 && h.quantile(0.5) >= -1.0);
    }

    #[test]
    fn json_export_carries_the_schema_version() {
        let mut r = FlightRecorder::new(8);
        let s = r.span_start("read", "svc", 1, 10);
        r.span_end(s, 20, Outcome::Ok);
        let j = r.to_json();
        assert!(j.contains(&format!("\"schema_version\": {EXPORT_SCHEMA_VERSION}")));
        assert!(j.contains("\"spans_dropped_while_open\": 0"));
        assert!(j.contains("\"evictions\": []"));
    }

    #[test]
    fn eviction_while_open_is_marked() {
        let mut r = FlightRecorder::new(2);
        let root = r.span_start("root", "svc", 1, 0);
        for i in 0..5u64 {
            let c = r.span_start("child", "svc", 1, i * 10);
            r.span_end(c, i * 10 + 1, Outcome::Ok);
        }
        // Three children evicted while `root` was still open; each one
        // recorded a marker naming the evicted span and the open depth.
        assert_eq!(r.dropped(), 3);
        assert_eq!(r.dropped_while_open(), 3);
        assert_eq!(r.evictions().len(), 3);
        for m in r.evictions() {
            assert_eq!(m.open_at_eviction, 1);
            assert!(m.evicted.is_valid());
        }
        let j = r.to_json();
        assert!(j.contains("\"spans_dropped_while_open\": 3"));
        assert!(j.contains("{\"at_ns\":"), "markers exported: {j}");
        r.span_end(root, 100, Outcome::Ok);
        // The final eviction happens with nothing open: counted in
        // `dropped`, but no new while-open marker.
        assert_eq!(r.dropped(), 4);
        assert_eq!(r.dropped_while_open(), 3);
    }

    #[test]
    fn eviction_markers_stream_in_retirement_order_under_open_root() {
        // The ring wraps while a root span stays open: markers must come
        // out of the stream at the retirement position where the eviction
        // happened — in timestamp order relative to the slice ends around
        // them — not appended after everything else.
        let mut r = FlightRecorder::new(2);
        let _root = r.span_start("root", "svc", 1, 0); // id 1
        for i in 1..=5u64 {
            let c = r.span_start("child", "svc", 1, i * 10 - 5); // ids 2..=6
            r.span_end(c, i * 10, Outcome::Ok);
        }
        assert_eq!(r.evictions().len(), 3);
        let shape: Vec<String> = r
            .stream_items()
            .iter()
            .map(|it| match it {
                StreamItem::Span(s) => format!("span:{}", s.id.0),
                StreamItem::Eviction(m) => format!("evict:{}", m.evicted.0),
            })
            .collect();
        // Retiring c3 evicted c1 (id 2), c4 evicted c2 (id 3) — both
        // positions already streamed past, so those markers lead. c5
        // evicted c3 (id 4): that marker lands *between* c4 and c5.
        assert_eq!(
            shape,
            vec!["evict:2", "evict:3", "span:5", "evict:4", "span:6"]
        );
        // And the interleaving is timestamp-ordered.
        let mut last = 0u64;
        for it in r.stream_items() {
            let ts = match it {
                StreamItem::Span(s) => s.end_ns,
                StreamItem::Eviction(m) => m.at_ns,
            };
            assert!(ts >= last, "stream goes back in time: {ts} < {last}");
            last = ts;
        }
    }

    #[test]
    fn eviction_with_nothing_open_is_not_marked() {
        let mut r = FlightRecorder::new(1);
        for i in 0..4u64 {
            let s = r.span_start("read", "svc", 1, i * 10);
            r.span_end(s, i * 10 + 1, Outcome::Ok);
        }
        assert_eq!(r.dropped(), 3);
        assert_eq!(r.dropped_while_open(), 0);
        assert!(r.evictions().is_empty());
    }
}
