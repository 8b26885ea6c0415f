//! Perfetto trace export: the [`FlightRecorder`] rendered as a
//! `.perfetto-trace` file that <https://ui.perfetto.dev> opens natively.
//!
//! Everything is hand-rolled — there is no protobuf dependency anywhere
//! in the workspace, so this module carries its own [`wire`] layer
//! (varints, zigzag, length-delimited submessages) plus just enough of
//! perfetto's `trace.proto` vocabulary to describe the federation:
//!
//! * one **process track** per simulated host (`ProcessDescriptor`,
//!   pid = host id, name from the sim topology);
//! * **thread tracks** per subsystem under each host — the subsystem is
//!   the span-name prefix before the first `.` (`csp`, `lus`, `storm`,
//!   `provision`, …). Overlapping same-subsystem slices that would not
//!   nest (fork/join branches share virtual time) overflow onto extra
//!   lanes, so every exported track is properly nested;
//! * `TrackEvent` **slice begin/end pairs** with interned names
//!   (`InternedData.event_names` + `name_iid`), span fields and outcome
//!   attached as debug annotations on the end event;
//! * **instant events** for every recorded span event (sheds, breaker
//!   transitions, retry attempts, …) and for ring-buffer
//!   [`EvictionMarker`]s on a dedicated `flight-recorder` track;
//! * **flow ids** stitching retry / failover / breaker-substitution
//!   chains across hosts: each trace that carries a chain event becomes
//!   one flow, attached to the trace's root slice, the chain instants,
//!   and any caller-provided timeline instants (SLO alert exemplars)
//!   that reference the trace;
//! * **counter tracks** (`CounterDescriptor` + `TYPE_COUNTER` events)
//!   from caller-provided [`CounterSeries`] — the telemetry sampler's
//!   registry snapshots.
//!
//! [`export`] encodes the whole recorder into one buffer: track
//! descriptors and interned names are emitted on first use, in the
//! recorder's retirement order (see [`FlightRecorder::stream_items`]),
//! then the caller's timeline and counter tracks.
//!
//! The output is deterministic byte-for-byte per input: all grouping
//! uses ordered maps, uuids/iids are assigned in first-use order, and
//! the packet order is the retirement order the recorder replays.
//! Perfetto sorts packets by timestamp on import, so packets are *not*
//! globally time-ordered in the file; the [`validate`] pass instead
//! checks per-track nesting feasibility after a stable sort. A minimal
//! [`decode`] / [`validate`] pair reads the wire format back for
//! golden-byte and round-trip tests — and for CI, which refuses traces
//! with unbalanced slices, dangling flows or non-monotonic counters.
//!
//! [`FlightRecorder`]: crate::FlightRecorder
//! [`FlightRecorder::stream_items`]: crate::FlightRecorder::stream_items
//! [`EvictionMarker`]: crate::EvictionMarker

use std::collections::{BTreeMap, BTreeSet};

use crate::{EvictionMarker, FieldValue, FlightRecorder, Outcome, Span, StreamItem};

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

/// Protobuf wire-format primitives: varints, zigzag, tagged fields and
/// length-delimited submessages, plus the matching readers.
pub mod wire {
    /// Varint-encoded integer (wire type 0).
    pub const WT_VARINT: u32 = 0;
    /// Little-endian fixed 64-bit (wire type 1).
    pub const WT_FIXED64: u32 = 1;
    /// Length-delimited bytes / string / submessage (wire type 2).
    pub const WT_LEN: u32 = 2;
    /// Little-endian fixed 32-bit (wire type 5).
    pub const WT_FIXED32: u32 = 5;

    /// Append a base-128 varint.
    pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                break;
            }
            out.push(byte | 0x80);
        }
    }

    /// Zigzag-map a signed value onto an unsigned varint (sint64).
    pub fn zigzag(v: i64) -> u64 {
        ((v << 1) ^ (v >> 63)) as u64
    }

    /// Inverse of [`zigzag`].
    pub fn unzigzag(v: u64) -> i64 {
        ((v >> 1) as i64) ^ -((v & 1) as i64)
    }

    /// Append a field tag: `(field_number << 3) | wire_type`.
    pub fn put_tag(out: &mut Vec<u8>, field: u32, wt: u32) {
        put_varint(out, (u64::from(field) << 3) | u64::from(wt));
    }

    /// Tagged unsigned varint field (uint64 / enum / bool).
    pub fn put_uint(out: &mut Vec<u8>, field: u32, v: u64) {
        put_tag(out, field, WT_VARINT);
        put_varint(out, v);
    }

    /// Tagged int64 field (two's-complement varint, *not* zigzag).
    pub fn put_int(out: &mut Vec<u8>, field: u32, v: i64) {
        put_uint(out, field, v as u64);
    }

    /// Tagged fixed64 field.
    pub fn put_fixed64(out: &mut Vec<u8>, field: u32, v: u64) {
        put_tag(out, field, WT_FIXED64);
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Tagged double field (fixed64 bits).
    pub fn put_double(out: &mut Vec<u8>, field: u32, v: f64) {
        put_fixed64(out, field, v.to_bits());
    }

    /// Tagged length-delimited bytes field.
    pub fn put_bytes(out: &mut Vec<u8>, field: u32, b: &[u8]) {
        put_tag(out, field, WT_LEN);
        put_varint(out, b.len() as u64);
        out.extend_from_slice(b);
    }

    /// Tagged length-delimited string field.
    pub fn put_str(out: &mut Vec<u8>, field: u32, s: &str) {
        put_bytes(out, field, s.as_bytes());
    }

    /// Tagged submessage built by `f` **in place**, with the length
    /// prefix backpatched afterwards: reserve one length byte (almost
    /// every submessage in this vocabulary is < 128 bytes), encode the
    /// body directly into `out`, then either patch the byte or shift the
    /// body right for a multi-byte varint. No per-submessage scratch
    /// allocation; nested calls compose because inner messages finish
    /// before the outer length is computed. Produces minimal varints —
    /// byte-identical to length-prefixing a separately built body.
    pub fn put_msg(out: &mut Vec<u8>, field: u32, f: impl FnOnce(&mut Vec<u8>)) {
        put_tag(out, field, WT_LEN);
        out.push(0); // one-byte length guess, backpatched below
        let start = out.len();
        f(out);
        let len = out.len() - start;
        if len < 0x80 {
            out[start - 1] = len as u8;
        } else {
            let mut var = [0u8; 10];
            let mut n = 0;
            let mut v = len as u64;
            loop {
                var[n] = (v & 0x7f) as u8 | 0x80;
                v >>= 7;
                n += 1;
                if v == 0 {
                    break;
                }
            }
            var[n - 1] &= 0x7f;
            let extra = n - 1;
            out.resize(start + len + extra, 0);
            out.copy_within(start..start + len, start + extra);
            out[start - 1..start - 1 + n].copy_from_slice(&var[..n]);
        }
    }

    /// Read one varint, advancing `pos`.
    pub fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, String> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = *buf
                .get(*pos)
                .ok_or_else(|| "truncated varint".to_string())?;
            *pos += 1;
            if shift >= 64 {
                return Err("varint longer than 64 bits".into());
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// One decoded field value.
    #[derive(Clone, Debug, PartialEq)]
    pub enum WireValue<'a> {
        Varint(u64),
        Fixed64(u64),
        Len(&'a [u8]),
        Fixed32(u32),
    }

    /// Iterate the `(field_number, value)` pairs of one message body.
    pub fn fields(buf: &[u8]) -> FieldIter<'_> {
        FieldIter { buf, pos: 0 }
    }

    pub struct FieldIter<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Iterator for FieldIter<'a> {
        type Item = Result<(u32, WireValue<'a>), String>;

        fn next(&mut self) -> Option<Self::Item> {
            if self.pos >= self.buf.len() {
                return None;
            }
            Some(self.read_one())
        }
    }

    impl<'a> FieldIter<'a> {
        fn read_one(&mut self) -> Result<(u32, WireValue<'a>), String> {
            let tag = get_varint(self.buf, &mut self.pos)?;
            let field = (tag >> 3) as u32;
            if field == 0 {
                return Err("field number 0".into());
            }
            let value = match (tag & 7) as u32 {
                WT_VARINT => WireValue::Varint(get_varint(self.buf, &mut self.pos)?),
                WT_FIXED64 => {
                    let end = self.pos + 8;
                    let bytes = self
                        .buf
                        .get(self.pos..end)
                        .ok_or_else(|| "truncated fixed64".to_string())?;
                    self.pos = end;
                    let mut b = [0u8; 8];
                    b.copy_from_slice(bytes);
                    WireValue::Fixed64(u64::from_le_bytes(b))
                }
                WT_LEN => {
                    // A length past the end of any buffer (up to 2⁶⁴ − 1)
                    // is a truncated field, not an overflowing offset.
                    let len = get_varint(self.buf, &mut self.pos)?;
                    let bytes = usize::try_from(len)
                        .ok()
                        .and_then(|len| self.buf.get(self.pos..)?.get(..len))
                        .ok_or_else(|| "truncated length-delimited field".to_string())?;
                    self.pos += bytes.len();
                    WireValue::Len(bytes)
                }
                WT_FIXED32 => {
                    let end = self.pos + 4;
                    let bytes = self
                        .buf
                        .get(self.pos..end)
                        .ok_or_else(|| "truncated fixed32".to_string())?;
                    self.pos = end;
                    let mut b = [0u8; 4];
                    b.copy_from_slice(bytes);
                    WireValue::Fixed32(u32::from_le_bytes(b))
                }
                wt => return Err(format!("unsupported wire type {wt}")),
            };
            Ok((field, value))
        }
    }
}

// ---------------------------------------------------------------------------
// Perfetto proto vocabulary (field numbers from perfetto's trace.proto)
// ---------------------------------------------------------------------------

mod fields {
    /// Trace.packet
    pub const TRACE_PACKET: u32 = 1;

    pub mod packet {
        pub const TIMESTAMP: u32 = 8;
        pub const TRUSTED_SEQ: u32 = 10;
        pub const TRACK_EVENT: u32 = 11;
        pub const INTERNED_DATA: u32 = 12;
        pub const SEQUENCE_FLAGS: u32 = 13;
        pub const TRACK_DESCRIPTOR: u32 = 60;
    }

    pub mod track {
        pub const UUID: u32 = 1;
        pub const NAME: u32 = 2;
        pub const PROCESS: u32 = 3;
        pub const THREAD: u32 = 4;
        pub const PARENT_UUID: u32 = 5;
        pub const COUNTER: u32 = 8;
    }

    pub mod process {
        pub const PID: u32 = 1;
        pub const NAME: u32 = 6;
    }

    pub mod thread {
        pub const PID: u32 = 1;
        pub const TID: u32 = 2;
        pub const NAME: u32 = 5;
    }

    pub mod counter {
        pub const UNIT_NAME: u32 = 6;
    }

    pub mod event {
        pub const DEBUG_ANNOTATIONS: u32 = 4;
        pub const TYPE: u32 = 9;
        pub const NAME_IID: u32 = 10;
        pub const TRACK_UUID: u32 = 11;
        pub const COUNTER_I64: u32 = 30;
        pub const COUNTER_F64: u32 = 44;
        pub const FLOW_IDS: u32 = 47;
    }

    pub mod annotation {
        pub const BOOL: u32 = 2;
        pub const INT: u32 = 4;
        pub const DOUBLE: u32 = 5;
        pub const STR: u32 = 6;
        pub const NAME: u32 = 10;
    }

    pub mod interned {
        pub const EVENT_NAMES: u32 = 2;
    }

    pub mod event_name {
        pub const IID: u32 = 1;
        pub const NAME: u32 = 2;
    }
}

/// `TrackEvent.Type` values.
pub const TYPE_SLICE_BEGIN: u64 = 1;
pub const TYPE_SLICE_END: u64 = 2;
pub const TYPE_INSTANT: u64 = 3;
pub const TYPE_COUNTER: u64 = 4;

/// The one packet sequence every packet belongs to.
const SEQ_ID: u64 = 1;
const SEQ_INCREMENTAL_STATE_CLEARED: u64 = 1;
const SEQ_NEEDS_INCREMENTAL_STATE: u64 = 2;

/// Track-uuid namespaces — disjoint bases keep uuids collision-free
/// without any runtime bookkeeping.
const UUID_PROCESS_BASE: u64 = 0x1000_0000;
const UUID_THREAD_BASE: u64 = 0x2000_0000;
const UUID_COUNTER_BASE: u64 = 0x3000_0000;
const UUID_INSTANT_BASE: u64 = 0x4000_0000;
const UUID_RECORDER: u64 = 0x0FFF_FFFF;

/// Span events that stitch a cross-host causal chain and therefore join
/// their trace's flow (see [`ExportConfig::flow_events`]).
pub const CHAIN_EVENTS: &[&str] = &[
    "retry.attempt",
    "retry.exhausted",
    "failover.attempt",
    "failover.success",
    "degradation.substitute",
    "degradation.missing",
    "breaker.open",
    "breaker.skip",
];

/// Counter-track unit names the validator keys on.
const UNIT_COUNT: &str = "count";
const UNIT_VALUE: &str = "value";

// ---------------------------------------------------------------------------
// Export inputs
// ---------------------------------------------------------------------------

/// What a counter track measures — [`Count`](CounterUnit::Count) series
/// are cumulative (the validator asserts they never decrease),
/// [`Value`](CounterUnit::Value) series are gauges free to move both ways.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CounterUnit {
    Count,
    Value,
}

/// One sampled time series destined for a Perfetto counter track.
#[derive(Clone, Debug, PartialEq)]
pub struct CounterSeries {
    pub name: String,
    pub unit: CounterUnit,
    /// `(virtual ns, value)` samples in non-decreasing time order.
    pub points: Vec<(u64, f64)>,
}

/// One instant event on a caller-provided timeline track.
#[derive(Clone, Debug, PartialEq)]
pub struct InstantEvent {
    pub at_ns: u64,
    pub name: String,
    /// Trace id whose flow this instant joins (e.g. an SLO alert
    /// exemplar). Dropped silently when the trace has been evicted from
    /// the recorder — a flow must resolve to at least two events.
    pub flow_trace: Option<u64>,
    pub args: Vec<(String, String)>,
}

/// A named timeline of instant events (the obs layer's alert/exemplar
/// timeline rides in through this).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct InstantTrack {
    pub name: String,
    pub events: Vec<InstantEvent>,
}

/// Export knobs.
#[derive(Clone, Debug)]
pub struct ExportConfig {
    /// Host id → display name for process tracks (defaults to `host-<id>`).
    pub host_names: BTreeMap<u64, String>,
    /// Span-event names that join their trace's flow.
    pub flow_events: Vec<&'static str>,
}

impl Default for ExportConfig {
    fn default() -> ExportConfig {
        ExportConfig {
            host_names: BTreeMap::new(),
            flow_events: CHAIN_EVENTS.to_vec(),
        }
    }
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

/// Subsystem of a span: the name prefix before the first `.`.
fn subsystem(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

enum Annotation {
    Str(String),
    Int(i64),
    Double(f64),
    Bool(bool),
}

fn field_annotation(v: &FieldValue) -> Annotation {
    match v {
        FieldValue::U64(n) => Annotation::Int(*n as i64),
        FieldValue::I64(n) => Annotation::Int(*n),
        FieldValue::F64(x) => Annotation::Double(*x),
        FieldValue::Bool(b) => Annotation::Bool(*b),
        FieldValue::Str(s) => Annotation::Str(s.to_string()),
    }
}

fn outcome_str(o: Outcome) -> &'static str {
    match o {
        Outcome::Ok => "ok",
        Outcome::Degraded => "degraded",
        Outcome::Error => "error",
    }
}

/// FNV-1a 64 of `bytes`: the determinism fingerprint of an export.
pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Per-`(host, subsystem)` lane state: for every lane, the extents of
/// the spans placed on it, sorted by `(start, end)`. A lane can render
/// a set of slices iff the set is laminar — every pair nested or
/// disjoint — so a new span conflicts with a lane iff it *partially*
/// overlaps any recorded extent. Spans may arrive with non-monotone
/// `end_ns` (simulated parallelism rewinds branch clocks), so the check
/// scans every extent on the lane.
#[derive(Default)]
struct LaneGroup {
    uuids: Vec<u64>,
    covered: Vec<Vec<(u64, u64)>>,
}

/// Everything one emitted track-event packet needs.
struct EventPacket<'a> {
    ts: u64,
    track: u64,
    kind: u64,
    /// 0 = no interned name (slice ends, counter points).
    name_iid: u64,
    flow: Option<u64>,
    counter_i64: Option<i64>,
    counter_f64: Option<f64>,
    annotations: &'a [(String, Annotation)],
}

/// The Perfetto encoder behind [`export`]. Feed it the recorder's
/// retirement stream ([`FlightRecorder::stream_items`]), then timeline
/// instants and counter series; [`finish`](Self::finish) hands back the
/// bytes. Track descriptors and interned names are emitted on first
/// use, so feeding the same sequence always yields the same bytes.
///
/// End timestamps need not be globally monotone — simulated
/// parallelism rewinds branch clocks, so a later-retired span can end
/// earlier — and lane assignment handles any laminar-per-host history.
struct Encoder {
    cfg: ExportConfig,
    flow_names: BTreeSet<&'static str>,
    out: Vec<u8>,
    first_packet: bool,
    iid_of: BTreeMap<String, u64>,
    /// Names interned since the last packet; attached to the next one.
    pending_names: Vec<(u64, String)>,
    described_hosts: BTreeSet<u64>,
    groups: BTreeMap<(u64, &'static str), LaneGroup>,
    /// Thread tracks created so far — uuid and tid source.
    thread_lanes: u64,
    counter_uuid: BTreeMap<String, u64>,
    timeline_uuid: BTreeMap<String, u64>,
    recorder_track: bool,
    /// Traces that carry at least one chain event seen so far.
    flow_traces: BTreeSet<u64>,
}

impl Encoder {
    fn new(cfg: ExportConfig) -> Encoder {
        let flow_names = cfg.flow_events.iter().copied().collect();
        Encoder {
            cfg,
            flow_names,
            out: Vec::with_capacity(4096),
            first_packet: true,
            iid_of: BTreeMap::new(),
            pending_names: Vec::new(),
            described_hosts: BTreeSet::new(),
            groups: BTreeMap::new(),
            thread_lanes: 0,
            counter_uuid: BTreeMap::new(),
            timeline_uuid: BTreeMap::new(),
            recorder_track: false,
            flow_traces: BTreeSet::new(),
        }
    }

    fn intern(&mut self, name: &str) -> u64 {
        if let Some(&iid) = self.iid_of.get(name) {
            return iid;
        }
        let iid = self.iid_of.len() as u64 + 1;
        self.iid_of.insert(name.to_string(), iid);
        self.pending_names.push((iid, name.to_string()));
        iid
    }

    /// Emit one trace packet: timestamp, sequence fields,
    /// any pending interned names, then the payload (a track descriptor
    /// or a track event).
    fn packet(&mut self, ts: Option<u64>, payload: impl FnOnce(&mut Vec<u8>)) {
        let pending = std::mem::take(&mut self.pending_names);
        let flags = if self.first_packet {
            SEQ_INCREMENTAL_STATE_CLEARED | SEQ_NEEDS_INCREMENTAL_STATE
        } else {
            SEQ_NEEDS_INCREMENTAL_STATE
        };
        self.first_packet = false;
        wire::put_msg(&mut self.out, fields::TRACE_PACKET, |p| {
            if let Some(ts) = ts {
                wire::put_uint(p, fields::packet::TIMESTAMP, ts);
            }
            wire::put_uint(p, fields::packet::TRUSTED_SEQ, SEQ_ID);
            wire::put_uint(p, fields::packet::SEQUENCE_FLAGS, flags);
            if !pending.is_empty() {
                wire::put_msg(p, fields::packet::INTERNED_DATA, |d| {
                    for (iid, name) in &pending {
                        wire::put_msg(d, fields::interned::EVENT_NAMES, |e| {
                            wire::put_uint(e, fields::event_name::IID, *iid);
                            wire::put_str(e, fields::event_name::NAME, name);
                        });
                    }
                });
            }
            payload(p);
        });
    }

    fn event_packet(&mut self, ev: EventPacket<'_>) {
        self.packet(Some(ev.ts), |p| {
            wire::put_msg(p, fields::packet::TRACK_EVENT, |e| {
                for (name, ann) in ev.annotations {
                    wire::put_msg(e, fields::event::DEBUG_ANNOTATIONS, |a| {
                        match ann {
                            Annotation::Str(s) => wire::put_str(a, fields::annotation::STR, s),
                            Annotation::Int(i) => wire::put_int(a, fields::annotation::INT, *i),
                            Annotation::Double(d) => {
                                wire::put_double(a, fields::annotation::DOUBLE, *d)
                            }
                            Annotation::Bool(b) => {
                                wire::put_uint(a, fields::annotation::BOOL, u64::from(*b))
                            }
                        }
                        wire::put_str(a, fields::annotation::NAME, name);
                    });
                }
                wire::put_uint(e, fields::event::TYPE, ev.kind);
                if ev.name_iid != 0 {
                    wire::put_uint(e, fields::event::NAME_IID, ev.name_iid);
                }
                wire::put_uint(e, fields::event::TRACK_UUID, ev.track);
                if let Some(v) = ev.counter_i64 {
                    wire::put_int(e, fields::event::COUNTER_I64, v);
                }
                if let Some(v) = ev.counter_f64 {
                    wire::put_double(e, fields::event::COUNTER_F64, v);
                }
                if let Some(f) = ev.flow {
                    wire::put_fixed64(e, fields::event::FLOW_IDS, f);
                }
            });
        });
    }

    /// Emit the process track descriptor for a host on first use.
    fn process_track(&mut self, host: u64) {
        if !self.described_hosts.insert(host) {
            return;
        }
        let name = self
            .cfg
            .host_names
            .get(&host)
            .cloned()
            .unwrap_or_else(|| format!("host-{host}"));
        self.packet(None, |p| {
            wire::put_msg(p, fields::packet::TRACK_DESCRIPTOR, |d| {
                wire::put_uint(d, fields::track::UUID, UUID_PROCESS_BASE + host);
                wire::put_str(d, fields::track::NAME, &name);
                wire::put_msg(d, fields::track::PROCESS, |m| {
                    wire::put_int(m, fields::process::PID, host as i64);
                    wire::put_str(m, fields::process::NAME, &name);
                });
            });
        });
    }

    /// Emit a new thread-track descriptor (one nesting lane) and return
    /// its uuid. Uuids and tids count up in creation order.
    fn thread_track(&mut self, host: u64, sub: &str, lane_no: usize) -> u64 {
        let uuid = UUID_THREAD_BASE + self.thread_lanes;
        let tid = self.thread_lanes as i64 + 1;
        self.thread_lanes += 1;
        let name = if lane_no == 0 {
            sub.to_string()
        } else {
            format!("{sub}#{lane_no}")
        };
        self.packet(None, |p| {
            wire::put_msg(p, fields::packet::TRACK_DESCRIPTOR, |d| {
                wire::put_uint(d, fields::track::UUID, uuid);
                wire::put_str(d, fields::track::NAME, &name);
                wire::put_msg(d, fields::track::THREAD, |m| {
                    wire::put_int(m, fields::thread::PID, host as i64);
                    wire::put_int(m, fields::thread::TID, tid);
                    wire::put_str(m, fields::thread::NAME, &name);
                });
            });
        });
        uuid
    }

    /// Pick (or create) the lane a closing span lands on, record its
    /// extent, and return the lane's track uuid.
    ///
    /// A lane renders as one slice stack, so it can absorb the span iff
    /// the result stays laminar: against every live extent the span is
    /// either disjoint or nested (containment in either direction —
    /// children retire before parents, parallel branches can retire
    /// containers before their late siblings). Partial overlap spills
    /// to the next lane. Equal extents count as nested.
    fn lane_for(&mut self, host: u64, sub: &'static str, start: u64, end: u64) -> u64 {
        let key = (host, sub);
        self.groups.entry(key).or_default();
        let mut chosen: Option<usize> = None;
        if let Some(g) = self.groups.get(&key) {
            'lanes: for (l, cov) in g.covered.iter().enumerate() {
                for &(s0, e0) in cov {
                    if s0 < end && e0 > start {
                        let laminar = (s0 <= start && end <= e0) || (start <= s0 && e0 <= end);
                        if !laminar {
                            continue 'lanes; // partial overlap: spill
                        }
                    }
                }
                chosen = Some(l);
                break;
            }
        }
        let lane = match chosen {
            Some(l) => l,
            None => {
                let lane_no = self.groups.get(&key).map_or(0, |g| g.covered.len());
                let uuid = self.thread_track(host, sub, lane_no);
                if let Some(g) = self.groups.get_mut(&key) {
                    g.covered.push(Vec::new());
                    g.uuids.push(uuid);
                }
                lane_no
            }
        };
        let mut uuid = 0;
        if let Some(g) = self.groups.get_mut(&key) {
            uuid = g.uuids[lane];
            let cov = &mut g.covered[lane];
            let p = cov.partition_point(|iv| *iv < (start, end));
            cov.insert(p, (start, end));
        }
        uuid
    }

    /// Encode one closed span: process/thread descriptors on first use,
    /// slice begin (carrying the trace's flow when it chains or roots a
    /// flowing trace), one instant per span event, slice end with the
    /// label/outcome/ids/fields as debug annotations.
    fn feed_span(&mut self, s: &Span) {
        self.process_track(s.host);
        let sub = subsystem(s.name);
        let track = self.lane_for(s.host, sub, s.start_ns, s.end_ns);
        let name_iid = self.intern(s.name);
        let event_iids: Vec<u64> = s.events.iter().map(|e| self.intern(e.name)).collect();
        let has_chain = s.events.iter().any(|e| self.flow_names.contains(e.name));
        if has_chain {
            self.flow_traces.insert(s.trace.0);
        }
        // A chain-carrying span always flows (begin + >= 1 chain instant
        // resolve the flow to >= 2 events); a root of an already-flowing
        // trace joins so the flow reaches the trace's top slice.
        let flow = (self.flow_traces.contains(&s.trace.0) && (has_chain || s.parent.is_none()))
            .then_some(s.trace.0);
        self.event_packet(EventPacket {
            ts: s.start_ns,
            track,
            kind: TYPE_SLICE_BEGIN,
            name_iid,
            flow,
            counter_i64: None,
            counter_f64: None,
            annotations: &[],
        });
        for (e, iid) in s.events.iter().zip(event_iids) {
            let eflow = (self.flow_names.contains(e.name) && self.flow_traces.contains(&s.trace.0))
                .then_some(s.trace.0);
            let annotations: Vec<(String, Annotation)> = e
                .fields
                .iter()
                .map(|(k, v)| ((*k).to_string(), field_annotation(v)))
                .collect();
            self.event_packet(EventPacket {
                ts: e.at_ns,
                track,
                kind: TYPE_INSTANT,
                name_iid: iid,
                flow: eflow,
                counter_i64: None,
                counter_f64: None,
                annotations: &annotations,
            });
        }
        let mut annotations: Vec<(String, Annotation)> = vec![
            ("label".into(), Annotation::Str(s.label.to_string())),
            (
                "outcome".into(),
                Annotation::Str(outcome_str(s.outcome).into()),
            ),
            ("trace".into(), Annotation::Int(s.trace.0 as i64)),
            ("span".into(), Annotation::Int(s.id.0 as i64)),
        ];
        for (k, v) in &s.fields {
            annotations.push(((*k).to_string(), field_annotation(v)));
        }
        self.event_packet(EventPacket {
            ts: s.end_ns,
            track,
            kind: TYPE_SLICE_END,
            name_iid: 0,
            flow: None,
            counter_i64: None,
            counter_f64: None,
            annotations: &annotations,
        });
    }

    /// Encode one ring-buffer eviction marker as an instant on the
    /// dedicated `flight-recorder` track. Fed in retirement-stream
    /// position, its packet lands in timestamp order relative to the
    /// slice packets around it.
    fn feed_eviction(&mut self, m: &EvictionMarker) {
        if !self.recorder_track {
            self.recorder_track = true;
            self.packet(None, |p| {
                wire::put_msg(p, fields::packet::TRACK_DESCRIPTOR, |d| {
                    wire::put_uint(d, fields::track::UUID, UUID_RECORDER);
                    wire::put_str(d, fields::track::NAME, "flight-recorder");
                });
            });
        }
        let iid = self.intern("trace.eviction");
        let annotations = vec![
            ("evicted_span".into(), Annotation::Int(m.evicted.0 as i64)),
            (
                "open_spans".into(),
                Annotation::Int(m.open_at_eviction as i64),
            ),
        ];
        self.event_packet(EventPacket {
            ts: m.at_ns,
            track: UUID_RECORDER,
            kind: TYPE_INSTANT,
            name_iid: iid,
            flow: None,
            counter_i64: None,
            counter_f64: None,
            annotations: &annotations,
        });
    }

    fn instant_track_uuid(&mut self, name: &str) -> u64 {
        if let Some(&u) = self.timeline_uuid.get(name) {
            return u;
        }
        let uuid = UUID_INSTANT_BASE + self.timeline_uuid.len() as u64;
        self.timeline_uuid.insert(name.to_string(), uuid);
        let owned = name.to_string();
        self.packet(None, |p| {
            wire::put_msg(p, fields::packet::TRACK_DESCRIPTOR, |d| {
                wire::put_uint(d, fields::track::UUID, uuid);
                wire::put_str(d, fields::track::NAME, &owned);
            });
        });
        uuid
    }

    /// Encode one caller-timeline instant (e.g. an SLO alert exemplar).
    /// Its flow reference only *joins* a trace already known to flow —
    /// an instant can never create a flow that would resolve to a single
    /// event.
    fn feed_instant(&mut self, track: &str, ev: &InstantEvent) {
        let uuid = self.instant_track_uuid(track);
        let iid = self.intern(&ev.name);
        let flow = ev.flow_trace.filter(|tr| self.flow_traces.contains(tr));
        let annotations: Vec<(String, Annotation)> = ev
            .args
            .iter()
            .map(|(k, v)| (k.clone(), Annotation::Str(v.clone())))
            .collect();
        self.event_packet(EventPacket {
            ts: ev.at_ns,
            track: uuid,
            kind: TYPE_INSTANT,
            name_iid: iid,
            flow,
            counter_i64: None,
            counter_f64: None,
            annotations: &annotations,
        });
    }

    /// Encode a whole timeline track (descriptor even when empty).
    fn feed_instant_track(&mut self, t: &InstantTrack) {
        self.instant_track_uuid(&t.name);
        for ev in &t.events {
            self.feed_instant(&t.name, ev);
        }
    }

    fn counter_track_uuid(&mut self, name: &str, unit: CounterUnit) -> u64 {
        if let Some(&u) = self.counter_uuid.get(name) {
            return u;
        }
        let uuid = UUID_COUNTER_BASE + self.counter_uuid.len() as u64;
        self.counter_uuid.insert(name.to_string(), uuid);
        let owned = name.to_string();
        let unit_name = match unit {
            CounterUnit::Count => UNIT_COUNT,
            CounterUnit::Value => UNIT_VALUE,
        };
        self.packet(None, |p| {
            wire::put_msg(p, fields::packet::TRACK_DESCRIPTOR, |d| {
                wire::put_uint(d, fields::track::UUID, uuid);
                wire::put_str(d, fields::track::NAME, &owned);
                wire::put_msg(d, fields::track::COUNTER, |m| {
                    wire::put_str(m, fields::counter::UNIT_NAME, unit_name);
                });
            });
        });
        uuid
    }

    /// Encode one counter sample. The track (keyed by name, uuid by
    /// first appearance) is described on first use.
    fn feed_counter_point(&mut self, name: &str, unit: CounterUnit, ts: u64, v: f64) {
        let uuid = self.counter_track_uuid(name, unit);
        let (ci64, cf64) = match unit {
            CounterUnit::Count => (Some(v as i64), None),
            CounterUnit::Value => (None, Some(v)),
        };
        self.event_packet(EventPacket {
            ts,
            track: uuid,
            kind: TYPE_COUNTER,
            name_iid: 0,
            flow: None,
            counter_i64: ci64,
            counter_f64: cf64,
            annotations: &[],
        });
    }

    /// Encode a whole counter series (descriptor even when empty).
    fn feed_counter_series(&mut self, s: &CounterSeries) {
        self.counter_track_uuid(&s.name, s.unit);
        for &(ts, v) in &s.points {
            self.feed_counter_point(&s.name, s.unit, ts, v);
        }
    }

    fn finish(self) -> Vec<u8> {
        self.out
    }
}

/// Render the recorder (plus sampled counter series and caller timeline
/// tracks) as one complete `.perfetto-trace` byte stream.
///
/// Deterministic: identical inputs produce identical bytes.
pub fn export(
    rec: &FlightRecorder,
    counters: &[CounterSeries],
    timelines: &[InstantTrack],
    cfg: &ExportConfig,
) -> Vec<u8> {
    let mut ex = Encoder::new(cfg.clone());
    for item in rec.stream_items() {
        match item {
            StreamItem::Span(s) => ex.feed_span(s),
            StreamItem::Eviction(m) => ex.feed_eviction(m),
        }
    }
    for t in timelines {
        ex.feed_instant_track(t);
    }
    for c in counters {
        ex.feed_counter_series(c);
    }
    ex.finish()
}

// ---------------------------------------------------------------------------
// Decoder
// ---------------------------------------------------------------------------

/// A decoded track descriptor.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DecodedTrack {
    pub uuid: u64,
    pub name: String,
    pub parent: Option<u64>,
    pub pid: Option<i64>,
    pub tid: Option<i64>,
    pub counter_unit: Option<String>,
    pub is_process: bool,
    pub is_thread: bool,
    pub is_counter: bool,
}

/// A decoded track event.
#[derive(Clone, Debug, PartialEq)]
pub struct DecodedEvent {
    pub ts: u64,
    pub track: u64,
    pub kind: u64,
    /// Resolved through the interning table when `name_iid` was used.
    pub name: Option<String>,
    pub counter_i64: Option<i64>,
    pub counter_f64: Option<f64>,
    pub flows: Vec<u64>,
}

/// The readable surface of one decoded `.perfetto-trace` stream.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DecodedTrace {
    pub packets: usize,
    pub tracks: BTreeMap<u64, DecodedTrack>,
    pub events: Vec<DecodedEvent>,
}

impl DecodedTrace {
    pub fn slices(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == TYPE_SLICE_BEGIN)
            .count()
    }

    pub fn instants(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == TYPE_INSTANT)
            .count()
    }

    pub fn counter_points(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == TYPE_COUNTER)
            .count()
    }

    /// Distinct flow ids appearing on events.
    pub fn flow_ids(&self) -> BTreeSet<u64> {
        self.events
            .iter()
            .flat_map(|e| e.flows.iter().copied())
            .collect()
    }
}

fn sub_msg<'a>(v: &wire::WireValue<'a>) -> Result<&'a [u8], String> {
    match v {
        wire::WireValue::Len(b) => Ok(b),
        other => Err(format!("expected length-delimited field, got {other:?}")),
    }
}

fn varint_val(v: &wire::WireValue<'_>) -> Result<u64, String> {
    match v {
        wire::WireValue::Varint(n) => Ok(*n),
        other => Err(format!("expected varint field, got {other:?}")),
    }
}

fn decode_track(body: &[u8]) -> Result<DecodedTrack, String> {
    let mut t = DecodedTrack::default();
    for f in wire::fields(body) {
        let (field, value) = f?;
        match field {
            fields::track::UUID => t.uuid = varint_val(&value)?,
            fields::track::NAME => {
                t.name = String::from_utf8_lossy(sub_msg(&value)?).into_owned();
            }
            fields::track::PARENT_UUID => t.parent = Some(varint_val(&value)?),
            fields::track::PROCESS => {
                t.is_process = true;
                for pf in wire::fields(sub_msg(&value)?) {
                    let (pfield, pvalue) = pf?;
                    if pfield == fields::process::PID {
                        t.pid = Some(varint_val(&pvalue)? as i64);
                    }
                }
            }
            fields::track::THREAD => {
                t.is_thread = true;
                for tf in wire::fields(sub_msg(&value)?) {
                    let (tfield, tvalue) = tf?;
                    match tfield {
                        fields::thread::PID => t.pid = Some(varint_val(&tvalue)? as i64),
                        fields::thread::TID => t.tid = Some(varint_val(&tvalue)? as i64),
                        _ => {}
                    }
                }
            }
            fields::track::COUNTER => {
                t.is_counter = true;
                for cf in wire::fields(sub_msg(&value)?) {
                    let (cfield, cvalue) = cf?;
                    if cfield == fields::counter::UNIT_NAME {
                        t.counter_unit =
                            Some(String::from_utf8_lossy(sub_msg(&cvalue)?).into_owned());
                    }
                }
            }
            _ => {}
        }
    }
    if t.uuid == 0 {
        return Err("track descriptor without uuid".into());
    }
    Ok(t)
}

/// Decode a byte stream produced by [`export`] (or any subset of the
/// Perfetto vocabulary this module emits). Errors on malformed wire
/// data and on `name_iid` references the interning table cannot resolve.
pub fn decode(bytes: &[u8]) -> Result<DecodedTrace, String> {
    let mut out = DecodedTrace::default();
    let mut interned: BTreeMap<u64, String> = BTreeMap::new();
    for f in wire::fields(bytes) {
        let (field, value) = f.map_err(|e| format!("trace: {e}"))?;
        if field != fields::TRACE_PACKET {
            return Err(format!("unexpected top-level field {field}"));
        }
        out.packets += 1;
        let body = sub_msg(&value)?;
        let mut ts = 0u64;
        let mut track_event: Option<&[u8]> = None;
        for pf in wire::fields(body) {
            let (pfield, pvalue) = pf.map_err(|e| format!("packet {}: {e}", out.packets))?;
            match pfield {
                fields::packet::TIMESTAMP => ts = varint_val(&pvalue)?,
                fields::packet::INTERNED_DATA => {
                    for df in wire::fields(sub_msg(&pvalue)?) {
                        let (dfield, dvalue) = df?;
                        if dfield == fields::interned::EVENT_NAMES {
                            let mut iid = 0u64;
                            let mut name = String::new();
                            for nf in wire::fields(sub_msg(&dvalue)?) {
                                let (nfield, nvalue) = nf?;
                                match nfield {
                                    fields::event_name::IID => iid = varint_val(&nvalue)?,
                                    fields::event_name::NAME => {
                                        name =
                                            String::from_utf8_lossy(sub_msg(&nvalue)?).into_owned();
                                    }
                                    _ => {}
                                }
                            }
                            if iid == 0 {
                                return Err("interned event name with iid 0".into());
                            }
                            interned.insert(iid, name);
                        }
                    }
                }
                fields::packet::TRACK_DESCRIPTOR => {
                    let t = decode_track(sub_msg(&pvalue)?)?;
                    out.tracks.insert(t.uuid, t);
                }
                fields::packet::TRACK_EVENT => track_event = Some(sub_msg(&pvalue)?),
                _ => {}
            }
        }
        if let Some(ev_body) = track_event {
            let mut ev = DecodedEvent {
                ts,
                track: 0,
                kind: 0,
                name: None,
                counter_i64: None,
                counter_f64: None,
                flows: Vec::new(),
            };
            for ef in wire::fields(ev_body) {
                let (efield, evalue) = ef?;
                match efield {
                    fields::event::TYPE => ev.kind = varint_val(&evalue)?,
                    fields::event::TRACK_UUID => ev.track = varint_val(&evalue)?,
                    fields::event::NAME_IID => {
                        let iid = varint_val(&evalue)?;
                        let name = interned
                            .get(&iid)
                            .ok_or_else(|| format!("unresolvable name_iid {iid}"))?;
                        ev.name = Some(name.clone());
                    }
                    fields::event::COUNTER_I64 => {
                        ev.counter_i64 = Some(varint_val(&evalue)? as i64);
                    }
                    fields::event::COUNTER_F64 => match evalue {
                        wire::WireValue::Fixed64(bits) => {
                            ev.counter_f64 = Some(f64::from_bits(bits));
                        }
                        other => return Err(format!("double_counter_value: {other:?}")),
                    },
                    fields::event::FLOW_IDS => match evalue {
                        wire::WireValue::Fixed64(id) => ev.flows.push(id),
                        other => return Err(format!("flow_ids: {other:?}")),
                    },
                    _ => {}
                }
            }
            out.events.push(ev);
        }
    }
    Ok(out)
}

/// Structural validation of a decoded trace — the contract `harness
/// perfetto` and CI hold every export to:
///
/// * every event references a described track;
/// * per track, the *timestamp-sorted* slice events admit a balanced
///   nesting: at any instant the ends can be paired against the open
///   depth plus that instant's begins, and the track finishes at depth
///   zero. (Packets are emitted in retirement order, not global time
///   order — Perfetto sorts on import, so the validator checks the
///   sorted feasibility rather than file order.)
/// * every flow id resolves to at least two events;
/// * counter events appear exactly on counter tracks, and cumulative
///   (`count`-unit) counter tracks never decrease in time order.
pub fn validate(t: &DecodedTrace) -> Vec<String> {
    let mut problems = Vec::new();
    let mut flow_count: BTreeMap<u64, u64> = BTreeMap::new();
    // Per-track (ts, is_end) slice events and (ts, value) count samples,
    // collected in file order then stably sorted by timestamp.
    let mut slices: BTreeMap<u64, Vec<(u64, bool)>> = BTreeMap::new();
    let mut counts: BTreeMap<u64, Vec<(u64, i64)>> = BTreeMap::new();
    for (i, e) in t.events.iter().enumerate() {
        let track = match t.tracks.get(&e.track) {
            Some(track) => track,
            None => {
                problems.push(format!("event {i} on undescribed track {}", e.track));
                continue;
            }
        };
        for f in &e.flows {
            *flow_count.entry(*f).or_insert(0) += 1;
        }
        match e.kind {
            TYPE_SLICE_BEGIN => {
                if track.is_counter {
                    problems.push(format!("slice begin on counter track {}", track.name));
                }
                if e.name.is_none() {
                    problems.push(format!("slice begin without a name (event {i})"));
                }
                slices.entry(e.track).or_default().push((e.ts, false));
            }
            TYPE_SLICE_END => {
                slices.entry(e.track).or_default().push((e.ts, true));
            }
            TYPE_INSTANT => {
                if e.name.is_none() {
                    problems.push(format!("instant without a name (event {i})"));
                }
            }
            TYPE_COUNTER => {
                if !track.is_counter {
                    problems.push(format!(
                        "counter value on non-counter track {} (event {i})",
                        track.name
                    ));
                }
                if track.counter_unit.as_deref() == Some(UNIT_COUNT) {
                    counts
                        .entry(e.track)
                        .or_default()
                        .push((e.ts, e.counter_i64.unwrap_or(0)));
                }
            }
            other => problems.push(format!("unknown event type {other} (event {i})")),
        }
    }
    let track_name = |uuid: &u64| {
        t.tracks
            .get(uuid)
            .map(|x| x.name.clone())
            .unwrap_or_else(|| uuid.to_string())
    };
    for (track, evs) in &mut slices {
        evs.sort_by_key(|&(ts, _)| ts);
        let mut depth: i64 = 0;
        let mut i = 0;
        while i < evs.len() {
            let ts = evs[i].0;
            let (mut begins, mut ends) = (0i64, 0i64);
            while i < evs.len() && evs[i].0 == ts {
                if evs[i].1 {
                    ends += 1;
                } else {
                    begins += 1;
                }
                i += 1;
            }
            if ends > depth + begins {
                problems.push(format!(
                    "track {}: {ends} end(s) at t={ts} exceed {depth} open + {begins} begin(s)",
                    track_name(track)
                ));
            }
            depth += begins - ends;
            depth = depth.max(0); // already reported; don't cascade
        }
        if depth != 0 {
            problems.push(format!(
                "track {} ends with {depth} unclosed slice(s)",
                track_name(track)
            ));
        }
    }
    for (track, samples) in &mut counts {
        samples.sort_by_key(|&(ts, _)| ts);
        for w in samples.windows(2) {
            if w[1].1 < w[0].1 {
                problems.push(format!(
                    "cumulative counter {} decreased ({} -> {})",
                    track_name(track),
                    w[0].1,
                    w[1].1
                ));
            }
        }
    }
    for (flow, n) in &flow_count {
        if *n < 2 {
            problems.push(format!("flow {flow} resolves to only {n} event(s)"));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlightRecorder, Outcome};

    #[test]
    fn varint_boundaries_round_trip() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            wire::put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(wire::get_varint(&buf, &mut pos).unwrap(), v, "varint {v}");
            assert_eq!(pos, buf.len(), "varint {v} consumed fully");
        }
        // Known encodings.
        let mut buf = Vec::new();
        wire::put_varint(&mut buf, 0);
        assert_eq!(buf, [0x00]);
        buf.clear();
        wire::put_varint(&mut buf, 1);
        assert_eq!(buf, [0x01]);
        buf.clear();
        wire::put_varint(&mut buf, 300);
        assert_eq!(buf, [0xac, 0x02]);
        buf.clear();
        wire::put_varint(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10, "u64::MAX takes ten varint bytes");
    }

    #[test]
    fn zigzag_boundaries() {
        for (signed, mapped) in [
            (0i64, 0u64),
            (-1, 1),
            (1, 2),
            (-2, 3),
            (2, 4),
            (i64::MAX, u64::MAX - 1),
            (i64::MIN, u64::MAX),
        ] {
            assert_eq!(wire::zigzag(signed), mapped, "zigzag({signed})");
            assert_eq!(wire::unzigzag(mapped), signed, "unzigzag({mapped})");
        }
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let rec = two_span_recorder();
        let bytes = export(&rec, &[], &[], &ExportConfig::default());
        assert!(decode(&bytes[..bytes.len() - 3]).is_err());
        assert!(decode(&[0x0a]).is_err());
        // A lone continuation byte is a truncated varint.
        assert!(wire::get_varint(&[0x80], &mut 0).is_err());
    }

    /// A parent span on host 1 with one child on host 2 carrying a chain
    /// event — the smallest trace exercising slices, instants, interning
    /// and a flow.
    fn two_span_recorder() -> FlightRecorder {
        let mut rec = FlightRecorder::new(64);
        let root = rec.span_start("storm.read", "Critical-Feed", 1, 1_000);
        let child = rec.span_start("csp.child", "Critical-A", 2, 1_200);
        rec.span_event(child, 1_300, "retry.attempt", vec![]);
        rec.span_end(child, 1_800, Outcome::Ok);
        rec.span_end(root, 2_000, Outcome::Ok);
        rec
    }

    #[test]
    fn two_span_trace_round_trips() {
        let rec = two_span_recorder();
        let bytes = export(&rec, &[], &[], &ExportConfig::default());
        assert_eq!(bytes[0], 0x0a, "stream opens with the packet-field tag");
        let dec = decode(&bytes).expect("decodes");
        assert_eq!(validate(&dec), Vec::<String>::new());
        assert_eq!(dec.slices(), 2);
        assert_eq!(dec.instants(), 1);
        // host 1 + host 2 process tracks, storm + csp thread tracks.
        assert_eq!(dec.tracks.len(), 4);
        // One flow: the trace carries a retry.attempt chain event, so the
        // root slice begin and the instant both reference it.
        assert_eq!(dec.flow_ids().len(), 1);
        let flowed = dec.events.iter().filter(|e| !e.flows.is_empty()).count();
        assert!(flowed >= 2, "a flow must resolve to >= 2 events");
    }

    #[test]
    fn export_is_deterministic() {
        let rec = two_span_recorder();
        let a = export(&rec, &[], &[], &ExportConfig::default());
        let b = export(&rec, &[], &[], &ExportConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn counter_series_become_counter_tracks() {
        let rec = two_span_recorder();
        let counters = vec![
            CounterSeries {
                name: "admission.requests.shed".into(),
                unit: CounterUnit::Count,
                points: vec![(1_000, 0.0), (1_500, 3.0), (2_000, 3.0)],
            },
            CounterSeries {
                name: "chaos.burst.level_t0".into(),
                unit: CounterUnit::Value,
                points: vec![(1_000, 1.0), (1_500, 8.0), (2_000, 1.0)],
            },
        ];
        let bytes = export(&rec, &counters, &[], &ExportConfig::default());
        let dec = decode(&bytes).expect("decodes");
        assert_eq!(validate(&dec), Vec::<String>::new());
        assert_eq!(dec.counter_points(), 6);
        let counter_tracks: Vec<_> = dec.tracks.values().filter(|t| t.is_counter).collect();
        assert_eq!(counter_tracks.len(), 2);
    }

    #[test]
    fn decreasing_cumulative_counter_fails_validation() {
        let rec = two_span_recorder();
        let counters = vec![CounterSeries {
            name: "admission.requests.shed".into(),
            unit: CounterUnit::Count,
            points: vec![(1_000, 5.0), (1_500, 2.0)],
        }];
        let bytes = export(&rec, &counters, &[], &ExportConfig::default());
        let dec = decode(&bytes).expect("decodes");
        let problems = validate(&dec);
        assert!(
            problems.iter().any(|p| p.contains("decreased")),
            "{problems:?}"
        );
    }

    #[test]
    fn timeline_instants_join_existing_flows_only() {
        let rec = two_span_recorder();
        let timeline = InstantTrack {
            name: "slo-alerts".into(),
            events: vec![
                InstantEvent {
                    at_ns: 1_900,
                    name: "slo.alert.fired".into(),
                    flow_trace: Some(1), // the real trace
                    args: vec![("slo".into(), "availability".into())],
                },
                InstantEvent {
                    at_ns: 1_950,
                    name: "slo.alert.fired".into(),
                    flow_trace: Some(999), // evicted/unknown: flow dropped
                    args: vec![],
                },
            ],
        };
        let bytes = export(&rec, &[], &[timeline], &ExportConfig::default());
        let dec = decode(&bytes).expect("decodes");
        assert_eq!(validate(&dec), Vec::<String>::new());
        assert_eq!(dec.instants(), 3);
        assert_eq!(dec.flow_ids(), BTreeSet::from([1]));
    }

    #[test]
    fn overlapping_non_nesting_spans_overflow_onto_lanes() {
        // Two same-host same-subsystem spans that overlap without
        // nesting (parallel branches share virtual time): the second
        // must move to an overflow lane so both tracks stay well nested.
        let mut rec = FlightRecorder::new(64);
        let a = rec.span_start("csp.child", "A", 1, 0);
        rec.span_end(a, 100, Outcome::Ok);
        let b = rec.span_start("csp.child", "B", 1, 50);
        rec.span_end(b, 150, Outcome::Ok);
        let bytes = export(&rec, &[], &[], &ExportConfig::default());
        let dec = decode(&bytes).expect("decodes");
        assert_eq!(validate(&dec), Vec::<String>::new());
        let thread_tracks = dec.tracks.values().filter(|t| t.is_thread).count();
        assert_eq!(thread_tracks, 2, "overlap must allocate a second lane");
    }

    #[test]
    fn eviction_markers_surface_as_instants() {
        let mut rec = FlightRecorder::new(2);
        let root = rec.span_start("storm.read", "svc", 1, 0);
        for i in 0..4u64 {
            let c = rec.span_start("csp.child", "svc", 1, i * 10);
            rec.span_end(c, i * 10 + 5, Outcome::Ok);
        }
        rec.span_end(root, 100, Outcome::Ok);
        assert!(rec.dropped() > 0);
        assert!(!rec.evictions().is_empty());
        let bytes = export(&rec, &[], &[], &ExportConfig::default());
        let dec = decode(&bytes).expect("decodes");
        assert_eq!(validate(&dec), Vec::<String>::new());
        let evictions = dec
            .events
            .iter()
            .filter(|e| e.name.as_deref() == Some("trace.eviction"))
            .count();
        assert_eq!(evictions, rec.evictions().len());
        assert!(dec.tracks.values().any(|t| t.name == "flight-recorder"));
    }

    /// Reference for [`wire::put_msg`]: build the body in a scratch `Vec`,
    /// then length-prefix it.
    fn put_msg_alloc(out: &mut Vec<u8>, field: u32, f: impl FnOnce(&mut Vec<u8>)) {
        let mut tmp = Vec::with_capacity(32);
        f(&mut tmp);
        wire::put_bytes(out, field, &tmp);
    }

    #[test]
    fn put_msg_backpatch_matches_alloc_at_length_boundaries() {
        // Length-prefix sizes flip at 128 and 16384 — exercise both
        // sides of each boundary, plus nesting.
        for n in [0usize, 1, 127, 128, 129, 16_383, 16_384, 16_385] {
            let mut fast = vec![0xfe]; // non-empty prefix must survive
            let mut slow = vec![0xfe];
            wire::put_msg(&mut fast, 7, |b| b.extend(std::iter::repeat_n(0xabu8, n)));
            put_msg_alloc(&mut slow, 7, |b| b.extend(std::iter::repeat_n(0xabu8, n)));
            assert_eq!(fast, slow, "body len {n}");
        }
        // Nested: outer crosses 128 only because of the inner message.
        let mut fast = Vec::new();
        let mut slow = Vec::new();
        for out in [&mut fast, &mut slow] {
            out.clear();
        }
        wire::put_msg(&mut fast, 1, |b| {
            wire::put_msg(b, 2, |inner| inner.extend(std::iter::repeat_n(0x55u8, 200)));
            wire::put_uint(b, 3, 300);
        });
        put_msg_alloc(&mut slow, 1, |b| {
            put_msg_alloc(b, 2, |inner| {
                inner.extend(std::iter::repeat_n(0x55u8, 200));
            });
            wire::put_uint(b, 3, 300);
        });
        assert_eq!(fast, slow, "nested backpatch");
    }

    #[test]
    fn eviction_instants_interleave_in_stream_order() {
        // Ring capacity 2 under an open root: markers must land in the
        // packet stream *between* the survivor spans they precede, not
        // appended at the end.
        let mut rec = FlightRecorder::new(2);
        let _root = rec.span_start("storm.read", "svc", 1, 0);
        for i in 1..=5u64 {
            let c = rec.span_start("csp.child", "svc", 1, i * 10 - 5);
            rec.span_end(c, i * 10, Outcome::Ok);
        }
        // Ring holds children 4 and 5; children 1-3 were evicted.
        let out = export(&rec, &[], &[], &ExportConfig::default());
        let dec = decode(&out).expect("decodes");
        let shape: Vec<(u64, u64)> = dec.events.iter().map(|e| (e.kind, e.ts)).collect();
        assert_eq!(
            shape,
            vec![
                (TYPE_INSTANT, 30),     // eviction of child 1
                (TYPE_INSTANT, 40),     // eviction of child 2
                (TYPE_SLICE_BEGIN, 35), // child 4
                (TYPE_SLICE_END, 40),
                (TYPE_INSTANT, 50),     // eviction of child 3
                (TYPE_SLICE_BEGIN, 45), // child 5
                (TYPE_SLICE_END, 50),
            ],
            "markers interleave at their retirement positions"
        );
        assert_eq!(validate(&dec), Vec::<String>::new());
    }
}
