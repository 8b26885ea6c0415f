//! Perfetto trace export: the [`FlightRecorder`] rendered as a
//! `.perfetto-trace` file that https://ui.perfetto.dev opens natively.
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
//! The encoder is **streaming-first**: [`StreamingExporter`] emits
//! packets incrementally into a bounded scratch buffer as spans close
//! (fed from the recorder's retirement stream — see
//! [`FlightRecorder::drain_closed`]) and as counter samples arrive,
//! carrying interning state and track descriptors across flushes to any
//! [`PacketSink`] (an in-memory `Vec<u8>`, or [`FileSink`] with an
//! incremental fnv64 fingerprint). Descriptors and interned names are
//! emitted on first use; lane assignment keeps only a pruned list of
//! covered intervals per lane, so encoder memory is bounded by the
//! *open* span set and the flush threshold, not the trace length. The
//! buffered [`export`] is a thin replay of the same exporter over the
//! whole recorder — streaming output is byte-identical to buffered
//! output by construction.
//!
//! The output is deterministic byte-for-byte per feed sequence: all
//! grouping uses ordered maps, uuids/iids are assigned in first-use
//! order, and the packet order is the retirement order the recorder
//! replays. Perfetto sorts packets by timestamp on import, so packets
//! are *not* globally time-ordered in the file; the [`validate`] pass
//! instead checks per-track nesting feasibility after a stable sort. A
//! minimal [`decode`] / [`validate`] pair reads the wire format back
//! for golden-byte and round-trip tests — and for CI, which refuses
//! traces with unbalanced slices, dangling flows or non-monotonic
//! counters.
//!
//! [`FlightRecorder`]: crate::FlightRecorder
//! [`FlightRecorder::drain_closed`]: crate::FlightRecorder::drain_closed
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

    /// Tagged sint64 field (zigzag varint).
    pub fn put_sint(out: &mut Vec<u8>, field: u32, v: i64) {
        put_uint(out, field, zigzag(v));
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

/// Metric keys the export pipeline itself is held to by the repo-wide
/// `subsystem.object.action` naming audit.
pub mod keys {
    pub const BYTES_WRITTEN: &str = "perfetto.bytes.written";
    pub const PACKETS_WRITTEN: &str = "perfetto.packets.written";
    pub const TRACKS_CREATED: &str = "perfetto.tracks.created";
    pub const EVENTS_EMITTED: &str = "perfetto.events.emitted";

    // Streaming-pipeline counters (the `stream.*` family).
    pub const STREAM_BYTES_FLUSHED: &str = "stream.bytes.flushed";
    pub const STREAM_PACKETS_EMITTED: &str = "stream.packets.emitted";
    pub const STREAM_FLUSHES_TOTAL: &str = "stream.flushes.total";
    pub const STREAM_SCRATCH_PEAK: &str = "stream.scratch.peak_bytes";
    pub const STREAM_NAMES_INTERNED: &str = "stream.names.interned";

    pub const ALL: &[&str] = &[
        BYTES_WRITTEN,
        PACKETS_WRITTEN,
        TRACKS_CREATED,
        EVENTS_EMITTED,
        STREAM_BYTES_FLUSHED,
        STREAM_PACKETS_EMITTED,
        STREAM_FLUSHES_TOTAL,
        STREAM_SCRATCH_PEAK,
        STREAM_NAMES_INTERNED,
    ];
}

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

// ---------------------------------------------------------------------------
// Packet sinks
// ---------------------------------------------------------------------------

/// Where flushed packet bytes go. The exporter only ever hands a sink
/// whole packets (never a split packet), so any prefix of sink writes is
/// itself a decodable `.perfetto-trace` stream.
pub trait PacketSink {
    fn write(&mut self, bytes: &[u8]) -> Result<(), String>;
}

/// The in-memory sink: flushing appends to the `Vec`. Never fails.
impl PacketSink for Vec<u8> {
    fn write(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.extend_from_slice(bytes);
        Ok(())
    }
}

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv64_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

/// FNV-1a 64 of `bytes`: the fingerprint a [`FileSink`] keeps as it streams.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_update(FNV64_OFFSET, bytes)
}

/// A buffered file sink that fingerprints (FNV-1a 64) and counts every
/// byte as it streams past, so scale runs get a determinism check
/// without re-reading the file.
pub struct FileSink {
    file: std::io::BufWriter<std::fs::File>,
    bytes: u64,
    fnv: u64,
}

impl FileSink {
    pub fn create(path: &str) -> Result<FileSink, String> {
        let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        Ok(FileSink {
            file: std::io::BufWriter::new(file),
            bytes: 0,
            fnv: FNV64_OFFSET,
        })
    }

    /// Bytes written so far.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Running FNV-1a 64 fingerprint of everything written so far —
    /// equal to hashing the final file in one pass.
    pub fn fnv64(&self) -> u64 {
        self.fnv
    }

    /// Flush to disk and return `(bytes_written, fnv64)`.
    pub fn finish(mut self) -> Result<(u64, u64), String> {
        use std::io::Write as _;
        self.file.flush().map_err(|e| format!("flush: {e}"))?;
        Ok((self.bytes, self.fnv))
    }
}

impl PacketSink for FileSink {
    fn write(&mut self, bytes: &[u8]) -> Result<(), String> {
        use std::io::Write as _;
        self.file
            .write_all(bytes)
            .map_err(|e| format!("write: {e}"))?;
        self.bytes += bytes.len() as u64;
        self.fnv = fnv64_update(self.fnv, bytes);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Streaming exporter
// ---------------------------------------------------------------------------

/// Scratch bytes the exporter accumulates before [`StreamingExporter::pump`]
/// hands them to the sink.
pub const DEFAULT_FLUSH_THRESHOLD: usize = 256 * 1024;

/// Counters the exporter keeps while streaming; [`StreamingExporter::finish`]
/// returns the final values.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Spans fed (each expands to begin + instants + end packets).
    pub spans: u64,
    /// Trace packets emitted (descriptors + events).
    pub packets: u64,
    /// Track events emitted (slice begins/ends, instants, counter points).
    pub events: u64,
    /// Track descriptors emitted.
    pub tracks: u64,
    /// Event names interned into the sequence.
    pub interned_names: u64,
    /// Total encoded bytes (flushed + still buffered).
    pub bytes_encoded: u64,
    /// Bytes handed to the sink so far.
    pub bytes_flushed: u64,
    /// Sink writes performed.
    pub flushes: u64,
    /// High-water mark of the scratch buffer — the encoder's working-set
    /// bound that `harness perfetto-scale` holds under its ceiling.
    pub peak_buffered_bytes: usize,
    /// High-water mark of retained lane-assignment intervals across all
    /// `(host, subsystem)` groups — the only other state that could grow
    /// with trace length, bounded by watermark pruning.
    pub lane_state_peak: usize,
}

/// Per-`(host, subsystem)` lane state: for every lane, the extents of
/// the spans placed on it, sorted by `(start, end)`. A lane can render
/// a set of slices iff the set is laminar — every pair nested or
/// disjoint — so a new span conflicts with a lane iff it *partially*
/// overlaps any recorded extent. Spans may arrive with non-monotone
/// `end_ns` (simulated parallelism rewinds branch clocks), so the check
/// scans the lane's live extents; watermark pruning keeps that set
/// small on long streams.
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

/// Incremental Perfetto encoder. Feed it the recorder's retirement
/// stream ([`FlightRecorder::drain_closed`] /
/// [`FlightRecorder::stream_items`]), timeline instants and counter
/// samples in any interleaving; call [`pump`](Self::pump) between feeds
/// to bound the scratch buffer. Track descriptors and interned names
/// are emitted on first use and the interning table persists across
/// flushes, so the concatenation of all sink writes is one valid trace.
///
/// Feeding the same sequence always yields the same bytes, and the
/// buffered [`export`] *is* this exporter replayed — so streaming and
/// buffered output are byte-identical for any world that fits in
/// memory.
///
/// Feed spans in the recorder's retirement order. End timestamps need
/// not be globally monotone — simulated parallelism (`Env::parallel`)
/// rewinds branch clocks, so a later-retired span can end earlier —
/// and lane assignment handles any laminar-per-host history. Other
/// feed kinds are unconstrained.
pub struct StreamingExporter {
    cfg: ExportConfig,
    flow_names: BTreeSet<&'static str>,
    flush_threshold: usize,
    scratch: Vec<u8>,
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
    stats: StreamStats,
}

impl StreamingExporter {
    pub fn new(cfg: ExportConfig) -> StreamingExporter {
        StreamingExporter::with_flush_threshold(cfg, DEFAULT_FLUSH_THRESHOLD)
    }

    pub fn with_flush_threshold(cfg: ExportConfig, flush_threshold: usize) -> StreamingExporter {
        let flow_names = cfg.flow_events.iter().copied().collect();
        StreamingExporter {
            cfg,
            flow_names,
            flush_threshold: flush_threshold.max(1),
            scratch: Vec::with_capacity(4096),
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
            stats: StreamStats::default(),
        }
    }

    pub fn stats(&self) -> &StreamStats {
        &self.stats
    }

    /// Bytes currently buffered in scratch (what the next flush writes).
    pub fn buffered_bytes(&self) -> usize {
        self.scratch.len()
    }

    fn intern(&mut self, name: &str) -> u64 {
        if let Some(&iid) = self.iid_of.get(name) {
            return iid;
        }
        let iid = self.iid_of.len() as u64 + 1;
        self.iid_of.insert(name.to_string(), iid);
        self.pending_names.push((iid, name.to_string()));
        self.stats.interned_names += 1;
        iid
    }

    /// Emit one trace packet into scratch: timestamp, sequence fields,
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
        let before = self.scratch.len();
        wire::put_msg(&mut self.scratch, fields::TRACE_PACKET, |p| {
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
        self.stats.packets += 1;
        self.stats.bytes_encoded += (self.scratch.len() - before) as u64;
        self.stats.peak_buffered_bytes = self.stats.peak_buffered_bytes.max(self.scratch.len());
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
        self.stats.events += 1;
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
        self.stats.tracks += 1;
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
        self.stats.tracks += 1;
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
        let total: usize = self
            .groups
            .values()
            .map(|g| g.covered.iter().map(Vec::len).sum::<usize>())
            .sum();
        self.stats.lane_state_peak = self.stats.lane_state_peak.max(total);
        uuid
    }

    /// Stream one closed span: process/thread descriptors on first use,
    /// slice begin (carrying the trace's flow when it chains or roots a
    /// flowing trace), one instant per span event, slice end with the
    /// label/outcome/ids/fields as debug annotations.
    pub fn feed_span(&mut self, s: &Span) {
        self.stats.spans += 1;
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

    /// Stream one ring-buffer eviction marker as an instant on the
    /// dedicated `flight-recorder` track. Fed in retirement-stream
    /// position, its packet lands in timestamp order relative to the
    /// slice packets around it.
    pub fn feed_eviction(&mut self, m: &EvictionMarker) {
        if !self.recorder_track {
            self.recorder_track = true;
            self.stats.tracks += 1;
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
        self.stats.tracks += 1;
        let owned = name.to_string();
        self.packet(None, |p| {
            wire::put_msg(p, fields::packet::TRACK_DESCRIPTOR, |d| {
                wire::put_uint(d, fields::track::UUID, uuid);
                wire::put_str(d, fields::track::NAME, &owned);
            });
        });
        uuid
    }

    /// Stream one caller-timeline instant (e.g. an SLO alert exemplar).
    /// Its flow reference only *joins* a trace already known to flow —
    /// an instant can never create a flow that would resolve to a single
    /// event.
    pub fn feed_instant(&mut self, track: &str, ev: &InstantEvent) {
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

    /// Stream a whole timeline track (descriptor even when empty).
    pub fn feed_instant_track(&mut self, t: &InstantTrack) {
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
        self.stats.tracks += 1;
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

    /// Stream one counter sample. The track (keyed by name, uuid by
    /// first appearance) is described on first use, so a sampler can
    /// feed the same series incrementally across many pump cycles.
    pub fn feed_counter_point(&mut self, name: &str, unit: CounterUnit, ts: u64, v: f64) {
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

    /// Stream a whole counter series (descriptor even when empty).
    pub fn feed_counter_series(&mut self, s: &CounterSeries) {
        self.counter_track_uuid(&s.name, s.unit);
        for &(ts, v) in &s.points {
            self.feed_counter_point(&s.name, s.unit, ts, v);
        }
    }

    /// Prune lane-assignment intervals that end at or before `wm`. Safe
    /// — and byte-neutral — whenever every span fed from now on starts
    /// at or after `wm`; [`FlightRecorder::open_min_start_ns`] (falling
    /// back to the current virtual time when nothing is open) is exactly
    /// that bound. This is what keeps encoder state from growing with
    /// trace length on long runs.
    pub fn advance_watermark(&mut self, wm: u64) {
        for g in self.groups.values_mut() {
            for cov in &mut g.covered {
                cov.retain(|iv| iv.1 > wm);
            }
        }
    }

    /// Flush scratch to the sink if it crossed the flush threshold.
    pub fn pump(&mut self, sink: &mut dyn PacketSink) -> Result<(), String> {
        if self.scratch.len() >= self.flush_threshold {
            self.flush(sink)?;
        }
        Ok(())
    }

    /// Unconditionally hand buffered bytes to the sink.
    pub fn flush(&mut self, sink: &mut dyn PacketSink) -> Result<(), String> {
        if self.scratch.is_empty() {
            return Ok(());
        }
        sink.write(&self.scratch)?;
        self.stats.bytes_flushed += self.scratch.len() as u64;
        self.stats.flushes += 1;
        self.scratch.clear();
        Ok(())
    }

    /// Final flush; returns the stream's stats.
    pub fn finish(mut self, sink: &mut dyn PacketSink) -> Result<StreamStats, String> {
        self.flush(sink)?;
        Ok(self.stats)
    }
}

/// Render the recorder (plus sampled counter series and caller timeline
/// tracks) as one complete `.perfetto-trace` byte stream — a replay of
/// [`StreamingExporter`] over the recorder's retirement stream, so
/// buffered and streamed exports of the same content are byte-identical
/// by construction.
///
/// Deterministic: identical inputs produce identical bytes.
pub fn export(
    rec: &FlightRecorder,
    counters: &[CounterSeries],
    timelines: &[InstantTrack],
    cfg: &ExportConfig,
) -> Vec<u8> {
    let mut ex = StreamingExporter::new(cfg.clone());
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
    let mut out = Vec::new();
    // The Vec sink never fails.
    let _ = ex.finish(&mut out);
    out
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

    /// Replays the exact feed order [`export`] uses against a streaming
    /// exporter flushed every `cadence` packets.
    fn stream_with_cadence(
        rec: &FlightRecorder,
        counters: &[CounterSeries],
        timelines: &[InstantTrack],
        cadence: u64,
    ) -> Vec<u8> {
        let mut ex = StreamingExporter::new(ExportConfig::default());
        let mut out = Vec::new();
        let mut boundary = cadence;
        let mut step = |ex: &mut StreamingExporter, out: &mut Vec<u8>| {
            if ex.stats().packets >= boundary {
                ex.flush(out).expect("vec flush");
                boundary = ex.stats().packets + cadence;
            }
        };
        for item in rec.stream_items() {
            match item {
                crate::StreamItem::Span(s) => ex.feed_span(s),
                crate::StreamItem::Eviction(m) => ex.feed_eviction(m),
            }
            step(&mut ex, &mut out);
        }
        for t in timelines {
            ex.feed_instant_track(t);
            step(&mut ex, &mut out);
        }
        for c in counters {
            ex.feed_counter_series(c);
            step(&mut ex, &mut out);
        }
        ex.finish(&mut out).expect("finish");
        out
    }

    #[test]
    fn flush_cadence_never_changes_the_bytes() {
        // Interning state must survive flushes: the concatenation of all
        // sink writes equals the buffered export no matter where the
        // packet stream is cut.
        let mut rec = FlightRecorder::new(8);
        let root = rec.span_start("storm.read", "svc", 1, 0);
        for i in 0..6u64 {
            let c = rec.span_start("csp.child", "svc", 1 + i % 3, i * 100);
            rec.span_event(c, i * 100 + 10, "retry.attempt", vec![]);
            rec.span_end(c, i * 100 + 50, Outcome::Ok);
        }
        rec.span_end(root, 1_000, Outcome::Ok);
        let counters = vec![CounterSeries {
            name: "admission.requests.shed".into(),
            unit: CounterUnit::Count,
            points: vec![(100, 1.0), (500, 4.0)],
        }];
        let timelines = vec![InstantTrack {
            name: "slo-alerts".into(),
            events: vec![InstantEvent {
                at_ns: 700,
                name: "slo.alert.fired".into(),
                flow_trace: Some(1),
                args: vec![],
            }],
        }];
        let buffered = export(&rec, &counters, &timelines, &ExportConfig::default());
        for cadence in [1u64, 7, 64] {
            let streamed = stream_with_cadence(&rec, &counters, &timelines, cadence);
            assert_eq!(streamed, buffered, "cadence {cadence}");
        }
        let dec = decode(&buffered).expect("decodes");
        assert_eq!(validate(&dec), Vec::<String>::new());
    }

    #[test]
    fn pumping_bounds_the_scratch_buffer() {
        let threshold = 4_096usize;
        let mut ex = StreamingExporter::with_flush_threshold(ExportConfig::default(), threshold);
        let mut rec = FlightRecorder::new(4_096);
        for i in 0..2_000u64 {
            let s = rec.span_start("mote.sample", "m", i % 16, i * 10);
            rec.span_end(s, i * 10 + 8, Outcome::Ok);
        }
        let mut out = Vec::new();
        for s in rec.spans() {
            ex.feed_span(s);
            ex.pump(&mut out).expect("pump");
        }
        let stats = ex.finish(&mut out).expect("finish");
        // One span never encodes to more than ~threshold bytes, so the
        // scratch high-water mark stays within a packet of the limit.
        assert!(
            stats.peak_buffered_bytes < 2 * threshold,
            "peak {} vs threshold {threshold}",
            stats.peak_buffered_bytes
        );
        assert!(
            stats.bytes_flushed > 8 * threshold as u64,
            "stream actually exceeded the buffer many times over: {}",
            stats.bytes_flushed
        );
        assert_eq!(stats.bytes_flushed, out.len() as u64);
        let dec = decode(&out).expect("decodes");
        assert_eq!(validate(&dec), Vec::<String>::new());
    }

    #[test]
    fn watermark_pruning_is_byte_neutral_and_bounds_lane_state() {
        let mut rec = FlightRecorder::new(4_096);
        for i in 0..200u64 {
            let s = rec.span_start("mote.sample", "m", 1, i * 100);
            rec.span_end(s, i * 100 + 60, Outcome::Ok);
        }
        let feed = |prune: bool| {
            let mut ex = StreamingExporter::new(ExportConfig::default());
            for s in rec.spans() {
                ex.feed_span(s);
                if prune {
                    // Everything up to this close is retired; no open
                    // span can start earlier.
                    ex.advance_watermark(s.end_ns);
                }
            }
            let mut out = Vec::new();
            let stats = ex.finish(&mut out).expect("finish");
            (out, stats)
        };
        let (plain, plain_stats) = feed(false);
        let (pruned, pruned_stats) = feed(true);
        assert_eq!(plain, pruned, "pruning must not change emitted bytes");
        assert_eq!(plain_stats.lane_state_peak, 200);
        assert!(
            pruned_stats.lane_state_peak <= 2,
            "watermark keeps lane state O(open spans): {}",
            pruned_stats.lane_state_peak
        );
    }

    #[test]
    fn file_sink_matches_vec_sink_and_fingerprints() {
        let rec = two_span_recorder();
        let bytes = export(&rec, &[], &[], &ExportConfig::default());
        let mut expect_fnv = FNV64_OFFSET;
        expect_fnv = fnv64_update(expect_fnv, &bytes);

        let path = std::env::temp_dir().join(format!(
            "sensorcer-filesink-{}.perfetto-trace",
            std::process::id()
        ));
        let path_s = path.to_string_lossy().into_owned();
        let mut sink = FileSink::create(&path_s).expect("create");
        let mut ex = StreamingExporter::new(ExportConfig::default());
        for item in rec.stream_items() {
            match item {
                crate::StreamItem::Span(s) => ex.feed_span(s),
                crate::StreamItem::Eviction(m) => ex.feed_eviction(m),
            }
            ex.pump(&mut sink).expect("pump");
        }
        ex.finish(&mut sink).expect("finish stream");
        let (written, fnv) = sink.finish().expect("finish sink");
        assert_eq!(written, bytes.len() as u64);
        assert_eq!(fnv, expect_fnv);
        let on_disk = std::fs::read(&path).expect("read back");
        assert_eq!(on_disk, bytes);
        let _ = std::fs::remove_file(&path);
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
        let mut ex = StreamingExporter::new(ExportConfig::default());
        for item in rec.stream_items() {
            match item {
                crate::StreamItem::Span(s) => ex.feed_span(s),
                crate::StreamItem::Eviction(m) => ex.feed_eviction(m),
            }
        }
        let mut out = Vec::new();
        ex.finish(&mut out).expect("finish");
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
