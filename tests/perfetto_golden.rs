//! Golden bytes of the Perfetto encoder: the exact export of the smallest
//! trace that exercises slices, instants, interning and a flow. Pins the
//! wire layout (field numbers, interning, packet order) — any encoder
//! change must consciously update this fixture.
//!
//! The decoder is a trust boundary too: it reads whatever file it is
//! given. It must never panic, on generated protobuf-shaped bytes or on
//! cut and bit-flipped copies of the pinned stream, and neither may the
//! validator on whatever the decoder accepts.

use sensorcer_suite::sim::check::{run_cases, Gen};
use sensorcer_trace::perfetto::wire::{
    put_bytes, put_tag, put_varint, WT_FIXED32, WT_FIXED64, WT_LEN, WT_VARINT,
};
use sensorcer_trace::perfetto::{decode, export, validate, ExportConfig};
use sensorcer_trace::{FlightRecorder, Outcome};

/// A parent span on host 1 with one child on host 2 carrying a chain
/// event.
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
fn two_span_trace_golden_bytes() {
    let bytes = export(&two_span_recorder(), &[], &[], &ExportConfig::default());
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, GOLDEN_TWO_SPAN_HEX, "wire bytes drifted");
}

/// Decode `bytes` and, when that succeeds, validate the result; report
/// whether it decoded.
fn decode_and_validate(bytes: &[u8]) -> bool {
    match decode(bytes) {
        Ok(trace) => {
            let _ = validate(&trace);
            true
        }
        Err(_) => false,
    }
}

/// Every field number the encoder writes at some nesting level, and 0,
/// which no message may use.
const FIELDS: &[u32] = &[0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13, 30, 44, 47, 60];

/// A protobuf-shaped message nested up to `depth` levels: fields of every
/// wire type, now and then a length no buffer can hold or a stray byte.
fn gen_message(g: &mut Gen, depth: usize) -> Vec<u8> {
    let mut out = Vec::new();
    for _ in 0..g.usize_in(0, 6) {
        let field = *g.pick(FIELDS);
        match g.u64_in(0, 8) {
            0 => {
                put_tag(&mut out, field, WT_VARINT);
                let v = if g.bool() { g.u64_in(0, 6) } else { g.u64() };
                put_varint(&mut out, v);
            }
            1 => {
                put_tag(&mut out, field, WT_FIXED64);
                out.extend(g.u64().to_le_bytes());
            }
            2 => {
                put_tag(&mut out, field, WT_FIXED32);
                out.extend((g.u64() as u32).to_le_bytes());
            }
            3 => {
                put_tag(&mut out, field, WT_LEN);
                put_varint(
                    &mut out,
                    *g.pick(&[u64::MAX, u64::MAX - 7, 1 << 40, 1 << 20]),
                );
            }
            4 => out.push(g.u64() as u8),
            _ if depth == 0 => put_bytes(&mut out, field, g.ascii_string(8).as_bytes()),
            _ => put_bytes(&mut out, field, &gen_message(g, depth - 1)),
        }
    }
    out
}

#[test]
fn the_decoder_never_panics_on_generated_bytes() {
    let mut decoded = 0;
    run_cases("perfetto_generated_bytes", 3_000, |g| {
        let mut stream = Vec::new();
        for _ in 0..g.usize_in(0, 6) {
            if g.chance(0.9) {
                put_bytes(&mut stream, 1, &gen_message(g, 3));
            } else {
                stream.extend(gen_message(g, 3));
            }
        }
        decoded += u32::from(decode_and_validate(&stream));
    });
    assert!(
        decoded > 0,
        "no generated stream decoded: the validator never ran"
    );
}

#[test]
fn the_decoder_never_panics_on_cut_or_bit_flipped_golden_bytes() {
    let golden = export(&two_span_recorder(), &[], &[], &ExportConfig::default());
    let trace = decode(&golden).expect("the pinned stream decodes");
    assert_eq!(validate(&trace), Vec::<String>::new());
    for end in 0..golden.len() {
        decode_and_validate(&golden[..end]);
    }
    let mut decoded = 0;
    run_cases("perfetto_flipped_golden", 2_000, |g| {
        let mut bytes = golden.clone();
        for _ in 0..g.usize_in(1, 4) {
            let at = g.usize_in(0, bytes.len());
            bytes[at] ^= 1 << g.usize_in(0, 8);
        }
        decoded += u32::from(decode_and_validate(&bytes));
    });
    assert!(
        decoded > 0,
        "no flipped copy decoded: the validator never ran"
    );
}

// Generated once from the encoder and reviewed (to regenerate, run the
// test and copy the `left` value). Packets follow streaming order:
// descriptors appear at first use, spans at close (child before root),
// with interned names attached to the first packet that needs them.
const GOLDEN_TWO_SPAN_HEX: &str = "0a2150016803e2031a0882808080011206686f73742d321a0a08023206686f73742d320a1d50016802e2031608808080800212036373702209080210012a036373700a4140b009500168026222120d080112096373702e6368696c6412110802120d72657472792e617474656d70745a1448015001588080808002f90201000000000000000a1d40940a500168025a1448035002588080808002f90201000000000000000a4a40880e500168025a412213320a437269746963616c2d4152056c6162656c220d32026f6b52076f7574636f6d6522092001520574726163652208200252047370616e48025880808080020a2150016802e2031a0881808080011206686f73742d311a0a08013206686f73742d310a2150016802e2031a088180808002120573746f726d220b080110022a0573746f726d0a2f40e807500168026210120e0803120a73746f726d2e726561645a1448015003588180808002f90201000000000000000a4d40d00f500168025a442216320d437269746963616c2d4665656452056c6162656c220d32026f6b52076f7574636f6d6522092001520574726163652208200152047370616e4802588180808002";
