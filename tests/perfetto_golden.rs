//! Golden bytes of the Perfetto encoder: the exact export of the smallest
//! trace that exercises slices, instants, interning and a flow. Pins the
//! wire layout (field numbers, interning, packet order) — any encoder
//! change must consciously update this fixture.

use sensorcer_trace::perfetto::{export, ExportConfig};
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

// Generated once from the encoder and reviewed (to regenerate, run the
// test and copy the `left` value). Packets follow streaming order:
// descriptors appear at first use, spans at close (child before root),
// with interned names attached to the first packet that needs them.
const GOLDEN_TWO_SPAN_HEX: &str = "0a2150016803e2031a0882808080011206686f73742d321a0a08023206686f73742d320a1d50016802e2031608808080800212036373702209080210012a036373700a4140b009500168026222120d080112096373702e6368696c6412110802120d72657472792e617474656d70745a1448015001588080808002f90201000000000000000a1d40940a500168025a1448035002588080808002f90201000000000000000a4a40880e500168025a412213320a437269746963616c2d4152056c6162656c220d32026f6b52076f7574636f6d6522092001520574726163652208200252047370616e48025880808080020a2150016802e2031a0881808080011206686f73742d311a0a08013206686f73742d310a2150016802e2031a088180808002120573746f726d220b080110022a0573746f726d0a2f40e807500168026210120e0803120a73746f726d2e726561645a1448015003588180808002f90201000000000000000a4d40d00f500168025a442216320d437269746963616c2d4665656452056c6162656c220d32026f6b52076f7574636f6d6522092001520574726163652208200152047370616e4802588180808002";
