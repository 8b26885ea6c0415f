//! Properties of the simulator's wire codec, `sensorcer_sim::wire`, the
//! format every registry item and event crosses the simulated network in.
//! Every `WireDecode` impl there — the integers, `f64`, `bool`, `String`,
//! `Vec<T>`, `Option<T>` and pairs — round-trips generated values at the
//! length `encoded_len` promised, and decodes any byte string — every
//! prefix of an encoding, one with a bit flipped, and noise — to a value or
//! a `WireError`; a panic fails the property.

use std::fmt::Debug;

use sensorcer_suite::sim::check::{run_cases, Gen};
use sensorcer_suite::sim::wire::{Bytes, BytesMut, WireDecode, WireEncode};

/// Nested generics, so a decoder failing deep inside is exercised too.
type Nested = Vec<(Option<String>, Vec<u32>)>;

fn text(g: &mut Gen) -> String {
    let mut s = g.ascii_string(10);
    if g.chance(0.3) {
        let tail: &&str = g.pick(&["°C", "é", "☃", "\u{0}"]);
        s.push_str(tail);
    }
    s
}

fn nested(g: &mut Gen) -> Nested {
    g.vec_of(0, 4, |g| {
        let name = g.bool().then(|| text(g));
        (name, g.vec_of(0, 4, |g| g.u64() as u32))
    })
}

fn bytes(raw: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(raw.len());
    buf.put_slice(raw);
    buf.freeze()
}

/// Encode `value`, check its promised length and that it decodes back to
/// itself with nothing left over; returns the encoding.
fn round_trip<T: WireEncode + WireDecode + PartialEq + Debug>(value: &T) -> Vec<u8> {
    let wire = value.to_wire();
    assert_eq!(value.encoded_len(), wire.len(), "{value:?}");
    let mut buf = wire.clone();
    let back = T::decode(&mut buf).unwrap_or_else(|e| panic!("{value:?}: {e}"));
    assert_eq!(&back, value);
    assert_eq!(buf.remaining(), 0, "{value:?}");
    wire.to_vec()
}

/// Whether `raw` decodes as a `T`; a panic fails the property, and an
/// error must say what went wrong.
fn decodes<T: WireDecode>(raw: &[u8]) -> bool {
    match T::decode(&mut bytes(raw)) {
        Ok(_) => true,
        Err(e) => {
            assert!(!e.to_string().is_empty());
            false
        }
    }
}

/// One decoder per `WireDecode` impl of the module.
const DECODERS: [fn(&[u8]) -> bool; 12] = [
    decodes::<u8>,
    decodes::<u16>,
    decodes::<u32>,
    decodes::<u64>,
    decodes::<i64>,
    decodes::<f64>,
    decodes::<bool>,
    decodes::<String>,
    decodes::<Vec<u16>>,
    decodes::<Option<bool>>,
    decodes::<(u8, String)>,
    decodes::<Nested>,
];

#[test]
fn wire_values_round_trip() {
    run_cases("wire_values_round_trip", 256, |g| {
        round_trip(&(g.u64() as u8));
        round_trip(&(g.u64() as u16));
        round_trip(&(g.u64() as u32));
        round_trip(&g.u64());
        round_trip(&g.i64());
        round_trip(&g.bool());
        round_trip(&text(g));
        round_trip(&g.vec_of(0, 6, |g| g.u64() as u16));
        round_trip(&g.bool().then(|| g.bool()));
        round_trip(&(g.u64() as u8, text(g)));
        round_trip(&nested(g));
        // Floats by their bits: NaN payloads and signed zeros included.
        let x = f64::from_bits(g.u64());
        let mut wire = x.to_wire();
        assert_eq!(f64::decode(&mut wire).map(f64::to_bits), Ok(x.to_bits()));
    });
}

/// Any byte string decodes to a value or an error, and a proper prefix of
/// an encoding is refused.
#[test]
fn wire_decoders_never_panic() {
    let mut attempts = 0usize;
    run_cases("wire_decoders_never_panic", 256, |g| {
        let encodings = [
            round_trip(&text(g)),
            round_trip(&g.vec_of(0, 6, |g| g.u64() as u16)),
            round_trip(&g.bool().then(|| g.bool())),
            round_trip(&(g.u64() as u8, text(g))),
            round_trip(&nested(g)),
        ];
        let noise: Vec<u8> = (0..g.usize_in(0, 48)).map(|_| g.u64() as u8).collect();
        let mut flipped = encodings[4].clone();
        if !flipped.is_empty() {
            let at = g.usize_in(0, flipped.len());
            flipped[at] ^= 1 << g.u64_in(0, 8);
        }
        for raw in encodings.iter().chain([&noise, &flipped]) {
            for len in 0..=raw.len() {
                for decode in DECODERS {
                    decode(&raw[..len]);
                    attempts += 1;
                }
            }
        }
        for (raw, decode) in encodings.iter().zip([
            decodes::<String> as fn(&[u8]) -> bool,
            decodes::<Vec<u16>>,
            decodes::<Option<bool>>,
            decodes::<(u8, String)>,
            decodes::<Nested>,
        ]) {
            assert!(decode(raw));
            let len = g.usize_in(0, raw.len());
            assert!(
                !decode(&raw[..len]),
                "a {len}-byte prefix of {raw:?} decoded"
            );
        }
    });
    assert!(attempts > 100_000, "{attempts} decodes tried");
}
