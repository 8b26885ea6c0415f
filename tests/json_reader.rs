//! The report reader is a trust boundary: it reads files from disk that
//! anyone may have edited. These properties hold it to the writer —
//! `parse(render(v)) == v` exactly, over generated values — and hold it to
//! never panicking: on arbitrary bytes, on truncated writer output, on
//! writer output with one byte changed, and on nesting deep enough to
//! overflow a naive recursive reader's stack.

use sensorcer_bench::chaos::SoakReport;
use sensorcer_bench::verify::{MutationStats, ScenarioStats, VerifyReport};
use sensorcer_suite::sim::check::{run_cases, Gen};
use sensorcer_trace::json::{ErrorKind, Json, MAX_DEPTH};
use sensorcer_trace::{FlightRecorder, Outcome};

/// Characters a report string may carry: quotes and backslashes, control
/// characters, non-ASCII, the JavaScript line separators and characters
/// outside the Basic Multilingual Plane (surrogate pairs in `\u` form).
const CHARS: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '"',
    '\\',
    '/',
    '\n',
    '\t',
    '\r',
    '\u{0}',
    '\u{1}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
    'é',
    'µ',
    '°',
    '中',
    '\u{2028}',
    '\u{2029}',
    '\u{feff}',
    '😀',
    '\u{10ffff}',
];

fn gen_string(g: &mut Gen) -> String {
    (0..g.usize_in(0, 10)).map(|_| *g.pick(CHARS)).collect()
}

/// Finite floats: any bit pattern, signed zeros, integral values (which
/// must come back as floats, not integers), extremes and subnormals.
fn gen_f64(g: &mut Gen) -> f64 {
    let x = match g.u64_in(0, 5) {
        0 => f64::from_bits(g.u64()),
        1 => *g.pick(&[0.0, -0.0, 3.0, -1.0, 1e16, 1e-7]),
        2 => g.i64_in(-1_000_000, 1_000_000) as f64,
        3 => *g.pick(&[f64::MAX, f64::MIN, f64::MIN_POSITIVE, 5e-324, f64::EPSILON]),
        _ => g.f64_in(-1e3, 1e3),
    };
    if x.is_finite() {
        x
    } else {
        0.5
    }
}

fn gen_leaf(g: &mut Gen) -> Json {
    match g.u64_in(0, 7) {
        0 => Json::Null,
        1 => g.bool().into(),
        // Mostly above 2^53, where a float would round.
        2 => g.u64().into(),
        3 => (*g.pick(&[0, (1u64 << 53) + 1, u64::MAX])).into(),
        4 => (*g.pick(&[i64::MIN, -1, -(1i64 << 53) - 1])).into(),
        5 => Json::F64(gen_f64(g)),
        _ => gen_string(g).into(),
    }
}

/// A value nested at most `depth` containers deep.
fn gen_value(g: &mut Gen, depth: usize) -> Json {
    if depth == 0 || g.chance(0.3) {
        return gen_leaf(g);
    }
    if g.bool() {
        Json::Arr(g.vec_of(0, 3, |g| gen_value(g, depth - 1)))
    } else {
        Json::Obj(g.vec_of(0, 3, |g| (gen_string(g), gen_value(g, depth - 1))))
    }
}

fn depth_of(v: &Json) -> usize {
    match v {
        Json::Arr(xs) => 1 + xs.iter().map(depth_of).max().unwrap_or(0),
        Json::Obj(kv) => 1 + kv.iter().map(|(_, v)| depth_of(v)).max().unwrap_or(0),
        _ => 0,
    }
}

#[test]
fn what_the_writer_writes_the_reader_reads_back_exactly() {
    let mut deepest = 0;
    run_cases("json_round_trip", 600, |g| {
        let v = gen_value(g, 8);
        deepest = deepest.max(depth_of(&v));
        let text = v.render();
        assert_eq!(Json::parse(text.as_bytes()), Ok(v), "{text}");
    });
    assert_eq!(deepest, 8, "the generator never nested eight deep");
}

#[test]
fn edge_values_keep_their_type_and_bits() {
    for (v, text) in [
        (Json::from(u64::MAX), "18446744073709551615"),
        (Json::from((1u64 << 53) + 1), "9007199254740993"),
        (Json::from(i64::MIN), "-9223372036854775808"),
        (Json::F64(3.0), "3.0"),
        (Json::F64(-0.0), "-0.0"),
        (Json::F64(1e16), "1e16"),
        (Json::from("😀\u{2028}\u{1}"), "\"😀\u{2028}\\u0001\""),
    ] {
        assert_eq!(v.render(), format!("{text}\n"));
        assert_eq!(Json::parse(text.as_bytes()), Ok(v));
    }
    // An integral float reads back as a float, and never equals the integer.
    assert_eq!(Json::parse(b"3.0"), Ok(Json::F64(3.0)));
    assert_ne!(Json::F64(3.0), Json::from(3u64));
    assert_ne!(Json::F64(-0.0), Json::F64(0.0));
    // Escaped surrogate pairs and the other escapes decode.
    assert_eq!(
        Json::parse(br#""\ud83d\ude00\u00e9\/\b\f""#),
        Ok(Json::from("😀é/\u{8}\u{c}"))
    );
}

#[test]
fn the_reader_never_panics_on_arbitrary_bytes() {
    const BYTES: &[u8] = b"{}[]\",:\\/ -+.eE0123456789tfnulrsaubx\n\xc3\xa9\xff\x00";
    run_cases("json_arbitrary_bytes", 2_000, |g| {
        let input: Vec<u8> = g.vec_of(0, 48, |g| {
            if g.chance(0.1) {
                g.u64() as u8
            } else {
                *g.pick(BYTES)
            }
        });
        let _ = Json::parse(&input);
    });
}

#[test]
fn the_reader_never_panics_on_cut_or_altered_writer_output() {
    run_cases("json_damaged_output", 300, |g| {
        let text = gen_value(g, 5).render().into_bytes();
        for end in 0..text.len() {
            let _ = Json::parse(&text[..end]);
        }
        let mut altered = text.clone();
        let at = g.usize_in(0, altered.len());
        altered[at] = g.u64() as u8;
        let _ = Json::parse(&altered);
    });
}

#[test]
fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
    let err = Json::parse(&vec![b'['; 100_000]).unwrap_err();
    assert_eq!(err.kind, ErrorKind::TooDeep);
    assert_eq!(err.at, MAX_DEPTH);
    let objects = "{\"a\": ".repeat(100_000);
    assert_eq!(
        Json::parse(objects.as_bytes()).unwrap_err().kind,
        ErrorKind::TooDeep
    );
    // The bound itself is legal.
    let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
    assert!(Json::parse(at_bound.as_bytes()).is_ok());
}

#[test]
fn non_finite_floats_are_written_as_strings_like_span_fields() {
    let mut rec = FlightRecorder::new(4);
    let span = rec.span_start("t", "t", 1, 0);
    for (key, x) in [
        ("nan", f64::NAN),
        ("inf", f64::INFINITY),
        ("ninf", f64::NEG_INFINITY),
    ] {
        rec.span_field(span, key, x.into());
    }
    rec.span_end(span, 1, Outcome::Ok);
    let spans = rec.to_json();
    for (x, text) in [
        (f64::NAN, "\"NaN\""),
        (f64::INFINITY, "\"inf\""),
        (f64::NEG_INFINITY, "\"-inf\""),
    ] {
        let doc = Json::arr([Json::F64(x)]).render();
        assert!(doc.contains(text), "{doc}");
        assert!(spans.contains(text), "{spans}");
        assert_eq!(
            Json::parse(doc.as_bytes()),
            Ok(Json::arr([text.trim_matches('"')]))
        );
    }
}

/// Every string a report carries round-trips, control characters
/// included: a violation with a newline, a tab or a `\u{1}` in it used to
/// make the whole file unreadable.
#[test]
fn a_report_with_control_characters_reads_back_equal() {
    let nasty = "a\nb\t\u{1}\"c\\";
    let soak = SoakReport {
        seed: 1,
        rounds: 0,
        reads_total: 0,
        reads_ok: 0,
        reads_failed: 0,
        reads_degraded: 0,
        injected: Default::default(),
        retry_attempts: 0,
        failover_attempts: 0,
        events_applied: 0,
        violations: vec![nasty.to_string()],
        reconverged: true,
    };
    let verify = VerifyReport {
        seed: 1,
        scenarios: vec![ScenarioStats {
            name: nasty.into(),
            violations: vec![nasty.into()],
            ..Default::default()
        }],
        mutation: MutationStats {
            example: nasty.into(),
            ..Default::default()
        },
    };
    for doc in [soak.json(), verify.json()] {
        let back = Json::parse(doc.render().as_bytes()).expect("the report reads back");
        assert_eq!(back, doc);
    }
    let back = Json::parse(soak.json().render().as_bytes()).expect("reads back");
    let violations = back.get("violations").and_then(Json::as_array);
    assert_eq!(violations, Some(&[Json::from(nasty)][..]));
}
