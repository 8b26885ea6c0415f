//! The expression front end is a trust boundary: a composite's expression
//! is text a caller sends through the façade's `addExpression`. Whatever
//! the text, compiling it yields a program or a typed `ExprError`, never a
//! panic. The generator leans on what the lexer's string branch must
//! survive: quotes of both kinds, backslashes (a trailing one included)
//! and multibyte characters, alone and right after a backslash.

use sensorcer_suite::expr::{eval_str, ExprError, Program, Value};
use sensorcer_suite::sim::check::{run_cases, Gen};

/// Fragments that steer the lexer into string literals and escapes.
const PIECES: &[&str] = &[
    "'", "\"", "\\", "\\'", "\\\"", "\\\\", "\\n", "\\t", "\\é", "\\日", "\\🌡", "é", "日", "🌡",
    "a", "x1", "7", "2.5", " ", "+", "*", "(", ")", "[", "]", ",", "=", ";", "avg(", "max(",
];

/// Either plain printable ASCII or a run of [`PIECES`], sometimes ending
/// in a lone backslash.
fn source(g: &mut Gen) -> String {
    if g.chance(0.25) {
        return g.ascii_string(200);
    }
    let mut src: String = g.vec_of(0, 40, |g| *g.pick(PIECES)).concat();
    if g.chance(0.3) {
        src.push('\\');
    }
    src
}

#[test]
fn parser_never_panics() {
    run_cases("parser_never_panics", 512, |g| {
        let src = source(g);
        match Program::compile(&src) {
            Ok(_) => {}
            // An unterminated literal is reported where it opened.
            Err(ExprError::UnterminatedString { pos }) => assert!(
                matches!(src.as_bytes().get(pos.offset), Some(b'\'' | b'"')),
                "{src:?}: no quote at {pos:?}"
            ),
            Err(_) => {}
        }
    });
}

/// A literal written with escapes evaluates to the text it escapes, for
/// text full of quotes, backslashes and multibyte characters.
#[test]
fn escaped_string_literals_round_trip() {
    const CHARS: &[char] = &['a', ' ', '\'', '"', '\\', '\n', '\t', 'é', '日', '🌡'];
    run_cases("escaped_string_literals_round_trip", 256, |g| {
        let text: String = g.vec_of(0, 24, |g| *g.pick(CHARS)).into_iter().collect();
        let quote = *g.pick(&['\'', '"']);
        let mut src = String::from(quote);
        for ch in text.chars() {
            match ch {
                '\n' => src.push_str("\\n"),
                '\t' => src.push_str("\\t"),
                '\\' => src.push_str("\\\\"),
                c if c == quote => {
                    src.push('\\');
                    src.push(c);
                }
                // An escaped ordinary character stands for itself.
                c if g.chance(0.2) => {
                    src.push('\\');
                    src.push(c);
                }
                c => src.push(c),
            }
        }
        src.push(quote);
        assert_eq!(eval_str(&src), Ok(Value::from(text.as_str())), "{src:?}");
    });
}
