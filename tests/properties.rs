//! Cross-crate property tests: invariants that must hold for arbitrary
//! inputs, spanning the expression language, the composite's variable
//! names and the simulated sensors' signals. Driven by the
//! deterministic harness in `sensorcer_sim::check`.

use sensorcer_suite::sim::check::run_cases;

use sensorcer_suite::expr::{Program, Value};
use sensorcer_suite::sensors::prelude::{Diurnal, RandomWalk, Signal, SignalState};
use sensorcer_suite::sim::rng::SimRng;
use sensorcer_suite::sim::time::SimTime;

/// The paper's average expression equals arithmetic for any readings.
#[test]
fn paper_average_is_exact() {
    run_cases("paper_average_is_exact", 256, |g| {
        let a = g.f64_in(-100.0, 150.0);
        let b = g.f64_in(-100.0, 150.0);
        let c = g.f64_in(-100.0, 150.0);
        let p = Program::compile("(a + b + c)/3").unwrap();
        let v = p.eval_with([("a", a), ("b", b), ("c", c)]).unwrap();
        let got = v.as_f64().unwrap();
        assert!((got - (a + b + c) / 3.0).abs() < 1e-9);
    });
}

/// Integer expression arithmetic matches i64 semantics for + - *.
#[test]
fn integer_ops_match_rust() {
    run_cases("integer_ops_match_rust", 256, |g| {
        let a = g.i64_in(-10_000, 10_000);
        let b = g.i64_in(-10_000, 10_000);
        for (op, want) in [("+", a + b), ("-", a - b), ("*", a * b)] {
            let p = Program::compile(&format!("a {op} b")).unwrap();
            let v = p.eval_with([("a", a), ("b", b)]).unwrap();
            assert_eq!(v, Value::Int(want));
        }
    });
}

/// Division never panics: it yields a value or DivisionByZero.
#[test]
fn division_total() {
    run_cases("division_total", 256, |g| {
        let a = g.i64_in(-1000, 1000);
        let b = g.i64_in(-1000, 1000);
        let p = Program::compile("a / b").unwrap();
        match p.eval_with([("a", a), ("b", b)]) {
            Ok(v) => assert!(v.as_f64().is_some()),
            Err(e) => assert!(b == 0 && e.to_string().contains("division")),
        }
    });
}

/// Parse → display → parse fixed point for expression values the CSP
/// info panel shows (the expression source survives installation).
#[test]
fn expression_source_is_preserved() {
    run_cases("expression_source_is_preserved", 64, |g| {
        let n = g.usize_in(2, 8);
        let vars: Vec<String> = (0..n)
            .map(sensorcer_suite::core::csp::variable_for)
            .collect();
        let src = format!("({}) / {n}", vars.join(" + "));
        let p = Program::compile(&src).unwrap();
        assert_eq!(p.source(), src.as_str());
        assert_eq!(p.inputs(), vars);
    });
}

/// Elvis and ternary agree where both apply.
#[test]
fn elvis_matches_ternary() {
    run_cases("elvis_matches_ternary", 256, |g| {
        let x = g.i64_in(-100, 100);
        let fallback = g.i64_in(-100, 100);
        let elvis = Program::compile("x ?: f")
            .unwrap()
            .eval_with([("x", x), ("f", fallback)])
            .unwrap();
        let ternary = Program::compile("x != 0 ? x : f")
            .unwrap()
            .eval_with([("x", x), ("f", fallback)])
            .unwrap();
        assert_eq!(elvis, ternary);
    });
}

/// The lab signals hold their two terms inline (`Signal::DiurnalWalk`).
/// Each must equal its diurnal and its random walk evaluated as signals of
/// their own and summed, diurnal first, as the boxed two-term sum they
/// replaced did: bit for bit, with the same draws taken from the rng. The
/// terms are spelled out here, so a changed parameter fails too.
#[test]
fn lab_signals_equal_their_terms_summed() {
    let temperature = (
        Diurnal {
            mean: 21.5,
            amplitude: 1.5,
            period_s: 86_400.0,
            phase_s: 0.0,
        },
        RandomWalk {
            start: 0.0,
            step: 0.05,
            min: -1.0,
            max: 1.0,
        },
    );
    let humidity = (
        Diurnal {
            mean: 45.0,
            amplitude: 10.0,
            period_s: 86_400.0,
            phase_s: 43_200.0,
        },
        RandomWalk {
            start: 0.0,
            step: 0.3,
            min: -5.0,
            max: 5.0,
        },
    );
    for (signal, (diurnal, walk)) in [
        (Signal::lab_temperature(), temperature),
        (Signal::lab_humidity(), humidity),
    ] {
        let (diurnal, walk) = (Signal::Diurnal(diurnal), Signal::RandomWalk(walk));
        for seed in [1, 7, 42] {
            let (mut rng, mut reference_rng) = (SimRng::new(seed), SimRng::new(seed));
            let mut state = SignalState::default();
            let (mut diurnal_state, mut walk_state) = Default::default();
            for i in 0..10_000u64 {
                // 37 s apart: four and a bit days, off the diurnal's grid.
                let now = SimTime(i * 37_000_000_000);
                let got = signal.value_at(now, &mut state, &mut rng);
                let want = diurnal.value_at(now, &mut diurnal_state, &mut reference_rng)
                    + walk.value_at(now, &mut walk_state, &mut reference_rng);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{signal:?} seed {seed} @ {i}"
                );
            }
            assert_eq!(rng.next_u64(), reference_rng.next_u64(), "draws taken");
        }
    }
}
