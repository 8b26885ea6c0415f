//! Cross-crate property tests: invariants that must hold for arbitrary
//! inputs, spanning the expression language, the composite algebra, the
//! wire codec and the simulated/local execution modes. Driven by the
//! deterministic harness in `sensorcer_sim::check`.

use std::sync::Arc;

use sensorcer_suite::sim::check::{run_cases, Gen};

use sensorcer_suite::core::local::{LocalFederation, LocalNode, LocalReadError};
use sensorcer_suite::expr::{Program, Value};
use sensorcer_suite::sensors::prelude::{
    Battery, ScriptedProbe, Signal, SimulatedProbe, Teds, Unit,
};
use sensorcer_suite::sim::rng::SimRng;
use sensorcer_suite::sim::wire::{WireDecode, WireEncode};

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

/// A generated local tree: composites average their children; a leaf
/// reads a constant, or fails with a dead battery when `fails`.
enum Shape {
    Leaf { value: f64, fails: bool },
    Node(Vec<Shape>),
}

/// A composite `depth` (1–3) levels deep with fan-out 1–8, each leaf
/// failing with probability `fail_p`.
fn shape(g: &mut Gen, depth: usize, fail_p: f64) -> Shape {
    Shape::Node(g.vec_of(1, 8, |g| {
        if depth > 1 && g.bool() {
            shape(g, depth - 1, fail_p)
        } else {
            Shape::Leaf {
                value: g.f64_in(-50.0, 100.0),
                fails: g.chance(fail_p),
            }
        }
    }))
}

fn build(s: &Shape, name: String) -> Arc<LocalNode> {
    match s {
        Shape::Leaf {
            value,
            fails: false,
        } => LocalNode::sensor(
            name,
            Box::new(ScriptedProbe::new(vec![*value], Unit::Celsius)),
        ),
        Shape::Leaf { fails: true, .. } => {
            let dead = SimulatedProbe::new(
                Teds::sunspot_temperature("dead"),
                Signal::Constant(0.0),
                SimRng::new(1),
            )
            .with_battery(Battery::new(1.0, 100.0, 0.0));
            LocalNode::sensor(name, Box::new(dead))
        }
        Shape::Node(children) => {
            let children = children
                .iter()
                .enumerate()
                .map(|(i, c)| build(c, format!("{name}.{i}")))
                .collect();
            LocalNode::composite(name, children, None).unwrap()
        }
    }
}

/// The expected read: the nested average, or the name of the first
/// failing leaf in depth-first order.
fn reference(s: &Shape, name: String) -> Result<f64, String> {
    match s {
        Shape::Leaf { value, fails } => {
            if *fails {
                Err(name)
            } else {
                Ok(*value)
            }
        }
        Shape::Node(children) => {
            let mut sum = 0.0;
            for (i, c) in children.iter().enumerate() {
                sum += reference(c, format!("{name}.{i}"))?;
            }
            Ok(sum / children.len() as f64)
        }
    }
}

/// A generated composite tree reads the nested mean, or fails naming its
/// first failing leaf in depth-first order — sequentially, and in
/// parallel on any thread count with exactly the sequential result.
#[test]
fn local_composite_average() {
    run_cases("local_composite_average", 48, |g| {
        let fail_p = *g.pick(&[0.0, 0.03, 0.3]);
        let depth = g.usize_in(1, 4);
        let tree = shape(g, depth, fail_p);
        let want = reference(&tree, "root".into());
        let seq = LocalFederation::new(build(&tree, "root".into())).read_sequential();
        match (&seq, &want) {
            (Ok(v), Ok(w)) => assert!((v - w).abs() < 1e-9, "{v} vs {w}"),
            (Err(LocalReadError::Probe { sensor, .. }), Err(w)) => assert_eq!(sensor, w),
            _ => panic!("sequential {seq:?}, reference {want:?}"),
        }
        for threads in [1, 2, 3, 8] {
            let par = LocalFederation::new(build(&tree, "root".into())).read_parallel(threads);
            assert_eq!(par, seq, "{threads} threads");
        }
    });
}

/// Wire codec round-trips arbitrary strings and numeric vectors.
#[test]
fn wire_round_trip_strings() {
    run_cases("wire_round_trip_strings", 256, |g| {
        let s = g.ascii_string(64);
        let mut wire = s.to_wire();
        assert_eq!(String::decode(&mut wire).unwrap(), s);
    });
}

#[test]
fn wire_round_trip_f64_vec() {
    run_cases("wire_round_trip_f64_vec", 256, |g| {
        let xs = g.vec_of(0, 32, |g| g.f64_in(-1e12, 1e12));
        let mut wire = xs.to_wire();
        let back = Vec::<f64>::decode(&mut wire).unwrap();
        assert_eq!(back, xs);
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
