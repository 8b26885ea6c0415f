//! Property tests for the expression language: deterministic evaluation,
//! algebraic identities, and budget behaviour (total parsing is pinned in
//! the root package's `tests/expr_parser.rs`). Driven by the
//! deterministic harness in `sensorcer_sim::check`.

use sensorcer_sim::check::run_cases;

use sensorcer_expr::{eval_str, parse, CompiledScript, Program, Value};

/// Same source + same bindings = same value (the CSP relies on this).
#[test]
fn evaluation_is_deterministic() {
    run_cases("evaluation_is_deterministic", 128, |g| {
        let a = g.f64_in(-1e6, 1e6);
        let b = g.f64_in(-1e6, 1e6);
        let p = Program::compile("(a + b) * (a - b) + max(a, b)").unwrap();
        let v1 = p.eval_with([("a", a), ("b", b)]).unwrap();
        let v2 = p.eval_with([("a", a), ("b", b)]).unwrap();
        assert_eq!(v1, v2);
    });
}

/// Operator precedence: the parser agrees with explicit parentheses.
#[test]
fn precedence_matches_parentheses() {
    run_cases("precedence_matches_parentheses", 128, |g| {
        let a = g.i64_in(-100, 100);
        let b = g.i64_in(-100, 100);
        let c = g.i64_in(-100, 100);
        let flat = Program::compile("a + b * c - a")
            .unwrap()
            .eval_with([("a", a), ("b", b), ("c", c)])
            .unwrap();
        let parens = Program::compile("(a + (b * c)) - a")
            .unwrap()
            .eval_with([("a", a), ("b", b), ("c", c)])
            .unwrap();
        assert_eq!(flat, parens);
    });
}

/// Addition commutes and multiplication distributes for integers.
#[test]
fn integer_algebra() {
    run_cases("integer_algebra", 128, |g| {
        let a = g.i64_in(-1000, 1000);
        let b = g.i64_in(-1000, 1000);
        let c = g.i64_in(-1000, 1000);
        let ev = |src: &str| {
            Program::compile(src)
                .unwrap()
                .eval_with([("a", a), ("b", b), ("c", c)])
                .unwrap()
        };
        assert_eq!(ev("a + b"), ev("b + a"));
        assert_eq!(ev("a * (b + c)"), ev("a*b + a*c"));
        assert_eq!(ev("-(a)"), Value::Int(-a));
    });
}

/// Builtins agree with std: min/max/abs.
#[test]
fn builtins_match_std() {
    run_cases("builtins_match_std", 128, |g| {
        let a = g.f64_in(-1e9, 1e9);
        let b = g.f64_in(-1e9, 1e9);
        let ev = |src: &str| {
            Program::compile(src)
                .unwrap()
                .eval_with([("a", a), ("b", b)])
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert_eq!(ev("min(a, b)"), a.min(b));
        assert_eq!(ev("max(a, b)"), a.max(b));
        assert_eq!(ev("abs(a)"), a.abs());
    });
}

/// avg over a literal list equals the arithmetic mean.
#[test]
fn avg_matches_mean() {
    run_cases("avg_matches_mean", 96, |g| {
        let xs = g.vec_of(1, 19, |g| g.f64_in(-1e4, 1e4));
        let list = xs
            .iter()
            .map(|x| format!("{x:?}"))
            .collect::<Vec<_>>()
            .join(", ");
        let src = format!("avg([{list}])");
        let v = eval_str(&src).unwrap();
        let want = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((v.as_f64().unwrap() - want).abs() < 1e-6, "{v} vs {want}");
    });
}

/// Budget monotonicity: succeeding under budget B implies succeeding
/// under any larger budget with the same value. A sum over variables, so
/// nothing folds and every node costs a step.
#[test]
fn budget_is_monotone() {
    run_cases("budget_is_monotone", 32, |g| {
        let n = g.usize_in(1, 20);
        let src = (0..n)
            .map(|i| format!("x{i}"))
            .collect::<Vec<_>>()
            .join(" + ");
        let script = CompiledScript::lower(&parse(&src).unwrap());
        let eval = |budget: u64| {
            let mut frame: Vec<Option<Value>> =
                (0..n).map(|i| Some(Value::Int(i as i64))).collect();
            script.eval_slots(&mut frame, budget)
        };
        // Find the minimal budget by scanning.
        let need = (1..200)
            .find(|&b| eval(b).is_ok())
            .expect("some budget suffices");
        assert_eq!(need, 2 * n as u64 - 1, "one step per node");
        let small = eval(need).unwrap();
        let large = eval(need * 10).unwrap();
        assert_eq!(small, large);
        assert!(eval(need - 1).is_err(), "need was minimal");
    });
}

/// String round trip: concatenation length is additive in chars.
#[test]
fn string_concat_lengths() {
    run_cases("string_concat_lengths", 128, |g| {
        let a: String = (0..g.usize_in(0, 21))
            .map(|_| (g.u64_in(0, 26) as u8 + b'a') as char)
            .collect();
        let b: String = (0..g.usize_in(0, 21))
            .map(|_| (g.u64_in(0, 26) as u8 + b'a') as char)
            .collect();
        let p = Program::compile("len(a + b)").unwrap();
        let v = p.eval_with([("a", a.as_str()), ("b", b.as_str())]).unwrap();
        assert_eq!(v, Value::Int((a.len() + b.len()) as i64));
    });
}

/// Free-variable analysis is complete: evaluation succeeds with
/// exactly the reported inputs bound, and fails if one is missing.
#[test]
fn inputs_are_necessary_and_sufficient() {
    run_cases("inputs_are_necessary_and_sufficient", 32, |g| {
        let n = g.usize_in(1, 8);
        let vars: Vec<String> = (0..n).map(|i| format!("x{i}")).collect();
        let src = vars.join(" + ");
        let p = Program::compile(&src).unwrap();
        assert_eq!(p.inputs(), vars.clone());
        // Sufficient:
        let bound: Vec<(String, f64)> = vars.iter().map(|v| (v.clone(), 1.0)).collect();
        assert!(p.eval_with(bound).is_ok());
        // Necessary: drop the last binding.
        let partial: Vec<(String, f64)> =
            vars.iter().take(n - 1).map(|v| (v.clone(), 1.0)).collect();
        assert!(p.eval_with(partial).is_err());
    });
}

/// Comparison operators form a coherent order on integers.
#[test]
fn comparisons_coherent() {
    run_cases("comparisons_coherent", 128, |g| {
        let a = g.i64_in(-1000, 1000);
        let b = g.i64_in(-1000, 1000);
        let ev = |src: &str| {
            Program::compile(src)
                .unwrap()
                .eval_with([("a", a), ("b", b)])
                .unwrap()
        };
        let lt = ev("a < b") == Value::Bool(true);
        let eq = ev("a == b") == Value::Bool(true);
        let gt = ev("a > b") == Value::Bool(true);
        assert_eq!([lt, eq, gt].iter().filter(|x| **x).count(), 1, "trichotomy");
        assert_eq!(ev("a <= b"), Value::Bool(lt || eq));
        assert_eq!(ev("a >= b"), Value::Bool(gt || eq));
        assert_eq!(ev("a != b"), Value::Bool(!eq));
    });
}
