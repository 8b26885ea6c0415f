//! Differential test: the slot-compiled evaluator — the only one the
//! `sensorcer-expr` build carries — must agree with a tree-walking
//! reference interpreter on every expression: same values, same errors,
//! including short-circuit behaviour that hides erroring subtrees. The
//! corpus is the interpreter's former unit-test corpus plus randomized
//! expression trees from the deterministic check harness.

#[path = "support/expr_interp.rs"]
mod interp;

use interp::{eval_script_with_budget, Scope};
use sensorcer_suite::expr::{
    parse, BinOp, CompiledScript, Expr, ExprError, Program, Script, SlotFrame, Stmt, UnOp, Value,
    DEFAULT_STEP_BUDGET,
};
use sensorcer_suite::sim::check::{run_cases, Gen};

/// Evaluate through the tree-walking interpreter only.
fn interp(src: &str, bindings: &[(&str, Value)]) -> Result<Value, ExprError> {
    let script = parse(src)?;
    let mut scope: Scope = bindings
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    eval_script_with_budget(&script, &mut scope, DEFAULT_STEP_BUDGET)
}

/// Evaluate through the slot-compiled path only.
fn compiled(src: &str, bindings: &[(&str, Value)]) -> Result<Value, ExprError> {
    Program::compile(src)?.bind(bindings)
}

/// Equality that also identifies NaN with NaN (a random float corpus can
/// legitimately produce NaN on both paths).
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x == y || (x.is_nan() && y.is_nan()),
        (Value::List(xs), Value::List(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys.iter()).all(|(x, y)| same_value(x, y))
        }
        (Value::Map(xs), Value::Map(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((ka, va), (kb, vb))| ka == kb && same_value(va, vb))
        }
        _ => a == b,
    }
}

fn assert_agree(src: &str, bindings: &[(&str, Value)]) {
    let a = interp(src, bindings);
    let b = compiled(src, bindings);
    match (&a, &b) {
        (Ok(x), Ok(y)) if same_value(x, y) => {}
        (Err(x), Err(y)) if x == y => {}
        _ => panic!(
            "paths diverge on {src:?} with {bindings:?}:\n  interp:   {a:?}\n  compiled: {b:?}"
        ),
    }
}

/// The composite binds its readings through `Program::bind_iter_in` into
/// a frame shared by every composite read at one nesting depth. With
/// `frame` reused across programs of any slot count, and the bindings in
/// either order, it must give what `bind_in` gives on a fresh frame.
fn assert_iter_bind_agrees(src: &str, bindings: &[(&str, Value)], frame: &mut SlotFrame) {
    let Ok(program) = Program::compile(src) else {
        return;
    };
    let want = program.bind_in(bindings, &mut SlotFrame::new());
    let forward = bindings.iter().map(|(k, v)| (*k, v.clone()));
    let reversed = bindings.iter().rev().map(|(k, v)| (*k, v.clone()));
    for got in [
        program.bind_iter_in(forward, frame),
        program.bind_iter_in(reversed, frame),
    ] {
        match (&want, &got) {
            (Ok(x), Ok(y)) if same_value(x, y) => {}
            (Err(x), Err(y)) if x == y => {}
            _ => panic!("binds diverge on {src:?} with {bindings:?}:\n  bind_in:      {want:?}\n  bind_iter_in: {got:?}"),
        }
    }
}

#[test]
fn interp_test_corpus_agrees() {
    let f = |x: f64| Value::Float(x);
    let i = |x: i64| Value::Int(x);
    // Every evaluation the interpreter's unit tests made while it was a
    // production path, verbatim.
    let cases: &[(&str, &[(&str, Value)])] = &[
        (
            "(a + b + c)/3",
            &[("a", f(20.0)), ("b", f(22.0)), ("c", f(27.0))],
        ),
        ("(a + b)/2", &[("a", f(23.0)), ("b", f(25.0))]),
        ("1 + 2 * 3", &[]),
        ("(1 + 2) * 3", &[]),
        ("2 ** 3 ** 2", &[]),
        ("10 % 3", &[]),
        ("-2 ** 2", &[]),
        ("1 < 2 && 2 < 3", &[]),
        ("1 > 2 || 3 > 2", &[]),
        ("!0", &[]),
        ("1 == 1.0", &[]),
        ("'a' != 'b'", &[]),
        ("false && 1/0", &[]),
        ("true || 1/0", &[]),
        ("true && 1/0", &[]),
        ("5 > 3 ? 'yes' : 'no'", &[]),
        ("0 ?: 42", &[]),
        ("7 ?: 42", &[]),
        ("null ?: 'fallback'", &[]),
        ("t = 4; t * t", &[]),
        ("def x = 1; def y = 2; x + y", &[]),
        ("x = 1; x = x + 1; x", &[]),
        ("[1, 2, 3][1]", &[]),
        ("[x: 5]['x']", &[]),
        ("avg([1, 2, 3])", &[]),
        ("len([1, 2] + [3])", &[]),
        ("[t: 20.5]['missing']", &[]),
        ("max(1, 2.5, 2)", &[]),
        ("round(sqrt(2) * 100) / 100", &[]),
        ("clamp(150, 0, 100)", &[]),
        ("nope", &[]),
        ("nope()", &[]),
        ("'T=' + 21.5", &[]),
        ("'ab' * 3", &[]),
        ("'hello'[1]", &[]),
        ("str(1 + 2) + '!'", &[]),
        ("result = 6 * 7", &[]),
        // Error-path and edge additions beyond the interp corpus.
        ("1/0", &[]),
        ("1 % 0", &[]),
        ("a / b", &[("a", i(1)), ("b", i(0))]),
        ("'a' - 1", &[]),
        ("[1, 2][5]", &[]),
        ("[1, 2][-1]", &[]),
        ("null < 1", &[]),
        ("min()", &[]),
        ("sqrt('no')", &[]),
        ("x ?: 1/0", &[("x", i(0))]),
        ("x ?: 1/0", &[("x", i(9))]),
        ("x && 1/0", &[("x", Value::Bool(false))]),
        ("x || 1/0", &[("x", Value::Bool(true))]),
        ("x ? 1/0 : 5", &[("x", Value::Bool(false))]),
        ("missing + 1", &[]),
        ("t = q; 7", &[]),
        ("[a, [b, 2], 'x']", &[("a", i(1)), ("b", i(2))]),
        ("[k: a, j: 1 + 2]", &[("a", i(4))]),
        ("u = a + 1; v = u * 2; u + v", &[("a", i(3))]),
        ("-x", &[("x", f(2.5))]),
        ("!x", &[("x", Value::Null)]),
        ("median(3, 1, 2)", &[]),
        ("stddev(1)", &[]),
        ("int('12')", &[]),
        ("int('nope')", &[]),
        ("first([])", &[]),
    ];
    let mut frame = SlotFrame::new();
    for (src, bindings) in cases {
        assert_agree(src, bindings);
        assert_iter_bind_agrees(src, bindings, &mut frame);
    }
}

/// Random statement lists over a small grammar: both paths must agree on
/// value or error for every generated script.
#[test]
fn random_scripts_agree() {
    let mut frame = SlotFrame::new();
    run_cases("random_scripts_agree", 192, |g| {
        let script = gen_script(g);
        let src = render_script(&script);
        // Re-parse to guarantee the rendered source is what both paths
        // see (and that rendering is valid syntax).
        let reparsed = parse(&src).unwrap_or_else(|e| panic!("render broke {src:?}: {e}"));
        assert_eq!(reparsed, script, "render must round-trip: {src}");
        let bindings: Vec<(&str, Value)> = [
            ("a", Value::Float(g.f64_in(-100.0, 100.0))),
            ("b", Value::Int(g.i64() % 1000)),
            ("c", Value::Bool(g.bool())),
        ]
        .into_iter()
        // Leave some inputs unbound sometimes so UndefinedVariable paths
        // are exercised too.
        .filter(|_| g.u64_in(0, 10) > 0)
        .collect();
        assert_agree(&src, &bindings);
        assert_iter_bind_agrees(&src, &bindings, &mut frame);
    });
}

/// The step budget is exact and monotone. Under any budget a generated
/// program returns what it returns unbudgeted — value or error — or
/// exactly `BudgetExhausted { steps: budget }`; once a budget suffices,
/// every larger one does; nothing panics.
#[test]
fn step_budget_is_exact_and_monotone() {
    run_cases("step_budget_is_exact_and_monotone", 192, |g| {
        let compiled = CompiledScript::lower(&gen_script(g));
        let bindings = [
            ("a", Value::Float(g.f64_in(-100.0, 100.0))),
            ("b", Value::Int(g.i64() % 1000)),
            ("c", Value::Bool(g.bool())),
        ];
        let eval = |budget: u64| {
            let mut frame = vec![None; compiled.n_slots()];
            for (name, v) in &bindings {
                if let Some(slot) = compiled.slot_of(name) {
                    frame[slot] = Some(v.clone());
                }
            }
            compiled.eval_slots(&mut frame, budget)
        };
        let unbudgeted = eval(u64::MAX);
        let agrees = |got: &Result<Value, ExprError>| match (got, &unbudgeted) {
            (Ok(x), Ok(y)) => same_value(x, y),
            (got, want) => got == want,
        };
        let mut enough = None;
        for budget in 0..=1_000u64 {
            match eval(budget) {
                Err(ExprError::BudgetExhausted { steps }) if enough.is_none() => {
                    assert_eq!(steps, budget);
                }
                got => {
                    assert!(agrees(&got), "budget {budget}: {got:?} vs {unbudgeted:?}");
                    enough.get_or_insert(budget);
                }
            }
            if enough.is_some_and(|least| budget >= least + 8) {
                break;
            }
        }
        let least = enough.expect("a generated program runs in 1 000 steps");
        let larger = least + g.u64_in(0, 1 << 20);
        assert!(agrees(&eval(larger)), "budget {larger}");
    });
}

fn gen_script(g: &mut Gen) -> Script {
    let n = g.usize_in(1, 4);
    let mut stmts = Vec::new();
    for i in 0..n {
        if i + 1 < n && g.bool() {
            let name = ["t", "u", "a"][g.usize_in(0, 3)];
            stmts.push(Stmt::Assign(name.to_string(), gen_expr(g, 3)));
        } else {
            stmts.push(Stmt::Expr(gen_expr(g, 3)));
        }
    }
    Script { stmts }
}

fn gen_expr(g: &mut Gen, depth: usize) -> Expr {
    if depth == 0 || g.u64_in(0, 4) == 0 {
        // Only non-negative numeric literals: they render and re-parse to
        // the identical AST (negation is covered by Unary(Neg, ..)).
        return match g.u64_in(0, 6) {
            0 => Expr::Lit(Value::Int(g.i64_in(0, 100))),
            1 => Expr::Lit(Value::Float(g.f64_in(0.0, 50.0))),
            2 => Expr::Lit(Value::Bool(g.bool())),
            3 => Expr::Lit(Value::Null),
            4 => Expr::Var(["a", "b", "c", "t", "u"][g.usize_in(0, 5)].to_string()),
            _ => Expr::Lit(Value::Int(0)),
        };
    }
    match g.u64_in(0, 8) {
        0..=2 => {
            let ops = [
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
                BinOp::Rem,
                BinOp::Eq,
                BinOp::Lt,
                BinOp::And,
                BinOp::Or,
            ];
            Expr::Binary(
                ops[g.usize_in(0, ops.len())],
                Box::new(gen_expr(g, depth - 1)),
                Box::new(gen_expr(g, depth - 1)),
            )
        }
        3 => Expr::Unary(
            if g.bool() { UnOp::Neg } else { UnOp::Not },
            Box::new(gen_expr(g, depth - 1)),
        ),
        4 => Expr::Ternary(
            Box::new(gen_expr(g, depth - 1)),
            Box::new(gen_expr(g, depth - 1)),
            Box::new(gen_expr(g, depth - 1)),
        ),
        5 => Expr::Elvis(
            Box::new(gen_expr(g, depth - 1)),
            Box::new(gen_expr(g, depth - 1)),
        ),
        6 => {
            let name = ["avg", "max", "min", "abs", "len"][g.usize_in(0, 5)];
            let n_args = g.usize_in(1, 3);
            Expr::Call(
                name.to_string(),
                (0..n_args).map(|_| gen_expr(g, depth - 1)).collect(),
            )
        }
        _ => {
            let n = g.usize_in(0, 3);
            Expr::ListLit((0..n).map(|_| gen_expr(g, depth - 1)).collect())
        }
    }
}

fn render_script(s: &Script) -> String {
    s.stmts
        .iter()
        .map(|st| match st {
            Stmt::Assign(n, e) => format!("{n} = {}", render(e)),
            Stmt::Expr(e) => render(e),
        })
        .collect::<Vec<_>>()
        .join("; ")
}

fn render(e: &Expr) -> String {
    match e {
        Expr::Lit(Value::Null) => "null".into(),
        Expr::Lit(Value::Bool(b)) => b.to_string(),
        Expr::Lit(Value::Int(i)) => {
            assert!(*i >= 0, "generator emits non-negative ints only");
            i.to_string()
        }
        Expr::Lit(Value::Float(f)) => {
            assert!(*f >= 0.0, "generator emits non-negative floats only");
            format!("{f:?}")
        }
        Expr::Lit(v) => panic!("generator does not emit literal {v:?}"),
        Expr::Var(n) => n.clone(),
        Expr::ListLit(xs) => {
            format!("[{}]", xs.iter().map(render).collect::<Vec<_>>().join(", "))
        }
        Expr::MapLit(_) => panic!("generator does not emit map literals"),
        Expr::Unary(UnOp::Neg, e) => format!("(-{})", render(e)),
        Expr::Unary(UnOp::Not, e) => format!("(!{})", render(e)),
        Expr::Binary(op, a, b) => format!("({} {} {})", render(a), op.symbol(), render(b)),
        Expr::Ternary(c, t, f) => {
            format!("({} ? {} : {})", render(c), render(t), render(f))
        }
        Expr::Elvis(a, b) => format!("({} ?: {})", render(a), render(b)),
        Expr::Call(n, args) => {
            format!(
                "{n}({})",
                args.iter().map(render).collect::<Vec<_>>().join(", ")
            )
        }
        Expr::Index(b, i) => format!("{}[{}]", render(b), render(i)),
    }
}
