//! Compiled, reusable compute-expressions.
//!
//! A composite sensor provider stores its expression once and evaluates it
//! on every read with fresh variable bindings. [`Program`] keeps the
//! slot-compiled form so the per-read cost is evaluation only (B6 measures
//! the difference).

use crate::compiled::{CompiledScript, SlotFrame, DEFAULT_STEP_BUDGET};
use crate::error::ExprError;
use crate::parser::parse;
use crate::value::Value;

/// A parsed expression/script ready for repeated evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    source: String,
    compiled: CompiledScript,
}

impl Program {
    /// Parse `source` into a reusable program.
    pub fn compile(source: &str) -> Result<Program, ExprError> {
        let compiled = CompiledScript::lower(&parse(source)?);
        Ok(Program {
            source: source.to_string(),
            compiled,
        })
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Input variables the program needs (free variables not assigned by
    /// an earlier statement), in first-use order.
    pub fn inputs(&self) -> Vec<String> {
        self.compiled.slot_names()[..self.compiled.n_inputs()].to_vec()
    }

    /// Evaluate with named values convertible into [`Value`]s.
    pub fn eval_with<I, K, V>(&self, bindings: I) -> Result<Value, ExprError>
    where
        I: IntoIterator<Item = (K, V)>,
        K: Into<String>,
        V: Into<Value>,
    {
        let mut frame = SlotFrame::new();
        let slots = frame.reset(self.compiled.n_slots());
        for (k, v) in bindings {
            let k: String = k.into();
            if let Some(i) = self.compiled.slot_of(&k) {
                slots[i] = Some(v.into());
            }
        }
        self.compiled.eval_slots(slots, DEFAULT_STEP_BUDGET)
    }

    /// Evaluate with the given input bindings.
    ///
    /// This is the composite sensor provider's per-read entry point: the
    /// program is compiled once, and every read binds fresh child values
    /// into a flat slot frame — no `BTreeMap` scope, no per-variable
    /// allocation. Names that the program never mentions are ignored;
    /// inputs left unbound error only if evaluation actually reads them.
    pub fn bind(&self, bindings: &[(&str, Value)]) -> Result<Value, ExprError> {
        self.bind_in(bindings, &mut SlotFrame::new())
    }

    /// Like [`Program::bind`], reusing a caller-held [`SlotFrame`] so
    /// repeated reads allocate nothing.
    pub fn bind_in(
        &self,
        bindings: &[(&str, Value)],
        frame: &mut SlotFrame,
    ) -> Result<Value, ExprError> {
        let slots = frame.reset(self.compiled.n_slots());
        let names = self.compiled.slot_names();
        for (i, (name, v)) in bindings.iter().enumerate() {
            // Callers that bind inputs in declaration order (the CSP does)
            // hit the aligned slot directly; anything else falls back to a
            // name scan.
            let slot = if i < names.len() && names[i] == *name {
                Some(i)
            } else {
                self.compiled.slot_of(name)
            };
            if let Some(s) = slot {
                slots[s] = Some(v.clone());
            }
        }
        self.compiled.eval_slots(slots, DEFAULT_STEP_BUDGET)
    }

    /// Check that every input variable is covered by `available` names;
    /// returns the missing ones. The CSP uses this to reject an expression
    /// that references variables beyond its bound children.
    pub fn missing_inputs(&self, available: &[&str]) -> Vec<String> {
        self.inputs()
            .into_iter()
            .filter(|need| !available.contains(&need.as_str()))
            .collect()
    }
}

/// One-shot convenience: parse and evaluate in a single call.
pub fn eval_str(source: &str) -> Result<Value, ExprError> {
    Program::compile(source)?.bind(&[])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_once_eval_many() {
        let p = Program::compile("(a + b + c)/3").unwrap();
        assert_eq!(p.inputs(), vec!["a", "b", "c"]);
        let v1 = p.eval_with([("a", 1.0), ("b", 2.0), ("c", 3.0)]).unwrap();
        assert_eq!(v1, Value::Float(2.0));
        let v2 = p
            .eval_with([("a", 10.0), ("b", 20.0), ("c", 30.0)])
            .unwrap();
        assert_eq!(v2, Value::Float(20.0));
    }

    #[test]
    fn missing_inputs_detected() {
        let p = Program::compile("(a + b)/2").unwrap();
        assert!(p.missing_inputs(&["a", "b"]).is_empty());
        assert_eq!(p.missing_inputs(&["a"]), vec!["b".to_string()]);
        assert_eq!(
            p.missing_inputs(&[]),
            vec!["a".to_string(), "b".to_string()]
        );
    }

    #[test]
    fn locals_are_not_inputs() {
        let p = Program::compile("t = a + b; t / n").unwrap();
        assert_eq!(p.inputs(), vec!["a", "b", "n"]);
    }

    #[test]
    fn eval_str_one_shot() {
        assert_eq!(eval_str("6 * 7").unwrap(), Value::Int(42));
        assert!(eval_str("6 *").is_err());
        assert!(eval_str("x + 1").is_err(), "unbound variable");
    }

    // The language's expected values: the root-level differential suite
    // checks that the evaluator and the reference interpreter agree, these
    // pin what they agree on.

    fn eval(src: &str) -> Value {
        eval_str(src).unwrap()
    }

    #[test]
    fn paper_nested_average() {
        // §VI step 5: average of a composite and an elementary value.
        let p = Program::compile("(a + b)/2").unwrap();
        let v = p.bind(&[("a", Value::Float(23.0)), ("b", Value::Float(25.0))]);
        assert_eq!(v.unwrap(), Value::Float(24.0));
    }

    #[test]
    fn arithmetic_precedence() {
        assert_eq!(eval("1 + 2 * 3"), Value::Int(7));
        assert_eq!(eval("(1 + 2) * 3"), Value::Int(9));
        assert_eq!(eval("2 ** 3 ** 2"), Value::Int(512));
        assert_eq!(eval("10 % 3"), Value::Int(1));
        assert_eq!(
            eval("-2 ** 2"),
            Value::Int(4),
            "unary binds tighter: (-2)**2"
        );
    }

    #[test]
    fn comparison_and_logic() {
        assert_eq!(eval("1 < 2 && 2 < 3"), Value::Bool(true));
        assert_eq!(eval("1 > 2 || 3 > 2"), Value::Bool(true));
        assert_eq!(eval("!0"), Value::Bool(true));
        assert_eq!(eval("1 == 1.0"), Value::Bool(true));
        assert_eq!(eval("'a' != 'b'"), Value::Bool(true));
    }

    #[test]
    fn short_circuit_avoids_errors() {
        // The right side would be a division by zero; && must not reach it.
        assert_eq!(eval("false && 1/0"), Value::Bool(false));
        assert_eq!(eval("true || 1/0"), Value::Bool(true));
        assert!(matches!(
            eval_str("true && 1/0"),
            Err(ExprError::DivisionByZero)
        ));
    }

    #[test]
    fn ternary_and_elvis() {
        assert_eq!(eval("5 > 3 ? 'yes' : 'no'"), Value::from("yes"));
        assert_eq!(eval("0 ?: 42"), Value::Int(42));
        assert_eq!(eval("7 ?: 42"), Value::Int(7));
        assert_eq!(eval("null ?: 'fallback'"), Value::from("fallback"));
    }

    #[test]
    fn statements_and_locals() {
        assert_eq!(eval("t = 4; t * t"), Value::Int(16));
        assert_eq!(eval("def x = 1; def y = 2; x + y"), Value::Int(3));
        assert_eq!(eval("x = 1; x = x + 1; x"), Value::Int(2));
        assert_eq!(eval("result = 6 * 7"), Value::Int(42));
    }

    #[test]
    fn collections() {
        assert_eq!(eval("[1, 2, 3][1]"), Value::Int(2));
        assert_eq!(eval("[x: 5]['x']"), Value::Int(5));
        assert_eq!(eval("avg([1, 2, 3])"), Value::Float(2.0));
        assert_eq!(eval("len([1, 2] + [3])"), Value::Int(3));
        assert_eq!(eval("[t: 20.5]['missing']"), Value::Null);
    }

    #[test]
    fn builtin_calls() {
        assert_eq!(eval("max(1, 2.5, 2)"), Value::Float(2.5));
        assert_eq!(eval("round(sqrt(2) * 100) / 100"), Value::Float(1.41));
        assert_eq!(eval("clamp(150, 0, 100)"), Value::Float(100.0));
    }

    #[test]
    fn undefined_names_error() {
        assert!(matches!(
            eval_str("nope"),
            Err(ExprError::UndefinedVariable { .. })
        ));
        assert!(matches!(
            eval_str("nope()"),
            Err(ExprError::UndefinedFunction { .. })
        ));
    }

    #[test]
    fn string_work() {
        assert_eq!(eval("'T=' + 21.5"), Value::from("T=21.5"));
        assert_eq!(eval("'ab' * 3"), Value::from("ababab"));
        assert_eq!(eval("'hello'[1]"), Value::from("e"));
        assert_eq!(eval("str(1 + 2) + '!'"), Value::from("3!"));
    }

    #[test]
    fn source_round_trip() {
        let src = "max(a, b) - min(a, b)";
        let p = Program::compile(src).unwrap();
        assert_eq!(p.source(), src);
        let v = p.eval_with([("a", 3i64), ("b", 9i64)]).unwrap();
        assert_eq!(v, Value::Float(6.0));
    }

    #[test]
    fn compile_errors_surface() {
        assert!(Program::compile("(").is_err());
        assert!(Program::compile("").is_err());
    }
}
