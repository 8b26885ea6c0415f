//! Tree-walking evaluator.

use std::collections::BTreeMap;

use crate::ast::{BinOp, Expr, Script, Stmt, UnOp};
use crate::builtins::call_builtin;
use crate::error::ExprError;
use crate::value::Value;

/// Signature of a user-registered function (beyond the builtins).
pub type UserFn = Box<dyn Fn(&[Value]) -> Result<Value, ExprError> + Send + Sync>;

/// Variable bindings plus user functions for one evaluation.
///
/// A composite sensor provider creates one of these per read, binding each
/// child service variable (`a`, `b`, …) to its freshly collected value.
#[derive(Default)]
pub struct Scope {
    vars: BTreeMap<String, Value>,
    fns: BTreeMap<String, UserFn>,
}

impl Scope {
    pub fn new() -> Self {
        Scope::default()
    }

    /// Bind a variable (replacing any previous binding).
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<Value>) -> &mut Self {
        self.vars.insert(name.into(), value.into());
        self
    }

    pub fn get(&self, name: &str) -> Option<&Value> {
        self.vars.get(name)
    }

    /// Register a host function callable from expressions.
    pub fn register_fn(
        &mut self,
        name: impl Into<String>,
        f: impl Fn(&[Value]) -> Result<Value, ExprError> + Send + Sync + 'static,
    ) -> &mut Self {
        self.fns.insert(name.into(), Box::new(f));
        self
    }

    /// Names of bound variables, sorted.
    pub fn var_names(&self) -> Vec<&str> {
        self.vars.keys().map(String::as_str).collect()
    }

    /// Whether any user functions are registered (they force the
    /// tree-walking path — see [`crate::program::Program::eval`]).
    pub fn has_fns(&self) -> bool {
        !self.fns.is_empty()
    }
}

impl std::fmt::Debug for Scope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scope")
            .field("vars", &self.vars)
            .field("fns", &self.fns.keys().collect::<Vec<_>>())
            .finish()
    }
}

/// Evaluation budget: a hard cap on interpreter steps so a pathological
/// expression (deep recursion via `**`, enormous string repetition chains)
/// cannot hang a provider that accepted it from a remote requestor.
pub const DEFAULT_STEP_BUDGET: u64 = 1_000_000;

/// Evaluate a whole script: statements run in order, assignments extend the
/// scope, the value of the final statement is returned.
pub fn eval_script(script: &Script, scope: &mut Scope) -> Result<Value, ExprError> {
    eval_script_with_budget(script, scope, DEFAULT_STEP_BUDGET)
}

/// Like [`eval_script`] with an explicit step budget.
pub fn eval_script_with_budget(
    script: &Script,
    scope: &mut Scope,
    budget: u64,
) -> Result<Value, ExprError> {
    let mut ev = Evaluator {
        scope,
        steps_left: budget,
        budget,
    };
    let mut last = Value::Null;
    for stmt in &script.stmts {
        last = match stmt {
            Stmt::Assign(name, e) => {
                let v = ev.eval(e)?;
                ev.scope.vars.insert(name.clone(), v.clone());
                v
            }
            Stmt::Expr(e) => ev.eval(e)?,
        };
    }
    Ok(last)
}

/// Evaluate a single expression against a scope.
pub fn eval_expr(expr: &Expr, scope: &mut Scope) -> Result<Value, ExprError> {
    let mut ev = Evaluator {
        scope,
        steps_left: DEFAULT_STEP_BUDGET,
        budget: DEFAULT_STEP_BUDGET,
    };
    ev.eval(expr)
}

struct Evaluator<'s> {
    scope: &'s mut Scope,
    steps_left: u64,
    budget: u64,
}

impl<'s> Evaluator<'s> {
    fn tick(&mut self) -> Result<(), ExprError> {
        if self.steps_left == 0 {
            return Err(ExprError::BudgetExhausted { steps: self.budget });
        }
        self.steps_left -= 1;
        Ok(())
    }

    fn eval(&mut self, expr: &Expr) -> Result<Value, ExprError> {
        self.tick()?;
        match expr {
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Var(name) => self
                .scope
                .vars
                .get(name)
                .cloned()
                .ok_or_else(|| ExprError::UndefinedVariable { name: name.clone() }),
            Expr::ListLit(items) => {
                let mut out = Vec::with_capacity(items.len());
                for e in items {
                    out.push(self.eval(e)?);
                }
                Ok(Value::List(out.into()))
            }
            Expr::MapLit(pairs) => {
                let mut out = BTreeMap::new();
                for (k, e) in pairs {
                    out.insert(k.clone(), self.eval(e)?);
                }
                Ok(Value::Map(out))
            }
            Expr::Unary(op, e) => {
                let v = self.eval(e)?;
                match op {
                    UnOp::Neg => v.neg(),
                    UnOp::Not => Ok(Value::Bool(!v.truthy())),
                }
            }
            Expr::Binary(op, a, b) => self.eval_binary(*op, a, b),
            Expr::Ternary(c, t, e) => {
                if self.eval(c)?.truthy() {
                    self.eval(t)
                } else {
                    self.eval(e)
                }
            }
            Expr::Elvis(a, b) => {
                let va = self.eval(a)?;
                if va.truthy() {
                    Ok(va)
                } else {
                    self.eval(b)
                }
            }
            Expr::Call(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for e in args {
                    vals.push(self.eval(e)?);
                }
                // User functions shadow builtins so a CSP can override e.g.
                // `avg` with a calibrated variant.
                if let Some(f) = self.scope.fns.get(name.as_str()) {
                    return f(&vals);
                }
                match call_builtin(name, &vals) {
                    Some(r) => r,
                    None => Err(ExprError::UndefinedFunction { name: name.clone() }),
                }
            }
            Expr::Index(base, idx) => {
                let b = self.eval(base)?;
                let i = self.eval(idx)?;
                b.index(&i)
            }
        }
    }

    fn eval_binary(&mut self, op: BinOp, a: &Expr, b: &Expr) -> Result<Value, ExprError> {
        // Short-circuit logic first.
        match op {
            BinOp::And => {
                let va = self.eval(a)?;
                if !va.truthy() {
                    return Ok(Value::Bool(false));
                }
                let vb = self.eval(b)?;
                return Ok(Value::Bool(vb.truthy()));
            }
            BinOp::Or => {
                let va = self.eval(a)?;
                if va.truthy() {
                    return Ok(Value::Bool(true));
                }
                let vb = self.eval(b)?;
                return Ok(Value::Bool(vb.truthy()));
            }
            _ => {}
        }
        let va = self.eval(a)?;
        let vb = self.eval(b)?;
        match op {
            BinOp::Add => va.add(&vb),
            BinOp::Sub => va.sub(&vb),
            BinOp::Mul => va.mul(&vb),
            BinOp::Div => va.div(&vb),
            BinOp::Rem => va.rem(&vb),
            BinOp::Pow => va.pow(&vb),
            BinOp::Eq => Ok(Value::Bool(va.loose_eq(&vb))),
            BinOp::Ne => Ok(Value::Bool(!va.loose_eq(&vb))),
            BinOp::Lt => Ok(Value::Bool(va.compare(&vb)? == std::cmp::Ordering::Less)),
            BinOp::Le => Ok(Value::Bool(va.compare(&vb)? != std::cmp::Ordering::Greater)),
            BinOp::Gt => Ok(Value::Bool(va.compare(&vb)? == std::cmp::Ordering::Greater)),
            BinOp::Ge => Ok(Value::Bool(va.compare(&vb)? != std::cmp::Ordering::Less)),
            BinOp::And | BinOp::Or => unreachable!("handled above"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn eval(src: &str) -> Value {
        eval_script(&parse(src).unwrap(), &mut Scope::new()).unwrap()
    }

    fn eval_with(src: &str, scope: &mut Scope) -> Value {
        eval_script(&parse(src).unwrap(), scope).unwrap()
    }

    fn eval_err(src: &str) -> ExprError {
        eval_script(&parse(src).unwrap(), &mut Scope::new()).unwrap_err()
    }

    #[test]
    fn paper_average() {
        // §VI step 2: three temperatures averaged.
        let mut scope = Scope::new();
        scope.set("a", 20.0).set("b", 22.0).set("c", 27.0);
        assert_eq!(eval_with("(a + b + c)/3", &mut scope), Value::Float(23.0));
    }

    #[test]
    fn paper_nested_average() {
        // §VI step 5: average of a composite and an elementary value.
        let mut scope = Scope::new();
        scope.set("a", 23.0).set("b", 25.0);
        assert_eq!(eval_with("(a + b)/2", &mut scope), Value::Float(24.0));
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
        assert!(matches!(eval_err("true && 1/0"), ExprError::DivisionByZero));
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
        // Re-assignment.
        assert_eq!(eval("x = 1; x = x + 1; x"), Value::Int(2));
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
    fn user_functions_shadow_builtins() {
        let mut scope = Scope::new();
        scope.register_fn("avg", |_args| Ok(Value::Int(-1)));
        assert_eq!(eval_with("avg(1, 2)", &mut scope), Value::Int(-1));
    }

    #[test]
    fn user_function_errors_propagate() {
        let mut scope = Scope::new();
        scope.register_fn("boom", |_| Err(ExprError::DivisionByZero));
        let err = eval_script(&parse("boom()").unwrap(), &mut scope).unwrap_err();
        assert!(matches!(err, ExprError::DivisionByZero));
    }

    #[test]
    fn undefined_names_error() {
        assert!(matches!(
            eval_err("nope"),
            ExprError::UndefinedVariable { .. }
        ));
        assert!(matches!(
            eval_err("nope()"),
            ExprError::UndefinedFunction { .. }
        ));
    }

    #[test]
    fn step_budget_stops_runaways() {
        let script = parse("1 + 1").unwrap();
        let err = eval_script_with_budget(&script, &mut Scope::new(), 2).unwrap_err();
        assert!(matches!(err, ExprError::BudgetExhausted { steps: 2 }));
        // Same script passes with a sane budget.
        assert!(eval_script_with_budget(&script, &mut Scope::new(), 100).is_ok());
    }

    #[test]
    fn string_work() {
        assert_eq!(eval("'T=' + 21.5"), Value::from("T=21.5"));
        assert_eq!(eval("'ab' * 3"), Value::from("ababab"));
        assert_eq!(eval("'hello'[1]"), Value::from("e"));
        assert_eq!(eval("str(1 + 2) + '!'"), Value::from("3!"));
    }

    #[test]
    fn scope_introspection() {
        let mut s = Scope::new();
        s.set("b", 1).set("a", 2);
        assert_eq!(s.var_names(), vec!["a", "b"]);
        assert_eq!(s.get("a"), Some(&Value::Int(2)));
        assert_eq!(s.get("zz"), None);
    }

    #[test]
    fn assignments_visible_to_later_reads_of_scope() {
        let mut s = Scope::new();
        eval_with("result = 6 * 7", &mut s);
        assert_eq!(s.get("result"), Some(&Value::Int(42)));
    }
}
