//! Tree-walking reference interpreter: the oracle `expr_differential.rs`
//! holds the slot-compiled evaluator against. It resolves every variable by
//! name through a `BTreeMap` and folds nothing, and it shares only the AST,
//! the builtins, `Value` and `ExprError` with the code under test.

use std::collections::BTreeMap;

use sensorcer_suite::expr::builtins::call_builtin;
use sensorcer_suite::expr::{BinOp, Expr, ExprError, Script, Stmt, UnOp, Value};

/// Variable bindings for one evaluation; assignments extend them.
pub type Scope = BTreeMap<String, Value>;

/// Evaluate a whole script under a step budget: statements run in order,
/// assignments extend the scope, the value of the final statement is
/// returned.
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
                ev.scope.insert(name.clone(), v.clone());
                v
            }
            Stmt::Expr(e) => ev.eval(e)?,
        };
    }
    Ok(last)
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
