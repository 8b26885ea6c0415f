//! Slot-compiled programs: the evaluator.
//!
//! A composite sensor provider evaluates the same expression on every
//! federated read, so a parsed [`Script`] is lowered once into a form where
//!
//! * every variable reference is an integer **slot** into a flat buffer
//!   (inputs first, in first-use order, then locals),
//! * pure literal subtrees are **constant-folded** at compile time
//!   (`2 ** 10` or `avg([1, 2, 3])` cost nothing per read), and
//! * evaluation runs against a reusable `Vec<Option<Value>>` frame with
//!   no per-variable allocation.
//!
//! Semantics are those of walking the tree statement by statement — the
//! root-level `tests/expr_differential.rs` holds a tree-walking reference
//! interpreter and checks values and errors against it; the only
//! difference is that folded subtrees consume no step budget. Subtrees
//! whose constant evaluation would *error* (`1/0`) are deliberately left
//! unfolded so errors still surface — or stay unreached behind a
//! short-circuit — at run time.

use std::collections::BTreeMap;

use crate::ast::{BinOp, Expr, Script, Stmt, UnOp};
use crate::builtins::call_builtin;
use crate::error::ExprError;
use crate::value::Value;

/// Evaluation budget: a hard cap on evaluator steps so a pathological
/// expression (deep recursion via `**`, enormous string repetition chains)
/// cannot hang a provider that accepted it from a remote requestor.
pub const DEFAULT_STEP_BUDGET: u64 = 1_000_000;

/// A lowered expression: identical shape to [`Expr`] except variables are
/// slot indices and foldable subtrees have collapsed into `Lit`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CExpr {
    Lit(Value),
    Slot(u32),
    ListLit(Vec<CExpr>),
    MapLit(Vec<(String, CExpr)>),
    Unary(UnOp, Box<CExpr>),
    Binary(BinOp, Box<CExpr>, Box<CExpr>),
    Ternary(Box<CExpr>, Box<CExpr>, Box<CExpr>),
    Elvis(Box<CExpr>, Box<CExpr>),
    Call(String, Vec<CExpr>),
    Index(Box<CExpr>, Box<CExpr>),
}

/// A lowered statement.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CStmt {
    /// `slot = expr`
    Store(u32, CExpr),
    Eval(CExpr),
}

/// A script lowered to slot form, ready for repeated evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledScript {
    stmts: Vec<CStmt>,
    /// Slot index → variable name (for error messages and binding).
    slot_names: Vec<String>,
    /// Slots `0..n_inputs` are the script's inputs, in first-use order;
    /// the rest are locals introduced by assignment.
    n_inputs: usize,
}

impl CompiledScript {
    /// Lower a parsed script: resolve names to slots, fold constants.
    pub fn lower(script: &Script) -> CompiledScript {
        let mut slots: BTreeMap<String, u32> = BTreeMap::new();
        let mut slot_names: Vec<String> = Vec::new();
        for name in script.free_vars() {
            slots.insert(name.clone(), slot_names.len() as u32);
            slot_names.push(name);
        }
        let n_inputs = slot_names.len();

        // Pre-intern assignment targets so forward structure is stable,
        // then lower statement by statement.
        let mut stmts = Vec::with_capacity(script.stmts.len());
        for stmt in &script.stmts {
            match stmt {
                Stmt::Assign(name, e) => {
                    let ce = lower_expr(e, &mut slots, &mut slot_names);
                    let slot = intern(&mut slots, &mut slot_names, name);
                    stmts.push(CStmt::Store(slot, ce));
                }
                Stmt::Expr(e) => {
                    stmts.push(CStmt::Eval(lower_expr(e, &mut slots, &mut slot_names)));
                }
            }
        }
        CompiledScript {
            stmts,
            slot_names,
            n_inputs,
        }
    }

    /// Total slot count (inputs + locals).
    pub fn n_slots(&self) -> usize {
        self.slot_names.len()
    }

    /// Input slot count; input names occupy `slot_names()[..n_inputs()]`.
    pub fn n_inputs(&self) -> usize {
        self.n_inputs
    }

    /// Slot index → variable name.
    pub fn slot_names(&self) -> &[String] {
        &self.slot_names
    }

    /// Slot for `name`, if the script mentions it anywhere.
    pub fn slot_of(&self, name: &str) -> Option<usize> {
        self.slot_names.iter().position(|n| n == name)
    }

    /// Evaluate against a slot frame. `frame` must hold exactly
    /// [`CompiledScript::n_slots`] entries; unbound inputs are `None` and
    /// error only if actually read.
    pub fn eval_slots(&self, frame: &mut [Option<Value>], budget: u64) -> Result<Value, ExprError> {
        debug_assert_eq!(frame.len(), self.n_slots());
        let mut ev = SlotEval {
            frame,
            names: &self.slot_names,
            steps_left: budget,
            budget,
        };
        let mut last = Value::Null;
        for stmt in &self.stmts {
            last = match stmt {
                CStmt::Store(slot, e) => {
                    let v = ev.eval(e)?;
                    ev.frame[*slot as usize] = Some(v.clone());
                    v
                }
                CStmt::Eval(e) => ev.eval(e)?,
            };
        }
        Ok(last)
    }
}

/// Reusable evaluation frame: one flat buffer a caller keeps across reads
/// so repeated [`Program::bind_in`](crate::Program::bind_in) calls
/// allocate nothing.
#[derive(Debug, Default, Clone)]
pub struct SlotFrame {
    slots: Vec<Option<Value>>,
}

impl SlotFrame {
    pub fn new() -> SlotFrame {
        SlotFrame::default()
    }

    /// Clear and resize for a script, returning the slot buffer. When the
    /// frame already has the right size (the reuse case) this is a plain
    /// in-place refill with no allocator traffic.
    pub(crate) fn reset(&mut self, n_slots: usize) -> &mut [Option<Value>] {
        if self.slots.len() == n_slots {
            self.slots.fill(None);
        } else {
            self.slots.clear();
            self.slots.resize(n_slots, None);
        }
        &mut self.slots
    }
}

fn intern(slots: &mut BTreeMap<String, u32>, names: &mut Vec<String>, name: &str) -> u32 {
    if let Some(&i) = slots.get(name) {
        return i;
    }
    let i = names.len() as u32;
    slots.insert(name.to_string(), i);
    names.push(name.to_string());
    i
}

fn lower_expr(e: &Expr, slots: &mut BTreeMap<String, u32>, names: &mut Vec<String>) -> CExpr {
    match e {
        Expr::Lit(v) => CExpr::Lit(v.clone()),
        Expr::Var(name) => CExpr::Slot(intern(slots, names, name)),
        Expr::ListLit(items) => {
            let lowered: Vec<CExpr> = items.iter().map(|e| lower_expr(e, slots, names)).collect();
            if let Some(vals) = all_lits(&lowered) {
                CExpr::Lit(Value::List(vals.into()))
            } else {
                CExpr::ListLit(lowered)
            }
        }
        Expr::MapLit(pairs) => {
            let lowered: Vec<(String, CExpr)> = pairs
                .iter()
                .map(|(k, e)| (k.clone(), lower_expr(e, slots, names)))
                .collect();
            if lowered.iter().all(|(_, e)| matches!(e, CExpr::Lit(_))) {
                let map = lowered
                    .into_iter()
                    .map(|(k, e)| match e {
                        CExpr::Lit(v) => (k, v),
                        _ => unreachable!(),
                    })
                    .collect();
                CExpr::Lit(Value::Map(map))
            } else {
                CExpr::MapLit(lowered)
            }
        }
        Expr::Unary(op, a) => {
            let a = lower_expr(a, slots, names);
            if let CExpr::Lit(v) = &a {
                let folded = match op {
                    UnOp::Neg => v.neg().ok(),
                    UnOp::Not => Some(Value::Bool(!v.truthy())),
                };
                if let Some(v) = folded {
                    return CExpr::Lit(v);
                }
            }
            CExpr::Unary(*op, Box::new(a))
        }
        Expr::Binary(op, a, b) => {
            let a = lower_expr(a, slots, names);
            let b = lower_expr(b, slots, names);
            fold_binary(*op, a, b)
        }
        Expr::Ternary(c, t, f) => {
            let c = lower_expr(c, slots, names);
            // Still lower both branches so their variables get slots (a
            // later statement may reference them via assignment order).
            let t = lower_expr(t, slots, names);
            let f = lower_expr(f, slots, names);
            if let CExpr::Lit(v) = &c {
                return if v.truthy() { t } else { f };
            }
            CExpr::Ternary(Box::new(c), Box::new(t), Box::new(f))
        }
        Expr::Elvis(a, b) => {
            let a = lower_expr(a, slots, names);
            let b = lower_expr(b, slots, names);
            if let CExpr::Lit(v) = &a {
                return if v.truthy() { a } else { b };
            }
            CExpr::Elvis(Box::new(a), Box::new(b))
        }
        Expr::Call(name, args) => {
            let lowered: Vec<CExpr> = args.iter().map(|e| lower_expr(e, slots, names)).collect();
            // Builtins are pure; a literal-argument call can fold — but
            // only on success, so bad calls still error at run time.
            if let Some(vals) = all_lits(&lowered) {
                if let Some(Ok(v)) = call_builtin(name, &vals) {
                    return CExpr::Lit(v);
                }
            }
            CExpr::Call(name.clone(), lowered)
        }
        Expr::Index(base, idx) => {
            let base = lower_expr(base, slots, names);
            let idx = lower_expr(idx, slots, names);
            if let (CExpr::Lit(b), CExpr::Lit(i)) = (&base, &idx) {
                if let Ok(v) = b.index(i) {
                    return CExpr::Lit(v);
                }
            }
            CExpr::Index(Box::new(base), Box::new(idx))
        }
    }
}

fn all_lits(exprs: &[CExpr]) -> Option<Vec<Value>> {
    if exprs.iter().all(|e| matches!(e, CExpr::Lit(_))) {
        Some(
            exprs
                .iter()
                .map(|e| match e {
                    CExpr::Lit(v) => v.clone(),
                    _ => unreachable!(),
                })
                .collect(),
        )
    } else {
        None
    }
}

fn fold_binary(op: BinOp, a: CExpr, b: CExpr) -> CExpr {
    use BinOp::*;
    // Short-circuit folding: a literal left side decides alone.
    if let CExpr::Lit(va) = &a {
        match op {
            And if !va.truthy() => return CExpr::Lit(Value::Bool(false)),
            Or if va.truthy() => return CExpr::Lit(Value::Bool(true)),
            _ => {}
        }
    }
    if let (CExpr::Lit(va), CExpr::Lit(vb)) = (&a, &b) {
        let folded = match op {
            Add => va.add(vb).ok(),
            Sub => va.sub(vb).ok(),
            Mul => va.mul(vb).ok(),
            Div => va.div(vb).ok(),
            Rem => va.rem(vb).ok(),
            Pow => va.pow(vb).ok(),
            Eq => Some(Value::Bool(va.loose_eq(vb))),
            Ne => Some(Value::Bool(!va.loose_eq(vb))),
            Lt => va
                .compare(vb)
                .ok()
                .map(|o| Value::Bool(o == std::cmp::Ordering::Less)),
            Le => va
                .compare(vb)
                .ok()
                .map(|o| Value::Bool(o != std::cmp::Ordering::Greater)),
            Gt => va
                .compare(vb)
                .ok()
                .map(|o| Value::Bool(o == std::cmp::Ordering::Greater)),
            Ge => va
                .compare(vb)
                .ok()
                .map(|o| Value::Bool(o != std::cmp::Ordering::Less)),
            And => Some(Value::Bool(vb.truthy())),
            Or => Some(Value::Bool(vb.truthy())),
        };
        if let Some(v) = folded {
            return CExpr::Lit(v);
        }
    }
    CExpr::Binary(op, Box::new(a), Box::new(b))
}

struct SlotEval<'f> {
    frame: &'f mut [Option<Value>],
    names: &'f [String],
    steps_left: u64,
    budget: u64,
}

impl SlotEval<'_> {
    fn tick(&mut self) -> Result<(), ExprError> {
        if self.steps_left == 0 {
            return Err(ExprError::BudgetExhausted { steps: self.budget });
        }
        self.steps_left -= 1;
        Ok(())
    }

    fn eval(&mut self, expr: &CExpr) -> Result<Value, ExprError> {
        self.tick()?;
        match expr {
            CExpr::Lit(v) => Ok(v.clone()),
            CExpr::Slot(i) => {
                self.frame[*i as usize]
                    .clone()
                    .ok_or_else(|| ExprError::UndefinedVariable {
                        name: self.names[*i as usize].clone(),
                    })
            }
            CExpr::ListLit(items) => {
                let mut out = Vec::with_capacity(items.len());
                for e in items {
                    out.push(self.eval(e)?);
                }
                Ok(Value::List(out.into()))
            }
            CExpr::MapLit(pairs) => {
                let mut out = BTreeMap::new();
                for (k, e) in pairs {
                    out.insert(k.clone(), self.eval(e)?);
                }
                Ok(Value::Map(out))
            }
            CExpr::Unary(op, e) => {
                let v = self.eval(e)?;
                match op {
                    UnOp::Neg => v.neg(),
                    UnOp::Not => Ok(Value::Bool(!v.truthy())),
                }
            }
            CExpr::Binary(op, a, b) => self.eval_binary(*op, a, b),
            CExpr::Ternary(c, t, e) => {
                if self.eval(c)?.truthy() {
                    self.eval(t)
                } else {
                    self.eval(e)
                }
            }
            CExpr::Elvis(a, b) => {
                let va = self.eval(a)?;
                if va.truthy() {
                    Ok(va)
                } else {
                    self.eval(b)
                }
            }
            CExpr::Call(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for e in args {
                    vals.push(self.eval(e)?);
                }
                match call_builtin(name, &vals) {
                    Some(r) => r,
                    None => Err(ExprError::UndefinedFunction { name: name.clone() }),
                }
            }
            CExpr::Index(base, idx) => {
                let b = self.eval(base)?;
                let i = self.eval(idx)?;
                b.index(&i)
            }
        }
    }

    fn eval_binary(&mut self, op: BinOp, a: &CExpr, b: &CExpr) -> Result<Value, ExprError> {
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

    fn lower(src: &str) -> CompiledScript {
        CompiledScript::lower(&parse(src).unwrap())
    }

    fn eval_bound(src: &str, bindings: &[(&str, Value)]) -> Result<Value, ExprError> {
        let c = lower(src);
        let mut frame = SlotFrame::new();
        let slots = frame.reset(c.n_slots());
        for (name, v) in bindings {
            if let Some(i) = c.slot_of(name) {
                slots[i] = Some(v.clone());
            }
        }
        c.eval_slots(slots, DEFAULT_STEP_BUDGET)
    }

    #[test]
    fn inputs_get_low_slots_in_first_use_order() {
        let c = lower("t = b + a; t / n");
        assert_eq!(c.slot_names(), &["b", "a", "n", "t"]);
        assert_eq!(c.n_inputs(), 3);
        assert_eq!(c.n_slots(), 4);
        assert_eq!(c.slot_of("t"), Some(3));
        assert_eq!(c.slot_of("zz"), None);
    }

    #[test]
    fn constant_subtrees_fold() {
        // Whole program is constant: one Lit statement.
        let c = lower("2 ** 10 + avg([1, 2, 3])");
        assert_eq!(c.stmts, vec![CStmt::Eval(CExpr::Lit(Value::Float(1026.0)))]);
        // Partial fold: (3 * 4) collapses inside a variable expression.
        let c = lower("x + 3 * 4");
        assert_eq!(
            c.stmts,
            vec![CStmt::Eval(CExpr::Binary(
                BinOp::Add,
                Box::new(CExpr::Slot(0)),
                Box::new(CExpr::Lit(Value::Int(12))),
            ))]
        );
    }

    #[test]
    fn erroring_subtrees_do_not_fold() {
        // 1/0 must stay a runtime error, not a compile panic or silent fold.
        let c = lower("false && 1/0");
        assert_eq!(c.stmts, vec![CStmt::Eval(CExpr::Lit(Value::Bool(false)))]);
        assert!(matches!(
            eval_bound("true && 1/0", &[]),
            Err(ExprError::DivisionByZero)
        ));
        assert!(matches!(
            eval_bound("1/0", &[]),
            Err(ExprError::DivisionByZero)
        ));
    }

    #[test]
    fn ternary_with_constant_condition_selects_branch() {
        let c = lower("1 < 2 ? x : 1/0");
        assert_eq!(c.stmts, vec![CStmt::Eval(CExpr::Slot(0))]);
        assert_eq!(eval_bound("0 ?: 42", &[]).unwrap(), Value::Int(42));
        assert_eq!(eval_bound("7 ?: x", &[]).unwrap(), Value::Int(7));
    }

    #[test]
    fn slot_evaluation_matches_paper_average() {
        let v = eval_bound(
            "(a + b + c)/3",
            &[
                ("a", Value::Float(20.0)),
                ("b", Value::Float(22.0)),
                ("c", Value::Float(27.0)),
            ],
        )
        .unwrap();
        assert_eq!(v, Value::Float(23.0));
    }

    #[test]
    fn unbound_slot_errors_with_name() {
        match eval_bound("q + 1", &[]) {
            Err(ExprError::UndefinedVariable { name }) => assert_eq!(name, "q"),
            other => panic!("expected UndefinedVariable, got {other:?}"),
        }
    }

    #[test]
    fn locals_live_in_high_slots() {
        let v = eval_bound("t = a + a; t * t", &[("a", Value::Int(3))]).unwrap();
        assert_eq!(v, Value::Int(36));
    }

    #[test]
    fn budget_still_enforced() {
        let c = lower("x + x + x");
        let mut frame = SlotFrame::new();
        let slots = frame.reset(c.n_slots());
        slots[0] = Some(Value::Int(1));
        assert!(matches!(
            c.eval_slots(slots, 2),
            Err(ExprError::BudgetExhausted { steps: 2 })
        ));
        // Same script passes with a sane budget.
        assert_eq!(c.eval_slots(slots, 100).unwrap(), Value::Int(3));
    }
}
