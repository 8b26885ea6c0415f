//! # sensorcer-expr
//!
//! A small dynamically typed expression language — the reproduction's
//! substitute for the Groovy runtime the paper embeds in composite sensor
//! providers ("the dynamically typed language Groovy provides the runtime
//! computing mechanism involving variables of sensor services", §I).
//!
//! A composite sensor provider binds each child service to a variable
//! (`a`, `b`, `c`, …) and evaluates a user-supplied expression such as the
//! paper's `(a + b + c)/3` on every read:
//!
//! ```
//! use sensorcer_expr::{Program, Value};
//!
//! let avg = Program::compile("(a + b + c)/3").unwrap();
//! assert_eq!(avg.inputs(), vec!["a", "b", "c"]);
//! let v = avg.eval_with([("a", 20.0), ("b", 22.0), ("c", 27.0)]).unwrap();
//! assert_eq!(v, Value::Float(23.0));
//! ```
//!
//! The language supports Groovy-like semantics where the paper relies on
//! them: dynamic typing with numeric promotion, exact `/` division, string
//! and list `+`, `?:` (elvis), ternaries, Groovy collection literals
//! (`[1,2]`, `[k: v]`, `[:]`), short-circuit logic, a statement form
//! (`t = a + b; t/2`) and a library of aggregation builtins
//! ([`builtins::BUILTIN_NAMES`]). Evaluation is budgeted so a hostile
//! expression cannot hang a provider.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
pub mod ast;
pub mod builtins;
pub mod compiled;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod program;
pub mod value;

pub use ast::{BinOp, Expr, Script, Stmt, UnOp};
pub use compiled::{CompiledScript, SlotFrame, DEFAULT_STEP_BUDGET};
pub use error::{ExprError, Pos};
pub use parser::{parse, parse_expr};
pub use program::{eval_str, Program};
pub use value::{Text, Value};
