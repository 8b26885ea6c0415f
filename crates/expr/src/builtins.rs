//! Builtin function library available to every compute-expression.
//!
//! The paper's demo only needs arithmetic, but real sensor aggregation
//! expressions want reductions (`avg`, `min`, `max`, …), numeric helpers
//! and a little collection/string support, so CSP authors don't need a
//! host-language escape hatch.

use crate::error::ExprError;
use crate::value::Value;

/// Call a builtin by name. Returns `None` when no builtin with that name
/// exists (the evaluator reports `UndefinedFunction`).
pub fn call_builtin(name: &str, args: &[Value]) -> Option<Result<Value, ExprError>> {
    let r = match name {
        "avg" | "mean" => reduce_numeric(name, args, |xs| {
            if xs.is_empty() {
                Err(empty_args(name))
            } else {
                Ok(Value::Float(xs.iter().sum::<f64>() / xs.len() as f64))
            }
        }),
        "sum" => reduce_numeric(name, args, |xs| Ok(Value::Float(xs.iter().sum::<f64>()))),
        "min" => reduce_numeric(name, args, |xs| {
            xs.iter()
                .copied()
                .reduce(f64::min)
                .map(Value::Float)
                .ok_or_else(|| empty_args(name))
        }),
        "max" => reduce_numeric(name, args, |xs| {
            xs.iter()
                .copied()
                .reduce(f64::max)
                .map(Value::Float)
                .ok_or_else(|| empty_args(name))
        }),
        "median" => reduce_numeric(name, args, |xs| {
            if xs.is_empty() {
                return Err(empty_args(name));
            }
            let mut v = xs.to_vec();
            v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let n = v.len();
            Ok(Value::Float(if n % 2 == 1 {
                v[n / 2]
            } else {
                (v[n / 2 - 1] + v[n / 2]) / 2.0
            }))
        }),
        "stddev" => reduce_numeric(name, args, |xs| {
            if xs.len() < 2 {
                return Err(ExprError::BadArity {
                    name: name.into(),
                    expected: "at least 2 numbers".into(),
                    got: xs.len(),
                });
            }
            let mean = xs.iter().sum::<f64>() / xs.len() as f64;
            let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
            Ok(Value::Float(var.sqrt()))
        }),
        "abs" => unary_numeric(name, args, |x| x.abs()),
        "sqrt" => unary_numeric(name, args, |x| x.sqrt()),
        "floor" => unary_numeric_int(name, args, |x| x.floor()),
        "ceil" => unary_numeric_int(name, args, |x| x.ceil()),
        "round" => unary_numeric_int(name, args, |x| x.round()),
        "exp" => unary_numeric(name, args, |x| x.exp()),
        "log" => unary_numeric(name, args, |x| x.ln()),
        "log10" => unary_numeric(name, args, |x| x.log10()),
        "sin" => unary_numeric(name, args, |x| x.sin()),
        "cos" => unary_numeric(name, args, |x| x.cos()),
        "tan" => unary_numeric(name, args, |x| x.tan()),
        "pow" => {
            if args.len() != 2 {
                Err(arity(name, "2", args.len()))
            } else {
                args[0].pow(&args[1])
            }
        }
        "clamp" => {
            if args.len() != 3 {
                Err(arity(name, "3", args.len()))
            } else {
                match (args[0].as_f64(), args[1].as_f64(), args[2].as_f64()) {
                    (Some(x), Some(lo), Some(hi)) if lo <= hi => Ok(Value::Float(x.clamp(lo, hi))),
                    (Some(_), Some(lo), Some(hi)) => Err(ExprError::TypeMismatch {
                        op: "clamp".into(),
                        detail: format!("lo ({lo}) must not exceed hi ({hi})"),
                    }),
                    _ => Err(ExprError::TypeMismatch {
                        op: "clamp".into(),
                        detail: "all three arguments must be numbers".into(),
                    }),
                }
            }
        }
        "len" | "size" => {
            if args.len() != 1 {
                Err(arity(name, "1", args.len()))
            } else {
                match &args[0] {
                    Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                    Value::List(xs) => Ok(Value::Int(xs.len() as i64)),
                    Value::Map(m) => Ok(Value::Int(m.len() as i64)),
                    v => Err(ExprError::TypeMismatch {
                        op: name.into(),
                        detail: format!("cannot take length of {}", v.type_name()),
                    }),
                }
            }
        }
        "first" | "last" => {
            if args.len() != 1 {
                Err(arity(name, "1", args.len()))
            } else {
                match &args[0] {
                    Value::List(xs) if !xs.is_empty() => Ok(if name == "first" {
                        xs[0].clone()
                    } else {
                        xs[xs.len() - 1].clone()
                    }),
                    Value::List(_) => Err(ExprError::BadIndex {
                        detail: "empty list".into(),
                    }),
                    v => Err(ExprError::TypeMismatch {
                        op: name.into(),
                        detail: format!("expected a list, got {}", v.type_name()),
                    }),
                }
            }
        }
        "str" => {
            if args.len() != 1 {
                Err(arity(name, "1", args.len()))
            } else {
                Ok(args[0].to_string().into())
            }
        }
        "int" => {
            if args.len() != 1 {
                Err(arity(name, "1", args.len()))
            } else {
                match &args[0] {
                    Value::Int(i) => Ok(Value::Int(*i)),
                    Value::Float(f) => Ok(Value::Int(*f as i64)),
                    Value::Bool(b) => Ok(Value::Int(*b as i64)),
                    Value::Str(s) => s.trim().parse::<i64>().map(Value::Int).map_err(|_| {
                        ExprError::TypeMismatch {
                            op: "int".into(),
                            detail: format!("cannot parse {s:?} as integer"),
                        }
                    }),
                    v => Err(ExprError::TypeMismatch {
                        op: "int".into(),
                        detail: format!("cannot convert {}", v.type_name()),
                    }),
                }
            }
        }
        "float" => {
            if args.len() != 1 {
                Err(arity(name, "1", args.len()))
            } else {
                match &args[0] {
                    Value::Int(i) => Ok(Value::Float(*i as f64)),
                    Value::Float(f) => Ok(Value::Float(*f)),
                    Value::Str(s) => s.trim().parse::<f64>().map(Value::Float).map_err(|_| {
                        ExprError::TypeMismatch {
                            op: "float".into(),
                            detail: format!("cannot parse {s:?} as float"),
                        }
                    }),
                    v => Err(ExprError::TypeMismatch {
                        op: "float".into(),
                        detail: format!("cannot convert {}", v.type_name()),
                    }),
                }
            }
        }
        _ => return None,
    };
    Some(r)
}

/// Names of all builtins (kept in sync with `call_builtin`; checked by a
/// test that calls every one).
pub const BUILTIN_NAMES: &[&str] = &[
    "avg", "mean", "sum", "min", "max", "median", "stddev", "abs", "sqrt", "floor", "ceil",
    "round", "exp", "log", "log10", "sin", "cos", "tan", "pow", "clamp", "len", "size", "first",
    "last", "str", "int", "float",
];

fn arity(name: &str, expected: &str, got: usize) -> ExprError {
    ExprError::BadArity {
        name: name.into(),
        expected: expected.into(),
        got,
    }
}

fn empty_args(name: &str) -> ExprError {
    arity(name, "at least 1 number", 0)
}

/// Reductions accept either a single list of numbers or numeric varargs.
fn reduce_numeric(
    name: &str,
    args: &[Value],
    f: impl FnOnce(&[f64]) -> Result<Value, ExprError>,
) -> Result<Value, ExprError> {
    let collect = |vals: &[Value]| -> Result<Vec<f64>, ExprError> {
        vals.iter()
            .map(|v| {
                v.as_f64().ok_or_else(|| ExprError::TypeMismatch {
                    op: name.to_string(),
                    detail: format!("expected numbers, got {}", v.type_name()),
                })
            })
            .collect()
    };
    let xs = match args {
        [Value::List(items)] => collect(items)?,
        _ => collect(args)?,
    };
    f(&xs)
}

fn unary_numeric(
    name: &str,
    args: &[Value],
    f: impl FnOnce(f64) -> f64,
) -> Result<Value, ExprError> {
    match args {
        [v] => v
            .as_f64()
            .map(|x| Value::Float(f(x)))
            .ok_or_else(|| ExprError::TypeMismatch {
                op: name.to_string(),
                detail: format!("expected a number, got {}", v.type_name()),
            }),
        _ => Err(arity(name, "1", args.len())),
    }
}

/// Like `unary_numeric` but yields an integer (floor/ceil/round).
fn unary_numeric_int(
    name: &str,
    args: &[Value],
    f: impl FnOnce(f64) -> f64,
) -> Result<Value, ExprError> {
    match args {
        [Value::Int(i)] => Ok(Value::Int(*i)),
        [v] => v
            .as_f64()
            .map(|x| Value::Int(f(x) as i64))
            .ok_or_else(|| ExprError::TypeMismatch {
                op: name.to_string(),
                detail: format!("expected a number, got {}", v.type_name()),
            }),
        _ => Err(arity(name, "1", args.len())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(name: &str, args: &[Value]) -> Result<Value, ExprError> {
        call_builtin(name, args).expect("builtin exists")
    }

    fn nums(xs: &[f64]) -> Vec<Value> {
        xs.iter().map(|&x| Value::Float(x)).collect()
    }

    #[test]
    fn reductions_accept_varargs_and_lists() {
        assert_eq!(
            call("avg", &nums(&[1.0, 2.0, 3.0])).unwrap(),
            Value::Float(2.0)
        );
        let list = Value::List(nums(&[1.0, 2.0, 3.0]).into());
        assert_eq!(call("avg", &[list]).unwrap(), Value::Float(2.0));
        assert_eq!(call("sum", &nums(&[1.5, 2.5])).unwrap(), Value::Float(4.0));
        assert_eq!(
            call("min", &nums(&[3.0, 1.0, 2.0])).unwrap(),
            Value::Float(1.0)
        );
        assert_eq!(
            call("max", &nums(&[3.0, 1.0, 2.0])).unwrap(),
            Value::Float(3.0)
        );
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(
            call("median", &nums(&[3.0, 1.0, 2.0])).unwrap(),
            Value::Float(2.0)
        );
        assert_eq!(
            call("median", &nums(&[4.0, 1.0, 2.0, 3.0])).unwrap(),
            Value::Float(2.5)
        );
    }

    #[test]
    fn stddev_sample() {
        let v = call("stddev", &nums(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])).unwrap();
        let Value::Float(sd) = v else { panic!() };
        assert!((sd - 2.138).abs() < 0.01, "{sd}");
        assert!(call("stddev", &nums(&[1.0])).is_err());
    }

    #[test]
    fn rounding_family() {
        assert_eq!(call("floor", &[Value::Float(2.9)]).unwrap(), Value::Int(2));
        assert_eq!(call("ceil", &[Value::Float(2.1)]).unwrap(), Value::Int(3));
        assert_eq!(call("round", &[Value::Float(2.5)]).unwrap(), Value::Int(3));
        // Integers pass through unchanged.
        assert_eq!(call("round", &[Value::Int(7)]).unwrap(), Value::Int(7));
    }

    #[test]
    fn clamp_validates_bounds() {
        assert_eq!(
            call("clamp", &nums(&[5.0, 0.0, 3.0])).unwrap(),
            Value::Float(3.0)
        );
        assert!(call("clamp", &nums(&[5.0, 3.0, 0.0])).is_err());
        assert!(call("clamp", &nums(&[5.0])).is_err());
    }

    #[test]
    fn len_of_everything() {
        assert_eq!(call("len", &[Value::from("héllo")]).unwrap(), Value::Int(5));
        assert_eq!(
            call("len", &[Value::from(vec![1i64, 2])]).unwrap(),
            Value::Int(2)
        );
        assert_eq!(
            call("size", &[Value::Map(Default::default())]).unwrap(),
            Value::Int(0)
        );
        assert!(call("len", &[Value::Int(3)]).is_err());
    }

    #[test]
    fn conversions() {
        assert_eq!(call("int", &[Value::Float(3.9)]).unwrap(), Value::Int(3));
        assert_eq!(call("int", &[Value::from(" 42 ")]).unwrap(), Value::Int(42));
        assert!(call("int", &[Value::from("x")]).is_err());
        assert_eq!(call("float", &[Value::Int(2)]).unwrap(), Value::Float(2.0));
        assert_eq!(
            call("str", &[Value::Float(2.5)]).unwrap(),
            Value::from("2.5")
        );
    }

    #[test]
    fn first_and_last() {
        let l = Value::from(vec![1i64, 2, 3]);
        assert_eq!(
            call("first", std::slice::from_ref(&l)).unwrap(),
            Value::Int(1)
        );
        assert_eq!(call("last", &[l]).unwrap(), Value::Int(3));
        assert!(call("first", &[Value::List(vec![].into())]).is_err());
    }

    #[test]
    fn unknown_builtin_is_none() {
        assert!(call_builtin("frobnicate", &[]).is_none());
    }

    #[test]
    fn every_listed_builtin_is_callable() {
        // Each name must dispatch (possibly to an arity error, never None).
        for name in BUILTIN_NAMES {
            assert!(
                call_builtin(name, &nums(&[1.0, 2.0])).is_some(),
                "{name} not wired up"
            );
        }
    }

    #[test]
    fn type_errors_are_reported() {
        assert!(call("avg", &[Value::from("x")]).is_err());
        assert!(call("sqrt", &[Value::from("x")]).is_err());
        assert!(call("avg", &[]).is_err());
    }
}
