//! Dynamically typed runtime values with Groovy-like coercion rules.
//!
//! The paper associates compute-expressions such as `(a + b + c)/3` with a
//! composite sensor provider, where each variable is bound at runtime to a
//! child service's reading. Readings are numbers, but service metadata can
//! be strings, lists or maps, so [`Value`] is a small dynamic type with the
//! promotion rules Groovy users expect: `Int` arithmetic stays integral
//! until a `Float` joins in, `/` always divides exactly (Groovy's decimal
//! division), `+` concatenates strings and lists, comparison works across
//! the numeric tower.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::error::ExprError;

/// Immutable text: a literal borrowed for the life of the program, or one
/// allocation shared by every clone. Cloning never copies characters, so a
/// unit symbol or a provider name rides through a federation of contexts
/// for the price of a pointer. Compares and prints as its `str`.
#[derive(Clone)]
pub enum Text {
    Static(&'static str),
    Shared(Arc<str>),
}

impl Text {
    pub fn as_str(&self) -> &str {
        match self {
            Text::Static(s) => s,
            Text::Shared(s) => s,
        }
    }
}

impl std::ops::Deref for Text {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq for Text {
    fn eq(&self, other: &Text) -> bool {
        self.as_str() == other.as_str()
    }
}
impl Eq for Text {}

impl fmt::Debug for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Text {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Text {
        Text::Shared(s.into())
    }
}
impl From<String> for Text {
    fn from(s: String) -> Text {
        Text::Shared(s.into())
    }
}

/// A dynamically typed value. Cloning one never copies characters or list
/// elements: text and lists are immutable and shared.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Text),
    List(Arc<[Value]>),
    /// Map with string keys (deterministic iteration order).
    Map(BTreeMap<String, Value>),
}

impl Value {
    /// A string value that borrows a literal instead of allocating.
    pub fn literal(s: &'static str) -> Value {
        Value::Str(Text::Static(s))
    }

    /// Groovy truthiness: null/false/0/0.0/`""`/`[]`/`[:]` are falsy.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Float(f) => *f != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::List(xs) => !xs.is_empty(),
            Value::Map(m) => !m.is_empty(),
        }
    }

    /// Human-oriented type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Int(_) => "integer",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::List(_) => "list",
            Value::Map(_) => "map",
        }
    }

    /// Numeric view, if this value is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub fn is_number(&self) -> bool {
        matches!(self, Value::Int(_) | Value::Float(_))
    }

    fn type_err(op: &str, a: &Value, b: &Value) -> ExprError {
        ExprError::TypeMismatch {
            op: op.to_string(),
            detail: format!("{} and {}", a.type_name(), b.type_name()),
        }
    }

    /// Float view for arithmetic arms whose guard already matched
    /// `is_number()` on both operands. Propagates a type error rather
    /// than panicking if that pairing is ever broken.
    fn num(&self, op: &str, other: &Value) -> Result<f64, ExprError> {
        self.as_f64().ok_or_else(|| Self::type_err(op, self, other))
    }

    /// Addition: numeric promotion, string concatenation (either side),
    /// list concatenation.
    pub fn add(&self, other: &Value) -> Result<Value, ExprError> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_add(*b))),
            (a, b) if a.is_number() && b.is_number() => {
                Ok(Value::Float(a.num("+", b)? + b.num("+", a)?))
            }
            (Value::Str(a), b) => Ok(format!("{a}{b}").into()),
            (a, Value::Str(b)) => Ok(format!("{a}{b}").into()),
            (Value::List(a), Value::List(b)) => {
                Ok(Value::List(a.iter().chain(b.iter()).cloned().collect()))
            }
            (a, b) => Err(Self::type_err("+", a, b)),
        }
    }

    pub fn sub(&self, other: &Value) -> Result<Value, ExprError> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_sub(*b))),
            (a, b) if a.is_number() && b.is_number() => {
                Ok(Value::Float(a.num("-", b)? - b.num("-", a)?))
            }
            (a, b) => Err(Self::type_err("-", a, b)),
        }
    }

    /// Multiplication: numeric promotion; `string * int` repeats (Groovy).
    pub fn mul(&self, other: &Value) -> Result<Value, ExprError> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_mul(*b))),
            (a, b) if a.is_number() && b.is_number() => {
                Ok(Value::Float(a.num("*", b)? * b.num("*", a)?))
            }
            (Value::Str(s), Value::Int(n)) | (Value::Int(n), Value::Str(s)) => {
                if *n < 0 {
                    Err(ExprError::TypeMismatch {
                        op: "*".into(),
                        detail: "cannot repeat a string a negative number of times".into(),
                    })
                } else {
                    Ok(s.repeat(*n as usize).into())
                }
            }
            (a, b) => Err(Self::type_err("*", a, b)),
        }
    }

    /// Division. Like Groovy's `/` on numbers, the result is exact: two
    /// integers produce an integer only when the division is exact,
    /// otherwise a float. (The paper's `(a + b + c)/3` over temperatures
    /// must not truncate.)
    pub fn div(&self, other: &Value) -> Result<Value, ExprError> {
        match (self, other) {
            (a, b) if a.is_number() && b.is_number() => {
                let bf = b.num("/", a)?;
                if bf == 0.0 {
                    return Err(ExprError::DivisionByZero);
                }
                if let (Value::Int(x), Value::Int(y)) = (a, b) {
                    if x % y == 0 {
                        return Ok(Value::Int(x / y));
                    }
                }
                Ok(Value::Float(a.num("/", b)? / bf))
            }
            (a, b) => Err(Self::type_err("/", a, b)),
        }
    }

    /// Remainder (integers only stay integral).
    pub fn rem(&self, other: &Value) -> Result<Value, ExprError> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Err(ExprError::DivisionByZero)
                } else {
                    Ok(Value::Int(a % b))
                }
            }
            (a, b) if a.is_number() && b.is_number() => {
                let bf = b.num("%", a)?;
                if bf == 0.0 {
                    Err(ExprError::DivisionByZero)
                } else {
                    Ok(Value::Float(a.num("%", b)? % bf))
                }
            }
            (a, b) => Err(Self::type_err("%", a, b)),
        }
    }

    /// Exponentiation (`**`). Integer base and non-negative integer
    /// exponent stay integral when representable.
    pub fn pow(&self, other: &Value) -> Result<Value, ExprError> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) if *b >= 0 && *b <= u32::MAX as i64 => {
                match a.checked_pow(*b as u32) {
                    Some(v) => Ok(Value::Int(v)),
                    None => Ok(Value::Float((*a as f64).powf(*b as f64))),
                }
            }
            (a, b) if a.is_number() && b.is_number() => {
                Ok(Value::Float(a.num("**", b)?.powf(b.num("**", a)?)))
            }
            (a, b) => Err(Self::type_err("**", a, b)),
        }
    }

    /// Arithmetic negation.
    pub fn neg(&self) -> Result<Value, ExprError> {
        match self {
            Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
            Value::Float(f) => Ok(Value::Float(-f)),
            v => Err(ExprError::TypeMismatch {
                op: "unary -".into(),
                detail: v.type_name().to_string(),
            }),
        }
    }

    /// Equality with numeric promotion (`1 == 1.0` is true, as in Groovy).
    pub fn loose_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (a, b) if a.is_number() && b.is_number() => a.as_f64() == b.as_f64(),
            (a, b) => a == b,
        }
    }

    /// Ordering for comparison operators. Numbers compare across the tower,
    /// strings lexicographically; everything else is an error.
    pub fn compare(&self, other: &Value) -> Result<std::cmp::Ordering, ExprError> {
        use std::cmp::Ordering;
        match (self, other) {
            (a, b) if a.is_number() && b.is_number() => a
                .num("comparison", b)?
                .partial_cmp(&b.num("comparison", a)?)
                .ok_or_else(|| ExprError::TypeMismatch {
                    op: "comparison".into(),
                    detail: "NaN is unordered".into(),
                }),
            (Value::Str(a), Value::Str(b)) => Ok(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Ok(a.cmp(b)),
            (a, b) => Err(Self::type_err("comparison", a, b)),
        }
        .map(|o| match o {
            Ordering::Less => Ordering::Less,
            o => o,
        })
    }

    /// Indexing: `list[int]` (negative counts from the end, Groovy-style),
    /// `map[string]` (missing keys yield null), `string[int]` yields a
    /// one-character string.
    pub fn index(&self, idx: &Value) -> Result<Value, ExprError> {
        match (self, idx) {
            (Value::List(xs), Value::Int(i)) => {
                let n = xs.len() as i64;
                let j = if *i < 0 { n + i } else { *i };
                if j < 0 || j >= n {
                    Err(ExprError::BadIndex {
                        detail: format!("index {i} out of bounds for list of length {n}"),
                    })
                } else {
                    Ok(xs[j as usize].clone())
                }
            }
            (Value::Map(m), Value::Str(k)) => Ok(m.get(k.as_str()).cloned().unwrap_or(Value::Null)),
            (Value::Str(s), Value::Int(i)) => {
                let chars: Vec<char> = s.chars().collect();
                let n = chars.len() as i64;
                let j = if *i < 0 { n + i } else { *i };
                if j < 0 || j >= n {
                    Err(ExprError::BadIndex {
                        detail: format!("index {i} out of bounds for string of length {n}"),
                    })
                } else {
                    Ok(chars[j as usize].to_string().into())
                }
            }
            (v, i) => Err(ExprError::BadIndex {
                detail: format!("cannot index {} with {}", v.type_name(), i.type_name()),
            }),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.is_finite() && x.abs() < 1e15 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => f.write_str(s),
            Value::List(xs) => {
                f.write_str("[")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{x}")?;
                }
                f.write_str("]")
            }
            Value::Map(m) => {
                if m.is_empty() {
                    return f.write_str("[:]");
                }
                f.write_str("[")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                f.write_str("]")
            }
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.into())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s.into())
    }
}
impl From<Text> for Value {
    fn from(s: Text) -> Self {
        Value::Str(s)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(xs: Vec<T>) -> Self {
        Value::List(xs.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness_matches_groovy() {
        assert!(!Value::Null.truthy());
        assert!(!Value::Bool(false).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(!Value::Float(0.0).truthy());
        assert!(!Value::Str("".into()).truthy());
        assert!(!Value::List(vec![].into()).truthy());
        assert!(Value::Int(-3).truthy());
        assert!(Value::Str("x".into()).truthy());
    }

    #[test]
    fn int_arithmetic_stays_integral() {
        let v = Value::Int(7).add(&Value::Int(5)).unwrap();
        assert_eq!(v, Value::Int(12));
        assert_eq!(Value::Int(3).mul(&Value::Int(4)).unwrap(), Value::Int(12));
    }

    #[test]
    fn float_contaminates() {
        assert_eq!(
            Value::Int(1).add(&Value::Float(0.5)).unwrap(),
            Value::Float(1.5)
        );
        assert_eq!(
            Value::Float(2.0).mul(&Value::Int(3)).unwrap(),
            Value::Float(6.0)
        );
    }

    #[test]
    fn division_is_exact_like_groovy() {
        // The paper's average: (20 + 21 + 23) / 3 must not truncate... but
        // when exact it stays integral.
        assert_eq!(Value::Int(64).div(&Value::Int(4)).unwrap(), Value::Int(16));
        assert_eq!(
            Value::Int(7).div(&Value::Int(2)).unwrap(),
            Value::Float(3.5)
        );
        assert!(matches!(
            Value::Int(1).div(&Value::Int(0)),
            Err(ExprError::DivisionByZero)
        ));
    }

    #[test]
    fn string_concat_and_repeat() {
        assert_eq!(
            Value::from("ab").add(&Value::Int(3)).unwrap(),
            Value::from("ab3")
        );
        assert_eq!(
            Value::Int(3).add(&Value::from("ab")).unwrap(),
            Value::from("3ab")
        );
        assert_eq!(
            Value::from("ab").mul(&Value::Int(2)).unwrap(),
            Value::from("abab")
        );
        assert!(Value::from("ab").mul(&Value::Int(-1)).is_err());
    }

    #[test]
    fn list_concat() {
        let a: Value = vec![1i64, 2].into();
        let b: Value = vec![3i64].into();
        assert_eq!(a.add(&b).unwrap(), vec![1i64, 2, 3].into());
    }

    #[test]
    fn pow_integral_until_overflow() {
        assert_eq!(
            Value::Int(2).pow(&Value::Int(10)).unwrap(),
            Value::Int(1024)
        );
        let big = Value::Int(10).pow(&Value::Int(30)).unwrap();
        assert!(matches!(big, Value::Float(_)));
        assert_eq!(
            Value::Int(2).pow(&Value::Float(0.5)).unwrap(),
            Value::Float(2f64.sqrt())
        );
    }

    #[test]
    fn loose_equality_spans_numeric_tower() {
        assert!(Value::Int(1).loose_eq(&Value::Float(1.0)));
        assert!(!Value::Int(1).loose_eq(&Value::Float(1.5)));
        assert!(Value::from("a").loose_eq(&Value::from("a")));
        assert!(
            !Value::from("1").loose_eq(&Value::Int(1)),
            "no string→number coercion"
        );
    }

    #[test]
    fn comparison() {
        use std::cmp::Ordering::*;
        assert_eq!(Value::Int(1).compare(&Value::Float(1.5)).unwrap(), Less);
        assert_eq!(
            Value::from("b").compare(&Value::from("a")).unwrap(),
            Greater
        );
        assert!(Value::Int(1).compare(&Value::from("a")).is_err());
        assert!(Value::Float(f64::NAN).compare(&Value::Int(1)).is_err());
    }

    #[test]
    fn indexing() {
        let list: Value = vec![10i64, 20, 30].into();
        assert_eq!(list.index(&Value::Int(0)).unwrap(), Value::Int(10));
        assert_eq!(list.index(&Value::Int(-1)).unwrap(), Value::Int(30));
        assert!(list.index(&Value::Int(3)).is_err());
        assert!(list.index(&Value::Int(-4)).is_err());

        let mut m = BTreeMap::new();
        m.insert("k".to_string(), Value::Int(9));
        let map = Value::Map(m);
        assert_eq!(map.index(&Value::from("k")).unwrap(), Value::Int(9));
        assert_eq!(map.index(&Value::from("nope")).unwrap(), Value::Null);

        let s = Value::from("héllo");
        assert_eq!(s.index(&Value::Int(1)).unwrap(), Value::from("é"));
        assert_eq!(s.index(&Value::Int(-1)).unwrap(), Value::from("o"));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Float(3.0).to_string(), "3.0");
        assert_eq!(Value::Float(3.25).to_string(), "3.25");
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(Value::from(vec![1i64, 2]).to_string(), "[1, 2]");
        assert_eq!(Value::Map(BTreeMap::new()).to_string(), "[:]");
    }

    #[test]
    fn negation() {
        assert_eq!(Value::Int(5).neg().unwrap(), Value::Int(-5));
        assert_eq!(Value::Float(2.5).neg().unwrap(), Value::Float(-2.5));
        assert!(Value::from("x").neg().is_err());
    }

    #[test]
    fn wrapping_add_does_not_panic() {
        let v = Value::Int(i64::MAX).add(&Value::Int(1)).unwrap();
        assert_eq!(v, Value::Int(i64::MIN));
    }
}
