//! Service contexts — the data a collaboration works on.
//!
//! "A *service context* represent\[s\] the metaprogram data … The service
//! context describes the collaboration data that tasks and jobs work on"
//! (§IV.D). A [`Context`] is a hierarchical map from slash-separated paths
//! to dynamically typed [`Value`]s; requestors put inputs in, providers
//! put results back, and the returned exertion carries the whole thing to
//! the requestor.

use std::borrow::Cow;
use std::cmp::Ordering;

use sensorcer_expr::Value;

/// A context path. The conventional [`paths`] and literals are borrowed
/// for the life of the program, so putting them allocates nothing; only a
/// path computed at run time is owned.
pub type Path = Cow<'static, str>;

/// A hierarchical path→value data context.
///
/// One flat vector kept sorted by *(path length, path bytes)*: a lookup is
/// a binary search that compares lengths first, and paths that share long
/// prefixes (`sensor/value`, `sensor/unit`, `sensor/quality`, …) mostly
/// differ in length, so a hit costs about one `memcmp` and a miss usually
/// none. Two contexts with the same entries hold the same vector whatever
/// order they were built in. Lexical order is not stored; [`Context::paths`]
/// and [`Context::iter`] produce it.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Context {
    entries: Vec<(Path, Value)>,
    /// Sum of [`entry_wire_size`] over `entries`, kept by every edit: each
    /// hop of an exertion charges the wire for its context twice.
    entries_wire: usize,
}

/// Room reserved by the first insert: a sensor reply carries five entries,
/// a composite's up to seven.
const TYPICAL_ENTRIES: usize = 8;

/// Conventional context paths used across the reproduction.
pub mod paths {
    /// Where a sensor reading's numeric value lands.
    pub const SENSOR_VALUE: &str = "sensor/value";
    /// Unit symbol of the reading.
    pub const SENSOR_UNIT: &str = "sensor/unit";
    /// Virtual timestamp (ns) of the reading.
    pub const SENSOR_AT: &str = "sensor/at";
    /// Reading quality ("good"/"suspect").
    pub const SENSOR_QUALITY: &str = "sensor/quality";
    /// Generic output slot for compute tasks.
    pub const RESULT: &str = "result/value";
    /// Error description when a provider fails a task.
    pub const ERROR: &str = "error/message";
    /// Comma-joined names of composite children whose readings were
    /// substituted from a last-known-good cache (degraded-mode reads).
    pub const SENSOR_SUBSTITUTED: &str = "sensor/degraded/substituted";
    /// Comma-joined names of composite children with no reading at all in
    /// a degraded-mode read (skipped by the default aggregate).
    pub const SENSOR_MISSING: &str = "sensor/degraded/missing";
}

impl Context {
    pub fn new() -> Context {
        Context::default()
    }

    /// Where `path` is (`Ok`) or would be inserted (`Err`).
    fn search(&self, path: &str) -> Result<usize, usize> {
        self.entries
            .binary_search_by(|(k, _)| match k.len().cmp(&path.len()) {
                Ordering::Equal => k.as_bytes().cmp(path.as_bytes()),
                unequal => unequal,
            })
    }

    /// Insert/replace a value at `path`.
    pub fn put(&mut self, path: impl Into<Path>, value: impl Into<Value>) -> &mut Self {
        let (path, value) = (path.into(), value.into());
        self.entries_wire += entry_wire_size(&path, &value);
        match self.search(&path) {
            Ok(i) => {
                let old = std::mem::replace(&mut self.entries[i].1, value);
                self.entries_wire -= entry_wire_size(&path, &old);
            }
            Err(i) => {
                if self.entries.capacity() == 0 {
                    self.entries.reserve_exact(TYPICAL_ENTRIES);
                }
                self.entries.insert(i, (path, value));
            }
        }
        self
    }

    /// Builder-style put.
    pub fn with(mut self, path: impl Into<Path>, value: impl Into<Value>) -> Self {
        self.put(path, value);
        self
    }

    /// Value at `path`, if present.
    pub fn get(&self, path: &str) -> Option<&Value> {
        self.search(path).ok().map(|i| &self.entries[i].1)
    }

    /// Numeric view of the value at `path`.
    pub fn get_f64(&self, path: &str) -> Option<f64> {
        self.get(path).and_then(Value::as_f64)
    }

    /// String view of the value at `path`.
    pub fn get_str(&self, path: &str) -> Option<&str> {
        match self.get(path) {
            Some(Value::Str(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Remove a path, returning its value.
    pub fn remove(&mut self, path: &str) -> Option<Value> {
        let (path, value) = self.entries.remove(self.search(path).ok()?);
        self.entries_wire -= entry_wire_size(&path, &value);
        Some(value)
    }

    /// Drop every entry but keep the room they took, so a request that is
    /// re-armed and sent again allocates nothing.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.entries_wire = 0;
    }

    pub fn contains(&self, path: &str) -> bool {
        self.search(path).is_ok()
    }

    /// All paths in lexical order.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.iter().map(|(k, _)| k)
    }

    /// (path, value) pairs in lexical order, sorted on demand.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        let mut pairs: Vec<(&str, &Value)> = self.entries.iter().map(|(k, v)| (&**k, v)).collect();
        pairs.sort_unstable_by_key(|&(k, _)| k);
        pairs.into_iter()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Copy every entry of `other` into this context under the prefix
    /// `prefix/` — how a job folds child-task results into its own context.
    pub fn merge_under(&mut self, prefix: &str, other: &Context) {
        self.entries.reserve(other.entries.len());
        for (k, v) in &other.entries {
            self.put(format!("{prefix}/{k}"), v.clone());
        }
    }

    /// A sub-context of every entry below `prefix/`, with the prefix
    /// stripped.
    pub fn subcontext(&self, prefix: &str) -> Context {
        let lead = format!("{prefix}/");
        // Stripping one prefix from each keeps (length, bytes) order.
        let entries: Vec<(Path, Value)> = self
            .entries
            .iter()
            .filter_map(|(k, v)| Some((k.strip_prefix(&lead)?.to_string().into(), v.clone())))
            .collect();
        let entries_wire = entries.iter().map(|(k, v)| entry_wire_size(k, v)).sum();
        Context {
            entries,
            entries_wire,
        }
    }

    /// Approximate wire size of the context (path bytes + value payloads),
    /// used for honest message accounting.
    pub fn wire_size(&self) -> usize {
        self.entries_wire + 4
    }
}

fn entry_wire_size(path: &str, value: &Value) -> usize {
    4 + path.len() + value_wire_size(value)
}

/// Approximate encoded size of a dynamic value.
pub fn value_wire_size(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Bool(_) => 2,
        Value::Int(_) | Value::Float(_) => 9,
        Value::Str(s) => 5 + s.len(),
        Value::List(xs) => 5 + xs.iter().map(value_wire_size).sum::<usize>(),
        Value::Map(m) => 5 + m.iter().map(|(k, v)| entry_wire_size(k, v)).sum::<usize>(),
    }
}

impl<P: Into<Path>, V: Into<Value>> FromIterator<(P, V)> for Context {
    fn from_iter<I: IntoIterator<Item = (P, V)>>(iter: I) -> Self {
        let mut ctx = Context::new();
        for (p, v) in iter {
            ctx.put(p, v);
        }
        ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_remove() {
        let mut ctx = Context::new();
        ctx.put(paths::SENSOR_VALUE, 21.5)
            .put(paths::SENSOR_UNIT, "°C");
        assert_eq!(ctx.get_f64(paths::SENSOR_VALUE), Some(21.5));
        assert_eq!(ctx.get_str(paths::SENSOR_UNIT), Some("°C"));
        assert_eq!(ctx.len(), 2);
        assert!(ctx.contains(paths::SENSOR_VALUE));
        assert_eq!(ctx.remove(paths::SENSOR_VALUE), Some(Value::Float(21.5)));
        assert!(!ctx.contains(paths::SENSOR_VALUE));
        assert_eq!(ctx.get("missing"), None);
    }

    #[test]
    fn typed_getters_reject_wrong_types() {
        let ctx = Context::new().with("x", "text");
        assert_eq!(ctx.get_f64("x"), None);
        let ctx = Context::new().with("n", 5i64);
        assert_eq!(ctx.get_str("n"), None);
        assert_eq!(ctx.get_f64("n"), Some(5.0));
    }

    #[test]
    fn merge_under_prefixes() {
        let child = Context::new().with(paths::SENSOR_VALUE, 20.0);
        let mut job = Context::new();
        job.merge_under("Neem-Sensor", &child);
        assert_eq!(job.get_f64("Neem-Sensor/sensor/value"), Some(20.0));
    }

    #[test]
    fn subcontext_strips_prefix() {
        let mut job = Context::new();
        job.put("a/x", 1i64).put("a/y", 2i64).put("b/x", 3i64);
        let sub = job.subcontext("a");
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.get_f64("x"), Some(1.0));
        assert!(!sub.contains("b/x"));
        // Round trip through merge/sub.
        let mut back = Context::new();
        back.merge_under("a", &sub);
        assert_eq!(back.get_f64("a/x"), Some(1.0));
    }

    #[test]
    fn paths_are_sorted_and_iter_consistent() {
        let ctx = Context::new().with("b", 1i64).with("a", 2i64);
        let ps: Vec<&str> = ctx.paths().collect();
        assert_eq!(ps, vec!["a", "b"]);
        let pairs: Vec<(&str, &Value)> = ctx.iter().collect();
        assert_eq!(pairs[0].0, "a");
    }

    #[test]
    fn from_iterator() {
        let ctx: Context = [("x", 1.0), ("y", 2.0)].into_iter().collect();
        assert_eq!(ctx.len(), 2);
        assert_eq!(ctx.get_f64("y"), Some(2.0));
    }

    #[test]
    fn wire_size_grows_with_content() {
        let empty = Context::new();
        let small = Context::new().with("v", 1.0);
        let big = small
            .clone()
            .with("long/path/to/value", "some string content here");
        assert!(empty.wire_size() < small.wire_size());
        assert!(small.wire_size() < big.wire_size());
    }

    #[test]
    fn value_sizes() {
        assert_eq!(value_wire_size(&Value::Null), 1);
        assert_eq!(value_wire_size(&Value::Int(1)), 9);
        assert!(value_wire_size(&Value::from("abc")) > 3);
        let list: Value = vec![1i64, 2, 3].into();
        assert!(value_wire_size(&list) > 27);
    }
}
