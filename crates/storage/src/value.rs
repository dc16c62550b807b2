//! Runtime values.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A single runtime value.
///
/// `Str` uses `Arc<str>` so rows can be cloned during joins without copying
/// string payloads (see the perf guidance on avoiding allocation in hot
/// paths). NULL ordering follows PostgreSQL's default: NULLs sort last.
#[derive(Debug, Clone)]
pub enum Value {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. NaN never appears in stored data.
    Float(f64),
    /// UTF-8 string.
    Str(Arc<str>),
    /// SQL NULL.
    Null,
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Whether this value is NULL.
    #[inline]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The value as an `i64`, if it is an integer.
    #[inline]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as an `f64`; integers widen losslessly (within 2^53).
    #[inline]
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(v) => Some(*v),
            Value::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is text.
    #[inline]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A numeric proxy used by statistics: ints and floats map to their
    /// value, strings map to a stable prefix-based ordinal, NULL to `None`.
    pub fn numeric_proxy(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Str(s) => Some(string_ordinal(s)),
            Value::Null => None,
        }
    }

    /// SQL-style three-valued comparison: `None` if either side is NULL.
    #[inline]
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other))
    }

    /// Total order used by sort operators and B-tree keys: NULLs last,
    /// cross-type numeric comparison via `f64`.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Greater,
            (_, Null) => Ordering::Less,
            (Int(a), Int(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.as_ref().cmp(b.as_ref()),
            (a, b) => {
                // Mixed numeric (or numeric vs text, which workloads never
                // produce but a total order must still handle): compare on
                // the numeric proxy. Equal proxies compare equal, so
                // `Int(2)` and `Float(2.0)` are interchangeable join keys.
                let ap = a.numeric_proxy().unwrap_or(f64::NEG_INFINITY);
                let bp = b.numeric_proxy().unwrap_or(f64::NEG_INFINITY);
                ap.partial_cmp(&bp).unwrap_or(Ordering::Equal)
            }
        }
    }
}

/// Maps a string to a stable f64 ordinal consistent with a prefix of its
/// byte ordering, so histograms over text columns are meaningful: the
/// numeric proxy of [`Value::Str`].
pub fn string_ordinal(s: &str) -> f64 {
    let mut acc = 0.0f64;
    let mut scale = 1.0f64;
    for &b in s.as_bytes().iter().take(6) {
        scale /= 256.0;
        acc += (b as f64) * scale;
    }
    acc
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Int(v) => {
                0u8.hash(state);
                v.hash(state);
            }
            Value::Float(v) => {
                // Hash floats by bits; stored data never contains NaN, and
                // integral floats hash like their Int counterparts would
                // not — equality across Int/Float is only used in sorts,
                // never in hash joins (the binder type-checks join keys).
                1u8.hash(state);
                v.to_bits().hash(state);
            }
            Value::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Value::Null => 3u8.hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_comparison_with_nulls() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Null), None);
    }

    #[test]
    fn total_order_nulls_last() {
        let mut vals = [Value::Null, Value::Int(3), Value::Int(1), Value::Int(2)];
        vals.sort();
        assert!(vals[3].is_null());
        assert_eq!(vals[0], Value::Int(1));
        assert_eq!(vals[2], Value::Int(3));
    }

    #[test]
    fn cross_numeric_comparison() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(Value::Float(2.0).total_cmp(&Value::Int(2)), Ordering::Equal);
    }

    #[test]
    fn string_ordinal_is_monotone_on_prefixes() {
        assert!(string_ordinal("apple") < string_ordinal("banana"));
        assert!(string_ordinal("aa") < string_ordinal("ab"));
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_float(), Some(7.0));
        assert_eq!(Value::str("x").as_str(), Some("x"));
        assert_eq!(Value::Float(1.5).as_int(), None);
        assert!(Value::Null.numeric_proxy().is_none());
    }

    #[test]
    fn hash_consistent_with_eq_for_same_type() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(Value::Int(1));
        set.insert(Value::Int(1));
        set.insert(Value::str("a"));
        set.insert(Value::str("a"));
        assert_eq!(set.len(), 2);
    }
}
