//! Runtime values manipulated by MR-IR programs.
//!
//! The value model mirrors what a MapReduce `map()` written in Java sees:
//! boxed primitives, strings, byte arrays, and (for library calls such as
//! URL-extraction or `Hashtable`) lists, maps and nested records.
//!
//! `Value` is deliberately cheap to clone: strings, byte arrays, lists,
//! maps and records are behind `Arc`s, so the execution fabric can move
//! values between map, shuffle and reduce stages without deep copies.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::record::Record;

/// A dynamically-typed runtime value.
///
/// Ordering is total (needed for shuffle sorting and for `Value` keys in
/// [`Value::Map`]): values of different kinds order by a fixed kind rank,
/// and doubles use IEEE `total_cmp`.
#[derive(Debug, Clone, Default)]
pub enum Value {
    /// The absence of a value (Java `null`).
    #[default]
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit signed integer. Schema-level `Int` and `Long` fields both
    /// decode to this variant; the distinction only affects serialization.
    Int(i64),
    /// A 64-bit IEEE float.
    Double(f64),
    /// An immutable UTF-8 string.
    Str(Arc<str>),
    /// An immutable byte array.
    Bytes(Arc<[u8]>),
    /// An immutable list (e.g. the URLs extracted from a document).
    List(Arc<Vec<Value>>),
    /// An immutable ordered map (models `java.util.Hashtable` for the
    /// Pavlo UDF-aggregation benchmark; persistent so that the
    /// interpreter stays purely value-oriented).
    Map(Arc<BTreeMap<Value, Value>>),
    /// A nested record (e.g. a tagged tuple emitted by a join mapper).
    Record(Arc<Record>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Build a byte-array value.
    pub fn bytes(b: impl AsRef<[u8]>) -> Self {
        Value::Bytes(Arc::from(b.as_ref()))
    }

    /// Build a list value.
    pub fn list(items: Vec<Value>) -> Self {
        Value::List(Arc::new(items))
    }

    /// Build an empty map value.
    pub fn empty_map() -> Self {
        Value::Map(Arc::new(BTreeMap::new()))
    }

    /// A stable rank for cross-kind comparisons.
    fn kind_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Double(_) => 3,
            Value::Str(_) => 4,
            Value::Bytes(_) => 5,
            Value::List(_) => 6,
            Value::Map(_) => 7,
            Value::Record(_) => 8,
        }
    }

    /// Human-readable kind name, used in type-error messages.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Double(_) => "double",
            Value::Str(_) => "str",
            Value::Bytes(_) => "bytes",
            Value::List(_) => "list",
            Value::Map(_) => "map",
            Value::Record(_) => "record",
        }
    }

    /// True when the value is "truthy" in a conditional branch: non-zero
    /// numbers, `true`, non-empty strings/collections. Mirrors the loose
    /// conditional semantics of the source programs we model.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Double(d) => *d != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Bytes(b) => !b.is_empty(),
            Value::List(l) => !l.is_empty(),
            Value::Map(m) => !m.is_empty(),
            Value::Record(_) => true,
        }
    }

    /// Interpret as integer, if possible.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Interpret as double, widening integers.
    pub fn as_double(&self) -> Option<f64> {
        match self {
            Value::Double(d) => Some(*d),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Borrow as a string slice, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as a record, if this is a record.
    pub fn as_record(&self) -> Option<&Record> {
        match self {
            Value::Record(r) => Some(r),
            _ => None,
        }
    }

    /// Approximate in-memory payload size in bytes; used by engine
    /// counters to report shuffled data volume.
    pub fn payload_size(&self) -> usize {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 8,
            Value::Double(_) => 8,
            Value::Str(s) => s.len(),
            Value::Bytes(b) => b.len(),
            Value::List(l) => l.iter().map(Value::payload_size).sum(),
            Value::Map(m) => m
                .iter()
                .map(|(k, v)| k.payload_size() + v.payload_size())
                .sum(),
            Value::Record(r) => r.payload_size(),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
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
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Double(a), Double(b)) => a.total_cmp(b),
            // Numeric cross-kind comparisons are value-based so that a
            // predicate `v.rank > 1.5` behaves sensibly on int fields.
            (Int(a), Double(b)) => (*a as f64).total_cmp(b),
            (Double(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) if Arc::ptr_eq(a, b) => Ordering::Equal,
            (Str(a), Str(b)) => a.cmp(b),
            (Bytes(a), Bytes(b)) => a.cmp(b),
            // One shared allocation is one value, and a total order
            // is reflexive: skip the walk (a broadcast join's joined
            // values all hold their key's build payload by `Arc`).
            (List(a), List(b)) if Arc::ptr_eq(a, b) => Ordering::Equal,
            (Map(a), Map(b)) if Arc::ptr_eq(a, b) => Ordering::Equal,
            (Record(a), Record(b)) if Arc::ptr_eq(a, b) => Ordering::Equal,
            (List(a), List(b)) => a.cmp(b),
            (Map(a), Map(b)) => a.iter().cmp(b.iter()),
            (Record(a), Record(b)) => a.values().cmp(b.values()),
            _ => self.kind_rank().cmp(&other.kind_rank()),
        }
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Int(2) and Double(2.0) compare equal, so integral doubles must
        // hash exactly like the corresponding Int to keep Hash
        // consistent with Eq (shuffle partitioning depends on it).
        if let Value::Double(d) = self {
            let as_int = *d as i64;
            if as_int as f64 == *d {
                Value::Int(as_int).hash(state);
                return;
            }
        }
        self.kind_rank().hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Double(d) => d.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Bytes(b) => b.hash(state),
            Value::List(l) => l.hash(state),
            Value::Map(m) => {
                for (k, v) in m.iter() {
                    k.hash(state);
                    v.hash(state);
                }
            }
            Value::Record(r) => {
                for v in r.values() {
                    v.hash(state);
                }
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Double(d) => {
                // Keep a decimal marker so `2.0` does not print as `2`
                // and re-parse as an integer (printer↔assembler
                // round-trips depend on it).
                let s = format!("{d}");
                if s.contains(['.', 'e', 'E', 'n', 'i']) {
                    write!(f, "{s}")
                } else {
                    write!(f, "{s}.0")
                }
            }
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bytes(b) => write!(f, "bytes[{}]", b.len()),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Value::Map(m) => write!(f, "map[{} entries]", m.len()),
            Value::Record(r) => write!(f, "{r}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

impl From<Record> for Value {
    fn from(r: Record) -> Self {
        Value::Record(Arc::new(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_kind_ordering_is_stable() {
        assert!(Value::Null < Value::Bool(false));
        assert!(Value::Bool(true) < Value::Int(0));
        assert!(Value::Int(5) < Value::str("a"));
    }

    #[test]
    fn numeric_cross_kind_comparison() {
        assert_eq!(Value::Int(2), Value::Double(2.0));
        assert!(Value::Int(1) < Value::Double(1.5));
        assert!(Value::Double(2.5) > Value::Int(2));
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(Value::Int(-3).is_truthy());
        assert!(!Value::str("").is_truthy());
        assert!(Value::str("x").is_truthy());
        assert!(!Value::empty_map().is_truthy());
    }

    #[test]
    fn display_round_trips_simply() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("hi").to_string(), "\"hi\"");
        assert_eq!(Value::list(vec![1.into(), 2.into()]).to_string(), "[1, 2]");
    }

    #[test]
    fn payload_sizes() {
        assert_eq!(Value::Null.payload_size(), 0);
        assert_eq!(Value::Int(1).payload_size(), 8);
        assert_eq!(Value::str("abc").payload_size(), 3);
    }

    #[test]
    fn double_total_order_handles_nan() {
        let nan = Value::Double(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(Value::Double(1.0) < nan);
    }
}
