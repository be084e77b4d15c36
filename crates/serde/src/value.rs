//! The JSON data model: [`Value`], [`Number`], and an insertion-ordered
//! [`Map`].

use std::fmt;

/// A JSON number. Integers keep their exact representation so that `u64`
/// counters survive a round-trip without passing through `f64`.
#[derive(Debug, Clone, Copy)]
pub enum Number {
    /// Non-negative integer literal.
    U64(u64),
    /// Negative integer literal.
    I64(i64),
    /// Anything with a fraction or exponent.
    F64(f64),
}

impl Number {
    /// The number as an `f64` (lossy for very large integers).
    pub fn as_f64(self) -> f64 {
        match self {
            Number::U64(x) => x as f64,
            Number::I64(x) => x as f64,
            Number::F64(x) => x,
        }
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (Number::U64(a), Number::U64(b)) => a == b,
            (Number::I64(a), Number::I64(b)) => a == b,
            (Number::F64(a), Number::F64(b)) => a == b,
            // Mixed integer comparisons promote to i128.
            (Number::U64(a), Number::I64(b)) | (Number::I64(b), Number::U64(a)) => {
                a as i128 == b as i128
            }
            (a @ Number::F64(_), b) | (b, a @ Number::F64(_)) => a.as_f64() == b.as_f64(),
        }
    }
}

/// An insertion-ordered string→value map. JSON objects in this workspace are
/// small (struct fields), so linear lookup beats hashing and — more
/// importantly — serialization output is deterministic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map {
    entries: Vec<(String, Value)>,
}

impl Map {
    /// Creates an empty map.
    pub fn new() -> Self {
        Map::default()
    }

    /// Appends a key/value pair (replaces an existing key).
    pub fn insert(&mut self, key: impl Into<String>, value: Value) {
        let key = key.into();
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.entries.push((key, value));
        }
    }

    /// Looks up a key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over entries in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Iterates over the values mutably, in entry order.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut Value> {
        self.entries.iter_mut().map(|(_, v)| v)
    }

    /// Sorts the entries by key.
    pub fn sort_keys(&mut self) {
        self.entries.sort_by(|a, b| a.0.cmp(&b.0));
    }
}

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Numeric literal.
    Number(Number),
    /// String literal.
    String(String),
    /// `[ ... ]`
    Array(Vec<Value>),
    /// `{ ... }`
    Object(Map),
}

impl Value {
    /// A short name for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "boolean",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// The object map, if this is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// The numeric value as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(Number::U64(x)) => Some(*x),
            Value::Number(Number::I64(x)) => u64::try_from(*x).ok(),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::text::write_value(f, self)
    }
}
