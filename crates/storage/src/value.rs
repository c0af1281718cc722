//! Runtime values. The engine is typed but deliberately small: 64-bit
//! integers (also used for dictionary-encoded dates), 64-bit floats, and
//! interned strings cover every column of the TPC-H-like schema.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A single column value.
#[derive(Debug, Clone)]
pub enum Value {
    Int(i64),
    Float(f64),
    Str(Arc<str>),
}

impl Value {
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    pub fn as_int(&self) -> i64 {
        match self {
            Value::Int(v) => *v,
            other => panic!("expected Int, got {other:?}"),
        }
    }

    pub fn as_float(&self) -> f64 {
        match self {
            Value::Float(v) => *v,
            Value::Int(v) => *v as f64,
            other => panic!("expected numeric, got {other:?}"),
        }
    }

    pub fn as_str(&self) -> &str {
        match self {
            Value::Str(s) => s,
            other => panic!("expected Str, got {other:?}"),
        }
    }

    /// Numeric view used by histograms; strings have no numeric view.
    pub fn numeric(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Str(_) => None,
        }
    }

    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "Int",
            Value::Float(_) => "Float",
            Value::Str(_) => "Str",
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                (*a as f64).to_bits() == b.to_bits()
            }
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            // Ints and whole floats that compare equal must hash equally.
            Value::Int(v) => (*v as f64).to_bits().hash(state),
            Value::Float(v) => v.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) => {
                let (x, y) = (
                    a.numeric()
                        .unwrap_or_else(|| panic!("cannot order {a:?} vs {b:?}")),
                    b.numeric()
                        .unwrap_or_else(|| panic!("cannot order {a:?} vs {b:?}")),
                );
                order_f64(x, y)
            }
        }
    }
}

/// The engine's one float ordering: `partial_cmp`, so `-0.0` and `0.0`
/// order as equal (unlike `total_cmp`) even though [`Value`] *equality* is
/// bit equality. NaN has no order and panics here; `uaq_engine::validate`
/// rejects NaN literals in ordering predicates before they can reach it.
#[inline]
pub fn order_f64(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).expect("NaN in ordered value")
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

/// A row of values.
pub type Row = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn int_float_cross_equality_and_hash() {
        assert_eq!(Value::Int(3), Value::Float(3.0));
        assert_eq!(hash_of(&Value::Int(3)), hash_of(&Value::Float(3.0)));
        assert_ne!(Value::Int(3), Value::Float(3.5));
    }

    #[test]
    fn ordering() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::Float(1.5) < Value::Int(2));
        assert!(Value::str("apple") < Value::str("banana"));
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Int(4).numeric(), Some(4.0));
        assert_eq!(Value::Float(2.5).numeric(), Some(2.5));
        assert_eq!(Value::str("x").numeric(), None);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), 7);
        assert_eq!(Value::Int(7).as_float(), 7.0);
        assert_eq!(Value::str("hi").as_str(), "hi");
    }

    #[test]
    #[should_panic]
    fn as_int_on_str_panics() {
        Value::str("oops").as_int();
    }

    #[test]
    fn display() {
        assert_eq!(Value::Int(-4).to_string(), "-4");
        assert_eq!(Value::str("abc").to_string(), "abc");
    }
}
