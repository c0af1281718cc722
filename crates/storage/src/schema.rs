//! Table schemas.

use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    Int,
    Float,
    Str,
}

/// A named, typed column. The name is an `Arc<str>`, so cloning a column —
/// which [`Schema::concat`] does for every column of every join, every
/// execution — is a refcount bump, not a string copy.
#[derive(Debug, Clone)]
pub struct Column {
    pub name: Arc<str>,
    pub ty: ColumnType,
}

impl Column {
    pub fn new(name: impl Into<Arc<str>>, ty: ColumnType) -> Self {
        Self {
            name: name.into(),
            ty,
        }
    }

    pub fn int(name: impl Into<Arc<str>>) -> Self {
        Self::new(name, ColumnType::Int)
    }

    pub fn float(name: impl Into<Arc<str>>) -> Self {
        Self::new(name, ColumnType::Float)
    }

    pub fn str(name: impl Into<Arc<str>>) -> Self {
        Self::new(name, ColumnType::Str)
    }
}

/// An ordered list of columns. Backed by an `Arc` slice so the executor can
/// clone schemas per operator per execution for the cost of a refcount bump.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    columns: Arc<[Column]>,
}

impl Schema {
    pub fn new(columns: Vec<Column>) -> Self {
        let mut names = std::collections::HashSet::new();
        for c in &columns {
            assert!(names.insert(&*c.name), "duplicate column {}", c.name);
        }
        Self {
            columns: columns.into(),
        }
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Index of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| &*c.name == name)
    }

    /// Index of a column by name, panicking with context if absent.
    pub fn expect_index(&self, name: &str) -> usize {
        self.index_of(name).unwrap_or_else(|| {
            panic!(
                "no column {name:?} in schema [{}]",
                self.columns
                    .iter()
                    .map(|c| &*c.name)
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
    }

    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Concatenation of two schemas (the output schema of a join), prefixing
    /// nothing: callers are expected to have disambiguated names already —
    /// `uaq_engine::validate` rejects duplicate join outputs, so only debug
    /// builds re-check. Runs per join per execution: one allocation and one
    /// refcount bump per column, no string is copied or hashed.
    pub fn concat(&self, other: &Schema) -> Schema {
        debug_assert!(
            other
                .columns
                .iter()
                .all(|c| self.index_of(&c.name).is_none()),
            "duplicate column joining {self} with {other}"
        );
        Schema {
            columns: self
                .columns
                .iter()
                .chain(other.columns.iter())
                .cloned()
                .collect(),
        }
    }

    /// Checks a row against the schema (debug validation).
    pub fn validates(&self, row: &[Value]) -> bool {
        row.len() == self.columns.len()
            && row.iter().zip(self.columns.iter()).all(|(v, c)| {
                matches!(
                    (v, c.ty),
                    (Value::Int(_), ColumnType::Int)
                        | (Value::Float(_), ColumnType::Float)
                        | (Value::Str(_), ColumnType::Str)
                )
            })
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({})",
            self.columns
                .iter()
                .map(|c| format!("{}: {:?}", c.name, c.ty))
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::int("id"),
            Column::float("price"),
            Column::str("name"),
        ])
    }

    #[test]
    fn index_lookup() {
        let s = schema();
        assert_eq!(s.index_of("price"), Some(1));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.expect_index("name"), 2);
    }

    #[test]
    #[should_panic(expected = "no column")]
    fn expect_index_panics_with_context() {
        schema().expect_index("nope");
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_rejected() {
        Schema::new(vec![Column::int("a"), Column::int("a")]);
    }

    #[test]
    fn concat_joins_schemas() {
        let a = Schema::new(vec![Column::int("a")]);
        let b = Schema::new(vec![Column::int("b"), Column::float("c")]);
        let ab = a.concat(&b);
        assert_eq!(ab.len(), 3);
        assert_eq!(ab.index_of("c"), Some(2));
    }

    #[test]
    fn validates_rows() {
        let s = schema();
        assert!(s.validates(&[Value::Int(1), Value::Float(2.0), Value::str("x")]));
        assert!(!s.validates(&[Value::Int(1), Value::Int(2), Value::str("x")]));
        assert!(!s.validates(&[Value::Int(1)]));
    }

    #[test]
    fn display_format() {
        let s = Schema::new(vec![Column::int("a")]);
        assert_eq!(s.to_string(), "(a: Int)");
    }
}
