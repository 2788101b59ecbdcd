//! SQL values with SQLite-style dynamic typing.

use std::cmp::Ordering;
use std::fmt;

/// A dynamically typed SQL value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit signed integer.
    Integer(i64),
    /// 64-bit float.
    Real(f64),
    /// UTF-8 text.
    Text(String),
    /// Binary blob.
    Blob(Vec<u8>),
}

impl Value {
    /// Returns true for [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns the value as an integer if it is numeric (or numeric text).
    pub fn as_integer(&self) -> Option<i64> {
        match self {
            Value::Integer(i) => Some(*i),
            Value::Real(r) => Some(*r as i64),
            Value::Text(t) => t.trim().parse().ok(),
            _ => None,
        }
    }

    /// Returns the value as a float if it is numeric (or numeric text).
    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::Integer(i) => Some(*i as f64),
            Value::Real(r) => Some(*r),
            Value::Text(t) => t.trim().parse().ok(),
            _ => None,
        }
    }

    /// SQL truthiness: NULL is unknown, numbers are true when non-zero,
    /// text is true when it parses to a non-zero number.
    pub fn truthiness(&self) -> Option<bool> {
        match self {
            Value::Null => None,
            Value::Integer(i) => Some(*i != 0),
            Value::Real(r) => Some(*r != 0.0),
            Value::Text(t) => Some(t.trim().parse::<f64>().map(|v| v != 0.0).unwrap_or(false)),
            Value::Blob(_) => Some(false),
        }
    }

    /// Storage-class rank used for cross-type ordering (SQLite rules):
    /// NULL < numeric < text < blob.
    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Integer(_) | Value::Real(_) => 1,
            Value::Text(_) => 2,
            Value::Blob(_) => 3,
        }
    }

    /// Total order over values, used by ORDER BY and index keys.
    ///
    /// Unlike SQL comparison operators this never returns "unknown":
    /// NULLs sort first, then numerics, text, blobs.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Integer(a), Value::Integer(b)) => a.cmp(b),
            (Value::Real(a), Value::Real(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Value::Integer(a), Value::Real(b)) => {
                (*a as f64).partial_cmp(b).unwrap_or(Ordering::Equal)
            }
            (Value::Real(a), Value::Integer(b)) => {
                a.partial_cmp(&(*b as f64)).unwrap_or(Ordering::Equal)
            }
            (Value::Text(a), Value::Text(b)) => a.cmp(b),
            (Value::Blob(a), Value::Blob(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }

    /// SQL `=` comparison: NULL on either side yields NULL (None).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other) == Ordering::Equal)
    }

    /// SQL ordering comparison: NULL on either side yields NULL (None).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.total_cmp(other))
    }

    /// Renders the value as SQL literal text (for debugging and golden
    /// tests).
    pub fn to_sql_literal(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Integer(i) => i.to_string(),
            Value::Real(r) => {
                if r.fract() == 0.0 && r.is_finite() {
                    format!("{r:.1}")
                } else {
                    r.to_string()
                }
            }
            Value::Text(t) => format!("'{}'", t.replace('\'', "''")),
            Value::Blob(b) => {
                let hex: String = b.iter().map(|x| format!("{x:02x}")).collect();
                format!("x'{hex}'")
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Integer(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Text(t) => f.write_str(t),
            Value::Blob(b) => write!(f, "<blob {} bytes>", b.len()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Integer(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Integer(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Integer(v as i64)
    }
}

impl From<Vec<u8>> for Value {
    fn from(v: Vec<u8>) -> Self {
        Value::Blob(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Integer(1)), None);
        assert_eq!(Value::Integer(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Null), None);
    }

    #[test]
    fn cross_type_total_order() {
        let null = Value::Null;
        let int = Value::Integer(5);
        let text = Value::Text("a".into());
        let blob = Value::Blob(vec![0]);
        assert_eq!(null.total_cmp(&int), Ordering::Less);
        assert_eq!(int.total_cmp(&text), Ordering::Less);
        assert_eq!(text.total_cmp(&blob), Ordering::Less);
    }

    #[test]
    fn numeric_affinity_in_comparison() {
        assert_eq!(Value::Integer(2).sql_cmp(&Value::Real(2.5)), Some(Ordering::Less));
        assert_eq!(Value::Real(2.0).sql_eq(&Value::Integer(2)), Some(true));
    }

    #[test]
    fn truthiness_rules() {
        assert_eq!(Value::Null.truthiness(), None);
        assert_eq!(Value::Integer(0).truthiness(), Some(false));
        assert_eq!(Value::Integer(-1).truthiness(), Some(true));
        assert_eq!(Value::Text("1".into()).truthiness(), Some(true));
        assert_eq!(Value::Text("abc".into()).truthiness(), Some(false));
    }

    #[test]
    fn sql_literal_quoting() {
        assert_eq!(Value::Text("it's".into()).to_sql_literal(), "'it''s'");
        assert_eq!(Value::Integer(7).to_sql_literal(), "7");
        assert_eq!(Value::Null.to_sql_literal(), "NULL");
        assert_eq!(Value::Blob(vec![0xab, 0x01]).to_sql_literal(), "x'ab01'");
    }

    #[test]
    fn text_to_number_coercion() {
        assert_eq!(Value::Text(" 42 ".into()).as_integer(), Some(42));
        assert_eq!(Value::Text("4.5".into()).as_real(), Some(4.5));
        assert_eq!(Value::Text("x".into()).as_integer(), None);
    }
}
