//! The [`Json`] value type.

use crate::JsonError;

/// A JSON value.
///
/// Objects preserve insertion order (a `Vec` of pairs, not a map) so that
/// serialization is deterministic and byte-stable: what the trace writer
/// emits is exactly the field order the `ToJson` impl chose. Numbers keep
/// three variants, mirroring `serde_json`'s internal representation, so
/// 64-bit integers (timestamps, ids) never pass through `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer that fits `u64`.
    U64(u64),
    /// A negative integer that fits `i64`.
    I64(i64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Shorthand for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// The boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            Json::I64(n) if *n >= 0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integer in range.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::U64(n) => i64::try_from(*n).ok(),
            Json::I64(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            Json::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// Looks up a field of an object by name.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Looks up a required object field, with a conversion error naming the
    /// missing key — the workhorse of hand-written `FromJson` impls.
    ///
    /// # Errors
    ///
    /// Fails if `self` is not an object or lacks the key.
    pub fn field(&self, key: &str) -> crate::Result<&Json> {
        match self.as_object() {
            None => Err(JsonError::conversion(format!(
                "expected an object with field `{key}`, found {}",
                self.type_name()
            ))),
            Some(_) => self
                .get(key)
                .ok_or_else(|| JsonError::conversion(format!("missing field `{key}`"))),
        }
    }

    /// A short name of the value's type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "a boolean",
            Json::U64(_) | Json::I64(_) => "an integer",
            Json::F64(_) => "a number",
            Json::Str(_) => "a string",
            Json::Array(_) => "an array",
            Json::Object(_) => "an object",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Json::Bool(true).as_bool(), Some(true));
        assert_eq!(Json::U64(5).as_u64(), Some(5));
        assert_eq!(Json::U64(5).as_i64(), Some(5));
        assert_eq!(Json::I64(-5).as_i64(), Some(-5));
        assert_eq!(Json::I64(-5).as_u64(), None);
        assert_eq!(Json::U64(5).as_f64(), Some(5.0));
        assert_eq!(Json::F64(0.5).as_f64(), Some(0.5));
        assert_eq!(Json::str("x").as_str(), Some("x"));
        assert!(Json::F64(0.5).as_u64().is_none());
    }

    #[test]
    fn field_lookup_and_errors() {
        let obj = Json::Object(vec![("a".into(), Json::U64(1))]);
        assert_eq!(obj.get("a"), Some(&Json::U64(1)));
        assert_eq!(obj.get("b"), None);
        assert_eq!(obj.field("a").unwrap(), &Json::U64(1));
        let err = obj.field("b").unwrap_err();
        assert!(err.message.contains("missing field `b`"), "{}", err.message);
        let err = Json::U64(1).field("a").unwrap_err();
        assert!(err.message.contains("expected an object"), "{}", err.message);
    }

    #[test]
    fn u64_overflowing_i64_is_none() {
        assert_eq!(Json::U64(u64::MAX).as_i64(), None);
    }
}
