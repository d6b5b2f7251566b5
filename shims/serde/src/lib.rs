//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no access to crates.io, so this workspace ships
//! a minimal, API-compatible subset of serde: the [`Serialize`] and
//! [`Deserialize`] traits (backed by a JSON-like [`Value`] tree rather than
//! serde's visitor machinery) plus derive macros re-exported from the
//! companion `serde_derive` proc-macro crate. The surface is exactly what
//! this workspace uses — do not expect the full serde data model.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// A JSON-like value tree, the intermediate representation all
/// (de)serialization goes through.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// A floating-point number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved when serializing.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The string payload, when this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The entries, when this is an `Object`.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// The elements, when this is an `Array`.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a field of an `Object`.
    pub fn get_field(&self, name: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|entries| entries.iter().find(|(k, _)| k == name).map(|(_, v)| v))
    }
}

/// Serialization / deserialization error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl Error {
    /// Creates an error with a custom message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// A type that can be converted into a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` into a [`Value`].
    fn serialize_value(&self) -> Value;
}

/// A type that can be reconstructed from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from a [`Value`].
    fn deserialize_value(value: &Value) -> Result<Self, Error>;
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn deserialize_value(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::Int(i) => <$t>::try_from(*i)
                        .map_err(|_| Error::custom(format!("integer {i} out of range"))),
                    Value::Float(f) if f.fract() == 0.0 => Ok(*f as $t),
                    other => Err(Error::custom(format!(
                        "expected integer, found {other:?}"
                    ))),
                }
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn deserialize_value(value: &Value) -> Result<Self, Error> {
                match value {
                    Value::Float(f) => Ok(*f as $t),
                    Value::Int(i) => Ok(*i as $t),
                    Value::Null => Ok(<$t>::NAN),
                    other => Err(Error::custom(format!("expected number, found {other:?}"))),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn serialize_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::custom(format!("expected bool, found {other:?}"))),
        }
    }
}

impl Serialize for String {
    fn serialize_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::custom(format!("expected string, found {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn serialize_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn serialize_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            other => Err(Error::custom(format!("expected char, found {other:?}"))),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize_value(&self) -> Value {
        match self {
            Some(v) => v.serialize_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            other => Ok(Some(T::deserialize_value(other)?)),
        }
    }
}

/// A shared value serializes as the value it points to, so sharing never
/// shows in the output.
impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn serialize_value(&self) -> Value {
        (**self).serialize_value()
    }
}

impl<T: Deserialize> Deserialize for Arc<T> {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        T::deserialize_value(value).map(Arc::new)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::deserialize_value).collect(),
            other => Err(Error::custom(format!("expected array, found {other:?}"))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Serialize + Ord> Serialize for BTreeSet<T> {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Deserialize + Ord> Deserialize for BTreeSet<T> {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::deserialize_value).collect(),
            other => Err(Error::custom(format!("expected array, found {other:?}"))),
        }
    }
}

impl<T: Serialize + Eq + std::hash::Hash> Serialize for HashSet<T> {
    fn serialize_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize_value).collect())
    }
}

impl<T: Deserialize + Eq + std::hash::Hash> Deserialize for HashSet<T> {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => items.iter().map(T::deserialize_value).collect(),
            other => Err(Error::custom(format!("expected array, found {other:?}"))),
        }
    }
}

/// Map keys must serialize to JSON object keys, i.e. strings.
pub trait SerializeKey {
    /// The object key representing `self`.
    fn to_object_key(&self) -> String;
}

/// Reconstruction of a map key from a JSON object key.
pub trait DeserializeKey: Sized {
    /// Parses an object key back into the key type.
    fn from_object_key(key: &str) -> Result<Self, Error>;
}

impl SerializeKey for String {
    fn to_object_key(&self) -> String {
        self.clone()
    }
}

impl DeserializeKey for String {
    fn from_object_key(key: &str) -> Result<Self, Error> {
        Ok(key.to_string())
    }
}

impl<K: SerializeKey + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_object_key(), v.serialize_value()))
                .collect(),
        )
    }
}

impl<K: DeserializeKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Object(entries) => entries
                .iter()
                .map(|(k, v)| Ok((K::from_object_key(k)?, V::deserialize_value(v)?)))
                .collect(),
            other => Err(Error::custom(format!("expected object, found {other:?}"))),
        }
    }
}

impl<K: SerializeKey + Ord + std::hash::Hash, V: Serialize> Serialize for HashMap<K, V> {
    fn serialize_value(&self) -> Value {
        // Sort keys so HashMap serialization is deterministic.
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        Value::Object(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_object_key(), v.serialize_value()))
                .collect(),
        )
    }
}

impl<K: DeserializeKey + Eq + std::hash::Hash, V: Deserialize> Deserialize for HashMap<K, V> {
    fn deserialize_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Object(entries) => entries
                .iter()
                .map(|(k, v)| Ok((K::from_object_key(k)?, V::deserialize_value(v)?)))
                .collect(),
            other => Err(Error::custom(format!("expected object, found {other:?}"))),
        }
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.serialize_value()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn deserialize_value(value: &Value) -> Result<Self, Error> {
                let items = value
                    .as_array()
                    .ok_or_else(|| Error::custom("expected array for tuple"))?;
                Ok(($($name::deserialize_value(
                    items.get($idx).unwrap_or(&Value::Null),
                )?,)+))
            }
        }
    )*};
}

impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
}
