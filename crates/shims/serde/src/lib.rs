//! Offline shim for `serde`.
//!
//! The real serde models serialization as a visitor over data formats. This
//! workspace only ever serializes to and from JSON (via the sibling
//! `serde_json` shim), so the shim collapses the design to a single JSON
//! value tree: [`Serialize`] renders into a [`Json`], [`Deserialize`] reads
//! back out of one. The derive macros (from the sibling `serde_derive`
//! proc-macro shim) generate impls matching serde's *externally tagged*
//! JSON representation, so JSON produced by real serde for these types is
//! accepted and vice versa:
//!
//! - named-field struct → object
//! - newtype struct → the inner value
//! - unit enum variant → `"Variant"`
//! - newtype enum variant → `{"Variant": value}`
//! - tuple enum variant → `{"Variant": [..]}`
//! - struct enum variant → `{"Variant": {..}}`

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// A JSON value tree. Integers keep 64-bit precision (as in serde_json);
/// floats use the shortest round-trip decimal rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer.
    U64(u64),
    /// Negative integer.
    I64(i64),
    /// Finite float.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Json>),
    /// Object with insertion-ordered keys (serde_json's default preserves
    /// order too).
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The object fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value widened to f64, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::I64(n) => Some(*n as f64),
            Json::F64(n) => Some(*n),
            _ => None,
        }
    }

    /// Unsigned integer value, if losslessly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            Json::I64(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// Signed integer value, if losslessly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::I64(n) => Some(*n),
            Json::U64(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The bool, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Types renderable into a [`Json`] tree.
pub trait Serialize {
    /// Renders `self` as a JSON value.
    fn to_json(&self) -> Json;
}

/// Types reconstructible from a [`Json`] tree.
pub trait Deserialize: Sized {
    /// Parses `self` out of a JSON value.
    fn from_json(value: &Json) -> Result<Self, String>;
}

impl Serialize for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl Deserialize for Json {
    fn from_json(value: &Json) -> Result<Self, String> {
        Ok(value.clone())
    }
}

// --- primitive impls -------------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Json { Json::U64(*self as u64) }
        }
        impl Deserialize for $t {
            fn from_json(v: &Json) -> Result<Self, String> {
                v.as_u64()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| format!("expected {}, got {v:?}", stringify!($t)))
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Json {
                let n = *self as i64;
                if n >= 0 { Json::U64(n as u64) } else { Json::I64(n) }
            }
        }
        impl Deserialize for $t {
            fn from_json(v: &Json) -> Result<Self, String> {
                v.as_i64()
                    .and_then(|n| <$t>::try_from(n).ok())
                    .ok_or_else(|| format!("expected {}, got {v:?}", stringify!($t)))
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json(&self) -> Json { Json::F64(*self as f64) }
        }
        impl Deserialize for $t {
            fn from_json(v: &Json) -> Result<Self, String> {
                v.as_f64().map(|n| n as $t)
                    .ok_or_else(|| format!("expected {}, got {v:?}", stringify!($t)))
            }
        }
    )*};
}
impl_float!(f32, f64);

impl Serialize for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}
impl Deserialize for bool {
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_bool().ok_or_else(|| format!("expected bool, got {v:?}"))
    }
}

impl Serialize for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}
impl Deserialize for String {
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_str().map(String::from).ok_or_else(|| format!("expected string, got {v:?}"))
    }
}

impl Serialize for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl Serialize for Arc<str> {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}
impl Deserialize for Arc<str> {
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_str().map(Arc::from).ok_or_else(|| format!("expected string, got {v:?}"))
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl Serialize for char {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

// --- container impls -------------------------------------------------------

impl<T: Serialize> Serialize for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json(v: &Json) -> Result<Self, String> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(Serialize::to_json).collect())
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_array()
            .ok_or_else(|| format!("expected array, got {v:?}"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl<T: Serialize> Serialize for Arc<[T]> {
    fn to_json(&self) -> Json {
        self[..].to_json()
    }
}
impl<T: Deserialize> Deserialize for Arc<[T]> {
    fn from_json(v: &Json) -> Result<Self, String> {
        Vec::<T>::from_json(v).map(Arc::from)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_json(&self) -> Json {
        Json::Array(self.iter().map(Serialize::to_json).collect())
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Object(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}
impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_json(v: &Json) -> Result<Self, String> {
        v.as_object()
            .ok_or_else(|| format!("expected object, got {v:?}"))?
            .iter()
            .map(|(k, v)| Ok((k.clone(), V::from_json(v)?)))
            .collect()
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_json(&self) -> Json {
        // Sorted for deterministic output.
        let mut fields: Vec<(String, Json)> =
            self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect();
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        Json::Object(fields)
    }
}

macro_rules! impl_tuple {
    ($(($($name:ident : $idx:tt),+))*) => {$(
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_json(&self) -> Json {
                Json::Array(vec![$(self.$idx.to_json()),+])
            }
        }
        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_json(v: &Json) -> Result<Self, String> {
                let items = v.as_array().ok_or_else(|| format!("expected array, got {v:?}"))?;
                let expected = [$($idx),+].len();
                if items.len() != expected {
                    return Err(format!("expected {expected}-tuple, got {} items", items.len()));
                }
                Ok(($($name::from_json(&items[$idx])?,)+))
            }
        }
    )*};
}
impl_tuple! {
    (A: 0)
    (A: 0, B: 1)
    (A: 0, B: 1, C: 2)
    (A: 0, B: 1, C: 2, D: 3)
    (A: 0, B: 1, C: 2, D: 3, E: 4)
    (A: 0, B: 1, C: 2, D: 3, E: 4, F: 5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u32::from_json(&42u32.to_json()), Ok(42));
        assert_eq!(i64::from_json(&(-7i64).to_json()), Ok(-7));
        assert_eq!(f64::from_json(&1.5f64.to_json()), Ok(1.5));
        assert_eq!(bool::from_json(&true.to_json()), Ok(true));
        assert_eq!(String::from_json(&"hi".to_string().to_json()), Ok("hi".to_string()));
        assert!(u8::from_json(&Json::U64(300)).is_err());
    }

    #[test]
    fn shared_str_round_trips_as_a_string() {
        let ua: Arc<str> = Arc::from("Mozilla/5.0 (Mobile; \"html5\")");
        assert_eq!(ua.to_json(), String::from(&*ua).to_json());
        assert_eq!(Arc::<str>::from_json(&ua.to_json()), Ok(ua));
        assert!(Arc::<str>::from_json(&Json::U64(1)).is_err());
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![(1u32, "a".to_string()), (2, "b".to_string())];
        assert_eq!(Vec::<(u32, String)>::from_json(&v.to_json()), Ok(v));
        let none: Option<u32> = None;
        assert_eq!(Option::<u32>::from_json(&none.to_json()), Ok(None));
        assert_eq!(Option::<u32>::from_json(&Some(3u32).to_json()), Ok(Some(3)));
    }

    #[test]
    fn object_get() {
        let obj = Json::Object(vec![("a".into(), Json::U64(1))]);
        assert_eq!(obj.get("a"), Some(&Json::U64(1)));
        assert_eq!(obj.get("b"), None);
    }
}
