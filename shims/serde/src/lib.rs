//! Offline shim for `serde`.
//!
//! Provides just enough of the serde surface for this workspace:
//! `#[derive(Serialize, Deserialize)]` (re-exported from the shim derive
//! crate), a [`Serialize`] trait that renders into a JSON-ish [`Value`]
//! tree, and a no-op [`Deserialize`] marker trait. `serde_json` (also a
//! shim) renders [`Value`] as real JSON text.

// Lets the generated `::serde::...` paths resolve when this crate's own
// tests use the derives.
extern crate self as serde;

pub use serde_derive::{Deserialize, Serialize};

/// A JSON-ish tree value — the serialization target of the shim.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number (rendered `null` when non-finite).
    Number(f64),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object with preserved field order.
    Object(Vec<(String, Value)>),
}

/// Tree-model serialization: types render themselves into a [`Value`].
pub trait Serialize {
    /// Converts `self` into the shim's JSON-ish tree model.
    fn to_value(&self) -> Value;
}

/// Marker trait backing `#[derive(Deserialize)]`; the workspace never
/// deserializes, so no methods are required.
pub trait Deserialize {}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

macro_rules! impl_serialize_number {
    ($($t:ty),*) => {
        $(
            impl Serialize for $t {
                fn to_value(&self) -> Value {
                    #[allow(clippy::cast_precision_loss)]
                    Value::Number(*self as f64)
                }
            }
        )*
    };
}

impl_serialize_number!(f64, f32, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            None => Value::Null,
            Some(v) => v.to_value(),
        }
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_value(&self) -> Value {
        Value::Array(vec![self.0.to_value(), self.1.to_value()])
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize, Deserialize)]
    struct Demo {
        x: f64,
        name: String,
        #[serde(skip)]
        #[allow(dead_code)] // present to prove skip works
        hidden: u32,
        items: Vec<u32>,
    }

    #[derive(Serialize, Deserialize)]
    enum Kind {
        Unit,
        Pair { a: u32, b: u32 },
        Wrap(u32),
    }

    #[derive(Serialize, Deserialize)]
    struct Newtype(u32);

    #[test]
    fn named_struct_skips_marked_fields() {
        let d = Demo {
            x: 1.5,
            name: "n".into(),
            hidden: 7,
            items: vec![1, 2],
        };
        let Value::Object(fields) = d.to_value() else {
            panic!("expected object");
        };
        let names: Vec<&str> = fields.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["x", "name", "items"]);
    }

    #[test]
    fn enum_variants_render_externally_tagged() {
        assert_eq!(Kind::Unit.to_value(), Value::String("Unit".into()));
        let Value::Object(tagged) = (Kind::Pair { a: 1, b: 2 }).to_value() else {
            panic!("expected object");
        };
        assert_eq!(tagged[0].0, "Pair");
        let Value::Object(inner) = &tagged[0].1 else {
            panic!("expected inner object");
        };
        assert_eq!(inner.len(), 2);
        let Value::Object(wrapped) = Kind::Wrap(5).to_value() else {
            panic!("expected object");
        };
        assert_eq!(wrapped[0].0, "Wrap");
    }

    #[test]
    fn newtype_is_transparent() {
        assert_eq!(Newtype(9).to_value(), Value::Number(9.0));
    }
}
