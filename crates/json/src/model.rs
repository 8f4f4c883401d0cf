//! The data model: [`Serialize`] builds a [`Value`], [`Deserialize`] reads
//! one back, and the impls below cover the std types derived fields use.

use crate::error::Error;
use crate::value::{Number, Value};

/// A type that can be written as a JSON [`Value`].
pub trait Serialize {
    /// The value's JSON tree. Non-finite floats become `null`.
    fn to_json(&self) -> Value;
}

/// A type that can be read back from a JSON [`Value`].
pub trait Deserialize: Sized {
    /// Reads `Self` from `value`.
    ///
    /// # Errors
    ///
    /// [`Error::Message`] when `value` does not describe a `Self`: a wrong
    /// kind, an out-of-range number, a missing or duplicate field, an
    /// unknown variant.
    fn from_json(value: &Value) -> Result<Self, Error>;
}

impl Serialize for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

impl Serialize for bool {
    fn to_json(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_json(value: &Value) -> Result<Self, Error> {
        value
            .as_bool()
            .ok_or_else(|| Error::invalid_type(value, "a boolean"))
    }
}

macro_rules! integers {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_json(&self) -> Value {
                let v = *self as i128;
                Value::Number(u64::try_from(v).map_or(Number::NegInt(v as i64), Number::PosInt))
            }
        }

        impl Deserialize for $ty {
            fn from_json(value: &Value) -> Result<Self, Error> {
                let v = match value {
                    Value::Number(Number::PosInt(v)) => i128::from(*v),
                    Value::Number(Number::NegInt(v)) => i128::from(*v),
                    _ => {
                        let expected = concat!("an integer fitting ", stringify!($ty));
                        return Err(Error::invalid_type(value, expected));
                    }
                };
                <$ty>::try_from(v).map_err(|_| {
                    Error::Message(format!(
                        concat!("invalid value: integer `{}`, expected ", stringify!($ty)),
                        v
                    ))
                })
            }
        }
    )*};
}

integers!(i8, i64, u8, u32, u64, usize);

impl Serialize for f64 {
    fn to_json(&self) -> Value {
        Number::from_f64(*self).map_or(Value::Null, Value::Number)
    }
}

impl Serialize for f32 {
    /// Stores the `f64` the shortest `f32` text reparses to, so the tree
    /// renders as that text and narrows back to the same bits.
    fn to_json(&self) -> Value {
        if !self.is_finite() {
            return Value::Null;
        }
        let reparsed = self
            .to_string()
            .parse()
            .expect("a finite float's text parses");
        Value::Number(Number::Float(reparsed))
    }
}

macro_rules! floats {
    ($($ty:ty),*) => {$(
        impl Deserialize for $ty {
            /// Any number converts; `null` is refused, and so is a number
            /// that narrows to an infinity (a non-finite float never loads).
            fn from_json(value: &Value) -> Result<Self, Error> {
                let Value::Number(n) = value else {
                    let expected = concat!("a number convertible to ", stringify!($ty));
                    return Err(Error::invalid_type(value, expected));
                };
                let v = match *n {
                    Number::PosInt(v) => v as $ty,
                    Number::NegInt(v) => v as $ty,
                    Number::Float(v) => v as $ty,
                };
                if v.is_infinite() {
                    return Err(Error::Message(format!(
                        concat!("invalid value: number `{:e}`, expected a finite ", stringify!($ty)),
                        n.as_f64()
                    )));
                }
                Ok(v)
            }
        }
    )*};
}

floats!(f32, f64);

impl Serialize for String {
    fn to_json(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_json(value: &Value) -> Result<Self, Error> {
        (value.as_str().map(str::to_owned)).ok_or_else(|| Error::invalid_type(value, "a string"))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json(&self) -> Value {
        self.as_ref().map_or(Value::Null, T::to_json)
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Null => Ok(None),
            value => T::from_json(value).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json(&self) -> Value {
        Value::Array(self.iter().map(T::to_json).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json(value: &Value) -> Result<Self, Error> {
        let items = (value.as_array()).ok_or_else(|| Error::invalid_type(value, "a sequence"))?;
        items.iter().map(T::from_json).collect()
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_json(&self) -> Value {
        Value::Array(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_json(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Array(items) => match &items[..] {
                [a, b, ..] => Ok((A::from_json(a)?, B::from_json(b)?)),
                _ => Err(Error::Message(format!(
                    "invalid length {}, expected a pair",
                    items.len()
                ))),
            },
            _ => Err(Error::invalid_type(value, "a two-element sequence")),
        }
    }
}
