//! What `#[derive(Serialize, Deserialize)]` expands to calls: the field
//! lookup of a struct, and both sides of the externally tagged enum
//! layout (the tag split on read, the tagged value on write), which is
//! defined here and nowhere else.

use crate::error::Error;
use crate::model::Deserialize;
use crate::value::Value;

/// The entries of `value` as an object, or a type error expecting `what`.
///
/// # Errors
///
/// When `value` is not an object.
pub fn object<'a>(value: &'a Value, what: &str) -> Result<&'a [(String, Value)], Error> {
    value
        .as_object()
        .ok_or_else(|| Error::invalid_type(value, what))
}

/// Reads field `name` from an object's entries. Exactly one entry may
/// carry the name; entries under other names are skipped.
///
/// # Errors
///
/// A missing or duplicate field, or one `T` cannot read.
pub fn field<T: Deserialize>(entries: &[(String, Value)], name: &str) -> Result<T, Error> {
    let mut hits = entries.iter().filter(|(key, _)| key == name);
    match (hits.next(), hits.next()) {
        (Some((_, value)), None) => T::from_json(value),
        (None, _) => Err(Error::Message(format!("missing field `{name}`"))),
        (Some(_), Some(_)) => Err(Error::Message(format!("duplicate field `{name}`"))),
    }
}

/// Splits a value of enum `name` into its variant tag and content: a
/// unit variant is its tag, `"Tag"`; any other is `{"Tag": content}`.
///
/// # Errors
///
/// When `value` is neither a string nor a single-key object.
pub fn variant<'a>(value: &'a Value, name: &str) -> Result<(&'a str, Option<&'a Value>), Error> {
    match value {
        Value::String(tag) => Ok((tag, None)),
        Value::Object(entries) if entries.len() == 1 => Ok((&entries[0].0, Some(&entries[0].1))),
        _ => Err(Error::invalid_type(
            value,
            &format!("enum {name} (a variant string or single-key object)"),
        )),
    }
}

/// The error for a tag and content no variant of `variants` matched: an
/// unknown tag, content on a unit variant, or none on another variant.
pub fn bad_variant(tag: &str, content: Option<&Value>, variants: &[&str]) -> Error {
    match content {
        _ if !variants.contains(&tag) => Error::Message(format!(
            "unknown variant `{tag}`, expected one of {variants:?}"
        )),
        Some(content) => Error::invalid_type(content, "no content (unit variant)"),
        None => Error::Message(format!("expected content for variant `{tag}`")),
    }
}

/// A unit variant of an externally tagged enum: its tag, `"Tag"`.
pub fn unit(tag: &str) -> Value {
    Value::String(tag.into())
}

/// A data variant of an externally tagged enum: `{"Tag": content}`.
pub fn tagged(tag: &str, content: Value) -> Value {
    Value::Object(vec![(tag.into(), content)])
}
