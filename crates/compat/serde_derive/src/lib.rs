//! Offline stand-in for the `serde_derive` proc-macro crate: derives that
//! write a type's `to_json` / `from_json` (the `pipebd_json` data model,
//! re-exported by the `serde` facade).
//!
//! The crates.io `serde_derive` leans on `syn`/`quote`; neither is
//! available offline, so this implementation parses the derive input
//! directly from the [`proc_macro`] token tree and emits generated code as
//! source text. It supports exactly the shapes the workspace persists, in
//! the JSON layout real serde gives them:
//!
//! * structs with named fields — an object, fields in declaration order;
//! * newtype structs — the inner value, transparently;
//! * enums of unit, newtype and named-field variants — externally tagged:
//!   `"Unit"`, `{"Newtype": inner}`, `{"Named": {fields}}`.
//!
//! Anything else (unit structs, wider tuple structs, tuple variants,
//! generic types) is a `compile_error!` naming the type, and so is any
//! `#[serde(...)]` attribute: none is registered.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// The field layout of a struct or one enum variant.
enum Fields {
    /// `struct X;` or a dataless variant.
    Unit,
    /// `{ a: T, b: U }` — names in declaration order.
    Named(Vec<String>),
    /// `( T, U )` — field count.
    Tuple(usize),
}

/// The parsed derive input.
enum Item {
    Struct(Fields),
    Enum(Vec<(String, Fields)>),
}

/// Path the generated code reaches `pipebd_json` through.
const JSON: &str = "::serde::__private";

/// Header of every generated impl: keeps lints away from machine code.
const IMPL_ATTRS: &str = "#[automatically_derived]\n#[allow(clippy::all)]\n";

/// `#[derive(Serialize)]`: implements `to_json`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    expand(input, |name, item| {
        let body = match item {
            Item::Struct(Fields::Named(names)) => object(names, |f| format!("&self.{f}")),
            Item::Struct(_) => "::serde::Serialize::to_json(&self.0)".to_string(),
            Item::Enum(variants) => {
                let arms = variants.iter().map(|(v, fields)| match fields {
                    Fields::Unit => {
                        format!("{name}::{v} => {JSON}::derive::unit(\"{v}\"),")
                    }
                    Fields::Tuple(_) => {
                        let content = "::serde::Serialize::to_json(__0)";
                        format!("{name}::{v}(__0) => {},", tagged(v, content))
                    }
                    Fields::Named(names) => {
                        let content = object(names, str::to_string);
                        format!(
                            "{name}::{v} {{ {} }} => {},",
                            names.join(", "),
                            tagged(v, &content)
                        )
                    }
                });
                format!("match self {{ {} }}", arms.collect::<String>())
            }
        };
        format!(
            "{IMPL_ATTRS}impl ::serde::Serialize for {name} {{\n\
             fn to_json(&self) -> {JSON}::Value {{ {body} }}\n}}"
        )
    })
}

/// `#[derive(Deserialize)]`: implements `from_json`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    expand(input, |name, item| {
        let body = match item {
            Item::Struct(Fields::Named(names)) => {
                fields_of("__value", &format!("struct {name}"), name, names)
            }
            Item::Struct(_) => format!("Ok({name}(::serde::Deserialize::from_json(__value)?))"),
            Item::Enum(variants) => {
                let arms = variants.iter().map(|(v, fields)| match fields {
                    Fields::Unit => format!("(\"{v}\", None) => Ok({name}::{v}),"),
                    Fields::Tuple(_) => format!(
                        "(\"{v}\", Some(__content)) => \
                         Ok({name}::{v}(::serde::Deserialize::from_json(__content)?)),"
                    ),
                    Fields::Named(names) => {
                        let what = format!("struct variant {name}::{v}");
                        let ctor = format!("{name}::{v}");
                        let build = fields_of("__content", &what, &ctor, names);
                        format!("(\"{v}\", Some(__content)) => {{ {build} }}")
                    }
                });
                let tags: Vec<String> = variants.iter().map(|(v, _)| format!("\"{v}\"")).collect();
                format!(
                    "let (__tag, __content) = {JSON}::derive::variant(__value, \"{name}\")?;\n\
                     match (__tag, __content) {{ {}\n\
                     _ => Err({JSON}::derive::bad_variant(__tag, __content, &[{}])),\n}}",
                    arms.collect::<String>(),
                    tags.join(", ")
                )
            }
        };
        format!(
            "{IMPL_ATTRS}impl ::serde::Deserialize for {name} {{\n\
             fn from_json(__value: &{JSON}::Value) -> \
             ::core::result::Result<Self, {JSON}::Error> {{ {body} }}\n}}"
        )
    })
}

/// Parses the input, vets its shape and renders `generate`'s source, or
/// a `compile_error!` naming what is not supported.
fn expand(input: TokenStream, generate: impl Fn(&str, &Item) -> String) -> TokenStream {
    let code = match parse_item(input).and_then(|(name, item)| {
        let unsupported = match &item {
            Item::Struct(Fields::Unit) => Some(format!("unit struct `{name}`")),
            Item::Struct(Fields::Tuple(n)) if *n != 1 => Some(format!("tuple struct `{name}`")),
            Item::Struct(_) => None,
            Item::Enum(variants) => (variants.iter())
                .find(|(_, fields)| matches!(fields, Fields::Tuple(n) if *n != 1))
                .map(|(v, _)| format!("tuple variant `{name}::{v}`")),
        };
        match unsupported {
            Some(what) => Err(format!("{what} is not a supported shape")),
            None => Ok(generate(&name, &item)),
        }
    }) {
        Ok(code) => code,
        Err(why) => format!(
            "::core::compile_error!(\"serde_derive: {why}; derive named-field structs, \
             newtype structs, or enums of unit, newtype and named-field variants\");"
        ),
    };
    code.parse().expect("serde_derive generates valid Rust")
}

/// `{JSON}::Value::Object` of the named fields, each value read by
/// `access(field)`.
fn object(names: &[String], access: impl Fn(&str) -> String) -> String {
    let entries = names.iter().map(|f| {
        let value = access(f);
        format!("(\"{f}\".into(), ::serde::Serialize::to_json({value})),")
    });
    format!(
        "{JSON}::Value::Object(vec![{}])",
        entries.collect::<String>()
    )
}

/// `{"tag": content}`, an externally tagged variant.
fn tagged(tag: &str, content: &str) -> String {
    format!("{JSON}::derive::tagged(\"{tag}\", {content})")
}

/// Reads the named fields of `ctor` from the object `value`, refusing a
/// non-object as not `what`.
fn fields_of(value: &str, what: &str, ctor: &str, names: &[String]) -> String {
    let fields = names
        .iter()
        .map(|f| format!("{f}: {JSON}::derive::field(__entries, \"{f}\")?,"));
    format!(
        "let __entries = {JSON}::derive::object({value}, \"{what}\")?;\n\
         Ok({ctor} {{ {} }})",
        fields.collect::<String>()
    )
}

// ---------------------------------------------------------------------------
// Input parsing
// ---------------------------------------------------------------------------

/// Skips outer attributes (`#[...]`) and a visibility qualifier (`pub`,
/// `pub(crate)`, …) starting at `i`.
fn skip_attributes_and_visibility(tokens: &[TokenTree], mut i: usize) -> usize {
    loop {
        match (tokens.get(i), tokens.get(i + 1)) {
            (Some(TokenTree::Punct(p)), Some(TokenTree::Group(g)))
                if p.as_char() == '#' && g.delimiter() == Delimiter::Bracket =>
            {
                i += 2
            }
            (Some(TokenTree::Ident(id)), next) if id.to_string() == "pub" => {
                let restricted = matches!(next, Some(TokenTree::Group(g))
                    if g.delimiter() == Delimiter::Parenthesis);
                i += 1 + usize::from(restricted);
            }
            _ => return i,
        }
    }
}

/// Skips tokens up to and past the next top-level `,` (or to the end),
/// tracking angle brackets so `BTreeMap<K, V>` stays one type.
fn skip_past_comma(tokens: &[TokenTree], mut i: usize) -> usize {
    let mut angle_depth = 0i32;
    while let Some(token) = tokens.get(i) {
        i += 1;
        if let TokenTree::Punct(p) = token {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' if angle_depth > 0 => angle_depth -= 1,
                ',' if angle_depth == 0 => break,
                _ => {}
            }
        }
    }
    i
}

/// Parses the fields of a `{ ... }` or `( ... )` body.
fn parse_fields(body: Option<&TokenTree>) -> Fields {
    let Some(TokenTree::Group(g)) = body else {
        return Fields::Unit;
    };
    let tokens: Vec<TokenTree> = g.stream().into_iter().collect();
    let mut names = Vec::new();
    let mut i = skip_attributes_and_visibility(&tokens, 0);
    while i < tokens.len() {
        names.push(tokens[i].to_string());
        i = skip_attributes_and_visibility(&tokens, skip_past_comma(&tokens, i));
    }
    match g.delimiter() {
        Delimiter::Brace => Fields::Named(names),
        _ => Fields::Tuple(names.len()),
    }
}

/// Parses the derive input into its type name and [`Item`].
fn parse_item(input: TokenStream) -> Result<(String, Item), String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = skip_attributes_and_visibility(&tokens, 0);
    let kind = tokens.get(i).map(ToString::to_string).unwrap_or_default();
    let name = tokens
        .get(i + 1)
        .map(ToString::to_string)
        .unwrap_or_default();
    i += 2;
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!("generic type `{name}` is not a supported shape"));
    }
    match kind.as_str() {
        "struct" => Ok((name, Item::Struct(parse_fields(tokens.get(i))))),
        "enum" => {
            let Some(TokenTree::Group(body)) = tokens.get(i) else {
                return Err(format!("enum `{name}` has no body"));
            };
            let tokens: Vec<TokenTree> = body.stream().into_iter().collect();
            let mut variants = Vec::new();
            let mut i = skip_attributes_and_visibility(&tokens, 0);
            while i < tokens.len() {
                let fields = parse_fields(tokens.get(i + 1).filter(
                    |t| matches!(t, TokenTree::Group(g) if g.delimiter() != Delimiter::Bracket),
                ));
                variants.push((tokens[i].to_string(), fields));
                i = skip_attributes_and_visibility(&tokens, skip_past_comma(&tokens, i));
            }
            Ok((name, Item::Enum(variants)))
        }
        _ => Err(format!("`{kind} {name}` is not a struct or enum")),
    }
}
