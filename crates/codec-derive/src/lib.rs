//! `#[derive(Codec)]` — implements `legosdn_codec::Codec` for structs and
//! enums.
//!
//! Hand-rolled over raw `proc_macro::TokenTree`s because the build
//! environment has no registry access (no `syn`/`quote`). Supported shapes
//! cover everything the workspace serializes:
//!
//! - named-field structs, tuple structs, unit structs
//! - enums with unit / tuple / struct variants (encoded as a `u32` variant
//!   index followed by the fields in order)
//! - `#[codec(skip)]` on a named field: not encoded, `Default::default()`
//!   on decode
//!
//! Generic type parameters are intentionally unsupported — no workspace
//! snapshot type needs them, and rejecting them keeps the parser honest.

#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive `legosdn_codec::Codec` for a struct or enum.
#[proc_macro_derive(Codec, attributes(codec))]
pub fn derive_codec(input: TokenStream) -> TokenStream {
    match generate(input) {
        Ok(code) => code.parse().expect("generated impl parses"),
        Err(msg) => format!("compile_error!({msg:?});").parse().unwrap(),
    }
}

const TRAIT: &str = "::legosdn_codec::Codec";
const ERR: &str = "::legosdn_codec::CodecError";

fn generate(input: TokenStream) -> Result<String, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    // Skip outer attributes and visibility.
    skip_attrs_and_vis(&tokens, &mut i);

    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) if id.to_string() == "struct" => "struct",
        Some(TokenTree::Ident(id)) if id.to_string() == "enum" => "enum",
        other => return Err(format!("expected struct or enum, found {other:?}")),
    };
    i += 1;

    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, found {other:?}")),
    };
    i += 1;

    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "#[derive(Codec)] does not support generics (on `{name}`)"
        ));
    }

    if kind == "struct" {
        match tokens.get(i) {
            // Unit struct: `struct X;`
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Ok(unit_struct_impl(&name)),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let fields = parse_named_fields(g.stream())?;
                Ok(named_struct_impl(&name, &fields))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let n = count_tuple_fields(g.stream());
                Ok(tuple_struct_impl(&name, n))
            }
            other => Err(format!("unexpected struct body for `{name}`: {other:?}")),
        }
    } else {
        match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let variants = parse_variants(g.stream())?;
                if variants.is_empty() {
                    return Err(format!("cannot derive Codec for empty enum `{name}`"));
                }
                Ok(enum_impl(&name, &variants))
            }
            other => Err(format!("expected enum body for `{name}`, found {other:?}")),
        }
    }
}

fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            // `#[...]`
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 2; // '#' + bracket group
            }
            // `pub` possibly followed by `(crate)` / `(super)` / `(in ...)`
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g))
                    if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1;
                }
            }
            _ => return,
        }
    }
}

/// Split a token sequence at top-level commas. Groups are atomic token
/// trees, so only `<`/`>` generic angles need depth tracking.
fn split_top_level(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut parts = vec![Vec::new()];
    let mut angle_depth = 0i32;
    for tt in stream {
        match &tt {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle_depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                parts.push(Vec::new());
                continue;
            }
            _ => {}
        }
        parts.last_mut().unwrap().push(tt);
    }
    if parts.last().is_some_and(Vec::is_empty) {
        parts.pop();
    }
    parts
}

/// Whether the leading attributes of a field contain `#[codec(skip)]`.
fn has_skip_attr(tokens: &[TokenTree], i: &mut usize) -> bool {
    let mut skip = false;
    while matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        if let Some(TokenTree::Group(g)) = tokens.get(*i + 1) {
            let inner: Vec<String> = g.stream().into_iter().map(|t| t.to_string()).collect();
            if inner.first().map(String::as_str) == Some("codec")
                && inner.get(1).is_some_and(|s| s.contains("skip"))
            {
                skip = true;
            }
        }
        *i += 2;
    }
    skip
}

struct Field {
    name: String,
    skip: bool,
}

fn parse_named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let mut fields = Vec::new();
    for part in split_top_level(stream) {
        let mut i = 0;
        let skip = has_skip_attr(&part, &mut i);
        skip_attrs_and_vis(&part, &mut i);
        let name = match part.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected field name, found {other:?}")),
        };
        fields.push(Field { name, skip });
    }
    Ok(fields)
}

fn count_tuple_fields(stream: TokenStream) -> usize {
    split_top_level(stream).len()
}

enum VariantFields {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    fields: VariantFields,
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let mut variants = Vec::new();
    for part in split_top_level(stream) {
        let mut i = 0;
        skip_attrs_and_vis(&part, &mut i);
        let name = match part.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected variant name, found {other:?}")),
        };
        i += 1;
        let fields = match part.get(i) {
            None => VariantFields::Unit,
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                VariantFields::Tuple(count_tuple_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                VariantFields::Named(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                return Err(format!(
                    "explicit discriminants are unsupported (variant `{name}`)"
                ));
            }
            other => {
                return Err(format!(
                    "unexpected tokens after variant `{name}`: {other:?}"
                ))
            }
        };
        variants.push(Variant { name, fields });
    }
    Ok(variants)
}

fn impl_header(name: &str, encode_body: &str, decode_body: &str) -> String {
    format!(
        "#[automatically_derived]\n\
         impl {TRAIT} for {name} {{\n\
             fn encode(&self, out: &mut ::std::vec::Vec<u8>) {{ {encode_body} }}\n\
             fn decode(r: &mut ::legosdn_codec::Reader<'_>) \
                 -> ::std::result::Result<Self, {ERR}> {{ {decode_body} }}\n\
         }}"
    )
}

fn unit_struct_impl(name: &str) -> String {
    impl_header(
        name,
        "let _ = out;",
        &format!("let _ = r; ::std::result::Result::Ok({name})"),
    )
}

fn named_struct_impl(name: &str, fields: &[Field]) -> String {
    let mut enc = String::from("let _ = &out;");
    let mut dec = String::from("::std::result::Result::Ok(Self {");
    for f in fields {
        if f.skip {
            dec.push_str(&format!("{}: ::std::default::Default::default(),", f.name));
        } else {
            enc.push_str(&format!("{TRAIT}::encode(&self.{}, out);", f.name));
            dec.push_str(&format!("{}: <_ as {TRAIT}>::decode(r)?,", f.name));
        }
    }
    dec.push_str("})");
    impl_header(name, &enc, &dec)
}

fn tuple_struct_impl(name: &str, n: usize) -> String {
    let mut enc = String::from("let _ = &out;");
    let mut dec = String::from("::std::result::Result::Ok(Self(");
    for i in 0..n {
        enc.push_str(&format!("{TRAIT}::encode(&self.{i}, out);"));
        dec.push_str(&format!("<_ as {TRAIT}>::decode(r)?,"));
    }
    dec.push_str("))");
    impl_header(name, &enc, &dec)
}

fn enum_impl(name: &str, variants: &[Variant]) -> String {
    let mut enc = String::from("match self {");
    let mut dec = format!("match <u32 as {TRAIT}>::decode(r)? {{");
    for (idx, v) in variants.iter().enumerate() {
        let vname = &v.name;
        match &v.fields {
            VariantFields::Unit => {
                enc.push_str(&format!(
                    "{name}::{vname} => {{ {TRAIT}::encode(&{idx}u32, out); }}"
                ));
                dec.push_str(&format!(
                    "{idx}u32 => ::std::result::Result::Ok({name}::{vname}),"
                ));
            }
            VariantFields::Tuple(n) => {
                let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                enc.push_str(&format!(
                    "{name}::{vname}({}) => {{ {TRAIT}::encode(&{idx}u32, out); {} }}",
                    binds.join(","),
                    binds
                        .iter()
                        .map(|b| format!("{TRAIT}::encode({b}, out);"))
                        .collect::<String>()
                ));
                dec.push_str(&format!(
                    "{idx}u32 => ::std::result::Result::Ok({name}::{vname}({})),",
                    (0..*n)
                        .map(|_| format!("<_ as {TRAIT}>::decode(r)?,"))
                        .collect::<String>()
                ));
            }
            VariantFields::Named(fields) => {
                let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                enc.push_str(&format!(
                    "{name}::{vname} {{ {} }} => {{ {TRAIT}::encode(&{idx}u32, out); {} }}",
                    binds.join(","),
                    fields
                        .iter()
                        .filter(|f| !f.skip)
                        .map(|f| format!("{TRAIT}::encode({}, out);", f.name))
                        .collect::<String>()
                ));
                let field_decs: String = fields
                    .iter()
                    .map(|f| {
                        if f.skip {
                            format!("{}: ::std::default::Default::default(),", f.name)
                        } else {
                            format!("{}: <_ as {TRAIT}>::decode(r)?,", f.name)
                        }
                    })
                    .collect();
                dec.push_str(&format!(
                    "{idx}u32 => ::std::result::Result::Ok({name}::{vname} {{ {field_decs} }}),"
                ));
            }
        }
    }
    enc.push('}');
    dec.push_str(&format!(
        "v => ::std::result::Result::Err({ERR}::Invalid(\
             ::std::format!(\"variant {{v}} out of range for {name}\"))),\
         }}"
    ));
    impl_header(name, &enc, &dec)
}
