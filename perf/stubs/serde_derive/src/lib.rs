//! `#[derive(Serialize, Deserialize)]` for the offline serde stand-in.
//!
//! Written against `proc_macro` alone (no `syn`/`quote`, which the offline
//! container does not have): the item is parsed just far enough to learn
//! its shape — field names, tuple arity, variant kinds and the two
//! supported `#[serde(...)]` attributes — and the impl is emitted as source
//! text. Field types are never needed: the generated code lets inference
//! pick the `Serialize`/`Deserialize` impl from the field's declared type.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Default)]
struct Attrs {
    default: bool,
    rename_all: Option<String>,
}

enum Fields {
    Unit,
    Tuple(usize),
    Named(Vec<(String, bool)>),
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Shape {
    Struct(Fields),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    rename_all: Option<String>,
    shape: Shape,
}

/// Fold one `#[...]` attribute body into `attrs` if it is `serde(...)`.
fn read_attr(body: TokenStream, attrs: &mut Attrs) {
    let mut it = body.into_iter();
    match it.next() {
        Some(TokenTree::Ident(i)) if i.to_string() == "serde" => {}
        _ => return,
    }
    let Some(TokenTree::Group(args)) = it.next() else { return };
    let toks: Vec<TokenTree> = args.stream().into_iter().collect();
    let mut i = 0;
    while i < toks.len() {
        if let TokenTree::Ident(id) = &toks[i] {
            match id.to_string().as_str() {
                "default" => attrs.default = true,
                "rename_all" => {
                    if let Some(TokenTree::Literal(l)) = toks.get(i + 2) {
                        attrs.rename_all = Some(l.to_string().trim_matches('"').to_string());
                    }
                    i += 2;
                }
                other => panic!("serde stand-in: unsupported attribute `{other}`"),
            }
        }
        i += 1;
    }
}

/// Consume leading `#[...]` attributes and a visibility qualifier.
fn skip_attrs_and_vis(toks: &[TokenTree], i: &mut usize) -> Attrs {
    let mut attrs = Attrs::default();
    loop {
        match toks.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = toks.get(*i + 1) {
                    read_attr(g.stream(), &mut attrs);
                }
                *i += 2;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if let Some(TokenTree::Group(g)) = toks.get(*i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        *i += 1;
                    }
                }
            }
            _ => return attrs,
        }
    }
}

/// Split a field list at top-level commas (angle brackets are not token
/// groups, so their depth is tracked by hand).
fn split_commas(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut parts = vec![Vec::new()];
    let mut depth = 0i32;
    let mut prev_dash = false;
    for tok in stream {
        if let TokenTree::Punct(p) = &tok {
            match p.as_char() {
                '<' => depth += 1,
                '>' if !prev_dash => depth -= 1,
                ',' if depth == 0 => {
                    parts.push(Vec::new());
                    prev_dash = false;
                    continue;
                }
                _ => {}
            }
            prev_dash = p.as_char() == '-';
        } else {
            prev_dash = false;
        }
        parts.last_mut().unwrap().push(tok);
    }
    if parts.last().is_some_and(|p| p.is_empty()) {
        parts.pop();
    }
    parts
}

fn named_fields(stream: TokenStream) -> Vec<(String, bool)> {
    split_commas(stream)
        .into_iter()
        .map(|part| {
            let mut i = 0;
            let attrs = skip_attrs_and_vis(&part, &mut i);
            match part.get(i) {
                Some(TokenTree::Ident(id)) => (id.to_string(), attrs.default),
                other => panic!("serde stand-in: expected a field name, found {other:?}"),
            }
        })
        .collect()
}

fn fields_of(group: Option<&TokenTree>) -> Fields {
    match group {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
            Fields::Named(named_fields(g.stream()))
        }
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
            Fields::Tuple(split_commas(g.stream()).len())
        }
        _ => Fields::Unit,
    }
}

fn parse(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let attrs = skip_attrs_and_vis(&toks, &mut i);
    let kind = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde stand-in: expected `struct` or `enum`, found {other:?}"),
    };
    let name = match toks.get(i + 1) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde stand-in: expected a type name, found {other:?}"),
    };
    i += 2;
    if let Some(TokenTree::Punct(p)) = toks.get(i) {
        if p.as_char() == '<' {
            panic!("serde stand-in: generic type `{name}` is not supported");
        }
    }
    let shape = match kind.as_str() {
        "struct" => Shape::Struct(fields_of(toks.get(i))),
        "enum" => {
            let Some(TokenTree::Group(body)) = toks.get(i) else {
                panic!("serde stand-in: enum `{name}` has no body");
            };
            let variants = split_commas(body.stream())
                .into_iter()
                .map(|part| {
                    let mut j = 0;
                    skip_attrs_and_vis(&part, &mut j);
                    let vname = match part.get(j) {
                        Some(TokenTree::Ident(id)) => id.to_string(),
                        other => panic!("serde stand-in: expected a variant, found {other:?}"),
                    };
                    Variant { name: vname, fields: fields_of(part.get(j + 1)) }
                })
                .collect();
            Shape::Enum(variants)
        }
        other => panic!("serde stand-in: cannot derive for `{other}`"),
    };
    Item { name, rename_all: attrs.rename_all, shape }
}

fn rename(name: &str, rule: Option<&str>) -> String {
    match rule {
        None => name.to_string(),
        Some("lowercase") => name.to_lowercase(),
        Some("snake_case") => {
            let mut out = String::new();
            for (i, c) in name.chars().enumerate() {
                if c.is_uppercase() && i > 0 {
                    out.push('_');
                }
                out.extend(c.to_lowercase());
            }
            out
        }
        Some(other) => panic!("serde stand-in: unsupported rename_all = \"{other}\""),
    }
}

/// Statements writing `fields` of the value reachable through `access`
/// (`&self.` for structs, `` for bound variant fields).
fn write_named(fields: &[(String, bool)], access: &str) -> String {
    let mut s = String::from("w.begin_object();");
    for (f, _) in fields {
        s += &format!("w.key(\"{f}\"); ::serde::Serialize::serialize({access}{f}, w);");
    }
    s + "w.end_object();"
}

/// An expression reading an object into `ctor { field: value, ... }`.
fn read_named(ctor: &str, fields: &[(String, bool)]) -> String {
    let mut s = String::from("{ p.begin_object()?;");
    for (f, _) in fields {
        s += &format!("let mut f_{f} = ::core::option::Option::None;");
    }
    s += "let mut first = true; while p.next_member(&mut first)? { let key = p.string()?; p.colon()?; match &*key {";
    for (f, _) in fields {
        s += &format!(
            "\"{f}\" => f_{f} = ::core::option::Option::Some(::serde::Deserialize::deserialize(p)?),"
        );
    }
    s += "_ => p.skip_value()?, } }";
    s += &format!("{ctor} {{");
    for (f, default) in fields {
        let missing = if *default {
            "::core::default::Default::default()".to_string()
        } else {
            format!("::serde::Deserialize::missing_field(\"{f}\", p)?")
        };
        s += &format!(
            "{f}: match f_{f} {{ ::core::option::Option::Some(v) => v, ::core::option::Option::None => {missing} }},"
        );
    }
    s + "} }"
}

/// An expression reading a JSON array into `ctor(a, b, ...)`; a single
/// field is transparent (newtype).
fn read_tuple(ctor: &str, n: usize) -> String {
    if n == 1 {
        return format!("{ctor}(::serde::Deserialize::deserialize(p)?)");
    }
    let mut s = String::from("{ p.begin_array()?; let mut first = true; let v = ");
    s += &format!("{ctor}(");
    for _ in 0..n {
        s += "if p.next_element(&mut first)? { ::serde::Deserialize::deserialize(p)? } else { return ::core::result::Result::Err(p.error(\"tuple too short\")); },";
    }
    s += "); if p.next_element(&mut first)? { return ::core::result::Result::Err(p.error(\"tuple too long\")); } v }";
    s
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse(input);
    let name = &item.name;
    let body = match &item.shape {
        Shape::Struct(Fields::Unit) => "w.null();".to_string(),
        Shape::Struct(Fields::Tuple(1)) => "::serde::Serialize::serialize(&self.0, w);".to_string(),
        Shape::Struct(Fields::Tuple(n)) => {
            let mut s = String::from("w.begin_array();");
            for k in 0..*n {
                s += &format!("w.element(); ::serde::Serialize::serialize(&self.{k}, w);");
            }
            s + "w.end_array();"
        }
        Shape::Struct(Fields::Named(fields)) => write_named(fields, "&self."),
        Shape::Enum(variants) => {
            let mut s = String::from("match self {");
            for v in variants {
                let vn = &v.name;
                let tag = rename(vn, item.rename_all.as_deref());
                match &v.fields {
                    Fields::Unit => s += &format!("{name}::{vn} => w.string(\"{tag}\"),"),
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("f{k}")).collect();
                        s += &format!(
                            "{name}::{vn}({}) => {{ w.begin_object(); w.key(\"{tag}\");",
                            binds.join(",")
                        );
                        if *n == 1 {
                            s += "::serde::Serialize::serialize(f0, w);";
                        } else {
                            s += "w.begin_array();";
                            for b in &binds {
                                s +=
                                    &format!("w.element(); ::serde::Serialize::serialize({b}, w);");
                            }
                            s += "w.end_array();";
                        }
                        s += "w.end_object(); }";
                    }
                    Fields::Named(fields) => {
                        let binds: Vec<&str> = fields.iter().map(|(f, _)| f.as_str()).collect();
                        s += &format!(
                            "{name}::{vn} {{ {} }} => {{ w.begin_object(); w.key(\"{tag}\"); {} w.end_object(); }}",
                            binds.join(","),
                            write_named(fields, "")
                        );
                    }
                }
            }
            s + "}"
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{ fn serialize(&self, w: &mut ::serde::json::Writer) {{ {body} }} }}"
    )
    .parse()
    .expect("generated Serialize impl parses")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse(input);
    let name = &item.name;
    let body = match &item.shape {
        Shape::Struct(Fields::Unit) => {
            format!("if p.null() {{ {name} }} else {{ return ::core::result::Result::Err(p.error(\"expected null\")); }}")
        }
        Shape::Struct(Fields::Tuple(n)) => read_tuple(name, *n),
        Shape::Struct(Fields::Named(fields)) => read_named(name, fields),
        Shape::Enum(variants) => {
            let mut unit = String::new();
            let mut tagged = String::new();
            for v in variants {
                let vn = &v.name;
                let tag = rename(vn, item.rename_all.as_deref());
                match &v.fields {
                    Fields::Unit => {
                        unit += &format!("\"{tag}\" => {name}::{vn},");
                        tagged += &format!(
                            "\"{tag}\" => {{ if !p.null() {{ return ::core::result::Result::Err(p.error(\"expected null\")); }} {name}::{vn} }},"
                        );
                    }
                    Fields::Tuple(n) => {
                        tagged +=
                            &format!("\"{tag}\" => {},", read_tuple(&format!("{name}::{vn}"), *n));
                    }
                    Fields::Named(fields) => {
                        tagged += &format!(
                            "\"{tag}\" => {},",
                            read_named(&format!("{name}::{vn}"), fields)
                        );
                    }
                }
            }
            format!(
                "if p.peek() == ::core::option::Option::Some(b'\"') {{ \
                     let tag = p.string()?; \
                     match &*tag {{ {unit} other => return ::core::result::Result::Err(p.error(::std::format!(\"unknown variant `{{other}}` of {name}\"))) }} \
                 }} else {{ \
                     p.begin_object()?; let mut first_variant = true; \
                     if !p.next_member(&mut first_variant)? {{ return ::core::result::Result::Err(p.error(\"expected a variant of {name}\")); }} \
                     let tag = p.string()?; p.colon()?; \
                     let value = match &*tag {{ {tagged} other => return ::core::result::Result::Err(p.error(::std::format!(\"unknown variant `{{other}}` of {name}\"))) }}; \
                     if p.next_member(&mut first_variant)? {{ return ::core::result::Result::Err(p.error(\"expected one variant of {name}\")); }} \
                     value \
                 }}"
            )
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{ \
             fn deserialize(p: &mut ::serde::json::Parser<'_>) -> ::core::result::Result<Self, ::serde::json::Error> {{ \
                 ::core::result::Result::Ok({body}) \
             }} \
         }}"
    )
    .parse()
    .expect("generated Deserialize impl parses")
}
