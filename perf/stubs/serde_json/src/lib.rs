//! Offline stand-in for the subset of `serde_json` this repository uses.
//! The JSON machinery lives in the serde stand-in (`serde::json`); this
//! crate is the familiar front door.

use serde::json::{Parser, Writer};
use serde::{Deserialize, Serialize};

pub use serde::json::Error;

/// `Result` with this crate's [`Error`].
pub type Result<T> = std::result::Result<T, Error>;

fn write<T: Serialize + ?Sized>(value: &T, pretty: bool) -> Vec<u8> {
    let mut w = Writer::new(pretty);
    value.serialize(&mut w);
    w.into_bytes()
}

fn write_string<T: Serialize + ?Sized>(value: &T, pretty: bool) -> String {
    String::from_utf8(write(value, pretty)).expect("the writer emits UTF-8")
}

/// Serialise as compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    Ok(write(value, false))
}

/// Serialise as a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(write_string(value, false))
}

/// Serialise as an indented JSON string.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    Ok(write_string(value, true))
}

/// Deserialise from JSON bytes; trailing non-whitespace is an error.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let mut p = Parser::new(bytes);
    let value = T::deserialize(&mut p)?;
    p.end()?;
    Ok(value)
}

/// Deserialise from a JSON string.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    from_slice(text.as_bytes())
}
