//! Offline stand-in for the subset of `serde` this repository uses.
//!
//! Upstream serde is format-agnostic; every (de)serialisation in this
//! repository goes through `serde_json`, so this stand-in fuses the two:
//! [`Serialize`] writes JSON straight into a [`json::Writer`] and
//! [`Deserialize`] pulls from a [`json::Parser`]. The derive macros
//! (feature `derive`) produce the same JSON shapes as upstream's defaults:
//! structs as objects, newtypes transparent, enums externally tagged,
//! `Option` as `null`, maps with stringified keys. Supported attributes:
//! `#[serde(default)]` on fields and `#[serde(rename_all = "snake_case")]`
//! on enums.

pub mod de;
pub mod json;
pub mod ser;

pub use de::Deserialize;
pub use ser::Serialize;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};
