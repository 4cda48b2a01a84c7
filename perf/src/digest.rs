//! Result digests: SHA-256 over the JSON a result serialises to.

use serde::Serialize;

/// Hex SHA-256 of `value` serialised as compact JSON.
pub fn of<T: Serialize + ?Sized>(value: &T) -> String {
    let bytes = serde_json::to_vec(value).expect("results serialise");
    dcp::crypto::hex(&dcp::crypto::sha256(&bytes))
}
