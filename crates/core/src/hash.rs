//! Stable content hashing for cache keys.
//!
//! `std`'s hashers are randomized per process; cache keys must instead be
//! identical across runs, machines, and the researcher receiving the shared
//! database file. FNV-1a (64-bit) over the canonical encoding is simple,
//! fast for short keys, and fully specified here — no dependency drift can
//! silently invalidate every cache.

use crate::value::{canonical, Value};
use std::collections::HashMap;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over raw bytes.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Stable hash of a JSON value via its canonical encoding.
pub fn hash_value(value: &Value) -> u64 {
    fnv1a(canonical(value).as_bytes())
}

/// Fixed-width lowercase hex of a hash (sortable, filename-safe).
pub fn hex(h: u64) -> String {
    format!("{h:016x}")
}

/// Assigns row hashes — the row part of a cache key — to a sequence of
/// objects: the object's content hash in [`hex`], suffixed `-k` for its
/// `k`-th duplicate, so duplicate objects get distinct, stable keys. Every
/// row source (`data`, `extend_data`, the streaming runner) keys its rows
/// through this one scheme, which is what lets them share cells.
#[derive(Debug, Default)]
pub(crate) struct RowHashes(HashMap<u64, usize>);

impl RowHashes {
    /// The hash of the next row, holding `object`.
    pub(crate) fn next(&mut self, object: &Value) -> String {
        self.next_hashed(hash_value(object))
    }

    /// The hash of the next row, whose object's [`hash_value`] is `h`.
    pub(crate) fn next_hashed(&mut self, h: u64) -> String {
        let seen = self.0.entry(h).or_insert(0);
        let hash = if *seen == 0 { hex(h) } else { format!("{}-{}", hex(h), *seen) };
        *seen += 1;
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::val;

    #[test]
    fn fnv_known_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn value_hash_stability() {
        // Key order must not matter; content must.
        let a: Value = serde_json::from_str(r#"{"x":1,"y":2}"#).unwrap();
        let b: Value = serde_json::from_str(r#"{"y":2,"x":1}"#).unwrap();
        assert_eq!(hash_value(&a), hash_value(&b));
        assert_ne!(hash_value(&a), hash_value(&val!({"x": 1, "y": 3})));
    }

    #[test]
    fn hex_is_fixed_width_sortable() {
        assert_eq!(hex(0).len(), 16);
        assert_eq!(hex(u64::MAX), "ffffffffffffffff");
        assert!(hex(1) < hex(255));
    }

    #[test]
    fn pinned_value_hash_regression() {
        // If this hash ever changes, every existing shared database file's
        // cache keys break. Pin it.
        assert_eq!(hash_value(&val!("img1.jpg")), fnv1a(b"\"img1.jpg\""));
    }
}
