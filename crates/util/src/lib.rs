//! Shared utilities for the `kcb` workspace.
//!
//! This crate deliberately has no heavyweight dependencies: it provides the
//! deterministic random-number generator used by every other crate (so that
//! experiment runs are bit-reproducible across platforms), the workspace-wide
//! error type, and small text-formatting helpers used by report writers.

pub mod bin;
pub mod error;
pub mod fmt;
pub mod json;
pub mod mmap;
pub mod pool;
pub mod rng;
pub mod signal;
pub mod simd;

pub use error::{Error, Result};
pub use rng::Rng;

/// FNV-1a 64-bit offset basis: the state an empty input hashes to.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a 64-bit hash from state `h` over `bytes`, so one
/// digest can be folded over several slices (start from [`FNV_OFFSET`]).
pub fn fnv1a_from(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64-bit hash — the workspace's one content hash: per-item RNG
/// streams (oracle beliefs, OOV vectors, triple keys), checkpoint stripe
/// checksums, journal framing and every hex digest below.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV_OFFSET, bytes)
}

/// FNV-1a over a sequence of `u64` words (mixes each word as 8 LE bytes).
pub fn fnv1a_u64s(words: &[u64]) -> u64 {
    words.iter().fold(FNV_OFFSET, |h, w| fnv1a_from(h, &w.to_le_bytes()))
}

/// [`fnv1a`] as 16 zero-padded lowercase hex digits: journal line
/// checksums, run-directory names, checkpoint keys and config digests.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(bytes))
}

#[cfg(test)]
mod hash_tests {
    #[test]
    fn fnv1a_known_vector() {
        // FNV-1a("") = offset basis; FNV-1a("a") = 0xaf63dc4c8601ec8c.
        assert_eq!(super::fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(super::fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(super::fnv1a_hex(b""), "cbf29ce484222325");
        assert_eq!(super::fnv1a_hex(b"a"), "af63dc4c8601ec8c");
        // A digest with leading zero nibbles keeps its 16-digit width.
        assert_eq!(super::fnv1a_hex(b"13900"), "00f5898e9456454c");
    }

    #[test]
    fn fnv1a_folds_across_slices() {
        let h = super::fnv1a_from(super::fnv1a(b"foo"), b"bar");
        assert_eq!(h, super::fnv1a(b"foobar"));
        assert_eq!(super::fnv1a_from(super::FNV_OFFSET, b""), super::FNV_OFFSET);
    }

    #[test]
    fn fnv1a_u64s_differs_by_order() {
        assert_ne!(super::fnv1a_u64s(&[1, 2]), super::fnv1a_u64s(&[2, 1]));
        let mut le = 1u64.to_le_bytes().to_vec();
        le.extend(2u64.to_le_bytes());
        assert_eq!(super::fnv1a_u64s(&[1, 2]), super::fnv1a(&le));
    }
}
