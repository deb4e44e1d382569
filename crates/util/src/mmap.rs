//! Memory-mapped, lazily checksum-verified raw `f32` payloads.
//!
//! This module (with [`crate::signal`]) is one of the only two in the
//! workspace permitted to use `unsafe`: a minimal `mmap(2)` FFI binding
//! plus the one pointer cast that reinterprets an aligned byte range as
//! `&[f32]`. Everything above it — container framing, stripe bookkeeping,
//! fallbacks — is safe code.
//!
//! The design has three pieces:
//!
//! * [`Mmap`] — a read-only private file mapping (munmap'd on drop). On
//!   non-Unix targets the type still exists but construction fails, so
//!   callers fall back to owned bytes.
//! * [`RawSection`] — a window into mapped-or-owned bytes carrying FNV-64
//!   checksums per 4096-byte stripe. Checksums are verified *lazily*: the
//!   first borrow that overlaps a stripe pays for hashing it, later borrows
//!   of the same stripe are free. A warm start therefore only hashes the
//!   stripes it actually touches.
//! * [`SharedF32`] — a cheaply clonable `&[f32]` view that either borrows
//!   the mapping in place (zero copy, alignment pre-checked) or owns a
//!   decoded `Vec<f32>` (the fallback for owned or unaligned bytes).
//!
//! Bit-compatibility: an f32 slice borrowed from a mapping and one decoded
//! element-wise from the same LE bytes are identical on little-endian
//! targets; on big-endian targets [`RawSection::f32s`] always decodes, so
//! results never depend on which path ran.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::fnv1a;

/// Stripe size for lazy checksum verification — one page.
pub const STRIPE: usize = 4096;

/// Read-only private memory mapping of a whole file.
///
/// Lives behind an `Arc` inside [`RawSection`]/[`SharedF32`]; the mapping
/// (and thus every borrowed slice) stays valid until the last clone drops.
pub struct Mmap {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the mapping is PROT_READ/MAP_PRIVATE and never mutated or remapped
// after construction; sharing immutable bytes across threads is sound.
#[allow(unsafe_code)]
unsafe impl Send for Mmap {}
#[allow(unsafe_code)]
unsafe impl Sync for Mmap {}

#[cfg(unix)]
#[allow(unsafe_code)]
mod sys {
    use std::os::unix::io::AsRawFd;

    // Minimal libc surface; std already links libc on every Unix target.
    extern "C" {
        fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;
    const MAP_FAILED: isize = -1;

    /// Maps `len` bytes of `file` read-only. `len` must be non-zero and no
    /// larger than the file (enforced by the caller via metadata).
    pub fn map(file: &std::fs::File, len: usize) -> Option<*const u8> {
        // SAFETY: fd is valid for the duration of the call (borrowed from an
        // open File); a fresh PROT_READ/MAP_PRIVATE mapping aliases nothing.
        let ptr = unsafe {
            mmap(std::ptr::null_mut(), len, PROT_READ, MAP_PRIVATE, file.as_raw_fd(), 0)
        };
        if ptr as isize == MAP_FAILED {
            None
        } else {
            Some(ptr as *const u8)
        }
    }

    /// Unmaps a region previously returned by [`map`].
    pub fn unmap(ptr: *const u8, len: usize) {
        // SAFETY: (ptr, len) came from a successful map() and is unmapped
        // exactly once (Mmap::drop).
        unsafe {
            munmap(ptr as *mut core::ffi::c_void, len);
        }
    }
}

impl Mmap {
    /// Maps `path` read-only. Errors if the platform has no mmap, the file
    /// is empty, or the syscall fails — callers then fall back to `fs::read`.
    pub fn open(path: &Path) -> Result<Self> {
        #[cfg(unix)]
        {
            let file = std::fs::File::open(path).map_err(Error::Io)?;
            let len = file.metadata().map_err(Error::Io)?.len() as usize;
            if len == 0 {
                return Err(Error::parse("mmap", "refusing to map empty file"));
            }
            match sys::map(&file, len) {
                Some(ptr) => Ok(Self { ptr, len }),
                None => Err(Error::parse("mmap", format!("mmap failed for {}", path.display()))),
            }
        }
        #[cfg(not(unix))]
        {
            let _ = path;
            Err(Error::parse("mmap", "mmap unsupported on this platform"))
        }
    }

    /// Mapped length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is mapped (never constructed this way).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The mapped bytes.
    #[allow(unsafe_code)]
    pub fn bytes(&self) -> &[u8] {
        // SAFETY: (ptr, len) is a live read-only mapping owned by self.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        #[cfg(unix)]
        sys::unmap(self.ptr, self.len);
    }
}

impl std::fmt::Debug for Mmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mmap").field("len", &self.len).finish()
    }
}

enum F32Source {
    Map(Arc<Mmap>),
    Vec(Arc<Vec<f32>>),
}

impl Clone for F32Source {
    fn clone(&self) -> Self {
        match self {
            F32Source::Map(m) => F32Source::Map(Arc::clone(m)),
            F32Source::Vec(v) => F32Source::Vec(Arc::clone(v)),
        }
    }
}

/// Cheaply clonable `f32` slice that either borrows a memory mapping in
/// place or owns decoded data. `as_slice` is the only accessor; equality and
/// bits are identical between the two sources.
#[derive(Clone)]
pub struct SharedF32 {
    src: F32Source,
    /// Byte offset of the first element (Map) or element offset (Vec).
    off: usize,
    len: usize,
}

impl SharedF32 {
    /// Wraps an owned vector (the decode-path fallback).
    pub fn from_vec(v: Vec<f32>) -> Self {
        let len = v.len();
        Self { src: F32Source::Vec(Arc::new(v)), off: 0, len }
    }

    /// Borrows `len` f32s starting `byte_off` into the mapping. Errors when
    /// the range is out of bounds or not 4-byte aligned — the caller then
    /// decodes instead. Only meaningful on little-endian targets; the
    /// container layer guards that.
    fn from_map(map: Arc<Mmap>, byte_off: usize, len: usize) -> Result<Self> {
        let end = byte_off
            .checked_add(len.checked_mul(4).ok_or_else(|| Error::parse("mmap", "f32 range overflow"))?)
            .ok_or_else(|| Error::parse("mmap", "f32 range overflow"))?;
        if end > map.len() {
            return Err(Error::parse("mmap", "f32 range out of bounds"));
        }
        let addr = map.bytes()[byte_off..].as_ptr() as usize;
        if !addr.is_multiple_of(std::mem::align_of::<f32>()) {
            return Err(Error::parse("mmap", "f32 range misaligned"));
        }
        Ok(Self { src: F32Source::Map(map), off: byte_off, len })
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The elements. Zero-copy when backed by a mapping.
    #[allow(unsafe_code)]
    pub fn as_slice(&self) -> &[f32] {
        match &self.src {
            F32Source::Vec(v) => &v[self.off..self.off + self.len],
            F32Source::Map(m) => {
                let bytes = &m.bytes()[self.off..self.off + self.len * 4];
                // SAFETY: range validity and 4-byte alignment were checked in
                // from_map; the mapping is immutable and outlives self; any
                // bit pattern is a valid f32.
                unsafe { std::slice::from_raw_parts(bytes.as_ptr() as *const f32, self.len) }
            }
        }
    }
}

impl std::fmt::Debug for SharedF32 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match &self.src {
            F32Source::Map(_) => "map",
            F32Source::Vec(_) => "vec",
        };
        f.debug_struct("SharedF32").field("src", &kind).field("len", &self.len).finish()
    }
}

enum RawBacking {
    Map(Arc<Mmap>),
    Owned(Vec<u8>),
}

/// Window of raw bytes (mapped or owned) holding packed LE `f32`s, verified
/// lazily per [`STRIPE`]-sized stripe against FNV-64 checksums recorded at
/// write time.
pub struct RawSection {
    backing: RawBacking,
    raw_off: usize,
    raw_len: usize,
    stripe_sums: Vec<u64>,
    verified: Vec<AtomicBool>,
}

impl RawSection {
    fn validate(raw_off: usize, raw_len: usize, total: usize, stripe_sums: &[u64]) -> Result<()> {
        let end = raw_off
            .checked_add(raw_len)
            .ok_or_else(|| Error::parse("raw-section", "range overflow"))?;
        if end > total {
            return Err(Error::parse("raw-section", "raw range out of bounds"));
        }
        let stripes = raw_len.div_ceil(STRIPE);
        if stripes != stripe_sums.len() {
            return Err(Error::parse(
                "raw-section",
                format!("stripe table has {} entries, expected {stripes}", stripe_sums.len()),
            ));
        }
        Ok(())
    }

    /// Raw section borrowed from a mapping.
    pub fn from_map(map: Arc<Mmap>, raw_off: usize, raw_len: usize, stripe_sums: Vec<u64>) -> Result<Self> {
        Self::validate(raw_off, raw_len, map.len(), &stripe_sums)?;
        let verified = (0..stripe_sums.len()).map(|_| AtomicBool::new(false)).collect();
        Ok(Self { backing: RawBacking::Map(map), raw_off, raw_len, stripe_sums, verified })
    }

    /// Raw section over owned bytes: the fallback where a checkpoint file
    /// cannot be mapped (non-Unix targets, a failed `mmap`).
    pub fn from_owned(bytes: Vec<u8>, raw_off: usize, raw_len: usize, stripe_sums: Vec<u64>) -> Result<Self> {
        Self::validate(raw_off, raw_len, bytes.len(), &stripe_sums)?;
        let verified = (0..stripe_sums.len()).map(|_| AtomicBool::new(false)).collect();
        Ok(Self { backing: RawBacking::Owned(bytes), raw_off, raw_len, stripe_sums, verified })
    }

    /// Length of the raw payload in bytes.
    pub fn len(&self) -> usize {
        self.raw_len
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.raw_len == 0
    }

    fn raw_bytes(&self) -> &[u8] {
        let all = match &self.backing {
            RawBacking::Map(m) => m.bytes(),
            RawBacking::Owned(b) => b.as_slice(),
        };
        &all[self.raw_off..self.raw_off + self.raw_len]
    }

    /// Verifies every stripe overlapping `[start, end)` bytes of the payload
    /// that has not been verified yet. Errors on the first mismatch.
    fn verify_range(&self, start: usize, end: usize) -> Result<()> {
        let raw = self.raw_bytes();
        let first = start / STRIPE;
        let last = end.div_ceil(STRIPE).min(self.stripe_sums.len());
        for s in first..last {
            if self.verified[s].load(Ordering::Acquire) {
                continue;
            }
            let lo = s * STRIPE;
            let hi = ((s + 1) * STRIPE).min(self.raw_len);
            if fnv1a(&raw[lo..hi]) != self.stripe_sums[s] {
                return Err(Error::parse(
                    "raw-section",
                    format!("stripe {s} checksum mismatch (bytes {lo}..{hi})"),
                ));
            }
            self.verified[s].store(true, Ordering::Release);
        }
        Ok(())
    }

    /// Borrows `n` f32s starting at element offset `elem_off`, verifying the
    /// overlapped stripes first. Zero-copy when the backing is a mapping,
    /// the range is aligned, and the target is little-endian; otherwise the
    /// elements are decoded into an owned buffer with identical bits.
    pub fn f32s(&self, elem_off: usize, n: usize) -> Result<SharedF32> {
        let start = elem_off
            .checked_mul(4)
            .ok_or_else(|| Error::parse("raw-section", "element offset overflow"))?;
        let end = start
            .checked_add(n.checked_mul(4).ok_or_else(|| Error::parse("raw-section", "element count overflow"))?)
            .ok_or_else(|| Error::parse("raw-section", "element range overflow"))?;
        if end > self.raw_len {
            return Err(Error::parse(
                "raw-section",
                format!("f32 range {start}..{end} exceeds payload of {} bytes", self.raw_len),
            ));
        }
        self.verify_range(start, end)?;
        if cfg!(target_endian = "little") {
            if let RawBacking::Map(m) = &self.backing {
                if let Ok(s) = SharedF32::from_map(Arc::clone(m), self.raw_off + start, n) {
                    return Ok(s);
                }
            }
        }
        // Decode fallback: owned backing, misalignment, or big-endian.
        let bytes = &self.raw_bytes()[start..end];
        let mut v = Vec::with_capacity(n);
        for ch in bytes.chunks_exact(4) {
            v.push(f32::from_le_bytes(ch.try_into().expect("4 bytes")));
        }
        Ok(SharedF32::from_vec(v))
    }

    /// True when the section borrows a memory mapping (diagnostics only).
    pub fn is_mapped(&self) -> bool {
        matches!(self.backing, RawBacking::Map(_))
    }
}

/// Packs f32 slices into raw LE bytes plus the per-stripe checksum table —
/// the write-side counterpart of [`RawSection`]. Cold path only.
pub fn pack_f32s(parts: &[&[f32]]) -> (Vec<u8>, Vec<u64>) {
    let total: usize = parts.iter().map(|p| p.len() * 4).sum();
    let mut bytes = Vec::with_capacity(total);
    for part in parts {
        for v in *part {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    let sums = bytes.chunks(STRIPE).map(fnv1a).collect();
    (bytes, sums)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Vec<f32> {
        (0..n).map(|i| (i as f32 * 0.73).sin()).collect()
    }

    #[test]
    fn pack_then_owned_round_trip() {
        let a = payload(1500); // > one stripe of f32s
        let b = payload(7);
        let (bytes, sums) = pack_f32s(&[&a, &b]);
        assert_eq!(bytes.len(), (a.len() + b.len()) * 4);
        let sec = RawSection::from_owned(bytes, 0, (a.len() + b.len()) * 4, sums).unwrap();
        let ra = sec.f32s(0, a.len()).unwrap();
        let rb = sec.f32s(a.len(), b.len()).unwrap();
        assert_eq!(ra.as_slice(), a.as_slice());
        assert_eq!(rb.as_slice(), b.as_slice());
    }

    #[test]
    fn corrupt_stripe_is_detected_lazily() {
        let a = payload(3000); // spans 3 stripes
        let (mut bytes, sums) = pack_f32s(&[&a]);
        let len = bytes.len();
        bytes[STRIPE + 10] ^= 0x40; // corrupt stripe 1 only
        let sec = RawSection::from_owned(bytes, 0, len, sums).unwrap();
        // Stripe 0 alone still verifies.
        assert!(sec.f32s(0, 100).unwrap().as_slice().len() == 100);
        // Any range overlapping stripe 1 fails.
        assert!(sec.f32s(0, a.len()).is_err());
        assert!(sec.f32s(STRIPE / 4, 100).is_err());
    }

    #[test]
    fn out_of_bounds_and_bad_stripe_table_reject() {
        let a = payload(10);
        let (bytes, sums) = pack_f32s(&[&a]);
        let sec = RawSection::from_owned(bytes.clone(), 0, bytes.len(), sums.clone()).unwrap();
        assert!(sec.f32s(0, 11).is_err());
        assert!(sec.f32s(10, 1).is_err());
        assert!(RawSection::from_owned(bytes.clone(), 0, bytes.len(), vec![]).is_err());
        assert!(RawSection::from_owned(bytes, 8, usize::MAX, vec![0]).is_err());
    }

    #[cfg(unix)]
    #[test]
    fn mmap_backed_section_matches_owned() {
        let dir = std::env::temp_dir().join(format!("kcb-mmap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("payload.bin");
        let a = payload(2500);
        let (bytes, sums) = pack_f32s(&[&a]);
        // Prefix simulates a container header before the aligned payload.
        let mut file_bytes = vec![0u8; 64];
        file_bytes.extend_from_slice(&bytes);
        std::fs::write(&path, &file_bytes).unwrap();

        let map = Arc::new(Mmap::open(&path).unwrap());
        let sec = RawSection::from_map(map, 64, bytes.len(), sums.clone()).unwrap();
        assert!(sec.is_mapped());
        let view = sec.f32s(0, a.len()).unwrap();
        assert_eq!(view.as_slice(), a.as_slice());
        // Clone keeps the mapping alive through the original section drop.
        let keep = view.clone();
        drop(sec);
        assert_eq!(keep.as_slice()[17], a[17]);

        let owned = RawSection::from_owned(file_bytes, 64, bytes.len(), sums).unwrap();
        assert!(!owned.is_mapped());
        assert_eq!(owned.f32s(5, 90).unwrap().as_slice(), keep.as_slice()[5..95].iter().as_slice());
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[cfg(unix)]
    #[test]
    fn mmap_open_rejects_empty_and_missing() {
        let dir = std::env::temp_dir();
        let missing = dir.join("kcb-definitely-missing-file.bin");
        assert!(Mmap::open(&missing).is_err());
        let empty = dir.join(format!("kcb-empty-{}.bin", std::process::id()));
        std::fs::write(&empty, b"").unwrap();
        assert!(Mmap::open(&empty).is_err());
        std::fs::remove_file(&empty).ok();
    }
}
