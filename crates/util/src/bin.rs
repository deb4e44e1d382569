//! Minimal little-endian binary writer/reader for checkpoint codecs.
//!
//! Every checkpoint format in the workspace (embedding tables, transformer
//! weights, random forests, the derived-result cache) encodes through this
//! one pair so the framing rules — LE integers, u32-length-prefixed strings,
//! bit-exact floats — are defined in exactly one place. The reader is
//! bounds-checked and returns [`Error::Parse`] instead of panicking, which
//! is what lets a corrupt or truncated checkpoint fall back to retraining.

use crate::error::{Error, Result};

/// Append-only little-endian byte writer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes raw bytes verbatim (no length prefix).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32` as 4 LE bytes.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64` as 8 LE bytes.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f32` bit pattern (exact round-trip).
    pub fn f32(&mut self, v: f32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` bit pattern (exact round-trip).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a string as u32 byte length + UTF-8 bytes.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.raw(s.as_bytes());
    }

    /// Writes an `f32` slice as u32 count + raw bit patterns.
    pub fn f32s(&mut self, vs: &[f32]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.f32(v);
        }
    }

    /// Writes an `f64` slice as u32 count + raw bit patterns.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.f64(v);
        }
    }
}

/// Bounds-checked little-endian reader over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'a str,
}

impl<'a> Reader<'a> {
    /// New reader; `context` names the checkpoint in error messages.
    pub fn new(buf: &'a [u8], context: &'a str) -> Self {
        Self { buf, pos: 0, context }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors unless every byte was consumed — catches trailing garbage.
    pub fn finish(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(Error::parse(
                self.context,
                format!("{} trailing bytes after payload", self.remaining()),
            ));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::parse(
                self.context,
                format!("truncated: wanted {n} bytes at offset {}, have {}", self.pos, self.remaining()),
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Borrows the next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.take(n)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a LE `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a LE `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads an `f32` bit pattern.
    pub fn f32(&mut self) -> Result<f32> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads a u32-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| Error::parse(self.context, "invalid UTF-8 in string"))
    }

    /// Reads a u32-count-prefixed `f32` slice.
    pub fn f32s(&mut self) -> Result<Vec<f32>> {
        let n = self.u32()? as usize;
        self.sized(n, 4)?;
        (0..n).map(|_| self.f32()).collect()
    }

    /// Reads a u32-count-prefixed `f64` slice.
    pub fn f64s(&mut self) -> Result<Vec<f64>> {
        let n = self.u32()? as usize;
        self.sized(n, 8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// Guards a count read from the wire against absurd allocations: the
    /// remaining bytes must actually hold `n` items of `item_bytes` each.
    pub fn sized(&self, n: usize, item_bytes: usize) -> Result<()> {
        if n.saturating_mul(item_bytes) > self.remaining() {
            return Err(Error::parse(
                self.context,
                format!("count {n} exceeds remaining {} bytes", self.remaining()),
            ));
        }
        Ok(())
    }

    /// Checks a 4-byte magic tag.
    pub fn magic(&mut self, expect: &[u8; 4]) -> Result<()> {
        let got = self.take(4)?;
        if got != expect {
            return Err(Error::parse(
                self.context,
                format!("bad magic {:?}, expected {:?}", got, expect),
            ));
        }
        Ok(())
    }

    /// Checks an exact version byte sequence written as `u32`.
    pub fn version(&mut self, expect: u32) -> Result<()> {
        let got = self.u32()?;
        if got != expect {
            return Err(Error::parse(
                self.context,
                format!("version {got}, expected {expect}"),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_all_primitives() {
        let mut w = Writer::new();
        w.raw(b"KCBT");
        w.u32(3);
        w.u8(7);
        w.u64(u64::MAX - 1);
        w.f32(-0.0);
        w.f64(f64::MIN_POSITIVE);
        w.str("naïve");
        w.f32s(&[1.5, f32::NEG_INFINITY]);
        w.f64s(&[]);
        let bytes = w.into_bytes();

        let mut r = Reader::new(&bytes, "test");
        r.magic(b"KCBT").unwrap();
        r.version(3).unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.f64().unwrap(), f64::MIN_POSITIVE);
        assert_eq!(r.str().unwrap(), "naïve");
        assert_eq!(r.f32s().unwrap(), vec![1.5, f32::NEG_INFINITY]);
        assert!(r.f64s().unwrap().is_empty());
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.str("hello");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut], "trunc");
            assert!(r.str().is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn bad_magic_and_version_reject() {
        let mut w = Writer::new();
        w.raw(b"XXXX");
        w.u32(9);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "t");
        assert!(r.magic(b"KCBT").is_err());
        let mut r = Reader::new(&bytes[4..], "t");
        assert!(r.version(1).is_err());
    }

    #[test]
    fn absurd_count_is_rejected_before_allocation() {
        let mut w = Writer::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "t");
        assert!(r.f64s().is_err());
    }

    #[test]
    fn finish_flags_trailing_bytes() {
        let mut w = Writer::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, "t");
        r.u8().unwrap();
        assert!(r.finish().is_err());
    }
}
