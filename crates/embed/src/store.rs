//! Checkpoint codecs for trained embedding models, so that expensive
//! embedding pre-training can be cached between experiment runs.
//!
//! An [`EmbeddingTable`] splits into a metadata blob and its flat vector
//! matrix ([`raw_parts`]), which the checkpoint store keeps as the
//! container's raw section so a warm start borrows the vectors in place
//! ([`from_raw`]). Metadata format (little-endian): magic `KCBE`, version
//! u32, dim u32, n u32, name (u32 length + UTF-8), then per token: u32 name
//! length, UTF-8 bytes, u64 count.
//!
//! A fastText model is not one flat matrix, so it round-trips through bytes
//! alone ([`fasttext_to_bytes`], [`fasttext_from_bytes`]).

use crate::model::{EmbeddingModel, EmbeddingTable};
use bytes::{Buf, BufMut, BytesMut};
use kcb_ml::linalg::Matrix;
use kcb_text::Vocab;
use kcb_util::{Error, Result};
use std::collections::HashMap;

const MAGIC: &[u8; 4] = b"KCBE";
/// Metadata version. Version 1 was a standalone format with the vectors
/// inline; it is no longer read.
const VERSION: u32 = 2;

/// Splits a table into a small metadata blob (shape, name, vocabulary
/// records — everything except vectors) plus the flat vector slice, for the
/// checkpoint container's raw section. The payload is the row-major vector
/// matrix.
pub fn raw_parts(table: &EmbeddingTable) -> (Vec<u8>, &[f32]) {
    let vocab = table.vocab();
    let dim = table.vectors().cols();
    let mut buf = BytesMut::with_capacity(16 + vocab.len() * 16);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    buf.put_u32_le(dim as u32);
    buf.put_u32_le(vocab.len() as u32);
    put_str(&mut buf, table.name());
    for id in 0..vocab.len() as u32 {
        put_str(&mut buf, vocab.token(id));
        buf.put_u64_le(vocab.count(id));
    }
    (buf.to_vec(), table.vectors().as_slice())
}

/// Rebuilds a table from [`raw_parts`] metadata plus the raw section. The
/// vector matrix borrows the section zero-copy when it is memory-mapped and
/// aligned, and owns decoded elements otherwise; the bits are the same.
pub fn from_raw(meta: &[u8], raw: &kcb_util::mmap::RawSection) -> Result<EmbeddingTable> {
    let err = |m: &str| Error::parse("embedding store", m);
    let mut buf: &[u8] = meta;
    if buf.remaining() < 16 || &buf[..4] != MAGIC {
        return Err(err("bad magic"));
    }
    buf.advance(4);
    let version = buf.get_u32_le();
    if version != VERSION {
        return Err(err(&format!("unsupported version {version}")));
    }
    let dim = buf.get_u32_le() as usize;
    let n = buf.get_u32_le() as usize;
    let name = get_str(&mut buf)?;
    // Each record holds at least a length and a count.
    if n.saturating_mul(12) > buf.remaining() {
        return Err(err("token count exceeds the metadata"));
    }
    let mut counts: Vec<(String, u64)> = Vec::with_capacity(n);
    for _ in 0..n {
        let tok = get_str(&mut buf)?;
        if buf.remaining() < 8 {
            return Err(err("truncated record"));
        }
        counts.push((tok, buf.get_u64_le()));
    }
    if buf.remaining() != 0 {
        return Err(err("trailing metadata bytes"));
    }
    if n.saturating_mul(dim).saturating_mul(4) != raw.len() {
        return Err(err("raw payload size does not match table shape"));
    }
    let map: HashMap<String, u64> = counts.iter().cloned().collect();
    let vocab = Vocab::from_counts(map, 0);
    for (i, (tok, _)) in counts.iter().enumerate() {
        if vocab.id(tok) != Some(i as u32) {
            return Err(err("vocabulary order mismatch (corrupt or duplicate tokens)"));
        }
    }
    let vectors = Matrix::from_shared(raw.f32s(0, n * dim)?, n, dim);
    Ok(EmbeddingTable::new(name, vocab, vectors))
}

/// Serializes a trained [`FastText`](crate::FastText) model (word table,
/// n-gram buckets, composition parameters) to bytes. Format: magic `KCBX`,
/// version u32, name, dim/buckets/min_n/max_n, vocabulary records, then
/// both flat vector tables bit-exact.
pub fn fasttext_to_bytes(model: &crate::FastText) -> Vec<u8> {
    let mut w = kcb_util::bin::Writer::new();
    model.encode(&mut w);
    w.into_bytes()
}

/// Deserializes a fastText model written by [`fasttext_to_bytes`].
pub fn fasttext_from_bytes(bytes: &[u8]) -> Result<crate::FastText> {
    let mut r = kcb_util::bin::Reader::new(bytes, "fasttext store");
    let m = crate::FastText::decode(&mut r)?;
    r.finish()?;
    Ok(m)
}

fn put_str(buf: &mut BytesMut, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_str(buf: &mut &[u8]) -> Result<String> {
    let err = |m: &str| Error::parse("embedding store", m);
    if buf.remaining() < 4 {
        return Err(err("truncated string length"));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(err("truncated string"));
    }
    let s = std::str::from_utf8(&buf[..len]).map_err(|_| err("invalid utf-8"))?.to_string();
    buf.advance(len);
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcb_util::mmap::{pack_f32s, RawSection};

    fn table() -> EmbeddingTable {
        let counts: HashMap<String, u64> =
            [("acid".to_string(), 9u64), ("oxan".to_string(), 4), ("yl".to_string(), 2)]
                .into_iter()
                .collect();
        let vocab = Vocab::from_counts(counts, 0);
        let vectors = Matrix::from_rows(vec![
            vec![0.1, -0.5, 2.0],
            vec![1.0, 0.0, -1.0],
            vec![0.25, 0.75, 0.5],
        ]);
        EmbeddingTable::new("w2v-chem", vocab, vectors)
    }

    /// The raw section a checkpoint read would hand over, read into memory.
    fn owned(parts: &[&[f32]]) -> RawSection {
        let (bytes, sums) = pack_f32s(parts);
        let len = bytes.len();
        RawSection::from_owned(bytes, 0, len, sums).unwrap()
    }

    fn assert_same(t: &EmbeddingTable, u: &EmbeddingTable) {
        assert_eq!(u.name(), t.name());
        assert_eq!((u.vocab_size(), u.dim()), (t.vocab_size(), t.dim()));
        for id in 0..t.vocab_size() as u32 {
            assert_eq!(t.vocab().token(id), u.vocab().token(id));
            assert_eq!(t.vocab().count(id), u.vocab().count(id));
            assert_eq!(t.vector(id), u.vector(id));
        }
    }

    #[test]
    fn round_trip_exact() {
        let t = table();
        let (meta, vectors) = raw_parts(&t);
        let u = from_raw(&meta, &owned(&[vectors])).unwrap();
        assert_same(&t, &u);
    }

    #[test]
    fn raw_parts_round_trip_exact() {
        // The vectors are the table's own slice, and the metadata holds
        // everything else.
        let t = table();
        let (meta, vectors) = raw_parts(&t);
        assert_eq!(vectors.as_ptr(), t.vectors().as_slice().as_ptr());
        assert_same(&t, &from_raw(&meta, &owned(&[vectors])).unwrap());
        // Mismatched payload size (extra row) must reject.
        assert!(from_raw(&meta, &owned(&[vectors, &[1.0, 2.0, 3.0]])).is_err());
    }

    #[cfg(unix)]
    #[test]
    fn file_round_trip() {
        // Through a file and a mapping, as a warm checkpoint read does: the
        // vectors borrow the mapped bytes in place.
        let dir = std::env::temp_dir().join(format!("kcb-embed-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("table.raw");
        let t = table();
        let (meta, vectors) = raw_parts(&t);
        let (bytes, sums) = pack_f32s(&[vectors]);
        std::fs::write(&path, &bytes).unwrap();
        let map = std::sync::Arc::new(kcb_util::mmap::Mmap::open(&path).unwrap());
        let raw = RawSection::from_map(map, 0, bytes.len(), sums).unwrap();
        assert!(raw.is_mapped());
        let u = from_raw(&meta, &raw).unwrap();
        drop(raw);
        assert_same(&t, &u);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_corrupt_input() {
        let empty = owned(&[]);
        assert!(from_raw(b"nope", &empty).is_err());
        assert!(from_raw(b"KCBE\x02\x00\x00\x00", &empty).is_err());
        let t = table();
        let (meta, vectors) = raw_parts(&t);
        let raw = owned(&[vectors]);
        // Version-1 metadata, truncation, a trailing byte and a token
        // count beyond the metadata are all rejected.
        let mut v1 = meta.clone();
        v1[4] = 1;
        assert!(from_raw(&v1, &raw).is_err());
        for cut in 0..meta.len() {
            assert!(from_raw(&meta[..cut], &raw).is_err(), "cut {cut}");
        }
        let mut long = meta.clone();
        long.push(0);
        assert!(from_raw(&long, &raw).is_err());
        let mut many = meta.clone();
        many[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(from_raw(&many, &raw).is_err());
    }

    fn fasttext_model() -> crate::FastText {
        let corpus: Vec<Vec<String>> = (0..30)
            .map(|_| ["oxane", "acid", "sterol"].iter().map(|s| s.to_string()).collect())
            .collect();
        let cfg = crate::FastTextConfig {
            dim: 12,
            epochs: 2,
            min_count: 1,
            buckets: 64,
            ..Default::default()
        };
        crate::FastText::train("bw-test", &corpus, &cfg)
    }

    #[test]
    fn fasttext_round_trip_is_bit_exact() {
        let m = fasttext_model();
        let bytes = fasttext_to_bytes(&m);
        let u = fasttext_from_bytes(&bytes).unwrap();
        assert_eq!(u.name(), m.name());
        assert_eq!(u.dim(), m.dim());
        assert_eq!(u.vocab_size(), m.vocab_size());
        // Probe both in-vocab and subword-composed (OOV) lookups.
        for word in ["oxane", "acid", "sterol", "oxanyl", "unseen"] {
            let mut a = vec![0.0f32; m.dim()];
            let mut b = vec![0.0f32; m.dim()];
            assert_eq!(m.embed_into(word, &mut a), u.embed_into(word, &mut b));
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b), "word {word}");
        }
    }

    #[test]
    fn fasttext_rejects_truncation_and_version_flip() {
        let bytes = fasttext_to_bytes(&fasttext_model());
        for cut in [0, 4, 9, bytes.len() / 2, bytes.len() - 1] {
            assert!(fasttext_from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut flipped = bytes.clone();
        flipped[4] ^= 0x40;
        assert!(fasttext_from_bytes(&flipped).is_err());
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Any vocabulary + any float bit patterns survive the store
            /// round trip exactly — the property the warm/cold byte-identity
            /// contract rests on.
            #[test]
            fn table_round_trip_any_bits(
                raw_counts in prop::collection::vec(1u64..10_000, 1..20),
                dim in 1usize..5,
                float_seed in any::<u64>(),
            ) {
                let counts: HashMap<String, u64> = raw_counts
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| (format!("tok{i}"), c))
                    .collect();
                let vocab = Vocab::from_counts(counts, 0);
                let n = vocab.len();
                let mut rng = kcb_util::Rng::seed(float_seed);
                let data: Vec<f32> = (0..n * dim)
                    .map(|_| f32::from_bits(rng.next_u32()))
                    .map(|v| if v.is_nan() { 0.0 } else { v })
                    .collect();
                let t = EmbeddingTable::new("prop", vocab, Matrix::from_vec(data, n, dim));
                let (meta, vectors) = raw_parts(&t);
                let u = from_raw(&meta, &owned(&[vectors])).unwrap();
                prop_assert_eq!(u.name(), t.name());
                let bits = |m: &EmbeddingTable| {
                    m.vectors().as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                };
                prop_assert_eq!(bits(&t), bits(&u));
                for id in 0..n as u32 {
                    prop_assert_eq!(t.vocab().token(id), u.vocab().token(id));
                    prop_assert_eq!(t.vocab().count(id), u.vocab().count(id));
                }
            }

            /// Feeding the decoder arbitrary garbage must error, not panic.
            #[test]
            fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
                let _ = from_raw(&bytes, &owned(&[]));
                let _ = fasttext_from_bytes(&bytes);
            }
        }
    }
}
