//! Checkpoint codec for transformer weight snapshots.
//!
//! [`MiniBert::snapshot`](crate::MiniBert::snapshot) and
//! [`MiniGpt::snapshot`](crate::MiniGpt::snapshot) expose a model's weights
//! as an ordered `Vec<Matrix>`; this module splits that list into a
//! shape-metadata blob plus the flat f32 slices the checkpoint store keeps
//! as its raw section, and rebuilds it from there, so pre-trained models
//! persist across `repro` runs. Float bit patterns are preserved exactly,
//! so a restored model scores identically to the one that was saved.

use kcb_ml::linalg::Matrix;
use kcb_util::bin::{Reader, Writer};
use kcb_util::mmap::RawSection;
use kcb_util::Result;

const MAGIC: &[u8; 4] = b"KCBW";
/// Metadata version. Version 1 was a standalone format with the elements
/// inline; it is no longer read.
const VERSION: u32 = 2;

/// Splits a snapshot into a small shape-metadata blob plus the flat f32
/// slices, in order, for the checkpoint container's raw section. The
/// payload layout is simply the matrices' elements concatenated.
pub fn weights_raw_parts(weights: &[Matrix]) -> (Vec<u8>, Vec<&[f32]>) {
    let mut w = Writer::new();
    w.raw(MAGIC);
    w.u32(VERSION);
    w.u32(weights.len() as u32);
    for m in weights {
        w.u32(m.rows() as u32);
        w.u32(m.cols() as u32);
    }
    (w.into_bytes(), weights.iter().map(|m| m.as_slice()).collect())
}

/// Rebuilds a snapshot from [`weights_raw_parts`] metadata plus the raw
/// section. Matrices borrow the section zero-copy when it is memory-mapped
/// and aligned, and own decoded elements otherwise; the bits are the same.
pub fn weights_from_raw(meta: &[u8], raw: &RawSection) -> Result<Vec<Matrix>> {
    let mut r = Reader::new(meta, "lm-weights-raw");
    r.magic(MAGIC)?;
    r.version(VERSION)?;
    let n = r.u32()? as usize;
    r.sized(n, 8)?;
    let mut shapes = Vec::with_capacity(n);
    for _ in 0..n {
        let rows = r.u32()? as usize;
        let cols = r.u32()? as usize;
        shapes.push((rows, cols));
    }
    r.finish()?;
    let mut out = Vec::with_capacity(n);
    let mut off = 0usize;
    for (rows, cols) in shapes {
        let len = rows.saturating_mul(cols);
        out.push(Matrix::from_shared(raw.f32s(off, len)?, rows, cols));
        off += len;
    }
    if off * 4 != raw.len() {
        return Err(kcb_util::Error::parse(
            "lm-weights-raw",
            format!("raw payload holds {} bytes, shapes need {}", raw.len(), off * 4),
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Matrix> {
        vec![
            Matrix::from_vec(vec![1.5, -0.0, f32::MIN_POSITIVE, 3.25e-7, 2.0, -9.5], 2, 3),
            Matrix::from_vec(vec![], 0, 4),
            Matrix::from_vec(vec![42.0], 1, 1),
        ]
    }

    /// Splits `ws` and rebuilds it through an owned raw section, as a
    /// checkpoint read that could not map its file does.
    fn round_trip(ws: &[Matrix]) -> Result<Vec<Matrix>> {
        let (meta, parts) = weights_raw_parts(ws);
        weights_from_raw(&meta, &owned(&parts))
    }

    fn owned(parts: &[&[f32]]) -> RawSection {
        let (bytes, sums) = kcb_util::mmap::pack_f32s(parts);
        let len = bytes.len();
        RawSection::from_owned(bytes, 0, len, sums).unwrap()
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let ws = sample();
        let decoded = round_trip(&ws).expect("decode");
        assert_eq!(decoded.len(), ws.len());
        for (a, b) in ws.iter().zip(&decoded) {
            assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
            assert_eq!(bits(a), bits(b));
        }
    }

    #[test]
    fn raw_parts_round_trip_is_bit_exact() {
        // The parts are the matrices' own slices, in order, and the
        // metadata holds only the shapes.
        let ws = sample();
        let (meta, parts) = weights_raw_parts(&ws);
        assert_eq!(meta.len(), 12 + 8 * ws.len());
        assert_eq!(parts.len(), ws.len());
        for (p, m) in parts.iter().zip(&ws) {
            assert_eq!(p.as_ptr(), m.as_slice().as_ptr());
        }
        let decoded = weights_from_raw(&meta, &owned(&parts)).expect("decode raw");
        assert!(ws.iter().zip(&decoded).all(|(a, b)| bits(a) == bits(b)));
    }

    #[test]
    fn raw_parts_reject_payload_size_mismatch() {
        let ws = sample();
        let (meta, parts) = weights_raw_parts(&ws);
        let extra = [0.0f32; 2]; // extra trailing elements
        let mut longer = parts.clone();
        longer.push(&extra);
        assert!(weights_from_raw(&meta, &owned(&longer)).is_err());
        assert!(weights_from_raw(&meta, &owned(&parts[..2])).is_err());
    }

    #[test]
    fn truncation_errors_at_every_cut() {
        let ws = sample();
        let (meta, parts) = weights_raw_parts(&ws);
        let raw = owned(&parts);
        for cut in 0..meta.len() {
            assert!(weights_from_raw(&meta[..cut], &raw).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn version_flip_is_rejected() {
        // Includes version 1, the retired standalone format.
        let ws = sample();
        let (meta, parts) = weights_raw_parts(&ws);
        let raw = owned(&parts);
        for version in [1u8, 3, VERSION as u8 ^ 0x80] {
            let mut bad = meta.clone();
            bad[4] = version;
            assert!(weights_from_raw(&bad, &raw).is_err(), "version {version}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let ws = sample();
        let (mut meta, parts) = weights_raw_parts(&ws);
        meta.push(0);
        assert!(weights_from_raw(&meta, &owned(&parts)).is_err());
    }

    #[test]
    fn restored_encoder_scores_probe_batch_identically() {
        use crate::{MiniBert, MiniBertConfig, TrainConfig, TransformerConfig};
        let cfg = MiniBertConfig {
            arch: TransformerConfig {
                vocab_size: 40,
                d_model: 16,
                n_heads: 2,
                n_layers: 2,
                d_ff: 32,
                max_len: 12,
                seed: 7,
            },
            mask_prob: 0.2,
        };
        let bert = MiniBert::new(cfg);
        let seqs: Vec<Vec<u32>> =
            (0..8).map(|i| (0..10).map(|j| (i * 3 + j) % 40).collect()).collect();
        bert.pretrain_mlm(&seqs, &TrainConfig { epochs: 1, batch_size: 4, ..TrainConfig::default() });

        let restored = MiniBert::new(cfg);
        restored.restore(&round_trip(&bert.snapshot()).expect("decode"));

        let probe: Vec<&[u32]> = seqs.iter().map(Vec::as_slice).collect();
        for (a, b) in bert.predict_proba_batch(&probe).iter().zip(restored.predict_proba_batch(&probe)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in bert.encode_batch(&probe).iter().zip(restored.encode_batch(&probe)) {
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(&b));
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn arb_matrix() -> impl Strategy<Value = Matrix> {
            ((1usize..6), (1usize..6)).prop_flat_map(|(r, c)| {
                prop::collection::vec(any::<f32>(), r * c)
                    .prop_map(move |data| Matrix::from_vec(data, r, c))
            })
        }

        proptest! {
            #[test]
            fn weights_round_trip_any_bits(ws in prop::collection::vec(arb_matrix(), 0..5)) {
                let decoded = round_trip(&ws).unwrap();
                prop_assert_eq!(decoded.len(), ws.len());
                for (a, b) in ws.iter().zip(&decoded) {
                    prop_assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()));
                    prop_assert_eq!(bits(a), bits(b));
                }
            }

            #[test]
            fn arbitrary_bytes_never_panic(
                bytes in prop::collection::vec(any::<u8>(), 0..200),
                floats in prop::collection::vec(any::<f32>(), 0..32),
            ) {
                let _ = weights_from_raw(&bytes, &owned(&[&floats]));
            }
        }
    }
}
