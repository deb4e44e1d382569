//! Failure injection: the embedding checkpoint codec must reject arbitrary
//! metadata and raw sections gracefully, and round-trip arbitrary valid
//! tables.

use kcb_embed::{store, EmbeddingModel, EmbeddingTable};
use kcb_ml::linalg::Matrix;
use kcb_text::Vocab;
use kcb_util::mmap::{pack_f32s, RawSection};
use proptest::prelude::*;
use std::collections::HashMap;

/// An owned raw section over `floats`, as a checkpoint read that could not
/// map its file hands over.
fn owned(floats: &[f32]) -> RawSection {
    let (bytes, sums) = pack_f32s(&[floats]);
    let len = bytes.len();
    RawSection::from_owned(bytes, 0, len, sums).expect("valid section")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn from_raw_never_panics(
        meta in prop::collection::vec(any::<u8>(), 0..600),
        floats in prop::collection::vec(any::<f32>(), 0..64),
    ) {
        let _ = store::from_raw(&meta, &owned(&floats));
    }

    #[test]
    fn from_raw_never_panics_with_magic(
        tail in prop::collection::vec(any::<u8>(), 0..600),
        floats in prop::collection::vec(any::<f32>(), 0..64),
    ) {
        let mut meta = b"KCBE\x02\x00\x00\x00".to_vec();
        meta.extend(tail);
        let _ = store::from_raw(&meta, &owned(&floats));
    }

    #[test]
    fn round_trip_arbitrary_tables(
        tokens in prop::collection::hash_set("[a-z0-9]{1,10}", 1..30),
        dim in 1usize..16,
        seed in any::<u64>(),
    ) {
        let counts: HashMap<String, u64> =
            tokens.iter().enumerate().map(|(i, t)| (t.clone(), (i + 1) as u64)).collect();
        let vocab = Vocab::from_counts(counts, 0);
        let mut rng = kcb_util::Rng::seed(seed);
        let data: Vec<f32> = (0..vocab.len() * dim).map(|_| rng.f32_range(-2.0, 2.0)).collect();
        let table = EmbeddingTable::new("fuzz", vocab, Matrix::from_vec(data, tokens.len(), dim));
        let (meta, vectors) = store::raw_parts(&table);
        let back = store::from_raw(&meta, &owned(vectors)).expect("round trip");
        prop_assert_eq!(back.vocab_size(), table.vocab_size());
        prop_assert_eq!(back.dim(), table.dim());
        for id in 0..table.vocab_size() as u32 {
            prop_assert_eq!(table.vector(id), back.vector(id));
        }
    }
}
