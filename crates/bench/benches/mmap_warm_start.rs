//! Warm-start cost: reading a raw container through the store.
//!
//! Writes one checkpoint container holding an embedding-table-sized raw
//! section, then measures a warm read through the store's one read path,
//! which maps the file and borrows the vectors in place.

use criterion::{criterion_group, criterion_main, Criterion};
use kcb_core::ckpt::CkptStore;
use kcb_embed::store as estore;
use kcb_embed::EmbeddingTable;
use kcb_ml::linalg::Matrix;
use kcb_text::Vocab;
use kcb_util::Rng;
use std::collections::HashMap;
use std::hint::black_box;

fn table(n: usize, dim: usize) -> EmbeddingTable {
    let counts: HashMap<String, u64> =
        (0..n).map(|i| (format!("tok{i}"), (n - i) as u64 + 1)).collect();
    let vocab = Vocab::from_counts(counts, 0);
    let mut rng = Rng::seed(31);
    let rows: Vec<Vec<f32>> =
        (0..n).map(|_| (0..dim).map(|_| rng.f32_range(-1.0, 1.0)).collect()).collect();
    EmbeddingTable::new("bench", vocab, Matrix::from_rows(rows))
}

fn bench_warm_start(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("kcb-mmap-bench-{}", std::process::id()));
    let t = table(5_000, 64);
    {
        let store = CkptStore::open(&dir);
        let (meta, vectors) = estore::raw_parts(&t);
        store.put("bench", "warm", &meta, &[vectors]);
    }
    let mut g = c.benchmark_group("warm_start");
    g.sample_size(20);
    g.bench_function("raw_container/mmap", |b| {
        b.iter(|| {
            let store = CkptStore::open(&dir);
            let got = store.take("bench", "warm", estore::from_raw).expect("warm read");
            // Touch one row so lazily-verified stripes do real work.
            black_box(got.vector(0)[0])
        })
    });
    g.finish();
    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, bench_warm_start);
criterion_main!(benches);
