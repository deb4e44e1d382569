//! Random-forest training and inference (the Table 3 learner).

use criterion::{criterion_group, criterion_main, Criterion};
use kcb_ml::linalg::Matrix;
use kcb_ml::{RandomForest, RandomForestConfig};
use kcb_util::Rng;
use std::hint::black_box;

fn synthetic_data(n: usize, d: usize) -> (Matrix, Vec<bool>) {
    let mut rng = Rng::seed(2);
    let mut rows = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let row: Vec<f32> = (0..d).map(|_| rng.f32()).collect();
        y.push(row[0] + row[1] > 1.0);
        rows.push(row);
    }
    (Matrix::from_rows(rows), y)
}

/// The shape of a `repro` forest cell's training matrix: 1,300 triples
/// encoded as head, relation and tail blocks of 48 columns each. Every
/// column of a block takes its value from the row's entity, so the blocks
/// hold about 800, 9 and 640 distinct values per column, and the label
/// follows the head, the tail and the relation with 10% noise.
fn repro_shape_data() -> (Matrix, Vec<bool>) {
    const ROWS: usize = 1_300;
    const DIM: usize = 48;
    let mut rng = Rng::seed(3);
    let mut table = |k: usize| -> Vec<Vec<f32>> {
        (0..k).map(|_| (0..DIM).map(|_| rng.f32_range(-1.0, 1.0)).collect()).collect()
    };
    let (heads, relations, tails) = (table(800), table(9), table(640));
    let mut rows = Vec::with_capacity(ROWS);
    let mut y = Vec::with_capacity(ROWS);
    for i in 0..ROWS {
        // The first rows visit every entity once, so each block keeps all
        // of its distinct values.
        let pick = |rng: &mut Rng, k: usize| if i < k { i } else { rng.below(k) };
        let (h, r, t) = (pick(&mut rng, 800), pick(&mut rng, 9), pick(&mut rng, 640));
        let score = heads[h][0] + tails[t][1] + 0.3 * relations[r][2];
        y.push((score > 0.0) != rng.chance(0.1));
        rows.push([&heads[h][..], &relations[r][..], &tails[t][..]].concat());
    }
    (Matrix::from_rows(rows), y)
}

fn bench_forest(c: &mut Criterion) {
    let (x, y) = synthetic_data(4_000, 60);
    let cfg = RandomForestConfig { n_trees: 16, n_threads: 4, ..RandomForestConfig::default() };
    let mut g = c.benchmark_group("forest");
    g.sample_size(10);
    g.bench_function("fit/4k_rows_60_dims_16_trees", |b| {
        b.iter(|| RandomForest::fit(&x, &y, &cfg).n_trees())
    });
    let forest = RandomForest::fit(&x, &y, &cfg);
    g.bench_function("predict/4k_rows", |b| {
        b.iter(|| forest.predict_batch(black_box(&x)).len())
    });
    // The `--fast` lab's forest: 16 trees, depth 14, two rows per leaf.
    let (x, y) = repro_shape_data();
    let cfg = RandomForestConfig {
        n_trees: 16,
        max_depth: 14,
        min_samples_leaf: 2,
        n_threads: 1,
        ..RandomForestConfig::default()
    };
    g.bench_function("fit/repro_shape", |b| b.iter(|| RandomForest::fit(&x, &y, &cfg).n_trees()));
    g.finish();
}

criterion_group!(benches, bench_forest);
criterion_main!(benches);
