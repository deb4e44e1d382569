//! Int8 scoring path: quantized dot / cosine vs the f32 kernels.

use criterion::{criterion_group, criterion_main, Criterion};
use kcb_ml::linalg::Matrix;
use kcb_ml::quant::{cosine_i8, QuantizedMatrix};
use kcb_util::{simd, Rng};
use std::hint::black_box;

fn f32_rows(rows: usize, cols: usize) -> Matrix {
    let mut rng = Rng::seed(29);
    let data: Vec<Vec<f32>> =
        (0..rows).map(|_| (0..cols).map(|_| rng.f32_range(-1.0, 1.0)).collect()).collect();
    Matrix::from_rows(data)
}

fn bench_int8_dot(c: &mut Criterion) {
    let m = f32_rows(2, 768);
    let q = QuantizedMatrix::quantize(&m);
    let (a8, b8) = (q.row(0).to_vec(), q.row(1).to_vec());
    let (af, bf) = (m.row(0).to_vec(), m.row(1).to_vec());
    let mut g = c.benchmark_group("int8");
    g.bench_function("dot_i8/768", |bch| {
        bch.iter(|| simd::dot_i8(black_box(&a8), black_box(&b8)))
    });
    g.bench_function("dot_f32/768", |bch| {
        bch.iter(|| simd::dot_wide(black_box(&af), black_box(&bf)))
    });
    g.finish();
}

fn bench_int8_nearest(c: &mut Criterion) {
    // One nearest-neighbour scan: cosine of a query row against 2k rows.
    let m = f32_rows(2_000, 64);
    let q = QuantizedMatrix::quantize(&m);
    let mut g = c.benchmark_group("int8");
    g.bench_function("cosine_scan_i8/2k_rows", |bch| {
        bch.iter(|| {
            let probe = q.row(0);
            (1..q.rows()).map(|r| cosine_i8(black_box(probe), q.row(r))).sum::<f64>()
        })
    });
    g.bench_function("cosine_scan_f32/2k_rows", |bch| {
        bch.iter(|| {
            let probe = m.row(0);
            (1..m.rows())
                .map(|r| f64::from(kcb_ml::linalg::cosine(black_box(probe), m.row(r))))
                .sum::<f64>()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_int8_dot, bench_int8_nearest);
criterion_main!(benches);
