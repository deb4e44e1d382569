//! Minimal dense linear algebra: a row-major `f32` matrix and the slice
//! kernels shared by the learners. Flat storage (one allocation per matrix)
//! keeps hot loops cache-friendly; the per-row API hands out plain slices.

use kcb_util::mmap::SharedF32;

/// Backing storage for [`Matrix`]: an owned buffer, or a zero-copy view
/// borrowed from a memory-mapped checkpoint. Mutation promotes to `Owned`
/// (copy-on-write), so kernels never observe the difference.
#[derive(Debug, Clone)]
enum Storage {
    Owned(Vec<f32>),
    Shared(SharedF32),
}

impl Storage {
    #[inline]
    fn as_slice(&self) -> &[f32] {
        match self {
            Storage::Owned(v) => v,
            Storage::Shared(s) => s.as_slice(),
        }
    }
}

/// Row-major dense matrix of `f32`.
#[derive(Debug, Clone)]
pub struct Matrix {
    data: Storage,
    rows: usize,
    cols: usize,
}

impl PartialEq for Matrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.as_slice() == other.as_slice()
    }
}

impl Matrix {
    /// Zero-filled matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { data: Storage::Owned(vec![0.0; rows * cols]), rows, cols }
    }

    /// Builds from a flat row-major buffer. Panics when the length does not
    /// equal `rows * cols`.
    pub fn from_vec(data: Vec<f32>, rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
        Self { data: Storage::Owned(data), rows, cols }
    }

    /// Builds from a shared (possibly memory-mapped) buffer without copying.
    /// Panics when the view length does not equal `rows * cols`.
    pub fn from_shared(data: SharedF32, rows: usize, cols: usize) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
        Self { data: Storage::Shared(data), rows, cols }
    }

    /// Builds row-by-row from an iterator of equal-length rows.
    pub fn from_rows<I: IntoIterator<Item = Vec<f32>>>(rows: I) -> Self {
        let mut data = Vec::new();
        let mut n_rows = 0;
        let mut cols = 0;
        for row in rows {
            if n_rows == 0 {
                cols = row.len();
            }
            assert_eq!(row.len(), cols, "ragged rows");
            data.extend_from_slice(&row);
            n_rows += 1;
        }
        Self { data: Storage::Owned(data), rows: n_rows, cols }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.as_slice()[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable row slice. Promotes shared storage to owned first.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let cols = self.cols;
        &mut self.owned_mut()[r * cols..(r + 1) * cols]
    }

    /// Single element.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.as_slice()[r * self.cols + c]
    }

    /// Flat backing slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        self.data.as_slice()
    }

    /// Mutable flat backing slice (row-major). Lets parallel kernels split
    /// the matrix into disjoint row chunks via `chunks_mut`. Promotes shared
    /// storage to owned (copy-on-write) first.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        self.owned_mut()
    }

    /// True when the matrix borrows shared (mapped) storage.
    pub fn is_shared(&self) -> bool {
        matches!(self.data, Storage::Shared(_))
    }

    fn owned_mut(&mut self) -> &mut Vec<f32> {
        if let Storage::Shared(s) = &self.data {
            self.data = Storage::Owned(s.as_slice().to_vec());
        }
        match &mut self.data {
            Storage::Owned(v) => v,
            Storage::Shared(_) => unreachable!("just promoted"),
        }
    }

    /// Iterates over rows.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.as_slice().chunks_exact(self.cols)
    }
}

/// Numerically plain logistic sigmoid (shared by every SGNS/LSTM trainer
/// in the workspace).
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Dot product, accumulated in four independent lanes (lane `i` sums the
/// products at indices `≡ i mod 4`, then `(l0+l2)+(l1+l3)` plus the tail in
/// order). Runs the explicit-width kernel in `kcb_util::simd`, which keeps
/// that association, so results stay bitwise deterministic for a given
/// slice length regardless of thread count.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    kcb_util::simd::dot_wide(a, b)
}

/// Four dot products of `a` against `b0..b3`, interleaved. Each result is
/// bitwise identical to [`dot`] (same four-lane association); computing the
/// independent accumulator chains together hides the FP-add latency that
/// bounds a single running dot, which is what the `a @ bᵀ` matmul kernel
/// needs on one core.
#[inline]
pub fn dot4(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
    kcb_util::simd::dot4_wide(a, b0, b1, b2, b3)
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    kcb_util::simd::axpy(alpha, x, y)
}

/// Euclidean norm.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Euclidean distance.
#[inline]
pub fn euclidean(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f32>().sqrt()
}

/// Cosine similarity; 0.0 when either vector is all-zero.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot(a, b) / (na * nb)
    }
}

/// Element-wise mean of equal-length vectors; `None` when empty.
pub fn mean_of<'a, I: IntoIterator<Item = &'a [f32]>>(vectors: I) -> Option<Vec<f32>> {
    let mut it = vectors.into_iter();
    let first = it.next()?;
    let mut acc = first.to_vec();
    let mut n = 1usize;
    for v in it {
        axpy(1.0, v, &mut acc);
        n += 1;
    }
    let inv = 1.0 / n as f32;
    for a in &mut acc {
        *a *= inv;
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_shape_and_access() {
        let mut m = Matrix::zeros(2, 3);
        m.row_mut(1)[2] = 5.0;
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.row(0), &[0.0, 0.0, 0.0]);
        assert_eq!(m.iter_rows().count(), 2);
    }

    #[test]
    fn from_rows_builds_in_order() {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn kernels() {
        let a = [1.0, 2.0, 3.0];
        let b = [4.0, 5.0, 6.0];
        assert_eq!(dot(&a, &b), 32.0);
        assert!((norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-6);
        let mut y = [1.0, 1.0, 1.0];
        axpy(2.0, &a, &mut y);
        assert_eq!(y, [3.0, 5.0, 7.0]);
    }

    #[test]
    fn dot4_matches_dot_bitwise() {
        // Lengths exercising the lane loop, the tail, and tail-only.
        for len in [3usize, 4, 7, 12, 48, 50] {
            let gen = |s: u64| -> Vec<f32> {
                (0..len).map(|i| ((i as f32 + s as f32) * 0.37).sin()).collect()
            };
            let a = gen(1);
            let bs: Vec<Vec<f32>> = (2..6).map(gen).collect();
            let d = dot4(&a, &bs[0], &bs[1], &bs[2], &bs[3]);
            for (i, b) in bs.iter().enumerate() {
                assert_eq!(d[i], dot(&a, b), "len {len} lane {i}");
            }
        }
    }

    #[test]
    fn shared_storage_reads_like_owned_and_promotes_on_write() {
        let data = vec![1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let owned = Matrix::from_vec(data.clone(), 2, 3);
        let shared = Matrix::from_shared(kcb_util::mmap::SharedF32::from_vec(data), 2, 3);
        assert!(shared.is_shared());
        assert_eq!(shared, owned);
        assert_eq!(shared.row(1), owned.row(1));
        assert_eq!(shared.get(0, 2), 3.0);
        let mut promoted = shared.clone();
        promoted.row_mut(0)[0] = 9.0;
        assert!(!promoted.is_shared());
        assert_eq!(promoted.get(0, 0), 9.0);
        // The original shared view is untouched (copy-on-write).
        assert_eq!(shared.get(0, 0), 1.0);
    }

    #[test]
    fn cosine_properties() {
        let a = [1.0, 0.0];
        assert!((cosine(&a, &[2.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine(&a, &[0.0, 1.0]).abs() < 1e-6);
        assert_eq!(cosine(&a, &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn mean_of_vectors() {
        let rows: Vec<Vec<f32>> = vec![vec![1.0, 3.0], vec![3.0, 5.0]];
        let m = mean_of(rows.iter().map(|r| r.as_slice())).unwrap();
        assert_eq!(m, vec![2.0, 4.0]);
        assert!(mean_of(std::iter::empty::<&[f32]>()).is_none());
    }
}
