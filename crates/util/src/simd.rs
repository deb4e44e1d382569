//! Explicit-width SIMD-style kernels for the hot query path.
//!
//! Every kernel here processes chunks of eight `f32` lanes with a scalar
//! tail, but accumulates into the *same four-lane association* as the
//! original `kcb-ml::linalg` kernels: lane `i` sums the products at indices
//! `≡ i mod 4`, the final reduction is `(l0+l2)+(l1+l3)`, and the tail is
//! added in order. That contract is what keeps artifacts byte-identical to
//! the pre-SIMD implementation — the wide kernels change *when* work happens
//! (two fused lane updates per 8-element chunk, so LLVM emits 256-bit ops),
//! never *what* is summed with what.
//!
//! A scalar variant with the identical association ([`dot_scalar`]) is kept
//! both as the benchmark baseline and as a cross-check: the tests assert
//! bitwise equality at every length class. It walks each lane in a separate
//! strided pass, which defeats auto-vectorization and so measures what the
//! query path would cost without the wide kernels.

/// Wide dot product: chunks of 8, two four-lane updates per chunk, then a
/// chunk-of-4 fixup and the in-order tail. Same association as the original
/// four-lane kernel at every length.
#[inline]
pub fn dot_wide(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; 4];
    let ca = a.chunks_exact(8);
    let cb = b.chunks_exact(8);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (x, y) in ca.zip(cb) {
        for c in 0..4 {
            lanes[c] += x[c] * y[c];
        }
        for c in 0..4 {
            lanes[c] += x[4 + c] * y[4 + c];
        }
    }
    // 4..8 leftover elements may still hold one full 4-chunk.
    let c4 = ra.chunks_exact(4);
    let d4 = rb.chunks_exact(4);
    let (ta, tb) = (c4.remainder(), d4.remainder());
    for (x, y) in c4.zip(d4) {
        for c in 0..4 {
            lanes[c] += x[c] * y[c];
        }
    }
    let mut s = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
    for (x, y) in ta.iter().zip(tb) {
        s += x * y;
    }
    s
}

/// Scalar reference dot: four separate strided passes (lane 0 sums indices
/// 0,4,8,…, then lane 1, …) followed by the same reduction and tail. The
/// strided walk keeps LLVM from vectorizing, making this an honest baseline,
/// while the association — and therefore every bit — matches [`dot_wide`].
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let n4 = (a.len() / 4) * 4;
    let mut lanes = [0.0f32; 4];
    for (c, lane) in lanes.iter_mut().enumerate() {
        let mut i = c;
        while i < n4 {
            *lane += a[i] * b[i];
            i += 4;
        }
    }
    let mut s = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
    for (x, y) in a[n4..].iter().zip(&b[n4..]) {
        s += x * y;
    }
    s
}

/// Wide interleaved four-dot: 16 independent accumulator lanes hide FP-add
/// latency; per-output association matches [`dot_wide`].
pub fn dot4_wide(a: &[f32], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) -> [f32; 4] {
    debug_assert!(a.len() == b0.len() && a.len() == b1.len());
    debug_assert!(a.len() == b2.len() && a.len() == b3.len());
    let mut lanes = [[0.0f32; 4]; 4];
    let n8 = (a.len() / 8) * 8;
    let mut i = 0;
    while i < n8 {
        let av: &[f32] = &a[i..i + 8];
        for (l, b) in lanes.iter_mut().zip([b0, b1, b2, b3]) {
            let bv = &b[i..i + 8];
            for c in 0..4 {
                l[c] += av[c] * bv[c];
            }
            for c in 0..4 {
                l[c] += av[4 + c] * bv[4 + c];
            }
        }
        i += 8;
    }
    let n4 = (a.len() / 4) * 4;
    if n4 > n8 {
        let av: &[f32] = &a[n8..n8 + 4];
        for (l, b) in lanes.iter_mut().zip([b0, b1, b2, b3]) {
            let bv = &b[n8..n8 + 4];
            for c in 0..4 {
                l[c] += av[c] * bv[c];
            }
        }
    }
    let mut out = [0.0f32; 4];
    for (o, (l, b)) in out.iter_mut().zip(lanes.iter().zip([b0, b1, b2, b3])) {
        let mut s = (l[0] + l[2]) + (l[1] + l[3]);
        for (x, y) in a[n4..].iter().zip(&b[n4..]) {
            s += x * y;
        }
        *o = s;
    }
    out
}

/// `y += alpha * x`. A single elementwise pass — each `y[i]` receives exactly
/// one fused update, so chunking cannot change bits; the chunks-of-8 shape
/// just keeps LLVM honest about emitting wide ops in cold builds.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    let cx = x.chunks_exact(8);
    let rx = cx.remainder();
    let mut cy = y.chunks_exact_mut(8);
    for (yv, xv) in (&mut cy).zip(cx) {
        for c in 0..8 {
            yv[c] += alpha * xv[c];
        }
    }
    for (yi, xi) in cy.into_remainder().iter_mut().zip(rx) {
        *yi += alpha * xi;
    }
}

/// One matmul micro-kernel step: `acc[c] += av * bk[c]` over an 8-wide tile
/// row. Fixed width lets the compiler keep `acc` in one vector register
/// across the k-loop of the `kcb-lm` tile kernel.
#[inline(always)]
pub fn fma_tile8(acc: &mut [f32; 8], av: f32, bk: &[f32; 8]) {
    for c in 0..8 {
        acc[c] += av * bk[c];
    }
}

/// Int8 dot product with exact i32 accumulation. Integer addition is
/// associative, so there is no lane contract to preserve — any chunking
/// gives the same answer; chunks of 16 map onto `pmaddwd`-style codegen.
#[inline]
pub fn dot_i8(a: &[i8], b: &[i8]) -> i32 {
    debug_assert_eq!(a.len(), b.len());
    let ca = a.chunks_exact(16);
    let cb = b.chunks_exact(16);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    let mut acc: i32 = 0;
    for (x, y) in ca.zip(cb) {
        let mut lane: i32 = 0;
        for c in 0..16 {
            lane += i32::from(x[c]) * i32::from(y[c]);
        }
        acc += lane;
    }
    for (x, y) in ra.iter().zip(rb) {
        acc += i32::from(*x) * i32::from(*y);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = crate::Rng::seed_stream(seed, 0x51);
        (0..len).map(|_| rng.f32_range(-2.0, 2.0)).collect()
    }

    /// The original four-lane kernel, transcribed verbatim, as the
    /// association oracle for the wide and scalar kernels.
    fn dot_reference(a: &[f32], b: &[f32]) -> f32 {
        let mut lanes = [0.0f32; 4];
        let ca = a.chunks_exact(4);
        let cb = b.chunks_exact(4);
        let (ra, rb) = (ca.remainder(), cb.remainder());
        for (x, y) in ca.zip(cb) {
            lanes[0] += x[0] * y[0];
            lanes[1] += x[1] * y[1];
            lanes[2] += x[2] * y[2];
            lanes[3] += x[3] * y[3];
        }
        let mut s = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
        for (x, y) in ra.iter().zip(rb) {
            s += x * y;
        }
        s
    }

    #[test]
    fn wide_and_scalar_match_reference_bitwise() {
        // Cover: tail-only, one 4-chunk, 8-chunk boundary, 8k+4, 8k+tail.
        for len in [0usize, 1, 3, 4, 5, 7, 8, 9, 11, 12, 15, 16, 20, 23, 64, 100, 257] {
            let a = gen(len, 1);
            let b = gen(len, 2);
            let r = dot_reference(&a, &b);
            assert_eq!(dot_wide(&a, &b).to_bits(), r.to_bits(), "wide len {len}");
            assert_eq!(dot_scalar(&a, &b).to_bits(), r.to_bits(), "scalar len {len}");
        }
    }

    #[test]
    fn dot4_wide_matches_dot_wide_bitwise() {
        for len in [0usize, 3, 4, 7, 8, 12, 13, 48, 50, 100] {
            let a = gen(len, 1);
            let bs: Vec<Vec<f32>> = (2..6).map(|s| gen(len, s)).collect();
            let d = dot4_wide(&a, &bs[0], &bs[1], &bs[2], &bs[3]);
            for (i, b) in bs.iter().enumerate() {
                assert_eq!(d[i].to_bits(), dot_wide(&a, b).to_bits(), "len {len} lane {i}");
            }
        }
    }

    #[test]
    fn axpy_matches_elementwise() {
        for len in [0usize, 1, 7, 8, 9, 33] {
            let x = gen(len, 3);
            let mut y = gen(len, 4);
            let mut expect = y.clone();
            for (e, xi) in expect.iter_mut().zip(&x) {
                *e += 0.37 * xi;
            }
            axpy(0.37, &x, &mut y);
            assert_eq!(y, expect, "len {len}");
        }
    }

    #[test]
    fn fma_tile8_is_one_fused_step() {
        let mut acc = [1.0f32; 8];
        let bk = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0];
        fma_tile8(&mut acc, 2.0, &bk);
        for (c, a) in acc.iter().enumerate() {
            assert_eq!(*a, 1.0 + 2.0 * bk[c]);
        }
    }

    #[test]
    fn dot_i8_exact() {
        let a: Vec<i8> = (0..37).map(|i| ((i * 7) % 255) as u8 as i8).collect();
        let b: Vec<i8> = (0..37).map(|i| ((i * 13 + 5) % 255) as u8 as i8).collect();
        let expect: i32 = a.iter().zip(&b).map(|(x, y)| i32::from(*x) * i32::from(*y)).sum();
        assert_eq!(dot_i8(&a, &b), expect);
        // Saturation check: full-magnitude vectors stay exact in i32.
        let lo = vec![-128i8; 64];
        assert_eq!(dot_i8(&lo, &lo), 64 * 128 * 128);
    }
}
