//! Blocked, autovectorizer-friendly numeric kernels with a **fixed
//! reduction tree**.
//!
//! Floating-point addition is not associative, so "the sum of a row" is
//! only well-defined once an association order is chosen. This module
//! chooses one — the *8-lane tree* — and every kernel in the crate
//! (blocked matmul, fused attention, softmax) commits to it:
//!
//! 1. element `k` of a length-`K` reduction is accumulated into lane
//!    `k mod 8` by a **fused multiply-add** — `lane = fma(aₖ, bₖ, lane)`,
//!    one rounding per element (eight independent partial sums);
//! 2. the eight lanes are combined by the fixed pairwise tree
//!    `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`.
//!
//! The order depends only on `K` — never on blocking factors, register
//! tiling, core count, or machine shape — so the blocked kernels in
//! [`crate::matrix`] / [`crate::attention`] and the paper-literal scalar
//! oracle in [`crate::reference`] produce **bitwise-identical** outputs,
//! and the repo's bit-identity pins (served == offline bytes, N-shard ==
//! 1-shard) hold unchanged. The fma is the keystone of both halves of
//! that claim: IEEE 754 defines `fma` as *exactly rounded*, so
//! `f32::mul_add` in the portable loop, `vfmadd` in the x86-64 fast
//! path, and the hardware fma of any other architecture all produce the
//! same bits — and eight lanes is exactly one 8-wide AVX2 register, so
//! the fast path holds the accumulators in a single `ymm` (detected at
//! runtime; every other machine takes the portable loop with the same
//! lane assignment). The fast path also combines the lanes in the
//! register: `hadd` pairs `l0+l1 … l6+l7`, a second `hadd` forms both
//! quads, and one add joins the 128-bit halves — the same three levels
//! of the same tree, so no lane is spilled to memory to be summed.
//!
//! The transcendental in the softmax chain is pinned the same way:
//! [`exp_det`] is a polynomial `exp` built from pure f32 arithmetic, so
//! the hot path has no libm dependency whose bits could vary across
//! platforms.

/// Lane count of the fixed reduction tree (and the register tile width).
pub const LANES: usize = 8;

/// Combine the eight lane accumulators with the fixed pairwise tree.
#[inline]
pub fn reduce_lanes(l: &[f32; LANES]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// True when the x86-64 AVX2+FMA fast paths may run (cached by std).
#[cfg(target_arch = "x86_64")]
#[inline]
fn have_simd() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// Canonical dot product `aᵀb` under the 8-lane fma reduction tree.
///
/// The remainder lands in lanes `0..len%8`, which is exactly the
/// `k mod 8` lane assignment the tree defines (the remainder starts at a
/// multiple of eight).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    #[cfg(target_arch = "x86_64")]
    if have_simd() {
        // SAFETY: features checked by `have_simd`.
        return unsafe { dot_fma(a, b) };
    }
    let mut lanes = [0.0f32; LANES];
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        let l = k % LANES;
        lanes[l] = x.mul_add(*y, lanes[l]);
    }
    reduce_lanes(&lanes)
}

/// AVX2+FMA dot: the eight lanes live in one `ymm`; `vfmadd` rounds each
/// lane exactly like scalar `f32::mul_add` (both are the exactly-rounded
/// IEEE fma), so the bits match the portable loop — the parity suite
/// asserts it against [`crate::reference::dot`]. The remainder and the
/// final tree never leave the register (see [`fma_tail`], [`tree1`]).
///
/// # Safety
///
/// The caller must have verified avx2+fma support (see `have_simd`) and
/// that `a.len() == b.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_fma(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    let k = a.len();
    let whole = k - k % LANES;
    let mut acc = _mm256_setzero_ps();
    let mut i = 0;
    // SAFETY: every load reads 8 floats at `i..i+8 <= whole <= len` of
    // both slices (lengths equal per the contract); the tail reads the
    // `k - whole` floats left in each.
    unsafe {
        while i < whole {
            let x = _mm256_loadu_ps(a.as_ptr().add(i));
            let y = _mm256_loadu_ps(b.as_ptr().add(i));
            acc = _mm256_fmadd_ps(x, y, acc);
            i += LANES;
        }
        if whole < k {
            let mask = tail_mask(k - whole);
            let x = _mm256_maskload_ps(a.as_ptr().add(whole), mask);
            acc = fma_tail(acc, x, b.as_ptr().add(whole), mask);
        }
    }
    tree1(acc)
}

/// Lane mask selecting lanes `0..rem` (`rem < 8`): the remainder lanes
/// of a reduction whose length is not a multiple of eight.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
fn tail_mask(rem: usize) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    _mm256_cmpgt_epi32(
        _mm256_set1_epi32(rem as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    )
}

/// Accumulate the remainder `x[l]·row[l]` into lanes `l` under `mask`,
/// leaving the other lanes' bits untouched (a blend, not `fma(0, 0, l)`,
/// which would turn a `-0.0` lane into `+0.0`).
///
/// # Safety
///
/// The caller must have verified avx2+fma support, and `row` must be
/// readable for every lane `mask` selects.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn fma_tail(
    acc: std::arch::x86_64::__m256,
    x: std::arch::x86_64::__m256,
    row: *const f32,
    mask: std::arch::x86_64::__m256i,
) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    // SAFETY: `maskload` touches only the lanes `mask` selects, which the
    // caller guarantees are readable.
    let y = unsafe { _mm256_maskload_ps(row, mask) };
    _mm256_blendv_ps(acc, _mm256_fmadd_ps(x, y, acc), _mm256_castsi256_ps(mask))
}

/// [`reduce_lanes`] of one `ymm` without leaving registers: two `hadd`s
/// leave `(l0+l1)+(l2+l3)` in the low half and `(l4+l5)+(l6+l7)` in the
/// high half, and one add joins them — the fixed tree, operation for
/// operation.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
fn tree1(v: std::arch::x86_64::__m256) -> f32 {
    use std::arch::x86_64::*;
    let h = _mm256_hadd_ps(v, v);
    let q = _mm256_hadd_ps(h, h);
    _mm_cvtss_f32(_mm_add_ps(
        _mm256_castps256_ps128(q),
        _mm256_extractf128_ps::<1>(q),
    ))
}

/// Four [`reduce_lanes`] trees at once: lane `t` of the result is the
/// tree of `v[t]`. The nested `hadd`s put `(l0+l1)+(l2+l3)` of every
/// input in the low half and `(l4+l5)+(l6+l7)` in the high half.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
fn tree4(v: [std::arch::x86_64::__m256; 4]) -> std::arch::x86_64::__m128 {
    use std::arch::x86_64::*;
    let q = _mm256_hadd_ps(_mm256_hadd_ps(v[0], v[1]), _mm256_hadd_ps(v[2], v[3]));
    _mm_add_ps(_mm256_castps256_ps128(q), _mm256_extractf128_ps::<1>(q))
}

/// Eight [`reduce_lanes`] trees at once: lane `t` of the result is the
/// tree of `v[t]` — two [`tree4`] halves whose low and high quarters are
/// regrouped by `permute2f128` before the final add.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
fn tree8(v: [std::arch::x86_64::__m256; 8]) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let a = _mm256_hadd_ps(_mm256_hadd_ps(v[0], v[1]), _mm256_hadd_ps(v[2], v[3]));
    let b = _mm256_hadd_ps(_mm256_hadd_ps(v[4], v[5]), _mm256_hadd_ps(v[6], v[7]));
    _mm256_add_ps(
        _mm256_permute2f128_ps::<0x20>(a, b),
        _mm256_permute2f128_ps::<0x31>(a, b),
    )
}

/// Register-tiled micro-kernel: four dot products of `a` against four
/// packed rows, computed simultaneously.
///
/// The tile holds 4 × 8 = 32 lane accumulators (four `ymm` registers on
/// x86-64) and loads each chunk of `a` once per four outputs instead of
/// four times. Each of the four reductions runs the *same* per-element
/// order as [`dot`], so tiling is invisible in the output bits.
#[inline]
pub fn dot4(a: &[f32], b: [&[f32]; 4]) -> [f32; 4] {
    let k = a.len();
    for row in &b {
        assert_eq!(row.len(), k, "dot4 length mismatch");
    }
    #[cfg(target_arch = "x86_64")]
    if have_simd() {
        // SAFETY: features checked by `have_simd`, lengths above.
        return unsafe { dot4_fma(a, b) };
    }
    let whole = k - k % LANES;
    let mut acc = [[0.0f32; LANES]; 4];
    let mut base = 0;
    while base < whole {
        let ca: &[f32; LANES] = a[base..base + LANES].try_into().expect("chunk");
        for (t, acc_t) in acc.iter_mut().enumerate() {
            let cb: &[f32; LANES] = b[t][base..base + LANES].try_into().expect("chunk");
            for l in 0..LANES {
                acc_t[l] = ca[l].mul_add(cb[l], acc_t[l]);
            }
        }
        base += LANES;
    }
    for kk in whole..k {
        let l = kk - whole;
        for (t, acc_t) in acc.iter_mut().enumerate() {
            acc_t[l] = a[kk].mul_add(b[t][kk], acc_t[l]);
        }
    }
    [
        reduce_lanes(&acc[0]),
        reduce_lanes(&acc[1]),
        reduce_lanes(&acc[2]),
        reduce_lanes(&acc[3]),
    ]
}

/// AVX2+FMA register tile: four independent `vfmadd` chains give the
/// out-of-order core enough parallelism to stream at the fma issue rate.
///
/// # Safety
///
/// The caller must have verified avx2+fma support (see `have_simd`) and
/// that every row of `b` has length `a.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dot4_fma(a: &[f32], b: [&[f32]; 4]) -> [f32; 4] {
    use std::arch::x86_64::*;
    let k = a.len();
    let whole = k - k % LANES;
    let mut v0 = _mm256_setzero_ps();
    let mut v1 = _mm256_setzero_ps();
    let mut v2 = _mm256_setzero_ps();
    let mut v3 = _mm256_setzero_ps();
    let mut i = 0;
    let mut out = [0.0f32; 4];
    // SAFETY: row lengths equal `len` per the contract, so every load
    // reads 8 floats at `i..i+8 <= whole <= len` and the tail reads the
    // `k - whole` floats left in each row; the store writes `out`.
    unsafe {
        while i < whole {
            let x = _mm256_loadu_ps(a.as_ptr().add(i));
            v0 = _mm256_fmadd_ps(x, _mm256_loadu_ps(b[0].as_ptr().add(i)), v0);
            v1 = _mm256_fmadd_ps(x, _mm256_loadu_ps(b[1].as_ptr().add(i)), v1);
            v2 = _mm256_fmadd_ps(x, _mm256_loadu_ps(b[2].as_ptr().add(i)), v2);
            v3 = _mm256_fmadd_ps(x, _mm256_loadu_ps(b[3].as_ptr().add(i)), v3);
            i += LANES;
        }
        if whole < k {
            let mask = tail_mask(k - whole);
            let x = _mm256_maskload_ps(a.as_ptr().add(whole), mask);
            v0 = fma_tail(v0, x, b[0].as_ptr().add(whole), mask);
            v1 = fma_tail(v1, x, b[1].as_ptr().add(whole), mask);
            v2 = fma_tail(v2, x, b[2].as_ptr().add(whole), mask);
            v3 = fma_tail(v3, x, b[3].as_ptr().add(whole), mask);
        }
        _mm_storeu_ps(out.as_mut_ptr(), tree4([v0, v1, v2, v3]));
    }
    out
}

/// Row-batched macro-kernel: the canonical [`dot`] of `a` against every
/// one of the `out.len()` packed rows in `rows` (row-major, each of
/// length `a.len()`), in a single call.
///
/// This is the shape the hot loops actually want — a whole score row or
/// a whole output-column block at once — because it pays the runtime
/// dispatch, register setup, and horizontal reductions **once per
/// batch** instead of once per handful of outputs. Internally the fast
/// path sweeps 8-output register tiles (with 4-wide and single-chain
/// tails), but per-row the element order is exactly [`dot`]'s, so the
/// batching is invisible in the output bits.
#[inline]
pub fn dot_rows(a: &[f32], rows: &[f32], out: &mut [f32]) {
    let k = a.len();
    assert_eq!(rows.len(), k * out.len(), "dot_rows shape mismatch");
    #[cfg(target_arch = "x86_64")]
    if have_simd() {
        // SAFETY: features checked by `have_simd`, packing shape above.
        unsafe { dot_rows_fma(a, rows, out) };
        return;
    }
    for (j, o) in out.iter_mut().enumerate() {
        *o = dot(a, &rows[j * k..(j + 1) * k]);
    }
}

/// AVX2+FMA row batch: eight independent `vfmadd` chains per tile (the
/// fma unit needs ~8 chains in flight to cover its latency×throughput
/// window), named accumulators and hoisted row pointers so everything
/// stays in registers — the remainder lanes and all eight trees too
/// ([`fma_tail`], [`tree8`]) — tails through [`dot4_fma`] / [`dot_fma`].
///
/// # Safety
///
/// The caller must have verified avx2+fma support (see `have_simd`) and
/// that `rows.len() == a.len() * out.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dot_rows_fma(a: &[f32], rows: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let k = a.len();
    let whole = k - k % LANES;
    let n = out.len();
    let ap = a.as_ptr();
    let mut j = 0;
    while j + 8 <= n {
        // SAFETY: `rows.len() == k·n` per the contract, so rows `j..j+8`
        // span `rows[j·k..(j+8)·k]`; chunk loads stop at `whole`, the
        // masked tail reads stay below `k`, and the store writes
        // `out[j..j+8]` (`j + 8 <= n`).
        unsafe {
            let p0 = rows.as_ptr().add(j * k);
            let p1 = p0.add(k);
            let p2 = p1.add(k);
            let p3 = p2.add(k);
            let p4 = p3.add(k);
            let p5 = p4.add(k);
            let p6 = p5.add(k);
            let p7 = p6.add(k);
            let mut v0 = _mm256_setzero_ps();
            let mut v1 = _mm256_setzero_ps();
            let mut v2 = _mm256_setzero_ps();
            let mut v3 = _mm256_setzero_ps();
            let mut v4 = _mm256_setzero_ps();
            let mut v5 = _mm256_setzero_ps();
            let mut v6 = _mm256_setzero_ps();
            let mut v7 = _mm256_setzero_ps();
            let mut i = 0;
            while i < whole {
                let x = _mm256_loadu_ps(ap.add(i));
                v0 = _mm256_fmadd_ps(x, _mm256_loadu_ps(p0.add(i)), v0);
                v1 = _mm256_fmadd_ps(x, _mm256_loadu_ps(p1.add(i)), v1);
                v2 = _mm256_fmadd_ps(x, _mm256_loadu_ps(p2.add(i)), v2);
                v3 = _mm256_fmadd_ps(x, _mm256_loadu_ps(p3.add(i)), v3);
                v4 = _mm256_fmadd_ps(x, _mm256_loadu_ps(p4.add(i)), v4);
                v5 = _mm256_fmadd_ps(x, _mm256_loadu_ps(p5.add(i)), v5);
                v6 = _mm256_fmadd_ps(x, _mm256_loadu_ps(p6.add(i)), v6);
                v7 = _mm256_fmadd_ps(x, _mm256_loadu_ps(p7.add(i)), v7);
                i += LANES;
            }
            if whole < k {
                let mask = tail_mask(k - whole);
                let x = _mm256_maskload_ps(ap.add(whole), mask);
                v0 = fma_tail(v0, x, p0.add(whole), mask);
                v1 = fma_tail(v1, x, p1.add(whole), mask);
                v2 = fma_tail(v2, x, p2.add(whole), mask);
                v3 = fma_tail(v3, x, p3.add(whole), mask);
                v4 = fma_tail(v4, x, p4.add(whole), mask);
                v5 = fma_tail(v5, x, p5.add(whole), mask);
                v6 = fma_tail(v6, x, p6.add(whole), mask);
                v7 = fma_tail(v7, x, p7.add(whole), mask);
            }
            _mm256_storeu_ps(
                out.as_mut_ptr().add(j),
                tree8([v0, v1, v2, v3, v4, v5, v6, v7]),
            );
        }
        j += 8;
    }
    while j + 4 <= n {
        // SAFETY: features hold in this fn; the four slices have length
        // `k` by the shape contract.
        let r = unsafe {
            dot4_fma(
                a,
                [
                    &rows[j * k..(j + 1) * k],
                    &rows[(j + 1) * k..(j + 2) * k],
                    &rows[(j + 2) * k..(j + 3) * k],
                    &rows[(j + 3) * k..(j + 4) * k],
                ],
            )
        };
        out[j..j + 4].copy_from_slice(&r);
        j += 4;
    }
    while j < n {
        // SAFETY: features hold in this fn; the slice has length `k`.
        out[j] = unsafe { dot_fma(a, &rows[j * k..(j + 1) * k]) };
        j += 1;
    }
}

/// Arguments above this return `+∞` (true `exp` stays finite up to
/// ~88.72, but softmax arguments are always ≤ 0, so the corner is moot).
pub const EXP_HI: f32 = 88.0;
/// Arguments below this return `0.0` (true `exp` stays normal down to
/// ~-87.33; flushing early avoids the subnormal range entirely).
pub const EXP_LO: f32 = -87.0;

const LOG2E: f32 = std::f32::consts::LOG2_E;
// ln(2) split into a coarse part exactly representable in 9 bits and a
// correction term, so `x - k·ln2` loses no low bits (Cephes expf).
#[allow(clippy::excessive_precision)]
const LN2_HI: f32 = 0.693_359_375;
const LN2_LO: f32 = -2.121_944_4e-4;
// Degree-6 minimax coefficients for `exp(r)` on `|r| ≤ ln2/2` (Cephes
// `expf`), highest order first — the one polynomial both the scalar and
// the 8-wide path evaluate.
#[allow(clippy::excessive_precision)]
const EXP_C: [f32; 6] = [
    1.987_569_2e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    1.666_666_5e-1,
    5.000_000_1e-1,
];
// 1.5 · 2²³: adding then subtracting it rounds |v| < 2²² to the nearest
// integer (ties to even) using nothing but f32 adds — the same two ops
// in the scalar and the 8-wide path, so `k` cannot differ between them.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// Deterministic `exp(x)`: polynomial approximation built from pure f32
/// arithmetic — no libm, identical bits on every platform.
///
/// Range reduction `x = k·ln2 + r` with `|r| ≤ ln2/2`, a degree-6
/// polynomial for `exp(r)` (Cephes `expf` coefficients, ≈1 ulp on the
/// reduced interval), and a `2^k` scale through the exponent bits.
/// `NaN` propagates; `±∞` saturate through the clamps.
#[inline]
pub fn exp_det(x: f32) -> f32 {
    if x.is_nan() {
        return x;
    }
    if x >= EXP_HI {
        return f32::INFINITY;
    }
    if x <= EXP_LO {
        return 0.0;
    }
    let k = (x * LOG2E + ROUND_MAGIC) - ROUND_MAGIC;
    let r = x - k * LN2_HI - k * LN2_LO;
    let mut p = EXP_C[0];
    for &c in &EXP_C[1..] {
        p = p * r + c;
    }
    let y = r * (r * p) + r + 1.0;
    // |k| ≤ 127 inside the clamps, so the biased exponent stays in range.
    y * f32::from_bits((((k as i32) + 127) << 23) as u32)
}

/// 8-wide [`exp_det`]: the same clamp thresholds, magic-number round,
/// `ln 2` split, polynomial, and exponent-bit scale, lane by lane — every
/// operation is the packed form of the scalar one, so each lane's bits
/// equal `exp_det` of that lane. Out-of-range and NaN lanes are computed
/// anyway (harmlessly — no unmasked FP exceptions) and blended away.
///
/// # Safety
///
/// The caller must have verified avx2+fma support (see `have_simd`).
/// Pure value computation otherwise — no memory is touched.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn exp8(x: std::arch::x86_64::__m256) -> std::arch::x86_64::__m256 {
    use std::arch::x86_64::*;
    let nan_mask = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
    let hi_mask = _mm256_cmp_ps::<_CMP_GE_OQ>(x, _mm256_set1_ps(EXP_HI));
    let lo_mask = _mm256_cmp_ps::<_CMP_LE_OQ>(x, _mm256_set1_ps(EXP_LO));
    let magic = _mm256_set1_ps(ROUND_MAGIC);
    let v = _mm256_mul_ps(x, _mm256_set1_ps(LOG2E));
    let kf = _mm256_sub_ps(_mm256_add_ps(v, magic), magic);
    let r = _mm256_sub_ps(
        _mm256_sub_ps(x, _mm256_mul_ps(kf, _mm256_set1_ps(LN2_HI))),
        _mm256_mul_ps(kf, _mm256_set1_ps(LN2_LO)),
    );
    let mut p = _mm256_set1_ps(EXP_C[0]);
    for &c in &EXP_C[1..] {
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(c));
    }
    let y = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(r, _mm256_mul_ps(r, p)), r),
        _mm256_set1_ps(1.0),
    );
    let ki = _mm256_cvttps_epi32(kf);
    let scale = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
        ki,
        _mm256_set1_epi32(127),
    )));
    let mut out = _mm256_mul_ps(y, scale);
    out = _mm256_andnot_ps(lo_mask, out);
    out = _mm256_blendv_ps(out, _mm256_set1_ps(f32::INFINITY), hi_mask);
    _mm256_blendv_ps(out, x, nan_mask)
}

/// Numerically-stable softmax of one row, in place, in canonical order:
/// sequential max, sequential `exp_det` + sum, sequential normalization.
///
/// Edge semantics (shared with the oracle by construction): an empty row
/// is a no-op; a row whose exp-sum is not `> 0` (all `-∞`, or any `NaN`)
/// is left as the raw `exp_det` values, never divided.
#[inline]
pub fn softmax(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    #[cfg(target_arch = "x86_64")]
    if have_simd() {
        // SAFETY: features checked by `have_simd`.
        unsafe { softmax_tail_avx2(row, max) };
        return;
    }
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = exp_det(*v - max);
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// The exp/sum/divide tail of [`softmax`], 8 lanes at a time. Subtract,
/// [`exp8`], and divide are packed forms of the scalar ops (per-lane
/// identical bits); the sum stays a sequential scalar loop because that
/// *is* the canonical order the oracle defines.
///
/// # Safety
///
/// The caller must have verified avx2+fma support (see `have_simd`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn softmax_tail_avx2(row: &mut [f32], max: f32) {
    use std::arch::x86_64::*;
    let n = row.len();
    let whole = n - n % LANES;
    let m = _mm256_set1_ps(max);
    let mut i = 0;
    // SAFETY: each load/store touches 8 floats at `i..i+8 <= whole <= n`;
    // exp8's features hold in this fn.
    unsafe {
        while i < whole {
            let v = _mm256_loadu_ps(row.as_ptr().add(i));
            let e = exp8(_mm256_sub_ps(v, m));
            _mm256_storeu_ps(row.as_mut_ptr().add(i), e);
            i += LANES;
        }
    }
    for v in &mut row[whole..] {
        *v = exp_det(*v - max);
    }
    let mut sum = 0.0f32;
    for &v in row.iter() {
        sum += v;
    }
    if sum > 0.0 {
        let s = _mm256_set1_ps(sum);
        let mut i = 0;
        // SAFETY: same bounds as the exp pass above.
        unsafe {
            while i < whole {
                let v = _mm256_loadu_ps(row.as_ptr().add(i));
                _mm256_storeu_ps(row.as_mut_ptr().add(i), _mm256_div_ps(v, s));
                i += LANES;
            }
        }
        for v in &mut row[whole..] {
            *v /= sum;
        }
    }
}

/// Sequential f64 fold `acc + Σ xᵢ·wᵢ` — the span-score dot product of
/// the QA model. One definition, used by both the view-global scorer
/// (`gced_qa::model`) and the incremental run cache
/// (`gced_qa::incremental`), so the two paths cannot drift: their
/// bit-equality contract *is* this function.
#[inline]
pub fn fold_dot_f64(mut acc: f64, xs: &[f64], ws: &[f64]) -> f64 {
    for (x, w) in xs.iter().zip(ws) {
        acc += x * w;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_lane_definition() {
        // 11 elements: one full chunk + remainder of 3.
        let a: Vec<f32> = (0..11).map(|i| 0.1 * i as f32 - 0.4).collect();
        let b: Vec<f32> = (0..11).map(|i| 0.3 - 0.05 * i as f32).collect();
        let mut lanes = [0.0f32; LANES];
        for k in 0..11 {
            lanes[k % LANES] = a[k].mul_add(b[k], lanes[k % LANES]);
        }
        assert_eq!(dot(&a, &b), reduce_lanes(&lanes));
    }

    #[test]
    fn dot4_is_bitwise_four_dots() {
        let a: Vec<f32> = (0..29).map(|i| (i as f32).sin()).collect();
        let rows: Vec<Vec<f32>> = (0..4)
            .map(|r| (0..29).map(|i| ((i + r) as f32).cos()).collect())
            .collect();
        let tiled = dot4(&a, [&rows[0], &rows[1], &rows[2], &rows[3]]);
        for t in 0..4 {
            assert_eq!(tiled[t].to_bits(), dot(&a, &rows[t]).to_bits(), "lane {t}");
        }
    }

    #[test]
    fn dot_rows_is_bitwise_per_row_dots() {
        // 13 rows exercise the 8-tile, the 4-tile, and the single-chain
        // tail; K = 21 exercises the chunk remainder.
        let k = 21;
        let a: Vec<f32> = (0..k).map(|i| (i as f32 * 0.7).sin()).collect();
        let rows: Vec<f32> = (0..13 * k).map(|i| (i as f32 * 0.3).cos()).collect();
        let mut out = vec![0.0f32; 13];
        dot_rows(&a, &rows, &mut out);
        for (j, &o) in out.iter().enumerate() {
            let want = dot(&a, &rows[j * k..(j + 1) * k]);
            assert_eq!(o.to_bits(), want.to_bits(), "row {j}");
        }
        // Zero-length contraction gives exact zeros; empty batch is a no-op.
        let mut z = vec![1.0f32; 5];
        dot_rows(&[], &[], &mut z);
        assert!(z.iter().all(|v| v.to_bits() == 0.0f32.to_bits()));
        dot_rows(&a, &[], &mut []);
    }

    #[test]
    fn remainder_leaves_other_lanes_bits_alone() {
        // Every product underflows to -0.0, so every lane is -0.0 and the
        // tree sums to -0.0. The remainder (K = 9, 13, 15) must not touch
        // lanes past it: `fma(0, 0, -0.0)` would flip them to +0.0.
        for k in [9, 13, 15] {
            let a = vec![-1e-30f32; k];
            let b = vec![1e-30f32; k];
            let want = (-0.0f32).to_bits();
            assert_eq!(dot(&a, &b).to_bits(), want, "dot K={k}");
            let four = dot4(&a, [&b, &b, &b, &b]);
            assert!(four.iter().all(|v| v.to_bits() == want), "dot4 K={k}");
            let rows: Vec<f32> = b.iter().copied().cycle().take(13 * k).collect();
            let mut out = vec![1.0f32; 13];
            dot_rows(&a, &rows, &mut out);
            assert!(out.iter().all(|v| v.to_bits() == want), "dot_rows K={k}");
        }
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn exp_det_tracks_libm_exp() {
        // Softmax arguments live in (-∞, 0]; check the whole useful range.
        let mut worst = 0.0f64;
        let mut x = -86.5f32;
        while x < 86.5 {
            let got = exp_det(x) as f64;
            let want = (x as f64).exp();
            let rel = ((got - want) / want).abs();
            worst = worst.max(rel);
            x += 0.0173;
        }
        assert!(worst < 5e-7, "worst relative error {worst}");
    }

    #[test]
    fn exp_det_edges() {
        assert_eq!(exp_det(0.0), 1.0);
        assert!(exp_det(f32::NAN).is_nan());
        assert_eq!(exp_det(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp_det(f32::NEG_INFINITY), 0.0);
        assert_eq!(exp_det(-1000.0), 0.0);
        assert_eq!(exp_det(1000.0), f32::INFINITY);
        // Deterministic: same bits on every call.
        assert_eq!(exp_det(-0.337).to_bits(), exp_det(-0.337).to_bits());
    }

    #[test]
    fn softmax_row_is_distribution() {
        let mut row = [1.0f32, 2.0, 3.0, -1.0, 0.5];
        softmax(&mut row);
        let sum: f32 = row.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        assert!(row.iter().all(|&v| v > 0.0));
        assert!(row[2] > row[1] && row[1] > row[0]);
    }

    #[test]
    fn softmax_empty_and_degenerate_rows() {
        let mut empty: [f32; 0] = [];
        softmax(&mut empty);
        let mut ninf = [f32::NEG_INFINITY; 3];
        softmax(&mut ninf);
        // -∞ - -∞ = NaN under the shared edge semantics.
        assert!(ninf.iter().all(|v| v.is_nan()));
    }

    #[test]
    fn fold_dot_matches_sequential_loops() {
        let xs = [1.0f64, -0.5, 0.25, 2.0];
        let ws = [0.1f64, 0.2, 0.3, 0.4];
        let mut want = 0.0f64;
        for (x, w) in xs.iter().zip(&ws) {
            want += x * w;
        }
        assert_eq!(fold_dot_f64(0.0, &xs, &ws).to_bits(), want.to_bits());
    }
}
