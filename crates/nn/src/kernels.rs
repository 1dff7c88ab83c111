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
//! The attention scores run on a second form of the same tree,
//! [`gemm_panels`]. There a *lane register* holds one lane of sixteen
//! neighbouring outputs (eight per `ymm` half on AVX2) rather than
//! eight lanes of one output. Lane `l` of output `(r, c)` accumulates
//! `fma(a[r][8q+l], B[8q+l][c], lane)` from `+0.0`, and the tree becomes
//! seven vertical adds across the eight lane registers. This is the
//! broadcast form of the GotoBLAS micro-kernel (Goto & van de Geijn,
//! ACM TOMS 2008), with the lane tree kept as part of the kernel. The
//! right operand is packed as contiguous 16-column *panels*
//! ([`pack_panels`]), so consecutive `k` are 64 bytes apart. The
//! micro-kernels form a ladder, picked at runtime by [`Kernel::detect`]:
//!
//! * AVX-512F: 3 rows × 16 columns, 24 `zmm` accumulators;
//! * AVX2+FMA: the same tile in four sweeps of two lanes each;
//! * portable: `f32::mul_add` loops.
//!
//! All three give the same bits. The head-vectorized softmax
//! ([`softmax_heads`]) follows the same ladder.
//!
//! The transcendental in the softmax chain is pinned the same way:
//! [`exp_det`] is a polynomial `exp` built from pure f32 arithmetic, so
//! the hot path has no libm dependency whose bits could vary across
//! platforms; its 8- and 16-wide mirrors repeat it op for op.

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

/// Column width of a packed right-hand panel: one 512-bit register of
/// f32 lanes (two 256-bit halves on AVX2).
pub const PANEL: usize = 16;

/// The micro-kernel families behind [`gemm_panels`] and
/// [`softmax_heads`], fastest first. Every family computes the same
/// bits — the lane assignment, the fixed tree, and the softmax order are
/// part of each kernel — so the choice only moves time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// AVX-512F: 3 rows × 16 columns per tile, 24 `zmm` lane accumulators.
    Avx512,
    /// AVX2+FMA: 3 rows × 16 columns per tile, two lanes per sweep of
    /// `k` (12 `ymm` accumulators).
    Avx2,
    /// `f32::mul_add` loops in the same lane order: every machine, Miri
    /// included.
    Portable,
}

impl Kernel {
    /// Every family, fastest first.
    pub const ALL: [Kernel; 3] = [Kernel::Avx512, Kernel::Avx2, Kernel::Portable];

    /// True when this host can run the family (runtime detection, cached
    /// by std).
    pub fn is_available(self) -> bool {
        match self {
            Kernel::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => have_simd(),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The fastest family this host runs: AVX-512 → AVX2 → portable.
    pub fn detect() -> Kernel {
        Kernel::ALL
            .into_iter()
            .find(|k| k.is_available())
            .unwrap_or(Kernel::Portable)
    }
}

/// Pack the `k × n` matrix `b(row, col)` as `⌈n/16⌉` contiguous
/// [`PANEL`]-column panels, each `k × 16` row-major; columns past `n`
/// are zero. This is the right-hand layout [`gemm_panels`] streams: a
/// panel row is one vector load, and consecutive `k` sit 64
/// bytes apart instead of a full matrix row apart (a row-major operand
/// with 1024 columns puts them 4 KB apart, which aliases in L1).
pub fn pack_panels(k: usize, n: usize, b: impl Fn(usize, usize) -> f32) -> Vec<f32> {
    let mut out = vec![0.0f32; n.div_ceil(PANEL) * k * PANEL];
    for (p, panel) in out.chunks_exact_mut((k * PANEL).max(1)).enumerate() {
        for (kk, row) in panel.chunks_exact_mut(PANEL).enumerate() {
            for (cc, v) in row.iter_mut().enumerate() {
                let c = p * PANEL + cc;
                if c < n {
                    *v = b(kk, c);
                }
            }
        }
    }
    out
}

/// `out = A · B` for row-major `A` (`m × k`) and `B` packed by
/// [`pack_panels`] (`k × n`); `out` is row-major `m × n`. `kernel`
/// picks the micro-kernel family ([`Kernel::detect`] for the fastest);
/// panics if the host lacks it.
///
/// Every output is the canonical 8-lane reduction of [`dot`]: lane `l`
/// of output `(r, c)` accumulates `fma(a[r][8q+l], B[8q+l][c], lane)`
/// from `+0.0`, and the fixed tree combines the lanes. The SIMD kernels
/// keep each lane in its own register across 16 output columns (two
/// `ymm` halves on AVX2) — the *broadcast* form of the GotoBLAS
/// micro-kernel — so the tree runs as seven vertical adds and no lane
/// ever moves horizontally.
pub fn gemm_panels(
    kernel: Kernel,
    a: &[f32],
    m: usize,
    k: usize,
    panels: &[f32],
    n: usize,
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "gemm_panels: A is not {m}x{k}");
    assert!(
        panels.len() >= n.div_ceil(PANEL) * k * PANEL,
        "gemm_panels: too few panels for {k}x{n}"
    );
    assert_eq!(out.len(), m * n, "gemm_panels: out is not {m}x{n}");
    assert!(kernel.is_available(), "gemm_panels: {kernel:?} unavailable");
    if k == 0 {
        out.fill(0.0);
        return;
    }
    match kernel {
        // SAFETY: availability asserted above; shapes asserted above.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512 => unsafe { gemm_avx512(a, m, k, panels, n, out) },
        // SAFETY: availability asserted above; shapes asserted above.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { gemm_avx2(a, m, k, panels, n, out) },
        _ => gemm_portable(a, m, k, panels, n, out),
    }
}

/// Portable [`gemm_panels`]: per row, sixteen columns of eight lane
/// accumulators, `f32::mul_add` in the kernels' lane order.
fn gemm_portable(a: &[f32], m: usize, k: usize, panels: &[f32], n: usize, out: &mut [f32]) {
    for (p, panel) in panels
        .chunks_exact(k * PANEL)
        .take(n.div_ceil(PANEL))
        .enumerate()
    {
        let c0 = p * PANEL;
        let w = (n - c0).min(PANEL);
        for r in 0..m {
            let mut lanes = [[0.0f32; PANEL]; LANES];
            for (kk, (&x, row)) in a[r * k..(r + 1) * k]
                .iter()
                .zip(panel.chunks_exact(PANEL))
                .enumerate()
            {
                for (acc, &y) in lanes[kk % LANES].iter_mut().zip(row) {
                    *acc = x.mul_add(y, *acc);
                }
            }
            for (c, o) in out[r * n + c0..r * n + c0 + w].iter_mut().enumerate() {
                *o = reduce_lanes(&std::array::from_fn(|l| lanes[l][c]));
            }
        }
    }
}

/// AVX-512 [`gemm_panels`]: 3-row tiles (2- and 1-row tails) against one
/// panel at a time; the panel (`k × 64` bytes) stays in L1 across the
/// rows of `A`.
///
/// # Safety
///
/// The caller must have verified avx512f support and the shapes of
/// [`gemm_panels`]; `k > 0`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_avx512(a: &[f32], m: usize, k: usize, panels: &[f32], n: usize, out: &mut [f32]) {
    for p in 0..n.div_ceil(PANEL) {
        let c0 = p * PANEL;
        let mask = ((1u32 << (n - c0).min(PANEL)) - 1) as u16;
        // SAFETY: panel `p` spans `panels[p·k·16..(p+1)·k·16]`; rows
        // `r..r+R` of `A` lie in `a` (`r + R <= m`); each tile stores the
        // `mask`-selected columns `c0..min(c0+16, n)` of output rows
        // `r..r+R`, inside `out` (`m × n`).
        unsafe {
            let panel = panels.as_ptr().add(p * k * PANEL);
            let dst = out.as_mut_ptr().add(c0);
            let mut r = 0;
            while r + 3 <= m {
                tile_avx512::<3>(a.as_ptr().add(r * k), k, panel, dst.add(r * n), n, mask);
                r += 3;
            }
            match m - r {
                2 => tile_avx512::<2>(a.as_ptr().add(r * k), k, panel, dst.add(r * n), n, mask),
                1 => tile_avx512::<1>(a.as_ptr().add(r * k), k, panel, dst.add(r * n), n, mask),
                _ => {}
            }
        }
    }
}

/// One `R × 16` AVX-512 tile: `acc[r][l]` holds lane `l` of row `r`'s
/// sixteen outputs; each step loads one panel row and feeds it to `R`
/// broadcast fmas. A `k` tail touches lanes `0..k%8` only.
///
/// # Safety
///
/// avx512f must be available; `a` must be readable for `R` rows of `k`,
/// `panel` for `k × 16` floats, and `out` writable at the `mask` columns
/// of `R` rows of stride `ldo`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn tile_avx512<const R: usize>(
    a: *const f32,
    k: usize,
    panel: *const f32,
    out: *mut f32,
    ldo: usize,
    mask: u16,
) {
    use std::arch::x86_64::*;
    let mut acc = [[_mm512_setzero_ps(); LANES]; R];
    let whole = k - k % LANES;
    // SAFETY: every index stays below `k` (rows of `a`, panel rows) or
    // addresses the `mask` columns of the `R` output rows — the caller's
    // contract.
    unsafe {
        let mut q = 0;
        while q < whole {
            for l in 0..LANES {
                let b = _mm512_loadu_ps(panel.add((q + l) * PANEL));
                for (r, row) in acc.iter_mut().enumerate() {
                    let x = _mm512_set1_ps(*a.add(r * k + q + l));
                    row[l] = _mm512_fmadd_ps(x, b, row[l]);
                }
            }
            q += LANES;
        }
        for l in 0..k - whole {
            let b = _mm512_loadu_ps(panel.add((whole + l) * PANEL));
            for (r, row) in acc.iter_mut().enumerate() {
                let x = _mm512_set1_ps(*a.add(r * k + whole + l));
                row[l] = _mm512_fmadd_ps(x, b, row[l]);
            }
        }
        for (r, v) in acc.iter().enumerate() {
            let t = _mm512_add_ps(
                _mm512_add_ps(_mm512_add_ps(v[0], v[1]), _mm512_add_ps(v[2], v[3])),
                _mm512_add_ps(_mm512_add_ps(v[4], v[5]), _mm512_add_ps(v[6], v[7])),
            );
            _mm512_mask_storeu_ps(out.add(r * ldo), mask, t);
        }
    }
}

/// AVX2 [`gemm_panels`]: 3-row tiles (2- and 1-row tails) of a whole
/// 16-column panel, as [`gemm_avx512`] — but 3 rows × 16 columns × 8
/// lanes would need 48 `ymm` accumulators, so each tile sweeps `k` four
/// times, two lanes per sweep ([`tile_avx2`]).
///
/// # Safety
///
/// The caller must have verified avx2+fma support and the shapes of
/// [`gemm_panels`]; `k > 0`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_avx2(a: &[f32], m: usize, k: usize, panels: &[f32], n: usize, out: &mut [f32]) {
    let mut tile = [0.0f32; 3 * PANEL];
    for p in 0..n.div_ceil(PANEL) {
        let c0 = p * PANEL;
        let w = (n - c0).min(PANEL);
        let mut r = 0;
        while r < m {
            let rows = (m - r).min(3);
            // SAFETY: panel `p` spans `panels[p·k·16..(p+1)·k·16]` and
            // rows `r..r+rows` of `A` lie in `a`; the tile writes the
            // local `tile` buffer only.
            unsafe {
                let panel = panels.as_ptr().add(p * k * PANEL);
                let ar = a.as_ptr().add(r * k);
                match rows {
                    3 => tile_avx2::<3>(ar, k, panel, &mut tile),
                    2 => tile_avx2::<2>(ar, k, panel, &mut tile),
                    _ => tile_avx2::<1>(ar, k, panel, &mut tile),
                }
            }
            for (i, t) in tile.chunks_exact(PANEL).take(rows).enumerate() {
                let o = (r + i) * n + c0;
                out[o..o + w].copy_from_slice(&t[..w]);
            }
            r += rows;
        }
    }
}

/// One `R × 16` AVX2 tile into `tile` (row `r` at `16·r`). Sweep `s`
/// accumulates lanes `2s` and `2s+1` (`R × 2` halves × 2 lanes = 12
/// `ymm` at `R = 3`) and adds them, `l₂ₛ + l₂ₛ₊₁`; the sweeps then join
/// as `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))` — the fixed tree, op for
/// op, with each lane still a separate sequential fma chain.
///
/// # Safety
///
/// avx2+fma must be available; `a` must be readable for `R` rows of `k`
/// and `panel` for `k × 16` floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[inline]
unsafe fn tile_avx2<const R: usize>(
    a: *const f32,
    k: usize,
    panel: *const f32,
    tile: &mut [f32; 3 * PANEL],
) {
    use std::arch::x86_64::*;
    let whole = k - k % LANES;
    let mut lo = [[_mm256_setzero_ps(); 2]; R];
    let mut hi = [[_mm256_setzero_ps(); 2]; R];
    for sweep in 0..LANES / 2 {
        let mut acc = [[[_mm256_setzero_ps(); 2]; 2]; R];
        // SAFETY: every `kk` below is `< k`, so the row-`r` reads of `a`
        // and the 16 floats at panel row `kk` are in bounds.
        unsafe {
            let mut step = |kk: usize, li: usize| {
                let b0 = _mm256_loadu_ps(panel.add(kk * PANEL));
                let b1 = _mm256_loadu_ps(panel.add(kk * PANEL + LANES));
                for (r, row) in acc.iter_mut().enumerate() {
                    let x = _mm256_set1_ps(*a.add(r * k + kk));
                    row[li][0] = _mm256_fmadd_ps(x, b0, row[li][0]);
                    row[li][1] = _mm256_fmadd_ps(x, b1, row[li][1]);
                }
            };
            let mut q = 0;
            while q < whole {
                step(q + 2 * sweep, 0);
                step(q + 2 * sweep + 1, 1);
                q += LANES;
            }
            for li in 0..2 {
                if 2 * sweep + li < k - whole {
                    step(whole + 2 * sweep + li, li);
                }
            }
        }
        for r in 0..R {
            for h in 0..2 {
                let pair = _mm256_add_ps(acc[r][0][h], acc[r][1][h]);
                match sweep {
                    0 => lo[r][h] = pair,
                    1 => lo[r][h] = _mm256_add_ps(lo[r][h], pair),
                    2 => hi[r][h] = pair,
                    _ => hi[r][h] = _mm256_add_ps(hi[r][h], pair),
                }
            }
        }
    }
    for r in 0..R {
        for h in 0..2 {
            let v = _mm256_add_ps(lo[r][h], hi[r][h]);
            // SAFETY: `r < R <= 3` and `h < 2`: eight floats at
            // `16·r + 8·h`, inside the 48-float tile.
            unsafe { _mm256_storeu_ps(tile.as_mut_ptr().add(r * PANEL + h * LANES), v) };
        }
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

/// 16-wide [`exp_det`]: [`exp8`] op for op on `zmm` registers, with
/// the clamp and NaN lanes selected by mask registers instead of
/// blends — each lane's bits equal `exp_det` of that lane.
///
/// # Safety
///
/// The caller must have verified avx512f support. Pure value
/// computation otherwise — no memory is touched.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn exp16(x: std::arch::x86_64::__m512) -> std::arch::x86_64::__m512 {
    use std::arch::x86_64::*;
    let nan_mask = _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(x, x);
    let hi_mask = _mm512_cmp_ps_mask::<_CMP_GE_OQ>(x, _mm512_set1_ps(EXP_HI));
    let lo_mask = _mm512_cmp_ps_mask::<_CMP_LE_OQ>(x, _mm512_set1_ps(EXP_LO));
    let magic = _mm512_set1_ps(ROUND_MAGIC);
    let v = _mm512_mul_ps(x, _mm512_set1_ps(LOG2E));
    let kf = _mm512_sub_ps(_mm512_add_ps(v, magic), magic);
    let r = _mm512_sub_ps(
        _mm512_sub_ps(x, _mm512_mul_ps(kf, _mm512_set1_ps(LN2_HI))),
        _mm512_mul_ps(kf, _mm512_set1_ps(LN2_LO)),
    );
    let mut p = _mm512_set1_ps(EXP_C[0]);
    for &c in &EXP_C[1..] {
        p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(c));
    }
    let y = _mm512_add_ps(
        _mm512_add_ps(_mm512_mul_ps(r, _mm512_mul_ps(r, p)), r),
        _mm512_set1_ps(1.0),
    );
    let ki = _mm512_cvttps_epi32(kf);
    let scale = _mm512_castsi512_ps(_mm512_slli_epi32::<23>(_mm512_add_epi32(
        ki,
        _mm512_set1_epi32(127),
    )));
    let mut out = _mm512_mul_ps(y, scale);
    out = _mm512_mask_mov_ps(out, lo_mask, _mm512_setzero_ps());
    out = _mm512_mask_mov_ps(out, hi_mask, _mm512_set1_ps(f32::INFINITY));
    _mm512_mask_mov_ps(out, nan_mask, x)
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

/// The canonical softmax down sixteen columns at once, up to its
/// divide: column `c` of the `rows × 16` block at `s[t·stride + c]` is
/// scaled by `scale`, its running max taken (`max(max, v)`, which skips
/// NaN), and each entry replaced by `exp_det(v - max)` while a
/// sequential sum accumulates — the order of [`softmax`]. Returns the
/// sixteen sums; [`head_mean`] applies the last step (divide where the
/// sum is `> 0`) to just the entries a caller reads. In attention the
/// sixteen columns are sixteen heads of one query, so one register
/// carries every head through the chain.
///
/// `kernel` picks the family ([`Kernel::detect`] for the fastest);
/// panics if the host lacks it. Requires
/// `s.len() >= (rows - 1)·stride + 16` when `rows > 0`.
pub fn softmax_heads(
    kernel: Kernel,
    s: &mut [f32],
    rows: usize,
    stride: usize,
    scale: f32,
) -> [f32; PANEL] {
    let mut sums = [0.0f32; PANEL];
    if rows == 0 {
        return sums;
    }
    assert!(
        stride >= PANEL && s.len() >= (rows - 1) * stride + PANEL,
        "softmax_heads: {rows} rows of stride {stride} overrun {}",
        s.len()
    );
    assert!(
        kernel.is_available(),
        "softmax_heads: {kernel:?} unavailable"
    );
    match kernel {
        // SAFETY: availability and extent asserted above.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx512 => unsafe { softmax_heads_avx512(s, rows, stride, scale, &mut sums) },
        // SAFETY: availability and extent asserted above; each call
        // covers one 8-column half.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe {
            let (lo, hi) = sums.split_at_mut(LANES);
            softmax_heads_avx2(s, rows, stride, scale, lo);
            softmax_heads_avx2(&mut s[LANES..], rows, stride, scale, hi);
        },
        _ => {
            for (c, sum) in sums.iter_mut().enumerate() {
                let mut max = f32::NEG_INFINITY;
                for t in 0..rows {
                    let v = &mut s[t * stride + c];
                    *v *= scale;
                    max = max.max(*v);
                }
                for t in 0..rows {
                    let v = &mut s[t * stride + c];
                    *v = exp_det(*v - max);
                    *sum += *v;
                }
            }
        }
    }
    sums
}

/// AVX-512 [`softmax_heads`]: `vmaxps(v, max)` returns `max` when `v`
/// is NaN, exactly as `f32::max(max, v)` does; [`exp16`] is [`exp8`]
/// op for op; the sum is one vertical add per row, i.e. sequential per
/// column.
///
/// # Safety
///
/// avx512f must be available and `s` must hold `rows` rows of 16 floats
/// at stride `stride`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn softmax_heads_avx512(
    s: &mut [f32],
    rows: usize,
    stride: usize,
    scale: f32,
    sums: &mut [f32; PANEL],
) {
    use std::arch::x86_64::*;
    let p = s.as_mut_ptr();
    let sc = _mm512_set1_ps(scale);
    let mut max = _mm512_set1_ps(f32::NEG_INFINITY);
    // SAFETY: every access is the 16 floats at `t·stride`, `t < rows`,
    // inside `s` by the caller's contract; `sums` holds 16 floats.
    unsafe {
        for t in 0..rows {
            let v = _mm512_mul_ps(_mm512_loadu_ps(p.add(t * stride)), sc);
            _mm512_storeu_ps(p.add(t * stride), v);
            max = _mm512_max_ps(v, max);
        }
        let mut sum = _mm512_setzero_ps();
        for t in 0..rows {
            let e = exp16(_mm512_sub_ps(_mm512_loadu_ps(p.add(t * stride)), max));
            _mm512_storeu_ps(p.add(t * stride), e);
            sum = _mm512_add_ps(sum, e);
        }
        _mm512_storeu_ps(sums.as_mut_ptr(), sum);
    }
}

/// AVX2 [`softmax_heads`] over eight columns (called once per half):
/// the chain of [`softmax_heads_avx512`] on [`exp8`].
///
/// # Safety
///
/// avx2+fma must be available, `s` must hold `rows` rows of 8 floats at
/// stride `stride`, and `sums` must hold 8 floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn softmax_heads_avx2(
    s: &mut [f32],
    rows: usize,
    stride: usize,
    scale: f32,
    sums: &mut [f32],
) {
    use std::arch::x86_64::*;
    let p = s.as_mut_ptr();
    let sc = _mm256_set1_ps(scale);
    let mut max = _mm256_set1_ps(f32::NEG_INFINITY);
    // SAFETY: every access is the 8 floats at `t·stride`, `t < rows`,
    // inside `s` by the caller's contract, or the 8 floats of `sums`;
    // exp8's features hold here.
    unsafe {
        for t in 0..rows {
            let v = _mm256_mul_ps(_mm256_loadu_ps(p.add(t * stride)), sc);
            _mm256_storeu_ps(p.add(t * stride), v);
            max = _mm256_max_ps(v, max);
        }
        let mut sum = _mm256_setzero_ps();
        for t in 0..rows {
            let e = exp8(_mm256_sub_ps(_mm256_loadu_ps(p.add(t * stride)), max));
            _mm256_storeu_ps(p.add(t * stride), e);
            sum = _mm256_add_ps(sum, e);
        }
        _mm256_storeu_ps(sums.as_mut_ptr(), sum);
    }
}

/// One head-averaged attention probability from [`softmax_heads`]
/// output: head `h`'s probability is `exps[h] / sums[h]` where
/// `sums[h] > 0` (else the raw `exps[h]`, the softmax edge rule), and
/// the heads are added in order `h = 0..exps.len()` onto `+0.0`, then
/// scaled by `inv = 1/heads` — the head average of the attention
/// oracle, op for op.
#[inline]
pub fn head_mean(exps: &[f32], sums: &[f32], inv: f32) -> f32 {
    let mut acc = 0.0f32;
    for (e, s) in exps.chunks(PANEL).zip(sums.chunks(PANEL)) {
        // The quotients are independent (vectorizable); the sum is not.
        let mut q = [0.0f32; PANEL];
        for ((q, &e), &s) in q.iter_mut().zip(e).zip(s) {
            *q = if s > 0.0 { e / s } else { e };
        }
        for &v in &q[..e.len()] {
            acc += v;
        }
    }
    acc * inv
}

/// Sequential f64 fold `acc + Σ xᵢ·wᵢ` — the span-score dot product of
/// the QA model. The view-global scorer (`gced_qa::model`) calls it, and
/// the incremental run cache (`gced_qa::incremental`) folds eight spans
/// at once with [`fold_dot_f64_lanes`], lane for lane this function, so
/// the two paths cannot drift: their bit-equality contract *is* this
/// function.
#[inline]
pub fn fold_dot_f64(mut acc: f64, xs: &[f64], ws: &[f64]) -> f64 {
    for (x, w) in xs.iter().zip(ws) {
        acc += x * w;
    }
    acc
}

/// Lanes of [`fold_dot_f64_lanes`]: eight f64 are one AVX-512
/// register, or two AVX2 registers.
pub const F64_LANES: usize = 8;

/// [`fold_dot_f64`] on [`F64_LANES`] vectors at once, stored
/// element-major: `xs[k][l]` is element `k` of lane `l`. Lane `l` of
/// the result is exactly `fold_dot_f64(acc[l], &[xs[0][l], xs[1][l], …],
/// ws)` — the same multiply, then add, element by element in order —
/// so the QA span scorer can fold eight spans side by side without a
/// bit changing. Lanes past the caller's last vector hold whatever was
/// left there and are ignored by the caller.
#[inline]
pub fn fold_dot_f64_lanes(
    mut acc: [f64; F64_LANES],
    xs: &[[f64; F64_LANES]],
    ws: &[f64],
) -> [f64; F64_LANES] {
    for (x, &w) in xs.iter().zip(ws) {
        for (a, &v) in acc.iter_mut().zip(x) {
            *a += v * w;
        }
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
    fn gemm_panels_portable_is_the_lane_definition() {
        // Shapes cross the 3-row tile, the 16-column panel and the
        // 8-lane grid; this is the path Miri interprets.
        for (m, k, n) in [(1, 1, 1), (2, 7, 9), (4, 8, 16), (5, 11, 20)] {
            let a: Vec<f32> = (0..m * k).map(|i| (i as f32 * 0.37).sin()).collect();
            let b = |r: usize, c: usize| ((r * 31 + c * 7) as f32 * 0.11).cos();
            let panels = pack_panels(k, n, b);
            let mut out = vec![f32::NAN; m * n];
            gemm_panels(Kernel::Portable, &a, m, k, &panels, n, &mut out);
            for r in 0..m {
                for c in 0..n {
                    let col: Vec<f32> = (0..k).map(|kk| b(kk, c)).collect();
                    let want = dot(&a[r * k..(r + 1) * k], &col);
                    assert_eq!(out[r * n + c].to_bits(), want.to_bits(), "({r}, {c})");
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn exp16_avx512_matches_exp_det_over_the_whole_range() {
        if !Kernel::Avx512.is_available() {
            return;
        }
        let mut xs: Vec<f32> = (0..40_000).map(|i| -100.0 + i as f32 * 0.005).collect();
        xs.extend([
            EXP_HI,
            EXP_LO,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -0.0,
        ]);
        for chunk in xs.chunks(PANEL) {
            let mut buf = [0.0f32; PANEL];
            buf[..chunk.len()].copy_from_slice(chunk);
            let mut got = [0.0f32; PANEL];
            // SAFETY: avx512f checked above; 16-float loads/stores of
            // local arrays.
            unsafe { exp16_into(&buf, &mut got) };
            for (x, g) in buf.iter().zip(&got) {
                let want = exp_det(*x);
                assert!(
                    g.to_bits() == want.to_bits() || (g.is_nan() && want.is_nan()),
                    "exp16({x}) = {g}, exp_det = {want}"
                );
            }
        }
    }

    /// # Safety
    ///
    /// avx512f must be available.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    unsafe fn exp16_into(x: &[f32; PANEL], out: &mut [f32; PANEL]) {
        use std::arch::x86_64::*;
        // SAFETY: both arrays hold exactly 16 floats; exp16's features
        // hold in this fn.
        unsafe { _mm512_storeu_ps(out.as_mut_ptr(), exp16(_mm512_loadu_ps(x.as_ptr()))) };
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

    #[test]
    fn fold_dot_lanes_equal_fold_dot_per_lane() {
        // Eleven vectors of fourteen elements: one full group of eight
        // and a partial last group of three, as the span scorer folds
        // them, each group twice (a base block, then a second block).
        let k = 14;
        let vecs: Vec<Vec<f64>> = (0..11)
            .map(|v| {
                (0..k)
                    .map(|e| ((v * 31 + e * 7) as f64).sin() * 3.0)
                    .collect()
            })
            .collect();
        let wb: Vec<f64> = (0..k).map(|e| (e as f64 * 0.37).cos()).collect();
        let ww: Vec<f64> = (0..k).map(|e| 1.0 / (e as f64 + 0.3)).collect();
        for group in vecs.chunks(F64_LANES) {
            let mut xs = vec![[f64::NAN; F64_LANES]; k];
            for (l, v) in group.iter().enumerate() {
                for (e, &x) in v.iter().enumerate() {
                    xs[e][l] = x;
                }
            }
            let got = fold_dot_f64_lanes(fold_dot_f64_lanes([0.0; F64_LANES], &xs, &wb), &xs, &ww);
            for (l, v) in group.iter().enumerate() {
                let want = fold_dot_f64(fold_dot_f64(0.0, v, &wb), v, &ww);
                assert_eq!(got[l].to_bits(), want.to_bits(), "lane {l}");
            }
        }
    }
}
