//! Bitwise-parity suite: the blocked/register-tiled kernels and fused
//! attention passes must reproduce the paper-literal scalar oracle in
//! `gced_nn::reference` **bit for bit**, on every shape — empty, 1×N,
//! N×1, dims off the 8-lane grid, and NaN/∞ inputs. This equality is
//! the contract that lets the repo's bit-identity pins (served ==
//! offline, N-shard == 1-shard) survive kernel rewrites.

use gced_nn::kernels::{self, Kernel};
use gced_nn::{reference, AttentionConfig, EmbeddingTable, Matrix, MultiHeadAttention};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Seeded dense matrix with values in [-2, 2).
fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = SmallRng::seed_from_u64(seed);
    Matrix::from_fn(rows, cols, |_, _| rng.gen::<f32>() * 4.0 - 2.0)
}

fn assert_bitwise(a: &Matrix, b: &Matrix, what: &str) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
    for r in 0..a.rows() {
        for c in 0..a.cols() {
            assert_eq!(
                a.get(r, c).to_bits(),
                b.get(r, c).to_bits(),
                "{what}: [{r}][{c}] {} vs {}",
                a.get(r, c),
                b.get(r, c)
            );
        }
    }
}

fn layer(d_model: usize, heads: usize, d_k: usize, seed: u64) -> MultiHeadAttention {
    MultiHeadAttention::new(AttentionConfig {
        d_model,
        heads,
        d_k,
        seed,
        positional_weight: 0.35,
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Blocked matmul ≡ scalar oracle on arbitrary shapes, including
    /// zero extents and dims not divisible by the 8-lane block.
    #[test]
    fn matmul_matches_reference(m in 0usize..20, k in 0usize..20, n in 0usize..20, seed in 0u64..1_000_000) {
        let a = rand_matrix(m, k, seed);
        let b = rand_matrix(k, n, seed ^ 0x9e37);
        assert_bitwise(&a.matmul(&b), &reference::matmul(&a, &b), "matmul");
    }

    /// The packed-transpose fast path `A·Bᵀ` ≡ oracle of the transposed
    /// product.
    #[test]
    fn matmul_nt_matches_reference(m in 0usize..20, k in 0usize..20, n in 0usize..20, seed in 0u64..1_000_000) {
        let a = rand_matrix(m, k, seed);
        let b = rand_matrix(n, k, seed ^ 0x51f1);
        assert_bitwise(&a.matmul_nt(&b), &reference::matmul(&a, &b.transpose()), "matmul_nt");
    }

    /// Row softmax (deterministic exp, canonical order) ≡ oracle.
    #[test]
    fn softmax_matches_reference(rows in 0usize..10, cols in 0usize..20, seed in 0u64..1_000_000) {
        let mut fast = rand_matrix(rows, cols, seed);
        let mut slow = fast.clone();
        fast.softmax_rows();
        reference::softmax_rows(&mut slow);
        assert_bitwise(&fast, &slow, "softmax_rows");
    }

    /// Fused row-streaming attention ≡ materialized oracle, across
    /// head/dim configurations off the lane grid.
    #[test]
    fn attention_matrix_matches_reference(
        n in 0usize..12,
        d_model in 1usize..34,
        heads in 1usize..5,
        d_k in 1usize..10,
        seed in 0u64..1_000_000,
    ) {
        let mha = layer(d_model, heads, d_k, seed);
        let x = rand_matrix(n, d_model, seed ^ 0xabcd);
        assert_bitwise(
            &mha.attention_matrix(&x),
            &reference::attention_matrix(&mha, &x),
            "attention_matrix",
        );
    }

    /// Fused Eq. 8 encode ≡ materialized oracle.
    #[test]
    fn encode_matches_reference(
        n in 0usize..10,
        d_model in 1usize..26,
        heads in 1usize..4,
        d_k in 1usize..11,
        seed in 0u64..1_000_000,
    ) {
        let mha = layer(d_model, heads, d_k, seed);
        let x = rand_matrix(n, d_model, seed ^ 0x7777);
        assert_bitwise(&mha.encode(&x), &reference::encode(&mha, &x), "encode");
    }

    /// The full public hot path — embed (memoized rows + positional
    /// encodings) then fused attention — ≡ oracle over the same
    /// embedding, with repeated words forcing the row-copy memo.
    #[test]
    fn attend_words_matches_reference(seed in 0u64..1_000_000, n in 1usize..14) {
        let vocab = ["broncos", "the", "champion", "denver", "title", "won", "the"];
        let mut rng = SmallRng::seed_from_u64(seed);
        let words: Vec<String> = (0..n)
            .map(|_| vocab[(rng.gen::<f32>() * vocab.len() as f32) as usize % vocab.len()].to_string())
            .collect();
        let mha = layer(32, 4, 16, 7);
        let table = EmbeddingTable::new(32, 7);
        let x = mha.embed_sequence(&words, &table);
        assert_bitwise(
            &mha.attend_words(&words, &table),
            &reference::attention_matrix(&mha, &x),
            "attend_words",
        );
    }
}

// ---------------------------------------------------------------------------
// Deterministic edge shapes
// ---------------------------------------------------------------------------

#[test]
fn empty_matrices() {
    for (m, k, n) in [(0, 0, 0), (0, 5, 3), (3, 0, 4), (4, 6, 0)] {
        let a = rand_matrix(m, k, 1);
        let b = rand_matrix(k, n, 2);
        let out = a.matmul(&b);
        assert_eq!((out.rows(), out.cols()), (m, n));
        assert_bitwise(&out, &reference::matmul(&a, &b), "empty matmul");
        // K = 0 contracts to exact zeros, not garbage.
        if k == 0 {
            for r in 0..m {
                for c in 0..n {
                    assert_eq!(out.get(r, c).to_bits(), 0.0f32.to_bits());
                }
            }
        }
    }
}

#[test]
fn row_and_column_vectors() {
    for k in [1, 7, 8, 9, 16, 27] {
        let row = rand_matrix(1, k, 3);
        let col = rand_matrix(k, 1, 4);
        assert_bitwise(
            &row.matmul(&col),
            &reference::matmul(&row, &col),
            "1xN · Nx1",
        );
        assert_bitwise(
            &col.matmul(&row),
            &reference::matmul(&col, &row),
            "Nx1 · 1xN",
        );
    }
}

#[test]
fn non_lane_aligned_dims() {
    // Every dim deliberately off the 8-lane / 4-wide register tile.
    for (m, k, n) in [(7, 9, 13), (1, 15, 1), (5, 3, 17), (13, 65, 7)] {
        let a = rand_matrix(m, k, 5);
        let b = rand_matrix(k, n, 6);
        assert_bitwise(&a.matmul(&b), &reference::matmul(&a, &b), "off-lane matmul");
    }
}

#[test]
fn nan_and_inf_propagate_identically() {
    let mut a = rand_matrix(5, 9, 7);
    a.set(1, 2, f32::NAN);
    a.set(3, 0, f32::INFINITY);
    a.set(4, 8, f32::NEG_INFINITY);
    let b = rand_matrix(9, 6, 8);
    let fast = a.matmul(&b);
    let slow = reference::matmul(&a, &b);
    assert_bitwise(&fast, &slow, "NaN/∞ matmul");
    assert!(fast.get(1, 0).is_nan(), "NaN row must poison its products");
    assert!(fast.get(3, 0).is_infinite() || fast.get(3, 0).is_nan());
}

#[test]
fn nan_and_inf_through_fused_softmax() {
    // Scores containing NaN and ±∞ must flow through the fused
    // score→scale→softmax chain exactly as through the oracle.
    let mha = layer(16, 2, 8, 11);
    let mut x = rand_matrix(6, 16, 12);
    x.set(2, 3, f32::NAN);
    x.set(4, 0, f32::INFINITY);
    let fast = mha.attention_matrix(&x);
    let slow = reference::attention_matrix(&mha, &x);
    assert_bitwise(&fast, &slow, "NaN/∞ fused attention");
    // The NaN-poisoned query row stays NaN in both.
    assert!(fast.get(2, 0).is_nan());

    // And directly on softmax_rows: a NaN entry, an all--∞ row, and a
    // +∞ spike each take the documented edge path, identically.
    let mut m = Matrix::from_rows(&[
        vec![1.0, f32::NAN, 0.5],
        vec![f32::NEG_INFINITY, f32::NEG_INFINITY, f32::NEG_INFINITY],
        vec![f32::INFINITY, 1.0, 0.0],
        vec![1.0, 2.0, 3.0],
    ]);
    let mut r = m.clone();
    m.softmax_rows();
    reference::softmax_rows(&mut r);
    assert_bitwise(&m, &r, "softmax edge rows");
    assert!(m.get(0, 0).is_nan() || m.get(0, 1).is_nan());
    // +∞ wins its row outright: exp(x-∞)=0 elsewhere, exp(∞-∞)=NaN there.
    assert!(m.get(2, 0).is_nan());
}

#[test]
fn softmax_dense_exp_sweep_matches_scalar() {
    // 8-wide rows push every element through the packed exp path (when
    // the machine has one) while the oracle stays scalar; sweeping the
    // whole useful domain catches any rounding corner the random
    // proptests might miss (clamp edges, the round-magic boundary).
    let mut vals = Vec::new();
    let mut x = -95.0f32;
    while x < 2.0 {
        vals.push(x);
        x += 0.007_31;
    }
    for chunk in vals.chunks_exact(8) {
        let mut fast = Matrix::from_rows(&[chunk.to_vec()]);
        let mut slow = fast.clone();
        fast.softmax_rows();
        reference::softmax_rows(&mut slow);
        assert_bitwise(&fast, &slow, "dense exp sweep");
    }
}

#[test]
fn encode_shape_and_parity_on_paper_config() {
    // The paper-default head layout (d_k ≠ d_model path would be easy
    // to get wrong in the concat indexing).
    let mha = layer(24, 3, 10, 21);
    let x = rand_matrix(7, 24, 22);
    let enc = mha.encode(&x);
    assert_eq!((enc.rows(), enc.cols()), (7, 24));
    assert_bitwise(&enc, &reference::encode(&mha, &x), "encode 3×10 heads");
}

#[test]
fn embed_into_matches_embed() {
    let mut table = EmbeddingTable::new(48, 9);
    table.fit(
        &[vec!["broncos".into(), "champion".into(), "team".into()]],
        2,
        2,
        0.25,
    );
    for w in ["broncos", "Champion", "neverseen", "x"] {
        let via_vec = table.embed(w);
        let mut buf = vec![7.0f32; 48];
        table.embed_into(w, &mut buf);
        assert_eq!(via_vec, buf, "{w}");
    }
}

// ---------------------------------------------------------------------------
// Panel GEMM, head-vectorized softmax, and the entries the tree reads —
// on every kernel family the host runs, each called explicitly.
// ---------------------------------------------------------------------------

/// The families this host can run (the portable loop always).
fn kernels_here() -> Vec<Kernel> {
    Kernel::ALL
        .into_iter()
        .filter(|k| k.is_available())
        .collect()
}

/// `A·B` through `gemm_panels(kernel)` with `B` packed from `b`.
fn gemm_via_panels(kernel: Kernel, a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let panels = kernels::pack_panels(k, n, |r, c| b.get(r, c));
    let mut out = vec![f32::NAN; m * n];
    kernels::gemm_panels(kernel, a.as_slice(), m, k, &panels, n, &mut out);
    Matrix::from_fn(m, n, |r, c| out[r * n + c])
}

fn gemm_family_matches_reference(kernel: Kernel) {
    if !kernel.is_available() {
        return;
    }
    // Rows cross the 3-row tile, columns the 16-column panel and its
    // 8-column halves, and K the 8-lane grid (including K < 8).
    for (m, k, n) in [
        (0, 5, 7),
        (4, 0, 9),
        (1, 1, 1),
        (2, 7, 15),
        (3, 8, 16),
        (4, 9, 17),
        (5, 64, 33),
        (7, 13, 40),
        (8, 70, 48),
        (13, 64, 1024),
    ] {
        let a = rand_matrix(m, k, (m * 100 + k) as u64);
        let b = rand_matrix(k, n, (k * 100 + n) as u64);
        assert_bitwise(
            &gemm_via_panels(kernel, &a, &b),
            &reference::matmul(&a, &b),
            &format!("gemm_panels {kernel:?} {m}x{k}x{n}"),
        );
    }
    // NaN and ±∞ flow through the lanes exactly as through the oracle.
    let mut a = rand_matrix(5, 19, 31);
    a.set(1, 4, f32::NAN);
    a.set(3, 0, f32::INFINITY);
    a.set(4, 18, f32::NEG_INFINITY);
    let b = rand_matrix(19, 21, 32);
    assert_bitwise(
        &gemm_via_panels(kernel, &a, &b),
        &reference::matmul(&a, &b),
        &format!("gemm_panels {kernel:?} NaN/∞"),
    );
    // Every product underflows to -0.0: a K tail must leave the lanes
    // past it at +0.0, as the oracle's untouched lanes are.
    for k in [3, 9, 13, 15] {
        let a = Matrix::from_fn(4, k, |_, _| -1e-30);
        let b = Matrix::from_fn(k, 18, |_, _| 1e-30);
        assert_bitwise(
            &gemm_via_panels(kernel, &a, &b),
            &reference::matmul(&a, &b),
            &format!("gemm_panels {kernel:?} signed zeros K={k}"),
        );
    }
}

#[test]
fn gemm_panels_avx512_matches_reference() {
    gemm_family_matches_reference(Kernel::Avx512);
}

#[test]
fn gemm_panels_avx2_matches_reference() {
    gemm_family_matches_reference(Kernel::Avx2);
}

#[test]
fn gemm_panels_portable_matches_reference() {
    gemm_family_matches_reference(Kernel::Portable);
}

/// The softmax numerators of `[0, x]` down one column are `exp_det(0)`
/// and `exp_det(x)` exactly (max 0, scale 1): a direct read of the
/// packed exp on every lane.
fn exp_sweep_matches_exp_det(kernel: Kernel) {
    if !kernel.is_available() {
        return;
    }
    let mut xs = Vec::new();
    let mut x = -95.0f32;
    while x <= 0.0 {
        xs.push(x);
        x += 0.003_17;
    }
    xs.extend([
        0.0,
        -0.0,
        kernels::EXP_LO,
        kernels::EXP_LO + f32::EPSILON * 64.0,
        -87.336_54,
        -f32::MIN_POSITIVE,
        f32::NEG_INFINITY,
        f32::NAN,
    ]);
    for chunk in xs.chunks(kernels::PANEL) {
        let mut s = vec![0.0f32; 2 * kernels::PANEL];
        s[kernels::PANEL..kernels::PANEL + chunk.len()].copy_from_slice(chunk);
        kernels::softmax_heads(kernel, &mut s, 2, kernels::PANEL, 1.0);
        for (c, &x) in chunk.iter().enumerate() {
            let got = s[kernels::PANEL + c];
            let want = kernels::exp_det(x);
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "{kernel:?} exp({x}) = {got} vs exp_det {want}"
            );
        }
    }
}

#[test]
fn exp16_avx512_matches_exp_det_dense_sweep() {
    exp_sweep_matches_exp_det(Kernel::Avx512);
}

#[test]
fn exp8_avx2_heads_match_exp_det_dense_sweep() {
    exp_sweep_matches_exp_det(Kernel::Avx2);
}

#[test]
fn exp_portable_heads_match_exp_det_dense_sweep() {
    exp_sweep_matches_exp_det(Kernel::Portable);
}

/// Each column of `softmax_heads` + `head_mean` ≡ the oracle's
/// `softmax_rows` of that column, including NaN, ±∞ and all-−∞ columns.
#[test]
fn softmax_heads_columns_match_reference_rows() {
    let rows = 11;
    let mut base = rand_matrix(rows, kernels::PANEL, 51);
    base.set(3, 1, f32::NAN);
    base.set(0, 2, f32::INFINITY);
    base.set(5, 3, f32::NEG_INFINITY);
    for t in 0..rows {
        base.set(t, 4, f32::NEG_INFINITY);
    }
    let scale = 0.125f32;
    let mut want = Matrix::from_fn(kernels::PANEL, rows, |c, t| base.get(t, c) * scale);
    reference::softmax_rows(&mut want);
    for kernel in kernels_here() {
        let mut s = base.as_slice().to_vec();
        let sums = kernels::softmax_heads(kernel, &mut s, rows, kernels::PANEL, scale);
        for c in 0..kernels::PANEL {
            for t in 0..rows {
                // head_mean of a single head with weight 1: the divided
                // probability itself (`x · 1/1`).
                let e = &s[t * kernels::PANEL + c..t * kernels::PANEL + c + 1];
                let got = kernels::head_mean(e, &sums[c..c + 1], 1.0);
                let w = want.get(c, t);
                assert!(
                    got.to_bits() == w.to_bits() || (got.is_nan() && w.is_nan()),
                    "{kernel:?} column {c} row {t}: {got} vs {w}"
                );
            }
        }
    }
}

fn entries_match_reference(
    n: usize,
    d_model: usize,
    heads: usize,
    d_k: usize,
    seed: u64,
    x: &Matrix,
) {
    let mha = layer(d_model, heads, d_k, seed);
    let want = reference::attention_matrix(&mha, x);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed);
    // Tree-shaped requests (both directions of a chain), then random
    // pairs: duplicates and any order.
    let mut pairs: Vec<(usize, usize)> = (1..n).flat_map(|i| [(i - 1, i), (i, i - 1)]).collect();
    if n > 0 {
        for _ in 0..2 * n {
            let r = (rng.gen::<f32>() * n as f32) as usize % n;
            let c = (rng.gen::<f32>() * n as f32) as usize % n;
            pairs.push((r, c));
        }
        pairs.push(pairs[0]);
    }
    for kernel in kernels_here() {
        let got = mha.attention_entries_on(kernel, x, &pairs);
        assert_eq!(got.len(), pairs.len());
        for (&(r, c), g) in pairs.iter().zip(&got) {
            assert_eq!(
                g.to_bits(),
                want.get(r, c).to_bits(),
                "{kernel:?} n={n} d={d_model} H={heads} entry ({r}, {c}): {g} vs {}",
                want.get(r, c)
            );
        }
        assert_bitwise(
            &mha.attention_matrix_on(kernel, x),
            &want,
            &format!("attention_matrix {kernel:?} n={n} d={d_model} H={heads}"),
        );
    }
    let bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
    assert_eq!(
        bits(mha.attention_entries(x, &pairs)),
        bits(mha.attention_entries_on(Kernel::detect(), x, &pairs))
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// `attention_entries` ≡ the oracle's matrix on the requested
    /// entries, on every kernel family: n crosses the 3-row tile, the
    /// 16-query block and the 16-column panel; d_model sits off the 8/16
    /// grid; heads pad to one or two panels.
    #[test]
    fn attention_entries_match_reference(
        n in 0usize..40,
        d_model in 1usize..34,
        head_pick in 0usize..4,
        d_k in 1usize..10,
        seed in 0u64..1_000_000,
    ) {
        let heads = [1, 2, 16, 17][head_pick];
        let x = rand_matrix(n, d_model, seed ^ 0x1234);
        entries_match_reference(n, d_model, heads, d_k, seed, &x);
    }
}

#[test]
fn attention_entries_on_tile_edges_and_paper_shape() {
    for (n, d_model, heads) in [
        (1, 64, 16),
        (2, 9, 17),
        (3, 16, 1),
        (16, 64, 16),
        (17, 17, 2),
        (33, 64, 16),
    ] {
        let x = rand_matrix(n, d_model, (n * 7 + d_model) as u64);
        entries_match_reference(n, d_model, heads, 64, 99, &x);
    }
}

#[test]
fn attention_entries_through_nan_and_inf() {
    let mut x = rand_matrix(19, 20, 61);
    x.set(2, 3, f32::NAN);
    x.set(7, 0, f32::INFINITY);
    x.set(11, 19, f32::NEG_INFINITY);
    entries_match_reference(19, 20, 17, 8, 62, &x);
    entries_match_reference(19, 20, 16, 8, 63, &x);
}

#[test]
fn attention_entries_empty_request_and_bounds() {
    let mha = layer(16, 2, 8, 3);
    let x = rand_matrix(5, 16, 4);
    assert!(mha.attention_entries(&x, &[]).is_empty());
    let empty = rand_matrix(0, 16, 4);
    assert!(mha.attention_entries(&empty, &[]).is_empty());
    let out = std::panic::catch_unwind(|| mha.attention_entries(&x, &[(5, 0)]));
    assert!(out.is_err(), "an entry outside the matrix must panic");
}
