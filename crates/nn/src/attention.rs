//! Multi-head scaled dot-product self-attention (paper Eqs. 6–8).
//!
//! The paper derives WSPTC edge weights from the first-layer encoder
//! attention of the PLM: linear Q/K/V maps, `heads = 16` scaled
//! dot-product attentions with `d_k = 64`, softmax normalization, head
//! concatenation and an output projection `Wo`. This module reproduces
//! that computation over the deterministic embeddings of
//! [`crate::embedding`], with sinusoidal position encodings so that
//! nearby tokens attend more — the locality bias real layer-1 heads show.
//!
//! The quantity GCED consumes is the **token-to-token attention
//! probability matrix**. Following the paper, the per-head softmax
//! scores are averaged over heads:
//! [`MultiHeadAttention::attention_matrix`] returns every entry, and
//! [`MultiHeadAttention::attention_entries`] returns only the entries
//! a caller reads (WSPTC reads two per tree edge). The full Eq. 8
//! output (concat + `Wo`) is [`MultiHeadAttention::encode`].
//!
//! Both probability entry points run one pass, which is two panel GEMMs
//! ([`crate::kernels::gemm_panels`]) and a head-vectorized softmax:
//!
//! 1. the score kernels `C_h`, packed once with columns in `(j, h)`
//!    order, give `P = X·C`, in which query row `i` is a `[j][h]` panel;
//! 2. `S = X·[P_i0 | … | P_i1]` scores a block of queries against every
//!    key under every head;
//! 3. the softmax runs down the keys with sixteen heads in one
//!    register. The divide and the in-order head average are done only
//!    for the entries that are read.
//!
//! Every reduction uses the fixed 8-lane tree and the canonical
//! softmax order, so both are bitwise-identical to the materialized
//! scalar oracle in [`crate::reference`] (property-tested on every
//! kernel family), and identical on any machine at any thread count.

use crate::embedding::EmbeddingTable;
use crate::kernels::{self, Kernel, PANEL};
use crate::matrix::Matrix;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Hyperparameters (paper defaults: 16 heads, d_k = 64).
#[derive(Debug, Clone, Copy)]
pub struct AttentionConfig {
    /// Model (embedding) dimensionality.
    pub d_model: usize,
    /// Number of attention heads (paper: 16).
    pub heads: usize,
    /// Per-head key/query dimensionality (paper: 64).
    pub d_k: usize,
    /// RNG seed for the projection matrices.
    pub seed: u64,
    /// Strength of the additive position encoding (0 disables).
    pub positional_weight: f32,
}

impl Default for AttentionConfig {
    fn default() -> Self {
        AttentionConfig {
            d_model: 64,
            heads: 16,
            d_k: 64,
            seed: 42,
            positional_weight: 0.35,
        }
    }
}

/// A frozen multi-head self-attention layer.
#[derive(Debug, Clone)]
pub struct MultiHeadAttention {
    config: AttentionConfig,
    /// Shared first-stage projections (Eq. 6): d_model × d_model.
    wq: Matrix,
    wk: Matrix,
    wv: Matrix,
    /// Per-head projections (Eq. 7): d_model × d_k each.
    head_q: Vec<Matrix>,
    head_k: Vec<Matrix>,
    head_v: Vec<Matrix>,
    /// Output projection (Eq. 8): (heads · d_k) × d_model.
    wo: Matrix,
    /// Precomputed per-head score kernels
    /// `C_h = (Wq · WQ_h) · (Wk · WK_h)ᵀ` (d_model × d_model): the score
    /// matrix of Eq. 7 factors as `(X·C_h)·Xᵀ`, which removes the two
    /// per-head Q/K projections of the hot path (≈ 1.7× fewer MACs on
    /// every WSPTC construction).
    score_kernels: Vec<Matrix>,
    /// Every `C_h` packed as one `d_model × (d_model·head_slots)`
    /// right-hand operand of [`kernels::gemm_panels`], columns in
    /// `(j, h)` order: column `(g·d_model + j)·16 + c` is column `j` of
    /// `C_{16g+c}` (zero for the padding heads `h ≥ heads`). The product
    /// `P = X·C` then holds query row `i` as `d_model × head_slots`
    /// panels — exactly the packed right-hand operand of the score
    /// product, with no repacking.
    score_panels: Vec<f32>,
    /// `heads` rounded up to a whole number of panels.
    head_slots: usize,
    /// Positional encodings for the first rows, precomputed (the `powf`
    /// per element is measurable on the distill hot path).
    positional_cache: Matrix,
}

/// Positions covered by the precomputed positional-encoding cache.
const POSITIONAL_CACHE_ROWS: usize = 256;

impl MultiHeadAttention {
    /// Initialize all projections from the seeded PRNG (Xavier-style
    /// scaling, deterministic for a given config).
    pub fn new(config: AttentionConfig) -> Self {
        assert!(config.heads > 0 && config.d_k > 0 && config.d_model > 0);
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let init = |rows: usize, cols: usize, rng: &mut SmallRng| {
            let scale = (2.0 / (rows + cols) as f32).sqrt();
            Matrix::from_fn(rows, cols, |_, _| (rng.gen::<f32>() * 2.0 - 1.0) * scale)
        };
        let wq = init(config.d_model, config.d_model, &mut rng);
        let wk = init(config.d_model, config.d_model, &mut rng);
        let wv = init(config.d_model, config.d_model, &mut rng);
        let mut head_q = Vec::with_capacity(config.heads);
        let mut head_k = Vec::with_capacity(config.heads);
        let mut head_v = Vec::with_capacity(config.heads);
        for _ in 0..config.heads {
            head_q.push(init(config.d_model, config.d_k, &mut rng));
            head_k.push(init(config.d_model, config.d_k, &mut rng));
            head_v.push(init(config.d_model, config.d_k, &mut rng));
        }
        let wo = init(config.heads * config.d_k, config.d_model, &mut rng);
        let score_kernels: Vec<Matrix> = (0..config.heads)
            .map(|h| {
                wq.matmul(&head_q[h])
                    .matmul(&wk.matmul(&head_k[h]).transpose())
            })
            .collect();
        let d = config.d_model;
        let head_slots = config.heads.div_ceil(PANEL) * PANEL;
        let score_panels = kernels::pack_panels(d, d * head_slots, |row, col| {
            let (g, j) = ((col / PANEL) / d, (col / PANEL) % d);
            let h = g * PANEL + col % PANEL;
            if h < config.heads {
                score_kernels[h].get(row, j)
            } else {
                0.0
            }
        });
        let positional_cache = Matrix::from_fn(POSITIONAL_CACHE_ROWS, config.d_model, |p, j| {
            positional(p, j, config.d_model)
        });
        MultiHeadAttention {
            config,
            wq,
            wk,
            wv,
            head_q,
            head_k,
            head_v,
            wo,
            score_kernels,
            score_panels,
            head_slots,
            positional_cache,
        }
    }

    /// The layer's configuration.
    pub fn config(&self) -> &AttentionConfig {
        &self.config
    }

    /// The precomputed head-`h` score kernel `C_h` (oracle access).
    pub fn score_kernel(&self, h: usize) -> &Matrix {
        &self.score_kernels[h]
    }

    /// The shared first-stage projections `(Wq, Wk, Wv, Wo)` (oracle
    /// access).
    pub fn stage_projections(&self) -> (&Matrix, &Matrix, &Matrix, &Matrix) {
        (&self.wq, &self.wk, &self.wv, &self.wo)
    }

    /// Head-`h` projections `(WQ_h, WK_h, WV_h)` (oracle access).
    pub fn head_projections(&self, h: usize) -> (&Matrix, &Matrix, &Matrix) {
        (&self.head_q[h], &self.head_k[h], &self.head_v[h])
    }

    /// Embed a token sequence (adding position encodings) into an
    /// `n × d_model` matrix.
    ///
    /// Base embeddings are memoized per distinct surface form within the
    /// call — repeated words copy the first occurrence's row in place
    /// instead of re-hashing character n-grams — then one pass adds the
    /// positional term. Same bits as embedding each position
    /// independently.
    pub fn embed_sequence(&self, words: &[String], table: &EmbeddingTable) -> Matrix {
        assert_eq!(table.dim(), self.config.d_model, "embedding dim mismatch");
        let n = words.len();
        let d = self.config.d_model;
        let mut x = Matrix::zeros(n, d);
        let mut first: HashMap<&str, usize> = HashMap::new();
        for (i, word) in words.iter().enumerate() {
            match first.get(word.as_str()) {
                Some(&src) => x.copy_row(src, i),
                None => {
                    table.embed_into(word, x.row_mut(i));
                    first.insert(word.as_str(), i);
                }
            }
        }
        let w = self.config.positional_weight;
        for i in 0..n {
            if i < POSITIONAL_CACHE_ROWS {
                let pe = self.positional_cache.row(i);
                for (v, p) in x.row_mut(i).iter_mut().zip(pe) {
                    // gced-allow(DET002): elementwise positional bias, one add per element — no reduction order exists
                    *v += w * p;
                }
            } else {
                for (j, v) in x.row_mut(i).iter_mut().enumerate() {
                    // gced-allow(DET002): elementwise positional bias (uncached rows), same single add per element
                    *v += w * positional(i, j, d);
                }
            }
        }
        x
    }

    /// Eq. 7 attention probabilities, averaged over all heads:
    /// `A[i][j]` = mean_h softmax_j(Q_h(i)·K_h(j)/√d_k). Rows sum to 1.
    ///
    /// Every entry, through the same blocked pass as
    /// [`MultiHeadAttention::attention_entries`]. Bitwise-equal to
    /// [`crate::reference::attention_matrix`].
    pub fn attention_matrix(&self, x: &Matrix) -> Matrix {
        self.attention_matrix_on(Kernel::detect(), x)
    }

    /// [`MultiHeadAttention::attention_matrix`] on an explicit kernel
    /// family (parity tests and per-family benches); panics if the host
    /// lacks it.
    pub fn attention_matrix_on(&self, kernel: Kernel, x: &Matrix) -> Matrix {
        let n = x.rows();
        let inv = 1.0 / self.config.heads as f32;
        let mut avg = Matrix::zeros(n, n);
        self.attention_blocks(
            kernel,
            x,
            |_| true,
            |i, probs| {
                for (t, a) in avg.row_mut(i).iter_mut().enumerate() {
                    *a = probs.mean(t, inv);
                }
            },
        );
        avg
    }

    /// The entries `A[r][c]` of [`MultiHeadAttention::attention_matrix`]
    /// for each requested `(r, c)`, in request order — bitwise equal to
    /// `attention_matrix(x).get(r, c)`. Pairs may repeat and come in any
    /// order.
    ///
    /// A query row's softmax needs its whole score row, so every
    /// requested row is scored in full; what is skipped is every
    /// unrequested query block, the divide and head average of every
    /// unrequested entry, and the `n × n` result. WSPTC reads
    /// `2(n − 1)` entries of the `n²`. Panics on an index outside `x`'s
    /// rows.
    pub fn attention_entries(&self, x: &Matrix, pairs: &[(usize, usize)]) -> Vec<f32> {
        self.attention_entries_on(Kernel::detect(), x, pairs)
    }

    /// [`MultiHeadAttention::attention_entries`] on an explicit kernel
    /// family; panics if the host lacks it.
    pub fn attention_entries_on(
        &self,
        kernel: Kernel,
        x: &Matrix,
        pairs: &[(usize, usize)],
    ) -> Vec<f32> {
        let n = x.rows();
        for &(r, c) in pairs {
            assert!(r < n && c < n, "attention entry ({r}, {c}) outside {n}x{n}");
        }
        // Request indices grouped by query row.
        let mut by_row: Vec<usize> = (0..pairs.len()).collect();
        by_row.sort_unstable_by_key(|&e| pairs[e].0);
        let first_at = |row: usize| by_row.partition_point(|&e| pairs[e].0 < row);
        let inv = 1.0 / self.config.heads as f32;
        let mut out = vec![0.0f32; pairs.len()];
        self.attention_blocks(
            kernel,
            x,
            |rows| {
                let lo = first_at(rows.start);
                lo < by_row.len() && pairs[by_row[lo]].0 < rows.end
            },
            |i, probs| {
                for &e in by_row[first_at(i)..]
                    .iter()
                    .take_while(|&&e| pairs[e].0 == i)
                {
                    out[e] = probs.mean(pairs[e].1, inv);
                }
            },
        );
        out
    }

    /// The one attention pass behind [`MultiHeadAttention::attention_matrix`]
    /// and [`MultiHeadAttention::attention_entries`], over blocks of
    /// [`QUERY_BLOCK`] query rows (`wanted` skips a block; `visit` reads
    /// each query row's head probabilities):
    ///
    /// 1. `P = X_block · C` ([`kernels::gemm_panels`] on the packed score
    ///    kernels) leaves query row `i` as `d_model × head_slots` panels
    ///    holding `(X·C_h)[i][j]` at `[j][h]`;
    /// 2. `S = X · [P_i0 | … | P_i1]` (the panels, as they lie) gives
    ///    `S[t][b·head_slots + h]`, the score of query `i0 + b` against
    ///    key `t` under head `h` — `fma(X[t][j], P[i][j])` is
    ///    `fma(P[i][j], X[t][j])`, so each is the oracle's
    ///    `dot((X·C_h)[i], X[t])`;
    /// 3. [`kernels::softmax_heads`] scales, takes the running max,
    ///    exponentiates and sums over `t` with sixteen heads per
    ///    register; the divide is left to [`QueryProbs::mean`], so only
    ///    the entries a caller reads pay for it.
    ///
    /// Scratch is `O(block·d_model·heads + n·block·heads)`, never
    /// `O(n²·heads)`.
    fn attention_blocks(
        &self,
        kernel: Kernel,
        x: &Matrix,
        mut wanted: impl FnMut(std::ops::Range<usize>) -> bool,
        mut visit: impl FnMut(usize, QueryProbs<'_>),
    ) {
        let n = x.rows();
        let d = self.config.d_model;
        let hs = self.head_slots;
        let scale = 1.0 / (self.config.d_k as f32).sqrt();
        let block = n.min(QUERY_BLOCK);
        let mut p = vec![0.0f32; block * d * hs];
        let mut s = vec![0.0f32; n * block * hs];
        let mut sums = vec![0.0f32; hs];
        for i0 in (0..n).step_by(QUERY_BLOCK) {
            let i1 = (i0 + QUERY_BLOCK).min(n);
            if !wanted(i0..i1) {
                continue;
            }
            let nb = i1 - i0;
            let p = &mut p[..nb * d * hs];
            let rows = &x.as_slice()[i0 * d..i1 * d];
            kernels::gemm_panels(kernel, rows, nb, d, &self.score_panels, d * hs, p);
            let ld = nb * hs;
            let s = &mut s[..n * ld];
            kernels::gemm_panels(kernel, x.as_slice(), n, d, p, ld, s);
            for b in 0..nb {
                for (g, sum) in sums.chunks_exact_mut(PANEL).enumerate() {
                    let col = b * hs + g * PANEL;
                    sum.copy_from_slice(&kernels::softmax_heads(
                        kernel,
                        &mut s[col..],
                        n,
                        ld,
                        scale,
                    ));
                }
                let probs = QueryProbs {
                    exps: s,
                    sums: &sums,
                    stride: ld,
                    offset: b * hs,
                    heads: self.config.heads,
                };
                visit(i0 + b, probs);
            }
        }
    }

    /// Full Eq. 8: per-head attention-weighted values, concatenated and
    /// projected by `Wo`. Returns an `n × d_model` contextual encoding.
    ///
    /// Fused like [`MultiHeadAttention::attention_matrix`]: per query
    /// row, the score row is streamed against the row-major `K_h` (the
    /// packed-transpose operand), softmaxed, and immediately contracted
    /// with `V_hᵀ` into the head's slice of the concatenation buffer.
    /// Bitwise-equal to [`crate::reference::encode`].
    pub fn encode(&self, x: &Matrix) -> Matrix {
        let q = x.matmul(&self.wq);
        let k = x.matmul(&self.wk);
        let v = x.matmul(&self.wv);
        let n = x.rows();
        let dk = self.config.d_k;
        let scale = 1.0 / (dk as f32).sqrt();
        let mut concat = Matrix::zeros(n, self.config.heads * dk);
        let mut s = vec![0.0f32; n];
        for h in 0..self.config.heads {
            let qh = q.matmul(&self.head_q[h]);
            let kh = k.matmul(&self.head_k[h]);
            let vht = v.matmul(&self.head_v[h]).transpose();
            for i in 0..n {
                score_row(qh.row(i), &kh, scale, &mut s);
                kernels::softmax(&mut s);
                let out = &mut concat.row_mut(i)[h * dk..(h + 1) * dk];
                kernels::dot_rows(&s, vht.as_slice(), out);
            }
        }
        concat.matmul(&self.wo)
    }

    /// Convenience: attention matrix straight from words.
    pub fn attend_words(&self, words: &[String], table: &EmbeddingTable) -> Matrix {
        self.attention_matrix(&self.embed_sequence(words, table))
    }
}

/// Query rows per [`MultiHeadAttention::attention_blocks`] step.
const QUERY_BLOCK: usize = 16;

/// One query row's softmax numerators inside a score block — key `t`'s
/// heads sit at `exps[t·stride + offset..][..heads]` — and its per-head
/// denominators.
struct QueryProbs<'a> {
    exps: &'a [f32],
    sums: &'a [f32],
    stride: usize,
    offset: usize,
    heads: usize,
}

impl QueryProbs<'_> {
    /// The head-averaged probability of key `t` ([`kernels::head_mean`]:
    /// divide, heads summed in order, then scaled by `inv = 1/heads`).
    fn mean(&self, t: usize, inv: f32) -> f32 {
        let at = t * self.stride + self.offset;
        kernels::head_mean(&self.exps[at..at + self.heads], self.sums, inv)
    }
}

/// One streamed score row: `s[j] = dot(query, keys.row(j)) · scale`,
/// contracted against all key rows in a single [`kernels::dot_rows`]
/// batch (the keys are row-major, so the whole matrix is the packed
/// operand). The scale multiply is a separate pass over the finished
/// dots — the same op order as `dot(...) * scale` one `j` at a time.
fn score_row(query: &[f32], keys: &Matrix, scale: f32, s: &mut [f32]) {
    debug_assert_eq!(s.len(), keys.rows());
    kernels::dot_rows(query, keys.as_slice(), s);
    for v in s.iter_mut() {
        *v *= scale;
    }
}

/// Sinusoidal position encoding (Vaswani et al. form).
fn positional(pos: usize, dim_index: usize, d_model: usize) -> f32 {
    let i = (dim_index / 2) as f32;
    let angle = pos as f32 / (10_000f32).powf(2.0 * i / d_model as f32);
    if dim_index.is_multiple_of(2) {
        angle.sin()
    } else {
        angle.cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn default_layer() -> (MultiHeadAttention, EmbeddingTable) {
        let cfg = AttentionConfig {
            d_model: 32,
            heads: 4,
            d_k: 16,
            seed: 7,
            positional_weight: 0.35,
        };
        (MultiHeadAttention::new(cfg), EmbeddingTable::new(32, 7))
    }

    #[test]
    fn attention_rows_are_distributions() {
        let (mha, table) = default_layer();
        let ws = words(&["denver", "broncos", "defeated", "carolina", "panthers"]);
        let a = mha.attend_words(&ws, &table);
        assert_eq!(a.rows(), 5);
        assert_eq!(a.cols(), 5);
        for r in 0..5 {
            let s: f32 = a.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-4, "row {r} sums to {s}");
            assert!(a.row(r).iter().all(|&v| v >= 0.0));
        }
    }

    #[test]
    fn attention_is_deterministic() {
        let (mha1, t1) = default_layer();
        let (mha2, t2) = default_layer();
        let ws = words(&["the", "battle", "of", "hastings"]);
        let a1 = mha1.attend_words(&ws, &t1);
        let a2 = mha2.attend_words(&ws, &t2);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(a1.get(r, c), a2.get(r, c));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let cfg1 = AttentionConfig {
            seed: 1,
            d_model: 32,
            heads: 2,
            d_k: 8,
            positional_weight: 0.35,
        };
        let cfg2 = AttentionConfig { seed: 2, ..cfg1 };
        let t = EmbeddingTable::new(32, 1);
        let ws = words(&["a", "b", "c"]);
        let a1 = MultiHeadAttention::new(cfg1).attend_words(&ws, &t);
        let a2 = MultiHeadAttention::new(cfg2).attend_words(&ws, &t);
        let mut any_diff = false;
        for r in 0..3 {
            for c in 0..3 {
                if (a1.get(r, c) - a2.get(r, c)).abs() > 1e-9 {
                    any_diff = true;
                }
            }
        }
        assert!(any_diff);
    }

    #[test]
    fn encode_has_model_shape() {
        let (mha, table) = default_layer();
        let ws = words(&["grow", "and", "clip"]);
        let x = mha.embed_sequence(&ws, &table);
        let enc = mha.encode(&x);
        assert_eq!(enc.rows(), 3);
        assert_eq!(enc.cols(), 32);
    }

    #[test]
    fn singleton_sequence_attends_to_itself() {
        let (mha, table) = default_layer();
        let a = mha.attend_words(&words(&["solo"]), &table);
        assert_eq!(a.rows(), 1);
        assert!((a.get(0, 0) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn position_encoding_differentiates_repeated_words() {
        let (mha, table) = default_layer();
        let x = mha.embed_sequence(&words(&["echo", "echo"]), &table);
        let row0: Vec<f32> = x.row(0).to_vec();
        let row1: Vec<f32> = x.row(1).to_vec();
        assert_ne!(row0, row1);
    }

    #[test]
    fn paper_default_config() {
        let cfg = AttentionConfig::default();
        assert_eq!(cfg.heads, 16);
        assert_eq!(cfg.d_k, 64);
    }

    #[test]
    #[should_panic(expected = "dim mismatch")]
    fn mismatched_table_dim_panics() {
        let cfg = AttentionConfig {
            d_model: 32,
            heads: 2,
            d_k: 8,
            seed: 1,
            positional_weight: 0.0,
        };
        let mha = MultiHeadAttention::new(cfg);
        let table = EmbeddingTable::new(16, 1);
        let _ = mha.embed_sequence(&words(&["x"]), &table);
    }
}
