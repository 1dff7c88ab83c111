//! # gced-nn — deterministic neural substrate
//!
//! Section III-D of the GCED paper derives per-edge weights for the
//! syntactic parse tree from the first-layer multi-head attention of a
//! pretrained RoBERTa encoder (16 heads, d_k = 64, scaled dot-product,
//! concat + output projection — Eqs. 6–8). No pretrained transformer is
//! available offline, so this crate implements the same computation over
//! deterministic embeddings:
//!
//! * [`kernels`] — the numeric substrate: 8-lane fixed-reduction-tree
//!   dot products (scalar and 4-wide register-tiled), the panel GEMM
//!   with its AVX-512 → AVX2 → portable micro-kernel ladder, a
//!   deterministic polynomial `exp`, and the canonical softmax (per row,
//!   and sixteen heads at a time). Every reduction order is pinned so
//!   results are bit-identical on any machine, core count, or blocking;
//! * [`matrix::Matrix`] — a minimal row-major f32 matrix with the handful
//!   of operations attention needs (cache-blocked matmul over the kernel
//!   dots, a packed-transpose `matmul_nt` fast path, transpose, row
//!   softmax);
//! * [`embedding::EmbeddingTable`] — hash-based character-n-gram word
//!   vectors, optionally refined on corpus co-occurrence so that
//!   distributionally related words end up closer (the property the
//!   attention weights must expose to SGS/SCS);
//! * [`attention::MultiHeadAttention`] — Eqs. 6–8 verbatim: Q/K/V linear
//!   maps, 16 scaled-dot-product heads, softmax, concatenation, and an
//!   output projection; plus sinusoidal position encodings so locality
//!   shows up in the weights just as it does in layer-1 BERT heads. The
//!   attention probabilities run on two panel GEMMs per block of
//!   queries, and a caller can ask for just the rows it reads;
//! * [`reference`] — the paper-literal scalar oracle those fused passes
//!   are property-tested against, **bitwise**, on every shape.
//!
//! Everything is seeded; identical inputs give identical weights.

// Every unsafe operation inside the SIMD kernels' unsafe fns must sit
// in an explicit `unsafe {}` block with its own SAFETY comment (the
// `gced analyze` SAFE001 lint checks the comments).
#![deny(unsafe_op_in_unsafe_fn)]

pub mod attention;
pub mod embedding;
pub mod kernels;
pub mod matrix;
pub mod reference;

pub use attention::{AttentionConfig, MultiHeadAttention};
pub use embedding::EmbeddingTable;
pub use matrix::Matrix;
