//! Deterministic word embeddings.
//!
//! Two layers of signal, both fully offline and seeded:
//!
//! 1. **Hash features** — each word is mapped to a base vector by hashing
//!    its character n-grams (3..=5, plus the whole word) into `dim`
//!    buckets, fastText-style. Morphologically similar words share
//!    n-grams and therefore start out nearby.
//! 2. **Co-occurrence refinement** — [`EmbeddingTable::fit`] performs a
//!    few deterministic iterations that pull a word's vector toward the
//!    mean of its window co-occurrents. Distributionally related words
//!    (e.g. "Broncos" / "champion") move closer, which is what makes the
//!    attention weights of Sec. III-D informative for SGS.
//!
//! All vectors are L2-normalized on read.

use crate::kernels;
use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Deterministic word-embedding table.
#[derive(Debug, Clone)]
pub struct EmbeddingTable {
    dim: usize,
    seed: u64,
    /// Fitted vocabulary word (lowercased) -> its row of `rows`.
    index: HashMap<String, u32>,
    /// Refined vectors for fitted words, `dim` floats per row (rows in
    /// the order words were first fitted or restored).
    rows: Vec<f32>,
}

impl EmbeddingTable {
    /// A fresh table with hash-only embeddings of dimension `dim`.
    pub fn new(dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "embedding dim must be positive");
        EmbeddingTable {
            dim,
            seed,
            index: HashMap::new(),
            rows: Vec::new(),
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The embedding of `word` (case-insensitive), L2-normalized.
    /// Fitted words return their refined vector; everything else falls
    /// back to the hash embedding, so OOV words are always usable.
    pub fn embed(&self, word: &str) -> Vec<f32> {
        let mut v = vec![0.0f32; self.dim];
        self.embed_into(word, &mut v);
        v
    }

    /// Write the embedding of `word` into `out` without allocating —
    /// the hot-path form [`MultiHeadAttention::embed_sequence`] fills
    /// matrix rows with. Bitwise-identical to [`EmbeddingTable::embed`].
    ///
    /// [`MultiHeadAttention::embed_sequence`]: crate::attention::MultiHeadAttention::embed_sequence
    pub fn embed_into(&self, word: &str, out: &mut [f32]) {
        let lower = lowercase(word);
        match self.index.get(lower.as_ref()) {
            Some(&row) => self.embed_row_into(row, out),
            None => self.hash_normalized_into(&lower, out),
        }
    }

    /// The refined row of `word` (case-insensitive, looked up exactly as
    /// [`EmbeddingTable::embed_into`] does), or `None` when the word
    /// embeds by hash. Callers that intern words once keep the row and
    /// embed through [`EmbeddingTable::embed_row_into`].
    pub fn row_of(&self, word: &str) -> Option<u32> {
        self.index.get(lowercase(word).as_ref()).copied()
    }

    /// [`EmbeddingTable::embed_into`] of a word whose refined row is
    /// `row` (from [`EmbeddingTable::row_of`]).
    pub fn embed_row_into(&self, row: u32, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "embed_into buffer of wrong dim");
        let at = row as usize * self.dim;
        out.copy_from_slice(&self.rows[at..at + self.dim]);
        normalize(out);
    }

    fn hash_normalized_into(&self, lower: &str, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "embed_into buffer of wrong dim");
        out.fill(0.0);
        self.hash_embed_into(lower, out);
        normalize(out);
    }

    /// Cosine similarity between two word embeddings, reduced under the
    /// canonical 8-lane tree so the result is the same bits as every
    /// other dot product in the crate.
    pub fn similarity(&self, a: &str, b: &str) -> f32 {
        let va = self.embed(a);
        let vb = self.embed(b);
        kernels::dot(&va, &vb)
    }

    /// Refine embeddings on a corpus of tokenized sentences (lowercased
    /// words). `iterations` rounds of window-mean smoothing with factor
    /// `alpha` (0 < alpha < 1); `window` is the one-sided context size.
    ///
    /// Deterministic: iteration order is the sentence order given.
    pub fn fit(&mut self, sentences: &[Vec<String>], window: usize, iterations: usize, alpha: f32) {
        let dim = self.dim;
        let mut index = std::mem::take(&mut self.index);
        let mut rows = std::mem::take(&mut self.rows);
        // Initialize refined vectors for every corpus word from the hash
        // base; new words take the next rows, in corpus order, allocated
        // at once.
        let mut new_words: Vec<&str> = Vec::new();
        for sent in sentences {
            for w in sent {
                if !index.contains_key(w) {
                    index.insert(w.clone(), (rows.len() / dim + new_words.len()) as u32);
                    new_words.push(w);
                }
            }
        }
        rows.reserve_exact(new_words.len() * dim);
        for w in new_words {
            rows.extend_from_slice(&self.hash_embed(w));
        }
        let row = |w: &str| index[w] as usize * dim;
        for _ in 0..iterations {
            // Accumulate window means.
            let mut sums: HashMap<&str, (Vec<f32>, f32)> = HashMap::new();
            for sent in sentences {
                for (i, w) in sent.iter().enumerate() {
                    let lo = i.saturating_sub(window);
                    let hi = (i + window + 1).min(sent.len());
                    for (j, ctx_word) in sent.iter().enumerate().take(hi).skip(lo) {
                        if j == i {
                            continue;
                        }
                        let at = row(ctx_word);
                        let ctx = &rows[at..at + dim];
                        let entry = sums
                            .entry(w.as_str())
                            .or_insert_with(|| (vec![0.0; dim], 0.0));
                        for (s, c) in entry.0.iter_mut().zip(ctx) {
                            // gced-allow(DET002): fit-time window sums accumulate in sentence order, which is pinned by the input corpus (documented above) — identical on every run and machine
                            *s += c;
                        }
                        // gced-allow(DET002): same pinned corpus-order accumulation as the vector sums
                        entry.1 += 1.0;
                    }
                }
            }
            // Blend each vector toward its context mean.
            let updates: Vec<(usize, Vec<f32>)> = sums
                .into_iter()
                .filter(|(_, (_, n))| *n > 0.0)
                .map(|(w, (sum, n))| {
                    let at = row(w);
                    let mut blended: Vec<f32> = rows[at..at + dim]
                        .iter()
                        .zip(&sum)
                        .map(|(c, s)| (1.0 - alpha) * c + alpha * (s / n))
                        .collect();
                    normalize(&mut blended);
                    (at, blended)
                })
                .collect();
            for (at, v) in updates {
                rows[at..at + dim].copy_from_slice(&v);
            }
        }
        self.index = index;
        self.rows = rows;
    }

    /// Number of words with refined (corpus-fitted) vectors.
    pub fn fitted_len(&self) -> usize {
        self.index.len()
    }

    /// The words with refined vectors, in no particular order.
    pub fn fitted_words(&self) -> impl Iterator<Item = &str> {
        self.index.keys().map(String::as_str)
    }

    /// The construction seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The refined vectors as `(word, vector)` pairs sorted by word —
    /// the serialization interchange form (byte-deterministic despite
    /// the internal `HashMap`).
    pub fn to_parts(&self) -> Vec<(String, Vec<f32>)> {
        let mut v: Vec<(String, Vec<f32>)> = self
            .index
            .iter()
            .map(|(w, &row)| {
                let at = row as usize * self.dim;
                (w.clone(), self.rows[at..at + self.dim].to_vec())
            })
            .collect();
        v.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Rebuild a table from its `(dim, seed)` and [`EmbeddingTable::to_parts`]
    /// output. Hash embeddings are pure functions of `(seed, word)` and
    /// refined vectors are restored verbatim, so every lookup is
    /// bitwise-identical to the original table's.
    pub fn from_parts(dim: usize, seed: u64, refined: Vec<(String, Vec<f32>)>) -> Self {
        let mut t = EmbeddingTable::new(dim, seed);
        t.index.reserve(refined.len());
        t.rows.reserve(refined.len() * dim);
        for (word, v) in refined {
            assert_eq!(v.len(), dim, "refined vector of wrong dim");
            t.index.insert(word, (t.rows.len() / dim) as u32);
            t.rows.extend_from_slice(&v);
        }
        t
    }

    /// Base hash embedding of a lowercased word.
    fn hash_embed(&self, lower: &str) -> Vec<f32> {
        let mut v = vec![0.0f32; self.dim];
        self.hash_embed_into(lower, &mut v);
        v
    }

    /// Accumulate the hash embedding of a lowercased word into a zeroed
    /// buffer.
    ///
    /// The n-grams are `&str` slices between char boundaries — `str`
    /// and `String` hash the same bytes, so no gram is ever copied.
    fn hash_embed_into(&self, lower: &str, v: &mut [f32]) {
        let bounds = || {
            lower
                .char_indices()
                .map(|(i, _)| i)
                .chain(std::iter::once(lower.len()))
        };
        let push = |s: &str, weight: f32, v: &mut [f32]| {
            let mut h = DefaultHasher::new();
            self.seed.hash(&mut h);
            s.hash(&mut h);
            let x = h.finish();
            let idx = (x % self.dim as u64) as usize;
            let sign = if (x >> 32) & 1 == 0 { 1.0 } else { -1.0 };
            // gced-allow(DET002): hash-bucket scatter in the fixed n-gram traversal order of hash_embed_into — one rounding per n-gram, same order everywhere
            v[idx] += sign * weight;
            // second bucket for better spread
            let idx2 = ((x >> 17) % self.dim as u64) as usize;
            let sign2 = if (x >> 33) & 1 == 0 { 1.0 } else { -1.0 };
            // gced-allow(DET002): second bucket of the same fixed-order scatter
            v[idx2] += sign2 * weight * 0.5;
        };
        push(lower, 2.0, v);
        for n in 3..=5usize {
            for (lo, hi) in bounds().zip(bounds().skip(n)) {
                push(&lower[lo..hi], 1.0, v);
            }
        }
    }
}

/// `word.to_lowercase()`, borrowing already-lowercase ASCII (the hot
/// path's pre-lowered tokens) instead of copying it.
fn lowercase(word: &str) -> Cow<'_, str> {
    if word
        .bytes()
        .any(|b| !b.is_ascii() || b.is_ascii_uppercase())
    {
        Cow::Owned(word.to_lowercase())
    } else {
        Cow::Borrowed(word)
    }
}

fn normalize(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 1e-12 {
        for x in v {
            *x /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let a = EmbeddingTable::new(64, 7);
        let b = EmbeddingTable::new(64, 7);
        assert_eq!(a.embed("broncos"), b.embed("broncos"));
    }

    #[test]
    fn seed_changes_embeddings() {
        let a = EmbeddingTable::new(64, 1);
        let b = EmbeddingTable::new(64, 2);
        assert_ne!(a.embed("broncos"), b.embed("broncos"));
    }

    #[test]
    fn embeddings_are_unit_norm() {
        let t = EmbeddingTable::new(48, 3);
        for w in ["a", "championship", "1066", "beyonc\u{e9}"] {
            let v = t.embed(w);
            let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-4, "{w} norm {n}");
        }
    }

    #[test]
    fn case_insensitive() {
        let t = EmbeddingTable::new(32, 5);
        assert_eq!(t.embed("Broncos"), t.embed("broncos"));
    }

    #[test]
    fn morphological_similarity_beats_random() {
        let t = EmbeddingTable::new(128, 11);
        let related = t.similarity("performing", "performed");
        let unrelated = t.similarity("performing", "xylophone");
        assert!(
            related > unrelated,
            "related {related} <= unrelated {unrelated}"
        );
    }

    #[test]
    fn fit_pulls_cooccurring_words_together() {
        let mut t = EmbeddingTable::new(64, 13);
        let before = t.similarity("broncos", "champion");
        let corpus: Vec<Vec<String>> = (0..30)
            .map(|_| {
                vec!["the", "broncos", "champion", "team", "won"]
                    .into_iter()
                    .map(String::from)
                    .collect()
            })
            .collect();
        t.fit(&corpus, 2, 3, 0.3);
        let after = t.similarity("broncos", "champion");
        assert!(
            after > before,
            "fit did not increase similarity: {before} -> {after}"
        );
        assert_eq!(t.fitted_len(), 5);
    }

    #[test]
    fn fit_is_deterministic() {
        let corpus: Vec<Vec<String>> = vec![
            vec!["a".into(), "b".into(), "c".into()],
            vec!["b".into(), "c".into(), "d".into()],
        ];
        let mut t1 = EmbeddingTable::new(32, 9);
        let mut t2 = EmbeddingTable::new(32, 9);
        t1.fit(&corpus, 1, 2, 0.2);
        t2.fit(&corpus, 1, 2, 0.2);
        for w in ["a", "b", "c", "d"] {
            assert_eq!(t1.embed(w), t2.embed(w));
        }
    }

    #[test]
    fn parts_roundtrip_is_bitwise_identical() {
        let mut t = EmbeddingTable::new(48, 21);
        let corpus: Vec<Vec<String>> = vec![
            vec!["broncos".into(), "champion".into(), "team".into()],
            vec!["panthers".into(), "lost".into(), "team".into()],
        ];
        t.fit(&corpus, 2, 2, 0.25);
        let parts = t.to_parts();
        assert_eq!(parts, t.to_parts(), "interchange form must be stable");
        let back = EmbeddingTable::from_parts(t.dim(), t.seed(), parts);
        for w in ["broncos", "champion", "team", "neverseen"] {
            assert_eq!(t.embed(w), back.embed(w), "{w}");
        }
        assert_eq!(back.fitted_len(), t.fitted_len());
    }

    #[test]
    fn oov_after_fit_still_embeds() {
        let mut t = EmbeddingTable::new(32, 1);
        t.fit(&[vec!["x".into()]], 1, 1, 0.1);
        let v = t.embed("neverseen");
        assert_eq!(v.len(), 32);
    }

    /// The hash embedding as first written: a `Vec<char>` and one
    /// `String` per n-gram, and `to_lowercase` on every word.
    fn hash_embed_by_strings(t: &EmbeddingTable, word: &str) -> Vec<f32> {
        let lower = word.to_lowercase();
        let mut v = vec![0.0f32; t.dim];
        let chars: Vec<char> = lower.chars().collect();
        let mut push = |s: &str, weight: f32| {
            let mut h = DefaultHasher::new();
            t.seed.hash(&mut h);
            s.hash(&mut h);
            let x = h.finish();
            let idx = (x % t.dim as u64) as usize;
            let sign = if (x >> 32) & 1 == 0 { 1.0 } else { -1.0 };
            v[idx] += sign * weight;
            let idx2 = ((x >> 17) % t.dim as u64) as usize;
            let sign2 = if (x >> 33) & 1 == 0 { 1.0 } else { -1.0 };
            v[idx2] += sign2 * weight * 0.5;
        };
        push(&lower, 2.0);
        for n in 3..=5usize {
            if chars.len() < n {
                break;
            }
            for start in 0..=(chars.len() - n) {
                let gram: String = chars[start..start + n].iter().collect();
                push(&gram, 1.0);
            }
        }
        normalize(&mut v);
        v
    }

    #[test]
    fn oov_embed_is_bitwise_the_string_built_hash_embedding() {
        let t = EmbeddingTable::new(64, 42);
        for w in [
            "",
            "a",
            "ab",
            "abc",
            "abcd",
            "abcde",
            "abcdef",
            "Broncos",
            "SUPER",
            "1066",
            "beyonc\u{e9}",
            "na\u{ef}ve",
            "\u{c9}cole",
            "\u{3a3}\u{3a3}",
            "stra\u{df}e",
            "\u{65e5}\u{672c}",
            "\u{65e5}\u{672c}\u{8a9e}\u{8a71}",
            "\u{1f600}x\u{1f600}",
            "\u{130}stanbul",
            "o'neil",
            "x-ray",
        ] {
            let want: Vec<u32> = hash_embed_by_strings(&t, w)
                .iter()
                .map(|x| x.to_bits())
                .collect();
            let got: Vec<u32> = t.embed(w).iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "{w:?}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_panics() {
        let _ = EmbeddingTable::new(0, 1);
    }
}
