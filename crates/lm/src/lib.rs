//! # gced-lm — n-gram language model for evidence readability
//!
//! Eq. 3 of the GCED paper scores an evidence's readability by the
//! inverse of its perplexity under a language model (the paper reuses its
//! PLM; here the substitution is an interpolated Kneser–Ney trigram
//! model trained on the corpus of each dataset — see DESIGN.md S3).
//! The property the Grow-and-Clip search needs is that **clipping a
//! constituent mid-phrase raises perplexity** and growing along real
//! syntactic structure lowers it; any well-smoothed n-gram model over the
//! corpus exhibits exactly that.
//!
//! ```
//! use gced_lm::TrigramLm;
//!
//! let corpus: Vec<Vec<String>> = vec![
//!     "the broncos defeated the panthers".split(' ').map(String::from).collect(),
//!     "the panthers lost the game".split(' ').map(String::from).collect(),
//! ];
//! let lm = TrigramLm::train(&corpus);
//! let fluent = lm.perplexity(&["the".into(), "broncos".into(), "defeated".into()]);
//! let garbled = lm.perplexity(&["defeated".into(), "the".into(), "the".into()]);
//! assert!(fluent < garbled);
//! ```

use gced_text::vocab::{Vocab, WordId, UNK};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The hasher of the n-gram count tables: their keys are small word-id
/// tuples, which the default SipHash would hash at several times the
/// cost of the lookup itself. It is fixed, not keyed: keys are inserted
/// only while training on the corpus, so request input can choose which
/// entries a lookup probes but never add colliding ones. The tables are
/// only looked up; every one that reaches output is sorted first
/// ([`TrigramLm::to_parts`]).
type IdHash = BuildHasherDefault<IdHasher>;

/// FxHash's mixing step over the `u32` words of a [`WordId`] key.
#[derive(Default, Clone, Copy)]
struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Absolute discount used at every level (standard KN default).
const DISCOUNT: f64 = 0.75;

/// Sentence-start marker id (never produced by the vocabulary).
const BOS: WordId = WordId(u32::MAX);

/// Interpolated Kneser–Ney trigram language model.
#[derive(Debug, Clone)]
pub struct TrigramLm {
    vocab: Vocab,
    /// Raw trigram counts c(u,v,w).
    c3: HashMap<(WordId, WordId, WordId), u64, IdHash>,
    /// Raw bigram counts c(u,v) over *history* positions (includes BOS).
    c2: HashMap<(WordId, WordId), u64, IdHash>,
    /// Distinct continuations after history (u,v): N1+(uv·).
    follow2: HashMap<(WordId, WordId), u64, IdHash>,
    /// Continuation count of bigram (v,w): N1+(·vw).
    cont2: HashMap<(WordId, WordId), u64, IdHash>,
    /// N1+(·v·) = Σ_w N1+(·vw).
    mid1: HashMap<WordId, u64, IdHash>,
    /// Distinct continuations after unigram v: N1+(v·).
    follow1: HashMap<WordId, u64, IdHash>,
    /// Continuation count of unigram w: N1+(·w).
    cont1: HashMap<WordId, u64, IdHash>,
    /// Total distinct bigram types N1+(··).
    bigram_types: u64,
}

impl TrigramLm {
    /// Train on tokenized, lowercased sentences.
    pub fn train(sentences: &[Vec<String>]) -> Self {
        let mut vocab = Vocab::new();
        let mut c3: HashMap<(WordId, WordId, WordId), u64, IdHash> = HashMap::default();
        let mut c2: HashMap<(WordId, WordId), u64, IdHash> = HashMap::default();
        let mut seen3: HashSet<(WordId, WordId, WordId), IdHash> = HashSet::default();
        let mut seen2: HashSet<(WordId, WordId), IdHash> = HashSet::default();
        let mut follow2: HashMap<(WordId, WordId), u64, IdHash> = HashMap::default();
        let mut cont2: HashMap<(WordId, WordId), u64, IdHash> = HashMap::default();
        let mut follow1: HashMap<WordId, u64, IdHash> = HashMap::default();
        let mut cont1: HashMap<WordId, u64, IdHash> = HashMap::default();
        let mut mid1: HashMap<WordId, u64, IdHash> = HashMap::default();

        for sent in sentences {
            if sent.is_empty() {
                continue;
            }
            let ids: Vec<WordId> = sent.iter().map(|w| vocab.add(w)).collect();
            let padded: Vec<WordId> = std::iter::repeat_n(BOS, 2)
                .chain(ids.iter().copied())
                .collect();
            for i in 2..padded.len() {
                let (u, v, w) = (padded[i - 2], padded[i - 1], padded[i]);
                *c3.entry((u, v, w)).or_insert(0) += 1;
                *c2.entry((u, v)).or_insert(0) += 1;
                if seen3.insert((u, v, w)) {
                    *follow2.entry((u, v)).or_insert(0) += 1;
                }
                if seen2.insert((v, w)) {
                    *cont2.entry((v, w)).or_insert(0) += 1;
                    *cont1.entry(w).or_insert(0) += 1;
                    *mid1.entry(v).or_insert(0) += 1;
                    *follow1.entry(v).or_insert(0) += 1;
                }
            }
        }
        let bigram_types = seen2.len() as u64;
        TrigramLm {
            vocab,
            c3,
            c2,
            follow2,
            cont2,
            mid1,
            follow1,
            cont1,
            bigram_types,
        }
    }

    /// The training vocabulary.
    pub fn vocab(&self) -> &Vocab {
        &self.vocab
    }

    /// Smoothed unigram continuation probability. Never zero: additive
    /// smoothing over continuation types gives unseen words mass.
    fn p_uni(&self, w: WordId) -> f64 {
        let cont = self.cont1.get(&w).copied().unwrap_or(0) as f64;
        let v = self.vocab.len() as f64 + 1.0;
        (cont + 0.5) / (self.bigram_types as f64 + 0.5 * v)
    }

    /// Interpolated KN bigram probability P(w | v).
    fn p_bi(&self, v: WordId, w: WordId) -> f64 {
        let mid = self.mid1.get(&v).copied().unwrap_or(0) as f64;
        if mid == 0.0 {
            return self.p_uni(w);
        }
        let cont = self.cont2.get(&(v, w)).copied().unwrap_or(0) as f64;
        let types = self.follow1.get(&v).copied().unwrap_or(0) as f64;
        let disc = (cont - DISCOUNT).max(0.0) / mid;
        let lambda = DISCOUNT * types / mid;
        disc + lambda * self.p_uni(w)
    }

    /// Interpolated KN trigram probability P(w | u, v).
    fn p_tri(&self, u: WordId, v: WordId, w: WordId) -> f64 {
        let hist = self.c2.get(&(u, v)).copied().unwrap_or(0) as f64;
        if hist == 0.0 {
            return self.p_bi(v, w);
        }
        let count = self.c3.get(&(u, v, w)).copied().unwrap_or(0) as f64;
        let types = self.follow2.get(&(u, v)).copied().unwrap_or(0) as f64;
        let disc = (count - DISCOUNT).max(0.0) / hist;
        let lambda = DISCOUNT * types / hist;
        disc + lambda * self.p_bi(v, w)
    }

    /// P(words[i] | words[i-2], words[i-1]) for an arbitrary position of a
    /// word sequence (BOS-padded on the left). Public for diagnostics.
    pub fn word_prob(&self, words: &[String], i: usize) -> f64 {
        let id = |j: isize| -> WordId {
            if j < 0 {
                BOS
            } else {
                self.vocab.get(&words[j as usize])
            }
        };
        let i = i as isize;
        self.p_tri(id(i - 2), id(i - 1), id(i))
    }

    /// Natural-log probability of the full sequence.
    pub fn log_prob(&self, words: &[String]) -> f64 {
        (0..words.len())
            .map(|i| self.word_prob(words, i).max(1e-300).ln())
            .sum()
    }

    /// Intern a word sequence once; repeated scoring then skips the
    /// per-word vocabulary hash lookups.
    pub fn word_ids(&self, words: &[String]) -> Vec<WordId> {
        words.iter().map(|w| self.vocab.get(w)).collect()
    }

    /// `log_prob` over pre-interned ids. Bitwise-identical to
    /// [`TrigramLm::log_prob`] on the source words (same per-position
    /// terms, same left-to-right accumulation).
    pub fn log_prob_ids(&self, ids: &[WordId]) -> f64 {
        let at = |j: isize| if j < 0 { BOS } else { ids[j as usize] };
        (0..ids.len() as isize)
            .map(|i| self.p_tri(at(i - 2), at(i - 1), at(i)).max(1e-300).ln())
            .sum()
    }

    /// Perplexity over pre-interned ids (Eq. 3), bitwise-identical to
    /// [`TrigramLm::perplexity`] on the source words.
    pub fn perplexity_ids(&self, ids: &[WordId]) -> f64 {
        if ids.is_empty() {
            return f64::INFINITY;
        }
        (-self.log_prob_ids(ids) / ids.len() as f64).exp()
    }

    /// Precompute per-position scores of a base sequence so that
    /// rescoring after token removals is incremental
    /// ([`TrigramLm::log_prob_after_removal`]).
    pub fn seq_scores(&self, ids: Vec<WordId>) -> SeqScores {
        let at = |j: isize| if j < 0 { BOS } else { ids[j as usize] };
        let lp: Vec<f64> = (0..ids.len() as isize)
            .map(|i| self.p_tri(at(i - 2), at(i - 1), at(i)).max(1e-300).ln())
            .collect();
        let total = lp.iter().sum();
        SeqScores { ids, lp, total }
    }

    /// Log-probability of the subsequence of `base` obtained by deleting
    /// the (ascending) positions in `removed`.
    ///
    /// **Bitwise-identical** to `log_prob` of the remaining words: terms
    /// are accumulated left to right, and a position whose two
    /// predecessors are unchanged reuses its cached term (the cached
    /// value is itself bitwise-equal to a recomputation). Only positions
    /// inside a trigram window after a removal — at most two per removed
    /// run — are recomputed, so the walk does O(1) hash lookups per
    /// boundary and O(1) adds elsewhere.
    pub fn log_prob_after_removal(&self, base: &SeqScores, removed: &[usize]) -> f64 {
        debug_assert!(
            removed.windows(2).all(|w| w[0] < w[1]),
            "removed must be ascending"
        );
        let mut sum = 0.0f64;
        let mut rm = removed.iter().peekable();
        // Original positions of the previous two *kept* tokens; -1 = BOS.
        let (mut prev1, mut prev2): (isize, isize) = (-1, -1);
        let (mut id1, mut id2) = (BOS, BOS);
        for p in 0..base.ids.len() {
            if rm.peek() == Some(&&p) {
                rm.next();
                continue;
            }
            let pi = p as isize;
            let unchanged = prev1 == pi - 1 && (pi < 2 || prev2 == pi - 2);
            sum += if unchanged {
                base.lp[p]
            } else {
                self.p_tri(id2, id1, base.ids[p]).max(1e-300).ln()
            };
            prev2 = prev1;
            prev1 = pi;
            id2 = id1;
            id1 = base.ids[p];
        }
        sum
    }

    /// O(|removed| + boundaries) estimate of
    /// [`TrigramLm::log_prob_after_removal`] via prefix sums: subtract
    /// the removed terms, then patch the at most two kept positions per
    /// removed run whose trigram context changed. Numerically equal up
    /// to floating-point summation order — use the exact walk wherever
    /// bit-stable argmax decisions matter.
    pub fn log_prob_after_removal_fast(&self, base: &SeqScores, removed: &[usize]) -> f64 {
        debug_assert!(
            removed.windows(2).all(|w| w[0] < w[1]),
            "removed must be ascending"
        );
        let n = base.ids.len();
        let mut sum = base.total;
        for &p in removed {
            sum -= base.lp[p];
        }
        let is_removed = |p: usize| removed.binary_search(&p).is_ok();
        let mut k = 0usize;
        while k < removed.len() {
            // The current contiguous removed run [run_start, run_end].
            let run_start = removed[k];
            let mut run_end = run_start;
            while k + 1 < removed.len() && removed[k + 1] == run_end + 1 {
                k += 1;
                run_end = removed[k];
            }
            k += 1;
            // Context for the first kept position after the run: the two
            // nearest kept tokens before the run (skipping earlier runs).
            let (mut c1, mut c2) = (BOS, BOS);
            let mut found = 0;
            let mut q = run_start;
            while found < 2 && q > 0 {
                q -= 1;
                if !is_removed(q) {
                    if found == 0 {
                        c1 = base.ids[q];
                    } else {
                        c2 = base.ids[q];
                    }
                    found += 1;
                }
            }
            // Patch up to two kept positions after the run; beyond that,
            // the trigram context consists of adjacent kept tokens and
            // the cached term is valid. A position interrupted by the
            // next run is patched by that run instead.
            let mut patched = 0;
            let mut pos = run_end + 1;
            while patched < 2 && pos < n && !is_removed(pos) {
                sum += self.p_tri(c2, c1, base.ids[pos]).max(1e-300).ln() - base.lp[pos];
                c2 = c1;
                c1 = base.ids[pos];
                patched += 1;
                pos += 1;
            }
        }
        sum
    }

    /// Perplexity per Eq. 3: `exp(-log P / L)`. Empty input gives
    /// `f64::INFINITY` (an empty evidence is maximally unreadable).
    pub fn perplexity(&self, words: &[String]) -> f64 {
        if words.is_empty() {
            return f64::INFINITY;
        }
        (-self.log_prob(words) / words.len() as f64).exp()
    }

    /// Readability per Eq. 4: the reciprocal of perplexity.
    pub fn readability(&self, words: &[String]) -> f64 {
        let ppl = self.perplexity(words);
        if ppl.is_finite() && ppl > 0.0 {
            1.0 / ppl
        } else {
            0.0
        }
    }

    /// Perplexity of the subsequence of `base` after deleting the
    /// (ascending) positions in `removed`, via the bit-exact incremental
    /// walk. Empty remainders give `f64::INFINITY`, matching
    /// [`TrigramLm::perplexity`].
    pub fn perplexity_after_removal(&self, base: &SeqScores, removed: &[usize]) -> f64 {
        let remaining = base.len() - removed.len();
        if remaining == 0 {
            return f64::INFINITY;
        }
        (-self.log_prob_after_removal(base, removed) / remaining as f64).exp()
    }

    /// Decompose the fitted model into plain sorted tables
    /// ([`LmParts`]) for serialization. Sorted orders make the encoded
    /// artifact byte-deterministic across runs despite the internal
    /// `HashMap`s.
    pub fn to_parts(&self) -> LmParts {
        fn sorted<K: Ord + Copy>(map: &HashMap<K, u64, IdHash>) -> Vec<(K, u64)> {
            let mut v: Vec<(K, u64)> = map.iter().map(|(&k, &c)| (k, c)).collect();
            v.sort_unstable_by_key(|&(k, _)| k);
            v
        }
        LmParts {
            words: self
                .vocab
                .iter()
                .map(|(_, w, c)| (w.to_string(), c))
                .collect(),
            c3: sorted(&self.c3),
            c2: sorted(&self.c2),
            follow2: sorted(&self.follow2),
            cont2: sorted(&self.cont2),
            mid1: sorted(&self.mid1),
            follow1: sorted(&self.follow1),
            cont1: sorted(&self.cont1),
            bigram_types: self.bigram_types,
        }
    }

    /// Rebuild a model from [`TrigramLm::to_parts`] output. The result
    /// scores every sequence bitwise-identically to the original: ids,
    /// counts, and continuation tables are restored verbatim and every
    /// probability is a pure function of them.
    pub fn from_parts(parts: LmParts) -> Self {
        TrigramLm {
            vocab: Vocab::from_entries(parts.words.iter().map(|(w, c)| (w.as_str(), *c))),
            c3: parts.c3.into_iter().collect(),
            c2: parts.c2.into_iter().collect(),
            follow2: parts.follow2.into_iter().collect(),
            cont2: parts.cont2.into_iter().collect(),
            mid1: parts.mid1.into_iter().collect(),
            follow1: parts.follow1.into_iter().collect(),
            cont1: parts.cont1.into_iter().collect(),
            bigram_types: parts.bigram_types,
        }
    }

    /// Fraction of words unknown to the model (diagnostic; OOV hurts PPL).
    pub fn oov_rate(&self, words: &[String]) -> f64 {
        if words.is_empty() {
            return 0.0;
        }
        let oov = words.iter().filter(|w| self.vocab.get(w) == UNK).count();
        oov as f64 / words.len() as f64
    }
}

/// A fitted [`TrigramLm`] flattened into plain sorted tables — the
/// serialization interchange form (the fit-cache codec in `gced` turns
/// this into bytes). Word ids are implicit: `words[i]` has id `i + 1`
/// (id 0 is `<unk>`), exactly as [`gced_text::vocab::Vocab`] assigns
/// them during training.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LmParts {
    /// `(word, count)` in id order (id 1 first).
    pub words: Vec<(String, u64)>,
    /// Trigram counts, sorted by key.
    pub c3: Vec<((WordId, WordId, WordId), u64)>,
    /// History bigram counts, sorted by key.
    pub c2: Vec<((WordId, WordId), u64)>,
    /// Distinct-continuation counts N1+(uv·), sorted by key.
    pub follow2: Vec<((WordId, WordId), u64)>,
    /// Continuation counts N1+(·vw), sorted by key.
    pub cont2: Vec<((WordId, WordId), u64)>,
    /// N1+(·v·), sorted by key.
    pub mid1: Vec<(WordId, u64)>,
    /// N1+(v·), sorted by key.
    pub follow1: Vec<(WordId, u64)>,
    /// N1+(·w), sorted by key.
    pub cont1: Vec<(WordId, u64)>,
    /// Total distinct bigram types.
    pub bigram_types: u64,
}

/// Per-position scores of a base word sequence, the substrate for
/// incremental rescoring after token removals (the Sequential Clip
/// Searching hot path: every candidate clip deletes a subtree from the
/// same base evidence, so everything shared is computed once here).
#[derive(Debug, Clone)]
pub struct SeqScores {
    /// Interned word ids of the base sequence.
    ids: Vec<WordId>,
    /// `lp[i]` = ln P(w_i | w_{i-2}, w_{i-1}), BOS-padded, floored like
    /// [`TrigramLm::log_prob`].
    lp: Vec<f64>,
    /// Σ `lp` (the O(|removed|) fast path starts from the full-sequence
    /// total and subtracts).
    total: f64,
}

impl SeqScores {
    /// Length of the base sequence.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the base sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Total log-probability of the full base sequence.
    pub fn total(&self) -> f64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sents(lines: &[&str]) -> Vec<Vec<String>> {
        lines
            .iter()
            .map(|l| l.split(' ').map(String::from).collect())
            .collect()
    }

    fn small_lm() -> TrigramLm {
        TrigramLm::train(&sents(&[
            "the broncos defeated the panthers",
            "the broncos won the title",
            "the panthers lost the game",
            "the team won the championship",
            "the broncos earned the title",
        ]))
    }

    #[test]
    fn probabilities_are_in_unit_interval() {
        let lm = small_lm();
        let seq: Vec<String> = "the broncos won".split(' ').map(String::from).collect();
        for i in 0..seq.len() {
            let p = lm.word_prob(&seq, i);
            assert!(p > 0.0 && p <= 1.0, "p = {p}");
        }
    }

    #[test]
    fn trigram_distribution_sums_to_one() {
        let lm = small_lm();
        // Sum P(w | "the", "broncos") over the full vocabulary (+unk).
        let mut total = 0.0;
        let u = lm.vocab.get("the");
        let v = lm.vocab.get("broncos");
        for (id, _, _) in lm.vocab.iter() {
            total += lm.p_tri(u, v, id);
        }
        total += lm.p_tri(u, v, UNK);
        assert!((total - 1.0).abs() < 0.02, "sums to {total}");
    }

    #[test]
    fn fluent_beats_garbled() {
        let lm = small_lm();
        let fluent: Vec<String> = "the broncos won the title"
            .split(' ')
            .map(String::from)
            .collect();
        let garbled: Vec<String> = "title the won broncos the"
            .split(' ')
            .map(String::from)
            .collect();
        assert!(lm.perplexity(&fluent) < lm.perplexity(&garbled));
    }

    #[test]
    fn in_domain_beats_oov() {
        let lm = small_lm();
        let seen: Vec<String> = "the broncos won".split(' ').map(String::from).collect();
        let unseen: Vec<String> = "zebras quantize kumquats"
            .split(' ')
            .map(String::from)
            .collect();
        assert!(lm.perplexity(&seen) < lm.perplexity(&unseen));
        assert_eq!(lm.oov_rate(&unseen), 1.0);
        assert_eq!(lm.oov_rate(&seen), 0.0);
    }

    #[test]
    fn readability_is_reciprocal_of_perplexity() {
        let lm = small_lm();
        let seq: Vec<String> = "the broncos won".split(' ').map(String::from).collect();
        let ppl = lm.perplexity(&seq);
        assert!((lm.readability(&seq) - 1.0 / ppl).abs() < 1e-12);
    }

    #[test]
    fn empty_sequence_edge_cases() {
        let lm = small_lm();
        assert!(lm.perplexity(&[]).is_infinite());
        assert_eq!(lm.readability(&[]), 0.0);
        assert_eq!(lm.oov_rate(&[]), 0.0);
    }

    #[test]
    fn training_is_deterministic() {
        let corpus = sents(&["a b c", "b c d", "c d e"]);
        let lm1 = TrigramLm::train(&corpus);
        let lm2 = TrigramLm::train(&corpus);
        let seq: Vec<String> = "a b c d e".split(' ').map(String::from).collect();
        assert_eq!(lm1.log_prob(&seq), lm2.log_prob(&seq));
    }

    #[test]
    fn empty_corpus_is_usable() {
        let lm = TrigramLm::train(&[]);
        let seq: Vec<String> = vec!["anything".into()];
        let p = lm.perplexity(&seq);
        assert!(p.is_finite() && p > 0.0);
    }

    #[test]
    fn empty_sentences_are_skipped() {
        let lm = TrigramLm::train(&[vec![], vec!["a".into(), "b".into()]]);
        assert!(lm.vocab().contains("a"));
    }

    #[test]
    fn more_context_helps() {
        // The trigram "broncos defeated the" is seen; after training, the
        // model should prefer the attested continuation over an unattested
        // in-vocabulary one.
        let lm = small_lm();
        let attested: Vec<String> = "the broncos defeated the panthers"
            .split(' ')
            .map(String::from)
            .collect();
        let swapped: Vec<String> = "the broncos defeated the game"
            .split(' ')
            .map(String::from)
            .collect();
        assert!(lm.log_prob(&attested) > lm.log_prob(&swapped));
    }

    #[test]
    fn id_paths_match_string_paths_bitwise() {
        let lm = small_lm();
        let seq: Vec<String> = "the broncos defeated the panthers zebra"
            .split(' ')
            .map(String::from)
            .collect();
        let ids = lm.word_ids(&seq);
        assert_eq!(lm.log_prob(&seq), lm.log_prob_ids(&ids));
        assert_eq!(lm.perplexity(&seq), lm.perplexity_ids(&ids));
        assert!(lm.perplexity_ids(&[]).is_infinite());
    }

    #[test]
    fn removal_walk_is_bitwise_exact() {
        let lm = small_lm();
        let seq: Vec<String> = "the broncos won the title in the final game"
            .split(' ')
            .map(String::from)
            .collect();
        let base = lm.seq_scores(lm.word_ids(&seq));
        for removed in [
            vec![],
            vec![0],
            vec![0, 1],
            vec![3],
            vec![2, 3, 4],
            vec![0, 4, 8],
            vec![1, 2, 6, 7],
            (0..seq.len()).collect::<Vec<_>>(),
        ] {
            let remaining: Vec<String> = seq
                .iter()
                .enumerate()
                .filter(|(i, _)| !removed.contains(i))
                .map(|(_, w)| w.clone())
                .collect();
            let direct = lm.log_prob(&remaining);
            let incremental = lm.log_prob_after_removal(&base, &removed);
            assert_eq!(direct, incremental, "removal {removed:?}");
            if !remaining.is_empty() {
                assert_eq!(
                    lm.perplexity(&remaining),
                    lm.perplexity_after_removal(&base, &removed)
                );
            } else {
                assert!(lm.perplexity_after_removal(&base, &removed).is_infinite());
            }
        }
    }

    #[test]
    fn fast_removal_matches_exact_closely() {
        let lm = small_lm();
        let seq: Vec<String> = "the broncos won the title in the final game of the year"
            .split(' ')
            .map(String::from)
            .collect();
        let base = lm.seq_scores(lm.word_ids(&seq));
        for removed in [
            vec![0],
            vec![5],
            vec![2, 3],
            vec![1, 6, 7, 10],
            vec![0, 2, 4, 6, 8],
        ] {
            let exact = lm.log_prob_after_removal(&base, &removed);
            let fast = lm.log_prob_after_removal_fast(&base, &removed);
            assert!(
                (exact - fast).abs() < 1e-9,
                "removal {removed:?}: exact {exact} vs fast {fast}"
            );
        }
    }

    #[test]
    fn seq_scores_totals() {
        let lm = small_lm();
        let seq: Vec<String> = "the broncos won".split(' ').map(String::from).collect();
        let base = lm.seq_scores(lm.word_ids(&seq));
        assert_eq!(base.len(), 3);
        assert!(!base.is_empty());
        assert!((base.total() - lm.log_prob(&seq)).abs() < 1e-12);
    }

    #[test]
    fn parts_roundtrip_is_bitwise_identical() {
        let lm = small_lm();
        let parts = lm.to_parts();
        // Sorted tables make the interchange form deterministic.
        assert_eq!(parts, lm.to_parts());
        let back = TrigramLm::from_parts(parts);
        for line in [
            "the broncos won the title",
            "title the won broncos the",
            "zebras quantize kumquats",
            "the",
        ] {
            let seq: Vec<String> = line.split(' ').map(String::from).collect();
            assert_eq!(lm.log_prob(&seq).to_bits(), back.log_prob(&seq).to_bits());
            assert_eq!(
                lm.perplexity(&seq).to_bits(),
                back.perplexity(&seq).to_bits()
            );
        }
        assert_eq!(back.vocab().len(), lm.vocab().len());
        assert_eq!(back.oov_rate(&["zzz".to_string()]), 1.0);
    }

    #[test]
    fn perplexity_positive_for_any_input() {
        let lm = small_lm();
        for seq in [
            vec!["the".to_string()],
            vec!["xyzzy".to_string(), "the".to_string()],
        ] {
            let p = lm.perplexity(&seq);
            assert!(p > 0.0 && p.is_finite());
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn word_strategy() -> impl Strategy<Value = String> {
        prop::sample::select(vec![
            "the".to_string(),
            "broncos".to_string(),
            "panthers".to_string(),
            "won".to_string(),
            "defeated".to_string(),
            "title".to_string(),
            "game".to_string(),
        ])
    }

    proptest! {
        /// Perplexity is finite and positive for any non-empty sequence
        /// over a mixed seen/unseen vocabulary.
        #[test]
        fn ppl_finite_positive(seq in prop::collection::vec(word_strategy(), 1..12)) {
            let lm = TrigramLm::train(&[
                vec!["the".into(), "broncos".into(), "won".into(), "the".into(), "title".into()],
            ]);
            let ppl = lm.perplexity(&seq);
            prop_assert!(ppl.is_finite());
            prop_assert!(ppl > 0.0);
        }

        /// Incremental removal scoring is bitwise-exact against a full
        /// recomputation for arbitrary sequences and removal sets.
        #[test]
        fn removal_walk_exact_on_random_inputs(
            seq in prop::collection::vec(word_strategy(), 1..14),
            mask in prop::collection::vec(0usize..2, 1..14),
        ) {
            let lm = TrigramLm::train(&[
                vec!["the".into(), "broncos".into(), "won".into(), "the".into(), "title".into()],
                vec!["the".into(), "panthers".into(), "defeated".into(), "the".into(), "game".into()],
            ]);
            let removed: Vec<usize> = (0..seq.len())
                .filter(|&i| mask.get(i).copied().unwrap_or(0) == 1)
                .collect();
            let base = lm.seq_scores(lm.word_ids(&seq));
            let remaining: Vec<String> = seq
                .iter()
                .enumerate()
                .filter(|(i, _)| !removed.contains(i))
                .map(|(_, w)| w.clone())
                .collect();
            let direct = lm.log_prob(&remaining);
            let incremental = lm.log_prob_after_removal(&base, &removed);
            prop_assert!(direct == incremental, "removal {:?}: {} vs {}", removed, direct, incremental);
            let fast = lm.log_prob_after_removal_fast(&base, &removed);
            prop_assert!((direct - fast).abs() < 1e-9);
        }

        /// Per-word probabilities stay in (0, 1] for arbitrary sequences.
        #[test]
        fn per_word_probs_bounded(seq in prop::collection::vec(word_strategy(), 1..10)) {
            let lm = TrigramLm::train(&[
                vec!["the".into(), "broncos".into(), "won".into()],
            ]);
            for i in 0..seq.len() {
                let p = lm.word_prob(&seq, i);
                prop_assert!(p > 0.0 && p <= 1.0);
            }
        }
    }
}
