//! Evidence goodness metrics (paper Sec. II-B, Eqs. 1–5).
//!
//! Raw quantities follow the paper exactly:
//! * informativeness I(e): token F1 between the PLM's prediction on
//!   (question, evidence) and the input answer (Eq. 1);
//! * conciseness C(e): 1/L(e), or −∞ when the evidence is not longer
//!   than the answer (Eq. 2);
//! * readability R(e): 1/PPL(e) under the corpus LM (Eqs. 3–4).
//!
//! For the hybrid score H = αI + βR + γC (Eq. 5) the paper states
//! H ∈ [0, 1], which requires each term on a commensurate [0, 1] scale;
//! raw 1/PPL and 1/L live on tiny, corpus-dependent scales. The distiller
//! therefore uses **monotone normalizations**:
//! * R_norm = PPL_ref / (PPL + PPL_ref), with PPL_ref the mean sentence
//!   perplexity of the training corpus (R_norm = ½ at corpus-typical
//!   fluency, → 1 for highly fluent, → 0 for garbled);
//! * C_norm = min(1, (L(a) + 2) / L(e)) (= 1 when the evidence is within
//!   two tokens of the answer length, decaying harmonically like Eq. 2).
//!
//! Both normalizations preserve the orderings induced by Eqs. 2–4, so
//! every argmax the Grow-and-Clip search takes is unchanged in spirit;
//! raw values are also reported.
//!
//! ## The selection-scoring hot path
//!
//! Both phases of the Grow-and-Clip search evaluate hundreds of
//! candidate selections of the *same* analysed document: the grow search
//! (ASE) trials sentence subsets of the context, the clip search (SCS)
//! trials token removals of the evidence. [`SearchContext`] is the one
//! incremental engine both run on: per document it owns the LM word ids
//! (looked up by interned token id, [`crate::ids`]), the per-position LM
//! scores of the current evidence, the QA span scorer's id tables
//! ([`gced_qa::SelectionScoreCache`]), and the answer-word slots of
//! every token ([`AnswerSlots`]). Each candidate selection is then
//! scored with zero re-tokenization, an Eq. 1 F1 counted over the
//! predicted span's slots without building its text, and an incremental
//! log-prob walk ([`gced_lm::TrigramLm::log_prob_after_removal`]). The
//! grow search replays memoized span partials for the runs its trials
//! share ([`gced_qa::QaModel::predict_selection_span_cached`]); the clip
//! search's removals rarely repeat a run, so it scores every run afresh
//! ([`gced_qa::QaModel::predict_selection_span_fresh`]). All of it is
//! **bitwise-identical** to scoring the selection from scratch, the
//! invariant the grow- and clip-search oracle tests pin down.

use crate::ids::{DocIds, IdTable, RequestIds};
use crate::slots::{AnswerSlots, AnswerWords};
use gced_lm::{SeqScores, TrigramLm};
use gced_metrics::overlap::token_f1;
use gced_qa::{QaModel, QuestionAnalysis, SelectionScoreCache, SelectionScratch};
use gced_text::vocab::WordId;
use gced_text::Document;
use std::collections::BTreeSet;

/// All scores for one candidate evidence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvidenceScores {
    /// Informativeness I(e) ∈ [0, 1] (Eq. 1).
    pub informativeness: f64,
    /// Raw conciseness 1/L(e) or −∞ (Eq. 2).
    pub conciseness_raw: f64,
    /// Raw readability 1/PPL(e) (Eq. 4).
    pub readability_raw: f64,
    /// Normalized conciseness ∈ [0, 1] (or −∞ on the discard branch).
    pub conciseness: f64,
    /// Normalized readability ∈ (0, 1).
    pub readability: f64,
    /// Hybrid score H(e) (Eq. 5) over the normalized terms.
    pub hybrid: f64,
}

/// Scores evidences against one (question, answer) pair. The question
/// is interned into the caller's request id space; documents scored
/// through [`EvidenceScorer::search_context`] must be interned into the
/// same one.
pub struct EvidenceScorer<'a> {
    qa: &'a QaModel,
    lm: &'a TrigramLm,
    table: &'a IdTable,
    question: &'a str,
    question_doc: Document,
    question_ids: DocIds,
    q_analysis: QuestionAnalysis,
    answer: &'a str,
    answer_words: AnswerWords,
    answer_len: usize,
    ppl_ref: f64,
    weights: (f64, f64, f64),
}

/// Reusable buffers for selection scoring; create one per worker thread
/// and the candidate loop allocates nothing in steady state.
#[derive(Default)]
pub struct ScoreScratch {
    qa: SelectionScratch,
    indices: Vec<usize>,
    removed_pos: Vec<usize>,
}

impl<'a> EvidenceScorer<'a> {
    /// Build a scorer, analysing the question and interning it into
    /// `ids` (a request id space over the id table of `qa` and `lm`,
    /// [`IdTable::build`]). `ppl_ref` is the corpus reference perplexity
    /// (see [`reference_perplexity`]); `weights` is the effective
    /// (α, β, γ).
    pub fn new(
        qa: &'a QaModel,
        lm: &'a TrigramLm,
        ids: &mut RequestIds<'a>,
        question: &'a str,
        answer: &'a str,
        ppl_ref: f64,
        weights: (f64, f64, f64),
    ) -> Self {
        let (question_doc, question_ids) = ids.analyze(question);
        let q_analysis =
            QuestionAnalysis::from_doc_ids(&question_doc, &question_ids.lower, &question_ids.lemma);
        let answer_len = answer.split_whitespace().count();
        EvidenceScorer {
            qa,
            lm,
            table: ids.table(),
            question,
            question_doc,
            question_ids,
            q_analysis,
            answer,
            answer_words: AnswerWords::new(answer),
            answer_len,
            ppl_ref: ppl_ref.max(1.0),
            weights,
        }
    }

    /// The analysed question and its token ids.
    pub fn question_doc(&self) -> (&Document, &DocIds) {
        (&self.question_doc, &self.question_ids)
    }

    /// The question analysis (shared with ASE).
    pub fn question_analysis(&self) -> &QuestionAnalysis {
        &self.q_analysis
    }

    /// The input answer.
    pub fn answer(&self) -> &str {
        self.answer
    }

    /// Score an evidence given as an analysed document.
    pub fn score_doc(&self, evidence: &Document) -> EvidenceScores {
        let words: Vec<String> = evidence.tokens.iter().map(|t| t.lower()).collect();
        let pred = self
            .qa
            .predict_analyzed(&self.q_analysis, evidence, self.question);
        let informativeness = token_f1(&pred.text, self.answer).f1;
        self.assemble(informativeness, words.len(), self.lm.perplexity(&words))
    }

    /// Score an evidence given as lowercased tokens (tests and
    /// diagnostics; the distiller itself scores selections).
    pub fn score_tokens(&self, words: &[String]) -> EvidenceScores {
        let text = words.join(" ");
        let doc = gced_text::analyze(&text);
        let pred = self
            .qa
            .predict_analyzed(&self.q_analysis, &doc, self.question);
        let informativeness = token_f1(&pred.text, self.answer).f1;
        self.assemble(informativeness, words.len(), self.lm.perplexity(words))
    }

    /// Score a node selection of an analysed AOS document: evidence =
    /// the selected tokens in index order, with original annotations
    /// (no re-tokenization).
    pub fn score_selection(&self, aos: &Document, selected: &BTreeSet<usize>) -> EvidenceScores {
        let indices: Vec<usize> = selected.iter().copied().collect();
        self.score_indices(aos, &indices, &mut ScoreScratch::default())
    }

    /// [`EvidenceScorer::score_selection`] over a sorted index slice with
    /// caller-provided buffers. One-shot path: [`SearchContext`] amortizes
    /// the per-document work when many selections of the same document
    /// are scored.
    pub fn score_indices(
        &self,
        aos: &Document,
        selected: &[usize],
        scratch: &mut ScoreScratch,
    ) -> EvidenceScores {
        let pred = self.qa.predict_selection(
            &self.q_analysis,
            aos,
            selected,
            self.question,
            &mut scratch.qa,
        );
        let informativeness = token_f1(&pred.text, self.answer).f1;
        let ids: Vec<WordId> = selected
            .iter()
            .map(|&i| self.lm.vocab().get(&aos.tokens[i].lower_cow()))
            .collect();
        let ppl = self.lm.perplexity_ids(&ids);
        self.assemble(informativeness, selected.len(), ppl)
    }

    /// Start an incremental search session over one analysed document
    /// (`ids` interned into the scorer's request id space) — the shared
    /// engine of the grow and clip phases.
    pub fn search_context<'s>(
        &'s self,
        doc: &'s Document,
        ids: &'s DocIds,
    ) -> SearchContext<'s, 'a> {
        SearchContext {
            scorer: self,
            aos: doc,
            ids,
            slots: AnswerSlots::new(doc, &self.answer_words),
            tok_ids: None,
            base: Vec::new(),
            pos_in_base: vec![usize::MAX; doc.len()],
            base_seq: None,
            qa_cache: SelectionScoreCache::for_ids(
                &self.q_analysis,
                doc,
                &ids.lower,
                &ids.lemma,
                self.table.idf(),
            ),
        }
    }

    /// Combine the three terms (Eq. 5) from the already-computed parts.
    fn assemble(&self, informativeness: f64, len: usize, ppl: f64) -> EvidenceScores {
        let (conciseness_raw, conciseness) = if len > self.answer_len {
            let raw = 1.0 / len as f64;
            let norm = ((self.answer_len as f64 + 2.0) / len as f64).min(1.0);
            (raw, norm)
        } else {
            (f64::NEG_INFINITY, f64::NEG_INFINITY)
        };
        let readability_raw = if ppl.is_finite() { 1.0 / ppl } else { 0.0 };
        let readability = self.ppl_ref / (ppl + self.ppl_ref);
        let (a, b, g) = self.weights;
        let hybrid = if conciseness.is_finite() {
            a * informativeness + b * readability + g * conciseness
        } else {
            f64::NEG_INFINITY
        };
        EvidenceScores {
            informativeness,
            conciseness_raw,
            readability_raw,
            conciseness,
            readability,
            hybrid,
        }
    }
}

/// The incremental evidence-search engine for one analysed document —
/// the state both Grow-and-Clip phases share:
///
/// * **masked document projections** — QA predictions run over token
///   selections of the original analysis, never a re-tokenization;
/// * **QA span scoring by id** ([`gced_qa::SelectionScoreCache`]) — per
///   token clue, lemma and IDF tables; the grow search's near-identical
///   trials also replay span-score partials keyed by (sentence run, clue
///   layout), re-scoring only the runs that changed;
/// * **LM caches** — per-token LM word ids read off the id table, and
///   the current evidence ("base") carries per-position trigram scores
///   so a removal costs an incremental log-prob walk;
/// * **answer-word slots** — every token normalized once against the
///   answer ([`AnswerSlots`]), so a prediction's Eq. 1 F1 is a count.
///
/// Every score produced here is bitwise-identical to
/// [`EvidenceScorer::score_selection`] on the corresponding selection.
pub struct SearchContext<'s, 'a> {
    scorer: &'s EvidenceScorer<'a>,
    aos: &'s Document,
    /// Interned token ids of `aos`.
    ids: &'s DocIds,
    /// Answer-word slots of every token (the Eq. 1 F1 of a span).
    slots: AnswerSlots<'s>,
    /// LM word id per document token (looked up on first `set_base` —
    /// grow-only contexts never touch the LM).
    tok_ids: Option<Vec<WordId>>,
    /// Current evidence selection, ascending token indices.
    base: Vec<usize>,
    /// token index -> position in `base` (usize::MAX when absent).
    pos_in_base: Vec<usize>,
    /// Cached per-position LM scores of the base sequence.
    base_seq: Option<SeqScores>,
    /// The span scorer's id tables and scratch, and the grow search's
    /// span-score memo.
    qa_cache: SelectionScoreCache,
}

impl<'s, 'a> SearchContext<'s, 'a> {
    /// The document this context searches over.
    pub fn doc(&self) -> &'s Document {
        self.aos
    }

    /// The input answer selections are scored against.
    pub fn answer(&self) -> &'a str {
        self.scorer.answer
    }

    /// The answer-word slots of the document's tokens.
    pub(crate) fn slots(&self) -> &AnswerSlots<'s> {
        &self.slots
    }

    /// Informativeness (Eq. 1 F1) of an arbitrary selection — the grow
    /// search's trial metric, served through the span-score cache.
    pub fn informativeness_of(&mut self, selected: &[usize]) -> f64 {
        let Self {
            scorer,
            aos,
            slots,
            qa_cache,
            ..
        } = self;
        let span = scorer.qa.predict_selection_span_cached(
            &scorer.q_analysis,
            aos,
            selected,
            scorer.question,
            qa_cache,
        );
        slots.prediction_f1(aos, selected, span, scorer.answer)
    }

    /// Cache-effectiveness counters of the grow search's span-score
    /// memo: (runs replayed, runs scored fresh).
    pub fn span_cache_stats(&self) -> (u64, u64) {
        (self.qa_cache.run_hits, self.qa_cache.run_misses)
    }

    /// Install the current evidence selection (ascending token indices)
    /// and precompute its LM cache.
    pub fn set_base<I: IntoIterator<Item = usize>>(&mut self, selection: I) {
        for &i in &self.base {
            self.pos_in_base[i] = usize::MAX;
        }
        self.base.clear();
        self.base.extend(selection);
        debug_assert!(
            self.base.windows(2).all(|w| w[0] < w[1]),
            "base must be ascending"
        );
        for (pos, &i) in self.base.iter().enumerate() {
            self.pos_in_base[i] = pos;
        }
        let table = self.scorer.table;
        let tok_ids = self
            .tok_ids
            .get_or_insert_with(|| self.ids.lower.iter().map(|&w| table.lm_id(w)).collect());
        let ids: Vec<WordId> = self.base.iter().map(|&i| tok_ids[i]).collect();
        self.base_seq = Some(self.scorer.lm.seq_scores(ids));
    }

    /// The current base selection.
    pub fn base(&self) -> &[usize] {
        &self.base
    }

    /// Score the base selection itself.
    pub fn score_base(&mut self, scratch: &mut ScoreScratch) -> EvidenceScores {
        self.score_removal(&[], scratch)
    }

    /// Score the evidence obtained by removing `removed` (a sorted set
    /// of token indices, all members of the base) from the base.
    pub fn score_removal(
        &mut self,
        removed: &[usize],
        scratch: &mut ScoreScratch,
    ) -> EvidenceScores {
        self.stage_removal(removed, scratch);
        let informativeness = self.informativeness_of_remaining(scratch);
        let ppl = self.remaining_perplexity(scratch);
        self.scorer
            .assemble(informativeness, scratch.indices.len(), ppl)
    }

    /// Fill the scratch buffers for a removal: sorted base positions of
    /// the removed tokens plus the remaining token indices in order.
    fn stage_removal(&self, removed: &[usize], scratch: &mut ScoreScratch) {
        scratch.removed_pos.clear();
        for &t in removed {
            let pos = self.pos_in_base[t];
            debug_assert!(pos != usize::MAX, "removed token {t} not in base");
            scratch.removed_pos.push(pos);
        }
        scratch.removed_pos.sort_unstable();
        scratch.indices.clear();
        let mut rm = scratch.removed_pos.iter().peekable();
        for (pos, &tok) in self.base.iter().enumerate() {
            if rm.peek() == Some(&&pos) {
                rm.next();
            } else {
                scratch.indices.push(tok);
            }
        }
    }

    fn remaining_perplexity(&self, scratch: &ScoreScratch) -> f64 {
        let base_seq = self
            .base_seq
            .as_ref()
            .expect("set_base before scoring removals");
        self.scorer
            .lm
            .perplexity_after_removal(base_seq, &scratch.removed_pos)
    }

    /// Informativeness of the staged remaining selection, every run
    /// scored afresh (no span-score memo).
    fn informativeness_of_remaining(&mut self, scratch: &ScoreScratch) -> f64 {
        let SearchContext {
            scorer,
            aos,
            slots,
            qa_cache,
            ..
        } = self;
        let span = scorer.qa.predict_selection_span_fresh(
            &scorer.q_analysis,
            aos,
            &scratch.indices,
            scorer.question,
            qa_cache,
        );
        slots.prediction_f1(aos, &scratch.indices, span, scorer.answer)
    }

    /// [`SearchContext::score_removal`] with an exact
    /// competitiveness prune: the conciseness and readability terms are
    /// cheap (O(1) and an incremental LM walk), and informativeness is
    /// bounded by 1, so when `α·1 + β·R + γ·C < floor` the QA
    /// prediction — the expensive term — is provably pointless and
    /// `None` is returned.
    ///
    /// When a removal survives the prune, the returned [`EvidenceScores`]
    /// is bitwise-equal to [`SearchContext::score_removal`] (the upper
    /// bound shares every intermediate float and the summation order
    /// with the full score, so fp monotonicity makes the prune sound);
    /// `None` guarantees the removal's hybrid is below `floor`. The −∞
    /// discard shortcut reports the discard scores without the QA/LM
    /// work.
    pub fn score_if_competitive(
        &mut self,
        removed: &[usize],
        floor: f64,
        scratch: &mut ScoreScratch,
    ) -> Option<EvidenceScores> {
        let remaining = self.base.len() - removed.len();
        if remaining <= self.scorer.answer_len {
            // Discard branch of Eq. 2: the hybrid is −∞ regardless of
            // the other terms, and a discarded candidate is never
            // applied, so the expensive terms are not computed.
            return Some(EvidenceScores {
                informativeness: 0.0,
                conciseness_raw: f64::NEG_INFINITY,
                readability_raw: 0.0,
                conciseness: f64::NEG_INFINITY,
                readability: 0.0,
                hybrid: f64::NEG_INFINITY,
            });
        }
        self.stage_removal(removed, scratch);
        let ppl = self.remaining_perplexity(scratch);
        let conciseness = ((self.scorer.answer_len as f64 + 2.0) / remaining as f64).min(1.0);
        let readability = self.scorer.ppl_ref / (ppl + self.scorer.ppl_ref);
        let (a, b, g) = self.scorer.weights;
        let upper_bound = a * 1.0 + b * readability + g * conciseness;
        if upper_bound < floor {
            return None;
        }
        let informativeness = self.informativeness_of_remaining(scratch);
        Some(EvidenceScores {
            informativeness,
            conciseness_raw: 1.0 / remaining as f64,
            readability_raw: if ppl.is_finite() { 1.0 / ppl } else { 0.0 },
            conciseness,
            readability,
            hybrid: a * informativeness + b * readability + g * conciseness,
        })
    }
}

/// Word-packed membership bitset over `0..n` — shared by the grow
/// search (sentence membership) and the clip search (evidence-token
/// membership): a membership test is one shift and mask instead of a
/// set scan or clone.
pub(crate) struct Bitset {
    words: Vec<u64>,
}

impl Bitset {
    /// An empty bitset over `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        Bitset {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// A bitset over `0..n` with the given members set.
    pub(crate) fn from_iter<I: IntoIterator<Item = usize>>(n: usize, iter: I) -> Self {
        let mut b = Bitset::new(n);
        for i in iter {
            b.insert(i);
        }
        b
    }

    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    pub(crate) fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    pub(crate) fn remove(&mut self, i: usize) {
        self.words[i / 64] &= !(1 << (i % 64));
    }

    /// The members in ascending order, word by word: each step clears
    /// the lowest set bit, so empty words cost one test.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(k, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros() as usize;
                    rest &= rest - 1;
                    k * 64 + bit
                })
            })
        })
    }
}

/// Mean sentence perplexity of a sample of the training corpus — the
/// reference point for readability normalization.
pub fn reference_perplexity(lm: &TrigramLm, corpus: &[Vec<String>], sample: usize) -> f64 {
    let take = corpus.len().min(sample.max(1));
    if take == 0 {
        return 50.0;
    }
    let mut total = 0.0;
    let mut n = 0usize;
    for sent in corpus.iter().take(take) {
        let ppl = lm.perplexity(sent);
        if ppl.is_finite() {
            total += ppl;
            n += 1;
        }
    }
    if n == 0 {
        50.0
    } else {
        total / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gced_qa::ModelProfile;

    #[test]
    fn bitset_iter_walks_members_in_ascending_order() {
        for n in [0, 1, 63, 64, 65, 130, 200] {
            let members: Vec<usize> = (0..n).filter(|i| i % 3 == 0 || i % 64 == 63).collect();
            let mut b = Bitset::from_iter(n, members.iter().copied());
            assert_eq!(b.iter().collect::<Vec<_>>(), members, "n = {n}");
            let oracle: Vec<usize> = (0..n).filter(|&i| b.contains(i)).collect();
            assert_eq!(b.iter().collect::<Vec<_>>(), oracle);
            for &i in &members {
                b.remove(i);
            }
            assert_eq!(b.iter().count(), 0);
        }
    }

    fn corpus() -> Vec<Vec<String>> {
        [
            "the broncos defeated the panthers to earn the title",
            "the broncos won the final game",
            "the panthers lost the championship",
            "the team earned the title in denver",
        ]
        .iter()
        .map(|s| s.split(' ').map(String::from).collect())
        .collect()
    }

    fn scorer_parts() -> (QaModel, TrigramLm, f64) {
        let qa = QaModel::new(ModelProfile::plm());
        let lm = TrigramLm::train(&corpus());
        let ppl_ref = reference_perplexity(&lm, &corpus(), 100);
        (qa, lm, ppl_ref)
    }

    #[test]
    fn informative_evidence_scores_high_i() {
        let (qa, lm, ppl_ref) = scorer_parts();
        let table = IdTable::for_scoring(&qa, &lm);
        let mut ids = table.request();
        let s = EvidenceScorer::new(
            &qa,
            &lm,
            &mut ids,
            "Which team defeated the Panthers?",
            "Broncos",
            ppl_ref,
            (0.5, 0.2, 0.3),
        );
        let good = gced_text::analyze("The Broncos defeated the Panthers.");
        let bad = gced_text::analyze("The weather was mild and calm today.");
        let sg = s.score_doc(&good);
        let sb = s.score_doc(&bad);
        assert!(sg.informativeness > sb.informativeness);
        assert!(sg.hybrid > sb.hybrid);
    }

    #[test]
    fn conciseness_discards_evidence_not_longer_than_answer() {
        let (qa, lm, ppl_ref) = scorer_parts();
        let table = IdTable::for_scoring(&qa, &lm);
        let mut ids = table.request();
        let s = EvidenceScorer::new(
            &qa,
            &lm,
            &mut ids,
            "Who won?",
            "Denver Broncos",
            ppl_ref,
            (0.5, 0.2, 0.3),
        );
        let too_short = s.score_tokens(&["denver".into(), "broncos".into()]);
        assert_eq!(too_short.conciseness, f64::NEG_INFINITY);
        assert_eq!(too_short.hybrid, f64::NEG_INFINITY);
        let ok = s.score_tokens(&[
            "the".into(),
            "denver".into(),
            "broncos".into(),
            "won".into(),
        ]);
        assert!(ok.conciseness.is_finite());
        assert!(ok.hybrid.is_finite());
    }

    #[test]
    fn shorter_evidence_is_more_concise() {
        let (qa, lm, ppl_ref) = scorer_parts();
        let table = IdTable::for_scoring(&qa, &lm);
        let mut ids = table.request();
        let s = EvidenceScorer::new(
            &qa,
            &lm,
            &mut ids,
            "Who won?",
            "Broncos",
            ppl_ref,
            (0.5, 0.2, 0.3),
        );
        let short: Vec<String> = "the broncos won".split(' ').map(String::from).collect();
        let long: Vec<String> = "the broncos won the final game in the city of denver that year"
            .split(' ')
            .map(String::from)
            .collect();
        let ss = s.score_tokens(&short);
        let sl = s.score_tokens(&long);
        assert!(ss.conciseness > sl.conciseness);
        assert!(ss.conciseness_raw > sl.conciseness_raw);
    }

    #[test]
    fn fluent_evidence_is_more_readable() {
        let (qa, lm, ppl_ref) = scorer_parts();
        let table = IdTable::for_scoring(&qa, &lm);
        let mut ids = table.request();
        let s = EvidenceScorer::new(
            &qa,
            &lm,
            &mut ids,
            "Who won?",
            "Broncos",
            ppl_ref,
            (0.5, 0.2, 0.3),
        );
        let fluent: Vec<String> = "the broncos won the final game"
            .split(' ')
            .map(String::from)
            .collect();
        let garbled: Vec<String> = "game won final broncos the the"
            .split(' ')
            .map(String::from)
            .collect();
        let sf = s.score_tokens(&fluent);
        let sg = s.score_tokens(&garbled);
        assert!(sf.readability > sg.readability);
        assert!(sf.readability_raw > sg.readability_raw);
    }

    #[test]
    fn normalized_scores_in_unit_interval() {
        let (qa, lm, ppl_ref) = scorer_parts();
        let table = IdTable::for_scoring(&qa, &lm);
        let mut ids = table.request();
        let s = EvidenceScorer::new(
            &qa,
            &lm,
            &mut ids,
            "Who won?",
            "Broncos",
            ppl_ref,
            (0.5, 0.2, 0.3),
        );
        let sc = s.score_tokens(
            &"the broncos won the game"
                .split(' ')
                .map(String::from)
                .collect::<Vec<_>>(),
        );
        assert!((0.0..=1.0).contains(&sc.informativeness));
        assert!((0.0..=1.0).contains(&sc.conciseness));
        assert!((0.0..=1.0).contains(&sc.readability));
        assert!((0.0..=1.0).contains(&sc.hybrid), "H = {}", sc.hybrid);
    }

    #[test]
    fn normalization_preserves_raw_ordering() {
        let (qa, lm, ppl_ref) = scorer_parts();
        let table = IdTable::for_scoring(&qa, &lm);
        let mut ids = table.request();
        let s = EvidenceScorer::new(
            &qa,
            &lm,
            &mut ids,
            "Who won?",
            "Broncos",
            ppl_ref,
            (0.5, 0.2, 0.3),
        );
        let e1: Vec<String> = "the broncos won".split(' ').map(String::from).collect();
        let e2: Vec<String> = "the broncos won the final game in denver"
            .split(' ')
            .map(String::from)
            .collect();
        let s1 = s.score_tokens(&e1);
        let s2 = s.score_tokens(&e2);
        assert_eq!(
            s1.conciseness_raw > s2.conciseness_raw,
            s1.conciseness > s2.conciseness
        );
        assert_eq!(
            s1.readability_raw > s2.readability_raw,
            s1.readability > s2.readability
        );
    }

    #[test]
    fn reference_perplexity_is_positive_and_finite() {
        let lm = TrigramLm::train(&corpus());
        let r = reference_perplexity(&lm, &corpus(), 10);
        assert!(r.is_finite() && r > 0.0);
        assert_eq!(reference_perplexity(&lm, &[], 10), 50.0);
    }

    #[test]
    fn search_context_matches_one_shot_scoring_bitwise() {
        let (qa, lm, ppl_ref) = scorer_parts();
        let table = IdTable::for_scoring(&qa, &lm);
        let mut ids = table.request();
        let s = EvidenceScorer::new(
            &qa,
            &lm,
            &mut ids,
            "Which team defeated the Panthers?",
            "Broncos",
            ppl_ref,
            (0.5, 0.2, 0.3),
        );
        let aos = gced_text::analyze(
            "The Denver Broncos defeated the Carolina Panthers to earn the title. \
             The band played all night in the stadium.",
        );
        let base: Vec<usize> = (0..aos.len()).collect();
        let aos_ids = ids.intern(&aos);
        let mut ds = s.search_context(&aos, &aos_ids);
        ds.set_base(base.iter().copied());
        let mut scratch = ScoreScratch::default();
        // Try several removal sets, including empty and near-total.
        let removals: Vec<Vec<usize>> = vec![
            vec![],
            vec![0],
            vec![aos.len() - 1],
            vec![3, 4, 5],
            (6..aos.len()).collect(),
            vec![0, 2, 4, 6, 8, 10],
        ];
        for removed in removals {
            let remaining: BTreeSet<usize> = base
                .iter()
                .copied()
                .filter(|i| !removed.contains(i))
                .collect();
            let one_shot = s.score_selection(&aos, &remaining);
            let memo_before = ds.span_cache_stats();
            let incremental = ds.score_removal(&removed, &mut scratch);
            assert_eq!(
                ds.span_cache_stats(),
                memo_before,
                "removals bypass the memo"
            );
            assert_eq!(one_shot, incremental, "removal {removed:?}");
            // The grow search's memoized path over the same selection.
            let sel: Vec<usize> = remaining.iter().copied().collect();
            let through_cache = ds.informativeness_of(&sel);
            assert_eq!(
                one_shot.informativeness.to_bits(),
                through_cache.to_bits(),
                "cached removal {removed:?}"
            );
            // With no floor nothing is pruned: a surviving removal is
            // bitwise the full score, a discarded one is −∞.
            let competitive = ds
                .score_if_competitive(&removed, f64::NEG_INFINITY, &mut scratch)
                .expect("no floor prunes nothing");
            if one_shot.hybrid.is_finite() {
                assert_eq!(competitive, one_shot, "competitive removal {removed:?}");
            } else {
                assert_eq!(competitive.hybrid, f64::NEG_INFINITY, "{removed:?}");
            }
        }
        let (hits, misses) = ds.span_cache_stats();
        assert!(hits > 0, "repeated runs never replayed ({hits}/{misses})");
    }

    #[test]
    fn search_context_rebase_after_clip() {
        let (qa, lm, ppl_ref) = scorer_parts();
        let table = IdTable::for_scoring(&qa, &lm);
        let mut ids = table.request();
        let s = EvidenceScorer::new(
            &qa,
            &lm,
            &mut ids,
            "Who won?",
            "Broncos",
            ppl_ref,
            (0.5, 0.2, 0.3),
        );
        let aos = gced_text::analyze("The Broncos won the final game in Denver.");
        let aos_ids = ids.intern(&aos);
        let mut ds = s.search_context(&aos, &aos_ids);
        ds.set_base(0..aos.len());
        let mut scratch = ScoreScratch::default();
        let first = ds.score_removal(&[5, 6], &mut scratch);
        // Re-base onto the clipped evidence and verify parity again.
        let new_base: Vec<usize> = (0..aos.len()).filter(|i| ![5, 6].contains(i)).collect();
        ds.set_base(new_base.iter().copied());
        let rebased = ds.score_base(&mut scratch);
        assert_eq!(first, rebased);
    }

    #[test]
    fn informativeness_of_matches_one_shot_scoring() {
        let (qa, lm, ppl_ref) = scorer_parts();
        let table = IdTable::for_scoring(&qa, &lm);
        let mut ids = table.request();
        let s = EvidenceScorer::new(
            &qa,
            &lm,
            &mut ids,
            "Which team defeated the Panthers?",
            "Broncos",
            ppl_ref,
            (0.5, 0.2, 0.3),
        );
        let doc = gced_text::analyze(
            "The weather was mild. The Denver Broncos defeated the Carolina Panthers. \
             Tickets sold out early.",
        );
        let doc_ids = ids.intern(&doc);
        let mut ctx = s.search_context(&doc, &doc_ids);
        for sel in [
            (0..doc.len()).collect::<Vec<_>>(),
            doc.sentences
                .iter()
                .skip(1)
                .flat_map(|x| x.token_start..x.token_end)
                .collect(),
        ] {
            let set: BTreeSet<usize> = sel.iter().copied().collect();
            let one_shot = s.score_selection(&doc, &set);
            let inc = ctx.informativeness_of(&sel);
            assert_eq!(one_shot.informativeness.to_bits(), inc.to_bits());
        }
    }
}
