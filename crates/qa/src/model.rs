//! The extractive span model: averaged-perceptron training, profile-
//! conditioned inference, and EM/F1 evaluation.

use crate::features::{
    base_features_with_coverage, clue_positions, clue_positions_into, for_each_candidate_span,
    span_features, wh_block, QuestionAnalysis, N_BASE, N_FEATURES,
};
use gced_datasets::QaExample;
use gced_metrics::overlap::{best_f1, exact_match, token_f1};
use gced_nn::kernels::fold_dot_f64;
use gced_text::{analyze, Document};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Maximum candidate span length in tokens (shared with the incremental
/// selection predictor and the grow search's admissible F1 bound, which
/// must enumerate the same span set).
pub const MAX_SPAN: usize = 6;

/// Inference-time behaviour of one baseline QA system (DESIGN.md S7).
///
/// `noise` perturbs span scores deterministically per (profile, question)
/// — emulating a weaker model making different mistakes than a stronger
/// one; `window` truncates long contexts — emulating encoder context
/// limits (BERT vs Longformer/BigBird).
#[derive(Debug, Clone)]
pub struct ModelProfile {
    /// Display name (matches the paper's tables).
    pub name: String,
    /// Score-noise amplitude (0 = oracle-quality inference).
    pub noise: f64,
    /// Context window in tokens; longer contexts are truncated.
    pub window: usize,
    /// Below this best-span score the model answers "no answer"
    /// (SQuAD-2.0 behaviour).
    pub no_answer_threshold: f64,
    /// Seed folded into the per-question noise hash.
    pub seed: u64,
    /// Perceptron epochs used when this profile is trained.
    pub epochs: usize,
}

impl ModelProfile {
    /// A clean, high-capacity profile — the internal "PLM" used by the
    /// GCED pipeline itself (large-RoBERTa in the paper).
    pub fn plm() -> Self {
        ModelProfile {
            name: "PLM".to_string(),
            noise: 0.0,
            window: 512,
            no_answer_threshold: f64::NEG_INFINITY,
            seed: 0,
            epochs: 4,
        }
    }
}

/// A model's answer for one question.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Answer text ("" = no answer).
    pub text: String,
    /// Score of the chosen span (NEG_INFINITY when abstaining on an
    /// empty candidate set).
    pub score: f64,
    /// Global token range of the span in the analysed context.
    pub span: Option<(usize, usize)>,
}

impl Prediction {
    pub(crate) fn none() -> Self {
        Prediction {
            text: String::new(),
            score: f64::NEG_INFINITY,
            span: None,
        }
    }
}

/// Reusable buffers for [`QaModel::predict_selection`]: the projected
/// document view and the clue-position list survive across calls, so the
/// clip search's candidate loop allocates nothing in steady state.
#[derive(Debug, Clone)]
pub struct SelectionScratch {
    view: Document,
    clues: Vec<usize>,
}

impl Default for SelectionScratch {
    fn default() -> Self {
        SelectionScratch {
            view: Document::empty(),
            clues: Vec::new(),
        }
    }
}

/// EM/F1 aggregates (percentages, as the paper reports them).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResult {
    pub em: f64,
    pub f1: f64,
    /// Number of evaluated examples.
    pub count: usize,
}

/// Feature-based extractive QA model.
#[derive(Debug, Clone)]
pub struct QaModel {
    profile: ModelProfile,
    weights: [f64; N_FEATURES],
    /// IDF table learned from the training contexts.
    pub(crate) idf: HashMap<String, f64>,
    /// No-answer threshold calibrated on unanswerable training examples
    /// (SQuAD-2.0); overrides the profile's when present.
    learned_threshold: Option<f64>,
    trained: bool,
}

impl QaModel {
    /// An untrained model with sensible prior weights (usable zero-shot;
    /// training sharpens it).
    pub fn new(profile: ModelProfile) -> Self {
        let mut weights = [0.0; N_FEATURES];
        // Priors on the shared block; the wh-type-crossed blocks start at
        // zero and are filled in by training.
        weights[1] = 1.0; // clue coverage of the sentence
        weights[2] = 2.0; // proximity to clue tokens
        weights[3] = 1.5; // answer-type match
        weights[4] = -1.0; // length penalty
        weights[5] = -2.0; // question-overlap penalty
        weights[6] = 0.5; // rarity
        weights[9] = 0.5; // clue just before the span
        weights[10] = 0.5; // clue just after the span
        weights[12] = 2.0; // subject question, span before relation verb
        weights[13] = 2.0; // object question, span after relation verb
        QaModel {
            profile,
            weights,
            idf: HashMap::new(),
            learned_threshold: None,
            trained: false,
        }
    }

    /// The profile this model runs under.
    pub fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// True once [`QaModel::train`] has run.
    pub fn is_trained(&self) -> bool {
        self.trained
    }

    /// The learned weight vector (diagnostics/tests).
    pub fn weights(&self) -> &[f64; N_FEATURES] {
        &self.weights
    }

    /// The learned IDF table, as `(word, idf)` pairs sorted by word —
    /// the serialization interchange form.
    pub fn idf_parts(&self) -> Vec<(String, f64)> {
        let mut v: Vec<(String, f64)> = self.idf.iter().map(|(w, &x)| (w.clone(), x)).collect();
        v.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// The calibrated no-answer threshold, if training learned one.
    pub fn learned_threshold(&self) -> Option<f64> {
        self.learned_threshold
    }

    /// Rebuild a trained model from its profile and learned state
    /// (weights, [`QaModel::idf_parts`], [`QaModel::learned_threshold`]).
    /// Predictions are bitwise-identical to the original model's: every
    /// score is a pure function of the restored state.
    pub fn from_parts(
        profile: ModelProfile,
        weights: [f64; N_FEATURES],
        idf: Vec<(String, f64)>,
        learned_threshold: Option<f64>,
        trained: bool,
    ) -> Self {
        QaModel {
            profile,
            weights,
            // gced-allow(DET001): consumes the Vec parameter into the idf HashMap — no map is iterated and no order leaves this constructor
            idf: idf.into_iter().collect(),
            learned_threshold,
            trained,
        }
    }

    /// Train with the averaged perceptron on (question, context, answer)
    /// triples. Unanswerable examples contribute to the IDF table only.
    /// Deterministic: fixed iteration order.
    pub fn train(&mut self, examples: &[QaExample]) {
        self.fit_idf(examples);
        let mut totals = [0.0f64; N_FEATURES];
        let mut steps = 0.0f64;
        // Pre-analyse contexts once.
        type Prepared = (Document, QuestionAnalysis, (usize, usize));
        let prepared: Vec<Option<Prepared>> = examples
            .iter()
            .map(|ex| {
                if !ex.answerable {
                    return None;
                }
                let doc = analyze(&ex.context);
                let q = QuestionAnalysis::new(&ex.question);
                gold_span(&doc, &ex.answer).map(|g| (doc, q, g))
            })
            .collect();
        for _ in 0..self.profile.epochs {
            for item in prepared.iter().flatten() {
                let (doc, q, gold) = item;
                let clues = clue_positions(doc, q);
                let pred = self.best_span(doc, q, &clues, None);
                if let Some((ps, pe)) = pred {
                    let pred_text = span_text(doc, ps, pe);
                    let gold_text = span_text(doc, gold.0, gold.1);
                    if token_f1(&pred_text, &gold_text).f1 < 1.0 {
                        let fg = span_features(doc, gold.0, gold.1, q, &clues, &self.idf);
                        let fp = span_features(doc, ps, pe, q, &clues, &self.idf);
                        for (w, (g, p)) in self.weights.iter_mut().zip(fg.iter().zip(&fp)) {
                            *w += g - p;
                        }
                    }
                }
                for (t, w) in totals.iter_mut().zip(&self.weights) {
                    *t += w;
                }
                steps += 1.0;
            }
        }
        if steps > 0.0 {
            for (w, t) in self.weights.iter_mut().zip(&totals) {
                *w = t / steps;
            }
        }
        self.trained = true;
        self.calibrate_threshold(examples);
    }

    /// Calibrate the no-answer threshold when the training data contains
    /// unanswerable questions (SQuAD-2.0): sweep candidate thresholds
    /// over the observed best-span scores of answerable vs unanswerable
    /// examples and keep the best separator.
    fn calibrate_threshold(&mut self, examples: &[QaExample]) {
        let unanswerable: Vec<&QaExample> = examples
            .iter()
            .filter(|e| !e.answerable)
            .take(200)
            .collect();
        if unanswerable.is_empty() {
            self.learned_threshold = None;
            return;
        }
        let answerable: Vec<&QaExample> =
            examples.iter().filter(|e| e.answerable).take(200).collect();
        // The calibrated quantity is question coverage — the fraction of
        // the question's content words present in the (window-truncated)
        // context. It is scale-free, so a threshold calibrated on raw
        // contexts transfers to short evidence contexts, unlike a raw
        // best-span score.
        let score_of = |ex: &QaExample| -> Option<f64> {
            let full = analyze(&ex.context);
            let doc = if full.len() > self.profile.window {
                truncate_doc(&full, self.profile.window)
            } else {
                full
            };
            let q = QuestionAnalysis::new(&ex.question);
            Some(question_coverage(&doc, &q))
        };
        let pos: Vec<f64> = answerable.iter().filter_map(|e| score_of(e)).collect();
        let neg: Vec<f64> = unanswerable.iter().filter_map(|e| score_of(e)).collect();
        if pos.is_empty() || neg.is_empty() {
            self.learned_threshold = None;
            return;
        }
        // Candidate thresholds: every observed score; pick the split
        // maximizing *balanced* accuracy (answerable usually outnumber
        // unanswerable ~2:1, and plain accuracy would sacrifice the
        // minority class — observed as a no-answer EM collapse).
        let mut candidates: Vec<f64> = pos.iter().chain(neg.iter()).copied().collect();
        candidates.sort_by(|a, b| a.partial_cmp(b).expect("scores are finite"));
        let mut best = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for &t in &candidates {
            let pos_ok = pos.iter().filter(|&&s| s >= t).count() as f64 / pos.len() as f64;
            let neg_ok = neg.iter().filter(|&&s| s < t).count() as f64 / neg.len() as f64;
            let balanced = pos_ok + neg_ok;
            if balanced > best.1 {
                best = (t, balanced);
            }
        }
        self.learned_threshold = Some(best.0);
    }

    /// The active no-answer threshold.
    pub(crate) fn threshold(&self) -> f64 {
        self.learned_threshold
            .unwrap_or(self.profile.no_answer_threshold)
    }

    fn fit_idf(&mut self, examples: &[QaExample]) {
        let mut df: HashMap<String, usize> = HashMap::new();
        let n = examples.len().max(1);
        for ex in examples {
            let doc = analyze(&ex.context);
            let uniq: std::collections::HashSet<String> =
                doc.tokens.iter().map(|t| t.lower()).collect();
            // gced-allow(DET001): commutative document-frequency counting — hash order feeds only `+1`s into a map, so no order can reach output
            for w in uniq {
                *df.entry(w).or_insert(0) += 1;
            }
        }
        self.idf = df
            // gced-allow(DET001): HashMap-to-HashMap rebuild — serialization order is imposed later by to_parts(), which sorts
            .into_iter()
            .map(|(w, c)| (w, ((n as f64 + 1.0) / (c as f64 + 1.0)).ln() + 1.0))
            .collect();
    }

    /// Predict an answer for (question, context).
    pub fn predict(&self, question: &str, context: &str) -> Prediction {
        let doc = analyze(context);
        let q = QuestionAnalysis::new(question);
        self.predict_analyzed(&q, &doc, question)
    }

    /// Predict over a pre-analysed context (ASE calls this in a loop).
    pub fn predict_analyzed(
        &self,
        q: &QuestionAnalysis,
        doc: &Document,
        question: &str,
    ) -> Prediction {
        // Window truncation: weaker encoders only see a prefix.
        let truncated;
        let doc = if doc.len() > self.profile.window {
            truncated = truncate_doc(doc, self.profile.window);
            &truncated
        } else {
            doc
        };
        let clues = clue_positions(doc, q);
        self.predict_prepared(q, doc, &clues, question)
    }

    /// Predict over a **selection** of a pre-analysed context: the
    /// evidence formed by `selected` (ascending token indices of `doc`),
    /// with zero re-tokenization — the clip search's inner loop.
    ///
    /// Equivalent to projecting the document onto the selection
    /// ([`Document::project_into`]) and running [`QaModel::predict_analyzed`],
    /// but all buffers live in `scratch`, so a caller evaluating many
    /// candidate selections performs no steady-state allocation.
    pub fn predict_selection(
        &self,
        q: &QuestionAnalysis,
        doc: &Document,
        selected: &[usize],
        question: &str,
        scratch: &mut SelectionScratch,
    ) -> Prediction {
        doc.project_into(selected, &mut scratch.view);
        let truncated;
        let view = if scratch.view.len() > self.profile.window {
            truncated = truncate_doc(&scratch.view, self.profile.window);
            &truncated
        } else {
            &scratch.view
        };
        clue_positions_into(view, q, &mut scratch.clues);
        self.predict_prepared(q, view, &scratch.clues, question)
    }

    /// Shared tail of the prediction paths: abstention check + argmax.
    fn predict_prepared(
        &self,
        q: &QuestionAnalysis,
        doc: &Document,
        clues: &[usize],
        question: &str,
    ) -> Prediction {
        let _span = gced_obs::span("qa.predict");
        let noise_key = self.noise_key(question);
        if question_coverage(doc, q) < self.threshold() {
            return Prediction::none();
        }
        match self.best_span_stats(doc, q, clues, noise_key) {
            Some(((s, e), score, _z)) => Prediction {
                text: span_text(doc, s, e),
                score,
                span: Some((s, e)),
            },
            None => Prediction::none(),
        }
    }

    fn noise_key(&self, question: &str) -> Option<u64> {
        if self.profile.noise == 0.0 {
            None
        } else {
            let mut h = DefaultHasher::new();
            self.profile.seed.hash(&mut h);
            question.hash(&mut h);
            Some(h.finish())
        }
    }

    /// Effective noise amplitude for a context of `tokens` tokens: a
    /// weak encoder's confusion grows with the number of distractor
    /// positions it must score, so the amplitude scales with the square
    /// root of context size (reference point: 120 tokens). This is the
    /// mechanism by which short, dense evidences genuinely help weaker
    /// models — the effect Tables VI/VII measure.
    fn effective_noise(&self, tokens: usize) -> f64 {
        self.profile.noise * ((tokens as f64 / 120.0).sqrt()).min(2.0)
    }

    fn best_span(
        &self,
        doc: &Document,
        q: &QuestionAnalysis,
        clues: &[usize],
        noise_key: Option<u64>,
    ) -> Option<(usize, usize)> {
        self.best_span_stats(doc, q, clues, noise_key)
            .map(|(span, _, _)| span)
    }

    /// Best span plus its score and its z-score against the context's
    /// full candidate-score distribution. The z-score is the abstention
    /// signal: in an answerable context the best span is an outlier; in
    /// an unanswerable one it sits near the bulk. Unlike a raw score
    /// threshold, this transfers between raw contexts and short
    /// evidences (their score scales differ wildly).
    fn best_span_stats(
        &self,
        doc: &Document,
        q: &QuestionAnalysis,
        clues: &[usize],
        noise_key: Option<u64>,
    ) -> Option<((usize, usize), f64, f64)> {
        let mut best: Option<((usize, usize), f64)> = None;
        let mut sum = 0.0f64;
        let mut sum2 = 0.0f64;
        let mut n = 0usize;
        // The sentence clue-coverage feature is span-independent;
        // computing it per sentence instead of per span removes the
        // dominant per-span cost (a lemma-set scan of the sentence).
        let coverage: Vec<f64> = (0..doc.sentences.len())
            .map(|s| crate::features::sentence_clue_coverage(doc, s, q))
            .collect();
        for_each_candidate_span(doc, MAX_SPAN, |s, e| {
            let score =
                self.score_span(doc, q, clues, s, e, noise_key, coverage[doc.tokens[s].sent]);
            sum += score;
            sum2 += score * score;
            n += 1;
            match best {
                Some((_, b)) if b >= score => {}
                _ => best = Some(((s, e), score)),
            }
        });
        let (span, score) = best?;
        let mean = sum / n as f64;
        let var = (sum2 / n as f64 - mean * mean).max(0.0);
        let std = var.sqrt();
        let z = if std > 1e-9 {
            (score - mean) / std
        } else {
            0.0
        };
        Some((span, score, z))
    }

    #[allow(clippy::too_many_arguments)]
    fn score_span(
        &self,
        doc: &Document,
        q: &QuestionAnalysis,
        clues: &[usize],
        s: usize,
        e: usize,
        noise_key: Option<u64>,
        sentence_coverage: f64,
    ) -> f64 {
        // The crossed feature vector is the 14 base features in block 0
        // plus a copy in the wh-type block and zeros elsewhere, so the
        // dot product needs only the two non-zero blocks — no N_FEATURES
        // allocation per span.
        let f = base_features_with_coverage(doc, s, e, q, clues, &self.idf, sentence_coverage);
        let off = wh_block(q.wh) * N_BASE;
        let score = fold_dot_f64(0.0, &f, &self.weights[..N_BASE]);
        let mut score = fold_dot_f64(score, &f, &self.weights[off..off + N_BASE]);
        if let Some(key) = noise_key {
            // Deterministic per-(profile, question, span) perturbation.
            let mut h = DefaultHasher::new();
            key.hash(&mut h);
            s.hash(&mut h);
            e.hash(&mut h);
            let u = (h.finish() % 10_000) as f64 / 10_000.0; // [0,1)
            score += (u * 2.0 - 1.0) * self.effective_noise(doc.len());
        }
        score
    }

    /// Evaluate EM/F1 (percentages) over a set of examples, using alias
    /// sets where present and the empty answer for unanswerables.
    pub fn evaluate(&self, examples: &[QaExample]) -> EvalResult {
        let mut em = 0.0;
        let mut f1 = 0.0;
        for ex in examples {
            let pred = self.predict(&ex.question, &ex.context);
            if ex.answerable {
                let refs: Vec<&str> = ex.aliases.iter().map(String::as_str).collect();
                em += refs.iter().any(|r| exact_match(&pred.text, r)) as u8 as f64;
                f1 += best_f1(&pred.text, refs.iter().copied()).f1;
            } else {
                let correct = pred.text.is_empty();
                em += correct as u8 as f64;
                f1 += correct as u8 as f64;
            }
        }
        let n = examples.len().max(1) as f64;
        EvalResult {
            em: 100.0 * em / n,
            f1: 100.0 * f1 / n,
            count: examples.len(),
        }
    }
}

/// Fraction of the question's distinct content lemmas present in the
/// context (1.0 when the question has no content words). The abstention
/// signal for unanswerable questions: SQuAD-2.0 negatives ask about
/// entities the context never mentions.
fn question_coverage(doc: &Document, q: &QuestionAnalysis) -> f64 {
    let total = q.content_lemmas().len();
    if total == 0 {
        return 1.0;
    }
    let present: std::collections::HashSet<&str> = doc
        .tokens
        .iter()
        .filter(|t| q.matches(&t.lower_cow(), &t.lemma))
        .map(|t| t.lemma.as_str())
        .collect();
    // Cap at the lemma count (surface/lemma matching can over-count).
    present.len().min(total) as f64 / total as f64
}

/// First token range of `answer` inside the analysed context.
pub fn gold_span(doc: &Document, answer: &str) -> Option<(usize, usize)> {
    gold_span_of(doc, &analyze(answer))
}

/// [`gold_span`] of an already analysed answer: the first run of context
/// tokens whose lowercased forms equal the answer's.
pub fn gold_span_of(doc: &Document, answer: &Document) -> Option<(usize, usize)> {
    if answer.is_empty() {
        return None;
    }
    let ans_lower: Vec<String> = answer.tokens.iter().map(|t| t.lower()).collect();
    let n = ans_lower.len();
    (0..doc.tokens.len().saturating_sub(n - 1))
        .find(|&i| {
            doc.tokens[i..i + n]
                .iter()
                .zip(&ans_lower)
                .all(|(t, a)| *t.lower_cow() == **a)
        })
        .map(|i| (i, i + n))
}

/// Surface text of a token range.
pub fn span_text(doc: &Document, s: usize, e: usize) -> String {
    gced_text::join_tokens(&doc.tokens[s..e])
}

/// Truncate an analysed document to its first `window` tokens, keeping
/// sentence structure consistent.
fn truncate_doc(doc: &Document, window: usize) -> Document {
    let tokens: Vec<_> = doc.tokens.iter().take(window).cloned().collect();
    let sentences: Vec<_> = doc
        .sentences
        .iter()
        .filter(|s| s.token_start < window)
        .map(|s| {
            let mut s = *s;
            s.token_end = s.token_end.min(window);
            s
        })
        .collect();
    Document {
        text: doc.text.clone(),
        tokens,
        sentences,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gced_datasets::{generate, DatasetKind, GeneratorConfig};

    fn tiny_dataset() -> gced_datasets::Dataset {
        generate(
            DatasetKind::Squad11,
            GeneratorConfig {
                train: 120,
                dev: 60,
                seed: 3,
            },
        )
    }

    #[test]
    fn gold_span_finds_answers() {
        let doc = analyze("The Denver Broncos defeated the Carolina Panthers.");
        let g = gold_span(&doc, "Denver Broncos").unwrap();
        assert_eq!(span_text(&doc, g.0, g.1), "Denver Broncos");
        assert!(gold_span(&doc, "Seattle Seahawks").is_none());
        assert!(gold_span(&doc, "").is_none());
    }

    #[test]
    fn gold_span_is_case_insensitive() {
        let doc = analyze("She discovered radium in 1898.");
        assert!(gold_span(&doc, "Radium").is_some());
    }

    #[test]
    fn untrained_model_answers_obvious_questions() {
        let model = QaModel::new(ModelProfile::plm());
        let pred = model.predict(
            "Which team defeated the Panthers?",
            "The Denver Broncos defeated the Carolina Panthers to earn the title.",
        );
        assert!(
            pred.text.contains("Broncos") || pred.text.contains("Denver"),
            "got {:?}",
            pred.text
        );
    }

    #[test]
    fn training_improves_or_matches_em() {
        let ds = tiny_dataset();
        let mut trained = QaModel::new(ModelProfile::plm());
        let untrained = trained.clone();
        trained.train(&ds.train.examples);
        let e_untrained = untrained.evaluate(&ds.dev.examples);
        let e_trained = trained.evaluate(&ds.dev.examples);
        assert!(
            e_trained.f1 >= e_untrained.f1 - 1.0,
            "training hurt: {} -> {}",
            e_untrained.f1,
            e_trained.f1
        );
        assert!(trained.is_trained());
    }

    #[test]
    fn trained_plm_is_accurate_on_synthetic_squad() {
        let ds = tiny_dataset();
        let mut model = QaModel::new(ModelProfile::plm());
        model.train(&ds.train.examples);
        let e = model.evaluate(&ds.dev.examples);
        assert!(e.em > 55.0, "EM too low: {}", e.em);
        assert!(e.f1 > 65.0, "F1 too low: {}", e.f1);
    }

    #[test]
    fn noise_degrades_accuracy() {
        let ds = tiny_dataset();
        let mut clean = QaModel::new(ModelProfile::plm());
        clean.train(&ds.train.examples);
        let mut noisy_profile = ModelProfile::plm();
        noisy_profile.noise = 3.0;
        noisy_profile.seed = 11;
        let mut noisy = QaModel::new(noisy_profile);
        noisy.train(&ds.train.examples);
        let e_clean = clean.evaluate(&ds.dev.examples);
        let e_noisy = noisy.evaluate(&ds.dev.examples);
        assert!(
            e_noisy.em < e_clean.em,
            "noise did not degrade: {} vs {}",
            e_noisy.em,
            e_clean.em
        );
    }

    #[test]
    fn window_truncation_degrades_on_long_contexts() {
        let ds = generate(
            DatasetKind::TriviaWeb,
            GeneratorConfig {
                train: 100,
                dev: 60,
                seed: 5,
            },
        );
        let mut wide = QaModel::new(ModelProfile::plm());
        wide.train(&ds.train.examples);
        let mut narrow_profile = ModelProfile::plm();
        narrow_profile.window = 30;
        let mut narrow = QaModel::new(narrow_profile);
        narrow.train(&ds.train.examples);
        let e_wide = wide.evaluate(&ds.dev.examples);
        let e_narrow = narrow.evaluate(&ds.dev.examples);
        assert!(
            e_narrow.f1 < e_wide.f1,
            "truncation did not degrade: {} vs {}",
            e_narrow.f1,
            e_wide.f1
        );
    }

    #[test]
    fn parts_roundtrip_predicts_bitwise_identically() {
        let ds = tiny_dataset();
        let mut model = QaModel::new(ModelProfile::plm());
        model.train(&ds.train.examples);
        let parts = model.idf_parts();
        assert_eq!(parts, model.idf_parts(), "interchange form must be stable");
        let back = QaModel::from_parts(
            model.profile().clone(),
            *model.weights(),
            parts,
            model.learned_threshold(),
            model.is_trained(),
        );
        assert!(back.is_trained());
        for ex in ds.dev.examples.iter().take(12) {
            let a = model.predict(&ex.question, &ex.context);
            let b = back.predict(&ex.question, &ex.context);
            assert_eq!(a.text, b.text, "{}", ex.id);
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "{}", ex.id);
        }
    }

    #[test]
    fn predictions_are_deterministic() {
        let model = QaModel::new(ModelProfile {
            noise: 0.5,
            seed: 7,
            ..ModelProfile::plm()
        });
        let p1 = model.predict("Who won?", "The Broncos won the title in Denver.");
        let p2 = model.predict("Who won?", "The Broncos won the title in Denver.");
        assert_eq!(p1, p2);
    }

    #[test]
    fn empty_context_abstains() {
        let model = QaModel::new(ModelProfile::plm());
        let p = model.predict("Who won?", "");
        assert!(p.text.is_empty());
        assert!(p.span.is_none());
    }

    #[test]
    fn no_answer_threshold_abstains() {
        let mut profile = ModelProfile::plm();
        profile.no_answer_threshold = f64::INFINITY;
        let model = QaModel::new(profile);
        let p = model.predict("Who won?", "The Broncos won the game.");
        assert!(p.text.is_empty());
    }

    #[test]
    fn evaluate_counts_unanswerable() {
        let ex = QaExample {
            id: "t".into(),
            question: "Who won the cup?".into(),
            context: "The weather was mild all week.".into(),
            answer: String::new(),
            aliases: vec![],
            answerable: false,
            domain: gced_datasets::Domain::Sports,
        };
        // A model with an infinite threshold always abstains => correct.
        let mut profile = ModelProfile::plm();
        profile.no_answer_threshold = f64::INFINITY;
        let model = QaModel::new(profile);
        let e = model.evaluate(std::slice::from_ref(&ex));
        assert_eq!(e.em, 100.0);
    }
}
