//! Answer-oriented Sentences Extractor (paper Sec. III-B, Fig. 4).
//!
//! Greedy minimal-subset search: repeatedly add the context sentence that
//! maximizes the QA model's answer-prediction F1 against the input
//! answer; stop at the first exact prediction. If no subset ever predicts
//! the answer exactly, the best-overlap subset seen is returned — the
//! paper's fallback ("the sentence subset with the maximum overlap").
//!
//! ## The incremental grow search
//!
//! [`extract`] runs the greedy loop on the shared evidence-search engine
//! ([`SearchContext`]), which makes three things incremental:
//!
//! * **trials are mask deltas** — adding sentence *s* to the selection
//!   splices one token run into a maintained index buffer (no
//!   `contains` scans, no clone-and-sort per trial), and the QA span
//!   scores of the already-selected sentences replay from the span-score
//!   cache instead of being recomputed;
//! * **membership is a bitset** — the per-round candidate filter is a
//!   word test, not an `O(selected)` scan;
//! * **an admissible F1 bound prunes trials** — a candidate sentence can
//!   never lift the trial's F1 above the best token-F1 any single
//!   candidate span of a member sentence achieves against the answer
//!   ([`sentence_f1_bounds`]), so once a round has a winner at F1 ≥ that
//!   bound the QA prediction is provably pointless and skipped — the
//!   grow-side mirror of the clip search's informativeness prune;
//! * **a trial's F1 is counted, not re-normalized** — the predicted
//!   span's F1 comes from its tokens' answer-word slots
//!   ([`crate::slots`]), so no trial builds prediction text.
//!
//! The search is **bit-identical** to the paper-literal formulation kept
//! in [`reference`] (same sentences, exact flag, best F1, and step log);
//! the cross-crate property suite pins that on randomized pipelines.

use crate::scoring::{Bitset, SearchContext};
use crate::slots::{AnswerSlots, AnswerWords};
use gced_text::{Document, SentId};

/// Outcome of the ASE search.
#[derive(Debug, Clone, PartialEq)]
pub struct AseResult {
    /// Selected sentence indices, ascending.
    pub sentences: Vec<usize>,
    /// True when the QA model reproduced the input answer exactly
    /// (F1 = 1 after normalization).
    pub exact: bool,
    /// Best prediction overlap achieved (Eq. 1 F1).
    pub best_f1: f64,
    /// Greedy trajectory: (sentence added, F1 after adding).
    pub steps: Vec<(usize, f64)>,
}

impl AseResult {
    fn empty() -> Self {
        AseResult {
            sentences: vec![],
            exact: false,
            best_f1: 0.0,
            steps: vec![],
        }
    }
}

/// Admissible upper bound on the answer F1 achievable by any trial
/// containing sentence `i`: the QA model predicts a candidate span of at
/// most [`MAX_SPAN`](gced_qa::model::MAX_SPAN) tokens inside one
/// sentence (or abstains, F1 = 0), and a span's F1 against the answer
/// depends only on its own tokens — so `max` over a sentence's spans
/// bounds what that sentence can contribute, and `max` over a trial's
/// member sentences bounds the trial. Answers that normalize to nothing
/// disable the bound (an abstention then scores F1 = 1).
///
/// Bit-identical to [`reference::sentence_f1_bounds`], which scores each
/// span with `token_f1` over its joined text. Here each span's common
/// words are counted over the tokens' answer-word slots
/// ([`crate::slots`]), with the joined-string path kept for spans
/// holding a glued `n't` or a non-ASCII token.
pub fn sentence_f1_bounds(doc: &Document, answer: &str) -> Vec<f64> {
    AnswerSlots::new(doc, &AnswerWords::new(answer)).sentence_bounds(doc, answer)
}

/// Run the greedy search over the engine's document. `max_sentences`
/// bounds the subset size (the minimum sentence subsets of the paper's
/// datasets are 1–3 sentences). Bit-identical to [`reference::extract`].
pub fn extract(ctx: &mut SearchContext<'_, '_>, max_sentences: usize) -> AseResult {
    let doc = ctx.doc();
    let n_sents = doc.sentences.len();
    if n_sents == 0 {
        return AseResult::empty();
    }
    let bounds = ctx.slots().sentence_bounds(doc, ctx.answer());
    let cap = max_sentences.max(1).min(n_sents);

    let mut member = Bitset::new(n_sents);
    // Selected sentences (ascending) with their concatenated token runs
    // and per-run prefix offsets — a trial splices one sentence run in.
    let mut sel_sents: Vec<usize> = Vec::new();
    let mut sel_tokens: Vec<usize> = Vec::new();
    let mut run_offsets: Vec<usize> = vec![0];
    let mut trial: Vec<usize> = Vec::new();

    let mut steps: Vec<(usize, f64)> = Vec::new();
    let mut best_subset: Vec<usize> = Vec::new();
    let mut best_f1 = f64::NEG_INFINITY;
    // Max admissible bound over the selected sentences.
    let mut sel_bound = f64::NEG_INFINITY;

    while sel_sents.len() < cap {
        let _round_span = gced_obs::span("grow.round");
        let mut round_best: Option<(usize, f64)> = None;
        let (mut trials, mut pruned) = (0u64, 0u64);
        for s in 0..n_sents {
            if member.contains(s) {
                continue;
            }
            if let Some((_, bf)) = round_best {
                // Admissible prune: the trial's F1 cannot exceed the max
                // member bound, and ties never replace the round winner.
                if sel_bound.max(bounds[s]) <= bf {
                    pruned += 1;
                    continue;
                }
            }
            let sent = &doc.sentences[s];
            let split = run_offsets[sel_sents.partition_point(|&x| x < s)];
            trial.clear();
            trial.extend_from_slice(&sel_tokens[..split]);
            trial.extend(sent.token_start..sent.token_end);
            trial.extend_from_slice(&sel_tokens[split..]);
            let f1 = {
                let _trial_span = gced_obs::span("grow.trial");
                ctx.informativeness_of(&trial)
            };
            trials += 1;
            match round_best {
                Some((_, bf)) if bf >= f1 => {}
                _ => round_best = Some((s, f1)),
            }
        }
        gced_obs::counter("trials", trials);
        gced_obs::counter("trials_pruned", pruned);
        let Some((chosen, f1)) = round_best else {
            break;
        };
        let sent = &doc.sentences[chosen];
        let k = sel_sents.partition_point(|&x| x < chosen);
        let split = run_offsets[k];
        sel_tokens.splice(split..split, sent.token_start..sent.token_end);
        sel_sents.insert(k, chosen);
        run_offsets.clear();
        run_offsets.push(0);
        let mut acc = 0;
        for &x in &sel_sents {
            acc += doc.sentences[x].len();
            run_offsets.push(acc);
        }
        member.insert(chosen);
        sel_bound = sel_bound.max(bounds[chosen]);
        steps.push((chosen, f1));
        if f1 > best_f1 {
            best_f1 = f1;
            best_subset = sel_sents.clone();
        }
        if f1 >= 1.0 - 1e-9 {
            return AseResult {
                sentences: sel_sents,
                exact: true,
                best_f1: 1.0,
                steps,
            };
        }
    }
    AseResult {
        sentences: best_subset,
        exact: false,
        best_f1,
        steps,
    }
}

/// Surface text of a sentence subset, in document order.
pub fn subset_text(doc: &Document, subset: &[usize]) -> String {
    let mut parts = Vec::with_capacity(subset.len());
    for &s in subset {
        parts.push(doc.sentence_text(SentId(s)));
    }
    parts.join(" ")
}

/// The paper-literal greedy sentence search kept as a verification
/// oracle: per-trial `contains` scans, clone-and-sort subset building,
/// and a full from-scratch QA prediction per trial. The optimized
/// [`extract`] must match it bit for bit (sentences, exact flag,
/// `best_f1`, step log); the cross-crate property suite asserts exactly
/// that on randomized pipelines.
#[doc(hidden)]
pub mod reference {
    use super::AseResult;
    use gced_metrics::overlap::{normalize_answer, token_f1};
    use gced_qa::model::MAX_SPAN;
    use gced_qa::{QaModel, QuestionAnalysis, SelectionScratch};
    use gced_text::{join_tokens, Document};

    /// Reference span-F1 bounds: `token_f1` on the joined text of every
    /// span that touches an answer word. See [`super::sentence_f1_bounds`].
    pub fn sentence_f1_bounds(doc: &Document, answer: &str) -> Vec<f64> {
        let n_sents = doc.sentences.len();
        let ans_norm = normalize_answer(answer);
        if ans_norm.is_empty() {
            return vec![1.0; n_sents];
        }
        let ans_set: std::collections::HashSet<&str> =
            ans_norm.iter().map(String::as_str).collect();
        // A span's normalized tokens are the union of its members' — except
        // across an "n't" glue join, which can merge two surface tokens into
        // one normalized token, so "n't" forces evaluation.
        let overlap: Vec<bool> = doc
            .tokens
            .iter()
            .map(|t| {
                normalize_answer(&t.text)
                    .iter()
                    .any(|w| ans_set.contains(w.as_str()))
                    || t.lower() == "n't"
            })
            .collect();
        let mut bounds = vec![0.0f64; n_sents];
        for (si, s) in doc.sentences.iter().enumerate() {
            if !(s.token_start..s.token_end).any(|i| overlap[i]) {
                continue; // no shared token ⇒ every span scores F1 = 0
            }
            let mut best = 0.0f64;
            for start in s.token_start..s.token_end {
                let hi = (start + MAX_SPAN).min(s.token_end);
                for end in (start + 1)..=hi {
                    if !(start..end).any(|i| overlap[i]) {
                        continue;
                    }
                    let f1 = token_f1(&join_tokens(&doc.tokens[start..end]), answer).f1;
                    if f1 > best {
                        best = f1;
                    }
                }
            }
            bounds[si] = best;
        }
        bounds
    }

    /// Reference ASE. See [`super::extract`].
    pub fn extract(
        qa: &QaModel,
        q: &QuestionAnalysis,
        question: &str,
        answer: &str,
        doc: &Document,
        max_sentences: usize,
    ) -> AseResult {
        let n_sents = doc.sentences.len();
        if n_sents == 0 {
            return AseResult::empty();
        }
        let mut scratch = SelectionScratch::default();
        let mut indices: Vec<usize> = Vec::new();
        let mut selected: Vec<usize> = Vec::new();
        let mut steps: Vec<(usize, f64)> = Vec::new();
        // The paper's fallback: the best-overlap subset actually seen by
        // the search (each round's winner is the max of its round).
        let mut best_subset: Vec<usize> = Vec::new();
        let mut best_f1 = f64::NEG_INFINITY;
        let cap = max_sentences.max(1).min(n_sents);
        while selected.len() < cap {
            let mut round_best: Option<(usize, f64)> = None;
            for s in 0..n_sents {
                if selected.contains(&s) {
                    continue;
                }
                let mut trial = selected.clone();
                trial.push(s);
                trial.sort_unstable();
                indices.clear();
                for &t in &trial {
                    let sent = &doc.sentences[t];
                    indices.extend(sent.token_start..sent.token_end);
                }
                let pred = qa.predict_selection(q, doc, &indices, question, &mut scratch);
                let f1 = token_f1(&pred.text, answer).f1;
                match round_best {
                    Some((_, bf)) if bf >= f1 => {}
                    _ => round_best = Some((s, f1)),
                }
            }
            let Some((chosen, f1)) = round_best else {
                break;
            };
            selected.push(chosen);
            selected.sort_unstable();
            steps.push((chosen, f1));
            if f1 > best_f1 {
                best_f1 = f1;
                best_subset = selected.clone();
            }
            if f1 >= 1.0 - 1e-9 {
                return AseResult {
                    sentences: selected,
                    exact: true,
                    best_f1: 1.0,
                    steps,
                };
            }
        }
        AseResult {
            sentences: best_subset,
            exact: false,
            best_f1,
            steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scoring::{reference_perplexity, EvidenceScorer};
    use gced_lm::TrigramLm;
    use gced_metrics::overlap::token_f1;
    use gced_qa::{ModelProfile, QaModel, QuestionAnalysis};
    use gced_text::analyze;
    use std::sync::OnceLock;

    /// A PLM trained once on a small synthetic split (ASE always runs
    /// with the trained model in the real pipeline).
    fn plm() -> &'static QaModel {
        static MODEL: OnceLock<QaModel> = OnceLock::new();
        MODEL.get_or_init(|| {
            let ds = gced_datasets::generate(
                gced_datasets::DatasetKind::Squad11,
                gced_datasets::GeneratorConfig {
                    train: 150,
                    dev: 16,
                    seed: 21,
                },
            );
            let mut qa = QaModel::new(ModelProfile::plm());
            qa.train(&ds.train.examples);
            qa
        })
    }

    fn lm() -> &'static TrigramLm {
        static LM: OnceLock<TrigramLm> = OnceLock::new();
        LM.get_or_init(|| {
            let corpus: Vec<Vec<String>> = ["the broncos defeated the panthers"]
                .iter()
                .map(|s| s.split(' ').map(String::from).collect())
                .collect();
            TrigramLm::train(&corpus)
        })
    }

    /// Run the optimized search through a throwaway engine, asserting
    /// bit-identity with the reference oracle on the way out.
    fn extract_checked(
        qa: &QaModel,
        question: &str,
        answer: &str,
        doc: &Document,
        cap: usize,
    ) -> AseResult {
        let lm = lm();
        let ppl_ref = reference_perplexity(lm, &[], 1);
        let table = crate::ids::IdTable::for_scoring(qa, lm);
        let mut ids = table.request();
        let scorer =
            EvidenceScorer::new(qa, lm, &mut ids, question, answer, ppl_ref, (0.5, 0.2, 0.3));
        let doc_ids = ids.intern(doc);
        let mut ctx = scorer.search_context(doc, &doc_ids);
        let fast = extract(&mut ctx, cap);
        let q = QuestionAnalysis::new(question);
        let oracle = reference::extract(qa, &q, question, answer, doc, cap);
        assert_eq!(fast.sentences, oracle.sentences, "sentences diverge");
        assert_eq!(fast.exact, oracle.exact, "exact flag diverges");
        assert_eq!(
            fast.best_f1.to_bits(),
            oracle.best_f1.to_bits(),
            "best_f1 diverges: {} vs {}",
            fast.best_f1,
            oracle.best_f1
        );
        assert_eq!(fast.steps.len(), oracle.steps.len(), "step count diverges");
        for (a, b) in fast.steps.iter().zip(&oracle.steps) {
            assert_eq!(a.0, b.0, "step sentence diverges");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "step F1 diverges");
        }
        fast
    }

    #[test]
    fn finds_the_answer_sentence() {
        let qa = plm();
        let question = "Which team defeated the Panthers?";
        let doc = analyze(
            "The weather was mild that week. The Denver Broncos defeated the Carolina Panthers. \
             Tickets sold out early.",
        );
        let r = extract_checked(qa, question, "Denver Broncos", &doc, 3);
        assert!(r.sentences.contains(&1), "selected {:?}", r.sentences);
        assert!(r.best_f1 > 0.9);
    }

    #[test]
    fn stops_at_first_exact_prediction() {
        let qa = plm();
        let question = "Which team defeated the Panthers?";
        let doc = analyze(
            "The Denver Broncos defeated the Carolina Panthers. The parade lasted two days.",
        );
        let r = extract_checked(qa, question, "Denver Broncos", &doc, 4);
        if r.exact {
            assert_eq!(
                r.sentences.len(),
                1,
                "exact stop should keep the subset minimal"
            );
        }
    }

    #[test]
    fn falls_back_to_best_overlap_when_unpredictable() {
        let qa = plm();
        let question = "Who composed the anthem?";
        let doc = analyze("The bridge was built in 1876. The river floods in spring.");
        let r = extract_checked(qa, question, "Johann Strauss", &doc, 2);
        assert!(!r.exact);
        assert!(!r.sentences.is_empty());
        assert_eq!(r.best_f1, 0.0);
    }

    #[test]
    fn all_zero_f1_fallback_is_the_first_round_winner() {
        // Regression for the degenerate `vec![0]` seed: with every
        // subset at F1 = 0 the returned fallback must be a subset the
        // search actually evaluated (the first round winner), not a
        // hardcoded sentence.
        let qa = plm();
        let question = "Who composed the anthem?";
        let doc =
            analyze("The bridge was built in 1876. The river floods in spring. Nothing else.");
        let r = extract_checked(qa, question, "Johann Strauss", &doc, 3);
        assert_eq!(r.best_f1, 0.0);
        assert_eq!(r.sentences.len(), 1, "fallback is one round-1 winner");
        assert_eq!(r.sentences, vec![r.steps[0].0]);
    }

    #[test]
    fn empty_document() {
        let qa = plm();
        let doc = analyze("");
        let r = extract_checked(qa, "Who?", "X", &doc, 3);
        assert!(r.sentences.is_empty());
        assert!(!r.exact);
        assert_eq!(r.best_f1, 0.0);
        assert!(r.steps.is_empty());
    }

    #[test]
    fn respects_sentence_cap() {
        let qa = plm();
        let question = "Which team defeated the Panthers?";
        let doc = analyze(
            "Rain fell. Wind blew. Clouds came. The Broncos defeated the Panthers. Snow fell.",
        );
        let r = extract_checked(qa, question, "Broncos", &doc, 2);
        assert!(r.sentences.len() <= 2);
    }

    #[test]
    fn subset_text_in_document_order() {
        let doc = analyze("First one. Second one. Third one.");
        assert_eq!(subset_text(&doc, &[0, 2]), "First one. Third one.");
    }

    #[test]
    fn deterministic() {
        let qa = plm();
        let question = "Which river flows through the city?";
        let doc = analyze("The Seine River flows through the center of Paris. Paris is large.");
        let a = extract_checked(qa, question, "Seine", &doc, 3);
        let b = extract_checked(qa, question, "Seine", &doc, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn matches_reference_on_randomized_documents() {
        // Many shapes: answer present/absent/split across sentences,
        // repeated sentences, single-sentence docs.
        let qa = plm();
        let sentences = [
            "The weather was mild that week.",
            "The Denver Broncos defeated the Carolina Panthers.",
            "Tickets sold out early.",
            "Denver is a large city.",
            "The Broncos celebrated the title.",
            "The parade lasted two days.",
            "Nothing happened on Tuesday.",
        ];
        let questions = [
            ("Which team defeated the Panthers?", "Denver Broncos"),
            ("Who won the title?", "the Broncos"),
            ("What lasted two days?", "parade"),
            ("Who composed the anthem?", "Johann Strauss"),
        ];
        let mut seed = 0x9e3779b97f4a7c15u64;
        for case in 0..24 {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let k = 1 + (seed >> 7) as usize % sentences.len();
            let mut text = String::new();
            for j in 0..k {
                let idx = ((seed >> (j * 5)) as usize).wrapping_add(case) % sentences.len();
                text.push_str(sentences[idx]);
                text.push(' ');
            }
            let doc = analyze(&text);
            let (question, answer) = questions[case % questions.len()];
            let cap = 1 + case % 4;
            extract_checked(qa, question, answer, &doc, cap);
        }
    }

    #[test]
    fn f1_bounds_are_admissible() {
        // Pruning soundness: no trial's F1 may exceed the max bound of
        // its member sentences — a pruned candidate can never beat the
        // round winner.
        let qa = plm();
        let question = "Which team defeated the Panthers?";
        let answer = "Denver Broncos";
        let q = QuestionAnalysis::new(question);
        let doc = analyze(
            "The weather was mild that week. The Denver Broncos defeated the Carolina \
             Panthers. Tickets sold out early. Denver is a large city.",
        );
        let bounds = sentence_f1_bounds(&doc, answer);
        let n = doc.sentences.len();
        let mut scratch = gced_qa::SelectionScratch::default();
        for mask in 1..(1usize << n) {
            let subset: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
            let indices: Vec<usize> = subset
                .iter()
                .flat_map(|&s| doc.sentences[s].token_start..doc.sentences[s].token_end)
                .collect();
            let pred = qa.predict_selection(&q, &doc, &indices, question, &mut scratch);
            let f1 = token_f1(&pred.text, answer).f1;
            let bound = subset
                .iter()
                .map(|&s| bounds[s])
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(
                f1 <= bound + 1e-15,
                "subset {subset:?}: F1 {f1} exceeds bound {bound}"
            );
        }
    }

    /// The fast bound against the joined-string oracle, bit for bit.
    fn assert_bounds_match(context: &str, answer: &str) {
        let doc = analyze(context);
        let fast = sentence_f1_bounds(&doc, answer);
        let oracle = reference::sentence_f1_bounds(&doc, answer);
        let bits = |b: &[f64]| b.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&fast),
            bits(&oracle),
            "{context:?} / {answer:?}: {fast:?} vs {oracle:?}"
        );
    }

    #[test]
    fn fast_bounds_match_reference_on_adversarial_text() {
        let contexts = [
            "The Broncos didn't lose. They won't stop. It isn't over, and DIDN'T end.",
            "Bob's team beat Ann's. The Broncos's title came (finally) at the [AFC] {final}.",
            "The the a an. A an the! . , ; : ( ) [ ] ...",
            "Don n't do n't. ( n't ) 's 's n't n't.",
            "ΟΔΟΣ'S ΟΔΟΣ ends here. Σ and σ and ς. Straße İstanbul café naïve Zoë.",
            "It weighs 3.14 kg, cost 1,000 dollars and 50% more. U.S. troops met Dr. Smith.",
            "He said \"stop.\" Then left?! Rock'n'roll Knowles-Carter sang -- loudly.",
            "Denver Broncos Denver Broncos Denver. Broncos broncos BRONCOS the Broncos.",
            "An apple and an Orange met a pear. Apple an pear. Orange the apple. Pear AN apple.",
        ];
        let answers = [
            "Denver Broncos",
            "the Broncos",
            "Broncos Broncos",
            "didn't",
            "did n't",
            "n't",
            "Bob's",
            "(AFC)",
            "the",
            "a an the",
            "!?",
            "",
            "ΟΔΟΣ",
            "Σ",
            "café naïve",
            "3.14",
            "50%",
            "U.S.",
            "stop",
            "rock n roll",
            "an orange",
            "apple pear",
        ];
        for context in contexts {
            for answer in answers {
                assert_bounds_match(context, answer);
            }
        }
    }

    #[test]
    fn fast_bounds_match_reference_on_every_dataset_kind() {
        for kind in gced_datasets::DatasetKind::all() {
            let ds = gced_datasets::generate(
                kind,
                gced_datasets::GeneratorConfig {
                    train: 1,
                    dev: 24,
                    seed: 9501,
                },
            );
            let examples = &ds.dev.examples;
            for (i, ex) in examples.iter().enumerate() {
                // Own answer (partial spans), and a neighbour's (mostly
                // absent words).
                assert_bounds_match(&ex.context, &ex.answer);
                assert_bounds_match(&ex.context, &examples[(i + 1) % examples.len()].answer);
            }
        }
    }

    #[test]
    fn empty_normalized_answer_disables_the_bound() {
        let doc = analyze("The bridge was built. The river floods.");
        let bounds = sentence_f1_bounds(&doc, "the");
        assert_eq!(bounds, vec![1.0, 1.0]);
    }
}
