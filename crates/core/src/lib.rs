//! # gced — Grow-and-Clip Evidence Distillation
//!
//! The core library of this reproduction: the five-module pipeline of
//! the ICDE 2022 paper *Grow-and-Clip: Informative-yet-Concise Evidence
//! Distillation for Answer Explanation* (Chen, Xiao, Liu).
//!
//! ```text
//! (question, answer, context)
//!        │
//!        ▼
//!   ASE — Answer-oriented Sentences Extractor      (Sec. III-B)
//!        ▼
//!   QWS — Question-relevant Words Selector         (Sec. III-C)
//!        ▼
//!   WSPTC — Weighted Syntactic Parsing Tree        (Sec. III-D)
//!        ▼
//!   EFC — Evidence Forest Constructor              (Sec. III-E)
//!        ▼
//!   OEC — Optimal Evidence Distiller (SGS + SCS)   (Sec. III-F)
//!        ▼
//!   informative-yet-concise, readable evidence
//! ```
//!
//! The pipeline object [`Gced`] owns every substrate: the trained PLM
//! substitute (`gced-qa`), the lexicon (`gced-lexicon`), the L-PCFG
//! parser (`gced-parser`), the attention layer (`gced-nn`) and the
//! corpus language model (`gced-lm`). [`Gced::fit`] trains/fits them on
//! a dataset; [`Gced::distill`] produces one evidence with a full trace.
//!
//! ```no_run
//! use gced_datasets::{generate, DatasetKind, GeneratorConfig};
//! use gced::{Gced, GcedConfig};
//!
//! let ds = generate(DatasetKind::Squad11, GeneratorConfig::tiny(42));
//! let gced = Gced::fit(&ds, GcedConfig::default());
//! let ex = &ds.dev.examples[0];
//! let d = gced.distill(&ex.question, &ex.answer, &ex.context).unwrap();
//! println!("evidence: {}", d.evidence);
//! ```

pub mod ase;
pub mod cache;
pub mod config;
pub mod efc;
pub mod ids;
pub mod oec;
pub mod qws;
pub mod scoring;
mod slots;
pub mod trace;
pub mod wsptc;

pub use config::{Ablation, ClipMode, GcedConfig};
pub use scoring::{EvidenceScorer, EvidenceScores};
pub use trace::DistillTrace;

use gced_datasets::Dataset;
use gced_lexicon::Lexicon;
use gced_lm::TrigramLm;
use gced_nn::{AttentionConfig, EmbeddingTable, MultiHeadAttention};
use gced_parser::CkyParser;
use gced_qa::{ModelProfile, QaModel};
use gced_text::{analyze, join_tokens, Document};
use ids::{DocIds, IdTable, RequestIds};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Distillation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistillError {
    /// The input answer is empty (nothing to explain).
    EmptyAnswer,
    /// The context contains no tokens.
    EmptyContext,
}

impl fmt::Display for DistillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistillError::EmptyAnswer => write!(f, "input answer is empty"),
            DistillError::EmptyContext => write!(f, "context contains no tokens"),
        }
    }
}

impl std::error::Error for DistillError {}

/// One distilled evidence plus its quality scores and trace.
#[derive(Debug, Clone)]
pub struct Distillation {
    /// The final evidence text (nodes of the clipped evidence tree,
    /// rearranged by token index — Sec. III-F).
    pub evidence: String,
    /// The evidence tokens (surface forms, in order).
    pub evidence_tokens: Vec<String>,
    /// Scores of the final evidence (Eqs. 1–5).
    pub scores: EvidenceScores,
    /// The answer-oriented sentences the evidence was distilled from.
    pub aos_text: String,
    /// Fraction of context words removed (the paper reports 78.5 % on
    /// SQuAD / 87.2 % on TriviaQA).
    pub word_reduction: f64,
    /// Full decision trace.
    pub trace: DistillTrace,
}

/// Per-call knobs of the distillation paths (not part of the public
/// configuration: semantics are identical on every path).
#[derive(Debug, Clone, Copy, Default)]
struct DistillOpts {
    /// Run the clip search through the reference oracle.
    reference_clip: bool,
    /// Run the grow search (ASE) through the reference oracle, analyse
    /// its sentences afresh rather than projecting them, and run answer
    /// location, QWS and the WSPTC embedding on token strings rather
    /// than interned ids.
    reference_ase: bool,
}

/// Embedding/attention model width (fixed across the pipeline).
const D_MODEL: usize = 64;

/// The GCED pipeline with all fitted substrates.
#[derive(Clone)]
pub struct Gced {
    config: GcedConfig,
    qa: QaModel,
    lexicon: Lexicon,
    parser: CkyParser,
    attention: MultiHeadAttention,
    embeddings: EmbeddingTable,
    lm: TrigramLm,
    ppl_ref: f64,
    /// Every fitted word interned once (derived from the parts above).
    ids: Arc<IdTable>,
}

impl Gced {
    /// Fit every substrate on a dataset: train the PLM substitute on the
    /// training split, train the trigram LM and fit embeddings on the
    /// corpus, and freeze the attention layer from the config seed.
    pub fn fit(dataset: &Dataset, config: GcedConfig) -> Self {
        let corpus = dataset.corpus_sentences();
        Self::fit_with_corpus(&dataset.train.examples, &corpus, config)
    }

    /// [`Gced::fit`] from explicit parts (used by experiments that train
    /// on modified splits).
    pub fn fit_with_corpus(
        train: &[gced_datasets::QaExample],
        corpus: &[Vec<String>],
        config: GcedConfig,
    ) -> Self {
        let mut qa = QaModel::new(ModelProfile::plm());
        qa.train(train);
        let lm = TrigramLm::train(corpus);
        let ppl_ref = scoring::reference_perplexity(&lm, corpus, 512);
        let mut embeddings = EmbeddingTable::new(D_MODEL, config.seed);
        // Fit embeddings on a bounded corpus sample (distributional
        // signal saturates quickly on the synthetic corpora).
        let sample: Vec<Vec<String>> = corpus.iter().take(1500).cloned().collect();
        embeddings.fit(&sample, 2, 2, 0.25);
        Self::assemble(config, qa, lm, embeddings, ppl_ref)
    }

    /// Assemble a pipeline from its fitted substrates plus the cheap
    /// seeded/embedded ones (lexicon, parser, attention). Shared by
    /// [`Gced::fit_with_corpus`] and the fit-cache decoder
    /// ([`cache`]), so a cached pipeline is built exactly like a fresh
    /// one.
    pub(crate) fn assemble(
        config: GcedConfig,
        qa: QaModel,
        lm: TrigramLm,
        embeddings: EmbeddingTable,
        ppl_ref: f64,
    ) -> Self {
        let attn_cfg = AttentionConfig {
            d_model: D_MODEL,
            heads: 16,
            d_k: 64,
            seed: config.seed,
            positional_weight: 0.35,
        };
        let lexicon = Lexicon::embedded();
        let ids = Arc::new(IdTable::build(&qa, &lm, &embeddings, &lexicon));
        Gced {
            config,
            qa,
            lexicon,
            parser: CkyParser::embedded(),
            attention: MultiHeadAttention::new(attn_cfg),
            embeddings,
            lm,
            ppl_ref,
            ids,
        }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &GcedConfig {
        &self.config
    }

    /// Replace the configuration (ablation sweeps reuse fitted substrates).
    pub fn with_config(mut self, config: GcedConfig) -> Self {
        self.config = config;
        self
    }

    /// Memoize per-sentence CKY parses in a bounded LRU of `capacity`
    /// POS-tag signatures (`0` disables). Long-lived servers enable
    /// this so repeated sentences across requests parse once; output is
    /// bit-identical with the cache cold, warm, or absent
    /// ([`gced_parser::ParseCache`]).
    pub fn with_parse_cache(mut self, capacity: usize) -> Self {
        self.parser = self.parser.with_parse_cache(capacity);
        self
    }

    /// Hit/miss/occupancy counters of the parse cache, if one is
    /// installed via [`Gced::with_parse_cache`].
    pub fn parse_cache_stats(&self) -> Option<gced_parser::ParseCacheStats> {
        self.parser.parse_cache_stats()
    }

    /// Pre-fill the parse cache by analysing and parsing `context`
    /// through the exact per-sentence path a distillation uses, so a
    /// long-lived server's first requests hit a warm cache. Returns the
    /// number of sentences parsed; a no-op (0) without a parse cache.
    pub fn warm_parse_cache(&self, context: &str) -> usize {
        if self.parse_cache_stats().is_none() {
            return 0;
        }
        let doc = analyze(context);
        if doc.is_empty() {
            return 0;
        }
        let _ = gced_parser::parse_document_with(&doc, &self.parser);
        doc.sentences.len()
    }

    /// The fitted id table every distillation analyses against.
    pub fn id_table(&self) -> &IdTable {
        &self.ids
    }

    /// The internal PLM-substitute QA model.
    pub fn qa_model(&self) -> &QaModel {
        &self.qa
    }

    /// The corpus language model.
    pub fn lm(&self) -> &TrigramLm {
        &self.lm
    }

    /// Distill an evidence for (question, answer, context) —
    /// the paper's e_i for the tuple (q_i, a_i, c_i).
    pub fn distill(
        &self,
        question: &str,
        answer: &str,
        context: &str,
    ) -> Result<Distillation, DistillError> {
        self.distill_opts(question, answer, context, DistillOpts::default())
    }

    /// [`Gced::distill`] running the clip search through the paper-
    /// literal reference formulation ([`oec::reference::clip`]) instead
    /// of the incremental engine. Exposed for the oracle-equivalence
    /// property tests; the two paths must produce identical output.
    #[doc(hidden)]
    pub fn distill_with_reference_clip(
        &self,
        question: &str,
        answer: &str,
        context: &str,
    ) -> Result<Distillation, DistillError> {
        let opts = DistillOpts {
            reference_clip: true,
            ..DistillOpts::default()
        };
        self.distill_opts(question, answer, context, opts)
    }

    /// [`Gced::distill`] running **both** search phases through their
    /// paper-literal reference formulations ([`ase::reference::extract`]
    /// and [`oec::reference::clip`]) instead of the shared incremental
    /// engine, and analysing the answer-oriented sentences afresh instead
    /// of projecting them. Exposed for the oracle-equivalence property
    /// tests; the two paths must produce identical output.
    #[doc(hidden)]
    pub fn distill_with_reference_search(
        &self,
        question: &str,
        answer: &str,
        context: &str,
    ) -> Result<Distillation, DistillError> {
        let opts = DistillOpts {
            reference_clip: true,
            reference_ase: true,
        };
        self.distill_opts(question, answer, context, opts)
    }

    fn distill_opts(
        &self,
        question: &str,
        answer: &str,
        context: &str,
        opts: DistillOpts,
    ) -> Result<Distillation, DistillError> {
        if answer.trim().is_empty() {
            return Err(DistillError::EmptyAnswer);
        }
        // One id space per request: every document below is interned
        // into it once, and the stages look words up by id.
        let mut ids = self.ids.request();
        let (ctx_doc, ctx_ids) = {
            let _s = gced_obs::span("analyze");
            ids.analyze(context)
        };
        if ctx_doc.is_empty() {
            return Err(DistillError::EmptyContext);
        }
        let mut trace = DistillTrace::default();
        let weights = self.config.effective_weights();
        let scorer = EvidenceScorer::new(
            &self.qa,
            &self.lm,
            &mut ids,
            question,
            answer,
            self.ppl_ref,
            weights,
        );

        // ---- ASE (grow phase of the shared search engine) ---------------
        // The AOS document is projected from the context's analysis; a
        // subset whose re-joined text would analyse differently, and the
        // reference path, analyse the AOS text afresh. Without ASE the
        // AOS is the context itself.
        let (aos_text, aos_doc) = if self.config.ablation.use_ase {
            let _grow_span = gced_obs::span("grow");
            let r = if opts.reference_ase {
                ase::reference::extract(
                    &self.qa,
                    scorer.question_analysis(),
                    question,
                    answer,
                    &ctx_doc,
                    self.config.max_ase_sentences,
                )
            } else {
                let mut grow = scorer.search_context(&ctx_doc, &ctx_ids);
                let r = ase::extract(&mut grow, self.config.max_ase_sentences);
                let (hits, misses) = grow.span_cache_stats();
                gced_obs::counter("span_cache_hits", hits);
                gced_obs::counter("span_cache_misses", misses);
                r
            };
            let text = ase::subset_text(&ctx_doc, &r.sentences);
            let projected = if opts.reference_ase {
                None
            } else {
                ctx_doc
                    .project_sentences(&r.sentences, &text)
                    .map(|doc| (doc, ctx_ids.project_sentences(&ctx_doc, &r.sentences)))
            };
            let (doc, doc_ids) = projected.unwrap_or_else(|| {
                let _s = gced_obs::span("analyze");
                ids.analyze(&text)
            });
            trace.ase = Some(r);
            (text, Some((doc, doc_ids)))
        } else {
            (context.to_string(), None)
        };
        let (aos, aos_ids) = match &aos_doc {
            Some((doc, doc_ids)) => (doc, doc_ids),
            None => (&ctx_doc, &ctx_ids),
        };
        if aos.is_empty() {
            return Err(DistillError::EmptyContext);
        }

        // ---- answer tokens in the AOS -------------------------------------
        let answer_tokens = if opts.reference_ase {
            reference::locate_answer(aos, answer)
        } else {
            locate_answer(&mut ids, aos_ids, answer)
        };
        trace.answer_words = answer_tokens
            .iter()
            .map(|&i| aos.tokens[i].text.to_string())
            .collect();

        // ---- QWS -----------------------------------------------------------
        let clue_tokens = if self.config.ablation.use_qws {
            let r = if opts.reference_ase {
                qws::reference::select(&self.lexicon, scorer.question_doc().0, aos, &answer_tokens)
            } else {
                qws::select(
                    &self.ids,
                    scorer.question_doc(),
                    (aos, aos_ids),
                    &answer_tokens,
                )
            };
            trace.significant_words = r.significant_words;
            trace.clue_words = r
                .clue_tokens
                .iter()
                .map(|&i| aos.tokens[i].text.to_string())
                .collect();
            r.clue_tokens
        } else {
            Vec::new()
        };

        // ---- WSPTC ----------------------------------------------------------
        let mut wt = {
            let _s = gced_obs::span("wsptc");
            if opts.reference_ase {
                wsptc::construct(&self.parser, &self.attention, &self.embeddings, aos)
            } else {
                wsptc::construct_with_ids(
                    &self.parser,
                    &self.attention,
                    &self.embeddings,
                    &self.ids,
                    aos,
                    &aos_ids.lower,
                )
            }
        };

        // ---- EFC ------------------------------------------------------------
        let forest = efc::construct(&wt.tree, &clue_tokens, &answer_tokens);
        trace.forest_size = forest.len();
        if forest.is_empty() {
            // No clue and no answer tokens: fall back to the first AOS
            // sentence as the evidence (failure injection path).
            trace.fallback = true;
            let first: BTreeSet<usize> = aos
                .sentences
                .first()
                .map(|s| (s.token_start..s.token_end).collect())
                .unwrap_or_default();
            return Ok(self.finish(aos, &aos_text, &ctx_doc, first, &scorer, None, trace));
        }

        // ---- OEC: SGS -------------------------------------------------------
        let (mut te, te_root, grow_steps) = if self.config.ablation.use_grow {
            let _s = gced_obs::span("oec.grow");
            let (te, root, steps) =
                oec::grow_with_order(&mut wt, &forest, self.config.grow_max_attention);
            (te, root, steps)
        } else {
            // Ablation: emit the disconnected forest directly; the
            // "root" is the shallowest forest root.
            let nodes = forest.all_nodes();
            let root = forest
                .trees
                .iter()
                .map(|t| t.root)
                .min_by_key(|&r| wt.tree.depth(r))
                .expect("forest non-empty");
            (nodes, root, Vec::new())
        };
        trace.grow_steps = grow_steps;

        // ---- OEC: SCS -------------------------------------------------------
        let mut final_scores = None;
        if self.config.ablation.use_clip {
            let _clip_span = gced_obs::span("clip");
            let protected = if self.config.clip_protect_forest {
                forest.all_nodes()
            } else {
                BTreeSet::new()
            };
            trace.clip_steps = if opts.reference_clip {
                oec::reference::clip(
                    &mut wt,
                    &mut te,
                    te_root,
                    &protected,
                    &scorer,
                    aos,
                    self.config.clip,
                )
            } else {
                let (steps, scores) = oec::clip(
                    &mut wt,
                    &mut te,
                    te_root,
                    &protected,
                    &scorer,
                    (aos, aos_ids),
                    self.config.clip,
                );
                final_scores = Some(scores);
                steps
            };
        }

        Ok(self.finish(aos, &aos_text, &ctx_doc, te, &scorer, final_scores, trace))
    }

    /// Distill a batch of (question, answer, context) tuples, fanning
    /// examples out across worker threads.
    ///
    /// Output is element-wise identical to calling [`Gced::distill`] on
    /// each tuple in order, regardless of thread count or scheduling:
    /// results are written back by input index and every distillation is
    /// deterministic.
    pub fn distill_batch<Q, A, C>(
        &self,
        items: &[(Q, A, C)],
    ) -> Vec<Result<Distillation, DistillError>>
    where
        Q: AsRef<str> + Sync,
        A: AsRef<str> + Sync,
        C: AsRef<str> + Sync,
    {
        gced_par::par_map(items, |_, (q, a, c)| {
            self.distill_opts(q.as_ref(), a.as_ref(), c.as_ref(), DistillOpts::default())
        })
    }

    /// [`Gced::distill`] recording a span tree of the pipeline stages
    /// (see `gced-obs`). The tree is `None` when tracing is disabled;
    /// the distillation itself is bit-identical either way — tracing is
    /// a sidecar channel and never touches the result.
    pub fn distill_traced(
        &self,
        question: &str,
        answer: &str,
        context: &str,
    ) -> (
        Result<Distillation, DistillError>,
        Option<gced_obs::SpanNode>,
    ) {
        gced_obs::capture("distill", || {
            self.distill_opts(question, answer, context, DistillOpts::default())
        })
    }

    /// [`Gced::distill_batch`] with a span tree captured per item on
    /// the worker thread that distilled it (the serve batcher records
    /// these in its flight recorder). Results are element-wise identical
    /// to [`Gced::distill_batch`]; trees are `None` when tracing is
    /// disabled.
    #[allow(clippy::type_complexity)]
    pub fn distill_batch_traced<Q, A, C>(
        &self,
        items: &[(Q, A, C)],
    ) -> Vec<(
        Result<Distillation, DistillError>,
        Option<gced_obs::SpanNode>,
    )>
    where
        Q: AsRef<str> + Sync,
        A: AsRef<str> + Sync,
        C: AsRef<str> + Sync,
    {
        gced_par::par_map(items, |_, (q, a, c)| {
            gced_obs::capture("distill", || {
                self.distill_opts(q.as_ref(), a.as_ref(), c.as_ref(), DistillOpts::default())
            })
        })
    }

    /// Assemble the final [`Distillation`] from a node selection.
    /// `precomputed` carries the selection's scores when the clip search
    /// already produced them (bitwise-equal to a rescore).
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        aos: &Document,
        aos_text: &str,
        ctx_doc: &Document,
        te: BTreeSet<usize>,
        scorer: &EvidenceScorer<'_>,
        precomputed: Option<EvidenceScores>,
        trace: DistillTrace,
    ) -> Distillation {
        let tokens: Vec<gced_text::Token> = te.iter().map(|&i| aos.tokens[i].clone()).collect();
        let evidence = join_tokens(&tokens);
        let scores = precomputed.unwrap_or_else(|| scorer.score_selection(aos, &te));
        let ctx_words = ctx_doc.len().max(1);
        Distillation {
            evidence_tokens: tokens.iter().map(|t| t.text.to_string()).collect(),
            evidence,
            scores,
            aos_text: aos_text.to_string(),
            word_reduction: 1.0 - te.len() as f64 / ctx_words as f64,
            trace,
        }
    }
}

/// Token indices of the answer inside the AOS: the first contiguous
/// occurrence when present, otherwise a bag-of-words match (the answer
/// may be a predicted string that only partially overlaps the context).
/// Words compare by interned id; equal to [`reference::locate_answer`].
fn locate_answer(ids: &mut RequestIds<'_>, aos_ids: &DocIds, answer: &str) -> Vec<usize> {
    let answer_ids = ids.analyze(answer).1.lower;
    let n = answer_ids.len();
    if n > 0 {
        if let Some(s) = aos_ids.lower.windows(n).position(|w| w == answer_ids) {
            return (s..s + n).collect();
        }
    }
    let mut bag = answer_ids;
    bag.sort_unstable();
    (0..aos_ids.lower.len())
        .filter(|&i| bag.binary_search(&aos_ids.lower[i]).is_ok())
        .collect()
}

/// String formulations of the id-keyed distillation stages, kept as the
/// oracles [`Gced::distill_with_reference_search`] runs.
mod reference {
    use gced_text::{analyze, Document};
    use std::collections::BTreeSet;

    /// [`super::locate_answer`] on lowercased token strings.
    pub(super) fn locate_answer(aos: &Document, answer: &str) -> Vec<usize> {
        let answer_doc = analyze(answer);
        if let Some((s, e)) = gced_qa::model::gold_span_of(aos, &answer_doc) {
            return (s..e).collect();
        }
        let answer_words: BTreeSet<String> = answer_doc.tokens.iter().map(|t| t.lower()).collect();
        aos.tokens
            .iter()
            .filter(|t| answer_words.contains(&*t.lower_cow()))
            .map(|t| t.index)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gced_datasets::{generate, DatasetKind, GeneratorConfig};

    fn fitted() -> (Gced, gced_datasets::Dataset) {
        let ds = generate(
            DatasetKind::Squad11,
            GeneratorConfig {
                train: 80,
                dev: 20,
                seed: 9,
            },
        );
        let g = Gced::fit(&ds, GcedConfig::default());
        (g, ds)
    }

    #[test]
    fn distills_paper_style_example() {
        let (g, _) = fitted();
        let question = "Which NFL team represented the AFC at Super Bowl 50?";
        let context = "The American Football Conference (AFC) champion Denver Broncos defeated \
                       the National Football Conference (NFC) champion Carolina Panthers to earn \
                       the Super Bowl 50 title. The game was played on February 7, 2016. \
                       The halftime show featured a famous singer.";
        let d = g.distill(question, "Denver Broncos", context).unwrap();
        assert!(
            d.evidence.contains("Denver Broncos"),
            "evidence: {}",
            d.evidence
        );
        assert!(!d.evidence_tokens.is_empty());
        assert!(d.word_reduction > 0.0, "no reduction: {}", d.word_reduction);
        assert!(
            d.scores.informativeness > 0.5,
            "I = {}",
            d.scores.informativeness
        );
    }

    #[test]
    fn evidence_is_shorter_than_context() {
        let (g, ds) = fitted();
        let mut reductions = Vec::new();
        for ex in ds.dev.examples.iter().filter(|e| e.answerable).take(8) {
            let d = g.distill(&ex.question, &ex.answer, &ex.context).unwrap();
            reductions.push(d.word_reduction);
        }
        let mean = reductions.iter().sum::<f64>() / reductions.len() as f64;
        assert!(mean > 0.3, "mean reduction {mean}");
    }

    #[test]
    fn evidence_preserves_answer_when_present() {
        let (g, ds) = fitted();
        for ex in ds.dev.examples.iter().filter(|e| e.answerable).take(8) {
            let d = g.distill(&ex.question, &ex.answer, &ex.context).unwrap();
            let ev_lower = d.evidence.to_lowercase();
            let first_answer_word = ex.answer.split_whitespace().next().unwrap().to_lowercase();
            assert!(
                ev_lower.contains(&first_answer_word),
                "{}: answer {:?} absent from evidence {:?}",
                ex.id,
                ex.answer,
                d.evidence
            );
        }
    }

    #[test]
    fn empty_inputs_error() {
        let (g, _) = fitted();
        assert!(matches!(
            g.distill("q?", "", "some context."),
            Err(DistillError::EmptyAnswer)
        ));
        assert!(matches!(
            g.distill("q?", "x", "   "),
            Err(DistillError::EmptyContext)
        ));
    }

    #[test]
    fn distillation_is_deterministic() {
        let (g, ds) = fitted();
        let ex = ds.dev.examples.iter().find(|e| e.answerable).unwrap();
        let a = g.distill(&ex.question, &ex.answer, &ex.context).unwrap();
        let b = g.distill(&ex.question, &ex.answer, &ex.context).unwrap();
        assert_eq!(a.evidence, b.evidence);
        assert_eq!(a.scores, b.scores);
    }

    #[test]
    fn answer_absent_from_context_still_distills() {
        let (g, _) = fitted();
        let d = g
            .distill(
                "Who won the match?",
                "Zanzibar Zebras",
                "The Broncos won the title. The fans celebrated.",
            )
            .unwrap();
        assert!(!d.evidence_tokens.is_empty());
    }

    #[test]
    fn no_clue_no_answer_falls_back_to_first_sentence() {
        let (g, _) = fitted();
        let d = g
            .distill(
                "zzz?",
                "qqq",
                "The weather was mild. Nothing else happened.",
            )
            .unwrap();
        assert!(d.trace.fallback);
        assert!(!d.evidence_tokens.is_empty());
    }

    #[test]
    fn ablations_change_output_shape() {
        let ds = generate(
            DatasetKind::Squad11,
            GeneratorConfig {
                train: 60,
                dev: 10,
                seed: 5,
            },
        );
        let question = "Which team defeated the Panthers in the final?";
        let answer = "Denver Broncos";
        let context = "The rain had stopped by noon. The Denver Broncos defeated the Carolina \
                       Panthers in the final. The trophy ceremony lasted an hour. Thousands of \
                       fans filled the stadium to celebrate the victory that evening.";
        let full = Gced::fit(&ds, GcedConfig::default());
        let d_full = full.distill(question, answer, context).unwrap();

        let no_clip_cfg = GcedConfig {
            ablation: Ablation::without("Clip"),
            ..GcedConfig::default()
        };
        let no_clip = Gced::fit(&ds, no_clip_cfg);
        let d_no_clip = no_clip.distill(question, answer, context).unwrap();
        assert!(
            d_no_clip.evidence_tokens.len() >= d_full.evidence_tokens.len(),
            "clip should shorten: {} vs {}",
            d_no_clip.evidence_tokens.len(),
            d_full.evidence_tokens.len()
        );

        let no_ase_cfg = GcedConfig {
            ablation: Ablation::without("ASE"),
            ..GcedConfig::default()
        };
        let no_ase = Gced::fit(&ds, no_ase_cfg);
        let d_no_ase = no_ase.distill(question, answer, context).unwrap();
        assert!(d_no_ase.aos_text.len() >= d_full.aos_text.len());
    }

    #[test]
    fn trace_records_pipeline_decisions() {
        let (g, _) = fitted();
        let d = g
            .distill(
                "Which team defeated the Panthers?",
                "Denver Broncos",
                "The Denver Broncos defeated the Carolina Panthers to earn the title. \
                 The band played all night.",
            )
            .unwrap();
        assert!(d.trace.ase.is_some());
        assert!(!d.trace.answer_words.is_empty());
        assert!(d.trace.forest_size >= 1);
        let rendered = d.trace.to_string();
        assert!(rendered.contains("QWS"));
    }

    #[test]
    fn fixed_clip_mode_clips_at_most_m_times() {
        let ds = generate(
            DatasetKind::Squad11,
            GeneratorConfig {
                train: 60,
                dev: 10,
                seed: 5,
            },
        );
        let cfg = GcedConfig {
            clip: ClipMode::Fixed(1),
            ..GcedConfig::default()
        };
        let g = Gced::fit(&ds, cfg);
        let d = g
            .distill(
                "Which team defeated the Panthers?",
                "Denver Broncos",
                "The Denver Broncos defeated the Carolina Panthers to earn the championship \
                 title in a long and memorable evening game.",
            )
            .unwrap();
        assert!(d.trace.clip_steps.len() <= 1);
    }

    #[test]
    fn parse_cache_does_not_change_distillation() {
        let (g, ds) = fitted();
        let cached = g.clone().with_parse_cache(256);
        for ex in ds.dev.examples.iter().filter(|e| e.answerable).take(6) {
            let plain = g.distill(&ex.question, &ex.answer, &ex.context).unwrap();
            // Cold pass fills the cache; the warm pass must replay it.
            let cold = cached
                .distill(&ex.question, &ex.answer, &ex.context)
                .unwrap();
            let warm = cached
                .distill(&ex.question, &ex.answer, &ex.context)
                .unwrap();
            for other in [&cold, &warm] {
                assert_eq!(plain.evidence, other.evidence, "{}", ex.id);
                assert_eq!(plain.evidence_tokens, other.evidence_tokens);
                assert_eq!(plain.scores, other.scores);
                assert_eq!(plain.trace.clip_steps, other.trace.clip_steps);
            }
        }
        let stats = cached.parse_cache_stats().expect("cache installed");
        assert!(stats.hits > 0, "warm pass never hit: {stats:?}");
        assert!(g.parse_cache_stats().is_none());
    }

    /// Inputs the generator never produces: OOV words shared by the
    /// question and context, lexicon words the LM never saw, case
    /// folding (Kelvin sign, dotted İ, long ſ), glued n't, repeated
    /// answer words, and answers that normalize to nothing.
    const OFF_GENERATOR: &[(&str, &str, &str)] = &[
        (
            "Who visited Zanzibar in the \u{212a}elvin year?",
            "Qwxyz Plugh",
            "The weather was mild. Qwxyz Plugh visited ZANZIBAR in the kelvin year. \
             Zanzibar zanzibar welcomed qwxyz plugh.",
        ),
        (
            "Which İSTANBUL team didn't lose the ſun cup?",
            "İstanbul Rovers",
            "İstanbul Rovers didn't lose the ſun cup. i̇stanbul rovers won it twice. \
             The Rovers weren't beaten.",
        ),
        (
            "Who beat the Panthers twice?",
            "Broncos Broncos",
            "The Broncos beat the Panthers. The Broncos Broncos chant was loud. \
             Panthers fans left early.",
        ),
        (
            "Which violin player won the championship?",
            "the",
            "A violin player won the championship. The piano player lost the final.",
        ),
        (
            "What did the famous singer shout?",
            "!?",
            "The famous singer shouted loudly! The crowd cheered? Nobody knew.",
        ),
        (
            "Who didn't arrive?",
            "didn't",
            "The coach didn't arrive. The team did n't wait. Didn't they?",
        ),
        (
            "Which ΟΔΟΣ did the team take?",
            "ΟΔΟΣ Straße",
            "The team took the ΟΔΟΣ Straße home. Οδος straße is long. CAFÉ café.",
        ),
    ];

    #[test]
    fn id_path_matches_the_string_reference_off_the_generator() {
        let (g, _) = fitted();
        for &(question, answer, context) in OFF_GENERATOR {
            let fast = g.distill(question, answer, context).unwrap();
            let oracle = g
                .distill_with_reference_search(question, answer, context)
                .unwrap();
            assert_eq!(fast.evidence, oracle.evidence, "{question:?}");
            assert_eq!(fast.evidence_tokens, oracle.evidence_tokens);
            assert_eq!(fast.scores, oracle.scores, "{question:?}");
            assert_eq!(fast.aos_text, oracle.aos_text);
            assert_eq!(
                format!("{:?}", fast.trace),
                format!("{:?}", oracle.trace),
                "{question:?}"
            );
        }
    }

    #[test]
    fn locate_answer_by_id_matches_the_string_reference() {
        let (g, _) = fitted();
        for &(question, answer, context) in OFF_GENERATOR {
            let aos = analyze(context);
            for ans in [
                answer,
                question,
                "zanzibar QWXYZ",
                "the the",
                "",
                "Rovers İstanbul",
            ] {
                let mut ids = g.ids.request();
                let aos_ids = ids.intern(&aos);
                assert_eq!(
                    locate_answer(&mut ids, &aos_ids, ans),
                    reference::locate_answer(&aos, ans),
                    "{context:?} / {ans:?}"
                );
            }
        }
    }

    #[test]
    fn scores_are_consistent_with_reported_evidence() {
        let (g, ds) = fitted();
        let ex = ds.dev.examples.iter().find(|e| e.answerable).unwrap();
        let d = g.distill(&ex.question, &ex.answer, &ex.context).unwrap();
        assert!(d.scores.hybrid.is_finite() || d.evidence_tokens.len() <= 2);
        assert!((0.0..=1.0).contains(&d.scores.informativeness));
    }
}
