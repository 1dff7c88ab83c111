//! Per-row building blocks for every table and figure of the paper.
//!
//! The expensive artifacts (fitted pipeline, ground-truth-based evidence
//! caches) live in an [`ExperimentContext`]; each function here computes
//! one table row (or one Fig. 7 point) from it as a pure function of the
//! shared artifacts, which is what lets [`crate::shard`] split any table
//! across shards and merge it back bit-identically. The published
//! reference figures the reports print next to the measured ones live
//! here too.

use crate::protocol::{HumanEvalOutcome, RatingProtocol};
use crate::raters::RatedItem;
use crate::scale::Scale;
use gced::{Ablation, ClipMode, Distillation, Gced, GcedConfig};
use gced_datasets::{generate, Dataset, DatasetKind, GeneratorConfig, QaExample, ShardSpec};
use gced_qa::model::EvalResult;
use gced_qa::zoo::ZooEntry;
use gced_qa::QaModel;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Shared artifacts for one dataset.
pub struct ExperimentContext {
    /// The generated dataset.
    pub dataset: Dataset,
    /// The fitted GCED pipeline.
    pub gced: Gced,
    /// Ground-truth-answer-based evidence per training example
    /// (`None` for unanswerable examples or distillation errors).
    pub gt_train: Vec<Option<Distillation>>,
    /// Same for the dev split.
    pub gt_dev: Vec<Option<Distillation>>,
    /// The experiment seed.
    pub seed: u64,
}

impl ExperimentContext {
    /// Generate the dataset, fit the pipeline, and distill the
    /// ground-truth evidence caches in full.
    pub fn prepare(kind: DatasetKind, scale: Scale, seed: u64) -> Self {
        let all = Some(ShardSpec::single());
        Self::prepare_fitted(kind, scale, seed, None, all, all)
    }

    /// The general form. `gced` is an already-fitted pipeline (the
    /// shared fit cache: shard workers decode one serialized fit instead
    /// of re-fitting identical state), or `None` to fit fresh; the
    /// caller guarantees it was fitted on exactly the dataset that
    /// `(kind, scale, seed)` generates — the fit-cache fingerprint
    /// enforces this on the CLI path.
    ///
    /// The train and dev ground-truth caches are distilled only for the
    /// examples in the given shard's contiguous range of each split;
    /// `None` skips a split's cache entirely. Entries outside the range
    /// stay `None`. Because each example's distillation is deterministic
    /// and independent, the union of all shards' caches is element-wise
    /// identical to the full [`ExperimentContext::prepare`] — so a shard
    /// pays only for its slice of the dominant preparation cost, and an
    /// experiment that never reads a cache does not pay for it at all.
    pub fn prepare_fitted(
        kind: DatasetKind,
        scale: Scale,
        seed: u64,
        gced: Option<Gced>,
        train_shard: Option<ShardSpec>,
        dev_shard: Option<ShardSpec>,
    ) -> Self {
        let dataset = generate(
            kind,
            GeneratorConfig {
                train: scale.train,
                dev: scale.dev,
                seed,
            },
        );
        let gced = gced.unwrap_or_else(|| {
            Gced::fit(
                &dataset,
                GcedConfig {
                    seed,
                    ..GcedConfig::default()
                },
            )
        });
        let range_of = |shard: Option<ShardSpec>, n: usize| match shard {
            Some(s) => s.range(n),
            None => 0..0,
        };
        let train_range = range_of(train_shard, dataset.train.len());
        let dev_range = range_of(dev_shard, dataset.dev.len());
        let gt_train = distill_split_range(
            &gced,
            "ExperimentContext train gt cache",
            &dataset.train.examples,
            None,
            train_range,
        );
        let gt_dev = distill_split_range(
            &gced,
            "ExperimentContext dev gt cache",
            &dataset.dev.examples,
            None,
            dev_range,
        );
        ExperimentContext {
            dataset,
            gced,
            gt_train,
            gt_dev,
            seed,
        }
    }

    /// Dataset kind shortcut.
    pub fn kind(&self) -> DatasetKind {
        self.dataset.kind
    }

    /// Train split with contexts replaced by ground-truth evidences.
    pub fn evidence_train(&self) -> Vec<QaExample> {
        replace_contexts(&self.dataset.train.examples, &self.gt_train)
    }

    /// Dev split with contexts replaced by ground-truth evidences.
    pub fn evidence_dev(&self) -> Vec<QaExample> {
        replace_contexts(&self.dataset.dev.examples, &self.gt_dev)
    }

    /// Mean word reduction of the ground-truth dev evidences (the
    /// 78.5 % / 87.2 % statistic of Sec. IV-D1).
    pub fn mean_word_reduction(&self) -> f64 {
        let r: Vec<f64> = self
            .gt_dev
            .iter()
            .flatten()
            .map(|d| d.word_reduction)
            .collect();
        if r.is_empty() {
            0.0
        } else {
            r.iter().sum::<f64>() / r.len() as f64
        }
    }
}

/// Distill every answerable example of `examples` whose index falls in
/// `range` (a shard of the split); entries outside it are `None`. With
/// `answers: Some(_)`, use the provided per-example answer strings
/// instead of the gold ones (the predicted-answer experiments).
///
/// Runs through [`Gced::distill_batch`], so runners parallelize their
/// dominant inner loop across worker threads while producing exactly
/// the sequential per-example output; the in-range entries are
/// identical to a full run's, which is what the shard merge relies on.
/// `experiment` names the caller in the length-mismatch panic below.
pub fn distill_split_range(
    gced: &Gced,
    experiment: &str,
    examples: &[QaExample],
    answers: Option<&[String]>,
    range: std::ops::Range<usize>,
) -> Vec<Option<Distillation>> {
    // A short predicted-answer vector would panic deep in the indexing
    // loop below with a bare out-of-bounds; validate up front with a
    // message that names the experiment and both lengths.
    if let Some(a) = answers {
        assert_eq!(
            a.len(),
            examples.len(),
            "{experiment}: predicted-answer slice has {} entr{} but the split has {} example(s)",
            a.len(),
            if a.len() == 1 { "y" } else { "ies" },
            examples.len()
        );
    }
    let mut jobs: Vec<(&str, &str, &str)> = Vec::new();
    let mut job_of: Vec<Option<usize>> = Vec::with_capacity(examples.len());
    for (i, ex) in examples.iter().enumerate() {
        let answer = match answers {
            Some(a) => a[i].as_str(),
            None => ex.answer.as_str(),
        };
        if !range.contains(&i) || !ex.answerable || answer.trim().is_empty() {
            job_of.push(None);
        } else {
            job_of.push(Some(jobs.len()));
            jobs.push((ex.question.as_str(), answer, ex.context.as_str()));
        }
    }
    let mut results: Vec<Option<Distillation>> = gced
        .distill_batch(&jobs)
        .into_iter()
        .map(Result::ok)
        .collect();
    job_of
        .into_iter()
        .map(|slot| slot.and_then(|j| results[j].take()))
        .collect()
}

/// Replace contexts with evidence texts where available.
fn replace_contexts(examples: &[QaExample], evidences: &[Option<Distillation>]) -> Vec<QaExample> {
    examples
        .iter()
        .zip(evidences)
        .map(|(ex, ev)| match ev {
            Some(d) if !d.evidence.trim().is_empty() => {
                let mut ex = ex.clone();
                ex.context = d.evidence.clone();
                ex
            }
            _ => ex.clone(),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Tables IV & V: human evaluation of distilled evidences
// ---------------------------------------------------------------------------

/// One row of Table IV/V.
#[derive(Debug, Clone)]
pub struct HumanEvalRow {
    /// Model name ("Ground-truth" for the last row).
    pub source: String,
    /// Aggregated rating outcome.
    pub outcome: HumanEvalOutcome,
    /// Mean word reduction over the rated evidences.
    pub word_reduction: f64,
}

/// The first `scale.rated` answerable dev examples — the pool every
/// rating-based experiment draws from.
pub fn rated_pool(ctx: &ExperimentContext, scale: Scale) -> Vec<&QaExample> {
    ctx.dataset
        .dev
        .examples
        .iter()
        .filter(|e| e.answerable)
        .take(scale.rated)
        .collect()
}

/// One Table IV/V row for one baseline model: distill evidences from
/// its predicted answers and rate them. A pure function of the shared
/// context artifacts, so shard workers computing disjoint model subsets
/// reproduce the monolithic run exactly.
pub fn human_eval_model_row(
    ctx: &ExperimentContext,
    entry: &ZooEntry,
    scale: Scale,
) -> HumanEvalRow {
    let protocol = RatingProtocol::paper(ctx.seed);
    let mut model = QaModel::new(entry.profile.clone());
    model.train(&ctx.dataset.train.examples);
    let mut items = Vec::new();
    let mut reductions = Vec::new();
    for ex in rated_pool(ctx, scale) {
        let pred = model.predict(&ex.question, &ex.context);
        if pred.text.trim().is_empty() {
            continue;
        }
        if let Ok(d) = ctx.gced.distill(&ex.question, &pred.text, &ex.context) {
            items.push(RatedItem::from_distillation(
                format!("{}-{}", entry.profile.name, ex.id),
                &d,
                &pred.text,
            ));
            reductions.push(d.word_reduction);
        }
    }
    HumanEvalRow {
        source: entry.profile.name.clone(),
        outcome: protocol.run(&items),
        word_reduction: mean(&reductions),
    }
}

/// The final Table IV/V row: rate the ground-truth-answer-based
/// evidences from the context's dev cache (which must cover the rated
/// pool, i.e. be prepared unsharded).
pub fn human_eval_gt_row(ctx: &ExperimentContext, scale: Scale) -> HumanEvalRow {
    let protocol = RatingProtocol::paper(ctx.seed);
    let mut items = Vec::new();
    let mut reductions = Vec::new();
    for ex in rated_pool(ctx, scale) {
        let idx = ctx
            .dataset
            .dev
            .examples
            .iter()
            .position(|e| e.id == ex.id)
            .expect("from dev");
        if let Some(d) = &ctx.gt_dev[idx] {
            items.push(RatedItem::from_distillation(
                format!("gt-{}", ex.id),
                d,
                &ex.answer,
            ));
            reductions.push(d.word_reduction);
        }
    }
    HumanEvalRow {
        source: "Ground-truth".to_string(),
        outcome: protocol.run(&items),
        word_reduction: mean(&reductions),
    }
}

/// Published hybrid score of Table IV (SQuAD) / Table V (TriviaQA) for
/// row `row` (zoo model order, ground truth last) of a `kind` run.
pub fn paper_hybrid(kind: DatasetKind, row: usize) -> f64 {
    // (variant 1, variant 2) per row: SQuAD-1.1/2.0, TriviaQA-Web/Wiki.
    const SQUAD: [(f64, f64); 10] = [
        (0.84, 0.85),
        (0.86, 0.88),
        (0.87, 0.84),
        (0.86, 0.86),
        (0.88, 0.89),
        (0.88, 0.88),
        (0.85, 0.88),
        (0.87, 0.90),
        (0.86, 0.89),
        (0.89, 0.90),
    ];
    const TRIVIA: [(f64, f64); 10] = [
        (0.81, 0.82),
        (0.80, 0.78),
        (0.83, 0.80),
        (0.79, 0.77),
        (0.78, 0.79),
        (0.84, 0.81),
        (0.80, 0.82),
        (0.82, 0.80),
        (0.83, 0.81),
        (0.85, 0.83),
    ];
    let (v1, v2) = if kind.is_trivia() { TRIVIA } else { SQUAD }[row];
    match variant_of(kind) {
        Variant::V1 => v1,
        Variant::V2 => v2,
    }
}

// ---------------------------------------------------------------------------
// Table II: inter-rater agreement
// ---------------------------------------------------------------------------

/// Published Krippendorff's α of Table II, `PAPER_ALPHA[group][c]` with
/// `c` in [`crate::rubric::Criterion::all`] order plus the hybrid last.
pub const PAPER_ALPHA: [[f64; 4]; 3] = [
    [0.77, 0.83, 0.82, 0.81],
    [0.81, 0.80, 0.77, 0.79],
    [0.76, 0.75, 0.81, 0.78],
];

/// The Table II agreement study's item set: a pooled set of evidences
/// of genuinely mixed quality — ground-truth-based, predicted-answer-based
/// (weak model), and ASE-ablated (noisier) — so Krippendorff's α is
/// computed over variance-bearing data, as in the paper's pooled
/// protocol (3,000 mixed QA pairs per model). Reads the dev gt cache in
/// full.
pub fn agreement_items(
    ctx: &ExperimentContext,
    weak_model: &ZooEntry,
    scale: Scale,
) -> Vec<RatedItem> {
    let pool: Vec<&QaExample> = rated_pool(ctx, scale);
    let mut items = Vec::new();
    // Source 1: ground-truth evidences (high quality).
    for ex in &pool {
        let idx = ctx
            .dataset
            .dev
            .examples
            .iter()
            .position(|e| e.id == ex.id)
            .expect("dev");
        if let Some(d) = &ctx.gt_dev[idx] {
            items.push(RatedItem::from_distillation(
                format!("agt-{}", ex.id),
                d,
                &ex.answer,
            ));
        }
    }
    // Source 2: predicted-answer evidences from a weak baseline (mixed).
    let mut model = QaModel::new(weak_model.profile.clone());
    model.train(&ctx.dataset.train.examples);
    for ex in &pool {
        let pred = model.predict(&ex.question, &ex.context);
        if pred.text.trim().is_empty() {
            continue;
        }
        if let Ok(d) = ctx.gced.distill(&ex.question, &pred.text, &ex.context) {
            items.push(RatedItem::from_distillation(
                format!("apr-{}", ex.id),
                &d,
                &pred.text,
            ));
        }
    }
    // Source 3: ASE-ablated evidences (longer, noisier).
    let no_ase = ctx.gced.clone().with_config(GcedConfig {
        ablation: Ablation::without("ASE"),
        seed: ctx.seed,
        ..GcedConfig::default()
    });
    for ex in pool.iter().take(scale.rated / 2) {
        if let Ok(d) = no_ase.distill(&ex.question, &ex.answer, &ex.context) {
            items.push(RatedItem::from_distillation(
                format!("ana-{}", ex.id),
                &d,
                &ex.answer,
            ));
        }
    }
    // Source 4: mismatched pairs — evidence of item i judged for the QA
    // pair of item j. These populate the rubric's low informativeness
    // levels ("only some details identical", "irrelevant"), which real
    // rater pools encounter whenever the system fails; without them α
    // over informativeness degenerates (no item variance).
    for w in pool.windows(2).take(scale.rated / 2) {
        let (ex_i, ex_j) = (w[0], w[1]);
        let idx = ctx
            .dataset
            .dev
            .examples
            .iter()
            .position(|e| e.id == ex_i.id)
            .expect("dev");
        if let Some(d) = &ctx.gt_dev[idx] {
            let pred = ctx.gced.qa_model().predict(&ex_j.question, &d.evidence);
            let inference_f1 = gced_metrics::overlap::token_f1(&pred.text, &ex_j.answer).f1;
            let ev_words: std::collections::HashSet<String> = gced_text::analyze(&d.evidence)
                .tokens
                .iter()
                .map(|t| t.lower())
                .collect();
            let q_doc = gced_text::analyze(&ex_j.question);
            let sig: Vec<String> = q_doc
                .tokens
                .iter()
                .filter(|t| !gced_text::is_insignificant_question_word(&t.lower()))
                .filter(|t| !t.is_punct())
                .map(|t| t.lower())
                .collect();
            let question_overlap = if sig.is_empty() {
                0.5
            } else {
                sig.iter().filter(|word| ev_words.contains(*word)).count() as f64 / sig.len() as f64
            };
            items.push(RatedItem {
                id: format!("mis-{}-{}", ex_i.id, ex_j.id),
                evidence_tokens: d.evidence_tokens.len(),
                answer_tokens: ex_j.answer.split_whitespace().count().max(1),
                inference_f1,
                question_overlap,
                lm_readability: d.scores.readability,
                has_verb: true,
            });
        }
    }
    items
}

// ---------------------------------------------------------------------------
// Tables VI & VII: QA models augmented by ground-truth-based evidences
// ---------------------------------------------------------------------------

/// One row of Table VI/VII.
#[derive(Debug, Clone)]
pub struct QaRow {
    pub model: String,
    /// Measured baseline (raw contexts).
    pub base: EvalResult,
    /// Measured +GCED (evidence contexts, train and dev).
    pub gced: EvalResult,
    /// Published baseline (EM, F1) for this dataset variant.
    pub paper_base: (f64, f64),
    /// Published +GCED (EM, F1).
    pub paper_gced: (f64, f64),
}

/// Which of the two dataset variants a zoo entry's paper numbers to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// SQuAD-1.1 / TriviaQA-Web.
    V1,
    /// SQuAD-2.0 / TriviaQA-Wiki.
    V2,
}

/// The paper's variant for a dataset kind.
pub fn variant_of(kind: DatasetKind) -> Variant {
    match kind {
        DatasetKind::Squad11 | DatasetKind::TriviaWeb => Variant::V1,
        DatasetKind::Squad20 | DatasetKind::TriviaWiki => Variant::V2,
    }
}

/// The baseline zoo of a dataset kind (Tables IV/VI use the SQuAD zoo,
/// Tables V/VII the TriviaQA zoo) — the row axis of the sharded
/// model-grid experiments.
pub fn zoo_for(kind: DatasetKind) -> Vec<ZooEntry> {
    if kind.is_trivia() {
        gced_qa::zoo::trivia_models()
    } else {
        gced_qa::zoo::squad_models()
    }
}

/// One Table VI/VII row: train/evaluate one zoo model on raw contexts
/// and on the evidence-replaced splits. `ev_train`/`ev_dev` are the
/// context-wide evidence splits ([`ExperimentContext::evidence_train`] /
/// [`ExperimentContext::evidence_dev`]), computed once per caller.
pub fn qa_augmentation_row(
    ctx: &ExperimentContext,
    entry: &ZooEntry,
    ev_train: &[QaExample],
    ev_dev: &[QaExample],
) -> QaRow {
    let variant = variant_of(ctx.kind());
    let mut base_model = QaModel::new(entry.profile.clone());
    base_model.train(&ctx.dataset.train.examples);
    let base = base_model.evaluate(&ctx.dataset.dev.examples);
    let mut gced_model = QaModel::new(entry.profile.clone());
    gced_model.train(ev_train);
    let gced = gced_model.evaluate(ev_dev);
    let (paper_base, paper_gced) = match variant {
        Variant::V1 => (entry.paper_v1, entry.paper_v1_gced),
        Variant::V2 => (entry.paper_v2, entry.paper_v2_gced),
    };
    QaRow {
        model: entry.profile.name.clone(),
        base,
        gced,
        paper_base,
        paper_gced,
    }
}

// ---------------------------------------------------------------------------
// Table VIII: ablation study
// ---------------------------------------------------------------------------

/// One row of Table VIII.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// "BERT+GCED" for the full system, "w/o X" for knockouts.
    pub label: String,
    pub outcome: HumanEvalOutcome,
    pub em: f64,
    pub f1: f64,
}

/// The Table VIII variant list: one knockout per component, the full
/// system last (the item space of the sharded `ablation` runner).
pub fn ablation_variants() -> Vec<(String, Ablation)> {
    let mut variants: Vec<(String, Ablation)> = Ablation::table8_rows()
        .iter()
        .map(|c| (format!("w/o {c}"), Ablation::without(c)))
        .collect();
    variants.push(("BERT+GCED".to_string(), Ablation::full()));
    variants
}

/// Published Table VIII (H, EM) per [`ablation_variants`] row — BERT on
/// SQuAD-2.0, the only dataset the paper ablates on.
pub const PAPER_ABLATION: [(f64, f64); 8] = [
    (0.77, 72.0),
    (0.74, 70.2),
    (0.76, 75.2),
    (0.77, 80.5),
    (0.77, 80.2),
    (0.76, 79.3),
    (0.80, 82.1),
    (0.84, 85.0),
];

/// One Table VIII row: re-distill both splits under one ablation
/// config, rate the dev evidences, and retrain/evaluate the BERT-like
/// profile on the evidence-replaced splits.
pub fn ablation_row(
    ctx: &ExperimentContext,
    bert: &ZooEntry,
    scale: Scale,
    label: &str,
    ablation: Ablation,
) -> AblationRow {
    let protocol = RatingProtocol::paper(ctx.seed);
    let cfg = GcedConfig {
        ablation,
        seed: ctx.seed,
        ..GcedConfig::default()
    };
    let pipeline = ctx.gced.clone().with_config(cfg);
    let train_ev = distill_split_range(
        &pipeline,
        "ablation (train split)",
        &ctx.dataset.train.examples,
        None,
        0..ctx.dataset.train.len(),
    );
    let dev_ev = distill_split_range(
        &pipeline,
        "ablation (dev split)",
        &ctx.dataset.dev.examples,
        None,
        0..ctx.dataset.dev.len(),
    );
    // Human evaluation over the first `rated` dev evidences.
    let items: Vec<RatedItem> = ctx
        .dataset
        .dev
        .examples
        .iter()
        .zip(&dev_ev)
        .filter_map(|(ex, d)| {
            d.as_ref()
                .map(|d| RatedItem::from_distillation(format!("{label}-{}", ex.id), d, &ex.answer))
        })
        .take(scale.rated)
        .collect();
    let outcome = protocol.run(&items);
    // QA augmentation with this variant's evidences.
    let mut model = QaModel::new(bert.profile.clone());
    model.train(&replace_contexts(&ctx.dataset.train.examples, &train_ev));
    let eval = model.evaluate(&replace_contexts(&ctx.dataset.dev.examples, &dev_ev));
    AblationRow {
        label: label.to_string(),
        outcome,
        em: eval.em,
        f1: eval.f1,
    }
}

/// The design-choice sweep beyond the paper's Table VIII: grow order
/// (max-attention vs index-order), clip protection (forest-protected vs
/// unrestricted), the clip-count M, and the Eq. 5 weights that justify
/// the default (α, β, γ). The default configuration comes first.
pub fn design_variants(seed: u64) -> Vec<(&'static str, GcedConfig)> {
    let base = GcedConfig {
        seed,
        ..GcedConfig::default()
    };
    let clip = |m| GcedConfig {
        clip: ClipMode::Fixed(m),
        ..base.clone()
    };
    let weights = |alpha, beta, gamma| GcedConfig {
        alpha,
        beta,
        gamma,
        ..base.clone()
    };
    vec![
        ("max-attention grow (default)", base.clone()),
        (
            "index-order grow",
            GcedConfig {
                grow_max_attention: false,
                ..base.clone()
            },
        ),
        (
            "unprotected clip",
            GcedConfig {
                clip_protect_forest: false,
                ..base.clone()
            },
        ),
        ("M=0 (no clip)", clip(0)),
        ("M=1", clip(1)),
        ("M=2", clip(2)),
        ("M=4", clip(4)),
        ("M=8", clip(8)),
        ("weights a=.8 b=.1 g=.1", weights(0.8, 0.1, 0.1)),
        ("weights a=.2 b=.2 g=.6", weights(0.2, 0.2, 0.6)),
        (
            "weights a=.33 b=.33 g=.33",
            weights(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
        ),
    ]
}

/// One design-sweep row: distill the rated pool's ground-truth answers
/// under `config` and rate the evidences. Returns the rating outcome
/// and the mean evidence length in tokens.
pub fn design_row(
    ctx: &ExperimentContext,
    scale: Scale,
    label: &str,
    config: GcedConfig,
) -> (HumanEvalOutcome, f64) {
    let pipeline = ctx.gced.clone().with_config(config);
    let mut items = Vec::new();
    let mut tokens = Vec::new();
    for ex in rated_pool(ctx, scale) {
        if let Ok(d) = pipeline.distill(&ex.question, &ex.answer, &ex.context) {
            items.push(RatedItem::from_distillation(
                format!("{label}-{}", ex.id),
                &d,
                &ex.answer,
            ));
            tokens.push(d.evidence_tokens.len() as f64);
        }
    }
    let mean_tokens = tokens.iter().sum::<f64>() / tokens.len().max(1) as f64;
    (RatingProtocol::paper(ctx.seed).run(&items), mean_tokens)
}

// ---------------------------------------------------------------------------
// Figure 7: degradation under predicted-answer substitution
// ---------------------------------------------------------------------------

/// The canonical Fig. 7 substitution rates (δ = 0 is the ground-truth
/// point) — the column axis of the sharded `degradation` grid.
pub const DEGRADATION_DELTAS: [f64; 5] = [0.0, 0.2, 0.5, 0.8, 1.0];

/// One model's per-row artifacts for the Fig. 7 grid: its
/// predicted-answer evidences for both splits. Expensive (one
/// prediction + distillation pass per split), shared by every δ-point
/// of the model's row.
pub struct PredictedEvidences {
    pub train: Vec<Option<Distillation>>,
    pub dev: Vec<Option<Distillation>>,
}

/// Build one model's [`PredictedEvidences`]: train the baseline, predict
/// both splits, distill from the predicted answers.
pub fn predicted_evidences(ctx: &ExperimentContext, entry: &ZooEntry) -> PredictedEvidences {
    let mut model = QaModel::new(entry.profile.clone());
    model.train(&ctx.dataset.train.examples);
    let pred_train = predict_answers(&model, &ctx.dataset.train.examples);
    let pred_dev = predict_answers(&model, &ctx.dataset.dev.examples);
    PredictedEvidences {
        train: distill_split_range(
            &ctx.gced,
            "degradation (predicted-answer train split)",
            &ctx.dataset.train.examples,
            Some(&pred_train),
            0..ctx.dataset.train.len(),
        ),
        dev: distill_split_range(
            &ctx.gced,
            "degradation (predicted-answer dev split)",
            &ctx.dataset.dev.examples,
            Some(&pred_dev),
            0..ctx.dataset.dev.len(),
        ),
    }
}

/// One Fig. 7 point: mix ground-truth and predicted evidences at rate
/// `delta`, retrain the model on the mix, evaluate against gold
/// answers. Returns `(delta, em, f1)`.
pub fn degradation_point(
    ctx: &ExperimentContext,
    entry: &ZooEntry,
    pred: &PredictedEvidences,
    delta: f64,
) -> (f64, f64, f64) {
    let train = mix_splits(
        &ctx.dataset.train.examples,
        &ctx.gt_train,
        &pred.train,
        delta,
        ctx.seed,
    );
    let dev = mix_splits(
        &ctx.dataset.dev.examples,
        &ctx.gt_dev,
        &pred.dev,
        delta,
        ctx.seed ^ 1,
    );
    let mut m = QaModel::new(entry.profile.clone());
    m.train(&train);
    let e = m.evaluate(&dev);
    (delta, e.em, e.f1)
}

fn predict_answers(model: &QaModel, examples: &[QaExample]) -> Vec<String> {
    examples
        .iter()
        .map(|ex| model.predict(&ex.question, &ex.context).text)
        .collect()
}

/// Per-example coin flip with probability δ selects the predicted-answer
/// evidence, otherwise the ground-truth one (paper: "randomly substitute
/// δ percent of ground-truth answers with predicted answers").
fn mix_splits(
    examples: &[QaExample],
    gt: &[Option<Distillation>],
    pred: &[Option<Distillation>],
    delta: f64,
    seed: u64,
) -> Vec<QaExample> {
    let chosen: Vec<Option<Distillation>> = examples
        .iter()
        .enumerate()
        .map(|(i, ex)| {
            let mut h = DefaultHasher::new();
            seed.hash(&mut h);
            ex.id.hash(&mut h);
            let u = (h.finish() % 10_000) as f64 / 10_000.0;
            let take_pred = u < delta;
            if take_pred {
                pred[i].clone().or_else(|| gt[i].clone())
            } else {
                gt[i].clone()
            }
        })
        .collect();
    replace_contexts(examples, &chosen)
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// A shared smoke-scale context (preparation costs seconds).
    fn ctx() -> &'static ExperimentContext {
        static CTX: OnceLock<ExperimentContext> = OnceLock::new();
        CTX.get_or_init(|| ExperimentContext::prepare(DatasetKind::Squad11, Scale::smoke(), 42))
    }

    #[test]
    fn context_caches_evidences() {
        let c = ctx();
        assert_eq!(c.gt_train.len(), c.dataset.train.len());
        assert_eq!(c.gt_dev.len(), c.dataset.dev.len());
        let n_some = c.gt_dev.iter().flatten().count();
        assert!(n_some > 0, "no dev evidences distilled");
        assert!(c.mean_word_reduction() > 0.2);
    }

    #[test]
    fn evidence_split_replaces_contexts() {
        let c = ctx();
        let ev = c.evidence_dev();
        let changed = ev
            .iter()
            .zip(&c.dataset.dev.examples)
            .filter(|(a, b)| a.context != b.context)
            .count();
        assert!(changed > 0);
        // Evidences must be shorter on average.
        let before: usize = c.dataset.dev.examples.iter().map(|e| e.context.len()).sum();
        let after: usize = ev.iter().map(|e| e.context.len()).sum();
        assert!(after < before);
    }

    #[test]
    fn qa_augmentation_improves_models() {
        let c = ctx();
        let zoo = &gced_qa::zoo::squad_models()[..2];
        let (ev_train, ev_dev) = (c.evidence_train(), c.evidence_dev());
        let rows: Vec<QaRow> = zoo
            .iter()
            .map(|entry| qa_augmentation_row(c, entry, &ev_train, &ev_dev))
            .collect();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            assert!(
                r.gced.f1 >= r.base.f1 - 3.0,
                "{}: GCED F1 {} far below base {}",
                r.model,
                r.gced.f1,
                r.base.f1
            );
        }
        // At least one model must show a real gain.
        assert!(rows.iter().any(|r| r.gced.f1 > r.base.f1));
    }

    #[test]
    fn human_eval_produces_rows_with_gt_last() {
        let c = ctx();
        let zoo = &gced_qa::zoo::squad_models()[..1];
        let rows = [
            human_eval_model_row(c, &zoo[0], Scale::smoke()),
            human_eval_gt_row(c, Scale::smoke()),
        ];
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.last().unwrap().source, "Ground-truth");
        for r in &rows {
            assert!(r.outcome.rated > 0, "{} rated nothing", r.source);
            assert!(
                r.outcome.hybrid > 0.4,
                "{}: H = {}",
                r.source,
                r.outcome.hybrid
            );
        }
    }

    #[test]
    fn degradation_points_cover_deltas() {
        let c = ctx();
        let entry = &gced_qa::zoo::squad_models()[0];
        let pred = predicted_evidences(c, entry);
        let points: Vec<(f64, f64, f64)> = [0.0, 1.0]
            .iter()
            .map(|&delta| degradation_point(c, entry, &pred, delta))
            .collect();
        assert_eq!(points.len(), 2);
        let em0 = points[0].1;
        let em1 = points[1].1;
        assert!(
            em1 <= em0 + 10.0,
            "full substitution should not beat gt by much: {em0} -> {em1}"
        );
    }

    #[test]
    #[should_panic(expected = "predicted-answer slice has 1 entry")]
    fn distill_split_rejects_mismatched_answer_slice() {
        let c = ctx();
        let too_short = vec!["Denver Broncos".to_string()];
        let _ = distill_split_range(
            &c.gced,
            "qa_augmentation",
            &c.dataset.dev.examples,
            Some(&too_short),
            0..c.dataset.dev.len(),
        );
    }

    #[test]
    fn paper_hybrid_follows_table_and_variant() {
        assert_eq!(paper_hybrid(DatasetKind::Squad11, 0), 0.84);
        assert_eq!(paper_hybrid(DatasetKind::Squad20, 0), 0.85);
        assert_eq!(paper_hybrid(DatasetKind::TriviaWeb, 9), 0.85);
        assert_eq!(paper_hybrid(DatasetKind::TriviaWiki, 9), 0.83);
        assert_eq!(PAPER_ABLATION.len(), ablation_variants().len());
    }

    #[test]
    fn variant_mapping() {
        assert_eq!(variant_of(DatasetKind::Squad11), Variant::V1);
        assert_eq!(variant_of(DatasetKind::Squad20), Variant::V2);
        assert_eq!(variant_of(DatasetKind::TriviaWeb), Variant::V1);
        assert_eq!(variant_of(DatasetKind::TriviaWiki), Variant::V2);
    }
}
