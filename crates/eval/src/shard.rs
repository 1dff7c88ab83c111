//! Sharded experiment runs with deterministic merge.
//!
//! A dataset-level experiment is decomposed into independent *items*
//! (dataset kinds for the Table III statistics, dev examples for
//! distillation runs). One shard executes a contiguous item range
//! ([`ShardSpec::range`]) and serializes its table rows and per-item
//! metrics as a [`ShardOutput`] (plain JSON); [`merge`] validates that
//! a set of shard outputs covers the run exactly — same experiment,
//! seed, scale, header, shard count, every shard present once, item
//! indices disjoint and in-range — and reassembles them into a
//! [`MergedRun`] whose rendering is **bit-identical to the
//! single-process run** for any shard count and any completion order.
//!
//! Identity holds because (a) every item's cells/metrics are computed
//! by a deterministic function of the shared artifacts (seeded dataset
//! generation, seeded fit) that every shard reconstructs identically,
//! and (b) the merge orders rows by global item index, erasing
//! scheduling. The property tests in `tests/shard_properties.rs` pin
//! both halves down.
//!
//! Every experiment is one [`Experiment`] entry of the [`EXPERIMENTS`]
//! registry — name, help line, item count, header, and a runner over a
//! shard's item range; one shared driver handles the rest, and the
//! `gced` CLI's experiment list derives from the same table.

use crate::experiments::{self, ExperimentContext};
use crate::protocol::RatingProtocol;
use crate::raters::RaterPanel;
use crate::rubric::Criterion;
use crate::scale::Scale;
use crate::tables::{pct, score, TextTable};
use gced::{Gced, GcedConfig};
use gced_datasets::json::{self, Json};
use gced_datasets::{generate, DatasetKind, GeneratorConfig, Grid, ShardSpec};
use std::ops::Range;
use std::path::Path;

/// On-disk format version of [`ShardOutput`].
const FORMAT_VERSION: u32 = 1;

/// Errors from shard execution, decoding, or merging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// Unknown experiment name.
    UnknownExperiment(String),
    /// Invalid shard spec or arguments.
    Spec(String),
    /// Malformed shard output JSON.
    Format(String),
    /// Shard outputs that do not assemble into one run.
    Merge(String),
    /// Fit-cache artifact I/O or validation failure.
    Cache(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::UnknownExperiment(n) => {
                let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
                write!(f, "unknown experiment {n:?} (expected one of {names:?})")
            }
            ShardError::Spec(m) => write!(f, "shard spec error: {m}"),
            ShardError::Format(m) => write!(f, "shard format error: {m}"),
            ShardError::Merge(m) => write!(f, "shard merge error: {m}"),
            ShardError::Cache(m) => write!(f, "fit cache error: {m}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// One table row produced by a shard, tagged with its global item index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardRow {
    /// Global item index in `0..n_items`.
    pub item: usize,
    /// Rendered cells (one per header column).
    pub cells: Vec<String>,
}

/// One per-item metric sample produced by a shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardMetric {
    /// Global item index in `0..n_items`.
    pub item: usize,
    /// Metric name (e.g. `word_reduction`).
    pub name: String,
    /// Finite sample value.
    pub value: f64,
}

/// The serializable result of one shard of an experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOutput {
    /// Experiment name (see [`EXPERIMENTS`]).
    pub experiment: String,
    /// Dataset kind the experiment ran on.
    pub kind: DatasetKind,
    /// The run's base seed (shared by every shard).
    pub seed: u64,
    /// Scale fingerprint (`train…-dev…-rated…`).
    pub scale_tag: String,
    /// Which shard this is.
    pub shard: ShardSpec,
    /// Total number of items in the full run.
    pub n_items: usize,
    /// Table header (identical across shards).
    pub header: Vec<String>,
    /// Rows for this shard's items, in item order.
    pub rows: Vec<ShardRow>,
    /// Metric samples for this shard's items, in item order.
    pub metrics: Vec<ShardMetric>,
}

/// Scale fingerprint recorded in shard outputs and validated at merge.
pub fn scale_tag(scale: Scale) -> String {
    format!("train{}-dev{}-rated{}", scale.train, scale.dev, scale.rated)
}

// ---------------------------------------------------------------------------
// Experiment registry
// ---------------------------------------------------------------------------

/// One shardable experiment: its items, its table, and the runner that
/// fills a shard's slice of them.
pub struct Experiment {
    /// CLI name (`gced run <name>`).
    pub name: &'static str,
    /// One-line description (the `gced` usage text lists it).
    pub help: &'static str,
    /// Published figures that have no column of their own, printed as
    /// the report's last line (empty: none).
    paper: &'static str,
    /// True when the runner distills or predicts and therefore needs
    /// the fitted pipeline.
    pub needs_fit: bool,
    /// Number of items of a run over a dataset kind at a scale.
    n_items: fn(DatasetKind, Scale) -> usize,
    /// Table header (one cell per column).
    header: &'static [&'static str],
    /// Produce the rows and metrics of a non-empty item range. Each
    /// runner prepares only the ground-truth caches its items read, so
    /// a shard's cost stays proportional to its share of the items.
    run: fn(&mut ShardJob),
}

/// The experiment registry, in `gced` usage order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        help: "human-evaluation rubric (Table I); items = the criteria",
        paper: "",
        needs_fit: false,
        n_items: |_, _| Criterion::all().len(),
        header: &["Criterion", "5", "4", "3", "2", "1"],
        run: run_table1,
    },
    Experiment {
        name: "table3",
        help: "dataset statistics (Table III); items = the dataset kinds",
        paper: "",
        needs_fit: false,
        n_items: |_, _| DatasetKind::all().len(),
        header: &[
            "Dataset",
            "Paper Train",
            "Paper Dev",
            "Gen Train",
            "Gen Dev",
            "Ctx words",
            "Answerable",
        ],
        run: run_table3,
    },
    Experiment {
        name: "reduction",
        help: "gt evidence word reduction (Sec. IV-D1); items = dev examples",
        paper: "mean gt word reduction 78.5% on SQuAD, 87.2% on TriviaQA",
        needs_fit: true,
        n_items: |_, scale| scale.dev,
        header: &["Example", "Evidence tokens", "Reduction"],
        run: run_reduction,
    },
    Experiment {
        name: "human_eval",
        help: "human evaluation (Tables IV/V); items = zoo models + gt row",
        paper: "mean gt word reduction (dev_word_reduction) 78.5% on SQuAD, 87.2% on TriviaQA",
        needs_fit: true,
        n_items: |kind, _| experiments::zoo_for(kind).len() + 1,
        header: &[
            "Source",
            "I",
            "C",
            "R",
            "Hybrid",
            "Rated",
            "Discarded",
            "Reduction",
            "paper H",
        ],
        run: run_human_eval,
    },
    Experiment {
        name: "agreement",
        help: "inter-rater agreement (Table II); items = the rater groups",
        paper: "items with per-item agreement < 0.7 are discarded (rated, discarded)",
        needs_fit: true,
        n_items: |_, _| RaterPanel::PAPER_GROUPS,
        header: &[
            "Group",
            "alpha I",
            "alpha C",
            "alpha R",
            "alpha Hybrid",
            "paper I",
            "paper C",
            "paper R",
            "paper Hybrid",
        ],
        run: run_agreement,
    },
    Experiment {
        name: "qa_augmentation",
        help: "QA models retrained on evidences (Tables VI/VII); items = models",
        paper: "mean gain EM +3.5-4.1%, F1 +1.5-4.2% relative on SQuAD; ~+13-16 EM absolute on TriviaQA",
        needs_fit: true,
        n_items: |kind, _| experiments::zoo_for(kind).len(),
        header: &[
            "Model",
            "Base EM",
            "Base F1",
            "+GCED EM",
            "+GCED F1",
            "Paper base",
            "Paper +GCED",
            "dF1",
        ],
        run: run_qa_augmentation,
    },
    Experiment {
        name: "ablation",
        help: "component knockouts (Table VIII); items = the variants",
        paper: "",
        needs_fit: true,
        n_items: |_, _| experiments::ablation_variants().len(),
        header: &[
            "Sources", "I", "C", "R", "H", "EM", "F1", "paper H", "paper EM",
        ],
        run: run_ablation,
    },
    Experiment {
        name: "design",
        help: "grow order, clip protection, M, Eq. 5 weights; items = variants",
        paper: "",
        needs_fit: true,
        n_items: |_, _| experiments::design_variants(0).len(),
        header: &["Variant", "I", "C", "R", "H", "mean tokens"],
        run: run_design,
    },
    Experiment {
        name: "degradation",
        help: "predicted-answer substitution (Fig. 7); items = model x delta",
        paper: "",
        needs_fit: true,
        n_items: |kind, _| experiments::zoo_for(kind).len() * experiments::DEGRADATION_DELTAS.len(),
        header: &["Model", "delta", "EM", "F1"],
        run: run_degradation,
    },
];

/// Look an experiment up by name.
pub fn experiment(name: &str) -> Result<&'static Experiment, ShardError> {
    EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| ShardError::UnknownExperiment(name.to_string()))
}

/// Fingerprint of the fitted substrates a run depends on. Stored in
/// the fit-cache artifact and verified on load, so an artifact from a
/// different dataset kind, scale, or seed fails loudly.
pub fn fit_fingerprint(kind: DatasetKind, scale: Scale, seed: u64) -> String {
    format!(
        "gced-fit:v1:{}:{}:{}",
        kind.cli_flag(),
        scale_tag(scale),
        seed
    )
}

fn fit_fresh(kind: DatasetKind, scale: Scale, seed: u64) -> Gced {
    let dataset = generate(
        kind,
        GeneratorConfig {
            train: scale.train,
            dev: scale.dev,
            seed,
        },
    );
    Gced::fit(
        &dataset,
        GcedConfig {
            seed,
            ..GcedConfig::default()
        },
    )
}

/// Obtain the fitted pipeline of a run, through the shared fit cache
/// when a path is given: load the artifact if it exists (validating
/// its fingerprint), otherwise fit once and publish the artifact
/// atomically (write-to-temp + rename). Because the encoding is
/// byte-deterministic, concurrent shard workers racing on one path can
/// only ever replace the file with identical bytes — whoever wins, the
/// mapped artifact is the same fit.
pub fn load_or_fit(
    kind: DatasetKind,
    scale: Scale,
    seed: u64,
    cache: Option<&Path>,
) -> Result<Gced, ShardError> {
    let Some(path) = cache else {
        return Ok(fit_fresh(kind, scale, seed));
    };
    let fingerprint = fit_fingerprint(kind, scale, seed);
    let config = GcedConfig {
        seed,
        ..GcedConfig::default()
    };
    match std::fs::read(path) {
        Ok(bytes) => gced::cache::decode(&bytes, &fingerprint, config)
            .map_err(|e| ShardError::Cache(format!("{}: {e}", path.display()))),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            let fitted = fit_fresh(kind, scale, seed);
            let bytes = gced::cache::encode(&fitted, &fingerprint);
            let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
            std::fs::write(&tmp, &bytes)
                .and_then(|()| std::fs::rename(&tmp, path))
                .map_err(|e| {
                    ShardError::Cache(format!("cannot publish {}: {e}", path.display()))
                })?;
            Ok(fitted)
        }
        Err(e) => Err(ShardError::Cache(format!(
            "cannot read {}: {e}",
            path.display()
        ))),
    }
}

/// Run one shard of a named experiment. With `fit_cache: Some(path)`,
/// co-located shard workers fit the pipeline once and map the
/// serialized artifact instead of re-fitting identical state per shard;
/// with `None` the runner fits fresh (and only when its item range is
/// non-empty). Output is bit-identical either way.
pub fn run_shard(
    experiment: &str,
    kind: DatasetKind,
    scale: Scale,
    seed: u64,
    shard: ShardSpec,
    fit_cache: Option<&Path>,
) -> Result<ShardOutput, ShardError> {
    let exp = self::experiment(experiment)?;
    // Resolve the cache before running so an unusable artifact fails
    // loudly up front.
    let fit = match fit_cache {
        Some(path) if exp.needs_fit => Some(load_or_fit(kind, scale, seed, Some(path))?),
        _ => None,
    };
    Ok(exp.run_shard(kind, scale, seed, shard, fit))
}

impl Experiment {
    /// The shared driver: size the run, hand the runner its item range
    /// (skipping it for an empty shard), and assemble the output.
    /// `fit` carries an already-fitted pipeline, or `None` to fit fresh
    /// inside the runner.
    fn run_shard(
        &self,
        kind: DatasetKind,
        scale: Scale,
        seed: u64,
        shard: ShardSpec,
        fit: Option<Gced>,
    ) -> ShardOutput {
        let n_items = (self.n_items)(kind, scale);
        let mut job = ShardJob {
            kind,
            scale,
            seed,
            shard,
            range: shard.range(n_items),
            fit,
            rows: Vec::new(),
            metrics: Vec::new(),
        };
        if !job.range.is_empty() {
            (self.run)(&mut job);
        }
        ShardOutput {
            experiment: self.name.to_string(),
            kind,
            seed,
            scale_tag: scale_tag(scale),
            shard,
            n_items,
            header: self.header.iter().map(|h| h.to_string()).collect(),
            rows: job.rows,
            metrics: job.metrics,
        }
    }
}

/// What a runner works on: the run identity, its shard and (non-empty)
/// item range, and the rows and metrics it emits.
struct ShardJob {
    kind: DatasetKind,
    scale: Scale,
    seed: u64,
    shard: ShardSpec,
    range: Range<usize>,
    fit: Option<Gced>,
    rows: Vec<ShardRow>,
    metrics: Vec<ShardMetric>,
}

impl ShardJob {
    /// Prepare the run's [`ExperimentContext`] around the resolved fit,
    /// with the train/dev ground-truth caches the runner reads (see
    /// [`ExperimentContext::prepare_fitted`]).
    fn context(&mut self, train: Option<ShardSpec>, dev: Option<ShardSpec>) -> ExperimentContext {
        let fit = self.fit.take();
        ExperimentContext::prepare_fitted(self.kind, self.scale, self.seed, fit, train, dev)
    }

    fn row(&mut self, item: usize, cells: Vec<String>) {
        self.rows.push(ShardRow { item, cells });
    }

    fn metric(&mut self, item: usize, name: &str, value: f64) {
        self.metrics.push(ShardMetric {
            item,
            name: name.to_string(),
            value,
        });
    }
}

/// Table I: one row per criterion, its level descriptions from 5 down
/// to 1.
fn run_table1(job: &mut ShardJob) {
    for item in job.range.clone() {
        let criterion = Criterion::all()[item];
        let mut cells = vec![criterion.name().to_string()];
        cells.extend(criterion.levels().iter().map(|l| l.to_string()));
        job.row(item, cells);
    }
}

/// Table III: one row per dataset kind (the run's own kind is unused).
fn run_table3(job: &mut ShardJob) {
    for item in job.range.clone() {
        let kind = DatasetKind::all()[item];
        let (pt, pd) = kind.paper_sizes();
        let ds = generate(
            kind,
            GeneratorConfig {
                train: job.scale.train,
                dev: job.scale.dev,
                seed: job.seed,
            },
        );
        let answerable = ds
            .train
            .examples
            .iter()
            .chain(&ds.dev.examples)
            .filter(|e| e.answerable)
            .count() as f64
            / (ds.train.len() + ds.dev.len()) as f64;
        let ctx_words = ds.mean_context_words();
        job.row(
            item,
            vec![
                kind.name().to_string(),
                pt.to_string(),
                pd.to_string(),
                ds.train.len().to_string(),
                ds.dev.len().to_string(),
                format!("{ctx_words:.0}"),
                format!("{:.0}%", answerable * 100.0),
            ],
        );
        job.metric(item, "ctx_words", ctx_words);
        job.metric(item, "answerable", answerable);
    }
}

/// Sec. IV-D1: one row per dev example; the shard distills only its
/// own slice of the dev cache and skips the train cache.
fn run_reduction(job: &mut ShardJob) {
    let ctx = job.context(None, Some(job.shard));
    for item in job.range.clone() {
        // Unanswerable / failed examples produce no row, so shards may
        // contribute fewer rows than items — the merge allows that.
        if let Some(d) = &ctx.gt_dev[item] {
            job.row(
                item,
                vec![
                    ctx.dataset.dev.examples[item].id.clone(),
                    d.evidence_tokens.len().to_string(),
                    format!("{:.1}%", d.word_reduction * 100.0),
                ],
            );
            job.metric(item, "word_reduction", d.word_reduction);
        }
    }
}

/// Tables IV/V: the kind's zoo models plus a final ground-truth row,
/// next to the published hybrid score. Only the shard owning the
/// ground-truth row pays for the dev evidence cache; that row also
/// carries the mean reduction over the whole dev cache.
fn run_human_eval(job: &mut ShardJob) {
    let zoo = experiments::zoo_for(job.kind);
    let owns_gt = job.range.contains(&zoo.len());
    let ctx = job.context(None, owns_gt.then(ShardSpec::single));
    for item in job.range.clone() {
        let row = match zoo.get(item) {
            Some(entry) => experiments::human_eval_model_row(&ctx, entry, job.scale),
            None => experiments::human_eval_gt_row(&ctx, job.scale),
        };
        job.row(
            item,
            vec![
                row.source.clone(),
                score(row.outcome.informativeness),
                score(row.outcome.conciseness),
                score(row.outcome.readability),
                score(row.outcome.hybrid),
                row.outcome.rated.to_string(),
                row.outcome.discarded.to_string(),
                format!("{:.1}%", row.word_reduction * 100.0),
                score(experiments::paper_hybrid(job.kind, item)),
            ],
        );
        job.metric(item, "hybrid", row.outcome.hybrid);
        job.metric(item, "word_reduction", row.word_reduction);
        if item == zoo.len() {
            job.metric(item, "dev_word_reduction", ctx.mean_word_reduction());
        }
    }
}

/// Table II: one row per rater group — its per-criterion Krippendorff's
/// α over the pooled mixed-quality item set, next to the published α.
/// Every shard reconstructs the (deterministic) pooled ratings and
/// emits only the groups it owns; each row carries the pooled item
/// counts.
fn run_agreement(job: &mut ShardJob) {
    // The pooled sources read the dev gt cache in full.
    let ctx = job.context(None, Some(ShardSpec::single()));
    let weak = &experiments::zoo_for(job.kind)[0];
    let items = experiments::agreement_items(&ctx, weak, job.scale);
    let outcome = RatingProtocol::paper(ctx.seed).run(&items);
    let metric_names = ["alpha_i", "alpha_c", "alpha_r", "alpha_hybrid"];
    for item in job.range.clone() {
        // Direct index: a panel whose group count drifts from
        // PAPER_GROUPS must fail loudly, not emit a short table.
        let mut cells = vec![format!("Group {}", item + 1)];
        for (name, a) in metric_names.iter().zip(outcome.alpha[item]) {
            match a {
                Some(a) => {
                    cells.push(score(a));
                    job.metric(item, name, a);
                }
                None => cells.push("n/a".to_string()),
            }
        }
        cells.extend(experiments::PAPER_ALPHA[item].map(score));
        job.row(item, cells);
        job.metric(item, "rated", outcome.rated as f64);
        job.metric(item, "discarded", outcome.discarded as f64);
    }
}

/// Tables VI/VII: one row per zoo model — measured base vs +GCED EM/F1,
/// the published reference numbers, and the F1 delta.
fn run_qa_augmentation(job: &mut ShardJob) {
    // Evidence splits come from the full gt caches.
    let all = Some(ShardSpec::single());
    let ctx = job.context(all, all);
    let zoo = experiments::zoo_for(job.kind);
    let ev_train = ctx.evidence_train();
    let ev_dev = ctx.evidence_dev();
    for item in job.range.clone() {
        let row = experiments::qa_augmentation_row(&ctx, &zoo[item], &ev_train, &ev_dev);
        let f1_gain = row.gced.f1 - row.base.f1;
        job.row(
            item,
            vec![
                row.model.clone(),
                pct(row.base.em),
                pct(row.base.f1),
                pct(row.gced.em),
                pct(row.gced.f1),
                format!("{}/{}", pct(row.paper_base.0), pct(row.paper_base.1)),
                format!("{}/{}", pct(row.paper_gced.0), pct(row.paper_gced.1)),
                format!("{f1_gain:+.1}"),
            ],
        );
        job.metric(item, "base_f1", row.base.f1);
        job.metric(item, "gced_f1", row.gced.f1);
        job.metric(item, "f1_gain", f1_gain);
        job.metric(item, "em_gain", row.gced.em - row.base.em);
    }
}

/// Table VIII: one row per [`experiments::ablation_variants`] entry,
/// next to the published (SQuAD-2.0) H and EM.
fn run_ablation(job: &mut ShardJob) {
    // Each variant re-distills both splits itself; the gt caches are
    // never read.
    let ctx = job.context(None, None);
    let variants = experiments::ablation_variants();
    let bert = &experiments::zoo_for(job.kind)[0];
    for item in job.range.clone() {
        let (label, ablation) = variants[item].clone();
        let row = experiments::ablation_row(&ctx, bert, job.scale, &label, ablation);
        let (paper_h, paper_em) = experiments::PAPER_ABLATION[item];
        job.row(
            item,
            vec![
                row.label.clone(),
                score(row.outcome.informativeness),
                score(row.outcome.conciseness),
                score(row.outcome.readability),
                score(row.outcome.hybrid),
                pct(row.em),
                pct(row.f1),
                score(paper_h),
                pct(paper_em),
            ],
        );
        job.metric(item, "hybrid", row.outcome.hybrid);
        job.metric(item, "f1", row.f1);
    }
}

/// The design-choice sweep: one row per
/// [`experiments::design_variants`] entry.
fn run_design(job: &mut ShardJob) {
    // Distills the rated pool itself; the gt caches are never read.
    let ctx = job.context(None, None);
    let variants = experiments::design_variants(job.seed);
    for item in job.range.clone() {
        let (label, config) = variants[item].clone();
        let (outcome, mean_tokens) = experiments::design_row(&ctx, job.scale, label, config);
        job.row(
            item,
            vec![
                label.to_string(),
                score(outcome.informativeness),
                score(outcome.conciseness),
                score(outcome.readability),
                score(outcome.hybrid),
                format!("{mean_tokens:.1}"),
            ],
        );
        job.metric(item, "hybrid", outcome.hybrid);
        job.metric(item, "mean_tokens", mean_tokens);
    }
}

/// Fig. 7: items form a (model × δ) [`Grid`]. A shard builds the
/// expensive per-model artifacts (trained baseline, predicted-answer
/// evidences) once per grid row it touches, then evaluates only its
/// own cells.
fn run_degradation(job: &mut ShardJob) {
    // Mixing substitutes into the full gt evidence caches.
    let all = Some(ShardSpec::single());
    let ctx = job.context(all, all);
    let zoo = experiments::zoo_for(job.kind);
    let deltas = experiments::DEGRADATION_DELTAS;
    let grid = Grid::new(zoo.len(), deltas.len());
    for model_idx in grid.rows_of(&job.range) {
        let entry = &zoo[model_idx];
        let pred = experiments::predicted_evidences(&ctx, entry);
        for (col, &delta) in deltas.iter().enumerate() {
            let item = grid.item(model_idx, col);
            if !job.range.contains(&item) {
                continue;
            }
            let (delta, em, f1) = experiments::degradation_point(&ctx, entry, &pred, delta);
            job.row(
                item,
                vec![
                    entry.profile.name.clone(),
                    format!("{delta:.1}"),
                    pct(em),
                    pct(f1),
                ],
            );
            job.metric(item, "em", em);
            job.metric(item, "f1", f1);
        }
    }
}

// ---------------------------------------------------------------------------
// JSON codec
// ---------------------------------------------------------------------------

impl ShardOutput {
    /// Serialize as plain JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\"format\":");
        out.push_str(&FORMAT_VERSION.to_string());
        out.push_str(",\"experiment\":");
        json::push_string(&mut out, &self.experiment);
        out.push_str(",\"kind\":");
        json::push_string(&mut out, self.kind.name());
        // The seed travels as a string: it is a full-range u64, and the
        // JSON number path would round it through f64 above 2^53.
        out.push_str(",\"seed\":");
        json::push_string(&mut out, &self.seed.to_string());
        out.push_str(",\"scale\":");
        json::push_string(&mut out, &self.scale_tag);
        out.push_str(",\"shard_index\":");
        out.push_str(&self.shard.index.to_string());
        out.push_str(",\"shard_of\":");
        out.push_str(&self.shard.of.to_string());
        out.push_str(",\"n_items\":");
        out.push_str(&self.n_items.to_string());
        out.push_str(",\"header\":[");
        for (i, h) in self.header.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_string(&mut out, h);
        }
        out.push_str("],\"rows\":[");
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"item\":");
            out.push_str(&row.item.to_string());
            out.push_str(",\"cells\":[");
            for (j, c) in row.cells.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                json::push_string(&mut out, c);
            }
            out.push_str("]}");
        }
        out.push_str("],\"metrics\":[");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"item\":");
            out.push_str(&m.item.to_string());
            out.push_str(",\"name\":");
            json::push_string(&mut out, &m.name);
            out.push_str(",\"value\":");
            json::push_f64(&mut out, m.value);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Parse a [`ShardOutput::to_json`] document.
    pub fn from_json(text: &str) -> Result<Self, ShardError> {
        let root = json::parse(text).map_err(|e| ShardError::Format(e.to_string()))?;
        let num = |key: &str| -> Result<f64, ShardError> {
            root.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| ShardError::Format(format!("missing numeric field {key:?}")))
        };
        let string = |key: &str| -> Result<String, ShardError> {
            root.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| ShardError::Format(format!("missing string field {key:?}")))
        };
        let format = num("format")? as u32;
        if format != FORMAT_VERSION {
            return Err(ShardError::Format(format!(
                "unsupported shard format {format} (expected {FORMAT_VERSION})"
            )));
        }
        let kind_name = string("kind")?;
        let kind = DatasetKind::from_name(&kind_name)
            .ok_or_else(|| ShardError::Format(format!("unknown dataset kind {kind_name:?}")))?;
        let shard = ShardSpec::new(num("shard_index")? as usize, num("shard_of")? as usize)
            .map_err(ShardError::Spec)?;
        let header = root
            .get("header")
            .and_then(Json::as_arr)
            .ok_or_else(|| ShardError::Format("missing header".to_string()))?
            .iter()
            .map(|h| {
                h.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| ShardError::Format("non-string header cell".to_string()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let rows = root
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or_else(|| ShardError::Format("missing rows".to_string()))?
            .iter()
            .map(|r| {
                let item = r
                    .get("item")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| ShardError::Format("row missing item".to_string()))?
                    as usize;
                let cells = r
                    .get("cells")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| ShardError::Format("row missing cells".to_string()))?
                    .iter()
                    .map(|c| {
                        c.as_str()
                            .map(str::to_string)
                            .ok_or_else(|| ShardError::Format("non-string cell".to_string()))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(ShardRow { item, cells })
            })
            .collect::<Result<Vec<_>, ShardError>>()?;
        let metrics = root
            .get("metrics")
            .and_then(Json::as_arr)
            .ok_or_else(|| ShardError::Format("missing metrics".to_string()))?
            .iter()
            .map(|m| {
                let item = m
                    .get("item")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| ShardError::Format("metric missing item".to_string()))?
                    as usize;
                let name = m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| ShardError::Format("metric missing name".to_string()))?
                    .to_string();
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| ShardError::Format("non-finite metric value".to_string()))?;
                Ok(ShardMetric { item, name, value })
            })
            .collect::<Result<Vec<_>, ShardError>>()?;
        let seed = string("seed")?
            .parse::<u64>()
            .map_err(|_| ShardError::Format("seed is not a u64".to_string()))?;
        Ok(ShardOutput {
            experiment: string("experiment")?,
            kind,
            seed,
            scale_tag: string("scale")?,
            shard,
            n_items: num("n_items")? as usize,
            header,
            rows,
            metrics,
        })
    }
}

// ---------------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------------

/// A complete run reassembled from shard outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedRun {
    pub experiment: String,
    pub kind: DatasetKind,
    pub seed: u64,
    pub scale_tag: String,
    pub n_items: usize,
    pub header: Vec<String>,
    /// Rows in global item order.
    pub rows: Vec<ShardRow>,
    /// Metric samples in global item order.
    pub metrics: Vec<ShardMetric>,
}

/// Merge shard outputs into one run. Accepts the shards in **any
/// order** and validates that they form exactly one run: consistent
/// identity fields, every shard index present exactly once, and row /
/// metric items inside their shard's range with no duplicates.
pub fn merge(outputs: &[ShardOutput]) -> Result<MergedRun, ShardError> {
    let first = outputs
        .first()
        .ok_or_else(|| ShardError::Merge("no shard outputs to merge".to_string()))?;
    let of = first.shard.of;
    if outputs.len() != of {
        return Err(ShardError::Merge(format!(
            "expected {of} shard output(s), got {}",
            outputs.len()
        )));
    }
    let mut ordered: Vec<&ShardOutput> = Vec::with_capacity(of);
    for index in 0..of {
        let matches: Vec<&ShardOutput> =
            outputs.iter().filter(|o| o.shard.index == index).collect();
        match matches.as_slice() {
            [one] => ordered.push(one),
            [] => return Err(ShardError::Merge(format!("missing shard {index}/{of}"))),
            _ => return Err(ShardError::Merge(format!("duplicate shard {index}/{of}"))),
        }
    }
    for o in &ordered {
        let mismatch = |field: &str| {
            ShardError::Merge(format!(
                "{} disagrees on {field} (expected the {} of shard 0)",
                o.shard, first.experiment
            ))
        };
        if o.shard.of != of {
            return Err(ShardError::Merge(format!(
                "{} belongs to a {}-way split, not {of}",
                o.shard, o.shard.of
            )));
        }
        if o.experiment != first.experiment {
            return Err(mismatch("experiment"));
        }
        if o.kind != first.kind {
            return Err(mismatch("dataset kind"));
        }
        if o.seed != first.seed {
            return Err(mismatch("seed"));
        }
        if o.scale_tag != first.scale_tag {
            return Err(mismatch("scale"));
        }
        if o.n_items != first.n_items {
            return Err(mismatch("n_items"));
        }
        if o.header != first.header {
            return Err(mismatch("header"));
        }
        if o.header.is_empty() {
            return Err(ShardError::Merge("empty table header".to_string()));
        }
        let range = o.shard.range(o.n_items);
        for row in &o.rows {
            if !range.contains(&row.item) {
                return Err(ShardError::Merge(format!(
                    "{} produced row for item {} outside its range {range:?}",
                    o.shard, row.item
                )));
            }
            // Arity is validated here so a truncated/hand-edited shard
            // file errors instead of tripping TextTable's assert later.
            if row.cells.len() != o.header.len() {
                return Err(ShardError::Merge(format!(
                    "{} row for item {} has {} cell(s), header has {}",
                    o.shard,
                    row.item,
                    row.cells.len(),
                    o.header.len()
                )));
            }
        }
        for m in &o.metrics {
            if !range.contains(&m.item) {
                return Err(ShardError::Merge(format!(
                    "{} produced metric for item {} outside its range {range:?}",
                    o.shard, m.item
                )));
            }
        }
    }
    // Shard ranges are disjoint and `ordered` is in shard order, so
    // concatenation sorted by item is globally ordered; a stable sort
    // keeps multiple metrics of one item in production order.
    let mut rows: Vec<ShardRow> = ordered.iter().flat_map(|o| o.rows.clone()).collect();
    rows.sort_by_key(|r| r.item);
    let mut last = None;
    for r in &rows {
        if last == Some(r.item) {
            return Err(ShardError::Merge(format!(
                "duplicate row for item {}",
                r.item
            )));
        }
        last = Some(r.item);
    }
    let mut metrics: Vec<ShardMetric> = ordered.iter().flat_map(|o| o.metrics.clone()).collect();
    metrics.sort_by_key(|m| m.item);
    // A repeated (item, name) sample would silently skew the rendered
    // means — reject it like duplicate rows.
    let mut seen: std::collections::HashSet<(usize, &str)> = std::collections::HashSet::new();
    for m in &metrics {
        if !seen.insert((m.item, m.name.as_str())) {
            return Err(ShardError::Merge(format!(
                "duplicate metric {:?} for item {}",
                m.name, m.item
            )));
        }
    }
    Ok(MergedRun {
        experiment: first.experiment.clone(),
        kind: first.kind,
        seed: first.seed,
        scale_tag: first.scale_tag.clone(),
        n_items: first.n_items,
        header: first.header.clone(),
        rows,
        metrics,
    })
}

impl MergedRun {
    /// Render the canonical run report: header line, aligned table, TSV
    /// block, per-metric summaries, and the experiment's `paper:` line
    /// when it has one. The text depends only on merged
    /// content, never on shard count or completion order — the CI
    /// shard-parity step byte-compares this across shardings.
    pub fn render(&self) -> String {
        let mut out = format!(
            "experiment={} kind={} seed={} scale={} items={} rows={}\n",
            self.experiment,
            self.kind.name(),
            self.seed,
            self.scale_tag,
            self.n_items,
            self.rows.len()
        );
        let header: Vec<&str> = self.header.iter().map(String::as_str).collect();
        let mut table = TextTable::new(&header);
        for row in &self.rows {
            table.row(row.cells.clone());
        }
        out.push('\n');
        out.push_str(&table.render());
        out.push_str("\nTSV:\n");
        out.push_str(&table.render_tsv());
        // Metric summaries: names in order of first appearance; means
        // accumulate in global item order, so the floating-point sum is
        // reproduced exactly.
        let mut names: Vec<&str> = Vec::new();
        for m in &self.metrics {
            if !names.contains(&m.name.as_str()) {
                names.push(&m.name);
            }
        }
        for name in names {
            let values: Vec<f64> = self
                .metrics
                .iter()
                .filter(|m| m.name == name)
                .map(|m| m.value)
                .collect();
            let mean = values.iter().sum::<f64>() / values.len() as f64;
            out.push_str(&format!(
                "metric {name}: mean={mean:.6} n={}\n",
                values.len()
            ));
        }
        match experiment(&self.experiment) {
            Ok(e) if !e.paper.is_empty() => out.push_str(&format!("paper: {}\n", e.paper)),
            _ => {}
        }
        out
    }
}

/// Run every shard of an experiment in this process (fanning shards out
/// over the persistent `gced-par` pool) and merge — the in-process
/// alternative to spawning `gced shard` worker processes. The pipeline
/// is fitted **once** and shared by every shard (through the cache
/// artifact at `fit_cache` when given, purely in memory otherwise).
pub fn run_sharded_in_process(
    experiment: &str,
    kind: DatasetKind,
    scale: Scale,
    seed: u64,
    shards: usize,
    fit_cache: Option<&Path>,
) -> Result<MergedRun, ShardError> {
    let exp = self::experiment(experiment)?;
    let fit = if exp.needs_fit {
        Some(load_or_fit(kind, scale, seed, fit_cache)?)
    } else {
        None
    };
    let specs = ShardSpec::all(shards);
    let outputs: Vec<ShardOutput> = gced_par::par_map(&specs, |_, spec| {
        exp.run_shard(kind, scale, seed, *spec, fit.clone())
    });
    merge(&outputs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_output(shard: ShardSpec) -> ShardOutput {
        let mut rows = Vec::new();
        let mut metrics = Vec::new();
        for item in shard.range(10) {
            rows.push(ShardRow {
                item,
                cells: vec![format!("id-{item}"), (item * 3).to_string()],
            });
            metrics.push(ShardMetric {
                item,
                name: "m".to_string(),
                value: item as f64 / 7.0,
            });
        }
        ShardOutput {
            experiment: "synthetic".to_string(),
            kind: DatasetKind::Squad11,
            seed: 42,
            scale_tag: "train1-dev1-rated1".to_string(),
            shard,
            n_items: 10,
            header: vec!["Id".to_string(), "Value".to_string()],
            rows,
            metrics,
        }
    }

    #[test]
    fn to_json_byte_order_is_pinned() {
        // DET001 audit regression: shard documents are hand-emitted in a
        // fixed key order, so the exact bytes — not just the parsed
        // content — are stable. Merge tooling and artifact diffs rely on
        // this.
        let out = ShardOutput {
            experiment: "synthetic".to_string(),
            kind: DatasetKind::Squad11,
            seed: 42,
            scale_tag: "train1-dev1-rated1".to_string(),
            shard: ShardSpec::new(0, 2).unwrap(),
            n_items: 4,
            header: vec!["Id".to_string(), "Value".to_string()],
            rows: vec![ShardRow {
                item: 0,
                cells: vec!["id-0".to_string(), "0".to_string()],
            }],
            metrics: vec![ShardMetric {
                item: 0,
                name: "m".to_string(),
                value: 0.5,
            }],
        };
        let text = out.to_json();
        assert_eq!(text, out.to_json(), "to_json must be byte-stable");
        assert_eq!(
            text,
            concat!(
                "{\"format\":1,\"experiment\":\"synthetic\",\"kind\":\"SQuAD-1.1\",",
                "\"seed\":\"42\",\"scale\":\"train1-dev1-rated1\",\"shard_index\":0,",
                "\"shard_of\":2,\"n_items\":4,\"header\":[\"Id\",\"Value\"],",
                "\"rows\":[{\"item\":0,\"cells\":[\"id-0\",\"0\"]}],",
                "\"metrics\":[{\"item\":0,\"name\":\"m\",\"value\":0.5}]}",
            )
        );
    }

    #[test]
    fn json_roundtrip_preserves_output() {
        let out = tiny_output(ShardSpec::new(1, 3).unwrap());
        let back = ShardOutput::from_json(&out.to_json()).unwrap();
        assert_eq!(out, back);
    }

    #[test]
    fn json_roundtrip_preserves_full_range_seeds() {
        // Seeds above 2^53 must survive the wire format exactly (they
        // would round if routed through the JSON number path).
        let mut out = tiny_output(ShardSpec::single());
        out.seed = u64::MAX - 1;
        let back = ShardOutput::from_json(&out.to_json()).unwrap();
        assert_eq!(back.seed, u64::MAX - 1);
    }

    #[test]
    fn merge_is_order_invariant() {
        let mut outputs: Vec<ShardOutput> =
            ShardSpec::all(4).into_iter().map(tiny_output).collect();
        let merged = merge(&outputs).unwrap();
        outputs.reverse();
        let reversed = merge(&outputs).unwrap();
        assert_eq!(merged, reversed);
        assert_eq!(merged.render(), reversed.render());
        assert_eq!(merged.rows.len(), 10);
        // Also identical to the single-shard run.
        let single = merge(&[tiny_output(ShardSpec::single())]).unwrap();
        assert_eq!(single.render(), merged.render());
    }

    #[test]
    fn merge_rejects_incomplete_and_inconsistent_sets() {
        let outputs: Vec<ShardOutput> = ShardSpec::all(3).into_iter().map(tiny_output).collect();
        assert!(matches!(
            merge(&outputs[..2]).unwrap_err(),
            ShardError::Merge(_)
        ));
        let dup = vec![outputs[0].clone(), outputs[0].clone(), outputs[2].clone()];
        assert!(merge(&dup).is_err());
        let mut wrong_seed = outputs.clone();
        wrong_seed[1].seed = 7;
        assert!(merge(&wrong_seed).is_err());
        let mut out_of_range = outputs.clone();
        out_of_range[0].rows.push(ShardRow {
            item: 9,
            cells: vec!["x".to_string(), "y".to_string()],
        });
        assert!(merge(&out_of_range).is_err());
        let mut dup_metric = outputs.clone();
        let m = dup_metric[0].metrics[0].clone();
        dup_metric[0].metrics.push(m);
        let err = merge(&dup_metric).unwrap_err();
        assert!(err.to_string().contains("duplicate metric"), "{err}");
        let mut bad_arity = outputs.clone();
        bad_arity[1].rows[0].cells.pop();
        let err = merge(&bad_arity).unwrap_err();
        assert!(err.to_string().contains("cell(s)"), "{err}");
        let mut empty_header = outputs.clone();
        for o in &mut empty_header {
            o.header.clear();
            o.rows.clear();
        }
        assert!(merge(&empty_header).is_err());
        assert!(merge(&[]).is_err());
    }

    #[test]
    fn table3_sharded_matches_single_run() {
        let scale = Scale::smoke();
        let outputs: Vec<ShardOutput> = ShardSpec::all(3)
            .into_iter()
            .map(|s| run_shard("table3", DatasetKind::Squad11, scale, 42, s, None).unwrap())
            .collect();
        let merged = merge(&outputs).unwrap();
        let single = merge(&[run_shard(
            "table3",
            DatasetKind::Squad11,
            scale,
            42,
            ShardSpec::single(),
            None,
        )
        .unwrap()])
        .unwrap();
        assert_eq!(merged.render(), single.render());
        assert_eq!(merged.rows.len(), 4);
    }

    #[test]
    fn table1_lists_every_rubric_level() {
        let out = run_shard(
            "table1",
            DatasetKind::Squad11,
            Scale::smoke(),
            42,
            ShardSpec::single(),
            None,
        )
        .unwrap();
        let text = merge(&[out]).unwrap().render();
        for c in Criterion::all() {
            assert!(text.contains(c.name()), "missing {}", c.name());
            for level in c.levels() {
                assert!(text.contains(level), "missing {level:?}");
            }
        }
    }

    #[test]
    fn registry_names_are_unique_and_headers_nonempty() {
        for e in EXPERIMENTS {
            assert_eq!(EXPERIMENTS.iter().filter(|o| o.name == e.name).count(), 1);
            assert!(!e.header.is_empty(), "{} has no header", e.name);
            assert!(experiment(e.name).is_ok());
        }
    }

    #[test]
    fn unknown_experiment_errors() {
        let err = run_shard(
            "tableX",
            DatasetKind::Squad11,
            Scale::smoke(),
            42,
            ShardSpec::single(),
            None,
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown experiment"));
    }
}
