//! Smoke tests for the experiment harness: every table/figure row
//! function produces well-formed output at smoke scale, and the paper's
//! headline directional claims hold.

use gced_datasets::DatasetKind;
use gced_eval::experiments::{self, ExperimentContext, QaRow};
use gced_eval::Scale;
use gced_qa::zoo::{self, ZooEntry};
use std::sync::OnceLock;

fn squad_ctx() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::prepare(DatasetKind::Squad11, Scale::smoke(), 42))
}

fn trivia_ctx() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| ExperimentContext::prepare(DatasetKind::TriviaWeb, Scale::smoke(), 42))
}

/// Tables VI/VII rows for `models` over one context's evidence splits.
fn qa_rows(ctx: &ExperimentContext, models: &[ZooEntry]) -> Vec<QaRow> {
    let (ev_train, ev_dev) = (ctx.evidence_train(), ctx.evidence_dev());
    models
        .iter()
        .map(|entry| experiments::qa_augmentation_row(ctx, entry, &ev_train, &ev_dev))
        .collect()
}

#[test]
fn word_reduction_is_higher_on_trivia_than_squad() {
    // Paper Sec. IV-D1: 78.5% on SQuAD, 87.2% on TriviaQA.
    let squad = squad_ctx().mean_word_reduction();
    let trivia = trivia_ctx().mean_word_reduction();
    assert!(squad > 0.4, "squad reduction {squad}");
    assert!(trivia > squad, "trivia {trivia} <= squad {squad}");
}

#[test]
fn table4_human_eval_rows_are_plausible() {
    let mut rows: Vec<_> = zoo::squad_models()[..2]
        .iter()
        .map(|entry| experiments::human_eval_model_row(squad_ctx(), entry, Scale::smoke()))
        .collect();
    rows.push(experiments::human_eval_gt_row(squad_ctx(), Scale::smoke()));
    assert_eq!(rows.len(), 3); // 2 models + ground truth
    for r in &rows {
        assert!(r.outcome.rated > 0, "{}: nothing rated", r.source);
        // Paper: all quality scores consistently > 0.75; at smoke scale
        // we allow a wider band but scores must be clearly high.
        assert!(
            r.outcome.hybrid > 0.55,
            "{}: H = {}",
            r.source,
            r.outcome.hybrid
        );
        assert!(
            r.word_reduction > 0.3,
            "{}: reduction {}",
            r.source,
            r.word_reduction
        );
    }
}

#[test]
fn table6_gains_emerge_without_injection() {
    let picked = [
        zoo::squad_models()[0].clone(),
        zoo::squad_models()[8].clone(),
    ];
    let rows = qa_rows(squad_ctx(), &picked);
    // Mean gain across models must be positive (paper: +3.5% EM avg).
    let mean_gain: f64 =
        rows.iter().map(|r| r.gced.em - r.base.em).sum::<f64>() / rows.len() as f64;
    assert!(mean_gain > 0.0, "mean EM gain {mean_gain}");
}

#[test]
fn table7_gains_are_larger_on_trivia() {
    let squad_rows = qa_rows(squad_ctx(), &zoo::squad_models()[..1]);
    let trivia_rows = qa_rows(trivia_ctx(), &zoo::trivia_models()[..1]);
    let squad_gain = squad_rows[0].gced.f1 - squad_rows[0].base.f1;
    let trivia_gain = trivia_rows[0].gced.f1 - trivia_rows[0].base.f1;
    // Paper: avg F1 gain +1.5-4.2% on SQuAD vs +14.6-15% on TriviaQA.
    assert!(
        trivia_gain > squad_gain,
        "trivia gain {trivia_gain} <= squad gain {squad_gain}"
    );
}

#[test]
fn table2_alpha_values_exist_and_are_bounded() {
    let gt = experiments::human_eval_gt_row(squad_ctx(), Scale::smoke());
    for group in &gt.outcome.alpha {
        for a in group.iter().flatten() {
            assert!(*a <= 1.0 + 1e-9, "alpha {a} > 1");
            assert!(*a > -1.0, "alpha {a} degenerate");
        }
    }
}

#[test]
fn fig7_degradation_is_graceful() {
    let entry = &zoo::squad_models()[0];
    let pred = experiments::predicted_evidences(squad_ctx(), entry);
    let points: Vec<(f64, f64, f64)> = [0.0, 0.5, 1.0]
        .iter()
        .map(|&delta| experiments::degradation_point(squad_ctx(), entry, &pred, delta))
        .collect();
    assert_eq!(points.len(), 3);
    let em_gt = points[0].1;
    let em_full = points[2].1;
    // Paper Fig. 7: full substitution costs only a few EM points on
    // SQuAD. Allow generous smoke-scale slack but require the drop
    // to be bounded and non-catastrophic.
    assert!(
        em_full <= em_gt + 8.0,
        "substitution should not help: {em_gt} -> {em_full}"
    );
    assert!(
        em_full >= em_gt - 35.0,
        "catastrophic drop: {em_gt} -> {em_full}"
    );
}

#[test]
fn table8_ablation_shows_component_effects() {
    let bert = &zoo::squad_models()[0];
    let rows: Vec<_> = experiments::ablation_variants()
        .into_iter()
        .map(|(label, ablation)| {
            experiments::ablation_row(squad_ctx(), bert, Scale::smoke(), &label, ablation)
        })
        .collect();
    assert_eq!(rows.len(), 8); // 7 knockouts + full
    let full = rows.last().unwrap();
    assert_eq!(full.label, "BERT+GCED");
    // The full system must have the best (or tied-best) hybrid score
    // among all variants, as in Table VIII.
    for r in &rows[..rows.len() - 1] {
        assert!(
            full.outcome.hybrid >= r.outcome.hybrid - 0.08,
            "{} ({}) clearly beats full ({})",
            r.label,
            r.outcome.hybrid,
            full.outcome.hybrid
        );
    }
    // Clip removal must hurt conciseness (w/o Clip row, paper: C drops).
    let no_clip = rows.iter().find(|r| r.label == "w/o Clip").unwrap();
    assert!(
        no_clip.outcome.conciseness <= full.outcome.conciseness + 0.02,
        "w/o Clip conciseness {} vs full {}",
        no_clip.outcome.conciseness,
        full.outcome.conciseness
    );
}
