//! End-to-end integration tests spanning all crates: generate a dataset,
//! fit the pipeline, distill, and check the paper's qualitative claims.

use gced::{Ablation, ClipMode, Gced, GcedConfig};
use gced_datasets::{generate, DatasetKind, GeneratorConfig};
use std::sync::OnceLock;

struct Fixture {
    gced: Gced,
    dataset: gced_datasets::Dataset,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let dataset = generate(
            DatasetKind::Squad11,
            GeneratorConfig {
                train: 200,
                dev: 60,
                seed: 11,
            },
        );
        let gced = Gced::fit(&dataset, GcedConfig::default());
        Fixture { gced, dataset }
    })
}

#[test]
fn distills_every_answerable_dev_example() {
    let fix = fixture();
    let mut ok = 0;
    let mut total = 0;
    for ex in fix
        .dataset
        .dev
        .examples
        .iter()
        .filter(|e| e.answerable)
        .take(20)
    {
        total += 1;
        if fix
            .gced
            .distill(&ex.question, &ex.answer, &ex.context)
            .is_ok()
        {
            ok += 1;
        }
    }
    assert_eq!(ok, total, "distillation failed on {}/{total}", total - ok);
}

#[test]
fn evidences_are_informative_concise_readable_on_average() {
    let fix = fixture();
    let mut i_scores = Vec::new();
    let mut reductions = Vec::new();
    let mut readabilities = Vec::new();
    for ex in fix
        .dataset
        .dev
        .examples
        .iter()
        .filter(|e| e.answerable)
        .take(24)
    {
        let d = fix
            .gced
            .distill(&ex.question, &ex.answer, &ex.context)
            .unwrap();
        i_scores.push(d.scores.informativeness);
        reductions.push(d.word_reduction);
        readabilities.push(d.scores.readability);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(
        mean(&i_scores) > 0.6,
        "mean informativeness {}",
        mean(&i_scores)
    );
    assert!(
        mean(&reductions) > 0.5,
        "mean reduction {}",
        mean(&reductions)
    );
    assert!(
        mean(&readabilities) > 0.1,
        "mean readability {}",
        mean(&readabilities)
    );
}

#[test]
fn evidence_tokens_come_from_the_context() {
    let fix = fixture();
    for ex in fix
        .dataset
        .dev
        .examples
        .iter()
        .filter(|e| e.answerable)
        .take(12)
    {
        let d = fix
            .gced
            .distill(&ex.question, &ex.answer, &ex.context)
            .unwrap();
        let ctx_words: std::collections::HashSet<String> = gced_text::analyze(&ex.context)
            .tokens
            .iter()
            .map(|t| t.text.to_string())
            .collect();
        for tok in &d.evidence_tokens {
            assert!(
                ctx_words.contains(tok),
                "{}: token {tok:?} not from context",
                ex.id
            );
        }
    }
}

#[test]
fn evidence_token_order_is_by_original_index() {
    // "rearrange nodes in terms of the indexes" (Sec. III-F): evidence
    // tokens must appear in the same order as in the AOS text.
    let fix = fixture();
    for ex in fix
        .dataset
        .dev
        .examples
        .iter()
        .filter(|e| e.answerable)
        .take(8)
    {
        let d = fix
            .gced
            .distill(&ex.question, &ex.answer, &ex.context)
            .unwrap();
        let aos_tokens: Vec<String> = gced_text::analyze(&d.aos_text)
            .tokens
            .iter()
            .map(|t| t.text.to_string())
            .collect();
        // Evidence tokens must be a subsequence of the AOS token stream.
        let mut pos = 0usize;
        for tok in &d.evidence_tokens {
            let found = aos_tokens[pos..].iter().position(|t| t == tok);
            assert!(
                found.is_some(),
                "{}: {tok:?} breaks subsequence order",
                ex.id
            );
            pos += found.unwrap() + 1;
        }
    }
}

#[test]
fn works_on_all_four_dataset_kinds() {
    for kind in DatasetKind::all() {
        let ds = generate(
            kind,
            GeneratorConfig {
                train: 100,
                dev: 20,
                seed: 3,
            },
        );
        let gced = Gced::fit(&ds, GcedConfig::default());
        let ex = ds
            .dev
            .examples
            .iter()
            .find(|e| e.answerable)
            .expect("answerable example");
        let d = gced.distill(&ex.question, &ex.answer, &ex.context).unwrap();
        assert!(
            !d.evidence_tokens.is_empty(),
            "{kind:?} produced empty evidence"
        );
    }
}

#[test]
fn clip_mode_fixed_bounds_clip_count() {
    let fix = fixture();
    for m in [0usize, 1, 2] {
        let cfg = GcedConfig {
            clip: ClipMode::Fixed(m),
            ..GcedConfig::default()
        };
        let pipeline = fix.gced.clone().with_config(cfg);
        let ex = fix
            .dataset
            .dev
            .examples
            .iter()
            .find(|e| e.answerable)
            .unwrap();
        let d = pipeline
            .distill(&ex.question, &ex.answer, &ex.context)
            .unwrap();
        assert!(
            d.trace.clip_steps.len() <= m,
            "M={m}, clipped {}",
            d.trace.clip_steps.len()
        );
    }
}

#[test]
fn every_single_ablation_variant_runs() {
    let fix = fixture();
    let ex = fix
        .dataset
        .dev
        .examples
        .iter()
        .find(|e| e.answerable)
        .unwrap();
    for c in Ablation::table8_rows() {
        let cfg = GcedConfig {
            ablation: Ablation::without(c),
            ..GcedConfig::default()
        };
        let pipeline = fix.gced.clone().with_config(cfg);
        let d = pipeline
            .distill(&ex.question, &ex.answer, &ex.context)
            .unwrap_or_else(|e| panic!("w/o {c} failed: {e}"));
        assert!(
            !d.evidence_tokens.is_empty(),
            "w/o {c} emitted empty evidence"
        );
    }
}

#[test]
fn grow_ablation_disconnects_and_clip_ablation_lengthens() {
    let fix = fixture();
    let ex = fix
        .dataset
        .dev
        .examples
        .iter()
        .find(|e| e.answerable)
        .unwrap();
    let full = fix
        .gced
        .distill(&ex.question, &ex.answer, &ex.context)
        .unwrap();
    let no_grow_cfg = GcedConfig {
        ablation: Ablation::without("Grow"),
        ..GcedConfig::default()
    };
    let no_grow = fix
        .gced
        .clone()
        .with_config(no_grow_cfg)
        .distill(&ex.question, &ex.answer, &ex.context)
        .unwrap();
    assert!(no_grow.trace.grow_steps.is_empty());
    let no_clip_cfg = GcedConfig {
        ablation: Ablation::without("Clip"),
        ..GcedConfig::default()
    };
    let no_clip = fix
        .gced
        .clone()
        .with_config(no_clip_cfg)
        .distill(&ex.question, &ex.answer, &ex.context)
        .unwrap();
    assert!(no_clip.trace.clip_steps.is_empty());
    assert!(no_clip.evidence_tokens.len() >= full.evidence_tokens.len());
}

#[test]
fn determinism_across_fresh_pipelines() {
    let ds = generate(
        DatasetKind::Squad11,
        GeneratorConfig {
            train: 100,
            dev: 20,
            seed: 5,
        },
    );
    let a = Gced::fit(&ds, GcedConfig::default());
    let b = Gced::fit(&ds, GcedConfig::default());
    let ex = ds.dev.examples.iter().find(|e| e.answerable).unwrap();
    let da = a.distill(&ex.question, &ex.answer, &ex.context).unwrap();
    let db = b.distill(&ex.question, &ex.answer, &ex.context).unwrap();
    assert_eq!(da.evidence, db.evidence);
}
