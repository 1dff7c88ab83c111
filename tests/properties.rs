//! Cross-crate property tests: invariants of the full distillation
//! pipeline over randomly generated QA examples.

use gced::{Gced, GcedConfig};
use gced_datasets::{generate, DatasetKind, GeneratorConfig};
use proptest::prelude::*;
use std::sync::OnceLock;

fn pipeline() -> &'static (Gced, gced_datasets::Dataset) {
    static P: OnceLock<(Gced, gced_datasets::Dataset)> = OnceLock::new();
    P.get_or_init(|| {
        let ds = generate(
            DatasetKind::Squad11,
            GeneratorConfig {
                train: 150,
                dev: 80,
                seed: 17,
            },
        );
        let g = Gced::fit(&ds, GcedConfig::default());
        (g, ds)
    })
}

/// Dev splits of every generator kind (no fitting), seed 9501.
fn kind_split(kind: usize) -> &'static gced_datasets::Dataset {
    static SPLITS: OnceLock<Vec<gced_datasets::Dataset>> = OnceLock::new();
    &SPLITS.get_or_init(|| {
        DatasetKind::all()
            .into_iter()
            .map(|k| {
                generate(
                    k,
                    GeneratorConfig {
                        train: 1,
                        dev: 64,
                        seed: 9501,
                    },
                )
            })
            .collect()
    })[kind]
}

/// Words that stress the span-F1 bound's per-token normalization: glued
/// clitics, brackets, article- and punctuation-only tokens, non-ASCII
/// text (with a Greek final sigma) and numbers.
const ODD_WORDS: &[&str] = &[
    "n't",
    "didn't",
    "DIDN'T",
    "won't",
    "Bob's",
    "'s",
    "it's",
    "(AFC)",
    "[x]",
    "{y}",
    "the",
    "The",
    "a",
    "an",
    "An",
    "A",
    "...",
    "!?",
    "--",
    "%",
    "50%",
    "\"",
    "'",
    "Σ",
    "ΟΔΟΣ",
    "ΟΔΟΣ's",
    "café",
    "naïve",
    "İstanbul",
    "Straße",
    "3.14",
    "1,000",
    "U.S.",
    "Dr.",
    "B.",
    "Broncos",
    "rock'n'roll",
    "Knowles-Carter",
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The allocation-free span-F1 bound equals the joined-string oracle
    /// bit for bit: on every generator kind, against the example's own
    /// answer, a neighbour's, and answers and contexts salted with odd
    /// words (including answers that normalize to nothing).
    #[test]
    fn ase_f1_bounds_match_reference_oracle(
        kind in 0usize..4,
        idx in 0usize..64,
        pick in 0usize..3,
        salt in prop::collection::vec(prop::sample::select(ODD_WORDS.to_vec()), 0..10),
    ) {
        let examples = &kind_split(kind).dev.examples;
        let ex = &examples[idx % examples.len()];
        let odd = salt.join(" ");
        let answer = match pick {
            0 => ex.answer.clone(),
            1 => examples[(idx + 1) % examples.len()].answer.clone(),
            _ => format!("{} {odd}", salt.first().copied().unwrap_or("")),
        };
        let context = format!("{odd} {}. {odd} {} {odd}", ex.answer, ex.context);
        let doc = gced_text::analyze(&context);
        let bits = |b: Vec<f64>| b.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        prop_assert_eq!(
            bits(gced::ase::sentence_f1_bounds(&doc, &answer)),
            bits(gced::ase::reference::sentence_f1_bounds(&doc, &answer))
        );
    }

    /// The projected answer-oriented sentences equal a fresh analysis of
    /// their joined text — tokens, tags, lemmas, offsets and sentence
    /// ranges — on every generator kind, for every subset shape ASE
    /// picks: single sentences, adjacent and skip-one pairs, the whole
    /// context. Generated prose never needs the re-analysis fallback.
    #[test]
    fn projected_aos_matches_reanalysis_on_every_kind(kind in 0usize..4, idx in 0usize..64) {
        let examples = &kind_split(kind).dev.examples;
        let doc = gced_text::analyze(&examples[idx % examples.len()].context);
        let n = doc.sentences.len();
        let mut subsets: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        subsets.extend((1..n).map(|i| vec![i - 1, i]));
        subsets.extend((2..n).map(|i| vec![i - 2, i]));
        subsets.push((0..n).collect());
        for subset in subsets {
            let text = gced::ase::subset_text(&doc, &subset);
            let view = doc.project_sentences(&subset, &text);
            prop_assert!(view.is_some(), "projection declined {:?}: {:?}", subset, text);
            prop_assert_eq!(view.unwrap(), gced_text::analyze(&text));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Distillation invariants on arbitrary answerable dev examples:
    /// evidence non-empty, reduction within [0, 1), scores bounded.
    #[test]
    fn distillation_invariants(idx in 0usize..80) {
        let (g, ds) = pipeline();
        let ex = &ds.dev.examples[idx % ds.dev.examples.len()];
        prop_assume!(ex.answerable);
        let d = g.distill(&ex.question, &ex.answer, &ex.context).unwrap();
        prop_assert!(!d.evidence_tokens.is_empty());
        prop_assert!((0.0..1.0).contains(&d.word_reduction));
        prop_assert!((0.0..=1.0).contains(&d.scores.informativeness));
        prop_assert!((0.0..=1.0).contains(&d.scores.readability));
        // Evidence is never longer than the answer-oriented sentences.
        let aos_len = gced_text::analyze(&d.aos_text).len();
        prop_assert!(d.evidence_tokens.len() <= aos_len);
    }

    /// The forest protection invariant: answer words located in the AOS
    /// always survive clipping.
    #[test]
    fn answer_words_survive_clipping(idx in 0usize..80) {
        let (g, ds) = pipeline();
        let ex = &ds.dev.examples[idx % ds.dev.examples.len()];
        prop_assume!(ex.answerable);
        let d = g.distill(&ex.question, &ex.answer, &ex.context).unwrap();
        prop_assume!(!d.trace.fallback);
        for word in &d.trace.answer_words {
            prop_assert!(
                d.evidence_tokens.iter().any(|t| t == word),
                "answer word {word:?} clipped from {:?}", d.evidence_tokens
            );
        }
    }

    /// Arbitrary garbage questions/answers never panic the pipeline.
    #[test]
    fn total_on_garbage_inputs(
        q in "[a-zA-Z ?]{1,40}",
        a in "[a-zA-Z ]{1,20}",
        c_idx in 0usize..80,
    ) {
        let (g, ds) = pipeline();
        let ex = &ds.dev.examples[c_idx % ds.dev.examples.len()];
        prop_assume!(a.trim().len() > 1);
        // Must return Ok or a well-defined error, never panic.
        let _ = g.distill(&q, &a, &ex.context);
    }

    /// Hybrid-score monotonicity used by SCS: clip steps recorded in the
    /// trace are strictly improving under WhileImproving mode.
    #[test]
    fn clip_steps_improve_hybrid(idx in 0usize..80) {
        let (g, ds) = pipeline();
        let ex = &ds.dev.examples[idx % ds.dev.examples.len()];
        prop_assume!(ex.answerable);
        let d = g.distill(&ex.question, &ex.answer, &ex.context).unwrap();
        for step in &d.trace.clip_steps {
            prop_assert!(
                step.hybrid_after > step.hybrid_before,
                "clip did not improve: {} -> {}", step.hybrid_before, step.hybrid_after
            );
        }
    }

    /// The incremental clip engine is bit-identical to the paper-literal
    /// reference oracle on the full pipeline: same evidence tokens, same
    /// scores, same step log, over randomized dev examples.
    #[test]
    fn optimized_clip_matches_reference_oracle(idx in 0usize..80) {
        let (g, ds) = pipeline();
        let ex = &ds.dev.examples[idx % ds.dev.examples.len()];
        prop_assume!(ex.answerable);
        let fast = g.distill(&ex.question, &ex.answer, &ex.context).unwrap();
        let oracle = g
            .distill_with_reference_clip(&ex.question, &ex.answer, &ex.context)
            .unwrap();
        prop_assert_eq!(&fast.evidence_tokens, &oracle.evidence_tokens);
        prop_assert_eq!(&fast.evidence, &oracle.evidence);
        prop_assert_eq!(fast.scores, oracle.scores);
        prop_assert_eq!(&fast.trace.clip_steps, &oracle.trace.clip_steps);
        prop_assert!((fast.word_reduction - oracle.word_reduction).abs() == 0.0);
    }

    /// The refactored grow search (ASE on the shared incremental
    /// engine, with span-score reuse and admissible F1-bound pruning)
    /// is bit-identical to the paper-literal `ase::reference` oracle on
    /// the full pipeline: same sentences, exact flag, best F1, and step
    /// log — and the end-to-end distillation (both phases through the
    /// reference formulations, the AOS analysed afresh instead of
    /// projected) matches byte for byte.
    #[test]
    fn optimized_grow_matches_reference_oracle(idx in 0usize..80) {
        let (g, ds) = pipeline();
        let ex = &ds.dev.examples[idx % ds.dev.examples.len()];
        prop_assume!(ex.answerable);
        let fast = g.distill(&ex.question, &ex.answer, &ex.context).unwrap();
        let oracle = g
            .distill_with_reference_search(&ex.question, &ex.answer, &ex.context)
            .unwrap();
        let (fa, oa) = (fast.trace.ase.as_ref(), oracle.trace.ase.as_ref());
        let fa = fa.expect("ASE ran");
        let oa = oa.expect("ASE ran");
        prop_assert_eq!(&fa.sentences, &oa.sentences);
        prop_assert_eq!(fa.exact, oa.exact);
        prop_assert_eq!(fa.best_f1.to_bits(), oa.best_f1.to_bits());
        prop_assert_eq!(fa.steps.len(), oa.steps.len());
        for (a, b) in fa.steps.iter().zip(&oa.steps) {
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        prop_assert_eq!(&fast.evidence_tokens, &oracle.evidence_tokens);
        prop_assert_eq!(&fast.evidence, &oracle.evidence);
        prop_assert_eq!(fast.scores, oracle.scores);
        prop_assert_eq!(&fast.trace.clip_steps, &oracle.trace.clip_steps);
    }

    /// Pruning soundness of the grow search: a trial's F1 never exceeds
    /// the max admissible per-sentence bound of its members, so a pruned
    /// candidate can never beat the round winner.
    #[test]
    fn ase_f1_bounds_are_admissible(idx in 0usize..40, mask in 1usize..64) {
        let (g, ds) = pipeline();
        let ex = &ds.dev.examples[idx % ds.dev.examples.len()];
        prop_assume!(ex.answerable);
        let doc = gced_text::analyze(&ex.context);
        let n = doc.sentences.len();
        prop_assume!(n > 0);
        let bounds = gced::ase::sentence_f1_bounds(&doc, &ex.answer);
        let subset: Vec<usize> = (0..n).filter(|i| mask & (1 << (i % 6)) != 0).collect();
        prop_assume!(!subset.is_empty());
        let indices: Vec<usize> = subset
            .iter()
            .flat_map(|&s| doc.sentences[s].token_start..doc.sentences[s].token_end)
            .collect();
        let q = gced_qa::QuestionAnalysis::new(&ex.question);
        let mut scratch = gced_qa::SelectionScratch::default();
        let pred = g
            .qa_model()
            .predict_selection(&q, &doc, &indices, &ex.question, &mut scratch);
        let f1 = gced_metrics::overlap::token_f1(&pred.text, &ex.answer).f1;
        let bound = subset
            .iter()
            .map(|&s| bounds[s])
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(
            f1 <= bound + 1e-15,
            "subset {:?}: F1 {} exceeds bound {}", subset, f1, bound
        );
    }

    /// Oracle equivalence also holds with the forest protection turned
    /// off (unrestricted clipping exercises more candidate shapes) and
    /// under Fixed clip mode.
    #[test]
    fn optimized_clip_matches_reference_in_other_modes(idx in 0usize..40) {
        let (g, ds) = pipeline();
        let ex = &ds.dev.examples[idx % ds.dev.examples.len()];
        prop_assume!(ex.answerable);
        let cfg = GcedConfig {
            clip: gced::ClipMode::Fixed(3),
            clip_protect_forest: false,
            ..GcedConfig::default()
        };
        let g2 = g.clone().with_config(cfg);
        let fast = g2.distill(&ex.question, &ex.answer, &ex.context).unwrap();
        let oracle = g2
            .distill_with_reference_clip(&ex.question, &ex.answer, &ex.context)
            .unwrap();
        prop_assert_eq!(&fast.evidence_tokens, &oracle.evidence_tokens);
        prop_assert_eq!(fast.scores, oracle.scores);
        prop_assert_eq!(&fast.trace.clip_steps, &oracle.trace.clip_steps);
    }
}
