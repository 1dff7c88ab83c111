//! Analysis against the fitted vocabulary equals plain `analyze`.
//!
//! A distillation analyses its context, question, answer and (when a
//! projection declines) its answer-oriented sentences through
//! `RequestIds::analyze`: one table probe per token gives its id, tag
//! data and lemma. These tests pin that pass to the string oracle: for
//! every text, the document (each token's text, lemma, POS and offsets,
//! and the sentences) equals `gced_text::analyze(text)`, and the ids
//! equal `RequestIds::intern` of that document, request-local ids
//! included.

use gced::{Gced, GcedConfig};
use gced_datasets::{generate, DatasetKind, GeneratorConfig};
use proptest::prelude::*;
use std::sync::OnceLock;

fn fit(kind: DatasetKind) -> Gced {
    let ds = generate(
        kind,
        GeneratorConfig {
            train: 150,
            dev: 40,
            seed: 17,
        },
    );
    Gced::fit(&ds, GcedConfig::default())
}

fn squad() -> &'static Gced {
    static G: OnceLock<Gced> = OnceLock::new();
    G.get_or_init(|| fit(DatasetKind::Squad11))
}

/// Analyses `texts` in order through one request id space of `g`'s
/// table, and through `analyze` + `intern` in another, asserting that
/// the two agree on every text.
fn assert_parity(g: &Gced, texts: &[&str]) -> Result<(), TestCaseError> {
    let table = g.id_table();
    let (mut fused, mut oracle) = (table.request(), table.request());
    for text in texts {
        let (doc, ids) = fused.analyze(text);
        let want = gced_text::analyze(text);
        prop_assert_eq!(&doc, &want);
        prop_assert_eq!(ids, oracle.intern(&want));
    }
    Ok(())
}

/// Words the fitted vocabulary holds in several casings, words outside
/// every fitted vocabulary, and the alphabet that stresses tokenizing,
/// tagging, lemmatizing and case folding: numbers with `.`/`,`, `'s`,
/// `’s`, glued `n't`, hyphens, abbreviations, dotted and dotless I,
/// Kelvin K, long s, the three sigmas, é, NBSP, and tokens too long to
/// store inline or to lowercase on the stack.
const WORDS: &[&str] = &[
    "the",
    "The",
    "THE",
    "Broncos",
    "broncos",
    "defeated",
    "Defeated",
    "painting",
    "Painting",
    "running",
    "studies",
    "children",
    "was",
    "Who",
    "won",
    "title",
    "Super",
    "Bowl",
    "team",
    "team's",
    "team\u{2019}s",
    "TEAM'S",
    "didn't",
    "DIDN'T",
    "won\u{2019}t",
    "well-known",
    "Knowles-Carter",
    "1,000",
    "3.14",
    "1066",
    "50%",
    "Dr.",
    "U.S.",
    "B.",
    "(AFC)",
    "\"stop.\"",
    "\u{130}stanbul",
    "i\u{307}stanbul",
    "\u{212a}elvin",
    "\u{17f}un",
    "\u{3a3}",
    "\u{3c3}",
    "\u{3c2}",
    "\u{39f}\u{394}\u{39f}\u{3a3}",
    "caf\u{e9}",
    "Caf\u{e9}",
    "na\u{ef}ve\u{a0}Zo\u{eb}",
    "zyxwvut",
    "Qwertyuiop",
    "blorfing",
    "Florped",
    "Pneumonoultramicroscopicsilicovolcanoconiosis",
    "PNEUMONOULTRAMICROSCOPICSILICOVOLCANOCONIOSISES",
    "antidisestablishmentarianism-and-then-some-more-hyphenated-words-running",
];

/// What separates two words: spaces, sentence ends (some followed by a
/// lowercase word once joined), commas and a glued period.
const GAPS: &[&str] = &[" ", " ", " ", ". ", "? ", "! ", ", ", ".", "\u{a0}", "\n"];

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Random sentences of that alphabet, analysed three at a time
    /// through one request (so request-local ids carry over).
    #[test]
    fn fitted_analysis_equals_analyze_on_adversarial_text(
        parts in prop::collection::vec(0..WORDS.len() * GAPS.len(), 1..40),
    ) {
        let text: String = parts
            .iter()
            .flat_map(|&k| [WORDS[k % WORDS.len()], GAPS[k / WORDS.len()]])
            .collect();
        let mid = text
            .char_indices()
            .nth(text.chars().count() / 2)
            .map_or(text.len(), |(i, _)| i);
        let (head, tail) = text.split_at(mid);
        assert_parity(squad(), &[&text, head, tail.trim()])?;
    }
}

/// Every dev context, question and answer of every generator kind,
/// against a pipeline fitted on that kind.
#[test]
fn fitted_analysis_equals_analyze_on_every_dev_split() {
    for kind in DatasetKind::all() {
        let g = fit(kind);
        let dev = generate(
            kind,
            GeneratorConfig {
                train: 1,
                dev: 60,
                seed: 9601,
            },
        );
        for ex in &dev.dev.examples {
            assert_parity(&g, &[&ex.context, &ex.question, &ex.answer])
                .unwrap_or_else(|e| panic!("{kind:?}: {e:?}"));
        }
    }
}
