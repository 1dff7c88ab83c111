//! Question-relevant Words Selector (paper Sec. III-C, Fig. 5).
//!
//! 1. Remove insignificant question words (wh-terms, auxiliaries,
//!    functional words, punctuation — `gced_text::stopwords`).
//! 2. Expand each remaining word with its synonyms, antonyms, and
//!    hypernym-siblings from the lexicon.
//! 3. Mark open-class tokens of the answer-oriented sentences matching
//!    any expansion (by surface form or lemma) as question-relevant clue
//!    words.
//!
//! The expansion runs on interned ids ([`crate::ids`]): each lexicon
//! word's expansion is precomputed as a sorted id list when the pipeline
//! is assembled, so selection is an id-set union and lookups with no
//! string hashing. The string formulation is kept as
//! [`reference::select`].

use crate::ids::{DocIds, IdTable};
use gced_text::{is_insignificant_question_word, Document};

/// Result of clue-word selection.
#[derive(Debug, Clone, PartialEq)]
pub struct QwsResult {
    /// Clue token indices (local to the answer-oriented document),
    /// ascending.
    pub clue_tokens: Vec<usize>,
    /// The significant question words that were expanded.
    pub significant_words: Vec<String>,
}

/// Select clue words in `aos` for the analysed `question`, both interned
/// in one id space over `table`. `exclude` marks token indices that must
/// not become clue words (the answer tokens — they seed the answer tree
/// instead, Sec. III-E). Equal to [`reference::select`] with the
/// lexicon `table` was built from.
pub fn select(
    table: &IdTable,
    question: (&Document, &DocIds),
    aos: (&Document, &DocIds),
    exclude: &[usize],
) -> QwsResult {
    let (question, q_ids) = question;
    let (aos, aos_ids) = aos;
    let mut significant_words: Vec<String> = Vec::new();
    // The expansion: a bitset over the fitted ids, plus the few
    // request-local ids (words outside the table relate only to
    // themselves).
    let fitted = table.len();
    let mut expansion = vec![0u64; fitted.div_ceil(64)];
    let mut local: Vec<u32> = Vec::new();
    let mut add = |id: u32| {
        let k = id as usize;
        if k < fitted {
            expansion[k / 64] |= 1 << (k % 64);
        } else {
            local.push(id);
        }
    };
    for (i, t) in question.tokens.iter().enumerate() {
        let lower = t.lower_cow();
        if t.is_punct() || is_insignificant_question_word(&lower) {
            continue;
        }
        if !significant_words.iter().any(|w| *w == *lower) {
            significant_words.push(lower.into_owned());
        }
        let (w, l) = (q_ids.lower[i], q_ids.lemma[i]);
        for id in [w, l] {
            match table.related(id) {
                Some(closure) => closure.iter().for_each(|&r| add(r)),
                None => add(id),
            }
        }
    }
    let hit = |id: u32| {
        let k = id as usize;
        if k < fitted {
            expansion[k / 64] >> (k % 64) & 1 == 1
        } else {
            local.contains(&id)
        }
    };
    let clue_tokens: Vec<usize> = aos
        .tokens
        .iter()
        .enumerate()
        .filter(|(i, t)| {
            t.pos.is_open_class()
                && !exclude.contains(i)
                && (hit(aos_ids.lower[*i]) || hit(aos_ids.lemma[*i]))
        })
        .map(|(i, _)| i)
        .collect();
    QwsResult {
        clue_tokens,
        significant_words,
    }
}

/// The string formulation of [`super::select`]: a `HashSet<String>` of
/// lexicon expansions per request. Kept as the oracle the id path is
/// pinned to.
#[doc(hidden)]
pub mod reference {
    use super::QwsResult;
    use gced_lexicon::Lexicon;
    use gced_text::{is_insignificant_question_word, Document};
    use std::collections::HashSet;

    /// Reference QWS. See [`super::select`].
    pub fn select(
        lexicon: &Lexicon,
        question: &Document,
        aos: &Document,
        exclude: &[usize],
    ) -> QwsResult {
        let mut significant_words = Vec::new();
        let mut expansion: HashSet<String> = HashSet::new();
        for t in &question.tokens {
            let lower = t.lower();
            if t.is_punct() || is_insignificant_question_word(&lower) {
                continue;
            }
            if !significant_words.contains(&lower) {
                significant_words.push(lower.clone());
            }
            expansion.extend(lexicon.related(&lower));
            if t.lemma != lower {
                expansion.extend(lexicon.related(&t.lemma));
            }
        }
        let excluded: HashSet<usize> = exclude.iter().copied().collect();
        let clue_tokens: Vec<usize> = aos
            .tokens
            .iter()
            .filter(|t| t.pos.is_open_class())
            .filter(|t| !excluded.contains(&t.index))
            .filter(|t| expansion.contains(&*t.lower_cow()) || expansion.contains(t.lemma.as_str()))
            .map(|t| t.index)
            .collect();
        QwsResult {
            clue_tokens,
            significant_words,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gced_lexicon::Lexicon;
    use gced_lm::TrigramLm;
    use gced_nn::EmbeddingTable;
    use gced_qa::{ModelProfile, QaModel};
    use gced_text::analyze;

    /// QWS through the id path over a table built with `lexicon` (and
    /// an LM that knows only `lm_words`), asserting equality with the
    /// string oracle.
    fn select_checked(
        lexicon: &Lexicon,
        lm_words: &[&str],
        question: &str,
        aos: &Document,
        exclude: &[usize],
    ) -> QwsResult {
        let corpus = vec![lm_words.iter().map(|w| w.to_string()).collect::<Vec<_>>()];
        let lm = TrigramLm::train(&corpus);
        let qa = QaModel::new(ModelProfile::plm());
        let table = IdTable::build(&qa, &lm, &EmbeddingTable::new(8, 1), lexicon);
        let mut ids = table.request();
        let q = analyze(question);
        let q_ids = ids.intern(&q);
        let aos_ids = ids.intern(aos);
        let fast = select(&table, (&q, &q_ids), (aos, &aos_ids), exclude);
        let oracle = reference::select(lexicon, &q, aos, exclude);
        assert_eq!(fast, oracle, "{question:?}");
        fast
    }

    fn select_embedded(question: &str, aos: &Document, exclude: &[usize]) -> QwsResult {
        select_checked(&Lexicon::embedded(), &[], question, aos, exclude)
    }

    fn clue_words(question: &str, aos_text: &str) -> Vec<String> {
        let aos = analyze(aos_text);
        let r = select_embedded(question, &aos, &[]);
        r.clue_tokens
            .iter()
            .map(|&i| aos.tokens[i].text.to_string())
            .collect()
    }

    #[test]
    fn paper_fig5_style_example() {
        // "Which NFL team represented the AFC at Super Bowl 50?"
        // AOS: the Fig. 6 sentence. Expected clue words include Football
        // (sibling of football-related terms), AFC, NFC, Super, Bowl.
        let clues = clue_words(
            "Which NFL team represented the AFC at Super Bowl 50?",
            "The American Football Conference (AFC) champion Denver Broncos defeated the \
             National Football Conference (NFC) champion Carolina Panthers to earn the \
             Super Bowl 50 title.",
        );
        assert!(clues.iter().any(|w| w == "AFC"), "clues: {clues:?}");
        assert!(clues.iter().any(|w| w == "Super"));
        assert!(clues.iter().any(|w| w == "Bowl"));
        // Sibling expansion: "NFL" and "AFC" share hypernyms with
        // conference/league words; "Football" appears via exact match of
        // sibling sets in the lexicon.
        assert!(clues.iter().any(|w| w == "Football"));
    }

    #[test]
    fn direct_and_lemma_matches() {
        let clues = clue_words(
            "Which team defeated the Panthers?",
            "The Broncos defeated the Panthers. The team celebrated.",
        );
        assert!(clues.iter().any(|w| w == "defeated"));
        assert!(clues.iter().any(|w| w == "Panthers"));
        assert!(clues.iter().any(|w| w == "team"));
    }

    #[test]
    fn synonym_expansion_matches() {
        // "beat" is a synonym of "defeat" in the embedded lexicon.
        let clues = clue_words(
            "Who beat the Panthers?",
            "The Broncos defeated the Panthers.",
        );
        assert!(clues.iter().any(|w| w == "defeated"), "clues: {clues:?}");
    }

    #[test]
    fn function_words_never_clues() {
        let clues = clue_words(
            "Which team defeated the Panthers?",
            "The Broncos defeated the Panthers in the city.",
        );
        assert!(!clues.iter().any(|w| w == "The" || w == "the" || w == "in"));
    }

    #[test]
    fn excluded_tokens_are_skipped() {
        let aos = analyze("The Broncos defeated the Panthers.");
        let broncos = aos.tokens.iter().position(|t| t.text == "Broncos").unwrap();
        let r = select_embedded("Which team defeated the Broncos?", &aos, &[broncos]);
        assert!(!r.clue_tokens.contains(&broncos));
    }

    #[test]
    fn insignificant_only_question_yields_no_clues() {
        let aos = analyze("The Broncos defeated the Panthers.");
        let r = select_embedded("Who did what to whom?", &aos, &[]);
        assert!(r.clue_tokens.is_empty());
        assert!(r.significant_words.is_empty());
    }

    #[test]
    fn significant_words_recorded_once() {
        let aos = analyze("x");
        let r = select_embedded("team team team?", &aos, &[]);
        assert_eq!(r.significant_words, vec!["team"]);
    }

    #[test]
    fn empty_lexicon_still_matches_exact_words() {
        let aos = analyze("The Broncos defeated the Panthers.");
        let r = select_checked(
            &Lexicon::empty(),
            &[],
            "Which team defeated the Panthers?",
            &aos,
            &[],
        );
        let words: Vec<&str> = r
            .clue_tokens
            .iter()
            .map(|&i| aos.tokens[i].text.as_str())
            .collect();
        assert!(words.contains(&"defeated"));
        assert!(words.contains(&"Panthers"));
    }

    #[test]
    fn id_path_matches_the_string_oracle_off_the_generator() {
        // OOV words shared by question and context, lexicon words
        // missing from the LM vocabulary, case-folding edge cases
        // (Kelvin sign, dotted İ, long ſ), glued n't, repeated words.
        let mut b = Lexicon::builder();
        b.add_synset(["zanzibar", "qwerty"])
            .add_synset(["\u{212a}elvin", "kelvin"])
            .add_synset(["İstanbul", "constantinople"])
            .add_antonym("ſun", "moon")
            .add_hypernym("violin", "instrument")
            .add_hypernym("piano", "instrument");
        let custom = b.build();
        let questions = [
            "Who visited Zanzibar and Qwerty?",
            "Which \u{212a}ELVIN scale did İSTANBUL use?",
            "Why didn't the ſun rise over the moon?",
            "Which violin violin sold?",
            "What did the Xyzzy plugh say?",
            "?",
        ];
        let contexts = [
            "Zanzibar zanzibar QWERTY qwerty visited. The Xyzzy said plugh plugh.",
            "The kelvin \u{212a}elvin KELVIN scale. Istanbul İstanbul i̇stanbul constantinople.",
            "The sun didn't rise. The ſun and the moon didn't. MOON Moon.",
            "A piano and a violin and an instrument were sold. Pianos sold.",
            "",
        ];
        for lexicon in [&custom, &Lexicon::embedded(), &Lexicon::empty()] {
            for lm_words in [&[][..], &["zanzibar", "moon", "piano"][..]] {
                for q in questions {
                    for c in contexts {
                        let aos = analyze(c);
                        select_checked(lexicon, lm_words, q, &aos, &[]);
                        select_checked(lexicon, lm_words, q, &aos, &[0, 2]);
                    }
                }
            }
        }
    }
}
