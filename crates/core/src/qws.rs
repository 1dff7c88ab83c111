//! Question-relevant Words Selector (paper Sec. III-C, Fig. 5).
//!
//! 1. Remove insignificant question words (wh-terms, auxiliaries,
//!    functional words, punctuation — `gced_text::stopwords`).
//! 2. Expand each remaining word with its synonyms, antonyms, and
//!    hypernym-siblings from the lexicon.
//! 3. Mark open-class tokens of the answer-oriented sentences matching
//!    any expansion (by surface form or lemma) as question-relevant clue
//!    words.

use gced_lexicon::Lexicon;
use gced_text::{is_insignificant_question_word, Document};
use std::collections::HashSet;

/// Result of clue-word selection.
#[derive(Debug, Clone, PartialEq)]
pub struct QwsResult {
    /// Clue token indices (local to the answer-oriented document),
    /// ascending.
    pub clue_tokens: Vec<usize>,
    /// The significant question words that were expanded.
    pub significant_words: Vec<String>,
}

/// Select clue words in `aos` for the analysed `question`. `exclude`
/// marks token indices that must not become clue words (the answer
/// tokens — they seed the answer tree instead, Sec. III-E).
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
        .filter(|t| expansion.contains(&*t.lower_cow()) || expansion.contains(&t.lemma))
        .map(|t| t.index)
        .collect();
    QwsResult {
        clue_tokens,
        significant_words,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gced_text::analyze;

    fn clue_words(question: &str, aos_text: &str) -> Vec<String> {
        let lex = Lexicon::embedded();
        let aos = analyze(aos_text);
        let r = select(&lex, &analyze(question), &aos, &[]);
        r.clue_tokens
            .iter()
            .map(|&i| aos.tokens[i].text.clone())
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
        let lex = Lexicon::embedded();
        let aos = analyze("The Broncos defeated the Panthers.");
        let broncos = aos.tokens.iter().position(|t| t.text == "Broncos").unwrap();
        let r = select(
            &lex,
            &analyze("Which team defeated the Broncos?"),
            &aos,
            &[broncos],
        );
        assert!(!r.clue_tokens.contains(&broncos));
    }

    #[test]
    fn insignificant_only_question_yields_no_clues() {
        let lex = Lexicon::embedded();
        let aos = analyze("The Broncos defeated the Panthers.");
        let r = select(&lex, &analyze("Who did what to whom?"), &aos, &[]);
        assert!(r.clue_tokens.is_empty());
        assert!(r.significant_words.is_empty());
    }

    #[test]
    fn significant_words_recorded_once() {
        let lex = Lexicon::embedded();
        let aos = analyze("x");
        let r = select(&lex, &analyze("team team team?"), &aos, &[]);
        assert_eq!(r.significant_words, vec!["team"]);
    }

    #[test]
    fn empty_lexicon_still_matches_exact_words() {
        let lex = Lexicon::empty();
        let aos = analyze("The Broncos defeated the Panthers.");
        let r = select(
            &lex,
            &analyze("Which team defeated the Panthers?"),
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
}
