//! Closed-class word lists and the QWS "insignificant word" filter.
//!
//! Section III-C of the paper removes from the question: all question terms
//! (wh-words), auxiliary verbs, functional words (conjunctions, articles,
//! prepositions, pronouns) and punctuation. The remaining words are the
//! significant words used to find question-relevant clue words.

use crate::pos::Pos;

/// Coarse closed-class membership for a lowercased word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WordClass {
    /// wh-question words: who, what, where, ...
    Question,
    /// auxiliary / modal verbs: is, did, would, ...
    Auxiliary,
    /// determiners and articles.
    Determiner,
    /// prepositions.
    Preposition,
    /// personal/possessive/reflexive pronouns.
    Pronoun,
    /// coordinating/subordinating conjunctions.
    Conjunction,
    /// common adverbial/particle function words (not, also, there, ...).
    Particle,
    /// not a closed-class word.
    Open,
}

pub const QUESTION_WORDS: &[&str] = &[
    "who", "whom", "whose", "what", "which", "where", "when", "why", "how",
];

pub const AUXILIARIES: &[&str] = &[
    "be", "am", "is", "are", "was", "were", "been", "being", "do", "does", "did", "done", "have",
    "has", "had", "having", "will", "would", "shall", "should", "can", "could", "may", "might",
    "must", "ought",
];

pub const DETERMINERS: &[&str] = &[
    "the", "a", "an", "this", "that", "these", "those", "each", "every", "some", "any", "no",
    "another", "such", "both", "either", "neither", "all", "most", "many", "few", "several",
    "various",
];

pub const PREPOSITIONS: &[&str] = &[
    "of", "in", "on", "at", "by", "for", "with", "from", "to", "about", "into", "over", "under",
    "between", "among", "after", "before", "during", "against", "through", "across", "behind",
    "beyond", "near", "within", "without", "upon", "as", "per", "since", "until", "toward",
    "towards",
];

pub const PRONOUNS: &[&str] = &[
    "i",
    "you",
    "he",
    "she",
    "it",
    "we",
    "they",
    "me",
    "him",
    "her",
    "us",
    "them",
    "my",
    "your",
    "his",
    "its",
    "our",
    "their",
    "mine",
    "yours",
    "hers",
    "ours",
    "theirs",
    "myself",
    "yourself",
    "himself",
    "herself",
    "itself",
    "ourselves",
    "themselves",
    "one",
    "someone",
    "anyone",
    "everyone",
    "something",
    "anything",
    "everything",
    "nothing",
];

pub const CONJUNCTIONS: &[&str] = &[
    "and", "or", "but", "nor", "yet", "so", "because", "although", "though", "while", "whereas",
    "if", "unless", "whether", "than", "that",
];

pub const PARTICLES: &[&str] = &[
    "not", "n't", "also", "too", "there", "then", "thus", "just", "only", "even", "up", "out",
    "off", "down",
];

/// Classify a lowercased word into its closed-class category (one lookup
/// in the tagger's word table, whose first-list-wins precedence is this
/// list order).
pub fn classify(word: &str) -> WordClass {
    match crate::pos::listed_tag(word) {
        Some(Pos::Wh) => WordClass::Question,
        Some(Pos::Aux) => WordClass::Auxiliary,
        Some(Pos::Det) => WordClass::Determiner,
        Some(Pos::Prep) => WordClass::Preposition,
        Some(Pos::Pronoun) => WordClass::Pronoun,
        Some(Pos::Conj) => WordClass::Conjunction,
        Some(Pos::Particle) => WordClass::Particle,
        _ => WordClass::Open,
    }
}

/// The QWS filter of Sec. III-C: true when a question word carries no
/// content and must be removed before clue-word matching. Punctuation is
/// handled by the caller via POS; this covers the lexical classes.
pub fn is_insignificant_question_word(word: &str) -> bool {
    let lower = crate::token::lowercase(word);
    if !lower.chars().any(|c| c.is_alphanumeric()) {
        return true; // pure punctuation
    }
    classify(&lower) != WordClass::Open
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_question_words() {
        assert_eq!(classify("who"), WordClass::Question);
        assert_eq!(classify("how"), WordClass::Question);
    }

    #[test]
    fn classify_open_words() {
        assert_eq!(classify("broncos"), WordClass::Open);
        assert_eq!(classify("defeated"), WordClass::Open);
    }

    #[test]
    fn insignificant_filter_matches_paper_example() {
        // "Which NFL team represented the AFC at Super Bowl 50?"
        // Significant leftovers: NFL, team, represented, AFC, Super, Bowl, 50.
        let q = [
            "which",
            "nfl",
            "team",
            "represented",
            "the",
            "afc",
            "at",
            "super",
            "bowl",
            "50",
            "?",
        ];
        let kept: Vec<&str> = q
            .iter()
            .copied()
            .filter(|w| !is_insignificant_question_word(w))
            .collect();
        assert_eq!(
            kept,
            vec!["nfl", "team", "represented", "afc", "super", "bowl", "50"]
        );
    }

    #[test]
    fn auxiliaries_and_pronouns_are_insignificant() {
        for w in ["did", "is", "they", "their", "and", "of", "the", "not"] {
            assert!(
                is_insignificant_question_word(w),
                "{w} should be insignificant"
            );
        }
    }

    #[test]
    fn punctuation_is_insignificant() {
        for w in ["?", "!", ",", ".", "(", ")"] {
            assert!(is_insignificant_question_word(w));
        }
    }

    #[test]
    fn case_insensitive() {
        assert!(is_insignificant_question_word("Which"));
        assert!(!is_insignificant_question_word("NFL"));
    }

    #[test]
    fn word_lists_are_lowercase_and_unique() {
        for list in [
            QUESTION_WORDS,
            AUXILIARIES,
            DETERMINERS,
            PREPOSITIONS,
            PRONOUNS,
            CONJUNCTIONS,
            PARTICLES,
        ] {
            let mut seen = std::collections::HashSet::new();
            for w in list {
                assert_eq!(*w, w.to_lowercase());
                assert!(seen.insert(*w), "duplicate {w}");
            }
        }
    }
}
