//! Rule-based sentence splitter.
//!
//! Boundaries are `.`, `!`, `?` followed by whitespace-then-capital (or end
//! of input), with guards for common abbreviations and initials so that
//! "Dr. Smith" or "U.S. team" do not split. This mirrors the behaviour GCED
//! needs from CoreNLP: contexts in the paper's datasets are edited prose.

use crate::tokenizer::char_at;
use std::ops::Range;

/// Abbreviations that do not terminate a sentence when followed by a period.
const ABBREVIATIONS: &[&str] = &[
    "mr", "mrs", "ms", "dr", "prof", "sr", "jr", "st", "no", "vs", "etc", "inc", "ltd", "co",
    "fig", "eq", "sec", "al", "e.g", "i.e", "u.s", "u.k",
];

/// Split `text` into sentence byte ranges. Ranges cover the trimmed
/// sentence (leading/trailing whitespace excluded) and are non-overlapping
/// and in order. Text without terminal punctuation forms one sentence.
pub fn split_sentences(text: &str) -> Vec<Range<usize>> {
    let mut ranges = Vec::new();
    let mut sent_start: Option<usize> = None;
    let mut i = 0;
    while let Some(c) = char_at(text, i) {
        if sent_start.is_none() && !c.is_whitespace() {
            sent_start = Some(i);
        }
        if matches!(c, '.' | '!' | '?') && sent_start.is_some() {
            // Absorb a run of terminal punctuation and closing quotes/brackets
            // (all one byte long).
            let mut j = i + 1;
            while matches!(
                char_at(text, j),
                Some('.' | '!' | '?' | ')' | '"' | '\'' | ']')
            ) {
                j += 1;
            }
            if is_boundary(text, i, j) {
                ranges.push(sent_start.take().expect("inside a sentence")..j);
            }
            i = j;
            continue;
        }
        i += c.len_utf8();
    }
    if let Some(start) = sent_start {
        // Trailing fragment without terminal punctuation: end at the
        // last non-whitespace byte.
        let trimmed_end = start + text[start..].trim_end().len();
        if trimmed_end > start {
            ranges.push(start..trimmed_end);
        }
    }
    ranges
}

/// Decide whether the terminal-punctuation run `text[i..j]` (its first
/// byte the triggering mark) is a sentence boundary.
fn is_boundary(text: &str, i: usize, j: usize) -> bool {
    if text.as_bytes()[i] != b'.' {
        return true; // '!' and '?' always end sentences here.
    }
    // Token immediately before the period.
    let before = &text[..i];
    let word_start = before
        .char_indices()
        .rev()
        .take_while(|&(_, c)| c.is_alphanumeric() || c == '.')
        .last()
        .map_or(before.len(), |(i, _)| i);
    let word = &before[word_start..];
    // A single-letter initial like "B." in "B. Obama", or an abbreviation.
    // ASCII lowercasing keeps lengths and letters, so an ASCII word
    // compares ignoring case instead of being lowercased.
    let abbreviation = if word.is_ascii() {
        let stem = word.trim_end_matches('.');
        (word.len() == 1 && word.as_bytes()[0].is_ascii_alphabetic())
            || ABBREVIATIONS.iter().any(|a| a.eq_ignore_ascii_case(stem))
    } else {
        let lw = word.to_lowercase();
        (lw.len() == 1 && lw.chars().all(|c| c.is_alphabetic()))
            || ABBREVIATIONS.contains(&lw.trim_end_matches('.'))
    };
    if abbreviation {
        return false;
    }
    // A decimal number like "3.14" — period between digits.
    if before
        .chars()
        .next_back()
        .is_some_and(|c| c.is_ascii_digit())
        && char_at(text, i + 1).is_some_and(|c| c.is_ascii_digit())
    {
        return false;
    }
    // Require whitespace + capital/digit/quote to the right, or end of text.
    let rest = &text[j..];
    if rest.is_empty() {
        return true;
    }
    if !rest.starts_with(char::is_whitespace) {
        return false;
    }
    match rest.trim_start().chars().next() {
        None => true,
        Some(next) => {
            next.is_uppercase() || next.is_ascii_digit() || matches!(next, '"' | '\'' | '(')
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sents(text: &str) -> Vec<&str> {
        split_sentences(text)
            .into_iter()
            .map(|r| &text[r])
            .collect()
    }

    #[test]
    fn splits_simple_sentences() {
        assert_eq!(
            sents("The cat sat. The dog ran."),
            vec!["The cat sat.", "The dog ran."]
        );
    }

    #[test]
    fn question_and_exclamation() {
        assert_eq!(
            sents("Who won? The Broncos! Great."),
            vec!["Who won?", "The Broncos!", "Great."]
        );
    }

    #[test]
    fn abbreviation_does_not_split() {
        assert_eq!(
            sents("Dr. Smith arrived. He sat."),
            vec!["Dr. Smith arrived.", "He sat."]
        );
    }

    #[test]
    fn initial_does_not_split() {
        assert_eq!(
            sents("B. Obama spoke. Crowds cheered."),
            vec!["B. Obama spoke.", "Crowds cheered."]
        );
    }

    #[test]
    fn decimal_number_does_not_split() {
        assert_eq!(
            sents("It weighs 3.14 kg. Heavy."),
            vec!["It weighs 3.14 kg.", "Heavy."]
        );
    }

    #[test]
    fn lowercase_continuation_does_not_split() {
        // "et al. reported" — period followed by lowercase is not a boundary.
        assert_eq!(
            sents("Smith et al. reported gains."),
            vec!["Smith et al. reported gains."]
        );
    }

    #[test]
    fn no_terminal_punctuation_is_one_sentence() {
        assert_eq!(sents("no punctuation here"), vec!["no punctuation here"]);
    }

    #[test]
    fn empty_input() {
        assert!(split_sentences("").is_empty());
        assert!(split_sentences("   ").is_empty());
    }

    #[test]
    fn trailing_fragment_excludes_trailing_whitespace() {
        assert_eq!(sents("no punctuation here   "), vec!["no punctuation here"]);
        assert_eq!(sents("  padded both sides \t\n"), vec!["padded both sides"]);
        let text = "First one. Then a fragment  ";
        let rs = split_sentences(text);
        assert_eq!(rs.len(), 2);
        assert_eq!(&text[rs.last().unwrap().clone()], "Then a fragment");
    }

    #[test]
    fn trailing_fragment_handles_multibyte_text() {
        // Non-ASCII final sentences: byte arithmetic on the trimmed end
        // must land on a char boundary.
        assert_eq!(sents("café résumé"), vec!["café résumé"]);
        assert_eq!(sents("naïve Zoë outré\u{a0}"), vec!["naïve Zoë outré"]);
        assert_eq!(
            sents("Er sagte alles. Schön wär's"),
            vec!["Er sagte alles.", "Schön wär's"]
        );
        assert_eq!(sents("日本語のテキスト  "), vec!["日本語のテキスト"]);
    }

    #[test]
    fn ranges_are_ordered_and_disjoint() {
        let text = "A first one. A second one! A third? Done.";
        let rs = split_sentences(text);
        for w in rs.windows(2) {
            assert!(w[0].end <= w[1].start);
        }
        assert_eq!(rs.len(), 4);
    }

    #[test]
    fn closing_quote_absorbed() {
        let text = "He said \"stop.\" Then left.";
        let rs = sents(text);
        assert_eq!(rs, vec!["He said \"stop.\"", "Then left."]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Sentence ranges are ordered, disjoint, within bounds, and
        /// never begin or end with whitespace.
        #[test]
        fn ranges_sound(input in "[ a-zA-Z0-9,.!?]{0,120}") {
            let rs = split_sentences(&input);
            let mut prev = 0usize;
            for r in &rs {
                prop_assert!(r.start >= prev);
                prop_assert!(r.end <= input.len());
                prop_assert!(r.start < r.end);
                let s = &input[r.clone()];
                prop_assert_eq!(s.trim(), s);
                prev = r.end;
            }
        }
    }
}
