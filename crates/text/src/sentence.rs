//! Rule-based sentence splitter.
//!
//! Boundaries are `.`, `!`, `?` followed by whitespace-then-capital (or end
//! of input), with guards for common abbreviations and initials so that
//! "Dr. Smith" or "U.S. team" do not split. This mirrors the behaviour GCED
//! needs from CoreNLP: contexts in the paper's datasets are edited prose.

use crate::token::lowercase;
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
    let chars: Vec<(usize, char)> = text.char_indices().collect();
    let n = chars.len();
    let mut ranges = Vec::new();
    let mut sent_start: Option<usize> = None;
    let mut i = 0;
    while i < n {
        let (byte, c) = chars[i];
        if sent_start.is_none() && !c.is_whitespace() {
            sent_start = Some(byte);
        }
        if matches!(c, '.' | '!' | '?') && sent_start.is_some() {
            // Absorb a run of terminal punctuation and closing quotes/brackets.
            let mut j = i + 1;
            while j < n && matches!(chars[j].1, '.' | '!' | '?' | ')' | '"' | '\'' | ']') {
                j += 1;
            }
            let boundary = is_boundary(text, &chars, i, j);
            if boundary {
                let end_byte = if j < n { chars[j].0 } else { text.len() };
                ranges.push(sent_start.unwrap()..end_byte);
                sent_start = None;
            }
            i = j;
            continue;
        }
        i += 1;
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

/// Decide whether the terminal-punctuation run ending before char index `j`
/// (with the triggering mark at char index `i`) is a sentence boundary.
fn is_boundary(text: &str, chars: &[(usize, char)], i: usize, j: usize) -> bool {
    let (byte, c) = chars[i];
    if c != '.' {
        return true; // '!' and '?' always end sentences here.
    }
    // Token immediately before the period.
    let before = &text[..byte];
    let word_start = before
        .char_indices()
        .rev()
        .take_while(|&(_, c)| c.is_alphanumeric() || c == '.')
        .last()
        .map_or(before.len(), |(i, _)| i);
    let lw = lowercase(&before[word_start..]);
    // Single-letter initial like "B." in "B. Obama".
    if lw.len() == 1 && lw.chars().all(|c| c.is_alphabetic()) {
        return false;
    }
    if ABBREVIATIONS.contains(&lw.trim_end_matches('.')) {
        return false;
    }
    // A decimal number like "3.14" — period between digits.
    if i > 0
        && i + 1 < chars.len()
        && chars[i - 1].1.is_ascii_digit()
        && chars[i + 1].1.is_ascii_digit()
    {
        return false;
    }
    // Require whitespace + capital/digit/quote to the right, or end of text.
    let mut k = j;
    if k >= chars.len() {
        return true;
    }
    if !chars[k].1.is_whitespace() {
        return false;
    }
    while k < chars.len() && chars[k].1.is_whitespace() {
        k += 1;
    }
    if k >= chars.len() {
        return true;
    }
    let next = chars[k].1;
    next.is_uppercase() || next.is_ascii_digit() || matches!(next, '"' | '\'' | '(')
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
