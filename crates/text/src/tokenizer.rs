//! Word tokenizer with byte-offset tracking.
//!
//! Splitting rules (deterministic, Unicode-aware on `char` boundaries):
//! * whitespace separates tokens and is never emitted;
//! * runs of alphanumeric characters (plus internal hyphens/apostrophes
//!   between alphanumerics, e.g. `Knowles-Carter`, `don't`) form one token;
//! * the possessive clitic `'s` and the contraction `n't` are split off as
//!   their own tokens (matching Penn-Treebank-style conventions the paper's
//!   CoreNLP tooling uses);
//! * every other non-space character is a single-character token.

use crate::token::Token;

/// Tokenize `text`, returning tokens whose `start`/`end` are byte offsets
/// into `text`. Token `index`/`sent` fields are left at 0 for the caller
/// (the [`crate::analyze`] pipeline) to fill in.
pub fn tokenize(text: &str) -> Vec<Token> {
    let mut out = Vec::new();
    token_spans(text, |start, end| {
        out.push(Token::raw(&text[start..end], start, end))
    });
    out
}

/// Call `emit(start, end)` with the byte range of each token of `text`,
/// in order: the cutting half of [`tokenize`], which allocates nothing.
pub(crate) fn token_spans(text: &str, mut emit: impl FnMut(usize, usize)) {
    let mut i = 0;
    while let Some(c) = char_at(text, i) {
        let next = i + c.len_utf8();
        if c.is_whitespace() {
            i = next;
            continue;
        }
        if c.is_alphanumeric() {
            // Consume a word: alphanumerics with internal '-' or '\''
            // joining two alphanumerics, and '.' or ',' inside a number
            // (decimal point, thousands separator).
            let (mut prev, mut j) = (c, next);
            while let Some(cj) = char_at(text, j) {
                let after = || char_at(text, j + cj.len_utf8());
                let joins = cj.is_alphanumeric()
                    || (matches!(cj, '-' | '\'' | '\u{2019}')
                        && after().is_some_and(char::is_alphanumeric))
                    || (matches!(cj, '.' | ',')
                        && prev.is_ascii_digit()
                        && after().is_some_and(|a| a.is_ascii_digit()));
                if !joins {
                    break;
                }
                prev = cj;
                j += cj.len_utf8();
            }
            emit_word(&text[i..j], i, &mut emit);
            i = j;
        } else {
            // Single-character punctuation/symbol token.
            emit(i, next);
            i = next;
        }
    }
}

/// The char starting at byte `i` of `text`, if any (`i` must be a char
/// boundary).
pub(crate) fn char_at(text: &str, i: usize) -> Option<char> {
    match text.as_bytes().get(i) {
        Some(&b) if b.is_ascii() => Some(b as char),
        Some(_) => text[i..].chars().next(),
        None => None,
    }
}

/// Emit `word` (possibly splitting clitics) starting at byte offset `base`.
fn emit_word(word: &str, base: usize, emit: &mut impl FnMut(usize, usize)) {
    // The last three characters, lowercased: only ASCII letters lowercase
    // to the ASCII letters the clitics end in.
    let mut tail = word.chars().rev().map(|c| c.to_ascii_lowercase());
    let (last, apostrophe, before) = (tail.next(), tail.next(), tail.next());
    let apostrophe = matches!(apostrophe, Some('\'' | '\u{2019}'));
    // Split possessive 's (but keep contractions like "it's" whole: they are
    // genuinely ambiguous, and the synthetic corpora only use possessives).
    // A word starts alphanumeric, so one ending in 's has a head.
    if last == Some('s') && apostrophe {
        let cut = word.len()
            - word
                .chars()
                .rev()
                .take(2)
                .map(char::len_utf8)
                .sum::<usize>();
        let head = &word[..cut];
        if !head.is_empty() && head.chars().all(|c| c.is_alphanumeric() || c == '-') {
            emit(base, base + cut);
            emit(base + cut, base + word.len());
            return;
        }
    }
    // Split n't ("didn't" -> "did" + "n't").
    if last == Some('t') && apostrophe && before == Some('n') {
        let tail_len = word
            .chars()
            .rev()
            .take(3)
            .map(char::len_utf8)
            .sum::<usize>();
        let cut = word.len() - tail_len;
        if !word[..cut].is_empty() {
            emit(base, base + cut);
            emit(base + cut, base + word.len());
            return;
        }
    }
    emit(base, base + word.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(input: &str) -> Vec<String> {
        tokenize(input)
            .into_iter()
            .map(|t| t.text.to_string())
            .collect()
    }

    #[test]
    fn splits_on_whitespace() {
        assert_eq!(texts("the quick fox"), vec!["the", "quick", "fox"]);
    }

    #[test]
    fn punctuation_is_separate() {
        assert_eq!(texts("Hello, world!"), vec!["Hello", ",", "world", "!"]);
    }

    #[test]
    fn keeps_internal_hyphens() {
        assert_eq!(texts("Knowles-Carter sang"), vec!["Knowles-Carter", "sang"]);
    }

    #[test]
    fn trailing_hyphen_is_punct() {
        assert_eq!(texts("well- known"), vec!["well", "-", "known"]);
    }

    #[test]
    fn splits_possessive() {
        assert_eq!(texts("Broncos's title"), vec!["Broncos", "'s", "title"]);
    }

    #[test]
    fn splits_negation_clitic() {
        assert_eq!(texts("didn't run"), vec!["did", "n't", "run"]);
    }

    #[test]
    fn numbers_are_tokens() {
        assert_eq!(
            texts("in 1066 A.D."),
            vec!["in", "1066", "A", ".", "D", "."]
        );
    }

    #[test]
    fn offsets_are_exact() {
        let input = "A (small) test.";
        for t in tokenize(input) {
            assert_eq!(&input[t.start..t.end], t.text);
        }
    }

    #[test]
    fn empty_and_whitespace() {
        assert!(tokenize("").is_empty());
        assert!(tokenize(" \t\n").is_empty());
    }

    #[test]
    fn unicode_apostrophe_inside_word() {
        assert_eq!(
            texts("Beyonc\u{e9}\u{2019}s show"),
            vec!["Beyonc\u{e9}", "\u{2019}s", "show"]
        );
    }

    #[test]
    fn parentheses_and_brackets() {
        assert_eq!(texts("(AFC) champion"), vec!["(", "AFC", ")", "champion"]);
    }

    #[test]
    fn no_empty_tokens_ever() {
        for input in ["", "a", "''", "a'b", "-", "--x--", "x  y"] {
            for t in tokenize(input) {
                assert!(!t.text.is_empty(), "empty token from {input:?}");
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Tokens are in order, non-overlapping, non-empty, and their
        /// offsets slice back to their own text.
        #[test]
        fn offsets_sound(input in "[ a-zA-Z0-9,.'()-]{0,80}") {
            let toks = tokenize(&input);
            let mut prev_end = 0usize;
            for t in &toks {
                prop_assert!(t.start >= prev_end);
                prop_assert!(t.end > t.start);
                prop_assert_eq!(&input[t.start..t.end], t.text.as_str());
                prev_end = t.end;
            }
        }

        /// Every non-whitespace character of the input is covered by
        /// exactly one token.
        #[test]
        fn covers_non_whitespace(input in "[ a-zA-Z0-9,.]{0,60}") {
            let toks = tokenize(&input);
            let covered: usize = toks.iter().map(|t| t.end - t.start).sum();
            let expected = input.chars().filter(|c| !c.is_whitespace()).count();
            prop_assert_eq!(covered, expected);
        }
    }
}
