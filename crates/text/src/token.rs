//! Token and sentence types shared across the workspace.

use crate::pos::Pos;
use std::borrow::Cow;
use std::fmt;

/// Index of a token within a [`crate::Document`] (global, dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TokenId(pub usize);

/// Index of a sentence within a [`crate::Document`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SentId(pub usize);

impl fmt::Display for TokenId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for SentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One surface token with linguistic annotations.
///
/// `index` is the global document position (the node index of the paper's
/// weighted syntactic parse tree); `start..end` are byte offsets into the
/// original text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Surface form exactly as it appeared in the text.
    pub text: String,
    /// Lowercased lemma (rule-based; see [`crate::lemma`]).
    pub lemma: String,
    /// Coarse part-of-speech tag.
    pub pos: Pos,
    /// Global token index within the document.
    pub index: usize,
    /// Sentence index within the document.
    pub sent: usize,
    /// Byte offset of the first byte in the original text.
    pub start: usize,
    /// Byte offset one past the last byte in the original text.
    pub end: usize,
}

impl Token {
    /// A bare token with only surface text and offsets; POS/lemma are
    /// filled in by the analysis pipeline.
    pub fn raw(text: impl Into<String>, start: usize, end: usize) -> Self {
        let text = text.into();
        Token {
            lemma: text.to_lowercase(),
            text,
            pos: Pos::Other,
            index: 0,
            sent: 0,
            start,
            end,
        }
    }

    /// Lowercased surface form.
    pub fn lower(&self) -> String {
        self.text.to_lowercase()
    }

    /// [`Token::lower`] without the allocation when the surface form is
    /// already lowercase ASCII.
    pub fn lower_cow(&self) -> Cow<'_, str> {
        lowercase(&self.text)
    }

    /// True for punctuation tokens.
    pub fn is_punct(&self) -> bool {
        self.pos == Pos::Punct
    }

    /// True if this token's surface form is purely alphabetic.
    pub fn is_alpha(&self) -> bool {
        !self.text.is_empty() && self.text.chars().all(|c| c.is_alphabetic())
    }
}

/// `text.to_lowercase()`, borrowing `text` when it is already lowercase
/// ASCII (most tokens are).
pub(crate) fn lowercase(text: &str) -> Cow<'_, str> {
    if text
        .bytes()
        .all(|b| b.is_ascii() && !b.is_ascii_uppercase())
    {
        Cow::Borrowed(text)
    } else {
        Cow::Owned(text.to_lowercase())
    }
}

/// A contiguous run of tokens forming one sentence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sentence {
    /// Dense sentence index within the document.
    pub index: usize,
    /// First token index (inclusive).
    pub token_start: usize,
    /// One past the last token index.
    pub token_end: usize,
    /// Byte offset of the sentence start in the original text.
    pub char_start: usize,
    /// Byte offset one past the sentence end.
    pub char_end: usize,
}

impl Sentence {
    /// Number of tokens in the sentence.
    pub fn len(&self) -> usize {
        self.token_end - self.token_start
    }

    /// True if the sentence has no tokens (never produced by `analyze`).
    pub fn is_empty(&self) -> bool {
        self.token_end == self.token_start
    }

    /// Iterate over the global token indices the sentence covers.
    pub fn token_ids(&self) -> impl Iterator<Item = TokenId> {
        (self.token_start..self.token_end).map(TokenId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_token_defaults() {
        let t = Token::raw("Hello", 0, 5);
        assert_eq!(t.lemma, "hello");
        assert_eq!(t.pos, Pos::Other);
        assert!(t.is_alpha());
    }

    #[test]
    fn token_is_alpha_rejects_numbers_and_mixed() {
        assert!(!Token::raw("1066", 0, 4).is_alpha());
        assert!(!Token::raw("B-52", 0, 4).is_alpha());
        assert!(!Token::raw("", 0, 0).is_alpha());
    }

    #[test]
    fn sentence_token_ids() {
        let s = Sentence {
            index: 0,
            token_start: 3,
            token_end: 6,
            char_start: 0,
            char_end: 0,
        };
        let ids: Vec<_> = s.token_ids().collect();
        assert_eq!(ids, vec![TokenId(3), TokenId(4), TokenId(5)]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn display_formats() {
        assert_eq!(TokenId(7).to_string(), "t7");
        assert_eq!(SentId(2).to_string(), "s2");
    }
}
