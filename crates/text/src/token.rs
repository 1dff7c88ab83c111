//! Token and sentence types shared across the workspace.

use crate::pos::Pos;
use std::borrow::{Borrow, Cow};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

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
    pub text: TokenStr,
    /// Lowercased lemma (rule-based; see [`crate::lemma`]).
    pub lemma: TokenStr,
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
    pub fn raw(text: &str, start: usize, end: usize) -> Self {
        Token {
            lemma: TokenStr::from(text.to_lowercase()),
            text: TokenStr::new(text),
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

/// Bytes a [`TokenStr`] holds without a heap allocation: all but a
/// handful of words, and still 24 bytes, as a `String`.
const INLINE: usize = 22;

/// An immutable token string stored inline when it is short (nearly
/// every word), so analysing, projecting and cloning tokens does not
/// touch the heap. It reads as a `str` ([`Deref`]) and compares with
/// `str` and `String`.
#[derive(Clone)]
pub struct TokenStr(Repr);

#[derive(Clone)]
enum Repr {
    /// `buf[..len]`, valid UTF-8.
    Inline {
        len: u8,
        buf: [u8; INLINE],
    },
    Heap(Box<str>),
}

impl TokenStr {
    /// `s` as a token string.
    pub fn new(s: &str) -> Self {
        if s.len() > INLINE {
            return TokenStr(Repr::Heap(s.into()));
        }
        let mut buf = [0u8; INLINE];
        buf[..s.len()].copy_from_slice(s.as_bytes());
        TokenStr(Repr::Inline {
            len: s.len() as u8,
            buf,
        })
    }

    /// `head` followed by `tail`.
    pub(crate) fn concat(head: &str, tail: &str) -> Self {
        let len = head.len() + tail.len();
        if len > INLINE {
            return TokenStr(Repr::Heap([head, tail].concat().into_boxed_str()));
        }
        let mut buf = [0u8; INLINE];
        buf[..head.len()].copy_from_slice(head.as_bytes());
        buf[head.len()..len].copy_from_slice(tail.as_bytes());
        TokenStr(Repr::Inline {
            len: len as u8,
            buf,
        })
    }

    /// The string.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, buf } => {
                let bytes = &buf[..*len as usize];
                // SAFETY: `buf[..len]` was copied from one `str` or two
                // (`TokenStr::new`, `TokenStr::concat`), so it is valid UTF-8.
                unsafe { std::str::from_utf8_unchecked(bytes) }
            }
            Repr::Heap(s) => s,
        }
    }
}

impl Default for TokenStr {
    fn default() -> Self {
        TokenStr::new("")
    }
}

impl Deref for TokenStr {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for TokenStr {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl Borrow<str> for TokenStr {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for TokenStr {
    fn from(s: &str) -> Self {
        TokenStr::new(s)
    }
}

impl From<String> for TokenStr {
    fn from(s: String) -> Self {
        if s.len() > INLINE {
            TokenStr(Repr::Heap(s.into_boxed_str()))
        } else {
            TokenStr::new(&s)
        }
    }
}

impl From<&TokenStr> for String {
    fn from(s: &TokenStr) -> Self {
        s.as_str().to_string()
    }
}

impl PartialEq for TokenStr {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for TokenStr {}

impl PartialOrd for TokenStr {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TokenStr {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for TokenStr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state)
    }
}

impl fmt::Debug for TokenStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for TokenStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

macro_rules! eq_str {
    ($($t:ty),*) => {$(
        impl PartialEq<$t> for TokenStr {
            fn eq(&self, other: &$t) -> bool {
                self.as_str() == &other[..]
            }
        }
        impl PartialEq<TokenStr> for $t {
            fn eq(&self, other: &TokenStr) -> bool {
                &self[..] == other.as_str()
            }
        }
    )*};
}
eq_str!(str, &str, String);

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
    fn token_strings_round_trip_inline_and_on_the_heap() {
        assert_eq!(std::mem::size_of::<TokenStr>(), 24);
        for s in [
            "",
            "a",
            "Denver",
            "\u{130}stanbul",
            &"x".repeat(22),
            &"y".repeat(23),
        ] {
            let t = TokenStr::new(s);
            assert_eq!(t, s);
            assert_eq!(TokenStr::from(s.to_string()), t);
            assert_eq!(format!("{t:?}"), format!("{s:?}"));
        }
        assert!(matches!(
            TokenStr::new(&"x".repeat(22)).0,
            Repr::Inline { .. }
        ));
        assert!(matches!(TokenStr::new(&"x".repeat(23)).0, Repr::Heap(_)));
        assert_eq!(TokenStr::concat("stud", "y"), "study");
        assert_eq!(
            TokenStr::concat(&"z".repeat(20), "ies"),
            "z".repeat(20) + "ies"
        );
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
