//! # gced-text — text-processing substrate for Grow-and-Clip
//!
//! The GCED paper relies on Stanford CoreNLP / nltk for tokenization,
//! sentence splitting and part-of-speech information. This crate is the
//! from-scratch Rust replacement: a deterministic, offset-preserving
//! tokenizer, a rule-based sentence splitter, a closed-class + morphology
//! POS tagger, a light lemmatizer, and a vocabulary/interner.
//!
//! The central type is [`Document`]: the fully analysed form of a context
//! string, carrying global token indices that the rest of the system (the
//! weighted syntactic parse tree, the evidence forest, the distiller) uses
//! as node identities — exactly the index scheme of Fig. 6 in the paper.
//! Tokens keep their surface form and lemma in a [`TokenStr`], inline
//! when short (nearly every word), so a document allocates no string per
//! token.
//!
//! Analysis is one pass. [`analyze`] splits sentences, cuts each token
//! without allocating, lowercases it once, tags it and lemmatizes it. A
//! distillation runs the same pass against a fitted [`WordTable`]
//! ([`WordIds::analyze`]): the table stores each known word's tag data
//! and lemma ids, so one probe per token replaces the per-word rules and
//! also gives the token's interned ids ([`DocIds`]). Plain [`analyze`] is
//! that pass over an empty table.
//!
//! ```
//! use gced_text::analyze;
//!
//! let doc = analyze("Denver Broncos defeated Carolina Panthers. They earned the title.");
//! assert_eq!(doc.sentences.len(), 2);
//! assert_eq!(doc.tokens[0].text, "Denver");
//! assert_eq!(&doc.text[doc.tokens[2].start..doc.tokens[2].end], "defeated");
//! ```

pub mod lemma;
pub mod pos;
pub mod sentence;
pub mod stopwords;
pub mod token;
pub mod tokenizer;
pub mod vocab;
pub mod words;

pub use lemma::lemmatize;
pub use pos::Pos;
pub use sentence::split_sentences;
pub use stopwords::{is_insignificant_question_word, WordClass};
pub use token::{SentId, Sentence, Token, TokenId, TokenStr};
pub use tokenizer::tokenize;
pub use vocab::Vocab;
pub use words::{DocIds, WordIds, WordTable};

use std::borrow::Cow;

/// A fully analysed text: raw text, tokens with POS and lemmas, and
/// sentence boundaries. Token `index` fields are global over the document.
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    /// The original input text (unmodified).
    pub text: String,
    /// All tokens, in order; `tokens[i].index == i`.
    pub tokens: Vec<Token>,
    /// Sentence spans over `tokens`.
    pub sentences: Vec<Sentence>,
}

impl Document {
    /// An empty document (no text, tokens, or sentences).
    pub fn empty() -> Self {
        Document {
            text: String::new(),
            tokens: Vec::new(),
            sentences: Vec::new(),
        }
    }

    /// Project the document onto a subset of its token indices without
    /// re-tokenizing, re-tagging, or re-lemmatizing.
    ///
    /// `selected` must be ascending, in-bounds token indices. The
    /// projection keeps each token's surface form, POS tag, lemma, and
    /// byte offsets; `index`/`sent` are re-densified. Consecutive
    /// selected tokens from the same original sentence stay in one
    /// sentence of the view, so sentence-scoped consumers (span
    /// enumeration, clue proximity) see the original boundaries.
    ///
    /// `view`'s buffers (including per-token `String`s) are reused, so a
    /// caller looping over many selections performs no steady-state
    /// allocation. The view's `text` is left empty: every consumer works
    /// from tokens, and the original text offsets remain available on
    /// each token.
    pub fn project_into(&self, selected: &[usize], view: &mut Document) {
        view.text.clear();
        let keep = view.tokens.len().min(selected.len());
        for (j, &i) in selected.iter().enumerate() {
            let src = &self.tokens[i];
            if j < keep {
                let dst = &mut view.tokens[j];
                dst.text.clone_from(&src.text);
                dst.lemma.clone_from(&src.lemma);
                dst.pos = src.pos;
                dst.start = src.start;
                dst.end = src.end;
            } else {
                view.tokens.push(src.clone());
            }
            view.tokens[j].index = j;
        }
        view.tokens.truncate(selected.len());
        view.sentences.clear();
        let mut run_start = 0usize;
        for j in 0..selected.len() {
            let src_sent = self.tokens[selected[j]].sent;
            let next_breaks =
                j + 1 == selected.len() || self.tokens[selected[j + 1]].sent != src_sent;
            if next_breaks {
                let sent_index = view.sentences.len();
                view.sentences.push(Sentence {
                    index: sent_index,
                    token_start: run_start,
                    token_end: j + 1,
                    char_start: self.tokens[selected[run_start]].start,
                    char_end: self.tokens[selected[j]].end,
                });
                for t in &mut view.tokens[run_start..=j] {
                    t.sent = sent_index;
                }
                run_start = j + 1;
            }
        }
    }

    /// Allocating convenience wrapper around [`Document::project_into`].
    pub fn project(&self, selected: &[usize]) -> Document {
        let mut view = Document::empty();
        self.project_into(selected, &mut view);
        view
    }

    /// `analyze(text)` for `text` holding whole sentences of this
    /// document — `sentences` ascending, their [`Document::sentence_text`]s
    /// joined by spaces — built by projection instead of re-analysis; or
    /// `None` when the projection could differ from the analysis.
    ///
    /// Tags and lemmas depend only on the surface forms and the sentence
    /// partition, so the projection equals `analyze(text)` exactly when
    /// splitting and tokenizing `text` gives back the selected sentences
    /// and surface forms. That check runs here, re-basing token and
    /// sentence offsets onto `text` as it goes. It fails, for example,
    /// when a closing quote after a period moves to the next sentence
    /// once re-split, or a period without a following space
    /// ("high.Then") starts a sentence once re-joined.
    pub fn project_sentences(&self, sentences: &[usize], text: &str) -> Option<Document> {
        let selected: Vec<usize> = sentences
            .iter()
            .flat_map(|&s| self.sentences[s].token_start..self.sentences[s].token_end)
            .collect();
        let mut view = self.project(&selected);
        let spans = split_sentences(text);
        if spans.len() != view.sentences.len() {
            return None;
        }
        let mut next = 0;
        for (sent, span) in view.sentences.iter_mut().zip(&spans) {
            let raw = &text[span.clone()];
            let mut same = true;
            tokenizer::token_spans(raw, |start, end| {
                match view.tokens.get_mut(next) {
                    Some(t) if next < sent.token_end && t.text == raw[start..end] => {
                        t.start = span.start + start;
                        t.end = span.start + end;
                    }
                    _ => same = false,
                }
                next += 1;
            });
            if !same || next != sent.token_end {
                return None;
            }
            sent.char_start = span.start;
            sent.char_end = span.end;
        }
        view.text = text.to_string();
        Some(view)
    }

    /// Tokens belonging to sentence `sent`.
    pub fn sentence_tokens(&self, sent: SentId) -> &[Token] {
        let s = &self.sentences[sent.0];
        &self.tokens[s.token_start..s.token_end]
    }

    /// Reconstruct the surface text of a sentence from its tokens
    /// (whitespace-joined; the original spacing is recoverable through
    /// the tokens' `start`/`end` offsets instead).
    pub fn sentence_text(&self, sent: SentId) -> String {
        join_tokens(self.sentence_tokens(sent))
    }

    /// Number of tokens in the document.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True if the document contains no tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }
}

/// Analyse raw text end to end: sentence split, tokenize, POS-tag,
/// lemmatize. The output token indices are global and dense.
pub fn analyze(text: &str) -> Document {
    analysis(text, None).0
}

/// Longest token (in bytes) lowercased into a stack buffer; longer ones
/// lowercase onto the heap.
const LOWER_BUF: usize = 64;

/// The analysis pass behind [`analyze`] (`ids` = `None`: an empty table,
/// no ids) and [`words::WordIds::analyze`]. Each sentence is cut into
/// tokens and each token lowercased once; a lowercase form the table
/// holds gives the token's id, tag data and lemma, and any other token
/// takes the per-word rules and, with `ids`, request-local ids. Then only
/// capitalization, sentence position and the gerund repair depend on
/// context.
fn analysis(text: &str, mut ids: Option<&mut words::WordIds<'_>>) -> (Document, DocIds) {
    let table = ids.as_ref().map_or(&words::EMPTY, |ids| ids.table());
    let sentence_spans = split_sentences(text);
    let mut tokens: Vec<Token> = Vec::with_capacity(text.len() / 4);
    let mut doc_ids = DocIds::default();
    if ids.is_some() {
        doc_ids.lower.reserve(text.len() / 4);
        doc_ids.lemma.reserve(text.len() / 4);
    }
    let mut sentences = Vec::with_capacity(sentence_spans.len());
    let mut buf = [0u8; LOWER_BUF];
    for span in sentence_spans.iter() {
        let token_start = tokens.len();
        let sent = sentences.len();
        tokenizer::token_spans(&text[span.clone()], |start, end| {
            let (start, end) = (start + span.start, end + span.start);
            let surface = &text[start..end];
            let sent_initial = tokens.len() == token_start;
            let prev = tokens.last().filter(|_| !sent_initial).map(|t| t.pos);
            let capitalized = pos::capitalized(surface);
            let ascii = surface.is_ascii();
            let has_upper = surface.bytes().any(|b| b.is_ascii_uppercase());
            let lower = if ascii && surface.len() <= LOWER_BUF && has_upper {
                let lower = &mut buf[..surface.len()];
                lower.copy_from_slice(surface.as_bytes());
                lower.make_ascii_lowercase();
                Cow::Borrowed(std::str::from_utf8(lower).expect("ASCII"))
            } else {
                token::lowercase(surface)
            };
            let hit = if ascii { table.analysis(&lower) } else { None };
            let (pos, lemma, id) = match hit {
                Some((id, info)) => {
                    let pos = pos::repair(info.tag.tag(capitalized, sent_initial), prev, &lower);
                    let lemma = info.lemma[lemma::lemma_class(pos)];
                    let form = if lemma == id {
                        &lower
                    } else {
                        table.word(lemma)
                    };
                    (pos, TokenStr::new(form), Some((id, lemma)))
                }
                None => {
                    let tag = pos::WordTag::of(surface, &lower).tag(capitalized, sent_initial);
                    let pos = pos::repair(tag, prev, &lower);
                    let (stem, tail) = lemma::lemma_parts(&lower, pos);
                    let lemma = TokenStr::concat(stem, tail);
                    let id = ids.as_mut().map(|ids| {
                        let w = ids.id(&lower);
                        let l = if lemma == *lower { w } else { ids.id(&lemma) };
                        (w, l)
                    });
                    (pos, lemma, id)
                }
            };
            if let Some((w, l)) = id {
                doc_ids.lower.push(w);
                doc_ids.lemma.push(l);
            }
            tokens.push(Token {
                text: TokenStr::new(surface),
                lemma,
                pos,
                index: tokens.len(),
                sent,
                start,
                end,
            });
        });
        let token_end = tokens.len();
        if token_end > token_start {
            sentences.push(Sentence {
                index: sent,
                token_start,
                token_end,
                char_start: span.start,
                char_end: span.end,
            });
        }
    }
    let doc = Document {
        text: text.to_string(),
        tokens,
        sentences,
    };
    (doc, doc_ids)
}

/// Join tokens into a readable string with simple detokenization rules:
/// no space before punctuation or after an opening bracket.
pub fn join_tokens(tokens: &[Token]) -> String {
    let mut out = String::new();
    for (i, t) in tokens.iter().enumerate() {
        let glue_left = matches!(
            t.text.as_str(),
            "." | "," | "!" | "?" | ";" | ":" | ")" | "]" | "}" | "'s" | "n't" | "%" | "'"
        );
        if i > 0 && !glue_left && !matches!(tokens[i - 1].text.as_str(), "(" | "[" | "{") {
            out.push(' ');
        }
        out.push_str(&t.text);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_assigns_global_indices() {
        let doc = analyze("The cat sat. The dog ran.");
        assert_eq!(doc.sentences.len(), 2);
        for (i, t) in doc.tokens.iter().enumerate() {
            assert_eq!(t.index, i);
        }
        assert_eq!(doc.sentences[0].token_start, 0);
        assert_eq!(doc.sentences[1].token_start, doc.sentences[0].token_end);
    }

    #[test]
    fn analyze_offsets_point_into_original_text() {
        let text = "William the Conqueror led troops, in 1066.";
        let doc = analyze(text);
        for t in &doc.tokens {
            assert_eq!(&text[t.start..t.end], t.text, "offset mismatch for {t:?}");
        }
    }

    #[test]
    fn sentence_tokens_partition_document() {
        let doc = analyze("One two. Three four five. Six.");
        let total: usize = doc
            .sentences
            .iter()
            .map(|s| s.token_end - s.token_start)
            .sum();
        assert_eq!(total, doc.tokens.len());
    }

    #[test]
    fn empty_input_yields_empty_document() {
        let doc = analyze("");
        assert!(doc.is_empty());
        assert!(doc.sentences.is_empty());
    }

    #[test]
    fn whitespace_only_input_yields_empty_document() {
        let doc = analyze("   \n\t  ");
        assert!(doc.is_empty());
    }

    #[test]
    fn join_tokens_respects_punctuation() {
        let doc = analyze("Hello, world!");
        assert_eq!(join_tokens(&doc.tokens), "Hello, world!");
    }

    #[test]
    fn sentence_text_roundtrip() {
        let doc = analyze("Broncos defeated Panthers. It was close.");
        assert_eq!(doc.sentence_text(SentId(0)), "Broncos defeated Panthers.");
        assert_eq!(doc.sentence_text(SentId(1)), "It was close.");
    }

    #[test]
    fn project_preserves_annotations_and_groups_sentences() {
        let doc = analyze("The cats sat here. The dog ran away. Birds sang.");
        // Select tokens spanning sentences 0 and 2, skipping some.
        let selected: Vec<usize> = doc
            .tokens
            .iter()
            .filter(|t| t.sent != 1 && !t.is_punct())
            .map(|t| t.index)
            .collect();
        let view = doc.project(&selected);
        assert_eq!(view.len(), selected.len());
        assert_eq!(view.sentences.len(), 2);
        for (j, &i) in selected.iter().enumerate() {
            assert_eq!(view.tokens[j].text, doc.tokens[i].text);
            assert_eq!(view.tokens[j].pos, doc.tokens[i].pos);
            assert_eq!(view.tokens[j].lemma, doc.tokens[i].lemma);
            assert_eq!(view.tokens[j].index, j);
        }
        // Sentence spans partition the view.
        let covered: usize = view.sentences.iter().map(|s| s.len()).sum();
        assert_eq!(covered, view.len());
    }

    #[test]
    fn project_into_reuses_buffers_and_handles_shrink_growth() {
        let doc = analyze("Alpha beta gamma delta. Epsilon zeta.");
        let mut view = Document::empty();
        doc.project_into(&[0, 1, 2, 3, 4, 5], &mut view);
        assert_eq!(view.len(), 6);
        doc.project_into(&[1, 5], &mut view);
        assert_eq!(view.len(), 2);
        assert_eq!(view.tokens[0].text, "beta");
        assert_eq!(view.tokens[1].text, "Epsilon");
        assert_eq!(view.sentences.len(), 2);
        doc.project_into(&[], &mut view);
        assert!(view.is_empty());
        assert!(view.sentences.is_empty());
    }

    #[test]
    fn project_matches_full_selection() {
        let doc = analyze("Broncos defeated Panthers. It was close.");
        let all: Vec<usize> = (0..doc.len()).collect();
        let view = doc.project(&all);
        assert_eq!(view.tokens, doc.tokens);
        assert_eq!(view.sentences.len(), doc.sentences.len());
    }

    /// The sentence subsets a distillation can pick: singles, adjacent
    /// and skip-one pairs, and everything.
    fn subsets(n: usize) -> Vec<Vec<usize>> {
        let mut out: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        out.extend((1..n).map(|i| vec![i - 1, i]));
        out.extend((2..n).map(|i| vec![i - 2, i]));
        out.push((0..n).collect());
        out
    }

    /// `project_sentences` either equals `analyze` of the joined text or
    /// declines; returns how many subsets it declined.
    fn declined_subsets(context: &str) -> usize {
        let doc = analyze(context);
        let mut declined = 0;
        for subset in subsets(doc.sentences.len()) {
            let parts: Vec<String> = subset
                .iter()
                .map(|&s| doc.sentence_text(SentId(s)))
                .collect();
            let text = parts.join(" ");
            match doc.project_sentences(&subset, &text) {
                Some(view) => assert_eq!(view, analyze(&text), "{context:?} {subset:?}"),
                None => declined += 1,
            }
        }
        declined
    }

    #[test]
    fn project_sentences_equals_reanalysis_on_hard_cases() {
        for context in [
            "Dr. Smith arrived. He sat down. Mrs. Jones left.",
            "The U.S. team won. U.K. fans cheered. The U.S. won again.",
            "B. Obama spoke. J. R. R. Tolkien wrote. Crowds cheered.",
            "It weighs 3.14 kg. It costs 1,000.50 dollars. 42 is the answer.",
            "Who won?! The Broncos!! Really?? Yes.",
            "He said (loudly) that it's over. The team's coach didn't agree.",
            "Caf\u{e9} na\u{ef}ve Zo\u{eb} left. \u{39f}\u{394}\u{39f}\u{3a3} ends. Stra\u{df}e.",
            "no terminal punctuation here",
            "One. Two. Three",
        ] {
            assert_eq!(declined_subsets(context), 0, "{context:?}");
        }
    }

    #[test]
    fn project_sentences_declines_when_rejoining_resplits() {
        // A closing quote after the period joins the next sentence once
        // re-split; a period glued to the next word splits once re-joined;
        // a "?"-sentence may start lowercase, which re-joins after ".".
        assert!(declined_subsets("He said \"stop.\" Then he left. It ended.") > 0);
        assert!(declined_subsets("The score was high.Then they left. Done.") > 0);
        assert!(declined_subsets("The team won. Really? yes they did.") > 0);
    }

    #[test]
    fn tokens_are_tagged_and_lemmatized() {
        let doc = analyze("The cats were running quickly.");
        let cats = &doc.tokens[1];
        assert_eq!(cats.lemma, "cat");
        let running = doc.tokens.iter().find(|t| t.text == "running").unwrap();
        assert_eq!(running.lemma, "run");
    }
}
