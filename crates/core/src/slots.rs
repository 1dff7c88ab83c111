//! Eq. 1 F1 counted over answer-word slots.
//!
//! Informativeness is the SQuAD token F1 between the QA model's
//! predicted span and the input answer ([`token_f1`] over
//! [`normalize_answer`]ed words). The search phases score hundreds of
//! predicted spans of one document against one answer, so each token is
//! normalized once into *slots*: one entry per normalized word, holding
//! the index of the distinct answer word it equals, or `NOT_ANSWER`. A
//! span's F1 is then a count over its tokens' slots fed to
//! [`f1_from_counts`], `token_f1`'s own arithmetic — bit-identical, with
//! no text built.
//!
//! For ASCII tokens, normalizing a joined span equals normalizing its
//! tokens one by one: every join without a space puts a non-alphanumeric
//! byte between them, except across a glued `n't`, which fuses with its
//! left neighbour. Spans holding an `n't` or a non-ASCII token (whose
//! lowercasing can depend on its neighbours, as the Greek final sigma
//! does), and every span scored against an answer that normalizes to
//! nothing, are scored on the joined string instead.

use gced_metrics::overlap::{f1_from_counts, normalize_answer, token_f1};
use gced_qa::model::MAX_SPAN;
use gced_text::{join_tokens, Document, Token};

/// Slot of a normalized word that is not an answer word.
const NOT_ANSWER: u32 = u32::MAX;

/// The normalized answer as slots: its distinct words and their
/// multiplicities. Built once per answer and shared by the slots of
/// every document scored against it.
#[derive(Debug, Clone)]
pub(crate) struct AnswerWords {
    /// Distinct normalized answer words, in first-occurrence order.
    words: Vec<String>,
    /// Multiplicity of each distinct word.
    quota: Vec<u32>,
    /// Length of the normalized answer (`token_f1`'s reference length);
    /// 0 routes every span to the string path.
    len: usize,
}

impl AnswerWords {
    pub(crate) fn new(answer: &str) -> Self {
        let ans_norm = normalize_answer(answer);
        let mut out = AnswerWords {
            words: Vec::new(),
            quota: Vec::new(),
            len: ans_norm.len(),
        };
        for w in ans_norm {
            match out.words.iter().position(|x| *x == w) {
                Some(k) => out.quota[k] += 1,
                None => {
                    out.words.push(w);
                    out.quota.push(1);
                }
            }
        }
        out
    }
}

/// Answer-word slots of one document's tokens against one answer.
#[derive(Debug, Clone)]
pub(crate) struct AnswerSlots<'w> {
    answer: &'w AnswerWords,
    /// Slots of every token, concatenated.
    slots: Vec<u32>,
    /// End of each token's slots in `slots`.
    slot_end: Vec<u32>,
    /// Token shares a word with the answer (or is an `n't`, which
    /// forces evaluation).
    overlap: Vec<bool>,
    /// Token needs the joined-string path.
    joined: Vec<bool>,
}

impl<'w> AnswerSlots<'w> {
    /// Slot every token of `doc` against `answer`.
    pub(crate) fn new(doc: &Document, answer: &'w AnswerWords) -> Self {
        let mut out = AnswerSlots {
            answer,
            slots: Vec::new(),
            slot_end: Vec::new(),
            overlap: Vec::new(),
            joined: Vec::new(),
        };
        if answer.len == 0 {
            return out;
        }
        let words = &answer.words;
        let n = doc.tokens.len();
        out.slots.reserve(n + n / 2);
        out.slot_end.reserve(n);
        out.overlap.reserve(n);
        out.joined.reserve(n);
        for t in &doc.tokens {
            let text = t.text.as_bytes();
            if text.is_ascii() {
                let mut hit = text.eq_ignore_ascii_case(b"n't");
                for w in text
                    .split(|c| !c.is_ascii_alphanumeric())
                    .filter(|w| !w.is_empty() && !is_article(w))
                {
                    let slot = words
                        .iter()
                        .position(|a| a.as_bytes().eq_ignore_ascii_case(w))
                        .map_or(NOT_ANSWER, |k| k as u32);
                    hit |= slot != NOT_ANSWER;
                    out.slots.push(slot);
                }
                out.overlap.push(hit);
                out.joined.push(text == b"n't");
            } else {
                out.overlap.push(
                    normalize_answer(&t.text).iter().any(|w| words.contains(w))
                        || t.lower() == "n't",
                );
                out.joined.push(true);
            }
            out.slot_end.push(out.slots.len() as u32);
        }
        out
    }

    fn token_slots(&self, i: usize) -> &[u32] {
        let lo = if i == 0 {
            0
        } else {
            self.slot_end[i - 1] as usize
        };
        &self.slots[lo..self.slot_end[i] as usize]
    }

    /// `token_f1(&prediction.text, answer).f1` for a prediction over the
    /// view `selected` of the document: `span` is the predicted view
    /// range (the answer is `selected[s..e]`), `None` an abstention.
    pub(crate) fn prediction_f1(
        &self,
        doc: &Document,
        selected: &[usize],
        span: Option<(usize, usize)>,
        answer: &str,
    ) -> f64 {
        match span {
            Some((s, e)) => self.span_f1(doc, &selected[s..e], answer),
            // The empty prediction: F1 = 1 only against an empty answer.
            None => f1_from_counts(0, 0, self.answer.len).f1,
        }
    }

    /// `token_f1` of the joined tokens `span` (document indices, in
    /// order) against `answer`.
    pub(crate) fn span_f1(&self, doc: &Document, span: &[usize], answer: &str) -> f64 {
        if self.answer.len == 0 || span.iter().any(|&t| self.joined[t]) {
            let tokens: Vec<Token> = span.iter().map(|&t| doc.tokens[t].clone()).collect();
            return token_f1(&join_tokens(&tokens), answer).f1;
        }
        // Bag intersection: an occurrence of answer word k counts while
        // fewer than quota[k] earlier occurrences in the span did.
        let (mut common, mut pred_len) = (0usize, 0usize);
        for (j, &t) in span.iter().enumerate() {
            let own = self.token_slots(t);
            for (i, &slot) in own.iter().enumerate() {
                pred_len += 1;
                if slot == NOT_ANSWER {
                    continue;
                }
                let earlier = span[..j]
                    .iter()
                    .flat_map(|&u| self.token_slots(u))
                    .chain(&own[..i])
                    .filter(|&&x| x == slot)
                    .count();
                if earlier < self.answer.quota[slot as usize] as usize {
                    common += 1;
                }
            }
        }
        f1_from_counts(common, pred_len, self.answer.len).f1
    }

    /// Admissible upper bound on the answer F1 of any trial holding each
    /// sentence: the best F1 over the sentence's candidate spans (see
    /// [`crate::ase::sentence_f1_bounds`]).
    pub(crate) fn sentence_bounds(&self, doc: &Document, answer: &str) -> Vec<f64> {
        let n_sents = doc.sentences.len();
        let AnswerWords { quota, len, .. } = self.answer;
        if *len == 0 {
            return vec![1.0; n_sents];
        }
        let mut counts = vec![0u32; quota.len()];
        let mut bounds = vec![0.0f64; n_sents];
        for (si, s) in doc.sentences.iter().enumerate() {
            if !self.overlap[s.token_start..s.token_end].contains(&true) {
                continue; // no shared token ⇒ every span scores F1 = 0
            }
            let mut best = 0.0f64;
            for start in s.token_start..s.token_end {
                let hi = (start + MAX_SPAN).min(s.token_end);
                counts.fill(0);
                let (mut common, mut pred_len) = (0usize, 0usize);
                let (mut touched, mut slow) = (false, false);
                for end in (start + 1)..=hi {
                    let i = end - 1;
                    touched |= self.overlap[i];
                    slow |= self.joined[i];
                    if !slow {
                        for &slot in self.token_slots(i) {
                            pred_len += 1;
                            if slot != NOT_ANSWER {
                                let k = slot as usize;
                                counts[k] += 1;
                                if counts[k] <= quota[k] {
                                    common += 1;
                                }
                            }
                        }
                    }
                    if !touched {
                        continue;
                    }
                    let f1 = if slow {
                        token_f1(&join_tokens(&doc.tokens[start..end]), answer).f1
                    } else {
                        f1_from_counts(common, pred_len, *len).f1
                    };
                    if f1 > best {
                        best = f1;
                    }
                }
            }
            bounds[si] = best;
        }
        bounds
    }
}

/// The articles [`normalize_answer`] drops, on a not-yet-lowercased word.
fn is_article(w: &[u8]) -> bool {
    [&b"a"[..], b"an", b"the"]
        .iter()
        .any(|a| a.eq_ignore_ascii_case(w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gced_text::analyze;

    /// Every contiguous and gapped span of up to 7 tokens, slot-counted
    /// against the joined-string oracle, bit for bit.
    fn assert_spans_match(context: &str, answer: &str) {
        let doc = analyze(context);
        let words = AnswerWords::new(answer);
        let slots = AnswerSlots::new(&doc, &words);
        let n = doc.len();
        let mut spans: Vec<Vec<usize>> = Vec::new();
        for s in 0..n {
            for e in s + 1..=(s + 7).min(n) {
                spans.push((s..e).collect());
                // Gapped: every other token, as a clipped view sees it.
                spans.push((s..e).step_by(2).collect());
            }
        }
        for span in spans {
            let tokens: Vec<Token> = span.iter().map(|&t| doc.tokens[t].clone()).collect();
            let want = token_f1(&join_tokens(&tokens), answer).f1;
            let got = slots.span_f1(&doc, &span, answer);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{context:?} / {answer:?} span {span:?}: {got} vs {want}"
            );
        }
        let none = slots.prediction_f1(&doc, &[], None, answer);
        assert_eq!(none.to_bits(), token_f1("", answer).f1.to_bits());
    }

    #[test]
    fn span_f1_matches_token_f1_on_adversarial_text() {
        let contexts = [
            "The Broncos didn't lose. They won't stop. It isn't over, and DIDN'T end.",
            "Bob's team beat Ann's. The Broncos's title came (finally) at the [AFC] {final}.",
            "Denver Broncos Denver Broncos Denver. Broncos broncos BRONCOS the Broncos.",
            "ΟΔΟΣ'S ΟΔΟΣ ends here. Σ and σ and ς. Straße İstanbul café naïve Zoë.",
            "The \u{212a}elvin scale and K and k. İ i I ı. ſ s S long-ſ.",
            "It weighs 3.14 kg, cost 1,000 dollars and 50% more. U.S. troops met Dr. Smith.",
            "An apple and an Orange met a pear. Apple an pear. Orange the apple. Pear AN apple.",
            "The the a an. A an the! . , ; : ( ) [ ] ...",
        ];
        let answers = [
            "Denver Broncos",
            "Broncos Broncos",
            "broncos denver broncos",
            "didn't",
            "n't",
            "Bob's",
            "(AFC)",
            "the",
            "",
            "!?",
            "ΟΔΟΣ",
            "\u{212a}",
            "k",
            "İ",
            "i",
            "ſ",
            "s",
            "3.14",
            "U.S.",
            "apple apple pear",
        ];
        for context in contexts {
            for answer in answers {
                assert_spans_match(context, answer);
            }
        }
    }
}
