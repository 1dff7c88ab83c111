//! Question analysis and span feature extraction.

use gced_text::{is_insignificant_question_word, Document, Pos, TokenStr};
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

/// Expected answer type, derived from the question's wh-word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WhType {
    /// who / whom / whose → person-like proper noun.
    Person,
    /// where → location-like proper noun.
    Place,
    /// when / how many / how much → number.
    Number,
    /// which / what → entity (noun or proper noun).
    Entity,
    /// anything else.
    Unknown,
}

/// Pre-analysis of a question, reused across the candidate spans of a
/// context (and across ASE's repeated sentence-subset predictions).
#[derive(Debug, Clone)]
pub struct QuestionAnalysis {
    /// Lowercased form and lemma of each content word (QWS-style filter),
    /// in question order.
    content: Vec<(TokenStr, TokenStr)>,
    /// [`QuestionAnalysis::content_words`] and
    /// [`QuestionAnalysis::content_lemmas`], built on first use: only the
    /// string-keyed scorers read them.
    sets: OnceLock<(HashSet<String>, HashSet<String>)>,
    /// Expected answer type.
    pub wh: WhType,
    /// True when the wh-phrase is the grammatical subject ("Which team
    /// *defeated* X?") rather than an object/oblique ("Which team did X
    /// defeat?"). Subject answers sit before the relation verb in
    /// declarative contexts; object answers after.
    pub wh_subject: bool,
    /// The content words and lemmas as interned ids, when the question
    /// was analysed through an id space ([`QuestionAnalysis::from_doc_ids`]).
    pub ids: Option<ContentIds>,
}

/// [`QuestionAnalysis`]'s content sets as ids of an interner that maps
/// each distinct lowercased word to one id (sorted, deduplicated), so
/// that a document interned the same way matches by id equality.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ContentIds {
    /// Ids of [`QuestionAnalysis::content_words`]; the distinct ids are
    /// the distinct words.
    pub words: Vec<u32>,
    /// Ids of [`QuestionAnalysis::content_lemmas`].
    pub lemmas: Vec<u32>,
}

impl ContentIds {
    /// True if a token with lowercase-form id `lower` and lemma id
    /// `lemma` matches a question content word —
    /// [`QuestionAnalysis::matches`] by id.
    pub fn matches(&self, lower: u32, lemma: u32) -> bool {
        self.words.binary_search(&lower).is_ok() || self.lemmas.binary_search(&lemma).is_ok()
    }
}

impl QuestionAnalysis {
    /// Analyse a question string.
    pub fn new(question: &str) -> Self {
        Self::from_doc(&gced_text::analyze(question))
    }

    /// [`QuestionAnalysis::new`] of an already analysed question.
    pub fn from_doc(doc: &Document) -> Self {
        Self::build(doc, None)
    }

    /// [`QuestionAnalysis::from_doc`] plus the content sets as ids:
    /// `lower[i]` and `lemma[i]` are the interned ids of token `i`'s
    /// lowercased form and lemma.
    pub fn from_doc_ids(doc: &Document, lower: &[u32], lemma: &[u32]) -> Self {
        Self::build(doc, Some((lower, lemma)))
    }

    fn build(doc: &Document, token_ids: Option<(&[u32], &[u32])>) -> Self {
        let mut content = Vec::with_capacity(doc.len());
        let mut ids = token_ids.map(|_| ContentIds::default());
        let mut wh = WhType::Unknown;
        let mut how_seen = false;
        for (i, t) in doc.tokens.iter().enumerate() {
            let lower = t.lower_cow();
            match &*lower {
                "who" | "whom" | "whose" => wh = WhType::Person,
                "where" => wh = WhType::Place,
                "when" => wh = WhType::Number,
                "how" => how_seen = true,
                "many" | "much" if how_seen => wh = WhType::Number,
                "which" | "what" if wh == WhType::Unknown => {
                    wh = WhType::Entity;
                }
                _ => {}
            }
            if !is_insignificant_question_word(&lower) && t.pos != Pos::Punct {
                if let (Some(ids), Some((w, l))) = (ids.as_mut(), token_ids) {
                    ids.words.push(w[i]);
                    ids.lemmas.push(l[i]);
                }
                content.push((TokenStr::from(lower.as_ref()), t.lemma.clone()));
            }
        }
        if let Some(ids) = ids.as_mut() {
            for v in [&mut ids.words, &mut ids.lemmas] {
                v.sort_unstable();
                v.dedup();
            }
        }
        // Subject detection: scanning right from the wh-word, a main verb
        // before any auxiliary marks the wh-phrase as the subject.
        let mut wh_subject = false;
        if let Some(wh_pos) = doc.tokens.iter().position(|t| t.pos == Pos::Wh) {
            for t in &doc.tokens[wh_pos + 1..] {
                match t.pos {
                    Pos::Verb => {
                        wh_subject = true;
                        break;
                    }
                    Pos::Aux => break,
                    _ => {}
                }
            }
        }
        QuestionAnalysis {
            content,
            sets: OnceLock::new(),
            wh,
            wh_subject,
            ids,
        }
    }

    fn sets(&self) -> &(HashSet<String>, HashSet<String>) {
        self.sets.get_or_init(|| {
            let words = self.content.iter().map(|(w, _)| w.to_string()).collect();
            let lemmas = self.content.iter().map(|(_, l)| l.to_string()).collect();
            (words, lemmas)
        })
    }

    /// Lowercased content words of the question (QWS-style filter).
    pub fn content_words(&self) -> &HashSet<String> {
        &self.sets().0
    }

    /// Lemmas of the content words.
    pub fn content_lemmas(&self) -> &HashSet<String> {
        &self.sets().1
    }

    /// True if a (lowercased word, lemma) pair matches a question
    /// content word.
    pub fn matches(&self, lower: &str, lemma: &str) -> bool {
        self.content_words().contains(lower) || self.content_lemmas().contains(lemma)
    }
}

/// Number of base features produced by [`base_features`].
pub const N_BASE: usize = 14;

/// Total feature arity after wh-type crossing: one shared block plus one
/// block per [`WhType`] (the crossing lets the perceptron learn, e.g.,
/// that clue adjacency matters for *which*-questions but not for
/// *when*-questions — a per-type weight a flat model cannot express).
pub const N_FEATURES: usize = N_BASE * 6;

/// Index of the crossed block for a wh-type (block 0 is shared).
pub(crate) fn wh_block(wh: WhType) -> usize {
    match wh {
        WhType::Person => 1,
        WhType::Place => 2,
        WhType::Number => 3,
        WhType::Entity => 4,
        WhType::Unknown => 5,
    }
}

/// The crossed feature vector: base features in block 0, a copy in the
/// block of the question's wh-type, zeros elsewhere.
pub fn span_features(
    doc: &Document,
    start: usize,
    end: usize,
    q: &QuestionAnalysis,
    clue_pos: &[usize],
    idf: &HashMap<String, f64>,
) -> Vec<f64> {
    let base = base_features(doc, start, end, q, clue_pos, idf);
    let mut out = vec![0.0; N_FEATURES];
    out[..N_BASE].copy_from_slice(&base);
    let block = wh_block(q.wh);
    out[block * N_BASE..(block + 1) * N_BASE].copy_from_slice(&base);
    out
}

/// Dense base feature vector over a candidate span `[start, end)`
/// (global token indices) of an analysed context.
///
/// `clue_pos` are the token indices in the context matching question
/// content words; `idf` maps lowercased words to inverse document
/// frequencies learned at training time.
pub fn base_features(
    doc: &Document,
    start: usize,
    end: usize,
    q: &QuestionAnalysis,
    clue_pos: &[usize],
    idf: &HashMap<String, f64>,
) -> [f64; N_BASE] {
    let sent = doc.tokens[start].sent;
    let coverage = sentence_clue_coverage(doc, sent, q);
    base_features_with_coverage(doc, start, end, q, clue_pos, idf, coverage)
}

/// The f1 term of [`base_features`]: fraction of the question's content
/// lemmas present in sentence `sent`. Span-independent, so the span
/// scorer computes it once per sentence instead of once per candidate
/// span.
pub fn sentence_clue_coverage(doc: &Document, sent: usize, q: &QuestionAnalysis) -> f64 {
    if q.content_lemmas().is_empty() {
        return 0.0;
    }
    let sent_span = &doc.sentences[sent];
    let present = doc.tokens[sent_span.token_start..sent_span.token_end]
        .iter()
        .filter(|t| q.content_lemmas().contains(t.lemma.as_str()))
        .map(|t| t.lemma.as_str())
        .collect::<HashSet<_>>()
        .len();
    present as f64 / q.content_lemmas().len() as f64
}

/// [`base_features`] with the sentence clue coverage (f1) supplied by
/// the caller — see [`sentence_clue_coverage`].
pub fn base_features_with_coverage(
    doc: &Document,
    start: usize,
    end: usize,
    q: &QuestionAnalysis,
    clue_pos: &[usize],
    idf: &HashMap<String, f64>,
    sentence_coverage: f64,
) -> [f64; N_BASE] {
    let span = &doc.tokens[start..end];
    let sent = doc.tokens[start].sent;
    let sent_span = &doc.sentences[sent];
    let len = end - start;
    let mut f = [0.0; N_BASE];
    // f0: bias
    f[0] = 1.0;
    // f1: fraction of question content lemmas present in the sentence.
    f[1] = sentence_coverage;
    // f2: proximity to the nearest clue token outside the span
    // (clues in another sentence are distance-penalized).
    let nearest = clue_pos
        .iter()
        .filter(|&&p| p < start || p >= end)
        .map(|&p| {
            let d = if p < start { start - p } else { p + 1 - end };
            if doc.tokens[p].sent == sent {
                d
            } else {
                d + 6
            }
        })
        .min();
    f[2] = match nearest {
        Some(d) => 1.0 / (1.0 + d as f64),
        None => 0.0,
    };
    // f3: answer-type match.
    let has_num = span.iter().any(|t| t.pos == Pos::Num);
    let has_proper = span.iter().any(|t| t.pos == Pos::ProperNoun);
    let has_noun = span
        .iter()
        .any(|t| matches!(t.pos, Pos::Noun | Pos::ProperNoun));
    f[3] = match q.wh {
        WhType::Person | WhType::Place => {
            if has_proper {
                1.0
            } else {
                0.0
            }
        }
        WhType::Number => {
            if has_num {
                1.0
            } else {
                0.0
            }
        }
        WhType::Entity => {
            if has_noun {
                1.0
            } else {
                0.0
            }
        }
        WhType::Unknown => 0.5,
    };
    // f4: length penalty (prefer short spans; gold spans are 1-4 tokens).
    f[4] = (len as f64 - 2.0).abs() / 4.0;
    // f5: overlap with the question (answers rarely repeat the question).
    let overlap = span
        .iter()
        .filter(|t| q.matches(&t.lower_cow(), &t.lemma))
        .count();
    f[5] = overlap as f64 / len as f64;
    // f6: mean IDF (rarity) of span tokens.
    f[6] = span
        .iter()
        .map(|t| idf.get(&*t.lower_cow()).copied().unwrap_or(2.0))
        .sum::<f64>()
        / len as f64
        / 10.0;
    // f7: proper-noun fraction.
    f[7] = span.iter().filter(|t| t.pos == Pos::ProperNoun).count() as f64 / len as f64;
    // f8: number fraction.
    f[8] = span.iter().filter(|t| t.pos == Pos::Num).count() as f64 / len as f64;
    // f9: a clue token within 3 tokens *before* the span (patterns like
    // "(AFC) champion <span>").
    f[9] = clue_pos.iter().any(|&p| p < start && start - p <= 3) as u8 as f64;
    // f10: a clue token within 3 tokens *after* the span ("<span> was
    // born" patterns).
    f[10] = clue_pos.iter().any(|&p| p >= end && p + 1 - end <= 3) as u8 as f64;
    // f11: span is sentence-initial (subjects often answer who/which).
    f[11] = (start == sent_span.token_start) as u8 as f64;
    // f12/f13: direction-aware verb-clue adjacency. Subject questions
    // ("Which team defeated X?") expect the answer just *before* the
    // relation verb; object questions just *after* it.
    let verb_clue_after = clue_pos
        .iter()
        .any(|&p| p >= end && p + 1 - end <= 3 && doc.tokens[p].pos == Pos::Verb);
    let verb_clue_before = clue_pos
        .iter()
        .any(|&p| p < start && start - p <= 3 && doc.tokens[p].pos == Pos::Verb);
    f[12] = (q.wh_subject && verb_clue_after) as u8 as f64;
    f[13] = (!q.wh_subject && verb_clue_before) as u8 as f64;
    f
}

/// Token indices of the context matching the question's content words.
pub fn clue_positions(doc: &Document, q: &QuestionAnalysis) -> Vec<usize> {
    let mut out = Vec::new();
    clue_positions_into(doc, q, &mut out);
    out
}

/// Enumerate candidate spans: within one sentence, 1..=`max_len` tokens,
/// starting and ending on content-bearing tokens.
pub fn candidate_spans(doc: &Document, max_len: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for_each_candidate_span(doc, max_len, |s, e| out.push((s, e)));
    out
}

/// Streaming form of [`candidate_spans`]: invokes `f(start, end)` per
/// span in the same order without materializing the span list (the span
/// scorer's inner loop runs once per clip-search candidate, so the
/// allocation matters).
pub fn for_each_candidate_span<F: FnMut(usize, usize)>(doc: &Document, max_len: usize, mut f: F) {
    for s in &doc.sentences {
        for start in s.token_start..s.token_end {
            if !span_boundary(&doc.tokens[start].pos) {
                continue;
            }
            let hi = (start + max_len).min(s.token_end);
            for end in (start + 1)..=hi {
                if !span_boundary(&doc.tokens[end - 1].pos) {
                    continue;
                }
                f(start, end);
            }
        }
    }
}

/// Token indices of the context matching the question's content words,
/// appended to `out` (reusable-buffer form of [`clue_positions`]).
pub fn clue_positions_into(doc: &Document, q: &QuestionAnalysis, out: &mut Vec<usize>) {
    out.clear();
    out.extend(
        doc.tokens
            .iter()
            .filter(|t| q.matches(&t.lower_cow(), &t.lemma))
            .map(|t| t.index),
    );
}

/// POS tags allowed at span boundaries.
pub(crate) fn span_boundary(pos: &Pos) -> bool {
    matches!(
        pos,
        Pos::Noun | Pos::ProperNoun | Pos::Num | Pos::Adj | Pos::Verb | Pos::Other | Pos::Pronoun
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gced_text::analyze;

    #[test]
    fn wh_type_detection() {
        assert_eq!(
            QuestionAnalysis::new("Who won the game?").wh,
            WhType::Person
        );
        assert_eq!(
            QuestionAnalysis::new("Where was she born?").wh,
            WhType::Place
        );
        assert_eq!(
            QuestionAnalysis::new("When did it happen?").wh,
            WhType::Number
        );
        assert_eq!(
            QuestionAnalysis::new("How many people live there?").wh,
            WhType::Number
        );
        assert_eq!(
            QuestionAnalysis::new("Which team represented the AFC?").wh,
            WhType::Entity
        );
        assert_eq!(QuestionAnalysis::new("Name the duke.").wh, WhType::Unknown);
    }

    #[test]
    fn content_words_filtered() {
        let q = QuestionAnalysis::new("Which NFL team represented the AFC at Super Bowl 50?");
        assert!(q.content_words().contains("nfl"));
        assert!(q.content_words().contains("team"));
        assert!(q.content_words().contains("represented"));
        assert!(!q.content_words().contains("which"));
        assert!(!q.content_words().contains("the"));
        assert!(!q.content_words().contains("at"));
    }

    #[test]
    fn lemma_matching() {
        let q = QuestionAnalysis::new("Who defeated the Panthers?");
        // "defeat" is the lemma of "defeated"
        assert!(q.matches("defeated", "defeat"));
        assert!(q.matches("defeats", "defeat"));
        assert!(!q.matches("celebrated", "celebrate"));
    }

    #[test]
    fn clue_positions_found() {
        let q = QuestionAnalysis::new("Which team defeated the Panthers?");
        let doc = analyze("The Broncos defeated the Panthers. The team celebrated.");
        let clues = clue_positions(&doc, &q);
        let words: Vec<&str> = clues.iter().map(|&i| doc.tokens[i].text.as_str()).collect();
        assert!(words.contains(&"defeated"));
        assert!(words.contains(&"Panthers"));
        assert!(words.contains(&"team"));
    }

    #[test]
    fn candidate_spans_stay_within_sentences() {
        let doc = analyze("Alpha beta. Gamma delta.");
        for (s, e) in candidate_spans(&doc, 4) {
            assert_eq!(doc.tokens[s].sent, doc.tokens[e - 1].sent);
        }
    }

    #[test]
    fn candidate_spans_exclude_punctuation_boundaries() {
        let doc = analyze("The Broncos, strong and fast, won.");
        for (s, e) in candidate_spans(&doc, 5) {
            assert_ne!(doc.tokens[s].pos, Pos::Punct);
            assert_ne!(doc.tokens[e - 1].pos, Pos::Punct);
        }
    }

    #[test]
    fn features_have_fixed_arity_and_bias() {
        let q = QuestionAnalysis::new("Who won?");
        let doc = analyze("Broncos won the title.");
        let clues = clue_positions(&doc, &q);
        let f = span_features(&doc, 0, 1, &q, &clues, &HashMap::new());
        assert_eq!(f.len(), N_FEATURES);
        assert_eq!(f[0], 1.0);
    }

    #[test]
    fn type_match_feature_fires() {
        let q = QuestionAnalysis::new("When did the Broncos win?");
        let doc = analyze("The Broncos won in 1998.");
        let clues = clue_positions(&doc, &q);
        let year = doc.tokens.iter().position(|t| t.text == "1998").unwrap();
        let f_num = span_features(&doc, year, year + 1, &q, &clues, &HashMap::new());
        assert_eq!(f_num[3], 1.0);
        let broncos = doc.tokens.iter().position(|t| t.text == "Broncos").unwrap();
        let f_np = span_features(&doc, broncos, broncos + 1, &q, &clues, &HashMap::new());
        assert_eq!(f_np[3], 0.0);
    }

    #[test]
    fn proximity_feature_decays() {
        let q = QuestionAnalysis::new("Which team defeated the Panthers?");
        let doc = analyze("The Broncos defeated the Panthers badly yesterday evening.");
        let clues = clue_positions(&doc, &q);
        let broncos = 1;
        let evening = doc.tokens.iter().position(|t| t.text == "evening").unwrap();
        let near = span_features(&doc, broncos, broncos + 1, &q, &clues, &HashMap::new());
        let far = span_features(&doc, evening, evening + 1, &q, &clues, &HashMap::new());
        assert!(near[2] > far[2]);
    }
}
