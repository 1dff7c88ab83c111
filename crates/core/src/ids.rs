//! Fitted id tables: every word the fitted substrates know, interned
//! once into a dense `u32` id space.
//!
//! Every score the Grow-and-Clip search maximizes is keyed by a word:
//! the QA span scorer's clue and IDF features, the QWS expansion
//! (Sec. III-C), the LM's word ids (Eq. 4), the refined embedding rows
//! (Sec. III-D). [`IdTable`] is built once per pipeline from the fitted
//! parts — the LM vocabulary, the QA IDF words, the refined embedding
//! words and the lexicon words, plus the lemma forms their analysis
//! reaches — with ids assigned in sorted word order, and carries per id:
//!
//! * its tag data and lemma ids ([`gced_text::WordTable`]);
//! * its IDF (the unseen-word default 2.0 when training never saw it);
//! * its LM [`WordId`] ([`UNK`] when outside the LM vocabulary);
//! * its refined embedding row, if any;
//! * its QWS related closure (the word, its synonyms, antonyms and
//!   hypernym siblings) as a sorted id list, for lexicon words.
//!
//! A distillation analyses each text against the table once
//! ([`RequestIds::analyze`]): one probe per token gives the id of its
//! lowercased form, its tag data and its lemma's id. Words outside the
//! table get request-local ids past the fitted range, so id equality is
//! string equality for every word of the request, and every lookup after
//! that is an array index. A lemma form no fitted part knows holds the
//! payloads of an unseen word (IDF 2.0, [`UNK`], no row, no closure), as
//! its request-local id would. The table is derived from the fitted
//! parts, so the fit-cache artifact does not carry it.

use gced_lexicon::Lexicon;
use gced_lm::TrigramLm;
use gced_nn::EmbeddingTable;
use gced_qa::QaModel;
use gced_text::vocab::{WordId, UNK};
pub use gced_text::DocIds;
use gced_text::{Document, WordIds, WordTable};

/// No refined embedding row.
const NO_ROW: u32 = u32::MAX;

/// The fitted id table of one pipeline (see the module docs).
#[derive(Debug, Clone)]
pub struct IdTable {
    words: WordTable,
    idf: Vec<f64>,
    lm: Vec<WordId>,
    emb_row: Vec<u32>,
    /// Prefix ends into `related` per id; an empty range means the
    /// closure is the word alone.
    related_end: Vec<u32>,
    related: Vec<u32>,
}

impl IdTable {
    /// Intern the union of the fitted vocabularies, in sorted order.
    pub fn build(qa: &QaModel, lm: &TrigramLm, emb: &EmbeddingTable, lexicon: &Lexicon) -> Self {
        let idf_parts = qa.idf_parts();
        let lexicon_words = lexicon.words();
        let words = WordTable::new(
            lm.vocab()
                .iter()
                .map(|(_, w, _)| w)
                .chain(idf_parts.iter().map(|(w, _)| w.as_str()))
                .chain(emb.fitted_words())
                .chain(lexicon_words.iter().copied()),
        );
        let all: Vec<&str> = (0..words.len() as u32).map(|k| words.word(k)).collect();
        let id_of = |w: &str| words.get(w).expect("closure words are lexicon words") as usize;
        let mut idf = vec![2.0; all.len()];
        for (w, x) in &idf_parts {
            idf[id_of(w)] = *x;
        }
        let lm_ids = all.iter().map(|w| lm.vocab().get(w)).collect();
        let emb_row = all
            .iter()
            .map(|w| emb.row_of(w).unwrap_or(NO_ROW))
            .collect();
        let mut related_end = Vec::with_capacity(all.len());
        let mut related: Vec<u32> = Vec::new();
        let mut closure: Vec<u32> = Vec::new();
        for w in &all {
            if lexicon.knows(w) {
                closure.clear();
                closure.extend(lexicon.related(w).iter().map(|r| id_of(r) as u32));
                closure.sort_unstable();
                related.extend_from_slice(&closure);
            }
            related_end.push(related.len() as u32);
        }
        IdTable {
            words,
            idf,
            lm: lm_ids,
            emb_row,
            related_end,
            related,
        }
    }

    /// Number of fitted ids; request-local ids start here.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when no substrate contributed a word.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The fitted id of `word`, if any.
    #[cfg(test)]
    fn get(&self, word: &str) -> Option<u32> {
        self.words.get(word)
    }

    /// IDF per fitted id (unseen words hold the default 2.0).
    pub fn idf(&self) -> &[f64] {
        &self.idf
    }

    /// The LM word id of `id` ([`UNK`] for request-local ids).
    pub fn lm_id(&self, id: u32) -> WordId {
        self.lm.get(id as usize).copied().unwrap_or(UNK)
    }

    /// The refined embedding row of `id`, if it has one.
    pub fn emb_row(&self, id: u32) -> Option<u32> {
        self.emb_row
            .get(id as usize)
            .copied()
            .filter(|&r| r != NO_ROW)
    }

    /// The QWS related closure of `id` as sorted ids, or `None` when it
    /// is the word alone (words the lexicon does not know, and every
    /// request-local id).
    pub fn related(&self, id: u32) -> Option<&[u32]> {
        let k = id as usize;
        let end = *self.related_end.get(k)? as usize;
        let lo = if k == 0 {
            0
        } else {
            self.related_end[k - 1] as usize
        };
        (lo < end).then(|| &self.related[lo..end])
    }

    /// The table of a pipeline with no refined embeddings and an empty
    /// lexicon (scoring tests need only the IDF and LM ids).
    #[cfg(test)]
    pub(crate) fn for_scoring(qa: &QaModel, lm: &TrigramLm) -> Self {
        Self::build(qa, lm, &EmbeddingTable::new(8, 1), &Lexicon::empty())
    }

    /// A fresh request-local id space over this table.
    pub fn request(&self) -> RequestIds<'_> {
        RequestIds {
            table: self,
            words: WordIds::new(&self.words),
        }
    }
}

/// The id space of one request: the fitted table plus request-local ids
/// for words outside it.
#[derive(Debug, Clone)]
pub struct RequestIds<'t> {
    table: &'t IdTable,
    words: WordIds<'t>,
}

impl<'t> RequestIds<'t> {
    /// The fitted table.
    pub fn table(&self) -> &'t IdTable {
        self.table
    }

    /// The id of `word`: its fitted id, or a request-local one.
    pub fn id(&mut self, word: &str) -> u32 {
        self.words.id(word)
    }

    /// Analyse `text` against the fitted table, interning its tokens
    /// ([`WordIds::analyze`]).
    pub fn analyze(&mut self, text: &str) -> (Document, DocIds) {
        self.words.analyze(text)
    }

    /// Intern every token of an analysed `doc`: the string oracle of
    /// [`RequestIds::analyze`]'s ids.
    pub fn intern(&mut self, doc: &Document) -> DocIds {
        self.words.intern(doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gced_qa::ModelProfile;
    use gced_text::analyze;

    fn table() -> (IdTable, TrigramLm, EmbeddingTable, Lexicon) {
        let corpus: Vec<Vec<String>> = ["the broncos defeated the panthers", "fans won"]
            .iter()
            .map(|s| s.split(' ').map(String::from).collect())
            .collect();
        let lm = TrigramLm::train(&corpus);
        let mut emb = EmbeddingTable::new(16, 3);
        emb.fit(&corpus[..1], 1, 1, 0.2);
        let lexicon = Lexicon::embedded();
        let qa = QaModel::new(ModelProfile::plm());
        (IdTable::build(&qa, &lm, &emb, &lexicon), lm, emb, lexicon)
    }

    #[test]
    fn ids_follow_sorted_word_order() {
        let (t, lm, emb, lexicon) = table();
        let words: Vec<&str> = (0..t.len()).map(|i| t.words.word(i as u32)).collect();
        assert!(words.windows(2).all(|w| w[0] < w[1]), "not sorted");
        for (i, w) in words.iter().enumerate() {
            assert_eq!(t.get(w), Some(i as u32));
            assert_eq!(t.lm_id(i as u32), lm.vocab().get(w));
            assert_eq!(t.emb_row(i as u32), emb.row_of(w));
        }
        assert!(t.get("broncos").is_some() && t.get("defeat").is_some());
        assert_eq!(t.get("zzyzx"), None);
        // The fitted words, and lemma forms with unseen-word payloads.
        let fitted: std::collections::BTreeSet<&str> = lexicon
            .words()
            .into_iter()
            .chain(lm.vocab().iter().map(|(_, w, _)| w))
            .collect();
        assert!(fitted.iter().all(|w| t.get(w).is_some()));
        for (i, w) in words
            .iter()
            .enumerate()
            .filter(|(_, w)| !fitted.contains(*w))
        {
            assert_eq!((t.lm_id(i as u32), t.emb_row(i as u32)), (UNK, None), "{w}");
            assert_eq!((t.idf()[i], t.related(i as u32)), (2.0, None), "{w}");
        }
        assert!(words.len() > fitted.len());
    }

    #[test]
    fn related_closures_equal_the_lexicon_sets() {
        let (t, _, _, lexicon) = table();
        for w in lexicon.words() {
            let id = t.get(w).unwrap();
            let mut want: Vec<&str> = lexicon
                .related(w)
                .iter()
                .map(|r| t.words.word(t.get(r).unwrap()))
                .collect();
            want.sort_unstable();
            let got: Vec<&str> = t
                .related(id)
                .unwrap()
                .iter()
                .map(|&r| t.words.word(r))
                .collect();
            assert_eq!(got, want, "{w}");
        }
        assert_eq!(t.related(t.get("broncos").unwrap()), None);
        assert_eq!(t.related(t.len() as u32 + 3), None);
    }

    #[test]
    fn oov_words_get_stable_request_local_ids() {
        let (t, _, _, _) = table();
        let mut ids = t.request();
        let a = ids.id("zanzibar");
        let b = ids.id("qwerty");
        assert!(a as usize >= t.len() && b as usize >= t.len() && a != b);
        assert_eq!(ids.id("zanzibar"), a);
        assert_eq!(ids.id("broncos"), t.get("broncos").unwrap());
        assert_eq!(t.lm_id(a), UNK);
        assert_eq!(t.emb_row(a), None);
        // Growth keeps earlier ids.
        let many: Vec<u32> = (0..500).map(|i| ids.id(&format!("w{i}"))).collect();
        for (i, &id) in many.iter().enumerate() {
            assert_eq!(ids.id(&format!("w{i}")), id);
        }
        assert_eq!(ids.id("zanzibar"), a);
    }

    #[test]
    fn interned_documents_match_by_lowercase_form() {
        let (t, _, _, _) = table();
        let mut ids = t.request();
        let doc = analyze("The Broncos defeated THE broncos. Zanzibar zanzibar.");
        let d = ids.intern(&doc);
        for (i, a) in doc.tokens.iter().enumerate() {
            for (j, b) in doc.tokens.iter().enumerate() {
                assert_eq!(d.lower[i] == d.lower[j], a.lower() == b.lower());
                assert_eq!(d.lemma[i] == d.lemma[j], a.lemma == b.lemma);
                assert_eq!(d.lower[i] == d.lemma[j], a.lower() == b.lemma);
            }
        }
        let proj = d.project_sentences(&doc, &[1]);
        let s = doc.sentences[1];
        assert_eq!(proj.lower, d.lower[s.token_start..s.token_end]);
    }

    #[test]
    fn id_lookups_equal_the_string_lookups_off_the_generator() {
        // An LM over a few words, IDF entries the LM lacks, the embedded
        // lexicon (mostly outside the LM vocabulary), and documents of
        // OOV words and case-folding edge cases.
        let corpus: Vec<Vec<String>> = ["the broncos defeated the panthers", "kelvin scale"]
            .iter()
            .map(|s| s.split(' ').map(String::from).collect())
            .collect();
        let lm = TrigramLm::train(&corpus);
        let idf = vec![
            ("broncos".to_string(), 3.5),
            ("i\u{307}stanbul".to_string(), 4.25),
            ("zanzibar".to_string(), 5.0),
        ];
        let qa = QaModel::from_parts(
            ModelProfile::plm(),
            [0.0; gced_qa::features::N_FEATURES],
            idf,
            None,
            true,
        );
        let emb = EmbeddingTable::new(8, 2);
        let t = IdTable::build(&qa, &lm, &emb, &Lexicon::embedded());
        let idf_parts = qa.idf_parts();
        let mut ids = t.request();
        for text in [
            "The BRONCOS defeated the Panthers. Zanzibar zanzibar qwxyz QWXYZ.",
            "\u{212a}elvin KELVIN kelvin scale. İstanbul i\u{307}stanbul ſun SUN.",
            "Didn't the champion football team win? ΟΔΟΣ οδος Straße café.",
        ] {
            let doc = analyze(text);
            let d = ids.intern(&doc);
            for (i, tok) in doc.tokens.iter().enumerate() {
                let lower = tok.lower();
                assert_eq!(t.lm_id(d.lower[i]), lm.vocab().get(&lower), "{lower:?}");
                let by_id = t.idf().get(d.lower[i] as usize).copied().unwrap_or(2.0);
                let by_str = idf_parts
                    .iter()
                    .find(|(w, _)| *w == lower)
                    .map_or(2.0, |&(_, x)| x);
                assert_eq!(by_id.to_bits(), by_str.to_bits(), "{lower:?}");
                assert_eq!(t.emb_row(d.lower[i]), emb.row_of(&lower));
            }
        }
    }

    #[test]
    fn lowercasing_is_idempotent_on_every_char() {
        // Interning keys each token by `to_lowercase` once, where the
        // lexicon and the embedding table lowercase again: the ids are
        // exact only because lowercasing a lowercased word is a no-op.
        for c in (0..=0x10FFFFu32).filter_map(char::from_u32) {
            let once = c.to_lowercase().to_string();
            assert_eq!(once.to_lowercase(), once, "{c:?}");
        }
        let s = "ΟΔΟΣ İSTANBUL \u{212a}elvin ſ".to_lowercase();
        assert_eq!(s.to_lowercase(), s);
    }
}
