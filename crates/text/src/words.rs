//! Word tables: a frozen set of words numbered densely, each carrying
//! what analysing it needs, and the per-request id space over one.
//!
//! A [`WordTable`] is built once from a fitted vocabulary. For every
//! lowercase ASCII word it stores the part of the tagger's decision that
//! depends on the lowercase form alone ([`crate::pos`]) and the id of its
//! lemma in each lemma class ([`crate::lemma`]); the lemma forms join the
//! table so they have ids too. [`WordIds::analyze`] then analyses a text
//! against the table: each token is lowercased into a stack buffer and
//! probed once, which gives its id, tag data and lemma, and only the
//! context rules (capitalization, sentence position, the gerund repair)
//! run per token. A token the table does not hold, or a non-ASCII one,
//! takes the per-word rules and gets a request-local id. Plain
//! [`crate::analyze`] is the same pass over an empty table.

use crate::lemma::{lemma_parts, CLASS_TAGS};
use crate::pos::WordTag;
use crate::Document;
use std::collections::{BTreeSet, HashMap};

/// What a token found in the table takes from it: its tag data and its
/// lemma's id per lemma class.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WordInfo {
    pub(crate) tag: WordTag,
    pub(crate) lemma: [u32; 3],
}

/// A frozen open-addressing string table over one byte arena, numbered
/// in sorted word order, with each lowercase ASCII word's analysis. A
/// lookup is one hash and (usually) one comparison. Its hash is fixed,
/// not keyed: only fitted words are ever inserted, so request input can
/// choose which probe chains a lookup walks but never lengthen one.
#[derive(Debug, Clone)]
pub struct WordTable {
    arena: String,
    /// Each word's arena range and analysis, in id order (one record, so
    /// a hit touches one line past its slot and the arena).
    entries: Vec<Entry>,
    /// Probe table: `0` is empty, otherwise the word's hash in the high
    /// 32 bits and `id + 1` in the low 32, so a probe compares words
    /// only on a full hash match. At most half full; empty only for the
    /// empty table.
    slots: Vec<u64>,
}

#[derive(Debug, Clone)]
struct Entry {
    /// Arena byte range.
    lo: u32,
    hi: u32,
    /// The analysis of a lowercase ASCII word.
    info: Option<WordInfo>,
}

/// The table with no words.
pub(crate) static EMPTY: WordTable = WordTable {
    arena: String::new(),
    entries: Vec::new(),
    slots: Vec::new(),
};

/// True for the words a token's lowercased bytes can equal and whose
/// analysis the table stores.
fn analyzable(word: &str) -> bool {
    !word.is_empty()
        && word
            .bytes()
            .all(|b| b.is_ascii() && !b.is_ascii_uppercase())
}

impl WordTable {
    /// The table of `words` (any order, repeats allowed) and of the lemma
    /// forms their analysis reaches, numbered in sorted order.
    pub fn new<'w>(words: impl IntoIterator<Item = &'w str>) -> Self {
        let mut all: BTreeSet<String> = words.into_iter().map(str::to_string).collect();
        let mut todo: Vec<String> = all.iter().filter(|w| analyzable(w)).cloned().collect();
        while let Some(w) = todo.pop() {
            for pos in CLASS_TAGS {
                let (stem, tail) = lemma_parts(&w, pos);
                let lemma = [stem, tail].concat();
                if all.insert(lemma.clone()) {
                    todo.push(lemma);
                }
            }
        }
        let mut t = WordTable {
            arena: String::with_capacity(all.iter().map(String::len).sum()),
            entries: Vec::with_capacity(all.len()),
            slots: vec![0; (2 * all.len()).next_power_of_two().max(16)],
        };
        for (k, w) in all.iter().enumerate() {
            let h = hash(w.as_bytes());
            let at = t.probe(w.as_bytes(), h);
            debug_assert_eq!(t.slots[at], 0, "duplicate word {w:?}");
            t.slots[at] = (h >> 32) << 32 | (k as u64 + 1);
            let lo = t.arena.len() as u32;
            t.arena.push_str(w);
            let hi = t.arena.len() as u32;
            t.entries.push(Entry { lo, hi, info: None });
        }
        for (k, w) in all.iter().enumerate() {
            let info = analyzable(w).then(|| WordInfo {
                tag: WordTag::of(w, w),
                lemma: CLASS_TAGS.map(|pos| {
                    let (stem, tail) = lemma_parts(w, pos);
                    t.get(&[stem, tail].concat())
                        .expect("lemma forms join the table")
                }),
            });
            t.entries[k].info = info;
        }
        t
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table holds no word.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Word `id`.
    pub fn word(&self, id: u32) -> &str {
        let e = &self.entries[id as usize];
        &self.arena[e.lo as usize..e.hi as usize]
    }

    /// The id of `word`, if the table holds it.
    pub fn get(&self, word: &str) -> Option<u32> {
        self.get_bytes(word.as_bytes())
    }

    fn get_bytes(&self, word: &[u8]) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        match self.slots[self.probe(word, hash(word))] {
            0 => None,
            s => Some(s as u32 - 1),
        }
    }

    /// The id and analysis of the lowercase ASCII word `lower`.
    pub(crate) fn analysis(&self, lower: &str) -> Option<(u32, WordInfo)> {
        let id = self.get_bytes(lower.as_bytes())?;
        Some((id, self.entries[id as usize].info?))
    }

    /// Slot holding `word` (of hash `h`), or the empty slot where it
    /// would go.
    fn probe(&self, word: &[u8], h: u64) -> usize {
        let mask = self.slots.len() - 1;
        let tag = h >> 32;
        let mut i = h as usize & mask;
        loop {
            let s = self.slots[i];
            if s == 0
                || s >> 32 == tag && {
                    let e = &self.entries[(s as u32 - 1) as usize];
                    &self.arena.as_bytes()[e.lo as usize..e.hi as usize] == word
                }
            {
                return i;
            }
            i = (i + 1) & mask;
        }
    }
}

/// A fixed multiplicative byte hash (FxHash's mixing step over 8-byte
/// words, then MurmurHash3's 64-bit finalizer, without which the low
/// bits that pick the slot would see little more than a short word's
/// first letter): the table never iterates its slots into output, so
/// only speed and spread matter.
fn hash(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(K);
    let mut h = 0u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = mix(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    // The zero-padded little-endian tail, assembled without a memcpy.
    let last = (chunks.remainder().iter().rev()).fold(0u64, |w, &b| w << 8 | u64::from(b));
    let mut h = mix(mix(h, last), bytes.len() as u64);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^ h >> 33
}

/// Interned ids of one analysed document's tokens.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DocIds {
    /// Id of each token's lowercased surface form.
    pub lower: Vec<u32>,
    /// Id of each token's lemma.
    pub lemma: Vec<u32>,
}

impl DocIds {
    /// The ids of the document [`Document::project_sentences`] builds
    /// from `sentences` of `doc` (whose ids these are).
    pub fn project_sentences(&self, doc: &Document, sentences: &[usize]) -> DocIds {
        let mut out = DocIds::default();
        for &s in sentences {
            let r = doc.sentences[s].token_start..doc.sentences[s].token_end;
            out.lower.extend_from_slice(&self.lower[r.clone()]);
            out.lemma.extend_from_slice(&self.lemma[r]);
        }
        out
    }
}

/// The id space of one request: a table's ids plus request-local ids,
/// numbered from the table's length, for words outside it. Id equality
/// is string equality for every word of the request.
#[derive(Debug, Clone)]
pub struct WordIds<'t> {
    table: &'t WordTable,
    /// Words outside the table (request input, so the map keeps std's
    /// keyed hasher) and their ids.
    local: HashMap<String, u32>,
}

impl<'t> WordIds<'t> {
    /// A fresh id space over `table`.
    pub fn new(table: &'t WordTable) -> Self {
        WordIds {
            table,
            local: HashMap::new(),
        }
    }

    /// The table.
    pub fn table(&self) -> &'t WordTable {
        self.table
    }

    /// The id of `word`: its table id, or a request-local one.
    pub fn id(&mut self, word: &str) -> u32 {
        if let Some(id) = self
            .table
            .get(word)
            .or_else(|| self.local.get(word).copied())
        {
            return id;
        }
        let id = (self.table.len() + self.local.len()) as u32;
        self.local.insert(word.to_string(), id);
        id
    }

    /// Intern every token of an analysed `doc`: its lowercased form, and
    /// its lemma (the same id when the lemma is the lowercased form). The
    /// string formulation of the ids [`WordIds::analyze`] gives.
    pub fn intern(&mut self, doc: &Document) -> DocIds {
        let mut ids = DocIds {
            lower: Vec::with_capacity(doc.len()),
            lemma: Vec::with_capacity(doc.len()),
        };
        for t in &doc.tokens {
            let lower = t.lower_cow();
            let w = self.id(&lower);
            let l = if t.lemma == *lower {
                w
            } else {
                self.id(&t.lemma)
            };
            ids.lower.push(w);
            ids.lemma.push(l);
        }
        ids
    }

    /// `analyze(text)` and its ids in this space, in one pass against
    /// the table: equal to `(analyze(text), self.intern(&analyze(text)))`.
    pub fn analyze(&mut self, text: &str) -> (Document, DocIds) {
        crate::analysis(text, Some(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_follow_sorted_word_order_and_lemma_forms_join() {
        let t = WordTable::new(["running", "cats", "the", "Caf\u{e9}", "cats"]);
        let words: Vec<&str> = (0..t.len() as u32).map(|i| t.word(i)).collect();
        assert!(words.windows(2).all(|w| w[0] < w[1]), "{words:?}");
        for (i, w) in words.iter().enumerate() {
            assert_eq!(t.get(w), Some(i as u32));
        }
        // "run" and "cat" are lemma forms of the given words.
        assert_eq!(words, ["Caf\u{e9}", "cat", "cats", "run", "running", "the"]);
        assert_eq!(t.get("zzyzx"), None);
        assert!(t.analysis("Caf\u{e9}").is_none());
        let (id, info) = t.analysis("running").unwrap();
        assert_eq!(t.word(id), "running");
        assert_eq!(info.lemma.map(|l| t.word(l)), ["running", "run", "running"]);
        assert_eq!(EMPTY.get("the"), None);
        assert!(EMPTY.is_empty());
    }
}
