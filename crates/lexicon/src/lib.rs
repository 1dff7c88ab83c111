//! # gced-lexicon — embedded WordNet-like lexical database
//!
//! The Question-relevant Words Selector (Sec. III-C of the GCED paper)
//! looks up, for every significant question word, its **synonyms**,
//! **antonyms**, and **sibling terms sharing the same hypernym** in
//! WordNet, then marks occurrences of any of those in the answer-oriented
//! sentences as question-relevant clue words.
//!
//! WordNet itself is not available offline, so this crate embeds a compact
//! lexical database with the same three relations over (a) the full
//! vocabulary of the synthetic corpora generated by `gced-datasets` and
//! (b) a layer of common English. The lookup API is exactly what QWS
//! consumes; the data can also be extended at runtime via [`Lexicon::builder`].

pub mod data;

use std::collections::{HashMap, HashSet};

/// A queryable lexical database with synonymy, antonymy and hypernymy.
#[derive(Debug, Clone)]
pub struct Lexicon {
    /// word -> synset ids it belongs to.
    synset_index: HashMap<String, Vec<usize>>,
    /// synset id -> member words.
    synsets: Vec<Vec<String>>,
    /// word -> antonym words (symmetric).
    antonyms: HashMap<String, Vec<String>>,
    /// word -> hypernym words.
    hypernyms: HashMap<String, Vec<String>>,
    /// hypernym -> hyponym words (inverse index, for sibling lookups).
    hyponyms: HashMap<String, Vec<String>>,
}

impl Default for Lexicon {
    fn default() -> Self {
        Self::embedded()
    }
}

impl Lexicon {
    /// The embedded database (see [`data`]).
    pub fn embedded() -> Self {
        let mut b = LexiconBuilder::new();
        for synset in data::SYNSETS {
            b.add_synset(synset.iter().copied());
        }
        for (a, z) in data::ANTONYMS {
            b.add_antonym(a, z);
        }
        for (child, parent) in data::HYPERNYMS {
            b.add_hypernym(child, parent);
        }
        b.build()
    }

    /// An empty database (useful for ablations: QWS with no lexicon
    /// degenerates to exact/lemma matching only).
    pub fn empty() -> Self {
        LexiconBuilder::new().build()
    }

    /// Start building a custom database.
    pub fn builder() -> LexiconBuilder {
        LexiconBuilder::new()
    }

    /// Synonyms of `word` (co-members of any synset), excluding the word.
    pub fn synonyms(&self, word: &str) -> Vec<&str> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        if let Some(ids) = self.synset_index.get(word) {
            for &id in ids {
                for member in &self.synsets[id] {
                    if member != word && seen.insert(member.as_str()) {
                        out.push(member.as_str());
                    }
                }
            }
        }
        out
    }

    /// Antonyms of `word` (symmetric relation).
    pub fn antonyms(&self, word: &str) -> Vec<&str> {
        self.antonyms
            .get(word)
            .map(|v| v.iter().map(String::as_str).collect())
            .unwrap_or_default()
    }

    /// Direct hypernyms of `word`.
    pub fn hypernyms(&self, word: &str) -> Vec<&str> {
        self.hypernyms
            .get(word)
            .map(|v| v.iter().map(String::as_str).collect())
            .unwrap_or_default()
    }

    /// Sibling terms: words sharing at least one direct hypernym with
    /// `word`, excluding the word itself.
    pub fn siblings(&self, word: &str) -> Vec<&str> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        if let Some(parents) = self.hypernyms.get(word) {
            for parent in parents {
                if let Some(children) = self.hyponyms.get(parent) {
                    for child in children {
                        if child != word && seen.insert(child.as_str()) {
                            out.push(child.as_str());
                        }
                    }
                }
            }
        }
        out
    }

    /// The full QWS expansion of Sec. III-C: the word itself, its synonyms,
    /// antonyms, and hypernym-siblings, all lowercased.
    pub fn related(&self, word: &str) -> HashSet<String> {
        let lower = word.to_lowercase();
        let mut set: HashSet<String> = HashSet::new();
        set.insert(lower.clone());
        for s in self.synonyms(&lower) {
            set.insert(s.to_string());
        }
        for a in self.antonyms(&lower) {
            set.insert(a.to_string());
        }
        for s in self.siblings(&lower) {
            set.insert(s.to_string());
        }
        set
    }

    /// True if the word appears in any relation.
    pub fn knows(&self, word: &str) -> bool {
        self.synset_index.contains_key(word)
            || self.antonyms.contains_key(word)
            || self.hypernyms.contains_key(word)
            || self.hyponyms.contains_key(word)
    }

    /// Number of synsets in the database.
    pub fn synset_count(&self) -> usize {
        self.synsets.len()
    }

    /// Every word that appears in some relation ([`Lexicon::knows`]),
    /// sorted and deduplicated.
    pub fn words(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .synset_index
            .keys()
            .chain(self.antonyms.keys())
            .chain(self.hypernyms.keys())
            .chain(self.hyponyms.keys())
            .map(String::as_str)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// Incremental construction of a [`Lexicon`].
#[derive(Debug, Default)]
pub struct LexiconBuilder {
    synsets: Vec<Vec<String>>,
    antonyms: Vec<(String, String)>,
    hypernyms: Vec<(String, String)>,
}

impl LexiconBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a set of mutually synonymous words.
    pub fn add_synset<'a>(&mut self, words: impl IntoIterator<Item = &'a str>) -> &mut Self {
        let set: Vec<String> = words.into_iter().map(|w| w.to_lowercase()).collect();
        if set.len() >= 2 {
            self.synsets.push(set);
        }
        self
    }

    /// Add a symmetric antonym pair.
    pub fn add_antonym(&mut self, a: &str, b: &str) -> &mut Self {
        self.antonyms.push((a.to_lowercase(), b.to_lowercase()));
        self
    }

    /// Add a hypernym edge: `child` IS-A `parent`.
    pub fn add_hypernym(&mut self, child: &str, parent: &str) -> &mut Self {
        self.hypernyms
            .push((child.to_lowercase(), parent.to_lowercase()));
        self
    }

    /// Finalize into an immutable, indexed [`Lexicon`].
    pub fn build(&self) -> Lexicon {
        let mut synset_index: HashMap<String, Vec<usize>> = HashMap::new();
        for (id, set) in self.synsets.iter().enumerate() {
            for w in set {
                synset_index.entry(w.clone()).or_default().push(id);
            }
        }
        let mut antonyms: HashMap<String, Vec<String>> = HashMap::new();
        for (a, b) in &self.antonyms {
            let fwd = antonyms.entry(a.clone()).or_default();
            if !fwd.contains(b) {
                fwd.push(b.clone());
            }
            let bwd = antonyms.entry(b.clone()).or_default();
            if !bwd.contains(a) {
                bwd.push(a.clone());
            }
        }
        let mut hypernyms: HashMap<String, Vec<String>> = HashMap::new();
        let mut hyponyms: HashMap<String, Vec<String>> = HashMap::new();
        for (child, parent) in &self.hypernyms {
            let up = hypernyms.entry(child.clone()).or_default();
            if !up.contains(parent) {
                up.push(parent.clone());
            }
            let down = hyponyms.entry(parent.clone()).or_default();
            if !down.contains(child) {
                down.push(child.clone());
            }
        }
        Lexicon {
            synset_index,
            synsets: self.synsets.clone(),
            antonyms,
            hypernyms,
            hyponyms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Lexicon {
        let mut b = Lexicon::builder();
        b.add_synset(["defeat", "beat", "overcome"])
            .add_antonym("win", "lose")
            .add_hypernym("violin", "instrument")
            .add_hypernym("piano", "instrument")
            .add_hypernym("guitar", "instrument");
        b.build()
    }

    #[test]
    fn synonyms_exclude_self() {
        let lex = tiny();
        let syns = lex.synonyms("defeat");
        assert!(syns.contains(&"beat"));
        assert!(syns.contains(&"overcome"));
        assert!(!syns.contains(&"defeat"));
    }

    #[test]
    fn antonyms_are_symmetric() {
        let lex = tiny();
        assert_eq!(lex.antonyms("win"), vec!["lose"]);
        assert_eq!(lex.antonyms("lose"), vec!["win"]);
    }

    #[test]
    fn siblings_share_hypernym() {
        let lex = tiny();
        let sibs = lex.siblings("violin");
        assert!(sibs.contains(&"piano"));
        assert!(sibs.contains(&"guitar"));
        assert!(!sibs.contains(&"violin"));
    }

    #[test]
    fn related_union() {
        let lex = tiny();
        let rel = lex.related("violin");
        assert!(rel.contains("violin"));
        assert!(rel.contains("piano"));
        let rel = lex.related("WIN");
        assert!(rel.contains("win"));
        assert!(rel.contains("lose"));
    }

    #[test]
    fn unknown_words_return_empty() {
        let lex = tiny();
        assert!(lex.synonyms("zebra").is_empty());
        assert!(lex.antonyms("zebra").is_empty());
        assert!(lex.siblings("zebra").is_empty());
        assert_eq!(lex.related("zebra").len(), 1); // just itself
        assert!(!lex.knows("zebra"));
    }

    #[test]
    fn words_lists_every_known_word_once() {
        let lex = tiny();
        let words = lex.words();
        assert_eq!(
            words,
            vec![
                "beat",
                "defeat",
                "guitar",
                "instrument",
                "lose",
                "overcome",
                "piano",
                "violin",
                "win"
            ]
        );
        assert!(words.iter().all(|w| lex.knows(w)));
        assert!(Lexicon::empty().words().is_empty());
    }

    #[test]
    fn empty_lexicon_degenerates_gracefully() {
        let lex = Lexicon::empty();
        assert_eq!(lex.synset_count(), 0);
        assert_eq!(lex.related("anything").len(), 1);
    }

    #[test]
    fn embedded_database_loads_and_covers_domains() {
        let lex = Lexicon::embedded();
        assert!(lex.synset_count() > 40, "embedded synsets too small");
        // Paper example (Fig. 5): "NFL" should relate to football terms.
        assert!(lex.knows("football"));
        assert!(lex.knows("champion"));
        assert!(!lex.synonyms("famous").is_empty());
        assert!(!lex.antonyms("north").is_empty());
        assert!(!lex.siblings("violin").is_empty());
    }

    #[test]
    fn duplicate_edges_deduplicated() {
        let mut b = Lexicon::builder();
        b.add_antonym("hot", "cold")
            .add_antonym("cold", "hot")
            .add_antonym("hot", "cold");
        b.add_hypernym("dog", "animal")
            .add_hypernym("dog", "animal");
        let lex = b.build();
        assert_eq!(lex.antonyms("hot").len(), 1);
        assert_eq!(lex.hypernyms("dog").len(), 1);
    }

    #[test]
    fn single_word_synsets_are_ignored() {
        let mut b = Lexicon::builder();
        b.add_synset(["alone"]);
        assert_eq!(b.build().synset_count(), 0);
    }

    #[test]
    fn multiple_synset_membership_unions() {
        let mut b = Lexicon::builder();
        b.add_synset(["bank", "shore"])
            .add_synset(["bank", "lender"]);
        let lex = b.build();
        let syns = lex.synonyms("bank");
        assert!(syns.contains(&"shore"));
        assert!(syns.contains(&"lender"));
    }
}
