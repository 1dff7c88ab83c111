//! Coarse part-of-speech tagging.
//!
//! A deterministic tagger layering (1) closed-class lexicon lookups,
//! (2) morphological suffix heuristics, (3) capitalization (proper nouns),
//! and (4) a small contextual repair pass. It is intentionally coarse —
//! the L-PCFG grammar and the QWS module only need the distinctions below.

use crate::stopwords::{
    AUXILIARIES, CONJUNCTIONS, DETERMINERS, PARTICLES, PREPOSITIONS, PRONOUNS, QUESTION_WORDS,
};
use std::sync::OnceLock;

/// Coarse part-of-speech tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Pos {
    /// Common noun (default open-class tag).
    Noun,
    /// Proper noun (capitalized, not sentence-initial-only).
    ProperNoun,
    /// Personal / possessive pronoun.
    Pronoun,
    /// Main verb.
    Verb,
    /// Auxiliary or modal verb.
    Aux,
    /// Adjective.
    Adj,
    /// Adverb.
    Adv,
    /// Determiner / article.
    Det,
    /// Preposition (including infinitival "to").
    Prep,
    /// Conjunction.
    Conj,
    /// Cardinal number.
    Num,
    /// wh-question word.
    Wh,
    /// Possessive clitic `'s` or negation `n't` or other particles.
    Particle,
    /// Punctuation.
    Punct,
    /// Anything else.
    Other,
}

impl Pos {
    /// Open-class tags — candidates for content / clue words.
    pub fn is_open_class(self) -> bool {
        matches!(
            self,
            Pos::Noun | Pos::ProperNoun | Pos::Verb | Pos::Adj | Pos::Adv | Pos::Num
        )
    }

    /// Short human-readable label (used in traces and examples).
    pub fn label(self) -> &'static str {
        match self {
            Pos::Noun => "NN",
            Pos::ProperNoun => "NNP",
            Pos::Pronoun => "PRP",
            Pos::Verb => "VB",
            Pos::Aux => "AUX",
            Pos::Adj => "JJ",
            Pos::Adv => "RB",
            Pos::Det => "DT",
            Pos::Prep => "IN",
            Pos::Conj => "CC",
            Pos::Num => "CD",
            Pos::Wh => "WH",
            Pos::Particle => "RP",
            Pos::Punct => "PU",
            Pos::Other => "XX",
        }
    }
}

/// Frequent verbs whose base form carries no reliable suffix signal.
const COMMON_VERBS: &[&str] = &[
    "win",
    "won",
    "earn",
    "lead",
    "led",
    "perform",
    "write",
    "wrote",
    "written",
    "sing",
    "sang",
    "sung",
    "play",
    "played",
    "become",
    "became",
    "make",
    "made",
    "take",
    "took",
    "give",
    "gave",
    "found",
    "founded",
    "establish",
    "direct",
    "compose",
    "discover",
    "invent",
    "defeat",
    "defeated",
    "represent",
    "represented",
    "describe",
    "described",
    "locate",
    "located",
    "publish",
    "published",
    "release",
    "released",
    "receive",
    "received",
    "serve",
    "served",
    "hold",
    "held",
    "begin",
    "began",
    "begun",
    "know",
    "known",
    "call",
    "called",
    "name",
    "named",
    "bear",
    "born",
    "raise",
    "raised",
    "move",
    "moved",
    "record",
    "recorded",
    "study",
    "studied",
    "teach",
    "taught",
    "build",
    "built",
    "design",
    "designed",
    "develop",
    "developed",
    "star",
    "starred",
    "appear",
    "appeared",
    "marry",
    "married",
    "die",
    "died",
    "live",
    "lived",
    "work",
    "worked",
    "join",
    "joined",
    "say",
    "said",
    "see",
    "saw",
    "seen",
    "go",
    "went",
    "gone",
    "come",
    "came",
    "get",
    "got",
    "run",
    "ran",
    "sit",
    "sat",
    "stand",
    "stood",
    "rise",
    "rose",
    "risen",
    "grow",
    "grew",
    "grown",
    "show",
    "showed",
    "shown",
    "open",
    "opened",
    "close",
    "closed",
    "remain",
    "remained",
    "include",
    "included",
    "contain",
    "contained",
    "feature",
    "featured",
    "produce",
    "produced",
    "capture",
    "captured",
    "occupy",
    "occupied",
    "explore",
    "explored",
    "conquer",
    "conquered",
    "rule",
    "ruled",
    "reign",
    "reigned",
    "paint",
    "painted",
    "sculpt",
    "sculpted",
    "score",
    "scored",
    "coach",
    "coached",
    "host",
    "hosted",
    "visit",
    "visited",
    "border",
    "borders",
    "bordered",
    "flow",
    "flows",
    "flowed",
    "cover",
    "covers",
    "covered",
    "span",
    "spans",
    "spanned",
];

/// Frequent adjectives with no reliable suffix signal.
const COMMON_ADJECTIVES: &[&str] = &[
    "good",
    "bad",
    "big",
    "small",
    "new",
    "old",
    "high",
    "low",
    "long",
    "short",
    "great",
    "large",
    "young",
    "early",
    "late",
    "major",
    "minor",
    "famous",
    "ancient",
    "modern",
    "northern",
    "southern",
    "eastern",
    "western",
    "central",
    "first",
    "second",
    "third",
    "last",
    "next",
    "other",
    "same",
    "different",
    "important",
    "popular",
    "main",
    "key",
    "red",
    "blue",
    "green",
    "white",
    "black",
    "golden",
    "royal",
    "national",
    "local",
    "annual",
    "final",
    "own",
    "chief",
    "prominent",
    "notable",
    "renowned",
    "top",
];

/// Frequent adverbs without the -ly suffix.
const COMMON_ADVERBS: &[&str] = &[
    "very", "quite", "too", "also", "often", "never", "always", "again", "still", "soon", "now",
    "here", "there", "well", "almost", "already", "later", "once", "twice", "perhaps", "rather",
    "away", "back", "together",
];

/// Every listed word with the tag of the first list naming it: the seven
/// closed classes in [`crate::stopwords::classify`] order, then the common
/// verbs, adjectives and adverbs — so "that" stays `Det` (not `Conj`) and
/// "too" stays `Particle` (not `Adv`). Sorted by word for one
/// `binary_search` per token.
fn word_table() -> &'static [(&'static str, Pos)] {
    static TABLE: OnceLock<Vec<(&'static str, Pos)>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let lists: [(&[&'static str], Pos); 10] = [
            (QUESTION_WORDS, Pos::Wh),
            (AUXILIARIES, Pos::Aux),
            (DETERMINERS, Pos::Det),
            (PREPOSITIONS, Pos::Prep),
            (PRONOUNS, Pos::Pronoun),
            (CONJUNCTIONS, Pos::Conj),
            (PARTICLES, Pos::Particle),
            (COMMON_VERBS, Pos::Verb),
            (COMMON_ADJECTIVES, Pos::Adj),
            (COMMON_ADVERBS, Pos::Adv),
        ];
        let mut table: Vec<(&'static str, Pos)> = lists
            .iter()
            .flat_map(|&(words, pos)| words.iter().map(move |&w| (w, pos)))
            .collect();
        // The sort is stable and `dedup` keeps the first of a run, so a
        // word listed twice keeps its earlier list's tag.
        table.sort_by_key(|&(w, _)| w);
        table.dedup_by_key(|&mut (w, _)| w);
        table
    })
}

/// The tag the word lists give a lowercased word, if any list names it.
pub(crate) fn listed_tag(lower: &str) -> Option<Pos> {
    let table = word_table();
    table
        .binary_search_by_key(&lower, |&(w, _)| w)
        .ok()
        .map(|i| table[i].1)
}

/// What tagging reads from a word besides its capitalization and its
/// position: the tag the closed rules fix (punctuation, numbers, the
/// clitics, the word lists), else the suffix rules' tag. For an ASCII
/// word both are functions of its lowercase form, so a fitted word table
/// stores them per word ([`crate::words::WordTable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WordTag {
    fixed: Option<Pos>,
    suffix: Option<Pos>,
}

impl WordTag {
    /// The tag data of a word with surface form `text` and lowercase
    /// form `lower`.
    pub(crate) fn of(text: &str, lower: &str) -> Self {
        let fixed = if text.chars().all(|c| !c.is_alphanumeric()) {
            Some(Pos::Punct)
        } else if text
            .chars()
            .all(|c| c.is_ascii_digit() || c == '.' || c == ',')
        {
            Some(Pos::Num)
        } else if matches!(lower, "'s" | "\u{2019}s" | "n't" | "n\u{2019}t") {
            Some(Pos::Particle)
        } else {
            listed_tag(lower)
        };
        let suffix = if fixed.is_none() {
            suffix_tag(lower)
        } else {
            None
        };
        WordTag { fixed, suffix }
    }

    /// The word's tag given whether it is capitalized and whether it
    /// starts a sentence. Capitalized mid-sentence => proper noun.
    /// Sentence-initial capitalized words fall through to morphology and
    /// default to proper noun only if they look like names (no common
    /// suffix match).
    pub(crate) fn tag(self, capitalized: bool, sent_initial: bool) -> Pos {
        if let Some(pos) = self.fixed {
            return pos;
        }
        if capitalized && !sent_initial {
            return Pos::ProperNoun;
        }
        if let Some(pos) = self.suffix {
            return pos;
        }
        if capitalized {
            return Pos::ProperNoun;
        }
        Pos::Noun
    }
}

/// True when `text` starts with an uppercase letter.
pub(crate) fn capitalized(text: &str) -> bool {
    text.chars().next().is_some_and(|c| c.is_uppercase())
}

/// The contextual repair: a word tagged Verb whose lowercase form
/// `lower` ends in "ing", directly after a determiner, adjective or
/// number of its sentence (`prev`), is re-tagged Noun ("the painting").
/// "to" before a verb stays Prep (we do not distinguish infinitival to).
pub(crate) fn repair(pos: Pos, prev: Option<Pos>, lower: &str) -> Pos {
    if pos == Pos::Verb
        && matches!(prev, Some(Pos::Det | Pos::Adj | Pos::Num))
        && lower.ends_with("ing")
    {
        Pos::Noun
    } else {
        pos
    }
}

/// Morphological suffix heuristics for open-class words.
fn suffix_tag(lower: &str) -> Option<Pos> {
    let n = lower.len();
    if n > 4 && lower.ends_with("ly") {
        return Some(Pos::Adv);
    }
    if n > 5 && (lower.ends_with("ing") || lower.ends_with("ized") || lower.ends_with("ised")) {
        return Some(Pos::Verb);
    }
    if n > 4 && lower.ends_with("ed") {
        return Some(Pos::Verb);
    }
    if n > 4
        && (lower.ends_with("ous")
            || lower.ends_with("ful")
            || lower.ends_with("ive")
            || lower.ends_with("able")
            || lower.ends_with("ible")
            || lower.ends_with("ish")
            || lower.ends_with("less")
            || lower.ends_with("ical")
            || lower.ends_with("ial"))
    {
        return Some(Pos::Adj);
    }
    if n > 5
        && (lower.ends_with("tion")
            || lower.ends_with("sion")
            || lower.ends_with("ment")
            || lower.ends_with("ness")
            || lower.ends_with("ity")
            || lower.ends_with("ship")
            || lower.ends_with("ism"))
    {
        return Some(Pos::Noun);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;
    use crate::stopwords::WordClass;
    use crate::token::lowercase;

    /// One word's tag, as `analyze` gives it before the repair.
    fn tag_word(text: &str, sent_initial: bool) -> Pos {
        WordTag::of(text, &lowercase(text)).tag(capitalized(text), sent_initial)
    }

    /// The tagger before the word table: seven closed-class scans in
    /// order, then the verb, adjective and adverb lists. Kept as the
    /// oracle the table must agree with.
    mod cascade {
        use super::super::*;
        use crate::stopwords::WordClass;

        pub fn classify(word: &str) -> WordClass {
            if QUESTION_WORDS.contains(&word) {
                WordClass::Question
            } else if AUXILIARIES.contains(&word) {
                WordClass::Auxiliary
            } else if DETERMINERS.contains(&word) {
                WordClass::Determiner
            } else if PREPOSITIONS.contains(&word) {
                WordClass::Preposition
            } else if PRONOUNS.contains(&word) {
                WordClass::Pronoun
            } else if CONJUNCTIONS.contains(&word) {
                WordClass::Conjunction
            } else if PARTICLES.contains(&word) {
                WordClass::Particle
            } else {
                WordClass::Open
            }
        }

        pub fn tag_word(text: &str, sent_initial: bool) -> Pos {
            if text.chars().all(|c| !c.is_alphanumeric()) {
                return Pos::Punct;
            }
            if text
                .chars()
                .all(|c| c.is_ascii_digit() || c == '.' || c == ',')
            {
                return Pos::Num;
            }
            let lower = text.to_lowercase();
            if lower == "'s" || lower == "\u{2019}s" || lower == "n't" || lower == "n\u{2019}t" {
                return Pos::Particle;
            }
            match classify(&lower) {
                WordClass::Question => return Pos::Wh,
                WordClass::Auxiliary => return Pos::Aux,
                WordClass::Determiner => return Pos::Det,
                WordClass::Preposition => return Pos::Prep,
                WordClass::Pronoun => return Pos::Pronoun,
                WordClass::Conjunction => return Pos::Conj,
                WordClass::Particle => return Pos::Particle,
                WordClass::Open => {}
            }
            if COMMON_VERBS.contains(&lower.as_str()) {
                return Pos::Verb;
            }
            if COMMON_ADJECTIVES.contains(&lower.as_str()) {
                return Pos::Adj;
            }
            if COMMON_ADVERBS.contains(&lower.as_str()) {
                return Pos::Adv;
            }
            let capitalized = text.chars().next().is_some_and(|c| c.is_uppercase());
            if capitalized && !sent_initial {
                return Pos::ProperNoun;
            }
            if let Some(pos) = suffix_tag(&lower) {
                return pos;
            }
            if capitalized {
                return Pos::ProperNoun;
            }
            Pos::Noun
        }
    }

    const ALL_LISTS: [&[&str]; 10] = [
        QUESTION_WORDS,
        AUXILIARIES,
        DETERMINERS,
        PREPOSITIONS,
        PRONOUNS,
        CONJUNCTIONS,
        PARTICLES,
        COMMON_VERBS,
        COMMON_ADJECTIVES,
        COMMON_ADVERBS,
    ];

    /// `word` in lower, capitalized and upper case, sentence-initial and
    /// mid-sentence: the table tagger agrees with the cascade on each.
    fn assert_tags_agree(word: &str) {
        let mut cap = word.chars();
        let capitalized: String = cap
            .next()
            .map(|c| c.to_uppercase().chain(cap).collect())
            .unwrap_or_default();
        for form in [word.to_string(), capitalized, word.to_uppercase()] {
            for sent_initial in [true, false] {
                assert_eq!(
                    tag_word(&form, sent_initial),
                    cascade::tag_word(&form, sent_initial),
                    "{form:?} (sentence-initial: {sent_initial})"
                );
            }
        }
    }

    #[test]
    fn table_matches_cascade_on_every_listed_word() {
        for list in ALL_LISTS {
            for word in list {
                assert_tags_agree(word);
                assert_eq!(
                    crate::stopwords::classify(word),
                    cascade::classify(word),
                    "{word}"
                );
            }
        }
        // The cross-listed words resolve to the earlier list.
        assert_eq!(tag_word("that", false), Pos::Det);
        assert_eq!(tag_word("too", false), Pos::Particle);
        assert_eq!(tag_word("also", false), Pos::Particle);
        assert_eq!(crate::stopwords::classify("that"), WordClass::Determiner);
    }

    #[test]
    fn table_matches_cascade_on_suffix_and_name_corpus() {
        let words = [
            "quickly",
            "ly",
            "holy",
            "running",
            "sing",
            "thing",
            "organized",
            "realised",
            "walked",
            "red",
            "bed",
            "famous",
            "bus",
            "careful",
            "massive",
            "capable",
            "visible",
            "foolish",
            "endless",
            "historical",
            "official",
            "celebration",
            "nation",
            "mission",
            "payment",
            "darkness",
            "city",
            "unity",
            "friendship",
            "ship",
            "tourism",
            "prism",
            "broncos",
            "panthers",
            "denver",
            "obama",
            "kg",
            "x",
            "abc123",
            "b-52",
            "knowles-carter",
            "don't",
            "it's",
            "o'neill",
            "café",
            "straße",
            "ζωή",
            "ΟΔΟΣ",
            "İstanbul",
            "1066",
            "3.14",
            "1,000",
            "'s",
            "n't",
            "n\u{2019}t",
            "\u{2019}s",
            "...",
            "(",
            "—",
        ];
        for word in words {
            assert_tags_agree(word);
        }
        for list in ALL_LISTS {
            for word in list {
                for suffix in ["ly", "ing", "ed", "tion", "ness", "ous", "s"] {
                    assert_tags_agree(&format!("{word}{suffix}"));
                }
            }
        }
    }

    fn pos_of(text: &str, word: &str) -> Pos {
        let doc = analyze(text);
        doc.tokens
            .iter()
            .find(|t| t.text == word)
            .unwrap_or_else(|| panic!("{word} not found in {text}"))
            .pos
    }

    #[test]
    fn closed_classes() {
        assert_eq!(pos_of("The cat sat.", "The"), Pos::Det);
        assert_eq!(pos_of("Who won the game?", "Who"), Pos::Wh);
        assert_eq!(pos_of("It was done by him.", "by"), Pos::Prep);
        assert_eq!(pos_of("It was done by him.", "was"), Pos::Aux);
        assert_eq!(pos_of("He and she left.", "and"), Pos::Conj);
    }

    #[test]
    fn proper_noun_mid_sentence() {
        assert_eq!(pos_of("The Denver Broncos won.", "Denver"), Pos::ProperNoun);
        assert_eq!(
            pos_of("The Denver Broncos won.", "Broncos"),
            Pos::ProperNoun
        );
    }

    #[test]
    fn verbs_by_lexicon_and_suffix() {
        assert_eq!(pos_of("They defeated the team.", "defeated"), Pos::Verb);
        assert_eq!(pos_of("She was performing daily.", "performing"), Pos::Verb);
        assert_eq!(pos_of("He analyzed the data.", "analyzed"), Pos::Verb);
    }

    #[test]
    fn adjectives_and_adverbs() {
        assert_eq!(pos_of("A famous painter lived here.", "famous"), Pos::Adj);
        assert_eq!(
            pos_of("She sang beautifully there.", "beautifully"),
            Pos::Adv
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(pos_of("Founded in 1066 exactly.", "1066"), Pos::Num);
        assert_eq!(pos_of("It costs 3.5 million.", "3.5"), Pos::Num);
    }

    #[test]
    fn punctuation() {
        assert_eq!(pos_of("Stop, now!", ","), Pos::Punct);
        assert_eq!(pos_of("Stop, now!", "!"), Pos::Punct);
    }

    #[test]
    fn possessive_clitic_is_particle() {
        assert_eq!(pos_of("The team's coach spoke.", "'s"), Pos::Particle);
    }

    #[test]
    fn noun_suffixes() {
        assert_eq!(
            pos_of("The celebration was loud.", "celebration"),
            Pos::Noun
        );
        assert_eq!(pos_of("Their friendship lasted.", "friendship"), Pos::Noun);
    }

    #[test]
    fn gerund_after_determiner_is_noun() {
        assert_eq!(pos_of("The painting hung there.", "painting"), Pos::Noun);
    }

    #[test]
    fn open_class_predicate() {
        assert!(Pos::Noun.is_open_class());
        assert!(Pos::ProperNoun.is_open_class());
        assert!(Pos::Verb.is_open_class());
        assert!(!Pos::Det.is_open_class());
        assert!(!Pos::Punct.is_open_class());
    }

    #[test]
    fn labels_are_distinct_for_core_tags() {
        use std::collections::HashSet;
        let tags = [
            Pos::Noun,
            Pos::ProperNoun,
            Pos::Pronoun,
            Pos::Verb,
            Pos::Aux,
            Pos::Adj,
            Pos::Adv,
            Pos::Det,
            Pos::Prep,
            Pos::Conj,
            Pos::Num,
            Pos::Wh,
            Pos::Particle,
            Pos::Punct,
            Pos::Other,
        ];
        let labels: HashSet<_> = tags.iter().map(|t| t.label()).collect();
        assert_eq!(labels.len(), tags.len());
    }
}
