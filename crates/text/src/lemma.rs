//! Rule-based lemmatizer.
//!
//! Handles the inflectional morphology of the synthetic corpora: noun
//! plurals, verb -s/-ed/-ing forms, and a table of frequent irregulars.
//! Lemmas feed the lexicon lookups in QWS (Sec. III-C), where a clue word
//! match may be via the lemma rather than the surface form.

use crate::pos::Pos;

/// Irregular (surface, lemma) pairs. Kept sorted for the binary search.
const IRREGULAR: &[(&str, &str)] = &[
    ("became", "become"),
    ("began", "begin"),
    ("begun", "begin"),
    ("born", "bear"),
    ("built", "build"),
    ("came", "come"),
    ("children", "child"),
    ("did", "do"),
    ("done", "do"),
    ("feet", "foot"),
    ("found", "find"),
    ("gave", "give"),
    ("gone", "go"),
    ("got", "get"),
    ("grew", "grow"),
    ("grown", "grow"),
    ("had", "have"),
    ("held", "hold"),
    ("knew", "know"),
    ("known", "know"),
    ("led", "lead"),
    ("left", "leave"),
    ("made", "make"),
    ("men", "man"),
    ("mice", "mouse"),
    ("people", "person"),
    ("ran", "run"),
    ("rose", "rise"),
    ("said", "say"),
    ("sang", "sing"),
    ("sat", "sit"),
    ("saw", "see"),
    ("seen", "see"),
    ("showed", "show"),
    ("shown", "show"),
    ("stood", "stand"),
    ("sung", "sing"),
    ("taught", "teach"),
    ("took", "take"),
    ("was", "be"),
    ("went", "go"),
    ("were", "be"),
    ("women", "woman"),
    ("wrote", "write"),
];

/// Words ending in -ss, -us, -is that look plural but are not.
fn is_false_plural(word: &str) -> bool {
    word.ends_with("ss")
        || word.ends_with("us")
        || word.ends_with("is")
        || word.ends_with("news")
        || word.len() <= 3
}

/// Verbs whose -ed/-ing form doubles a final consonant (e.g. "starred").
fn undouble(stem: &str) -> Option<&str> {
    let bytes = stem.as_bytes();
    let n = bytes.len();
    if n >= 3 && bytes[n - 1] == bytes[n - 2] && !matches!(bytes[n - 1], b'l' | b's' | b'e') {
        Some(&stem[..n - 1])
    } else {
        None
    }
}

/// The lemma class of a tag: lemmas depend on a word's tag only through
/// it — noun-like (0), verb-like (1) or other (2).
pub(crate) fn lemma_class(pos: Pos) -> usize {
    match pos {
        Pos::Noun | Pos::ProperNoun => 0,
        Pos::Verb | Pos::Aux => 1,
        _ => 2,
    }
}

/// A tag of each lemma class, in [`lemma_class`] order.
pub(crate) const CLASS_TAGS: [Pos; 3] = [Pos::Noun, Pos::Verb, Pos::Other];

/// Lemmatize a lowercased word given its POS tag.
pub fn lemmatize(lower: &str, pos: Pos) -> String {
    let (stem, tail) = lemma_parts(lower, pos);
    [stem, tail].concat()
}

/// [`lemmatize`] as a stem (the irregular lemma, or a prefix of
/// `lower`) and a suffix to append, so callers can build the lemma
/// without an intermediate `String`.
pub(crate) fn lemma_parts(lower: &str, pos: Pos) -> (&str, &'static str) {
    if let Ok(i) = IRREGULAR.binary_search_by_key(&lower, |(s, _)| s) {
        return (IRREGULAR[i].1, "");
    }
    match lemma_class(pos) {
        0 => lemmatize_noun(lower),
        1 => lemmatize_verb(lower),
        _ => (lower, ""),
    }
}

fn lemmatize_noun(lower: &str) -> (&str, &'static str) {
    if is_false_plural(lower) {
        return (lower, "");
    }
    if let Some(stem) = lower.strip_suffix("ies") {
        if stem.len() >= 2 {
            return (stem, "y");
        }
    }
    if let Some(stem) = lower.strip_suffix("es") {
        if stem.ends_with("sh")
            || stem.ends_with("ch")
            || stem.ends_with('x')
            || stem.ends_with('z')
            || stem.ends_with('s')
        {
            return (stem, "");
        }
    }
    if let Some(stem) = lower.strip_suffix('s') {
        if stem.len() >= 3 {
            return (stem, "");
        }
    }
    (lower, "")
}

fn lemmatize_verb(lower: &str) -> (&str, &'static str) {
    if let Some(stem) = lower.strip_suffix("ied") {
        if stem.len() >= 2 {
            return (stem, "y");
        }
    }
    for suffix in ["ing", "ed"] {
        if let Some(stem) = lower.strip_suffix(suffix) {
            if stem.len() >= 3 {
                if let Some(und) = undouble(stem) {
                    return (und, "");
                }
                // "making" -> "make": restore dropped e when the stem ends
                // in a consonant preceded by a single vowel-consonant
                // pattern.
                if needs_final_e(stem) {
                    return (stem, "e");
                }
                return (stem, "");
            }
        }
    }
    if let Some(stem) = lower.strip_suffix("ies") {
        if stem.len() >= 2 {
            return (stem, "y");
        }
    }
    if let Some(stem) = lower.strip_suffix("es") {
        if stem.ends_with("sh") || stem.ends_with("ch") || stem.ends_with('x') {
            return (stem, "");
        }
    }
    if let Some(stem) = lower.strip_suffix('s') {
        if stem.len() >= 3 && !stem.ends_with('s') {
            return (stem, "");
        }
    }
    (lower, "")
}

/// Heuristic: stems like "mak", "liv", "compos" need a restored final "e".
fn needs_final_e(stem: &str) -> bool {
    const RESTORE: &[&str] = &[
        "mak", "tak", "giv", "liv", "mov", "nam", "serv", "receiv", "releas", "describ", "locat",
        "compos", "produc", "captur", "featur", "includ", "stat", "creat", "not", "scor", "rul",
        "explor", "marri", "retir", "acquir", "believ", "achiev", "challeng",
    ];
    RESTORE.contains(&stem)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn irregulars() {
        assert_eq!(lemmatize("led", Pos::Verb), "lead");
        assert_eq!(lemmatize("was", Pos::Aux), "be");
        assert_eq!(lemmatize("children", Pos::Noun), "child");
        assert_eq!(lemmatize("wrote", Pos::Verb), "write");
    }

    #[test]
    fn irregular_table_is_sorted() {
        for w in IRREGULAR.windows(2) {
            assert!(w[0].0 < w[1].0, "{} !< {}", w[0].0, w[1].0);
        }
    }

    #[test]
    fn noun_plurals() {
        assert_eq!(lemmatize("cats", Pos::Noun), "cat");
        assert_eq!(lemmatize("cities", Pos::Noun), "city");
        assert_eq!(lemmatize("churches", Pos::Noun), "church");
        assert_eq!(lemmatize("boxes", Pos::Noun), "box");
    }

    #[test]
    fn false_plurals_untouched() {
        assert_eq!(lemmatize("class", Pos::Noun), "class");
        assert_eq!(lemmatize("bus", Pos::Noun), "bus");
        assert_eq!(lemmatize("analysis", Pos::Noun), "analysis");
    }

    #[test]
    fn verb_forms() {
        assert_eq!(lemmatize("defeated", Pos::Verb), "defeat");
        assert_eq!(lemmatize("performing", Pos::Verb), "perform");
        assert_eq!(lemmatize("making", Pos::Verb), "make");
        assert_eq!(lemmatize("starred", Pos::Verb), "star");
        assert_eq!(lemmatize("studied", Pos::Verb), "study");
        assert_eq!(lemmatize("plays", Pos::Verb), "play");
    }

    #[test]
    fn closed_class_words_pass_through() {
        assert_eq!(lemmatize("the", Pos::Det), "the");
        assert_eq!(lemmatize("of", Pos::Prep), "of");
    }

    #[test]
    fn short_words_untouched() {
        assert_eq!(lemmatize("is", Pos::Noun), "is");
        assert_eq!(lemmatize("as", Pos::Noun), "as");
    }
}
