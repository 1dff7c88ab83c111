//! Answer overlap metrics (paper Eq. 1, SQuAD conventions).
//!
//! Precision = |common| / |prediction|, Recall = |common| / |reference|,
//! F1 = harmonic mean; `common` counts tokens with multiplicity (bag
//! intersection), exactly like the official SQuAD evaluation script the
//! paper cites ([41], [42]).

use std::collections::HashMap;

/// Precision / recall / F1 triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F1Scores {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
}

impl F1Scores {
    /// All-zero scores.
    pub const ZERO: F1Scores = F1Scores {
        precision: 0.0,
        recall: 0.0,
        f1: 0.0,
    };
}

/// SQuAD answer normalization: lowercase, strip punctuation, drop the
/// articles `a`/`an`/`the`, collapse whitespace.
pub fn normalize_answer(s: &str) -> Vec<String> {
    s.to_lowercase()
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c.is_whitespace() {
                c
            } else {
                ' '
            }
        })
        .collect::<String>()
        .split_whitespace()
        .filter(|w| !matches!(*w, "a" | "an" | "the"))
        .map(String::from)
        .collect()
}

/// Exact match after normalization.
pub fn exact_match(prediction: &str, reference: &str) -> bool {
    let p = normalize_answer(prediction);
    let r = normalize_answer(reference);
    !p.is_empty() && p == r || (p.is_empty() && r.is_empty())
}

/// Token-level F1 per Eq. 1 over normalized tokens.
pub fn token_f1(prediction: &str, reference: &str) -> F1Scores {
    let p = normalize_answer(prediction);
    let r = normalize_answer(reference);
    let mut counts: HashMap<&str, i64> = HashMap::new();
    for w in &r {
        *counts.entry(w.as_str()).or_insert(0) += 1;
    }
    let mut common = 0usize;
    for w in &p {
        if let Some(c) = counts.get_mut(w.as_str()) {
            if *c > 0 {
                *c -= 1;
                common += 1;
            }
        }
    }
    f1_from_counts(common, p.len(), r.len())
}

/// Eq. 1 from bag counts: a prediction of `pred_len` normalized tokens
/// sharing `common` of them (with multiplicity) with a reference of
/// `ref_len`. [`token_f1`] is this over [`normalize_answer`]'s tokens, so
/// a caller that counts the same bags gets bit-identical scores.
pub fn f1_from_counts(common: usize, pred_len: usize, ref_len: usize) -> F1Scores {
    if pred_len == 0 && ref_len == 0 {
        return F1Scores {
            precision: 1.0,
            recall: 1.0,
            f1: 1.0,
        };
    }
    if common == 0 {
        return F1Scores::ZERO;
    }
    let precision = common as f64 / pred_len as f64;
    let recall = common as f64 / ref_len as f64;
    let f1 = 2.0 * precision * recall / (precision + recall);
    F1Scores {
        precision,
        recall,
        f1,
    }
}

/// Best F1 of a prediction against any of several references (TriviaQA
/// convention: a question may admit several answer aliases).
pub fn best_f1<'a>(prediction: &str, references: impl IntoIterator<Item = &'a str>) -> F1Scores {
    references
        .into_iter()
        .map(|r| token_f1(prediction, r))
        .max_by(|a, b| a.f1.partial_cmp(&b.f1).expect("f1 is never NaN"))
        .unwrap_or(F1Scores::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_strips_articles_and_punct() {
        assert_eq!(
            normalize_answer("The Denver Broncos!"),
            vec!["denver", "broncos"]
        );
        assert_eq!(normalize_answer("a  b the c"), vec!["b", "c"]);
        assert!(normalize_answer("the a an").is_empty());
    }

    #[test]
    fn exact_match_ignores_case_and_articles() {
        assert!(exact_match("The Broncos", "broncos"));
        assert!(exact_match("Denver Broncos", "denver broncos."));
        assert!(!exact_match("Broncos", "Panthers"));
    }

    #[test]
    fn identical_strings_have_f1_one() {
        let s = token_f1("william the conqueror", "William the Conqueror");
        assert!((s.f1 - 1.0).abs() < 1e-12);
        assert!((s.precision - 1.0).abs() < 1e-12);
        assert!((s.recall - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_strings_have_f1_zero() {
        assert_eq!(token_f1("alpha beta", "gamma delta"), F1Scores::ZERO);
    }

    #[test]
    fn partial_overlap_matches_eq1() {
        // prediction: "denver broncos" (2), reference: "denver broncos team" (3)
        // common = 2, P = 1, R = 2/3, F1 = 0.8
        let s = token_f1("Denver Broncos", "Denver Broncos team");
        assert!((s.precision - 1.0).abs() < 1e-12);
        assert!((s.recall - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.f1 - 0.8).abs() < 1e-12);
    }

    #[test]
    fn multiplicity_counts_as_bag() {
        // "b b" vs "b": common is 1, P = 0.5, R = 1.
        let s = token_f1("b b", "b");
        assert!((s.precision - 0.5).abs() < 1e-12);
        assert!((s.recall - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cases() {
        assert_eq!(token_f1("", "x"), F1Scores::ZERO);
        assert_eq!(token_f1("x", ""), F1Scores::ZERO);
        let both = token_f1("", "");
        assert!((both.f1 - 1.0).abs() < 1e-12);
        assert!(exact_match("", ""));
    }

    #[test]
    fn best_f1_takes_max_over_aliases() {
        let s = best_f1("JFK", ["John F Kennedy", "JFK", "Kennedy"]);
        assert!((s.f1 - 1.0).abs() < 1e-12);
        assert_eq!(best_f1("nothing", Vec::<&str>::new()), F1Scores::ZERO);
    }

    #[test]
    fn f1_symmetry() {
        let a = token_f1("x y z", "x y");
        let b = token_f1("x y", "x y z");
        assert!((a.f1 - b.f1).abs() < 1e-12);
        assert!((a.precision - b.recall).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn phrase() -> impl Strategy<Value = String> {
        prop::collection::vec(
            prop::sample::select(vec![
                "denver", "broncos", "won", "title", "the", "in", "1066",
            ]),
            0..6,
        )
        .prop_map(|ws| ws.join(" "))
    }

    proptest! {
        /// F1 is bounded, symmetric, and 1.0 on self-comparison.
        #[test]
        fn f1_properties(a in phrase(), b in phrase()) {
            let ab = token_f1(&a, &b);
            let ba = token_f1(&b, &a);
            prop_assert!((0.0..=1.0).contains(&ab.f1));
            prop_assert!((ab.f1 - ba.f1).abs() < 1e-12);
            let aa = token_f1(&a, &a);
            prop_assert!((aa.f1 - 1.0).abs() < 1e-12);
        }

        /// Exact match implies F1 = 1.
        #[test]
        fn em_implies_f1(a in phrase()) {
            if exact_match(&a, &a) {
                prop_assert!((token_f1(&a, &a).f1 - 1.0).abs() < 1e-12);
            }
        }
    }
}
