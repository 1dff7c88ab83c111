//! Dense-chart parity: `CkyParser::parse_constituency` and
//! `CkyParser::parse_tokens` must equal the ordered-map oracle in
//! `gced_parser::cky::reference` exactly — same trees, same dependency
//! parents — on grammar-shaped sentences of every length up to the CKY
//! cutoff, on over-long input, on tag soups the grammar cannot derive,
//! and on all-punctuation input.

use gced_parser::cky::reference;
use gced_parser::grammar::GrammarBuilder;
use gced_parser::{CkyParser, ConstNode, Grammar, HeadSide, Symbol};
use gced_text::{Pos, Token};
use proptest::prelude::*;
use proptest::TestRng;
use std::ops::RangeInclusive;

/// Uniform pick from a non-empty pool.
fn pick<T: Copy>(rng: &mut TestRng, pool: &[T]) -> T {
    pool[rng.below(pool.len() as u64) as usize]
}

/// True with probability `1 / n`.
fn one_in(rng: &mut TestRng, n: u64) -> bool {
    rng.below(n) == 0
}

/// NP template: `[DT|NUM] ([ADV] ADJ)* N+`, a pronoun, or a proper-noun run,
/// optionally post-modified by a PP.
fn np(rng: &mut TestRng, out: &mut Vec<Pos>, depth: usize) {
    match rng.below(4) {
        0 => out.push(Pos::Pronoun),
        1 => {
            for _ in 0..=rng.below(3) {
                out.push(Pos::ProperNoun);
            }
        }
        _ => {
            if !one_in(rng, 4) {
                out.push(pick(rng, &[Pos::Det, Pos::Det, Pos::Num]));
            }
            for _ in 0..rng.below(3) {
                if one_in(rng, 5) {
                    out.push(Pos::Adv);
                }
                out.push(Pos::Adj);
            }
            for _ in 0..=rng.below(2) {
                out.push(pick(
                    rng,
                    &[Pos::Noun, Pos::Noun, Pos::ProperNoun, Pos::Num],
                ));
            }
        }
    }
    if depth < 2 && one_in(rng, 3) {
        pp(rng, out, depth + 1);
    }
}

/// PP template: `IN NP`.
fn pp(rng: &mut TestRng, out: &mut Vec<Pos>, depth: usize) {
    out.push(Pos::Prep);
    np(rng, out, depth);
}

/// VP template: `[AUX] [ADV] V [NP] PP*`, or a copula `AUX (ADJ|NP|PP)`.
fn vp(rng: &mut TestRng, out: &mut Vec<Pos>) {
    if one_in(rng, 4) {
        out.push(Pos::Aux);
        match rng.below(3) {
            0 => out.push(Pos::Adj),
            1 => np(rng, out, 0),
            _ => pp(rng, out, 0),
        }
        return;
    }
    if one_in(rng, 3) {
        out.push(Pos::Aux);
    }
    if one_in(rng, 5) {
        out.push(Pos::Adv);
    }
    out.push(Pos::Verb);
    if !one_in(rng, 3) {
        np(rng, out, 0);
    }
    for _ in 0..rng.below(3) {
        pp(rng, out, 0);
    }
    if one_in(rng, 6) {
        out.push(Pos::Conj);
        vp(rng, out);
    }
}

/// Clause template: `[ADV] NP [CC NP] VP`.
fn clause(rng: &mut TestRng, out: &mut Vec<Pos>) {
    if one_in(rng, 8) {
        out.push(Pos::Adv);
    }
    np(rng, out, 0);
    if one_in(rng, 5) {
        out.push(Pos::Conj);
        np(rng, out, 0);
    }
    vp(rng, out);
}

/// Grammar-shaped tag sequences: clauses coordinated with `CC` until the
/// drawn length is reached, then cut back to the last clause boundary
/// that fits `lens` (a single over-long clause is kept whole, cut, so
/// every length in range still occurs).
struct Shaped {
    lens: RangeInclusive<usize>,
}

impl Strategy for Shaped {
    type Value = Vec<Pos>;

    fn generate(&self, rng: &mut TestRng) -> Vec<Pos> {
        let (lo, hi) = (*self.lens.start(), *self.lens.end());
        let target = lo + rng.below((hi - lo + 1) as u64) as usize;
        let mut tags = Vec::new();
        let mut boundary = 0;
        while tags.len() < target {
            if !tags.is_empty() {
                boundary = tags.len();
                tags.push(Pos::Conj);
            }
            clause(rng, &mut tags);
        }
        if tags.len() > hi && boundary >= lo {
            tags.truncate(boundary);
        }
        tags.truncate(hi);
        tags
    }
}

/// Uniform soup over every POS tag, the grammar-blind case.
fn soup(lens: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Pos>> {
    prop::collection::vec(
        prop::sample::select(vec![
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
        ]),
        lens,
    )
}

/// Tokens carrying `tags`; only the tag reaches the parser.
fn tokens(tags: &[Pos]) -> Vec<Token> {
    tags.iter()
        .enumerate()
        .map(|(i, &pos)| Token {
            text: format!("w{i}"),
            lemma: format!("w{i}"),
            pos,
            index: i,
            sent: 0,
            start: 3 * i,
            end: 3 * i + 2,
        })
        .collect()
}

/// Interleave punctuation/particles, which `parse_tokens` drops before
/// CKY and re-attaches after.
fn punctuate(tags: &[Pos], seed: u64) -> Vec<Pos> {
    let mut out = Vec::with_capacity(tags.len() + tags.len() / 3);
    for (i, &t) in tags.iter().enumerate() {
        let h = seed
            .wrapping_add(i as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            >> 59;
        if h == 0 {
            out.push(Pos::Punct);
        }
        out.push(t);
        if h == 1 {
            out.push(Pos::Particle);
        }
    }
    out.push(Pos::Punct);
    out
}

/// A grammar built to tie. `N` and `V` both yield a noun with
/// probability 1 (log-probability 0), every left-hand side spreads its
/// weight evenly, and mirrored rules (`S -> N V | V N`, `S -> S S` at
/// every split) derive one parent with different heads and trees. Exact
/// score ties then decide most parses — by split, by left and right
/// symbol order, and, with no `TOP` over the span, by the goal rule.
fn tie_grammar() -> Grammar {
    use HeadSide::{Left, Right};
    use Symbol::*;
    let mut g = GrammarBuilder::new();
    g.preterm(N, Pos::Noun, 1.0);
    g.preterm(V, Pos::Noun, 1.0);
    g.preterm(Dt, Pos::Det, 1.0);
    g.unary(Top, S, 1.0);
    g.binary(S, N, V, 1.0, Left);
    g.binary(S, V, N, 1.0, Right);
    g.binary(S, S, S, 1.0, Right);
    g.binary(Np, Dt, N, 1.0, Right);
    g.binary(Np, Dt, V, 1.0, Left);
    g.binary(Np, Np, S, 1.0, Left);
    g.binary(Vp, V, Np, 1.0, Left);
    g.binary(Vp, Np, V, 1.0, Right);
    g.build()
}

fn assert_parity(parser: &CkyParser, tags: &[Pos]) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        parser.parse_constituency(tags),
        reference::parse_constituency(parser, tags)
    );
    let toks = tokens(tags);
    prop_assert_eq!(
        parser.parse_tokens(&toks),
        reference::parse_tokens(parser, &toks)
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// Grammar-shaped sentences of every length up to the cutoff.
    #[test]
    fn shaped_sentences_match_oracle(tags in Shaped { lens: 1..=72 }) {
        let parser = CkyParser::embedded();
        prop_assert!(!tags.is_empty() && tags.len() <= 72);
        assert_parity(&parser, &tags)?;
    }

    /// Short shaped sentences, where most cases derive `TOP`.
    #[test]
    fn short_shaped_sentences_match_oracle(tags in Shaped { lens: 1..=12 }) {
        assert_parity(&CkyParser::embedded(), &tags)?;
    }

    /// Punctuation and particles interleaved: the token-level wrapper's
    /// drop-and-reattach path around the dense chart.
    #[test]
    fn punctuated_tokens_match_oracle(tags in Shaped { lens: 1..=40 }, seed in 0u64..1 << 40) {
        let parser = CkyParser::embedded();
        let toks = tokens(&punctuate(&tags, seed));
        prop_assert_eq!(parser.parse_tokens(&toks), reference::parse_tokens(&parser, &toks));
    }

    /// Past the default cutoff both parsers decline CKY and fall back to
    /// the same right-branching backbone.
    #[test]
    fn over_long_sentences_fall_back_identically(tags in Shaped { lens: 73..=110 }) {
        let parser = CkyParser::embedded();
        prop_assert!(parser.parse_constituency(&tags).is_none());
        assert_parity(&parser, &tags)?;
    }

    /// With the cutoff raised, the dense chart parses 73+ tags (wider
    /// split offsets in its back-pointers) exactly like the oracle.
    #[test]
    fn raised_cutoff_parses_long_sentences_like_oracle(tags in Shaped { lens: 73..=96 }) {
        assert_parity(&CkyParser::embedded().with_max_len(96), &tags)?;
    }

    /// Tie-heavy grammar: the dense chart's tie rule must pick the
    /// oracle's tree wherever exact scores tie.
    #[test]
    fn tied_scores_resolve_like_oracle(
        tags in prop::collection::vec(
            prop::sample::select(vec![Pos::Noun, Pos::Noun, Pos::Noun, Pos::Det, Pos::Verb]),
            1..20,
        )
    ) {
        assert_parity(&CkyParser::new(tie_grammar()), &tags)?;
    }

    /// Tag soups: mostly underivable, so the best-full-span and fallback
    /// paths (and their tie rules) get exercised.
    #[test]
    fn tag_soups_match_oracle(tags in soup(1..40)) {
        assert_parity(&CkyParser::embedded(), &tags)?;
    }
}

#[test]
fn all_punctuation_matches_oracle() {
    let parser = CkyParser::embedded();
    for tags in [
        vec![Pos::Punct],
        vec![Pos::Punct, Pos::Particle, Pos::Punct],
        vec![Pos::Particle; 9],
    ] {
        let toks = tokens(&tags);
        let tree = parser.parse_tokens(&toks);
        assert_eq!(tree, reference::parse_tokens(&parser, &toks));
        assert_eq!(tree.len(), tags.len());
        tree.validate().unwrap();
    }
}

#[test]
fn unparsable_input_matches_oracle() {
    let parser = CkyParser::embedded();
    for tags in [
        vec![Pos::Conj; 4],
        vec![Pos::Det, Pos::Det, Pos::Det],
        vec![Pos::Prep],
        vec![Pos::Wh, Pos::Conj, Pos::Prep, Pos::Det],
        vec![Pos::Aux; 30],
    ] {
        assert_eq!(
            parser.parse_constituency(&tags),
            reference::parse_constituency(&parser, &tags)
        );
        let toks = tokens(&tags);
        let tree = parser.parse_tokens(&toks);
        assert_eq!(tree, reference::parse_tokens(&parser, &toks));
        tree.validate().unwrap();
    }
    assert!(parser.parse_constituency(&[Pos::Conj; 4]).is_none());
}

#[test]
fn tie_rules_pick_the_first_candidate_and_the_highest_goal() {
    let parser = CkyParser::new(tie_grammar());
    // One noun: N and V tie at log-probability 0 and no TOP spans it, so
    // the goal is the higher slot, V.
    let one = parser.parse_constituency(&[Pos::Noun]).expect("parses");
    assert!(matches!(
        one.node(one.root()),
        ConstNode::Internal {
            label: Symbol::V,
            ..
        }
    ));
    // Two nouns: `S -> N V` and `S -> V N` tie; N is the lower slot, so
    // its left-headed rule wins and token 0 heads the sentence.
    let two = parser
        .parse_constituency(&[Pos::Noun, Pos::Noun])
        .expect("parses");
    assert_eq!(two.head_of(two.root()), 0);
    for tags in [vec![Pos::Noun], vec![Pos::Noun; 2], vec![Pos::Noun; 7]] {
        assert_eq!(
            parser.parse_constituency(&tags),
            reference::parse_constituency(&parser, &tags)
        );
    }
}

#[test]
fn empty_input_matches_oracle() {
    let parser = CkyParser::embedded();
    assert!(parser.parse_constituency(&[]).is_none());
    assert!(reference::parse_constituency(&parser, &[]).is_none());
    assert_eq!(
        parser.parse_tokens(&[]),
        reference::parse_tokens(&parser, &[])
    );
}

/// Guard on the generator itself: the parity properties only bite if
/// shaped sentences usually parse, so most of them must derive `TOP`.
#[test]
fn shaped_sentences_mostly_derive_top() {
    let parser = CkyParser::embedded();
    let strategy = Shaped { lens: 1..=72 };
    let derived = (0..100)
        .filter(|&case| {
            let tags = strategy.generate(&mut TestRng::for_case("shaped", case, 0));
            parser.parse_constituency(&tags).is_some_and(|t| {
                matches!(
                    t.node(t.root()),
                    ConstNode::Internal {
                        label: Symbol::Top,
                        ..
                    }
                )
            })
        })
        .count();
    assert!(
        derived >= 80,
        "only {derived}/100 shaped sentences derive TOP"
    );
}
