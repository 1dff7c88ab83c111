//! The probabilistic grammar: symbols, rules, head directions.
//!
//! The grammar is expressed directly in the binary/unary form CKY needs:
//! * preterminal rules `NT -> Pos` anchor nonterminals to POS tags;
//! * unary rules `NT -> NT` are closed over during parsing;
//! * binary rules `NT -> NT NT` carry a [`HeadSide`] marking which child
//!   contributes the lexical head — the "lexicalized" part of L-PCFG that
//!   the dependency extraction of Sec. III-D consumes.
//!
//! Rule weights are relative; [`GrammarBuilder::build`] normalizes them
//! into probabilities per left-hand side.

use gced_text::Pos;
use std::collections::HashMap;

/// Number of grammar symbols: the slot count of a dense chart cell.
pub(crate) const SYMBOL_COUNT: usize = 18;

/// Grammar nonterminal symbols (plus the goal symbol `Top`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Symbol {
    /// Goal symbol.
    Top,
    /// Clause.
    S,
    /// Noun phrase.
    Np,
    /// Nominal core (adjectives + nouns).
    Nbar,
    /// Lexical noun head.
    N,
    /// Verb phrase.
    Vp,
    /// Lexical verb head.
    V,
    /// Auxiliary wrapper.
    Aux,
    /// Prepositional phrase.
    Pp,
    /// Preposition wrapper.
    In,
    /// Adjective phrase.
    Adjp,
    /// Adverb phrase.
    Advp,
    /// Determiner wrapper.
    Dt,
    /// Coordination tail for NPs (`CC NP`).
    CcNp,
    /// Coordination tail for VPs (`CC VP`).
    CcVp,
    /// Coordination tail for clauses (`CC S`).
    CcS,
    /// Conjunction wrapper.
    Cc,
    /// Number wrapper.
    Num,
}

impl Symbol {
    /// Every symbol in declaration (= `Ord`) order; `ALL[s.index()] == s`.
    pub(crate) const ALL: [Symbol; SYMBOL_COUNT] = [
        Symbol::Top,
        Symbol::S,
        Symbol::Np,
        Symbol::Nbar,
        Symbol::N,
        Symbol::Vp,
        Symbol::V,
        Symbol::Aux,
        Symbol::Pp,
        Symbol::In,
        Symbol::Adjp,
        Symbol::Advp,
        Symbol::Dt,
        Symbol::CcNp,
        Symbol::CcVp,
        Symbol::CcS,
        Symbol::Cc,
        Symbol::Num,
    ];

    /// Dense slot of this symbol, `0..SYMBOL_COUNT`, ascending in `Ord`.
    #[inline]
    pub(crate) fn index(self) -> usize {
        self as usize
    }

    /// Short label for tree rendering.
    pub fn label(self) -> &'static str {
        match self {
            Symbol::Top => "TOP",
            Symbol::S => "S",
            Symbol::Np => "NP",
            Symbol::Nbar => "NBAR",
            Symbol::N => "N",
            Symbol::Vp => "VP",
            Symbol::V => "V",
            Symbol::Aux => "AUX",
            Symbol::Pp => "PP",
            Symbol::In => "IN",
            Symbol::Adjp => "ADJP",
            Symbol::Advp => "ADVP",
            Symbol::Dt => "DT",
            Symbol::CcNp => "CCNP",
            Symbol::CcVp => "CCVP",
            Symbol::CcS => "CCS",
            Symbol::Cc => "CC",
            Symbol::Num => "NUM",
        }
    }
}

/// Which child of a binary rule carries the lexical head.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadSide {
    /// Left child is the head.
    Left,
    /// Right child is the head.
    Right,
}

/// `lhs -> pos` with probability `prob`.
#[derive(Debug, Clone, Copy)]
pub struct PretermRule {
    pub lhs: Symbol,
    pub pos: Pos,
    pub prob: f64,
}

/// `lhs -> child` with probability `prob` (head = child).
#[derive(Debug, Clone, Copy)]
pub struct UnaryRule {
    pub lhs: Symbol,
    pub child: Symbol,
    pub prob: f64,
}

/// `lhs -> left right` with probability `prob` and a head side.
#[derive(Debug, Clone, Copy)]
pub struct BinaryRule {
    pub lhs: Symbol,
    pub left: Symbol,
    pub right: Symbol,
    pub prob: f64,
    pub head: HeadSide,
}

/// A binary rule as the CKY chart applies it, stored under its
/// `(left, right)` child pair: parent symbol, `ln p`, head side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BinaryEntry {
    pub(crate) lhs: Symbol,
    pub(crate) log_prob: f64,
    pub(crate) head: HeadSide,
}

/// A normalized PCFG plus the dense, log-space tables CKY runs on.
///
/// Every `ln p` is computed once here, and every table keeps rules in
/// declaration order, so a chart walking them in slot order visits
/// candidates in a fixed order.
#[derive(Debug, Clone)]
pub struct Grammar {
    preterm: Vec<PretermRule>,
    unary: Vec<UnaryRule>,
    binary: Vec<BinaryRule>,
    /// `pos as usize` -> `(lhs, ln p)` of the rules producing it.
    lexical: Vec<Vec<(Symbol, f64)>>,
    /// `(lhs, child, ln p)` per unary rule.
    unary_log: Vec<(Symbol, Symbol, f64)>,
    /// `[left][right]` -> `start..end` range of `pair_rules`.
    pair_range: [[(u16, u16); SYMBOL_COUNT]; SYMBOL_COUNT],
    /// Binary rules grouped by child pair (left-major).
    pair_rules: Vec<BinaryEntry>,
    /// `[left]` -> bit mask of the right symbols it combines with.
    right_mask: [u32; SYMBOL_COUNT],
}

impl Grammar {
    /// All preterminal rules.
    pub fn preterminal_rules(&self) -> &[PretermRule] {
        &self.preterm
    }

    /// All unary rules.
    pub fn unary_rules(&self) -> &[UnaryRule] {
        &self.unary
    }

    /// All binary rules.
    pub fn binary_rules(&self) -> &[BinaryRule] {
        &self.binary
    }

    /// `(lhs, ln p)` of the preterminal rules that yield `pos`, in rule
    /// order.
    pub(crate) fn lexical(&self, pos: Pos) -> &[(Symbol, f64)] {
        self.lexical
            .get(pos as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// `(lhs, child, ln p)` of every unary rule, in rule order.
    pub(crate) fn unary_log(&self) -> &[(Symbol, Symbol, f64)] {
        &self.unary_log
    }

    /// Binary rules over a `(left, right)` child pair, in rule order.
    #[inline]
    pub(crate) fn binary_entries(&self, left: Symbol, right: Symbol) -> &[BinaryEntry] {
        let (start, end) = self.pair_range[left.index()][right.index()];
        &self.pair_rules[start as usize..end as usize]
    }

    /// Bit mask (bit `s.index()`) of the right children `left` has a
    /// binary rule with; `0` when `left` never appears as a left child.
    #[inline]
    pub(crate) fn right_mask(&self, left: Symbol) -> u32 {
        self.right_mask[left.index()]
    }

    /// The embedded English grammar used throughout the reproduction.
    ///
    /// Weights are hand-set relative frequencies tuned on the synthetic
    /// corpora; `build` normalizes them per LHS.
    pub fn english() -> Grammar {
        let mut g = GrammarBuilder::new();
        use HeadSide::{Left, Right};
        use Symbol::*;

        // ---- preterminals ------------------------------------------------
        g.preterm(N, Pos::Noun, 6.0);
        g.preterm(N, Pos::ProperNoun, 5.0);
        g.preterm(N, Pos::Pronoun, 1.5);
        g.preterm(N, Pos::Num, 0.8);
        g.preterm(N, Pos::Other, 0.2);
        g.preterm(N, Pos::Wh, 0.1);
        g.preterm(V, Pos::Verb, 1.0);
        g.preterm(Aux, Pos::Aux, 1.0);
        g.preterm(In, Pos::Prep, 1.0);
        g.preterm(Dt, Pos::Det, 1.0);
        g.preterm(Cc, Pos::Conj, 1.0);
        g.preterm(Adjp, Pos::Adj, 1.0);
        g.preterm(Advp, Pos::Adv, 1.0);
        g.preterm(Num, Pos::Num, 1.0);

        // ---- unaries ------------------------------------------------------
        g.unary(Top, S, 8.0);
        g.unary(Top, Np, 1.5); // fragments: titles, appositives
        g.unary(Top, Vp, 0.5);
        g.unary(Nbar, N, 5.0);
        g.unary(Np, Nbar, 4.0);
        g.unary(Vp, V, 1.0);

        // ---- clauses ------------------------------------------------------
        g.binary(S, Np, Vp, 9.0, Right);
        g.binary(S, S, CcS, 0.6, Left);
        g.binary(CcS, Cc, S, 1.0, Right);
        g.binary(S, Advp, S, 0.4, Right);

        // ---- noun phrases ---------------------------------------------------
        g.binary(Np, Dt, Nbar, 4.5, Right);
        g.binary(Np, Np, Pp, 2.0, Left);
        g.binary(Np, Num, Nbar, 0.6, Right);
        g.binary(Np, Np, CcNp, 0.8, Left);
        g.binary(CcNp, Cc, Np, 1.0, Right);
        g.binary(Nbar, Adjp, Nbar, 2.2, Right);
        g.binary(Nbar, N, Nbar, 2.8, Right); // noun compounds, right-headed
        g.binary(Nbar, Num, Nbar, 0.4, Right);
        g.binary(Np, Np, Np, 0.3, Left); // appositions ("the duke William")

        // ---- verb phrases ---------------------------------------------------
        g.binary(Vp, V, Np, 4.0, Left);
        g.binary(Vp, V, Pp, 1.2, Left);
        g.binary(Vp, Vp, Pp, 2.0, Left);
        g.binary(Vp, Aux, Vp, 1.4, Right);
        g.binary(Vp, Aux, Np, 0.7, Right); // copula: "is the capital"
        g.binary(Vp, Aux, Adjp, 0.5, Right);
        g.binary(Vp, Aux, Pp, 0.4, Right);
        g.binary(Vp, Advp, Vp, 0.4, Right);
        g.binary(Vp, Vp, Advp, 0.4, Left);
        g.binary(Vp, V, Adjp, 0.3, Left);
        g.binary(Vp, Vp, CcVp, 0.5, Left);
        g.binary(CcVp, Cc, Vp, 1.0, Right);
        g.binary(Vp, Vp, Np, 0.3, Left); // ditransitive tail
        g.binary(Vp, V, S, 0.2, Left); // clausal complement

        // ---- prepositional / modifier phrases --------------------------------
        g.binary(Pp, In, Np, 1.0, Left); // preposition heads its phrase
        g.binary(Adjp, Advp, Adjp, 0.3, Right);
        g.binary(Adjp, Adjp, Adjp, 0.1, Right);

        g.build()
    }
}

/// Incremental grammar construction with per-LHS normalization.
#[derive(Debug, Default)]
pub struct GrammarBuilder {
    preterm: Vec<PretermRule>,
    unary: Vec<UnaryRule>,
    binary: Vec<BinaryRule>,
}

impl GrammarBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a preterminal rule with relative weight `w`.
    pub fn preterm(&mut self, lhs: Symbol, pos: Pos, w: f64) -> &mut Self {
        self.preterm.push(PretermRule { lhs, pos, prob: w });
        self
    }

    /// Add a unary rule with relative weight `w`.
    pub fn unary(&mut self, lhs: Symbol, child: Symbol, w: f64) -> &mut Self {
        self.unary.push(UnaryRule {
            lhs,
            child,
            prob: w,
        });
        self
    }

    /// Add a binary rule with relative weight `w` and head side.
    pub fn binary(
        &mut self,
        lhs: Symbol,
        left: Symbol,
        right: Symbol,
        w: f64,
        head: HeadSide,
    ) -> &mut Self {
        self.binary.push(BinaryRule {
            lhs,
            left,
            right,
            prob: w,
            head,
        });
        self
    }

    /// Normalize weights per LHS (across all three rule kinds) and index.
    pub fn build(&self) -> Grammar {
        let mut totals: HashMap<Symbol, f64> = HashMap::new();
        for r in &self.preterm {
            *totals.entry(r.lhs).or_insert(0.0) += r.prob;
        }
        for r in &self.unary {
            *totals.entry(r.lhs).or_insert(0.0) += r.prob;
        }
        for r in &self.binary {
            *totals.entry(r.lhs).or_insert(0.0) += r.prob;
        }
        let norm = |lhs: Symbol, p: f64| p / totals[&lhs];

        let preterm: Vec<PretermRule> = self
            .preterm
            .iter()
            .map(|r| PretermRule {
                prob: norm(r.lhs, r.prob),
                ..*r
            })
            .collect();
        let unary: Vec<UnaryRule> = self
            .unary
            .iter()
            .map(|r| UnaryRule {
                prob: norm(r.lhs, r.prob),
                ..*r
            })
            .collect();
        let binary: Vec<BinaryRule> = self
            .binary
            .iter()
            .map(|r| BinaryRule {
                prob: norm(r.lhs, r.prob),
                ..*r
            })
            .collect();

        let mut lexical: Vec<Vec<(Symbol, f64)>> = Vec::new();
        for r in &preterm {
            let slot = r.pos as usize;
            if lexical.len() <= slot {
                lexical.resize_with(slot + 1, Vec::new);
            }
            lexical[slot].push((r.lhs, r.prob.ln()));
        }
        let unary_log = unary
            .iter()
            .map(|r| (r.lhs, r.child, r.prob.ln()))
            .collect();

        let mut pair_range = [[(0u16, 0u16); SYMBOL_COUNT]; SYMBOL_COUNT];
        let mut pair_rules = Vec::with_capacity(binary.len());
        let mut right_mask = [0u32; SYMBOL_COUNT];
        for left in Symbol::ALL {
            for right in Symbol::ALL {
                let start = pair_rules.len();
                pair_rules.extend(
                    binary
                        .iter()
                        .filter(|r| r.left == left && r.right == right)
                        .map(|r| BinaryEntry {
                            lhs: r.lhs,
                            log_prob: r.prob.ln(),
                            head: r.head,
                        }),
                );
                let end = pair_rules.len();
                if end > start {
                    right_mask[left.index()] |= 1 << right.index();
                }
                let narrow = |i: usize| u16::try_from(i).expect("binary rule count fits u16");
                pair_range[left.index()][right.index()] = (narrow(start), narrow(end));
            }
        }
        Grammar {
            preterm,
            unary,
            binary,
            lexical,
            unary_log,
            pair_range,
            pair_rules,
            right_mask,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_slots_follow_declaration_order() {
        for (i, s) in Symbol::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        assert!(Symbol::ALL.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn dense_tables_mirror_the_rule_lists() {
        let g = Grammar::english();
        for r in g.binary_rules() {
            let hits = g
                .binary_entries(r.left, r.right)
                .iter()
                .filter(|e| e.lhs == r.lhs && e.head == r.head && e.log_prob == r.prob.ln())
                .count();
            assert_eq!(hits, 1, "{r:?}");
            assert_ne!(g.right_mask(r.left) & (1 << r.right.index()), 0);
        }
        let indexed: usize = Symbol::ALL
            .iter()
            .flat_map(|&l| Symbol::ALL.iter().map(move |&r| (l, r)))
            .map(|(l, r)| g.binary_entries(l, r).len())
            .sum();
        assert_eq!(indexed, g.binary_rules().len());
        // Two parents share the (NUM, NBAR) children, in rule order.
        let shared: Vec<Symbol> = g
            .binary_entries(Symbol::Num, Symbol::Nbar)
            .iter()
            .map(|e| e.lhs)
            .collect();
        assert_eq!(shared, vec![Symbol::Np, Symbol::Nbar]);
        assert!(g.lexical(Pos::Punct).is_empty());
        assert_eq!(g.unary_log().len(), g.unary_rules().len());
    }

    #[test]
    fn english_grammar_normalizes_per_lhs() {
        let g = Grammar::english();
        let mut sums: HashMap<Symbol, f64> = HashMap::new();
        for r in g.preterminal_rules() {
            *sums.entry(r.lhs).or_insert(0.0) += r.prob;
        }
        for r in g.unary_rules() {
            *sums.entry(r.lhs).or_insert(0.0) += r.prob;
        }
        for r in g.binary_rules() {
            *sums.entry(r.lhs).or_insert(0.0) += r.prob;
        }
        for (lhs, total) in sums {
            assert!((total - 1.0).abs() < 1e-9, "{lhs:?} sums to {total}");
        }
    }

    #[test]
    fn pos_index_covers_open_classes() {
        let g = Grammar::english();
        for pos in [
            Pos::Noun,
            Pos::ProperNoun,
            Pos::Verb,
            Pos::Adj,
            Pos::Adv,
            Pos::Det,
            Pos::Prep,
        ] {
            assert!(!g.lexical(pos).is_empty(), "{pos:?} unproducible");
        }
    }

    #[test]
    fn children_index_finds_s_rule() {
        let g = Grammar::english();
        let rules = g.binary_entries(Symbol::Np, Symbol::Vp);
        assert!(rules
            .iter()
            .any(|r| r.lhs == Symbol::S && r.head == HeadSide::Right));
    }

    #[test]
    fn probabilities_positive() {
        let g = Grammar::english();
        assert!(g.preterminal_rules().iter().all(|r| r.prob > 0.0));
        assert!(g.unary_rules().iter().all(|r| r.prob > 0.0));
        assert!(g.binary_rules().iter().all(|r| r.prob > 0.0));
    }

    #[test]
    fn labels_render() {
        assert_eq!(Symbol::Np.label(), "NP");
        assert_eq!(Symbol::Top.label(), "TOP");
    }
}
