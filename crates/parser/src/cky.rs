//! Probabilistic CKY with unary closure, plus robust token-level parsing.
//!
//! [`CkyParser::parse_constituency`] runs exact Viterbi CKY over a POS
//! sequence; [`CkyParser::parse_tokens`] wraps it into a total function
//! from tokens to a dependency tree — punctuation/clitics are excluded
//! from the grammar and re-attached afterwards, and out-of-grammar or
//! over-long inputs fall back to a right-branching tree rather than
//! failing (GCED must distill *something* for every context).
//!
//! The chart is dense: a cell holds one `f64` score and one packed
//! back-pointer per grammar symbol (18 slots) plus a `u32` occupancy
//! mask, and the whole triangle is one flat allocation per parse.
//! Candidates are tried split by split, left symbols in ascending slot
//! order, right symbols in ascending slot order, rules in grammar order;
//! a candidate replaces a slot only when it scores strictly higher.
//! Exact-score ties therefore go to the first candidate in `Symbol`
//! order — the same rule as the ordered-map oracle in
//! [`mod@reference`], which the parser's property tests hold it to.

use crate::cache::{ParseCache, ParseCacheStats};
use crate::dep::DepTree;
use crate::grammar::{Grammar, HeadSide, Symbol, SYMBOL_COUNT};
use crate::tree::{ConstNode, ConstTree};
use gced_text::{Pos, Token};
use std::sync::{Arc, Mutex};

/// Packed chart back-pointer: the low two bits are the kind
/// (`TERM`/`UNARY`/`LEFT_HEAD`/`RIGHT_HEAD`), then two 5-bit symbol
/// slots (unary child; binary left and right child), then the binary
/// split as an offset from the cell's start.
#[derive(Debug, Clone, Copy)]
struct Back(u32);

/// A decoded [`Back`].
enum Step {
    /// Preterminal over one token.
    Term,
    /// Unary rewrite from another symbol in the same cell.
    Unary(Symbol),
    /// Binary combination: left width, child symbols, head side.
    Binary(usize, Symbol, Symbol, HeadSide),
}

impl Back {
    const TERM: Back = Back(0);
    const UNARY: u32 = 1;
    const LEFT_HEAD: u32 = 2;
    const RIGHT_HEAD: u32 = 3;

    fn unary(child: usize) -> Back {
        Back(Self::UNARY | (child as u32) << 2)
    }

    fn binary(left_width: usize, left: usize, right: usize, head: HeadSide) -> Back {
        let kind = match head {
            HeadSide::Left => Self::LEFT_HEAD,
            HeadSide::Right => Self::RIGHT_HEAD,
        };
        Back(kind | (left as u32) << 2 | (right as u32) << 7 | (left_width as u32) << 12)
    }

    fn step(self) -> Step {
        let slot = |shift: u32| Symbol::ALL[(self.0 >> shift & 0x1f) as usize];
        match self.0 & 3 {
            0 => Step::Term,
            Self::UNARY => Step::Unary(slot(2)),
            kind => Step::Binary(
                (self.0 >> 12) as usize,
                slot(2),
                slot(7),
                if kind == Self::LEFT_HEAD {
                    HeadSide::Left
                } else {
                    HeadSide::Right
                },
            ),
        }
    }
}

/// One dense chart cell: slot `s.index()` holds symbol `s`'s best score
/// and back-pointer when bit `s.index()` of `mask` is set.
#[derive(Clone, Copy)]
struct Cell {
    score: [f64; SYMBOL_COUNT],
    back: [Back; SYMBOL_COUNT],
    mask: u32,
}

impl Cell {
    const EMPTY: Cell = Cell {
        score: [0.0; SYMBOL_COUNT],
        back: [Back::TERM; SYMBOL_COUNT],
        mask: 0,
    };

    /// Keep `(score, back)` for `slot` unless the slot already holds a
    /// score at least as high. True when the slot changed.
    #[inline]
    fn offer(&mut self, slot: usize, score: f64, back: Back) -> bool {
        let bit = 1 << slot;
        if self.mask & bit != 0 && self.score[slot] >= score {
            return false;
        }
        self.score[slot] = score;
        self.back[slot] = back;
        self.mask |= bit;
        true
    }
}

/// Set bits of `mask`, lowest first.
#[inline]
fn slots(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let slot = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            slot
        })
    })
}

/// The CKY triangle in one allocation, width-major: every width-1 cell,
/// then every width-2 cell, and so on — the order CKY completes them, so
/// cells are pushed as they are finished and never pre-initialized.
struct Chart {
    n: usize,
    cells: Vec<Cell>,
}

impl Chart {
    fn new(n: usize) -> Chart {
        Chart {
            n,
            cells: Vec::with_capacity(n * (n + 1) / 2),
        }
    }

    /// The cell spanning `width` tokens from `start`.
    #[inline]
    fn cell(&self, start: usize, width: usize) -> &Cell {
        let w = width - 1;
        &self.cells[w * self.n - w * w.saturating_sub(1) / 2 + start]
    }
}

/// A CKY parser over a fixed grammar.
#[derive(Debug, Clone)]
pub struct CkyParser {
    grammar: Grammar,
    /// Sentences longer than this (in parseable tokens) skip CKY and use
    /// the right-branching fallback (CKY is O(n³)).
    max_len: usize,
    /// Optional memoization of [`CkyParser::parse_tokens`] keyed by the
    /// POS-tag signature (see [`crate::cache`]). Shared by clones, so a
    /// cloned pipeline keeps feeding the same warm cache.
    cache: Option<Arc<Mutex<ParseCache>>>,
}

impl CkyParser {
    /// Parser over the embedded English grammar.
    pub fn embedded() -> Self {
        CkyParser {
            grammar: Grammar::english(),
            max_len: 72,
            cache: None,
        }
    }

    /// Parser over a custom grammar.
    pub fn new(grammar: Grammar) -> Self {
        CkyParser {
            grammar,
            max_len: 72,
            cache: None,
        }
    }

    /// Change the CKY length cutoff (mostly for tests/benches).
    pub fn with_max_len(mut self, max_len: usize) -> Self {
        self.max_len = max_len;
        self
    }

    /// Memoize [`CkyParser::parse_tokens`] results in a bounded LRU of
    /// `capacity` POS-tag signatures (`0` disables caching). The parse
    /// is a pure function of the tag sequence, so cached output is
    /// bit-identical to an uncached parse.
    pub fn with_parse_cache(mut self, capacity: usize) -> Self {
        self.cache = (capacity > 0).then(|| Arc::new(Mutex::new(ParseCache::new(capacity))));
        self
    }

    /// Hit/miss/occupancy counters of the parse cache, if one is
    /// installed.
    pub fn parse_cache_stats(&self) -> Option<ParseCacheStats> {
        self.cache
            .as_ref()
            .map(|c| c.lock().expect("parse cache lock").stats())
    }

    /// The grammar in use.
    pub fn grammar(&self) -> &Grammar {
        &self.grammar
    }

    /// Exact Viterbi parse of a POS sequence. Returns `None` when the
    /// grammar cannot derive `TOP` (or any full-span constituent) over
    /// the input, or the input is empty/over-long.
    pub fn parse_constituency(&self, tags: &[Pos]) -> Option<ConstTree> {
        let n = tags.len();
        if n == 0 || n > self.max_len {
            return None;
        }
        let g = &self.grammar;
        let mut chart = Chart::new(n);
        for &pos in tags {
            let mut cell = Cell::EMPTY;
            for &(lhs, lp) in g.lexical(pos) {
                cell.offer(lhs.index(), lp, Back::TERM);
            }
            self.unary_closure(&mut cell);
            chart.cells.push(cell);
        }
        for width in 2..=n {
            for start in 0..=(n - width) {
                let mut cell = Cell::EMPTY;
                for split in 1..width {
                    let left = chart.cell(start, split);
                    let right = chart.cell(start + split, width - split);
                    for ls in slots(left.mask) {
                        let lsym = Symbol::ALL[ls];
                        let lp = left.score[ls];
                        for rs in slots(right.mask & g.right_mask(lsym)) {
                            let base = lp + right.score[rs];
                            for rule in g.binary_entries(lsym, Symbol::ALL[rs]) {
                                cell.offer(
                                    rule.lhs.index(),
                                    base + rule.log_prob,
                                    Back::binary(split, ls, rs, rule.head),
                                );
                            }
                        }
                    }
                }
                self.unary_closure(&mut cell);
                chart.cells.push(cell);
            }
        }
        let top = chart.cell(0, n);
        // Prefer TOP; otherwise the best-scoring full-span symbol, the
        // highest slot among exact ties.
        let goal = if top.mask & 1 << Symbol::Top.index() != 0 {
            Symbol::Top.index()
        } else {
            slots(top.mask).reduce(|best, s| {
                if top.score[s] >= top.score[best] {
                    s
                } else {
                    best
                }
            })?
        };
        let mut nodes = Vec::new();
        let root = extract(&chart, tags, 0, n, goal, &mut nodes);
        let tree = ConstTree::new(nodes, root, n);
        debug_assert!(tree.validate().is_ok(), "CKY produced invalid tree");
        Some(tree)
    }

    /// Apply unary rules to a fixed point (grammar unaries are acyclic in
    /// probability: a rewrite is only taken when it improves the score).
    fn unary_closure(&self, cell: &mut Cell) {
        loop {
            let mut changed = false;
            for &(lhs, child, lp) in self.grammar.unary_log() {
                let c = child.index();
                if cell.mask & 1 << c != 0 {
                    changed |= cell.offer(lhs.index(), cell.score[c] + lp, Back::unary(c));
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Total parse of a token slice into a dependency tree over local
    /// indices `0..tokens.len()`. Never fails:
    /// 1. punctuation/particle tokens are excluded from the grammar run;
    /// 2. CKY parses the remaining POS sequence;
    /// 3. on failure, a right-branching backbone is used instead;
    /// 4. excluded tokens re-attach to the nearest preceding kept token.
    ///
    /// Every step consults only the POS tags, so with a cache installed
    /// ([`CkyParser::with_parse_cache`]) the result is memoized by the
    /// tag signature. The lock is **not** held across the parse itself:
    /// concurrent misses on one signature parse redundantly and insert
    /// identical trees, trading a little duplicate work for zero
    /// serialization of the O(n³) path.
    pub fn parse_tokens(&self, tokens: &[Token]) -> DepTree {
        let _span = gced_obs::span("parse");
        let Some(cache) = &self.cache else {
            return self.parse_tokens_uncached(tokens);
        };
        let signature: Vec<Pos> = tokens.iter().map(|t| t.pos).collect();
        if let Some(tree) = cache.lock().expect("parse cache lock").get(&signature) {
            gced_obs::counter("parse_cache_hits", 1);
            return tree;
        }
        gced_obs::counter("parse_cache_misses", 1);
        let tree = self.parse_tokens_uncached(tokens);
        cache
            .lock()
            .expect("parse cache lock")
            .insert(signature, tree.clone());
        tree
    }

    fn parse_tokens_uncached(&self, tokens: &[Token]) -> DepTree {
        tokens_to_tree(tokens, |tags| self.parse_constituency(tags))
    }
}

/// The total token-level wrapper around a constituency parse: drop
/// punctuation/particles, parse the remaining tags with `parse`, fall
/// back to a right-branching backbone when it fails, then re-attach the
/// dropped tokens to the nearest preceding kept token.
fn tokens_to_tree(tokens: &[Token], parse: impl FnOnce(&[Pos]) -> Option<ConstTree>) -> DepTree {
    let n = tokens.len();
    if n == 0 {
        return DepTree::empty();
    }
    let kept: Vec<usize> = (0..n)
        .filter(|&i| !matches!(tokens[i].pos, Pos::Punct | Pos::Particle))
        .collect();
    if kept.is_empty() {
        // All punctuation: chain every token to its predecessor.
        return DepTree::right_branching(n);
    }
    let tags: Vec<Pos> = kept.iter().map(|&i| tokens[i].pos).collect();
    // Edges among kept tokens, in kept-index space.
    let edges: Vec<Option<usize>> = match parse(&tags) {
        Some(tree) => dependency_edges(&tree),
        None => (0..kept.len())
            .map(|i| if i == 0 { None } else { Some(i - 1) })
            .collect(),
    };
    let mut parent: Vec<Option<usize>> = vec![None; n];
    for (ki, edge) in edges.iter().enumerate() {
        parent[kept[ki]] = edge.map(|p| kept[p]);
    }
    // Re-attach excluded tokens to the nearest preceding kept token,
    // or the first kept token when none precedes.
    for i in 0..n {
        if matches!(tokens[i].pos, Pos::Punct | Pos::Particle) {
            let anchor = kept.iter().rev().find(|&&k| k < i).or_else(|| kept.first());
            parent[i] = anchor.copied();
        }
    }
    DepTree::from_parents(parent)
}

/// Rebuild the tree under `slot` of the cell spanning `width` tokens
/// from `start`; returns the arena id.
fn extract(
    chart: &Chart,
    tags: &[Pos],
    start: usize,
    width: usize,
    slot: usize,
    nodes: &mut Vec<ConstNode>,
) -> usize {
    let label = Symbol::ALL[slot];
    let (children, head) = match chart.cell(start, width).back[slot].step() {
        Step::Term => {
            nodes.push(ConstNode::Leaf {
                token: start,
                pos: tags[start],
            });
            (vec![nodes.len() - 1], start)
        }
        Step::Unary(child) => {
            let c = extract(chart, tags, start, width, child.index(), nodes);
            (vec![c], head_of_node(nodes, c))
        }
        Step::Binary(left_width, ls, rs, head_side) => {
            let l = extract(chart, tags, start, left_width, ls.index(), nodes);
            let r = extract(
                chart,
                tags,
                start + left_width,
                width - left_width,
                rs.index(),
                nodes,
            );
            let head = match head_side {
                HeadSide::Left => head_of_node(nodes, l),
                HeadSide::Right => head_of_node(nodes, r),
            };
            (vec![l, r], head)
        }
    };
    nodes.push(ConstNode::Internal {
        label,
        children,
        head,
    });
    nodes.len() - 1
}

/// Head (local token index) of an arena node.
fn head_of_node(nodes: &[ConstNode], id: usize) -> usize {
    match &nodes[id] {
        ConstNode::Leaf { token, .. } => *token,
        ConstNode::Internal { head, .. } => *head,
    }
}

/// Head-percolated dependency extraction: for every constituent, each
/// non-head child's head token depends on the constituent's head token.
/// Returns the parent (in local token space) of each token; the sentence
/// head has parent `None`.
pub fn dependency_edges(tree: &ConstTree) -> Vec<Option<usize>> {
    let n = tree.token_count();
    let mut parent: Vec<Option<usize>> = vec![None; n];
    for id in 0..tree.node_count() {
        if let ConstNode::Internal { children, head, .. } = tree.node(id) {
            for &c in children {
                let ch = tree.head_of(c);
                if ch != *head {
                    parent[ch] = Some(*head);
                }
            }
        }
    }
    parent
}

/// Ordered-map CKY oracle: the chart the dense chart replaced, one
/// `BTreeMap<Symbol, (score, back-pointer)>` per cell, every rule's
/// `ln p` recomputed where it is used. Map iteration is `Symbol` order,
/// so exact-score ties resolve the way the dense chart documents; the
/// property tests in `crates/parser/tests/` assert the dense parser
/// reproduces this one exactly.
#[doc(hidden)]
pub mod reference {
    use super::{head_of_node, tokens_to_tree, CkyParser};
    use crate::dep::DepTree;
    use crate::grammar::{BinaryRule, Grammar, HeadSide, Symbol};
    use crate::tree::{ConstNode, ConstTree};
    use gced_text::{Pos, Token};
    use std::collections::BTreeMap;

    /// Back-pointer for chart entries.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Back {
        /// Preterminal over one token.
        Term,
        /// Unary rewrite from another symbol in the same cell.
        Unary(Symbol),
        /// Binary combination: split point, child symbols, head side.
        Binary(usize, Symbol, Symbol, HeadSide),
    }

    /// One chart cell: best (log-prob, back-pointer) per symbol.
    type Cell = BTreeMap<Symbol, (f64, Back)>;

    /// Reference [`CkyParser::parse_constituency`].
    pub fn parse_constituency(parser: &CkyParser, tags: &[Pos]) -> Option<ConstTree> {
        let n = tags.len();
        if n == 0 || n > parser.max_len {
            return None;
        }
        let grammar = &parser.grammar;
        let mut by_children: BTreeMap<(Symbol, Symbol), Vec<&BinaryRule>> = BTreeMap::new();
        for r in grammar.binary_rules() {
            by_children.entry((r.left, r.right)).or_default().push(r);
        }
        // chart[i][j] spans tokens i..=i+j (j = width-1).
        let mut chart: Vec<Vec<Cell>> = vec![vec![Cell::new(); n]; n];
        for (i, &pos) in tags.iter().enumerate() {
            let mut cell = Cell::new();
            for r in grammar.preterminal_rules().iter().filter(|r| r.pos == pos) {
                let lp = r.prob.ln();
                match cell.get(&r.lhs) {
                    Some(&(best, _)) if best >= lp => {}
                    _ => {
                        cell.insert(r.lhs, (lp, Back::Term));
                    }
                }
            }
            unary_closure(grammar, &mut cell);
            chart[i][0] = cell;
        }
        for width in 2..=n {
            for start in 0..=(n - width) {
                let mut cell = Cell::new();
                for split in 1..width {
                    let left = &chart[start][split - 1];
                    let right = &chart[start + split][width - split - 1];
                    for (&ls, &(lp, _)) in left {
                        for (&rs, &(rp, _)) in right {
                            let Some(rules) = by_children.get(&(ls, rs)) else {
                                continue;
                            };
                            for rule in rules {
                                let score = lp + rp + rule.prob.ln();
                                match cell.get(&rule.lhs) {
                                    Some(&(best, _)) if best >= score => {}
                                    _ => {
                                        cell.insert(
                                            rule.lhs,
                                            (score, Back::Binary(start + split, ls, rs, rule.head)),
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
                unary_closure(grammar, &mut cell);
                chart[start][width - 1] = cell;
            }
        }
        let top_cell = &chart[0][n - 1];
        // Prefer TOP; otherwise the best-scoring full-span symbol.
        let goal = if top_cell.contains_key(&Symbol::Top) {
            Symbol::Top
        } else {
            *top_cell
                .iter()
                .max_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).expect("no NaN scores"))?
                .0
        };
        let mut nodes = Vec::new();
        let root = extract(&chart, tags, 0, n - 1, goal, &mut nodes);
        Some(ConstTree::new(nodes, root, n))
    }

    /// Reference [`CkyParser::parse_tokens`] (uncached).
    pub fn parse_tokens(parser: &CkyParser, tokens: &[Token]) -> DepTree {
        tokens_to_tree(tokens, |tags| parse_constituency(parser, tags))
    }

    /// Apply unary rules to a fixed point.
    fn unary_closure(grammar: &Grammar, cell: &mut Cell) {
        loop {
            let mut changed = false;
            for r in grammar.unary_rules() {
                if let Some(&(child_score, _)) = cell.get(&r.child) {
                    let score = child_score + r.prob.ln();
                    match cell.get(&r.lhs) {
                        Some(&(best, _)) if best >= score => {}
                        _ => {
                            cell.insert(r.lhs, (score, Back::Unary(r.child)));
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Rebuild the tree from back-pointers; returns the arena id.
    fn extract(
        chart: &[Vec<Cell>],
        tags: &[Pos],
        start: usize,
        width_m1: usize,
        sym: Symbol,
        nodes: &mut Vec<ConstNode>,
    ) -> usize {
        let (_, back) = chart[start][width_m1][&sym];
        match back {
            Back::Term => {
                nodes.push(ConstNode::Leaf {
                    token: start,
                    pos: tags[start],
                });
                let leaf = nodes.len() - 1;
                nodes.push(ConstNode::Internal {
                    label: sym,
                    children: vec![leaf],
                    head: start,
                });
                nodes.len() - 1
            }
            Back::Unary(child) => {
                let c = extract(chart, tags, start, width_m1, child, nodes);
                let head = head_of_node(nodes, c);
                nodes.push(ConstNode::Internal {
                    label: sym,
                    children: vec![c],
                    head,
                });
                nodes.len() - 1
            }
            Back::Binary(split, ls, rs, head_side) => {
                let lw = split - start - 1;
                let rw = width_m1 - (split - start);
                let l = extract(chart, tags, start, lw, ls, nodes);
                let r = extract(chart, tags, split, rw, rs, nodes);
                let head = match head_side {
                    HeadSide::Left => head_of_node(nodes, l),
                    HeadSide::Right => head_of_node(nodes, r),
                };
                nodes.push(ConstNode::Internal {
                    label: sym,
                    children: vec![l, r],
                    head,
                });
                nodes.len() - 1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gced_text::analyze;

    fn parse(text: &str) -> (Vec<Token>, DepTree) {
        let doc = analyze(text);
        let parser = CkyParser::embedded();
        let tree = parser.parse_tokens(&doc.tokens);
        (doc.tokens, tree)
    }

    #[test]
    fn parses_simple_transitive_clause() {
        let doc = analyze("The Broncos defeated the Panthers");
        let parser = CkyParser::embedded();
        let tags: Vec<Pos> = doc.tokens.iter().map(|t| t.pos).collect();
        let tree = parser.parse_constituency(&tags).expect("should parse");
        tree.validate().unwrap();
        // Sentence head should be the verb "defeated" (index 2).
        assert_eq!(tree.head_of(tree.root()), 2);
    }

    #[test]
    fn dependency_edges_form_a_tree() {
        let (tokens, tree) = parse("The Broncos defeated the Panthers.");
        assert_eq!(tree.len(), tokens.len());
        tree.validate().unwrap();
        // verb is root
        let root = tree.root();
        assert_eq!(tokens[root].text, "defeated");
        // subject and object heads attach to the verb
        let broncos = tokens.iter().position(|t| t.text == "Broncos").unwrap();
        let panthers = tokens.iter().position(|t| t.text == "Panthers").unwrap();
        assert_eq!(tree.parent(broncos), Some(root));
        assert_eq!(tree.parent(panthers), Some(root));
    }

    #[test]
    fn determiners_attach_to_their_nouns() {
        let (tokens, tree) = parse("The Broncos defeated the Panthers.");
        let broncos = tokens.iter().position(|t| t.text == "Broncos").unwrap();
        assert_eq!(tree.parent(0), Some(broncos)); // "The" -> "Broncos"
    }

    #[test]
    fn pp_attaches_into_clause() {
        let (tokens, tree) = parse("The duke led troops in the battle.");
        tree.validate().unwrap();
        let inn = tokens.iter().position(|t| t.text == "in").unwrap();
        let battle = tokens.iter().position(|t| t.text == "battle").unwrap();
        // preposition heads its NP; battle under "in"
        assert_eq!(tree.parent(battle), Some(inn));
    }

    #[test]
    fn punctuation_attaches_to_preceding_token() {
        let (tokens, tree) = parse("The Broncos won.");
        let dot = tokens.iter().position(|t| t.text == ".").unwrap();
        assert_eq!(tree.parent(dot), Some(dot - 1));
    }

    #[test]
    fn unparseable_input_falls_back() {
        // A POS soup the grammar cannot derive: conj conj conj.
        let doc = analyze("and or but and");
        let parser = CkyParser::embedded();
        let tree = parser.parse_tokens(&doc.tokens);
        assert_eq!(tree.len(), 4);
        tree.validate().unwrap();
    }

    #[test]
    fn all_punctuation_input() {
        let doc = analyze("!!! ???");
        let parser = CkyParser::embedded();
        let tree = parser.parse_tokens(&doc.tokens);
        assert_eq!(tree.len(), doc.tokens.len());
        tree.validate().unwrap();
    }

    #[test]
    fn over_long_input_uses_fallback() {
        let long = (0..100).map(|_| "word").collect::<Vec<_>>().join(" ");
        let doc = analyze(&long);
        let parser = CkyParser::embedded();
        let tree = parser.parse_tokens(&doc.tokens);
        assert_eq!(tree.len(), 100);
        tree.validate().unwrap();
    }

    #[test]
    fn chart_for_a_max_len_sentence_stays_under_one_mib() {
        let n = CkyParser::embedded().max_len;
        let bytes = std::mem::size_of::<Cell>() * n * (n + 1) / 2;
        assert!(bytes < 1 << 20, "{bytes} bytes");
    }

    #[test]
    fn empty_input() {
        let parser = CkyParser::embedded();
        let tree = parser.parse_tokens(&[]);
        assert_eq!(tree.len(), 0);
    }

    #[test]
    fn coordination_parses() {
        let (_, tree) = parse("The duke and the king led troops.");
        tree.validate().unwrap();
    }

    #[test]
    fn copula_parses() {
        let (tokens, tree) = parse("Paris is the capital of France.");
        tree.validate().unwrap();
        let is = tokens.iter().position(|t| t.text == "is").unwrap();
        let root = tree.root();
        // Either "is" (copula as aux-root) or "capital"; both acceptable —
        // what matters is the NP internal structure.
        let capital = tokens.iter().position(|t| t.text == "capital").unwrap();
        assert!(
            root == is || root == capital,
            "root = {}",
            tokens[root].text
        );
    }

    #[test]
    fn parse_is_deterministic() {
        let (_, t1) = parse("The famous singer performed in many competitions.");
        let (_, t2) = parse("The famous singer performed in many competitions.");
        assert_eq!(t1, t2);
    }

    #[test]
    fn parentheticals_do_not_break_parsing() {
        let (tokens, tree) = parse("Football Conference (AFC) champion Denver Broncos won.");
        tree.validate().unwrap();
        assert_eq!(tree.len(), tokens.len());
    }

    #[test]
    fn cached_parse_is_identical_and_counts_hits() {
        let plain = CkyParser::embedded();
        let cached = CkyParser::embedded().with_parse_cache(64);
        let texts = [
            "The Broncos defeated the Panthers.",
            "The duke led troops in the battle.",
            "The Broncos defeated the Panthers.", // repeat → hit
            "The Eagles defeated the Falcons.",   // same POS shape → hit
        ];
        for text in texts {
            let doc = analyze(text);
            assert_eq!(
                cached.parse_tokens(&doc.tokens),
                plain.parse_tokens(&doc.tokens),
                "{text}"
            );
        }
        let stats = cached.parse_cache_stats().expect("cache installed");
        assert!(stats.hits >= 2, "stats: {stats:?}");
        assert!(stats.misses >= 2, "stats: {stats:?}");
        assert!(stats.len <= 64);
        assert!(plain.parse_cache_stats().is_none());
    }

    #[test]
    fn cache_is_shared_across_clones() {
        let cached = CkyParser::embedded().with_parse_cache(16);
        let clone = cached.clone();
        let doc = analyze("The Broncos won the title.");
        let a = cached.parse_tokens(&doc.tokens);
        let b = clone.parse_tokens(&doc.tokens);
        assert_eq!(a, b);
        let stats = clone.parse_cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let parser = CkyParser::embedded().with_parse_cache(0);
        assert!(parser.parse_cache_stats().is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn word() -> impl Strategy<Value = &'static str> {
        prop::sample::select(vec![
            "the", "a", "famous", "duke", "battle", "troops", "led", "defeated", "in", "of", "and",
            "quickly", "Broncos", "title", "won", ",", ".", "1066",
        ])
    }

    proptest! {
        /// parse_tokens is total: any word soup yields a valid dependency
        /// tree covering every token.
        #[test]
        fn parse_tokens_total(ws in prop::collection::vec(word(), 1..18)) {
            let text = ws.join(" ");
            let doc = gced_text::analyze(&text);
            let parser = CkyParser::embedded();
            let tree = parser.parse_tokens(&doc.tokens);
            prop_assert_eq!(tree.len(), doc.tokens.len());
            prop_assert!(tree.validate().is_ok());
        }

        /// A cached parser is observationally identical to an uncached
        /// one over arbitrary word soups, even with a tiny capacity that
        /// forces constant eviction.
        #[test]
        fn cached_parser_matches_uncached(
            soups in prop::collection::vec(prop::collection::vec(word(), 1..14), 1..24)
        ) {
            let plain = CkyParser::embedded();
            let cached = CkyParser::embedded().with_parse_cache(4);
            for ws in &soups {
                let doc = gced_text::analyze(&ws.join(" "));
                prop_assert_eq!(
                    cached.parse_tokens(&doc.tokens),
                    plain.parse_tokens(&doc.tokens)
                );
            }
            let stats = cached.parse_cache_stats().expect("cache installed");
            prop_assert!(stats.len <= 4);
            prop_assert_eq!(stats.hits + stats.misses, soups.len() as u64);
        }
    }
}
