//! Optimal Evidence Distiller (paper Sec. III-F, Algorithm 1).
//!
//! * **SGS (Sequential Grow Searching)** connects the evidence forest:
//!   while more than one tree remains, the tree whose root has the
//!   maximal attention weight to its parent is replaced by the *full
//!   subtree of T rooted at that parent* (absorbing the parent and all
//!   sibling subtrees — Grow Step line 4); any forest tree now contained
//!   is merged. The loop terminates because each step strictly raises
//!   the chosen root toward T's root.
//! * **SCS (Sequential Clip Searching)** prunes the unclipped evidence
//!   tree: candidate subtrees are those containing **no** forest node
//!   (clue/answer words and their parents are unclippable — Clip Step
//!   line 3), the candidate whose removal maximizes the hybrid score is
//!   clipped (ties broken by minimal root-to-parent attention — line 5),
//!   for M iterations or while the score improves.
//!
//! Attention weights are read through [`WeightedTree::edge_weight`],
//! which computes them on first read: SGS prefetches every weight it
//! could consult in one pass, and SCS reads weights only on exact score
//! ties.

use crate::config::ClipMode;
use crate::efc::EvidenceForest;
use crate::ids::DocIds;
use crate::scoring::{Bitset, EvidenceScorer, EvidenceScores, ScoreScratch};
use crate::wsptc::WeightedTree;
use gced_parser::DepTree;
use gced_text::Document;
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// One SGS iteration, for the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct GrowStep {
    /// Root of the tree chosen to grow (max attention weight).
    pub chosen_root: usize,
    /// Its parent in T — the new subtree root.
    pub parent: usize,
    /// The attention weight that won the argmax.
    pub weight: f64,
    /// Roots of the forest trees absorbed by the new subtree.
    pub merged_roots: Vec<usize>,
    /// Node count of the grown tree.
    pub new_size: usize,
}

/// One SCS iteration, for the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ClipStep {
    /// Root of the clipped subtree.
    pub clipped_node: usize,
    /// All removed nodes (the full subtree).
    pub removed: Vec<usize>,
    /// Hybrid score before the clip.
    pub hybrid_before: f64,
    /// Hybrid score after the clip.
    pub hybrid_after: f64,
}

/// Run SGS with the paper's max-attention root selection.
pub fn grow(
    wt: &mut WeightedTree<'_>,
    forest: &EvidenceForest,
) -> (BTreeSet<usize>, usize, Vec<GrowStep>) {
    grow_with_order(wt, forest, true)
}

/// Run SGS. Returns the unclipped evidence tree as (member nodes, root)
/// plus the step log. The forest must be non-empty. With
/// `max_attention = false` the lowest-root-index growable tree is chosen
/// instead (the grow-order design ablation).
pub fn grow_with_order(
    wt: &mut WeightedTree<'_>,
    forest: &EvidenceForest,
    max_attention: bool,
) -> (BTreeSet<usize>, usize, Vec<GrowStep>) {
    assert!(!forest.is_empty(), "SGS requires a non-empty forest");
    // Working set: the root of each live tree. A grown tree is the full
    // subtree of its root, so node sets are needed only at the end.
    let mut live: Vec<usize> = forest.trees.iter().map(|t| t.root).collect();
    if live.len() > 1 {
        let reads = sgs_reads(&wt.tree, live.iter().copied());
        wt.prefetch(reads);
    }
    let mut steps = Vec::new();
    while live.len() > 1 {
        // Select among trees whose root still has a parent.
        let chosen = if max_attention {
            // The last maximum, as `Iterator::max_by` picks it.
            let mut best: Option<(usize, f64)> = None;
            for (i, &root) in live.iter().enumerate() {
                if wt.tree.parent(root).is_none() {
                    continue;
                }
                let w = wt.edge_weight(root);
                if best.is_none_or(|(_, b)| {
                    b.partial_cmp(&w).expect("weights are never NaN") != Ordering::Greater
                }) {
                    best = Some((i, w));
                }
            }
            best.map(|(i, _)| i)
        } else {
            live.iter()
                .enumerate()
                .filter(|(_, &root)| wt.tree.parent(root).is_some())
                .min_by_key(|(_, &root)| root)
                .map(|(i, _)| i)
        }
        .expect("at least one growable tree while more than one remains");
        let old_root = live[chosen];
        let weight = wt.edge_weight(old_root);
        let tree = &wt.tree;
        let parent = tree.parent(old_root).expect("chosen tree is growable");
        // Grow Step line 4: the new T_opt is the full subtree of T rooted
        // at the parent (parent + all sibling subtrees); it absorbs every
        // live tree whose root it contains.
        let mut merged_roots = Vec::new();
        live.retain(|&root| {
            let inside = tree.is_ancestor(parent, root);
            if inside {
                merged_roots.push(root);
            }
            !inside
        });
        steps.push(GrowStep {
            chosen_root: old_root,
            parent,
            weight,
            merged_roots,
            new_size: tree.subtree(parent).len(),
        });
        live.push(parent);
    }
    // The survivor is the forest's only tree, or the last grown one.
    let root = live[0];
    let nodes = if steps.is_empty() {
        forest.trees[0].nodes.clone()
    } else {
        wt.tree.subtree(root).into_iter().collect()
    };
    (nodes, root, steps)
}

/// Every node whose weight SGS can read from a forest with these
/// (distinct) roots: the nodes on the paths from each root up to, but
/// not including, the roots' common ancestor, plus the ancestor itself
/// when it is one of the roots. A live root rises only to its parent,
/// and a root that rises to the common ancestor absorbs every other
/// tree, so no weight at or above it is read otherwise.
fn sgs_reads(tree: &DepTree, roots: impl Iterator<Item = usize> + Clone) -> Vec<usize> {
    let path = |r: usize| std::iter::successors(Some(r), |&v| tree.parent(v));
    // The common ancestor is the first node on a path that every root's
    // path visits.
    let mut visits = vec![0usize; tree.len()];
    for r in roots.clone() {
        path(r).for_each(|v| visits[v] += 1);
    }
    let k = roots.clone().count();
    let mut reads = Vec::new();
    for r in roots {
        for v in path(r) {
            if visits[v] == k {
                if v == r {
                    reads.push(v);
                }
                break;
            }
            reads.push(v);
        }
    }
    reads
}

/// The subtree of `node` *within* the current evidence set `te`
/// (descendants through members only).
pub fn subtree_within(wt: &WeightedTree<'_>, node: usize, te: &BTreeSet<usize>) -> BTreeSet<usize> {
    let mut out = BTreeSet::new();
    let mut stack = vec![node];
    while let Some(x) = stack.pop() {
        if !te.contains(&x) || !out.insert(x) {
            continue;
        }
        for &c in wt.tree.children(x) {
            if te.contains(&c) {
                stack.push(c);
            }
        }
    }
    out
}

/// Run SCS in place over `te`. `protected` is the union of forest nodes
/// (never clipped). Returns the step log and the full [`EvidenceScores`]
/// of the resulting evidence — bitwise-equal to
/// `scorer.score_selection(aos, te)` on the clipped selection — so the
/// caller does not pay a final rescore.
///
/// This is the incremental engine: one DFS pass per iteration decomposes
/// the current evidence into every candidate subtree removal (with
/// protected-containment computed by aggregation), membership lives in
/// `u64` bitsets instead of per-candidate `BTreeSet` clones, and each
/// candidate is scored once through the shared
/// [`crate::scoring::SearchContext`] — a masked QA prediction over the
/// id tables plus an incremental LM walk — unless the exact
/// competitiveness prune rules it out.
///
/// The result is **bit-identical** to [`reference::clip`] (the paper-
/// literal formulation kept as a test oracle): same evidence, same step
/// log, same tie-breaking by minimal root-to-parent attention.
pub fn clip(
    wt: &mut WeightedTree<'_>,
    te: &mut BTreeSet<usize>,
    te_root: usize,
    protected: &BTreeSet<usize>,
    scorer: &EvidenceScorer<'_>,
    aos: (&Document, &DocIds),
    mode: ClipMode,
) -> (Vec<ClipStep>, EvidenceScores) {
    let max_iters = match mode {
        ClipMode::Fixed(m) => m,
        ClipMode::WhileImproving { max } => max,
    };
    let n = wt.tree.len();
    let mut members = Bitset::from_iter(n, te.iter().copied());
    let protected = Bitset::from_iter(n, protected.iter().copied());
    let mut te_size = te.len();
    let mut search = scorer.search_context(aos.0, aos.1);
    search.set_base(te.iter().copied());
    let mut scratch = ScoreScratch::default();
    let mut decomp = Decomposition::new(n);
    let mut steps = Vec::new();
    let mut current = search.score_base(&mut scratch);
    for _ in 0..max_iters {
        let _iter_span = gced_obs::span("clip.iter");
        // One pass: every in-TE subtree decomposition, protected flags
        // aggregated bottom-up, deduplicated by DFS segment.
        decomp.run(&wt.tree, &members, te_root, &protected);
        let candidates = decomp.candidates(te_size, te_root);
        gced_obs::counter("candidates", candidates.len() as u64);
        let mut pruned = 0u64;
        // Score candidates and reduce in ascending-node order: identical
        // argmax and tie-breaking to the reference formulation. A
        // candidate whose informativeness-bounded hybrid provably cannot
        // beat the running best is pruned (exact — see
        // `SearchContext::score_if_competitive`).
        let mut best: Option<(usize, EvidenceScores)> = None;
        for (k, cand) in candidates.iter().enumerate() {
            // A candidate below `floor` can neither beat the best
            // outright nor reach the 1e-12 tie window.
            let floor = match &best {
                None => f64::NEG_INFINITY,
                Some((_, bs)) => bs.hybrid - 1e-12,
            };
            let Some(scores) =
                search.score_if_competitive(decomp.segment(cand), floor, &mut scratch)
            else {
                pruned += 1;
                continue;
            };
            let h = scores.hybrid;
            let better = match &best {
                None => true,
                Some((bk, bs)) => {
                    h > bs.hybrid + 1e-12
                        || ((h - bs.hybrid).abs() <= 1e-12
                            && lighter(wt, cand.node, candidates[*bk].node))
                }
            };
            if better {
                best = Some((k, scores));
            }
        }
        gced_obs::counter("candidates_pruned", pruned);
        let Some((k, winner)) = best else { break };
        if !winner.hybrid.is_finite() {
            break; // every removal lands in the C = −∞ discard region
        }
        if let ClipMode::WhileImproving { .. } = mode {
            if winner.hybrid <= current.hybrid {
                break;
            }
        }
        let chosen = candidates[k];
        let mut removed: Vec<usize> = decomp.segment(&chosen).to_vec();
        removed.sort_unstable();
        for &x in &removed {
            te.remove(&x);
            members.remove(x);
        }
        te_size -= removed.len();
        search.set_base(te.iter().copied());
        steps.push(ClipStep {
            clipped_node: chosen.node,
            removed,
            hybrid_before: current.hybrid,
            hybrid_after: winner.hybrid,
        });
        current = winner;
    }
    (steps, current)
}

/// The SCS tie-break (Clip Step line 5): does node `a` hang from its
/// parent by strictly less attention than `b`? Both weights' rows are
/// computed in one pass.
fn lighter(wt: &mut WeightedTree<'_>, a: usize, b: usize) -> bool {
    wt.prefetch([a, b]);
    wt.edge_weight(a) < wt.edge_weight(b)
}

/// One candidate subtree removal: the subtree of `node` within the
/// current evidence, stored as a segment of the decomposition's DFS
/// preorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Candidate {
    node: usize,
    seg_start: u32,
    seg_len: u32,
}

/// Per-iteration decomposition of the evidence into candidate subtrees:
/// a DFS preorder over every in-TE component plus per-node subtree size
/// and protected-containment flags, computed in one pass and reused for
/// every candidate (the naïve search re-walked the tree per candidate).
struct Decomposition {
    /// DFS preorder of all members (token indices).
    order: Vec<usize>,
    /// token -> position in `order` (u32::MAX when absent).
    pre: Vec<u32>,
    /// token -> in-TE subtree size.
    size: Vec<u32>,
    /// token -> any protected node in the in-TE subtree.
    prot: Vec<bool>,
    /// DFS stack scratch: (node, child cursor).
    stack: Vec<(usize, usize)>,
}

impl Decomposition {
    fn new(n: usize) -> Self {
        Decomposition {
            order: Vec::with_capacity(n),
            pre: vec![u32::MAX; n],
            size: vec![0; n],
            prot: vec![false; n],
            stack: Vec::new(),
        }
    }

    /// Recompute for the current membership. Components beyond the one
    /// holding `te_root` (the grow-ablated, disconnected case) are
    /// discovered from their topmost members, so every member is covered
    /// exactly once.
    fn run(&mut self, tree: &DepTree, members: &Bitset, te_root: usize, protected: &Bitset) {
        self.order.clear();
        for t in members.iter() {
            self.pre[t] = u32::MAX;
            self.size[t] = 0;
            self.prot[t] = false;
        }
        if members.contains(te_root) {
            self.dfs(tree, members, te_root, protected);
        }
        // Remaining components, ascending: walk each unvisited member up
        // to its component top, then DFS from there.
        for v in members.iter() {
            if self.pre[v] != u32::MAX {
                continue;
            }
            let mut top = v;
            while let Some(p) = tree.parent(top) {
                if members.contains(p) && self.pre[p] == u32::MAX {
                    top = p;
                } else {
                    break;
                }
            }
            self.dfs(tree, members, top, protected);
        }
    }

    /// Iterative DFS computing preorder, subtree sizes, and protected
    /// flags (aggregated from member children on post-order exit) for
    /// one component.
    fn dfs(&mut self, tree: &DepTree, members: &Bitset, root: usize, protected: &Bitset) {
        self.stack.clear();
        self.pre[root] = self.order.len() as u32;
        self.order.push(root);
        self.stack.push((root, 0));
        while let Some(&(node, cursor)) = self.stack.last() {
            let children = tree.children(node);
            let mut next_child = None;
            let mut cur = cursor;
            while cur < children.len() {
                let c = children[cur];
                cur += 1;
                if members.contains(c) && self.pre[c] == u32::MAX {
                    next_child = Some(c);
                    break;
                }
            }
            self.stack.last_mut().expect("stack non-empty").1 = cur;
            if let Some(c) = next_child {
                self.pre[c] = self.order.len() as u32;
                self.order.push(c);
                self.stack.push((c, 0));
            } else {
                // Post-order exit: every member child has finished, so
                // size and protection aggregate in O(children).
                self.size[node] = (self.order.len() - self.pre[node] as usize) as u32;
                let mut prot = protected.contains(node);
                if !prot {
                    prot = children
                        .iter()
                        .any(|&c| members.contains(c) && self.prot[c]);
                }
                self.prot[node] = prot;
                self.stack.pop();
            }
        }
    }

    /// Candidate removals for the current pass: every member except the
    /// evidence root whose subtree is protected-free and smaller than
    /// the whole evidence, ascending by node index. Candidate removals
    /// are structurally deduplicated: distinct roots always yield
    /// distinct DFS segments, because every segment contains its own
    /// root (the debug assertion pins the invariant).
    fn candidates(&self, te_size: usize, te_root: usize) -> Vec<Candidate> {
        let mut out: Vec<Candidate> = Vec::new();
        for &v in &self.order {
            if v == te_root || self.prot[v] {
                continue;
            }
            let size = self.size[v] as usize;
            if size >= te_size {
                continue;
            }
            out.push(Candidate {
                node: v,
                seg_start: self.pre[v],
                seg_len: self.size[v],
            });
        }
        out.sort_unstable_by_key(|c| c.node);
        debug_assert!(
            out.windows(2)
                .all(|w| (w[0].seg_start, w[0].seg_len) != (w[1].seg_start, w[1].seg_len)),
            "candidate segments must be unique"
        );
        out
    }

    /// The removal segment of a candidate: its subtree in DFS preorder.
    fn segment(&self, cand: &Candidate) -> &[usize] {
        let s = cand.seg_start as usize;
        &self.order[s..s + cand.seg_len as usize]
    }
}

/// The paper-literal Sequential Clip Searching kept as a verification
/// oracle: per-candidate `subtree_within` walks, full `BTreeSet` clones,
/// and from-scratch rescoring. The optimized [`clip`] must match it
/// bit for bit (same evidence, scores, and step log); the cross-crate
/// property suite asserts exactly that on randomized pipelines.
#[doc(hidden)]
pub mod reference {
    use super::*;

    /// Reference SCS. See [`super::clip`].
    pub fn clip(
        wt: &mut WeightedTree<'_>,
        te: &mut BTreeSet<usize>,
        te_root: usize,
        protected: &BTreeSet<usize>,
        scorer: &EvidenceScorer<'_>,
        aos: &Document,
        mode: ClipMode,
    ) -> Vec<ClipStep> {
        let max_iters = match mode {
            ClipMode::Fixed(m) => m,
            ClipMode::WhileImproving { max } => max,
        };
        let mut steps = Vec::new();
        let mut current_h = scorer.score_selection(aos, te).hybrid;
        for _ in 0..max_iters {
            // Enumerate candidates: members (≠ root) whose in-TE subtree
            // is disjoint from the protected set.
            let mut best: Option<(usize, BTreeSet<usize>, f64)> = None;
            for &v in te.iter() {
                if v == te_root {
                    continue;
                }
                let sub = subtree_within(wt, v, te);
                if sub.iter().any(|n| protected.contains(n)) {
                    continue;
                }
                if sub.len() >= te.len() {
                    continue; // would delete everything
                }
                let mut after: BTreeSet<usize> = te.clone();
                for n in &sub {
                    after.remove(n);
                }
                let h = scorer.score_selection(aos, &after).hybrid;
                let better = match &best {
                    None => true,
                    Some((bv, _, bh)) => {
                        h > *bh + 1e-12
                            || ((h - *bh).abs() <= 1e-12 && wt.edge_weight(v) < wt.edge_weight(*bv))
                    }
                };
                if better {
                    best = Some((v, sub, h));
                }
            }
            let Some((v, sub, h)) = best else { break };
            if !h.is_finite() {
                break;
            }
            if let ClipMode::WhileImproving { .. } = mode {
                if h <= current_h {
                    break;
                }
            }
            for n in &sub {
                te.remove(n);
            }
            steps.push(ClipStep {
                clipped_node: v,
                removed: sub.into_iter().collect(),
                hybrid_before: current_h,
                hybrid_after: h,
            });
            current_h = h;
        }
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::efc;
    use gced_parser::DepTree;

    /// A hand-built weighted tree:
    ///        0
    ///      / | \
    ///     1  4  6
    ///    /\  |   \
    ///   2 3  5    7
    fn wt(weights: Vec<f64>) -> WeightedTree<'static> {
        let tree = DepTree::from_parents(vec![
            None,
            Some(0),
            Some(1),
            Some(1),
            Some(0),
            Some(4),
            Some(0),
            Some(6),
        ]);
        WeightedTree::with_weights(tree, weights)
    }

    fn uniform_wt() -> WeightedTree<'static> {
        wt(vec![0.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5])
    }

    #[test]
    fn grow_single_tree_is_identity() {
        let mut w = uniform_wt();
        let forest = efc::construct(&w.tree, &[2], &[]);
        let (nodes, root, steps) = grow(&mut w, &forest);
        assert_eq!(nodes, BTreeSet::from([1, 2]));
        assert_eq!(root, 1);
        assert!(steps.is_empty());
    }

    #[test]
    fn grow_connects_two_trees() {
        let mut w = uniform_wt();
        // Trees: {1,2} (seed 2) and {6,7} (seed 7). Connecting requires
        // growing to the root's full subtree.
        let forest = efc::construct(&w.tree, &[2], &[7]);
        let (nodes, root, steps) = grow(&mut w, &forest);
        assert_eq!(root, 0);
        assert_eq!(nodes, BTreeSet::from([0, 1, 2, 3, 4, 5, 6, 7]));
        assert!(!steps.is_empty());
        // Final step must have merged the remaining tree.
        assert!(!steps.last().unwrap().merged_roots.is_empty());
    }

    #[test]
    fn grow_prefers_max_weight_root() {
        // Tree {1,2} has root 1 with weight 0.9; tree {6,7} root 6 with
        // weight 0.2 — SGS must grow the 0.9 tree first.
        let mut w = wt(vec![0.0, 0.9, 0.5, 0.5, 0.5, 0.5, 0.2, 0.5]);
        let forest = efc::construct(&w.tree, &[2], &[7]);
        let (_, _, steps) = grow(&mut w, &forest);
        assert_eq!(steps[0].chosen_root, 1);
        assert!((steps[0].weight - 0.9).abs() < 1e-12);
    }

    #[test]
    fn grow_result_contains_all_forest_nodes_and_is_connected() {
        let mut w = uniform_wt();
        let forest = efc::construct(&w.tree, &[3, 5], &[7]);
        let (nodes, root, _) = grow(&mut w, &forest);
        for n in forest.all_nodes() {
            assert!(nodes.contains(&n));
        }
        // Connectivity: every member other than the root has its parent
        // in the set.
        for &n in &nodes {
            if n != root {
                assert!(nodes.contains(&w.tree.parent(n).unwrap()));
            }
        }
    }

    #[test]
    fn sgs_reads_stop_below_the_common_ancestor() {
        let w = uniform_wt();
        let reads = |roots: &[usize]| sgs_reads(&w.tree, roots.iter().copied());
        assert_eq!(reads(&[2, 7]), vec![2, 1, 7, 6]);
        assert_eq!(reads(&[2, 3]), vec![2, 3]);
        assert_eq!(reads(&[1, 3]), vec![1, 3]);
        assert_eq!(reads(&[5, 4, 7]), vec![5, 4, 4, 7, 6]);
    }

    #[test]
    fn subtree_within_respects_removals() {
        let w = uniform_wt();
        let mut te: BTreeSet<usize> = (0..8).collect();
        te.remove(&3);
        let sub = subtree_within(&w, 1, &te);
        assert_eq!(sub, BTreeSet::from([1, 2]));
    }

    #[test]
    #[should_panic(expected = "non-empty forest")]
    fn grow_empty_forest_panics() {
        let mut w = uniform_wt();
        let forest = EvidenceForest::default();
        let _ = grow(&mut w, &forest);
    }

    // -- optimized clip vs the paper-literal reference oracle ------------

    /// Tiny deterministic generator for the randomized oracle tests.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn unit(&mut self) -> f64 {
            (self.next() % 100_000) as f64 / 100_000.0
        }
    }

    const ORACLE_WORDS: [&str; 12] = [
        "the", "broncos", "defeated", "panthers", "title", "game", "team", "won", "final",
        "evening", "denver", "stadium",
    ];

    fn oracle_scorer_parts() -> (gced_qa::QaModel, gced_lm::TrigramLm, f64) {
        let corpus: Vec<Vec<String>> = [
            "the broncos defeated the panthers",
            "the team won the final game",
            "the broncos won the title in denver",
            "the stadium was full that evening",
        ]
        .iter()
        .map(|s| s.split(' ').map(String::from).collect())
        .collect();
        let qa = gced_qa::QaModel::new(gced_qa::ModelProfile::plm());
        let lm = gced_lm::TrigramLm::train(&corpus);
        let ppl_ref = crate::scoring::reference_perplexity(&lm, &corpus, 100);
        (qa, lm, ppl_ref)
    }

    /// The optimized clip must be bit-identical to the reference oracle
    /// on randomized trees, weights, protections, and selections —
    /// including disconnected evidence sets (the grow-ablated path) and
    /// both clip modes.
    #[test]
    fn optimized_clip_matches_reference_on_random_trees() {
        let (qa, lm, ppl_ref) = oracle_scorer_parts();
        let table = crate::ids::IdTable::for_scoring(&qa, &lm);
        let mut ids = table.request();
        let scorer = EvidenceScorer::new(
            &qa,
            &lm,
            &mut ids,
            "Which team won the final game?",
            "broncos",
            ppl_ref,
            (0.5, 0.2, 0.3),
        );
        let mut rng = Lcg(20260729);
        for case in 0..60 {
            let n = 4 + rng.below(12);
            // Random prefix-closed tree + random weights.
            let parents: Vec<Option<usize>> = (0..n)
                .map(|i| if i == 0 { None } else { Some(rng.below(i)) })
                .collect();
            let tree = gced_parser::DepTree::from_parents(parents);
            let weights: Vec<f64> = (0..n)
                .map(|i| if i == 0 { 0.0 } else { rng.unit().max(1e-6) })
                .collect();
            let mut wt = WeightedTree::with_weights(tree, weights);
            // A document with exactly n single-word tokens.
            let text: Vec<&str> = (0..n)
                .map(|i| ORACLE_WORDS[i % ORACLE_WORDS.len()])
                .collect();
            let aos = gced_text::analyze(&text.join(" "));
            assert_eq!(aos.len(), n, "token count mismatch in test setup");
            let aos_ids = ids.intern(&aos);
            // Random evidence selection: connected on even cases (full
            // subtree of the root), random subset (possibly
            // disconnected) on odd cases.
            let te: BTreeSet<usize> = if case % 2 == 0 {
                (0..n).collect()
            } else {
                let picked: BTreeSet<usize> = (0..n).filter(|_| rng.below(3) > 0).collect();
                if picked.is_empty() {
                    (0..1).collect()
                } else {
                    picked
                }
            };
            let te_root = if te.contains(&wt.tree.root()) {
                wt.tree.root()
            } else {
                *te.iter().next().expect("te non-empty")
            };
            // Random protected set (occasionally empty).
            let protected: BTreeSet<usize> =
                te.iter().copied().filter(|_| rng.below(4) == 0).collect();
            for mode in [ClipMode::WhileImproving { max: 8 }, ClipMode::Fixed(2)] {
                let mut te_ref = te.clone();
                let steps_ref = reference::clip(
                    &mut wt,
                    &mut te_ref,
                    te_root,
                    &protected,
                    &scorer,
                    &aos,
                    mode,
                );
                let mut te_opt = te.clone();
                let (steps_opt, _) = clip(
                    &mut wt,
                    &mut te_opt,
                    te_root,
                    &protected,
                    &scorer,
                    (&aos, &aos_ids),
                    mode,
                );
                assert_eq!(
                    steps_ref, steps_opt,
                    "case {case} mode {mode:?}: step log differs"
                );
                assert_eq!(
                    te_ref, te_opt,
                    "case {case} mode {mode:?}: evidence differs"
                );
            }
        }
    }

    /// The clip engine's final-scores channel must agree with a from-
    /// scratch rescore of the clipped selection.
    #[test]
    fn clip_final_scores_match_rescore() {
        let (qa, lm, ppl_ref) = oracle_scorer_parts();
        let table = crate::ids::IdTable::for_scoring(&qa, &lm);
        let mut ids = table.request();
        let scorer = EvidenceScorer::new(
            &qa,
            &lm,
            &mut ids,
            "Which team won the final game?",
            "broncos",
            ppl_ref,
            (0.5, 0.2, 0.3),
        );
        let mut rng = Lcg(7);
        for _ in 0..20 {
            let n = 5 + rng.below(10);
            let parents: Vec<Option<usize>> = (0..n)
                .map(|i| if i == 0 { None } else { Some(rng.below(i)) })
                .collect();
            let tree = gced_parser::DepTree::from_parents(parents);
            let weights: Vec<f64> = (0..n)
                .map(|i| if i == 0 { 0.0 } else { rng.unit().max(1e-6) })
                .collect();
            let mut wt = WeightedTree::with_weights(tree, weights);
            let text: Vec<&str> = (0..n)
                .map(|i| ORACLE_WORDS[i % ORACLE_WORDS.len()])
                .collect();
            let aos = gced_text::analyze(&text.join(" "));
            let aos_ids = ids.intern(&aos);
            let te_root = wt.tree.root();
            let protected: BTreeSet<usize> = [te_root].into_iter().collect();
            let mut te: BTreeSet<usize> = (0..n).collect();
            let (_, final_scores) = clip(
                &mut wt,
                &mut te,
                te_root,
                &protected,
                &scorer,
                (&aos, &aos_ids),
                ClipMode::WhileImproving { max: 8 },
            );
            assert_eq!(final_scores, scorer.score_selection(&aos, &te));
        }
    }
}
