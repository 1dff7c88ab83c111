//! Incremental selection prediction — the QA half of the shared
//! evidence-search engine.
//!
//! Both halves of Grow-and-Clip evaluate the QA model on many
//! *selections of one analysed document*: the grow search (ASE) trials
//! sentence subsets, the clip search (SCS) trials token removals. A
//! selection splits into **runs** — the maximal groups of selected
//! tokens sharing one original sentence, which are exactly the sentences
//! of the projected view ([`gced_text::Document::project_into`]) — and
//! the span scorer's features factor almost entirely per run: every
//! feature of a candidate span depends only on the run's own tokens plus
//! four small integers describing the *clue layout* around it (distance
//! to the nearest clue / verb-clue before and after the run, in view
//! coordinates).
//!
//! [`SelectionScoreCache`] holds the per-token id tables of one
//! (question, document) pair and scores a run in two steps: one pass
//! over the run fills per-run tables (previous and next clue and
//! verb-clue positions, prefix counts, span-boundary flags), then each
//! candidate span's fourteen features are table reads, folded eight
//! spans at a time by [`gced_nn::kernels::fold_dot_f64_lanes`]. The
//! grow search also memoizes per-run best spans keyed by
//! `(run, clue layout)`, so adjacent trials re-score only the runs that
//! changed ([`QaModel::predict_selection_span_cached`]); the clip
//! search's removals rarely repeat a run, so it scores every run afresh
//! without the memo ([`QaModel::predict_selection_span_fresh`]). Every
//! prediction is **bitwise identical** to [`QaModel::predict_selection`]
//! on the same selection — the features are computed by mirrored
//! arithmetic on the same inputs, the argmax uses the same
//! first-strict-max rule, and the property suite pins the equivalence on
//! randomized documents and selections.
//!
//! The cache transparently falls back to the uncached path when the
//! factorization does not hold: score-noise profiles perturb spans by
//! their *view-global* coordinates, and window truncation cuts runs
//! mid-sentence, so both gate to [`QaModel::predict_selection`].

use crate::features::{span_boundary, wh_block, QuestionAnalysis, N_BASE};
use crate::model::{Prediction, QaModel, SelectionScratch, MAX_SPAN};
use gced_nn::kernels::{fold_dot_f64_lanes, F64_LANES};
use gced_text::{join_tokens, Document, Pos, Token};
use std::collections::HashMap;

/// Absent cross-run clue distance.
const NONE: u32 = u32::MAX;

/// The clue layout around one run, in view coordinates: distance from
/// the run start to the nearest clue / verb-clue before it, and from the
/// run end to the nearest clue / verb-clue after it (`NONE` = absent).
/// Together with the run's own tokens this determines every span
/// feature, so it is the memoization key's context half.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CrossCtx {
    gb: u32,
    ga: u32,
    vb: u32,
    va: u32,
}

/// Best span of one run under one clue layout: run-relative token range
/// plus its score (`None` when the run admits no candidate span).
#[derive(Debug, Clone, Copy)]
struct RunBest {
    rel: Option<(u32, u32)>,
    score: f64,
}

/// Memoized data of one run, computed once per distinct run.
#[derive(Debug)]
struct RunEntry {
    /// Sentence clue coverage (feature f1) of the run.
    coverage: f64,
    /// Memoized best spans per clue layout.
    by_ctx: Vec<(CrossCtx, RunBest)>,
}

/// Per-run tables of [`score_run`], rebuilt in place for each run
/// scored: one slot per run position `k ∈ 0..=n`.
#[derive(Debug, Default)]
struct RunTables {
    slots: Vec<RunSlot>,
    /// Features of up to [`F64_LANES`] pending spans, feature-major.
    feats: [[f64; F64_LANES]; N_BASE],
    /// The pending spans, run-relative.
    spans: [(u32, u32); F64_LANES],
}

/// Run position `k`'s table entries. Positions are run-relative;
/// `NONE` marks an absent clue.
#[derive(Debug, Clone, Copy, Default)]
struct RunSlot {
    /// The last clue position `< k`.
    prev_clue: u32,
    /// The first clue position `≥ k`.
    next_clue: u32,
    /// The last verb-clue position `< k`.
    prev_verb: u32,
    /// The first verb-clue position `≥ k`.
    next_verb: u32,
    /// Clues among the first `k` tokens (f5).
    clues: u32,
    /// Proper nouns among the first `k` tokens (f3, f7).
    proper: u32,
    /// Numbers among the first `k` tokens (f3, f8).
    nums: u32,
    /// Nouns or proper nouns among the first `k` tokens (f3).
    nouns: u32,
    /// Token `k` may start or end a span (`false` at `k = n`).
    boundary: bool,
}

/// Scratch describing one run of the current selection.
#[derive(Debug, Clone, Copy)]
struct RunRef {
    /// Start within `selected` (also the run's view start).
    start: usize,
    /// One past the end within `selected`.
    end: usize,
}

/// Per-(question, document) cache of span-score partials.
///
/// Create one per analysed document and reuse it for every selection of
/// that document scored against one question — the contract the search
/// engine's `SearchContext` upholds. Feeding selections of a different
/// document or question produces unspecified predictions (debug builds
/// assert the document size).
#[derive(Debug, Default)]
pub struct SelectionScoreCache {
    init: bool,
    doc_len: usize,
    /// token -> matches a question content word (clue / f5 predicate).
    clue: Vec<bool>,
    /// token -> clue with `Pos::Verb`.
    verb_clue: Vec<bool>,
    /// token -> id of its lemma among content lemmas (f1), or `NONE`.
    cov_lemma: Vec<u32>,
    /// token -> id of its lemma among matched lemmas (coverage), or `NONE`.
    matched_lemma: Vec<u32>,
    /// Number of distinct matched-lemma ids.
    n_matched: usize,
    /// `q.content_lemmas().len()`.
    total_content: usize,
    /// token -> IDF value (feature f6 term).
    idf_val: Vec<f64>,
    runs: HashMap<Box<[u32]>, RunEntry>,
    /// Cache effectiveness counters (runs scored fresh vs replayed).
    pub run_misses: u64,
    /// See [`SelectionScoreCache::run_misses`].
    pub run_hits: u64,
    // -- per-call scratch ------------------------------------------------
    run_refs: Vec<RunRef>,
    ctxs: Vec<CrossCtx>,
    bests: Vec<RunBest>,
    seen_stamp: Vec<u32>,
    stamp: u32,
    key_buf: Vec<u32>,
    tables: RunTables,
    winner_tokens: Vec<Token>,
    fallback: SelectionScratch,
}

impl SelectionScoreCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache bound to `doc` through interned ids: `lower[i]` and
    /// `lemma[i]` are the ids of token `i`'s lowercased form and lemma in
    /// the id space of `q.ids` ([`QuestionAnalysis::from_doc_ids`]), and
    /// `idf[id]` is the IDF of the word with id `id` (ids past its end
    /// take the unseen-word default 2.0). The tables equal the ones the
    /// string-keyed set-up of [`SelectionScoreCache::new`] builds, with
    /// no string hashing.
    ///
    /// # Panics
    /// If `q` carries no ids.
    pub fn for_ids(
        q: &QuestionAnalysis,
        doc: &Document,
        lower: &[u32],
        lemma: &[u32],
        idf: &[f64],
    ) -> Self {
        let ids = q.ids.as_ref().expect("question analysed without ids");
        let n = doc.len();
        debug_assert!(lower.len() == n && lemma.len() == n);
        let mut cache = SelectionScoreCache {
            doc_len: n,
            // Distinct lemma ids are distinct lemmas.
            total_content: ids.lemmas.len(),
            clue: Vec::with_capacity(n),
            verb_clue: Vec::with_capacity(n),
            cov_lemma: Vec::with_capacity(n),
            matched_lemma: Vec::with_capacity(n),
            idf_val: Vec::with_capacity(n),
            ..Self::default()
        };
        // Dense lemma numbers in order of first occurrence, as `init`
        // assigns them; the lists stay as short as the question.
        let mut cov_ids: Vec<u32> = Vec::new();
        let mut matched_ids: Vec<u32> = Vec::new();
        let dense = |seen: &mut Vec<u32>, id: u32| match seen.iter().position(|&x| x == id) {
            Some(k) => k as u32,
            None => {
                seen.push(id);
                seen.len() as u32 - 1
            }
        };
        for (i, t) in doc.tokens.iter().enumerate() {
            let (w, l) = (lower[i], lemma[i]);
            let matched = ids.matches(w, l);
            cache.clue.push(matched);
            cache
                .verb_clue
                .push(matched && t.pos == gced_text::Pos::Verb);
            cache
                .cov_lemma
                .push(if ids.lemmas.binary_search(&l).is_ok() {
                    dense(&mut cov_ids, l)
                } else {
                    NONE
                });
            cache.matched_lemma.push(if matched {
                dense(&mut matched_ids, l)
            } else {
                NONE
            });
            cache
                .idf_val
                .push(idf.get(w as usize).copied().unwrap_or(2.0));
        }
        cache.n_matched = matched_ids.len();
        cache.seen_stamp = vec![0; cov_ids.len().max(cache.n_matched)];
        cache.init = true;
        cache
    }

    /// (Re)build the per-token tables for one (question, document) pair
    /// from the token strings — the set-up of a cache made by
    /// [`SelectionScoreCache::new`], and the oracle of
    /// [`SelectionScoreCache::for_ids`].
    fn init(&mut self, qa: &QaModel, q: &QuestionAnalysis, doc: &Document) {
        let n = doc.len();
        self.doc_len = n;
        self.clue.clear();
        self.verb_clue.clear();
        self.cov_lemma.clear();
        self.matched_lemma.clear();
        self.idf_val.clear();
        self.runs.clear();
        self.total_content = q.content_lemmas().len();
        let mut cov_ids: HashMap<&str, u32> = HashMap::new();
        let mut matched_ids: HashMap<&str, u32> = HashMap::new();
        for t in &doc.tokens {
            let lower = t.lower_cow();
            let matched = q.matches(&lower, &t.lemma);
            self.clue.push(matched);
            self.verb_clue
                .push(matched && t.pos == gced_text::Pos::Verb);
            self.cov_lemma
                .push(if q.content_lemmas().contains(t.lemma.as_str()) {
                    let next = cov_ids.len() as u32;
                    *cov_ids.entry(t.lemma.as_str()).or_insert(next)
                } else {
                    NONE
                });
            self.matched_lemma.push(if matched {
                let next = matched_ids.len() as u32;
                *matched_ids.entry(t.lemma.as_str()).or_insert(next)
            } else {
                NONE
            });
            self.idf_val
                .push(qa.idf.get(&*lower).copied().unwrap_or(2.0));
        }
        self.n_matched = matched_ids.len();
        self.seen_stamp = vec![0; cov_ids.len().max(self.n_matched)];
        self.stamp = 0;
        self.init = true;
    }

    /// Next dedup stamp (lazy-cleared `seen` bitmap).
    fn bump_stamp(&mut self) -> u32 {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen_stamp.iter_mut().for_each(|s| *s = 0);
            self.stamp = 1;
        }
        self.stamp
    }
}

impl QaModel {
    /// [`QaModel::predict_selection`] through a span-score cache: runs
    /// unchanged since an earlier selection (same tokens, same clue
    /// layout) replay their memoized best span instead of re-scoring.
    /// Bitwise-identical output; falls back to the uncached path for
    /// noisy profiles and window-truncated views.
    pub fn predict_selection_cached(
        &self,
        q: &QuestionAnalysis,
        doc: &Document,
        selected: &[usize],
        question: &str,
        cache: &mut SelectionScoreCache,
    ) -> Prediction {
        if self.bypasses_cache(selected) {
            return self.predict_selection(q, doc, selected, question, &mut cache.fallback);
        }
        let Some(((s, e), score)) = self.best_span_of_runs(q, doc, selected, cache, true) else {
            return Prediction::none();
        };
        cache.winner_tokens.clear();
        cache
            .winner_tokens
            .extend(selected[s..e].iter().map(|&t| doc.tokens[t].clone()));
        Prediction {
            text: join_tokens(&cache.winner_tokens),
            score,
            span: Some((s, e)),
        }
    }

    /// The span of [`QaModel::predict_selection_cached`]'s prediction
    /// (view coordinates: the answer is `selected[s..e]`), without
    /// building its text — for callers that score the span themselves.
    pub fn predict_selection_span_cached(
        &self,
        q: &QuestionAnalysis,
        doc: &Document,
        selected: &[usize],
        question: &str,
        cache: &mut SelectionScoreCache,
    ) -> Option<(usize, usize)> {
        self.selection_span(q, doc, selected, question, cache, true)
    }

    /// [`QaModel::predict_selection_span_cached`] without the run memo:
    /// every run is scored afresh through the cache's id tables and
    /// scratch, and nothing is recorded. For searches whose selections
    /// rarely repeat a `(run, clue layout)` pair — the clip search —
    /// where the memo's keys and probes cost more than they save.
    pub fn predict_selection_span_fresh(
        &self,
        q: &QuestionAnalysis,
        doc: &Document,
        selected: &[usize],
        question: &str,
        cache: &mut SelectionScoreCache,
    ) -> Option<(usize, usize)> {
        self.selection_span(q, doc, selected, question, cache, false)
    }

    fn selection_span(
        &self,
        q: &QuestionAnalysis,
        doc: &Document,
        selected: &[usize],
        question: &str,
        cache: &mut SelectionScoreCache,
        memo: bool,
    ) -> Option<(usize, usize)> {
        if self.bypasses_cache(selected) {
            return self
                .predict_selection(q, doc, selected, question, &mut cache.fallback)
                .span;
        }
        self.best_span_of_runs(q, doc, selected, cache, memo)
            .map(|(span, _)| span)
    }

    /// Where the per-run factorization does not hold: score noise
    /// perturbs spans by view-global coordinates, and window truncation
    /// cuts runs mid-sentence.
    fn bypasses_cache(&self, selected: &[usize]) -> bool {
        self.profile().noise != 0.0 || selected.len() > self.profile().window
    }

    /// The prediction's span and score (`None` = abstain), through the
    /// run memo when `memo` is set.
    fn best_span_of_runs(
        &self,
        q: &QuestionAnalysis,
        doc: &Document,
        selected: &[usize],
        cache: &mut SelectionScoreCache,
        memo: bool,
    ) -> Option<((usize, usize), f64)> {
        if !cache.init {
            cache.init(self, q, doc);
        }
        debug_assert_eq!(
            cache.doc_len,
            doc.len(),
            "SelectionScoreCache is bound to one document"
        );

        // ---- segment the selection into sentence runs -------------------
        cache.run_refs.clear();
        let mut i = 0;
        while i < selected.len() {
            let sent = doc.tokens[selected[i]].sent;
            let start = i;
            while i < selected.len() && doc.tokens[selected[i]].sent == sent {
                i += 1;
            }
            cache.run_refs.push(RunRef { start, end: i });
        }

        // ---- question coverage (abstention check) -----------------------
        // Mirrors `question_coverage` on the projected view: distinct
        // matched lemmas across all runs, capped at the content total.
        let coverage = if cache.total_content == 0 {
            1.0
        } else {
            let stamp = cache.bump_stamp();
            let mut present = 0usize;
            for &t in selected {
                let id = cache.matched_lemma[t];
                if id != NONE && cache.seen_stamp[id as usize] != stamp {
                    cache.seen_stamp[id as usize] = stamp;
                    present += 1;
                }
            }
            present.min(cache.total_content) as f64 / cache.total_content as f64
        };
        if coverage < self.threshold() {
            return None;
        }

        // ---- clue layout per run (view coordinates) ---------------------
        // Forward pass tracks the nearest clue / verb-clue before each
        // run; backward pass the nearest after. Distances are run-edge
        // relative, so runs keep their layout when far-away parts of the
        // selection change.
        let n_runs = cache.run_refs.len();
        cache.ctxs.clear();
        cache.ctxs.resize(
            n_runs,
            CrossCtx {
                gb: NONE,
                ga: NONE,
                vb: NONE,
                va: NONE,
            },
        );
        let mut last_clue: Option<usize> = None;
        let mut last_verb: Option<usize> = None;
        for r in 0..n_runs {
            let RunRef { start, end } = cache.run_refs[r];
            cache.ctxs[r].gb = last_clue.map_or(NONE, |p| (start - p) as u32);
            cache.ctxs[r].vb = last_verb.map_or(NONE, |p| (start - p) as u32);
            for (v, &t) in selected.iter().enumerate().take(end).skip(start) {
                if cache.clue[t] {
                    last_clue = Some(v);
                    if cache.verb_clue[t] {
                        last_verb = Some(v);
                    }
                }
            }
        }
        let mut next_clue: Option<usize> = None;
        let mut next_verb: Option<usize> = None;
        for r in (0..n_runs).rev() {
            let RunRef { start, end } = cache.run_refs[r];
            cache.ctxs[r].ga = next_clue.map_or(NONE, |p| (p + 1 - end) as u32);
            cache.ctxs[r].va = next_verb.map_or(NONE, |p| (p + 1 - end) as u32);
            for v in (start..end).rev() {
                let t = selected[v];
                if cache.clue[t] {
                    if next_clue.is_none_or(|p| v < p) {
                        next_clue = Some(v);
                    }
                    if cache.verb_clue[t] && next_verb.is_none_or(|p| v < p) {
                        next_verb = Some(v);
                    }
                }
            }
        }

        // ---- per-run best spans -----------------------------------------
        cache.bests.clear();
        for r in 0..n_runs {
            let RunRef { start, end } = cache.run_refs[r];
            let run = &selected[start..end];
            let ctx = cache.ctxs[r];
            let best = if memo {
                cache.key_buf.clear();
                cache.key_buf.extend(run.iter().map(|&t| t as u32));
                if !cache.runs.contains_key(cache.key_buf.as_slice()) {
                    let entry = RunEntry {
                        coverage: cache.run_coverage(run),
                        by_ctx: Vec::new(),
                    };
                    cache.runs.insert(cache.key_buf.as_slice().into(), entry);
                }
                let entry = cache
                    .runs
                    .get_mut(cache.key_buf.as_slice())
                    .expect("run entry just ensured");
                if let Some(&(_, b)) = entry.by_ctx.iter().find(|(c, _)| *c == ctx) {
                    cache.run_hits += 1;
                    b
                } else {
                    cache.run_misses += 1;
                    let _span = gced_obs::span("qa.predict");
                    let b = score_run(
                        self,
                        q,
                        doc,
                        run,
                        entry.coverage,
                        &cache.clue,
                        &cache.verb_clue,
                        &cache.idf_val,
                        ctx,
                        &mut cache.tables,
                    );
                    entry.by_ctx.push((ctx, b));
                    b
                }
            } else {
                let coverage = cache.run_coverage(run);
                let _span = gced_obs::span("qa.predict");
                score_run(
                    self,
                    q,
                    doc,
                    run,
                    coverage,
                    &cache.clue,
                    &cache.verb_clue,
                    &cache.idf_val,
                    ctx,
                    &mut cache.tables,
                )
            };
            cache.bests.push(best);
        }

        // ---- global argmax (first strict max, in view order) ------------
        let mut best: Option<(usize, (u32, u32), f64)> = None;
        for (r, rb) in cache.bests.iter().enumerate() {
            let Some(rel) = rb.rel else { continue };
            match best {
                Some((_, _, b)) if b >= rb.score => {}
                _ => best = Some((r, rel, rb.score)),
            }
        }
        let (r, (rs, re), score) = best?;
        let run_start = cache.run_refs[r].start;
        Some(((run_start + rs as usize, run_start + re as usize), score))
    }
}

impl SelectionScoreCache {
    /// Sentence clue coverage (feature f1) of one run — mirrors
    /// `sentence_clue_coverage` on the view sentence: distinct content
    /// lemmas present over the content total.
    fn run_coverage(&mut self, run: &[usize]) -> f64 {
        if self.total_content == 0 {
            return 0.0;
        }
        let stamp = self.bump_stamp();
        let mut present = 0usize;
        for &t in run {
            let cid = self.cov_lemma[t];
            if cid != NONE && self.seen_stamp[cid as usize] != stamp {
                self.seen_stamp[cid as usize] = stamp;
                present += 1;
            }
        }
        present as f64 / self.total_content as f64
    }
}

impl RunTables {
    /// Rebuild the slots for `run`: prefix counts and previous clues
    /// forward, next clues backward.
    fn fill(&mut self, doc: &Document, run: &[usize], clue: &[bool], verb_clue: &[bool]) {
        let n = run.len();
        self.slots.clear();
        self.slots.resize(n + 1, RunSlot::default());
        let mut acc = RunSlot {
            prev_clue: NONE,
            prev_verb: NONE,
            ..RunSlot::default()
        };
        for (j, &t) in run.iter().enumerate() {
            let pos = doc.tokens[t].pos;
            self.slots[j] = RunSlot {
                boundary: span_boundary(&pos),
                ..acc
            };
            acc.clues += clue[t] as u32;
            acc.proper += (pos == Pos::ProperNoun) as u32;
            acc.nums += (pos == Pos::Num) as u32;
            acc.nouns += matches!(pos, Pos::Noun | Pos::ProperNoun) as u32;
            if clue[t] {
                acc.prev_clue = j as u32;
                if verb_clue[t] {
                    acc.prev_verb = j as u32;
                }
            }
        }
        self.slots[n] = acc;
        let (mut next_clue, mut next_verb) = (NONE, NONE);
        for (j, slot) in self.slots.iter_mut().enumerate().rev() {
            if j < n && clue[run[j]] {
                next_clue = j as u32;
                if verb_clue[run[j]] {
                    next_verb = j as u32;
                }
            }
            slot.next_clue = next_clue;
            slot.next_verb = next_verb;
        }
    }
}

/// Distance from span start `rs` back to the in-run clue at `p`
/// (`NONE` = no clue).
fn dist_before(rs: usize, p: u32) -> Option<usize> {
    (p != NONE).then(|| rs - p as usize)
}

/// Distance from span end `re` on to the in-run clue at `p` (`NONE` =
/// no clue).
fn dist_after(re: usize, p: u32) -> Option<usize> {
    (p != NONE).then(|| p as usize + 1 - re)
}

/// The view distance across a run edge: `inner` tokens from the span to
/// the run edge plus the layout distance `outer` from the edge to the
/// clue (`NONE` = no clue on that side).
fn dist_across(inner: usize, outer: u32) -> Option<usize> {
    (outer != NONE).then(|| inner + outer as usize)
}

/// Score every candidate span of one run under one clue layout,
/// returning the first strict maximum — mirrored arithmetic of
/// `base_features_with_coverage` + `score_span` on the projected view.
///
/// One pass fills the run's tables; each span's features are then
/// O(1) table reads (f6's mean IDF a running in-order sum per span
/// start), and spans fold eight at a time, scanned in `(rs, re)` order.
#[allow(clippy::too_many_arguments)]
fn score_run(
    qa: &QaModel,
    q: &QuestionAnalysis,
    doc: &Document,
    run: &[usize],
    coverage: f64,
    clue: &[bool],
    verb_clue: &[bool],
    idf_val: &[f64],
    ctx: CrossCtx,
    t: &mut RunTables,
) -> RunBest {
    let n = run.len();
    t.fill(doc, run, clue, verb_clue);
    let weights = qa.weights();
    let off = wh_block(q.wh) * N_BASE;
    let (w_base, w_wh) = (&weights[..N_BASE], &weights[off..off + N_BASE]);
    // The start value of `Iterator::sum` over f64, which f6 mirrors.
    let zero: f64 = std::iter::empty::<f64>().sum();
    let mut best: Option<((u32, u32), f64)> = None;
    let mut pending = 0usize;
    let flush = |t: &mut RunTables, pending: usize, best: &mut Option<((u32, u32), f64)>| {
        let scores = fold_dot_f64_lanes(
            fold_dot_f64_lanes([0.0; F64_LANES], &t.feats, w_base),
            &t.feats,
            w_wh,
        );
        for (&span, &score) in t.spans.iter().zip(&scores).take(pending) {
            match best {
                Some((_, b)) if *b >= score => {}
                _ => *best = Some((span, score)),
            }
        }
    };
    for rs in 0..n {
        if !t.slots[rs].boundary {
            continue;
        }
        let hi = (rs + MAX_SPAN).min(n);
        let mut idf_sum = zero;
        for re in (rs + 1)..=hi {
            idf_sum += idf_val[run[re - 1]];
            if !t.slots[re - 1].boundary {
                continue;
            }
            span_features(q, t, n, coverage, ctx, rs, re, idf_sum, pending);
            t.spans[pending] = (rs as u32, re as u32);
            pending += 1;
            if pending == F64_LANES {
                flush(t, pending, &mut best);
                pending = 0;
            }
        }
    }
    if pending > 0 {
        flush(t, pending, &mut best);
    }
    match best {
        Some((rel, score)) => RunBest {
            rel: Some(rel),
            score,
        },
        None => RunBest {
            rel: None,
            score: f64::NEG_INFINITY,
        },
    }
}

/// Write span `[rs, re)`'s fourteen features into lane `lane`. Every
/// value is produced by the same floating-point expression as the
/// view-global path from the same integers, so the fold gives the same
/// bits; `idf_sum` is the in-order IDF sum over the span.
#[allow(clippy::too_many_arguments)]
fn span_features(
    q: &QuestionAnalysis,
    t: &mut RunTables,
    n: usize,
    coverage: f64,
    ctx: CrossCtx,
    rs: usize,
    re: usize,
    idf_sum: f64,
    lane: usize,
) {
    let len = re - rs;
    let (s, e) = (t.slots[rs], t.slots[re]);
    // Nearest clue / verb clue on each side: in-run from the tables,
    // cross-run through the run edge.
    let clue_before = dist_before(rs, s.prev_clue);
    let clue_after = dist_after(re, e.next_clue);
    let cross_before = dist_across(rs, ctx.gb);
    let cross_after = dist_across(n - re, ctx.ga);
    let within3 =
        |a: Option<usize>, b: Option<usize>| a.is_some_and(|d| d <= 3) || b.is_some_and(|d| d <= 3);
    // f2: in-run clues share the view sentence (no penalty); cross-run
    // clues carry the +6 penalty.
    let nearest = [
        clue_before,
        clue_after,
        cross_before.map(|d| d + 6),
        cross_after.map(|d| d + 6),
    ]
    .into_iter()
    .flatten()
    .min();
    let (proper, nums) = (e.proper - s.proper, e.nums - s.nums);
    let f = &mut t.feats;
    f[0][lane] = 1.0;
    f[1][lane] = coverage;
    f[2][lane] = match nearest {
        Some(d) => 1.0 / (1.0 + d as f64),
        None => 0.0,
    };
    // f3: answer-type match.
    let has = |c: u32| if c > 0 { 1.0 } else { 0.0 };
    f[3][lane] = match q.wh {
        crate::WhType::Person | crate::WhType::Place => has(proper),
        crate::WhType::Number => has(nums),
        crate::WhType::Entity => has(e.nouns - s.nouns),
        crate::WhType::Unknown => 0.5,
    };
    f[4][lane] = (len as f64 - 2.0).abs() / 4.0;
    // f5: question overlap — the clue predicate restricted to the span.
    f[5][lane] = (e.clues - s.clues) as f64 / len as f64;
    // f6: mean IDF.
    f[6][lane] = idf_sum / len as f64 / 10.0;
    f[7][lane] = proper as f64 / len as f64;
    f[8][lane] = nums as f64 / len as f64;
    // f9/f10: any clue within 3 tokens before/after the span (raw view
    // distance, no sentence penalty) — the nearest decides.
    f[9][lane] = within3(clue_before, cross_before) as u8 as f64;
    f[10][lane] = within3(clue_after, cross_after) as u8 as f64;
    f[11][lane] = (rs == 0) as u8 as f64;
    // f12/f13: direction-aware verb-clue adjacency.
    let verb_after = within3(dist_after(re, e.next_verb), dist_across(n - re, ctx.va));
    let verb_before = within3(dist_before(rs, s.prev_verb), dist_across(rs, ctx.vb));
    f[12][lane] = (q.wh_subject && verb_after) as u8 as f64;
    f[13][lane] = (!q.wh_subject && verb_before) as u8 as f64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelProfile, QaModel};
    use gced_text::analyze;
    use std::collections::HashMap;

    fn trained(kind: gced_datasets::DatasetKind, seed: u64) -> QaModel {
        let ds = gced_datasets::generate(
            kind,
            gced_datasets::GeneratorConfig {
                train: 120,
                dev: 20,
                seed,
            },
        );
        let mut qa = QaModel::new(ModelProfile::plm());
        qa.train(&ds.train.examples);
        qa
    }

    /// Deterministic selection sampler.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }
    }

    fn assert_bitwise_equal(
        qa: &QaModel,
        q: &QuestionAnalysis,
        doc: &Document,
        question: &str,
        selections: &[Vec<usize>],
    ) {
        let mut cache = SelectionScoreCache::new();
        let mut scratch = SelectionScratch::default();
        for sel in selections {
            let plain = qa.predict_selection(q, doc, sel, question, &mut scratch);
            let cached = qa.predict_selection_cached(q, doc, sel, question, &mut cache);
            assert_eq!(plain.text, cached.text, "selection {sel:?}");
            assert_eq!(
                plain.score.to_bits(),
                cached.score.to_bits(),
                "selection {sel:?}: {} vs {}",
                plain.score,
                cached.score
            );
            assert_eq!(plain.span, cached.span, "selection {sel:?}");
        }
    }

    #[test]
    fn cached_matches_plain_on_random_selections() {
        let qa = trained(gced_datasets::DatasetKind::Squad11, 11);
        let question = "Which team defeated the Panthers?";
        let q = QuestionAnalysis::new(question);
        let doc = analyze(
            "The weather was mild that week in the city. The Denver Broncos defeated the \
             Carolina Panthers to earn the title. Tickets sold out early in the morning. \
             The parade lasted two days and the fans celebrated.",
        );
        let n = doc.len();
        let mut rng = Lcg(42);
        let mut selections: Vec<Vec<usize>> = vec![(0..n).collect(), vec![0], vec![n - 1]];
        for _ in 0..40 {
            let sel: Vec<usize> = (0..n).filter(|_| !rng.next().is_multiple_of(3)).collect();
            if !sel.is_empty() {
                selections.push(sel);
            }
        }
        // Whole-sentence subsets (the grow search's trial shapes).
        for mask in 1..16usize {
            let sel: Vec<usize> = doc
                .sentences
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .flat_map(|(_, s)| s.token_start..s.token_end)
                .collect();
            selections.push(sel);
        }
        assert_bitwise_equal(&qa, &q, &doc, question, &selections);
    }

    /// Selections of one, two or three neighbouring sentences: every
    /// window inside one sentence, every window of one joined to every
    /// window of the next, and every suffix of one joined to every
    /// prefix of the one after next with the middle sentence whole. Runs
    /// then start and end at every offset, so clues sit at run edges and
    /// cross-run distances take every small value.
    fn edge_selections(doc: &Document) -> Vec<Vec<usize>> {
        let sents: Vec<std::ops::Range<usize>> = doc
            .sentences
            .iter()
            .map(|s| s.token_start..s.token_end)
            .collect();
        let mut out = Vec::new();
        for s in &sents {
            for a in s.clone() {
                for b in a + 1..=s.end {
                    out.push((a..b).collect());
                }
            }
        }
        for w in sents.windows(2) {
            for a in w[0].clone() {
                for b in a + 1..=w[0].end {
                    for c in w[1].clone() {
                        for d in c + 1..=w[1].end {
                            out.push((a..b).chain(c..d).collect());
                        }
                    }
                }
            }
        }
        for w in sents.windows(3) {
            for a in w[0].clone() {
                for b in w[2].start + 1..=w[2].end {
                    out.push(
                        (a..w[0].end)
                            .chain(w[1].clone())
                            .chain(w[2].start..b)
                            .collect(),
                    );
                }
            }
        }
        out
    }

    #[test]
    fn span_features_match_plain_at_run_edges_and_cross_run_distances() {
        let qa = trained(gced_datasets::DatasetKind::Squad11, 11);
        // Adjacent clues, clues and verb clues at both ends of a
        // sentence, a sentence shorter than MAX_SPAN, and numbers and
        // proper nouns for the answer-type features.
        let doc = analyze(
            "Panthers Panthers defeated the team. The Denver Broncos defeated the Carolina \
             Panthers in Santa Clara by 24 points. Team defeated. Later that cold night the \
             Broncos defeated them in the final. Fans cheered the team loudly in 2016.",
        );
        assert!(doc.sentences[2].token_end - doc.sentences[2].token_start < MAX_SPAN);
        let selections = edge_selections(&doc);
        for (k, question) in [
            "Which team defeated the Panthers?",
            "Who did the Broncos defeat in the final?",
            "How many points did the team score?",
            "Where did the fans cheer?",
        ]
        .into_iter()
        .enumerate()
        {
            let q = QuestionAnalysis::new(question);
            let mut memo = SelectionScoreCache::new();
            let mut fresh = SelectionScoreCache::new();
            let mut scratch = SelectionScratch::default();
            let mut seen: [std::collections::BTreeSet<u32>; 4] = Default::default();
            for sel in &selections {
                let plain = qa.predict_selection(&q, &doc, sel, question, &mut scratch);
                let cached = qa.predict_selection_cached(&q, &doc, sel, question, &mut memo);
                assert_eq!(plain.span, cached.span, "{question:?} {sel:?}");
                assert_eq!(
                    plain.score.to_bits(),
                    cached.score.to_bits(),
                    "{question:?} {sel:?}"
                );
                assert_eq!(plain.text, cached.text);
                let span = qa.predict_selection_span_fresh(&q, &doc, sel, question, &mut fresh);
                assert_eq!(plain.span, span, "fresh {question:?} {sel:?}");
                for c in &fresh.ctxs {
                    for (set, d) in seen.iter_mut().zip([c.gb, c.ga, c.vb, c.va]) {
                        set.insert(d);
                    }
                }
            }
            assert_eq!(
                fresh.run_hits + fresh.run_misses,
                0,
                "the fresh path memoized"
            );
            // Distances 1, 3 and 4 straddle the ≤ 3 threshold of f9,
            // f10, f12 and f13 on both sides, for clues and verb clues,
            // under a subject and an object question.
            if k >= 2 {
                continue;
            }
            for (side, set) in ["gb", "ga", "vb", "va"].iter().zip(&seen) {
                for d in [1, 3, 4] {
                    assert!(set.contains(&d), "{question:?}: {side} never {d}");
                }
            }
        }
    }

    #[test]
    fn cached_matches_plain_with_learned_threshold() {
        // SQuAD-2.0 training calibrates a finite no-answer threshold, so
        // the abstention branch is exercised through the cached coverage.
        let qa = trained(gced_datasets::DatasetKind::Squad20, 7);
        assert!(qa.learned_threshold().is_some());
        let question = "Who discovered the comet?";
        let q = QuestionAnalysis::new(question);
        let doc = analyze(
            "The committee approved the budget. The bridge opened in spring. \
             A famous astronomer discovered the comet in 1786.",
        );
        let n = doc.len();
        let mut rng = Lcg(9);
        let mut selections: Vec<Vec<usize>> = vec![(0..n).collect()];
        for _ in 0..30 {
            let sel: Vec<usize> = (0..n).filter(|_| rng.next().is_multiple_of(2)).collect();
            if !sel.is_empty() {
                selections.push(sel);
            }
        }
        assert_bitwise_equal(&qa, &q, &doc, question, &selections);
    }

    /// Interns words in first-seen order (the pipeline's table interns
    /// in sorted order; any injective numbering must give equal tables).
    fn intern(ids: &mut HashMap<String, u32>, words: &mut Vec<String>, w: &str) -> u32 {
        if let Some(&id) = ids.get(w) {
            return id;
        }
        let id = words.len() as u32;
        ids.insert(w.to_string(), id);
        words.push(w.to_string());
        id
    }

    fn intern_doc(
        ids: &mut HashMap<String, u32>,
        words: &mut Vec<String>,
        doc: &Document,
    ) -> (Vec<u32>, Vec<u32>) {
        doc.tokens
            .iter()
            .map(|t| (intern(ids, words, &t.lower()), intern(ids, words, &t.lemma)))
            .unzip()
    }

    #[test]
    fn id_tables_and_predictions_equal_the_string_ones() {
        let qa = trained(gced_datasets::DatasetKind::Squad11, 11);
        let cases = [
            (
                "Which team defeated the Panthers?",
                "The Denver Broncos defeated the Carolina Panthers. Defeats defeat DEFEATED teams. \
                 The team's coach didn't agree.",
            ),
            (
                "Who visited Zanzibar and the \u{212a}elvin lab?",
                "Zanzibar ZANZIBAR zanzibar was visited. The kelvin \u{212a}elvin KELVIN lab. \
                 İstanbul i̇stanbul ſun sun. Qwxyz visited qwxyz.",
            ),
            ("?", "Nothing matches here at all."),
            ("Where is the xyzzy plugh?", "The plugh is in the xyzzy. Xyzzy plugh xyzzy."),
        ];
        let mut rng = Lcg(77);
        for (question, context) in cases {
            let mut ids = HashMap::new();
            let mut words = Vec::new();
            let qdoc = analyze(question);
            let doc = analyze(context);
            let (ql, qm) = intern_doc(&mut ids, &mut words, &qdoc);
            let (dl, dm) = intern_doc(&mut ids, &mut words, &doc);
            let q = QuestionAnalysis::from_doc_ids(&qdoc, &ql, &qm);
            // IDF by id; trailing ids without an IDF stay past the end.
            let mut idf: Vec<f64> = words
                .iter()
                .map(|w| qa.idf.get(w).copied().unwrap_or(2.0))
                .collect();
            while words.len() > 1 && idf.len() > 1 && !qa.idf.contains_key(&words[idf.len() - 1]) {
                idf.pop();
            }
            let mut by_str = SelectionScoreCache::new();
            by_str.init(&qa, &q, &doc);
            let mut by_id = SelectionScoreCache::for_ids(&q, &doc, &dl, &dm, &idf);
            assert_eq!(by_id.clue, by_str.clue, "{context:?}");
            assert_eq!(by_id.verb_clue, by_str.verb_clue);
            assert_eq!(by_id.cov_lemma, by_str.cov_lemma);
            assert_eq!(by_id.matched_lemma, by_str.matched_lemma);
            assert_eq!(by_id.n_matched, by_str.n_matched);
            assert_eq!(by_id.total_content, by_str.total_content);
            assert_eq!(by_id.seen_stamp.len(), by_str.seen_stamp.len());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&by_id.idf_val), bits(&by_str.idf_val));
            let n = doc.len();
            let mut selections: Vec<Vec<usize>> = vec![(0..n).collect()];
            for _ in 0..20 {
                selections.push((0..n).filter(|_| !rng.next().is_multiple_of(3)).collect());
            }
            for sel in &selections {
                let a = qa.predict_selection_cached(&q, &doc, sel, question, &mut by_str);
                let b = qa.predict_selection_cached(&q, &doc, sel, question, &mut by_id);
                assert_eq!(a.text, b.text, "{sel:?}");
                assert_eq!(a.score.to_bits(), b.score.to_bits());
                assert_eq!(a.span, b.span);
                let span = qa.predict_selection_span_cached(&q, &doc, sel, question, &mut by_id);
                assert_eq!(span, a.span);
            }
        }
    }

    #[test]
    fn repeated_selections_hit_the_cache() {
        let qa = trained(gced_datasets::DatasetKind::Squad11, 3);
        let question = "Which team won the title?";
        let q = QuestionAnalysis::new(question);
        let doc = analyze("The Broncos won the title. The band played all night.");
        let sel: Vec<usize> = (0..doc.len()).collect();
        let mut cache = SelectionScoreCache::new();
        let a = qa.predict_selection_cached(&q, &doc, &sel, question, &mut cache);
        let misses = cache.run_misses;
        assert!(misses > 0);
        let b = qa.predict_selection_cached(&q, &doc, &sel, question, &mut cache);
        assert_eq!(cache.run_misses, misses, "second pass re-scored runs");
        assert!(cache.run_hits > 0);
        assert_eq!(a.text, b.text);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
    }

    #[test]
    fn noisy_profiles_fall_back_to_the_plain_path() {
        let mut profile = ModelProfile::plm();
        profile.noise = 1.5;
        profile.seed = 4;
        let qa = QaModel::new(profile);
        let question = "Who won?";
        let q = QuestionAnalysis::new(question);
        let doc = analyze("The Broncos won the final game in Denver.");
        let sel: Vec<usize> = (0..doc.len()).collect();
        let mut cache = SelectionScoreCache::new();
        let mut scratch = SelectionScratch::default();
        let plain = qa.predict_selection(&q, &doc, &sel, question, &mut scratch);
        let cached = qa.predict_selection_cached(&q, &doc, &sel, question, &mut cache);
        assert_eq!(plain, cached);
        assert_eq!(
            cache.run_misses + cache.run_hits,
            0,
            "cache must be bypassed"
        );
    }

    #[test]
    fn empty_selection_abstains() {
        let qa = trained(gced_datasets::DatasetKind::Squad11, 3);
        let question = "Who won?";
        let q = QuestionAnalysis::new(question);
        let doc = analyze("The Broncos won.");
        let mut cache = SelectionScoreCache::new();
        let p = qa.predict_selection_cached(&q, &doc, &[], question, &mut cache);
        assert!(p.text.is_empty());
        assert!(p.span.is_none());
    }
}
