//! Weighted Syntactic Parsing Tree Constructor (paper Sec. III-D).
//!
//! Parses the answer-oriented sentences with the L-PCFG CKY parser into a
//! head-lexicalized dependency tree whose nodes are token indices, then
//! annotates every (child → parent) edge with a multi-head attention
//! weight (Eqs. 6–8). Higher weight = stronger dependence between the
//! node and its parent — the quantity both SGS (max) and the SCS
//! tie-break (min) consult.
//!
//! The search reads few weights: SGS those of the forest roots on their
//! way up to a common ancestor, SCS only on exact score ties. So the
//! weights are computed on first read: a [`WeightedTree`] keeps what
//! embeds the AOS, and a read computes the head-averaged attention rows
//! of the edge's two endpoints in one gathered pass
//! ([`MultiHeadAttention::attention_rows`]), memoized per row. A row is
//! bitwise the full attention matrix's row whichever rows share its
//! pass, so every weight equals the all-rows one; a distill that reads
//! no weight never embeds.

use crate::ids::IdTable;
use gced_nn::{EmbeddingTable, Matrix, MultiHeadAttention};
use gced_parser::{CkyParser, DepTree};
use gced_text::Document;

/// A dependency tree with per-edge attention weights, computed on first
/// read.
pub struct WeightedTree<'a> {
    /// The tree over local token indices of the AOS document.
    pub tree: DepTree,
    weights: EdgeWeights<'a>,
}

/// Where a [`WeightedTree`]'s edge weights come from.
enum EdgeWeights<'a> {
    /// Fixed up front (hand-built trees).
    Given(Vec<f64>),
    /// Attention rows of the AOS embedding, computed on demand.
    Attention(AttentionRows<'a>),
}

/// What embeds an AOS document into the attention layer's input `X`.
struct Encoder<'a> {
    mha: &'a MultiHeadAttention,
    emb: &'a EmbeddingTable,
    aos: &'a Document,
    /// The id table and the lowercased-form ids of `aos`; `None`
    /// embeds the lowercased token strings (the reference form).
    ids: Option<(&'a IdTable, &'a [u32])>,
}

impl Encoder<'_> {
    fn embed(&self) -> Matrix {
        match self.ids {
            Some((table, ids)) => embed_with_ids(self.mha, self.emb, table, self.aos, ids),
            None => {
                let words: Vec<String> = self.aos.tokens.iter().map(|t| t.lower()).collect();
                self.mha.embed_sequence(&words, self.emb)
            }
        }
    }
}

/// Head-averaged attention rows of one AOS, memoized per row.
struct AttentionRows<'a> {
    encoder: Encoder<'a>,
    /// The embedding `X`, built by the first row pass.
    x: Option<Matrix>,
    /// token -> offset of its attention row in `rows`, once computed
    /// (empty until the first pass).
    row_at: Vec<Option<usize>>,
    /// The computed rows, `n` floats each, in order of computation.
    rows: Vec<f32>,
    /// Rows requested by the pending pass.
    want: Vec<usize>,
}

impl AttentionRows<'_> {
    /// Queue `r` for the next pass unless it is computed.
    fn request(&mut self, r: usize) {
        if self.row_at.get(r).is_none_or(Option::is_none) {
            self.want.push(r);
        }
    }

    /// Compute every queued row in one gathered pass.
    fn run_pass(&mut self) {
        self.want.sort_unstable();
        self.want.dedup();
        if self.want.is_empty() {
            return;
        }
        let _span = gced_obs::span("wsptc.attn");
        gced_obs::counter("attn_rows", self.want.len() as u64);
        let encoder = &self.encoder;
        let x = self.x.get_or_insert_with(|| encoder.embed());
        let n = x.rows();
        self.row_at.resize(n, None);
        let at = self.rows.len();
        self.rows.resize(at + self.want.len() * n, 0.0);
        encoder
            .mha
            .attention_rows(x, &self.want, &mut self.rows[at..]);
        for (k, &r) in self.want.iter().enumerate() {
            self.row_at[r] = Some(at + k * n);
        }
        self.want.clear();
    }

    /// `A[r][c]`; row `r` must be computed.
    fn entry(&self, r: usize, c: usize) -> f32 {
        let at = self.row_at[r].expect("attention row computed before it is read");
        self.rows[at + c]
    }
}

impl<'a> WeightedTree<'a> {
    /// A tree with fixed edge weights: `weights[i]` is node `i`'s.
    pub fn with_weights(tree: DepTree, weights: Vec<f64>) -> Self {
        assert_eq!(weights.len(), tree.len(), "one weight per node");
        WeightedTree {
            tree,
            weights: EdgeWeights::Given(weights),
        }
    }

    /// Attention weight between node `i` and its parent (0.0 for the
    /// root), computing the rows it reads on first use.
    pub fn edge_weight(&mut self, i: usize) -> f64 {
        let p = self.tree.parent(i);
        match &mut self.weights {
            EdgeWeights::Given(w) => w[i],
            EdgeWeights::Attention(a) => {
                let Some(p) = p else { return 0.0 };
                a.request(i);
                a.request(p);
                a.run_pass();
                // Symmetrized attention between the two endpoints: the
                // paper reads "attention from a node to its child node";
                // averaging both directions keeps the weight insensitive
                // to row-normalization artifacts.
                0.5 * (a.entry(p, i) + a.entry(i, p)) as f64
            }
        }
    }

    /// Compute, in one pass, every row the weights of `nodes` read.
    pub(crate) fn prefetch(&mut self, nodes: impl IntoIterator<Item = usize>) {
        let EdgeWeights::Attention(a) = &mut self.weights else {
            return;
        };
        for i in nodes {
            if let Some(p) = self.tree.parent(i) {
                a.request(i);
                a.request(p);
            }
        }
        a.run_pass();
    }
}

/// Build the weighted tree for an analysed AOS document, embedding its
/// tokens by their lowercased surface strings (the reference form of
/// [`construct_with_ids`]), with every weight computed up front.
pub fn construct<'a>(
    parser: &CkyParser,
    mha: &'a MultiHeadAttention,
    emb: &'a EmbeddingTable,
    aos: &'a Document,
) -> WeightedTree<'a> {
    let mut wt = parse_tree(
        parser,
        Encoder {
            mha,
            emb,
            aos,
            ids: None,
        },
    );
    wt.prefetch(0..aos.len());
    wt
}

/// [`construct`] with the tokens embedded by interned id (`ids` are the
/// lowercased-form ids of `aos` over `table`): words with a refined row
/// copy it, the rest hash-embed, and repeated words copy their first
/// occurrence's row. Weights are computed when first read, bitwise equal
/// to [`construct`]'s.
pub fn construct_with_ids<'a>(
    parser: &CkyParser,
    mha: &'a MultiHeadAttention,
    emb: &'a EmbeddingTable,
    table: &'a IdTable,
    aos: &'a Document,
    ids: &'a [u32],
) -> WeightedTree<'a> {
    parse_tree(
        parser,
        Encoder {
            mha,
            emb,
            aos,
            ids: Some((table, ids)),
        },
    )
}

/// The embedding matrix of `aos` by interned id: bitwise
/// `mha.embed_sequence` of the lowercased tokens.
fn embed_with_ids(
    mha: &MultiHeadAttention,
    emb: &EmbeddingTable,
    table: &IdTable,
    aos: &Document,
    ids: &[u32],
) -> Matrix {
    mha.embed_rows(aos.len(), |x| {
        // Positions grouped by id; each group embeds once.
        let mut order: Vec<(u32, u32)> = ids
            .iter()
            .enumerate()
            .map(|(i, &w)| (w, i as u32))
            .collect();
        order.sort_unstable();
        for group in order.chunk_by(|a, b| a.0 == b.0) {
            let (w, first) = (group[0].0, group[0].1 as usize);
            let row = x.row_mut(first);
            match table.emb_row(w) {
                Some(r) => emb.embed_row_into(r, row),
                None => emb.embed_into(&aos.tokens[first].lower_cow(), row),
            }
            for &(_, i) in &group[1..] {
                x.copy_row(first, i as usize);
            }
        }
    })
}

/// Parse the encoder's AOS; no weight is computed yet.
fn parse_tree<'a>(parser: &CkyParser, encoder: Encoder<'a>) -> WeightedTree<'a> {
    let tree = gced_parser::parse_document_with(encoder.aos, parser);
    WeightedTree {
        tree,
        weights: EdgeWeights::Attention(AttentionRows {
            encoder,
            x: None,
            row_at: Vec::new(),
            rows: Vec::new(),
            want: Vec::new(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gced_nn::AttentionConfig;
    use gced_text::analyze;

    fn substrate() -> (CkyParser, MultiHeadAttention, EmbeddingTable) {
        let cfg = AttentionConfig {
            d_model: 32,
            heads: 4,
            d_k: 16,
            seed: 7,
            positional_weight: 0.35,
        };
        (
            CkyParser::embedded(),
            MultiHeadAttention::new(cfg),
            EmbeddingTable::new(32, 7),
        )
    }

    fn weights(wt: &mut WeightedTree<'_>) -> Vec<u64> {
        (0..wt.tree.len())
            .map(|i| wt.edge_weight(i).to_bits())
            .collect()
    }

    #[test]
    fn weights_cover_all_non_root_nodes() {
        let (parser, mha, emb) = substrate();
        let aos = analyze("The Broncos defeated the Panthers to earn the title.");
        let mut wt = construct(&parser, &mha, &emb, &aos);
        wt.tree.validate().unwrap();
        assert_eq!(wt.tree.len(), aos.len());
        for i in 0..aos.len() {
            if i == wt.tree.root() {
                assert_eq!(wt.edge_weight(i), 0.0);
            } else {
                assert!(wt.edge_weight(i) > 0.0, "node {i} weightless");
                assert!(wt.edge_weight(i) <= 1.0);
            }
        }
    }

    #[test]
    fn construction_is_deterministic() {
        let (parser, mha, emb) = substrate();
        let aos = analyze("The duke led troops in the battle.");
        let mut a = construct(&parser, &mha, &emb, &aos);
        let mut b = construct(&parser, &mha, &emb, &aos);
        assert_eq!(a.tree, b.tree);
        assert_eq!(weights(&mut a), weights(&mut b));
    }

    /// Refined rows for some words (one of them only in a sentence of
    /// its own, so its row is the unnormalized hash base), lexicon words
    /// outside the LM vocabulary, OOV and case-folding cases.
    fn fitted_substrate() -> (MultiHeadAttention, EmbeddingTable, IdTable) {
        let mha = MultiHeadAttention::new(AttentionConfig {
            d_model: 16,
            heads: 2,
            d_k: 8,
            seed: 3,
            positional_weight: 0.35,
        });
        let corpus: Vec<Vec<String>> = [
            "the broncos defeated the panthers in denver",
            "kelvin",
            "the team won the title",
        ]
        .iter()
        .map(|s| s.split(' ').map(String::from).collect())
        .collect();
        let mut emb = EmbeddingTable::new(16, 5);
        emb.fit(&corpus, 2, 2, 0.25);
        let lm = gced_lm::TrigramLm::train(&corpus[2..]);
        let qa = gced_qa::QaModel::new(gced_qa::ModelProfile::plm());
        let table = IdTable::build(&qa, &lm, &emb, &gced_lexicon::Lexicon::embedded());
        (mha, emb, table)
    }

    const TEXTS: [&str; 6] = [
        "The Broncos won the title. The team celebrated the win in Denver.",
        "The Broncos defeated THE Panthers in Denver. The team won the title.",
        "\u{212a}elvin KELVIN kelvin \u{212a}ELVIN. İstanbul i̇stanbul ſun SUN sun.",
        "Zanzibar zanzibar ZANZIBAR qwxyz. Didn't the team win? It didn't.",
        "ΟΔΟΣ ΟΔΟΣ οδος Straße STRASSE café CAFÉ naïve. Champion football violin.",
        "x",
    ];

    #[test]
    fn on_demand_weights_equal_the_full_matrix_and_the_all_rows_tree() {
        let (parser, _, _) = substrate();
        let (mha, emb, table) = fitted_substrate();
        for text in TEXTS {
            let aos = analyze(text);
            let mut ids = table.request();
            let aos_ids = ids.intern(&aos);
            let words: Vec<String> = aos.tokens.iter().map(|t| t.lower()).collect();
            let attn = mha.attend_words(&words, &emb);
            let mut all_rows = construct(&parser, &mha, &emb, &aos);
            let mut lazy = construct_with_ids(&parser, &mha, &emb, &table, &aos, &aos_ids.lower);
            assert_eq!(lazy.tree, all_rows.tree);
            // Read from the last node down, so passes compute a few rows
            // at a time and later reads mix computed and fresh rows.
            for i in (0..aos.len()).rev() {
                let want = match lazy.tree.parent(i) {
                    Some(p) => 0.5 * (attn.get(p, i) + attn.get(i, p)) as f64,
                    None => 0.0,
                };
                let got = lazy.edge_weight(i);
                assert_eq!(got.to_bits(), want.to_bits(), "{text:?} node {i}");
                assert_eq!(got.to_bits(), all_rows.edge_weight(i).to_bits(), "{text:?}");
                assert_eq!(got.to_bits(), lazy.edge_weight(i).to_bits(), "memoized");
            }
        }
    }

    #[test]
    fn prefetched_rows_serve_later_reads_without_a_pass() {
        let (parser, mha, emb) = substrate();
        let aos = analyze("The Broncos won the title. The team celebrated the win in Denver.");
        let table = IdTable::for_scoring(
            &gced_qa::QaModel::new(gced_qa::ModelProfile::plm()),
            &gced_lm::TrigramLm::train(&[]),
        );
        let mut ids = table.request();
        let aos_ids = ids.intern(&aos);
        let mut wt = construct_with_ids(&parser, &mha, &emb, &table, &aos, &aos_ids.lower);
        let nodes = [1, 4];
        wt.prefetch(nodes);
        let rows_len = |wt: &WeightedTree<'_>| match &wt.weights {
            EdgeWeights::Attention(a) => (a.row_at.iter().flatten().count(), a.rows.len()),
            EdgeWeights::Given(_) => unreachable!(),
        };
        let want: std::collections::BTreeSet<usize> = nodes
            .iter()
            .flat_map(|&i| [Some(i), wt.tree.parent(i)])
            .flatten()
            .collect();
        assert_eq!(rows_len(&wt), (want.len(), want.len() * aos.len()));
        for i in nodes {
            let _ = wt.edge_weight(i);
        }
        assert_eq!(
            rows_len(&wt),
            (want.len(), want.len() * aos.len()),
            "reads after prefetch computed rows"
        );
    }

    #[test]
    fn id_embedding_matches_the_string_embedding_bitwise() {
        let (mha, emb, table) = fitted_substrate();
        for text in TEXTS {
            let aos = analyze(text);
            let mut ids = table.request();
            let aos_ids = ids.intern(&aos);
            let words: Vec<String> = aos.tokens.iter().map(|t| t.lower()).collect();
            let want = mha.embed_sequence(&words, &emb);
            let got = embed_with_ids(&mha, &emb, &table, &aos, &aos_ids.lower);
            let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{text:?}");
        }
    }

    #[test]
    fn unread_weights_never_embed() {
        let (parser, mha, emb) = substrate();
        let aos = analyze("The Broncos won the title.");
        let table = IdTable::for_scoring(
            &gced_qa::QaModel::new(gced_qa::ModelProfile::plm()),
            &gced_lm::TrigramLm::train(&[]),
        );
        let mut ids = table.request();
        let aos_ids = ids.intern(&aos);
        let mut wt = construct_with_ids(&parser, &mha, &emb, &table, &aos, &aos_ids.lower);
        let root = wt.tree.root();
        assert_eq!(wt.edge_weight(root), 0.0);
        wt.prefetch([root]);
        let EdgeWeights::Attention(a) = &wt.weights else {
            unreachable!()
        };
        assert!(a.x.is_none() && a.rows.is_empty());
    }

    #[test]
    fn empty_document() {
        let (parser, mha, emb) = substrate();
        let aos = analyze("");
        let wt = construct(&parser, &mha, &emb, &aos);
        assert!(wt.tree.is_empty());
    }

    #[test]
    fn multi_sentence_tree_is_connected() {
        let (parser, mha, emb) = substrate();
        let aos = analyze("The Broncos won the title. The team celebrated in Denver.");
        let wt = construct(&parser, &mha, &emb, &aos);
        wt.tree.validate().unwrap();
        assert_eq!(wt.tree.subtree(wt.tree.root()).len(), aos.len());
    }
}
