//! Weighted Syntactic Parsing Tree Constructor (paper Sec. III-D).
//!
//! Parses the answer-oriented sentences with the L-PCFG CKY parser into a
//! head-lexicalized dependency tree whose nodes are token indices, then
//! annotates every (child → parent) edge with a multi-head attention
//! weight (Eqs. 6–8). Higher weight = stronger dependence between the
//! node and its parent — the quantity both SGS (max) and the SCS
//! tie-break (min) consult.

use crate::ids::IdTable;
use gced_nn::{EmbeddingTable, Matrix, MultiHeadAttention};
use gced_parser::{CkyParser, DepTree};
use gced_text::Document;

/// A dependency tree with per-edge attention weights.
#[derive(Debug, Clone)]
pub struct WeightedTree {
    /// The tree over local token indices of the AOS document.
    pub tree: DepTree,
    /// `weights[i]` = attention weight between token *i* and its parent
    /// (0.0 for the root).
    pub weights: Vec<f64>,
}

impl WeightedTree {
    /// Attention weight between node `i` and its parent.
    pub fn edge_weight(&self, i: usize) -> f64 {
        self.weights[i]
    }
}

/// Build the weighted tree for an analysed AOS document, embedding its
/// tokens by their lowercased surface strings (the reference form of
/// [`construct_with_ids`]).
pub fn construct(
    parser: &CkyParser,
    mha: &MultiHeadAttention,
    emb: &EmbeddingTable,
    aos: &Document,
) -> WeightedTree {
    weigh(parser, mha, aos, || {
        let words: Vec<String> = aos.tokens.iter().map(|t| t.lower()).collect();
        mha.embed_sequence(&words, emb)
    })
}

/// [`construct`] with the tokens embedded by interned id (`ids` are the
/// lowercased-form ids of `aos` over `table`): words with a refined row
/// copy it, the rest hash-embed, and repeated words copy their first
/// occurrence's row. Bitwise-equal to [`construct`].
pub fn construct_with_ids(
    parser: &CkyParser,
    mha: &MultiHeadAttention,
    emb: &EmbeddingTable,
    table: &IdTable,
    aos: &Document,
    ids: &[u32],
) -> WeightedTree {
    weigh(parser, mha, aos, || {
        embed_with_ids(mha, emb, table, aos, ids)
    })
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

/// Parse `aos` and weigh every tree edge by the attention between its
/// endpoints over the token embeddings `embed` builds.
fn weigh(
    parser: &CkyParser,
    mha: &MultiHeadAttention,
    aos: &Document,
    embed: impl FnOnce() -> Matrix,
) -> WeightedTree {
    let tree = gced_parser::parse_document_with(aos, parser);
    let n = aos.len();
    let mut weights = vec![0.0f64; n];
    if n > 0 {
        let x = embed();
        // Only the entries the tree reads: `A[p][i]` and `A[i][p]` per
        // edge, bitwise equal to the full matrix's.
        let edges: Vec<(usize, usize)> = (0..n)
            .filter_map(|i| tree.parent(i).map(|p| (i, p)))
            .collect();
        let pairs: Vec<(usize, usize)> =
            edges.iter().flat_map(|&(i, p)| [(p, i), (i, p)]).collect();
        let attn = mha.attention_entries(&x, &pairs);
        for (&(i, _), a) in edges.iter().zip(attn.chunks_exact(2)) {
            // Symmetrized attention between the two endpoints: the
            // paper reads "attention from a node to its child node";
            // averaging both directions keeps the weight insensitive
            // to row-normalization artifacts.
            weights[i] = 0.5 * (a[0] + a[1]) as f64;
        }
    }
    WeightedTree { tree, weights }
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

    #[test]
    fn weights_cover_all_non_root_nodes() {
        let (parser, mha, emb) = substrate();
        let aos = analyze("The Broncos defeated the Panthers to earn the title.");
        let wt = construct(&parser, &mha, &emb, &aos);
        wt.tree.validate().unwrap();
        assert_eq!(wt.weights.len(), aos.len());
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
        let a = construct(&parser, &mha, &emb, &aos);
        let b = construct(&parser, &mha, &emb, &aos);
        assert_eq!(a.tree, b.tree);
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    fn edge_weights_equal_the_full_attention_matrix() {
        let (parser, mha, emb) = substrate();
        let aos = analyze("The Broncos won the title. The team celebrated the win in Denver.");
        let wt = construct(&parser, &mha, &emb, &aos);
        let words: Vec<String> = aos.tokens.iter().map(|t| t.lower()).collect();
        let attn = mha.attend_words(&words, &emb);
        for i in 0..aos.len() {
            let want = match wt.tree.parent(i) {
                Some(p) => 0.5 * (attn.get(p, i) + attn.get(i, p)) as f64,
                None => 0.0,
            };
            assert_eq!(wt.edge_weight(i).to_bits(), want.to_bits(), "node {i}");
        }
    }

    #[test]
    fn id_embedding_matches_the_string_embedding_bitwise() {
        let (parser, _, _) = substrate();
        let mha = MultiHeadAttention::new(AttentionConfig {
            d_model: 16,
            heads: 2,
            d_k: 8,
            seed: 3,
            positional_weight: 0.35,
        });
        // Refined rows for some words (one of them only in a sentence of
        // its own, so its row is the unnormalized hash base), lexicon
        // words outside the LM vocabulary, OOV and case-folding cases.
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
        for text in [
            "The Broncos defeated THE Panthers in Denver. The team won the title.",
            "\u{212a}elvin KELVIN kelvin \u{212a}ELVIN. İstanbul i̇stanbul ſun SUN sun.",
            "Zanzibar zanzibar ZANZIBAR qwxyz. Didn't the team win? It didn't.",
            "ΟΔΟΣ ΟΔΟΣ οδος Straße STRASSE café CAFÉ naïve. Champion football violin.",
            "x",
        ] {
            let aos = analyze(text);
            let mut ids = table.request();
            let aos_ids = ids.intern(&aos);
            let words: Vec<String> = aos.tokens.iter().map(|t| t.lower()).collect();
            let want = mha.embed_sequence(&words, &emb);
            let got = embed_with_ids(&mha, &emb, &table, &aos, &aos_ids.lower);
            let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{text:?}");
            let a = construct(&parser, &mha, &emb, &aos);
            let b = construct_with_ids(&parser, &mha, &emb, &table, &aos, &aos_ids.lower);
            assert_eq!(a.tree, b.tree);
            let wbits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(wbits(&a.weights), wbits(&b.weights), "{text:?}");
        }
    }

    #[test]
    fn empty_document() {
        let (parser, mha, emb) = substrate();
        let aos = analyze("");
        let wt = construct(&parser, &mha, &emb, &aos);
        assert!(wt.tree.is_empty());
        assert!(wt.weights.is_empty());
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
