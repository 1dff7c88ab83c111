//! Criterion micro/macro benchmarks for the distillation pipeline —
//! not a paper table, but the throughput numbers a systems reader
//! expects: per-substrate cost (tokenize, parse, attend, LM),
//! end-to-end distillation latency, a clip-heavy long-context scenario,
//! and batch distillation throughput.
//!
//! Median ns/iter per benchmark is written to `target/gced-criterion/`
//! by the harness; the committed perf trajectory lives in
//! `BENCH_pipeline.json` at the repository root.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use gced::{Gced, GcedConfig};
use gced_datasets::{generate, DatasetKind, GeneratorConfig, ShardSpec};
use gced_eval::shard::{merge, ShardMetric, ShardOutput, ShardRow};
use gced_nn::kernels::Kernel;
use gced_nn::{AttentionConfig, EmbeddingTable, MultiHeadAttention};
use gced_parser::CkyParser;
use std::hint::black_box;

const CONTEXT: &str = "The American Football Conference (AFC) champion Denver Broncos defeated \
                       the National Football Conference (NFC) champion Carolina Panthers to earn \
                       the Super Bowl 50 title. The game was played at Lockwood Stadium in Boston. \
                       The halftime show featured a famous singer and a large fireworks display.";

/// A long, distractor-heavy context: the clip search must prune many
/// subtrees, which is exactly the hot path the incremental scoring
/// engine targets.
fn long_context() -> String {
    let mut s = String::from(
        "The American Football Conference champion Denver Broncos defeated the National \
         Football Conference champion Carolina Panthers to earn the Super Bowl 50 title in a \
         long and memorable evening game watched by thousands of fans across the country. ",
    );
    let distractors = [
        "The stadium had opened two years earlier after a lengthy construction project.",
        "Local restaurants reported record sales of food and drinks during the week.",
        "The halftime show featured a famous singer and a large fireworks display.",
        "Television ratings for the broadcast exceeded every previous championship game.",
        "The weather stayed mild for the entire afternoon and into the late evening.",
        "Many visiting supporters traveled by train from distant cities to attend.",
        "The trophy ceremony lasted an hour and included speeches from both coaches.",
    ];
    for d in distractors {
        s.push_str(d);
        s.push(' ');
    }
    s
}

fn bench_substrates(c: &mut Criterion) {
    c.bench_function("text/analyze_context", |b| {
        b.iter(|| gced_text::analyze(black_box(CONTEXT)))
    });

    let doc = gced_text::analyze(CONTEXT);
    let parser = CkyParser::embedded();
    c.bench_function("parser/cky_parse_document", |b| {
        b.iter(|| gced_parser::parse_document_with(black_box(&doc), &parser))
    });

    let cfg = AttentionConfig {
        d_model: 64,
        heads: 16,
        d_k: 64,
        seed: 42,
        positional_weight: 0.35,
    };
    let mha = MultiHeadAttention::new(cfg);
    let table = EmbeddingTable::new(64, 42);
    let words: Vec<String> = doc.tokens.iter().map(|t| t.lower()).collect();
    c.bench_function("nn/attention_16head_d64", |b| {
        b.iter(|| mha.attend_words(black_box(&words), &table))
    });
    // The same recipe on the AVX2 rung of the kernel ladder, so hosts
    // without AVX-512 have a measured figure too.
    if Kernel::Avx2.is_available() {
        c.bench_function("nn/attention_16head_d64_avx2", |b| {
            b.iter(|| {
                let x = mha.embed_sequence(black_box(&words), &table);
                mha.attention_matrix_on(Kernel::Avx2, &x)
            })
        });
    }

    // Kernel micro-benches: the two matmul shapes the attention hot path
    // is built from (projection-shaped A·B and score-shaped A·Bᵀ), plus
    // the full Eq. 8 encode. These isolate the numeric substrate from
    // embedding/softmax so kernel-level changes are visible on their own.
    let x60 = mha.embed_sequence(&words, &table);
    let seed_mat = |rows: usize, cols: usize, salt: u64| {
        gced_nn::Matrix::from_fn(rows, cols, |r, c| {
            let h = (r as u64)
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(c as u64)
                .wrapping_mul(1_442_695_040_888_963_407)
                .wrapping_add(salt);
            ((h >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        })
    };
    let a128 = seed_mat(128, 128, 1);
    let b128 = seed_mat(128, 128, 2);
    c.bench_function("nn/matmul_128x128x128", |b| {
        b.iter(|| black_box(&a128).matmul(&b128))
    });
    let b60 = seed_mat(60, 64, 3);
    c.bench_function("nn/matmul_nt_60x64", |b| {
        b.iter(|| black_box(&x60).matmul_nt(&b60))
    });
    c.bench_function("nn/encode_16head_d64", |b| {
        b.iter(|| mha.encode(black_box(&x60)))
    });

    let corpus: Vec<Vec<String>> = (0..200)
        .map(|i| {
            format!("the team {i} won the title in the final game")
                .split(' ')
                .map(String::from)
                .collect()
        })
        .collect();
    let lm = gced_lm::TrigramLm::train(&corpus);
    c.bench_function("lm/perplexity_27_tokens", |b| {
        b.iter(|| lm.perplexity(black_box(&words[..27.min(words.len())])))
    });
}

/// A grow-heavy scenario: many context sentences, the answer buried in
/// the middle, so ASE's greedy search faces a wide candidate pool each
/// round — the trial loop the shared search engine prunes with the
/// admissible per-sentence F1 bound.
fn grow_context() -> String {
    let fillers = [
        "The city council debated the new transit budget for several hours that morning.",
        "A light rain moved across the valley before the crowds arrived at the gates.",
        "Vendors sold programs and souvenirs along the avenue outside the stadium.",
        "The marching band rehearsed its halftime routine twice during the afternoon.",
        "Several broadcasters set up their equipment near the southern entrance.",
        "Security crews checked the perimeter fencing one final time before kickoff.",
    ];
    let mut s = String::new();
    for f in fillers.iter().take(3) {
        s.push_str(f);
        s.push(' ');
    }
    s.push_str(
        "The American Football Conference champion Denver Broncos defeated the National \
         Football Conference champion Carolina Panthers to earn the Super Bowl 50 title. ",
    );
    for f in fillers.iter().skip(3) {
        s.push_str(f);
        s.push(' ');
    }
    s.push_str("Fans lingered in the concourse long after the final whistle had sounded. ");
    s.push_str("The cleanup crews worked through the night to restore the field surface.");
    s
}

fn bench_pipeline(c: &mut Criterion) {
    let ds = generate(
        DatasetKind::Squad11,
        GeneratorConfig {
            train: 200,
            dev: 40,
            seed: 42,
        },
    );
    let gced = Gced::fit(&ds, GcedConfig::default());
    let question = "Which NFL team represented the AFC at Super Bowl 50?";

    c.bench_function("gced/distill_end_to_end", |b| {
        b.iter_batched(
            || (),
            |_| {
                gced.distill(black_box(question), "Denver Broncos", CONTEXT)
                    .unwrap()
            },
            BatchSize::SmallInput,
        )
    });

    // Clip-heavy scenario: a wide AOS window over a long noisy context
    // forces many SCS iterations over many candidate subtrees.
    let clip_heavy = Gced::fit(
        &ds,
        GcedConfig {
            max_ase_sentences: 8,
            ..GcedConfig::default()
        },
    );
    let long_ctx = long_context();
    c.bench_function("gced/clip_long_context", |b| {
        b.iter_batched(
            || (),
            |_| {
                clip_heavy
                    .distill(black_box(question), "Denver Broncos", &long_ctx)
                    .unwrap()
            },
            BatchSize::SmallInput,
        )
    });

    // Grow-heavy scenario: a sentence-rich context makes the ASE greedy
    // search the dominant cost (every round trials every unselected
    // sentence) — the phase the unified search engine makes incremental.
    let grow_ctx = grow_context();
    c.bench_function("gced/grow_long_context", |b| {
        b.iter_batched(
            || (),
            |_| {
                gced.distill(black_box(question), "Denver Broncos", &grow_ctx)
                    .unwrap()
            },
            BatchSize::SmallInput,
        )
    });

    // Batch throughput over 20 dev examples (one full table-runner inner
    // loop). Measured per batch, not per example.
    let batch: Vec<(String, String, String)> = ds
        .dev
        .examples
        .iter()
        .filter(|e| e.answerable)
        .take(20)
        .map(|e| (e.question.clone(), e.answer.clone(), e.context.clone()))
        .collect();
    assert_eq!(batch.len(), 20, "dev split too small for the batch bench");
    c.bench_function("gced/distill_batch_20", |b| {
        b.iter_batched(
            || (),
            |_| gced.distill_batch(black_box(&batch)),
            BatchSize::SmallInput,
        )
    });

    let mut qa = gced_qa::QaModel::new(gced_qa::ModelProfile::plm());
    qa.train(&ds.train.examples);
    c.bench_function("qa/predict_span", |b| {
        b.iter(|| qa.predict(black_box(question), CONTEXT))
    });
}

/// Shard-runner infrastructure: persistent-pool dispatch overhead and
/// the decode→validate→merge path a driver pays per sharded run.
fn bench_shard_runner(c: &mut Criterion) {
    // Pool fan-out over cheap items: dominated by job posting and
    // claim/retire handshakes — the cost `par_map` pays beyond the map
    // itself, now amortized by the persistent pool instead of a
    // spawn/join per call.
    let items: Vec<u64> = (0..256).collect();
    c.bench_function("par/pool_map_256", |b| {
        b.iter(|| gced_par::par_map(black_box(&items), |_, &x| x.wrapping_mul(x) ^ (x >> 3)))
    });

    // Merge throughput: 8 shards × 128 rows of table-sized strings,
    // pre-encoded to JSON; measures parse + validation + ordered
    // reassembly (the driver's whole post-processing step).
    let encoded: Vec<String> = ShardSpec::all(8)
        .into_iter()
        .map(|spec| {
            let range = spec.range(1024);
            ShardOutput {
                experiment: "synthetic".to_string(),
                kind: DatasetKind::Squad11,
                seed: 42,
                scale_tag: "train1-dev1-rated1".to_string(),
                shard: spec,
                n_items: 1024,
                header: vec![
                    "Example".to_string(),
                    "Tokens".to_string(),
                    "Reduction".to_string(),
                ],
                rows: range
                    .clone()
                    .map(|item| ShardRow {
                        item,
                        cells: vec![
                            format!("squad-1.1-dev-{item:06}"),
                            (item % 23).to_string(),
                            format!("{:.1}%", (item % 97) as f64),
                        ],
                    })
                    .collect(),
                metrics: range
                    .map(|item| ShardMetric {
                        item,
                        name: "word_reduction".to_string(),
                        value: (item % 97) as f64 / 97.0,
                    })
                    .collect(),
            }
            .to_json()
        })
        .collect();
    c.bench_function("eval/shard_merge_8x1024", |b| {
        b.iter(|| {
            let outputs: Vec<ShardOutput> = encoded
                .iter()
                .map(|t| ShardOutput::from_json(black_box(t)).unwrap())
                .collect();
            merge(&outputs).unwrap()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_substrates, bench_pipeline, bench_shard_runner
}
criterion_main!(benches);
