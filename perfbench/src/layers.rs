//! The traced run: per-layer numbers on the workload's own inputs.
//!
//! Three sources, none of which adds a span inside the program:
//!
//! * the benchmark times calls into each layer's public functions
//!   (`gced_text::analyze`, `parse_document_with`, `attend_words`,
//!   `QaModel::predict`, `TrigramLm::perplexity`, a replayed
//!   `ResponseStore`, and the serve wire/HTTP codecs);
//! * sequential `Gced::distill_traced` calls give span trees and the
//!   returned `DistillTrace` counts, interleaved with untraced
//!   `Gced::distill` calls on the same inputs (which yields the tracing
//!   overhead);
//! * a traced server takes the workload's load phases; `/metrics` deltas
//!   give queue wait, batching, server latency, shedding and the
//!   parse-cache hit rate, and the flight recorder's last requests,
//!   paired with the client's timings by request id, the time spent
//!   outside the batch path.
//!
//! At the end it writes the captured trees as a Chrome trace and the
//! per-layer table next to it, under `perfbench/out/`.

use crate::workload::{Kind, Phases, Request};
use crate::{metric, nproc, stats, Expected, Metric, Report, Setup};
use gced_nn::{AttentionConfig, EmbeddingTable, MultiHeadAttention};
use gced_obs::SpanNode;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Distinct inputs distilled one at a time (traced and untraced): enough
/// for a p99 with ten samples beyond it.
const CORE_SAMPLE: usize = 1200;
/// Inputs each single-layer probe is timed on.
const LAYER_SAMPLE: usize = 300;
/// Span trees written to the Chrome trace.
const TRACE_TREES: usize = 200;

pub fn run(kind: Kind, seed: u64, seconds: f64) -> Result<Report, String> {
    let phases = Phases::of(seconds);
    gced_obs::set_enabled(false);
    let mut setup = Setup::new(kind, seed, &phases, false)?;
    crate::describe(&setup.workload, seed);
    let mut report = Report::default();

    let sample = distinct_in_stream(&setup, CORE_SAMPLE);
    let core = core_probe(&setup.gced, &sample);
    report.attempted += 2 * sample.len();
    let failed = core.results.iter().filter(|r| r.is_none()).count();
    report.failed += failed;
    let mut metrics = core.metrics();
    metrics.push(par_probe(&setup.gced, &sample, &core.untraced_us));
    metrics.extend(layer_probes(&setup.gced, &sample, &core.results));

    // The traced server and its load.
    let server = crate::start_server(&setup.gced, &setup.workload, true)?;
    setup.server = Some(server);
    let served = crate::serve_phases(&setup, &phases, &mut report);
    let recorded = setup
        .server
        .as_ref()
        .map(|s| gced_serve::client::get(s.addr(), "/debug/requests"));
    setup.stop();
    let served = served?;
    let recorded = match recorded {
        Some(Ok(r)) if r.status == 200 => r.text(),
        _ => return Err("GET /debug/requests failed".to_string()),
    };
    let expected = crate::verify_served(&setup.gced, &setup.workload.corpus, &served, &mut report);
    metrics.extend(serve_metrics(&served, &recorded)?);
    let sent = sent_sequence(&setup, &served);
    metrics.extend(store_probe(
        &setup.workload.warmup,
        &setup.workload.corpus,
        &sent,
        &expected,
    ));

    let table = layer_table(kind, seed, &metrics, &core.trees);
    eprint!("{table}");
    write_outputs(kind, seed, &table, &core.trees);
    report.metrics = order(metrics);
    Ok(report)
}

/// Up to `n` distinct corpus entries in the order the stream first
/// sends them.
fn distinct_in_stream(setup: &Setup, n: usize) -> Vec<&Request> {
    let mut seen = std::collections::HashSet::new();
    setup
        .workload
        .stream
        .iter()
        .filter(|&&i| seen.insert(i))
        .take(n)
        .map(|&i| &setup.workload.corpus[i as usize])
        .collect()
}

struct CoreProbe {
    untraced_us: Vec<f64>,
    traced_us: Vec<f64>,
    trees: Vec<SpanNode>,
    /// The untraced distillation per input (`None` if it failed).
    results: Vec<Option<gced::Distillation>>,
}

/// Each input is distilled untraced and traced, alternating which goes
/// first, so drift hits both equally.
fn core_probe(gced: &gced::Gced, sample: &[&Request]) -> CoreProbe {
    let mut p = CoreProbe {
        untraced_us: Vec::new(),
        traced_us: Vec::new(),
        trees: Vec::new(),
        results: Vec::new(),
    };
    for (k, r) in sample.iter().enumerate() {
        for traced in [k % 2 == 0, k % 2 == 1] {
            gced_obs::set_enabled(traced);
            let t = Instant::now();
            if traced {
                let (_, tree) = gced.distill_traced(&r.question, &r.answer, &r.context);
                p.traced_us.push(t.elapsed().as_secs_f64() * 1e6);
                p.trees.extend(tree);
            } else {
                let d = gced.distill(&r.question, &r.answer, &r.context);
                p.untraced_us.push(t.elapsed().as_secs_f64() * 1e6);
                p.results.push(d.ok());
            }
        }
    }
    gced_obs::set_enabled(false);
    p
}

fn count_spans(node: &SpanNode, name: &str) -> u64 {
    u64::from(node.name == name)
        + node
            .children
            .iter()
            .map(|c| count_spans(c, name))
            .sum::<u64>()
}

/// Self time (duration minus children) of every span named `name`.
fn self_ns(node: &SpanNode, name: &str) -> u64 {
    let own = if node.name == name {
        node.dur_ns
            .saturating_sub(node.children.iter().map(|c| c.dur_ns).sum())
    } else {
        0
    };
    own + node.children.iter().map(|c| self_ns(c, name)).sum::<u64>()
}

impl CoreProbe {
    fn metrics(&self) -> Vec<Metric> {
        let n = self.trees.len().max(1) as f64;
        let sum = |f: &dyn Fn(&SpanNode) -> u64| self.trees.iter().map(f).sum::<u64>() as f64;
        let per_us = |name: &str| sum(&|t| t.total_ns(name)) / n / 1e3;
        let counter = |name: &str| sum(&|t| t.counter_total(name));
        let trials = counter("trials");
        let pruned = counter("trials_pruned");
        let hits = counter("span_cache_hits");
        let misses = counter("span_cache_misses");
        let root_ns = sum(&|t| t.dur_ns);
        let root_self_ns = sum(&|t| self_ns(t, t.name));
        let traced: f64 = self.traced_us.iter().sum();
        let untraced: f64 = self.untraced_us.iter().sum();
        vec![
            metric(
                "core.distill_us_p50",
                stats::median(&self.untraced_us),
                "us",
            ),
            metric(
                "core.distill_us_p99",
                stats::quantile(&self.untraced_us, 0.99),
                "us",
            ),
            metric(
                "core.analyze_calls",
                sum(&|t| count_spans(t, "analyze")) / n,
                "count",
            ),
            metric("core.grow_us", per_us("grow"), "us"),
            metric("core.qa_predict_us", per_us("qa.predict"), "us"),
            metric("core.parse_us", per_us("parse"), "us"),
            metric(
                "core.wsptc_self_us",
                sum(&|t| self_ns(t, "wsptc")) / n / 1e3,
                "us",
            ),
            metric("core.oec_grow_us", per_us("oec.grow"), "us"),
            metric("core.clip_us", per_us("clip"), "us"),
            metric(
                "core.unattributed_frac",
                stats::ratio(root_self_ns, root_ns),
                "ratio",
            ),
            metric("core.grow_trials", trials / n, "count"),
            metric(
                "core.grow_prune_rate",
                stats::ratio(pruned, trials + pruned),
                "ratio",
            ),
            metric(
                "core.span_cache_hit_rate",
                stats::ratio(hits, hits + misses),
                "ratio",
            ),
            metric(
                "core.qa_predict_calls",
                sum(&|t| count_spans(t, "qa.predict")) / n,
                "count",
            ),
            metric(
                "core.clip_iters",
                sum(&|t| count_spans(t, "clip.iter")) / n,
                "count",
            ),
            metric(
                "obs.overhead_frac",
                stats::ratio(traced, untraced) - 1.0,
                "ratio",
            ),
        ]
    }
}

/// Σ sequential item time / (`distill_batch` wall × workers), the wall
/// being the median of three batches over the same inputs.
fn par_probe(gced: &gced::Gced, sample: &[&Request], sequential_us: &[f64]) -> Metric {
    let items: Vec<(&str, &str, &str)> = sample.iter().map(|r| crate::triple(r)).collect();
    let walls: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(gced.distill_batch(&items));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    let workers = gced_par::effective_parallelism() as f64;
    let seq: f64 = sequential_us.iter().sum();
    metric(
        "par.efficiency",
        seq / (stats::median(&walls) * workers),
        "ratio",
    )
}

/// Median microseconds per call of `f` over `inputs`, `reps` calls per
/// input (short calls are repeated so the clock's cost stays small).
fn per_call_us<T>(inputs: &[T], reps: usize, mut f: impl FnMut(&T)) -> f64 {
    let times: Vec<f64> = inputs
        .iter()
        .map(|x| {
            let t = Instant::now();
            for _ in 0..reps {
                f(x);
            }
            t.elapsed().as_secs_f64() * 1e6 / reps as f64
        })
        .collect();
    stats::median(&times)
}

/// The single-layer probes. Context-level layers (analysis, QA) take the
/// request's context; the layers the pipeline feeds the answer-oriented
/// sentences (CKY parse, attention encode, LM) take that AOS text.
fn layer_probes(
    gced: &gced::Gced,
    sample: &[&Request],
    results: &[Option<gced::Distillation>],
) -> Vec<Metric> {
    let inputs: Vec<(&Request, &gced::Distillation)> = sample
        .iter()
        .zip(results)
        .filter_map(|(r, d)| Some((*r, d.as_ref()?)))
        .take(LAYER_SAMPLE)
        .collect();
    let aos: Vec<gced_text::Document> = inputs
        .iter()
        .map(|(_, d)| gced_text::analyze(&d.aos_text))
        .collect();
    let words: Vec<Vec<String>> = aos
        .iter()
        .map(|doc| doc.tokens.iter().map(|t| t.lower()).collect())
        .collect();
    let parser = gced_parser::CkyParser::embedded();
    let seed = gced.config().seed;
    let attention = MultiHeadAttention::new(AttentionConfig {
        d_model: 64,
        heads: 16,
        d_k: 64,
        seed,
        positional_weight: 0.35,
    });
    let embeddings = EmbeddingTable::new(64, seed);
    let frames: Vec<Vec<u8>> = inputs
        .iter()
        .map(|(r, _)| {
            format!(
                "POST /v1/distill HTTP/1.1\r\nHost: gced\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
                r.body.len(),
                r.body
            )
            .into_bytes()
        })
        .collect();
    vec![
        metric(
            "text.analyze_us",
            per_call_us(&inputs, 1, |(r, _)| {
                black_box(gced_text::analyze(&r.context));
            }),
            "us",
        ),
        metric(
            "parser.parse_us",
            per_call_us(&aos, 1, |doc| {
                black_box(gced_parser::parse_document_with(doc, &parser));
            }),
            "us",
        ),
        metric(
            "nn.encode_us",
            per_call_us(&words, 1, |w| {
                black_box(attention.attend_words(w, &embeddings));
            }),
            "us",
        ),
        metric(
            "qa.predict_us",
            per_call_us(&inputs, 1, |(r, _)| {
                black_box(gced.qa_model().predict(&r.question, &r.context));
            }),
            "us",
        ),
        metric(
            "lm.perplexity_us",
            per_call_us(&words, 20, |w| {
                black_box(gced.lm().perplexity(w));
            }),
            "us",
        ),
        metric(
            "serve.http_read_us",
            per_call_us(&frames, 20, |f| {
                let mut reader = std::io::Cursor::new(f.as_slice());
                black_box(gced_serve::http::read_request(
                    &mut reader,
                    &mut std::io::sink(),
                    Duration::ZERO,
                ))
                .expect("benchmark frames parse");
            }),
            "us",
        ),
        metric(
            "serve.wire_parse_us",
            per_call_us(&inputs, 20, |(r, _)| {
                black_box(gced_serve::wire::parse_request(r.body.as_bytes()))
                    .expect("benchmark bodies parse");
            }),
            "us",
        ),
        metric(
            "serve.render_us",
            per_call_us(&inputs, 20, |(r, d)| {
                black_box(crate::render(r, d));
            }),
            "us",
        ),
    ]
}

/// Per-layer serve figures from `/metrics` deltas over the traced load
/// (all three phases), the generator's lateness over the open-loop
/// phases, and the time outside the server's batch path: client latency
/// minus the flight recorder's enqueue-to-reply time, paired per request
/// id over the requests the recorder still holds after the closed loop.
fn serve_metrics(served: &crate::Served, recorded: &str) -> Result<Vec<Metric>, String> {
    use gced_datasets::json::{self, Json};
    let (first, last) = (&served.first, &served.last);
    let d = |path: &[&str]| last.delta(first, path);
    let late: Vec<f64> = [&served.light, &served.busy]
        .iter()
        .flat_map(|p| p.late_us.iter().copied())
        .collect();
    let client: HashMap<u64, f64> = served.closed.request_ids.iter().copied().collect();
    let root = json::parse(recorded).map_err(|e| format!("/debug/requests: {e:?}"))?;
    let outside: Vec<f64> = root
        .get("requests")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|r| {
            let id = r.get("id")?.as_f64()? as u64;
            let server_us = r.get("total_ns")?.as_f64()? / 1e3;
            Some(client.get(&id)? - server_us)
        })
        .collect();
    if outside.is_empty() {
        return Err("no recorded request matches a closed-loop response".to_string());
    }
    let parse_hits = d(&["parse_cache", "hits"]);
    let parse_lookups = parse_hits + d(&["parse_cache", "misses"]);
    let ms_p99 = |phase: &crate::load::PhaseResult| {
        stats::tail(&phase.latencies_us, 0.99, phase.name).map(|us| us / 1e3)
    };
    Ok(vec![
        metric("e2e.p99_ms.light", ms_p99(&served.light)?, "ms"),
        metric("e2e.p99_ms.busy", ms_p99(&served.busy)?, "ms"),
        metric(
            "parser.cache_hit_rate",
            stats::ratio(parse_hits, parse_lookups),
            "ratio",
        ),
        metric(
            "serve.queue_wait_us_p50",
            last.delta_quantile(first, "queue_wait_ns", 0.5) / 1e3,
            "us",
        ),
        metric(
            "serve.queue_wait_us_p99",
            last.delta_quantile(first, "queue_wait_ns", 0.99) / 1e3,
            "us",
        ),
        metric(
            "serve.batch_mean",
            last.delta_mean(first, "batch_size"),
            "count",
        ),
        metric(
            "serve.server_latency_us_p50",
            last.delta_quantile(first, "latency_us", 0.5),
            "us",
        ),
        metric("serve.outside_us", stats::median(&outside), "us"),
        metric(
            "serve.shed_frac",
            stats::ratio(d(&["shed_total"]), d(&["distill_requests_total"])),
            "ratio",
        ),
        metric("gen.late_us_p99", stats::quantile(&late, 0.99), "us"),
    ])
}

/// The corpus indices in the order the phases sent them.
fn sent_sequence(setup: &Setup, served: &crate::Served) -> Vec<u32> {
    let w = &setup.workload;
    let mut out = Vec::new();
    for (stream, phase) in [
        (w.light_stream(), &served.light),
        (w.busy_stream(), &served.busy),
        (w.closed_stream(), &served.closed),
    ] {
        out.extend_from_slice(&stream[..phase.sent.min(stream.len())]);
    }
    out
}

/// A default-sized `ResponseStore` replaying the warm-up and then the
/// sent requests' fingerprints and bodies, as the server's store saw them.
fn store_probe(
    warmup: &[Request],
    corpus: &[Request],
    sent: &[u32],
    expected: &HashMap<u32, Expected>,
) -> Vec<Metric> {
    let store = gced_store::ResponseStore::new(gced_store::StoreConfig::default());
    for w in warmup {
        store.insert(w.fp, &w.body);
    }
    let (mut hits, mut evictions) = (0u64, 0u64);
    let (mut get_us, mut insert_us) = (Vec::new(), Vec::new());
    let mut replayed = 0usize;
    for &i in sent {
        let Some(e) = expected.get(&i) else { continue };
        replayed += 1;
        let fp = corpus[i as usize].fp;
        let t = Instant::now();
        let got = black_box(store.get(fp));
        get_us.push(t.elapsed().as_secs_f64() * 1e6);
        if got.is_some() {
            hits += 1;
        } else {
            let t = Instant::now();
            let out = black_box(store.insert(fp, &e.body));
            insert_us.push(t.elapsed().as_secs_f64() * 1e6);
            evictions += out.evicted;
        }
    }
    let n = replayed.max(1) as f64;
    vec![
        metric("store.hit_rate", hits as f64 / n, "ratio"),
        metric("store.get_us", stats::median(&get_us), "us"),
        metric("store.insert_us", stats::median(&insert_us), "us"),
        metric("store.evictions", evictions as f64 / n * 1e3, "count/1k"),
    ]
}

/// Per-layer metrics in `BENCHMARK.json` order.
pub const ORDER: &[&str] = &[
    "text.analyze_us",
    "core.analyze_calls",
    "parser.parse_us",
    "parser.cache_hit_rate",
    "nn.encode_us",
    "core.wsptc_self_us",
    "qa.predict_us",
    "lm.perplexity_us",
    "core.distill_us_p50",
    "core.distill_us_p99",
    "core.grow_us",
    "core.qa_predict_us",
    "core.parse_us",
    "core.oec_grow_us",
    "core.clip_us",
    "core.unattributed_frac",
    "core.grow_trials",
    "core.grow_prune_rate",
    "core.span_cache_hit_rate",
    "core.qa_predict_calls",
    "core.clip_iters",
    "par.efficiency",
    "store.hit_rate",
    "store.get_us",
    "store.insert_us",
    "store.evictions",
    "serve.queue_wait_us_p50",
    "serve.queue_wait_us_p99",
    "serve.batch_mean",
    "serve.server_latency_us_p50",
    "serve.outside_us",
    "serve.http_read_us",
    "serve.wire_parse_us",
    "serve.render_us",
    "serve.shed_frac",
    "obs.overhead_frac",
    "gen.late_us_p99",
    "e2e.p99_ms.light",
    "e2e.p99_ms.busy",
];

fn order(mut metrics: Vec<Metric>) -> Vec<Metric> {
    metrics.sort_by_key(|m| {
        ORDER
            .iter()
            .position(|&n| n == m.name)
            .unwrap_or(usize::MAX)
    });
    debug_assert_eq!(metrics.len(), ORDER.len());
    metrics
}

fn layer_table(kind: Kind, seed: u64, metrics: &[Metric], trees: &[SpanNode]) -> String {
    let mut out = format!(
        "per-layer metrics: workload {} seed {seed} ({} traced distillations, {} workers)\n",
        kind.name(),
        trees.len(),
        nproc()
    );
    for name in ORDER {
        if let Some(m) = metrics.iter().find(|m| m.name == *name) {
            out.push_str(&format!("  {:<28} {:>14.3} {}\n", m.name, m.value, m.unit));
        }
    }
    let threads: Vec<(u64, SpanNode)> = trees.iter().map(|t| (1, t.clone())).collect();
    out.push_str("\nspan stages over the traced distillations:\n");
    out.push_str(&gced_obs::stage_summary(&threads));
    out
}

fn write_outputs(kind: Kind, seed: u64, table: &str, trees: &[SpanNode]) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = dir.join(format!("{}-seed{seed}", kind.name()));
    let threads: Vec<(u64, SpanNode)> = trees
        .iter()
        .take(TRACE_TREES)
        .map(|t| (1, t.clone()))
        .collect();
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(
                stem.with_extension("trace.json"),
                gced_obs::chrome_trace(&threads),
            )
        })
        .and_then(|()| std::fs::write(stem.with_extension("layers.txt"), table));
    match written {
        Ok(()) => eprintln!(
            "perfbench: wrote {}.{{trace.json,layers.txt}}",
            stem.display()
        ),
        Err(e) => eprintln!(
            "perfbench: could not write traced outputs under {}: {e}",
            dir.display()
        ),
    }
}
