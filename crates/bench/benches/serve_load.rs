//! Load generator for the `gced-serve` online distillation server.
//!
//! Starts a warm in-process server on an ephemeral port, fires a
//! warm-up burst, then hammers `POST /v1/distill` from concurrent
//! client threads over a corpus of generated dev examples. Client-side
//! per-request latencies give the exact warm-path p50/p99; the server's
//! `/metrics` endpoint contributes the mean coalesced batch size, the
//! batch histogram, and the parse-cache hit rate. Results are printed
//! and recorded as JSON in `BENCH_serve.json` (override with
//! `GCED_SERVE_BENCH_OUT`).
//!
//! Knobs: `GCED_SERVE_CLIENTS` (default 8), `GCED_SERVE_REQUESTS`
//! (total measured requests, default 192), `GCED_SERVE_WARMUP`
//! (default 32), `GCED_SERVE_BATCH_MAX` (default 16),
//! `GCED_SERVE_FLUSH_US` (default 2000), `GCED_SERVE_CACHE_REQUESTS`
//! (Zipf phase, default 256).
//!
//! Phase 1 runs with the response cache DISABLED so the cold pipeline
//! numbers stay comparable across revisions. Phase 2 starts a second
//! server with the gced-store response cache on and replays a
//! Zipf-distributed request mix (seeded splitmix64 inverse-CDF
//! sampling, exponent 1.1 — a few hot requests dominate, the long tail
//! stays cold), splitting latencies by the X-Gced-Cache header into
//! warm-hit and miss quantiles.

use gced_bench::{finish, start};
use gced_datasets::json::{self, Json};
use gced_datasets::{generate, DatasetKind, GeneratorConfig};
use gced_eval::shard::load_or_fit;
use gced_serve::wire::{render_request, DistillRequest};
use gced_serve::{client, ServeConfig};
use std::time::{Duration, Instant};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let (scale, seed, t0) = start(
        "serve_load",
        "warm-path latency and batch coalescing of the gced-serve server",
    );
    let clients = env_usize("GCED_SERVE_CLIENTS", 8).max(1);
    let requests = env_usize("GCED_SERVE_REQUESTS", 192).max(clients);
    let warmup = env_usize("GCED_SERVE_WARMUP", 32);
    let batch_max = env_usize("GCED_SERVE_BATCH_MAX", 16);
    let flush_us = env_usize("GCED_SERVE_FLUSH_US", 2_000);

    let kind = DatasetKind::Squad11;
    let pipeline = load_or_fit(kind, scale, seed, None).expect("a fresh fit cannot fail");
    let dataset = generate(
        kind,
        GeneratorConfig {
            train: scale.train,
            dev: scale.dev,
            seed,
        },
    );
    let corpus: Vec<String> = dataset
        .dev
        .examples
        .iter()
        .filter(|e| e.answerable)
        .map(|e| {
            render_request(&DistillRequest {
                question: e.question.clone(),
                answer: e.answer.clone(),
                context: e.context.clone(),
            })
        })
        .collect();
    assert!(
        !corpus.is_empty(),
        "dev split produced no answerable examples"
    );

    // Response cache OFF in phase 1: these are the pipeline's numbers.
    let config = ServeConfig {
        batch_max,
        flush: Duration::from_micros(flush_us as u64),
        queue_capacity: (requests + clients).max(256),
        cache_entries: 0,
        ..ServeConfig::default()
    };
    let handle = gced_serve::start(pipeline.clone(), config).expect("bind ephemeral port");
    let addr = handle.addr();
    println!(
        "server: {addr} (clients={clients}, requests={requests}, warmup={warmup}, \
         batch_max={batch_max}, flush={flush_us}us)"
    );

    // Warm-up: fills the parse cache and faults in every lazy path.
    for i in 0..warmup {
        let body = &corpus[i % corpus.len()];
        let r = client::post(addr, "/v1/distill", body).expect("warmup request");
        assert!(
            r.status == 200 || r.status == 422,
            "warmup status {}: {}",
            r.status,
            r.text()
        );
    }

    // Measured run: each client thread posts its share sequentially;
    // concurrency across threads is what exercises the coalescer.
    let wall_start = Instant::now();
    let latencies_us: Vec<u64> = std::thread::scope(|scope| {
        let corpus = &corpus;
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let share = requests / clients + usize::from(c < requests % clients);
                    let mut lat = Vec::with_capacity(share);
                    for i in 0..share {
                        let body = &corpus[(c + i * clients) % corpus.len()];
                        let t = Instant::now();
                        let r = client::post(addr, "/v1/distill", body).expect("request");
                        let us = t.elapsed().as_micros() as u64;
                        assert!(
                            r.status == 200 || r.status == 422,
                            "status {}: {}",
                            r.status,
                            r.text()
                        );
                        lat.push(us);
                    }
                    lat
                })
            })
            .collect();
        let mut all = Vec::with_capacity(requests);
        for h in handles {
            all.extend(h.join().expect("client thread"));
        }
        all
    });
    let wall = wall_start.elapsed();

    let mut sorted = latencies_us.clone();
    sorted.sort_unstable();
    let pick =
        |q: f64| sorted[((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1)];
    let p50 = pick(0.50);
    let p99 = pick(0.99);
    let mean = sorted.iter().sum::<u64>() as f64 / sorted.len() as f64;
    let throughput = sorted.len() as f64 / wall.as_secs_f64();

    let metrics_doc = client::get(addr, "/metrics").expect("metrics").text();
    let metrics = json::parse(&metrics_doc).expect("metrics JSON");
    let batch = metrics.get("batch_size").expect("batch_size section");
    let mean_batch = batch.get("mean").and_then(Json::as_f64).unwrap_or(0.0);
    let batch_buckets = render_buckets(batch);
    let parse_cache = metrics
        .get("parse_cache")
        .map(render_parse_cache)
        .unwrap_or_else(|| "null".to_string());

    println!("\nwarm-path latency: p50={p50}us p99={p99}us mean={mean:.0}us");
    println!("throughput: {throughput:.1} req/s over {clients} clients");
    println!("mean coalesced batch size: {mean_batch:.2}");
    println!("parse cache: {parse_cache}");

    handle.shutdown();
    handle.join();

    // ---- Phase 2: Zipf-repeated workload against the response cache.
    let cache_requests = env_usize("GCED_SERVE_CACHE_REQUESTS", 256).max(clients);
    let zipf_s = 1.1f64;
    let cdf: Vec<f64> = {
        let weights: Vec<f64> = (0..corpus.len())
            .map(|i| 1.0 / ((i + 1) as f64).powf(zipf_s))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect()
    };
    let cache_handle = gced_serve::start(
        pipeline,
        ServeConfig {
            batch_max,
            flush: Duration::from_micros(flush_us as u64),
            queue_capacity: (cache_requests + clients).max(256),
            ..ServeConfig::default() // response cache ON (defaults)
        },
    )
    .expect("bind ephemeral port");
    let cache_addr = cache_handle.addr();
    println!(
        "\ncache phase: {cache_addr} (zipf s={zipf_s}, requests={cache_requests}, \
         corpus={})",
        corpus.len()
    );
    // (latency_us, was_hit) per request; each client samples its own
    // deterministic splitmix64 stream.
    let tagged: Vec<(u64, bool)> = std::thread::scope(|scope| {
        let (corpus, cdf) = (&corpus, &cdf);
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let share =
                        cache_requests / clients + usize::from(c < cache_requests % clients);
                    let mut rng = seed ^ (c as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                    let mut lat = Vec::with_capacity(share);
                    for _ in 0..share {
                        let u = (splitmix64(&mut rng) >> 11) as f64 / (1u64 << 53) as f64;
                        let idx = cdf.partition_point(|&p| p < u).min(corpus.len() - 1);
                        let t = Instant::now();
                        let r = client::post(cache_addr, "/v1/distill", &corpus[idx])
                            .expect("cache-phase request");
                        let us = t.elapsed().as_micros() as u64;
                        assert!(
                            r.status == 200 || r.status == 422,
                            "status {}: {}",
                            r.status,
                            r.text()
                        );
                        lat.push((us, r.cache.as_deref() == Some("hit")));
                    }
                    lat
                })
            })
            .collect();
        let mut all = Vec::with_capacity(cache_requests);
        for h in handles {
            all.extend(h.join().expect("cache-phase client thread"));
        }
        all
    });
    let mut hit_us: Vec<u64> = tagged
        .iter()
        .filter(|(_, h)| *h)
        .map(|(us, _)| *us)
        .collect();
    let mut miss_us: Vec<u64> = tagged
        .iter()
        .filter(|(_, h)| !*h)
        .map(|(us, _)| *us)
        .collect();
    hit_us.sort_unstable();
    miss_us.sort_unstable();
    let q = |s: &[u64], q: f64| -> f64 {
        if s.is_empty() {
            return 0.0;
        }
        s[((q * (s.len() - 1) as f64).round() as usize).min(s.len() - 1)] as f64
    };
    let hit_rate = hit_us.len() as f64 / tagged.len() as f64;
    let warm_hit_p50_ms = q(&hit_us, 0.50) / 1000.0;
    let warm_hit_p99_ms = q(&hit_us, 0.99) / 1000.0;
    let miss_p50_ms = q(&miss_us, 0.50) / 1000.0;
    println!(
        "cache: hits={} misses={} hit_rate={hit_rate:.3}",
        hit_us.len(),
        miss_us.len()
    );
    println!(
        "cache: warm_hit_p50={warm_hit_p50_ms:.3}ms warm_hit_p99={warm_hit_p99_ms:.3}ms \
         miss_p50={miss_p50_ms:.3}ms"
    );
    cache_handle.shutdown();
    cache_handle.join();

    let mut out = String::with_capacity(1024);
    out.push_str("{\n  \"description\": \"gced-serve load generator: warm-path request latency (client-side, us) and batch coalescing; regenerate with `cargo bench -p gced-bench --bench serve_load`\",\n");
    out.push_str(&format!(
        "  \"scale\": \"train{}-dev{}-rated{}\",\n",
        scale.train, scale.dev, scale.rated
    ));
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str(&format!("  \"clients\": {clients},\n"));
    out.push_str(&format!("  \"requests\": {},\n", sorted.len()));
    out.push_str(&format!("  \"warmup\": {warmup},\n"));
    out.push_str(&format!("  \"batch_max\": {batch_max},\n"));
    out.push_str(&format!("  \"flush_us\": {flush_us},\n"));
    out.push_str(&format!("  \"warm_p50_us\": {p50},\n"));
    out.push_str(&format!("  \"warm_p99_us\": {p99},\n"));
    out.push_str(&format!("  \"warm_mean_us\": {mean:.1},\n"));
    out.push_str(&format!("  \"throughput_rps\": {throughput:.1},\n"));
    out.push_str(&format!("  \"mean_batch_size\": {mean_batch:.3},\n"));
    out.push_str(&format!("  \"batch_histogram\": {batch_buckets},\n"));
    out.push_str(&format!("  \"parse_cache\": {parse_cache},\n"));
    out.push_str(&format!(
        "  \"cache\": {{\"zipf_exponent\": {zipf_s}, \"requests\": {}, \"hits\": {}, \
         \"misses\": {}, \"hit_rate\": {hit_rate:.3}, \"warm_hit_p50_ms\": \
         {warm_hit_p50_ms:.3}, \"warm_hit_p99_ms\": {warm_hit_p99_ms:.3}, \
         \"miss_p50_ms\": {miss_p50_ms:.3}}}\n",
        tagged.len(),
        hit_us.len(),
        miss_us.len(),
    ));
    out.push_str("}\n");
    // `cargo bench` sets the CWD to the package dir; the committed
    // record lives at the workspace root, two levels up.
    let out_path = std::env::var("GCED_SERVE_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_serve.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out_path, &out)
        .unwrap_or_else(|e| panic!("cannot write bench record {out_path}: {e}"));
    println!("recorded: {out_path}");
    finish(t0);
}

/// Deterministic splitmix64 stream for the Zipf inverse-CDF sampler.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Re-render the `/metrics` batch buckets as compact JSON.
fn render_buckets(batch: &Json) -> String {
    let Some(buckets) = batch.get("buckets").and_then(Json::as_arr) else {
        return "[]".to_string();
    };
    let mut out = String::from("[");
    for (i, b) in buckets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let le = b
            .get("le")
            .map(|v| match v {
                Json::Num(n) => format!("{n}"),
                _ => "\"inf\"".to_string(),
            })
            .unwrap_or_default();
        let count = b.get("count").and_then(Json::as_f64).unwrap_or(0.0);
        out.push_str(&format!("{{\"le\":{le},\"count\":{count}}}"));
    }
    out.push(']');
    out
}

fn render_parse_cache(pc: &Json) -> String {
    let field = |k: &str| pc.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    format!(
        "{{\"hits\":{},\"misses\":{},\"len\":{},\"capacity\":{}}}",
        field("hits"),
        field("misses"),
        field("len"),
        field("capacity")
    )
}
