//! `gced` — dataset-level experiment runner CLI.
//!
//! Subcommands:
//!
//! * `run <experiment>` — run an experiment, optionally split into
//!   `--shards N` worker **processes** (the driver re-invokes this
//!   binary with `shard` per shard, then merges) or `--in-process`
//!   shard threads on the persistent `gced-par` pool. Merged output is
//!   bit-identical for any shard count.
//! * `shard <experiment> --shard-index I --of N` — run one shard and
//!   write its JSON output (what the driver spawns).
//! * `merge <shard.json>…` — merge shard outputs produced by `shard`.
//! * `bench-check` — the CI bench-regression gate: compare fresh
//!   criterion medians against the committed `BENCH_pipeline.json`.
//! * `serve` — the warm, micro-batching online distillation server
//!   (`gced-serve`): fit once (or map a `--fit-cache` artifact), then
//!   answer `POST /v1/distill` until `POST /shutdown`.
//! * `distill` — one offline distillation printed in the exact wire
//!   format the server uses; CI byte-compares the two.
//! * `fit` — prebuild a fit-cache artifact and exit.
//!
//! Scale and seed resolve from `GCED_SCALE` / `GCED_SEED`, overridable
//! with `--scale` / `--seed`.

use gced_bench::gate;
use gced_datasets::{DatasetKind, ShardSpec};
use gced_eval::shard::{
    experiment, fit_fingerprint, load_or_fit, merge, run_shard, run_sharded_in_process, Experiment,
    ShardOutput, EXPERIMENTS,
};
use gced_eval::Scale;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
gced — sharded experiment runner for the Grow-and-Clip reproduction

USAGE:
  gced run <experiment> [--kind K] [--shards N] [--in-process]
           [--scale smoke|default|full] [--seed S] [--out PATH]
           [--fit-cache PATH] [--profile PATH]
  gced shard <experiment> --shard-index I --of N [--kind K]
           [--scale smoke|default|full] [--seed S] --out PATH
           [--fit-cache PATH]
  gced merge [--out PATH] <shard.json>...
  gced bench-check --baseline PATH --results DIR
           [--tolerance F] [--summary PATH]
  gced serve [--addr HOST:PORT] [--kind K] [--scale S] [--seed S]
           [--fit-cache PATH] [--batch-max N] [--flush-us N]
           [--queue-cap N] [--parse-cache N] [--warmup N]
           [--conn-max N] [--request-deadline-ms N]
           [--read-deadline-ms N] [--fault-plan SPEC]
           [--cache-entries N] [--cache-bytes N] [--cache-ttl-ops N]
           [--cache-shards N]
  gced probe --addr HOST:PORT --question Q --answer A --context C
           [--requests N] [--clients N] [--expect PATH] [--retries N]
           [--retry-base-ms N] [--retry-cap-ms N] [--seed S]
           [--repeat N] [--duplicates]
  gced distill --question Q --answer A --context C [--kind K]
           [--scale S] [--seed S] [--fit-cache PATH] [--out PATH]
           [--profile PATH]
  gced fit --fit-cache PATH [--kind K] [--scale S] [--seed S]
  gced analyze [--root DIR] [--json] [--out PATH]

EXPERIMENTS:
@EXPERIMENTS@
  Reports print the published figures next to the measured ones where
  the paper has them: as paper columns, or as a closing `paper:` line.

KINDS: squad11 (default), squad20, trivia-web, trivia-wiki

FIT CACHE:
  --fit-cache serializes the expensive fitted substrates (QA model,
  trigram LM, embeddings) to one artifact per run, so co-located
  shards map it instead of re-fitting identical state. `run` with
  worker processes fits once up front and hands every shard the
  artifact; without the flag a scratch artifact is used and removed
  with the shard files. `serve` and `distill` warm-start from the
  same artifact; `fit` prebuilds one and exits. A sweep of several
  tables over one kind shares one fit by passing each `run` the same
  --fit-cache path.

SERVE:
  `gced serve` answers POST /v1/distill with the micro-batching
  gced-serve server: requests coalesce (up to --batch-max, within
  --flush-us of the first arrival) into Gced::distill_batch calls on
  the persistent worker pool; a full queue (--queue-cap) sheds with
  503; GET /healthz and GET /metrics expose liveness and histograms;
  POST /shutdown drains in-flight batches and exits. Connections are
  persistent (HTTP/1.1 keep-alive, up to --conn-max requests each,
  idle-bounded by the read timeout). At startup the server pre-parses
  up to --warmup dev-corpus contexts of its fingerprint into the parse
  cache (0 disables; warmup counts land in /metrics). A served body is
  byte-identical to `gced distill` of the same input.

RESPONSE CACHE / EVIDENCE STORE:
  Every parseable distill request is fingerprinted (canonical request
  JSON, hashed) and probed against the gced-store response cache
  BEFORE the batch queue: a warm hit answers the exact stored bytes
  (still byte-identical to offline output) and skips coalescing
  entirely. Successful distillations are stored under a durable
  evidence id — the hex fingerprint, carried in the body and the
  X-Gced-Evidence-Id header — and replayed byte-identically by
  GET /v1/evidence/{id}. Sizing: --cache-entries (default 4096, 0
  disables), --cache-bytes (default 33554432), --cache-shards
  (default 8, rounded to a power of two), and --cache-ttl-ops, a
  LOGICAL TTL: an entry expires after N subsequent insertions into
  its shard (never wall-clock; 0 = no TTL). Eviction is LRU within
  each shard's entry/byte budget. X-Gced-Cache: hit|miss tags probed
  responses; cache_hits_total + cache_misses_total ==
  distill_requests_total in /metrics while the cache is on.

FAILURE MODEL:
  Queued requests carry a deadline (--request-deadline-ms, default
  10000, 0 disables): one that expires before its batch runs is shed
  with 503 + Retry-After. The request head+body must arrive within
  --read-deadline-ms total (default 30000, 0 disables; slow-loris
  protection) or the server answers 408. A panic inside a distill
  batch answers that batch 500 and the batcher survives; a dead
  batcher thread is restarted. --fault-plan (or the GCED_CHAOS env
  var) arms deterministic fault injection for chaos testing, e.g.
  'seed=42,batch_panic=0.1x3,torn_write=0.25' — sites: pre_batch_delay,
  batch_panic, batcher_kill, torn_write, read_stall; each
  <site>=<rate>[x<max-fires>][:<millis>]. Requires a binary built with
  the gced-serve `chaos` feature (on by default).

PROBE:
  `gced probe` is the retrying chaos client: it posts --requests
  copies of one distill request over --clients concurrent keep-alive
  sessions, riding out 500s, 503 sheds (honoring Retry-After), and
  torn connections with seeded, jittered exponential backoff
  (--retries budget per request). Every request must end in a 200 —
  and match the --expect file byte-for-byte when given — or the
  command exits nonzero. CI drives it against a fault-plan server to
  prove surviving responses stay byte-identical to offline output.
  After a successful run it prints a per-request latency summary
  (min/p50/p99/max in µs, retries and backoff included) estimated
  from the same fixed-bucket histogram the server's /metrics uses.
  --repeat N replays the whole workload N times (rounds after the
  first hit the server's response cache) and --duplicates posts every
  request twice back-to-back; when the server reports X-Gced-Cache
  headers the summary adds the observed hit rate plus separate
  hit-vs-miss latency quantiles from the same histogram code.

PROFILE:
  --profile PATH (on `distill` and `run`) enables the gced-obs span
  tracer and writes a Chrome trace-event JSON profile to PATH — load
  it in chrome://tracing or Perfetto — plus a per-stage text summary
  (calls, self/total ms) on stderr. Spans carry deterministic counter
  payloads (grow trials, prune counts, cache hits); only timings vary
  between runs, and output bytes never depend on the clock. For `run`
  the profile covers the driver process only: worker-process shards
  (`--shards N` without --in-process) trace nothing of their children.

ANALYZE:
  `gced analyze` runs the gced-analyze static pass over every .rs
  file under --root (default: the current directory): determinism
  lints DET001-DET004 (hash-order output, float accumulation outside
  the fixed-tree kernels, wall-clock reads, ambient randomness) and
  unsafe-hygiene lints SAFE001-SAFE002 (SAFETY comments, intrinsics
  under #[target_feature]). Exit 0 when clean, 1 on findings, 2 on
  usage errors. --json emits the machine-readable report. Suppress a
  single finding inline with `// gced-allow(LINT_ID): reason` on the
  finding's line or the line above; a suppression that suppresses
  nothing is itself a finding. See README \"Static analysis &
  sanitizers\" for the lint catalog.
";

/// The usage text, its experiment list drawn from the registry.
fn usage() -> String {
    let list: String = EXPERIMENTS
        .iter()
        .map(|e| format!("  {:<16} {}\n", e.name, e.help))
        .collect();
    USAGE.replace("@EXPERIMENTS@\n", &list)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("shard") => cmd_shard(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("bench-check") => cmd_bench_check(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("probe") => cmd_probe(&args[1..]),
        Some("distill") => cmd_distill(&args[1..]),
        Some("fit") => cmd_fit(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            print!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n\n{}", usage())),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("gced: {msg}");
            ExitCode::from(2)
        }
    }
}

// ---------------------------------------------------------------------------
// Argument parsing helpers
// ---------------------------------------------------------------------------

/// Split `args` into positionals and `--flag value` pairs.
struct Parsed {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    switches: Vec<String>,
}

/// Flags that take no value.
const SWITCHES: &[&str] = &["--in-process", "--json", "--fix", "--duplicates"];

fn parse_args(args: &[String]) -> Result<Parsed, String> {
    let mut parsed = Parsed {
        positional: Vec::new(),
        flags: Vec::new(),
        switches: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            if SWITCHES.contains(&a.as_str()) {
                parsed.switches.push(name.to_string());
            } else {
                let value = it
                    .next()
                    .ok_or_else(|| format!("flag --{name} needs a value"))?;
                parsed.flags.push((name.to_string(), value.clone()));
            }
        } else {
            parsed.positional.push(a.clone());
        }
    }
    Ok(parsed)
}

impl Parsed {
    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn usize_flag(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.flag(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name}: bad number {v:?}")),
            None => Ok(default),
        }
    }

    fn scale(&self) -> Result<(Scale, String), String> {
        if let Some(tag) = self.flag("scale") {
            let scale = match tag {
                "smoke" => Scale::smoke(),
                "full" => Scale::full(),
                "default" => Scale::default_bench(),
                other => return Err(format!("--scale: unknown scale {other:?}")),
            };
            return Ok((scale, tag.to_string()));
        }
        // Like `Scale::from_env`, unknown GCED_SCALE values fall back to
        // the default scale instead of erroring.
        let (scale, tag) = match std::env::var("GCED_SCALE").as_deref() {
            Ok("smoke") => (Scale::smoke(), "smoke"),
            Ok("full") => (Scale::full(), "full"),
            _ => (Scale::default_bench(), "default"),
        };
        Ok((scale, tag.to_string()))
    }

    fn seed(&self) -> Result<u64, String> {
        match self.flag("seed") {
            Some(v) => v.parse().map_err(|_| format!("--seed: bad number {v:?}")),
            None => Ok(Scale::seed_from_env()),
        }
    }

    fn kind(&self) -> Result<DatasetKind, String> {
        let flag = self.flag("kind").unwrap_or("squad11");
        DatasetKind::from_cli_flag(flag)
            .ok_or_else(|| format!("--kind: unknown dataset kind {flag:?}"))
    }
}

fn write_or_print(out: Option<&str>, text: &str) -> Result<(), String> {
    match out {
        Some(path) => {
            // `--out results/run3/table.txt` should not require the
            // caller to pre-create results/run3.
            ensure_parent_dir(Path::new(path))?;
            std::fs::write(path, text).map_err(|e| format!("cannot write output {path}: {e}"))
        }
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

/// Write a `--profile` capture: Chrome trace-event JSON to `path`
/// (chrome://tracing / Perfetto both load it) and the per-stage text
/// summary to stderr.
fn write_profile(path: &str, spans: &[(u64, gced_obs::SpanNode)]) -> Result<(), String> {
    ensure_parent_dir(Path::new(path))?;
    std::fs::write(path, gced_obs::chrome_trace(spans))
        .map_err(|e| format!("cannot write profile {path}: {e}"))?;
    eprint!("{}", gced_obs::stage_summary(spans));
    eprintln!("gced: profile trace written to {path}");
    Ok(())
}

/// Create the missing parent directories of an output path, naming both
/// the directory and the target in the error.
fn ensure_parent_dir(path: &Path) -> Result<(), String> {
    match path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => {
            std::fs::create_dir_all(parent).map_err(|e| {
                format!(
                    "cannot create parent directory {} for {}: {e}",
                    parent.display(),
                    path.display()
                )
            })
        }
        _ => Ok(()),
    }
}

// ---------------------------------------------------------------------------
// run
// ---------------------------------------------------------------------------

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let p = parse_args(args)?;
    let name = p
        .positional
        .first()
        .ok_or_else(|| format!("run: missing experiment name\n\n{}", usage()))?
        .clone();
    // Validate the name before the worker-process path pays for a fit
    // and spawns children that would all fail on it.
    let exp = experiment(&name).map_err(|e| e.to_string())?;
    let (scale, scale_flag) = p.scale()?;
    let seed = p.seed()?;
    let kind = p.kind()?;
    let shards = p.usize_flag("shards", 1)?;
    if shards == 0 {
        // The same error ShardSpec::new raises — the CLI must not
        // silently clamp what the spec layer rejects.
        return Err("--shards: shard count must be at least 1".to_string());
    }
    let fit_cache = p.flag("fit-cache").map(PathBuf::from);
    let profile = p.flag("profile").map(str::to_string);
    if profile.is_some() {
        // Ambient capture: every span opened anywhere in this process
        // (driver thread and the gced-par pool alike) is retained and
        // drained after the run. Worker-process shards are separate
        // binaries and contribute nothing — see PROFILE in the usage.
        gced_obs::set_enabled(true);
        gced_obs::set_ambient(true);
    }

    let merged = if shards == 1 {
        let output = run_shard(
            &name,
            kind,
            scale,
            seed,
            ShardSpec::single(),
            fit_cache.as_deref(),
        )
        .map_err(|e| e.to_string())?;
        report_fit_cache(&name, fit_cache.as_deref());
        merge(&[output]).map_err(|e| e.to_string())?
    } else if p.switch("in-process") {
        let merged = run_sharded_in_process(&name, kind, scale, seed, shards, fit_cache.as_deref())
            .map_err(|e| e.to_string())?;
        report_fit_cache(&name, fit_cache.as_deref());
        merged
    } else {
        run_sharded_processes(
            exp,
            kind,
            scale,
            scale_flag.as_str(),
            seed,
            shards,
            fit_cache,
        )?
    };
    if let Some(path) = &profile {
        write_profile(path, &gced_obs::drain_ambient())?;
    }
    write_or_print(p.flag("out"), &merged.render())?;
    Ok(ExitCode::SUCCESS)
}

/// Print the fit-cache artifact size (CI records it next to the bench
/// artifacts).
fn report_fit_cache(experiment: &str, path: Option<&Path>) {
    if let Some(path) = path {
        if let Ok(meta) = std::fs::metadata(path) {
            eprintln!(
                "gced: fit cache for {experiment}: {} ({} bytes)",
                path.display(),
                meta.len()
            );
        }
    }
}

/// Spawn one `gced shard` child process per shard (all concurrently),
/// collect their JSON outputs, and merge. Shard files land in a
/// per-invocation scratch dir keyed on the run identity plus a
/// process-unique nonce; a leftover dir from a crashed or concurrent
/// run with the same key fails loudly instead of risking a stale shard
/// JSON being merged.
#[allow(clippy::too_many_arguments)]
fn run_sharded_processes(
    exp: &Experiment,
    kind: DatasetKind,
    scale: Scale,
    scale_flag: &str,
    seed: u64,
    shards: usize,
    fit_cache: Option<PathBuf>,
) -> Result<gced_eval::MergedRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate gced binary: {e}"))?;
    let dir = std::env::temp_dir().join(format!(
        "gced-shards-{}-{}-{seed}-{}",
        exp.name,
        kind.cli_flag(),
        std::process::id()
    ));
    // create_dir (not create_dir_all) is the collision check: it fails
    // on an existing dir, so stale files can never be merged silently.
    std::fs::create_dir(&dir).map_err(|e| {
        format!(
            "cannot create shard scratch dir {}: {e}\n\
             (a concurrent run with the same experiment/seed, or leftovers \
             from a crashed run — remove the directory if it is stale)",
            dir.display()
        )
    })?;
    // Fit once in the driver and hand every shard the artifact; without
    // an explicit --fit-cache the artifact is scratch, removed with the
    // shard files below.
    let cache_path = if exp.needs_fit {
        let path = fit_cache.unwrap_or_else(|| dir.join("fit-cache.bin"));
        if let Err(e) = load_or_fit(kind, scale, seed, Some(&path)) {
            let _ = std::fs::remove_dir_all(&dir);
            return Err(e.to_string());
        }
        eprintln!(
            "gced: fit cache {} ({}, {} bytes)",
            path.display(),
            fit_fingerprint(kind, scale, seed),
            std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0)
        );
        Some(path)
    } else {
        None
    };
    let result = drive_shards(
        &exe,
        &dir,
        exp.name,
        kind,
        scale_flag,
        seed,
        shards,
        cache_path.as_deref(),
    );
    // Shard files are per-invocation scratch: remove them on failure
    // too, or failed runs would accumulate under the system temp dir.
    let _ = std::fs::remove_dir_all(&dir);
    result
}

#[allow(clippy::too_many_arguments)]
fn drive_shards(
    exe: &Path,
    dir: &Path,
    experiment: &str,
    kind: DatasetKind,
    scale_flag: &str,
    seed: u64,
    shards: usize,
    fit_cache: Option<&Path>,
) -> Result<gced_eval::MergedRun, String> {
    let shard_path = |i: usize| dir.join(format!("{experiment}-shard-{i}-of-{shards}.json"));
    let mut children = Vec::with_capacity(shards);
    for i in 0..shards {
        let mut cmd = std::process::Command::new(exe);
        cmd.arg("shard")
            .arg(experiment)
            .args(["--shard-index", &i.to_string()])
            .args(["--of", &shards.to_string()])
            .args(["--kind", kind.cli_flag()])
            .args(["--scale", scale_flag])
            .args(["--seed", &seed.to_string()])
            .arg("--out")
            .arg(shard_path(i));
        if let Some(cache) = fit_cache {
            cmd.arg("--fit-cache").arg(cache);
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn shard {i}: {e}"))?;
        children.push((i, child));
    }
    let mut failures = Vec::new();
    for (i, mut child) in children {
        let status = child
            .wait()
            .map_err(|e| format!("shard {i} did not finish: {e}"))?;
        if !status.success() {
            failures.push(format!("shard {i} exited with {status}"));
        }
    }
    if !failures.is_empty() {
        return Err(failures.join("; "));
    }
    let outputs = (0..shards)
        .map(|i| read_shard_file(&shard_path(i)))
        .collect::<Result<Vec<_>, _>>()?;
    merge(&outputs).map_err(|e| e.to_string())
}

fn read_shard_file(path: &Path) -> Result<ShardOutput, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read shard output {}: {e}", path.display()))?;
    ShardOutput::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// shard
// ---------------------------------------------------------------------------

fn cmd_shard(args: &[String]) -> Result<ExitCode, String> {
    let p = parse_args(args)?;
    let experiment = p
        .positional
        .first()
        .ok_or_else(|| format!("shard: missing experiment name\n\n{}", usage()))?;
    let index = p
        .flag("shard-index")
        .ok_or("shard: --shard-index is required")?
        .parse::<usize>()
        .map_err(|_| "shard: --shard-index: bad number".to_string())?;
    let of = p
        .flag("of")
        .ok_or("shard: --of is required")?
        .parse::<usize>()
        .map_err(|_| "shard: --of: bad number".to_string())?;
    let spec = ShardSpec::new(index, of)?;
    let (scale, _) = p.scale()?;
    let fit_cache = p.flag("fit-cache").map(PathBuf::from);
    let output = run_shard(
        experiment,
        p.kind()?,
        scale,
        p.seed()?,
        spec,
        fit_cache.as_deref(),
    )
    .map_err(|e| e.to_string())?;
    write_or_print(p.flag("out"), &output.to_json())?;
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// merge
// ---------------------------------------------------------------------------

fn cmd_merge(args: &[String]) -> Result<ExitCode, String> {
    let p = parse_args(args)?;
    if p.positional.is_empty() {
        return Err(format!("merge: no shard files given\n\n{}", usage()));
    }
    let outputs = p
        .positional
        .iter()
        .map(|f| read_shard_file(Path::new(f)))
        .collect::<Result<Vec<_>, _>>()?;
    let merged = merge(&outputs).map_err(|e| e.to_string())?;
    write_or_print(p.flag("out"), &merged.render())?;
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// bench-check
// ---------------------------------------------------------------------------

fn cmd_bench_check(args: &[String]) -> Result<ExitCode, String> {
    let p = parse_args(args)?;
    let baseline_path = p.flag("baseline").unwrap_or("BENCH_pipeline.json");
    let results_dir = PathBuf::from(p.flag("results").unwrap_or("target/gced-criterion"));
    let tolerance = match p.flag("tolerance") {
        Some(v) => v
            .parse::<f64>()
            .map_err(|_| format!("--tolerance: bad number {v:?}"))?,
        None => 0.35,
    };
    let baseline_text = std::fs::read_to_string(baseline_path)
        .map_err(|e| format!("cannot read baseline {baseline_path}: {e}"))?;
    let baseline = gate::parse_baseline(&baseline_text)?;
    let fresh = gate::load_results(&results_dir)?;
    let report = gate::compare(&baseline, &fresh, tolerance);
    let markdown = report.markdown();
    print!("{markdown}");
    if let Some(summary) = p.flag("summary") {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(summary)
            .map_err(|e| format!("cannot open summary {summary}: {e}"))?;
        f.write_all(markdown.as_bytes())
            .map_err(|e| format!("cannot write summary {summary}: {e}"))?;
    }
    Ok(if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

// ---------------------------------------------------------------------------
// serve / distill / fit
// ---------------------------------------------------------------------------

/// Resolve the warm pipeline for `serve`/`distill`: dataset kind, scale
/// and seed pick the fit; `--fit-cache` loads (or creates) the shared
/// artifact so start-up maps instead of re-fitting.
fn warm_pipeline(p: &Parsed) -> Result<(gced::Gced, String), String> {
    let (scale, _) = p.scale()?;
    let seed = p.seed()?;
    let kind = p.kind()?;
    let fit_cache = p.flag("fit-cache").map(PathBuf::from);
    if let Some(path) = &fit_cache {
        ensure_parent_dir(path)?;
    }
    let fitted = load_or_fit(kind, scale, seed, fit_cache.as_deref()).map_err(|e| e.to_string())?;
    Ok((fitted, fit_fingerprint(kind, scale, seed)))
}

/// The parse-cache warmup corpus of a fingerprint: the distinct dev
/// contexts of the dataset the pipeline was fitted for, capped at
/// `max_docs`. Deterministic and identical to the corpus first requests
/// are most likely to carry.
fn warmup_corpus(kind: DatasetKind, scale: Scale, seed: u64, max_docs: usize) -> Vec<String> {
    if max_docs == 0 {
        return Vec::new();
    }
    let ds = gced_datasets::generate(
        kind,
        gced_datasets::GeneratorConfig {
            train: scale.train,
            dev: scale.dev,
            seed,
        },
    );
    let mut seen = std::collections::HashSet::new();
    let mut docs = Vec::new();
    for ex in &ds.dev.examples {
        if seen.insert(ex.context.as_str()) {
            docs.push(ex.context.clone());
            if docs.len() >= max_docs {
                break;
            }
        }
    }
    docs
}

fn cmd_serve(args: &[String]) -> Result<ExitCode, String> {
    let p = parse_args(args)?;
    let mut config = gced_serve::ServeConfig {
        addr: p.flag("addr").unwrap_or("127.0.0.1:7314").to_string(),
        ..gced_serve::ServeConfig::default()
    };
    config.batch_max = p.usize_flag("batch-max", config.batch_max)?;
    config.queue_capacity = p.usize_flag("queue-cap", config.queue_capacity)?;
    config.parse_cache = p.usize_flag("parse-cache", config.parse_cache)?;
    config.max_requests_per_conn = p.usize_flag("conn-max", config.max_requests_per_conn)?;
    if config.max_requests_per_conn == 0 {
        return Err("serve: --conn-max must be at least 1".to_string());
    }
    let flush_us = p.usize_flag("flush-us", config.flush.as_micros() as usize)?;
    config.flush = std::time::Duration::from_micros(flush_us as u64);
    let deadline_ms = p.usize_flag(
        "request-deadline-ms",
        config.request_deadline.as_millis() as usize,
    )?;
    config.request_deadline = std::time::Duration::from_millis(deadline_ms as u64);
    let read_deadline_ms = p.usize_flag(
        "read-deadline-ms",
        config.read_deadline.as_millis() as usize,
    )?;
    config.read_deadline = std::time::Duration::from_millis(read_deadline_ms as u64);
    config.cache_entries = p.usize_flag("cache-entries", config.cache_entries)?;
    config.cache_bytes = p.usize_flag("cache-bytes", config.cache_bytes)?;
    config.cache_ttl_ops = p.usize_flag("cache-ttl-ops", config.cache_ttl_ops as usize)? as u64;
    config.cache_shards = p.usize_flag("cache-shards", config.cache_shards)?;
    // --fault-plan wins over the GCED_CHAOS env var (same grammar).
    let fault_spec = p
        .flag("fault-plan")
        .map(str::to_string)
        .or_else(|| std::env::var("GCED_CHAOS").ok().filter(|s| !s.is_empty()));
    if let Some(spec) = fault_spec {
        if !gced_serve::fault::ENABLED {
            return Err(
                "serve: this binary was built without the gced-serve `chaos` feature; \
                 --fault-plan / GCED_CHAOS cannot inject anything"
                    .to_string(),
            );
        }
        let plan = gced_serve::fault::FaultPlan::parse(&spec).map_err(|e| format!("serve: {e}"))?;
        if !plan.is_empty() {
            eprintln!("gced: CHAOS faults armed: {spec}");
        }
        config.fault_plan = Some(std::sync::Arc::new(plan));
    }
    let warmup_docs = p.usize_flag("warmup", usize::MAX)?;
    let (fitted, fingerprint) = warm_pipeline(&p)?;
    if config.parse_cache > 0 && warmup_docs > 0 {
        let (scale, _) = p.scale()?;
        config.warmup_docs = warmup_corpus(p.kind()?, scale, p.seed()?, warmup_docs);
    }
    // `start` consumes the warmup corpus; capture the banner fields
    // first so no second copy of the dev contexts outlives startup.
    let n_warmup = config.warmup_docs.len();
    // The cache plan as the server will actually run it: build a
    // throwaway store so the logged shard count reflects the
    // power-of-two / capacity clamping, not the raw flag.
    let cache_plan = {
        let probe = gced_store::ResponseStore::new(gced_store::StoreConfig {
            entries: config.cache_entries,
            bytes: config.cache_bytes,
            ttl_ops: config.cache_ttl_ops,
            shards: config.cache_shards,
        });
        if probe.enabled() {
            format!(
                "entries:{},bytes:{},ttl_ops:{},shards:{}",
                config.cache_entries,
                config.cache_bytes,
                config.cache_ttl_ops,
                probe.shard_count(),
            )
        } else {
            "off".to_string()
        }
    };
    let banner = format!(
        "batch_max={}, flush={}us, queue_cap={}, parse_cache={}, warmup_docs={n_warmup}, \
         conn_max={}, request_deadline={}ms, read_deadline={}ms, pool_threads={}, \
         cache={cache_plan}",
        config.batch_max,
        config.flush.as_micros(),
        config.queue_capacity,
        config.parse_cache,
        config.max_requests_per_conn,
        config.request_deadline.as_millis(),
        config.read_deadline.as_millis(),
        gced_par::effective_parallelism(),
    );
    let bind_addr = config.addr.clone();
    let handle =
        gced_serve::start(fitted, config).map_err(|e| format!("cannot bind {bind_addr}: {e}"))?;
    eprintln!(
        "gced: serving {fingerprint} on http://{} ({banner})",
        handle.addr()
    );
    handle.join();
    eprintln!("gced: server drained and stopped");
    Ok(ExitCode::SUCCESS)
}

/// The retrying chaos client (see PROBE in the usage text): posts one
/// distill request `--requests` times over `--clients` concurrent
/// sessions with `Session::post_with_retry`, requiring every request to
/// end 200 (and, with `--expect`, byte-identical to the given file).
/// `--repeat`/`--duplicates` replay the workload so later posts land in
/// the server's response cache; X-Gced-Cache headers then split the
/// latency summary into hit and miss quantiles.
fn cmd_probe(args: &[String]) -> Result<ExitCode, String> {
    let p = parse_args(args)?;
    let required = |name: &str| -> Result<String, String> {
        p.flag(name)
            .map(str::to_string)
            .ok_or_else(|| format!("probe: --{name} is required"))
    };
    let addr: std::net::SocketAddr = required("addr")?
        .parse()
        .map_err(|e| format!("probe: bad --addr: {e}"))?;
    let body = gced_serve::wire::render_request(&gced_serve::wire::DistillRequest {
        question: required("question")?,
        answer: required("answer")?,
        context: required("context")?,
    });
    let requests = p.usize_flag("requests", 16)?;
    let clients = p.usize_flag("clients", 4)?.max(1);
    let repeat = p.usize_flag("repeat", 1)?.max(1);
    let duplicates = p.switch("duplicates");
    let copies = if duplicates { 2usize } else { 1 };
    let retries = p.usize_flag("retries", 8)? as u32;
    let base = std::time::Duration::from_millis(p.usize_flag("retry-base-ms", 50)? as u64);
    let cap = std::time::Duration::from_millis(p.usize_flag("retry-cap-ms", 2000)? as u64);
    let seed = p.seed()?;
    let expect: Option<Vec<u8>> = match p.flag("expect") {
        Some(path) => Some(
            std::fs::read(path).map_err(|e| format!("probe: cannot read --expect {path}: {e}"))?,
        ),
        None => None,
    };
    let expect = expect.as_deref();
    let body = body.as_str();
    // Per-request wall latency (µs), retries and backoff included:
    // recorded into the same fixed-bucket histogram the server's
    // /metrics uses, so the p50/p99 estimates match its math. The
    // histogram cannot see past its last bound, so true min/max ride
    // alongside as atomics.
    let latency = gced_serve::metrics::Histogram::new(gced_serve::metrics::LATENCY_BOUNDS_US);
    let lat_min = std::sync::atomic::AtomicU64::new(u64::MAX);
    let lat_max = std::sync::atomic::AtomicU64::new(0);
    // Hit/miss split: requests tagged by the server's X-Gced-Cache
    // header land in their own histogram so --repeat/--duplicates runs
    // can show warm-hit latency separately from pipeline misses.
    let hit_latency = gced_serve::metrics::Histogram::new(gced_serve::metrics::LATENCY_BOUNDS_US);
    let miss_latency = gced_serve::metrics::Histogram::new(gced_serve::metrics::LATENCY_BOUNDS_US);
    let outcomes: Vec<Result<usize, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (latency, lat_min, lat_max) = (&latency, &lat_min, &lat_max);
                let (hit_latency, miss_latency) = (&hit_latency, &miss_latency);
                s.spawn(move || -> Result<usize, String> {
                    let policy = gced_serve::client::RetryPolicy {
                        budget: retries,
                        base,
                        cap,
                        seed: seed ^ (c as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
                    };
                    let mut session = connect_with_patience(addr)?;
                    let mut served = 0usize;
                    for round in 0..repeat {
                        for i in (c..requests).step_by(clients) {
                            for _copy in 0..copies {
                                let watch = gced_obs::clock::Stopwatch::start();
                                let r = session
                                    .post_with_retry("/v1/distill", body, &policy)
                                    .map_err(|e| {
                                        format!("client {c} round {round} request {i}: {e}")
                                    })?;
                                let us = watch.elapsed_ns() / 1_000;
                                latency.record(us);
                                lat_min.fetch_min(us, std::sync::atomic::Ordering::Relaxed);
                                lat_max.fetch_max(us, std::sync::atomic::Ordering::Relaxed);
                                match r.cache.as_deref() {
                                    Some("hit") => hit_latency.record(us),
                                    Some("miss") => miss_latency.record(us),
                                    _ => {}
                                }
                                if r.status != 200 {
                                    return Err(format!(
                                        "client {c} round {round} request {i}: \
                                         terminal status {}: {}",
                                        r.status,
                                        r.text()
                                    ));
                                }
                                if let Some(exp) = expect {
                                    if r.body != exp {
                                        return Err(format!(
                                            "client {c} round {round} request {i}: 200 body \
                                             differs from --expect ({} vs {} bytes)",
                                            r.body.len(),
                                            exp.len()
                                        ));
                                    }
                                }
                                served += 1;
                            }
                        }
                    }
                    Ok(served)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let mut served = 0usize;
    let mut failures = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(n) => served += n,
            Err(e) => failures.push(e),
        }
    }
    let expected = requests * repeat * copies;
    if !failures.is_empty() {
        return Err(format!(
            "probe: {} of {expected} requests failed:\n  {}",
            expected - served,
            failures.join("\n  ")
        ));
    }
    eprintln!(
        "gced: probe ok — {served} requests over {clients} clients all answered 200{}",
        if expect.is_some() {
            ", bodies byte-identical to --expect"
        } else {
            ""
        }
    );
    if latency.count() > 0 {
        eprintln!(
            "gced: probe latency (us, per request incl. retries): \
             min={} p50={:.0} p99={:.0} max={}",
            lat_min.load(std::sync::atomic::Ordering::Relaxed),
            latency.quantile(0.50),
            latency.quantile(0.99),
            lat_max.load(std::sync::atomic::Ordering::Relaxed),
        );
    }
    let (hits, misses) = (hit_latency.count(), miss_latency.count());
    if hits + misses > 0 {
        eprintln!(
            "gced: probe cache split: hits={hits} misses={misses} hit_rate={:.3}",
            hits as f64 / (hits + misses) as f64
        );
        if hits > 0 {
            eprintln!(
                "gced: probe hit latency (us): p50={:.0} p99={:.0}",
                hit_latency.quantile(0.50),
                hit_latency.quantile(0.99),
            );
        }
        if misses > 0 {
            eprintln!(
                "gced: probe miss latency (us): p50={:.0} p99={:.0}",
                miss_latency.quantile(0.50),
                miss_latency.quantile(0.99),
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Dial the probe target, tolerating a server that is still starting
/// up (CI launches `gced serve` in the background).
fn connect_with_patience(
    addr: std::net::SocketAddr,
) -> Result<gced_serve::client::Session, String> {
    // gced-allow(DET003): startup-patience deadline for the probe's first connect — bounds the wait, never reaches a result
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    loop {
        match gced_serve::client::Session::connect(addr) {
            Ok(s) => return Ok(s),
            // gced-allow(DET003): same startup-patience clock as the deadline above
            Err(e) if std::time::Instant::now() >= deadline => {
                return Err(format!("probe: cannot connect to {addr}: {e}"))
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(250)),
        }
    }
}

fn cmd_distill(args: &[String]) -> Result<ExitCode, String> {
    let p = parse_args(args)?;
    let required = |name: &str| -> Result<String, String> {
        p.flag(name)
            .map(str::to_string)
            .ok_or_else(|| format!("distill: --{name} is required"))
    };
    let question = required("question")?;
    let answer = required("answer")?;
    let context = required("context")?;
    let profile = p.flag("profile").map(str::to_string);
    let (fitted, _) = warm_pipeline(&p)?;
    // The exact response-body bytes the server produces for this input
    // (tests/serve_parity.rs and the CI smoke job byte-compare them).
    // --profile traces the same call: the body bytes are identical
    // either way (timings never reach the output).
    let (result, tree) = if profile.is_some() {
        gced_obs::set_enabled(true);
        fitted.distill_traced(&question, &answer, &context)
    } else {
        (fitted.distill(&question, &answer, &context), None)
    };
    if let Some(path) = &profile {
        let spans: Vec<(u64, gced_obs::SpanNode)> = tree.into_iter().map(|t| (1, t)).collect();
        write_profile(path, &spans)?;
    }
    // The body leads with the same evidence_id the server would assign:
    // the id is a pure function of the request (hex fingerprint), so
    // offline output stays byte-identical to served and replayed bytes.
    let evidence_id = gced_store::evidence_id(gced_store::request_fingerprint(
        &question, &answer, &context,
    ));
    let (body, code) = match result {
        Ok(d) => (
            gced_serve::wire::render_distillation_with_id(&evidence_id, &d),
            ExitCode::SUCCESS,
        ),
        Err(e) => (
            gced_serve::wire::render_error(&e.to_string()),
            ExitCode::FAILURE,
        ),
    };
    write_or_print(p.flag("out"), &body)?;
    Ok(code)
}

fn cmd_fit(args: &[String]) -> Result<ExitCode, String> {
    let p = parse_args(args)?;
    if p.flag("fit-cache").is_none() {
        return Err("fit: --fit-cache is required (the artifact to build)".to_string());
    }
    let (_, fingerprint) = warm_pipeline(&p)?;
    let path = p.flag("fit-cache").expect("checked above");
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    eprintln!("gced: fit cache {path} ready ({fingerprint}, {bytes} bytes)");
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// analyze
// ---------------------------------------------------------------------------

fn cmd_analyze(args: &[String]) -> Result<ExitCode, String> {
    let p = parse_args(args)?;
    if p.switch("fix") {
        return Err(
            "analyze: there is no --fix, deliberately. Every finding is an \
                    invariant decision: sort the iteration (DET001), route the \
                    reduction through gced_nn::kernels (DET002), move the clock read \
                    into a timing module (DET003/DET004), or write down the SAFETY \
                    argument (SAFE001/SAFE002). If the code is right as written, say \
                    why inline: // gced-allow(LINT_ID): reason"
                .to_string(),
        );
    }
    let root = PathBuf::from(p.flag("root").unwrap_or("."));
    let report = gced_analyze::analyze(&root)?;
    let text = if p.switch("json") {
        report.render_json()
    } else {
        report.render_text()
    };
    write_or_print(p.flag("out"), &text)?;
    Ok(if report.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
