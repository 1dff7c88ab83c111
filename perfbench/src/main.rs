//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload offline_trivia|serve_unique|serve_zipf --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics with tracing off;
//! with `--trace 1` it runs the per-layer probes and a traced copy of the
//! load instead (see `layers.rs`). Progress and tables go to stderr; the
//! last line of stdout is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A wrong output exits non-zero.

mod layers;
mod load;
mod scrape;
mod stats;
mod workload;

use gced::{Gced, GcedConfig};
use gced_serve::{ServeConfig, ServerHandle};
use load::PhaseResult;
use scrape::Scrape;
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Kind, Phases, Request, Workload};

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {name}"))
    };
    let name = flag("--workload")?;
    let kind = Kind::from_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = flag("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = flag("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".to_string());
    }
    let trace = match flag("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// One named measurement.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// A finished run: what the last stdout line reports.
#[derive(Default)]
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
    /// Output or accounting errors; any makes the run incorrect.
    pub problems: Vec<String>,
}

impl Report {
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.problems.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        out.push_str("}}");
        out
    }

    pub fn count_phase(&mut self, phase: &PhaseResult) {
        self.attempted += phase.sent;
        self.failed += phase.failed;
        if phase.inconsistent > 0 {
            self.problems.push(format!(
                "{}: {} responses differ from an earlier response to the same request",
                phase.name, phase.inconsistent
            ));
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                Kind::ALL.map(Kind::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = if args.trace {
        layers::run(args.kind, args.seed, args.seconds)
    } else {
        run_untraced(&args)
    };
    match outcome {
        Ok(mut report) => {
            // A percentile beyond which more requests failed than
            // succeeded reads as infinite: the run is not a measurement.
            for m in &mut report.metrics {
                if !m.value.is_finite() {
                    report.problems.push(format!("{} is not finite", m.name));
                    m.value = 0.0;
                }
            }
            for p in &report.problems {
                eprintln!("perfbench: INCORRECT: {p}");
            }
            println!("{}", report.json());
            if report.problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Client connections and concurrent callers: the machine's cores.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fitted pipeline over a generated workload, plus the in-process
/// server when one was started.
pub struct Setup {
    pub workload: Workload,
    pub gced: Gced,
    pub server: Option<ServerHandle>,
}

impl Setup {
    /// Generate, fit, and with `serve` start an untraced server and warm
    /// it up; without a server, warm the worker pool with one batch.
    pub fn new(kind: Kind, seed: u64, phases: &Phases, serve: bool) -> Result<Setup, String> {
        let workload = Workload::generate(kind, seed, phases);
        let gced = Gced::fit(&workload.fit, GcedConfig::default());
        let server = if serve {
            Some(start_server(&gced, &workload, false)?)
        } else {
            let items: Vec<(&str, &str, &str)> = workload.warmup.iter().map(triple).collect();
            let failed = gced
                .distill_batch(&items)
                .iter()
                .filter(|r| r.is_err())
                .count();
            if failed > 0 {
                return Err(format!("{failed} warm-up distillations failed"));
            }
            None
        };
        Ok(Setup {
            workload,
            gced,
            server,
        })
    }

    pub fn stop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
            server.join();
        }
    }
}

/// Start a server on an ephemeral port with the default configuration
/// (tracing as asked) and send the warm-up requests.
pub fn start_server(gced: &Gced, workload: &Workload, trace: bool) -> Result<ServerHandle, String> {
    let config = ServeConfig {
        trace,
        ..ServeConfig::default()
    };
    let server =
        gced_serve::start(gced.clone(), config).map_err(|e| format!("server start: {e}"))?;
    let bad = load::warm_up(server.addr(), &workload.warmup, nproc());
    if bad > 0 {
        server.shutdown();
        server.join();
        return Err(format!("{bad} warm-up requests did not answer 200"));
    }
    Ok(server)
}

pub fn triple(r: &Request) -> (&str, &str, &str) {
    (&r.question, &r.answer, &r.context)
}

pub fn describe(w: &Workload, seed: u64) {
    let distinct: std::collections::HashSet<u32> = w.stream.iter().copied().collect();
    eprintln!(
        "perfbench: workload {} seed {seed}: corpus {} distinct, stream {} ({} distinct), \
         open-loop {}+{} due over {} rounds, warm-up {}, digest {:032x}",
        w.kind.name(),
        w.corpus.len(),
        w.stream.len(),
        distinct.len(),
        workload::count(&w.light_due),
        workload::count(&w.busy_due),
        w.light_due.len(),
        w.warmup.len(),
        w.digest()
    );
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

fn run_untraced(args: &Args) -> Result<Report, String> {
    gced_obs::set_enabled(false);
    let phases = Phases::of(args.seconds);
    let serve = args.kind.is_serve();
    // `setup_s` is the median of several set-ups; all but the last are
    // stopped again at once, before anything is measured.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut setup: Option<Setup> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(mut previous) = setup.take() {
            previous.stop();
        }
        let t = Instant::now();
        setup = Some(Setup::new(args.kind, args.seed, &phases, serve)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut setup = setup.expect("at least one set-up");
    describe(&setup.workload, args.seed);
    let mut report = Report::default();
    let e2e = if serve {
        measure_serve(&mut setup, &phases, &mut report)?
    } else {
        measure_offline(&setup, &phases, &mut report)
    };
    let ms = |us: f64| us / 1e3;
    let wr: Vec<f64> = e2e.expected.values().map(|e| e.word_reduction).collect();
    let inf: Vec<f64> = e2e.expected.values().map(|e| e.informativeness).collect();
    report.metrics = vec![
        metric("setup_s", stats::median(&setup_s), "s"),
        metric("distill_per_s", e2e.distill_per_s, "1/s"),
        metric("goodput_rps", e2e.goodput_rps, "1/s"),
        metric("p50_ms.light", ms(stats::median(&e2e.light_us)), "ms"),
        metric("p50_ms.busy", ms(stats::median(&e2e.busy_us)), "ms"),
        metric("peak_rss_mb", stats::peak_rss_mb(), "MB"),
        metric("word_reduction", stats::mean(&wr), "ratio"),
        metric("informativeness", stats::mean(&inf), "ratio"),
    ];
    Ok(report)
}

/// What an untraced run measured, before it becomes named metrics.
struct EndToEnd {
    distill_per_s: f64,
    goodput_rps: f64,
    light_us: Vec<f64>,
    busy_us: Vec<f64>,
    expected: HashMap<u32, Expected>,
}

/// Offline, per round: `distill_batch` passes over the split, then
/// sequential (`light`) and `nproc`-concurrent (`busy`) `Gced::distill`
/// calls cycling through it.
fn measure_offline(setup: &Setup, phases: &Phases, report: &mut Report) -> EndToEnd {
    let gced = &setup.gced;
    let corpus = &setup.workload.corpus;
    let items: Vec<(&str, &str, &str)> = corpus.iter().map(triple).collect();
    let mut rates = Vec::new();
    let mut first_pass = None;
    let mut light = PhaseResult::named("light");
    let mut busy = PhaseResult::named("busy");
    let mut next = 0;
    for _ in 0..phases.rounds {
        let t0 = Instant::now();
        while rates.is_empty() || t0.elapsed() < phases.first {
            let t = Instant::now();
            let out = gced.distill_batch(&items);
            rates.push(items.len() as f64 / t.elapsed().as_secs_f64());
            report.attempted += out.len();
            report.failed += out.iter().filter(|r| r.is_err()).count();
            first_pass.get_or_insert(out);
        }
        for (phase, callers, span) in [
            (&mut light, 1, phases.second),
            (&mut busy, nproc(), phases.third),
        ] {
            let segment = distill_loop(gced, &items, next, callers, span);
            eprintln!("DBG callers={callers} p50={:.4} rate={:.1} lastbatch={:.1}", stats::median(&segment.latencies_us), segment.sent as f64 / segment.elapsed_s, rates.last().unwrap());
            next += segment.sent;
            phase.merge(segment);
        }
    }
    eprintln!(
        "perfbench: batch: {} passes of {}",
        rates.len(),
        items.len()
    );
    for phase in [&light, &busy] {
        eprintln!("perfbench: {}", phase.summary());
        report.count_phase(phase);
    }

    // Outside the timed window: the batch must equal sequential
    // `Gced::distill` element by element.
    let mut expected = HashMap::new();
    for (i, (&(q, a, c), batched)) in items.iter().zip(&first_pass.expect("a pass")).enumerate() {
        match (gced.distill(q, a, c), batched) {
            (Ok(seq), Ok(batched)) => {
                let want = render(&corpus[i], &seq);
                if want != render(&corpus[i], batched) {
                    report
                        .problems
                        .push(format!("distill_batch item {i} differs from Gced::distill"));
                }
                expected.insert(i as u32, Expected::new(want, &seq));
            }
            (Err(e), Err(f)) if e == *f => {}
            (seq, batched) => report.problems.push(format!(
                "distill_batch item {i}: {:?} but Gced::distill gave {:?}",
                batched.as_ref().err(),
                seq.err()
            )),
        }
    }
    EndToEnd {
        distill_per_s: stats::median(&rates),
        goodput_rps: busy.within_limit as f64 / busy.elapsed_s,
        light_us: light.latencies_us,
        busy_us: busy.latencies_us,
        expected,
    }
}

/// `callers` threads call `Gced::distill` back to back for `span`,
/// cycling through `items` from position `from`; latency per call.
fn distill_loop(
    gced: &Gced,
    items: &[(&str, &str, &str)],
    from: usize,
    callers: usize,
    span: Duration,
) -> PhaseResult {
    let cursor = std::sync::atomic::AtomicUsize::new(from);
    let start = Instant::now();
    let end = start + span;
    let mut total = PhaseResult::default();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..callers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = PhaseResult::default();
                    while Instant::now() < end {
                        let k = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let (q, a, c) = items[k % items.len()];
                        let t = Instant::now();
                        let ok = gced.distill(q, a, c).is_ok();
                        out.observe(ok.then(|| t.elapsed().as_secs_f64() * 1e6));
                    }
                    out
                })
            })
            .collect();
        for w in workers {
            total.merge(w.join().expect("distill caller"));
        }
    });
    total.elapsed_s = start.elapsed().as_secs_f64();
    total
}

/// What the serve phases observed, with `/metrics` snapshots taken
/// before the first segment and after the last.
pub struct Served {
    pub light: PhaseResult,
    pub busy: PhaseResult,
    pub closed: PhaseResult,
    pub first: Scrape,
    pub last: Scrape,
}

/// Run the rounds of `light`, `busy` and `closed` segments against the
/// set-up's server, checking the `/metrics` accounting after each
/// segment.
pub fn serve_phases(setup: &Setup, phases: &Phases, report: &mut Report) -> Result<Served, String> {
    let addr = setup
        .server
        .as_ref()
        .expect("serve set-up has a server")
        .addr();
    let w = &setup.workload;
    let conns = nproc();
    let streams = [w.light_stream(), w.busy_stream(), w.closed_stream()];
    let mut offsets = [0usize; 3];
    let mut results = ["light", "busy", "closed"].map(PhaseResult::named);
    let first = Scrape::take(addr)?;
    let mut before = Scrape::take(addr)?;
    for round in 0..phases.rounds {
        for (p, result) in results.iter_mut().enumerate() {
            let stream = streams[p].get(offsets[p]..).unwrap_or_default();
            let segment = match p {
                0 => load::open_loop(addr, &w.corpus, stream, &w.light_due[round], conns),
                1 => load::open_loop(addr, &w.corpus, stream, &w.busy_due[round], conns),
                _ => load::closed_loop(addr, &w.corpus, stream, conns, phases.third),
            };
            offsets[p] += segment.sent;
            let after = Scrape::take(addr)?;
            if let Err(e) = after.check_decomposition() {
                report.problems.push(format!("{}: {e}", result.name));
            }
            let requests = after.delta(&before, &["distill_requests_total"]);
            let ok = after.delta(&before, &["distill_ok"]);
            if ok != segment.ok as f64 || (segment.failed == 0 && requests != segment.sent as f64) {
                report.problems.push(format!(
                    "{}: client saw {} sent / {} ok, /metrics counted {requests} / {ok}",
                    result.name, segment.sent, segment.ok
                ));
            }
            result.merge(segment);
            before = after;
        }
    }
    for result in &results {
        eprintln!("perfbench: {}", result.summary());
        report.count_phase(result);
    }
    let [light, busy, closed] = results;
    Ok(Served {
        light,
        busy,
        closed,
        first,
        last: before,
    })
}

/// One expected distillation: its canonical response body and the
/// quality figures of the evidence.
pub struct Expected {
    pub body: String,
    pub word_reduction: f64,
    pub informativeness: f64,
}

impl Expected {
    fn new(body: String, d: &gced::Distillation) -> Expected {
        Expected {
            body,
            word_reduction: d.word_reduction,
            informativeness: d.scores.informativeness,
        }
    }
}

pub fn render(r: &Request, d: &gced::Distillation) -> String {
    gced_serve::wire::render_distillation_with_id(&gced_store::evidence_id(r.fp), d)
}

/// Check every served 200 body against the offline rendering of
/// `Gced::distill` on the same request (computed on `nproc` threads,
/// outside any timed window). Returns the expected results by corpus
/// index.
pub fn verify_served(
    gced: &Gced,
    corpus: &[Request],
    served: &Served,
    report: &mut Report,
) -> HashMap<u32, Expected> {
    let mut bodies: HashMap<u32, &Vec<u8>> = HashMap::new();
    for p in [&served.light, &served.busy, &served.closed] {
        for (i, body) in &p.bodies {
            if let Some(prev) = bodies.insert(*i, body) {
                if prev != body {
                    report
                        .problems
                        .push(format!("request {i}: phases served different bodies"));
                }
            }
        }
    }
    let mut indices: Vec<u32> = bodies.keys().copied().collect();
    indices.sort_unstable();
    let chunk = indices.len().div_ceil(nproc()).max(1);
    let computed: Vec<(u32, Result<Expected, String>)> = std::thread::scope(|s| {
        let workers: Vec<_> = indices
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|&i| {
                            let r = &corpus[i as usize];
                            let e = gced
                                .distill(&r.question, &r.answer, &r.context)
                                .map(|d| Expected::new(render(r, &d), &d))
                                .map_err(|e| e.to_string());
                            (i, e)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("verifier"))
            .collect()
    });
    let mut expected = HashMap::new();
    for (i, e) in computed {
        match e {
            Ok(e) if e.body.as_bytes() == bodies[&i].as_slice() => {
                expected.insert(i, e);
            }
            Ok(_) => report.problems.push(format!(
                "request {i}: served body differs from the offline rendering"
            )),
            Err(e) => report.problems.push(format!(
                "request {i}: served 200 but offline distill failed: {e}"
            )),
        }
    }
    expected
}

fn measure_serve(
    setup: &mut Setup,
    phases: &Phases,
    report: &mut Report,
) -> Result<EndToEnd, String> {
    let served = serve_phases(setup, phases, report);
    setup.stop();
    let served = served?;
    let expected = verify_served(&setup.gced, &setup.workload.corpus, &served, report);
    let closed = &served.closed;
    if closed.exhausted {
        report
            .problems
            .push("closed loop ran out of requests; provision a longer stream".to_string());
    }
    Ok(EndToEnd {
        distill_per_s: closed.ok as f64 / closed.elapsed_s,
        goodput_rps: closed.within_limit as f64 / closed.elapsed_s,
        light_us: served.light.latencies_us,
        busy_us: served.busy.latencies_us,
        expected,
    })
}
