//! The benchmark's workloads, generated deterministically from a seed.
//!
//! The program under test only ever sees the generated inputs: a fitting
//! dataset, a corpus of distinct `(question, answer, context)` requests,
//! the order they are sent in, and the Poisson due times of the
//! open-loop phases. [`Workload::digest`] hashes all of that, so two runs
//! with the same seed provably drive the same traffic.

use gced_datasets::{generate, Dataset, DatasetKind, GeneratorConfig, QaExample};
use gced_serve::wire::{render_request, DistillRequest};
use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// The fitted pipeline is the system under test, so it does not vary
/// with the run's seed: it is fitted on the dataset this seed generates
/// (at the repository's default benchmark scale, 360 train / 120 dev).
/// The run's seed draws the traffic.
pub const FIT_SEED: u64 = 42;
pub const FIT_TRAIN: usize = 360;
pub const FIT_DEV: usize = 120;
/// Size of the offline TriviaQA-Web dev split.
pub const OFFLINE_SPLIT: usize = 2000;
/// Ranks of the Zipf corpus: far more distinct requests than the
/// response store's default 4096 entries, so hits, misses, inserts and
/// evictions all occur. Only sampled ranks are generated.
pub const ZIPF_RANKS: usize = 1 << 17;
pub const ZIPF_EXPONENT: f64 = 1.1;
/// Open-loop arrival rates (requests/s). With tracing off the default
/// server answers ~680 req/s closed-loop over `nproc = 2` connections
/// on a 2-core machine (~510 with tracing on). `busy` is under a third
/// of that and `light` under a sixth: on a shared VM that loses CPU to
/// steal in bursts, 320 req/s saturated the server in some runs (busy
/// p90 of 35–70 ms) and not in others.
pub const LIGHT_RPS: f64 = 100.0;
pub const BUSY_RPS: f64 = 200.0;
/// Latency limit a request must meet to count towards goodput.
pub const LATENCY_LIMIT_MS: f64 = 20.0;
/// Requests (or offline distillations) sent before timing starts.
pub const WARMUP_REQUESTS: usize = 64;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// TriviaQA-Web dev split through `Gced::distill_batch`, no server.
    OfflineTrivia,
    /// Distinct SQuAD-1.1 requests: every request misses the cache.
    ServeUnique,
    /// SQuAD-1.1 requests sampled Zipf(1.1) from a corpus larger than the
    /// response store.
    ServeZipf,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::OfflineTrivia, Kind::ServeUnique, Kind::ServeZipf];

    pub fn name(self) -> &'static str {
        match self {
            Kind::OfflineTrivia => "offline_trivia",
            Kind::ServeUnique => "serve_unique",
            Kind::ServeZipf => "serve_zipf",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn is_serve(self) -> bool {
        self != Kind::OfflineTrivia
    }

    fn dataset(self) -> DatasetKind {
        match self {
            Kind::OfflineTrivia => DatasetKind::TriviaWeb,
            Kind::ServeUnique | Kind::ServeZipf => DatasetKind::Squad11,
        }
    }

    /// Closed-loop rate the request stream is provisioned for; a phase
    /// that exhausts the stream ends early and says so.
    fn closed_max_rps(self) -> f64 {
        match self {
            Kind::ServeUnique => 1_500.0,
            // Mostly cache hits: the offline split cycles when served.
            Kind::OfflineTrivia | Kind::ServeZipf => 6_000.0,
        }
    }
}

/// Length of one round of a run. A run cycles through all its phases
/// once per round, so slow drifts in machine speed fall on every phase
/// alike instead of on whichever phase ran during them.
const ROUND_SECONDS: f64 = 3.0;

/// How one run splits its measured seconds: `rounds` rounds, each
/// running the three phases for `first`, `second` and `third`. Serve
/// workloads run the `light` and `busy` open-loop phases, then the
/// closed loop; the offline workload runs `distill_batch` passes, then
/// sequential (`light`) and `nproc`-concurrent (`busy`) distillations.
#[derive(Debug, Clone, Copy)]
pub struct Phases {
    pub rounds: usize,
    pub first: Duration,
    pub second: Duration,
    pub third: Duration,
}

impl Phases {
    pub fn of(seconds: f64) -> Phases {
        let rounds = (seconds / ROUND_SECONDS).round().max(1.0) as usize;
        let round = seconds / rounds as f64;
        Phases {
            rounds,
            first: Duration::from_secs_f64(round * 0.4),
            second: Duration::from_secs_f64(round * 0.4),
            third: Duration::from_secs_f64(round * 0.2),
        }
    }
}

/// One distinct request with its fingerprint and rendered JSON body.
#[derive(Debug, Clone)]
pub struct Request {
    pub question: String,
    pub answer: String,
    pub context: String,
    pub fp: u128,
    pub body: String,
}

impl Request {
    fn from_example(ex: &QaExample) -> Request {
        let fp = gced_store::request_fingerprint(&ex.question, &ex.answer, &ex.context);
        let body = render_request(&DistillRequest {
            question: ex.question.clone(),
            answer: ex.answer.clone(),
            context: ex.context.clone(),
        });
        Request {
            question: ex.question.clone(),
            answer: ex.answer.clone(),
            context: ex.context.clone(),
            fp,
            body,
        }
    }
}

/// Everything a run sends, generated from `(kind, seed, phases)`.
pub struct Workload {
    pub kind: Kind,
    /// The dataset the pipeline is fitted on.
    pub fit: Dataset,
    /// Distinct requests (for the offline workload: the dev split).
    pub corpus: Vec<Request>,
    /// Send order as corpus indices: the `light` segments take the
    /// first requests, the `busy` segments the next, and the closed loop
    /// the rest.
    pub stream: Vec<u32>,
    /// Per round, the due offsets of the open-loop segments from their
    /// start.
    pub light_due: Vec<Vec<Duration>>,
    pub busy_due: Vec<Vec<Duration>>,
    /// Warm-up requests, disjoint from the corpus.
    pub warmup: Vec<Request>,
}

impl Workload {
    pub fn generate(kind: Kind, seed: u64, phases: &Phases) -> Workload {
        let mut rng = SplitMix::new(seed ^ 0x6ced_be9c_0000_0000);
        let light_due: Vec<Vec<Duration>> = (0..phases.rounds)
            .map(|_| poisson_schedule(&mut rng, LIGHT_RPS, phases.first))
            .collect();
        let busy_due: Vec<Vec<Duration>> = (0..phases.rounds)
            .map(|_| poisson_schedule(&mut rng, BUSY_RPS, phases.second))
            .collect();
        let open = count(&light_due) + count(&busy_due);
        let closed_s = phases.third.as_secs_f64() * phases.rounds as f64;
        let closed = (kind.closed_max_rps() * closed_s).ceil() as usize;
        let dataset = kind.dataset();
        let fit = generate(
            dataset,
            GeneratorConfig {
                train: FIT_TRAIN,
                dev: FIT_DEV,
                seed: FIT_SEED,
            },
        );
        let warmup = distinct(&fit.dev.examples, &HashSet::new(), WARMUP_REQUESTS);
        let exclude = fingerprints(&warmup);
        let (corpus, stream) = match kind {
            Kind::OfflineTrivia => {
                // The traced run also serves the split; it cycles
                // through it as often as the phases need.
                let corpus = fresh_requests(dataset, OFFLINE_SPLIT, seed, &exclude);
                let stream = (0..open + closed)
                    .map(|k| (k % corpus.len()) as u32)
                    .collect();
                (corpus, stream)
            }
            Kind::ServeUnique => {
                let corpus = fresh_requests(dataset, open + closed, seed, &exclude);
                let stream = (0..corpus.len() as u32).collect();
                (corpus, stream)
            }
            Kind::ServeZipf => zipf_stream(dataset, seed, open + closed, &mut rng, exclude),
        };
        Workload {
            kind,
            fit,
            corpus,
            stream,
            light_due,
            busy_due,
            warmup,
        }
    }

    /// 128-bit digest of the request stream: every sent fingerprint in
    /// order, the open-loop due times, and the warm-up fingerprints.
    pub fn digest(&self) -> u128 {
        let mut bytes = Vec::with_capacity(16 * (self.stream.len() + self.warmup.len()) + 64);
        bytes.extend_from_slice(self.kind.name().as_bytes());
        for &i in &self.stream {
            bytes.extend_from_slice(&self.corpus[i as usize].fp.to_le_bytes());
        }
        for due in self.light_due.iter().chain(&self.busy_due).flatten() {
            bytes.extend_from_slice(&(due.as_nanos() as u64).to_le_bytes());
        }
        for w in &self.warmup {
            bytes.extend_from_slice(&w.fp.to_le_bytes());
        }
        gced_store::fingerprint_bytes(&bytes)
    }

    /// Corpus indices of the open-loop phases and of the closed loop.
    pub fn light_stream(&self) -> &[u32] {
        &self.stream[..count(&self.light_due).min(self.stream.len())]
    }

    pub fn busy_stream(&self) -> &[u32] {
        let start = count(&self.light_due).min(self.stream.len());
        let end = (start + count(&self.busy_due)).min(self.stream.len());
        &self.stream[start..end]
    }

    pub fn closed_stream(&self) -> &[u32] {
        let start = (count(&self.light_due) + count(&self.busy_due)).min(self.stream.len());
        &self.stream[start..]
    }
}

/// Arrivals over all rounds.
pub fn count(due: &[Vec<Duration>]) -> usize {
    due.iter().map(Vec::len).sum()
}

fn fingerprints(requests: &[Request]) -> HashSet<u128> {
    requests.iter().map(|r| r.fp).collect()
}

/// Up to `limit` requests from `examples` with distinct fingerprints,
/// skipping any in `exclude`, in example order.
fn distinct(examples: &[QaExample], exclude: &HashSet<u128>, limit: usize) -> Vec<Request> {
    let mut seen = exclude.clone();
    let mut out = Vec::new();
    for ex in examples {
        if out.len() >= limit {
            break;
        }
        let r = Request::from_example(ex);
        if seen.insert(r.fp) {
            out.push(r);
        }
    }
    out
}

/// `n` requests with distinct fingerprints from dev splits generated
/// from the run's seed, answerable ones only, skipping `exclude`.
fn fresh_requests(kind: DatasetKind, n: usize, seed: u64, exclude: &HashSet<u128>) -> Vec<Request> {
    let mut seen = exclude.clone();
    let mut out = Vec::with_capacity(n);
    let mut round = 0u64;
    while out.len() < n {
        round += 1;
        let ds = generate(
            kind,
            GeneratorConfig {
                train: 0,
                dev: n - out.len() + 64,
                seed: SplitMix::new(seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next(),
            },
        );
        for ex in ds.dev.examples.iter().filter(|e| e.answerable) {
            let r = Request::from_example(ex);
            if out.len() < n && seen.insert(r.fp) {
                out.push(r);
            }
        }
    }
    out
}

/// `n` Zipf-sampled requests. Rank `r` is generated from its own seed,
/// so only the ranks the stream samples are materialized; the corpus
/// holds them in order of first appearance.
fn zipf_stream(
    kind: DatasetKind,
    seed: u64,
    n: usize,
    rng: &mut SplitMix,
    mut seen: HashSet<u128>,
) -> (Vec<Request>, Vec<u32>) {
    let zipf = Zipf::new(ZIPF_RANKS, ZIPF_EXPONENT);
    let mut index_of: HashMap<u32, u32> = HashMap::new();
    let mut corpus = Vec::new();
    let mut stream = Vec::with_capacity(n);
    for _ in 0..n {
        let rank = zipf.sample(rng);
        let index = *index_of.entry(rank).or_insert_with(|| {
            corpus.push(rank_request(kind, seed, rank, &mut seen));
            corpus.len() as u32 - 1
        });
        stream.push(index);
    }
    (corpus, stream)
}

/// The request of one Zipf rank, re-rolled until its fingerprint is new.
fn rank_request(kind: DatasetKind, seed: u64, rank: u32, seen: &mut HashSet<u128>) -> Request {
    for salt in 0u64.. {
        let ds = generate(
            kind,
            GeneratorConfig {
                train: 0,
                dev: 1,
                seed: SplitMix::new(seed ^ (u64::from(rank) << 20) ^ salt).next(),
            },
        );
        let r = Request::from_example(&ds.dev.examples[0]);
        if seen.insert(r.fp) {
            return r;
        }
    }
    unreachable!("an unbounded re-roll finds a new request")
}

/// Poisson arrivals at `rate` per second over `span`, as offsets.
fn poisson_schedule(rng: &mut SplitMix, rate: f64, span: Duration) -> Vec<Duration> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= span.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Inverse-CDF sampler of ranks `0..n` with `P(r) ∝ (r + 1)^-s`.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                total += 1.0 / ((r + 1) as f64).powf(s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    fn sample(&self, rng: &mut SplitMix) -> u32 {
        let total = *self.cumulative.last().expect("non-empty corpus");
        let x = rng.unit() * total;
        let r = self.cumulative.partition_point(|&c| c <= x);
        r.min(self.cumulative.len() - 1) as u32
    }
}

/// splitmix64: a tiny seeded generator, so the stream depends on nothing
/// but the seed.
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(kind: Kind, seed: u64) -> Workload {
        Workload::generate(kind, seed, &Phases::of(2.0))
    }

    #[test]
    fn same_seed_same_digest() {
        for kind in Kind::ALL {
            assert_eq!(small(kind, 7).digest(), small(kind, 7).digest(), "{kind:?}");
            assert_ne!(small(kind, 7).digest(), small(kind, 8).digest(), "{kind:?}");
        }
    }

    #[test]
    fn serve_unique_has_no_duplicate_fingerprint() {
        let w = small(Kind::ServeUnique, 3);
        let mut seen = fingerprints(&w.warmup);
        for &i in &w.stream {
            assert!(
                seen.insert(w.corpus[i as usize].fp),
                "duplicate request {i}"
            );
        }
        assert!(w.stream.len() >= count(&w.light_due) + count(&w.busy_due));
    }

    #[test]
    fn serve_zipf_has_more_distinct_requests_than_the_store_holds() {
        // A full-length stream (the benchmark's 30 s run).
        let w = Workload::generate(Kind::ServeZipf, 3, &Phases::of(30.0));
        let capacity = gced_store::StoreConfig::default().entries;
        assert!(ZIPF_RANKS > capacity);
        assert!(fingerprints(&w.corpus).len() > capacity);
        assert_eq!(fingerprints(&w.corpus).len(), w.corpus.len());
        let sent: HashSet<u32> = w.stream.iter().copied().collect();
        assert_eq!(sent.len(), w.corpus.len());
        assert!(
            sent.len() < w.stream.len(),
            "Zipf sampling repeats requests"
        );
        assert!(fingerprints(&w.warmup).is_disjoint(&fingerprints(&w.corpus)));
    }

    #[test]
    fn offline_split_is_answerable_and_distinct() {
        let w = small(Kind::OfflineTrivia, 5);
        assert_eq!(w.fit.kind, DatasetKind::TriviaWeb);
        assert_eq!(w.corpus.len(), OFFLINE_SPLIT);
        assert_eq!(fingerprints(&w.corpus).len(), w.corpus.len());
        assert!(w.corpus.iter().all(|r| r.context.contains(&r.answer)));
    }

    #[test]
    fn poisson_schedule_matches_its_rate() {
        let mut rng = SplitMix::new(1);
        let due = poisson_schedule(&mut rng, 200.0, Duration::from_secs(20));
        let n = due.len() as f64;
        assert!((3_700.0..4_300.0).contains(&n), "{n} arrivals");
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
    }
}
