//! Load generation against an in-process server: open-loop phases with
//! Poisson due times and a closed-loop phase, each over at most `nproc`
//! keep-alive connections from this process.

use crate::workload::{Request, LATENCY_LIMIT_MS};
use gced_serve::client::{Response, Session};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// What one phase observed. Latencies are in microseconds; a failed
/// request is recorded as an infinite latency, so it misses every limit
/// and sits beyond every percentile.
#[derive(Debug, Default)]
pub struct PhaseResult {
    pub name: &'static str,
    pub sent: usize,
    pub ok: usize,
    pub failed: usize,
    pub latencies_us: Vec<f64>,
    /// `(X-Gced-Request-Id, latency)` of every 200.
    pub request_ids: Vec<(u64, f64)>,
    /// How late the generator sent each request it had to wait for.
    pub late_us: Vec<f64>,
    /// 200s within [`LATENCY_LIMIT_MS`].
    pub within_limit: usize,
    pub elapsed_s: f64,
    /// The stream ran out before the phase's time did.
    pub exhausted: bool,
    /// First body seen per corpus index.
    pub bodies: HashMap<u32, Vec<u8>>,
    /// Responses whose body differed from an earlier one for the same
    /// request.
    pub inconsistent: usize,
}

impl PhaseResult {
    pub fn named(name: &'static str) -> PhaseResult {
        PhaseResult {
            name,
            ..PhaseResult::default()
        }
    }

    /// Count one call: `Some(latency)` for a success, `None` for a
    /// failure.
    pub fn observe(&mut self, latency_us: Option<f64>) {
        self.sent += 1;
        match latency_us {
            Some(us) => {
                self.ok += 1;
                self.latencies_us.push(us);
                if us <= LATENCY_LIMIT_MS * 1e3 {
                    self.within_limit += 1;
                }
            }
            None => {
                self.failed += 1;
                self.latencies_us.push(f64::INFINITY);
            }
        }
    }

    fn record(&mut self, index: u32, outcome: std::io::Result<Response>, latency: Duration) {
        let r = match outcome {
            Ok(r) if r.status == 200 => r,
            _ => return self.observe(None),
        };
        let us = latency.as_secs_f64() * 1e6;
        self.observe(Some(us));
        if let Some(id) = r.request_id {
            self.request_ids.push((id, us));
        }
        match self.bodies.get(&index) {
            Some(prev) if *prev != r.body => self.inconsistent += 1,
            Some(_) => {}
            None => {
                self.bodies.insert(index, r.body);
            }
        }
    }

    /// Fold another worker's or round's observations into this one.
    pub fn merge(&mut self, other: PhaseResult) {
        self.elapsed_s += other.elapsed_s;
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.latencies_us.extend(other.latencies_us);
        self.request_ids.extend(other.request_ids);
        self.late_us.extend(other.late_us);
        self.within_limit += other.within_limit;
        self.exhausted |= other.exhausted;
        self.inconsistent += other.inconsistent;
        for (index, body) in other.bodies {
            match self.bodies.get(&index) {
                Some(prev) if *prev != body => self.inconsistent += 1,
                Some(_) => {}
                None => {
                    self.bodies.insert(index, body);
                }
            }
        }
    }

    pub fn summary(&self) -> String {
        format!(
            "{}: sent {} ok {} failed {} in {:.2}s{}",
            self.name,
            self.sent,
            self.ok,
            self.failed,
            self.elapsed_s,
            if self.exhausted {
                " (stream exhausted)"
            } else {
                ""
            }
        )
    }
}

/// A keep-alive connection that redials when the server closes it (the
/// server ends a connection after `max_requests_per_conn` requests) or
/// an exchange fails.
struct Conn {
    addr: SocketAddr,
    session: Option<Session>,
}

impl Conn {
    fn new(addr: SocketAddr) -> Conn {
        Conn {
            addr,
            session: Session::connect(addr).ok(),
        }
    }

    fn post(&mut self, body: &str) -> std::io::Result<Response> {
        let session = match &mut self.session {
            Some(s) => s,
            None => self.session.insert(Session::connect(self.addr)?),
        };
        let outcome = session.post("/v1/distill", body);
        if !matches!(&outcome, Ok(r) if r.keep_alive) {
            self.session = None;
        }
        outcome
    }
}

/// Send `requests` (corpus indices) as warm-up, `conns` at a time,
/// without timing; returns the number that did not answer 200.
pub fn warm_up(addr: SocketAddr, requests: &[Request], conns: usize) -> usize {
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = Conn::new(addr);
                    let mut bad = 0;
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(r) = requests.get(i) else { return bad };
                        if !matches!(conn.post(&r.body), Ok(resp) if resp.status == 200) {
                            bad += 1;
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("warm-up thread"))
            .sum()
    })
}

/// Open loop: request `k` is due at `start + due[k]` whatever happened
/// to earlier ones; `conns` connections take the next due request as
/// soon as they are free. Latency runs from the due time, so a stall
/// charges the wait it imposes on later requests.
pub fn open_loop(
    addr: SocketAddr,
    corpus: &[Request],
    stream: &[u32],
    due: &[Duration],
    conns: usize,
) -> PhaseResult {
    let n = stream.len().min(due.len());
    let cursor = AtomicUsize::new(0);
    let mut conns_ready: Vec<Conn> = (0..conns).map(|_| Conn::new(addr)).collect();
    // A short lead lets every worker reach its first wait before the
    // first request is due.
    let start = Instant::now() + Duration::from_millis(20);
    let mut total = PhaseResult::default();
    std::thread::scope(|s| {
        let workers: Vec<_> = conns_ready
            .drain(..)
            .map(|mut conn| {
                let cursor = &cursor;
                s.spawn(move || {
                    let mut out = PhaseResult::default();
                    loop {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        if k >= n {
                            return out;
                        }
                        let due_at = start + due[k];
                        let now = Instant::now();
                        if now < due_at {
                            std::thread::sleep(due_at - now);
                            out.late_us.push(due_at.elapsed().as_secs_f64() * 1e6);
                        }
                        let index = stream[k];
                        let outcome = conn.post(&corpus[index as usize].body);
                        out.record(index, outcome, due_at.elapsed());
                    }
                })
            })
            .collect();
        for w in workers {
            total.merge(w.join().expect("open-loop worker"));
        }
    });
    total.elapsed_s = start.elapsed().as_secs_f64();
    total
}

/// Closed loop: `conns` connections send back to back for `span` (or
/// until the stream runs out); latency runs from each send.
pub fn closed_loop(
    addr: SocketAddr,
    corpus: &[Request],
    stream: &[u32],
    conns: usize,
    span: Duration,
) -> PhaseResult {
    let cursor = AtomicUsize::new(0);
    let mut conns_ready: Vec<Conn> = (0..conns).map(|_| Conn::new(addr)).collect();
    let start = Instant::now();
    let end = start + span;
    let mut total = PhaseResult::default();
    std::thread::scope(|s| {
        let workers: Vec<_> = conns_ready
            .drain(..)
            .map(|mut conn| {
                let cursor = &cursor;
                s.spawn(move || {
                    let mut out = PhaseResult::default();
                    while Instant::now() < end {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&index) = stream.get(k) else {
                            out.exhausted = true;
                            break;
                        };
                        let sent_at = Instant::now();
                        let outcome = conn.post(&corpus[index as usize].body);
                        out.record(index, outcome, sent_at.elapsed());
                    }
                    out
                })
            })
            .collect();
        for w in workers {
            total.merge(w.join().expect("closed-loop worker"));
        }
    });
    total.elapsed_s = start.elapsed().as_secs_f64();
    total
}
