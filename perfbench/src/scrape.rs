//! `GET /metrics` snapshots: counter deltas over a phase, histogram
//! deltas, and the exact decomposition the server promises.

use crate::stats;
use gced_datasets::json::{self, Json};
use gced_serve::client;
use std::net::SocketAddr;

pub struct Scrape {
    root: Json,
}

impl Scrape {
    pub fn take(addr: SocketAddr) -> Result<Scrape, String> {
        let r = client::get(addr, "/metrics").map_err(|e| format!("GET /metrics: {e}"))?;
        if r.status != 200 {
            return Err(format!("GET /metrics answered {}", r.status));
        }
        let root = json::parse(&r.text()).map_err(|e| format!("/metrics is not JSON: {e:?}"))?;
        Ok(Scrape { root })
    }

    /// A numeric member, `path` naming nested objects (0.0 if absent).
    pub fn num(&self, path: &[&str]) -> f64 {
        let mut node = &self.root;
        for key in path {
            match node.get(key) {
                Some(n) => node = n,
                None => return 0.0,
            }
        }
        node.as_f64().unwrap_or(0.0)
    }

    /// `self − before` for a numeric member.
    pub fn delta(&self, before: &Scrape, path: &[&str]) -> f64 {
        self.num(path) - before.num(path)
    }

    /// A histogram's `(upper bound, count)` buckets.
    fn buckets(&self, key: &str) -> Vec<(f64, f64)> {
        let Some(list) = self
            .root
            .get(key)
            .and_then(|h| h.get("buckets"))
            .and_then(Json::as_arr)
        else {
            return Vec::new();
        };
        list.iter()
            .map(|b| {
                let le = b.get("le").and_then(Json::as_f64).unwrap_or(f64::INFINITY);
                let count = b.get("count").and_then(Json::as_f64).unwrap_or(0.0);
                (le, count)
            })
            .collect()
    }

    /// Quantile of the observations a histogram gained since `before`.
    pub fn delta_quantile(&self, before: &Scrape, key: &str, q: f64) -> f64 {
        let old = before.buckets(key);
        let delta: Vec<(f64, f64)> = self
            .buckets(key)
            .into_iter()
            .enumerate()
            .map(|(i, (le, c))| (le, c - old.get(i).map_or(0.0, |b| b.1)))
            .collect();
        stats::histogram_quantile(&delta, q)
    }

    /// Mean of the observations a histogram gained since `before`.
    pub fn delta_mean(&self, before: &Scrape, key: &str) -> f64 {
        stats::ratio(
            self.delta(before, &[key, "sum"]),
            self.delta(before, &[key, "count"]),
        )
    }

    /// The counters must decompose exactly once no request is in flight:
    /// every parsed distill request has one outcome, and every one probed
    /// the response cache once.
    pub fn check_decomposition(&self) -> Result<(), String> {
        let total = self.num(&["distill_requests_total"]);
        let outcomes: f64 = [
            "distill_ok",
            "distill_error",
            "distill_panics_total",
            "distill_timeouts",
            "shed_total",
        ]
        .iter()
        .map(|k| self.num(&[k]))
        .sum();
        if outcomes != total {
            return Err(format!(
                "/metrics: distill_requests_total {total} != sum of outcomes {outcomes}"
            ));
        }
        let probes = self.num(&["cache_hits_total"]) + self.num(&["cache_misses_total"]);
        if self.num(&["cache", "entries"]) > 0.0 && probes != total {
            return Err(format!(
                "/metrics: cache_hits_total + cache_misses_total {probes} != distill_requests_total {total}"
            ));
        }
        Ok(())
    }
}
