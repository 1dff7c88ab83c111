//! Shared helpers for the timing benches.
//!
//! `benches/` holds the criterion perf pipeline (`perf_pipeline`,
//! `obs_overhead`) and the `serve_load` load generator, all
//! `harness = false` binaries sized by `GCED_SCALE`; [`gate`] is the
//! bench-regression gate behind `gced bench-check`. The paper's tables
//! and figures are not benches: `gced run <experiment>` regenerates
//! them (see `gced_eval::shard`).

pub mod gate;

use gced_eval::Scale;
use std::time::Instant;

/// Standard bench banner + scale resolution.
pub fn start(name: &str, what: &str) -> (Scale, u64, Instant) {
    let scale = Scale::from_env();
    let seed = Scale::seed_from_env();
    println!("================================================================");
    println!("{name}: {what}");
    println!(
        "scale: train={} dev={} rated={} (GCED_SCALE={}), seed={seed}",
        scale.train,
        scale.dev,
        scale.rated,
        std::env::var("GCED_SCALE").unwrap_or_else(|_| "default".into()),
    );
    println!("================================================================");
    (scale, seed, Instant::now())
}

/// Standard bench footer.
pub fn finish(t0: Instant) {
    println!("\nelapsed: {:.1}s", t0.elapsed().as_secs_f64());
}
