//! Experiment sizing.
//!
//! Paper-scale experiments (3,000 rated QA pairs per model per dataset,
//! full Table III splits) are far beyond a laptop benchmark run, so every
//! experiment takes a [`Scale`]. The default keeps a `gced run` table in
//! the minutes range; `GCED_SCALE=full` approaches paper sample counts, and
//! `GCED_SCALE=smoke` is for CI smoke tests.

/// Sample sizes for one experiment run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Training examples per dataset.
    pub train: usize,
    /// Dev examples used for EM/F1 evaluation.
    pub dev: usize,
    /// QA pairs rated by the human-evaluation protocol per model.
    pub rated: usize,
}

impl Scale {
    /// Benchmark default.
    pub fn default_bench() -> Self {
        Scale {
            train: 360,
            dev: 120,
            rated: 48,
        }
    }

    /// CI smoke scale.
    pub fn smoke() -> Self {
        Scale {
            train: 80,
            dev: 32,
            rated: 12,
        }
    }

    /// Closest-to-paper scale that still terminates in reasonable time
    /// (the paper rates 3,000 pairs per model per dataset).
    pub fn full() -> Self {
        Scale {
            train: 1500,
            dev: 500,
            rated: 300,
        }
    }

    /// Resolve from the `GCED_SCALE` environment variable:
    /// `smoke` | `full` | unset/other → default.
    pub fn from_env() -> Self {
        match std::env::var("GCED_SCALE").as_deref() {
            Ok("smoke") => Scale::smoke(),
            Ok("full") => Scale::full(),
            _ => Scale::default_bench(),
        }
    }

    /// The global experiment seed (`GCED_SEED`, default 42).
    pub fn seed_from_env() -> u64 {
        std::env::var("GCED_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(42)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_scales_are_ordered() {
        let s = Scale::smoke();
        let d = Scale::default_bench();
        let f = Scale::full();
        assert!(s.train < d.train && d.train < f.train);
        assert!(s.rated < d.rated && d.rated < f.rated);
    }

    #[test]
    fn from_env_defaults() {
        // The env var is unset in the test harness unless exported.
        let s = Scale::from_env();
        assert!(s.train >= Scale::smoke().train);
    }
}
