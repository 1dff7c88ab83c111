//! # gced-eval — rater simulation and experiment runners
//!
//! Everything Section IV of the paper needs:
//!
//! * [`rubric`] — the 1–5 scoresheet of Table I;
//! * [`raters`] — the simulated 9-rater panel (3 groups × 3 raters) of
//!   Sec. IV-A1 (DESIGN.md S8): each rater measures the three rubric
//!   constructs through observable proxies, plus a seeded personal bias
//!   and per-item noise;
//! * [`protocol`] — the evaluation protocol: per-group Krippendorff's α
//!   (Table II), the < 0.7 per-item agreement filter, group averaging;
//! * [`scale`] — experiment sizing via the `GCED_SCALE` env var;
//! * [`experiments`] — the shared [`ExperimentContext`] and the per-row
//!   functions of Tables II, IV–VIII and Fig. 7, plus the published
//!   reference figures;
//! * [`shard`] — the experiment registry behind `gced run`: every table
//!   and figure (Tables I–VIII, the design sweep, Fig. 7) as a sharded
//!   run with deterministic merge and a shared fit cache;
//! * [`tables`] — plain-text + TSV table rendering for the reports.

pub mod experiments;
pub mod protocol;
pub mod raters;
pub mod rubric;
pub mod scale;
pub mod shard;
pub mod tables;

pub use experiments::ExperimentContext;
pub use protocol::{HumanEvalOutcome, RatingProtocol};
pub use raters::{Rater, RaterPanel};
pub use scale::Scale;
pub use shard::{merge, run_shard, MergedRun, ShardError, ShardOutput};
