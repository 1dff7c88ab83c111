//! # gced-qa — extractive QA models
//!
//! The GCED paper uses fine-tuned pretrained language models in three
//! roles: (1) the internal "PLM" that powers the Answer-oriented
//! Sentences Extractor and the informativeness score (Eq. 1), (2) the
//! nine baseline QA systems per dataset of Tables VI/VII, and (3) the
//! retrained models of the evidence-augmentation experiments.
//!
//! Offline, all three roles are filled by a **feature-based extractive
//! span scorer trained with an averaged perceptron** ([`model::QaModel`],
//! DESIGN.md S1): candidate answer spans are scored by clue proximity,
//! answer-type match, rarity, and shape features, and the model learns
//! feature weights from the synthetic training split. Its accuracy rises
//! with the signal-to-noise ratio of its context — the exact property the
//! paper's experiments exercise (shorter, denser evidence ⇒ better QA).
//!
//! The baseline zoo ([`zoo`]) instantiates the nine models per dataset as
//! differently-parameterized profiles (context window, inference noise) —
//! DESIGN.md S7. The relative EM/F1 ordering then reproduces the paper's;
//! the +GCED gains are *not* injected anywhere.

pub mod features;
pub mod incremental;
pub mod model;
pub mod zoo;

pub use features::{ContentIds, QuestionAnalysis, WhType};
pub use incremental::SelectionScoreCache;
pub use model::{EvalResult, ModelProfile, Prediction, QaModel, SelectionScratch};
