//! Full dataset pipeline: generate → fit → distill → evaluate.
//!
//! Walks the whole system the way the paper's evaluation does: builds a
//! synthetic SQuAD-style dataset, fits GCED, distills ground-truth-based
//! evidences for the dev split, and compares a baseline QA model on raw
//! contexts vs. evidence contexts (one row of Table VI).
//!
//! ```sh
//! cargo run --release --example squad_pipeline
//! ```

use gced_datasets::DatasetKind;
use gced_eval::experiments::{self, ExperimentContext};
use gced_eval::Scale;
use gced_qa::zoo;

fn main() {
    let scale = Scale {
        train: 300,
        dev: 100,
        rated: 32,
    };
    println!(
        "preparing {} at scale train={} dev={} (fit + evidence caches) ...",
        DatasetKind::Squad11.name(),
        scale.train,
        scale.dev
    );
    let ctx = ExperimentContext::prepare(DatasetKind::Squad11, scale, 42);

    println!(
        "mean ground-truth evidence word reduction: {:.1}% (paper reports 78.5% on SQuAD)",
        ctx.mean_word_reduction() * 100.0
    );

    // A couple of sample distillations.
    println!("\nsample evidences:");
    for (ex, ev) in ctx.dataset.dev.examples.iter().zip(&ctx.gt_dev).take(30) {
        if let Some(d) = ev {
            if d.scores.informativeness > 0.9 {
                println!("  Q: {}", ex.question);
                println!("  A: {}", ex.answer);
                println!("  E: {}\n", d.evidence);
            }
        }
    }

    // One Table VI row: BERT-large baseline vs +GCED.
    let bert = &zoo::squad_models()[0];
    println!("evaluating BERT-large baseline vs +GCED ...");
    let r =
        experiments::qa_augmentation_row(&ctx, bert, &ctx.evidence_train(), &ctx.evidence_dev());
    println!(
        "{}: baseline EM/F1 = {:.1}/{:.1}  |  +GCED EM/F1 = {:.1}/{:.1}  \
             (paper: {:.1}/{:.1} -> {:.1}/{:.1})",
        r.model,
        r.base.em,
        r.base.f1,
        r.gced.em,
        r.gced.f1,
        r.paper_base.0,
        r.paper_base.1,
        r.paper_gced.0,
        r.paper_gced.1
    );
}
