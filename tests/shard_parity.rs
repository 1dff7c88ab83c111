//! Shard-parity acceptance tests: a sharded dataset run merged back
//! together must be **bit-identical** to the single-process run — same
//! rows, same metrics, same rendered bytes — for any shard count and
//! any shard completion order.

use gced_datasets::{DatasetKind, ShardSpec};
use gced_eval::experiments::ExperimentContext;
use gced_eval::shard::{merge, run_shard, run_sharded_in_process, ShardOutput};
use gced_eval::Scale;

/// 1-vs-N-shard parity harness for the experiment runners: the merged
/// N-shard in-process run (shared fit) must render byte-identically to
/// the single-shard run, including through the JSON wire format.
fn assert_shard_parity(experiment: &str, kind: DatasetKind, shards: usize) {
    let scale = Scale::smoke();
    let single_output = run_shard(experiment, kind, scale, 42, ShardSpec::single(), None).unwrap();
    // Through the wire format the shards actually travel as.
    let rewired = ShardOutput::from_json(&single_output.to_json()).unwrap();
    assert_eq!(single_output, rewired, "{experiment} JSON roundtrip");
    let single = merge(&[single_output]).unwrap();
    let sharded = run_sharded_in_process(experiment, kind, scale, 42, shards, None).unwrap();
    assert_eq!(
        single.render(),
        sharded.render(),
        "{experiment} {shards}-shard run diverged from the single-shard run"
    );
    assert!(!single.rows.is_empty(), "{experiment} produced no rows");
}

/// The acceptance criterion: a 3-shard `table3` run at smoke scale
/// merges into output byte-identical to the single-process run (the CI
/// shard-parity step checks the same property through the CLI).
#[test]
fn table3_three_shards_merge_bit_identical() {
    let scale = Scale::smoke();
    let single = merge(&[run_shard(
        "table3",
        DatasetKind::Squad11,
        scale,
        42,
        ShardSpec::single(),
        None,
    )
    .unwrap()])
    .unwrap();
    let mut outputs: Vec<ShardOutput> = ShardSpec::all(3)
        .into_iter()
        .map(|s| run_shard("table3", DatasetKind::Squad11, scale, 42, s, None).unwrap())
        .collect();
    // Completion order must not matter: merge them backwards…
    outputs.reverse();
    let merged = merge(&outputs).unwrap();
    assert_eq!(single, merged);
    assert_eq!(single.render(), merged.render());
    // …and through the JSON wire format shards actually travel as.
    let rewired: Vec<ShardOutput> = outputs
        .iter()
        .map(|o| ShardOutput::from_json(&o.to_json()).unwrap())
        .collect();
    assert_eq!(merge(&rewired).unwrap().render(), single.render());
}

#[test]
fn reduction_sharding_is_bit_identical_through_real_distillation() {
    let scale = Scale::smoke();
    let single = merge(&[run_shard(
        "reduction",
        DatasetKind::Squad11,
        scale,
        42,
        ShardSpec::single(),
        None,
    )
    .unwrap()])
    .unwrap();
    let in_process =
        run_sharded_in_process("reduction", DatasetKind::Squad11, scale, 42, 3, None).unwrap();
    assert_eq!(single.render(), in_process.render());
    assert_eq!(single.rows, in_process.rows);
    assert!(!single.rows.is_empty(), "reduction produced no rows");
}

/// Per-shard `ExperimentContext::prepare_fitted` caches must union to
/// the full `prepare` caches: identical entries inside each shard's range, `None`
/// outside it.
#[test]
fn prepare_shard_caches_union_to_full_prepare() {
    let scale = Scale::smoke();
    let full = ExperimentContext::prepare(DatasetKind::Squad11, scale, 42);
    let shards: Vec<ExperimentContext> = ShardSpec::all(2)
        .into_iter()
        .map(|s| {
            ExperimentContext::prepare_fitted(
                DatasetKind::Squad11,
                scale,
                42,
                None,
                Some(s),
                Some(s),
            )
        })
        .collect();
    for (spec, ctx) in ShardSpec::all(2).into_iter().zip(&shards) {
        assert_eq!(ctx.dataset, full.dataset, "shared artifacts must match");
        let dev_range = spec.range(full.dataset.dev.len());
        for (i, (sharded, reference)) in ctx.gt_dev.iter().zip(&full.gt_dev).enumerate() {
            if dev_range.contains(&i) {
                assert_eq!(
                    sharded.as_ref().map(|d| &d.evidence),
                    reference.as_ref().map(|d| &d.evidence),
                    "dev example {i} diverged in {spec}"
                );
                assert_eq!(
                    sharded.as_ref().map(|d| d.word_reduction.to_bits()),
                    reference.as_ref().map(|d| d.word_reduction.to_bits()),
                    "dev example {i} reduction diverged in {spec}"
                );
            } else {
                assert!(sharded.is_none(), "dev example {i} outside {spec} not None");
            }
        }
        let train_range = spec.range(full.dataset.train.len());
        let in_range = ctx
            .gt_train
            .iter()
            .enumerate()
            .filter(|(i, d)| !train_range.contains(i) && d.is_some())
            .count();
        assert_eq!(in_range, 0, "train cache leaked outside {spec}");
    }
    // Every full-cache entry is covered by exactly the owning shard.
    for i in 0..full.dataset.dev.len() {
        let owner = ShardSpec::all(2)
            .into_iter()
            .position(|s| s.owns(i, full.dataset.dev.len()))
            .unwrap();
        assert_eq!(
            shards[owner].gt_dev[i].as_ref().map(|d| &d.evidence),
            full.gt_dev[i].as_ref().map(|d| &d.evidence)
        );
    }
}

#[test]
fn human_eval_three_shards_merge_bit_identical() {
    assert_shard_parity("human_eval", DatasetKind::Squad11, 3);
}

#[test]
fn agreement_three_shards_merge_bit_identical() {
    assert_shard_parity("agreement", DatasetKind::Squad11, 3);
}

#[test]
fn qa_augmentation_three_shards_merge_bit_identical() {
    assert_shard_parity("qa_augmentation", DatasetKind::Squad11, 3);
}

#[test]
fn ablation_three_shards_merge_bit_identical() {
    assert_shard_parity("ablation", DatasetKind::Squad11, 3);
}

#[test]
fn table1_three_shards_merge_bit_identical() {
    assert_shard_parity("table1", DatasetKind::Squad11, 3);
}

#[test]
fn design_three_shards_merge_bit_identical() {
    assert_shard_parity("design", DatasetKind::Squad20, 3);
}

#[test]
fn degradation_three_shards_merge_bit_identical() {
    assert_shard_parity("degradation", DatasetKind::Squad11, 3);
}

/// More shards than items leaves some shards with empty ranges; they
/// must contribute empty outputs that merge cleanly, and aggregate
/// statistics over empty caches must be 0.0 rather than NaN.
#[test]
fn empty_shards_merge_cleanly_and_empty_means_are_zero() {
    let scale = Scale::smoke();
    // `agreement` has exactly 3 items; a 5-way split has 2 empty shards.
    let single = merge(&[run_shard(
        "agreement",
        DatasetKind::Squad11,
        scale,
        42,
        ShardSpec::single(),
        None,
    )
    .unwrap()])
    .unwrap();
    let five =
        run_sharded_in_process("agreement", DatasetKind::Squad11, scale, 42, 5, None).unwrap();
    assert_eq!(single.render(), five.render());
    // `table3` has 4 items; 7 shards exercise the empty edge cheaply,
    // including the wire format of an empty shard output.
    let outputs: Vec<ShardOutput> = ShardSpec::all(7)
        .into_iter()
        .map(|s| run_shard("table3", DatasetKind::Squad11, scale, 42, s, None).unwrap())
        .collect();
    assert!(outputs.iter().any(|o| o.rows.is_empty()));
    let rewired: Vec<ShardOutput> = outputs
        .iter()
        .map(|o| ShardOutput::from_json(&o.to_json()).unwrap())
        .collect();
    let single3 = merge(&[run_shard(
        "table3",
        DatasetKind::Squad11,
        scale,
        42,
        ShardSpec::single(),
        None,
    )
    .unwrap()])
    .unwrap();
    assert_eq!(merge(&rewired).unwrap().render(), single3.render());
    // A context whose caches were skipped entirely reports 0.0 mean
    // word reduction (not NaN) — the empty-shard aggregate edge.
    let ctx = ExperimentContext::prepare_fitted(DatasetKind::Squad11, scale, 42, None, None, None);
    let mean = ctx.mean_word_reduction();
    assert!(!mean.is_nan(), "mean_word_reduction must not be NaN");
    assert_eq!(mean, 0.0);
}

/// Different seeds or scales must be rejected at merge time rather than
/// silently producing a franken-run.
#[test]
fn merge_rejects_shards_from_different_runs() {
    let scale = Scale::smoke();
    let mut outputs: Vec<ShardOutput> = ShardSpec::all(2)
        .into_iter()
        .map(|s| run_shard("table3", DatasetKind::Squad11, scale, 42, s, None).unwrap())
        .collect();
    outputs[1] = run_shard(
        "table3",
        DatasetKind::Squad11,
        scale,
        7,
        ShardSpec::new(1, 2).unwrap(),
        None,
    )
    .unwrap();
    let err = merge(&outputs).unwrap_err();
    assert!(err.to_string().contains("seed"), "{err}");
}
