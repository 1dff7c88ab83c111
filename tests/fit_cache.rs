//! Shared fit-cache acceptance tests: shard workers that map the
//! serialized fit artifact must produce output **byte-identical** to
//! workers that fit fresh, the artifact itself must be
//! byte-deterministic, and a mismatched artifact must fail loudly.

use gced_datasets::{DatasetKind, ShardSpec};
use gced_eval::shard::{
    fit_fingerprint, load_or_fit, run_shard, run_sharded_in_process, ShardError,
};
use gced_eval::Scale;
use std::path::PathBuf;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gced-fitcache-test-{tag}-{}", std::process::id()));
    // Tests may rerun in one process lifetime; a leftover dir from this
    // pid is ours to recycle.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn cached_fit_reproduces_fresh_run_bitwise() {
    let dir = scratch_dir("parity");
    let path = dir.join("fit-cache.bin");
    let scale = Scale::smoke();
    let kind = DatasetKind::Squad11;

    // First cached call fits and publishes the artifact…
    let first = run_shard(
        "reduction",
        kind,
        scale,
        42,
        ShardSpec::single(),
        Some(&path),
    )
    .unwrap();
    let size = std::fs::metadata(&path).unwrap().len();
    assert!(size > 0, "artifact not published");

    // …the second maps it instead of re-fitting; output is identical,
    // and so is a run that never touches the cache.
    let second = run_shard(
        "reduction",
        kind,
        scale,
        42,
        ShardSpec::single(),
        Some(&path),
    )
    .unwrap();
    assert_eq!(first.to_json(), second.to_json());
    let fresh = run_shard("reduction", kind, scale, 42, ShardSpec::single(), None).unwrap();
    assert_eq!(fresh.to_json(), second.to_json());

    // The artifact is byte-deterministic: re-publishing under a fresh
    // path yields identical bytes (what makes concurrent writers safe).
    let path2 = dir.join("fit-cache-2.bin");
    load_or_fit(kind, scale, 42, Some(&path2)).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        std::fs::read(&path2).unwrap()
    );

    // An in-process sharded run through the same artifact merges
    // byte-identically too.
    let merged = run_sharded_in_process("reduction", kind, scale, 42, 3, Some(&path)).unwrap();
    let single = gced_eval::shard::merge(&[fresh]).unwrap();
    assert_eq!(single.render(), merged.render());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mismatched_fit_cache_fails_loudly() {
    let dir = scratch_dir("mismatch");
    let path = dir.join("fit-cache.bin");
    let scale = Scale::smoke();
    let kind = DatasetKind::Squad11;
    load_or_fit(kind, scale, 42, Some(&path)).unwrap();

    // Same artifact, different seed → fingerprint mismatch, loud error.
    let err = match run_shard(
        "reduction",
        kind,
        scale,
        7,
        ShardSpec::single(),
        Some(&path),
    ) {
        Ok(_) => panic!("mismatched artifact was accepted"),
        Err(e) => e,
    };
    assert!(matches!(err, ShardError::Cache(_)), "{err}");
    assert!(err.to_string().contains("fingerprint"), "{err}");

    // Garbage bytes → loud decode error, not a silent re-fit.
    std::fs::write(&path, b"not an artifact").unwrap();
    let err = match run_shard(
        "reduction",
        kind,
        scale,
        42,
        ShardSpec::single(),
        Some(&path),
    ) {
        Ok(_) => panic!("corrupt artifact was accepted"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("magic"), "{err}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fingerprint_separates_runs() {
    let scale = Scale::smoke();
    let a = fit_fingerprint(DatasetKind::Squad11, scale, 42);
    assert_ne!(a, fit_fingerprint(DatasetKind::Squad20, scale, 42));
    assert_ne!(a, fit_fingerprint(DatasetKind::Squad11, scale, 43));
    assert_ne!(a, fit_fingerprint(DatasetKind::Squad11, Scale::full(), 42));
    assert_eq!(a, fit_fingerprint(DatasetKind::Squad11, scale, 42));
}
