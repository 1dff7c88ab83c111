//! What is linted where: the lint catalog and the path policies that
//! encode the workspace's real invariants.
//!
//! Paths are workspace-relative with `/` separators (the walker
//! normalizes them). Policies are deliberately data, not code: each is
//! a list of path prefixes/suffixes so the README table, this module,
//! and the tests stay trivially in sync.

/// One lint: stable ID, one-line description of the guarded invariant.
pub struct Lint {
    pub id: &'static str,
    pub invariant: &'static str,
}

/// The full catalog, in report order.
pub const LINTS: &[Lint] = &[
    Lint {
        id: "DET001",
        invariant: "no HashMap/HashSet iteration order may reach rendered output \
                    (wire bytes, cache artifacts, eval JSON, metrics) unless sorted first",
    },
    Lint {
        id: "DET002",
        invariant: "float accumulation in gced-nn must route through the fixed 8-lane \
                    tree (kernels.rs) or the scalar oracle (reference.rs)",
    },
    Lint {
        id: "DET003",
        invariant: "no wall-clock reads (Instant::now / SystemTime) outside the \
                    allowlisted timing modules — result paths must be replayable",
    },
    Lint {
        id: "DET004",
        invariant: "no ambient nondeterminism (thread identity, OS entropy) off the \
                    seeded-rng path in non-test code",
    },
    Lint {
        id: "SAFE001",
        invariant: "every `unsafe` block / fn / impl is preceded by a SAFETY comment",
    },
    Lint {
        id: "SAFE002",
        invariant: "SIMD intrinsics (`_mm*` / `__m*`) only inside #[target_feature] \
                    functions",
    },
    Lint {
        id: "SUPP001",
        invariant: "every `// gced-allow(...)` suppression must suppress something",
    },
    Lint {
        id: "SUPP002",
        invariant: "suppressions must name a known lint and give a reason",
    },
];

/// True if `id` names a catalog lint.
pub fn known_lint(id: &str) -> bool {
    LINTS.iter().any(|l| l.id == id)
}

/// Test-like code: integration tests, benches, examples, and anything
/// under a `tests/` or fixture directory. The DET lints don't apply
/// there (tests may freely measure time or iterate maps); the SAFE
/// lints still do (unsafe is unsafe everywhere).
pub fn is_test_path(path: &str) -> bool {
    path.starts_with("tests/")
        || path.starts_with("benches/")
        || path.starts_with("examples/")
        || path.contains("/tests/")
        || path.contains("/benches/")
        || path.contains("/examples/")
}

/// DET001 scope: the output/serialization path modules, where an
/// unsorted map iteration becomes nondeterministic *bytes* — the wire
/// format, the fit-cache artifact, eval JSON/tables, /metrics
/// rendering, the response cache / evidence store (whose eviction scan
/// order decides which stored bytes survive), the interchange
/// (`to_parts`/`idf_parts`) layers that feed the artifact encoder, and
/// the CKY chart and grammar tables (the order candidates are visited in
/// decides exact-score ties, which pick the parse tree and so reach the
/// evidence bytes).
pub fn det001_in_scope(path: &str) -> bool {
    const SCOPE: &[&str] = &[
        "crates/serve/src/wire.rs",
        "crates/store/src/lib.rs",
        "crates/serve/src/metrics.rs",
        "crates/core/src/cache.rs",
        "crates/datasets/src/json.rs",
        "crates/eval/src/shard.rs",
        "crates/eval/src/tables.rs",
        "crates/eval/src/experiments.rs",
        "crates/lm/src/lib.rs",
        "crates/qa/src/model.rs",
        "crates/parser/src/cky.rs",
        "crates/parser/src/grammar.rs",
    ];
    SCOPE.contains(&path)
}

/// DET002 scope: everything in `gced-nn` **except** the two modules
/// that are allowed to define accumulation order — the fixed-tree
/// kernels and the paper-literal scalar oracle.
pub fn det002_in_scope(path: &str) -> bool {
    path.starts_with("crates/nn/src/")
        && path != "crates/nn/src/kernels.rs"
        && path != "crates/nn/src/reference.rs"
}

/// DET003 allowlist: modules whose entire job is timing — the batcher's
/// flush deadlines, the HTTP read-deadline clock, the gced-obs clock
/// (the single monotonic-tick source every span/stopwatch reads
/// through), the criterion compat shim, and the two bench harnesses
/// (`crates/bench/` and the end-to-end `perfbench/`).
/// Everywhere else a wall-clock read in a result path would break
/// replayability.
pub fn det003_allowed(path: &str) -> bool {
    const ALLOW: &[&str] = &[
        "crates/serve/src/batch.rs",
        "crates/serve/src/http.rs",
        "crates/obs/src/clock.rs",
    ];
    ALLOW.contains(&path)
        || path.starts_with("crates/compat/criterion/")
        || path.starts_with("crates/bench/")
        || path.starts_with("perfbench/")
}

/// DET004 allowlist: the seeded-rng compat crate itself.
pub fn det004_allowed(path: &str) -> bool {
    path.starts_with("crates/compat/rand/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_ids_are_unique_and_known() {
        for l in LINTS {
            assert!(known_lint(l.id));
            assert_eq!(LINTS.iter().filter(|o| o.id == l.id).count(), 1);
        }
        assert!(!known_lint("DET999"));
    }

    #[test]
    fn path_policies() {
        assert!(is_test_path("crates/nn/tests/parity.rs"));
        assert!(is_test_path("tests/serve_parity.rs"));
        assert!(is_test_path("examples/quickstart.rs"));
        assert!(!is_test_path("crates/nn/src/kernels.rs"));

        assert!(det001_in_scope("crates/serve/src/wire.rs"));
        assert!(det001_in_scope("crates/store/src/lib.rs"));
        assert!(det001_in_scope("crates/parser/src/cky.rs"));
        assert!(det001_in_scope("crates/parser/src/grammar.rs"));
        assert!(!det001_in_scope("crates/serve/src/batch.rs"));

        assert!(det002_in_scope("crates/nn/src/attention.rs"));
        assert!(!det002_in_scope("crates/nn/src/kernels.rs"));
        assert!(!det002_in_scope("crates/nn/src/reference.rs"));
        assert!(!det002_in_scope("crates/core/src/ase.rs"));

        assert!(det003_allowed("crates/serve/src/batch.rs"));
        assert!(det003_allowed("crates/compat/criterion/src/lib.rs"));
        assert!(det003_allowed("crates/obs/src/clock.rs"));
        assert!(det003_allowed("crates/bench/benches/serve_load.rs"));
        assert!(det003_allowed("perfbench/src/main.rs"));
        assert!(!det003_allowed("crates/perfbench/src/main.rs"));
        assert!(!det003_allowed("crates/obs/src/lib.rs"));
        assert!(!det003_allowed("crates/core/src/lib.rs"));

        assert!(det004_allowed("crates/compat/rand/src/lib.rs"));
        assert!(!det004_allowed("crates/qa/src/model.rs"));
    }
}
