//! The lint corpus: for every catalog lint ID, a minimal positive
//! fixture that fires it and a matched negative fixture that stays
//! silent. This is the acceptance contract for the analyzer — if a lint
//! can't demonstrate both sides here, it isn't a lint, it's noise.

use gced_analyze::lints::check_file;
use gced_analyze::policy;

struct Case {
    lint: &'static str,
    path: &'static str,
    /// Must produce exactly this lint (and nothing else).
    positive: &'static str,
    /// Must produce no findings at all.
    negative: &'static str,
}

const CORPUS: &[Case] = &[
    Case {
        lint: "DET001",
        path: "crates/serve/src/metrics.rs",
        positive: "use std::collections::HashMap;\n\
                   fn render(counts: &HashMap<String, u64>) -> String {\n\
                       let mut out = String::new();\n\
                       for (k, v) in counts.iter() {\n\
                           out.push_str(k);\n\
                       }\n\
                       out\n\
                   }\n",
        negative: "use std::collections::HashMap;\n\
                   fn render(counts: &HashMap<String, u64>) -> String {\n\
                       let mut kv: Vec<_> = counts.iter().collect();\n\
                       kv.sort();\n\
                       let mut out = String::new();\n\
                       for (k, _v) in kv {\n\
                           out.push_str(k);\n\
                       }\n\
                       out\n\
                   }\n",
    },
    Case {
        // Second DET001 site: the response cache's eviction scan. An
        // unsorted map walk here picks a nondeterministic victim, which
        // changes WHICH stored response bytes survive to be replayed.
        lint: "DET001",
        path: "crates/store/src/lib.rs",
        positive: "use std::collections::HashMap;\n\
                   fn victim(entries: &HashMap<u128, u64>) -> Option<u128> {\n\
                       let mut best: Option<(u128, u64)> = None;\n\
                       for (fp, used) in entries.iter() {\n\
                           if best.map_or(true, |(_, b)| *used < b) {\n\
                               best = Some((*fp, *used));\n\
                           }\n\
                       }\n\
                       best.map(|(fp, _)| fp)\n\
                   }\n",
        negative: "struct Entry { fp: u128, used: u64 }\n\
                   fn victim(entries: &[Entry]) -> Option<u128> {\n\
                       // entries is kept sorted by fingerprint; the scan\n\
                       // order (and the tie-break) is deterministic.\n\
                       let mut best: Option<(u128, u64)> = None;\n\
                       for e in entries {\n\
                           if best.map_or(true, |(_, b)| e.used < b) {\n\
                               best = Some((e.fp, e.used));\n\
                           }\n\
                       }\n\
                       best.map(|(fp, _)| fp)\n\
                   }\n",
    },
    Case {
        // Third DET001 site: the CKY chart. Which of two exactly tied
        // candidates a cell keeps picks the parse tree, and the tree
        // reaches the evidence bytes, so cells are walked in slot order.
        lint: "DET001",
        path: "crates/parser/src/cky.rs",
        positive: "use std::collections::HashMap;\n\
                   fn goal(cell: &HashMap<u8, f64>) -> Option<u8> {\n\
                       let mut best: Option<(u8, f64)> = None;\n\
                       for (sym, score) in cell.iter() {\n\
                           if best.map_or(true, |(_, b)| *score >= b) {\n\
                               best = Some((*sym, *score));\n\
                           }\n\
                       }\n\
                       best.map(|(sym, _)| sym)\n\
                   }\n",
        negative: "struct Cell { score: [f64; 18], mask: u32 }\n\
                   fn goal(cell: &Cell) -> Option<usize> {\n\
                       // occupied slots in ascending mask order: ties\n\
                       // always go to the highest symbol.\n\
                       let mut best: Option<usize> = None;\n\
                       let mut mask = cell.mask;\n\
                       while mask != 0 {\n\
                           let s = mask.trailing_zeros() as usize;\n\
                           mask &= mask - 1;\n\
                           if best.map_or(true, |b| cell.score[s] >= cell.score[b]) {\n\
                               best = Some(s);\n\
                           }\n\
                       }\n\
                       best\n\
                   }\n",
    },
    Case {
        lint: "DET002",
        path: "crates/nn/src/embedding.rs",
        positive: "fn dot(a: &[f32], b: &[f32]) -> f32 {\n\
                       let mut s = 0.0;\n\
                       for i in 0..a.len() { s += a[i] * b[i]; }\n\
                       s\n\
                   }\n",
        negative: "use crate::kernels;\n\
                   fn dot(a: &[f32], b: &[f32]) -> f32 {\n\
                       kernels::dot(a, b)\n\
                   }\n",
    },
    Case {
        lint: "DET003",
        path: "crates/eval/src/experiments.rs",
        positive: "fn stamp() -> std::time::Instant { std::time::Instant::now() }\n",
        negative: "fn stamp(steps: u64) -> u64 { steps * 17 }\n",
    },
    Case {
        lint: "DET004",
        path: "crates/qa/src/model.rs",
        positive: "fn pick() -> usize { rand::thread_rng().gen_range(0..4) }\n",
        negative: "use gced_rand::SeededRng;\n\
                   fn pick(rng: &mut SeededRng) -> usize { (rng.next_u64() % 4) as usize }\n",
    },
    Case {
        lint: "SAFE001",
        path: "crates/par/src/pool.rs",
        positive: "fn read(p: *const u32) -> u32 {\n    unsafe { *p }\n}\n",
        negative: "fn read(p: *const u32) -> u32 {\n\
                       // SAFETY: caller guarantees p is valid and aligned\n\
                       // for the lifetime of this call.\n\
                       unsafe { *p }\n\
                   }\n",
    },
    Case {
        lint: "SAFE002",
        path: "crates/nn/src/kernels.rs",
        positive: "fn zero() -> f32 {\n\
                       let z = _mm256_setzero_ps();\n\
                       0.0\n\
                   }\n",
        negative: "/// # Safety\n\
                   /// Caller must have verified avx2 via have_simd().\n\
                   #[target_feature(enable = \"avx2\")]\n\
                   unsafe fn zero(x: __m256) -> __m256 {\n\
                       _mm256_add_ps(x, _mm256_setzero_ps())\n\
                   }\n",
    },
    Case {
        lint: "SUPP001",
        path: "crates/core/src/cache.rs",
        positive: "fn f() {\n\
                       // gced-allow(DET001): stale — nothing iterates here\n\
                       let x = 1;\n\
                   }\n",
        negative: "fn f() {\n\
                       // gced-allow(DET003): startup patience wait, not a result path\n\
                       let t = std::time::Instant::now();\n\
                   }\n",
    },
    Case {
        lint: "SUPP002",
        path: "crates/core/src/cache.rs",
        positive: "fn f() {\n\
                       // gced-allow(DET042): no such lint\n\
                       let x = 1;\n\
                   }\n",
        negative: "fn f() {\n\
                       // plain comment, mentions gced-allow syntax without the marker form\n\
                       let x = 1;\n\
                   }\n",
    },
];

#[test]
fn every_catalog_lint_has_a_corpus_case() {
    for l in policy::LINTS {
        assert!(
            CORPUS.iter().any(|c| c.lint == l.id),
            "lint {} missing from corpus",
            l.id
        );
    }
    // Every case covers a catalog lint (a lint may have several cases
    // at different in-scope paths, e.g. DET001).
    for c in CORPUS {
        assert!(
            policy::LINTS.iter().any(|l| l.id == c.lint),
            "corpus case for unknown lint {}",
            c.lint
        );
    }
    assert!(CORPUS.len() >= policy::LINTS.len());
}

#[test]
fn positives_fire_exactly_their_lint() {
    for case in CORPUS {
        let ids: Vec<&str> = check_file(case.path, case.positive)
            .findings
            .iter()
            .map(|f| f.lint)
            .collect();
        assert_eq!(
            ids,
            vec![case.lint],
            "positive fixture for {} on {} produced {:?}",
            case.lint,
            case.path,
            ids
        );
    }
}

#[test]
fn negatives_stay_silent() {
    for case in CORPUS {
        let found = check_file(case.path, case.negative).findings;
        assert!(
            found.is_empty(),
            "negative fixture for {} on {} produced {:?}",
            case.lint,
            case.path,
            found
        );
    }
}

#[test]
fn findings_carry_file_line_spans() {
    let case = &CORPUS[0];
    let out = check_file(case.path, case.positive);
    assert_eq!(out.findings.len(), 1);
    let f = &out.findings[0];
    assert_eq!(f.file, case.path);
    assert_eq!(f.line, 4, "DET001 fixture iterates on line 4");
    assert!(!f.message.is_empty());
}
