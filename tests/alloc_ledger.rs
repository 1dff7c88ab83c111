//! Allocation ledger: heap allocations per `analyze(context)` (plain, and
//! against the fitted vocabulary as a distillation runs it) and per
//! sequential `Gced::distill` on a fixed input, counted by a test-only
//! global allocator. Unlike timings, the counts are exact and repeatable,
//! so a change that re-derives strings on the hot path shows up here
//! whatever machine runs the suite.
//!
//! Input: a pipeline fitted on TriviaQA-Web (seed 42, 360 train / 120
//! dev), distilling the first 200 answerable examples of the TriviaQA-Web
//! dev split generated with seed 9501; and the same on SQuAD-1.1 (the
//! dataset of the served workloads), dev seed 9502. Run with
//! `--nocapture` to see the numbers.

use gced::{Gced, GcedConfig};
use gced_datasets::{generate, DatasetKind, GeneratorConfig, QaExample};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

/// Counts every block the system allocator hands out (`alloc`,
/// `alloc_zeroed`, `realloc`) on the calling thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees hold; the count itself only touches a
// thread-local `Cell`, which never allocates (const-initialised).
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `GlobalAlloc::alloc` contract passes to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }
    // SAFETY: as `alloc`.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
    // SAFETY: `ptr` came from `System` through this allocator.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
    // SAFETY: `ptr` came from `System` through this allocator.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made on this thread while `f` runs.
fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let r = f();
    (ALLOCS.with(Cell::get) - before, r)
}

const EXAMPLES: usize = 200;

/// Ceilings: the measured counts plus at most 5 %. Debug builds count a
/// few percent more per distill than release builds (290.4 vs 261.9 on
/// TriviaQA-Web, 286.2 vs 257.5 on SQuAD-1.1), so the ceilings are set
/// from the debug counts.
const MAX_ANALYZE_ALLOCS: f64 = 6.0;
const MAX_FITTED_ANALYZE_ALLOCS: f64 = 9.3;
const MAX_DISTILL_ALLOCS: f64 = 304.0;
const MAX_SQUAD_DISTILL_ALLOCS: f64 = 299.0;

type Fixture = (Gced, Vec<QaExample>);

fn fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| build_fixture(DatasetKind::TriviaWeb, 9501))
}

fn squad_fixture() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| build_fixture(DatasetKind::Squad11, 9502))
}

fn build_fixture(kind: DatasetKind, dev_seed: u64) -> Fixture {
    {
        // Sequential distillation: every allocation happens on the
        // calling thread, where it is counted.
        std::env::set_var("GCED_THREADS", "1");
        let fit = generate(
            kind,
            GeneratorConfig {
                train: 360,
                dev: 120,
                seed: 42,
            },
        );
        let gced = Gced::fit(&fit, GcedConfig::default());
        let dev = generate(
            kind,
            GeneratorConfig {
                train: 1,
                dev: 2 * EXAMPLES,
                seed: dev_seed,
            },
        );
        let examples: Vec<QaExample> = dev
            .dev
            .examples
            .into_iter()
            .filter(|e| e.answerable)
            .take(EXAMPLES)
            .collect();
        assert_eq!(examples.len(), EXAMPLES);
        (gced, examples)
    }
}

#[test]
fn analyze_allocations_per_context() {
    let (_, examples) = fixture();
    let (total, _) = allocations(|| {
        for ex in examples {
            drop(gced_text::analyze(&ex.context));
        }
    });
    let per_call = total as f64 / EXAMPLES as f64;
    println!("alloc ledger: analyze(context) {per_call:.1} allocations per call");
    assert!(
        per_call <= MAX_ANALYZE_ALLOCS,
        "analyze allocates {per_call:.1} per context (ceiling {MAX_ANALYZE_ALLOCS})"
    );
}

#[test]
fn fitted_analyze_allocations_per_context() {
    let (gced, examples) = fixture();
    let table = gced.id_table();
    let (total, _) = allocations(|| {
        for ex in examples {
            drop(table.request().analyze(&ex.context));
        }
    });
    let per_call = total as f64 / EXAMPLES as f64;
    println!("alloc ledger: fitted analyze(context) {per_call:.1} allocations per call");
    assert!(
        per_call <= MAX_FITTED_ANALYZE_ALLOCS,
        "fitted analyze allocates {per_call:.1} per context (ceiling {MAX_FITTED_ANALYZE_ALLOCS})"
    );
}

/// Allocations per sequential `Gced::distill` over the fixture.
fn distill_allocations((gced, examples): &Fixture) -> f64 {
    let (total, failures) = allocations(|| {
        examples
            .iter()
            .filter(|ex| gced.distill(&ex.question, &ex.answer, &ex.context).is_err())
            .count()
    });
    assert_eq!(failures, 0);
    total as f64 / EXAMPLES as f64
}

#[test]
fn distill_allocations_per_example() {
    let per_call = distill_allocations(fixture());
    println!("alloc ledger: sequential distill {per_call:.1} allocations per example");
    assert!(
        per_call <= MAX_DISTILL_ALLOCS,
        "distill allocates {per_call:.1} per example (ceiling {MAX_DISTILL_ALLOCS})"
    );
}

#[test]
fn squad_distill_allocations_per_example() {
    let per_call = distill_allocations(squad_fixture());
    println!("alloc ledger: sequential SQuAD-1.1 distill {per_call:.1} allocations per example");
    assert!(
        per_call <= MAX_SQUAD_DISTILL_ALLOCS,
        "SQuAD-1.1 distill allocates {per_call:.1} per example (ceiling {MAX_SQUAD_DISTILL_ALLOCS})"
    );
}
