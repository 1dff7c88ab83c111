//! # gced-par — minimal persistent-pool data parallelism
//!
//! The distillation pipeline parallelizes three loops: candidate scoring
//! inside Sequential Clip Searching, whole-example batches in
//! `Gced::distill_batch`, and whole-dataset shard fan-out in the
//! experiment runner. The build environment cannot fetch `rayon`, so
//! this crate provides the one primitive all three need: an
//! order-preserving parallel map over a slice, with work stealing via
//! an atomic cursor.
//!
//! Work runs on a process-wide [`WorkerPool`] of persistent threads
//! (spawned lazily on the first parallel call) instead of the per-call
//! `std::thread::scope` spawn/join of PR 1 — the parallel clip path
//! used to pay that spawn cost once per SCS iteration. Nested `par_map`
//! calls degrade to the calling thread instead of deadlocking, so
//! callers can compose freely.
//!
//! Results are written back by input index, so `par_map` output is
//! **bitwise identical to the sequential map** regardless of thread
//! count or scheduling — a property the clip-search oracle equivalence
//! tests and the shard-merge parity tests rely on.

// Unsafe operations must sit in explicit `unsafe {}` blocks with their
// own SAFETY comments even inside unsafe fns (the `gced analyze`
// SAFE001 lint checks the comments).
#![deny(unsafe_op_in_unsafe_fn)]

mod pool;

pub use pool::WorkerPool;

use std::sync::OnceLock;

/// Worker-thread cap: `GCED_THREADS` if set, else the machine's
/// available parallelism.
pub fn max_threads() -> usize {
    if let Ok(v) = std::env::var("GCED_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The process-wide worker pool, spawned lazily on the first parallel
/// call. Sized to `max_threads() - 1` (minimum 1) because the posting
/// thread always participates in its own job.
pub fn global_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(max_threads().saturating_sub(1).max(1)))
}

/// Effective parallelism of the global pool: its workers plus the
/// posting thread (which always participates in its own job). What a
/// server's `/healthz` and `/metrics` report as distillation capacity.
/// Note this spawns the pool if it is not running yet.
pub fn effective_parallelism() -> usize {
    global_pool().size() + 1
}

/// Parallel map preserving input order: `out[i] = f(i, &items[i])`.
///
/// Falls back to a sequential loop when the input is small or only one
/// worker is available. Panics in `f` propagate.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with(items, || (), move |(), i, item| f(i, item))
}

/// [`par_map`] with a per-worker scratch state created by `init` — the
/// hook reusable buffers need to stay allocation-free under parallelism.
pub fn par_map_with<T, R, S, F, I>(items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&mut S, usize, &T) -> R + Sync,
    I: Fn() -> S + Sync,
{
    par_map_with_threads(items, max_threads(), init, f)
}

/// [`par_map_with`] with an explicit participant count (tests force >1
/// participant on single-core machines to exercise the parallel path).
/// Runs on the [`global_pool`]; if the pool has fewer workers than
/// `threads - 1`, the call uses every worker it can get.
pub fn par_map_with_threads<T, R, S, F, I>(items: &[T], threads: usize, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&mut S, usize, &T) -> R + Sync,
    I: Fn() -> S + Sync,
{
    global_pool().par_map_with_threads(items, threads, init, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_values() {
        let items: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x * x).collect();
        let par = par_map(&items, |_, &x| x * x);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(par_map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn index_argument_matches_position() {
        let items = ["a", "b", "c"];
        let out = par_map(&items, |i, s| format!("{i}{s}"));
        assert_eq!(out, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn scratch_state_reused_per_worker() {
        let items: Vec<usize> = (0..64).collect();
        let out = par_map_with(
            &items,
            || Vec::<usize>::with_capacity(8),
            |scratch, _, &x| {
                scratch.clear();
                scratch.extend(0..x % 4);
                scratch.len()
            },
        );
        for (i, len) in out.iter().enumerate() {
            assert_eq!(*len, i % 4);
        }
    }

    #[test]
    fn uneven_work_is_stolen() {
        // Heavily skewed costs still produce ordered, complete output.
        let items: Vec<u64> = (0..40).collect();
        let out = par_map(&items, |_, &x| {
            let spins = if x == 0 { 200_000 } else { 10 };
            let mut acc = 0u64;
            for i in 0..spins {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            (x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn effective_parallelism_counts_the_poster() {
        assert_eq!(effective_parallelism(), global_pool().size() + 1);
        assert!(effective_parallelism() >= 2);
    }

    #[test]
    fn forced_multithreading_matches_sequential() {
        // available_parallelism may report 1 on CI; force real workers.
        let items: Vec<u64> = (0..257).collect();
        let seq: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 7).collect();
        let par = par_map_with_threads(&items, 4, || (), |(), _, &x| x.wrapping_mul(x) ^ 7);
        assert_eq!(seq, par);
    }

    #[test]
    #[should_panic(expected = "worker panicked")]
    fn worker_panics_propagate() {
        // A private pool: on the global one a concurrently running test
        // may hold the poster lock, and the busy fallback then runs the
        // closure inline, so its raw panic escapes without the wrapper
        // (pinned by `pool::tests::busy_pool_runs_inline_with_raw_panic`).
        let pool = WorkerPool::new(1);
        let items = [1u8, 2, 3, 4];
        let _ = pool.par_map_with_threads(
            &items,
            2,
            || (),
            |(), _, &x| {
                assert!(x != 3, "boom");
                x
            },
        );
    }
}
