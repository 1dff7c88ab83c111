//! Persistent worker pool.
//!
//! PR 1's `par_map` spawned fresh OS threads through `std::thread::scope`
//! on every call, so the parallel clip path paid a spawn/join round-trip
//! per SCS iteration and every `distill_batch` paid one per batch. This
//! pool spawns its workers once and fans jobs out to them for the life
//! of the process.
//!
//! A *job* is a type-erased closure that drains an atomic cursor owned by
//! the caller; the pool never sees items or results, so `par_map` keeps
//! its exact write-back-by-index semantics and bitwise-sequential output.
//! The posting thread always participates in its own job, which means a
//! pool of `k` workers serves `k + 1`-way parallelism.
//!
//! ## Safety
//!
//! The job closure borrows the poster's stack frame (items, output
//! slots, cursor). Lifetime erasure is sound because the poster (a)
//! disables new claims and (b) blocks until `running == 0` before
//! returning — no worker can hold the closure after `execute` returns.
//!
//! ## Panics
//!
//! A panic inside a claimed task is caught on the worker, recorded, and
//! re-raised on the posting thread as `"par_map worker panicked: …"`
//! after every sibling finished. Workers survive task panics, the pool
//! stays usable, and `Drop` joins every worker unconditionally — no
//! leaked threads even when jobs panicked (see the regression tests).
//!
//! Lock poisoning is **recovered, never propagated**: if any thread
//! panicked while holding a pool mutex, the next locker clears the
//! poison with [`PoisonError::into_inner`] and proceeds. This is sound
//! because every critical section leaves the data consistent at each
//! await/panic point (counters are updated atomically under the lock,
//! the poster mutex guards `()`), and it guarantees one panicked task
//! can never wedge every subsequent `par_map` call.

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};

/// Wide pointer to the current job's closure. `Send` is sound because
/// the pointer is only handed out under the pool mutex while the poster
/// is blocked inside [`WorkerPool::execute`], which outlives every use.
struct TaskPtr(*const (dyn Fn() + Sync));

// SAFETY: the pointer is only handed out under the pool mutex while the
// poster blocks inside `execute`, so the pointee (a `Sync` closure)
// outlives and tolerates every cross-thread use.
unsafe impl Send for TaskPtr {}

struct PoolState {
    /// The in-flight job, if any.
    job: Option<TaskPtr>,
    /// Pool workers still allowed to claim the current job.
    claims_left: usize,
    /// Pool workers currently inside the current job.
    running: usize,
    /// Monotonic job id, so a worker never re-claims a job it already
    /// drained (claiming twice would be harmless but wasteful).
    epoch: u64,
    /// Rendered panic payload from a claimed worker, if any.
    panic_msg: Option<String>,
    /// Set by `Drop`; workers exit once no claimable job remains.
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Wakes workers when a job is posted or shutdown begins.
    work_cv: Condvar,
    /// Wakes the poster when the last claimed worker retires.
    done_cv: Condvar,
    /// Workers that have fully exited (asserted by the drop tests).
    exited: AtomicUsize,
}

impl Shared {
    /// Lock the pool state, clearing any poison (module docs, Panics).
    fn lock_state(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A fixed-size pool of persistent worker threads.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Serializes posters. `try_lock` failure means the pool is busy —
    /// possibly with a job posted further up this very call chain
    /// (nested `par_map`) — so the nested map degrades to running on
    /// the caller alone instead of deadlocking. The same degradation
    /// applies to genuinely concurrent posters from unrelated threads:
    /// one wins the pool, the others run sequentially. Output is
    /// identical either way; only scheduling changes. (In-repo callers
    /// never overlap jobs: `distill_batch` disables inner clip
    /// parallelism, so the batch dimension is the only poster.)
    poster: Mutex<()>,
}

impl WorkerPool {
    /// Spawn a pool with `workers` persistent threads (at least one).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                job: None,
                claims_left: 0,
                running: 0,
                epoch: 0,
                panic_msg: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            exited: AtomicUsize::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("gced-par-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            poster: Mutex::new(()),
        }
    }

    /// Number of worker threads (the pool serves `size() + 1`-way
    /// parallelism including the posting thread).
    pub fn size(&self) -> usize {
        self.handles.len()
    }

    /// Run `task` on the calling thread plus up to `extra` pool workers.
    /// Returns once every participant has finished. If the pool is busy
    /// (nested call) or `extra` is zero, the caller runs the task alone.
    fn execute(&self, extra: usize, task: &(dyn Fn() + Sync)) {
        let guard = match self.poster.try_lock() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => {
                task();
                return;
            }
            // A previous poster panicked with the guard held. The data
            // under this mutex is `()` — nothing to repair — so clear
            // the poison and keep serializing posters instead of
            // wedging every later `par_map` call.
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
        };
        let extra = extra.min(self.handles.len());
        if extra == 0 {
            task();
            return;
        }
        // SAFETY: lifetime erasure only — the poster blocks in this call
        // until `running == 0`, so the borrow outlives every worker's
        // use of the erased reference (module docs, Soundness).
        let task_static: &'static (dyn Fn() + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &(dyn Fn() + Sync)>(task) };
        {
            let mut st = self.shared.lock_state();
            st.job = Some(TaskPtr(task_static as *const _));
            st.claims_left = extra;
            st.running = 0;
            st.epoch += 1;
            st.panic_msg = None;
        }
        self.shared.work_cv.notify_all();
        let own = catch_unwind(AssertUnwindSafe(task));
        let mut st = self.shared.lock_state();
        st.claims_left = 0; // no new claims once the poster is draining
        while st.running > 0 {
            st = self
                .shared
                .done_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.job = None;
        let worker_panic = st.panic_msg.take();
        drop(st);
        drop(guard);
        if let Err(payload) = own {
            panic!("par_map worker panicked: {}", panic_text(&payload));
        }
        if let Some(msg) = worker_panic {
            panic!("par_map worker panicked: {msg}");
        }
    }

    /// Order-preserving parallel map over `items` using up to `threads`
    /// participants (the caller plus `threads - 1` pool workers), with a
    /// per-participant scratch state created by `init`.
    ///
    /// `out[i] = f(scratch, i, &items[i])` — bitwise identical to the
    /// sequential map for any thread count, completion order, or pool
    /// contention, because results are written back by input index.
    pub fn par_map_with_threads<T, R, S, F, I>(
        &self,
        items: &[T],
        threads: usize,
        init: I,
        f: F,
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&mut S, usize, &T) -> R + Sync,
        I: Fn() -> S + Sync,
    {
        let n = items.len();
        let threads = threads.min(n);
        if threads <= 1 || n < 2 {
            let mut scratch = init();
            return items
                .iter()
                .enumerate()
                .map(|(i, t)| f(&mut scratch, i, t))
                .collect();
        }
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Slot<R>> = (0..n).map(|_| Slot(UnsafeCell::new(None))).collect();
        let task = || {
            let mut scratch = init();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&mut scratch, i, &items[i]);
                // SAFETY: the atomic cursor claims each index exactly
                // once, so this is the only writer of slot i; reads
                // happen only after execute() returns (all writers done).
                unsafe { *slots[i].0.get() = Some(r) };
            }
        };
        self.execute(threads - 1, &task);
        slots
            .into_iter()
            .map(|s| s.0.into_inner().expect("every index produced"))
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.lock_state();
            st.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for h in self.handles.drain(..) {
            // Workers catch task panics, so join only fails if a worker
            // itself died — surface that instead of leaking silently.
            h.join().expect("pool worker exited cleanly");
        }
    }
}

/// One result slot, written exactly once by the claiming participant.
struct Slot<R>(UnsafeCell<Option<R>>);

// SAFETY: slot i is written by exactly one participant (the atomic
// cursor hands out each index once) and read only after the parallel
// region joins, so shared `&Slot` access never races; `R: Send` lets
// the value cross from the writing worker to the collecting poster.
unsafe impl<R: Send> Sync for Slot<R> {}

fn worker_loop(shared: &Shared) {
    let mut seen_epoch = 0u64;
    let mut st = shared.lock_state();
    loop {
        if st.shutdown {
            break;
        }
        let claimable = st.job.is_some() && st.claims_left > 0 && st.epoch != seen_epoch;
        if claimable {
            st.claims_left -= 1;
            st.running += 1;
            seen_epoch = st.epoch;
            let task = st.job.as_ref().expect("claimable job").0;
            drop(st);
            // SAFETY: the poster keeps the closure alive until
            // `running == 0`, and this worker was counted into `running`
            // under the lock before taking the pointer.
            let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*task)() }));
            st = shared.lock_state();
            st.running -= 1;
            if let Err(payload) = result {
                st.panic_msg.get_or_insert_with(|| panic_text(&payload));
            }
            if st.running == 0 {
                shared.done_cv.notify_all();
            }
        } else {
            st = shared
                .work_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
    drop(st);
    shared.exited.fetch_add(1, Ordering::SeqCst);
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(pool: &WorkerPool, n: u64, threads: usize) -> Vec<u64> {
        let items: Vec<u64> = (0..n).collect();
        pool.par_map_with_threads(&items, threads, || (), |(), _, &x| x.wrapping_mul(x))
    }

    #[test]
    fn pool_map_matches_sequential() {
        let pool = WorkerPool::new(3);
        let expected: Vec<u64> = (0..999).map(|x: u64| x.wrapping_mul(x)).collect();
        assert_eq!(squares(&pool, 999, 4), expected);
        // Repeated jobs reuse the same workers.
        for _ in 0..16 {
            assert_eq!(squares(&pool, 999, 4), expected);
        }
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = WorkerPool::new(4);
        let shared = Arc::clone(&pool.shared);
        let _ = squares(&pool, 64, 5);
        drop(pool);
        assert_eq!(shared.exited.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn drop_joins_all_workers_after_task_panic() {
        let pool = WorkerPool::new(3);
        let shared = Arc::clone(&pool.shared);
        let items: Vec<u32> = (0..64).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map_with_threads(
                &items,
                4,
                || (),
                |(), _, &x| {
                    assert!(x != 7, "boom");
                    x
                },
            )
        }));
        let msg = panic_text(&*result.expect_err("panic must propagate"));
        assert!(msg.contains("par_map worker panicked"), "msg: {msg}");
        // The pool survives a panicked job…
        let expected: Vec<u64> = (0..64).map(|x: u64| x.wrapping_mul(x)).collect();
        assert_eq!(squares(&pool, 64, 4), expected);
        // …and drop still joins every worker: nothing leaked.
        drop(pool);
        assert_eq!(shared.exited.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn nested_maps_degrade_without_deadlock() {
        let pool = WorkerPool::new(2);
        let items: Vec<u64> = (0..16).collect();
        let out = pool.par_map_with_threads(
            &items,
            3,
            || (),
            |(), _, &x| {
                // A nested map on the same (busy) pool must not deadlock;
                // it runs on this participant alone.
                let inner: Vec<u64> = (0..8).collect();
                pool.par_map_with_threads(&inner, 3, || (), |(), _, &y| y + x)
                    .iter()
                    .sum::<u64>()
            },
        );
        let expected: Vec<u64> = (0..16).map(|x| (0..8).map(|y| y + x).sum()).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn busy_pool_runs_inline_with_raw_panic() {
        // While another poster holds the pool, a job runs inline on the
        // caller, and a panic in it propagates with the closure's own
        // payload — no `par_map worker panicked` wrapper.
        let pool = WorkerPool::new(1);
        let held = pool.poster.lock().unwrap();
        let items: Vec<u32> = (0..8).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map_with_threads(
                &items,
                2,
                || (),
                |(), _, &x| {
                    assert!(x != 3, "boom");
                    x
                },
            )
        }));
        drop(held);
        let msg = panic_text(&*result.expect_err("panic must propagate"));
        assert!(msg.contains("boom"), "msg: {msg}");
        assert!(!msg.contains("par_map worker panicked"), "msg: {msg}");
    }

    #[test]
    fn zero_extra_runs_on_caller() {
        let pool = WorkerPool::new(1);
        // threads=1 → sequential fast path, no job posted.
        assert_eq!(squares(&pool, 5, 1), vec![0, 1, 4, 9, 16]);
    }

    #[test]
    fn poisoned_locks_recover_instead_of_wedging() {
        let pool = WorkerPool::new(2);
        let expected: Vec<u64> = (0..64).map(|x: u64| x.wrapping_mul(x)).collect();
        // Poison the poster mutex: a thread panics with the guard held.
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _g = pool.poster.lock().unwrap();
                panic!("poison the poster lock");
            })
            .join()
        });
        assert!(poisoner.is_err());
        assert!(pool.poster.is_poisoned());
        // A subsequent map clears the poison and runs parallel again
        // (before the fix this panicked "pool poster lock poisoned").
        assert_eq!(squares(&pool, 64, 3), expected);
        // Same recovery for the state mutex shared with the workers.
        let poisoner = std::thread::scope(|s| {
            s.spawn(|| {
                let _g = pool.shared.state.lock().unwrap();
                panic!("poison the state lock");
            })
            .join()
        });
        assert!(poisoner.is_err());
        assert_eq!(squares(&pool, 64, 3), expected);
    }
}
