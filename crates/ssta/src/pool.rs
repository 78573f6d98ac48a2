//! A minimal scoped-thread worker pool for deterministic fan-out.
//!
//! `std`-only (no rayon in the offline shims environment): a
//! [`ScopedPool`] runs `tasks` independent jobs — identified by their
//! index — across up to `threads` scoped worker threads that pull indices
//! from a shared atomic counter, and returns the results **ordered by task
//! index**, regardless of which worker computed what or in which order
//! workers finished.
//!
//! That index-ordered contract is what the parallel Monte-Carlo engine
//! builds its determinism guarantee on: each task derives everything it
//! needs (its RNG stream, its sample range) from the task index alone, so
//! the gathered result vector — and anything folded over it in index
//! order — is bit-identical for 1 thread and N threads.
//!
//! # Spawn cost and amortization
//!
//! Workers are *scoped threads spawned per `map` call*, not a resident
//! pool — that is what lets borrowed data flow into jobs with no `Arc`
//! or channel plumbing, but it prices every call at a few tens of
//! microseconds of spawn/join overhead. Callers with many small
//! batches must amortize: either batch the work (the Monte-Carlo
//! engine maps over a handful of large sample chunks, not one task per
//! sample) or gate the call on a task-count threshold and run small
//! batches inline on the calling thread. The level-ordered propagation
//! arena does the latter — a per-level fan-out only pays for spawns
//! when the level holds at least `PARALLEL_LEVEL_MIN` work items
//! (see `state.rs`), so narrow circuits like c17 never spawn at all,
//! at any configured width. The `analytic_parallel` group in
//! `crates/bench/benches/ssta_engines.rs` tracks both sides of that
//! trade.
//!
//! # Example
//!
//! ```
//! use vartol_ssta::pool::ScopedPool;
//!
//! let serial = ScopedPool::new(1).map(8, |i| i * i);
//! let parallel = ScopedPool::new(4).map(8, |i| i * i);
//! assert_eq!(serial, parallel);
//! assert_eq!(serial, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// A fixed-width pool of scoped worker threads.
///
/// Cheap to construct; threads are spawned per [`ScopedPool::map`] call
/// (via [`std::thread::scope`]) and joined before it returns, so borrowed
/// data can flow into the job closure freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopedPool {
    threads: usize,
}

impl ScopedPool {
    /// Creates a pool with the given width. `0` means "one worker per
    /// available CPU" (`std::thread::available_parallelism`, asked once
    /// per process: on Linux it reads cgroup files, which can take as long
    /// as a small incremental refresh).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        static CPUS: OnceLock<usize> = OnceLock::new();
        let threads = if threads == 0 {
            *CPUS.get_or_init(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            })
        } else {
            threads
        };
        Self { threads }
    }

    /// The resolved worker count (never zero).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `job(i)` for every `i in 0..tasks` and returns the results in
    /// task-index order. Runs inline on the calling thread when the pool
    /// is single-width or there is at most one task.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any job (after joining the other workers).
    pub fn map<T, F>(&self, tasks: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.map_init(tasks, || (), move |(), i| job(i))
    }

    /// Like [`ScopedPool::map`], but every worker builds one reusable
    /// scratch state with `init` before pulling task indices, and `job`
    /// receives `&mut` access to its worker's state alongside the index.
    ///
    /// This is the amortization hook for jobs that need an expensive
    /// mutable workspace (the optimizer's speculative netlist forks): the
    /// workspace is built once per worker, not once per task.
    ///
    /// Determinism contract: the result of `job(state, i)` must depend
    /// only on `i` (and on data captured by the closures) — never on
    /// which worker ran it or on what that worker ran before. In
    /// practice, `job` must leave `state` observationally unchanged
    /// (e.g. roll back every trial mutation) before returning. Under that
    /// contract the returned vector is bit-identical for every pool
    /// width, exactly like [`ScopedPool::map`].
    ///
    /// # Panics
    ///
    /// Propagates a panic from any `init` or `job` call (after joining
    /// the other workers).
    pub fn map_init<S, T, I, F>(&self, tasks: usize, init: I, job: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        if tasks == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(tasks);
        if workers <= 1 {
            let mut state = init();
            return (0..tasks).map(|i| job(&mut state, i)).collect();
        }

        let next = AtomicUsize::new(0);
        let init = &init;
        let job = &job;
        let buckets: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next = &next;
                    s.spawn(move || {
                        let mut state = init();
                        let mut done = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= tasks {
                                break;
                            }
                            done.push((i, job(&mut state, i)));
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });

        let mut out: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
        for (i, v) in buckets.into_iter().flatten() {
            out[i] = Some(v);
        }
        out.into_iter()
            .map(|slot| slot.expect("every task index produced exactly one result"))
            .collect()
    }

    /// Distributes **owned** work items across the pool: runs
    /// `job(i, items[i])` for every item, handing each item to whichever
    /// worker pulls its index, and returns results in item order. This is
    /// the fan-out primitive for jobs that need `&mut` (or by-value)
    /// access to per-task state — e.g. one mutable circuit session per
    /// task — which the shared-closure [`ScopedPool::map`] cannot grant.
    ///
    /// Determinism contract: identical to [`ScopedPool::map`] — the
    /// result of `job(i, item)` must depend only on `(i, item)` and
    /// captured data, never on the worker or its history; under that
    /// contract the returned vector is bit-identical for every pool
    /// width.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any job (after joining the other
    /// workers).
    pub fn map_items<T, U, F>(&self, items: Vec<T>, job: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(usize, T) -> U + Sync,
    {
        let tasks = items.len();
        // Hand-off slots: worker `i` takes item `i` exactly once, so the
        // per-slot locks are never contended.
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        self.map(tasks, |i| {
            let item = slots[i]
                .lock()
                .expect("hand-off slots are never poisoned")
                .take()
                .expect("each item index is pulled exactly once");
            job(i, item)
        })
    }
}

impl Default for ScopedPool {
    /// One worker per available CPU.
    fn default() -> Self {
        Self::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn zero_width_resolves_to_available_parallelism() {
        assert!(ScopedPool::new(0).threads() >= 1);
        assert_eq!(ScopedPool::default(), ScopedPool::new(0));
    }

    #[test]
    fn explicit_width_is_kept() {
        assert_eq!(ScopedPool::new(3).threads(), 3);
    }

    #[test]
    fn results_are_index_ordered_for_all_widths() {
        let expected: Vec<usize> = (0..100).map(|i| i * 7 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = ScopedPool::new(threads).map(100, |i| i * 7 + 1);
            assert_eq!(got, expected, "{threads} threads");
        }
    }

    #[test]
    fn empty_and_single_task_work() {
        assert_eq!(ScopedPool::new(8).map(0, |i| i), Vec::<usize>::new());
        assert_eq!(ScopedPool::new(8).map(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let runs = AtomicUsize::new(0);
        let out = ScopedPool::new(4).map(1000, |i| {
            runs.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(runs.load(Ordering::Relaxed), 1000);
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn borrowed_data_flows_into_jobs() {
        let data: Vec<f64> = (0..64).map(f64::from).collect();
        let sums = ScopedPool::new(4).map(8, |i| data[i * 8..(i + 1) * 8].iter().sum::<f64>());
        assert_eq!(sums.iter().sum::<f64>(), data.iter().sum::<f64>());
    }

    #[test]
    fn map_init_results_are_index_ordered_for_all_widths() {
        // A per-worker scratch buffer, mutated and rolled back per task —
        // the optimizer-fork usage pattern.
        let expected: Vec<usize> = (0..200).map(|i| i * 3 + 5).collect();
        for threads in [1, 2, 3, 8] {
            let inits = AtomicUsize::new(0);
            let got = ScopedPool::new(threads).map_init(
                200,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    vec![0usize; 4]
                },
                |scratch, i| {
                    scratch[i % 4] = i; // trial mutation
                    let r = scratch[i % 4] * 3 + 5;
                    scratch[i % 4] = 0; // rolled back
                    r
                },
            );
            assert_eq!(got, expected, "{threads} threads");
            assert!(
                inits.load(Ordering::Relaxed) <= threads.max(1),
                "at most one init per worker"
            );
        }
    }

    #[test]
    fn map_init_zero_tasks_never_calls_init() {
        let inits = AtomicUsize::new(0);
        let out = ScopedPool::new(4).map_init(
            0,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
            },
            |(), i| i,
        );
        assert!(out.is_empty());
        assert_eq!(inits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn map_items_moves_each_item_exactly_once_in_order() {
        // Items are owned (non-Clone wrapper) and results must come back
        // in item order for every width.
        struct Owned(usize);
        for threads in [1, 2, 3, 8] {
            let items: Vec<Owned> = (0..100).map(Owned).collect();
            let got = ScopedPool::new(threads).map_items(items, |i, item| {
                assert_eq!(i, item.0, "slot i hands out item i");
                item.0 * 11 + 2
            });
            let expected: Vec<usize> = (0..100).map(|i| i * 11 + 2).collect();
            assert_eq!(got, expected, "{threads} threads");
        }
    }

    #[test]
    fn map_items_empty_is_empty() {
        let got = ScopedPool::new(4).map_items(Vec::<u32>::new(), |_, x| x);
        assert!(got.is_empty());
    }

    #[test]
    #[should_panic(expected = "job 3 failed")]
    fn worker_panics_propagate() {
        let _ = ScopedPool::new(2).map(8, |i| {
            assert!(i != 3, "job {i} failed");
            i
        });
    }
}
