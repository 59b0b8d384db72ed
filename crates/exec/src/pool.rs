//! The pool proper: one ordered, panic-isolating parallel map on scoped
//! threads.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// One worker's self-profiling cells, booked once per map when the worker
/// runs out of items.
#[derive(Default)]
struct WorkerCells {
    /// Items this worker ran.
    tasks: AtomicU64,
    /// Nanoseconds this worker spent claiming and running items.
    busy_nanos: AtomicU64,
}

/// A parallel-map executor for `threads` workers. See the crate docs.
///
/// It holds no threads between calls: each [`ThreadPool::try_par_map`]
/// runs on the calling thread plus up to `threads - 1` scoped helpers, and
/// joins them all before it returns.
pub struct ThreadPool {
    threads: usize,
    /// Items whose panic a map contained.
    tasks_panicked: AtomicU64,
    /// Per-worker tallies; index 0 is the calling thread.
    workers: Vec<WorkerCells>,
}

/// One worker's tallies (see [`ThreadPool::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Items this worker ran.
    pub tasks: u64,
    /// Always 0: every worker claims from one shared cursor, so there is
    /// nothing to steal. Kept for readers of the field.
    pub steals: u64,
    /// Wall nanoseconds this worker spent claiming and running items.
    pub busy_nanos: u64,
}

/// A scheduler self-profile. Exact once the map that booked it returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker count.
    pub threads: usize,
    /// Items whose panic a map contained.
    pub tasks_panicked: u64,
    /// Per-worker tallies, indexed by worker (0 is the calling thread).
    pub workers: Vec<WorkerStats>,
}

impl PoolStats {
    /// Total items run across workers.
    pub fn tasks_total(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks).sum()
    }

    /// Total steals across workers: always 0 (see [`WorkerStats::steals`]).
    pub fn steals_total(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }
}

/// A contained panic from one item of a [`ThreadPool::try_par_map`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// The panic payload, stringified when it was a `&str`/`String`.
    pub message: String,
}

impl TaskPanic {
    fn from_payload(payload: Box<dyn Any + Send>) -> TaskPanic {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        TaskPanic { message }
    }
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task panicked: {}", self.message)
    }
}

impl std::error::Error for TaskPanic {}

impl ThreadPool {
    /// A pool of `threads` workers (clamped to at least 1). No thread is
    /// spawned until a map runs.
    pub fn new(threads: usize) -> ThreadPool {
        let threads = threads.max(1);
        ThreadPool {
            threads,
            tasks_panicked: AtomicU64::new(0),
            workers: (0..threads).map(|_| WorkerCells::default()).collect(),
        }
    }

    /// Number of workers, the calling thread included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Items whose panic a map contained so far.
    pub fn tasks_panicked(&self) -> u64 {
        self.tasks_panicked.load(Ordering::Relaxed)
    }

    /// The per-worker item and busy tallies booked by every map so far.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            threads: self.threads,
            tasks_panicked: self.tasks_panicked(),
            workers: self
                .workers
                .iter()
                .map(|c| WorkerStats {
                    tasks: c.tasks.load(Ordering::Relaxed),
                    steals: 0,
                    busy_nanos: c.busy_nanos.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }

    /// Map `f` over `items` with per-item panic isolation: item `i`'s
    /// result is `Err(TaskPanic)` when `f` panicked on it, and every other
    /// item still yields `Ok`. Output order equals input order.
    ///
    /// The calling thread is worker 0, joined by up to `threads - 1`
    /// scoped helpers; each worker claims the next unclaimed item from one
    /// shared cursor. A helper the OS refuses to spawn is simply absent:
    /// the remaining workers drain the cursor.
    pub fn try_par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<Result<R, TaskPanic>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let next = AtomicUsize::new(0);
        let work = |worker: usize| {
            let start = Instant::now();
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let result = catch_unwind(AssertUnwindSafe(|| f(item)));
                done.push((i, result.map_err(TaskPanic::from_payload)));
            }
            let cells = &self.workers[worker];
            cells.tasks.fetch_add(done.len() as u64, Ordering::Relaxed);
            cells
                .busy_nanos
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            done
        };
        let helpers = self.threads.min(items.len()).saturating_sub(1);
        let work = &work;
        let mut results: Vec<(usize, Result<R, TaskPanic>)> = std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..=helpers)
                .filter_map(|worker| {
                    std::thread::Builder::new()
                        .name(format!("snids-exec-{worker}"))
                        .spawn_scoped(scope, move || work(worker))
                        .ok()
                })
                .collect();
            let mut results = work(0);
            for helper in spawned {
                // Items run under `catch_unwind`, so a helper can only
                // unwind from its own bookkeeping.
                results.extend(
                    helper
                        .join()
                        .unwrap_or_else(|payload| resume_unwind(payload)),
                );
            }
            results
        });
        results.sort_unstable_by_key(|(i, _)| *i);
        let contained = results.iter().filter(|(_, r)| r.is_err()).count() as u64;
        self.tasks_panicked.fetch_add(contained, Ordering::Relaxed);
        results.into_iter().map(|(_, r)| r).collect()
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .field("tasks_panicked", &self.tasks_panicked())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_par_map_preserves_order() {
        for threads in [1, 2, 4, 8] {
            let pool = ThreadPool::new(threads);
            let items: Vec<u64> = (0..1000).collect();
            let doubled: Vec<u64> = pool
                .try_par_map(&items, |x| x * 2)
                .into_iter()
                .map(|r| r.unwrap())
                .collect();
            assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn try_par_map_isolates_poisoned_items() {
        let pool = ThreadPool::new(4);
        let items: Vec<u32> = (0..100).collect();
        let results = pool.try_par_map(&items, |&x| {
            if x % 10 == 7 {
                panic!("bad item {x}");
            }
            x * 3
        });
        assert_eq!(results.len(), 100);
        for (i, r) in results.iter().enumerate() {
            if i % 10 == 7 {
                let err = r.as_ref().unwrap_err();
                assert!(err.message.contains("bad item"), "{err}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u32 * 3);
            }
        }
        assert_eq!(pool.tasks_panicked(), 10);
        assert_eq!(pool.stats().tasks_panicked, 10);
    }

    #[test]
    fn empty_input_is_fine() {
        let pool = ThreadPool::new(4);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.try_par_map(&empty, |x| *x).is_empty());
        assert_eq!(pool.stats().tasks_total(), 0);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.try_par_map(&[5u8], |x| x + 1), vec![Ok(6)]);
    }

    #[test]
    fn stats_are_exact_when_the_map_returns() {
        for threads in [1, 3] {
            let pool = ThreadPool::new(threads);
            let items: Vec<u64> = (0..500).collect();
            let _ = pool.try_par_map(&items, |x| {
                // Enough work per item that busy_nanos cannot round to zero.
                (0..200u64).fold(*x, |acc, i| acc.wrapping_mul(31).wrapping_add(i))
            });
            // No wait: every worker booked its tallies before the join.
            let stats = pool.stats();
            assert_eq!(stats.threads, threads);
            assert_eq!(stats.workers.len(), threads);
            assert_eq!(stats.tasks_total(), items.len() as u64, "{stats:?}");
            assert_eq!(stats.steals_total(), 0);
            assert_eq!(stats.tasks_panicked, 0);
            assert!(stats.workers.iter().map(|w| w.busy_nanos).sum::<u64>() > 0);
        }
    }
}
