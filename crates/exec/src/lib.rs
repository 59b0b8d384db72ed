#![deny(missing_docs)]
//! `snids-exec` — a from-scratch, std-only work-stealing thread pool.
//!
//! The pipeline's flow-analysis tail (extraction → disassembly → IR lift →
//! template matching) is embarrassingly parallel: flows are independent and
//! share no mutable state. This crate supplies the executor that actually
//! spreads that work across cores. It is deliberately dependency-free (std
//! only) so the workspace stays hermetic.
//!
//! # Design
//!
//! * **One deque per worker, plus a global injector.** A worker pushes
//!   tasks it spawns onto the *back* of its own deque and pops from the
//!   back (LIFO — cache-hot, depth-first). External threads push onto the
//!   global injector. An idle worker takes from the injector first, then
//!   steals from the *front* of a sibling's deque (FIFO — the oldest,
//!   largest-granularity work migrates).
//! * **Chunked data-parallel maps.** [`ThreadPool::par_map`] and friends
//!   split a slice into contiguous chunks (about four per worker by
//!   default) and gather per-chunk results into pre-ordered slots, so the
//!   output order always equals the input order no matter which worker ran
//!   which chunk, or in what order.
//! * **Panic isolation.** Every task runs under `catch_unwind`. A panic in
//!   a strict map ([`ThreadPool::par_map`]) is re-thrown on the calling
//!   thread *after* every other task has finished — the pool's workers
//!   never die. [`ThreadPool::try_par_map`] goes further and isolates
//!   panics per *item*, returning `Err(TaskPanic)` for the poisoned inputs
//!   while every healthy item still produces its result. This is what lets
//!   the NIDS drop one hostile flow instead of the whole process.
//! * **Blocked callers help.** A worker that calls `par_map` on its own
//!   pool executes queued tasks while it waits, so nested parallelism
//!   cannot deadlock.
//!
//! # Sizing
//!
//! Worker count resolves, in order: an explicit [`ThreadPool::new`]
//! argument, the `SNIDS_THREADS` environment variable (for the shared
//! [`global`] pool), then [`std::thread::available_parallelism`].
//!
//! ```
//! let pool = snids_exec::ThreadPool::new(4);
//! let squares = pool.par_map(&[1u64, 2, 3, 4], |x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

mod latch;
mod pool;

pub use pool::{PoolStats, TaskPanic, ThreadPool, WorkerStats};

use std::sync::OnceLock;

/// Environment variable overriding the global pool's worker count.
pub const THREADS_ENV: &str = "SNIDS_THREADS";

/// Interpret a raw `SNIDS_THREADS` value: `Ok(None)` when unset,
/// `Ok(Some(n))` for a positive integer, and `Err(warning)` when the
/// variable is set but unusable (so the caller can surface it instead of
/// silently falling back).
pub fn parse_threads(raw: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = raw else { return Ok(None) };
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        Ok(_) => Err(format!(
            "{THREADS_ENV}={raw:?} must be at least 1; using detected parallelism instead"
        )),
        Err(_) => Err(format!(
            "{THREADS_ENV}={raw:?} is not a positive integer; using detected parallelism instead"
        )),
    }
}

/// Worker count the global pool uses: `SNIDS_THREADS` when set to a
/// positive integer, otherwise [`std::thread::available_parallelism`]
/// (falling back to 1 when even that is unavailable). An unusable
/// `SNIDS_THREADS` value emits a warning through [`snids_obs::warn`]
/// rather than falling back silently — once per process, because the
/// global pool is lazy and a front-end may also call this eagerly at
/// startup to surface the warning even on runs that never parallelize.
pub fn default_threads() -> usize {
    static WARNED: std::sync::Once = std::sync::Once::new();
    let raw = std::env::var(THREADS_ENV).ok();
    match parse_threads(raw.as_deref()) {
        Ok(Some(n)) => n,
        Ok(None) => detected_parallelism(),
        Err(warning) => {
            WARNED.call_once(|| snids_obs::warn(&warning));
            detected_parallelism()
        }
    }
}

fn detected_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The process-wide shared pool, created on first use with
/// [`default_threads`] workers. Lives for the remainder of the process.
pub fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| ThreadPool::new(default_threads()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_threads_accepts_positive_integers() {
        assert_eq!(parse_threads(None), Ok(None));
        assert_eq!(parse_threads(Some("1")), Ok(Some(1)));
        assert_eq!(parse_threads(Some(" 8 ")), Ok(Some(8)));
    }

    #[test]
    fn parse_threads_rejects_garbage_with_a_warning() {
        for bad in ["0", "-2", "two", "", "4.5"] {
            let err = parse_threads(Some(bad)).expect_err(bad);
            assert!(err.contains(THREADS_ENV), "{err}");
            assert!(err.contains("detected parallelism"), "{err}");
        }
    }
}
