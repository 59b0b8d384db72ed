#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! `snids-exec` — a from-scratch, std-only, ordered parallel map.
//!
//! The pipeline's flow-analysis tail (extraction → disassembly → IR lift →
//! template matching) is embarrassingly parallel: flows are independent and
//! share no mutable state. So the only parallelism the engine needs is an
//! ordered map over flow batches, and this crate supplies exactly that. It
//! is deliberately dependency-free (std only) so the workspace stays
//! hermetic.
//!
//! # Design
//!
//! * **Scoped workers, one cursor.** [`ThreadPool::try_par_map`] runs
//!   inside [`std::thread::scope`]: the calling thread is worker 0, joined
//!   by up to `threads - 1` scoped helpers. Each worker claims the next
//!   unclaimed item from one shared atomic cursor, so uneven items balance
//!   themselves. No thread outlives the call.
//! * **Ordered output.** Each result is tagged with its item's index and
//!   put back in input order after the join, so the output never depends
//!   on which worker ran which item.
//! * **Panic isolation.** Every item runs under `catch_unwind`; a panic
//!   yields `Err(TaskPanic)` for that item while every healthy item still
//!   produces its result. This is what lets the NIDS drop one hostile flow
//!   instead of the whole process.
//! * **Exact self-profile.** Each worker books its item count and busy
//!   time before the join, so [`ThreadPool::stats`] read after a map
//!   returns accounts for all of it.
//!
//! # Sizing
//!
//! The worker count is the [`ThreadPool::new`] argument. Callers that do
//! not pick one use [`default_threads`]: the `SNIDS_THREADS` environment
//! variable, else [`std::thread::available_parallelism`].
//!
//! ```
//! let pool = snids_exec::ThreadPool::new(4);
//! let squares: Result<Vec<u64>, _> =
//!     pool.try_par_map(&[1u64, 2, 3, 4], |x| x * x).into_iter().collect();
//! assert_eq!(squares, Ok(vec![1, 4, 9, 16]));
//! ```

mod pool;

pub use pool::{PoolStats, TaskPanic, ThreadPool, WorkerStats};

/// Environment variable overriding the default worker count.
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

/// Worker count for a pool whose caller did not pick one: `SNIDS_THREADS`
/// when set to a positive integer, otherwise
/// [`std::thread::available_parallelism`] (falling back to 1 when even
/// that is unavailable). An unusable `SNIDS_THREADS` value emits a warning
/// through [`snids_obs::warn`] rather than falling back silently — once
/// per process, because every pipeline resolves its pool lazily and a
/// front-end may also call this eagerly at startup to surface the warning
/// even on runs that never parallelize.
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
