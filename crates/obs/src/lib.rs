#![deny(missing_docs)]
#![forbid(unsafe_code)]
//! `snids-obs` — pipeline-wide observability: stage metrics, latency
//! histograms, a flow flight recorder, and metric exposition.
//!
//! The rest of the workspace justifies its design with end-to-end numbers;
//! this crate supplies the *inside* view. It is std-only and
//! dependency-free so every other crate can sit on top of it, and it is
//! built around one rule: **near-zero cost when disabled**. Every
//! instrumentation point checks a single atomic flag
//! ([`Obs::enabled`]) before taking a timestamp or touching a counter, so
//! a production pipeline that never asks for metrics pays one relaxed
//! atomic load per event and nothing else.
//!
//! # Pieces
//!
//! * [`Stage`] — the eight pipeline stages (capture → classify → defrag →
//!   reassembly → extract → decode → IR-lift → template-match).
//! * [`hist::LogHistogram`] — lock-free log₂-bucketed latency histogram
//!   with p50/p90/p99/max readout.
//! * [`Obs`] — a cheaply clonable handle over the per-pipeline registry:
//!   per-stage event/byte counters and latency histograms, per-flow
//!   latency, and the flight recorder. A [`Snapshot`]'s `named` rows
//!   (ledger counts and live gauges) are filled by the pipeline that owns
//!   the registry, at snapshot time; the registry keeps none. Registries are **per pipeline**,
//!   not process-global, so concurrent pipelines (and parallel tests)
//!   never share a metric — except the warning count
//!   (`snids_warnings_total`), which every snapshot reads from the one
//!   process-wide [`warn`] stream.
//! * [`recorder::FlightRecorder`] — a bounded ring (a `VecDeque` behind a
//!   mutex, one writer) of recent pipeline events tagged with flow
//!   identity; when an alert fires or a flow is dropped the pipeline
//!   dumps the flow's causal trail.
//! * [`expo`] — deterministic Prometheus-style text and JSON rendering of
//!   a [`Snapshot`].
//! * [`flowlat`] — per-flow, per-stage latency attribution: each flow's
//!   stage-nanos trail is settled once into an outcome-labeled histogram
//!   family (`snids_flow_latency_*`), and the trail of an alerted,
//!   panicked or evicted flow is handed straight to its flight dump.
//! * [`serve::MetricsServer`] — a minimal blocking TCP responder for
//!   `--metrics-listen`.
//! * [`warn`] — the process-wide warning stream (counted, bounded,
//!   mirrored to stderr) for configuration problems that must not be
//!   silent.
//! * [`json`] — string escaping for the workspace's hand-rolled JSON
//!   emitters, and a bounded parser that reads them back.

pub mod expo;
pub mod flowlat;
pub mod hist;
pub mod json;
pub mod recorder;
mod registry;
pub mod serve;
mod stage;

pub use flowlat::{FlowLatencySnapshot, FlowOutcome};
pub use recorder::{Event, EventKind, FlightRecorder};
pub use registry::{Obs, Snapshot, StageSnapshot, DEFAULT_RECORDER_CAPACITY};
pub use serve::MetricsServer;
pub use stage::Stage;

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Warnings retained for [`recent_warnings`] (older ones are dropped; the
/// total is still counted).
const MAX_RETAINED_WARNINGS: usize = 32;

static WARNING_COUNT: AtomicU64 = AtomicU64::new(0);
static WARNINGS: Mutex<VecDeque<String>> = Mutex::new(VecDeque::new());

/// Emit a process-level warning through the observability event stream:
/// counted, retained for exposition, and mirrored to stderr so it is
/// visible even when nobody scrapes metrics. Use for configuration
/// problems (a bad `SNIDS_THREADS`, an unparsable option) that previously
/// fell back silently.
pub fn warn(message: &str) {
    WARNING_COUNT.fetch_add(1, Ordering::Relaxed);
    eprintln!("snids: warning: {message}");
    let mut retained = WARNINGS.lock().unwrap_or_else(|e| e.into_inner());
    if retained.len() >= MAX_RETAINED_WARNINGS {
        retained.pop_front();
    }
    retained.push_back(message.to_string());
}

/// Total warnings emitted by this process so far.
pub fn warning_count() -> u64 {
    WARNING_COUNT.load(Ordering::Relaxed)
}

/// The most recent warnings (up to a small retained cap), oldest first.
pub fn recent_warnings() -> Vec<String> {
    WARNINGS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warnings_are_counted_and_retained() {
        let before = warning_count();
        warn("obs-test: first");
        warn("obs-test: second");
        assert!(warning_count() >= before + 2);
        let recent = recent_warnings();
        assert!(recent.iter().any(|w| w.contains("obs-test: second")));
    }
}
