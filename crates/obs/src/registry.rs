//! The per-pipeline metrics registry behind the [`Obs`] handle.

use crate::flowlat::{FlowLatencySnapshot, FlowLatencyTracker, FlowOutcome, TRAIL_STAGES};
use crate::hist::LogHistogram;
use crate::recorder::FlightRecorder;
use crate::stage::Stage;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Flight-recorder capacity, in events, of a pipeline's registry.
pub const DEFAULT_RECORDER_CAPACITY: usize = 1024;

/// Per-stage instrumentation: how many events the stage handled, how many
/// bytes they carried, and the latency distribution.
#[derive(Debug, Default)]
struct StageMetrics {
    events: AtomicU64,
    bytes: AtomicU64,
    latency: LogHistogram,
}

#[derive(Debug)]
struct ObsCore {
    enabled: AtomicBool,
    stages: [StageMetrics; Stage::ALL.len()],
    recorder: FlightRecorder,
    /// The outcome histograms of settled per-flow stage-nanos trails.
    flow: Mutex<FlowLatencyTracker>,
}

/// The observability handle a pipeline (and its helpers) carry around.
///
/// Cloning is an `Arc` bump; every method is safe to call from any thread.
/// The registry is **per pipeline**: two `Nids` instances in one process
/// observe into disjoint registries. The one process-wide value in a
/// [`Snapshot`] is the warning count (`snids_warnings_total`, see
/// [`crate::warn`]). [`Obs::disabled`] returns a shared
/// inert handle whose every instrumentation call reduces to one relaxed
/// atomic load — that is the entire disabled-mode cost.
#[derive(Debug, Clone)]
pub struct Obs {
    core: Arc<ObsCore>,
}

impl Obs {
    /// An enabled registry with a flight recorder of `recorder_capacity`
    /// events.
    pub fn new(recorder_capacity: usize) -> Obs {
        Obs {
            core: Arc::new(ObsCore {
                enabled: AtomicBool::new(true),
                stages: Default::default(),
                recorder: FlightRecorder::new(recorder_capacity),
                flow: Mutex::new(FlowLatencyTracker::default()),
            }),
        }
    }

    /// The shared inert handle: never enabled, never records. All
    /// disabled pipelines share one allocation.
    pub fn disabled() -> Obs {
        static DISABLED: OnceLock<Obs> = OnceLock::new();
        DISABLED
            .get_or_init(|| {
                let obs = Obs::new(1);
                obs.core.enabled.store(false, Ordering::Relaxed);
                obs
            })
            .clone()
    }

    /// The per-event gate: instrumentation points check this once and
    /// skip all measurement work when it is false.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.core.enabled.load(Ordering::Relaxed)
    }

    /// Record one handled event at `stage`: latency in nanoseconds and
    /// the bytes it carried. Callers should gate on [`Obs::enabled`]
    /// *before* measuring the latency; this method records
    /// unconditionally.
    pub fn record_stage(&self, stage: Stage, nanos: u64, bytes: u64) {
        let m = &self.core.stages[stage as usize];
        m.events.fetch_add(1, Ordering::Relaxed);
        m.bytes.fetch_add(bytes, Ordering::Relaxed);
        m.latency.record(nanos);
    }

    /// Events handled by `stage` so far.
    pub fn stage_events(&self, stage: Stage) -> u64 {
        self.core.stages[stage as usize]
            .events
            .load(Ordering::Relaxed)
    }

    /// The flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.core.recorder
    }

    /// Settle one flow once its fate is known: fold its stage-nanos
    /// `trail` into the (stage × `outcome`) histogram family. Called once
    /// per flow, never on the per-packet path.
    pub fn flow_settle(&self, outcome: FlowOutcome, trail: &[u64; TRAIL_STAGES]) {
        self.core
            .flow
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .settle(outcome, trail);
    }

    /// A deterministic point-in-time copy of what the registry measures
    /// itself. `named` is left empty for the pipeline that owns the
    /// registry to fill from its ledger and gauges.
    pub fn snapshot(&self) -> Snapshot {
        let stages = Stage::ALL
            .iter()
            .map(|&stage| {
                let m = &self.core.stages[stage as usize];
                StageSnapshot {
                    stage,
                    events: m.events.load(Ordering::Relaxed),
                    bytes: m.bytes.load(Ordering::Relaxed),
                    count: m.latency.count(),
                    sum_nanos: m.latency.sum(),
                    max_nanos: m.latency.max(),
                    p50_nanos: m.latency.quantile(0.50),
                    p90_nanos: m.latency.quantile(0.90),
                    p99_nanos: m.latency.quantile(0.99),
                    buckets: m.latency.buckets(),
                }
            })
            .collect();
        let (flow_latency, flow_tracked) = self
            .core
            .flow
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .snapshot();
        Snapshot {
            enabled: self.enabled(),
            stages,
            named: Vec::new(),
            flow_latency,
            flow_tracked,
            warnings: crate::warning_count(),
            recorder_recorded: self.core.recorder.recorded(),
            recorder_capacity: self.core.recorder.capacity(),
        }
    }
}

/// Point-in-time metrics for one stage.
#[derive(Debug, Clone)]
pub struct StageSnapshot {
    /// Which stage.
    pub stage: Stage,
    /// Events handled.
    pub events: u64,
    /// Bytes carried by those events.
    pub bytes: u64,
    /// Latency observations recorded (usually equals `events`).
    pub count: u64,
    /// Total nanoseconds across observations.
    pub sum_nanos: u64,
    /// Worst observed latency.
    pub max_nanos: u64,
    /// Median latency (bucket upper bound).
    pub p50_nanos: u64,
    /// 90th-percentile latency.
    pub p90_nanos: u64,
    /// 99th-percentile latency.
    pub p99_nanos: u64,
    /// Raw log₂ bucket counts (for full-histogram exposition).
    pub buckets: [u64; crate::hist::BUCKETS],
}

/// A deterministic copy of a registry, ready for rendering.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Whether the registry was live when snapped.
    pub enabled: bool,
    /// Per-stage metrics, in pipeline order.
    pub stages: Vec<StageSnapshot>,
    /// Counters and gauges kept outside the registry, sorted by name (a
    /// name may embed a Prometheus label set, e.g.
    /// `snids_pool_tasks_total{thread="0"}`). Empty from
    /// [`Obs::snapshot`].
    pub named: Vec<(String, u64)>,
    /// Per-flow per-stage latency distributions by outcome (only
    /// combinations with settled flows, in (stage, outcome) order).
    pub flow_latency: Vec<FlowLatencySnapshot>,
    /// Flows settled into the per-flow latency family.
    pub flow_tracked: u64,
    /// Process-wide warning count (see [`crate::warn`]).
    pub warnings: u64,
    /// Flight-recorder events recorded.
    pub recorder_recorded: u64,
    /// Flight-recorder capacity.
    pub recorder_capacity: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_shared_and_inert() {
        let a = Obs::disabled();
        let b = Obs::disabled();
        assert!(!a.enabled());
        assert!(Arc::ptr_eq(&a.core, &b.core));
    }

    #[test]
    fn stage_metrics_accumulate() {
        let obs = Obs::new(8);
        assert!(obs.enabled());
        obs.record_stage(Stage::Classify, 100, 64);
        obs.record_stage(Stage::Classify, 300, 36);
        let snap = obs.snapshot();
        let classify = &snap.stages[Stage::Classify as usize];
        assert_eq!(classify.events, 2);
        assert_eq!(classify.bytes, 100);
        assert_eq!(classify.count, 2);
        assert_eq!(classify.sum_nanos, 400);
        assert_eq!(classify.max_nanos, 300);
        assert_eq!(obs.stage_events(Stage::Classify), 2);
        assert_eq!(snap.stages[Stage::Capture as usize].events, 0);
    }

    #[test]
    fn registries_are_independent() {
        let a = Obs::new(8);
        let b = Obs::new(8);
        a.record_stage(Stage::Capture, 1, 1);
        assert_eq!(a.stage_events(Stage::Capture), 1);
        assert_eq!(b.stage_events(Stage::Capture), 0);
    }
}
