//! Per-flow, per-stage latency attribution.
//!
//! The stage histograms in the registry aggregate globally: they say the
//! decoder's p99 is high, not *which flows* paid it. This module closes
//! that gap. Each flow carries a **stage-nanos trail** (total nanoseconds
//! the flow spent in each per-flow stage), and the pipeline settles the
//! trail here exactly once, when the flow's fate is known. Settling folds
//! it into a per-stage histogram family labeled by outcome — rendered as
//! `snids_flow_latency_*`. Nothing is kept per flow: the pipeline hands
//! the trail of an alerted, panicked or evicted flow straight to that
//! flow's flight dump ([`render_trail`]).
//!
//! Only the stages that run *per flow* appear in a trail (pre-filter,
//! reassembly, and the analysis tail: extract → decode → IR-lift →
//! template-match → dataflow). The front-half stages (capture, classify,
//! defrag) run before flow identity is cheap to compute and keep their
//! global aggregation.
//!
//! There is no per-flow map here: the flow table already bounds and
//! evicts flows, so every flow that entered it settles once — analyzed
//! (`alerted`/`benign`) or not (`dropped`) — and the settled counts do
//! not depend on the worker count.

use crate::hist::{LogHistogram, BUCKETS};
use crate::stage::Stage;

/// Number of stages a trail covers (indexed by `Stage as usize`).
pub const TRAIL_STAGES: usize = Stage::ALL.len();

/// What ultimately happened to a flow — the label axis of the
/// `snids_flow_latency_*` family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlowOutcome {
    /// The analyzer raised at least one alert on the flow.
    Alerted = 0,
    /// The flow entered the flow table and left it without a verdict
    /// (evicted unanalyzed, or its analysis panicked).
    Dropped = 1,
    /// Analyzed clean.
    Benign = 2,
}

impl FlowOutcome {
    /// Every outcome, in label order.
    pub const ALL: [FlowOutcome; 3] = [
        FlowOutcome::Alerted,
        FlowOutcome::Dropped,
        FlowOutcome::Benign,
    ];

    /// Stable label value.
    pub fn name(self) -> &'static str {
        match self {
            FlowOutcome::Alerted => "alerted",
            FlowOutcome::Dropped => "dropped",
            FlowOutcome::Benign => "benign",
        }
    }
}

/// The mutex-guarded tracker state inside the registry.
#[derive(Debug)]
pub(crate) struct FlowLatencyTracker {
    /// (stage × outcome) distributions of settled per-flow stage time:
    /// one observation per flow that spent time in the stage.
    dists: Vec<LogHistogram>,
    /// Flows settled into the family.
    tracked: u64,
}

impl Default for FlowLatencyTracker {
    fn default() -> Self {
        FlowLatencyTracker {
            dists: (0..TRAIL_STAGES * FlowOutcome::ALL.len())
                .map(|_| LogHistogram::default())
                .collect(),
            tracked: 0,
        }
    }
}

/// Index of the (stage, outcome) cell in `FlowLatencyTracker::dists`.
fn cell(stage: Stage, outcome: FlowOutcome) -> usize {
    stage as usize * FlowOutcome::ALL.len() + outcome as usize
}

impl FlowLatencyTracker {
    pub(crate) fn settle(&mut self, outcome: FlowOutcome, trail: &[u64; TRAIL_STAGES]) {
        self.tracked += 1;
        for (stage, &nanos) in Stage::ALL.iter().zip(trail) {
            if nanos > 0 {
                if let Some(dist) = self.dists.get(cell(*stage, outcome)) {
                    dist.record(nanos);
                }
            }
        }
    }

    pub(crate) fn snapshot(&self) -> (Vec<FlowLatencySnapshot>, u64) {
        let mut out = Vec::new();
        for stage in Stage::ALL {
            for outcome in FlowOutcome::ALL {
                let Some(dist) = self.dists.get(cell(stage, outcome)) else {
                    continue;
                };
                if dist.count() == 0 {
                    continue;
                }
                out.push(FlowLatencySnapshot {
                    stage,
                    outcome,
                    count: dist.count(),
                    sum_nanos: dist.sum(),
                    max_nanos: dist.max(),
                    p50_nanos: dist.quantile(0.50),
                    p90_nanos: dist.quantile(0.90),
                    p99_nanos: dist.quantile(0.99),
                    buckets: dist.buckets(),
                });
            }
        }
        (out, self.tracked)
    }
}

/// Point-in-time copy of one (stage, outcome) per-flow latency
/// distribution — only combinations with at least one settled flow are
/// snapshotted, in (stage, outcome) order, so renders are compact and
/// deterministic.
#[derive(Debug, Clone)]
pub struct FlowLatencySnapshot {
    /// Which stage the time was spent in.
    pub stage: Stage,
    /// The settled flows' fate.
    pub outcome: FlowOutcome,
    /// Flows that spent time in this stage.
    pub count: u64,
    /// Total nanoseconds across those flows.
    pub sum_nanos: u64,
    /// Worst single flow's total stage time.
    pub max_nanos: u64,
    /// Median per-flow stage time (bucket upper bound).
    pub p50_nanos: u64,
    /// 90th percentile.
    pub p90_nanos: u64,
    /// 99th percentile.
    pub p99_nanos: u64,
    /// Raw log₂ buckets (sparse in the JSON snapshot).
    pub buckets: [u64; BUCKETS],
}

/// Render a settled trail as the one-line `stage-nanos` form used in
/// flight dumps: non-zero stages only, pipeline order, plus the total.
pub fn render_trail(outcome: FlowOutcome, trail: &[u64; TRAIL_STAGES]) -> String {
    use std::fmt::Write as _;
    let mut line = format!("  stage-nanos[outcome={}]", outcome.name());
    let mut total = 0u64;
    for stage in Stage::ALL {
        let nanos = trail[stage as usize];
        if nanos > 0 {
            total += nanos;
            let _ = write!(line, " {}={}", stage.name(), nanos);
        }
    }
    let _ = write!(line, " total={total}");
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trail(charges: &[(Stage, u64)]) -> [u64; TRAIL_STAGES] {
        let mut trail = [0; TRAIL_STAGES];
        for &(stage, nanos) in charges {
            trail[stage as usize] += nanos;
        }
        trail
    }

    #[test]
    fn charges_accumulate_and_settle_by_outcome() {
        let mut t = FlowLatencyTracker::default();
        let first = trail(&[
            (Stage::Prefilter, 100),
            (Stage::Prefilter, 50),
            (Stage::Decode, 900),
        ]);
        t.settle(FlowOutcome::Alerted, &first);
        t.settle(FlowOutcome::Benign, &trail(&[(Stage::Decode, 40)]));
        let (snaps, tracked) = t.snapshot();
        assert_eq!(tracked, 2);
        // prefilter/alerted, decode/alerted, decode/benign.
        assert_eq!(snaps.len(), 3);
        let decode_alerted = snaps
            .iter()
            .find(|s| s.stage == Stage::Decode && s.outcome == FlowOutcome::Alerted)
            .expect("decode/alerted");
        assert_eq!(decode_alerted.count, 1);
        assert_eq!(decode_alerted.sum_nanos, 900);
        assert_eq!(decode_alerted.buckets.iter().sum::<u64>(), 1);

        // The dump line names the outcome, the non-zero stages and the
        // total.
        assert_eq!(first[Stage::Prefilter as usize], 150);
        assert_eq!(
            render_trail(FlowOutcome::Alerted, &first),
            "  stage-nanos[outcome=alerted] decode=900 prefilter=150 total=1050"
        );
    }
}
