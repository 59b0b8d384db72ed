//! Per-flow, per-stage latency attribution.
//!
//! The stage histograms in the registry aggregate globally: they say the
//! decoder's p99 is high, not *which flows* paid it. This module closes
//! that gap with a bounded tracker that accumulates a **stage-nanos
//! trail** per flow (total nanoseconds the flow spent in each per-flow
//! stage) and, when the flow's fate is known, settles the trail into a
//! per-stage histogram family labeled by outcome — rendered as
//! `snids_flow_latency_*` and appended to flight-recorder dumps.
//!
//! Only the stages that run *per flow* are charged here (pre-filter,
//! reassembly, and the analysis tail: extract → decode → IR-lift →
//! template-match → dataflow). The front-half stages (capture, classify,
//! defrag) run before flow identity is cheap to compute and keep their
//! global aggregation.
//!
//! Cost discipline matches the rest of the crate: charging is gated on
//! [`crate::Obs::enabled`] by callers, the live map is bounded
//! ([`MAX_LIVE_FLOWS`]), and the tracker mutex is only ever `try_lock`ed
//! on the charge path — a contended charge is dropped and counted in
//! `overflow` rather than ever blocking the capture thread or a pool worker.

use crate::hist::{self, BUCKETS};
use crate::stage::Stage;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Live flows tracked at once; charges to new flows past this cap are
/// dropped (and counted) so a flood cannot grow the tracker unboundedly.
pub const MAX_LIVE_FLOWS: usize = 4096;

/// Settled trails retained for flight-dump enrichment (newest win).
const MAX_SETTLED_TRAILS: usize = 256;

/// Number of stages a trail covers (indexed by `Stage as usize`).
pub const TRAIL_STAGES: usize = Stage::ALL.len();

/// Flow identity as the tracker keys it. A deliberate local type: this
/// crate sits below `snids-flow`, so it cannot name `FlowKey`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowId {
    /// Initiator address.
    pub src: Ipv4Addr,
    /// Responder address.
    pub dst: Ipv4Addr,
    /// Initiator port.
    pub src_port: u16,
    /// Responder port.
    pub dst_port: u16,
}

/// What ultimately happened to a flow — the label axis of the
/// `snids_flow_latency_*` family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlowOutcome {
    /// The analyzer raised at least one alert on the flow.
    Alerted = 0,
    /// The flow left the pipeline without analysis (evicted, shed,
    /// rejected, or panicked).
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

/// One settled (stage, outcome) distribution: per-flow *total* stage time,
/// one observation per flow that spent time in the stage.
#[derive(Debug, Clone)]
struct Dist {
    count: u64,
    sum_nanos: u64,
    max_nanos: u64,
    buckets: [u64; BUCKETS],
}

impl Default for Dist {
    fn default() -> Self {
        Dist {
            count: 0,
            sum_nanos: 0,
            max_nanos: 0,
            buckets: [0; BUCKETS],
        }
    }
}

impl Dist {
    fn record(&mut self, nanos: u64) {
        self.count += 1;
        self.sum_nanos += nanos;
        self.max_nanos = self.max_nanos.max(nanos);
        // Same bucketing rule as LogHistogram::record.
        let bucket = ((64 - nanos.leading_zeros()) as usize).min(BUCKETS - 1);
        self.buckets[bucket] += 1;
    }
}

/// The mutex-guarded tracker state inside the registry.
#[derive(Debug, Default)]
pub(crate) struct FlowLatencyTracker {
    /// Stage-nanos accumulators for flows still in flight.
    live: HashMap<FlowId, [u64; TRAIL_STAGES]>,
    /// (stage × outcome) distributions of settled per-flow stage time.
    dists: Vec<Dist>,
    /// Recently settled trails, newest last, for flight-dump lookups.
    settled: Vec<(FlowId, FlowOutcome, [u64; TRAIL_STAGES])>,
    /// Flows settled into the family.
    tracked: u64,
    /// Charges refused: live-map cap reached or tracker mutex contended.
    overflow: u64,
}

impl FlowLatencyTracker {
    fn record_settled(&mut self, stage: Stage, outcome: FlowOutcome, nanos: u64) {
        if self.dists.is_empty() {
            self.dists = vec![Dist::default(); TRAIL_STAGES * FlowOutcome::ALL.len()];
        }
        let index = stage as usize * FlowOutcome::ALL.len() + outcome as usize;
        if let Some(dist) = self.dists.get_mut(index) {
            dist.record(nanos);
        }
    }

    pub(crate) fn charge(&mut self, id: FlowId, stage: Stage, nanos: u64) {
        if let Some(trail) = self.live.get_mut(&id) {
            if let Some(slot) = trail.get_mut(stage as usize) {
                *slot += nanos;
            }
        } else if self.live.len() >= MAX_LIVE_FLOWS {
            self.overflow += 1;
        } else {
            let mut trail = [0u64; TRAIL_STAGES];
            if let Some(slot) = trail.get_mut(stage as usize) {
                *slot = nanos;
            }
            self.live.insert(id, trail);
        }
    }

    pub(crate) fn settle(
        &mut self,
        id: &FlowId,
        outcome: FlowOutcome,
    ) -> Option<[u64; TRAIL_STAGES]> {
        let trail = self.live.remove(id)?;
        self.tracked += 1;
        for (stage_idx, &nanos) in trail.iter().enumerate() {
            if nanos > 0 {
                if let Some(stage) = Stage::from_code(stage_idx as u8) {
                    self.record_settled(stage, outcome, nanos);
                }
            }
        }
        if self.settled.len() >= MAX_SETTLED_TRAILS {
            self.settled.remove(0);
        }
        self.settled.push((*id, outcome, trail));
        Some(trail)
    }

    pub(crate) fn settle_all(&mut self, outcome: FlowOutcome) -> usize {
        let mut ids: Vec<FlowId> = self.live.keys().copied().collect();
        // Deterministic settle order so the retained-trail window is
        // reproducible run to run.
        ids.sort_unstable_by_key(|id| (id.src, id.dst, id.src_port, id.dst_port));
        let n = ids.len();
        for id in ids {
            self.settle(&id, outcome);
        }
        n
    }

    /// Most recent trail for `(src, dst, dst_port)` (any source port) —
    /// settled flows first, newest first, then still-live trails.
    pub(crate) fn trail(
        &self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        dst_port: u16,
    ) -> Option<(Option<FlowOutcome>, [u64; TRAIL_STAGES])> {
        let matches = |id: &FlowId| id.src == src && id.dst == dst && id.dst_port == dst_port;
        if let Some((_, outcome, trail)) = self.settled.iter().rev().find(|(id, _, _)| matches(id))
        {
            return Some((Some(*outcome), *trail));
        }
        self.live
            .iter()
            .find(|(id, _)| matches(id))
            .map(|(_, trail)| (None, *trail))
    }

    pub(crate) fn snapshot(&self) -> (Vec<FlowLatencySnapshot>, u64, u64) {
        let mut out = Vec::new();
        for stage in Stage::ALL {
            for outcome in FlowOutcome::ALL {
                let index = stage as usize * FlowOutcome::ALL.len() + outcome as usize;
                let Some(dist) = self.dists.get(index) else {
                    continue;
                };
                if dist.count == 0 {
                    continue;
                }
                out.push(FlowLatencySnapshot {
                    stage,
                    outcome,
                    count: dist.count,
                    sum_nanos: dist.sum_nanos,
                    max_nanos: dist.max_nanos,
                    p50_nanos: hist::quantile_from_buckets(&dist.buckets, 0.50),
                    p90_nanos: hist::quantile_from_buckets(&dist.buckets, 0.90),
                    p99_nanos: hist::quantile_from_buckets(&dist.buckets, 0.99),
                    buckets: dist.buckets,
                });
            }
        }
        (out, self.tracked, self.overflow)
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
pub fn render_trail(outcome: Option<FlowOutcome>, trail: &[u64; TRAIL_STAGES]) -> String {
    use std::fmt::Write as _;
    let mut line = match outcome {
        Some(o) => format!("  stage-nanos[outcome={}]", o.name()),
        None => "  stage-nanos[outcome=in-flight]".to_string(),
    };
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

    fn id(n: u8) -> FlowId {
        FlowId {
            src: Ipv4Addr::new(10, 0, 0, n),
            dst: Ipv4Addr::new(192, 168, 1, 10),
            src_port: 1000 + n as u16,
            dst_port: 80,
        }
    }

    #[test]
    fn charges_accumulate_and_settle_by_outcome() {
        let mut t = FlowLatencyTracker::default();
        t.charge(id(1), Stage::Prefilter, 100);
        t.charge(id(1), Stage::Prefilter, 50);
        t.charge(id(1), Stage::Decode, 900);
        t.charge(id(2), Stage::Decode, 40);
        let trail = t.settle(&id(1), FlowOutcome::Alerted).expect("tracked");
        assert_eq!(trail[Stage::Prefilter as usize], 150);
        assert_eq!(trail[Stage::Decode as usize], 900);
        assert!(t.settle(&id(1), FlowOutcome::Alerted).is_none(), "drained");
        t.settle(&id(2), FlowOutcome::Benign);
        let (snaps, tracked, overflow) = t.snapshot();
        assert_eq!(tracked, 2);
        assert_eq!(overflow, 0);
        // prefilter/alerted, decode/alerted, decode/benign.
        assert_eq!(snaps.len(), 3);
        let decode_alerted = snaps
            .iter()
            .find(|s| s.stage == Stage::Decode && s.outcome == FlowOutcome::Alerted)
            .expect("decode/alerted");
        assert_eq!(decode_alerted.count, 1);
        assert_eq!(decode_alerted.sum_nanos, 900);
        assert_eq!(decode_alerted.buckets.iter().sum::<u64>(), 1);
    }

    #[test]
    fn live_map_is_bounded() {
        let mut t = FlowLatencyTracker::default();
        for n in 0..(MAX_LIVE_FLOWS + 10) {
            let id = FlowId {
                src: Ipv4Addr::from((n as u32) | 0x0a00_0000),
                dst: Ipv4Addr::new(1, 2, 3, 4),
                src_port: 1,
                dst_port: 80,
            };
            t.charge(id, Stage::Reassembly, 1);
        }
        assert_eq!(t.live.len(), MAX_LIVE_FLOWS);
        assert_eq!(t.overflow, 10);
        // Charges to already-live flows still land at the cap.
        let existing = *t.live.keys().next().expect("non-empty");
        t.charge(existing, Stage::Reassembly, 5);
        assert_eq!(t.overflow, 10);
    }

    #[test]
    fn settle_all_drains_and_trails_resolve() {
        let mut t = FlowLatencyTracker::default();
        t.charge(id(3), Stage::Extract, 70);
        t.charge(id(4), Stage::Extract, 30);
        let (outcome, trail) = t
            .trail(id(3).src, id(3).dst, id(3).dst_port)
            .expect("live trail");
        assert_eq!(outcome, None);
        assert_eq!(trail[Stage::Extract as usize], 70);
        assert_eq!(t.settle_all(FlowOutcome::Dropped), 2);
        let (outcome, _) = t
            .trail(id(3).src, id(3).dst, id(3).dst_port)
            .expect("settled trail");
        assert_eq!(outcome, Some(FlowOutcome::Dropped));
        let line = render_trail(outcome, &trail);
        assert!(line.contains("outcome=dropped"));
        assert!(line.contains("extract=70"));
        assert!(line.contains("total=70"));
    }
}
