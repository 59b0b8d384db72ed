//! The per-flow front half: pre-filter gate → flow tracking and TCP
//! reassembly → shed hand-off.
//!
//! [`crate::Nids`] owns one [`FrontHalf`] and runs it on the capture
//! thread, after the capture-ordered stages (checksum, defragmentation,
//! classification) and before the analysis pool. The driver acts on what
//! [`FrontHalf::track`] hands back, so the packet path, the ledger and the
//! flight-recorder dumps exist once.

use crate::stats::DropReason;
use crate::{flow_latency_id, record_event, Alert, NidsConfig};
use snids_flow::{FlowKey, FlowTable, MemoryBudget, ShedFlow};
use snids_obs::{EventKind, Obs, Stage};
use snids_packet::Packet;
use snids_prefilter::{Decision, Lane, Prefilter, PrefilterConfig};
use std::sync::Arc;
use std::time::Instant;

/// The front half's running totals for the pipeline ledger. The flow
/// table keeps its own counters, which the driver reads directly.
#[derive(Default)]
pub(crate) struct FrontCounters {
    pub(crate) prefilter_passed: u64,
    pub(crate) prefilter_escalated: u64,
    pub(crate) prefilter_rejected: u64,
    pub(crate) prefilter_nanos: u64,
    pub(crate) reassembly_nanos: u64,
}

/// What tracking one packet leaves for the driver to act on.
#[derive(Default)]
pub(crate) struct Tracked {
    /// Victims the governor shed under pressure, streams intact, for
    /// analyze-on-evict.
    pub(crate) shed: Vec<ShedFlow>,
    /// A flow evicted without analysis (analyze-on-evict off): the end
    /// of its story, which the driver dumps from the flight recorder.
    pub(crate) evicted: Option<FlowKey>,
}

/// The pre-filter, the flow table and the counters they feed.
pub(crate) struct FrontHalf {
    prefilter: Option<Prefilter>,
    /// Completed flows leave through [`FlowTable::expire`] and
    /// [`FlowTable::drain`].
    pub(crate) flows: FlowTable,
    obs: Obs,
    analyze_on_evict: bool,
    pub(crate) counters: FrontCounters,
}

impl FrontHalf {
    /// The front half for `config`. The flow table charges `budget`,
    /// which it shares with the defragmenter.
    pub(crate) fn new(config: &NidsConfig, budget: Arc<MemoryBudget>, obs: Obs) -> Self {
        let mut flow_config = config.flow_table.clone();
        // The pipeline owns the analyze-on-evict decision: the table hands
        // victims back exactly when the driver will analyze them.
        flow_config.hand_off_shed = config.analyze_on_evict;
        FrontHalf {
            prefilter: config.prefilter.then(|| {
                Prefilter::new(PrefilterConfig::deployment_rules(
                    &config.honeypots,
                    &config.dark_nets,
                ))
            }),
            flows: FlowTable::with_budget(flow_config, budget),
            obs,
            analyze_on_evict: config.analyze_on_evict,
            counters: FrontCounters::default(),
        }
    }

    /// Gate one classified-suspicious packet through the pre-filter and,
    /// when it passes, fold it into its flow.
    pub(crate) fn track(&mut self, packet: &Packet) -> Tracked {
        let observing = self.obs.enabled();
        // Pre-filter fast path: suspicious packets no lane escalates skip
        // reassembly and the analysis tail entirely. Flows already holding
        // payload stay open-ended (a mid-analysis flow must see its tail).
        if let Some(pf) = self.prefilter.as_mut() {
            let t_pf = Instant::now();
            let key = FlowKey::of(packet);
            let flow_buffered = key
                .as_ref()
                .and_then(|k| self.flows.get(k))
                .is_some_and(|f| f.payload_bytes > 0);
            let decision = pf.decide(packet, flow_buffered);
            let prefilter_nanos = t_pf.elapsed().as_nanos() as u64;
            self.counters.prefilter_nanos += prefilter_nanos;
            if observing {
                self.obs.record_stage(
                    Stage::Prefilter,
                    prefilter_nanos,
                    packet.payload().len() as u64,
                );
                if let Some(k) = key.as_ref() {
                    self.obs
                        .flow_charge(flow_latency_id(k), Stage::Prefilter, prefilter_nanos);
                }
            }
            match decision {
                Decision::Escalate(Lane::Sticky) => self.counters.prefilter_escalated += 1,
                Decision::Escalate(_) => self.counters.prefilter_passed += 1,
                Decision::Reject => {
                    self.counters.prefilter_rejected += 1;
                    if observing {
                        record_event(
                            &self.obs,
                            Stage::Prefilter,
                            EventKind::Drop,
                            key.as_ref(),
                            packet.payload().len() as u64,
                            Some(DropReason::PrefilterRejected),
                        );
                    }
                    return Tracked::default();
                }
            }
        }
        let t1 = Instant::now();
        let outcome = self.flows.process_tracked(packet);
        let reassembly_nanos = t1.elapsed().as_nanos() as u64;
        self.counters.reassembly_nanos += reassembly_nanos;
        // With analyze-on-evict the victim arrives in `shed` instead, and
        // its events come from the driver under the shed_analyzed reason.
        let evicted = outcome.evicted.filter(|_| !self.analyze_on_evict);
        if observing {
            self.obs.record_stage(
                Stage::Reassembly,
                reassembly_nanos,
                outcome.segment_bytes as u64,
            );
            if let Some(k) = outcome.key.as_ref() {
                self.obs
                    .flow_charge(flow_latency_id(k), Stage::Reassembly, reassembly_nanos);
            }
            // The flight recorder tracks suspicious (tracked) traffic:
            // only those flows can later alert or be dropped with a trail
            // worth dumping, and skipping the benign majority keeps the
            // enabled-mode overhead inside its budget.
            record_event(
                &self.obs,
                Stage::Capture,
                EventKind::Ingest,
                outcome.key.as_ref(),
                outcome.segment_bytes as u64,
                None,
            );
            if let Some(victim) = evicted.as_ref() {
                record_event(
                    &self.obs,
                    Stage::Reassembly,
                    EventKind::Drop,
                    Some(victim),
                    0,
                    Some(DropReason::FlowEvicted),
                );
                // Settle the victim's latency trail under the dropped
                // outcome before the driver dumps it, so the dump carries it.
                self.obs
                    .flow_settle(&flow_latency_id(victim), snids_obs::FlowOutcome::Dropped);
            }
            if outcome.conflict_bytes > 0 {
                record_event(
                    &self.obs,
                    Stage::Reassembly,
                    EventKind::Conflict,
                    outcome.key.as_ref(),
                    outcome.conflict_bytes,
                    None,
                );
            }
            if outcome.truncated {
                record_event(
                    &self.obs,
                    Stage::Reassembly,
                    EventKind::Drop,
                    outcome.key.as_ref(),
                    outcome.segment_bytes as u64,
                    Some(DropReason::StreamTruncated),
                );
            }
        }
        Tracked {
            shed: self.flows.take_shed(),
            evicted,
        }
    }

    /// Pin alerting sources' flows in the protection tier.
    pub(crate) fn protect(&mut self, alerts: &[Alert]) {
        for alert in alerts {
            self.flows.protect_source(alert.src);
        }
    }

    /// The pre-filter's per-`(lane, rule)` hits, in lexical order.
    pub(crate) fn lane_hits(&self) -> Vec<(String, String, u64)> {
        self.prefilter.as_ref().map_or_else(Vec::new, |pf| {
            pf.rule_hits()
                .map(|(lane, rule, n)| (lane.to_string(), rule.to_string(), n))
                .collect()
        })
    }
}
