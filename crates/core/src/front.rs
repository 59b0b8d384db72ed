//! The per-flow front half: pre-filter gate → flow tracking and TCP
//! reassembly → shed hand-off.
//!
//! [`crate::Nids`] owns one [`FrontHalf`] and runs it on the capture
//! thread, after the capture-ordered stages (checksum, defragmentation,
//! classification) and before the analysis pool. The driver acts on what
//! [`FrontHalf::track`] hands back, so the packet path, the ledger and the
//! flight-recorder dumps exist once. `track` writes the pre-filter's
//! verdict counts and both stages' time straight into the ledger.

use crate::stats::{DropReason, PipelineStats};
use crate::{record_event, Alert, NidsConfig};
use snids_flow::{FlowKey, FlowTable, MemoryBudget, ShedFlow};
use snids_obs::{EventKind, Obs, Stage};
use snids_packet::Packet;
use snids_prefilter::{Decision, Lane, Prefilter, PrefilterConfig};
use std::sync::Arc;
use std::time::Instant;

/// The pre-filter and the flow table. The flow table keeps its own
/// tallies, which the driver reads directly.
pub(crate) struct FrontHalf {
    prefilter: Option<Prefilter>,
    /// Completed flows leave through [`FlowTable::expire`] and
    /// [`FlowTable::drain`].
    pub(crate) flows: FlowTable,
    obs: Obs,
}

impl FrontHalf {
    /// The front half for `config`. The flow table charges `budget`,
    /// which it shares with the defragmenter.
    pub(crate) fn new(config: &NidsConfig, budget: Arc<MemoryBudget>, obs: Obs) -> Self {
        let mut flow_config = config.flow_table.clone();
        // Every victim comes back to the driver, which decides between
        // analyze-on-evict and account-and-discard.
        flow_config.hand_off_shed = true;
        FrontHalf {
            prefilter: config.prefilter.then(|| {
                Prefilter::new(PrefilterConfig::deployment_rules(
                    &config.honeypots,
                    &config.dark_nets,
                ))
            }),
            flows: FlowTable::with_budget(flow_config, budget),
            obs,
        }
    }

    /// Gate one classified-suspicious packet through the pre-filter and,
    /// when it passes, fold it into its flow, counting the verdict and
    /// the time in `stats`. Returns the victims the table shed to make
    /// room, streams intact, for the driver.
    pub(crate) fn track(&mut self, packet: &Packet, stats: &mut PipelineStats) -> Vec<ShedFlow> {
        let observing = self.obs.enabled();
        let mut prefilter_nanos = 0;
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
            prefilter_nanos = t_pf.elapsed().as_nanos() as u64;
            stats.prefilter_nanos += prefilter_nanos;
            if observing {
                self.obs.record_stage(
                    Stage::Prefilter,
                    prefilter_nanos,
                    packet.payload().len() as u64,
                );
            }
            match decision {
                Decision::Escalate(Lane::Sticky) => stats.prefilter_escalated += 1,
                Decision::Escalate(_) => stats.prefilter_passed += 1,
                Decision::Reject => {
                    stats.prefilter_rejected += 1;
                    stats.drops.inc(DropReason::PrefilterRejected);
                    if observing {
                        record_event(
                            &self.obs,
                            Stage::Prefilter,
                            EventKind::Drop,
                            key.as_ref(),
                            packet.payload().len() as u64,
                            Some(DropReason::PrefilterRejected),
                        );
                        if let Some(k) = key.as_ref() {
                            self.flows.add_front_nanos(k, prefilter_nanos, 0);
                        }
                    }
                    return Vec::new();
                }
            }
        }
        let t1 = Instant::now();
        let outcome = self.flows.process_tracked(packet);
        let reassembly_nanos = t1.elapsed().as_nanos() as u64;
        stats.reassembly_nanos += reassembly_nanos;
        if observing {
            self.obs.record_stage(
                Stage::Reassembly,
                reassembly_nanos,
                outcome.segment_bytes as u64,
            );
            if let Some(k) = outcome.key.as_ref() {
                self.flows
                    .add_front_nanos(k, prefilter_nanos, reassembly_nanos);
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
        self.flows.take_shed()
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
