//! The per-flow front half: pre-filter gate → flow tracking and TCP
//! reassembly → shed hand-off.
//!
//! Everything here is keyed by the packet's flow, so a [`FrontHalf`] can
//! own the whole flow table or one shard's slice of it. [`crate::Nids`]
//! runs one inline on the capture thread, or N on shard threads behind
//! bounded mailboxes ([`crate::shard`]); either way the driver acts on
//! what [`FrontHalf::track`] hands back, so both deployments share one
//! packet path, one ledger and one set of flight-recorder dumps.

use crate::stats::{merge_lane_hits, DropReason};
use crate::{flow_latency_id, record_event, NidsConfig};
use snids_flow::{Flow, FlowKey, FlowTable, MemoryBudget, ShedFlow};
use snids_obs::{EventKind, Obs, Stage};
use snids_packet::Packet;
use snids_prefilter::{Decision, Lane, Prefilter, PrefilterConfig};
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

/// One front half's contribution to the pipeline ledger. Every field is
/// a running total, so a driver keeps only the latest copy per front.
#[derive(Debug, Clone, Default)]
pub(crate) struct FrontCounters {
    /// Suspicious packets this front tracked.
    pub(crate) packets: u64,
    pub(crate) prefilter_passed: u64,
    pub(crate) prefilter_escalated: u64,
    pub(crate) prefilter_rejected: u64,
    pub(crate) prefilter_nanos: u64,
    /// Per-`(lane, rule)` pre-filter hits, in lexical order.
    pub(crate) lane_hits: Vec<(String, String, u64)>,
    pub(crate) reassembly_nanos: u64,
    /// Mirrors of the flow table's own counters, refreshed by
    /// [`FrontHalf::refresh`].
    pub(crate) evicted: u64,
    pub(crate) evicted_by_budget: u64,
    pub(crate) truncated_flows: u64,
    pub(crate) overlap_conflict_bytes: u64,
    pub(crate) degraded_flows: u64,
    pub(crate) protected_len: u64,
    pub(crate) flows_live: u64,
}

impl FrontCounters {
    /// Sum another front's counters into this one.
    pub(crate) fn absorb(&mut self, other: &FrontCounters) {
        self.packets += other.packets;
        self.prefilter_passed += other.prefilter_passed;
        self.prefilter_escalated += other.prefilter_escalated;
        self.prefilter_rejected += other.prefilter_rejected;
        self.prefilter_nanos += other.prefilter_nanos;
        merge_lane_hits(&mut self.lane_hits, &other.lane_hits);
        self.reassembly_nanos += other.reassembly_nanos;
        self.evicted += other.evicted;
        self.evicted_by_budget += other.evicted_by_budget;
        self.truncated_flows += other.truncated_flows;
        self.overlap_conflict_bytes += other.overlap_conflict_bytes;
        self.degraded_flows += other.degraded_flows;
        self.protected_len += other.protected_len;
        self.flows_live += other.flows_live;
    }
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

/// A barrier: the completed flows a front hands back to the driver.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Barrier {
    /// Flows idle since before `now` minus the table's idle timeout.
    Expire(u64),
    /// Every flow (end of capture).
    Drain,
}

/// The pre-filter, one flow table (or one shard's slice of it) and the
/// counters they feed.
pub(crate) struct FrontHalf {
    prefilter: Option<Prefilter>,
    flows: FlowTable,
    obs: Obs,
    analyze_on_evict: bool,
    counters: FrontCounters,
}

impl FrontHalf {
    /// One of `fronts` front halves for `config`. The flow-slot cap is
    /// sliced so the fronts together hold at most `max_flows`; every
    /// front charges the one shared budget, so the governor stays global.
    pub(crate) fn new(
        config: &NidsConfig,
        fronts: usize,
        budget: Arc<MemoryBudget>,
        obs: Obs,
    ) -> Self {
        let mut flow_config = config.flow_table.clone();
        flow_config.max_flows = config.flow_table.max_flows.div_ceil(fronts);
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
        self.counters.packets += 1;
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

    /// Hand back the flows a barrier completes.
    pub(crate) fn complete(&mut self, barrier: Barrier) -> Vec<Flow> {
        match barrier {
            Barrier::Expire(now) => self.flows.expire(now),
            Barrier::Drain => self.flows.drain(),
        }
    }

    /// Pin an alerting source's flows in the protection tier.
    pub(crate) fn protect_source(&mut self, src: Ipv4Addr) {
        self.flows.protect_source(src);
    }

    /// Bring the flow-table mirrors up to date and return the counters.
    pub(crate) fn refresh(&mut self) -> &FrontCounters {
        let c = &mut self.counters;
        if let Some(pf) = &self.prefilter {
            c.lane_hits = pf
                .rule_hits()
                .map(|(lane, rule, n)| (lane.to_string(), rule.to_string(), n))
                .collect();
        }
        c.evicted = self.flows.evicted();
        c.evicted_by_budget = self.flows.evicted_by_budget();
        c.truncated_flows = self.flows.truncated_flows();
        c.overlap_conflict_bytes = self.flows.overlap_conflict_bytes();
        c.degraded_flows = self.flows.degraded_flows();
        c.protected_len = self.flows.protected_len() as u64;
        c.flows_live = self.flows.len() as u64;
        c
    }

    /// The counters as of the last [`FrontHalf::refresh`].
    pub(crate) fn counters(&self) -> &FrontCounters {
        &self.counters
    }
}
