//! The flow table: per-flow state with idle eviction and governed
//! memory-pressure shedding.
//!
//! Eviction is the overlooked evasion surface: a sensor that silently
//! discards unanalyzed flows under a state flood diverges from the
//! endpoints it protects exactly the way desync attacks exploit. The
//! table therefore (a) charges every buffered byte to a shared
//! [`MemoryBudget`], (b) picks victims O(1) from an intrusive LRU list
//! with a *protection tier* that pins flows already showing evasion
//! signals (divergent overlaps, stream truncation, previously flagged
//! sources), and (c) can hand shed victims back to the caller
//! ([`FlowTable::take_shed`]) so they are analyzed on the way out instead
//! of forgotten.

use crate::budget::{MemoryBudget, PressureLevel};
use crate::key::FlowKey;
use crate::reassembly::{OverlapPolicy, Reassembler, MAX_SHADOW_BYTES};
use snids_packet::{IpProtocol, Packet, TransportSummary};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Limits for the flow table.
#[derive(Debug, Clone)]
pub struct FlowTableConfig {
    /// Maximum tracked flows; the coldest flow is shed beyond this.
    pub max_flows: usize,
    /// Idle eviction horizon in microseconds.
    pub idle_timeout_micros: u64,
    /// Per-stream reassembly byte cap.
    pub max_stream_bytes: usize,
    /// How conflicting TCP segment overlaps resolve — pick the policy of
    /// the stacks this sensor protects so the NIDS sees what victims see.
    pub overlap_policy: OverlapPolicy,
    /// Stream byte cap for flows *created* while the shared budget sits at
    /// or above high water (existing flows keep their full cap). Degraded
    /// flows also retain no divergent-overlap shadows.
    pub degraded_stream_bytes: usize,
    /// When true, shed victims are queued for [`FlowTable::take_shed`]
    /// instead of discarded, so the caller decides their fate
    /// (analyze-on-evict, or account and discard). When false (the seed
    /// behavior), a shed flow's unanalyzed state is dropped.
    pub hand_off_shed: bool,
    /// When true, flows carrying evasion signals (divergent overlaps,
    /// stream truncation, or a source flagged via
    /// [`FlowTable::protect_source`]) are pinned in a protection tier and
    /// shed only when no unprotected victim remains — a flood cannot evict
    /// the one flow carrying the exploit.
    pub protect_suspicious: bool,
}

impl Default for FlowTableConfig {
    fn default() -> Self {
        FlowTableConfig {
            max_flows: 65_536,
            idle_timeout_micros: 120 * 1_000_000,
            max_stream_bytes: crate::reassembly::DEFAULT_MAX_STREAM,
            overlap_policy: OverlapPolicy::default(),
            degraded_stream_bytes: 64 * 1024,
            hand_off_shed: false,
            protect_suspicious: true,
        }
    }
}

/// Per-direction flow state.
#[derive(Debug, Clone)]
pub struct Flow {
    /// The flow's identity.
    pub key: FlowKey,
    /// Timestamp of the first packet.
    pub first_seen: u64,
    /// Timestamp of the most recent packet.
    pub last_seen: u64,
    /// Packets observed.
    pub packets: u64,
    /// Payload bytes observed.
    pub payload_bytes: u64,
    /// TCP reassembly state (UDP flows concatenate datagrams here too —
    /// the analyzer wants "the bytes this source sent" either way).
    pub stream: Reassembler,
    /// Nanoseconds this flow's packets spent in the pre-filter and in
    /// reassembly — the front half of its per-flow latency trail. Only
    /// an observing caller adds to them ([`FlowTable::add_front_nanos`]).
    pub prefilter_nanos: u64,
    /// See [`Flow::prefilter_nanos`].
    pub reassembly_nanos: u64,
    udp_next: u32,
    /// Intrusive LRU links (meaningful only while the flow is tracked;
    /// stale on drained/shed clones).
    lru_prev: Option<FlowKey>,
    lru_next: Option<FlowKey>,
    /// True when this flow sits in the protection tier.
    protected: bool,
}

impl Flow {
    fn new(
        key: FlowKey,
        ts: u64,
        max_stream: usize,
        policy: OverlapPolicy,
        max_shadow: usize,
    ) -> Flow {
        Flow {
            key,
            first_seen: ts,
            last_seen: ts,
            packets: 0,
            payload_bytes: 0,
            stream: Reassembler::with_limits(max_stream, policy, max_shadow),
            prefilter_nanos: 0,
            reassembly_nanos: 0,
            udp_next: 0,
            lru_prev: None,
            lru_next: None,
            protected: false,
        }
    }

    /// The reassembled client-to-server byte stream.
    pub fn payload(&self) -> Vec<u8> {
        self.stream.assembled()
    }

    /// The alternative interpretation of the stream — the view a victim
    /// stack resolving divergent overlaps the *other* way would execute.
    /// `None` when the flow carried no divergent overlaps.
    pub fn alternate_payload(&self) -> Option<Vec<u8>> {
        self.stream.alternate_assembled()
    }

    /// True when the flow carried divergent overlapping copies — the
    /// per-flow desync-attempt signal.
    pub fn has_conflicts(&self) -> bool {
        self.stream.overlap_conflict_bytes() > 0
    }

    /// True when the flow sat in the protection tier when it left the
    /// table (pinned against shedding while unprotected victims existed).
    pub fn protected(&self) -> bool {
        self.protected
    }

    /// Bytes this flow holds in memory (stream coverage + retained
    /// shadows) — its contribution to the shared [`MemoryBudget`].
    pub fn mem_bytes(&self) -> usize {
        self.stream.mem_bytes()
    }
}

/// Why a flow was shed from the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedCause {
    /// The `max_flows` count cap forced room for a new flow.
    CountCap,
    /// The shared byte budget crossed its critical watermark.
    ByteBudget,
}

/// A flow shed under pressure, queued for the caller (only when
/// `FlowTableConfig::hand_off_shed` is set).
#[derive(Debug)]
pub struct ShedFlow {
    /// The victim, with its buffered stream intact.
    pub flow: Flow,
    /// What pressure forced the shed.
    pub cause: ShedCause,
    /// Unprotected flows that were still eligible victims when this one
    /// was chosen (excludes the victim itself and the in-flight flow). A
    /// protected victim always has 0 here — the protection-tier
    /// invariant.
    pub unprotected_available: usize,
}

/// A total order over flow keys for deterministic tie-breaks (expiry
/// batches share timestamps; HashMap iteration order must never leak).
fn key_order(k: &FlowKey) -> (u32, u32, u16, u16, u8) {
    (
        u32::from(k.src),
        u32::from(k.dst),
        k.src_port,
        k.dst_port,
        k.proto.value(),
    )
}

/// Directional flow table.
#[derive(Debug)]
pub struct FlowTable {
    flows: HashMap<FlowKey, Flow>,
    config: FlowTableConfig,
    /// Shared byte accounting (an unlimited default when the caller did
    /// not supply one — accounting still runs so `peak` is meaningful).
    budget: Arc<MemoryBudget>,
    /// Intrusive LRU lists: head = most recently touched, tail = coldest.
    /// Two lists implement the protection tier with O(1) victim choice.
    unprot_head: Option<FlowKey>,
    unprot_tail: Option<FlowKey>,
    prot_head: Option<FlowKey>,
    prot_tail: Option<FlowKey>,
    /// Flows currently in the protection tier.
    protected_now: usize,
    /// Sources flagged by the analyzer (prior alerts / near-miss
    /// recoveries): their flows enter the protection tier.
    protect_sources: HashSet<Ipv4Addr>,
    /// Victims awaiting [`FlowTable::take_shed`].
    shed_queue: Vec<ShedFlow>,
    evicted: u64,
    degraded_flows: u64,
    truncated_flows: u64,
    overlap_conflict_bytes: u64,
}

impl Default for FlowTable {
    fn default() -> Self {
        FlowTable::new(FlowTableConfig::default())
    }
}

impl FlowTable {
    /// A table with custom limits and a private unlimited budget.
    pub fn new(config: FlowTableConfig) -> Self {
        FlowTable::with_budget(config, Arc::new(MemoryBudget::unlimited()))
    }

    /// A table charging its buffered bytes to a shared budget.
    pub fn with_budget(config: FlowTableConfig, budget: Arc<MemoryBudget>) -> Self {
        FlowTable {
            flows: HashMap::with_capacity(1024),
            config,
            budget,
            unprot_head: None,
            unprot_tail: None,
            prot_head: None,
            prot_tail: None,
            protected_now: 0,
            protect_sources: HashSet::new(),
            shed_queue: Vec::new(),
            evicted: 0,
            degraded_flows: 0,
            truncated_flows: 0,
            overlap_conflict_bytes: 0,
        }
    }

    /// The budget this table charges buffered bytes to.
    pub fn budget(&self) -> &Arc<MemoryBudget> {
        &self.budget
    }

    /// Number of tracked flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when no flows are tracked.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Flows shed under pressure (count cap or byte budget). With
    /// `hand_off_shed` each victim was queued for analyze-on-evict;
    /// otherwise its unanalyzed state was discarded — each a potential
    /// detection gap.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Flows created with degraded caps because the budget sat at or
    /// above high water.
    pub fn degraded_flows(&self) -> u64 {
        self.degraded_flows
    }

    /// Flows currently pinned in the protection tier.
    pub fn protected_len(&self) -> usize {
        self.protected_now
    }

    /// Flows whose reassembly buffer hit the per-stream byte cap and
    /// stopped accumulating payload.
    pub fn truncated_flows(&self) -> u64 {
        self.truncated_flows
    }

    /// Cumulative overlapped bytes whose copies carried different data,
    /// across every flow this table has tracked (including flows since
    /// drained or evicted) — the table-wide desync-attempt signal.
    pub fn overlap_conflict_bytes(&self) -> u64 {
        self.overlap_conflict_bytes
    }

    /// Flag a source as suspicious (the analyzer saw an alert or a
    /// near-miss recovery from it): the source's flows — new ones
    /// immediately, existing ones on their next packet — enter the
    /// protection tier so a flood cannot flush the attacker's state.
    pub fn protect_source(&mut self, src: Ipv4Addr) {
        if self.config.protect_suspicious {
            self.protect_sources.insert(src);
        }
    }

    /// Take the victims shed since the last call (empty unless
    /// `FlowTableConfig::hand_off_shed` is set). The caller routes them
    /// through the normal analysis path — eviction must not skip
    /// detection.
    pub fn take_shed(&mut self) -> Vec<ShedFlow> {
        std::mem::take(&mut self.shed_queue)
    }

    /// Feed a packet; returns the flow key when the packet belonged to a
    /// trackable flow.
    pub fn process(&mut self, packet: &Packet) -> Option<FlowKey> {
        self.process_tracked(packet).key
    }

    /// [`FlowTable::process`] with the side effects reported back, so an
    /// instrumenting caller can observe sheds, truncation onsets, and
    /// overlap conflicts without this crate knowing about metrics.
    pub fn process_tracked(&mut self, packet: &Packet) -> ProcessOutcome {
        let mut outcome = ProcessOutcome::default();
        let Some(key) = FlowKey::of(packet) else {
            return outcome;
        };
        outcome.key = Some(key);
        outcome.segment_bytes = packet.payload().len();
        let existing = self.flows.contains_key(&key);
        if !existing && self.flows.len() >= self.config.max_flows {
            if let Some(victim) = self.shed_coldest(ShedCause::CountCap) {
                outcome.evicted = Some(victim);
                outcome.shed += 1;
            }
        }
        let mem_before = if existing {
            // Unlink so the post-update re-attach lands at the MRU head.
            self.detach(key);
            self.flows.get(&key).map_or(0, |f| f.stream.mem_bytes())
        } else {
            let degraded = self.budget.level() >= PressureLevel::High;
            let (max_stream, max_shadow) = if degraded {
                (
                    self.config
                        .max_stream_bytes
                        .min(self.config.degraded_stream_bytes)
                        .max(1),
                    0,
                )
            } else {
                (self.config.max_stream_bytes, MAX_SHADOW_BYTES)
            };
            if degraded {
                self.degraded_flows += 1;
                outcome.degraded = true;
            }
            self.flows.insert(
                key,
                Flow::new(
                    key,
                    packet.ts_micros,
                    max_stream,
                    self.config.overlap_policy,
                    max_shadow,
                ),
            );
            0
        };
        let Some(flow) = self.flows.get_mut(&key) else {
            return outcome;
        };
        flow.last_seen = flow.last_seen.max(packet.ts_micros);
        flow.packets += 1;
        flow.payload_bytes += packet.payload().len() as u64;
        let was_truncated = flow.stream.truncated();
        let conflicts_before = flow.stream.overlap_conflict_bytes();
        match (key.proto, packet.transport()) {
            (IpProtocol::Tcp, Some(TransportSummary::Tcp(tcp))) => {
                if tcp.flags.syn() && !tcp.flags.ack() {
                    flow.stream.on_syn(tcp.seq);
                }
                if !packet.payload().is_empty() {
                    flow.stream.on_data(tcp.seq, packet.payload());
                }
            }
            (IpProtocol::Udp, _) => {
                // Concatenate datagrams in arrival order.
                let data = packet.payload();
                if !data.is_empty() {
                    let at = flow.udp_next;
                    flow.stream.on_data(at, data);
                    flow.udp_next = at.wrapping_add(data.len() as u32);
                }
            }
            _ => {}
        }
        let conflict_delta = flow.stream.overlap_conflict_bytes() - conflicts_before;
        if !was_truncated && flow.stream.truncated() {
            self.truncated_flows += 1;
            outcome.truncated = true;
        }
        let mem_after = flow.stream.mem_bytes();
        let suspicious = flow.stream.overlap_conflict_bytes() > 0 || flow.stream.truncated();
        let was_protected = flow.protected;
        self.overlap_conflict_bytes += conflict_delta;
        outcome.conflict_bytes = conflict_delta;
        if mem_after >= mem_before {
            self.budget.charge((mem_after - mem_before) as u64);
        } else {
            self.budget.release((mem_before - mem_after) as u64);
        }
        let protect = self.config.protect_suspicious
            && (was_protected || suspicious || self.protect_sources.contains(&key.src));
        self.attach_front(key, protect);
        // Critical watermark: shed coldest-first until below critical
        // again. The in-flight flow is exempt — it is mid-update and
        // bounded by its own stream cap anyway.
        while self.budget.over_critical() && self.flows.len() > 1 {
            let Some(victim) = self.pick_victim(key) else {
                break;
            };
            let exclude_unprot = usize::from(self.flows.get(&key).is_some_and(|f| !f.protected));
            self.shed_flow(victim, ShedCause::ByteBudget, exclude_unprot);
            outcome.shed = outcome.shed.saturating_add(1);
            if outcome.evicted.is_none() {
                outcome.evicted = Some(victim);
            }
        }
        outcome
    }

    /// Add pre-filter and reassembly nanoseconds to `key`'s flow (a no-op
    /// when the table does not hold it).
    pub fn add_front_nanos(&mut self, key: &FlowKey, prefilter_nanos: u64, reassembly_nanos: u64) {
        if let Some(flow) = self.flows.get_mut(key) {
            flow.prefilter_nanos += prefilter_nanos;
            flow.reassembly_nanos += reassembly_nanos;
        }
    }

    /// Look up a flow.
    pub fn get(&self, key: &FlowKey) -> Option<&Flow> {
        self.flows.get(key)
    }

    /// Iterate all flows.
    pub fn flows(&self) -> impl Iterator<Item = &Flow> {
        self.flows.values()
    }

    /// Remove and return flows idle since before `now - idle_timeout`,
    /// releasing their bytes from the budget. Deterministic order:
    /// `(last_seen, flow key)` — HashMap iteration order never leaks.
    pub fn expire(&mut self, now: u64) -> Vec<Flow> {
        let horizon = now.saturating_sub(self.config.idle_timeout_micros);
        let mut expired: Vec<FlowKey> = self
            .flows
            .values()
            .filter(|f| f.last_seen < horizon)
            .map(|f| f.key)
            .collect();
        expired
            .sort_unstable_by_key(|k| (self.flows.get(k).map_or(0, |f| f.last_seen), key_order(k)));
        expired
            .into_iter()
            .filter_map(|k| {
                self.detach(k);
                let f = self.flows.remove(&k)?;
                if f.protected {
                    self.protected_now = self.protected_now.saturating_sub(1);
                }
                self.budget.release(f.stream.mem_bytes() as u64);
                Some(f)
            })
            .collect()
    }

    /// Drain every flow (end of trace), releasing all bytes from the
    /// budget. Deterministic order: flow key — HashMap iteration order
    /// never leaks.
    pub fn drain(&mut self) -> Vec<Flow> {
        self.unprot_head = None;
        self.unprot_tail = None;
        self.prot_head = None;
        self.prot_tail = None;
        self.protected_now = 0;
        // Cached keys: the 200-byte flows are permuted once, after their
        // keys are sorted, instead of moved at every step of the sort.
        let mut flows: Vec<Flow> = self.flows.drain().map(|(_, f)| f).collect();
        flows.sort_by_cached_key(|f| key_order(&f.key));
        for f in &flows {
            self.budget.release(f.stream.mem_bytes() as u64);
        }
        flows
    }

    /// Unlink `key` from its LRU list (no-op when untracked). Must be
    /// called with the flow's `protected` flag still describing the list
    /// it sits in.
    fn detach(&mut self, key: FlowKey) {
        let Some(f) = self.flows.get(&key) else {
            return;
        };
        let (prev, next, prot) = (f.lru_prev, f.lru_next, f.protected);
        match prev {
            Some(p) => {
                if let Some(pf) = self.flows.get_mut(&p) {
                    pf.lru_next = next;
                }
            }
            None if prot => self.prot_head = next,
            None => self.unprot_head = next,
        }
        match next {
            Some(n) => {
                if let Some(nf) = self.flows.get_mut(&n) {
                    nf.lru_prev = prev;
                }
            }
            None if prot => self.prot_tail = prev,
            None => self.unprot_tail = prev,
        }
        if let Some(f) = self.flows.get_mut(&key) {
            f.lru_prev = None;
            f.lru_next = None;
        }
    }

    /// Push a detached flow to the MRU head of the `prot` list, updating
    /// the protection census on tier transitions.
    fn attach_front(&mut self, key: FlowKey, prot: bool) {
        let was = self.flows.get(&key).map(|f| f.protected).unwrap_or(prot);
        if !was && prot {
            self.protected_now += 1;
        } else if was && !prot {
            self.protected_now = self.protected_now.saturating_sub(1);
        }
        let head = if prot {
            self.prot_head
        } else {
            self.unprot_head
        };
        if let Some(h) = head {
            if let Some(hf) = self.flows.get_mut(&h) {
                hf.lru_prev = Some(key);
            }
        }
        if let Some(f) = self.flows.get_mut(&key) {
            f.lru_prev = None;
            f.lru_next = head;
            f.protected = prot;
        }
        if prot {
            self.prot_head = Some(key);
            if self.prot_tail.is_none() {
                self.prot_tail = Some(key);
            }
        } else {
            self.unprot_head = Some(key);
            if self.unprot_tail.is_none() {
                self.unprot_tail = Some(key);
            }
        }
    }

    /// The coldest victim, unprotected tier first. O(1).
    fn shed_coldest(&mut self, cause: ShedCause) -> Option<FlowKey> {
        let victim = self.unprot_tail.or(self.prot_tail)?;
        self.shed_flow(victim, cause, 0)
    }

    /// The coldest victim other than `exclude` (the in-flight flow),
    /// unprotected tier first. O(1): when `exclude` happens to be a tail,
    /// its list predecessor is the next-coldest.
    fn pick_victim(&self, exclude: FlowKey) -> Option<FlowKey> {
        for tail in [self.unprot_tail, self.prot_tail] {
            let Some(t) = tail else { continue };
            if t != exclude {
                return Some(t);
            }
            if let Some(prev) = self.flows.get(&t).and_then(|f| f.lru_prev) {
                return Some(prev);
            }
        }
        None
    }

    /// Remove `key` under pressure: release its bytes, count the shed,
    /// and queue the victim for analyze-on-evict when configured.
    /// `exclude_unprot` is how many unprotected flows remain ineligible
    /// (the in-flight flow) — used to record the protection invariant.
    fn shed_flow(
        &mut self,
        key: FlowKey,
        cause: ShedCause,
        exclude_unprot: usize,
    ) -> Option<FlowKey> {
        self.detach(key);
        let flow = self.flows.remove(&key)?;
        if flow.protected {
            self.protected_now = self.protected_now.saturating_sub(1);
        }
        self.budget.release(flow.stream.mem_bytes() as u64);
        self.evicted += 1;
        let unprotected_available =
            (self.flows.len() - self.protected_now).saturating_sub(exclude_unprot);
        if self.config.hand_off_shed {
            self.shed_queue.push(ShedFlow {
                flow,
                cause,
                unprotected_available,
            });
        }
        Some(key)
    }
}

/// What one [`FlowTable::process_tracked`] call did, for callers that
/// instrument the reassembly stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProcessOutcome {
    /// The packet's flow, when trackable.
    pub key: Option<FlowKey>,
    /// The first flow shed this call (count cap or byte budget), when any.
    pub evicted: Option<FlowKey>,
    /// Flows shed this call in total.
    pub shed: u16,
    /// True when this packet created a flow with degraded caps (budget at
    /// or above high water).
    pub degraded: bool,
    /// Divergent-overlap bytes this packet introduced.
    pub conflict_bytes: u64,
    /// True when this packet pushed the flow's stream over its byte cap
    /// (reported once per flow, at the onset).
    pub truncated: bool,
    /// Payload bytes the tracked segment carried.
    pub segment_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use snids_packet::{PacketBuilder, TcpFlags};
    use std::net::Ipv4Addr;

    fn builder() -> PacketBuilder {
        PacketBuilder::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2))
    }

    #[test]
    fn tcp_flow_reassembles_across_segments() {
        let mut t = FlowTable::default();
        let b = builder();
        let syn = b.tcp(4000, 80, 100, 0, TcpFlags::SYN, &[]).unwrap();
        let d1 = b
            .tcp(4000, 80, 101, 1, TcpFlags::ACK | TcpFlags::PSH, b"GET /a")
            .unwrap();
        let d2 = b
            .tcp(
                4000,
                80,
                107,
                1,
                TcpFlags::ACK | TcpFlags::PSH,
                b"bc HTTP/1.0\r\n\r\n",
            )
            .unwrap();
        // deliver out of order
        let k = t.process(&syn).unwrap();
        t.process(&d2).unwrap();
        t.process(&d1).unwrap();
        let flow = t.get(&k).unwrap();
        assert_eq!(flow.payload(), b"GET /abc HTTP/1.0\r\n\r\n");
        assert_eq!(flow.packets, 3);
    }

    #[test]
    fn udp_flow_concatenates() {
        let mut t = FlowTable::default();
        let b = builder();
        let k = t.process(&b.udp(500, 53, b"one").unwrap()).unwrap();
        t.process(&b.udp(500, 53, b"two").unwrap()).unwrap();
        assert_eq!(t.get(&k).unwrap().payload(), b"onetwo");
    }

    #[test]
    fn directions_are_separate_flows() {
        let mut t = FlowTable::default();
        let fwd = builder();
        let rev = PacketBuilder::new(Ipv4Addr::new(10, 0, 0, 2), Ipv4Addr::new(10, 0, 0, 1));
        let k1 = t
            .process(&fwd.tcp(4000, 80, 0, 0, TcpFlags::ACK, b"req").unwrap())
            .unwrap();
        let k2 = t
            .process(&rev.tcp(80, 4000, 0, 0, TcpFlags::ACK, b"resp").unwrap())
            .unwrap();
        assert_ne!(k1, k2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(&k1).unwrap().payload(), b"req");
        assert_eq!(t.get(&k2).unwrap().payload(), b"resp");
    }

    #[test]
    fn idle_flows_expire() {
        let mut t = FlowTable::new(FlowTableConfig {
            idle_timeout_micros: 1_000,
            ..FlowTableConfig::default()
        });
        let b = builder();
        t.process(
            &b.clone()
                .at(0)
                .tcp(1, 2, 0, 0, TcpFlags::ACK, b"x")
                .unwrap(),
        );
        t.process(
            &b.clone()
                .at(5_000)
                .tcp(3, 4, 0, 0, TcpFlags::ACK, b"y")
                .unwrap(),
        );
        let expired = t.expire(5_500);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].key.src_port, 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn max_flows_evicts_coldest() {
        let mut t = FlowTable::new(FlowTableConfig {
            max_flows: 2,
            ..FlowTableConfig::default()
        });
        let b = builder();
        t.process(
            &b.clone()
                .at(10)
                .tcp(1, 80, 0, 0, TcpFlags::ACK, b"a")
                .unwrap(),
        );
        t.process(
            &b.clone()
                .at(20)
                .tcp(2, 80, 0, 0, TcpFlags::ACK, b"b")
                .unwrap(),
        );
        t.process(
            &b.clone()
                .at(30)
                .tcp(3, 80, 0, 0, TcpFlags::ACK, b"c")
                .unwrap(),
        );
        assert_eq!(t.len(), 2);
        // the ts=10 flow is gone, and the eviction is accounted
        assert!(t.flows().all(|f| f.last_seen != 10));
        assert_eq!(t.evicted(), 1);
    }

    /// Regression (satellite: nondeterministic eviction): the seed
    /// `evict_coldest` scanned the HashMap and tie-broke on iteration
    /// order when flows shared `last_seen`. The LRU list orders strictly
    /// by touch recency — insertion order when timestamps tie — so the
    /// eviction sequence is identical across runs and table instances.
    #[test]
    fn eviction_order_is_stable_across_runs_with_tied_timestamps() {
        let run = || -> Vec<Option<FlowKey>> {
            let mut t = FlowTable::new(FlowTableConfig {
                max_flows: 4,
                ..FlowTableConfig::default()
            });
            let b = builder();
            // 8 flows, all at the same timestamp: pure tie.
            let mut evictions = Vec::new();
            for port in 1..=8u16 {
                let o = t.process_tracked(
                    &b.clone()
                        .at(777)
                        .tcp(port, 80, 0, 0, TcpFlags::ACK, b"zz")
                        .unwrap(),
                );
                evictions.push(o.evicted);
            }
            evictions
        };
        let first = run();
        assert_eq!(first, run(), "eviction order must not depend on hash state");
        // And the order is exactly insertion order: flow 1 dies first.
        let victims: Vec<u16> = first.iter().flatten().map(|k| k.src_port).collect();
        assert_eq!(victims, vec![1, 2, 3, 4]);
    }

    /// Touching a flow moves it off the chopping block: LRU, not FIFO.
    #[test]
    fn touch_refreshes_lru_position() {
        let mut t = FlowTable::new(FlowTableConfig {
            max_flows: 2,
            ..FlowTableConfig::default()
        });
        let b = builder();
        t.process(
            &b.clone()
                .at(1)
                .tcp(1, 80, 0, 0, TcpFlags::ACK, b"a")
                .unwrap(),
        );
        t.process(
            &b.clone()
                .at(2)
                .tcp(2, 80, 0, 0, TcpFlags::ACK, b"b")
                .unwrap(),
        );
        // touch flow 1 so flow 2 becomes the coldest
        t.process(
            &b.clone()
                .at(3)
                .tcp(1, 80, 1, 0, TcpFlags::ACK, b"a")
                .unwrap(),
        );
        let o = t.process_tracked(
            &b.clone()
                .at(4)
                .tcp(3, 80, 0, 0, TcpFlags::ACK, b"c")
                .unwrap(),
        );
        assert_eq!(o.evicted.map(|k| k.src_port), Some(2));
    }

    /// A flow with divergent overlaps is pinned: the flood must exhaust
    /// every unprotected flow before the conflicted one is considered.
    #[test]
    fn conflicted_flows_are_protected_from_eviction() {
        let mut t = FlowTable::new(FlowTableConfig {
            max_flows: 3,
            ..FlowTableConfig::default()
        });
        let b = builder();
        // Flow 1 carries a divergent overlap -> protected.
        t.process(
            &b.clone()
                .at(1)
                .tcp(1, 80, 0, 0, TcpFlags::ACK, b"real")
                .unwrap(),
        );
        t.process(
            &b.clone()
                .at(2)
                .tcp(1, 80, 0, 0, TcpFlags::ACK, b"fake")
                .unwrap(),
        );
        assert_eq!(t.protected_len(), 1);
        // Fill with two unprotected flows, then flood: the protected flow
        // survives every eviction even though it is the coldest.
        t.process(
            &b.clone()
                .at(3)
                .tcp(2, 80, 0, 0, TcpFlags::ACK, b"x")
                .unwrap(),
        );
        t.process(
            &b.clone()
                .at(4)
                .tcp(3, 80, 0, 0, TcpFlags::ACK, b"y")
                .unwrap(),
        );
        for port in 10..20u16 {
            t.process(
                &b.clone()
                    .at(5 + u64::from(port))
                    .tcp(port, 80, 0, 0, TcpFlags::ACK, b"f")
                    .unwrap(),
            );
        }
        assert!(
            t.flows().any(|f| f.key.src_port == 1),
            "the conflicted flow must still be tracked"
        );
        // Only when the protected flow is the sole survivor can it go.
        let mut t2 = FlowTable::new(FlowTableConfig {
            max_flows: 1,
            ..FlowTableConfig::default()
        });
        t2.process(
            &b.clone()
                .at(1)
                .tcp(1, 80, 0, 0, TcpFlags::ACK, b"real")
                .unwrap(),
        );
        t2.process(
            &b.clone()
                .at(2)
                .tcp(1, 80, 0, 0, TcpFlags::ACK, b"fake")
                .unwrap(),
        );
        let o = t2.process_tracked(
            &b.clone()
                .at(3)
                .tcp(2, 80, 0, 0, TcpFlags::ACK, b"z")
                .unwrap(),
        );
        assert_eq!(o.evicted.map(|k| k.src_port), Some(1));
    }

    /// Sources flagged via protect_source() get the protection tier too.
    #[test]
    fn flagged_sources_are_protected() {
        let mut t = FlowTable::default();
        t.protect_source(Ipv4Addr::new(10, 0, 0, 1));
        let b = builder();
        t.process(&b.tcp(1, 80, 0, 0, TcpFlags::ACK, b"x").unwrap());
        assert_eq!(t.protected_len(), 1);
    }

    /// With hand_off_shed, victims come back via take_shed() with their
    /// streams intact — analyze-on-evict's raw material.
    #[test]
    fn shed_victims_are_handed_off_with_state() {
        let mut t = FlowTable::new(FlowTableConfig {
            max_flows: 1,
            hand_off_shed: true,
            ..FlowTableConfig::default()
        });
        let b = builder();
        t.process(
            &b.clone()
                .at(1)
                .tcp(1, 80, 0, 0, TcpFlags::ACK, b"payload-one")
                .unwrap(),
        );
        t.process(
            &b.clone()
                .at(2)
                .tcp(2, 80, 0, 0, TcpFlags::ACK, b"payload-two")
                .unwrap(),
        );
        let shed = t.take_shed();
        assert_eq!(shed.len(), 1);
        assert_eq!(shed[0].cause, ShedCause::CountCap);
        assert_eq!(shed[0].flow.payload(), b"payload-one");
        assert!(t.take_shed().is_empty(), "queue drains");
        assert_eq!(t.evicted(), 1);
    }

    /// The byte budget: a critical-watermark crossing sheds coldest
    /// flows until tracked bytes drop below critical, and expiry/drain
    /// release bytes so the budget returns to zero.
    #[test]
    fn byte_budget_sheds_and_releases() {
        let budget = Arc::new(MemoryBudget::limited(4096));
        let mut t = FlowTable::with_budget(
            FlowTableConfig {
                hand_off_shed: true,
                ..FlowTableConfig::default()
            },
            Arc::clone(&budget),
        );
        let b = builder();
        let chunk = vec![0x41u8; 1024];
        for port in 1..=8u16 {
            t.process(
                &b.clone()
                    .at(u64::from(port))
                    .tcp(port, 80, 0, 0, TcpFlags::ACK, &chunk)
                    .unwrap(),
            );
        }
        assert!(
            budget.tracked() < 4096 * 9 / 10 + 1024,
            "critical shedding keeps tracked bytes near the watermark: {}",
            budget.tracked()
        );
        assert!(
            budget.peak() <= 4096,
            "tracked bytes never exceed the ceiling"
        );
        assert!(t.evicted() > 0);
        let shed = t.take_shed();
        assert!(shed.iter().all(|s| s.cause == ShedCause::ByteBudget));
        t.drain();
        assert_eq!(budget.tracked(), 0, "drain releases every byte");
    }

    /// Expire releases budget bytes (the satellite fix).
    #[test]
    fn expire_releases_budget_bytes() {
        let budget = Arc::new(MemoryBudget::limited(0));
        let mut t = FlowTable::with_budget(
            FlowTableConfig {
                idle_timeout_micros: 100,
                ..FlowTableConfig::default()
            },
            Arc::clone(&budget),
        );
        let b = builder();
        t.process(
            &b.clone()
                .at(0)
                .tcp(1, 80, 0, 0, TcpFlags::ACK, b"abcdef")
                .unwrap(),
        );
        assert_eq!(budget.tracked(), 6);
        let expired = t.expire(1_000);
        assert_eq!(expired.len(), 1);
        assert_eq!(budget.tracked(), 0);
    }

    /// At high water, new flows are created degraded (small stream cap,
    /// no shadow retention) while existing flows keep their full caps.
    #[test]
    fn high_water_degrades_new_flows_only() {
        let budget = Arc::new(MemoryBudget::limited(1000));
        let mut t = FlowTable::with_budget(
            FlowTableConfig {
                degraded_stream_bytes: 16,
                ..FlowTableConfig::default()
            },
            Arc::clone(&budget),
        );
        let b = builder();
        let k_old = t
            .process(
                &b.clone()
                    .at(1)
                    .tcp(1, 80, 0, 0, TcpFlags::ACK, &[0x41; 100])
                    .unwrap(),
            )
            .unwrap();
        // Push tracked bytes to high water (700).
        t.process(
            &b.clone()
                .at(2)
                .tcp(2, 80, 0, 0, TcpFlags::ACK, &[0x42; 650])
                .unwrap(),
        );
        assert_eq!(budget.level(), PressureLevel::High);
        let o = t.process_tracked(
            &b.clone()
                .at(3)
                .tcp(3, 80, 0, 0, TcpFlags::ACK, &[0x43; 64])
                .unwrap(),
        );
        assert!(o.degraded);
        assert_eq!(t.degraded_flows(), 1);
        let new_flow = t.get(&o.key.unwrap()).unwrap();
        assert!(new_flow.stream.truncated(), "64 B > degraded 16 B cap");
        assert_eq!(new_flow.stream.buffered(), 0);
        // The pre-pressure flow keeps accepting data under its full cap.
        let o_old = t.process_tracked(
            &b.clone()
                .at(4)
                .tcp(1, 80, 100, 0, TcpFlags::ACK, &[0x44; 50])
                .unwrap(),
        );
        assert!(!o_old.truncated);
        assert_eq!(t.get(&k_old).unwrap().stream.buffered(), 150);
    }

    #[test]
    fn stream_cap_marks_flow_truncated_once() {
        let mut t = FlowTable::new(FlowTableConfig {
            max_stream_bytes: 64,
            ..FlowTableConfig::default()
        });
        let b = builder();
        let payload = vec![0x41u8; 48];
        t.process(&b.tcp(1, 80, 0, 0, TcpFlags::ACK, &payload).unwrap());
        assert_eq!(t.truncated_flows(), 0);
        t.process(&b.tcp(1, 80, 48, 0, TcpFlags::ACK, &payload).unwrap());
        assert_eq!(t.truncated_flows(), 1);
        t.process(&b.tcp(1, 80, 96, 0, TcpFlags::ACK, &payload).unwrap());
        assert_eq!(t.truncated_flows(), 1, "counted once per flow");
    }

    /// A divergent overlapping retransmit is resolved per the configured
    /// policy and surfaces in the table-wide conflict ledger — even after
    /// the flow itself is drained.
    #[test]
    fn divergent_retransmit_counts_conflicts_per_policy() {
        use crate::reassembly::OverlapPolicy;
        for (policy, expect) in [
            (OverlapPolicy::FirstWins, &b"real"[..]),
            (OverlapPolicy::LastWins, &b"fake"[..]),
        ] {
            let mut t = FlowTable::new(FlowTableConfig {
                overlap_policy: policy,
                ..FlowTableConfig::default()
            });
            let b = builder();
            let k = t
                .process(&b.tcp(1, 80, 0, 0, TcpFlags::ACK, b"real").unwrap())
                .unwrap();
            t.process(&b.tcp(1, 80, 0, 0, TcpFlags::ACK, b"fake").unwrap());
            assert_eq!(t.get(&k).unwrap().payload(), expect, "{}", policy.name());
            assert_eq!(t.overlap_conflict_bytes(), 4, "{}", policy.name());
            t.drain();
            assert_eq!(t.overlap_conflict_bytes(), 4, "survives drain");
        }
    }

    #[test]
    fn process_tracked_reports_side_effects() {
        let mut t = FlowTable::new(FlowTableConfig {
            max_flows: 1,
            max_stream_bytes: 8,
            ..FlowTableConfig::default()
        });
        let b = builder();
        let first = t.process_tracked(
            &b.clone()
                .at(10)
                .tcp(1, 80, 0, 0, TcpFlags::ACK, b"abcd")
                .unwrap(),
        );
        assert!(first.key.is_some());
        assert_eq!(first.evicted, None);
        assert_eq!(first.segment_bytes, 4);
        assert!(!first.truncated);
        assert_eq!(first.conflict_bytes, 0);

        // A second flow at the cap evicts the first.
        let second = t.process_tracked(
            &b.clone()
                .at(20)
                .tcp(2, 80, 0, 0, TcpFlags::ACK, b"efgh")
                .unwrap(),
        );
        assert_eq!(second.evicted, first.key);
        assert_eq!(second.shed, 1);

        // Overflowing the stream cap reports truncation onset once.
        let over = t.process_tracked(
            &b.clone()
                .at(30)
                .tcp(2, 80, 4, 0, TcpFlags::ACK, b"ijklmnop")
                .unwrap(),
        );
        assert!(over.truncated);
        let again = t.process_tracked(
            &b.clone()
                .at(40)
                .tcp(2, 80, 12, 0, TcpFlags::ACK, b"qr")
                .unwrap(),
        );
        assert!(!again.truncated, "onset reported once");

        // A divergent retransmit reports its conflict delta.
        let conflict = t.process_tracked(
            &b.clone()
                .at(50)
                .tcp(2, 80, 0, 0, TcpFlags::ACK, b"XXgh")
                .unwrap(),
        );
        assert_eq!(conflict.conflict_bytes, 2);

        // Untrackable packets yield the default outcome.
        use snids_packet::{EtherType, EthernetFrame, MacAddr};
        let eth = EthernetFrame {
            dst: MacAddr::BROADCAST,
            src: MacAddr::new(2, 0, 0, 0, 0, 1),
            ethertype: EtherType::Arp,
        };
        let mut raw = eth.to_bytes().to_vec();
        raw.extend_from_slice(&[0u8; 28]);
        let p = snids_packet::Packet::decode(0, raw).unwrap();
        assert_eq!(t.process_tracked(&p), ProcessOutcome::default());
    }

    #[test]
    fn drain_empties_table() {
        let mut t = FlowTable::default();
        let b = builder();
        t.process(&b.tcp(1, 2, 0, 0, TcpFlags::ACK, b"x").unwrap());
        let drained = t.drain();
        assert_eq!(drained.len(), 1);
        assert!(t.is_empty());
    }

    /// Each table hashes with its own seed, so two tables fed the same
    /// flows hold them in different map orders; drain must not leak that.
    #[test]
    fn drain_order_is_the_same_in_every_table() {
        let drained_keys = || -> Vec<FlowKey> {
            let mut t = FlowTable::default();
            for i in 0..64u8 {
                let p = PacketBuilder::new(Ipv4Addr::new(10, 0, 1, i), Ipv4Addr::new(10, 0, 0, 2))
                    .at(100)
                    .tcp(4000, 80, 0, 0, TcpFlags::ACK, b"x")
                    .unwrap();
                t.process(&p);
            }
            t.drain().iter().map(|f| f.key).collect()
        };
        let first = drained_keys();
        assert_eq!(first.len(), 64);
        assert_eq!(first, drained_keys());
        assert!(first
            .windows(2)
            .all(|w| key_order(&w[0]) < key_order(&w[1])));
    }

    #[test]
    fn non_flow_packets_are_ignored() {
        use snids_packet::{EtherType, EthernetFrame, MacAddr};
        let mut t = FlowTable::default();
        let eth = EthernetFrame {
            dst: MacAddr::BROADCAST,
            src: MacAddr::new(2, 0, 0, 0, 0, 1),
            ethertype: EtherType::Arp,
        };
        let mut raw = eth.to_bytes().to_vec();
        raw.extend_from_slice(&[0u8; 28]);
        let p = snids_packet::Packet::decode(0, raw).unwrap();
        assert!(t.process(&p).is_none());
        assert!(t.is_empty());
    }
}
