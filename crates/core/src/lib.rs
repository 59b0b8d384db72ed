//! The five-stage semantics-aware NIDS pipeline (paper Figure 3).
//!
//! ```text
//!            ┌────────────┐   ┌──────────────────┐   ┌──────────────┐
//! packets ──▶│ traffic    │──▶│ binary detection │──▶│ disassembler │
//!            │ classifier │   │ & extraction     │   │  (snids-x86) │
//!            └────────────┘   └──────────────────┘   └──────┬───────┘
//!                                                           ▼
//!                                    ┌──────────┐   ┌──────────────┐
//!                        alerts ◀────│ semantic │◀──│ IR generator │
//!                                    │ analyzer │   │  (snids-ir)  │
//!                                    └──────────┘   └──────────────┘
//! ```
//!
//! The classifier prunes traffic (honeypot + dark-space schemes, §4.1);
//! only suspicious sources' flows are reassembled and handed to extraction;
//! only extracted binary frames reach the CPU-intensive disassembly and
//! template matching. The capture thread runs the front half in capture
//! order: checksum, defragmentation, classification, then one
//! `FrontHalf` for the pre-filter and reassembly. Flow analysis is
//! data-parallel on the `snids-exec`
//! ordered map: flows are independent, so the expensive tail scales
//! across cores with no shared mutable state. Small flows are batched into
//! coarse tasks (see [`TARGET_BATCH_BYTES`]) so per-task overhead never
//! dominates, a panicking analysis task is contained per flow (counted
//! under [`DropReason::AnalysisPanicked`], the process survives), and
//! results are gathered in input order so alert output is byte-identical
//! at any worker count.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod alert;
pub mod config;
mod front;
pub mod stats;

pub use alert::Alert;
pub use config::NidsConfig;
pub use snids_semantic::DataflowMode;
pub use stats::{DropCounters, DropReason, PipelineStats};

use front::FrontHalf;
use snids_classify::{DarkSpaceMonitor, HoneypotRegistry, Subnet, TrafficClassifier};
use snids_extract::BinaryExtractor;
use snids_flow::{
    DefragDrop, DefragOutcome, Defragmenter, Flow, FlowKey, MemoryBudget, PressureLevel, ShedCause,
    ShedFlow,
};
use snids_obs::flowlat::TRAIL_STAGES;
use snids_obs::{Event, EventKind, Obs, Stage};
use snids_packet::{Ipv4Header, Packet, TcpHeader, ETHERNET_HEADER_LEN};
use snids_semantic::{Analyzer, TemplateMatch};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Batching floor for the parallel flow-analysis stage: consecutive flows
/// are grouped until a task carries at least this much reassembled payload,
/// so a storm of tiny probe flows does not drown the pool in per-task
/// bookkeeping while any large flow still gets a task of its own.
pub const TARGET_BATCH_BYTES: u64 = 32 * 1024;

/// The assembled NIDS.
pub struct Nids {
    classifier: TrafficClassifier,
    extractor: BinaryExtractor,
    analyzer: Analyzer,
    /// Pre-filter and flow tracking, on the capture thread.
    front: FrontHalf,
    defrag: Defragmenter,
    stats: PipelineStats,
    parallel: bool,
    /// The analysis pool: built here when `NidsConfig::threads` sizes it,
    /// else on first use (see `Nids::pool`).
    exec: OnceLock<snids_exec::ThreadPool>,
    chaos_panic_marker: Option<Vec<u8>>,
    verify_checksums: bool,
    max_frame_bytes: usize,
    /// When the dataflow second pass (slice matching + alternative stream
    /// view) runs on a flow whose fast pass stayed silent.
    dataflow: DataflowMode,
    /// Per-pipeline observability registry ([`Obs::disabled`] when the
    /// config leaves metrics off — one atomic load per event).
    obs: Obs,
    /// Flight-recorder dumps captured when alerts fired or flows were
    /// dropped mid-analysis (bounded; see [`MAX_FLIGHT_DUMPS`]).
    flight_dumps: Vec<String>,
    /// Stage-nanos trails of alerted flows awaiting their alert dumps,
    /// keyed by dump id (the first alerted flow in input order wins);
    /// kept only while fewer than [`MAX_FLIGHT_DUMPS`] dumps exist.
    alert_trails: HashMap<(u32, u32, u16), [u64; TRAIL_STAGES]>,
    /// The resource governor's shared byte accounting: the flow table and
    /// the defragmenter charge their buffered bytes here.
    budget: Arc<MemoryBudget>,
    /// Analyze shed victims on the way out rather than account and
    /// discard them.
    analyze_on_evict: bool,
    /// Alerts raised by mid-run analyze-on-evict, merged (and totally
    /// ordered) with the end-of-run alerts at the next poll/finish.
    pending_alerts: Vec<Alert>,
    /// Last pressure level observed, for watermark-transition events.
    last_pressure: PressureLevel,
}

/// Cap on retained flight-recorder dumps: enough to debug a burst, small
/// enough that a flood of alerting flows cannot grow memory unboundedly.
pub const MAX_FLIGHT_DUMPS: usize = 64;

/// Reason code carried in flight-recorder events: 0 is "none", otherwise
/// `DropReason as u16 + 1` (the obs crate stays ignorant of core types).
fn reason_code(reason: Option<DropReason>) -> u16 {
    reason.map(|r| r as u16 + 1).unwrap_or(0)
}

/// Recover the [`DropReason`] behind a flight-recorder reason code.
fn reason_name(code: u16) -> &'static str {
    match code {
        0 => "-",
        c => DropReason::ALL
            .get(c as usize - 1)
            .map(|r| r.name())
            .unwrap_or("unknown"),
    }
}

/// Record one flight-recorder event tagged with `key`'s five-tuple
/// (all-zero identity when the packet had no trackable flow).
fn record_event(
    obs: &Obs,
    stage: Stage,
    kind: EventKind,
    key: Option<&FlowKey>,
    bytes: u64,
    reason: Option<DropReason>,
) {
    let (src, dst, src_port, dst_port) = match key {
        Some(k) => (u32::from(k.src), u32::from(k.dst), k.src_port, k.dst_port),
        None => (0, 0, 0, 0),
    };
    obs.recorder().record(Event {
        seq: 0,
        stage,
        kind,
        src,
        dst,
        src_port,
        dst_port,
        bytes,
        reason: reason_code(reason),
    });
}

/// The `(src, dst, dst_port)` a flight dump of a flow is keyed by.
fn key_dump_id(k: &FlowKey) -> (u32, u32, u16) {
    (u32::from(k.src), u32::from(k.dst), k.dst_port)
}

/// Render one flight-recorder event for a dump.
fn render_event(e: &Event) -> String {
    format!(
        "  #{} {} {} {}:{} -> {}:{} bytes={} reason={}",
        e.seq,
        e.stage.name(),
        e.kind.name(),
        std::net::Ipv4Addr::from(e.src),
        e.src_port,
        std::net::Ipv4Addr::from(e.dst),
        e.dst_port,
        e.bytes,
        reason_name(e.reason),
    )
}

/// Everything learned from analyzing one flow (or one batch of flows):
/// alerts plus the per-stage accounting the ledger needs.
#[derive(Default)]
struct FlowOutcome {
    alerts: Vec<Alert>,
    frames: u64,
    frame_bytes: u64,
    bailouts: u64,
    panicked: u64,
    /// Frames the dataflow second pass examined (primary + alternative
    /// view).
    dataflow_frames: u64,
    /// Frames whose dataflow analysis hit its work budget and was
    /// truncated.
    dataflow_exhausted: u64,
    /// Flows where only the second pass produced alerts — detections the
    /// fast matcher alone would have missed.
    dataflow_recovered: u64,
    /// Flows whose retained divergent-overlap shadow produced an
    /// alternative stream view for analysis.
    alt_views: u64,
    /// One record per flow, in input order — only when observing.
    records: Vec<FlowRecord>,
}

impl FlowOutcome {
    fn absorb(&mut self, other: FlowOutcome) {
        self.alerts.extend(other.alerts);
        self.frames += other.frames;
        self.frame_bytes += other.frame_bytes;
        self.bailouts += other.bailouts;
        self.panicked += other.panicked;
        self.dataflow_frames += other.dataflow_frames;
        self.dataflow_exhausted += other.dataflow_exhausted;
        self.dataflow_recovered += other.dataflow_recovered;
        self.alt_views += other.alt_views;
        self.records.extend(other.records);
    }
}

/// What a pool worker hands back about one flow when observing. The
/// workers write no observability state of their own: the calling thread
/// turns these, in input order, into flight-recorder events, settled
/// trails and flight dumps.
struct FlowRecord {
    key: FlowKey,
    /// `dropped` until the analysis returns a verdict.
    verdict: snids_obs::FlowOutcome,
    /// Per-stage nanoseconds: the front half's, then the tail's.
    trail: [u64; TRAIL_STAGES],
    /// Size of each frame whose analysis bailed out, in frame order.
    bailouts: Vec<u64>,
}

impl FlowRecord {
    /// A flow as the front half left it: no verdict yet.
    fn front(flow: &Flow) -> FlowRecord {
        let mut trail = [0; TRAIL_STAGES];
        trail[Stage::Prefilter as usize] = flow.prefilter_nanos;
        trail[Stage::Reassembly as usize] = flow.reassembly_nanos;
        FlowRecord {
            key: flow.key,
            verdict: snids_obs::FlowOutcome::Dropped,
            trail,
            bailouts: Vec::new(),
        }
    }
}

/// Group consecutive flows into contiguous batches of at least
/// [`TARGET_BATCH_BYTES`] reassembled payload each (the final batch takes
/// whatever remains). Input order is preserved within and across batches.
fn batch_flows(flows: &[Flow]) -> Vec<&[Flow]> {
    let mut batches = Vec::new();
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, flow) in flows.iter().enumerate() {
        acc += flow.payload_bytes.max(1);
        if acc >= TARGET_BATCH_BYTES {
            batches.push(&flows[start..=i]);
            start = i + 1;
            acc = 0;
        }
    }
    if start < flows.len() {
        batches.push(&flows[start..]);
    }
    batches
}

/// What the capture-ordered driver stages decided about one packet.
enum Ingest {
    /// Dropped, buffered or benign: the driver consumed the packet and
    /// nothing reaches flow tracking.
    Consumed,
    /// Classified suspicious. `Some` carries the reassembled datagram
    /// when defragmentation produced a new packet; `None` means the
    /// original packet itself is the suspicious one.
    Suspicious(Option<Packet>),
}

impl Nids {
    /// Build the pipeline from a configuration.
    pub fn new(config: NidsConfig) -> Self {
        let classifier = if config.classification_enabled {
            let hp = HoneypotRegistry::with_decoys(config.honeypots.iter().copied());
            let mut ds = DarkSpaceMonitor::new(config.dark_threshold);
            for (net, prefix) in &config.dark_nets {
                ds.add_dark(Subnet::new(*net, *prefix));
            }
            TrafficClassifier::new(hp, ds)
        } else {
            TrafficClassifier::disabled()
        };
        let budget = Arc::new(MemoryBudget::limited(config.memory_budget));
        let obs = if config.observability {
            Obs::new(snids_obs::DEFAULT_RECORDER_CAPACITY)
        } else {
            Obs::disabled()
        };
        let front = FrontHalf::new(&config, Arc::clone(&budget), obs.clone());
        Nids {
            classifier,
            extractor: BinaryExtractor::new(config.extractor.clone()),
            analyzer: Analyzer::new(config.templates.clone()),
            front,
            defrag: Defragmenter::with_budget(
                snids_flow::DefragConfig::default(),
                Arc::clone(&budget),
            ),
            stats: PipelineStats::default(),
            parallel: config.parallel,
            exec: match config.threads {
                0 => OnceLock::new(),
                n => OnceLock::from(snids_exec::ThreadPool::new(n)),
            },
            chaos_panic_marker: config.chaos_analysis_panic_marker.clone(),
            verify_checksums: config.verify_checksums,
            max_frame_bytes: config.max_frame_bytes.max(1),
            dataflow: config.dataflow,
            obs,
            flight_dumps: Vec::new(),
            alert_trails: HashMap::new(),
            budget,
            analyze_on_evict: config.analyze_on_evict,
            pending_alerts: Vec::new(),
            last_pressure: PressureLevel::Normal,
        }
    }

    /// The resource governor's byte accounting (shared by the flow table
    /// and the defragmenter).
    pub fn budget(&self) -> &MemoryBudget {
        &self.budget
    }

    /// The pipeline's observability registry (the shared disabled handle
    /// when the config left metrics off).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Flight-recorder dumps captured so far (one per alerting or
    /// mid-analysis-dropped flow, newest last, capped at
    /// [`MAX_FLIGHT_DUMPS`]).
    pub fn flight_dumps(&self) -> &[String] {
        &self.flight_dumps
    }

    /// The scheduler self-profile of the pool this pipeline analyzes flows
    /// on.
    pub fn pool_stats(&self) -> snids_exec::PoolStats {
        self.pool().stats()
    }

    /// The named rows of a snapshot: the ledger's counts, then the live
    /// gauges (budget tracked and level, protected flows, the pool's
    /// self-profile), sorted by name. Built afresh on every call.
    fn publish_gauges(&self) -> Vec<(String, u64)> {
        let s = &self.stats;
        let pool = self.pool_stats();
        let mut named = Vec::new();
        for (reason, n) in s.drops.iter() {
            named.push((
                format!("snids_drops_total{{reason=\"{}\"}}", reason.name()),
                n,
            ));
        }
        for (lane, rule, n) in &s.lane_hits {
            named.push((
                format!("snids_prefilter_lane_hits_total{{lane=\"{lane}\",rule=\"{rule}\"}}"),
                *n,
            ));
        }
        for (name, value) in [
            ("snids_packets_total", s.packets),
            ("snids_processed_total", s.processed),
            ("snids_flows_analyzed_total", s.flows_analyzed),
            ("snids_alerts_total", s.alerts),
            ("snids_prefilter_passed_total", s.prefilter_passed),
            ("snids_prefilter_escalated_total", s.prefilter_escalated),
            ("snids_prefilter_rejected_total", s.prefilter_rejected),
            ("snids_budget_limit_bytes", s.memory_limit_bytes),
            ("snids_budget_tracked_bytes", self.budget.tracked()),
            ("snids_budget_peak_bytes", s.peak_tracked_bytes),
            ("snids_budget_pressure_level", self.budget.level().code()),
            ("snids_watermark_transitions_total", s.watermark_transitions),
            (
                "snids_flows_protected",
                self.front.flows.protected_len() as u64,
            ),
            ("snids_flows_degraded_total", s.degraded_flows),
            ("snids_flows_shed_total", self.front.flows.evicted()),
            ("snids_dataflow_frames_total", s.dataflow_frames),
            ("snids_dataflow_recovered_total", s.dataflow_recovered),
            (
                "snids_dataflow_exhausted_total",
                s.drops.get(DropReason::DataflowExhausted),
            ),
            ("snids_dataflow_alt_views_total", s.dataflow_alt_views),
            ("snids_pool_threads", pool.threads as u64),
            ("snids_pool_tasks_panicked_total", pool.tasks_panicked),
        ] {
            named.push((name.to_string(), value));
        }
        for (i, w) in pool.workers.iter().enumerate() {
            named.push((format!("snids_pool_tasks_total{{thread=\"{i}\"}}"), w.tasks));
            named.push((
                format!("snids_pool_busy_nanos_total{{thread=\"{i}\"}}"),
                w.busy_nanos,
            ));
        }
        named.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        named
    }

    /// A deterministic point-in-time metrics snapshot: the registry's own
    /// measurements, plus the freshly merged ledger and the live gauges
    /// as named rows.
    pub fn obs_snapshot(&mut self) -> snids_obs::Snapshot {
        self.sync_ledger();
        let mut snap = self.obs.snapshot();
        snap.named = self.publish_gauges();
        snap
    }

    /// The Prometheus-style text exposition page for this pipeline.
    pub fn metrics_page(&mut self) -> String {
        snids_obs::expo::render_text(&self.obs_snapshot())
    }

    /// The JSON metrics snapshot for this pipeline.
    pub fn metrics_json(&mut self) -> String {
        snids_obs::expo::render_json(&self.obs_snapshot())
    }

    /// One `why` dump per distinct `(src, dst, dst_port)` in `flows`, in
    /// order, until [`MAX_FLIGHT_DUMPS`] exist — from one copy of the
    /// flight ring, indexed by flow. A dump lists the flow's events,
    /// oldest first, and ends in the stage-nanos trail paired with its id,
    /// settled as `outcome`. The source port is wildcarded: alerts do not
    /// carry it.
    fn dump_flights(
        &mut self,
        why: &str,
        outcome: snids_obs::FlowOutcome,
        flows: impl IntoIterator<Item = ((u32, u32, u16), [u64; TRAIL_STAGES])>,
    ) {
        let mut flows = flows.into_iter().peekable();
        if self.flight_dumps.len() >= MAX_FLIGHT_DUMPS || flows.peek().is_none() {
            return;
        }
        let events = self.obs.recorder().events();
        let mut trails: HashMap<(u32, u32, u16), Vec<&Event>> = HashMap::new();
        for event in &events {
            let id = (event.src, event.dst, event.dst_port);
            trails.entry(id).or_default().push(event);
        }
        let mut dumped = HashSet::new();
        for (id @ (src, dst, dst_port), stage_nanos) in flows {
            if self.flight_dumps.len() >= MAX_FLIGHT_DUMPS {
                break;
            }
            if !dumped.insert(id) {
                continue;
            }
            let Some(trail) = trails.get(&id) else {
                continue;
            };
            let lines: Vec<String> = trail.iter().map(|e| render_event(e)).collect();
            self.flight_dumps.push(format!(
                "flight[{}] {} -> {}:{} ({} events)\n{}\n{}",
                why,
                std::net::Ipv4Addr::from(src),
                std::net::Ipv4Addr::from(dst),
                dst_port,
                lines.len(),
                lines.join("\n"),
                snids_obs::flowlat::render_trail(outcome, &stage_nanos),
            ));
        }
    }

    /// The pool the flow-analysis stage runs on. A default-sized pool
    /// resolves its size on first use, not in [`Nids::new`]:
    /// `default_threads` reads the environment and the cgroup CPU quota,
    /// which would otherwise be paid by every pipeline built, analyzing
    /// or not.
    fn pool(&self) -> &snids_exec::ThreadPool {
        self.exec
            .get_or_init(|| snids_exec::ThreadPool::new(snids_exec::default_threads()))
    }

    /// Worker threads available to the flow-analysis stage.
    pub fn analysis_threads(&self) -> usize {
        if self.parallel {
            self.pool().threads()
        } else {
            1
        }
    }

    /// Default production configuration.
    pub fn with_defaults() -> Self {
        Nids::new(NidsConfig::default())
    }

    /// Pipeline statistics. Every count the pipeline decides itself
    /// (packets, classification, pre-filter, reassembly time, sheds,
    /// analysis) is live; the tallies the flow table, the defragmenter and
    /// the memory budget keep are merged in by [`Nids::poll`],
    /// [`Nids::finish`], [`Nids::absorb_read_stats`] and
    /// [`Nids::obs_snapshot`].
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    /// Fold a pcap reader's accounting into the record ledger (call after
    /// decoding a capture and feeding its packets through the pipeline).
    pub fn absorb_read_stats(&mut self, rs: &snids_packet::ReadStats) {
        self.stats.absorb_read_stats(rs);
        self.sync_ledger();
    }

    /// Read into the ledger the tallies other parts own: the flow
    /// table's, the defragmenter's, the memory budget's and the
    /// pre-filter's per-rule hits. All are cumulative, so this sets
    /// rather than adds.
    fn sync_ledger(&mut self) {
        let flows = &self.front.flows;
        let s = &mut self.stats;
        s.lane_hits = self.front.lane_hits();
        s.overlap_conflict_bytes = flows.overlap_conflict_bytes();
        s.degraded_flows = flows.degraded_flows();
        s.memory_limit_bytes = self.budget.limit();
        s.peak_tracked_bytes = self.budget.peak();
        let ds = self.defrag.stats();
        for (reason, n) in [
            (DropReason::StreamTruncated, flows.truncated_flows()),
            (DropReason::DefragCapExceeded, ds.cap_exceeded),
            (DropReason::DefragOversize, ds.oversize),
            (DropReason::DefragTimeout, ds.timeout),
            (DropReason::DefragInvalid, ds.invalid),
            (DropReason::DefragIncomplete, ds.incomplete),
        ] {
            s.drops.set(reason, n);
        }
    }

    /// Count a watermark transition, and record its flight event, when
    /// the pressure level changed since the last check.
    fn note_pressure(&mut self) {
        let level = self.budget.level();
        if level == self.last_pressure {
            return;
        }
        self.last_pressure = level;
        self.stats.watermark_transitions += 1;
        if self.obs.enabled() {
            self.obs.recorder().record(Event {
                seq: 0,
                stage: Stage::Reassembly,
                kind: EventKind::Watermark,
                src: 0,
                dst: 0,
                src_port: 0,
                dst_port: 0,
                bytes: self.budget.tracked(),
                reason: level.code() as u16,
            });
        }
    }

    /// Act on the victims the table shed under pressure, charging each to
    /// one shed reason. Analyze-on-evict (`shed_analyzed`) runs them
    /// through the normal analysis path, buffers their alerts for the
    /// next poll/finish, and feeds alerting sources back into the
    /// protection tier so the governor never evicts a source it has seen
    /// attack. Otherwise each unanalyzed victim — `shed_unanalyzed` when
    /// the byte budget shed it, `flow_evicted` when the count cap did —
    /// is the end of its flow's story: it settles as dropped and its
    /// flight trail is dumped.
    fn handle_shed(&mut self, shed: Vec<ShedFlow>) {
        if shed.is_empty() {
            return;
        }
        if !self.analyze_on_evict {
            for s in &shed {
                self.stats.drops.inc(match s.cause {
                    ShedCause::ByteBudget => DropReason::ShedUnanalyzed,
                    ShedCause::CountCap => DropReason::FlowEvicted,
                });
            }
            if self.obs.enabled() {
                let victims: Vec<FlowRecord> =
                    shed.iter().map(|s| FlowRecord::front(&s.flow)).collect();
                for rec in &victims {
                    self.obs.flow_settle(rec.verdict, &rec.trail);
                }
                self.dump_dropped(Stage::Reassembly, DropReason::FlowEvicted, victims.iter());
            }
            return;
        }
        self.stats
            .drops
            .add(DropReason::ShedAnalyzed, shed.len() as u64);
        let observing = self.obs.enabled();
        let mut flows = Vec::with_capacity(shed.len());
        for s in shed {
            if observing {
                record_event(
                    &self.obs,
                    Stage::Reassembly,
                    EventKind::Drop,
                    Some(&s.flow.key),
                    s.flow.mem_bytes() as u64,
                    Some(DropReason::ShedAnalyzed),
                );
            }
            flows.push(s.flow);
        }
        let alerts = self.analyze_flows(flows);
        self.front.protect(&alerts);
        self.pending_alerts.extend(alerts);
    }

    /// True when the packet fails an enabled checksum check. IPv4 header
    /// checksums are verified on every IP packet; TCP checksums only on
    /// unfragmented segments (a fragment does not carry a whole segment).
    fn fails_checksum(&self, packet: &Packet) -> bool {
        if !self.verify_checksums {
            return false;
        }
        let Some(ip) = packet.ip() else {
            return false;
        };
        let raw = packet.raw();
        if !Ipv4Header::verify_checksum(&raw[ETHERNET_HEADER_LEN..]) {
            return true;
        }
        let is_fragment = ip.more_fragments || ip.fragment_offset != 0;
        if !is_fragment && packet.tcp().is_some() {
            let segment =
                &raw[ETHERNET_HEADER_LEN + ip.header_len..ETHERNET_HEADER_LEN + ip.total_len];
            if !TcpHeader::verify_checksum(ip.src, ip.dst, segment) {
                return true;
            }
        }
        false
    }

    /// Stage 1+2: classify one packet and, when suspicious, fold it into
    /// its flow for later analysis. IP fragments are reassembled first so
    /// frag-evasion never hides a transport payload. Every packet fed in
    /// ends up in exactly one ledger slot: `processed` (possibly later,
    /// when its datagram completes) or a packet-level drop counter.
    pub fn process_packet(&mut self, packet: &Packet) {
        if let Ingest::Suspicious(whole) = self.ingest(packet) {
            let shed = self
                .front
                .track(whole.as_ref().unwrap_or(packet), &mut self.stats);
            self.handle_shed(shed);
        }
        self.note_pressure();
    }

    /// The capture-ordered start of [`Nids::process_packet`]: ledger
    /// entry, checksum verification, defragmentation and classification.
    /// Only the suspicious survivors reach the front half.
    fn ingest(&mut self, packet: &Packet) -> Ingest {
        let observing = self.obs.enabled();
        self.stats.packets += 1;
        let t_cap = if observing {
            Some(Instant::now())
        } else {
            None
        };
        let failed = self.fails_checksum(packet);
        if let Some(t0) = t_cap {
            // One capture event per packet fed in: the conservation
            // invariant the metrics e2e checks against the ledger.
            self.obs.record_stage(
                Stage::Capture,
                t0.elapsed().as_nanos() as u64,
                packet.raw().len() as u64,
            );
        }
        if failed {
            self.stats.drops.inc(DropReason::ChecksumFailed);
            if observing {
                let key = FlowKey::of(packet);
                record_event(
                    &self.obs,
                    Stage::Capture,
                    EventKind::Drop,
                    key.as_ref(),
                    packet.raw().len() as u64,
                    Some(DropReason::ChecksumFailed),
                );
            }
            return Ingest::Consumed;
        }
        // Defragment before anything else; incomplete fragments buffer.
        let mut whole: Option<Packet> = None;
        let pieces;
        if packet
            .ip()
            .map(|h| h.more_fragments || h.fragment_offset != 0)
            .unwrap_or(false)
        {
            let t_defrag = if observing {
                Some(Instant::now())
            } else {
                None
            };
            let outcome = self.defrag.ingest(packet.clone());
            if let Some(t0) = t_defrag {
                self.obs.record_stage(
                    Stage::Defrag,
                    t0.elapsed().as_nanos() as u64,
                    packet.payload().len() as u64,
                );
            }
            match outcome {
                DefragOutcome::Reassembled {
                    packet: p,
                    pieces: n,
                } => {
                    whole = Some(p);
                    pieces = n;
                }
                DefragOutcome::Passthrough(p) => {
                    whole = Some(p);
                    pieces = 1;
                }
                DefragOutcome::Buffered => {
                    // Buffered fragments are credited when their datagram
                    // resolves.
                    return Ingest::Consumed;
                }
                DefragOutcome::Dropped(drop) => {
                    // The drop was tallied by the defragmenter; mirror it
                    // into the flight recorder with the ledger's reason.
                    if observing {
                        let reason = match drop {
                            DefragDrop::CapExceeded => DropReason::DefragCapExceeded,
                            DefragDrop::Oversize => DropReason::DefragOversize,
                            DefragDrop::Invalid => DropReason::DefragInvalid,
                        };
                        record_event(
                            &self.obs,
                            Stage::Defrag,
                            EventKind::Drop,
                            None,
                            packet.payload().len() as u64,
                            Some(reason),
                        );
                    }
                    return Ingest::Consumed;
                }
            }
        } else {
            pieces = 1;
        }
        let packet = whole.as_ref().unwrap_or(packet);
        self.stats.processed += pieces;
        let t0 = Instant::now();
        let verdict = self.classifier.classify(packet);
        let classify_nanos = t0.elapsed().as_nanos() as u64;
        self.stats.classify_nanos += classify_nanos;
        if observing {
            self.obs.record_stage(
                Stage::Classify,
                classify_nanos,
                packet.payload().len() as u64,
            );
        }
        if !verdict.is_suspicious() {
            return Ingest::Consumed;
        }
        self.stats.suspicious_packets += 1;
        Ingest::Suspicious(whole)
    }

    /// Stages 3–5 for one application payload: extraction, disassembly,
    /// IR and template matching. Usable directly for standalone binaries
    /// (the paper's Netsky datapoints) and by the benchmark harness.
    /// Frames, frame bytes and decoder bailouts land in [`PipelineStats`],
    /// so standalone payload experiments (Table 2) carry the same
    /// integrity footer as capture runs.
    pub fn analyze_payload(&mut self, payload: &[u8]) -> Vec<TemplateMatch> {
        let t0 = Instant::now();
        let frames = self.extractor.extract(payload);
        let mut out = Vec::new();
        for frame in frames {
            self.stats.frames_extracted += 1;
            self.stats.frame_bytes += frame.data.len() as u64;
            let data = &frame.data[..frame.data.len().min(self.max_frame_bytes)];
            let analysis = self.analyzer.analyze_frame(data);
            if analysis.sweep_exhausted || frame.data.len() > self.max_frame_bytes {
                self.stats.drops.inc(DropReason::DecoderBailout);
            }
            out.extend(analysis.matches);
        }
        self.stats.analysis_nanos += t0.elapsed().as_nanos() as u64;
        out
    }

    /// Drain and analyze all pending flows, producing alerts.
    ///
    /// Flow payloads are independent, so this is the pool-parallel stage.
    /// Fragments still buffered in the defragmenter will never complete
    /// now, so they are drained and accounted first — after `finish` the
    /// packet ledger balances exactly.
    pub fn finish(&mut self) -> Vec<Alert> {
        self.defrag.drain_incomplete();
        let flows = self.front.flows.drain();
        let mut alerts = std::mem::take(&mut self.pending_alerts);
        alerts.extend(self.analyze_flows(flows));
        let alerts = self.finalize_alerts(alerts);
        self.sync_ledger();
        self.note_pressure();
        // Satellite invariant: every byte charged to the budget by the
        // flow table and the defragmenter was released on drain —
        // accounting cannot drift across runs.
        debug_assert_eq!(
            self.budget.tracked(),
            0,
            "memory budget must return to zero after finish"
        );
        alerts
    }

    /// Streaming mode: expire flows idle since before `now` minus the
    /// configured timeout and analyze just those, keeping live flows
    /// buffered. A long-running deployment calls this periodically so
    /// memory stays bounded and alerts arrive while the attack is still
    /// in progress, then [`Nids::finish`] once at teardown.
    pub fn poll(&mut self, now: u64) -> Vec<Alert> {
        let expired = self.front.flows.expire(now);
        let alerts = if expired.is_empty() && self.pending_alerts.is_empty() {
            Vec::new()
        } else {
            let mut alerts = std::mem::take(&mut self.pending_alerts);
            alerts.extend(self.analyze_flows(expired));
            self.finalize_alerts(alerts)
        };
        self.sync_ledger();
        alerts
    }

    /// Stages 3–5 over a set of drained flows, spread across the pool.
    ///
    /// Each batch task extracts, disassembles and template-matches its
    /// flows in one pass; a panic while analyzing a flow is contained at
    /// that flow (counted under `analysis_panicked`) and, as a second
    /// line of defence, a panic escaping a whole batch is contained by
    /// the pool's per-item isolation. Batch results come back in input
    /// order, so the alert stream is identical at any worker count.
    // The chaos fault-injection marker is the one intentional panic site
    // in this crate (the suite exercises the pool's containment with it).
    #[allow(clippy::panic)]
    fn analyze_flows(&mut self, flows: Vec<Flow>) -> Vec<Alert> {
        self.stats.flows_analyzed += flows.len() as u64;

        let t0 = Instant::now();
        let extractor = &self.extractor;
        let analyzer = &self.analyzer;
        let frame_cap = self.max_frame_bytes;
        let dataflow = self.dataflow;
        let chaos_marker = self.chaos_panic_marker.as_deref();
        let obs = self.obs.clone();
        let observing = obs.enabled();

        // `rec` arrives holding the flow's front-half time; the tail
        // stages add theirs as they run, and bailed-out frames are noted
        // for the calling thread to record.
        let analyze_one = |flow: &Flow, rec: &mut FlowRecord| -> FlowOutcome {
            let t_extract = if observing {
                Some(Instant::now())
            } else {
                None
            };
            let payload = flow.payload();
            if let Some(marker) = chaos_marker {
                if !marker.is_empty() && payload.windows(marker.len()).any(|w| w == marker) {
                    panic!("chaos: injected analysis panic");
                }
            }
            let frames = extractor.extract(&payload);
            if let Some(t) = t_extract {
                let nanos = t.elapsed().as_nanos() as u64;
                obs.record_stage(Stage::Extract, nanos, payload.len() as u64);
                rec.trail[Stage::Extract as usize] += nanos;
            }
            let mut out = FlowOutcome {
                frames: frames.len() as u64,
                ..FlowOutcome::default()
            };
            for frame in &frames {
                out.frame_bytes += frame.data.len() as u64;
                // Bound the disassembly/matching work a hostile frame can
                // buy: the byte cap truncates the frame, and the sweep
                // budget bounds start discovery inside it. Either limit
                // firing is a decoder bailout for this frame.
                let data = &frame.data[..frame.data.len().min(frame_cap)];
                let analysis = if observing {
                    let (analysis, timing) = analyzer.analyze_frame_timed(data);
                    let bytes = data.len() as u64;
                    obs.record_stage(Stage::Decode, timing.decode_nanos, bytes);
                    obs.record_stage(Stage::IrLift, timing.lift_nanos, bytes);
                    obs.record_stage(Stage::TemplateMatch, timing.match_nanos, bytes);
                    rec.trail[Stage::Decode as usize] += timing.decode_nanos;
                    rec.trail[Stage::IrLift as usize] += timing.lift_nanos;
                    rec.trail[Stage::TemplateMatch as usize] += timing.match_nanos;
                    analysis
                } else {
                    analyzer.analyze_frame(data)
                };
                if analysis.sweep_exhausted || frame.data.len() > frame_cap {
                    out.bailouts += 1;
                    if observing {
                        rec.bailouts.push(frame.data.len() as u64);
                    }
                }
                for m in analysis.matches {
                    out.alerts.push(Alert::from_match(flow, frame, m));
                }
            }
            // Dataflow second pass, for flows the fast matcher stayed
            // silent on: slice-match the frames it already saw (recovering
            // decoders whose instruction run was broken by corruption),
            // and when the reassembler retained a divergent losing copy,
            // analyze that alternative stream view — the bytes a victim
            // stack resolving the overlap the other way would execute.
            // `NearMiss` additionally requires the desync signature
            // (divergent overlaps) so conflict-free traffic pays nothing.
            let second_pass = out.alerts.is_empty()
                && match dataflow {
                    DataflowMode::Off => false,
                    DataflowMode::NearMiss => flow.has_conflicts(),
                    DataflowMode::On => true,
                };
            if second_pass {
                let t_df = if observing {
                    Some(Instant::now())
                } else {
                    None
                };
                let mut df_bytes = 0u64;
                let mut slice_pass =
                    |frame: &snids_extract::BinaryFrame, fast_too: bool, out: &mut FlowOutcome| {
                        let data = &frame.data[..frame.data.len().min(frame_cap)];
                        df_bytes += data.len() as u64;
                        out.dataflow_frames += 1;
                        if fast_too {
                            for m in analyzer.analyze_frame(data).matches {
                                out.alerts.push(Alert::from_match(flow, frame, m));
                            }
                        }
                        let sa = analyzer.analyze_frame_slices(data);
                        if sa.dataflow_exhausted {
                            out.dataflow_exhausted += 1;
                        }
                        for m in sa.matches {
                            out.alerts.push(Alert::from_match(flow, frame, m));
                        }
                    };
                for frame in &frames {
                    slice_pass(frame, false, &mut out);
                }
                if let Some(alt) = flow.alternate_payload() {
                    out.alt_views += 1;
                    for frame in &extractor.extract(&alt) {
                        // The alternative view never saw the fast pass:
                        // run both matchers over it.
                        slice_pass(frame, true, &mut out);
                    }
                }
                if !out.alerts.is_empty() {
                    out.dataflow_recovered += 1;
                }
                if let Some(t) = t_df {
                    let nanos = t.elapsed().as_nanos() as u64;
                    obs.record_stage(Stage::Dataflow, nanos, df_bytes);
                    rec.trail[Stage::Dataflow as usize] += nanos;
                }
            }
            out
        };
        let run_batch = |batch: &&[Flow]| -> FlowOutcome {
            let mut agg = FlowOutcome::default();
            for flow in batch.iter() {
                let mut rec = FlowRecord::front(flow);
                match catch_unwind(AssertUnwindSafe(|| analyze_one(flow, &mut rec))) {
                    Ok(outcome) => {
                        rec.verdict = if outcome.alerts.is_empty() {
                            snids_obs::FlowOutcome::Benign
                        } else {
                            snids_obs::FlowOutcome::Alerted
                        };
                        agg.absorb(outcome);
                    }
                    // A panicked flow stays `dropped`, with the time it
                    // had spent.
                    Err(_) => agg.panicked += 1,
                }
                if observing {
                    agg.records.push(rec);
                }
            }
            agg
        };

        let batches = batch_flows(&flows);
        let outcomes: Vec<FlowOutcome> = if self.parallel && batches.len() > 1 {
            self.pool()
                .try_par_map(&batches, run_batch)
                .into_iter()
                .zip(&batches)
                .map(|(result, batch)| {
                    result.unwrap_or_else(|_| FlowOutcome {
                        panicked: batch.len() as u64,
                        records: batch
                            .iter()
                            .filter(|_| observing)
                            .map(FlowRecord::front)
                            .collect(),
                        ..FlowOutcome::default()
                    })
                })
                .collect()
        } else {
            batches.iter().map(run_batch).collect()
        };

        let mut total = FlowOutcome::default();
        for outcome in outcomes {
            total.absorb(outcome);
        }
        let alerts = total.alerts;

        self.stats.analysis_nanos += t0.elapsed().as_nanos() as u64;
        self.stats.frames_extracted += total.frames;
        self.stats.frame_bytes += total.frame_bytes;
        self.stats
            .drops
            .add(DropReason::DecoderBailout, total.bailouts);
        self.stats
            .drops
            .add(DropReason::AnalysisPanicked, total.panicked);
        self.stats
            .drops
            .add(DropReason::DataflowExhausted, total.dataflow_exhausted);
        self.stats.dataflow_frames += total.dataflow_frames;
        self.stats.dataflow_recovered += total.dataflow_recovered;
        self.stats.dataflow_alt_views += total.alt_views;
        if observing {
            self.observe_analyzed(&total.records);
        }
        alerts
    }

    /// The calling thread's half of observing [`Nids::analyze_flows`], in
    /// input order: record each flow's decoder bailouts, settle its trail
    /// once, keep an alerted flow's trail for its alert dump, then record
    /// and dump the panicked flows.
    fn observe_analyzed(&mut self, records: &[FlowRecord]) {
        for rec in records {
            for &bytes in &rec.bailouts {
                record_event(
                    &self.obs,
                    Stage::Decode,
                    EventKind::Drop,
                    Some(&rec.key),
                    bytes,
                    Some(DropReason::DecoderBailout),
                );
            }
            self.obs.flow_settle(rec.verdict, &rec.trail);
            if rec.verdict == snids_obs::FlowOutcome::Alerted
                && self.flight_dumps.len() < MAX_FLIGHT_DUMPS
            {
                self.alert_trails
                    .entry(key_dump_id(&rec.key))
                    .or_insert(rec.trail);
            }
        }
        // A panicked flow is a lost detection opportunity — dump the
        // flow's recorded trail while it is still in the ring.
        self.dump_dropped(
            Stage::Extract,
            DropReason::AnalysisPanicked,
            records
                .iter()
                .filter(|rec| rec.verdict == snids_obs::FlowOutcome::Dropped),
        );
    }

    /// Record a `reason` drop event at `stage` for each flow in
    /// `dropped`, then dump their flights under the reason's name, each
    /// ending in the flow's `dropped` trail.
    fn dump_dropped<'a>(
        &mut self,
        stage: Stage,
        reason: DropReason,
        dropped: impl Iterator<Item = &'a FlowRecord> + Clone,
    ) {
        for rec in dropped.clone() {
            record_event(
                &self.obs,
                stage,
                EventKind::Drop,
                Some(&rec.key),
                0,
                Some(reason),
            );
        }
        self.dump_flights(
            reason.name(),
            snids_obs::FlowOutcome::Dropped,
            dropped.map(|rec| (key_dump_id(&rec.key), rec.trail)),
        );
    }

    /// Order, dedup and publish a merged batch of raw alerts (end-of-run
    /// plus any buffered by mid-run analyze-on-evict).
    ///
    /// Total order over every rendered field: two flows can share a
    /// source (NATs, repeat attackers), and the flow table drains in
    /// hash order, so anything short of a total key would leak drain
    /// order — or shed timing — into the output and break byte-identical
    /// replays. Alerting sources also feed the protection tier here, so a
    /// source the sensor has seen attack is pinned against future sheds.
    fn finalize_alerts(&mut self, mut alerts: Vec<Alert>) -> Vec<Alert> {
        alerts.sort_by_key(|a| (a.src, a.template, a.start, a.dst, a.dst_port));
        alerts.dedup_by(|a, b| {
            a.src == b.src
                && a.template == b.template
                && a.start == b.start
                && a.dst == b.dst
                && a.dst_port == b.dst_port
        });
        self.stats.alerts += alerts.len() as u64;
        self.front.protect(&alerts);
        if self.obs.enabled() {
            // An alert is a confirmed detection — record it and dump the
            // flow's recorded trail.
            for alert in &alerts {
                // Alerts carry no source port, so the event's src_port is
                // 0; dumps match on (src, dst, dst_port) and don't care.
                self.obs.recorder().record(Event {
                    seq: 0,
                    stage: Stage::TemplateMatch,
                    kind: EventKind::Alert,
                    src: u32::from(alert.src),
                    dst: u32::from(alert.dst),
                    src_port: 0,
                    dst_port: alert.dst_port,
                    bytes: (alert.detail.end - alert.detail.start) as u64,
                    reason: 0,
                });
            }
            // Every alert's flow left its trail in `alert_trails` while
            // dumps were still being taken.
            let trails = std::mem::take(&mut self.alert_trails);
            self.dump_flights(
                "alert",
                snids_obs::FlowOutcome::Alerted,
                alerts.iter().filter_map(|a| {
                    let id = (u32::from(a.src), u32::from(a.dst), a.dst_port);
                    Some((id, *trails.get(&id)?))
                }),
            );
        }
        alerts
    }

    /// Convenience: run a whole capture through the pipeline.
    pub fn process_capture(&mut self, packets: &[Packet]) -> Vec<Alert> {
        for p in packets {
            self.process_packet(p);
        }
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snids_gen::traces::{codered_capture, tcp_flow_packets, AddressPlan};
    use snids_gen::SCENARIOS;
    use std::net::Ipv4Addr;

    fn plan_config(plan: &AddressPlan) -> NidsConfig {
        NidsConfig {
            honeypots: plan.honeypots.clone(),
            dark_nets: vec![(plan.dark_net, 16)],
            dark_threshold: 5,
            ..NidsConfig::default()
        }
    }

    /// End-to-end Table 1 shape: exploit to a honeypot is classified,
    /// reassembled, extracted and semantically detected.
    #[test]
    fn honeypot_exploit_end_to_end() {
        let plan = AddressPlan::default();
        let mut nids = Nids::new(plan_config(&plan));
        let mut rng = StdRng::seed_from_u64(5);
        let attacker = Ipv4Addr::new(198, 18, 7, 7);

        let payload = SCENARIOS[0].build_payload(&mut rng);
        // the attacker first touches a honeypot, then hits the real service
        let probe = snids_packet::PacketBuilder::new(attacker, plan.honeypots[0])
            .at(100)
            .tcp_syn(4000, 21, 1)
            .unwrap();
        let mut nids_packets = vec![probe];
        nids_packets.extend(tcp_flow_packets(
            attacker,
            plan.web_server,
            4001,
            21,
            &payload,
            200,
            0x42,
        ));
        let alerts = nids.process_capture(&nids_packets);
        assert!(
            alerts.iter().any(|a| a.template == "linux-shell-spawn"),
            "{alerts:?}"
        );
        assert_eq!(nids.stats().packets, nids_packets.len() as u64);
        assert!(nids.stats().suspicious_packets >= 2);
        assert!(nids.stats().packet_ledger_balanced());
        assert_eq!(nids.stats().processed, nids.stats().packets);
    }

    /// Every packet fed in — including buffered, dropped and reassembled
    /// fragments — lands in exactly one ledger slot once finish() runs.
    #[test]
    fn packet_ledger_balances_with_fragments() {
        use snids_flow::defrag::fragment_packet;
        let plan = AddressPlan::default();
        let mut nids = Nids::new(plan_config(&plan));
        let mut rng = StdRng::seed_from_u64(33);
        let attacker = Ipv4Addr::new(198, 18, 7, 7);
        let payload = SCENARIOS[0].build_payload(&mut rng);

        let mut capture = Vec::new();
        // A fragmented flow that completes.
        for p in tcp_flow_packets(attacker, plan.honeypots[0], 4001, 21, &payload, 100, 0x42) {
            capture.extend(fragment_packet(&p, 512));
        }
        // A datagram that never completes: all but the final fragment.
        let orphan = snids_packet::PacketBuilder::new(attacker, plan.web_server)
            .at(900)
            .identification(7777)
            .tcp(
                4002,
                21,
                1,
                0,
                snids_packet::TcpFlags::ACK,
                &vec![0x90u8; 2000],
            )
            .unwrap();
        let mut orphan_frags = fragment_packet(&orphan, 512);
        orphan_frags.pop();
        capture.extend(orphan_frags);

        nids.process_capture(&capture);
        let s = nids.stats();
        assert_eq!(s.packets, capture.len() as u64);
        assert!(s.drops.get(DropReason::DefragIncomplete) > 0);
        assert!(
            s.packet_ledger_balanced(),
            "packets={} processed={} drops={}",
            s.packets,
            s.processed,
            s.drops.packet_total()
        );
    }

    /// A divergent TCP overlap (same sequence range, different bytes)
    /// surfaces in the integrity ledger even though no packet is dropped:
    /// desync evasion attempts are observable, not silent.
    #[test]
    fn divergent_overlap_is_observable_in_stats() {
        let plan = AddressPlan::default();
        let mut nids = Nids::new(plan_config(&plan));
        let attacker = Ipv4Addr::new(198, 18, 9, 9);
        let target = plan.honeypots[0];
        let syn = snids_packet::PacketBuilder::new(attacker, target)
            .at(10)
            .tcp_syn(4000, 21, 1)
            .unwrap();
        let real = snids_packet::PacketBuilder::new(attacker, target)
            .at(11)
            .tcp(4000, 21, 2, 0, snids_packet::TcpFlags::ACK, b"GET /real")
            .unwrap();
        // Retransmit of the same range with four bytes changed.
        let fake = snids_packet::PacketBuilder::new(attacker, target)
            .at(12)
            .tcp(4000, 21, 2, 0, snids_packet::TcpFlags::ACK, b"GET /fake")
            .unwrap();
        nids.process_capture(&[syn, real, fake]);
        let s = nids.stats();
        assert_eq!(s.overlap_conflict_bytes, 4, "{}", s.drop_report());
        assert!(s.drop_report().contains("integrity.overlap_conflict_bytes"));
        assert!(s.packet_ledger_balanced());
        assert_eq!(s.processed, s.packets);
    }

    /// A corrupted checksum drops the packet before any pipeline work and
    /// is attributed.
    #[test]
    fn checksum_failures_are_dropped_and_counted() {
        let plan = AddressPlan::default();
        let mut nids = Nids::new(plan_config(&plan));
        let good =
            snids_packet::PacketBuilder::new(Ipv4Addr::new(198, 18, 1, 1), plan.honeypots[0])
                .at(10)
                .tcp_syn(4000, 21, 1)
                .unwrap();
        let mut raw = good.raw().to_vec();
        let last = raw.len() - 1;
        raw[last] ^= 0xff; // corrupt the TCP payload/checksum region
        let bad = snids_packet::Packet::decode(20, raw).unwrap();

        nids.process_packet(&good);
        nids.process_packet(&bad);
        nids.finish();
        let s = nids.stats();
        assert_eq!(s.packets, 2);
        assert_eq!(s.drops.get(DropReason::ChecksumFailed), 1);
        assert_eq!(s.processed, 1);
        assert!(s.packet_ledger_balanced());
    }

    /// A benign client to the same service never reaches analysis.
    #[test]
    fn benign_flow_is_pruned_by_classification() {
        let plan = AddressPlan::default();
        let mut nids = Nids::new(plan_config(&plan));
        let mut rng = StdRng::seed_from_u64(6);
        let client = plan.client(&mut rng);
        let packets = tcp_flow_packets(
            client,
            plan.web_server,
            5000,
            80,
            &snids_gen::benign::http_get(&mut rng),
            0,
            7,
        );
        let alerts = nids.process_capture(&packets);
        assert!(alerts.is_empty());
        assert_eq!(nids.stats().suspicious_packets, 0);
        assert_eq!(nids.stats().flows_analyzed, 0);
    }

    /// Table 3 shape in miniature: a capture with planted Code Red II
    /// instances; every instance is classified and matched.
    #[test]
    fn codered_capture_all_instances_found() {
        let plan = AddressPlan::default();
        let mut rng = StdRng::seed_from_u64(7);
        let (packets, truth) = codered_capture(&mut rng, &plan, 3000, 4);
        let mut nids = Nids::new(plan_config(&plan));
        let alerts = nids.process_capture(&packets);
        let crii: Vec<_> = alerts
            .iter()
            .filter(|a| a.template == "code-red-ii")
            .collect();
        let mut sources: Vec<_> = crii.iter().map(|a| a.src).collect();
        sources.sort_unstable();
        sources.dedup();
        assert_eq!(
            sources.len(),
            truth.crii_sources.len(),
            "every planted instance must alert: {alerts:?}"
        );
        for s in &truth.crii_sources {
            assert!(sources.contains(s), "missed source {s}");
        }
    }

    /// `finish` ends a capture, not the pipeline: a second capture through
    /// the same `Nids` alerts the same way, and the ledger keeps counting
    /// and balancing across both.
    #[test]
    fn finish_leaves_the_pipeline_reusable() {
        let plan = AddressPlan::default();
        let mut rng = StdRng::seed_from_u64(7);
        let (packets, _) = codered_capture(&mut rng, &plan, 600, 2);
        let mut nids = Nids::new(plan_config(&plan));
        let first = nids.process_capture(&packets);
        let second = nids.process_capture(&packets);
        assert!(!first.is_empty());
        assert_eq!(first.len(), second.len());
        let s = nids.stats();
        assert_eq!(s.packets, 2 * packets.len() as u64);
        assert!(s.packet_ledger_balanced(), "{}", s.drop_report());
        assert_eq!(nids.budget().tracked(), 0);
    }

    /// §5.4 shape in miniature: classification disabled, benign corpus,
    /// zero alerts.
    #[test]
    fn fp_study_miniature() {
        let mut rng = StdRng::seed_from_u64(8);
        let config = NidsConfig {
            classification_enabled: false,
            ..NidsConfig::default()
        };
        let mut nids = Nids::new(config);
        let corpus = snids_gen::traces::benign_corpus(&mut rng, 128 * 1024);
        let src = Ipv4Addr::new(10, 1, 1, 1);
        let dst = Ipv4Addr::new(10, 1, 1, 2);
        let mut all = Vec::new();
        for (i, payload) in corpus.iter().enumerate() {
            all.extend(tcp_flow_packets(
                src,
                dst,
                10_000 + i as u16,
                80,
                payload,
                i as u64 * 10_000,
                i as u32,
            ));
        }
        let alerts = nids.process_capture(&all);
        assert!(alerts.is_empty(), "false positives: {alerts:?}");
        assert!(nids.stats().flows_analyzed > 0, "everything was analyzed");
    }

    /// Parallel and sequential analysis agree.
    #[test]
    fn parallel_matches_sequential() {
        let plan = AddressPlan::default();
        let mut rng = StdRng::seed_from_u64(9);
        let (packets, _) = codered_capture(&mut rng, &plan, 1500, 3);
        let run = |parallel: bool| {
            let mut nids = Nids::new(NidsConfig {
                parallel,
                ..plan_config(&plan)
            });
            let mut alerts = nids.process_capture(&packets);
            alerts.sort_by(|a, b| (a.src, a.template, a.start).cmp(&(b.src, b.template, b.start)));
            alerts
        };
        assert_eq!(run(true), run(false));
    }

    /// The alert stream is byte-identical at every worker count — the
    /// pool's ordered gather plus the final sort make thread scheduling
    /// unobservable. No post-hoc sorting here: the pipeline's own output
    /// must already be stable.
    #[test]
    fn alerts_identical_across_worker_counts() {
        let plan = AddressPlan::default();
        let mut rng = StdRng::seed_from_u64(11);
        let (mut packets, _) = codered_capture(&mut rng, &plan, 2000, 4);
        // Two exploit flows from ONE source to different victims: their
        // alerts tie on (src, template), so only a total ordering of the
        // output keeps hash-order flow draining unobservable. This is the
        // regression shape the throughput bench's byte-identity gate
        // caught.
        let repeat_attacker = Ipv4Addr::new(198, 18, 99, 99);
        let exploit = SCENARIOS[0].build_payload(&mut rng);
        packets.push(
            snids_packet::PacketBuilder::new(repeat_attacker, plan.honeypots[0])
                .at(50)
                .tcp_syn(4100, 21, 1)
                .unwrap(),
        );
        for (dst, port, isn) in [
            (plan.web_server, 4101u16, 0x51),
            (plan.mail_server, 4102, 0x52),
        ] {
            packets.extend(tcp_flow_packets(
                repeat_attacker,
                dst,
                port,
                21,
                &exploit,
                400,
                isn,
            ));
        }
        let run = |threads: usize| {
            let mut nids = Nids::new(NidsConfig {
                threads,
                ..plan_config(&plan)
            });
            let alerts = nids.process_capture(&packets);
            assert_eq!(nids.analysis_threads(), threads);
            alerts
                .iter()
                .map(|a| a.render())
                .collect::<Vec<_>>()
                .join("\n")
        };
        let one = run(1);
        assert!(!one.is_empty());
        assert_eq!(one, run(2), "2 workers must render identical alerts");
        assert_eq!(one, run(4), "4 workers must render identical alerts");
    }

    /// A poisoned flow panics mid-analysis; the pool contains it, the
    /// other flows still alert, the ledger attributes the loss, and the
    /// process survives — at several worker counts.
    #[test]
    fn panicking_flow_is_contained_and_attributed() {
        let plan = AddressPlan::default();
        let mut rng = StdRng::seed_from_u64(13);
        let attacker = Ipv4Addr::new(198, 18, 7, 7);
        let poisoner = Ipv4Addr::new(198, 18, 8, 8);
        let marker = b"CHAOS-PANIC-MARKER".to_vec();
        let exploit = SCENARIOS[0].build_payload(&mut rng);

        for threads in [1usize, 2, 4] {
            let mut nids = Nids::new(NidsConfig {
                chaos_analysis_panic_marker: Some(marker.clone()),
                threads,
                ..plan_config(&plan)
            });
            // Both sources probe a honeypot so their flows reach analysis.
            for (src, port) in [(attacker, 4001u16), (poisoner, 4002)] {
                let probe = snids_packet::PacketBuilder::new(src, plan.honeypots[0])
                    .at(100)
                    .tcp_syn(port, 21, 1)
                    .unwrap();
                nids.process_packet(&probe);
            }
            for p in tcp_flow_packets(attacker, plan.web_server, 4001, 21, &exploit, 200, 0x42) {
                nids.process_packet(&p);
            }
            let mut poisoned = marker.clone();
            poisoned.extend_from_slice(&exploit);
            for p in tcp_flow_packets(poisoner, plan.web_server, 4002, 21, &poisoned, 300, 0x43) {
                nids.process_packet(&p);
            }
            let alerts = nids.finish();
            assert!(
                alerts.iter().any(|a| a.src == attacker),
                "threads={threads}: healthy flow must still alert: {alerts:?}"
            );
            assert!(
                alerts.iter().all(|a| a.src != poisoner),
                "threads={threads}: poisoned flow cannot alert"
            );
            let s = nids.stats();
            assert_eq!(
                s.drops.get(DropReason::AnalysisPanicked),
                1,
                "threads={threads}: the poisoned flow must be attributed"
            );
            assert!(s.packet_ledger_balanced(), "threads={threads}");
        }
    }

    /// Sweep-budget exhaustion is attributed per frame as decoder_bailout.
    #[test]
    fn sweep_exhaustion_counts_decoder_bailout() {
        let mut nids = Nids::with_defaults();
        // A long stretch of single-byte instructions blows a tiny budget.
        let blob = vec![0x90u8; 4096];
        nids.analyzer = Analyzer::default().with_config(snids_semantic::AnalyzerConfig {
            sweep_budget: snids_x86::SweepBudget {
                max_instructions: 64,
                max_bytes: 64,
            },
            ..snids_semantic::AnalyzerConfig::default()
        });
        nids.analyze_payload(&blob);
        assert!(
            nids.stats().drops.get(DropReason::DecoderBailout) >= 1,
            "{:?}",
            nids.stats().drops
        );
        assert!(nids.stats().frames_extracted >= 1);
    }

    /// Streaming mode: poll() surfaces alerts for idle flows while the
    /// capture is still being fed, and finish() drains the rest.
    #[test]
    fn streaming_poll_yields_alerts_incrementally() {
        let plan = AddressPlan::default();
        let mut rng = StdRng::seed_from_u64(21);
        let mut config = plan_config(&plan);
        config.flow_table.idle_timeout_micros = 10_000;
        let mut nids = Nids::new(config);

        let attacker = Ipv4Addr::new(198, 18, 3, 3);
        let payload = SCENARIOS[0].build_payload(&mut rng);
        let probe = snids_packet::PacketBuilder::new(attacker, plan.honeypots[0])
            .at(0)
            .tcp_syn(4000, 21, 1)
            .unwrap();
        nids.process_packet(&probe);
        for p in tcp_flow_packets(attacker, plan.web_server, 4001, 21, &payload, 100, 9) {
            nids.process_packet(&p);
        }
        // Nothing has expired yet.
        assert!(nids.poll(5_000).is_empty());
        // Well past the idle horizon: the exploit flow is analyzed.
        let alerts = nids.poll(10_000_000);
        assert!(
            alerts.iter().any(|a| a.template == "linux-shell-spawn"),
            "{alerts:?}"
        );
        // And finish() has nothing left to say about that flow.
        assert!(nids.finish().is_empty());
    }

    /// With observability on, the stage metrics, exposition pages and the
    /// flight recorder all see the honeypot exploit end to end.
    #[test]
    fn observability_captures_the_pipeline() {
        let plan = AddressPlan::default();
        let mut config = plan_config(&plan);
        config.observability = true;
        let mut nids = Nids::new(config);
        let mut rng = StdRng::seed_from_u64(5);
        let attacker = Ipv4Addr::new(198, 18, 7, 7);

        let payload = SCENARIOS[0].build_payload(&mut rng);
        let probe = snids_packet::PacketBuilder::new(attacker, plan.honeypots[0])
            .at(100)
            .tcp_syn(4000, 21, 1)
            .unwrap();
        let mut capture = vec![probe];
        capture.extend(tcp_flow_packets(
            attacker,
            plan.web_server,
            4001,
            21,
            &payload,
            200,
            0x42,
        ));
        let alerts = nids.process_capture(&capture);
        assert!(!alerts.is_empty());

        // Every ingested packet is a Capture-stage event, exactly once.
        let snap = nids.obs_snapshot();
        assert!(snap.enabled);
        let cap = snap
            .stages
            .iter()
            .find(|s| s.stage == Stage::Capture)
            .expect("capture stage");
        assert_eq!(cap.events, nids.stats().packets);
        assert_eq!(cap.count, nids.stats().packets);
        // Quantiles are log2-bucket upper bounds: monotone in rank, though
        // p99 may overshoot the exact max.
        assert!(cap.p50_nanos <= cap.p99_nanos && cap.max_nanos > 0);

        // Every drop reason is a row of the one drop family, rendered
        // from the ledger.
        let mut matched = 0;
        for (name, value) in &snap.named {
            let Some(reason) = name
                .strip_prefix("snids_drops_total{reason=\"")
                .and_then(|rest| rest.strip_suffix("\"}"))
            else {
                continue;
            };
            let ledger = DropReason::ALL
                .iter()
                .find(|r| r.name() == reason)
                .map(|r| nids.stats().drops.get(*r));
            assert_eq!(Some(*value), ledger, "{name}");
            matched += 1;
        }
        assert_eq!(matched, DropReason::ALL.len());

        // Both exposition formats render and are deterministic.
        let page = nids.metrics_page();
        assert!(page.contains("snids_stage_events_total{stage=\"capture\"}"));
        assert!(page.contains("snids_pool_threads"));
        assert_eq!(page, nids.metrics_page());
        let json = nids.metrics_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json, nids.metrics_json());

        // The alert triggered a flight-recorder dump naming the victim.
        assert!(!nids.flight_dumps().is_empty());
        let dump = &nids.flight_dumps()[0];
        assert!(dump.contains("alert"), "{dump}");
        assert!(dump.contains(&plan.web_server.to_string()), "{dump}");
    }

    /// Alert dumps come from one copy of the flight ring per
    /// `finalize_alerts`, however many alerting flows there are; a copy
    /// per distinct flow made the dump loop quadratic.
    #[test]
    fn finalize_alerts_copies_the_flight_ring_at_most_once() {
        let plan = AddressPlan::default();
        let mut config = plan_config(&plan);
        config.observability = true;
        config.threads = 1;
        let mut nids = Nids::new(config);
        for packet in snids_gen::corpus::polymorphic_storm(2006, 200, 100) {
            nids.process_packet(&packet);
        }
        let before = nids.obs().recorder().copies();
        let alerts = nids.finish();
        assert!(alerts.len() > MAX_FLIGHT_DUMPS, "{} alerts", alerts.len());
        assert_eq!(nids.flight_dumps().len(), MAX_FLIGHT_DUMPS);
        assert!(nids.obs().recorder().copies() - before <= 1);
    }

    /// Panic dumps share the alert dumps' indexed path: however many flows
    /// panic in one `analyze_flows`, the flight ring is copied at most
    /// once, and each dump still ends in the flow's dropped trail.
    #[test]
    fn panicked_flows_copy_the_flight_ring_at_most_once() {
        let plan = AddressPlan::default();
        let marker = b"CHAOS-PANIC-MARKER".to_vec();
        let mut config = plan_config(&plan);
        config.observability = true;
        config.threads = 1;
        config.chaos_analysis_panic_marker = Some(marker.clone());
        let mut nids = Nids::new(config);
        let mut poisoned = marker.clone();
        poisoned.extend_from_slice(&SCENARIOS[0].build_payload(&mut StdRng::seed_from_u64(13)));
        for (i, src) in [Ipv4Addr::new(198, 18, 8, 8), Ipv4Addr::new(198, 18, 9, 9)]
            .into_iter()
            .enumerate()
        {
            let port = 4002 + i as u16;
            let probe = snids_packet::PacketBuilder::new(src, plan.honeypots[0])
                .at(100)
                .tcp_syn(port, 21, 1)
                .unwrap();
            nids.process_packet(&probe);
            for p in tcp_flow_packets(src, plan.web_server, port, 21, &poisoned, 300, 0x43) {
                nids.process_packet(&p);
            }
        }
        let before = nids.obs().recorder().copies();
        assert!(nids.finish().is_empty());
        assert_eq!(nids.stats().drops.get(DropReason::AnalysisPanicked), 2);
        assert!(nids.obs().recorder().copies() - before <= 1);
        let dumps = nids.flight_dumps();
        assert_eq!(dumps.len(), 2, "{dumps:?}");
        for dump in dumps {
            assert!(dump.starts_with("flight[analysis_panicked]"), "{dump}");
            let last = dump.lines().last().unwrap_or_default();
            assert!(last.starts_with("  stage-nanos[outcome=dropped]"), "{dump}");
        }
    }

    /// With analyze-on-evict off, every victim the table hands back is the
    /// end of its flow: it settles as dropped with its front-half time,
    /// and its flight dump ends in that trail.
    #[test]
    fn unanalyzed_victims_settle_dropped_with_their_front_half_time() {
        let plan = AddressPlan::default();
        let mut config = plan_config(&plan);
        config.observability = true;
        config.analyze_on_evict = false;
        config.flow_table.max_flows = 1;
        let mut nids = Nids::new(config);
        let scanner = Ipv4Addr::new(198, 18, 7, 7);
        for port in [1000u16, 1001, 1002] {
            let probe = snids_packet::PacketBuilder::new(scanner, plan.honeypots[0])
                .at(100 + u64::from(port))
                .tcp_syn(4000 + port, port, 1)
                .unwrap();
            nids.process_packet(&probe);
        }
        nids.finish();
        // Both victims were shed by the count cap and not analyzed.
        let s = nids.stats();
        assert_eq!(nids.front.flows.evicted(), 2);
        assert_eq!(
            [
                DropReason::ShedAnalyzed,
                DropReason::ShedUnanalyzed,
                DropReason::FlowEvicted
            ]
            .map(|r| s.drops.get(r)),
            [0, 0, 2]
        );
        let snap = nids.obs_snapshot();
        assert_eq!(snap.flow_tracked, 3, "two victims and one analyzed flow");
        let dropped = |stage| {
            snap.flow_latency
                .iter()
                .find(|f| f.stage == stage && f.outcome == snids_obs::FlowOutcome::Dropped)
                .map_or(0, |f| f.count)
        };
        assert_eq!(dropped(Stage::Reassembly), 2);
        assert_eq!(dropped(Stage::Prefilter), 2);
        let dumps = nids.flight_dumps();
        assert_eq!(dumps.len(), 2, "{dumps:?}");
        for dump in dumps {
            assert!(dump.starts_with("flight[flow_evicted]"), "{dump}");
            let last = dump.lines().last().unwrap_or_default();
            assert!(last.starts_with("  stage-nanos[outcome=dropped]"), "{dump}");
        }
    }

    /// When observability is off (the default), no stage events accrue and
    /// the recorder stays empty — the disabled path really is inert.
    #[test]
    fn disabled_observability_records_nothing() {
        let plan = AddressPlan::default();
        let mut config = plan_config(&plan);
        config.observability = false;
        let mut nids = Nids::new(config);
        let mut rng = StdRng::seed_from_u64(5);
        let attacker = Ipv4Addr::new(198, 18, 7, 7);
        let payload = SCENARIOS[0].build_payload(&mut rng);
        let capture = tcp_flow_packets(attacker, plan.web_server, 4001, 21, &payload, 200, 0x42);
        nids.process_capture(&capture);

        let snap = nids.obs().snapshot();
        assert!(!snap.enabled);
        assert!(snap.stages.iter().all(|s| s.events == 0));
        assert_eq!(snap.recorder_recorded, 0);
        assert!(nids.flight_dumps().is_empty());
    }

    /// A whole-segment garbage retransmit under last-wins leaves zero
    /// real exploit bytes in the assembled view — the fast matcher alone
    /// goes blind (the seed behavior, reproduced by `DataflowMode::Off`).
    /// The near-miss dataflow pass analyzes the retained losing copy of
    /// the divergent overlap and recovers the detection.
    #[test]
    fn dataflow_near_miss_recovers_desynced_flow() {
        let plan = AddressPlan::default();
        let mut rng = StdRng::seed_from_u64(17);
        let attacker = Ipv4Addr::new(198, 18, 5, 5);
        let exploit = SCENARIOS[0].build_payload(&mut rng);
        let garbage: Vec<u8> = exploit.iter().map(|x| x.wrapping_add(0x55)).collect();
        let run = |mode: snids_semantic::DataflowMode| {
            let mut config = plan_config(&plan);
            config.flow_table.overlap_policy = snids_flow::OverlapPolicy::LastWins;
            config.dataflow = mode;
            let mut nids = Nids::new(config);
            let probe = snids_packet::PacketBuilder::new(attacker, plan.honeypots[0])
                .at(100)
                .tcp_syn(4000, 21, 1)
                .unwrap();
            let b = snids_packet::PacketBuilder::new(attacker, plan.web_server);
            let syn = b.clone().at(200).tcp_syn(4001, 21, 1).unwrap();
            let real = b
                .clone()
                .at(201)
                .tcp(4001, 21, 2, 0, snids_packet::TcpFlags::ACK, &exploit)
                .unwrap();
            // Same range retransmitted with garbage: last-wins believes it.
            let fake = b
                .clone()
                .at(202)
                .tcp(4001, 21, 2, 0, snids_packet::TcpFlags::ACK, &garbage)
                .unwrap();
            let alerts = nids.process_capture(&[probe, syn, real, fake]);
            assert!(nids.stats().overlap_conflict_bytes > 0);
            alerts
        };
        let missed = run(snids_semantic::DataflowMode::Off);
        assert!(
            missed.iter().all(|a| a.src != attacker),
            "seed behavior: the assembled view is all garbage: {missed:?}"
        );
        let recovered = run(snids_semantic::DataflowMode::NearMiss);
        assert!(
            recovered.iter().any(|a| a.src == attacker),
            "near-miss pass must recover the losing copy: {recovered:?}"
        );
    }

    /// A tight memory budget sheds cold suspicious flows under a flood,
    /// victims are analyzed on the way out (a planted exploit that was
    /// shed mid-run still alerts), the peak stays under the ceiling, and
    /// the budget drains back to zero after finish.
    #[test]
    fn governor_sheds_analyzes_victims_and_balances_budget() {
        let plan = AddressPlan::default();
        let mut rng = StdRng::seed_from_u64(21);
        let attacker = Ipv4Addr::new(198, 18, 7, 7);
        let exploit = SCENARIOS[0].build_payload(&mut rng);
        let mut config = plan_config(&plan);
        config.memory_budget = 48 * 1024;
        config.flow_table.max_flows = 4096;
        // The flood is benign text from suspicious sources — exactly what
        // the pre-filter rejects. This test exercises the governor's
        // shedding, so the gate must stay out of the way.
        config.prefilter = false;
        let mut nids = Nids::new(config);

        // The planted exploit completes first, cold, before the flood.
        let mut capture = vec![
            snids_packet::PacketBuilder::new(attacker, plan.honeypots[0])
                .at(50)
                .tcp_syn(3999, 21, 1)
                .unwrap(),
        ];
        capture.extend(tcp_flow_packets(
            attacker,
            plan.web_server,
            4000,
            21,
            &exploit,
            100,
            0x42,
        ));
        // Then a flood of suspicious sources each parks ~1 KiB of benign
        // stream state, overrunning the 48 KiB ceiling many times over.
        let filler: Vec<u8> = b"GET /overload HTTP/1.0\r\n\r\n"
            .iter()
            .copied()
            .cycle()
            .take(1024)
            .collect();
        for i in 0..256u32 {
            let src = Ipv4Addr::new(198, 19, (i >> 8) as u8, (i & 0xff) as u8);
            let t = 10_000 + u64::from(i) * 100;
            capture.push(
                snids_packet::PacketBuilder::new(src, plan.honeypots[0])
                    .at(t)
                    .tcp_syn(5000, 21, 1)
                    .unwrap(),
            );
            capture.extend(tcp_flow_packets(
                src,
                plan.web_server,
                5001,
                80,
                &filler,
                t + 1,
                i,
            ));
        }
        let alerts = nids.process_capture(&capture);
        let s = nids.stats();
        assert!(
            s.drops.get(DropReason::ShedAnalyzed) > 0,
            "{}",
            s.drop_report()
        );
        // The byte budget (the count cap is out of reach) shed the
        // victims, and each was analyzed.
        let evicted = nids.front.flows.evicted();
        assert_eq!(
            [
                DropReason::ShedAnalyzed,
                DropReason::ShedUnanalyzed,
                DropReason::FlowEvicted
            ]
            .map(|r| s.drops.get(r)),
            [evicted, 0, 0]
        );
        assert!(s.peak_tracked_bytes > 0);
        assert!(
            s.peak_tracked_bytes <= 48 * 1024,
            "peak {} exceeded the 48 KiB ceiling",
            s.peak_tracked_bytes
        );
        assert_eq!(nids.budget().tracked(), 0, "budget must drain to zero");
        assert!(s.drop_report().contains("budget: peak_tracked="));
        assert!(
            alerts
                .iter()
                .any(|a| a.src == attacker && a.template == "linux-shell-spawn"),
            "a shed victim must still be analyzed on the way out: {alerts:?}"
        );
    }

    /// With the governor armed but never pressured, the output is
    /// identical to an unlimited run — accounting alone must not perturb
    /// detection.
    #[test]
    fn idle_governor_is_output_invisible() {
        let plan = AddressPlan::default();
        let mut rng = StdRng::seed_from_u64(23);
        let (packets, _) = codered_capture(&mut rng, &plan, 2000, 3);
        let run = |budget: u64| {
            let mut config = plan_config(&plan);
            config.memory_budget = budget;
            let mut nids = Nids::new(config);
            let alerts = nids.process_capture(&packets);
            assert_eq!(nids.stats().drops.get(DropReason::ShedAnalyzed), 0);
            assert_eq!(nids.stats().drops.get(DropReason::ShedUnanalyzed), 0);
            alerts
        };
        assert_eq!(run(0), run(1 << 30));
    }

    /// The direct payload path works for standalone binaries.
    #[test]
    fn standalone_binary_analysis() {
        let mut nids = Nids::with_defaults();
        let mut rng = StdRng::seed_from_u64(10);
        let blob = snids_gen::binaries::netsky_like(&mut rng, 8 * 1024);
        assert!(nids.analyze_payload(&blob).is_empty());
        let sc = snids_gen::shellcode::execve_variant(&mut rng, 0);
        let (exploit, _) = snids_gen::OverflowExploit::new(sc).build(&mut rng);
        assert!(!nids.analyze_payload(&exploit).is_empty());
    }
}
