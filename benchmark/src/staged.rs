//! The staged driver: the engine's packet path replayed from this file,
//! one timed call into each layer's public functions at a time — no
//! ledger, no obs registry, no flight events — so that every nanosecond
//! lands in exactly one layer's span or in the driver's own glue.
//!
//! The order of calls is `Nids::process_packet`'s and `Nids::finish`'s
//! (checksum → defragment → classify → pre-filter → track → analyze shed
//! victims; drain → analyze → order and dedup alerts), including the
//! governor's feedback (alerting sources are protected from shedding), so
//! the alert stream and the counts must equal the engine's. The one
//! re-ordering is harmless: parsing and checksum verification are
//! stateless, so they run as whole-chunk stages ahead of the per-packet
//! loop and get real, contiguous spans.

use crate::measure::summarize_alerts;
use crate::trace::{Name, Recorder, NO_PARENT};
use crate::workloads::Capture;
use snids_classify::{DarkSpaceMonitor, HoneypotRegistry, Subnet, TrafficClassifier};
use snids_core::{Alert, DataflowMode, NidsConfig};
use snids_extract::{BinaryExtractor, BinaryFrame};
use snids_flow::{
    DefragConfig, DefragOutcome, Defragmenter, Flow, FlowKey, FlowTable, MemoryBudget,
};
use snids_packet::{Ipv4Header, Packet, PcapReader, TcpHeader, ETHERNET_HEADER_LEN};
use snids_prefilter::{Decision, Prefilter, PrefilterConfig};
use snids_semantic::Analyzer;
use snids_x86::{linear_sweep_budgeted, SweepBudget};
use std::collections::{BTreeSet, HashSet};
use std::hash::Hasher;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

/// Packets per front-half chunk (one span per layer per chunk).
pub const CHUNK: usize = 1024;

/// Busy nanoseconds and work counts per layer, summed over one replay.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `PcapReader::next_record` + `PcapRecord::decode`.
    pub parse_nanos: u64,
    /// Records read.
    pub records: u64,
    /// Records that did not decode plus packets that failed a checksum.
    pub packet_errors: u64,
    /// `Ipv4Header::verify_checksum` + `TcpHeader::verify_checksum`.
    pub checksum_nanos: u64,
    /// `Defragmenter::ingest` + `drain_incomplete`.
    pub defrag_nanos: u64,
    /// Fragments ingested.
    pub fragments: u64,
    /// `TrafficClassifier::classify`.
    pub classify_nanos: u64,
    /// Packets classified.
    pub classified: u64,
    /// Packets classified suspicious.
    pub suspicious: u64,
    /// `Prefilter::decide` (with the flow lookup that feeds it).
    pub prefilter_nanos: u64,
    /// Packets the pre-filter decided.
    pub prefilter_calls: u64,
    /// Packets the pre-filter rejected.
    pub prefilter_rejected: u64,
    /// `FlowTable::process_tracked` + `take_shed` + `drain`.
    pub track_nanos: u64,
    /// Packets tracked.
    pub tracked: u64,
    /// Most flows live in the table at once.
    pub peak_live: u64,
    /// Flows shed by the count cap or the byte budget.
    pub shed: u64,
    /// Divergent-overlap bytes the reassembler saw.
    pub conflict_bytes: u64,
    /// High-water mark of budget-tracked bytes.
    pub peak_tracked_bytes: u64,
    /// `BinaryExtractor::extract`.
    pub extract_nanos: u64,
    /// Reassembled payload bytes handed to extraction.
    pub extract_bytes: u64,
    /// Flows analyzed.
    pub flows: u64,
    /// Frames extracted (the first-pass frames the engine's ledger counts).
    pub frames: u64,
    /// Bytes in those frames.
    pub frame_bytes: u64,
    /// Start discovery (`StageTiming::decode_nanos`).
    pub x86_nanos: u64,
    /// Trace building (`StageTiming::lift_nanos`).
    pub lift_nanos: u64,
    /// Template unification (`StageTiming::match_nanos`).
    pub match_nanos: u64,
    /// Frames with at least one template match.
    pub frames_matched: u64,
    /// Frames whose sweep budget or byte cap fired.
    pub bailouts: u64,
    /// The dataflow second pass.
    pub dataflow_nanos: u64,
    /// Flows that took the second pass.
    pub dataflow_flows: u64,
    /// Instructions `linear_sweep_budgeted` finds in the analyzed frames.
    pub insns: u64,
    /// `linear_sweep_budgeted` alone over the same frames (cross-check).
    pub sweep_nanos: u64,
    /// Frames whose bytes equal an earlier frame's in this replay.
    pub dup_frames: u64,
    /// Alerts after ordering and dedup.
    pub alerts: u64,
}

impl Layers {
    /// Nanoseconds spent inside layers (everything but the driver's glue
    /// and the tracing bookkeeping).
    pub fn busy_nanos(&self) -> u64 {
        self.parse_nanos
            + self.checksum_nanos
            + self.defrag_nanos
            + self.classify_nanos
            + self.prefilter_nanos
            + self.track_nanos
            + self.extract_nanos
            + self.x86_nanos
            + self.lift_nanos
            + self.match_nanos
            + self.dataflow_nanos
    }
}

/// What one staged replay produced.
pub struct Replay {
    /// Per-layer busy time and counts.
    pub layers: Layers,
    /// Wall seconds of the whole replay, bookkeeping included.
    pub wall_s: f64,
    /// Digest of the rendered alert stream (must equal the engine's).
    pub alerts_digest: u64,
    /// Sources that raised at least one alert.
    pub alerted: BTreeSet<Ipv4Addr>,
}

/// A clock read once per layer boundary: each lap charges the time since
/// the previous read to one layer.
struct LapClock {
    mark: Instant,
}

impl LapClock {
    fn start() -> LapClock {
        LapClock {
            mark: Instant::now(),
        }
    }

    fn lap(&mut self, slot: &mut u64) {
        let now = Instant::now();
        *slot += (now - self.mark).as_nanos() as u64;
        self.mark = now;
    }
}

/// The engine's stages as plain values, wired the way `Nids::new` wires
/// them.
struct Stages {
    classifier: TrafficClassifier,
    prefilter: Option<Prefilter>,
    flows: FlowTable,
    defrag: Defragmenter,
    budget: Arc<MemoryBudget>,
    extractor: BinaryExtractor,
    analyzer: Analyzer,
    verify_checksums: bool,
    max_frame_bytes: usize,
    dataflow: DataflowMode,
    analyze_on_evict: bool,
    pending_alerts: Vec<Alert>,
    seen_frames: HashSet<u64>,
    flow_ordinal: u32,
    layers: Layers,
}

impl Stages {
    fn new(config: &NidsConfig) -> Stages {
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
        let mut flow_config = config.flow_table.clone();
        flow_config.hand_off_shed = config.analyze_on_evict;
        Stages {
            classifier,
            prefilter: config.prefilter.then(|| {
                Prefilter::new(PrefilterConfig::deployment_rules(
                    &config.honeypots,
                    &config.dark_nets,
                ))
            }),
            flows: FlowTable::with_budget(flow_config, Arc::clone(&budget)),
            defrag: Defragmenter::with_budget(DefragConfig::default(), Arc::clone(&budget)),
            budget,
            extractor: BinaryExtractor::new(config.extractor.clone()),
            analyzer: Analyzer::new(config.templates.clone()),
            verify_checksums: config.verify_checksums,
            max_frame_bytes: config.max_frame_bytes.max(1),
            dataflow: config.dataflow,
            analyze_on_evict: config.analyze_on_evict,
            pending_alerts: Vec::new(),
            seen_frames: HashSet::new(),
            flow_ordinal: 0,
            layers: Layers::default(),
        }
    }

    /// `Nids::fails_checksum`: the IPv4 header on every IP packet, the TCP
    /// checksum on unfragmented segments.
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
            return !TcpHeader::verify_checksum(ip.src, ip.dst, segment);
        }
        false
    }

    /// The per-packet loop over one chunk's checksum-clean packets, under
    /// the `core.front` span `front`. The clock is read once per layer
    /// boundary and the reads are chained, so each lap charges a layer for
    /// its call plus the few instructions of loop between two reads.
    fn front(&mut self, rec: &mut Recorder, front: u32, chunk: u32, packets: &[&Packet]) {
        let before = self.layers.clone();
        let from = rec.spans()[front as usize].start;
        let mut clock = LapClock::start();
        for &original in packets {
            let mut whole = None;
            if original
                .ip()
                .is_some_and(|h| h.more_fragments || h.fragment_offset != 0)
            {
                let outcome = self.defrag.ingest(original.clone());
                self.layers.fragments += 1;
                clock.lap(&mut self.layers.defrag_nanos);
                match outcome {
                    DefragOutcome::Reassembled { packet, .. }
                    | DefragOutcome::Passthrough(packet) => whole = Some(packet),
                    DefragOutcome::Buffered | DefragOutcome::Dropped(_) => continue,
                }
            }
            let packet = whole.as_ref().unwrap_or(original);

            let verdict = self.classifier.classify(packet);
            self.layers.classified += 1;
            clock.lap(&mut self.layers.classify_nanos);
            if !verdict.is_suspicious() {
                continue;
            }
            self.layers.suspicious += 1;

            if let Some(prefilter) = self.prefilter.as_mut() {
                let flow_buffered = FlowKey::of(packet)
                    .and_then(|k| self.flows.get(&k))
                    .is_some_and(|f| f.payload_bytes > 0);
                let decision = prefilter.decide(packet, flow_buffered);
                self.layers.prefilter_calls += 1;
                clock.lap(&mut self.layers.prefilter_nanos);
                if decision == Decision::Reject {
                    self.layers.prefilter_rejected += 1;
                    continue;
                }
            }

            self.flows.process_tracked(packet);
            let shed = self.flows.take_shed();
            self.layers.tracked += 1;
            self.layers.peak_live = self.layers.peak_live.max(self.flows.len() as u64);
            clock.lap(&mut self.layers.track_nanos);
            if !shed.is_empty() {
                // Analysis records real spans of its own; the lap clock
                // restarts after it.
                let flows = shed.into_iter().map(|s| s.flow).collect();
                self.analyze_shed(rec, front, flows);
                clock = LapClock::start();
            }
        }
        let l = &self.layers;
        rec.aggregates(
            front,
            from,
            chunk,
            &[
                (
                    Name::Defrag,
                    l.defrag_nanos - before.defrag_nanos,
                    (l.fragments - before.fragments) as u32,
                ),
                (
                    Name::Classify,
                    l.classify_nanos - before.classify_nanos,
                    (l.classified - before.classified) as u32,
                ),
                (
                    Name::Prefilter,
                    l.prefilter_nanos - before.prefilter_nanos,
                    (l.prefilter_calls - before.prefilter_calls) as u32,
                ),
                (
                    Name::Track,
                    l.track_nanos - before.track_nanos,
                    (l.tracked - before.tracked) as u32,
                ),
            ],
        );
    }

    /// `Nids::handle_shed`: victims are analyzed on the way out, their
    /// alerts buffered, and alerting sources protected from later sheds.
    fn analyze_shed(&mut self, rec: &mut Recorder, parent: u32, flows: Vec<Flow>) {
        if !self.analyze_on_evict {
            return;
        }
        let alerts = self.analyze_flows(rec, parent, &flows);
        for a in &alerts {
            self.flows.protect_source(a.src);
        }
        self.pending_alerts.extend(alerts);
    }

    /// `Nids::analyze_flows`, sequentially: extraction, start discovery,
    /// trace building, template matching and the dataflow second pass per
    /// flow, one `core.analyze_flow` span each.
    fn analyze_flows(&mut self, rec: &mut Recorder, parent: u32, flows: &[Flow]) -> Vec<Alert> {
        let mut alerts = Vec::new();
        for flow in flows {
            let ordinal = self.flow_ordinal;
            self.flow_ordinal += 1;
            self.layers.flows += 1;
            let t0 = Instant::now();
            let span = rec.open(Name::AnalyzeFlow, t0, parent, ordinal);

            let payload = flow.payload();
            let frames = self.extractor.extract(&payload);
            let t1 = Instant::now();
            rec.real(Name::Extract, t0, t1, span, ordinal);
            self.layers.extract_nanos += (t1 - t0).as_nanos() as u64;
            self.layers.extract_bytes += payload.len() as u64;
            self.layers.frames += frames.len() as u64;

            let first = alerts.len();
            let (mut x86, mut lift, mut matching, mut bookkeeping) = (0u64, 0u64, 0u64, 0u64);
            for frame in &frames {
                self.layers.frame_bytes += frame.data.len() as u64;
                let data = &frame.data[..frame.data.len().min(self.max_frame_bytes)];
                let (analysis, timing) = self.analyzer.analyze_frame_timed(data);
                x86 += timing.decode_nanos;
                lift += timing.lift_nanos;
                matching += timing.match_nanos;
                if analysis.sweep_exhausted || frame.data.len() > self.max_frame_bytes {
                    self.layers.bailouts += 1;
                }
                if !analysis.matches.is_empty() {
                    self.layers.frames_matched += 1;
                }
                for m in analysis.matches {
                    alerts.push(Alert::from_match(flow, frame, m));
                }
                bookkeeping += self.frame_bookkeeping(data);
            }
            let from = rec.at(t1);
            let n = frames.len() as u32;
            rec.aggregates(
                span,
                from,
                ordinal,
                &[
                    (Name::X86, x86, n),
                    (Name::Lift, lift, n),
                    (Name::Match, matching, n),
                    (Name::Bookkeeping, bookkeeping, n),
                ],
            );
            self.layers.x86_nanos += x86;
            self.layers.lift_nanos += lift;
            self.layers.match_nanos += matching;

            let second_pass = alerts.len() == first
                && match self.dataflow {
                    DataflowMode::Off => false,
                    DataflowMode::NearMiss => flow.has_conflicts(),
                    DataflowMode::On => true,
                };
            if second_pass {
                let t2 = Instant::now();
                for frame in &frames {
                    self.slice_pass(flow, frame, false, &mut alerts);
                }
                if let Some(alt) = flow.alternate_payload() {
                    for frame in &self.extractor.extract(&alt) {
                        self.slice_pass(flow, frame, true, &mut alerts);
                    }
                }
                let t3 = Instant::now();
                rec.real(Name::Dataflow, t2, t3, span, ordinal);
                self.layers.dataflow_nanos += (t3 - t2).as_nanos() as u64;
                self.layers.dataflow_flows += 1;
            }
            rec.close(span, Instant::now());
        }
        alerts
    }

    /// The second pass over one frame: slice matching, plus the fast
    /// matcher when the frame comes from the alternative stream view.
    fn slice_pass(
        &self,
        flow: &Flow,
        frame: &BinaryFrame,
        fast_too: bool,
        alerts: &mut Vec<Alert>,
    ) {
        let data = &frame.data[..frame.data.len().min(self.max_frame_bytes)];
        if fast_too {
            for m in self.analyzer.analyze_frame(data).matches {
                alerts.push(Alert::from_match(flow, frame, m));
            }
        }
        for m in self.analyzer.analyze_frame_slices(data).matches {
            alerts.push(Alert::from_match(flow, frame, m));
        }
    }

    /// What only a traced run does with a frame: hash its bytes to find
    /// repeats, and time `linear_sweep_budgeted` alone over it as the
    /// cross-check (and instruction count) for the x86 layer. Returns the
    /// nanoseconds this took, which belong to no layer.
    fn frame_bookkeeping(&mut self, data: &[u8]) -> u64 {
        let t0 = Instant::now();
        let swept = linear_sweep_budgeted(data, &SweepBudget::default());
        let t1 = Instant::now();
        self.layers.insns += std::hint::black_box(&swept).instructions.len() as u64;
        self.layers.sweep_nanos += (t1 - t0).as_nanos() as u64;
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        hasher.write(data);
        if !self.seen_frames.insert(hasher.finish()) {
            self.layers.dup_frames += 1;
        }
        t0.elapsed().as_nanos() as u64
    }

    /// `Nids::finish`: drain what is still buffered, analyze it, and put
    /// the merged alerts in the engine's total order.
    fn finish(&mut self, rec: &mut Recorder, run: u32, reference: u32) -> Vec<Alert> {
        let t0 = Instant::now();
        let span = rec.open(Name::Finish, t0, run, reference);
        self.defrag.drain_incomplete();
        let t1 = Instant::now();
        self.layers.defrag_nanos += (t1 - t0).as_nanos() as u64;
        rec.real(Name::Defrag, t0, t1, span, reference);

        let shed: Vec<Flow> = self.flows.take_shed().into_iter().map(|s| s.flow).collect();
        let t2 = Instant::now();
        self.analyze_shed(rec, span, shed);
        let t3 = Instant::now();
        let flows = self.flows.drain();
        let t4 = Instant::now();
        self.layers.track_nanos += ((t2 - t1) + (t4 - t3)).as_nanos() as u64;
        rec.real(Name::Track, t3, t4, span, reference);

        let mut alerts = std::mem::take(&mut self.pending_alerts);
        alerts.extend(self.analyze_flows(rec, span, &flows));
        alerts.sort_by_key(|a| (a.src, a.template, a.start, a.dst, a.dst_port));
        alerts.dedup_by(|a, b| {
            a.src == b.src
                && a.template == b.template
                && a.start == b.start
                && a.dst == b.dst
                && a.dst_port == b.dst_port
        });
        self.layers.alerts = alerts.len() as u64;
        self.layers.shed = self.flows.evicted();
        self.layers.conflict_bytes = self.flows.overlap_conflict_bytes();
        self.layers.peak_tracked_bytes = self.budget.peak();
        rec.close(span, Instant::now());
        alerts
    }
}

/// Replay the capture through the staged driver, recording spans.
pub fn replay(capture: &Capture, rec: &mut Recorder) -> Replay {
    let start = Instant::now();
    let mut stages = Stages::new(&capture.config);
    let run = rec.open(Name::Run, start, NO_PARENT, 0);
    let mut reader =
        PcapReader::new(&capture.pcap[..]).expect("the generator wrote a valid pcap header");
    let mut chunk_index = 0u32;
    let mut packets: Vec<Packet> = Vec::with_capacity(CHUNK);
    loop {
        let t0 = Instant::now();
        packets.clear();
        let mut end_of_capture = false;
        while packets.len() < CHUNK {
            match reader.next_record() {
                Ok(Some(record)) => {
                    stages.layers.records += 1;
                    match record.decode() {
                        Ok(p) => packets.push(p),
                        Err(_) => stages.layers.packet_errors += 1,
                    }
                }
                Ok(None) | Err(_) => {
                    end_of_capture = true;
                    break;
                }
            }
        }
        let t1 = Instant::now();
        if packets.is_empty() {
            break;
        }
        let chunk = rec.open(Name::Chunk, t0, run, chunk_index);
        rec.real(Name::Parse, t0, t1, chunk, chunk_index);
        stages.layers.parse_nanos += (t1 - t0).as_nanos() as u64;

        let clean: Vec<&Packet> = packets
            .iter()
            .filter(|p| !stages.fails_checksum(p))
            .collect();
        let t2 = Instant::now();
        rec.real(Name::Checksum, t1, t2, chunk, chunk_index);
        stages.layers.checksum_nanos += (t2 - t1).as_nanos() as u64;
        stages.layers.packet_errors += (packets.len() - clean.len()) as u64;

        let front = rec.open(Name::Front, t2, chunk, chunk_index);
        stages.front(rec, front, chunk_index, &clean);
        let t3 = Instant::now();
        rec.close(front, t3);
        rec.close(chunk, t3);
        chunk_index += 1;
        if end_of_capture {
            break;
        }
    }
    let alerts = stages.finish(rec, run, chunk_index);
    let end = Instant::now();
    rec.close(run, end);

    let (alerts_digest, alerted) = summarize_alerts(&alerts);
    Replay {
        layers: stages.layers,
        wall_s: (end - start).as_secs_f64(),
        alerts_digest,
        alerted,
    }
}
