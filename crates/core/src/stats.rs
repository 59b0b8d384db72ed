//! Pipeline counters and per-stage timing (feeds the Figure-3 stage
//! breakdown experiment), plus per-stage drop accounting: every input the
//! pipeline discards is attributed to exactly one [`DropReason`], so
//! `records_in` and `packets` always balance against `processed` + drops.

use serde::{Deserialize, Serialize};
use snids_packet::ReadStats;

/// Every way the pipeline can discard input instead of analyzing it.
///
/// Reasons split into three ledgers:
///
/// * **record-level** (pcap reading): a record never became a packet;
/// * **packet-level** (checksums, defragmentation): a packet never reached
///   flow tracking — these balance `packets = processed + packet drops`;
/// * **analysis-level** (flow eviction, stream caps, decoder budgets):
///   the packet was processed but some derived state was degraded. These
///   are detection-gap warnings, not part of the packet balance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropReason {
    /// Pcap record header was hostile/corrupt (e.g. `incl_len` beyond the
    /// snap cap); the stream cannot be read past it.
    PcapRecordMalformed,
    /// Pcap stream ended mid-record.
    PcapRecordTruncated,
    /// Record read intact but the frame did not decode.
    FrameUndecodable,
    /// IPv4 or TCP checksum verification failed.
    ChecksumFailed,
    /// Fragment refused at the defragmenter's pending-table cap.
    DefragCapExceeded,
    /// Fragment (plus its datagram's buffered pieces) outgrew the
    /// maximum datagram size.
    DefragOversize,
    /// Buffered fragments discarded when their datagram timed out.
    DefragTimeout,
    /// Completed datagram failed to rebuild into a valid packet.
    DefragInvalid,
    /// Buffered fragments never completed by end of capture.
    DefragIncomplete,
    /// Flow force-evicted at the flow-table cap before analysis.
    FlowEvicted,
    /// Flow whose reassembly buffer hit the per-stream byte cap.
    StreamTruncated,
    /// Extracted frame exceeded the disassembly budget (frame byte cap or
    /// sweep-budget exhaustion); analysis of the remainder was skipped.
    DecoderBailout,
    /// Flow whose analysis task panicked. The analysis pool contained
    /// the panic — the process survives — but that flow's detection
    /// opportunity was lost.
    AnalysisPanicked,
    /// The dataflow second pass hit its work budget on a frame and
    /// returned a truncated analysis; slice matching saw only a prefix.
    DataflowExhausted,
    /// Flow shed under memory pressure but drained through the normal
    /// analysis path on the way out (analyze-on-evict): the detection
    /// opportunity was preserved, only future bytes of the flow are lost.
    ShedAnalyzed,
    /// Flow shed under memory pressure with its buffered state discarded
    /// unanalyzed — a real detection gap (the seed behavior, and the
    /// governor's last resort when hand-off is disabled).
    ShedUnanalyzed,
    /// Suspicious-classified packet rejected by the pre-filter fast path
    /// (no lane escalated it): deep analysis was skipped by design.
    /// Analysis-level — the packet was processed and counted; only the
    /// expensive tail was elided.
    PrefilterRejected,
}

impl DropReason {
    /// All reasons, in ledger order.
    pub const ALL: [DropReason; 17] = [
        DropReason::PcapRecordMalformed,
        DropReason::PcapRecordTruncated,
        DropReason::FrameUndecodable,
        DropReason::ChecksumFailed,
        DropReason::DefragCapExceeded,
        DropReason::DefragOversize,
        DropReason::DefragTimeout,
        DropReason::DefragInvalid,
        DropReason::DefragIncomplete,
        DropReason::FlowEvicted,
        DropReason::StreamTruncated,
        DropReason::DecoderBailout,
        DropReason::AnalysisPanicked,
        DropReason::DataflowExhausted,
        DropReason::ShedAnalyzed,
        DropReason::ShedUnanalyzed,
        DropReason::PrefilterRejected,
    ];

    /// Stable snake_case name (JSON key / CLI label).
    pub fn name(self) -> &'static str {
        match self {
            DropReason::PcapRecordMalformed => "pcap_record_malformed",
            DropReason::PcapRecordTruncated => "pcap_record_truncated",
            DropReason::FrameUndecodable => "frame_undecodable",
            DropReason::ChecksumFailed => "checksum_failed",
            DropReason::DefragCapExceeded => "defrag_cap_exceeded",
            DropReason::DefragOversize => "defrag_oversize",
            DropReason::DefragTimeout => "defrag_timeout",
            DropReason::DefragInvalid => "defrag_invalid",
            DropReason::DefragIncomplete => "defrag_incomplete",
            DropReason::FlowEvicted => "flow_evicted",
            DropReason::StreamTruncated => "stream_truncated",
            DropReason::DecoderBailout => "decoder_bailout",
            DropReason::AnalysisPanicked => "analysis_panicked",
            DropReason::DataflowExhausted => "dataflow_exhausted",
            DropReason::ShedAnalyzed => "shed_analyzed",
            DropReason::ShedUnanalyzed => "shed_unanalyzed",
            DropReason::PrefilterRejected => "prefilter_rejected",
        }
    }

    /// True for reasons that consume a pcap record before it becomes a
    /// packet (the `records_in` ledger).
    pub fn is_record_drop(self) -> bool {
        matches!(
            self,
            DropReason::PcapRecordMalformed
                | DropReason::PcapRecordTruncated
                | DropReason::FrameUndecodable
        )
    }

    /// True for reasons that consume a decoded packet before flow tracking
    /// (the `packets` ledger).
    pub fn is_packet_drop(self) -> bool {
        matches!(
            self,
            DropReason::ChecksumFailed
                | DropReason::DefragCapExceeded
                | DropReason::DefragOversize
                | DropReason::DefragTimeout
                | DropReason::DefragInvalid
                | DropReason::DefragIncomplete
        )
    }
}

/// One counter per [`DropReason`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DropCounters {
    counts: [u64; DropReason::ALL.len()],
}

impl DropCounters {
    /// Add one drop.
    pub fn inc(&mut self, reason: DropReason) {
        self.add(reason, 1);
    }

    /// Add `n` drops.
    pub fn add(&mut self, reason: DropReason, n: u64) {
        self.counts[reason as usize] += n;
    }

    /// Overwrite a counter with an absolute value (for syncing from a
    /// stage that keeps its own cumulative tally).
    pub fn set(&mut self, reason: DropReason, n: u64) {
        self.counts[reason as usize] = n;
    }

    /// Read one counter.
    pub fn get(&self, reason: DropReason) -> u64 {
        self.counts[reason as usize]
    }

    /// Every drop, any reason.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Drops charged against the record ledger.
    pub fn record_total(&self) -> u64 {
        DropReason::ALL
            .iter()
            .filter(|r| r.is_record_drop())
            .map(|&r| self.get(r))
            .sum()
    }

    /// Drops charged against the packet ledger.
    pub fn packet_total(&self) -> u64 {
        DropReason::ALL
            .iter()
            .filter(|r| r.is_packet_drop())
            .map(|&r| self.get(r))
            .sum()
    }

    /// Iterate `(reason, count)` pairs in ledger order.
    pub fn iter(&self) -> impl Iterator<Item = (DropReason, u64)> + '_ {
        DropReason::ALL.iter().map(move |&r| (r, self.get(r)))
    }
}

/// Fold `other`'s `(lane, rule, hits)` triples into `hits`, keeping the
/// lexical `(lane, rule)` order both sides already maintain.
fn merge_lane_hits(hits: &mut Vec<(String, String, u64)>, other: &[(String, String, u64)]) {
    for (lane, rule, n) in other {
        match hits.iter_mut().find(|(l, r, _)| l == lane && r == rule) {
            Some((_, _, slot)) => *slot += n,
            None => {
                hits.push((lane.clone(), rule.clone(), *n));
                hits.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
            }
        }
    }
}

/// Counters and stage timings for one pipeline run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineStats {
    /// Pcap records attempted (0 when packets arrived pre-decoded).
    pub records_in: u64,
    /// Packets seen.
    pub packets: u64,
    /// Packets that survived validation and defragmentation and reached
    /// the classifier (a reassembled datagram credits each of its
    /// fragments here).
    pub processed: u64,
    /// Packets classified suspicious.
    pub suspicious_packets: u64,
    /// Suspicious packets the pre-filter passed to deep analysis on their
    /// own merits (a lane fired on *this* packet: header, signature or
    /// n-gram — also counts payload-free control packets).
    pub prefilter_passed: u64,
    /// Suspicious packets escalated by stickiness: their source or flow
    /// had already looked interesting, so the gate waved them through.
    pub prefilter_escalated: u64,
    /// Suspicious packets the pre-filter rejected (mirrors
    /// `drop.prefilter_rejected`). With the gate enabled,
    /// `suspicious_packets = prefilter_passed + prefilter_escalated +
    /// prefilter_rejected`.
    pub prefilter_rejected: u64,
    /// Time in the pre-filter gate.
    pub prefilter_nanos: u64,
    /// Per-`(lane, rule)` pre-filter escalation hits, in lexical order.
    /// Cardinality is bounded by the compiled rule tables (every name is
    /// baked into the binary), never by traffic.
    pub lane_hits: Vec<(String, String, u64)>,
    /// Flows handed to the analysis tail.
    pub flows_analyzed: u64,
    /// Binary frames extracted.
    pub frames_extracted: u64,
    /// Total bytes across extracted frames.
    pub frame_bytes: u64,
    /// Alerts raised.
    pub alerts: u64,
    /// Bytes buffered by reassembly where two segment copies overlapped
    /// with *different* contents (counted whichever copy the configured
    /// [`OverlapPolicy`](snids_flow::OverlapPolicy) kept). Clean
    /// retransmits do not count; a non-zero value is the signature of a
    /// TCP desync evasion attempt. Integrity warning, not a drop: no
    /// packet or record balance includes it.
    pub overlap_conflict_bytes: u64,
    /// Per-reason drop accounting.
    pub drops: DropCounters,
    /// Configured memory-budget ceiling in bytes (0 = unlimited).
    pub memory_limit_bytes: u64,
    /// Peak bytes tracked by the memory budget over the run (stream +
    /// shadow reassembly + pending fragments). With a configured limit the
    /// governor guarantees `peak_tracked_bytes <= memory_limit_bytes`.
    pub peak_tracked_bytes: u64,
    /// Flows created with degraded caps while the budget sat at or above
    /// high water.
    pub degraded_flows: u64,
    /// Changes of the memory budget's pressure level (watermark
    /// crossings, either way).
    pub watermark_transitions: u64,
    /// Frames the dataflow second pass examined (primary and alternative
    /// stream views).
    pub dataflow_frames: u64,
    /// Flows only the dataflow second pass alerted on: detections the
    /// fast matcher alone would have missed.
    pub dataflow_recovered: u64,
    /// Flows whose retained divergent-overlap shadow gave the second pass
    /// an alternative stream view.
    pub dataflow_alt_views: u64,
    /// Time in the classifier stage.
    pub classify_nanos: u64,
    /// Time in flow tracking / reassembly.
    pub reassembly_nanos: u64,
    /// Time in extraction + disassembly + IR + matching.
    pub analysis_nanos: u64,
}

impl PipelineStats {
    /// Fraction of packets that passed the classifier.
    pub fn suspicious_ratio(&self) -> f64 {
        if self.packets == 0 {
            0.0
        } else {
            self.suspicious_packets as f64 / self.packets as f64
        }
    }

    /// Fraction of suspicious packets the pre-filter rejected (0 when the
    /// gate is off or nothing was suspicious).
    pub fn prefilter_reject_ratio(&self) -> f64 {
        let total = self.prefilter_passed + self.prefilter_escalated + self.prefilter_rejected;
        if total == 0 {
            0.0
        } else {
            self.prefilter_rejected as f64 / total as f64
        }
    }

    /// Fold a pcap reader's accounting into the record ledger.
    pub fn absorb_read_stats(&mut self, rs: &ReadStats) {
        self.records_in += rs.attempted();
        self.drops
            .add(DropReason::PcapRecordMalformed, rs.malformed_records);
        self.drops
            .add(DropReason::PcapRecordTruncated, rs.truncated_records);
        self.drops.add(DropReason::FrameUndecodable, rs.undecodable);
    }

    /// Fold another run's counters into this one (the `repro` binary
    /// aggregates per-trace stats into one integrity footer).
    pub fn merge(&mut self, other: &PipelineStats) {
        self.records_in += other.records_in;
        self.packets += other.packets;
        self.processed += other.processed;
        self.suspicious_packets += other.suspicious_packets;
        self.prefilter_passed += other.prefilter_passed;
        self.prefilter_escalated += other.prefilter_escalated;
        self.prefilter_rejected += other.prefilter_rejected;
        self.prefilter_nanos += other.prefilter_nanos;
        merge_lane_hits(&mut self.lane_hits, &other.lane_hits);
        self.flows_analyzed += other.flows_analyzed;
        self.frames_extracted += other.frames_extracted;
        self.frame_bytes += other.frame_bytes;
        self.alerts += other.alerts;
        self.overlap_conflict_bytes += other.overlap_conflict_bytes;
        // Budget figures do not sum across runs: the ceiling is a config,
        // the peak a high-water mark.
        self.memory_limit_bytes = self.memory_limit_bytes.max(other.memory_limit_bytes);
        self.peak_tracked_bytes = self.peak_tracked_bytes.max(other.peak_tracked_bytes);
        self.degraded_flows += other.degraded_flows;
        self.watermark_transitions += other.watermark_transitions;
        self.dataflow_frames += other.dataflow_frames;
        self.dataflow_recovered += other.dataflow_recovered;
        self.dataflow_alt_views += other.dataflow_alt_views;
        for (reason, n) in other.drops.iter() {
            self.drops.add(reason, n);
        }
        self.classify_nanos += other.classify_nanos;
        self.reassembly_nanos += other.reassembly_nanos;
        self.analysis_nanos += other.analysis_nanos;
    }

    /// `packets = processed + packet-level drops` — every decoded packet
    /// is either analyzed or attributed.
    pub fn packet_ledger_balanced(&self) -> bool {
        self.packets == self.processed + self.drops.packet_total()
    }

    /// `records_in = packets + record-level drops` — every pcap record is
    /// either a packet or attributed. Vacuously true when no reader fed
    /// the pipeline (`records_in == 0`).
    pub fn record_ledger_balanced(&self) -> bool {
        self.records_in == 0 || self.records_in == self.packets + self.drops.record_total()
    }

    /// Human-readable one-line summary.
    pub fn summary(&self) -> String {
        format!(
            "packets={} processed={} dropped={} suspicious={} ({:.2}%) flows={} frames={} ({} B) alerts={} | classify={:.2}ms reasm={:.2}ms analysis={:.2}ms",
            self.packets,
            self.processed,
            self.drops.total(),
            self.suspicious_packets,
            self.suspicious_ratio() * 100.0,
            self.flows_analyzed,
            self.frames_extracted,
            self.frame_bytes,
            self.alerts,
            self.classify_nanos as f64 / 1e6,
            self.reassembly_nanos as f64 / 1e6,
            self.analysis_nanos as f64 / 1e6,
        )
    }

    /// Multi-line drop report for `snids analyze --stats`; only non-zero
    /// counters are listed.
    pub fn drop_report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "records_in={} packets={} processed={} drops_total={}\n",
            self.records_in,
            self.packets,
            self.processed,
            self.drops.total()
        ));
        for (reason, n) in self.drops.iter() {
            if n > 0 {
                out.push_str(&format!("  drop.{} = {}\n", reason.name(), n));
            }
        }
        if self.overlap_conflict_bytes > 0 {
            out.push_str(&format!(
                "  integrity.overlap_conflict_bytes = {} (divergent TCP overlaps — possible desync evasion)\n",
                self.overlap_conflict_bytes
            ));
        }
        if self.memory_limit_bytes > 0 {
            out.push_str(&format!(
                "  budget: peak_tracked={} / limit={} bytes{}\n",
                self.peak_tracked_bytes,
                self.memory_limit_bytes,
                if self.peak_tracked_bytes > self.memory_limit_bytes {
                    " (EXCEEDED)"
                } else {
                    ""
                }
            ));
        }
        if self.degraded_flows > 0 {
            out.push_str(&format!(
                "  budget.degraded_flows = {} (created with reduced caps under pressure)\n",
                self.degraded_flows
            ));
        }
        if self.watermark_transitions > 0 {
            out.push_str(&format!(
                "  budget.watermark_transitions = {}\n",
                self.watermark_transitions
            ));
        }
        if self.dataflow_frames > 0 {
            out.push_str(&format!(
                "  dataflow: frames={} recovered={} alt_views={}\n",
                self.dataflow_frames, self.dataflow_recovered, self.dataflow_alt_views
            ));
        }
        if self.prefilter_passed + self.prefilter_escalated + self.prefilter_rejected > 0 {
            out.push_str(&format!(
                "  prefilter: passed={} escalated={} rejected={} (reject ratio {:.1}%)\n",
                self.prefilter_passed,
                self.prefilter_escalated,
                self.prefilter_rejected,
                self.prefilter_reject_ratio() * 100.0
            ));
            for (lane, rule, n) in &self.lane_hits {
                out.push_str(&format!(
                    "  prefilter.hits{{lane={lane},rule={rule}}} = {n}\n"
                ));
            }
        }
        out.push_str(&format!(
            "ledgers: records {} packets {}\n",
            if self.record_ledger_balanced() {
                "balanced"
            } else {
                "UNBALANCED"
            },
            if self.packet_ledger_balanced() {
                "balanced"
            } else {
                "UNBALANCED"
            },
        ));
        out
    }

    /// Serialize to a JSON object (hand-rolled; every value is a number
    /// or a nested object of them, so no escaping is needed).
    pub fn to_json(&self) -> String {
        let mut drops = String::from("{");
        for (i, (reason, n)) in self.drops.iter().enumerate() {
            if i > 0 {
                drops.push(',');
            }
            drops.push_str(&format!("\"{}\":{}", reason.name(), n));
        }
        drops.push('}');
        let mut lane_hits = String::from("[");
        for (i, (lane, rule, n)) in self.lane_hits.iter().enumerate() {
            if i > 0 {
                lane_hits.push(',');
            }
            // Lane and rule names are compiled into the binary (simple
            // identifier-shaped strings), so no escaping is needed.
            lane_hits.push_str(&format!(
                "{{\"lane\":\"{lane}\",\"rule\":\"{rule}\",\"hits\":{n}}}"
            ));
        }
        lane_hits.push(']');
        let prefilter = format!(
            "{{\"passed\":{},\"escalated\":{},\"rejected\":{},\"reject_ratio\":{:.4},\"nanos\":{},\"lane_hits\":{}}}",
            self.prefilter_passed,
            self.prefilter_escalated,
            self.prefilter_rejected,
            self.prefilter_reject_ratio(),
            self.prefilter_nanos,
            lane_hits,
        );
        format!(
            "{{\"records_in\":{},\"packets\":{},\"processed\":{},\"suspicious_packets\":{},\"flows_analyzed\":{},\"frames_extracted\":{},\"frame_bytes\":{},\"alerts\":{},\"overlap_conflict_bytes\":{},\"memory_limit_bytes\":{},\"peak_tracked_bytes\":{},\"degraded_flows\":{},\"watermark_transitions\":{},\"dataflow_frames\":{},\"dataflow_recovered\":{},\"dataflow_alt_views\":{},\"prefilter\":{},\"drops\":{},\"drops_total\":{},\"classify_nanos\":{},\"reassembly_nanos\":{},\"analysis_nanos\":{}}}",
            self.records_in,
            self.packets,
            self.processed,
            self.suspicious_packets,
            self.flows_analyzed,
            self.frames_extracted,
            self.frame_bytes,
            self.alerts,
            self.overlap_conflict_bytes,
            self.memory_limit_bytes,
            self.peak_tracked_bytes,
            self.degraded_flows,
            self.watermark_transitions,
            self.dataflow_frames,
            self.dataflow_recovered,
            self.dataflow_alt_views,
            prefilter,
            drops,
            self.drops.total(),
            self.classify_nanos,
            self.reassembly_nanos,
            self.analysis_nanos,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_and_summary() {
        let mut s = PipelineStats::default();
        assert_eq!(s.suspicious_ratio(), 0.0);
        s.packets = 200;
        s.suspicious_packets = 5;
        assert!((s.suspicious_ratio() - 0.025).abs() < 1e-12);
        let line = s.summary();
        assert!(line.contains("packets=200"));
        assert!(line.contains("2.50%"));
    }

    #[test]
    fn every_reason_has_a_distinct_name_and_ledger() {
        let mut names: Vec<&str> = DropReason::ALL.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), DropReason::ALL.len());
        for r in DropReason::ALL {
            assert!(
                !(r.is_record_drop() && r.is_packet_drop()),
                "{} charged to two ledgers",
                r.name()
            );
        }
    }

    #[test]
    fn ledgers_balance() {
        let mut s = PipelineStats::default();
        assert!(s.record_ledger_balanced());
        assert!(s.packet_ledger_balanced());

        s.absorb_read_stats(&ReadStats {
            records: 10,
            decoded: 8,
            undecodable: 2,
            truncated_records: 1,
            malformed_records: 1,
        });
        s.packets = 8;
        s.processed = 5;
        s.drops.add(DropReason::ChecksumFailed, 1);
        s.drops.add(DropReason::DefragCapExceeded, 2);
        assert_eq!(s.records_in, 12);
        assert!(s.record_ledger_balanced());
        assert!(s.packet_ledger_balanced());

        s.drops.inc(DropReason::FlowEvicted); // analysis-level: no effect
        assert!(s.packet_ledger_balanced());

        s.processed = 4;
        assert!(!s.packet_ledger_balanced());
    }

    #[test]
    fn json_contains_every_drop_counter() {
        let mut s = PipelineStats {
            packets: 3,
            ..PipelineStats::default()
        };
        s.drops.add(DropReason::DefragTimeout, 2);
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        for r in DropReason::ALL {
            assert!(j.contains(&format!("\"{}\":", r.name())), "{}", r.name());
        }
        assert!(j.contains("\"defrag_timeout\":2"));
        assert!(j.contains("\"drops_total\":2"));
        assert!(j.contains("\"overlap_conflict_bytes\":0"));
    }

    #[test]
    fn overlap_conflicts_surface_in_report_json_and_merge() {
        let mut s = PipelineStats::default();
        assert!(!s.drop_report().contains("overlap_conflict_bytes"));
        s.overlap_conflict_bytes = 37;
        assert!(s
            .drop_report()
            .contains("integrity.overlap_conflict_bytes = 37"));
        assert!(s.to_json().contains("\"overlap_conflict_bytes\":37"));
        // Conflicts are an integrity warning, not a drop: ledgers stay
        // balanced regardless.
        assert!(s.record_ledger_balanced());
        assert!(s.packet_ledger_balanced());

        let other = PipelineStats {
            overlap_conflict_bytes: 5,
            ..PipelineStats::default()
        };
        s.merge(&other);
        assert_eq!(s.overlap_conflict_bytes, 42);
    }

    #[test]
    fn budget_figures_surface_and_merge_as_maxima() {
        let mut s = PipelineStats::default();
        assert!(!s.drop_report().contains("budget:"));
        s.memory_limit_bytes = 1000;
        s.peak_tracked_bytes = 800;
        assert!(s
            .drop_report()
            .contains("budget: peak_tracked=800 / limit=1000"));
        assert!(!s.drop_report().contains("EXCEEDED"));
        s.peak_tracked_bytes = 1200;
        assert!(s.drop_report().contains("EXCEEDED"));
        assert!(s.to_json().contains("\"memory_limit_bytes\":1000"));
        assert!(s.to_json().contains("\"peak_tracked_bytes\":1200"));
        // Sheds are analysis-level: ledgers unaffected.
        s.drops.inc(DropReason::ShedAnalyzed);
        s.drops.inc(DropReason::ShedUnanalyzed);
        assert!(s.record_ledger_balanced());
        assert!(s.packet_ledger_balanced());

        let other = PipelineStats {
            memory_limit_bytes: 500,
            peak_tracked_bytes: 2000,
            degraded_flows: 3,
            ..PipelineStats::default()
        };
        s.merge(&other);
        assert_eq!(s.memory_limit_bytes, 1000, "limit merges as max");
        assert_eq!(s.peak_tracked_bytes, 2000, "peak merges as max");
        assert_eq!(s.degraded_flows, 3);
    }

    #[test]
    fn dataflow_and_watermark_counts_surface_and_merge() {
        let mut s = PipelineStats::default();
        assert!(!s.drop_report().contains("dataflow:"));
        assert!(!s.drop_report().contains("watermark_transitions"));
        s.watermark_transitions = 2;
        s.dataflow_frames = 5;
        s.dataflow_recovered = 1;
        s.dataflow_alt_views = 3;
        s.merge(&s.clone());
        assert!(s.drop_report().contains("budget.watermark_transitions = 4"));
        assert!(s
            .drop_report()
            .contains("dataflow: frames=10 recovered=2 alt_views=6"));
        assert!(s.to_json().contains(
            "\"watermark_transitions\":4,\"dataflow_frames\":10,\"dataflow_recovered\":2,\"dataflow_alt_views\":6,"
        ));
    }

    #[test]
    fn prefilter_counters_surface_everywhere_and_stay_off_the_ledgers() {
        let mut s = PipelineStats::default();
        assert_eq!(s.prefilter_reject_ratio(), 0.0);
        assert!(!s.drop_report().contains("prefilter:"));
        s.suspicious_packets = 10;
        s.prefilter_passed = 4;
        s.prefilter_escalated = 2;
        s.prefilter_rejected = 4;
        s.drops.add(DropReason::PrefilterRejected, 4);
        assert!((s.prefilter_reject_ratio() - 0.4).abs() < 1e-12);
        assert!(s.drop_report().contains("passed=4 escalated=2 rejected=4"));
        assert!(s.drop_report().contains("reject ratio 40.0%"));
        let j = s.to_json();
        assert!(j.contains(
            "\"prefilter\":{\"passed\":4,\"escalated\":2,\"rejected\":4,\"reject_ratio\":0.4000"
        ));
        // Rejection is analysis-level: ledgers unaffected.
        assert!(!DropReason::PrefilterRejected.is_record_drop());
        assert!(!DropReason::PrefilterRejected.is_packet_drop());
        assert!(s.record_ledger_balanced());

        let other = PipelineStats {
            prefilter_passed: 1,
            prefilter_escalated: 1,
            prefilter_rejected: 8,
            prefilter_nanos: 5,
            ..PipelineStats::default()
        };
        s.merge(&other);
        assert_eq!(s.prefilter_rejected, 12);
        assert_eq!(s.prefilter_nanos, 5);
    }

    #[test]
    fn lane_hits_merge_by_key_and_render_in_order() {
        let hit = |l: &str, r: &str, n: u64| (l.to_string(), r.to_string(), n);
        let mut s = PipelineStats {
            suspicious_packets: 3,
            prefilter_passed: 3,
            lane_hits: vec![
                hit("header", "dark-range", 2),
                hit("ngram", "position-score", 1),
            ],
            ..PipelineStats::default()
        };
        let other = PipelineStats {
            prefilter_passed: 2,
            lane_hits: vec![
                hit("control", "empty-payload", 1),
                hit("header", "dark-range", 3),
            ],
            ..PipelineStats::default()
        };
        s.merge(&other);
        assert_eq!(
            s.lane_hits,
            vec![
                hit("control", "empty-payload", 1),
                hit("header", "dark-range", 5),
                hit("ngram", "position-score", 1),
            ]
        );
        assert!(s.to_json().contains(
            "\"lane_hits\":[{\"lane\":\"control\",\"rule\":\"empty-payload\",\"hits\":1},\
             {\"lane\":\"header\",\"rule\":\"dark-range\",\"hits\":5},\
             {\"lane\":\"ngram\",\"rule\":\"position-score\",\"hits\":1}]"
        ));
        assert!(s
            .drop_report()
            .contains("prefilter.hits{lane=header,rule=dark-range} = 5"));
    }

    #[test]
    fn drop_report_lists_only_nonzero() {
        let mut s = PipelineStats::default();
        s.drops.inc(DropReason::ChecksumFailed);
        let rep = s.drop_report();
        assert!(rep.contains("drop.checksum_failed = 1"));
        assert!(!rep.contains("defrag_timeout"));
        assert!(rep.contains("packets UNBALANCED")); // 0 != 0 + 1
    }
}
