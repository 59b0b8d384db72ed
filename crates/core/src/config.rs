//! NIDS configuration.

use snids_extract::ExtractorConfig;
use snids_flow::FlowTableConfig;
use snids_semantic::{default_templates, DataflowMode, Template};
use std::net::Ipv4Addr;

/// Configuration for the assembled pipeline.
#[derive(Debug, Clone)]
pub struct NidsConfig {
    /// When false, every packet is analyzed (the §5.4 experiment mode).
    pub classification_enabled: bool,
    /// Honeypot decoy addresses.
    pub honeypots: Vec<Ipv4Addr>,
    /// Dark (unused) address ranges as `(network, prefix)`.
    pub dark_nets: Vec<(Ipv4Addr, u8)>,
    /// Dark-space scan threshold `t`.
    pub dark_threshold: u32,
    /// Extraction thresholds.
    pub extractor: ExtractorConfig,
    /// The semantic template set.
    pub templates: Vec<Template>,
    /// Flow-table limits, including the TCP overlap resolution policy
    /// (`flow_table.overlap_policy`): which copy of a divergently
    /// retransmitted byte range the reassembler believes. Set it to match
    /// the protected hosts' stacks — a sensor reassembling differently
    /// from its victims can be desynchronized by crafted overlaps.
    pub flow_table: FlowTableConfig,
    /// Analyze flows on the `snids-exec` pool. When false
    /// the analysis tail runs sequentially on the calling thread.
    pub parallel: bool,
    /// Worker threads for the flow-analysis stage, the calling thread
    /// included. `0` (the default) sizes the pipeline's pool on first use
    /// from the `SNIDS_THREADS` environment variable, else the machine's
    /// available parallelism; any other value is the size itself.
    pub threads: usize,
    /// Fault-injection hook for the chaos test suite: a flow whose payload
    /// contains this byte marker makes its analysis task panic
    /// deliberately, exercising the pool's panic containment and the
    /// `analysis_panicked` drop ledger. `None` (the default) disables the
    /// hook; production configurations must leave it unset.
    pub chaos_analysis_panic_marker: Option<Vec<u8>>,
    /// Verify IPv4 header checksums (and TCP checksums on unfragmented
    /// segments) before spending any pipeline work; failures are dropped
    /// and accounted as `checksum_failed`.
    pub verify_checksums: bool,
    /// Disassembly/analysis budget per extracted frame, in bytes. Frames
    /// beyond this are truncated and the excess accounted as
    /// `decoder_bailout` — a hostile flow cannot buy unbounded analysis.
    pub max_frame_bytes: usize,
    /// Enable the observability layer: per-stage latency histograms and
    /// counters, plus the flow flight recorder. Defaults from the
    /// `SNIDS_OBS` environment variable (`1`/`true` enables) so a
    /// deployment or CI run can turn metrics on without a code change.
    /// When false, instrumentation reduces to one relaxed atomic load per
    /// event.
    pub observability: bool,
    /// When the dataflow second pass runs on a flow's frames: `Off`
    /// (never — seed behavior), `NearMiss` (the default: only when the
    /// instruction-run matcher stayed silent *and* the flow carried
    /// divergent TCP overlaps, the desync-evasion signature), or `On`
    /// (on every silent flow). The pass re-examines the frames with
    /// def-use slice matching and, when the reassembler retained a
    /// divergent losing copy, analyzes that alternative stream view too.
    pub dataflow: DataflowMode,
    /// Global byte ceiling for buffered state (reassembly streams, shadow
    /// copies, pending fragments), shared by the flow table and the
    /// defragmenter. `0` (the default) disables the ceiling — accounting
    /// still runs so `peak_tracked_bytes` is reported either way. With a
    /// ceiling set, the governor degrades new flows at 70 % and sheds
    /// coldest unprotected flows at 90 % (see `snids_flow::MemoryBudget`).
    pub memory_budget: u64,
    /// Route flows shed under pressure through the normal analysis path on
    /// the way out (`DropReason::ShedAnalyzed`) instead of discarding
    /// their buffered state unanalyzed (`ShedUnanalyzed`, the seed
    /// behavior). On by default: eviction must not skip detection.
    pub analyze_on_evict: bool,
    /// Run the three-lane pre-filter fast path between classification and
    /// the flow table (`snids-prefilter`): suspicious-classified packets
    /// that no lane escalates skip reassembly and deep analysis entirely,
    /// accounted as `prefilter_rejected`. The header lane is seeded from
    /// `honeypots` and `dark_nets`. On by default; disable for the
    /// everything-is-analyzed baseline (`--prefilter off`).
    pub prefilter: bool,
}

/// Environment variable that defaults [`NidsConfig::observability`].
pub const OBS_ENV: &str = "SNIDS_OBS";

fn obs_env_default() -> bool {
    matches!(
        std::env::var(OBS_ENV).ok().as_deref().map(str::trim),
        Some("1") | Some("true")
    )
}

impl Default for NidsConfig {
    fn default() -> Self {
        NidsConfig {
            classification_enabled: true,
            honeypots: Vec::new(),
            dark_nets: Vec::new(),
            dark_threshold: 5,
            extractor: ExtractorConfig::default(),
            templates: default_templates(),
            flow_table: FlowTableConfig::default(),
            parallel: true,
            threads: 0,
            chaos_analysis_panic_marker: None,
            verify_checksums: true,
            max_frame_bytes: 1 << 20,
            observability: obs_env_default(),
            dataflow: DataflowMode::default(),
            memory_budget: 0,
            analyze_on_evict: true,
            prefilter: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = NidsConfig::default();
        assert!(c.classification_enabled);
        assert!(c.parallel);
        assert_eq!(c.threads, 0);
        assert!(c.chaos_analysis_panic_marker.is_none());
        assert!(c.verify_checksums);
        assert!(c.max_frame_bytes >= 64 * 1024);
        assert_eq!(c.templates.len(), 9);
        assert_eq!(c.dark_threshold, 5);
        // Dataflow second pass fires only on near-miss flows by default:
        // identical output to the seed on conflict-free traffic.
        assert_eq!(c.dataflow, DataflowMode::NearMiss);
        // No byte ceiling by default (identical behavior to the seed),
        // but shed victims are analyzed on the way out when one is set.
        assert_eq!(c.memory_budget, 0);
        assert!(c.analyze_on_evict);
        // The fast path is on by default: rejected packets are cheap, and
        // the e2e suite pins that attack alerts are unchanged by the gate.
        assert!(c.prefilter);
        // Conservative default: first copy wins, matching the seed
        // engine's behavior (and Snort's classic policy).
        assert_eq!(
            c.flow_table.overlap_policy,
            snids_flow::OverlapPolicy::FirstWins
        );
    }
}
