//! Sharded front half — sustained-rate throughput and backpressure.
//!
//! The overload corpus ([`crate::overload::build_capture`]: planted
//! polymorphic attacks, an idle gap, then a state-exhaustion flood) is
//! replayed through [`Nids`] at each configured shard count, as
//! fast as the pipeline will take packets. The driver's `process_packet`
//! is timed per packet, so the latency histogram captures dispatch
//! stalls: with a deliberately shallow mailbox the flood saturates
//! shards, `send` blocks, and the p99 shows the backpressure the
//! bounded design trades for bounded memory.
//!
//! Two properties are asserted *hard* inside [`run`] — a report that
//! violates them must not exist:
//!
//! * the rendered alert stream is **byte-identical at every shard
//!   count** (the differential shard-equivalence claim, measured here on
//!   a pressured corpus rather than the e2e suite's calm ones);
//! * the governor's `peak_tracked_bytes` never exceeds the byte budget,
//!   no matter how many budget clones are charging concurrently.
//!
//! The deliverable (`BENCH_shard.json`) records, per shard count:
//! sustained pkts/s (best of N repeats), per-packet p50/p99/max
//! nanoseconds from the best run, mailbox congestion counters
//! (blocked sends, peak depth), the budget peak, and the planted-attack
//! detection count.

use snids_core::{Nids, NidsConfig};
use snids_gen::traces::AddressPlan;
use snids_obs::hist::LogHistogram;
use std::time::Instant;

use crate::overload::{self, Capture, OverloadBenchConfig};

/// Shard sweep parameters.
#[derive(Debug, Clone)]
pub struct ShardBenchConfig {
    /// Deterministic workload seed.
    pub seed: u64,
    /// Planted polymorphic attack flows — the detection ground truth.
    pub planted_attacks: usize,
    /// Suspicious flood flows appended after the planted prefix; sized
    /// to exhaust the flow slots and pressure the byte budget.
    pub flood: usize,
    /// Global byte budget shared (via per-shard clones) by every shard.
    pub memory_budget: u64,
    /// Total flow slots, sliced across shards.
    pub max_flows: usize,
    /// Shard counts to sweep (1 = the sequential seed front half).
    pub shard_counts: Vec<usize>,
    /// Per-shard mailbox capacity — shallow on purpose so the flood
    /// actually exercises backpressure.
    pub mailbox: usize,
    /// Repetitions per shard count (best time wins).
    pub repeats: usize,
}

impl Default for ShardBenchConfig {
    fn default() -> Self {
        ShardBenchConfig {
            seed: crate::DEFAULT_SEED,
            planted_attacks: 16,
            flood: 1024,
            memory_budget: 256 * 1024,
            max_flows: 256,
            shard_counts: vec![1, 2, 8],
            mailbox: 64,
            repeats: 3,
        }
    }
}

fn overload_config(cfg: &ShardBenchConfig) -> OverloadBenchConfig {
    OverloadBenchConfig {
        seed: cfg.seed,
        planted_attacks: cfg.planted_attacks,
        flood_sizes: vec![cfg.flood],
        memory_budget: cfg.memory_budget,
        max_flows: cfg.max_flows,
        repeats: 1,
    }
}

fn shard_nids(plan: &AddressPlan, cfg: &ShardBenchConfig, shards: usize) -> Nids {
    let mut config = NidsConfig {
        honeypots: plan.honeypots.clone(),
        dark_nets: vec![(plan.dark_net, 16)],
        ..NidsConfig::default()
    };
    config.flow_table.max_flows = cfg.max_flows;
    config.memory_budget = cfg.memory_budget;
    config.shards = shards;
    config.shard_mailbox = cfg.mailbox;
    Nids::new(config)
}

/// One measured shard count.
#[derive(Debug, Clone)]
pub struct ShardPoint {
    /// Front-half shards (1 = sequential).
    pub shards: usize,
    /// Sustained packets/sec over the whole replay including the final
    /// drain (best of N repeats).
    pub pps: f64,
    /// Per-packet `process_packet` latency quantiles from the best run,
    /// in nanoseconds. Under backpressure the tail contains mailbox
    /// stalls — that is the point.
    pub p50_nanos: u64,
    /// 99th-percentile per-packet nanoseconds.
    pub p99_nanos: u64,
    /// Worst single packet, nanoseconds.
    pub max_nanos: u64,
    /// `send` calls that found a mailbox full and blocked (best run,
    /// summed over shards). Zero at one shard by construction.
    pub blocked_sends: u64,
    /// Deepest any shard's mailbox got (best run).
    pub mailbox_peak_depth: u64,
    /// High-water mark of budget-tracked bytes (best run); asserted
    /// `<= memory_budget` for every repeat, not just the best.
    pub peak_tracked_bytes: u64,
    /// Planted sources detected (identical across shard counts, since
    /// the alert streams are byte-identical).
    pub detected: usize,
    /// Alerts raised.
    pub alerts: usize,
}

/// The full sweep result.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload seed.
    pub seed: u64,
    /// Planted attack flows.
    pub planted_attacks: usize,
    /// Flood flows appended to the planted prefix.
    pub flood: usize,
    /// The shared byte budget.
    pub memory_budget: u64,
    /// Total flow slots (sliced across shards).
    pub max_flows: usize,
    /// Per-shard mailbox capacity.
    pub mailbox: usize,
    /// Packets in the composed capture.
    pub capture_packets: usize,
    /// Alert streams byte-identical at every swept shard count
    /// (asserted inside [`run`], recorded for the artifact).
    pub alerts_identical: bool,
    /// One point per shard count, in sweep order.
    pub points: Vec<ShardPoint>,
}

/// Time one replay, returning everything the sweep wants from it.
struct RunOutcome {
    elapsed: f64,
    hist: LogHistogram,
    rendered: Vec<String>,
    detected: usize,
    blocked_sends: u64,
    mailbox_peak_depth: u64,
    peak_tracked_bytes: u64,
}

fn replay(plan: &AddressPlan, cfg: &ShardBenchConfig, shards: usize, cap: &Capture) -> RunOutcome {
    let mut nids = shard_nids(plan, cfg, shards);
    let hist = LogHistogram::default();
    let t0 = Instant::now();
    for p in &cap.packets {
        let t = Instant::now();
        nids.process_packet(p);
        hist.record(t.elapsed().as_nanos() as u64);
    }
    let alerts = nids.finish();
    let elapsed = t0.elapsed().as_secs_f64();
    let (blocked_sends, mailbox_peak_depth) = nids.backpressure();
    RunOutcome {
        elapsed,
        hist,
        detected: cap
            .attack_sources
            .iter()
            .filter(|src| alerts.iter().any(|a| a.src == **src))
            .count(),
        rendered: alerts.iter().map(|a| a.render()).collect(),
        blocked_sends,
        mailbox_peak_depth,
        peak_tracked_bytes: nids.stats().peak_tracked_bytes,
    }
}

/// Run the sweep: one shared capture, replayed `repeats` times per shard
/// count.
///
/// Panics if any repeat's tracked-byte peak exceeds the budget, or if
/// any shard count's alert stream differs from the first's — reports
/// violating the bench's claims must not exist.
pub fn run(cfg: &ShardBenchConfig) -> Report {
    let plan = AddressPlan::default();
    let cap = overload::build_capture(&overload_config(cfg), cfg.flood);
    let mut points = Vec::with_capacity(cfg.shard_counts.len());
    let mut reference: Option<Vec<String>> = None;

    for &shards in &cfg.shard_counts {
        let mut best: Option<RunOutcome> = None;
        for _ in 0..cfg.repeats.max(1) {
            let outcome = replay(&plan, cfg, shards, &cap);
            assert!(
                outcome.peak_tracked_bytes <= cfg.memory_budget,
                "peak {} exceeded the {} byte budget at {shards} shard(s)",
                outcome.peak_tracked_bytes,
                cfg.memory_budget
            );
            match &reference {
                None => reference = Some(outcome.rendered.clone()),
                Some(r) => assert!(
                    *r == outcome.rendered,
                    "alert stream diverged at {shards} shard(s)"
                ),
            }
            if best
                .as_ref()
                .map(|b| outcome.elapsed < b.elapsed)
                .unwrap_or(true)
            {
                best = Some(outcome);
            }
        }
        let best = best.expect("at least one repeat");
        points.push(ShardPoint {
            shards,
            pps: cap.packets.len() as f64 / best.elapsed.max(1e-9),
            p50_nanos: best.hist.quantile(0.50),
            p99_nanos: best.hist.quantile(0.99),
            max_nanos: best.hist.max(),
            blocked_sends: best.blocked_sends,
            mailbox_peak_depth: best.mailbox_peak_depth,
            peak_tracked_bytes: best.peak_tracked_bytes,
            detected: best.detected,
            alerts: best.rendered.len(),
        });
    }

    Report {
        seed: cfg.seed,
        planted_attacks: cfg.planted_attacks,
        flood: cfg.flood,
        memory_budget: cfg.memory_budget,
        max_flows: cfg.max_flows,
        mailbox: cfg.mailbox,
        capture_packets: cap.packets.len(),
        alerts_identical: true, // asserted above; a run that got here holds it
        points,
    }
}

/// Render the sweep as a human-readable table.
pub fn render(report: &Report) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "shard sweep: {} packets ({} planted attacks + {} flood flows), budget {} bytes, {} flow slots, mailbox {} deep, seed {}, alerts identical: {}",
        report.capture_packets,
        report.planted_attacks,
        report.flood,
        report.memory_budget,
        report.max_flows,
        report.mailbox,
        report.seed,
        if report.alerts_identical { "yes" } else { "NO" },
    );
    let _ = writeln!(
        s,
        "{:>7} {:>12} {:>10} {:>10} {:>12} {:>9} {:>10} {:>12} {:>9}",
        "shards",
        "pkts/s",
        "p50 ns",
        "p99 ns",
        "max ns",
        "blocked",
        "peak depth",
        "peak bytes",
        "detected"
    );
    for p in &report.points {
        let _ = writeln!(
            s,
            "{:>7} {:>12.0} {:>10} {:>10} {:>12} {:>9} {:>10} {:>12} {:>6}/{:<3}",
            p.shards,
            p.pps,
            p.p50_nanos,
            p.p99_nanos,
            p.max_nanos,
            p.blocked_sends,
            p.mailbox_peak_depth,
            p.peak_tracked_bytes,
            p.detected,
            report.planted_attacks,
        );
    }
    s
}

/// Hand-rolled JSON for `BENCH_shard.json` (the vendored serde is a
/// marker-trait stand-in, so serialization stays explicit).
pub fn to_json(report: &Report) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"bench\": \"shard\",\n  \"workload\": {{\"seed\": {}, \"planted_attacks\": {}, \"flood\": {}, \"memory_budget\": {}, \"max_flows\": {}, \"mailbox\": {}, \"capture_packets\": {}}},\n  \"alerts_identical\": {},\n  \"points\": [",
        report.seed,
        report.planted_attacks,
        report.flood,
        report.memory_budget,
        report.max_flows,
        report.mailbox,
        report.capture_packets,
        report.alerts_identical,
    );
    for (i, p) in report.points.iter().enumerate() {
        let _ = write!(
            s,
            "{}\n    {{\"shards\": {}, \"pps\": {:.1}, \"p50_nanos\": {}, \"p99_nanos\": {}, \"max_nanos\": {}, \"blocked_sends\": {}, \"mailbox_peak_depth\": {}, \"peak_tracked_bytes\": {}, \"detected\": {}, \"alerts\": {}}}",
            if i == 0 { "" } else { "," },
            p.shards,
            p.pps,
            p.p50_nanos,
            p.p99_nanos,
            p.max_nanos,
            p.blocked_sends,
            p.mailbox_peak_depth,
            p.peak_tracked_bytes,
            p.detected,
            p.alerts,
        );
    }
    let _ = write!(s, "\n  ]\n}}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ShardBenchConfig {
        ShardBenchConfig {
            seed: 19,
            planted_attacks: 6,
            flood: 96,
            memory_budget: 64 * 1024,
            max_flows: 32,
            shard_counts: vec![1, 2, 4],
            mailbox: 8,
            repeats: 1,
        }
    }

    #[test]
    fn sweep_holds_equivalence_and_budget_under_pressure() {
        let cfg = small_config();
        let report = run(&cfg);
        assert!(report.alerts_identical);
        assert_eq!(report.points.len(), 3);
        let first = &report.points[0];
        assert!(first.detected > 0, "{report:?}");
        for p in &report.points {
            assert!(p.pps > 0.0);
            assert!(p.peak_tracked_bytes <= cfg.memory_budget);
            assert_eq!(p.detected, first.detected);
            assert_eq!(p.alerts, first.alerts);
            // Quantiles are bucket upper bounds, so p99 may exceed the
            // raw max; only monotonicity between quantiles is exact.
            assert!(p.p50_nanos <= p.p99_nanos);
            assert!(p.max_nanos > 0);
        }
        // The sequential point never touches a mailbox.
        assert_eq!(first.blocked_sends, 0);
        assert_eq!(first.mailbox_peak_depth, 0);

        let json = to_json(&report);
        assert!(json.contains("\"bench\": \"shard\""));
        assert!(json.contains("\"alerts_identical\": true"));
        let table = render(&report);
        assert!(table.contains("pkts/s"));
        assert!(table.contains("p99 ns"));
    }
}
