//! Pinned replay locks. Each corpus below replays to one recorded
//! digest of everything a deployment can observe deterministically: the
//! rendered alert stream, the deterministic projection of the stats
//! ledger, and the sorted flight-dump headers. The constants were recorded
//! when the per-flow front half could still run on 1, 2 or 8 threads, and
//! all three layouts produced the same value, so each one is the
//! behaviour every earlier deployment had. Changing a constant means the
//! engine's observable output changed; say why in the change log.
//!
//! Every corpus replays at 1, 2 and 8 analysis workers, and each must
//! reach the same pinned digest: thread scheduling never reaches the
//! output. Every replay also checks what must hold whatever the digest:
//! both ledgers balance and the memory budget drains to zero.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snids::core::stats::DropReason;
use snids::core::{Nids, NidsConfig, PipelineStats};
use snids::flow::OverlapPolicy;
use snids::gen::corpus::{desync_capture, overload_capture};
use snids::gen::traces::{codered_capture, tainted_benign_flows, AddressPlan};
use snids::packet::{Packet, PacketBuilder, TcpFlags};

/// What one replay leaves behind.
struct Replay {
    /// Rendered alerts, one per line.
    alerts: String,
    stats: PipelineStats,
    /// `flight[why] src -> dst:port` per dump, without the event count,
    /// sorted.
    dump_headers: Vec<String>,
}

/// The deterministic projection of the stats ledger: everything except
/// wall-clock nanos and high-water marks, which vary between runs on
/// identical input.
fn ledger(s: &PipelineStats) -> String {
    let mut out = format!(
        "records_in={} packets={} processed={} suspicious={} \
         prefilter_passed={} prefilter_escalated={} prefilter_rejected={} \
         flows_analyzed={} frames_extracted={} frame_bytes={} alerts={} \
         overlap_conflict_bytes={} degraded_flows={}",
        s.records_in,
        s.packets,
        s.processed,
        s.suspicious_packets,
        s.prefilter_passed,
        s.prefilter_escalated,
        s.prefilter_rejected,
        s.flows_analyzed,
        s.frames_extracted,
        s.frame_bytes,
        s.alerts,
        s.overlap_conflict_bytes,
        s.degraded_flows,
    );
    for (reason, n) in s.drops.iter() {
        out.push_str(&format!(" {}={n}", reason.name()));
    }
    out
}

/// FNV-1a over the alert stream, the ledger projection and the dump
/// headers, with a separator between the three parts.
fn digest(r: &Replay) -> u64 {
    let text = format!(
        "{}\n--\n{}\n--\n{}",
        r.alerts,
        ledger(&r.stats),
        r.dump_headers.join("\n")
    );
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Analysis worker counts every corpus replays at.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Replay a capture at every count in [`WORKER_COUNTS`], check the
/// invariants every replay must keep, and assert each digest is the
/// pinned one. Returns the last replay.
fn replay_pinned(label: &str, config: NidsConfig, packets: &[Packet], pinned: u64) -> Replay {
    let [.., last] = WORKER_COUNTS.map(|threads| {
        let label = format!("{label} threads={threads}");
        let config = NidsConfig {
            threads,
            ..config.clone()
        };
        replay_once(&label, config, packets, pinned)
    });
    last
}

fn replay_once(label: &str, config: NidsConfig, packets: &[Packet], pinned: u64) -> Replay {
    let threads = config.threads;
    let mut nids = Nids::new(config);
    assert_eq!(nids.analysis_threads(), threads, "[{label}]");
    let alerts = nids
        .process_capture(packets)
        .iter()
        .map(|a| a.render())
        .collect::<Vec<_>>()
        .join("\n");
    let stats = nids.stats().clone();
    assert!(
        stats.packet_ledger_balanced(),
        "[{label}] packet ledger unbalanced:\n{}",
        stats.drop_report()
    );
    assert!(
        stats.record_ledger_balanced(),
        "[{label}] record ledger unbalanced:\n{}",
        stats.drop_report()
    );
    assert_eq!(
        nids.budget().tracked(),
        0,
        "[{label}] budget must drain to zero"
    );
    let mut dump_headers: Vec<String> = nids
        .flight_dumps()
        .iter()
        .filter_map(|d| d.split(" (").next().map(str::to_string))
        .collect();
    dump_headers.sort();
    let replay = Replay {
        alerts,
        stats,
        dump_headers,
    };
    assert_eq!(
        digest(&replay),
        pinned,
        "[{label}] replay digest moved from the pinned value"
    );
    replay
}

/// The deployment under test: the default plan's honeypots and dark net,
/// with the flight recorder on so the dumps are part of the digest.
fn worm_config(plan: &AddressPlan) -> NidsConfig {
    NidsConfig {
        honeypots: plan.honeypots.clone(),
        dark_nets: vec![(plan.dark_net, 16)],
        observability: true,
        ..NidsConfig::default()
    }
}

#[test]
fn worm_capture_replays_to_its_pinned_digest() {
    let plan = AddressPlan::default();
    let mut rng = StdRng::seed_from_u64(2006);
    let (packets, truth) = codered_capture(&mut rng, &plan, 1200, 3);
    let replay = replay_pinned("worm", worm_config(&plan), &packets, PINNED_WORM);

    // The corpus is not vacuous: name every worm source explicitly so a
    // silent regression in the generator cannot hollow the lock out.
    for src in &truth.crii_sources {
        assert!(
            replay.alerts.contains(&src.to_string()),
            "worm source {src} missing from the alert stream"
        );
    }
}

#[test]
fn desync_chaos_replays_to_its_pinned_digest_under_every_overlap_policy() {
    // 0.0 is the clean reference; 0.3 faults enough flows that the
    // policies diverge from each other, so each policy has its own value.
    let plan = AddressPlan::default();
    for &(policy, rate, pinned) in &PINNED_DESYNC {
        let capture = desync_capture(2006, 24, 24, rate);
        let mut config = worm_config(&plan);
        config.flow_table.overlap_policy = policy;
        let label = format!("desync policy={policy:?} rate={rate}");
        replay_pinned(&label, config, &capture.packets, pinned);
    }
}

#[test]
fn tainted_benign_traffic_replays_to_its_pinned_digest() {
    // Tainted-but-benign sources are exactly the traffic the pre-filter
    // gate rejects: this corpus locks the gate's lanes and sticky sources.
    let plan = AddressPlan::default();
    let mut rng = StdRng::seed_from_u64(13);
    let (mut packets, _truth) = codered_capture(&mut rng, &plan, 600, 2);
    packets.extend(tainted_benign_flows(&mut rng, &plan, 24, 4, 2_000_000));
    packets.sort_by_key(|p| p.ts_micros);

    let replay = replay_pinned(
        "tainted-benign",
        worm_config(&plan),
        &packets,
        PINNED_TAINTED_BENIGN,
    );
    assert!(
        replay.stats.prefilter_rejected > 0,
        "tainted-benign corpus must exercise pre-filter rejection"
    );
}

#[test]
fn memory_pressure_replays_to_its_pinned_digest() {
    // The overload flood with a tight budget and a small flow table: the
    // shed-analysis path (evicted flows handed to the back half) and the
    // protect-source feedback loop.
    const BUDGET: u64 = 64 * 1024;
    let packets = overload_capture(41, 6, 96);
    let plan = AddressPlan::default();
    let mut config = worm_config(&plan);
    config.memory_budget = BUDGET;
    config.flow_table.max_flows = 32;
    let replay = replay_pinned("pressure", config, &packets, PINNED_PRESSURE);

    // Pressure must actually occur, or the corpus is too gentle to lock
    // the shed path; and the peak stays under the ceiling.
    let drops = &replay.stats.drops;
    let shed = drops.get(DropReason::ShedAnalyzed)
        + drops.get(DropReason::ShedUnanalyzed)
        + drops.get(DropReason::FlowEvicted);
    assert!(shed > 0, "pressure corpus must evict flows");
    assert!(
        replay.stats.peak_tracked_bytes <= BUDGET,
        "peak {} exceeded the {BUDGET} byte budget",
        replay.stats.peak_tracked_bytes
    );
}

#[test]
fn unanalyzed_evictions_replay_to_their_pinned_digest() {
    // One scanner sweeps a honeypot's ports with analyze-on-evict off and
    // a one-slot flow table: every new flow evicts the previous one
    // unanalyzed, and each eviction is a flight dump.
    let plan = AddressPlan::default();
    let scanner = std::net::Ipv4Addr::new(198, 18, 7, 7);
    let target = plan.honeypots[0];
    let mut packets = Vec::new();
    for (i, port) in (1000u16..1020).enumerate() {
        let t = 100 + i as u64 * 10;
        let b = PacketBuilder::new(scanner, target);
        packets.push(b.clone().at(t).tcp_syn(4000 + port, port, 1).unwrap());
        packets.push(
            b.at(t + 1)
                .tcp(4000 + port, port, 2, 0, TcpFlags::ACK, b"probe")
                .unwrap(),
        );
    }
    let mut config = worm_config(&plan);
    config.analyze_on_evict = false;
    config.flow_table.max_flows = 1;
    let replay = replay_pinned("evictions", config, &packets, PINNED_EVICTIONS);

    let headers = &replay.dump_headers;
    assert_eq!(
        headers
            .iter()
            .filter(|h| h.starts_with("flight[flow_evicted]"))
            .count(),
        19,
        "every flow but the last is evicted unanalyzed: {headers:?}"
    );
    assert!(headers.len() < snids::core::MAX_FLIGHT_DUMPS);
}

const PINNED_WORM: u64 = 0x9bc4_f42e_4e40_b63f;
const PINNED_TAINTED_BENIGN: u64 = 0x22c6_06ea_3a94_24e0;
const PINNED_PRESSURE: u64 = 0xeb2c_ad1b_5f03_24e5;
const PINNED_EVICTIONS: u64 = 0xb2af_8d14_952f_cc55;
/// `(policy, rate, digest)`: every overlap policy at fault rates 0 and 0.3.
const PINNED_DESYNC: [(OverlapPolicy, f64, u64); 8] = [
    (OverlapPolicy::FirstWins, 0.0, 0xbaf3_411f_e5c2_4707),
    (OverlapPolicy::LastWins, 0.0, 0xbaf3_411f_e5c2_4707),
    (OverlapPolicy::BsdLike, 0.0, 0xbaf3_411f_e5c2_4707),
    (OverlapPolicy::LinuxLike, 0.0, 0xbaf3_411f_e5c2_4707),
    (OverlapPolicy::FirstWins, 0.3, 0x4cc4_3af7_062a_5fba),
    (OverlapPolicy::LastWins, 0.3, 0xf9fb_855e_6507_9ef9),
    (OverlapPolicy::BsdLike, 0.3, 0x4cc4_3af7_062a_5fba),
    (OverlapPolicy::LinuxLike, 0.3, 0xfa10_cefd_275f_857a),
];
