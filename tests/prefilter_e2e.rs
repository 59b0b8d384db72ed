//! End-to-end differential test for the pre-filter fast path: the gate may
//! reject work, never detections. The same captures are replayed through
//! two pipelines differing only in `NidsConfig::prefilter`, and the
//! rendered alert streams must be byte-identical. The gated run's ledgers
//! must also stay balanced and its prefilter counters must partition the
//! suspicious-packet count exactly.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snids::core::{Nids, NidsConfig};
use snids::gen::chaos::{chaos_pcap, ChaosConfig};
use snids::gen::corpus::polymorphic_storm;
use snids::gen::traces::{codered_capture, tainted_benign_flows, AddressPlan};
use snids::packet::{Packet, PcapReader};
use std::io::Cursor;

/// Replay gated and ungated: the two rendered alert streams, and the
/// gated run's reject ratio.
fn run_pair(packets: &[Packet]) -> (String, String, f64) {
    let plan = AddressPlan::default();
    let mut rendered = Vec::new();
    let mut reject_ratio = 0.0;
    for prefilter in [true, false] {
        let mut nids = Nids::new(NidsConfig {
            honeypots: plan.honeypots.clone(),
            dark_nets: vec![(plan.dark_net, 16)],
            prefilter,
            ..NidsConfig::default()
        });
        let alerts = nids.process_capture(packets);
        let stats = nids.stats();
        assert!(
            stats.packet_ledger_balanced(),
            "packet ledger unbalanced (prefilter={prefilter}):\n{}",
            stats.drop_report()
        );
        assert!(
            stats.record_ledger_balanced(),
            "record ledger unbalanced (prefilter={prefilter}):\n{}",
            stats.drop_report()
        );
        if prefilter {
            reject_ratio = stats.prefilter_reject_ratio();
            // The gate sees every suspicious packet exactly once, and its
            // three counters partition that count.
            assert_eq!(
                stats.prefilter_passed + stats.prefilter_escalated + stats.prefilter_rejected,
                stats.suspicious_packets,
                "prefilter counters must partition suspicious packets:\n{}",
                stats.drop_report()
            );
            assert_eq!(
                stats
                    .drops
                    .get(snids::core::stats::DropReason::PrefilterRejected),
                stats.prefilter_rejected
            );
        } else {
            assert_eq!(stats.prefilter_passed, 0);
            assert_eq!(stats.prefilter_rejected, 0);
        }
        rendered.push(
            alerts
                .iter()
                .map(|a| a.render())
                .collect::<Vec<_>>()
                .join("\n"),
        );
    }
    let ungated = rendered.pop().unwrap();
    let gated = rendered.pop().unwrap();
    (gated, ungated, reject_ratio)
}

#[test]
fn gate_is_invisible_on_the_clean_worm_capture() {
    let plan = AddressPlan::default();
    let mut rng = StdRng::seed_from_u64(7);
    let (packets, truth) = codered_capture(&mut rng, &plan, 1200, 3);
    let (gated, ungated, _) = run_pair(&packets);
    assert_eq!(gated, ungated, "gating changed the alert stream");
    assert!(!truth.crii_sources.is_empty());
    for src in &truth.crii_sources {
        assert!(
            gated.contains(&src.to_string()),
            "planted source {src} missing from gated alerts"
        );
    }
}

#[test]
fn gate_is_invisible_on_the_chaos_corpus_at_rate_zero() {
    let plan = AddressPlan::default();
    let mut rng = StdRng::seed_from_u64(11);
    let (packets, _) = codered_capture(&mut rng, &plan, 1000, 2);
    // Rate 0, no floods, no tail faults: the pcap round-trip itself is the
    // only transformation, so gated and ungated must agree byte-for-byte.
    let cfg = ChaosConfig {
        rate: 0.0,
        flood_flows: 0,
        truncate_tail: false,
        bogus_incl_len: false,
    };
    let (bytes, _) = chaos_pcap(&mut rng, &packets, &cfg);
    let mut reader = PcapReader::new(Cursor::new(bytes)).expect("valid global header");
    let decoded = reader.decode_all().unwrap_or_default();
    assert!(!decoded.is_empty());
    let (gated, ungated, _) = run_pair(&decoded);
    assert_eq!(gated, ungated, "gating changed the rate-0 alert stream");
}

#[test]
fn gate_rejects_tainted_benign_traffic_without_losing_the_worm() {
    let plan = AddressPlan::default();
    let mut rng = StdRng::seed_from_u64(13);
    let (mut packets, truth) = codered_capture(&mut rng, &plan, 600, 2);
    // Sources the classifier distrusts that only ever send text: exactly
    // the traffic the gate exists to reject.
    packets.extend(tainted_benign_flows(&mut rng, &plan, 24, 4, 2_000_000));
    packets.sort_by_key(|p| p.ts_micros);

    let mut nids = Nids::new(NidsConfig {
        honeypots: plan.honeypots.clone(),
        dark_nets: vec![(plan.dark_net, 16)],
        ..NidsConfig::default()
    });
    let alerts = nids.process_capture(&packets);
    let stats = nids.stats();
    assert!(
        stats.prefilter_rejected > 0,
        "tainted-benign text must be rejected:\n{}",
        stats.drop_report()
    );
    assert!(stats.prefilter_reject_ratio() > 0.0);
    for src in &truth.crii_sources {
        assert!(
            alerts.iter().any(|a| a.src == *src),
            "planted source {src} lost behind the gate:\n{}",
            stats.drop_report()
        );
    }
    // The JSON stats surface carries the gate's ledger.
    let json = stats.to_json();
    assert!(json.contains("\"prefilter\""));
    assert!(json.contains("\"reject_ratio\""));
}

#[test]
fn gate_is_invisible_on_the_polymorphic_storm_with_tainted_background() {
    // ADMmutate/Clet deliveries woven with tainted-benign text, in time
    // order: the gate must reject the text and keep every detection.
    let plan = AddressPlan::default();
    let mut packets = polymorphic_storm(42, 6, 10);
    let mut rng = StdRng::seed_from_u64(42 ^ 0x7eff);
    packets.extend(tainted_benign_flows(&mut rng, &plan, 8, 3, 1_000_000));
    packets.sort_by_key(|p| p.ts_micros);
    let (gated, ungated, reject_ratio) = run_pair(&packets);
    assert!(!gated.is_empty(), "the storm must alert");
    assert_eq!(gated, ungated, "gating changed the storm's alert stream");
    assert!(
        reject_ratio > 0.3,
        "tainted background must be rejected: {reject_ratio}"
    );
}
