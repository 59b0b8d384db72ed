//! Integration tests spanning the full pipeline: packets in, alerts out.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snids::core::{Nids, NidsConfig};
use snids::gen::traces::{codered_capture, tcp_flow_packets, AddressPlan};
use snids::gen::SCENARIOS;
use snids::packet::{PcapReader, PcapWriter};
use std::io::Cursor;
use std::net::Ipv4Addr;

fn config_for(plan: &AddressPlan) -> NidsConfig {
    NidsConfig {
        honeypots: plan.honeypots.clone(),
        dark_nets: vec![(plan.dark_net, 16)],
        ..NidsConfig::default()
    }
}

/// Table 1, end to end: all eight exploit scenarios fired at a honeypot-
/// registered network are detected as shell-spawning, and exactly the two
/// bind variants carry the bind-shell flag.
#[test]
fn table1_all_eight_exploits_detected_through_the_pipeline() {
    let plan = AddressPlan::default();
    for (i, sc) in SCENARIOS.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(4000 + i as u64);
        let mut nids = Nids::new(config_for(&plan));
        let attacker = Ipv4Addr::new(198, 18, 50, 50 + i as u8);

        let mut packets = vec![
            // the attacker announces itself by probing a decoy
            snids::packet::PacketBuilder::new(attacker, plan.honeypots[0])
                .at(10)
                .tcp_syn(30_000, sc.dst_port, 1)
                .unwrap(),
        ];
        let payload = sc.build_payload(&mut rng);
        packets.extend(tcp_flow_packets(
            attacker,
            plan.web_server,
            30_001,
            sc.dst_port,
            &payload,
            100,
            0xabc,
        ));

        let alerts = nids.process_capture(&packets);
        assert!(
            alerts.iter().any(|a| a.template == "linux-shell-spawn"),
            "{}: shell spawn missed: {alerts:?}",
            sc.name
        );
        let bind_flagged = alerts.iter().any(|a| a.template == "bind-shell");
        assert_eq!(
            bind_flagged,
            sc.bind_port.is_some(),
            "{}: bind flag wrong",
            sc.name
        );
    }
}

/// The pipeline produces identical results whether packets arrive live or
/// through a pcap file (in-memory round trip).
#[test]
fn pcap_round_trip_is_transparent() {
    let plan = AddressPlan::default();
    let mut rng = StdRng::seed_from_u64(11);
    let (packets, _) = codered_capture(&mut rng, &plan, 800, 2);

    let mut w = PcapWriter::new(Vec::new()).unwrap();
    for p in &packets {
        w.write_packet(p).unwrap();
    }
    let buf = w.finish().unwrap();
    let replayed = PcapReader::new(Cursor::new(buf))
        .unwrap()
        .decode_all()
        .unwrap();
    assert_eq!(replayed.len(), packets.len());

    let run = |pkts: &[snids::packet::Packet]| {
        let mut nids = Nids::new(config_for(&plan));
        let mut alerts = nids.process_capture(pkts);
        alerts.sort_by(|a, b| (a.src, a.template).cmp(&(b.src, b.template)));
        alerts
    };
    assert_eq!(run(&packets), run(&replayed));
}

/// Segment order must not matter: the exploit split across out-of-order
/// TCP segments is still reassembled and detected.
#[test]
fn out_of_order_segments_still_detected() {
    let plan = AddressPlan::default();
    let mut rng = StdRng::seed_from_u64(12);
    let attacker = Ipv4Addr::new(198, 18, 9, 9);
    let payload = SCENARIOS[1].build_payload(&mut rng);

    let mut packets = vec![
        snids::packet::PacketBuilder::new(attacker, plan.honeypots[1])
            .at(5)
            .tcp_syn(2000, 110, 1)
            .unwrap(),
    ];
    let mut train = tcp_flow_packets(attacker, plan.web_server, 2001, 110, &payload, 50, 0x77);
    // shuffle the data segments (keep the SYN first)
    train[1..].reverse();
    packets.extend(train);

    let mut nids = Nids::new(config_for(&plan));
    let alerts = nids.process_capture(&packets);
    assert!(
        alerts.iter().any(|a| a.template == "linux-shell-spawn"),
        "{alerts:?}"
    );
}

/// Fragmentation evasion: the exploit's TCP segments are additionally
/// split into IP fragments (fragroute-style); the defragmenter restores
/// them and detection is unchanged.
#[test]
fn ip_fragmentation_does_not_evade() {
    use snids::flow::defrag::fragment_packet;
    let plan = AddressPlan::default();
    let mut rng = StdRng::seed_from_u64(77);
    let attacker = Ipv4Addr::new(198, 18, 44, 44);
    let payload = SCENARIOS[2].build_payload(&mut rng);

    let mut packets = vec![
        snids::packet::PacketBuilder::new(attacker, plan.honeypots[0])
            .at(1)
            .tcp_syn(3000, 143, 1)
            .unwrap(),
    ];
    for p in tcp_flow_packets(attacker, plan.web_server, 3001, 143, &payload, 10, 0x9) {
        // shatter every data segment into small IP fragments
        packets.extend(fragment_packet(&p, 64));
    }

    let mut nids = Nids::new(config_for(&plan));
    let alerts = nids.process_capture(&packets);
    assert!(
        alerts.iter().any(|a| a.template == "linux-shell-spawn"),
        "fragmentation must not hide the exploit: {alerts:?}"
    );
}

/// §5.4: classification disabled, a benign corpus of mixed traffic —
/// zero false positives.
#[test]
fn fp_study_zero_false_positives() {
    let mut rng = StdRng::seed_from_u64(13);
    let corpus = snids::gen::traces::benign_corpus(&mut rng, 512 * 1024);
    let mut nids = Nids::new(NidsConfig {
        classification_enabled: false,
        ..NidsConfig::default()
    });
    let src = Ipv4Addr::new(10, 5, 5, 5);
    let dst = Ipv4Addr::new(10, 5, 5, 6);
    let mut packets = Vec::new();
    for (i, payload) in corpus.iter().enumerate() {
        packets.extend(tcp_flow_packets(
            src,
            dst,
            (1025 + i % 60_000) as u16,
            80,
            payload,
            i as u64 * 5_000,
            i as u32,
        ));
    }
    let alerts = nids.process_capture(&packets);
    assert!(alerts.is_empty(), "false positives: {alerts:?}");
    // and the analyzer really did the work
    assert!(nids.stats().flows_analyzed as usize >= corpus.len());
}

/// The §3 / A1 ablation: copy-protected binaries contain genuine
/// decryption stubs. A host-style scan (classification disabled) flags
/// them; the full NIDS with classification never analyzes those benign
/// downloads at all.
#[test]
fn classifier_ablation_copy_protected_binaries() {
    let mut rng = StdRng::seed_from_u64(14);
    let downloads = snids::gen::traces::copy_protected_corpus(&mut rng, 8);

    // Host-style: analyze every payload directly.
    let mut host_style = Nids::new(NidsConfig {
        classification_enabled: false,
        ..NidsConfig::default()
    });
    let host_fps: usize = downloads
        .iter()
        .filter(|d| !host_style.analyze_payload(d).is_empty())
        .count();
    assert_eq!(
        host_fps,
        downloads.len(),
        "every protection stub must look like a decoder to a host scan"
    );

    // NIDS: the downloads flow from the trusted server to clients; no
    // source ever touches a decoy or dark space, so nothing is analyzed.
    let plan = AddressPlan::default();
    let mut nids = Nids::new(config_for(&plan));
    let mut packets = Vec::new();
    for (i, d) in downloads.iter().enumerate() {
        packets.extend(tcp_flow_packets(
            plan.web_server,
            plan.client(&mut rng),
            80,
            (2000 + i) as u16,
            d,
            i as u64 * 1_000,
            i as u32,
        ));
    }
    let alerts = nids.process_capture(&packets);
    assert!(alerts.is_empty(), "classifier must shield the downloads");
    assert_eq!(nids.stats().flows_analyzed, 0);
}

/// Pipeline statistics are consistent with the work done.
#[test]
fn stats_account_for_the_pipeline() {
    let plan = AddressPlan::default();
    let mut rng = StdRng::seed_from_u64(15);
    let (packets, truth) = codered_capture(&mut rng, &plan, 600, 1);
    let mut nids = Nids::new(config_for(&plan));
    let alerts = nids.process_capture(&packets);
    let s = nids.stats();
    assert_eq!(s.packets, packets.len() as u64);
    assert!(s.suspicious_packets > 0);
    assert!(s.suspicious_packets < s.packets, "classification prunes");
    assert!(s.flows_analyzed >= truth.crii_sources.len() as u64);
    assert!(s.frames_extracted >= 1);
    assert_eq!(s.alerts, alerts.len() as u64);
}
