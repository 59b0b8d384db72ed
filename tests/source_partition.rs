//! Per-source partition: splitting a capture by source address across
//! independent pipelines loses nothing and invents nothing.
//!
//! Every detector whose state is keyed by source — sticky prefilter
//! escalation, dark-space probe counting, the worm detector's per-source
//! infection evidence — sees a source's whole story inside one slice, so
//! the sorted union of the slices' alerts must be byte-identical to the
//! whole-capture run, and the slices' packet counters must sum to the
//! corpus size. This is the property a multi-sensor deployment split by
//! source relies on.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snids::core::{Nids, NidsConfig};
use snids::gen::chaos::{chaos_packets, ChaosConfig, ChaosLog};
use snids::gen::traces::{codered_capture, AddressPlan};
use snids::packet::Packet;

const SLICES: usize = 3;

fn sensor(plan: &AddressPlan) -> Nids {
    Nids::new(NidsConfig {
        honeypots: plan.honeypots.clone(),
        dark_nets: vec![(plan.dark_net, 16)],
        ..NidsConfig::default()
    })
}

/// Replay `packets` through a fresh sensor: sorted rendered alerts and
/// the packet counter.
fn replay(plan: &AddressPlan, packets: &[Packet]) -> (Vec<String>, u64) {
    let mut nids = sensor(plan);
    let mut alerts: Vec<String> = nids
        .process_capture(packets)
        .iter()
        .map(|a| a.render())
        .collect();
    alerts.sort_unstable();
    let stats = nids.stats();
    assert!(
        stats.packet_ledger_balanced(),
        "unbalanced:\n{}",
        stats.drop_report()
    );
    (alerts, stats.packets)
}

#[test]
fn source_slices_conserve_packets_and_match_the_whole_capture() {
    // The worm+flood corpus: Code Red II woven into background traffic,
    // plus SYN-flood flows at fault rate 0 so the partition stays exact.
    let plan = AddressPlan::default();
    let mut rng = StdRng::seed_from_u64(2006);
    let (packets, truth) = codered_capture(&mut rng, &plan, 1200, 2);
    let flood = ChaosConfig {
        flood_flows: 96,
        ..ChaosConfig::with_rate(0.0)
    };
    let packets = chaos_packets(&mut rng, &packets, &flood, &mut ChaosLog::default());

    // Non-IP frames have no source; they ride in slice 0.
    let mut slices: Vec<Vec<Packet>> = vec![Vec::new(); SLICES];
    for p in &packets {
        let slice = p.ip().map_or(0, |ip| u32::from(ip.src) as usize % SLICES);
        slices[slice].push(p.clone());
    }

    let (whole, whole_packets) = replay(&plan, &packets);
    assert_eq!(whole_packets, packets.len() as u64);
    for src in &truth.crii_sources {
        assert!(
            whole.iter().any(|a| a.contains(&src.to_string())),
            "worm source {src} undetected in the whole-capture run"
        );
    }

    let mut union = Vec::new();
    let mut slice_packets = 0;
    for (i, slice) in slices.iter().enumerate() {
        assert!(!slice.is_empty(), "slice {i} got no packets");
        let (alerts, n) = replay(&plan, slice);
        assert_eq!(n, slice.len() as u64, "slice {i} packet counter");
        union.extend(alerts);
        slice_packets += n;
    }
    union.sort_unstable();
    assert_eq!(
        slice_packets,
        packets.len() as u64,
        "slices partition the corpus"
    );
    assert_eq!(
        union, whole,
        "slice alert union diverged from the whole capture"
    );
}
