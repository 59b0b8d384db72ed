//! The four workloads: each is generated from the seed out of `snids-gen`
//! building blocks, serialised straight into an in-memory pcap, and comes
//! with the ground truth the correctness gate checks verdicts against.
//!
//! Sizes are committed constants (never calibrated at run time), so the
//! work behind a number is the same on every commit. A run replays the one
//! pcap pass after pass, each through a fresh engine.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snids_core::NidsConfig;
use snids_flow::defrag::fragment_packet;
use snids_flow::FlowKey;
use snids_gen::chaos::{
    desync_packets, exhaustion_flood, ChaosLog, DesyncConfig, ExhaustionConfig,
};
use snids_gen::traces::{codered_capture, tainted_benign_flows, tcp_flow_packets, AddressPlan};
use snids_gen::{benign, codered, shellcode, AdmMutate, Clet};
use snids_packet::{Packet, PacketBuilder, PcapWriter};
use std::collections::{BTreeSet, HashSet};
use std::net::Ipv4Addr;

/// Workload names, in report order (the same names as `BENCHMARK.json`).
pub const NAMES: [&str; 4] = ["benign_line", "poly_storm", "worm_wave", "state_flood"];

/// `--smoke` divides every workload's size by this.
const SMOKE_DIVISOR: usize = 100;

/// `state_flood`'s byte ceiling for buffered engine state.
const FLOOD_MEMORY_BUDGET: u64 = 256 * 1024;

/// One generated workload: the pcap, how to configure the engine for it,
/// and what the engine must say about it.
pub struct Capture {
    /// The capture, as the bytes of a classic pcap file.
    pub pcap: Vec<u8>,
    /// Frames in the pcap.
    pub packets: u64,
    /// Sum of the frames' lengths.
    pub wire_bytes: u64,
    /// Distinct five-tuples in the capture: the ground-truth operations.
    pub flows: u64,
    /// Source of every planted attack flow (a source planted twice is
    /// listed twice). These must alert; no other source may.
    pub attack_flows: Vec<Ipv4Addr>,
    /// 64-bit digest of the pcap bytes: same seed, same digest.
    pub digest: u64,
    /// Engine configuration: `NidsConfig::default()` plus the workload's
    /// address plan (and `state_flood`'s memory budget), obs off.
    pub config: NidsConfig,
}

impl Capture {
    /// Mean frame length, the fixed factor between `pps` and wire bytes/s.
    pub fn mean_packet_bytes(&self) -> f64 {
        self.wire_bytes as f64 / self.packets as f64
    }
}

/// FNV-1a over a byte stream, continued from `h` (start from [`FNV_SEED`]).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Where generated packets go: serialised into the pcap batch by batch,
/// with the running totals the ground truth needs.
struct Sink {
    writer: PcapWriter<Vec<u8>>,
    packets: u64,
    wire_bytes: u64,
    flows: HashSet<FlowKey>,
    /// Capture clock in microseconds: every batch is rebased onto it, so
    /// timestamps rise through the capture however it was pieced together.
    clock: u64,
}

impl Sink {
    fn new() -> Sink {
        Sink {
            writer: PcapWriter::new(Vec::new()).expect("writing to a Vec cannot fail"),
            packets: 0,
            wire_bytes: 0,
            flows: HashSet::new(),
            clock: 1_000_000,
        }
    }

    /// Append a batch, keeping its internal spacing, `gap` microseconds
    /// after everything written so far.
    fn extend(&mut self, batch: &[Packet], gap: u64) {
        let Some(first) = batch.iter().map(|p| p.ts_micros).min() else {
            return;
        };
        let base = self.clock + gap;
        for p in batch {
            let ts = base + (p.ts_micros - first);
            self.writer
                .write_frame(ts, p.raw())
                .expect("writing to a Vec cannot fail");
            self.packets += 1;
            self.wire_bytes += p.raw().len() as u64;
            if let Some(key) = FlowKey::of(p) {
                self.flows.insert(key);
            }
            self.clock = self.clock.max(ts);
        }
    }
}

/// The polymorphic payload attacker `i` delivers: a fresh execve variant
/// under a freshly mutated ADMmutate (even) or Clet (odd) decoder.
fn polymorphic_payload(rng: &mut StdRng, i: usize) -> Vec<u8> {
    let inner = shellcode::execve_variant(rng, i % 3);
    if i.is_multiple_of(2) {
        AdmMutate::default().generate(rng, &inner).0
    } else {
        Clet::default().generate(rng, &inner)
    }
}

/// The `i`-th attacker address: distinct per index, in 198.19.0.0/16 —
/// the half of the benchmarking block `AddressPlan::external` never draws
/// from, so no benign or tainted source is ever also an attacker.
fn attacker(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(198, 19, (i / 248 % 250) as u8, (2 + i % 248) as u8)
}

/// A probe to a honeypot followed by one payload delivered to the web
/// server: how a source becomes suspicious and then attacks.
fn probe_then_deliver(
    rng: &mut StdRng,
    plan: &AddressPlan,
    src: Ipv4Addr,
    i: usize,
    payload: &[u8],
    start_ts: u64,
) -> Vec<Packet> {
    let sport = 1025 + (i % 60_000) as u16;
    let mut out = vec![
        PacketBuilder::new(src, plan.honeypots[i % plan.honeypots.len()])
            .at(start_ts)
            .tcp_syn(sport, 80, rng.gen())
            .expect("probe syn"),
    ];
    out.extend(tcp_flow_packets(
        src,
        plan.web_server,
        sport,
        80,
        payload,
        start_ts + 300,
        rng.gen(),
    ));
    out
}

/// Table-3 shape: benign background with a few dozen Code Red II
/// instances. Generated in segments so no segment's decoded packets
/// outlive their serialisation.
fn benign_line(rng: &mut StdRng, plan: &AddressPlan, div: usize, sink: &mut Sink) -> Vec<Ipv4Addr> {
    const SEGMENTS: usize = 8;
    const PACKETS_PER_SEGMENT: usize = 40_000;
    const CRII_PER_SEGMENT: usize = 4;
    let mut attacks = Vec::new();
    for _ in 0..SEGMENTS {
        let (packets, truth) =
            codered_capture(rng, plan, PACKETS_PER_SEGMENT / div, CRII_PER_SEGMENT);
        sink.extend(&packets, 300);
        attacks.extend(truth.crii_sources);
    }
    attacks
}

/// Table-2 shape: every attacker probes a honeypot and delivers a freshly
/// mutated instance; two benign HTTP flows from clean clients follow each.
fn poly_storm(rng: &mut StdRng, plan: &AddressPlan, div: usize, sink: &mut Sink) -> Vec<Ipv4Addr> {
    // Two tracked flows per attacker (probe and delivery): 60 000 stays
    // under the flow table's 65 536 cap, so nothing is shed here and the
    // analysis all happens at the end, on the pool.
    const ATTACKERS: usize = 30_000;
    let mut attacks = Vec::new();
    for i in 0..(ATTACKERS / div).max(4) {
        let src = attacker(i);
        let payload = polymorphic_payload(rng, i);
        sink.extend(&probe_then_deliver(rng, plan, src, i, &payload, 0), 200);
        attacks.push(src);
        for j in 0..2 {
            let sport = 1025 + ((3 * i + j) % 60_000) as u16;
            let get = benign::http_get(rng);
            let train = tcp_flow_packets(
                plan.client(rng),
                plan.web_server,
                sport,
                80,
                &get,
                0,
                rng.gen(),
            );
            sink.extend(&train, 200);
        }
    }
    attacks
}

/// Thousands of sources scan dark space past the classifier's threshold
/// and then each deliver one of 16 distinct `%u`-encoded requests.
fn worm_wave(rng: &mut StdRng, plan: &AddressPlan, div: usize, sink: &mut Sink) -> Vec<Ipv4Addr> {
    const SOURCES: usize = 20_000;
    const DISTINCT_REQUESTS: usize = 16;
    const SCANS: usize = 6;
    let requests: Vec<Vec<u8>> = (0..DISTINCT_REQUESTS)
        .map(|_| codered::request(rng))
        .collect();
    let mut attacks = Vec::new();
    for i in 0..(SOURCES / div).max(DISTINCT_REQUESTS) {
        let src = attacker(i);
        let mut batch = Vec::with_capacity(SCANS + 4);
        for s in 0..SCANS {
            batch.push(
                PacketBuilder::new(src, plan.dark(rng))
                    .at(500 * s as u64)
                    .tcp_syn(rng.gen_range(1025..65000), 80, rng.gen())
                    .expect("scan syn"),
            );
        }
        batch.extend(tcp_flow_packets(
            src,
            plan.web_server,
            rng.gen_range(1025..65000),
            80,
            &requests[i % DISTINCT_REQUESTS],
            500 * SCANS as u64,
            rng.gen(),
        ));
        sink.extend(&batch, 500);
        attacks.push(src);
    }
    attacks
}

/// Planted polymorphic attacks go cold behind suspicious sources that send
/// only text (a quarter of their data segments divergently overlapped, a
/// share of their datagrams fragmented), then a flood of fresh suspicious
/// sources parks stream bytes and unfinished fragments against a 256 KiB
/// budget.
fn state_flood(rng: &mut StdRng, plan: &AddressPlan, div: usize, sink: &mut Sink) -> Vec<Ipv4Addr> {
    const PLANTED: usize = 32;
    const TAINTED_SOURCES: usize = 2_000;
    const FLOWS_PER_TAINTED_SOURCE: usize = 4;
    const FLOOD_FLOWS: usize = 32_000;
    const FRAGMENT_EVERY: usize = 8;

    let mut attacks = Vec::new();
    let mut planted = Vec::new();
    for i in 0..PLANTED {
        let src = attacker(i);
        let payload = polymorphic_payload(rng, i);
        planted.extend(probe_then_deliver(
            rng,
            plan,
            src,
            i,
            &payload,
            2_000 * i as u64,
        ));
        attacks.push(src);
    }

    // Text-only traffic from sources that touched a decoy once. The desync
    // faults and the fragmentation are applied to this segment only: they
    // load reassembly and defragmentation without corrupting a planted
    // attack, so every planted source must still alert.
    let tainted = tainted_benign_flows(
        rng,
        plan,
        (TAINTED_SOURCES / div).max(2),
        FLOWS_PER_TAINTED_SOURCE,
        0,
    );
    let mut log = ChaosLog::default();
    let desynced = desync_packets(rng, &tainted, &DesyncConfig::with_rate(0.25), &mut log);
    let mut background = Vec::with_capacity(desynced.len() + desynced.len() / 4);
    for (n, p) in desynced.into_iter().enumerate() {
        if n % FRAGMENT_EVERY == 0 && p.payload().len() > 64 {
            background.extend(fragment_packet(&p, 256));
        } else {
            background.push(p);
        }
    }

    let flood_flows = (FLOOD_FLOWS / div).max(8);
    let flood_cfg = ExhaustionConfig {
        flood_flows,
        flood_payload: 1024,
        frag_datagrams: flood_flows / 16,
    };
    // `exhaustion_flood` returns the planted prefix followed, after an
    // idle gap, by the flood; the background goes between the two.
    let with_flood = exhaustion_flood(rng, &planted, plan.honeypots[0], &flood_cfg, &mut log);
    sink.extend(&with_flood[..planted.len()], 0);
    sink.extend(&background, 1_000);
    sink.extend(&with_flood[planted.len()..], 1_000_000);
    attacks
}

/// Generate workload `name` from `seed`; `smoke` shrinks it a hundredfold.
/// `None` for a name that is not a workload.
pub fn generate(name: &str, seed: u64, smoke: bool) -> Option<Capture> {
    let plan = AddressPlan::default();
    let div = if smoke { SMOKE_DIVISOR } else { 1 };
    // Workloads draw from decorrelated streams of the one seed.
    let index = NAMES.iter().position(|n| *n == name)?;
    let mut rng =
        StdRng::seed_from_u64(seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut sink = Sink::new();
    let attack_flows = match name {
        "benign_line" => benign_line(&mut rng, &plan, div, &mut sink),
        "poly_storm" => poly_storm(&mut rng, &plan, div, &mut sink),
        "worm_wave" => worm_wave(&mut rng, &plan, div, &mut sink),
        "state_flood" => state_flood(&mut rng, &plan, div, &mut sink),
        _ => return None,
    };
    let pcap = sink.writer.finish().expect("writing to a Vec cannot fail");
    Some(Capture {
        digest: fnv1a(FNV_SEED, &pcap),
        pcap,
        packets: sink.packets,
        wire_bytes: sink.wire_bytes,
        flows: sink.flows.len() as u64,
        attack_flows,
        config: config(name),
    })
}

/// The engine configuration workload `name` runs under; it depends on the
/// name alone, so a process that is handed only the pcap can build it too.
pub fn config(name: &str) -> NidsConfig {
    let plan = AddressPlan::default();
    NidsConfig {
        honeypots: plan.honeypots.clone(),
        dark_nets: vec![(plan.dark_net, 16)],
        memory_budget: if name == "state_flood" {
            FLOOD_MEMORY_BUDGET
        } else {
            0
        },
        observability: false,
        ..NidsConfig::default()
    }
}

/// What the gate found wrong with one alert stream.
#[derive(Default)]
pub struct Verdicts {
    /// Planted attack flows whose source raised no alert.
    pub missed: Vec<Ipv4Addr>,
    /// Non-attack sources that raised an alert.
    pub false_alerts: Vec<Ipv4Addr>,
}

impl Verdicts {
    /// Operations that failed.
    pub fn failed(&self) -> u64 {
        (self.missed.len() + self.false_alerts.len()) as u64
    }
}

/// Check the sources that alerted against the capture's ground truth.
pub fn judge(capture: &Capture, alerted: &BTreeSet<Ipv4Addr>) -> Verdicts {
    let attackers: BTreeSet<Ipv4Addr> = capture.attack_flows.iter().copied().collect();
    Verdicts {
        missed: capture
            .attack_flows
            .iter()
            .filter(|s| !alerted.contains(s))
            .copied()
            .collect(),
        false_alerts: alerted.difference(&attackers).copied().collect(),
    }
}
