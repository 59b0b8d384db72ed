//! Seeded polymorphic corpora for the end-to-end suites.
//!
//! Three captures share one attacker shape: a source probes a honeypot,
//! so the classifier flags it, then delivers a freshly mutated ADMmutate
//! (even flow index) or Clet (odd) instance to the protected web server.
//! Every capture is a pure function of its arguments.
//!
//! * [`polymorphic_storm`] — attackers interleaved with benign HTTP
//!   background: every attack flow buys the full extract → decode →
//!   match tail.
//! * [`desync_capture`] — attackers followed by background, with a
//!   deterministic `rate`-fraction of the attack flows TCP-desync
//!   faulted ([`desync_packets`]).
//! * [`overload_capture`] — planted attackers, an idle gap, then a
//!   state-exhaustion flood ([`exhaustion_flood`]).
//!
//! Desync faulting uses a superset construction: whether flow `i` is
//! faulted is `hash(seed, i) < rate`, and a faulted flow's transformation
//! is seeded from `(seed, i)` only. Raising the rate therefore only adds
//! faulted flows and never changes existing ones, so per-policy detection
//! is exactly monotone non-increasing in the rate.

use crate::chaos::{desync_packets, exhaustion_flood, ChaosLog, DesyncConfig, ExhaustionConfig};
use crate::traces::{tcp_flow_packets, AddressPlan};
use crate::{benign, shellcode, AdmMutate, Clet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snids_packet::{Packet, PacketBuilder};
use std::net::Ipv4Addr;

/// splitmix64 — the per-flow fault lottery and the seeds that decorrelate
/// fault and flood streams from the attacker stream.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Uniform fraction in `[0, 1)` from a flow index: the lottery ticket.
fn flow_fraction(seed: u64, i: usize) -> f64 {
    (mix(seed ^ (i as u64).wrapping_mul(0xA24B_AED4_963E_E407)) >> 11) as f64 / (1u64 << 53) as f64
}

/// The unique source of attack flow `i` in the desync and overload
/// corpora, so per-source detection counting is unambiguous.
fn attack_source(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(198, 18, (1 + i / 250) as u8, (1 + i % 250) as u8)
}

/// Attack flow `i` from `src`: the honeypot probe, then the polymorphic
/// delivery to the web server. Advances `ts` past both.
fn attack_flow(
    rng: &mut StdRng,
    plan: &AddressPlan,
    i: usize,
    src: Ipv4Addr,
    sport: u16,
    ts: &mut u64,
) -> (Packet, Vec<Packet>) {
    let probe = PacketBuilder::new(src, plan.honeypots[i % plan.honeypots.len()])
        .at(*ts)
        .tcp_syn(sport, 80, rng.gen())
        .expect("probe");
    *ts += 300;
    let inner = shellcode::execve_variant(rng, i % 3);
    let payload = if i % 2 == 1 {
        Clet::default().generate(rng, &inner)
    } else {
        AdmMutate::default().generate(rng, &inner).0
    };
    let train = tcp_flow_packets(src, plan.web_server, sport, 80, &payload, *ts, rng.gen());
    *ts += 200 * train.len() as u64;
    (probe, train)
}

/// One benign HTTP GET flow from a random client. Advances `ts`.
fn background_flow(rng: &mut StdRng, plan: &AddressPlan, sport: u16, ts: &mut u64) -> Vec<Packet> {
    let src = plan.client(rng);
    let payload = benign::http_get(rng);
    let train = tcp_flow_packets(src, plan.web_server, sport, 80, &payload, *ts, rng.gen());
    *ts += 200 * train.len() as u64;
    train
}

/// The polymorphic storm: `attack_flows` attackers from random external
/// sources, spread evenly among `background_flows` benign flows.
pub fn polymorphic_storm(seed: u64, attack_flows: usize, background_flows: usize) -> Vec<Packet> {
    let plan = AddressPlan::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut packets = Vec::new();
    let mut ts: u64 = 1_000_000;
    let total = attack_flows + background_flows;
    for i in 0..total {
        let is_attack =
            attack_flows > 0 && i * attack_flows / total != (i + 1) * attack_flows / total.max(1);
        let sport = 1025 + (i % 60_000) as u16;
        if is_attack {
            let src = plan.external(&mut rng);
            let (probe, train) = attack_flow(&mut rng, &plan, i, src, sport, &mut ts);
            packets.push(probe);
            packets.extend(train);
        } else {
            packets.extend(background_flow(&mut rng, &plan, sport, &mut ts));
        }
    }
    packets
}

/// A desync-faulted capture with its ground truth.
pub struct DesyncCapture {
    /// The packet stream, in replay order.
    pub packets: Vec<Packet>,
    /// Every attack source (ground truth for detection counting).
    pub attack_sources: Vec<Ipv4Addr>,
    /// Attack sources whose flow was desync-faulted at this rate.
    pub faulted_sources: Vec<Ipv4Addr>,
    /// Total desync faults injected.
    pub desync_faults: u64,
    /// Divergent overlap payload bytes injected.
    pub divergent_overlap_bytes: u64,
}

/// `attack_flows` attackers (a deterministic `rate`-fraction of them
/// desync-faulted on every data segment), then `background_flows` benign
/// flows. Captures at different rates share every clean flow byte for
/// byte and every faulted flow's transformation.
pub fn desync_capture(
    seed: u64,
    attack_flows: usize,
    background_flows: usize,
    rate: f64,
) -> DesyncCapture {
    let plan = AddressPlan::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut packets = Vec::new();
    let mut attack_sources = Vec::with_capacity(attack_flows);
    let mut faulted_sources = Vec::new();
    let mut log = ChaosLog::default();
    let mut ts: u64 = 1_000_000;

    for i in 0..attack_flows {
        let src = attack_source(i);
        attack_sources.push(src);
        let (probe, train) = attack_flow(&mut rng, &plan, i, src, 2000 + i as u16, &mut ts);
        packets.push(probe);
        if flow_fraction(seed, i) < rate {
            let mut frng = StdRng::seed_from_u64(mix(seed ^ 0xDE5C ^ (i as u64) << 16));
            let faulted =
                desync_packets(&mut frng, &train, &DesyncConfig::with_rate(1.0), &mut log);
            faulted_sources.push(src);
            packets.extend(faulted);
        } else {
            packets.extend(train);
        }
    }
    for i in 0..background_flows {
        packets.extend(background_flow(&mut rng, &plan, 40_000 + i as u16, &mut ts));
    }

    DesyncCapture {
        packets,
        attack_sources,
        faulted_sources,
        desync_faults: log.desync_faults,
        divergent_overlap_bytes: log.divergent_overlap_bytes,
    }
}

/// `planted_attacks` attackers, then a state-exhaustion flood of `flood`
/// suspicious flows (1 KiB parked per flow, plus `flood / 16`
/// never-completing fragment datagrams) after an idle gap. The planted
/// prefix is byte-identical at every flood size.
pub fn overload_capture(seed: u64, planted_attacks: usize, flood: usize) -> Vec<Packet> {
    let plan = AddressPlan::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut packets = Vec::new();
    let mut ts: u64 = 1_000_000;
    for i in 0..planted_attacks {
        let (probe, train) = attack_flow(
            &mut rng,
            &plan,
            i,
            attack_source(i),
            2000 + i as u16,
            &mut ts,
        );
        packets.push(probe);
        packets.extend(train);
    }
    let flood_cfg = ExhaustionConfig {
        flood_flows: flood,
        flood_payload: 1024,
        frag_datagrams: flood / 16,
    };
    let mut frng = StdRng::seed_from_u64(mix(seed ^ 0x00EF_100D ^ flood as u64));
    let mut log = ChaosLog::default();
    exhaustion_flood(&mut frng, &packets, plan.honeypots[0], &flood_cfg, &mut log)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faulted_sources_are_supersets_across_rates() {
        let lo = desync_capture(17, 8, 4, 0.3);
        let hi = desync_capture(17, 8, 4, 0.8);
        assert!(lo.faulted_sources.len() <= hi.faulted_sources.len());
        for src in &lo.faulted_sources {
            assert!(
                hi.faulted_sources.contains(src),
                "{src} lost at higher rate"
            );
        }
        let zero = desync_capture(17, 8, 4, 0.0);
        assert!(zero.faulted_sources.is_empty());
        assert_eq!(zero.desync_faults, 0);
        assert_eq!(zero.attack_sources.len(), 8);
        let full = desync_capture(17, 8, 4, 1.0);
        assert_eq!(full.faulted_sources, full.attack_sources);
    }

    #[test]
    fn overload_captures_share_the_planted_prefix() {
        let calm = overload_capture(19, 6, 0);
        let stormy = overload_capture(19, 6, 96);
        assert!(stormy.len() > calm.len());
        for (x, y) in calm.iter().zip(&stormy) {
            assert_eq!(x.raw(), y.raw());
        }
    }

    #[test]
    fn storm_is_deterministic() {
        let a = polymorphic_storm(42, 6, 10);
        let b = polymorphic_storm(42, 6, 10);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(&b).all(|(x, y)| x.raw() == y.raw()));
        assert!(a.len() > 16);
    }
}
