//! Deterministic fault injection for robustness testing.
//!
//! The paper's evaluation assumes well-formed captures; a deployed sensor
//! sees the opposite — damaged files, hostile senders, evasion traffic.
//! This module takes a clean packet capture and seeds it with the faults a
//! sensor must survive:
//!
//! * **protocol-level** (applied to packets): corrupted checksums, missing
//!   / duplicated / conflicting-overlap IP fragments, reordered and
//!   conflicting-retransmit TCP segments, and a SYN-flood of throwaway
//!   flows to pressure the flow table;
//! * **byte-level** (applied to the serialized pcap): bit flips inside
//!   frame data, garbage records with valid framing, and — at the tail,
//!   where they end the readable stream — a truncated record or a record
//!   header with a hostile `incl_len`.
//!
//! Everything is driven by a caller-supplied RNG, so a fault pattern is
//! reproducible from a seed. The [`ChaosLog`] records which source
//! addresses had *destructive* faults applied to their traffic, letting a
//! test assert that every untouched attack source is still detected.

use rand::{Rng, RngCore};
use snids_flow::defrag::fragment_packet;
use snids_packet::{Packet, PacketBuilder, PcapWriter, ETHERNET_HEADER_LEN};
use std::collections::HashSet;
use std::net::Ipv4Addr;

/// Fault-injection intensity and toggles.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Base per-packet / per-record fault probability in `[0, 1]`.
    pub rate: f64,
    /// Throwaway SYN-flood flows appended to pressure the flow table.
    pub flood_flows: usize,
    /// Append a record whose bytes end early (stream truncation).
    pub truncate_tail: bool,
    /// Append a record header claiming a hostile `incl_len`.
    pub bogus_incl_len: bool,
}

impl ChaosConfig {
    /// A config with the given base rate and all fault families enabled.
    pub fn with_rate(rate: f64) -> Self {
        ChaosConfig {
            rate: rate.clamp(0.0, 1.0),
            flood_flows: 0,
            truncate_tail: true,
            bogus_incl_len: true,
        }
    }
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig::with_rate(0.05)
    }
}

/// What the injector did, for assertions in tests.
#[derive(Debug, Clone, Default)]
pub struct ChaosLog {
    /// Protocol-level faults applied (any kind).
    pub protocol_faults: u64,
    /// Byte-level faults applied to the serialized capture.
    pub byte_faults: u64,
    /// Flood packets appended.
    pub flood_packets: u64,
    /// Source addresses whose traffic had a *destructive* fault applied
    /// (checksum corruption, dropped fragment, bit flip) — detection for
    /// these sources may legitimately be lost. Duplicates, reorders and
    /// conflicting overlaps are non-destructive by design (first-copy-wins
    /// reassembly keeps the original data) and are not recorded here.
    pub touched_sources: HashSet<Ipv4Addr>,
    /// TCP desync faults applied by [`desync_packets`] (any kind,
    /// including the benign reorder/stale kinds).
    pub desync_faults: u64,
    /// Payload bytes injected by [`desync_packets`] whose copy diverges
    /// from the original stream content. An upper bound on the engine's
    /// `overlap_conflict_bytes` for the capture (stale injections are
    /// rejected at the reassembly window and never reach the ledger).
    pub divergent_overlap_bytes: u64,
    /// Sources whose streams had *divergent* overlaps injected. Whether
    /// detection survives for these depends on the reassembly policy;
    /// sources outside this set must always still be detected.
    pub divergent_sources: HashSet<Ipv4Addr>,
    /// Packets appended by [`exhaustion_flood`]'s flow flood (honeypot
    /// probes, SYNs and data segments).
    pub exhaustion_flood_packets: u64,
    /// Fragment packets appended by [`exhaustion_flood`]'s incomplete
    /// datagrams.
    pub exhaustion_frag_packets: u64,
    /// Payload bytes the exhaustion flood parks in sensor state
    /// (reassembly streams plus pending fragments). Sizing a memory
    /// budget well below this guarantees the governor is pressured.
    pub exhaustion_bytes: u64,
    /// Sources invented by [`exhaustion_flood`]. Detection assertions
    /// must not credit alerts from these, and a governor should be
    /// willing to shed them.
    pub flood_sources: HashSet<Ipv4Addr>,
}

impl ChaosLog {
    fn touch(&mut self, packet: &Packet) {
        if let Some(ip) = packet.ip() {
            self.touched_sources.insert(ip.src);
        }
    }
}

/// Apply protocol-level faults to a packet sequence.
pub fn chaos_packets<G: RngCore>(
    rng: &mut G,
    packets: &[Packet],
    cfg: &ChaosConfig,
    log: &mut ChaosLog,
) -> Vec<Packet> {
    let mut out: Vec<Packet> = Vec::with_capacity(packets.len() + cfg.flood_flows);
    // A reorder fault holds one packet back and emits it after its
    // successor.
    let mut held: Option<Packet> = None;

    for p in packets {
        if let Some(h) = held.take() {
            out.push(p.clone());
            out.push(h);
            continue;
        }
        if !rng.gen_bool(cfg.rate) {
            out.push(p.clone());
            continue;
        }
        log.protocol_faults += 1;
        match rng.gen_range(0..5u8) {
            0 => corrupt_checksum(rng, p, log, &mut out),
            1 => fragment_fault(rng, p, log, &mut out),
            2 => {
                // Exact retransmission: harmless duplicate.
                out.push(p.clone());
                out.push(p.clone());
            }
            3 => conflicting_retransmit(rng, p, &mut out),
            _ => {
                // Reorder: this packet arrives after the next one.
                held = Some(p.clone());
            }
        }
    }
    if let Some(h) = held {
        out.push(h);
    }

    // SYN-flood: unique throwaway sources against destinations already in
    // the capture, spread across the capture's time span.
    let dsts: Vec<Ipv4Addr> = {
        let mut v: Vec<Ipv4Addr> = packets
            .iter()
            .filter_map(|p| p.ip().map(|h| h.dst))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let last_ts = packets.last().map_or(0, |p| p.ts_micros);
    if !dsts.is_empty() {
        for i in 0..cfg.flood_flows {
            let src = Ipv4Addr::new(203, 0, rng.gen_range(113..=120), rng.gen_range(1..=254));
            let dst = dsts[rng.gen_range(0..dsts.len())];
            let syn = PacketBuilder::new(src, dst)
                .at(last_ts + 10 + i as u64)
                .identification(rng.gen())
                .tcp_syn(rng.gen_range(1025..65000), 80, rng.gen());
            if let Ok(syn) = syn {
                out.push(syn);
                log.flood_packets += 1;
            }
        }
    }
    out
}

/// Flip a byte inside the transport region so the IPv4 or TCP checksum no
/// longer verifies; the pipeline must drop and account the packet.
fn corrupt_checksum<G: RngCore>(
    rng: &mut G,
    p: &Packet,
    log: &mut ChaosLog,
    out: &mut Vec<Packet>,
) {
    let Some(ip) = p.ip() else {
        out.push(p.clone());
        return;
    };
    let mut raw = p.raw().to_vec();
    // Anywhere in the IP packet past the version byte will desynchronise a
    // checksum (header bytes break the IP sum, payload bytes the TCP sum).
    let lo = ETHERNET_HEADER_LEN + 2;
    let hi = ETHERNET_HEADER_LEN + ip.total_len;
    let at = rng.gen_range(lo..hi);
    raw[at] ^= 1 << rng.gen_range(0..8u8);
    match Packet::decode(p.ts_micros, raw) {
        Ok(bad) => {
            log.touch(p);
            out.push(bad);
        }
        // The flip broke framing instead; keep the original.
        Err(_) => out.push(p.clone()),
    }
}

/// Split a packet into fragments and then drop, duplicate, or
/// conflictingly-duplicate one of them.
fn fragment_fault<G: RngCore>(rng: &mut G, p: &Packet, log: &mut ChaosLog, out: &mut Vec<Packet>) {
    let already_fragmented = p
        .ip()
        .map(|h| h.more_fragments || h.fragment_offset != 0)
        .unwrap_or(false);
    let mut frags = if already_fragmented {
        vec![p.clone()]
    } else {
        fragment_packet(p, 256)
    };
    if frags.len() < 2 {
        out.push(p.clone());
        return;
    }
    match rng.gen_range(0..3u8) {
        0 => {
            // Missing fragment: the datagram never completes.
            let victim = rng.gen_range(0..frags.len());
            frags.remove(victim);
            log.touch(p);
        }
        1 => {
            // Exact duplicate fragment.
            let i = rng.gen_range(0..frags.len());
            let dup = frags[i].clone();
            frags.insert(i + 1, dup);
        }
        _ => {
            // Conflicting overlap: a later copy of one fragment carries
            // different payload bytes. First-copy-wins reassembly must
            // keep the original data. (Fragment payload bytes are outside
            // the IP header checksum, and fragments carry no verifiable
            // TCP checksum, so the copy is not dropped earlier.)
            let i = rng.gen_range(0..frags.len());
            let mut raw = frags[i].raw().to_vec();
            if raw.len() > ETHERNET_HEADER_LEN + 20 {
                let at = rng.gen_range(ETHERNET_HEADER_LEN + 20..raw.len());
                raw[at] ^= 0x5a;
                if let Ok(dup) = Packet::decode(frags[i].ts_micros + 1, raw) {
                    frags.insert(i + 1, dup);
                }
            }
        }
    }
    out.append(&mut frags);
}

/// Retransmit a TCP segment with different payload bytes but valid
/// checksums; first-copy-wins stream reassembly must keep the original.
fn conflicting_retransmit<G: RngCore>(rng: &mut G, p: &Packet, out: &mut Vec<Packet>) {
    out.push(p.clone());
    let (Some(ip), Some(tcp)) = (p.ip(), p.tcp()) else {
        return;
    };
    let payload = p.payload();
    if payload.is_empty() {
        return;
    }
    let mut data = payload.to_vec();
    let at = rng.gen_range(0..data.len());
    data[at] ^= 0x5a;
    let retx = PacketBuilder::new(ip.src, ip.dst)
        .at(p.ts_micros + 1)
        .identification(ip.identification.wrapping_add(1))
        .tcp(
            tcp.src_port,
            tcp.dst_port,
            tcp.seq,
            tcp.ack,
            tcp.flags,
            &data,
        );
    if let Ok(retx) = retx {
        out.push(retx);
    }
}

/// TCP desync fault intensity for [`desync_packets`].
#[derive(Debug, Clone)]
pub struct DesyncConfig {
    /// Per data-bearing-segment fault probability in `[0, 1]`.
    pub rate: f64,
}

impl DesyncConfig {
    /// A config with the given per-segment fault rate.
    pub fn with_rate(rate: f64) -> Self {
        DesyncConfig {
            rate: rate.clamp(0.0, 1.0),
        }
    }
}

impl Default for DesyncConfig {
    fn default() -> Self {
        DesyncConfig::with_rate(0.1)
    }
}

/// Divergent copy of a byte range: always differs from the original in
/// every position (adding 0x55 mod 256 never maps a byte to itself).
fn garbage(data: &[u8]) -> Vec<u8> {
    data.iter().map(|b| b.wrapping_add(0x55)).collect()
}

/// Inject TCP desynchronization faults: overlapping retransmits whose
/// copies *disagree*, segment splits/reorders, and stale below-window
/// segments. All injected packets carry valid checksums — they survive
/// validation and reach reassembly, which must resolve each overlap per
/// its configured [`OverlapPolicy`](snids_flow::OverlapPolicy).
///
/// Six kinds, chosen uniformly per faulted segment, with deliberately
/// different per-policy blast radii:
///
/// | kind | shape                              | corrupts under            |
/// |------|------------------------------------|---------------------------|
/// | 0    | same-start garbage copy *after*    | last-wins, linux-like     |
/// | 1    | garbage tail-half copy *after*     | last-wins                 |
/// | 2    | same-start garbage copy *before*   | first-wins, bsd-like      |
/// | 3    | split in two, halves swapped       | none (reorder only)       |
/// | 4    | stale far-below-window garbage     | none (window-rejected)    |
/// | 5    | under-cut garbage copy *after*     | last-wins, bsd, linux     |
///
/// Because the kinds split the policies differently, sweeping the fault
/// rate yields a *distinct* detection-degradation curve per policy — the
/// signal `tests/desync_e2e.rs` checks.
pub fn desync_packets<G: RngCore>(
    rng: &mut G,
    packets: &[Packet],
    cfg: &DesyncConfig,
    log: &mut ChaosLog,
) -> Vec<Packet> {
    let mut out: Vec<Packet> = Vec::with_capacity(packets.len() + packets.len() / 2);
    for p in packets {
        let (Some(ip), Some(tcp)) = (p.ip(), p.tcp()) else {
            out.push(p.clone());
            continue;
        };
        let payload = p.payload();
        // SYNs and tiny segments pass through: the ISN anchor must stay
        // intact and a split needs at least two bytes per half.
        if tcp.flags.syn() || payload.len() < 4 || !rng.gen_bool(cfg.rate) {
            out.push(p.clone());
            continue;
        }
        log.desync_faults += 1;
        let ident = ip.identification.wrapping_add(0x4000);
        let inject = |seq: u32, data: &[u8], ts: u64, out: &mut Vec<Packet>| {
            let seg = PacketBuilder::new(ip.src, ip.dst)
                .at(ts)
                .identification(ident)
                .tcp(tcp.src_port, tcp.dst_port, seq, tcp.ack, tcp.flags, data);
            if let Ok(seg) = seg {
                out.push(seg);
            }
        };
        match rng.gen_range(0..6u8) {
            0 => {
                // Garbage retransmit of the whole segment, arriving after.
                out.push(p.clone());
                inject(tcp.seq, &garbage(payload), p.ts_micros + 1, &mut out);
                log.divergent_overlap_bytes += payload.len() as u64;
                log.divergent_sources.insert(ip.src);
            }
            1 => {
                // Garbage copy of the tail half, arriving after: starts
                // mid-segment, so only a pure last-wins stack believes it.
                let half = payload.len() / 2;
                out.push(p.clone());
                inject(
                    tcp.seq.wrapping_add(half as u32),
                    &garbage(&payload[half..]),
                    p.ts_micros + 1,
                    &mut out,
                );
                log.divergent_overlap_bytes += (payload.len() - half) as u64;
                log.divergent_sources.insert(ip.src);
            }
            2 => {
                // Garbage copy arriving *before* the real segment: stacks
                // that trust the first (or the earlier-started) copy keep
                // the garbage.
                inject(tcp.seq, &garbage(payload), p.ts_micros, &mut out);
                out.push(p.clone());
                log.divergent_overlap_bytes += payload.len() as u64;
                log.divergent_sources.insert(ip.src);
            }
            3 => {
                // Split and swap: second half arrives first. Pure
                // reordering — every policy reassembles the same bytes.
                let half = payload.len() / 2;
                inject(
                    tcp.seq.wrapping_add(half as u32),
                    &payload[half..],
                    p.ts_micros,
                    &mut out,
                );
                inject(tcp.seq, &payload[..half], p.ts_micros + 1, &mut out);
            }
            4 => {
                // Stale garbage far below the receive window (an old
                // "ghost" segment). The window check rejects it before any
                // overlap resolution; not logged as divergent.
                inject(
                    tcp.seq.wrapping_sub(0x4000_0000),
                    &garbage(payload),
                    p.ts_micros,
                    &mut out,
                );
                out.push(p.clone());
            }
            _ => {
                // Under-cut: garbage starting shortly *before* this
                // segment, arriving after it, overrunning its head.
                // Earlier-start-wins stacks (BSD, Linux) prefer it.
                let cut = payload.len().min(64);
                let under = 1 + (u64::from(rng.next_u32()) % 32) as usize;
                let mut g = vec![0x55u8; under];
                g.extend_from_slice(&garbage(&payload[..cut]));
                out.push(p.clone());
                inject(
                    tcp.seq.wrapping_sub(under as u32),
                    &g,
                    p.ts_micros + 1,
                    &mut out,
                );
                log.divergent_overlap_bytes += g.len() as u64;
                log.divergent_sources.insert(ip.src);
            }
        }
    }
    out
}

/// Serialize packets to pcap bytes with byte-level faults layered on top.
///
/// Faults that desynchronise the record stream (truncation, hostile
/// `incl_len`) are appended at the tail only, so every real record stays
/// readable and the capture remains a meaningful end-to-end input. Bit
/// flips and garbage records keep record framing intact and may land
/// anywhere.
pub fn chaos_pcap<G: RngCore>(
    rng: &mut G,
    packets: &[Packet],
    cfg: &ChaosConfig,
) -> (Vec<u8>, ChaosLog) {
    let mut log = ChaosLog::default();
    let mutated = chaos_packets(rng, packets, cfg, &mut log);

    // Global header via the real writer, then hand-rolled records so the
    // byte offsets of each frame are known.
    let mut buf = PcapWriter::new(Vec::new())
        .and_then(PcapWriter::finish)
        .unwrap_or_default();
    let mut regions: Vec<(usize, usize, Option<Ipv4Addr>)> = Vec::with_capacity(mutated.len());
    for p in &mutated {
        let frame = p.raw();
        write_record_header(&mut buf, p.ts_micros, frame.len() as u32);
        regions.push((buf.len(), frame.len(), p.ip().map(|h| h.src)));
        buf.extend_from_slice(frame);

        // Garbage record with valid framing: reader must attribute it as
        // a record (usually undecodable) and keep going.
        if rng.gen_bool(cfg.rate * 0.25) {
            let len = rng.gen_range(4..64usize);
            write_record_header(&mut buf, p.ts_micros + 1, len as u32);
            let mut junk = vec![0u8; len];
            rng.fill_bytes(&mut junk);
            buf.extend_from_slice(&junk);
            log.byte_faults += 1;
        }
    }

    // Bit flips inside frame data: framing stays intact, the frame decodes
    // differently (or not at all).
    for (start, len, src) in &regions {
        if *len > 0 && rng.gen_bool(cfg.rate * 0.5) {
            let at = start + rng.gen_range(0..*len);
            buf[at] ^= 1 << rng.gen_range(0..8u8);
            if let Some(src) = src {
                log.touched_sources.insert(*src);
            }
            log.byte_faults += 1;
        }
    }

    // Tail faults end the readable stream, so at most one is observable.
    let tail_bogus = match (cfg.bogus_incl_len, cfg.truncate_tail) {
        (true, true) => rng.gen_bool(0.5),
        (bogus, _) => bogus,
    };
    if tail_bogus {
        // Hostile incl_len: claims ~4 GiB; the reader must refuse it
        // without allocating.
        write_record_header(&mut buf, 0, 0xFFFF_FF00);
        buf.extend_from_slice(&[0u8; 8]);
        log.byte_faults += 1;
    } else if cfg.truncate_tail {
        // Record header promising more bytes than the file has left.
        write_record_header(&mut buf, 0, 512);
        buf.extend_from_slice(&[0u8; 37]);
        log.byte_faults += 1;
    }
    (buf, log)
}

/// State-exhaustion flood intensity for [`exhaustion_flood`].
///
/// Unlike the throwaway SYN flood in [`ChaosConfig`], every source here
/// first probes a honeypot so the classifier marks it suspicious — the
/// flood targets the *semantic* pipeline's buffered state (reassembly
/// streams, shadow copies, pending fragments), not just the flow count.
#[derive(Debug, Clone)]
pub struct ExhaustionConfig {
    /// Suspicious flood flows, each parking [`flood_payload`] stream
    /// bytes in the reassembler.
    ///
    /// [`flood_payload`]: ExhaustionConfig::flood_payload
    pub flood_flows: usize,
    /// Stream payload bytes parked per flood flow.
    pub flood_payload: usize,
    /// Never-completing fragmented datagrams parking bytes in the
    /// defragmenter (the last fragment is withheld).
    pub frag_datagrams: usize,
}

impl Default for ExhaustionConfig {
    fn default() -> Self {
        ExhaustionConfig {
            flood_flows: 512,
            flood_payload: 1024,
            frag_datagrams: 64,
        }
    }
}

/// Printable filler for flood streams: buffers state without ever
/// resembling executable content, so flood flows can never alert.
fn flood_filler(salt: usize, len: usize) -> Vec<u8> {
    const TEXT: &[u8] = b"GET /state-exhaustion-flood HTTP/1.0\r\nHost: overload\r\n\r\n";
    (0..len).map(|j| TEXT[(salt + j) % TEXT.len()]).collect()
}

/// Append a state-exhaustion flood after a capture: the eviction-evasion
/// adversary shape. Attacks planted in `packets` go cold behind an idle
/// gap; then a horde of fresh suspicious sources (each probes `honeypot`
/// once, so classification tracks them) parks stream bytes and
/// incomplete fragments, trying to push the planted flows out of the
/// sensor's bounded state before end-of-run analysis. A sensor that
/// discards evicted state unanalyzed loses the planted detections; one
/// that analyzes victims on the way out does not.
///
/// Returns the composed capture; flood accounting lands in `log`
/// (`exhaustion_*` fields and [`ChaosLog::flood_sources`]).
pub fn exhaustion_flood<G: RngCore>(
    rng: &mut G,
    packets: &[Packet],
    honeypot: Ipv4Addr,
    cfg: &ExhaustionConfig,
    log: &mut ChaosLog,
) -> Vec<Packet> {
    let mut out = packets.to_vec();
    // Flood destinations: reuse the capture's own non-honeypot targets so
    // the traffic blends in; fall back to the honeypot itself.
    let mut dsts: Vec<Ipv4Addr> = packets
        .iter()
        .filter_map(|p| p.ip().map(|h| h.dst))
        .filter(|d| *d != honeypot)
        .collect();
    dsts.sort_unstable();
    dsts.dedup();
    if dsts.is_empty() {
        dsts.push(honeypot);
    }
    // Idle gap: every planted flow is colder than every flood flow, so a
    // pure-LRU victim policy evicts the planted state first.
    let mut ts = packets.last().map_or(0, |p| p.ts_micros) + 1_000_000;

    for i in 0..cfg.flood_flows {
        // CGNAT space (100.64.0.0/10): ~4M unique sources, disjoint from
        // the address plans and the SYN-flood's 203.0.113.0/24.
        let src = Ipv4Addr::new(
            100,
            64 + ((i >> 16) & 0x3f) as u8,
            ((i >> 8) & 0xff) as u8,
            (i & 0xff) as u8,
        );
        log.flood_sources.insert(src);
        let sport = 1024 + (i % 60_000) as u16;
        let isn: u32 = rng.gen();
        let probe = PacketBuilder::new(src, honeypot)
            .at(ts)
            .identification(rng.gen())
            .tcp_syn(sport, 80, isn);
        let dst = dsts[i % dsts.len()];
        let b = PacketBuilder::new(src, dst);
        let syn = b
            .clone()
            .at(ts + 1)
            .identification(rng.gen())
            .tcp_syn(sport, 80, isn);
        let data = b.at(ts + 2).identification(rng.gen()).tcp(
            sport,
            80,
            isn.wrapping_add(1),
            1,
            snids_packet::TcpFlags::ACK | snids_packet::TcpFlags::PSH,
            &flood_filler(i, cfg.flood_payload),
        );
        if let (Ok(probe), Ok(syn), Ok(data)) = (probe, syn, data) {
            out.push(probe);
            out.push(syn);
            out.push(data);
            log.exhaustion_flood_packets += 3;
            log.exhaustion_bytes += cfg.flood_payload as u64;
        }
        ts += 10;
    }

    for j in 0..cfg.frag_datagrams {
        let src = Ipv4Addr::new(
            100,
            104 + ((j >> 16) & 0x17) as u8,
            ((j >> 8) & 0xff) as u8,
            (j & 0xff) as u8,
        );
        log.flood_sources.insert(src);
        let sport = 1024 + (j % 60_000) as u16;
        let probe = PacketBuilder::new(src, honeypot)
            .at(ts)
            .identification(rng.gen())
            .tcp_syn(sport, 80, rng.gen());
        let Ok(probe) = probe else { continue };
        let whole = PacketBuilder::new(src, dsts[j % dsts.len()])
            .at(ts + 1)
            .identification(rng.gen())
            .tcp(
                sport,
                80,
                rng.gen(),
                0,
                snids_packet::TcpFlags::ACK,
                &flood_filler(j.wrapping_mul(7), 1536),
            );
        let Ok(whole) = whole else { continue };
        let mut frags = fragment_packet(&whole, 512);
        if frags.len() < 2 {
            continue;
        }
        // Withhold the final fragment: the datagram can never complete
        // and its pieces sit in the defragmenter until expiry or shed.
        frags.pop();
        out.push(probe);
        log.exhaustion_flood_packets += 1;
        for f in frags {
            log.exhaustion_bytes += f.payload().len() as u64;
            log.exhaustion_frag_packets += 1;
            out.push(f);
        }
        ts += 10;
    }
    out
}

fn write_record_header(buf: &mut Vec<u8>, ts_micros: u64, incl_len: u32) {
    buf.extend_from_slice(&((ts_micros / 1_000_000) as u32).to_le_bytes());
    buf.extend_from_slice(&((ts_micros % 1_000_000) as u32).to_le_bytes());
    buf.extend_from_slice(&incl_len.to_le_bytes());
    buf.extend_from_slice(&incl_len.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traces::{codered_capture, AddressPlan};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snids_packet::PcapReader;
    use std::io::Cursor;

    fn capture() -> Vec<Packet> {
        let mut rng = StdRng::seed_from_u64(11);
        codered_capture(&mut rng, &AddressPlan::default(), 400, 2).0
    }

    #[test]
    fn same_seed_same_bytes() {
        let pkts = capture();
        let cfg = ChaosConfig::with_rate(0.2);
        let (a, la) = chaos_pcap(&mut StdRng::seed_from_u64(3), &pkts, &cfg);
        let (b, lb) = chaos_pcap(&mut StdRng::seed_from_u64(3), &pkts, &cfg);
        assert_eq!(a, b);
        assert_eq!(la.protocol_faults, lb.protocol_faults);
        let (c, _) = chaos_pcap(&mut StdRng::seed_from_u64(4), &pkts, &cfg);
        assert_ne!(a, c, "different seed, different fault pattern");
    }

    #[test]
    fn zero_rate_without_tail_faults_is_identity() {
        let pkts = capture();
        let cfg = ChaosConfig {
            rate: 0.0,
            flood_flows: 0,
            truncate_tail: false,
            bogus_incl_len: false,
        };
        let (bytes, log) = chaos_pcap(&mut StdRng::seed_from_u64(5), &pkts, &cfg);
        assert_eq!(log.protocol_faults + log.byte_faults, 0);
        let mut r = PcapReader::new(Cursor::new(bytes)).unwrap();
        let decoded = r.decode_all().unwrap();
        assert_eq!(decoded.len(), pkts.len());
        for (a, b) in decoded.iter().zip(&pkts) {
            assert_eq!(a.raw(), b.raw());
        }
    }

    #[test]
    fn faulted_capture_stays_readable_to_the_tail() {
        let pkts = capture();
        let cfg = ChaosConfig {
            flood_flows: 32,
            ..ChaosConfig::with_rate(0.3)
        };
        let (bytes, log) = chaos_pcap(&mut StdRng::seed_from_u64(6), &pkts, &cfg);
        assert!(log.protocol_faults > 0);
        assert!(log.byte_faults > 0);
        assert_eq!(log.flood_packets, 32);
        let mut r = PcapReader::new(Cursor::new(bytes)).unwrap();
        let decoded = r.decode_all().unwrap();
        let stats = r.read_stats();
        // The only stream-ending fault is the single tail record, so the
        // overwhelming majority of records must have been read.
        assert!(decoded.len() as u64 + stats.undecodable > pkts.len() as u64 / 2);
        assert_eq!(stats.truncated_records + stats.malformed_records, 1);
        assert!(stats.balanced());
    }

    /// Reassemble one direction of a capture under a policy (test-side
    /// mini harness; the real pipeline goes through the flow table).
    fn reassemble(packets: &[Packet], policy: snids_flow::OverlapPolicy) -> (Vec<u8>, u64) {
        let mut r = snids_flow::Reassembler::with_policy(1 << 20, policy);
        for p in packets {
            let Some(tcp) = p.tcp() else { continue };
            if tcp.flags.syn() {
                r.on_syn(tcp.seq);
            } else {
                r.on_data(tcp.seq, p.payload());
            }
        }
        (r.assembled().to_vec(), r.overlap_conflict_bytes())
    }

    #[test]
    fn desync_same_seed_same_packets() {
        let pkts = capture();
        let cfg = DesyncConfig::with_rate(0.4);
        let run = |seed| {
            let mut log = ChaosLog::default();
            let out = desync_packets(&mut StdRng::seed_from_u64(seed), &pkts, &cfg, &mut log);
            (out, log)
        };
        let (a, la) = run(9);
        let (b, lb) = run(9);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.raw(), y.raw());
        }
        assert_eq!(la.desync_faults, lb.desync_faults);
        assert_eq!(la.divergent_overlap_bytes, lb.divergent_overlap_bytes);
        let (c, _) = run(10);
        assert!(
            a.len() != c.len() || a.iter().zip(&c).any(|(x, y)| x.raw() != y.raw()),
            "different seed must produce a different fault pattern"
        );
    }

    #[test]
    fn desync_zero_rate_is_identity() {
        let pkts = capture();
        let mut log = ChaosLog::default();
        let out = desync_packets(
            &mut StdRng::seed_from_u64(1),
            &pkts,
            &DesyncConfig::with_rate(0.0),
            &mut log,
        );
        assert_eq!(log.desync_faults, 0);
        assert!(log.divergent_sources.is_empty());
        assert_eq!(out.len(), pkts.len());
        for (a, b) in out.iter().zip(&pkts) {
            assert_eq!(a.raw(), b.raw());
        }
    }

    /// The whole point of the fault family: the same desynced wire data
    /// reassembles *differently* under different overlap policies, while
    /// coverage (stream length) stays identical and every policy's
    /// conflict ledger lights up.
    #[test]
    fn desync_splits_policies_apart() {
        use crate::traces::tcp_flow_packets;
        let payload: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        let flow = tcp_flow_packets(
            Ipv4Addr::new(198, 18, 3, 3),
            Ipv4Addr::new(192, 168, 1, 10),
            4400,
            21,
            &payload,
            100,
            0x7777,
        );
        let mut log = ChaosLog::default();
        let faulted = desync_packets(
            &mut StdRng::seed_from_u64(21),
            &flow,
            &DesyncConfig::with_rate(1.0),
            &mut log,
        );
        assert!(log.desync_faults > 0);
        assert!(log.divergent_overlap_bytes > 0);
        assert_eq!(
            log.divergent_sources.into_iter().collect::<Vec<_>>(),
            vec![Ipv4Addr::new(198, 18, 3, 3)]
        );

        let mut streams = Vec::new();
        for policy in snids_flow::OverlapPolicy::ALL {
            let (clean, clean_conflicts) = reassemble(&flow, policy);
            assert_eq!(clean, payload, "clean capture must round-trip");
            assert_eq!(clean_conflicts, 0);
            let (dirty, conflicts) = reassemble(&faulted, policy);
            assert_eq!(
                dirty.len(),
                payload.len(),
                "desync faults never change coverage under {}",
                policy.name()
            );
            assert!(
                conflicts > 0,
                "conflict ledger must light up under {}",
                policy.name()
            );
            assert!(
                conflicts <= log.divergent_overlap_bytes,
                "log bound violated under {}",
                policy.name()
            );
            streams.push(dirty);
        }
        // At least one policy must disagree with another, and at least one
        // must have had its stream corrupted relative to the original.
        assert!(
            streams.iter().any(|s| s != &streams[0]),
            "all policies reassembled identically — no desync achieved"
        );
        assert!(streams.iter().any(|s| s != &payload));
    }

    #[test]
    fn exhaustion_same_seed_same_packets() {
        let pkts = capture();
        let cfg = ExhaustionConfig {
            flood_flows: 64,
            flood_payload: 512,
            frag_datagrams: 16,
        };
        let hp = AddressPlan::default().honeypots[0];
        let run = |seed| {
            let mut log = ChaosLog::default();
            let out = exhaustion_flood(&mut StdRng::seed_from_u64(seed), &pkts, hp, &cfg, &mut log);
            (out, log)
        };
        let (a, la) = run(31);
        let (b, lb) = run(31);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.raw(), y.raw());
        }
        assert_eq!(la.exhaustion_bytes, lb.exhaustion_bytes);
        assert_eq!(la.flood_sources, lb.flood_sources);
        let (c, _) = run(32);
        assert!(
            a.iter().zip(&c).any(|(x, y)| x.raw() != y.raw()),
            "different seed must produce a different flood"
        );
    }

    #[test]
    fn exhaustion_flood_shape() {
        let pkts = capture();
        let cfg = ExhaustionConfig {
            flood_flows: 48,
            flood_payload: 700,
            frag_datagrams: 12,
        };
        let hp = AddressPlan::default().honeypots[0];
        let mut log = ChaosLog::default();
        let out = exhaustion_flood(&mut StdRng::seed_from_u64(41), &pkts, hp, &cfg, &mut log);

        // The original capture passes through untouched, in order.
        for (a, b) in out.iter().zip(&pkts) {
            assert_eq!(a.raw(), b.raw());
        }
        assert_eq!(log.flood_sources.len(), 48 + 12, "unique sources");
        assert!(log.exhaustion_bytes >= 48 * 700, "{}", log.exhaustion_bytes);
        assert!(log.exhaustion_frag_packets > 0);
        // Every flood source's first packet probes the honeypot — the
        // classifier must see it before any state-parking traffic.
        for src in &log.flood_sources {
            let first = out
                .iter()
                .find(|p| p.ip().map(|h| h.src) == Some(*src))
                .expect("source appears in the capture");
            assert_eq!(first.ip().map(|h| h.dst), Some(hp), "probe first: {src}");
        }
        // The flood arrives strictly after the planted capture goes cold.
        let last_planted = pkts.last().map_or(0, |p| p.ts_micros);
        for p in &out[pkts.len()..] {
            assert!(p.ts_micros >= last_planted + 1_000_000);
        }

        // Zero-intensity config is the identity.
        let mut quiet = ChaosLog::default();
        let same = exhaustion_flood(
            &mut StdRng::seed_from_u64(41),
            &pkts,
            hp,
            &ExhaustionConfig {
                flood_flows: 0,
                flood_payload: 0,
                frag_datagrams: 0,
            },
            &mut quiet,
        );
        assert_eq!(same.len(), pkts.len());
        assert_eq!(quiet.exhaustion_bytes, 0);
        assert!(quiet.flood_sources.is_empty());
    }

    #[test]
    fn flood_targets_only_existing_destinations() {
        let pkts = capture();
        let mut dsts: Vec<Ipv4Addr> = pkts.iter().filter_map(|p| p.ip().map(|h| h.dst)).collect();
        dsts.sort_unstable();
        dsts.dedup();
        let cfg = ChaosConfig {
            rate: 0.0,
            flood_flows: 16,
            truncate_tail: false,
            bogus_incl_len: false,
        };
        let mut log = ChaosLog::default();
        let out = chaos_packets(&mut StdRng::seed_from_u64(7), &pkts, &cfg, &mut log);
        assert_eq!(out.len(), pkts.len() + 16);
        for p in &out[pkts.len()..] {
            let ip = p.ip().unwrap();
            assert!(dsts.contains(&ip.dst));
            assert_eq!(ip.src.octets()[0], 203);
        }
    }
}
