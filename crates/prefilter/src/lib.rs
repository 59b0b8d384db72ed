#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! # snids-prefilter — the vectorized pre-filter fast path
//!
//! The semantic pipeline (extraction → x86 decode → IR lift → template
//! match) costs ~100× a header check, yet most packets that survive
//! classification are benign background traffic that will never produce
//! an alert. This crate is the gate that rejects that traffic for ~free:
//! a **three-lane, batch-oriented fast path** that runs between
//! classification and the flow table and decides, per packet, *escalate*
//! (hand to reassembly + deep analysis) or *reject* (count it and move
//! on).
//!
//! The three lanes, cheapest first:
//!
//! 1. **Header lane** ([`HeaderLane`]) — 5-tuple/port/flag predicates
//!    compiled into flat per-field lookup tables; matching is four table
//!    loads and three `AND`s, branch-free, batched over
//!    structure-of-arrays chunks ([`HeaderBatch`]). Rules name
//!    always-interesting destinations (honeypot decoys, dark ranges).
//! 2. **Signature lane** — Aho-Corasick payload screening reusing
//!    [`snids_sig::RuleSet`]: one pass over the payload against every
//!    pattern simultaneously.
//! 3. **N-gram lane** ([`NgramScorer`]) — a position-aware byte-class
//!    score (sled-opcode weighting in the leading window, period-4
//!    retaddr repeats in the tail) gating sled/retaddr extraction.
//!
//! Escalation is deliberately asymmetric: any single lane firing
//! escalates, and escalation is **sticky per source** — once a source
//! has looked interesting, its later segments bypass the gate so
//! multi-segment exploits can never hide their tail. Control packets
//! (empty payloads: SYN/ACK/FIN handshakes) always escalate, because
//! flow bookkeeping is cheap and the flow table needs them. The failure
//! mode is therefore biased: a wrong *escalate* costs nanoseconds, a
//! wrong *reject* would cost a detection — and the e2e suite pins that
//! the gate changes nothing about the alert stream on the attack corpus.
//!
//! ```
//! use snids_prefilter::{Decision, Lane, Prefilter, PrefilterConfig};
//! use snids_packet::PacketBuilder;
//! use std::net::Ipv4Addr;
//!
//! let mut pf = Prefilter::new(PrefilterConfig::default());
//! let b = PacketBuilder::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
//! // An encoded payload no static signature knows: the n-gram lane's job.
//! let encoded: Vec<u8> = [0xde, 0xad, 0xbe, 0xef].repeat(32);
//! let pkt = b.tcp(40000, 80, 1, 0, snids_packet::TcpFlags::ACK, &encoded).unwrap();
//! assert_eq!(pf.decide(&pkt, false), Decision::Escalate(Lane::Ngram));
//! let text = b.tcp(40001, 80, 1, 0, snids_packet::TcpFlags::ACK, b"GET / HTTP/1.0\r\n\r\n");
//! // Same source: sticky escalation, the exploit source can't hide.
//! assert_eq!(pf.decide(&text.unwrap(), false), Decision::Escalate(Lane::Sticky));
//! ```

mod batch;
pub mod header;
pub mod ngram;

pub use batch::{HeaderBatch, BATCH_CHUNK};
pub use header::{HeaderFields, HeaderLane, HeaderRule, MAX_RULES};
pub use ngram::{NgramConfig, NgramScorer};

use snids_packet::Packet;
use snids_sig::RuleSet;
use std::collections::{BTreeMap, HashSet};
use std::net::Ipv4Addr;

/// Which mechanism escalated a packet (diagnostics + counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Payload-free control packet (handshake/teardown): the flow table
    /// needs it and analysing it costs nothing.
    Control,
    /// The source (or its flow) already escalated earlier — later
    /// segments ride through so split payloads stay whole.
    Sticky,
    /// A compiled header rule matched the 5-tuple.
    Header,
    /// A signature pattern matched the payload.
    Signature,
    /// The position-aware n-gram score cleared the threshold.
    Ngram,
}

impl Lane {
    /// Stable lower-case name for counters and reports.
    pub fn name(self) -> &'static str {
        match self {
            Lane::Control => "control",
            Lane::Sticky => "sticky",
            Lane::Header => "header",
            Lane::Signature => "signature",
            Lane::Ngram => "ngram",
        }
    }
}

/// The gate's verdict for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Hand the packet to the flow table and deep pipeline.
    Escalate(Lane),
    /// Benign-looking: count it and skip deep analysis.
    Reject,
}

impl Decision {
    /// Is this an escalation?
    pub fn is_escalate(self) -> bool {
        matches!(self, Decision::Escalate(_))
    }
}

/// Pre-filter configuration: the rule inputs for all three lanes.
#[derive(Debug, Clone, Default)]
pub struct PrefilterConfig {
    /// Header-lane rules ([`MAX_RULES`] cap applies).
    pub header_rules: Vec<HeaderRule>,
    /// N-gram scorer parameters.
    pub ngram: NgramConfig,
}

impl PrefilterConfig {
    /// The deployment-shaped rule set: all traffic to honeypot decoys
    /// and into dark address ranges escalates on headers alone (the
    /// paper's premise — nothing legitimate goes there). Service ports
    /// are deliberately *not* header-escalated; payload lanes own that.
    pub fn deployment_rules(honeypots: &[Ipv4Addr], dark_nets: &[(Ipv4Addr, u8)]) -> Self {
        let mut header_rules = Vec::new();
        for h in honeypots {
            header_rules.push(HeaderRule::to_host("honeypot-decoy", *h));
        }
        for (net, prefix) in dark_nets {
            header_rules.push(HeaderRule::to_net("dark-range", *net, *prefix));
        }
        PrefilterConfig {
            header_rules,
            ngram: NgramConfig::default(),
        }
    }
}

/// The assembled three-lane gate. One instance per [`Nids`] pipeline;
/// the sticky-source set is the only mutable state.
///
/// [`Nids`]: https://docs.rs/snids-core
pub struct Prefilter {
    header: HeaderLane,
    header_truncated: bool,
    sigs: RuleSet,
    ngram: NgramScorer,
    sticky: HashSet<Ipv4Addr>,
    rule_hits: BTreeMap<(&'static str, &'static str), u64>,
}

impl Prefilter {
    /// Build the gate: compile header rules, load the default signature
    /// rule set, and bake the n-gram weight tables.
    pub fn new(config: PrefilterConfig) -> Prefilter {
        let header = HeaderLane::compile(&config.header_rules);
        let header_truncated = header.truncated(config.header_rules.len());
        Prefilter {
            header,
            header_truncated,
            sigs: snids_sig::default_ruleset(),
            ngram: NgramScorer::new(config.ngram),
            sticky: HashSet::new(),
            rule_hits: BTreeMap::new(),
        }
    }

    /// The compiled header lane (for batched benchmarking).
    pub fn header_lane(&self) -> &HeaderLane {
        &self.header
    }

    /// The n-gram scorer.
    pub fn ngram(&self) -> &NgramScorer {
        &self.ngram
    }

    /// True when more than [`MAX_RULES`] header rules were supplied.
    pub fn header_truncated(&self) -> bool {
        self.header_truncated
    }

    /// Number of sources currently pinned sticky.
    pub fn sticky_sources(&self) -> usize {
        self.sticky.len()
    }

    /// Per-`(lane, rule)` escalation hit counts, in lexical order.
    ///
    /// Every key is a `&'static str` pair — header-rule and signature
    /// names are compiled in, and the control/sticky/n-gram lanes use
    /// one fixed rule name each — so the cardinality is bounded by the
    /// rule tables, never by traffic.
    pub fn rule_hits(&self) -> impl Iterator<Item = (&'static str, &'static str, u64)> + '_ {
        self.rule_hits
            .iter()
            .map(|(&(lane, rule), &n)| (lane, rule, n))
    }

    fn record_hit(&mut self, lane: &'static str, rule: &'static str) {
        *self.rule_hits.entry((lane, rule)).or_insert(0) += 1;
    }

    /// Gate one packet. `flow_buffered` is true when the packet's flow
    /// already holds reassembled payload — such flows are mid-analysis
    /// and must keep receiving segments regardless of lane scores.
    ///
    /// Lane order is cost order: control check (one length test), sticky
    /// set lookup, header tables, signature automaton, n-gram score.
    /// Header/signature/n-gram escalations pin the source sticky.
    pub fn decide(&mut self, packet: &Packet, flow_buffered: bool) -> Decision {
        let payload = packet.payload();
        if payload.is_empty() {
            self.record_hit("control", "empty-payload");
            return Decision::Escalate(Lane::Control);
        }
        let src = packet.ip().map(|ip| ip.src);
        if flow_buffered || src.map(|s| self.sticky.contains(&s)).unwrap_or(false) {
            self.record_hit("sticky", "pinned-source");
            return Decision::Escalate(Lane::Sticky);
        }
        // Each lane attributes its escalation to the specific rule that
        // fired (lowest-bit header rule / first signature hit); the
        // n-gram lane has a single scoring "rule".
        let mask = self.header.match_mask(&HeaderFields::of(packet));
        let hit: Option<(Lane, &'static str)> = if mask != 0 {
            let rule = self
                .header
                .rules()
                .get(mask.trailing_zeros() as usize)
                .map(|r| r.name)
                .unwrap_or("unknown");
            Some((Lane::Header, rule))
        } else if let Some(sig) = self.sigs.match_payload(payload, packet.dst_port()).first() {
            Some((Lane::Signature, sig.rule))
        } else if self.ngram.is_suspicious(payload) {
            Some((Lane::Ngram, "position-score"))
        } else {
            None
        };
        match hit {
            Some((lane, rule)) => {
                if let Some(s) = src {
                    self.sticky.insert(s);
                }
                self.record_hit(lane.name(), rule);
                Decision::Escalate(lane)
            }
            None => Decision::Reject,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snids_packet::{PacketBuilder, TcpFlags};

    fn builder(last: u8) -> PacketBuilder {
        PacketBuilder::new(
            Ipv4Addr::new(198, 18, 0, last),
            Ipv4Addr::new(192, 168, 1, 10),
        )
    }

    fn data(b: &PacketBuilder, sport: u16, payload: &[u8]) -> Packet {
        b.tcp(sport, 80, 1, 0, TcpFlags::PSH | TcpFlags::ACK, payload)
            .unwrap()
    }

    #[test]
    fn control_packets_always_escalate() {
        let mut pf = Prefilter::new(PrefilterConfig::default());
        let syn = builder(1).tcp_syn(40000, 80, 1).unwrap();
        assert_eq!(pf.decide(&syn, false), Decision::Escalate(Lane::Control));
        // Control escalation is not sticky: benign text after a
        // handshake still gets judged on its own merits.
        let text = data(&builder(1), 40000, b"GET / HTTP/1.0\r\n\r\n");
        assert_eq!(pf.decide(&text, false), Decision::Reject);
    }

    #[test]
    fn sled_escalates_and_pins_the_source_sticky() {
        let mut pf = Prefilter::new(PrefilterConfig::default());
        let b = builder(2);
        // A plain NOP sled is a *signature* hit (the 0x90×14 rule); use
        // an encoded payload to exercise the n-gram lane.
        assert_eq!(
            pf.decide(&data(&b, 40000, &[0x90u8; 128]), false),
            Decision::Escalate(Lane::Signature)
        );
        let encoded: Vec<u8> = [0xde, 0xad, 0xbe, 0xef].repeat(32);
        assert_eq!(
            pf.decide(&data(&builder(7), 40000, &encoded), false),
            Decision::Escalate(Lane::Ngram)
        );
        assert_eq!(pf.sticky_sources(), 2);
        assert_eq!(
            pf.decide(&data(&b, 40000, b"plain text continuation"), false),
            Decision::Escalate(Lane::Sticky)
        );
    }

    #[test]
    fn buffered_flows_escalate_even_from_fresh_sources() {
        let mut pf = Prefilter::new(PrefilterConfig::default());
        let text = data(&builder(3), 40000, b"benign looking tail segment");
        assert_eq!(pf.decide(&text, true), Decision::Escalate(Lane::Sticky));
    }

    #[test]
    fn header_rules_escalate_honeypot_traffic() {
        let decoy = Ipv4Addr::new(192, 168, 1, 200);
        let mut pf = Prefilter::new(PrefilterConfig::deployment_rules(&[decoy], &[]));
        let b = PacketBuilder::new(Ipv4Addr::new(198, 18, 0, 4), decoy);
        let p = b
            .tcp(40000, 80, 1, 0, TcpFlags::PSH | TcpFlags::ACK, b"hello")
            .unwrap();
        assert_eq!(pf.decide(&p, false), Decision::Escalate(Lane::Header));
    }

    #[test]
    fn signature_lane_catches_text_exploit_preambles() {
        let mut pf = Prefilter::new(PrefilterConfig::default());
        // Code Red's text preamble would sail past the n-gram score.
        let p = data(&builder(5), 40000, b"GET /default.ida?XXXXXXXX HTTP/1.0");
        assert_eq!(pf.decide(&p, false), Decision::Escalate(Lane::Signature));
    }

    #[test]
    fn counters_balance_against_decisions() {
        let mut pf = Prefilter::new(PrefilterConfig::default());
        let b = builder(6);
        let mut decisions = Vec::new();
        for (i, payload) in [
            &b"GET / HTTP/1.0\r\n\r\n"[..],
            &[0x90u8; 64][..],
            &b"tail"[..],
            &[][..],
        ]
        .iter()
        .enumerate()
        {
            let p = data(&b, 41000 + i as u16, payload);
            decisions.push(pf.decide(&p, false));
        }
        let mut lanes: Vec<&str> = decisions
            .iter()
            .filter_map(|d| match d {
                Decision::Escalate(lane) => Some(lane.name()),
                Decision::Reject => None,
            })
            .collect();
        assert_eq!((decisions.len(), lanes.len()), (4, 3), "{decisions:?}");
        // Each escalation is one rule hit, charged to the lane that
        // decided it (hits come in lexical order).
        lanes.sort_unstable();
        let hit_lanes: Vec<&str> = pf
            .rule_hits()
            .flat_map(|(lane, _, n)| std::iter::repeat_n(lane, n as usize))
            .collect();
        assert_eq!(hit_lanes, lanes);
    }

    #[test]
    fn rule_hits_attribute_escalations_to_named_rules() {
        let decoy = Ipv4Addr::new(192, 168, 1, 200);
        let mut pf = Prefilter::new(PrefilterConfig::deployment_rules(&[decoy], &[]));
        // Header rule by name.
        let to_decoy = PacketBuilder::new(Ipv4Addr::new(198, 18, 0, 8), decoy)
            .tcp(40000, 80, 1, 0, TcpFlags::PSH | TcpFlags::ACK, b"hello")
            .unwrap();
        pf.decide(&to_decoy, false);
        // Control + sticky lanes use one fixed rule name each.
        let syn = builder(9).tcp_syn(40001, 80, 1).unwrap();
        pf.decide(&syn, false);
        // N-gram scoring rule.
        let encoded: Vec<u8> = [0xde, 0xad, 0xbe, 0xef].repeat(32);
        pf.decide(&data(&builder(10), 40002, &encoded), false);
        pf.decide(&data(&builder(10), 40003, b"tail"), false);
        let hits: Vec<_> = pf.rule_hits().collect();
        assert!(hits.contains(&("header", "honeypot-decoy", 1)), "{hits:?}");
        assert!(hits.contains(&("control", "empty-payload", 1)), "{hits:?}");
        assert!(hits.contains(&("ngram", "position-score", 1)), "{hits:?}");
        assert!(hits.contains(&("sticky", "pinned-source", 1)), "{hits:?}");
        // Rejections are not rule hits: the four escalations above are
        // all the hits.
        assert_eq!(
            pf.decide(&data(&builder(11), 40004, b"GET / HTTP/1.0\r\n\r\n"), false),
            Decision::Reject
        );
        let total: u64 = pf.rule_hits().map(|(_, _, n)| n).sum();
        assert_eq!(total, 4);
        // Lexical (lane, rule) order: deterministic exposition.
        let keys: Vec<_> = pf.rule_hits().map(|(l, r, _)| (l, r)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }
}
