#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! Traffic classification (paper §4.1).
//!
//! "Traffic classification is necessary to determine which packets are
//! 'interesting' and require further analysis." Two schemes, exactly as the
//! paper describes:
//!
//! 1. **Honeypot** ([`honeypot`]): a list of decoy addresses that exist for
//!    no other purpose than to attract unsolicited traffic. Any host that
//!    ever sends to a decoy is suspicious, and *all* of its subsequent
//!    packets are analyzed.
//! 2. **Dark address space** ([`darkspace`]): the network's unused address
//!    ranges. A source whose count of probes into dark space reaches a
//!    threshold `t` is flagged as a scanner (the worm-detection path).
//!
//! [`TrafficClassifier`] combines both behind one verdict API and is
//! internally synchronized (`parking_lot`) so the pipeline can consult it
//! from parallel flow analyses.

pub mod darkspace;
pub mod honeypot;

pub use darkspace::{DarkSpaceMonitor, Subnet};
pub use honeypot::HoneypotRegistry;

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use snids_packet::Packet;
use std::net::Ipv4Addr;

/// Why a source is considered suspicious.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Suspicion {
    /// The source contacted a honeypot decoy.
    Honeypot,
    /// The source probed `t` or more dark addresses.
    DarkSpaceScan,
}

/// Classification verdict for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Verdict {
    /// Regular traffic — skip the expensive stages.
    Benign,
    /// Analyze this packet (and this source's future packets).
    Suspicious(Suspicion),
}

impl Verdict {
    /// True for the suspicious case.
    pub fn is_suspicious(self) -> bool {
        matches!(self, Verdict::Suspicious(_))
    }
}

/// The combined classifier.
#[derive(Debug)]
pub struct TrafficClassifier {
    honeypot: RwLock<HoneypotRegistry>,
    darkspace: RwLock<DarkSpaceMonitor>,
    /// When false, every packet is handed to analysis (the paper's §5.4
    /// false-positive experiment disables classification this way).
    enabled: bool,
}

impl TrafficClassifier {
    /// Classifier with the given decoys and dark ranges.
    pub fn new(honeypot: HoneypotRegistry, darkspace: DarkSpaceMonitor) -> Self {
        TrafficClassifier {
            honeypot: RwLock::new(honeypot),
            darkspace: RwLock::new(darkspace),
            enabled: true,
        }
    }

    /// A classifier that marks everything suspicious (classification
    /// disabled — §5.4 mode).
    pub fn disabled() -> Self {
        TrafficClassifier {
            honeypot: RwLock::new(HoneypotRegistry::default()),
            darkspace: RwLock::new(DarkSpaceMonitor::default()),
            enabled: false,
        }
    }

    /// Whether classification is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Classify one packet, updating per-source state.
    pub fn classify(&self, packet: &Packet) -> Verdict {
        if !self.enabled {
            return Verdict::Suspicious(Suspicion::Honeypot);
        }
        let (Some(src), Some(dst)) = (packet.src_ip(), packet.dst_ip()) else {
            return Verdict::Benign;
        };
        // Honeypot scheme.
        {
            let hp = self.honeypot.read();
            if hp.is_tainted(src) {
                return Verdict::Suspicious(Suspicion::Honeypot);
            }
        }
        if self.honeypot.read().is_decoy(dst) {
            self.honeypot.write().taint(src);
            return Verdict::Suspicious(Suspicion::Honeypot);
        }
        // Dark-space scheme.
        {
            let ds = self.darkspace.read();
            if ds.is_flagged(src) {
                return Verdict::Suspicious(Suspicion::DarkSpaceScan);
            }
        }
        if self.darkspace.read().is_dark(dst) && self.darkspace.write().record_probe(src, dst) {
            return Verdict::Suspicious(Suspicion::DarkSpaceScan);
        }
        Verdict::Benign
    }

    /// Is this source currently flagged by either scheme?
    pub fn is_suspicious_source(&self, src: Ipv4Addr) -> bool {
        self.honeypot.read().is_tainted(src) || self.darkspace.read().is_flagged(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snids_packet::PacketBuilder;

    fn pkt(src: [u8; 4], dst: [u8; 4]) -> Packet {
        PacketBuilder::new(Ipv4Addr::from(src), Ipv4Addr::from(dst))
            .tcp_syn(40000, 80, 1)
            .unwrap()
    }

    fn classifier(threshold: u32) -> TrafficClassifier {
        let mut hp = HoneypotRegistry::default();
        hp.add_decoy(Ipv4Addr::new(192, 168, 9, 9));
        let mut ds = DarkSpaceMonitor::new(threshold);
        ds.add_dark(Subnet::new(Ipv4Addr::new(10, 99, 0, 0), 16));
        TrafficClassifier::new(hp, ds)
    }

    #[test]
    fn honeypot_taints_source_for_all_future_traffic() {
        let c = classifier(3);
        let attacker = [1, 2, 3, 4];
        // first touch of the decoy flags immediately
        assert!(c.classify(&pkt(attacker, [192, 168, 9, 9])).is_suspicious());
        // ...and every later packet to anywhere is suspicious
        assert!(c.classify(&pkt(attacker, [192, 168, 1, 1])).is_suspicious());
        assert!(c.is_suspicious_source(Ipv4Addr::from(attacker)));
        // an unrelated host remains benign
        assert_eq!(
            c.classify(&pkt([5, 6, 7, 8], [192, 168, 1, 1])),
            Verdict::Benign
        );
    }

    #[test]
    fn darkspace_threshold_counts_distinct_targets() {
        let c = classifier(3);
        let scanner = [6, 6, 6, 6];
        assert_eq!(c.classify(&pkt(scanner, [10, 99, 0, 1])), Verdict::Benign);
        // repeats of the same dark address do not advance the count
        assert_eq!(c.classify(&pkt(scanner, [10, 99, 0, 1])), Verdict::Benign);
        assert_eq!(c.classify(&pkt(scanner, [10, 99, 0, 2])), Verdict::Benign);
        // third distinct dark address crosses t=3
        assert!(c.classify(&pkt(scanner, [10, 99, 0, 3])).is_suspicious());
        // from now on, everything from the scanner is analyzed
        assert!(c.classify(&pkt(scanner, [192, 168, 1, 1])).is_suspicious());
    }

    #[test]
    fn disabled_classifier_analyzes_everything() {
        let c = TrafficClassifier::disabled();
        assert!(!c.is_enabled());
        assert!(c.classify(&pkt([9, 9, 9, 9], [8, 8, 8, 8])).is_suspicious());
    }

    #[test]
    fn benign_traffic_stays_benign() {
        let c = classifier(3);
        for i in 0..100u8 {
            let v = c.classify(&pkt([172, 16, 0, i], [192, 168, 1, 10]));
            assert_eq!(v, Verdict::Benign);
        }
    }
}
