//! §5.4 — false-positive evaluation.
//!
//! Paper: one month of benign traffic from two Class C networks (566 MB),
//! classification disabled so *every* payload is analyzed; zero false
//! positives. The default run scales the corpus; pass the paper's size to
//! reproduce at full volume.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snids_core::{Nids, NidsConfig};
use std::time::Instant;

/// The outcome of the FP study.
#[derive(Debug, Clone)]
pub struct Report {
    /// Payloads analyzed.
    pub payloads: usize,
    /// Total corpus bytes.
    pub bytes: usize,
    /// False positives raised.
    pub false_positives: usize,
    /// Wall time (milliseconds).
    pub millis: u128,
}

impl Report {
    /// Corpus throughput in MB/s.
    pub fn mb_per_sec(&self) -> f64 {
        if self.millis == 0 {
            return f64::INFINITY;
        }
        (self.bytes as f64 / 1e6) / (self.millis as f64 / 1e3)
    }
}

/// Run the FP study over approximately `target_bytes` of benign payloads
/// with classification disabled (every payload analyzed, as in §5.4).
pub fn run(seed: u64, target_bytes: usize) -> Report {
    let mut rng = StdRng::seed_from_u64(seed);
    let corpus = snids_gen::traces::benign_corpus(&mut rng, target_bytes);
    let mut nids = Nids::new(NidsConfig {
        classification_enabled: false,
        ..NidsConfig::default()
    });

    let bytes: usize = corpus.iter().map(Vec::len).sum();
    let t0 = Instant::now();
    let mut false_positives = 0usize;
    for payload in &corpus {
        false_positives += nids.analyze_payload(payload).len();
    }
    Report {
        payloads: corpus.len(),
        bytes,
        false_positives,
        millis: t0.elapsed().as_millis(),
    }
}

/// Render the report.
pub fn render(r: &Report) -> String {
    format!(
        "payloads analyzed : {}\ncorpus bytes      : {} ({:.1} MB)\nfalse positives   : {}\nwall time         : {} ms ({:.2} MB/s)\n",
        r.payloads,
        r.bytes,
        r.bytes as f64 / 1e6,
        r.false_positives,
        r.millis,
        r.mb_per_sec()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp_study_is_clean_at_test_scale() {
        let r = run(99, 256 * 1024);
        assert_eq!(r.false_positives, 0, "{r:?}");
        assert!(r.bytes >= 256 * 1024);
        assert!(r.payloads > 50);
        assert!(render(&r).contains("false positives   : 0"));
    }
}
