//! Ablations backing the paper's two comparative claims.
//!
//! * **A2 — efficiency (contribution b)**: the pruned analyzer versus the
//!   exhaustive every-offset matcher that stands in for `[5]`'s host checker.
//!   The paper's shape: 2.36–6.5 s versus ~40 s, i.e. roughly an order of
//!   magnitude.
//! * **A1 — the classifier (§3 discussion)**: Crypkey/ASProtect-style
//!   copy-protected downloads contain genuine decryption stubs. A host-
//!   style scan flags every one; the NIDS with classification never
//!   analyzes them (they are ordinary server-to-client transfers), so the
//!   false-positive rate stays zero.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snids_core::{Nids, NidsConfig};
use snids_gen::traces::{copy_protected_corpus, tcp_flow_packets, AddressPlan};
use snids_semantic::{Analyzer, NaiveAnalyzer};
use std::time::Instant;

/// A2 result: pruned-vs-naive timing on identical frames.
#[derive(Debug, Clone)]
pub struct NaiveVsPruned {
    /// Frame size analyzed.
    pub frame_bytes: usize,
    /// Pruned analyzer time (µs).
    pub pruned_micros: u128,
    /// Naive analyzer time (µs).
    pub naive_micros: u128,
    /// Both made the same detection decision.
    pub agree: bool,
}

impl NaiveVsPruned {
    /// The speedup factor.
    pub fn speedup(&self) -> f64 {
        if self.pruned_micros == 0 {
            return f64::INFINITY;
        }
        self.naive_micros as f64 / self.pruned_micros as f64
    }
}

/// Run A2 over a range of frame sizes (exploit frames with real decoders).
pub fn naive_vs_pruned(seed: u64, sizes: &[usize]) -> Vec<NaiveVsPruned> {
    let pruned = Analyzer::default();
    let naive = NaiveAnalyzer::default();
    let engine = snids_gen::AdmMutate::default();
    sizes
        .iter()
        .map(|&size| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(size as u64));
            // an exploit frame padded with benign code to the target size
            let inner = snids_gen::shellcode::execve_variant(&mut rng, 0);
            let (decoder, _) = engine.generate(&mut rng, &inner);
            let mut frame =
                snids_gen::binaries::netsky_like(&mut rng, size.saturating_sub(decoder.len()));
            frame.extend_from_slice(&decoder);

            let t0 = Instant::now();
            let p_hit = pruned.detects(&frame);
            let pruned_micros = t0.elapsed().as_micros();
            let t1 = Instant::now();
            let n_hit = naive.detects(&frame);
            let naive_micros = t1.elapsed().as_micros();
            NaiveVsPruned {
                frame_bytes: frame.len(),
                pruned_micros,
                naive_micros,
                agree: p_hit == n_hit,
            }
        })
        .collect()
}

/// A1 result.
#[derive(Debug, Clone)]
pub struct ClassifierAblation {
    /// Copy-protected downloads in the corpus.
    pub downloads: usize,
    /// Alerts from the host-style scan (classification off).
    pub host_style_alerts: usize,
    /// Alerts from the full NIDS (classification on).
    pub nids_alerts: usize,
}

/// Run A1.
pub fn classifier_ablation(seed: u64, downloads: usize) -> ClassifierAblation {
    let mut rng = StdRng::seed_from_u64(seed);
    let corpus = copy_protected_corpus(&mut rng, downloads);

    let mut host_style = Nids::new(NidsConfig {
        classification_enabled: false,
        ..NidsConfig::default()
    });
    let host_style_alerts = corpus
        .iter()
        .filter(|d| !host_style.analyze_payload(d).is_empty())
        .count();

    let plan = AddressPlan::default();
    let mut nids = Nids::new(NidsConfig {
        honeypots: plan.honeypots.clone(),
        dark_nets: vec![(plan.dark_net, 16)],
        ..NidsConfig::default()
    });
    let mut packets = Vec::new();
    for (i, d) in corpus.iter().enumerate() {
        packets.extend(tcp_flow_packets(
            plan.web_server,
            plan.client(&mut rng),
            80,
            (3000 + i) as u16,
            d,
            i as u64 * 1000,
            i as u32,
        ));
    }
    let nids_alerts = nids.process_capture(&packets).len();

    ClassifierAblation {
        downloads,
        host_style_alerts,
        nids_alerts,
    }
}

/// Render A2 rows.
pub fn render_naive_vs_pruned(rows: &[NaiveVsPruned]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:>12} {:>14} {:>14} {:>10} {:>7}",
        "frame bytes", "pruned (µs)", "naive[5] (µs)", "speedup", "agree"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:>12} {:>14} {:>14} {:>9.1}x {:>7}",
            r.frame_bytes,
            r.pruned_micros,
            r.naive_micros,
            r.speedup(),
            r.agree
        );
    }
    s
}

/// Render A1.
pub fn render_classifier(r: &ClassifierAblation) -> String {
    format!(
        "copy-protected downloads : {}\nhost-style scan alerts   : {} (every protection stub flagged)\nfull NIDS alerts         : {} (classification shields benign downloads)\n",
        r.downloads, r.host_style_alerts, r.nids_alerts
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a2_pruned_is_faster_and_agrees() {
        let rows = naive_vs_pruned(5, &[2048, 8192]);
        for r in &rows {
            assert!(r.agree, "{r:?}");
            assert!(
                r.naive_micros > r.pruned_micros,
                "naive must be slower: {r:?}"
            );
        }
    }

    #[test]
    fn a1_classifier_shields_downloads() {
        let r = classifier_ablation(6, 5);
        assert_eq!(r.host_style_alerts, 5);
        assert_eq!(r.nids_alerts, 0);
    }
}
