//! Table 2 — polymorphic shellcode detection.
//!
//! Paper: `iis-asp-overflow` detected 1/1; ADMmutate 100 instances at 68%
//! with the XOR template only, 100% after adding the Figure-7 template;
//! Clet 100 instances at 100% with the XOR template.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snids_core::{Nids, PipelineStats};
use snids_gen::exploit::decoder_prefixed_payload;
use snids_gen::{shellcode, AdmMutate, Clet};
use snids_semantic::{templates, Analyzer};

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Row {
    /// Generator / sample name.
    pub source: &'static str,
    /// Template set used.
    pub template_set: &'static str,
    /// Instances detected.
    pub detected: usize,
    /// Instances generated.
    pub total: usize,
}

impl Row {
    /// Percentage detected.
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.detected as f64 * 100.0 / self.total as f64
        }
    }
}

/// Run the Table 2 experiment with `n` instances per engine.
pub fn run(seed: u64, n: usize) -> Vec<Row> {
    run_with_stats(seed, n).0
}

/// [`run`], also returning a pipeline ledger for the corpus: every
/// generated instance is additionally pushed through the full pipeline's
/// accounted payload path (extraction → budgeted disassembly → matching),
/// so the printed table carries an integrity footer showing frames
/// extracted and any decoder bailouts. Detection percentages themselves
/// come from the direct analyzer, as in the paper's §5.2 method.
pub fn run_with_stats(seed: u64, n: usize) -> (Vec<Row>, PipelineStats) {
    let xor_only = Analyzer::new(templates::xor_only_templates());
    let full = Analyzer::default();
    let mut accountant = Nids::with_defaults();
    let mut rows = Vec::new();

    // iis-asp-overflow: a decryption routine prefixed to encoded
    // shell-spawning code.
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let inner = shellcode::execve_variant(&mut rng, 0);
        let payload = decoder_prefixed_payload(&mut rng, &inner);
        accountant.analyze_payload(&payload);
        rows.push(Row {
            source: "iis-asp-overflow",
            template_set: "xor template",
            detected: usize::from(xor_only.detects(&payload)),
            total: 1,
        });
    }

    // ADMmutate, first with the XOR template only, then the full set.
    let engine = AdmMutate::default();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
    let inner = shellcode::execve_variant(&mut rng, 0);
    let instances: Vec<Vec<u8>> = (0..n)
        .map(|_| engine.generate(&mut rng, &inner).0)
        .collect();
    for i in &instances {
        accountant.analyze_payload(i);
    }
    rows.push(Row {
        source: "ADMmutate",
        template_set: "xor template only",
        detected: instances.iter().filter(|i| xor_only.detects(i)).count(),
        total: n,
    });
    rows.push(Row {
        source: "ADMmutate",
        template_set: "xor + alternate (Fig 7)",
        detected: instances.iter().filter(|i| full.detects(i)).count(),
        total: n,
    });

    // Clet: the XOR template suffices.
    let clet = Clet::default();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(2));
    let clet_instances: Vec<Vec<u8>> = (0..n).map(|_| clet.generate(&mut rng, &inner)).collect();
    for i in &clet_instances {
        accountant.analyze_payload(i);
    }
    rows.push(Row {
        source: "Clet",
        template_set: "xor template",
        detected: clet_instances
            .iter()
            .filter(|i| xor_only.detects(i))
            .count(),
        total: n,
    });

    (rows, accountant.stats().clone())
}

/// Render in the paper's tabular style.
pub fn render(rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<18} {:<26} {:>10} {:>8}",
        "source", "templates", "detected", "rate"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<18} {:<26} {:>6}/{:<3} {:>7.0}%",
            r.source,
            r.template_set,
            r.detected,
            r.total,
            r.rate()
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_shape_holds() {
        let rows = run(7, 50);
        assert_eq!(rows.len(), 4);
        // iis-asp-overflow: 1/1
        assert_eq!(rows[0].detected, 1);
        // ADMmutate xor-only: strictly partial (the 68% shape)
        assert!(rows[1].detected < rows[1].total, "{rows:?}");
        assert!(rows[1].rate() > 40.0 && rows[1].rate() < 90.0, "{rows:?}");
        // full set: 100%
        assert_eq!(rows[2].detected, rows[2].total, "{rows:?}");
        // Clet with xor template: 100%
        assert_eq!(rows[3].detected, rows[3].total, "{rows:?}");
        let rendered = render(&rows);
        assert!(rendered.contains("ADMmutate"));
        assert!(rendered.contains("100%"));
    }
}
