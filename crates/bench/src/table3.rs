//! Table 3 — detection of the Code Red II worm.
//!
//! Paper: 12 five-minute traces from two Class B networks, >200k packets
//! each, a known number of CRII instances per trace; every instance
//! classified and matched, none missed.
//!
//! The default run scales each trace to `packets_per_trace` (the shape is
//! what matters: perfect recall, zero spurious sources, against realistic
//! background volume). Pass the paper's 200_000 for a full-size run.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snids_core::{Nids, NidsConfig, PipelineStats};
use snids_gen::traces::{codered_capture, AddressPlan};
use std::collections::HashSet;
use std::time::Instant;

/// One row (one trace) of Table 3.
#[derive(Debug, Clone)]
pub struct Row {
    /// Trace number (1-based, as in the paper).
    pub trace: usize,
    /// Total packets in the trace.
    pub packets: usize,
    /// CRII instances planted (ground truth).
    pub instances: usize,
    /// Distinct attacking sources the classifier flagged and the analyzer
    /// matched with the CRII template.
    pub matched: usize,
    /// Sources alerted that were not planted.
    pub spurious: usize,
    /// Wall time to process the trace (milliseconds).
    pub millis: u128,
}

/// Run the Table 3 experiment: `traces` captures of `packets_per_trace`.
pub fn run(seed: u64, traces: usize, packets_per_trace: usize) -> Vec<Row> {
    run_with_stats(seed, traces, packets_per_trace).0
}

/// [`run`], also returning the pipeline ledger merged across all traces —
/// the integrity footer proving no trace silently lost packets on the way
/// to its detection numbers.
pub fn run_with_stats(
    seed: u64,
    traces: usize,
    packets_per_trace: usize,
) -> (Vec<Row>, PipelineStats) {
    let plan = AddressPlan::default();
    let mut rows = Vec::new();
    let mut stats = PipelineStats::default();
    for t in 0..traces {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(t as u64));
        let instances = 1 + (t % 4); // known, varied counts like the paper's
        let (packets, truth) = codered_capture(&mut rng, &plan, packets_per_trace, instances);

        let mut nids = Nids::new(NidsConfig {
            honeypots: plan.honeypots.clone(),
            dark_nets: vec![(plan.dark_net, 16)],
            ..NidsConfig::default()
        });
        let t0 = Instant::now();
        let alerts = nids.process_capture(&packets);
        let millis = t0.elapsed().as_millis();
        stats.merge(nids.stats());

        let detected: HashSet<_> = alerts
            .iter()
            .filter(|a| a.template == "code-red-ii")
            .map(|a| a.src)
            .collect();
        let matched = truth
            .crii_sources
            .iter()
            .filter(|s| detected.contains(s))
            .count();
        let spurious = detected
            .iter()
            .filter(|s| !truth.crii_sources.contains(s))
            .count();

        rows.push(Row {
            trace: t + 1,
            packets: packets.len(),
            instances,
            matched,
            spurious,
            millis,
        });
    }
    (rows, stats)
}

/// Render in the paper's tabular style.
pub fn render(rows: &[Row]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:<7} {:>10} {:>10} {:>9} {:>9} {:>10}",
        "trace", "packets", "instances", "matched", "spurious", "time (ms)"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<7} {:>10} {:>10} {:>9} {:>9} {:>10}",
            r.trace, r.packets, r.instances, r.matched, r.spurious, r.millis
        );
    }
    let total_inst: usize = rows.iter().map(|r| r.instances).sum();
    let total_match: usize = rows.iter().map(|r| r.matched).sum();
    let _ = writeln!(s, "\ntotal: {total_match}/{total_inst} instances matched");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_shape_holds_scaled() {
        let rows = run(3, 3, 1200);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert_eq!(
                r.matched, r.instances,
                "trace {}: missed instances",
                r.trace
            );
            assert_eq!(r.spurious, 0, "trace {}: spurious alerts", r.trace);
            assert!(r.packets >= 1200);
        }
        let rendered = render(&rows);
        assert!(rendered.contains("instances matched"));
    }
}
