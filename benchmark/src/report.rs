//! Metric names, units and bounds (the same table as `BENCHMARK.json`;
//! `tests/smoke.rs` holds the two together), the result line, and the
//! provenance block every report starts with.

use std::fmt::Write as _;

/// An end-to-end metric: what a user of `snids analyze` would see.
pub struct EndToEnd {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// True when a larger value is the better one.
    pub higher_is_better: bool,
    /// Share of the earlier median by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, measured with tracing and obs off.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "pps",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.10,
    },
    EndToEnd {
        name: "cpu_ns_per_pkt",
        unit: "ns",
        higher_is_better: false,
        bound: 0.10,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        higher_is_better: false,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.10,
    },
];

/// The per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("packet.parse_ns_per_pkt", "ns"),
    ("packet.checksum_ns_per_pkt", "ns"),
    ("packet.errors", "count"),
    ("classify.ns_per_pkt", "ns"),
    ("classify.suspicious_share", "share"),
    ("prefilter.ns_per_pkt", "ns"),
    ("prefilter.reject_share", "share"),
    ("flow.track_ns_per_pkt", "ns"),
    ("flow.defrag_ns_per_frag", "ns"),
    ("flow.peak_live", "count"),
    ("flow.shed", "count"),
    ("flow.conflict_bytes", "B"),
    ("flow.peak_tracked_bytes", "B"),
    ("extract.ns_per_byte", "ns"),
    ("extract.frames_per_flow", "count"),
    ("x86.ns_per_insn", "ns"),
    ("x86.sweep_ns_per_insn", "ns"),
    ("x86.insns", "count"),
    ("x86.bailouts", "count"),
    ("ir.lift_ns_per_insn", "ns"),
    ("ir.dataflow_ns_per_flow", "ns"),
    ("semantic.match_ns_per_frame", "ns"),
    ("semantic.match_share", "share"),
    ("semantic.dup_frame_share", "share"),
    ("core.call_p50_ns", "ns"),
    ("core.call_p99_ns", "ns"),
    ("core.call_max_ns", "ns"),
    ("core.finish_s", "s"),
    ("core.glue_share", "share"),
    ("core.replay_divergence", "share"),
    ("exec.busy_share", "share"),
    ("exec.tasks", "count"),
    ("exec.steals", "count"),
    ("obs.overhead", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The unit of a metric in either table; panics on a name neither has (a
/// typo in the benchmark, caught by the first smoke run).
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name} is in neither table"))
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`, printed last.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            json_number(*value),
            unit_of(name),
        );
    }
    out.push_str("}}");
    out
}

/// A float as a JSON number with all its digits (non-finite becomes 0,
/// which JSON can carry and the gate then rejects).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The commit checked out in the enclosing git repository, read from its
/// files; "unknown" outside one (the driver's checkouts are not repos).
fn git_commit() -> String {
    let mut dir = std::env::current_dir().ok();
    while let Some(d) = dir {
        let git = d.join(".git");
        if let Ok(head) = std::fs::read_to_string(git.join("HEAD")) {
            let head = head.trim();
            let Some(reference) = head.strip_prefix("ref: ") else {
                return head.to_string();
            };
            if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
                return sha.trim().to_string();
            }
            if let Ok(packed) = std::fs::read_to_string(git.join("packed-refs")) {
                if let Some(sha) = packed
                    .lines()
                    .find_map(|l| l.strip_suffix(reference).map(str::trim))
                {
                    return sha.to_string();
                }
            }
            break;
        }
        dir = d.parent().map(Into::into);
    }
    "unknown".into()
}

/// The provenance block: what the numbers below were measured on.
pub fn provenance(seed: u64, smoke: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let engine_threads = snids_exec::default_threads();
    let quota = std::fs::read_to_string("/sys/fs/cgroup/cpu.max")
        .map_or_else(|_| "unavailable".into(), |s| s.trim().to_string());
    let mut out = String::new();
    let _ = writeln!(out, "provenance:");
    let _ = writeln!(out, "  nproc            {nproc}");
    let _ = writeln!(out, "  cgroup cpu.max   {quota}");
    let _ = writeln!(out, "  rustc            {}", env!("BENCH_RUSTC_VERSION"));
    let _ = writeln!(out, "  build profile    {}", env!("BENCH_PROFILE"));
    let _ = writeln!(out, "  git commit       {}", git_commit());
    let _ = writeln!(out, "  seed             {seed}");
    let _ = writeln!(out, "  engine threads   {engine_threads}");
    let _ = writeln!(
        out,
        "  size             {}",
        if smoke { "smoke (1/100)" } else { "full" }
    );
    // `cpu.max` is "<quota> <period>" in microseconds, or "max <period>".
    let mut fields = quota.split_whitespace().map(str::parse::<f64>);
    if let (Some(Ok(q)), Some(Ok(p))) = (fields.next(), fields.next()) {
        if q / p < engine_threads as f64 {
            let _ = writeln!(
                out,
                "  WARNING: the CPU quota ({:.2} cores) is below the engine's {engine_threads} threads",
                q / p
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(true, 10, 0, &[("pps", 1234.5), ("setup_s", 0.001_25)]);
        let v = snids_obs::json::parse(&line).expect("the result line is JSON");
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let pps = v.get("metrics").and_then(|m| m.get("pps")).unwrap();
        assert_eq!(pps.get("value").and_then(|x| x.as_f64()), Some(1234.5));
        assert_eq!(pps.get("unit").and_then(|x| x.as_str()), Some("1/s"));
    }
}
