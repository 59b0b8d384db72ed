//! Deterministic rendering of a [`Snapshot`] as Prometheus-style text and
//! as JSON.
//!
//! Both renderers iterate stages in pipeline order and named metrics in
//! sorted order, and format nothing that depends on wall-clock time or
//! hash-map iteration, so two snapshots of equal state render to identical
//! bytes. That property is load-bearing: tests diff rendered pages.

use crate::json::escape;
use crate::registry::Snapshot;

/// Picks one quantile field out of a [`StageSnapshot`](crate::registry::StageSnapshot).
type QuantileSelector = fn(&crate::registry::StageSnapshot) -> u64;

/// Latency quantiles exposed per stage, as `(label, selector)` pairs.
const QUANTILES: [(&str, QuantileSelector); 3] = [
    ("0.5", |s| s.p50_nanos),
    ("0.9", |s| s.p90_nanos),
    ("0.99", |s| s.p99_nanos),
];

/// Render a Prometheus-style text exposition page.
///
/// Named counters whose names already embed a label set (e.g.
/// `snids_pool_tasks_total{thread="0"}`) are emitted verbatim; plain names
/// get no labels. Each named family is typed by its name: `_total` is a
/// counter, anything else a gauge.
pub fn render_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("# HELP snids_stage_events_total Events handled per pipeline stage.\n");
    out.push_str("# TYPE snids_stage_events_total counter\n");
    for stage in &snap.stages {
        out.push_str(&format!(
            "snids_stage_events_total{{stage=\"{}\"}} {}\n",
            stage.stage.name(),
            stage.events
        ));
    }
    out.push_str("# HELP snids_stage_bytes_total Bytes carried by events per pipeline stage.\n");
    out.push_str("# TYPE snids_stage_bytes_total counter\n");
    for stage in &snap.stages {
        out.push_str(&format!(
            "snids_stage_bytes_total{{stage=\"{}\"}} {}\n",
            stage.stage.name(),
            stage.bytes
        ));
    }
    out.push_str(
        "# HELP snids_stage_latency_nanos Per-stage latency distribution (log2 buckets).\n",
    );
    out.push_str("# TYPE snids_stage_latency_nanos summary\n");
    for stage in &snap.stages {
        for (label, pick) in QUANTILES {
            out.push_str(&format!(
                "snids_stage_latency_nanos{{stage=\"{}\",quantile=\"{}\"}} {}\n",
                stage.stage.name(),
                label,
                pick(stage)
            ));
        }
        out.push_str(&format!(
            "snids_stage_latency_nanos_sum{{stage=\"{}\"}} {}\n",
            stage.stage.name(),
            stage.sum_nanos
        ));
        out.push_str(&format!(
            "snids_stage_latency_nanos_count{{stage=\"{}\"}} {}\n",
            stage.stage.name(),
            stage.count
        ));
        out.push_str(&format!(
            "snids_stage_latency_nanos_max{{stage=\"{}\"}} {}\n",
            stage.stage.name(),
            stage.max_nanos
        ));
    }
    out.push_str(
        "# HELP snids_stage_latency_hist_nanos Per-stage latency histogram (log2 le buckets).\n",
    );
    out.push_str("# TYPE snids_stage_latency_hist_nanos histogram\n");
    for stage in &snap.stages {
        // Native Prometheus histogram: cumulative `le` buckets. Emit up to
        // the highest occupied bucket (the tail is flat, `+Inf` covers it)
        // so the page stays compact and deterministic.
        let mut cumulative = 0u64;
        if let Some(last) = stage.buckets.iter().rposition(|&n| n > 0) {
            for (i, &n) in stage.buckets.iter().enumerate().take(last + 1) {
                cumulative += n;
                out.push_str(&format!(
                    "snids_stage_latency_hist_nanos_bucket{{stage=\"{}\",le=\"{}\"}} {}\n",
                    stage.stage.name(),
                    crate::hist::bucket_upper_bound(i),
                    cumulative
                ));
            }
        }
        out.push_str(&format!(
            "snids_stage_latency_hist_nanos_bucket{{stage=\"{}\",le=\"+Inf\"}} {}\n",
            stage.stage.name(),
            cumulative
        ));
        out.push_str(&format!(
            "snids_stage_latency_hist_nanos_sum{{stage=\"{}\"}} {}\n",
            stage.stage.name(),
            stage.sum_nanos
        ));
        out.push_str(&format!(
            "snids_stage_latency_hist_nanos_count{{stage=\"{}\"}} {}\n",
            stage.stage.name(),
            cumulative
        ));
    }
    out.push_str(
        "# HELP snids_flow_latency_nanos Per-flow total stage time by outcome (log2 buckets).\n",
    );
    out.push_str("# TYPE snids_flow_latency_nanos summary\n");
    for fl in &snap.flow_latency {
        let labels = format!(
            "stage=\"{}\",outcome=\"{}\"",
            fl.stage.name(),
            fl.outcome.name()
        );
        out.push_str(&format!(
            "snids_flow_latency_nanos{{{labels},quantile=\"0.5\"}} {}\n",
            fl.p50_nanos
        ));
        out.push_str(&format!(
            "snids_flow_latency_nanos{{{labels},quantile=\"0.9\"}} {}\n",
            fl.p90_nanos
        ));
        out.push_str(&format!(
            "snids_flow_latency_nanos{{{labels},quantile=\"0.99\"}} {}\n",
            fl.p99_nanos
        ));
        out.push_str(&format!(
            "snids_flow_latency_nanos_sum{{{labels}}} {}\n",
            fl.sum_nanos
        ));
        out.push_str(&format!(
            "snids_flow_latency_nanos_count{{{labels}}} {}\n",
            fl.count
        ));
        out.push_str(&format!(
            "snids_flow_latency_nanos_max{{{labels}}} {}\n",
            fl.max_nanos
        ));
    }
    out.push_str(&format!(
        "snids_flow_latency_tracked_flows {}\n",
        snap.flow_tracked
    ));
    // Named rows are sorted, so each family's rows are contiguous: one
    // HELP/TYPE pair heads them, a counter when the name says `_total`.
    let mut family = "";
    for (name, value) in &snap.named {
        let base = name.split('{').next().unwrap_or(name);
        if base != family {
            family = base;
            let kind = if base.ends_with("_total") {
                "counter"
            } else {
                "gauge"
            };
            out.push_str(&format!("# HELP {base} Pipeline {kind}.\n"));
            out.push_str(&format!("# TYPE {base} {kind}\n"));
        }
        out.push_str(&format!("{name} {value}\n"));
    }
    out.push_str("# HELP snids_warnings_total Process-level configuration warnings emitted.\n");
    out.push_str("# TYPE snids_warnings_total counter\n");
    out.push_str(&format!("snids_warnings_total {}\n", snap.warnings));
    out.push_str(
        "# HELP snids_flight_recorder_events_total Events recorded by the flight recorder.\n",
    );
    out.push_str("# TYPE snids_flight_recorder_events_total counter\n");
    out.push_str(&format!(
        "snids_flight_recorder_events_total {}\n",
        snap.recorder_recorded
    ));
    out.push_str(&format!(
        "snids_flight_recorder_capacity {}\n",
        snap.recorder_capacity
    ));
    out
}

/// Render a deterministic JSON document (stages in pipeline order, named
/// metrics sorted, histogram buckets as sparse `[index, count]` pairs).
pub fn render_json(snap: &Snapshot) -> String {
    let mut out = String::from("{");
    out.push_str(&format!("\"enabled\":{},", snap.enabled));
    out.push_str("\"stages\":[");
    for (i, stage) in snap.stages.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let sparse: Vec<String> = stage
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(idx, &n)| format!("[{idx},{n}]"))
            .collect();
        out.push_str(&format!(
            "{{\"stage\":\"{}\",\"events\":{},\"bytes\":{},\"latency\":{{\"count\":{},\"sum_nanos\":{},\"max_nanos\":{},\"p50_nanos\":{},\"p90_nanos\":{},\"p99_nanos\":{},\"buckets\":[{}]}}}}",
            stage.stage.name(),
            stage.events,
            stage.bytes,
            stage.count,
            stage.sum_nanos,
            stage.max_nanos,
            stage.p50_nanos,
            stage.p90_nanos,
            stage.p99_nanos,
            sparse.join(",")
        ));
    }
    out.push_str("],\"counters\":{");
    for (i, (name, value)) in snap.named.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", escape(name), value));
    }
    out.push_str("},\"flow_latency\":[");
    for (i, fl) in snap.flow_latency.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let sparse: Vec<String> = fl
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(idx, &n)| format!("[{idx},{n}]"))
            .collect();
        out.push_str(&format!(
            "{{\"stage\":\"{}\",\"outcome\":\"{}\",\"count\":{},\"sum_nanos\":{},\"max_nanos\":{},\"p50_nanos\":{},\"p90_nanos\":{},\"p99_nanos\":{},\"buckets\":[{}]}}",
            fl.stage.name(),
            fl.outcome.name(),
            fl.count,
            fl.sum_nanos,
            fl.max_nanos,
            fl.p50_nanos,
            fl.p90_nanos,
            fl.p99_nanos,
            sparse.join(",")
        ));
    }
    out.push_str(&format!("],\"flow_tracked\":{},", snap.flow_tracked));
    out.push_str(&format!(
        "\"warnings\":{},\"flight_recorder\":{{\"recorded\":{},\"capacity\":{}}}}}",
        snap.warnings, snap.recorder_recorded, snap.recorder_capacity
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Obs;
    use crate::stage::Stage;

    fn sample() -> Snapshot {
        let obs = Obs::new(8);
        obs.record_stage(Stage::Capture, 120, 60);
        obs.record_stage(Stage::Capture, 90, 40);
        obs.record_stage(Stage::TemplateMatch, 5000, 512);
        let mut snap = obs.snapshot();
        snap.named = vec![
            ("snids_drops_total{reason=\"a\"}".to_string(), 2),
            ("snids_drops_total{reason=\"b\"}".to_string(), 0),
            ("snids_pool_tasks_total{thread=\"0\"}".to_string(), 7),
            ("snids_pool_threads".to_string(), 1),
        ];
        snap
    }

    #[test]
    fn text_page_contains_stages_quantiles_and_named() {
        let page = render_text(&sample());
        assert!(page.contains("snids_stage_events_total{stage=\"capture\"} 2"));
        assert!(page.contains("snids_stage_bytes_total{stage=\"capture\"} 100"));
        assert!(
            page.contains("snids_stage_latency_nanos{stage=\"template_match\",quantile=\"0.99\"}")
        );
        assert!(page.contains("snids_stage_latency_nanos_count{stage=\"capture\"} 2"));
        assert!(page.contains("snids_pool_tasks_total{thread=\"0\"} 7"));
        assert!(page.contains("snids_flight_recorder_capacity 8"));
        // One HELP/TYPE pair per named family, typed by its name.
        assert!(page.contains(
            "# TYPE snids_drops_total counter\nsnids_drops_total{reason=\"a\"} 2\nsnids_drops_total{reason=\"b\"} 0\n"
        ));
        assert_eq!(page.matches("# TYPE snids_drops_total ").count(), 1);
        assert_eq!(page.matches("# HELP snids_drops_total ").count(), 1);
        assert!(page.contains("# TYPE snids_pool_threads gauge\nsnids_pool_threads 1\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_monotone() {
        let obs = Obs::new(8);
        // Values spanning several log2 buckets, some sharing a bucket.
        for v in [0u64, 1, 3, 90, 120, 5000, 5001] {
            obs.record_stage(Stage::Capture, v, 0);
        }
        let page = render_text(&obs.snapshot());
        let prefix = "snids_stage_latency_hist_nanos_bucket{stage=\"capture\",le=\"";
        let mut bounds: Vec<u64> = Vec::new();
        let mut counts: Vec<u64> = Vec::new();
        let mut inf_count = None;
        for line in page.lines().filter(|l| l.starts_with(prefix)) {
            let rest = &line[prefix.len()..];
            let (le, tail) = rest.split_once('"').expect("le label closes");
            let value: u64 = tail
                .rsplit(' ')
                .next()
                .expect("sample value")
                .parse()
                .expect("integer count");
            if le == "+Inf" {
                inf_count = Some(value);
            } else {
                bounds.push(le.parse().expect("numeric bound"));
                counts.push(value);
            }
        }
        assert!(counts.len() >= 3, "too few buckets in:\n{page}");
        // `le` bounds strictly ascend and cumulative counts never drop.
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "{bounds:?}");
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        // The last finite bucket and +Inf both hold every observation,
        // and agree with the _count sample.
        assert_eq!(counts.last(), Some(&7));
        assert_eq!(inf_count, Some(7));
        assert!(page.contains("snids_stage_latency_hist_nanos_count{stage=\"capture\"} 7"));
        assert!(page.contains("snids_stage_latency_hist_nanos_sum{stage=\"capture\"} 10215"));
        // Untouched stages still expose an empty, well-formed histogram.
        assert!(page
            .contains("snids_stage_latency_hist_nanos_bucket{stage=\"dataflow\",le=\"+Inf\"} 0"));
    }

    #[test]
    fn flow_latency_family_renders_in_both_expositions() {
        use crate::flowlat::FlowOutcome;
        let obs = Obs::new(8);
        let mut trail = [0; crate::flowlat::TRAIL_STAGES];
        trail[Stage::Decode as usize] = 900;
        trail[Stage::Prefilter as usize] = 40;
        obs.flow_settle(FlowOutcome::Alerted, &trail);
        let snap = obs.snapshot();
        let page = render_text(&snap);
        assert!(page.contains(
            "snids_flow_latency_nanos{stage=\"decode\",outcome=\"alerted\",quantile=\"0.99\"}"
        ));
        assert!(
            page.contains("snids_flow_latency_nanos_sum{stage=\"decode\",outcome=\"alerted\"} 900")
        );
        assert!(page.contains("snids_flow_latency_tracked_flows 1"));
        assert!(!page.contains("overflow"));
        let doc = render_json(&snap);
        // Stage order is discriminant order, so decode (5) precedes the
        // late-added prefilter (9).
        assert!(
            doc.contains("\"flow_latency\":[{\"stage\":\"decode\",\"outcome\":\"alerted\""),
            "{doc}"
        );
        assert!(doc.contains("\"flow_tracked\":1,\"warnings\""), "{doc}");
    }

    #[test]
    fn renders_are_deterministic() {
        let snap = sample();
        assert_eq!(render_text(&snap), render_text(&sample()));
        assert_eq!(render_json(&snap), render_json(&sample()));
    }

    #[test]
    fn json_is_structurally_sound() {
        let doc = render_json(&sample());
        assert!(doc.starts_with('{') && doc.ends_with('}'));
        assert_eq!(
            doc.matches('{').count(),
            doc.matches('}').count(),
            "unbalanced braces in {doc}"
        );
        assert!(doc.contains("\"stage\":\"capture\",\"events\":2,\"bytes\":100"));
        // Embedded label quotes in counter names must be escaped.
        assert!(doc.contains("\"snids_pool_tasks_total{thread=\\\"0\\\"}\":7"));
        assert!(doc.contains("\"flight_recorder\":{\"recorded\":"));
    }
}
