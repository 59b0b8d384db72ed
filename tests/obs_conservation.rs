//! Metric conservation: the observability layer is an *independent*
//! account of the pipeline (atomic stage counters recorded at the
//! instrumentation points) and must agree exactly with the `PipelineStats`
//! ledger the pipeline keeps for itself — on a hostile, chaos-faulted
//! corpus, not just on clean traffic. A mismatch means an instrumentation
//! point was skipped or double-counted somewhere.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snids::core::{DropReason, Nids, NidsConfig};
use snids::gen::chaos::{chaos_pcap, ChaosConfig};
use snids::gen::traces::{codered_capture, AddressPlan};
use snids::obs::json::Value;
use snids::obs::Stage;
use snids::packet::{Packet, PacketBuilder, PcapReader, ReadStats, TcpFlags};
use std::io::Cursor;

/// The chaos corpus as decoded packets, with the reader's accounting.
fn chaos_corpus(seed: u64, chaos: &ChaosConfig) -> (Vec<Packet>, ReadStats) {
    let plan = AddressPlan::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let (packets, _truth) = codered_capture(&mut rng, &plan, 1200, 3);
    let (bytes, _log) = chaos_pcap(&mut rng, &packets, chaos);

    let mut reader =
        PcapReader::new(Cursor::new(bytes)).expect("chaos keeps the global header valid");
    let decoded = reader.decode_all().unwrap_or_default();
    (decoded, reader.read_stats())
}

/// The default plan's honeypots and dark net, observed.
fn observed_config() -> NidsConfig {
    let plan = AddressPlan::default();
    NidsConfig {
        honeypots: plan.honeypots.clone(),
        dark_nets: vec![(plan.dark_net, 16)],
        observability: true,
        ..NidsConfig::default()
    }
}

/// Run the chaos corpus through an observed pipeline and return it.
fn observed_chaos_run(seed: u64, chaos: &ChaosConfig) -> Nids {
    let (decoded, read_stats) = chaos_corpus(seed, chaos);
    let mut nids = Nids::new(observed_config());
    nids.process_capture(&decoded);
    nids.absorb_read_stats(&read_stats);
    nids
}

#[test]
fn obs_counters_conserve_against_the_ledger_under_chaos() {
    let chaos = ChaosConfig {
        flood_flows: 48,
        ..ChaosConfig::with_rate(0.15)
    };
    let mut nids = observed_chaos_run(0xC0DE, &chaos);
    let snap = nids.obs_snapshot();
    let stats = nids.stats();
    assert!(snap.enabled);

    // Exactly one capture-stage event per packet fed in: the stage
    // counters are atomics incremented at the instrumentation point, the
    // ledger is a plain field — they count the same thing independently.
    let capture = snap
        .stages
        .iter()
        .find(|s| s.stage == Stage::Capture)
        .expect("capture stage present");
    assert_eq!(
        capture.events, stats.packets,
        "capture events vs packets ledger"
    );
    assert_eq!(
        capture.count, stats.packets,
        "every capture event carries a latency sample"
    );

    // Every drop reason in the ledger is a row of the drop family, name
    // for name and value for value; no reason is missing.
    for reason in DropReason::ALL {
        let name = format!("snids_drops_total{{reason=\"{}\"}}", reason.name());
        let mirrored = snap
            .named
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} missing from snapshot"));
        assert_eq!(mirrored.1, stats.drops.get(reason), "{name}");
    }

    // The ledger totals mirrored as gauges agree too.
    for (gauge, ledger) in [
        ("snids_packets_total", stats.packets),
        ("snids_processed_total", stats.processed),
        ("snids_flows_analyzed_total", stats.flows_analyzed),
    ] {
        let v = snap
            .named
            .iter()
            .find(|(n, _)| n == gauge)
            .unwrap_or_else(|| panic!("{gauge} missing from snapshot"));
        assert_eq!(v.1, ledger, "{gauge}");
    }

    // And the ledger itself still balances — observability must not
    // perturb the accounting it observes.
    assert!(stats.packet_ledger_balanced(), "{}", stats.drop_report());
    assert!(stats.record_ledger_balanced(), "{}", stats.drop_report());
}

#[test]
fn exposition_is_deterministic_and_escaped() {
    let chaos = ChaosConfig {
        flood_flows: 16,
        ..ChaosConfig::with_rate(0.1)
    };
    let mut nids = observed_chaos_run(7, &chaos);

    // Repeated rendering of a quiescent pipeline is byte-identical: the
    // snapshot orders stages positionally and named counters
    // lexicographically, so scrapes diff cleanly.
    let page = nids.metrics_page();
    assert_eq!(page, nids.metrics_page());
    let json = nids.metrics_json();
    assert_eq!(json, nids.metrics_json());

    // Structural spot-checks on both formats.
    assert!(page.contains("snids_stage_events_total{stage=\"capture\"}"));
    assert!(page.contains("# TYPE snids_stage_latency_nanos summary"));
    assert!(page.contains("snids_drops_total{reason=\"checksum_failed\"}"));
    // Every sample line is valid Prometheus exposition:
    // `^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9]+$`.
    for line in page.lines().filter(|l| !l.starts_with('#')) {
        assert!(is_exposition_sample(line), "not exposition: {line}");
    }
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"flight_recorder\""));
    // No raw control bytes may survive into either exposition format.
    assert!(!page.bytes().any(|b| b < 0x20 && b != b'\n'));
    assert!(!json.bytes().any(|b| b < 0x20));
}

/// True when `line` matches `^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [0-9]+$`.
fn is_exposition_sample(line: &str) -> bool {
    let Some((series, value)) = line.rsplit_once(' ') else {
        return false;
    };
    let (name, labels) = match series.split_once('{') {
        Some((name, rest)) => (name, rest.strip_suffix('}')),
        None => (series, Some("")),
    };
    let name_ok = name.chars().enumerate().all(|(i, c)| {
        c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
    });
    !name.is_empty()
        && name_ok
        && labels.is_some_and(|l| !l.contains('}'))
        && !value.is_empty()
        && value.bytes().all(|b| b.is_ascii_digit())
}

/// A sample line's series with its label values masked:
/// `a{stage="x",le="1"} 5` becomes `a{stage=_,le=_}`.
fn masked_series(line: &str) -> String {
    let series = line.rsplit_once(' ').map_or(line, |(series, _)| series);
    series
        .split('"')
        .enumerate()
        .map(|(i, part)| if i % 2 == 1 { "_" } else { part })
        .collect()
}

/// The leaf keys of a JSON document, nested keys joined by `.` and array
/// elements marked `[]`, each once, in document order.
fn flat_keys(value: &Value, path: &str, out: &mut Vec<String>) {
    match value {
        Value::Obj(members) => {
            for (key, v) in members {
                let path = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                flat_keys(v, &path, out);
            }
        }
        Value::Arr(items) => {
            for item in items {
                flat_keys(item, &format!("{path}[]"), out);
            }
        }
        _ => {
            if !out.iter().any(|k| k == path) {
                out.push(path.to_string());
            }
        }
    }
}

/// The `--stats` JSON keys, flattened by [`flat_keys`].
const STATS_KEYS: &[&str] = &[
    "records_in",
    "packets",
    "processed",
    "suspicious_packets",
    "flows_analyzed",
    "frames_extracted",
    "frame_bytes",
    "alerts",
    "overlap_conflict_bytes",
    "memory_limit_bytes",
    "peak_tracked_bytes",
    "degraded_flows",
    "watermark_transitions",
    "dataflow_frames",
    "dataflow_recovered",
    "dataflow_alt_views",
    "prefilter.passed",
    "prefilter.escalated",
    "prefilter.rejected",
    "prefilter.reject_ratio",
    "prefilter.nanos",
    "prefilter.lane_hits[].lane",
    "prefilter.lane_hits[].rule",
    "prefilter.lane_hits[].hits",
    "drops.pcap_record_malformed",
    "drops.pcap_record_truncated",
    "drops.frame_undecodable",
    "drops.checksum_failed",
    "drops.defrag_cap_exceeded",
    "drops.defrag_oversize",
    "drops.defrag_timeout",
    "drops.defrag_invalid",
    "drops.defrag_incomplete",
    "drops.flow_evicted",
    "drops.stream_truncated",
    "drops.decoder_bailout",
    "drops.analysis_panicked",
    "drops.dataflow_exhausted",
    "drops.shed_analyzed",
    "drops.shed_unanalyzed",
    "drops.prefilter_rejected",
    "drops_total",
    "classify_nanos",
    "reassembly_nanos",
    "analysis_nanos",
];

/// The metric names on the end-of-run text page, label values masked, in
/// page order.
const METRIC_NAMES: &[&str] = &[
    "snids_stage_events_total{stage=_}",
    "snids_stage_bytes_total{stage=_}",
    "snids_stage_latency_nanos{stage=_,quantile=_}",
    "snids_stage_latency_nanos_sum{stage=_}",
    "snids_stage_latency_nanos_count{stage=_}",
    "snids_stage_latency_nanos_max{stage=_}",
    "snids_stage_latency_hist_nanos_bucket{stage=_,le=_}",
    "snids_stage_latency_hist_nanos_sum{stage=_}",
    "snids_stage_latency_hist_nanos_count{stage=_}",
    "snids_flow_latency_nanos{stage=_,outcome=_,quantile=_}",
    "snids_flow_latency_nanos_sum{stage=_,outcome=_}",
    "snids_flow_latency_nanos_count{stage=_,outcome=_}",
    "snids_flow_latency_nanos_max{stage=_,outcome=_}",
    "snids_flow_latency_tracked_flows",
    "snids_alerts_total",
    "snids_budget_limit_bytes",
    "snids_budget_peak_bytes",
    "snids_budget_pressure_level",
    "snids_budget_tracked_bytes",
    "snids_dataflow_alt_views_total",
    "snids_dataflow_exhausted_total",
    "snids_dataflow_frames_total",
    "snids_dataflow_recovered_total",
    "snids_drops_total{reason=_}",
    "snids_flows_analyzed_total",
    "snids_flows_degraded_total",
    "snids_flows_protected",
    "snids_flows_shed_total",
    "snids_packets_total",
    "snids_pool_busy_nanos_total{thread=_}",
    "snids_pool_tasks_panicked_total",
    "snids_pool_tasks_total{thread=_}",
    "snids_pool_threads",
    "snids_prefilter_escalated_total",
    "snids_prefilter_lane_hits_total{lane=_,rule=_}",
    "snids_prefilter_passed_total",
    "snids_prefilter_rejected_total",
    "snids_processed_total",
    "snids_watermark_transitions_total",
    "snids_warnings_total",
    "snids_flight_recorder_events_total",
    "snids_flight_recorder_capacity",
];

#[test]
fn stats_keys_and_metric_names_are_pinned() {
    // The outward surface on the chaos corpus: a key or metric renamed,
    // added or dropped shows here.
    let chaos = ChaosConfig {
        flood_flows: 48,
        ..ChaosConfig::with_rate(0.15)
    };
    let mut nids = observed_chaos_run(0xC0DE, &chaos);
    let page = nids.metrics_page();
    let stats = snids::obs::json::parse(&nids.stats().to_json()).expect("stats JSON parses");
    let mut keys = Vec::new();
    flat_keys(&stats, "", &mut keys);
    let mut names: Vec<String> = Vec::new();
    for line in page.lines().filter(|l| !l.starts_with('#')) {
        let name = masked_series(line);
        if !names.contains(&name) {
            names.push(name);
        }
    }
    assert_eq!(keys, STATS_KEYS);
    assert_eq!(names, METRIC_NAMES);
}

#[test]
fn alerts_on_the_chaos_corpus_leave_flight_dumps() {
    // Zero fault rate: the worm sources all survive, so alerts fire and
    // each alerting flow dumps its causal trail from the flight recorder.
    let chaos = ChaosConfig {
        rate: 0.0,
        flood_flows: 0,
        truncate_tail: false,
        bogus_incl_len: false,
    };
    let mut nids = observed_chaos_run(1, &chaos);
    assert!(
        !nids.flight_dumps().is_empty(),
        "alerting run must produce flight dumps"
    );
    for dump in nids.flight_dumps() {
        assert!(dump.starts_with("flight["), "{dump}");
        assert!(dump.contains("->"), "dump carries flow identity: {dump}");
    }
    let snap = nids.obs_snapshot();
    assert!(snap.recorder_recorded > 0);
}

#[test]
fn disabled_pipeline_keeps_obs_silent_under_chaos() {
    let plan = AddressPlan::default();
    let mut rng = StdRng::seed_from_u64(9);
    let (packets, _) = codered_capture(&mut rng, &plan, 400, 2);
    let chaos = ChaosConfig {
        flood_flows: 16,
        ..ChaosConfig::with_rate(0.2)
    };
    let (bytes, _) = chaos_pcap(&mut rng, &packets, &chaos);
    let mut reader = PcapReader::new(Cursor::new(bytes)).expect("header");
    let decoded = reader.decode_all().unwrap_or_default();

    let mut nids = Nids::new(NidsConfig {
        observability: false,
        ..observed_config()
    });
    nids.process_capture(&decoded);

    let snap = nids.obs().snapshot();
    assert!(!snap.enabled);
    assert!(snap.stages.iter().all(|s| s.events == 0 && s.count == 0));
    assert_eq!(snap.recorder_recorded, 0);
    assert!(nids.flight_dumps().is_empty());
}

#[test]
fn storm_flight_dumps_are_unchanged() {
    // The storm's alert dumps, recorded at the commit before they moved to
    // one indexed copy of the flight ring per `finalize_alerts`: the same
    // 64 dumps, in the same order, with the same trails. Every dump ends
    // in its alerted flow's `stage-nanos` line, which the digest leaves
    // out: its numbers are wall-clock readings.
    let packets = snids::gen::corpus::polymorphic_storm(2006, 500, 1000);
    let mut nids = Nids::new(NidsConfig {
        threads: 1,
        ..observed_config()
    });
    let alerts = nids.process_capture(&packets);
    assert!(
        alerts.len() > snids::core::MAX_FLIGHT_DUMPS,
        "the storm outruns the dump cap"
    );
    for dump in nids.flight_dumps() {
        let trails: Vec<&str> = dump
            .lines()
            .filter(|line| line.trim_start().starts_with("stage-nanos["))
            .collect();
        assert_eq!(trails.len(), 1, "{dump}");
        assert!(
            dump.lines()
                .last()
                .is_some_and(|line| line.starts_with("  stage-nanos[outcome=alerted] ")),
            "{dump}"
        );
    }
    let dumps: Vec<String> = nids
        .flight_dumps()
        .iter()
        .map(|dump| {
            dump.lines()
                .filter(|line| !line.trim_start().starts_with("stage-nanos["))
                .collect::<Vec<_>>()
                .join("\n")
        })
        .collect();
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in dumps.join("\n\n").bytes() {
        digest ^= u64::from(byte);
        digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
    assert_eq!(
        (dumps.len(), digest),
        (64, 0x77c3_4efc_05e8_77f6),
        "first dump:\n{}",
        dumps.first().map_or("", String::as_str)
    );
}

#[test]
fn flow_latency_settles_every_flow_at_any_worker_count() {
    // 2 100 attackers, each a honeypot probe flow and an exploit flow:
    // 4 200 suspicious flows, all live in the flow table until `finish`.
    // Each settles its stage-nanos trail exactly once, so the family
    // counts every analyzed flow and its counts are the same at every
    // worker count; only the nanosecond readings vary.
    let packets = snids::gen::corpus::polymorphic_storm(2006, 2100, 0);
    let counts = [1usize, 2, 8].map(|threads| {
        let mut nids = Nids::new(NidsConfig {
            threads,
            ..observed_config()
        });
        nids.process_capture(&packets);
        let analyzed = nids.stats().flows_analyzed;
        assert!(analyzed > 4096, "threads={threads}: {analyzed} flows");
        let snap = nids.obs_snapshot();
        assert_eq!(snap.flow_tracked, analyzed, "threads={threads}");
        let reassembly: u64 = snap
            .flow_latency
            .iter()
            .filter(|f| f.stage == Stage::Reassembly)
            .map(|f| f.count)
            .sum();
        assert_eq!(reassembly, analyzed, "threads={threads}");
        snap.flow_latency
            .iter()
            .map(|f| (f.stage, f.outcome, f.count))
            .collect::<Vec<_>>()
    });
    assert_eq!(counts[0], counts[1], "1 vs 2 workers");
    assert_eq!(counts[0], counts[2], "1 vs 8 workers");
}

/// A text-page line with what varies between runs masked: nanosecond
/// readings become `_`, and timing-bucket lines and the pool's
/// per-thread self-profile (`snids_pool_*`) go. Every `_count` stays.
fn mask_metric_line(line: &str) -> Option<String> {
    if line.starts_with('#') {
        return Some(line.to_string());
    }
    let name = line.split(['{', ' ']).next().unwrap_or_default();
    if name.starts_with("snids_pool_") || name.ends_with("_bucket") {
        return None;
    }
    if (name.contains("nanos") && !name.ends_with("_count")) || name == "snids_warnings_total" {
        let (series, _) = line.rsplit_once(' ')?;
        return Some(format!("{series} _"));
    }
    Some(line.to_string())
}

/// The JSON page's counterpart of [`mask_metric_line`].
fn mask_json(value: Value) -> Value {
    match value {
        Value::Obj(members) => Value::Obj(
            members
                .into_iter()
                .filter(|(key, _)| !key.starts_with("snids_pool_"))
                .map(|(key, v)| {
                    let masked = key.ends_with("_nanos") || key == "buckets" || key == "warnings";
                    let v = if masked { Value::Null } else { mask_json(v) };
                    (key, v)
                })
                .collect(),
        ),
        Value::Arr(items) => Value::Arr(items.into_iter().map(mask_json).collect()),
        other => other,
    }
}

/// A flight dump with the digits of its `stage-nanos` line dropped.
fn mask_dump(dump: &str) -> String {
    let lines: Vec<String> = dump
        .lines()
        .map(|line| {
            if line.trim_start().starts_with("stage-nanos[") {
                line.replace(|c: char| c.is_ascii_digit(), "")
            } else {
                line.to_string()
            }
        })
        .collect();
    lines.join("\n")
}

/// One observed replay's text page, JSON page and flight dumps, masked.
fn masked_render(config: NidsConfig, packets: &[Packet], read_stats: Option<&ReadStats>) -> String {
    let mut nids = Nids::new(config);
    nids.process_capture(packets);
    if let Some(read_stats) = read_stats {
        nids.absorb_read_stats(read_stats);
    }
    let page: Vec<String> = nids
        .metrics_page()
        .lines()
        .filter_map(mask_metric_line)
        .collect();
    let json = snids::obs::json::parse(&nids.metrics_json()).map(mask_json);
    let dumps: Vec<String> = nids.flight_dumps().iter().map(|d| mask_dump(d)).collect();
    format!(
        "{}\n--\n{json:?}\n--\n{}",
        page.join("\n"),
        dumps.join("\n\n")
    )
}

#[test]
fn observed_output_is_identical_on_every_run_and_worker_count() {
    // Four corpora that reach every writer of the flight record: alerts
    // past the dump cap, chaos faults, unanalyzed count-cap evictions,
    // and analyze-on-evict under a byte budget. Each replays twice at 1,
    // 2 and 8 workers; apart from the nanoseconds, the timing buckets,
    // the pool's per-thread profile and the process-wide warning count,
    // all six renderings must be byte-identical.
    let storm = snids::gen::corpus::polymorphic_storm(2006, 500, 1000);

    let (chaos, chaos_read) = chaos_corpus(
        0xC0DE,
        &ChaosConfig {
            flood_flows: 48,
            ..ChaosConfig::with_rate(0.15)
        },
    );

    let target = AddressPlan::default().honeypots[0];
    let scanner = std::net::Ipv4Addr::new(198, 18, 7, 7);
    let mut sweep = Vec::new();
    for (i, port) in (1000u16..1020).enumerate() {
        let t = 100 + i as u64 * 10;
        let b = PacketBuilder::new(scanner, target);
        sweep.push(b.clone().at(t).tcp_syn(4000 + port, port, 1).unwrap());
        sweep.push(
            b.at(t + 1)
                .tcp(4000 + port, port, 2, 0, TcpFlags::ACK, b"probe")
                .unwrap(),
        );
    }
    let mut evicting = observed_config();
    evicting.analyze_on_evict = false;
    evicting.flow_table.max_flows = 1;

    let overload = snids::gen::corpus::overload_capture(41, 6, 96);
    let mut pressured = observed_config();
    pressured.memory_budget = 64 * 1024;
    pressured.flow_table.max_flows = 32;

    let corpora = [
        ("storm", observed_config(), &storm, None),
        ("chaos", observed_config(), &chaos, Some(&chaos_read)),
        ("count-cap evictions", evicting, &sweep, None),
        ("memory pressure", pressured, &overload, None),
    ];
    for (label, config, packets, read_stats) in corpora {
        let renders = [1usize, 1, 2, 2, 8, 8].map(|threads| {
            let config = NidsConfig {
                threads,
                ..config.clone()
            };
            (threads, masked_render(config, packets, read_stats))
        });
        let reference = &renders[0].1;
        for (threads, render) in &renders[1..] {
            let diverged = reference.lines().zip(render.lines()).find(|(a, b)| a != b);
            assert!(
                render == reference,
                "[{label}] a replay at threads={threads} differs from the first at {diverged:?}"
            );
        }
    }
}
