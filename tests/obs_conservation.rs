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
use snids::obs::Stage;
use snids::packet::PcapReader;
use std::io::Cursor;

/// Run the chaos corpus through an observed pipeline and return it.
fn observed_chaos_run(seed: u64, chaos: &ChaosConfig) -> Nids {
    let plan = AddressPlan::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let (packets, _truth) = codered_capture(&mut rng, &plan, 1200, 3);
    let (bytes, _log) = chaos_pcap(&mut rng, &packets, chaos);

    let mut reader =
        PcapReader::new(Cursor::new(bytes)).expect("chaos keeps the global header valid");
    let decoded = reader.decode_all().unwrap_or_default();

    let mut nids = Nids::new(NidsConfig {
        honeypots: plan.honeypots.clone(),
        dark_nets: vec![(plan.dark_net, 16)],
        observability: true,
        ..NidsConfig::default()
    });
    nids.process_capture(&decoded);
    nids.absorb_read_stats(&reader.read_stats());
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

    // Every drop reason in the ledger is mirrored, name for name and
    // value for value; no reason is missing from the exposition.
    for reason in DropReason::ALL {
        let name = format!("drop.{}", reason.name());
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
    assert!(page.contains("drop.checksum_failed"));
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"flight_recorder\""));
    // No raw control bytes may survive into either exposition format.
    assert!(!page.bytes().any(|b| b < 0x20 && b != b'\n'));
    assert!(!json.bytes().any(|b| b < 0x20));
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
        honeypots: plan.honeypots.clone(),
        dark_nets: vec![(plan.dark_net, 16)],
        observability: false,
        ..NidsConfig::default()
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
    // 64 dumps, in the same order, with the same trails. `stage-nanos`
    // lines are left out: they are wall-clock readings, present only while
    // the flow's latency trail is still retained.
    let plan = AddressPlan::default();
    let packets = snids::gen::corpus::polymorphic_storm(2006, 500, 1000);
    let mut nids = Nids::new(NidsConfig {
        honeypots: plan.honeypots.clone(),
        dark_nets: vec![(plan.dark_net, 16)],
        threads: 1,
        observability: true,
        ..NidsConfig::default()
    });
    let alerts = nids.process_capture(&packets);
    assert!(
        alerts.len() > snids::core::MAX_FLIGHT_DUMPS,
        "the storm outruns the dump cap"
    );
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
    let plan = AddressPlan::default();
    let packets = snids::gen::corpus::polymorphic_storm(2006, 2100, 0);
    let counts = [1usize, 2, 8].map(|threads| {
        let mut nids = Nids::new(NidsConfig {
            honeypots: plan.honeypots.clone(),
            dark_nets: vec![(plan.dark_net, 16)],
            threads,
            observability: true,
            ..NidsConfig::default()
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
