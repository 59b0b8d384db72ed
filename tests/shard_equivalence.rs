//! Differential shard-equivalence suite: `NidsConfig::shards` is a
//! deployment setting of the one pipeline, so it must be *unobservable*.
//! For every corpus — the clean worm capture, the desync chaos sweep
//! under all four overlap policies, tainted benign traffic, and count-cap
//! evictions — the rendered alert stream at `--shards 1` (the inline
//! front half), `--shards 2` and `--shards 8` must be byte-identical, the
//! stats ledgers must agree on every deterministic field and still
//! balance, and the flight recorder must dump the same flows.
//!
//! Alerts are totally ordered by `(src, template, start, dst, dst_port)`
//! before dedup, so shard drain order is unobservable by construction —
//! these tests are the lock on that invariant.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snids::core::{Nids, NidsConfig, PipelineStats};
use snids::flow::OverlapPolicy;
use snids::gen::corpus::{desync_capture, overload_capture};
use snids::gen::traces::{codered_capture, tainted_benign_flows, AddressPlan};
use snids::packet::Packet;

/// The shard counts every corpus is replayed at. 1 runs the front half
/// inline, 2 exercises the split, 8 exceeds the distinct address-pair
/// spread of the small corpora so some shards stay idle.
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// The deterministic projection of the stats ledger: everything except
/// wall-clock nanos and the high-water mark, which legitimately vary
/// between runs on identical input.
#[allow(clippy::type_complexity)]
fn deterministic(
    s: &PipelineStats,
) -> (
    (u64, u64, u64, u64),
    (u64, u64, u64),
    (u64, u64, u64, u64),
    (u64, u64, snids::core::stats::DropCounters),
) {
    (
        (s.records_in, s.packets, s.processed, s.suspicious_packets),
        (
            s.prefilter_passed,
            s.prefilter_escalated,
            s.prefilter_rejected,
        ),
        (
            s.flows_analyzed,
            s.frames_extracted,
            s.frame_bytes,
            s.alerts,
        ),
        (s.overlap_conflict_bytes, s.degraded_flows, s.drops),
    )
}

/// Replay a capture at `shards` and return the rendered alert stream plus
/// the deterministic ledger projection, after checking the ledger
/// balances and the budget drained to zero.
#[allow(clippy::type_complexity)]
fn run_sharded(
    mut config: NidsConfig,
    shards: usize,
    packets: &[Packet],
) -> (
    String,
    (
        (u64, u64, u64, u64),
        (u64, u64, u64),
        (u64, u64, u64, u64),
        (u64, u64, snids::core::stats::DropCounters),
    ),
) {
    config.shards = shards;
    let mut nids = Nids::new(config);
    let alerts = nids.process_capture(packets);
    let stats = nids.stats();
    assert!(
        stats.packet_ledger_balanced(),
        "merged packet ledger unbalanced at shards={shards}:\n{}",
        stats.drop_report()
    );
    assert!(
        stats.record_ledger_balanced(),
        "merged record ledger unbalanced at shards={shards}:\n{}",
        stats.drop_report()
    );
    assert_eq!(
        nids.budget().tracked(),
        0,
        "front-half budget must drain to zero at shards={shards}"
    );
    let rendered = alerts
        .iter()
        .map(|a| a.render())
        .collect::<Vec<_>>()
        .join("\n");
    (rendered, deterministic(stats))
}

/// The differential harness: replay one corpus at every shard count,
/// asserting byte-identical alerts and identical deterministic ledgers
/// against the inline front half.
fn assert_shard_equivalent(label: &str, config: &NidsConfig, packets: &[Packet]) {
    let (inline_rendered, inline_stats) = run_sharded(config.clone(), 1, packets);
    for shards in &SHARD_COUNTS[1..] {
        let (rendered, stats) = run_sharded(config.clone(), *shards, packets);
        assert_eq!(
            rendered, inline_rendered,
            "[{label}] alert stream diverged from inline at shards={shards}"
        );
        assert_eq!(
            stats, inline_stats,
            "[{label}] ledger diverged from inline at shards={shards}"
        );
    }
}

fn worm_config(plan: &AddressPlan) -> NidsConfig {
    NidsConfig {
        honeypots: plan.honeypots.clone(),
        dark_nets: vec![(plan.dark_net, 16)],
        ..NidsConfig::default()
    }
}

#[test]
fn worm_capture_is_shard_invariant() {
    let plan = AddressPlan::default();
    let mut rng = StdRng::seed_from_u64(2006);
    let (packets, truth) = codered_capture(&mut rng, &plan, 1200, 3);
    let config = worm_config(&plan);

    assert_shard_equivalent("worm", &config, &packets);

    // The corpus is not vacuous: the worm is actually detected, at every
    // shard count (equivalence already implies this once one count
    // detects it — assert it explicitly so a silent regression in the
    // generator can't hollow the test out).
    let (rendered, _) = run_sharded(config, 8, &packets);
    for src in &truth.crii_sources {
        assert!(
            rendered.contains(&src.to_string()),
            "worm source {src} missing from sharded alert stream"
        );
    }
}

#[test]
fn desync_chaos_is_shard_invariant_under_every_overlap_policy() {
    // Two rates suffice: 0.0 is the clean reference, 0.3 faults enough
    // flows that policies genuinely diverge from *each other* — the claim
    // under test is that each policy is shard-invariant, not that the
    // policies agree.
    let plan = AddressPlan::default();
    for rate in [0.0, 0.3] {
        let capture = desync_capture(2006, 24, 24, rate);
        for policy in OverlapPolicy::ALL {
            let mut config = worm_config(&plan);
            config.flow_table.overlap_policy = policy;
            let label = format!("desync policy={policy:?} rate={rate}");
            assert_shard_equivalent(&label, &config, &capture.packets);
        }
    }
}

#[test]
fn tainted_benign_traffic_is_shard_invariant() {
    // Tainted-but-benign sources are exactly the traffic the prefilter
    // gate rejects: this corpus locks the per-shard prefilter state
    // (lanes + sticky sources) to the sequential gate's verdicts.
    let plan = AddressPlan::default();
    let mut rng = StdRng::seed_from_u64(13);
    let (mut packets, _truth) = codered_capture(&mut rng, &plan, 600, 2);
    packets.extend(tainted_benign_flows(&mut rng, &plan, 24, 4, 2_000_000));
    packets.sort_by_key(|p| p.ts_micros);

    let config = worm_config(&plan);
    assert_shard_equivalent("tainted-benign", &config, &packets);

    // The gate must actually fire on this corpus at the highest shard
    // count, or the test proves nothing about sharded prefilter state.
    let (_, stats) = run_sharded(config, 8, &packets);
    assert!(
        stats.1 .2 > 0,
        "tainted-benign corpus must exercise prefilter rejection"
    );
}

#[test]
fn sharding_survives_memory_pressure_identically() {
    // The overload flood corpus with a tight budget and small flow table:
    // the shed-analysis path (evicted flows handed to the back half) and
    // the protect-source feedback loop must also be shard-invariant.
    const BUDGET: u64 = 64 * 1024;
    let packets = overload_capture(41, 6, 96);

    let plan = AddressPlan::default();
    let mut config = worm_config(&plan);
    config.memory_budget = BUDGET;
    config.flow_table.max_flows = 32;
    assert_shard_equivalent("pressure", &config, &packets);

    // Pressure must actually have occurred at every shard count, or the
    // corpus is too gentle to lock the shed path; and however many shard
    // budget clones charge concurrently, the peak stays under the ceiling.
    for shards in SHARD_COUNTS {
        let mut config = config.clone();
        config.shards = shards;
        let mut nids = Nids::new(config);
        nids.process_capture(&packets);
        let stats = nids.stats();
        let shed = stats
            .drops
            .get(snids::core::stats::DropReason::ShedAnalyzed)
            + stats
                .drops
                .get(snids::core::stats::DropReason::ShedUnanalyzed)
            + stats.drops.get(snids::core::stats::DropReason::FlowEvicted);
        assert!(
            shed > 0,
            "pressure corpus must evict flows at shards={shards}"
        );
        assert!(
            stats.peak_tracked_bytes <= BUDGET,
            "peak {} exceeded the {BUDGET} byte budget at shards={shards}",
            stats.peak_tracked_bytes
        );
    }
}

#[test]
fn unanalyzed_evictions_dump_the_same_flows_at_every_shard_count() {
    // One scanner sweeps a honeypot's ports with analyze-on-evict off and
    // a one-slot flow table: every new flow evicts the previous one
    // unanalyzed, each eviction is a flight dump. One address pair keeps
    // all flows on one shard, and a one-slot cap is one slot per shard at
    // any count, so the evicted set is the same by construction.
    let plan = AddressPlan::default();
    let scanner = std::net::Ipv4Addr::new(198, 18, 7, 7);
    let target = plan.honeypots[0];
    let mut packets = Vec::new();
    for (i, port) in (1000u16..1020).enumerate() {
        let t = 100 + i as u64 * 10;
        let b = snids::packet::PacketBuilder::new(scanner, target);
        packets.push(b.clone().at(t).tcp_syn(4000 + port, port, 1).unwrap());
        packets.push(
            b.at(t + 1)
                .tcp(
                    4000 + port,
                    port,
                    2,
                    0,
                    snids::packet::TcpFlags::ACK,
                    b"probe",
                )
                .unwrap(),
        );
    }
    let mut config = worm_config(&plan);
    config.observability = true;
    config.analyze_on_evict = false;
    config.flow_table.max_flows = 1;

    let dump_headers = |shards: usize| {
        let mut config = config.clone();
        config.shards = shards;
        let mut nids = Nids::new(config);
        nids.process_capture(&packets);
        // `flight[why] src -> dst:port`, without the event count.
        let mut headers: Vec<String> = nids
            .flight_dumps()
            .iter()
            .filter_map(|d| d.split(" (").next().map(str::to_string))
            .collect();
        headers.sort();
        headers
    };
    let inline = dump_headers(1);
    assert_eq!(
        inline
            .iter()
            .filter(|h| h.starts_with("flight[flow_evicted]"))
            .count(),
        19,
        "every flow but the last is evicted unanalyzed: {inline:?}"
    );
    assert!(inline.len() < snids::core::MAX_FLIGHT_DUMPS);
    for shards in &SHARD_COUNTS[1..] {
        assert_eq!(
            dump_headers(*shards),
            inline,
            "flight dumps diverged from inline at shards={shards}"
        );
    }
}
