//! Property tests for the federation merge algebra: merging K split
//! snapshots must be indistinguishable from one snapshot that saw all
//! the traffic. Counters sum, log₂ buckets sum element-wise, and the
//! fleet quantiles come from one rank walk over the merged buckets —
//! never from averaging per-worker quantiles.

use proptest::prelude::*;
use snids_obs::federate::{FleetSnapshot, WorkerScrape};
use snids_obs::hist::{quantile_from_buckets, BUCKETS};
use snids_obs::{Snapshot, Stage, StageSnapshot};

/// A snapshot carrying one Decode-stage histogram plus a counter pair.
fn snapshot(buckets: [u64; BUCKETS], events: u64, packets: u64, pressure: u64) -> Snapshot {
    let count: u64 = buckets.iter().sum();
    Snapshot {
        enabled: true,
        worker: None,
        stages: vec![StageSnapshot {
            stage: Stage::Decode,
            events,
            bytes: events * 64,
            count,
            sum_nanos: count * 100,
            max_nanos: buckets
                .iter()
                .rposition(|&c| c > 0)
                .map(|i| 1u64 << i)
                .unwrap_or(0),
            p50_nanos: quantile_from_buckets(&buckets, 0.50),
            p90_nanos: quantile_from_buckets(&buckets, 0.90),
            p99_nanos: quantile_from_buckets(&buckets, 0.99),
            buckets,
        }],
        named: vec![
            ("snids_budget_pressure_level".to_string(), pressure),
            ("snids_packets_total".to_string(), packets),
        ],
        flow_latency: Vec::new(),
        flow_tracked: 0,
        flow_overflow: 0,
        warnings: 0,
        recorder_recorded: 0,
        recorder_contended: 0,
        recorder_capacity: 0,
    }
}

fn scrape_of(label: &str, snap: Snapshot) -> WorkerScrape {
    WorkerScrape {
        label: label.to_string(),
        endpoint: format!("test:{label}"),
        healthy: true,
        scrape_nanos: 1,
        error: None,
        snapshot: Some(snap),
    }
}

/// One worker's sparse `(bucket, count)` pairs, packet counter and
/// pressure gauge.
type WorkerLoad = (Vec<(usize, u64)>, u64, u64);

/// Strategy: K workers, each with sparse bucket counts in the low bands
/// (where real stage latencies live) plus a counter value.
fn worker_loads() -> impl Strategy<Value = Vec<WorkerLoad>> {
    proptest::collection::vec(
        (
            proptest::collection::vec((0usize..BUCKETS, 1u64..1_000), 0..12),
            0u64..100_000,
            0u64..4,
        ),
        1..6,
    )
}

proptest! {
    /// Merging split snapshots reproduces the unsplit snapshot exactly:
    /// same counter totals, same bucket array, same quantiles, gauge is
    /// the max, and quantiles are monotone in rank.
    #[test]
    fn merge_of_splits_equals_unsplit(loads in worker_loads()) {
        let mut total = [0u64; BUCKETS];
        let mut total_packets = 0u64;
        let mut max_pressure = 0u64;
        let mut scrapes = Vec::new();
        for (i, (sparse, packets, pressure)) in loads.iter().enumerate() {
            let mut buckets = [0u64; BUCKETS];
            for &(idx, n) in sparse {
                buckets[idx] += n;
                total[idx] += n;
            }
            total_packets += packets;
            max_pressure = max_pressure.max(*pressure);
            let events: u64 = buckets.iter().sum();
            scrapes.push(scrape_of(
                &format!("w{i}"),
                snapshot(buckets, events, *packets, *pressure),
            ));
        }

        let fleet = FleetSnapshot::from_scrapes(scrapes);
        let unsplit_events: u64 = total.iter().sum();
        let merged = fleet
            .merged
            .stages
            .iter()
            .find(|s| s.stage == Stage::Decode)
            .expect("decode stage present");

        // Buckets merge element-wise; events/count sum.
        prop_assert_eq!(&merged.buckets[..], &total[..]);
        prop_assert_eq!(merged.events, unsplit_events);
        prop_assert_eq!(merged.count, unsplit_events);

        // Fleet quantiles equal the unsplit rank walk, and are monotone.
        prop_assert_eq!(merged.p50_nanos, quantile_from_buckets(&total, 0.50));
        prop_assert_eq!(merged.p90_nanos, quantile_from_buckets(&total, 0.90));
        prop_assert_eq!(merged.p99_nanos, quantile_from_buckets(&total, 0.99));
        prop_assert!(merged.p50_nanos <= merged.p90_nanos);
        prop_assert!(merged.p90_nanos <= merged.p99_nanos);
        prop_assert!(merged.p99_nanos <= merged.max_nanos.next_power_of_two().max(1));

        // Cumulative counters sum; gauges take the fleet max.
        let named = |name: &str| {
            fleet
                .merged
                .named
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        prop_assert_eq!(named("snids_packets_total"), total_packets);
        prop_assert_eq!(named("snids_budget_pressure_level"), max_pressure);
        prop_assert_eq!(named("snids_fleet_workers"), loads.len() as u64);
        prop_assert_eq!(named("snids_fleet_workers_healthy"), loads.len() as u64);
    }

    /// Merge order never matters: any permutation of the same worker set
    /// renders the identical fleet page.
    #[test]
    fn merge_is_order_insensitive(loads in worker_loads()) {
        let build = |order: &[usize]| {
            let scrapes: Vec<WorkerScrape> = order
                .iter()
                .map(|&i| {
                    let (sparse, packets, pressure) = &loads[i];
                    let mut buckets = [0u64; BUCKETS];
                    for &(idx, n) in sparse {
                        buckets[idx] += n;
                    }
                    let events: u64 = buckets.iter().sum();
                    scrape_of(&format!("w{i}"), snapshot(buckets, events, *packets, *pressure))
                })
                .collect();
            FleetSnapshot::from_scrapes(scrapes).render_text()
        };
        let forward: Vec<usize> = (0..loads.len()).collect();
        let reverse: Vec<usize> = (0..loads.len()).rev().collect();
        prop_assert_eq!(build(&forward), build(&reverse));
    }
}

/// An unhealthy worker contributes nothing to the merged numbers but
/// stays visible: `snids_worker_up{worker="…"} 0` on the fleet page.
#[test]
fn degraded_worker_is_visible_but_not_merged() {
    let mut buckets = [0u64; BUCKETS];
    buckets[3] = 7;
    let healthy = scrape_of("w0", snapshot(buckets, 7, 500, 1));
    let dead = WorkerScrape {
        label: "w1".to_string(),
        endpoint: "test:w1".to_string(),
        healthy: false,
        scrape_nanos: 9,
        error: Some("scrape failed: connection refused".to_string()),
        snapshot: None,
    };
    let fleet = FleetSnapshot::from_scrapes(vec![healthy, dead]);
    let named = |name: &str| {
        fleet
            .merged
            .named
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(u64::MAX)
    };
    assert_eq!(named("snids_packets_total"), 500);
    assert_eq!(named("snids_fleet_workers"), 2);
    assert_eq!(named("snids_fleet_workers_healthy"), 1);
    assert_eq!(named("snids_worker_up{worker=\"w0\"}"), 1);
    assert_eq!(named("snids_worker_up{worker=\"w1\"}"), 0);
    let page = fleet.render_text();
    assert!(page.contains("snids_worker_up{worker=\"w1\"} 0"), "{page}");
}
