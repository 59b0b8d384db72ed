//! End-to-end TCP desync harness: a seeded desync storm through the full
//! pipeline, once per overlap policy.
//!
//! The load-bearing assertions:
//!
//! * at fault rate 0 every policy produces a byte-identical alert stream
//!   and a silent conflict ledger — policy choice costs nothing on clean
//!   traffic;
//! * per policy, the set of detected attack sources is monotone
//!   non-increasing as the fault rate rises (the corpus's superset fault
//!   construction makes this exact, not just statistical);
//! * whenever divergent overlaps were injected, the pipeline's
//!   `overlap_conflict_bytes` integrity counter is non-zero — the evasion
//!   is observable even when it succeeds;
//! * the near-miss dataflow pass never loses a detection the seed
//!   (dataflow-off) engine makes, at any (policy, rate) point, and wins
//!   some back;
//! * packet/record ledgers stay balanced and nothing panics throughout.

use snids::core::{Alert, DataflowMode, Nids, NidsConfig};
use snids::flow::OverlapPolicy;
use snids::gen::corpus::{desync_capture, DesyncCapture};
use snids::gen::traces::AddressPlan;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// The suite's fault rates, ascending; 0 is the clean reference.
const RATES: [f64; 4] = [0.0, 0.3, 0.6, 1.0];

/// The suite's corpus: 10 polymorphic attack flows, 6 benign flows.
fn build_capture(rate: f64) -> DesyncCapture {
    desync_capture(0xD5C, 10, 6, rate)
}

fn policy_nids(plan: &AddressPlan, policy: OverlapPolicy, dataflow: DataflowMode) -> Nids {
    let mut config = NidsConfig {
        honeypots: plan.honeypots.clone(),
        dark_nets: vec![(plan.dark_net, 16)],
        ..NidsConfig::default()
    };
    config.flow_table.overlap_policy = policy;
    config.dataflow = dataflow;
    Nids::new(config)
}

/// Replay `capture` through one (policy, dataflow) pipeline.
fn replay(capture: &DesyncCapture, policy: OverlapPolicy, dataflow: DataflowMode) -> Vec<Alert> {
    policy_nids(&AddressPlan::default(), policy, dataflow).process_capture(&capture.packets)
}

/// Attack sources with at least one alert attributed.
fn detected_count(capture: &DesyncCapture, alerts: &[Alert]) -> usize {
    capture
        .attack_sources
        .iter()
        .filter(|src| alerts.iter().any(|a| a.src == **src))
        .count()
}

fn render(alerts: &[Alert]) -> String {
    alerts
        .iter()
        .map(|a| a.render())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn desync_storm_degrades_monotonically_and_observably() {
    let plan = AddressPlan::default();
    let mut zero_rate_renders: Vec<String> = Vec::new();

    for policy in OverlapPolicy::ALL {
        let mut prev_detected: Option<BTreeSet<Ipv4Addr>> = None;
        for rate in RATES {
            let capture = build_capture(rate);
            // Default engine (near-miss dataflow pass): this suite's
            // invariants must hold for the pipeline users actually run.
            let mut nids = policy_nids(&plan, policy, DataflowMode::default());
            let alerts = nids.process_capture(&capture.packets);
            let stats = nids.stats();

            assert!(
                stats.packet_ledger_balanced(),
                "{} rate {rate}: unbalanced:\n{}",
                policy.name(),
                stats.drop_report()
            );

            let detected: BTreeSet<Ipv4Addr> = capture
                .attack_sources
                .iter()
                .copied()
                .filter(|src| alerts.iter().any(|a| a.src == *src))
                .collect();

            if rate == 0.0 {
                assert_eq!(
                    detected.len(),
                    capture.attack_sources.len(),
                    "{}: clean capture must be fully detected",
                    policy.name()
                );
                assert_eq!(stats.overlap_conflict_bytes, 0, "{}", policy.name());
                zero_rate_renders.push(render(&alerts));
            } else if !capture.faulted_sources.is_empty() {
                // Divergent overlaps landed: the integrity ledger must see
                // them no matter which copy the policy believed.
                assert!(
                    stats.overlap_conflict_bytes > 0,
                    "{} rate {rate}: {} faulted flows but silent ledger:\n{}",
                    policy.name(),
                    capture.faulted_sources.len(),
                    stats.drop_report()
                );
            }

            // Un-faulted attack sources must always still be detected.
            for src in &capture.attack_sources {
                if !capture.faulted_sources.contains(src) {
                    assert!(
                        detected.contains(src),
                        "{} rate {rate}: clean source {src} lost",
                        policy.name()
                    );
                }
            }

            // Monotone: raising the rate only ever removes detections.
            if let Some(prev) = &prev_detected {
                assert!(
                    detected.is_subset(prev),
                    "{}: detection set grew from rate step to {rate}: {:?} -> {:?}",
                    policy.name(),
                    prev,
                    detected
                );
            }
            prev_detected = Some(detected);
        }
    }

    // Rate 0: all four policies agree byte-for-byte.
    for render in &zero_rate_renders[1..] {
        assert_eq!(
            render, &zero_rate_renders[0],
            "policies diverged on a clean capture"
        );
    }
}

#[test]
fn desync_storm_actually_splits_the_policies() {
    let capture = build_capture(1.0);
    assert_eq!(capture.faulted_sources.len(), capture.attack_sources.len());
    assert!(capture.divergent_overlap_bytes > 0);

    // Policy separation is a property of the *reassembly* layer, so it
    // is measured with the dataflow second pass off — the recovery pass
    // exists precisely to erase this gap (and the assertions at the
    // bottom hold it to that).
    let mut detected_per_policy = Vec::new();
    let mut recovered_per_policy = Vec::new();
    for policy in OverlapPolicy::ALL {
        for (out, mode) in [
            (&mut detected_per_policy, DataflowMode::Off),
            (&mut recovered_per_policy, DataflowMode::NearMiss),
        ] {
            out.push(detected_count(&capture, &replay(&capture, policy, mode)));
        }
    }
    // The fault kinds have different per-policy blast radii, so a full
    // storm cannot look the same to every stack model...
    assert!(
        detected_per_policy
            .iter()
            .any(|d| *d != detected_per_policy[0]),
        "policies did not separate: {detected_per_policy:?}"
    );
    // ...and must cost someone real detections.
    assert!(
        detected_per_policy
            .iter()
            .any(|d| *d < capture.attack_sources.len()),
        "full-rate desync storm evaded nothing: {detected_per_policy:?}"
    );
    // The default near-miss pass can only add detections on top of the
    // seed engine, and must win back ground somewhere in the storm.
    for (policy, (off, on)) in OverlapPolicy::ALL
        .iter()
        .zip(detected_per_policy.iter().zip(&recovered_per_policy))
    {
        assert!(
            on >= off,
            "{}: near-miss lost ground: {on} < {off}",
            policy.name()
        );
    }
    assert!(
        recovered_per_policy
            .iter()
            .zip(&detected_per_policy)
            .any(|(on, off)| on > off),
        "dataflow pass recovered nothing: off {detected_per_policy:?} on {recovered_per_policy:?}"
    );
}

/// The near-miss dataflow pass can only add detections: at every
/// (policy, rate) point its count dominates the dataflow-off count, both
/// curves are monotone non-increasing in the rate, and the pass wins
/// ground back somewhere (it is not a no-op).
#[test]
fn near_miss_dominates_off_at_every_policy_and_rate() {
    let captures: Vec<DesyncCapture> = RATES.iter().map(|&r| build_capture(r)).collect();
    let mut recovered_any = false;
    for policy in OverlapPolicy::ALL {
        let mut prev: Option<(usize, usize)> = None;
        for (rate, capture) in RATES.iter().zip(&captures) {
            let off = detected_count(capture, &replay(capture, policy, DataflowMode::Off));
            let on = detected_count(capture, &replay(capture, policy, DataflowMode::NearMiss));
            assert!(
                on >= off,
                "{} rate {rate}: near-miss lost detections: {on} < {off}",
                policy.name()
            );
            recovered_any |= on > off;
            if let Some((prev_off, prev_on)) = prev {
                assert!(
                    off <= prev_off && on <= prev_on,
                    "{} rate {rate}: detection rose with the fault rate: \
                     off {prev_off} -> {off}, near-miss {prev_on} -> {on}",
                    policy.name()
                );
            }
            prev = Some((off, on));
        }
    }
    assert!(recovered_any, "dataflow pass never recovered a detection");
}

/// On an un-faulted capture every `--dataflow` mode renders the
/// byte-identical alert stream under every reassembly policy: the second
/// pass only ever fires on flows the fast matcher missed, so clean
/// traffic is invisible to it even in `On` mode.
#[test]
fn zero_rate_alerts_identical_across_all_modes() {
    let capture = build_capture(0.0);
    let reference = render(&replay(&capture, OverlapPolicy::ALL[0], DataflowMode::Off));
    assert!(!reference.is_empty(), "clean capture produced no alerts");
    for policy in OverlapPolicy::ALL {
        for mode in [DataflowMode::Off, DataflowMode::NearMiss, DataflowMode::On] {
            assert_eq!(
                render(&replay(&capture, policy, mode)),
                reference,
                "alerts diverged: policy {} mode {mode:?}",
                policy.name()
            );
        }
    }
}

/// At fault rate 0.3 the near-miss pass detects at least as many
/// last-wins attack sources as the seed (dataflow-off) engine, on a
/// capture that actually carries faults.
#[test]
fn near_miss_dominates_last_wins_at_rate_03() {
    let capture = desync_capture(2006, 12, 6, 0.3);
    assert!(!capture.faulted_sources.is_empty(), "no faults at 0.3");
    let off = detected_count(
        &capture,
        &replay(&capture, OverlapPolicy::LastWins, DataflowMode::Off),
    );
    let on = detected_count(
        &capture,
        &replay(&capture, OverlapPolicy::LastWins, DataflowMode::NearMiss),
    );
    assert!(on >= off, "near-miss lost ground: {on} < {off}");
}
