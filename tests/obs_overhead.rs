//! Observability overhead smoke: replaying the polymorphic storm with the
//! obs layer enabled must cost no more than ~11% wall time over the
//! disabled run (enabled throughput ≥ 0.90× disabled). The design target
//! is ≤5% (see EXPERIMENTS.md); the gate is looser because shared CI
//! machines are noisy, but it still catches an accidentally hot
//! instrumentation point (an always-on clock read, a per-packet lock).
//!
//! Ignored by default — wall-clock measurements have no place in the
//! regular unit run. CI executes it explicitly with
//! `cargo test --release --test obs_overhead -- --ignored`.

use snids::core::{Nids, NidsConfig};
use snids::gen::corpus::polymorphic_storm;
use snids::gen::traces::AddressPlan;
use snids::packet::Packet;
use std::time::Instant;

/// Timed repetitions per mode; the best run is kept.
const REPEATS: usize = 9;

/// Best-of-[`REPEATS`] wall time for the whole capture on one analysis
/// thread, each repetition on a fresh pipeline.
fn best_secs(packets: &[Packet], observability: bool) -> f64 {
    let plan = AddressPlan::default();
    (0..REPEATS)
        .map(|_| {
            let mut nids = Nids::new(NidsConfig {
                honeypots: plan.honeypots.clone(),
                dark_nets: vec![(plan.dark_net, 16)],
                threads: 1,
                observability,
                ..NidsConfig::default()
            });
            let t0 = Instant::now();
            let alerts = nids.process_capture(packets);
            let secs = t0.elapsed().as_secs_f64();
            assert!(!alerts.is_empty(), "the storm must alert");
            secs
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
#[ignore = "wall-clock measurement; run explicitly in release mode"]
fn enabled_observability_keeps_nine_tenths_of_throughput() {
    let packets = polymorphic_storm(2006, 500, 1000);
    let secs = best_secs(&packets, false);
    let obs_secs = best_secs(&packets, true);
    assert!(secs > 0.0 && obs_secs > 0.0, "must have measured something");
    let throughput_ratio = secs / obs_secs;
    eprintln!("disabled {secs:.4}s, enabled {obs_secs:.4}s, ratio {throughput_ratio:.3}");
    assert!(
        throughput_ratio >= 0.90,
        "observability too expensive: enabled run is {:.1}% slower \
         (disabled {secs:.4}s, enabled {obs_secs:.4}s, ratio {throughput_ratio:.3})",
        (obs_secs / secs - 1.0) * 100.0,
    );
}
