//! Property-based tests for the memory governor: under arbitrary
//! hostile interleavings the budget's tracked bytes stay bounded, every
//! byte comes back on drain, and protected flows are only ever shed
//! when no unprotected victim was eligible.

use proptest::prelude::*;
use snids_flow::defrag::fragment_packet;
use snids_flow::{
    DefragConfig, Defragmenter, FlowTable, FlowTableConfig, MemoryBudget, PressureLevel,
};
use snids_packet::{PacketBuilder, TcpFlags};
use std::net::Ipv4Addr;
use std::sync::Arc;

const LIMIT: u64 = 32 * 1024;

/// The hard ceiling the governor guarantees for this configuration.
///
/// After every packet either tracked ≤ critical (the shed loop ran dry)
/// or a single flow remains, bounded by its own stream cap; one in-flight
/// charge of at most a segment (plus an equal-size shadow retention) can
/// land on top before the loop runs.
fn ceiling(max_stream: u64, max_segment: u64) -> u64 {
    (LIMIT * 9 / 10 + 2 * max_segment).max(max_stream + 2 * max_segment)
}

proptest! {
    /// Arbitrary TCP segments — wrapping ISNs and overlaps included —
    /// interleaved with a never-completing fragment flood, all charging
    /// one shared budget: tracked bytes never exceed the governor's
    /// ceiling, and every byte is released once the table and the
    /// defragmenter drain.
    #[test]
    fn tracked_bytes_stay_bounded_and_drain_to_zero(
        events in proptest::collection::vec(
            (0u8..16, any::<u32>(), 1usize..400, any::<bool>(), any::<u16>()),
            1..120,
        ),
    ) {
        let budget = Arc::new(MemoryBudget::limited(LIMIT));
        let mut table = FlowTable::with_budget(
            FlowTableConfig {
                max_flows: 4096,
                max_stream_bytes: 4096,
                ..FlowTableConfig::default()
            },
            Arc::clone(&budget),
        );
        let mut defrag = Defragmenter::with_budget(
            DefragConfig {
                max_datagram: 2048,
                ..DefragConfig::default()
            },
            Arc::clone(&budget),
        );
        let dst = Ipv4Addr::new(10, 9, 9, 9);
        let cap = ceiling(4096, 1200);

        for (i, (flow_id, seq, len, as_fragments, ident)) in events.iter().enumerate() {
            let src = Ipv4Addr::new(10, 0, 1 + (flow_id % 4), 1 + flow_id);
            let payload = vec![0x41u8; *len * 3];
            let packet = PacketBuilder::new(src, dst)
                .at(i as u64 * 100)
                .identification(*ident)
                .tcp(
                    1000 + u16::from(*flow_id),
                    80,
                    *seq,
                    0,
                    TcpFlags::ACK | TcpFlags::PSH,
                    &payload,
                )
                .unwrap();
            if *as_fragments {
                // Withhold the last fragment: the datagram never
                // completes and its pieces park in the defragmenter.
                let mut frags = fragment_packet(&packet, 256);
                frags.pop();
                for f in frags {
                    defrag.ingest(f);
                    prop_assert!(
                        budget.tracked() <= cap,
                        "defrag breached: {} > {cap}",
                        budget.tracked()
                    );
                }
            } else {
                table.process_tracked(&packet);
                prop_assert!(
                    budget.tracked() <= cap,
                    "table breached: {} > {cap}",
                    budget.tracked()
                );
            }
        }

        // After the incomplete datagrams drain, what remains tracked is
        // exactly the flow table's parked stream bytes.
        defrag.drain_incomplete();
        let parked: u64 = table.flows().map(|f| f.mem_bytes() as u64).sum();
        prop_assert_eq!(budget.tracked(), parked);

        table.drain();
        prop_assert_eq!(budget.tracked(), 0, "bytes leaked after drain");
        prop_assert!(budget.peak() <= cap);
    }

    /// Whenever the governor sheds a *protected* flow, no unprotected
    /// flow was eligible at that moment — `ShedFlow::unprotected_available`
    /// records the invariant at the decision point.
    #[test]
    fn protected_flows_are_shed_only_as_a_last_resort(
        flows in proptest::collection::vec(
            (1u8..120, 64usize..400, any::<bool>()),
            2..80,
        ),
        limit_kib in 2u64..6,
    ) {
        let budget = Arc::new(MemoryBudget::limited(limit_kib * 1024));
        let mut table = FlowTable::with_budget(
            FlowTableConfig {
                max_flows: 12,
                max_stream_bytes: 2048,
                hand_off_shed: true,
                ..FlowTableConfig::default()
            },
            Arc::clone(&budget),
        );
        let dst = Ipv4Addr::new(10, 9, 9, 9);
        let mut any_shed = false;

        for (i, (oct, len, flagged)) in flows.iter().enumerate() {
            let src = Ipv4Addr::new(10, 1, 0, *oct);
            if *flagged {
                // The analyzer saw this source attack: pin its flows.
                table.protect_source(src);
            }
            let packet = PacketBuilder::new(src, dst)
                .at(i as u64 * 100)
                .tcp(
                    2000 + i as u16,
                    80,
                    1,
                    0,
                    TcpFlags::ACK | TcpFlags::PSH,
                    &vec![0x42u8; *len],
                )
                .unwrap();
            table.process_tracked(&packet);
            for shed in table.take_shed() {
                any_shed = true;
                prop_assert!(
                    !shed.flow.protected() || shed.unprotected_available == 0,
                    "protected flow shed while {} unprotected victim(s) remained",
                    shed.unprotected_available
                );
            }
        }
        // The tiny budget and slot cap make pressure unavoidable for any
        // sequence that parks enough bytes; when nothing was shed the
        // workload stayed under both caps, which the budget must agree
        // with.
        if !any_shed {
            prop_assert!(budget.level() == PressureLevel::Normal || table.flows().count() <= 12);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The budget is one `Arc` shared by every holder — the flow table
    /// and the defragmenter each charge their own clone, and the clones
    /// must stay safe to charge from any thread. N clones charging and
    /// releasing concurrently must keep the shared `tracked_bytes` exact:
    /// it can never exceed the limit plus the bounded in-flight slack
    /// (each clone holds at most one charge before its matching release),
    /// it can never go negative — `release` saturates, so any underflow
    /// would *strand* bytes and show up as a non-zero final count — and
    /// once every clone drains it returns to exactly 0.
    #[test]
    fn multi_clone_charges_stay_bounded_and_drain_to_zero(
        per_clone in proptest::collection::vec(
            proptest::collection::vec(1u64..2048, 1..64),
            2..9,
        ),
    ) {
        const SLACK: u64 = 2048; // max single in-flight charge per clone
        let clones = per_clone.len() as u64;
        let limit = 8 * 1024;
        let budget = Arc::new(MemoryBudget::limited(limit));
        std::thread::scope(|scope| {
            for amounts in &per_clone {
                let clone = Arc::clone(&budget);
                scope.spawn(move || {
                    for &n in amounts {
                        clone.charge(n);
                        // Each clone holds at most one charge in flight,
                        // so the global count is bounded by everyone's
                        // worst-case in-flight bytes at once.
                        assert!(
                            clone.tracked() <= clones * SLACK,
                            "tracked {} above limit+slack",
                            clone.tracked()
                        );
                        clone.release(n);
                    }
                });
            }
        });
        // Exactly zero: a saturated (would-be negative) release anywhere
        // leaves stranded bytes behind, so == 0 proves both properties.
        prop_assert_eq!(budget.tracked(), 0, "clones did not drain to zero");
        prop_assert!(budget.peak() <= clones * SLACK);
        prop_assert!(budget.peak() > 0);
        prop_assert_eq!(budget.level(), PressureLevel::Normal);
    }
}

/// Seq-wraparound spotlight (deterministic, not a proptest): a stream
/// anchored just below `u32::MAX` crossing zero keeps its accounting
/// exact — wraparound cannot double-charge or leak on drain.
#[test]
fn seq_wraparound_accounting_is_exact() {
    let budget = Arc::new(MemoryBudget::limited(LIMIT));
    let mut table = FlowTable::with_budget(
        FlowTableConfig {
            max_stream_bytes: 4096,
            ..FlowTableConfig::default()
        },
        Arc::clone(&budget),
    );
    let src = Ipv4Addr::new(10, 2, 2, 2);
    let dst = Ipv4Addr::new(10, 9, 9, 9);
    let isn = u32::MAX - 100;
    let syn = PacketBuilder::new(src, dst)
        .at(0)
        .tcp(3000, 80, isn, 0, TcpFlags::SYN, &[])
        .unwrap();
    table.process_tracked(&syn);
    let mut seq = isn.wrapping_add(1);
    for i in 0..8u64 {
        let data = vec![0x43u8; 64];
        let p = PacketBuilder::new(src, dst)
            .at(10 + i)
            .tcp(3000, 80, seq, 0, TcpFlags::ACK | TcpFlags::PSH, &data)
            .unwrap();
        table.process_tracked(&p);
        seq = seq.wrapping_add(64);
    }
    let parked: u64 = table.flows().map(|f| f.mem_bytes() as u64).sum();
    assert_eq!(budget.tracked(), parked);
    assert_eq!(parked, 8 * 64, "contiguous bytes across the wrap");
    table.drain();
    assert_eq!(budget.tracked(), 0);
}
