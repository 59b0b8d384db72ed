//! Front halves on shard threads (`NidsConfig::shards >= 2`).
//!
//! [`Shards`] runs N [`FrontHalf`]s, each on its own thread owning its
//! slice of the flow table and its own pre-filter sticky state, keyed by
//! the canonical flow hash ([`snids_flow::shard::canonical_flow_hash`]),
//! so the hot path takes no locks. The capture thread stays the
//! sequential driver for the stages that carry cross-flow per-source
//! state: checksum verification, defragmentation and classification
//! (honeypot taint and dark-space counts for source S are updated by
//! packets from every address pair S talks to, so they cannot live on a
//! pair-keyed shard without reordering the scheme's decisions).
//! Classified-suspicious packets reach their shard through a bounded
//! mailbox ([`snids_exec::mailbox`]): a full mailbox blocks the driver —
//! backpressure, recorded under the `dispatch` stage — instead of
//! queueing unboundedly outside the memory governor's sight.
//!
//! ```text
//!            driver (capture order)          shards (flow order)
//!  packets ─▶ checksum ▶ defrag ▶ classify ─┬▶ [mailbox]▶ FrontHalf::track
//!                                           ├▶ [mailbox]▶ FrontHalf::track
//!                                           └▶ [mailbox]▶ FrontHalf::track
//!                 ▲                                │ tracked / barrier
//!                 └──────── alerts ◀ analysis ◀────┘ (completed flows)
//! ```
//!
//! Shards send back what the driver acts on inline — shed victims,
//! unanalyzed evictions, and at barriers the completed flows plus their
//! counters — so the analysis back half, the ledger merge and the flight
//! dumps are the inline code, and the alert stream is byte-identical at
//! any shard count (pinned by `tests/shard_equivalence.rs`).

use crate::front::{Barrier, FrontCounters, FrontHalf, Tracked};
use snids_exec::mailbox;
use snids_flow::shard::shard_of_packet;
use snids_flow::Flow;
use snids_obs::{Obs, Stage};
use snids_packet::Packet;
use std::net::Ipv4Addr;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Instant;

/// A message from the driver to one shard.
enum ShardMsg {
    /// A classified-suspicious, fully defragmented packet to track.
    Packet(Packet),
    /// An alerting source: pin its flows in the protection tier.
    Protect(Ipv4Addr),
    /// Reply with the flows the barrier completes
    /// ([`ShardReply::Completed`]).
    Barrier(Barrier),
}

/// A message from a shard back to the driver. Replies travel over an
/// unbounded channel so a shard never blocks on the driver — the one-way
/// bound (driver → shard) is what makes backpressure safe.
enum ShardReply {
    /// What tracking a packet left for the driver (sent only when there
    /// is something to act on).
    Tracked(Tracked),
    /// Response to [`ShardMsg::Barrier`].
    Completed {
        shard: usize,
        flows: Vec<Flow>,
        counters: FrontCounters,
    },
}

fn run_shard(
    index: usize,
    mut front: FrontHalf,
    rx: mailbox::Receiver<ShardMsg>,
    replies: mpsc::Sender<ShardReply>,
) {
    while let Some(msg) = rx.recv() {
        // Send errors mean the driver is gone; the loop ends with the
        // mailbox.
        match msg {
            ShardMsg::Packet(p) => {
                let tracked = front.track(&p);
                if !tracked.shed.is_empty() || tracked.evicted.is_some() {
                    let _ = replies.send(ShardReply::Tracked(tracked));
                }
            }
            ShardMsg::Protect(src) => front.protect_source(src),
            ShardMsg::Barrier(barrier) => {
                let flows = front.complete(barrier);
                let counters = front.refresh().clone();
                let _ = replies.send(ShardReply::Completed {
                    shard: index,
                    flows,
                    counters,
                });
            }
        }
    }
}

/// The driver's side of the shard threads: one mailbox each, the shared
/// reply channel, and each shard's counters as of the last barrier.
pub(crate) struct Shards {
    senders: Vec<mailbox::Sender<ShardMsg>>,
    threads: Vec<JoinHandle<()>>,
    replies: mpsc::Receiver<ShardReply>,
    counters: Vec<FrontCounters>,
    obs: Obs,
}

impl Shards {
    /// Start one thread per front half.
    pub(crate) fn spawn(fronts: Vec<FrontHalf>, mailbox_cap: usize, obs: Obs) -> Shards {
        let (reply_tx, replies) = mpsc::channel();
        let mut senders = Vec::with_capacity(fronts.len());
        let mut threads = Vec::with_capacity(fronts.len());
        for (index, front) in fronts.into_iter().enumerate() {
            let (tx, rx) = mailbox::bounded::<ShardMsg>(mailbox_cap);
            let reply_tx = reply_tx.clone();
            let thread = std::thread::Builder::new()
                .name(format!("snids-shard-{index}"))
                .spawn(move || run_shard(index, front, rx, reply_tx))
                .expect("spawning a front-half shard thread");
            senders.push(tx);
            threads.push(thread);
        }
        Shards {
            counters: vec![FrontCounters::default(); senders.len()],
            senders,
            threads,
            replies,
            obs,
        }
    }

    /// Route one suspicious packet to its shard, blocking while that
    /// shard's mailbox is full.
    pub(crate) fn dispatch(&self, packet: Packet) {
        let idx = shard_of_packet(&packet, self.senders.len()).unwrap_or(0);
        let bytes = packet.payload().len() as u64;
        let t0 = self.obs.enabled().then(Instant::now);
        // A send error means the shard thread is gone (short of a shard
        // panic it cannot happen); the ledger imbalance surfaces loudly.
        let _ = self.senders[idx].send(ShardMsg::Packet(packet));
        if let Some(t0) = t0 {
            // ~zero when the shard keeps up, the full stall under
            // backpressure.
            self.obs
                .record_stage(Stage::Dispatch, t0.elapsed().as_nanos() as u64, bytes);
        }
    }

    /// Replies that have already arrived, without blocking — shed victims
    /// must reach analyze-on-evict promptly, not at the next barrier.
    pub(crate) fn ready(&self) -> Vec<Tracked> {
        let mut out = Vec::new();
        while let Ok(reply) = self.replies.try_recv() {
            if let ShardReply::Tracked(t) = reply {
                out.push(t);
            }
        }
        out
    }

    /// Pin a source in every shard's protection tier.
    pub(crate) fn protect_source(&self, src: Ipv4Addr) {
        for tx in &self.senders {
            let _ = tx.send(ShardMsg::Protect(src));
        }
    }

    /// Run a barrier on every shard: the completed flows in shard-index
    /// order (so batching and timing attribution downstream are
    /// deterministic), plus the tracked replies that arrived meanwhile.
    pub(crate) fn barrier(&mut self, barrier: Barrier) -> (Vec<Flow>, Vec<Tracked>) {
        for tx in &self.senders {
            let _ = tx.send(ShardMsg::Barrier(barrier));
        }
        let mut batches: Vec<Vec<Flow>> = (0..self.senders.len()).map(|_| Vec::new()).collect();
        let mut tracked = Vec::new();
        let mut pending = self.senders.len();
        while pending > 0 {
            match self.replies.recv() {
                Ok(ShardReply::Tracked(t)) => tracked.push(t),
                Ok(ShardReply::Completed {
                    shard,
                    flows,
                    counters,
                }) => {
                    batches[shard] = flows;
                    self.counters[shard] = counters;
                    pending -= 1;
                }
                Err(_) => break, // every shard exited
            }
        }
        (batches.into_iter().flatten().collect(), tracked)
    }

    /// Each shard's counters as of the last barrier.
    pub(crate) fn counters(&self) -> &[FrontCounters] {
        &self.counters
    }

    /// Mailbox backpressure totals: `(blocked_sends, peak_depth)`.
    pub(crate) fn backpressure(&self) -> (u64, u64) {
        self.senders
            .iter()
            .map(|tx| tx.stats())
            .fold((0, 0), |(b, p), s| {
                (b + s.blocked_sends, p.max(s.peak_depth))
            })
    }

    /// Mirror the per-shard gauges into the obs registry.
    pub(crate) fn publish_gauges(&self) {
        let obs = &self.obs;
        obs.set_named("snids_shards", self.senders.len() as u64);
        for (i, (c, tx)) in self.counters.iter().zip(&self.senders).enumerate() {
            let mb = tx.stats();
            for (name, value) in [
                ("snids_shard_packets_total", c.packets),
                ("snids_shard_prefilter_rejected_total", c.prefilter_rejected),
                ("snids_shard_flows_live", c.flows_live),
                ("snids_shard_flows_shed_total", c.evicted),
                ("snids_shard_reassembly_nanos_total", c.reassembly_nanos),
                ("snids_shard_mailbox_depth", mb.depth as u64),
                ("snids_shard_mailbox_capacity", mb.capacity as u64),
                ("snids_shard_mailbox_blocked_sends_total", mb.blocked_sends),
                ("snids_shard_mailbox_peak_depth", mb.peak_depth),
            ] {
                obs.set_named(&format!("{name}{{shard=\"{i}\"}}"), value);
            }
        }
    }
}

impl Drop for Shards {
    fn drop(&mut self) {
        // Dropping the senders closes every mailbox; each shard drains
        // what is queued, sees the disconnect and exits. Join so no
        // thread outlives the pipeline (a shard panic is not re-raised
        // from drop).
        self.senders.clear();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Nids, NidsConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snids_gen::traces::{codered_capture, AddressPlan};

    fn sharded_config(plan: &AddressPlan, shards: usize) -> NidsConfig {
        NidsConfig {
            honeypots: plan.honeypots.clone(),
            dark_nets: vec![(plan.dark_net, 16)],
            dark_threshold: 5,
            shards,
            ..NidsConfig::default()
        }
    }

    /// Sharded front halves find every worm instance, and the merged
    /// ledger balances.
    #[test]
    fn sharded_worm_detection_and_ledger_balance() {
        let plan = AddressPlan::default();
        let mut rng = StdRng::seed_from_u64(7);
        let (packets, truth) = codered_capture(&mut rng, &plan, 1200, 3);
        let mut nids = Nids::new(sharded_config(&plan, 4));
        let alerts = nids.process_capture(&packets);
        let mut sources: Vec<_> = alerts
            .iter()
            .filter(|a| a.template == "code-red-ii")
            .map(|a| a.src)
            .collect();
        sources.sort_unstable();
        sources.dedup();
        assert_eq!(sources.len(), truth.crii_sources.len(), "{alerts:?}");
        let s = nids.stats();
        assert_eq!(s.packets, packets.len() as u64);
        assert!(s.packet_ledger_balanced(), "{}", s.drop_report());
        assert_eq!(nids.budget().tracked(), 0);
    }

    /// Finish leaves the shards running: a second capture through the
    /// same pipeline is tracked and drained like the first.
    #[test]
    fn finish_is_a_barrier_not_a_shutdown() {
        let plan = AddressPlan::default();
        let mut rng = StdRng::seed_from_u64(7);
        let (packets, _) = codered_capture(&mut rng, &plan, 600, 2);
        let mut nids = Nids::new(sharded_config(&plan, 3));
        let first = nids.process_capture(&packets);
        let second = nids.process_capture(&packets);
        assert!(!first.is_empty());
        assert_eq!(first.len(), second.len());
        let s = nids.stats();
        assert_eq!(s.packets, 2 * packets.len() as u64);
        assert!(s.packet_ledger_balanced(), "{}", s.drop_report());
        assert_eq!(nids.budget().tracked(), 0);
    }

    /// Dropping a sharded pipeline without finish() must not hang or
    /// leak threads.
    #[test]
    fn drop_without_finish_shuts_down() {
        let plan = AddressPlan::default();
        let mut rng = StdRng::seed_from_u64(9);
        let (packets, _) = codered_capture(&mut rng, &plan, 400, 2);
        let mut nids = Nids::new(sharded_config(&plan, 3));
        for p in &packets {
            nids.process_packet(p);
        }
        drop(nids);
    }
}
