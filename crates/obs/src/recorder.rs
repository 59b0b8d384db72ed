//! The flow flight recorder: a bounded ring of recent pipeline events.
//!
//! Every event is tagged with the flow it concerns (the directional
//! five-tuple, addresses packed as `u32`), the pipeline [`Stage`] that
//! produced it, a coarse [`EventKind`], a byte count and an opaque reason
//! code. When an alert fires or a flow is dropped, the pipeline reads the
//! ring once ([`FlightRecorder::events`]) and dumps that flow's causal
//! history — what led to the detection or the miss.
//!
//! # One writer
//!
//! The pipeline records from one thread: the capture thread, which also
//! turns what the analysis workers hand back into events, in input
//! order. The ring is therefore a plain `VecDeque`, behind a `Mutex` only
//! because readers (a live `/metrics` scrape) may run on another thread.
//! The recorder assigns each event its `seq` under the lock, so the order
//! of the ring is the order of the calls, and a full ring drops its
//! oldest event.

use crate::stage::Stage;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What kind of thing happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A packet (or reassembled datagram) entered the pipeline for this
    /// flow.
    Ingest,
    /// Input concerning this flow was dropped or degraded; `reason` holds
    /// the pipeline's drop-reason code (`DropReason as u16 + 1`).
    Drop,
    /// Reassembly observed divergently overlapping TCP data (a desync
    /// evasion signature); `bytes` is the conflicting byte count.
    Conflict,
    /// A template match alerted on this flow.
    Alert,
    /// The shared memory budget crossed a watermark; `bytes` is the
    /// tracked total at the transition and `reason` the new
    /// pressure-level code (0 normal / 1 high / 2 critical).
    Watermark,
}

impl EventKind {
    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Ingest => "ingest",
            EventKind::Drop => "drop",
            EventKind::Conflict => "conflict",
            EventKind::Alert => "alert",
            EventKind::Watermark => "watermark",
        }
    }
}

/// One recorded pipeline event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global recording order (1-based; later events have larger
    /// sequence numbers). Assigned by [`FlightRecorder::record`].
    pub seq: u64,
    /// The stage that recorded the event.
    pub stage: Stage,
    /// What happened.
    pub kind: EventKind,
    /// Flow source address (big-endian `u32` of the IPv4 address).
    pub src: u32,
    /// Flow destination address.
    pub dst: u32,
    /// Flow source port.
    pub src_port: u16,
    /// Flow destination port.
    pub dst_port: u16,
    /// Bytes concerned (payload length, conflict size, frame size…).
    pub bytes: u64,
    /// Opaque reason code; 0 means "none". The pipeline packs its
    /// `DropReason` discriminant plus one here.
    pub reason: u16,
}

/// The recorder proper. See the module docs for the writer contract.
#[derive(Debug)]
pub struct FlightRecorder {
    /// Newest last; the newest event's `seq` counts every event recorded.
    ring: Mutex<VecDeque<Event>>,
    capacity: usize,
    copies: AtomicU64,
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` events (clamped to at
    /// least 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            copies: AtomicU64::new(0),
        }
    }

    fn ring(&self) -> std::sync::MutexGuard<'_, VecDeque<Event>> {
        self.ring.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total events ever recorded (the most recent `capacity` of them are
    /// readable).
    pub fn recorded(&self) -> u64 {
        self.ring().back().map_or(0, |e| e.seq)
    }

    /// Times the ring has been read out whole ([`FlightRecorder::events`]).
    pub fn copies(&self) -> u64 {
        self.copies.load(Ordering::Relaxed)
    }

    /// Record one event, stamping its `seq`; a full ring drops its oldest
    /// event.
    pub fn record(&self, mut event: Event) {
        let mut ring = self.ring();
        event.seq = ring.back().map_or(0, |e| e.seq) + 1;
        if ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back(event);
    }

    /// Every retained event, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.copies.fetch_add(1, Ordering::Relaxed);
        self.ring().iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seqless: u64, kind: EventKind) -> Event {
        Event {
            seq: 0,
            stage: Stage::Capture,
            kind,
            src: 0x0a000001,
            dst: 0x0a000002,
            src_port: 4000,
            dst_port: 80,
            bytes: seqless,
            reason: 0,
        }
    }

    #[test]
    fn records_and_replays_in_order() {
        let r = FlightRecorder::new(8);
        for i in 0..5 {
            r.record(ev(i, EventKind::Ingest));
        }
        let events = r.events();
        assert_eq!(events.len(), 5);
        assert_eq!(r.recorded(), 5);
        let bytes: Vec<u64> = events.iter().map(|e| e.bytes).collect();
        assert_eq!(bytes, vec![0, 1, 2, 3, 4]);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn ring_overwrites_oldest() {
        let r = FlightRecorder::new(4);
        for i in 0..10 {
            r.record(ev(i, EventKind::Ingest));
        }
        let events = r.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].bytes, 6);
        assert_eq!(events[3].bytes, 9);
    }

    #[test]
    fn round_trips_every_field() {
        let r = FlightRecorder::new(2);
        let e = Event {
            seq: 0,
            stage: Stage::TemplateMatch,
            kind: EventKind::Drop,
            src: u32::MAX,
            dst: 0x7f000001,
            src_port: 65535,
            dst_port: 1,
            bytes: u64::MAX,
            reason: 13,
        };
        r.record(e);
        let got = r.events()[0];
        assert_eq!(got.stage, e.stage);
        assert_eq!(got.kind, e.kind);
        assert_eq!((got.src, got.dst), (e.src, e.dst));
        assert_eq!((got.src_port, got.dst_port), (e.src_port, e.dst_port));
        assert_eq!(got.bytes, e.bytes);
        assert_eq!(got.reason, e.reason);
        assert_eq!(got.seq, 1);
    }

    #[test]
    fn concurrent_writers_never_blend_events() {
        let r = std::sync::Arc::new(FlightRecorder::new(64));
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let r = std::sync::Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for i in 0..5_000u64 {
                    // Each thread writes self-consistent events: src
                    // encodes the thread, bytes encodes (thread, i).
                    r.record(Event {
                        seq: 0,
                        stage: Stage::Extract,
                        kind: EventKind::Ingest,
                        src: t,
                        dst: t,
                        src_port: t as u16,
                        dst_port: t as u16,
                        bytes: u64::from(t) << 32 | i,
                        reason: t as u16,
                    });
                }
            }));
        }
        for handle in handles {
            let _ = handle.join();
        }
        assert_eq!(r.recorded(), 20_000);
        // No event is lost to a writer race: the ring is full, its
        // sequence numbers are the last 64 handed out, and every event
        // reads back self-consistent.
        let events = r.events();
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (20_000 - 63..=20_000).collect::<Vec<u64>>());
        for e in events {
            let t = e.src;
            assert_eq!(e.dst, t);
            assert_eq!(u32::from(e.src_port), t);
            assert_eq!(e.reason as u32, t);
            assert_eq!((e.bytes >> 32) as u32, t);
        }
    }
}
