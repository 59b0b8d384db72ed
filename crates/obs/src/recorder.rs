//! The flow flight recorder: a fixed-size lock-free ring of recent
//! pipeline events.
//!
//! Every event is tagged with the flow it concerns (the directional
//! five-tuple, addresses packed as `u32`), the pipeline [`Stage`] that
//! produced it, a coarse [`EventKind`], a byte count and an opaque reason
//! code. When an alert fires or a flow is dropped, the pipeline asks for
//! that flow's trail ([`FlightRecorder::events_for_flow`]) — the causal
//! history that led to the detection or the miss.
//!
//! # Lock-freedom and tearing
//!
//! Writers claim a slot with one `fetch_add` on the ring head, take
//! exclusive ownership of the slot with a compare-exchange on its
//! sequence word (marking it mid-write), write the payload, and publish
//! by storing `ticket + 1` with release ordering. Two writers can only
//! collide on one slot when their tickets are a whole ring apart; the
//! loser of the claim **drops its event** (counted in
//! [`FlightRecorder::contended`]) rather than waiting, so the recorder
//! never blocks and never blends two events. Readers validate the
//! sequence word before and after reading the payload and discard the
//! slot on any mismatch — a reader racing a writer sees the older or the
//! newer event, never a mix. All of this is safe Rust with no mutex
//! anywhere.

use crate::stage::Stage;
use std::sync::atomic::{AtomicU64, Ordering};

/// What kind of thing happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A packet (or reassembled datagram) entered the pipeline for this
    /// flow.
    Ingest = 0,
    /// Input concerning this flow was dropped or degraded; `reason` holds
    /// the pipeline's drop-reason code (`DropReason as u16 + 1`).
    Drop = 1,
    /// Reassembly observed divergently overlapping TCP data (a desync
    /// evasion signature); `bytes` is the conflicting byte count.
    Conflict = 2,
    /// A template match alerted on this flow.
    Alert = 3,
    /// The shared memory budget crossed a watermark; `bytes` is the
    /// tracked total at the transition and `reason` the new
    /// pressure-level code (0 normal / 1 high / 2 critical).
    Watermark = 4,
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

    fn from_code(code: u8) -> Option<EventKind> {
        match code {
            0 => Some(EventKind::Ingest),
            1 => Some(EventKind::Drop),
            2 => Some(EventKind::Conflict),
            3 => Some(EventKind::Alert),
            4 => Some(EventKind::Watermark),
            _ => None,
        }
    }
}

/// One recorded pipeline event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global recording order (1-based ticket; later events have larger
    /// sequence numbers).
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

/// One ring slot: a sequence word plus three payload words.
///
/// Packing: `w0 = src << 32 | dst`; `w1 = src_port << 48 | dst_port << 32
/// | stage << 24 | kind << 16 | reason`; `w2 = bytes`.
#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    w0: AtomicU64,
    w1: AtomicU64,
    w2: AtomicU64,
}

impl Slot {
    const fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            w0: AtomicU64::new(0),
            w1: AtomicU64::new(0),
            w2: AtomicU64::new(0),
        }
    }
}

/// Sequence-word marker for a slot currently being written.
const WRITING: u64 = u64::MAX;

/// The recorder proper. See the module docs for the concurrency contract.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<Slot>,
    head: AtomicU64,
    contended: AtomicU64,
    copies: AtomicU64,
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` events (clamped to at
    /// least 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
            head: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            copies: AtomicU64::new(0),
        }
    }

    /// Ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever offered for recording (the most recent
    /// `capacity` of them, minus any contention drops, are readable).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events dropped because two writers collided on one slot (tickets a
    /// whole ring apart — vanishingly rare at sane capacities).
    pub fn contended(&self) -> u64 {
        self.contended.load(Ordering::Relaxed)
    }

    /// Times the ring has been read out whole ([`FlightRecorder::events`],
    /// [`FlightRecorder::events_for_flow`]): each is a pass over every slot.
    pub fn copies(&self) -> u64 {
        self.copies.load(Ordering::Relaxed)
    }

    /// Record one event. Lock-free; may overwrite the oldest slot, and
    /// under a same-slot writer collision the newer event is dropped (and
    /// counted) rather than blocking.
    pub fn record(&self, event: Event) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        // Claim the slot exclusively; losing the claim drops this event.
        let current = slot.seq.load(Ordering::Relaxed);
        if current == WRITING
            || slot
                .seq
                .compare_exchange(current, WRITING, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            self.contended.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let w0 = (u64::from(event.src) << 32) | u64::from(event.dst);
        let w1 = (u64::from(event.src_port) << 48)
            | (u64::from(event.dst_port) << 32)
            | (u64::from(event.stage as u8) << 24)
            | (u64::from(event.kind as u8) << 16)
            | u64::from(event.reason);
        slot.w0.store(w0, Ordering::Relaxed);
        slot.w1.store(w1, Ordering::Relaxed);
        slot.w2.store(event.bytes, Ordering::Relaxed);
        slot.seq.store(ticket + 1, Ordering::Release);
    }

    fn read_slot(&self, slot: &Slot) -> Option<Event> {
        let seq1 = slot.seq.load(Ordering::Acquire);
        if seq1 == 0 || seq1 == WRITING {
            return None;
        }
        let w0 = slot.w0.load(Ordering::Relaxed);
        let w1 = slot.w1.load(Ordering::Relaxed);
        let w2 = slot.w2.load(Ordering::Relaxed);
        if slot.seq.load(Ordering::Acquire) != seq1 {
            return None; // torn by a concurrent writer; skip
        }
        Some(Event {
            seq: seq1,
            stage: Stage::from_code(((w1 >> 24) & 0xff) as u8)?,
            kind: EventKind::from_code(((w1 >> 16) & 0xff) as u8)?,
            src: (w0 >> 32) as u32,
            dst: (w0 & 0xffff_ffff) as u32,
            src_port: ((w1 >> 48) & 0xffff) as u16,
            dst_port: ((w1 >> 32) & 0xffff) as u16,
            bytes: w2,
            reason: (w1 & 0xffff) as u16,
        })
    }

    /// Every currently readable event, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.copies.fetch_add(1, Ordering::Relaxed);
        let mut out: Vec<Event> = self
            .slots
            .iter()
            .filter_map(|s| self.read_slot(s))
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// The retained trail for one flow, oldest first. Events match when
    /// their five-tuple equals `(src, dst, src_port, dst_port)` exactly —
    /// callers wanting both directions query twice.
    pub fn events_for_flow(&self, src: u32, dst: u32, src_port: u16, dst_port: u16) -> Vec<Event> {
        self.copies.fetch_add(1, Ordering::Relaxed);
        let mut out: Vec<Event> = self
            .slots
            .iter()
            .filter_map(|s| self.read_slot(s))
            .filter(|e| {
                e.src == src && e.dst == dst && e.src_port == src_port && e.dst_port == dst_port
            })
            .collect();
        out.sort_by_key(|e| e.seq);
        out
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
    fn flow_filter_is_exact() {
        let r = FlightRecorder::new(16);
        r.record(ev(1, EventKind::Ingest));
        let mut other = ev(2, EventKind::Ingest);
        other.dst_port = 443;
        r.record(other);
        r.record(ev(3, EventKind::Alert));
        let trail = r.events_for_flow(0x0a000001, 0x0a000002, 4000, 80);
        assert_eq!(trail.len(), 2);
        assert_eq!(trail[1].kind, EventKind::Alert);
        assert!(r
            .events_for_flow(0x0a000001, 0x0a000002, 4000, 81)
            .is_empty());
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
        for e in r.events() {
            // Any event that survives reads back self-consistent.
            let t = e.src;
            assert_eq!(e.dst, t);
            assert_eq!(u32::from(e.src_port), t);
            assert_eq!(e.reason as u32, t);
            assert_eq!((e.bytes >> 32) as u32, t);
        }
    }
}
