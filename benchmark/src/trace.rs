//! Spans recorded by the staged driver: kept in memory while it runs,
//! written out as one JSON file when the benchmark ends.
//!
//! A span is `(name, start, end, parent, ref, calls)`. `ref` is the
//! 1024-packet chunk index for front-half spans and the flow's analysis
//! ordinal for back-half spans, so the spans of one chunk or one flow share
//! an identifier. Two kinds of span exist:
//!
//! * **real** spans (`calls == 0`): one contiguous interval, start and end
//!   read from the clock — a chunk's parse stage, one flow's extraction.
//! * **aggregate** spans (`calls > 0`): a layer that is entered once per
//!   packet (or per frame) inside its parent, interleaved with its
//!   siblings. The duration is the exact sum of that many timed calls; the
//!   position is laid end to end from the parent's start and is not
//!   meaningful.
//!
//! Either way a layer's self time is its span's duration minus the
//! durations of the spans that name it as parent.

use std::fmt::Write as _;
use std::time::Instant;

/// What a span timed: the layer (crate) the time belongs to, the driver's
/// own structural spans (`core.*`), or the bookkeeping only a traced run
/// does (frame hashing, the sweep cross-check), which never counts as a
/// layer. The discriminant indexes [`SPAN_NAMES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    Run,
    Chunk,
    Parse,
    Checksum,
    Front,
    Defrag,
    Classify,
    Prefilter,
    Track,
    Finish,
    AnalyzeFlow,
    Extract,
    X86,
    Lift,
    Match,
    Dataflow,
    Bookkeeping,
}

/// The names as the trace file and the reports print them, by [`Name`].
pub const SPAN_NAMES: [&str; 17] = [
    "core.run",
    "core.chunk",
    "packet.parse",
    "packet.checksum",
    "core.front",
    "flow.defrag",
    "classify",
    "prefilter",
    "flow.track",
    "core.finish",
    "core.analyze_flow",
    "extract",
    "x86",
    "ir.lift",
    "semantic.match",
    "ir.dataflow",
    "trace.bookkeeping",
];

/// Parent of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span; times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What ran.
    pub name: Name,
    /// Start.
    pub start: u64,
    /// End.
    pub end: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Chunk index or flow ordinal.
    pub reference: u32,
    /// 0 for a real span; the number of timed calls an aggregate sums.
    pub calls: u32,
}

/// The in-memory span store.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        (t - self.origin).as_nanos() as u64
    }

    /// Open a real span at `start`; close it with [`Recorder::close`].
    pub fn open(&mut self, name: Name, start: Instant, parent: u32, reference: u32) -> u32 {
        let start = self.at(start);
        self.push(Span {
            name,
            start,
            end: start,
            parent,
            reference,
            calls: 0,
        })
    }

    /// Close a span opened with [`Recorder::open`].
    pub fn close(&mut self, id: u32, end: Instant) {
        self.spans[id as usize].end = self.at(end);
    }

    /// Record a real span whose both ends are known.
    pub fn real(&mut self, name: Name, start: Instant, end: Instant, parent: u32, reference: u32) {
        let id = self.open(name, start, parent, reference);
        self.close(id, end);
    }

    /// Record the aggregate children of `parent`, laid end to end from
    /// `from` (nanoseconds since the origin): `(name, nanos, calls)` each,
    /// skipping layers that were never entered.
    pub fn aggregates(
        &mut self,
        parent: u32,
        from: u64,
        reference: u32,
        parts: &[(Name, u64, u32)],
    ) {
        let mut cursor = from;
        for &(name, nanos, calls) in parts {
            if calls == 0 {
                continue;
            }
            self.push(Span {
                name,
                start: cursor,
                end: cursor + nanos,
                parent,
                reference,
                calls,
            });
            cursor += nanos;
        }
    }

    fn push(&mut self, span: Span) -> u32 {
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the durations
    /// of its direct children, summed by name. `(name, self nanos, spans)`.
    pub fn self_times(&self) -> Vec<(&'static str, u64, u64)> {
        let mut child_nanos = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_nanos[s.parent as usize] += s.end - s.start;
            }
        }
        let mut by_name = [(0u64, 0u64); SPAN_NAMES.len()];
        for (s, children) in self.spans.iter().zip(&child_nanos) {
            let slot = &mut by_name[s.name as usize];
            slot.0 += (s.end - s.start).saturating_sub(*children);
            slot.1 += 1;
        }
        SPAN_NAMES
            .iter()
            .copied()
            .zip(by_name)
            .map(|(name, (nanos, count))| (name, nanos, count))
            .collect()
    }

    /// The trace file: a header naming the columns, then one row per span.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 48);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"time_unit\":\"ns\",\"names\":["
        );
        for (i, name) in SPAN_NAMES.iter().enumerate() {
            let _ = write!(out, "{}\"{name}\"", if i == 0 { "" } else { "," });
        }
        out.push_str(
            "],\"columns\":[\"name\",\"start\",\"end\",\"parent\",\"ref\",\"calls\"],\"spans\":[\n",
        );
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "[{},{},{},{},{},{}]{}",
                s.name as u8,
                s.start,
                s.end,
                parent,
                s.reference,
                s.calls,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut r = Recorder::new();
        let t0 = r.origin;
        let ms = |n| t0 + Duration::from_millis(n);
        let run = r.open(Name::Run, ms(0), NO_PARENT, 0);
        let chunk = r.open(Name::Chunk, ms(0), run, 0);
        r.real(Name::Parse, ms(0), ms(3), chunk, 0);
        let from = r.at(ms(3));
        r.aggregates(
            chunk,
            from,
            0,
            &[(Name::Classify, 2_000_000, 7), (Name::Prefilter, 0, 0)],
        );
        r.close(chunk, ms(6));
        r.close(run, ms(10));
        let selfs = r.self_times();
        let get = |n: &str| selfs.iter().find(|s| s.0 == n).map(|s| (s.1, s.2)).unwrap();
        assert_eq!(get("core.run"), (4_000_000, 1));
        assert_eq!(get("core.chunk"), (1_000_000, 1));
        assert_eq!(get("packet.parse"), (3_000_000, 1));
        assert_eq!(get("classify"), (2_000_000, 1));
        assert_eq!(get("prefilter"), (0, 0));
        let parsed = snids_obs::json::parse(&r.to_json("w", 1)).expect("trace is JSON");
        assert_eq!(
            parsed.get("spans").and_then(|s| s.as_arr()).unwrap().len(),
            4
        );
    }
}
