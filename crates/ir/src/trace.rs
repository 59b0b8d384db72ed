//! Execution-order normalization: turn a byte buffer into the instruction
//! sequence the CPU would actually execute from a given start offset.
//!
//! Out-of-order code (paper Figure 1(c)) scatters a routine's instructions
//! and stitches them back together with unconditional `jmp`s. A pattern
//! matcher over the *storage* order never sees the routine; a matcher over
//! the *execution* order sees it verbatim. This module follows:
//!
//! * unconditional relative `jmp`s (to unvisited, in-range targets),
//! * relative `call`s (shellcode `call/pop` GetPC idioms and subroutine
//!   bodies execute at the target),
//!
//! and falls through conditional branches and `loop`s (taking the exit
//! path, which is where the decrypted payload continues). Each visited
//! offset is recorded so cyclic control flow terminates.

use crate::arena::FrameCode;
use crate::op::{IrInsn, SemOp};
use snids_x86::SweepBudget;

/// An execution-order instruction sequence with constant annotations.
///
/// A trace doubles as a reusable buffer: [`FrameCode::trace_into`] refills
/// one `Trace` for every start of a frame, so neither the op vector nor the
/// offset index is reallocated per start.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The offset the walk started at.
    pub start: usize,
    /// The ops in execution order, annotated by the constant evaluator.
    pub ops: Vec<IrInsn>,
    /// Dense offset → position-in-`ops` table, one entry per frame byte:
    /// `generation << 32 | position`. Entries stamped with an older
    /// generation belong to an earlier trace and read as absent, so
    /// starting the next trace costs one increment, not a clear. This is
    /// the walk's visited set *and* the index the matchers and the dataflow
    /// pass resolve branch targets through.
    index: Vec<u64>,
    generation: u32,
}

/// Default cap on trace length; generous for shellcode-sized inputs.
pub const MAX_TRACE_OPS: usize = 4096;

/// Build the execution-order trace starting at `start`.
///
/// A one-off convenience: it builds a [`FrameCode`] for a single walk.
/// Anything that walks a frame from several starts should build one
/// `FrameCode` and call [`FrameCode::trace_into`] per start.
pub fn trace_from(buf: &[u8], start: usize, max_ops: usize) -> Trace {
    let mut trace = Trace::default();
    FrameCode::new(buf).trace_into(start, max_ops, &mut trace);
    trace
}

impl Trace {
    /// A trace over already-annotated `ops` (no two at the same offset).
    pub fn from_ops(start: usize, ops: Vec<IrInsn>) -> Trace {
        let frame_len = ops.iter().map(|o| o.offset + 1).max().unwrap_or(0);
        let mut trace = Trace::default();
        trace.begin(start, frame_len);
        for op in ops {
            trace.mark(op.offset);
            trace.ops.push(op);
        }
        trace
    }

    /// Position in [`Trace::ops`] of the op at byte `offset`, if the trace
    /// executes one there.
    pub fn index_of(&self, offset: usize) -> Option<usize> {
        let entry = *self.index.get(offset)?;
        ((entry >> 32) as u32 == self.generation).then_some(entry as u32 as usize)
    }

    /// Empty the trace for a new walk over a frame of `frame_len` bytes.
    pub(crate) fn begin(&mut self, start: usize, frame_len: usize) {
        self.start = start;
        self.ops.clear();
        self.generation = self.generation.wrapping_add(1);
        if self.index.len() != frame_len || self.generation == 0 {
            self.index.clear();
            self.index.resize(frame_len, 0);
            self.generation = 1;
        }
    }

    /// Record that the next op pushed sits at `offset`. False (and no
    /// change) when the trace already executes that offset.
    pub(crate) fn mark(&mut self, offset: usize) -> bool {
        if self.index_of(offset).is_some() {
            return false;
        }
        self.index[offset] = u64::from(self.generation) << 32 | self.ops.len() as u64;
        true
    }

    /// The non-`Nop` ops — what matchers iterate.
    pub fn effective_ops(&self) -> impl Iterator<Item = &IrInsn> {
        self.ops.iter().filter(|o| o.op != SemOp::Nop)
    }

    /// Pretty listing for diagnostics.
    pub fn listing(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for op in &self.ops {
            let _ = writeln!(s, "{op}");
        }
        s
    }
}

/// Candidate start offsets for the *pruned* analyzer:
///
/// * offset 0 (the extracted frame head — where a sled starts),
/// * every resynchronisation point after an undecodable byte in a linear
///   sweep,
/// * **every in-range branch target found by decoding at every byte
///   offset** (a sliding scan of single decodes, O(n) and cheap).
///
/// The sliding branch scan is the load-bearing prune: a decryption loop
/// *must* branch backwards to its own body, so the body's start is the
/// target of some relative branch — and that branch is found no matter how
/// preceding garbage misaligns a linear sweep. Full traces (the expensive
/// part) then run only from this small start set, where the naive
/// (`[5]`-style) analyzer runs one from every byte offset.
pub fn default_starts(buf: &[u8]) -> Vec<usize> {
    default_starts_budgeted(buf, &SweepBudget::UNBOUNDED).starts
}

/// Result of a budgeted start discovery.
#[derive(Debug, Clone)]
pub struct StartsOutcome {
    /// Candidate trace start offsets, sorted and deduplicated.
    pub starts: Vec<usize>,
    /// True when the budget expired with input still unexamined — the
    /// start set is partial and detection over this frame is degraded.
    /// The pipeline accounts such frames as `decoder_bailout` drops.
    pub exhausted: bool,
}

/// [`default_starts`] bounded by an explicit [`SweepBudget`]: the resync
/// linear sweep stops at the budget's instruction/byte caps, and the
/// sliding branch scan examines at most `max_bytes` offsets. A hostile
/// flow cannot buy unbounded start discovery, and the caller learns when
/// input was left unexamined.
pub fn default_starts_budgeted(buf: &[u8], budget: &SweepBudget) -> StartsOutcome {
    FrameCode::discover(buf, budget).1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::BinKind;

    /// The paper's Figure 1(c): out-of-order xor decoder stitched with jmps.
    ///
    /// ```text
    ///   decode:  mov ecx, 0
    ///            inc ecx
    ///            inc ecx
    ///            jmp one
    ///   two:     add eax, 1
    ///            jmp three
    ///   one:     mov ebx, 31h
    ///            add ebx, 64h
    ///            xor [eax], bl
    ///            jmp two
    ///   three:   loop decode
    /// ```
    fn figure_1c() -> Vec<u8> {
        let mut b = Vec::new();
        b.extend_from_slice(&[0xb9, 0, 0, 0, 0]); // 0: mov ecx, 0
        b.extend_from_slice(&[0x41]); // 5: inc ecx
        b.extend_from_slice(&[0x41]); // 6: inc ecx
        b.extend_from_slice(&[0xeb, 0x05]); // 7: jmp +5 -> 14 (one)
        b.extend_from_slice(&[0x83, 0xc0, 0x01]); // 9: two: add eax, 1
        b.extend_from_slice(&[0xeb, 0x0c]); // 12: jmp +12 -> 26 (three)
        b.extend_from_slice(&[0xbb, 0x31, 0, 0, 0]); // 14: one: mov ebx, 31h
        b.extend_from_slice(&[0x83, 0xc3, 0x64]); // 19: add ebx, 64h
        b.extend_from_slice(&[0x30, 0x18]); // 22: xor [eax], bl
        b.extend_from_slice(&[0xeb, 0xef]); // 24: jmp -17 -> 9 (two)
        b.extend_from_slice(&[0xe2, 0xe4]); // 26: three: loop -28 -> 0
        b
    }

    #[test]
    fn follows_jmps_in_execution_order() {
        let buf = figure_1c();
        let t = trace_from(&buf, 0, MAX_TRACE_OPS);
        // Execution order: mov ecx; inc; inc; jmp; mov ebx; add ebx;
        // xor [eax],bl; jmp; add eax,1; jmp; loop
        let kinds: Vec<String> = t.ops.iter().map(|o| o.op.to_string()).collect();
        let joined = kinds.join(" | ");
        // The xor must appear BEFORE the add eax,1 in execution order,
        // even though it sits after it in storage order.
        let xor_pos = kinds.iter().position(|k| k.starts_with("Xor")).unwrap();
        let add_eax = kinds.iter().position(|k| k.starts_with("Add eax")).unwrap();
        assert!(xor_pos < add_eax, "execution order broken: {joined}");
        // And the loop back-edge terminates the trace (target 0 is visited).
        assert!(matches!(t.ops.last().unwrap().op, SemOp::LoopOp(_)));
    }

    #[test]
    fn constant_annotation_survives_reordering() {
        let buf = figure_1c();
        let t = trace_from(&buf, 0, MAX_TRACE_OPS);
        let xor = t
            .ops
            .iter()
            .find(|o| {
                matches!(
                    o.op,
                    SemOp::Bin {
                        op: BinKind::Xor,
                        ..
                    }
                )
            })
            .unwrap();
        assert_eq!(xor.src_value, Some(0x95), "key folds through the jmp maze");
    }

    #[test]
    fn cycles_terminate() {
        // jmp self
        let t = trace_from(&[0xeb, 0xfe], 0, MAX_TRACE_OPS);
        assert_eq!(t.ops.len(), 1);
        // two-instruction cycle
        let t = trace_from(&[0xeb, 0x00, 0xeb, 0xfc], 0, MAX_TRACE_OPS);
        assert!(t.ops.len() <= 3);
    }

    #[test]
    fn ret_and_bad_end_traces() {
        let t = trace_from(&[0x90, 0xc3, 0x90], 0, MAX_TRACE_OPS);
        assert_eq!(t.ops.len(), 2);
        assert_eq!(t.ops.last().unwrap().op, SemOp::Ret);

        let t = trace_from(&[0x90, 0x0f, 0xff, 0x90], 0, MAX_TRACE_OPS);
        assert_eq!(t.ops.last().unwrap().op, SemOp::Bad);
    }

    #[test]
    fn call_follows_target_like_getpc() {
        // jmp +5; target: pop esi; ret;  start: call -4 (to pop)
        // Layout: 0: jmp 7 ; 2: pop esi ; 3: ret ; 4..: call 2
        let mut b = vec![0xeb, 0x05]; // 0: jmp -> 7
        b.push(0x5e); // 2: pop esi
        b.push(0xc3); // 3: ret
        b.extend_from_slice(&[0x90, 0x90, 0x90]); // 4-6 padding
        b.extend_from_slice(&[0xe8, 0xf6, 0xff, 0xff, 0xff]); // 7: call -10 -> 2
        let t = trace_from(&b, 0, MAX_TRACE_OPS);
        let kinds: Vec<String> = t.ops.iter().map(|o| o.op.to_string()).collect();
        assert!(
            kinds.iter().any(|k| k.starts_with("Pop esi")),
            "call target must be followed: {kinds:?}"
        );
    }

    #[test]
    fn call_next_falls_through() {
        // call +0 (GetPC); pop ecx
        let b = [0xe8, 0x00, 0x00, 0x00, 0x00, 0x59];
        let t = trace_from(&b, 0, MAX_TRACE_OPS);
        assert_eq!(t.ops.len(), 2);
        assert!(matches!(t.ops[1].op, SemOp::Pop(_)));
    }

    #[test]
    fn conditional_branches_fall_through() {
        // je +2; inc eax; ret
        let b = [0x74, 0x02, 0x40, 0xc3];
        let t = trace_from(&b, 0, MAX_TRACE_OPS);
        let kinds: Vec<String> = t.ops.iter().map(|o| o.op.to_string()).collect();
        assert!(kinds[1].starts_with("Add eax"));
    }

    #[test]
    fn max_ops_is_respected() {
        let buf = vec![0x90u8; 1000];
        let t = trace_from(&buf, 0, 10);
        assert_eq!(t.ops.len(), 10);
    }

    #[test]
    fn default_starts_include_branch_targets_and_resync_points() {
        // bad byte at 0, nop, jmp over, target
        let buf = [0x0f, 0xff, 0xeb, 0x01, 0x90, 0x40, 0xc3];
        let starts = default_starts(&buf);
        assert!(starts.contains(&0));
        assert!(starts.contains(&1), "resync after bad byte: {starts:?}");
        assert!(starts.contains(&5), "jmp target: {starts:?}");
    }

    #[test]
    fn effective_ops_skips_nops() {
        let t = trace_from(&[0x90, 0x90, 0x40, 0xc3], 0, MAX_TRACE_OPS);
        assert_eq!(t.ops.len(), 4);
        assert_eq!(t.effective_ops().count(), 2);
    }
}
