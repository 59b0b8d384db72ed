//! The per-frame code arena: every byte offset of a frame is decoded at
//! most once and lifted at most once, no matter how many traces cross it.
//!
//! Start discovery decodes at every offset, and the traces built from the
//! discovered starts overlap almost completely (x86 self-synchronises within
//! a few instructions, so traces from different starts converge on the same
//! chain). [`FrameCode`] keeps one slot per frame byte — the arena index
//! *is* the byte offset — holding the decoded [`Instruction`] until a trace
//! first reaches it and then its lifted [`IrInsn`] together with where
//! execution continues, resolved against the frame bounds once. A trace walk
//! is then slot reads and copies; only the constant annotations, which
//! depend on the path taken, are computed per trace.
//!
//! The arena costs about a hundred bytes per frame byte while it lives, so
//! it is meant to live for one frame's analysis.

use crate::eval::Evaluator;
use crate::lift::lift;
use crate::op::{IrInsn, SemOp, Target};
use crate::trace::{StartsOutcome, Trace};
use snids_x86::{decode, Instruction, Mnemonic, SweepBudget};

enum Slot {
    /// Not decoded yet.
    Vacant,
    /// Decoded by start discovery; no trace has reached it.
    Decoded(Instruction),
    /// Reached by a trace: the unannotated op and its continuation.
    Lifted(IrInsn, Next),
}

/// Where a trace continues after an op.
#[derive(Clone, Copy)]
enum Next {
    /// Undecodable byte, return, indirect jump or a jump out of the frame.
    Stop,
    /// The fall-through offset, or a jump's in-frame target.
    Goto(usize),
    /// A call's in-frame target, followed unless the trace has already been
    /// there (shellcode `call/pop` GetPC idioms and subroutine bodies
    /// execute at the target); otherwise the call falls through.
    Call(usize),
}

/// Decode and lift results for one frame, shared by start discovery and
/// every trace over the frame.
pub struct FrameCode<'a> {
    buf: &'a [u8],
    slots: Vec<Slot>,
    eval: Evaluator,
}

impl<'a> FrameCode<'a> {
    /// An empty arena over `buf`, for walks from an explicit start set.
    pub fn new(buf: &'a [u8]) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(buf.len(), || Slot::Vacant);
        FrameCode {
            buf,
            slots,
            eval: Evaluator::new(),
        }
    }

    /// Discover the candidate trace starts of `buf` (see
    /// [`crate::default_starts`]) under `budget`, keeping every instruction
    /// the discovery decoded for the traces that follow.
    pub fn discover(buf: &'a [u8], budget: &SweepBudget) -> (Self, StartsOutcome) {
        let mut starts = vec![0usize];
        // Sliding scan: branch targets from a decode at every offset. This
        // is the pass that fills the arena.
        let scan_end = buf.len().min(budget.max_bytes);
        let mut exhausted = scan_end < buf.len();
        let mut slots = Vec::with_capacity(buf.len());
        for off in 0..scan_end {
            let insn = decode(buf, off);
            if let Some(t) = insn.branch_target().and_then(|t| usize::try_from(t).ok()) {
                if t < buf.len() {
                    starts.push(t);
                }
            }
            slots.push(Slot::Decoded(insn));
        }
        slots.resize_with(buf.len(), || Slot::Vacant);
        // Linear sweep: resynchronisation points. It stops at
        // `budget.max_bytes`, so it only reads what the scan decoded.
        let mut pos = 0usize;
        let mut emitted = 0usize;
        while pos < buf.len() {
            if emitted >= budget.max_instructions || pos >= budget.max_bytes {
                exhausted = true;
                break;
            }
            let Slot::Decoded(insn) = &slots[pos] else {
                unreachable!("the sweep stays below the scan's end");
            };
            emitted += 1;
            if insn.mnemonic == Mnemonic::Bad && pos + 1 < buf.len() {
                starts.push(pos + 1);
            }
            pos = insn.end();
        }
        starts.sort_unstable();
        starts.dedup();
        let code = FrameCode {
            buf,
            slots,
            eval: Evaluator::new(),
        };
        (code, StartsOutcome { starts, exhausted })
    }

    /// The op at `off` and its continuation, lifting it on first use.
    fn lifted(&mut self, off: usize) -> (&IrInsn, Next) {
        let slot = &mut self.slots[off];
        let ir = match slot {
            Slot::Lifted(..) => None,
            Slot::Decoded(insn) => Some(lift(insn)),
            Slot::Vacant => Some(lift(&decode(self.buf, off))),
        };
        if let Some(ir) = ir {
            let next = resolve(&ir, self.buf.len());
            *slot = Slot::Lifted(ir, next);
        }
        match slot {
            Slot::Lifted(ir, next) => (ir, *next),
            _ => unreachable!("just lifted"),
        }
    }

    /// Refill `trace` with the execution-order walk from `start`, at most
    /// `max_ops` long, annotated by the constant evaluator.
    ///
    /// The walk follows unconditional relative `jmp`s and relative `call`s
    /// to in-frame targets it has not visited, falls through conditional
    /// branches and `loop`s (the exit path, where the decrypted payload
    /// continues), and ends at an undecodable byte, a return, an indirect
    /// jump, a jump out of the frame, or an offset it has already executed
    /// — so cyclic control flow terminates.
    pub fn trace_into(&mut self, start: usize, max_ops: usize, trace: &mut Trace) {
        trace.begin(start, self.buf.len());
        // A trace executes each offset at most once.
        trace.ops.reserve(max_ops.min(self.buf.len()));
        let mut pos = start;
        while pos < self.buf.len() && trace.ops.len() < max_ops && trace.mark(pos) {
            let (ir, next) = self.lifted(pos);
            trace.ops.push(ir.clone());
            pos = match next {
                Next::Stop => break,
                Next::Goto(p) => p,
                Next::Call(t) if trace.index_of(t).is_none() => t,
                Next::Call(_) => ir.offset + usize::from(ir.raw_len),
            };
        }
        self.eval.reset();
        self.eval.annotate(&mut trace.ops);
    }
}

/// Resolve an op's continuation against the frame bounds.
fn resolve(ir: &IrInsn, frame_len: usize) -> Next {
    let fall_through = Next::Goto(ir.offset + usize::from(ir.raw_len));
    let in_frame = |t: i64| usize::try_from(t).ok().filter(|&t| t < frame_len);
    match ir.op {
        SemOp::Bad | SemOp::Ret | SemOp::Jmp(Target::Indirect) => Next::Stop,
        SemOp::Jmp(Target::Off(t)) => in_frame(t).map_or(Next::Stop, Next::Goto),
        SemOp::Call(Target::Off(t)) => in_frame(t).map_or(fall_through, Next::Call),
        // Conditional branches and loops: take the fall-through path.
        _ => fall_through,
    }
}
