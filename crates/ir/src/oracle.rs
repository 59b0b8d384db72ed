//! The reference the arena is held against: start discovery and trace
//! building from fresh [`decode`] and [`lift`] calls at every step, with no
//! state shared between starts. Nothing in the pipeline calls this module;
//! `tests/arena_oracle.rs` here and the differential case in
//! `snids-semantic`'s property tests compare [`crate::FrameCode`] with it.

use crate::eval;
use crate::lift::lift;
use crate::op::{IrInsn, SemOp, Target};
use crate::trace::StartsOutcome;
use snids_x86::{decode, Mnemonic, SweepBudget};
use std::collections::HashSet;

/// The annotated ops of the execution-order walk from `start`.
pub fn trace_ops(buf: &[u8], start: usize, max_ops: usize) -> Vec<IrInsn> {
    let mut ops = Vec::new();
    let mut visited: HashSet<usize> = HashSet::new();
    let mut pos = start;

    while pos < buf.len() && ops.len() < max_ops && visited.insert(pos) {
        let insn = decode(buf, pos);
        let ir = lift(&insn);
        let next = insn.end();
        let op = ir.op.clone();
        ops.push(ir);
        match op {
            SemOp::Bad | SemOp::Ret => break,
            SemOp::Jmp(Target::Off(t)) | SemOp::Call(Target::Off(t)) => {
                match usize::try_from(t).ok() {
                    Some(t) if t < buf.len() && !visited.contains(&t) => pos = t,
                    // A call whose target is the next byte (GetPC) or out of
                    // range: fall through; a jmp with a bad target ends the
                    // trace.
                    _ if matches!(op, SemOp::Call(_)) => pos = next,
                    _ => break,
                }
            }
            SemOp::Jmp(Target::Indirect) => break,
            // Conditional branches and loops: take the fall-through path.
            _ => pos = next,
        }
    }

    eval::annotate(&mut ops);
    ops
}

/// Budgeted start discovery: the resync sweep, then the sliding scan.
pub fn starts(buf: &[u8], budget: &SweepBudget) -> StartsOutcome {
    let mut starts = vec![0usize];
    let mut exhausted = false;
    let mut pos = 0usize;
    let mut emitted = 0usize;
    while pos < buf.len() {
        if emitted >= budget.max_instructions || pos >= budget.max_bytes {
            exhausted = true;
            break;
        }
        let insn = decode(buf, pos);
        emitted += 1;
        if insn.mnemonic == Mnemonic::Bad && pos + 1 < buf.len() {
            starts.push(pos + 1);
        }
        pos = insn.end();
    }
    let scan_end = buf.len().min(budget.max_bytes);
    if scan_end < buf.len() {
        exhausted = true;
    }
    for off in 0..scan_end {
        if let Some(t) = decode(buf, off).branch_target() {
            if let Ok(t) = usize::try_from(t) {
                if t < buf.len() {
                    starts.push(t);
                }
            }
        }
    }
    starts.sort_unstable();
    starts.dedup();
    StartsOutcome { starts, exhausted }
}
