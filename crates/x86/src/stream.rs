//! Linear-sweep disassembly over byte buffers.

use crate::decoder::decode;
use crate::insn::Instruction;

/// Iterator yielding consecutive instructions from `offset`, including
/// [`crate::Mnemonic::Bad`] placeholders (length 1) for undecodable bytes.
pub struct InsnStream<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> InsnStream<'a> {
    /// Start a sweep at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        InsnStream { buf, pos: 0 }
    }

    /// Start a sweep at `offset`.
    pub fn at(buf: &'a [u8], offset: usize) -> Self {
        InsnStream { buf, pos: offset }
    }

    /// The offset the next instruction would decode at.
    pub fn pos(&self) -> usize {
        self.pos
    }
}

impl Iterator for InsnStream<'_> {
    type Item = Instruction;

    fn next(&mut self) -> Option<Instruction> {
        if self.pos >= self.buf.len() {
            return None;
        }
        let insn = decode(self.buf, self.pos);
        self.pos = insn.end();
        Some(insn)
    }
}

/// Disassemble the whole buffer in one linear sweep.
pub fn linear_sweep(buf: &[u8]) -> Vec<Instruction> {
    InsnStream::new(buf).collect()
}

/// Explicit work limits for a sweep over untrusted bytes. The decoder is
/// total, but a hostile flow can still be enormous; a budget turns "sweep
/// whatever arrived" into a bounded amount of work with an explicit signal
/// when input was left unexamined.
#[derive(Debug, Clone, Copy)]
pub struct SweepBudget {
    /// Maximum instructions to emit.
    pub max_instructions: usize,
    /// Maximum input bytes to consume.
    pub max_bytes: usize,
}

impl SweepBudget {
    /// A budget that never expires.
    pub const UNBOUNDED: SweepBudget = SweepBudget {
        max_instructions: usize::MAX,
        max_bytes: usize::MAX,
    };
}

impl Default for SweepBudget {
    fn default() -> Self {
        // Generous for any real exploit frame (paper-scale payloads are
        // a few KiB) while bounding a worst-case flood.
        SweepBudget {
            max_instructions: 1 << 20,
            max_bytes: 1 << 22,
        }
    }
}

/// Result of a budgeted sweep.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Instructions decoded before the budget (or the buffer) ran out.
    pub instructions: Vec<Instruction>,
    /// True when the budget expired with input still unexamined — the
    /// caller must treat the disassembly as partial, not trust it as a
    /// full picture of the buffer.
    pub exhausted: bool,
}

/// Disassemble at most `budget` worth of `buf` in one linear sweep.
pub fn linear_sweep_budgeted(buf: &[u8], budget: &SweepBudget) -> SweepOutcome {
    let mut stream = InsnStream::new(buf);
    let mut instructions = Vec::new();
    loop {
        if instructions.len() >= budget.max_instructions || stream.pos() >= budget.max_bytes {
            return SweepOutcome {
                instructions,
                exhausted: stream.pos() < buf.len(),
            };
        }
        match stream.next() {
            Some(insn) => instructions.push(insn),
            None => {
                return SweepOutcome {
                    instructions,
                    exhausted: false,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Mnemonic;

    #[test]
    fn sweep_covers_every_byte_exactly_once() {
        let code = [0x31, 0xc0, 0xb0, 0x0b, 0xcd, 0x80, 0xc3];
        let insns = linear_sweep(&code);
        assert_eq!(insns.len(), 4);
        let mut pos = 0;
        for i in &insns {
            assert_eq!(i.offset, pos);
            pos = i.end();
        }
        assert_eq!(pos, code.len());
    }

    #[test]
    fn resynchronises_after_bad_byte() {
        // 0F FF is bad; sweep must continue at the next byte.
        let code = [0x0f, 0xff, 0x90, 0xc3];
        let insns = linear_sweep(&code);
        assert_eq!(insns[0].mnemonic, Mnemonic::Bad);
        assert_eq!(insns[0].len, 1);
        // The 0xff now decodes as the start of a group-5 instruction or Bad,
        // but the sweep always terminates and never skips bytes.
        let total: usize = insns.iter().map(|i| usize::from(i.len)).sum();
        assert_eq!(total, code.len());
    }

    #[test]
    fn sweep_terminates_on_arbitrary_input() {
        // A worst case stress: all 0xFF bytes (invalid group-5 /7).
        let code = [0xffu8; 257];
        let insns = linear_sweep(&code);
        let total: usize = insns.iter().map(|i| usize::from(i.len)).sum();
        assert_eq!(total, code.len());
    }

    #[test]
    fn budgeted_sweep_stops_at_instruction_cap() {
        let code = [0x90u8; 64]; // 64 nops
        let out = linear_sweep_budgeted(
            &code,
            &SweepBudget {
                max_instructions: 10,
                max_bytes: usize::MAX,
            },
        );
        assert_eq!(out.instructions.len(), 10);
        assert!(out.exhausted);
    }

    #[test]
    fn budgeted_sweep_stops_at_byte_cap() {
        let code = [0x90u8; 64];
        let out = linear_sweep_budgeted(
            &code,
            &SweepBudget {
                max_instructions: usize::MAX,
                max_bytes: 16,
            },
        );
        assert_eq!(out.instructions.len(), 16);
        assert!(out.exhausted);
    }

    #[test]
    fn budgeted_sweep_matches_full_sweep_within_budget() {
        let code = [0x31, 0xc0, 0xb0, 0x0b, 0xcd, 0x80, 0xc3];
        let out = linear_sweep_budgeted(&code, &SweepBudget::default());
        assert!(!out.exhausted);
        assert_eq!(out.instructions, linear_sweep(&code));
    }

    #[test]
    fn at_offset_starts_mid_buffer() {
        let code = [0x00, 0x90, 0xc3]; // offset 1: nop; ret
        let mut s = InsnStream::at(&code, 1);
        assert_eq!(s.next().unwrap().mnemonic, Mnemonic::Nop);
        assert_eq!(s.next().unwrap().mnemonic, Mnemonic::Ret);
        assert!(s.next().is_none());
    }
}
