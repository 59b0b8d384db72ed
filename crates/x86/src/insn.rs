//! Instruction model: mnemonics, prefixes and the decoded instruction.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::operand::{Operand, Operands, Width};

/// Segment registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SegReg {
    /// Extra segment.
    Es,
    /// Code segment.
    Cs,
    /// Stack segment.
    Ss,
    /// Data segment.
    Ds,
    /// FS.
    Fs,
    /// GS.
    Gs,
}

impl SegReg {
    /// Decode a 3-bit segment register number.
    pub fn from_index(i: u8) -> SegReg {
        match i & 7 {
            0 => SegReg::Es,
            1 => SegReg::Cs,
            2 => SegReg::Ss,
            3 => SegReg::Ds,
            4 => SegReg::Fs,
            _ => SegReg::Gs,
        }
    }
}

impl fmt::Display for SegReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SegReg::Es => "es",
            SegReg::Cs => "cs",
            SegReg::Ss => "ss",
            SegReg::Ds => "ds",
            SegReg::Fs => "fs",
            SegReg::Gs => "gs",
        })
    }
}

/// Condition codes for `Jcc`/`SETcc` (tttn encoding order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cond {
    /// Overflow.
    O,
    /// Not overflow.
    No,
    /// Below (carry).
    B,
    /// Above or equal (not carry).
    Ae,
    /// Equal (zero).
    E,
    /// Not equal (not zero).
    Ne,
    /// Below or equal.
    Be,
    /// Above.
    A,
    /// Sign.
    S,
    /// Not sign.
    Ns,
    /// Parity.
    P,
    /// Not parity.
    Np,
    /// Less.
    L,
    /// Greater or equal.
    Ge,
    /// Less or equal.
    Le,
    /// Greater.
    G,
}

impl Cond {
    /// Decode the low 4 bits of a `7x`/`0F 8x`/`0F 9x` opcode.
    pub fn from_index(i: u8) -> Cond {
        use Cond::*;
        [O, No, B, Ae, E, Ne, Be, A, S, Ns, P, Np, L, Ge, Le, G][usize::from(i & 0x0f)]
    }

    /// Short suffix used in mnemonics (`je`, `setne`, ...).
    pub fn suffix(self) -> &'static str {
        use Cond::*;
        match self {
            O => "o",
            No => "no",
            B => "b",
            Ae => "ae",
            E => "e",
            Ne => "ne",
            Be => "be",
            A => "a",
            S => "s",
            Ns => "ns",
            P => "p",
            Np => "np",
            L => "l",
            Ge => "ge",
            Le => "le",
            G => "g",
        }
    }
}

/// LOOP-family variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LoopKind {
    /// `LOOPNE/LOOPNZ` (`E0`).
    Ne,
    /// `LOOPE/LOOPZ` (`E1`).
    E,
    /// Plain `LOOP` (`E2`).
    Plain,
}

/// The mnemonic of a decoded instruction.
///
/// Flat where possible; condition codes and loop kinds ride as payloads so
/// the semantic layer can treat whole families uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)] // the variants are the x86 mnemonics themselves
pub enum Mnemonic {
    // data movement
    Mov,
    Movzx,
    Movsx,
    Lea,
    Xchg,
    Push,
    Pop,
    Pusha,
    Popa,
    Pushf,
    Popf,
    Lahf,
    Sahf,
    Xlat,
    Bswap,
    // arithmetic
    Add,
    Adc,
    Sub,
    Sbb,
    Cmp,
    Inc,
    Dec,
    Neg,
    Mul,
    Imul,
    Div,
    Idiv,
    // logic
    And,
    Or,
    Xor,
    Not,
    Test,
    // shifts / rotates
    Rol,
    Ror,
    Rcl,
    Rcr,
    Shl,
    Shr,
    Sar,
    // bit ops
    Bt,
    Bts,
    Btr,
    Btc,
    // sign extension
    Cwde,
    Cdq,
    Cbw,
    Cwd,
    // control flow
    Jmp,
    JmpFar,
    Jcc(Cond),
    Setcc(Cond),
    Call,
    CallFar,
    Ret,
    RetFar,
    Loop(LoopKind),
    Jecxz,
    Enter,
    Leave,
    Int,
    Int3,
    Into,
    Iret,
    // string ops (operation width carried by Instruction::width)
    Movs,
    Cmps,
    Stos,
    Lods,
    Scas,
    Ins,
    Outs,
    // flags
    Clc,
    Stc,
    Cmc,
    Cld,
    Std,
    Cli,
    Sti,
    // I/O
    In,
    Out,
    // BCD / exotic (decoded for completeness — junk-insertion engines use them)
    Daa,
    Das,
    Aaa,
    Aas,
    Aam,
    Aad,
    Salc,
    // misc
    Nop,
    Hlt,
    Wait,
    Cpuid,
    Rdtsc,
    Ud2,
    Cmpxchg,
    Xadd,
    Bound,
    Arpl,
    Les,
    Lds,
    /// Any x87 instruction (`D8`–`DF`); operands still decode via ModRM.
    /// Shellcode uses `fnstenv` tricks for GetPC, so frame decoding matters
    /// even though we do not model FPU semantics.
    Fpu(u8),
    /// A byte sequence that does not decode; always length 1.
    Bad,
}

impl Mnemonic {
    /// True for unconditional or conditional control transfer.
    pub fn is_branch(self) -> bool {
        matches!(
            self,
            Mnemonic::Jmp
                | Mnemonic::JmpFar
                | Mnemonic::Jcc(_)
                | Mnemonic::Call
                | Mnemonic::CallFar
                | Mnemonic::Ret
                | Mnemonic::RetFar
                | Mnemonic::Loop(_)
                | Mnemonic::Jecxz
                | Mnemonic::Int
                | Mnemonic::Int3
                | Mnemonic::Into
                | Mnemonic::Iret
        )
    }
}

/// Legacy prefixes attached to an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Prefixes {
    /// `F3` REP/REPE.
    pub rep: bool,
    /// `F2` REPNE.
    pub repne: bool,
    /// `F0` LOCK.
    pub lock: bool,
    /// Segment override.
    pub seg: Option<SegReg>,
    /// `66` operand-size override seen.
    pub opsize: bool,
    /// `67` address-size override seen.
    pub addrsize: bool,
}

/// A decoded instruction.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Instruction {
    /// Offset of the first byte within the decoded buffer.
    pub offset: usize,
    /// Encoded length in bytes.
    pub len: u8,
    /// The operation.
    pub mnemonic: Mnemonic,
    /// Explicit operands in Intel order (destination first), inline.
    pub operands: Operands,
    /// The operation width (used by string ops, push/pop, etc.).
    pub width: Width,
    /// Prefixes seen.
    pub prefixes: Prefixes,
}

impl Instruction {
    /// Offset of the byte after this instruction.
    pub fn end(&self) -> usize {
        self.offset + usize::from(self.len)
    }

    /// The resolved branch target for relative jumps/calls/loops, if any.
    pub fn branch_target(&self) -> Option<i64> {
        if !self.mnemonic.is_branch() {
            return None;
        }
        self.operands.iter().find_map(|op| match op {
            Operand::Rel(t) => Some(*t),
            _ => None,
        })
    }

    /// True for `Jmp` with a relative target (the normalizer follows these).
    pub fn is_unconditional_rel_jmp(&self) -> bool {
        self.mnemonic == Mnemonic::Jmp && matches!(self.operands.first(), Some(Operand::Rel(_)))
    }

    /// First operand, when present.
    pub fn op0(&self) -> Option<&Operand> {
        self.operands.first()
    }

    /// Second operand, when present.
    pub fn op1(&self) -> Option<&Operand> {
        self.operands.get(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_decoding_matches_intel_order() {
        assert_eq!(Cond::from_index(0x4), Cond::E);
        assert_eq!(Cond::from_index(0x5), Cond::Ne);
        assert_eq!(Cond::from_index(0xf), Cond::G);
        assert_eq!(Cond::E.suffix(), "e");
        assert_eq!(Cond::Ns.suffix(), "ns");
    }

    #[test]
    fn seg_reg_decoding() {
        assert_eq!(SegReg::from_index(0), SegReg::Es);
        assert_eq!(SegReg::from_index(3), SegReg::Ds);
        assert_eq!(SegReg::from_index(5), SegReg::Gs);
    }

    #[test]
    fn branch_classification() {
        assert!(Mnemonic::Jmp.is_branch());
        assert!(Mnemonic::Jcc(Cond::E).is_branch());
        assert!(Mnemonic::Loop(LoopKind::Plain).is_branch());
        assert!(Mnemonic::Int.is_branch());
        assert!(!Mnemonic::Mov.is_branch());
        assert!(!Mnemonic::Xor.is_branch());
    }

    #[test]
    fn branch_target_extraction() {
        let insn = Instruction {
            offset: 10,
            len: 2,
            mnemonic: Mnemonic::Jmp,
            operands: [Operand::Rel(4)].into(),
            width: Width::D,
            prefixes: Prefixes::default(),
        };
        assert_eq!(insn.branch_target(), Some(4));
        assert!(insn.is_unconditional_rel_jmp());
        assert_eq!(insn.end(), 12);

        let mov = Instruction {
            offset: 0,
            len: 5,
            mnemonic: Mnemonic::Mov,
            operands: Operands::EMPTY,
            width: Width::D,
            prefixes: Prefixes::default(),
        };
        assert_eq!(mov.branch_target(), None);
    }
}
