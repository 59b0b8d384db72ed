//! Read/write sets and NOP-likeness — the instruction facts the semantic
//! matcher builds on.
//!
//! Locations are coarse: eight register *files* (writing `AL` counts as
//! writing `EAX`), one `Flags` location, and one `Mem` location. Coarseness
//! is conservative in the right direction for template matching — an
//! intervening instruction is only skippable if it provably does not clobber
//! a bound location, and coarse sets only ever err towards "clobbers".

use crate::insn::{Instruction, Mnemonic};
use crate::operand::Operand;
use crate::reg::Gpr;
use serde::{Deserialize, Serialize};

/// An abstract machine location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Location {
    /// A general-purpose register file.
    Gpr(Gpr),
    /// The EFLAGS register.
    Flags,
    /// All of memory (coarse).
    Mem,
}

/// A small bitset of [`Location`]s.
///
/// Bits 0–7: the GPR files in encoding order; bit 8: flags; bit 9: memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LocSet(pub u16);

impl LocSet {
    /// The empty set.
    pub const EMPTY: LocSet = LocSet(0);
    /// Every location.
    pub const ALL: LocSet = LocSet(0x3ff);
    /// Flags only.
    pub const FLAGS: LocSet = LocSet(1 << 8);
    /// Memory only.
    pub const MEM: LocSet = LocSet(1 << 9);

    /// Singleton set for a location.
    pub fn only(loc: Location) -> LocSet {
        let mut s = LocSet::EMPTY;
        s.insert(loc);
        s
    }

    /// Singleton set for a register file.
    pub fn gpr(g: Gpr) -> LocSet {
        LocSet(1 << g.index())
    }

    /// Insert a location.
    pub fn insert(&mut self, loc: Location) {
        self.0 |= match loc {
            Location::Gpr(g) => 1 << g.index(),
            Location::Flags => 1 << 8,
            Location::Mem => 1 << 9,
        };
    }

    /// Set union.
    pub fn union(self, other: LocSet) -> LocSet {
        LocSet(self.0 | other.0)
    }

    /// True if the sets share any location.
    pub fn intersects(self, other: LocSet) -> bool {
        self.0 & other.0 != 0
    }

    /// True if `loc` is a member.
    pub fn contains(self, loc: Location) -> bool {
        self.intersects(LocSet::only(loc))
    }

    /// True if no location is a member.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterate over the member locations.
    pub fn iter(self) -> impl Iterator<Item = Location> {
        (0..10u16).filter_map(move |bit| {
            if self.0 & (1 << bit) == 0 {
                None
            } else if bit < 8 {
                Some(Location::Gpr(Gpr::from_index(bit as u8)))
            } else if bit == 8 {
                Some(Location::Flags)
            } else {
                Some(Location::Mem)
            }
        })
    }
}

impl std::ops::BitOr for LocSet {
    type Output = LocSet;
    fn bitor(self, rhs: LocSet) -> LocSet {
        self.union(rhs)
    }
}

/// Locations an operand *reads* when used as a source, including the
/// registers participating in a memory operand's address.
fn src_reads(op: &Operand) -> LocSet {
    match op {
        Operand::Reg(r) => LocSet::gpr(r.gpr),
        Operand::Mem(m) => mem_addr_reads(m) | LocSet::MEM,
        _ => LocSet::EMPTY,
    }
}

fn mem_addr_reads(m: &crate::operand::MemRef) -> LocSet {
    let mut s = LocSet::EMPTY;
    if let Some(b) = m.base {
        s = s | LocSet::gpr(b.gpr);
    }
    if let Some((i, _)) = m.index {
        s = s | LocSet::gpr(i.gpr);
    }
    s
}

/// Locations an operand *writes* when used as a destination.
fn dst_writes(op: &Operand) -> LocSet {
    match op {
        Operand::Reg(r) => LocSet::gpr(r.gpr),
        Operand::Mem(_) => LocSet::MEM,
        _ => LocSet::EMPTY,
    }
}

/// Address registers read when a destination is a memory operand.
fn dst_addr_reads(op: &Operand) -> LocSet {
    match op {
        Operand::Mem(m) => mem_addr_reads(m),
        _ => LocSet::EMPTY,
    }
}

const ESP: LocSet = LocSet(1 << 4);
const EBP: LocSet = LocSet(1 << 5);
const ESI: LocSet = LocSet(1 << 6);
const EDI: LocSet = LocSet(1 << 7);
const EAX: LocSet = LocSet(1 << 0);
const ECX: LocSet = LocSet(1 << 1);
const EDX: LocSet = LocSet(1 << 2);
const EBX: LocSet = LocSet(1 << 3);
const ALL_GPRS: LocSet = LocSet(0xff);

/// The set of locations `insn` reads.
pub fn reads(insn: &Instruction) -> LocSet {
    use Mnemonic::*;
    let op0 = insn.op0();
    let op1 = insn.op1();
    let op2 = insn.operands.get(2);
    match insn.mnemonic {
        // dst is read-modify-write
        Add | Adc | Sub | Sbb | And | Or | Xor | Rol | Ror | Rcl | Rcr | Shl | Shr | Sar | Bts
        | Btr | Btc | Xadd => {
            let mut s = LocSet::EMPTY;
            if let Some(d) = op0 {
                s = s | src_reads(d);
            }
            if let Some(x) = op1 {
                s = s | src_reads(x);
            }
            s | carry_in(insn.mnemonic)
        }
        Inc | Dec | Neg | Not | Bswap => op0.map(src_reads).unwrap_or(LocSet::EMPTY),
        Cmp | Test | Bt => {
            let a = op0.map(src_reads).unwrap_or(LocSet::EMPTY);
            let b = op1.map(src_reads).unwrap_or(LocSet::EMPTY);
            a | b
        }
        Mov | Movzx | Movsx => {
            let src = op1.map(src_reads).unwrap_or(LocSet::EMPTY);
            let addr = op0.map(dst_addr_reads).unwrap_or(LocSet::EMPTY);
            src | addr
        }
        Lea => {
            // LEA reads only the address registers, not memory.
            match op1 {
                Some(Operand::Mem(m)) => mem_addr_reads(m),
                _ => LocSet::EMPTY,
            }
        }
        Xchg | Cmpxchg => {
            let a = op0.map(src_reads).unwrap_or(LocSet::EMPTY);
            let b = op1.map(src_reads).unwrap_or(LocSet::EMPTY);
            let acc = if insn.mnemonic == Cmpxchg {
                EAX
            } else {
                LocSet::EMPTY
            };
            a | b | acc
        }
        Push => op0.map(src_reads).unwrap_or(LocSet::EMPTY) | ESP,
        Pop => ESP | LocSet::MEM | op0.map(dst_addr_reads).unwrap_or(LocSet::EMPTY),
        Pusha => ALL_GPRS,
        Popa => ESP | LocSet::MEM,
        Pushf => ESP | LocSet::FLAGS,
        Popf => ESP | LocSet::MEM,
        Lahf => LocSet::FLAGS,
        Sahf => EAX,
        Xlat => EAX | EBX | LocSet::MEM,
        Imul => {
            // one-operand form reads EAX implicitly
            let mut s = LocSet::EMPTY;
            for op in [op0, op1, op2].into_iter().flatten() {
                s = s | src_reads(op);
            }
            if insn.operands.len() == 1 {
                s = s | EAX;
            }
            s
        }
        Mul | Div | Idiv => op0.map(src_reads).unwrap_or(LocSet::EMPTY) | EAX | EDX,
        Cwde | Cbw => EAX,
        Cdq | Cwd => EAX,
        Jmp | Call => op0.map(src_reads).unwrap_or(LocSet::EMPTY) | ESP,
        JmpFar | CallFar => op0.map(src_reads).unwrap_or(LocSet::EMPTY) | ESP,
        Ret | RetFar | Iret => ESP | LocSet::MEM,
        Jcc(_) => LocSet::FLAGS,
        Setcc(_) => LocSet::FLAGS | op0.map(dst_addr_reads).unwrap_or(LocSet::EMPTY),
        Loop(kind) => {
            let f = if matches!(kind, crate::insn::LoopKind::Plain) {
                LocSet::EMPTY
            } else {
                LocSet::FLAGS
            };
            ECX | f
        }
        Jecxz => ECX,
        Enter => ESP | EBP,
        Leave => EBP | LocSet::MEM,
        Movs => ESI | EDI | LocSet::MEM | rep_reads(insn),
        Cmps => ESI | EDI | LocSet::MEM | rep_reads(insn) | LocSet::FLAGS,
        Stos => EAX | EDI | rep_reads(insn),
        Lods => ESI | LocSet::MEM | rep_reads(insn),
        Scas => EAX | EDI | LocSet::MEM | rep_reads(insn) | LocSet::FLAGS,
        Ins => EDI | EDX | rep_reads(insn),
        Outs => ESI | EDX | LocSet::MEM | rep_reads(insn),
        // A software interrupt is a syscall: it observes the register file.
        Int | Int3 | Into => ALL_GPRS | LocSet::FLAGS | LocSet::MEM,
        In | Out => {
            let mut s = LocSet::EMPTY;
            for op in [op0, op1].into_iter().flatten() {
                s = s | src_reads(op);
            }
            s
        }
        Daa | Das | Aaa | Aas | Salc => EAX | LocSet::FLAGS,
        Aam | Aad => EAX,
        Cmc => LocSet::FLAGS,
        Fpu(_) => {
            op0.map(src_reads).unwrap_or(LocSet::EMPTY)
                | op0.map(dst_addr_reads).unwrap_or(LocSet::EMPTY)
        }
        Nop | Clc | Stc | Cld | Std | Cli | Sti | Hlt | Wait | Cpuid | Rdtsc | Ud2 | Bad => {
            LocSet::EMPTY
        }
        Bound | Arpl | Les | Lds => {
            let a = op0.map(src_reads).unwrap_or(LocSet::EMPTY);
            let b = op1.map(src_reads).unwrap_or(LocSet::EMPTY);
            a | b
        }
    }
}

fn carry_in(m: Mnemonic) -> LocSet {
    match m {
        Mnemonic::Adc | Mnemonic::Sbb | Mnemonic::Rcl | Mnemonic::Rcr => LocSet::FLAGS,
        _ => LocSet::EMPTY,
    }
}

fn rep_reads(insn: &Instruction) -> LocSet {
    if insn.prefixes.rep || insn.prefixes.repne {
        ECX
    } else {
        LocSet::EMPTY
    }
}

/// REP-prefixed string ops also decrement ECX.
fn rep_writes(insn: &Instruction) -> LocSet {
    rep_reads(insn)
}

/// The set of locations `insn` writes.
pub fn writes(insn: &Instruction) -> LocSet {
    use Mnemonic::*;
    let op0 = insn.op0();
    match insn.mnemonic {
        Add | Adc | Sub | Sbb | And | Or | Xor | Inc | Dec | Neg | Xadd => {
            op0.map(dst_writes).unwrap_or(LocSet::EMPTY) | LocSet::FLAGS
        }
        Not | Bswap => op0.map(dst_writes).unwrap_or(LocSet::EMPTY),
        Rol | Ror | Rcl | Rcr | Shl | Shr | Sar | Bts | Btr | Btc => {
            op0.map(dst_writes).unwrap_or(LocSet::EMPTY) | LocSet::FLAGS
        }
        Cmp | Test | Bt | Bound | Arpl => LocSet::FLAGS,
        Mov | Movzx | Movsx | Lea | Setcc(_) => op0.map(dst_writes).unwrap_or(LocSet::EMPTY),
        Xchg => {
            let a = op0.map(dst_writes).unwrap_or(LocSet::EMPTY);
            let b = insn.op1().map(dst_writes).unwrap_or(LocSet::EMPTY);
            a | b
        }
        Cmpxchg => op0.map(dst_writes).unwrap_or(LocSet::EMPTY) | EAX | LocSet::FLAGS,
        Push | Pushf => ESP | LocSet::MEM,
        Pusha => ESP | LocSet::MEM,
        Pop => op0.map(dst_writes).unwrap_or(LocSet::EMPTY) | ESP,
        Popa => ALL_GPRS,
        Popf => ESP | LocSet::FLAGS,
        Lahf => EAX,
        Sahf => LocSet::FLAGS,
        Xlat => EAX,
        Imul => {
            if insn.operands.len() == 1 {
                EAX | EDX | LocSet::FLAGS
            } else {
                op0.map(dst_writes).unwrap_or(LocSet::EMPTY) | LocSet::FLAGS
            }
        }
        Mul | Div | Idiv => EAX | EDX | LocSet::FLAGS,
        Cwde | Cbw => EAX,
        Cdq | Cwd => EDX,
        Call | CallFar => ESP | LocSet::MEM,
        Ret | RetFar | Iret => ESP,
        Jmp | JmpFar | Jcc(_) | Jecxz => LocSet::EMPTY,
        Loop(_) => ECX,
        Enter => ESP | EBP | LocSet::MEM,
        Leave => ESP | EBP,
        Movs => ESI | EDI | LocSet::MEM | rep_writes(insn),
        Cmps => ESI | EDI | LocSet::FLAGS | rep_writes(insn),
        Stos => EDI | LocSet::MEM | rep_writes(insn),
        Lods => EAX | ESI | rep_writes(insn),
        Scas => EDI | LocSet::FLAGS | rep_writes(insn),
        Ins => EDI | LocSet::MEM | rep_writes(insn),
        Outs => ESI | rep_writes(insn),
        // A syscall may write anything.
        Int | Int3 | Into => LocSet::ALL,
        In => op0.map(dst_writes).unwrap_or(LocSet::EMPTY),
        Out => LocSet::EMPTY,
        Daa | Das | Aaa | Aas | Aam | Aad | Salc => EAX | LocSet::FLAGS,
        Clc | Stc | Cmc | Cld | Std | Cli | Sti => LocSet::FLAGS,
        Cpuid => EAX | EBX | ECX | EDX,
        Rdtsc => EAX | EDX,
        Fpu(_) => match op0 {
            Some(Operand::Mem(_)) => LocSet::MEM,
            _ => LocSet::EMPTY,
        },
        Les | Lds => op0.map(dst_writes).unwrap_or(LocSet::EMPTY),
        Nop | Hlt | Wait | Ud2 | Bad => LocSet::EMPTY,
    }
}

/// True if this instruction belongs to the single-byte "NOP-equivalent" set
/// polymorphic sled generators draw from (ADMmutate-style): executing it at
/// sled time cannot fault and does not prevent the payload from running.
pub fn is_nop_like(insn: &Instruction) -> bool {
    use Mnemonic::*;
    if insn.mnemonic == Nop {
        return true;
    }
    if insn.len != 1 {
        return false;
    }
    match insn.mnemonic {
        Inc | Dec | Push | Pop => true, // single-byte reg forms
        Cwde | Cbw | Cdq | Cwd | Clc | Stc | Cmc | Cld | Std => true,
        Daa | Das | Aaa | Aas | Salc | Lahf | Sahf | Wait => true,
        Xchg => true, // 91–97
        _ => false,
    }
}

/// What an instruction's first byte alone says about [`is_nop_like`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NopClass {
    /// Always a one-byte NOP-like instruction, whatever follows.
    Always,
    /// Never starts a NOP-like instruction.
    Never,
    /// A legacy prefix or `0F`: NOP-like only as `prefix… 90` or
    /// `prefix… 0F 1F /r`, which only the decoder can settle.
    Mixed,
}

/// [`NopClass`] of every first byte.
pub const NOP_CLASS: [NopClass; 256] = {
    let mut table = [NopClass::Never; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = match b as u8 {
            // push/pop seg, BCD adjusts, inc/dec/push/pop r32, nop/xchg/
            // cwde/cdq, wait, sahf/lahf, salc, cmc, clc/stc, cld/std.
            0x06 | 0x07 | 0x0e | 0x16 | 0x17 | 0x1e | 0x1f | 0x27 | 0x2f | 0x37 | 0x3f => {
                NopClass::Always
            }
            0x40..=0x5f | 0x90..=0x99 | 0x9b | 0x9e | 0x9f => NopClass::Always,
            0xd6 | 0xf5 | 0xf8 | 0xf9 | 0xfc | 0xfd => NopClass::Always,
            0x0f => NopClass::Mixed,
            b if is_prefix(b) => NopClass::Mixed,
            _ => NopClass::Never,
        };
        b += 1;
    }
    table
};

/// The eleven legacy prefixes the decoder accepts.
const fn is_prefix(b: u8) -> bool {
    matches!(
        b,
        0x26 | 0x2e | 0x36 | 0x3e | 0x64 | 0x65 | 0x66 | 0x67 | 0xf0 | 0xf2 | 0xf3
    )
}

/// Length of the NOP-like instruction at `offset` in `buf`, or `None` —
/// exactly `is_nop_like(&decode(buf, offset))` (with its length), but the
/// decoder only runs for a [`NopClass::Mixed`] byte whose follower can
/// continue a NOP (`prefix` → prefix, `0F` or `90`; `0F` → `1F`).
#[inline]
pub fn nop_like_len(buf: &[u8], offset: usize) -> Option<usize> {
    let first = *buf.get(offset)?;
    match NOP_CLASS[usize::from(first)] {
        NopClass::Always => Some(1),
        NopClass::Never => None,
        NopClass::Mixed => {
            let next = *buf.get(offset + 1)?;
            let may_nop = if first == 0x0f {
                next == 0x1f
            } else {
                is_prefix(next) || next == 0x0f || next == 0x90
            };
            if !may_nop {
                return None;
            }
            let insn = crate::decoder::decode(buf, offset);
            is_nop_like(&insn).then_some(usize::from(insn.len))
        }
    }
}

/// True if the instruction provably has no architectural effect beyond
/// flags — the "effective NOP" forms junk-insertion engines emit
/// (`mov eax,eax`, `xchg ebx,ebx`, `lea esi,[esi]`, `add edi,0`, ...).
pub fn is_effective_nop(insn: &Instruction) -> bool {
    use Mnemonic::*;
    match insn.mnemonic {
        Nop => true,
        Mov | Xchg => match (insn.op0(), insn.op1()) {
            (Some(Operand::Reg(a)), Some(Operand::Reg(b))) => a == b,
            _ => false,
        },
        Lea => match (insn.op0(), insn.op1()) {
            (Some(Operand::Reg(r)), Some(Operand::Mem(m))) => {
                m.disp == 0
                    && m.index.is_none()
                    && m.base.map(|b| b.gpr == r.gpr) == Some(true)
                    && r.width == crate::operand::Width::D
            }
            _ => false,
        },
        Add | Sub | Or | Xor | Shl | Shr | Sar | Rol | Ror => {
            // op r, 0 (xor r,0 keeps value; xor r,r does NOT — it zeroes)
            matches!(insn.op1(), Some(Operand::Imm(0, _)))
        }
        And => matches!(insn.op1(), Some(Operand::Imm(v, _)) if {
            let w = insn.width;
            (*v as u64) & u64::from(w.mask()) == u64::from(w.mask())
        }),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::decode;

    fn d(bytes: &[u8]) -> Instruction {
        decode(bytes, 0)
    }

    #[test]
    fn locset_basics() {
        let mut s = LocSet::EMPTY;
        assert!(s.is_empty());
        s.insert(Location::Gpr(Gpr::Eax));
        s.insert(Location::Mem);
        assert!(s.contains(Location::Gpr(Gpr::Eax)));
        assert!(s.contains(Location::Mem));
        assert!(!s.contains(Location::Flags));
        assert!(s.intersects(LocSet::MEM));
        assert_eq!(s.iter().count(), 2);
        assert_eq!(LocSet::ALL.iter().count(), 10);
    }

    #[test]
    fn mov_reads_source_and_dst_address() {
        // mov [ebx], ecx
        let i = d(&[0x89, 0x0b]);
        let r = reads(&i);
        assert!(r.contains(Location::Gpr(Gpr::Ecx)));
        assert!(r.contains(Location::Gpr(Gpr::Ebx)));
        assert!(!r.contains(Location::Mem)); // store doesn't read memory
        let w = writes(&i);
        assert!(w.contains(Location::Mem));
        assert!(!w.contains(Location::Gpr(Gpr::Ebx)));
    }

    #[test]
    fn alu_dst_is_read_and_written() {
        // xor eax, ebx
        let i = d(&[0x31, 0xd8]);
        assert!(reads(&i).contains(Location::Gpr(Gpr::Eax)));
        assert!(reads(&i).contains(Location::Gpr(Gpr::Ebx)));
        assert!(writes(&i).contains(Location::Gpr(Gpr::Eax)));
        assert!(writes(&i).contains(Location::Flags));
        assert!(!writes(&i).contains(Location::Gpr(Gpr::Ebx)));
    }

    #[test]
    fn push_pop_stack_effects() {
        let push = d(&[0x50]); // push eax
        assert!(reads(&push).contains(Location::Gpr(Gpr::Eax)));
        assert!(reads(&push).contains(Location::Gpr(Gpr::Esp)));
        assert!(writes(&push).contains(Location::Mem));
        assert!(writes(&push).contains(Location::Gpr(Gpr::Esp)));

        let pop = d(&[0x5b]); // pop ebx
        assert!(reads(&pop).contains(Location::Mem));
        assert!(writes(&pop).contains(Location::Gpr(Gpr::Ebx)));
        assert!(writes(&pop).contains(Location::Gpr(Gpr::Esp)));
    }

    #[test]
    fn int_is_a_semantic_barrier() {
        let i = d(&[0xcd, 0x80]);
        assert_eq!(reads(&i).0 & LocSet(0xff).0, 0xff, "int reads all GPRs");
        assert_eq!(writes(&i), LocSet::ALL);
    }

    #[test]
    fn loop_reads_writes_ecx() {
        let i = d(&[0xe2, 0xfe]);
        assert!(reads(&i).contains(Location::Gpr(Gpr::Ecx)));
        assert!(writes(&i).contains(Location::Gpr(Gpr::Ecx)));
        // plain loop ignores flags
        assert!(!reads(&i).contains(Location::Flags));
        // loope reads flags
        let i = d(&[0xe1, 0xfe]);
        assert!(reads(&i).contains(Location::Flags));
    }

    #[test]
    fn string_op_effects() {
        let i = d(&[0xaa]); // stosb
        assert!(reads(&i).contains(Location::Gpr(Gpr::Eax)));
        assert!(reads(&i).contains(Location::Gpr(Gpr::Edi)));
        assert!(writes(&i).contains(Location::Mem));
        assert!(writes(&i).contains(Location::Gpr(Gpr::Edi)));
        assert!(!reads(&i).contains(Location::Gpr(Gpr::Ecx)));
        let i = d(&[0xf3, 0xaa]); // rep stosb
        assert!(reads(&i).contains(Location::Gpr(Gpr::Ecx)));
        assert!(writes(&i).contains(Location::Gpr(Gpr::Ecx)));
    }

    #[test]
    fn mul_div_touch_eax_edx() {
        let i = d(&[0xf7, 0xe3]); // mul ebx
        assert!(reads(&i).contains(Location::Gpr(Gpr::Eax)));
        assert!(writes(&i).contains(Location::Gpr(Gpr::Edx)));
        let i = d(&[0x99]); // cdq
        assert!(reads(&i).contains(Location::Gpr(Gpr::Eax)));
        assert!(writes(&i).contains(Location::Gpr(Gpr::Edx)));
        assert!(!writes(&i).contains(Location::Gpr(Gpr::Eax)));
    }

    #[test]
    fn lea_reads_address_regs_not_memory() {
        // lea eax, [ebx+esi*2+8]
        let i = d(&[0x8d, 0x44, 0x73, 0x08]);
        let r = reads(&i);
        assert!(r.contains(Location::Gpr(Gpr::Ebx)));
        assert!(r.contains(Location::Gpr(Gpr::Esi)));
        assert!(!r.contains(Location::Mem));
        assert!(writes(&i).contains(Location::Gpr(Gpr::Eax)));
        assert!(!writes(&i).contains(Location::Flags));
    }

    #[test]
    fn nop_like_classification() {
        assert!(is_nop_like(&d(&[0x90]))); // nop
        assert!(is_nop_like(&d(&[0x40]))); // inc eax
        assert!(is_nop_like(&d(&[0x97]))); // xchg eax, edi
        assert!(is_nop_like(&d(&[0xf8]))); // clc
        assert!(is_nop_like(&d(&[0x99]))); // cdq
        assert!(!is_nop_like(&d(&[0xc3]))); // ret
        assert!(!is_nop_like(&d(&[0xcd, 0x80]))); // int
        assert!(!is_nop_like(&d(&[0x31, 0xc0]))); // xor eax,eax: 2 bytes
    }

    #[test]
    fn nop_like_len_reads_the_table_and_decodes_only_prefix_openings() {
        assert_eq!(nop_like_len(&[0x90], 0), Some(1));
        assert_eq!(nop_like_len(&[0x41, 0x42], 1), Some(1)); // inc edx
        assert_eq!(nop_like_len(&[0x66, 0x90], 0), Some(2));
        assert_eq!(nop_like_len(&[0xf3, 0x90], 0), Some(2)); // pause
        assert_eq!(nop_like_len(&[0x0f, 0x1f, 0xc0], 0), Some(3));
        assert_eq!(nop_like_len(&[0x66, 0x0f, 0x1f, 0x40, 0x00], 0), Some(5));
        assert_eq!(nop_like_len(&[0x0f, 0x1f], 0), None); // truncated
        assert_eq!(nop_like_len(&[0x66, 0x40], 0), None); // inc ax: 2 bytes
        assert_eq!(nop_like_len(b"ed", 0), None); // gs: fs: + end
        assert_eq!(nop_like_len(&[0xc3], 0), None);
        assert_eq!(nop_like_len(&[0x90], 1), None);
    }

    #[test]
    fn effective_nop_classification() {
        assert!(is_effective_nop(&d(&[0x89, 0xc0]))); // mov eax, eax
        assert!(is_effective_nop(&d(&[0x87, 0xdb]))); // xchg ebx, ebx
        assert!(is_effective_nop(&d(&[0x8d, 0x36]))); // lea esi, [esi]
        assert!(is_effective_nop(&d(&[0x83, 0xc0, 0x00]))); // add eax, 0
        assert!(is_effective_nop(&d(&[0x83, 0xc8, 0x00]))); // or eax, 0
        assert!(is_effective_nop(&d(&[0x83, 0xe0, 0xff]))); // and eax, -1
        assert!(!is_effective_nop(&d(&[0x31, 0xc0]))); // xor eax,eax zeroes
        assert!(!is_effective_nop(&d(&[0x89, 0xc3]))); // mov ebx, eax
        assert!(!is_effective_nop(&d(&[0x83, 0xc0, 0x01]))); // add eax, 1
    }

    #[test]
    fn xchg_writes_both() {
        let i = d(&[0x87, 0xd9]); // xchg ecx, ebx
        assert!(writes(&i).contains(Location::Gpr(Gpr::Ecx)));
        assert!(writes(&i).contains(Location::Gpr(Gpr::Ebx)));
    }

    #[test]
    fn pusha_popa() {
        let i = d(&[0x60]);
        assert_eq!(reads(&i).0 & 0xff, 0xff);
        assert!(writes(&i).contains(Location::Mem));
        let i = d(&[0x61]);
        assert_eq!(writes(&i).0 & 0xff, 0xff);
    }
}
