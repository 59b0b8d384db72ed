//! The IA-32 instruction decoder.
//!
//! `decode(buf, offset)` always returns an [`Instruction`]: undecodable
//! bytes come back as [`Mnemonic::Bad`] with length 1 so callers can
//! resynchronise byte-by-byte, which is how a network shellcode scanner must
//! behave (extracted frames mix code and data).

use crate::insn::{Cond, Instruction, LoopKind, Mnemonic, Prefixes, SegReg};
use crate::operand::{ops, MemRef, Operand, Operands, Width};
use crate::reg::{Gpr, Reg};

/// Architectural maximum encoded length.
pub const MAX_INSN_LEN: usize = 15;

struct Cursor<'a> {
    buf: &'a [u8],
    start: usize,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8], start: usize) -> Self {
        Cursor {
            buf,
            start,
            pos: start,
        }
    }

    fn len(&self) -> usize {
        self.pos - self.start
    }

    fn peek(&self) -> Option<u8> {
        self.buf.get(self.pos).copied()
    }

    fn u8(&mut self) -> Option<u8> {
        let b = self.buf.get(self.pos).copied()?;
        self.pos += 1;
        Some(b)
    }

    fn u16(&mut self) -> Option<u16> {
        let lo = self.u8()?;
        let hi = self.u8()?;
        Some(u16::from_le_bytes([lo, hi]))
    }

    fn u32(&mut self) -> Option<u32> {
        let a = self.u8()?;
        let b = self.u8()?;
        let c = self.u8()?;
        let d = self.u8()?;
        Some(u32::from_le_bytes([a, b, c, d]))
    }

    fn i8(&mut self) -> Option<i8> {
        self.u8().map(|b| b as i8)
    }
}

/// Register-or-memory side of a ModRM byte.
enum Rm {
    Reg(u8),
    Mem(MemRef),
}

/// Decode a ModRM byte (plus SIB/displacement) from the cursor.
///
/// Returns `(reg_field, rm)`; the memory reference carries a placeholder
/// width that callers overwrite.
fn modrm(cur: &mut Cursor<'_>, prefixes: &Prefixes) -> Option<(u8, Rm)> {
    let byte = cur.u8()?;
    let md = byte >> 6;
    let reg = (byte >> 3) & 7;
    let rm = byte & 7;

    if md == 3 {
        return Some((reg, Rm::Reg(rm)));
    }

    if prefixes.addrsize {
        return modrm16(cur, prefixes, md, reg, rm);
    }

    let mut base = None;
    let mut index = None;
    let mut disp: i32 = 0;

    if rm == 4 {
        // SIB byte.
        let sib = cur.u8()?;
        let scale = 1u8 << (sib >> 6);
        let idx = (sib >> 3) & 7;
        let bse = sib & 7;
        if idx != 4 {
            index = Some((Reg::r32(Gpr::from_index(idx)), scale));
        }
        if bse == 5 && md == 0 {
            disp = cur.u32()? as i32;
        } else {
            base = Some(Reg::r32(Gpr::from_index(bse)));
        }
    } else if rm == 5 && md == 0 {
        disp = cur.u32()? as i32;
    } else {
        base = Some(Reg::r32(Gpr::from_index(rm)));
    }

    match md {
        1 => disp = disp.wrapping_add(i32::from(cur.i8()?)),
        2 => disp = disp.wrapping_add(cur.u32()? as i32),
        _ => {}
    }

    Some((
        reg,
        Rm::Mem(MemRef {
            seg: prefixes.seg,
            base,
            index,
            disp,
            width: Width::D,
        }),
    ))
}

/// 16-bit addressing forms (`67` prefix): `[bx+si]`, `[bp+di]`, ...
fn modrm16(cur: &mut Cursor<'_>, prefixes: &Prefixes, md: u8, reg: u8, rm: u8) -> Option<(u8, Rm)> {
    const TABLE: [(Option<Gpr>, Option<Gpr>); 8] = [
        (Some(Gpr::Ebx), Some(Gpr::Esi)),
        (Some(Gpr::Ebx), Some(Gpr::Edi)),
        (Some(Gpr::Ebp), Some(Gpr::Esi)),
        (Some(Gpr::Ebp), Some(Gpr::Edi)),
        (Some(Gpr::Esi), None),
        (Some(Gpr::Edi), None),
        (Some(Gpr::Ebp), None), // or disp16 when md == 0
        (Some(Gpr::Ebx), None),
    ];
    let (mut base_gpr, index_gpr) = TABLE[usize::from(rm)];
    let mut disp: i32 = 0;
    if md == 0 && rm == 6 {
        base_gpr = None;
        disp = i32::from(cur.u16()?);
    }
    match md {
        1 => disp = disp.wrapping_add(i32::from(cur.i8()?)),
        2 => disp = disp.wrapping_add(i32::from(cur.u16()? as i16)),
        _ => {}
    }
    Some((
        reg,
        Rm::Mem(MemRef {
            seg: prefixes.seg,
            base: base_gpr.map(Reg::r16),
            index: index_gpr.map(|g| (Reg::r16(g), 1)),
            disp,
            width: Width::D,
        }),
    ))
}

fn rm_operand(rm: Rm, width: Width) -> Operand {
    match rm {
        Rm::Reg(i) => Operand::Reg(Reg::from_index(i, width)),
        Rm::Mem(mut m) => {
            m.width = width;
            Operand::Mem(m)
        }
    }
}

/// Immediate of the current operand width (`Iz`: 16 with `66`, else 32).
fn imm_z(cur: &mut Cursor<'_>, width: Width) -> Option<Operand> {
    Some(match width {
        Width::W => Operand::Imm(i64::from(cur.u16()?), Width::W),
        _ => Operand::Imm(i64::from(cur.u32()?), Width::D),
    })
}

/// Sign-extend an imm8 to the operation width, stored zero-extended in i64.
fn imm8_sx(cur: &mut Cursor<'_>, width: Width) -> Option<Operand> {
    let v = cur.i8()?;
    let ext = match width {
        Width::W => i64::from((v as i16) as u16),
        _ => i64::from((v as i32) as u32),
    };
    Some(Operand::Imm(ext, width))
}

/// Decode the instruction starting at `offset` in `buf`.
pub fn decode(buf: &[u8], offset: usize) -> Instruction {
    match try_decode(buf, offset) {
        Some(insn) if insn.len as usize <= MAX_INSN_LEN => insn,
        _ => bad(offset),
    }
}

fn bad(offset: usize) -> Instruction {
    Instruction {
        offset,
        len: 1,
        mnemonic: Mnemonic::Bad,
        operands: Operands::EMPTY,
        width: Width::B,
        prefixes: Prefixes::default(),
    }
}

fn try_decode(buf: &[u8], offset: usize) -> Option<Instruction> {
    if offset >= buf.len() {
        return None;
    }
    let mut cur = Cursor::new(buf, offset);
    let mut prefixes = Prefixes::default();

    // Prefix loop (bounded by MAX_INSN_LEN).
    loop {
        if cur.len() >= MAX_INSN_LEN {
            return None;
        }
        match cur.peek()? {
            0xf0 => prefixes.lock = true,
            0xf2 => prefixes.repne = true,
            0xf3 => prefixes.rep = true,
            0x2e => prefixes.seg = Some(SegReg::Cs),
            0x36 => prefixes.seg = Some(SegReg::Ss),
            0x3e => prefixes.seg = Some(SegReg::Ds),
            0x26 => prefixes.seg = Some(SegReg::Es),
            0x64 => prefixes.seg = Some(SegReg::Fs),
            0x65 => prefixes.seg = Some(SegReg::Gs),
            0x66 => prefixes.opsize = true,
            0x67 => prefixes.addrsize = true,
            _ => break,
        }
        cur.u8();
    }

    let opw = if prefixes.opsize { Width::W } else { Width::D };
    let opcode = cur.u8()?;

    let insn = |cur: &Cursor<'_>, mnemonic, operands: Operands, width| {
        Some(Instruction {
            offset,
            len: cur.len() as u8,
            mnemonic,
            operands,
            width,
            prefixes,
        })
    };

    // The classic ALU block: 00-3F, pattern repeats every 8 opcodes.
    if opcode < 0x40 {
        const ALU: [Mnemonic; 8] = [
            Mnemonic::Add,
            Mnemonic::Or,
            Mnemonic::Adc,
            Mnemonic::Sbb,
            Mnemonic::And,
            Mnemonic::Sub,
            Mnemonic::Xor,
            Mnemonic::Cmp,
        ];
        let low = opcode & 7;
        let mnem = ALU[usize::from(opcode >> 3)];
        match low {
            0 => {
                // op r/m8, r8
                let (reg, rm) = modrm(&mut cur, &prefixes)?;
                let ops = ops![rm_operand(rm, Width::B), Operand::Reg(Reg::r8(reg))];
                return insn(&cur, mnem, ops, Width::B);
            }
            1 => {
                let (reg, rm) = modrm(&mut cur, &prefixes)?;
                let ops = ops![rm_operand(rm, opw), Operand::Reg(Reg::from_index(reg, opw))];
                return insn(&cur, mnem, ops, opw);
            }
            2 => {
                let (reg, rm) = modrm(&mut cur, &prefixes)?;
                let ops = ops![Operand::Reg(Reg::r8(reg)), rm_operand(rm, Width::B)];
                return insn(&cur, mnem, ops, Width::B);
            }
            3 => {
                let (reg, rm) = modrm(&mut cur, &prefixes)?;
                let ops = ops![Operand::Reg(Reg::from_index(reg, opw)), rm_operand(rm, opw)];
                return insn(&cur, mnem, ops, opw);
            }
            4 => {
                let v = cur.u8()?;
                let ops = ops![
                    Operand::Reg(Reg::accumulator(Width::B)),
                    Operand::Imm(i64::from(v), Width::B),
                ];
                return insn(&cur, mnem, ops, Width::B);
            }
            5 => {
                let imm = imm_z(&mut cur, opw)?;
                let ops = ops![Operand::Reg(Reg::accumulator(opw)), imm];
                return insn(&cur, mnem, ops, opw);
            }
            6 => {
                // push seg (06/0E/16/1E... 0E is push cs)
                let seg = SegReg::from_index(opcode >> 3);
                return insn(&cur, Mnemonic::Push, ops![Operand::SegReg(seg)], Width::D);
            }
            7 => {
                // 0F escapes to the two-byte map; otherwise pop seg / BCD.
                if opcode == 0x0f {
                    return decode_0f(&mut cur, offset, prefixes, opw);
                }
                let mnem = match opcode {
                    0x27 => Mnemonic::Daa,
                    0x2f => Mnemonic::Das,
                    0x37 => Mnemonic::Aaa,
                    0x3f => Mnemonic::Aas,
                    _ => {
                        let seg = SegReg::from_index(opcode >> 3);
                        return insn(&cur, Mnemonic::Pop, ops![Operand::SegReg(seg)], Width::D);
                    }
                };
                return insn(&cur, mnem, ops![], Width::B);
            }
            _ => unreachable!(),
        }
    }

    match opcode {
        // inc/dec/push/pop r32 (r16 with 66)
        0x40..=0x47 => insn(
            &cur,
            Mnemonic::Inc,
            ops![Operand::Reg(Reg::from_index(opcode & 7, opw))],
            opw,
        ),
        0x48..=0x4f => insn(
            &cur,
            Mnemonic::Dec,
            ops![Operand::Reg(Reg::from_index(opcode & 7, opw))],
            opw,
        ),
        0x50..=0x57 => insn(
            &cur,
            Mnemonic::Push,
            ops![Operand::Reg(Reg::from_index(opcode & 7, opw))],
            opw,
        ),
        0x58..=0x5f => insn(
            &cur,
            Mnemonic::Pop,
            ops![Operand::Reg(Reg::from_index(opcode & 7, opw))],
            opw,
        ),
        0x60 => insn(&cur, Mnemonic::Pusha, ops![], opw),
        0x61 => insn(&cur, Mnemonic::Popa, ops![], opw),
        0x62 => {
            let (reg, rm) = modrm(&mut cur, &prefixes)?;
            match rm {
                Rm::Mem(_) => {
                    let ops = ops![Operand::Reg(Reg::from_index(reg, opw)), rm_operand(rm, opw)];
                    insn(&cur, Mnemonic::Bound, ops, opw)
                }
                Rm::Reg(_) => None, // BOUND requires a memory operand
            }
        }
        0x63 => {
            let (reg, rm) = modrm(&mut cur, &prefixes)?;
            let ops = ops![
                rm_operand(rm, Width::W),
                Operand::Reg(Reg::r16(Gpr::from_index(reg))),
            ];
            insn(&cur, Mnemonic::Arpl, ops, Width::W)
        }
        0x68 => {
            let imm = imm_z(&mut cur, opw)?;
            insn(&cur, Mnemonic::Push, ops![imm], opw)
        }
        0x69 => {
            let (reg, rm) = modrm(&mut cur, &prefixes)?;
            let imm = imm_z(&mut cur, opw)?;
            let ops = ops![
                Operand::Reg(Reg::from_index(reg, opw)),
                rm_operand(rm, opw),
                imm,
            ];
            insn(&cur, Mnemonic::Imul, ops, opw)
        }
        0x6a => {
            let imm = imm8_sx(&mut cur, opw)?;
            insn(&cur, Mnemonic::Push, ops![imm], opw)
        }
        0x6b => {
            let (reg, rm) = modrm(&mut cur, &prefixes)?;
            let imm = imm8_sx(&mut cur, opw)?;
            let ops = ops![
                Operand::Reg(Reg::from_index(reg, opw)),
                rm_operand(rm, opw),
                imm,
            ];
            insn(&cur, Mnemonic::Imul, ops, opw)
        }
        0x6c | 0x6d => insn(
            &cur,
            Mnemonic::Ins,
            ops![],
            if opcode & 1 == 0 { Width::B } else { opw },
        ),
        0x6e | 0x6f => insn(
            &cur,
            Mnemonic::Outs,
            ops![],
            if opcode & 1 == 0 { Width::B } else { opw },
        ),
        // Jcc rel8
        0x70..=0x7f => {
            let rel = cur.i8()?;
            let target = cur.pos as i64 + i64::from(rel);
            insn(
                &cur,
                Mnemonic::Jcc(Cond::from_index(opcode)),
                ops![Operand::Rel(target)],
                Width::B,
            )
        }
        // Group 1: immediate ALU
        0x80 | 0x82 => {
            let (reg, rm) = modrm(&mut cur, &prefixes)?;
            let v = cur.u8()?;
            let mnem = group1(reg);
            let ops = ops![
                rm_operand(rm, Width::B),
                Operand::Imm(i64::from(v), Width::B),
            ];
            insn(&cur, mnem, ops, Width::B)
        }
        0x81 => {
            let (reg, rm) = modrm(&mut cur, &prefixes)?;
            let imm = imm_z(&mut cur, opw)?;
            let ops = ops![rm_operand(rm, opw), imm];
            insn(&cur, group1(reg), ops, opw)
        }
        0x83 => {
            let (reg, rm) = modrm(&mut cur, &prefixes)?;
            let imm = imm8_sx(&mut cur, opw)?;
            let ops = ops![rm_operand(rm, opw), imm];
            insn(&cur, group1(reg), ops, opw)
        }
        0x84 | 0x85 => {
            let w = if opcode & 1 == 0 { Width::B } else { opw };
            let (reg, rm) = modrm(&mut cur, &prefixes)?;
            let ops = ops![rm_operand(rm, w), Operand::Reg(Reg::from_index(reg, w))];
            insn(&cur, Mnemonic::Test, ops, w)
        }
        0x86 | 0x87 => {
            let w = if opcode & 1 == 0 { Width::B } else { opw };
            let (reg, rm) = modrm(&mut cur, &prefixes)?;
            let ops = ops![rm_operand(rm, w), Operand::Reg(Reg::from_index(reg, w))];
            insn(&cur, Mnemonic::Xchg, ops, w)
        }
        // MOV family
        0x88 => {
            let (reg, rm) = modrm(&mut cur, &prefixes)?;
            let ops = ops![rm_operand(rm, Width::B), Operand::Reg(Reg::r8(reg))];
            insn(&cur, Mnemonic::Mov, ops, Width::B)
        }
        0x89 => {
            let (reg, rm) = modrm(&mut cur, &prefixes)?;
            let ops = ops![rm_operand(rm, opw), Operand::Reg(Reg::from_index(reg, opw))];
            insn(&cur, Mnemonic::Mov, ops, opw)
        }
        0x8a => {
            let (reg, rm) = modrm(&mut cur, &prefixes)?;
            let ops = ops![Operand::Reg(Reg::r8(reg)), rm_operand(rm, Width::B)];
            insn(&cur, Mnemonic::Mov, ops, Width::B)
        }
        0x8b => {
            let (reg, rm) = modrm(&mut cur, &prefixes)?;
            let ops = ops![Operand::Reg(Reg::from_index(reg, opw)), rm_operand(rm, opw)];
            insn(&cur, Mnemonic::Mov, ops, opw)
        }
        0x8c => {
            let (reg, rm) = modrm(&mut cur, &prefixes)?;
            let ops = ops![
                rm_operand(rm, Width::W),
                Operand::SegReg(SegReg::from_index(reg)),
            ];
            insn(&cur, Mnemonic::Mov, ops, Width::W)
        }
        0x8d => {
            let (reg, rm) = modrm(&mut cur, &prefixes)?;
            match rm {
                Rm::Mem(_) => {
                    let ops = ops![Operand::Reg(Reg::from_index(reg, opw)), rm_operand(rm, opw)];
                    insn(&cur, Mnemonic::Lea, ops, opw)
                }
                Rm::Reg(_) => None, // LEA requires a memory operand
            }
        }
        0x8e => {
            let (reg, rm) = modrm(&mut cur, &prefixes)?;
            let ops = ops![
                Operand::SegReg(SegReg::from_index(reg)),
                rm_operand(rm, Width::W),
            ];
            insn(&cur, Mnemonic::Mov, ops, Width::W)
        }
        0x8f => {
            let (reg, rm) = modrm(&mut cur, &prefixes)?;
            if reg != 0 {
                return None;
            }
            insn(&cur, Mnemonic::Pop, ops![rm_operand(rm, opw)], opw)
        }
        0x90 => {
            // Plain NOP. `F3 90` is PAUSE but NOP-equivalent for our purposes.
            insn(&cur, Mnemonic::Nop, ops![], opw)
        }
        0x91..=0x97 => {
            let ops = ops![
                Operand::Reg(Reg::accumulator(opw)),
                Operand::Reg(Reg::from_index(opcode & 7, opw)),
            ];
            insn(&cur, Mnemonic::Xchg, ops, opw)
        }
        0x98 => insn(
            &cur,
            if prefixes.opsize {
                Mnemonic::Cbw
            } else {
                Mnemonic::Cwde
            },
            ops![],
            opw,
        ),
        0x99 => insn(
            &cur,
            if prefixes.opsize {
                Mnemonic::Cwd
            } else {
                Mnemonic::Cdq
            },
            ops![],
            opw,
        ),
        0x9a => {
            let off = cur.u32()?;
            let seg = cur.u16()?;
            insn(
                &cur,
                Mnemonic::CallFar,
                ops![Operand::Far { seg, off }],
                opw,
            )
        }
        0x9b => insn(&cur, Mnemonic::Wait, ops![], Width::B),
        0x9c => insn(&cur, Mnemonic::Pushf, ops![], opw),
        0x9d => insn(&cur, Mnemonic::Popf, ops![], opw),
        0x9e => insn(&cur, Mnemonic::Sahf, ops![], Width::B),
        0x9f => insn(&cur, Mnemonic::Lahf, ops![], Width::B),
        // MOV accumulator <-> moffs
        0xa0..=0xa3 => {
            let disp = if prefixes.addrsize {
                i32::from(cur.u16()?)
            } else {
                cur.u32()? as i32
            };
            let w = if opcode & 1 == 0 { Width::B } else { opw };
            let mem = Operand::Mem(MemRef {
                seg: prefixes.seg,
                base: None,
                index: None,
                disp,
                width: w,
            });
            let acc = Operand::Reg(Reg::accumulator(w));
            let ops = if opcode < 0xa2 {
                ops![acc, mem]
            } else {
                ops![mem, acc]
            };
            insn(&cur, Mnemonic::Mov, ops, w)
        }
        0xa4 | 0xa5 => insn(&cur, Mnemonic::Movs, ops![], str_w(opcode, opw)),
        0xa6 | 0xa7 => insn(&cur, Mnemonic::Cmps, ops![], str_w(opcode, opw)),
        0xa8 => {
            let v = cur.u8()?;
            let ops = ops![
                Operand::Reg(Reg::accumulator(Width::B)),
                Operand::Imm(i64::from(v), Width::B),
            ];
            insn(&cur, Mnemonic::Test, ops, Width::B)
        }
        0xa9 => {
            let imm = imm_z(&mut cur, opw)?;
            let ops = ops![Operand::Reg(Reg::accumulator(opw)), imm];
            insn(&cur, Mnemonic::Test, ops, opw)
        }
        0xaa | 0xab => insn(&cur, Mnemonic::Stos, ops![], str_w(opcode, opw)),
        0xac | 0xad => insn(&cur, Mnemonic::Lods, ops![], str_w(opcode, opw)),
        0xae | 0xaf => insn(&cur, Mnemonic::Scas, ops![], str_w(opcode, opw)),
        // MOV r, imm
        0xb0..=0xb7 => {
            let v = cur.u8()?;
            let ops = ops![
                Operand::Reg(Reg::r8(opcode & 7)),
                Operand::Imm(i64::from(v), Width::B),
            ];
            insn(&cur, Mnemonic::Mov, ops, Width::B)
        }
        0xb8..=0xbf => {
            let imm = imm_z(&mut cur, opw)?;
            let ops = ops![Operand::Reg(Reg::from_index(opcode & 7, opw)), imm];
            insn(&cur, Mnemonic::Mov, ops, opw)
        }
        // Group 2: shifts/rotates
        0xc0 | 0xc1 => {
            let w = if opcode & 1 == 0 { Width::B } else { opw };
            let (reg, rm) = modrm(&mut cur, &prefixes)?;
            let v = cur.u8()?;
            let ops = ops![rm_operand(rm, w), Operand::Imm(i64::from(v), Width::B)];
            insn(&cur, group2(reg), ops, w)
        }
        0xc2 => {
            let v = cur.u16()?;
            insn(
                &cur,
                Mnemonic::Ret,
                ops![Operand::Imm(i64::from(v), Width::W)],
                opw,
            )
        }
        0xc3 => insn(&cur, Mnemonic::Ret, ops![], opw),
        0xc4 | 0xc5 => {
            let (reg, rm) = modrm(&mut cur, &prefixes)?;
            match rm {
                Rm::Mem(_) => {
                    let mnem = if opcode == 0xc4 {
                        Mnemonic::Les
                    } else {
                        Mnemonic::Lds
                    };
                    let ops = ops![Operand::Reg(Reg::from_index(reg, opw)), rm_operand(rm, opw)];
                    insn(&cur, mnem, ops, opw)
                }
                Rm::Reg(_) => None,
            }
        }
        0xc6 => {
            let (reg, rm) = modrm(&mut cur, &prefixes)?;
            if reg != 0 {
                return None;
            }
            let v = cur.u8()?;
            let ops = ops![
                rm_operand(rm, Width::B),
                Operand::Imm(i64::from(v), Width::B),
            ];
            insn(&cur, Mnemonic::Mov, ops, Width::B)
        }
        0xc7 => {
            let (reg, rm) = modrm(&mut cur, &prefixes)?;
            if reg != 0 {
                return None;
            }
            let imm = imm_z(&mut cur, opw)?;
            let ops = ops![rm_operand(rm, opw), imm];
            insn(&cur, Mnemonic::Mov, ops, opw)
        }
        0xc8 => {
            let size = cur.u16()?;
            let nesting = cur.u8()?;
            let ops = ops![
                Operand::Imm(i64::from(size), Width::W),
                Operand::Imm(i64::from(nesting), Width::B),
            ];
            insn(&cur, Mnemonic::Enter, ops, opw)
        }
        0xc9 => insn(&cur, Mnemonic::Leave, ops![], opw),
        0xca => {
            let v = cur.u16()?;
            insn(
                &cur,
                Mnemonic::RetFar,
                ops![Operand::Imm(i64::from(v), Width::W)],
                opw,
            )
        }
        0xcb => insn(&cur, Mnemonic::RetFar, ops![], opw),
        0xcc => insn(&cur, Mnemonic::Int3, ops![], Width::B),
        0xcd => {
            let v = cur.u8()?;
            insn(
                &cur,
                Mnemonic::Int,
                ops![Operand::Imm(i64::from(v), Width::B)],
                Width::B,
            )
        }
        0xce => insn(&cur, Mnemonic::Into, ops![], Width::B),
        0xcf => insn(&cur, Mnemonic::Iret, ops![], opw),
        0xd0 | 0xd1 => {
            let w = if opcode & 1 == 0 { Width::B } else { opw };
            let (reg, rm) = modrm(&mut cur, &prefixes)?;
            let ops = ops![rm_operand(rm, w), Operand::Imm(1, Width::B)];
            insn(&cur, group2(reg), ops, w)
        }
        0xd2 | 0xd3 => {
            let w = if opcode & 1 == 0 { Width::B } else { opw };
            let (reg, rm) = modrm(&mut cur, &prefixes)?;
            let ops = ops![rm_operand(rm, w), Operand::Reg(Reg::r8(1))]; // CL
            insn(&cur, group2(reg), ops, w)
        }
        0xd4 => {
            let v = cur.u8()?;
            insn(
                &cur,
                Mnemonic::Aam,
                ops![Operand::Imm(i64::from(v), Width::B)],
                Width::B,
            )
        }
        0xd5 => {
            let v = cur.u8()?;
            insn(
                &cur,
                Mnemonic::Aad,
                ops![Operand::Imm(i64::from(v), Width::B)],
                Width::B,
            )
        }
        0xd6 => insn(&cur, Mnemonic::Salc, ops![], Width::B),
        0xd7 => insn(&cur, Mnemonic::Xlat, ops![], Width::B),
        // x87: decode the frame, keep the raw opcode.
        0xd8..=0xdf => {
            let (_, rm) = modrm(&mut cur, &prefixes)?;
            let ops = match rm {
                Rm::Mem(_) => ops![rm_operand(rm, Width::D)],
                Rm::Reg(_) => ops![],
            };
            insn(&cur, Mnemonic::Fpu(opcode), ops, Width::D)
        }
        0xe0..=0xe2 => {
            let rel = cur.i8()?;
            let target = cur.pos as i64 + i64::from(rel);
            let kind = match opcode {
                0xe0 => LoopKind::Ne,
                0xe1 => LoopKind::E,
                _ => LoopKind::Plain,
            };
            insn(
                &cur,
                Mnemonic::Loop(kind),
                ops![Operand::Rel(target)],
                Width::B,
            )
        }
        0xe3 => {
            let rel = cur.i8()?;
            let target = cur.pos as i64 + i64::from(rel);
            insn(&cur, Mnemonic::Jecxz, ops![Operand::Rel(target)], Width::B)
        }
        0xe4 | 0xe5 => {
            let port = cur.u8()?;
            let w = if opcode & 1 == 0 { Width::B } else { opw };
            let ops = ops![
                Operand::Reg(Reg::accumulator(w)),
                Operand::Imm(i64::from(port), Width::B),
            ];
            insn(&cur, Mnemonic::In, ops, w)
        }
        0xe6 | 0xe7 => {
            let port = cur.u8()?;
            let w = if opcode & 1 == 0 { Width::B } else { opw };
            let ops = ops![
                Operand::Imm(i64::from(port), Width::B),
                Operand::Reg(Reg::accumulator(w)),
            ];
            insn(&cur, Mnemonic::Out, ops, w)
        }
        0xe8 => {
            let rel = cur.u32()? as i32;
            let target = cur.pos as i64 + i64::from(rel);
            insn(&cur, Mnemonic::Call, ops![Operand::Rel(target)], opw)
        }
        0xe9 => {
            let rel = cur.u32()? as i32;
            let target = cur.pos as i64 + i64::from(rel);
            insn(&cur, Mnemonic::Jmp, ops![Operand::Rel(target)], opw)
        }
        0xea => {
            let off = cur.u32()?;
            let seg = cur.u16()?;
            insn(&cur, Mnemonic::JmpFar, ops![Operand::Far { seg, off }], opw)
        }
        0xeb => {
            let rel = cur.i8()?;
            let target = cur.pos as i64 + i64::from(rel);
            insn(&cur, Mnemonic::Jmp, ops![Operand::Rel(target)], Width::B)
        }
        0xec | 0xed => {
            let w = if opcode & 1 == 0 { Width::B } else { opw };
            let ops = ops![
                Operand::Reg(Reg::accumulator(w)),
                Operand::Reg(Reg::r16(Gpr::Edx)),
            ];
            insn(&cur, Mnemonic::In, ops, w)
        }
        0xee | 0xef => {
            let w = if opcode & 1 == 0 { Width::B } else { opw };
            let ops = ops![
                Operand::Reg(Reg::r16(Gpr::Edx)),
                Operand::Reg(Reg::accumulator(w)),
            ];
            insn(&cur, Mnemonic::Out, ops, w)
        }
        0xf1 => insn(&cur, Mnemonic::Int3, ops![], Width::B), // ICEBP
        0xf4 => insn(&cur, Mnemonic::Hlt, ops![], Width::B),
        0xf5 => insn(&cur, Mnemonic::Cmc, ops![], Width::B),
        // Group 3
        0xf6 | 0xf7 => {
            let w = if opcode & 1 == 0 { Width::B } else { opw };
            let (reg, rm) = modrm(&mut cur, &prefixes)?;
            match reg {
                0 | 1 => {
                    let imm = if w == Width::B {
                        Operand::Imm(i64::from(cur.u8()?), Width::B)
                    } else {
                        imm_z(&mut cur, w)?
                    };
                    insn(&cur, Mnemonic::Test, ops![rm_operand(rm, w), imm], w)
                }
                2 => insn(&cur, Mnemonic::Not, ops![rm_operand(rm, w)], w),
                3 => insn(&cur, Mnemonic::Neg, ops![rm_operand(rm, w)], w),
                4 => insn(&cur, Mnemonic::Mul, ops![rm_operand(rm, w)], w),
                5 => insn(&cur, Mnemonic::Imul, ops![rm_operand(rm, w)], w),
                6 => insn(&cur, Mnemonic::Div, ops![rm_operand(rm, w)], w),
                _ => insn(&cur, Mnemonic::Idiv, ops![rm_operand(rm, w)], w),
            }
        }
        0xf8 => insn(&cur, Mnemonic::Clc, ops![], Width::B),
        0xf9 => insn(&cur, Mnemonic::Stc, ops![], Width::B),
        0xfa => insn(&cur, Mnemonic::Cli, ops![], Width::B),
        0xfb => insn(&cur, Mnemonic::Sti, ops![], Width::B),
        0xfc => insn(&cur, Mnemonic::Cld, ops![], Width::B),
        0xfd => insn(&cur, Mnemonic::Std, ops![], Width::B),
        // Group 4/5
        0xfe => {
            let (reg, rm) = modrm(&mut cur, &prefixes)?;
            match reg {
                0 => insn(
                    &cur,
                    Mnemonic::Inc,
                    ops![rm_operand(rm, Width::B)],
                    Width::B,
                ),
                1 => insn(
                    &cur,
                    Mnemonic::Dec,
                    ops![rm_operand(rm, Width::B)],
                    Width::B,
                ),
                _ => None,
            }
        }
        0xff => {
            let (reg, rm) = modrm(&mut cur, &prefixes)?;
            match reg {
                0 => insn(&cur, Mnemonic::Inc, ops![rm_operand(rm, opw)], opw),
                1 => insn(&cur, Mnemonic::Dec, ops![rm_operand(rm, opw)], opw),
                2 => insn(&cur, Mnemonic::Call, ops![rm_operand(rm, opw)], opw),
                3 => match rm {
                    Rm::Mem(_) => insn(&cur, Mnemonic::CallFar, ops![rm_operand(rm, opw)], opw),
                    Rm::Reg(_) => None,
                },
                4 => insn(&cur, Mnemonic::Jmp, ops![rm_operand(rm, opw)], opw),
                5 => match rm {
                    Rm::Mem(_) => insn(&cur, Mnemonic::JmpFar, ops![rm_operand(rm, opw)], opw),
                    Rm::Reg(_) => None,
                },
                6 => insn(&cur, Mnemonic::Push, ops![rm_operand(rm, opw)], opw),
                _ => None,
            }
        }
        _ => None,
    }
}

/// String-op width: even opcode = byte, odd = operand width.
fn str_w(opcode: u8, opw: Width) -> Width {
    if opcode & 1 == 0 {
        Width::B
    } else {
        opw
    }
}

fn group1(reg: u8) -> Mnemonic {
    [
        Mnemonic::Add,
        Mnemonic::Or,
        Mnemonic::Adc,
        Mnemonic::Sbb,
        Mnemonic::And,
        Mnemonic::Sub,
        Mnemonic::Xor,
        Mnemonic::Cmp,
    ][usize::from(reg & 7)]
}

fn group2(reg: u8) -> Mnemonic {
    [
        Mnemonic::Rol,
        Mnemonic::Ror,
        Mnemonic::Rcl,
        Mnemonic::Rcr,
        Mnemonic::Shl,
        Mnemonic::Shr,
        Mnemonic::Shl, // 110: SAL alias
        Mnemonic::Sar,
    ][usize::from(reg & 7)]
}

/// Two-byte (`0F`) opcode map subset.
fn decode_0f(
    cur: &mut Cursor<'_>,
    offset: usize,
    prefixes: Prefixes,
    opw: Width,
) -> Option<Instruction> {
    let opcode = cur.u8()?;
    let insn = |cur: &Cursor<'_>, mnemonic, operands: Operands, width| {
        Some(Instruction {
            offset,
            len: cur.len() as u8,
            mnemonic,
            operands,
            width,
            prefixes,
        })
    };

    match opcode {
        0x0b => insn(cur, Mnemonic::Ud2, ops![], Width::B),
        0x1f => {
            // multi-byte NOP
            let (_, rm) = modrm(cur, &prefixes)?;
            insn(cur, Mnemonic::Nop, ops![rm_operand(rm, opw)], opw)
        }
        0x31 => insn(cur, Mnemonic::Rdtsc, ops![], Width::D),
        0x80..=0x8f => {
            let rel = cur.u32()? as i32;
            let target = cur.pos as i64 + i64::from(rel);
            insn(
                cur,
                Mnemonic::Jcc(Cond::from_index(opcode)),
                ops![Operand::Rel(target)],
                Width::D,
            )
        }
        0x90..=0x9f => {
            let (_, rm) = modrm(cur, &prefixes)?;
            insn(
                cur,
                Mnemonic::Setcc(Cond::from_index(opcode)),
                ops![rm_operand(rm, Width::B)],
                Width::B,
            )
        }
        0xa0 => insn(
            cur,
            Mnemonic::Push,
            ops![Operand::SegReg(SegReg::Fs)],
            Width::D,
        ),
        0xa1 => insn(
            cur,
            Mnemonic::Pop,
            ops![Operand::SegReg(SegReg::Fs)],
            Width::D,
        ),
        0xa2 => insn(cur, Mnemonic::Cpuid, ops![], Width::D),
        0xa3 | 0xab | 0xb3 | 0xbb => {
            let (reg, rm) = modrm(cur, &prefixes)?;
            let mnem = match opcode {
                0xa3 => Mnemonic::Bt,
                0xab => Mnemonic::Bts,
                0xb3 => Mnemonic::Btr,
                _ => Mnemonic::Btc,
            };
            let ops = ops![rm_operand(rm, opw), Operand::Reg(Reg::from_index(reg, opw))];
            insn(cur, mnem, ops, opw)
        }
        0xa8 => insn(
            cur,
            Mnemonic::Push,
            ops![Operand::SegReg(SegReg::Gs)],
            Width::D,
        ),
        0xa9 => insn(
            cur,
            Mnemonic::Pop,
            ops![Operand::SegReg(SegReg::Gs)],
            Width::D,
        ),
        0xaf => {
            let (reg, rm) = modrm(cur, &prefixes)?;
            let ops = ops![Operand::Reg(Reg::from_index(reg, opw)), rm_operand(rm, opw)];
            insn(cur, Mnemonic::Imul, ops, opw)
        }
        0xb0 | 0xb1 => {
            let w = if opcode & 1 == 0 { Width::B } else { opw };
            let (reg, rm) = modrm(cur, &prefixes)?;
            let ops = ops![rm_operand(rm, w), Operand::Reg(Reg::from_index(reg, w))];
            insn(cur, Mnemonic::Cmpxchg, ops, w)
        }
        0xb6 | 0xb7 | 0xbe | 0xbf => {
            let srcw = if opcode & 1 == 0 { Width::B } else { Width::W };
            let mnem = if opcode < 0xbe {
                Mnemonic::Movzx
            } else {
                Mnemonic::Movsx
            };
            let (reg, rm) = modrm(cur, &prefixes)?;
            let ops = ops![
                Operand::Reg(Reg::from_index(reg, opw)),
                rm_operand(rm, srcw),
            ];
            insn(cur, mnem, ops, opw)
        }
        0xba => {
            let (reg, rm) = modrm(cur, &prefixes)?;
            let mnem = match reg {
                4 => Mnemonic::Bt,
                5 => Mnemonic::Bts,
                6 => Mnemonic::Btr,
                7 => Mnemonic::Btc,
                _ => return None,
            };
            let v = cur.u8()?;
            let ops = ops![rm_operand(rm, opw), Operand::Imm(i64::from(v), Width::B)];
            insn(cur, mnem, ops, opw)
        }
        0xc0 | 0xc1 => {
            let w = if opcode & 1 == 0 { Width::B } else { opw };
            let (reg, rm) = modrm(cur, &prefixes)?;
            let ops = ops![rm_operand(rm, w), Operand::Reg(Reg::from_index(reg, w))];
            insn(cur, Mnemonic::Xadd, ops, w)
        }
        0xc8..=0xcf => insn(
            cur,
            Mnemonic::Bswap,
            ops![Operand::Reg(Reg::from_index(opcode & 7, Width::D))],
            Width::D,
        ),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(bytes: &[u8]) -> Instruction {
        let i = decode(bytes, 0);
        assert_eq!(
            i.end(),
            bytes.len(),
            "expected to consume all of {bytes:02x?}, got {i:?}"
        );
        i
    }

    #[test]
    fn decodes_figure_1a_routine() {
        // The paper's Figure 1(a):
        //   xor byte ptr [eax], 95h   -> 80 30 95
        //   inc eax                   -> 40
        //   loop decode               -> E2 FA (back to 0)
        let code = [0x80, 0x30, 0x95, 0x40, 0xe2, 0xfa];
        let i0 = decode(&code, 0);
        assert_eq!(i0.mnemonic, Mnemonic::Xor);
        assert_eq!(i0.len, 3);
        let m = i0.op0().unwrap().mem().unwrap();
        assert_eq!(m.base.unwrap().gpr, Gpr::Eax);
        assert_eq!(m.width, Width::B);
        assert_eq!(i0.op1().unwrap().imm(), Some(0x95));

        let i1 = decode(&code, 3);
        assert_eq!(i1.mnemonic, Mnemonic::Inc);
        assert_eq!(i1.op0().unwrap().reg().unwrap().gpr, Gpr::Eax);

        let i2 = decode(&code, 4);
        assert_eq!(i2.mnemonic, Mnemonic::Loop(LoopKind::Plain));
        assert_eq!(i2.branch_target(), Some(0));
    }

    #[test]
    fn decodes_figure_1b_routine() {
        // mov ebx, 31h; add ebx, 64h; xor [eax], bl... the paper uses
        // "xor byte ptr [eax], ebx" loosely; the byte form uses BL: 30 18.
        let code = [
            0xbb, 0x31, 0x00, 0x00, 0x00, // mov ebx, 0x31
            0x83, 0xc3, 0x64, // add ebx, 0x64
            0x30, 0x18, // xor [eax], bl
            0x83, 0xc0, 0x01, // add eax, 1
            0xe2, 0xf1, // loop 0 (rel8 = -15)
        ];
        let i = decode(&code, 0);
        assert_eq!(i.mnemonic, Mnemonic::Mov);
        assert_eq!(i.op1().unwrap().imm(), Some(0x31));
        let i = decode(&code, 5);
        assert_eq!(i.mnemonic, Mnemonic::Add);
        assert_eq!(i.op1().unwrap().imm(), Some(0x64)); // imm8 sign-extended
        let i = decode(&code, 8);
        assert_eq!(i.mnemonic, Mnemonic::Xor);
        assert_eq!(i.op1().unwrap().reg().unwrap().to_string(), "bl");
        let i = decode(&code, 10);
        assert_eq!(i.mnemonic, Mnemonic::Add);
        assert_eq!(i.op0().unwrap().reg().unwrap().gpr, Gpr::Eax);
        assert_eq!(i.op1().unwrap().imm(), Some(1));
        let i = decode(&code, 13);
        assert_eq!(i.branch_target(), Some(0));
    }

    #[test]
    fn imm8_sign_extension_is_zero_masked_to_u32() {
        // add eax, -1 => 83 C0 FF => value 0xffffffff
        let i = one(&[0x83, 0xc0, 0xff]);
        assert_eq!(i.op1().unwrap().imm(), Some(0xffff_ffff));
        // push -1 => 6A FF
        let i = one(&[0x6a, 0xff]);
        assert_eq!(i.mnemonic, Mnemonic::Push);
        assert_eq!(i.op0().unwrap().imm(), Some(0xffff_ffff));
    }

    #[test]
    fn decodes_int80_shellcode_tail() {
        // classic execve tail: xor eax,eax; mov al, 0x0b; int 0x80
        let code = [0x31, 0xc0, 0xb0, 0x0b, 0xcd, 0x80];
        let i = decode(&code, 0);
        assert_eq!(i.mnemonic, Mnemonic::Xor);
        assert_eq!(i.op0().unwrap().reg().unwrap().gpr, Gpr::Eax);
        assert_eq!(i.op1().unwrap().reg().unwrap().gpr, Gpr::Eax);
        let i = decode(&code, 2);
        assert_eq!(i.mnemonic, Mnemonic::Mov);
        assert_eq!(i.op0().unwrap().reg().unwrap().to_string(), "al");
        assert_eq!(i.op1().unwrap().imm(), Some(0x0b));
        let i = decode(&code, 4);
        assert_eq!(i.mnemonic, Mnemonic::Int);
        assert_eq!(i.op0().unwrap().imm(), Some(0x80));
    }

    #[test]
    fn decodes_push_pop_sequences() {
        let i = one(&[0x68, 0x2f, 0x73, 0x68, 0x00]); // push 0x0068732f "/sh\0"
        assert_eq!(i.mnemonic, Mnemonic::Push);
        assert_eq!(i.op0().unwrap().imm(), Some(0x0068_732f));
        let i = one(&[0x5b]); // pop ebx
        assert_eq!(i.mnemonic, Mnemonic::Pop);
        assert_eq!(i.op0().unwrap().reg().unwrap().gpr, Gpr::Ebx);
    }

    #[test]
    fn sib_addressing_decodes() {
        // mov eax, [ebx+esi*4+0x10] => 8B 44 B3 10
        let i = one(&[0x8b, 0x44, 0xb3, 0x10]);
        assert_eq!(i.mnemonic, Mnemonic::Mov);
        let m = i.op1().unwrap().mem().unwrap();
        assert_eq!(m.base.unwrap().gpr, Gpr::Ebx);
        assert_eq!(m.index.unwrap().0.gpr, Gpr::Esi);
        assert_eq!(m.index.unwrap().1, 4);
        assert_eq!(m.disp, 0x10);
    }

    #[test]
    fn sib_with_disp32_base_none() {
        // mov eax, [esi*2 + 0x11223344] => 8B 04 75 44 33 22 11
        let i = one(&[0x8b, 0x04, 0x75, 0x44, 0x33, 0x22, 0x11]);
        let m = i.op1().unwrap().mem().unwrap();
        assert!(m.base.is_none());
        assert_eq!(m.index.unwrap().1, 2);
        assert_eq!(m.disp, 0x1122_3344);
    }

    #[test]
    fn disp32_absolute() {
        // mov eax, [0x8049000] => A1 00 90 04 08
        let i = one(&[0xa1, 0x00, 0x90, 0x04, 0x08]);
        assert_eq!(i.mnemonic, Mnemonic::Mov);
        let m = i.op1().unwrap().mem().unwrap();
        assert!(m.base.is_none() && m.index.is_none());
        assert_eq!(m.disp, 0x0804_9000);
        // mov ecx, [0x8049000] via ModRM: 8B 0D 00 90 04 08
        let i = one(&[0x8b, 0x0d, 0x00, 0x90, 0x04, 0x08]);
        let m = i.op1().unwrap().mem().unwrap();
        assert_eq!(m.disp, 0x0804_9000);
    }

    #[test]
    fn ebp_base_requires_disp() {
        // [ebp] must encode as [ebp+0]: 8B 45 00
        let i = one(&[0x8b, 0x45, 0x00]);
        let m = i.op1().unwrap().mem().unwrap();
        assert_eq!(m.base.unwrap().gpr, Gpr::Ebp);
        assert_eq!(m.disp, 0);
    }

    #[test]
    fn negative_disp8() {
        // mov eax, [ebp-4] => 8B 45 FC
        let i = one(&[0x8b, 0x45, 0xfc]);
        assert_eq!(i.op1().unwrap().mem().unwrap().disp, -4);
    }

    #[test]
    fn operand_size_prefix_switches_width() {
        // 66 B8 34 12 => mov ax, 0x1234
        let i = one(&[0x66, 0xb8, 0x34, 0x12]);
        assert_eq!(i.mnemonic, Mnemonic::Mov);
        assert_eq!(i.op0().unwrap().reg().unwrap().to_string(), "ax");
        assert_eq!(i.op1().unwrap().imm(), Some(0x1234));
    }

    #[test]
    fn address_size_prefix_enables_16bit_modrm() {
        // 67 8B 07 => mov eax, [bx]
        let i = one(&[0x67, 0x8b, 0x07]);
        let m = i.op1().unwrap().mem().unwrap();
        assert_eq!(m.base.unwrap().to_string(), "bx");
        // 67 8B 40 08 => mov eax, [bx+si+8]
        let i = one(&[0x67, 0x8b, 0x40, 0x08]);
        let m = i.op1().unwrap().mem().unwrap();
        assert_eq!(m.base.unwrap().to_string(), "bx");
        assert_eq!(m.index.unwrap().0.to_string(), "si");
        assert_eq!(m.disp, 8);
    }

    #[test]
    fn segment_override_recorded() {
        // 64 A1 30 00 00 00 => mov eax, fs:[0x30] (classic PEB access)
        let i = one(&[0x64, 0xa1, 0x30, 0x00, 0x00, 0x00]);
        let m = i.op1().unwrap().mem().unwrap();
        assert_eq!(m.seg, Some(SegReg::Fs));
        assert_eq!(m.disp, 0x30);
    }

    #[test]
    fn rep_string_ops() {
        // F3 A4 => rep movsb
        let i = one(&[0xf3, 0xa4]);
        assert_eq!(i.mnemonic, Mnemonic::Movs);
        assert!(i.prefixes.rep);
        assert_eq!(i.width, Width::B);
        // F3 AB => rep stosd
        let i = one(&[0xf3, 0xab]);
        assert_eq!(i.mnemonic, Mnemonic::Stos);
        assert_eq!(i.width, Width::D);
    }

    #[test]
    fn jcc_rel8_and_rel32_targets() {
        // JE +5 at offset 0: 74 05 -> target 7
        let i = one(&[0x74, 0x05]);
        assert_eq!(i.mnemonic, Mnemonic::Jcc(Cond::E));
        assert_eq!(i.branch_target(), Some(7));
        // 0F 84 rel32: JE +0x100 -> 6 + 0x100
        let i = one(&[0x0f, 0x84, 0x00, 0x01, 0x00, 0x00]);
        assert_eq!(i.branch_target(), Some(0x106));
        // backwards jmp: EB FE (self)
        let i = one(&[0xeb, 0xfe]);
        assert_eq!(i.mnemonic, Mnemonic::Jmp);
        assert_eq!(i.branch_target(), Some(0));
    }

    #[test]
    fn call_rel32_getpc_idiom() {
        // E8 00 00 00 00 / pop ecx (GetPC)
        let code = [0xe8, 0x00, 0x00, 0x00, 0x00, 0x59];
        let i = decode(&code, 0);
        assert_eq!(i.mnemonic, Mnemonic::Call);
        assert_eq!(i.branch_target(), Some(5));
        let i = decode(&code, 5);
        assert_eq!(i.mnemonic, Mnemonic::Pop);
        assert_eq!(i.op0().unwrap().reg().unwrap().gpr, Gpr::Ecx);
    }

    #[test]
    fn group3_variants() {
        let i = one(&[0xf7, 0xd0]); // not eax
        assert_eq!(i.mnemonic, Mnemonic::Not);
        let i = one(&[0xf7, 0xd8]); // neg eax
        assert_eq!(i.mnemonic, Mnemonic::Neg);
        let i = one(&[0xf6, 0xc3, 0x01]); // test bl, 1
        assert_eq!(i.mnemonic, Mnemonic::Test);
        assert_eq!(i.op1().unwrap().imm(), Some(1));
        let i = one(&[0xf7, 0xe3]); // mul ebx
        assert_eq!(i.mnemonic, Mnemonic::Mul);
    }

    #[test]
    fn shift_group_variants() {
        let i = one(&[0xc1, 0xe0, 0x04]); // shl eax, 4
        assert_eq!(i.mnemonic, Mnemonic::Shl);
        assert_eq!(i.op1().unwrap().imm(), Some(4));
        let i = one(&[0xd1, 0xe8]); // shr eax, 1
        assert_eq!(i.mnemonic, Mnemonic::Shr);
        assert_eq!(i.op1().unwrap().imm(), Some(1));
        let i = one(&[0xd3, 0xc0]); // rol eax, cl
        assert_eq!(i.mnemonic, Mnemonic::Rol);
        assert_eq!(i.op1().unwrap().reg().unwrap().to_string(), "cl");
    }

    #[test]
    fn group5_jmp_call_indirect() {
        let i = one(&[0xff, 0xe4]); // jmp esp — the classic trampoline
        assert_eq!(i.mnemonic, Mnemonic::Jmp);
        assert_eq!(i.op0().unwrap().reg().unwrap().gpr, Gpr::Esp);
        let i = one(&[0xff, 0xd0]); // call eax
        assert_eq!(i.mnemonic, Mnemonic::Call);
        let i = one(&[0xff, 0x34, 0x24]); // push [esp]
        assert_eq!(i.mnemonic, Mnemonic::Push);
    }

    #[test]
    fn movzx_movsx() {
        let i = one(&[0x0f, 0xb6, 0xc3]); // movzx eax, bl
        assert_eq!(i.mnemonic, Mnemonic::Movzx);
        assert_eq!(i.op0().unwrap().reg().unwrap().to_string(), "eax");
        assert_eq!(i.op1().unwrap().reg().unwrap().to_string(), "bl");
        let i = one(&[0x0f, 0xbf, 0xc3]); // movsx eax, bx
        assert_eq!(i.mnemonic, Mnemonic::Movsx);
        assert_eq!(i.op1().unwrap().reg().unwrap().to_string(), "bx");
    }

    #[test]
    fn fpu_frame_decodes_with_memory_operand() {
        // fnstenv [esp-0xc] is the GetPC idiom: D9 74 24 F4
        let i = one(&[0xd9, 0x74, 0x24, 0xf4]);
        assert!(matches!(i.mnemonic, Mnemonic::Fpu(0xd9)));
        let m = i.op0().unwrap().mem().unwrap();
        assert_eq!(m.base.unwrap().gpr, Gpr::Esp);
        assert_eq!(m.disp, -0xc);
        // register form has no operands: D9 C0 (fld st0)
        let i = one(&[0xd9, 0xc0]);
        assert!(i.operands.is_empty());
    }

    #[test]
    fn undecodable_bytes_become_bad() {
        // 0F FF is not in our map.
        let i = decode(&[0x0f, 0xff], 0);
        assert_eq!(i.mnemonic, Mnemonic::Bad);
        assert_eq!(i.len, 1);
        // Truncated instruction: B8 without its imm32.
        let i = decode(&[0xb8, 0x01], 0);
        assert_eq!(i.mnemonic, Mnemonic::Bad);
        // Out-of-range offset.
        let i = decode(&[], 0);
        assert_eq!(i.mnemonic, Mnemonic::Bad);
    }

    #[test]
    fn lea_with_register_rm_is_invalid() {
        let i = decode(&[0x8d, 0xc0], 0); // lea eax, eax — illegal
        assert_eq!(i.mnemonic, Mnemonic::Bad);
    }

    #[test]
    fn prefix_flood_is_bounded() {
        let code = [0x66u8; 64];
        let i = decode(&code, 0);
        assert_eq!(i.mnemonic, Mnemonic::Bad);
        assert_eq!(i.len, 1);
    }

    #[test]
    fn xchg_nop_and_variants() {
        let i = one(&[0x90]);
        assert_eq!(i.mnemonic, Mnemonic::Nop);
        let i = one(&[0x91]); // xchg eax, ecx
        assert_eq!(i.mnemonic, Mnemonic::Xchg);
        assert_eq!(i.op1().unwrap().reg().unwrap().gpr, Gpr::Ecx);
        let i = one(&[0x0f, 0x1f, 0x00]); // multi-byte nop
        assert_eq!(i.mnemonic, Mnemonic::Nop);
    }

    #[test]
    fn one_byte_nop_like_singletons() {
        for (byte, mnem) in [
            (0xf8u8, Mnemonic::Clc),
            (0xf9, Mnemonic::Stc),
            (0xfc, Mnemonic::Cld),
            (0xfd, Mnemonic::Std),
            (0x98, Mnemonic::Cwde),
            (0x99, Mnemonic::Cdq),
            (0x9e, Mnemonic::Sahf),
            (0x9f, Mnemonic::Lahf),
            (0x27, Mnemonic::Daa),
            (0x2f, Mnemonic::Das),
            (0x37, Mnemonic::Aaa),
            (0x3f, Mnemonic::Aas),
            (0xd6, Mnemonic::Salc),
            (0xf5, Mnemonic::Cmc),
        ] {
            assert_eq!(one(&[byte]).mnemonic, mnem, "byte {byte:02x}");
        }
    }

    #[test]
    fn ret_forms() {
        assert_eq!(one(&[0xc3]).mnemonic, Mnemonic::Ret);
        let i = one(&[0xc2, 0x08, 0x00]);
        assert_eq!(i.mnemonic, Mnemonic::Ret);
        assert_eq!(i.op0().unwrap().imm(), Some(8));
        assert_eq!(one(&[0xcb]).mnemonic, Mnemonic::RetFar);
    }

    #[test]
    fn far_transfers() {
        let i = one(&[0xea, 0x78, 0x56, 0x34, 0x12, 0x33, 0x00]);
        assert_eq!(i.mnemonic, Mnemonic::JmpFar);
        assert_eq!(
            *i.op0().unwrap(),
            Operand::Far {
                seg: 0x33,
                off: 0x1234_5678
            }
        );
    }

    #[test]
    fn decode_every_single_byte_start_never_panics() {
        // Exhaustive: all 256 first bytes, padded with arbitrary tails.
        for b in 0u16..=255 {
            let code = [b as u8, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88];
            let i = decode(&code, 0);
            assert!(i.len >= 1);
            assert!(i.end() <= code.len() || i.mnemonic == Mnemonic::Bad);
        }
    }

    #[test]
    fn setcc_decodes() {
        let i = one(&[0x0f, 0x94, 0xc0]); // sete al
        assert_eq!(i.mnemonic, Mnemonic::Setcc(Cond::E));
        assert_eq!(i.op0().unwrap().reg().unwrap().to_string(), "al");
    }

    #[test]
    fn bswap_and_xadd() {
        let i = one(&[0x0f, 0xc9]); // bswap ecx
        assert_eq!(i.mnemonic, Mnemonic::Bswap);
        assert_eq!(i.op0().unwrap().reg().unwrap().gpr, Gpr::Ecx);
        let i = one(&[0x0f, 0xc1, 0xd8]); // xadd eax, ebx
        assert_eq!(i.mnemonic, Mnemonic::Xadd);
    }
}
