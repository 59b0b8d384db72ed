//! Operand model: registers, immediates, memory references, branch targets.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::insn::SegReg;
use crate::reg::Reg;

/// Operand / operation width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Width {
    /// 8 bits.
    B,
    /// 16 bits.
    W,
    /// 32 bits.
    D,
}

impl Width {
    /// Size in bytes.
    pub fn bytes(self) -> usize {
        match self {
            Width::B => 1,
            Width::W => 2,
            Width::D => 4,
        }
    }

    /// Mask for values of this width.
    pub fn mask(self) -> u32 {
        match self {
            Width::B => 0xff,
            Width::W => 0xffff,
            Width::D => 0xffff_ffff,
        }
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Width::B => "byte",
            Width::W => "word",
            Width::D => "dword",
        })
    }
}

/// A memory reference: `seg:[base + index*scale + disp]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemRef {
    /// Segment override, if any.
    pub seg: Option<SegReg>,
    /// Base register.
    pub base: Option<Reg>,
    /// Index register and scale (1, 2, 4 or 8).
    pub index: Option<(Reg, u8)>,
    /// Signed displacement.
    pub disp: i32,
    /// Access width.
    pub width: Width,
}

impl MemRef {
    /// `[base]` with no displacement.
    pub fn base(base: Reg, width: Width) -> MemRef {
        MemRef {
            seg: None,
            base: Some(base),
            index: None,
            disp: 0,
            width,
        }
    }

    /// An absolute `[disp32]` reference.
    pub fn absolute(disp: i32, width: Width) -> MemRef {
        MemRef {
            seg: None,
            base: None,
            index: None,
            disp,
            width,
        }
    }

    /// True if `reg`'s register file participates in the address.
    pub fn uses(&self, gpr: crate::reg::Gpr) -> bool {
        self.base.map(|r| r.gpr == gpr).unwrap_or(false)
            || self.index.map(|(r, _)| r.gpr == gpr).unwrap_or(false)
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ptr ", self.width)?;
        if let Some(seg) = self.seg {
            write!(f, "{seg}:")?;
        }
        f.write_str("[")?;
        let mut wrote = false;
        if let Some(b) = self.base {
            write!(f, "{b}")?;
            wrote = true;
        }
        if let Some((idx, scale)) = self.index {
            if wrote {
                f.write_str("+")?;
            }
            write!(f, "{idx}")?;
            if scale != 1 {
                write!(f, "*{scale}")?;
            }
            wrote = true;
        }
        if self.disp != 0 || !wrote {
            if wrote {
                if self.disp < 0 {
                    write!(f, "-0x{:x}", -(i64::from(self.disp)))?;
                } else {
                    write!(f, "+0x{:x}", self.disp)?;
                }
            } else {
                write!(f, "0x{:x}", self.disp as u32)?;
            }
        }
        f.write_str("]")
    }
}

/// A decoded operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operand {
    /// A register.
    Reg(Reg),
    /// An immediate value (sign-extended into i64 for uniformity) with its
    /// encoded width.
    Imm(i64, Width),
    /// A memory reference.
    Mem(MemRef),
    /// A relative branch target, stored as the *resolved* target offset
    /// within the decoded buffer (i.e. `insn_end + rel`).
    Rel(i64),
    /// A far pointer `seg:offset` (from `JMP FAR ptr16:32` etc.).
    Far {
        /// Segment selector.
        seg: u16,
        /// Offset within the segment.
        off: u32,
    },
    /// A segment register (from `MOV Sreg, r/m` etc.).
    SegReg(SegReg),
}

impl Operand {
    /// The register, if this operand is one.
    pub fn reg(&self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(*r),
            _ => None,
        }
    }

    /// The immediate value, if this operand is one.
    pub fn imm(&self) -> Option<i64> {
        match self {
            Operand::Imm(v, _) => Some(*v),
            _ => None,
        }
    }

    /// The memory reference, if this operand is one.
    pub fn mem(&self) -> Option<&MemRef> {
        match self {
            Operand::Mem(m) => Some(m),
            _ => None,
        }
    }

    /// The width of the operand where defined.
    pub fn width(&self) -> Option<Width> {
        match self {
            Operand::Reg(r) => Some(r.width),
            Operand::Imm(_, w) => Some(*w),
            Operand::Mem(m) => Some(m.width),
            _ => None,
        }
    }
}

/// The most explicit operands any IA-32 instruction carries
/// (`imul r, r/m, imm`, `shld r/m, r, imm`).
pub const MAX_OPERANDS: usize = 3;

/// An instruction's explicit operands, stored inline so that decoding
/// never touches the heap. Dereferences to a slice of the operands present.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Operands {
    len: u8,
    // Slots at and past `len` always hold `FILLER`, so the derived
    // equality and hash see only the operands present.
    items: [Operand; MAX_OPERANDS],
}

impl Operands {
    const FILLER: Operand = Operand::Imm(0, Width::B);

    /// No operands.
    pub const EMPTY: Operands = Operands {
        len: 0,
        items: [Self::FILLER; MAX_OPERANDS],
    };
}

impl<const N: usize> From<[Operand; N]> for Operands {
    /// Panics when `N` exceeds [`MAX_OPERANDS`] — no encoding has more.
    fn from(ops: [Operand; N]) -> Self {
        let mut out = Operands::EMPTY;
        out.items[..N].copy_from_slice(&ops);
        out.len = N as u8;
        out
    }
}

impl std::ops::Deref for Operands {
    type Target = [Operand];

    fn deref(&self) -> &[Operand] {
        &self.items[..usize::from(self.len)]
    }
}

impl<'a> IntoIterator for &'a Operands {
    type Item = &'a Operand;
    type IntoIter = std::slice::Iter<'a, Operand>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl fmt::Debug for Operands {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Build an [`Operands`] list from up to [`MAX_OPERANDS`] operands.
macro_rules! ops {
    ($($op:expr),* $(,)?) => {
        $crate::operand::Operands::from([$($op),*])
    };
}
pub(crate) use ops;

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v, _) => {
                if *v < 0 {
                    write!(f, "-0x{:x}", -v)
                } else {
                    write!(f, "0x{v:x}")
                }
            }
            Operand::Mem(m) => write!(f, "{m}"),
            Operand::Rel(t) => {
                if *t < 0 {
                    write!(f, "loc_-{:x}", -t)
                } else {
                    write!(f, "loc_{t:x}")
                }
            }
            Operand::Far { seg, off } => write!(f, "0x{seg:x}:0x{off:x}"),
            Operand::SegReg(s) => write!(f, "{s}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{Gpr, Reg};

    #[test]
    fn width_sizes() {
        assert_eq!(Width::B.bytes(), 1);
        assert_eq!(Width::W.bytes(), 2);
        assert_eq!(Width::D.bytes(), 4);
        assert_eq!(Width::B.mask(), 0xff);
        assert_eq!(Width::D.mask(), 0xffff_ffff);
    }

    #[test]
    fn memref_display_forms() {
        let base = MemRef::base(Reg::r32(Gpr::Eax), Width::B);
        assert_eq!(base.to_string(), "byte ptr [eax]");

        let full = MemRef {
            seg: None,
            base: Some(Reg::r32(Gpr::Ebx)),
            index: Some((Reg::r32(Gpr::Esi), 4)),
            disp: -8,
            width: Width::D,
        };
        assert_eq!(full.to_string(), "dword ptr [ebx+esi*4-0x8]");

        let abs = MemRef::absolute(0x8049000u32 as i32, Width::D);
        assert_eq!(abs.to_string(), "dword ptr [0x8049000]");
    }

    #[test]
    fn memref_uses_tracks_both_base_and_index() {
        let m = MemRef {
            seg: None,
            base: Some(Reg::r32(Gpr::Ebx)),
            index: Some((Reg::r32(Gpr::Esi), 2)),
            disp: 0,
            width: Width::D,
        };
        assert!(m.uses(Gpr::Ebx));
        assert!(m.uses(Gpr::Esi));
        assert!(!m.uses(Gpr::Eax));
    }

    #[test]
    fn operand_accessors() {
        let r = Operand::Reg(Reg::r32(Gpr::Ecx));
        assert_eq!(r.reg().unwrap().gpr, Gpr::Ecx);
        assert!(r.imm().is_none());
        let i = Operand::Imm(-5, Width::B);
        assert_eq!(i.imm(), Some(-5));
        assert_eq!(i.to_string(), "-0x5");
        assert_eq!(Operand::Imm(0x95, Width::B).to_string(), "0x95");
        assert_eq!(Operand::Rel(0x40).to_string(), "loc_40");
    }
}
