//! Abstract constant evaluation over IR traces.
//!
//! Tracks per-register known *bits* (value + mask) and an abstract stack, so
//! key-building chains fold to constants no matter how they are spelled:
//!
//! ```text
//! mov ebx, 31h        ; ebx = 0x31 (all bits known)
//! add ebx, 64h        ; ebx = 0x95
//! xor [eax], bl       ; source operand = 0x95  <-- annotation the
//!                     ;                            templates match on
//! ```
//!
//! or through the stack (`push 95h / pop ebx`), or byte-wise
//! (`mov bl, 31h / add bl, 64h`). This is contribution (c) of the paper:
//! templates "capture polymorphic shellcodes with added sequences of stack
//! and mathematic operations".

use crate::op::{BinKind, IrInsn, Place, SemOp, UnKind, Value};
use snids_x86::{Gpr, Location, Reg, Width};

/// Known-bits lattice for one 32-bit register.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RegVal {
    val: u32,
    mask: u32, // 1 bits are known
}

/// Abstract machine state: eight registers with known-bits tracking plus a
/// bounded abstract stack.
#[derive(Debug, Clone, Default)]
pub struct AbstractState {
    regs: [RegVal; 8],
    stack: Vec<Option<u32>>,
}

/// Bound on tracked stack depth; deeper pushes discard the oldest entries.
const MAX_STACK: usize = 64;

impl AbstractState {
    /// Fresh state: nothing known.
    pub fn new() -> Self {
        Self::default()
    }

    fn portion(reg: Reg) -> (u32, u32) {
        // (shift, mask-at-zero)
        match (reg.width, reg.high) {
            (Width::B, false) => (0, 0xff),
            (Width::B, true) => (8, 0xff),
            (Width::W, _) => (0, 0xffff),
            (Width::D, _) => (0, 0xffff_ffff),
        }
    }

    /// The value of `reg` if every bit of its portion is known.
    pub fn get(&self, reg: Reg) -> Option<u32> {
        let (shift, m) = Self::portion(reg);
        let rv = self.regs[reg.gpr.index() as usize];
        if (rv.mask >> shift) & m == m {
            Some((rv.val >> shift) & m)
        } else {
            None
        }
    }

    /// Set `reg`'s portion to a known value (or forget it with `None`).
    pub fn set(&mut self, reg: Reg, value: Option<u32>) {
        let (shift, m) = Self::portion(reg);
        let rv = &mut self.regs[reg.gpr.index() as usize];
        match value {
            Some(v) => {
                rv.val = (rv.val & !(m << shift)) | ((v & m) << shift);
                rv.mask |= m << shift;
            }
            None => rv.mask &= !(m << shift),
        }
    }

    /// Forget everything about a register file.
    pub fn invalidate(&mut self, gpr: Gpr) {
        self.regs[gpr.index() as usize] = RegVal::default();
    }

    fn push(&mut self, v: Option<u32>) {
        if self.stack.len() == MAX_STACK {
            self.stack.remove(0);
        }
        self.stack.push(v);
    }

    fn pop(&mut self) -> Option<u32> {
        self.stack.pop().flatten()
    }

    /// Read a [`Value`] if statically known.
    pub fn read(&self, v: &Value) -> Option<u32> {
        match v {
            Value::Imm(i) => Some(*i),
            Value::Place(Place::Reg(r)) => self.get(*r),
            Value::Place(Place::Mem(_)) => None,
        }
    }
}

fn width_bits(w: Width) -> u32 {
    match w {
        Width::B => 8,
        Width::W => 16,
        Width::D => 32,
    }
}

fn fold_bin(op: BinKind, w: Width, a: u32, b: u32) -> Option<u32> {
    let mask = w.mask();
    let bits = width_bits(w);
    let v = match op {
        BinKind::Add => a.wrapping_add(b),
        BinKind::Sub => a.wrapping_sub(b),
        BinKind::And => a & b,
        BinKind::Or => a | b,
        BinKind::Xor => a ^ b,
        BinKind::Shl => {
            let n = b & 31;
            if n >= bits {
                0
            } else {
                a << n
            }
        }
        BinKind::Shr => {
            let n = b & 31;
            if n >= bits {
                0
            } else {
                (a & mask) >> n
            }
        }
        BinKind::Sar => {
            let n = (b & 31).min(bits - 1);
            // sign-extend a to 32 bits at width, then arithmetic shift.
            let sign = 1u32 << (bits - 1);
            let sx = if a & sign != 0 { a | !mask } else { a & mask };
            ((sx as i32) >> n) as u32
        }
        BinKind::Rol => {
            let n = (b & 31) % bits;
            if n == 0 {
                a
            } else {
                ((a << n) | ((a & mask) >> (bits - n))) & mask
            }
        }
        BinKind::Ror => {
            let n = (b & 31) % bits;
            if n == 0 {
                a
            } else {
                (((a & mask) >> n) | (a << (bits - n))) & mask
            }
        }
        // carry-dependent or multi-register results: give up.
        BinKind::Adc | BinKind::Sbb | BinKind::Mul | BinKind::IMul => return None,
    };
    Some(v & mask)
}

/// Walks a trace, annotating each op with the statically-known value of its
/// source operand and updating the abstract state.
#[derive(Debug, Default)]
pub struct Evaluator {
    state: AbstractState,
}

impl Evaluator {
    /// Fresh evaluator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Access the current abstract state.
    pub fn state(&self) -> &AbstractState {
        &self.state
    }

    /// Forget everything, keeping the stack's allocation — one evaluator
    /// serves every trace of a frame.
    pub fn reset(&mut self) {
        self.state.regs = Default::default();
        self.state.stack.clear();
    }

    /// Advance the abstract state over one (already-annotated) op without
    /// re-annotating it — the dataflow pass replays a trace this way to
    /// snapshot the register state between ops.
    pub fn step_op(&mut self, insn: &IrInsn) {
        self.step(insn);
    }

    /// Annotate `ops` in execution order (fills [`IrInsn::src_value`] and,
    /// for software interrupts, [`IrInsn::aux_value`] with EBX — the Linux
    /// `socketcall` subcode).
    pub fn annotate(&mut self, ops: &mut [IrInsn]) {
        for insn in ops.iter_mut() {
            insn.src_value = self.source_value(&insn.op);
            if matches!(insn.op, SemOp::Int(_)) {
                insn.aux_value = self.state.get(Reg::r32(Gpr::Ebx));
            }
            self.step(insn);
        }
    }

    /// The known value of the op's *source* operand before execution.
    ///
    /// For software interrupts the "source" is EAX — the syscall number —
    /// which is what the shell-spawning templates dispatch on.
    fn source_value(&self, op: &SemOp) -> Option<u32> {
        match op {
            SemOp::Bin { src, .. } | SemOp::Mov { src, .. } => self.state.read(src),
            SemOp::Push(v) => self.state.read(v),
            SemOp::Cmp { b, .. } => self.state.read(b),
            SemOp::Int(_) => self.state.get(Reg::r32(Gpr::Eax)),
            _ => None,
        }
    }

    /// Apply one op to the abstract state.
    fn step(&mut self, insn: &IrInsn) {
        match &insn.op {
            SemOp::Mov {
                dst: Place::Reg(r),
                src,
            } => {
                let v = self.state.read(src);
                self.state.set(*r, v);
            }
            SemOp::Bin {
                op,
                dst: Place::Reg(r),
                src,
            } => {
                let cur = self.state.get(*r);
                let rhs = self.state.read(src).map(|v| v & r.width.mask());
                let next = match (cur, rhs) {
                    (Some(a), Some(b)) => fold_bin(*op, r.width, a, b),
                    _ => None,
                };
                self.state.set(*r, next);
            }
            SemOp::Un {
                op,
                dst: Place::Reg(r),
            } => {
                let next = self.state.get(*r).map(|v| {
                    let mask = r.width.mask();
                    match op {
                        UnKind::Not => !v & mask,
                        UnKind::Neg => v.wrapping_neg() & mask,
                        UnKind::Bswap => v.swap_bytes(),
                    }
                });
                self.state.set(*r, next);
            }
            SemOp::Lea { dst, addr } => {
                let base = match addr.base {
                    Some(b) => self.state.get(b),
                    None => Some(0),
                };
                let index = match addr.index {
                    Some((i, s)) => self.state.get(i).map(|v| v.wrapping_mul(u32::from(s))),
                    None => Some(0),
                };
                let v = match (base, index) {
                    (Some(b), Some(i)) => Some(b.wrapping_add(i).wrapping_add(addr.disp as u32)),
                    _ => None,
                };
                self.state.set(*dst, v);
            }
            SemOp::Push(v) => {
                let val = self.state.read(v);
                self.state.push(val);
            }
            SemOp::Pop(place) => {
                let v = self.state.pop();
                if let Place::Reg(r) = place {
                    self.state.set(*r, v);
                }
            }
            SemOp::Call(_) => {
                // Return address is a runtime value.
                self.state.push(None);
            }
            // Flag-only or control ops leave the register file alone.
            SemOp::Cmp { .. } | SemOp::Jmp(_) | SemOp::Jcc(_, _) | SemOp::Jecxz(_) | SemOp::Nop => {
            }
            SemOp::LoopOp(_) => {
                // Decrements ECX by an unknown iteration count.
                self.state.invalidate(Gpr::Ecx);
            }
            SemOp::Int(_) => {
                // Precise syscall convention: the kernel returns in EAX and
                // preserves the other registers (true for Linux int 0x80 and
                // the DOS/Windows software interrupts shellcode targets).
                self.state.invalidate(Gpr::Eax);
                self.state.stack.clear();
            }
            // Everything else: invalidate whatever the fact tables say it
            // writes (memory-destination ops land here too and touch no reg).
            _ => {
                for loc in insn.writes.iter() {
                    if let Location::Gpr(g) = loc {
                        self.state.invalidate(g);
                    }
                }
                // A syscall or unknown op may also have rearranged the stack.
                if matches!(insn.op, SemOp::Int(_) | SemOp::Ret | SemOp::Other(_)) {
                    self.state.stack.clear();
                }
            }
        }
    }
}

/// Convenience: annotate a freshly-lifted op sequence in place.
pub fn annotate(ops: &mut [IrInsn]) {
    Evaluator::new().annotate(ops);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lift::lift_all;
    use snids_x86::linear_sweep;

    fn run(code: &[u8]) -> Vec<IrInsn> {
        let mut ops = lift_all(&linear_sweep(code));
        annotate(&mut ops);
        ops
    }

    #[test]
    fn folds_the_figure_1b_key_chain() {
        // mov ebx, 0x31; add ebx, 0x64; xor [eax], bl
        let ops = run(&[0xbb, 0x31, 0, 0, 0, 0x83, 0xc3, 0x64, 0x30, 0x18]);
        let xor = &ops[2];
        assert!(matches!(
            xor.op,
            SemOp::Bin {
                op: BinKind::Xor,
                ..
            }
        ));
        assert_eq!(xor.src_value, Some(0x95), "0x31 + 0x64 must fold to 0x95");
    }

    #[test]
    fn folds_push_pop_chain() {
        // push 0x95; pop ebx; xor [eax], bl
        let ops = run(&[0x68, 0x95, 0, 0, 0, 0x5b, 0x30, 0x18]);
        assert_eq!(ops[2].src_value, Some(0x95));
    }

    #[test]
    fn folds_byte_register_chain() {
        // mov bl, 0x31; add bl, 0x64; xor [eax], bl
        let ops = run(&[0xb3, 0x31, 0x80, 0xc3, 0x64, 0x30, 0x18]);
        assert_eq!(ops[2].src_value, Some(0x95));
    }

    #[test]
    fn folds_not_neg_chains() {
        // mov ecx, 0x6a; not ecx => 0xffffff95; use cl => 0x95
        let ops = run(&[0xb9, 0x6a, 0, 0, 0, 0xf7, 0xd1, 0x30, 0x08]);
        assert_eq!(ops[2].src_value, Some(0x95));
    }

    #[test]
    fn folds_xor_and_or_combinations() {
        // mov edx, 0xf0; or edx, 0x05; xor [eax], dl -> 0xf5
        let ops = run(&[0xba, 0xf0, 0, 0, 0, 0x83, 0xca, 0x05, 0x30, 0x10]);
        assert_eq!(ops[2].src_value, Some(0xf5));
    }

    #[test]
    fn folds_shifts_and_rotates() {
        // mov ecx, 0x95000000; rol ecx, 8 => 0x00000095
        let ops = run(&[0xb9, 0, 0, 0, 0x95, 0xc1, 0xc1, 0x08, 0x30, 0x08]);
        assert_eq!(ops[2].src_value, Some(0x95));
        // shl then shr
        // mov edx, 0x95; shl edx, 4 => 0x950; shr edx, 4 => 0x95
        let ops = run(&[
            0xba, 0x95, 0, 0, 0, 0xc1, 0xe2, 0x04, 0xc1, 0xea, 0x04, 0x30, 0x10,
        ]);
        assert_eq!(ops[3].src_value, Some(0x95));
    }

    #[test]
    fn unknown_sources_stay_unknown() {
        // mov ebx, [eax]; xor [eax], bl — load is opaque
        let ops = run(&[0x8b, 0x18, 0x30, 0x18]);
        assert_eq!(ops[1].src_value, None);
    }

    #[test]
    fn loads_invalidate_destination() {
        // mov ebx, 5; mov ebx, [eax]; push ebx
        let ops = run(&[0xbb, 5, 0, 0, 0, 0x8b, 0x18, 0x53]);
        assert_eq!(ops[2].src_value, None);
    }

    #[test]
    fn syscall_clobbers_eax_but_not_ebx() {
        // mov eax, 2; mov ebx, 7; int 0x80; push eax; push ebx
        let ops = run(&[0xb8, 2, 0, 0, 0, 0xbb, 7, 0, 0, 0, 0xcd, 0x80, 0x50, 0x53]);
        assert_eq!(ops[3].src_value, None, "eax clobbered by syscall");
        assert_eq!(ops[4].src_value, Some(7), "ebx preserved");
    }

    #[test]
    fn partial_byte_knowledge() {
        // mov bl, 0x42 leaves upper EBX unknown, but BL reads fold.
        let ops = run(&[0xb3, 0x42, 0x30, 0x18, 0x53]); // mov bl; xor [eax],bl; push ebx
        assert_eq!(ops[1].src_value, Some(0x42));
        assert_eq!(ops[2].src_value, None, "full EBX still unknown");
    }

    #[test]
    fn high_byte_tracking() {
        // mov bh, 0x12; mov bl, 0x34; then full bx known if upper half set
        let mut st = AbstractState::new();
        st.set(Reg::r32(Gpr::Ebx), Some(0));
        st.set(
            Reg {
                gpr: Gpr::Ebx,
                width: Width::B,
                high: true,
            },
            Some(0x12),
        );
        assert_eq!(st.get(Reg::r32(Gpr::Ebx)), Some(0x1200));
        assert_eq!(st.get(Reg::r16(Gpr::Ebx)), Some(0x1200));
    }

    #[test]
    fn lea_folds_known_addresses() {
        // mov ebx, 0x10; lea eax, [ebx+ebx*4+5] => 0x55
        let ops = run(&[0xbb, 0x10, 0, 0, 0, 0x8d, 0x44, 0x9b, 0x05, 0x50]);
        assert_eq!(ops[2].src_value, Some(0x55)); // push eax
    }

    #[test]
    fn stack_depth_is_bounded() {
        let mut st = AbstractState::new();
        for i in 0..(MAX_STACK as u32 + 16) {
            st.push(Some(i));
        }
        assert_eq!(st.stack.len(), MAX_STACK);
        assert_eq!(st.pop(), Some(MAX_STACK as u32 + 15));
    }

    #[test]
    fn fold_bin_edge_cases() {
        assert_eq!(fold_bin(BinKind::Shl, Width::B, 0x80, 1), Some(0));
        assert_eq!(fold_bin(BinKind::Shl, Width::B, 1, 9), Some(0)); // over-shift
        assert_eq!(fold_bin(BinKind::Rol, Width::B, 0x81, 1), Some(0x03));
        assert_eq!(fold_bin(BinKind::Ror, Width::B, 0x03, 1), Some(0x81));
        assert_eq!(fold_bin(BinKind::Sar, Width::B, 0x80, 1), Some(0xc0));
        assert_eq!(
            fold_bin(BinKind::Sar, Width::D, 0x8000_0000, 4),
            Some(0xf800_0000)
        );
        assert_eq!(fold_bin(BinKind::Add, Width::B, 0xff, 1), Some(0));
        assert_eq!(fold_bin(BinKind::Adc, Width::D, 1, 1), None);
    }
}
