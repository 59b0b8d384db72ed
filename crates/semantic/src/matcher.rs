//! The template matching engine: unification with gaps and def-use
//! preservation over an execution-order trace.

use crate::pattern::{Bindings, PatOp, PatValue, Template, XformOp};
use snids_ir::{BinKind, Place, SemOp, Target, Trace, UnKind, Value};
use snids_x86::{Gpr, MemRef};

/// A successful unification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchInfo {
    /// Final variable/constant bindings.
    pub bindings: Bindings,
    /// Trace indices of the ops that matched each template step, in order.
    /// (`XformMany` steps may contribute several indices.)
    pub matched: Vec<usize>,
}

impl MatchInfo {
    /// Byte offset of the first matched instruction.
    pub fn start_offset(&self, trace: &Trace) -> usize {
        trace.ops[self.matched[0]].offset
    }

    /// Byte offset just past the last matched instruction.
    pub fn end_offset(&self, trace: &Trace) -> usize {
        let last = &trace.ops[*self.matched.last().expect("non-empty match")];
        last.offset + usize::from(last.raw_len)
    }
}

/// Default step budget per (trace, template) pair. The matcher aborts with
/// "no match" when exhausted, bounding worst-case work on adversarial input.
pub const DEFAULT_BUDGET: usize = 200_000;

struct Ctx<'t> {
    trace: &'t Trace,
    tmpl: &'t Template,
}

/// The binding extensions under which one op matches one template step: at
/// most two, because a memory operand offers its base and its index
/// register as the address variable.
type Candidates = [Option<Bindings>; 2];

const NO_CANDIDATE: Candidates = [None, None];

/// Match `tmpl` anywhere in `trace`. `budget` is decremented per search step
/// and shared across calls so a caller can cap total work for a buffer.
pub fn match_template(trace: &Trace, tmpl: &Template, budget: &mut usize) -> Option<MatchInfo> {
    if tmpl.is_empty() || trace.ops.is_empty() {
        return None;
    }
    let ctx = Ctx { trace, tmpl };
    // Anchor on every op that can begin the template.
    for i in 0..trace.ops.len() {
        if *budget == 0 {
            return None;
        }
        let candidates = match_op(&ctx, &tmpl.ops[0], i, Bindings::default(), i);
        for b in candidates.into_iter().flatten() {
            let mut matched = vec![i];
            if search(&ctx, 1, i + 1, b, i, 0, &mut matched, budget)
                && body_def_use_ok(&ctx, &matched, &b)
            {
                return Some(MatchInfo {
                    bindings: b,
                    matched,
                });
            }
        }
    }
    None
}

/// Whole-loop-body def-use preservation.
///
/// The gap-skipping rule only examines ops between the anchor and the last
/// matched step. When the template ends in a [`PatOp::LoopBack`], the loop
/// body extends from the back-edge's *target* to the back-edge itself, and
/// every unmatched op in that range must also leave the bound registers
/// alone — a decoder whose body rewrote its own pointer or key each
/// iteration could not decode anything. Random data fails this almost
/// surely (most instructions write *some* register); real decoders never
/// do.
fn body_def_use_ok(ctx: &Ctx<'_>, matched: &[usize], bindings: &Bindings) -> bool {
    let Some(&last) = matched.last() else {
        return true;
    };
    let target_idx = match &ctx.trace.ops[last].op {
        SemOp::LoopOp(Target::Off(t)) | SemOp::Jcc(_, Target::Off(t)) => {
            usize::try_from(*t).ok().and_then(|t| ctx.trace.index_of(t))
        }
        _ => None,
    };
    let Some(target_idx) = target_idx else {
        return true; // not a loop-closed template
    };
    let bound = bindings.bound_set();
    for i in target_idx..last {
        if matched.binary_search(&i).is_ok() {
            continue;
        }
        if ctx.trace.ops[i].writes.intersects(bound) {
            return false;
        }
    }
    true
}

/// Depth-first search over (template step, trace position). `gap` counts
/// unmatched ops skipped since the last matched step; templates with a
/// `max_gap` bound reject paths that exceed it (polymorphic engines bound
/// their junk padding, and unbounded gaps are what let random data match).
#[allow(clippy::too_many_arguments)]
fn search(
    ctx: &Ctx<'_>,
    t_idx: usize,
    op_idx: usize,
    bindings: Bindings,
    first_idx: usize,
    gap: usize,
    matched: &mut Vec<usize>,
    budget: &mut usize,
) -> bool {
    if t_idx == ctx.tmpl.ops.len() {
        return true;
    }
    if *budget == 0 {
        return false;
    }
    *budget -= 1;
    if op_idx >= ctx.trace.ops.len() {
        return false;
    }

    let pat = &ctx.tmpl.ops[t_idx];

    // Option A: consume this op as the current template step.
    for b2 in match_op(ctx, pat, op_idx, bindings, first_idx)
        .into_iter()
        .flatten()
    {
        matched.push(op_idx);
        // XformMany may also absorb further transforms: try both staying on
        // this step and advancing past it.
        if search(
            ctx,
            t_idx + 1,
            op_idx + 1,
            b2,
            first_idx,
            0,
            matched,
            budget,
        ) {
            return true;
        }
        if matches!(pat, PatOp::XformMany { .. })
            && search(ctx, t_idx, op_idx + 1, b2, first_idx, 0, matched, budget)
        {
            return true;
        }
        matched.pop();
    }

    // Option B: skip this op, provided it preserves def-use for every bound
    // location (the junk-insertion defence) and the gap budget allows it.
    let op = &ctx.trace.ops[op_idx];
    let gap_ok = ctx.tmpl.max_gap.map(|g| gap < g).unwrap_or(true);
    if gap_ok && !op.writes.intersects(bindings.bound_set()) {
        // Canonical NOPs are free: they are the engine's explicit padding
        // and do not count against the junk budget.
        let next_gap = if op.op == SemOp::Nop { gap } else { gap + 1 };
        return search(
            ctx,
            t_idx,
            op_idx + 1,
            bindings,
            first_idx,
            next_gap,
            matched,
            budget,
        );
    }
    false
}

/// Candidate address-variable bindings for a memory reference: the base
/// register and, failing that, the index register.
///
/// A decoder walks its payload through an exact or near-exact pointer, so
/// only `[reg]`, `[reg+disp8]` and `[reg+reg*s]` shapes qualify; giant
/// displacements are data-access patterns (or random bytes), not decode
/// pointers.
fn addr_candidates(m: &MemRef) -> [Option<Gpr>; 2] {
    if m.disp.unsigned_abs() > 127 {
        return [None, None];
    }
    // 16-bit addressing ([bx+si] forms) does not occur in 32-bit payload
    // decoders.
    let is32 = |r: snids_x86::Reg| r.width == snids_x86::Width::D;
    if m.base.is_some_and(|r| !is32(r)) {
        return [None, None];
    }
    let base = m.base.map(|r| r.gpr);
    match m.index {
        Some((i, _)) if !is32(i) => [None, None],
        Some((i, _)) if Some(i.gpr) != base => [base, Some(i.gpr)],
        _ => [base, None],
    }
}

/// Check a source-value constraint, extending bindings as needed.
fn check_src(
    pat: &PatValue,
    src: &Value,
    folded: Option<u32>,
    bindings: Bindings,
) -> Option<Bindings> {
    match pat {
        PatValue::Any => Some(bindings),
        PatValue::Const(c) => (folded == Some(*c)).then_some(bindings),
        PatValue::KnownConst(k) => folded.and_then(|v| bindings.bind_const(*k, v)),
        PatValue::Var(v) => match src {
            Value::Place(Place::Reg(r)) => bindings.bind_reg(*v, r.gpr),
            _ => None,
        },
    }
}

/// All binding extensions under which `trace.ops[op_idx]` matches `pat`.
fn match_op(
    ctx: &Ctx<'_>,
    pat: &PatOp,
    op_idx: usize,
    bindings: Bindings,
    first_idx: usize,
) -> Candidates {
    let insn = &ctx.trace.ops[op_idx];
    let one = |b: Option<Bindings>| [b, None];
    match (pat, &insn.op) {
        (
            PatOp::StoreXform { ops, addr, src },
            SemOp::Bin {
                op,
                dst: Place::Mem(m),
                src: s,
            },
        ) if ops.contains(op) => {
            // A decode key lives in an immediate or a data register —
            // never in ESP/EBP — and a register key must have been
            // materialized (its value statically known): a decoder whose
            // key register was never initialized decodes nothing, while
            // random bytes routinely "xor [r], junk-reg".
            let plausible_key = match s {
                Value::Imm(_) => true,
                Value::Place(Place::Reg(r)) => {
                    !matches!(r.gpr, Gpr::Esp | Gpr::Ebp) && insn.src_value.is_some()
                }
                Value::Place(Place::Mem(_)) => false,
            };
            if !plausible_key {
                return NO_CANDIDATE;
            }
            addr_candidates(m).map(|g| {
                let b = bindings.bind_reg(*addr, g?)?;
                check_src(src, s, insn.src_value, b)
            })
        }
        (
            PatOp::LoadFrom { dst, addr },
            SemOp::Mov {
                dst: Place::Reg(r),
                src: Value::Place(Place::Mem(m)),
            },
        ) => addr_candidates(m).map(|g| bindings.bind_reg(*dst, r.gpr)?.bind_reg(*addr, g?)),
        (
            PatOp::StoreTo { addr, src },
            SemOp::Mov {
                dst: Place::Mem(m),
                src: Value::Place(Place::Reg(r)),
            },
        ) => addr_candidates(m).map(|g| bindings.bind_reg(*src, r.gpr)?.bind_reg(*addr, g?)),
        (PatOp::XformMany { ops, dst }, _) => {
            let reg = match &insn.op {
                SemOp::Bin {
                    op,
                    dst: Place::Reg(r),
                    ..
                } if ops.contains(&XformOp::Bin(*op)) => Some(r.gpr),
                SemOp::Un {
                    op: UnKind::Not,
                    dst: Place::Reg(r),
                } if ops.contains(&XformOp::Not) => Some(r.gpr),
                SemOp::Un {
                    op: UnKind::Neg,
                    dst: Place::Reg(r),
                } if ops.contains(&XformOp::Neg) => Some(r.gpr),
                _ => None,
            };
            one(reg.and_then(|g| bindings.bind_reg(*dst, g)))
        }
        // Canonical advance: Add with a small positive folded constant.
        // Real decoders step by their element size (1–16 bytes); wider
        // strides are pointer arithmetic of some other kind, and admitting
        // them makes random data match far too easily.
        (
            PatOp::Advance { addr },
            SemOp::Bin {
                op: BinKind::Add,
                dst: Place::Reg(r),
                src: _,
            },
        ) => one(insn
            .src_value
            .filter(|v| (1..=16).contains(&(v & r.width.mask())))
            .and_then(|_| bindings.bind_reg(*addr, r.gpr))),
        (PatOp::LoopBack, op) => {
            // Decoder loops close on a counter condition: LOOP itself, or
            // the jnz/je/jb/jae family after a dec/cmp. Parity, sign and
            // signed-order conditions never terminate byte-count loops and
            // admitting them lets random data qualify.
            use snids_x86::Cond;
            let target = match op {
                SemOp::LoopOp(Target::Off(t))
                | SemOp::Jcc(Cond::Ne | Cond::E | Cond::B | Cond::Ae, Target::Off(t)) => {
                    usize::try_from(*t).ok()
                }
                _ => None,
            };
            // The back-edge must close over the matched body (target at or
            // before the first matched op), and the loop body must be
            // compact — decoder loops are a handful of instructions even
            // with junk padding, so a bound of 32 trace ops keeps
            // accidental far back-branches in random data from qualifying.
            let closes = target
                .and_then(|t| ctx.trace.index_of(t))
                .is_some_and(|idx| {
                    idx <= first_idx
                        && op_idx - idx <= 32
                        && counter_consistent(ctx, op, op_idx, idx, &bindings)
                });
            one(closes.then_some(bindings))
        }
        (PatOp::SrcConstIn(vals), _) => one(insn
            .src_value
            .filter(|v| vals.contains(v))
            .map(|_| bindings)),
        (PatOp::Syscall { vector, eax, ebx }, SemOp::Int(n)) if n == vector => {
            let eax_ok = eax.is_none_or(|want| insn.src_value == Some(want));
            let ebx_ok = ebx.is_none_or(|want| insn.aux_value == Some(want));
            one((eax_ok && ebx_ok).then_some(bindings))
        }
        (PatOp::AddrInRange { lo, hi }, op) if references_addr_in(op, insn.src_value, *lo, *hi) => {
            one(Some(bindings))
        }
        _ => NO_CANDIDATE,
    }
}

/// A loop must have a *counter* that is independent of the decoder's data
/// registers, or it cannot terminate correctly:
///
/// * `LOOP` counts in ECX, so ECX may not be bound to any template variable
///   (a decoder whose pointer or key lives in ECX would be destroyed by its
///   own loop instruction);
/// * a `Jcc` loop tests the flags of the most recent arithmetic — when that
///   arithmetic is a register dec/inc (the `dec counter; jnz` idiom), the
///   counter register must likewise be unbound. (`xor [X],k; inc X; jnz`
///   is not a decoder; it is a wild pointer walk.)
///
/// Random data fails these checks almost always; real decoders never do.
fn counter_consistent(
    ctx: &Ctx<'_>,
    op: &SemOp,
    op_idx: usize,
    target_idx: usize,
    bindings: &Bindings,
) -> bool {
    let bound = bindings.bound_set();
    match op {
        SemOp::LoopOp(_) => !bound.contains(snids_x86::Location::Gpr(Gpr::Ecx)),
        SemOp::Jcc(_, _) => {
            // Find the nearest flag-writing op before the branch, within
            // the loop body. A terminating decoder loop drives its
            // condition in exactly one of two ways:
            //   * `dec counter; jnz` — arithmetic on a FREE register, or
            //   * `cmp ptr, end; jb` — a comparison involving a BOUND
            //     register (the walked pointer against its end bound).
            // Anything else (memory arithmetic, comparisons of unrelated
            // registers, conditions set outside the body) does not
            // terminate a byte-wise decode and is rejected.
            for i in (target_idx..op_idx).rev() {
                let prev = &ctx.trace.ops[i];
                if !prev.writes.contains(snids_x86::Location::Flags) {
                    continue;
                }
                return match &prev.op {
                    SemOp::Bin {
                        op: BinKind::Add,
                        dst: Place::Reg(r),
                        ..
                    } => {
                        // a counter step: ±1..16 at the register's width
                        let small_step = prev.src_value.map(|v| {
                            let m = r.width.mask();
                            let v = v & m;
                            (1..=16).contains(&v) || v >= m - 15
                        });
                        small_step == Some(true) && !bound.contains(snids_x86::Location::Gpr(r.gpr))
                    }
                    SemOp::Cmp { a, b } => {
                        let touches = |v: &Value| match v {
                            Value::Place(Place::Reg(r)) => {
                                bound.contains(snids_x86::Location::Gpr(r.gpr))
                            }
                            _ => false,
                        };
                        touches(a) || touches(b)
                    }
                    _ => false,
                };
            }
            // No flag-setter in the body: condition comes from outside the
            // loop, which no terminating decoder does.
            false
        }
        _ => true,
    }
}

/// Does this op reference an absolute constant in `[lo, hi]` — as an
/// immediate operand or memory displacement?
///
/// Folded register values deliberately do NOT count: a register holding an
/// in-window value is one materialization flowing through the code, not an
/// independent reference, and counting it would double-count `mov r, gate;
/// push r` sequences in arbitrary data.
fn references_addr_in(op: &SemOp, _folded: Option<u32>, lo: u32, hi: u32) -> bool {
    let in_range = |v: u32| v >= lo && v <= hi;
    let mem_hit = |m: &MemRef| in_range(m.disp as u32);
    let val_hit = |v: &Value| match v {
        Value::Imm(i) => in_range(*i),
        Value::Place(Place::Mem(m)) => mem_hit(m),
        _ => false,
    };
    let place_hit = |p: &Place| match p {
        Place::Mem(m) => mem_hit(m),
        _ => false,
    };
    match op {
        SemOp::Bin { dst, src, .. } => place_hit(dst) || val_hit(src),
        SemOp::Mov { dst, src } => place_hit(dst) || val_hit(src),
        SemOp::Un { dst, .. } => place_hit(dst),
        SemOp::Lea { addr, .. } => mem_hit(addr),
        SemOp::Push(v) => val_hit(v),
        SemOp::Pop(p) => place_hit(p),
        SemOp::Cmp { a, b } => val_hit(a) || val_hit(b),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates;
    use snids_ir::trace_from;

    fn builtin(name: &str) -> Template {
        templates::builtin(name).unwrap()
    }

    fn matches(tmpl: &Template, code: &[u8]) -> bool {
        let trace = trace_from(code, 0, 4096);
        let mut budget = DEFAULT_BUDGET;
        match_template(&trace, tmpl, &mut budget).is_some()
    }

    /// Figure 1(a): the plain xor decoder.
    #[test]
    fn matches_figure_1a() {
        let code = [0x80, 0x30, 0x95, 0x40, 0xe2, 0xfa];
        assert!(matches(&builtin("xor-decrypt-loop"), &code));
    }

    /// Figure 1(b): key built by mov+add, inc replaced by add.
    #[test]
    fn matches_figure_1b() {
        let code = [
            0xbb, 0x31, 0, 0, 0, // mov ebx, 0x31
            0x83, 0xc3, 0x64, // add ebx, 0x64
            0x30, 0x18, // xor [eax], bl
            0x83, 0xc0, 0x01, // add eax, 1
            0xe2, 0xf1, // loop 0
        ];
        assert!(matches(&builtin("xor-decrypt-loop"), &code));
    }

    /// Figure 1(c): out-of-order with jmps and garbage instructions.
    #[test]
    fn matches_figure_1c() {
        let mut b: Vec<u8> = Vec::new();
        b.extend_from_slice(&[0xb9, 0, 0, 0, 0]); // mov ecx, 0 (garbage-ish)
        b.extend_from_slice(&[0x41, 0x41]); // inc ecx; inc ecx
        b.extend_from_slice(&[0xeb, 0x05]); // jmp one
        b.extend_from_slice(&[0x83, 0xc0, 0x01]); // two: add eax, 1
        b.extend_from_slice(&[0xeb, 0x0c]); // jmp three
        b.extend_from_slice(&[0xbb, 0x31, 0, 0, 0]); // one: mov ebx, 31h
        b.extend_from_slice(&[0x83, 0xc3, 0x64]); // add ebx, 64h
        b.extend_from_slice(&[0x30, 0x18]); // xor [eax], bl
        b.extend_from_slice(&[0xeb, 0xef]); // jmp two
        b.extend_from_slice(&[0xe2, 0xe4]); // three: loop decode
        assert!(matches(&builtin("xor-decrypt-loop"), &b));
    }

    /// Register reassignment: the decoder on EDX/ESI instead of EAX/EBX.
    #[test]
    fn register_reassignment_is_free() {
        let code = [
            0x80, 0x32, 0x7a, // xor byte [edx], 0x7a
            0x42, // inc edx
            0xe2, 0xfa, // loop
        ];
        assert!(matches(&builtin("xor-decrypt-loop"), &code));
        let code = [
            0x80, 0x36, 0x7a, // xor byte [esi], 0x7a
            0x83, 0xc6, 0x04, // add esi, 4
            0xe2, 0xf8,
        ];
        assert!(matches(&builtin("xor-decrypt-loop"), &code));
    }

    /// NOP and junk insertion between the template steps.
    #[test]
    fn junk_insertion_is_skipped() {
        let code = [
            0x80, 0x30, 0x95, // xor [eax], 0x95
            0x90, 0x90, // nops
            0xbb, 0x11, 0x22, 0x33, 0x44, // mov ebx, junk (unbound reg)
            0x4a, // dec edx (junk)
            0x40, // inc eax  <- advance
            0xf8, // clc (junk)
            0xe2, 0xf1, // loop
        ];
        assert!(matches(&builtin("xor-decrypt-loop"), &code));
    }

    /// Junk that CLOBBERS the bound pointer register must break the match —
    /// def-use preservation (such "junk" would break the decoder too).
    #[test]
    fn clobbering_junk_breaks_match() {
        let code = [
            0x80, 0x30, 0x95, // xor [eax], 0x95
            0xb8, 0x11, 0x22, 0x33, 0x44, // mov eax, imm — clobbers pointer!
            0x40, // inc eax
            0xe2, 0xf5, // loop
        ];
        assert!(!matches(&builtin("xor-decrypt-loop"), &code));
    }

    /// The advance may come through LEA or SUB of a negative constant.
    #[test]
    fn canonicalized_advances_match() {
        // lea eax, [eax+1]
        let code = [0x80, 0x30, 0x95, 0x8d, 0x40, 0x01, 0xe2, 0xf8];
        assert!(matches(&builtin("xor-decrypt-loop"), &code));
        // sub eax, -1
        let code = [0x80, 0x30, 0x95, 0x83, 0xe8, 0xff, 0xe2, 0xf8];
        assert!(matches(&builtin("xor-decrypt-loop"), &code));
    }

    /// A dec/jnz loop instead of LOOP.
    #[test]
    fn dec_jnz_loop_matches() {
        let code = [
            0x80, 0x30, 0x95, // xor [eax], 0x95
            0x40, // inc eax
            0x49, // dec ecx
            0x75, 0xf9, // jnz -7 -> 0
        ];
        assert!(matches(&builtin("xor-decrypt-loop"), &code));
    }

    /// The alternate (Figure 7) decoder: load, or/and/not transforms, store.
    #[test]
    fn alt_decoder_matches() {
        let code = [
            0x8a, 0x1e, // mov bl, [esi]
            0x80, 0xcb, 0xa0, // or bl, 0xa0
            0x80, 0xe3, 0xcf, // and bl, 0xcf
            0xf6, 0xd3, // not bl
            0x88, 0x1e, // mov [esi], bl
            0x46, // inc esi
            0xe2, 0xf1, // loop
        ];
        assert!(matches(&builtin("admmutate-alt-decoder"), &code));
        // Single transform also matches.
        let code = [0x8a, 0x1e, 0x80, 0xf3, 0x55, 0x88, 0x1e, 0x46, 0xe2, 0xf6];
        assert!(matches(&builtin("admmutate-alt-decoder"), &code));
    }

    /// The alternate decoder does NOT match the plain-xor template and
    /// vice versa (they are distinct behaviours, as in Table 2).
    #[test]
    fn decoder_families_are_distinct() {
        let alt = [
            0x8a, 0x1e, 0x80, 0xcb, 0xa0, 0xf6, 0xd3, 0x88, 0x1e, 0x46, 0xe2, 0xf4,
        ];
        assert!(!matches(&builtin("xor-decrypt-loop"), &alt));
        let plain = [0x80, 0x30, 0x95, 0x40, 0xe2, 0xfa];
        assert!(!matches(&builtin("admmutate-alt-decoder"), &plain));
    }

    /// Benign loops must not match: a memcpy-style loop writes memory but
    /// the write is a MOV, not a transform.
    #[test]
    fn benign_copy_loop_is_clean() {
        let code = [
            0x8a, 0x1e, // mov bl, [esi]
            0x88, 0x1f, // mov [edi], bl
            0x46, // inc esi
            0x47, // inc edi
            0xe2, 0xf8, // loop
        ];
        assert!(!matches(&builtin("xor-decrypt-loop"), &code));
        assert!(!matches(&builtin("admmutate-alt-decoder"), &code));
    }

    /// A zeroing loop (stosb-style init) must not match: no load precedes
    /// the store and the store is not a transform.
    #[test]
    fn zeroing_loop_is_clean() {
        let code = [
            0xc6, 0x00, 0x00, // mov byte [eax], 0
            0x40, // inc eax
            0xe2, 0xfa, // loop
        ];
        assert!(!matches(&builtin("xor-decrypt-loop"), &code));
        assert!(!matches(&builtin("admmutate-alt-decoder"), &code));
    }

    /// Shell-spawning: the classic inert execve("/bin//sh") body.
    #[test]
    fn shell_spawn_matches() {
        let code = [
            0x31, 0xc0, // xor eax, eax
            0x50, // push eax
            0x68, 0x2f, 0x2f, 0x73, 0x68, // push "//sh"
            0x68, 0x2f, 0x62, 0x69, 0x6e, // push "/bin"
            0x89, 0xe3, // mov ebx, esp
            0x50, // push eax
            0x53, // push ebx
            0x89, 0xe1, // mov ecx, esp
            0x31, 0xd2, // xor edx, edx
            0xb0, 0x0b, // mov al, 0x0b
            0xcd, 0x80, // int 0x80
        ];
        assert!(matches(&builtin("linux-shell-spawn"), &code));
    }

    /// Shell-spawn with the syscall number built arithmetically
    /// (push/pop + add) still matches — contribution (c).
    #[test]
    fn shell_spawn_with_math_chain_matches() {
        let code = [
            0x68, 0x2f, 0x2f, 0x73, 0x68, // push "//sh"
            0x68, 0x2f, 0x62, 0x69, 0x6e, // push "/bin"
            0x89, 0xe3, // mov ebx, esp
            0x6a, 0x05, // push 5
            0x58, // pop eax  (eax = 5)
            0x83, 0xc0, 0x06, // add eax, 6 (eax = 0xb)
            0xcd, 0x80, // int 0x80
        ];
        assert!(matches(&builtin("linux-shell-spawn"), &code));
    }

    /// An int 0x80 with a different syscall number must not match execve.
    #[test]
    fn wrong_syscall_number_rejected() {
        let code = [
            0x68, 0x2f, 0x2f, 0x73, 0x68, 0x68, 0x2f, 0x62, 0x69, 0x6e, //
            0xb8, 0x04, 0, 0, 0, // mov eax, 4 (write)
            0xcd, 0x80,
        ];
        assert!(!matches(&builtin("linux-shell-spawn"), &code));
    }

    /// Budget exhaustion returns cleanly.
    #[test]
    fn budget_bounds_work() {
        let code = [0x80, 0x30, 0x95, 0x40, 0xe2, 0xfa];
        let trace = trace_from(&code, 0, 4096);
        let mut tiny = 1usize;
        // With a one-step budget the search gives up without panicking.
        let _ = match_template(&trace, &builtin("xor-decrypt-loop"), &mut tiny);
    }

    /// Matched offsets are reported in order and within the buffer.
    #[test]
    fn match_info_offsets() {
        let code = [0x80, 0x30, 0x95, 0x40, 0xe2, 0xfa];
        let trace = trace_from(&code, 0, 4096);
        let mut budget = DEFAULT_BUDGET;
        let m = match_template(&trace, &builtin("xor-decrypt-loop"), &mut budget).unwrap();
        assert_eq!(m.start_offset(&trace), 0);
        assert_eq!(m.end_offset(&trace), 6);
        assert_eq!(m.matched.len(), 3);
        // The pointer variable bound to EAX.
        assert_eq!(m.bindings.regs[0], Some(Gpr::Eax));
    }
}
