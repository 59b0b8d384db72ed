//! Slice-based template matching over dataflow summaries.
//!
//! The instruction-run matcher ([`crate::matcher`]) needs every template
//! step decodable in one trace: store, advance, loop back-edge. A desync
//! fault that garbles part of a frame routinely destroys one of those steps
//! (most often the loop close, which sits last) while the surviving prefix
//! still carries the decoder's *dataflow*. This module matches that
//! surviving slice instead: decoder templates are compiled into
//! [`SliceRule`] predicates over a [`snids_ir::Dataflow`] summary, and a
//! frame matches when the def-use evidence for a decoder is present even
//! though the instruction run is broken.
//!
//! A slice match demands four *independent* pieces of evidence, all tied
//! together by def-use chains — this conjunction is what keeps the
//! false-positive rate at zero on benign and random payloads:
//!
//! 1. **a transform store** through a pointer register `X` with a
//!    statically-known key (`xor [X], k` with `k` folded by the constant
//!    evaluator — the same plausibility bar the run matcher applies);
//! 2. **pointer evidence**: at the store, `X` provably holds a buffer-sized
//!    constant address, or is loop-carried, or was produced by a `pop`
//!    (the `call/pop` GetPC idiom);
//! 3. **an advance** of the same `X` (`X ← X + c`, small `c`), def-use
//!    linked to the store (no intervening redefinition of `X`);
//! 4. **a counter**: some other register provably holding a small count at
//!    the store, materialized by a `mov imm` or `push/pop` — the loop trip
//!    count a decoder cannot run without.
//!
//! Templates that are not decoder-shaped (syscall dispatch, address-window
//! observations) do not compile to slice rules: their partial evidence is
//! too weak to report on.

use crate::analyzer::TemplateMatch;
use crate::pattern::{PatOp, Template, XformOp};
use snids_ir::dataflow::{AbsVal, Dataflow, MemWrite};
use snids_ir::{BinKind, Place, SemOp, Trace, UnKind, Value};
use snids_x86::Gpr;

/// A decoder template compiled to a dataflow predicate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SliceRule {
    /// One-instruction decoder body: an in-place transform store
    /// (`xor [X], key`) plus advance plus counter.
    StoreXform {
        /// Admitted store operators (the template's `StoreXform` set).
        ops: Vec<BinKind>,
    },
    /// Load/transform/store decoder body: `R ← [X]; xform R; [X] ← R`,
    /// recovered by walking the stored register's def chain back through
    /// the transforms to the load.
    LoadXformStore {
        /// Admitted transform operators (the template's `XformMany` set).
        ops: Vec<XformOp>,
    },
}

/// Compile a template into a slice rule, if it is decoder-shaped (has a
/// transform store or load/transform/store body closed by an advance and a
/// loop). Returns `None` for behaviour templates whose partial evidence is
/// not worth reporting.
pub fn compile_slice(tmpl: &Template) -> Option<SliceRule> {
    let mut store_ops: Option<Vec<BinKind>> = None;
    let mut xform_ops: Option<Vec<XformOp>> = None;
    let mut has_load = false;
    let mut has_store_to = false;
    let mut has_advance = false;
    let mut has_loop = false;
    for op in &tmpl.ops {
        match op {
            PatOp::StoreXform { ops, .. } => store_ops = Some(ops.clone()),
            PatOp::XformMany { ops, .. } => xform_ops = Some(ops.clone()),
            PatOp::LoadFrom { .. } => has_load = true,
            PatOp::StoreTo { .. } => has_store_to = true,
            PatOp::Advance { .. } => has_advance = true,
            PatOp::LoopBack => has_loop = true,
            _ => {}
        }
    }
    if !(has_advance && has_loop) {
        return None;
    }
    if let Some(ops) = store_ops {
        return Some(SliceRule::StoreXform { ops });
    }
    if has_load && has_store_to {
        if let Some(ops) = xform_ops {
            return Some(SliceRule::LoadXformStore { ops });
        }
    }
    None
}

/// Smallest constant accepted as pointer evidence: real decode pointers
/// address payload buffers (stack, heap, GetPC-relative), never the first
/// 64 KiB, while benign arithmetic on small constants is everywhere.
const MIN_PTR_CONST: u32 = 0x0001_0000;

/// Counter bounds: a decoder's trip count covers its payload (a few bytes
/// up to a few KiB). Zero/one-trip "loops" and giant counts are noise.
const COUNTER_RANGE: std::ops::RangeInclusive<u32> = 2..=0x1_0000;

/// Maximum def-chain steps walked when recovering the load/transform/store
/// pipeline (ADMmutate emits at most a handful of transforms).
const MAX_CHAIN: usize = 8;

/// Match a compiled slice rule against one trace's dataflow summary.
/// Returns the strongest (earliest-store) match, if any.
pub fn match_slice(
    tmpl: &Template,
    rule: &SliceRule,
    trace: &Trace,
    df: &Dataflow,
) -> Option<TemplateMatch> {
    for mw in &df.mem_writes {
        let candidate = match rule {
            SliceRule::StoreXform { ops } => match_store_xform(ops, mw, trace, df),
            SliceRule::LoadXformStore { ops } => match_load_xform_store(ops, mw, trace, df),
        };
        if let Some((evidence, ptr_reg, val_reg, key)) = candidate {
            return Some(build_match(tmpl, trace, &evidence, ptr_reg, val_reg, key));
        }
    }
    None
}

/// Evidence for a one-instruction transform-store decoder body.
type Evidence = (Vec<usize>, Gpr, Option<Gpr>, Option<u32>);

fn match_store_xform(
    ops: &[BinKind],
    mw: &MemWrite,
    trace: &Trace,
    df: &Dataflow,
) -> Option<Evidence> {
    let op = mw.xform?;
    if !ops.contains(&op) {
        return None;
    }
    // The same key-plausibility bar the run matcher applies: an immediate,
    // or a materialized (statically-known) data register.
    let plausible_key = mw.key.is_some()
        && (mw.key_is_imm
            || mw
                .key_reg
                .is_some_and(|r| !matches!(r, Gpr::Esp | Gpr::Ebp)));
    if !plausible_key {
        return None;
    }
    for x in addr_regs(mw) {
        if let Some(ev) = corroborate(mw.idx, x, trace, df) {
            let mut evidence = vec![mw.idx];
            evidence.extend(ev);
            return Some((evidence, x, None, mw.key));
        }
    }
    None
}

fn match_load_xform_store(
    ops: &[XformOp],
    mw: &MemWrite,
    trace: &Trace,
    df: &Dataflow,
) -> Option<Evidence> {
    if mw.xform.is_some() {
        return None;
    }
    let r = mw.key_reg.filter(|r| !matches!(r, Gpr::Esp | Gpr::Ebp))?;
    // Walk R's def chain back through admitted transforms to the load.
    let mut at = mw.idx;
    let mut xforms = 0usize;
    let mut chain_idxs: Vec<usize> = Vec::new();
    let mut load_addr: Option<Vec<Gpr>> = None;
    for _ in 0..MAX_CHAIN {
        let d = df.def_at(at, r)?;
        match &trace.ops[d].op {
            SemOp::Bin {
                op,
                dst: Place::Reg(reg),
                ..
            } if reg.gpr == r && ops.contains(&XformOp::Bin(*op)) => {
                xforms += 1;
                chain_idxs.push(d);
                at = d;
            }
            SemOp::Un {
                op,
                dst: Place::Reg(reg),
            } if reg.gpr == r
                && ops.contains(match op {
                    UnKind::Not => &XformOp::Not,
                    UnKind::Neg => &XformOp::Neg,
                    UnKind::Bswap => return None,
                }) =>
            {
                xforms += 1;
                chain_idxs.push(d);
                at = d;
            }
            SemOp::Mov {
                dst: Place::Reg(reg),
                src: Value::Place(Place::Mem(m)),
            } if reg.gpr == r => {
                chain_idxs.push(d);
                load_addr = Some(mem_regs(m));
                break;
            }
            _ => return None,
        }
    }
    let load_addr = load_addr?;
    if xforms == 0 {
        return None;
    }
    // The store and the load must walk the same pointer.
    for x in addr_regs(mw) {
        if !load_addr.contains(&x) {
            continue;
        }
        if let Some(ev) = corroborate(mw.idx, x, trace, df) {
            let mut evidence = vec![mw.idx];
            evidence.extend(chain_idxs.iter().copied());
            evidence.extend(ev);
            return Some((evidence, x, Some(r), None));
        }
    }
    None
}

/// The shared corroboration bundle: pointer, advance and counter evidence
/// for address register `x` at store `store_idx`. Returns the evidence op
/// indices on success.
fn corroborate(store_idx: usize, x: Gpr, trace: &Trace, df: &Dataflow) -> Option<Vec<usize>> {
    let mut evidence = Vec::new();

    // Pointer evidence.
    let ptr_def = df.def_at(store_idx, x);
    let ptr_ok = match df.val_at(store_idx, x) {
        AbsVal::Const(a) => a >= MIN_PTR_CONST,
        AbsVal::LoopCarried => true,
        AbsVal::Unknown => {
            // GetPC: the pointer came off the stack.
            ptr_def.is_some_and(|d| matches!(trace.ops[d].op, SemOp::Pop(_)))
        }
    };
    if !ptr_ok {
        return None;
    }
    if let Some(d) = ptr_def {
        evidence.push(d);
    }

    // Advance evidence, def-use linked to the store.
    let adv = df.advances.iter().find(|a| {
        a.gpr == x
            && a.idx != store_idx
            && if a.idx > store_idx {
                // Nothing redefines X between the store and the advance.
                df.def_at(a.idx, x) == df.def_at(store_idx, x)
            } else {
                // The advance is the def the store reads.
                df.def_at(store_idx, x) == Some(a.idx)
            }
    })?;
    evidence.push(adv.idx);

    // Counter evidence: another register provably holding a small count,
    // materialized by mov-imm or push/pop.
    let counter = Gpr::ALL.into_iter().find_map(|c| {
        if c == x || matches!(c, Gpr::Esp | Gpr::Ebp) {
            return None;
        }
        let n = df.val_at(store_idx, c).constant()?;
        if !COUNTER_RANGE.contains(&n) {
            return None;
        }
        let d = df.def_at(store_idx, c)?;
        match &trace.ops[d].op {
            SemOp::Mov {
                dst: Place::Reg(_),
                src: Value::Imm(_),
            }
            | SemOp::Pop(Place::Reg(_)) => Some(d),
            _ => None,
        }
    })?;
    evidence.push(counter);

    Some(evidence)
}

/// Address-register candidates for a memory write, under the run matcher's
/// bar: small displacement, 32-bit base/index, and never the stack frame
/// registers (a decoder does not walk its payload through ESP/EBP).
fn addr_regs(mw: &MemWrite) -> Vec<Gpr> {
    if mw.disp.unsigned_abs() > 127 {
        return Vec::new();
    }
    let mut v = Vec::with_capacity(2);
    for g in [mw.base, mw.index].into_iter().flatten() {
        if !matches!(g, Gpr::Esp | Gpr::Ebp) && !v.contains(&g) {
            v.push(g);
        }
    }
    v
}

/// The 32-bit address registers of a memory operand (for the load side of
/// the alternate decoder).
fn mem_regs(m: &snids_x86::MemRef) -> Vec<Gpr> {
    if m.disp.unsigned_abs() > 127 {
        return Vec::new();
    }
    let is32 = |r: &snids_x86::Reg| r.width == snids_x86::Width::D;
    let mut v = Vec::with_capacity(2);
    if let Some(b) = m.base.filter(is32) {
        v.push(b.gpr);
    }
    if let Some(i) = m.index.map(|(r, _)| r).filter(is32) {
        if !v.contains(&i.gpr) {
            v.push(i.gpr);
        }
    }
    v
}

fn build_match(
    tmpl: &Template,
    trace: &Trace,
    evidence: &[usize],
    ptr_reg: Gpr,
    val_reg: Option<Gpr>,
    key: Option<u32>,
) -> TemplateMatch {
    let first = evidence.iter().copied().min().unwrap_or(0);
    let last = evidence.iter().copied().max().unwrap_or(0);
    let start = trace.ops.get(first).map_or(0, |o| o.offset);
    let end = trace
        .ops
        .get(last)
        .map_or(start, |o| o.offset + usize::from(o.raw_len));
    let mut bound_regs = vec![(0u8, snids_x86::Reg::r32(ptr_reg).to_string())];
    if let Some(r) = val_reg {
        bound_regs.push((1, snids_x86::Reg::r32(r).to_string()));
    }
    TemplateMatch {
        template: tmpl.name,
        severity: tmpl.severity,
        start,
        end,
        trace_start: trace.start,
        bound_regs,
        consts: key.map(|k| (0u8, k)).into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates;
    use snids_ir::dataflow::{analyze, DataflowBudget};
    use snids_ir::trace_from;

    fn builtin(name: &str) -> Template {
        templates::builtin(name).unwrap()
    }

    fn slice_match(tmpl: &Template, code: &[u8]) -> Option<TemplateMatch> {
        let rule = compile_slice(tmpl)?;
        let trace = trace_from(code, 0, 4096);
        let df = analyze(&trace, &DataflowBudget::default());
        match_slice(tmpl, &rule, &trace, &df)
    }

    /// A decoder head whose loop close was destroyed by garbage: pointer
    /// setup, counter setup, transform store, advance — then junk. The run
    /// matcher cannot close the template (no back-edge), but the slice
    /// matcher recovers it.
    #[test]
    fn recovers_decoder_with_broken_loop_close() {
        let code = [
            0xbe, 0x00, 0xe0, 0xff, 0xbf, // mov esi, 0xbfffe000
            0xb9, 0x40, 0x00, 0x00, 0x00, // mov ecx, 0x40
            0x80, 0x36, 0x7a, // xor byte [esi], 0x7a
            0x46, // inc esi
            0x0f, 0xff, // bad bytes where the loop used to be
        ];
        let m = slice_match(&builtin("xor-decrypt-loop"), &code).expect("slice must recover");
        assert_eq!(m.template, "xor-decrypt-loop");
        assert_eq!(m.bound_regs[0], (0, "esi".to_string()));
        assert_eq!(m.consts, vec![(0, 0x7a)]);
        assert!(m.start < m.end);
    }

    /// GetPC-style pointer (call/pop) with a push/pop counter also carries
    /// enough dataflow.
    #[test]
    fn recovers_getpc_decoder_head() {
        let code = [
            0xe8, 0x00, 0x00, 0x00, 0x00, // call +0 (GetPC)
            0x5e, // pop esi
            0x6a, 0x30, // push 0x30
            0x59, // pop ecx
            0x80, 0x36, 0x55, // xor byte [esi], 0x55
            0x46, // inc esi
        ];
        assert!(slice_match(&builtin("xor-decrypt-loop"), &code).is_some());
    }

    /// The alternate load/transform/store body with its loop close gone.
    #[test]
    fn recovers_alt_decoder_slice() {
        let code = [
            0xbe, 0x00, 0xd0, 0xff, 0xbf, // mov esi, 0xbfffd000
            0xb9, 0x20, 0x00, 0x00, 0x00, // mov ecx, 0x20
            0x8a, 0x1e, // mov bl, [esi]
            0x80, 0xf3, 0x55, // xor bl, 0x55
            0x88, 0x1e, // mov [esi], bl
            0x46, // inc esi
        ];
        let m = slice_match(&builtin("admmutate-alt-decoder"), &code).expect("alt slice");
        assert_eq!(m.bound_regs.len(), 2);
        assert_eq!(m.bound_regs[1], (1, "ebx".to_string()));
    }

    /// Without counter evidence the slice must NOT match — a bare
    /// store+advance pair appears in benign pointer code.
    #[test]
    fn no_counter_no_match() {
        let code = [
            0xbe, 0x00, 0xe0, 0xff, 0xbf, // mov esi, 0xbfffe000
            0x80, 0x36, 0x7a, // xor byte [esi], 0x7a
            0x46, // inc esi
        ];
        assert!(slice_match(&builtin("xor-decrypt-loop"), &code).is_none());
    }

    /// An unknown, never-materialized pointer is rejected.
    #[test]
    fn no_pointer_evidence_no_match() {
        let code = [
            0xb9, 0x40, 0x00, 0x00, 0x00, // mov ecx, 0x40
            0x80, 0x36, 0x7a, // xor byte [esi], 0x7a  (esi from nowhere)
            0x46, // inc esi
        ];
        assert!(slice_match(&builtin("xor-decrypt-loop"), &code).is_none());
    }

    /// Benign payloads stay silent through the slice path.
    #[test]
    fn benign_data_is_silent() {
        let rules: Vec<(Template, SliceRule)> = templates::default_templates()
            .into_iter()
            .filter_map(|t| compile_slice(&t).map(|r| (t, r)))
            .collect();
        assert!(!rules.is_empty());
        let corpora: [&[u8]; 3] = [
            b"GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n",
            &[0u8; 512],
            b"The quick brown fox jumps over the lazy dog 0123456789",
        ];
        for frame in corpora {
            let trace = trace_from(frame, 0, 4096);
            let df = analyze(&trace, &DataflowBudget::default());
            for (t, r) in &rules {
                assert!(
                    match_slice(t, r, &trace, &df).is_none(),
                    "false positive on benign data for {}",
                    t.name
                );
            }
        }
    }

    /// Only decoder-shaped templates compile to slice rules.
    #[test]
    fn behaviour_templates_do_not_compile() {
        assert!(compile_slice(&builtin("linux-shell-spawn")).is_none());
        assert!(compile_slice(&builtin("bind-shell")).is_none());
        assert!(compile_slice(&builtin("code-red-ii")).is_none());
        assert!(compile_slice(&builtin("xor-decrypt-loop")).is_some());
        assert!(compile_slice(&builtin("admmutate-alt-decoder")).is_some());
        assert!(compile_slice(&builtin("admmutate-alt-decoder/advance-first")).is_some());
    }
}
