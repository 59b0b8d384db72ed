//! Dataflow static analysis over execution-order IR traces.
//!
//! The instruction-run matcher (`snids-semantic`'s unification engine)
//! needs every template step present and decodable. When a desync fault or
//! overlap garbage corrupts part of a frame, the *instructions* break but
//! the surviving prefix often still carries the decoder's *dataflow*: a
//! pointer register materialized to a writable address, a counter register
//! holding the payload length, a key register holding a folded constant,
//! and a store that transforms memory through that pointer. This module
//! recovers exactly those facts as reusable analysis results:
//!
//! * **register-state abstract interpretation** — a three-point lattice
//!   ([`AbsVal`]: `Const` / `Unknown` / `LoopCarried`) over the 8 GP
//!   registers, driven by the same constant evaluator the annotator uses,
//!   snapshotted *before every op* so a consumer can ask "what did ESI hold
//!   when this store executed?";
//! * **def-use chains** — for every register read, the trace index of the
//!   op that produced the value ([`DefUseLink`]), plus per-op reaching-def
//!   tables for chain walking ([`Dataflow::def_at`]);
//! * **loop detection** — back-edges in the execution-order trace
//!   ([`LoopSpan`]), with the set of registers written inside the span
//!   (the loop-carried candidates);
//! * **memory-write summaries** — every store, classified as a transform
//!   (`xor [ptr], key`) or plain move, with its address registers and
//!   folded key ([`MemWrite`]).
//!
//! All work is bounded by a [`DataflowBudget`] (mirroring
//! [`snids_x86::SweepBudget`]): a hostile frame cannot buy unbounded
//! analysis, and the caller learns via [`Dataflow::exhausted`] when results
//! are partial so the pipeline can account the frame instead of silently
//! under-reporting.

use crate::eval::Evaluator;
use crate::op::{BinKind, IrInsn, Place, SemOp, Target};
use crate::trace::Trace;
use snids_x86::{Gpr, Location, Reg};

/// Abstract value of one register at one program point.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum AbsVal {
    /// Nothing is known about the register.
    #[default]
    Unknown,
    /// The register provably holds this 32-bit constant.
    Const(u32),
    /// The register is rewritten inside a detected loop body and its value
    /// differs per iteration (an advanced pointer, a running key).
    LoopCarried,
}

impl AbsVal {
    /// The constant, if this value is one.
    pub fn constant(self) -> Option<u32> {
        match self {
            AbsVal::Const(v) => Some(v),
            _ => None,
        }
    }
}

/// One def-use edge: op `use_at` reads register `gpr` whose reaching
/// definition is op `def` (`None` = live-in, defined before the trace).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DefUseLink {
    /// Trace index of the defining op, if any op in the trace defines it.
    pub def: Option<usize>,
    /// Trace index of the reading op.
    pub use_at: usize,
    /// The register file carried along the edge.
    pub gpr: Gpr,
}

/// A detected loop: a back-edge from `back` to `head` (`head <= back`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopSpan {
    /// Trace index of the back-edge target (loop head).
    pub head: usize,
    /// Trace index of the back-edge branch itself.
    pub back: usize,
    /// Bitmask (by [`Gpr::index`]) of registers written inside the span —
    /// the loop-carried candidates.
    pub written: u8,
}

impl LoopSpan {
    /// Does the span contain trace index `idx`?
    pub fn contains(&self, idx: usize) -> bool {
        self.head <= idx && idx <= self.back
    }

    /// Is `gpr` written inside the span?
    pub fn writes(&self, gpr: Gpr) -> bool {
        self.written & (1 << gpr.index()) != 0
    }
}

/// Summary of one memory write in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemWrite {
    /// Trace index of the writing op.
    pub idx: usize,
    /// Base register of the address expression, when 32-bit.
    pub base: Option<Gpr>,
    /// Index register of the address expression, when 32-bit.
    pub index: Option<Gpr>,
    /// Signed displacement of the address expression.
    pub disp: i32,
    /// The transform operator for read-modify-write stores
    /// (`xor [p], k` ⇒ `Some(Xor)`); `None` for plain `mov` stores.
    pub xform: Option<BinKind>,
    /// Folded value of the stored/combined source operand, when known.
    pub key: Option<u32>,
    /// True when the source operand is an immediate (vs a register).
    pub key_is_imm: bool,
    /// The source register, when the stored/combined operand reads one.
    pub key_reg: Option<Gpr>,
}

/// A canonical pointer advance: `reg ← reg + step` with a small positive
/// step (`inc`, `add`, `sub -c` and `lea r,[r+c]` all canonicalize here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Advance {
    /// Trace index of the advancing op.
    pub idx: usize,
    /// The advanced register.
    pub gpr: Gpr,
    /// The step, masked to the written width (1..=16).
    pub step: u32,
}

/// Work bound for one dataflow pass, mirroring [`snids_x86::SweepBudget`]:
/// the pass stops cleanly at the cap and reports exhaustion instead of
/// letting adversarial input buy unbounded analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataflowBudget {
    /// Maximum trace ops examined.
    pub max_ops: usize,
    /// Maximum def-use links recorded.
    pub max_links: usize,
}

impl Default for DataflowBudget {
    fn default() -> Self {
        // Generous for shellcode-sized frames (a trace is already capped at
        // MAX_TRACE_OPS = 4096 ops) while bounding a worst-case flood.
        DataflowBudget {
            max_ops: 4096,
            max_links: 32_768,
        }
    }
}

/// Sentinel for "no reaching definition" in the packed def tables.
const NO_DEF: u32 = u32::MAX;

/// The result of one dataflow pass over a trace's ops.
#[derive(Debug, Clone, Default)]
pub struct Dataflow {
    /// Per-op reaching-definition table: `defs[idx][gpr]` is the trace
    /// index of the op defining `gpr` *before* op `idx` executes.
    defs: Vec<[u32; 8]>,
    /// Per-op abstract register state *before* the op executes.
    vals: Vec<[AbsVal; 8]>,
    /// Every register-read def-use edge, in trace order.
    pub links: Vec<DefUseLink>,
    /// Detected loops, in back-edge order.
    pub loops: Vec<LoopSpan>,
    /// Every memory write, in trace order.
    pub mem_writes: Vec<MemWrite>,
    /// Every canonical pointer advance, in trace order.
    pub advances: Vec<Advance>,
    /// True when the budget expired with ops still unexamined: the tables
    /// above are prefixes and any "absent" fact may simply be unseen.
    pub exhausted: bool,
}

impl Dataflow {
    /// Number of ops the pass actually examined.
    pub fn analyzed_ops(&self) -> usize {
        self.defs.len()
    }

    /// Reaching definition of `gpr` at (i.e. just before) op `idx`.
    pub fn def_at(&self, idx: usize, gpr: Gpr) -> Option<usize> {
        let d = *self.defs.get(idx)?.get(gpr.index() as usize)?;
        (d != NO_DEF).then_some(d as usize)
    }

    /// Abstract value of `gpr` at (i.e. just before) op `idx`.
    pub fn val_at(&self, idx: usize, gpr: Gpr) -> AbsVal {
        self.vals
            .get(idx)
            .map_or(AbsVal::Unknown, |row| row[gpr.index() as usize])
    }

    /// Is op `idx` inside any detected loop span?
    pub fn in_loop(&self, idx: usize) -> bool {
        self.loops.iter().any(|l| l.contains(idx))
    }

    /// The innermost (shortest) loop span containing `idx`, if any.
    pub fn loop_around(&self, idx: usize) -> Option<&LoopSpan> {
        self.loops
            .iter()
            .filter(|l| l.contains(idx))
            .min_by_key(|l| l.back - l.head)
    }

    /// Walk the def chain of `gpr` backwards from op `idx`: the reaching
    /// def, then the def reaching *that* op's read of the same register,
    /// and so on. Bounded by `limit` steps; cycles cannot occur because
    /// defs strictly precede uses in the linear trace.
    pub fn def_chain(&self, idx: usize, gpr: Gpr, limit: usize) -> Vec<usize> {
        let mut chain = Vec::new();
        let mut at = idx;
        for _ in 0..limit {
            match self.def_at(at, gpr) {
                Some(d) => {
                    chain.push(d);
                    at = d;
                }
                None => break,
            }
        }
        chain
    }
}

/// Which register files does this op *define* (write a full or partial
/// value into)? Flags and memory writes are excluded — the lattice tracks
/// registers only.
fn written_gprs(insn: &IrInsn) -> u8 {
    let mut mask = 0u8;
    for loc in insn.writes.iter() {
        if let Location::Gpr(g) = loc {
            mask |= 1 << g.index();
        }
    }
    mask
}

/// Run the dataflow pass over an execution-order [`Trace`] (annotated by
/// the constant evaluator, as [`crate::FrameCode::trace_into`] leaves it).
/// Branch targets resolve through the trace's own offset index.
pub fn analyze(trace: &Trace, budget: &DataflowBudget) -> Dataflow {
    let ops = &trace.ops[..];
    let mut df = Dataflow::default();
    let n = ops.len().min(budget.max_ops);
    if n < ops.len() {
        df.exhausted = true;
    }
    df.defs.reserve(n);
    df.vals.reserve(n);

    // The evaluator replays the same constant propagation that annotated
    // the trace, giving us the full register state between ops (the
    // annotations alone only expose each op's source operand).
    let mut ev = Evaluator::new();
    let mut cur_def = [NO_DEF; 8];

    for (idx, insn) in ops.iter().take(n).enumerate() {
        // Snapshot state *before* the op.
        let mut val_row = [AbsVal::Unknown; 8];
        for g in Gpr::ALL {
            if let Some(v) = ev.state().get(Reg::r32(g)) {
                val_row[g.index() as usize] = AbsVal::Const(v);
            }
        }
        df.defs.push(cur_def);
        df.vals.push(val_row);

        // Def-use edges for every register this op reads.
        for loc in insn.reads.iter() {
            if let Location::Gpr(g) = loc {
                if df.links.len() >= budget.max_links {
                    df.exhausted = true;
                    break;
                }
                let d = cur_def[g.index() as usize];
                df.links.push(DefUseLink {
                    def: (d != NO_DEF).then_some(d as usize),
                    use_at: idx,
                    gpr: g,
                });
            }
        }

        // Summaries.
        match &insn.op {
            SemOp::Bin {
                op,
                dst: Place::Mem(m),
                src,
            } => {
                let is32 = |r: &Reg| r.width == snids_x86::Width::D;
                df.mem_writes.push(MemWrite {
                    idx,
                    base: m.base.filter(is32).map(|r| r.gpr),
                    index: m.index.map(|(r, _)| r).filter(is32).map(|r| r.gpr),
                    disp: m.disp,
                    xform: Some(*op),
                    key: insn.src_value,
                    key_is_imm: src.imm().is_some(),
                    key_reg: src.reg().map(|r| r.gpr),
                });
            }
            SemOp::Mov {
                dst: Place::Mem(m),
                src,
            } => {
                let is32 = |r: &Reg| r.width == snids_x86::Width::D;
                df.mem_writes.push(MemWrite {
                    idx,
                    base: m.base.filter(is32).map(|r| r.gpr),
                    index: m.index.map(|(r, _)| r).filter(is32).map(|r| r.gpr),
                    disp: m.disp,
                    xform: None,
                    key: insn.src_value,
                    key_is_imm: src.imm().is_some(),
                    key_reg: src.reg().map(|r| r.gpr),
                });
            }
            SemOp::Bin {
                op: BinKind::Add,
                dst: Place::Reg(r),
                ..
            } => {
                if let Some(v) = insn.src_value {
                    let step = v & r.width.mask();
                    if (1..=16).contains(&step) {
                        df.advances.push(Advance {
                            idx,
                            gpr: r.gpr,
                            step,
                        });
                    }
                }
            }
            // Back-edges: any resolvable branch to an earlier op.
            SemOp::Jmp(Target::Off(t))
            | SemOp::Jcc(_, Target::Off(t))
            | SemOp::LoopOp(Target::Off(t))
            | SemOp::Jecxz(Target::Off(t)) => {
                if let Some(head) = usize::try_from(*t).ok().and_then(|t| trace.index_of(t)) {
                    if head <= idx {
                        let mut written = 0u8;
                        for op in &ops[head..=idx] {
                            written |= written_gprs(op);
                        }
                        df.loops.push(LoopSpan {
                            head,
                            back: idx,
                            written,
                        });
                    }
                }
            }
            _ => {}
        }

        // Advance reaching defs and the evaluator past the op.
        let written = written_gprs(insn);
        for g in Gpr::ALL {
            if written & (1 << g.index()) != 0 {
                cur_def[g.index() as usize] = idx as u32;
            }
        }
        ev.step_op(insn);
    }

    // Loop-carried promotion: inside a detected span, a register that the
    // span rewrites and whose snapshot is otherwise unknown is not merely
    // "unknown" — it takes a fresh value each iteration.
    let spans = df.loops.clone();
    for span in spans {
        for idx in span.head..=span.back.min(df.vals.len().saturating_sub(1)) {
            for g in Gpr::ALL {
                if span.writes(g) && df.vals[idx][g.index() as usize] == AbsVal::Unknown {
                    df.vals[idx][g.index() as usize] = AbsVal::LoopCarried;
                }
            }
        }
    }

    df
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace_from;

    fn flow(code: &[u8]) -> (crate::Trace, Dataflow) {
        let t = trace_from(code, 0, 4096);
        let df = analyze(&t, &DataflowBudget::default());
        (t, df)
    }

    /// Figure 1(a): xor [eax], 0x95; inc eax; loop.
    #[test]
    fn summarizes_the_plain_decoder() {
        let (_, df) = flow(&[0x80, 0x30, 0x95, 0x40, 0xe2, 0xfa]);
        assert_eq!(df.mem_writes.len(), 1);
        let w = &df.mem_writes[0];
        assert_eq!(w.base, Some(Gpr::Eax));
        assert_eq!(w.xform, Some(BinKind::Xor));
        assert_eq!(w.key, Some(0x95));
        assert!(w.key_is_imm);
        assert_eq!(df.advances.len(), 1);
        assert_eq!(df.advances[0].gpr, Gpr::Eax);
        assert_eq!(df.loops.len(), 1);
        assert_eq!(df.loops[0].head, 0);
        assert!(df.loops[0].writes(Gpr::Eax));
        assert!(df.in_loop(w.idx));
    }

    /// mov esi, imm; xor [esi], 0x7a — the pointer's reaching def and
    /// constant value are visible at the store.
    #[test]
    fn pointer_setup_is_visible_at_the_store() {
        let code = [
            0xbe, 0x00, 0xe0, 0xff, 0xbf, // mov esi, 0xbfffe000
            0x80, 0x36, 0x7a, // xor byte [esi], 0x7a
        ];
        let (_, df) = flow(&code);
        let w = &df.mem_writes[0];
        assert_eq!(w.base, Some(Gpr::Esi));
        assert_eq!(df.def_at(w.idx, Gpr::Esi), Some(0));
        assert_eq!(df.val_at(w.idx, Gpr::Esi), AbsVal::Const(0xbfffe000));
    }

    /// Def-use links chain through intermediate arithmetic.
    #[test]
    fn def_chains_walk_backwards() {
        let code = [
            0xbb, 0x31, 0, 0, 0, // 0: mov ebx, 0x31
            0x83, 0xc3, 0x64, // 1: add ebx, 0x64
            0x30, 0x18, // 2: xor [eax], bl
        ];
        let (_, df) = flow(&code);
        // The store reads EBX defined by the add, which reads EBX defined
        // by the mov.
        let chain = df.def_chain(2, Gpr::Ebx, 8);
        assert_eq!(chain, vec![1, 0]);
        assert!(df
            .links
            .iter()
            .any(|l| l.use_at == 2 && l.gpr == Gpr::Ebx && l.def == Some(1)));
    }

    /// A register advanced inside a loop body is LoopCarried where the
    /// evaluator cannot pin a constant (GetPC-style pointer).
    #[test]
    fn loop_carried_promotion() {
        let code = [
            0x5e, // 0: pop esi (unknown pointer)
            0x80, 0x36, 0x7a, // 1: xor byte [esi], 0x7a
            0x46, // 2: inc esi
            0xe2, 0xfa, // 3: loop -> 0... actually targets 1
        ];
        let (_, df) = flow(&code);
        assert_eq!(df.loops.len(), 1);
        let store = df.mem_writes[0].idx;
        assert_eq!(df.val_at(store, Gpr::Esi), AbsVal::LoopCarried);
    }

    /// The budget truncates cleanly and reports exhaustion.
    #[test]
    fn budget_truncates_and_flags() {
        let code = [0x40u8; 64]; // 64 × inc eax
        let t = trace_from(&code, 0, 4096);
        let df = analyze(
            &t,
            &DataflowBudget {
                max_ops: 8,
                max_links: 4,
            },
        );
        assert!(df.exhausted);
        assert_eq!(df.analyzed_ops(), 8);
        assert!(df.links.len() <= 4);
        // Queries past the analyzed prefix answer conservatively.
        assert_eq!(df.val_at(20, Gpr::Eax), AbsVal::Unknown);
        assert_eq!(df.def_at(20, Gpr::Eax), None);
    }

    /// Plain mov stores are summarized with `xform: None`.
    #[test]
    fn mov_store_is_not_a_transform() {
        let (_, df) = flow(&[0xc6, 0x00, 0x00]); // mov byte [eax], 0
        assert_eq!(df.mem_writes.len(), 1);
        assert_eq!(df.mem_writes[0].xform, None);
    }

    /// Empty input yields an empty, non-exhausted result.
    #[test]
    fn empty_trace_is_fine() {
        let df = analyze(&Trace::default(), &DataflowBudget::default());
        assert!(!df.exhausted);
        assert!(df.mem_writes.is_empty() && df.links.is_empty());
    }
}
