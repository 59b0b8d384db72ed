//! The template language: patterns over variables and symbolic constants.

use serde::{Deserialize, Serialize};
use snids_ir::BinKind;
use std::fmt;

/// A template variable index (unifies with a concrete register file).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VarId(pub u8);

/// Maximum register variables per template.
pub const MAX_VARS: usize = 4;
/// Maximum symbolic constants per template.
pub const MAX_CONSTS: usize = 2;

/// Transform operations admitted by [`PatOp::XformMany`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum XformOp {
    /// A binary ALU transform (`xor r, k`, `or r, k`, ...).
    Bin(BinKind),
    /// `not r`.
    Not,
    /// `neg r`.
    Neg,
}

/// Constraints on a pattern's source value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PatValue {
    /// Anything at all.
    Any,
    /// The folded source value must equal this constant.
    Const(u32),
    /// The folded source value must be *statically known* (any key); binds
    /// symbolic constant `k` for reporting.
    KnownConst(u8),
    /// The source must be the register bound to this variable.
    Var(VarId),
}

/// One step of a behavioural template.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PatOp {
    /// An in-place transform of the memory cell addressed through variable
    /// `addr` — the write of a one-instruction decoder body
    /// (`xor byte ptr [X], key`). Matches `Bin { op ∈ ops, dst: Mem[..X..] }`.
    StoreXform {
        /// Admitted operators.
        ops: Vec<BinKind>,
        /// Address register variable (matches base or index use).
        addr: VarId,
        /// Constraint on the source (the key).
        src: PatValue,
    },
    /// A load `R ← Mem[X]` (the alternate decoder's read).
    LoadFrom {
        /// Destination register variable.
        dst: VarId,
        /// Address register variable.
        addr: VarId,
    },
    /// A store `Mem[X] ← R` (the alternate decoder's write-back).
    StoreTo {
        /// Address register variable.
        addr: VarId,
        /// Source register variable.
        src: VarId,
    },
    /// One or more register transforms on the variable (`or R,..`,
    /// `and R,..`, `not R`, ...). Greedy: consumes consecutive transforms.
    XformMany {
        /// Admitted transform operators.
        ops: Vec<XformOp>,
        /// The transformed register variable.
        dst: VarId,
    },
    /// A pointer advance: `X ← X + c` with `0 < c < 2^31` after
    /// canonicalization (`inc`, `add`, `sub -c`, `lea X,[X+c]` all land
    /// here), or an implicit string-op advance of ESI/EDI bound to `X`.
    Advance {
        /// The advanced register variable.
        addr: VarId,
    },
    /// A back-edge in execution order whose target is at or before the
    /// first matched step — the loop closing over the decoder body.
    LoopBack,
    /// Any op whose folded source value equals `0`'s constraint — used for
    /// "the code materializes constant V somewhere" (e.g. `/bin`, `//sh`),
    /// whether pushed, stored or built arithmetically.
    SrcConstIn(Vec<u32>),
    /// Software interrupt `vector` with EAX statically equal to `eax`
    /// and (when given) EBX equal to `ebx` — the syscall dispatch
    /// observation. The EBX constraint distinguishes `socketcall`
    /// subcodes: bind shells call SYS_BIND (2), connect-back shells call
    /// SYS_CONNECT (3).
    Syscall {
        /// Interrupt vector (0x80 = Linux).
        vector: u8,
        /// Required syscall number, if any.
        eax: Option<u32>,
        /// Required first argument (EBX), if any.
        ebx: Option<u32>,
    },
    /// Any op referencing an absolute constant/address in `[lo, hi]` —
    /// return-address and jump-island observations (Code Red II's
    /// `0x7801xxxx` msvcrt addressing).
    AddrInRange {
        /// Low bound (inclusive).
        lo: u32,
        /// High bound (inclusive).
        hi: u32,
    },
}

/// Alert severity attached to a template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Severity {
    /// Informational.
    Info,
    /// Suspicious behaviour.
    Medium,
    /// Confirmed malicious behaviour.
    High,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Medium => "medium",
            Severity::High => "high",
        })
    }
}

/// A behavioural template (paper Figures 2, 6 and 7 are instances).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Template {
    /// Stable identifier (`xor-decrypt-loop`, `linux-shell-spawn`, ...).
    pub name: &'static str,
    /// Human-readable description for alerts.
    pub description: &'static str,
    /// The behaviour steps, in execution order (gaps allowed).
    pub ops: Vec<PatOp>,
    /// Alert severity on match.
    pub severity: Severity,
    /// Maximum unmatched ops allowed between consecutive matched steps
    /// (`None` = unlimited). Polymorphic engines bound their junk padding,
    /// so decoder templates use a small gap; behaviour templates whose
    /// steps legitimately spread (shell spawning) leave it open.
    pub max_gap: Option<usize>,
}

impl Template {
    /// Number of steps.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the template has no steps (never matches).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Render the template in the paper's Figure-2 style.
    pub fn pretty(&self) -> String {
        use std::fmt::Write as _;
        let var = |v: &VarId| char::from(b'X' + v.0 % 3); // X, Y, Z
        let mut s = format!("template {} ({}):\n", self.name, self.severity);
        for op in &self.ops {
            let line = match op {
                PatOp::StoreXform { ops, addr, src } => {
                    let ops = ops
                        .iter()
                        .map(|o| format!("{o:?}").to_lowercase())
                        .collect::<Vec<_>>()
                        .join("|");
                    let src = match src {
                        PatValue::Any => "V".to_string(),
                        PatValue::Const(c) => format!("0x{c:x}"),
                        PatValue::KnownConst(k) => format!("k{k}"),
                        PatValue::Var(v) => var(v).to_string(),
                    };
                    format!("{ops} mem[{}], {src}", var(addr))
                }
                PatOp::LoadFrom { dst, addr } => {
                    format!("mov {}, mem[{}]", var(dst), var(addr))
                }
                PatOp::StoreTo { addr, src } => {
                    format!("mov mem[{}], {}", var(addr), var(src))
                }
                PatOp::XformMany { ops, dst } => {
                    let ops = ops
                        .iter()
                        .map(|o| format!("{o:?}").to_lowercase())
                        .collect::<Vec<_>>()
                        .join("|");
                    format!("({ops}) {}  [one or more]", var(dst))
                }
                PatOp::Advance { addr } => format!("{0} <- {0} + c, c > 0", var(addr)),
                PatOp::LoopBack => "loop back to start".to_string(),
                PatOp::SrcConstIn(vs) => {
                    let vs = vs
                        .iter()
                        .map(|v| format!("0x{v:x}"))
                        .collect::<Vec<_>>()
                        .join(" | ");
                    format!("materialize constant in {{{vs}}}")
                }
                PatOp::Syscall { vector, eax, ebx } => {
                    let mut line = format!("int 0x{vector:x}");
                    if let Some(n) = eax {
                        line.push_str(&format!(" with eax = 0x{n:x}"));
                    }
                    if let Some(n) = ebx {
                        line.push_str(&format!(", ebx = 0x{n:x}"));
                    }
                    line
                }
                PatOp::AddrInRange { lo, hi } => {
                    format!("reference address in [0x{lo:x}, 0x{hi:x}]")
                }
            };
            let _ = writeln!(s, "    {line}");
        }
        s
    }
}

/// Unification state: variable→register and symbolic-constant bindings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bindings {
    /// Register file bound to each variable.
    pub regs: [Option<snids_x86::Gpr>; MAX_VARS],
    /// Value bound to each symbolic constant.
    pub consts: [Option<u32>; MAX_CONSTS],
}

impl Bindings {
    /// Bind (or check) variable `v` to register file `g`.
    /// Returns the extended bindings, or `None` on conflict.
    pub fn bind_reg(mut self, v: VarId, g: snids_x86::Gpr) -> Option<Bindings> {
        let slot = &mut self.regs[usize::from(v.0) % MAX_VARS];
        match slot {
            Some(existing) if *existing != g => None,
            _ => {
                *slot = Some(g);
                Some(self)
            }
        }
    }

    /// Bind (or check) symbolic constant `k` to value `val`.
    pub fn bind_const(mut self, k: u8, val: u32) -> Option<Bindings> {
        let slot = &mut self.consts[usize::from(k) % MAX_CONSTS];
        match slot {
            Some(existing) if *existing != val => None,
            _ => {
                *slot = Some(val);
                Some(self)
            }
        }
    }

    /// The set of register files currently bound (the protected locations
    /// for the def-use preservation check).
    pub fn bound_set(&self) -> snids_x86::LocSet {
        let mut s = snids_x86::LocSet::EMPTY;
        for g in self.regs.iter().flatten() {
            s = s | snids_x86::LocSet::gpr(*g);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snids_x86::Gpr;

    #[test]
    fn bindings_unify_consistently() {
        let b = Bindings::default();
        let b = b.bind_reg(VarId(0), Gpr::Eax).unwrap();
        // Re-binding to the same register is fine.
        let b = b.bind_reg(VarId(0), Gpr::Eax).unwrap();
        // Conflict is rejected.
        assert!(b.bind_reg(VarId(0), Gpr::Ebx).is_none());
        // A different variable may take a different register.
        let b = b.bind_reg(VarId(1), Gpr::Ebx).unwrap();
        assert!(b.bound_set().contains(snids_x86::Location::Gpr(Gpr::Eax)));
        assert!(b.bound_set().contains(snids_x86::Location::Gpr(Gpr::Ebx)));
        assert!(!b.bound_set().contains(snids_x86::Location::Gpr(Gpr::Ecx)));
    }

    #[test]
    fn const_binding_conflicts_detected() {
        let b = Bindings::default().bind_const(0, 0x95).unwrap();
        assert!(b.bind_const(0, 0x95).is_some());
        assert!(b.bind_const(0, 0x96).is_none());
        assert!(b.bind_const(1, 0x42).is_some());
    }

    #[test]
    fn pretty_prints_figure_style() {
        let t = crate::templates::builtin("xor-decrypt-loop").unwrap();
        let p = t.pretty();
        assert!(p.contains("mem[X]"), "{p}");
        assert!(p.contains("loop back"), "{p}");
        assert!(p.contains("X <- X + c"), "{p}");
    }
}
