//! Intermediate representation generator (paper §4, stage (d)).
//!
//! Sits between the disassembler and the semantic analyzer. The IR serves
//! three purposes the raw instruction stream cannot:
//!
//! 1. **Canonicalization** — equivalent instruction substitutions collapse
//!    to one form (`inc eax` ≡ `add eax, 1`; `lea eax, [eax+4]` ≡
//!    `add eax, 4`; `sub eax, -1` ≡ `add eax, 1`), which is half of what
//!    defeats metamorphic rewriting.
//! 2. **Execution-order normalization** — [`trace`] follows unconditional
//!    `jmp`s so out-of-order code (paper Figure 1(c)) is matched in the
//!    order it would *execute*, not the order it sits in the packet.
//! 3. **Abstract constant evaluation** — [`eval`] folds register arithmetic
//!    and stack motion (`mov ebx, 31h; add ebx, 64h` ⇒ `ebx = 95h`;
//!    `push imm / pop reg` ⇒ `reg = imm`), which is contribution (c) of the
//!    paper: templates still match when the key is built by "added
//!    sequences of stack and mathematic operations".
#![forbid(unsafe_code)]

pub mod arena;
pub mod dataflow;
pub mod eval;
pub mod lift;
pub mod op;
pub mod oracle;
pub mod trace;

pub use arena::FrameCode;
pub use dataflow::{AbsVal, Advance, Dataflow, DataflowBudget, DefUseLink, LoopSpan, MemWrite};
pub use eval::{AbstractState, Evaluator};
pub use lift::lift;
pub use op::{BinKind, IrInsn, Place, SemOp, StrKind, Target, UnKind, Value};
pub use trace::{default_starts, default_starts_budgeted, trace_from, StartsOutcome, Trace};
