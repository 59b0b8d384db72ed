//! From-scratch 32-bit x86 (IA-32) disassembler.
//!
//! This crate replaces IDA Pro in the paper's pipeline (§4.3: "Because we
//! have chosen a specific commercial product, IDA Pro, for our disassembler
//! stage, our NIDS can only disassemble x86 code at the present"). It decodes
//! the full one-byte opcode map plus the two-byte (`0F`) subset observed in
//! network exploit code, including:
//!
//! * all legacy prefixes (operand/address size, segment overrides, LOCK,
//!   REP/REPNE),
//! * ModRM/SIB addressing in both 32-bit and 16-bit modes,
//! * the arithmetic/shift/unary opcode groups (`80–83`, `C0/C1/D0–D3`,
//!   `F6/F7`, `FE/FF`),
//! * string operations, `LOOP*`/`JECXZ`, software interrupts and far
//!   transfers — everything polymorphic engines in the ADMmutate/Clet
//!   family emit.
//!
//! Bytes that do not form a valid instruction decode to [`Mnemonic::Bad`]
//! with length 1, and the [`stream::InsnStream`] resynchronises at the next
//! offset. This matters for network data: extracted binary frames contain
//! non-code bytes, so a scanner must degrade gracefully rather than fail.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod decoder;
pub mod fmt;
pub mod insn;
pub mod operand;
pub mod reg;
pub mod semantics;
pub mod stream;

pub use decoder::decode;
pub use insn::{Cond, Instruction, LoopKind, Mnemonic, Prefixes, SegReg};
pub use operand::{MemRef, Operand, Operands, Width, MAX_OPERANDS};
pub use reg::{Gpr, Reg};
pub use semantics::{LocSet, Location};
pub use stream::{linear_sweep, linear_sweep_budgeted, InsnStream, SweepBudget, SweepOutcome};
