//! Experiment runners regenerating every table and figure of the paper.
//!
//! Each experiment lives in its own module and returns structured rows;
//! the `repro` binary prints them in the paper's format. Engine throughput
//! is measured by the benchmark that `BENCHMARK.json` declares, not here.
//! Absolute numbers differ from the 2006
//! testbed (different hardware, different disassembler); the *shapes* the
//! paper reports are asserted in the integration tests and reproduced
//! here — see `EXPERIMENTS.md` at the workspace root.
#![forbid(unsafe_code)]

pub mod ablation;
pub mod figures;
pub mod fp;
pub mod table1;
pub mod table2;
pub mod table3;

/// The deterministic base seed used by `repro` (override with `--seed`).
pub const DEFAULT_SEED: u64 = 2006;
