//! The pieces of the repo's one benchmark (see `benchmark/README.md`):
//! workload generation, engine passes, the staged driver and its spans,
//! and the metric tables. `src/main.rs` is the command.

pub mod measure;
pub mod report;
pub mod staged;
pub mod trace;
pub mod workloads;
