//! `snids-x86`'s decoder locks, run with the workspace root's tests: the
//! golden decode table and the targeted coverage suite.
//!
//! The crate's own test target runs the same suite again now that the root
//! `cargo test` reaches every crate through `default-members`; this
//! include stays only so the root test names stay stable. ROADMAP item 19
//! tracks deleting it.

#[path = "../crates/x86/tests/golden.rs"]
mod golden;

#[path = "../crates/x86/tests/coverage.rs"]
mod coverage;
