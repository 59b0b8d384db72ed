//! `snids-x86`'s decoder locks, run with the workspace root's tests: the
//! golden decode table and the targeted coverage suite.

#[path = "../crates/x86/tests/golden.rs"]
mod golden;

#[path = "../crates/x86/tests/coverage.rs"]
mod coverage;
