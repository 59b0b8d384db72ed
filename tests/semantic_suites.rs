//! `snids-semantic`'s property suite, run with the workspace root's tests:
//! the obfuscation-invariance properties and the code-arena differential
//! (`properties::arena_differential`).
//!
//! The crate's own test target runs the same suite again now that the root
//! `cargo test` reaches every crate through `default-members`; this
//! include stays only so the root test names stay stable. ROADMAP item 19
//! tracks deleting it.

#[path = "../crates/semantic/tests/properties.rs"]
mod properties;
