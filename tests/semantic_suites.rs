//! `snids-semantic`'s property suite, run with the workspace root's tests:
//! the obfuscation-invariance properties and the code-arena differential
//! (`properties::arena_differential`).

#[path = "../crates/semantic/tests/properties.rs"]
mod properties;
