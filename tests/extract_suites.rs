//! `snids-extract`'s property suite, run with the workspace root's tests.

#[path = "../crates/extract/tests/properties.rs"]
mod properties;
