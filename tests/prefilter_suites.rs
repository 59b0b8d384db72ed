//! `snids-prefilter`'s header-lane oracle, run with the workspace root's
//! tests.

#[path = "../crates/prefilter/tests/header_oracle.rs"]
mod header_oracle;
