//! `snids-ir`'s locks, run with the workspace root's tests: the code-arena
//! differential oracle, the dataflow-pass properties and the IR properties.
//!
//! The crate's own test target runs the same suite again now that the root
//! `cargo test` reaches every crate through `default-members`; this
//! include stays only so the root test names stay stable. ROADMAP item 19
//! tracks deleting it.

#[path = "../crates/ir/tests/arena_oracle.rs"]
mod arena_oracle;

#[path = "../crates/ir/tests/dataflow_props.rs"]
mod dataflow_props;

#[path = "../crates/ir/tests/properties.rs"]
mod properties;
