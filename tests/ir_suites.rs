//! `snids-ir`'s locks, run with the workspace root's tests: the code-arena
//! differential oracle, the dataflow-pass properties and the IR properties.

#[path = "../crates/ir/tests/arena_oracle.rs"]
mod arena_oracle;

#[path = "../crates/ir/tests/dataflow_props.rs"]
mod dataflow_props;

#[path = "../crates/ir/tests/properties.rs"]
mod properties;
