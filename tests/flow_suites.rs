//! `snids-flow`'s locks, run with the workspace root's tests: the
//! reassembly oracle, the governor properties, hostile input and the
//! table properties.

#[path = "../crates/flow/tests/desync_oracle.rs"]
mod desync_oracle;

#[path = "../crates/flow/tests/governor_props.rs"]
mod governor_props;

#[path = "../crates/flow/tests/hostile.rs"]
mod hostile;

#[path = "../crates/flow/tests/properties.rs"]
mod properties;
