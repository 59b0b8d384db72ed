//! The built-in template library: the nine behaviours the paper's
//! evaluation exercises, written in the operator DSL ([`crate::dsl`]) in
//! `builtin.tmpl` next to this module, which says what each one is.
//!
//! The text is parsed once per process; every call hands out a clone.

use crate::dsl;
use crate::pattern::Template;
use std::sync::OnceLock;

fn parsed() -> &'static [Template] {
    static BUILTINS: OnceLock<Vec<Template>> = OnceLock::new();
    BUILTINS.get_or_init(|| dsl::parse(include_str!("builtin.tmpl")).expect("builtin.tmpl parses"))
}

/// The full default template set the NIDS ships with, in file order.
pub fn default_templates() -> Vec<Template> {
    parsed().to_vec()
}

/// The reduced set used for the first ADMmutate run in Table 2 (before the
/// Figure-7 template was written): decryption-loop templates only.
pub fn xor_only_templates() -> Vec<Template> {
    ["xor-decrypt-loop", "xor-decrypt-loop/advance-first"]
        .into_iter()
        .filter_map(builtin)
        .collect()
}

/// The built-in template called `name`, if there is one.
pub fn builtin(name: &str) -> Option<Template> {
    parsed().iter().find(|t| t.name == name).cloned()
}
