#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! A Snort-style static-signature NIDS baseline.
//!
//! The paper's central argument is that syntactic matching ("static
//! signatures of known attacks") cannot keep up with polymorphic code.
//! This crate supplies that baseline so the evaluation can show the
//! contrast: a from-scratch Aho–Corasick multi-pattern matcher plus a
//! small content-rule set in the style of the Snort rules of the era.

pub mod aho;
pub mod rules;

pub use aho::AhoCorasick;
pub use rules::{default_ruleset, Rule, RuleSet, SigAlert};
