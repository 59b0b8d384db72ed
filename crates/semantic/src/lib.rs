#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! Semantic template engine (paper §3 and §4.3).
//!
//! Implements the template-matching formulation of Christodorescu et al.
//! (the paper's reference `[5]`) as adapted by Scheirer & Chuah for network
//! payloads: *"A program P satisfies a template T (denoted P ⊨ T) iff P
//! contains an instruction sequence I such that I contains a behavior
//! specified by T."*
//!
//! A [`Template`] is a short sequence of patterns over **template
//! variables** (which unify with any concrete register, consistently) and
//! **symbolic constants**. The [`matcher`] walks an execution-order
//! [`snids_ir::Trace`], allows gaps, and enforces *def-use preservation*:
//! an intervening instruction may never clobber a location bound to a
//! template variable. Together with the IR layer's canonicalization this
//! defeats the four obfuscations the paper names — out-of-order code, NOP
//! insertion, junk-instruction insertion, and register reassignment — plus
//! key-building chains of "stack and mathematic operations" (the paper's
//! contribution (c)).
//!
//! [`analyzer`] wraps the matcher in two drivers:
//!
//! * [`analyzer::Analyzer`] — the pruned production path (candidate start
//!   offsets from [`snids_ir::default_starts`]),
//! * [`analyzer::NaiveAnalyzer`] — an exhaustive every-offset matcher that
//!   stands in for `[5]`'s host-based scanner in the efficiency experiments.

pub mod analyzer;
pub mod dsl;
pub mod matcher;
pub mod pattern;
pub mod slice;
pub mod templates;

pub use analyzer::{
    Analyzer, AnalyzerConfig, DataflowMode, FrameAnalysis, NaiveAnalyzer, SliceAnalysis,
    StageTiming, TemplateMatch,
};
pub use dsl::parse as parse_templates;
pub use matcher::match_template;
pub use pattern::{PatOp, PatValue, Severity, Template, VarId, XformOp};
pub use slice::{compile_slice, match_slice, SliceRule};
pub use templates::default_templates;
