#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! Workload generation for the snids evaluation.
//!
//! Everything the paper's experiments consumed but we cannot download —
//! the ADMmutate and Clet kits, eight remote shell-spawning exploits, the
//! Code Red II worm, production traffic traces — is synthesized here.
//!
//! **Safety**: all shellcode in this crate is *inert test data*. It is
//! assembled with placeholder addresses, wrapped in synthetic packets, and
//! exists solely as input to the detector. Nothing here is ever executed.
//!
//! Determinism: every generator takes an explicit RNG so experiments are
//! reproducible from a seed.

pub mod admmutate;
pub mod asm;
pub mod benign;
pub mod binaries;
pub mod chaos;
pub mod clet;
pub mod codered;
pub mod corpus;
pub mod exploit;
pub mod exploits;
pub mod shellcode;
pub mod traces;

pub use admmutate::{AdmMutate, DecoderFamily};
pub use asm::Asm;
pub use chaos::{
    chaos_packets, chaos_pcap, exhaustion_flood, ChaosConfig, ChaosLog, DesyncConfig,
    ExhaustionConfig,
};
pub use clet::Clet;
pub use exploit::{ExploitLayout, OverflowExploit};
pub use exploits::{ExploitScenario, SCENARIOS};
