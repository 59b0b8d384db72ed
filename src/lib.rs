//! # snids — a network intrusion detection system with semantics-aware capability
//!
//! A production-quality Rust reproduction of *Scheirer & Chuah, "Network
//! Intrusion Detection with Semantics-Aware Capability" (IPPS 2006)*.
//!
//! The system segregates suspicious traffic from the regular flow, extracts
//! binary code from suspicious payloads, disassembles it, lifts it to an
//! intermediate representation, and matches it against **behavioural
//! templates** — so polymorphic and metamorphic exploit code is detected by
//! what it *does*, not how it is spelled.
//!
//! ## Quickstart
//!
//! ```
//! use snids::core::{Nids, NidsConfig};
//! use snids::gen::traces::{codered_capture, AddressPlan};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Synthesize a capture with two Code Red II instances planted in
//! // benign background traffic.
//! let plan = AddressPlan::default();
//! let mut rng = StdRng::seed_from_u64(1);
//! let (packets, truth) = codered_capture(&mut rng, &plan, 500, 2);
//!
//! // Assemble the five-stage pipeline and run the capture through it.
//! let mut nids = Nids::new(NidsConfig {
//!     honeypots: plan.honeypots.clone(),
//!     dark_nets: vec![(plan.dark_net, 16)],
//!     ..NidsConfig::default()
//! });
//! let alerts = nids.process_capture(&packets);
//!
//! // Every planted instance is classified suspicious and template-matched.
//! let hits: std::collections::HashSet<_> = alerts
//!     .iter()
//!     .filter(|a| a.template == "code-red-ii")
//!     .map(|a| a.src)
//!     .collect();
//! assert_eq!(hits.len(), truth.crii_sources.len());
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`packet`] | protocol headers, packet model, pcap I/O |
//! | [`flow`] | flow table, TCP stream reassembly |
//! | [`classify`] | honeypot + dark-address-space classification (§4.1) |
//! | [`extract`] | binary detection & extraction (§4.2) |
//! | [`x86`] | the from-scratch IA-32 disassembler (§4.3) |
//! | [`ir`] | canonical IR, execution-order traces, constant folding |
//! | [`semantic`] | templates and the matching engine (§3) |
//! | [`sig`] | Snort-style signature baseline |
//! | [`prefilter`] | three-lane vectorized pre-filter fast path |
//! | [`gen`] | workload generation (engines, exploits, traces) |
//! | [`core`] | the assembled five-stage pipeline (Figure 3) |
//! | [`exec`] | the ordered parallel map the pipeline runs on |
//! | [`obs`] | stage metrics, flight recorder, metrics exposition |
//! | [`mod@bench`] | experiment runners (paper tables, figures, ablations) |
//!
//! `ARCHITECTURE.md` at the workspace root walks one packet through all of
//! these layers.
#![forbid(unsafe_code)]

pub use snids_bench as bench;
pub use snids_classify as classify;
pub use snids_core as core;
pub use snids_exec as exec;
pub use snids_extract as extract;
pub use snids_flow as flow;
pub use snids_gen as gen;
pub use snids_ir as ir;
pub use snids_obs as obs;
pub use snids_packet as packet;
pub use snids_prefilter as prefilter;
pub use snids_semantic as semantic;
pub use snids_sig as sig;
pub use snids_x86 as x86;
