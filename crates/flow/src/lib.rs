//! Flow tracking and TCP stream reassembly.
//!
//! Exploit payloads regularly span several TCP segments (a 10 KB overflow
//! does not fit one MTU), and attackers deliberately fragment to evade
//! packet-at-a-time inspection. The NIDS therefore reassembles each
//! directional flow's byte stream before handing it to the extraction
//! stage. Conflicting segment overlaps — the TCP desync evasion surface —
//! resolve per a configurable [`OverlapPolicy`] with divergent bytes
//! counted, so the sensor can both mirror its victims' stacks and notice
//! when an attacker tries to split them.
#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod budget;
pub mod defrag;
pub mod key;
pub mod reassembly;
pub mod table;

pub use budget::{MemoryBudget, PressureLevel};
pub use defrag::{
    DefragConfig, DefragDrop, DefragOutcome, DefragStats, Defragmenter, MAX_DATAGRAM,
};
pub use key::FlowKey;
pub use reassembly::{OverlapPolicy, Reassembler};
pub use table::{Flow, FlowTable, FlowTableConfig, ProcessOutcome, ShedCause, ShedFlow};
