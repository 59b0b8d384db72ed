//! Binary detection and extraction (paper §4.2).
//!
//! "We need a way to identify binary data within packet payloads. …By
//! noting what is expected in a protocol request, and what is abnormal, we
//! can often locate malicious binary content."
//!
//! The module distinguishes acceptable protocol usage from suspicious
//! repetition (the `XXXX…` overflow filler of Figure 5), translates IIS
//! `%uXXXX` Unicode data into binary form, spots NOP sleds and repeated
//! return-address regions (Figure 4), and emits [`BinaryFrame`]s — the
//! "special binary frames" the disassembler stage consumes. Everything it
//! rejects never reaches the expensive stages, which is where the paper's
//! efficiency claim comes from.
#![forbid(unsafe_code)]

pub mod extractor;
pub mod http;
pub mod repetition;
pub mod sled;
pub mod unicode;

pub use extractor::{BinaryExtractor, BinaryFrame, ExtractorConfig, FrameOrigin};
pub use http::HttpRequest;
