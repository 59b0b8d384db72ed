//! The pipeline stages the observability layer knows about.

/// One stage of the packet-to-alert pipeline, in data-flow order.
///
/// The discriminants are stable (they index metric arrays and stage-nanos
/// trails), so new stages must be appended, never inserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Stage {
    /// Packet intake: decode, checksum verification, ledger entry.
    Capture = 0,
    /// Honeypot + dark-space traffic classification.
    Classify = 1,
    /// IPv4 defragmentation.
    Defrag = 2,
    /// Flow tracking and TCP stream reassembly.
    Reassembly = 3,
    /// Binary detection and extraction from reassembled payloads.
    Extract = 4,
    /// Disassembly start discovery (the budgeted x86 sweep).
    Decode = 5,
    /// Lifting decoded instructions to the canonical IR trace.
    IrLift = 6,
    /// Template unification over the IR trace.
    TemplateMatch = 7,
    /// Dataflow second pass: def-use/register-state analysis and
    /// slice-based matching on near-miss frames.
    Dataflow = 8,
    /// Pre-filter fast path: three-lane escalate/reject gate between
    /// classification and the flow table.
    Prefilter = 9,
}

impl Stage {
    /// Every stage, in discriminant order (the pre-filter is a late
    /// addition, so its code sits past the stages it runs between).
    pub const ALL: [Stage; 10] = [
        Stage::Capture,
        Stage::Classify,
        Stage::Defrag,
        Stage::Reassembly,
        Stage::Extract,
        Stage::Decode,
        Stage::IrLift,
        Stage::TemplateMatch,
        Stage::Dataflow,
        Stage::Prefilter,
    ];

    /// Stable snake_case name (metric label / JSON key).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Capture => "capture",
            Stage::Classify => "classify",
            Stage::Defrag => "defrag",
            Stage::Reassembly => "reassembly",
            Stage::Extract => "extract",
            Stage::Decode => "decode",
            Stage::IrLift => "ir_lift",
            Stage::TemplateMatch => "template_match",
            Stage::Dataflow => "dataflow",
            Stage::Prefilter => "prefilter",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip_and_names_are_distinct() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        for (i, s) in Stage::ALL.iter().enumerate() {
            // Trails and the registry index arrays by discriminant.
            assert_eq!(*s as usize, i);
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Stage::ALL.len());
    }
}
