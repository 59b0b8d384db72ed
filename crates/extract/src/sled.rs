//! NOP-sled detection (paper Figure 4, lowest stack region).
//!
//! "Polymorphic exploit generators can use a whole host of instructions
//! that have 'NOP-like' behavior, thus making the NOP region variant" —
//! so the detector asks the disassembler's NOP-likeness fact
//! ([`snids_x86::semantics::nop_like_len`], the table form of
//! [`snids_x86::semantics::is_nop_like`]) instead of grepping for `0x90`.
//! The table settles every byte but a prefix or `0F` opening a possible
//! multi-byte NOP, so shed text reaches the decoder only at prefix pairs
//! such as `ed` (`gs: fs:`).

use snids_x86::semantics::nop_like_len;

/// A detected sled region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sled {
    /// Offset of the first sled instruction.
    pub start: usize,
    /// Length in bytes.
    pub len: usize,
    /// Number of consecutive NOP-like instructions.
    pub insns: usize,
}

impl Sled {
    /// Offset just past the sled.
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// Find the first run of at least `min_insns` consecutive NOP-like
/// instructions.
pub fn find_sled(data: &[u8], min_insns: usize) -> Option<Sled> {
    let min_insns = min_insns.max(1);
    let mut start = 0usize;
    while start < data.len() {
        let mut pos = start;
        let mut insns = 0usize;
        while let Some(len) = nop_like_len(data, pos) {
            insns += 1;
            pos += len;
        }
        if insns >= min_insns {
            return Some(Sled {
                start,
                len: pos - start,
                insns,
            });
        }
        // Restart just past the instruction that broke the run: a sled is
        // contiguous, so no offset is looked at twice and the scan is
        // linear.
        start = pos + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_0x90_sled() {
        let mut data = vec![0u8; 7]; // 'add [eax],al' pairs — memory writes, not sled-safe
        data.extend_from_slice(&[0x90; 32]);
        data.push(0xcc);
        let s = find_sled(&data, 16).unwrap();
        assert_eq!(s.start, 7);
        assert_eq!(s.insns, 32);
        assert_eq!(s.len, 32);
    }

    #[test]
    fn polymorphic_sled_of_mixed_one_byte_ops() {
        // inc/dec/cwde/clc/… mixture, no plain NOP at all
        let sled = [
            0x40, 0x43, 0x4a, 0x98, 0x99, 0xf8, 0xf9, 0xfc, 0x97, 0x91, 0x27, 0x2f, 0x37, 0x3f,
            0x9e, 0x9f, 0x41, 0x42, 0x46, 0x47,
        ];
        let s = find_sled(&sled, 20).unwrap();
        assert_eq!(s.start, 0);
        assert_eq!(s.insns, 20);
    }

    #[test]
    fn short_runs_are_ignored() {
        let mut data = b"plain text ".to_vec();
        data.extend_from_slice(&[0x90; 4]);
        data.extend_from_slice(b" more text");
        assert!(find_sled(&data, 8).is_none());
    }

    #[test]
    fn text_is_not_a_sled() {
        // ASCII letters decode to real instructions (inc/dec/push/pop range
        // includes 'A'..'Z'!) — push/pop/inc/dec ARE sled-safe, so pure
        // uppercase text can look sled-like; lowercase is not.
        let data = b"the quick brown fox jumps over the lazy dog";
        assert!(find_sled(data, 16).is_none());
    }

    #[test]
    fn uppercase_filler_is_sled_like_by_design() {
        // A run of 'X' (0x58 = pop eax) is exactly the Code Red II filler,
        // and IS executable sled material — the detector flags it, the
        // extractor combines this with other signals.
        let data = [b'X'; 32];
        assert!(find_sled(&data, 16).is_some());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(find_sled(&[], 1).is_none());
        assert_eq!(find_sled(&[0x90], 1).unwrap().insns, 1);
    }
}
