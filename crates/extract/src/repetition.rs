//! Suspicious-repetition detection, in one pass over the payload.
//!
//! "Our module has the ability to distinguish between acceptable protocol
//! usage and suspicious repetition" (§4.2). Overflow exploits pad with long
//! runs of one byte (`XXXX…` in Code Red II) to reach the vulnerable
//! offset; legitimate requests do not. They also repeat the return address
//! (Figure 4, highest stack region): "Only the least significant byte can
//! be varied, since the return address must point back to a valid address
//! in the buffer."

/// A maximal run of one repeated byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// The repeated byte.
    pub byte: u8,
    /// Offset of the first byte of the run.
    pub start: usize,
    /// Run length.
    pub len: usize,
}

impl Run {
    /// Offset just past the run.
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// The longest run in `data` (ties resolve to the earliest).
pub fn longest_run(data: &[u8]) -> Option<Run> {
    ByteScan::of(data).longest
}

/// Printable ASCII plus `\t`, `\r` and `\n`, by byte value.
const PRINTABLE: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = (b >= 0x20 && b < 0x7f) || b == 0x09 || b == 0x0a || b == 0x0d;
        b += 1;
    }
    table
};

/// What one pass over a payload learns for the text rules of
/// [`BinaryExtractor`](crate::BinaryExtractor): the printable share, the
/// longest run and the longest return-address region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteScan {
    /// Bytes scanned.
    pub len: usize,
    /// Printable bytes (see [`ByteScan::printable_ratio`]).
    pub printable: usize,
    /// The longest run (ties resolve to the earliest).
    pub longest: Option<Run>,
    /// The most consecutive little-endian dwords, at any byte phase, that
    /// agree in their upper 24 bits (the LSB may vary) and look like an
    /// address (those bits neither all zero nor all ones); 0 when no two
    /// do.
    pub retaddr_dwords: usize,
}

impl ByteScan {
    /// Scan `data` once.
    pub fn of(data: &[u8]) -> ByteScan {
        let mut printable = 0usize;
        // The longest run so far, and where the current one started.
        let (mut best_start, mut best_len) = (0usize, 0usize);
        let mut run_start = 0usize;
        let mut prev = data.first().copied().unwrap_or(0);
        let mut step = |i: usize, b: u8| {
            printable += usize::from(PRINTABLE[usize::from(b)]);
            if b != prev {
                if i - run_start > best_len {
                    (best_start, best_len) = (run_start, i - run_start);
                }
                run_start = i;
                prev = b;
            }
        };
        // `chains[i % 4]`: consecutive dword pairs along stride 4, up to the
        // one at `i`, whose two dwords share upper 24 bits that could be an
        // address.
        let mut chains = [0usize; 4];
        let mut pairs = 0usize;
        for (i, window) in data.windows(8).enumerate() {
            step(i, window[0]);
            let mut word = [0u8; 8];
            word.copy_from_slice(window);
            let word = u64::from_le_bytes(word);
            let base = (word >> 8) as u32 & 0x00ff_ffff;
            let pair = (word >> 40) as u32 == base && base != 0 && base != 0x00ff_ffff;
            let chain = &mut chains[i % 4];
            *chain = if pair { *chain + 1 } else { 0 };
            pairs = pairs.max(*chain);
        }
        let tail = data.len().saturating_sub(7);
        for (i, &b) in data.iter().enumerate().skip(tail) {
            step(i, b);
        }
        if data.len() - run_start > best_len {
            (best_start, best_len) = (run_start, data.len() - run_start);
        }
        ByteScan {
            len: data.len(),
            printable,
            longest: (best_len > 0).then(|| Run {
                byte: data[best_start],
                start: best_start,
                len: best_len,
            }),
            retaddr_dwords: if pairs > 0 { pairs + 1 } else { 0 },
        }
    }

    /// Fraction of printable ASCII (plus whitespace) bytes; 1 when empty.
    pub fn printable_ratio(&self) -> f64 {
        if self.len == 0 {
            return 1.0;
        }
        self.printable as f64 / self.len as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_longest_run() {
        let mut data = b"abc".to_vec();
        data.extend_from_slice(&[b'X'; 40]);
        data.extend_from_slice(b"tail");
        let r = longest_run(&data).unwrap();
        assert_eq!(r.byte, b'X');
        assert_eq!(r.start, 3);
        assert_eq!(r.len, 40);
        assert_eq!(r.end(), 43);
    }

    #[test]
    fn empty_input() {
        assert!(longest_run(&[]).is_none());
        assert_eq!(ByteScan::of(&[]).printable_ratio(), 1.0);
    }

    #[test]
    fn ties_resolve_to_earliest() {
        let r = longest_run(b"aabb").unwrap();
        assert_eq!(r.byte, b'a');
    }

    #[test]
    fn printable_ratio_behaviour() {
        let ratio = |data: &[u8]| ByteScan::of(data).printable_ratio();
        assert_eq!(ratio(b"hello world\r\n"), 1.0);
        assert_eq!(ratio(&[0u8; 10]), 0.0);
        let half: Vec<u8> = (0..10).map(|i| if i < 5 { b'a' } else { 0x01 }).collect();
        assert!((ratio(&half) - 0.5).abs() < 1e-9);
    }

    fn addresses(base: u32, lsbs: &[u8]) -> Vec<u8> {
        lsbs.iter()
            .flat_map(|&l| ((base & 0xffff_ff00) | u32::from(l)).to_le_bytes())
            .collect()
    }

    fn retaddr_dwords(data: &[u8]) -> usize {
        ByteScan::of(data).retaddr_dwords
    }

    #[test]
    fn repeated_addresses_with_varying_lsb_at_an_odd_phase() {
        let mut data = b"prefix!".to_vec();
        data.extend_from_slice(&addresses(0xbffff500, &[0x10, 0x20, 0x30, 0x40, 0x50]));
        data.extend_from_slice(b"tail");
        assert_eq!(retaddr_dwords(&data), 5);
        assert_eq!(retaddr_dwords(&addresses(0x0804_9700, &[0x88; 8])), 8);
        assert_eq!(retaddr_dwords(&addresses(0xbffff500, &[1, 2, 3])), 3);
    }

    #[test]
    fn zero_and_ones_are_not_addresses() {
        assert_eq!(retaddr_dwords(&[0u8; 64]), 0);
        assert_eq!(retaddr_dwords(&[0xffu8; 64]), 0);
    }

    #[test]
    fn text_and_short_input_have_no_region() {
        assert_eq!(
            retaddr_dwords(b"GET /index.html HTTP/1.1\r\nHost: www.example.com\r\n\r\n"),
            0
        );
        assert_eq!(retaddr_dwords(&[0x41; 7]), 0, "too short for two dwords");
        assert_eq!(retaddr_dwords(&[0x41; 8]), 2);
        assert_eq!(retaddr_dwords(&[]), 0);
    }
}
