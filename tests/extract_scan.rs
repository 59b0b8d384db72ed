//! Locks on the extractor's byte-class pass.
//!
//! 1. The NOP-class table plus its follow-byte rule
//!    (`semantics::nop_like_len`) agree with `decode` + `is_nop_like` at
//!    every opening: every `b0 × b1` with sampled third bytes and every
//!    truncation here, and the full `b0 × b1 × b2` cube in the ignored
//!    sweep (`cargo test --release --test extract_scan -- --ignored`).
//! 2. `BinaryExtractor::extract` renders the same frames as the four-pass
//!    extractor it replaced (printable ratio, a decode-per-offset sled
//!    walk, a four-phase return-address search, a separate run scan). That
//!    extractor lives on below, verbatim, only as the oracle.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snids::extract::http::HttpRequest;
use snids::extract::repetition::ByteScan;
use snids::extract::sled::find_sled;
use snids::extract::unicode::{count_unicode_groups, decode_region};
use snids::extract::{BinaryExtractor, BinaryFrame, ExtractorConfig, FrameOrigin};
use snids::x86::decode;
use snids::x86::semantics::{is_nop_like, nop_like_len, NopClass, NOP_CLASS};

/// `decode` + `is_nop_like`, the definition the table must reproduce.
fn decoded_nop_len(buf: &[u8], offset: usize) -> Option<usize> {
    let insn = decode(buf, offset);
    is_nop_like(&insn).then_some(usize::from(insn.len))
}

fn assert_agrees(buf: &[u8]) {
    assert_eq!(
        nop_like_len(buf, 0),
        decoded_nop_len(buf, 0),
        "NOP-likeness of {buf:02x?}"
    );
}

/// Bytes after the third that let any instruction decode in full.
const TAIL: [u8; 13] = [
    0x90, 0x1f, 0x0f, 0x66, 0x00, 0x24, 0x95, 0x40, 0xe2, 0xfa, 0x01, 0x02, 0x03,
];

#[test]
fn nop_class_table_counts_match_the_decoder_probe() {
    let count = |class| NOP_CLASS.iter().filter(|&&c| c == class).count();
    assert_eq!(count(NopClass::Always), 62);
    assert_eq!(count(NopClass::Never), 182);
    assert_eq!(count(NopClass::Mixed), 12);
}

#[test]
fn nop_table_agrees_with_the_decoder_on_every_two_byte_opening() {
    const THIRD: [u8; 12] = [
        0x00, 0x04, 0x0f, 0x1f, 0x26, 0x40, 0x66, 0x84, 0x90, 0xc0, 0xf3, 0xff,
    ];
    for b0 in 0..=255u8 {
        assert_agrees(&[b0]);
        for b1 in 0..=255u8 {
            assert_agrees(&[b0, b1]);
            for b2 in THIRD {
                assert_agrees(&[b0, b1, b2]);
                let mut buf = vec![b0, b1, b2];
                buf.extend_from_slice(&TAIL);
                assert_agrees(&buf);
            }
        }
    }
    // Offsets other than 0, including the end of the buffer and past it.
    let buf = [0x66, 0x66, 0x90, 0x0f, 0x1f, 0x00, 0x41, 0x0f];
    for offset in 0..=buf.len() + 1 {
        assert_eq!(nop_like_len(&buf, offset), decoded_nop_len(&buf, offset));
    }
    // A prefix chain longer than an instruction may be is not a NOP.
    let mut long = vec![0x66u8; 15];
    long.push(0x90);
    assert_eq!(nop_like_len(&long, 0), None);
    assert_eq!(nop_like_len(&long, 1), Some(15));
}

#[test]
#[ignore = "2^24 openings; run in release mode"]
fn nop_table_agrees_with_the_decoder_on_every_three_byte_opening() {
    let mut buf = [0u8; 3 + TAIL.len()];
    buf[3..].copy_from_slice(&TAIL);
    for b0 in 0..=255u8 {
        for b1 in 0..=255u8 {
            for b2 in 0..=255u8 {
                buf[..3].copy_from_slice(&[b0, b1, b2]);
                assert_agrees(&buf[..3]);
                assert_agrees(&buf);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The oracle: the four-pass extractor, verbatim but for names.
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
struct OracleRun {
    start: usize,
    len: usize,
}

impl OracleRun {
    fn end(&self) -> usize {
        self.start + self.len
    }
}

fn oracle_longest_run(data: &[u8]) -> Option<OracleRun> {
    let mut best: Option<OracleRun> = None;
    for r in oracle_runs_at_least(data, 1) {
        if best.map(|b| r.len > b.len) != Some(false) {
            best = Some(r);
        }
    }
    best
}

fn oracle_runs_at_least(data: &[u8], min_len: usize) -> impl Iterator<Item = OracleRun> + '_ {
    let mut i = 0usize;
    std::iter::from_fn(move || {
        while i < data.len() {
            let b = data[i];
            let start = i;
            while i < data.len() && data[i] == b {
                i += 1;
            }
            let len = i - start;
            if len >= min_len {
                return Some(OracleRun { start, len });
            }
        }
        None
    })
}

fn oracle_printable_ratio(data: &[u8]) -> f64 {
    if data.is_empty() {
        return 1.0;
    }
    let printable = data
        .iter()
        .filter(|&&b| (0x20..0x7f).contains(&b) || b == b'\r' || b == b'\n' || b == b'\t')
        .count();
    printable as f64 / data.len() as f64
}

/// `(start, len, insns)` of the first sled.
fn oracle_find_sled(data: &[u8], min_insns: usize) -> Option<(usize, usize, usize)> {
    let min_insns = min_insns.max(1);
    let mut start = 0usize;
    while start < data.len() {
        let mut pos = start;
        let mut insns = 0usize;
        while pos < data.len() {
            let insn = decode(data, pos);
            if !is_nop_like(&insn) {
                break;
            }
            insns += 1;
            pos = insn.end();
        }
        if insns >= min_insns {
            return Some((start, pos - start, insns));
        }
        start += 1 + (pos - start);
    }
    None
}

/// `(start, count)` of the first return-address region.
fn oracle_find_retaddr_region(data: &[u8], min_count: usize) -> Option<(usize, usize)> {
    let min_count = min_count.max(2);
    if data.len() < 4 * min_count {
        return None;
    }
    for phase in 0..4usize {
        let mut i = phase;
        while i + 4 * min_count <= data.len() {
            let first = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
            let base = first & 0xffff_ff00;
            if base == 0 || base == 0xffff_ff00 {
                i += 4;
                continue;
            }
            let mut count = 1usize;
            let mut j = i + 4;
            while j + 4 <= data.len() {
                let w = u32::from_le_bytes([data[j], data[j + 1], data[j + 2], data[j + 3]]);
                if w & 0xffff_ff00 != base {
                    break;
                }
                count += 1;
                j += 4;
            }
            if count >= min_count {
                return Some((i, count));
            }
            i = j.max(i + 4);
        }
    }
    None
}

struct Oracle {
    config: ExtractorConfig,
}

impl Oracle {
    fn extract(&self, payload: &[u8]) -> Vec<BinaryFrame> {
        if payload.is_empty() {
            return Vec::new();
        }
        if let Some(req) = HttpRequest::parse(payload) {
            return self.extract_http(payload, &req);
        }
        self.extract_raw(payload, 0, FrameOrigin::Raw)
    }

    fn cap(&self, data: &[u8]) -> Vec<u8> {
        data[..data.len().min(self.config.max_frame_bytes)].to_vec()
    }

    fn extract_http(&self, payload: &[u8], req: &HttpRequest<'_>) -> Vec<BinaryFrame> {
        let mut frames = Vec::new();
        let uri_off = req.uri.as_ptr() as usize - payload.as_ptr() as usize;

        let run = oracle_longest_run(req.uri);
        let suspicious_run = run.map(|r| r.len >= self.config.min_repetition_run);
        let unicode = count_unicode_groups(req.uri);

        if unicode >= self.config.min_unicode_groups {
            let mut decoded = Vec::new();
            let mut at = 0usize;
            let mut first_start = None;
            while let Some(r) = decode_region(req.uri, at) {
                if r.unicode_groups > 0 {
                    first_start.get_or_insert(r.start);
                    decoded.extend_from_slice(&r.data);
                }
                at = r.end.max(at + 1);
            }
            if !decoded.is_empty() {
                frames.push(BinaryFrame {
                    data: self.cap(&decoded),
                    origin: FrameOrigin::HttpUri,
                    offset: uri_off + first_start.unwrap_or(0),
                    reason: "unicode-encoded binary in URI",
                });
            }
        } else if suspicious_run == Some(true) {
            let r = run.expect("checked above");
            let tail = &req.uri[r.end()..];
            if tail.len() >= 16 {
                frames.push(BinaryFrame {
                    data: self.cap(tail),
                    origin: FrameOrigin::HttpUri,
                    offset: uri_off + r.end(),
                    reason: "suspicious repetition in URI",
                });
            }
        }

        if !req.body.is_empty() {
            let body_off = req.body.as_ptr() as usize - payload.as_ptr() as usize;
            frames.extend(self.extract_raw(req.body, body_off, FrameOrigin::HttpBody));
        }
        frames
    }

    fn extract_raw(&self, data: &[u8], base: usize, origin: FrameOrigin) -> Vec<BinaryFrame> {
        if oracle_printable_ratio(data) < self.config.max_printable_ratio {
            return vec![BinaryFrame {
                data: self.cap(data),
                origin,
                offset: base,
                reason: "low printable ratio",
            }];
        }
        if let Some((start, _, _)) = oracle_find_sled(data, self.config.min_sled_insns) {
            let frame = &data[start..];
            return vec![BinaryFrame {
                data: self.cap(frame),
                origin,
                offset: base + start,
                reason: "NOP-like sled",
            }];
        }
        if oracle_find_retaddr_region(data, self.config.min_retaddr_count).is_some() {
            return vec![BinaryFrame {
                data: self.cap(data),
                origin,
                offset: base,
                reason: "repeated return-address region",
            }];
        }
        if let Some(r) = oracle_longest_run(data) {
            if r.len >= self.config.min_repetition_run {
                let tail = &data[r.end()..];
                if tail.len() >= 16 {
                    return vec![BinaryFrame {
                        data: self.cap(tail),
                        origin,
                        offset: base + r.end(),
                        reason: "suspicious repetition",
                    }];
                }
            }
        }
        Vec::new()
    }
}

// ---------------------------------------------------------------------
// Payload families.
// ---------------------------------------------------------------------

/// The text the state-exhaustion flood parks (`snids-gen`'s
/// `flood_filler`): every salt starts it at another byte.
const FLOOD_TEXT: &[u8] = b"GET /state-exhaustion-flood HTTP/1.0\r\nHost: overload\r\n\r\n";

fn flood_text(salt: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| FLOOD_TEXT[(salt + j) % FLOOD_TEXT.len()])
        .collect()
}

const PREFIXES: [u8; 11] = [
    0x26, 0x2e, 0x36, 0x3e, 0x64, 0x65, 0x66, 0x67, 0xf0, 0xf2, 0xf3,
];

fn mixed_case_text(rng: &mut StdRng, len: std::ops::Range<usize>) -> Vec<u8> {
    let len = rng.gen_range(len);
    const ALPHABET: &[u8] =
        b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .,:;-_/&=?%\r\n\t";
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())])
        .collect()
}

fn prefix_heavy(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| match rng.gen_range(0..6u8) {
            0..=2 => PREFIXES[rng.gen_range(0..PREFIXES.len())],
            3 => [0x0f, 0x1f, 0x90][rng.gen_range(0..3usize)],
            4 => b"defg.&6>"[rng.gen_range(0..8usize)],
            _ => rng.gen(),
        })
        .collect()
}

/// One sled instruction: `66 90`, `f3 90`, `0f 1f /0` in each ModRM
/// shape, or a one-byte NOP-like opcode.
fn sled_insn(rng: &mut StdRng, out: &mut Vec<u8>) {
    match rng.gen_range(0..6u8) {
        0 => out.extend_from_slice(&[0x66, 0x90]),
        1 => out.extend_from_slice(&[0xf3, 0x90]),
        2 => out.extend_from_slice(&[0x0f, 0x1f, rng.gen_range(0xc0..=0xc7u8)]),
        3 => {
            // [reg] / [SIB] / [disp32] / [reg+disp8] / [reg+disp32]
            let modrm = [0x00u8, 0x04, 0x05, 0x40, 0x44, 0x80][rng.gen_range(0..6usize)];
            out.extend_from_slice(&[0x0f, 0x1f, modrm]);
            let extra = match modrm {
                0x04 => 1,
                0x05 | 0x80 => 4,
                0x40 => 1,
                0x44 => 2,
                _ => 0,
            };
            out.extend((0..extra).map(|_| rng.gen::<u8>()));
        }
        4 => out.extend_from_slice(&[0x66, 0x66, 0x0f, 0x1f, 0xc0]),
        _ => out.push([0x90, 0x40, 0x4b, 0x97, 0x99, 0xf8, 0xfc, 0x27][rng.gen_range(0..8usize)]),
    }
}

fn text_with_sled(rng: &mut StdRng) -> Vec<u8> {
    let mut out = mixed_case_text(rng, 0..64);
    let insns = rng.gen_range(18..30usize);
    for _ in 0..insns {
        sled_insn(rng, &mut out);
    }
    if rng.gen::<bool>() {
        out.extend_from_slice(&[0x31, 0xc0, 0xcd, 0x80]);
    }
    out.extend(mixed_case_text(rng, 0..400));
    out
}

fn text_with_retaddr(rng: &mut StdRng) -> Vec<u8> {
    // Any byte phase: 4k + 0..3 bytes of lead-in.
    let lead = rng.gen_range(0..32usize);
    let mut out = mixed_case_text(rng, lead..lead + 1);
    let base = match rng.gen_range(0..4u8) {
        0 => 0,
        1 => 0xffff_ff00,
        _ => rng.gen::<u32>() & 0xffff_ff00,
    };
    for _ in 0..rng.gen_range(5..12usize) {
        out.extend_from_slice(&(base | u32::from(rng.gen::<u8>())).to_le_bytes());
    }
    out.extend(mixed_case_text(rng, 0..400));
    out
}

fn run_then_tail(rng: &mut StdRng) -> Vec<u8> {
    // Printable runs also read as sleds or address regions; a run of
    // zeros or ones is neither, so enough text around it reaches rule 4.
    let mut out = mixed_case_text(rng, 0..300);
    let byte = [b'A', b'x', b' ', 0x00, 0xff, 0x90][rng.gen_range(0..6usize)];
    out.extend(std::iter::repeat_n(byte, rng.gen_range(62..67usize)));
    out.extend(mixed_case_text(rng, 14..19usize));
    out
}

fn http_with_body(rng: &mut StdRng) -> Vec<u8> {
    let mut out = b"POST /cgi-bin/form HTTP/1.0\r\nHost: victim\r\n".to_vec();
    if rng.gen::<bool>() {
        // An overflow URI: filler, then around the `%u` group threshold
        // (Code Red II's shape) or plain text.
        out.clear();
        out.extend_from_slice(b"GET /vuln?");
        let byte = [b'X', b'A', b'%'][rng.gen_range(0..3usize)];
        out.extend(std::iter::repeat_n(byte, rng.gen_range(60..70usize)));
        for _ in 0..rng.gen_range(0..10usize) {
            out.extend_from_slice(format!("%u{:04x}", rng.gen::<u16>()).as_bytes());
        }
        out.extend(mixed_case_text(rng, 10..20usize));
        out.extend_from_slice(b" HTTP/1.0\r\nHost: victim\r\n");
    }
    out.extend_from_slice(b"\r\n");
    let body = match rng.gen_range(0..5u8) {
        0 => text_with_sled(rng),
        1 => text_with_retaddr(rng),
        2 => run_then_tail(rng),
        3 => {
            let len = rng.gen_range(1..300);
            prefix_heavy(rng, len)
        }
        _ => mixed_case_text(rng, 0..300),
    };
    out.extend(body);
    out
}

fn payload(family: u8, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = rng.gen_range(0..1024);
    match family {
        0 => flood_text(rng.gen_range(0..FLOOD_TEXT.len()), 2 * len),
        1 => mixed_case_text(&mut rng, len..len + 1),
        2 => prefix_heavy(&mut rng, len / 2),
        3 => text_with_sled(&mut rng),
        4 => text_with_retaddr(&mut rng),
        5 => run_then_tail(&mut rng),
        6 => http_with_body(&mut rng),
        _ => (0..len / 2).map(|_| rng.gen()).collect(),
    }
}

/// The default thresholds, or small ones so every rule fires often.
fn config(small: bool, seed: u64) -> ExtractorConfig {
    if !small {
        return ExtractorConfig::default();
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    ExtractorConfig {
        min_repetition_run: rng.gen_range(0..24),
        min_unicode_groups: rng.gen_range(0..10),
        max_printable_ratio: rng.gen_range(0..100u32) as f64 / 100.0,
        min_sled_insns: rng.gen_range(0..12),
        min_retaddr_count: rng.gen_range(0..10),
        max_frame_bytes: rng.gen_range(1..512),
    }
}

fn assert_same_frames(payload: &[u8], config: ExtractorConfig) -> Vec<BinaryFrame> {
    let expected = Oracle {
        config: config.clone(),
    }
    .extract(payload);
    let got = BinaryExtractor::new(config.clone()).extract(payload);
    assert_eq!(
        got,
        expected,
        "extract differs from the four-pass oracle under {config:?} on {:02x?}",
        &payload[..payload.len().min(96)]
    );
    got
}

#[test]
fn flood_text_at_every_salt_extracts_like_the_oracle() {
    for salt in 0..FLOOD_TEXT.len() {
        for len in [0, 1, 57, 1024, 1536] {
            let text = flood_text(salt, len);
            assert_same_frames(&text, ExtractorConfig::default());
            assert!(BinaryExtractor::default().extract(&text).is_empty());
        }
    }
}

/// `len` bytes of text with no run, sled or address region of its own.
fn pangram(len: usize) -> Vec<u8> {
    const TEXT: &[u8] = b"the quick brown fox jumps over the lazy dog. ";
    TEXT.iter().copied().cycle().take(len).collect()
}

#[test]
fn thresholds_are_met_exactly_like_the_oracle() {
    let reason = |p: &[u8]| {
        let frames = assert_same_frames(p, ExtractorConfig::default());
        frames.first().map_or("none", |f| f.reason)
    };
    // Runs of 63/64/65 with tails of 15/16/17 (a run of `Q`, `push ecx`,
    // is a sled first).
    for byte in [b'Q', 0x00] {
        for run in 63..=65usize {
            for tail in 15..=17usize {
                let mut p = pangram(200);
                p.extend(std::iter::repeat_n(byte, run));
                p.extend(std::iter::repeat_n(b'z', tail));
                let expected = match byte {
                    b'Q' => "NOP-like sled",
                    _ if run >= 64 && tail >= 16 => "suspicious repetition",
                    _ => "none",
                };
                assert_eq!(reason(&p), expected, "{byte:#x} × {run}, tail {tail}");
            }
        }
    }
    // Return-address regions of 7/8/9 dwords at every phase.
    for phase in 0..4usize {
        for count in 7..=9u32 {
            for base in [0u32, 0xffff_ff00, 0xbfff_f400, 0x0000_0100] {
                let mut p = vec![b'k'; phase];
                for lsb in 0..count {
                    p.extend_from_slice(&(base | lsb).to_le_bytes());
                }
                p.extend(pangram(200));
                let address = base != 0 && base != 0xffff_ff00;
                let expected = if address && count >= 8 {
                    "repeated return-address region"
                } else {
                    "none"
                };
                assert_eq!(reason(&p), expected, "{count} × {base:#x} at phase {phase}");
            }
        }
    }
    // Sleds of 23/24/25 multi-byte NOPs.
    for insns in 23..=25usize {
        let mut p = b"USER x\r\n".to_vec();
        for i in 0..insns {
            p.extend_from_slice(if i % 2 == 0 {
                &[0x66, 0x90]
            } else {
                &[0x0f, 0x1f, 0xc0]
            });
        }
        p.extend(pangram(200));
        let expected = if insns >= 24 { "NOP-like sled" } else { "none" };
        assert_eq!(reason(&p), expected, "{insns} instructions");
    }
}

#[test]
fn the_families_reach_every_rule() {
    // The differential below is only as strong as its inputs: under the
    // default thresholds the families must fire every rule and none.
    let mut reasons = std::collections::BTreeMap::new();
    for family in 0..8u8 {
        for seed in 0..64u64 {
            let frames = Oracle {
                config: ExtractorConfig::default(),
            }
            .extract(&payload(family, seed));
            let reason = frames.last().map_or("none", |f| f.reason);
            *reasons.entry(reason).or_insert(0usize) += 1;
        }
    }
    for reason in [
        "none",
        "unicode-encoded binary in URI",
        "low printable ratio",
        "NOP-like sled",
        "repeated return-address region",
        "suspicious repetition",
        "suspicious repetition in URI",
    ] {
        assert!(
            reasons.contains_key(reason),
            "{reason:?} never fired: {reasons:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Frames are those of the four-pass oracle on every payload family,
    /// under default and small thresholds.
    #[test]
    fn extract_matches_the_four_pass_oracle(
        family in 0..8u8,
        seed in any::<u64>(),
        small in any::<bool>(),
    ) {
        assert_same_frames(&payload(family, seed), config(small, seed));
    }

    /// The sled walk and the scan's dword count agree with their oracles
    /// at every threshold, not only at the configured ones.
    #[test]
    fn sled_and_region_tests_match_their_oracles(family in 0..8u8, seed in any::<u64>()) {
        let data = payload(family, seed);
        for min in 0..32usize {
            let sled = find_sled(&data, min).map(|s| (s.start, s.len, s.insns));
            prop_assert_eq!(sled, oracle_find_sled(&data, min));
        }
        let scan = ByteScan::of(&data);
        for min in 2..16usize {
            prop_assert_eq!(
                scan.retaddr_dwords >= min,
                oracle_find_retaddr_region(&data, min).is_some()
            );
        }
        prop_assert_eq!(scan.printable_ratio(), oracle_printable_ratio(&data));
        prop_assert_eq!(
            scan.longest.map(|r| (r.start, r.len)),
            oracle_longest_run(&data).map(|r| (r.start, r.len))
        );
    }
}
