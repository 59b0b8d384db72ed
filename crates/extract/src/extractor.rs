//! The binary detection & extraction stage: payload in, binary frames out.

use crate::http::HttpRequest;
use crate::repetition::{longest_run, ByteScan};
use crate::sled::find_sled;
use crate::unicode::{count_unicode_groups, decode_region};
use serde::{Deserialize, Serialize};

/// Where a frame was carved from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FrameOrigin {
    /// Decoded from an HTTP request URI (`%uXXXX` or raw overflow tail).
    HttpUri,
    /// Carved from an HTTP request body.
    HttpBody,
    /// Carved from a non-HTTP payload.
    Raw,
}

/// A "special binary frame" handed to the disassembler stage.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinaryFrame {
    /// The binary data (decoded where the carrier was an encoding).
    pub data: Vec<u8>,
    /// Provenance.
    pub origin: FrameOrigin,
    /// Offset within the source payload where the frame's carrier started.
    pub offset: usize,
    /// Which heuristic triggered the extraction.
    pub reason: &'static str,
}

/// Tunables for the extraction heuristics.
#[derive(Debug, Clone)]
pub struct ExtractorConfig {
    /// Minimum single-byte repetition run considered "suspicious
    /// repetition" rather than acceptable protocol usage.
    pub min_repetition_run: usize,
    /// Minimum `%uXXXX` group count before a URI is treated as carrying
    /// encoded binary.
    pub min_unicode_groups: usize,
    /// Payloads whose printable ratio is below this are treated as binary.
    pub max_printable_ratio: f64,
    /// Minimum consecutive NOP-like instructions for sled detection.
    pub min_sled_insns: usize,
    /// Minimum repeated return addresses for region detection.
    pub min_retaddr_count: usize,
    /// Cap on emitted frame size.
    pub max_frame_bytes: usize,
}

impl Default for ExtractorConfig {
    fn default() -> Self {
        ExtractorConfig {
            min_repetition_run: 64,
            min_unicode_groups: 8,
            max_printable_ratio: 0.75,
            min_sled_insns: 24,
            min_retaddr_count: 8,
            max_frame_bytes: 64 * 1024,
        }
    }
}

/// The extraction stage.
#[derive(Debug, Clone, Default)]
pub struct BinaryExtractor {
    config: ExtractorConfig,
}

impl BinaryExtractor {
    /// Extractor with custom thresholds.
    pub fn new(config: ExtractorConfig) -> Self {
        BinaryExtractor { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ExtractorConfig {
        &self.config
    }

    /// Extract candidate binary frames from one application payload.
    ///
    /// An empty result means "acceptable protocol usage" — nothing is
    /// handed to the CPU-intensive stages.
    pub fn extract(&self, payload: &[u8]) -> Vec<BinaryFrame> {
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

        if count_unicode_groups(req.uri) >= self.config.min_unicode_groups {
            // Decode every %u region in the URI into one frame (the regions
            // are contiguous binary once decoded).
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
        } else if let Some(r) =
            longest_run(req.uri).filter(|r| r.len >= self.config.min_repetition_run)
        {
            // Overflow filler followed by a raw payload tail.
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
        // One pass over the bytes feeds rules 1, 3 and 4; the sled walk of
        // rule 2 is the only other pass.
        let scan = ByteScan::of(data);
        // 1. Overwhelmingly binary content: take it whole.
        if scan.printable_ratio() < self.config.max_printable_ratio {
            return vec![BinaryFrame {
                data: self.cap(data),
                origin,
                offset: base,
                reason: "low printable ratio",
            }];
        }
        // 2. A NOP sled inside otherwise-printable data.
        if let Some(sled) = find_sled(data, self.config.min_sled_insns) {
            let frame = &data[sled.start..];
            return vec![BinaryFrame {
                data: self.cap(frame),
                origin,
                offset: base + sled.start,
                reason: "NOP-like sled",
            }];
        }
        // 3. A return-address region: carve from the payload start (the
        //    shellcode precedes the addresses in the classic layout).
        if scan.retaddr_dwords >= self.config.min_retaddr_count.max(2) {
            return vec![BinaryFrame {
                data: self.cap(data),
                origin,
                offset: base,
                reason: "repeated return-address region",
            }];
        }
        // 4. Suspicious repetition followed by a meaningful tail.
        if let Some(r) = scan.longest {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn extractor() -> BinaryExtractor {
        BinaryExtractor::default()
    }

    fn code_red_request() -> Vec<u8> {
        let mut req = b"GET /default.ida?".to_vec();
        req.extend_from_slice(&[b'X'; 224]);
        for _ in 0..16 {
            req.extend_from_slice(b"%u9090%u6858%ucbd3%u7801");
        }
        req.extend_from_slice(b"%u00=a HTTP/1.0\r\nHost: victim\r\n\r\n");
        req
    }

    #[test]
    fn code_red_uri_decodes_to_binary_frame() {
        let frames = extractor().extract(&code_red_request());
        assert_eq!(frames.len(), 1);
        let f = &frames[0];
        assert_eq!(f.origin, FrameOrigin::HttpUri);
        assert_eq!(f.reason, "unicode-encoded binary in URI");
        // 16 repetitions × 4 groups × 2 bytes
        assert_eq!(f.data.len(), 16 * 4 * 2);
        assert_eq!(&f.data[..4], &[0x90, 0x90, 0x58, 0x68]);
    }

    #[test]
    fn benign_requests_yield_nothing() {
        let benign: &[&[u8]] = &[
            b"GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n",
            b"GET /search?q=hello+world&lang=en HTTP/1.1\r\nHost: s\r\n\r\n",
            b"POST /form HTTP/1.0\r\nContent-Type: text/plain\r\n\r\nname=alice&age=30",
            // percent-encoding in moderation is normal
            b"GET /p?x=%20%41%42 HTTP/1.1\r\nHost: e\r\n\r\n",
        ];
        for req in benign {
            assert!(
                extractor().extract(req).is_empty(),
                "false extraction on {:?}",
                String::from_utf8_lossy(&req[..40.min(req.len())])
            );
        }
    }

    #[test]
    fn plain_text_payload_yields_nothing() {
        let text = b"From: alice@example.com\r\nSubject: lunch?\r\n\r\nSee you at noon.";
        assert!(extractor().extract(text).is_empty());
        assert!(extractor().extract(&[]).is_empty());
    }

    #[test]
    fn binary_payload_is_taken_whole() {
        let mut payload = vec![0x90u8; 64];
        payload.extend_from_slice(&[0x31, 0xc0, 0x50, 0xcd, 0x80]);
        let frames = extractor().extract(&payload);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].origin, FrameOrigin::Raw);
        assert_eq!(frames[0].offset, 0);
    }

    #[test]
    fn sled_in_printable_carrier_is_found() {
        // mostly-printable payload with an embedded sled + code
        let mut payload = b"USER anonymous\r\nPASS ".to_vec();
        payload.extend_from_slice(&[b'a'; 40]); // printable, NOT sled-safe (popa)
        let sled_start = payload.len();
        payload.extend_from_slice(&[0x90; 30]);
        payload.extend_from_slice(&[0x31, 0xc0, 0xcd, 0x80]);
        // keep printable ratio high so rule 1 doesn't trigger first
        // ('b' = BOUND, not sled-safe, so the trailing pad is inert)
        payload.extend_from_slice(&[b'b'; 120]);
        let frames = extractor().extract(&payload);
        assert_eq!(frames.len(), 1, "{frames:?}");
        assert_eq!(frames[0].reason, "NOP-like sled");
        assert_eq!(frames[0].offset, sled_start);
    }

    #[test]
    fn http_body_with_binary_is_extracted() {
        let mut req = b"POST /upload HTTP/1.0\r\nContent-Type: app/raw\r\n\r\n".to_vec();
        let body_start = req.len();
        req.extend_from_slice(&[0x80, 0x30, 0x95, 0x40, 0xe2, 0xfa, 0x00, 0x01, 0x02, 0x03]);
        let frames = extractor().extract(&req);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].origin, FrameOrigin::HttpBody);
        assert_eq!(frames[0].offset, body_start);
    }

    #[test]
    fn repetition_with_binary_tail_in_uri() {
        let mut req = b"GET /vuln.cgi?arg=".to_vec();
        req.extend_from_slice(&[b'A'; 300]);
        let tail_src = [
            0xbfu8, 0xf0, 0xfd, 0x7f, 0xbf, 0xf0, 0xfd, 0x7f, 0x31, 0xc0, 0x50, 0x68, 0x2f, 0x2f,
            0x73, 0x68, 0x68, 0x2f, 0x62, 0x69, 0x6e,
        ];
        req.extend_from_slice(&tail_src);
        req.extend_from_slice(b" HTTP/1.0\r\n\r\n");
        let frames = extractor().extract(&req);
        assert_eq!(frames.len(), 1, "{frames:?}");
        assert_eq!(frames[0].origin, FrameOrigin::HttpUri);
        assert_eq!(frames[0].data, tail_src);
    }

    #[test]
    fn frame_size_is_capped() {
        let config = ExtractorConfig {
            max_frame_bytes: 128,
            ..ExtractorConfig::default()
        };
        let big = vec![0x01u8; 4096];
        let frames = BinaryExtractor::new(config).extract(&big);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].data.len(), 128);
    }

    #[test]
    fn retaddr_region_triggers_extraction() {
        // printable padding + shellcode-free but address-laden payload
        let mut payload = b"login: ".to_vec();
        for i in 0..10u32 {
            payload.extend_from_slice(&(0xbfff_f500u32 | i).to_le_bytes());
        }
        // pad printable to keep ratio above threshold ('c' = ARPL, inert)
        payload.extend_from_slice(&[b'c'; 200]);
        let frames = extractor().extract(&payload);
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].reason, "repeated return-address region");
    }
}
