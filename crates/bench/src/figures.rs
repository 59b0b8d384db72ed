//! Figure reproductions (1–7): each returns a printable demonstration and
//! a boolean "shape holds" verdict the tests assert.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snids_core::{Nids, NidsConfig};
use snids_extract::BinaryExtractor;
use snids_gen::traces::{codered_capture, AddressPlan};
use snids_gen::{codered, shellcode, AdmMutate, DecoderFamily, OverflowExploit, SCENARIOS};
use snids_ir::trace_from;
use snids_semantic::{match_template, templates, Analyzer};
use snids_x86::{fmt, linear_sweep};
use std::fmt::Write as _;

/// The three Figure-1 routines (byte-exact where the paper shows them).
pub fn figure1_routines() -> [(&'static str, Vec<u8>); 3] {
    let a = vec![0x80, 0x30, 0x95, 0x40, 0xe2, 0xfa];
    let b = vec![
        0xbb, 0x31, 0, 0, 0, 0x83, 0xc3, 0x64, 0x30, 0x18, 0x83, 0xc0, 0x01, 0xe2, 0xf1,
    ];
    let mut c = Vec::new();
    c.extend_from_slice(&[0xb9, 0, 0, 0, 0, 0x41, 0x41]);
    c.extend_from_slice(&[0xeb, 0x05]);
    c.extend_from_slice(&[0x83, 0xc0, 0x01, 0xeb, 0x0c]);
    c.extend_from_slice(&[
        0xbb, 0x31, 0, 0, 0, 0x83, 0xc3, 0x64, 0x30, 0x18, 0xeb, 0xef,
    ]);
    c.extend_from_slice(&[0xe2, 0xe4]);
    [
        ("Figure 1(a): simple xor decryption", a),
        ("Figure 1(b): obfuscated key, inc→add", b),
        ("Figure 1(c): out-of-order with jmps", c),
    ]
}

/// Figure 1: render the three routines and verify one template matches all.
pub fn fig1() -> (String, bool) {
    let template = templates::builtin("xor-decrypt-loop").expect("built-in template");
    let mut out = String::new();
    let mut all = true;
    for (name, code) in figure1_routines() {
        let _ = writeln!(out, "--- {name} ---");
        let _ = write!(out, "{}", fmt::listing(&code, &linear_sweep(&code)));
        let trace = trace_from(&code, 0, 4096);
        let mut budget = 1_000_000;
        let hit = match_template(&trace, &template, &mut budget).is_some();
        all &= hit;
        let _ = writeln!(out, "  ⊨ {}\n", if hit { "matches" } else { "NO MATCH" });
    }
    (out, all)
}

/// Figure 2: the template next to a matching obfuscated segment, with the
/// unified variable bindings.
pub fn fig2() -> (String, bool) {
    let template = templates::builtin("xor-decrypt-loop").expect("built-in template");
    let code = figure1_routines()[1].1.clone();
    let trace = trace_from(&code, 0, 4096);
    let mut budget = 1_000_000;
    let mut out = String::new();
    let _ = writeln!(out, "{}", template.pretty());
    let _ = writeln!(out, "matched assembly segment:");
    let _ = write!(out, "{}", fmt::listing(&code, &linear_sweep(&code)));
    match match_template(&trace, &template, &mut budget) {
        Some(info) => {
            for (i, g) in info.bindings.regs.iter().enumerate() {
                if let Some(g) = g {
                    let _ = writeln!(out, "  binding: X{i} = {g:?}");
                }
            }
            let _ = writeln!(
                out,
                "  matched instruction offsets: {:?}",
                info.matched
                    .iter()
                    .map(|&i| trace.ops[i].offset)
                    .collect::<Vec<_>>()
            );
            (out, true)
        }
        None => (out + "NO MATCH\n", false),
    }
}

/// Figure 3: the architecture, demonstrated as a per-stage latency
/// breakdown over a synthesized capture.
pub fn fig3(seed: u64) -> (String, bool) {
    let plan = AddressPlan::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let (packets, _) = codered_capture(&mut rng, &plan, 4000, 2);
    let mut nids = Nids::new(NidsConfig {
        honeypots: plan.honeypots.clone(),
        dark_nets: vec![(plan.dark_net, 16)],
        ..NidsConfig::default()
    });
    let alerts = nids.process_capture(&packets);
    let s = nids.stats();
    let mut out = String::new();
    let _ = writeln!(out, "pipeline stages (paper Figure 3), one capture:");
    let _ = writeln!(
        out,
        "  (a) traffic classifier        {:>10.2} ms  ({} packets)",
        s.classify_nanos as f64 / 1e6,
        s.packets
    );
    let _ = writeln!(
        out,
        "  (b) binary detection/extract  (within analysis)  {} frames",
        s.frames_extracted
    );
    let _ = writeln!(
        out,
        "      flow reassembly           {:>10.2} ms  ({} suspicious packets)",
        s.reassembly_nanos as f64 / 1e6,
        s.suspicious_packets
    );
    let _ = writeln!(
        out,
        "  (c,d,e) disasm + IR + match   {:>10.2} ms  ({} flows)",
        s.analysis_nanos as f64 / 1e6,
        s.flows_analyzed
    );
    let _ = writeln!(out, "  alerts: {}", alerts.len());
    let prune = 1.0 - s.suspicious_ratio();
    let _ = writeln!(
        out,
        "  classifier pruned {:.1}% of packets from the expensive stages",
        prune * 100.0
    );
    (out, !alerts.is_empty() && prune > 0.5)
}

/// Figure 4: the buffer-overflow layout, built and then re-discovered by
/// the extraction stage.
pub fn fig4(seed: u64) -> (String, bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sc = shellcode::execve_variant(&mut rng, 0);
    let exploit = OverflowExploit::new(sc);
    let (bytes, layout) = exploit.build(&mut rng);
    let mut out = String::new();
    let _ = writeln!(out, "figure 4 layout (lowest address first):");
    let _ = writeln!(
        out,
        "  [0x{:04x}..0x{:04x}]  NOP-like sled ({} bytes)",
        0, layout.sled_len, layout.sled_len
    );
    let _ = writeln!(
        out,
        "  [0x{:04x}..0x{:04x}]  shellcode ({} bytes)",
        layout.sled_len,
        layout.sled_len + layout.payload_len,
        layout.payload_len
    );
    let _ = writeln!(
        out,
        "  [0x{:04x}..0x{:04x}]  return addresses ({} bytes, LSB varies)",
        layout.sled_len + layout.payload_len,
        layout.total(),
        layout.ret_len
    );
    let frames = BinaryExtractor::default().extract(&bytes);
    let ok = frames.len() == 1
        && Analyzer::default()
            .analyze(&frames[0].data)
            .iter()
            .any(|m| m.template == "linux-shell-spawn");
    let _ = writeln!(
        out,
        "\nextraction: {} frame(s), reason: {}",
        frames.len(),
        frames.first().map(|f| f.reason).unwrap_or("-")
    );
    let _ = writeln!(
        out,
        "semantic verdict: {}",
        if ok {
            "shell-spawning behaviour found"
        } else {
            "MISSED"
        }
    );
    (out, ok)
}

/// Figure 5: the Code Red II request and its decoded binary.
pub fn fig5(seed: u64) -> (String, bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let req = codered::request(&mut rng);
    let text = String::from_utf8_lossy(&req);
    let mut out = String::new();
    let _ = writeln!(out, "request (truncated):");
    let _ = writeln!(out, "  {}…", &text[..120.min(text.len())]);
    let frames = BinaryExtractor::default().extract(&req);
    let ok = if let Some(f) = frames.first() {
        let _ = writeln!(out, "\ndecoded %u binary ({} bytes):", f.data.len());
        let insns = linear_sweep(&f.data);
        let _ = write!(
            out,
            "{}",
            fmt::listing(&f.data, &insns[..insns.len().min(10)])
        );
        Analyzer::default()
            .analyze(&f.data)
            .iter()
            .any(|m| m.template == "code-red-ii")
    } else {
        false
    };
    let _ = writeln!(
        out,
        "semantic verdict: {}",
        if ok { "code-red-ii matched" } else { "MISSED" }
    );
    (out, ok)
}

/// Figure 6: the Linux shell-spawning template, validated against all
/// eight Table-1 exploits.
pub fn fig6(seed: u64) -> (String, bool) {
    let template = templates::builtin("linux-shell-spawn").expect("built-in template");
    let mut out = template.pretty();
    let extractor = BinaryExtractor::default();
    let analyzer = Analyzer::default();
    let mut hits = 0;
    for (i, sc) in SCENARIOS.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i as u64));
        let payload = sc.build_payload(&mut rng);
        let hit = extractor.extract(&payload).iter().any(|f| {
            analyzer
                .analyze(&f.data)
                .iter()
                .any(|m| m.template == "linux-shell-spawn")
        });
        hits += usize::from(hit);
        let _ = writeln!(
            out,
            "  {:<24} {}",
            sc.name,
            if hit { "⊨ matches" } else { "NO MATCH" }
        );
    }
    (out, hits == SCENARIOS.len())
}

/// Figure 7: the alternate ADMmutate decoder template, validated against
/// forced load/store-family instances.
pub fn fig7(seed: u64) -> (String, bool) {
    let template = templates::builtin("admmutate-alt-decoder").expect("built-in template");
    let mut out = template.pretty();
    let engine = AdmMutate::default();
    let analyzer = Analyzer::default();
    let xor_only = Analyzer::new(templates::xor_only_templates());
    let mut rng = StdRng::seed_from_u64(seed);
    let inner = shellcode::execve_variant(&mut rng, 0);
    let mut full_hits = 0;
    let mut xor_hits = 0;
    const N: usize = 20;
    for _ in 0..N {
        let instance = engine.generate_family(&mut rng, &inner, DecoderFamily::LoadStore);
        full_hits += usize::from(analyzer.detects(&instance));
        xor_hits += usize::from(xor_only.detects(&instance));
    }
    let _ = writeln!(out, "  {N} forced alternate-decoder instances:");
    let _ = writeln!(out, "    xor template only : {xor_hits}/{N}");
    let _ = writeln!(out, "    with Fig-7 template: {full_hits}/{N}");
    (out, full_hits == N && xor_hits == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_figures_hold() {
        assert!(fig1().1, "fig1");
        assert!(fig2().1, "fig2");
        assert!(fig4(1).1, "fig4");
        assert!(fig5(1).1, "fig5");
        assert!(fig6(1).1, "fig6");
        assert!(fig7(1).1, "fig7");
    }

    #[test]
    fn fig3_pipeline_breakdown_holds() {
        let (out, ok) = fig3(1);
        assert!(ok, "{out}");
        assert!(out.contains("traffic classifier"));
    }
}
