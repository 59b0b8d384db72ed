//! Property-based tests for the semantic engine: the obfuscation-invariance
//! guarantees the paper claims, checked over randomized rewritings.

use proptest::prelude::*;
use snids_semantic::{Analyzer, NaiveAnalyzer};

/// Build a minimal xor decoder over pointer register `ptr` (0–7, excluding
/// ESP which can't be a plain [reg] base in real decoders) with key `key`
/// and advance step `step`.
fn decoder(ptr: u8, key: u8, step: u8) -> Vec<u8> {
    // xor byte [r], key ; add r, step ; loop -len
    let mut v = vec![0x80, 0x30 | ptr, key]; // xor byte [r], imm8
    v.extend_from_slice(&[0x83, 0xc0 | ptr, step]); // add r, imm8
    let body = v.len() as i8 + 2;
    v.extend_from_slice(&[0xe2, (-body) as u8]); // loop to 0
    v
}

/// Single-byte NOP-like instructions ADMmutate-style engines use for
/// padding (must not touch the decoder's pointer register EAX..EDI choice).
fn nop_like_pool(exclude: u8) -> Vec<u8> {
    let mut pool = vec![
        0x90, 0xf8, 0xf9, 0xfc, 0x98, 0x99, 0x9e, 0x9f, 0x27, 0x2f, 0x37, 0x3f,
    ];
    // inc/dec of registers other than the pointer (and not ESP).
    for r in 0..8u8 {
        if r != exclude && r != 4 {
            pool.push(0x40 | r);
        }
    }
    pool
}

proptest! {
    /// The analyzer is total on arbitrary bytes (no panics, bounded work).
    #[test]
    fn analyze_total(buf in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = Analyzer::default().analyze(&buf);
    }

    /// Register reassignment invariance: the decoder is detected for every
    /// choice of pointer register (the paper's Figure 1 equivalence).
    #[test]
    fn register_reassignment_invariance(ptr in 0u8..8, key in 1u8.., step in 1u8..8) {
        // [esp]/[ebp] need SIB/disp forms, and ECX cannot be the pointer of
        // a LOOP-closed decoder (the loop counter would fight the advance).
        prop_assume!(ptr != 4 && ptr != 5 && ptr != 1);
        let code = decoder(ptr, key, step);
        prop_assert!(
            Analyzer::default().detects(&code),
            "decoder on reg {ptr} key {key:#x} step {step} missed"
        );
    }

    /// NOP-insertion invariance: sprinkling NOP-like single-byte
    /// instructions between the decoder's instructions never hides it.
    #[test]
    fn nop_insertion_invariance(
        pads in proptest::collection::vec((any::<u8>(), 0usize..4), 3..3 + 1),
        key in 1u8..,
    ) {
        // decoder on EBX: xor [ebx], key / inc ebx / loop
        let pool = nop_like_pool(3);
        let parts: [&[u8]; 3] = [&[0x80, 0x33, key], &[0x43], &[]];
        let mut code = Vec::new();
        for (i, part) in parts.iter().enumerate() {
            code.extend_from_slice(part);
            let (seed, n) = pads[i];
            for k in 0..n {
                code.push(pool[(seed as usize + k) % pool.len()]);
            }
        }
        // close the loop back to offset 0
        let rel = -(code.len() as i8 + 2);
        code.extend_from_slice(&[0xe2, rel as u8]);
        prop_assert!(
            Analyzer::default().detects(&code),
            "padded decoder missed: {code:02x?}"
        );
    }

    /// Pruned and naive analyzers agree on detection for planted decoders
    /// surrounded by random (non-clobbering) prefix bytes of printable text.
    #[test]
    fn pruned_matches_naive_on_planted_decoders(
        prefix in proptest::collection::vec(0x20u8..0x7e, 0..32),
        key in 1u8..,
    ) {
        let mut buf = prefix.clone();
        let base = buf.len();
        // decoder on esi with an absolute loop target back to its own start
        buf.extend_from_slice(&[0x80, 0x36, key]); // xor [esi], key
        buf.push(0x46); // inc esi
        let rel = -(((buf.len() + 2) - base) as i8);
        buf.extend_from_slice(&[0xe2, rel as u8]);

        let naive = NaiveAnalyzer::default().detects(&buf);
        let pruned = Analyzer::default().detects(&buf);
        prop_assert!(naive, "naive must always find the planted decoder");
        prop_assert!(pruned, "pruned must match naive on planted decoders");
    }

    /// Pure printable-ASCII payloads never alert (a weak no-FP guarantee the
    /// FP experiment strengthens with realistic corpora).
    #[test]
    fn printable_ascii_is_silent(buf in proptest::collection::vec(0x20u8..0x7f, 0..512)) {
        prop_assert!(Analyzer::default().analyze(&buf).is_empty());
    }
}

/// Differential lock for the arena path (`snids_ir::FrameCode` shared by
/// start discovery, trace building and both matchers): the analyzer's
/// results equal a reference that decodes and lifts afresh for every start
/// (`snids_ir::oracle`), unifies every template against every trace, and
/// runs the slice rules over the same traces.
mod arena_differential {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use snids_gen::{codered, shellcode, AdmMutate, Clet};
    use snids_ir::dataflow::{self, DataflowBudget};
    use snids_ir::{oracle, Trace};
    use snids_semantic::matcher::DEFAULT_BUDGET;
    use snids_semantic::{
        compile_slice, default_templates, match_slice, match_template, Analyzer, AnalyzerConfig,
        TemplateMatch,
    };
    use snids_x86::{Reg, SweepBudget};

    fn corpus() -> Vec<Vec<u8>> {
        let mut rng = StdRng::seed_from_u64(0xa7e4a);
        let mut frames = Vec::new();
        for i in 0..24 {
            let inner = shellcode::execve_variant(&mut rng, i % 3);
            frames.push(inner.clone());
            frames.push(AdmMutate::default().generate(&mut rng, &inner).0);
            frames.push(Clet::default().generate(&mut rng, &inner));
        }
        for _ in 0..4 {
            frames.push(codered::exploit_vector(&mut rng));
        }
        for _ in 0..24 {
            let len = rng.gen_range(1..300);
            frames.push((0..len).map(|_| rng.gen()).collect());
        }
        frames
    }

    fn push_unique(out: &mut Vec<TemplateMatch>, m: TemplateMatch) {
        if !out
            .iter()
            .any(|x| x.template == m.template && x.start == m.start)
        {
            out.push(m);
        }
    }

    /// (fast matches, slice matches, sweep exhausted, dataflow exhausted)
    fn reference(
        frame: &[u8],
        config: &AnalyzerConfig,
    ) -> (Vec<TemplateMatch>, Vec<TemplateMatch>, bool, bool) {
        let templates = default_templates();
        let outcome = oracle::starts(frame, &config.sweep_budget);
        let (mut fast, mut slices, mut dataflow_exhausted) = (Vec::new(), Vec::new(), false);
        for &start in &outcome.starts {
            let ops = oracle::trace_ops(frame, start, config.max_trace_ops);
            let trace = Trace::from_ops(start, ops);
            for tmpl in &templates {
                let mut budget = config.budget_per_trace;
                if let Some(info) = match_template(&trace, tmpl, &mut budget) {
                    let named = |(i, g): (usize, &Option<snids_x86::Gpr>)| {
                        g.map(|g| (i as u8, Reg::r32(g).to_string()))
                    };
                    let valued = |(i, c): (usize, &Option<u32>)| c.map(|c| (i as u8, c));
                    let m = TemplateMatch {
                        template: tmpl.name,
                        severity: tmpl.severity,
                        start: info.start_offset(&trace),
                        end: info.end_offset(&trace),
                        trace_start: start,
                        bound_regs: info
                            .bindings
                            .regs
                            .iter()
                            .enumerate()
                            .filter_map(named)
                            .collect(),
                        consts: info
                            .bindings
                            .consts
                            .iter()
                            .enumerate()
                            .filter_map(valued)
                            .collect(),
                    };
                    push_unique(&mut fast, m);
                }
            }
            let df = dataflow::analyze(&trace, &config.dataflow_budget);
            dataflow_exhausted |= df.exhausted;
            for tmpl in &templates {
                let hit =
                    compile_slice(tmpl).and_then(|rule| match_slice(tmpl, &rule, &trace, &df));
                if let Some(m) = hit {
                    push_unique(&mut slices, m);
                }
            }
        }
        (fast, slices, outcome.exhausted, dataflow_exhausted)
    }

    #[test]
    fn arena_analysis_agrees_with_the_per_start_reference() {
        let capped = |max_instructions, max_bytes| SweepBudget {
            max_instructions,
            max_bytes,
        };
        let configs = [
            AnalyzerConfig::default(),
            AnalyzerConfig {
                sweep_budget: capped(6, usize::MAX),
                ..AnalyzerConfig::default()
            },
            AnalyzerConfig {
                sweep_budget: capped(usize::MAX, 24),
                max_trace_ops: 9,
                dataflow_budget: DataflowBudget {
                    max_ops: 5,
                    max_links: 8,
                },
                budget_per_trace: DEFAULT_BUDGET,
            },
        ];
        let (mut fast_hits, mut slice_hits) = (0, 0);
        for config in configs {
            let analyzer = Analyzer::default().with_config(config.clone());
            for frame in corpus() {
                let (fast, slices, sweep_exhausted, dataflow_exhausted) =
                    reference(&frame, &config);
                let got = analyzer.analyze_frame(&frame);
                assert_eq!(got.matches, fast, "fast pass over {frame:02x?}");
                assert_eq!(got.sweep_exhausted, sweep_exhausted);
                let (timed, _) = analyzer.analyze_frame_timed(&frame);
                assert_eq!(timed.matches, fast);
                assert_eq!(
                    analyzer.detects(&frame),
                    !analyzer.analyze(&frame).is_empty()
                );
                let got = analyzer.analyze_frame_slices(&frame);
                assert_eq!(got.matches, slices, "slice pass over {frame:02x?}");
                assert_eq!(got.sweep_exhausted, sweep_exhausted);
                assert_eq!(got.dataflow_exhausted, dataflow_exhausted);
                fast_hits += fast.len();
                slice_hits += slices.len();
            }
        }
        assert!(
            fast_hits > 48 && slice_hits > 0,
            "{fast_hits} / {slice_hits}"
        );
    }
}
