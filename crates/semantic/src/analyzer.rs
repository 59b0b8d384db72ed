//! Analysis drivers: the pruned production analyzer and the exhaustive
//! naive analyzer used as the stand-in for `[5]` in the efficiency
//! experiments.

use crate::matcher::{match_template, MatchInfo, DEFAULT_BUDGET};
use crate::pattern::{Severity, Template};
use crate::slice::{compile_slice, match_slice, SliceRule};
use crate::templates::default_templates;
use serde::{Deserialize, Serialize};
use snids_ir::dataflow::DataflowBudget;
use snids_ir::{FrameCode, Trace};
use snids_x86::SweepBudget;
use std::ops::ControlFlow;
use std::time::Instant;

/// When the dataflow/slice pass runs relative to the instruction-run
/// matcher (the `--dataflow` pipeline knob).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum DataflowMode {
    /// Never: seed behaviour, instruction-run matching only.
    Off,
    /// Only on *near-miss* frames — the fast pass found nothing but the
    /// flow showed reassembly conflicts, so the view may be corrupted.
    /// This keeps the benign hot path flat (benign flows have no
    /// conflicts) and is the default.
    #[default]
    NearMiss,
    /// On every frame the fast pass leaves unmatched.
    On,
}

impl DataflowMode {
    /// Stable CLI/metric name.
    pub fn name(self) -> &'static str {
        match self {
            DataflowMode::Off => "off",
            DataflowMode::NearMiss => "near-miss",
            DataflowMode::On => "on",
        }
    }

    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Option<DataflowMode> {
        match s {
            "off" => Some(DataflowMode::Off),
            "near-miss" | "nearmiss" => Some(DataflowMode::NearMiss),
            "on" => Some(DataflowMode::On),
            _ => None,
        }
    }
}

/// A reported template match on a binary frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TemplateMatch {
    /// Which template matched.
    pub template: &'static str,
    /// The template's severity.
    pub severity: Severity,
    /// Byte offset of the first matched instruction in the frame.
    pub start: usize,
    /// Byte offset just past the last matched instruction.
    pub end: usize,
    /// The trace start offset that exposed the behaviour.
    pub trace_start: usize,
    /// Variable bindings as `(var, register name)` pairs.
    pub bound_regs: Vec<(u8, String)>,
    /// Symbolic-constant bindings as `(id, value)` pairs.
    pub consts: Vec<(u8, u32)>,
}

impl TemplateMatch {
    /// Serialize to a JSON object. Hand-rolled, but *escaped*: template
    /// names come from the operator DSL (any non-whitespace bytes,
    /// including quotes and control characters), so they go through
    /// [`snids_obs::json::escape`]. Register names are from a fixed
    /// internal table and need no escaping.
    pub fn to_json(&self) -> String {
        let regs: Vec<String> = self
            .bound_regs
            .iter()
            .map(|(v, r)| format!("[{v},\"{r}\"]"))
            .collect();
        let consts: Vec<String> = self
            .consts
            .iter()
            .map(|(id, val)| format!("[{id},{val}]"))
            .collect();
        format!(
            "{{\"template\":\"{}\",\"severity\":\"{}\",\"start\":{},\"end\":{},\"trace_start\":{},\"bound_regs\":[{}],\"consts\":[{}]}}",
            snids_obs::json::escape(self.template),
            self.severity,
            self.start,
            self.end,
            self.trace_start,
            regs.join(","),
            consts.join(","),
        )
    }
}

fn to_match(tmpl: &Template, trace: &Trace, info: &MatchInfo) -> TemplateMatch {
    let bound_regs = info
        .bindings
        .regs
        .iter()
        .enumerate()
        .filter_map(|(i, g)| g.map(|g| (i as u8, snids_x86::Reg::r32(g).to_string())))
        .collect();
    let consts = info
        .bindings
        .consts
        .iter()
        .enumerate()
        .filter_map(|(i, c)| c.map(|c| (i as u8, c)))
        .collect();
    TemplateMatch {
        template: tmpl.name,
        severity: tmpl.severity,
        start: info.start_offset(trace),
        end: info.end_offset(trace),
        trace_start: trace.start,
        bound_regs,
        consts,
    }
}

/// Shared configuration for both analyzers.
#[derive(Debug, Clone)]
pub struct AnalyzerConfig {
    /// Matcher step budget per (trace, template) pair.
    pub budget_per_trace: usize,
    /// Cap on trace length.
    pub max_trace_ops: usize,
    /// Disassembly budget for start discovery over one frame. When it
    /// runs out, [`Analyzer::analyze_frame`] flags the frame as
    /// `sweep_exhausted` so the pipeline can account a decoder bailout.
    pub sweep_budget: SweepBudget,
    /// Work bound for the dataflow/slice pass over one trace. When it
    /// runs out, [`Analyzer::analyze_frame_slices`] flags the frame as
    /// `dataflow_exhausted` so the pipeline can account the truncation.
    pub dataflow_budget: DataflowBudget,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            budget_per_trace: DEFAULT_BUDGET,
            max_trace_ops: snids_ir::trace::MAX_TRACE_OPS,
            sweep_budget: SweepBudget::default(),
            dataflow_budget: DataflowBudget::default(),
        }
    }
}

/// Wall nanoseconds one frame spent in each analysis stage (see
/// [`Analyzer::analyze_frame_timed`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTiming {
    /// Start discovery (the budgeted disassembly sweep).
    pub decode_nanos: u64,
    /// Lifting decoded instructions to IR traces.
    pub lift_nanos: u64,
    /// Template unification over the lifted traces.
    pub match_nanos: u64,
}

/// Everything the analyzer learned about one frame: the matches, plus
/// whether analysis was complete or budget-truncated.
#[derive(Debug, Clone)]
pub struct FrameAnalysis {
    /// Deduplicated template matches.
    pub matches: Vec<TemplateMatch>,
    /// True when the [`SweepBudget`] expired before start discovery
    /// covered the whole frame — detection over this frame is partial.
    pub sweep_exhausted: bool,
}

/// Everything the dataflow/slice pass learned about one frame.
#[derive(Debug, Clone)]
pub struct SliceAnalysis {
    /// Deduplicated slice matches (same shape as fast-pass matches).
    pub matches: Vec<TemplateMatch>,
    /// True when start discovery was budget-truncated.
    pub sweep_exhausted: bool,
    /// True when some trace's [`DataflowBudget`] expired — slice evidence
    /// over this frame is partial and the pipeline should account it.
    pub dataflow_exhausted: bool,
}

/// The pruned analyzer: traces start only at offset 0, resynchronisation
/// points and branch targets ([`snids_ir::default_starts`]). This is the
/// efficiency improvement over `[5]`'s exhaustive scanning that the paper
/// claims in contribution (b).
#[derive(Debug, Clone)]
pub struct Analyzer {
    templates: Vec<Template>,
    /// Decoder templates compiled to dataflow predicates, as
    /// `(template index, rule)` pairs (see [`crate::slice`]).
    slice_rules: Vec<(usize, SliceRule)>,
    config: AnalyzerConfig,
}

impl Default for Analyzer {
    fn default() -> Self {
        Analyzer::new(default_templates())
    }
}

impl Analyzer {
    /// Analyzer over a custom template set.
    pub fn new(templates: Vec<Template>) -> Self {
        let slice_rules = templates
            .iter()
            .enumerate()
            .filter_map(|(i, t)| compile_slice(t).map(|r| (i, r)))
            .collect();
        Analyzer {
            templates,
            slice_rules,
            config: AnalyzerConfig::default(),
        }
    }

    /// Override the work bounds.
    pub fn with_config(mut self, config: AnalyzerConfig) -> Self {
        self.config = config;
        self
    }

    /// The template set in use.
    pub fn templates(&self) -> &[Template] {
        &self.templates
    }

    /// Analyze one binary frame, reporting all (deduplicated) matches.
    pub fn analyze(&self, frame: &[u8]) -> Vec<TemplateMatch> {
        let (mut code, outcome) = FrameCode::discover(frame, &SweepBudget::UNBOUNDED);
        self.fast_pass(&mut code, &outcome.starts, |_| {})
    }

    /// Analyze one frame under the configured [`SweepBudget`], reporting
    /// matches *and* whether the budget truncated start discovery. The
    /// pipeline uses this to attribute `decoder_bailout` drops at frame
    /// granularity instead of silently degrading detection.
    pub fn analyze_frame(&self, frame: &[u8]) -> FrameAnalysis {
        let (mut code, outcome) = FrameCode::discover(frame, &self.config.sweep_budget);
        FrameAnalysis {
            matches: self.fast_pass(&mut code, &outcome.starts, |_| {}),
            sweep_exhausted: outcome.exhausted,
        }
    }

    /// Run the dataflow/slice pass over one frame: build the dataflow
    /// summary of every candidate trace and match the compiled slice rules
    /// against it (see [`crate::slice`]). This is the second-chance pass
    /// the pipeline runs on near-miss frames — frames where the
    /// instruction-run matcher found nothing but the view may be corrupted
    /// by reassembly conflicts.
    pub fn analyze_frame_slices(&self, frame: &[u8]) -> SliceAnalysis {
        let (mut code, outcome) = FrameCode::discover(frame, &self.config.sweep_budget);
        let mut matches: Vec<TemplateMatch> = Vec::new();
        let mut dataflow_exhausted = false;
        if !self.slice_rules.is_empty() {
            self.walk(
                &mut code,
                &outcome.starts,
                |_| {},
                |trace| {
                    let df = snids_ir::dataflow::analyze(trace, &self.config.dataflow_budget);
                    dataflow_exhausted |= df.exhausted;
                    for (ti, rule) in &self.slice_rules {
                        if let Some(m) = match_slice(&self.templates[*ti], rule, trace, &df) {
                            push_unique(&mut matches, m);
                        }
                    }
                    ControlFlow::Continue(())
                },
            );
        }
        SliceAnalysis {
            matches,
            sweep_exhausted: outcome.exhausted,
            dataflow_exhausted,
        }
    }

    /// [`Analyzer::analyze_frame`] with per-stage wall time reported back,
    /// so an instrumenting caller can attribute the frame's cost to start
    /// discovery (decode), IR lifting, and template matching without this
    /// crate knowing about metrics. It is the same walk with a clock read
    /// at each stage boundary, a little slower than the untimed path; call
    /// it only when observing.
    pub fn analyze_frame_timed(&self, frame: &[u8]) -> (FrameAnalysis, StageTiming) {
        let mut timing = StageTiming::default();
        let t0 = Instant::now();
        let (mut code, outcome) = FrameCode::discover(frame, &self.config.sweep_budget);
        // Clock reads are chained (a stage's end is the next stage's
        // start): two per start, none of them double-counted.
        let mut mark = Instant::now();
        timing.decode_nanos = (mark - t0).as_nanos() as u64;
        let matches = self.fast_pass(&mut code, &outcome.starts, |lap| {
            let now = Instant::now();
            let spent = (now - mark).as_nanos() as u64;
            match lap {
                Lap::Traced => timing.lift_nanos += spent,
                Lap::Visited => timing.match_nanos += spent,
            }
            mark = now;
        });
        (
            FrameAnalysis {
                matches,
                sweep_exhausted: outcome.exhausted,
            },
            timing,
        )
    }

    /// True if any template matches — the detection fast path (stops at the
    /// first hit).
    pub fn detects(&self, frame: &[u8]) -> bool {
        let (mut code, outcome) = FrameCode::discover(frame, &SweepBudget::UNBOUNDED);
        self.walk(
            &mut code,
            &outcome.starts,
            |_| {},
            |trace| match self.unify(trace).next() {
                Some(_) => ControlFlow::Break(()),
                None => ControlFlow::Continue(()),
            },
        )
    }

    /// Every template that matches `trace`, in template order.
    fn unify<'a>(
        &'a self,
        trace: &'a Trace,
    ) -> impl Iterator<Item = (&'a Template, MatchInfo)> + 'a {
        self.templates.iter().filter_map(move |tmpl| {
            let mut budget = self.config.budget_per_trace;
            match_template(trace, tmpl, &mut budget).map(|info| (tmpl, info))
        })
    }

    /// The one per-start loop behind every entry point: build the trace
    /// from each start over the shared arena and hand it to `visit`, until
    /// `visit` breaks (then the result is `true`). `lap` is told when a trace has been built and when
    /// `visit` has returned, so the timed entry point is this same loop
    /// with a clock in the hook.
    fn walk(
        &self,
        code: &mut FrameCode<'_>,
        starts: &[usize],
        mut lap: impl FnMut(Lap),
        mut visit: impl FnMut(&Trace) -> ControlFlow<()>,
    ) -> bool {
        let mut trace = Trace::default();
        for &start in starts {
            code.trace_into(start, self.config.max_trace_ops, &mut trace);
            lap(Lap::Traced);
            let flow = visit(&trace);
            lap(Lap::Visited);
            if flow.is_break() {
                return true;
            }
        }
        false
    }

    /// The instruction-run pass: every template against every trace,
    /// deduplicated.
    fn fast_pass(
        &self,
        code: &mut FrameCode<'_>,
        starts: &[usize],
        lap: impl FnMut(Lap),
    ) -> Vec<TemplateMatch> {
        let mut matches = Vec::new();
        self.walk(code, starts, lap, |trace| {
            for (tmpl, info) in self.unify(trace) {
                push_unique(&mut matches, to_match(tmpl, trace, &info));
            }
            ControlFlow::Continue(())
        });
        matches
    }
}

/// The stage boundaries [`Analyzer::walk`] reports to its lap hook.
enum Lap {
    /// A trace has been built (decode on demand, lift, annotate).
    Traced,
    /// The visitor has returned (template or slice matching).
    Visited,
}

/// Report a match once per (template, first matched offset).
fn push_unique(out: &mut Vec<TemplateMatch>, m: TemplateMatch) {
    if !out
        .iter()
        .any(|x| x.template == m.template && x.start == m.start)
    {
        out.push(m);
    }
}

/// The exhaustive analyzer: a trace from **every byte offset**, the way a
/// host-based scanner with no entry-point knowledge must operate. Stands in
/// for `[5]` in the Table 1 / ablation timing comparisons.
#[derive(Debug, Clone, Default)]
pub struct NaiveAnalyzer {
    inner: Analyzer,
}

impl NaiveAnalyzer {
    /// Naive analyzer over a custom template set.
    pub fn new(templates: Vec<Template>) -> Self {
        NaiveAnalyzer {
            inner: Analyzer::new(templates),
        }
    }

    /// Analyze one frame from every byte offset.
    pub fn analyze(&self, frame: &[u8]) -> Vec<TemplateMatch> {
        let starts: Vec<usize> = (0..frame.len()).collect();
        self.inner
            .fast_pass(&mut FrameCode::new(frame), &starts, |_| {})
    }

    /// Exhaustive detection (no early exit across starts, matching `[5]`'s
    /// full-program verification behaviour).
    pub fn detects(&self, frame: &[u8]) -> bool {
        !self.analyze(frame).is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates;

    fn shell_code() -> Vec<u8> {
        vec![
            0x31, 0xc0, 0x50, //
            0x68, 0x2f, 0x2f, 0x73, 0x68, //
            0x68, 0x2f, 0x62, 0x69, 0x6e, //
            0x89, 0xe3, 0x50, 0x53, 0x89, 0xe1, 0x31, 0xd2, //
            0xb0, 0x0b, 0xcd, 0x80,
        ]
    }

    #[test]
    fn analyzer_reports_shell_spawn() {
        let a = Analyzer::default();
        let ms = a.analyze(&shell_code());
        assert!(
            ms.iter().any(|m| m.template == "linux-shell-spawn"),
            "{ms:?}"
        );
        assert!(a.detects(&shell_code()));
    }

    #[test]
    fn analyzer_is_silent_on_benign_data() {
        let a = Analyzer::default();
        // ASCII text
        let text = b"GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n";
        assert!(a.analyze(text).is_empty());
        // zeros and simple structure
        let zeros = vec![0u8; 512];
        assert!(a.analyze(&zeros).is_empty());
    }

    #[test]
    fn naive_and_pruned_agree_on_detection() {
        let code = [0x80, 0x30, 0x95, 0x40, 0xe2, 0xfa];
        let pruned = Analyzer::default().analyze(&code);
        let naive = NaiveAnalyzer::default().analyze(&code);
        assert!(!pruned.is_empty());
        assert!(!naive.is_empty());
        assert!(naive.len() >= pruned.len());
    }

    /// The decoder hidden mid-buffer behind garbage: the naive analyzer must
    /// find it, and the pruned analyzer must too (via resync starts).
    #[test]
    fn decoder_found_mid_buffer() {
        let mut buf = vec![0x00u8, 0x00, 0x0f, 0xff]; // junk incl. bad byte
        buf.extend_from_slice(&[0x80, 0x30, 0x95, 0x40, 0xe2, 0xfa]);
        let naive = NaiveAnalyzer::default().analyze(&buf);
        assert!(naive.iter().any(|m| m.template.starts_with("xor-decrypt")));
        let pruned = Analyzer::default().analyze(&buf);
        assert!(
            pruned.iter().any(|m| m.template.starts_with("xor-decrypt")),
            "pruned starts must recover the decoder: {pruned:?}"
        );
    }

    #[test]
    fn dedup_suppresses_repeat_reports() {
        let code = shell_code();
        let a = Analyzer::default();
        let ms = a.analyze(&code);
        let mut keys: Vec<_> = ms.iter().map(|m| (m.template, m.start)).collect();
        keys.sort_unstable();
        let before = keys.len();
        keys.dedup();
        assert_eq!(before, keys.len());
    }

    #[test]
    fn xor_only_set_misses_alt_decoder() {
        let alt = [
            0x8a, 0x1e, 0x80, 0xcb, 0xa0, 0x80, 0xe3, 0xcf, 0xf6, 0xd3, 0x88, 0x1e, 0x46, 0xe2,
            0xf1,
        ];
        let xor_only = Analyzer::new(templates::xor_only_templates());
        assert!(!xor_only.detects(&alt), "xor-only must miss the alt scheme");
        let full = Analyzer::default();
        assert!(full.detects(&alt), "full set must catch it");
    }

    #[test]
    fn timed_analysis_agrees_with_untimed() {
        let a = Analyzer::default();
        for frame in [&shell_code()[..], b"GET / HTTP/1.0\r\n\r\n"] {
            let plain = a.analyze_frame(frame);
            let (timed, timing) = a.analyze_frame_timed(frame);
            assert_eq!(plain.matches, timed.matches);
            assert_eq!(plain.sweep_exhausted, timed.sweep_exhausted);
            // decode always runs; lift/match only when starts exist.
            let _ = timing.decode_nanos + timing.lift_nanos + timing.match_nanos;
        }
    }

    #[test]
    fn hostile_template_names_serialize_as_valid_json() {
        let m = TemplateMatch {
            template: Box::leak("bad\"name\\with\n\u{1}ctl-π".to_string().into_boxed_str()),
            severity: Severity::High,
            start: 0,
            end: 4,
            trace_start: 0,
            bound_regs: Vec::new(),
            consts: Vec::new(),
        };
        let json = m.to_json();
        assert!(
            json.contains("bad\\\"name\\\\with\\n\\u0001ctl-π"),
            "{json}"
        );
        assert!(
            !json.bytes().any(|b| b < 0x20),
            "raw control byte in {json}"
        );
    }

    #[test]
    fn match_report_fields_are_sane() {
        let code = [0x80, 0x30, 0x95, 0x40, 0xe2, 0xfa];
        let ms = Analyzer::default().analyze(&code);
        let m = ms
            .iter()
            .find(|m| m.template == "xor-decrypt-loop")
            .unwrap();
        assert_eq!(m.start, 0);
        assert_eq!(m.end, 6);
        assert_eq!(m.severity, Severity::High);
        assert_eq!(m.bound_regs, vec![(0, "eax".to_string())]);
        // serializes for the alert sink
        let json = m.to_json();
        assert!(json.contains("\"template\":\"xor-decrypt-loop\""));
        assert!(json.contains("\"bound_regs\":[[0,\"eax\"]]"));
    }
}
