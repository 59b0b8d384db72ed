//! The repo's one benchmark: pcap → alerts throughput on four long
//! workloads, with a per-layer table. See `benchmark/README.md`.
//!
//! ```text
//! snids-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                 [--smoke] [--selfcheck]
//! ```
//!
//! With `--workload` one workload runs and the last line of standard
//! output is the result object. Without it every workload runs, each in a
//! process of its own, untraced and then traced. An untraced run in turn
//! hands every pass to a process of its own (`--engine-pass`, internal):
//! that is how a user runs `snids analyze`, once per process.

use snids_benchmark::measure::{self, engine_pass, quartiles, Drive, Pass, PassReport, Quartiles};
use snids_benchmark::report::{self, END_TO_END, PER_LAYER};
use snids_benchmark::workloads::{self, Capture, Verdicts};
use snids_benchmark::{staged, trace};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::Ipv4Addr;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// Seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 2006;
/// Measuring time per run when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;
/// Measured passes never fall below this, however short `--seconds` is.
const MIN_PASSES: usize = 5;
/// Offending sources listed per kind when the gate fails.
const MAX_LISTED: usize = 16;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    selfcheck: bool,
    /// Internal: be the child that runs one pass of the pcap on stdin.
    engine_pass: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        selfcheck: false,
        engine_pass: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if !workloads::NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload `{name}` (want one of {})",
                        workloads::NAMES.join(", ")
                    ));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed wants a whole number".to_string())?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds wants a positive number".to_string())?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace wants 0 or 1".into()),
                };
            }
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            "--engine-pass" => args.engine_pass = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// What one workload's run reports on its last line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
}

/// The correctness gate's running state over the passes of one run.
struct Gate {
    /// Digest every alert stream must equal (the first pass's).
    digest: Option<u64>,
    verdicts: Verdicts,
    /// Failures that void the whole run, as printed.
    broken: Vec<String>,
}

impl Gate {
    fn new() -> Gate {
        Gate {
            digest: None,
            verdicts: Verdicts::default(),
            broken: Vec::new(),
        }
    }

    /// Check one pass: ledgers balanced (`true` from the staged driver,
    /// which keeps none), alert stream identical to every earlier one; the
    /// first pass is judged against the ground truth.
    fn check(
        &mut self,
        capture: &Capture,
        what: &str,
        ledgers_balanced: bool,
        digest: u64,
        alerted: &BTreeSet<Ipv4Addr>,
    ) {
        if !ledgers_balanced {
            self.broken
                .push(format!("{what}: record/packet ledger unbalanced"));
        }
        match self.digest {
            None => {
                self.digest = Some(digest);
                self.verdicts = workloads::judge(capture, alerted);
            }
            Some(first) if first != digest => self.broken.push(format!(
                "{what}: alerts_digest {digest:#018x} differs from the first pass's {first:#018x}"
            )),
            Some(_) => {}
        }
    }

    /// Print the gate's findings and fold them into the result.
    fn conclude(self, capture: &Capture, metrics: Vec<(&'static str, f64)>) -> Outcome {
        let failed = self.verdicts.failed();
        let attempted = capture.flows.max(1);
        println!(
            "  verdict_fail_share  {} share  ({failed} failed / {attempted} flows)",
            report::json_number(failed as f64 / attempted as f64)
        );
        println!(
            "  alerts_digest       {:#018x}",
            self.digest.unwrap_or_default()
        );
        for (kind, sources) in [
            ("planted attack raised no alert", &self.verdicts.missed),
            ("non-attack source alerted", &self.verdicts.false_alerts),
        ] {
            if !sources.is_empty() {
                let listed: Vec<String> = sources
                    .iter()
                    .take(MAX_LISTED)
                    .map(|s| s.to_string())
                    .collect();
                println!(
                    "  FAILED {kind}: {} of {} listed: {}",
                    listed.len(),
                    sources.len(),
                    listed.join(" ")
                );
            }
        }
        for b in &self.broken {
            println!("  BROKEN {b}");
        }
        if self.broken.is_empty() {
            println!("  ledgers balanced, alert stream identical across passes");
        }
        Outcome {
            correct: failed == 0 && self.broken.is_empty(),
            attempted,
            failed,
            metrics,
        }
    }
}

fn print_quartiles(name: &str, unit: &str, q: &Quartiles) {
    println!(
        "  {name:<18}  median {} {unit}  (q1 {}, q3 {}, n = {})",
        report::json_number(q.median),
        report::json_number(q.q1),
        report::json_number(q.q3),
        q.n
    );
}

fn generate(args: &Args, name: &str) -> Capture {
    let t0 = Instant::now();
    let capture = workloads::generate(name, args.seed, args.smoke)
        .expect("the workload name was checked while parsing arguments");
    let gen_s = t0.elapsed().as_secs_f64();
    println!(
        "workload {name}: {} packets, {} wire bytes, {} flows, {} planted, pcap_digest {:#018x}, gen_s {}",
        capture.packets,
        capture.wire_bytes,
        capture.flows,
        capture.attack_flows.len(),
        capture.digest,
        report::json_number(gen_s),
    );
    capture
}

/// Be the child of [`child_pass`]: read the pcap from standard input, run
/// it once the way `snids analyze` does, print the pass's report.
fn engine_pass_child(name: &str) -> Result<bool, String> {
    let mut pcap = Vec::new();
    std::io::stdin()
        .lock()
        .read_to_end(&mut pcap)
        .map_err(|e| format!("cannot read the pcap from standard input: {e}"))?;
    let pass = engine_pass(&pcap, &workloads::config(name), Drive::Capture);
    let rss = measure::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    println!("{}", PassReport::of(pass, rss).to_line());
    Ok(true)
}

/// Run one pass of the capture in a process of its own, as a user runs
/// `snids analyze` once: the heap is fresh, the engine's set-up is cold,
/// and the resident set never held the generator. This process only waits
/// meanwhile, so nothing runs beside the engine.
fn child_pass(name: &str, capture: &Capture) -> Result<PassReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--engine-pass", "--workload", name])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start a pass of {name}: {e}"))?;
    let written = child
        .stdin
        .take()
        .expect("standard input was piped")
        .write_all(&capture.pcap);
    // The pipe is closed by now; this waits for the child whatever happened.
    let output = child
        .wait_with_output()
        .map_err(|e| format!("cannot wait for a pass of {name}: {e}"))?;
    written.map_err(|e| format!("cannot hand the pcap to a pass of {name}: {e}"))?;
    if !output.status.success() {
        return Err(format!("a pass of {name} ended with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    PassReport::from_line(stdout.lines().last().unwrap_or_default())
        .ok_or(format!("a pass of {name} printed no report"))
}

/// The untraced run: obs off, engine at its default thread count, every
/// pass in a process of its own. One warm-up pass, then measured passes of
/// fixed work until `--seconds` have passed; every end-to-end metric is a
/// median over the passes.
fn run_untraced(args: &Args, name: &str) -> Result<Outcome, String> {
    let capture = generate(args, name);
    let packets = capture.packets as f64;
    let mut gate = Gate::new();
    let one_pass = |gate: &mut Gate| -> Result<PassReport, String> {
        let pass = child_pass(name, &capture)?;
        gate.check(
            &capture,
            "untraced pass",
            pass.ledgers_balanced,
            pass.alerts_digest,
            &pass.alerted,
        );
        Ok(pass)
    };
    one_pass(&mut gate)?;
    let (mut pps, mut cpu, mut rss, mut setup) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while pps.len() < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
        let pass = one_pass(&mut gate)?;
        pps.push(packets / pass.region_s);
        cpu.push(pass.cpu_nanos as f64 / packets);
        rss.push(pass.peak_rss_mb);
        setup.push(pass.setup_s);
    }

    let medians = [
        ("pps", quartiles(&pps)),
        ("cpu_ns_per_pkt", quartiles(&cpu)),
        ("peak_rss_mb", quartiles(&rss)),
        ("setup_s", quartiles(&setup)),
    ];
    for (metric, q) in &medians {
        print_quartiles(metric, report::unit_of(metric), q);
        if *metric == "pps" {
            println!(
                "  wire_mb_per_s       {} MB/s  (pps x {} mean packet bytes)",
                report::json_number(q.median * capture.mean_packet_bytes() / 1e6),
                report::json_number(capture.mean_packet_bytes())
            );
        }
    }
    Ok(gate.conclude(
        &capture,
        medians.iter().map(|(m, q)| (*m, q.median)).collect(),
    ))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median(values: &[f64]) -> f64 {
    quartiles(values).median
}

/// The traced run, all in this process: per round, the engine at its
/// default thread count with obs off and then on, the engine pinned to one
/// thread plain and then with every `process_packet` call timed, and the
/// staged driver. Rounds repeat until `--seconds` have passed; times are
/// medians over rounds.
fn run_traced(args: &Args, name: &str) -> Outcome {
    let capture = generate(args, name);
    let one_thread = snids_core::NidsConfig {
        parallel: false,
        ..capture.config.clone()
    };
    let observed = snids_core::NidsConfig {
        observability: true,
        ..capture.config.clone()
    };
    let packets = capture.packets as f64;
    let mut gate = Gate::new();

    // name -> one value per round
    let mut samples: Vec<(&'static str, Vec<f64>)> =
        PER_LAYER.iter().map(|(n, _)| (*n, Vec::new())).collect();
    let mut record = |name: &str, value: f64| {
        samples
            .iter_mut()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the per-layer table"))
            .1
            .push(value);
    };
    // pps per round: engine at default threads, at 1 thread, staged driver
    let mut walls: [Vec<f64>; 3] = Default::default();
    let mut first_trace: Option<trace::Recorder> = None;
    let mut calls = 0usize;
    let mut divergence_cause = String::new();
    // (layer, the driver's nanoseconds, the 1-thread engine's own), last round
    let mut cross_check = [("", 0u64, 0u64); 4];

    let started = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || started.elapsed().as_secs_f64() < args.seconds {
        rounds += 1;
        let mut engine = |what: &str, config: &snids_core::NidsConfig, drive: Drive| -> Pass {
            let pass = engine_pass(&capture.pcap, config, drive);
            gate.check(
                &capture,
                what,
                pass.ledgers_balanced(),
                pass.alerts_digest,
                &pass.alerted,
            );
            pass
        };
        let plain = engine("default-thread pass", &capture.config, Drive::Capture);
        let obs = engine("obs-on pass", &observed, Drive::Capture);
        let single = engine("1-thread pass", &one_thread, Drive::Capture);
        let mut timed = engine("1-thread timed-calls pass", &one_thread, Drive::TimedCalls);
        let mut recorder = trace::Recorder::new();
        let replay = staged::replay(&capture, &mut recorder);
        gate.check(
            &capture,
            "staged replay",
            true,
            replay.alerts_digest,
            &replay.alerted,
        );
        first_trace.get_or_insert(recorder);

        let l = &replay.layers;
        let per = |nanos: u64, count: u64| ratio(nanos as f64, count as f64);
        record("packet.parse_ns_per_pkt", per(l.parse_nanos, l.records));
        record(
            "packet.checksum_ns_per_pkt",
            per(l.checksum_nanos, l.records),
        );
        record("packet.errors", l.packet_errors as f64);
        record("classify.ns_per_pkt", per(l.classify_nanos, l.classified));
        record("classify.suspicious_share", per(l.suspicious, l.classified));
        record(
            "prefilter.ns_per_pkt",
            per(l.prefilter_nanos, l.prefilter_calls),
        );
        record(
            "prefilter.reject_share",
            per(l.prefilter_rejected, l.prefilter_calls),
        );
        record("flow.track_ns_per_pkt", per(l.track_nanos, l.tracked));
        record("flow.defrag_ns_per_frag", per(l.defrag_nanos, l.fragments));
        record("flow.peak_live", l.peak_live as f64);
        record("flow.shed", l.shed as f64);
        record("flow.conflict_bytes", l.conflict_bytes as f64);
        record("flow.peak_tracked_bytes", l.peak_tracked_bytes as f64);
        record("extract.ns_per_byte", per(l.extract_nanos, l.extract_bytes));
        record("extract.frames_per_flow", per(l.frames, l.flows));
        record("x86.ns_per_insn", per(l.x86_nanos, l.insns));
        record("x86.sweep_ns_per_insn", per(l.sweep_nanos, l.insns));
        record("x86.insns", l.insns as f64);
        record("x86.bailouts", l.bailouts as f64);
        record("ir.lift_ns_per_insn", per(l.lift_nanos, l.insns));
        record(
            "ir.dataflow_ns_per_flow",
            per(l.dataflow_nanos, l.dataflow_flows),
        );
        record("semantic.match_ns_per_frame", per(l.match_nanos, l.frames));
        record("semantic.match_share", per(l.frames_matched, l.frames));
        record("semantic.dup_frame_share", per(l.dup_frames, l.frames));

        timed.call_nanos.sort_unstable();
        calls = timed.call_nanos.len();
        record(
            "core.call_p50_ns",
            measure::percentile(&timed.call_nanos, 50.0) as f64,
        );
        record(
            "core.call_p99_ns",
            measure::percentile(&timed.call_nanos, 99.0) as f64,
        );
        record(
            "core.call_max_ns",
            timed.call_nanos.last().copied().unwrap_or(0) as f64,
        );
        record("core.finish_s", timed.finish_s);
        // Like with like: the engine's `process_capture` against the
        // driver's layers after parsing. (`decode_all` holds the whole
        // capture, the driver parses 1024 packets at a time; that
        // difference is printed in the cross-check, not booked as glue.)
        record(
            "core.glue_share",
            1.0 - ratio(
                (l.busy_nanos() - l.parse_nanos) as f64 / 1e9,
                single.process_s,
            ),
        );
        let s = &single.stats;
        cross_check = [
            (
                "packet.parse",
                l.parse_nanos,
                (single.decode_s * 1e9) as u64,
            ),
            ("classify", l.classify_nanos, s.classify_nanos),
            ("prefilter", l.prefilter_nanos, s.prefilter_nanos),
            ("flow.track", l.track_nanos, s.reassembly_nanos),
        ];

        // Fidelity: the driver's counts against the engine's own ledger.
        let pairs = [
            ("suspicious packets", l.suspicious, s.suspicious_packets),
            (
                "prefilter-rejected packets",
                l.prefilter_rejected,
                s.prefilter_rejected,
            ),
            ("flows analyzed", l.flows, s.flows_analyzed),
            ("frames extracted", l.frames, s.frames_extracted),
            ("frame bytes", l.frame_bytes, s.frame_bytes),
            ("alerts", l.alerts, s.alerts),
        ];
        let mut worst = 0.0f64;
        for (what, driver, engine) in pairs {
            let d = driver.abs_diff(engine) as f64 / engine.max(1) as f64;
            if d > worst {
                worst = d;
                divergence_cause = format!("{what}: driver {driver}, engine {engine}");
            }
        }
        record("core.replay_divergence", worst);

        record(
            "exec.busy_share",
            ratio(
                plain.pool.busy_nanos as f64 / 1e9,
                plain.process_s * plain.pool.threads as f64,
            ),
        );
        record("exec.tasks", plain.pool.tasks as f64);
        record("exec.steals", plain.pool.steals as f64);
        record("obs.overhead", ratio(obs.region_s(), plain.region_s()));
        record("trace.overhead", ratio(replay.wall_s, single.region_s()));

        for (slot, seconds) in
            walls
                .iter_mut()
                .zip([plain.region_s(), single.region_s(), replay.wall_s])
        {
            slot.push(packets / seconds);
        }
    }
    println!(
        "  engine, default threads: {} pps; 1 thread: {} pps; staged driver: {} pps",
        report::json_number(median(&walls[0])),
        report::json_number(median(&walls[1])),
        report::json_number(median(&walls[2])),
    );

    println!("  per-layer table (median over {rounds} round(s), engine pinned to 1 thread):");
    let metrics: Vec<(&'static str, f64)> = samples
        .iter()
        .map(|(name, values)| (*name, median(values)))
        .collect();
    for (name, value) in &metrics {
        let note = match *name {
            "core.call_p99_ns" => format!("  (n = {calls} calls)"),
            "core.glue_share" if *value < -0.05 => "  (replay slower than engine)".into(),
            "core.replay_divergence" if *value > 0.0 => format!("  ({divergence_cause})"),
            _ => String::new(),
        };
        println!(
            "    {name:<28} {} {}{note}",
            report::json_number(*value),
            report::unit_of(name)
        );
    }
    println!("  cross-check, last round: the driver's clocks against the 1-thread engine's own");
    println!("  (`decode_all` wall for packet.parse, `PipelineStats` nanoseconds for the rest):");
    for (layer, driver, engine) in cross_check {
        println!("    {layer:<14} driver {driver:>14} ns   engine {engine:>14} ns");
    }
    if let Some(recorder) = &first_trace {
        println!("  self time by span (first round):");
        for (span, nanos, count) in recorder.self_times() {
            if count > 0 {
                println!("    {span:<20} {nanos:>14} ns over {count} span(s)");
            }
        }
        let size = if args.smoke { ".smoke" } else { "" };
        let written = out_dir().and_then(|dir| {
            let path = dir.join(format!("trace.{name}{size}.json"));
            std::fs::create_dir_all(&dir)
                .and_then(|()| std::fs::write(&path, recorder.to_json(name, args.seed)))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            Ok(path)
        });
        match written {
            Ok(path) => println!(
                "  trace: {} spans written to {}",
                recorder.spans().len(),
                path.display()
            ),
            Err(e) => gate.broken.push(e),
        }
    }
    gate.conclude(&capture, metrics)
}

/// Where the traces go: `benchmark/out` in the checkout this process runs
/// in, found at run time as the nearest directory at or above the current
/// one that holds `BENCHMARK.json`.
fn out_dir() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| format!("no current directory: {e}"))?;
    cwd.ancestors()
        .find(|d| d.join("BENCHMARK.json").is_file())
        .map(|root| root.join("benchmark").join("out"))
        .ok_or(format!(
            "no BENCHMARK.json at or above {}: run from inside the checkout",
            cwd.display()
        ))
}

/// What the parent keeps of one workload's run in a child process.
struct ChildRun {
    ok: bool,
    metrics: Vec<(String, f64)>,
    alerts_digest: String,
    pcap_digest: String,
}

/// Run one workload in a child process, pass its report through, and
/// parse its result line and the digests it printed.
fn run_child(args: &Args, name: &str, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child to end.
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    let parsed = snids_obs::json::parse(last)
        .ok_or(format!("{name}: the last line is not a result object"))?;
    let metrics = parsed
        .get("metrics")
        .and_then(|m| m.as_obj())
        .ok_or(format!("{name}: the result has no metrics"))?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    let field = |label: &str| {
        stdout
            .split(label)
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_default()
            .trim_end_matches(',')
            .to_string()
    };
    Ok(ChildRun {
        ok: output.status.success()
            && parsed.get("correct").and_then(|c| c.as_bool()) == Some(true),
        metrics,
        alerts_digest: field("alerts_digest "),
        pcap_digest: field("pcap_digest "),
    })
}

/// One full set of untraced runs: every workload in a process of its own.
fn untraced_set(args: &Args) -> Result<Vec<(&'static str, ChildRun)>, String> {
    workloads::NAMES
        .iter()
        .map(|name| run_child(args, name, false).map(|run| (*name, run)))
        .collect()
}

/// Every workload, untraced and then traced, each in its own process.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for name in workloads::NAMES {
        let untraced = run_child(args, name, false)?;
        let traced = run_child(args, name, true)?;
        ok &= untraced.ok && traced.ok;
        if untraced.alerts_digest != traced.alerts_digest {
            println!(
                "BROKEN {name}: alerts_digest differs between the untraced run ({}) and the traced run ({})",
                untraced.alerts_digest, traced.alerts_digest
            );
            ok = false;
        }
        println!();
    }
    Ok(ok)
}

/// Run the full untraced set twice on this build and hold the relative
/// difference of medians against each metric's bound, in either direction:
/// the same build moving by more than a bound, better or worse, means the
/// bound cannot tell a change from the host.
fn selfcheck(args: &Args) -> Result<bool, String> {
    println!(
        "selfcheck: a throwaway run first, so that neither set is the one that follows the build"
    );
    run_child(args, workloads::NAMES[0], false)?;
    let first = untraced_set(args)?;
    let second = untraced_set(args)?;
    let mut ok = true;
    println!("selfcheck: second set against first, relative change of medians (positive = worse)");
    for ((name, a), (_, b)) in first.iter().zip(&second) {
        ok &= a.ok && b.ok;
        for (what, x, y) in [
            ("alerts_digest", &a.alerts_digest, &b.alerts_digest),
            ("pcap_digest", &a.pcap_digest, &b.pcap_digest),
        ] {
            if x != y {
                println!("  BROKEN {name}: {what} {x} then {y}");
                ok = false;
            }
        }
        for m in &END_TO_END {
            let get = |run: &ChildRun| {
                run.metrics
                    .iter()
                    .find(|(k, _)| k == m.name)
                    .map(|(_, v)| *v)
                    .ok_or(format!("{name}: no {} in the result", m.name))
            };
            let (x, y) = (get(a)?, get(b)?);
            let worse = if m.higher_is_better {
                (x - y) / x
            } else {
                (y - x) / x
            };
            let verdict = if worse.abs() > m.bound {
                "EXCEEDS"
            } else {
                "within"
            };
            println!(
                "  {name:<12} {:<15} {:>14} -> {:>14} {:<4} {:+.4} {verdict} bound {}",
                m.name,
                report::json_number(x),
                report::json_number(y),
                m.unit,
                worse,
                m.bound
            );
            ok &= worse.abs() <= m.bound;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let passed = if args.engine_pass {
        match &args.workload {
            Some(name) => engine_pass_child(name),
            None => Err("--engine-pass needs --workload".into()),
        }
    } else if let Some(name) = args.workload.clone() {
        // Every workload's report, alone or as a child of the full set,
        // starts with what it was measured on.
        print!("{}", report::provenance(args.seed, args.smoke));
        let outcome = if args.trace {
            Ok(run_traced(&args, &name))
        } else {
            run_untraced(&args, &name)
        };
        let outcome = match outcome {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "{}",
            report::result_line(
                outcome.correct,
                outcome.attempted,
                outcome.failed,
                &outcome.metrics
            )
        );
        Ok(outcome.correct)
    } else if args.selfcheck {
        selfcheck(&args)
    } else {
        run_all(&args)
    };
    match passed {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
