//! `snids` — the command-line NIDS.
//!
//! ```sh
//! # analyze a capture
//! snids analyze trace.pcap --honeypot 192.168.1.200 --dark 10.99.0.0/16
//!
//! # analyze every payload regardless of classification (§5.4 mode)
//! snids analyze trace.pcap --no-classify
//!
//! # add operator-authored templates (see snids::semantic::dsl)
//! snids analyze trace.pcap --templates extra.tmpl
//!
//! # synthesize a ground-truth capture to play with
//! snids synth out.pcap --packets 5000 --crii 3
//!
//! # disassemble a binary frame and run the semantic analyzer over it
//! snids disasm payload.bin
//!
//! # replay with the pre-filter gate disabled (analyze everything)
//! snids analyze trace.pcap --prefilter off
//!
//! # cap buffered stream/fragment state at a global byte budget
//! snids analyze trace.pcap --memory-budget 64m
//!
//! # reassemble like the protected hosts' stacks
//! snids analyze trace.pcap --overlap-policy linux-like
//!
//! # control the dataflow second pass (slice matching + alternative
//! # stream views on desynced flows); near-miss is the default
//! snids analyze trace.pcap --dataflow on
//!
//! # print per-stage metrics and flight-recorder dumps after the run
//! snids analyze trace.pcap --metrics
//!
//! # serve /metrics (and /json) over HTTP while the replay runs
//! snids analyze trace.pcap --metrics-listen 127.0.0.1:9100
//! ```
//!
//! An unknown flag, a value-taking flag without a value, an unparsable
//! number and a `--chaos` rate outside [0, 1] are usage errors (exit 2).
#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use snids::core::{Nids, NidsConfig};
use snids::gen::chaos::{chaos_pcap, ChaosConfig};
use snids::gen::traces::{codered_capture, AddressPlan};
use snids::packet::{PcapReader, PcapWriter};
use snids::semantic::Analyzer;
use snids::x86::{fmt, linear_sweep_budgeted, SweepBudget};
use std::net::Ipv4Addr;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  snids analyze <pcap> [--honeypot IP]... [--dark NET/PREFIX]... [--templates FILE]... [--overlap-policy first-wins|last-wins|bsd-like|linux-like] [--dataflow on|off|near-miss] [--prefilter on|off] [--memory-budget BYTES[k|m|g]] [--no-classify] [--json] [--stats] [--metrics] [--metrics-listen ADDR]\n  snids synth <pcap> [--packets N] [--crii N] [--seed N] [--chaos RATE] [--flood N]\n  snids disasm <file>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // Resolve SNIDS_THREADS up front so an unusable value warns on stderr
    // even for runs that never construct the (lazy) global pool.
    snids::exec::default_threads();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => analyze(&args[1..]),
        Some("synth") => synth(&args[1..]),
        Some("disasm") => disasm(&args[1..]),
        _ => usage(),
    }
}

/// The value-taking flags of `snids analyze`.
const ANALYZE_VALUE_FLAGS: &[&str] = &[
    "--honeypot",
    "--dark",
    "--templates",
    "--overlap-policy",
    "--dataflow",
    "--prefilter",
    "--memory-budget",
    "--metrics-listen",
];

/// The switches (flags without a value) of `snids analyze`.
const ANALYZE_SWITCHES: &[&str] = &["--no-classify", "--json", "--stats", "--metrics"];

/// The value-taking flags of `snids synth`.
const SYNTH_VALUE_FLAGS: &[&str] = &["--packets", "--crii", "--seed", "--chaos", "--flood"];

/// Print a usage error and exit 2.
fn usage_error(message: &str) -> ExitCode {
    eprintln!("{message}");
    ExitCode::from(2)
}

/// Check that every flag in `value_flags` is followed by a value (an
/// argument that is not itself a `--flag`). Once this holds,
/// [`flag_values`] reads every value.
fn check_flag_values(args: &[String], value_flags: &[&str]) -> Result<(), String> {
    for (i, arg) in args.iter().enumerate() {
        if value_flags.contains(&arg.as_str())
            && args.get(i + 1).is_none_or(|v| v.starts_with("--"))
        {
            return Err(format!("{arg} needs a value"));
        }
    }
    Ok(())
}

/// Check that every `--flag` is one the command knows: a value-taking
/// flag or a switch. Run after [`check_flag_values`], so no value looks
/// like a flag.
fn check_known_flags(
    args: &[String],
    value_flags: &[&str],
    switches: &[&str],
) -> Result<(), String> {
    match args.iter().find(|a| {
        a.starts_with("--") && !value_flags.contains(&a.as_str()) && !switches.contains(&a.as_str())
    }) {
        Some(flag) => Err(format!("unknown flag {flag}")),
        None => Ok(()),
    }
}

fn flag_values<'a>(args: &'a [String], name: &str) -> Vec<&'a str> {
    args.windows(2)
        .filter(|w| w[0] == name)
        .map(|w| w[1].as_str())
        .collect()
}

/// The first value of `name` parsed as a number, or `default` when the
/// flag is absent.
fn flag_number<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag_values(args, name).first() {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad {name} `{v}` (want a number)")),
    }
}

/// Parse a byte count with an optional binary suffix: `65536`, `512k`,
/// `64M`, `1g` (case-insensitive).
fn parse_bytes(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, shift) = match s.as_bytes().last()? {
        b'k' | b'K' => (&s[..s.len() - 1], 10),
        b'm' | b'M' => (&s[..s.len() - 1], 20),
        b'g' | b'G' => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    digits
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_shl(shift).filter(|v| v >> shift == n))
}

fn analyze(args: &[String]) -> ExitCode {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return usage();
    };
    if let Err(e) = check_flag_values(args, ANALYZE_VALUE_FLAGS)
        .and_then(|()| check_known_flags(args, ANALYZE_VALUE_FLAGS, ANALYZE_SWITCHES))
    {
        return usage_error(&e);
    }
    let no_classify = args.iter().any(|a| a == "--no-classify");
    let json = args.iter().any(|a| a == "--json");
    let stats_report = args.iter().any(|a| a == "--stats");
    let metrics = args.iter().any(|a| a == "--metrics");
    let metrics_listen = flag_values(args, "--metrics-listen").first().copied();
    // Validate the listen address at parse time: a typo should fail with a
    // clear message (and a counted warning) before any work happens, not as
    // an opaque bind error mid-setup.
    if let Some(addr) = metrics_listen {
        use std::net::ToSocketAddrs;
        if addr
            .to_socket_addrs()
            .map(|mut it| it.next())
            .ok()
            .flatten()
            .is_none()
        {
            snids::obs::warn(&format!(
                "bad --metrics-listen `{addr}` (want HOST:PORT, e.g. 127.0.0.1:9100)"
            ));
            return ExitCode::from(2);
        }
    }

    let mut config = NidsConfig {
        classification_enabled: !no_classify,
        ..NidsConfig::default()
    };
    // Either metrics flag implies observability, whatever SNIDS_OBS says.
    if metrics || metrics_listen.is_some() {
        config.observability = true;
    }
    for path in flag_values(args, "--templates") {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read template file {path}: {e}");
                return ExitCode::from(2);
            }
        };
        match snids::semantic::parse_templates(&text) {
            Ok(ts) => {
                // Alerts dedup on the template name, so a second template
                // under a loaded name would merge into the first.
                if let Some(t) = ts
                    .iter()
                    .find(|t| config.templates.iter().any(|c| c.name == t.name))
                {
                    eprintln!("{path}: template `{}` is already loaded", t.name);
                    return ExitCode::from(2);
                }
                eprintln!("loaded {} template(s) from {path}", ts.len());
                config.templates.extend(ts);
            }
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    for hp in flag_values(args, "--honeypot") {
        match hp.parse::<Ipv4Addr>() {
            Ok(ip) => config.honeypots.push(ip),
            Err(_) => {
                eprintln!("bad --honeypot address: {hp}");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(name) = flag_values(args, "--overlap-policy").first() {
        match snids::flow::OverlapPolicy::parse(name) {
            Some(policy) => config.flow_table.overlap_policy = policy,
            None => {
                eprintln!(
                    "bad --overlap-policy `{name}` (want first-wins, last-wins, bsd-like or linux-like)"
                );
                return ExitCode::from(2);
            }
        }
    }
    if let Some(name) = flag_values(args, "--dataflow").first() {
        match snids::semantic::DataflowMode::parse(name) {
            Some(mode) => config.dataflow = mode,
            None => {
                eprintln!("bad --dataflow `{name}` (want on, off or near-miss)");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(mode) = flag_values(args, "--prefilter").first() {
        match *mode {
            "on" => config.prefilter = true,
            "off" => config.prefilter = false,
            other => {
                eprintln!("bad --prefilter `{other}` (want on or off)");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(spec) = flag_values(args, "--memory-budget").first() {
        match parse_bytes(spec) {
            Some(bytes) => config.memory_budget = bytes,
            None => {
                eprintln!("bad --memory-budget `{spec}` (want BYTES with optional k/m/g suffix)");
                return ExitCode::from(2);
            }
        }
    }
    for dn in flag_values(args, "--dark") {
        let parsed = dn.split_once('/').and_then(|(net, prefix)| {
            Some((net.parse::<Ipv4Addr>().ok()?, prefix.parse::<u8>().ok()?))
        });
        match parsed {
            Some((net, prefix)) => config.dark_nets.push((net, prefix)),
            None => {
                eprintln!("bad --dark range (want NET/PREFIX): {dn}");
                return ExitCode::from(2);
            }
        }
    }

    let mut reader = match PcapReader::open(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // decode_all is total over hostile input: damage is attributed in the
    // reader's stats rather than aborting the run.
    let packets = reader.decode_all().unwrap_or_default();

    let mut nids = Nids::new(config);

    // Live exposition: bind and serve *before* the replay starts, from a
    // cloned (Arc-backed) registry handle, so a scraper watches the
    // registry's own measurements (stage events, bytes and latency,
    // per-flow latency, the flight recorder, warnings) move mid-run. The
    // ledger's counts and the budget and pool gauges live in the engine,
    // which the replay holds, so they appear on the end-of-run page
    // (`--metrics`) and in `--stats`, not here. The serving thread blocks
    // in `accept` for the life of the process, so it is not joined:
    // serving stops when `main` returns after the results.
    if let Some(addr) = metrics_listen {
        let server = match snids::obs::MetricsServer::bind(addr) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot bind --metrics-listen {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Ok(local) = server.local_addr() {
            eprintln!(
                "serving live metrics on http://{local}/metrics (also /json) during the replay"
            );
        }
        let obs = nids.obs().clone();
        std::thread::spawn(move || {
            let _ = server.serve(
                |path| {
                    let snap = obs.snapshot();
                    if path.ends_with("json") {
                        (
                            "application/json".to_string(),
                            snids::obs::expo::render_json(&snap),
                        )
                    } else {
                        (
                            "text/plain; version=0.0.4".to_string(),
                            snids::obs::expo::render_text(&snap),
                        )
                    }
                },
                None,
            );
        });
    }

    let alerts = nids.process_capture(&packets);
    nids.absorb_read_stats(&reader.read_stats());

    if json {
        let alerts_json: Vec<String> = alerts.iter().map(|a| a.to_json()).collect();
        println!(
            "{{\"stats\":{},\"alerts\":[{}]}}",
            nids.stats().to_json(),
            alerts_json.join(",")
        );
    } else {
        eprintln!("{}", nids.stats().summary());
        if stats_report {
            eprint!("{}", nids.stats().drop_report());
        }
        for a in &alerts {
            println!("{}", a.render());
        }
        if alerts.is_empty() {
            eprintln!("no alerts");
        }
    }
    if metrics {
        // Prometheus text page then the deterministic JSON snapshot, both
        // on stdout; flight-recorder dumps go to stderr with the rest of
        // the diagnostics.
        print!("{}", nids.metrics_page());
        println!("{}", nids.metrics_json());
        for dump in nids.flight_dumps() {
            eprintln!("{dump}");
        }
    }
    if alerts.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn synth(args: &[String]) -> ExitCode {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        return usage();
    };
    let flags = check_flag_values(args, SYNTH_VALUE_FLAGS).and_then(|()| {
        check_known_flags(args, SYNTH_VALUE_FLAGS, &[])?;
        let chaos_rate = flag_number(args, "--chaos", 0.0f64)?;
        if !(0.0..=1.0).contains(&chaos_rate) {
            return Err(format!(
                "bad --chaos `{chaos_rate}` (want a rate in [0, 1])"
            ));
        }
        Ok((
            flag_number(args, "--packets", 5_000usize)?,
            flag_number(args, "--crii", 2usize)?,
            flag_number(args, "--seed", 2006u64)?,
            chaos_rate,
            flag_number(args, "--flood", 0usize)?,
        ))
    });
    let (packets_n, crii, seed, chaos_rate, flood) = match flags {
        Ok(flags) => flags,
        Err(e) => return usage_error(&e),
    };

    let plan = AddressPlan::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let (packets, truth) = codered_capture(&mut rng, &plan, packets_n, crii);

    if chaos_rate > 0.0 || flood > 0 {
        // Deterministic fault injection: same --seed, same corrupted bytes.
        let cfg = ChaosConfig {
            flood_flows: flood,
            ..ChaosConfig::with_rate(chaos_rate)
        };
        let (bytes, log) = chaos_pcap(&mut rng, &packets, &cfg);
        if let Err(e) = std::fs::write(path, &bytes) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "wrote {} packets ({} Code Red II instances from {:?}) to {path}",
            packets.len(),
            truth.crii_instances,
            truth.crii_sources
        );
        eprintln!(
            "chaos: {} protocol fault(s), {} byte fault(s), {} flood packet(s), {} source(s) touched",
            log.protocol_faults,
            log.byte_faults,
            log.flood_packets,
            log.touched_sources.len()
        );
        eprintln!(
            "analyze with: snids analyze {path} --honeypot {} --dark {}/16 --stats",
            plan.honeypots[0], plan.dark_net
        );
        return ExitCode::SUCCESS;
    }

    let mut w = match PcapWriter::create(path) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("cannot create {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for p in &packets {
        if let Err(e) = w.write_packet(p) {
            eprintln!("write error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = w.finish() {
        eprintln!("flush error: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "wrote {} packets ({} Code Red II instances from {:?}) to {path}",
        packets.len(),
        truth.crii_instances,
        truth.crii_sources
    );
    eprintln!(
        "analyze with: snids analyze {path} --honeypot {} --dark {}/16",
        plan.honeypots[0], plan.dark_net
    );
    ExitCode::SUCCESS
}

fn disasm(args: &[String]) -> ExitCode {
    let Some(path) = args.first() else {
        return usage();
    };
    let data = match std::fs::read(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Budgeted sweep: a hostile input file cannot buy unbounded work.
    let sweep = linear_sweep_budgeted(&data, &SweepBudget::default());
    if sweep.exhausted {
        eprintln!("note: disassembly budget exhausted; listing is partial");
    }
    print!("{}", fmt::listing(&data, &sweep.instructions));
    let matches = Analyzer::default().analyze(&data);
    if matches.is_empty() {
        eprintln!("\nsemantic analysis: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("\nsemantic analysis:");
        for m in &matches {
            eprintln!(
                "  {} [{}] at 0x{:x}..0x{:x}",
                m.template, m.severity, m.start, m.end
            );
        }
        ExitCode::FAILURE
    }
}
