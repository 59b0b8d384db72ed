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
//! # measure flow-analysis throughput on a synthesized polymorphic storm
//! snids bench --flows 144 --repeats 3
//!
//! # sweep TCP desync fault rates across overlap policies
//! snids bench --desync --flows 64
//!
//! # sweep state-exhaustion flood sizes: governor vs the seed engine
//! snids bench --overload --budget 256k
//!
//! # measure the pre-filter fast path: lane throughput + detection parity
//! snids bench --prefilter
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
//! # shard the front half (prefilter + reassembly) across 4 threads;
//! # alerts are byte-identical to --shards 1 (the default)
//! snids analyze trace.pcap --shards 4
//!
//! # sweep shard counts under a sustained overload: pkts/s + p99 stalls
//! snids bench --shard --flood 1024
//!
//! # control the dataflow second pass (slice matching + alternative
//! # stream views on desynced flows); near-miss is the default
//! snids analyze trace.pcap --dataflow on
//!
//! # print per-stage metrics and flight-recorder dumps after the run
//! snids analyze trace.pcap --metrics
//!
//! # serve metrics over HTTP for a scraper, live from replay start
//! # (also /json, /healthz, /quit; --worker-label stamps the series)
//! snids analyze trace.pcap --metrics-listen 127.0.0.1:9100 --worker-label w0
//!
//! # split a worm+flood corpus across 3 worker processes, scrape and
//! # federate their live metrics, gate on fleet conservation + alert
//! # union byte-identity vs a single-process run
//! snids fleet --workers 3
//! ```

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
        "usage:\n  snids analyze <pcap> [--honeypot IP]... [--dark NET/PREFIX]... [--templates FILE]... [--overlap-policy first-wins|last-wins|bsd-like|linux-like] [--dataflow on|off|near-miss] [--prefilter on|off] [--memory-budget BYTES[k|m|g]] [--shards N] [--no-classify] [--json] [--stats] [--metrics] [--metrics-listen ADDR] [--worker-label LABEL]\n  snids synth <pcap> [--packets N] [--crii N] [--seed N] [--chaos RATE] [--flood N]\n  snids disasm <file>\n  snids bench [--desync|--overload|--prefilter|--shard] [--flows N] [--flood N] [--shards N,N,..] [--seed N] [--repeats N] [--budget BYTES[k|m|g]] [--out FILE]\n  snids fleet [--workers N] [--packets N] [--crii N] [--flood N] [--seed N] [--out FILE]"
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
        Some("bench") => bench(&args[1..]),
        Some("fleet") => fleet(&args[1..]),
        _ => usage(),
    }
}

fn flag_values<'a>(args: &'a [String], name: &str) -> Vec<&'a str> {
    args.windows(2)
        .filter(|w| w[0] == name)
        .map(|w| w[1].as_str())
        .collect()
}

fn flag_value_u64(args: &[String], name: &str, default: u64) -> u64 {
    flag_values(args, name)
        .first()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn flag_value_f64(args: &[String], name: &str, default: f64) -> f64 {
    flag_values(args, name)
        .first()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
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
    let worker_label = flag_values(args, "--worker-label").first().copied();

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
    if let Some(spec) = flag_values(args, "--shards").first() {
        match spec.parse::<usize>() {
            Ok(n) if n >= 1 => config.shards = n,
            _ => {
                eprintln!("bad --shards `{spec}` (want an integer >= 1)");
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

    // `--shards N` moves the per-flow front half onto N shard threads;
    // the default of 1 runs it inline on this thread.
    let mut nids = Nids::new(config);
    if let Some(label) = worker_label {
        // Instance label: federated expositions tag this worker's series
        // with `worker="LABEL"` so fleet pages stay attributable.
        nids.obs().set_worker(Some(label));
    }

    // Live exposition: bind and serve *before* the replay starts, from a
    // cloned (Arc-backed) registry handle, so a scraper watches counters,
    // watermark transitions and budget gauges move mid-run. The thread
    // keeps serving the final numbers after the run until a `GET /quit`
    // (or ctrl-c) releases it.
    let server_thread = match metrics_listen {
        Some(addr) => {
            let server = match snids::obs::MetricsServer::bind(addr) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot bind --metrics-listen {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if let Ok(local) = server.local_addr() {
                eprintln!(
                    "serving live metrics on http://{local}/metrics (also /json, /healthz; GET /quit or ctrl-c to stop)"
                );
            }
            let obs = nids.obs().clone();
            let started = std::time::Instant::now();
            Some(std::thread::spawn(move || {
                let _ = server.serve_until_quit(
                    |path| {
                        let snap = obs.snapshot();
                        if path == "/healthz" {
                            let find = |name: &str| {
                                snap.named
                                    .iter()
                                    .find(|(n, _)| n == name)
                                    .map(|(_, v)| *v)
                                    .unwrap_or(0)
                            };
                            (
                                "application/json".to_string(),
                                format!(
                                    "{{\"status\":\"ok\",\"uptime_seconds\":{},\"pressure\":{},\"packets\":{}}}",
                                    started.elapsed().as_secs(),
                                    find("snids_budget_pressure_level"),
                                    find("snids_packets_total"),
                                ),
                            )
                        } else if path.ends_with("json") {
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
                    "/quit",
                );
            }))
        }
        None => None,
    };

    let alerts = nids.process_capture(&packets);
    nids.absorb_read_stats(&reader.read_stats());
    if server_thread.is_some() {
        // Mirror the final ledger totals into the registry *before* any
        // result line hits stdout: a federator treats the result line as
        // its scrape barrier, so the registry must already be settled.
        let _ = nids.obs_snapshot();
    }

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
    if let Some(handle) = server_thread {
        // Keep serving the settled numbers until /quit or ctrl-c.
        let _ = handle.join();
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
    let packets_n = flag_value_u64(args, "--packets", 5_000) as usize;
    let crii = flag_value_u64(args, "--crii", 2) as usize;
    let seed = flag_value_u64(args, "--seed", 2006);
    let chaos_rate = flag_value_f64(args, "--chaos", 0.0);
    let flood = flag_value_u64(args, "--flood", 0) as usize;

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

fn bench(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--desync") {
        return bench_desync(args);
    }
    if args.iter().any(|a| a == "--overload") {
        return bench_overload(args);
    }
    if args.iter().any(|a| a == "--prefilter") {
        return bench_prefilter(args);
    }
    if args.iter().any(|a| a == "--shard") {
        return bench_shard(args);
    }
    let flows = flag_value_u64(args, "--flows", 144) as usize;
    let cfg = snids::bench::throughput::BenchConfig {
        seed: flag_value_u64(args, "--seed", 2006),
        attack_flows: flows / 3,
        background_flows: flows - flows / 3,
        repeats: flag_value_u64(args, "--repeats", 3) as usize,
        ..snids::bench::throughput::BenchConfig::default()
    };
    eprintln!(
        "polymorphic storm: {} attack + {} benign flows, worker counts {:?}",
        cfg.attack_flows, cfg.background_flows, cfg.threads
    );
    let report = snids::bench::throughput::run(&cfg);
    print!("{}", snids::bench::throughput::render(&report));
    let out = flag_values(args, "--out")
        .first()
        .copied()
        .unwrap_or("BENCH_throughput.json");
    if let Err(e) = std::fs::write(out, snids::bench::throughput::to_json(&report)) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out}");
    if report.runs.iter().any(|r| !r.identical) {
        eprintln!("ALERT STREAMS DIVERGED ACROSS WORKER COUNTS");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn bench_prefilter(args: &[String]) -> ExitCode {
    use snids::bench::prefilter;
    let mut cfg = prefilter::BenchConfig {
        seed: flag_value_u64(args, "--seed", 2006),
        repeats: flag_value_u64(args, "--repeats", 3) as usize,
        ..prefilter::BenchConfig::default()
    };
    if let Some(flows) = flag_values(args, "--flows")
        .first()
        .and_then(|v| v.parse::<usize>().ok())
    {
        let flows = flows.max(3);
        cfg.attack_flows = flows / 3;
        cfg.background_flows = flows - flows / 3;
    }
    eprintln!(
        "prefilter bench: {} attack + {} benign flows in the storm, {} tainted-benign sources x {} flows",
        cfg.attack_flows, cfg.background_flows, cfg.tainted_sources, cfg.flows_per_source,
    );
    let report = prefilter::run(&cfg);
    print!("{}", prefilter::render(&report));
    let out = flag_values(args, "--out")
        .first()
        .copied()
        .unwrap_or("BENCH_prefilter.json");
    if let Err(e) = std::fs::write(out, prefilter::to_json(&report)) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out}");
    if !report.identical || report.fn_delta > 0 {
        eprintln!("PRE-FILTER GATE CHANGED THE ALERT STREAM");
        return ExitCode::FAILURE;
    }
    if report.header_lane_pps < 1_000_000.0 {
        eprintln!(
            "warning: header lane {:.0} pkts/s below the 1M floor",
            report.header_lane_pps
        );
    }
    ExitCode::SUCCESS
}

fn bench_shard(args: &[String]) -> ExitCode {
    use snids::bench::shard;
    let mut cfg = shard::ShardBenchConfig {
        seed: flag_value_u64(args, "--seed", 2006),
        flood: flag_value_u64(args, "--flood", 1024) as usize,
        repeats: flag_value_u64(args, "--repeats", 3) as usize,
        ..shard::ShardBenchConfig::default()
    };
    if let Some(flows) = flag_values(args, "--flows")
        .first()
        .and_then(|v| v.parse::<usize>().ok())
    {
        cfg.planted_attacks = flows.max(1);
    }
    if let Some(spec) = flag_values(args, "--budget").first() {
        match parse_bytes(spec) {
            Some(bytes) if bytes > 0 => cfg.memory_budget = bytes,
            _ => {
                eprintln!("bad --budget `{spec}` (want BYTES > 0 with optional k/m/g suffix)");
                return ExitCode::from(2);
            }
        }
    }
    if let Some(list) = flag_values(args, "--shards").first() {
        let parsed: Option<Vec<usize>> = list
            .split(',')
            .map(|n| n.trim().parse::<usize>().ok().filter(|n| *n >= 1))
            .collect();
        match parsed {
            Some(counts) if !counts.is_empty() => cfg.shard_counts = counts,
            _ => {
                eprintln!("bad --shards `{list}` (want a comma-separated list of integers >= 1)");
                return ExitCode::from(2);
            }
        }
    }
    eprintln!(
        "shard sweep: {} planted attacks + {} flood flows, shard counts {:?}, budget {} bytes, mailbox {} deep",
        cfg.planted_attacks, cfg.flood, cfg.shard_counts, cfg.memory_budget, cfg.mailbox,
    );
    let report = shard::run(&cfg);
    print!("{}", shard::render(&report));
    let out = flag_values(args, "--out")
        .first()
        .copied()
        .unwrap_or("BENCH_shard.json");
    if let Err(e) = std::fs::write(out, shard::to_json(&report)) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out}");
    if !report.alerts_identical {
        eprintln!("ALERT STREAMS DIVERGED ACROSS SHARD COUNTS");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn bench_desync(args: &[String]) -> ExitCode {
    use snids::bench::desync;
    let mut cfg = desync::DesyncBenchConfig {
        seed: flag_value_u64(args, "--seed", 2006),
        ..desync::DesyncBenchConfig::default()
    };
    if let Some(flows) = flag_values(args, "--flows")
        .first()
        .and_then(|v| v.parse::<usize>().ok())
    {
        let flows = flows.max(2);
        cfg.attack_flows = flows / 2;
        cfg.background_flows = flows - flows / 2;
    }
    eprintln!(
        "desync sweep: {} attack + {} benign flows, rates {:?}, policies {:?}",
        cfg.attack_flows,
        cfg.background_flows,
        cfg.rates,
        snids::flow::OverlapPolicy::ALL
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>(),
    );
    let report = desync::run(&cfg);
    print!("{}", desync::render(&report));
    let out = flag_values(args, "--out")
        .first()
        .copied()
        .unwrap_or("BENCH_desync.json");
    if let Err(e) = std::fs::write(out, desync::to_json(&report)) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out}");
    if !report.zero_rate_identical {
        eprintln!("ALERT STREAMS DIVERGED ACROSS POLICIES AT FAULT RATE 0");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn bench_overload(args: &[String]) -> ExitCode {
    use snids::bench::overload;
    let mut cfg = overload::OverloadBenchConfig {
        seed: flag_value_u64(args, "--seed", 2006),
        repeats: flag_value_u64(args, "--repeats", 3) as usize,
        ..overload::OverloadBenchConfig::default()
    };
    if let Some(flows) = flag_values(args, "--flows")
        .first()
        .and_then(|v| v.parse::<usize>().ok())
    {
        cfg.planted_attacks = flows.max(1);
    }
    if let Some(spec) = flag_values(args, "--budget").first() {
        match parse_bytes(spec) {
            Some(bytes) if bytes > 0 => cfg.memory_budget = bytes,
            _ => {
                eprintln!("bad --budget `{spec}` (want BYTES > 0 with optional k/m/g suffix)");
                return ExitCode::from(2);
            }
        }
    }
    eprintln!(
        "overload sweep: {} planted attacks, flood sizes {:?}, budget {} bytes, {} flow slots",
        cfg.planted_attacks, cfg.flood_sizes, cfg.memory_budget, cfg.max_flows,
    );
    let report = overload::run(&cfg);
    print!("{}", overload::render(&report));
    let out = flag_values(args, "--out")
        .first()
        .copied()
        .unwrap_or("BENCH_overload.json");
    if let Err(e) = std::fs::write(out, overload::to_json(&report)) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out}");
    if !report.zero_flood_identical {
        eprintln!("ALERT STREAMS DIVERGED BETWEEN GOVERNOR AND BASELINE AT FLOOD 0");
        return ExitCode::FAILURE;
    }
    if !report.detection_gate_holds() {
        eprintln!("GOVERNOR DID NOT STRICTLY BEAT THE SEED BASELINE UNDER FLOOD");
        return ExitCode::FAILURE;
    }
    if report.storm.ratio < 0.95 {
        eprintln!(
            "warning: storm throughput ratio {:.3} below the 0.95 target",
            report.storm.ratio
        );
    }
    ExitCode::SUCCESS
}

fn fleet(args: &[String]) -> ExitCode {
    use snids::bench::fleet;
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate the snids binary to spawn workers: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = fleet::FleetConfig {
        exe,
        workers: flag_value_u64(args, "--workers", 3).max(1) as usize,
        seed: flag_value_u64(args, "--seed", 2006),
        packets: flag_value_u64(args, "--packets", 3_000) as usize,
        crii: flag_value_u64(args, "--crii", 3) as usize,
        flood: flag_value_u64(args, "--flood", 256) as usize,
        ..fleet::FleetConfig::default()
    };
    eprintln!(
        "fleet replay: {} workers over {} background packets + {} Code Red II + {} flood flows",
        cfg.workers, cfg.packets, cfg.crii, cfg.flood,
    );
    let report = fleet::run(&cfg);
    print!("{}", fleet::render(&report));
    print!("{}", report.merged_text_page());
    let out = flag_values(args, "--out")
        .first()
        .copied()
        .unwrap_or("BENCH_fleet.json");
    if let Err(e) = std::fs::write(out, fleet::to_json(&report)) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out}");
    if !report.union_identical {
        eprintln!("FLEET ALERT UNION DIVERGED FROM THE SINGLE-WORKER RUN");
        return ExitCode::FAILURE;
    }
    if !report.capture_matches || !report.ledger_balanced {
        eprintln!("FLEET CONSERVATION CHECK FAILED");
        return ExitCode::FAILURE;
    }
    if report.workers.iter().any(|w| !w.healthy) {
        eprintln!("warning: some workers could not be scraped; fleet page is partial");
    }
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
