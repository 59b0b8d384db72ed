//! Multi-worker replay harness: the fleet observability plane, end to end.
//!
//! The harness splits one worm+flood capture across N `snids` worker
//! *processes* by source address ([`snids_flow::shard::fleet_worker_of_packet`]),
//! replays every split concurrently with `--metrics-listen 127.0.0.1:0`,
//! scrapes the live endpoints mid-run and again after the replay, federates
//! the final snapshots ([`snids_obs::federate`]) and checks the paper-level
//! promises at fleet scope:
//!
//! * **Conservation** — merged capture events == merged packet counter ==
//!   the sum of every worker's own packet counter == the single-process
//!   run's packet count, and the merged ledger balances
//!   (`packets == processed + packet drops`).
//! * **Detection equivalence** — the sorted union of the workers' alert
//!   streams is byte-identical to the single-process run's alert stream.
//!   The source-address split is what makes this exact: every detector
//!   whose state is keyed by source (sticky escalation, dark-space probe
//!   counting, worm infection evidence) sees its whole story on one worker.
//! * **Degradation, not abortion** — a worker that cannot be scraped is
//!   reported unhealthy in the federated page; the fleet report still
//!   renders.
//!
//! The CLI wires this up as `snids fleet --workers N`; the report lands in
//! `BENCH_fleet.json`.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snids_core::{DropReason, Nids, NidsConfig};
use snids_gen::chaos::{chaos_packets, ChaosConfig, ChaosLog};
use snids_gen::traces::{codered_capture, AddressPlan};
use snids_obs::federate::{self, FleetSnapshot, ScrapeConfig, WorkerScrape};
use snids_obs::json::{escape, parse, Value};
use snids_packet::{Packet, PcapWriter};
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Fleet harness configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The `snids` binary to spawn workers from (the CLI passes its own
    /// `current_exe`).
    pub exe: PathBuf,
    /// Worker process count.
    pub workers: usize,
    /// Base seed for the deterministic corpus.
    pub seed: u64,
    /// Background packets in the corpus.
    pub packets: usize,
    /// Code Red II instances woven in.
    pub crii: usize,
    /// SYN-flood flows appended on top (the "flood" half of the corpus).
    pub flood: usize,
    /// Scratch directory for the split pcaps.
    pub dir: PathBuf,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            exe: PathBuf::new(),
            workers: 3,
            seed: crate::DEFAULT_SEED,
            packets: 3_000,
            crii: 3,
            flood: 256,
            dir: std::env::temp_dir().join("snids-fleet"),
        }
    }
}

/// One worker's datapoint in the fleet report.
#[derive(Debug, Clone)]
pub struct WorkerPoint {
    /// Instance label (`w0`, `w1`, …).
    pub label: String,
    /// The `host:port` the worker served metrics on.
    pub endpoint: String,
    /// Packets this worker's split carried (from the pcap split).
    pub split_packets: u64,
    /// `snids_packets_total` from the worker's final scrape.
    pub reported_packets: u64,
    /// Alerts this worker raised.
    pub alerts: u64,
    /// Whether the mid-run `/healthz` probe answered.
    pub healthz_ok: bool,
    /// Whether the final `/json` scrape succeeded and parsed.
    pub healthy: bool,
    /// Wall-clock nanoseconds of the final scrape.
    pub scrape_nanos: u64,
}

/// The fleet run's full result.
#[derive(Debug)]
pub struct FleetReport {
    /// Per-worker datapoints, in worker order.
    pub workers: Vec<WorkerPoint>,
    /// Total packets in the unsplit capture.
    pub total_packets: u64,
    /// Alerts from the single-process reference run.
    pub single_alerts: u64,
    /// Alerts in the workers' union.
    pub union_alerts: u64,
    /// Sorted worker alert union == sorted single-run alert stream,
    /// byte for byte.
    pub union_identical: bool,
    /// Fleet-level `capture == packets == Σ worker packets`.
    pub capture_matches: bool,
    /// Fleet-level `packets == processed + packet drops`.
    pub ledger_balanced: bool,
    /// Worker packet skew: max split / mean split (1.0 = perfectly even).
    pub skew: f64,
    /// Total scrape wall-clock across all final scrapes, nanoseconds.
    pub scrape_overhead_nanos: u64,
    /// The federated snapshot (render with `merged_text_page`).
    pub fleet: FleetSnapshot,
}

impl FleetReport {
    /// The merged Prometheus text page for the whole fleet.
    pub fn merged_text_page(&self) -> String {
        self.fleet.render_text()
    }

    /// The merged JSON page for the whole fleet.
    pub fn merged_json_page(&self) -> String {
        self.fleet.render_json()
    }
}

/// The deterministic worm+flood corpus the harness replays.
fn corpus(cfg: &FleetConfig) -> (Vec<Packet>, AddressPlan) {
    let plan = AddressPlan::default();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let (packets, _truth) = codered_capture(&mut rng, &plan, cfg.packets, cfg.crii);
    // Fault rate 0: the flood flows are the pressure, and a clean corpus
    // keeps the packet partition exact for the conservation check.
    let chaos = ChaosConfig {
        flood_flows: cfg.flood,
        ..ChaosConfig::with_rate(0.0)
    };
    let mut log = ChaosLog::default();
    let packets = chaos_packets(&mut rng, &packets, &chaos, &mut log);
    (packets, plan)
}

/// Re-render a parsed JSON value exactly as the workspace emitters wrote
/// it: object fields keep their order, numbers keep their raw text, and
/// strings re-escape through the same escaper that produced them.
fn render_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(raw) => out.push_str(raw),
        Value::Str(s) => {
            out.push('"');
            out.push_str(&escape(s));
            out.push('"');
        }
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_value(item, out);
            }
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                out.push_str(&escape(k));
                out.push_str("\":");
                render_value(item, out);
            }
            out.push('}');
        }
    }
}

/// One spawned worker mid-flight.
struct WorkerProc {
    label: String,
    child: Child,
    endpoint: String,
    split_packets: u64,
    healthz_ok: bool,
}

/// Spawn one worker over its split, parse the metrics endpoint from its
/// stderr banner, and leave it replaying.
fn spawn_worker(
    cfg: &FleetConfig,
    plan: &AddressPlan,
    index: usize,
    pcap: &std::path::Path,
    split_packets: u64,
) -> Result<WorkerProc, String> {
    let label = format!("w{index}");
    let mut cmd = Command::new(&cfg.exe);
    cmd.arg("analyze")
        .arg(pcap)
        .arg("--json")
        .arg("--metrics-listen")
        .arg("127.0.0.1:0")
        .arg("--worker-label")
        .arg(&label);
    for hp in &plan.honeypots {
        cmd.arg("--honeypot").arg(hp.to_string());
    }
    cmd.arg("--dark").arg(format!("{}/16", plan.dark_net));
    cmd.stdout(Stdio::piped()).stderr(Stdio::piped());
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot spawn worker {label}: {e}"))?;

    // The serving banner is the first stderr line:
    //   serving live metrics on http://127.0.0.1:PORT/metrics ...
    let stderr = child
        .stderr
        .take()
        .ok_or_else(|| format!("worker {label} has no stderr"))?;
    let mut reader = std::io::BufReader::new(stderr);
    let mut endpoint = String::new();
    for _ in 0..32 {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                if let Some(rest) = line.split("http://").nth(1) {
                    if let Some(addr) = rest.split('/').next() {
                        endpoint = addr.to_string();
                        break;
                    }
                }
            }
            Err(e) => return Err(format!("worker {label} stderr read failed: {e}")),
        }
    }
    if endpoint.is_empty() {
        let _ = child.kill();
        return Err(format!("worker {label} never announced its endpoint"));
    }
    // Keep draining stderr so a chatty worker can never block on the pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        loop {
            sink.clear();
            match reader.read_line(&mut sink) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
    });
    Ok(WorkerProc {
        label,
        child,
        endpoint,
        split_packets,
        healthz_ok: false,
    })
}

/// Run the fleet: split, replay, scrape, federate, verify. Panics (with a
/// clear message) on setup errors; the verification *results* are carried
/// in the report for the caller to gate on.
pub fn run(cfg: &FleetConfig) -> FleetReport {
    assert!(cfg.workers >= 1, "need at least one worker");
    assert!(
        !cfg.exe.as_os_str().is_empty(),
        "FleetConfig::exe must point at the snids binary"
    );
    std::fs::create_dir_all(&cfg.dir).expect("create fleet scratch dir");

    let (packets, plan) = corpus(cfg);
    let total_packets = packets.len() as u64;

    // Split by source address; every packet lands in exactly one split.
    let mut splits: Vec<Vec<&Packet>> = vec![Vec::new(); cfg.workers];
    for p in &packets {
        let w = snids_flow::shard::fleet_worker_of_packet(p, cfg.workers).unwrap_or(0);
        splits[w].push(p);
    }
    let full_path = cfg.dir.join("fleet_full.pcap");
    write_pcap(&full_path, packets.iter());
    let mut split_paths = Vec::new();
    for (i, split) in splits.iter().enumerate() {
        let path = cfg.dir.join(format!("fleet_w{i}.pcap"));
        write_pcap(&path, split.iter().copied());
        split_paths.push((path, split.len() as u64));
    }

    // Single-process reference run, in process: the same pipeline the
    // child CLI constructs.
    let reference = NidsConfig {
        honeypots: plan.honeypots.clone(),
        dark_nets: vec![(plan.dark_net, 16)],
        ..NidsConfig::default()
    };
    let mut single = Nids::new(reference);
    let single_alert_jsons: Vec<String> = single
        .process_capture(&packets)
        .iter()
        .map(|a| a.to_json())
        .collect();

    // Spawn the fleet.
    let mut procs: Vec<WorkerProc> = Vec::new();
    for (i, (path, n)) in split_paths.iter().enumerate() {
        match spawn_worker(cfg, &plan, i, path, *n) {
            Ok(p) => procs.push(p),
            Err(e) => {
                for mut p in procs {
                    let _ = p.child.kill();
                }
                panic!("{e}");
            }
        }
    }

    // Mid-run probes against the *live* endpoints: /healthz answers while
    // the replay is still running (the server thread starts pre-replay).
    let quick = ScrapeConfig {
        attempts: 2,
        timeout: Duration::from_secs(2),
        backoff: Duration::from_millis(50),
    };
    for p in &mut procs {
        p.healthz_ok = federate::scrape_with_retry(&p.endpoint, "/healthz", &quick)
            .map(|body| body.contains("\"status\":\"ok\""))
            .unwrap_or(false);
        // A mid-run /json scrape must parse even while counters move.
        let _ = federate::scrape_with_retry(&p.endpoint, "/json", &quick);
    }

    // Each worker prints exactly one stdout line when its replay ends:
    // {"stats":...,"alerts":[...]}. Collect the alert unions from it.
    let mut union: Vec<String> = Vec::new();
    let mut worker_alerts: Vec<u64> = Vec::new();
    for p in &mut procs {
        let line = read_result_line(p);
        let doc = parse(&line)
            .unwrap_or_else(|| panic!("worker {} emitted an unparsable result line", p.label));
        let alerts = doc
            .get("alerts")
            .and_then(|a| a.as_arr())
            .unwrap_or_else(|| panic!("worker {} result carried no alerts array", p.label));
        worker_alerts.push(alerts.len() as u64);
        for alert in alerts {
            let mut rendered = String::new();
            render_value(alert, &mut rendered);
            union.push(rendered);
        }
    }

    // Final scrape: the workers keep serving their end-of-run numbers
    // until told to quit, so this sees the settled ledgers.
    let scrape_cfg = ScrapeConfig::default();
    let scrapes: Vec<WorkerScrape> = procs
        .iter()
        .map(|p| federate::scrape_worker(&p.label, &p.endpoint, &scrape_cfg))
        .collect();
    let scrape_overhead_nanos = scrapes.iter().map(|s| s.scrape_nanos).sum();

    // Release the serving threads and reap the children (a worker that
    // alerted exits non-zero by design — any exit is a clean shutdown
    // here).
    for p in &mut procs {
        let _ = federate::scrape(&p.endpoint, "/quit", Duration::from_secs(2));
        let t0 = Instant::now();
        loop {
            match p.child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if t0.elapsed() > Duration::from_secs(10) => {
                    let _ = p.child.kill();
                    let _ = p.child.wait();
                    break;
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(20)),
                Err(_) => break,
            }
        }
    }

    // Federate and re-check conservation at fleet level.
    let fleet = FleetSnapshot::from_scrapes(scrapes);
    let drop_names: Vec<String> = DropReason::ALL
        .iter()
        .filter(|r| r.is_packet_drop())
        .map(|r| format!("drop.{}", r.name()))
        .collect();
    let drop_refs: Vec<&str> = drop_names.iter().map(String::as_str).collect();
    let conservation = fleet.conservation(&drop_refs);

    // Byte-identical union: same sorted multiset of rendered alerts.
    let mut single_sorted = single_alert_jsons;
    single_sorted.sort_unstable();
    union.sort_unstable();
    let union_identical = union == single_sorted;

    let workers: Vec<WorkerPoint> = procs
        .iter()
        .zip(fleet.workers.iter())
        .zip(worker_alerts.iter())
        .map(|((p, scrape), alerts)| WorkerPoint {
            label: p.label.clone(),
            endpoint: p.endpoint.clone(),
            split_packets: p.split_packets,
            reported_packets: scrape
                .snapshot
                .as_ref()
                .and_then(|s| {
                    s.named
                        .iter()
                        .find(|(n, _)| n == "snids_packets_total")
                        .map(|(_, v)| *v)
                })
                .unwrap_or(0),
            alerts: *alerts,
            healthz_ok: p.healthz_ok,
            healthy: scrape.healthy,
            scrape_nanos: scrape.scrape_nanos,
        })
        .collect();

    let mean = total_packets as f64 / cfg.workers as f64;
    let skew = if mean > 0.0 {
        workers
            .iter()
            .map(|w| w.split_packets as f64 / mean)
            .fold(0.0f64, f64::max)
    } else {
        1.0
    };

    FleetReport {
        total_packets,
        single_alerts: single_sorted.len() as u64,
        union_alerts: union.len() as u64,
        union_identical,
        capture_matches: conservation.capture_matches
            && conservation.fleet_packets == total_packets,
        ledger_balanced: conservation.ledger_balanced,
        skew,
        scrape_overhead_nanos,
        workers,
        fleet,
    }
}

/// Read the worker's single stdout result line (blocks until the replay
/// ends; the serving thread keeps the process alive afterwards).
fn read_result_line(p: &mut WorkerProc) -> String {
    let stdout = p
        .child
        .stdout
        .take()
        .unwrap_or_else(|| panic!("worker {} has no stdout", p.label));
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .unwrap_or_else(|e| panic!("worker {} stdout read failed: {e}", p.label));
    line
}

fn write_pcap<'a>(path: &std::path::Path, packets: impl Iterator<Item = &'a Packet>) {
    let mut w = PcapWriter::create(path).expect("create split pcap");
    for p in packets {
        w.write_packet(p).expect("write split packet");
    }
    w.finish().expect("flush split pcap");
}

/// Human-readable fleet table.
pub fn render(report: &FleetReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "fleet: {} workers, {} packets, skew {:.2}, scrape overhead {:.2} ms\n",
        report.workers.len(),
        report.total_packets,
        report.skew,
        report.scrape_overhead_nanos as f64 / 1e6,
    ));
    out.push_str("worker  endpoint              packets  reported  alerts  healthz  scraped\n");
    for w in &report.workers {
        out.push_str(&format!(
            "{:<7} {:<21} {:>7}  {:>8}  {:>6}  {:>7}  {:>7}\n",
            w.label,
            w.endpoint,
            w.split_packets,
            w.reported_packets,
            w.alerts,
            if w.healthz_ok { "ok" } else { "FAIL" },
            if w.healthy { "ok" } else { "FAIL" },
        ));
    }
    out.push_str(&format!(
        "alert union: {} fleet vs {} single — {}\n",
        report.union_alerts,
        report.single_alerts,
        if report.union_identical {
            "byte-identical"
        } else {
            "DIVERGED"
        },
    ));
    out.push_str(&format!(
        "conservation: capture {} | ledger {}\n",
        if report.capture_matches {
            "balanced"
        } else {
            "UNBALANCED"
        },
        if report.ledger_balanced {
            "balanced"
        } else {
            "UNBALANCED"
        },
    ));
    out
}

/// Machine-readable fleet report (hand-rolled JSON, like every bench).
pub fn to_json(report: &FleetReport) -> String {
    let mut workers = String::from("[");
    for (i, w) in report.workers.iter().enumerate() {
        if i > 0 {
            workers.push(',');
        }
        workers.push_str(&format!(
            "{{\"label\":\"{}\",\"endpoint\":\"{}\",\"split_packets\":{},\"reported_packets\":{},\"alerts\":{},\"healthz_ok\":{},\"healthy\":{},\"scrape_nanos\":{}}}",
            escape(&w.label),
            escape(&w.endpoint),
            w.split_packets,
            w.reported_packets,
            w.alerts,
            w.healthz_ok,
            w.healthy,
            w.scrape_nanos,
        ));
    }
    workers.push(']');
    format!(
        "{{\"workers\":{},\"total_packets\":{},\"single_alerts\":{},\"union_alerts\":{},\"union_identical\":{},\"capture_matches\":{},\"ledger_balanced\":{},\"skew\":{:.4},\"scrape_overhead_nanos\":{}}}",
        workers,
        report.total_packets,
        report.single_alerts,
        report.union_alerts,
        report.union_identical,
        report.capture_matches,
        report.ledger_balanced,
        report.skew,
        report.scrape_overhead_nanos,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_split_partitions_the_corpus_exactly() {
        let cfg = FleetConfig {
            packets: 400,
            crii: 1,
            flood: 32,
            ..FleetConfig::default()
        };
        let (packets, _plan) = corpus(&cfg);
        let mut counts = vec![0u64; 3];
        for p in &packets {
            counts[snids_flow::shard::fleet_worker_of_packet(p, 3).unwrap_or(0)] += 1;
        }
        assert_eq!(counts.iter().sum::<u64>(), packets.len() as u64);
        assert!(counts.iter().all(|&c| c > 0), "{counts:?}");
        // Same source always lands on the same worker.
        for p in &packets {
            if let Some(ip) = p.ip() {
                assert_eq!(
                    snids_flow::shard::fleet_worker_of_packet(p, 3),
                    Some(snids_flow::shard::fleet_worker_of_source(ip.src, 3)),
                );
            }
        }
    }

    #[test]
    fn render_value_round_trips_alert_shaped_json() {
        let text = r#"{"src":"198.18.1.2","dst_port":80,"start":12,"detail":{"end":40},"tags":["a","b"],"none":null,"big":18446744073709551615}"#;
        let parsed = parse(text).expect("parses");
        let mut rendered = String::new();
        render_value(&parsed, &mut rendered);
        assert_eq!(rendered, text);
    }
}
