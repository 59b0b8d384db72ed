//! Engine passes the way `snids analyze` runs a capture
//! (`PcapReader::decode_all` → `Nids::process_capture`), with the clocks,
//! the process CPU time and the resident-set reading around them, and the
//! report a pass sends back when it ran in a process of its own.

use crate::workloads::{fnv1a, FNV_SEED};
use snids_core::{Alert, Nids, NidsConfig, PipelineStats};
use snids_exec::PoolStats;
use snids_packet::{Packet, PcapReader, ReadStats};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::time::Instant;

/// Process CPU time (user + system, every thread, exited ones included)
/// in nanoseconds.
pub fn process_cpu_nanos() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` only writes one `struct timespec` through the
    // pointer, `Timespec` has that struct's layout on 64-bit Linux (two
    // 64-bit signed fields), and `ts` lives across the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The process's resident-set high-water mark (`VmHWM`) in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Median and quartiles of a sample, as `statistics.quantiles(v, n=4)`
/// computes them (exclusive method), with the sample count.
#[derive(Debug, Clone, Copy)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

/// Quartiles of `values` (at least one value).
pub fn quartiles(values: &[f64]) -> Quartiles {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let at = |k: usize| {
        // Position k(n+1)/4 on a 1-based scale, clamped to the sample.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n);
        let hi = (lo + 1).min(n);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * frac
    };
    Quartiles {
        q1: at(1),
        median: at(2),
        q3: at(3),
        n,
    }
}

/// The `p`-th percentile (nearest rank) of an ascending-sorted sample.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How one pass drives the engine after decoding.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Drive {
    /// `Nids::process_capture`, as `snids analyze` does.
    Capture,
    /// `Nids::process_packet` per packet with a clock read between calls,
    /// then `Nids::finish`: the per-call latency distribution.
    TimedCalls,
}

/// Everything one pass of the pcap through a fresh engine produced.
pub struct Pass {
    /// Wall seconds of `decode_all`.
    pub decode_s: f64,
    /// Wall seconds of `Nids::new`. In a process of its own this is the
    /// cold set-up a `snids analyze` user waits for.
    pub setup_s: f64,
    /// Wall seconds of `process_capture` (or of the per-packet loop plus
    /// `finish`).
    pub process_s: f64,
    /// Wall seconds of `finish` alone ([`Drive::TimedCalls`] only).
    pub finish_s: f64,
    /// Process CPU nanoseconds over decode + process.
    pub cpu_nanos: u64,
    /// Digest of the rendered alert stream.
    pub alerts_digest: u64,
    /// Sources that raised at least one alert.
    pub alerted: BTreeSet<Ipv4Addr>,
    /// The engine's ledger, read stats absorbed.
    pub stats: PipelineStats,
    /// Pool self-profile: after the pass minus before it.
    pub pool: PoolDelta,
    /// Nanoseconds of each `process_packet` call ([`Drive::TimedCalls`]).
    pub call_nanos: Vec<u64>,
}

impl Pass {
    /// Wall seconds of the measured region: pcap bytes to alert vector.
    pub fn region_s(&self) -> f64 {
        self.decode_s + self.process_s
    }

    /// Both ledgers balance: every record and every packet is accounted.
    pub fn ledgers_balanced(&self) -> bool {
        self.stats.record_ledger_balanced() && self.stats.packet_ledger_balanced()
    }
}

/// What the analysis pool did during one pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolDelta {
    /// Worker threads.
    pub threads: usize,
    /// Tasks executed.
    pub tasks: u64,
    /// Tasks stolen from a sibling.
    pub steals: u64,
    /// Nanoseconds inside task bodies, summed over workers.
    pub busy_nanos: u64,
}

fn pool_delta(before: &PoolStats, after: &PoolStats) -> PoolDelta {
    let busy = |s: &PoolStats| s.workers.iter().map(|w| w.busy_nanos).sum::<u64>();
    PoolDelta {
        threads: after.threads,
        tasks: after.tasks_total() - before.tasks_total(),
        steals: after.steals_total() - before.steals_total(),
        busy_nanos: busy(after) - busy(before),
    }
}

/// The 64-bit digest of the rendered alert stream, and the sources in it.
pub fn summarize_alerts(alerts: &[Alert]) -> (u64, BTreeSet<Ipv4Addr>) {
    let mut digest = FNV_SEED;
    let mut alerted = BTreeSet::new();
    for a in alerts {
        digest = fnv1a(digest, a.render().as_bytes());
        digest = fnv1a(digest, b"\n");
        alerted.insert(a.src);
    }
    (digest, alerted)
}

/// Decode the pcap the way `snids analyze` does.
pub fn decode(pcap: &[u8]) -> (Vec<Packet>, ReadStats) {
    let mut reader = PcapReader::new(pcap).expect("the generator wrote a valid pcap header");
    let packets = reader.decode_all().unwrap_or_default();
    (packets, reader.read_stats())
}

/// One pass: decode the pcap, build a fresh engine from `config`, run
/// the capture through it.
pub fn engine_pass(pcap: &[u8], config: &NidsConfig, drive: Drive) -> Pass {
    let cpu0 = process_cpu_nanos();
    let t0 = Instant::now();
    let (packets, read_stats) = decode(pcap);
    let decode_s = t0.elapsed().as_secs_f64();
    let cpu1 = process_cpu_nanos();

    let config = config.clone();
    let t1 = Instant::now();
    let mut nids = Nids::new(config);
    let setup_s = t1.elapsed().as_secs_f64();

    let pool_before = nids.pool_stats();
    let cpu2 = process_cpu_nanos();
    let t2 = Instant::now();
    let mut call_nanos = Vec::new();
    let mut finish_s = 0.0;
    let alerts = match drive {
        Drive::Capture => nids.process_capture(&packets),
        Drive::TimedCalls => {
            call_nanos.reserve_exact(packets.len());
            let mut mark = Instant::now();
            for p in &packets {
                nids.process_packet(p);
                let now = Instant::now();
                call_nanos.push((now - mark).as_nanos() as u64);
                mark = now;
            }
            let alerts = nids.finish();
            finish_s = mark.elapsed().as_secs_f64();
            alerts
        }
    };
    let process_s = t2.elapsed().as_secs_f64();
    let cpu3 = process_cpu_nanos();
    let pool = pool_delta(&pool_before, &nids.pool_stats());
    nids.absorb_read_stats(&read_stats);

    let (alerts_digest, alerted) = summarize_alerts(&alerts);
    Pass {
        decode_s,
        setup_s,
        process_s,
        finish_s,
        cpu_nanos: (cpu1 - cpu0) + (cpu3 - cpu2),
        alerts_digest,
        alerted,
        stats: nids.stats().clone(),
        pool,
        call_nanos,
    }
}

/// What crosses the process boundary when a pass runs in a process of its
/// own: one line of JSON on the child's standard output.
#[derive(Debug, Clone, PartialEq)]
pub struct PassReport {
    /// Wall seconds of the measured region (`decode_all` + `process_capture`).
    pub region_s: f64,
    /// Process CPU nanoseconds over the same region.
    pub cpu_nanos: u64,
    /// Wall seconds of the child's one `Nids::new`.
    pub setup_s: f64,
    /// The child's `VmHWM` after the pass, in MB: the pcap bytes, the
    /// decoded capture and the engine's state, and no generator.
    pub peak_rss_mb: f64,
    /// Both of the engine's ledgers balanced.
    pub ledgers_balanced: bool,
    /// Digest of the rendered alert stream.
    pub alerts_digest: u64,
    /// Sources that raised at least one alert.
    pub alerted: BTreeSet<Ipv4Addr>,
}

impl PassReport {
    /// Summarize a pass that just ended in this process.
    pub fn of(pass: Pass, peak_rss_mb: f64) -> PassReport {
        PassReport {
            region_s: pass.region_s(),
            cpu_nanos: pass.cpu_nanos,
            setup_s: pass.setup_s,
            peak_rss_mb,
            ledgers_balanced: pass.ledgers_balanced(),
            alerts_digest: pass.alerts_digest,
            alerted: pass.alerted,
        }
    }

    /// The line the child prints. The digest travels as a hex string (a
    /// JSON number cannot carry 64 bits), the sources as `u32`s.
    pub fn to_line(&self) -> String {
        let alerted: Vec<String> = self
            .alerted
            .iter()
            .map(|a| u32::from(*a).to_string())
            .collect();
        format!(
            "{{\"region_s\": {}, \"cpu_nanos\": {}, \"setup_s\": {}, \"peak_rss_mb\": {}, \"ledgers_balanced\": {}, \"alerts_digest\": \"{:016x}\", \"alerted\": [{}]}}",
            self.region_s,
            self.cpu_nanos,
            self.setup_s,
            self.peak_rss_mb,
            self.ledgers_balanced,
            self.alerts_digest,
            alerted.join(",")
        )
    }

    /// Parse a line [`PassReport::to_line`] wrote.
    pub fn from_line(line: &str) -> Option<PassReport> {
        let v = snids_obs::json::parse(line)?;
        let number = |key: &str| v.get(key)?.as_f64();
        Some(PassReport {
            region_s: number("region_s")?,
            cpu_nanos: v.get("cpu_nanos")?.as_u64()?,
            setup_s: number("setup_s")?,
            peak_rss_mb: number("peak_rss_mb")?,
            ledgers_balanced: v.get("ledgers_balanced")?.as_bool()?,
            alerts_digest: u64::from_str_radix(v.get("alerts_digest")?.as_str()?, 16).ok()?,
            alerted: v
                .get("alerted")?
                .as_arr()?
                .iter()
                .map(|a| Some(Ipv4Addr::from(u32::try_from(a.as_u64()?).ok()?)))
                .collect::<Option<_>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The quartiles are the ones Python's `statistics.quantiles(v, n=4)`
    /// gives, since that is how the spreads are judged.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        let q = quartiles(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        let q = quartiles(&[7.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.0, 7.0, 7.0));
    }

    #[test]
    fn pass_report_survives_the_process_boundary() {
        let report = PassReport {
            region_s: 0.270_123_456_789,
            cpu_nanos: 9_876_543_210,
            setup_s: 0.000_201_7,
            peak_rss_mb: 142.292_968_75,
            ledgers_balanced: true,
            alerts_digest: 0xfedc_ba98_7654_3211,
            alerted: [
                Ipv4Addr::new(198, 19, 0, 2),
                Ipv4Addr::new(255, 255, 255, 255),
            ]
            .into_iter()
            .collect(),
        };
        assert_eq!(PassReport::from_line(&report.to_line()), Some(report));
        assert_eq!(PassReport::from_line("{}"), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&[5], 99.0), 5);
    }
}
