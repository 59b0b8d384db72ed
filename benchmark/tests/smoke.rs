//! Smoke test: the whole command at 1/100 size, held against
//! `BENCHMARK.json` — every workload and metric it names must come out of
//! the command with the unit it declares, the correctness gate must pass,
//! and the trace files must parse. Seconds, not minutes.

use snids_benchmark::report::{END_TO_END, PER_LAYER};
use snids_benchmark::workloads::NAMES;
use snids_obs::json::{parse, Value};
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the root of the repo");
    parse(&text).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has a `{key}` array"))
}

fn text<'a>(entry: &'a Value, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("entry has a `{key}` string"))
}

/// The tables the command reports from are the tables `BENCHMARK.json`
/// declares: same names, same order, same units, bounds and directions.
#[test]
fn metric_tables_match_benchmark_json() {
    let doc = benchmark_json();
    let workloads: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(workloads, NAMES);

    let declared = entries(&doc, "end_to_end");
    assert_eq!(declared.len(), END_TO_END.len());
    for (d, m) in declared.iter().zip(&END_TO_END) {
        assert_eq!(text(d, "name"), m.name);
        assert_eq!(text(d, "unit"), m.unit, "{}", m.name);
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        assert_eq!(text(d, "better"), better, "{}", m.name);
        assert_eq!(
            d.get("bound").and_then(Value::as_f64),
            Some(m.bound),
            "{}",
            m.name
        );
    }

    let declared: Vec<(&str, &str)> = entries(&doc, "per_layer")
        .iter()
        .map(|d| (text(d, "name"), text(d, "unit")))
        .collect();
    assert_eq!(declared, PER_LAYER);
}

/// One run of the whole set at smoke size: every workload untraced and
/// traced, each in its own process.
#[test]
fn smoke_run_reports_every_metric_and_passes_the_gate() {
    let output = Command::new(env!("CARGO_BIN_EXE_snids-benchmark"))
        .args(["--smoke", "--seconds", "0.2"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "the correctness gate failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );

    // The result objects, in order: untraced then traced per workload.
    let results: Vec<Value> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| parse(l).expect("a result line is JSON"))
        .collect();
    assert_eq!(results.len(), 2 * NAMES.len(), "{stdout}");
    let doc = benchmark_json();
    for (pair, name) in results.chunks(2).zip(NAMES) {
        assert!(stdout.contains(&format!("workload {name}:")), "{name}");
        for (result, table) in pair.iter().zip(["end_to_end", "per_layer"]) {
            assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
            assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
            let metrics = result.get("metrics").and_then(Value::as_obj).unwrap();
            let declared = entries(&doc, table);
            assert_eq!(metrics.len(), declared.len(), "{name} {table}");
            for d in declared {
                let metric = result
                    .get("metrics")
                    .and_then(|m| m.get(text(d, "name")))
                    .unwrap_or_else(|| panic!("{name}: no {}", text(d, "name")));
                assert!(metric.get("value").and_then(Value::as_f64).is_some());
                assert_eq!(
                    metric.get("unit").and_then(Value::as_str),
                    Some(text(d, "unit"))
                );
            }
        }
        assert!(stdout.contains("verdict_fail_share"), "{name}");

        // Smoke traces have a name of their own, so a test run never
        // overwrites the trace of a full run.
        let path = format!("{}/out/trace.{name}.smoke.json", env!("CARGO_MANIFEST_DIR"));
        let trace = std::fs::read_to_string(&path).expect("the traced run wrote its spans");
        let trace = parse(&trace).unwrap_or_else(|| panic!("{path} parses"));
        assert_eq!(trace.get("workload").and_then(Value::as_str), Some(name));
        let spans = trace.get("spans").and_then(Value::as_arr).unwrap();
        assert!(!spans.is_empty(), "{path} has spans");
        let columns = trace.get("columns").and_then(Value::as_arr).unwrap().len();
        assert!(spans
            .iter()
            .all(|s| s.as_arr().is_some_and(|r| r.len() == columns)));
    }
}
