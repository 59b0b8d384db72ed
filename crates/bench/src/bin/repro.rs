//! `repro` — regenerate every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p snids-bench --bin repro -- all
//! cargo run --release -p snids-bench --bin repro -- table1
//! cargo run --release -p snids-bench --bin repro -- table3 --packets 200000
//! cargo run --release -p snids-bench --bin repro -- fp --bytes 16000000
//! ```
#![forbid(unsafe_code)]

use snids_bench::{ablation, figures, fp, table1, table2, table3, DEFAULT_SEED};

fn arg_value(args: &[String], name: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let seed = arg_value(&args, "--seed").unwrap_or(DEFAULT_SEED);
    let n = arg_value(&args, "--instances").unwrap_or(100) as usize;
    let packets = arg_value(&args, "--packets").unwrap_or(20_000) as usize;
    let traces = arg_value(&args, "--traces").unwrap_or(12) as usize;
    let bytes = arg_value(&args, "--bytes").unwrap_or(4_000_000) as usize;

    let run_table1 = || {
        println!("== Table 1: Linux shell spawning buffer overflow exploits ==\n");
        println!("{}", table1::render(&table1::run(seed)));
    };
    let run_table2 = || {
        println!("== Table 2: polymorphic shellcode detection ({n} instances) ==\n");
        let (rows, stats) = table2::run_with_stats(seed, n);
        println!("{}", table2::render(&rows));
        println!("integrity footer (corpus through the accounted pipeline path):");
        println!("{}", stats.summary());
        print!("{}", stats.drop_report());
        println!();
    };
    let run_table3 = || {
        println!("== Table 3: Code Red II detection ({traces} traces × ~{packets} packets) ==\n");
        let (rows, stats) = table3::run_with_stats(seed, traces, packets);
        println!("{}", table3::render(&rows));
        println!("integrity footer (ledger merged across all traces):");
        println!("{}", stats.summary());
        print!("{}", stats.drop_report());
        println!();
    };
    let run_fp = || {
        println!(
            "== §5.4 false-positive evaluation (~{} MB benign corpus) ==\n",
            bytes / 1_000_000
        );
        println!("{}", fp::render(&fp::run(seed, bytes)));
    };
    let run_fig = |which: &str| {
        let (out, ok) = match which {
            "fig1" => figures::fig1(),
            "fig2" => figures::fig2(),
            "fig3" => figures::fig3(seed),
            "fig4" => figures::fig4(seed),
            "fig5" => figures::fig5(seed),
            "fig6" => figures::fig6(seed),
            "fig7" => figures::fig7(seed),
            _ => unreachable!(),
        };
        println!("== {} ==\n\n{}", which, out);
        if !ok {
            eprintln!("{which}: SHAPE DID NOT HOLD");
            std::process::exit(1);
        }
    };
    let run_ablation_naive = || {
        println!(
            "== Ablation A2: pruned analyzer vs naive every-offset matcher ([5] stand-in) ==\n"
        );
        println!(
            "{}",
            ablation::render_naive_vs_pruned(&ablation::naive_vs_pruned(
                seed,
                &[1024, 4096, 10 * 1024]
            ))
        );
    };
    let run_ablation_classifier = || {
        println!("== Ablation A1: the classifier vs copy-protected downloads (§3) ==\n");
        println!(
            "{}",
            ablation::render_classifier(&ablation::classifier_ablation(seed, 16))
        );
    };

    match cmd {
        "table1" => run_table1(),
        "table2" => run_table2(),
        "table3" => run_table3(),
        "fp" => run_fp(),
        "fig1" | "fig2" | "fig3" | "fig4" | "fig5" | "fig6" | "fig7" => run_fig(cmd),
        "figures" => {
            for f in ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"] {
                run_fig(f);
            }
        }
        "ablation-naive" => run_ablation_naive(),
        "ablation-classifier" => run_ablation_classifier(),
        "all" => {
            run_table1();
            run_table2();
            run_table3();
            run_fp();
            for f in ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"] {
                run_fig(f);
            }
            run_ablation_naive();
            run_ablation_classifier();
        }
        other => {
            eprintln!(
                "unknown command `{other}`\n\nusage: repro [table1|table2|table3|fp|fig1..fig7|figures|ablation-naive|ablation-classifier|all]\n       [--seed N] [--instances N] [--packets N] [--traces N] [--bytes N]"
            );
            std::process::exit(2);
        }
    }
}
