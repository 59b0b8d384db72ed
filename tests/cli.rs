//! The `snids` command line: flags it cannot read are usage errors
//! (exit 2 with a message), never silently dropped or defaulted.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::time::{Duration, Instant};

fn snids(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_snids"))
        .args(args)
        .output()
        .expect("snids runs")
}

/// A per-test scratch directory under the system temp dir.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snids-cli-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn assert_usage_error(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr:\n{stderr}");
    assert!(
        stderr.contains(needle),
        "want `{needle}` in stderr:\n{stderr}"
    );
}

#[test]
fn usage_lists_the_three_commands() {
    for args in [&[][..], &["bench"], &["fleet"]] {
        let out = snids(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        for cmd in ["snids analyze", "snids synth", "snids disasm"] {
            assert!(stderr.contains(cmd), "{args:?}: {stderr}");
        }
        assert!(!stderr.contains("snids bench") && !stderr.contains("snids fleet"));
    }
}

#[test]
fn synth_rejects_unreadable_values() {
    let dir = scratch("synth");
    let pcap = dir.join("a.pcap");
    let path = pcap.to_str().expect("utf-8 path");
    for (args, needle) in [
        (&["--packets", "abc"][..], "--packets"),
        (&["--seed", "-1"], "--seed"),
        (&["--chaos", "2.5"], "--chaos"),
        (&["--chaos", "-0.1"], "--chaos"),
        (&["--chaos", "NaN"], "--chaos"),
        (&["--flood"], "--flood needs a value"),
        (&["--crii", "--seed", "3"], "--crii needs a value"),
    ] {
        let mut argv = vec!["synth", path];
        argv.extend_from_slice(args);
        assert_usage_error(&snids(&argv), needle);
        assert!(!pcap.exists(), "{args:?} still wrote a capture");
    }
    // The same flags with readable values are accepted.
    let out = snids(&["synth", path, "--packets", "300", "--chaos", "0.5"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(pcap.exists());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn analyze_rejects_a_flag_missing_its_value() {
    let dir = scratch("analyze");
    let pcap = dir.join("b.pcap");
    let path = pcap.to_str().expect("utf-8 path");
    let out = snids(&["synth", path, "--packets", "600", "--crii", "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let hp = "192.168.1.200";
    assert_usage_error(
        &snids(&["analyze", path, "--honeypot", hp, "--dark"]),
        "--dark needs a value",
    );
    assert_usage_error(
        &snids(&["analyze", path, "--honeypot", "--dark", "10.99.0.0/16"]),
        "--honeypot needs a value",
    );
    // With its value the same run detects the worm (exit 1 = alerts).
    let out = snids(&["analyze", path, "--honeypot", hp, "--dark", "10.99.0.0/16"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(!out.stdout.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unknown_flags_are_usage_errors() {
    // Checked before the capture is opened or written, so no file is
    // touched.
    for (args, flag) in [
        (&["analyze", "x.pcap", "--shards", "2"][..], "--shards"),
        (&["analyze", "x.pcap", "--prefiter", "off"], "--prefiter"),
        (&["analyze", "x.pcap", "--json", "--verbose"], "--verbose"),
        (
            &["synth", "x.pcap", "--packets", "300", "--chaos-rate", "0.5"],
            "--chaos-rate",
        ),
    ] {
        assert_usage_error(&snids(args), &format!("unknown flag {flag}"));
    }
    assert!(!std::path::Path::new("x.pcap").exists());
}

#[test]
fn analyze_rejects_a_template_name_already_loaded() {
    let dir = scratch("templates");
    let write = |name: &str, text: &str| {
        let p = dir.join(name);
        std::fs::write(&p, text).expect("template file");
        p.to_str().expect("utf-8 path").to_string()
    };
    let clash = write(
        "clash.tmpl",
        "template bind-shell\n  syscall 0x80 eax=0xb\n",
    );
    let mine = write("mine.tmpl", "template my-shell\n  syscall 0x80 eax=0xb\n");
    // Checked before the capture is opened, so none is needed.
    for (args, name) in [
        (vec![clash.as_str()], "bind-shell"),
        (vec![mine.as_str(), mine.as_str()], "my-shell"),
    ] {
        let mut argv = vec!["analyze", "missing.pcap"];
        for path in args {
            argv.extend_from_slice(&["--templates", path]);
        }
        assert_usage_error(
            &snids(&argv),
            &format!("template `{name}` is already loaded"),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_listen_ends_with_the_replay() {
    let dir = scratch("listen");
    let pcap = dir.join("c.pcap");
    let path = pcap.to_str().expect("utf-8 path");
    let out = snids(&["synth", path, "--packets", "300"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut child = Command::new(env!("CARGO_BIN_EXE_snids"))
        .args(["analyze", path, "--metrics-listen", "127.0.0.1:0"])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("snids spawns");
    let t0 = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait") {
            break Some(status);
        }
        if t0.elapsed() > Duration::from_secs(60) {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.is_some(), "analyze kept serving after the replay");
    let _ = std::fs::remove_dir_all(&dir);
}
