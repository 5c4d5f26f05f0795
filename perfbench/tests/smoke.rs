//! Tiny-size runs of every workload through the real command: a correct run
//! exits 0, and a corrupted pinned digest makes it exit non-zero.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["campaign-wide", "triage-deep", "daemon-mixed"];

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
    dir
}

/// Runs one tiny workload; returns the exit code and the last stdout line.
fn run(workload: &str, out: &PathBuf, expected: Option<&PathBuf>) -> (i32, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args([
        "--workload",
        workload,
        "--size",
        "tiny",
        "--seed",
        "0",
        "--seconds",
        "0.2",
    ]);
    cmd.arg("--out-dir").arg(out);
    if let Some(path) = expected {
        cmd.arg("--expected").arg(path);
    }
    let output = cmd.output().expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default().to_owned();
    (output.status.code().unwrap_or(-1), last)
}

/// The pinned digests with every digest of `workload`'s tiny run flipped.
fn corrupted(workload: &str) -> String {
    let pinned = include_str!("../expected/digests.txt");
    let prefix = format!("{workload} tiny 0 ");
    let mut flipped = 0;
    let text: Vec<String> = pinned
        .lines()
        .map(|line| match line.strip_prefix(&prefix) {
            Some(rest) => {
                flipped += 1;
                let (name, digest) = rest.split_once(' ').expect("name and digest");
                let first = if digest.starts_with('0') { '1' } else { '0' };
                format!("{prefix}{name} {first}{}", &digest[1..])
            }
            None => line.to_owned(),
        })
        .collect();
    assert!(flipped > 0, "{workload} has pinned tiny digests");
    text.join("\n")
}

#[test]
fn every_workload_passes_its_pinned_digests() {
    for workload in WORKLOADS {
        let out = scratch(&format!("pass-{workload}"));
        let (code, last) = run(workload, &out, None);
        assert_eq!(code, 0, "{workload}: {last}");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{workload}: {last}"
        );
        assert!(last.contains("\"failed\": 0,"), "{workload}: {last}");
        assert!(
            last.contains("\"ops_per_s\": {\"value\": "),
            "{workload}: {last}"
        );
    }
}

#[test]
fn a_corrupted_digest_fails_the_run() {
    for workload in WORKLOADS {
        let out = scratch(&format!("fail-{workload}"));
        let expected = out.join("digests.txt");
        std::fs::write(&expected, corrupted(workload)).expect("digest file is writable");
        let (code, last) = run(workload, &out, Some(&expected));
        assert_eq!(code, 1, "{workload}: {last}");
        assert!(
            last.starts_with("{\"correct\": false,"),
            "{workload}: {last}"
        );
    }
}

#[test]
fn traced_run_prints_per_layer_metrics() {
    let out = scratch("traced");
    let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "triage-deep",
            "--size",
            "tiny",
            "--seconds",
            "0.2",
            "--trace",
            "1",
        ])
        .arg("--out-dir")
        .arg(&out)
        .output()
        .expect("the benchmark binary runs");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    for name in [
        "reducer.reduce_s",
        "targets.execute_calls",
        "dedup.key_s",
        "trace.overhead",
    ] {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing: {last}"
        );
    }
    assert!(
        !last.contains("\"ops_per_s\""),
        "end-to-end metrics come from untraced runs only"
    );
    let dir = out.join("triage-deep-seed0");
    assert!(dir.join("spans.csv").is_file());
    let table = std::fs::read_to_string(dir.join("layers.txt")).expect("layer table written");
    assert!(table.contains("unattributed"));
}
