//! End-to-end tests of the `bgpsim` command-line binary.

use std::process::Command;

fn bgpsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bgpsim"))
}

#[test]
fn help_prints_usage_and_succeeds() {
    let out = bgpsim().arg("--help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("usage: bgpsim"), "no usage text: {text}");
}

#[test]
fn unknown_flag_fails_with_usage() {
    let out = bgpsim().arg("--frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("unknown flag"), "missing diagnostic: {text}");
}

#[test]
fn out_of_range_inputs_fail_with_usage_instead_of_panicking() {
    for (flag, value) in [
        ("--nodes", "0"),
        ("--nodes", "1"),
        ("--failure", "1.5"),
        ("--failure", "-0.1"),
        ("--mrai", "-1"),
        ("--mrai", "nan"),
        ("--hold-timer", "inf"),
        ("--trials", "0"),
    ] {
        let out = bgpsim().args([flag, value]).output().expect("binary runs");
        let text = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {text}");
        assert!(
            text.contains(&format!("error: {flag}")),
            "{flag} {value}: diagnostic must name the flag: {text}"
        );
        assert!(
            text.contains("usage: bgpsim"),
            "{flag} {value}: no usage: {text}"
        );
        assert!(out.stdout.is_empty(), "{flag} {value}: ran anyway");
    }
}

#[test]
fn small_run_reports_results() {
    let out = bgpsim()
        .args([
            "--nodes",
            "25",
            "--failure",
            "0.1",
            "--trials",
            "1",
            "--seed",
            "9",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("mean delay:"), "missing results: {text}");
    assert!(text.contains("mean messages:"));
}

#[test]
fn json_output_is_parseable_and_complete() {
    let out = bgpsim()
        .args([
            "--nodes",
            "25",
            "--scheme",
            "batching",
            "--failure",
            "0.1",
            "--trials",
            "2",
            "--seed",
            "9",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let value: serde_json::Value = serde_json::from_slice(&out.stdout).expect("valid JSON");
    assert!(value["mean_delay_secs"].as_f64().expect("delay present") > 0.0);
    assert_eq!(value["runs"].as_array().expect("runs present").len(), 2);
    assert!(value["experiment"]["scheme"]["name"]
        .as_str()
        .expect("scheme name")
        .contains("batching"));
}

#[test]
fn same_seed_gives_identical_json() {
    let run = || {
        bgpsim()
            .args([
                "--nodes",
                "20",
                "--failure",
                "0.1",
                "--trials",
                "1",
                "--seed",
                "44",
                "--json",
            ])
            .output()
            .expect("binary runs")
            .stdout
    };
    assert_eq!(run(), run(), "CLI runs must be reproducible per seed");
}

#[test]
fn ablation_flags_are_accepted() {
    let out = bgpsim()
        .args([
            "--nodes",
            "20",
            "--failure",
            "0.05",
            "--trials",
            "1",
            "--seed",
            "3",
            "--policy",
            "--prefixes",
            "2",
            "--json",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}
