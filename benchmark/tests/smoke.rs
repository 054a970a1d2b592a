//! A short smoke of all four workloads on a 16×16 board, traced and
//! untraced: every named metric is present and finite, nothing fails —
//! and a corrupted oracle verdict is caught.

use gsls_benchmark::fixture::RunConfig;
use gsls_benchmark::json::Json;
use gsls_benchmark::metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use gsls_benchmark::run_workload;
use std::path::PathBuf;
use std::process::Command;

fn config(test: &str, traced: bool) -> RunConfig {
    // One output directory per test: tests run on parallel threads of
    // one process, and scratch roots are named after the process id.
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::create_dir_all(&out_dir).unwrap();
    RunConfig {
        seed: 1,
        seconds: 1.0,
        traced,
        board: 16,
        out_dir,
        corrupt_oracle: false,
    }
}

fn smoke(workload: &str) {
    let untraced = run_workload(workload, &config(&format!("{workload}-0"), false)).unwrap();
    assert!(
        untraced.correct(),
        "{workload}:\n{}",
        untraced.render_lines()
    );
    assert_eq!(untraced.failed, 0);
    let rows = untraced.rows();
    assert_eq!(rows.len(), END_TO_END.len());
    for ((name, unit, value, n), m) in rows.iter().zip(END_TO_END) {
        assert_eq!((*name, *unit), (m.name, m.unit));
        assert!(
            value.is_finite() && *value > 0.0 && *n > 0,
            "{workload} {name} = {value} ({n})"
        );
    }

    let cfg = config(&format!("{workload}-1"), true);
    let traced = run_workload(workload, &cfg).unwrap();
    assert!(traced.correct(), "{workload}:\n{}", traced.render_lines());
    assert_eq!(traced.failed, 0);
    let rows = traced.rows();
    assert_eq!(rows.len(), PER_LAYER.len());
    for ((name, unit, value, _), m) in rows.iter().zip(PER_LAYER) {
        assert_eq!((*name, *unit), (m.name, m.unit));
        assert!(value.is_finite(), "{workload} {name} = {value}");
    }
    for always in ["host.calib_us", "host.nproc", "trace.spans"] {
        assert!(traced.value(always).unwrap() > 0.0, "{workload} {always}");
    }
    // The trace file is valid JSON with the spans the report counted.
    let text = std::fs::read_to_string(cfg.out_dir.join(format!("trace-{workload}.json"))).unwrap();
    let trace = Json::parse(&text).expect("trace file parses");
    assert_eq!(
        trace.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
        traced.value("trace.spans").map(|n| n as usize)
    );
    // The final line is what the PR driver reads.
    let line = Json::parse(&traced.render_json()).unwrap();
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(
        line.get("metrics").and_then(Json::as_obj).map(<[_]>::len),
        Some(PER_LAYER.len())
    );
}

#[test]
fn serve_mixed_smoke() {
    smoke("serve_mixed");
}

#[test]
fn serve_read_smoke() {
    smoke("serve_read");
}

#[test]
fn embed_commit_smoke() {
    smoke("embed_commit");
}

#[test]
fn cold_build_smoke() {
    smoke("cold_build");
}

#[test]
fn each_workload_exercises_its_own_layers() {
    // The layers a workload bypasses read 0 in its traced pass: that is
    // the "no change expected" half of every later claim.
    let read = run_workload("serve_read", &config("layers-read", true)).unwrap();
    assert!(read.value("server.wait_point_us").unwrap() > 0.0);
    assert_eq!(read.value("server.wait_commit_ms"), None);
    assert_eq!(read.value("core.snapshot_ms"), None);
    let mixed = run_workload("serve_mixed", &config("layers-mixed", true)).unwrap();
    assert!(mixed.value("server.wait_commit_ms").unwrap() > 0.0);
    assert!(mixed.value("core.snapshot_ms").unwrap() > 0.0);
    assert_eq!(mixed.value("server.records_per_fsync"), Some(1.0));
    assert_eq!(mixed.value("wfs.grid200_ms"), None);
    let cold = run_workload("cold_build", &config("layers-cold", true)).unwrap();
    assert!(cold.value("wfs.grid200_ms").unwrap() > 0.0);
    assert_eq!(cold.value("server.wait_point_us"), None);
}

#[test]
fn a_corrupted_oracle_verdict_fails_every_workload() {
    for w in WORKLOADS {
        let mut cfg = config(&format!("corrupt-{}", w.name), false);
        cfg.corrupt_oracle = true;
        let report = run_workload(w.name, &cfg).unwrap();
        assert!(report.failed > 0 && !report.correct(), "{}", w.name);
    }
}

#[test]
fn the_command_exits_non_zero_on_an_oracle_mismatch() {
    let out_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("command");
    let run = |extra: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_gsls-benchmark"))
            .args(["--workload", "serve_read", "--seed", "3", "--seconds", "1"])
            .args(["--trace", "0", "--board", "16"])
            .args(extra)
            .env("GSLS_BENCH_OUT", &out_dir)
            .output()
            .unwrap()
    };
    let good = run(&[]);
    assert!(good.status.success());
    let last = String::from_utf8(good.stdout).unwrap();
    let doc = Json::parse(last.lines().last().unwrap()).unwrap();
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("failed"), Some(&Json::Num(0.0)));
    let keys: Vec<&str> = doc
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);

    let bad = run(&["--corrupt-oracle"]);
    assert_eq!(bad.status.code(), Some(1));
    let last = String::from_utf8(bad.stdout).unwrap();
    let doc = Json::parse(last.lines().last().unwrap()).unwrap();
    assert_eq!(doc.get("correct"), Some(&Json::Bool(false)));
    assert!(doc.get("failed").and_then(Json::as_f64).unwrap() > 0.0);
}
