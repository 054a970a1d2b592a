//! The command line.
//!
//! ```text
//! gsls-benchmark --workload W --seed N --seconds S --trace 0|1
//!     one run in this process; prints `name unit value n` per metric and,
//!     as the last line, {"correct", "attempted", "failed", "metrics"}.
//!     `--duration-s` is accepted for `--seconds`; `--board N` shrinks the
//!     board (tests); `--corrupt-oracle` flips one reference verdict and
//!     must make the run fail (self-test).
//! gsls-benchmark [suite] [--seed N] [--seconds S] [--workload W]...
//!     every workload (or those named after `suite`) untraced and traced,
//!     each in its own process; writes <out>/results.json. This is what
//!     runs when no `--workload` is given.
//! gsls-benchmark spread [--seed N] [--seconds S] [--runs R] [--workload W]...
//!     R untraced runs per workload on seeds N, N+1, …; prints each
//!     end-to-end metric's median and interquartile spread against its bound.
//! gsls-benchmark compare A.json B.json
//!     per-(metric, workload) verdicts between two result files.
//! ```
//!
//! `<out>` is `$GSLS_BENCH_OUT`, or `benchmark/out` under the current
//! directory.

use crate::compare;
use crate::fixture::RunConfig;
use crate::json::Json;
use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats::{iqr_share, median};
use std::path::PathBuf;
use std::process::Command;

/// Seconds per run in `BENCHMARK.json` and the default everywhere.
pub const RUN_SECONDS: u64 = 20;

fn out_dir() -> PathBuf {
    std::env::var_os("GSLS_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("benchmark/out"))
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    board: usize,
    runs: usize,
    corrupt_oracle: bool,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        board: 200,
        runs: 10,
        corrupt_oracle: false,
        positional: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: cannot read {v:?}"))
        }
        match arg.as_str() {
            "--workload" => out.workloads.push(value("a workload name")?),
            "--seed" => out.seed = num(arg, value("a number")?)?,
            "--seconds" | "--duration-s" => out.seconds = num(arg, value("a number")?)?,
            "--trace" => out.traced = num::<u8>(arg, value("0 or 1")?)? != 0,
            "--board" => out.board = num(arg, value("a number")?)?,
            "--runs" => out.runs = num(arg, value("a number")?)?,
            "--corrupt-oracle" => out.corrupt_oracle = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => out.positional.push(arg.clone()),
        }
    }
    if !(out.seconds > 0.0 && out.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    if out.board < 4 {
        return Err("--board must be at least 4".into());
    }
    for w in &out.workloads {
        if crate::metrics::workload(w).is_none() {
            return Err(format!("unknown workload {w:?}"));
        }
    }
    Ok(out)
}

/// Runs the command line; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("suite" | "spread" | "compare")) => (c, &args[1..]),
        _ if args.iter().any(|a| a == "--workload") => ("run", args),
        _ => ("suite", args),
    };
    let parsed = match parse_args(rest) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("gsls-benchmark: {e}");
            return 2;
        }
    };
    match command {
        "run" => run_one(&parsed),
        "suite" => suite(&parsed),
        "spread" => spread(&parsed),
        _ => compare_files(&parsed),
    }
}

fn run_one(args: &Args) -> i32 {
    let [workload] = args.workloads.as_slice() else {
        eprintln!("gsls-benchmark: a single run takes exactly one --workload");
        return 2;
    };
    let cfg = RunConfig {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        board: args.board,
        out_dir: out_dir(),
        corrupt_oracle: args.corrupt_oracle,
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        eprintln!(
            "gsls-benchmark: cannot create {}: {e}",
            cfg.out_dir.display()
        );
        return 2;
    }
    let report = crate::run_workload(workload, &cfg).expect("workload names were validated");
    print!("{}", report.render_lines());
    println!("{}", report.render_json());
    i32::from(!report.correct())
}

/// Runs one workload in a child process and returns its final JSON line.
fn child(args: &Args, workload: &str, seed: u64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--board", &args.board.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let doc = stdout
        .lines()
        .last()
        .ok_or_else(|| "no output".to_owned())
        .and_then(Json::parse);
    match doc {
        Ok(doc) if output.status.success() && doc.get("correct") == Some(&Json::Bool(true)) => {
            Ok(doc)
        }
        _ => Err(format!(
            "{workload} (seed {seed}, trace {}) failed:\n{stdout}{}",
            u8::from(traced),
            String::from_utf8_lossy(&output.stderr)
        )),
    }
}

fn selected(args: &Args) -> Vec<&str> {
    if args.workloads.is_empty() {
        WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        args.workloads.iter().map(String::as_str).collect()
    }
}

fn print_metrics(doc: &Json) {
    for (name, m) in doc.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
        println!(
            "  {name:<34} {:>16.4} {}",
            m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
            m.get("unit").and_then(Json::as_str).unwrap_or("")
        );
    }
}

fn suite(args: &Args) -> i32 {
    let mut workloads = Vec::new();
    let mut ok = true;
    for name in selected(args) {
        let mut entry = Vec::new();
        for (traced, section) in [(false, "end_to_end"), (true, "per_layer")] {
            println!("== {name} ({section})");
            match child(args, name, args.seed, traced) {
                Ok(doc) => {
                    print_metrics(&doc);
                    entry.push((
                        section.to_owned(),
                        doc.get("metrics").cloned().unwrap_or(Json::Null),
                    ));
                    for key in ["attempted", "failed"] {
                        entry.push((
                            format!("{key}_{section}"),
                            doc.get(key).cloned().unwrap_or(Json::Null),
                        ));
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
        workloads.push((name.to_owned(), Json::Obj(entry)));
    }
    let doc = Json::Obj(vec![
        ("seed".into(), Json::Num(args.seed as f64)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("workloads".into(), Json::Obj(workloads)),
    ]);
    let path = out_dir().join("results.json");
    match std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, doc.render() + "\n"))
    {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("gsls-benchmark: cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    i32::from(!ok)
}

fn spread(args: &Args) -> i32 {
    let mut ok = true;
    for name in selected(args) {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for run in 0..args.runs as u64 {
            match child(args, name, args.seed + run, false) {
                Ok(doc) => {
                    for (m, column) in END_TO_END.iter().zip(&mut values) {
                        let v = doc
                            .get("metrics")
                            .and_then(|ms| ms.get(m.name))
                            .and_then(|v| v.get("value"))
                            .and_then(Json::as_f64);
                        column.extend(v);
                    }
                }
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
        println!("== {name}: {} runs, seeds {}..", args.runs, args.seed);
        println!(
            "  {:<14} {:>12} {:>9} {:>7}",
            "metric", "median", "spread", "bound"
        );
        for (m, column) in END_TO_END.iter().zip(&values) {
            let share = iqr_share(column);
            // setup_s is exempt from the spread rule (only its median is compared).
            let within = share <= m.bound || m.name == "setup_s";
            ok &= within;
            println!(
                "  {:<14} {:>12.4} {:>8.2}% {:>6.0}%  {}",
                m.name,
                median(column),
                share * 100.0,
                m.bound * 100.0,
                if !within {
                    "OVER"
                } else if share > m.bound / 3.0 {
                    "wide"
                } else {
                    "ok"
                }
            );
        }
    }
    i32::from(!ok)
}

fn compare_files(args: &Args) -> i32 {
    let [a, b] = args.positional.as_slice() else {
        eprintln!("gsls-benchmark: compare needs two result files");
        return 2;
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
            .map_err(|e| format!("{path}: {e}"))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let rows = compare::compare(&a, &b);
            print!("{}", compare::render(&rows));
            i32::from(rows.is_empty() || rows.iter().any(|r| r.verdict == "worse"))
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("gsls-benchmark: {e}");
            2
        }
    }
}
