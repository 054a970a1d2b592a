//! `gsls-lint` — the static analyzer as a command-line gate.
//!
//! Lints `.lp` source files and/or the built-in workload generators and
//! exits nonzero when any deny-level (error) diagnostic fires, so it
//! can gate CI the way `cargo clippy -D warnings` does:
//!
//! ```text
//! gsls-lint examples/lp/*.lp --workloads
//! gsls-lint --json --strict program.lp
//! ```
//!
//! Flags:
//!
//! * `--workloads`   also lint every workload generator (small sizes);
//! * `--strict`      deny everything (all lints at deny level);
//! * `--permissive`  report nothing (useful to smoke-test parsing);
//! * `--budget N`    instantiation-estimate budget (default 1,000,000);
//! * `--json`        machine-readable output, one JSON object per line.
//!
//! Run: `cargo run --release --bin gsls-lint -- <args>`.

use gsls_analyze::{analyze, AnalyzerOpts, LintConfig, LintReport};
use gsls_lang::{parse_program, Program, TermStore};
use gsls_workloads::{
    negated_reachability, odd_even_chain, win_chain, win_cycle, win_grid, win_random, win_tree,
};
use std::process::ExitCode;

struct Cli {
    files: Vec<String>,
    workloads: bool,
    json: bool,
    config: LintConfig,
}

fn parse_args() -> Result<Cli, String> {
    let mut cli = Cli {
        files: Vec::new(),
        workloads: false,
        json: false,
        config: LintConfig::default(),
    };
    let mut budget: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workloads" => cli.workloads = true,
            "--json" => cli.json = true,
            "--strict" => cli.config = LintConfig::strict(),
            "--permissive" => cli.config = LintConfig::permissive(),
            "--budget" => {
                let v = args.next().ok_or("--budget needs a value")?;
                budget = Some(v.parse().map_err(|_| format!("bad budget: {v}"))?);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: gsls-lint [--workloads] [--json] [--strict|--permissive] \
                     [--budget N] [file.lp ...]"
                        .to_owned(),
                )
            }
            _ if arg.starts_with('-') => return Err(format!("unknown flag: {arg}")),
            _ => cli.files.push(arg),
        }
    }
    if let Some(b) = budget {
        cli.config = std::mem::take(&mut cli.config).with_budget(b);
    }
    if cli.files.is_empty() && !cli.workloads {
        return Err("nothing to lint: pass .lp files and/or --workloads".to_owned());
    }
    Ok(cli)
}

/// Lints one named program; returns whether it is deny-clean.
fn lint(name: &str, store: &TermStore, program: &Program, cli: &Cli) -> bool {
    let report: LintReport = analyze(
        store,
        program,
        &AnalyzerOpts::with_config(cli.config.clone()),
    );
    if cli.json {
        println!("{{\"unit\":{:?},\"report\":{}}}", name, report.to_json());
    } else if report.is_clean() {
        println!("{name}: clean");
    } else {
        println!("{name}:");
        for line in report.render().lines() {
            println!("  {line}");
        }
    }
    !report.has_errors()
}

fn main() -> ExitCode {
    let cli = match parse_args() {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let mut ok = true;
    for path in &cli.files {
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{path}: {e}");
                ok = false;
                continue;
            }
        };
        let mut store = TermStore::new();
        match parse_program(&mut store, &src) {
            Ok(program) => ok &= lint(path, &store, &program, &cli),
            Err(e) => {
                eprintln!("{path}: parse error: {e}");
                ok = false;
            }
        }
    }

    if cli.workloads {
        type Generator = fn(&mut TermStore) -> Program;
        let generators: &[(&str, Generator)] = &[
            ("workload:win_chain(32)", |s| win_chain(s, 32)),
            ("workload:win_cycle(9)", |s| win_cycle(s, 9)),
            ("workload:win_tree(4)", |s| win_tree(s, 4)),
            ("workload:win_grid(8x8)", |s| win_grid(s, 8, 8)),
            ("workload:win_random(24)", |s| win_random(s, 24, 3, 7)),
            ("workload:negated_reachability(8)", |s| {
                negated_reachability(s, 8)
            }),
            ("workload:odd_even_chain(16)", |s| odd_even_chain(s, 16)),
            // van_gelder_program is deliberately absent: it carries
            // function symbols, outside the function-free class the
            // safety lints (range restriction, groundness) are about.
        ];
        for (name, mk) in generators {
            let mut store = TermStore::new();
            let program = mk(&mut store);
            ok &= lint(name, &store, &program, &cli);
        }
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
