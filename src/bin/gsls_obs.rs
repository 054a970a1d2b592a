//! `gsls-obs` — the observability layer as a command-line inspector.
//!
//! Loads a program (a `.lp` source file via [`Session::from_source`],
//! or a durable session directory via [`Session::open`], whose replay
//! itself populates the registry), optionally drives it with commits
//! and queries, then prints everything the engine observed: counters,
//! latency histograms and the span-event timeline.
//!
//! ```text
//! gsls-obs examples/lp/win_game.lp --query "?- win(X)."
//! gsls-obs /var/lib/gsls/session --events 32
//! gsls-obs program.lp --assert "move(x, a)." --json
//! ```
//!
//! Flags:
//!
//! * `--assert "<facts>"`  commit the facts before reporting (repeatable);
//! * `--query "?- ..."`    run the query before reporting (repeatable);
//! * `--events N`          cap the event timeline at the newest N;
//! * `--json`              one JSON object: `{"metrics": ..., "events": [...]}`;
//! * `--prom`              metrics in the Prometheus text exposition format
//!   (what `gsls-serve`'s scrape endpoint returns).
//!
//! Run: `cargo run --release --bin gsls-obs -- <args>`.

use gsls_core::{Answer, Session, SessionError};
use gsls_obs::TraceEvent;
use gsls_wfs::Truth;
use std::process::ExitCode;

struct Cli {
    target: String,
    asserts: Vec<String>,
    queries: Vec<String>,
    events: Option<usize>,
    json: bool,
    prom: bool,
}

fn parse_args() -> Result<Cli, String> {
    let mut target: Option<String> = None;
    let mut cli = Cli {
        target: String::new(),
        asserts: Vec::new(),
        queries: Vec::new(),
        events: None,
        json: false,
        prom: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => cli.json = true,
            "--prom" => cli.prom = true,
            "--assert" => cli.asserts.push(args.next().ok_or("--assert needs facts")?),
            "--query" => cli.queries.push(args.next().ok_or("--query needs a goal")?),
            "--events" => {
                let v = args.next().ok_or("--events needs a count")?;
                cli.events = Some(v.parse().map_err(|_| format!("bad count: {v}"))?);
            }
            "--help" | "-h" => {
                return Err(
                    "usage: gsls-obs <file.lp | session-dir> [--assert \"<facts>\"]... \
                     [--query \"?- ...\"]... [--events N] [--json] [--prom]"
                        .to_owned(),
                )
            }
            _ if arg.starts_with('-') => return Err(format!("unknown flag: {arg}")),
            _ if target.is_some() => return Err(format!("second target: {arg}")),
            _ => target = Some(arg),
        }
    }
    cli.target = target.ok_or("nothing to inspect: pass a .lp file or a session dir")?;
    Ok(cli)
}

/// Opens the target as a durable session directory or a `.lp` source
/// file, whichever it is on disk.
fn load(target: &str) -> Result<Session, String> {
    let path = std::path::Path::new(target);
    if path.is_dir() {
        return Session::open(path).map_err(|e| format!("{target}: {e}"));
    }
    let src = std::fs::read_to_string(path).map_err(|e| format!("{target}: {e}"))?;
    Session::from_source(&src).map_err(|e| format!("{target}: {e}"))
}

fn print_events(events: &[TraceEvent], json: bool) {
    if json {
        return; // folded into the single JSON object by the caller
    }
    println!("\nevents ({}):", events.len());
    println!("  {:>6}  {:>12}  {:>12}  label", "seq", "at_us", "dur_us");
    for e in events {
        print!(
            "  {:>6}  {:>12.1}  {:>12.1}  {}",
            e.seq,
            e.at_ns as f64 / 1e3,
            e.dur_ns as f64 / 1e3,
            e.label
        );
        if let Some(d) = &e.detail {
            print!("  [{d}]");
        }
        println!();
    }
}

fn run() -> Result<(), String> {
    let cli = parse_args()?;
    let mut session = load(&cli.target)?;

    for facts in &cli.asserts {
        session
            .assert_facts(facts)
            .map_err(|e| format!("--assert {facts:?}: {e}"))?;
    }
    let mut query_lines = Vec::new();
    for goal in &cli.queries {
        let err = |e: SessionError| format!("--query {goal:?}: {e}");
        let q = session.prepare(goal).map_err(err)?;
        let r = q.execute(&session).map_err(err)?.collect_result();
        let n = r.answers.len();
        let mut line = format!("{goal}  =>  {} ({n} answers)", r.truth);
        for subst in r.answers.into_iter().take(8) {
            let answer = Answer {
                subst,
                truth: Truth::True,
            };
            line.push_str(&format!("\n    {}", q.render_answer(&session, &answer)));
        }
        if n > 8 {
            line.push_str(&format!("\n    ... {} more", n - 8));
        }
        query_lines.push(line);
    }

    if cli.prom {
        print!("{}", gsls_obs::render_prometheus(session.obs().registry()));
        return Ok(());
    }

    let metrics = session.metrics();
    let mut events = session.recent_events();
    if let Some(n) = cli.events {
        let skip = events.len().saturating_sub(n);
        events.drain(..skip);
    }

    if cli.json {
        let ev: Vec<String> = events.iter().map(TraceEvent::to_json).collect();
        println!(
            "{{\"target\": \"{}\", \"metrics\": {}, \"events\": [{}]}}",
            gsls_obs::json_escape(&cli.target),
            metrics.to_json(),
            ev.join(", ")
        );
        return Ok(());
    }

    println!("# gsls-obs — {}", cli.target);
    for line in &query_lines {
        println!("{line}");
    }
    println!("\ncounters:");
    for (name, v) in &metrics.counters {
        println!("  {name:<40} {v:>12}");
    }
    if !metrics.gauges.is_empty() {
        println!("\ngauges:");
        for (name, v) in &metrics.gauges {
            println!("  {name:<40} {v:>12}");
        }
    }
    println!("\nhistograms:");
    println!(
        "  {:<24} {:>8} {:>12} {:>12} {:>12} {:>12}",
        "name", "count", "p50_us", "p90_us", "p99_us", "max_us"
    );
    for (name, h) in &metrics.histograms {
        println!(
            "  {:<24} {:>8} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            name,
            h.count,
            h.p50 as f64 / 1e3,
            h.p90 as f64 / 1e3,
            h.p99 as f64 / 1e3,
            h.max as f64 / 1e3
        );
    }
    print_events(&events, cli.json);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
