//! `gsls-serve` — the network server binary.
//!
//! ```text
//! gsls-serve [--addr HOST:PORT] [--data-dir DIR] [--max-conns N]
//!            [--idle-timeout-ms N] [--remote-admin]
//! ```
//!
//! Serves until a client sends `Shutdown` (see `gsls-client shutdown`),
//! then drains gracefully and exits. With no `--data-dir` the sessions
//! are in-memory (nothing survives a restart). `Shutdown` is honored
//! from loopback peers only, unless `--remote-admin` opts in. A
//! connection that sends no byte for `--idle-timeout-ms` (default 30 s,
//! must be nonzero) is closed.

use gsls_serve::{Server, ServerConfig};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: gsls-serve [--addr HOST:PORT] [--data-dir DIR] [--max-conns N]\n\
         \x20                 [--idle-timeout-ms N] [--remote-admin]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:4766".into(),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |name: &str| -> Option<String> {
            match args.next() {
                Some(v) => Some(v),
                None => {
                    eprintln!("{name} needs a value");
                    None
                }
            }
        };
        match arg.as_str() {
            "--addr" => match take("--addr") {
                Some(v) => cfg.addr = v,
                None => return usage(),
            },
            "--data-dir" => match take("--data-dir") {
                Some(v) => cfg.data_dir = Some(v.into()),
                None => return usage(),
            },
            "--max-conns" => match take("--max-conns").and_then(|v| v.parse().ok()) {
                Some(v) => cfg.max_conns = v,
                None => return usage(),
            },
            "--idle-timeout-ms" => match take("--idle-timeout-ms").and_then(|v| v.parse().ok()) {
                Some(v) => cfg.idle_timeout = Duration::from_millis(v),
                None => return usage(),
            },
            "--remote-admin" => cfg.remote_admin = true,
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown flag {other}");
                return usage();
            }
        }
    }
    let mut server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gsls-serve: start failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("gsls-serve listening on {}", server.addr());
    server.wait();
    println!("gsls-serve drained");
    ExitCode::SUCCESS
}
