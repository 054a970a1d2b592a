//! Serving demo: start a server on an ephemeral port, drive it with
//! concurrent clients, and watch the group-commit write path amortize
//! fsyncs.
//!
//! Run: `cargo run --example serve_demo`

use global_sls::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let data_dir = std::env::temp_dir().join(format!("gsls_serve_demo_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);

    // 1. A durable server on an ephemeral port.
    let mut server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        data_dir: Some(data_dir.clone()),
        ..ServerConfig::default()
    })?;
    let addr = server.addr();
    println!("serving on {addr}");

    // 2. Seed the win-game program over the wire.
    let mut client = Client::connect(addr)?;
    client.ping()?;
    let receipt = client.commit(
        "move(a, b). move(b, a). move(b, c). win(X) :- move(X, Y), ~win(Y).",
        "",
        "",
        GovernOpts::default(),
    )?;
    println!("seeded at epoch {}", receipt.epoch);

    // 3. Concurrent writers: each commits its own fact batch. The
    //    session commits them as groups — many WAL records, few fsyncs.
    let writers: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || -> Result<u64, ClientError> {
                let mut c = Client::connect(addr)?;
                let mut last = 0;
                for j in 0..5 {
                    let r = c.commit(
                        "",
                        &format!("move(c, n{i}_{j})."),
                        "",
                        GovernOpts::default(),
                    )?;
                    last = r.epoch;
                }
                Ok(last)
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer thread")?;
    }

    // 4. Concurrent readers on snapshots, while a governed commit with
    //    an already-expired deadline bounces off (Interrupted) without
    //    disturbing anyone.
    let strict = GovernOpts {
        deadline_ms: Some(0),
        ..GovernOpts::default()
    };
    let err = client
        .commit("", "move(zz, yy). move(yy, zz).", "", strict)
        .unwrap_err();
    println!("expired-deadline commit: {err}");

    let q = client.query("?- win(X).", GovernOpts::default())?;
    println!(
        "win(X): {} ({} true, {} undefined)",
        q.truth,
        q.answers.len(),
        q.undefined.len()
    );

    // 5. The scrape shows the amortization: group_records / group_syncs
    //    is the mean batches-per-fsync.
    let scrape = client.metrics()?;
    let get = |name: &str| -> u64 {
        scrape
            .lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    let records = get("gsls_wal_group_records");
    let syncs = get("gsls_wal_group_syncs");
    println!("group commit: {records} records over {syncs} fsync groups");

    // 6. Graceful shutdown: the request stops the server, and `wait`
    //    returns once the writers have flushed their queues.
    client.shutdown_server()?;
    server.wait();

    // 7. The state survived: reopen the session directory directly.
    let session = Session::open(data_dir.join("default"))?;
    assert_eq!(session.truth("?- move(a, b).")?, Truth::True);
    println!("reopened at epoch {}", session.epoch());
    let _ = std::fs::remove_dir_all(&data_dir);
    Ok(())
}
