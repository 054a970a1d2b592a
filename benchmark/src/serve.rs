//! `serve_mixed` and `serve_read`: an in-process `Server` over a durable
//! 200×200 session on loopback, driven closed-loop by at most two
//! connections — one writer (mixed only) and one reader.
//!
//! | role  | `serve_mixed`               | `serve_read`   |
//! |-------|-----------------------------|----------------|
//! | main  | commit, client send → ack   | point query    |
//! | side  | join query beside writes    | join query     |
//! | heavy | `?- win(X).` enumeration    | the same       |

use crate::fixture::{
    board_source, open_board_session, Phase, RunConfig, Scrape, Scratch, Window, SETUPS,
};
use crate::host::{self, Calibration, CALIBRATION_REPS};
use crate::layers;
use crate::ops::{ReadClass, ReadOp, ReaderStream, WriteOp, WriterStream};
use crate::oracle::{self, fingerprint, Expected, Oracle};
use crate::report::Report;
use crate::spans::{Span, Tracer};
use crate::stats::{median, Samples, Series};
use gsls_core::Session;
use gsls_lang::{
    decode_response, encode_request, GovernOpts, Request, Response, TermStore, TruthTag,
};
use gsls_serve::{read_frame, write_frame, Client, QueryResults, Server, ServerConfig};
use std::io::{BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A served board: the server, where it listens, and where its data is.
struct Served {
    server: Server,
    addr: SocketAddr,
}

/// Seeds `root/default` with the board, starts a default-configured
/// server on it and waits for the first reply (which makes the server
/// open — recover — the session). Returns the set-up time too.
fn set_up(root: &Path, cfg: &RunConfig) -> (Served, Client, f64) {
    let t = Instant::now();
    drop(open_board_session(&root.join("default"), cfg.grid()));
    let server = Server::start(ServerConfig {
        data_dir: Some(root.to_path_buf()),
        ..ServerConfig::default()
    })
    .expect("server starts on an ephemeral loopback port");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("loopback connect");
    client
        .query("?- win(n0).", GovernOpts::default())
        .expect("first reply");
    let secs = t.elapsed().as_secs_f64();
    (Served { server, addr }, client, secs)
}

/// The traced driver: the client's own steps, made by the harness with
/// the public codec on its own socket, each wrapped in a span.
struct Wire {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
    store: TermStore,
    buf: Vec<u8>,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Wire {
        let stream = TcpStream::connect(addr).expect("loopback connect");
        stream.set_nodelay(true).expect("nodelay");
        Wire {
            reader: stream.try_clone().expect("socket clone"),
            writer: BufWriter::new(stream),
            store: TermStore::new(),
            buf: Vec::new(),
        }
    }

    /// One round trip; besides the reply, the `server.wait` time: last
    /// request byte written → reply frame read.
    fn round_trip(
        &mut self,
        tr: &mut Tracer,
        op_id: u32,
        root: u32,
        req: &Request,
    ) -> Result<(Response, u64), String> {
        let s = tr.open("lang.encode_request", op_id, root);
        self.buf.clear();
        encode_request(&self.store, req, &mut self.buf);
        tr.close(s);
        let s = tr.open("server.write_frame", op_id, root);
        let sent = write_frame(&mut self.writer, &self.buf).and_then(|()| self.writer.flush());
        tr.close(s);
        sent.map_err(|e| e.to_string())?;
        let s = tr.open("server.wait", op_id, root);
        let payload = read_frame(&mut self.reader);
        let wait_ns = tr.close(s);
        let payload = payload.map_err(|e| e.to_string())?;
        let s = tr.open("lang.decode_response", op_id, root);
        let response = decode_response(&payload);
        tr.close(s);
        let response = response.map_err(|e| format!("{e:?}"))?;
        Ok((response, wait_ns))
    }

    fn commit(&mut self, tr: &mut Tracer, op_id: u32, op: &WriteOp) -> Result<(u64, u64), String> {
        let root = tr.open("client.commit", op_id, 0);
        let s = tr.open("lang.parse", op_id, root.id);
        let parsed = layers::facts(&mut self.store, &op.asserts)
            .and_then(|a| Ok((a, layers::facts(&mut self.store, &op.retracts)?)));
        tr.close(s);
        let out = parsed.and_then(|(asserts, retracts)| {
            let req = Request::Commit {
                rules: Vec::new(),
                asserts,
                retracts,
                opts: GovernOpts::default(),
            };
            self.round_trip(tr, op_id, root.id, &req)
        });
        tr.close(root);
        match out? {
            (Response::Committed { epoch, .. }, wait_ns) => Ok((epoch, wait_ns)),
            (other, _) => Err(format!("commit answered {other:?}")),
        }
    }

    fn query(
        &mut self,
        tr: &mut Tracer,
        op_id: u32,
        goal: &str,
    ) -> Result<(QueryResults, u64), String> {
        let root = tr.open("client.query", op_id, 0);
        let req = Request::Query {
            goal: goal.to_owned(),
            opts: GovernOpts::default(),
        };
        let out = self.round_trip(tr, op_id, root.id, &req);
        tr.close(root);
        match out? {
            (
                Response::Answers {
                    truth,
                    answers,
                    undefined,
                    interrupted,
                },
                wait_ns,
            ) => Ok((
                QueryResults {
                    truth: match truth {
                        TruthTag::True => "true",
                        TruthTag::False => "false",
                        TruthTag::Undefined => "undefined",
                    },
                    answers,
                    undefined,
                    interrupted,
                },
                wait_ns,
            )),
            (other, _) => Err(format!("query answered {other:?}")),
        }
    }
}

/// One connection's two drivers: the stock `Client`, and in a traced
/// pass the span-recording [`Wire`] beside it.
struct Driver {
    client: Client,
    wire: Option<(Wire, Tracer)>,
}

impl Driver {
    fn connect(addr: SocketAddr, window: &Window, cfg: &RunConfig, lane: u32) -> Driver {
        Driver {
            client: Client::connect(addr).expect("loopback connect"),
            wire: cfg.traced.then(|| {
                (
                    Wire::connect(addr),
                    Tracer::new(window.warm_end, lane * 100_000_000, 1 << 20),
                )
            }),
        }
    }

    fn commit(&mut self, traced: bool, op_id: u32, op: &WriteOp) -> Result<(u64, u64), String> {
        match (&mut self.wire, traced) {
            (Some((wire, tr)), true) => wire.commit(tr, op_id, op),
            _ => self
                .client
                .commit("", &op.asserts, &op.retracts, GovernOpts::default())
                .map(|r| (r.epoch, 0))
                .map_err(|e| e.to_string()),
        }
    }

    fn query(
        &mut self,
        traced: bool,
        op_id: u32,
        goal: &str,
    ) -> Result<(QueryResults, u64), String> {
        match (&mut self.wire, traced) {
            (Some((wire, tr)), true) => wire.query(tr, op_id, goal),
            _ => self
                .client
                .query(goal, GovernOpts::default())
                .map(|r| (r, 0))
                .map_err(|e| e.to_string()),
        }
    }

    fn into_spans(self) -> Vec<Span> {
        self.wire.map(|(_, tr)| tr.into_spans()).unwrap_or_default()
    }
}

/// Latencies of one operation class, split by which driver ran it.
#[derive(Default)]
struct ClassLat {
    plain: Samples,
    traced: Samples,
    /// `server.wait` of the traced ones.
    wait: Samples,
}

impl ClassLat {
    fn record(&mut self, phase: Phase, ns: u64, wait_ns: u64) {
        match phase {
            Phase::Plain => self.plain.push(ns),
            Phase::Traced => {
                self.traced.push(ns);
                self.wait.push(wait_ns);
            }
            Phase::Warmup | Phase::Done => {}
        }
    }
}

/// What one generator thread brings back.
struct Lane {
    /// By operation class, split by driver (traced pass).
    classes: [ClassLat; 3],
    /// In completion order: the reader's three classes, or — for the
    /// writer — every commit in slot 0.
    series: [Series; 3],
    attempted: u64,
    failures: Vec<String>,
    spans: Vec<Span>,
}

impl Lane {
    fn new() -> Lane {
        Lane {
            classes: Default::default(),
            series: Default::default(),
            attempted: 0,
            failures: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Records a measured operation of class slot `class` (`slot` in
    /// `series`) that just completed.
    fn record(
        &mut self,
        window: &Window,
        phase: Phase,
        class: usize,
        slot: usize,
        ns: u64,
        wait_ns: u64,
    ) {
        if phase != Phase::Warmup {
            self.classes[class].record(phase, ns, wait_ns);
            self.series[slot].record(window.warm_end.elapsed().as_secs_f64(), ns);
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    fn measured_ops(&self) -> u64 {
        self.series.iter().map(|s| s.len() as u64).sum()
    }
}

fn writer_lane(
    addr: SocketAddr,
    window: Window,
    cfg: &RunConfig,
    stream: &mut WriterStream,
) -> (Lane, u64) {
    let mut driver = Driver::connect(addr, &window, cfg, 1);
    let mut lane = Lane::new();
    let mut epoch = 0u64;
    let mut op_id = 0u32;
    loop {
        let start = Instant::now();
        let phase = window.phase(start);
        if phase == Phase::Done {
            break;
        }
        let traced = phase == Phase::Traced;
        let op = stream.next_op();
        op_id += 1;
        let t = Instant::now();
        let res = driver.commit(traced, op_id, &op);
        let ns = t.elapsed().as_nanos() as u64;
        match res {
            Ok((got, wait_ns)) => {
                lane.check(got == epoch + 1, || {
                    format!("commit {op_id} acked epoch {got}, expected {}", epoch + 1)
                });
                epoch = got;
                lane.record(&window, phase, op.class as usize, 0, ns, wait_ns);
            }
            Err(e) => lane.check(false, || format!("commit {op_id}: {e}")),
        }
        if op_id.is_multiple_of(32) {
            // Read-your-writes on the same connection, untimed.
            let seen = driver.query(traced, op_id, &op.probe);
            let want = if op.probe_holds { "true" } else { "false" };
            lane.check(seen.as_ref().is_ok_and(|(r, _)| r.truth == want), || {
                format!(
                    "after commit {op_id}, {} read {:?}, expected {want}",
                    op.probe,
                    seen.map(|(r, _)| r.truth)
                )
            });
        }
    }
    lane.spans = driver.into_spans();
    (lane, epoch)
}

fn matches(reply: &QueryResults, want: &Expected) -> bool {
    !reply.interrupted
        && reply.truth == want.truth
        && fingerprint(&reply.answers) == want.answers
        && fingerprint(&reply.undefined) == want.undefined
}

fn reader_lane(
    addr: SocketAddr,
    window: Window,
    cfg: &RunConfig,
    // The static reference, when nothing writes (`serve_read`).
    oracle: Option<&Oracle>,
) -> Lane {
    let mut driver = Driver::connect(addr, &window, cfg, 2);
    let mut stream = ReaderStream::new(cfg.seed, cfg.grid());
    let mut lane = Lane::new();
    let expect_enum = oracle.map(Oracle::expect_enum);
    let mut op_id = 0u32;
    loop {
        let start = Instant::now();
        let phase = window.phase(start);
        if phase == Phase::Done {
            break;
        }
        let ReadOp { class, goal, key } = stream.next_op();
        op_id += 1;
        let t = Instant::now();
        let res = driver.query(phase == Phase::Traced, op_id, &goal);
        let ns = t.elapsed().as_nanos() as u64;
        match res {
            Ok((reply, wait_ns)) => {
                let ok = match (oracle, class) {
                    (None, _) => !reply.interrupted,
                    (Some(o), ReadClass::Point) => matches(&reply, &o.expect_point(key)),
                    (Some(o), ReadClass::Join) => matches(&reply, &o.expect_join(key)),
                    (Some(_), ReadClass::Enum) => {
                        matches(&reply, expect_enum.as_ref().expect("set with the oracle"))
                    }
                };
                lane.check(ok, || {
                    format!(
                        "{goal} answered {} with {} + {} answers",
                        reply.truth,
                        reply.answers.len(),
                        reply.undefined.len()
                    )
                });
                lane.record(&window, phase, class as usize, class as usize, ns, wait_ns);
            }
            Err(e) => lane.check(false, || format!("{goal}: {e}")),
        }
    }
    lane.spans = driver.into_spans();
    lane
}

fn overhead_pct(class: &ClassLat) -> f64 {
    let plain = class.plain.percentile_ns(50.0);
    if plain == 0.0 || class.traced.is_empty() {
        return 0.0;
    }
    (class.traced.percentile_ns(50.0) - plain) / plain * 100.0
}

/// Runs `serve_mixed` (`mixed == true`) or `serve_read`.
pub fn run(cfg: &RunConfig, mixed: bool) -> Report {
    let mut report = Report::new(cfg.traced);
    let scratch = Scratch::new(&cfg.out_dir);
    let calib = Calibration::new();
    let calib_before = calib.run(CALIBRATION_REPS);

    // The static reference first, so that its ground program is freed
    // before the server's memory is measured.
    let base = board_source(cfg.grid());
    let mut base_oracle = Oracle::from_source(&base);
    if cfg.corrupt_oracle && !mixed {
        base_oracle.corrupt_one_verdict();
    }

    // Set up SETUPS times, one server alive at a time; keep the last.
    let mut setups = Vec::new();
    let mut kept: Option<(Served, Client, PathBuf)> = None;
    for i in 0..SETUPS {
        if let Some((mut old, client, root)) = kept.take() {
            drop(client);
            old.server.shutdown();
            let _ = std::fs::remove_dir_all(root);
        }
        let root = scratch.dir(&format!("served-{i}"));
        let (served, client, secs) = set_up(&root, cfg);
        setups.push(secs);
        kept = Some((served, client, root));
    }
    let (mut served, mut admin, root) = kept.expect("SETUPS >= 1");
    report.set("setup_s", median(&setups), setups.len() as u64);
    let scrape_before = cfg
        .traced
        .then(|| Scrape::parse(&admin.metrics().expect("metrics scrape")));

    // The window: closed loop, one thread per connection. This thread
    // only samples the process's resident memory meanwhile.
    let window = cfg.window();
    let addr = served.addr;
    let mut stream = WriterStream::new(cfg.seed, cfg.grid());
    let mut resident = Vec::new();
    let (writer, reader) = std::thread::scope(|s| {
        let w = mixed.then(|| {
            let stream = &mut stream;
            s.spawn(move || writer_lane(addr, window, cfg, stream))
        });
        let oracle = (!mixed).then_some(&base_oracle);
        let r = s.spawn(move || reader_lane(addr, window, cfg, oracle));
        while window.phase(Instant::now()) != Phase::Done {
            std::thread::sleep(Duration::from_millis(100));
            if window.phase(Instant::now()) != Phase::Warmup {
                resident.push(host::resident_mb());
            }
        }
        (
            w.map(|h| h.join().expect("writer thread")),
            r.join().expect("reader thread"),
        )
    });
    let scrape_after = cfg
        .traced
        .then(|| Scrape::parse(&admin.metrics().expect("metrics scrape")));
    let calib_after = calib.run(CALIBRATION_REPS);
    let peak_rss_mb = host::peak_rss_mb();

    // End-of-run oracle: the served model against a from-scratch
    // rebuild of the final fact set, then the same after a restart.
    let mut final_oracle = if mixed {
        Oracle::after_delta(&base, &stream.delta())
    } else {
        base_oracle.clone()
    };
    if cfg.corrupt_oracle && mixed {
        final_oracle.corrupt_one_verdict();
    }
    let acked = writer.as_ref().map_or(0, |(_, epoch)| *epoch);
    match admin.query("?- win(X).", GovernOpts::default()) {
        Ok(reply) => report.check_verdicts(
            "served ?- win(X).",
            final_oracle.compare_all(&oracle::reply_verdicts(&reply.answers, &reply.undefined)),
        ),
        Err(e) => report.check(false, || format!("final ?- win(X).: {e}")),
    }
    drop(admin);
    served.server.shutdown();
    match Session::open(root.join("default")) {
        Ok(reopened) => {
            report.check_verdicts(
                "the reopened session",
                final_oracle.compare_all(&oracle::session_verdicts(&reopened)),
            );
            report.check(reopened.epoch() == acked, || {
                format!(
                    "reopened at epoch {}, {acked} commits were acked",
                    reopened.epoch()
                )
            });
        }
        Err(e) => report.check(false, || format!("reopen after shutdown: {e}")),
    }
    for lane in writer.iter().map(|(w, _)| w).chain([&reader]) {
        report.attempted += lane.attempted;
        report.failed += lane.failures.len() as u64;
        for f in lane.failures.iter().take(5) {
            report.notes.push(format!("FAILED: {f}"));
        }
    }

    // End-to-end metrics: the roles' best chunks.
    let join = &reader.series[ReadClass::Join as usize];
    let enumerate = &reader.series[ReadClass::Enum as usize];
    let point = &reader.series[ReadClass::Point as usize];
    let main = writer.as_ref().map_or(point, |(w, _)| &w.series[0]);
    report.set("main_p50_ms", main.best_p50_ms(), main.len() as u64);
    report.set("main_per_s", main.best_per_s(), main.len() as u64);
    report.set("side_p50_ms", join.best_p50_ms(), join.len() as u64);
    report.set(
        "heavy_p50_ms",
        enumerate.best_p50_ms(),
        enumerate.len() as u64,
    );
    host::report(
        &mut report,
        calib_before,
        calib_after,
        median(&resident),
        peak_rss_mb,
    );

    if let (Some(before), Some(after)) = (scrape_before, scrape_after) {
        // Per-layer metrics from the traced slices, the server's
        // registry over the window, and a single-threaded replay of
        // the same op stream through the server's building blocks.
        let waits = |class: ReadClass| &reader.classes[class as usize].wait;
        let n = |s: &Samples| s.len() as u64;
        let (point_wait, join_wait, enum_wait) = (
            waits(ReadClass::Point),
            waits(ReadClass::Join),
            waits(ReadClass::Enum),
        );
        report.set("server.wait_point_us", point_wait.p_us(50.0), n(point_wait));
        report.set("server.wait_join_us", join_wait.p_us(50.0), n(join_wait));
        report.set("server.wait_enum_ms", enum_wait.p_ms(50.0), n(enum_wait));
        let (points, joins, enums) = (point.latencies(), join.latencies(), enumerate.latencies());
        report.set("server.query_point_p50_us", points.p_us(50.0), n(&points));
        report.set("server.query_point_p99_ms", points.p_ms(99.0), n(&points));
        report.set("server.query_join_p99_ms", joins.p_ms(99.0), n(&joins));
        report.set("server.query_enum_p99_ms", enums.p_ms(99.0), n(&enums));
        let queries = reader.measured_ops();
        report.set(
            "server.queries_per_s",
            queries as f64 / cfg.seconds,
            queries,
        );
        report.set("server.errors", report.failed as f64, report.attempted);
        layers::report_registry_ratios(&mut report, &before, &after);
        let mut spans = reader.spans.clone();
        let twin_dir = scratch.dir("twin");
        let mut twin = open_board_session(&twin_dir, cfg.grid());
        let mut overhead = &reader.classes[ReadClass::Point as usize];
        let mut commit_classes = ClassLat::default();
        if let Some((w, _)) = &writer {
            spans.extend(w.spans.iter().cloned());
            for c in &w.classes {
                commit_classes.plain.extend(&c.plain);
                commit_classes.traced.extend(&c.traced);
                commit_classes.wait.extend(&c.wait);
            }
            let commits = main.latencies();
            let wait = &commit_classes.wait;
            report.set("server.wait_commit_ms", wait.p_ms(50.0), n(wait));
            report.set("server.commit_p90_ms", commits.p_ms(90.0), n(&commits));
            report.set("server.commit_p99_ms", commits.p_ms(99.0), n(&commits));
            report.set("server.commit_max_ms", commits.max_ms(), n(&commits));
            let syncs = after.delta(&before, "gsls_wal_group_syncs");
            if syncs > 0.0 {
                report.set(
                    "server.records_per_fsync",
                    after.delta(&before, "gsls_wal_group_records") / syncs,
                    syncs as u64,
                );
            }
            layers::report_commit_phases(&mut report, &before, &after);
            let replay = layers::replay_commits(&mut twin, cfg, commits.len().min(200));
            replay.report(&mut report);
            report.set(
                "server.unattributed_commit_ms",
                wait.p_ms(50.0) - replay.accounted_ms(),
                n(wait),
            );
            layers::report_durable_probes(&mut report, &scratch.dir("wal-probe"));
            layers::report_checkpoint(&mut report, &mut twin, &twin_dir, base.len());
            overhead = &commit_classes;
        }
        let snapshot = twin.snapshot();
        let query_replay = layers::replay_queries(&snapshot, cfg);
        query_replay.report(&mut report);
        report.set(
            "server.unattributed_point_us",
            point_wait.p_us(50.0) - query_replay.accounted_point_us(),
            n(point_wait),
        );
        layers::report_frame_probes(&mut report, query_replay.enum_reply_bytes);
        report.set(
            "trace.overhead_pct",
            overhead_pct(overhead),
            n(&overhead.traced),
        );
        let name = if mixed { "serve_mixed" } else { "serve_read" };
        report.write_trace(cfg, name, &spans);
    }
    report
}
