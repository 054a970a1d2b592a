//! The server: thread-per-connection, and every request runs on the
//! connection that received it — queries on `Arc`'d snapshots, commits
//! in **groups** under the session's writer lock.
//!
//! ## Threads and ownership
//!
//! * The **accept thread** owns the listener and blocks in `accept`.
//!   It enforces the connection cap, registers a handle to each
//!   accepted socket, and spawns one thread per connection. Stopping
//!   the server raises a flag and wakes `accept` with one loopback
//!   connect. A failed `accept` (e.g. out of descriptors) is retried
//!   after a short back-off.
//! * Each **connection thread** owns its socket. It blocks reading one
//!   frame — at most [`ServerConfig::idle_timeout`] between two bytes,
//!   then the connection is closed as idle — decodes it once, into a
//!   fresh [`TermStore`] of the request's own, and routes on the decoded
//!   [`Request`]. It answers reads itself: metrics/events from cloned
//!   [`Obs`] handles, and queries via [`Snapshot::prepare`] on a clone
//!   of the session's latest snapshot — compilation and evaluation are
//!   fully read-only, so a query never blocks a commit and vice versa.
//!   A commit is shape-checked here (a mis-shaped batch is rejected
//!   without being queued), added to the session's pending list, and
//!   committed in a group run by this thread or by another connection's.
//!
//! A session's **writer** lock owns the [`Session`], and one thread
//! with a commit pending **leads**. It waits, holding no lock, for the
//! group to form (below), then runs it under the writer: the oldest
//! pending commits (up to `GROUP_MAX`), every batch journaled unsynced,
//! applied, and one covering fsync at the end
//! ([`Session::commit_group`]). It leads until its own commit is
//! answered, then hands the lead to the thread of the oldest commit
//! still pending. Every other thread blocks on its own reply, so one
//! thread wakes per group and a finished group wakes exactly its
//! waiters. Replies are sent only **after** that fsync — the
//! group-commit ack contract — and each waiting client gets its own
//! typed reply (a batch that trips its deadline gets
//! `Error{kind: Interrupted}` while the rest of the group commits).
//!
//! Every request runs where it arrives: its connection waits for the
//! reply either way, and [`ServerConfig::max_conns`] bounds how many
//! run — and how many commits are pending — at once.
//!
//! ## Group formation
//!
//! A group is what arrives while the last one ran, and it is clocked by
//! the last group itself, with no timer: the leader waits until every
//! connection thread whose commit was in the last group has sent
//! another, but never past a window as long as that group's run,
//! counted from its end. A wait never lengthens the next window. A
//! full `GROUP_MAX` backlog starts the group at once. So:
//!
//! * a lone writer is the only writer of its last group: it never waits;
//! * a commit that arrives after the window has closed starts at once,
//!   so sparse writers are not delayed, and writers that pause between
//!   commits wait at most one run;
//! * two writers whose commits alternate (one arrives while the other's
//!   group runs) meet in the next group;
//! * a writer that left costs at most one window, once — it is not in
//!   the group that window closes; one that is only late (say,
//!   descheduled on a busy host) rejoins with the group its next commit
//!   lands in;
//! * a group that ran an inline checkpoint lengthens the next window
//!   once.
//!
//! ## Failure model
//!
//! A client disconnecting mid-request can never poison a session: its
//! frame either never fully arrived (the connection thread drops it on
//! the floor) or its commit is already pending. A pending commit is
//! committed normally — its connection thread does not read the socket
//! while it waits — and only the reply write fails. Frame-level
//! damage (bad CRC, oversized length, torn write) is answered with a
//! protocol error where a reply is still possible and otherwise just
//! closes the socket.
//!
//! Shutdown stops the accept thread, then shuts down the read half of
//! every registered socket, which ends each connection's blocked read
//! at once. A connection busy with a request — a pending commit
//! included — finishes it, replies, and then closes; so once every
//! connection thread is joined, every accepted commit has run.
//!
//! A group that panics poisons the writer lock. Its unanswered
//! waiters, and every later commit or checkpoint on that session, are
//! answered `Internal` "session writer is gone"; the connection that
//! ran it keeps serving.
//! A panic anywhere else on a connection thread closes that connection
//! and frees its `max_conns` slot.
//!
//! If a group's covering fsync fails, no waiter is acked (every one
//! gets a typed error), the session is poisoned by
//! [`Session::commit_group`] — its in-memory state has diverged from
//! the WAL — and the published snapshot is left at the last acked
//! state, so readers never observe writes whose owners were told the
//! commit failed.
//!
//! ## Admin surface
//!
//! [`Request::Shutdown`] is honored only from loopback peers unless
//! [`ServerConfig::remote_admin`] opts in: a server bound on a routable
//! interface must not let any connecting peer put it into drain. The
//! metrics/events scrape is not gated — do not bind a server holding
//! sensitive data on an untrusted network.

use crate::frame::{read_frame, write_frame, FrameError, MAX_FRAME};
use gsls_core::{CommitOpts, Guard, Session, SessionError, Snapshot, UpdateBatch};
use gsls_lang::{
    decode_request, encode_response, Atom, CommitNumbers, ErrorKind, GovernOpts, Request, Response,
    TermStore, TruthTag,
};
use gsls_obs::{render_prometheus, Obs};
use gsls_wfs::Truth;
use std::collections::HashMap;
use std::io::{self, BufWriter, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, TryRecvError};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::{JoinHandle, ThreadId};
use std::time::{Duration, Instant};

/// How long a connection may go without sending a byte before the
/// server closes it.
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Most batches committed as one group (one fsync).
const GROUP_MAX: usize = 32;

/// Cap on rendered answers per query response. A reply is bounded by
/// count *and* by bytes: enumeration also stops before the rendered
/// answers would outgrow a frame ([`MAX_FRAME`]).
/// Either stop answers the partial set with `interrupted` set (use
/// governance budgets for finer control).
pub const MAX_ANSWERS: usize = 65_536;

/// Rendered bytes one `Answers` reply may carry: a frame less room for
/// the reply's fixed fields (version, tag, truth, two counts, flag).
const ANSWER_BYTES: usize = MAX_FRAME - 64;

/// Most bytes a rendered answer's varint length prefix takes.
const ANSWER_PREFIX: usize = 10;

/// Pause before retrying a failed `accept`: out of descriptors, the
/// connection stays queued and an immediate retry fails the same way.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Server tuning knobs. `Default` is sized for tests and small
/// deployments; the bins expose each field as a flag.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `"127.0.0.1:0"` (port 0 = ephemeral).
    pub addr: String,
    /// Root directory for durable sessions (one subdirectory per
    /// session name). `None` serves in-memory sessions: same engine,
    /// no WAL, nothing survives a restart.
    pub data_dir: Option<PathBuf>,
    /// Maximum concurrent connections; excess accepts are answered
    /// with `Error{kind: Busy}` and closed. A connection has at most
    /// one request in flight, so this also bounds the commits pending
    /// on a session.
    pub max_conns: usize,
    /// Idle timeout per connection: the longest wait for the next byte
    /// from the peer, inside a frame or between frames. Must be
    /// nonzero.
    pub idle_timeout: Duration,
    /// Honor admin requests ([`Request::Shutdown`]) from non-loopback
    /// peers. Off by default: when the server is bound on a routable
    /// interface, any peer that can connect could otherwise put it
    /// into drain.
    pub remote_admin: bool,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            data_dir: None,
            max_conns: 64,
            idle_timeout: DEFAULT_IDLE_TIMEOUT,
            remote_admin: false,
        }
    }
}

/// A decoded, shape-checked commit waiting for a group. Its batch lives
/// in `store`, the request's own: it is translated into the session's
/// store only when its group runs.
struct Commit {
    store: TermStore,
    batch: UpdateBatch,
    opts: CommitOpts,
    /// The connection thread that sent it. A connection is one thread
    /// with at most one request in flight, and a `ThreadId` is never
    /// reused.
    writer: ThreadId,
    /// The reply, or `None`: the lead, handed to this commit's thread.
    reply: mpsc::SyncSender<Option<Response>>,
}

/// Commits waiting for a group, and what the next group waits for (see
/// "Group formation" in the module docs).
struct Pending {
    /// Oldest first.
    commits: Vec<Commit>,
    /// Whether a thread leads: waits for its group or runs it.
    led: bool,
    /// The connection threads of the last group's commits.
    writers: Vec<ThreadId>,
    /// When the next group stops waiting for `writers`.
    until: Instant,
}

impl Pending {
    /// Whether the next group has formed: a full group is pending, or
    /// every writer of the last group has sent again.
    fn formed(&self) -> bool {
        let sent = |w: &ThreadId| self.commits.iter().any(|c| c.writer == *w);
        self.commits.len() >= GROUP_MAX || self.writers.iter().all(sent)
    }
}

/// Per-session serving state shared by the connection threads.
struct SessionSvc {
    name: String,
    /// The latest committed snapshot, refreshed after every group.
    /// Queries clone it out (an `Arc` bump) and run on the clone, so
    /// the lock is held only for the clone.
    snap: Mutex<Snapshot>,
    /// The session's observability bundle (shared storage).
    obs: Obs,
    pending: Mutex<Pending>,
    /// Signalled on every commit added to `pending`; the leader waits
    /// on it for its group to form.
    arrived: Condvar,
    /// Held only while a group or a checkpoint runs.
    writer: Mutex<Session>,
}

/// One session name's cell. Opening a durable session can mean a full
/// WAL replay (seconds), which must not run under the map lock —
/// binders of *other* sessions would stall on it. So the map lock only
/// finds or inserts the cell; the open runs in [`OnceLock::get_or_init`],
/// where concurrent binders of the *same* name wait for its verdict.
type SessionCell = Arc<OnceLock<Result<Arc<SessionSvc>, Response>>>;

struct Shared {
    cfg: ServerConfig,
    /// Where a loopback connect reaches the listener (wakes `accept`).
    wake: SocketAddr,
    shutdown: AtomicBool,
    /// A handle to every live connection's socket, by connection id:
    /// its length is the cap check, and shutdown closes their read
    /// halves to end blocked reads.
    conns: Mutex<HashMap<u64, TcpStream>>,
    sessions: Mutex<HashMap<String, SessionCell>>,
}

impl Shared {
    /// Raises the shutdown flag and wakes the accept thread. A failed
    /// connect means the listener is already gone.
    fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.wake);
    }
}

/// A running server. Dropping it shuts it down (graceful drain).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// The accept thread; it returns the connection threads it spawned.
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds and starts serving. Returns once the listener is live;
    /// `addr()` reports the actual bound address (useful with port 0).
    /// A zero `idle_timeout` is an `InvalidInput` error.
    pub fn start(cfg: ServerConfig) -> io::Result<Server> {
        if cfg.idle_timeout.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "idle_timeout must be nonzero",
            ));
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let mut wake = addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let shared = Arc::new(Shared {
            cfg,
            wake,
            shutdown: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            sessions: Mutex::new(HashMap::new()),
        });
        let accept_shared = shared.clone();
        let accept = std::thread::Builder::new()
            .name("gsls-accept".into())
            .spawn(move || accept_loop(listener, &accept_shared))?;
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful drain: stop accepting, let in-flight requests (pending
    /// commits included) finish, close connections, join all threads
    /// and close the sessions.
    pub fn shutdown(&mut self) {
        if self.accept.is_some() {
            self.shared.stop();
        }
        self.wait();
    }

    /// Blocks until a client's [`Request::Shutdown`] stops the accept
    /// thread, then drains as [`Server::shutdown`] does. Returns at once
    /// if the server has already drained.
    pub fn wait(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        let conns = accept.join().unwrap_or_default();
        // No connection registers after the accept thread is gone: end
        // every blocked read, then let in-flight requests finish.
        for stream in self.shared.conns.lock().unwrap().values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for h in conns {
            let _ = h.join();
        }
        // A connection thread returns only once its commit's group has
        // run, so nothing is pending. Dropping the sessions closes them.
        self.shared.sessions.lock().unwrap().clear();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Session names become directory names under `data_dir`; restrict
/// them so a hostile name cannot traverse.
fn valid_session_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.')
}

fn err(kind: ErrorKind, message: impl Into<String>) -> Response {
    Response::Error {
        kind,
        message: message.into(),
    }
}

/// Maps a [`SessionError`] onto its wire error class.
fn session_err(e: &SessionError) -> Response {
    let kind = match e {
        SessionError::Parse(_) => ErrorKind::Parse,
        SessionError::Rejected(_)
        | SessionError::NotFunctionFree
        | SessionError::NotAFact(_)
        | SessionError::Grounding(_)
        | SessionError::NestedTransaction => ErrorKind::Rejected,
        SessionError::Interrupted { .. } => ErrorKind::Interrupted,
        SessionError::Poisoned => ErrorKind::Poisoned,
        SessionError::Unsupported(_) => ErrorKind::Unsupported,
        SessionError::Durable(_) => ErrorKind::Internal,
    };
    err(kind, e.to_string())
}

fn commit_opts(o: &GovernOpts, received: Instant) -> CommitOpts {
    CommitOpts {
        deadline: o.deadline_ms.map(|ms| received + Duration::from_millis(ms)),
        max_clauses: o.max_clauses.map(|n| n as usize),
        max_memory_bytes: o.max_memory_bytes.map(|n| n as usize),
        fuel: o.fuel,
        panic_on_fuel: false,
    }
}

fn query_guard(o: &GovernOpts, received: Instant) -> Guard {
    let mut b = Guard::builder();
    if let Some(ms) = o.deadline_ms {
        b = b.deadline(received + Duration::from_millis(ms));
    }
    if let Some(f) = o.fuel {
        b = b.fuel(f);
    }
    b.build()
}

// ---------------------------------------------------------------------
// Accept + connection threads
// ---------------------------------------------------------------------

/// Accepts until the shutdown flag is up (checked after every accept
/// result, so the wake-up connect is dropped with the listener) and
/// returns the connection threads still to join.
fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) -> Vec<JoinHandle<()>> {
    let mut threads: Vec<JoinHandle<()>> = Vec::new();
    for (id, stream) in (0u64..).zip(listener.incoming()) {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else {
            std::thread::sleep(ACCEPT_BACKOFF);
            continue;
        };
        threads.retain(|h| !h.is_finished());
        let mut conns = shared.conns.lock().unwrap();
        if conns.len() >= shared.cfg.max_conns {
            drop(conns);
            let _ = refuse(stream);
            continue;
        }
        let Ok(handle) = stream.try_clone() else {
            continue;
        };
        conns.insert(id, handle);
        drop(conns);
        let s = shared.clone();
        let spawned = std::thread::Builder::new()
            .name("gsls-conn".into())
            .spawn(move || {
                // A panic closes this connection (its socket drops as
                // it unwinds) and still frees its slot.
                let _ = panic::catch_unwind(AssertUnwindSafe(|| conn_loop(stream, &s)));
                s.conns.lock().unwrap().remove(&id);
            });
        match spawned {
            Ok(h) => threads.push(h),
            Err(_) => {
                shared.conns.lock().unwrap().remove(&id);
            }
        }
    }
    threads
}

/// Over-cap connections get one typed refusal, then the socket closes.
fn refuse(stream: TcpStream) -> io::Result<()> {
    let mut w = BufWriter::new(stream);
    let mut buf = Vec::new();
    encode_response(&err(ErrorKind::Busy, "connection cap reached"), &mut buf);
    write_frame(&mut w, &buf)?;
    w.flush()
}

fn conn_loop(stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    // A read that sees no byte for this long ends the connection: the
    // idle rule, on the socket's own timer.
    if stream
        .set_read_timeout(Some(shared.cfg.idle_timeout))
        .is_err()
    {
        return;
    }
    // Admin requests (Shutdown) are honored from loopback peers, or
    // from anyone once `remote_admin` opts in.
    let admin = shared.cfg.remote_admin
        || stream
            .peer_addr()
            .map(|a| a.ip().is_loopback())
            .unwrap_or(false);
    let mut reader = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let mut writer = BufWriter::new(stream);
    let mut svc: Option<Arc<SessionSvc>> = None;
    let mut out = Vec::new();
    loop {
        // Closed, Truncated and Io (an idle timeout, or shutdown's
        // SHUT_RD) all end the connection.
        let payload = match read_frame(&mut reader) {
            Ok(p) => p,
            Err(e @ (FrameError::BadCrc | FrameError::TooLarge(_))) => {
                // The stream is still framed; answer, then hang up
                // (we cannot trust subsequent bytes from this peer).
                out.clear();
                encode_response(&err(ErrorKind::Protocol, e.to_string()), &mut out);
                let _ = write_frame(&mut writer, &out).and_then(|_| writer.flush());
                return;
            }
            Err(_) => return,
        };
        let resp = handle_request(&payload, Instant::now(), shared, admin, &mut svc);
        out.clear();
        encode_response(&resp, &mut out);
        if write_frame(&mut writer, &out)
            .and_then(|_| writer.flush())
            .is_err()
        {
            return;
        }
        // Linux still delivers bytes after SHUT_RD: a peer that sends
        // its next request the moment it reads a reply would otherwise
        // keep its connection alive through the drain.
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Decodes one framed request, routes it and produces its reply. `svc`
/// is the session this connection is bound to (bound lazily to
/// `"default"`); `admin` says whether this peer may issue admin requests
/// (loopback, or anyone under [`ServerConfig::remote_admin`]).
///
/// The request decodes into a **store of its own**: nothing it carries
/// is interned into a session before its group translates an accepted
/// commit, so requests that never commit (malformed, mis-shaped,
/// rejected, expired, or reads) cannot grow the session's append-only
/// arena.
fn handle_request(
    payload: &[u8],
    received: Instant,
    shared: &Arc<Shared>,
    admin: bool,
    svc: &mut Option<Arc<SessionSvc>>,
) -> Response {
    let mut store = TermStore::new();
    let req = match decode_request(&mut store, payload) {
        Ok(r) => r,
        Err(e) => return err(ErrorKind::Protocol, format!("bad request: {e:?}")),
    };
    let s = match req {
        Request::Ping => return Response::Pong,
        Request::Shutdown if !admin => {
            return err(
                ErrorKind::Rejected,
                "shutdown is admin-only: connect from loopback or enable remote_admin",
            )
        }
        Request::Shutdown => {
            shared.stop();
            return Response::Text("draining".into());
        }
        Request::Open { session } => {
            return match bind_session(shared, &session) {
                Ok(s) => {
                    let epoch = s.snap.lock().unwrap().epoch();
                    *svc = Some(s);
                    Response::Opened { session, epoch }
                }
                Err(resp) => resp,
            }
        }
        _ => match ensure_bound(shared, svc) {
            Ok(s) => s,
            Err(resp) => return resp,
        },
    };
    match req {
        Request::Query { goal, opts } => {
            let snap = s.snap.lock().unwrap().clone();
            run_query(&snap, &goal, &opts, received)
        }
        Request::Metrics => Response::Text(render_prometheus(s.obs.registry())),
        Request::Events => {
            let mut text = String::new();
            for ev in s.obs.tracer().drain() {
                text.push_str(&ev.to_json());
                text.push('\n');
            }
            Response::Text(text)
        }
        Request::Commit {
            rules,
            asserts,
            retracts,
            opts,
        } => {
            let batch = UpdateBatch {
                rules,
                asserts,
                retracts,
            };
            // The session's own shape check, run against the request's store.
            if let Err(rejection) = batch.check_shape(&store) {
                return session_err(&rejection.into());
            }
            commit(&s, store, batch, commit_opts(&opts, received))
        }
        Request::Checkpoint => {
            let Ok(mut session) = s.writer.lock() else {
                return writer_gone();
            };
            match session.checkpoint() {
                Ok(()) => Response::Text(format!(
                    "checkpointed {} at epoch {}",
                    s.name,
                    session.epoch()
                )),
                Err(e) => session_err(&e),
            }
        }
        Request::Ping | Request::Shutdown | Request::Open { .. } => unreachable!("answered above"),
    }
}

fn ensure_bound(
    shared: &Arc<Shared>,
    svc: &mut Option<Arc<SessionSvc>>,
) -> Result<Arc<SessionSvc>, Response> {
    if let Some(s) = svc {
        return Ok(s.clone());
    }
    let s = bind_session(shared, "default")?;
    *svc = Some(s.clone());
    Ok(s)
}

/// Gets or creates the named session service. The expensive part —
/// [`Session::open`], which can replay a long WAL — runs with the map
/// **unlocked**, inside the name's [`SessionCell`]: binders of the same
/// name wait for its verdict, binders of other sessions never do.
fn bind_session(shared: &Arc<Shared>, name: &str) -> Result<Arc<SessionSvc>, Response> {
    if !valid_session_name(name) {
        return Err(err(
            ErrorKind::Rejected,
            format!("invalid session name {name:?}"),
        ));
    }
    if shared.shutdown.load(Ordering::SeqCst) {
        return Err(err(ErrorKind::Shutdown, "server is draining"));
    }
    let cell = shared
        .sessions
        .lock()
        .unwrap()
        .entry(name.to_string())
        .or_default()
        .clone();
    let result = cell.get_or_init(|| open_session_svc(shared, name)).clone();
    if result.is_err() {
        // Leave no trace: the next binder retries the open (unless a
        // retry has already replaced this cell).
        let mut sessions = shared.sessions.lock().unwrap();
        if sessions.get(name).is_some_and(|c| Arc::ptr_eq(c, &cell)) {
            sessions.remove(name);
        }
    }
    result
}

/// Opens (or creates) the named session and takes its first snapshot.
/// Called by [`bind_session`] outside the sessions-map lock.
fn open_session_svc(shared: &Arc<Shared>, name: &str) -> Result<Arc<SessionSvc>, Response> {
    let mut session = match &shared.cfg.data_dir {
        Some(root) => Session::open(root.join(name)).map_err(|e| session_err(&e))?,
        None => Session::new(),
    };
    Ok(Arc::new(SessionSvc {
        name: name.to_string(),
        snap: Mutex::new(session.snapshot()),
        obs: session.obs(),
        pending: Mutex::new(Pending {
            commits: Vec::new(),
            led: false,
            writers: Vec::new(),
            until: Instant::now(),
        }),
        arrived: Condvar::new(),
        writer: Mutex::new(session),
    }))
}

// ---------------------------------------------------------------------
// Commits: the group-commit write path, on the connection threads
// ---------------------------------------------------------------------

fn writer_gone() -> Response {
    err(ErrorKind::Internal, "session writer is gone")
}

/// Queues a commit on `s.pending` and waits for its reply. One waiting
/// thread at a time leads: it waits for its group to form (see "Group
/// formation" in the module docs), takes the oldest pending commits (up
/// to `GROUP_MAX`) and runs them as a group under the writer, and goes
/// on leading while its own commit is still pending. Once it is
/// answered, it hands the lead to the thread of the oldest pending
/// commit. Every other thread blocks on its own reply channel, so only
/// the leader wakes for a group.
fn commit(s: &SessionSvc, store: TermStore, batch: UpdateBatch, opts: CommitOpts) -> Response {
    let (reply, rx) = mpsc::sync_channel(1);
    let leads = {
        let mut p = s.pending.lock().unwrap();
        p.commits.push(Commit {
            store,
            batch,
            opts,
            writer: std::thread::current().id(),
            reply,
        });
        !std::mem::replace(&mut p.led, true)
    };
    s.arrived.notify_one();
    if !leads {
        match rx.recv() {
            Ok(Some(resp)) => return resp,
            // The lead, handed on by the previous leader.
            Ok(None) => {}
            Err(_) => return writer_gone(),
        }
    }
    let resp = loop {
        let run: Vec<Commit> = {
            let p = s.pending.lock().unwrap();
            let window = p.until.saturating_duration_since(Instant::now());
            let (mut p, _) = s
                .arrived
                .wait_timeout_while(p, window, |p| !p.formed())
                .unwrap();
            let n = p.commits.len().min(GROUP_MAX);
            let run: Vec<Commit> = p.commits.drain(..n).collect();
            p.writers = run.iter().map(|c| c.writer).collect();
            run
        };
        let start = Instant::now();
        // A group that panics poisons the writer. Its unanswered
        // commits, and every later group's, drop their reply senders.
        let _ = panic::catch_unwind(AssertUnwindSafe(|| {
            if let Ok(mut session) = s.writer.lock() {
                commit_run(&mut session, s, run);
            }
        }));
        // The next group waits at most as long as this one ran, counted
        // from its end.
        s.pending.lock().unwrap().until = Instant::now() + start.elapsed();
        match rx.try_recv() {
            Ok(resp) => break resp.unwrap_or_else(writer_gone),
            Err(TryRecvError::Disconnected) => break writer_gone(),
            Err(TryRecvError::Empty) => {}
        }
    };
    let mut p = s.pending.lock().unwrap();
    match p.commits.first() {
        Some(next) => {
            let _ = next.reply.send(None);
        }
        None => p.led = false,
    }
    resp
}

/// Group-commits one run of pending commits (an empty run does
/// nothing), replying to each client individually — after the covering
/// fsync *and* after the new snapshot is published, so an acked client
/// immediately reads its own write. The caller holds the writer lock.
///
/// Every commit arrives decoded and shape-checked. One already past its
/// deadline is answered here and never reaches the engine; only the
/// others are translated from their own store into the session's
/// ([`TermStore::translate_into`]), so nothing of a commit that never
/// starts is interned into the session's append-only arena.
fn commit_run(session: &mut Session, svc: &SessionSvc, run: Vec<Commit>) {
    let mut batches: Vec<(UpdateBatch, CommitOpts)> = Vec::with_capacity(run.len());
    let mut waiting: Vec<(mpsc::SyncSender<Option<Response>>, bool)> =
        Vec::with_capacity(run.len());
    for Commit {
        store: scratch,
        batch: decoded,
        opts,
        reply,
        ..
    } in run
    {
        if opts.deadline.is_some_and(|d| Instant::now() >= d) {
            let _ = reply.send(Some(err(
                ErrorKind::Interrupted,
                "deadline expired before the commit could start",
            )));
            continue;
        }
        let store = session.store_mut();
        let map = scratch.translate_into(store);
        let mut atoms = |atoms: &[Atom]| -> Vec<Atom> {
            atoms
                .iter()
                .map(|a| a.translate(&scratch, store, &map))
                .collect()
        };
        let batch = UpdateBatch {
            asserts: atoms(&decoded.asserts),
            retracts: atoms(&decoded.retracts),
            rules: decoded
                .rules
                .iter()
                .map(|c| c.translate(&scratch, store, &map))
                .collect(),
        };
        let bumps = !batch.is_empty();
        batches.push((batch, opts));
        waiting.push((reply, bumps));
    }
    if batches.is_empty() {
        return;
    }
    let mut epoch = session.epoch();
    match session.commit_group(batches) {
        Ok(results) => {
            // Publish the post-group snapshot BEFORE acking anyone: a
            // client that sees its Committed reply must find its write
            // in the very next query it sends.
            let next = session.snapshot();
            let prev = std::mem::replace(&mut *svc.snap.lock().unwrap(), next);
            // Queries take this mutex each: the previous snapshot's
            // destructor (it may be the last holder) runs outside it.
            drop(prev);
            for (r, (reply, bumps)) in results.into_iter().zip(waiting) {
                let resp = match r {
                    Ok(stats) => {
                        if bumps {
                            epoch += 1;
                        }
                        Response::Committed {
                            epoch,
                            stats: CommitNumbers {
                                rules_added: stats.rules_added as u64,
                                facts_asserted: stats.facts_asserted as u64,
                                facts_reenabled: stats.facts_reenabled as u64,
                                facts_retracted: stats.facts_retracted as u64,
                                new_atoms: stats.new_atoms as u64,
                                new_clauses: stats.new_clauses as u64,
                            },
                        }
                    }
                    Err(e) => session_err(&e),
                };
                let _ = reply.send(Some(resp));
            }
        }
        Err(e) => {
            // Group-level failure. A failed covering fsync leaves the
            // batches applied in memory but not durable; commit_group
            // poisons the session for exactly that case, and the stale
            // snapshot stays published so readers keep seeing *acked*
            // state only — never writes whose owners were told Error.
            let resp = session_err(&e);
            for (reply, _) in waiting {
                let _ = reply.send(Some(resp.clone()));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Queries: on the connection thread, on a snapshot
// ---------------------------------------------------------------------

/// Compiles and evaluates one query on a snapshot — read-only, never
/// touches the owning session.
fn run_query(snap: &Snapshot, goal: &str, opts: &GovernOpts, received: Instant) -> Response {
    let q = match snap.prepare(goal) {
        Ok(q) => q,
        Err(e) => return session_err(&e),
    };
    let guard = query_guard(opts, received);
    let mut answers_true = Vec::new();
    let mut answers_undef = Vec::new();
    let mut it = match q.execute_governed(snap, &guard) {
        Ok(it) => it,
        Err(e) => return session_err(&e),
    };
    let mut truncated = false;
    let mut bytes = 0;
    for a in it.by_ref() {
        if answers_true.len() + answers_undef.len() >= MAX_ANSWERS {
            truncated = true;
            break;
        }
        let rendered = q.render_answer(snap, &a);
        let out = match a.truth {
            Truth::True => &mut answers_true,
            Truth::Undefined => &mut answers_undef,
            Truth::False => continue,
        };
        bytes += rendered.len() + ANSWER_PREFIX;
        if bytes > ANSWER_BYTES {
            truncated = true;
            break;
        }
        out.push(rendered);
    }
    let interrupted = it.interrupted().is_some() || truncated;
    let truth = if !answers_true.is_empty() {
        TruthTag::True
    } else if !answers_undef.is_empty() {
        TruthTag::Undefined
    } else {
        TruthTag::False
    };
    Response::Answers {
        truth,
        answers: answers_true,
        undefined: answers_undef,
        interrupted,
    }
}
