//! A blocking client for the gsls wire protocol.
//!
//! [`Client`] owns a socket, its own [`TermStore`] (client and server
//! stores are independent — the wire format carries structure, not
//! ids), and a reusable frame buffer. Every method is a synchronous
//! request/response round trip.

use crate::frame::{read_frame, write_frame, FrameError};
use gsls_lang::{
    decode_response, encode_request, parse_program, Atom, Clause, CommitNumbers, ErrorKind,
    GovernOpts, Request, Response, TermStore,
};
use std::io::{self, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server's reply frame was damaged or unparseable.
    Protocol(String),
    /// Local parse failure (program/goal text given to a helper).
    Parse(String),
    /// The server answered with a typed error.
    Server {
        /// Coarse failure class.
        kind: ErrorKind,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The server answered with a response of the wrong shape.
    Unexpected(Response),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Parse(e) => write!(f, "parse error: {e}"),
            ClientError::Server { kind, message } => {
                write!(f, "server error ({kind:?}): {message}")
            }
            ClientError::Unexpected(r) => write!(f, "unexpected response: {r:?}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> ClientError {
        match e {
            FrameError::Io(e) => ClientError::Io(e),
            other => ClientError::Protocol(other.to_string()),
        }
    }
}

/// The outcome of a successful commit.
#[derive(Debug, Clone, Copy)]
pub struct CommitReceipt {
    /// Session epoch after the commit (fsync-durable when the session
    /// is durable).
    pub epoch: u64,
    /// What the commit did.
    pub stats: CommitNumbers,
}

/// One query's results, decoded.
#[derive(Debug, Clone)]
pub struct QueryResults {
    /// `"true"`, `"false"`, or `"undefined"`.
    pub truth: &'static str,
    /// Rendered bindings whose instances are true.
    pub answers: Vec<String>,
    /// Rendered bindings whose instances are undefined.
    pub undefined: Vec<String>,
    /// Whether governance (or the reply's answer or byte cap) ended
    /// enumeration early.
    pub interrupted: bool,
}

/// A blocking connection to a gsls-serve server.
pub struct Client {
    reader: TcpStream,
    writer: BufWriter<TcpStream>,
    store: TermStore,
    buf: Vec<u8>,
}

impl Client {
    /// Connects. The server binds the connection to the session named
    /// `"default"` until [`Client::open`] says otherwise.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        Ok(Client {
            reader,
            writer: BufWriter::new(stream),
            store: TermStore::new(),
            buf: Vec::new(),
        })
    }

    /// Sets a socket read timeout for replies (None = wait forever).
    pub fn set_timeout(&mut self, t: Option<Duration>) -> Result<(), ClientError> {
        self.reader.set_read_timeout(t)?;
        Ok(())
    }

    /// One raw round trip: any request in, its response out.
    pub fn roundtrip(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.buf.clear();
        encode_request(&self.store, req, &mut self.buf);
        write_frame(&mut self.writer, &self.buf)?;
        self.writer.flush()?;
        let payload = read_frame(&mut self.reader)?;
        decode_response(&payload).map_err(|e| ClientError::Protocol(format!("{e:?}")))
    }

    fn expect_ok(&mut self, req: &Request) -> Result<Response, ClientError> {
        match self.roundtrip(req)? {
            Response::Error { kind, message } => Err(ClientError::Server { kind, message }),
            other => Ok(other),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.expect_ok(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Binds this connection to the named session (created on first
    /// use); returns its current epoch.
    pub fn open(&mut self, session: &str) -> Result<u64, ClientError> {
        let req = Request::Open {
            session: session.to_string(),
        };
        match self.expect_ok(&req)? {
            Response::Opened { epoch, .. } => Ok(epoch),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Commits a batch given as program text: `rules` become program
    /// clauses, `asserts`/`retracts` must be ground facts. Any of the
    /// three may be empty. Blocks until the server's group-commit
    /// fsync covers the batch.
    pub fn commit(
        &mut self,
        rules: &str,
        asserts: &str,
        retracts: &str,
        opts: GovernOpts,
    ) -> Result<CommitReceipt, ClientError> {
        let rules = self.parse_clauses(rules)?;
        let asserts = self.parse_facts(asserts)?;
        let retracts = self.parse_facts(retracts)?;
        let req = Request::Commit {
            rules,
            asserts,
            retracts,
            opts,
        };
        match self.expect_ok(&req)? {
            Response::Committed { epoch, stats } => Ok(CommitReceipt { epoch, stats }),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Runs a query, e.g. `"?- win(X)."`.
    pub fn query(&mut self, goal: &str, opts: GovernOpts) -> Result<QueryResults, ClientError> {
        let req = Request::Query {
            goal: goal.to_string(),
            opts,
        };
        match self.expect_ok(&req)? {
            Response::Answers {
                truth,
                answers,
                undefined,
                interrupted,
            } => Ok(QueryResults {
                truth: match truth {
                    gsls_lang::TruthTag::True => "true",
                    gsls_lang::TruthTag::False => "false",
                    gsls_lang::TruthTag::Undefined => "undefined",
                },
                answers,
                undefined,
                interrupted,
            }),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Scrapes the bound session's metrics (Prometheus text format).
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        match self.expect_ok(&Request::Metrics)? {
            Response::Text(t) => Ok(t),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Drains the bound session's trace-event ring (JSON lines).
    pub fn events(&mut self) -> Result<String, ClientError> {
        match self.expect_ok(&Request::Events)? {
            Response::Text(t) => Ok(t),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Forces a checkpoint + WAL rotation on the bound session.
    pub fn checkpoint(&mut self) -> Result<String, ClientError> {
        match self.expect_ok(&Request::Checkpoint)? {
            Response::Text(t) => Ok(t),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    /// Asks the server to drain and stop.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        match self.expect_ok(&Request::Shutdown)? {
            Response::Text(_) => Ok(()),
            other => Err(ClientError::Unexpected(other)),
        }
    }

    fn parse_clauses(&mut self, src: &str) -> Result<Vec<Clause>, ClientError> {
        if src.trim().is_empty() {
            return Ok(Vec::new());
        }
        let prog =
            parse_program(&mut self.store, src).map_err(|e| ClientError::Parse(e.to_string()))?;
        Ok(prog.clauses().to_vec())
    }

    fn parse_facts(&mut self, src: &str) -> Result<Vec<Atom>, ClientError> {
        let clauses = self.parse_clauses(src)?;
        let mut facts = Vec::with_capacity(clauses.len());
        for c in clauses {
            if !c.body.is_empty() {
                return Err(ClientError::Parse(format!(
                    "not a fact: {}",
                    c.display(&self.store)
                )));
            }
            facts.push(c.head.clone());
        }
        Ok(facts)
    }
}

/// Whether a client error is the server-side governance trip
/// (`ErrorKind::Interrupted`) — used by tests comparing
/// direct-session and over-the-wire behavior.
pub fn expect_interrupted(err: &ClientError) -> bool {
    matches!(
        err,
        ClientError::Server {
            kind: ErrorKind::Interrupted,
            ..
        }
    )
}
