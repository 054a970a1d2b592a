//! Request/response frames of the `gsls-serve` wire protocol.
//!
//! This module defines the **payload** bytes of one protocol message;
//! transport framing (length prefix + CRC) lives in the server crate,
//! exactly as the durability crate frames WAL records around the
//! [`crate::wire`] payload codec. Every encoded message starts with a
//! version byte ([`PROTO_VERSION`]) so incompatible future revisions
//! are detected instead of misparsed.
//!
//! Update batches travel **structurally** ([`crate::wire::encode_clause`]
//! / [`crate::wire::encode_atom`]): the client encodes against its own
//! [`TermStore`], the server decodes into the target session's store, so
//! no arena indices ever cross the wire. Queries travel as goal text —
//! the server compiles them against an immutable snapshot store, which
//! requires a parse on that side anyway. Responses are store-free
//! (answers are rendered substitutions), so [`decode_response`] needs no
//! store at all.
//!
//! Every mutating or reading request carries a [`GovernOpts`]: optional
//! deadline (milliseconds, relative to server receipt), fuel, memory and
//! clause budgets that the server maps 1:1 onto the engine's
//! `CommitOpts`/`QueryOpts`, so governance composes end-to-end and a
//! slow client's commit times out as a rolled-back transaction.

use crate::atom::Atom;
use crate::clause::Clause;
use crate::term::TermStore;
use crate::wire::{
    decode_atom, decode_clause, encode_atom, encode_clause, read_str, read_uv, write_str, write_uv,
    WireError, WireReader,
};

/// Protocol revision. Bumped on any incompatible change to the frame
/// payloads; a decoder seeing an unknown version rejects the message
/// with [`WireError::BadTag`] instead of guessing.
pub const PROTO_VERSION: u8 = 1;

/// Resource-governance fields attached to a request. All optional;
/// `deadline_ms` is relative to the moment the server receives the
/// request (clients and servers do not share a clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GovernOpts {
    /// Wall-clock budget in milliseconds from server receipt.
    pub deadline_ms: Option<u64>,
    /// Governance-check fuel (deterministic fault injection).
    pub fuel: Option<u64>,
    /// Memory budget in bytes (commits only).
    pub max_memory_bytes: Option<u64>,
    /// Ground-clause cap (commits only).
    pub max_clauses: Option<u64>,
}

/// Three-valued verdict tag, store- and engine-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruthTag {
    /// The query (or instance) is true in the well-founded model.
    True,
    /// False in the well-founded model.
    False,
    /// Undefined (the third truth value).
    Undefined,
}

/// One client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with [`Response::Pong`].
    Ping,
    /// Selects the session this connection talks to (default:
    /// `"default"`). Sessions are created on first use.
    Open {
        /// Session name (a directory name under the server's data root).
        session: String,
    },
    /// One transactional update batch: rules, asserted facts, retracted
    /// facts, applied in that order as a single commit.
    Commit {
        /// Rule clauses (including facts committed as rules).
        rules: Vec<Clause>,
        /// Ground facts to assert.
        asserts: Vec<Atom>,
        /// Ground facts to retract.
        retracts: Vec<Atom>,
        /// Governance budget for this commit.
        opts: GovernOpts,
    },
    /// A query, e.g. `"?- win(X)."`, executed on a committed snapshot.
    Query {
        /// Goal text.
        goal: String,
        /// Governance budget for the enumeration.
        opts: GovernOpts,
    },
    /// Scrapes the session's metrics registry (Prometheus text format).
    Metrics,
    /// Drains the session's trace-event ring (one event per line).
    Events,
    /// Forces a checkpoint + WAL rotation.
    Checkpoint,
    /// Asks the server to drain and stop.
    Shutdown,
}

/// What a failed request failed *as* — coarse classes a client can
/// dispatch on without parsing the message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed frame or payload.
    Protocol,
    /// Program/goal text did not parse.
    Parse,
    /// The batch was rejected by validation or static analysis.
    Rejected,
    /// Governance tripped (deadline, cancellation, budget); for commits
    /// the transaction rolled back completely.
    Interrupted,
    /// The session is poisoned and needs recovery.
    Poisoned,
    /// Request shape not supported (e.g. non-streaming engine).
    Unsupported,
    /// The server is at its connection cap.
    Busy,
    /// The server is draining for shutdown.
    Shutdown,
    /// Anything else (I/O, internal invariant).
    Internal,
}

/// Commit statistics mirrored onto the wire (u64 so the frame layout
/// does not depend on the server's `usize`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommitNumbers {
    /// Rules appended to the program.
    pub rules_added: u64,
    /// Genuinely new facts grounded in.
    pub facts_asserted: u64,
    /// Previously-retracted facts switched back on.
    pub facts_reenabled: u64,
    /// Fact clauses switched off.
    pub facts_retracted: u64,
    /// Ground atoms added by this commit.
    pub new_atoms: u64,
    /// Ground clauses added by this commit.
    pub new_clauses: u64,
}

/// One server reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::Open`].
    Opened {
        /// The session now bound to this connection.
        session: String,
        /// Its commit epoch at open time.
        epoch: u64,
    },
    /// Reply to a successful [`Request::Commit`] — sent only after the
    /// batch is fsync-durable (the group-commit ack contract).
    Committed {
        /// Session epoch after this commit.
        epoch: u64,
        /// What the commit did.
        stats: CommitNumbers,
    },
    /// Reply to [`Request::Query`].
    Answers {
        /// Overall three-valued verdict.
        truth: TruthTag,
        /// Rendered substitutions whose instances are true.
        answers: Vec<String>,
        /// Rendered substitutions whose instances are undefined.
        undefined: Vec<String>,
        /// Whether governance stopped the enumeration early (the
        /// answers above are a valid partial set).
        interrupted: bool,
    },
    /// Reply to [`Request::Metrics`] / [`Request::Events`] (and
    /// checkpoint/shutdown acknowledgements carrying no numbers).
    Text(String),
    /// Any failure. For commits the session has already rolled back.
    Error {
        /// Coarse failure class.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

const REQ_PING: u8 = 0;
const REQ_OPEN: u8 = 1;
const REQ_COMMIT: u8 = 2;
const REQ_QUERY: u8 = 3;
const REQ_METRICS: u8 = 4;
const REQ_EVENTS: u8 = 5;
const REQ_CHECKPOINT: u8 = 6;
const REQ_SHUTDOWN: u8 = 7;

const RESP_PONG: u8 = 0;
const RESP_OPENED: u8 = 1;
const RESP_COMMITTED: u8 = 2;
const RESP_ANSWERS: u8 = 3;
const RESP_TEXT: u8 = 4;
const RESP_ERROR: u8 = 5;

fn write_opt_uv(out: &mut Vec<u8>, v: Option<u64>) {
    match v {
        Some(v) => {
            out.push(1);
            write_uv(out, v);
        }
        None => out.push(0),
    }
}

fn read_opt_uv(r: &mut WireReader<'_>) -> Result<Option<u64>, WireError> {
    match r.byte()? {
        0 => Ok(None),
        1 => Ok(Some(read_uv(r)?)),
        t => Err(WireError::BadTag(t)),
    }
}

fn write_govern(out: &mut Vec<u8>, g: &GovernOpts) {
    write_opt_uv(out, g.deadline_ms);
    write_opt_uv(out, g.fuel);
    write_opt_uv(out, g.max_memory_bytes);
    write_opt_uv(out, g.max_clauses);
}

fn read_govern(r: &mut WireReader<'_>) -> Result<GovernOpts, WireError> {
    Ok(GovernOpts {
        deadline_ms: read_opt_uv(r)?,
        fuel: read_opt_uv(r)?,
        max_memory_bytes: read_opt_uv(r)?,
        max_clauses: read_opt_uv(r)?,
    })
}

/// Bounds a decoded element count by the bytes actually remaining, so a
/// corrupt count can never drive a huge allocation (each element costs
/// at least one byte).
fn checked_count(r: &WireReader<'_>, n: u64) -> Result<usize, WireError> {
    if n > r.remaining() as u64 {
        return Err(WireError::BadLength);
    }
    Ok(n as usize)
}

/// Encodes one request (version byte first). Clauses and atoms are
/// encoded structurally against `store`.
pub fn encode_request(store: &TermStore, req: &Request, out: &mut Vec<u8>) {
    out.push(PROTO_VERSION);
    match req {
        Request::Ping => out.push(REQ_PING),
        Request::Open { session } => {
            out.push(REQ_OPEN);
            write_str(out, session);
        }
        Request::Commit {
            rules,
            asserts,
            retracts,
            opts,
        } => {
            out.push(REQ_COMMIT);
            write_govern(out, opts);
            write_uv(out, rules.len() as u64);
            for c in rules {
                encode_clause(store, c, out);
            }
            write_uv(out, asserts.len() as u64);
            for a in asserts {
                encode_atom(store, a, out);
            }
            write_uv(out, retracts.len() as u64);
            for a in retracts {
                encode_atom(store, a, out);
            }
        }
        Request::Query { goal, opts } => {
            out.push(REQ_QUERY);
            write_govern(out, opts);
            write_str(out, goal);
        }
        Request::Metrics => out.push(REQ_METRICS),
        Request::Events => out.push(REQ_EVENTS),
        Request::Checkpoint => out.push(REQ_CHECKPOINT),
        Request::Shutdown => out.push(REQ_SHUTDOWN),
    }
}

/// Decodes one request, interning clause/atom payloads into `store`.
/// The whole payload must be consumed — trailing bytes are rejected.
pub fn decode_request(store: &mut TermStore, bytes: &[u8]) -> Result<Request, WireError> {
    let mut r = WireReader::new(bytes);
    let version = r.byte()?;
    if version != PROTO_VERSION {
        return Err(WireError::BadTag(version));
    }
    let req = match r.byte()? {
        REQ_PING => Request::Ping,
        REQ_OPEN => Request::Open {
            session: read_str(&mut r)?.to_owned(),
        },
        REQ_COMMIT => {
            let opts = read_govern(&mut r)?;
            let n = read_uv(&mut r)?;
            let n = checked_count(&r, n)?;
            let mut rules = Vec::with_capacity(n);
            for _ in 0..n {
                rules.push(decode_clause(store, &mut r)?);
            }
            let n = read_uv(&mut r)?;
            let n = checked_count(&r, n)?;
            let mut asserts = Vec::with_capacity(n);
            for _ in 0..n {
                asserts.push(decode_atom(store, &mut r)?);
            }
            let n = read_uv(&mut r)?;
            let n = checked_count(&r, n)?;
            let mut retracts = Vec::with_capacity(n);
            for _ in 0..n {
                retracts.push(decode_atom(store, &mut r)?);
            }
            Request::Commit {
                rules,
                asserts,
                retracts,
                opts,
            }
        }
        REQ_QUERY => {
            let opts = read_govern(&mut r)?;
            Request::Query {
                goal: read_str(&mut r)?.to_owned(),
                opts,
            }
        }
        REQ_METRICS => Request::Metrics,
        REQ_EVENTS => Request::Events,
        REQ_CHECKPOINT => Request::Checkpoint,
        REQ_SHUTDOWN => Request::Shutdown,
        t => return Err(WireError::BadTag(t)),
    };
    if !r.is_empty() {
        return Err(WireError::BadLength);
    }
    Ok(req)
}

fn write_truth(out: &mut Vec<u8>, t: TruthTag) {
    out.push(match t {
        TruthTag::True => 0,
        TruthTag::False => 1,
        TruthTag::Undefined => 2,
    });
}

fn read_truth(r: &mut WireReader<'_>) -> Result<TruthTag, WireError> {
    Ok(match r.byte()? {
        0 => TruthTag::True,
        1 => TruthTag::False,
        2 => TruthTag::Undefined,
        t => return Err(WireError::BadTag(t)),
    })
}

fn write_error_kind(out: &mut Vec<u8>, k: ErrorKind) {
    out.push(match k {
        ErrorKind::Protocol => 0,
        ErrorKind::Parse => 1,
        ErrorKind::Rejected => 2,
        ErrorKind::Interrupted => 3,
        ErrorKind::Poisoned => 4,
        ErrorKind::Unsupported => 5,
        ErrorKind::Busy => 6,
        ErrorKind::Shutdown => 7,
        ErrorKind::Internal => 8,
    });
}

fn read_error_kind(r: &mut WireReader<'_>) -> Result<ErrorKind, WireError> {
    Ok(match r.byte()? {
        0 => ErrorKind::Protocol,
        1 => ErrorKind::Parse,
        2 => ErrorKind::Rejected,
        3 => ErrorKind::Interrupted,
        4 => ErrorKind::Poisoned,
        5 => ErrorKind::Unsupported,
        6 => ErrorKind::Busy,
        7 => ErrorKind::Shutdown,
        8 => ErrorKind::Internal,
        t => return Err(WireError::BadTag(t)),
    })
}

fn write_strings(out: &mut Vec<u8>, v: &[String]) {
    write_uv(out, v.len() as u64);
    for s in v {
        write_str(out, s);
    }
}

fn read_strings(r: &mut WireReader<'_>) -> Result<Vec<String>, WireError> {
    let n = read_uv(r)?;
    let n = checked_count(r, n)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(read_str(r)?.to_owned());
    }
    Ok(out)
}

/// Encodes one response (version byte first). Responses are store-free.
pub fn encode_response(resp: &Response, out: &mut Vec<u8>) {
    out.push(PROTO_VERSION);
    match resp {
        Response::Pong => out.push(RESP_PONG),
        Response::Opened { session, epoch } => {
            out.push(RESP_OPENED);
            write_str(out, session);
            write_uv(out, *epoch);
        }
        Response::Committed { epoch, stats } => {
            out.push(RESP_COMMITTED);
            write_uv(out, *epoch);
            write_uv(out, stats.rules_added);
            write_uv(out, stats.facts_asserted);
            write_uv(out, stats.facts_reenabled);
            write_uv(out, stats.facts_retracted);
            write_uv(out, stats.new_atoms);
            write_uv(out, stats.new_clauses);
        }
        Response::Answers {
            truth,
            answers,
            undefined,
            interrupted,
        } => {
            out.push(RESP_ANSWERS);
            write_truth(out, *truth);
            write_strings(out, answers);
            write_strings(out, undefined);
            out.push(u8::from(*interrupted));
        }
        Response::Text(s) => {
            out.push(RESP_TEXT);
            write_str(out, s);
        }
        Response::Error { kind, message } => {
            out.push(RESP_ERROR);
            write_error_kind(out, *kind);
            write_str(out, message);
        }
    }
}

/// Decodes one response. The whole payload must be consumed.
pub fn decode_response(bytes: &[u8]) -> Result<Response, WireError> {
    let mut r = WireReader::new(bytes);
    let version = r.byte()?;
    if version != PROTO_VERSION {
        return Err(WireError::BadTag(version));
    }
    let resp = match r.byte()? {
        RESP_PONG => Response::Pong,
        RESP_OPENED => Response::Opened {
            session: read_str(&mut r)?.to_owned(),
            epoch: read_uv(&mut r)?,
        },
        RESP_COMMITTED => Response::Committed {
            epoch: read_uv(&mut r)?,
            stats: CommitNumbers {
                rules_added: read_uv(&mut r)?,
                facts_asserted: read_uv(&mut r)?,
                facts_reenabled: read_uv(&mut r)?,
                facts_retracted: read_uv(&mut r)?,
                new_atoms: read_uv(&mut r)?,
                new_clauses: read_uv(&mut r)?,
            },
        },
        RESP_ANSWERS => Response::Answers {
            truth: read_truth(&mut r)?,
            answers: read_strings(&mut r)?,
            undefined: read_strings(&mut r)?,
            interrupted: match r.byte()? {
                0 => false,
                1 => true,
                t => return Err(WireError::BadTag(t)),
            },
        },
        RESP_TEXT => Response::Text(read_str(&mut r)?.to_owned()),
        RESP_ERROR => Response::Error {
            kind: read_error_kind(&mut r)?,
            message: read_str(&mut r)?.to_owned(),
        },
        t => return Err(WireError::BadTag(t)),
    };
    if !r.is_empty() {
        return Err(WireError::BadLength);
    }
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn commit_request(store: &mut TermStore) -> Request {
        let batch = parse_program(store, "win(X) :- move(X, Y), ~win(Y). move(a, b).").unwrap();
        let facts = parse_program(store, "e(a, b). e(b, c).").unwrap();
        let asserts: Vec<Atom> = facts.clauses().iter().map(|c| c.head.clone()).collect();
        Request::Commit {
            rules: batch.clauses().to_vec(),
            asserts: asserts.clone(),
            retracts: vec![asserts[0].clone()],
            opts: GovernOpts {
                deadline_ms: Some(250),
                fuel: None,
                max_memory_bytes: Some(1 << 20),
                max_clauses: None,
            },
        }
    }

    #[test]
    fn request_roundtrip_structurally() {
        let mut store = TermStore::new();
        let req = commit_request(&mut store);
        let mut buf = Vec::new();
        encode_request(&store, &req, &mut buf);
        let mut store2 = TermStore::new();
        let got = decode_request(&mut store2, &buf).unwrap();
        match (&req, &got) {
            (
                Request::Commit {
                    rules: r1,
                    asserts: a1,
                    retracts: t1,
                    opts: o1,
                },
                Request::Commit {
                    rules: r2,
                    asserts: a2,
                    retracts: t2,
                    opts: o2,
                },
            ) => {
                assert_eq!(o1, o2);
                let d1: Vec<String> = r1.iter().map(|c| c.display(&store)).collect();
                let d2: Vec<String> = r2.iter().map(|c| c.display(&store2)).collect();
                assert_eq!(d1, d2);
                assert_eq!(
                    a1.iter().map(|a| a.display(&store)).collect::<Vec<_>>(),
                    a2.iter().map(|a| a.display(&store2)).collect::<Vec<_>>()
                );
                assert_eq!(
                    t1.iter().map(|a| a.display(&store)).collect::<Vec<_>>(),
                    t2.iter().map(|a| a.display(&store2)).collect::<Vec<_>>()
                );
            }
            _ => panic!("kind changed in flight"),
        }
    }

    #[test]
    fn simple_requests_roundtrip() {
        let store = TermStore::new();
        for req in [
            Request::Ping,
            Request::Open {
                session: "tenant-7".into(),
            },
            Request::Query {
                goal: "?- win(X).".into(),
                opts: GovernOpts {
                    deadline_ms: Some(10),
                    ..GovernOpts::default()
                },
            },
            Request::Metrics,
            Request::Events,
            Request::Checkpoint,
            Request::Shutdown,
        ] {
            let mut buf = Vec::new();
            encode_request(&store, &req, &mut buf);
            let mut s2 = TermStore::new();
            assert_eq!(decode_request(&mut s2, &buf).unwrap(), req);
        }
    }

    #[test]
    fn responses_roundtrip() {
        for resp in [
            Response::Pong,
            Response::Opened {
                session: "default".into(),
                epoch: 17,
            },
            Response::Committed {
                epoch: 18,
                stats: CommitNumbers {
                    rules_added: 1,
                    facts_asserted: 2,
                    facts_reenabled: 0,
                    facts_retracted: 3,
                    new_atoms: 40,
                    new_clauses: 41,
                },
            },
            Response::Answers {
                truth: TruthTag::Undefined,
                answers: vec!["X = a".into(), "X = b".into()],
                undefined: vec!["X = c".into()],
                interrupted: true,
            },
            Response::Text("gsls_commits 3\n".into()),
            Response::Error {
                kind: ErrorKind::Interrupted,
                message: "deadline exceeded in grounding".into(),
            },
        ] {
            let mut buf = Vec::new();
            encode_response(&resp, &mut buf);
            assert_eq!(decode_response(&buf).unwrap(), resp);
        }
    }

    #[test]
    fn version_mismatch_rejected() {
        let store = TermStore::new();
        let mut buf = Vec::new();
        encode_request(&store, &Request::Ping, &mut buf);
        buf[0] = PROTO_VERSION + 1;
        let mut s = TermStore::new();
        assert!(decode_request(&mut s, &buf).is_err());
        let mut buf = Vec::new();
        encode_response(&Response::Pong, &mut buf);
        buf[0] = 0xee;
        assert!(decode_response(&buf).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let store = TermStore::new();
        let mut buf = Vec::new();
        encode_request(&store, &Request::Metrics, &mut buf);
        buf.push(0);
        let mut s = TermStore::new();
        assert_eq!(
            decode_request(&mut s, &buf),
            Err(WireError::BadLength),
            "trailing bytes must be rejected"
        );
    }

    #[test]
    fn truncation_and_bitflips_never_panic() {
        let mut store = TermStore::new();
        let req = commit_request(&mut store);
        let mut buf = Vec::new();
        encode_request(&store, &req, &mut buf);
        for cut in 0..buf.len() {
            let mut s = TermStore::new();
            assert!(decode_request(&mut s, &buf[..cut]).is_err(), "cut {cut}");
        }
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0xff;
            let mut s = TermStore::new();
            let _ = decode_request(&mut s, &bad);
        }
    }
}
