//! # gsls-serve — a concurrent multi-session network server
//!
//! A std-only TCP front end that multiplexes concurrent clients onto
//! durable [`gsls_core::Session`]s, with a **group-commit** write path:
//! contiguous queued commit batches are journaled as one WAL apply with
//! a single fsync amortized across them, and every waiting client gets
//! its own typed reply only after that fsync (the "fsync before ack"
//! contract). Every request runs on the thread of the connection that
//! sent it: a query against an `Arc`'d snapshot, never blocking a
//! commit; a commit under the session's writer lock.
//!
//! ## Wire protocol
//!
//! Every message is one frame — `[len: u32 LE][crc32: u32 LE][payload]`
//! ([`frame`]) — whose payload starts with a version byte
//! ([`gsls_lang::PROTO_VERSION`]) and a tag, then the
//! LEB128/length-prefixed body defined in `gsls_lang::proto`:
//!
//! | Request       | Payload                               | Reply |
//! |---------------|---------------------------------------|-------|
//! | `Ping`        | —                                     | `Pong` |
//! | `Open`        | session name                          | `Opened{session, epoch}` |
//! | `Commit`      | rules, asserts, retracts, budgets     | `Committed{epoch, stats}` |
//! | `Query`       | goal text, budgets                    | `Answers{truth, answers, undefined, interrupted}` |
//! | `Metrics`     | —                                     | `Text` (Prometheus format) |
//! | `Events`      | —                                     | `Text` (JSON lines) |
//! | `Checkpoint`  | —                                     | `Text` |
//! | `Shutdown`    | —                                     | `Text` |
//!
//! A query's `Answers` reply is bounded by count ([`MAX_ANSWERS`]) and
//! by bytes (one frame, [`MAX_FRAME`]): enumeration stops before either
//! is exceeded and the partial set comes back with `interrupted` set,
//! so no reply is too large to send.
//!
//! Any failure is `Error{kind, message}` with a coarse
//! [`gsls_lang::ErrorKind`] the client can dispatch on. Per-request
//! `deadline_ms`/`fuel`/`max_memory_bytes`/`max_clauses` budgets map
//! 1:1 onto the engine's [`gsls_core::CommitOpts`] / query guards;
//! deadlines are measured from the instant the server received the
//! request.
//!
//! ## Group-commit semantics
//!
//! Each session sits behind one writer lock, held only while a group
//! runs. A commit waits on the connection thread that received it, and
//! one waiting thread per session leads: it runs the group for itself
//! and the others, then hands the lead on. There is no timer: a group
//! is what arrived while the last one ran. The leader waits only for
//! the writers of the last group to send again, and never longer than
//! that group's run (`server` module docs, "Group formation"), so a
//! lone writer's commit, or one that finds the session idle, is
//! committed at once, and writers that keep committing share each
//! group's fsync and publish. Each group takes the oldest pending
//! batches and commits them via [`gsls_core::Session::commit_group`]:
//! every batch is appended to the WAL *unsynced*, validated, governed,
//! and applied under its own budget; one covering fsync at the end
//! makes the whole run durable. Replies are sent only after that
//! fsync. A batch that fails (rejection, deadline, budget) is
//! truncated off the WAL tail and rolled back — **only that client**
//! sees `Error{kind: Interrupted}` (or `Rejected`); the rest of the
//! group commits and the session keeps serving. The amortization is
//! observable in the scrape as `gsls_wal_group_records` /
//! `gsls_wal_group_syncs`.
//!
//! ## Disconnect failure model
//!
//! A client that vanishes mid-request can never poison a session:
//!
//! * a half-written frame fails its length/CRC check and is dropped —
//!   nothing reaches the engine;
//! * a fully received commit whose client is gone commits normally —
//!   its connection thread does not read while the commit is pending —
//!   and only the reply write fails;
//! * connection threads own nothing but their socket between requests,
//!   so their death releases only their connection slot.
//!
//! A *slow* client is not an ungraceful one: a connection blocks in one
//! read per frame and is closed only when [`ServerConfig::idle_timeout`]
//! passes without a byte, inside a frame or between frames. Every
//! request decodes once, on its connection thread, into a store of its
//! own, before any session is bound; a commit is shape-checked there and
//! translated into the session's arena only when its group runs, so
//! malformed, mis-shaped or expired commits cannot grow session memory.
//! Over-cap connects get one
//! `Error{kind: Busy}` reply; `Shutdown` is honored from loopback
//! peers only unless [`ServerConfig::remote_admin`] opts in; shutdown
//! ([`Server::shutdown`], or [`Server::wait`] after a `Shutdown`
//! request) drains: blocked reads end, and accepted requests — pending
//! commits with their covering fsync included — finish before the
//! connection threads are joined and the sessions closed. If a
//! covering fsync itself fails, no batch in the group is acked and the
//! session is poisoned (its in-memory state no longer provably matches
//! the WAL) rather than serving unacknowledged writes.

pub mod client;
pub mod frame;
pub mod server;

pub use client::{expect_interrupted, Client, ClientError, CommitReceipt, QueryResults};
pub use frame::{read_frame, write_frame, FrameError, MAX_FRAME};
pub use server::{Server, ServerConfig, DEFAULT_IDLE_TIMEOUT, MAX_ANSWERS};
