//! # gsls-durable — write-ahead logging, checkpoint/restore, crash injection
//!
//! Std-only durability for [`gsls`] sessions, layered as:
//!
//! * [`codec`] — CRC-32, the `[len][crc32]` frame header shared by WAL
//!   records and wire frames, plus the payload codecs for commit batches
//!   ([`Batch`]) and checkpoint images ([`CheckpointImage`]), built on
//!   the stable structural term codec in `gsls_lang::wire`.
//! * [`wal`] — the write-ahead log proper: length-prefixed, checksummed
//!   records behind the [`WalStorage`] trait; torn/corrupt tails are
//!   detected on open and truncated, never replayed.
//! * [`checkpoint`] — atomically-written (temp file + rename + dir
//!   fsync), checksummed snapshot files, organized into numbered
//!   generations with a two-generation retention policy.
//! * [`log`] — [`DurableLog`], the session-facing surface: open a
//!   directory, recover "newest valid checkpoint + WAL tail", append
//!   commit records, rotate at checkpoint time.
//! * [`fault`] — [`FaultyFile`], a [`WalStorage`] double that buffers
//!   unsynced bytes and loses them on an injected crash, driving the
//!   recovery test harness.
//!
//! The invariant the whole crate serves: **a record is durable before
//! it is applied**, and on reopen the recovered state equals replaying
//! exactly the durable prefix of commits — no more, no less.

pub mod checkpoint;
pub mod codec;
pub mod fault;
pub mod log;
pub mod wal;

pub use checkpoint::{
    ckpt_path, read_checkpoint, scan_dir, wal_path, write_checkpoint, Generations,
};
pub use codec::{
    crc32, decode_batch, decode_checkpoint, encode_batch, encode_checkpoint, encode_frame_header,
    parse_frame_header, Batch, CheckpointImage, FRAME_HEADER,
};
pub use fault::{FaultPlan, FaultyFile, INJECTED_CRASH};
pub use log::{DurableLog, DurableOpts, Recovered, StorageKind, WalObs};
pub use wal::{FileStorage, Wal, WalScan, WalStorage};

use gsls_lang::WireError;

/// Everything that can go wrong in the durability layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableError {
    /// An underlying I/O operation failed (message carries the
    /// `std::io::Error` rendering; kept as a string so the error type
    /// stays `Clone + Eq` for the session layer).
    Io(String),
    /// Stored bytes failed structural validation (bad magic, checksum
    /// mismatch, impossible counts, trailing garbage).
    Corrupt(String),
    /// The term-level wire codec rejected a payload.
    Wire(WireError),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(msg) => write!(f, "i/o error: {msg}"),
            DurableError::Corrupt(msg) => write!(f, "corrupt durable state: {msg}"),
            DurableError::Wire(e) => write!(f, "wire decode error: {e}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> DurableError {
        DurableError::Io(e.to_string())
    }
}

impl From<WireError> for DurableError {
    fn from(e: WireError) -> DurableError {
        DurableError::Wire(e)
    }
}
