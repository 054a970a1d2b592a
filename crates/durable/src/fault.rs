//! Crash injection: a [`WalStorage`] test double that models the
//! failure modes fsync exists to defend against.
//!
//! [`FaultyFile`] wraps a real file but buffers every append in a
//! volatile `pending` buffer — the simulated page cache. A successful
//! `sync` flushes `pending` to the file; a *dropped* sync (per the
//! [`FaultPlan`]) reports success while leaving the bytes volatile,
//! exactly like a disk that lies about fsync; a *failed* sync or
//! truncate reports a transient I/O error and changes nothing, so the
//! bytes it should have settled are still there for the next sync to
//! flush. When the plan's byte budget runs out the file **crashes**:
//! unsynced bytes are lost — except for a configurable torn tail that
//! "reached the platter" mid-write — and every later operation fails.
//! Re-opening the underlying path with [`crate::wal::FileStorage`] then
//! plays the part of the post-reboot recovery.

use crate::wal::WalStorage;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// A deterministic schedule of injected storage faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Crash once this many bytes have been offered to `append`
    /// (the crashing write is cut at the boundary). `None` = never.
    pub crash_after_bytes: Option<u64>,
    /// 0-based indices of `sync` calls that silently do nothing while
    /// still reporting success.
    pub drop_syncs: Vec<u64>,
    /// At crash time, this many unsynced bytes (in append order) leak
    /// to the durable file anyway — a torn write caught mid-flight.
    pub torn_tail_bytes: u64,
    /// 0-based indices of `sync` calls that fail with an I/O error and
    /// flush nothing: the appended bytes stay volatile, and a later
    /// successful sync still makes them durable.
    pub fail_syncs: Vec<u64>,
    /// 0-based indices of `truncate` calls that fail with an I/O error
    /// and discard nothing.
    pub fail_truncates: Vec<u64>,
}

impl FaultPlan {
    /// A plan that never faults (useful as a sweep baseline).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }
}

/// The error kind every operation returns after an injected crash.
pub const INJECTED_CRASH: &str = "injected crash";

/// The error a `fail_syncs` / `fail_truncates` entry injects.
const INJECTED_IO_ERROR: &str = "injected transient i/o error";

/// [`WalStorage`] with fault injection; see the module docs for the
/// volatility model.
#[derive(Debug)]
pub struct FaultyFile {
    file: File,
    plan: FaultPlan,
    /// Total bytes offered to `append` over the file's lifetime.
    appended: u64,
    /// Number of `sync` calls made so far.
    syncs: u64,
    /// Number of `truncate` calls made so far.
    truncates: u64,
    /// Appended-but-unsynced bytes (the simulated page cache).
    pending: Vec<u8>,
    crashed: bool,
}

impl FaultyFile {
    /// Opens (creating if missing) `path` with the given fault plan.
    pub fn open(path: &Path, plan: FaultPlan) -> io::Result<FaultyFile> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(FaultyFile {
            file,
            plan,
            appended: 0,
            syncs: 0,
            truncates: 0,
            pending: Vec::new(),
            crashed: false,
        })
    }

    /// Whether the injected crash has fired.
    pub fn has_crashed(&self) -> bool {
        self.crashed
    }

    fn crash(&mut self) -> io::Error {
        let torn = (self.plan.torn_tail_bytes as usize).min(self.pending.len());
        if torn > 0 {
            // A torn write: the first `torn` volatile bytes made it to
            // the platter before power was lost.
            let tail: Vec<u8> = self.pending[..torn].to_vec();
            let _ = self.file.seek(SeekFrom::End(0));
            let _ = self.file.write_all(&tail);
            let _ = self.file.sync_data();
        }
        self.pending.clear();
        self.crashed = true;
        io::Error::other(INJECTED_CRASH)
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.crashed {
            Err(io::Error::other(INJECTED_CRASH))
        } else {
            Ok(())
        }
    }
}

impl WalStorage for FaultyFile {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.check_alive()?;
        self.file.seek(SeekFrom::Start(0))?;
        let mut buf = Vec::new();
        self.file.read_to_end(&mut buf)?;
        buf.extend_from_slice(&self.pending);
        Ok(buf)
    }

    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.check_alive()?;
        if let Some(limit) = self.plan.crash_after_bytes {
            let budget = limit.saturating_sub(self.appended);
            if (data.len() as u64) > budget {
                // The write is cut at the crash boundary.
                self.pending.extend_from_slice(&data[..budget as usize]);
                self.appended += budget;
                return Err(self.crash());
            }
        }
        self.pending.extend_from_slice(data);
        self.appended += data.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.check_alive()?;
        let idx = self.syncs;
        self.syncs += 1;
        if self.plan.fail_syncs.contains(&idx) {
            return Err(io::Error::other(INJECTED_IO_ERROR));
        }
        if self.plan.drop_syncs.contains(&idx) {
            return Ok(()); // the lying disk: success without durability
        }
        if !self.pending.is_empty() {
            self.file.seek(SeekFrom::End(0))?;
            let pending = std::mem::take(&mut self.pending);
            self.file.write_all(&pending)?;
        }
        self.file.sync_data()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.check_alive()?;
        let idx = self.truncates;
        self.truncates += 1;
        if self.plan.fail_truncates.contains(&idx) {
            return Err(io::Error::other(INJECTED_IO_ERROR));
        }
        let durable = self.file.metadata()?.len();
        if len <= durable {
            self.file.set_len(len)?;
            self.pending.clear();
        } else {
            self.pending.truncate((len - durable) as usize);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{FileStorage, Wal};

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gsls_fault_test_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join("wal.log")
    }

    #[test]
    fn unsynced_bytes_are_lost_on_crash() {
        let path = temp_path("lost");
        let mut f = FaultyFile::open(
            &path,
            FaultPlan {
                crash_after_bytes: Some(1_000),
                ..FaultPlan::default()
            },
        )
        .unwrap();
        f.append(b"synced").unwrap();
        f.sync().unwrap();
        f.append(b"volatile").unwrap();
        // Crash by exhausting the byte budget.
        assert!(f.append(&[0u8; 2_000]).is_err());
        assert!(f.has_crashed());
        assert!(f.read_all().is_err(), "dead after crash");
        assert_eq!(std::fs::read(&path).unwrap(), b"synced");
    }

    #[test]
    fn dropped_sync_reports_success_but_loses_data() {
        let path = temp_path("dropped");
        let mut f = FaultyFile::open(
            &path,
            FaultPlan {
                crash_after_bytes: Some(100),
                drop_syncs: vec![1],
                ..FaultPlan::default()
            },
        )
        .unwrap();
        f.append(b"one").unwrap();
        f.sync().unwrap(); // sync #0: real
        f.append(b"two").unwrap();
        f.sync().unwrap(); // sync #1: dropped, still "succeeds"
        assert!(f.append(&[0u8; 200]).is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"one");
    }

    #[test]
    fn torn_tail_leaks_partial_write() {
        let path = temp_path("torn");
        let mut f = FaultyFile::open(
            &path,
            FaultPlan {
                crash_after_bytes: Some(10),
                torn_tail_bytes: 4,
                ..FaultPlan::default()
            },
        )
        .unwrap();
        f.append(b"abcdef").unwrap(); // 6 bytes pending
        assert!(f.append(b"ghijkl").is_err()); // budget 4 → crash
                                               // 6 pending + 4 of the cut write = 10 pending at crash; 4 leak.
        assert_eq!(std::fs::read(&path).unwrap(), b"abcd");
    }

    /// A failed fsync leaves the frame in the page cache. The WAL must
    /// not append behind it: the next append first cuts it off, and
    /// refuses while the cut itself fails.
    #[test]
    fn failed_sync_frame_is_cut_before_the_next_append() {
        let path = temp_path("failed_sync");
        let plan = FaultPlan {
            fail_syncs: vec![1],
            fail_truncates: vec![0, 1],
            ..FaultPlan::default()
        };
        let storage = Box::new(FaultyFile::open(&path, plan).unwrap());
        let (mut wal, _) = Wal::open(storage).unwrap();
        wal.append(b"acked", true).unwrap();
        let mark = wal.len();
        assert!(wal.append(b"never acked", true).is_err(), "sync #1 fails");
        assert_eq!(wal.len(), mark);
        assert!(wal.truncate_to(mark).is_err(), "truncate #0 fails");
        assert!(
            wal.append(b"blocked", true).is_err(),
            "truncate #1 fails: no append behind the un-acked frame"
        );
        wal.append(b"next", true).unwrap(); // truncate #2 cuts, then appends
        drop(wal);
        let storage = Box::new(FileStorage::open(&path).unwrap());
        let (_, scan) = Wal::open(storage).unwrap();
        assert_eq!(scan.records, vec![b"acked".to_vec(), b"next".to_vec()]);
    }

    /// End-to-end: a WAL on faulty storage crashes mid-append; reopening
    /// the path with real storage recovers exactly the synced records
    /// and truncates the torn tail.
    #[test]
    fn wal_on_faulty_storage_recovers_synced_prefix() {
        let path = temp_path("e2e");
        let storage = Box::new(
            FaultyFile::open(
                &path,
                FaultPlan {
                    crash_after_bytes: Some(40),
                    torn_tail_bytes: 5,
                    ..FaultPlan::default()
                },
            )
            .unwrap(),
        );
        let (mut wal, _) = Wal::open(storage).unwrap();
        wal.append(b"durable rec", true).unwrap(); // 19 bytes, synced
        let err = wal.append(b"this one dies mid-flight", true);
        assert!(err.is_err());
        drop(wal);
        // Reboot: plain file storage over what actually hit the disk.
        let storage = Box::new(FileStorage::open(&path).unwrap());
        let (_, scan) = Wal::open(storage).unwrap();
        assert_eq!(scan.records, vec![b"durable rec".to_vec()]);
        assert!(scan.torn_bytes > 0, "the leaked tail was truncated");
    }
}
