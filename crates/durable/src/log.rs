//! The durable log: one directory holding checkpoint generations and
//! their write-ahead logs, presented as a single append/recover
//! surface for the session layer.
//!
//! ## Directory layout
//!
//! ```text
//! <dir>/ckpt-0000000004.gsls   checkpoint taken at generation 4
//! <dir>/wal-0000000004.log     commits since that checkpoint
//! <dir>/ckpt-0000000003.gsls   previous generation (fallback)
//! <dir>/wal-0000000003.log     commits between ckpt 3 and ckpt 4
//! ```
//!
//! Generation `g`'s WAL holds exactly the commits between checkpoint
//! `g` and checkpoint `g+1`, so state = newest valid checkpoint +
//! every WAL from that generation forward, replayed in order. If the
//! newest checkpoint fails its checksum, recovery falls back to the
//! previous generation and replays through *both* WALs — epoch stamps
//! on each record make the longer replay idempotent. The two newest
//! checkpoints, and every WAL from the older one on, are retained;
//! older generations are deleted when a checkpoint completes.

use crate::checkpoint::{
    ckpt_path, read_checkpoint, scan_dir, sync_dir, wal_path, write_checkpoint,
};
use crate::fault::{FaultPlan, FaultyFile};
use crate::wal::{FileStorage, Wal, WalScan, WalStorage, RECORD_HEADER};
use crate::DurableError;
use gsls_obs::{Counter, Registry};
use std::fs;
use std::path::{Path, PathBuf};

/// WAL/checkpoint I/O counters, resolved once from a session's metrics
/// registry and recorded from inside the log's I/O paths. Defaults to
/// detached handles (recording nothing) until
/// [`DurableLog::set_obs`] attaches real ones.
#[derive(Clone, Default)]
pub struct WalObs {
    /// Records appended to the active WAL.
    pub appends: Counter,
    /// Bytes appended (payload + record header).
    pub appended_bytes: Counter,
    /// Fsyncs issued by appends.
    pub fsyncs: Counter,
    /// WAL rotations (one per installed checkpoint).
    pub rotations: Counter,
    /// Checkpoint payload bytes written.
    pub checkpoint_bytes: Counter,
    /// Journaled records cut off the WAL by an unwind (a failed apply,
    /// or a group whose covering fsync failed).
    pub truncates: Counter,
    /// Group-commit fsyncs: one per [`DurableLog::sync_group`] call
    /// that actually reached storage.
    pub group_syncs: Counter,
    /// Records covered by those group fsyncs. `group_records /
    /// group_syncs` is the amortization ratio the serving benchmark
    /// asserts on.
    pub group_records: Counter,
}

impl WalObs {
    /// Resolves the `wal.*` counters from `reg`.
    pub fn register(reg: &Registry) -> WalObs {
        WalObs {
            appends: reg.counter("wal.appends"),
            appended_bytes: reg.counter("wal.appended_bytes"),
            fsyncs: reg.counter("wal.fsyncs"),
            rotations: reg.counter("wal.rotations"),
            checkpoint_bytes: reg.counter("wal.checkpoint_bytes"),
            truncates: reg.counter("wal.truncates"),
            group_syncs: reg.counter("wal.group_syncs"),
            group_records: reg.counter("wal.group_records"),
        }
    }
}

/// How the WAL reaches disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum StorageKind {
    /// Real files, real fsync.
    #[default]
    File,
    /// Fault-injecting storage for crash tests ([`FaultyFile`]); the
    /// plan applies to the *active* WAL file of each generation.
    Faulty(FaultPlan),
}

/// Durability tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableOpts {
    /// Take a checkpoint once the active WAL holds this many records.
    pub checkpoint_records: usize,
    /// ... or once it holds this many bytes, whichever comes first.
    pub checkpoint_bytes: u64,
    /// Storage backend for the WAL.
    pub storage: StorageKind,
}

impl Default for DurableOpts {
    fn default() -> DurableOpts {
        DurableOpts {
            checkpoint_records: 1024,
            checkpoint_bytes: 4 << 20,
            storage: StorageKind::File,
        }
    }
}

/// What [`DurableLog::open`] recovered from the directory.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Payload of the newest checkpoint that passed its checksum.
    pub checkpoint: Option<Vec<u8>>,
    /// WAL record payloads to replay on top, oldest first.
    pub records: Vec<Vec<u8>>,
    /// True when the newest checkpoint was corrupt and recovery fell
    /// back to the previous generation.
    pub fell_back: bool,
    /// Torn/corrupt WAL bytes truncated during recovery.
    pub torn_bytes: u64,
}

/// An open durable log positioned for appending.
pub struct DurableLog {
    dir: PathBuf,
    opts: DurableOpts,
    /// Active generation: appends go to `wal-<gen>.log`.
    gen: u64,
    wal: Wal,
    /// End offset of each record in the active WAL (recovered ones
    /// included): its length is the record count, and a cut to a mark
    /// keeps exactly the records that end at or below it.
    ends: Vec<u64>,
    /// I/O counters (detached until [`Self::set_obs`]).
    obs: WalObs,
}

impl std::fmt::Debug for DurableLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableLog")
            .field("dir", &self.dir)
            .field("gen", &self.gen)
            .field("records", &self.ends.len())
            .finish()
    }
}

impl DurableLog {
    /// Opens (creating if needed) the durable log in `dir` and
    /// recovers its state: newest valid checkpoint plus the WAL tail.
    pub fn open(dir: &Path, opts: DurableOpts) -> Result<(DurableLog, Recovered), DurableError> {
        if !dir.is_dir() {
            fs::create_dir_all(dir)?;
            // The new directory's own entry must survive a crash too.
            let parent = dir.parent().filter(|p| !p.as_os_str().is_empty());
            sync_dir(parent.unwrap_or(Path::new(".")))?;
        }
        let gens = scan_dir(dir)?;

        // Pick the newest checkpoint that verifies; fall back once.
        let mut checkpoint = None;
        let mut base_gen = 0u64;
        let mut fell_back = false;
        for &g in gens.checkpoints.iter().rev() {
            match read_checkpoint(&ckpt_path(dir, g)) {
                Ok(payload) => {
                    checkpoint = Some(payload);
                    base_gen = g;
                    break;
                }
                Err(_) => fell_back = true,
            }
        }
        if checkpoint.is_none() {
            fell_back = !gens.checkpoints.is_empty();
        }

        // Replay every WAL from the base generation forward. Earlier
        // generations' logs are closed: scan them read-only (still
        // truncating torn tails) and keep only the newest open for
        // appending.
        let active_gen = gens
            .wals
            .iter()
            .copied()
            .max()
            .unwrap_or(base_gen)
            .max(base_gen);
        let mut records = Vec::new();
        let mut torn_bytes = 0u64;
        for g in base_gen..active_gen {
            let path = wal_path(dir, g);
            if !path.exists() {
                continue;
            }
            let storage = Box::new(FileStorage::open(&path)?);
            let (_, scan) = Wal::open(storage)?;
            torn_bytes += scan.torn_bytes;
            records.extend(scan.records);
        }
        let (wal, scan) = open_wal(dir, active_gen, &opts.storage)?;
        torn_bytes += scan.torn_bytes;
        records.extend(scan.records);

        Ok((
            DurableLog {
                dir: dir.to_path_buf(),
                opts,
                gen: active_gen,
                wal,
                ends: scan.offsets,
                obs: WalObs::default(),
            },
            Recovered {
                checkpoint,
                records,
                fell_back,
                torn_bytes,
            },
        ))
    }

    /// Attaches I/O counters; subsequent appends, rotations, and
    /// truncates record into them.
    pub fn set_obs(&mut self, obs: WalObs) {
        self.obs = obs;
    }

    /// Active WAL length in bytes — the undo mark for [`Self::truncate_to`].
    pub fn wal_len(&self) -> u64 {
        self.wal.len()
    }

    /// Appends and fsyncs one commit-batch record. On success the record
    /// is durable *before* the caller mutates in-memory state.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), DurableError> {
        self.append_record(payload, true)
    }

    /// Appends one record **without** fsync'ing — the group-commit write
    /// path. The caller owes a [`Self::sync_group`] before acknowledging
    /// any of the appended batches; until then the record is on the page
    /// cache only and a crash may tear it off (recovery truncates the
    /// torn tail, which is safe precisely because no ack was sent).
    pub fn append_unsynced(&mut self, payload: &[u8]) -> Result<(), DurableError> {
        self.append_record(payload, false)
    }

    fn append_record(&mut self, payload: &[u8], sync: bool) -> Result<(), DurableError> {
        self.wal.append(payload, sync)?;
        self.ends.push(self.wal.len());
        self.obs.appends.add(1);
        self.obs
            .appended_bytes
            .add(RECORD_HEADER + payload.len() as u64);
        if sync {
            self.obs.fsyncs.add(1);
        }
        Ok(())
    }

    /// One fsync covering the `records` batches appended (unsynced)
    /// since the last sync — the amortization step of group commit.
    pub fn sync_group(&mut self, records: u64) -> Result<(), DurableError> {
        self.wal.sync()?;
        self.obs.fsyncs.add(1);
        self.obs.group_syncs.add(1);
        self.obs.group_records.add(records);
        Ok(())
    }

    /// Rolls the active WAL back to a mark taken with [`Self::wal_len`]
    /// — used when the in-memory apply of an already-journaled batch
    /// fails (so the record is never replayed) and after a failed
    /// append (so its partial or un-synced frame is gone before the
    /// next one lands). `Err` means the bytes may still be on storage.
    pub fn truncate_to(&mut self, mark: u64) -> Result<(), DurableError> {
        self.wal.truncate_to(mark)?;
        let kept = self.ends.partition_point(|&end| end <= mark);
        self.obs.truncates.add((self.ends.len() - kept) as u64);
        self.ends.truncate(kept);
        Ok(())
    }

    /// Whether the active WAL has grown past the checkpoint thresholds.
    pub fn should_checkpoint(&self) -> bool {
        self.ends.len() >= self.opts.checkpoint_records
            || self.wal.len() >= self.opts.checkpoint_bytes
    }

    /// Installs a new checkpoint: rotates to a fresh WAL as the next
    /// generation, writes the checkpoint atomically as that generation,
    /// and deletes generations older than the two newest checkpoints.
    /// Crash-safe at every step — the new WAL's directory entry is
    /// durable before the checkpoint that makes it the recovery base
    /// can be; a crash before the checkpoint's rename recovers from the
    /// old generation and replays both WALs; after it, recovery uses
    /// the new checkpoint and the new WAL; retention deletes are pure
    /// garbage collection. After an error, records appended go to a WAL
    /// that recovery replays, and the next checkpoint retains it.
    pub fn install_checkpoint(&mut self, payload: &[u8]) -> Result<(), DurableError> {
        let new_gen = self.gen + 1;
        let (wal, _) = open_wal(&self.dir, new_gen, &self.opts.storage)?;
        self.wal = wal;
        self.gen = new_gen;
        self.ends.clear();
        self.obs.rotations.add(1);
        write_checkpoint(&self.dir, new_gen, payload)?;
        self.obs.checkpoint_bytes.add(payload.len() as u64);
        // Retain this checkpoint, the one before it and every WAL
        // from that one on (a failed checkpoint leaves a generation with
        // a WAL and none); GC the rest.
        let gens = scan_dir(&self.dir)?;
        if let [.., keep, _] = gens.checkpoints[..] {
            for g in gens.checkpoints.into_iter().chain(gens.wals) {
                if g < keep {
                    let _ = fs::remove_file(ckpt_path(&self.dir, g));
                    let _ = fs::remove_file(wal_path(&self.dir, g));
                }
            }
        }
        Ok(())
    }
}

/// Opens (creating if missing) generation `gen`'s WAL in `dir` for
/// appending. An empty WAL may be new, or left by a failed rotation: its
/// directory entry is fsynced before it is returned, so no record acked
/// from it can outlive its name.
fn open_wal(dir: &Path, gen: u64, kind: &StorageKind) -> Result<(Wal, WalScan), DurableError> {
    let (wal, scan) = Wal::open(open_storage(kind, &wal_path(dir, gen))?)?;
    if wal.is_empty() {
        sync_dir(dir)?;
    }
    Ok((wal, scan))
}

fn open_storage(kind: &StorageKind, path: &Path) -> Result<Box<dyn WalStorage>, DurableError> {
    Ok(match kind {
        StorageKind::File => Box::new(FileStorage::open(path)?),
        StorageKind::Faulty(plan) => Box::new(FaultyFile::open(path, plan.clone())?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gsls_log_test_{}_{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn opts(records: usize) -> DurableOpts {
        DurableOpts {
            checkpoint_records: records,
            ..DurableOpts::default()
        }
    }

    #[test]
    fn fresh_dir_then_append_then_recover() {
        let dir = temp_dir("fresh");
        let (mut log, rec) = DurableLog::open(&dir, opts(100)).unwrap();
        assert!(rec.checkpoint.is_none());
        assert!(rec.records.is_empty());
        log.append(b"one").unwrap();
        log.append(b"two").unwrap();
        drop(log);
        let (_, rec) = DurableLog::open(&dir, opts(100)).unwrap();
        assert_eq!(rec.records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(!rec.fell_back);
    }

    #[test]
    fn checkpoint_rotates_wal_and_retains_two_generations() {
        let dir = temp_dir("rotate");
        let (mut log, _) = DurableLog::open(&dir, opts(2)).unwrap();
        log.append(b"a").unwrap();
        log.append(b"b").unwrap();
        assert!(log.should_checkpoint());
        log.install_checkpoint(b"ckpt-1 state").unwrap();
        assert!(!log.should_checkpoint());
        log.append(b"c").unwrap();
        log.append(b"d").unwrap();
        log.install_checkpoint(b"ckpt-2 state").unwrap();
        log.append(b"e").unwrap();
        drop(log);

        let gens = scan_dir(&dir).unwrap();
        assert_eq!(gens.checkpoints, vec![1, 2], "only two generations kept");
        let (_, rec) = DurableLog::open(&dir, opts(2)).unwrap();
        assert_eq!(rec.checkpoint.as_deref(), Some(&b"ckpt-2 state"[..]));
        assert_eq!(rec.records, vec![b"e".to_vec()]);
    }

    #[test]
    fn corrupt_newest_checkpoint_falls_back_and_replays_both_wals() {
        let dir = temp_dir("fallback");
        let (mut log, _) = DurableLog::open(&dir, opts(100)).unwrap();
        log.append(b"pre-1").unwrap();
        log.install_checkpoint(b"first checkpoint").unwrap();
        log.append(b"mid-1").unwrap();
        log.append(b"mid-2").unwrap();
        log.install_checkpoint(b"second checkpoint").unwrap();
        log.append(b"post-1").unwrap();
        drop(log);

        // Corrupt the newest checkpoint's payload.
        let newest = ckpt_path(&dir, 2);
        let mut bytes = fs::read(&newest).unwrap();
        *bytes.last_mut().unwrap() ^= 1;
        fs::write(&newest, &bytes).unwrap();

        let (_, rec) = DurableLog::open(&dir, opts(100)).unwrap();
        assert!(rec.fell_back);
        assert_eq!(rec.checkpoint.as_deref(), Some(&b"first checkpoint"[..]));
        // Replays generation-1 WAL then generation-2 WAL.
        assert_eq!(
            rec.records,
            vec![b"mid-1".to_vec(), b"mid-2".to_vec(), b"post-1".to_vec()]
        );
    }

    #[test]
    fn a_failed_checkpoint_loses_no_record() {
        let dir = temp_dir("failed_ckpt");
        let (mut log, _) = DurableLog::open(&dir, opts(100)).unwrap();
        log.append(b"before").unwrap();
        // A directory in the temp file's place fails the checkpoint write.
        fs::create_dir(ckpt_path(&dir, 1).with_extension("gsls.tmp")).unwrap();
        assert!(log.install_checkpoint(b"never installed").is_err());
        log.append(b"after").unwrap();
        drop(log);
        let (mut log, rec) = DurableLog::open(&dir, opts(100)).unwrap();
        assert!(rec.checkpoint.is_none());
        assert_eq!(rec.records, vec![b"before".to_vec(), b"after".to_vec()]);

        // The generation the failed checkpoint left has a WAL and no
        // checkpoint; the next two that succeed must still retain two.
        fs::remove_dir(ckpt_path(&dir, 1).with_extension("gsls.tmp")).unwrap();
        log.install_checkpoint(b"second").unwrap();
        log.append(b"mid").unwrap();
        fs::create_dir(ckpt_path(&dir, 3).with_extension("gsls.tmp")).unwrap();
        assert!(log.install_checkpoint(b"never installed").is_err());
        log.append(b"late").unwrap();
        fs::remove_dir(ckpt_path(&dir, 3).with_extension("gsls.tmp")).unwrap();
        log.install_checkpoint(b"fourth").unwrap();
        log.append(b"last").unwrap();
        drop(log);
        assert_eq!(scan_dir(&dir).unwrap().checkpoints, vec![2, 4]);

        // Corrupt the newest: recovery falls back and replays the rest.
        let newest = ckpt_path(&dir, 4);
        let mut bytes = fs::read(&newest).unwrap();
        *bytes.last_mut().unwrap() ^= 1;
        fs::write(&newest, &bytes).unwrap();
        let (_, rec) = DurableLog::open(&dir, opts(100)).unwrap();
        assert!(rec.fell_back);
        assert_eq!(rec.checkpoint.as_deref(), Some(&b"second"[..]));
        assert_eq!(
            rec.records,
            vec![b"mid".to_vec(), b"late".to_vec(), b"last".to_vec()]
        );
    }

    #[test]
    fn truncate_to_unwinds_a_journaled_record() {
        let dir = temp_dir("unwind");
        let (mut log, _) = DurableLog::open(&dir, opts(100)).unwrap();
        log.append(b"keep").unwrap();
        let mark = log.wal_len();
        log.append(b"doomed").unwrap();
        log.truncate_to(mark).unwrap();
        drop(log);
        let (_, rec) = DurableLog::open(&dir, opts(100)).unwrap();
        assert_eq!(rec.records, vec![b"keep".to_vec()]);
    }

    #[test]
    fn a_cut_of_several_records_keeps_the_record_count() {
        let dir = temp_dir("cut_count");
        let (mut log, _) = DurableLog::open(&dir, opts(4)).unwrap();
        let mark = log.wal_len();
        for _ in 0..3 {
            log.append_unsynced(b"doomed").unwrap();
        }
        log.truncate_to(mark).unwrap();
        for _ in 0..3 {
            log.append_unsynced(b"kept").unwrap();
        }
        assert!(!log.should_checkpoint(), "3 records held, 4 needed");
        log.append_unsynced(b"fourth").unwrap();
        assert!(log.should_checkpoint());
    }

    #[test]
    fn group_append_then_sync_recovers_all_records() {
        let dir = temp_dir("group");
        let (mut log, _) = DurableLog::open(&dir, opts(100)).unwrap();
        log.append_unsynced(b"g1").unwrap();
        log.append_unsynced(b"g2").unwrap();
        log.append_unsynced(b"g3").unwrap();
        log.sync_group(3).unwrap();
        drop(log);
        let (_, rec) = DurableLog::open(&dir, opts(100)).unwrap();
        assert_eq!(
            rec.records,
            vec![b"g1".to_vec(), b"g2".to_vec(), b"g3".to_vec()]
        );
    }

    #[test]
    fn group_tail_truncates_like_a_failed_apply() {
        let dir = temp_dir("group_undo");
        let (mut log, _) = DurableLog::open(&dir, opts(100)).unwrap();
        log.append_unsynced(b"good").unwrap();
        let mark = log.wal_len();
        log.append_unsynced(b"bad apply").unwrap();
        log.truncate_to(mark).unwrap();
        log.append_unsynced(b"next").unwrap();
        log.sync_group(2).unwrap();
        drop(log);
        let (_, rec) = DurableLog::open(&dir, opts(100)).unwrap();
        assert_eq!(rec.records, vec![b"good".to_vec(), b"next".to_vec()]);
    }

    #[test]
    fn byte_threshold_triggers_checkpoint() {
        let dir = temp_dir("bytes");
        let o = DurableOpts {
            checkpoint_records: usize::MAX,
            checkpoint_bytes: 32,
            ..DurableOpts::default()
        };
        let (mut log, _) = DurableLog::open(&dir, o).unwrap();
        assert!(!log.should_checkpoint());
        log.append(&[0u8; 40]).unwrap();
        assert!(log.should_checkpoint());
    }
}
