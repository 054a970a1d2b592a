//! The write-ahead log: length-prefixed, checksummed records appended
//! through the [`WalStorage`] abstraction.
//!
//! ## Record framing
//!
//! ```text
//! ┌────────────┬────────────┬───────────────┐
//! │ len: u32le │ crc: u32le │ payload bytes │
//! └────────────┴────────────┴───────────────┘
//! ```
//!
//! `len` is the payload length; `crc` is the CRC-32 of the payload.
//! Records are self-verifying: on [`Wal::open`] the file is scanned
//! front to back and the scan stops at the first header that is
//! truncated, a length that overruns the file, or a checksum mismatch —
//! a **torn or corrupt tail** left by a crash mid-append. The tail is
//! truncated away so it is never replayed and never corrupts later
//! appends; everything before it is the durable prefix.
//!
//! ## Storage abstraction
//!
//! [`WalStorage`] is the minimal surface the WAL needs: read the
//! existing bytes, append, sync, truncate. Production uses
//! [`FileStorage`] over an append-mode [`std::fs::File`]; the
//! crash-injection harness swaps in [`crate::fault::FaultyFile`], which
//! buffers unsynced bytes and loses them on an injected crash —
//! exactly the failure model fsync is meant to defend against.

use crate::codec::{crc32, encode_frame_header, parse_frame_header, FRAME_HEADER};
use crate::DurableError;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Record header size: payload length + checksum.
pub const RECORD_HEADER: u64 = FRAME_HEADER as u64;

/// Hard sanity cap on a single record's payload (1 GiB). A length
/// beyond this is treated as corruption, not an allocation request.
const MAX_RECORD: usize = 1 << 30;

/// The byte-level surface the WAL writes through. Implementations must
/// behave like an append-only file: `append` adds bytes at the end,
/// `sync` makes every appended byte durable, `truncate` discards a
/// corrupt tail.
pub trait WalStorage: Send {
    /// Reads the entire current contents.
    fn read_all(&mut self) -> io::Result<Vec<u8>>;
    /// Appends `data` at the end.
    fn append(&mut self, data: &[u8]) -> io::Result<()>;
    /// Makes all appended bytes durable (fsync).
    fn sync(&mut self) -> io::Result<()>;
    /// Discards everything past `len` bytes.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

/// [`WalStorage`] over a real file.
#[derive(Debug)]
pub struct FileStorage {
    file: File,
}

impl FileStorage {
    /// Opens (creating if missing) the file at `path` for read+append.
    pub fn open(path: &Path) -> io::Result<FileStorage> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(FileStorage { file })
    }
}

impl WalStorage for FileStorage {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut buf = Vec::new();
        self.file.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::End(0))?;
        self.file.write_all(data)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)?;
        self.file.sync_data()
    }
}

/// What one [`Wal::open`] scan recovered.
#[derive(Debug)]
pub struct WalScan {
    /// Every intact record's payload, in append order.
    pub records: Vec<Vec<u8>>,
    /// End offset of each record (the WAL length after that record was
    /// appended) — the crash boundaries the recovery harness sweeps.
    pub offsets: Vec<u64>,
    /// Bytes of torn/corrupt tail discarded by the scan (0 = clean).
    pub torn_bytes: u64,
}

/// An open write-ahead log positioned for appending.
pub struct Wal {
    storage: Box<dyn WalStorage>,
    len: u64,
    /// Storage may hold bytes past `len`: an append failed part-way (or
    /// its fsync did), so an un-acked frame — whole or torn — can sit
    /// behind the last intact record. Cleared by the next successful
    /// [`Wal::truncate_to`]; until then nothing may be appended, or an
    /// acked record would land behind bytes recovery stops (or worse,
    /// replays) at.
    dirty: bool,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal").field("len", &self.len).finish()
    }
}

/// Splits raw WAL bytes into intact record payloads; returns the
/// payloads, their end offsets, and the length of the valid prefix.
fn scan_records(bytes: &[u8]) -> (Vec<Vec<u8>>, Vec<u64>, u64) {
    let mut records = Vec::new();
    let mut offsets = Vec::new();
    let mut pos = 0usize;
    loop {
        let body = pos + FRAME_HEADER;
        let Some(header) = bytes.get(pos..body) else {
            break; // truncated header (or clean EOF)
        };
        let header = header.try_into().expect("header-sized slice");
        let Ok((len, crc)) = parse_frame_header(header, MAX_RECORD) else {
            break; // absurd length: corrupt header
        };
        let Some(payload) = bytes.get(body..body + len) else {
            break; // torn payload
        };
        if crc32(payload) != crc {
            break; // corrupt payload
        }
        records.push(payload.to_vec());
        pos = body + len;
        offsets.push(pos as u64);
    }
    (records, offsets, pos as u64)
}

impl Wal {
    /// Opens a WAL over `storage`: scans the existing bytes, truncates
    /// any torn/corrupt tail, and positions for appending after the
    /// last intact record.
    pub fn open(mut storage: Box<dyn WalStorage>) -> Result<(Wal, WalScan), DurableError> {
        let bytes = storage.read_all()?;
        let (records, offsets, valid) = scan_records(&bytes);
        let torn_bytes = bytes.len() as u64 - valid;
        if torn_bytes > 0 {
            storage.truncate(valid)?;
        }
        Ok((
            Wal {
                storage,
                len: valid,
                dirty: false,
            },
            WalScan {
                records,
                offsets,
                torn_bytes,
            },
        ))
    }

    /// Current length in bytes (intact records only).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one framed record and (when `sync`) makes it durable.
    /// On success the record is on storage *before* the caller applies
    /// the batch in memory — the write-ahead contract. On failure the
    /// frame may have reached storage anyway (a failed fsync does not
    /// un-write it): the log is left *dirty*, and the caller must cut
    /// the frame off with [`Wal::truncate_to`] — this method refuses to
    /// append behind it until that has succeeded.
    pub fn append(&mut self, payload: &[u8], sync: bool) -> Result<(), DurableError> {
        if self.dirty {
            self.truncate_to(self.len)?;
        }
        let header = encode_frame_header(payload, MAX_RECORD).ok_or_else(|| {
            DurableError::Corrupt(format!("record payload of {} bytes", payload.len()))
        })?;
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&header);
        frame.extend_from_slice(payload);
        self.dirty = true;
        self.storage.append(&frame)?;
        if sync {
            self.storage.sync()?;
        }
        self.dirty = false;
        self.len += frame.len() as u64;
        Ok(())
    }

    /// Makes every appended byte durable now — the group-commit hook:
    /// append several records with `sync = false`, then issue one
    /// explicit sync covering them all.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        self.storage.sync()?;
        Ok(())
    }

    /// Discards everything past `len` bytes — the undo hook for a
    /// record whose in-memory apply failed after the append, and for
    /// whatever a failed append left behind. An `Err` means the bytes
    /// may still be there; the caller must not treat the record as gone.
    pub fn truncate_to(&mut self, len: u64) -> Result<(), DurableError> {
        if len < self.len || (self.dirty && len == self.len) {
            self.storage.truncate(len)?;
            self.len = len;
            self.dirty = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gsls_wal_test_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join("wal.log")
    }

    fn open_file(path: &Path) -> (Wal, WalScan) {
        let storage = Box::new(FileStorage::open(path).expect("open storage"));
        Wal::open(storage).expect("open wal")
    }

    #[test]
    fn append_reopen_roundtrip() {
        let path = temp_path("roundtrip");
        let (mut wal, scan) = open_file(&path);
        assert!(scan.records.is_empty());
        wal.append(b"alpha", true).unwrap();
        wal.append(b"beta", true).unwrap();
        wal.append(b"", true).unwrap(); // empty payloads are legal
        drop(wal);
        let (wal, scan) = open_file(&path);
        assert_eq!(
            scan.records,
            vec![b"alpha".to_vec(), b"beta".to_vec(), vec![]]
        );
        assert_eq!(scan.torn_bytes, 0);
        assert_eq!(scan.offsets.len(), 3);
        assert_eq!(wal.len(), *scan.offsets.last().unwrap());
    }

    /// The torn-tail matrix: every way a crash can mangle the last
    /// record must truncate exactly the tail and keep the prefix.
    #[test]
    fn torn_and_corrupt_tails_truncate() {
        let path = temp_path("torn");
        let (mut wal, _) = open_file(&path);
        wal.append(b"first record", true).unwrap();
        wal.append(b"second record", true).unwrap();
        drop(wal);
        let clean = std::fs::read(&path).unwrap();
        let first_end = RECORD_HEADER as usize + b"first record".len();

        // (a) every truncation point inside the second record.
        for cut in first_end..clean.len() {
            std::fs::write(&path, &clean[..cut]).unwrap();
            let (wal, scan) = open_file(&path);
            assert_eq!(scan.records, vec![b"first record".to_vec()], "cut {cut}");
            assert_eq!(scan.torn_bytes, (cut - first_end) as u64);
            assert_eq!(wal.len(), first_end as u64);
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                first_end as u64,
                "tail physically truncated at cut {cut}"
            );
        }

        // (b) corrupt checksum: flip one payload byte of the tail.
        let mut corrupt = clean.clone();
        *corrupt.last_mut().unwrap() ^= 0x01;
        std::fs::write(&path, &corrupt).unwrap();
        let (_, scan) = open_file(&path);
        assert_eq!(scan.records, vec![b"first record".to_vec()]);

        // (c) corrupt header: absurd length field.
        let mut bad_len = clean[..first_end].to_vec();
        bad_len.extend_from_slice(&u32::MAX.to_le_bytes());
        bad_len.extend_from_slice(&[0u8; 12]);
        std::fs::write(&path, &bad_len).unwrap();
        let (_, scan) = open_file(&path);
        assert_eq!(scan.records, vec![b"first record".to_vec()]);

        // (d) appending after a torn-tail recovery produces a clean log.
        std::fs::write(&path, &clean[..clean.len() - 3]).unwrap();
        let (mut wal, _) = open_file(&path);
        wal.append(b"third record", true).unwrap();
        drop(wal);
        let (_, scan) = open_file(&path);
        assert_eq!(
            scan.records,
            vec![b"first record".to_vec(), b"third record".to_vec()]
        );
        assert_eq!(scan.torn_bytes, 0);
    }

    /// A flipped byte in the *middle* record cuts the durable prefix
    /// there: later records are unreachable (no resynchronization), by
    /// design — the log's validity is a prefix property.
    #[test]
    fn corruption_mid_log_stops_scan() {
        let path = temp_path("midlog");
        let (mut wal, _) = open_file(&path);
        wal.append(b"aaaa", true).unwrap();
        wal.append(b"bbbb", true).unwrap();
        wal.append(b"cccc", true).unwrap();
        drop(wal);
        let mut bytes = std::fs::read(&path).unwrap();
        let second_payload = 2 * RECORD_HEADER as usize + 4;
        bytes[second_payload] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let (_, scan) = open_file(&path);
        assert_eq!(scan.records, vec![b"aaaa".to_vec()]);
    }

    #[test]
    fn truncate_to_undoes_last_append() {
        let path = temp_path("undo");
        let (mut wal, _) = open_file(&path);
        wal.append(b"keep", true).unwrap();
        let mark = wal.len();
        wal.append(b"doomed batch", true).unwrap();
        wal.truncate_to(mark).unwrap();
        drop(wal);
        let (_, scan) = open_file(&path);
        assert_eq!(scan.records, vec![b"keep".to_vec()]);
    }
}
