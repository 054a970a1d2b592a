//! Checkpoint files: atomically-written, checksummed snapshots.
//!
//! ## File format
//!
//! ```text
//! ┌──────────────┬──────────────┬────────────┬────────────┬─────────┐
//! │ magic 8 bytes│ version u32le│ len: u32le │ crc: u32le │ payload │
//! └──────────────┴──────────────┴────────────┴────────────┴─────────┘
//! ```
//!
//! ## Atomicity
//!
//! A checkpoint is written to `ckpt-<gen>.gsls.tmp` in full, fsync'd,
//! then renamed into place (rename is atomic on POSIX), and the
//! directory is fsync'd so the rename itself is durable. A crash at
//! any point leaves either the previous generation intact or the new
//! file complete — never a half-written visible checkpoint. Stray
//! `.tmp` files from a crash are deleted on open.
//!
//! Generations are numbered `ckpt-<gen>.gsls` / `wal-<gen>.log`; the
//! two newest generations are retained so that a newest checkpoint
//! that fails its checksum (e.g. latent media corruption) can fall
//! back to the previous one and replay forward through both WALs.

use crate::codec::crc32;
use crate::DurableError;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Leading magic of every checkpoint file.
pub const CKPT_MAGIC: &[u8; 8] = b"GSLSCKPT";
/// Current checkpoint format version.
pub const CKPT_VERSION: u32 = 1;

/// Path of generation `g`'s checkpoint file.
pub fn ckpt_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("ckpt-{gen:010}.gsls"))
}

/// Path of generation `g`'s write-ahead log.
pub fn wal_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("wal-{gen:010}.log"))
}

/// Parses a generation number out of a `prefix-<gen>suffix` file name.
fn parse_gen(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let rest = name.strip_prefix(prefix)?;
    let digits = rest.strip_suffix(suffix)?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Generation numbers present in `dir`, sorted ascending.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Generations {
    /// Generations with a (visible) checkpoint file.
    pub checkpoints: Vec<u64>,
    /// Generations with a WAL file.
    pub wals: Vec<u64>,
}

/// Scans `dir` for checkpoint/WAL generations, deleting stray `.tmp`
/// files left by a crash mid-checkpoint.
pub fn scan_dir(dir: &Path) -> Result<Generations, DurableError> {
    let mut gens = Generations::default();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.ends_with(".tmp") {
            let _ = fs::remove_file(entry.path());
        } else if let Some(g) = parse_gen(name, "ckpt-", ".gsls") {
            gens.checkpoints.push(g);
        } else if let Some(g) = parse_gen(name, "wal-", ".log") {
            gens.wals.push(g);
        }
    }
    gens.checkpoints.sort_unstable();
    gens.wals.sort_unstable();
    Ok(gens)
}

/// Fsyncs `dir` itself so a just-completed create or rename in it
/// survives power loss.
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Writes generation `gen`'s checkpoint atomically (temp file + fsync
/// + rename + directory fsync).
pub fn write_checkpoint(dir: &Path, gen: u64, payload: &[u8]) -> Result<(), DurableError> {
    let final_path = ckpt_path(dir, gen);
    let tmp_path = final_path.with_extension("gsls.tmp");
    let len = u32::try_from(payload.len())
        .map_err(|_| DurableError::Corrupt("checkpoint payload too large".into()))?;
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        f.write_all(CKPT_MAGIC)?;
        f.write_all(&CKPT_VERSION.to_le_bytes())?;
        f.write_all(&len.to_le_bytes())?;
        f.write_all(&crc32(payload).to_le_bytes())?;
        f.write_all(payload)?;
        f.sync_all()?;
    }
    fs::rename(&tmp_path, &final_path)?;
    sync_dir(dir)?;
    Ok(())
}

/// Reads and verifies a checkpoint file, returning its payload.
pub fn read_checkpoint(path: &Path) -> Result<Vec<u8>, DurableError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    if bytes.len() < 20 {
        return Err(DurableError::Corrupt("checkpoint file truncated".into()));
    }
    if &bytes[..8] != CKPT_MAGIC {
        return Err(DurableError::Corrupt("bad checkpoint magic".into()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != CKPT_VERSION {
        return Err(DurableError::Corrupt(format!(
            "unsupported checkpoint version {version}"
        )));
    }
    let len = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
    let crc = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
    // Drop the header in place: the payload keeps the buffer it was read into.
    bytes.drain(..20);
    if bytes.len() != len {
        return Err(DurableError::Corrupt(format!(
            "checkpoint payload length {} != header {len}",
            bytes.len()
        )));
    }
    if crc32(&bytes) != crc {
        return Err(DurableError::Corrupt("checkpoint checksum mismatch".into()));
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("gsls_ckpt_test_{}_{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn write_read_roundtrip() {
        let dir = temp_dir("roundtrip");
        write_checkpoint(&dir, 3, b"snapshot payload").unwrap();
        let got = read_checkpoint(&ckpt_path(&dir, 3)).unwrap();
        assert_eq!(got, b"snapshot payload");
        let gens = scan_dir(&dir).unwrap();
        assert_eq!(gens.checkpoints, vec![3]);
    }

    #[test]
    fn corrupt_checkpoints_rejected() {
        let dir = temp_dir("corrupt");
        write_checkpoint(&dir, 1, b"good bytes here").unwrap();
        let path = ckpt_path(&dir, 1);
        let clean = fs::read(&path).unwrap();

        // Truncations at every byte of the header and payload.
        for cut in 0..clean.len() {
            fs::write(&path, &clean[..cut]).unwrap();
            assert!(read_checkpoint(&path).is_err(), "cut {cut}");
        }
        // Flipped payload byte → checksum mismatch.
        let mut bad = clean.clone();
        *bad.last_mut().unwrap() ^= 1;
        fs::write(&path, &bad).unwrap();
        assert!(read_checkpoint(&path).is_err());
        // Wrong magic.
        let mut bad = clean.clone();
        bad[0] = b'X';
        fs::write(&path, &bad).unwrap();
        assert!(read_checkpoint(&path).is_err());
        // Future version.
        let mut bad = clean.clone();
        bad[8..12].copy_from_slice(&99u32.to_le_bytes());
        fs::write(&path, &bad).unwrap();
        assert!(read_checkpoint(&path).is_err());
        // Intact file still reads after restoring.
        fs::write(&path, &clean).unwrap();
        assert!(read_checkpoint(&path).is_ok());
    }

    #[test]
    fn sync_dir_of_a_missing_directory_is_an_error() {
        let dir = temp_dir("sync_dir");
        sync_dir(&dir).unwrap();
        assert!(sync_dir(&dir.join("missing")).is_err());
    }

    #[test]
    fn scan_cleans_tmp_and_ignores_noise() {
        let dir = temp_dir("scan");
        write_checkpoint(&dir, 7, b"x").unwrap();
        write_checkpoint(&dir, 9, b"y").unwrap();
        fs::write(wal_path(&dir, 9), b"").unwrap();
        fs::write(dir.join("ckpt-0000000008.gsls.tmp"), b"half-written").unwrap();
        fs::write(dir.join("README"), b"not ours").unwrap();
        fs::write(dir.join("ckpt-abc.gsls"), b"not a gen").unwrap();
        let gens = scan_dir(&dir).unwrap();
        assert_eq!(gens.checkpoints, vec![7, 9]);
        assert_eq!(gens.wals, vec![9]);
        assert!(!dir.join("ckpt-0000000008.gsls.tmp").exists());
    }
}
