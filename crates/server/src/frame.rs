//! Stream framing: `[len: u32 LE][crc: u32 LE][payload]`.
//!
//! The same record shape the WAL uses on disk (`gsls_durable::wal`),
//! through the same header codec (`gsls_durable::codec`), so a torn or
//! corrupted frame is detected the same way in both places: a length
//! prefix bounds the read, a CRC-32 over the payload rejects bit
//! damage, and anything structurally wrong surfaces as a typed
//! [`FrameError`] — never a panic, never an over-read.

use gsls_durable::{crc32, encode_frame_header, parse_frame_header, FRAME_HEADER};
use std::io::{self, Read, Write};

/// Hard cap on a single frame's payload. A length prefix above this is
/// treated as corruption (or a hostile peer) rather than honored with
/// a giant allocation.
pub const MAX_FRAME: usize = 16 << 20;

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying socket failed (including read timeouts, which
    /// surface as `WouldBlock`/`TimedOut` io errors).
    Io(io::Error),
    /// The peer closed the connection cleanly *between* frames.
    Closed,
    /// The peer closed (or the stream ended) in the middle of a frame.
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME`].
    TooLarge(usize),
    /// The payload's CRC-32 does not match the header.
    BadCrc,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame io error: {e}"),
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "connection closed mid-frame"),
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds cap"),
            FrameError::BadCrc => write!(f, "frame crc mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// Writes one frame: header then payload, no flush policy of its own
/// (callers flush once per response). A payload over [`MAX_FRAME`] is
/// an `InvalidInput` error — the peer would refuse it anyway.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let header = encode_frame_header(payload, MAX_FRAME).ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            FrameError::TooLarge(payload.len()).to_string(),
        )
    })?;
    w.write_all(&header)?;
    w.write_all(payload)
}

/// Reads one frame's payload. Distinguishes a clean close at a frame
/// boundary ([`FrameError::Closed`]) from a tear inside one
/// ([`FrameError::Truncated`]) so servers can tell a polite disconnect
/// from an ungraceful one.
///
/// A read timeout (`WouldBlock`/`TimedOut`) surfaces as
/// [`FrameError::Io`] and abandons any partial frame. Each `read` call
/// gets the whole timeout, so on a socket it bounds the gap between two
/// bytes, not the time the frame takes to arrive.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; FRAME_HEADER];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Err(FrameError::Closed),
            Ok(0) => return Err(FrameError::Truncated),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let (len, crc) = parse_frame_header(&header, MAX_FRAME).map_err(FrameError::TooLarge)?;
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => FrameError::Truncated,
        _ => FrameError::Io(e),
    })?;
    if crc32(&payload) != crc {
        return Err(FrameError::BadCrc);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[0xffu8; 300]).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), vec![0xffu8; 300]);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    /// Yields the framed bytes in tiny chunks with a simulated read
    /// timeout between every chunk — the pathological slow peer.
    struct Trickle<'a> {
        data: &'a [u8],
        pos: usize,
        chunk: usize,
        /// Alternates: timeout, then data, then timeout, ...
        ready: bool,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !self.ready {
                self.ready = true;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "timeout"));
            }
            self.ready = false;
            let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn tears_and_flips_are_typed_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        // Every proper prefix is a tear (or, at 0 bytes, a clean close).
        for cut in 1..buf.len() {
            let mut r = &buf[..cut];
            assert!(
                matches!(read_frame(&mut r), Err(FrameError::Truncated)),
                "cut at {cut}"
            );
        }
        // A flipped payload bit is a CRC mismatch.
        let mut bad = buf.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        assert!(matches!(read_frame(&mut &bad[..]), Err(FrameError::BadCrc)));
        // A hostile length prefix is rejected before allocating.
        let mut huge = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        huge.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            read_frame(&mut &huge[..]),
            Err(FrameError::TooLarge(_))
        ));
        // A read timeout surfaces as Io, not as a close or a tear.
        let mut r = Trickle {
            data: &buf,
            pos: 0,
            chunk: 1,
            ready: false,
        };
        assert!(matches!(read_frame(&mut r), Err(FrameError::Io(_))));
    }
}
