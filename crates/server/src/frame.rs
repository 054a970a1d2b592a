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
/// [`FrameError::Io`] and **abandons** any partial frame — use a
/// [`FrameReader`] when the socket has a read timeout and the frame
/// must survive it.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut fr = FrameReader::new();
    match fr.poll(r)? {
        Some(payload) => Ok(payload),
        None => Err(FrameError::Io(io::Error::new(
            io::ErrorKind::WouldBlock,
            "frame read timed out",
        ))),
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Incremental frame reader for sockets with a read timeout.
///
/// [`read_frame`] restarts from scratch on every call, so a timeout in
/// the middle of a frame — a >timeout gap between TCP segments of one
/// large request — would discard the bytes already consumed and desync
/// the stream. `FrameReader` instead keeps the partial header/payload
/// across calls: [`FrameReader::poll`] returns `Ok(None)` on a timeout
/// and resumes exactly where it stopped on the next call, so a slow but
/// well-behaved peer is never desynced. [`FrameReader::consumed`] lets
/// callers distinguish a genuinely idle connection (no bytes of any
/// frame yet) from a slow in-progress transfer.
#[derive(Debug, Default)]
pub struct FrameReader {
    header: [u8; FRAME_HEADER],
    hgot: usize,
    /// Allocated once the header is complete; length = payload length.
    payload: Vec<u8>,
    pgot: usize,
    have_header: bool,
}

impl FrameReader {
    /// A reader positioned between frames.
    pub fn new() -> FrameReader {
        FrameReader::default()
    }

    /// Bytes of the in-progress frame consumed so far (0 when the
    /// reader sits between frames).
    pub fn consumed(&self) -> usize {
        self.hgot + self.pgot
    }

    /// Advances the frame as far as the stream allows. Returns
    /// `Ok(Some(payload))` once a full frame is available,
    /// `Ok(None)` when the read timed out (`WouldBlock`/`TimedOut`) —
    /// partial progress is kept and the next call resumes it — and
    /// `Err` for everything else ([`FrameError`] semantics as in
    /// [`read_frame`]).
    pub fn poll(&mut self, r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
        while self.hgot < self.header.len() {
            match r.read(&mut self.header[self.hgot..]) {
                Ok(0) => {
                    return Err(if self.hgot == 0 {
                        FrameError::Closed
                    } else {
                        FrameError::Truncated
                    })
                }
                Ok(n) => self.hgot += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if is_timeout(&e) => return Ok(None),
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        let (len, crc) =
            parse_frame_header(&self.header, MAX_FRAME).map_err(FrameError::TooLarge)?;
        if !self.have_header {
            self.payload = vec![0u8; len];
            self.pgot = 0;
            self.have_header = true;
        }
        while self.pgot < self.payload.len() {
            match r.read(&mut self.payload[self.pgot..]) {
                Ok(0) => return Err(FrameError::Truncated),
                Ok(n) => self.pgot += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if is_timeout(&e) => return Ok(None),
                Err(e) => return Err(FrameError::Io(e)),
            }
        }
        let payload = std::mem::take(&mut self.payload);
        self.hgot = 0;
        self.pgot = 0;
        self.have_header = false;
        if crc32(&payload) != crc {
            return Err(FrameError::BadCrc);
        }
        Ok(Some(payload))
    }
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
    fn frame_reader_resumes_across_timeouts() {
        let payload: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        write_frame(&mut buf, b"second").unwrap();
        // One byte per read, a timeout before every byte: the reader
        // must keep its partial header/payload across every Ok(None).
        let mut r = Trickle {
            data: &buf,
            pos: 0,
            chunk: 1,
            ready: false,
        };
        let mut fr = FrameReader::new();
        let mut frames = Vec::new();
        let mut timeouts = 0usize;
        let mut last_consumed = 0usize;
        while frames.len() < 2 {
            match fr.poll(&mut r).unwrap() {
                Some(p) => {
                    assert_eq!(fr.consumed(), 0, "reader must reset between frames");
                    last_consumed = 0;
                    frames.push(p);
                }
                None => {
                    timeouts += 1;
                    // Progress is monotone within a frame and visible to
                    // the caller (this is what feeds the idle clock).
                    assert!(fr.consumed() >= last_consumed);
                    last_consumed = fr.consumed();
                }
            }
        }
        assert_eq!(frames[0], payload);
        assert_eq!(frames[1], b"second");
        assert!(
            timeouts > buf.len() / 2,
            "trickle should have timed out often"
        );
        // And the plain read_frame wrapper surfaces a timeout as Io.
        let mut r = Trickle {
            data: &buf,
            pos: 0,
            chunk: 1,
            ready: false,
        };
        assert!(matches!(read_frame(&mut r), Err(FrameError::Io(_))));
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
    }
}
