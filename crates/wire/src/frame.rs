//! The frame layer: handshake magic plus `len · payload · crc` framing
//! over any `Read`/`Write` pair.

use cypher_storage::codec::crc32;
use std::fmt;
use std::io::{ErrorKind, IoSlice, Read, Write};

/// The 8-byte handshake each side sends on connect. The trailing `03` is
/// the protocol version (02: reply-scoped string tables; 03: `Metrics`
/// carries only the page text, and `Stats` is gone): a side that reads
/// any other `CYWIRE0x` magic refuses the connection instead of
/// misparsing frames.
pub const HANDSHAKE_MAGIC: &[u8; 8] = b"CYWIRE03";

/// Default cap on a frame's payload length (8 MiB). Both sides reject an
/// advertised length above their cap *before* allocating — the defense
/// against length-prefix allocation bombs.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 8 * 1024 * 1024;

/// Everything that can go wrong at the frame/message layer.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed (includes clean EOF mid-frame).
    Io(std::io::Error),
    /// The peer violated the protocol: bad handshake, CRC mismatch,
    /// unknown tag, truncated or trailing payload bytes.
    Protocol(String),
    /// The peer advertised a frame larger than the negotiated cap; the
    /// frame was rejected before any allocation.
    FrameTooLarge {
        /// The advertised payload length.
        len: u64,
        /// The refusing side's cap.
        max: u64,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o: {e}"),
            WireError::Protocol(m) => write!(f, "wire protocol violation: {m}"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame length {len} exceeds the cap of {max} bytes")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<cypher_storage::StorageError> for WireError {
    fn from(e: cypher_storage::StorageError) -> Self {
        WireError::Protocol(e.to_string())
    }
}

/// Writes one frame: `len · payload · crc32(payload)`, as one vectored
/// write of the three parts. Through a `BufWriter` a frame that fits its
/// buffer is buffered whole, and a larger one goes to the socket in one
/// `writev` rather than as a 4-byte length segment ahead of the payload.
/// The caller flushes (frames are usually followed by a blocking read
/// anyway).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    let len = u32::try_from(payload.len()).map_err(|_| WireError::FrameTooLarge {
        len: payload.len() as u64,
        max: u32::MAX as u64,
    })?;
    let (len, crc) = (len.to_le_bytes(), crc32(payload).to_le_bytes());
    let mut parts = [
        IoSlice::new(&len),
        IoSlice::new(payload),
        IoSlice::new(&crc),
    ];
    let mut parts = &mut parts[..];
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(WireError::Io(ErrorKind::WriteZero.into())),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    Ok(())
}

/// Reads one frame, enforcing the length cap **before** allocating the
/// payload buffer and verifying the trailing CRC after. A clean EOF at
/// the first length byte surfaces as `Io(UnexpectedEof)` — the caller
/// distinguishes "peer hung up between frames" from a torn frame by
/// whether any length bytes arrived.
pub fn read_exact_frame(r: &mut impl Read, max_len: u32) -> Result<Vec<u8>, WireError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_le_bytes(len_buf);
    if len == 0 {
        return Err(WireError::Protocol("empty frame".to_string()));
    }
    if len > max_len {
        return Err(WireError::FrameTooLarge {
            len: len as u64,
            max: max_len as u64,
        });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let mut crc_buf = [0u8; 4];
    r.read_exact(&mut crc_buf)?;
    if u32::from_le_bytes(crc_buf) != crc32(&payload) {
        return Err(WireError::Protocol("frame crc mismatch".to_string()));
    }
    Ok(payload)
}

/// Client half of the handshake: send our magic, expect the server's.
pub fn client_handshake(stream: &mut (impl Read + Write)) -> Result<(), WireError> {
    stream.write_all(HANDSHAKE_MAGIC)?;
    stream.flush()?;
    let mut theirs = [0u8; 8];
    stream.read_exact(&mut theirs)?;
    if &theirs != HANDSHAKE_MAGIC {
        return Err(WireError::Protocol(format!(
            "server answered a different protocol ({theirs:02x?})"
        )));
    }
    Ok(())
}

/// Server half of the handshake: expect the client's magic, answer with
/// ours. A wrong magic is a protocol error — the server drops the
/// connection without answering (it cannot trust the peer's framing).
pub fn server_handshake(stream: &mut (impl Read + Write)) -> Result<(), WireError> {
    let mut theirs = [0u8; 8];
    stream.read_exact(&mut theirs)?;
    if &theirs != HANDSHAKE_MAGIC {
        return Err(WireError::Protocol(format!(
            "client spoke a different protocol ({theirs:02x?})"
        )));
    }
    stream.write_all(HANDSHAKE_MAGIC)?;
    stream.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_exact_frame(&mut r, 1024).unwrap(), b"hello");
    }

    #[test]
    fn hostile_length_prefix_rejected_before_allocation() {
        // A 4 GiB - 1 length prefix with nothing behind it: rejected from
        // the 4 header bytes alone.
        let mut r = Cursor::new(vec![0xFF, 0xFF, 0xFF, 0xFF]);
        match read_exact_frame(&mut r, DEFAULT_MAX_FRAME_BYTES) {
            Err(WireError::FrameTooLarge { len, max }) => {
                assert_eq!(len, u32::MAX as u64);
                assert_eq!(max, DEFAULT_MAX_FRAME_BYTES as u64);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_crc_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        let mut r = Cursor::new(buf);
        assert!(matches!(
            read_exact_frame(&mut r, 1024),
            Err(WireError::Protocol(_))
        ));
    }

    #[test]
    fn truncated_frame_is_io_error_not_panic() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        for cut in 0..buf.len() {
            let mut r = Cursor::new(&buf[..cut]);
            assert!(
                read_exact_frame(&mut r, 1024).is_err(),
                "cut at {cut} must error"
            );
        }
    }

    /// A recording writer that takes at most `cap` bytes per call.
    struct Recorder {
        cap: usize,
        calls: usize,
        out: Vec<u8>,
    }
    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let before = self.out.len();
            for b in bufs {
                let room = self.cap - (self.out.len() - before);
                self.out.extend_from_slice(&b[..b.len().min(room)]);
            }
            Ok(self.out.len() - before)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_vectored_write_and_survives_short_writes() {
        let payload = vec![0xA5u8; 100_000];
        let mut whole = Vec::new();
        write_frame(&mut whole, &payload).unwrap();
        let mut one = Recorder {
            cap: usize::MAX,
            calls: 0,
            out: Vec::new(),
        };
        write_frame(&mut one, &payload).unwrap();
        assert_eq!((one.calls, &one.out), (1, &whole));
        // Short writes that end inside the header, the payload and the
        // CRC resume where the last one stopped.
        let mut short = Recorder {
            cap: 3,
            calls: 0,
            out: Vec::new(),
        };
        write_frame(&mut short, b"payload").unwrap();
        let mut expected = Vec::new();
        write_frame(&mut expected, b"payload").unwrap();
        assert_eq!((short.calls, short.out), (5, expected));
    }

    #[test]
    fn handshake_rejects_wrong_magic() {
        struct Duplex {
            input: Cursor<Vec<u8>>,
            output: Vec<u8>,
        }
        impl Read for Duplex {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.input.read(buf)
            }
        }
        impl Write for Duplex {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.output.write(buf)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        // A foreign magic and the earlier protocol versions: 01's
        // replies carry no string tables, 02's `Metrics` replies carry
        // typed fields before the text.
        for theirs in [b"CYWAL002", b"CYWIRE01", b"CYWIRE02"] {
            let mut s = Duplex {
                input: Cursor::new(theirs.to_vec()),
                output: Vec::new(),
            };
            assert!(matches!(
                server_handshake(&mut s),
                Err(WireError::Protocol(_))
            ));
            assert!(s.output.is_empty(), "no answer to a wrong-protocol peer");
            let mut c = Duplex {
                input: Cursor::new(theirs.to_vec()),
                output: Vec::new(),
            };
            assert!(matches!(
                client_handshake(&mut c),
                Err(WireError::Protocol(_))
            ));
        }
    }
}
