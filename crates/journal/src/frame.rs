//! The on-disk frame format.
//!
//! Each journal record is one frame:
//!
//! ```text
//! +----------------+----------------+------------------+
//! | length: u32 LE | crc32: u32 LE  | payload (length) |
//! +----------------+----------------+------------------+
//! ```
//!
//! The checksum covers the payload only; the length field is validated
//! structurally (bounds + whether the bytes to back it exist). A frame is
//! accepted only when it is whole *and* its checksum matches, which is what
//! lets recovery cut a torn tail at the last intact frame.

use crate::crc32::crc32;

/// Bytes of frame metadata preceding the payload.
pub const FRAME_HEADER_LEN: usize = 8;

/// Upper bound on a single payload; a length field above this is treated
/// as corruption rather than an instruction to allocate.
pub const MAX_PAYLOAD_LEN: u32 = 64 * 1024 * 1024;

/// Encoded size of a frame carrying `payload_len` bytes.
pub fn frame_len(payload_len: usize) -> u64 {
    FRAME_HEADER_LEN as u64 + payload_len as u64
}

/// Appends the frame encoding of `payload` to `out`.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_PAYLOAD_LEN`].
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    encode_frame_with(out, |out| out.extend_from_slice(payload));
}

/// Appends one frame to `out` whose payload is whatever `write` appends:
/// the header is reserved first and filled in once the payload's length
/// and checksum are known, so the payload is built in place.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_PAYLOAD_LEN`], or if `write` left
/// `out` shorter than it found it.
pub fn encode_frame_with(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    write(out);
    let payload_start = start + FRAME_HEADER_LEN;
    assert!(out.len() >= payload_start, "the payload writer truncated the frame buffer");
    let payload_len = out.len() - payload_start;
    assert!(
        payload_len <= MAX_PAYLOAD_LEN as usize,
        "journal payload of {payload_len} bytes exceeds the {MAX_PAYLOAD_LEN} byte frame limit"
    );
    let crc = crc32(&out[payload_start..]);
    out[start..start + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    out[start + 4..payload_start].copy_from_slice(&crc.to_le_bytes());
}

/// Outcome of decoding the frame at the start of `buf`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameDecode<'a> {
    /// A whole, checksum-valid frame; `consumed` is its total encoded size.
    Complete {
        /// The frame payload, borrowed from the input.
        payload: &'a [u8],
        /// Total encoded frame size in bytes.
        consumed: usize,
    },
    /// The buffer ends before the frame does — a torn tail if at end of file.
    Incomplete,
    /// The frame is whole but fails validation (bad length or checksum).
    Corrupt,
}

/// Decodes the frame beginning at `buf[0]`.
pub fn decode_frame(buf: &[u8]) -> FrameDecode<'_> {
    if buf.len() < FRAME_HEADER_LEN {
        return FrameDecode::Incomplete;
    }
    let length = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    let expected_crc = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    if length > MAX_PAYLOAD_LEN {
        return FrameDecode::Corrupt;
    }
    let total = FRAME_HEADER_LEN + length as usize;
    if buf.len() < total {
        return FrameDecode::Incomplete;
    }
    let payload = &buf[FRAME_HEADER_LEN..total];
    if crc32(payload) != expected_crc {
        return FrameDecode::Corrupt;
    }
    FrameDecode::Complete { payload, consumed: total }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut buf = Vec::new();
        encode_frame(b"hello", &mut buf);
        encode_frame(b"", &mut buf);
        match decode_frame(&buf) {
            FrameDecode::Complete { payload, consumed } => {
                assert_eq!(payload, b"hello");
                assert_eq!(consumed, FRAME_HEADER_LEN + 5);
                match decode_frame(&buf[consumed..]) {
                    FrameDecode::Complete { payload, consumed } => {
                        assert_eq!(payload, b"");
                        assert_eq!(consumed, FRAME_HEADER_LEN);
                    }
                    other => panic!("empty frame: {other:?}"),
                }
            }
            other => panic!("first frame: {other:?}"),
        }
    }

    /// The bytes on disk are the format: journals written before frames were
    /// encoded in place must stay readable, and the other way round.
    #[test]
    fn encoding_is_length_then_crc_then_payload() {
        let mut buf = vec![0xEE];
        encode_frame(b"hello", &mut buf);
        assert_eq!(buf, [0xEE, 5, 0, 0, 0, 0x86, 0xA6, 0x10, 0x36, b'h', b'e', b'l', b'l', b'o']);
        let mut in_place = vec![0xEE];
        encode_frame_with(&mut in_place, |out| {
            out.extend_from_slice(b"hel");
            out.extend_from_slice(b"lo");
        });
        assert_eq!(in_place, buf);
    }

    #[test]
    fn truncation_is_incomplete() {
        let mut buf = Vec::new();
        encode_frame(b"payload", &mut buf);
        for cut in 0..buf.len() {
            assert_eq!(decode_frame(&buf[..cut]), FrameDecode::Incomplete, "cut at {cut}");
        }
    }

    #[test]
    fn payload_corruption_is_detected() {
        let mut buf = Vec::new();
        encode_frame(b"payload", &mut buf);
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x01;
            assert_ne!(
                decode_frame(&bad),
                FrameDecode::Complete { payload: b"payload", consumed: buf.len() },
                "flip at {i} went unnoticed"
            );
        }
    }

    #[test]
    fn absurd_length_is_corrupt_not_alloc() {
        let mut buf = vec![0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0];
        buf.extend_from_slice(&[0u8; 16]);
        assert_eq!(decode_frame(&buf), FrameDecode::Corrupt);
    }
}
