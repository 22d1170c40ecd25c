//! LEB128 variable-length integers with zig-zag signed encoding.
//!
//! The "size-sensitive representation" the paper's delta-compression
//! relies on: "storing just small deltas, when combined with a
//! size-sensitive representation, can yield large storage savings"
//! (§2.1).
//!
//! # Example
//!
//! Small magnitudes — either sign — stay small on disk:
//!
//! ```
//! use mr_storage::varint::{decode_i64, encode_i64, encoded_len_i64};
//!
//! let mut buf = Vec::new();
//! encode_i64(-2, &mut buf);
//! assert_eq!(buf.len(), 1, "zig-zag keeps -2 to one byte");
//! assert_eq!(encoded_len_i64(i64::MAX), 10);
//!
//! let (value, used) = decode_i64(&buf)?;
//! assert_eq!((value, used), (-2, 1));
//! # Ok::<(), mr_storage::StorageError>(())
//! ```

use crate::error::{Result, StorageError};

/// Append an unsigned varint.
pub fn encode_u64(mut v: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode an unsigned varint from the front of `buf`; returns the value
/// and the number of bytes consumed.
pub fn decode_u64(buf: &[u8]) -> Result<(u64, usize)> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    for (i, &b) in buf.iter().enumerate() {
        if shift >= 64 {
            return Err(StorageError::corrupt("varint", "overlong encoding"));
        }
        let low = (b & 0x7f) as u64;
        // Check for bits shifted out of range on the final group.
        if shift == 63 && low > 1 {
            return Err(StorageError::corrupt("varint", "value exceeds u64"));
        }
        v |= low << shift;
        if b & 0x80 == 0 {
            return Ok((v, i + 1));
        }
        shift += 7;
    }
    Err(StorageError::corrupt("varint", "truncated"))
}

/// Split a varint length and that many payload bytes off the front of
/// `buf`; returns the payload and the bytes consumed. The end offset is
/// `checked_add`ed, so a forged length near `u64::MAX` is a typed
/// `Corrupt { context, "truncated <what>" }`, never an overflow.
pub(crate) fn decode_len_prefixed<'a>(
    buf: &'a [u8],
    context: &str,
    what: &str,
) -> Result<(&'a [u8], usize)> {
    let (len, n) = decode_u64(buf)?;
    let payload = usize::try_from(len)
        .ok()
        .and_then(|len| n.checked_add(len))
        .and_then(|end| buf.get(n..end))
        .ok_or_else(|| StorageError::corrupt(context, format!("truncated {what}")))?;
    Ok((payload, n + payload.len()))
}

/// A `Vec` capacity for `count` items decoded from bytes of which
/// `remaining` are left: every item takes at least one byte, so an
/// honest count never exceeds it and a forged one cannot reserve more
/// memory than the input holds.
pub(crate) fn capacity_for(count: u64, remaining: usize) -> usize {
    usize::try_from(count).map_or(remaining, |c| c.min(remaining))
}

/// Read one unsigned varint from `input`, byte at a time — the
/// streaming sibling of [`decode_u64`] for readers that cannot see a
/// slice (seqfile rows, runfile frames). Returns the value and the
/// bytes consumed, or `None` on a clean end-of-stream before the first
/// byte; end-of-stream mid-varint and overlong encodings are
/// corruption.
pub fn read_u64_from(input: &mut impl std::io::Read) -> Result<Option<(u64, u64)>> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    let mut nbytes = 0u64;
    loop {
        let mut b = [0u8; 1];
        match input.read_exact(&mut b) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof && nbytes == 0 => {
                return Ok(None)
            }
            Err(e) => return Err(e.into()),
        }
        nbytes += 1;
        if shift >= 64 {
            return Err(StorageError::corrupt("varint", "overlong encoding"));
        }
        let low = (b[0] & 0x7f) as u64;
        if shift == 63 && low > 1 {
            return Err(StorageError::corrupt("varint", "value exceeds u64"));
        }
        v |= low << shift;
        if b[0] & 0x80 == 0 {
            return Ok(Some((v, nbytes)));
        }
        shift += 7;
    }
}

/// Zig-zag map a signed value to unsigned so small magnitudes stay
/// small.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append a signed varint (zig-zag).
pub fn encode_i64(v: i64, out: &mut Vec<u8>) {
    encode_u64(zigzag(v), out);
}

/// Decode a signed varint.
pub fn decode_i64(buf: &[u8]) -> Result<(i64, usize)> {
    let (u, n) = decode_u64(buf)?;
    Ok((unzigzag(u), n))
}

/// Number of bytes [`encode_u64`] would use.
pub fn encoded_len_u64(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

/// Number of bytes [`encode_i64`] would use.
pub fn encoded_len_i64(v: i64) -> usize {
    encoded_len_u64(zigzag(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_unsigned_corners() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX, u64::MAX - 1] {
            let mut buf = Vec::new();
            encode_u64(v, &mut buf);
            let (got, n) = decode_u64(&buf).unwrap();
            assert_eq!(got, v);
            assert_eq!(n, buf.len());
            assert_eq!(n, encoded_len_u64(v));
        }
    }

    #[test]
    fn roundtrip_signed_corners() {
        for v in [0i64, 1, -1, 63, -64, 64, -65, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            encode_i64(v, &mut buf);
            let (got, n) = decode_i64(&buf).unwrap();
            assert_eq!(got, v);
            assert_eq!(n, buf.len());
            assert_eq!(n, encoded_len_i64(v));
        }
    }

    #[test]
    fn zigzag_keeps_small_magnitudes_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        assert!(encoded_len_i64(-3) == 1);
        assert!(encoded_len_i64(1000) == 2);
    }

    #[test]
    fn truncated_rejected() {
        let mut buf = Vec::new();
        encode_u64(300, &mut buf);
        assert!(decode_u64(&buf[..1]).is_err());
        assert!(decode_u64(&[]).is_err());
    }

    #[test]
    fn overlong_rejected() {
        let buf = [0x80u8; 11];
        assert!(decode_u64(&buf).is_err());
    }

    #[test]
    fn streaming_read_matches_slice_decode() {
        let mut buf = Vec::new();
        for v in [0u64, 127, 128, 16384, u64::MAX] {
            encode_u64(v, &mut buf);
        }
        let mut cursor = std::io::Cursor::new(&buf);
        let mut got = Vec::new();
        while let Some((v, _)) = read_u64_from(&mut cursor).unwrap() {
            got.push(v);
        }
        assert_eq!(got, vec![0, 127, 128, 16384, u64::MAX]);
        // Clean EOF at a boundary is None; EOF mid-varint is an error.
        assert!(read_u64_from(&mut std::io::Cursor::new(&[] as &[u8]))
            .unwrap()
            .is_none());
        assert!(read_u64_from(&mut std::io::Cursor::new(&[0x80u8][..])).is_err());
        assert!(read_u64_from(&mut std::io::Cursor::new(&[0x80u8; 11][..])).is_err());
    }

    #[test]
    fn decode_ignores_trailing_bytes() {
        let mut buf = Vec::new();
        encode_u64(5, &mut buf);
        buf.extend_from_slice(&[0xde, 0xad]);
        let (v, n) = decode_u64(&buf).unwrap();
        assert_eq!((v, n), (5, 1));
    }
}
