//! Lower-case hexadecimal text for binary payloads: how the catalog,
//! the task wire and the service protocol carry rowcodec bytes inside
//! JSON strings. Both directions are table lookups, one byte at a
//! time; decoding accepts either case and rejects anything else as
//! [`StorageError::Corrupt`].
//!
//! ```
//! use mr_storage::hex;
//!
//! assert_eq!(hex::encode(&[0x00, 0xab, 0x7f]), "00ab7f");
//! assert_eq!(hex::decode("00AB7f")?, vec![0x00, 0xab, 0x7f]);
//! assert!(hex::decode("abc").is_err());
//! # Ok::<(), mr_storage::StorageError>(())
//! ```

use crate::error::{Result, StorageError};

const DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Marks a byte that is not a hex digit in [`VALUES`].
const NOT_HEX: u8 = 0xff;

/// The value of each ASCII hex digit, [`NOT_HEX`] for every other byte.
const VALUES: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0u8;
    while i < 16 {
        table[DIGITS[i as usize] as usize] = i;
        table[DIGITS[i as usize].to_ascii_uppercase() as usize] = i;
        i += 1;
    }
    table
};

/// The lower-case hex form of `bytes`, two digits per byte.
pub fn encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0x0f) as usize] as char);
    }
    out
}

/// The bytes `text` spells, two hex digits per byte. Odd lengths and
/// non-hex characters are [`StorageError::Corrupt`].
pub fn decode(text: &str) -> Result<Vec<u8>> {
    let text = text.as_bytes();
    if !text.len().is_multiple_of(2) {
        return Err(StorageError::corrupt("hex", "odd-length hex string"));
    }
    text.chunks_exact(2)
        .map(|pair| {
            let (hi, lo) = (VALUES[pair[0] as usize], VALUES[pair[1] as usize]);
            if hi == NOT_HEX || lo == NOT_HEX {
                return Err(StorageError::corrupt("hex", "non-hex digit"));
            }
            Ok(hi << 4 | lo)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_byte_round_trips() {
        let all: Vec<u8> = (0..=255).collect();
        let text = encode(&all);
        assert_eq!(text.len(), 512);
        assert_eq!(decode(&text).unwrap(), all);
        assert_eq!(decode(&text.to_uppercase()).unwrap(), all);
        assert_eq!(encode(&[]), "");
    }

    #[test]
    fn odd_lengths_and_non_hex_digits_are_corrupt() {
        for bad in ["a", "abc", "zz", "0g", "g0", "+f", " 0", "é0", "00\n"] {
            let err = decode(bad).unwrap_err();
            assert!(
                matches!(err, StorageError::Corrupt { .. }),
                "{bad:?}: {err}"
            );
        }
    }
}
