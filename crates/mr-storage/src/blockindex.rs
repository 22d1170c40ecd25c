//! The sparse block index of the row file.
//!
//! A sequence file — plain, projected or with encoded fields — cuts its
//! row region into blocks of [`BLOCK_RECORDS`] records and lists each
//! block's `(byte offset, records before)` in its footer. Input splits
//! follow those blocks. Because every file uses the same grid, block
//! *i* of an input holds exactly the records of block *i* of any
//! artifact built from it: an index build can encode blocks apart, on
//! as many threads as it likes, and append them in order through the
//! writer's `append_block`.
//!
//! A footer is input from outside the program, so `open` validates the
//! index before any split is cut from it.

use std::ops::Range;

use mr_ir::record::Record;

use crate::error::{Result, StorageError};
use crate::varint::{capacity_for, decode_u64, encode_u64};

/// Records per sparse-index block, in every row file.
pub const BLOCK_RECORDS: u64 = 4096;

/// Encodes a row file's rows one block at a time, so that blocks can
/// be encoded apart and appended in order with the file writer's
/// `append_block`. The writer's own per-record `append` runs the same
/// encoder, so both paths produce the same bytes.
pub trait BlockEncoder: Send {
    /// Encode one more row into the open block.
    fn push(&mut self, record: &Record) -> Result<()>;

    /// Close the open block: its encoded rows and their count. The
    /// next [`push`](Self::push) starts a new block with fresh state.
    fn finish_block(&mut self) -> (Vec<u8>, u64);
}

/// The encoded rows of an encoder's open block: each row is built in a
/// scratch buffer, then committed length-prefixed
/// (`varint row_len, row`), the row file's framing.
#[derive(Default)]
pub(crate) struct BlockRows {
    row: Vec<u8>,
    rows: Vec<u8>,
    /// Rows committed to the open block.
    pub(crate) records: u64,
}

impl BlockRows {
    /// The scratch buffer, emptied, for the next row's fields.
    pub(crate) fn start_row(&mut self) -> &mut Vec<u8> {
        self.row.clear();
        &mut self.row
    }

    /// Commit the row built since [`start_row`](Self::start_row).
    pub(crate) fn commit_row(&mut self) {
        encode_u64(self.row.len() as u64, &mut self.rows);
        self.rows.extend_from_slice(&self.row);
        self.records += 1;
    }

    /// Close the block: its rows and their count.
    pub(crate) fn take(&mut self) -> (Vec<u8>, u64) {
        let next = Vec::with_capacity(self.rows.capacity());
        (
            std::mem::replace(&mut self.rows, next),
            std::mem::take(&mut self.records),
        )
    }
}

/// Append the footer encoding of `blocks`:
/// `varint n_blocks, n_blocks × (varint offset, varint before)`.
pub(crate) fn encode(blocks: &[(u64, u64)], out: &mut Vec<u8>) {
    encode_u64(blocks.len() as u64, out);
    for &(offset, before) in blocks {
        encode_u64(offset, out);
        encode_u64(before, out);
    }
}

/// Decode a block index from the front of `buf`; returns it and the
/// bytes consumed.
pub(crate) fn decode(buf: &[u8]) -> Result<(Vec<(u64, u64)>, usize)> {
    let (n_blocks, mut pos) = decode_u64(buf)?;
    let mut blocks = Vec::with_capacity(capacity_for(n_blocks, buf.len() - pos));
    for _ in 0..n_blocks {
        let (offset, n) = decode_u64(&buf[pos..])?;
        pos += n;
        let (before, n) = decode_u64(&buf[pos..])?;
        pos += n;
        blocks.push((offset, before));
    }
    Ok((blocks, pos))
}

/// Validate a footer's block index against its file. An empty file has
/// no blocks. Otherwise the first block starts the row region at record
/// 0, offsets and record counts strictly increase, and every block
/// starts inside the row region `rows` and before `record_count`.
/// Anything else is [`StorageError::Corrupt`] in `context`.
pub(crate) fn check(
    context: &str,
    blocks: &[(u64, u64)],
    record_count: u64,
    rows: Range<u64>,
) -> Result<()> {
    let corrupt = |detail: &str| Err(StorageError::corrupt(context, detail));
    let Some(&(first_offset, first_before)) = blocks.first() else {
        return match record_count {
            0 => Ok(()),
            _ => corrupt("records but no block index"),
        };
    };
    if record_count == 0 {
        return corrupt("block index in an empty file");
    }
    if first_before != 0 || first_offset != rows.start {
        return corrupt("first block does not start the rows");
    }
    if blocks
        .windows(2)
        .any(|w| w[1].0 <= w[0].0 || w[1].1 <= w[0].1)
    {
        return corrupt("block index not increasing");
    }
    let &(last_offset, last_before) = blocks.last().expect("non-empty");
    if last_offset >= rows.end || last_before >= record_count {
        return corrupt("block past the end of the rows");
    }
    Ok(())
}

/// Whether a (checked) block index lies on the shared grid: block *i*
/// starts at record `i × BLOCK_RECORDS` and holds at most
/// [`BLOCK_RECORDS`] records.
pub fn on_grid(blocks: &[(u64, u64)], record_count: u64) -> bool {
    blocks.len() as u64 == record_count.div_ceil(BLOCK_RECORDS)
        && (blocks.iter().enumerate()).all(|(i, &(_, before))| before == i as u64 * BLOCK_RECORDS)
}

/// Guard for a writer about to append a block of `records` rows after
/// `count` rows: the block must start on the grid and fit in it.
pub(crate) fn check_append(context: &str, count: u64, records: u64) -> Result<()> {
    if !count.is_multiple_of(BLOCK_RECORDS) || !(1..=BLOCK_RECORDS).contains(&records) {
        return Err(StorageError::corrupt(
            context,
            format!(
                "a block of {records} records after {count} is off the {BLOCK_RECORDS}-record grid"
            ),
        ));
    }
    Ok(())
}

/// Cut a (checked) block index into at most `n` splits along block
/// boundaries: `(byte offset, records before, records)` each.
pub(crate) fn splits(blocks: &[(u64, u64)], record_count: u64, n: usize) -> Vec<(u64, u64, u64)> {
    if record_count == 0 || n == 0 {
        return vec![];
    }
    let per_split = record_count.div_ceil(n as u64).max(1);
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < blocks.len() {
        let (offset, before) = blocks[i];
        // Advance until this split holds >= per_split records.
        let mut j = i + 1;
        while j < blocks.len() && blocks[j].1 - before < per_split {
            j += 1;
        }
        let end = blocks.get(j).map_or(record_count, |&(_, b)| b);
        out.push((offset, before, end - before));
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROWS: Range<u64> = 100..10_000;

    fn checked(blocks: &[(u64, u64)], record_count: u64) -> Result<()> {
        check("test", blocks, record_count, ROWS)
    }

    #[test]
    fn written_indexes_pass() {
        checked(&[], 0).unwrap();
        checked(&[(100, 0)], 1).unwrap();
        checked(&[(100, 0), (5000, 4096), (9000, 8192)], 8200).unwrap();
        let mut buf = Vec::new();
        let blocks = vec![(100, 0), (5000, 4096)];
        encode(&blocks, &mut buf);
        assert_eq!(decode(&buf).unwrap(), (blocks, buf.len()));
    }

    /// One forged index per rule; each is typed corruption, never a
    /// panic or a split with a wrapped record count.
    #[test]
    fn forged_indexes_are_corrupt() {
        for (rule, blocks, record_count) in [
            ("records without blocks", vec![], 10),
            ("blocks without records", vec![(100, 0)], 0),
            ("first block past record 0", vec![(100, 1)], 10),
            ("first block not at the rows", vec![(101, 0)], 10),
            ("offsets not increasing", vec![(100, 0), (100, 5)], 10),
            ("records not increasing", vec![(100, 0), (200, 0)], 10),
            ("records decreasing", vec![(100, 0), (200, 6), (300, 5)], 10),
            ("record past the count", vec![(100, 0), (200, 10)], 10),
            ("offset past the rows", vec![(100, 0), (10_000, 5)], 10),
        ] {
            let r = checked(&blocks, record_count);
            assert!(
                matches!(r, Err(StorageError::Corrupt { .. })),
                "{rule}: {r:?}"
            );
        }
    }

    #[test]
    fn grid() {
        let b = BLOCK_RECORDS;
        assert!(on_grid(&[], 0));
        assert!(on_grid(&[(0, 0)], b));
        assert!(on_grid(&[(0, 0), (9, b)], b + 1));
        assert!(!on_grid(&[(0, 0)], b + 1), "an oversized block");
        assert!(!on_grid(&[(0, 0), (9, 100)], 200), "a block off the grid");
        assert!(!on_grid(&[(0, 0), (9, b)], b), "an empty trailing block");
        check_append("test", 0, b).unwrap();
        check_append("test", b, 1).unwrap();
        assert!(check_append("test", 100, 1).is_err());
        assert!(check_append("test", 0, b + 1).is_err());
        assert!(check_append("test", 0, 0).is_err());
    }
}
