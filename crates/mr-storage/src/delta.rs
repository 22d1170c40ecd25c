//! Delta-compressed sequence files (paper §2.1, App. D Table 5).
//!
//! "Delta-compression efficiently stores runs of numeric values, by only
//! keeping differences between values, instead of the absolute values.
//! Storing just small deltas, when combined with a size-sensitive
//! representation, can yield large storage savings. Standard MapReduce
//! cannot apply this technique: the system must know which bytes are in
//! the same field and are numeric."
//!
//! The header records which fields are delta-encoded; those fields are
//! written as zig-zag varint differences against the previous record's
//! value, all other fields use the normal row codec.
//!
//! Delta state **restarts at block boundaries** (every
//! [`BLOCK_RECORDS`] records the first record is stored with absolute
//! values), and the footer carries a block index — so delta files
//! support input splits just like sequence files, at the cost of one
//! absolute value per block per field. The blocks are the sequence
//! file's blocks, so a build can encode them apart
//! ([`DeltaBlockEncoder`]) and append them in order.
//!
//! # Example
//!
//! Monotone timestamps shrink to one-byte deltas and read back
//! exactly:
//!
//! ```
//! use std::sync::Arc;
//! use mr_ir::record::record;
//! use mr_ir::schema::{FieldType, Schema};
//! use mr_storage::delta::{DeltaFileReader, DeltaFileWriter};
//!
//! let schema = Schema::new("T", vec![("ts", FieldType::Long)]).into_arc();
//! let path = std::env::temp_dir().join(format!("delta-doc-{}", std::process::id()));
//! let mut w = DeltaFileWriter::create(&path, Arc::clone(&schema), &["ts".into()])?;
//! for i in 0..1000i64 {
//!     w.append(&record(&schema, vec![(1_600_000_000 + i).into()]))?;
//! }
//! let (records, bytes) = w.finish()?;
//! assert_eq!(records, 1000);
//! assert!(bytes < 1000 * 8, "well under the fixed-width encoding");
//!
//! let first = DeltaFileReader::open(&path)?.next().unwrap()?;
//! assert_eq!(first.get("ts").unwrap().as_int(), Some(1_600_000_000));
//! # std::fs::remove_file(&path).ok();
//! # Ok::<(), mr_storage::StorageError>(())
//! ```

use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use mr_ir::record::Record;
use mr_ir::schema::{FieldType, Schema};
use mr_ir::value::Value;

use crate::blockindex::{self, BlockEncoder, BlockRows, BLOCK_RECORDS};
use crate::error::{Result, StorageError};
use crate::rowcodec::{decode_schema, encode_schema, FieldBinding};
use crate::varint::{decode_i64, decode_u64, encode_i64, encode_u64};

const MAGIC: &[u8; 5] = b"MRDL1";

/// Upper bound on a single serialized row; beyond this is corruption.
const MAX_ROW_LEN: u64 = 1 << 30;

/// Encodes delta-file rows one block at a time; delta state starts
/// afresh with every block. Like [`SeqBlockEncoder`], it reads records
/// of a source schema and stores the fields of the file's schema, a
/// projection of it.
///
/// [`SeqBlockEncoder`]: crate::seqfile::SeqBlockEncoder
pub struct DeltaBlockEncoder {
    /// The stored schema; a private copy, so encoders on different
    /// threads share nothing.
    schema: Schema,
    binding: FieldBinding,
    /// Per stored field: delta-encoded?
    is_delta: Vec<bool>,
    /// Previous values of delta fields (by stored field index).
    prev: Vec<i64>,
    block: BlockRows,
}

impl DeltaBlockEncoder {
    fn new(schema: &Schema, is_delta: Vec<bool>, binding: FieldBinding) -> DeltaBlockEncoder {
        DeltaBlockEncoder {
            schema: schema.clone(),
            binding,
            prev: vec![0; is_delta.len()],
            is_delta,
            block: BlockRows::default(),
        }
    }
}

impl BlockEncoder for DeltaBlockEncoder {
    fn push(&mut self, record: &Record) -> Result<()> {
        let row = self.block.start_row();
        let values = self.binding.values(record)?;
        for (i, (fd, v)) in self.schema.fields().iter().zip(values).enumerate() {
            if self.is_delta[i] {
                let cur = v.as_int().ok_or_else(|| {
                    StorageError::Schema(format!("field `{}` not an int", fd.name))
                })?;
                encode_i64(cur.wrapping_sub(self.prev[i]), row);
                self.prev[i] = cur;
            } else {
                crate::rowcodec::encode_field(fd.ty, v, &fd.name, row)?;
            }
        }
        self.block.commit_row();
        Ok(())
    }

    fn finish_block(&mut self) -> (Vec<u8>, u64) {
        // The next block decodes independently: deltas restart from 0.
        self.prev.fill(0);
        self.block.take()
    }
}

/// Writes a delta-compressed file.
pub struct DeltaFileWriter {
    out: BufWriter<File>,
    /// The block being filled by [`append`](Self::append).
    pending: DeltaBlockEncoder,
    count: u64,
    bytes_written: u64,
    /// Block index: (byte offset, records before block).
    blocks: Vec<(u64, u64)>,
}

impl DeltaFileWriter {
    /// Create the file; `delta_fields` names the integer fields to
    /// delta-encode (the analyzer's [`DeltaDescriptor`] fields).
    ///
    /// [`DeltaDescriptor`]: https://docs.rs/mr-analysis
    pub fn create(
        path: impl AsRef<Path>,
        schema: Arc<Schema>,
        delta_fields: &[String],
    ) -> Result<DeltaFileWriter> {
        for name in delta_fields {
            match schema.field(name) {
                None => {
                    return Err(StorageError::Schema(format!(
                        "delta field `{name}` not in schema"
                    )))
                }
                Some(fd) if !matches!(fd.ty, FieldType::Int | FieldType::Long) => {
                    return Err(StorageError::Schema(format!(
                        "delta field `{name}` is not an integer type"
                    )))
                }
                _ => {}
            }
        }
        let is_delta: Vec<bool> = schema
            .fields()
            .iter()
            .map(|f| delta_fields.iter().any(|d| d == &f.name))
            .collect();
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(MAGIC)?;
        let mut header = Vec::new();
        encode_schema(&schema, &mut header);
        encode_u64(is_delta.len() as u64, &mut header);
        for &d in &is_delta {
            header.push(d as u8);
        }
        let mut lenbuf = Vec::new();
        encode_u64(header.len() as u64, &mut lenbuf);
        out.write_all(&lenbuf)?;
        out.write_all(&header)?;
        let bytes_written = (5 + lenbuf.len() + header.len()) as u64;
        Ok(DeltaFileWriter {
            out,
            pending: DeltaBlockEncoder::new(&schema, is_delta, FieldBinding::identity(&schema)),
            count: 0,
            bytes_written,
            blocks: Vec::new(),
        })
    }

    /// Append a record.
    pub fn append(&mut self, record: &Record) -> Result<()> {
        self.pending.push(record)?;
        if self.pending.block.records == BLOCK_RECORDS {
            self.write_pending()?;
        }
        Ok(())
    }

    /// An encoder for this file's blocks, reading records of `source`:
    /// this file's schema, or one it is a projection of.
    pub fn block_encoder(&self, source: &Schema) -> Result<DeltaBlockEncoder> {
        let stored = &self.pending.schema;
        let binding = FieldBinding::projecting(stored, source)?;
        Ok(DeltaBlockEncoder::new(
            stored,
            self.pending.is_delta.clone(),
            binding,
        ))
    }

    /// Append one whole block encoded by a [`block_encoder`]: `rows`
    /// holds `records` rows. Blocks keep the shared grid, so every
    /// block but the last must be full and no [`append`]ed records may
    /// be pending.
    ///
    /// [`block_encoder`]: Self::block_encoder
    /// [`append`]: Self::append
    pub fn append_block(&mut self, rows: &[u8], records: u64) -> Result<()> {
        if self.pending.block.records > 0 {
            return Err(StorageError::corrupt(
                "deltafile",
                "a block appended after a partial one",
            ));
        }
        self.write_block(rows, records)
    }

    fn write_pending(&mut self) -> Result<()> {
        match self.pending.finish_block() {
            (_, 0) => Ok(()),
            (rows, records) => self.write_block(&rows, records),
        }
    }

    fn write_block(&mut self, rows: &[u8], records: u64) -> Result<()> {
        blockindex::check_append("deltafile", self.count, records)?;
        self.blocks.push((self.bytes_written, self.count));
        self.out.write_all(rows)?;
        self.bytes_written += rows.len() as u64;
        self.count += records;
        Ok(())
    }

    /// Flush; returns (records, bytes written).
    pub fn finish(mut self) -> Result<(u64, u64)> {
        self.write_pending()?;
        let mut footer = Vec::new();
        encode_u64(self.count, &mut footer);
        blockindex::encode(&self.blocks, &mut footer);
        self.out.write_all(&footer)?;
        self.out.write_all(&(footer.len() as u64).to_le_bytes())?;
        self.out.flush()?;
        Ok((self.count, self.bytes_written))
    }
}

/// Parsed metadata of a delta file, for split planning.
#[derive(Debug, Clone)]
pub struct DeltaFileMeta {
    path: std::path::PathBuf,
    schema: Arc<Schema>,
    is_delta: Vec<bool>,
    /// Total records.
    pub record_count: u64,
    /// Block index: (byte offset, records before).
    pub blocks: Vec<(u64, u64)>,
}

impl DeltaFileMeta {
    /// Open and parse header and footer.
    pub fn open(path: impl AsRef<Path>) -> Result<DeltaFileMeta> {
        use std::io::{Seek, SeekFrom};

        let path_buf = path.as_ref().to_path_buf();
        // Footer: [varint record_count][block index][footer_len u64 LE].
        let mut tail = File::open(&path_buf)?;
        let file_size = tail.metadata()?.len();
        if file_size < 13 {
            return Err(StorageError::corrupt("deltafile", "too small"));
        }
        tail.seek(SeekFrom::End(-8))?;
        let mut lenbuf = [0u8; 8];
        tail.read_exact(&mut lenbuf)?;
        let footer_len = u64::from_le_bytes(lenbuf);
        if footer_len > file_size - 8 {
            return Err(StorageError::corrupt("deltafile", "bad footer length"));
        }
        tail.seek(SeekFrom::End(-8 - footer_len as i64))?;
        let mut footer = vec![0u8; footer_len as usize];
        tail.read_exact(&mut footer)?;
        let (record_count, n) = decode_u64(&footer)?;
        let (blocks, _) = blockindex::decode(&footer[n..])?;

        let mut input = BufReader::new(File::open(&path_buf)?);
        let mut magic = [0u8; 5];
        input.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(StorageError::corrupt("deltafile", "bad magic"));
        }
        let (header_len, len_bytes) = read_varint(&mut input)?;
        if header_len > MAX_ROW_LEN {
            return Err(StorageError::corrupt(
                "deltafile",
                "header implausibly large",
            ));
        }
        let mut header = vec![0u8; header_len as usize];
        input.read_exact(&mut header)?;
        let (schema, used) = decode_schema(&header)?;
        let mut pos = used;
        let (nflags, n) = decode_u64(&header[pos..])?;
        pos += n;
        if nflags as usize != schema.len() {
            return Err(StorageError::corrupt(
                "deltafile",
                "flag count does not match schema",
            ));
        }
        let mut is_delta = Vec::with_capacity(nflags as usize);
        for i in 0..nflags as usize {
            is_delta.push(
                *header
                    .get(pos + i)
                    .ok_or_else(|| StorageError::corrupt("deltafile", "truncated flags"))?
                    != 0,
            );
        }
        // Readers restart delta state every `BLOCK_RECORDS` records of
        // a split, so a split may start only on the grid.
        let rows = (5 + len_bytes as u64 + header_len)..(file_size - 8 - footer_len);
        blockindex::check("deltafile", &blocks, record_count, rows)?;
        if !blockindex::on_grid(&blocks, record_count) {
            return Err(StorageError::corrupt(
                "deltafile",
                "block index off the grid",
            ));
        }
        Ok(DeltaFileMeta {
            path: path_buf,
            schema: Arc::new(schema),
            is_delta,
            record_count,
            blocks,
        })
    }

    /// The record schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Cut the file into at most `n` splits along block boundaries.
    pub fn splits(&self, n: usize) -> Vec<(u64, u64, u64)> {
        // (byte offset, records before, records in split)
        blockindex::splits(&self.blocks, self.record_count, n)
    }

    /// Read one split: `(offset, records_before, records)` from
    /// [`DeltaFileMeta::splits`]. `records_before` must be a block
    /// boundary (delta state restarts there).
    pub fn read_split(&self, offset: u64, records: u64) -> Result<DeltaFileReader> {
        use std::io::{Seek, SeekFrom};
        let mut input = BufReader::new(File::open(&self.path)?);
        input.seek(SeekFrom::Start(offset))?;
        Ok(DeltaFileReader {
            input,
            // A copy of its own, not a handle on the meta's: every
            // record a reader yields clones this `Arc`, and readers of
            // different splits run on different threads — sharing one
            // reference count made them fight over its cache line.
            schema: Arc::new(Schema::clone(&self.schema)),
            is_delta: self.is_delta.clone(),
            prev: vec![0; self.schema.len()],
            remaining: records,
            produced: 0,
            bytes_read: 0,
            buf: Vec::new(),
        })
    }

    /// Read the whole file.
    pub fn read_all(&self) -> Result<DeltaFileReader> {
        match self.blocks.first() {
            Some(&(offset, _)) => self.read_split(offset, self.record_count),
            None => self.read_split(0, 0), // empty file
        }
    }
}

/// Reads one split of a delta file.
pub struct DeltaFileReader {
    input: BufReader<File>,
    schema: Arc<Schema>,
    is_delta: Vec<bool>,
    prev: Vec<i64>,
    remaining: u64,
    /// Records produced so far in this split (for block-boundary
    /// resets).
    produced: u64,
    bytes_read: u64,
    buf: Vec<u8>,
}

impl DeltaFileReader {
    /// Open a delta file for a full sequential read.
    pub fn open(path: impl AsRef<Path>) -> Result<DeltaFileReader> {
        DeltaFileMeta::open(path)?.read_all()
    }

    /// The record schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Bytes consumed so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    fn read_one(&mut self) -> Result<Option<Record>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        if self.produced.is_multiple_of(BLOCK_RECORDS) {
            // Block boundary: the writer restarted delta state here.
            for p in &mut self.prev {
                *p = 0;
            }
        }
        let (len, len_bytes) = read_varint(&mut self.input)?;
        if len > MAX_ROW_LEN {
            return Err(StorageError::corrupt(
                "deltafile",
                "row length implausibly large",
            ));
        }
        self.buf.resize(len as usize, 0);
        self.input.read_exact(&mut self.buf)?;
        self.bytes_read += len_bytes as u64 + len;
        self.remaining -= 1;
        self.produced += 1;

        let mut pos = 0usize;
        let mut values = Vec::with_capacity(self.schema.len());
        // Clone the field list handle so `self.prev` can be borrowed
        // mutably in the loop.
        let schema = Arc::clone(&self.schema);
        for (i, fd) in schema.fields().iter().enumerate() {
            if self.is_delta[i] {
                let (d, n) = decode_i64(&self.buf[pos..])?;
                pos += n;
                let cur = self.prev[i].wrapping_add(d);
                self.prev[i] = cur;
                values.push(Value::Int(cur));
            } else {
                let (v, n) = crate::rowcodec::decode_field(fd.ty, &self.buf[pos..])?;
                pos += n;
                values.push(v);
            }
        }
        if pos != self.buf.len() {
            return Err(StorageError::corrupt("deltafile", "row length mismatch"));
        }
        let record = Record::new(Arc::clone(&self.schema), values)
            .map_err(|e| StorageError::Schema(e.to_string()))?;
        Ok(Some(record))
    }
}

impl Iterator for DeltaFileReader {
    type Item = Result<Record>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read_one().transpose()
    }
}

fn read_varint(input: &mut BufReader<File>) -> Result<(u64, usize)> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    let mut n = 0usize;
    loop {
        let mut b = [0u8; 1];
        input.read_exact(&mut b)?;
        n += 1;
        v |= ((b[0] & 0x7f) as u64) << shift;
        if b[0] & 0x80 == 0 {
            return Ok((v, n));
        }
        shift += 7;
        if shift >= 64 {
            return Err(StorageError::corrupt("varint", "overlong"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_ir::record::record;
    use std::path::PathBuf;

    fn uservisits() -> Arc<Schema> {
        Schema::new(
            "UserVisits",
            vec![
                ("destURL", FieldType::Str),
                ("visitDate", FieldType::Long),
                ("adRevenue", FieldType::Int),
                ("duration", FieldType::Int),
            ],
        )
        .into_arc()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mr-delta-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn visits(s: &Arc<Schema>, n: i64) -> Vec<Record> {
        (0..n)
            .map(|i| {
                record(
                    s,
                    vec![
                        format!("http://d/{}", i % 7).into(),
                        Value::Int(1_600_000_000 + i * 60),
                        Value::Int(100 + (i % 5)),
                        Value::Int(30 + (i % 10)),
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn roundtrip_with_deltas() {
        let s = uservisits();
        let path = tmp("roundtrip");
        let records = visits(&s, 500);
        let mut w = DeltaFileWriter::create(
            &path,
            Arc::clone(&s),
            &["visitDate".into(), "adRevenue".into(), "duration".into()],
        )
        .unwrap();
        for r in &records {
            w.append(r).unwrap();
        }
        let (n, _bytes) = w.finish().unwrap();
        assert_eq!(n, 500);
        let back: Vec<Record> = DeltaFileReader::open(&path)
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(back, records);
    }

    #[test]
    fn delta_encoding_saves_space_on_monotone_values() {
        let s = Schema::new("T", vec![("ts", FieldType::Long)]).into_arc();
        let records: Vec<Record> = (0..2000)
            .map(|i| record(&s, vec![Value::Int(1_600_000_000_000 + i)]))
            .collect();

        let plain_path = tmp("plain");
        let mut w = DeltaFileWriter::create(&plain_path, Arc::clone(&s), &[]).unwrap();
        for r in &records {
            w.append(r).unwrap();
        }
        let (_, plain_bytes) = w.finish().unwrap();

        let delta_path = tmp("delta");
        let mut w = DeltaFileWriter::create(&delta_path, Arc::clone(&s), &["ts".into()]).unwrap();
        for r in &records {
            w.append(r).unwrap();
        }
        let (_, delta_bytes) = w.finish().unwrap();
        assert!(
            delta_bytes * 2 < plain_bytes,
            "delta {delta_bytes} vs plain {plain_bytes}"
        );
    }

    #[test]
    fn negative_deltas_roundtrip() {
        let s = Schema::new("T", vec![("v", FieldType::Int)]).into_arc();
        let values = [100i64, 50, 200, -7, i64::MAX, i64::MIN, 0];
        let path = tmp("neg");
        let mut w = DeltaFileWriter::create(&path, Arc::clone(&s), &["v".into()]).unwrap();
        for &v in &values {
            w.append(&record(&s, vec![Value::Int(v)])).unwrap();
        }
        w.finish().unwrap();
        let back: Vec<i64> = DeltaFileReader::open(&path)
            .unwrap()
            .map(|r| r.unwrap().get("v").unwrap().as_int().unwrap())
            .collect();
        assert_eq!(back, values);
    }

    #[test]
    fn unknown_delta_field_rejected() {
        let s = uservisits();
        assert!(DeltaFileWriter::create(tmp("bad1"), s.clone(), &["nope".into()]).is_err());
        assert!(
            DeltaFileWriter::create(tmp("bad2"), s, &["destURL".into()]).is_err(),
            "string fields cannot delta-encode"
        );
    }

    #[test]
    fn empty_file() {
        let s = uservisits();
        let path = tmp("empty");
        let w = DeltaFileWriter::create(&path, Arc::clone(&s), &["duration".into()]).unwrap();
        w.finish().unwrap();
        assert_eq!(DeltaFileReader::open(&path).unwrap().count(), 0);
    }

    #[test]
    fn bytes_read_tracked() {
        let s = uservisits();
        let path = tmp("bytes");
        let mut w = DeltaFileWriter::create(&path, Arc::clone(&s), &["duration".into()]).unwrap();
        for r in visits(&s, 10) {
            w.append(&r).unwrap();
        }
        w.finish().unwrap();
        let mut rd = DeltaFileReader::open(&path).unwrap();
        while rd.next().is_some() {}
        assert!(rd.bytes_read() > 0);
    }
}

#[cfg(test)]
mod split_tests {
    use super::*;
    use mr_ir::record::record;
    use std::sync::Arc;

    /// A split starting off the grid would restart deltas at the wrong
    /// record, so `open` refuses an index that is valid but off it.
    #[test]
    fn off_grid_block_index_is_corrupt() {
        let s = Schema::new("T", vec![("v", FieldType::Long)]).into_arc();
        let path = std::env::temp_dir()
            .join("mr-delta-tests")
            .join(format!("off-grid-{}", std::process::id()));
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let mut w = DeltaFileWriter::create(&path, Arc::clone(&s), &["v".into()]).unwrap();
        for i in 0..BLOCK_RECORDS as i64 + 1 {
            w.append(&record(&s, vec![Value::Int(i)])).unwrap();
        }
        w.finish().unwrap();
        let meta = DeltaFileMeta::open(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let footer_len = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        let mut forged = bytes[..bytes.len() - 8 - footer_len as usize].to_vec();
        let mut footer = Vec::new();
        encode_u64(meta.record_count, &mut footer);
        // The second block's offset, claimed to start at record 4000.
        blockindex::encode(&[meta.blocks[0], (meta.blocks[1].0, 4000)], &mut footer);
        forged.extend_from_slice(&footer);
        forged.extend_from_slice(&(footer.len() as u64).to_le_bytes());
        std::fs::write(&path, forged).unwrap();
        let r = DeltaFileMeta::open(&path);
        assert!(matches!(r, Err(StorageError::Corrupt { .. })), "{r:?}");
    }

    #[test]
    fn splits_cover_all_records_with_correct_values() {
        let s = Schema::new("T", vec![("v", FieldType::Long)]).into_arc();
        let path = std::env::temp_dir()
            .join("mr-delta-tests")
            .join(format!("splits-{}", std::process::id()));
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let n = (BLOCK_RECORDS * 2 + 500) as i64;
        let mut w = DeltaFileWriter::create(&path, Arc::clone(&s), &["v".into()]).unwrap();
        for i in 0..n {
            w.append(&record(&s, vec![Value::Int(1_000_000 + i)]))
                .unwrap();
        }
        w.finish().unwrap();

        let meta = DeltaFileMeta::open(&path).unwrap();
        assert_eq!(meta.record_count, n as u64);
        assert_eq!(meta.blocks.len(), 3);
        for nsplits in [1usize, 2, 3, 5] {
            let splits = meta.splits(nsplits);
            let mut seen = Vec::new();
            for (off, _before, records) in splits {
                for r in meta.read_split(off, records).unwrap() {
                    seen.push(r.unwrap().get("v").unwrap().as_int().unwrap());
                }
            }
            seen.sort_unstable();
            assert_eq!(seen.len(), n as usize, "nsplits={nsplits}");
            assert_eq!(seen[0], 1_000_000);
            assert_eq!(seen[n as usize - 1], 1_000_000 + n - 1);
        }
    }
}
