//! Sequence files: the baseline on-disk format, and the one row file
//! every row artifact is.
//!
//! A sequence file is what "standard Hadoop" reads in every experiment:
//! a header carrying the record schema ("the code that serializes and
//! deserializes these classes effectively declares the file's schema"),
//! followed by length-prefixed binary rows, followed by a sparse block
//! footer that lets the execution fabric cut the file into input splits
//! without scanning it.
//!
//! Layout (uncompressed, magic `MRSQ1`):
//!
//! ```text
//! magic "MRSQ1"
//! varint header_len, header = encode_schema(schema)
//! [varint row_len, row_bytes]*            ← the data
//! footer: varint n_blocks, n_blocks × (varint offset, varint count)
//!         varint record_count, footer_len u64 LE, magic "MRSQF"
//! ```
//!
//! The block-compressed variant (magic `MRSQ2`) inserts a codec byte
//! after the magic and routes the row stream — only the row stream;
//! header and footer stay raw — through the
//! [`blockcodec`](crate::blockcodec) frame layer. The writer forces a
//! frame boundary at every sparse-index block, so the footer's byte
//! offsets land on frame starts and input splits seek exactly as they
//! do in the uncompressed format. Readers pick the variant from the
//! magic; callers never declare it.
//!
//! # Encoded fields
//!
//! The paper's delta (§2.1, App. D Table 5) and direct-operation
//! (Table 6) layouts are per-field encodings of the same rows. A file
//! with an encoded field has magic `MRSQ3`, always followed by the codec
//! byte (0: rows unframed), and one encoding byte per field after the
//! header's schema: `0` plain, `1` delta, `2` dict.
//!
//! * A *delta* field (`Int`/`Long`) is the zig-zag varint difference
//!   from the previous record's value. Delta state restarts from 0 at
//!   every [`BLOCK_RECORDS`]-record block, so every block is a split.
//! * A *dict* field (`Str`) is the zig-zag varint of a dense code,
//!   assigned in first-seen order across the whole file. Readers yield
//!   the code itself, as a `Long` of a `<name>#dict` schema: "destURL is
//!   implemented as an integer instead of a String". The footer carries
//!   each dict field's strings in code order after the record count, so
//!   the optimizer can rewrite string constants into codes
//!   ([`SeqFileMeta::dictionary`]).
//!
//! Plain files never carry the new magic: without an encoded field the
//! writer emits `MRSQ1`/`MRSQ2` byte for byte.
//!
//! ```
//! use std::sync::Arc;
//! use mr_ir::record::record;
//! use mr_ir::schema::{FieldType, Schema};
//! use mr_storage::{ShuffleCompression, SeqFileReader, SeqFileWriter};
//!
//! let schema = Schema::new("T", vec![("ts", FieldType::Long)]).into_arc();
//! let path = std::env::temp_dir().join(format!("delta-doc-{}", std::process::id()));
//! let none = ShuffleCompression::None;
//! let mut w = SeqFileWriter::create_encoded(&path, Arc::clone(&schema), none, &["ts".into()], &[])?;
//! for i in 0..1000i64 {
//!     w.append(&record(&schema, vec![(1_600_000_000 + i).into()]))?;
//! }
//! assert_eq!(w.finish()?, 1000);
//! let bytes = std::fs::metadata(&path)?.len();
//! assert!(bytes < 1000 * 8, "well under the fixed-width encoding");
//!
//! let first = SeqFileReader::open(&path)?.next().unwrap()?;
//! assert_eq!(first.get("ts").unwrap().as_int(), Some(1_600_000_000));
//! # std::fs::remove_file(&path).ok();
//! # Ok::<(), mr_storage::StorageError>(())
//! ```

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mr_ir::record::Record;
use mr_ir::schema::{FieldDef, FieldType, Schema};
use mr_ir::value::Value;

use crate::blockcodec::{BlockReader, BlockWriter, ShuffleCompression};
use crate::blockindex::{self, BlockEncoder, BlockRows, BLOCK_RECORDS};
use crate::error::{Result, StorageError};
use crate::fault::{IoFaults, IoSite};
use crate::rowcodec::{
    decode_field, decode_row, decode_schema, encode_field, encode_schema, FieldBinding,
};
use crate::varint::{
    capacity_for, decode_i64, decode_len_prefixed, decode_u64, encode_i64, encode_u64,
    read_u64_from,
};

const MAGIC: &[u8; 5] = b"MRSQ1";
const MAGIC_COMPRESSED: &[u8; 5] = b"MRSQ2";
const MAGIC_ENCODED: &[u8; 5] = b"MRSQ3";
const FOOTER_MAGIC: &[u8; 5] = b"MRSQF";

/// Upper bound on a single serialized row; lengths beyond this are
/// treated as corruption rather than allocated.
const MAX_ROW_LEN: u64 = 1 << 30;

/// The encoding bytes of an `MRSQ3` header.
const PLAIN: u8 = 0;
const DELTA: u8 = 1;
const DICT: u8 = 2;

/// One stored field's write state in an encoded file.
#[derive(Clone)]
enum FieldWriter {
    Plain,
    /// The previous value in this block.
    Delta(i64),
    /// Codes assigned so far, in first-seen order.
    Dict(HashMap<String, i64>),
}

impl FieldWriter {
    fn tag(&self) -> u8 {
        match self {
            FieldWriter::Plain => PLAIN,
            FieldWriter::Delta(_) => DELTA,
            FieldWriter::Dict(_) => DICT,
        }
    }

    fn encode(&mut self, fd: &FieldDef, v: &Value, row: &mut Vec<u8>) -> Result<()> {
        match self {
            FieldWriter::Plain => encode_field(fd.ty, v, &fd.name, row)?,
            FieldWriter::Delta(prev) => {
                let cur = (v.as_int()).ok_or_else(|| {
                    StorageError::Schema(format!("field `{}` not an int", fd.name))
                })?;
                encode_i64(cur.wrapping_sub(*prev), row);
                *prev = cur;
            }
            FieldWriter::Dict(codes) => {
                let s = (v.as_str()).ok_or_else(|| {
                    StorageError::Schema(format!("field `{}` not a string", fd.name))
                })?;
                let code = match codes.get(s) {
                    Some(&code) => code,
                    None => {
                        let code = codes.len() as i64;
                        codes.insert(s.to_string(), code);
                        code
                    }
                };
                encode_i64(code, row);
            }
        }
        Ok(())
    }
}

/// Encodes sequence-file rows (`varint row_len, row`) one sparse-index
/// block at a time. It reads records of a source schema and stores the
/// fields of the file's schema, a projection of it, so a projected file
/// is encoded without building projected records.
pub struct SeqBlockEncoder {
    /// The stored schema; a private copy, so encoders on different
    /// threads share nothing.
    schema: Schema,
    binding: FieldBinding,
    /// Per stored field, its encoding; `None` for a plain file.
    fields: Option<Vec<FieldWriter>>,
    block: BlockRows,
}

impl BlockEncoder for SeqBlockEncoder {
    fn push(&mut self, record: &Record) -> Result<()> {
        let row = self.block.start_row();
        let values = self.binding.values(record)?;
        match &mut self.fields {
            None => {
                for (fd, v) in self.schema.fields().iter().zip(values) {
                    encode_field(fd.ty, v, &fd.name, row)?;
                }
            }
            Some(fields) => {
                for ((fd, v), f) in self.schema.fields().iter().zip(values).zip(fields) {
                    f.encode(fd, v, row)?;
                }
            }
        }
        self.block.commit_row();
        Ok(())
    }

    fn finish_block(&mut self) -> (Vec<u8>, u64) {
        // The next block decodes independently: deltas restart from 0.
        for f in self.fields.iter_mut().flatten() {
            if let FieldWriter::Delta(prev) = f {
                *prev = 0;
            }
        }
        self.block.take()
    }
}

/// Writes a sequence file.
pub struct SeqFileWriter {
    out: BlockWriter<BufWriter<File>>,
    schema: Arc<Schema>,
    /// Whether the row region is block-compressed.
    framed: bool,
    /// Physical offset where the row region starts.
    data_start: u64,
    count: u64,
    blocks: Vec<(u64, u64)>, // (byte offset, records before block)
    /// The block being filled by [`append`](Self::append).
    pending: SeqBlockEncoder,
    finished: bool,
    faults: Option<Arc<IoFaults>>,
}

impl SeqFileWriter {
    /// Create (truncate) `path` and write the header.
    pub fn create(path: impl AsRef<Path>, schema: Arc<Schema>) -> Result<SeqFileWriter> {
        SeqFileWriter::create_with(path, schema, ShuffleCompression::None, None)
    }

    /// [`create`](Self::create), with each appended record counted
    /// against `faults` ([`IoSite::SeqWrite`]).
    pub fn create_with_faults(
        path: impl AsRef<Path>,
        schema: Arc<Schema>,
        faults: Option<Arc<IoFaults>>,
    ) -> Result<SeqFileWriter> {
        SeqFileWriter::create_with(path, schema, ShuffleCompression::None, faults)
    }

    /// Create `path` with the row stream block-compressed by `codec`
    /// (the `MRSQ2` variant; [`ShuffleCompression::None`] writes the
    /// plain format byte-for-byte).
    pub fn create_with_codec(
        path: impl AsRef<Path>,
        schema: Arc<Schema>,
        codec: ShuffleCompression,
    ) -> Result<SeqFileWriter> {
        SeqFileWriter::create_with(path, schema, codec, None)
    }

    /// The general constructor: codec plus fault counting
    /// ([`IoSite::SeqWrite`] per record, [`IoSite::BlockWrite`] per
    /// compressed frame).
    pub fn create_with(
        path: impl AsRef<Path>,
        schema: Arc<Schema>,
        codec: ShuffleCompression,
        faults: Option<Arc<IoFaults>>,
    ) -> Result<SeqFileWriter> {
        SeqFileWriter::create_inner(path.as_ref(), schema, codec, None, faults)
    }

    /// Create `path` with `delta_fields` (integer fields, the analyzer's
    /// delta descriptor) and `dict_fields` (string fields, its
    /// direct-operation descriptor) encoded: the `MRSQ3` variant. With
    /// both lists empty this is [`create_with_codec`](Self::create_with_codec).
    pub fn create_encoded(
        path: impl AsRef<Path>,
        schema: Arc<Schema>,
        codec: ShuffleCompression,
        delta_fields: &[String],
        dict_fields: &[String],
    ) -> Result<SeqFileWriter> {
        let mut named = delta_fields.iter().chain(dict_fields);
        if let Some(name) = named.find(|n| schema.field(n).is_none()) {
            return Err(StorageError::Schema(format!(
                "encoded field `{name}` not in schema"
            )));
        }
        let fields = (schema.fields().iter())
            .map(|fd| {
                let delta = delta_fields.contains(&fd.name);
                match (delta, dict_fields.contains(&fd.name), fd.ty) {
                    (false, false, _) => Ok(FieldWriter::Plain),
                    (true, false, FieldType::Int | FieldType::Long) => Ok(FieldWriter::Delta(0)),
                    (false, true, FieldType::Str) => Ok(FieldWriter::Dict(HashMap::new())),
                    _ => Err(StorageError::Schema(format!(
                        "field `{}` ({:?}) cannot be {} encoded",
                        fd.name,
                        fd.ty,
                        if delta { "delta" } else { "dict" }
                    ))),
                }
            })
            .collect::<Result<Vec<_>>>()?;
        let encoded = (!delta_fields.is_empty() || !dict_fields.is_empty()).then_some(fields);
        SeqFileWriter::create_inner(path.as_ref(), schema, codec, encoded, None)
    }

    fn create_inner(
        path: &Path,
        schema: Arc<Schema>,
        codec: ShuffleCompression,
        fields: Option<Vec<FieldWriter>>,
        faults: Option<Arc<IoFaults>>,
    ) -> Result<SeqFileWriter> {
        let mut file = BufWriter::new(File::create(path)?);
        let framed = codec.is_framed();
        let mut header = Vec::new();
        encode_schema(&schema, &mut header);
        let magic = match &fields {
            Some(fields) => {
                header.extend(fields.iter().map(FieldWriter::tag));
                MAGIC_ENCODED
            }
            None if framed => MAGIC_COMPRESSED,
            None => MAGIC,
        };
        file.write_all(magic)?;
        let mut data_start = magic.len() as u64;
        if magic != MAGIC {
            file.write_all(&[codec.stream_tag()])?;
            data_start += 1;
        }
        let mut lenbuf = Vec::new();
        encode_u64(header.len() as u64, &mut lenbuf);
        file.write_all(&lenbuf)?;
        file.write_all(&header)?;
        data_start += (lenbuf.len() + header.len()) as u64;
        Ok(SeqFileWriter {
            out: BlockWriter::new(file, codec, faults.clone()),
            pending: SeqBlockEncoder {
                schema: Schema::clone(&schema),
                binding: FieldBinding::identity(&schema),
                fields,
                block: BlockRows::default(),
            },
            schema,
            framed,
            data_start,
            count: 0,
            blocks: Vec::new(),
            finished: false,
            faults,
        })
    }

    /// The schema being written.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Append one record.
    pub fn append(&mut self, record: &Record) -> Result<()> {
        debug_assert!(!self.finished);
        if let Some(f) = &self.faults {
            f.check(IoSite::SeqWrite)?;
        }
        self.pending.push(record)?;
        if self.pending.block.records == BLOCK_RECORDS {
            self.write_pending()?;
        }
        Ok(())
    }

    /// An encoder for this file's blocks, reading records of `source`:
    /// this file's schema, or one it is a projection of. A file with a
    /// dict field has none: its codes are first-seen across the whole
    /// file, so block *i* depends on every block before it.
    pub fn block_encoder(&self, source: &Schema) -> Result<SeqBlockEncoder> {
        let fields = self.pending.fields.clone();
        if (fields.iter().flatten()).any(|f| matches!(f, FieldWriter::Dict(_))) {
            return Err(StorageError::Schema(
                "a file with a dict field is encoded on one thread".into(),
            ));
        }
        Ok(SeqBlockEncoder {
            schema: Schema::clone(&self.schema),
            binding: FieldBinding::projecting(&self.schema, source)?,
            fields,
            block: BlockRows::default(),
        })
    }

    /// Append one whole block encoded by a [`block_encoder`]: `rows`
    /// holds `records` rows. Blocks keep the shared grid, so every
    /// block but the last must be full and no [`append`]ed records may
    /// be pending. Plain (uncompressed) files only; the parallel index
    /// builds are its one caller and write unframed files.
    ///
    /// [`block_encoder`]: Self::block_encoder
    /// [`append`]: Self::append
    pub fn append_block(&mut self, rows: &[u8], records: u64) -> Result<()> {
        if self.framed {
            return Err(StorageError::Schema(
                "whole blocks append to uncompressed seqfiles only".into(),
            ));
        }
        if self.pending.block.records > 0 {
            return Err(StorageError::corrupt(
                "seqfile",
                "a block appended after a partial one",
            ));
        }
        if let Some(f) = &self.faults {
            for _ in 0..records {
                f.check(IoSite::SeqWrite)?;
            }
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
        blockindex::check_append("seqfile", self.count, records)?;
        // A split point: force a frame boundary so the recorded byte
        // offset is seekable in the compressed variant too (no-op
        // without a codec).
        self.out.flush_block()?;
        self.blocks
            .push((self.data_start + self.out.written_bytes(), self.count));
        self.out.write_all(rows)?;
        self.count += records;
        Ok(())
    }

    /// Write the footer and flush. Returns the total record count.
    pub fn finish(mut self) -> Result<u64> {
        self.write_pending()?;
        let mut footer = Vec::new();
        blockindex::encode(&self.blocks, &mut footer);
        encode_u64(self.count, &mut footer);
        // Each dict field's strings, in code order.
        for f in self.pending.fields.iter().flatten() {
            if let FieldWriter::Dict(codes) = f {
                let mut strings: Vec<(&String, &i64)> = codes.iter().collect();
                strings.sort_unstable_by_key(|&(_, &code)| code);
                encode_u64(strings.len() as u64, &mut footer);
                for (s, _) in strings {
                    encode_u64(s.len() as u64, &mut footer);
                    footer.extend_from_slice(s.as_bytes());
                }
            }
        }
        // Close the framed row region; the footer is raw so the reader
        // can find it from the end without decoding anything.
        self.out.flush_block()?;
        let inner = self.out.get_mut();
        // footer_len counts everything before itself, fixed-width so the
        // reader can find it from the end.
        inner.write_all(&footer)?;
        inner.write_all(&(footer.len() as u64).to_le_bytes())?;
        inner.write_all(FOOTER_MAGIC)?;
        inner.flush()?;
        self.finished = true;
        Ok(self.count)
    }
}

/// One dict field's strings, indexed by code.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    /// code → string, dense.
    pub strings: Vec<String>,
}

impl Dictionary {
    /// Code of `s`, if present.
    pub fn code_of(&self, s: &str) -> Option<i64> {
        self.strings.iter().position(|x| x == s).map(|i| i as i64)
    }

    /// String of `code`, if present.
    pub fn decode(&self, code: i64) -> Option<&str> {
        usize::try_from(code)
            .ok()
            .and_then(|i| self.strings.get(i))
            .map(String::as_str)
    }
}

/// One stored field's read state in an encoded file.
#[derive(Debug, Clone)]
enum FieldReader {
    Plain(FieldType),
    /// The previous value in this block.
    Delta(i64),
    /// Shared by every split of the file.
    Dict(Arc<Dictionary>),
}

/// Decodes the rows of an encoded file, field by field.
#[derive(Debug, Clone)]
struct RowDecoder {
    fields: Vec<FieldReader>,
    /// Rows decoded so far; delta state restarts on the block grid.
    rows: u64,
}

impl RowDecoder {
    fn decode(&mut self, schema: &Arc<Schema>, buf: &[u8]) -> Result<(Record, usize)> {
        if self.rows.is_multiple_of(BLOCK_RECORDS) {
            for f in &mut self.fields {
                if let FieldReader::Delta(prev) = f {
                    *prev = 0;
                }
            }
        }
        self.rows += 1;
        let mut pos = 0usize;
        let mut values = Vec::with_capacity(self.fields.len());
        for f in &mut self.fields {
            let (value, n) = match f {
                FieldReader::Plain(ty) => decode_field(*ty, &buf[pos..])?,
                FieldReader::Delta(prev) => {
                    let (d, n) = decode_i64(&buf[pos..])?;
                    *prev = prev.wrapping_add(d);
                    (Value::Int(*prev), n)
                }
                FieldReader::Dict(dict) => {
                    let (code, n) = decode_i64(&buf[pos..])?;
                    if dict.decode(code).is_none() {
                        return Err(StorageError::corrupt("seqfile", "dict code out of range"));
                    }
                    (Value::Int(code), n)
                }
            };
            values.push(value);
            pos += n;
        }
        let record = Record::new(Arc::clone(schema), values)
            .map_err(|e| StorageError::Schema(e.to_string()))?;
        Ok((record, pos))
    }
}

/// Metadata of an open sequence file.
#[derive(Debug, Clone)]
pub struct SeqFileMeta {
    /// The file path.
    pub path: PathBuf,
    /// The schema of the records readers yield: the stored schema, with
    /// dict fields as `Long` under a `<name>#dict` name.
    pub schema: Arc<Schema>,
    /// Total records.
    pub record_count: u64,
    /// Total file size in bytes.
    pub file_size: u64,
    /// Byte offset where rows start.
    pub data_start: u64,
    /// Sparse block index: (byte offset, records before).
    pub blocks: Vec<(u64, u64)>,
    /// Whether the row region is block-compressed (`MRSQ2`, or `MRSQ3`
    /// with a nonzero codec byte) — split offsets then point at frame
    /// starts.
    pub framed: bool,
    /// Byte offset where rows end and the footer starts.
    rows_end: u64,
    /// The field decoders of an encoded (`MRSQ3`) file.
    decoder: Option<RowDecoder>,
}

/// One input split: a byte range plus how many records it holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Split {
    /// Byte offset of the first record.
    pub offset: u64,
    /// Number of records in the split.
    pub records: u64,
}

impl SeqFileMeta {
    /// Open and parse header + footer.
    pub fn open(path: impl AsRef<Path>) -> Result<SeqFileMeta> {
        let path = path.as_ref().to_path_buf();
        let mut f = File::open(&path)?;
        let file_size = f.metadata()?.len();

        let mut magic = [0u8; 5];
        f.read_exact(&mut magic)?;
        let encoded = &magic == MAGIC_ENCODED;
        if !encoded && &magic != MAGIC && &magic != MAGIC_COMPRESSED {
            return Err(StorageError::corrupt("seqfile", "bad magic"));
        }
        let mut header_at = 5u64;
        let mut framed = false;
        if &magic != MAGIC {
            // The codec byte: 0 means unframed rows (only `MRSQ3` uses
            // it); otherwise informational, as each frame names its own.
            let mut codec = [0u8; 1];
            f.read_exact(&mut codec)?;
            header_at += 1;
            framed = codec[0] != 0 || !encoded;
        }
        // Header length varint: read a small chunk.
        let mut head = vec![0u8; 10.min(file_size.saturating_sub(header_at) as usize)];
        f.read_exact(&mut head)?;
        let (header_len, n) = decode_u64(&head)?;
        if header_len > file_size - header_at {
            return Err(StorageError::corrupt("seqfile", "header implausibly large"));
        }
        f.seek(SeekFrom::Start(header_at + n as u64))?;
        let mut header = vec![0u8; header_len as usize];
        f.read_exact(&mut header)?;
        let (schema, used) = decode_schema(&header)?;
        let data_start = header_at + n as u64 + header_len;

        // Footer: fixed 8-byte length + 5-byte magic at the very end.
        if file_size < data_start + 13 {
            return Err(StorageError::corrupt("seqfile", "missing footer"));
        }
        f.seek(SeekFrom::End(-13))?;
        let mut tail = [0u8; 13];
        f.read_exact(&mut tail)?;
        if &tail[8..] != FOOTER_MAGIC {
            return Err(StorageError::corrupt("seqfile", "bad footer magic"));
        }
        let footer_len = u64::from_le_bytes(tail[..8].try_into().expect("8 bytes"));
        // The footer lies between the data start and the 13-byte tail.
        if footer_len > file_size - 13 - data_start {
            return Err(StorageError::corrupt("seqfile", "bad footer length"));
        }
        f.seek(SeekFrom::End(-13 - footer_len as i64))?;
        let mut footer = vec![0u8; footer_len as usize];
        f.read_exact(&mut footer)?;

        let (blocks, used_footer) = blockindex::decode(&footer)?;
        let (record_count, n) = decode_u64(&footer[used_footer..])?;
        let rows_end = file_size - 13 - footer_len;
        blockindex::check("seqfile", &blocks, record_count, data_start..rows_end)?;

        let mut meta = SeqFileMeta {
            path,
            schema: Arc::new(schema),
            record_count,
            file_size,
            data_start,
            blocks,
            framed,
            rows_end,
            decoder: None,
        };
        if encoded {
            meta.decode_encodings(&header[used..], &footer[used_footer + n..])?;
        }
        Ok(meta)
    }

    /// Read an `MRSQ3` file's encoding bytes and dictionary tables, and
    /// rewrite the schema to the records its readers yield.
    fn decode_encodings(&mut self, tags: &[u8], mut tables: &[u8]) -> Result<()> {
        let corrupt = |detail: &str| Err(StorageError::corrupt("seqfile", detail));
        if tags.len() != self.schema.len() {
            return corrupt("encoding count does not match the schema");
        }
        // Readers restart delta state every `BLOCK_RECORDS` records of a
        // split, so a split may start only on the grid.
        if !blockindex::on_grid(&self.blocks, self.record_count) {
            return corrupt("block index off the grid");
        }
        let mut fields = Vec::with_capacity(tags.len());
        for (fd, &tag) in self.schema.fields().iter().zip(tags) {
            fields.push(match (tag, fd.ty) {
                (PLAIN, ty) => FieldReader::Plain(ty),
                (DELTA, FieldType::Int | FieldType::Long) => FieldReader::Delta(0),
                (DICT, FieldType::Str) => {
                    let (n, used) = decode_u64(tables)?;
                    tables = &tables[used..];
                    let mut strings = Vec::with_capacity(capacity_for(n, tables.len()));
                    for _ in 0..n {
                        let (s, used) = decode_len_prefixed(tables, "seqfile", "dictionary")?;
                        let s = std::str::from_utf8(s)
                            .map_err(|_| StorageError::corrupt("seqfile", "invalid utf-8"))?;
                        strings.push(s.to_string());
                        tables = &tables[used..];
                    }
                    FieldReader::Dict(Arc::new(Dictionary { strings }))
                }
                _ => return corrupt("bad field encoding"),
            });
        }
        if !tables.is_empty() {
            return corrupt("trailing footer bytes");
        }
        if fields.iter().any(|f| matches!(f, FieldReader::Dict(_))) {
            let typed = (self.schema.fields().iter().zip(&fields))
                .map(|(fd, f)| match f {
                    FieldReader::Dict(_) => (fd.name.as_str(), FieldType::Long),
                    _ => (fd.name.as_str(), fd.ty),
                })
                .collect();
            self.schema = Arc::new(Schema::new(format!("{}#dict", self.schema.name()), typed));
        }
        self.decoder = Some(RowDecoder { fields, rows: 0 });
        Ok(())
    }

    /// The dictionary of a dict-encoded field, if `field` is one.
    ///
    /// Codes preserve equality without decompression, and the
    /// dictionary decodes them for humans:
    ///
    /// ```
    /// use std::sync::Arc;
    /// use mr_ir::record::record;
    /// use mr_ir::schema::{FieldType, Schema};
    /// use mr_storage::{SeqFileMeta, SeqFileWriter, ShuffleCompression};
    ///
    /// let schema = Schema::new("V", vec![("url", FieldType::Str)]).into_arc();
    /// let path = std::env::temp_dir().join(format!("dict-doc-{}", std::process::id()));
    /// let none = ShuffleCompression::None;
    /// let mut w = SeqFileWriter::create_encoded(&path, Arc::clone(&schema), none, &[], &["url".into()])?;
    /// for url in ["http://a", "http://b", "http://a"] {
    ///     w.append(&record(&schema, vec![url.into()]))?;
    /// }
    /// assert_eq!(w.finish()?, 3);
    ///
    /// let meta = SeqFileMeta::open(&path)?;
    /// assert_eq!(meta.schema.field("url").unwrap().ty, FieldType::Long);
    /// let dict = meta.dictionary("url").unwrap();
    /// assert_eq!(dict.decode(dict.code_of("http://b").unwrap()), Some("http://b"));
    /// let codes: Vec<i64> = (meta.read_all()?)
    ///     .map(|r| r.unwrap().get("url").unwrap().as_int().unwrap())
    ///     .collect();
    /// assert_eq!(codes, [0, 1, 0], "first-seen codes, same url same code");
    /// # std::fs::remove_file(&path).ok();
    /// # Ok::<(), mr_storage::StorageError>(())
    /// ```
    pub fn dictionary(&self, field: &str) -> Option<&Dictionary> {
        let i = self.schema.index_of(field)?;
        match self.decoder.as_ref()?.fields.get(i)? {
            FieldReader::Dict(dict) => Some(dict),
            _ => None,
        }
    }

    /// Cut the file into at most `n` splits along block boundaries.
    pub fn splits(&self, n: usize) -> Vec<Split> {
        blockindex::splits(&self.blocks, self.record_count, n)
            .into_iter()
            .map(|(offset, _, records)| Split { offset, records })
            .collect()
    }

    /// Read records starting at `split`.
    pub fn read_split(&self, split: &Split) -> Result<SeqFileReader> {
        self.read_split_with_faults(split, None)
    }

    /// [`read_split`](Self::read_split), with each record read counted
    /// against `faults` ([`IoSite::SeqRead`]).
    pub fn read_split_with_faults(
        &self,
        split: &Split,
        faults: Option<Arc<IoFaults>>,
    ) -> Result<SeqFileReader> {
        let mut f = BufReader::new(File::open(&self.path)?);
        f.seek(SeekFrom::Start(split.offset))?;
        // Unframed, no row outlasts the row region.
        let max_row_len = match self.framed {
            true => MAX_ROW_LEN,
            false => self.rows_end.saturating_sub(split.offset),
        };
        Ok(SeqFileReader {
            input: BlockReader::new(f, self.framed, faults.clone()),
            // A copy of its own, not a handle on the meta's: every
            // record a reader yields clones this `Arc`, and readers of
            // different splits run on different map threads.
            schema: Arc::new(Schema::clone(&self.schema)),
            decoder: self.decoder.clone(),
            remaining: split.records,
            max_row_len,
            bytes_read: 0,
            buf: Vec::new(),
            faults,
        })
    }

    /// Read the whole file.
    pub fn read_all(&self) -> Result<SeqFileReader> {
        self.read_split(&Split {
            offset: self.data_start,
            records: self.record_count,
        })
    }
}

/// Iterates the records of one split.
pub struct SeqFileReader {
    input: BlockReader<BufReader<File>>,
    schema: Arc<Schema>,
    /// The field decoders of an encoded file; `None` for a plain one.
    decoder: Option<RowDecoder>,
    remaining: u64,
    max_row_len: u64,
    bytes_read: u64,
    buf: Vec<u8>,
    faults: Option<Arc<IoFaults>>,
}

impl SeqFileReader {
    /// Open `path` for a full sequential read.
    pub fn open(path: impl AsRef<Path>) -> Result<SeqFileReader> {
        SeqFileMeta::open(path)?.read_all()
    }

    /// Bytes consumed so far (row payloads + length prefixes).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// The schema of produced records.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn read_one(&mut self) -> Result<Option<Record>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        if let Some(f) = &self.faults {
            f.check(IoSite::SeqRead)?;
        }
        // Row length varint, byte at a time. `remaining > 0` promises a
        // row, so a clean EOF here is truncation.
        let (len, len_bytes) = read_u64_from(&mut self.input)?
            .ok_or_else(|| StorageError::corrupt("seqfile", "split ends mid-stream"))?;
        if len > self.max_row_len {
            return Err(StorageError::corrupt(
                "seqfile",
                "row length implausibly large",
            ));
        }
        self.buf.resize(len as usize, 0);
        self.input.read_exact(&mut self.buf)?;
        self.bytes_read += len_bytes + len;
        self.remaining -= 1;
        let (record, used) = match &mut self.decoder {
            None => decode_row(&self.schema, &self.buf)?,
            Some(decoder) => decoder.decode(&self.schema, &self.buf)?,
        };
        if used != self.buf.len() {
            return Err(StorageError::corrupt("seqfile", "row length mismatch"));
        }
        Ok(Some(record))
    }
}

impl Iterator for SeqFileReader {
    type Item = Result<Record>;

    fn next(&mut self) -> Option<Self::Item> {
        self.read_one().transpose()
    }
}

/// Convenience: write `records` to `path` and return the count.
pub fn write_seqfile(
    path: impl AsRef<Path>,
    schema: Arc<Schema>,
    records: impl IntoIterator<Item = Record>,
) -> Result<u64> {
    write_seqfile_with(path, schema, ShuffleCompression::None, records)
}

/// [`write_seqfile`] with the row stream block-compressed by `codec`.
pub fn write_seqfile_with(
    path: impl AsRef<Path>,
    schema: Arc<Schema>,
    codec: ShuffleCompression,
    records: impl IntoIterator<Item = Record>,
) -> Result<u64> {
    let mut w = SeqFileWriter::create_with_codec(path, schema, codec)?;
    for r in records {
        w.append(&r)?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockcodec::{read_frame_into, TAG_DELTA, TAG_DICT};
    use mr_ir::record::record;
    use mr_ir::schema::FieldType;
    use mr_ir::value::Value;

    fn schema() -> Arc<Schema> {
        Schema::new(
            "WebPage",
            vec![("url", FieldType::Str), ("rank", FieldType::Int)],
        )
        .into_arc()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mr-storage-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn make_records(s: &Arc<Schema>, n: usize) -> Vec<Record> {
        (0..n)
            .map(|i| {
                record(
                    s,
                    vec![format!("http://site/{i}").into(), Value::Int(i as i64)],
                )
            })
            .collect()
    }

    #[test]
    fn roundtrip_small() {
        let s = schema();
        let path = tmp("roundtrip");
        let records = make_records(&s, 100);
        let n = write_seqfile(&path, Arc::clone(&s), records.clone()).unwrap();
        assert_eq!(n, 100);

        let meta = SeqFileMeta::open(&path).unwrap();
        assert_eq!(meta.record_count, 100);
        assert_eq!(meta.schema.name(), "WebPage");
        let back: Vec<Record> = meta.read_all().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(back, records);
    }

    #[test]
    fn empty_file_roundtrip() {
        let s = schema();
        let path = tmp("empty");
        write_seqfile(&path, Arc::clone(&s), vec![]).unwrap();
        let meta = SeqFileMeta::open(&path).unwrap();
        assert_eq!(meta.record_count, 0);
        assert_eq!(meta.read_all().unwrap().count(), 0);
        assert!(meta.splits(4).is_empty());
    }

    #[test]
    fn splits_cover_all_records_exactly_once() {
        let s = schema();
        let path = tmp("splits");
        // Enough records to span several sparse-index blocks.
        let n = (BLOCK_RECORDS * 3 + 100) as usize;
        write_seqfile(&path, Arc::clone(&s), make_records(&s, n)).unwrap();
        let meta = SeqFileMeta::open(&path).unwrap();
        for nsplits in [1usize, 2, 3, 7] {
            let splits = meta.splits(nsplits);
            let total: u64 = splits.iter().map(|sp| sp.records).sum();
            assert_eq!(total, n as u64, "nsplits={nsplits}");
            // Read each split and check global coverage.
            let mut seen = Vec::new();
            for sp in &splits {
                for r in meta.read_split(sp).unwrap() {
                    let r = r.unwrap();
                    seen.push(r.get("rank").unwrap().as_int().unwrap());
                }
            }
            seen.sort_unstable();
            assert_eq!(seen, (0..n as i64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn compressed_roundtrip_every_codec() {
        let s = schema();
        let records = make_records(&s, 500);
        for codec in ShuffleCompression::ALL {
            let path = tmp(&format!("comp-roundtrip-{codec}"));
            let n = write_seqfile_with(&path, Arc::clone(&s), codec, records.clone()).unwrap();
            assert_eq!(n, 500);
            let meta = SeqFileMeta::open(&path).unwrap();
            assert_eq!(meta.framed, codec.is_framed(), "{codec}");
            assert_eq!(meta.record_count, 500);
            let back: Vec<Record> = meta.read_all().unwrap().map(|r| r.unwrap()).collect();
            assert_eq!(back, records, "{codec}");
        }
    }

    /// The tags of the frames in a framed seqfile's row region.
    fn frame_tags(bytes: &[u8], data_start: u64) -> Vec<u8> {
        let tail = bytes.len() - 13;
        let footer_len = u64::from_le_bytes(bytes[tail..tail + 8].try_into().unwrap());
        let mut rows = &bytes[data_start as usize..tail - footer_len as usize];
        let mut comp = Vec::new();
        let mut tags = Vec::new();
        while let Some((tag, _)) = read_frame_into(&mut rows, &mut comp).unwrap() {
            tags.push(tag);
        }
        tags
    }

    #[test]
    fn single_codec_seqfiles_still_decode() {
        // `generate --codec dict|delta` framed every block with one
        // codec and wrote that codec's tag into the header. On rows
        // where `auto` picks the same codec for every frame, its file
        // is that file but for the header tag, which is patched back.
        let s = schema();
        let n = BLOCK_RECORDS as usize * 2 + 5;
        let hosts = ["a", "bb", "ccc", "dddd", "eeeee"];
        let dict_rows: Vec<Record> = (0..n)
            .map(|i| {
                let url = format!("http://{}.example.com/{}", hosts[i % 5], hosts[i % 3]);
                record(&s, vec![url.into(), Value::Int((i % 4) as i64)])
            })
            .collect();
        let delta_rows: Vec<Record> = (0..n)
            .map(|i| {
                let rank = Value::Int(1_000_000_000 + 3 * i as i64);
                record(&s, vec!["http://site/x".into(), rank])
            })
            .collect();
        for (tag, rows) in [(TAG_DICT, dict_rows), (TAG_DELTA, delta_rows)] {
            let path = tmp(&format!("single-codec-{tag}"));
            write_seqfile_with(
                &path,
                Arc::clone(&s),
                ShuffleCompression::Auto,
                rows.clone(),
            )
            .unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            let data_start = SeqFileMeta::open(&path).unwrap().data_start;
            let tags = frame_tags(&bytes, data_start);
            assert!(tags.len() > 2 && tags.iter().all(|&t| t == tag), "{tags:?}");
            bytes[MAGIC.len()] = tag;
            std::fs::write(&path, &bytes).unwrap();
            let meta = SeqFileMeta::open(&path).unwrap();
            assert!(meta.framed);
            let back: Vec<Record> = meta.read_all().unwrap().map(|r| r.unwrap()).collect();
            assert_eq!(back, rows, "tag {tag}");
            let mut split_rows = 0;
            for sp in meta.splits(3) {
                split_rows += meta.read_split(&sp).unwrap().count();
            }
            assert_eq!(split_rows, n, "tag {tag}");
        }
    }

    #[test]
    fn compressed_splits_seek_to_frame_boundaries() {
        let s = schema();
        let n = (BLOCK_RECORDS * 3 + 77) as usize;
        let records = make_records(&s, n);
        for codec in [ShuffleCompression::Raw, ShuffleCompression::Auto] {
            let path = tmp(&format!("comp-splits-{codec}"));
            write_seqfile_with(&path, Arc::clone(&s), codec, records.clone()).unwrap();
            let meta = SeqFileMeta::open(&path).unwrap();
            assert_eq!(meta.blocks.len(), 4, "{codec}");
            for nsplits in [1usize, 2, 4, 7] {
                let splits = meta.splits(nsplits);
                let mut seen = Vec::new();
                for sp in &splits {
                    for r in meta.read_split(sp).unwrap() {
                        seen.push(r.unwrap().get("rank").unwrap().as_int().unwrap());
                    }
                }
                seen.sort_unstable();
                assert_eq!(
                    seen,
                    (0..n as i64).collect::<Vec<_>>(),
                    "{codec} nsplits={nsplits}"
                );
            }
        }
    }

    #[test]
    fn compression_shrinks_repetitive_rows() {
        let s = schema();
        // Low-cardinality URLs: exactly the redundancy dict exploits.
        let records: Vec<Record> = (0..5000)
            .map(|i| {
                record(
                    &s,
                    vec![
                        format!("http://popular.example.com/{}", i % 8).into(),
                        Value::Int(i % 16),
                    ],
                )
            })
            .collect();
        let plain_path = tmp("comp-shrink-plain");
        let auto_path = tmp("comp-shrink-auto");
        write_seqfile(&plain_path, Arc::clone(&s), records.clone()).unwrap();
        write_seqfile_with(
            &auto_path,
            Arc::clone(&s),
            ShuffleCompression::Auto,
            records,
        )
        .unwrap();
        let plain = std::fs::metadata(&plain_path).unwrap().len();
        let auto = std::fs::metadata(&auto_path).unwrap().len();
        assert!(auto * 3 < plain, "auto {auto} vs plain {plain}");
    }

    #[test]
    fn bytes_read_accounted() {
        let s = schema();
        let path = tmp("bytes");
        write_seqfile(&path, Arc::clone(&s), make_records(&s, 50)).unwrap();
        let meta = SeqFileMeta::open(&path).unwrap();
        let mut rd = meta.read_all().unwrap();
        while rd.next().is_some() {}
        assert!(rd.bytes_read() > 0);
        assert!(rd.bytes_read() < meta.file_size);
    }

    #[test]
    fn bad_magic_rejected() {
        let path = tmp("badmagic");
        std::fs::write(&path, b"NOTAMAGICFILE____________").unwrap();
        assert!(SeqFileMeta::open(&path).is_err());
    }

    #[test]
    fn truncated_footer_rejected() {
        let s = schema();
        let path = tmp("trunc");
        write_seqfile(&path, Arc::clone(&s), make_records(&s, 10)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 4]).unwrap();
        assert!(SeqFileMeta::open(&path).is_err());
    }

    /// A valid file whose footer is replaced by `footer` and whose
    /// footer-length field reads `footer_len`.
    fn forge_footer(name: &str, footer: &[u8], footer_len: u64) -> PathBuf {
        let s = schema();
        let path = tmp(name);
        write_seqfile(&path, Arc::clone(&s), make_records(&s, 10)).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let tail = bytes.len() - 13;
        let old_len = u64::from_le_bytes(bytes[tail..tail + 8].try_into().unwrap());
        let mut forged = bytes[..tail - old_len as usize].to_vec();
        forged.extend_from_slice(footer);
        forged.extend_from_slice(&footer_len.to_le_bytes());
        forged.extend_from_slice(FOOTER_MAGIC);
        std::fs::write(&path, forged).unwrap();
        path
    }

    fn assert_corrupt(path: &Path) {
        let r = SeqFileMeta::open(path);
        assert!(matches!(r, Err(StorageError::Corrupt { .. })), "{r:?}");
    }

    #[test]
    fn forged_footer_length_is_corrupt_not_an_allocation() {
        assert_corrupt(&forge_footer("footer-len", &[0, 0], u64::MAX));
        assert_corrupt(&forge_footer("footer-len-big", &[0, 0], 1 << 40));
    }

    #[test]
    fn forged_block_count_is_corrupt_not_an_allocation() {
        let mut footer = Vec::new();
        encode_u64(1 << 40, &mut footer);
        assert_corrupt(&forge_footer("n-blocks", &footer, footer.len() as u64));
    }

    /// One forged block index per rule `open` enforces on a 10-record
    /// file: each is typed corruption, so `splits` never sees it.
    #[test]
    fn forged_block_indexes_are_corrupt() {
        let s = schema();
        let path = tmp("index-valid");
        write_seqfile(&path, Arc::clone(&s), make_records(&s, 10)).unwrap();
        let meta = SeqFileMeta::open(&path).unwrap();
        let ds = meta.data_start;
        for (rule, blocks, count) in [
            ("records without blocks", vec![], 10),
            ("blocks without records", vec![(ds, 0)], 0),
            ("first block past record 0", vec![(ds, 1)], 10),
            ("first block not at the rows", vec![(ds + 1, 0)], 10),
            ("offsets not increasing", vec![(ds, 0), (ds, 5)], 10),
            ("records not increasing", vec![(ds, 0), (ds + 5, 0)], 10),
            ("record past the count", vec![(ds, 0), (ds + 5, 10)], 10),
            (
                "offset past the rows",
                vec![(ds, 0), (meta.file_size, 5)],
                10,
            ),
        ] {
            let mut footer = Vec::new();
            blockindex::encode(&blocks, &mut footer);
            encode_u64(count, &mut footer);
            let path = forge_footer(&format!("index-{rule}"), &footer, footer.len() as u64);
            let r = SeqFileMeta::open(&path);
            assert!(
                matches!(r, Err(StorageError::Corrupt { .. })),
                "{rule}: {r:?}"
            );
        }
    }

    /// Whole blocks append only on the grid, after no partial block,
    /// and only to plain files; a refused block writes nothing.
    #[test]
    fn append_block_keeps_the_grid() {
        let s = schema();
        let records = make_records(&s, 3);
        let path = tmp("append-block");
        let mut w = SeqFileWriter::create(&path, Arc::clone(&s)).unwrap();
        let mut enc = w.block_encoder(&s).unwrap();
        for r in &records {
            enc.push(r).unwrap();
        }
        let (short, n) = enc.finish_block();
        w.append_block(&short, n).unwrap();
        assert!(w.append_block(&short, n).is_err(), "after a short block");
        assert_eq!(w.finish().unwrap(), 3);
        let back: Vec<Record> = (SeqFileMeta::open(&path).unwrap().read_all().unwrap())
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(back, records);

        let mut w = SeqFileWriter::create(tmp("append-block-2"), Arc::clone(&s)).unwrap();
        w.append(&records[0]).unwrap();
        assert!(w.append_block(&short, n).is_err(), "after a partial block");

        let mut w =
            SeqFileWriter::create_with_codec(tmp("append-block-3"), s, ShuffleCompression::Auto)
                .unwrap();
        let err = w.append_block(&short, n).unwrap_err();
        assert!(matches!(err, StorageError::Schema(_)), "{err}");
    }

    #[test]
    fn opaque_schema_preserved() {
        let s = Arc::new(Schema::new("AbstractTuple", vec![("rank", FieldType::Int)]).opaque());
        let path = tmp("opaque");
        let r = record(&s, vec![1.into()]);
        write_seqfile(&path, Arc::clone(&s), vec![r]).unwrap();
        let meta = SeqFileMeta::open(&path).unwrap();
        assert!(meta.schema.is_opaque());
    }
}
