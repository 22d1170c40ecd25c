//! Dictionary-compressed files for direct-operation (paper §2.1, App. D
//! Table 6).
//!
//! "A url that is used only in equality tests does not really need to be
//! decompressed prior to map(); it is possible to use a compressed
//! version of the url that preserves equality testing. … During actual
//! program execution, destURL is implemented as an integer instead of a
//! String."
//!
//! The writer assigns each distinct string of a compressed field a dense
//! integer code. Readers produce records whose compressed fields hold the
//! *codes* — the data is never decompressed on the read path. The code
//! table is persisted in the footer so the optimizer can rewrite string
//! constants in the modified program copy, and so tooling can decode for
//! humans.
//!
//! The reader's record schema rewrites each compressed `Str` field to
//! `Long` — the type the map function actually observes.
//!
//! # Example
//!
//! Codes preserve equality without decompression, and the persisted
//! dictionary decodes them for humans:
//!
//! ```
//! use std::sync::Arc;
//! use mr_ir::record::record;
//! use mr_ir::schema::{FieldType, Schema};
//! use mr_storage::dict::{DictFileReader, DictFileWriter};
//!
//! let schema = Schema::new("V", vec![("url", FieldType::Str)]).into_arc();
//! let path = std::env::temp_dir().join(format!("dict-doc-{}", std::process::id()));
//! let mut w = DictFileWriter::create(&path, Arc::clone(&schema), &["url".into()])?;
//! for url in ["http://a", "http://b", "http://a"] {
//!     w.append(&record(&schema, vec![url.into()]))?;
//! }
//! let (records, _bytes, distinct) = w.finish()?;
//! assert_eq!((records, distinct), (3, 2));
//!
//! let reader = DictFileReader::open(&path)?;
//! assert_eq!(reader.schema().field("url").unwrap().ty, FieldType::Long);
//! let dict = reader.dictionary("url").unwrap();
//! assert_eq!(dict.decode(dict.code_of("http://b").unwrap()), Some("http://b"));
//! let codes: Vec<i64> = reader
//!     .map(|r| r.unwrap().get("url").unwrap().as_int().unwrap())
//!     .collect();
//! assert_eq!(codes[0], codes[2], "same url, same code");
//! assert_ne!(codes[0], codes[1]);
//! # std::fs::remove_file(&path).ok();
//! # Ok::<(), mr_storage::StorageError>(())
//! ```

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use mr_ir::record::Record;
use mr_ir::schema::{FieldType, Schema};
use mr_ir::value::Value;

use crate::blockindex::{self, BLOCK_RECORDS};
use crate::error::{Result, StorageError};
use crate::rowcodec::{decode_schema, encode_schema};
use crate::varint::{
    capacity_for, decode_i64, decode_len_prefixed, decode_u64, encode_i64, encode_u64,
};

const MAGIC: &[u8; 5] = b"MRDC1";

/// Upper bound on a single serialized row or header; beyond this is
/// corruption.
const MAX_ROW_LEN: u64 = 1 << 30;

/// Writes a dictionary-compressed file.
///
/// Unlike the sequence and delta writers it has no block encoder, and
/// the dictionary build runs on one thread: codes are assigned in
/// first-seen order across the whole file, so block *i*'s codes depend
/// on every block before it. An order-preserving (sorted) dictionary,
/// ROADMAP item 11, would fix each code before the scan and let blocks
/// encode apart.
pub struct DictFileWriter {
    out: BufWriter<File>,
    /// Original (string-typed) schema.
    schema: Arc<Schema>,
    /// Per field: dictionary-compressed?
    is_dict: Vec<bool>,
    /// One dictionary per compressed field index.
    dicts: Vec<HashMap<String, i64>>,
    count: u64,
    bytes_written: u64,
    buf: Vec<u8>,
    /// The row-length prefix of `buf`.
    lenbuf: Vec<u8>,
    /// Block index: (byte offset, records before block).
    blocks: Vec<(u64, u64)>,
}

impl DictFileWriter {
    /// Create the file; `dict_fields` names the string fields to
    /// compress (the analyzer's `DirectDescriptor` fields).
    pub fn create(
        path: impl AsRef<Path>,
        schema: Arc<Schema>,
        dict_fields: &[String],
    ) -> Result<DictFileWriter> {
        for name in dict_fields {
            match schema.field(name) {
                None => {
                    return Err(StorageError::Schema(format!(
                        "dict field `{name}` not in schema"
                    )))
                }
                Some(fd) if fd.ty != FieldType::Str => {
                    return Err(StorageError::Schema(format!(
                        "dict field `{name}` is not a string"
                    )))
                }
                _ => {}
            }
        }
        let is_dict: Vec<bool> = schema
            .fields()
            .iter()
            .map(|f| dict_fields.iter().any(|d| d == &f.name))
            .collect();
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(MAGIC)?;
        let mut header = Vec::new();
        encode_schema(&schema, &mut header);
        encode_u64(is_dict.len() as u64, &mut header);
        for &d in &is_dict {
            header.push(d as u8);
        }
        let mut lenbuf = Vec::new();
        encode_u64(header.len() as u64, &mut lenbuf);
        out.write_all(&lenbuf)?;
        out.write_all(&header)?;
        let bytes_written = (5 + lenbuf.len() + header.len()) as u64;
        let nfields = schema.len();
        Ok(DictFileWriter {
            out,
            schema,
            is_dict,
            dicts: vec![HashMap::new(); nfields],
            count: 0,
            bytes_written,
            buf: Vec::new(),
            lenbuf: Vec::new(),
            blocks: Vec::new(),
        })
    }

    /// Append a record (with original string values).
    pub fn append(&mut self, record: &Record) -> Result<()> {
        if self.count.is_multiple_of(BLOCK_RECORDS) {
            self.blocks.push((self.bytes_written, self.count));
        }
        self.buf.clear();
        for (i, (fd, v)) in self.schema.fields().iter().zip(record.values()).enumerate() {
            if self.is_dict[i] {
                let s = v.as_str().ok_or_else(|| {
                    StorageError::Schema(format!("field `{}` not a string", fd.name))
                })?;
                let dict = &mut self.dicts[i];
                let code = match dict.get(s) {
                    Some(&code) => code,
                    None => {
                        let code = dict.len() as i64;
                        dict.insert(s.to_string(), code);
                        code
                    }
                };
                encode_i64(code, &mut self.buf);
            } else {
                crate::rowcodec::encode_field(fd.ty, v, &fd.name, &mut self.buf)?;
            }
        }
        self.lenbuf.clear();
        encode_u64(self.buf.len() as u64, &mut self.lenbuf);
        self.out.write_all(&self.lenbuf)?;
        self.out.write_all(&self.buf)?;
        self.bytes_written += (self.lenbuf.len() + self.buf.len()) as u64;
        self.count += 1;
        Ok(())
    }

    /// Write dictionaries + footer; returns (records, bytes, distinct
    /// codes across all fields).
    pub fn finish(mut self) -> Result<(u64, u64, u64)> {
        let mut footer = Vec::new();
        encode_u64(self.count, &mut footer);
        blockindex::encode(&self.blocks, &mut footer);
        encode_u64(self.dicts.len() as u64, &mut footer);
        let mut total_codes = 0u64;
        for dict in &self.dicts {
            encode_u64(dict.len() as u64, &mut footer);
            // Persist in code order for deterministic decoding.
            let mut entries: Vec<(&String, &i64)> = dict.iter().collect();
            entries.sort_by_key(|(_, &code)| code);
            for (s, &code) in entries {
                encode_i64(code, &mut footer);
                encode_u64(s.len() as u64, &mut footer);
                footer.extend_from_slice(s.as_bytes());
            }
            total_codes += dict.len() as u64;
        }
        self.out.write_all(&footer)?;
        self.out.write_all(&(footer.len() as u64).to_le_bytes())?;
        self.out.flush()?;
        self.bytes_written += footer.len() as u64 + 8;
        Ok((self.count, self.bytes_written, total_codes))
    }
}

/// One field's persisted dictionary.
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

/// Reads a dictionary-compressed file, yielding records whose compressed
/// fields carry integer codes.
pub struct DictFileReader {
    input: BufReader<File>,
    /// The rewritten schema (compressed `Str` fields become `Long`).
    schema: Arc<Schema>,
    is_dict: Vec<bool>,
    field_types: Vec<FieldType>,
    /// Per-field dictionaries (empty for uncompressed fields).
    dictionaries: Vec<Dictionary>,
    remaining: u64,
    bytes_read: u64,
    buf: Vec<u8>,
    /// Source path and block index, for split planning.
    path: std::path::PathBuf,
    /// Block index: (byte offset, records before).
    pub blocks: Vec<(u64, u64)>,
    /// Total records in the file.
    pub record_count: u64,
}

impl DictFileReader {
    /// Open a dict file.
    pub fn open(path: impl AsRef<Path>) -> Result<DictFileReader> {
        // Footer.
        let mut tail = File::open(path.as_ref())?;
        let file_size = tail.metadata()?.len();
        if file_size < 13 {
            return Err(StorageError::corrupt("dictfile", "too small"));
        }
        tail.seek(SeekFrom::End(-8))?;
        let mut lenbuf = [0u8; 8];
        tail.read_exact(&mut lenbuf)?;
        let footer_len = u64::from_le_bytes(lenbuf);
        if footer_len > file_size - 8 {
            return Err(StorageError::corrupt("dictfile", "bad footer length"));
        }
        tail.seek(SeekFrom::End(-8 - footer_len as i64))?;
        let mut footer = vec![0u8; footer_len as usize];
        tail.read_exact(&mut footer)?;
        let (record_count, mut pos) = decode_u64(&footer)?;
        let (blocks, n) = blockindex::decode(&footer[pos..])?;
        pos += n;
        let (nfields, n) = decode_u64(&footer[pos..])?;
        pos += n;
        let mut dictionaries = Vec::with_capacity(capacity_for(nfields, footer.len() - pos));
        for _ in 0..nfields {
            let (ncodes, n) = decode_u64(&footer[pos..])?;
            pos += n;
            let mut strings = Vec::with_capacity(capacity_for(ncodes, footer.len() - pos));
            for expected in 0..ncodes {
                let (code, n) = decode_i64(&footer[pos..])?;
                pos += n;
                if code != expected as i64 {
                    return Err(StorageError::corrupt("dictfile", "non-dense codes"));
                }
                let (payload, n) = decode_len_prefixed(&footer[pos..], "dictfile", "dict")?;
                let s = std::str::from_utf8(payload)
                    .map_err(|_| StorageError::corrupt("dictfile", "invalid utf-8"))?;
                strings.push(s.to_string());
                pos += n;
            }
            dictionaries.push(Dictionary { strings });
        }

        // Header.
        let mut input = BufReader::new(File::open(path.as_ref())?);
        let mut magic = [0u8; 5];
        input.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(StorageError::corrupt("dictfile", "bad magic"));
        }
        let (header_len, len_bytes) = read_varint(&mut input)?;
        if header_len > MAX_ROW_LEN {
            return Err(StorageError::corrupt(
                "dictfile",
                "header implausibly large",
            ));
        }
        let mut header = vec![0u8; header_len as usize];
        input.read_exact(&mut header)?;
        let (orig_schema, used) = decode_schema(&header)?;
        let mut hpos = used;
        let (nflags, n) = decode_u64(&header[hpos..])?;
        hpos += n;
        if nflags as usize != orig_schema.len() {
            return Err(StorageError::corrupt(
                "dictfile",
                "flag count does not match schema",
            ));
        }
        let mut is_dict = Vec::with_capacity(nflags as usize);
        for i in 0..nflags as usize {
            is_dict.push(
                *header
                    .get(hpos + i)
                    .ok_or_else(|| StorageError::corrupt("dictfile", "truncated flags"))?
                    != 0,
            );
        }

        // Rewritten schema: compressed Str → Long.
        let field_types: Vec<FieldType> = orig_schema.fields().iter().map(|f| f.ty).collect();
        let rewritten: Vec<(&str, FieldType)> = orig_schema
            .fields()
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let ty = if is_dict[i] { FieldType::Long } else { f.ty };
                (f.name.as_str(), ty)
            })
            .collect();
        let schema = Schema::new(format!("{}#dict", orig_schema.name()), rewritten).into_arc();

        if dictionaries.len() != is_dict.len() {
            return Err(StorageError::corrupt(
                "dictfile",
                "dictionary count does not match schema",
            ));
        }
        let rows = (5 + len_bytes as u64 + header_len)..(file_size - 8 - footer_len);
        blockindex::check("dictfile", &blocks, record_count, rows)?;
        Ok(DictFileReader {
            input,
            schema,
            is_dict,
            field_types,
            dictionaries,
            remaining: record_count,
            bytes_read: 0,
            buf: Vec::new(),
            path: path.as_ref().to_path_buf(),
            blocks,
            record_count,
        })
    }

    /// Cut the file into at most `n` splits along block boundaries,
    /// returning `(offset, records)` pairs.
    pub fn splits(&self, n: usize) -> Vec<(u64, u64)> {
        blockindex::splits(&self.blocks, self.record_count, n)
            .into_iter()
            .map(|(offset, _, records)| (offset, records))
            .collect()
    }

    /// A reader positioned at one split (sharing this reader's parsed
    /// dictionaries).
    pub fn read_split(&self, offset: u64, records: u64) -> Result<DictFileReader> {
        use std::io::Seek;
        let mut input = BufReader::new(File::open(&self.path)?);
        input.seek(std::io::SeekFrom::Start(offset))?;
        Ok(DictFileReader {
            input,
            schema: Arc::clone(&self.schema),
            is_dict: self.is_dict.clone(),
            field_types: self.field_types.clone(),
            dictionaries: self.dictionaries.clone(),
            remaining: records,
            bytes_read: 0,
            buf: Vec::new(),
            path: self.path.clone(),
            blocks: self.blocks.clone(),
            record_count: self.record_count,
        })
    }

    /// The rewritten (integer-coded) schema the map function sees.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The dictionary of the named field, if compressed.
    pub fn dictionary(&self, field: &str) -> Option<&Dictionary> {
        let i = self.schema.index_of(field)?;
        if !*self.is_dict.get(i)? {
            return None;
        }
        self.dictionaries.get(i)
    }

    /// Bytes consumed so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    fn read_one(&mut self) -> Result<Option<Record>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let (len, len_bytes) = read_varint(&mut self.input)?;
        if len > MAX_ROW_LEN {
            return Err(StorageError::corrupt(
                "dictfile",
                "row length implausibly large",
            ));
        }
        self.buf.resize(len as usize, 0);
        self.input.read_exact(&mut self.buf)?;
        self.bytes_read += len_bytes as u64 + len;
        self.remaining -= 1;

        let mut pos = 0usize;
        let mut values = Vec::with_capacity(self.schema.len());
        for (i, &ty) in self.field_types.iter().enumerate() {
            if self.is_dict[i] {
                let (code, n) = decode_i64(&self.buf[pos..])?;
                pos += n;
                values.push(Value::Int(code));
            } else {
                let (v, n) = crate::rowcodec::decode_field(ty, &self.buf[pos..])?;
                pos += n;
                values.push(v);
            }
        }
        let record = Record::new(Arc::clone(&self.schema), values)
            .map_err(|e| StorageError::Schema(e.to_string()))?;
        Ok(Some(record))
    }
}

impl Iterator for DictFileReader {
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
                ("sourceIP", FieldType::Str),
                ("destURL", FieldType::Str),
                ("duration", FieldType::Int),
            ],
        )
        .into_arc()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mr-dict-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn codes_preserve_equality() {
        let s = uservisits();
        let path = tmp("equality");
        let urls = ["http://a", "http://b", "http://a", "http://c", "http://b"];
        let mut w = DictFileWriter::create(&path, Arc::clone(&s), &["destURL".into()]).unwrap();
        for (i, u) in urls.iter().enumerate() {
            w.append(&record(
                &s,
                vec![format!("ip{i}").into(), (*u).into(), (i as i64).into()],
            ))
            .unwrap();
        }
        let (n, _, codes) = w.finish().unwrap();
        assert_eq!(n, 5);
        assert_eq!(codes, 3, "three distinct urls");

        let rd = DictFileReader::open(&path).unwrap();
        assert_eq!(
            rd.schema().field("destURL").unwrap().ty,
            FieldType::Long,
            "compressed field becomes an integer"
        );
        let recs: Vec<Record> = rd.map(|r| r.unwrap()).collect();
        let code = |i: usize| recs[i].get("destURL").unwrap().as_int().unwrap();
        assert_eq!(code(0), code(2), "same url, same code");
        assert_eq!(code(1), code(4));
        assert_ne!(code(0), code(1));
        assert_ne!(code(0), code(3));
    }

    #[test]
    fn dictionary_persisted_and_invertible() {
        let s = uservisits();
        let path = tmp("persist");
        let mut w = DictFileWriter::create(&path, Arc::clone(&s), &["destURL".into()]).unwrap();
        for u in ["http://x", "http://y", "http://x"] {
            w.append(&record(&s, vec!["ip".into(), u.into(), 1.into()]))
                .unwrap();
        }
        w.finish().unwrap();
        let rd = DictFileReader::open(&path).unwrap();
        let dict = rd.dictionary("destURL").unwrap();
        assert_eq!(dict.strings.len(), 2);
        assert_eq!(
            dict.decode(dict.code_of("http://y").unwrap()),
            Some("http://y")
        );
        assert_eq!(dict.code_of("http://nope"), None);
        assert!(rd.dictionary("sourceIP").is_none());
        assert!(rd.dictionary("duration").is_none());
    }

    #[test]
    fn compression_shrinks_repetitive_urls() {
        let s = uservisits();
        let plain_path = tmp("plain");
        let dict_path = tmp("dict");
        let records: Vec<Record> = (0..2000)
            .map(|i| {
                record(
                    &s,
                    vec![
                        format!("10.0.0.{}", i % 256).into(),
                        format!("http://popular-site.example.com/very/long/path/{}", i % 10).into(),
                        Value::Int(i),
                    ],
                )
            })
            .collect();
        crate::seqfile::write_seqfile(&plain_path, Arc::clone(&s), records.clone()).unwrap();
        let plain_size = std::fs::metadata(&plain_path).unwrap().len();
        let mut w =
            DictFileWriter::create(&dict_path, Arc::clone(&s), &["destURL".into()]).unwrap();
        for r in &records {
            w.append(r).unwrap();
        }
        let (_, dict_size, _) = w.finish().unwrap();
        assert!(
            dict_size * 2 < plain_size,
            "dict {dict_size} vs plain {plain_size}"
        );
    }

    #[test]
    fn non_string_dict_field_rejected() {
        let s = uservisits();
        assert!(DictFileWriter::create(tmp("bad"), s.clone(), &["duration".into()]).is_err());
        assert!(DictFileWriter::create(tmp("bad2"), s, &["nope".into()]).is_err());
    }

    /// Open a valid dict file whose footer is replaced by the varints
    /// `footer` and whose footer-length field reads `footer_len` (the
    /// real length when `None`).
    fn open_forged(name: &str, footer: &[u64], footer_len: Option<u64>) -> Result<DictFileReader> {
        let s = uservisits();
        let path = tmp(name);
        let w = DictFileWriter::create(&path, Arc::clone(&s), &["destURL".into()]).unwrap();
        w.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let old_len = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        let mut forged = bytes[..bytes.len() - 8 - old_len as usize].to_vec();
        let mut encoded = Vec::new();
        for &v in footer {
            encode_u64(v, &mut encoded);
        }
        forged.extend_from_slice(&encoded);
        forged.extend_from_slice(&footer_len.unwrap_or(encoded.len() as u64).to_le_bytes());
        std::fs::write(&path, forged).unwrap();
        DictFileReader::open(&path)
    }

    #[test]
    fn forged_footer_counts_and_lengths_are_corrupt() {
        let big = 1u64 << 40;
        for (what, footer, footer_len) in [
            ("footer length", vec![0, 0], Some(u64::MAX)),
            ("nblocks", vec![0, big], None),
            ("nfields", vec![0, 0, big], None),
            ("ncodes", vec![0, 0, 1, big], None),
            ("string length", vec![0, 0, 1, 1, 0, u64::MAX], None),
            // Three empty dictionaries for the three fields, but a
            // record count with no block index to split it.
            ("block index", vec![1, 0, 3, 0, 0, 0], None),
        ] {
            let r = open_forged(what, &footer, footer_len);
            assert!(
                matches!(r, Err(StorageError::Corrupt { .. })),
                "{what}: {:?}",
                r.err()
            );
        }
    }

    #[test]
    fn empty_file() {
        let s = uservisits();
        let path = tmp("empty");
        let w = DictFileWriter::create(&path, Arc::clone(&s), &["destURL".into()]).unwrap();
        w.finish().unwrap();
        assert_eq!(DictFileReader::open(&path).unwrap().count(), 0);
    }

    #[test]
    fn uncompressed_fields_intact() {
        let s = uservisits();
        let path = tmp("intact");
        let mut w = DictFileWriter::create(&path, Arc::clone(&s), &["destURL".into()]).unwrap();
        w.append(&record(
            &s,
            vec!["1.2.3.4".into(), "http://u".into(), 42.into()],
        ))
        .unwrap();
        w.finish().unwrap();
        let recs: Vec<Record> = DictFileReader::open(&path)
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(recs[0].get("sourceIP").unwrap(), &Value::str("1.2.3.4"));
        assert_eq!(recs[0].get("duration").unwrap(), &Value::Int(42));
    }
}
