//! Input formats: how the execution fabric turns a physical layout into
//! `(key, value)` pairs for map tasks.
//!
//! The execution descriptor chooses one of these per input (paper §2.2
//! Step 3). `SeqFile` is what "standard Hadoop" uses; the others are the
//! Manimal-optimized paths — including the B+Tree range format, "the
//! modifications to support B+Tree-indexed input formats".
//!
//! Every row artifact is a sequence file (`mr_storage::seqfile`): a
//! projected copy, a file with delta-encoded fields and one with
//! dict-encoded fields all open through the same split reader, which
//! decodes each file's per-field encodings. The variants below name the
//! plan, not a reader.
//!
//! Every split yields its records **as stored**: a projected file's
//! records carry the projected schema, not the declared one, and a dict
//! field reads as its integer code. The optimizer binds a mapper's reads
//! of fields an artifact does not store to constants at plan time, so no
//! record is ever widened back.

use std::path::PathBuf;
use std::sync::Arc;

use mr_ir::schema::Schema;
use mr_ir::value::Value;
use mr_storage::btree::{BTreeIndex, BTreeScanner, ScanBound};
use mr_storage::fault::IoFaults;
use mr_storage::seqfile::{SeqFileMeta, SeqFileReader};

use crate::error::{EngineError, Result};

/// Which physical layout to read, and how.
#[derive(Debug, Clone)]
pub enum InputSpec {
    /// Plain sequence file, split across map tasks. Keys are record
    /// positions (what Hadoop's byte offsets stand for).
    SeqFile {
        /// The file path.
        path: PathBuf,
    },
    /// B+Tree index range scan: only records whose index key falls in
    /// one of the ranges are read. Each range is cut into up to `hint`
    /// splits over disjoint runs of whole leaves, so an indexed selection
    /// keeps every map worker busy. Keys are the original input keys
    /// stored with the entries; records carry the index's stored schema
    /// (projected, for a selection+projection index).
    BTreeRanges {
        /// The index path.
        path: PathBuf,
        /// Ranges to scan (disjoint, sorted).
        ranges: Vec<(ScanBound, ScanBound)>,
    },
    /// Projected file, read as a sequence file: records carry the
    /// projected schema.
    Projected {
        /// The projected file path.
        path: PathBuf,
        /// The declared (wide) schema of the map function's value
        /// parameter. Reading does not use it.
        source_schema: Arc<Schema>,
    },
    /// File with delta-encoded fields, projected or not; records carry
    /// the file's stored schema.
    Delta {
        /// The file path.
        path: PathBuf,
    },
    /// File with dict-encoded fields, projected or not: map sees integer
    /// codes in place of the encoded strings.
    Dict {
        /// The file path.
        path: PathBuf,
    },
}

impl InputSpec {
    /// Open the input as a set of independent split readers; `hint` is
    /// the desired parallelism.
    pub fn open(&self, hint: usize) -> Result<Vec<SplitReader>> {
        self.open_with_faults(hint, None)
    }

    /// Split `split` of the input opened at `hint`: how a retry or a
    /// worker re-opens a planned map task's split.
    pub(crate) fn open_split(
        &self,
        hint: usize,
        io: Option<&Arc<IoFaults>>,
        split: usize,
    ) -> Result<SplitReader> {
        let mut splits = self.open_with_faults(hint, io)?.into_iter();
        splits
            .nth(split)
            .ok_or_else(|| EngineError::Config(format!("no split {split} at hint {hint}")))
    }

    /// [`open`](Self::open) with an IO fault injector threaded into
    /// the sequence-file readers (every variant but `BTreeRanges`,
    /// which has no injection hooks). Split boundaries depend
    /// only on the input's files and `hint`, so re-opening the same input
    /// with the same hint — how a retried map task re-reads its split,
    /// and how a process-backend worker finds the split its coordinator
    /// planned — always yields the same splits.
    pub fn open_with_faults(
        &self,
        hint: usize,
        io: Option<&Arc<IoFaults>>,
    ) -> Result<Vec<SplitReader>> {
        match self {
            InputSpec::SeqFile { path }
            | InputSpec::Projected { path, .. }
            | InputSpec::Delta { path }
            | InputSpec::Dict { path } => {
                let meta = SeqFileMeta::open(path)?;
                let splits = meta.splits(hint.max(1));
                let mut out = Vec::with_capacity(splits.len());
                let mut first_record = 0u64;
                for sp in splits {
                    let records = sp.records;
                    out.push(SplitReader::Seq {
                        reader: meta.read_split_with_faults(&sp, io.cloned())?,
                        next_key: first_record,
                    });
                    first_record += records;
                }
                Ok(out)
            }
            InputSpec::BTreeRanges { path, ranges } => {
                let idx = BTreeIndex::open(path)?;
                let mut out = Vec::new();
                for (low, high) in ranges {
                    for scanner in idx.scan_spans(low.clone(), high.clone(), hint.max(1))? {
                        out.push(SplitReader::BTree { scanner });
                    }
                }
                Ok(out)
            }
        }
    }
}

/// One split's record stream. Each reader holds a private copy of its
/// file's schema (made by the storage layer's split openers), so the
/// schema handle every record clones is never shared between map
/// threads.
pub enum SplitReader {
    /// Sequence-file split: plain, projected or encoded.
    Seq {
        /// Underlying reader.
        reader: SeqFileReader,
        /// Next synthetic record key.
        next_key: u64,
    },
    /// B+Tree range scan.
    BTree {
        /// Underlying scanner.
        scanner: BTreeScanner,
    },
}

impl SplitReader {
    /// Bytes consumed so far.
    pub fn bytes_read(&self) -> u64 {
        match self {
            SplitReader::Seq { reader, .. } => reader.bytes_read(),
            SplitReader::BTree { scanner } => scanner.bytes_read(),
        }
    }
}

impl Iterator for SplitReader {
    type Item = Result<(Value, Value)>;

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            SplitReader::Seq { reader, next_key } => {
                let record = reader.next()?;
                let key = *next_key;
                *next_key += 1;
                Some(
                    record
                        .map(|r| (Value::Int(key as i64), Value::from(r)))
                        .map_err(EngineError::from),
                )
            }
            SplitReader::BTree { scanner } => {
                let entry = scanner.next()?;
                Some(
                    entry
                        .map(|(k, r)| (k, Value::from(r)))
                        .map_err(EngineError::from),
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mr_ir::record::record;
    use mr_ir::schema::FieldType;
    use mr_storage::btree::BTreeWriter;
    use mr_storage::seqfile::{write_seqfile, SeqFileWriter};
    use mr_storage::ShuffleCompression;

    fn schema() -> Arc<Schema> {
        Schema::new(
            "WebPage",
            vec![("url", FieldType::Str), ("rank", FieldType::Int)],
        )
        .into_arc()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mr-engine-input-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    #[test]
    fn seqfile_input_covers_all_records() {
        let s = schema();
        let path = tmp("seq");
        let records: Vec<_> = (0..500)
            .map(|i| record(&s, vec![format!("u{i}").into(), Value::Int(i)]))
            .collect();
        write_seqfile(&path, Arc::clone(&s), records).unwrap();
        let spec = InputSpec::SeqFile { path };
        let readers = spec.open(4).unwrap();
        let mut ranks: Vec<i64> = Vec::new();
        for rd in readers {
            for item in rd {
                let (_, v) = item.unwrap();
                ranks.push(
                    v.as_record()
                        .unwrap()
                        .get("rank")
                        .unwrap()
                        .as_int()
                        .unwrap(),
                );
            }
        }
        ranks.sort_unstable();
        assert_eq!(ranks, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn projected_input_yields_stored_records() {
        let wide = schema();
        let stored = Arc::new(wide.project(&["rank".to_string()]));
        let path = tmp("projected");
        let records: Vec<_> = (0..50)
            .map(|i| record(&stored, vec![Value::Int(i)]))
            .collect();
        write_seqfile(&path, Arc::clone(&stored), records).unwrap();
        let spec = InputSpec::Projected {
            path,
            source_schema: wide,
        };
        for (key, value) in spec
            .open(2)
            .unwrap()
            .into_iter()
            .flatten()
            .map(Result::unwrap)
        {
            let rec = value.as_record().unwrap();
            assert_eq!(rec.schema().as_ref(), stored.as_ref());
            assert_eq!(
                rec.get("rank").unwrap(),
                &key,
                "not widened, still positional"
            );
        }
    }

    /// Every split of an encoded artifact reads through a schema of its
    /// own: records clone the handle, and splits run on different map
    /// threads.
    #[test]
    fn encoded_splits_share_no_schema() {
        let s = schema();
        let records: Vec<_> = (0..3 * 4096)
            .map(|i| record(&s, vec![format!("u{}", i % 9).into(), Value::Int(i)]))
            .collect();
        let none = ShuffleCompression::None;
        let write = |name: &str, delta: &[String], dict: &[String]| {
            let path = tmp(name);
            let mut w =
                SeqFileWriter::create_encoded(&path, Arc::clone(&s), none, delta, dict).unwrap();
            for r in &records {
                w.append(r).unwrap();
            }
            w.finish().unwrap();
            path
        };
        let delta = InputSpec::Delta {
            path: write("delta-splits", &["rank".into()], &[]),
        };
        let dict = InputSpec::Dict {
            path: write("dict-splits", &[], &["url".into()]),
        };
        for spec in [delta, dict] {
            let splits = spec.open(2).unwrap();
            let schemas: Vec<Arc<Schema>> = (splits.iter())
                .map(|sp| match sp {
                    SplitReader::Seq { reader, .. } => Arc::clone(reader.schema()),
                    SplitReader::BTree { .. } => unreachable!("a row file"),
                })
                .collect();
            assert_eq!(schemas.len(), 2, "{spec:?}");
            assert!(!Arc::ptr_eq(&schemas[0], &schemas[1]), "{spec:?}");
            let read: Vec<i64> = (splits.into_iter().flatten())
                .map(|item| item.unwrap().0.as_int().unwrap())
                .collect();
            assert_eq!(read, (0..3 * 4096).collect::<Vec<_>>(), "{spec:?}");
        }
    }

    #[test]
    fn btree_input_reads_only_ranges() {
        let s = schema();
        let path = tmp("btree");
        let mut w = BTreeWriter::with_page_size(&path, Arc::clone(&s), 4096).unwrap();
        for i in 0..1000 {
            let r = record(&s, vec![format!("u{i}").into(), Value::Int(i)]);
            w.append(&Value::Int(i), &Value::Int(i), &r).unwrap();
        }
        w.finish().unwrap();
        let spec = InputSpec::BTreeRanges {
            path,
            ranges: vec![
                (
                    ScanBound::Incl(Value::Int(10)),
                    ScanBound::Excl(Value::Int(15)),
                ),
                (ScanBound::Incl(Value::Int(990)), ScanBound::Unbounded),
            ],
        };
        let readers = spec.open(4).unwrap();
        assert_eq!(readers.len(), 2, "each range lies within one leaf");
        let mut keys: Vec<i64> = Vec::new();
        for rd in readers {
            for item in rd {
                keys.push(item.unwrap().0.as_int().unwrap());
            }
        }
        keys.sort_unstable();
        let expected: Vec<i64> = (10..15).chain(990..1000).collect();
        assert_eq!(keys, expected);
    }

    #[test]
    fn btree_range_splits_into_leaf_spans() {
        let s = schema();
        let path = tmp("btree-spans");
        let mut w = BTreeWriter::with_page_size(&path, Arc::clone(&s), 1024).unwrap();
        for i in 0..2000 {
            let r = record(&s, vec![format!("u{i}").into(), Value::Int(i)]);
            w.append(&Value::Int(i), &Value::Int(i), &r).unwrap();
        }
        w.finish().unwrap();
        let spec = InputSpec::BTreeRanges {
            path,
            ranges: vec![(ScanBound::Incl(Value::Int(300)), ScanBound::Unbounded)],
        };
        let keys = |readers: Vec<SplitReader>| -> Vec<i64> {
            readers
                .into_iter()
                .flatten()
                .map(|item| item.unwrap().0.as_int().unwrap())
                .collect()
        };
        assert_eq!(spec.open(1).unwrap().len(), 1);
        let two = spec.open(2).unwrap();
        assert_eq!(two.len(), 2, "a wide range fills the hint");
        assert_eq!(keys(two), (300..2000).collect::<Vec<_>>());
        assert_eq!(keys(spec.open(2).unwrap()), keys(spec.open(1).unwrap()));
    }
}
