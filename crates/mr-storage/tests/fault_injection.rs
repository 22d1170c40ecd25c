//! Failure injection: every file reader must reject corrupted,
//! truncated, bit-flipped or wholly random input with a clean error —
//! never a panic, never an infinite loop, never garbage records
//! accepted as valid row data beyond what the format cannot detect.
//! The encoded sequence file gets the exhaustive treatment: every
//! truncation and every single-bit flip, with the largest allocation
//! each read makes measured on the reading thread.
//! The deterministic [`IoFaults`] layer additionally proves that the
//! run/seq readers and writers fail *exactly* the scheduled operation,
//! once, and then proceed — the contract the engine's task retries are
//! built on.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use mr_ir::record::record;
use mr_ir::schema::{FieldType, Schema};
use mr_ir::value::Value;
use mr_storage::btree::{BTreeIndex, BTreeWriter, ScanBound};
use mr_storage::fault::{IoFaults, IoSite};
use mr_storage::runfile::{RunFileReader, RunFileWriter};
use mr_storage::seqfile::{write_seqfile, SeqFileMeta, SeqFileWriter};
use mr_storage::StorageError;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mr-fault-tests");
    std::fs::create_dir_all(&dir).unwrap();
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    dir.join(format!("{name}-{}-{n}", std::process::id()))
}

fn schema() -> Arc<Schema> {
    Schema::new("T", vec![("s", FieldType::Str), ("n", FieldType::Int)]).into_arc()
}

/// Build a valid sequence file and return its bytes.
fn valid_seqfile_bytes() -> Vec<u8> {
    let s = schema();
    let path = tmp("valid-seq");
    let records: Vec<_> = (0..50)
        .map(|i| record(&s, vec![format!("row{i}").into(), Value::Int(i)]))
        .collect();
    write_seqfile(&path, s, records).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

/// Open-and-drain helpers must return Result errors, not panic.
fn try_read_seqfile(bytes: &[u8]) {
    let path = tmp("fuzz-seq");
    std::fs::write(&path, bytes).unwrap();
    if let Ok(meta) = SeqFileMeta::open(&path) {
        if let Ok(reader) = meta.read_all() {
            // Take a bounded number of records; errors are fine.
            for item in reader.take(1000) {
                if item.is_err() {
                    break;
                }
            }
        }
    }
    std::fs::remove_file(&path).ok();
}

/// The scheduled run-file read fails — exactly that one, exactly once.
#[test]
fn run_reader_fails_scheduled_op_then_recovers() {
    let path = tmp("io-run");
    let mut w = RunFileWriter::create(&path).unwrap();
    for i in 0..10i64 {
        w.append(&Value::Int(i), &Value::Null).unwrap();
    }
    w.finish().unwrap();

    let faults = Arc::new(IoFaults::new().with_fault(IoSite::RunRead, 4));
    let mut rd = RunFileReader::open_with_faults(&path, Some(Arc::clone(&faults))).unwrap();
    for i in 0..4i64 {
        assert_eq!(rd.next().unwrap().unwrap().0, Value::Int(i));
    }
    let err = rd.next().unwrap().unwrap_err();
    assert!(matches!(err, StorageError::Io(_)), "{err}");
    // A fresh reader sharing the (now-disarmed) injector reads clean —
    // the transient-fault model a task retry relies on.
    let rd = RunFileReader::open_with_faults(&path, Some(faults)).unwrap();
    let pairs: Vec<_> = rd.map(|p| p.unwrap()).collect();
    assert_eq!(pairs.len(), 10);
}

/// The scheduled run-file append fails without corrupting the pairs
/// already written.
#[test]
fn run_writer_fails_scheduled_append() {
    let path = tmp("io-runw");
    let faults = Arc::new(IoFaults::new().with_fault(IoSite::RunWrite, 2));
    let mut w = RunFileWriter::create_with_faults(&path, Some(faults)).unwrap();
    w.append(&Value::Int(0), &Value::Null).unwrap();
    w.append(&Value::Int(1), &Value::Null).unwrap();
    assert!(w.append(&Value::Int(2), &Value::Null).is_err());
    // The failed append wrote nothing; the file holds the first two.
    let stats = w.finish().unwrap();
    assert_eq!(stats.pairs, 2);
    let back: Vec<_> = RunFileReader::open(&path)
        .unwrap()
        .map(|p| p.unwrap())
        .collect();
    assert_eq!(back.len(), 2);
}

/// Sequence-file reads and writes honor their scheduled faults too,
/// with operation counters shared across readers of the same handle.
#[test]
fn seq_reader_and_writer_fail_scheduled_ops() {
    let s = schema();
    let path = tmp("io-seq");
    let faults = Arc::new(IoFaults::new().with_fault(IoSite::SeqWrite, 1));
    let mut w = SeqFileWriter::create_with_faults(&path, Arc::clone(&s), Some(faults)).unwrap();
    w.append(&record(&s, vec!["a".into(), Value::Int(0)]))
        .unwrap();
    assert!(w
        .append(&record(&s, vec!["b".into(), Value::Int(1)]))
        .is_err());
    w.append(&record(&s, vec!["c".into(), Value::Int(2)]))
        .unwrap();
    w.finish().unwrap();

    let meta = SeqFileMeta::open(&path).unwrap();
    assert_eq!(meta.record_count, 2);
    let read_faults = Arc::new(IoFaults::new().with_fault(IoSite::SeqRead, 1));
    let mut rd = meta
        .read_split_with_faults(
            &mr_storage::Split {
                offset: meta.data_start,
                records: meta.record_count,
            },
            Some(read_faults),
        )
        .unwrap();
    assert!(rd.next().unwrap().is_ok());
    assert!(rd.next().unwrap().is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary bytes never panic the sequence-file reader.
    #[test]
    fn seqfile_survives_random_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        try_read_seqfile(&bytes);
    }

    /// A valid file with one flipped bit never panics the reader.
    #[test]
    fn seqfile_survives_bit_flips(pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut bytes = valid_seqfile_bytes();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;
        try_read_seqfile(&bytes);
    }

    /// A valid file truncated anywhere never panics the reader.
    #[test]
    fn seqfile_survives_truncation(keep_frac in 0.0f64..1.0) {
        let bytes = valid_seqfile_bytes();
        let keep = (bytes.len() as f64 * keep_frac) as usize;
        try_read_seqfile(&bytes[..keep]);
    }

    /// Same discipline for the B+Tree.
    #[test]
    fn btree_survives_corruption(pos_frac in 0.0f64..1.0, bit in 0u8..8) {
        let s = schema();
        let path = tmp("fuzz-btree-src");
        let mut w = BTreeWriter::with_page_size(&path, Arc::clone(&s), 512).unwrap();
        for i in 0..200i64 {
            let r = record(&s, vec![format!("k{i}").into(), Value::Int(i)]);
            w.append(&Value::Int(i), &Value::Int(i), &r).unwrap();
        }
        w.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= 1 << bit;

        let corrupt = tmp("fuzz-btree");
        std::fs::write(&corrupt, &bytes).unwrap();
        if let Ok(idx) = BTreeIndex::open(&corrupt) {
            if let Ok(scan) = idx.scan(ScanBound::Unbounded, ScanBound::Unbounded) {
                for item in scan.take(1000) {
                    if item.is_err() {
                        break;
                    }
                }
            }
        }
        std::fs::remove_file(&corrupt).ok();
    }
}

// ---- the block-compressed variants -------------------------------------

use mr_storage::blockcodec::ShuffleCompression;
use mr_storage::seqfile::write_seqfile_with;

/// The block layer has its own injection sites: a scheduled
/// `block-read` fault fires inside a *compressed* run stream (where
/// the record-level `run-read` site alone could never model a frame
/// decode failure), once, and a retry proceeds past it.
#[test]
fn block_read_fault_fires_inside_compressed_run() {
    let path = tmp("io-block-read");
    let mut w = RunFileWriter::create_with(&path, ShuffleCompression::Auto, None).unwrap();
    for i in 0..50i64 {
        w.append(&Value::Int(i / 10), &Value::str("payload"))
            .unwrap();
    }
    w.finish().unwrap();

    let faults = Arc::new(IoFaults::new().with_fault(IoSite::BlockRead, 0));
    let mut rd = RunFileReader::open_with_faults(&path, Some(Arc::clone(&faults))).unwrap();
    let err = rd.next().unwrap().unwrap_err();
    assert!(matches!(err, StorageError::Io(_)), "{err}");
    assert!(err.to_string().contains("block-read"), "{err}");

    // Disarmed on retry: the same handle now reads the run end-to-end.
    let rd = RunFileReader::open_with_faults(&path, Some(faults)).unwrap();
    let pairs: Vec<_> = rd.collect::<Result<_, _>>().unwrap();
    assert_eq!(pairs.len(), 50);
}

/// A scheduled `block-write` fault fails a compressed spill write; the
/// record-layer writer surfaces it as a storage error, not a panic.
#[test]
fn block_write_fault_fails_compressed_run_write() {
    let path = tmp("io-block-write");
    let faults = Arc::new(IoFaults::new().with_fault(IoSite::BlockWrite, 0));
    let mut w = RunFileWriter::create_with(&path, ShuffleCompression::Auto, Some(faults)).unwrap();
    // Fill past one block so a frame must be emitted mid-append.
    let big = "x".repeat(4096);
    let mut failed = false;
    for i in 0..64i64 {
        if w.append(&Value::Int(i), &Value::str(&big)).is_err() {
            failed = true;
            break;
        }
    }
    assert!(failed, "the armed frame write must fail an append");
}

/// A corrupted frame inside a compressed sequence file is a typed
/// `Corrupt` error at read time — never silently-truncated records.
#[test]
fn corrupt_compressed_seqfile_frame_is_typed() {
    let s = schema();
    let path = tmp("corrupt-seq-frame");
    let records: Vec<_> = (0..2000)
        .map(|i| record(&s, vec![format!("row{}", i % 5).into(), Value::Int(i)]))
        .collect();
    write_seqfile_with(&path, Arc::clone(&s), ShuffleCompression::Auto, records).unwrap();

    let meta = SeqFileMeta::open(&path).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    // Flip a byte in the middle of the first data frame.
    let at = meta.data_start as usize + 200;
    bytes[at] ^= 0x08;
    std::fs::write(&path, &bytes).unwrap();

    let meta = SeqFileMeta::open(&path).unwrap();
    let mut clean = 0u64;
    let mut typed_corruption = false;
    for item in meta.read_all().unwrap() {
        match item {
            Ok(_) => clean += 1,
            Err(e) => {
                assert!(matches!(e, StorageError::Corrupt { .. }), "{e}");
                typed_corruption = true;
                break;
            }
        }
    }
    assert!(
        typed_corruption,
        "flip must be detected (read {clean} rows first)"
    );
    assert!(
        clean < meta.record_count,
        "corruption cannot read as complete data"
    );
}

/// Random bytes never panic the compressed-seqfile reader either.
#[test]
fn compressed_seqfile_survives_random_prefix_corruption() {
    let s = schema();
    let path = tmp("fuzz-comp-seq");
    let records: Vec<_> = (0..300)
        .map(|i| record(&s, vec![format!("r{i}").into(), Value::Int(i)]))
        .collect();
    write_seqfile_with(&path, Arc::clone(&s), ShuffleCompression::Auto, records).unwrap();
    let valid = std::fs::read(&path).unwrap();
    for cut in [7usize, 9, 30, valid.len() / 2, valid.len() - 5] {
        let mut mangled = valid.clone();
        mangled.truncate(cut);
        mangled.extend_from_slice(&valid[..(valid.len() - cut).min(64)]);
        std::fs::write(&path, &mangled).unwrap();
        if let Ok(meta) = SeqFileMeta::open(&path) {
            if let Ok(reader) = meta.read_all() {
                for item in reader.take(1000) {
                    if item.is_err() {
                        break;
                    }
                }
            }
        }
    }
}

// ---- the encoded sequence file: every truncation, every bit flip -------

use mr_storage::SeqFileReader;

/// The largest single allocation the calling thread has asked for, so
/// a sweep can tell a reader that sizes a buffer by a corrupt length.
mod peak {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        // Const-initialised and drop-free, so touching it from inside
        // the allocator neither allocates nor registers a destructor.
        static PEAK: Cell<usize> = const { Cell::new(0) };
    }

    fn note(size: usize) {
        let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
    }

    /// The peak since the last call, which resets it.
    pub fn take() -> usize {
        PEAK.with(|p| p.replace(0))
    }

    pub struct PeakAlloc;

    unsafe impl GlobalAlloc for PeakAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc(layout)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            System.alloc_zeroed(layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }
}

#[global_allocator]
static ALLOC: peak::PeakAlloc = peak::PeakAlloc;

/// The reader's one fixed-size allocation: its buffered file handle.
const READ_BUFFER: usize = 8 * 1024;

/// A small file with a plain, a delta and a dict field, its rows
/// framed by `codec`.
fn encoded_file_bytes(codec: ShuffleCompression) -> Vec<u8> {
    let s = Schema::new(
        "E",
        vec![
            ("s", FieldType::Str),
            ("n", FieldType::Long),
            ("u", FieldType::Str),
        ],
    )
    .into_arc();
    let path = tmp("encoded-src");
    let mut w =
        SeqFileWriter::create_encoded(&path, Arc::clone(&s), codec, &["n".into()], &["u".into()])
            .unwrap();
    // Enough rows that a frame's compressed length takes two varint
    // bytes: one flip there claims more than the whole file.
    for i in 0..40i64 {
        let plain = format!("r{}", i * 7_919 % 1_009);
        let url = format!("http://u/{}", i % 3);
        let row = vec![plain.into(), (1000 - 7 * i).into(), url.into()];
        w.append(&record(&s, row)).unwrap();
    }
    w.finish().unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

/// Open and drain `bytes` as a file: every item is a record or a typed
/// error, after which the read stops. Returns a description of what
/// went wrong: a panic, or an allocation past the file's length.
fn drain_encoded(bytes: &[u8], path: &std::path::Path) -> Option<String> {
    std::fs::write(path, bytes).unwrap();
    peak::take();
    let read = std::panic::catch_unwind(|| {
        let Ok(reader) = SeqFileReader::open(path) else {
            return;
        };
        for item in reader {
            if item.is_err() {
                break;
            }
        }
    });
    let peak = peak::take();
    match read {
        Err(_) => Some("panicked".into()),
        Ok(()) if peak > bytes.len().max(READ_BUFFER) => Some(format!(
            "allocated {peak} bytes for a {}-byte file",
            bytes.len()
        )),
        Ok(()) => None,
    }
}

/// Every truncation and every single-bit flip of `valid`.
fn sweep_encoded(valid: &[u8]) {
    let path = tmp("encoded-sweep");
    let mut failures = Vec::new();
    for cut in 0..valid.len() {
        if let Some(what) = drain_encoded(&valid[..cut], &path) {
            failures.push(format!("cut at {cut}: {what}"));
        }
    }
    let mut bytes = valid.to_vec();
    for at in 0..valid.len() {
        for bit in 0..8 {
            bytes[at] ^= 1 << bit;
            if let Some(what) = drain_encoded(&bytes, &path) {
                failures.push(format!("bit {bit} of byte {at}: {what}"));
            }
            bytes[at] ^= 1 << bit;
        }
    }
    std::fs::remove_file(&path).ok();
    assert!(failures.is_empty(), "{failures:#?}");
}

/// The unframed encoded file (plain, delta and dict fields) survives
/// every truncation and every bit flip.
#[test]
fn delta_survives_corruption() {
    sweep_encoded(&encoded_file_bytes(ShuffleCompression::None));
}

/// The framed encoded file survives every truncation and every bit
/// flip, and a dict-coded row with bytes past its fields is corrupt.
#[test]
fn dict_survives_corruption() {
    sweep_encoded(&encoded_file_bytes(ShuffleCompression::Auto));

    let s = Schema::new("D", vec![("u", FieldType::Str)]).into_arc();
    let path = tmp("dict-trailing");
    let none = ShuffleCompression::None;
    let mut w =
        SeqFileWriter::create_encoded(&path, Arc::clone(&s), none, &[], &["u".into()]).unwrap();
    w.append(&record(&s, vec!["http://a".into()])).unwrap();
    w.finish().unwrap();
    let start = SeqFileMeta::open(&path).unwrap().data_start as usize;
    let mut bytes = std::fs::read(&path).unwrap();
    // One row of one code: `[len 1][code 0]`. Claim one more byte and
    // supply it; the footer is found from the end, so it still opens.
    assert_eq!(bytes[start..start + 2], [1, 0]);
    bytes[start] = 2;
    bytes.insert(start + 2, 0);
    std::fs::write(&path, &bytes).unwrap();
    let rows: Vec<_> = SeqFileReader::open(&path).unwrap().collect();
    assert!(
        matches!(rows[..], [Err(StorageError::Corrupt { .. })]),
        "{rows:?}"
    );
}
