//! The encoded sequence file (`MRSQ3`) through the public API: delta
//! and dict fields round-trip, shrink what they should, split on the
//! block grid, and reject what they cannot decode.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mr_ir::record::{record, Record};
use mr_ir::schema::{FieldType, Schema};
use mr_ir::value::Value;
use mr_storage::blockindex::BLOCK_RECORDS;
use mr_storage::seqfile::write_seqfile;
use mr_storage::varint::encode_u64;
use mr_storage::{SeqFileMeta, SeqFileReader, SeqFileWriter, ShuffleCompression, StorageError};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mr-encoded-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}", std::process::id()))
}

fn visits() -> Arc<Schema> {
    Schema::new(
        "UserVisits",
        vec![
            ("sourceIP", FieldType::Str),
            ("destURL", FieldType::Str),
            ("visitDate", FieldType::Long),
            ("adRevenue", FieldType::Int),
        ],
    )
    .into_arc()
}

fn visit_rows(s: &Arc<Schema>, n: i64) -> Vec<Record> {
    (0..n)
        .map(|i| {
            let row = vec![
                format!("10.0.0.{}", i % 256).into(),
                format!("http://popular.example.com/long/path/{}", i % 7).into(),
                Value::Int(1_600_000_000 + i * 60),
                Value::Int(100 + (i % 5)),
            ];
            record(s, row)
        })
        .collect()
}

/// Write `rows` with the named fields encoded; returns the path.
fn write(name: &str, rows: &[Record], delta: &[&str], dict: &[&str]) -> PathBuf {
    let path = tmp(name);
    let names = |fields: &[&str]| fields.iter().map(|f| f.to_string()).collect::<Vec<_>>();
    let schema = Arc::clone(rows.first().map_or(&visits(), |r| r.schema()));
    let none = ShuffleCompression::None;
    let mut w =
        SeqFileWriter::create_encoded(&path, schema, none, &names(delta), &names(dict)).unwrap();
    for r in rows {
        w.append(r).unwrap();
    }
    w.finish().unwrap();
    path
}

/// Replace the footer of the file at `path`: its block index and
/// record count, then the varints `tables` where dictionaries go.
fn forge_footer(path: &Path, blocks: &[(u64, u64)], record_count: u64, tables: &[u64]) {
    let bytes = std::fs::read(path).unwrap();
    let tail = bytes.len() - 13;
    let footer_len = u64::from_le_bytes(bytes[tail..tail + 8].try_into().unwrap());
    let mut footer = Vec::new();
    encode_u64(blocks.len() as u64, &mut footer);
    for &(offset, before) in blocks {
        encode_u64(offset, &mut footer);
        encode_u64(before, &mut footer);
    }
    for &v in [record_count].iter().chain(tables) {
        encode_u64(v, &mut footer);
    }
    let mut forged = bytes[..tail - footer_len as usize].to_vec();
    forged.extend_from_slice(&footer);
    forged.extend_from_slice(&(footer.len() as u64).to_le_bytes());
    forged.extend_from_slice(b"MRSQF");
    std::fs::write(path, forged).unwrap();
}

fn read(path: &Path) -> Vec<Record> {
    SeqFileReader::open(path)
        .unwrap()
        .map(|r| r.unwrap())
        .collect()
}

fn ints(path: &Path, field: &str) -> Vec<i64> {
    (read(path).iter())
        .map(|r| r.get(field).unwrap().as_int().unwrap())
        .collect()
}

#[test]
fn roundtrip_with_deltas() {
    let s = visits();
    let rows = visit_rows(&s, 500);
    let path = write("roundtrip", &rows, &["visitDate", "adRevenue"], &[]);
    let rd = SeqFileReader::open(&path).unwrap();
    assert_eq!(rd.schema().as_ref(), s.as_ref(), "delta keeps the schema");
    let back: Vec<Record> = rd.map(|r| r.unwrap()).collect();
    assert_eq!(back, rows);
}

#[test]
fn bytes_read_tracked() {
    let s = visits();
    let path = write("bytes", &visit_rows(&s, 10), &["adRevenue"], &[]);
    let mut rd = SeqFileReader::open(&path).unwrap();
    while rd.next().is_some() {}
    assert!(rd.bytes_read() > 0);
}

#[test]
fn delta_encoding_saves_space_on_monotone_values() {
    let s = Schema::new("T", vec![("ts", FieldType::Long)]).into_arc();
    let rows: Vec<Record> = (0..2000)
        .map(|i| record(&s, vec![Value::Int(1_600_000_000_000 + i)]))
        .collect();
    let size = |p: PathBuf| std::fs::metadata(p).unwrap().len();
    let plain = size(write("plain", &rows, &[], &[]));
    let delta = size(write("delta", &rows, &["ts"], &[]));
    assert!(delta * 2 < plain, "delta {delta} vs plain {plain}");
}

#[test]
fn negative_deltas_roundtrip() {
    let s = Schema::new("T", vec![("v", FieldType::Int)]).into_arc();
    let values = [100i64, 50, 200, -7, i64::MAX, i64::MIN, 0];
    let rows: Vec<Record> = values.iter().map(|&v| record(&s, vec![v.into()])).collect();
    assert_eq!(ints(&write("neg", &rows, &["v"], &[]), "v"), values);
}

#[test]
fn unknown_delta_field_rejected() {
    let create = |delta: &str| {
        let none = ShuffleCompression::None;
        SeqFileWriter::create_encoded(tmp("bad"), visits(), none, &[delta.into()], &[])
    };
    assert!(create("nope").is_err());
    assert!(
        create("destURL").is_err(),
        "string fields cannot delta-encode"
    );
}

#[test]
fn non_string_dict_field_rejected() {
    let create = |dict: &str| {
        let none = ShuffleCompression::None;
        SeqFileWriter::create_encoded(tmp("bad-dict"), visits(), none, &[], &[dict.into()])
    };
    assert!(create("adRevenue").is_err());
    assert!(create("nope").is_err());
}

/// An empty file with a delta or a dict field is encoded and reads as
/// empty.
fn assert_empty_encoded(name: &str, delta: &[&str], dict: &[&str]) {
    let path = write(name, &[], delta, dict);
    assert_eq!(&std::fs::read(&path).unwrap()[..5], b"MRSQ3");
    assert!(read(&path).is_empty());
}

/// An empty delta-encoded file reads as empty, and a file asked to
/// encode nothing is the plain format byte for byte.
#[test]
fn empty_file() {
    assert_empty_encoded("empty-delta", &["adRevenue"], &[]);
    let s = visits();
    let rows = visit_rows(&s, 10);
    let plain = tmp("plain-ref");
    write_seqfile(&plain, Arc::clone(&s), rows.clone()).unwrap();
    let unencoded = write("unencoded", &rows, &[], &[]);
    assert_eq!(
        std::fs::read(unencoded).unwrap(),
        std::fs::read(plain).unwrap()
    );
}

#[test]
fn dict_empty_file() {
    assert_empty_encoded("empty-dict", &[], &["destURL"]);
}

#[test]
fn splits_cover_all_records_with_correct_values() {
    let s = Schema::new("T", vec![("v", FieldType::Long)]).into_arc();
    let n = (BLOCK_RECORDS * 2 + 500) as i64;
    let rows: Vec<Record> = (0..n)
        .map(|i| record(&s, vec![Value::Int(1_000_000 + i)]))
        .collect();
    let meta = SeqFileMeta::open(write("splits", &rows, &["v"], &[])).unwrap();
    assert_eq!(meta.blocks.len(), 3);
    for nsplits in [1usize, 2, 3, 5] {
        let mut seen = Vec::new();
        for sp in meta.splits(nsplits) {
            for r in meta.read_split(&sp).unwrap() {
                seen.push(r.unwrap().get("v").unwrap().as_int().unwrap());
            }
        }
        assert_eq!(seen, (1_000_000..1_000_000 + n).collect::<Vec<_>>());
    }
}

/// A split starting off the grid would restart deltas at the wrong
/// record, so `open` refuses an index that is valid but off it.
#[test]
fn off_grid_block_index_is_corrupt() {
    let s = Schema::new("T", vec![("v", FieldType::Long)]).into_arc();
    let rows: Vec<Record> = (0..BLOCK_RECORDS as i64 + 1)
        .map(|i| record(&s, vec![i.into()]))
        .collect();
    let path = write("off-grid", &rows, &["v"], &[]);
    let meta = SeqFileMeta::open(&path).unwrap();
    // The second block's offset, claimed to start at record 4000.
    let blocks = [meta.blocks[0], (meta.blocks[1].0, 4000)];
    forge_footer(&path, &blocks, meta.record_count, &[]);
    let r = SeqFileMeta::open(&path);
    assert!(matches!(r, Err(StorageError::Corrupt { .. })), "{r:?}");
}

#[test]
fn codes_preserve_equality() {
    let s = visits();
    let rows = visit_rows(&s, 20);
    let path = write("equality", &rows, &[], &["destURL"]);
    let meta = SeqFileMeta::open(&path).unwrap();
    assert_eq!(meta.schema.name(), "UserVisits#dict");
    let ty = |f: &str| meta.schema.field(f).unwrap().ty;
    assert_eq!(
        ty("destURL"),
        FieldType::Long,
        "a dict field reads as its code"
    );
    assert_eq!(ty("sourceIP"), FieldType::Str);
    let codes = ints(&path, "destURL");
    for i in 0..rows.len() {
        for j in 0..rows.len() {
            let same = rows[i].get("destURL") == rows[j].get("destURL");
            assert_eq!(same, codes[i] == codes[j], "rows {i} and {j}");
        }
    }
}

#[test]
fn uncompressed_fields_intact() {
    let s = visits();
    let rows = visit_rows(&s, 9);
    let path = write("intact", &rows, &["visitDate"], &["destURL"]);
    for (back, row) in read(&path).iter().zip(&rows) {
        for field in ["sourceIP", "visitDate", "adRevenue"] {
            assert_eq!(back.get(field), row.get(field), "{field}");
        }
    }
}

#[test]
fn dictionary_persisted_and_invertible() {
    let s = visits();
    let rows = visit_rows(&s, 20);
    let path = write("persist", &rows, &[], &["destURL"]);
    let meta = SeqFileMeta::open(&path).unwrap();
    let dict = meta.dictionary("destURL").unwrap();
    assert_eq!(dict.strings.len(), 7);
    for (code, row) in ints(&path, "destURL").into_iter().zip(&rows) {
        assert_eq!(dict.decode(code), row.get("destURL").unwrap().as_str());
    }
    assert_eq!(dict.code_of("http://nope"), None);
    assert!(meta.dictionary("sourceIP").is_none());
    assert!(meta.dictionary("adRevenue").is_none());
}

#[test]
fn compression_shrinks_repetitive_urls() {
    let s = visits();
    let rows = visit_rows(&s, 2000);
    let size = |p: PathBuf| std::fs::metadata(p).unwrap().len();
    let plain = size(write("urls-plain", &rows, &[], &[]));
    let dict = size(write("urls-dict", &rows, &[], &["destURL"]));
    assert!(dict * 2 < plain, "dict {dict} vs plain {plain}");
}

/// Dictionary tables that claim more than the footer holds, or leave
/// bytes over, are corrupt.
#[test]
fn forged_footer_counts_and_lengths_are_corrupt() {
    let s = visits();
    let path = write("forged", &visit_rows(&s, 3), &[], &["destURL"]);
    let meta = SeqFileMeta::open(&path).unwrap();
    let big = 1u64 << 40;
    for (what, tables) in [
        ("string count", vec![big]),
        ("string length", vec![1, u64::MAX]),
        ("string past the footer", vec![2, 1, b'a' as u64, 9]),
        ("trailing bytes", vec![0, 0]),
    ] {
        forge_footer(&path, &meta.blocks, meta.record_count, &tables);
        let r = SeqFileMeta::open(&path);
        assert!(
            matches!(r, Err(StorageError::Corrupt { .. })),
            "{what}: {r:?}"
        );
    }
}

/// Framed rows decode field by field too, and splits of every kind
/// agree with a whole read.
#[test]
fn framed_encoded_roundtrip() {
    let s = visits();
    let rows = visit_rows(&s, BLOCK_RECORDS as i64 + 9);
    let path = tmp("framed");
    let auto = ShuffleCompression::Auto;
    let (delta, dict) = (["adRevenue".to_string()], ["destURL".to_string()]);
    let mut w = SeqFileWriter::create_encoded(&path, Arc::clone(&s), auto, &delta, &dict).unwrap();
    for r in &rows {
        w.append(r).unwrap();
    }
    w.finish().unwrap();
    let meta = SeqFileMeta::open(&path).unwrap();
    assert!(meta.framed);
    let whole = read(&path);
    let split: Vec<Record> = (meta.splits(2).iter())
        .flat_map(|sp| meta.read_split(sp).unwrap().map(|r| r.unwrap()))
        .collect();
    assert_eq!(split, whole);
    let revenue: Vec<_> = whole.iter().map(|r| r.get("adRevenue").cloned()).collect();
    let expected: Vec<_> = rows.iter().map(|r| r.get("adRevenue").cloned()).collect();
    assert_eq!(revenue, expected);
}

/// Delta files encode blocks apart; a dict field's codes depend on
/// every earlier block, so its file has no block encoder.
#[test]
fn block_encoder_refuses_a_dict_field() {
    let s = visits();
    let none = ShuffleCompression::None;
    let delta = ["adRevenue".to_string()];
    let w =
        SeqFileWriter::create_encoded(tmp("enc-delta"), Arc::clone(&s), none, &delta, &[]).unwrap();
    assert!(w.block_encoder(&s).is_ok());
    let dict = ["destURL".to_string()];
    let w =
        SeqFileWriter::create_encoded(tmp("enc-dict"), Arc::clone(&s), none, &[], &dict).unwrap();
    assert!(matches!(w.block_encoder(&s), Err(StorageError::Schema(_))));
}
