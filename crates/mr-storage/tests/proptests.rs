//! Property-based tests for the storage layer: codec roundtrips and the
//! B+Tree's range-scan contract.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use mr_ir::record::{record, Record};
use mr_ir::schema::{FieldType, Schema};
use mr_ir::value::Value;
use mr_storage::btree::{BTreeIndex, BTreeScanner, BTreeWriter, ScanBound};
use mr_storage::rowcodec::{decode_row, decode_value, encode_row, encode_value};
use mr_storage::varint::{decode_i64, decode_u64, encode_i64, encode_u64};
use mr_storage::{SeqFileReader, SeqFileWriter};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mr-storage-proptests");
    std::fs::create_dir_all(&dir).unwrap();
    // Unique per call: proptest runs many cases.
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    dir.join(format!("{name}-{}-{n}", std::process::id()))
}

proptest! {
    #[test]
    fn varint_u64_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        encode_u64(v, &mut buf);
        let (back, n) = decode_u64(&buf).unwrap();
        prop_assert_eq!(back, v);
        prop_assert_eq!(n, buf.len());
    }

    #[test]
    fn varint_i64_roundtrip(v in any::<i64>()) {
        let mut buf = Vec::new();
        encode_i64(v, &mut buf);
        let (back, n) = decode_i64(&buf).unwrap();
        prop_assert_eq!(back, v);
        prop_assert_eq!(n, buf.len());
    }

    #[test]
    fn varint_ordering_never_decodes_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..12)) {
        // Decoding arbitrary bytes either fails cleanly or consumes a
        // prefix that re-encodes to the same value.
        if let Ok((v, n)) = decode_u64(&bytes) {
            let mut re = Vec::new();
            encode_u64(v, &mut re);
            // Canonical encodings round-trip; non-canonical (overlong)
            // ones may be shorter when re-encoded.
            prop_assert!(re.len() <= n);
        }
    }
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Double),
        "[a-zA-Z0-9:/. -]{0,40}".prop_map(|s| Value::str(&s)),
        proptest::collection::vec(any::<u8>(), 0..40).prop_map(|b| Value::bytes(&b)),
    ]
}

proptest! {
    #[test]
    fn value_codec_roundtrip(v in value_strategy()) {
        let mut buf = Vec::new();
        encode_value(&v, &mut buf).unwrap();
        let (back, n) = decode_value(&buf).unwrap();
        prop_assert_eq!(back, v);
        prop_assert_eq!(n, buf.len());
    }

    #[test]
    fn list_value_codec_roundtrip(items in proptest::collection::vec(value_strategy(), 0..8)) {
        let v = Value::list(items);
        let mut buf = Vec::new();
        encode_value(&v, &mut buf).unwrap();
        let (back, _) = decode_value(&buf).unwrap();
        prop_assert_eq!(back, v);
    }
}

fn test_schema() -> Arc<Schema> {
    Schema::new(
        "P",
        vec![
            ("name", FieldType::Str),
            ("n", FieldType::Int),
            ("big", FieldType::Long),
            ("d", FieldType::Double),
            ("flag", FieldType::Bool),
            ("blob", FieldType::Bytes),
        ],
    )
    .into_arc()
}

fn row_strategy() -> impl Strategy<Value = Record> {
    (
        "[a-z]{0,20}",
        any::<i32>(),
        any::<i64>(),
        any::<f64>(),
        any::<bool>(),
        proptest::collection::vec(any::<u8>(), 0..30),
    )
        .prop_map(|(name, n, big, d, flag, blob)| {
            record(
                &test_schema(),
                vec![
                    name.into(),
                    Value::Int(n as i64),
                    Value::Int(big),
                    Value::Double(d),
                    Value::Bool(flag),
                    Value::bytes(&blob),
                ],
            )
        })
}

proptest! {
    #[test]
    fn row_codec_roundtrip(r in row_strategy()) {
        let mut buf = Vec::new();
        encode_row(&r, &mut buf).unwrap();
        let (back, n) = decode_row(&test_schema(), &buf).unwrap();
        prop_assert_eq!(back, r);
        prop_assert_eq!(n, buf.len());
    }
}

fn bound_strategy() -> impl Strategy<Value = ScanBound> {
    prop_oneof![
        Just(ScanBound::Unbounded),
        (-2i64..42).prop_map(|k| ScanBound::Incl(Value::Int(k))),
        (-2i64..42).prop_map(|k| ScanBound::Excl(Value::Int(k))),
    ]
}

fn admits(lo: &ScanBound, hi: &ScanBound, k: i64) -> bool {
    let k = Value::Int(k);
    let above = match lo {
        ScanBound::Unbounded => true,
        ScanBound::Incl(b) => k >= *b,
        ScanBound::Excl(b) => k > *b,
    };
    let below = match hi {
        ScanBound::Unbounded => true,
        ScanBound::Incl(b) => k <= *b,
        ScanBound::Excl(b) => k < *b,
    };
    above && below
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Leaf-span splits: over random page sizes, duplicate-heavy keys,
    /// every kind of bound and hints 1–8, the spans are non-empty,
    /// disjoint and contiguous runs of leaves, the same hint cuts the
    /// same spans, and reading them one after another yields exactly the
    /// one-span scan — which itself equals full scan + filter.
    #[test]
    fn btree_spans_concatenate_to_the_scan(
        mut keys in proptest::collection::vec(0i64..40, 1..400),
        page_size in 128usize..1024,
        lo in bound_strategy(),
        hi in bound_strategy(),
        hint in 1usize..9,
    ) {
        keys.sort_unstable();
        let schema = Schema::new("E", vec![("k", FieldType::Int)]).into_arc();
        let path = tmp("btree-spans");
        let mut w = BTreeWriter::with_page_size(&path, Arc::clone(&schema), page_size).unwrap();
        for (i, &k) in keys.iter().enumerate() {
            let r = record(&schema, vec![Value::Int(k)]);
            w.append(&Value::Int(k), &Value::Int(i as i64), &r).unwrap();
        }
        w.finish().unwrap();
        let idx = BTreeIndex::open(&path).unwrap();
        let positions = |scanner: BTreeScanner| -> Vec<i64> {
            scanner.map(|r| r.unwrap().0.as_int().unwrap()).collect()
        };

        let whole = positions(idx.scan(lo.clone(), hi.clone()).unwrap());
        let expected: Vec<i64> = (0..keys.len() as i64)
            .filter(|&i| admits(&lo, &hi, keys[i as usize]))
            .collect();
        prop_assert_eq!(&whole, &expected);

        let spans = idx.scan_spans(lo.clone(), hi.clone(), hint).unwrap();
        prop_assert!(!spans.is_empty() && spans.len() <= hint, "{} spans", spans.len());
        let leaves: Vec<_> = spans.iter().map(BTreeScanner::leaves).collect();
        for span in &leaves {
            prop_assert!(span.start() <= span.end(), "empty span {:?}", span);
        }
        for pair in leaves.windows(2) {
            prop_assert_eq!(*pair[0].end() + 1, *pair[1].start());
        }
        let again: Vec<_> = idx
            .scan_spans(lo.clone(), hi.clone(), hint)
            .unwrap()
            .iter()
            .map(BTreeScanner::leaves)
            .collect();
        prop_assert_eq!(&again, &leaves);
        let joined: Vec<i64> = spans.into_iter().flat_map(positions).collect();
        prop_assert_eq!(joined, whole);
        std::fs::remove_file(&path).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// The B+Tree range-scan contract: a scan over [lo, hi] returns
    /// exactly the entries a full scan + filter would, in order.
    #[test]
    fn btree_range_scan_equals_filter(
        mut keys in proptest::collection::vec(-200i64..200, 1..300),
        lo in -250i64..250,
        width in 0i64..200,
    ) {
        keys.sort_unstable();
        let hi = lo + width;
        let schema = Schema::new("E", vec![("k", FieldType::Int)]).into_arc();
        let path = tmp("btree");
        let mut w = BTreeWriter::with_page_size(&path, Arc::clone(&schema), 512).unwrap();
        for (i, &k) in keys.iter().enumerate() {
            let r = record(&schema, vec![Value::Int(k)]);
            w.append(&Value::Int(k), &Value::Int(i as i64), &r).unwrap();
        }
        w.finish().unwrap();

        let idx = BTreeIndex::open(&path).unwrap();
        let scanned: Vec<i64> = idx
            .scan(ScanBound::Incl(Value::Int(lo)), ScanBound::Incl(Value::Int(hi)))
            .unwrap()
            .map(|r| r.unwrap().1.get("k").unwrap().as_int().unwrap())
            .collect();
        let expected: Vec<i64> = keys
            .iter()
            .copied()
            .filter(|&k| k >= lo && k <= hi)
            .collect();
        prop_assert_eq!(scanned, expected);
        std::fs::remove_file(&path).ok();
    }

    /// Delta-encoded fields reproduce arbitrary integer sequences exactly.
    #[test]
    fn delta_roundtrip_arbitrary_ints(values in proptest::collection::vec(any::<i64>(), 0..200)) {
        let schema = Schema::new("T", vec![("v", FieldType::Int)]).into_arc();
        let path = tmp("delta");
        let none = ShuffleCompression::None;
        let mut w =
            SeqFileWriter::create_encoded(&path, Arc::clone(&schema), none, &["v".into()], &[])
                .unwrap();
        for &v in &values {
            w.append(&record(&schema, vec![Value::Int(v)])).unwrap();
        }
        w.finish().unwrap();
        let back: Vec<i64> = SeqFileReader::open(&path)
            .unwrap()
            .map(|r| r.unwrap().get("v").unwrap().as_int().unwrap())
            .collect();
        prop_assert_eq!(back, values);
        std::fs::remove_file(&path).ok();
    }

    /// Dictionary codes preserve the equality relation exactly.
    #[test]
    fn dict_codes_preserve_equality(strings in proptest::collection::vec("[a-d]{0,4}", 1..150)) {
        let schema = Schema::new("T", vec![("s", FieldType::Str)]).into_arc();
        let path = tmp("dict");
        let none = ShuffleCompression::None;
        let mut w =
            SeqFileWriter::create_encoded(&path, Arc::clone(&schema), none, &[], &["s".into()])
                .unwrap();
        for s in &strings {
            w.append(&record(&schema, vec![s.as_str().into()])).unwrap();
        }
        w.finish().unwrap();
        let codes: Vec<i64> = SeqFileReader::open(&path)
            .unwrap()
            .map(|r| r.unwrap().get("s").unwrap().as_int().unwrap())
            .collect();
        prop_assert_eq!(codes.len(), strings.len());
        for i in 0..strings.len() {
            for j in 0..strings.len() {
                prop_assert_eq!(
                    strings[i] == strings[j],
                    codes[i] == codes[j],
                    "equality must be preserved at ({}, {})", i, j
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }
}

// ---- block codec layer ---------------------------------------------------

use mr_storage::blockcodec::{BlockCodec, BlockReader, BlockWriter, ShuffleCompression};
use mr_storage::StorageError;
use std::io::{Read, Write};

/// Round-trip `payload` through the frame layer, writing it in chunks
/// of `chunk` bytes — adversarial write boundaries must not leak into
/// the decoded stream.
fn frame_roundtrip(codec: ShuffleCompression, payload: &[u8], chunk: usize) -> Vec<u8> {
    let mut w = BlockWriter::new(Vec::new(), codec, None);
    for piece in payload.chunks(chunk.max(1)) {
        w.write_all(piece).unwrap();
    }
    w.flush().unwrap();
    let framed = w.into_inner().unwrap();
    let mut back = Vec::new();
    BlockReader::new(framed.as_slice(), codec.is_framed(), None)
        .read_to_end(&mut back)
        .unwrap();
    back
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every codec round-trips arbitrary bytes under arbitrary write
    /// chunking (1-byte writes, block-size-straddling writes, …).
    #[test]
    fn block_codecs_roundtrip_random_bytes(
        payload in proptest::collection::vec(any::<u8>(), 0..40_000),
        chunk in 1usize..70_000,
    ) {
        for codec in ShuffleCompression::ALL {
            prop_assert_eq!(&frame_roundtrip(codec, &payload, chunk), &payload, "{}", codec);
        }
    }

    /// Repetitive payloads (the spill-run shape) round-trip at every
    /// alignment of the repeat period against the block boundary.
    #[test]
    fn block_codecs_roundtrip_periodic_payloads(
        period in 1usize..200,
        reps in 1usize..2_000,
        phase in 0usize..97,
        seed in any::<u64>(),
    ) {
        let unit: Vec<u8> = (0..period).map(|i| (seed.wrapping_mul(i as u64 + 1) >> 32) as u8).collect();
        let mut payload = unit.repeat(reps);
        payload.drain(..phase.min(payload.len()));
        prop_assert_eq!(&frame_roundtrip(ShuffleCompression::Auto, &payload, 8192), &payload);
    }

    /// The raw codec trait round-trips directly at block granularity,
    /// including empty and single-byte blocks (adversarial boundaries
    /// for the stride probe and the LZW first-symbol path).
    #[test]
    fn codec_trait_roundtrips_blocks(payload in proptest::collection::vec(any::<u8>(), 0..5_000)) {
        use mr_storage::blockcodec::{DeltaVarint, DictBlock, Raw};
        let codecs: [&dyn BlockCodec; 3] = [&Raw, &DictBlock, &DeltaVarint];
        for (i, codec) in codecs.into_iter().enumerate() {
            let mut comp = Vec::new();
            codec.compress(&payload, &mut comp);
            let mut back = Vec::new();
            codec.decompress(&comp, payload.len(), &mut back).unwrap();
            prop_assert_eq!(&back, &payload, "codec {}", i);
        }
    }

    /// Bit-flips anywhere in a framed stream never decode to *wrong
    /// bytes*: the reader either returns the original payload (the flip
    /// landed in slack) or a typed error — silent corruption is the one
    /// outcome the CRC exists to rule out.
    #[test]
    fn frame_bitflips_are_detected_or_harmless(
        payload in proptest::collection::vec(any::<u8>(), 1..4_000),
        flip_seed in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut w = BlockWriter::new(Vec::new(), ShuffleCompression::Auto, None);
        w.write_all(&payload).unwrap();
        w.flush().unwrap();
        let mut framed = w.into_inner().unwrap();
        let at = flip_seed % framed.len();
        framed[at] ^= 1 << bit;
        let mut back = Vec::new();
        match BlockReader::new(framed.as_slice(), true, None).read_to_end(&mut back) {
            Ok(_) => prop_assert_eq!(&back, &payload, "accepted bytes must be the original"),
            Err(e) => {
                let typed: StorageError = e.into();
                let msg = typed.to_string();
                prop_assert!(
                    matches!(typed, StorageError::Corrupt { .. } | StorageError::Io(_)),
                    "{}", msg
                );
            }
        }
    }
}
