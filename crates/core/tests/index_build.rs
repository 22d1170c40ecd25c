//! Index builds against independent references, and their commit point.
//!
//! A selection build is a MapReduce job whose map drops rows outside the
//! view and whose single reducer streams groups into the B+Tree writer.
//! Whatever the shuffle does — resident or spilled, one split or many —
//! the artifact must be byte-equal to the naive build: read every
//! record, evaluate the key, filter, sort by `(key, [orig_key, record])`
//! and write. And a rebuild that fails must leave the registered
//! artifact exactly as it was.

use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use manimal::{IndexGenProgram, IndexKind, Manimal};
use mr_analysis::expr::Expr;
use mr_engine::InputSpec;
use mr_ir::record::record;
use mr_ir::schema::{FieldType, Schema};
use mr_ir::value::Value;
use mr_storage::btree::{BTreeWriter, ScanBound};
use mr_storage::seqfile::{write_seqfile, SeqFileMeta};
use mr_workloads::data::{generate_webpages, WebPagesConfig};
use mr_workloads::queries::{selection_query, threshold_for_selectivity};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("manimal-index-build")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `n` WebPages-shaped rows (three sparse-index blocks at 10 000, so the
/// build reads several splits) whose rank is `rank(i)`.
fn pages(path: &Path, n: i64, rank: impl Fn(i64) -> i64) {
    let schema = Schema::new(
        "WebPages",
        vec![
            ("url", FieldType::Str),
            ("rank", FieldType::Int),
            ("content", FieldType::Str),
        ],
    )
    .into_arc();
    let rows = (0..n).map(|i| {
        let content = "c".repeat((i % 61) as usize);
        record(
            &schema,
            vec![
                format!("http://site/{i}").into(),
                rank(i).into(),
                content.into(),
            ],
        )
    });
    let rows: Vec<_> = rows.collect();
    write_seqfile(path, schema, rows).unwrap();
}

fn selection(
    input: &Path,
    output: PathBuf,
    view_ranges: Vec<(ScanBound, ScanBound)>,
    projected: bool,
) -> IndexGenProgram {
    IndexGenProgram {
        kind: IndexKind::Selection {
            key: "value.rank".into(),
            covered: vec![],
            projected_fields: projected.then(|| vec!["url".into(), "rank".into()]),
        },
        input: input.to_path_buf(),
        output,
        key_expr: Some(Expr::value_field("rank")),
        view_ranges,
    }
}

/// The naive build the engine's must equal byte for byte.
fn reference_build(prog: &IndexGenProgram, path: &Path) {
    let meta = SeqFileMeta::open(&prog.input).unwrap();
    let expr = prog.key_expr.as_ref().unwrap();
    let IndexKind::Selection {
        projected_fields, ..
    } = &prog.kind
    else {
        panic!("not a selection program");
    };
    let stored = match projected_fields {
        Some(fields) => Arc::new(meta.schema.project(fields)),
        None => Arc::clone(&meta.schema),
    };
    let mut rows: Vec<(Value, Value)> = Vec::new();
    for (i, rec) in meta.read_all().unwrap().enumerate() {
        let (key, value) = (Value::Int(i as i64), Value::from(rec.unwrap()));
        let index_key = expr.eval(&key, &value).unwrap();
        let in_view = prog.view_ranges.is_empty()
            || (prog.view_ranges.iter())
                .any(|(lo, hi)| ScanBound::range_admits(lo, hi, &index_key));
        if in_view {
            rows.push((index_key, Value::list(vec![key, value])));
        }
    }
    rows.sort();
    let mut w = BTreeWriter::create(path, Arc::clone(&stored)).unwrap();
    for (index_key, packed) in rows {
        let Value::List(kv) = packed else {
            unreachable!()
        };
        let rec = kv[1].as_record().unwrap();
        w.append(&index_key, &kv[0], &rec.project_to(Arc::clone(&stored)))
            .unwrap();
    }
    w.finish().unwrap();
}

/// Every shape of selection build — full clustered index, two disjoint
/// ranges with inclusive and exclusive ends, a projected view, ~200
/// duplicates per key (groups straddling 64 KiB leaves), and the same
/// duplicates through a 4 KiB shuffle that spills — is byte-equal to
/// the reference.
#[test]
fn selection_builds_are_byte_equal_to_the_reference() {
    let dir = tmpdir("reference");
    let spread = dir.join("spread.seq");
    pages(&spread, 10_000, |i| (i * 7_919) % 1_000);
    let dups = dir.join("dups.seq");
    pages(&dups, 10_000, |i| (i * 31) % 50);
    let two_ranges = vec![
        (
            ScanBound::Incl(Value::Int(100)),
            ScanBound::Excl(Value::Int(200)),
        ),
        (
            ScanBound::Excl(Value::Int(500)),
            ScanBound::Incl(Value::Int(600)),
        ),
    ];
    let low_half = vec![(ScanBound::Unbounded, ScanBound::Excl(Value::Int(25)))];
    let cases = [
        ("full", &spread, vec![], false, None),
        ("ranges", &spread, two_ranges.clone(), false, None),
        ("projected", &spread, two_ranges, true, None),
        ("dups", &dups, vec![], false, None),
        ("dups-spill", &dups, low_half, true, Some(4096)),
    ];
    let mut differ = Vec::new();
    for (name, input, ranges, projected, budget) in cases {
        let built = selection(input, dir.join(format!("{name}.idx")), ranges, projected);
        let entry = built.run(budget, Default::default()).unwrap();
        let expected = dir.join(format!("{name}.ref.idx"));
        reference_build(&built, &expected);
        let got = std::fs::read(&built.output).unwrap();
        assert_eq!(entry.index_bytes, got.len() as u64, "{name}");
        if got != std::fs::read(&expected).unwrap() {
            differ.push(name);
        }
    }
    assert!(differ.is_empty(), "differ from the reference: {differ:?}");
}

/// Temp files a build leaves next to its artifact.
fn leftover_tmp_files(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "tmp"))
        .collect()
}

/// A rebuild whose input fails mid-scan returns the error and leaves
/// the registered artifact byte-identical, still planned, with no temp
/// file behind — for a MapReduce-built selection and the block-parallel
/// projection and delta builds alike.
#[test]
fn failed_rebuild_keeps_the_registered_artifact() {
    let dir = tmpdir("rebuild");
    let input = dir.join("webpages.seq");
    generate_webpages(
        &input,
        &WebPagesConfig {
            pages: 10_000,
            content_size: 20,
            ..WebPagesConfig::default()
        },
    )
    .unwrap();
    let manimal = Manimal::new(dir.join("work")).unwrap();
    let submission = manimal.submit(&selection_query(threshold_for_selectivity(10)), &input);
    let projection = IndexGenProgram {
        kind: IndexKind::Projection {
            fields: vec!["url".into(), "rank".into()],
        },
        input: input.clone(),
        output: dir.join("work").join("webpages.proj.idx"),
        key_expr: None,
        view_ranges: vec![],
    };
    let delta = IndexGenProgram {
        kind: IndexKind::Delta {
            fields: vec!["rank".into()],
            projected: Some(vec!["url".into(), "rank".into()]),
        },
        input: input.clone(),
        output: dir.join("work").join("webpages.projdelta.idx"),
        key_expr: None,
        view_ranges: vec![],
    };
    let programs = [&submission.index_programs[0], &projection, &delta];
    let before: Vec<Vec<u8>> = programs
        .iter()
        .map(|prog| {
            let entry = manimal.build_index(prog).unwrap();
            std::fs::read(entry.index_path).unwrap()
        })
        .collect();
    assert!(matches!(
        manimal.plan(&submission).unwrap().input,
        InputSpec::BTreeRanges { .. }
    ));

    // An implausible row length at the second block's first row: every
    // reader of that block fails there, after the first block is read.
    let second_block = SeqFileMeta::open(&input).unwrap().blocks[1].0;
    let mut f = std::fs::OpenOptions::new()
        .write(true)
        .open(&input)
        .unwrap();
    f.seek(SeekFrom::Start(second_block)).unwrap();
    f.write_all(&[0xff, 0xff, 0xff, 0xff, 0x7f]).unwrap();
    drop(f);

    for (prog, before) in programs.iter().zip(&before) {
        assert!(manimal.build_index(prog).is_err(), "{prog}");
        assert!(
            std::fs::read(&prog.output).unwrap() == *before,
            "{prog}: the failed rebuild touched the registered artifact"
        );
        let parent = prog.output.parent().unwrap();
        assert_eq!(leftover_tmp_files(parent), Vec::<PathBuf>::new());
    }
    let plan = manimal.plan(&submission).unwrap();
    assert!(
        matches!(plan.input, InputSpec::BTreeRanges { .. }),
        "{:?}",
        plan.applied
    );
}
