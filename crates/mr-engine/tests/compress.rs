//! The compressed-shuffle contract: with any `ShuffleCompression`
//! codec, spilled jobs produce output byte-identical to the
//! uncompressed, unbounded path — across combiners, hierarchical
//! compaction, task retries, and injected IO faults inside the
//! compressed streams — while the `spill_bytes_raw` /
//! `spill_bytes_written` counters expose what the codec saved.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mr_engine::{run_job, Builtin, FaultPlan, InputSpec, JobConfig, ShuffleCompression};
use mr_ir::asm::parse_function;
use mr_ir::record::{record, Record};
use mr_ir::schema::{FieldType, Schema};
use mr_ir::value::Value;
use mr_storage::fault::IoSite;
use mr_storage::seqfile::write_seqfile;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mr-engine-compress-tests");
    std::fs::create_dir_all(&dir).unwrap();
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    dir.join(format!("{name}-{}-{n}", std::process::id()))
}

fn schema() -> Arc<Schema> {
    Schema::new("T", vec![("k", FieldType::Str), ("v", FieldType::Int)]).into_arc()
}

fn emit_kv_mapper() -> mr_ir::function::Function {
    parse_function(
        r#"
        func map(key, value) {
          r0 = param value
          r1 = field r0.k
          r2 = field r0.v
          emit r1, r2
          ret
        }
        "#,
    )
    .unwrap()
}

/// A low-cardinality input: the redundancy the codecs exploit.
fn low_cardinality_input(name: &str, n: i64, keys: i64) -> PathBuf {
    let s = schema();
    let records: Vec<Record> = (0..n)
        .map(|i| {
            record(
                &s,
                vec![
                    format!("http://site.example.com/page/{:03}", i % keys).into(),
                    Value::Int(i % 11),
                ],
            )
        })
        .collect();
    let path = tmp(name);
    write_seqfile(&path, s, records).unwrap();
    path
}

fn job(input: &Path, budget: Option<usize>, codec: ShuffleCompression) -> JobConfig {
    let mut j = JobConfig::ir_job(
        "compress-test",
        InputSpec::SeqFile {
            path: input.to_path_buf(),
        },
        emit_kv_mapper(),
        Builtin::Sum,
    )
    .with_reducers(3)
    .with_parallelism(2)
    .with_shuffle_codec(codec);
    j.shuffle_buffer_bytes = budget;
    j
}

/// Near-distinct keys: the adversarial case, where codecs find little
/// redundancy but must not inflate the spill much either.
fn random_key_input(name: &str, n: i64) -> PathBuf {
    let s = schema();
    let records: Vec<Record> = (0..n)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            record(
                &s,
                vec![
                    format!("{}.{}", h >> 40, h & 0xffff).into(),
                    Value::Int(i % 11),
                ],
            )
        })
        .collect();
    let path = tmp(name);
    write_seqfile(&path, s, records).unwrap();
    path
}

/// Every codec produces output byte-identical to the uncompressed,
/// unbounded baseline, at 64 keys and at random keys with the budget
/// at an eighth of the shuffle, and the byte counters prove compression
/// actually engaged (or didn't, for `None`/`Raw`). The spill ratio
/// (`spill_bytes_written / spill_bytes_raw`) stays under a ceiling per
/// codec: the ratio measured when the ceiling was set (listed below)
/// × 1.25, the tolerance of the timed bench gate these checks replaced,
/// so a codec that gets materially worse at its one job fails. `auto`
/// gets no tolerance beyond its rounding: its pins equal the best
/// single-codec ratio measured before it replaced them (stride-delta at
/// 64 keys, LZW at random keys), and it must never do worse. One map
/// worker pins every spill, so the ratio is the same on any machine.
#[test]
fn every_codec_matches_uncompressed_output() {
    use ShuffleCompression::{Auto, Raw};
    let none = ShuffleCompression::None;
    let inputs = [
        (
            "64 keys",
            low_cardinality_input("identity-64", 4000, 64),
            [(none, 1.0), (Raw, 1.0023), (Auto, 0.1110)],
        ),
        (
            "random keys",
            random_key_input("identity-random", 4000),
            [(none, 1.0), (Raw, 1.0046), (Auto, 0.8829)],
        ),
    ];
    for (keys, input, ratios) in inputs {
        let baseline = run_job(&job(&input, None, none).with_parallelism(1)).unwrap();
        let budget = baseline.counters.shuffle_bytes as usize / 8;
        for (codec, measured) in ratios {
            let capped = run_job(&job(&input, Some(budget), codec).with_parallelism(1)).unwrap();
            let cell = format!("{keys}/{codec}");
            assert_eq!(capped.output, baseline.output, "{cell}");
            let c = &capped.counters;
            assert!(c.spill_count > 0, "{cell}: the budget must force spills");
            match codec {
                ShuffleCompression::None => {
                    assert_eq!(c.spill_bytes_written, c.spill_bytes_raw, "{cell}")
                }
                // Frame headers cost a little; CRCs buy detection.
                Raw => assert!(c.spill_bytes_written >= c.spill_bytes_raw, "{cell}"),
                Auto => assert!(
                    c.spill_bytes_written < c.spill_bytes_raw,
                    "{cell}: {} written vs {} raw",
                    c.spill_bytes_written,
                    c.spill_bytes_raw
                ),
            }
            let ratio = capped
                .compression_ratio()
                .expect("spilled jobs report a ratio");
            let ceiling = match codec {
                Auto => measured + 0.00005,
                _ => measured * 1.25,
            };
            assert!(
                ratio <= ceiling,
                "{cell}: spill ratio {ratio:.4} above its ceiling {ceiling:.5}"
            );
        }
    }
}

/// Compressed frames survive the attempt/commit protocol: scheduled
/// task failures and transient IO faults *inside* the compressed
/// streams (`block-read` fires per frame) retry idempotently and the
/// output stays byte-identical to the fault-free uncompressed run.
#[test]
fn compressed_frames_commit_and_retry_idempotently() {
    let input = low_cardinality_input("retry", 2500, 9);
    let baseline = run_job(&job(&input, None, ShuffleCompression::None)).unwrap();
    let schedules: Vec<FaultPlan> = vec![
        FaultPlan::new().fail_map(0, 0, 5),
        FaultPlan::new().fail_reduce(0, 0, 0),
        FaultPlan::new()
            .fail_io(IoSite::BlockRead, 1)
            .fail_io(IoSite::BlockWrite, 3),
        FaultPlan::new()
            .fail_map(1, 0, 0)
            .fail_reduce(1, 0, 2)
            .fail_io(IoSite::RunRead, 2)
            .fail_io(IoSite::BlockRead, 0),
    ];
    for codec in [ShuffleCompression::Raw, ShuffleCompression::Auto] {
        for (i, plan) in schedules.iter().enumerate() {
            let mut j = job(&input, Some(400), codec);
            j.max_task_attempts = 3;
            j.fault_plan = Some(Arc::new(plan.clone()));
            let result = run_job(&j).unwrap_or_else(|e| panic!("{codec} schedule {i}: {e}"));
            assert_eq!(
                result.output, baseline.output,
                "{codec} schedule {i} diverged"
            );
            assert!(
                result.counters.task_retries > 0,
                "{codec} schedule {i}: the schedule must actually bite"
            );
        }
    }
}

/// An injected `block-read` fault with no retries surfaces as a typed
/// task failure — compression does not turn IO errors into bad data.
#[test]
fn unretried_block_fault_fails_the_job() {
    let input = low_cardinality_input("failfast", 1200, 5);
    let mut j = job(&input, Some(256), ShuffleCompression::Auto);
    j.fault_plan = Some(Arc::new(FaultPlan::new().fail_io(IoSite::BlockRead, 0)));
    match run_job(&j) {
        Err(mr_engine::EngineError::TaskFailed { .. }) => {}
        other => panic!("expected TaskFailed, got {other:?}"),
    }
}

/// Hierarchical compaction rewrites compressed runs into compressed
/// intermediates (> MERGE_FACTOR runs per partition) and the merged
/// output is still byte-identical.
#[test]
fn compaction_rewrites_stay_compressed_and_identical() {
    let input = low_cardinality_input("compact", 1500, 6);
    let baseline = run_job(&job(&input, None, ShuffleCompression::None)).unwrap();
    for codec in [ShuffleCompression::None, ShuffleCompression::Auto] {
        // One worker + one reducer + a starvation budget: every few
        // records spill, so the single partition collects far more
        // than MERGE_FACTOR runs and must compact.
        let mut j = job(&input, Some(64), codec)
            .with_reducers(1)
            .with_parallelism(1);
        j.sort_output = true;
        let result = run_job(&j).unwrap();
        assert!(
            result.counters.spill_count > mr_engine::merge::MERGE_FACTOR as u64,
            "{codec}: wanted > {} runs, got {}",
            mr_engine::merge::MERGE_FACTOR,
            result.counters.spill_count
        );
        assert_eq!(result.output, baseline.output, "{codec}");
    }
}

/// The codec composes with map-side combining: folding happens above
/// the block layer, so the combined + compressed pipeline still
/// matches the plain baseline byte for byte.
#[test]
fn codec_composes_with_combiners() {
    let input = low_cardinality_input("combine", 4000, 5);
    let baseline = run_job(&job(&input, None, ShuffleCompression::None)).unwrap();
    for codec in [ShuffleCompression::Raw, ShuffleCompression::Auto] {
        let j = job(&input, Some(512), codec).with_declared_combiner();
        let result = run_job(&j).unwrap();
        assert_eq!(result.output, baseline.output, "{codec}");
        assert!(result.counters.combine_in > result.counters.combine_out);
    }
}
