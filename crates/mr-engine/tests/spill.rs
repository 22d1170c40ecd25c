//! The external-shuffle contract: a job run with a tiny
//! `shuffle_buffer_bytes` budget — spilling sorted runs and k-way
//! merging them at reduce time — produces output byte-identical to the
//! unbounded in-memory path, and the spill counters account for the
//! detour.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use mr_engine::{run_job, Builtin, InputSpec, JobConfig};
use mr_ir::asm::parse_function;
use mr_ir::record::{record, Record};
use mr_ir::schema::{FieldType, Schema};
use mr_ir::value::Value;
use mr_storage::seqfile::write_seqfile;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mr-engine-spill-tests");
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

fn write_pairs(name: &str, pairs: &[(String, i64)]) -> PathBuf {
    let s = schema();
    let records: Vec<Record> = pairs
        .iter()
        .map(|(k, v)| record(&s, vec![k.as_str().into(), Value::Int(*v)]))
        .collect();
    let path = tmp(name);
    write_seqfile(&path, s, records).unwrap();
    path
}

/// The acceptance-criteria test: a budget far below the input size
/// forces ≥3 spills per reducer (visible in the counters) and the text
/// output files are byte-for-byte the unbounded path's.
#[test]
fn forced_spills_output_byte_identical() {
    let num_reducers = 2usize;
    // ~4000 pairs × ≥12 accounted bytes ≫ the 256-byte budget.
    let pairs: Vec<(String, i64)> = (0..4000)
        .map(|i| (format!("key-{:03}", i % 200), i))
        .collect();
    let path = write_pairs("forced", &pairs);

    let job = |budget: Option<usize>, outdir: &PathBuf| {
        let mut j = JobConfig::ir_job(
            "spill-vs-memory",
            InputSpec::SeqFile { path: path.clone() },
            emit_kv_mapper(),
            Builtin::Sum,
        )
        .with_reducers(num_reducers)
        .with_text_output(outdir);
        j.shuffle_buffer_bytes = budget;
        j
    };

    let mem_dir = tmp("forced-mem-out");
    let spill_dir = tmp("forced-spill-out");
    let unbounded = run_job(&job(None, &mem_dir)).unwrap();
    let capped = run_job(&job(Some(256), &spill_dir)).unwrap();

    assert_eq!(unbounded.counters.spill_count, 0);
    assert!(
        capped.counters.spill_count >= 3 * num_reducers as u64,
        "expected ≥3 spills per reducer, got {} total",
        capped.counters.spill_count
    );
    assert!(capped.counters.spilled_records > 0);
    assert!(capped.counters.spill_bytes_written > 0);

    assert_eq!(unbounded.output_files.len(), capped.output_files.len());
    for (a, b) in unbounded.output_files.iter().zip(&capped.output_files) {
        let mem_bytes = std::fs::read(a).unwrap();
        let spill_bytes = std::fs::read(b).unwrap();
        assert!(!mem_bytes.is_empty());
        assert_eq!(mem_bytes, spill_bytes, "{} != {}", a.display(), b.display());
    }
}

/// With one map worker the emission order is deterministic, so even an
/// order-sensitive reducer (Identity, no final output sort) must see
/// the exact same value sequence from the merge as from the in-memory
/// stable sort — this pins the run-index tie-break.
#[test]
fn merge_preserves_emission_order_within_keys() {
    let pairs: Vec<(String, i64)> = (0..1500).map(|i| (format!("k{}", i % 7), i)).collect();
    let path = write_pairs("order", &pairs);
    let run = |budget: Option<usize>| {
        let mut j = JobConfig::ir_job(
            "order",
            InputSpec::SeqFile { path: path.clone() },
            emit_kv_mapper(),
            Builtin::Identity,
        )
        .with_parallelism(1)
        .with_reducers(3);
        j.sort_output = false;
        j.shuffle_buffer_bytes = budget;
        run_job(&j).unwrap()
    };
    let unbounded = run(None);
    // A 32-byte budget spills on every flush — hundreds of runs per
    // partition, far past MERGE_FACTOR, so the hierarchical compaction
    // path is exercised by this order-sensitive comparison too.
    let capped = run(Some(32));
    assert!(
        capped.counters.spill_count > 3 * mr_engine::merge::MERGE_FACTOR as u64,
        "want enough runs to force multi-pass merging, got {}",
        capped.counters.spill_count
    );
    assert_eq!(unbounded.output, capped.output);
}

/// The spill counters, exact, for a budget sweep at fractions of the
/// resident shuffle volume. One map worker pins where every staging
/// drain and bucket spill falls, so the numbers are the same on any
/// machine and a change that spills once more fails here. The keys are
/// near-distinct (like `GROUP BY sourceIP`): nothing folds, the whole
/// shuffle has to travel.
#[test]
fn budget_sweep_spills_exactly() {
    let pairs: Vec<(String, i64)> = (0..6000)
        .map(|i| (format!("10.{}.{}", i % 97, (i * 7919) % 6007), i % 1000))
        .collect();
    let path = write_pairs("sweep", &pairs);
    let run = |budget: Option<usize>| {
        let mut j = JobConfig::ir_job(
            "sweep",
            InputSpec::SeqFile { path: path.clone() },
            emit_kv_mapper(),
            Builtin::Sum,
        )
        .with_reducers(4)
        .with_parallelism(1);
        j.shuffle_buffer_bytes = budget;
        run_job(&j).unwrap()
    };
    let resident = run(None);
    let shuffle = resident.counters.shuffle_bytes as usize;
    assert_eq!(shuffle, 118_272, "the budgets below are fractions of this");
    for (divisor, spills, records) in [(2, 14, 5285), (8, 62, 5833), (32, 252, 5923)] {
        let capped = run(Some(shuffle / divisor));
        assert_eq!(capped.output, resident.output, "shuffle/{divisor}");
        let c = &capped.counters;
        assert_eq!(
            (c.spill_count, c.spilled_records),
            (spills, records),
            "shuffle/{divisor}: (spill_count, spilled_records)"
        );
    }
}

/// Spill runs live in a private directory that is removed when the job
/// finishes — even when the parent dir is user-supplied.
#[test]
fn spill_dir_cleaned_up() {
    let pairs: Vec<(String, i64)> = (0..500).map(|i| (format!("k{i}"), i)).collect();
    let path = write_pairs("cleanup", &pairs);
    let parent = tmp("cleanup-parent");
    std::fs::create_dir_all(&parent).unwrap();
    let job = JobConfig::ir_job(
        "cleanup",
        InputSpec::SeqFile { path },
        emit_kv_mapper(),
        Builtin::Count,
    )
    .with_shuffle_buffer(64)
    .with_spill_dir(&parent);
    let result = run_job(&job).unwrap();
    assert!(result.counters.spill_count > 0);
    let leftovers = std::fs::read_dir(&parent).unwrap().count();
    assert_eq!(leftovers, 0, "spill subdirectory should be removed");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For arbitrary key distributions, reducer counts, and budgets,
    /// the spilled k-way merge path equals the in-memory sort path.
    #[test]
    fn spilled_merge_equals_in_memory_sort(
        pairs in proptest::collection::vec(("[a-h]{1,3}", -1000i64..1000), 0..400),
        reducers in 1usize..5,
        budget in 32usize..4096,
    ) {
        let path = write_pairs("prop", &pairs);
        let run = |budget: Option<usize>| {
            let mut j = JobConfig::ir_job(
                "prop",
                InputSpec::SeqFile { path: path.clone() },
                emit_kv_mapper(),
                Builtin::Sum,
            )
            .with_reducers(reducers);
            j.shuffle_buffer_bytes = budget;
            run_job(&j).unwrap()
        };
        let unbounded = run(None);
        let capped = run(Some(budget));
        prop_assert_eq!(&unbounded.output, &capped.output);
        prop_assert_eq!(
            unbounded.counters.reduce_input_groups,
            capped.counters.reduce_input_groups
        );
        // Conservation: a pair spills at most once, and only emitted
        // pairs can spill.
        prop_assert!(
            capped.counters.spilled_records <= capped.counters.map_output_records
        );
        std::fs::remove_file(&path).ok();
    }
}
