//! The map-side combining contract: with a combiner plugged in, a job —
//! spilling or not — produces output byte-identical to the combiner-free
//! run, while the spill counters collapse on low-cardinality group-bys
//! and `combine_in > combine_out` proves pairs were folded.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use proptest::prelude::*;

use mr_engine::{
    run_job, Builtin, FnMapperFactory, InputSpec, JobConfig, JobResult, ReducerFactory,
};
use mr_ir::asm::parse_function;
use mr_ir::record::{record, Record};
use mr_ir::schema::{FieldType, Schema};
use mr_ir::value::Value;
use mr_storage::seqfile::write_seqfile;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mr-engine-combine-tests");
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

fn run(path: &Path, reducer: Builtin, budget: Option<usize>, combining: bool) -> JobResult {
    let mut j = JobConfig::ir_job(
        "combine-contract",
        InputSpec::SeqFile {
            path: path.to_path_buf(),
        },
        emit_kv_mapper(),
        reducer,
    )
    .with_reducers(2)
    // Pin the worker count so each worker's staging share is large
    // enough to hold many pairs — the regime combiners exist for (a
    // share of a few bytes flushes pairs one at a time and leaves
    // nothing to fold).
    .with_parallelism(2);
    j.shuffle_buffer_bytes = budget;
    if combining {
        j = j.with_declared_combiner();
        assert!(j.combiner.is_some(), "{reducer:?} declares a combiner");
    }
    run_job(&j).unwrap()
}

/// The acceptance-criteria test: a low-cardinality group-by forced
/// through ≥3 spills per reducer produces byte-identical output with
/// the combiner active, while spilled records and bytes drop ≥5× and
/// the combine counters prove the folding.
#[test]
fn spilling_combined_sum_is_byte_identical_and_5x_smaller() {
    let num_reducers = 2u64;
    // 6000 pairs over 8 distinct keys: the shape combiners exist for.
    let pairs: Vec<(String, i64)> = (0..6000)
        .map(|i| (format!("key-{}", i % 8), i % 101))
        .collect();
    let path = write_pairs("accept", &pairs);

    // 2 KiB across 2 workers + 2 reducers: each worker stages ~40 pairs
    // per flush (folded to ≤8 partials) and each bucket spills ~40
    // resident pairs per run — ≥3 spills per reducer either way.
    let plain = run(&path, Builtin::Sum, Some(2048), false);
    let combined = run(&path, Builtin::Sum, Some(2048), true);

    assert!(
        plain.counters.spill_count >= 3 * num_reducers,
        "baseline must spill ≥3 times per reducer, got {}",
        plain.counters.spill_count
    );
    assert_eq!(plain.output, combined.output, "output must be identical");

    // The whole point: the shuffle's disk traffic collapses.
    assert!(
        plain.counters.spilled_records >= 5 * combined.counters.spilled_records.max(1),
        "spilled records {} vs {}",
        plain.counters.spilled_records,
        combined.counters.spilled_records
    );
    assert!(
        plain.counters.spill_bytes_written >= 5 * combined.counters.spill_bytes_written.max(1),
        "spill bytes {} vs {}",
        plain.counters.spill_bytes_written,
        combined.counters.spill_bytes_written
    );

    // Counter hygiene: folding happened, and only on the combining run.
    assert!(combined.counters.combine_in > combined.counters.combine_out);
    assert_eq!(plain.counters.combine_in, 0);
    assert_eq!(plain.counters.combine_out, 0);
    // Emission-side counters are pre-combine, so they agree across runs.
    assert_eq!(
        plain.counters.map_output_records,
        combined.counters.map_output_records
    );
    assert_eq!(
        plain.counters.reduce_input_groups,
        combined.counters.reduce_input_groups
    );
}

/// The combine counters, exact, on 16 keys (the table folds nearly
/// everything) and on distinct keys (nothing to fold: the table bails
/// out to pass-through at its first drain), each at two budgets. One
/// map worker pins where every drain, spill and bail-out check falls,
/// so the numbers are the same on any machine. Every run also holds the
/// site-1 invariant: no pair is folded twice on the map side.
#[test]
fn combine_counters_are_exact_on_16_and_distinct_keys() {
    for (keys, cases) in [
        (16, [(4, (6000, 16, 0)), (16, (6000, 16, 0))]),
        (6000, [(4, (6398, 6398, 5250)), (16, (6113, 6113, 5812))]),
    ] {
        let pairs: Vec<(String, i64)> = (0..6000)
            .map(|i| (format!("10.0.{}", (i * 7919) % keys), i % 101))
            .collect();
        let path = write_pairs("exact", &pairs);
        let run = |budget: Option<usize>, combining: bool| {
            let mut j = JobConfig::ir_job(
                "exact",
                InputSpec::SeqFile { path: path.clone() },
                emit_kv_mapper(),
                Builtin::Sum,
            )
            .with_reducers(4)
            .with_parallelism(1);
            j.shuffle_buffer_bytes = budget;
            if combining {
                j = j.with_declared_combiner();
            }
            run_job(&j).unwrap()
        };
        let shuffle = run(None, false).counters.shuffle_bytes as usize;
        for (divisor, expect) in cases {
            let budget = Some(shuffle / divisor);
            let plain = run(budget, false);
            let combined = run(budget, true);
            assert_eq!(
                combined.output, plain.output,
                "{keys} keys, shuffle/{divisor}"
            );
            let c = &combined.counters;
            assert!(
                c.combine_in <= c.map_output_records + c.spilled_records,
                "{keys} keys, shuffle/{divisor}: a pair was re-folded on the map side \
                 ({} in > {} emitted + {} spilled)",
                c.combine_in,
                c.map_output_records,
                c.spilled_records
            );
            assert_eq!(
                (c.combine_in, c.combine_out, c.combine_bypassed),
                expect,
                "{keys} keys, shuffle/{divisor}: (combine_in, combine_out, combine_bypassed)"
            );
        }
    }
}

/// Text-file output is byte-for-byte identical too (the same check the
/// spill suite applies to the external shuffle).
#[test]
fn combined_text_output_files_byte_identical() {
    let pairs: Vec<(String, i64)> = (0..3000).map(|i| (format!("k{}", i % 5), i % 47)).collect();
    let path = write_pairs("textout", &pairs);
    let outdirs = (tmp("plain-out"), tmp("combined-out"));
    let job = |outdir: &PathBuf, combining: bool| {
        let mut j = JobConfig::ir_job(
            "text",
            InputSpec::SeqFile { path: path.clone() },
            emit_kv_mapper(),
            Builtin::Sum,
        )
        .with_reducers(3)
        .with_shuffle_buffer(200)
        .with_text_output(outdir);
        if combining {
            j = j.with_declared_combiner();
        }
        j
    };
    let plain = run_job(&job(&outdirs.0, false)).unwrap();
    let combined = run_job(&job(&outdirs.1, true)).unwrap();
    assert_eq!(plain.output_files.len(), combined.output_files.len());
    for (a, b) in plain.output_files.iter().zip(&combined.output_files) {
        let pa = std::fs::read(a).unwrap();
        let pb = std::fs::read(b).unwrap();
        assert!(!pa.is_empty());
        assert_eq!(pa, pb, "{} != {}", a.display(), b.display());
    }
}

/// Every builtin that declares a combiner matches its combiner-free
/// output, spilling and resident alike.
#[test]
fn all_declared_combiners_match_raw_reducers() {
    let pairs: Vec<(String, i64)> = (0..2500)
        .map(|i| (format!("key-{}", (i * 7) % 11), (i % 201) - 100))
        .collect();
    let path = write_pairs("builtins", &pairs);
    for reducer in [
        Builtin::Sum,
        Builtin::Count,
        Builtin::Max,
        Builtin::Min,
        Builtin::SumDropKey,
    ] {
        for budget in [None, Some(128), Some(2048)] {
            let plain = run(&path, reducer, budget, false);
            let combined = run(&path, reducer, budget, true);
            assert_eq!(
                plain.output, combined.output,
                "{reducer:?} with budget {budget:?}"
            );
        }
    }
}

/// Reducers without a declared combiner run the plain pipeline even
/// when asked — `with_declared_combiner` is a no-op for them.
#[test]
fn undeclared_combiners_fall_back_cleanly() {
    let pairs: Vec<(String, i64)> = (0..500).map(|i| (format!("k{}", i % 3), i)).collect();
    let path = write_pairs("fallback", &pairs);
    for reducer in [Builtin::Identity, Builtin::First] {
        let j = JobConfig::ir_job(
            "fallback",
            InputSpec::SeqFile { path: path.clone() },
            emit_kv_mapper(),
            reducer,
        )
        .with_shuffle_buffer(128)
        .with_declared_combiner();
        assert!(j.combiner.is_none());
        let result = run_job(&j).unwrap();
        assert_eq!(result.counters.combine_in, 0);
        assert!(result.counters.spill_count > 0);
    }
}

/// A combiner error (non-numeric value under Sum) surfaces as a job
/// error instead of corrupting output.
#[test]
fn combiner_error_propagates() {
    let s = Schema::new("S", vec![("k", FieldType::Str), ("v", FieldType::Str)]).into_arc();
    let records: Vec<Record> = (0..10)
        .map(|i| record(&s, vec!["k".into(), format!("s{i}").into()]))
        .collect();
    let path = tmp("badsum");
    write_seqfile(&path, s, records).unwrap();
    let j = JobConfig::ir_job(
        "badsum",
        InputSpec::SeqFile { path },
        emit_kv_mapper(),
        Builtin::Sum,
    )
    .with_declared_combiner();
    // The combiner fails inside a map attempt, so the job surfaces an
    // exhausted task whose cause is the combiner error.
    match run_job(&j) {
        Err(mr_engine::EngineError::TaskFailed { cause, .. }) => {
            assert!(
                matches!(*cause, mr_engine::EngineError::Combine(_)),
                "{cause}"
            );
        }
        other => panic!("expected TaskFailed(Combine), got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For arbitrary key distributions, reducers, parallelism, and
    /// budgets, the combining pipeline equals the combiner-free one.
    #[test]
    fn combined_output_equals_plain_output(
        pairs in proptest::collection::vec(("[a-e]{1,2}", -500i64..500), 0..300),
        reducer_pick in 0usize..4,
        budget in prop_oneof![Just(None), (64usize..2048).prop_map(Some)],
        parallelism in 1usize..5,
    ) {
        let reducer = [Builtin::Sum, Builtin::Count, Builtin::Max, Builtin::Min][reducer_pick];
        let path = write_pairs("prop", &pairs);
        let run = |combining: bool| {
            let mut j = JobConfig::ir_job(
                "prop",
                InputSpec::SeqFile { path: path.clone() },
                emit_kv_mapper(),
                reducer,
            )
            .with_reducers(3)
            .with_parallelism(parallelism);
            j.shuffle_buffer_bytes = budget;
            if combining {
                j = j.with_declared_combiner();
            }
            run_job(&j).unwrap()
        };
        let plain = run(false);
        let combined = run(true);
        prop_assert_eq!(&plain.output, &combined.output);
        prop_assert_eq!(
            plain.counters.reduce_input_groups,
            combined.counters.reduce_input_groups
        );
        // A combiner can only shrink the spill, never grow it.
        prop_assert!(
            combined.counters.spilled_records <= plain.counters.spilled_records
        );
        std::fs::remove_file(&path).ok();
    }
}

/// One emitted value or key: an integer payload, as `Int` or `Double`.
fn numeric(as_double: bool, n: i64) -> Value {
    if as_double {
        Value::Double(n as f64)
    } else {
        Value::Int(n)
    }
}

/// What a combiner-free MapReduce makes of `stream`: a stable sort by
/// key, each run of equal keys handed — first key, values in emission
/// order — to the raw reducer, the output sorted like the job sorts it.
/// No engine code but the reducer itself.
fn raw_reduce(reducer: Builtin, stream: &[(Value, Value)]) -> Vec<(Value, Value)> {
    let mut sorted = stream.to_vec();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = Vec::new();
    let mut raw = reducer.create();
    for group in sorted.chunk_by(|a, b| a.0 == b.0) {
        let values: Vec<Value> = group.iter().map(|(_, v)| v.clone()).collect();
        raw.reduce(&group[0].0, &values, &mut out).unwrap();
    }
    out.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Table aggregation (with its drains and its bail-out, wherever the
    /// random budget puts them) followed by the reduce-side fold equals
    /// the raw reducer on the same stream, representation included:
    /// `Int(2)` and `Double(2.0)` are one key reported as whichever was
    /// emitted first, `i64` sums wrap, and a `Max`/`Min` tie between
    /// `Int(n)` and `Double(n)` resolves by emission order.
    #[test]
    fn table_then_reduce_fold_equals_the_raw_reducer(
        stream in proptest::collection::vec(
            (
                any::<bool>(),
                0i64..6,
                any::<bool>(),
                prop_oneof![-3i64..4, -3i64..4, Just(i64::MAX), Just(i64::MIN)],
            ),
            0..200,
        ),
        reducer_pick in 0usize..4,
        budget in prop_oneof![Just(None), (32usize..1024).prop_map(Some)],
    ) {
        let reducer = [Builtin::Sum, Builtin::Count, Builtin::Max, Builtin::Min][reducer_pick];
        let s = Schema::new(
            "N",
            vec![
                ("kd", FieldType::Bool),
                ("k", FieldType::Int),
                ("vd", FieldType::Bool),
                ("v", FieldType::Long),
            ],
        )
        .into_arc();
        let records: Vec<Record> = stream
            .iter()
            .map(|&(kd, k, vd, v)| {
                record(&s, vec![Value::Bool(kd), Value::Int(k), Value::Bool(vd), Value::Int(v)])
            })
            .collect();
        let path = tmp("table-prop");
        write_seqfile(&path, s, records).unwrap();
        let emitted: Vec<(Value, Value)> = stream
            .iter()
            .map(|&(kd, k, vd, v)| (numeric(kd, k), numeric(vd, v)))
            .collect();

        let mut j = JobConfig::ir_job(
            "table-prop",
            InputSpec::SeqFile { path: path.clone() },
            emit_kv_mapper(),
            reducer,
        )
        .with_reducers(2)
        // One split, so the job's emission order is the stream's.
        .with_parallelism(1)
        .with_declared_combiner();
        j.inputs[0].mapper = Arc::new(FnMapperFactory(
            |_k: &Value, v: &Value, out: &mut Vec<(Value, Value)>| {
                let r = v.as_record().unwrap();
                let field = |name| r.get(name).unwrap();
                let int = |name| field(name).as_int().unwrap();
                out.push((
                    numeric(field("kd").is_truthy(), int("k")),
                    numeric(field("vd").is_truthy(), int("v")),
                ));
            },
        ));
        j.sort_output = true;
        j.shuffle_buffer_bytes = budget;
        let combined = run_job(&j).unwrap();

        let expect = raw_reduce(reducer, &emitted);
        prop_assert_eq!(format!("{:?}", combined.output), format!("{expect:?}"));
        let c = combined.counters;
        prop_assert_eq!(c.map_output_records, emitted.len() as u64);
        prop_assert!(c.combine_bypassed <= c.map_output_records);
        if budget.is_none() {
            prop_assert_eq!(
                (c.combine_in, c.combine_bypassed),
                (emitted.len() as u64, 0),
                "resident: every emit enters the table exactly once"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}
