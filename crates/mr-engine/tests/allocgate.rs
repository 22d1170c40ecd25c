//! Allocation-counter integration test, compiled only under the
//! `bench-alloc` feature (the counting global allocator is
//! process-wide, so it lives in its own test binary). Run with
//! `cargo test -p mr-engine --features bench-alloc --test allocgate`.
#![cfg(feature = "bench-alloc")]

use std::path::Path;
use std::sync::{Arc, Mutex};

use mr_engine::mapper::{IrMapper, Mapper};
use mr_engine::{allocstats, run_job, BufferPool, Builtin, InputSpec, JobConfig};
use mr_ir::asm::parse_function;
use mr_ir::record::record;
use mr_ir::schema::{FieldType, Schema};
use mr_ir::value::Value;
use mr_storage::seqfile::{write_seqfile, SeqFileWriter};
use mr_storage::ShuffleCompression;

/// Held by the tests that allocate in bulk: a job's allocation counters
/// are process-wide, so another test's records would land in them.
static BULK: Mutex<()> = Mutex::new(());

#[test]
fn jobs_report_alloc_deltas_and_pooling_reduces_them() {
    let _bulk = BULK.lock().unwrap_or_else(|e| e.into_inner());
    assert!(allocstats::enabled());

    let schema = Schema::new("T", vec![("k", FieldType::Str), ("v", FieldType::Int)]).into_arc();
    let path = std::env::temp_dir().join(format!("allocgate-{}", std::process::id()));
    let records: Vec<_> = (0..4000)
        .map(|i| {
            record(
                &schema,
                vec![format!("key-{}", i % 13).into(), Value::Int(i % 50)],
            )
        })
        .collect();
    write_seqfile(&path, schema, records).unwrap();

    let job = |pool: Arc<BufferPool>| {
        JobConfig::ir_job(
            "allocgate",
            InputSpec::SeqFile { path: path.clone() },
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
            .unwrap(),
            Builtin::Sum,
        )
        .with_shuffle_buffer(1024)
        .with_parallelism(1)
        .with_buffer_pool(pool)
    };

    // Warm a shared pool, then measure a pooled run against a
    // disabled-pool run of the same job. Serial (parallelism 1), so
    // the process-wide counters attribute cleanly.
    let warm = BufferPool::new();
    run_job(&job(Arc::clone(&warm))).unwrap();

    let pooled = run_job(&job(Arc::clone(&warm))).unwrap();
    let unpooled = run_job(&job(BufferPool::disabled())).unwrap();

    assert!(
        pooled.counters.alloc_count > 0,
        "allocator counting is live"
    );
    assert!(unpooled.counters.alloc_count > 0);
    assert!(
        pooled.counters.alloc_count < unpooled.counters.alloc_count,
        "warm pool must allocate less: pooled {} vs disabled {}",
        pooled.counters.alloc_count,
        unpooled.counters.alloc_count
    );

    // The spill path's allocation rate: a budget of a 32nd of the
    // shuffle forces deep spilling and a wide merge. Serial and on the
    // warm pool, so the count is the job's own and the same on any
    // machine. The bound is the rate measured when it was set (4.685)
    // plus a tenth: one more allocation per record fails it.
    let mut resident = job(Arc::clone(&warm));
    resident.shuffle_buffer_bytes = None;
    let resident = run_job(&resident).unwrap();
    let budget = resident.counters.shuffle_bytes as usize / 32;
    let spilling = run_job(&job(Arc::clone(&warm)).with_shuffle_buffer(budget)).unwrap();
    let c = &spilling.counters;
    assert!(c.spill_count > 0, "shuffle/32 must spill");
    let per_record = c.alloc_count as f64 / c.map_input_records as f64;
    assert!(
        per_record <= 4.685 * 1.1,
        "shuffle/32: {per_record:.3} allocations per input record ({} / {})",
        c.alloc_count,
        c.map_input_records
    );
    std::fs::remove_file(&path).ok();
}

fn visits_schema() -> Arc<Schema> {
    Schema::new(
        "UserVisits",
        vec![
            ("sourceIP", FieldType::Str),
            ("destURL", FieldType::Str),
            ("visitDate", FieldType::Long),
            ("adRevenue", FieldType::Int),
            ("userAgent", FieldType::Str),
            ("countryCode", FieldType::Str),
            ("languageCode", FieldType::Str),
            ("searchWord", FieldType::Str),
            ("duration", FieldType::Int),
        ],
    )
    .into_arc()
}

/// 4000 visits, the `i`-th to `http://u/{i % 100}`, written as a sequence
/// file at `seq` and, through `stored` with the named fields encoded,
/// at `encoded`.
fn write_visits(seq: &Path, encoded: &Path, stored: &Arc<Schema>, delta: &[&str], dict: &[&str]) {
    let schema = visits_schema();
    let records: Vec<_> = (0..4000i64)
        .map(|i| {
            record(
                &schema,
                vec![
                    format!("10.0.0.{}", i % 13).into(),
                    format!("http://u/{}", i % 100).into(),
                    Value::Int(1_600_000_000 + i),
                    Value::Int(i % 50),
                    "agent".into(),
                    "US".into(),
                    "en".into(),
                    format!("w{}", i % 7).into(),
                    Value::Int(i % 90),
                ],
            )
        })
        .collect();
    let names = |fields: &[&str]| fields.iter().map(|f| f.to_string()).collect::<Vec<_>>();
    let none = ShuffleCompression::None;
    let mut w = SeqFileWriter::create_encoded(
        encoded,
        Arc::clone(stored),
        none,
        &names(delta),
        &names(dict),
    )
    .unwrap();
    for r in &records {
        w.append(&r.project_to(Arc::clone(stored))).unwrap();
    }
    w.finish().unwrap();
    write_seqfile(seq, schema, records).unwrap();
}

/// Allocations per input record of one map worker on this thread:
/// read `input`'s one split and map every record with `mapper`.
fn allocs_per_record(mapper: &str, input: InputSpec) -> f64 {
    let mut mapper = IrMapper::new(Arc::new(parse_function(mapper).unwrap()));
    let mut out = Vec::new();
    let mut records = 0u64;
    let before = allocstats::thread_count();
    for item in input.open(1).unwrap().into_iter().flatten() {
        let (key, value) = item.unwrap();
        out.clear();
        mapper.map(&key, &value, &mut out).unwrap();
        records += 1;
    }
    let allocs = allocstats::thread_count() - before;
    assert_eq!(records, 4000);
    allocs as f64 / records as f64
}

/// A projected-delta input feeds the mapper its stored two-field
/// records: a B2-shaped mapper over it allocates per input record no
/// more than over the nine-field sequence file. Counted on this thread
/// only, like the test below. The bound is the rate measured when it
/// was set (3.007; the sequence file read 8.012) plus a tenth: widening
/// the stored records back to the declared schema read 9.010 and fails
/// it.
#[test]
fn projected_delta_input_allocates_no_more_than_the_seqfile() {
    let _bulk = BULK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir();
    let seq = dir.join(format!("allocgate-visits-{}", std::process::id()));
    let delta = dir.join(format!("allocgate-visits-delta-{}", std::process::id()));
    let kept = ["sourceIP".to_string(), "adRevenue".to_string()];
    let stored = Arc::new(visits_schema().project(&kept));
    write_visits(&seq, &delta, &stored, &["adRevenue"], &[]);
    let mapper = r#"
        func map(key, value) {
          r0 = param value
          r1 = field r0.sourceIP
          r2 = field r0.adRevenue
          emit r1, r2
          ret
        }
    "#;
    let full = allocs_per_record(mapper, InputSpec::SeqFile { path: seq.clone() });
    let projected = allocs_per_record(
        mapper,
        InputSpec::Delta {
            path: delta.clone(),
        },
    );
    assert!(
        projected <= full,
        "projected delta {projected:.3} vs seqfile {full:.3} allocations per record"
    );
    assert!(
        projected <= 3.007 * 1.1,
        "projected delta: {projected:.3} allocations per input record (seqfile {full:.3})"
    );
    std::fs::remove_file(&seq).ok();
    std::fs::remove_file(&delta).ok();
}

/// A dict input feeds the mapper the stored nine-field records with
/// `destURL` as its code: a Table 6-shaped mapper (an equality test on
/// `destURL`, the plan's rewritten constant) allocates per input record
/// no more than over the sequence file, where `destURL` is a string.
/// The bound is the rate measured when it was set plus a tenth (7.041,
/// the dictionary's 100 strings included; the sequence file read 8.012).
#[test]
fn dict_input_allocates_no_more_than_the_seqfile() {
    let _bulk = BULK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir();
    let seq = dir.join(format!("allocgate-dict-visits-{}", std::process::id()));
    let dict = dir.join(format!("allocgate-visits-dict-{}", std::process::id()));
    write_visits(&seq, &dict, &visits_schema(), &[], &["destURL"]);
    let mapper = |url: &str| {
        format!(
            r#"
            func map(key, value) {{
              r0 = param value
              r1 = field r0.destURL
              r2 = const {url}
              r3 = cmp eq r1, r2
              br r3, t, e
            t:
              r4 = field r0.sourceIP
              r5 = field r0.adRevenue
              emit r4, r5
            e:
              ret
            }}
            "#
        )
    };
    // Visit 3's url, first seen fourth: code 3.
    let full = allocs_per_record(
        &mapper("\"http://u/3\""),
        InputSpec::SeqFile { path: seq.clone() },
    );
    let coded = allocs_per_record(&mapper("3"), InputSpec::Dict { path: dict.clone() });
    assert!(
        coded <= full,
        "dict {coded:.3} vs seqfile {full:.3} allocations per record"
    );
    assert!(
        coded <= 7.041 * 1.1,
        "dict: {coded:.3} allocations per input record (seqfile {full:.3})"
    );
    std::fs::remove_file(&seq).ok();
    std::fs::remove_file(&dict).ok();
}

/// The interpreter's per-record path allocates nothing. A B1-shaped
/// mapper — two opaque-tuple accessor calls on string-constant field
/// names and a conditional emit — runs through `IrMapper`; once the
/// task's emit buffer is warm, neither an emitting nor a skipped record
/// makes a heap allocation. Counted on this thread only, so whatever
/// else the test process does cannot blur the count.
#[test]
fn ir_mapper_invocations_allocate_nothing_once_warm() {
    let schema = Schema::new(
        "Rankings",
        vec![
            ("pageURL", FieldType::Str),
            ("pageRank", FieldType::Int),
            ("avgDuration", FieldType::Int),
        ],
    )
    .into_arc();
    let f = parse_function(
        r#"
        func map(key, value) {
          r0 = param value
          r1 = const "pageRank"
          r2 = call tuple.get_int(r0, r1)
          r3 = const 50
          r4 = cmp gt r2, r3
          br r4, hit, exit
        hit:
          r5 = const "pageURL"
          r6 = call tuple.get_str(r0, r5)
          emit r6, r2
        exit:
          ret
        }
        "#,
    )
    .unwrap();
    let page = |rank: i64| -> Value {
        record(
            &schema,
            vec![format!("http://u{rank}").into(), Value::Int(rank), 1.into()],
        )
        .into()
    };
    let (hit, miss) = (page(90), page(10));
    let mut mapper = IrMapper::new(Arc::new(f));
    let mut out = Vec::new();
    mapper.map(&Value::Int(0), &hit, &mut out).unwrap();
    assert_eq!(out.len(), 1, "the warm-up record emits");

    for (what, value, emits) in [("emitting", &hit, 1), ("skipped", &miss, 0)] {
        let before = allocstats::thread_count();
        for i in 0..1000 {
            out.clear();
            mapper.map(&Value::Int(i), value, &mut out).unwrap();
            assert_eq!(out.len(), emits);
        }
        assert_eq!(
            allocstats::thread_count() - before,
            0,
            "{what} records allocated"
        );
    }
}
