//! Hot-path integration tests: buffer-pool loan accounting across
//! whole jobs (success, retries, injected I/O errors, exhausted
//! attempts) and byte-identity of the spill/merge pipeline across
//! shuffle codecs and pool configurations.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mr_engine::{
    run_job, BufferPool, Builtin, EngineError, FaultPlan, InputSpec, JobConfig, ShuffleCompression,
};
use mr_ir::asm::parse_function;
use mr_ir::record::record;
use mr_ir::schema::{FieldType, Schema};
use mr_ir::value::Value;
use mr_storage::seqfile::write_seqfile;
use mr_storage::IoSite;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mr-engine-hotpath");
    std::fs::create_dir_all(&dir).unwrap();
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    dir.join(format!("{name}-{}-{n}", std::process::id()))
}

fn write_input(name: &str, n: i64) -> PathBuf {
    let schema = Schema::new("T", vec![("k", FieldType::Str), ("v", FieldType::Int)]).into_arc();
    let path = tmp(name);
    let records: Vec<_> = (0..n)
        .map(|i| {
            record(
                &schema,
                vec![format!("key-{}", i % 17).into(), Value::Int(i % 50)],
            )
        })
        .collect();
    write_seqfile(&path, schema, records).unwrap();
    path
}

fn sum_mapper() -> mr_ir::function::Function {
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

fn spilling_job(path: &Path, pool: &Arc<BufferPool>) -> JobConfig {
    JobConfig::ir_job(
        "hotpath",
        InputSpec::SeqFile {
            path: path.to_path_buf(),
        },
        sum_mapper(),
        Builtin::Sum,
    )
    .with_shuffle_buffer(512)
    .with_buffer_pool(Arc::clone(pool))
}

#[test]
fn pool_balances_after_clean_spilling_job() {
    let path = write_input("clean", 2000);
    let pool = BufferPool::new();
    let result = run_job(&spilling_job(&path, &pool)).unwrap();
    assert!(result.counters.spill_count > 0, "budget forces spills");
    assert_eq!(pool.outstanding(), 0, "every pooled loan returned");
    let stats = pool.stats();
    assert!(stats.hits > 0, "steady state reuses buffers: {stats:?}");
}

#[test]
fn pool_stays_warm_across_jobs() {
    let path = write_input("warm", 1500);
    let pool = BufferPool::new();
    run_job(&spilling_job(&path, &pool)).unwrap();
    let after_first = pool.stats();
    run_job(&spilling_job(&path, &pool)).unwrap();
    let after_second = pool.stats();
    assert_eq!(pool.outstanding(), 0);
    // The second job starts against a populated pool, so its share of
    // hits only grows.
    assert!(after_second.hits > after_first.hits);
}

#[test]
fn pool_balances_through_retried_failures() {
    let path = write_input("retry", 2000);
    let pool = BufferPool::new();
    // A map attempt dies mid-split (staging part-full), a reduce
    // attempt dies at its first record, and one run-file write fails —
    // all retried to success.
    let plan = FaultPlan::new()
        .fail_map(0, 0, 150)
        .fail_reduce(1, 0, 0)
        .fail_io(IoSite::RunWrite, 2);
    let job = spilling_job(&path, &pool)
        .with_max_attempts(3)
        .with_fault_plan(Arc::new(plan));
    let faulted = run_job(&job).unwrap();
    assert!(faulted.counters.task_retries > 0, "faults actually fired");
    assert_eq!(pool.outstanding(), 0, "failed attempts recycle their loans");

    // Same output as the fault-free run off a fresh pool.
    let clean = run_job(&spilling_job(&path, &BufferPool::new())).unwrap();
    assert_eq!(faulted.output, clean.output);
}

#[test]
fn pool_balances_when_the_job_fails() {
    let path = write_input("fatal", 1000);
    let pool = BufferPool::new();
    // Every attempt of map task 0 dies after spill-worthy staging.
    let plan = FaultPlan::new().fail_map_attempts(0, 2);
    let job = spilling_job(&path, &pool)
        .with_parallelism(2)
        .with_max_attempts(2)
        .with_fault_plan(Arc::new(plan));
    run_job(&job).unwrap_err();
    assert_eq!(
        pool.outstanding(),
        0,
        "even an aborted job returns every loan"
    );
}

#[test]
fn output_identical_across_codecs_and_pools() {
    let path = write_input("ident", 2500);
    let reference = {
        let job = JobConfig::ir_job(
            "hotpath-ref",
            InputSpec::SeqFile { path: path.clone() },
            sum_mapper(),
            Builtin::Sum,
        );
        run_job(&job).unwrap().output
    };
    for codec in ShuffleCompression::ALL {
        for pool in [
            BufferPool::new(),
            BufferPool::disabled(),
            BufferPool::with_capacity(1),
        ] {
            let job = spilling_job(&path, &pool).with_shuffle_codec(codec);
            let result = run_job(&job).unwrap();
            assert_eq!(result.output, reference, "codec {codec:?}");
            assert!(result.counters.spill_count > 0);
            assert_eq!(pool.outstanding(), 0);
        }
    }
}

/// Every `attempt-*` directory left anywhere under `dir`.
fn attempt_dirs(dir: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path
                .file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with("attempt-")
            {
                found.push(path.clone());
            }
            found.extend(attempt_dirs(&path));
        }
    }
    found
}

#[test]
fn failed_spill_write_fails_the_attempt_and_recycles_everything() {
    let path = write_input("spill-fault", 2000);
    let clean = run_job(&spilling_job(&path, &BufferPool::new())).unwrap();
    for codec in ShuffleCompression::ALL {
        let mut sites = vec![IoSite::RunWrite];
        if codec.is_framed() {
            sites.push(IoSite::BlockWrite);
        }
        for site in sites {
            let what = format!("codec {codec:?}, {}:0", site.name());
            // One split, so the first write is a map attempt's drain,
            // never a commit-time bucket spill.
            let faulted = |attempts: usize, spill_dir: &Path, pool: &Arc<BufferPool>| {
                let job = spilling_job(&path, pool)
                    .with_parallelism(1)
                    .with_shuffle_codec(codec)
                    .with_spill_dir(spill_dir)
                    .with_max_attempts(attempts)
                    .with_fault_plan(Arc::new(FaultPlan::new().fail_io(site, 0)));
                run_job(&job)
            };

            let spill_dir = tmp("spill-fault-dir");
            let pool = BufferPool::new();
            match faulted(1, &spill_dir, &pool).unwrap_err() {
                EngineError::TaskFailed { cause, .. } => {
                    assert!(matches!(*cause, EngineError::Storage(_)), "{what}: {cause}")
                }
                other => panic!("{what}: expected TaskFailed, got {other}"),
            }
            assert_eq!(
                pool.outstanding(),
                0,
                "{what}: the fault path leaks nothing"
            );
            assert_eq!(attempt_dirs(&spill_dir), Vec::<PathBuf>::new(), "{what}");

            let spill_dir = tmp("spill-fault-dir");
            let pool = BufferPool::new();
            let retried = faulted(2, &spill_dir, &pool).unwrap();
            assert_eq!(retried.counters.task_retries, 1, "{what}");
            assert_eq!(retried.output, clean.output, "{what}");
            assert_eq!(pool.outstanding(), 0, "{what}");
        }
    }
}
