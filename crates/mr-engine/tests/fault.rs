//! Fault-tolerant task execution, driven by deterministic injection:
//! retried map/reduce attempts produce output byte-identical to a
//! fault-free run, counters account failures exactly once, exhausted
//! tasks surface `EngineError::TaskFailed`, and no spill file outlives
//! the attempt (or job) that wrote it. The record-level retry cells run
//! on both backends, which share one scheduler and so must agree on
//! every retry counter (`io:` sites stay local: workers ignore them).

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mr_engine::{
    run_job, BackendSpec, Builtin, EngineError, FaultPlan, FnMapperFactory, InputSpec, JobConfig,
    JobResult, ProcessCfg,
};
use mr_ir::asm::parse_function;
use mr_ir::record::{record, Record};
use mr_ir::schema::{FieldType, Schema};
use mr_ir::value::Value;
use mr_storage::fault::IoSite;
use mr_storage::seqfile::write_seqfile;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mr-engine-fault-tests");
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

fn write_data(name: &str, n: usize, keys: usize) -> PathBuf {
    let s = schema();
    let records: Vec<Record> = (0..n)
        .map(|i| {
            record(
                &s,
                vec![format!("k{}", i % keys).into(), Value::Int(i as i64 % 91)],
            )
        })
        .collect();
    let path = tmp(name);
    write_seqfile(&path, s, records).unwrap();
    path
}

struct JobSpec<'a> {
    path: &'a Path,
    reducer: Builtin,
    budget: Option<usize>,
    combining: bool,
    parallelism: usize,
    attempts: usize,
    fault: Option<FaultPlan>,
    spill_parent: Option<&'a Path>,
    backend: BackendSpec,
}

impl JobSpec<'_> {
    fn build(self) -> JobConfig {
        let mut j = JobConfig::ir_job(
            "fault-suite",
            InputSpec::SeqFile {
                path: self.path.to_path_buf(),
            },
            emit_kv_mapper(),
            self.reducer,
        )
        .with_reducers(3)
        .with_parallelism(self.parallelism)
        .with_max_attempts(self.attempts);
        j.shuffle_buffer_bytes = self.budget;
        if self.combining {
            j = j.with_declared_combiner();
        }
        if let Some(plan) = self.fault {
            j = j.with_fault_plan(Arc::new(plan));
        }
        if let Some(dir) = self.spill_parent {
            j = j.with_spill_dir(dir);
        }
        j.with_backend(self.backend)
    }

    fn run(self) -> JobResult {
        run_job(&self.build()).unwrap()
    }
}

fn spec(path: &Path) -> JobSpec<'_> {
    JobSpec {
        path,
        reducer: Builtin::Sum,
        budget: None,
        combining: false,
        parallelism: 2,
        attempts: 1,
        fault: None,
        spill_parent: None,
        backend: BackendSpec::Local,
    }
}

/// Both backends: the local runner, and two forked `mr_worker`
/// processes (the default re-exec would re-run this test binary).
fn backends() -> [BackendSpec; 2] {
    [
        BackendSpec::Local,
        BackendSpec::Process(ProcessCfg {
            workers: 2,
            worker_cmd: Some(vec![env!("CARGO_BIN_EXE_mr_worker").to_string()]),
            speculate: false,
        }),
    ]
}

/// `task_retries`, `map_task_failures` and `reduce_task_failures`.
fn retry_counters(r: &JobResult) -> [u64; 3] {
    let c = &r.counters;
    [c.task_retries, c.map_task_failures, c.reduce_task_failures]
}

/// The acceptance scenario: an injected single-map-task failure with
/// `max_task_attempts ≥ 2` completes with identical output and nonzero
/// `task_retries`.
#[test]
fn retried_map_fault_matches_fault_free_output() {
    let path = write_data("map-retry", 3000, 7);
    let clean = spec(&path).run();
    for backend in backends() {
        let mut s = spec(&path);
        s.attempts = 2;
        s.fault = Some(FaultPlan::new().fail_map(0, 0, 50));
        s.backend = backend;
        let faulted = s.run();
        assert_eq!(faulted.output, clean.output, "retry must not change output");
        assert_eq!(retry_counters(&faulted), [1, 1, 0]);
        // A retried attempt never double-counts its input.
        assert_eq!(
            faulted.counters.map_input_records,
            clean.counters.map_input_records
        );
        assert_eq!(
            faulted.counters.map_output_records,
            clean.counters.map_output_records
        );
    }
}

/// The other half of the acceptance criterion: with
/// `max_task_attempts = 1` the same fault is fatal and typed.
#[test]
fn unretried_map_fault_is_typed_task_failure() {
    let path = write_data("map-fatal", 500, 5);
    let mut s = spec(&path);
    s.fault = Some(FaultPlan::new().fail_map(0, 0, 0));
    let err = run_job(&s.build()).unwrap_err();
    match err {
        EngineError::TaskFailed {
            task,
            attempts,
            cause,
        } => {
            assert_eq!(task, "map task 0");
            assert_eq!(attempts, 1);
            assert!(matches!(*cause, EngineError::Injected(_)), "{cause}");
        }
        other => panic!("expected TaskFailed, got {other}"),
    }
}

#[test]
fn reduce_faults_retry_on_both_shuffle_paths() {
    let path = write_data("reduce-retry", 3000, 7);
    for budget in [None, Some(512)] {
        let mut clean = spec(&path);
        clean.budget = budget;
        let clean = clean.run();
        for backend in backends() {
            let mut s = spec(&path);
            s.budget = budget;
            s.attempts = 3;
            s.backend = backend;
            // Partition 0 fails twice (mid-stream, then immediately),
            // partition 2 once.
            s.fault = Some(
                FaultPlan::new()
                    .fail_reduce(0, 0, 40)
                    .fail_reduce(0, 1, 0)
                    .fail_reduce(2, 0, 1),
            );
            let faulted = s.run();
            assert_eq!(faulted.output, clean.output, "budget {budget:?}");
            assert_eq!(retry_counters(&faulted), [3, 0, 3], "budget {budget:?}");
            assert_eq!(
                faulted.counters.reduce_input_groups, clean.counters.reduce_input_groups,
                "groups counted once despite retries"
            );
        }
    }
}

#[test]
fn exhausted_reduce_attempts_fail_typed() {
    let path = write_data("reduce-fatal", 300, 3);
    for backend in backends() {
        let mut s = spec(&path);
        s.attempts = 2;
        s.fault = Some(FaultPlan::new().fail_reduce_attempts(1, 2));
        s.backend = backend;
        let err = run_job(&s.build()).unwrap_err();
        match err {
            EngineError::TaskFailed { task, attempts, .. } => {
                assert_eq!(task, "reduce task 1");
                assert_eq!(attempts, 2);
            }
            other => panic!("expected TaskFailed, got {other}"),
        }
    }
}

/// Transient IO errors in the sequence-file reader (map input) are
/// survived by a retry with identical output.
#[test]
fn transient_seq_read_fault_is_retried() {
    let path = write_data("seq-io", 2000, 5);
    let clean = spec(&path).run();
    let mut s = spec(&path);
    s.attempts = 2;
    s.fault = Some(FaultPlan::new().fail_io(IoSite::SeqRead, 17));
    let faulted = s.run();
    assert_eq!(faulted.output, clean.output);
    assert_eq!(faulted.counters.task_retries, 1);
    assert_eq!(faulted.counters.map_task_failures, 1);
}

/// Transient IO errors in the run-file reader (reduce-side merge) are
/// survived by a reduce retry with identical output.
#[test]
fn transient_run_read_fault_is_retried() {
    let path = write_data("run-io", 3000, 7);
    let mut clean = spec(&path);
    clean.budget = Some(256);
    let clean = clean.run();
    assert!(clean.counters.spill_count > 0, "budget must force spills");
    let mut s = spec(&path);
    s.budget = Some(256);
    s.attempts = 2;
    s.fault = Some(FaultPlan::new().fail_io(IoSite::RunRead, 3));
    let faulted = s.run();
    assert_eq!(faulted.output, clean.output);
    assert!(faulted.counters.task_retries >= 1);
    assert!(faulted.counters.reduce_task_failures >= 1);
}

/// Transient IO errors writing an attempt's spill runs fail that map
/// attempt; the retry rewrites the runs and commits once.
#[test]
fn transient_run_write_fault_is_retried() {
    let path = write_data("runw-io", 3000, 200);
    let mut clean = spec(&path);
    clean.budget = Some(256);
    clean.parallelism = 1;
    let clean = clean.run();
    assert!(clean.counters.spill_count > 0);
    let mut s = spec(&path);
    s.budget = Some(256);
    s.parallelism = 1;
    s.attempts = 2;
    s.fault = Some(FaultPlan::new().fail_io(IoSite::RunWrite, 0));
    let faulted = s.run();
    assert_eq!(faulted.output, clean.output);
    assert_eq!(faulted.counters.task_retries, 1);
    assert_eq!(faulted.counters.map_task_failures, 1);
    // No double-count: committed spill traffic matches the clean run.
    assert_eq!(
        faulted.counters.spilled_records,
        clean.counters.spilled_records
    );
}

/// Satellite: counter invariants under faults. `combine_in ≥
/// combine_out` always, and spill counters are unchanged by retried
/// attempts (no double-count) under a deterministic single-worker
/// schedule.
#[test]
fn counter_invariants_under_retries() {
    let path = write_data("counters", 4000, 9);
    let run_one = |fault: Option<FaultPlan>, attempts: usize| {
        let mut s = spec(&path);
        s.budget = Some(512);
        s.combining = true;
        s.parallelism = 1;
        s.attempts = attempts;
        s.fault = fault;
        s.run()
    };
    let clean = run_one(None, 1);
    let faulted = run_one(
        Some(
            FaultPlan::new()
                .fail_map(0, 0, 100)
                .fail_reduce(1, 0, 2)
                .fail_io(IoSite::SeqRead, 700),
        ),
        3,
    );
    for r in [&clean, &faulted] {
        assert!(r.counters.combine_in >= r.counters.combine_out);
        assert!(r.counters.combine_in > 0, "combiner engaged");
    }
    assert_eq!(faulted.output, clean.output);
    assert_eq!(
        faulted.counters.spilled_records, clean.counters.spilled_records,
        "retried attempts must not double-count spilled records"
    );
    assert_eq!(faulted.counters.spill_count, clean.counters.spill_count);
    assert_eq!(
        faulted.counters.map_input_records,
        clean.counters.map_input_records
    );
    assert_eq!(faulted.counters.combine_in, clean.counters.combine_in);
    assert!(faulted.counters.task_retries >= 2);
}

/// Satellite: the spill temp-file RAII guards. After a job that
/// errored out mid-flight (attempts exhausted between spill and
/// merge), and after a successful job with retried spilling attempts,
/// the spill parent directory is empty — no run or attempt file leaks.
#[test]
fn spill_files_never_leak() {
    let path = write_data("leak", 3000, 7);
    let parent = tmp("leak-spills");
    std::fs::create_dir_all(&parent).unwrap();
    let count_entries = || std::fs::read_dir(&parent).unwrap().count();

    // Failure path: a map task dies on every attempt after spilling.
    let mut s = spec(&path);
    s.budget = Some(128);
    s.attempts = 2;
    s.fault = Some(FaultPlan::new().fail_map(0, 0, 500).fail_map(0, 1, 500));
    s.spill_parent = Some(&parent);
    let err = run_job(&s.build()).unwrap_err();
    assert!(matches!(err, EngineError::TaskFailed { .. }));
    assert_eq!(count_entries(), 0, "failed job must clean its spill dir");

    // Success path with a retried, spilling attempt.
    let mut s = spec(&path);
    s.budget = Some(128);
    s.attempts = 2;
    s.fault = Some(FaultPlan::new().fail_map(0, 0, 500));
    s.spill_parent = Some(&parent);
    let result = s.run();
    assert_eq!(result.counters.task_retries, 1);
    assert!(result.counters.spill_count > 0);
    assert_eq!(count_entries(), 0, "successful job leaves nothing behind");
}

/// Faults interact cleanly with the whole configuration space: for
/// every (budget × combining × reducer) cell, a schedule retrying map
/// and reduce tasks yields output identical to the cell's fault-free
/// run.
#[test]
fn fault_schedules_compose_with_engine_axes() {
    let path = write_data("axes", 2500, 11);
    for budget in [None, Some(384)] {
        for combining in [false, true] {
            for reducer in [Builtin::Sum, Builtin::Count, Builtin::SumDropKey] {
                let mut clean = spec(&path);
                clean.reducer = reducer;
                clean.budget = budget;
                clean.combining = combining;
                let clean = clean.run();
                let mut s = spec(&path);
                s.reducer = reducer;
                s.budget = budget;
                s.combining = combining;
                s.attempts = 3;
                s.fault = Some(
                    FaultPlan::new()
                        .fail_map_attempts(0, 2)
                        .fail_reduce(1, 0, 0),
                );
                let faulted = s.run();
                assert_eq!(
                    faulted.output, clean.output,
                    "budget {budget:?}, combining {combining}, {reducer:?}"
                );
                assert_eq!(faulted.counters.task_retries, 3);
            }
        }
    }
}

/// A fault at exactly the task's record count fires at end-of-input —
/// after every record, before the attempt commits (the
/// commit-adjacent window) — and the retry reprocesses the split with
/// identical output.
#[test]
fn eof_fault_fires_after_all_records() {
    let path = write_data("eof", 100, 3);
    let mut clean = spec(&path);
    clean.parallelism = 1;
    let clean = clean.run();
    assert_eq!(clean.counters.map_input_records, 100);
    let mut s = spec(&path);
    s.parallelism = 1; // one split ⇒ the task sees all 100 records
    s.attempts = 2;
    s.fault = Some(FaultPlan::new().fail_map(0, 0, 100));
    let faulted = s.run();
    assert_eq!(faulted.counters.task_retries, 1, "EOF fault must fire");
    assert_eq!(faulted.output, clean.output);
    assert_eq!(faulted.counters.map_input_records, 100);
}

/// A fault scheduled at a record the task never reaches simply does
/// not fire.
#[test]
fn out_of_range_faults_never_fire() {
    let path = write_data("range", 100, 3);
    let mut s = spec(&path);
    s.attempts = 2;
    s.fault = Some(
        FaultPlan::new()
            .fail_map(0, 0, 1_000_000)
            .fail_reduce(0, 0, 1_000_000)
            .fail_map(999, 0, 0),
    );
    let result = s.run();
    assert_eq!(result.counters.task_retries, 0);
    assert_eq!(result.counters.map_task_failures, 0);
    assert_eq!(result.counters.reduce_task_failures, 0);
}

/// Reduce faults at record 0 fire even for empty partitions — every
/// reduce task is a real, retryable unit.
#[test]
fn empty_partition_reduce_fault_fires_and_retries() {
    let s = schema();
    let path = tmp("empty-part");
    // One key ⇒ at most one nonempty partition out of three.
    let records: Vec<Record> = (0..50)
        .map(|i| record(&s, vec!["only-key".into(), Value::Int(i)]))
        .collect();
    write_seqfile(&path, s, records).unwrap();
    let mut with_fault = spec(&path);
    with_fault.attempts = 2;
    with_fault.fault = Some(
        FaultPlan::new()
            .fail_reduce_attempts(0, 1)
            .fail_reduce_attempts(1, 1)
            .fail_reduce_attempts(2, 1),
    );
    let result = with_fault.run();
    assert_eq!(result.counters.reduce_task_failures, 3);
    assert_eq!(result.counters.task_retries, 3);
    assert_eq!(result.output.len(), 1);
}

/// A mapper that panics on one split takes the job down with the
/// panic: the sibling worker stops instead of waiting forever for the
/// dead thread's attempt to report.
#[test]
fn a_panicking_mapper_fails_the_job_instead_of_hanging() {
    let path = write_data("panic", 3000, 7);
    let mut job = spec(&path).build();
    // Keys are row numbers: only the first split's first record panics.
    job.inputs[0].mapper = Arc::new(FnMapperFactory(
        |k: &Value, _v: &Value, _out: &mut Vec<(Value, Value)>| {
            assert_ne!(k, &Value::Int(0), "mapper bug");
        },
    ));
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_job(&job)));
    assert!(run.is_err(), "the panic must reach the caller");
}
