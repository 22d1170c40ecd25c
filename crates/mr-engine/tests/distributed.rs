//! Kill drills for the process backend: SIGKILL a worker mid-map and
//! mid-reduce under seeded schedules and prove the job still completes
//! with output byte-identical to the local backend, exact retry
//! counters, no orphaned attempt directories, and no leaked worker
//! processes — plus a proptest hammering the task-protocol framing
//! with truncation and bit flips, all typed as `Corrupt`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mr_engine::backend::protocol::{read_frame, write_frame, MAX_PAYLOAD};
use mr_engine::{
    run_job, BackendSpec, BroadcastSpec, Builtin, EngineError, FaultPlan, InputBinding, InputSpec,
    JobConfig, JobResult, JoinSide, ProcessCfg, ShuffleCompression,
};
use mr_ir::asm::parse_function;
use mr_ir::record::{record, Record};
use mr_ir::schema::{FieldType, Schema};
use mr_ir::value::Value;
use mr_storage::btree::{BTreeWriter, ScanBound};
use mr_storage::seqfile::write_seqfile;
use mr_storage::StorageError;
use proptest::prelude::*;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mr-engine-distributed-tests");
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

/// The process backend pointed at the dedicated worker binary — the
/// default re-exec convention would re-run this test executable.
fn process(workers: usize, speculate: bool) -> BackendSpec {
    BackendSpec::Process(ProcessCfg {
        workers,
        worker_cmd: Some(vec![env!("CARGO_BIN_EXE_mr_worker").to_string()]),
        speculate,
    })
}

struct Drill<'a> {
    path: &'a Path,
    parallelism: usize,
    attempts: usize,
    budget: Option<usize>,
    fault: Option<FaultPlan>,
    backend: BackendSpec,
    spill_parent: &'a Path,
}

impl Drill<'_> {
    fn build(&self) -> JobConfig {
        let mut j = JobConfig::ir_job(
            "kill-drill",
            InputSpec::SeqFile {
                path: self.path.to_path_buf(),
            },
            emit_kv_mapper(),
            Builtin::Sum,
        )
        .with_reducers(3)
        .with_parallelism(self.parallelism)
        .with_max_attempts(self.attempts)
        .with_spill_dir(self.spill_parent)
        .with_backend(self.backend.clone());
        j.shuffle_buffer_bytes = self.budget;
        if let Some(plan) = self.fault.clone() {
            j = j.with_fault_plan(Arc::new(plan));
        }
        j
    }

    fn run(&self) -> JobResult {
        run_job(&self.build()).unwrap()
    }
}

/// Scan `/proc` for any live process whose cmdline mentions `marker`
/// (every worker is invoked with its socket path, which lives under
/// the drill's unique spill parent).
fn live_processes_mentioning(marker: &str) -> Vec<u32> {
    let mut hits = Vec::new();
    let me = std::process::id();
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return hits;
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(pid) = name.to_str().and_then(|s| s.parse::<u32>().ok()) else {
            continue;
        };
        if pid == me {
            continue;
        }
        let Ok(cmdline) = std::fs::read(entry.path().join("cmdline")) else {
            continue;
        };
        if String::from_utf8_lossy(&cmdline).contains(marker) {
            hits.push(pid);
        }
    }
    hits
}

/// Assert the drill left nothing behind: the spill parent holds no
/// job dir (so no attempt dirs either) and no worker process that was
/// pointed at it is still alive.
fn assert_clean(parent: &Path) {
    assert_eq!(
        std::fs::read_dir(parent).unwrap().count(),
        0,
        "job dir (and its attempt dirs) must not outlive the job"
    );
    // Workers are reaped synchronously (`child.wait`) before the job
    // returns, so a single scan suffices.
    let leaked = live_processes_mentioning(parent.to_str().unwrap());
    assert!(leaked.is_empty(), "leaked worker processes: {leaked:?}");
}

fn drill<'a>(path: &'a Path, parent: &'a Path) -> Drill<'a> {
    Drill {
        path,
        parallelism: 2,
        attempts: 2,
        budget: None,
        fault: None,
        backend: process(2, false),
        spill_parent: parent,
    }
}

/// The counters the shared attempt module owns: everything a map or
/// reduce attempt does, as opposed to how its backend spills
/// (`spill_count`) or where a combine site runs (`combine_in`/`_out`).
const ATTEMPT_COUNTERS: [&str; 10] = [
    "map_input_records",
    "map_invocations",
    "map_output_records",
    "input_bytes",
    "shuffle_bytes",
    "instructions_executed",
    "side_effects",
    "combine_bypassed",
    "reduce_input_groups",
    "reduce_output_records",
];

fn attempt_counters(r: &JobResult) -> Vec<(&'static str, u64)> {
    let fields = r.counters.fields().into_iter();
    fields
        .filter(|(name, _)| ATTEMPT_COUNTERS.contains(name))
        .collect()
}

/// Baseline sanity: the process backend with no faults produces output
/// byte-identical to the local backend — few and distinct keys, with
/// and without a combiner, resident and spilling — and, because both
/// run every attempt through the same attempt module, the same
/// attempt-owned counters.
#[test]
fn process_backend_matches_local_output() {
    let parent = tmp("match-spills");
    std::fs::create_dir_all(&parent).unwrap();
    for keys in [7, 3000] {
        let path = write_data(&format!("match-{keys}"), 3000, keys);
        for combine in [false, true] {
            for budget in [None, Some(512)] {
                let run = |backend: BackendSpec| {
                    let mut d = drill(&path, &parent);
                    d.backend = backend;
                    d.budget = budget;
                    let job = d.build();
                    run_job(&if combine {
                        job.with_declared_combiner()
                    } else {
                        job
                    })
                    .unwrap()
                };
                let local = run(BackendSpec::Local);
                let proc = run(process(2, false));
                let cell = format!("{keys} keys, combine {combine}, budget {budget:?}");
                assert_eq!(proc.output, local.output, "{cell}");
                assert_eq!(proc.counters.task_retries, 0, "{cell}");
                assert_eq!(proc.counters.workers_killed, 0, "{cell}");
                assert_eq!(attempt_counters(&proc), attempt_counters(&local), "{cell}");
                if combine && keys == 3000 && budget.is_some() {
                    assert!(local.counters.combine_bypassed > 0, "{cell}: no bail-out");
                }
                assert_clean(&parent);
            }
        }
    }
}

/// An indexed selection reads its range as leaf spans: at parallelism 2
/// the B+Tree range opens into more than one split, and the process
/// backend's coordinator and workers — and a retried local attempt —
/// cut the same spans, so every run is byte-identical to a clean local
/// one over duplicate-heavy keys.
#[test]
fn btree_leaf_spans_agree_across_backends_and_retries() {
    let s = schema();
    let path = tmp("btree-spans");
    let mut w = BTreeWriter::with_page_size(&path, Arc::clone(&s), 1024).unwrap();
    for i in 0..3000i64 {
        let v = i / 7;
        let r = record(&s, vec![format!("k{}", i % 13).into(), Value::Int(v)]);
        w.append(&Value::Int(v), &Value::Int(i), &r).unwrap();
    }
    w.finish().unwrap();
    let input = InputSpec::BTreeRanges {
        path,
        ranges: vec![(ScanBound::Incl(Value::Int(100)), ScanBound::Unbounded)],
    };
    assert_eq!(input.open(2).unwrap().len(), 2, "the range fills the hint");

    let parent = tmp("btree-spans-spills");
    std::fs::create_dir_all(&parent).unwrap();
    let job = |backend: BackendSpec| {
        JobConfig::ir_job("btree-spans", input.clone(), emit_kv_mapper(), Builtin::Sum)
            .with_reducers(3)
            .with_parallelism(2)
            .with_max_attempts(2)
            .with_spill_dir(&parent)
            .with_backend(backend)
    };
    let local = run_job(&job(BackendSpec::Local)).unwrap();
    assert_eq!(local.counters.map_input_records, 3000 - 700);
    let proc = run_job(&job(process(2, false))).unwrap();
    assert_eq!(proc.output, local.output, "process backend diverged");
    assert_eq!(proc.counters.map_input_records, 3000 - 700);
    let retried = run_job(
        &job(BackendSpec::Local).with_fault_plan(Arc::new(FaultPlan::new().fail_map(1, 0, 5))),
    )
    .unwrap();
    assert_eq!(retried.output, local.output, "retried span diverged");
    assert_eq!(retried.counters.task_retries, 1);
    assert_clean(&parent);
}

/// SIGKILL a worker on its very first assignment — mid-map. The job
/// completes on the respawned worker with byte-identical output and
/// exactly one retry. A single-worker fleet pins the schedule: with a
/// sibling racing, worker 0's first assignment could be any task.
#[test]
fn worker_killed_mid_map_job_completes() {
    let path = write_data("kill-map", 3000, 7);
    let parent = tmp("kill-map-spills");
    std::fs::create_dir_all(&parent).unwrap();
    let mut local = drill(&path, &parent);
    local.backend = BackendSpec::Local;
    let local = local.run();

    let mut d = drill(&path, &parent);
    d.backend = process(1, false);
    d.fault = Some(FaultPlan::new().kill_worker(0, 0));
    let killed = d.run();
    assert_eq!(killed.output, local.output, "kill must not change output");
    assert_eq!(killed.counters.workers_killed, 1);
    assert_eq!(killed.counters.task_retries, 1);
    assert_eq!(killed.counters.map_task_failures, 1);
    assert_eq!(killed.counters.reduce_task_failures, 0);
    assert_eq!(
        killed.counters.map_input_records, local.counters.map_input_records,
        "the killed attempt's counters must not be absorbed"
    );
    assert_clean(&parent);
}

/// SIGKILL mid-reduce: one worker slot runs the whole schedule (one
/// map split, then three reduces), and the kill lands on its third
/// assignment — a reduce task, after the map phase committed.
#[test]
fn worker_killed_mid_reduce_job_completes() {
    let path = write_data("kill-reduce", 2000, 7);
    let parent = tmp("kill-reduce-spills");
    std::fs::create_dir_all(&parent).unwrap();
    let mut local = drill(&path, &parent);
    local.backend = BackendSpec::Local;
    local.parallelism = 1;
    let local = local.run();

    let mut d = drill(&path, &parent);
    d.parallelism = 1; // exactly one map task
    d.backend = process(1, false);
    d.fault = Some(FaultPlan::new().kill_worker(0, 2));
    let killed = d.run();
    assert_eq!(killed.output, local.output);
    assert_eq!(killed.counters.workers_killed, 1);
    assert_eq!(killed.counters.task_retries, 1);
    assert_eq!(killed.counters.map_task_failures, 0, "map phase was done");
    assert_eq!(killed.counters.reduce_task_failures, 1);
    assert_eq!(
        killed.counters.reduce_input_groups, local.counters.reduce_input_groups,
        "groups counted once despite the killed attempt"
    );
    assert_clean(&parent);
}

/// Two kills against a two-attempt budget on the *same* task exhaust
/// it: the job fails typed, and still cleans up every worker and
/// attempt dir.
#[test]
fn repeated_kills_exhaust_attempts_typed() {
    let path = write_data("kill-fatal", 800, 5);
    let parent = tmp("kill-fatal-spills");
    std::fs::create_dir_all(&parent).unwrap();
    let mut d = drill(&path, &parent);
    d.parallelism = 1;
    d.backend = process(1, false);
    // Worker ids are monotonic across respawns: the replacement worker
    // is id 1, killed again on its first assignment — same map task.
    d.fault = Some(FaultPlan::new().kill_worker(0, 0).kill_worker(1, 0));
    let err = run_job(&d.build()).unwrap_err();
    match err {
        EngineError::TaskFailed { task, attempts, .. } => {
            assert_eq!(task, "map task 0");
            assert_eq!(attempts, 2);
        }
        other => panic!("expected TaskFailed, got {other}"),
    }
    assert_clean(&parent);
}

/// The speculative race: worker 0 straggles deterministically
/// (`slow:0:…`), the healthy worker duplicates its in-flight task, and
/// first-commit-by-rename wins — byte-identical output, speculative
/// attempts counted, zero retries.
#[test]
fn speculative_race_first_commit_wins() {
    let path = write_data("spec", 3000, 7);
    let parent = tmp("spec-spills");
    std::fs::create_dir_all(&parent).unwrap();
    let mut local = drill(&path, &parent);
    local.backend = BackendSpec::Local;
    local.parallelism = 4;
    let local = local.run();

    let mut d = drill(&path, &parent);
    d.parallelism = 4;
    d.backend = process(2, true);
    d.fault = Some(FaultPlan::new().slow_worker(0, 200));
    let raced = d.run();
    assert_eq!(raced.output, local.output, "speculation changed output");
    assert!(
        raced.counters.speculative_tasks >= 1,
        "straggler never speculated: {:?}",
        raced.counters
    );
    assert_eq!(
        raced.counters.task_retries, 0,
        "speculation duplicates, never retries"
    );
    assert_clean(&parent);
}

/// Kills compose with record-level injected faults and spilling
/// shuffles in one schedule, and the retry accounting stays exact.
/// A single-worker fleet pins worker 0's assignment order (the one map
/// task, then the reduces), so the kill/record failure split is
/// deterministic. Under the compressing `auto` codec the kill lands on
/// the first reduce, after the map task committed its compressed runs:
/// the replacement worker reads them back.
#[test]
fn kill_composes_with_record_faults() {
    let path = write_data("compose", 3000, 7);
    let parent = tmp("compose-spills");
    std::fs::create_dir_all(&parent).unwrap();
    for (codec, kill_at, map_failures, reduce_failures) in [
        (ShuffleCompression::None, 0, 1, 1),
        (ShuffleCompression::Auto, 1, 0, 2),
    ] {
        let run = |backend: BackendSpec, fault: Option<FaultPlan>| {
            let mut d = drill(&path, &parent);
            d.budget = Some(512);
            d.attempts = 3;
            d.backend = backend;
            d.fault = fault;
            run_job(&d.build().with_shuffle_codec(codec)).unwrap()
        };
        let local = run(BackendSpec::Local, None);
        let faulted = run(
            process(1, false),
            Some(
                FaultPlan::new()
                    .kill_worker(0, kill_at)
                    .fail_reduce(1, 0, 2),
            ),
        );
        assert_eq!(faulted.output, local.output, "{codec}");
        let c = &faulted.counters;
        assert_eq!(c.workers_killed, 1, "{codec}");
        assert_eq!(c.task_retries, 2, "{codec}");
        assert_eq!(c.map_task_failures, map_failures, "{codec}");
        assert_eq!(c.reduce_task_failures, reduce_failures, "{codec}");
        assert_clean(&parent);
    }
}

// ---- join drills -----------------------------------------------------

fn build_schema() -> Arc<Schema> {
    Schema::new(
        "Build",
        vec![("url", FieldType::Str), ("rank", FieldType::Int)],
    )
    .into_arc()
}

fn probe_schema() -> Arc<Schema> {
    Schema::new(
        "Probe",
        vec![("url", FieldType::Str), ("ip", FieldType::Str)],
    )
    .into_arc()
}

/// Emit `(url, whole record)` — the join-side mapper shape.
fn emit_record_mapper() -> mr_ir::function::Function {
    parse_function(
        r#"
        func map(key, value) {
          r0 = param value
          r1 = field r0.url
          emit r1, r0
          ret
        }
        "#,
    )
    .unwrap()
}

/// A build side of `n` urls and a probe side of `m` visits over `keys`
/// colliding urls (every probe url has a build match; some build urls
/// go unmatched).
fn write_join_data(name: &str, n: usize, m: usize, keys: usize) -> (PathBuf, PathBuf) {
    let bs = build_schema();
    let build: Vec<Record> = (0..n)
        .map(|i| {
            record(
                &bs,
                vec![format!("u{}", i % (keys * 2)).into(), Value::Int(i as i64)],
            )
        })
        .collect();
    let build_path = tmp(&format!("{name}-build"));
    write_seqfile(&build_path, bs, build).unwrap();

    let ps = probe_schema();
    let probe: Vec<Record> = (0..m)
        .map(|i| {
            record(
                &ps,
                vec![
                    format!("u{}", i % keys).into(),
                    format!("10.0.{}.{}", i / 250, i % 250).into(),
                ],
            )
        })
        .collect();
    let probe_path = tmp(&format!("{name}-probe"));
    write_seqfile(&probe_path, ps, probe).unwrap();
    (build_path, probe_path)
}

/// A join job under `plan`, built on the drill scaffolding.
fn join_job(
    build: &Path,
    probe: &Path,
    repartition: bool,
    parent: &Path,
    backend: BackendSpec,
) -> JobConfig {
    let build_spec = InputSpec::SeqFile {
        path: build.to_path_buf(),
    };
    let probe_spec = InputSpec::SeqFile {
        path: probe.to_path_buf(),
    };
    let mut j = JobConfig::ir_job(
        "join-drill",
        probe_spec.clone(),
        emit_record_mapper(),
        Builtin::Identity,
    )
    .with_reducers(3)
    .with_parallelism(1)
    .with_max_attempts(2)
    .with_spill_dir(parent)
    .with_backend(backend);
    if repartition {
        j.inputs = vec![
            InputBinding::ir_join(build_spec, emit_record_mapper(), JoinSide::Build),
            InputBinding::ir_join(probe_spec, emit_record_mapper(), JoinSide::Probe),
        ];
        j.reducer = Arc::new(Builtin::JoinTagged);
    } else {
        j.inputs = vec![InputBinding::ir_join(
            probe_spec,
            emit_record_mapper(),
            JoinSide::Broadcast(BroadcastSpec {
                input: build_spec,
                mapper: Arc::new(emit_record_mapper()),
            }),
        )];
    }
    j
}

/// SIGKILL the lone worker mid-join-reduce, on both physical plans: the
/// respawn completes the job with output byte-identical to the
/// fault-free local run of *either* plan, exactly one retry charged to
/// the reduce phase, and no orphaned attempt dirs or leaked workers.
#[test]
fn worker_killed_mid_join_reduce_both_plans() {
    let (build, probe) = write_join_data("kill-join", 40, 2000, 13);
    let parent = tmp("kill-join-spills");
    std::fs::create_dir_all(&parent).unwrap();

    // The reference: repartition, local, fault-free.
    let reference = run_job(&join_job(&build, &probe, true, &parent, BackendSpec::Local)).unwrap();
    assert!(!reference.output.is_empty(), "degenerate join drill");

    for repartition in [true, false] {
        // With one worker the schedule is pinned: map assignments come
        // first (two bindings under repartition, one under broadcast),
        // then three reduces — so the kill index of the first reduce
        // assignment is the binding count.
        let maps = if repartition { 2 } else { 1 };
        let mut j = join_job(&build, &probe, repartition, &parent, process(1, false));
        j = j.with_fault_plan(Arc::new(FaultPlan::new().kill_worker(0, maps)));
        let killed = run_job(&j).unwrap();
        assert_eq!(
            killed.output,
            reference.output,
            "kill changed {} join output",
            if repartition {
                "repartition"
            } else {
                "broadcast"
            }
        );
        assert_eq!(killed.counters.workers_killed, 1);
        assert_eq!(killed.counters.task_retries, 1, "exactly one retry");
        assert_eq!(killed.counters.map_task_failures, 0, "map phase was done");
        assert_eq!(killed.counters.reduce_task_failures, 1);
        assert_clean(&parent);
    }
}

/// A Zipf(1)-like key index in `0..keys` for row `i`: log-uniform, so
/// index 0 draws about as many rows as the whole upper half.
fn zipf_key(i: usize, keys: usize) -> usize {
    let x = (i as u64).wrapping_mul(2_654_435_761) % 1_000_003;
    let idx = (keys as f64).powf(x as f64 / 1_000_003.0) as usize;
    idx.saturating_sub(1).min(keys - 1)
}

/// Broadcast ≡ repartition when the build side's join keys repeat
/// across sequence-file blocks — so a table loaded one split per
/// thread must concatenate each key's payloads in split order — and
/// the probe side is Zipf-skewed: the same bytes resident and spilled,
/// on the local and the process backend.
#[test]
fn broadcast_matches_repartition_with_duplicate_build_keys() {
    let name = "dup-build";
    let bs = build_schema();
    // Three full blocks and a partial one; every key lands in each.
    let build: Vec<Record> = (0..3 * 4096 + 100)
        .map(|i| {
            record(
                &bs,
                vec![format!("u{}", i % 1500).into(), Value::Int(i as i64)],
            )
        })
        .collect();
    let build_path = tmp(&format!("{name}-build"));
    write_seqfile(&build_path, bs, build).unwrap();
    let ps = probe_schema();
    let probe: Vec<Record> = (0..1500)
        .map(|i| {
            record(
                &ps,
                vec![
                    format!("u{}", zipf_key(i, 2000)).into(),
                    format!("10.0.{}.{}", i / 250, i % 250).into(),
                ],
            )
        })
        .collect();
    let probe_path = tmp(&format!("{name}-probe"));
    write_seqfile(&probe_path, ps, probe).unwrap();
    let parent = tmp(&format!("{name}-spills"));
    std::fs::create_dir_all(&parent).unwrap();

    let reference = run_job(&join_job(
        &build_path,
        &probe_path,
        true,
        &parent,
        BackendSpec::Local,
    ))
    .unwrap();
    assert!(
        reference.output.len() > 1500,
        "degenerate join: {} rows",
        reference.output.len()
    );
    for backend in [BackendSpec::Local, process(2, false)] {
        for budget in [None, Some(1 << 14)] {
            for repartition in [true, false] {
                let mut j = join_job(
                    &build_path,
                    &probe_path,
                    repartition,
                    &parent,
                    backend.clone(),
                );
                j.shuffle_buffer_bytes = budget;
                let got = run_job(&j).unwrap();
                let what = format!(
                    "{} on {backend:?}, budget {budget:?}",
                    if repartition {
                        "repartition"
                    } else {
                        "broadcast"
                    }
                );
                assert!(
                    got.output == reference.output,
                    "{what} changed the join output"
                );
                if budget.is_some() {
                    assert!(got.counters.spill_count > 0, "{what} never spilled");
                }
            }
        }
    }
    assert_clean(&parent);
}

/// A combiner configured on a join stage is rejected with the typed
/// `CombinerRejected` — on both backends, before any task runs — never
/// silently folded across tagged-union values.
#[test]
fn join_stage_rejects_declared_combiner_typed() {
    let (build, probe) = write_join_data("combine-join", 10, 50, 5);
    let parent = tmp("combine-join-spills");
    std::fs::create_dir_all(&parent).unwrap();
    for backend in [BackendSpec::Local, process(1, false)] {
        for repartition in [true, false] {
            let mut j = join_job(&build, &probe, repartition, &parent, backend.clone());
            j.combiner = Builtin::Sum.combiner();
            let err = run_job(&j).unwrap_err();
            match err {
                EngineError::CombinerRejected { reducer, reason } => {
                    assert_eq!(
                        reducer,
                        j.reducer.as_builtin().unwrap().name(),
                        "rejection names the configured reducer"
                    );
                    assert!(
                        reason.contains("tagged"),
                        "reason must explain the corruption risk: {reason}"
                    );
                }
                other => panic!("expected CombinerRejected, got {other}"),
            }
        }
        assert_clean(&parent);
    }
}

fn is_corrupt(e: &EngineError) -> bool {
    matches!(
        e,
        EngineError::Storage(StorageError::Corrupt { context, .. })
            if context == "task-protocol frame"
    )
}

proptest! {
    /// Random frame sequences round-trip exactly; any truncation or
    /// single-bit flip inside a frame surfaces as a typed `Corrupt`
    /// error (never a wrong payload, never a clean EOF).
    #[test]
    fn task_protocol_frames_survive_round_trip_and_type_corruption(
        frames in prop::collection::vec(
            (1u8..11, prop::collection::vec(any::<u8>(), 0..200)),
            1..5,
        ),
        cut_frac in 0.0f64..1.0,
        flip in (0usize..usize::MAX, 0u8..8),
    ) {
        let mut buf = Vec::new();
        for (tag, payload) in &frames {
            write_frame(&mut buf, *tag, payload).unwrap();
        }

        // Round trip.
        let mut r = &buf[..];
        for (tag, payload) in &frames {
            let got = read_frame(&mut r).unwrap().expect("frame present");
            prop_assert_eq!(got.0, *tag);
            prop_assert_eq!(&got.1, payload);
        }
        prop_assert_eq!(read_frame(&mut r).unwrap(), None, "clean eof after all frames");

        // Truncation mid-stream: reading the cut stream must end in
        // either fewer clean frames or a typed Corrupt — never junk.
        let cut = 1 + ((buf.len() - 2) as f64 * cut_frac) as usize;
        let mut r = &buf[..cut];
        let mut clean = 0usize;
        loop {
            match read_frame(&mut r) {
                Ok(Some((tag, payload))) => {
                    prop_assert_eq!(tag, frames[clean].0);
                    prop_assert_eq!(&payload, &frames[clean].1);
                    clean += 1;
                }
                Ok(None) => break, // cut landed exactly on a frame boundary
                Err(e) => {
                    prop_assert!(is_corrupt(&e), "truncation typed wrong: {}", e);
                    break;
                }
            }
        }
        prop_assert!(clean <= frames.len());

        // A bit flip anywhere must never let a *wrong payload* through:
        // either every decoded frame still carries its original payload
        // (the flip hit a tag byte), or decoding ends in a typed
        // storage error or an early end-of-stream. crc32 covers every
        // payload byte, so a silently altered payload is the one
        // outcome framing must make impossible.
        let (pos, bit) = flip;
        let pos = pos % buf.len();
        buf[pos] ^= 1 << bit;
        let mut r = &buf[..];
        let mut idx = 0usize;
        loop {
            match read_frame(&mut r) {
                Ok(Some((_tag, payload))) => {
                    prop_assert!(
                        idx < frames.len() && payload == frames[idx].1,
                        "bit flip at byte {} produced a wrong payload that passed crc", pos
                    );
                    idx += 1;
                }
                Ok(None) => break,
                Err(e) => {
                    prop_assert!(matches!(e, EngineError::Storage(_)),
                        "flip typed wrong: {}", e);
                    break;
                }
            }
        }
    }

    /// Oversized declared lengths are rejected before any allocation.
    #[test]
    fn oversized_frame_lengths_are_corrupt(extra in 1u64..1 << 20) {
        let mut buf = vec![3u8];
        mr_storage::varint::encode_u64(MAX_PAYLOAD as u64 + extra, &mut buf);
        let err = read_frame(&mut &buf[..]).unwrap_err();
        prop_assert!(is_corrupt(&err), "{}", err);
    }
}
