//! The plan-equivalence differential harness.
//!
//! The paper's whole premise is that every optimized plan is
//! *semantically identical* to the submitted job: "the final program
//! output should be the same as what would have been generated by a
//! conventional MapReduce system". This harness proves it
//! differentially and under stress: for each example workload it
//! builds every recommended index, enumerates **every** candidate
//! `ExecutionDescriptor` the optimizer can justify
//! (`Manimal::plans`), and executes each candidate across the engine's
//! configuration axes — shuffle budget × shuffle codec × map-side
//! combining × parallelism × deterministic fault schedule — asserting
//! the output byte-identical to the unoptimized, fault-free,
//! fully-resident, uncompressed baseline every time. A second sweep
//! holds the plan fixed and varies the *key distribution* instead, the
//! input property the map-side combiner's bail-out decides on.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use manimal::{Builtin, ExecutionDescriptor, FaultPlan, JoinPlan, Manimal, ShuffleCompression};
use mr_engine::EngineError;
use mr_engine::{
    run_job, BackendSpec, BroadcastSpec, BufferPool, InputBinding, InputSpec, IrMapperFactory,
    JobConfig, JobResult, JoinSide, OutputSpec, ProcessCfg, ReducerFactory,
};
use mr_ir::function::Program;
use mr_ir::Value;
use mr_workloads::data::{
    generate_rankings, generate_uservisits, generate_webpages, UserVisitsConfig, WebPagesConfig,
};
use mr_workloads::pavlo::{
    benchmark2, benchmark3_date_window, benchmark3_rankings_mapper, benchmark3_visits_mapper,
};
use mr_workloads::queries::{
    duration_sum_query, projection_query, selection_query, threshold_for_selectivity,
};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("manimal-differential")
        .join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// How a cell provisions the engine's buffer pool.
#[derive(Debug, Clone, Copy)]
enum PoolKind {
    /// Job-private default pool (the engine's own default).
    Fresh,
    /// A pool that tracks loans but never retains — every get
    /// allocates, the hot-path bench's A/B control.
    Disabled,
    /// A pool capped at two idle buffers per kind, forcing constant
    /// recycle churn.
    Tiny,
}

/// One engine configuration cell of the harness.
#[derive(Debug, Clone)]
struct EngineCfg {
    budget: Option<usize>,
    codec: ShuffleCompression,
    combining: bool,
    parallelism: usize,
    attempts: usize,
    fault: Option<FaultPlan>,
    pool: PoolKind,
    backend: BackendSpec,
}

/// The process backend running the harness's own `manimal` binary as
/// the worker executable. A test binary cannot rely on the default
/// re-exec convention — `current_exe` there is the test runner itself —
/// so every process cell names the CLI explicitly, whose `main` starts
/// with `maybe_worker_entry`.
fn process_backend(workers: usize, speculate: bool) -> BackendSpec {
    BackendSpec::Process(ProcessCfg {
        workers,
        worker_cmd: Some(vec![
            env!("CARGO_BIN_EXE_manimal").to_string(),
            "__mr-worker".to_string(),
        ]),
        speculate,
    })
}

/// The three fault schedules, each with the attempts it needs: none; a
/// retried map-task failure; a retried reduce-task failure plus a
/// transient run-file read error.
fn fault_schedules() -> Vec<(Option<FaultPlan>, usize)> {
    vec![
        (None, 1),
        (Some(FaultPlan::new().fail_map(0, 0, 3)), 2),
        (
            Some(
                FaultPlan::new()
                    .fail_reduce(0, 0, 0)
                    .fail_io(mr_storage::IoSite::RunRead, 1),
            ),
            3,
        ),
    ]
}

/// The axes: (budget, codec) × combining × parallelism, crossed with
/// three fault schedules (none; a retried map-task failure; a retried
/// reduce-task failure plus a transient run-file read error). The
/// codec axis only exists under a budget — without spills there is
/// nothing to compress — and covers every `ShuffleCompression`
/// variant, so each candidate plan is proven byte-identical to the
/// uncompressed baseline under compression too.
fn engine_cfgs() -> Vec<EngineCfg> {
    let faults = fault_schedules();
    let mut shuffles: Vec<(Option<usize>, ShuffleCompression)> =
        vec![(None, ShuffleCompression::None)];
    for codec in ShuffleCompression::ALL {
        shuffles.push((Some(320), codec));
    }
    let mut cfgs = Vec::new();
    for (budget, codec) in shuffles {
        for combining in [false, true] {
            for parallelism in [1usize, 4] {
                for (fault, attempts) in &faults {
                    cfgs.push(EngineCfg {
                        budget,
                        codec,
                        combining,
                        parallelism,
                        attempts: *attempts,
                        fault: fault.clone(),
                        pool: PoolKind::Fresh,
                        backend: BackendSpec::Local,
                    });
                }
            }
        }
    }
    // Hot-path axes, cycled across cells rather than fully crossed (a
    // full cross product would multiply the sweep ×3 for an axis that is
    // independent of the others by construction): every pool kind still
    // meets every codec and fault schedule somewhere in the grid.
    for (i, cfg) in cfgs.iter_mut().enumerate() {
        cfg.pool = [PoolKind::Fresh, PoolKind::Disabled, PoolKind::Tiny][(i / 3) % 3];
        // The backend axis: every sixth cell re-runs on forked worker
        // processes over the task protocol, so each codec, fault
        // schedule, and combining mode meets the process backend
        // somewhere in the grid (cycled like the other hot-path axes —
        // forking real processes per cell is too expensive to cross
        // fully).
        if i % 6 == 5 {
            cfg.backend = process_backend(2, false);
        }
    }
    cfgs
}

/// Execute one descriptor under one engine configuration, straight on
/// the fabric (the harness needs axis control `Manimal::execute_plan`
/// doesn't expose).
fn run_descriptor(
    descriptor: &ExecutionDescriptor,
    reducer: Arc<dyn ReducerFactory>,
    cfg: &EngineCfg,
) -> mr_engine::Result<JobResult> {
    let pool = match cfg.pool {
        PoolKind::Fresh => None,
        PoolKind::Disabled => Some(BufferPool::disabled()),
        PoolKind::Tiny => Some(BufferPool::with_capacity(2)),
    };
    let mut job = JobConfig {
        name: "differential".into(),
        inputs: vec![InputBinding {
            input: descriptor.input.clone(),
            mapper: IrMapperFactory::new(descriptor.mapper.clone()),
            join: None,
        }],
        num_reducers: 3,
        reducer,
        output: OutputSpec::InMemory,
        map_parallelism: cfg.parallelism,
        sort_output: true,
        shuffle_buffer_bytes: cfg.budget,
        shuffle_compression: cfg.codec,
        spill_dir: None,
        combiner: None,
        max_task_attempts: cfg.attempts,
        fault_plan: cfg.fault.clone().map(Arc::new),
        buffer_pool: pool.clone(),
        backend: cfg.backend.clone(),
    };
    if cfg.combining && descriptor.combine {
        job = job.with_declared_combiner();
    }
    let result = run_job(&job);
    if let Some(pool) = pool {
        // Whatever the cell did — spills, retries, injected I/O errors —
        // every pooled loan must have come home by job end.
        assert_eq!(pool.outstanding(), 0, "buffer pool leak under {cfg:?}");
    }
    result
}

/// Run the full differential sweep for one workload: build all
/// recommended indexes, enumerate every candidate plan, and assert
/// byte-identical output across the whole configuration grid. Returns,
/// for every cell that ran a B+Tree plan at parallelism above 1, its
/// backend and the splits (one map task each) the range opened into.
fn assert_plan_equivalence(
    name: &str,
    program: &Program,
    input: &Path,
    reducer: Builtin,
    expect_optimized: usize,
) -> Vec<(BackendSpec, usize)> {
    let workdir = tmpdir(&format!("{name}-work"));
    let manimal = Manimal::new(&workdir).unwrap();
    let submission = manimal.submit(program, input);
    manimal.build_indexes(&submission).unwrap();

    let plans = manimal.plans(&submission).unwrap();
    assert!(
        plans.len() > expect_optimized,
        "{name}: expected ≥{expect_optimized} optimized candidates + full scan, got {}",
        plans.len()
    );
    let full_scan = plans.last().unwrap();
    assert!(
        full_scan.applied.is_empty(),
        "{name}: enumeration must end with the full scan"
    );
    assert_eq!(
        manimal.plan(&submission).unwrap().applied,
        plans[0].applied,
        "{name}: choose_plan is the enumeration's head"
    );

    // The reference: unoptimized, fault-free, fully resident, plain
    // pipeline, one worker.
    let baseline = run_descriptor(
        full_scan,
        Arc::new(reducer),
        &EngineCfg {
            budget: None,
            codec: ShuffleCompression::None,
            combining: false,
            parallelism: 1,
            attempts: 1,
            fault: None,
            pool: PoolKind::Fresh,
            backend: BackendSpec::Local,
        },
    )
    .unwrap();

    let mut parallel_index_cells = Vec::new();
    for (i, plan) in plans.iter().enumerate() {
        for cfg in engine_cfgs() {
            if matches!(plan.input, InputSpec::BTreeRanges { .. }) && cfg.parallelism > 1 {
                let splits = plan.input.open(cfg.parallelism).unwrap().len();
                parallel_index_cells.push((cfg.backend.clone(), splits));
            }
            let result = run_descriptor(plan, Arc::new(reducer), &cfg).unwrap_or_else(|e| {
                panic!(
                    "{name}: plan {i} [{}] failed under {cfg:?}: {e}",
                    plan.applied.join(" + ")
                )
            });
            assert_eq!(
                result.output,
                baseline.output,
                "{name}: plan {i} [{}] diverged under {cfg:?}",
                plan.applied.join(" + ")
            );
            if cfg.fault.is_some() {
                assert!(
                    result.counters.task_retries > 0,
                    "{name}: plan {i} under {cfg:?} scheduled a fault but never retried"
                );
            } else {
                assert_eq!(result.counters.task_retries, 0);
            }
        }
    }
    parallel_index_cells
}

fn webpages(dir: &Path) -> PathBuf {
    let path = dir.join("webpages.seq");
    generate_webpages(
        &path,
        &WebPagesConfig {
            pages: 1500,
            content_size: 120,
            ..WebPagesConfig::default()
        },
    )
    .unwrap();
    path
}

fn uservisits(dir: &Path) -> PathBuf {
    let path = dir.join("uservisits.seq");
    generate_uservisits(
        &path,
        &UserVisitsConfig {
            visits: 1500,
            pages: 200,
            ..UserVisitsConfig::default()
        },
    )
    .unwrap();
    path
}

/// Workload 1: the paper's Table-3 selection query — a clustered
/// selection(+projection) B+Tree against the full scan.
#[test]
fn selection_workload_equivalent_across_all_plans() {
    let dir = tmpdir("selection");
    let input = webpages(&dir);
    assert_plan_equivalence(
        "selection",
        &selection_query(threshold_for_selectivity(30)),
        &input,
        Builtin::Count,
        1,
    );
}

/// Workload 2: the Table-4 projection query (content never touched).
#[test]
fn projection_workload_equivalent_across_all_plans() {
    let dir = tmpdir("projection");
    let input = webpages(&dir);
    assert_plan_equivalence(
        "projection",
        &projection_query(threshold_for_selectivity(40)),
        &input,
        Builtin::Sum,
        1,
    );
}

/// Workload 3: the Table-5/6 duration-sum query, whose analysis admits
/// both a projected-delta artifact and a dictionary artifact — two
/// distinct optimized candidates enumerated and proven equivalent.
#[test]
fn duration_sum_workload_equivalent_across_all_plans() {
    let dir = tmpdir("duration");
    let input = uservisits(&dir);
    assert_plan_equivalence(
        "duration-sum",
        &duration_sum_query(),
        &input,
        Builtin::SumDropKey,
        2,
    );
}

/// Workload 4: the Pavlo aggregation task (near-distinct keys) — the
/// combiner-hostile shape, full scan plus whatever projection the
/// analyzer proves.
#[test]
fn aggregation_workload_equivalent_across_all_plans() {
    let dir = tmpdir("aggregation");
    let input = uservisits(&dir);
    assert_plan_equivalence("aggregation", &benchmark2(), &input, Builtin::Sum, 0);
}

/// Inclusive selections over a duplicate-heavy key: `k >= 5` and
/// `k == 3` on 400 rows of eight keys, each row padded to ~3 KB so every
/// key's 50 copies straddle several 64 KiB index leaves — the shape on
/// which a descent that stops at the first leaf *starting* with the bound
/// silently drops rows. Each program runs the full sweep, and its chosen
/// plan is byte-identical to `execute_baseline`. The indexes span several
/// leaves, so this is also where the parallelism × backend axes are held
/// to reading an indexed range as more than one split (the Table-3
/// workloads' projected indexes fit in one leaf at harness scale).
#[test]
fn inclusive_selections_over_duplicate_keys_match_baseline() {
    let dir = tmpdir("dup-keys");
    let schema = mr_ir::Schema::new(
        "Dup",
        vec![
            ("k", mr_ir::schema::FieldType::Int),
            ("pad", mr_ir::schema::FieldType::Str),
        ],
    )
    .into_arc();
    let records: Vec<mr_ir::Record> = (0..400)
        .map(|i| {
            let pad = format!("{i:04}").repeat(750);
            mr_ir::record::record(&schema, vec![Value::Int(i % 8), pad.into()])
        })
        .collect();
    let input = dir.join("dup.seq");
    mr_storage::seqfile::write_seqfile(&input, Arc::clone(&schema), records).unwrap();

    for (op, bound) in [("ge", 5), ("eq", 3)] {
        // The padding's length is emitted, so no projection can shrink
        // the rows the index stores.
        let mapper = mr_ir::asm::parse_function(&format!(
            r#"
            func map(key, value) {{
              r0 = param value
              r1 = field r0.k
              r2 = const {bound}
              r3 = cmp {op} r1, r2
              br r3, hit, exit
            hit:
              r4 = field r0.pad
              r5 = call str.len(r4)
              emit r1, r5
            exit:
              ret
            }}
            "#
        ))
        .unwrap();
        let name = format!("dup-{op}");
        let program = Program::new(&name, mapper, Arc::clone(&schema));
        let cells = assert_plan_equivalence(&name, &program, &input, Builtin::Count, 1);
        assert!(
            cells.iter().any(|(b, _)| *b != BackendSpec::Local),
            "{name}: no process-backend cell ran the index"
        );
        for (backend, splits) in &cells {
            assert!(*splits > 1, "{name}: one split on {backend:?}");
        }

        let manimal = Manimal::new(dir.join(format!("{op}-work"))).unwrap();
        let submission = manimal.submit(&program, &input);
        manimal.build_indexes(&submission).unwrap();
        let chosen = manimal
            .execute(&submission, Arc::new(Builtin::Count))
            .unwrap();
        assert!(chosen.applied.iter().any(|a| a.contains("selection")));
        let baseline = manimal
            .execute_baseline(&submission, Arc::new(Builtin::Count))
            .unwrap();
        assert_eq!(chosen.result.output, baseline.result.output, "{name}");
    }
}

/// A corrupt (but existing) dictionary artifact must not abort
/// planning: the dict candidate is skipped like a stale entry and the
/// remaining candidates — including the full scan — still enumerate
/// and execute.
#[test]
fn corrupt_dict_artifact_is_skipped_not_fatal() {
    let dir = tmpdir("corrupt-dict");
    let input = uservisits(&dir);
    let program = duration_sum_query();
    let manimal = Manimal::new(dir.join("work")).unwrap();
    let submission = manimal.submit(&program, &input);
    let entries = manimal.build_indexes(&submission).unwrap();

    let dict_entry = entries
        .iter()
        .find(|e| matches!(e.kind, manimal::IndexKind::Dict { .. }))
        .expect("duration-sum recommends a dictionary artifact");
    std::fs::write(&dict_entry.index_path, b"not a dict file").unwrap();

    let plans = manimal.plans(&submission).unwrap();
    assert!(
        !plans
            .iter()
            .any(|p| p.applied.iter().any(|a| a.contains("direct-operation"))),
        "corrupt dict candidate must be skipped"
    );
    assert!(
        plans.len() >= 2,
        "projected-delta + full scan still enumerate"
    );
    // choose_plan still works and the chosen plan still executes.
    let execution = manimal
        .execute(&submission, Arc::new(Builtin::SumDropKey))
        .unwrap();
    assert!(!execution.result.output.is_empty());
}

/// The speculative-execution cell: a deterministically slow worker
/// (`slow:0:…` in the fault plan) straggles on the process backend with
/// speculation enabled, so the healthy worker launches duplicate
/// attempts that race it on commit-by-rename — and the output is still
/// byte-identical to the fault-free local baseline.
#[test]
fn speculative_execution_cell_matches_baseline() {
    let dir = tmpdir("speculative");
    let input = webpages(&dir);
    let program = selection_query(threshold_for_selectivity(30));
    let manimal = Manimal::new(dir.join("work")).unwrap();
    let submission = manimal.submit(&program, &input);
    let plans = manimal.plans(&submission).unwrap();
    let full_scan = plans.last().unwrap();

    let base_cfg = EngineCfg {
        budget: None,
        codec: ShuffleCompression::None,
        combining: false,
        parallelism: 1,
        attempts: 1,
        fault: None,
        pool: PoolKind::Fresh,
        backend: BackendSpec::Local,
    };
    let baseline = run_descriptor(full_scan, Arc::new(Builtin::Count), &base_cfg).unwrap();

    let cfg = EngineCfg {
        parallelism: 4,
        fault: Some(FaultPlan::new().slow_worker(0, 200)),
        backend: process_backend(2, true),
        ..base_cfg
    };
    let result = run_descriptor(full_scan, Arc::new(Builtin::Count), &cfg).unwrap();
    assert_eq!(result.output, baseline.output, "speculative cell diverged");
    assert!(
        result.counters.speculative_tasks >= 1,
        "the straggling worker never triggered a speculative attempt: {:?}",
        result.counters
    );
    assert_eq!(
        result.counters.task_retries, 0,
        "speculation must duplicate, not retry"
    );
}

/// Run the Rankings⋈UserVisits join under one plan and one engine
/// configuration, straight on the fabric. The combining axis is
/// meaningless here — join stages reject combiners by contract — so
/// callers pass cells with `combining = false` only.
fn run_join_cell(
    plan: JoinPlan,
    rankings: &Path,
    visits: &Path,
    window: (i64, i64),
    cfg: &EngineCfg,
) -> mr_engine::Result<JobResult> {
    let rankings_map = benchmark3_rankings_mapper().mapper;
    let visits_map = benchmark3_visits_mapper(window.0, window.1).mapper;
    let build = InputSpec::SeqFile {
        path: rankings.to_path_buf(),
    };
    let probe = InputSpec::SeqFile {
        path: visits.to_path_buf(),
    };
    let (inputs, reducer): (Vec<InputBinding>, Arc<dyn ReducerFactory>) = match plan {
        JoinPlan::Repartition => (
            vec![
                InputBinding::ir_join(build, rankings_map, JoinSide::Build),
                InputBinding::ir_join(probe, visits_map, JoinSide::Probe),
            ],
            Arc::new(Builtin::JoinTagged),
        ),
        JoinPlan::Broadcast => (
            vec![InputBinding::ir_join(
                probe,
                visits_map,
                JoinSide::Broadcast(BroadcastSpec {
                    input: build,
                    mapper: Arc::new(rankings_map),
                }),
            )],
            Arc::new(Builtin::Identity),
        ),
    };
    let pool = match cfg.pool {
        PoolKind::Fresh => None,
        PoolKind::Disabled => Some(BufferPool::disabled()),
        PoolKind::Tiny => Some(BufferPool::with_capacity(2)),
    };
    let job = JobConfig {
        name: format!("differential-join-{}", plan.name()),
        inputs,
        num_reducers: 3,
        reducer,
        output: OutputSpec::InMemory,
        map_parallelism: cfg.parallelism,
        sort_output: true,
        shuffle_buffer_bytes: cfg.budget,
        shuffle_compression: cfg.codec,
        spill_dir: None,
        combiner: None,
        max_task_attempts: cfg.attempts,
        fault_plan: cfg.fault.clone().map(Arc::new),
        buffer_pool: pool.clone(),
        backend: cfg.backend.clone(),
    };
    let result = run_job(&job);
    if let Some(pool) = pool {
        assert_eq!(pool.outstanding(), 0, "buffer pool leak under {cfg:?}");
    }
    result
}

/// The reference join, computed with no MapReduce machinery at all: a
/// single-threaded nested loop over both raw files, filtered by the
/// date window and sorted exactly like `sort_output` sorts the job's
/// final output.
fn nested_loop_reference(
    rankings: &Path,
    visits: &Path,
    window: (i64, i64),
) -> Vec<(Value, Value)> {
    let read = |path: &Path| -> Vec<mr_ir::Record> {
        mr_storage::seqfile::SeqFileMeta::open(path)
            .unwrap()
            .read_all()
            .unwrap()
            .map(|r| r.unwrap())
            .collect()
    };
    let mut out = Vec::new();
    for r in read(rankings) {
        let url = r.get("pageURL").unwrap().clone();
        for v in read(visits).iter() {
            let Value::Int(date) = v.get("visitDate").unwrap() else {
                panic!("visitDate must be an int");
            };
            if *date < window.0 || *date >= window.1 {
                continue;
            }
            if v.get("destURL").unwrap() == &url {
                out.push((
                    url.clone(),
                    Value::list(vec![Value::from(r.clone()), Value::from(v.clone())]),
                ));
            }
        }
    }
    out.sort();
    out
}

/// Workload 5 (the join axis): both physical join plans, across every
/// codec, fault schedule, parallelism, and backend cell, each
/// byte-identical to the nested-loop reference computed right here —
/// no engine code on the reference path at all.
#[test]
fn join_workload_equivalent_across_plans_codecs_faults_backends() {
    let dir = tmpdir("join");
    let rankings = dir.join("rankings.seq");
    generate_rankings(&rankings, 120, false, 17).unwrap();
    let uv_cfg = UserVisitsConfig {
        visits: 900,
        pages: 150,
        ..UserVisitsConfig::default()
    };
    let visits = dir.join("uservisits.seq");
    generate_uservisits(&visits, &uv_cfg).unwrap();
    // A window wide enough that the filter both rejects and keeps
    // plenty of visits.
    let window = benchmark3_date_window(&uv_cfg, 0.5);

    let reference = nested_loop_reference(&rankings, &visits, window);
    assert!(
        !reference.is_empty(),
        "degenerate reference join — widen the window"
    );

    for plan in [JoinPlan::Broadcast, JoinPlan::Repartition] {
        for cfg in engine_cfgs() {
            if cfg.combining {
                // Join stages never combine (dispatch rejects the
                // combination outright); the axis is redundant here.
                continue;
            }
            let result = run_join_cell(plan, &rankings, &visits, window, &cfg)
                .unwrap_or_else(|e| panic!("{} join failed under {cfg:?}: {e}", plan.name()));
            assert_eq!(
                result.output,
                reference,
                "{} join diverged under {cfg:?}",
                plan.name()
            );
            if cfg.fault.is_some() {
                assert!(
                    result.counters.task_retries > 0,
                    "{} join under {cfg:?} scheduled a fault but never retried",
                    plan.name()
                );
            } else {
                assert_eq!(result.counters.task_retries, 0);
            }
        }
    }
}

/// The acceptance criterion's failure half, at the Manimal level: an
/// injected fault with `max_task_attempts = 1` fails the executed plan
/// with a typed `TaskFailed`, while `≥ 2` completes it with retries.
#[test]
fn manimal_level_fault_plumbing() {
    let dir = tmpdir("plumbing");
    let input = webpages(&dir);
    let program = selection_query(threshold_for_selectivity(30));

    let mut manimal = Manimal::new(dir.join("work")).unwrap();
    manimal.fault_plan = Some(Arc::new(FaultPlan::new().fail_map(0, 0, 0)));
    let submission = manimal.submit(&program, &input);

    let err = match manimal.execute_baseline(&submission, Arc::new(Builtin::Count)) {
        Err(e) => e,
        Ok(_) => panic!("unretried injected fault must fail the run"),
    };
    let manimal::ManimalError::Engine(engine_err) = &err else {
        panic!("expected an engine error, got {err}");
    };
    assert!(
        matches!(engine_err, EngineError::TaskFailed { .. }),
        "{engine_err}"
    );

    manimal.max_task_attempts = 2;
    let execution = manimal
        .execute_baseline(&submission, Arc::new(Builtin::Count))
        .unwrap();
    assert_eq!(execution.result.counters.task_retries, 1);
    assert!(!execution.result.output.is_empty());

    // The retried run matches a fault-free instance byte for byte.
    let clean = Manimal::new(dir.join("clean-work")).unwrap();
    let clean_sub = clean.submit(&program, &input);
    let clean_run = clean
        .execute_baseline(&clean_sub, Arc::new(Builtin::Count))
        .unwrap();
    assert_eq!(execution.result.output, clean_run.result.output);
}

/// The three shapes the staging table's bail-out tells apart.
#[derive(Debug, Clone, Copy, PartialEq)]
enum KeyDist {
    /// 16 keys: the table collapses the split and never drains.
    Few,
    /// Every key once: the table folds nothing.
    Distinct,
    /// The first half of the split is distinct, the second repeats it:
    /// the bail-out fires on the first half and the repeats arrive in
    /// pass-through, for sites 2 and 3 to fold.
    DistinctThenRepeats,
}

impl KeyDist {
    fn key(self, i: usize, rows: usize) -> String {
        match self {
            KeyDist::Few => format!("k{:02}", i % 16),
            KeyDist::Distinct => format!("key-{i:06}"),
            KeyDist::DistinctThenRepeats => format!("key-{:06}", i % (rows / 2)),
        }
    }
}

/// `emit(value.k, value.v)` over a two-column file written with `dist`.
fn key_dist_submission(dir: &Path, dist: KeyDist, rows: usize) -> (Program, PathBuf) {
    let schema = mr_ir::Schema::new(
        "KV",
        vec![
            ("k", mr_ir::schema::FieldType::Str),
            ("v", mr_ir::schema::FieldType::Int),
        ],
    )
    .into_arc();
    let records: Vec<mr_ir::Record> = (0..rows)
        .map(|i| {
            let v = (i * 37 % 101) as i64 - 50;
            mr_ir::record::record(&schema, vec![dist.key(i, rows).into(), Value::Int(v)])
        })
        .collect();
    let input = dir.join(format!("{dist:?}-{rows}.seq"));
    mr_storage::seqfile::write_seqfile(&input, Arc::clone(&schema), records).unwrap();
    let mapper = mr_ir::asm::parse_function(
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
    .unwrap();
    (Program::new("key-dist", mapper, schema), input)
}

/// The key-distribution cells' common ground: combining on, one map
/// split per job (so "the split" is the whole file), resident, clean,
/// local.
fn key_dist_cfg() -> EngineCfg {
    EngineCfg {
        budget: None,
        codec: ShuffleCompression::None,
        combining: true,
        parallelism: 1,
        attempts: 1,
        fault: None,
        pool: PoolKind::Fresh,
        backend: BackendSpec::Local,
    }
}

/// The key-distribution axis: every combining reducer × {resident, tiny
/// budget} × fault schedule × backend over each [`KeyDist`]. Every cell
/// is byte-identical to `execute_baseline`; the bail-out fires exactly
/// where the table drains without having reduced; and a retried run
/// reports the combine counters of the clean one.
#[test]
fn key_distribution_axis_matches_baseline_and_bails_out_where_expected() {
    const ROWS: usize = 3000;
    // One worker's staging share is 1 KiB: 16 resident partials fit (no
    // drain, no check), ~50 distinct pairs do not.
    const TINY: usize = 2048;
    let dir = tmpdir("key-dist");
    let faults = fault_schedules();
    for dist in [
        KeyDist::Few,
        KeyDist::Distinct,
        KeyDist::DistinctThenRepeats,
    ] {
        let (program, input) = key_dist_submission(&dir, dist, ROWS);
        let manimal = Manimal::new(dir.join(format!("{dist:?}-work"))).unwrap();
        let submission = manimal.submit(&program, &input);
        let full_scan = manimal.plans(&submission).unwrap().pop().unwrap();
        assert!(full_scan.applied.is_empty() && full_scan.combine);
        for reducer in [Builtin::Sum, Builtin::Count, Builtin::Max, Builtin::Min] {
            let baseline = manimal
                .execute_baseline(&submission, Arc::new(reducer))
                .unwrap()
                .result;
            assert_eq!(baseline.counters.combine_in, 0);
            for budget in [None, Some(TINY)] {
                for backend in [BackendSpec::Local, process_backend(2, false)] {
                    let mut clean = None;
                    for (fault, attempts) in &faults {
                        let cfg = EngineCfg {
                            budget,
                            attempts: *attempts,
                            fault: fault.clone(),
                            backend: backend.clone(),
                            ..key_dist_cfg()
                        };
                        let cell = format!("{dist:?} {reducer:?} under {cfg:?}");
                        let result = run_descriptor(&full_scan, Arc::new(reducer), &cfg)
                            .unwrap_or_else(|e| panic!("{cell} failed: {e}"));
                        assert_eq!(result.output, baseline.output, "{cell} diverged");
                        let c = result.counters;
                        assert_eq!(c.map_output_records, ROWS as u64);
                        assert_eq!(c.task_retries > 0, fault.is_some(), "{cell}");
                        let bails = dist != KeyDist::Few && budget.is_some();
                        assert_eq!(c.combine_bypassed > 0, bails, "{cell}: {c:?}");
                        if budget.is_none() && backend == BackendSpec::Local {
                            // Resident: site 1 is the only site, and it
                            // sees each emit exactly once.
                            assert_eq!(c.combine_in, ROWS as u64, "{cell}");
                        }
                        let combine = (c.combine_in, c.combine_out, c.combine_bypassed);
                        assert_eq!(*clean.get_or_insert(combine), combine, "{cell}");
                    }
                }
            }
        }
    }
}

/// With no staging cap to force a drain, the table still checks itself
/// every 65 536 emits: a resident all-distinct split bails out there,
/// and the pairs staged after it are exactly the ones not aggregated.
#[test]
fn resident_distinct_split_bails_out_at_the_unforced_check() {
    const ROWS: usize = 70_000;
    let dir = tmpdir("key-dist-unforced");
    let (program, input) = key_dist_submission(&dir, KeyDist::Distinct, ROWS);
    let manimal = Manimal::new(dir.join("work")).unwrap();
    let submission = manimal.submit(&program, &input);
    let full_scan = manimal.plans(&submission).unwrap().pop().unwrap();
    let baseline = manimal
        .execute_baseline(&submission, Arc::new(Builtin::Sum))
        .unwrap()
        .result;
    let result = run_descriptor(&full_scan, Arc::new(Builtin::Sum), &key_dist_cfg()).unwrap();
    assert_eq!(result.output, baseline.output);
    let c = result.counters;
    assert_eq!((c.combine_in, c.combine_out), (65_536, 65_536));
    assert_eq!(c.combine_bypassed, ROWS as u64 - 65_536);
}
