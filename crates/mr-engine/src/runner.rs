//! The job runner: map → shuffle → sort → reduce.
//!
//! "The execution fabric retains the standard map-shuffle-reduce
//! sequence and is almost identical to standard MapReduce" (paper §2).
//! Map tasks run on a worker pool consuming input splits from a queue;
//! emitted pairs are hash-partitioned into per-reducer buckets. With no
//! shuffle budget the whole partition stays resident and is sorted in
//! one pass; with [`JobConfig::shuffle_buffer_bytes`] set, overfull
//! staging buffers spill sorted runs to disk ([`crate::spill`]) and
//! each reduce partition streams a k-way merge of its runs plus the
//! resident tail ([`crate::merge`]) through the grouping loop — same
//! output, bounded memory. Every stage additionally runs through the
//! pluggable [`CombineStrategy`](crate::combine::CombineStrategy): with
//! [`JobConfig::combiner`] set, pairs fold as they are staged, at spill
//! time, and in the merge grouping loop (see [`crate::combine`]).
//!
//! # Task attempts and the commit protocol
//!
//! Map and reduce tasks are *retryable units*
//! ([`JobConfig::max_task_attempts`]). The job runs on `map_parallelism`
//! scoped threads; each asks the scheduler the process backend uses too
//! (`scheduler.rs`: front requeue, retry counting, speculation off
//! here) for an attempt, runs it through the attempt module the
//! process backend's workers use too (`attempt.rs`) with the
//! in-process policy — io-site faults live, whatever is staged at the
//! end of a split kept resident — and commits it or reports the
//! failure. An attempt's side effects stay private until it commits,
//! so a failed attempt contributes no pairs, files or counts:
//!
//! * a **map attempt** spills overfull staging into an attempt-scoped
//!   directory ([`crate::spill::AttemptDir`], deleted on drop unless
//!   committed). Its publish, outside the scheduler lock, renames the
//!   runs into the job spill directory under bucket-assigned sequence
//!   numbers and absorbs the resident pairs into the shared buckets;
//! * a **reduce attempt** reads committed state only — runs plus a
//!   shared sorted tail, kept in a per-partition slot so a retry on any
//!   thread resumes from it (compaction is resumable,
//!   [`crate::merge::compact_runs`]) — and publishes its output.
//!
//! Failures are driven deterministically in tests by
//! [`JobConfig::fault_plan`] ([`crate::fault::FaultPlan`]).
//!
//! Within a reduce group, values arrive in a deterministic order for a
//! fixed schedule, but it is *commit order* across tasks (emission
//! order within a task) — the same contract real MapReduce offers.
//! Order-insensitive reducers (every builtin aggregate) produce
//! byte-identical output under any schedule, retries included.
//!
//! [`JobConfig::shuffle_buffer_bytes`]: crate::job::JobConfig::shuffle_buffer_bytes
//! [`JobConfig::combiner`]: crate::job::JobConfig::combiner
//! [`JobConfig::max_task_attempts`]: crate::job::JobConfig::max_task_attempts
//! [`JobConfig::fault_plan`]: crate::job::JobConfig::fault_plan

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mr_ir::value::Value;
use mr_storage::runfile::RunFileReader;
use parking_lot::Mutex as PlMutex;

use crate::attempt::{merge_reduce, run_map, MapAttempt, MapOutput, SplitEnd};
use crate::backend::{plan_map_tasks, JobRun, Partitions};
use crate::counters::{CounterSnapshot, Counters};
use crate::error::Result;
use crate::fault::FaultPlan;
use crate::input::SplitReader;
use crate::job::JobConfig;
use crate::mapper::MapperFactory;
use crate::merge::{compact_runs, RunStream};
use crate::pool::BufferPool;
use crate::scheduler::{Kind, PanicGuard, Scheduler, Shared};
use crate::spill::{write_sorted_run, ShuffleBucket, ShuffleEnv, SpillDir, SpillRun};

/// Where a job's time went, for bench tables that need to attribute
/// spill cost.
///
/// `setup`, `map`, `reduce` and `output` are consecutive wall-clock
/// spans: `setup` plans the map tasks and loads any broadcast build
/// table (before the map phase starts), `map` includes map-side spill
/// writes, `reduce` includes the merge and the per-group output sort,
/// and `output` assembles the committed partitions into the job's
/// output (the final sort under [`JobConfig::sort_output`]). Together
/// they account for [`JobResult::elapsed`] up to the job bracket's
/// bookkeeping. `shuffle` is *attributed* time — the total spent
/// sorting buffers and writing spill runs, summed across worker threads
/// — so it overlaps `map` and `reduce`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Wall-clock span of task planning and broadcast-table loading.
    pub setup: Duration,
    /// Wall-clock span of the map phase.
    pub map: Duration,
    /// Cumulative cross-thread time sorting and writing shuffle runs.
    pub shuffle: Duration,
    /// Wall-clock span of the merge + reduce phase.
    pub reduce: Duration,
    /// Wall-clock span of assembling (and finally sorting) the output.
    pub output: Duration,
}

/// What a finished job hands back.
#[derive(Debug)]
pub struct JobResult {
    /// Counter snapshot.
    pub counters: crate::counters::CounterSnapshot,
    /// Output pairs (empty when writing to files).
    pub output: Vec<(Value, Value)>,
    /// Output files written (empty for in-memory output).
    pub output_files: Vec<std::path::PathBuf>,
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Per-phase breakdown of `elapsed`.
    pub phases: PhaseTimings,
}

impl JobResult {
    /// Spill compression ratio — bytes written to spill disk over the
    /// record-layer bytes they encode (`spill_bytes_written /
    /// spill_bytes_raw`). Below 1.0 the codec saved disk traffic; the
    /// stored-frame fallback bounds `raw` a few header bytes above 1.0.
    /// `None` when the job never spilled.
    pub fn compression_ratio(&self) -> Option<f64> {
        self.counters.spill_ratio()
    }
}

/// A shuffle budget's in-process side: the job's private spill
/// directory and the two caps the budget is split into.
struct Budget {
    dir: SpillDir,
    /// Per-worker staging cap (half the budget split across workers).
    staging_cap: usize,
    /// Per-bucket resident cap for committed pairs (the other half
    /// split across reducers).
    bucket_cap: usize,
}

/// Everything the local job's worker threads share.
struct LocalJob<'a> {
    run: &'a JobRun<'a>,
    env: &'a ShuffleEnv,
    budget: Option<&'a Budget>,
    /// Planned map tasks, by id.
    maps: Vec<MapTask>,
    /// Committed shuffle state, per partition.
    buckets: Vec<PlMutex<ShuffleBucket>>,
    /// Each partition's reduce input, between its attempts.
    inputs: Vec<PlMutex<Option<PartitionInput>>>,
    /// Committed reduce output, per partition.
    outputs: Vec<PlMutex<Vec<(Value, Value)>>>,
}

/// One planned map task. `first_reader` is the split reader opened at
/// planning time, consumed by attempt 0; retries re-open the split
/// (same input, same hint ⇒ same boundaries).
struct MapTask {
    binding: usize,
    split: usize,
    mapper: Arc<dyn MapperFactory>,
    first_reader: PlMutex<Option<SplitReader>>,
}

/// Spill one bucket: detach its buffer under the lock, but sort and
/// write the run *outside* it, so other committers flushing into the
/// same partition are not serialized behind the disk write. The spill
/// sequence number assigned at detach time keeps runs in commit order
/// however the writes interleave.
fn spill_bucket(ctx: &LocalJob<'_>, p: usize, dir: &SpillDir) -> Result<()> {
    let bucket = &ctx.buckets[p];
    let Some((mut pairs, seq)) = bucket.lock().take_for_spill() else {
        return Ok(());
    };
    let run = write_sorted_run(ctx.env, dir.path(), p, seq, &mut pairs, &ctx.run.counters)?;
    let mut b = bucket.lock();
    b.record_run(run);
    // Hand the detached buffer's capacity back to the bucket so the
    // next absorb starts warm (bucket residents never enter the pool —
    // their lifecycle is per-bucket, not per-attempt).
    b.reclaim_resident(pairs);
    Ok(())
}

/// Run one map attempt with the in-process policy: a retry re-opens
/// the split, and whatever is staged at the end of the split stays
/// resident for [`commit_map_attempt`].
fn run_map_attempt(ctx: &LocalJob<'_>, task: usize, attempt: usize) -> Result<MapOutput> {
    let t = &ctx.maps[task];
    let first = t.first_reader.lock().take();
    let reader = match first {
        Some(r) => r,
        None => ctx.run.job.inputs[t.binding].input.open_split(
            ctx.run.job.map_parallelism.max(1),
            ctx.env.io.as_ref(),
            t.split,
        )?,
    };
    let spec = MapAttempt {
        task,
        attempt,
        num_reducers: ctx.run.num_reducers,
        cap: ctx.budget.map(|b| (b.staging_cap, b.dir.path())),
        end: SplitEnd::KeepResident,
        fault: ctx.run.job.fault_plan.as_deref(),
    };
    run_map(ctx.env, &spec, reader, t.mapper.as_ref())
}

/// Publish a committed map attempt: promote its runs into the job
/// spill directory under bucket-assigned sequence numbers and absorb
/// the resident pairs, spilling buckets past their cap (the scheduler
/// already absorbed the attempt's counters).
fn commit_map_attempt(ctx: &LocalJob<'_>, out: MapOutput) -> Result<()> {
    // An attempt spills only under a budget.
    if let Some(budget) = ctx.budget {
        for (p, run) in &out.runs {
            let seq = ctx.buckets[*p].lock().alloc_seq();
            let dest = budget.dir.path().join(format!("run-{p:05}-{seq:06}"));
            std::fs::rename(&run.path, &dest)?;
            ctx.buckets[*p].lock().record_run(SpillRun {
                seq,
                path: dest,
                pairs: run.pairs,
                raw_bytes: run.raw_bytes,
                bytes: run.bytes,
            });
        }
    }
    for (p, mut pairs) in out.staged.into_iter().enumerate() {
        if pairs.is_empty() {
            ctx.env.pool.put_pairs(pairs);
            continue;
        }
        let over_cap = {
            let mut bucket = ctx.buckets[p].lock();
            bucket.absorb(&mut pairs, out.staged_bytes[p]);
            ctx.budget
                .filter(|b| bucket.resident_bytes() > b.bucket_cap)
        };
        // `absorb` drained the staged buffer; its capacity goes back to
        // the pool for the next attempt's staging slots.
        ctx.env.pool.put_pairs(pairs);
        if let Some(budget) = over_cap {
            spill_bucket(ctx, p, &budget.dir)?;
        }
    }
    Ok(())
}

/// One reduce partition's committed shuffle state: what every attempt
/// of its reduce task reads.
struct PartitionInput {
    /// Spilled runs in spill order, compacted in place (resumably).
    runs: Vec<SpillRun>,
    /// The sorted resident tail, shared until the last allowed attempt
    /// takes it by move.
    tail: Option<Arc<Vec<(Value, Value)>>>,
}

impl PartitionInput {
    /// Take a partition's bucket and sort its resident tail once
    /// (stably, like every spilled run), so every attempt reads the
    /// same sorted state.
    fn take(bucket: &PlMutex<ShuffleBucket>, env: &ShuffleEnv) -> PartitionInput {
        let (mut tail, runs) = std::mem::take(&mut *bucket.lock()).into_parts();
        let t = Instant::now();
        tail.sort_by(|a, b| a.0.cmp(&b.0));
        env.charge(t);
        PartitionInput {
            runs,
            tail: Some(Arc::new(tail)),
        }
    }

    /// One attempt's merge inputs: the runs, compacted to at most
    /// [`MERGE_FACTOR`](crate::merge::MERGE_FACTOR), then the tail. The
    /// final allowed attempt takes the tail by move (the zero-copy
    /// path); earlier attempts share it so a retry can replay it.
    fn streams(
        &mut self,
        env: &ShuffleEnv,
        budget: Option<&Budget>,
        p: usize,
        is_last: bool,
        counters: &Counters,
    ) -> Result<Vec<RunStream>> {
        let mut streams: Vec<RunStream> = Vec::new();
        // Runs exist only under a budget.
        if let Some(budget) = budget.filter(|_| !self.runs.is_empty()) {
            let t = Instant::now();
            compact_runs(env, &mut self.runs, budget.dir.path(), p, counters)?;
            env.charge(t);
            for r in &self.runs {
                let reader = RunFileReader::open_with_faults(&r.path, env.io.clone())?;
                streams.push(RunStream::File(reader));
            }
        }
        if self.tail.as_ref().is_some_and(|t| !t.is_empty()) {
            if is_last {
                let arc = self
                    .tail
                    .take()
                    .expect("tail present until the last attempt");
                let owned = Arc::try_unwrap(arc).unwrap_or_else(|shared| (*shared).clone());
                streams.push(RunStream::Memory(owned.into_iter()));
            } else {
                let arc = self.tail.as_ref().expect("tail present");
                streams.push(RunStream::shared(Arc::clone(arc)));
            }
        }
        Ok(streams)
    }
}

/// Run one reduce attempt of partition `p` over its committed input —
/// taken from the bucket by the first attempt and kept in the
/// partition's slot, for a retry on any thread, until it commits.
fn run_reduce_attempt(
    ctx: &LocalJob<'_>,
    p: usize,
    attempt: usize,
) -> Result<(CounterSnapshot, Vec<(Value, Value)>)> {
    let is_last = attempt + 1 == ctx.run.max_attempts;
    let streams = ctx.inputs[p]
        .lock()
        .get_or_insert_with(|| PartitionInput::take(&ctx.buckets[p], ctx.env))
        .streams(ctx.env, ctx.budget, p, is_last, &ctx.run.counters)?;
    let fault = ctx.run.job.fault_plan.as_deref();
    let fire_at = fault.and_then(|f| f.reduce_fault(p, attempt));
    // Combine site 3: with a combiner, the grouping loop runs the
    // merging/finishing wrapper instead of the raw reducer — the loop
    // itself is shared.
    let mut reducer = ctx.env.combine.make_reducer(&ctx.run.job.reducer);
    let mut out = Vec::new();
    let sort = ctx.run.job.sort_output;
    let groups = merge_reduce(
        streams,
        fire_at,
        p,
        attempt,
        reducer.as_mut(),
        sort,
        &mut out,
    )?;
    let counters = CounterSnapshot {
        reduce_input_groups: groups,
        reduce_output_records: out.len() as u64,
        ..Default::default()
    };
    Ok((counters, out))
}

/// Publish partition `p`'s committed output, and drop its input.
fn publish_reduce(ctx: &LocalJob<'_>, p: usize, out: Vec<(Value, Value)>) -> Result<()> {
    ctx.inputs[p].lock().take();
    *ctx.outputs[p].lock() = out;
    Ok(())
}

/// One worker thread: run the attempts the scheduler hands out until it
/// says stop, committing each success and reporting each failure.
fn work(ctx: &LocalJob<'_>, sched: &Shared) {
    let _guard = PanicGuard(sched);
    while let Some((kind, task, attempt)) = sched.next() {
        match kind {
            Kind::Map => match run_map_attempt(ctx, task, attempt) {
                Ok(out) => {
                    let counters = out.counters.snapshot();
                    sched.commit(kind, task, &counters, || commit_map_attempt(ctx, out));
                }
                Err(e) => sched.fail(kind, task, e),
            },
            Kind::Reduce => match run_reduce_attempt(ctx, task, attempt) {
                Ok((counters, out)) => {
                    sched.commit(kind, task, &counters, || publish_reduce(ctx, task, out));
                }
                Err(e) => sched.fail(kind, task, e),
            },
        }
    }
}

/// Run a job to completion.
///
/// # Example
///
/// Count words from a tiny sequence file with the shuffle capped at
/// 1 KiB, so part of it spills to disk and is merged back — the output
/// is identical to an uncapped run:
///
/// ```
/// use std::sync::Arc;
/// use mr_engine::{
///     run_job, Builtin, FnMapperFactory, InputBinding, InputSpec, JobConfig, OutputSpec,
/// };
/// use mr_ir::record::record;
/// use mr_ir::schema::{FieldType, Schema};
/// use mr_ir::value::Value;
///
/// let schema = Schema::new("T", vec![("word", FieldType::Str)]).into_arc();
/// let path = std::env::temp_dir().join(format!("run-job-doc-{}", std::process::id()));
/// let rows = (0..100).map(|i| record(&schema, vec![format!("w{}", i % 7).into()]));
/// mr_storage::write_seqfile(&path, Arc::clone(&schema), rows)?;
///
/// let mapper = FnMapperFactory(|_k: &Value, v: &Value, out: &mut Vec<(Value, Value)>| {
///     let word = v.as_record().unwrap().get("word").unwrap().clone();
///     out.push((word, Value::Int(1)));
/// });
/// let job = JobConfig {
///     name: "wordcount".into(),
///     inputs: vec![InputBinding {
///         input: InputSpec::SeqFile { path },
///         mapper: Arc::new(mapper),
///         join: None,
///     }],
///     num_reducers: 2,
///     reducer: Arc::new(Builtin::Count),
///     output: OutputSpec::InMemory,
///     map_parallelism: 2,
///     sort_output: true,
///     shuffle_buffer_bytes: Some(1024),
///     shuffle_compression: Default::default(),
///     spill_dir: None,
///     combiner: None,
///     max_task_attempts: 1,
///     fault_plan: None,
///     buffer_pool: None,
///     backend: Default::default(),
/// };
/// let result = run_job(&job)?;
/// assert_eq!(result.output.len(), 7, "seven distinct words");
/// let total: i64 = result.output.iter().map(|(_, v)| v.as_int().unwrap()).sum();
/// assert_eq!(total, 100);
/// # Ok::<(), mr_engine::EngineError>(())
/// ```
pub fn run_job(job: &JobConfig) -> Result<JobResult> {
    crate::backend::dispatch(job)
}

/// The in-process scoped-thread execution path — the reference
/// implementation every other backend must match byte for byte.
/// Returns each partition's reduce output for [`crate::backend`] to
/// assemble.
pub(crate) fn run_job_local(run: &JobRun<'_>) -> Result<(Partitions, PhaseTimings)> {
    let setup_start = Instant::now();
    let job = run.job;
    let num_reducers = run.num_reducers;
    let fault: Option<&FaultPlan> = job.fault_plan.as_deref();
    let workers = job.map_parallelism.max(1);

    // One private, self-cleaning spill directory per job — only created
    // when a shuffle budget makes spilling possible. Half the budget
    // goes to the shared reducer buckets (split evenly), the other half
    // to the workers' task-local staging, spilled into attempt-scoped
    // runs once a worker's share fills — so total resident shuffle
    // memory stays within the budget (plus one flush of slack).
    let budget = match job.shuffle_buffer_bytes {
        Some(b) => Some(Budget {
            dir: SpillDir::create(job.spill_dir.as_deref(), &job.name)?,
            staging_cap: (b / 2 / workers).max(1),
            bucket_cap: (b / 2 / num_reducers).max(1),
        }),
        None => None,
    };
    // Staging buffers and run-writer scratch recycle through a
    // job-private pool unless the caller shares one across jobs; io
    // faults are fresh per run, so the same schedule fails the same
    // operation on every execution.
    let env = ShuffleEnv::new(
        job.combiner.clone(),
        job.shuffle_compression,
        fault.and_then(FaultPlan::io_faults),
        job.buffer_pool.clone().unwrap_or_else(BufferPool::new),
    );

    // Join roles wrap each binding's mapper (tagging / broadcast-table
    // probing) once here; broadcast build tables load a single time and
    // are shared by every task, retries included.
    let mappers = crate::join::effective_factories(&job.inputs)?;
    let maps: Vec<MapTask> = plan_map_tasks(job, env.io.as_ref())?
        .into_iter()
        .map(|(binding, split, reader)| MapTask {
            binding,
            split,
            mapper: Arc::clone(&mappers[binding]),
            first_reader: PlMutex::new(Some(reader)),
        })
        .collect();
    let ctx = LocalJob {
        run,
        env: &env,
        budget: budget.as_ref(),
        maps,
        buckets: (0..num_reducers).map(|_| Default::default()).collect(),
        inputs: (0..num_reducers).map(|_| Default::default()).collect(),
        outputs: (0..num_reducers).map(|_| Default::default()).collect(),
    };

    let sched = Shared::new(Scheduler::new(
        ctx.maps.len(),
        num_reducers,
        run.max_attempts,
        false,
        Arc::clone(&run.counters),
    ));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| work(&ctx, &sched));
        }
    });
    let shuffle = Duration::from_nanos(env.shuffle_nanos.load(Ordering::Relaxed));
    let phases = sched.into_inner().finish(setup_start, shuffle)?;

    let partitions = ctx.outputs.into_iter().map(PlMutex::into_inner).collect();
    // The budget's spill directory drops on return: run files are gone
    // before the output is declared done.
    Ok((partitions, phases))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;
    use crate::input::InputSpec;
    use crate::job::InputBinding;
    use crate::job::OutputSpec;
    use crate::reducer::Builtin;
    use mr_ir::asm::parse_function;
    use mr_ir::record::record;
    use mr_ir::schema::{FieldType, Schema};
    use mr_storage::seqfile::write_seqfile;
    use std::path::PathBuf;

    fn schema() -> Arc<Schema> {
        Schema::new(
            "WebPage",
            vec![("url", FieldType::Str), ("rank", FieldType::Int)],
        )
        .into_arc()
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mr-runner-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}", std::process::id()))
    }

    fn write_pages(name: &str, n: i64) -> PathBuf {
        let s = schema();
        let path = tmp(name);
        let records: Vec<_> = (0..n)
            .map(|i| {
                record(
                    &s,
                    vec![format!("http://s/{}", i % 10).into(), Value::Int(i % 100)],
                )
            })
            .collect();
        write_seqfile(&path, s, records).unwrap();
        path
    }

    /// SELECT rank, COUNT(*) WHERE rank > 89 GROUP BY rank.
    fn count_high_ranks() -> mr_ir::function::Function {
        parse_function(
            r#"
            func map(key, value) {
              r0 = param value
              r1 = field r0.rank
              r2 = const 89
              r3 = cmp gt r1, r2
              br r3, t, e
            t:
              r4 = const 1
              emit r1, r4
            e:
              ret
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn group_by_count_end_to_end() {
        let path = write_pages("groupby", 1000);
        let job = JobConfig::ir_job(
            "count-high",
            InputSpec::SeqFile { path },
            count_high_ranks(),
            Builtin::Count,
        );
        let result = run_job(&job).unwrap();
        // Ranks 90..=99 each appear 10 times.
        assert_eq!(result.output.len(), 10);
        for (k, v) in &result.output {
            assert!(k.as_int().unwrap() > 89);
            assert_eq!(v, &Value::Int(10));
        }
        assert_eq!(result.counters.map_input_records, 1000);
        assert_eq!(result.counters.map_output_records, 100);
        assert_eq!(result.counters.reduce_input_groups, 10);
        assert!(result.counters.input_bytes > 0);
        assert!(result.counters.shuffle_bytes > 0);
        // No budget ⇒ no spills; no faults ⇒ no retries; phase spans
        // are recorded.
        assert_eq!(result.counters.spill_count, 0);
        assert_eq!(result.counters.task_retries, 0);
        assert_eq!(result.counters.map_task_failures, 0);
        let p = result.phases;
        assert!(p.setup + p.map + p.reduce + p.output <= result.elapsed);
    }

    #[test]
    fn broadcast_table_load_is_setup_time() {
        let emit_url = || {
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
        };
        let build = write_pages("bcast-build", 50);
        let probe = write_pages("bcast-probe", 200);
        let mut job = JobConfig::ir_job(
            "bcast",
            InputSpec::SeqFile { path: probe },
            emit_url(),
            Builtin::Identity,
        );
        job.inputs[0].join = Some(crate::join::JoinSide::Broadcast(
            crate::join::BroadcastSpec {
                input: InputSpec::SeqFile { path: build },
                mapper: Arc::new(emit_url()),
            },
        ));
        let result = run_job(&job).unwrap();
        // Ten urls, five build rows each, twenty probe rows each.
        assert_eq!(result.output.len(), 10 * 5 * 20);
        let p = result.phases;
        assert!(p.setup > Duration::ZERO, "the table load is setup time");
        assert!(p.setup + p.map + p.reduce + p.output <= result.elapsed);
    }

    #[test]
    fn deterministic_across_parallelism() {
        let path = write_pages("determinism", 2000);
        let mut results = Vec::new();
        for par in [1usize, 2, 8] {
            let job = JobConfig::ir_job(
                "count-high",
                InputSpec::SeqFile { path: path.clone() },
                count_high_ranks(),
                Builtin::Count,
            )
            .with_parallelism(par)
            .with_reducers(3);
            results.push(run_job(&job).unwrap().output);
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn tiny_shuffle_budget_matches_unbounded_output() {
        let path = write_pages("spillsmall", 2000);
        let base = JobConfig::ir_job(
            "count-high",
            InputSpec::SeqFile { path: path.clone() },
            count_high_ranks(),
            Builtin::Count,
        );
        let unbounded = run_job(&base).unwrap();
        let capped = run_job(
            &JobConfig::ir_job(
                "count-high",
                InputSpec::SeqFile { path },
                count_high_ranks(),
                Builtin::Count,
            )
            .with_shuffle_buffer(64),
        )
        .unwrap();
        assert_eq!(capped.output, unbounded.output);
        assert!(capped.counters.spill_count > 0);
        assert_eq!(
            capped.counters.spilled_records, capped.counters.map_output_records,
            "a 64-byte budget spills every pair"
        );
        assert!(capped.counters.spill_bytes_written > 0);
        assert!(capped.phases.shuffle > Duration::ZERO);
    }

    #[test]
    fn sum_reducer_over_multiple_inputs() {
        let p1 = write_pages("multi1", 500);
        let p2 = write_pages("multi2", 500);
        let mapper = || {
            parse_function(
                r#"
                func map(key, value) {
                  r0 = param value
                  r1 = field r0.url
                  r2 = field r0.rank
                  emit r1, r2
                  ret
                }
                "#,
            )
            .unwrap()
        };
        let job = JobConfig {
            name: "multi".into(),
            inputs: vec![
                InputBinding::ir(InputSpec::SeqFile { path: p1 }, mapper()),
                InputBinding::ir(InputSpec::SeqFile { path: p2 }, mapper()),
            ],
            num_reducers: 4,
            reducer: Arc::new(Builtin::Sum),
            output: OutputSpec::InMemory,
            map_parallelism: 4,
            sort_output: true,
            shuffle_buffer_bytes: None,
            shuffle_compression: Default::default(),
            spill_dir: None,
            combiner: None,
            max_task_attempts: 1,
            fault_plan: None,
            buffer_pool: None,
            backend: Default::default(),
        };
        let result = run_job(&job).unwrap();
        assert_eq!(result.output.len(), 10, "ten distinct urls");
        assert_eq!(result.counters.map_input_records, 1000);
        let total: i64 = result.output.iter().map(|(_, v)| v.as_int().unwrap()).sum();
        // Sum of (i % 100) over 0..500, twice.
        let expected: i64 = (0..500).map(|i| i % 100).sum::<i64>() * 2;
        assert_eq!(total, expected);
    }

    #[test]
    fn map_error_propagates_as_task_failure() {
        let path = write_pages("maperr", 10);
        // Mapper reads a nonexistent field.
        let bad = parse_function(
            r#"
            func map(key, value) {
              r0 = param value
              r1 = field r0.nope
              emit r1, r1
              ret
            }
            "#,
        )
        .unwrap();
        let job = JobConfig::ir_job("bad", InputSpec::SeqFile { path }, bad, Builtin::Count);
        match run_job(&job) {
            Err(EngineError::TaskFailed {
                attempts, cause, ..
            }) => {
                assert_eq!(attempts, 1, "default is the seed's fail-fast behaviour");
                assert!(matches!(*cause, EngineError::Map(_)), "{cause}");
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
    }

    #[test]
    fn deterministic_map_error_exhausts_retries() {
        let path = write_pages("maperr-retry", 10);
        let bad = parse_function(
            r#"
            func map(key, value) {
              r0 = param value
              r1 = field r0.nope
              emit r1, r1
              ret
            }
            "#,
        )
        .unwrap();
        let job = JobConfig::ir_job("bad", InputSpec::SeqFile { path }, bad, Builtin::Count)
            .with_parallelism(1)
            .with_max_attempts(3);
        match run_job(&job) {
            Err(EngineError::TaskFailed { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("expected TaskFailed, got {other:?}"),
        }
    }

    #[test]
    fn text_output_files_written() {
        let path = write_pages("textout", 100);
        let outdir = tmp("textout-dir");
        let _ = std::fs::remove_dir_all(&outdir);
        let job = JobConfig::ir_job(
            "text",
            InputSpec::SeqFile { path },
            count_high_ranks(),
            Builtin::Count,
        )
        .with_reducers(2)
        .with_text_output(&outdir);
        let result = run_job(&job).unwrap();
        assert_eq!(result.output_files.len(), 2);
        let mut lines = 0;
        for f in &result.output_files {
            lines += std::fs::read_to_string(f).unwrap().lines().count();
        }
        assert_eq!(lines as u64, result.counters.reduce_output_records);
    }

    #[test]
    fn empty_input_runs_clean() {
        let s = schema();
        let path = tmp("empty");
        write_seqfile(&path, s, Vec::new()).unwrap();
        let job = JobConfig::ir_job(
            "empty",
            InputSpec::SeqFile { path },
            count_high_ranks(),
            Builtin::Count,
        )
        .with_shuffle_buffer(16);
        let result = run_job(&job).unwrap();
        assert!(result.output.is_empty());
        assert_eq!(result.counters.map_input_records, 0);
        assert_eq!(result.counters.spill_count, 0);
    }

    #[test]
    fn no_inputs_is_config_error() {
        let job = JobConfig {
            name: "none".into(),
            inputs: vec![],
            num_reducers: 1,
            reducer: Arc::new(Builtin::Count),
            output: OutputSpec::InMemory,
            map_parallelism: 1,
            sort_output: false,
            shuffle_buffer_bytes: None,
            shuffle_compression: Default::default(),
            spill_dir: None,
            combiner: None,
            max_task_attempts: 1,
            fault_plan: None,
            buffer_pool: None,
            backend: Default::default(),
        };
        assert!(matches!(run_job(&job), Err(EngineError::Config(_))));
    }
}
