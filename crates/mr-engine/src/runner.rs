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
//! pluggable [`CombineStrategy`]: with [`JobConfig::combiner`] set,
//! pairs fold as they are staged, at spill time, and in the merge
//! grouping loop (see [`crate::combine`]).
//!
//! # Task attempts and the commit protocol
//!
//! Map and reduce tasks are *retryable units*
//! ([`JobConfig::max_task_attempts`]), inheriting MapReduce's core
//! production guarantee: individual tasks fail and are transparently
//! re-executed. Idempotency comes from keeping every attempt's side
//! effects private until the attempt succeeds:
//!
//! * a **map attempt** stages emitted pairs task-locally and spills
//!   overfull staging into runs under an attempt-scoped directory
//!   ([`crate::spill::AttemptDir`], an RAII guard that deletes
//!   everything uncommitted on drop). On success the attempt
//!   **commits**: run files are renamed into the job spill directory
//!   under bucket-assigned sequence numbers, resident pairs are
//!   absorbed into the shared buckets (spilling buckets that outgrow
//!   their cap), and the attempt's privately-accumulated counters are
//!   folded into the job counters — so a failed attempt contributes
//!   nothing: no pairs, no files, no counts;
//! * a **reduce attempt** reads committed state only (run files plus a
//!   shared sorted tail) and publishes its output and counters on
//!   success. Run compaction is resumable across attempts
//!   ([`crate::merge::compact_runs`]).
//!
//! A task that fails every allowed attempt surfaces
//! [`EngineError::TaskFailed`] and aborts the job; each failed attempt
//! bumps `map_task_failures`/`reduce_task_failures` and each
//! re-execution bumps `task_retries`. Failures are driven
//! deterministically in tests by [`JobConfig::fault_plan`]
//! ([`crate::fault::FaultPlan`]).
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

use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mr_ir::value::Value;
use mr_storage::blockcodec::ShuffleCompression;
use mr_storage::fault::IoFaults;
use mr_storage::runfile::RunFileReader;
use parking_lot::Mutex as PlMutex;

use crate::allocstats;
use crate::combine::CombineStrategy;
use crate::counters::Counters;
use crate::dictctx::DictContext;
use crate::error::{EngineError, Result};
use crate::fault::FaultPlan;
use crate::input::SplitReader;
use crate::job::{JobConfig, OutputSpec};
use crate::mapper::MapperFactory;
use crate::merge::{compact_runs, LoserTree, RunStream};
use crate::pool::BufferPool;
use crate::reducer::Reducer;
use crate::spill::{write_sorted_run, AttemptDir, ShuffleBucket, SpillDir, SpillRun};
use crate::spillwriter::{SpillWriter, SpillWriterCfg};
use crate::staging::Staging;

/// Where a job's time went, for bench tables that need to attribute
/// spill cost.
///
/// `map` and `reduce` are wall-clock spans of their phases (`map`
/// includes map-side spill writes; `reduce` includes the merge).
/// `shuffle` is *attributed* time — the total spent sorting buffers and
/// writing spill runs, summed across worker threads — so it overlaps
/// the other two and the three fields need not add up to
/// [`JobResult::elapsed`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Wall-clock span of the map phase.
    pub map: Duration,
    /// Cumulative cross-thread time sorting and writing shuffle runs.
    pub shuffle: Duration,
    /// Wall-clock span of the merge + reduce phase.
    pub reduce: Duration,
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

/// Everything the map phase threads through task attempts.
struct MapCtx<'a> {
    job: &'a JobConfig,
    num_reducers: usize,
    /// Per-worker staging budget (half the shuffle budget split across
    /// workers); `None` keeps staging unbounded (no attempt spills).
    local_cap: Option<usize>,
    /// Per-bucket resident budget for committed pairs.
    bucket_cap: Option<usize>,
    spill_dir: Option<&'a SpillDir>,
    combine: &'a CombineStrategy,
    compression: ShuffleCompression,
    /// Shared-dictionary authority (dict-trained codec only).
    dict: Option<&'a Arc<DictContext>>,
    fault: Option<&'a FaultPlan>,
    io: Option<&'a Arc<IoFaults>>,
    shuffle_nanos: &'a Arc<AtomicU64>,
    counters: &'a Arc<Counters>,
    buckets: &'a [PlMutex<ShuffleBucket>],
    pool: &'a Arc<BufferPool>,
    writer_threads: usize,
}

/// One planned map task. `first_reader` is the split reader opened at
/// planning time, consumed by attempt 0; retries re-open the split
/// (same input, same hint ⇒ same boundaries).
struct MapTask {
    id: usize,
    binding: usize,
    split: usize,
    mapper: Arc<dyn MapperFactory>,
    first_reader: Option<SplitReader>,
}

/// A successful map attempt's uncommitted side effects.
struct MapAttemptOutput {
    /// Resident staged pairs per partition (partial domain when a
    /// combiner is active).
    staged: Vec<Vec<(Value, Value)>>,
    /// Byte accounting for `staged`, per partition.
    staged_bytes: Vec<usize>,
    /// Attempt-scoped spill runs, in write order.
    runs: Vec<(usize, SpillRun)>,
    /// Attempt-local counters, folded into the job counters on commit.
    acc: Arc<Counters>,
    /// Keeps the attempt directory (and its files) alive until the
    /// commit renames them out; dropping it uncommitted deletes them.
    _dir: Option<AttemptDir>,
}

/// Spill one bucket: detach its buffer under the lock, but sort and
/// write the run *outside* it, so other committers flushing into the
/// same partition are not serialized behind the disk write. The spill
/// sequence number assigned at detach time keeps runs in commit order
/// however the writes interleave.
#[allow(clippy::too_many_arguments)]
fn spill_bucket(
    bucket: &PlMutex<ShuffleBucket>,
    p: usize,
    dir: &SpillDir,
    counters: &Counters,
    shuffle_nanos: &AtomicU64,
    combine: &CombineStrategy,
    compression: ShuffleCompression,
    dict: Option<&DictContext>,
    io: Option<&Arc<IoFaults>>,
    pool: &BufferPool,
) -> Result<()> {
    let Some((mut pairs, seq)) = bucket.lock().take_for_spill() else {
        return Ok(());
    };
    let t = Instant::now();
    let run = write_sorted_run(
        dir.path(),
        p,
        seq,
        &mut pairs,
        combine,
        compression,
        dict,
        counters,
        io,
        pool,
    )?;
    shuffle_nanos.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    Counters::add(&counters.spill_count, 1);
    Counters::add(&counters.spilled_records, run.pairs);
    Counters::add(&counters.spill_bytes_raw, run.raw_bytes);
    Counters::add(&counters.spill_bytes_written, run.bytes);
    let mut b = bucket.lock();
    b.record_run(run);
    // Hand the detached buffer's capacity back to the bucket so the
    // next absorb starts warm (bucket residents never enter the pool —
    // their lifecycle is per-bucket, not per-attempt).
    b.reclaim_resident(pairs);
    Ok(())
}

/// Run one map attempt: read the split, map, stage, and (with a
/// budget) spill overfull staging into attempt-scoped runs through the
/// background [`SpillWriter`]. Nothing here touches shared state — all
/// side effects live in the returned [`MapAttemptOutput`] until
/// [`commit_map_attempt`] publishes them.
///
/// This wrapper owns the attempt's resource discipline: whatever the
/// map loop does, the spill writer is joined *before* the attempt
/// directory can drop (a failing attempt must not delete run files
/// under an in-flight write) and every pooled buffer is either handed
/// to the commit or recycled.
fn run_map_attempt(
    ctx: &MapCtx<'_>,
    task: &mut MapTask,
    attempt: usize,
) -> Result<MapAttemptOutput> {
    let acc = Counters::new();
    let mut staging = Staging::new(ctx.num_reducers, ctx.combine, ctx.pool);
    let mut attempt_dir: Option<AttemptDir> = None;
    let mut writer: Option<SpillWriter> = None;

    let body = map_attempt_loop(
        ctx,
        task,
        attempt,
        &acc,
        &mut staging,
        &mut attempt_dir,
        &mut writer,
    );
    let runs = match writer {
        Some(w) => w.finish(),
        None => Ok(Vec::new()),
    };
    let runs = match (body, runs) {
        (Ok(()), Ok(runs)) => runs,
        // A writer-side error is the root cause — the loop only saw
        // the placeholder from a failed submit.
        (_, Err(e)) | (Err(e), Ok(_)) => {
            staging.recycle(ctx.pool);
            return Err(e);
        }
    };
    let (staged, staged_bytes) = staging.into_parts();
    Ok(MapAttemptOutput {
        staged,
        staged_bytes,
        runs,
        acc,
        _dir: attempt_dir,
    })
}

/// The fallible body of a map attempt: the record loop plus the
/// counter rollup. Separated from [`run_map_attempt`] so its
/// `?`-returns cannot skip the writer join / buffer recycling.
fn map_attempt_loop(
    ctx: &MapCtx<'_>,
    task: &mut MapTask,
    attempt: usize,
    acc: &Arc<Counters>,
    staging: &mut Staging,
    attempt_dir: &mut Option<AttemptDir>,
    writer: &mut Option<SpillWriter>,
) -> Result<()> {
    let mut reader = match task.first_reader.take() {
        Some(r) => r,
        None => reopen_split(ctx, task)?,
    };
    let mut mapper = task.mapper.create();
    let fire_at = ctx.fault.and_then(|f| f.map_fault(task.id, attempt));

    let mut emit_buf: Vec<(Value, Value)> = Vec::new();
    let mut records = 0u64;
    let mut outputs = 0u64;
    let mut instructions = 0u64;
    let mut effects = 0u64;
    let mut shuffle_bytes = 0u64;

    loop {
        if fire_at == Some(records) {
            return Err(EngineError::Injected(format!(
                "map task {} attempt {attempt} at record {records}",
                task.id
            )));
        }
        let Some(item) = reader.next() else { break };
        let (k, v) = item?;
        records += 1;
        emit_buf.clear();
        let stats = mapper.map(&k, &v, &mut emit_buf)?;
        instructions += stats.instructions;
        effects += stats.side_effects;
        outputs += emit_buf.len() as u64;
        for (ok, ov) in emit_buf.drain(..) {
            shuffle_bytes += staging.emit(ok, ov)? as u64;
        }
        // Combine site 1 already happened inside `emit`: with an active
        // combiner `total_bytes` counts table-resident partials, so a
        // low-cardinality split never gets here. What does is drained
        // to attempt-scoped runs, and the drain is where the attempt
        // asks whether aggregating is still paying.
        if ctx.local_cap.is_some_and(|cap| staging.total_bytes >= cap) {
            staging.check_reduction();
            spill_staging(ctx, acc, task.id, attempt, staging, attempt_dir, writer)?;
        }
    }
    staging.finish(acc);

    Counters::add(&acc.map_input_records, records);
    Counters::add(&acc.map_invocations, records);
    Counters::add(&acc.map_output_records, outputs);
    Counters::add(&acc.instructions_executed, instructions);
    Counters::add(&acc.side_effects, effects);
    Counters::add(&acc.shuffle_bytes, shuffle_bytes);
    Counters::add(&acc.input_bytes, reader.bytes_read());
    Ok(())
}

/// Re-open one map task's split for a retry attempt.
fn reopen_split(ctx: &MapCtx<'_>, task: &MapTask) -> Result<SplitReader> {
    let readers = ctx.job.inputs[task.binding]
        .input
        .open_with_faults(ctx.job.map_parallelism.max(1), ctx.io)?;
    readers
        .into_iter()
        .nth(task.split)
        .ok_or_else(|| EngineError::Config(format!("split {} vanished on retry", task.split)))
}

/// Spill every nonempty staged partition of a map attempt into
/// attempt-scoped runs via the background [`SpillWriter`]: detach the
/// buffer, hand it to the writer, and keep mapping — sort/compress/flush
/// happen off the map loop (synchronously when
/// [`JobConfig::spill_writer_threads`] is 0). Spill counters go to the
/// attempt-local accumulator: only a committed attempt's spills count.
fn spill_staging(
    ctx: &MapCtx<'_>,
    acc: &Arc<Counters>,
    task: usize,
    attempt: usize,
    staging: &mut Staging,
    attempt_dir: &mut Option<AttemptDir>,
    writer: &mut Option<SpillWriter>,
) -> Result<()> {
    for p in 0..ctx.num_reducers {
        if staging.is_empty(p) {
            continue;
        }
        let pairs = staging.take(p, ctx.pool);
        if writer.is_none() {
            let parent = ctx
                .spill_dir
                .expect("staging cap implies a shuffle budget and spill dir")
                .path();
            let dir = attempt_dir.insert(AttemptDir::create(parent, "map", task, attempt)?);
            *writer = Some(SpillWriter::new(
                SpillWriterCfg {
                    dir: dir.path().to_path_buf(),
                    combine: ctx.combine.clone(),
                    compression: ctx.compression,
                    dict: ctx.dict.map(Arc::clone),
                    counters: Arc::clone(acc),
                    io: ctx.io.map(Arc::clone),
                    pool: Arc::clone(ctx.pool),
                    shuffle_nanos: Arc::clone(ctx.shuffle_nanos),
                },
                ctx.writer_threads,
            ));
        }
        writer
            .as_mut()
            .expect("writer installed above")
            .submit(p, pairs)?;
    }
    Ok(())
}

/// Publish a successful map attempt: promote its runs into the job
/// spill directory under bucket-assigned sequence numbers, absorb the
/// resident pairs (spilling buckets past their cap), and fold the
/// attempt counters into the job counters. Commit errors are not
/// retryable — a failure mid-commit may have published part of the
/// attempt, so the caller aborts the job instead of re-running the
/// task.
fn commit_map_attempt(ctx: &MapCtx<'_>, out: MapAttemptOutput) -> Result<()> {
    for (p, run) in &out.runs {
        let dir = ctx
            .spill_dir
            .expect("attempt runs imply a spill dir")
            .path();
        let seq = ctx.buckets[*p].lock().alloc_seq();
        let dest = dir.join(format!("run-{p:05}-{seq:06}"));
        std::fs::rename(&run.path, &dest)?;
        ctx.buckets[*p].lock().record_run(SpillRun {
            seq,
            path: dest,
            pairs: run.pairs,
            raw_bytes: run.raw_bytes,
            bytes: run.bytes,
        });
    }
    for (p, mut pairs) in out.staged.into_iter().enumerate() {
        if pairs.is_empty() {
            ctx.pool.put_pairs(pairs);
            continue;
        }
        let over_cap = {
            let mut bucket = ctx.buckets[p].lock();
            bucket.absorb(&mut pairs, out.staged_bytes[p]);
            ctx.bucket_cap
                .is_some_and(|cap| bucket.resident_bytes() > cap)
        };
        // `absorb` drained the staged buffer; its capacity goes back to
        // the pool for the next attempt's staging slots.
        ctx.pool.put_pairs(pairs);
        if over_cap {
            if let Some(dir) = ctx.spill_dir {
                spill_bucket(
                    &ctx.buckets[p],
                    p,
                    dir,
                    ctx.counters,
                    ctx.shuffle_nanos,
                    ctx.combine,
                    ctx.compression,
                    ctx.dict.map(Arc::as_ref),
                    ctx.io,
                    ctx.pool,
                )?;
            }
        }
    }
    ctx.counters.absorb(&out.acc.snapshot());
    Ok(())
}

/// Reduce one completed key group and reset the value buffer — the
/// single flush block both the grouping-loop body and the trailing
/// flush of [`reduce_groups`] share. The combining merge loop reuses it
/// too: with a combiner active the "reducer" here is the
/// [`CombineStrategy::make_reducer`] wrapper that merges the group's
/// partials and finishes them.
fn flush_group(
    reducer: &mut dyn Reducer,
    key: &Value,
    values: &mut Vec<Value>,
    out: &mut Vec<(Value, Value)>,
    groups: &mut u64,
) -> Result<()> {
    *groups += 1;
    reducer.reduce(key, values, out)?;
    values.clear();
    Ok(())
}

/// Stream sorted pairs through the grouping loop, reducing one key
/// group at a time — only the current group's values are ever held, so
/// the partition is never materialized. Returns the group count.
pub(crate) fn reduce_groups(
    pairs: impl Iterator<Item = Result<(Value, Value)>>,
    reducer: &mut dyn Reducer,
    out: &mut Vec<(Value, Value)>,
) -> Result<u64> {
    let mut groups = 0u64;
    let mut cur_key: Option<Value> = None;
    let mut values: Vec<Value> = Vec::new();
    for item in pairs {
        let (k, v) = item?;
        match &cur_key {
            Some(ck) if *ck == k => values.push(v),
            Some(ck) => {
                flush_group(reducer, ck, &mut values, out, &mut groups)?;
                values.push(v);
                cur_key = Some(k);
            }
            None => {
                cur_key = Some(k);
                values.push(v);
            }
        }
    }
    if let Some(ck) = &cur_key {
        flush_group(reducer, ck, &mut values, out, &mut groups)?;
    }
    Ok(groups)
}

/// Injects a scheduled failure into a reduce attempt's merged pair
/// stream: fails when about to yield pair `fire_at` (0 fires before
/// anything, even on an empty partition).
pub(crate) struct FaultGate<I> {
    inner: I,
    fire_at: Option<u64>,
    seen: u64,
    partition: usize,
    attempt: usize,
}

impl<I> FaultGate<I> {
    /// Gate `inner`, failing when pair `fire_at` is about to be
    /// yielded for reduce `partition`, `attempt`.
    pub(crate) fn new(inner: I, fire_at: Option<u64>, partition: usize, attempt: usize) -> Self {
        FaultGate {
            inner,
            fire_at,
            seen: 0,
            partition,
            attempt,
        }
    }
}

impl<I: Iterator<Item = Result<(Value, Value)>>> Iterator for FaultGate<I> {
    type Item = Result<(Value, Value)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.fire_at == Some(self.seen) {
            self.fire_at = None;
            return Some(Err(EngineError::Injected(format!(
                "reduce task {} attempt {} at record {}",
                self.partition, self.attempt, self.seen
            ))));
        }
        let item = self.inner.next()?;
        self.seen += 1;
        Some(item)
    }
}

/// The pairs of a single [`RunStream`] (or nothing), for the heap-free
/// one-stream reduce path.
pub(crate) struct StreamPairs(pub(crate) Option<RunStream>);

impl Iterator for StreamPairs {
    type Item = Result<(Value, Value)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.0.as_mut()?.next_pair()
    }
}

/// What one reduce attempt yields: input groups, records written, and
/// the collected output pairs (empty when streamed to a part file).
type ReduceAttemptOutput = (u64, u64, Vec<(Value, Value)>);

/// Everything the reduce phase threads through task attempts.
struct ReduceCtx<'a> {
    spill_dir: Option<&'a SpillDir>,
    combine: &'a CombineStrategy,
    compression: ShuffleCompression,
    /// Shared-dictionary authority (dict-trained codec only).
    dict: Option<&'a Arc<DictContext>>,
    fault: Option<&'a FaultPlan>,
    io: Option<&'a Arc<IoFaults>>,
    shuffle_nanos: &'a AtomicU64,
    counters: &'a Arc<Counters>,
    pool: &'a Arc<BufferPool>,
}

/// Run one reduce attempt over committed state: compact the runs
/// (resumable), merge them with the shared tail, and stream the result
/// through the grouping loop. The final allowed attempt takes the tail
/// by move (the seed's zero-copy path); earlier attempts share it so a
/// retry can replay it.
#[allow(clippy::too_many_arguments)]
fn run_reduce_attempt(
    ctx: &ReduceCtx<'_>,
    p: usize,
    attempt: usize,
    is_last: bool,
    runs: &mut Vec<SpillRun>,
    tail: &mut Option<Arc<Vec<(Value, Value)>>>,
    reducer: &mut dyn Reducer,
    out: &mut Vec<(Value, Value)>,
) -> Result<u64> {
    let fire_at = ctx.fault.and_then(|f| f.reduce_fault(p, attempt));
    let mut streams: Vec<RunStream> = Vec::new();
    if !runs.is_empty() {
        let dir = ctx.spill_dir.expect("spilled runs imply a spill dir");
        let t = Instant::now();
        compact_runs(
            runs,
            dir.path(),
            p,
            ctx.counters,
            ctx.combine,
            ctx.compression,
            ctx.dict.map(Arc::as_ref),
            ctx.io,
            ctx.pool,
        )?;
        ctx.shuffle_nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        for r in runs.iter() {
            streams.push(RunStream::File(RunFileReader::open_with_faults(
                &r.path,
                ctx.io.cloned(),
            )?));
        }
    }
    let tail_has_pairs = tail.as_ref().is_some_and(|t| !t.is_empty());
    if tail_has_pairs {
        if is_last {
            let arc = tail.take().expect("tail present until the last attempt");
            let owned = Arc::try_unwrap(arc).unwrap_or_else(|shared| (*shared).clone());
            streams.push(RunStream::Memory(owned.into_iter()));
        } else {
            let arc = tail.as_ref().expect("tail present");
            streams.push(RunStream::shared(Arc::clone(arc)));
        }
    }
    if streams.len() <= 1 {
        // One stream (or an empty partition): no merge state needed.
        let gate = FaultGate {
            inner: StreamPairs(streams.pop()),
            fire_at,
            seen: 0,
            partition: p,
            attempt,
        };
        reduce_groups(gate, reducer, out)
    } else {
        let gate = FaultGate {
            inner: LoserTree::new(streams)?,
            fire_at,
            seen: 0,
            partition: p,
            attempt,
        };
        reduce_groups(gate, reducer, out)
    }
}

/// Pipelined text output for one reduce partition: reduced pairs
/// stream to a hidden temp file as each key group completes, and the
/// file reaches its final `part-NNNNN` name by atomic rename only when
/// the attempt succeeds. A failed attempt's sink removes its temp file
/// on drop, so retries start clean and the output directory only ever
/// holds committed part files — the same write-then-rename idempotency
/// the spill commit uses.
struct TextSink {
    tmp: PathBuf,
    dest: PathBuf,
    file: Option<std::io::BufWriter<std::fs::File>>,
    pairs_written: u64,
}

impl TextSink {
    fn create(dir: &Path, p: usize, attempt: usize) -> Result<TextSink> {
        let dest = dir.join(format!("part-{p:05}"));
        let tmp = dir.join(format!(".part-{p:05}.attempt-{attempt}.tmp"));
        let file = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        Ok(TextSink {
            tmp,
            dest,
            file: Some(file),
            pairs_written: 0,
        })
    }

    /// Drain `pairs` to the file as `key\tvalue` lines.
    fn write_pairs(&mut self, pairs: &mut Vec<(Value, Value)>) -> Result<()> {
        let f = self.file.as_mut().expect("sink written after finish");
        for (k, v) in pairs.drain(..) {
            writeln!(f, "{k}\t{v}")?;
            self.pairs_written += 1;
        }
        Ok(())
    }

    /// Flush and publish the part file; returns its final path and the
    /// pair count it carries.
    fn finish(mut self) -> Result<(PathBuf, u64)> {
        let mut f = self.file.take().expect("sink finished twice");
        f.flush()?;
        drop(f);
        std::fs::rename(&self.tmp, &self.dest)?;
        Ok((self.dest.clone(), self.pairs_written))
    }
}

impl Drop for TextSink {
    fn drop(&mut self) {
        if self.file.take().is_some() {
            let _ = std::fs::remove_file(&self.tmp);
        }
    }
}

/// Wraps an attempt's reducer so each finished group's output drains
/// straight to the [`TextSink`] instead of accumulating in memory —
/// the output end of the pipeline: merge, group, reduce and write
/// proceed in lockstep with bounded buffering, and a partition's
/// output never has to fit in memory.
struct StreamingReducer {
    inner: Box<dyn Reducer>,
    sink: TextSink,
}

impl Reducer for StreamingReducer {
    fn reduce(
        &mut self,
        key: &Value,
        values: &[Value],
        out: &mut Vec<(Value, Value)>,
    ) -> Result<()> {
        self.inner.reduce(key, values, out)?;
        self.sink.write_pairs(out)
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
///     dict_store: None,
///     combiner: None,
///     max_task_attempts: 1,
///     fault_plan: None,
///     spill_writer_threads: 1,
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
/// implementation behind [`crate::backend::LocalBackend`], and the
/// behaviour every other backend must match byte for byte.
pub(crate) fn run_job_local(job: &JobConfig) -> Result<JobResult> {
    let start = Instant::now();
    if job.inputs.is_empty() {
        return Err(EngineError::Config("job has no inputs".into()));
    }
    let num_reducers = job.num_reducers.max(1);
    let max_attempts = job.max_task_attempts.max(1);
    let counters = Counters::new();
    let shuffle_nanos = Arc::new(AtomicU64::new(0));
    // Steady-state allocation accounting: snapshot the (feature-gated)
    // global-allocator counters around the job and report the delta.
    // Process-wide, so it attributes cleanly only when one job runs at
    // a time — exactly how the hot-path bench uses it.
    let (alloc_count0, alloc_bytes0) = allocstats::totals();
    // Staging buffers and run-writer scratch recycle through this pool;
    // a job-private pool unless the caller shares one across jobs.
    let pool: Arc<BufferPool> = job.buffer_pool.clone().unwrap_or_else(BufferPool::new);
    // The pluggable aggregation pipeline: pass-through without a
    // combiner, folding at every shuffle stage with one.
    let combine = CombineStrategy::new(job.combiner.clone());
    let fault: Option<&FaultPlan> = job.fault_plan.as_deref();
    // Fresh per run, so the same schedule fails the same operation on
    // every execution.
    let io: Option<Arc<IoFaults>> = fault.and_then(FaultPlan::io_faults);

    // One private, self-cleaning spill directory per job — only created
    // when a shuffle budget makes spilling possible.
    let spill_dir = match job.shuffle_buffer_bytes {
        Some(_) => Some(SpillDir::create(job.spill_dir.as_deref(), &job.name)?),
        None => None,
    };
    // Half the budget goes to the shared reducer buckets (split evenly) …
    let bucket_cap = job
        .shuffle_buffer_bytes
        .map(|b| (b / 2 / num_reducers).max(1));
    // The dict-trained codec's job-scoped dictionary authority: commits
    // `shuffle.dict` into the job spill directory (first trainer wins),
    // optionally deduplicating through a persistent store.
    let dict_ctx: Option<Arc<DictContext>> = match (&spill_dir, job.shuffle_compression) {
        (Some(dir), ShuffleCompression::DictTrained) => Some(Arc::new(DictContext::new(
            dir.path(),
            job.dict_store.clone(),
        ))),
        _ => None,
    };

    // ---- plan map tasks ------------------------------------------------
    let workers = job.map_parallelism.max(1);
    // … and the other half to the workers' task-local staging, spilled
    // into attempt-scoped runs once a worker's share fills — so total
    // resident shuffle memory stays within the budget (plus one flush
    // of slack).
    let local_cap = job.shuffle_buffer_bytes.map(|b| (b / 2 / workers).max(1));

    // Join roles wrap each binding's mapper (tagging / broadcast-table
    // probing) once here; broadcast build tables load a single time and
    // are shared by every task, retries included.
    let mappers = crate::join::effective_factories(&job.inputs)?;
    let mut tasks: VecDeque<MapTask> = VecDeque::new();
    for (binding_idx, binding) in job.inputs.iter().enumerate() {
        for (split_idx, reader) in binding
            .input
            .open_with_faults(workers, io.as_ref())?
            .into_iter()
            .enumerate()
        {
            tasks.push_back(MapTask {
                id: tasks.len(),
                binding: binding_idx,
                split: split_idx,
                mapper: Arc::clone(&mappers[binding_idx]),
                first_reader: Some(reader),
            });
        }
    }

    // ---- map phase ------------------------------------------------------
    let map_start = Instant::now();
    let buckets: Vec<PlMutex<ShuffleBucket>> = (0..num_reducers)
        .map(|_| PlMutex::new(ShuffleBucket::new()))
        .collect();
    let queue = Mutex::new(tasks);
    let failed: PlMutex<Option<EngineError>> = PlMutex::new(None);
    let abort = AtomicBool::new(false);
    let ctx = MapCtx {
        job,
        num_reducers,
        local_cap,
        bucket_cap,
        spill_dir: spill_dir.as_ref(),
        combine: &combine,
        compression: job.shuffle_compression,
        dict: dict_ctx.as_ref(),
        fault,
        io: io.as_ref(),
        shuffle_nanos: &shuffle_nanos,
        counters: &counters,
        buckets: &buckets,
        pool: &pool,
        writer_threads: job.spill_writer_threads,
    };

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if abort.load(Ordering::Relaxed) {
                    return;
                }
                let task = queue.lock().expect("queue lock").pop_front();
                let Some(mut task) = task else { return };
                let mut last_err: Option<EngineError> = None;
                let mut committed = false;
                for attempt in 0..max_attempts {
                    if abort.load(Ordering::Relaxed) {
                        return;
                    }
                    if attempt > 0 {
                        Counters::add(&counters.task_retries, 1);
                    }
                    match run_map_attempt(&ctx, &mut task, attempt) {
                        Ok(out) => {
                            if let Err(e) = commit_map_attempt(&ctx, out) {
                                *failed.lock() = Some(e);
                                abort.store(true, Ordering::Relaxed);
                                return;
                            }
                            committed = true;
                            break;
                        }
                        Err(e) => {
                            Counters::add(&counters.map_task_failures, 1);
                            last_err = Some(e);
                        }
                    }
                }
                if !committed {
                    let cause = last_err.expect("a failed task records its last error");
                    *failed.lock() = Some(EngineError::TaskFailed {
                        task: format!("map task {}", task.id),
                        attempts: max_attempts,
                        cause: Box::new(cause),
                    });
                    abort.store(true, Ordering::Relaxed);
                    return;
                }
            });
        }
    });
    if let Some(e) = failed.lock().take() {
        return Err(e);
    }
    let map_elapsed = map_start.elapsed();

    // ---- sort/merge + reduce phase ---------------------------------------
    let reduce_start = Instant::now();
    let reduce_outputs: Vec<PlMutex<Vec<(Value, Value)>>> = (0..num_reducers)
        .map(|_| PlMutex::new(Vec::new()))
        .collect();
    // Pipelined text output: with an unsorted TextDir destination each
    // partition's pairs stream to their part file as groups complete
    // (merge → reduce → write in lockstep) instead of buffering the
    // whole partition and writing it after the phase. Sorted output
    // still buffers — the final sort needs the full partition anyway.
    let streaming_dir: Option<PathBuf> = match &job.output {
        OutputSpec::TextDir(dir) if !job.sort_output => {
            std::fs::create_dir_all(dir)?;
            Some(dir.clone())
        }
        _ => None,
    };
    let part_paths: Vec<PlMutex<Option<PathBuf>>> =
        (0..num_reducers).map(|_| PlMutex::new(None)).collect();
    let partitions: Mutex<VecDeque<usize>> = Mutex::new((0..num_reducers).collect());
    let rctx = ReduceCtx {
        spill_dir: spill_dir.as_ref(),
        combine: &combine,
        compression: job.shuffle_compression,
        dict: dict_ctx.as_ref(),
        fault,
        io: io.as_ref(),
        shuffle_nanos: &shuffle_nanos,
        counters: &counters,
        pool: &pool,
    };

    std::thread::scope(|scope| {
        for _ in 0..workers.min(num_reducers) {
            scope.spawn(|| loop {
                if abort.load(Ordering::Relaxed) {
                    return;
                }
                let p = partitions.lock().expect("partition lock").pop_front();
                let Some(p) = p else { return };
                let bucket = std::mem::take(&mut *buckets[p].lock());
                let (mut tail_vec, mut runs) = bucket.into_parts();
                // Sort the resident tail once (stable, like every
                // spilled run); every attempt reads the same sorted
                // state.
                let t = Instant::now();
                tail_vec.sort_by(|a, b| a.0.cmp(&b.0));
                shuffle_nanos.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
                let mut tail = Some(Arc::new(tail_vec));

                let mut last_err: Option<EngineError> = None;
                let mut committed = false;
                for attempt in 0..max_attempts {
                    if abort.load(Ordering::Relaxed) {
                        return;
                    }
                    if attempt > 0 {
                        Counters::add(&counters.task_retries, 1);
                    }
                    // Combine site 3: with a combiner, the grouping
                    // loop runs the merging/finishing wrapper instead
                    // of the raw reducer — the loop itself is shared.
                    // With a streaming destination the reducer is
                    // additionally wrapped in the [`TextSink`] drain.
                    let is_last = attempt + 1 == max_attempts;
                    let attempt_result = (|| -> Result<ReduceAttemptOutput> {
                        let mut out: Vec<(Value, Value)> = Vec::new();
                        match &streaming_dir {
                            Some(dir) => {
                                let mut reducer = StreamingReducer {
                                    inner: combine.make_reducer(&job.reducer),
                                    sink: TextSink::create(dir, p, attempt)?,
                                };
                                let groups = run_reduce_attempt(
                                    &rctx,
                                    p,
                                    attempt,
                                    is_last,
                                    &mut runs,
                                    &mut tail,
                                    &mut reducer,
                                    &mut out,
                                )?;
                                let (path, written) = reducer.sink.finish()?;
                                *part_paths[p].lock() = Some(path);
                                Ok((groups, written, out))
                            }
                            None => {
                                let mut reducer = combine.make_reducer(&job.reducer);
                                let groups = run_reduce_attempt(
                                    &rctx,
                                    p,
                                    attempt,
                                    is_last,
                                    &mut runs,
                                    &mut tail,
                                    reducer.as_mut(),
                                    &mut out,
                                )?;
                                let written = out.len() as u64;
                                Ok((groups, written, out))
                            }
                        }
                    })();
                    match attempt_result {
                        Ok((groups, written, out)) => {
                            Counters::add(&counters.reduce_input_groups, groups);
                            Counters::add(&counters.reduce_output_records, written);
                            *reduce_outputs[p].lock() = out;
                            committed = true;
                            break;
                        }
                        Err(e) => {
                            Counters::add(&counters.reduce_task_failures, 1);
                            last_err = Some(e);
                        }
                    }
                }
                if !committed {
                    let cause = last_err.expect("a failed task records its last error");
                    *failed.lock() = Some(EngineError::TaskFailed {
                        task: format!("reduce task {p}"),
                        attempts: max_attempts,
                        cause: Box::new(cause),
                    });
                    abort.store(true, Ordering::Relaxed);
                    return;
                }
            });
        }
    });
    if let Some(e) = failed.lock().take() {
        return Err(e);
    }
    let reduce_elapsed = reduce_start.elapsed();
    drop(spill_dir); // remove run files before output is declared done

    // ---- output ----------------------------------------------------------
    let mut output_files = Vec::new();
    let mut output = Vec::new();
    match &job.output {
        OutputSpec::InMemory => {
            for bucket in &reduce_outputs {
                output.append(&mut bucket.lock());
            }
            if job.sort_output {
                output.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
            }
        }
        OutputSpec::TextDir(_) if streaming_dir.is_some() => {
            // Part files were streamed and committed during the reduce
            // phase; just collect their paths in partition order.
            for slot in &part_paths {
                let path = slot
                    .lock()
                    .take()
                    .expect("every committed partition published a part file");
                output_files.push(path);
            }
        }
        OutputSpec::TextDir(dir) => {
            std::fs::create_dir_all(dir)?;
            for (p, bucket) in reduce_outputs.iter().enumerate() {
                let path = dir.join(format!("part-{p:05}"));
                let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
                let mut pairs = std::mem::take(&mut *bucket.lock());
                if job.sort_output {
                    pairs.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
                }
                for (k, v) in pairs {
                    writeln!(f, "{k}\t{v}")?;
                }
                f.flush()?;
                output_files.push(path);
            }
        }
    }

    let (alloc_count1, alloc_bytes1) = allocstats::totals();
    Counters::add(
        &counters.alloc_count,
        alloc_count1.saturating_sub(alloc_count0),
    );
    Counters::add(
        &counters.alloc_bytes,
        alloc_bytes1.saturating_sub(alloc_bytes0),
    );

    Ok(JobResult {
        counters: counters.snapshot(),
        output,
        output_files,
        elapsed: start.elapsed(),
        phases: PhaseTimings {
            map: map_elapsed,
            shuffle: Duration::from_nanos(shuffle_nanos.load(Ordering::Relaxed)),
            reduce: reduce_elapsed,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::InputSpec;
    use crate::job::InputBinding;
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
        assert!(result.phases.map + result.phases.reduce <= result.elapsed);
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
            dict_store: None,
            combiner: None,
            max_task_attempts: 1,
            fault_plan: None,
            spill_writer_threads: 1,
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
            dict_store: None,
            combiner: None,
            max_task_attempts: 1,
            fault_plan: None,
            spill_writer_threads: 1,
            buffer_pool: None,
            backend: Default::default(),
        };
        assert!(matches!(run_job(&job), Err(EngineError::Config(_))));
    }
}
