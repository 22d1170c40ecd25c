//! One task attempt, for both backends.
//!
//! The scoped-thread runner ([`crate::runner`]) and the process
//! backend's worker ([`crate::backend::worker`]) run every map and
//! reduce attempt through this module; they differ only in the values
//! they pass and in how they commit what an attempt leaves behind.
//!
//! * **Map.** [`run_map`] reads one split, maps every record, stages
//!   the emitted pairs ([`Staging`], combine site 1), drains staging to
//!   attempt-scoped runs whenever the staging cap fills, and rolls the
//!   attempt's counters up into an attempt-local [`Counters`]. A drain
//!   sorts, combines and writes each partition's buffer in place on the
//!   map thread, then clears it for reuse. What is still staged at the
//!   end of the split follows the [`SplitEnd`] policy: the local runner
//!   keeps it resident for its commit to absorb, a worker spills it
//!   (there is no cross-process resident tail). The attempt directory
//!   is created at the first drain that has pairs, so an attempt that
//!   never spills touches no disk.
//! * **Reduce.** [`merge_reduce`] merges an attempt's sorted streams
//!   and reduces them one key group at a time, failing where the fault
//!   plan says. Which streams a partition has — compacted runs plus a
//!   resident tail locally, read-only committed runs in a worker — is
//!   the caller's business.

use std::path::Path;
use std::sync::Arc;

use mr_ir::value::Value;

use crate::counters::Counters;
use crate::error::{EngineError, Result};
use crate::fault::FaultPlan;
use crate::input::SplitReader;
use crate::mapper::MapperFactory;
use crate::merge::{LoserTree, RunStream};
use crate::reducer::Reducer;
use crate::spill::{write_sorted_run, AttemptDir, ShuffleEnv, SpillRun};
use crate::staging::Staging;

/// What a map attempt does with the pairs still staged when its split
/// ends.
#[derive(Clone, Copy)]
pub(crate) enum SplitEnd<'a> {
    /// Leave them staged, for the caller's commit to absorb.
    KeepResident,
    /// Write them as runs too, into an attempt directory under this
    /// job directory.
    SpillAll(&'a Path),
}

/// One map attempt's coordinates and spill policy.
pub(crate) struct MapAttempt<'a> {
    /// Map task id (a fault-plan coordinate; names the attempt dir).
    pub task: usize,
    /// Attempt number of the task.
    pub attempt: usize,
    /// Reduce partitions to stage into.
    pub num_reducers: usize,
    /// Staging cap in bytes, and the job directory a cap-forced drain
    /// spills under. `None` keeps staging unbounded.
    pub cap: Option<(usize, &'a Path)>,
    /// The end-of-split policy.
    pub end: SplitEnd<'a>,
    /// Record-level fault schedule.
    pub fault: Option<&'a FaultPlan>,
}

/// A successful map attempt's uncommitted side effects.
pub(crate) struct MapOutput {
    /// Pairs still staged, per partition (pooled loans the commit
    /// recycles; empty under [`SplitEnd::SpillAll`]).
    pub staged: Vec<Vec<(Value, Value)>>,
    /// Byte accounting for `staged`, per partition.
    pub staged_bytes: Vec<usize>,
    /// `(partition, run)` in drain order.
    pub runs: Vec<(usize, SpillRun)>,
    /// Attempt-local counters, absorbed only if the attempt commits.
    pub counters: Arc<Counters>,
    /// Keeps the attempt directory (and its runs) alive until the
    /// commit renames them out; `None` when nothing spilled.
    pub dir: Option<AttemptDir>,
}

/// Where a map attempt's drains go: an attempt directory, created by
/// the first drain that has pairs, and the runs written into it.
struct Spills<'a> {
    env: &'a ShuffleEnv,
    spec: &'a MapAttempt<'a>,
    counters: &'a Counters,
    dir: Option<AttemptDir>,
    runs: Vec<(usize, SpillRun)>,
}

impl Spills<'_> {
    /// Write every nonempty staged partition as a sorted run, in place
    /// on the map thread; each partition's buffer comes back cleared
    /// with its capacity. Spill counters go to the attempt's own
    /// counters: only a committed attempt's spills count.
    fn drain(&mut self, parent: &Path, staging: &mut Staging) -> Result<()> {
        for p in 0..self.spec.num_reducers {
            if staging.is_empty(p) {
                continue;
            }
            if self.dir.is_none() {
                let (task, attempt) = (self.spec.task, self.spec.attempt);
                self.dir = Some(AttemptDir::create(parent, "map", task, attempt)?);
            }
            let dir = self.dir.as_ref().expect("created above").path();
            let seq = self.runs.len();
            let run = staging.drain(p, |pairs| {
                write_sorted_run(self.env, dir, p, seq, pairs, self.counters)
            })?;
            self.runs.push((p, run));
        }
        Ok(())
    }
}

/// Run one map attempt over `reader` with a fresh mapper from
/// `mapper`. Nothing here touches shared state: every side effect lives
/// in the returned [`MapOutput`] until the caller commits it, and on
/// failure every pooled staging buffer goes back to the pool.
pub(crate) fn run_map(
    env: &ShuffleEnv,
    spec: &MapAttempt<'_>,
    reader: SplitReader,
    mapper: &dyn MapperFactory,
) -> Result<MapOutput> {
    let counters = Counters::new();
    let mut staging = Staging::new(spec.num_reducers, &env.combine, &env.pool);
    let mut spills = Spills {
        env,
        spec,
        counters: &counters,
        dir: None,
        runs: Vec::new(),
    };
    if let Err(e) = map_split(spec, reader, mapper, &mut staging, &mut spills) {
        staging.recycle(&env.pool);
        return Err(e);
    }
    let Spills { dir, runs, .. } = spills;
    let (staged, staged_bytes) = match spec.end {
        SplitEnd::KeepResident => staging.into_parts(),
        SplitEnd::SpillAll(_) => {
            staging.recycle(&env.pool);
            Default::default()
        }
    };
    Ok(MapOutput {
        staged,
        staged_bytes,
        runs,
        counters,
        dir,
    })
}

/// The fallible body of a map attempt: the record loop, the drains and
/// the counter rollup. Separated from [`run_map`] so its `?`-returns
/// cannot skip the buffer recycling.
fn map_split(
    spec: &MapAttempt<'_>,
    mut reader: SplitReader,
    mapper: &dyn MapperFactory,
    staging: &mut Staging,
    spills: &mut Spills<'_>,
) -> Result<()> {
    let mut mapper = mapper.create();
    let fire_at = spec
        .fault
        .and_then(|f| f.map_fault(spec.task, spec.attempt));
    let cap = spec.cap;

    let mut emit_buf: Vec<(Value, Value)> = Vec::new();
    let mut records = 0u64;
    let mut outputs = 0u64;
    let mut instructions = 0u64;
    let mut effects = 0u64;
    let mut shuffle_bytes = 0u64;

    loop {
        if fire_at == Some(records) {
            return Err(EngineError::Injected(format!(
                "map task {} attempt {} at record {records}",
                spec.task, spec.attempt
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
        if let Some((cap, dir)) = cap {
            if staging.total_bytes >= cap {
                staging.check_reduction();
                spills.drain(dir, staging)?;
            }
        }
    }
    if let SplitEnd::SpillAll(dir) = spec.end {
        spills.drain(dir, staging)?;
    }
    let acc = spills.counters;
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

/// Stably sort output pairs by key, then value — the order
/// [`JobConfig::sort_output`](crate::job::JobConfig::sort_output) asks
/// for. The grouping loop applies it to each group's emitted pairs and
/// the output assembly to the concatenated partitions; see the
/// [`join`](crate::join) module docs for why the first cannot change
/// what the second produces.
pub(crate) fn sort_pairs(pairs: &mut [(Value, Value)]) {
    pairs.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
}

/// Merge one reduce attempt's sorted `streams` — ties break by stream
/// index, so runs go in spill order with any resident tail last — and
/// reduce them one key group at a time into `out`, sorting each group's
/// emitted pairs when `sort_output` is set. The merged stream fails
/// when about to yield pair `fire_at` (the fault plan's reduce site for
/// `partition`, `attempt`). One stream, or none, skips the merge state.
/// Returns the group count.
pub(crate) fn merge_reduce(
    mut streams: Vec<RunStream>,
    fire_at: Option<u64>,
    partition: usize,
    attempt: usize,
    reducer: &mut dyn Reducer,
    sort_output: bool,
    out: &mut Vec<(Value, Value)>,
) -> Result<u64> {
    if streams.len() <= 1 {
        let gate = FaultGate::new(StreamPairs(streams.pop()), fire_at, partition, attempt);
        reduce_groups(gate, reducer, sort_output, out)
    } else {
        let gate = FaultGate::new(LoserTree::new(streams)?, fire_at, partition, attempt);
        reduce_groups(gate, reducer, sort_output, out)
    }
}

/// Stream sorted pairs through the grouping loop, reducing one key
/// group at a time — only the current group's values are ever held, so
/// the partition is never materialized. With a combiner active the
/// reducer is the [`make_reducer`] wrapper that merges the group's
/// partials and finishes them (combine site 3). With `sort_output`, a
/// group that emitted more than one pair has them [`sort_pairs`]-ed in
/// place, so the partition's output reaches the final sort as sorted
/// runs. Returns the group count.
///
/// [`make_reducer`]: crate::combine::CombineStrategy::make_reducer
fn reduce_groups(
    mut pairs: impl Iterator<Item = Result<(Value, Value)>>,
    reducer: &mut dyn Reducer,
    sort_output: bool,
    out: &mut Vec<(Value, Value)>,
) -> Result<u64> {
    let mut groups = 0u64;
    let mut values: Vec<Value> = Vec::new();
    let mut next = pairs.next().transpose()?;
    while let Some((key, value)) = next {
        values.push(value);
        next = loop {
            match pairs.next().transpose()? {
                Some((k, v)) if k == key => values.push(v),
                other => break other,
            }
        };
        groups += 1;
        let emitted = out.len();
        reducer.reduce(&key, &values, out)?;
        if sort_output && out.len() > emitted + 1 {
            sort_pairs(&mut out[emitted..]);
        }
        values.clear();
    }
    Ok(groups)
}

/// Injects a scheduled failure into a reduce attempt's merged pair
/// stream: fails when about to yield pair `fire_at` (0 fires before
/// anything, even on an empty partition).
struct FaultGate<I> {
    inner: I,
    fire_at: Option<u64>,
    seen: u64,
    partition: usize,
    attempt: usize,
}

impl<I> FaultGate<I> {
    fn new(inner: I, fire_at: Option<u64>, partition: usize, attempt: usize) -> Self {
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
struct StreamPairs(Option<RunStream>);

impl Iterator for StreamPairs {
    type Item = Result<(Value, Value)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.0.as_mut()?.next_pair()
    }
}
