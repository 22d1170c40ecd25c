//! Job counters.
//!
//! The paper's tables report not just wall-clock time but the *work*
//! each plan does — input sizes, intermediate output sizes (Table 3),
//! index sizes (Table 4). These counters surface the same quantities
//! for every job run, so the benchmark harness can print both time and
//! bytes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, thread-safe job counters.
#[derive(Debug, Default)]
pub struct Counters {
    /// Records handed to map tasks.
    pub map_input_records: AtomicU64,
    /// `map()` invocations actually executed (equals input records; kept
    /// separate so index-skipped work is visible by comparison with the
    /// baseline).
    pub map_invocations: AtomicU64,
    /// `(key, value)` pairs emitted by map.
    pub map_output_records: AtomicU64,
    /// Bytes read from input files (post-split accounting).
    pub input_bytes: AtomicU64,
    /// Approximate bytes of shuffled intermediate data.
    pub shuffle_bytes: AtomicU64,
    /// Sorted runs spilled to disk by the shuffle (0 when the whole
    /// shuffle fit in [`JobConfig::shuffle_buffer_bytes`](crate::job::JobConfig::shuffle_buffer_bytes)).
    pub spill_count: AtomicU64,
    /// Pairs written to spill runs by map-side spills (a pair spilled
    /// once counts once; merge-compaction rewrites are not re-counted).
    pub spilled_records: AtomicU64,
    /// Bytes the record layer handed to spill run files *before* the
    /// shuffle codec (header + varint pair frames) — what
    /// `spill_bytes_written` would be with compression off. Map-side
    /// spills plus merge-compaction rewrites.
    pub spill_bytes_raw: AtomicU64,
    /// Physical bytes written to spill run files, after the shuffle
    /// codec ([`JobConfig::shuffle_compression`](crate::job::JobConfig::shuffle_compression))
    /// — map-side spills *plus* merge-compaction rewrites, i.e. total
    /// spill-disk write traffic. Equals `spill_bytes_raw` without a
    /// codec; the gap is exactly the I/O compression saved.
    pub spill_bytes_written: AtomicU64,
    /// Shared shuffle dictionaries trained by this job (dict-trained
    /// codec only). One map task trains per job; everything else
    /// reuses, so a healthy job reports at most 1.
    pub dict_trained: AtomicU64,
    /// Times a committed (or store-cached) trained dictionary was
    /// reused instead of retrained — retries, sibling map tasks,
    /// compaction, and repeat jobs over the same data all count here.
    pub dict_reused: AtomicU64,
    /// Pairs that entered a shuffle-side combine site, once per site:
    /// emits aggregated by a staging table, pairs in a buffer about to
    /// be spill-written, pairs read by a compaction rewrite (the
    /// reduce-side fold is not counted). Zero when no combiner is
    /// plugged in.
    pub combine_in: AtomicU64,
    /// Pairs those combine sites emitted; `combine_in - combine_out` is
    /// exactly the shuffle traffic the combiner removed.
    pub combine_out: AtomicU64,
    /// Emits staged without aggregation after a map attempt saw its
    /// table was not reducing and bailed out (`staging.rs`); counted in
    /// neither `combine_in` nor `combine_out` at that site.
    pub combine_bypassed: AtomicU64,
    /// Distinct keys seen by reduce.
    pub reduce_input_groups: AtomicU64,
    /// Records produced by reduce.
    pub reduce_output_records: AtomicU64,
    /// IR instructions executed across all map tasks.
    pub instructions_executed: AtomicU64,
    /// Side effects recorded by map tasks.
    pub side_effects: AtomicU64,
    /// Map task attempts that failed (each failed attempt counts once,
    /// including the final one of a task that exhausts
    /// [`JobConfig::max_task_attempts`](crate::job::JobConfig::max_task_attempts)).
    pub map_task_failures: AtomicU64,
    /// Reduce task attempts that failed.
    pub reduce_task_failures: AtomicU64,
    /// Task attempts started after a failure (map + reduce). A job with
    /// no faults reports 0.
    pub task_retries: AtomicU64,
    /// Speculative (duplicate) attempts launched against straggling
    /// tasks — process backend only. Not counted as retries: the
    /// original attempt has not failed, it is merely being raced.
    pub speculative_tasks: AtomicU64,
    /// Worker processes killed by the fault plan's `kill:` sites —
    /// process backend only.
    pub workers_killed: AtomicU64,
    /// Heap allocations performed while the job ran. Populated only
    /// when the `bench-alloc` feature instruments the global allocator
    /// (see [`crate::allocstats`]); 0 otherwise. Process-wide, so only
    /// meaningful for serially-run jobs (the bench harness).
    pub alloc_count: AtomicU64,
    /// Heap bytes requested while the job ran (`bench-alloc` only).
    pub alloc_bytes: AtomicU64,
}

impl Counters {
    /// Fresh shared counters.
    pub fn new() -> Arc<Counters> {
        Arc::new(Counters::default())
    }

    /// Add to a counter.
    pub fn add(counter: &AtomicU64, v: u64) {
        counter.fetch_add(v, Ordering::Relaxed);
    }

    /// Snapshot for reporting.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            map_input_records: self.map_input_records.load(Ordering::Relaxed),
            map_invocations: self.map_invocations.load(Ordering::Relaxed),
            map_output_records: self.map_output_records.load(Ordering::Relaxed),
            input_bytes: self.input_bytes.load(Ordering::Relaxed),
            shuffle_bytes: self.shuffle_bytes.load(Ordering::Relaxed),
            spill_count: self.spill_count.load(Ordering::Relaxed),
            spilled_records: self.spilled_records.load(Ordering::Relaxed),
            spill_bytes_raw: self.spill_bytes_raw.load(Ordering::Relaxed),
            spill_bytes_written: self.spill_bytes_written.load(Ordering::Relaxed),
            dict_trained: self.dict_trained.load(Ordering::Relaxed),
            dict_reused: self.dict_reused.load(Ordering::Relaxed),
            combine_in: self.combine_in.load(Ordering::Relaxed),
            combine_out: self.combine_out.load(Ordering::Relaxed),
            combine_bypassed: self.combine_bypassed.load(Ordering::Relaxed),
            reduce_input_groups: self.reduce_input_groups.load(Ordering::Relaxed),
            reduce_output_records: self.reduce_output_records.load(Ordering::Relaxed),
            instructions_executed: self.instructions_executed.load(Ordering::Relaxed),
            side_effects: self.side_effects.load(Ordering::Relaxed),
            map_task_failures: self.map_task_failures.load(Ordering::Relaxed),
            reduce_task_failures: self.reduce_task_failures.load(Ordering::Relaxed),
            task_retries: self.task_retries.load(Ordering::Relaxed),
            speculative_tasks: self.speculative_tasks.load(Ordering::Relaxed),
            workers_killed: self.workers_killed.load(Ordering::Relaxed),
            alloc_count: self.alloc_count.load(Ordering::Relaxed),
            alloc_bytes: self.alloc_bytes.load(Ordering::Relaxed),
        }
    }

    /// Fold a snapshot of attempt-local counters into these shared job
    /// counters — the commit half of the task-attempt protocol: a task
    /// attempt accumulates into its own private [`Counters`] and only a
    /// *successful* attempt is absorbed, so the work of failed,
    /// retried attempts never double-counts.
    pub fn absorb(&self, s: &CounterSnapshot) {
        Counters::add(&self.map_input_records, s.map_input_records);
        Counters::add(&self.map_invocations, s.map_invocations);
        Counters::add(&self.map_output_records, s.map_output_records);
        Counters::add(&self.input_bytes, s.input_bytes);
        Counters::add(&self.shuffle_bytes, s.shuffle_bytes);
        Counters::add(&self.spill_count, s.spill_count);
        Counters::add(&self.spilled_records, s.spilled_records);
        Counters::add(&self.spill_bytes_raw, s.spill_bytes_raw);
        Counters::add(&self.spill_bytes_written, s.spill_bytes_written);
        Counters::add(&self.dict_trained, s.dict_trained);
        Counters::add(&self.dict_reused, s.dict_reused);
        Counters::add(&self.combine_in, s.combine_in);
        Counters::add(&self.combine_out, s.combine_out);
        Counters::add(&self.combine_bypassed, s.combine_bypassed);
        Counters::add(&self.reduce_input_groups, s.reduce_input_groups);
        Counters::add(&self.reduce_output_records, s.reduce_output_records);
        Counters::add(&self.instructions_executed, s.instructions_executed);
        Counters::add(&self.side_effects, s.side_effects);
        Counters::add(&self.map_task_failures, s.map_task_failures);
        Counters::add(&self.reduce_task_failures, s.reduce_task_failures);
        Counters::add(&self.task_retries, s.task_retries);
        Counters::add(&self.speculative_tasks, s.speculative_tasks);
        Counters::add(&self.workers_killed, s.workers_killed);
        Counters::add(&self.alloc_count, s.alloc_count);
        Counters::add(&self.alloc_bytes, s.alloc_bytes);
    }
}

impl CounterSnapshot {
    /// Shuffle compression ratio: physical spill bytes over pre-codec
    /// spill bytes (`< 1.0` means the codec saved disk I/O). `None`
    /// when nothing spilled.
    pub fn spill_ratio(&self) -> Option<f64> {
        if self.spill_bytes_raw == 0 {
            None
        } else {
            Some(self.spill_bytes_written as f64 / self.spill_bytes_raw as f64)
        }
    }
}

/// A point-in-time copy of [`Counters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Records handed to map tasks.
    pub map_input_records: u64,
    /// `map()` invocations executed.
    pub map_invocations: u64,
    /// Pairs emitted by map.
    pub map_output_records: u64,
    /// Bytes read from inputs.
    pub input_bytes: u64,
    /// Approximate shuffled bytes.
    pub shuffle_bytes: u64,
    /// Sorted runs spilled to disk.
    pub spill_count: u64,
    /// Pairs written to spill runs (map-side spills).
    pub spilled_records: u64,
    /// Record-layer bytes sent to spill runs before the codec.
    pub spill_bytes_raw: u64,
    /// Physical bytes written to spill runs (incl. compaction
    /// rewrites), after the codec.
    pub spill_bytes_written: u64,
    /// Shared shuffle dictionaries trained (dict-trained codec only).
    pub dict_trained: u64,
    /// Committed trained dictionaries reused instead of retrained.
    pub dict_reused: u64,
    /// Pairs entering combine sites (0 without a combiner).
    pub combine_in: u64,
    /// Pairs leaving combine sites.
    pub combine_out: u64,
    /// Emits staged unaggregated after the map-side bail-out.
    pub combine_bypassed: u64,
    /// Distinct reduce keys.
    pub reduce_input_groups: u64,
    /// Reduce output records.
    pub reduce_output_records: u64,
    /// IR instructions executed.
    pub instructions_executed: u64,
    /// Side effects recorded.
    pub side_effects: u64,
    /// Failed map task attempts.
    pub map_task_failures: u64,
    /// Failed reduce task attempts.
    pub reduce_task_failures: u64,
    /// Attempts started after a failure.
    pub task_retries: u64,
    /// Speculative duplicate attempts launched (process backend only).
    pub speculative_tasks: u64,
    /// Worker processes killed by `kill:` fault sites (process backend
    /// only).
    pub workers_killed: u64,
    /// Heap allocations during the job (`bench-alloc` feature only).
    pub alloc_count: u64,
    /// Heap bytes requested during the job (`bench-alloc` only).
    pub alloc_bytes: u64,
}

impl std::fmt::Display for CounterSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "map input records : {}", self.map_input_records)?;
        writeln!(f, "map invocations   : {}", self.map_invocations)?;
        writeln!(f, "map output records: {}", self.map_output_records)?;
        writeln!(f, "input bytes       : {}", self.input_bytes)?;
        writeln!(f, "shuffle bytes     : {}", self.shuffle_bytes)?;
        writeln!(f, "spill runs        : {}", self.spill_count)?;
        writeln!(f, "spilled records   : {}", self.spilled_records)?;
        writeln!(f, "spill bytes raw   : {}", self.spill_bytes_raw)?;
        writeln!(f, "spill bytes writtn: {}", self.spill_bytes_written)?;
        writeln!(f, "combine in        : {}", self.combine_in)?;
        writeln!(f, "combine out       : {}", self.combine_out)?;
        writeln!(f, "combine bypassed  : {}", self.combine_bypassed)?;
        writeln!(f, "reduce groups     : {}", self.reduce_input_groups)?;
        writeln!(f, "reduce output     : {}", self.reduce_output_records)?;
        writeln!(f, "map task failures : {}", self.map_task_failures)?;
        writeln!(f, "red. task failures: {}", self.reduce_task_failures)?;
        write!(f, "task retries      : {}", self.task_retries)?;
        if let Some(ratio) = self.spill_ratio() {
            write!(f, "\nspill ratio       : {ratio:.4}")?;
        }
        if self.dict_trained > 0 || self.dict_reused > 0 {
            write!(
                f,
                "\ndicts trained     : {}\ndicts reused      : {}",
                self.dict_trained, self.dict_reused
            )?;
        }
        if self.speculative_tasks > 0 || self.workers_killed > 0 {
            write!(
                f,
                "\nspeculative tasks : {}\nworkers killed    : {}",
                self.speculative_tasks, self.workers_killed
            )?;
        }
        if self.alloc_count > 0 {
            write!(
                f,
                "\nheap allocations  : {}\nheap alloc bytes  : {}",
                self.alloc_count, self.alloc_bytes
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_snapshot() {
        let c = Counters::new();
        Counters::add(&c.map_input_records, 10);
        Counters::add(&c.map_input_records, 5);
        Counters::add(&c.input_bytes, 1024);
        let s = c.snapshot();
        assert_eq!(s.map_input_records, 15);
        assert_eq!(s.input_bytes, 1024);
        assert_eq!(s.reduce_output_records, 0);
    }

    #[test]
    fn absorb_adds_every_field() {
        let attempt = Counters::new();
        Counters::add(&attempt.map_input_records, 7);
        Counters::add(&attempt.spilled_records, 3);
        Counters::add(&attempt.combine_in, 2);
        Counters::add(&attempt.combine_bypassed, 4);
        let job = Counters::new();
        Counters::add(&job.map_input_records, 1);
        job.absorb(&attempt.snapshot());
        let s = job.snapshot();
        assert_eq!(s.map_input_records, 8);
        assert_eq!(s.spilled_records, 3);
        assert_eq!(s.combine_in, 2);
        assert_eq!(s.combine_bypassed, 4);
        assert_eq!(s.task_retries, 0);
    }

    #[test]
    fn display_lists_counters() {
        let s = CounterSnapshot::default();
        let text = s.to_string();
        assert!(text.contains("map input records"));
        assert!(text.contains("reduce output"));
    }
}
