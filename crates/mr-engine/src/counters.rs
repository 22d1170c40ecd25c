//! Job counters.
//!
//! The paper's tables report not just wall-clock time but the *work*
//! each plan does — input sizes, intermediate output sizes (Table 3),
//! index sizes (Table 4). These counters surface the same quantities
//! for every job run, so the benchmark harness can print both time and
//! bytes.
//!
//! Every counter is named once, in the `counters!` list below: it
//! generates the shared [`Counters`], the [`CounterSnapshot`] copy,
//! `snapshot`, `absorb` and the name → value walk the task protocol
//! serializes through, so a new counter is one entry here.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Shared, thread-safe job counters.
        #[derive(Debug, Default)]
        pub struct Counters {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        /// A point-in-time copy of [`Counters`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct CounterSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl Counters {
            /// Snapshot for reporting.
            pub fn snapshot(&self) -> CounterSnapshot {
                CounterSnapshot {
                    $($name: self.$name.load(Ordering::Relaxed),)*
                }
            }

            /// Fold a snapshot of attempt-local counters into these
            /// shared job counters — the commit half of the task-attempt
            /// protocol: a task attempt accumulates into its own private
            /// [`Counters`] and only a *successful* attempt is absorbed,
            /// so the work of failed, retried attempts never
            /// double-counts.
            pub fn absorb(&self, s: &CounterSnapshot) {
                $(Counters::add(&self.$name, s.$name);)*
            }
        }

        impl CounterSnapshot {
            /// Every counter as `(field name, value)`, in declaration
            /// order.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($name), self.$name),)*]
            }

            /// Every counter as `(field name, slot)`, in declaration
            /// order — how a decoder fills a snapshot by name.
            pub fn fields_mut(&mut self) -> Vec<(&'static str, &mut u64)> {
                vec![$((stringify!($name), &mut self.$name),)*]
            }
        }
    };
}

counters! {
    /// Records handed to map tasks.
    map_input_records,
    /// `map()` invocations actually executed (equals input records; kept
    /// separate so index-skipped work is visible by comparison with the
    /// baseline).
    map_invocations,
    /// `(key, value)` pairs emitted by map.
    map_output_records,
    /// Bytes read from input files (post-split accounting).
    input_bytes,
    /// Approximate bytes of shuffled intermediate data.
    shuffle_bytes,
    /// Sorted runs spilled to disk by the shuffle (0 when the whole
    /// shuffle fit in [`JobConfig::shuffle_buffer_bytes`](crate::job::JobConfig::shuffle_buffer_bytes)).
    spill_count,
    /// Pairs written to spill runs by map-side spills (a pair spilled
    /// once counts once; merge-compaction rewrites are not re-counted).
    spilled_records,
    /// Bytes the record layer handed to spill run files *before* the
    /// shuffle codec (header + varint pair frames) — what
    /// `spill_bytes_written` would be with compression off. Map-side
    /// spills plus merge-compaction rewrites.
    spill_bytes_raw,
    /// Physical bytes written to spill run files, after the shuffle
    /// codec ([`JobConfig::shuffle_compression`](crate::job::JobConfig::shuffle_compression))
    /// — map-side spills *plus* merge-compaction rewrites, i.e. total
    /// spill-disk write traffic. Equals `spill_bytes_raw` without a
    /// codec; the gap is exactly the I/O compression saved.
    spill_bytes_written,
    /// Pairs that entered a shuffle-side combine site, once per site:
    /// emits aggregated by a staging table, pairs in a buffer about to
    /// be spill-written, pairs read by a compaction rewrite (the
    /// reduce-side fold is not counted). Zero when no combiner is
    /// plugged in.
    combine_in,
    /// Pairs those combine sites emitted; `combine_in - combine_out` is
    /// exactly the shuffle traffic the combiner removed.
    combine_out,
    /// Emits staged without aggregation after a map attempt saw its
    /// table was not reducing and bailed out (`staging.rs`); counted in
    /// neither `combine_in` nor `combine_out` at that site.
    combine_bypassed,
    /// Distinct keys seen by reduce.
    reduce_input_groups,
    /// Records produced by reduce.
    reduce_output_records,
    /// IR instructions executed across all map tasks.
    instructions_executed,
    /// Side effects recorded by map tasks.
    side_effects,
    /// Map task attempts that failed (each failed attempt counts once,
    /// including the final one of a task that exhausts
    /// [`JobConfig::max_task_attempts`](crate::job::JobConfig::max_task_attempts)).
    map_task_failures,
    /// Reduce task attempts that failed.
    reduce_task_failures,
    /// Task attempts started after a failure (map + reduce). A job with
    /// no faults reports 0.
    task_retries,
    /// Speculative (duplicate) attempts launched against straggling
    /// tasks — process backend only. Not counted as retries: the
    /// original attempt has not failed, it is merely being raced.
    speculative_tasks,
    /// Worker processes killed by the fault plan's `kill:` sites —
    /// process backend only.
    workers_killed,
    /// Heap allocations performed while the job ran. Populated only
    /// when the `bench-alloc` feature instruments the global allocator
    /// (see [`crate::allocstats`]); 0 otherwise. Process-wide, so only
    /// meaningful for serially-run jobs (the bench harness).
    alloc_count,
    /// Heap bytes requested while the job ran (`bench-alloc` only).
    alloc_bytes,
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

    /// Every field goes through the walk, so a counter left out of
    /// `absorb` (or of `snapshot`) cannot pass.
    #[test]
    fn absorb_adds_every_field() {
        let mut attempt = CounterSnapshot::default();
        for (i, (_, v)) in attempt.fields_mut().into_iter().enumerate() {
            *v = 100 + i as u64;
        }
        let job = Counters::new();
        Counters::add(&job.map_input_records, 1);
        job.absorb(&attempt);
        job.absorb(&attempt);
        let fields = job.snapshot().fields();
        assert_eq!(fields.len(), 23);
        for (i, (name, v)) in fields.into_iter().enumerate() {
            let expect = 2 * (100 + i as u64) + u64::from(name == "map_input_records");
            assert_eq!(v, expect, "{name}");
        }
    }

    #[test]
    fn display_lists_counters() {
        let s = CounterSnapshot::default();
        let text = s.to_string();
        assert!(text.contains("map input records"));
        assert!(text.contains("reduce output"));
    }
}
