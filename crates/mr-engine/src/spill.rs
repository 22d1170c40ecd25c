//! Map-side shuffle buckets with a bounded memory footprint.
//!
//! The paper's fabric "retains the standard map-shuffle-reduce
//! sequence" (§2); Hadoop's version of that sequence scales past RAM by
//! spilling sorted runs of map output and merging them at reduce time.
//! This module is the spill half: each reduce partition owns a
//! [`ShuffleBucket`] that accumulates emitted pairs, and when a bucket
//! outgrows its share of [`JobConfig::shuffle_buffer_bytes`] the runner
//! detaches the buffer ([`ShuffleBucket::take_for_spill`], under the
//! bucket lock), sorts it by key (stably, preserving emission order
//! within a key) and writes it to a [`mr_storage::runfile`] run
//! ([`write_sorted_run`], *outside* the lock, so map workers are not
//! serialized behind disk writes). Runs carry a sequence number
//! assigned at detach time, which keeps them in emission order however
//! the writes interleave. The merge half lives in [`crate::merge`].
//!
//! [`JobConfig::shuffle_buffer_bytes`]: crate::job::JobConfig::shuffle_buffer_bytes

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mr_ir::value::Value;
use mr_storage::blockcodec::ShuffleCompression;
use mr_storage::fault::IoFaults;
use mr_storage::runfile::{RunFileStats, RunFileWriter, RunScratch};

use crate::combine::{CombineStrategy, Combiner};
use crate::counters::Counters;
use crate::error::Result;
use crate::pool::BufferPool;

/// A job's shuffle-write settings: everything a run write needs besides
/// the pairs, where they go and which counters they charge. Built once
/// per job (local backend) or once per worker process, and shared by
/// every spill, compaction rewrite and merge of that job.
pub struct ShuffleEnv {
    /// Spill-time and compaction-time combine sites.
    pub combine: CombineStrategy,
    /// Block codec of every run file written.
    pub compression: ShuffleCompression,
    /// Fault injection for run-file reads and writes.
    pub io: Option<Arc<IoFaults>>,
    /// Pool the pair buffers and writer scratch recycle through.
    pub pool: Arc<BufferPool>,
    /// Cross-thread shuffle time (sorting, writing, compacting), in
    /// nanoseconds.
    pub shuffle_nanos: AtomicU64,
}

impl ShuffleEnv {
    /// Settings for one job (or worker process), with the shuffle clock
    /// at zero.
    pub fn new(
        combiner: Option<Arc<dyn Combiner>>,
        compression: ShuffleCompression,
        io: Option<Arc<IoFaults>>,
        pool: Arc<BufferPool>,
    ) -> ShuffleEnv {
        ShuffleEnv {
            combine: CombineStrategy::new(combiner),
            compression,
            io,
            pool,
            shuffle_nanos: AtomicU64::new(0),
        }
    }

    /// Charge the time since `t` to the shuffle clock.
    pub fn charge(&self, t: Instant) {
        self.shuffle_nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    /// Write one run file at `path` in the env's codec; `fill` appends
    /// the pairs. Writer
    /// scratch ([`RunScratch`]) is loaned from the pool for the write
    /// and comes back with its capacity, so in steady state a write
    /// touches the allocator only when a pair outgrows every recycled
    /// buffer. A failed writer keeps its scratch: the loan is balanced
    /// with fresh scratch so pool accounting stays exact on fault paths
    /// (capacity is lost, correctness not).
    pub(crate) fn write_run<T>(
        &self,
        path: &Path,
        fill: impl FnOnce(&mut RunFileWriter) -> Result<T>,
    ) -> Result<(RunFileStats, T)> {
        let scratch = self.pool.get_scratch();
        let written = (|| {
            let mut w =
                RunFileWriter::create_pooled(path, self.compression, self.io.clone(), scratch)?;
            let filled = fill(&mut w)?;
            let (stats, scratch) = w.finish_reclaim()?;
            Ok((stats, scratch, filled))
        })();
        match written {
            Ok((stats, scratch, filled)) => {
                self.pool.put_scratch(scratch);
                Ok((stats, filled))
            }
            Err(e) => {
                self.pool.put_scratch(RunScratch::new());
                Err(e)
            }
        }
    }

    /// No combiner, no codec, no faults, a fresh pool.
    #[cfg(test)]
    pub(crate) fn plain() -> ShuffleEnv {
        ShuffleEnv::new(None, ShuffleCompression::None, None, BufferPool::new())
    }
}

/// One spilled sorted run.
#[derive(Debug, Clone)]
pub struct SpillRun {
    /// Spill sequence within the bucket (buffer-detach = emission
    /// order); the merge tie-breaks equal keys by it.
    pub seq: usize,
    /// The run file.
    pub path: PathBuf,
    /// Pairs in the run.
    pub pairs: u64,
    /// Record-layer bytes before the shuffle codec (what `bytes` would
    /// be uncompressed).
    pub raw_bytes: u64,
    /// Run file size in bytes (codec framing included).
    pub bytes: u64,
}

/// A per-job spill directory, created on demand and removed (with
/// everything in it) when the job finishes.
#[derive(Debug)]
pub struct SpillDir {
    path: PathBuf,
}

impl SpillDir {
    /// Create a fresh private directory under `parent` (or the system
    /// temp dir). The name embeds the pid and a process-wide sequence
    /// number so concurrent jobs never collide.
    pub fn create(parent: Option<&Path>, job_name: &str) -> Result<SpillDir> {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let sanitized: String = job_name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .take(32)
            .collect();
        let base = parent
            .map(Path::to_path_buf)
            .unwrap_or_else(std::env::temp_dir);
        let path = base.join(format!("mr-spill-{sanitized}-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(SpillDir { path })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// RAII scope for one task attempt's spill runs: a private
/// subdirectory of the job's [`SpillDir`] that is removed — with any
/// partial run files still inside — when the guard drops. A successful
/// attempt *commits* by renaming its run files out into the job
/// directory before the guard goes; a failed attempt just drops the
/// guard and every side effect of the attempt vanishes. This is what
/// keeps retried attempts idempotent on disk: between a spill and the
/// merge, every uncommitted run file is owned by exactly one live
/// guard.
#[derive(Debug)]
pub struct AttemptDir {
    path: PathBuf,
}

impl AttemptDir {
    /// Create the scope for `kind` (`map`/`reduce`) task `task`,
    /// attempt `attempt` under the job spill dir.
    pub fn create(parent: &Path, kind: &str, task: usize, attempt: usize) -> Result<AttemptDir> {
        let path = parent.join(format!("attempt-{kind}-{task:05}-{attempt:03}"));
        std::fs::create_dir_all(&path)?;
        Ok(AttemptDir { path })
    }

    /// The attempt directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for AttemptDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// One reduce partition's shuffle bucket: the resident pair buffer plus
/// the runs already spilled for it.
#[derive(Debug, Default)]
pub struct ShuffleBucket {
    resident: Vec<(Value, Value)>,
    resident_bytes: usize,
    next_seq: usize,
    runs: Vec<SpillRun>,
}

impl ShuffleBucket {
    /// An empty bucket.
    pub fn new() -> ShuffleBucket {
        ShuffleBucket::default()
    }

    /// Append a map task's pairs for this partition. `bytes` is the
    /// same approximate pair size the `shuffle_bytes` counter uses, so
    /// budget accounting and reporting agree.
    pub fn absorb(&mut self, pairs: &mut Vec<(Value, Value)>, bytes: usize) {
        self.resident.append(pairs);
        self.resident_bytes += bytes;
    }

    /// Approximate bytes currently resident.
    pub fn resident_bytes(&self) -> usize {
        self.resident_bytes
    }

    /// Runs recorded so far (in record order, not spill order).
    pub fn runs(&self) -> &[SpillRun] {
        &self.runs
    }

    /// Claim the next spill sequence number without detaching the
    /// buffer — how a committing map attempt assigns its
    /// attempt-scoped runs a place in the bucket's emission order.
    pub fn alloc_seq(&mut self) -> usize {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Detach the resident buffer for spilling and assign it the next
    /// spill sequence number. The caller sorts and writes it outside
    /// the bucket lock ([`write_sorted_run`]) and hands the result back
    /// via [`record_run`](Self::record_run). `None` when there is
    /// nothing to spill.
    pub fn take_for_spill(&mut self) -> Option<(Vec<(Value, Value)>, usize)> {
        if self.resident.is_empty() {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.resident_bytes = 0;
        Some((std::mem::take(&mut self.resident), seq))
    }

    /// Register a run written by [`write_sorted_run`].
    pub fn record_run(&mut self, run: SpillRun) {
        self.runs.push(run);
    }

    /// Give a spilled buffer's capacity back to the bucket. Adopted
    /// (cleared) only when the resident buffer is still empty and the
    /// donation is bigger — a committer may have refilled the bucket
    /// while the spill wrote.
    pub fn reclaim_resident(&mut self, mut buf: Vec<(Value, Value)>) {
        if self.resident.is_empty() && buf.capacity() > self.resident.capacity() {
            buf.clear();
            self.resident = buf;
        }
    }

    /// Tear down into `(resident tail, spilled runs)` for the merge.
    /// The tail is returned unsorted; runs come back ordered by spill
    /// sequence — emission order — and the merge breaks key ties by run
    /// index, with the tail last, to reproduce the in-memory stable
    /// sort exactly.
    pub fn into_parts(mut self) -> (Vec<(Value, Value)>, Vec<SpillRun>) {
        self.runs.sort_by_key(|r| r.seq);
        (self.resident, self.runs)
    }
}

/// Stably sort `pairs` by key (emission order survives within equal
/// keys), fold duplicate keys when the env carries a combiner — the
/// spill-time combine site, shrinking the run before it hits disk —
/// and write the result as run `seq` of `partition` under `dir`,
/// compressed through the env's block codec. The write is charged to
/// the shuffle clock and to `counters` as one spill.
///
/// The pair buffer is borrowed, not consumed: on return it holds the
/// sorted (and possibly combined) pairs, and the caller clears or
/// recycles it.
pub fn write_sorted_run(
    env: &ShuffleEnv,
    dir: &Path,
    partition: usize,
    seq: usize,
    pairs: &mut Vec<(Value, Value)>,
    counters: &Counters,
) -> Result<SpillRun> {
    let t = Instant::now();
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    env.combine.combine_sorted(pairs, counters)?;
    let path = dir.join(format!("run-{partition:05}-{seq:06}"));
    let (stats, ()) = env.write_run(&path, |w| {
        for (k, v) in pairs.iter() {
            w.append(k, v)?;
        }
        Ok(())
    })?;
    env.charge(t);
    Counters::add(&counters.spill_count, 1);
    Counters::add(&counters.spilled_records, stats.pairs);
    Counters::add(&counters.spill_bytes_raw, stats.raw_bytes);
    Counters::add(&counters.spill_bytes_written, stats.file_bytes);
    Ok(SpillRun {
        seq,
        path,
        pairs: stats.pairs,
        raw_bytes: stats.raw_bytes,
        bytes: stats.file_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reducer::Builtin;
    use mr_storage::runfile::RunFileReader;

    fn plain_run(
        dir: &Path,
        partition: usize,
        seq: usize,
        mut pairs: Vec<(Value, Value)>,
    ) -> Result<SpillRun> {
        let env = ShuffleEnv::plain();
        write_sorted_run(&env, dir, partition, seq, &mut pairs, &Counters::new())
    }

    #[test]
    fn spill_sorts_and_clears() {
        let dir = SpillDir::create(None, "spill unit ☃ test").unwrap();
        let mut b = ShuffleBucket::new();
        let mut pairs = vec![
            (Value::Int(3), Value::str("c")),
            (Value::Int(1), Value::str("a")),
            (Value::Int(3), Value::str("c2")),
            (Value::Int(2), Value::str("b")),
        ];
        b.absorb(&mut pairs, 40);
        assert_eq!(b.resident_bytes(), 40);
        let (taken, seq) = b.take_for_spill().unwrap();
        assert_eq!(seq, 0);
        assert_eq!(b.resident_bytes(), 0);
        let run = plain_run(dir.path(), 7, seq, taken).unwrap();
        assert_eq!(run.pairs, 4);
        assert!(run
            .path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with("run-00007-"));
        let back: Vec<(Value, Value)> = RunFileReader::open(&run.path)
            .unwrap()
            .map(|p| p.unwrap())
            .collect();
        // Sorted by key; emission order kept within the key-3 tie.
        assert_eq!(
            back,
            vec![
                (Value::Int(1), Value::str("a")),
                (Value::Int(2), Value::str("b")),
                (Value::Int(3), Value::str("c")),
                (Value::Int(3), Value::str("c2")),
            ]
        );
        b.record_run(run);
        assert_eq!(b.runs().len(), 1);
    }

    #[test]
    fn empty_take_is_none() {
        let mut b = ShuffleBucket::new();
        assert!(b.take_for_spill().is_none());
        assert!(b.runs().is_empty());
    }

    #[test]
    fn into_parts_orders_runs_by_seq() {
        let dir = SpillDir::create(None, "seq-order").unwrap();
        let mut b = ShuffleBucket::new();
        let mut seqs = Vec::new();
        for _ in 0..3 {
            b.absorb(&mut vec![(Value::Int(1), Value::Null)], 10);
            let (pairs, seq) = b.take_for_spill().unwrap();
            seqs.push((pairs, seq));
        }
        // Record out of order, as concurrent writers might.
        for (pairs, seq) in seqs.into_iter().rev() {
            b.record_run(plain_run(dir.path(), 0, seq, pairs).unwrap());
        }
        let (_, runs) = b.into_parts();
        let got: Vec<usize> = runs.iter().map(|r| r.seq).collect();
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn combining_spill_folds_duplicate_keys() {
        let dir = SpillDir::create(None, "combine-spill").unwrap();
        let counters = Counters::new();
        let env = ShuffleEnv {
            combine: CombineStrategy::new(Builtin::Sum.combiner()),
            ..ShuffleEnv::plain()
        };
        // Partials, as pass-through staging hands them over.
        let mut pairs = vec![
            (Value::Int(2), Value::Int(10)),
            (Value::Int(1), Value::Int(1)),
            (Value::Int(2), Value::Int(5)),
            (Value::Int(1), Value::Int(2)),
        ];
        let run = write_sorted_run(&env, dir.path(), 0, 0, &mut pairs, &counters).unwrap();
        assert_eq!(env.pool.outstanding(), 0, "scratch loan returned");
        assert_eq!(run.pairs, 2, "four pairs fold to one per key");
        let back: Vec<(Value, Value)> = RunFileReader::open(&run.path)
            .unwrap()
            .map(|p| p.unwrap())
            .collect();
        assert_eq!(
            back,
            vec![
                (Value::Int(1), Value::Int(3)),
                (Value::Int(2), Value::Int(15)),
            ]
        );
        let snap = counters.snapshot();
        assert_eq!((snap.combine_in, snap.combine_out), (4, 2));
        assert_eq!((snap.spill_count, snap.spilled_records), (1, 2));
    }

    #[test]
    fn attempt_dir_discards_uncommitted_runs_on_drop() {
        let job_dir = SpillDir::create(None, "attempt-scope").unwrap();
        let attempt = AttemptDir::create(job_dir.path(), "map", 3, 1).unwrap();
        let run = plain_run(attempt.path(), 0, 0, vec![(Value::Int(1), Value::Null)]).unwrap();
        assert!(run.path.exists());
        // Commit one file out, leave another behind.
        let committed = job_dir.path().join("run-00000-000000");
        std::fs::rename(&run.path, &committed).unwrap();
        let leftover = plain_run(attempt.path(), 1, 0, vec![(Value::Int(2), Value::Null)]).unwrap();
        let (attempt_path, leftover_path) = (attempt.path().to_path_buf(), leftover.path.clone());
        drop(attempt);
        assert!(!attempt_path.exists(), "attempt dir removed");
        assert!(!leftover_path.exists(), "uncommitted run discarded");
        assert!(committed.exists(), "committed run survives the guard");
    }

    #[test]
    fn alloc_seq_interleaves_with_spill_seqs() {
        let mut b = ShuffleBucket::new();
        assert_eq!(b.alloc_seq(), 0);
        b.absorb(&mut vec![(Value::Int(1), Value::Null)], 8);
        let (_, seq) = b.take_for_spill().unwrap();
        assert_eq!(seq, 1);
        assert_eq!(b.alloc_seq(), 2);
    }

    #[test]
    fn spill_dir_removed_on_drop() {
        let dir = SpillDir::create(None, "dropme").unwrap();
        let path = dir.path().to_path_buf();
        std::fs::write(path.join("run-x"), b"leftover").unwrap();
        drop(dir);
        assert!(!path.exists());
    }
}
