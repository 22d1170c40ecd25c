//! Background spill writing for map attempts.
//!
//! Before this module, a map worker that filled its staging budget
//! stopped mapping until the spill was sorted, combined, compressed and
//! flushed to disk. A [`SpillWriter`] decouples the two: the mapper
//! detaches the full buffer, [`submit`](SpillWriter::submit)s it, and
//! keeps mapping into a recycled buffer from the
//! [`BufferPool`](crate::pool::BufferPool) while writer threads drain
//! the queue through [`crate::spill::write_sorted_run`]. The channel is
//! bounded at the thread count, so with the default single thread the
//! pipeline is exactly double-buffered: one buffer filling, one
//! flushing, never unbounded memory.
//!
//! The writer is **attempt-scoped** and must be joined
//! ([`finish`](SpillWriter::finish)) before the attempt's
//! [`AttemptDir`](crate::spill::AttemptDir) can drop — otherwise a
//! failing attempt would delete the directory under an in-flight write.
//! Every submitted buffer is returned to the pool by the writer thread,
//! written or not, so pool accounting stays exact on fault paths; run
//! sequence numbers are assigned at submit time and results are sorted
//! by them, so the committed run order — and therefore the merge
//! tie-break — is independent of write completion order and thread
//! count.
//!
//! `spill_writer_threads = 0` degrades to fully synchronous writes in
//! [`submit`](SpillWriter::submit) (the pre-pipeline behaviour), which
//! the differential tests use as the byte-identity reference and
//! process-backend workers always use.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use mr_ir::value::Value;
use parking_lot::Mutex as PlMutex;

use crate::counters::Counters;
use crate::error::{EngineError, Result};
use crate::spill::{write_sorted_run, ShuffleEnv, SpillRun};

struct SpillJob {
    partition: usize,
    seq: usize,
    pairs: Vec<(Value, Value)>,
}

#[derive(Default)]
struct WriterShared {
    runs: PlMutex<Vec<(usize, SpillRun)>>,
    error: PlMutex<Option<EngineError>>,
    failed: AtomicBool,
}

/// Sort, combine and write one submitted buffer into `dir`, charging
/// `counters`, and return the buffer to the pool whatever happens.
/// Shared by the inline path and the writer threads.
fn write_one(
    env: &ShuffleEnv,
    dir: &Path,
    counters: &Counters,
    job: SpillJob,
    shared: &WriterShared,
) {
    let SpillJob {
        partition,
        seq,
        mut pairs,
    } = job;
    if !shared.failed.load(Ordering::Relaxed) {
        match write_sorted_run(env, dir, partition, seq, &mut pairs, counters) {
            Ok(run) => shared.runs.lock().push((partition, run)),
            Err(e) => {
                *shared.error.lock() = Some(e);
                shared.failed.store(true, Ordering::Relaxed);
            }
        }
    }
    env.pool.put_pairs(pairs);
}

/// A per-attempt spill pipeline: buffers go in, sorted runs come out.
pub struct SpillWriter {
    env: ShuffleEnv,
    dir: PathBuf,
    counters: Arc<Counters>,
    tx: Option<SyncSender<SpillJob>>,
    handles: Vec<JoinHandle<()>>,
    shared: Arc<WriterShared>,
    next_seq: usize,
}

impl SpillWriter {
    /// Start a writer over `threads` background threads writing runs
    /// into `dir` and charging spill traffic to `counters` (the
    /// attempt's own, published only if the attempt commits).
    /// `threads == 0` keeps every write synchronous inside
    /// [`submit`](Self::submit).
    pub fn new(
        env: &ShuffleEnv,
        dir: &Path,
        counters: Arc<Counters>,
        threads: usize,
    ) -> SpillWriter {
        let mut writer = SpillWriter {
            env: env.clone(),
            dir: dir.to_path_buf(),
            counters,
            tx: None,
            handles: Vec::new(),
            shared: Arc::new(WriterShared::default()),
            next_seq: 0,
        };
        if threads > 0 {
            // Capacity = thread count: one buffer queued per writer on
            // top of the one each is flushing. submit() blocking on a
            // full channel is the backpressure that bounds attempt
            // memory at (threads × 2 + 1) buffers.
            let (tx, rx) = std::sync::mpsc::sync_channel::<SpillJob>(threads);
            let rx = Arc::new(Mutex::new(rx));
            for _ in 0..threads {
                let env = writer.env.clone();
                let dir = writer.dir.clone();
                let counters = Arc::clone(&writer.counters);
                let shared = Arc::clone(&writer.shared);
                let rx: Arc<Mutex<Receiver<SpillJob>>> = Arc::clone(&rx);
                writer.handles.push(std::thread::spawn(move || loop {
                    let job = match rx.lock() {
                        Ok(rx) => rx.recv(),
                        Err(_) => return,
                    };
                    match job {
                        Ok(job) => write_one(&env, &dir, &counters, job, &shared),
                        Err(_) => return, // channel closed: attempt over
                    }
                }));
            }
            writer.tx = Some(tx);
        }
        writer
    }

    /// Queue one detached staging buffer for partition `p`. Blocks only
    /// when every writer thread is busy *and* the queue is full — the
    /// double-buffer handoff. The buffer's run sequence is claimed
    /// here, so submission order decides merge order no matter when the
    /// write lands.
    ///
    /// After a write error the pipeline goes inert: buffers are
    /// recycled unwritten and an error comes back immediately; the root
    /// cause is what [`finish`](Self::finish) returns.
    pub fn submit(&mut self, partition: usize, pairs: Vec<(Value, Value)>) -> Result<()> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let job = SpillJob {
            partition,
            seq,
            pairs,
        };
        if self.shared.failed.load(Ordering::Relaxed) {
            self.env.pool.put_pairs(job.pairs);
            return Err(spill_failed());
        }
        match &self.tx {
            None => {
                write_one(&self.env, &self.dir, &self.counters, job, &self.shared);
                match self.shared.failed.load(Ordering::Relaxed) {
                    true => Err(spill_failed()),
                    false => Ok(()),
                }
            }
            Some(tx) => match tx.send(job) {
                Ok(()) => Ok(()),
                Err(std::sync::mpsc::SendError(job)) => {
                    // Writers only exit early if one panicked.
                    self.env.pool.put_pairs(job.pairs);
                    Err(spill_failed())
                }
            },
        }
    }

    /// Close the queue and join the writer threads.
    fn shutdown(&mut self) {
        self.tx.take(); // disconnects: writers drain the queue and exit
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }

    /// Drain the pipeline and collect `(partition, run)` in submission
    /// order, or the first write error. Must be called (and is, on
    /// every attempt path) before the attempt directory drops.
    pub fn finish(mut self) -> Result<Vec<(usize, SpillRun)>> {
        self.shutdown();
        if let Some(e) = self.shared.error.lock().take() {
            return Err(e);
        }
        let mut runs = std::mem::take(&mut *self.shared.runs.lock());
        runs.sort_by_key(|(_, r)| r.seq);
        Ok(runs)
    }
}

impl Drop for SpillWriter {
    /// Dropping without [`finish`](Self::finish) still drains the
    /// queue — every in-flight buffer reaches the pool and no thread
    /// outlives the attempt.
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn spill_failed() -> EngineError {
    EngineError::Config("background spill writer failed; see attempt error".into())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::BufferPool;
    use crate::spill::SpillDir;
    use mr_storage::fault::{IoFaults, IoSite};
    use mr_storage::runfile::RunFileReader;

    fn buf(pool: &BufferPool, pairs: &[(i64, i64)]) -> Vec<(Value, Value)> {
        let mut b = pool.get_pairs();
        b.extend(pairs.iter().map(|&(k, v)| (Value::Int(k), Value::Int(v))));
        b
    }

    fn run_pipeline(threads: usize) -> Vec<Vec<(Value, Value)>> {
        let dir = SpillDir::create(None, &format!("writer-{threads}")).unwrap();
        let env = ShuffleEnv::plain();
        let pool = &env.pool;
        let counters = Counters::new();
        let mut w = SpillWriter::new(&env, dir.path(), Arc::clone(&counters), threads);
        w.submit(0, buf(pool, &[(3, 30), (1, 10)])).unwrap();
        w.submit(1, buf(pool, &[(2, 20)])).unwrap();
        w.submit(0, buf(pool, &[(1, 11)])).unwrap();
        let runs = w.finish().unwrap();
        assert_eq!(pool.outstanding(), 0, "all buffers recycled");
        assert_eq!(counters.snapshot().spill_count, 3);
        let seqs: Vec<usize> = runs.iter().map(|(_, r)| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2], "submission order survives");
        assert_eq!(
            runs.iter().map(|(p, _)| *p).collect::<Vec<_>>(),
            vec![0, 1, 0]
        );
        runs.iter()
            .map(|(_, r)| {
                RunFileReader::open(&r.path)
                    .unwrap()
                    .map(|x| x.unwrap())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn inline_and_background_write_identical_runs() {
        let inline = run_pipeline(0);
        for threads in [1, 2, 4] {
            assert_eq!(run_pipeline(threads), inline, "threads={threads}");
        }
    }

    #[test]
    fn write_error_surfaces_and_recycles_buffers() {
        let dir = SpillDir::create(None, "writer-fault").unwrap();
        // Fail the very first pair append in the background.
        let env = ShuffleEnv {
            io: Some(Arc::new(IoFaults::new().with_fault(IoSite::RunWrite, 0))),
            ..ShuffleEnv::plain()
        };
        let mut w = SpillWriter::new(&env, dir.path(), Counters::new(), 1);
        w.submit(0, buf(&env.pool, &[(1, 1)])).unwrap();
        // Later submissions either race in before the failure is seen
        // (recycled unwritten) or fail fast here; both keep accounting.
        let _ = w.submit(0, buf(&env.pool, &[(2, 2)]));
        let err = w.finish().unwrap_err();
        assert!(matches!(err, EngineError::Storage(_)), "{err}");
        assert_eq!(env.pool.outstanding(), 0, "fault path leaks nothing");
    }

    #[test]
    fn drop_without_finish_recycles_everything() {
        let dir = SpillDir::create(None, "writer-drop").unwrap();
        let env = ShuffleEnv::plain();
        let mut w = SpillWriter::new(&env, dir.path(), Counters::new(), 2);
        for i in 0..6 {
            w.submit(0, buf(&env.pool, &[(i, i)])).unwrap();
        }
        drop(w);
        assert_eq!(env.pool.outstanding(), 0);
    }
}
