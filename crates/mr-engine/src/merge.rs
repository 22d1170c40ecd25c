//! Streaming k-way merge of sorted shuffle runs.
//!
//! The reduce side of the external shuffle: instead of materializing a
//! whole partition and sorting it, reduce merges the partition's
//! spilled runs (see [`crate::spill`]) with the still-resident tail,
//! one pair at a time, holding one head per run. Key ties break by run
//! index — runs are numbered in spill (= emission) order and the
//! resident tail is last — so the merged stream is exactly what a
//! stable in-memory sort of the whole partition would have produced,
//! and the grouping iterator downstream cannot tell the two paths
//! apart.
//!
//! Two interchangeable merge engines implement that contract:
//! [`LoserTree`] — a tournament tree doing exactly ⌈log₂ k⌉ comparisons
//! per pair, what the hot path uses — and the original binary-heap
//! merge, kept in this module's tests as the executable specification
//! the loser tree is property-tested against on random runs.

use std::cmp::Ordering;
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use mr_ir::value::Value;
use mr_storage::runfile::{RunFileReader, RunFileWriter};

use crate::counters::Counters;
use crate::error::{EngineError, Result};
use crate::spill::{ShuffleEnv, SpillRun};

/// The most runs one merge pass opens at once — Hadoop's
/// `io.sort.factor`. A tiny budget over a large input can spill
/// thousands of runs per partition; without this cap the final merge
/// would hold one open file (and `BufReader`) per run and exhaust the
/// process fd limit exactly in the large-data regime spilling exists
/// for.
pub const MERGE_FACTOR: usize = 64;

/// Compact `runs` (in spill order, updated in place) down to at most
/// [`MERGE_FACTOR`] by merging batches of consecutive runs into
/// intermediate runs under `dir`, deleting the sources. Batches are
/// consecutive and each result takes its batch's position, so the
/// `(key, run index)` tie-break — and therefore the final merged
/// stream — is identical to a flat merge of the original runs.
/// Rewritten bytes are charged to the `spill_bytes_raw` /
/// `spill_bytes_written` counters (they are real spill-disk traffic,
/// compressed through the env's codec like map-side spills);
/// `spill_count`/`spilled_records` stay map-side only. An active
/// combiner folds duplicate keys while rewriting, so compacted runs
/// shrink like spill-time runs do.
///
/// Compaction is **resumable**: on error, `runs` is left describing
/// exactly the still-valid run files — batches already merged plus the
/// untouched remainder (sources are deleted only after their batch
/// succeeds) — so a retried reduce attempt picks up where the failed
/// one stopped instead of re-reading deleted files. Intermediate file
/// names are process-unique, never reusing the name of a live run.
pub fn compact_runs(
    env: &ShuffleEnv,
    runs: &mut Vec<SpillRun>,
    dir: &Path,
    partition: usize,
    counters: &Counters,
) -> Result<()> {
    while runs.len() > MERGE_FACTOR {
        let source = std::mem::take(runs);
        let mut next: Vec<SpillRun> = Vec::with_capacity(source.len().div_ceil(MERGE_FACTOR));
        let mut idx = 0;
        while idx < source.len() {
            let end = (idx + MERGE_FACTOR).min(source.len());
            if end - idx == 1 {
                next.push(source[idx].clone());
                idx = end;
                continue;
            }
            let batch = &source[idx..end];
            match merge_batch(env, batch, dir, partition, counters) {
                Ok(run) => {
                    next.push(run);
                    idx = end;
                }
                Err(e) => {
                    next.extend(source[idx..].iter().cloned());
                    *runs = next;
                    return Err(e);
                }
            }
        }
        *runs = next;
    }
    Ok(())
}

/// Merge one batch of consecutive runs into a single intermediate run
/// and delete the sources (only after the merged run is durable — a
/// failed batch leaves its sources intact for the retry). The result
/// inherits the batch's first spill sequence so relative order among
/// surviving runs is preserved. With an active combiner the merged
/// stream is folded on the fly — one pair per key survives the
/// rewrite.
fn merge_batch(
    env: &ShuffleEnv,
    batch: &[SpillRun],
    dir: &Path,
    partition: usize,
    counters: &Counters,
) -> Result<SpillRun> {
    // Process-unique intermediate names: a retried compaction must
    // never truncate a merged run an earlier pass already produced.
    static NEXT_MERGE_FILE: AtomicU64 = AtomicU64::new(0);
    let unique = NEXT_MERGE_FILE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);

    let seq = batch[0].seq;
    let mut streams = Vec::with_capacity(batch.len());
    for r in batch {
        streams.push(RunStream::File(RunFileReader::open_with_faults(
            &r.path,
            env.io.clone(),
        )?));
    }
    let path = dir.join(format!("merge-{partition:05}-{unique:08}"));
    let (stats, (seen, kept)) = env.write_run(&path, |w| merge_into(w, streams, env))?;
    // Charge counters only after the batch is durable, so a failed
    // batch that is retried cannot double-count.
    if seen > 0 || kept > 0 {
        Counters::add(&counters.combine_in, seen);
        Counters::add(&counters.combine_out, kept);
    }
    Counters::add(&counters.spill_bytes_raw, stats.raw_bytes);
    Counters::add(&counters.spill_bytes_written, stats.file_bytes);
    for r in batch {
        let _ = std::fs::remove_file(&r.path);
    }
    Ok(SpillRun {
        seq,
        path,
        pairs: stats.pairs,
        raw_bytes: stats.raw_bytes,
        bytes: stats.file_bytes,
    })
}

/// The fallible core of [`merge_batch`]: merge `streams` through the
/// loser tree into `w`, folding on the fly with an active combiner.
/// Returns the `(combine_in, combine_out)` pair counts.
fn merge_into(
    w: &mut RunFileWriter,
    streams: Vec<RunStream>,
    env: &ShuffleEnv,
) -> Result<(u64, u64)> {
    let mut seen = 0u64;
    let mut kept = 0u64;
    match env.combine.active() {
        None => {
            for item in LoserTree::new(streams)? {
                let (k, v) = item?;
                w.append(&k, &v)?;
            }
        }
        Some(combiner) => {
            let mut cur: Option<(Value, Value)> = None;
            for item in LoserTree::new(streams)? {
                let (k, v) = item?;
                seen += 1;
                cur = Some(match cur {
                    Some((ck, acc)) if ck == k => (ck, combiner.merge(&k, acc, &v)?),
                    Some((ck, acc)) => {
                        w.append(&ck, &acc)?;
                        kept += 1;
                        (k, v)
                    }
                    None => (k, v),
                });
            }
            if let Some((ck, acc)) = cur {
                w.append(&ck, &acc)?;
                kept += 1;
            }
        }
    }
    Ok((seen, kept))
}

/// One sorted input to the merge.
pub enum RunStream {
    /// A spilled run streamed from disk.
    File(RunFileReader),
    /// The sorted resident tail, consumed by this merge.
    Memory(std::vec::IntoIter<(Value, Value)>),
    /// The sorted resident tail, shared: pairs are cloned out so the
    /// vector survives for another reduce attempt. Used only when task
    /// retries are possible — the final (or sole) attempt takes the
    /// move-semantics [`Memory`](RunStream::Memory) path.
    Shared {
        /// The shared tail.
        pairs: Arc<Vec<(Value, Value)>>,
        /// Next pair to yield.
        pos: usize,
    },
}

impl RunStream {
    /// A shared stream over `pairs`, starting at the beginning.
    pub fn shared(pairs: Arc<Vec<(Value, Value)>>) -> RunStream {
        RunStream::Shared { pairs, pos: 0 }
    }

    pub(crate) fn next_pair(&mut self) -> Option<Result<(Value, Value)>> {
        match self {
            RunStream::File(r) => r.next().map(|p| p.map_err(EngineError::from)),
            RunStream::Memory(it) => it.next().map(Ok),
            RunStream::Shared { pairs, pos } => {
                let pair = pairs.get(*pos)?.clone();
                *pos += 1;
                Some(Ok(pair))
            }
        }
    }
}

/// Sentinel for a tournament node not yet contested during the build.
const NO_LEAF: usize = usize::MAX;

/// Merges `k` sorted streams through a tournament (loser) tree.
///
/// The heap pays up to `2·log₂ k` comparisons per pair (sift-down
/// compares both children at every level); a loser tree replays only
/// the popped stream's path — each internal node on it holds the loser
/// of its subtree's last tournament, so one comparison per level,
/// `⌈log₂ k⌉` total, decides the next winner. Stream `j` is leaf
/// `k + j` in the implicit array; `tree[i]` (for `i ≥ 1`) is the leaf
/// index parked at internal node `i` and `tree[0]` the tournament
/// winner.
///
/// Ordering is *identical* to a binary-heap merge: `(key, stream index)`
/// ascending, an exhausted stream ranking above every live one — the
/// tie-break that makes external and in-memory shuffles byte-identical.
pub struct LoserTree {
    streams: Vec<RunStream>,
    heads: Vec<Option<(Value, Value)>>,
    /// `tree[0]`: winner leaf; `tree[1..k]`: parked losers.
    tree: Vec<usize>,
    pending_error: Option<EngineError>,
}

impl LoserTree {
    /// Prime every stream's head and play the initial tournament.
    pub fn new(streams: Vec<RunStream>) -> Result<LoserTree> {
        let k = streams.len();
        let mut merge = LoserTree {
            streams,
            heads: Vec::with_capacity(k),
            tree: vec![NO_LEAF; k.max(1)],
            pending_error: None,
        };
        for run in 0..k {
            let head = match merge.streams[run].next_pair() {
                Some(Ok(pair)) => Some(pair),
                Some(Err(e)) => return Err(e),
                None => None,
            };
            merge.heads.push(head);
        }
        for run in (0..k).rev() {
            merge.replay(run);
        }
        Ok(merge)
    }

    /// Number of input streams.
    pub fn width(&self) -> usize {
        self.streams.len()
    }

    /// Does leaf `a`'s head beat leaf `b`'s? Exhausted heads are
    /// +infinity; every tie breaks toward the lower stream index, which
    /// is exactly the `(key, run)` ordering of the heap merge.
    fn beats(&self, a: usize, b: usize) -> bool {
        match (&self.heads[a], &self.heads[b]) {
            (Some(x), Some(y)) => match x.0.cmp(&y.0) {
                Ordering::Less => true,
                Ordering::Greater => false,
                Ordering::Equal => a < b,
            },
            (Some(_), None) => true,
            (None, _) => false,
        }
    }

    /// Replay leaf `run`'s path to the root: at each node the winner
    /// advances and the loser stays parked. During the initial build a
    /// first-visited (empty) node parks the contender and stops — the
    /// rest of the path is contested by later replays.
    fn replay(&mut self, run: usize) {
        let k = self.streams.len();
        let mut winner = run;
        let mut node = (k + run) / 2;
        while node > 0 {
            match self.tree[node] {
                NO_LEAF => {
                    self.tree[node] = winner;
                    return;
                }
                parked if self.beats(parked, winner) => {
                    self.tree[node] = winner;
                    winner = parked;
                }
                _ => {}
            }
            node /= 2;
        }
        self.tree[0] = winner;
    }
}

impl Iterator for LoserTree {
    type Item = Result<(Value, Value)>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(e) = self.pending_error.take() {
            return Some(Err(e));
        }
        if self.streams.is_empty() {
            return None;
        }
        let winner = self.tree[0];
        // The winner is the minimum; it is exhausted only when every
        // stream is.
        let pair = self.heads[winner].take()?;
        match self.streams[winner].next_pair() {
            Some(Ok(next)) => self.heads[winner] = Some(next),
            Some(Err(e)) => self.pending_error = Some(e),
            None => {}
        }
        self.replay(winner);
        Some(Ok(pair))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use proptest::prelude::*;

    /// A heap entry: the next pair of run `run`.
    struct Head {
        key: Value,
        value: Value,
        run: usize,
    }

    impl PartialEq for Head {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }

    impl Eq for Head {}

    impl PartialOrd for Head {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Head {
        fn cmp(&self, other: &Self) -> Ordering {
            // Values never participate: within a run the file order is
            // already the emission order, and across runs the run index is
            // the stable-sort tiebreak.
            self.key.cmp(&other.key).then(self.run.cmp(&other.run))
        }
    }

    /// The binary-heap k-way merge the loser tree replaced, kept as the
    /// executable specification it is tested against.
    struct KWayMerge {
        streams: Vec<RunStream>,
        heap: BinaryHeap<Reverse<Head>>,
        pending_error: Option<EngineError>,
    }

    impl KWayMerge {
        /// Prime the heap with the first pair of every stream.
        fn new(streams: Vec<RunStream>) -> Result<KWayMerge> {
            let mut merge = KWayMerge {
                heap: BinaryHeap::with_capacity(streams.len()),
                streams,
                pending_error: None,
            };
            for run in 0..merge.streams.len() {
                merge.refill(run)?;
            }
            Ok(merge)
        }

        fn refill(&mut self, run: usize) -> Result<()> {
            match self.streams[run].next_pair() {
                Some(Ok((key, value))) => {
                    self.heap.push(Reverse(Head { key, value, run }));
                    Ok(())
                }
                Some(Err(e)) => Err(e),
                None => Ok(()),
            }
        }
    }

    impl Iterator for KWayMerge {
        type Item = Result<(Value, Value)>;

        fn next(&mut self) -> Option<Self::Item> {
            if let Some(e) = self.pending_error.take() {
                return Some(Err(e));
            }
            let Reverse(head) = self.heap.pop()?;
            // Refill before yielding; an error is held back one step so the
            // popped pair is not lost.
            if let Err(e) = self.refill(head.run) {
                self.pending_error = Some(e);
            }
            Some(Ok((head.key, head.value)))
        }
    }

    fn mem(pairs: Vec<(i64, &str)>) -> RunStream {
        RunStream::Memory(
            pairs
                .into_iter()
                .map(|(k, v)| (Value::Int(k), Value::str(v)))
                .collect::<Vec<_>>()
                .into_iter(),
        )
    }

    fn collect(m: KWayMerge) -> Vec<(i64, Value)> {
        m.map(|p| p.unwrap())
            .map(|(k, v)| (k.as_int().unwrap(), v))
            .collect()
    }

    fn write_run(dir: &std::path::Path, seq: usize, mut pairs: Vec<(Value, Value)>) -> SpillRun {
        let env = ShuffleEnv::plain();
        crate::spill::write_sorted_run(&env, dir, 0, seq, &mut pairs, &Counters::new()).unwrap()
    }

    /// Build `n` sorted runs with overlapping keys plus the flat-merge
    /// expectation (a stable sort of the concatenated runs).
    fn overlapping_runs(dir: &std::path::Path, n: usize) -> (Vec<SpillRun>, Vec<(Value, Value)>) {
        let mut runs = Vec::new();
        let mut concat: Vec<(Value, Value)> = Vec::new();
        for seq in 0..n {
            let mut pairs: Vec<(Value, Value)> = (0..3)
                .map(|j| {
                    (
                        Value::Int(((seq * 5 + j * 2) % 8) as i64),
                        Value::Int((seq * 10 + j) as i64),
                    )
                })
                .collect();
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            concat.extend(pairs.iter().cloned());
            runs.push(write_run(dir, seq, pairs));
        }
        concat.sort_by(|a, b| a.0.cmp(&b.0));
        (runs, concat)
    }

    fn merge_all(runs: &[SpillRun]) -> Vec<(Value, Value)> {
        let streams = runs
            .iter()
            .map(|r| RunStream::File(RunFileReader::open(&r.path).unwrap()))
            .collect();
        KWayMerge::new(streams)
            .unwrap()
            .map(|p| p.unwrap())
            .collect()
    }

    /// Exactly `MERGE_FACTOR` runs fit one merge pass: compaction must
    /// not rewrite anything.
    #[test]
    fn compaction_noop_at_exactly_merge_factor() {
        let dir = crate::spill::SpillDir::create(None, "factor-exact").unwrap();
        let (mut compacted, expect) = overlapping_runs(dir.path(), MERGE_FACTOR);
        let paths: Vec<_> = compacted.iter().map(|r| r.path.clone()).collect();
        let counters = Counters::new();
        compact_runs(
            &ShuffleEnv::plain(),
            &mut compacted,
            dir.path(),
            0,
            &counters,
        )
        .unwrap();
        assert_eq!(compacted.len(), MERGE_FACTOR, "no compaction round");
        let kept: Vec<_> = compacted.iter().map(|r| r.path.clone()).collect();
        assert_eq!(kept, paths, "original run files untouched");
        assert_eq!(
            counters.snapshot().spill_bytes_written,
            0,
            "nothing rewritten"
        );
        assert_eq!(merge_all(&compacted), expect);
    }

    /// One run past the boundary forces exactly one compaction round,
    /// the merged stream stays byte-identical, and the surviving fan-in
    /// is bounded by `MERGE_FACTOR` (the fd guarantee).
    #[test]
    fn compaction_one_round_at_merge_factor_plus_one() {
        let dir = crate::spill::SpillDir::create(None, "factor-plus1").unwrap();
        let (mut compacted, expect) = overlapping_runs(dir.path(), MERGE_FACTOR + 1);
        let counters = Counters::new();
        compact_runs(
            &ShuffleEnv::plain(),
            &mut compacted,
            dir.path(),
            0,
            &counters,
        )
        .unwrap();
        // 65 runs → one merged batch of 64 plus the leftover run.
        assert_eq!(compacted.len(), 2, "one merge batch + one leftover");
        assert!(compacted.len() <= MERGE_FACTOR, "fan-in bounded");
        assert!(
            counters.snapshot().spill_bytes_written > 0,
            "one round rewrote bytes"
        );
        // Exactly one batch merged: one intermediate file.
        let intermediates: Vec<String> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("merge-"))
            .collect();
        assert_eq!(intermediates.len(), 1);
        assert_eq!(merge_all(&compacted), expect);
    }

    /// An IO fault mid-compaction leaves `runs` describing exactly the
    /// files still on disk, and a retry completes with the same merged
    /// stream as a fault-free pass — the resumability the reduce
    /// attempt loop depends on.
    #[test]
    fn compaction_resumes_after_io_fault() {
        let dir = crate::spill::SpillDir::create(None, "factor-resume").unwrap();
        let (mut runs, expect) = overlapping_runs(dir.path(), MERGE_FACTOR + 2);
        let counters = Counters::new();
        // Fail the very first run-file read of the first batch.
        let io =
            mr_storage::fault::IoFaults::new().with_fault(mr_storage::fault::IoSite::RunRead, 0);
        let faulty = ShuffleEnv {
            io: Some(Arc::new(io)),
            ..ShuffleEnv::plain()
        };
        let err = compact_runs(&faulty, &mut runs, dir.path(), 0, &counters).unwrap_err();
        assert!(matches!(err, EngineError::Storage(_)), "{err}");
        assert_eq!(runs.len(), MERGE_FACTOR + 2, "nothing merged yet");
        for r in &runs {
            assert!(r.path.exists(), "sources intact after failed batch");
        }
        // Retry with the (now disarmed) injector: completes normally.
        compact_runs(&faulty, &mut runs, dir.path(), 0, &counters).unwrap();
        assert!(runs.len() <= MERGE_FACTOR);
        assert_eq!(merge_all(&runs), expect);
    }

    #[test]
    fn merges_three_streams_in_order() {
        let m = KWayMerge::new(vec![
            mem(vec![(1, "a"), (4, "d"), (7, "g")]),
            mem(vec![(2, "b"), (5, "e")]),
            mem(vec![(3, "c"), (6, "f"), (8, "h"), (9, "i")]),
        ])
        .unwrap();
        let out = collect(m);
        let keys: Vec<i64> = out.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (1..=9).collect::<Vec<_>>());
    }

    #[test]
    fn key_ties_break_by_run_index() {
        let m = KWayMerge::new(vec![
            mem(vec![(1, "run0-a"), (1, "run0-b")]),
            mem(vec![(1, "run1-a")]),
            mem(vec![(0, "run2"), (1, "run2-a")]),
        ])
        .unwrap();
        let out = collect(m);
        assert_eq!(
            out,
            vec![
                (0, Value::str("run2")),
                (1, Value::str("run0-a")),
                (1, Value::str("run0-b")),
                (1, Value::str("run1-a")),
                (1, Value::str("run2-a")),
            ]
        );
    }

    #[test]
    fn empty_and_exhausted_streams_ok() {
        let m = KWayMerge::new(vec![mem(vec![]), mem(vec![(1, "x")]), mem(vec![])]).unwrap();
        assert_eq!(collect(m), vec![(1, Value::str("x"))]);
        let m = KWayMerge::new(vec![]).unwrap();
        assert_eq!(collect(m), vec![]);
    }

    /// A shared tail yields the same stream as a consuming one — and
    /// can be merged again from the same vector.
    #[test]
    fn shared_stream_is_replayable() {
        let tail: Arc<Vec<(Value, Value)>> = Arc::new(
            vec![(1i64, "a"), (3, "c")]
                .into_iter()
                .map(|(k, v)| (Value::Int(k), Value::str(v)))
                .collect(),
        );
        for _ in 0..2 {
            let m = KWayMerge::new(vec![
                RunStream::shared(Arc::clone(&tail)),
                mem(vec![(2, "b")]),
            ])
            .unwrap();
            let keys: Vec<i64> = m.map(|p| p.unwrap().0.as_int().unwrap()).collect();
            assert_eq!(keys, vec![1, 2, 3]);
        }
    }

    #[test]
    fn compact_runs_equals_flat_merge() {
        let dir = crate::spill::SpillDir::create(None, "compact").unwrap();
        // 150 runs of 4 pairs with heavily overlapping keys — enough to
        // force two merge generations (150 → 3 → done).
        let mut runs = Vec::new();
        let mut concat: Vec<(Value, Value)> = Vec::new();
        for seq in 0..150usize {
            let mut pairs: Vec<(Value, Value)> = (0..4)
                .map(|j| {
                    (
                        Value::Int(((seq * 7 + j * 3) % 10) as i64),
                        Value::Int((seq * 10 + j) as i64),
                    )
                })
                .collect();
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            concat.extend(pairs.iter().cloned());
            runs.push(write_run(dir.path(), seq, pairs));
        }
        // A flat merge with run-index tie-break is exactly a stable sort
        // of the concatenated sorted runs.
        concat.sort_by(|a, b| a.0.cmp(&b.0));

        let counters = Counters::new();
        let mut compacted = runs;
        compact_runs(
            &ShuffleEnv::plain(),
            &mut compacted,
            dir.path(),
            0,
            &counters,
        )
        .unwrap();
        assert!(
            counters.snapshot().spill_bytes_written > 0,
            "compaction rewrites are charged to spill_bytes_written"
        );
        assert!(compacted.len() <= MERGE_FACTOR);
        assert!(compacted.len() >= 2, "150 runs batch into several");
        let mut streams = Vec::new();
        for r in &compacted {
            streams.push(RunStream::File(RunFileReader::open(&r.path).unwrap()));
        }
        let merged: Vec<(Value, Value)> = KWayMerge::new(streams)
            .unwrap()
            .map(|p| p.unwrap())
            .collect();
        assert_eq!(merged, concat);
        // Sources were deleted; only the intermediate runs remain.
        let files = std::fs::read_dir(dir.path()).unwrap().count();
        assert_eq!(files, compacted.len());
    }

    fn collect_lt(m: LoserTree) -> Vec<(i64, Value)> {
        m.map(|p| p.unwrap())
            .map(|(k, v)| (k.as_int().unwrap(), v))
            .collect()
    }

    // The loser-tree suite mirrors the heap tests above: same inputs,
    // same expectations — the two merge engines are interchangeable.

    #[test]
    fn loser_tree_merges_three_streams_in_order() {
        let m = LoserTree::new(vec![
            mem(vec![(1, "a"), (4, "d"), (7, "g")]),
            mem(vec![(2, "b"), (5, "e")]),
            mem(vec![(3, "c"), (6, "f"), (8, "h"), (9, "i")]),
        ])
        .unwrap();
        assert_eq!(m.width(), 3);
        let out = collect_lt(m);
        let keys: Vec<i64> = out.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, (1..=9).collect::<Vec<_>>());
    }

    #[test]
    fn loser_tree_key_ties_break_by_run_index() {
        let m = LoserTree::new(vec![
            mem(vec![(1, "run0-a"), (1, "run0-b")]),
            mem(vec![(1, "run1-a")]),
            mem(vec![(0, "run2"), (1, "run2-a")]),
        ])
        .unwrap();
        let out = collect_lt(m);
        assert_eq!(
            out,
            vec![
                (0, Value::str("run2")),
                (1, Value::str("run0-a")),
                (1, Value::str("run0-b")),
                (1, Value::str("run1-a")),
                (1, Value::str("run2-a")),
            ]
        );
    }

    #[test]
    fn loser_tree_empty_and_exhausted_streams_ok() {
        let m = LoserTree::new(vec![mem(vec![]), mem(vec![(1, "x")]), mem(vec![])]).unwrap();
        assert_eq!(collect_lt(m), vec![(1, Value::str("x"))]);
        let m = LoserTree::new(vec![]).unwrap();
        assert_eq!(collect_lt(m), vec![]);
        let m = LoserTree::new(vec![mem(vec![(2, "only")])]).unwrap();
        assert_eq!(collect_lt(m), vec![(2, Value::str("only"))]);
    }

    #[test]
    fn loser_tree_shared_stream_is_replayable() {
        let tail: Arc<Vec<(Value, Value)>> = Arc::new(
            vec![(1i64, "a"), (3, "c")]
                .into_iter()
                .map(|(k, v)| (Value::Int(k), Value::str(v)))
                .collect(),
        );
        for _ in 0..2 {
            let m = LoserTree::new(vec![
                RunStream::shared(Arc::clone(&tail)),
                mem(vec![(2, "b")]),
            ])
            .unwrap();
            let keys: Vec<i64> = m.map(|p| p.unwrap().0.as_int().unwrap()).collect();
            assert_eq!(keys, vec![1, 2, 3]);
        }
    }

    /// The executable-spec check at every width that exercises a
    /// distinct tree shape near powers of two: loser tree ≡ heap on
    /// file-backed runs with heavy key overlap.
    #[test]
    fn loser_tree_matches_heap_at_every_width() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 17] {
            let dir = crate::spill::SpillDir::create(None, &format!("lt-width-{n}")).unwrap();
            let (runs, expect) = overlapping_runs(dir.path(), n);
            let open = |runs: &[SpillRun]| -> Vec<RunStream> {
                runs.iter()
                    .map(|r| RunStream::File(RunFileReader::open(&r.path).unwrap()))
                    .collect()
            };
            let tree: Vec<(Value, Value)> = LoserTree::new(open(&runs))
                .unwrap()
                .map(|p| p.unwrap())
                .collect();
            let heap: Vec<(Value, Value)> = KWayMerge::new(open(&runs))
                .unwrap()
                .map(|p| p.unwrap())
                .collect();
            assert_eq!(tree, heap, "width {n}");
            assert_eq!(tree, expect, "width {n} vs stable sort");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Loser tree ≡ heap on random runs, for every width the
        /// generator produces (including 0, 1, and non-power-of-two
        /// widths) and for key distributions heavy with cross-run ties.
        /// The value encodes (run, position), so any tie-break deviation
        /// changes the merged sequence.
        #[test]
        fn loser_tree_matches_heap_on_random_runs(
            raw in proptest::collection::vec(
                proptest::collection::vec(-8i64..8, 0..40),
                0..12,
            ),
        ) {
            let runs: Vec<Arc<Vec<(Value, Value)>>> = raw
                .iter()
                .enumerate()
                .map(|(run, keys)| {
                    let mut pairs: Vec<(Value, Value)> = keys
                        .iter()
                        .enumerate()
                        .map(|(i, k)| (Value::Int(*k), Value::str(format!("r{run}p{i}"))))
                        .collect();
                    pairs.sort_by(|a, b| a.0.cmp(&b.0));
                    Arc::new(pairs)
                })
                .collect();
            let streams = || runs.iter().map(|r| RunStream::shared(Arc::clone(r))).collect();
            let tree: Vec<(Value, Value)> =
                LoserTree::new(streams()).unwrap().map(|p| p.unwrap()).collect();
            let heap: Vec<(Value, Value)> =
                KWayMerge::new(streams()).unwrap().map(|p| p.unwrap()).collect();
            prop_assert_eq!(tree, heap);
        }
    }

    #[test]
    fn file_stream_roundtrip() {
        let dir = std::env::temp_dir().join("mr-merge-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("run-{}", std::process::id()));
        let mut w = mr_storage::runfile::RunFileWriter::create(&path).unwrap();
        for i in [0i64, 2, 4] {
            w.append(&Value::Int(i), &Value::Null).unwrap();
        }
        w.finish().unwrap();
        let m = KWayMerge::new(vec![
            RunStream::File(RunFileReader::open(&path).unwrap()),
            mem(vec![(1, "x"), (3, "y")]),
        ])
        .unwrap();
        let keys: Vec<i64> = m.map(|p| p.unwrap().0.as_int().unwrap()).collect();
        assert_eq!(keys, vec![0, 1, 2, 3, 4]);
    }
}
