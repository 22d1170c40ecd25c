//! A map attempt's task-local staging — and combine site 1.
//!
//! Every emitted pair lands here, partitioned by reducer, until the
//! attempt drains it (a spill under a shuffle budget, the commit
//! otherwise). Without a combiner a partition is a plain `Vec` push.
//! With one, each partition is a small hash-aggregation table: an
//! insertion-ordered `Vec<(key, partial)>` plus an open-addressing
//! index of `u32` slots pointing into it. An emit is hashed once
//! ([`key_hash`]): `h % n` picks the partition and a multiply-shift
//! remix of the same `h` picks the slot (the partition choice pins
//! `h`'s residue, so the raw low bits would cluster). A hit injects the
//! value and merges it into the stored partial in place; a miss appends
//! an entry. A drain hands the entries `Vec` to the spill write as it
//! is — no sort here, the spill write and the reduce both sort anyway,
//! and keys are unique within a drained table so their stable sort is
//! deterministic.
//!
//! # The bail-out
//!
//! Hash aggregation only pays when keys repeat. At every drain, and
//! every [`CHECK_EMITS`] emits when no staging cap forces one, the
//! attempt compares the entries the table created with the emits it
//! took since the previous check; when `entries / emits` is above
//! [`BAILOUT_RATIO`] the attempt switches to *pass-through* for the
//! rest of its split: emits are still injected (everything downstream
//! is uniformly in the partial domain) but appended without being
//! indexed, and sites 2 and 3 fold whatever repeats arrive later. The
//! decision is a pure function of the split's contents and the job's
//! budget, so retries, speculative attempts and both backends take it
//! at the same pair.
//!
//! Per-key emission order survives all of this: a key's emits merge
//! into its one entry in order, entries keep insertion order, and
//! pass-through pairs are appended behind them — which is what keeps
//! `Max`/`Min` byte-identical when equal values differ in
//! representation.

use mr_ir::value::Value;

use crate::combine::{pair_bytes, CombineStrategy};
use crate::counters::Counters;
use crate::error::Result;
use crate::partition::key_hash;
use crate::pool::BufferPool;

/// Emits between reduction checks when no staging cap forces a drain.
const CHECK_EMITS: u64 = 65_536;
/// Bail out when more than this share of the emits since the last
/// check created a new entry (the table removed under 10 % of them).
const BAILOUT_RATIO: f64 = 0.9;

const EMPTY: u32 = u32::MAX;
const MIN_SLOTS: usize = 64;

/// One reduce partition's staged pairs. `hashes` and `slots` are only
/// populated while the attempt is hash-aggregating.
struct Partition {
    /// Staged pairs in insertion order (a pooled loan).
    entries: Vec<(Value, Value)>,
    /// `hashes[i]` is the key hash of `entries[i]`: rejects a probe
    /// without touching the key and regrows the index without rehashing.
    hashes: Vec<u64>,
    /// Open-addressing index: an entry position or [`EMPTY`]. A power of
    /// two at least twice `hashes.len()`.
    slots: Vec<u32>,
    /// Byte accounting for `entries`.
    bytes: usize,
}

/// Where `hash` starts probing in a table of `slots` (a power of two)
/// slots: Fibonacci multiply-shift, which draws on every bit of `hash`.
fn slot_of(hash: u64, slots: usize) -> usize {
    (hash.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - slots.trailing_zeros())) as usize
}

impl Partition {
    /// The entry holding `key`, if the table has one.
    fn find(&self, hash: u64, key: &Value) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut s = slot_of(hash, self.slots.len());
        loop {
            match self.slots[s] {
                EMPTY => return None,
                i => {
                    let i = i as usize;
                    if self.hashes[i] == hash && self.entries[i].0 == *key {
                        return Some(i);
                    }
                }
            }
            s = (s + 1) & mask;
        }
    }

    /// Append a pair without indexing it.
    fn push(&mut self, pair: (Value, Value), bytes: usize) {
        self.entries.push(pair);
        self.bytes += bytes;
    }

    /// Append a new entry and index it (the caller saw `find` miss).
    fn insert(&mut self, hash: u64, pair: (Value, Value), bytes: usize) {
        if (self.hashes.len() + 1) * 2 > self.slots.len() {
            let grown = (self.slots.len() * 2).max(MIN_SLOTS);
            self.slots.clear();
            self.slots.resize(grown, EMPTY);
            for i in 0..self.hashes.len() {
                self.index(self.hashes[i], i);
            }
        }
        self.index(hash, self.entries.len());
        self.hashes.push(hash);
        self.push(pair, bytes);
    }

    fn index(&mut self, hash: u64, entry: usize) {
        let mask = self.slots.len() - 1;
        let mut s = slot_of(hash, self.slots.len());
        while self.slots[s] != EMPTY {
            s = (s + 1) & mask;
        }
        assert!(
            entry < EMPTY as usize,
            "staging table outgrew its u32 index"
        );
        self.slots[s] = entry as u32;
    }

    /// Forget the index; `entries` has just been drained.
    fn reset_index(&mut self) {
        self.hashes.clear();
        self.slots.fill(EMPTY);
    }
}

/// A map attempt's staged output, partitioned by reducer.
pub(crate) struct Staging {
    parts: Vec<Partition>,
    /// Total staged bytes across all partitions — with a combiner, the
    /// table-resident partials, so a low-cardinality attempt never
    /// reaches its staging cap.
    pub(crate) total_bytes: usize,
    combine: CombineStrategy,
    /// Set by the bail-out: append without indexing from here on.
    bypass: bool,
    /// Site-1 counters, published by [`finish`](Staging::finish): emits
    /// the tables took, entries they created, emits passed through.
    combine_in: u64,
    combine_out: u64,
    bypassed: u64,
    /// `(combine_in, combine_out)` at the last reduction check.
    checked: (u64, u64),
}

impl Staging {
    /// Every partition's pair buffer is a pooled loan, held across
    /// drains: each goes back via [`into_parts`](Staging::into_parts)
    /// (the commit puts it after absorbing) or
    /// [`recycle`](Staging::recycle).
    pub(crate) fn new(
        num_reducers: usize,
        combine: &CombineStrategy,
        pool: &BufferPool,
    ) -> Staging {
        Staging {
            parts: (0..num_reducers)
                .map(|_| Partition {
                    entries: pool.get_pairs(),
                    hashes: Vec::new(),
                    slots: Vec::new(),
                    bytes: 0,
                })
                .collect(),
            total_bytes: 0,
            combine: combine.clone(),
            bypass: false,
            combine_in: 0,
            combine_out: 0,
            bypassed: 0,
            checked: (0, 0),
        }
    }

    /// Stage one emitted pair. Returns its raw (pre-combine) size, the
    /// figure the `shuffle_bytes` counter reports.
    pub(crate) fn emit(&mut self, key: Value, value: Value) -> Result<usize> {
        let raw = pair_bytes(&key, &value);
        let hash = key_hash(&key);
        let p = (hash % self.parts.len() as u64) as usize;
        let part = &mut self.parts[p];
        let Some(combiner) = self.combine.active() else {
            part.push((key, value), raw);
            self.total_bytes += raw;
            return Ok(raw);
        };
        let partial = combiner.inject(&key, &value)?;
        if self.bypass {
            let bytes = pair_bytes(&key, &partial);
            part.push((key, partial), bytes);
            self.total_bytes += bytes;
            self.bypassed += 1;
            return Ok(raw);
        }
        self.combine_in += 1;
        match part.find(hash, &key) {
            Some(i) => {
                let acc = &mut part.entries[i].1;
                let before = acc.payload_size();
                *acc = combiner.merge(&key, std::mem::take(acc), &partial)?;
                let after = acc.payload_size();
                part.bytes = part.bytes - before + after;
                self.total_bytes = self.total_bytes - before + after;
            }
            None => {
                let bytes = pair_bytes(&key, &partial);
                part.insert(hash, (key, partial), bytes);
                self.total_bytes += bytes;
                self.combine_out += 1;
            }
        }
        if self.combine_in - self.checked.0 >= CHECK_EMITS {
            self.check_reduction();
        }
        Ok(raw)
    }

    /// The bail-out rule (see the module header). Called at every drain
    /// and every [`CHECK_EMITS`] table emits.
    pub(crate) fn check_reduction(&mut self) {
        let emits = self.combine_in - self.checked.0;
        let entries = self.combine_out - self.checked.1;
        if entries as f64 > BAILOUT_RATIO * emits as f64 {
            self.bypass = true;
            for part in &mut self.parts {
                part.hashes = Vec::new();
                part.slots = Vec::new();
            }
        }
        self.checked = (self.combine_in, self.combine_out);
    }

    /// Hand partition `p`'s staged pairs to `write` — a spill sorts,
    /// combines and writes them in place — then empty the partition.
    /// The buffer is cleared, not replaced, so it keeps its capacity
    /// for the pairs staged next.
    pub(crate) fn drain<T>(
        &mut self,
        p: usize,
        write: impl FnOnce(&mut Vec<(Value, Value)>) -> T,
    ) -> T {
        let part = &mut self.parts[p];
        let out = write(&mut part.entries);
        part.entries.clear();
        self.total_bytes -= part.bytes;
        part.bytes = 0;
        part.reset_index();
        out
    }

    pub(crate) fn is_empty(&self, p: usize) -> bool {
        self.parts[p].entries.is_empty()
    }

    /// Publish the attempt's site-1 counters: every emit is in exactly
    /// one of `combine_in` (it entered the table) or `combine_bypassed`
    /// (it passed through after the bail-out), and `combine_out` is the
    /// entries the table handed downstream.
    pub(crate) fn finish(&self, acc: &Counters) {
        Counters::add(&acc.combine_in, self.combine_in);
        Counters::add(&acc.combine_out, self.combine_out);
        Counters::add(&acc.combine_bypassed, self.bypassed);
    }

    /// Tear down into `(pairs, bytes)` per partition for the commit,
    /// which recycles each buffer after absorbing it.
    pub(crate) fn into_parts(self) -> (Vec<Vec<(Value, Value)>>, Vec<usize>) {
        self.parts.into_iter().map(|p| (p.entries, p.bytes)).unzip()
    }

    /// Return every loaned buffer to the pool — the failed-attempt
    /// teardown.
    pub(crate) fn recycle(self, pool: &BufferPool) {
        for part in self.parts {
            pool.put_pairs(part.entries);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::partition;
    use crate::reducer::Builtin;

    fn staging(reducer: Option<Builtin>, n: usize, pool: &BufferPool) -> Staging {
        let combine = CombineStrategy::new(reducer.and_then(|b| b.combiner()));
        Staging::new(n, &combine, pool)
    }

    fn counters(s: &Staging) -> (u64, u64, u64) {
        let acc = Counters::new();
        s.finish(&acc);
        let snap = acc.snapshot();
        (snap.combine_in, snap.combine_out, snap.combine_bypassed)
    }

    #[test]
    fn without_a_combiner_staging_is_a_partitioned_push() {
        let pool = BufferPool::new();
        let mut s = staging(None, 3, &pool);
        let mut expect = vec![Vec::new(); 3];
        let mut total = 0;
        for i in 0..50i64 {
            let (k, v) = (Value::Int(i % 7), Value::Int(i));
            expect[partition(&k, 3)].push((k.clone(), v.clone()));
            total += s.emit(k, v).unwrap();
        }
        assert_eq!(s.total_bytes, total);
        assert_eq!(counters(&s), (0, 0, 0));
        let (parts, bytes) = s.into_parts();
        assert_eq!(parts, expect);
        assert_eq!(bytes.iter().sum::<usize>(), total);
        parts.into_iter().for_each(|p| pool.put_pairs(p));
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn table_folds_in_place_and_keeps_insertion_order() {
        let pool = BufferPool::new();
        let mut s = staging(Some(Builtin::Sum), 1, &pool);
        for (k, v) in [("b", 1), ("a", 2), ("b", 3), ("a", 4), ("a", 6)] {
            s.emit(Value::str(k), Value::Int(v)).unwrap();
        }
        assert_eq!(counters(&s), (5, 2, 0));
        let expect = vec![
            (Value::str("b"), Value::Int(4)),
            (Value::str("a"), Value::Int(12)),
        ];
        let bytes: usize = expect.iter().map(|(k, v)| pair_bytes(k, v)).sum();
        assert_eq!(s.total_bytes, bytes, "the cap sees resident partials only");
        assert_eq!(s.drain(0, |e| e.clone()), expect);
        assert_eq!(s.total_bytes, 0);
        assert!(s.is_empty(0));
        // The table starts over after a drain: a seen key is a new entry.
        s.emit(Value::str("a"), Value::Int(1)).unwrap();
        assert_eq!(
            s.drain(0, |e| e.clone()),
            vec![(Value::str("a"), Value::Int(1))]
        );
        assert_eq!(counters(&s), (6, 3, 0));
        s.recycle(&pool);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn count_injects_even_a_lone_pair() {
        let pool = BufferPool::new();
        let mut s = staging(Some(Builtin::Count), 1, &pool);
        s.emit(Value::str("k"), Value::str("anything")).unwrap();
        assert_eq!(counters(&s), (1, 1, 0));
        assert_eq!(
            s.drain(0, |e| e.clone()),
            vec![(Value::str("k"), Value::Int(1))]
        );
        s.recycle(&pool);
    }

    #[test]
    fn table_grows_past_its_first_index() {
        let pool = BufferPool::new();
        let mut s = staging(Some(Builtin::Sum), 2, &pool);
        let keys = 10 * MIN_SLOTS as i64;
        for round in 0..3 {
            for i in 0..keys {
                s.emit(Value::Int(i), Value::Int(round)).unwrap();
            }
        }
        assert_eq!(counters(&s), (3 * keys as u64, keys as u64, 0));
        let (parts, _) = s.into_parts();
        let mut all: Vec<_> = parts.into_iter().flatten().collect();
        all.sort();
        let expect: Vec<_> = (0..keys).map(|i| (Value::Int(i), Value::Int(3))).collect();
        assert_eq!(all, expect);
    }

    #[test]
    fn equal_keys_of_different_kinds_share_an_entry() {
        let pool = BufferPool::new();
        let mut s = staging(Some(Builtin::Max), 1, &pool);
        s.emit(Value::Int(2), Value::Int(5)).unwrap();
        s.emit(Value::Double(2.0), Value::Double(5.0)).unwrap();
        let (parts, _) = s.into_parts();
        assert_eq!(parts[0].len(), 1);
        // First-emitted key, last-of-equals value — what the raw
        // reducer keeps over the same stream.
        assert_eq!(format!("{:?}", parts[0][0]), "(Int(2), Double(5.0))");
    }

    #[test]
    fn drain_with_no_reduction_switches_to_pass_through() {
        let pool = BufferPool::new();
        let mut s = staging(Some(Builtin::Sum), 1, &pool);
        for i in 0..10 {
            s.emit(Value::Int(i), Value::Int(1)).unwrap();
        }
        s.check_reduction();
        assert!(s.bypass);
        // Repeats now arrive: appended behind the table's entries, not
        // folded, counted as bypassed.
        for i in 0..10 {
            s.emit(Value::Int(i), Value::Int(1)).unwrap();
        }
        assert_eq!(counters(&s), (10, 10, 10));
        let (parts, bytes) = s.into_parts();
        assert_eq!(parts[0].len(), 20);
        assert_eq!(parts[0][..10], parts[0][10..]);
        assert_eq!(bytes[0], 20 * pair_bytes(&Value::Int(0), &Value::Int(1)));
    }

    #[test]
    fn a_reducing_window_keeps_the_table() {
        let pool = BufferPool::new();
        let mut s = staging(Some(Builtin::Sum), 1, &pool);
        // 10 emits, 9 entries: exactly 0.9 is not *above* 0.9.
        for i in 0..10 {
            s.emit(Value::Int(i.min(8)), Value::Int(1)).unwrap();
        }
        s.check_reduction();
        assert!(!s.bypass);
        // An empty window decides nothing.
        s.check_reduction();
        assert!(!s.bypass);
    }

    #[test]
    fn unforced_check_fires_every_check_emits() {
        let pool = BufferPool::new();
        let mut s = staging(Some(Builtin::Count), 2, &pool);
        for i in 0..CHECK_EMITS as i64 + 5 {
            s.emit(Value::Int(i), Value::Null).unwrap();
        }
        assert!(s.bypass);
        assert_eq!(counters(&s), (CHECK_EMITS, CHECK_EMITS, 5));
    }
}
