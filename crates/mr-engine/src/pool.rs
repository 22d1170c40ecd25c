//! The shuffle buffer pool: reusable pair buffers and run-file scratch.
//!
//! The external shuffle used to pay an allocation tax on its hottest
//! path: every staging flush left fresh empty `Vec`s behind, every
//! spilled run built new frame/block scratch, and every attempt started
//! from nothing. This pool closes that loop — map-staging pair buffers
//! and [`RunScratch`] writer scratch are *loaned* out, used, and
//! returned with their capacity intact, so steady-state spilling
//! allocates nothing new (the `bench-alloc` feature makes that an
//! asserted invariant, not a vibe).
//!
//! The protocol is strict and leak-tested: every
//! [`get_pairs`](BufferPool::get_pairs)/[`get_scratch`](BufferPool::get_scratch)
//! must be matched by exactly one
//! [`put_pairs`](BufferPool::put_pairs)/[`put_scratch`](BufferPool::put_scratch),
//! on every path — commit, spill, *and* task-attempt failure
//! ([`outstanding`](BufferPool::outstanding) is 0 after a job ends,
//! fault schedules included). A pool can be shared across jobs
//! ([`JobConfig::buffer_pool`](crate::job::JobConfig::buffer_pool)) so
//! warm buffers survive from one job to the next.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use mr_ir::value::Value;
use mr_storage::runfile::RunScratch;
use parking_lot::Mutex as PlMutex;

/// How many idle buffers of each kind a default pool retains. Sized
/// for the worst steady-state demand: every map worker holds one
/// staging buffer per partition, and a drain writes it in place.
pub const DEFAULT_POOL_BUFFERS: usize = 256;

/// A point-in-time view of pool traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Loans served from an idle buffer (no allocation).
    pub hits: u64,
    /// Loans that had to allocate a fresh buffer.
    pub misses: u64,
    /// Buffers currently loaned out and not yet returned. 0 when the
    /// protocol is intact and no job is mid-flight.
    pub outstanding: i64,
}

/// A bounded free-list of pair buffers and run-writer scratch.
#[derive(Debug)]
pub struct BufferPool {
    pairs: PlMutex<Vec<Vec<(Value, Value)>>>,
    scratch: PlMutex<Vec<RunScratch>>,
    /// Idle buffers retained per kind; 0 disables reuse (every loan
    /// allocates, every return drops) while keeping the leak
    /// accounting live.
    max_idle: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    outstanding: AtomicI64,
}

impl BufferPool {
    /// A pool retaining up to [`DEFAULT_POOL_BUFFERS`] idle buffers per
    /// kind.
    pub fn new() -> Arc<BufferPool> {
        BufferPool::with_capacity(DEFAULT_POOL_BUFFERS)
    }

    /// A pool retaining up to `max_idle` idle buffers per kind.
    pub fn with_capacity(max_idle: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool {
            pairs: PlMutex::new(Vec::new()),
            scratch: PlMutex::new(Vec::new()),
            max_idle,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            outstanding: AtomicI64::new(0),
        })
    }

    /// A pool that never reuses anything: every loan allocates fresh
    /// and every return is dropped: the A/B control that prices what
    /// pooling saves (`tests/allocgate.rs` measures both).
    pub fn disabled() -> Arc<BufferPool> {
        BufferPool::with_capacity(0)
    }

    /// Borrow an empty pair buffer (capacity reused when available).
    pub fn get_pairs(&self) -> Vec<(Value, Value)> {
        self.outstanding.fetch_add(1, Ordering::Relaxed);
        match self.pairs.lock().pop() {
            Some(buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                Vec::new()
            }
        }
    }

    /// Return a pair buffer. The contents are dropped here (outside
    /// any bucket lock); the spine keeps its capacity for the next
    /// loan.
    pub fn put_pairs(&self, mut buf: Vec<(Value, Value)>) {
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
        buf.clear();
        if buf.capacity() > 0 {
            let mut idle = self.pairs.lock();
            if idle.len() < self.max_idle {
                idle.push(buf);
            }
        }
    }

    /// Borrow run-writer scratch.
    pub fn get_scratch(&self) -> RunScratch {
        self.outstanding.fetch_add(1, Ordering::Relaxed);
        match self.scratch.lock().pop() {
            Some(s) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                s
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                RunScratch::new()
            }
        }
    }

    /// Return run-writer scratch.
    pub fn put_scratch(&self, s: RunScratch) {
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
        let mut idle = self.scratch.lock();
        if idle.len() < self.max_idle {
            idle.push(s);
        }
    }

    /// Buffers currently loaned out. The leak invariant: 0 whenever no
    /// job is mid-flight, on success *and* failure paths alike.
    pub fn outstanding(&self) -> i64 {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// Traffic snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            outstanding: self.outstanding.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loans_balance_and_capacity_survives() {
        let pool = BufferPool::new();
        let mut buf = pool.get_pairs();
        assert_eq!(pool.outstanding(), 1);
        buf.push((Value::Int(1), Value::Null));
        buf.reserve(100);
        let cap = buf.capacity();
        pool.put_pairs(buf);
        assert_eq!(pool.outstanding(), 0);
        let back = pool.get_pairs();
        assert!(back.is_empty(), "returned buffers come back cleared");
        assert!(back.capacity() >= cap, "capacity is what the pool keeps");
        pool.put_pairs(back);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn disabled_pool_tracks_but_never_reuses() {
        let pool = BufferPool::disabled();
        let mut buf = pool.get_pairs();
        buf.reserve(64);
        pool.put_pairs(buf);
        let again = pool.get_pairs();
        assert_eq!(again.capacity(), 0, "disabled pools always allocate");
        pool.put_pairs(again);
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.stats().hits, 0);
    }

    #[test]
    fn scratch_roundtrip() {
        let pool = BufferPool::with_capacity(2);
        let s = pool.get_scratch();
        pool.put_scratch(s);
        let s = pool.get_scratch();
        assert_eq!(pool.outstanding(), 1);
        pool.put_scratch(s);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn idle_cap_bounds_retention() {
        let pool = BufferPool::with_capacity(1);
        let (a, b) = (pool.get_pairs(), pool.get_pairs());
        let mut a = a;
        a.reserve(8);
        let mut b = b;
        b.reserve(8);
        pool.put_pairs(a);
        pool.put_pairs(b); // over the idle cap: dropped
        assert_eq!(pool.outstanding(), 0);
        let x = pool.get_pairs();
        let y = pool.get_pairs();
        assert!(x.capacity() > 0, "one buffer was retained");
        assert_eq!(y.capacity(), 0, "the second was dropped at the cap");
        pool.put_pairs(x);
        pool.put_pairs(y);
    }
}
