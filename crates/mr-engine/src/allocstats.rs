//! Heap-allocation accounting for the bench harness.
//!
//! "Allocation-free in steady state" is only a real property if a test
//! can falsify it. With the `bench-alloc` cargo feature on, this module
//! installs a counting wrapper around the system allocator; the runner
//! snapshots [`totals`] around each job and reports the delta through
//! `Counters::alloc_count` / `alloc_bytes`. With the feature off, the
//! wrapper is not installed and [`totals`] is a constant `(0, 0)` — the
//! counters read 0 and cost nothing.
//!
//! The counts are process-wide (a global allocator cannot be scoped),
//! so they are meaningful only for serially-run jobs — like the
//! feature-gated integration test, which runs one job at a time.

/// Total `(allocation count, allocated bytes)` since process start.
/// Deallocations are not subtracted: the hot-path invariant is about
/// how often the allocator is *entered*, not net footprint.
pub fn totals() -> (u64, u64) {
    #[cfg(feature = "bench-alloc")]
    {
        use std::sync::atomic::Ordering;
        (
            counting::ALLOC_COUNT.load(Ordering::Relaxed),
            counting::ALLOC_BYTES.load(Ordering::Relaxed),
        )
    }
    #[cfg(not(feature = "bench-alloc"))]
    {
        (0, 0)
    }
}

/// Allocations made by the calling thread since it started (0 without
/// the feature). Unlike [`totals`], this attributes cleanly while other
/// threads — a test harness, a sibling test — allocate too.
pub fn thread_count() -> u64 {
    #[cfg(feature = "bench-alloc")]
    {
        counting::THREAD_COUNT.with(std::cell::Cell::get)
    }
    #[cfg(not(feature = "bench-alloc"))]
    {
        0
    }
}

/// Whether the counting allocator is compiled in (the `bench-alloc`
/// feature). Lets bench output distinguish "zero allocations" from
/// "not measured".
pub fn enabled() -> bool {
    cfg!(feature = "bench-alloc")
}

#[cfg(feature = "bench-alloc")]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};

    pub static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
    pub static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        // Const-initialised and drop-free, so touching it from inside
        // the allocator neither allocates nor registers a destructor.
        pub static THREAD_COUNT: Cell<u64> = const { Cell::new(0) };
    }

    fn count_on_thread() {
        let _ = THREAD_COUNT.try_with(|c| c.set(c.get() + 1));
    }

    struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            count_on_thread();
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            count_on_thread();
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
            // Only the growth is new demand on the allocator.
            ALLOC_BYTES.fetch_add(
                new_size.saturating_sub(layout.size()) as u64,
                Ordering::Relaxed,
            );
            System.realloc(ptr, layout, new_size)
        }
    }

    #[global_allocator]
    static COUNTING: CountingAlloc = CountingAlloc;
}

#[cfg(all(test, feature = "bench-alloc"))]
mod tests {
    use super::*;

    #[test]
    fn totals_advance_on_allocation() {
        let (c0, b0) = totals();
        let t0 = thread_count();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let (c1, b1) = totals();
        assert_eq!(thread_count(), t0 + 1);
        assert!(c1 > c0);
        assert!(b1 - b0 >= 4096);
        drop(v);
        assert!(enabled());
    }
}
