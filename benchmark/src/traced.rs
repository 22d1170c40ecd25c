//! The benchmark binary for the per-layer traced run: the same program
//! behind a counting global allocator, built only with `--features
//! trace-alloc`. Counting is off until the traced repetitions switch
//! it on, so the untraced repetitions of the same run price it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);

/// One cache line of counters. Map and reduce threads allocate at the
/// same time; a single pair of counters made them fight over one line
/// and cost the traced rounds half again their time.
#[repr(align(64))]
struct Shard {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

const SHARDS: usize = 16;
static COUNTS: [Shard; SHARDS] = [const {
    Shard {
        allocs: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; SHARDS];

thread_local! {
    // Const-initialised and without a destructor: touching it from the
    // allocator allocates nothing and stays legal during thread exit.
    static MARK: u8 = const { 0 };
}

/// This thread's shard, picked by where its thread-local block lives.
fn shard() -> &'static Shard {
    let at = MARK.with(|m| m as *const u8 as usize);
    &COUNTS[(at >> 12) % SHARDS]
}

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        let shard = shard();
        shard.allocs.fetch_add(1, Ordering::Relaxed);
        shard.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to `System`; the counters
// are statistics (`Relaxed`, publishing no other data) and never
// influence which pointer or layout reaches the system allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this wrapper with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Only the growth is new demand on the allocator.
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr` came from `System` with `layout`; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn main() -> std::process::ExitCode {
    manimal_benchmark::main_with(Some(manimal_benchmark::AllocHooks {
        totals: || {
            COUNTS.iter().fold((0, 0), |(allocs, bytes), shard| {
                (
                    allocs + shard.allocs.load(Ordering::Relaxed),
                    bytes + shard.bytes.load(Ordering::Relaxed),
                )
            })
        },
        set_counting: |on| COUNTING.store(on, Ordering::Relaxed),
    }))
}
