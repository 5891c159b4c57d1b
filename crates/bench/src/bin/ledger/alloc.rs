//! The counting global allocator behind `alloc.count` and `alloc.bytes`.
//!
//! Every call is forwarded unchanged to [`System`]; two relaxed atomic
//! counters record how many allocations (including reallocations) were
//! requested and how many bytes they asked for. The counters publish no
//! other data, so `Relaxed` is enough: a reader only ever compares two
//! snapshots taken on the thread that joined all the work in between.
//! This is the only `unsafe` code in the `ledger` binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The allocator installed with `#[global_allocator]` in `main.rs`.
pub struct Counting;

fn note(bytes: usize) {
    COUNT.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: each method forwards its arguments unchanged to `System`, which
// implements the `GlobalAlloc` contract; the only extra work is two atomic
// counter updates, which neither allocate nor touch the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` was allocated by this allocator (hence by `System`)
        // with `layout`, as the caller of `realloc` guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (hence by `System`)
        // with `layout`, as the caller of `dealloc` guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations and requested bytes since process start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCount {
    pub count: u64,
    pub bytes: u64,
}

/// The counters now.
pub fn snapshot() -> AllocCount {
    AllocCount {
        count: COUNT.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    }
}

impl AllocCount {
    /// The work counted between `earlier` and `self`.
    pub fn since(self, earlier: AllocCount) -> AllocCount {
        AllocCount {
            count: self.count - earlier.count,
            bytes: self.bytes - earlier.bytes,
        }
    }
}
